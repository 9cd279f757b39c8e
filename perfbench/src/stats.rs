//! Order statistics for per-cell times and repeated passes.

/// Median, quartiles, the highest tail percentile the sample supports,
/// and the sample count of a set of measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// `(p, value)` for the highest percentile `p` of [`TAIL_LADDER`] that
    /// leaves at least [`TAIL_SUPPORT`] samples beyond it; `None` when the
    /// sample is too small for any of them.
    pub tail: Option<(f64, f64)>,
}

/// Percentiles considered for [`Summary::tail`], highest first.
pub const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: f64 = 10.0;

/// Summarize `xs` (any order). Quartiles use the "exclusive" method of
/// Python's `statistics.quantiles(n=4)`, so they match what an external
/// checker computes from the same values.
pub fn summarize(xs: &[f64]) -> Summary {
    assert!(!xs.is_empty(), "summary of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let (q1, q3) = if n == 1 {
        (v[0], v[0])
    } else {
        (quartile(&v, 1), quartile(&v, 3))
    };
    let tail = TAIL_LADDER
        .iter()
        .find(|&&p| n as f64 * (100.0 - p) / 100.0 >= TAIL_SUPPORT - 1e-9)
        .map(|&p| (p, percentile(&v, p)));
    Summary {
        n,
        min: v[0],
        q1,
        median,
        q3,
        max: v[n - 1],
        tail,
    }
}

/// `statistics.quantiles(data, n=4, method="exclusive")[i - 1]` on sorted
/// data with at least two points.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let ld = sorted.len();
    let m = ld + 1;
    let j = (i * m / 4).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Linear-interpolation percentile of sorted data.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

impl Summary {
    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }

    /// One-line rendering for the benchmark log.
    pub fn line(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p}={v:.6}"),
            None => format!("p-tail=none(n<{})", TAIL_SUPPORT as usize + 1),
        };
        format!(
            "n={} median={:.6} q1={:.6} q3={:.6} iqr/median={:.4} min={:.6} max={:.6} {tail}",
            self.n,
            self.median,
            self.q1,
            self.q3,
            self.spread(),
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(summarize(&[1.0; 19]).tail, None);
        let xs: Vec<f64> = (0..20).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail.map(|t| t.0), Some(50.0));
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail.map(|t| t.0), Some(90.0));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail.map(|t| t.0), Some(99.0));
        let xs: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail.map(|t| t.0), Some(99.9));
    }

    #[test]
    fn single_sample() {
        let s = summarize(&[4.0]);
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.0, 4.0, 4.0));
        assert_eq!(s.spread(), 0.0);
    }
}
