//! Correctness checks applied to every result before a number is
//! reported, and the digest that lets two builds be compared byte for
//! byte.

use eac::coexist::CoexistReport;
use eac::metrics::Report;

fn unit_interval(name: &str, x: f64) -> Result<(), String> {
    if (0.0..=1.0).contains(&x) {
        Ok(())
    } else {
        Err(format!("{name} = {x} lies outside [0, 1]"))
    }
}

/// Check a scenario [`Report`]: every group's decisions split exactly
/// into accepts and rejects, and utilization, loss and blocking are
/// probabilities.
pub fn report(r: &Report) -> Result<(), String> {
    let at = |e: String| format!("{} param {}: {e}", r.design, r.param);
    for g in &r.groups {
        if g.decided != g.accepted + g.rejected {
            return Err(at(format!(
                "group {}: decided {} != accepted {} + rejected {}",
                g.name, g.decided, g.accepted, g.rejected
            )));
        }
        unit_interval(&format!("group {} loss", g.name), g.loss).map_err(at)?;
        unit_interval(&format!("group {} blocking", g.name), g.blocking).map_err(at)?;
    }
    for (name, x) in [
        ("utilization", r.utilization),
        ("data_loss", r.data_loss),
        ("link_loss", r.link_loss),
        ("blocking", r.blocking),
    ] {
        unit_interval(name, x).map_err(at)?;
    }
    for (i, &u) in r.link_utils.iter().enumerate() {
        unit_interval(&format!("link {i} utilization"), u).map_err(at)?;
    }
    if r.events == 0 {
        return Err(at("no simulated events".into()));
    }
    Ok(())
}

/// Check a Fig 11 [`CoexistReport`].
pub fn coexist(r: &CoexistReport) -> Result<(), String> {
    let at = |e: String| format!("fig11 eps {}: {e}", r.epsilon);
    for (name, x) in [
        ("tcp_util", r.tcp_util),
        ("eac_util", r.eac_util),
        ("blocking", r.blocking),
    ] {
        unit_interval(name, x).map_err(at)?;
    }
    if r.series.is_empty() {
        return Err(at("empty utilization series".into()));
    }
    Ok(())
}

/// Check one Fig 1 fluid point `(probe s, utilization, in-band loss)`.
pub fn fluid_point(p: (f64, f64, f64)) -> Result<(), String> {
    let at = |e: String| format!("fig1 probe {} s: {e}", p.0);
    unit_interval("utilization", p.1).map_err(at)?;
    unit_interval("loss", p.2).map_err(at)
}

/// 64-bit FNV-1a: a stable digest of serialized results (the standard
/// library's hasher is not guaranteed stable across releases).
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Hex rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eac::metrics::GroupReport;

    fn sample() -> Report {
        Report {
            design: "drop (in-band)".into(),
            param: 0.01,
            utilization: 0.8,
            data_loss: 0.001,
            link_loss: 0.001,
            blocking: 0.25,
            probe_overhead: 0.01,
            mark_fraction: 0.0,
            delay_ms_mean: 1.0,
            delay_ms_std: 1.0,
            delay_hist: telemetry::HistSummary::default(),
            groups: vec![GroupReport {
                name: "EXP1".into(),
                decided: 4,
                accepted: 3,
                rejected: 1,
                blocking: 0.25,
                data_sent: 100,
                data_received: 99,
                loss: 0.01,
            }],
            link_utils: vec![0.8],
            timeouts: 0,
            leaked_flows: 0,
            measured_s: 150.0,
            events: 10,
            seed: 1,
        }
    }

    #[test]
    fn consistent_report_passes() {
        assert_eq!(report(&sample()), Ok(()));
    }

    #[test]
    fn broken_decision_split_fails() {
        let mut r = sample();
        r.groups[0].rejected = 2;
        assert!(report(&r).unwrap_err().contains("decided"));
    }

    #[test]
    fn probability_out_of_range_fails() {
        let mut r = sample();
        r.utilization = 1.2;
        assert!(report(&r).unwrap_err().contains("utilization"));
    }

    #[test]
    fn digest_is_fnv1a() {
        let mut d = Digest::default();
        d.update(b"a");
        assert_eq!(d.hex(), "af63dc4c8601ec8c");
    }
}
