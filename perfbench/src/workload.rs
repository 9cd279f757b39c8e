//! The three benchmark workloads and the untraced pass that drives them
//! through the same public calls the `experiments` CLI makes.

use crate::check::{self, Digest};
use eac::coexist::{CoexistReport, CoexistScenario};
use eac::design::Design;
use eac::metrics::Report;
use eac::multihop::MultihopScenario;
use eac::probe::ProbeStyle;
use eac::scenario::{Scenario, ScenarioError};
use eac_bench::catalog::ETAS_MBAC;
use eac_bench::catalog::{design, endpoint_designs, eps_grid, fig9_eps, Workload as Source};
use eac_bench::{pool, save_json, Sweep};
use fluid::thrash::{RunAreas, ThrashModel};
use netsim::RunError;
use std::path::Path;
use std::time::Instant;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Fig 2 grid: the canonical single-link packet hot path.
    Fig2,
    /// The Fig 9 grid: every source model, pooled one-cell sweeps with
    /// telemetry on.
    Fig9,
    /// Tables 5/6 (multi-hop), Fig 11 (TCP coexistence) and Fig 1 (fluid).
    Fig1011,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fig2, Workload::Fig9, Workload::Fig1011];

    /// The name the benchmark command takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2 => "fig2-single-link",
            Workload::Fig9 => "fig9-mix-telemetry",
            Workload::Fig1011 => "fig10-11-fluid",
        }
    }

    /// Parse a workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Simulated run lengths. The benchmark fixes them so parent and change
/// do the same work; they are shorter than the CLI's `--smoke` preset so
/// several passes fit in one measured run.
#[derive(Clone, Copy, Debug)]
pub struct Lengths {
    /// Single-link and multi-hop horizon, seconds.
    pub horizon_s: f64,
    /// Single-link and multi-hop warm-up, seconds.
    pub warmup_s: f64,
    /// Fig 11 horizon, seconds.
    pub fig11_horizon_s: f64,
    /// Fig 11 steady-tail start, seconds.
    pub fig11_steady_s: f64,
    /// Fig 1 fluid-model horizon per seed, seconds.
    pub fig1_horizon_s: f64,
    /// Fig 1 seeds pooled per point.
    pub fig1_seeds: u64,
}

/// The lengths every benchmark run uses.
pub const BENCH: Lengths = Lengths {
    horizon_s: 200.0,
    warmup_s: 50.0,
    fig11_horizon_s: 200.0,
    fig11_steady_s: 75.0,
    fig1_horizon_s: 1_000.0,
    fig1_seeds: 2,
};

/// Fig 1's probe-length axis, as the CLI sweeps it.
pub const FIG1_PROBE_S: [f64; 14] = [
    1.0, 1.4, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8, 3.0, 3.2, 3.4, 3.6, 4.0, 5.0,
];

/// Fig 11's ε axis, as the CLI sweeps it.
pub const FIG11_EPS: [f64; 8] = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.08, 0.10];

/// A single-link cell: one scenario, run as its own one-cell `Sweep`.
#[derive(Clone, Debug)]
pub struct SingleCell {
    /// Design label and source workload, for logs and saved rows.
    pub label: String,
    /// The scenario, with design, run length and seed applied.
    pub scenario: Scenario,
}

/// Fig 1's fluid grid.
#[derive(Clone, Debug)]
pub struct FluidGrid {
    /// Mean probe durations (x-axis).
    pub probe_s: Vec<f64>,
    /// Model horizon per seed.
    pub horizon_s: f64,
    /// Seeds pooled per point.
    pub seeds: Vec<u64>,
}

/// Everything one pass of a workload runs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Single-link cells, run in order.
    pub single: Vec<SingleCell>,
    /// Tables 5/6 cells (multi-hop).
    pub multihop: Vec<MultihopScenario>,
    /// Fig 11 cells (TCP coexistence).
    pub coexist: Vec<CoexistScenario>,
    /// Fig 1 fluid points.
    pub fluid: Option<FluidGrid>,
    /// Worker count handed to every sweep and pool call.
    pub jobs: usize,
    /// Whether sweeps capture telemetry.
    pub telemetry: bool,
}

impl Plan {
    /// The plan of `workload` for `seed` at run lengths `len`.
    pub fn new(workload: Workload, seed: u64, len: &Lengths) -> Plan {
        let mut plan = Plan {
            workload,
            seed,
            single: Vec::new(),
            multihop: Vec::new(),
            coexist: Vec::new(),
            fluid: None,
            jobs: 1,
            telemetry: false,
        };
        // Every cell gets its own seed derived from the workload seed. Cells
        // sharing one seed would share one arrival process, so the whole
        // grid's work would swing with a single draw; independent cells
        // average it out.
        let cell_seed = |i: usize| seed.wrapping_mul(1_000).wrapping_add(i as u64);
        let mut add = |label: String, s: Scenario| {
            let i = plan.single.len();
            plan.single.push(SingleCell {
                label,
                scenario: s
                    .horizon_secs(len.horizon_s)
                    .warmup_secs(len.warmup_s)
                    .seed(cell_seed(i)),
            });
        };
        match workload {
            Workload::Fig2 => {
                let base = Source::Basic.scenario();
                for (label, signal, placement) in endpoint_designs(ProbeStyle::SlowStart) {
                    for e in eps_grid(placement) {
                        let d = design(signal, placement, ProbeStyle::SlowStart, e);
                        add(label.to_string(), base.clone().design(d));
                    }
                }
                for &eta in &ETAS_MBAC {
                    add("MBAC".to_string(), base.clone().design(Design::mbac(eta)));
                }
            }
            Workload::Fig9 => {
                for (label, signal, placement) in endpoint_designs(ProbeStyle::SlowStart) {
                    let d = design(
                        signal,
                        placement,
                        ProbeStyle::SlowStart,
                        fig9_eps(placement),
                    );
                    for w in Source::ALL {
                        add(format!("{label} / {}", w.name()), w.scenario().design(d));
                    }
                }
                plan.jobs = 2;
                plan.telemetry = true;
            }
            Workload::Fig1011 => {
                let mut designs: Vec<Design> = endpoint_designs(ProbeStyle::SlowStart)
                    .into_iter()
                    .map(|(_, s, p)| design(s, p, ProbeStyle::SlowStart, 0.0))
                    .collect();
                designs.push(Design::mbac(0.9));
                plan.multihop = designs
                    .into_iter()
                    .enumerate()
                    .map(|(i, d)| {
                        MultihopScenario::tables56()
                            .design(d)
                            .horizon_secs(len.horizon_s)
                            .warmup_secs(len.warmup_s)
                            .seed(cell_seed(i))
                    })
                    .collect();
                let first = plan.multihop.len();
                plan.coexist = FIG11_EPS
                    .iter()
                    .enumerate()
                    .map(|(i, &eps)| {
                        CoexistScenario::fig11(eps)
                            .horizon_secs(len.fig11_horizon_s)
                            .steady_after_secs(len.fig11_steady_s)
                            .seed(cell_seed(first + i))
                    })
                    .collect();
                plan.fluid = Some(FluidGrid {
                    probe_s: FIG1_PROBE_S.to_vec(),
                    horizon_s: len.fig1_horizon_s,
                    seeds: (0..len.fig1_seeds)
                        .map(|s| seed.wrapping_mul(1_000).wrapping_add(s))
                        .collect(),
                });
            }
        }
        plan
    }
}

/// What one untraced pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall seconds from the first cell's start until the last result
    /// was serialized.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Simulated events in the single-link and multi-hop reports.
    pub events: u64,
    /// Cells attempted and failed (error, panic or broken invariant).
    pub attempted: usize,
    /// Failures, one message each.
    pub failures: Vec<String>,
    /// Seconds per cell (one sweep or pool job; the fluid grid is one).
    pub cell_s: Vec<f64>,
    /// Seconds spent in `save_json`.
    pub save_s: f64,
    /// Digest of every serialized result.
    pub digest: String,
    /// Single-link reports per cell, in plan order (`None` = failed).
    pub single: Vec<Option<Report>>,
    /// Multi-hop reports per cell.
    pub multihop: Vec<Option<Report>>,
    /// Coexistence reports per cell.
    pub coexist: Vec<Option<CoexistReport>>,
}

fn timed<R>(acc: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    acc.push(t.elapsed().as_secs_f64());
    r
}

fn save<T: serde::Serialize>(pass: &mut Pass, digest: &mut Digest, id: &str, value: &T) {
    let t = Instant::now();
    save_json(id, value);
    pass.save_s += t.elapsed().as_secs_f64();
    digest.update(id.as_bytes());
    digest.update(
        serde_json::to_string(value)
            .expect("results serialize")
            .as_bytes(),
    );
}

/// Run one untraced pass of `plan`, writing telemetry under `out`.
/// `save_json` writes under `$EAC_RESULTS_DIR`, which the caller sets.
pub fn run_pass(plan: &Plan, out: &Path) -> Pass {
    let mut pass = Pass::default();
    let mut digest = Digest::default();
    let cpu0 = crate::procfs::cpu_seconds();
    let t0 = Instant::now();

    if !plan.single.is_empty() {
        let mut all: Vec<Report> = Vec::new();
        let mut fig9_rows: Vec<(String, f64)> = Vec::new();
        for (n, cell) in plan.single.iter().enumerate() {
            let mut sweep = Sweep::new(cell.scenario.clone())
                .jobs(plan.jobs)
                .isolated(true);
            if plan.telemetry {
                sweep = sweep.telemetry(out.join("telemetry").join(format!("sweep{n:03}")));
            }
            let result = timed(&mut pass.cell_s, || sweep.run());
            pass.attempted += 1;
            let report = result.reports.into_iter().next().expect("one design");
            match report.and_then(|r| check::report(&r).map(|()| r)) {
                Ok(r) => {
                    pass.events += r.events;
                    fig9_rows.push((cell.label.clone(), r.data_loss));
                    all.push(r.clone());
                    pass.single.push(Some(r));
                }
                Err(e) => {
                    pass.failures.push(format!("{} cell {n}: {e}", cell.label));
                    pass.single.push(None);
                }
            }
        }
        digest.update(
            serde_json::to_string(&all)
                .expect("reports serialize")
                .as_bytes(),
        );
        match plan.workload {
            // The CLI saves the loss column only for Fig 9.
            Workload::Fig9 => save(&mut pass, &mut digest, "fig9", &fig9_rows),
            _ => save(&mut pass, &mut digest, "fig2", &all),
        }
    }

    if !plan.multihop.is_empty() {
        let cells = &plan.multihop;
        let mut cell_s = vec![0.0; cells.len()];
        let raw = pool::run_indexed(cells.len(), plan.jobs, |i| {
            let t = Instant::now();
            let r = cells[i].run();
            (r, t.elapsed().as_secs_f64())
        });
        let mut ser: Vec<Report> = Vec::new();
        for (i, r) in raw.into_iter().enumerate() {
            pass.attempted += 1;
            let checked = match r {
                Ok((Ok(rep), s)) => {
                    cell_s[i] = s;
                    check::report(&rep).map(|()| rep)
                }
                Ok((Err(e), _)) => Err(e.to_string()),
                Err(_) => Err("panicked".to_string()),
            };
            match checked {
                Ok(rep) => {
                    pass.events += rep.events;
                    // One seed per design: its average is itself.
                    ser.push(Report::average(std::slice::from_ref(&rep)));
                    pass.multihop.push(Some(rep));
                }
                Err(e) => {
                    pass.failures.push(format!("tables56 cell {i}: {e}"));
                    pass.multihop.push(None);
                }
            }
        }
        pass.cell_s.extend(cell_s);
        save(&mut pass, &mut digest, "tables56", &ser);
    }

    if !plan.coexist.is_empty() {
        let cells = &plan.coexist;
        let mut cell_s = vec![0.0; cells.len()];
        let raw = pool::run_indexed(cells.len(), plan.jobs, |i| {
            let t = Instant::now();
            let r = cells[i].run();
            (r, t.elapsed().as_secs_f64())
        });
        let mut ser: Vec<CoexistReport> = Vec::new();
        for (i, r) in raw.into_iter().enumerate() {
            pass.attempted += 1;
            let checked = match r {
                Ok((rep, s)) => {
                    cell_s[i] = s;
                    check::coexist(&rep).map(|()| rep)
                }
                Err(_) => Err("panicked".to_string()),
            };
            match checked {
                Ok(rep) => {
                    ser.push(rep.clone());
                    pass.coexist.push(Some(rep));
                }
                Err(e) => {
                    pass.failures.push(format!("fig11 cell {i}: {e}"));
                    pass.coexist.push(None);
                }
            }
        }
        pass.cell_s.extend(cell_s);
        save(&mut pass, &mut digest, "fig11", &ser);
    }

    if let Some(grid) = &plan.fluid {
        pass.attempted += 1;
        let pts = timed(&mut pass.cell_s, || fig1_points(grid));
        match pts.iter().try_for_each(|&p| check::fluid_point(p)) {
            Ok(()) => save(&mut pass, &mut digest, "fig1", &pts),
            Err(e) => pass.failures.push(e),
        }
    }

    pass.wall_s = t0.elapsed().as_secs_f64();
    pass.cpu_s = crate::procfs::cpu_seconds() - cpu0;
    pass.digest = digest.hex();
    pass
}

/// Fig 1: one pooled `(probe s, utilization, in-band loss)` point per
/// probe length, pooling the grid's seeds exactly as `ThrashModel::point`
/// pools its fixed ones.
pub fn fig1_points(grid: &FluidGrid) -> Vec<(f64, f64, f64)> {
    grid.probe_s
        .iter()
        .map(|&x| {
            let m = ThrashModel::fig1(x);
            let mut pooled = RunAreas::default();
            for &s in &grid.seeds {
                pooled.merge(&m.run(grid.horizon_s, s));
            }
            let util = pooled.area_n / pooled.measured_s * m.flow_bps / m.capacity_bps;
            let loss = if pooled.area_load > 0.0 {
                pooled.area_lost / pooled.area_load
            } else {
                0.0
            };
            (x, util, loss)
        })
        .collect()
}

/// Seconds from calling into each simulation cell until its first
/// simulated event, summed over the plan's cells: the set-up work (topology,
/// routes, agents, calendar, telemetry hub) a pass pays before simulating.
/// Uses a one-event budget so the public entry points stop right there.
pub fn setup_once(plan: &Plan) -> Result<f64, String> {
    let mut total = 0.0;
    let mut timed_stop = |what: &str, f: &mut dyn FnMut() -> Result<(), ScenarioError>| {
        let t = Instant::now();
        let r = f();
        total += t.elapsed().as_secs_f64();
        match r {
            Err(ScenarioError::Run(RunError::EventBudgetExceeded { budget: 1, .. })) => Ok(()),
            other => Err(format!(
                "{what} set-up: expected a one-event stop, got {other:?}"
            )),
        }
    };
    for cell in &plan.single {
        let mut sc = cell.scenario.clone().event_budget(1);
        if plan.telemetry {
            sc = sc.telemetry(telemetry::TelemetryConfig::new());
        }
        timed_stop("single-link", &mut || sc.run_full().map(drop))?;
    }
    for mh in &plan.multihop {
        let mh = mh.clone().event_budget(1);
        timed_stop("multi-hop", &mut || mh.run().map(drop))?;
    }
    for cx in &plan.coexist {
        timed_stop("coexistence", &mut || {
            let mut cell = crate::rebuild::coexist(cx, false);
            cell.sim.set_event_budget(1);
            cell.sim
                .try_run_until(simcore::SimTime::MAX)
                .map_err(ScenarioError::Run)
        })?;
    }
    Ok(total)
}

/// Remove and recreate `dir` so each run starts from the same state.
pub fn fresh_dir(dir: &Path) {
    if dir.exists() {
        std::fs::remove_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot clear {}: {e}", dir.display()));
    }
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Lengths = Lengths {
        horizon_s: 15.0,
        warmup_s: 5.0,
        fig11_horizon_s: 60.0,
        fig11_steady_s: 20.0,
        fig1_horizon_s: 50.0,
        fig1_seeds: 1,
    };

    #[test]
    fn injected_budget_error_is_counted_and_the_pass_goes_on() {
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        fresh_dir(&dir);
        std::env::set_var("EAC_RESULTS_DIR", dir.join("results"));
        let mut plan = Plan::new(Workload::Fig2, 5, &TINY);
        let failing = 6;
        for cell in &mut plan.single[..failing] {
            cell.scenario = cell.scenario.clone().event_budget(1_000);
        }

        let pass = run_pass(&plan, &dir);
        assert_eq!(pass.attempted, 28);
        assert_eq!(pass.failures.len(), failing);
        assert!(pass.failures.iter().all(|f| f.contains("event budget")));
        assert!(pass.single[..failing].iter().all(Option::is_none));
        assert!(pass.single[failing..].iter().all(Option::is_some));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plans_have_the_paper_grids_and_pass_the_seed_through() {
        let fig2 = Plan::new(Workload::Fig2, 9, &BENCH);
        let seeds: Vec<u64> = fig2.single.iter().map(|c| c.scenario.seed).collect();
        assert_eq!(seeds, (9_000..9_028).collect::<Vec<u64>>());
        let fig9 = Plan::new(Workload::Fig9, 9, &BENCH);
        assert_eq!(fig9.single.len(), 32);
        assert_eq!((fig9.jobs, fig9.telemetry), (2, true));
        let f = Plan::new(Workload::Fig1011, 9, &BENCH);
        let seeds: Vec<u64> = f
            .multihop
            .iter()
            .map(|m| m.seed)
            .chain(f.coexist.iter().map(|c| c.seed))
            .collect();
        assert_eq!(seeds, (9_000..9_013).collect::<Vec<u64>>());
        assert_eq!(
            f.fluid.as_ref().map(|g| g.seeds.clone()),
            Some(vec![9_000, 9_001])
        );
    }

    #[test]
    fn setup_stops_at_the_first_event() {
        let plan = Plan::new(Workload::Fig1011, 2, &TINY);
        assert!(setup_once(&plan).expect("every cell reaches its first event") > 0.0);
    }
}
