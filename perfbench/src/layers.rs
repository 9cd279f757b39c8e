//! The traced run: per-layer numbers for one workload.
//!
//! It runs the workload untraced once, timing each cell, then
//! rebuilds every simulation cell with timing wrappers ([`crate::rebuild`])
//! and replays the traffic, calendar and fluid layers in isolation at the
//! workload's measured sizes. A rebuilt cell must fire exactly as many
//! events as the untraced run reported, or the cell counts as failed.

use crate::rebuild::{self, Cell, Depth};
use crate::spans::{self, Layer, Table};
use crate::stats::summarize;
use crate::workload::{run_pass, Pass, Plan};
use eac::host::HostAgent;
use fluid::thrash::ThrashModel;
use netsim::{Event, NodeId};
use simcore::{EventQueue, SimDuration, SimRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use telemetry::{Telemetry, TimeSeries};
use traffic::SourceSpec;

/// The source models the traffic layer is replayed for, in the order of
/// the `traffic.next_packet_ns.{exp1,exp2,poo1,starwars}` metrics.
const SOURCES: [fn() -> SourceSpec; 4] = [
    SourceSpec::exp1,
    SourceSpec::exp2,
    SourceSpec::poo1,
    SourceSpec::starwars,
];

/// Most `next_packet` calls replayed per source model; the per-call time
/// is a mean, so a longer replay adds time without adding information.
const MAX_REPLAY: u64 = 5_000_000;

/// Calendar operations timed by the hold-model replay.
const HOLD_OPS: u64 = 2_000_000;

/// What the traced rebuild of one cell measured.
#[derive(Debug, Default)]
pub struct CellTrace {
    /// Events fired (exact).
    pub events: u64,
    /// Simulated seconds run, drain included.
    pub sim_s: f64,
    /// Calendar depth samples.
    pub depth: Depth,
    /// Host admission decisions and accepts in the measured window.
    pub decided: u64,
    /// Accepted decisions.
    pub accepted: u64,
    /// Probe packets sent in the measured window.
    pub probes: u64,
    /// Data packets generated per source model name.
    pub packets: Vec<(&'static str, u64)>,
    /// Packets accepted and offered at the bottlenecks.
    pub accept: (u64, u64),
    /// TCP retransmissions (Fig 11 cells).
    pub retransmits: u64,
    /// Telemetry hub, when the cell ran with one.
    pub telemetry: Option<Box<Telemetry>>,
}

/// The event-equality guard: a rebuilt cell must fire exactly the events
/// the library's own run of the same seed reported.
pub fn guard_events(rebuilt: u64, reference: u64) -> Result<(), String> {
    if rebuilt == reference {
        Ok(())
    } else {
        Err(format!(
            "rebuilt cell fired {rebuilt} events, the library run {reference}"
        ))
    }
}

/// Drive a built cell and collect its layer counts, checking packet
/// conservation at the end.
pub fn finish(mut cell: Cell, traced: bool) -> Result<(Cell, CellTrace), String> {
    let depth = cell
        .drive(traced)
        .map_err(|e| format!("run aborted: {e}"))?;
    cell.sim
        .check_conservation()
        .map_err(|e| format!("conservation audit: {e}"))?;
    let mut t = CellTrace {
        events: cell.sim.queue.events_fired(),
        sim_s: cell.drain.unwrap_or(cell.horizon).as_secs_f64(),
        depth,
        accept: cell.bottleneck_accept(),
        ..CellTrace::default()
    };
    for (node, sources) in &cell.hosts {
        let h = cell.sim.agent::<HostAgent>(*node).expect("host agent");
        t.decided += h.stats.decided.iter().map(|c| c.since_mark()).sum::<u64>();
        t.accepted += h.stats.accepted.iter().map(|c| c.since_mark()).sum::<u64>();
        t.probes += h.stats.probe_sent.since_mark();
        for (g, &name) in sources.iter().enumerate() {
            t.packets.push((name, h.stats.data_sent[g].total()));
        }
    }
    if let Some(n) = &cell.coexist {
        let tcp = n.tcp_host;
        t.retransmits = cell
            .sim
            .agent::<tcpsim::TcpSenderBank>(tcp)
            .expect("tcp sender bank")
            .stats
            .retransmits
            .total();
    }
    t.telemetry = cell.sim.net.telemetry.take();
    Ok((cell, t))
}

/// Write a cell's telemetry as a telemetry sweep exports a one-cell grid
/// (the per-seed series and metrics, then the per-design merged copies),
/// returning the seconds it took.
fn export_telemetry(dir: &Path, cell: usize, hub: &Telemetry) -> f64 {
    let t = Instant::now();
    let write = |name: String, content: String| {
        std::fs::write(dir.join(&name), content)
            .unwrap_or_else(|e| panic!("cannot write telemetry {name}: {e}"));
    };
    let metrics = serde_json::to_string(&hub.metrics).expect("metrics serialize");
    write(
        format!("cell{cell}.series.csv"),
        hub.sampler.series.to_csv(),
    );
    write(format!("cell{cell}.metrics.json"), metrics.clone());
    write(format!("cell{cell}.merged.metrics.json"), metrics);
    write(
        format!("cell{cell}.merged.series.csv"),
        TimeSeries::mean_across(&[&hub.sampler.series]).to_csv(),
    );
    t.elapsed().as_secs_f64()
}

/// Nanoseconds per `EventQueue` pop + `schedule_in` pair in the hold
/// model, with `depth` events pending and exponential hold times of mean
/// `mean_hold_s` simulated seconds. The queue holds the simulator's own
/// `Event` type, so a change to its size shows here.
pub fn hold_ns_per_op(depth: usize, mean_hold_s: f64, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let delays: Vec<SimDuration> = (0..4096)
        .map(|_| SimDuration::from_secs_f64(rng.exponential(mean_hold_s)))
        .collect();
    let mut q: EventQueue<Event> = EventQueue::new();
    for i in 0..depth.max(1) {
        let ev = Event::Timer {
            node: NodeId(0),
            kind: 0,
            data: i as u64,
        };
        q.schedule_in(delays[i % delays.len()], ev);
    }
    let t = Instant::now();
    for i in 0..HOLD_OPS as usize {
        let (_, ev) = q.pop().expect("hold model keeps the queue non-empty");
        q.schedule_in(delays[i % delays.len()], black_box(ev));
    }
    t.elapsed().as_nanos() as f64 / HOLD_OPS as f64
}

/// Nanoseconds per `PacketProcess::next_packet` of `spec`, over `calls`
/// calls (0 when the workload generated no such packets).
pub fn next_packet_ns(spec: &SourceSpec, calls: u64, seed: u64) -> f64 {
    let calls = calls.min(MAX_REPLAY);
    if calls == 0 {
        return 0.0;
    }
    let mut p = spec.build();
    let mut rng = SimRng::new(seed);
    let t = Instant::now();
    for _ in 0..calls {
        black_box(p.next_packet(&mut rng));
    }
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// Per-layer results of a traced run.
pub struct Traced {
    /// Metric values, named as in [`crate::metrics::PER_LAYER`].
    pub values: Vec<(&'static str, f64)>,
    /// Cells attempted (untraced and traced).
    pub attempted: usize,
    /// Failures, one message each.
    pub failures: Vec<String>,
    /// The untraced pass (digest, per-cell times).
    pub pass: Pass,
}

fn per_call(a: spans::Acc) -> f64 {
    if a.calls == 0 {
        0.0
    } else {
        a.self_ns as f64 / a.calls as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced run of `plan`.
pub fn traced(plan: &Plan, out: &Path) -> Traced {
    let pass = run_pass(plan, out);
    let mut attempted = pass.attempted;
    let mut failures = pass.failures.clone();

    // Telemetry costs: the same cells again with telemetry off.
    let telemetry_overhead = if plan.telemetry {
        let mut off = plan.clone();
        off.telemetry = false;
        let off = run_pass(&off, out);
        attempted += off.attempted;
        failures.extend(off.failures);
        ratio(pass.cpu_s, off.cpu_s) - 1.0
    } else {
        0.0
    };

    let tel_dir = out.join("trace-telemetry");
    if plan.telemetry {
        std::fs::create_dir_all(&tel_dir).expect("trace telemetry dir");
    }
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut export_s = 0.0;
    let mut sum = CellTrace::default();
    let mut rebuilt = 0;
    spans::take();
    let mut run_cell =
        |label: String,
         build: &dyn Fn() -> Cell,
         reference_s: f64,
         check: &mut dyn FnMut(&mut Cell, &CellTrace) -> Result<(), String>| {
            attempted += 1;
            untraced_s += reference_s;
            let t = Instant::now();
            let outcome =
                finish(build(), true).and_then(|(mut cell, tr)| check(&mut cell, &tr).map(|()| tr));
            traced_s += t.elapsed().as_secs_f64();
            match outcome {
                Ok(tr) => {
                    if let Some(hub) = &tr.telemetry {
                        export_s += export_telemetry(&tel_dir, rebuilt, hub);
                    }
                    rebuilt += 1;
                    sum.events += tr.events;
                    sum.sim_s += tr.sim_s;
                    sum.depth.merge(&tr.depth);
                    sum.decided += tr.decided;
                    sum.accepted += tr.accepted;
                    sum.probes += tr.probes;
                    sum.packets.extend(tr.packets);
                    sum.accept.0 += tr.accept.0;
                    sum.accept.1 += tr.accept.1;
                    sum.retransmits += tr.retransmits;
                }
                Err(e) => failures.push(format!("traced {label}: {e}")),
            }
        };

    for (i, cell) in plan.single.iter().enumerate() {
        let reference = pass.single[i].as_ref().map(|r| r.events);
        run_cell(
            format!("single-link cell {i}"),
            &|| rebuild::single(&cell.scenario, true, plan.telemetry),
            pass.cell_s[i],
            &mut |_, tr| match reference {
                Some(ev) => guard_events(tr.events, ev),
                None => Err("no untraced reference".into()),
            },
        );
    }
    let offset = plan.single.len();
    for (i, mh) in plan.multihop.iter().enumerate() {
        let reference = pass.multihop[i].as_ref().map(|r| r.events);
        run_cell(
            format!("tables56 cell {i}"),
            &|| rebuild::multihop(mh, true),
            pass.cell_s[offset + i],
            &mut |_, tr| match reference {
                Some(ev) => guard_events(tr.events, ev),
                None => Err("no untraced reference".into()),
            },
        );
    }
    let offset = offset + plan.multihop.len();
    for (i, cx) in plan.coexist.iter().enumerate() {
        let reference = pass.coexist[i].clone();
        run_cell(
            format!("fig11 cell {i}"),
            &|| rebuild::coexist(cx, true),
            pass.cell_s[offset + i],
            &mut |cell, _| match &reference {
                Some(r) if rebuild::same_coexist(&cell.coexist_report(cx), r) => Ok(()),
                Some(_) => Err("rebuilt report differs from CoexistScenario::run".into()),
                None => Err("no untraced reference".into()),
            },
        );
    }
    let table: Table = spans::take();

    let fluid_point_ms = plan.fluid.as_ref().map_or(0.0, |g| {
        let t = Instant::now();
        for &x in &g.probe_s {
            black_box(ThrashModel::fig1(x).point(g.horizon_s, g.seeds.len() as u64));
        }
        t.elapsed().as_secs_f64() * 1e3 / g.probe_s.len() as f64
    });

    let pending_mean = ratio(sum.depth.sum as f64, sum.depth.samples as f64);
    let events_per_sim_s = ratio(sum.events as f64, sum.sim_s);
    let hold = if sum.events == 0 {
        0.0
    } else {
        hold_ns_per_op(
            pending_mean.round() as usize,
            ratio(pending_mean, events_per_sim_s),
            plan.seed,
        )
    };
    let replay = |make: fn() -> SourceSpec| {
        let spec = make();
        let calls: u64 = sum
            .packets
            .iter()
            .filter(|(n, _)| *n == spec.name)
            .map(|&(_, c)| c)
            .sum();
        next_packet_ns(&spec, calls, plan.seed)
    };
    let traffic: Vec<f64> = SOURCES.iter().map(|&f| replay(f)).collect();

    let cells = summarize(&pass.cell_s);
    let host = table.sum(&[Layer::HostTimer, Layer::HostPacket]);
    let sink = table.sum(&[Layer::SinkTimer, Layer::SinkPacket]);
    // Loop spans never nest, so their self time is the run loop minus the
    // agent callbacks and qdisc calls it made directly.
    let loop_acc = table.get(Layer::Loop);

    let values = vec![
        ("simcore.events", sum.events as f64),
        ("simcore.pending_mean", pending_mean),
        ("simcore.pending_max", sum.depth.max as f64),
        ("simcore.hold_ns_per_op", hold),
        (
            "netsim.loop_self_ns_per_event",
            ratio(loop_acc.self_ns as f64, sum.events as f64),
        ),
        (
            "netsim.qdisc.enqueue_calls",
            table.get(Layer::Enqueue).calls as f64,
        ),
        (
            "netsim.qdisc.enqueue_ns",
            per_call(table.get(Layer::Enqueue)),
        ),
        (
            "netsim.qdisc.dequeue_calls",
            table.get(Layer::Dequeue).calls as f64,
        ),
        (
            "netsim.qdisc.dequeue_ns",
            per_call(table.get(Layer::Dequeue)),
        ),
        (
            "netsim.qdisc.accept_ratio",
            ratio(sum.accept.0 as f64, sum.accept.1 as f64),
        ),
        (
            "core.host.on_timer_calls",
            table.get(Layer::HostTimer).calls as f64,
        ),
        (
            "core.host.on_packet_calls",
            table.get(Layer::HostPacket).calls as f64,
        ),
        ("core.host.self_ns", per_call(host)),
        (
            "core.sink.on_packet_calls",
            table.get(Layer::SinkPacket).calls as f64,
        ),
        ("core.sink.self_ns", per_call(sink)),
        ("core.meter.self_ns", per_call(table.get(Layer::Meter))),
        (
            "core.admit_ratio",
            ratio(sum.accepted as f64, sum.decided as f64),
        ),
        (
            "core.probes_per_decision",
            ratio(sum.probes as f64, sum.decided as f64),
        ),
        ("traffic.next_packet_ns.exp1", traffic[0]),
        ("traffic.next_packet_ns.exp2", traffic[1]),
        ("traffic.next_packet_ns.poo1", traffic[2]),
        ("traffic.next_packet_ns.starwars", traffic[3]),
        (
            "tcpsim.sender.self_ns",
            per_call(table.get(Layer::TcpSender)),
        ),
        ("tcpsim.sink.self_ns", per_call(table.get(Layer::TcpSink))),
        ("tcpsim.retransmits", sum.retransmits as f64),
        ("telemetry.overhead_frac", telemetry_overhead),
        ("telemetry.export_s", export_s),
        ("fluid.point_ms", fluid_point_ms),
        (
            "bench.pool.busy_frac",
            ratio(pass.cell_s.iter().sum(), plan.jobs as f64 * pass.wall_s),
        ),
        ("bench.cell_s.p50", cells.median),
        ("bench.cell_s.max", cells.max),
        ("bench.output.save_s", pass.save_s),
        ("trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0),
    ];
    Traced {
        values,
        attempted,
        failures,
        pass,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eac::design::Design;
    use eac::multihop::MultihopScenario;
    use eac::probe::{Placement, ProbeStyle, Signal};
    use eac::scenario::Scenario;
    use eac::CoexistScenario;

    fn heavy() -> Scenario {
        Scenario::basic()
            .tau(1.0)
            .horizon_secs(40.0)
            .warmup_secs(10.0)
            .seed(3)
    }

    #[test]
    fn guard_rejects_a_mis_built_cell() {
        let sc = heavy();
        let reference = sc.run().expect("library run").events;
        let (_, good) = finish(rebuild::single(&sc, true, false), true).expect("rebuild runs");
        assert_eq!(guard_events(good.events, reference), Ok(()));

        let mut wrong = sc.clone();
        wrong.buffer_pkts = 2;
        let (_, bad) = finish(rebuild::single(&wrong, true, false), true).expect("rebuild runs");
        assert!(guard_events(bad.events, reference).is_err());
    }

    #[test]
    fn rebuilds_fire_the_library_events() {
        for d in [
            Design::endpoint(
                Signal::Mark,
                Placement::OutOfBand,
                ProbeStyle::SlowStart,
                0.05,
            ),
            Design::mbac(0.9),
        ] {
            let sc = heavy().design(d);
            let reference = sc.run().expect("library run").events;
            let (_, tr) = finish(rebuild::single(&sc, false, true), false).expect("rebuild");
            assert_eq!(tr.events, reference, "{d:?}");

            let mh = MultihopScenario::tables56()
                .design(d)
                .horizon_secs(30.0)
                .warmup_secs(10.0)
                .seed(4);
            let reference = mh.run().expect("library run").events;
            let (_, tr) = finish(rebuild::multihop(&mh, true), true).expect("rebuild");
            assert_eq!(tr.events, reference, "multihop {d:?}");
        }
        let cx = CoexistScenario::fig11(0.05)
            .horizon_secs(80.0)
            .steady_after_secs(60.0)
            .seed(2);
        let reference = cx.run();
        let (mut cell, tr) = finish(rebuild::coexist(&cx, true), true).expect("rebuild");
        assert!(rebuild::same_coexist(&cell.coexist_report(&cx), &reference));
        assert!(tr.events > 0);
        let sink_calls = spans::take().get(Layer::TcpSink).calls;
        assert!(sink_calls > 0, "the traced combined sink times TCP");
    }

    #[test]
    fn layer_replays_measure_something() {
        assert!(hold_ns_per_op(100, 0.01, 1) > 0.0);
        assert_eq!(next_packet_ns(&SourceSpec::poo1(), 0, 1), 0.0);
        assert!(next_packet_ns(&SourceSpec::starwars(), 1_000, 1) > 0.0);
    }
}
