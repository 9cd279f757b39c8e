//! Each cell's `Sim`, rebuilt from public parts so the benchmark owns it.
//!
//! The builders mirror `Scenario::run_full`, `MultihopScenario::run` and
//! `CoexistScenario::run` step for step (node order, link order, RNG
//! streams, agent configs, warm-up marks and drain), so a rebuilt cell
//! fires exactly the events the library's run does. The event-equality
//! guard in the traced run holds them to that. With `traced` set, every
//! agent is wrapped in a [`TimedAgent`] and every bottleneck qdisc in a
//! [`TimedQdisc`].

use crate::spans::{span, Layer, TimedAgent, TimedQdisc};
use eac::coexist::{CoexistReport, CoexistScenario, LinkSampler};
use eac::design::{effective_epsilons, Design, Group};
use eac::host::{HostAgent, HostConfig};
use eac::mbac::MbacRegistry;
use eac::multihop::MultihopScenario;
use eac::probe::{Placement, ProbeStyle, Signal};
use eac::scenario::{MeterAgent, Scenario};
use eac::sink::{stage_grace, SinkAgent, SinkConfig};
use netsim::{
    class_band_map, Agent, Api, Band, DropTail, Limit, LinkId, Network, NodeId, Packet, Qdisc,
    RunError, Sim, StrictPrio, TrafficClass, VirtualQueue,
};
use simcore::{SimDuration, SimRng, SimTime};
use std::any::Any;
use tcpsim::{TcpSenderBank, TcpSinkBank};
use telemetry::TelemetryConfig;
use traffic::{Demography, SourceSpec};

/// A built cell and the schedule its scenario runs on.
pub struct Cell {
    /// The simulation.
    pub sim: Sim,
    /// Host nodes, each with the source names of its groups.
    pub hosts: Vec<(NodeId, Vec<&'static str>)>,
    /// Plain `SinkAgent` nodes (marked at warm-up).
    pub sinks: Vec<NodeId>,
    /// Bottleneck links.
    pub bottlenecks: Vec<LinkId>,
    /// Warm-up end, when statistics are marked (`None`: never).
    pub warmup: Option<SimTime>,
    /// Measurement horizon.
    pub horizon: SimTime,
    /// Drain end after the horizon (`None`: no drain).
    pub drain: Option<SimTime>,
    /// Fig 11 only: the combined sink and sampler nodes.
    pub coexist: Option<CoexistNodes>,
}

/// Fig 11's extra nodes.
pub struct CoexistNodes {
    /// The admission-controlled host.
    pub eac_host: NodeId,
    /// The TCP sender bank.
    pub tcp_host: NodeId,
    /// The link sampler.
    pub sampler: NodeId,
}

fn agent(inner: Box<dyn Agent>, traced: bool, timer: Layer, packet: Layer) -> Box<dyn Agent> {
    if traced {
        Box::new(TimedAgent::new(inner, timer, packet))
    } else {
        inner
    }
}

fn bottleneck_qdisc(q: Box<dyn Qdisc>, traced: bool) -> Box<dyn Qdisc> {
    if traced {
        Box::new(TimedQdisc(q))
    } else {
        q
    }
}

fn meter(period: SimDuration, traced: bool) -> Box<dyn Agent> {
    agent(
        Box::new(MeterAgent { period }),
        traced,
        Layer::Meter,
        Layer::Meter,
    )
}

fn fast_link(n: &mut Network, a: NodeId, b: NodeId, prop: SimDuration) {
    n.add_link(
        a,
        b,
        1_000_000_000,
        prop,
        Box::new(DropTail::new(Limit::Packets(100_000))),
        None,
    );
}

/// Rebuild a single-link cell as `Scenario::run_full` builds it, with a
/// telemetry hub when `telemetry` is set (as a telemetry sweep installs).
pub fn single(sc: &Scenario, traced: bool, telemetry: bool) -> Cell {
    assert!(
        sc.control_loss == 0.0 && sc.flaps_s.is_empty(),
        "the benchmark's workloads inject no faults"
    );
    let root = SimRng::new(sc.seed);
    let mut net = Network::new();
    let host_n = net.add_node();
    let sink_n = net.add_node();
    let meter_n = net.add_node();

    let out_of_band = sc.design.placement() == Placement::OutOfBand;
    let qdisc = StrictPrio::admission_queue_opts(
        Limit::Packets(sc.buffer_pkts),
        out_of_band,
        sc.probe_pushout,
    );
    let max_pkt = sc
        .groups
        .iter()
        .map(|g| g.source.pkt_bytes)
        .max()
        .unwrap_or(125);
    let marker = match sc.design.signal() {
        Signal::Mark => Some(VirtualQueue::new(
            sc.link_bps,
            sc.vq_factor,
            (sc.buffer_pkts as u32 * max_pkt) as f64,
        )),
        Signal::Drop => None,
    };
    let prop = SimDuration::from_secs_f64(sc.prop_delay_ms / 1_000.0);
    let bottleneck = net.add_link(
        host_n,
        sink_n,
        sc.link_bps,
        prop,
        bottleneck_qdisc(Box::new(qdisc), traced),
        marker,
    );
    fast_link(&mut net, sink_n, host_n, prop);

    let mut sim = Sim::new(net);
    if let Design::Mbac { eta } = sc.design {
        let mut reg = MbacRegistry::new(eta);
        reg.register(
            bottleneck,
            sc.link_bps as f64,
            SimDuration::from_secs_f64(sc.mbac_window_s),
        );
        sim.net.blackboard = Some(Box::new(reg));
        sim.attach(
            meter_n,
            meter(SimDuration::from_secs_f64(sc.mbac_sample_s), traced),
        );
    }

    let horizon = SimTime::from_secs_f64(sc.horizon_s);
    let warmup = SimTime::from_secs_f64(sc.warmup_s);
    let probe_total = SimDuration::from_secs_f64(sc.probe_total_s);
    let host_cfg = HostConfig {
        sink: sink_n,
        design: sc.design,
        groups: sc.groups.clone(),
        demography: Demography::new(sc.tau_s, sc.lifetime_s),
        probe_total,
        mbac_path: vec![bottleneck],
        stop_arrivals_at: horizon,
        start_arrivals_at: SimTime::ZERO,
        retry: sc.retry,
        verdict_timeout: sc
            .run_config
            .verdict_timeout_s
            .map(SimDuration::from_secs_f64),
        measure_start: warmup,
        measure_end: horizon,
    };
    sim.attach(
        host_n,
        agent(
            Box::new(HostAgent::new(host_cfg, root.derive(1))),
            traced,
            Layer::HostTimer,
            Layer::HostPacket,
        ),
    );
    let buffer_bytes = (sc.buffer_pkts as u32 * max_pkt) as u64;
    let sink_cfg = SinkConfig {
        signal: sc.design.signal(),
        eps_per_group: effective_epsilons(&sc.design, &sc.groups),
        grace: stage_grace(buffer_bytes, sc.link_bps, prop),
        flow_ttl: probe_total * 2 + SimDuration::from_secs(60),
    };
    sim.attach(
        sink_n,
        agent(
            Box::new(SinkAgent::new(sink_cfg)),
            traced,
            Layer::SinkTimer,
            Layer::SinkPacket,
        ),
    );
    if let Some(budget) = sc.run_config.event_budget {
        sim.set_event_budget(budget);
    }
    if sc.run_config.wants_lenient() {
        sim.set_lenient_scheduling(true);
    }
    if telemetry {
        sim.net.telemetry = Some(Box::new(TelemetryConfig::new().build()));
    }
    Cell {
        sim,
        hosts: vec![(host_n, sc.groups.iter().map(|g| g.source.name).collect())],
        sinks: vec![sink_n],
        bottlenecks: vec![bottleneck],
        warmup: Some(warmup),
        horizon,
        drain: Some(horizon + SimDuration::from_secs(5)),
        coexist: None,
    }
}

/// Rebuild a Tables 5/6 cell as `MultihopScenario::run` builds it.
pub fn multihop(mh: &MultihopScenario, traced: bool) -> Cell {
    let root = SimRng::new(mh.seed);
    let prop = SimDuration::from_secs_f64(mh.prop_delay_ms / 1_000.0);
    let mut net = Network::new();
    let routers = net.add_nodes(4);
    let long_host = net.add_node();
    let long_sink = net.add_node();
    let cross_hosts = net.add_nodes(3);
    let cross_sinks = net.add_nodes(3);
    let meter_n = net.add_node();

    let out_of_band = mh.design.placement() == Placement::OutOfBand;
    let mut backbone = Vec::new();
    for i in 0..3 {
        let marker = match mh.design.signal() {
            Signal::Mark => Some(VirtualQueue::new(
                mh.link_bps,
                mh.vq_factor,
                (mh.buffer_pkts as u32 * mh.source.pkt_bytes) as f64,
            )),
            Signal::Drop => None,
        };
        let qdisc = StrictPrio::admission_queue(Limit::Packets(mh.buffer_pkts), out_of_band);
        backbone.push(net.add_link(
            routers[i],
            routers[i + 1],
            mh.link_bps,
            prop,
            bottleneck_qdisc(Box::new(qdisc), traced),
            marker,
        ));
        fast_link(&mut net, routers[i + 1], routers[i], prop);
    }
    fast_link(&mut net, long_host, routers[0], prop);
    fast_link(&mut net, routers[0], long_host, prop);
    fast_link(&mut net, routers[3], long_sink, prop);
    fast_link(&mut net, long_sink, routers[3], prop);
    for i in 0..3 {
        fast_link(&mut net, cross_hosts[i], routers[i], prop);
        fast_link(&mut net, routers[i], cross_hosts[i], prop);
        fast_link(&mut net, routers[i + 1], cross_sinks[i], prop);
        fast_link(&mut net, cross_sinks[i], routers[i + 1], prop);
    }

    let mut sim = Sim::new(net);
    if let Some(budget) = mh.run_config.event_budget {
        sim.set_event_budget(budget);
    }
    if mh.run_config.wants_lenient() {
        sim.set_lenient_scheduling(true);
    }
    if let Design::Mbac { eta } = mh.design {
        let mut reg = MbacRegistry::new(eta);
        for &l in &backbone {
            reg.register(l, mh.link_bps as f64, SimDuration::from_secs(1));
        }
        sim.net.blackboard = Some(Box::new(reg));
        sim.attach(meter_n, meter(SimDuration::from_millis(100), traced));
    }

    let horizon = SimTime::from_secs_f64(mh.horizon_s);
    let warmup = SimTime::from_secs_f64(mh.warmup_s);
    let buffer_bytes = (mh.buffer_pkts as u32 * mh.source.pkt_bytes) as u64;
    let grace = stage_grace(buffer_bytes, mh.link_bps, prop) * 3;
    let names = ["cross-0", "cross-1", "cross-2", "long"];
    let eps4 = {
        let groups: Vec<Group> = names
            .iter()
            .map(|n| Group::new(*n, mh.source.clone(), 1.0))
            .collect();
        effective_epsilons(&mh.design, &groups)
    };
    let host_cfg = |sink: NodeId, tau: f64, global: usize, path: Vec<LinkId>| HostConfig {
        sink,
        design: mh.design,
        groups: names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let w = if i == global { 1.0 } else { 1e-12 };
                Group::new(*n, mh.source.clone(), w)
            })
            .collect(),
        demography: Demography::new(tau, mh.lifetime_s),
        probe_total: SimDuration::from_secs_f64(mh.probe_total_s),
        mbac_path: path,
        stop_arrivals_at: horizon,
        start_arrivals_at: SimTime::ZERO,
        retry: None,
        verdict_timeout: None,
        measure_start: warmup,
        measure_end: horizon,
    };
    let sink_agent = |traced: bool| {
        agent(
            Box::new(SinkAgent::new(SinkConfig {
                signal: mh.design.signal(),
                eps_per_group: eps4.clone(),
                grace,
                flow_ttl: SimDuration::from_secs_f64(mh.probe_total_s * 2.0 + 60.0),
            })),
            traced,
            Layer::SinkTimer,
            Layer::SinkPacket,
        )
    };
    let host_agent = |cfg: HostConfig, stream: u64| {
        agent(
            Box::new(HostAgent::new(cfg, root.derive(stream))),
            traced,
            Layer::HostTimer,
            Layer::HostPacket,
        )
    };
    for i in 0..3 {
        let cfg = host_cfg(cross_sinks[i], mh.tau_cross_s, i, vec![backbone[i]]);
        sim.attach(cross_hosts[i], host_agent(cfg, 10 + i as u64));
        sim.attach(cross_sinks[i], sink_agent(traced));
    }
    let cfg = host_cfg(long_sink, mh.tau_long_s, 3, backbone.clone());
    sim.attach(long_host, host_agent(cfg, 20));
    sim.attach(long_sink, sink_agent(traced));

    let sources = vec![mh.source.name; 4];
    let mut hosts: Vec<(NodeId, Vec<&'static str>)> =
        cross_hosts.iter().map(|&h| (h, sources.clone())).collect();
    hosts.push((long_host, sources));
    let mut sinks = cross_sinks.clone();
    sinks.push(long_sink);
    Cell {
        sim,
        hosts,
        sinks,
        bottlenecks: backbone,
        warmup: Some(warmup),
        horizon,
        drain: Some(horizon + SimDuration::from_secs(5)),
        coexist: None,
    }
}

/// The Fig 11 destination agent: the benchmark's equivalent of the
/// library's private `CombinedSink`. TCP flow ids start at `1 << 48`.
/// It times its two halves itself when traced.
pub struct CombinedSink {
    /// The admission-controlled receiver.
    pub eac: SinkAgent,
    /// The TCP receiver bank.
    pub tcp: TcpSinkBank,
    traced: bool,
}

impl Agent for CombinedSink {
    fn on_packet(&mut self, pkt: Packet, api: &mut Api) {
        let tcp = pkt.flow.0 >= (1 << 48);
        match (tcp, self.traced) {
            (true, true) => span(Layer::TcpSink, || self.tcp.on_packet(pkt, api)),
            (true, false) => self.tcp.on_packet(pkt, api),
            (false, true) => span(Layer::SinkPacket, || self.eac.on_packet(pkt, api)),
            (false, false) => self.eac.on_packet(pkt, api),
        }
    }

    fn on_timer(&mut self, kind: u32, data: u64, api: &mut Api) {
        // Only the EAC sink arms timers.
        if self.traced {
            span(Layer::SinkTimer, || self.eac.on_timer(kind, data, api))
        } else {
            self.eac.on_timer(kind, data, api)
        }
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// Rebuild a Fig 11 cell as `CoexistScenario::run` builds it.
pub fn coexist(cx: &CoexistScenario, traced: bool) -> Cell {
    let root = SimRng::new(cx.seed);
    let prop = SimDuration::from_secs_f64(cx.prop_delay_ms / 1_000.0);
    let mut net = Network::new();
    let eac_host = net.add_node();
    let tcp_host = net.add_node();
    let router = net.add_node();
    let dst = net.add_node();
    let sampler = net.add_node();
    let access = SimDuration::from_micros(100);
    fast_link(&mut net, eac_host, router, access);
    fast_link(&mut net, tcp_host, router, access);
    fast_link(&mut net, router, eac_host, access);
    fast_link(&mut net, router, tcp_host, access);
    fast_link(&mut net, dst, router, access);
    let legacy = StrictPrio::new(
        vec![
            Band { limit: None },
            Band {
                limit: Some(Limit::Packets(cx.buffer_pkts)),
            },
        ],
        class_band_map(0, 1, 1, 1),
    );
    let bottleneck = net.add_link(
        router,
        dst,
        cx.link_bps,
        prop,
        bottleneck_qdisc(Box::new(legacy), traced),
        None,
    );

    let mut sim = Sim::new(net);
    let horizon = SimTime::from_secs_f64(cx.horizon_s);
    let host_cfg = HostConfig {
        sink: dst,
        design: Design::endpoint(
            Signal::Drop,
            Placement::InBand,
            ProbeStyle::SlowStart,
            cx.epsilon,
        ),
        groups: vec![Group::new("EXP1", SourceSpec::exp1(), 1.0)],
        demography: Demography::new(cx.tau_s, cx.lifetime_s),
        probe_total: SimDuration::from_secs(5),
        mbac_path: vec![],
        stop_arrivals_at: horizon,
        start_arrivals_at: SimTime::from_secs_f64(cx.eac_start_s),
        retry: None,
        verdict_timeout: None,
        measure_start: SimTime::ZERO,
        measure_end: horizon,
    };
    sim.attach(
        eac_host,
        agent(
            Box::new(HostAgent::new(host_cfg, root.derive(1))),
            traced,
            Layer::HostTimer,
            Layer::HostPacket,
        ),
    );
    sim.attach(
        tcp_host,
        agent(
            Box::new(TcpSenderBank::new(
                dst,
                cx.n_tcp,
                cx.tcp_pkt_bytes,
                1 << 48,
                SimTime::ZERO,
            )),
            traced,
            Layer::TcpSender,
            Layer::TcpSender,
        ),
    );
    let buffer_bytes = (cx.buffer_pkts as u32 * cx.tcp_pkt_bytes) as u64;
    let sink_cfg = SinkConfig {
        signal: Signal::Drop,
        eps_per_group: vec![cx.epsilon],
        grace: stage_grace(buffer_bytes, cx.link_bps, prop),
        flow_ttl: SimDuration::from_secs(70),
    };
    sim.attach(
        dst,
        Box::new(CombinedSink {
            eac: SinkAgent::new(sink_cfg),
            tcp: TcpSinkBank::new(),
            traced,
        }),
    );
    sim.attach(
        sampler,
        agent(
            Box::new(LinkSampler::new(
                bottleneck,
                SimDuration::from_secs(10),
                cx.link_bps,
            )),
            traced,
            Layer::OtherAgent,
            Layer::OtherAgent,
        ),
    );
    Cell {
        sim,
        hosts: vec![(eac_host, vec!["EXP1"])],
        sinks: Vec::new(),
        bottlenecks: vec![bottleneck],
        warmup: None,
        horizon,
        drain: None,
        coexist: Some(CoexistNodes {
            eac_host,
            tcp_host,
            sampler,
        }),
    }
}

/// Calendar depth sampled once per simulated second.
#[derive(Clone, Copy, Debug, Default)]
pub struct Depth {
    /// Samples taken.
    pub samples: u64,
    /// Sum of sampled depths.
    pub sum: u64,
    /// Largest sampled depth.
    pub max: u64,
}

impl Depth {
    /// Fold another cell's samples in.
    pub fn merge(&mut self, o: &Depth) {
        self.samples += o.samples;
        self.sum += o.sum;
        self.max = self.max.max(o.max);
    }
}

/// Run `sim` to `until` in one-simulated-second steps, sampling the
/// calendar depth at each whole second. Stepping does not change which
/// events fire: `try_run_until` stops between events.
fn run_to(
    sim: &mut Sim,
    until: SimTime,
    traced: bool,
    next_tick: &mut u64,
    depth: &mut Depth,
) -> Result<(), RunError> {
    let step = |sim: &mut Sim, t: SimTime| {
        if traced {
            span(Layer::Loop, || sim.try_run_until(t))
        } else {
            sim.try_run_until(t)
        }
    };
    while SimTime::from_secs(*next_tick) <= until {
        step(sim, SimTime::from_secs(*next_tick))?;
        let d = sim.queue.len() as u64;
        depth.samples += 1;
        depth.sum += d;
        depth.max = depth.max.max(d);
        *next_tick += 1;
    }
    step(sim, until)
}

impl Cell {
    /// Drive the cell through its scenario's schedule: warm up, mark the
    /// statistics, measure to the horizon, drain.
    pub fn drive(&mut self, traced: bool) -> Result<Depth, RunError> {
        let mut depth = Depth::default();
        let mut tick = 1;
        if let Some(w) = self.warmup {
            run_to(&mut self.sim, w, traced, &mut tick, &mut depth)?;
            for l in self.sim.net.links_mut() {
                l.stats.mark_all();
            }
            for (h, _) in &self.hosts {
                self.sim
                    .agent::<HostAgent>(*h)
                    .expect("host agent")
                    .stats
                    .mark_all();
            }
            for &s in &self.sinks {
                self.sim
                    .agent::<SinkAgent>(s)
                    .expect("sink agent")
                    .stats
                    .mark_all();
            }
        }
        run_to(&mut self.sim, self.horizon, traced, &mut tick, &mut depth)?;
        if let Some(d) = self.drain {
            run_to(&mut self.sim, d, traced, &mut tick, &mut depth)?;
        }
        Ok(depth)
    }

    /// Fig 11's report, computed from the rebuilt cell exactly as
    /// `CoexistScenario::run` computes it.
    pub fn coexist_report(&mut self, cx: &CoexistScenario) -> CoexistReport {
        let nodes = self.coexist.as_ref().expect("a Fig 11 cell");
        let (sampler, host) = (nodes.sampler, nodes.eac_host);
        let series = self
            .sim
            .agent::<LinkSampler>(sampler)
            .expect("sampler")
            .series
            .clone();
        let tail: Vec<&(f64, f64, f64)> = series
            .iter()
            .filter(|(t, _, _)| *t >= cx.steady_after_s)
            .collect();
        let n = tail.len().max(1) as f64;
        let tcp_util = tail.iter().map(|(_, t, _)| t).sum::<f64>() / n;
        let eac_util = tail.iter().map(|(_, _, e)| e).sum::<f64>() / n;
        let blocking = self
            .sim
            .agent::<HostAgent>(host)
            .expect("host")
            .stats
            .blocking();
        CoexistReport {
            epsilon: cx.epsilon,
            series,
            tcp_util,
            eac_util,
            blocking,
        }
    }

    /// Packets accepted and offered at the bottlenecks, all classes.
    pub fn bottleneck_accept(&self) -> (u64, u64) {
        let mut offered = 0;
        let mut dropped = 0;
        for &l in &self.bottlenecks {
            let stats = &self.sim.net.link(l).stats;
            for c in [
                TrafficClass::Control,
                TrafficClass::Data,
                TrafficClass::Probe,
                TrafficClass::BestEffort,
            ] {
                offered += stats.class(c).offered.total();
                dropped += stats.class(c).dropped.total();
            }
        }
        (offered - dropped, offered)
    }
}

/// Whether two Fig 11 reports agree exactly.
pub fn same_coexist(a: &CoexistReport, b: &CoexistReport) -> bool {
    a.epsilon == b.epsilon
        && a.series == b.series
        && a.tcp_util == b.tcp_util
        && a.eac_util == b.eac_util
        && a.blocking == b.blocking
}
