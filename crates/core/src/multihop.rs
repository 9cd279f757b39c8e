//! The multi-link topology of §4.6 (Fig 10, Tables 5 and 6).
//!
//! A linear backbone of four routers R0–R3 with three congested 10 Mbps
//! links. *Long* flows traverse all three backbone links; three *cross*
//! populations each enter at Ri, cross one backbone link, and exit at
//! R(i+1). Access links are fast and uncongested. The experiment measures
//! whether multi-hop probing degrades admission accuracy (Table 5: per-
//! class loss) and how blocking compares with the per-hop product
//! approximation (Table 6).
//!
//! Layout (12 nodes):
//!
//! ```text
//!  HL ──▶ R0 ──▶ R1 ──▶ R2 ──▶ R3 ──▶ SL      (long path: 3 congested hops)
//!         ▲      ▲▼     ▲▼     ▼
//!        HC0    SC0,HC1 SC1,HC2 SC2           (cross: 1 congested hop each)
//! ```

use crate::design::{effective_epsilons, Design, Group};
use crate::host::{HostAgent, HostConfig};
use crate::mbac::MbacRegistry;
use crate::metrics::Report;
use crate::probe::{Placement, Signal};
use crate::scenario::{drive, tally, MeterAgent, RunConfig, ScenarioError};
use crate::sink::{stage_grace, SinkAgent, SinkConfig};
use netsim::{
    DropTail, Limit, LinkId, Network, NodeId, Sim, StrictPrio, TrafficClass, VirtualQueue,
};
use simcore::{SimDuration, SimRng, SimTime};
use traffic::{Demography, SourceSpec};

/// Report order of the populations: the three cross populations, then the
/// long one.
const GROUP_NAMES: [&str; 4] = ["cross-0", "cross-1", "cross-2", "long"];

/// Configuration of the multi-hop experiment.
#[derive(Clone, Debug)]
pub struct MultihopScenario {
    /// Admission-control design under test.
    pub design: Design,
    /// Source model for every population (the paper uses EXP1).
    pub source: SourceSpec,
    /// Mean interarrival of the long-flow population, seconds.
    pub tau_long_s: f64,
    /// Mean interarrival of each cross population, seconds.
    pub tau_cross_s: f64,
    /// Mean flow lifetime, seconds.
    pub lifetime_s: f64,
    /// Backbone link bandwidth, bits/s.
    pub link_bps: u64,
    /// Backbone buffer, packets.
    pub buffer_pkts: usize,
    /// Per-backbone-hop propagation delay, milliseconds.
    pub prop_delay_ms: f64,
    /// Total probing time.
    pub probe_total_s: f64,
    /// Virtual-queue factor for marking designs.
    pub vq_factor: f64,
    /// Simulation horizon, seconds.
    pub horizon_s: f64,
    /// Warm-up, seconds.
    pub warmup_s: f64,
    /// RNG seed.
    pub seed: u64,
    /// Watchdogs and post-run checks (see [`RunConfig`]).
    pub run_config: RunConfig,
}

impl MultihopScenario {
    /// Defaults matching Tables 5–6: EXP1 everywhere, ε = 0, three
    /// congested 10 Mbps hops. The cross/long arrival rates are chosen to
    /// put each backbone link at a similar operating point to the paper's
    /// (single-hop blocking in the 0.2–0.35 range).
    pub fn tables56() -> Self {
        MultihopScenario {
            design: Design::endpoint(
                Signal::Drop,
                Placement::InBand,
                crate::probe::ProbeStyle::SlowStart,
                0.0,
            ),
            source: SourceSpec::exp1(),
            tau_long_s: 7.0,
            tau_cross_s: 7.0,
            lifetime_s: 300.0,
            link_bps: 10_000_000,
            buffer_pkts: 200,
            prop_delay_ms: 5.0,
            probe_total_s: 5.0,
            vq_factor: 0.9,
            horizon_s: 3_000.0,
            warmup_s: 500.0,
            seed: 1,
            run_config: RunConfig::default(),
        }
    }

    /// Set the design.
    pub fn design(mut self, d: Design) -> Self {
        self.design = d;
        self
    }

    /// Set the horizon.
    pub fn horizon_secs(mut self, s: f64) -> Self {
        self.horizon_s = s;
        self
    }

    /// Set the warm-up.
    pub fn warmup_secs(mut self, s: f64) -> Self {
        self.warmup_s = s;
        self
    }

    /// Set the seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Check packet conservation over the whole 13-node topology before
    /// reporting.
    pub fn audited(mut self) -> Self {
        self.run_config.audit = true;
        self
    }

    /// Cap total simulation events (event-storm watchdog).
    pub fn event_budget(mut self, budget: u64) -> Self {
        self.run_config.event_budget = Some(budget);
        self
    }

    /// Replace the whole run supervision config at once.
    pub fn with_run_config(mut self, cfg: RunConfig) -> Self {
        self.run_config = cfg;
        self
    }

    fn ac_qdisc(&self) -> Box<StrictPrio> {
        Box::new(StrictPrio::admission_queue(
            Limit::Packets(self.buffer_pkts),
            self.design.placement() == Placement::OutOfBand,
        ))
    }

    fn marker(&self) -> Option<VirtualQueue> {
        match self.design.signal() {
            Signal::Mark => Some(VirtualQueue::new(
                self.link_bps,
                self.vq_factor,
                (self.buffer_pkts as u32 * self.source.pkt_bytes) as f64,
            )),
            Signal::Drop => None,
        }
    }

    /// Build and run; returns a [`Report`] whose groups are
    /// `cross-0`, `cross-1`, `cross-2`, `long` (in that order), with
    /// `link_utils` holding the three backbone utilizations — or a
    /// graceful error, as configured by the scenario's [`RunConfig`].
    /// Without watchdogs armed it cannot fail.
    pub fn run(&self) -> Result<Report, ScenarioError> {
        let root = SimRng::new(self.seed);
        let prop = SimDuration::from_secs_f64(self.prop_delay_ms / 1_000.0);
        let fast = |n: &mut Network, a: NodeId, b: NodeId| {
            n.add_link(
                a,
                b,
                1_000_000_000,
                prop,
                Box::new(DropTail::new(Limit::Packets(100_000))),
                None,
            );
        };

        let mut net = Network::new();
        let routers: Vec<NodeId> = net.add_nodes(4);
        let long_host = net.add_node();
        let long_sink = net.add_node();
        let cross_hosts: Vec<NodeId> = net.add_nodes(3);
        let cross_sinks: Vec<NodeId> = net.add_nodes(3);
        let meter_n = net.add_node();

        // Congested backbone (forward); fast reverse for verdicts.
        let mut backbone: Vec<LinkId> = Vec::new();
        for i in 0..3 {
            let l = net.add_link(
                routers[i],
                routers[i + 1],
                self.link_bps,
                prop,
                self.ac_qdisc(),
                self.marker(),
            );
            backbone.push(l);
            fast(&mut net, routers[i + 1], routers[i]);
        }
        // Access links (both directions, fast).
        fast(&mut net, long_host, routers[0]);
        fast(&mut net, routers[0], long_host);
        fast(&mut net, routers[3], long_sink);
        fast(&mut net, long_sink, routers[3]);
        for i in 0..3 {
            fast(&mut net, cross_hosts[i], routers[i]);
            fast(&mut net, routers[i], cross_hosts[i]);
            fast(&mut net, routers[i + 1], cross_sinks[i]);
            fast(&mut net, cross_sinks[i], routers[i + 1]);
        }

        let mut sim = Sim::new(net);
        if let Design::Mbac { eta } = self.design {
            let mut reg = MbacRegistry::new(eta);
            for &l in &backbone {
                reg.register(l, self.link_bps as f64, SimDuration::from_secs(1));
            }
            sim.net.blackboard = Some(Box::new(reg));
            sim.attach(
                meter_n,
                Box::new(MeterAgent {
                    period: SimDuration::from_millis(100),
                }),
            );
        }

        let horizon = SimTime::from_secs_f64(self.horizon_s);
        let warmup = SimTime::from_secs_f64(self.warmup_s);
        let buffer_bytes = (self.buffer_pkts as u32 * self.source.pkt_bytes) as u64;
        // Long flows may queue at each of 3 hops: scale the grace period.
        let grace = stage_grace(buffer_bytes, self.link_bps, prop) * 3;

        // Every host and sink sees the same 4-group list, so group indices
        // line up in reports: a host generates only its own population,
        // whose slot carries weight 1; the other slots get a weight of
        // 1e-12 that in practice is never drawn (weights must be > 0).
        let eps4 = {
            let groups: Vec<Group> = GROUP_NAMES
                .iter()
                .map(|n| Group::new(*n, self.source.clone(), 1.0))
                .collect();
            effective_epsilons(&self.design, &groups)
        };
        let mk_host = |sink: NodeId, tau: f64, global_group: usize, path: Vec<LinkId>| {
            let groups: Vec<Group> = GROUP_NAMES
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    let w = if i == global_group { 1.0 } else { 1e-12 };
                    Group::new(*n, self.source.clone(), w)
                })
                .collect();
            HostConfig {
                sink,
                design: self.design,
                groups,
                demography: Demography::new(tau, self.lifetime_s),
                probe_total: SimDuration::from_secs_f64(self.probe_total_s),
                mbac_path: path,
                stop_arrivals_at: horizon,
                start_arrivals_at: SimTime::ZERO,
                retry: None,
                verdict_timeout: None,
                measure_start: warmup,
                measure_end: horizon,
            }
        };
        let mk_sink = || {
            SinkAgent::new(SinkConfig {
                signal: self.design.signal(),
                eps_per_group: eps4.clone(),
                grace,
                flow_ttl: SimDuration::from_secs_f64(self.probe_total_s * 2.0 + 60.0),
            })
        };

        // Cross hosts.
        for i in 0..3 {
            let cfg = mk_host(cross_sinks[i], self.tau_cross_s, i, vec![backbone[i]]);
            let stream = 10 + i as u64;
            sim.attach(
                cross_hosts[i],
                Box::new(HostAgent::new(cfg, root.derive(stream))),
            );
            sim.attach(cross_sinks[i], Box::new(mk_sink()));
        }
        // Long host.
        let cfg = mk_host(long_sink, self.tau_long_s, 3, backbone.clone());
        sim.attach(long_host, Box::new(HostAgent::new(cfg, root.derive(20))));
        sim.attach(long_sink, Box::new(mk_sink()));

        let measured = SimDuration::from_secs_f64(self.horizon_s - self.warmup_s);
        let (link_utils, link_loss) = drive(
            &mut sim,
            &self.run_config,
            self.warmup_s,
            self.horizon_s,
            |sim| {
                let stats = |l: &LinkId| &sim.net.link(*l).stats;
                let utils: Vec<f64> = backbone
                    .iter()
                    .map(|l| stats(l).utilization(TrafficClass::Data, self.link_bps, measured))
                    .collect();
                let loss = backbone
                    .iter()
                    .map(|l| stats(l).drop_fraction(TrafficClass::Data))
                    .sum::<f64>()
                    / 3.0;
                (utils, loss)
            },
        )?;

        let ends: Vec<(NodeId, NodeId)> = (0..3)
            .map(|i| (cross_hosts[i], cross_sinks[i]))
            .chain([(long_host, long_sink)])
            .collect();
        let names = GROUP_NAMES.iter().map(|n| n.to_string());
        Ok(Report {
            utilization: link_utils.iter().sum::<f64>() / link_utils.len() as f64,
            link_utils,
            link_loss,
            ..tally(&mut sim, &self.design, names, &ends, measured, self.seed)
        })
    }
}

/// The per-hop product approximation of Table 6: if short flows at the
/// three hops are accepted with probabilities `a_i`, uncorrelated per-hop
/// decisions would accept long flows with probability `a_0·a_1·a_2` —
/// i.e. block them with `1 − Π(1 − b_i)`.
pub fn product_blocking(cross_blocking: &[f64]) -> f64 {
    1.0 - cross_blocking.iter().map(|b| 1.0 - b).product::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_approximation_math() {
        // Paper Table 6 (MBAC row): b = .307/.259/.286 -> product .633.
        let p = product_blocking(&[0.307, 0.259, 0.286]);
        assert!((p - 0.6329).abs() < 1e-3, "{p}");
        assert_eq!(product_blocking(&[0.0, 0.0, 0.0]), 0.0);
        assert!((product_blocking(&[1.0, 0.0, 0.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multihop_runs_and_long_flows_suffer_more() {
        let r = MultihopScenario::tables56()
            .horizon_secs(600.0)
            .warmup_secs(150.0)
            .seed(3)
            .run()
            .unwrap();
        assert_eq!(r.groups.len(), 4);
        let long = &r.groups[3];
        let cross_avg = (r.groups[0].blocking + r.groups[1].blocking + r.groups[2].blocking) / 3.0;
        assert!(long.decided > 10, "long decided {}", long.decided);
        // Long flows fight three congested hops: they must block at least
        // as often as the average cross population.
        assert!(
            long.blocking >= cross_avg * 0.8,
            "long {} vs cross {}",
            long.blocking,
            cross_avg
        );
        assert!(r.link_utils.iter().all(|&u| u > 0.1), "{:?}", r.link_utils);
    }

    #[test]
    #[should_panic(expected = "must end before the horizon")]
    fn warmup_reaching_the_horizon_is_rejected() {
        // A 0-s measurement window has no meaning; like the single-link
        // scenario, the run refuses it instead of reporting zeros.
        let _ = MultihopScenario::tables56()
            .horizon_secs(20.0)
            .warmup_secs(20.0)
            .run();
    }
}
