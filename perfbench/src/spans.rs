//! Spans around the calls the traced run makes into each layer.
//!
//! A span records its wall duration; its *self* time is that duration
//! minus the durations of the spans opened inside it (the nested enqueue
//! an agent's `Api::send` triggers, for instance). Accumulators live in a
//! thread-local table, so recording is two clock reads and no locking;
//! the traced run is single-threaded.

use netsim::{Agent, Api, Dequeue, Packet, Qdisc};
use simcore::SimTime;
use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

/// The layer boundaries the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// One `Sim::try_run_until` call (the netsim run loop).
    Loop,
    /// Bottleneck `Qdisc::enqueue_into`.
    Enqueue,
    /// Bottleneck `Qdisc::dequeue`.
    Dequeue,
    /// `HostAgent` start and timer callbacks.
    HostTimer,
    /// `HostAgent::on_packet`.
    HostPacket,
    /// `SinkAgent::on_packet`.
    SinkPacket,
    /// `SinkAgent` start and timer callbacks.
    SinkTimer,
    /// The MBAC `MeterAgent`.
    Meter,
    /// `TcpSenderBank` callbacks.
    TcpSender,
    /// `TcpSinkBank` callbacks.
    TcpSink,
    /// Any other agent (the Fig 11 link sampler).
    OtherAgent,
}

const LAYERS: usize = Layer::OtherAgent as usize + 1;

/// Calls, total and self nanoseconds at one layer boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Acc {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus nested spans.
    pub self_ns: u64,
}

impl Acc {
    fn add(&mut self, o: &Acc) {
        self.calls += o.calls;
        self.total_ns += o.total_ns;
        self.self_ns += o.self_ns;
    }
}

/// Accumulators for every [`Layer`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Table([Acc; LAYERS]);

impl Table {
    /// The accumulator of `layer`.
    pub fn get(&self, layer: Layer) -> Acc {
        self.0[layer as usize]
    }

    /// Sum of several layers.
    pub fn sum(&self, layers: &[Layer]) -> Acc {
        let mut a = Acc::default();
        for &l in layers {
            a.add(&self.get(l));
        }
        a
    }
}

#[derive(Default)]
struct State {
    table: Table,
    /// Per open span: nanoseconds covered by its closed children.
    open: Vec<u64>,
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::default());
}

/// Run `f` inside a span at `layer`.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    STATE.with(|s| s.borrow_mut().open.push(0));
    let t0 = Instant::now();
    let r = f();
    let d = t0.elapsed().as_nanos() as u64;
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let children = s.open.pop().expect("span stack balanced");
        let a = &mut s.table.0[layer as usize];
        a.calls += 1;
        a.total_ns += d;
        a.self_ns += d.saturating_sub(children);
        if let Some(parent) = s.open.last_mut() {
            *parent += d;
        }
    });
    r
}

/// Return this thread's accumulators and reset them.
pub fn take() -> Table {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        assert!(s.open.is_empty(), "take() inside an open span");
        std::mem::take(&mut s.table)
    })
}

/// An agent wrapper that times every callback. `as_any` forwards to the
/// wrapped agent, so `Sim::agent::<T>` still downcasts to the inner type.
pub struct TimedAgent {
    inner: Box<dyn Agent>,
    timer: Layer,
    packet: Layer,
}

impl TimedAgent {
    /// Time `inner`'s start and timer callbacks at `timer` and its packet
    /// callbacks at `packet`.
    pub fn new(inner: Box<dyn Agent>, timer: Layer, packet: Layer) -> Self {
        TimedAgent {
            inner,
            timer,
            packet,
        }
    }
}

impl Agent for TimedAgent {
    fn on_start(&mut self, api: &mut Api) {
        span(self.timer, || self.inner.on_start(api))
    }

    fn on_packet(&mut self, pkt: Packet, api: &mut Api) {
        span(self.packet, || self.inner.on_packet(pkt, api))
    }

    fn on_timer(&mut self, kind: u32, data: u64, api: &mut Api) {
        span(self.timer, || self.inner.on_timer(kind, data, api))
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }
}

/// A qdisc wrapper that times enqueue and dequeue.
pub struct TimedQdisc(pub Box<dyn Qdisc>);

impl Qdisc for TimedQdisc {
    fn enqueue_into(&mut self, pkt: Packet, now: SimTime, evicted: &mut Vec<Packet>) -> bool {
        span(Layer::Enqueue, || self.0.enqueue_into(pkt, now, evicted))
    }

    fn dequeue(&mut self, now: SimTime) -> Dequeue {
        span(Layer::Dequeue, || self.0.dequeue(now))
    }

    fn len_packets(&self) -> usize {
        self.0.len_packets()
    }

    fn len_bytes(&self) -> u64 {
        self.0.len_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children() {
        take();
        span(Layer::HostTimer, || {
            busy(200);
            span(Layer::Enqueue, || busy(300));
        });
        let t = take();
        let host = t.get(Layer::HostTimer);
        let enq = t.get(Layer::Enqueue);
        assert_eq!((host.calls, enq.calls), (1, 1));
        assert!(host.total_ns >= host.self_ns + enq.total_ns);
        assert!(host.self_ns >= 200_000 && enq.self_ns >= 300_000);
        assert_eq!(take(), Table::default());
    }
}
