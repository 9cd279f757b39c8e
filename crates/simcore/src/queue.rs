//! The event calendar.
//!
//! Two implementations share one contract: events keyed on `(time, seq)`
//! pop in exact nondecreasing `(time, seq)` order. The monotone sequence
//! number guarantees that events scheduled for the same instant fire in
//! the order they were scheduled (FIFO), which keeps simulations
//! deterministic and makes "schedule B right after A" reasoning valid.
//!
//! - [`EventQueue`] — the production calendar: a slab-backed calendar
//!   queue whose near window slides with the activation cursor. Each
//!   event is written once into a slab slot and stays there until it
//!   pops; only a 24-byte `(at, seq, slot)` key moves between the
//!   structures. The near window is a ring of [`NUM_BUCKETS`] buckets of
//!   `2^`[`WIDTH_BITS`] ns (~67 ms); each bucket is an intrusive list
//!   threaded through the slab (one `u32` head per bucket), and an
//!   occupancy bitmap finds the next non-empty one. Activating a bucket
//!   moves its keys into a small `current` heap and slides the window
//!   one bucket past it, migrating keys from the far-future heap as they
//!   come within ~67 ms. Freed slots go on a free list, so steady state
//!   allocates nothing and the slab never outgrows the peak pending count.
//! - [`HeapEventQueue`] — the original binary-heap calendar, kept as the
//!   reference implementation for differential property tests and the
//!   engine benchmarks.
//!
//! The calendar was sized on the simulator's own traffic: pending depth
//! averages 119 events (max 348) on the Fig 2 single-link grid and 454
//! (max 717) on the Tables 5/6 multi-hop topology; schedule delays cluster
//! at 0, ~100 µs (transmission), 3.9 ms and 20 ms (propagation) with
//! protocol timers at 0.5–300 s. A fixed (non-sliding) window sent 12 %
//! of all schedules to the far heap, because a 20 ms delivery scheduled
//! late in the window spilled past its end. A slab-backed plain binary
//! heap was no faster than the bucketed calendar, so the buckets stay.
//!
//! Because `(time, seq)` is a total order, both implementations produce
//! bit-identical pop sequences; `tests/props.rs` checks them against each
//! other on random schedules (including same-instant ties and a window
//! that wraps many times).

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the calendar bucket width in nanoseconds (2^15 ns ≈ 32.8 µs).
pub const WIDTH_BITS: u32 = 15;
/// Number of buckets in the near window (a power of two, multiple of 64).
pub const NUM_BUCKETS: usize = 2048;
const OCC_WORDS: usize = NUM_BUCKETS / 64;
const RING_MASK: usize = NUM_BUCKETS - 1;
/// End-of-list marker for bucket lists and the slab free list.
const NIL: u32 = u32::MAX;

/// A scheduling-into-the-past violation recorded in lenient mode.
///
/// Scheduling behind the clock would silently reorder causality, so it is
/// always a bug; lenient mode (armed by watchdog-carrying runs) records
/// the first offense for the driver to surface as a graceful error
/// instead of panicking the whole process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScheduleViolation {
    /// The requested (past) timestamp.
    pub at: SimTime,
    /// The clock when the request was made.
    pub now: SimTime,
}

/// A cheap point-in-time view of a calendar, read by periodic samplers
/// (clock, throughput, backlog) without touching queue internals.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// The current simulation clock.
    pub now: SimTime,
    /// Events fired so far.
    pub fired: u64,
    /// Events pending.
    pub pending: usize,
}

/// A value keyed on `(at, seq)`, ordered earliest first. The calendar's
/// heaps hold `Entry<u32>` keys whose value is a slab slot (24 bytes);
/// the reference heap holds whole events.
struct Entry<T> {
    at: SimTime,
    seq: u64,
    val: T,
}

/// What moves through the calendar's heaps: an event's `(time, seq)`
/// position plus the slab slot holding the event itself.
type Key = Entry<u32>;

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Per-slot bookkeeping beside the slab: the event's `(at, seq)`, read when
/// its bucket is activated, and the intrusive link — the next slot of the
/// same bucket while the event sits in the ring, the next free slot while
/// the slot is free.
#[derive(Clone, Copy)]
struct Link {
    at: SimTime,
    seq: u64,
    next: u32,
}

/// A discrete-event calendar holding events of type `E`.
///
/// Tracks the current simulation clock: the clock advances to an event's
/// timestamp when that event is popped. Scheduling in the past is a bug
/// and panics (it would silently reorder causality otherwise) unless
/// lenient mode is armed ([`EventQueue::set_lenient`]), in which case the
/// offending event is dropped and the violation is recorded for the run
/// driver to turn into a graceful error.
pub struct EventQueue<E> {
    /// The slab: every pending event, stored once until it pops. `None`
    /// marks a free slot.
    events: Vec<Option<E>>,
    /// Bookkeeping for each slab slot (same index as `events`).
    links: Vec<Link>,
    /// Head of the free-slot list threaded through `links`.
    free: u32,
    /// Ring of near-window buckets: `heads[abs & RING_MASK]` starts the
    /// unsorted list of slots with bucket index `abs` (`at >> WIDTH_BITS`)
    /// for `abs` in `cursor..cursor + NUM_BUCKETS`.
    heads: Box<[u32]>,
    /// One bit per ring position: set iff that bucket is non-empty.
    occ: [u64; OCC_WORDS],
    /// Keys in the ring.
    near_count: usize,
    /// Absolute index of the first bucket not yet activated. Keys below
    /// it live in `current`; the ring covers the next `NUM_BUCKETS`.
    cursor: u64,
    /// The active min-heap: every pending key before the cursor. Always
    /// pops before any ring or far key.
    current: BinaryHeap<Key>,
    /// Keys at or beyond `cursor + NUM_BUCKETS`, migrated into the ring as
    /// the cursor slides within reach of them.
    far: BinaryHeap<Key>,
    now: SimTime,
    seq: u64,
    popped: u64,
    lenient: bool,
    violation: Option<ScheduleViolation>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty calendar with the clock at zero.
    pub fn new() -> Self {
        EventQueue {
            events: Vec::new(),
            links: Vec::new(),
            free: NIL,
            heads: vec![NIL; NUM_BUCKETS].into_boxed_slice(),
            occ: [0; OCC_WORDS],
            near_count: 0,
            cursor: 0,
            current: BinaryHeap::new(),
            far: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
            lenient: false,
            violation: None,
        }
    }

    /// The current simulation clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.current.len() + self.near_count + self.far.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events fired so far (for throughput reporting).
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.popped
    }

    /// A point-in-time view of the calendar for samplers and telemetry.
    #[inline]
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            now: self.now,
            fired: self.popped,
            pending: self.len(),
        }
    }

    /// In lenient mode a past-timestamp schedule records a
    /// [`ScheduleViolation`] (and drops the event) instead of panicking;
    /// run drivers with a watchdog armed poll
    /// [`take_violation`](EventQueue::take_violation) and abort the run
    /// gracefully.
    pub fn set_lenient(&mut self, lenient: bool) {
        self.lenient = lenient;
    }

    /// Take the recorded scheduling violation, if any.
    pub fn take_violation(&mut self) -> Option<ScheduleViolation> {
        self.violation.take()
    }

    /// Schedule `event` at absolute time `at`. Panics if `at` is in the
    /// past (or records a violation in lenient mode; see
    /// [`set_lenient`](EventQueue::set_lenient)).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        if at < self.now {
            if self.lenient {
                if self.violation.is_none() {
                    self.violation = Some(ScheduleViolation { at, now: self.now });
                }
                return;
            }
            panic!("scheduling into the past: {at:?} < now {:?}", self.now);
        }
        let seq = self.seq;
        self.seq += 1;
        let slot = self.alloc(at, seq, event);
        let abs = at.as_nanos() >> WIDTH_BITS;
        if abs < self.cursor {
            // Behind the activated boundary: the heap keeps exact
            // (time, seq) order, so late arrivals into the active region
            // still pop in their correct place.
            self.current.push(Key { at, seq, val: slot });
        } else if abs - self.cursor < NUM_BUCKETS as u64 {
            self.link_into_ring(abs, slot);
        } else {
            self.far.push(Key { at, seq, val: slot });
        }
    }

    /// Schedule `event` to fire `delay` after the current clock.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the next pending event, if any.
    ///
    /// Takes `&mut self`: peeking may activate the next calendar bucket
    /// (the work is shared with the following [`pop`](EventQueue::pop)).
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.current.is_empty() {
            self.activate_next();
        }
        self.current.peek().map(|k| k.at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.current.is_empty() {
            self.activate_next();
        }
        let key = self.current.pop()?;
        debug_assert!(key.at >= self.now, "event queue time went backwards");
        self.now = key.at;
        self.popped += 1;
        let slot = key.val as usize;
        let event = self.events[slot]
            .take()
            .expect("a pending key owns its slot");
        self.links[slot].next = self.free;
        self.free = key.val;
        Some((key.at, event))
    }

    /// Drop every pending event (the clock is left where it is).
    pub fn clear(&mut self) {
        self.events.clear();
        self.links.clear();
        self.free = NIL;
        self.heads.fill(NIL);
        self.occ = [0; OCC_WORDS];
        self.near_count = 0;
        self.current.clear();
        self.far.clear();
    }

    /// Store `event` in a free slab slot (growing the slab only when none
    /// is free) and return the slot.
    #[inline]
    fn alloc(&mut self, at: SimTime, seq: u64, event: E) -> u32 {
        let slot = self.free;
        if slot != NIL {
            let link = &mut self.links[slot as usize];
            self.free = link.next;
            *link = Link { at, seq, next: NIL };
            self.events[slot as usize] = Some(event);
            slot
        } else {
            let slot = u32::try_from(self.events.len())
                .ok()
                .filter(|&s| s != NIL)
                .expect("too many pending events for a u32 slot index");
            self.links.push(Link { at, seq, next: NIL });
            self.events.push(Some(event));
            slot
        }
    }

    /// Push `slot` onto the list of ring bucket `abs` (which must lie in
    /// the near window).
    #[inline]
    fn link_into_ring(&mut self, abs: u64, slot: u32) {
        let pos = abs as usize & RING_MASK;
        self.links[slot as usize].next = self.heads[pos];
        self.heads[pos] = slot;
        self.occ[pos / 64] |= 1u64 << (pos % 64);
        self.near_count += 1;
    }

    /// Refill the empty `current` heap with the globally earliest pending
    /// keys (or leave it empty if the whole calendar is): activate the
    /// next non-empty ring bucket, first jumping the cursor to the
    /// earliest far key when the ring is empty, then slide the window
    /// past the activated bucket.
    fn activate_next(&mut self) {
        if self.near_count == 0 {
            let Some(first) = self.far.peek() else {
                return; // truly empty
            };
            self.cursor = first.at.as_nanos() >> WIDTH_BITS;
            self.migrate_far();
        }
        let start = self.cursor as usize & RING_MASK;
        let pos = self.next_occupied(start);
        self.occ[pos / 64] &= !(1u64 << (pos % 64));
        // `current` is empty: refill its buffer and heapify once, which
        // beats a sift-up per key when a bucket holds many events.
        let mut keys = std::mem::take(&mut self.current).into_vec();
        let mut slot = std::mem::replace(&mut self.heads[pos], NIL);
        while slot != NIL {
            let link = self.links[slot as usize];
            keys.push(Key {
                at: link.at,
                seq: link.seq,
                val: slot,
            });
            slot = link.next;
        }
        self.near_count -= keys.len();
        self.current = BinaryHeap::from(keys);
        self.cursor += (pos.wrapping_sub(start) & RING_MASK) as u64 + 1;
        self.migrate_far();
    }

    /// Move far keys that the (just slid) window now reaches into the ring.
    #[inline]
    fn migrate_far(&mut self) {
        let end = self.cursor + NUM_BUCKETS as u64;
        while let Some(first) = self.far.peek() {
            let abs = first.at.as_nanos() >> WIDTH_BITS;
            if abs >= end {
                break;
            }
            let slot = first.val;
            self.far.pop();
            self.link_into_ring(abs, slot);
        }
    }

    /// First occupied ring position at or after `start`, wrapping around
    /// the ring (so in window order). Only called with the ring non-empty.
    #[inline]
    fn next_occupied(&self, start: usize) -> usize {
        let mut w = start / 64;
        let mut bits = self.occ[w] & (!0u64 << (start % 64));
        // The start word twice: its high bits first, its low bits (the
        // far end of the window) after a full turn.
        for _ in 0..=OCC_WORDS {
            if bits != 0 {
                return w * 64 + bits.trailing_zeros() as usize;
            }
            w = (w + 1) % OCC_WORDS;
            bits = self.occ[w];
        }
        unreachable!("near_count > 0 but the occupancy bitmap is empty")
    }
}

/// The original binary-heap event calendar, kept as the reference
/// implementation the calendar queue is differential-tested against (and
/// benchmarked against in `benches/engine.rs`). Same `(time, seq)`
/// contract and API as [`EventQueue`].
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
    popped: u64,
}

impl<E> Default for HeapEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapEventQueue<E> {
    /// An empty calendar with the clock at zero.
    pub fn new() -> Self {
        HeapEventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
            popped: 0,
        }
    }

    /// The current simulation clock.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events fired so far.
    #[inline]
    pub fn events_fired(&self) -> u64 {
        self.popped
    }

    /// A point-in-time view of the calendar for samplers and telemetry.
    #[inline]
    pub fn snapshot(&self) -> QueueSnapshot {
        QueueSnapshot {
            now: self.now,
            fired: self.popped,
            pending: self.len(),
        }
    }

    /// Schedule `event` at absolute time `at`. Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            at,
            seq,
            val: event,
        });
    }

    /// Schedule `event` to fire `delay` after the current clock.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Timestamp of the next pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.val))
    }

    /// Drop every pending event (the clock is left where it is).
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(3), "c");
        q.schedule_at(SimTime::from_secs(1), "a");
        q.schedule_at(SimTime::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5);
        for i in 0..100 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2));
        assert_eq!(q.now(), t);
    }

    #[test]
    fn schedule_relative_to_clock() {
        let mut q = EventQueue::new();
        q.schedule_in(SimDuration::from_secs(1), 1u32);
        q.pop().unwrap();
        q.schedule_in(SimDuration::from_secs(1), 2u32);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_secs(2));
    }

    #[test]
    #[should_panic]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(2), ());
        q.pop();
        q.schedule_at(SimTime::from_secs(1), ());
    }

    #[test]
    fn lenient_mode_records_violation_and_drops_event() {
        let mut q = EventQueue::new();
        q.set_lenient(true);
        q.schedule_at(SimTime::from_secs(2), 1u32);
        q.pop();
        q.schedule_at(SimTime::from_secs(1), 2u32);
        let v = q.take_violation().expect("violation recorded");
        assert_eq!(v.at, SimTime::from_secs(1));
        assert_eq!(v.now, SimTime::from_secs(2));
        assert!(q.take_violation().is_none(), "violation is taken once");
        assert!(q.is_empty(), "offending event was dropped");
    }

    #[test]
    fn lenient_past_schedule_takes_no_slab_slot() {
        let mut q = EventQueue::new();
        q.set_lenient(true);
        q.schedule_at(SimTime::from_secs(2), 1u32);
        q.pop();
        assert_eq!((q.events.len(), q.free), (1, 0), "one slot, now free");
        q.schedule_at(SimTime::from_secs(1), 2u32);
        assert!(q.take_violation().is_some());
        assert_eq!(
            (q.events.len(), q.free),
            (1, 0),
            "the dropped event took no slot"
        );
        q.schedule_at(SimTime::from_secs(3), 3u32);
        assert_eq!(
            (q.events.len(), q.free),
            (1, NIL),
            "the free slot is reused"
        );
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), 3)));
    }

    /// The measured delay classes of the packet hot path and its timers:
    /// same instant, transmission, short and long propagation, the window
    /// edge ± one bucket, and protocol timers of 0.5–300 s.
    fn hot_path_delay(x: u64) -> SimDuration {
        const EDGE: u64 = (NUM_BUCKETS as u64) << WIDTH_BITS;
        const BUCKET: u64 = 1 << WIDTH_BITS;
        let ns = match (x >> 32) % 8 {
            0 => 0,
            1 => 100_000,
            2 => 3_900_000,
            3 | 4 => 20_000_000,
            5 => EDGE - BUCKET + (x & 0xff),
            6 => EDGE + BUCKET - (x & 0xff),
            _ => 500_000_000 + (x & 0xffff_ffff) % 299_500_000_000,
        };
        SimDuration::from_nanos(ns)
    }

    fn lcg(x: &mut u64) -> u64 {
        *x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x
    }

    #[test]
    fn slab_never_outgrows_peak_pending_under_hold_model() {
        for depth in [1usize, 7, 120, 450] {
            let mut q = EventQueue::new();
            let mut x = depth as u64;
            for i in 0..depth {
                q.schedule_in(hot_path_delay(lcg(&mut x)), i);
            }
            for _ in 0..20_000 {
                let (_, e) = q.pop().expect("hold model stays non-empty");
                q.schedule_in(hot_path_delay(lcg(&mut x)), e);
                assert_eq!(q.events.len(), depth, "slab grew past depth {depth}");
            }
            assert_eq!(q.len(), depth);
        }
    }

    #[test]
    fn slab_size_equals_peak_pending_under_bursts() {
        let mut q = EventQueue::new();
        let mut x = 42u64;
        let (mut pending, mut peak) = (0usize, 0usize);
        for round in 0..200u64 {
            for _ in 0..lcg(&mut x) % 64 {
                q.schedule_in(hot_path_delay(lcg(&mut x)), round);
                pending += 1;
                peak = peak.max(pending);
            }
            for _ in 0..lcg(&mut x) % 64 {
                if q.pop().is_some() {
                    pending -= 1;
                }
            }
            assert_eq!(q.len(), pending);
            assert_eq!(q.events.len(), peak);
        }
    }

    #[test]
    fn clear_releases_the_slab_and_keeps_the_clock() {
        let mut q = EventQueue::new();
        for i in 0..10u64 {
            q.schedule_in(SimDuration::from_millis(i * 30), i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty() && q.events.is_empty() && q.free == NIL);
        assert_eq!(q.pop(), None);
        q.schedule_in(SimDuration::from_secs(1), 99);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 99)));
    }

    #[test]
    fn counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule_in(SimDuration::ZERO, ());
        q.schedule_in(SimDuration::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.events_fired(), 1);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(10), 10u64);
        q.schedule_at(SimTime::from_secs(4), 4);
        let (_, e) = q.pop().unwrap();
        assert_eq!(e, 4);
        q.schedule_at(SimTime::from_secs(6), 6);
        q.schedule_at(SimTime::from_secs(5), 5);
        let got: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(got, vec![5, 6, 10]);
    }

    #[test]
    fn insert_into_activated_region_pops_in_order() {
        // Activate a bucket by peeking, then schedule an event earlier
        // than the activated bucket (but >= now): it must pop first.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(5 << WIDTH_BITS), "late");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5 << WIDTH_BITS)));
        q.schedule_at(SimTime::from_nanos(2 << WIDTH_BITS), "early");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["early", "late"]);
    }

    #[test]
    fn far_future_rebase_keeps_order() {
        // Events far beyond the near window (hundreds of seconds) force
        // overflow-heap migration and window rebasing.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_secs(300), "d");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_secs(900), "e");
        q.schedule_at(SimTime::from_secs(1), "b");
        q.schedule_at(SimTime::from_secs(2), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c", "d", "e"]);
        assert_eq!(q.now(), SimTime::from_secs(900));
    }

    #[test]
    fn matches_heap_reference_on_mixed_horizons() {
        // Deterministic LCG schedule mixing microsecond and multi-second
        // delays, interleaved with pops — both calendars must agree
        // exactly (the property tests randomize this further).
        let mut cal = EventQueue::new();
        let mut heap = HeapEventQueue::new();
        let mut x: u64 = 0x2545F4914F6CDD1D;
        let mut step = |cal: &mut EventQueue<u64>, heap: &mut HeapEventQueue<u64>, i: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let delay = match x % 4 {
                0 => x % 1_000,          // sub-µs
                1 => x % 1_000_000,      // sub-ms
                2 => x % 100_000_000,    // sub-100ms (window edge)
                _ => x % 10_000_000_000, // up to 10 s (overflow)
            };
            cal.schedule_in(SimDuration::from_nanos(delay), i);
            heap.schedule_in(SimDuration::from_nanos(delay), i);
        };
        for i in 0..500 {
            step(&mut cal, &mut heap, i);
            if i % 3 == 0 {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.now(), heap.now());
        assert_eq!(cal.events_fired(), heap.events_fired());
    }
}
