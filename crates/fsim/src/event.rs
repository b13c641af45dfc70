//! The pending-event set.
//!
//! [`EventQueue`] is a priority queue ordered by firing time, with a
//! monotonically increasing sequence number breaking ties so that events
//! scheduled earlier at the same instant fire first (FIFO tie-break). This
//! stability is load-bearing: the OS simulator schedules "preempt task" and
//! "start next task" at the same instant and relies on insertion order.
//!
//! # Two lanes
//!
//! A simulator's traffic is not heap-shaped: arrivals are generated
//! sorted and loaded up front (hundreds of thousands of them), while only
//! a handful of dynamically scheduled events (a timer, a dispatch) are in
//! flight at any instant — almost always earlier than every pending
//! arrival. In a single heap each of those sifts from a leaf to the root
//! and back down through a structure that does not fit in cache.
//!
//! So the pending set is split. The *run lane* is a `VecDeque` kept
//! nondecreasing in `at`: [`schedule_at`](EventQueue::schedule_at)
//! appends to it whenever the new event fires no earlier than the lane's
//! last one, and otherwise pushes to the heap. Sequence numbers only
//! grow, so an appended event is later in `(at, seq)` than everything
//! already in the lane and the lane is sorted by the full key. `pop`
//! takes whichever of the two heads has the smaller `(at, seq)` — the
//! minimum of the whole set, hence the same total order a single heap
//! pops. Which lane an event rides is invisible to the caller.
//!
//! Degenerate traffic costs what the single heap did, plus one
//! comparison an operation: a strictly descending preload puts one event
//! in the lane and the rest in the heap; so does a far-future sentinel
//! scheduled first.
//!
//! # A held event
//!
//! A caller may keep one kind of event outside the queue altogether: the
//! OS simulator holds the end of the segment its one CPU is running in a
//! field of its own, because that event is nearly always the next to fire
//! and would otherwise go through the heap on every segment. It takes the
//! event's sequence number from the queue
//! ([`reserve`](EventQueue::reserve)) at the moment it would have
//! scheduled it, compares `(at, seq)` with the queue's head
//! ([`head_key`](EventQueue::head_key)) to decide which fires next, and
//! tells the queue when the held one fires
//! ([`fire_held`](EventQueue::fire_held)), which advances the clock. The
//! total order is the one a queue holding every event pops, and
//! [`QueueStats`] counts the held event as scheduled and pending.
//!
//! # The pending walk
//!
//! A checkpoint records the pending set in firing order without popping
//! it ([`pending_in_order`](EventQueue::pending_in_order)). The lane is
//! already in order and the heap holds a handful, so the walk sorts the
//! heap's events and a caller's held one and, before each, appends the
//! run of lane events that fires earlier — found by binary search in the
//! lane's two ring-buffer slices, appended in one `extend` — then the rest
//! of the lane. Its cost is the copy, plus a logarithm per in-flight event.
//! It has no filter: an `extend` from a slice knows its length and copies
//! without a check an element, which a filtered one cannot. A caller that
//! drops events `retain`s what it got.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// An event of payload type `E` scheduled to fire at a given instant.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion sequence number; unique per queue, breaks ties FIFO.
    pub seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> ScheduledEvent<E> {
    /// The pop order: earlier instant first, insertion order on ties.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for ScheduledEvent<E> {
    /// Reversed so that `BinaryHeap` (a max-heap) pops the *earliest* event.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// Lifetime counters of one [`EventQueue`]: how much traffic it saw and
/// how the two lanes shared it. `peak_heap` is the number to read: heap
/// operations cost the logarithm of the heap's size, so a large `via_heap`
/// is harmless while `peak_heap` stays a handful (in-flight timers among
/// a sorted preload), and a `peak_heap` that tracks `peak_pending` means
/// the preload itself was scheduled out of order and pays heap prices.
/// Events a caller holds outside the queue ([`EventQueue::reserve`])
/// count in `scheduled` and `peak_pending` as if the queue held them,
/// and in neither heap figure: they never enter it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled or reserved (reloads after a `clear` count
    /// again).
    pub scheduled: u64,
    /// Of those, the ones that fired before the run lane's last event
    /// and went to the heap instead.
    pub via_heap: u64,
    /// Most events pending at once, both lanes and the held ones together.
    pub peak_pending: usize,
    /// Most events pending at once in the heap alone.
    pub peak_heap: usize,
}

/// Heap slots reserved by [`EventQueue::with_capacity`]: room for the
/// handful of in-flight events a simulator keeps beside its preload.
const HEAP_RESERVE: usize = 16;

/// A deterministic pending-event set.
///
/// Events are popped in nondecreasing time order; among events with equal
/// firing times, insertion order is preserved.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The run lane: nondecreasing in `(at, seq)`, appended at the back,
    /// popped at the front.
    lane: VecDeque<ScheduledEvent<E>>,
    /// Every event that fired before the lane's last one when scheduled.
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
    /// Events reserved and not yet fired or cleared: held by the caller.
    held: usize,
    // The counters behind [`QueueStats`]; `scheduled` is `next_seq`.
    via_heap: u64,
    peak_pending: usize,
    peak_heap: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at `SimTime::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            lane: VecDeque::new(),
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            held: 0,
            via_heap: 0,
            peak_pending: 0,
            peak_heap: 0,
        }
    }

    /// An empty queue with space reserved for `capacity` pending events
    /// scheduled in firing order (a sorted preload), so filling it never
    /// reallocates. Out-of-order events get a small fixed reservation
    /// and grow on demand.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            lane: VecDeque::with_capacity(capacity),
            heap: BinaryHeap::with_capacity(HEAP_RESERVE),
            ..Self::new()
        }
    }

    /// The current simulated time: the firing time of the most recently
    /// popped event (or zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events in the queue (held ones aside).
    #[inline]
    pub fn len(&self) -> usize {
        self.lane.len() + self.heap.len()
    }

    /// Whether no events are pending in the queue (held ones aside).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.lane.is_empty() && self.heap.is_empty()
    }

    /// Traffic counters since the queue was built.
    #[inline]
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            // Every scheduled event took the next sequence number.
            scheduled: self.next_seq,
            via_heap: self.via_heap,
            peak_pending: self.peak_pending,
            peak_heap: self.peak_heap,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past (`at < self.now()`): a
    /// causality violation always indicates a bug in the caller.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> u64 {
        let seq = self.take_seq(at);
        let ev = ScheduledEvent { at, seq, event };
        if self.lane.back().is_none_or(|last| at >= last.at) {
            self.lane.push_back(ev);
        } else {
            self.heap.push(ev);
            self.via_heap += 1;
            self.peak_heap = self.peak_heap.max(self.heap.len());
        }
        self.peak_pending = self.peak_pending.max(self.len() + self.held);
        seq
    }

    /// Take the sequence number of an event to fire at `at` that the
    /// caller holds outside the queue: the number
    /// [`schedule_at`](Self::schedule_at) would have given it. The event
    /// fires before the queue's head when its `(at, seq)` is smaller than
    /// [`head_key`](Self::head_key); the caller then reports it with
    /// [`fire_held`](Self::fire_held). A [`clear`](Self::clear) drops it.
    ///
    /// # Panics
    /// Panics if `at` is in the simulated past, as `schedule_at` does.
    pub fn reserve(&mut self, at: SimTime) -> u64 {
        let seq = self.take_seq(at);
        self.held += 1;
        self.peak_pending = self.peak_pending.max(self.len() + self.held);
        seq
    }

    /// A held event, reserved for `at`, fires: the clock advances to `at`.
    #[inline]
    pub fn fire_held(&mut self, at: SimTime) {
        debug_assert!(self.held > 0, "no event is held");
        debug_assert!(
            at >= self.now && self.head_key().is_none_or(|(head, _)| at <= head),
            "a held event fired out of order"
        );
        self.held -= 1;
        self.now = at;
    }

    /// The sequence number of an event scheduled at `at`, checked against
    /// the clock.
    #[inline]
    fn take_seq(&mut self, at: SimTime) -> u64 {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {at} but now is {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn schedule_in(&mut self, delay: crate::time::SimDuration, event: E) -> u64 {
        let at = self.now + delay;
        self.schedule_at(at, event)
    }

    /// Whether the earliest pending event sits in the heap rather than
    /// at the front of the run lane.
    #[inline]
    fn heap_is_next(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => h.key() < l.key(),
            (None, Some(_)) => true,
            (_, None) => false,
        }
    }

    /// Pop the earliest pending event, advancing the clock to its firing
    /// time. Returns `None` when the queue is empty (the clock stays put).
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = if self.heap_is_next() {
            self.heap.pop()
        } else {
            self.lane.pop_front()
        }?;
        debug_assert!(ev.at >= self.now, "queue returned an event in the past");
        self.now = ev.at;
        Some(ev)
    }

    /// `(at, seq)` of the earliest pending event in the queue, if any: what
    /// a held event's own key is compared with.
    #[inline]
    pub fn head_key(&self) -> Option<(SimTime, u64)> {
        if self.heap_is_next() {
            self.heap.peek()
        } else {
            self.lane.front()
        }
        .map(ScheduledEvent::key)
    }

    /// Firing time of the earliest pending event in the queue, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head_key().map(|(at, _)| at)
    }

    /// Drop every pending event, held ones included (the clock is
    /// unchanged).
    pub fn clear(&mut self) {
        self.lane.clear();
        self.heap.clear();
        self.held = 0;
    }
}

impl<E> EventQueue<E> {
    /// Append every pending event to `out`, in firing order, as `item`
    /// renders it — *without* disturbing the queue: neither the clock nor
    /// the pending set changes. `held` is the caller's held event, if it
    /// has one ([`reserve`](Self::reserve)), merged in at its `(at, seq)`.
    /// Used by checkpointing, which must record the pending set and then
    /// keep running (a destructive drain would advance `now` and turn
    /// later `schedule_at` calls into causality panics), and by in-place
    /// pruning; a caller that drops some events `retain`s `out` after.
    ///
    /// One walk: the heap's few events and the held one are sorted, and
    /// the run of lane events that fires before each of them is found by
    /// binary search and appended in one `extend`, so the lane costs no
    /// comparison an event.
    pub fn pending_in_order<T>(
        &self,
        out: &mut Vec<T>,
        held: Option<&ScheduledEvent<E>>,
        mut item: impl FnMut(&ScheduledEvent<E>) -> T,
    ) {
        let mut strays: Vec<&ScheduledEvent<E>> = self.heap.iter().chain(held).collect();
        strays.sort_unstable_by_key(|s| s.key());
        out.reserve(self.lane.len() + strays.len());
        let (mut front, mut back) = self.lane.as_slices();
        for stray in strays {
            let key = stray.key();
            for half in [&mut front, &mut back] {
                let run = half.partition_point(|e| e.key() < key);
                out.extend(half[..run].iter().map(&mut item));
                *half = &half[run..];
            }
            out.push(item(stray));
        }
        out.extend(front.iter().chain(back).map(item));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), SimTime(30));
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule_at(SimTime(42), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.event).collect();
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(100), "first");
        q.pop();
        q.schedule_in(SimDuration::from_nanos(5), "second");
        let e = q.pop().unwrap();
        assert_eq!(e.at, SimTime(105));
        assert_eq!(e.event, "second");
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), ());
        q.pop();
        q.schedule_at(SimTime(5), ());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut q = EventQueue::with_capacity(16);
        assert!(q.is_empty());
        q.schedule_at(SimTime(5), "a");
        q.schedule_at(SimTime(3), "b");
        assert_eq!(q.pop().unwrap().event, "b");
        assert_eq!(q.pop().unwrap().event, "a");
    }

    #[test]
    fn peek_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule_at(SimTime(7), ());
        assert_eq!(q.peek_time(), Some(SimTime(7)));
        assert_eq!(q.len(), 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|e| e.at), None);
    }

    #[test]
    fn pending_in_order_is_nondestructive_and_sorted() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(30), "c");
        q.schedule_at(SimTime(10), "a");
        q.schedule_at(SimTime(10), "b");
        let mut pending = Vec::new();
        q.pending_in_order(&mut pending, None, |e| e.event);
        assert_eq!(pending, vec!["a", "b", "c"], "sorted by time then FIFO");
        assert_eq!(q.len(), 3, "queue untouched");
        assert_eq!(q.now(), SimTime::ZERO, "clock untouched");
        assert_eq!(q.pop().unwrap().event, "a");
    }

    #[test]
    fn pending_walk_crosses_a_wrapped_lane() {
        // Each arrival leaving at the front is replaced at the back, so the
        // lane's head goes round its ring buffer; one in-flight event is
        // always pending half-way down the lane.
        let mut q = EventQueue::new();
        for i in 0..12u64 {
            q.schedule_at(SimTime(i * 10), i);
        }
        q.schedule_at(SimTime(55), 1000);
        let (mut next, mut in_back) = (12, 0);
        for i in 0..200u64 {
            if q.pop().unwrap().event < 1000 {
                q.schedule_at(SimTime(next * 10), next);
                next += 1;
            } else {
                q.schedule_in(SimDuration::from_nanos(51 + i % 7), 1001 + i);
            }
            let stray = q.heap.peek().unwrap().key();
            let back = q.lane.as_slices().1;
            in_back += usize::from(back.first().is_some_and(|e| e.key() < stray));
            let mut walked = Vec::new();
            q.pending_in_order(&mut walked, None, ScheduledEvent::key);
            let mut sorted: Vec<_> = q
                .lane
                .iter()
                .chain(q.heap.iter())
                .map(|e| e.key())
                .collect();
            sorted.sort_unstable();
            assert_eq!(walked, sorted);
        }
        assert!(
            in_back > 10,
            "the stray fell in the wrapped half at {in_back} walks"
        );
    }

    #[test]
    fn interleaved_schedule_pop_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(10), 1);
        q.schedule_at(SimTime(30), 3);
        assert_eq!(q.pop().unwrap().event, 1);
        q.schedule_at(SimTime(20), 2);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
    }

    #[test]
    fn in_order_traffic_never_touches_the_heap() {
        // The simulator's shape: a sorted preload, then timers that fire
        // before the remaining arrivals.
        let mut q = EventQueue::with_capacity(100);
        for i in 0..100u64 {
            q.schedule_at(SimTime(i * 10), i);
        }
        assert_eq!(q.stats().via_heap, 0);
        assert_eq!(q.stats().peak_pending, 100);
        for _ in 0..50 {
            q.pop().unwrap();
            q.schedule_in(SimDuration::from_nanos(5), 1000);
            assert_eq!(q.pop().unwrap().event, 1000);
        }
        let s = q.stats();
        assert_eq!((s.scheduled, s.via_heap, s.peak_heap), (150, 50, 1));
        assert_eq!(q.len(), 50);
    }

    #[test]
    fn a_held_event_keeps_its_place_in_the_order() {
        // Arrivals every 10 ns; each arms a timer the caller holds, 5 ns
        // on or tied with the next arrival, unless one is held already.
        // The held timer fires by `(at, seq)` — after the older arrival it
        // ties with — counts as scheduled and pending, and never touches
        // the heap.
        let mut q = EventQueue::with_capacity(8);
        for i in 0..8u64 {
            q.schedule_at(SimTime(i * 10), i);
        }
        let mut held: Option<ScheduledEvent<u64>> = None;
        let mut order = Vec::new();
        loop {
            let ev = match held.take() {
                Some(h) if q.head_key().is_none_or(|head| h.key() < head) => {
                    q.fire_held(h.at);
                    h
                }
                h => {
                    held = h;
                    let Some(ev) = q.pop() else { break };
                    ev
                }
            };
            order.push(ev.event);
            if ev.event < 100 && held.is_none() {
                let at = ev.at + SimDuration::from_nanos(5 + 5 * (ev.event % 2));
                let seq = q.reserve(at);
                held = Some(ScheduledEvent {
                    at,
                    seq,
                    event: 100 + ev.event,
                });
            }
            if ev.event == 3 {
                let mut walked = Vec::new();
                q.pending_in_order(&mut walked, held.as_ref(), |e| e.event);
                assert_eq!(walked, [4, 103, 5, 6, 7], "the walk merges it in");
            }
        }
        assert_eq!(order, [0, 100, 1, 2, 101, 3, 4, 103, 5, 6, 105, 7, 107]);
        let s = q.stats();
        assert_eq!(
            (s.scheduled, s.via_heap, s.peak_heap, s.peak_pending),
            (13, 0, 0, 8)
        );
        // A clear drops held events too: pending counts restart from it.
        for _ in 0..20 {
            q.reserve(SimTime(1000));
        }
        q.clear();
        q.schedule_at(SimTime(1000), 0);
        assert_eq!(q.stats().peak_pending, 20);
    }
}
