//! The pending-event set.
//!
//! [`EventQueue`] is a priority queue ordered by firing time, with a
//! monotonically increasing sequence number breaking ties so that events
//! scheduled earlier at the same instant fire first (FIFO tie-break). This
//! stability is load-bearing: the OS simulator schedules "preempt task" and
//! "start next task" at the same instant and relies on insertion order.
//!
//! The queue is a binary heap of the events in flight. A simulator keeps
//! what it can read off its own tables out of it: the OS simulator's
//! arrivals are its task table's `Future` slots, served in arrival order
//! and fired with [`advance`](EventQueue::advance), so the heap holds only
//! the handful of events scheduled as the run goes — a dispatch, a
//! checkpoint, a watchdog, a fault.
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
//! A checkpoint records the pending set in firing order without popping
//! it ([`pending_in_order`](EventQueue::pending_in_order)): the heap's few
//! events and the held one, sorted.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// how much of it went through the heap. `peak_heap` is the number to
/// read: heap operations cost the logarithm of the heap's size, so it
/// should stay a handful. Events a caller holds outside the queue
/// ([`EventQueue::reserve`]) count in `scheduled` and `peak_pending` as if
/// the queue held them, and in neither heap figure: they never enter it.
/// Events a caller never puts in the queue ([`EventQueue::advance`]) count
/// nowhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled or reserved (reloads after a `clear` count
    /// again).
    pub scheduled: u64,
    /// Of those, the ones that went to the heap: every one not held.
    pub via_heap: u64,
    /// Most events pending at once, the held ones included.
    pub peak_pending: usize,
    /// Most events pending at once in the heap alone.
    pub peak_heap: usize,
}

/// A deterministic pending-event set.
///
/// Events are popped in nondecreasing time order; among events with equal
/// firing times, insertion order is preserved.
pub struct EventQueue<E> {
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

/// The queue's state, not its heap's layout: the clock, the counters, the
/// events held outside, and the pending events in firing order.
impl<E: std::fmt::Debug> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut pending: Vec<&ScheduledEvent<E>> = self.iter().collect();
        pending.sort_unstable_by_key(|e| e.key());
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("stats", &self.stats())
            .field("held", &self.held)
            .field("pending", &pending)
            .finish()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at `SimTime::ZERO`.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue with space reserved for `capacity` pending events,
    /// so filling it that far never reallocates.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(capacity),
            next_seq: 0,
            now: SimTime::ZERO,
            held: 0,
            via_heap: 0,
            peak_pending: 0,
            peak_heap: 0,
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
        self.heap.len()
    }

    /// Whether no events are pending in the queue (held ones aside).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        self.heap.push(ScheduledEvent { at, seq, event });
        self.via_heap += 1;
        self.peak_heap = self.peak_heap.max(self.heap.len());
        self.peak_pending = self.peak_pending.max(self.heap.len() + self.held);
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
        self.peak_pending = self.peak_pending.max(self.heap.len() + self.held);
        seq
    }

    /// A held event, reserved for `at`, fires: the clock advances to `at`.
    #[inline]
    pub fn fire_held(&mut self, at: SimTime) {
        debug_assert!(self.held > 0, "no event is held");
        self.held -= 1;
        self.advance(at);
    }

    /// An event the caller kept outside the queue fires at `at`, no later
    /// than the queue's head: the clock advances to `at`, so scheduling
    /// before it is a causality violation from here on.
    #[inline]
    pub fn advance(&mut self, at: SimTime) {
        debug_assert!(
            at >= self.now && self.head_key().is_none_or(|(head, _)| at <= head),
            "an event outside the queue fired out of order"
        );
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

    /// Pop the earliest pending event, advancing the clock to its firing
    /// time. Returns `None` when the queue is empty (the clock stays put).
    pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.at >= self.now, "queue returned an event in the past");
        self.now = ev.at;
        Some(ev)
    }

    /// `(at, seq)` of the earliest pending event in the queue, if any: what
    /// a held event's own key is compared with.
    #[inline]
    pub fn head_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(ScheduledEvent::key)
    }

    /// Firing time of the earliest pending event in the queue, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head_key().map(|(at, _)| at)
    }

    /// Every pending event in the queue (held ones aside), in no
    /// particular order.
    pub fn iter(&self) -> impl Iterator<Item = &ScheduledEvent<E>> + '_ {
        self.heap.iter()
    }

    /// Drop every pending event, held ones included (the clock is
    /// unchanged).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.held = 0;
    }

    /// Put the queue back as [`new`](Self::new) makes it — empty, at
    /// `SimTime::ZERO`, every counter zero — keeping the heap's buffer.
    pub fn reset(&mut self) {
        let mut heap = std::mem::take(&mut self.heap);
        heap.clear();
        *self = EventQueue {
            heap,
            ..Self::new()
        };
    }

    /// Append every pending event to `out`, in firing order, as `item`
    /// renders it — *without* disturbing the queue: neither the clock nor
    /// the pending set changes. `held` is the caller's held event, if it
    /// has one ([`reserve`](Self::reserve)), merged in at its `(at, seq)`.
    /// Used by checkpointing, which must record the pending set and then
    /// keep running (a destructive drain would advance `now` and turn
    /// later `schedule_at` calls into causality panics), and by in-place
    /// pruning.
    pub fn pending_in_order<T>(
        &self,
        out: &mut Vec<T>,
        held: Option<&ScheduledEvent<E>>,
        item: impl FnMut(&ScheduledEvent<E>) -> T,
    ) {
        let mut pending: Vec<&ScheduledEvent<E>> = self.heap.iter().chain(held).collect();
        pending.sort_unstable_by_key(|e| e.key());
        out.extend(pending.into_iter().map(item));
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
    fn reset_is_a_new_queue_over_the_old_buffer() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule_at(SimTime(10 * i), i);
        }
        q.pop();
        q.reserve(SimTime(60));
        let cap = q.heap.capacity();
        q.reset();
        assert_eq!(format!("{q:?}"), format!("{:?}", EventQueue::<u64>::new()));
        assert_eq!(q.heap.capacity(), cap);
        assert_eq!(q.schedule_at(SimTime(1), 9), 0, "sequence numbers restart");
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
    fn an_event_outside_the_queue_advances_its_clock() {
        // Arrivals the caller reads off its own table: each fires no later
        // than the queue's head, moves the clock, and counts nowhere.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime(20), "timer");
        q.advance(SimTime(10));
        assert_eq!(q.now(), SimTime(10));
        q.advance(SimTime(20));
        assert_eq!(
            q.pop().unwrap().event,
            "timer",
            "a tie leaves the head queued"
        );
        let s = q.stats();
        assert_eq!((s.scheduled, s.via_heap, s.peak_pending), (1, 1, 1));
        let late = std::panic::catch_unwind(move || q.schedule_at(SimTime(15), "late"));
        assert!(late.is_err(), "the clock it moved guards causality");
    }

    #[test]
    fn a_held_event_keeps_its_place_in_the_order() {
        // Events every 10 ns; each arms a timer the caller holds, 5 ns on
        // or tied with the next event, unless one is held already. The
        // held timer fires by `(at, seq)` — after the older event it ties
        // with — counts as scheduled and pending, and never touches the
        // heap.
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
            (13, 8, 8, 8)
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
