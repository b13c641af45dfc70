//! [`fsim::EventQueue`] and the event its caller holds outside it, against
//! a queue that holds every event.
//!
//! `reference` is the `BinaryHeap`-only queue as it stood before events
//! could be held outside the queue. The new queue's caller holds one event
//! outside it, as `System` holds the running segment's end: under a
//! sequence number the queue reserves, fired when its `(at, seq)` is below
//! the queue's head, walked with the pending set, and routed back to the
//! caller on a reload. The reference queue receives that event like any
//! other. Both are driven with the same calls and must agree on everything
//! a caller can see: each popped `(at, seq, event)`, `now()`, `len()`,
//! `is_empty()`, `peek_time()` and the pending set that `pending_in_order`
//! walks, whole and filtered after as its callers filter it. Inputs come
//! from [`SimRng`], so a failure names its seed.

use fsim::{EventQueue, ScheduledEvent, SimDuration, SimRng, SimTime};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The queue before held events, verbatim.
#[allow(dead_code)]
mod reference {
    use fsim::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// An event of payload type `E` scheduled to fire at a given instant.
    #[derive(Debug, Clone)]
    pub struct ScheduledEvent<E> {
        /// When the event fires.
        pub at: SimTime,
        /// Insertion sequence number; unique per queue, breaks ties FIFO.
        pub seq: u64,
        /// The payload.
        pub event: E,
    }

    impl<E> PartialEq for ScheduledEvent<E> {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
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
            other
                .at
                .cmp(&self.at)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// A deterministic pending-event set.
    ///
    /// Events are popped in nondecreasing time order; among events with equal
    /// firing times, insertion order is preserved.
    #[derive(Debug)]
    pub struct EventQueue<E> {
        heap: BinaryHeap<ScheduledEvent<E>>,
        next_seq: u64,
        now: SimTime,
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
                heap: BinaryHeap::new(),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        /// An empty queue with heap space reserved for `capacity` pending
        /// events, so steady-state scheduling in the simulator's hot loop
        /// never reallocates.
        pub fn with_capacity(capacity: usize) -> Self {
            EventQueue {
                heap: BinaryHeap::with_capacity(capacity),
                next_seq: 0,
                now: SimTime::ZERO,
            }
        }

        /// The current simulated time: the firing time of the most recently
        /// popped event (or zero before the first pop).
        #[inline]
        pub fn now(&self) -> SimTime {
            self.now
        }

        /// Number of pending events.
        #[inline]
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Whether no events are pending.
        #[inline]
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Schedule `event` to fire at absolute time `at`.
        ///
        /// # Panics
        /// Panics if `at` is in the simulated past (`at < self.now()`): a
        /// causality violation always indicates a bug in the caller.
        pub fn schedule_at(&mut self, at: SimTime, event: E) -> u64 {
            assert!(
                at >= self.now,
                "causality violation: scheduling at {at} but now is {}",
                self.now
            );
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(ScheduledEvent { at, seq, event });
            seq
        }

        /// Schedule `event` to fire `delay` after the current time.
        pub fn schedule_in(&mut self, delay: fsim::SimDuration, event: E) -> u64 {
            let at = self.now + delay;
            self.schedule_at(at, event)
        }

        /// Pop the earliest pending event, advancing the clock to its firing
        /// time. Returns `None` when the queue is empty (the clock stays put).
        pub fn pop(&mut self) -> Option<ScheduledEvent<E>> {
            let ev = self.heap.pop()?;
            debug_assert!(ev.at >= self.now, "heap returned an event in the past");
            self.now = ev.at;
            Some(ev)
        }

        /// Firing time of the earliest pending event, if any.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }

        /// Drop every pending event (the clock is unchanged).
        pub fn clear(&mut self) {
            self.heap.clear();
        }
    }

    impl<E: Clone> EventQueue<E> {
        /// Snapshot the pending events in firing order *without* disturbing
        /// the queue — neither the clock nor the pending set changes. Used by
        /// checkpointing, which must serialize the pending set and then keep
        /// running; a destructive drain would advance `now` and turn later
        /// `schedule_at` calls into causality panics.
        pub fn pending_in_order(&self) -> Vec<ScheduledEvent<E>> {
            let mut copy = self.heap.clone();
            let mut out = Vec::with_capacity(copy.len());
            while let Some(ev) = copy.pop() {
                out.push(ev);
            }
            out
        }
    }
}

type Key = (SimTime, u64, u32);

/// Events at or above this are the kind the caller holds outside the new
/// queue, one at a time.
const HELD: u32 = 1 << 20;

/// Both queues behind one set of calls; every call checks they agree.
struct Pair {
    new: EventQueue<u32>,
    old: reference::EventQueue<u32>,
    /// The event `new`'s caller holds outside it; `old` holds it too.
    held: Option<ScheduledEvent<u32>>,
    ctx: String,
}

impl Pair {
    fn new(ctx: impl Into<String>) -> Self {
        Pair {
            new: EventQueue::new(),
            old: reference::EventQueue::new(),
            held: None,
            ctx: ctx.into(),
        }
    }

    fn check(&self) {
        let ctx = &self.ctx;
        let held = self.held.as_ref();
        assert_eq!(self.new.now(), self.old.now(), "{ctx}: now");
        let len = self.new.len() + usize::from(held.is_some());
        assert_eq!(len, self.old.len(), "{ctx}: len");
        let empty = self.new.is_empty() && held.is_none();
        assert_eq!(empty, self.old.is_empty(), "{ctx}: is_empty");
        let peek = match (self.new.peek_time(), held) {
            (Some(at), Some(h)) => Some(at.min(h.at)),
            (at, h) => at.or(h.map(|h| h.at)),
        };
        assert_eq!(peek, self.old.peek_time(), "{ctx}: peek_time");
    }

    /// Hold `ev` outside the new queue, under the sequence number it
    /// reserves; the reference queue schedules it.
    fn hold(&mut self, at: SimTime, ev: u32) {
        assert!(
            self.held.is_none() && ev >= HELD,
            "one held event at a time"
        );
        let seq = self.new.reserve(at);
        let b = self.old.schedule_at(at, ev);
        assert_eq!(seq, b, "{}: seq reserved", self.ctx);
        self.held = Some(ScheduledEvent { at, seq, event: ev });
        self.check();
    }

    /// The new queue's next event as its caller takes it: the held one
    /// when it is earlier in `(at, seq)` than the head, else a pop.
    fn next_new(&mut self) -> Option<Key> {
        let head = self.new.head_key();
        match self.held.take() {
            Some(h) if head.is_none_or(|head| (h.at, h.seq) < head) => {
                self.new.fire_held(h.at);
                Some((h.at, h.seq, h.event))
            }
            h => {
                self.held = h;
                self.new.pop().map(|e| (e.at, e.seq, e.event))
            }
        }
    }

    fn schedule_at(&mut self, at: SimTime, ev: u32) {
        let a = self.new.schedule_at(at, ev);
        let b = self.old.schedule_at(at, ev);
        assert_eq!(a, b, "{}: seq handed out", self.ctx);
        self.check();
    }

    fn schedule_in(&mut self, delay: SimDuration, ev: u32) {
        let a = self.new.schedule_in(delay, ev);
        let b = self.old.schedule_in(delay, ev);
        assert_eq!(a, b, "{}: seq handed out", self.ctx);
        self.check();
    }

    fn pop(&mut self) -> Option<Key> {
        let a = self.next_new();
        let b = self.old.pop().map(|e| (e.at, e.seq, e.event));
        assert_eq!(a, b, "{}: pop", self.ctx);
        self.check();
        a
    }

    fn snapshot(&self) -> Vec<Key> {
        self.snapshot_where(|_| true)
    }

    /// The pending events `keep` accepts, in firing order, as the walk's
    /// callers take them: walked, then retained. The walk appends, so what
    /// the output held before stays in front.
    fn snapshot_where(&self, keep: impl Fn(u32) -> bool) -> Vec<Key> {
        const HELD: Key = (SimTime(u64::MAX), u64::MAX, u32::MAX);
        let mut a = vec![HELD];
        self.new
            .pending_in_order(&mut a, self.held.as_ref(), |e| (e.at, e.seq, e.event));
        assert_eq!(
            a.remove(0),
            HELD,
            "{}: the walk kept what it appends to",
            self.ctx
        );
        a.retain(|k| keep(k.2));
        let b: Vec<Key> = self
            .old
            .pending_in_order()
            .into_iter()
            .map(|e| (e.at, e.seq, e.event))
            .filter(|k| keep(k.2))
            .collect();
        assert_eq!(a, b, "{}: pending_in_order", self.ctx);
        self.check();
        a
    }

    fn clear(&mut self) {
        self.new.clear();
        self.held = None;
        self.old.clear();
        self.check();
    }

    /// What restore and `retire_tasks_where` do: walk the survivors, clear,
    /// and schedule them again in walk order, the held kind back outside.
    fn clear_and_reload(&mut self, keep: impl Fn(u32) -> bool) {
        let pending = self.snapshot_where(keep);
        self.clear();
        for (at, _, ev) in pending {
            if ev >= HELD {
                self.hold(at, ev);
            } else {
                self.schedule_at(at, ev);
            }
        }
    }

    fn drain(&mut self) -> Vec<Key> {
        std::iter::from_fn(|| self.pop()).collect()
    }

    fn now(&self) -> SimTime {
        self.new.now()
    }
}

/// Seeded random interleavings of every call, with firing times drawn
/// from a window a few ticks wide so that ties are the common case.
#[test]
fn random_interleavings_match_the_heap_only_queue() {
    for seed in 0..300u64 {
        let mut rng = SimRng::new(seed);
        let mut p = Pair::new(format!("seed {seed}"));
        // Per-seed mix: how push-heavy the run is and how wide the window.
        let push_pct = 35 + rng.below(40);
        let window = 1 + rng.below(12);
        let mut next_ev = 0u32;
        for _ in 0..600 {
            let roll = rng.below(100);
            if roll < push_pct {
                next_ev += 1;
                if rng.below(2) == 0 {
                    p.schedule_at(SimTime(p.now().0 + rng.below(window)), next_ev);
                } else {
                    p.schedule_in(SimDuration::from_nanos(rng.below(window)), next_ev);
                }
            } else if roll < 92 {
                p.pop();
            } else if roll < 94 {
                p.snapshot();
            } else if roll < 96 {
                p.snapshot_where(|ev| ev % 4 != 1);
            } else if roll < 98 {
                p.clear_and_reload(|ev| ev % 3 != 0);
            } else {
                p.clear();
            }
        }
        p.snapshot();
        p.drain();
        assert!(p.new.is_empty());
    }
}

/// The same interleavings with the caller holding one event at a time
/// outside the new queue, as often as the mix allows: the held event pops
/// where the reference queue, which holds it like any other, pops it —
/// ties included on both sides, since the window is a few ticks wide —
/// and walks, clears and reloads (back outside) with the rest.
#[test]
fn a_held_event_pops_where_the_heap_only_queue_pops_it() {
    for seed in 0..300u64 {
        let mut rng = SimRng::new(seed ^ 0x4E1D);
        let mut p = Pair::new(format!("held, seed {seed}"));
        let push_pct = 35 + rng.below(40);
        let window = 1 + rng.below(12);
        let (mut next_ev, mut held) = (0u32, 0u32);
        for _ in 0..600 {
            let roll = rng.below(100);
            if roll < push_pct {
                next_ev += 1;
                let at = SimTime(p.now().0 + rng.below(window));
                if p.held.is_none() && rng.below(2) == 0 {
                    held += 1;
                    p.hold(at, HELD + next_ev);
                } else {
                    p.schedule_at(at, next_ev);
                }
            } else if roll < 92 {
                p.pop();
            } else if roll < 94 {
                p.snapshot();
            } else if roll < 96 {
                p.snapshot_where(|ev| ev % 4 != 1);
            } else if roll < 98 {
                p.clear_and_reload(|ev| ev % 3 != 0);
            } else {
                p.clear();
            }
        }
        p.snapshot();
        p.drain();
        assert!(p.new.is_empty() && p.held.is_none());
        assert!(held > 10, "seed {seed} held {held} events");
    }
}

/// A long sorted preload, each popped event arming a segment end held
/// outside the queue unless one is held already; ties with the next
/// queued event are common. The held events pop where the reference pops
/// them and never enter the heap.
#[test]
fn sorted_preload_with_a_held_segment_end() {
    let mut rng = SimRng::new(0x5E6);
    let mut p = Pair::new("held segment ends");
    let mut at = 0u64;
    for i in 0..2000u32 {
        at += rng.below(4);
        p.schedule_at(SimTime(at), i);
    }
    let mut ends = 0u32;
    while let Some((_, _, ev)) = p.pop() {
        if ev < HELD && p.held.is_none() {
            ends += 1;
            p.hold(SimTime(p.now().0 + rng.below(3)), HELD + ev);
        }
        if ev % 97 == 0 {
            p.snapshot();
        }
    }
    assert!(ends > 1000, "{ends} segment ends");
    let stats = p.new.stats();
    assert_eq!(stats.scheduled, u64::from(2000 + ends));
    assert_eq!((stats.via_heap, stats.peak_heap), (2000, 2000));
}

/// A sorted preload with ties, and one to four short timers scheduled
/// behind each preloaded event: the timers tie with and overtake the
/// preload.
#[test]
fn sorted_preload_with_in_flight_timers() {
    for timers in 1..=4u64 {
        let mut rng = SimRng::new(0x57 + timers);
        let mut p = Pair::new(format!("{timers} timers"));
        let mut at = 0u64;
        for i in 0..2000u32 {
            at += rng.below(4);
            p.schedule_at(SimTime(at), i);
        }
        let mut popped = 0usize;
        while let Some((_, _, ev)) = p.pop() {
            popped += 1;
            // Preloaded events re-arm the timers; timers (>= 10_000) do not.
            if ev < 10_000 {
                for k in 0..timers {
                    p.schedule_in(SimDuration::from_nanos(rng.below(3)), 10_000 + k as u32);
                }
            }
        }
        assert_eq!(popped as u64, 2000 * (1 + timers));
    }
}

/// Strictly descending: every event is the new head when scheduled.
#[test]
fn descending_preload_falls_to_the_heap() {
    let mut p = Pair::new("descending");
    for i in 0..500u32 {
        p.schedule_at(SimTime(u64::from(1000 - i)), i);
    }
    let stats = p.new.stats();
    assert_eq!(
        (stats.via_heap, stats.peak_heap, stats.peak_pending),
        (500, 500, 500)
    );
    p.snapshot();
    let order = p.drain();
    assert_eq!(order.first().map(|k| k.2), Some(499));
    assert_eq!(order.len(), 500);
}

/// A sentinel scheduled first at the end of time pops last, whatever is
/// scheduled and popped before it.
#[test]
fn far_future_sentinel_scheduled_first() {
    let mut rng = SimRng::new(0x5E);
    let mut p = Pair::new("sentinel");
    p.schedule_at(SimTime(u64::MAX), 0);
    for i in 1..=300u32 {
        p.schedule_at(SimTime(p.now().0 + rng.below(50)), i);
        if i % 3 == 0 {
            p.pop();
        }
    }
    p.snapshot();
    let order = p.drain();
    assert_eq!(order.last().map(|k| k.2), Some(0));
}

/// Restore: the snapshot of a half-run queue is loaded into a fresh pair
/// (clock at zero, sequence numbers restarting) and both halves finish
/// with the same event order.
#[test]
fn clear_and_reload_of_pending_in_order() {
    let mut rng = SimRng::new(0xC1);
    let mut p = Pair::new("restore source");
    for i in 0..400u32 {
        p.schedule_at(SimTime(rng.below(200)), i);
    }
    for _ in 0..150 {
        p.pop();
    }
    // In-flight events earlier than the remaining preload.
    for i in 400..404u32 {
        p.schedule_in(SimDuration::from_nanos(rng.below(5)), i);
    }
    let image = p.snapshot();

    let mut fresh = Pair::new("restored");
    for i in 0..400u32 {
        fresh.schedule_at(SimTime(u64::from(i)), i);
    }
    fresh.clear();
    for &(at, _, ev) in &image {
        fresh.schedule_at(at, ev);
    }
    let resumed: Vec<(SimTime, u32)> = fresh.drain().into_iter().map(|k| (k.0, k.2)).collect();
    let original: Vec<(SimTime, u32)> = p.drain().into_iter().map(|k| (k.0, k.2)).collect();
    assert_eq!(resumed, original);

    // In place, dropping a third of the events (`retire_tasks_where`).
    let mut q = Pair::new("retire");
    for i in 0..300u32 {
        q.schedule_at(SimTime(rng.below(100)), i);
    }
    q.clear_and_reload(|ev| ev % 3 != 1);
    assert_eq!(q.drain().len(), 200);
}

/// Events scheduled out of order among a sorted run of others: before its
/// first entry, inside it, tied with an entry (the younger one follows,
/// here the held one), and back to back with no run event between them.
#[test]
fn in_flight_events_between_lane_runs() {
    let mut p = Pair::new("between runs");
    for i in 0..10u32 {
        p.schedule_at(SimTime(u64::from(i) * 10), i);
    }
    for (at, ev) in [(35, 100), (5, 101)] {
        p.schedule_at(SimTime(at), ev);
    }
    p.hold(SimTime(40), HELD + 102);
    for (at, ev) in [(40, 103), (42, 104), (41, 105), (0, 106)] {
        p.schedule_at(SimTime(at), ev);
    }
    assert_eq!(p.new.stats().via_heap, 16, "every event but the held one");
    let order: Vec<u32> = p.snapshot().into_iter().map(|k| k.2).collect();
    let expect = [
        0,
        106,
        101,
        1,
        2,
        3,
        100,
        4,
        HELD + 102,
        103,
        105,
        104,
        5,
        6,
        7,
        8,
        9,
    ];
    assert_eq!(order, expect);
    p.pop();
    p.pop();
    p.snapshot();
    p.drain();
}

/// A filter after the walk drops an event whether the queue or its caller
/// held it: queued event 3 and held event 105, then every preloaded event,
/// then every later one; reloading what it kept loses nothing else.
#[test]
fn filtered_out_events_in_the_lane_and_the_heap() {
    let build = |ctx: &str| {
        let mut p = Pair::new(ctx);
        for i in 0..10u32 {
            p.schedule_at(SimTime(u64::from(i) * 10), i);
        }
        for (at, ev) in [(35, 100), (5, 101)] {
            p.schedule_at(SimTime(at), ev);
        }
        p.hold(SimTime(41), HELD + 105);
        p
    };
    let p = build("filtered");
    let kept: Vec<u32> = p
        .snapshot_where(|ev| ev != 3 && ev != HELD + 105)
        .into_iter()
        .map(|k| k.2)
        .collect();
    assert_eq!(kept, [0, 101, 1, 2, 100, 4, 5, 6, 7, 8, 9]);
    assert_eq!(
        p.snapshot_where(|ev| ev >= 100).len(),
        3,
        "preload all dropped"
    );
    assert_eq!(
        p.snapshot_where(|ev| ev < 100).len(),
        10,
        "later ones all dropped"
    );
    let mut q = build("filtered reload");
    q.clear_and_reload(|ev| ev != 3 && ev != HELD + 105);
    assert_eq!(q.drain().len(), 11);
}

/// Nothing pending; then events all earlier than the first one
/// scheduled, one of them held; then drained again.
#[test]
fn empty_queue_and_empty_lane_runs() {
    let mut p = Pair::new("empty");
    assert!(p.snapshot().is_empty());
    p.schedule_at(SimTime(100), 0);
    for i in 1..4u32 {
        p.schedule_at(SimTime(10 + u64::from(i)), i);
    }
    p.hold(SimTime(14), HELD + 4);
    assert_eq!(p.new.stats().via_heap, 4);
    let order: Vec<u32> = p.snapshot().into_iter().map(|k| k.2).collect();
    assert_eq!(order, [1, 2, 3, HELD + 4, 0]);
    assert!(p.snapshot_where(|_| false).is_empty());
    p.drain();
    assert!(p.snapshot().is_empty());
}

/// Scheduling into the past panics whichever event advanced the clock: a
/// queued one or a held one.
#[test]
fn causality_panic_from_either_lane() {
    let panics = |f: &mut dyn FnMut()| catch_unwind(AssertUnwindSafe(f)).is_err();

    // Clock advanced by a held event.
    let mut p = Pair::new("held");
    p.hold(SimTime(10), HELD);
    p.schedule_at(SimTime(20), 1);
    p.pop();
    assert!(panics(&mut || {
        p.new.schedule_at(SimTime(9), 2);
    }));
    assert!(panics(&mut || {
        p.old.schedule_at(SimTime(9), 2);
    }));

    // Clock advanced by a queued event, a later one still queued.
    let mut p = Pair::new("queued");
    p.schedule_at(SimTime(20), 0);
    p.schedule_at(SimTime(10), 1);
    assert_eq!(p.pop(), Some((SimTime(10), 1, 1)));
    assert!(panics(&mut || {
        p.new.schedule_at(SimTime(9), 2);
    }));
    assert!(panics(&mut || {
        p.old.schedule_at(SimTime(9), 2);
    }));
    // Neither failed call left anything behind.
    assert_eq!(p.drain(), [(SimTime(20), 0, 0)]);
}
