//! CPU schedulers.
//!
//! The paper assumes a general-purpose multitasking, possibly time-shared
//! host (§1). Four policies are provided: FIFO (run-to-completion),
//! round-robin with a time slice (the time-shared case whose slice length
//! experiment E2 sweeps against configuration time), preemptive priority
//! (optionally with aging), and earliest-deadline-first
//! ([`EdfScheduler`], the deadline-closed policy E18 compares against the
//! others).

use crate::image::PolicyImage;
use crate::task::{TaskId, TaskSpec};
use fsim::json::Json;
use fsim::json::Wire;
use fsim::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A CPU scheduling policy.
pub trait Scheduler {
    /// A task became ready.
    fn on_ready(&mut self, tid: TaskId, priority: u8, now: SimTime);
    /// Pick the next task to run (removing it from the ready set).
    fn pick(&mut self, now: SimTime) -> Option<TaskId>;
    /// Time slice, if the policy preempts on a timer.
    fn slice(&self) -> Option<SimDuration>;
    /// Whether the ready set is empty (the system skips slice preemption
    /// when nobody else could run).
    fn is_empty(&self) -> bool;
    /// Ready-queue depth (for dispatch events and queue timelines). May
    /// count stale entries for tasks that changed state since enqueue.
    fn len(&self) -> usize;
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Serialize the mutable scheduler state (ready queue contents) for a
    /// system checkpoint. `None` means the policy cannot be checkpointed;
    /// [`crate::System`] then refuses to enable checkpointing with a typed
    /// error instead of silently losing state.
    fn snapshot(&self) -> Option<Json> {
        None
    }

    /// Restore state captured by [`Scheduler::snapshot`] into a freshly
    /// built scheduler of the same policy and configuration.
    fn restore(&mut self, _snap: &Json) -> Result<(), String> {
        Err("scheduler does not support snapshots".into())
    }

    /// The state a system checkpoint carries, as the process keeps it,
    /// refilling `recycled`'s buffers where it can: as
    /// [`FpgaManager::image`](crate::FpgaManager::image). The default is
    /// the [`snapshot`](Scheduler::snapshot) tree.
    fn image(&self, _recycled: Option<PolicyImage>) -> Option<PolicyImage> {
        self.snapshot().map(PolicyImage::from)
    }

    /// Restore what [`image`](Scheduler::image) returned, or an image read
    /// back from its JSON, exactly as [`restore`](Scheduler::restore) reads
    /// the rendering. The default restores the rendering.
    fn restore_image(&mut self, image: &PolicyImage) -> Result<(), String> {
        self.restore(&image.as_json())
    }
}

/// The checkpoint methods of a scheduler whose state is its record `st`,
/// a `$record`: the image is a copy of it, the snapshot its rendering,
/// and both restores read it (`$what` names it in an error).
macro_rules! state_is_the_image {
    ($record:ty, $what:literal) => {
        fn snapshot(&self) -> Option<Json> {
            Some(self.st.json())
        }

        fn restore(&mut self, snap: &Json) -> Result<(), String> {
            self.st = Wire::read(snap, $what)?;
            Ok(())
        }

        fn image(&self, recycled: Option<PolicyImage>) -> Option<PolicyImage> {
            Some(PolicyImage::refill(recycled, &self.st))
        }

        fn restore_image(&mut self, image: &PolicyImage) -> Result<(), String> {
            self.st.clone_from(&*image.record::<$record>($what)?);
            Ok(())
        }
    };
}

fsim::record! {
    /// The image of the two plain-queue policies: `{"queue": [tid, …]}`.
    #[derive(Debug, Default)]
    pub(crate) struct QueueImage {
        queue: VecDeque<TaskId>,
    }
}

fsim::record! {
    /// The image of the two ordered policies: `{"ready": [entry, …],
    /// "seq": n}`, the ready entries and the next insertion sequence.
    #[derive(Debug)]
    pub(crate) struct ReadyImage<E> {
        ready: Vec<E>,
        seq: u64,
    }
}

// By hand, so that a capture refills the last one's buffer.
impl Clone for QueueImage {
    fn clone(&self) -> Self {
        QueueImage {
            queue: self.queue.clone(),
        }
    }

    fn clone_from(&mut self, from: &Self) {
        self.queue.clone_from(&from.queue);
    }
}

impl<E: Clone> Clone for ReadyImage<E> {
    fn clone(&self) -> Self {
        ReadyImage {
            ready: self.ready.clone(),
            seq: self.seq,
        }
    }

    fn clone_from(&mut self, from: &Self) {
        self.ready.clone_from(&from.ready);
        self.seq = from.seq;
    }
}

impl<E> ReadyImage<E> {
    fn new() -> Self {
        ReadyImage {
            ready: Vec::new(),
            seq: 0,
        }
    }
}

/// First-in first-out, run to completion (no slicing).
#[derive(Debug, Default)]
pub struct FifoScheduler {
    st: QueueImage,
}

impl FifoScheduler {
    /// New empty FIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for FifoScheduler {
    fn on_ready(&mut self, tid: TaskId, _priority: u8, _now: SimTime) {
        self.st.queue.push_back(tid);
    }

    fn pick(&mut self, _now: SimTime) -> Option<TaskId> {
        self.st.queue.pop_front()
    }

    fn slice(&self) -> Option<SimDuration> {
        None
    }

    fn is_empty(&self) -> bool {
        self.st.queue.is_empty()
    }

    fn len(&self) -> usize {
        self.st.queue.len()
    }

    fn name(&self) -> &'static str {
        "fifo"
    }

    state_is_the_image!(QueueImage, "fifo snapshot");
}

/// Round-robin with a fixed time slice.
#[derive(Debug)]
pub struct RoundRobinScheduler {
    st: QueueImage,
    slice: SimDuration,
}

impl RoundRobinScheduler {
    /// Round-robin with the given slice.
    pub fn new(slice: SimDuration) -> Self {
        assert!(slice > SimDuration::ZERO, "zero slice would livelock");
        RoundRobinScheduler {
            st: QueueImage::default(),
            slice,
        }
    }
}

impl Scheduler for RoundRobinScheduler {
    fn on_ready(&mut self, tid: TaskId, _priority: u8, _now: SimTime) {
        self.st.queue.push_back(tid);
    }

    fn pick(&mut self, _now: SimTime) -> Option<TaskId> {
        self.st.queue.pop_front()
    }

    fn slice(&self) -> Option<SimDuration> {
        Some(self.slice)
    }

    fn is_empty(&self) -> bool {
        self.st.queue.is_empty()
    }

    fn len(&self) -> usize {
        self.st.queue.len()
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }

    state_is_the_image!(QueueImage, "round-robin snapshot");
}

/// Preemptive priority with round-robin among equal priorities.
///
/// Without aging, the base policy starves low-priority tasks: as long as
/// higher-priority work keeps arriving, a low-priority entry is never
/// picked (see `priority_without_aging_starves_low_priority`). Built via
/// [`PriorityScheduler::with_aging`], a waiting task's effective priority
/// grows by one level per `aging_step` spent in the ready queue, bounding
/// its wait under sustained high-priority load.
#[derive(Debug)]
pub struct PriorityScheduler {
    /// Ready entries `(priority, insertion seq, tid, enqueue time)`;
    /// highest effective priority first, FIFO ties.
    st: ReadyImage<(u8, u64, TaskId, SimTime)>,
    slice: Option<SimDuration>,
    aging_step: Option<SimDuration>,
}

impl PriorityScheduler {
    /// Priority scheduling; `slice` enables time-sharing within a level.
    /// No aging: a starvation-prone pure static-priority policy.
    pub fn new(slice: Option<SimDuration>) -> Self {
        PriorityScheduler {
            st: ReadyImage::new(),
            slice,
            aging_step: None,
        }
    }

    /// Priority scheduling with aging: a queued task gains one effective
    /// priority level per `aging_step` of waiting.
    pub fn with_aging(slice: Option<SimDuration>, aging_step: SimDuration) -> Self {
        assert!(
            aging_step > SimDuration::ZERO,
            "zero aging step would make every wait infinite priority"
        );
        PriorityScheduler {
            aging_step: Some(aging_step),
            ..Self::new(slice)
        }
    }

    /// Effective priority of an entry at `now`: the static level plus one
    /// per aging step waited (saturating; no aging means the static level).
    fn effective(&self, p: u8, enqueued: SimTime, now: SimTime) -> u64 {
        let base = u64::from(p);
        match self.aging_step {
            Some(step) => {
                let waited = now.since(enqueued);
                base.saturating_add(waited.as_nanos() / step.as_nanos().max(1))
            }
            None => base,
        }
    }
}

impl Scheduler for PriorityScheduler {
    fn on_ready(&mut self, tid: TaskId, priority: u8, now: SimTime) {
        self.st.ready.push((priority, self.st.seq, tid, now));
        self.st.seq += 1;
    }

    fn pick(&mut self, now: SimTime) -> Option<TaskId> {
        if self.st.ready.is_empty() {
            return None;
        }
        // Highest effective priority; FIFO within a level.
        let best = self
            .st
            .ready
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| {
                self.effective(a.0, a.3, now)
                    .cmp(&self.effective(b.0, b.3, now))
                    .then(b.1.cmp(&a.1))
            })
            .map(|(i, _)| i)
            .expect("nonempty");
        Some(self.st.ready.remove(best).2)
    }

    fn slice(&self) -> Option<SimDuration> {
        self.slice
    }

    fn is_empty(&self) -> bool {
        self.st.ready.is_empty()
    }

    fn len(&self) -> usize {
        self.st.ready.len()
    }

    fn name(&self) -> &'static str {
        match self.aging_step {
            Some(_) => "priority-aging",
            None => "priority",
        }
    }

    state_is_the_image!(ReadyImage<(u8, u64, TaskId, SimTime)>, "priority snapshot");
}

/// Earliest absolute deadline first.
///
/// The trait's `on_ready` carries only the static priority byte, so this
/// policy owns a per-task table of *absolute* deadlines (arrival +
/// relative deadline), built up front from the task list via
/// [`EdfScheduler::for_tasks`] or entry-by-entry via
/// [`EdfScheduler::set_deadline`]. Tasks without a deadline sort after
/// every deadline-bearing task; ties — equal deadlines, and the whole
/// no-deadline tail — break FIFO by insertion sequence, so every pick is
/// a deterministic function of enqueue order and `--threads`
/// byte-identity holds. A slice makes the policy preemptive through the
/// existing save/restore machinery: each expiry re-runs the
/// earliest-deadline decision against whatever became ready meanwhile.
#[derive(Debug, Clone)]
pub struct EdfScheduler {
    /// Absolute deadline in ns per task id; `u64::MAX` means none.
    deadline_ns: Vec<u64>,
    /// Ready entries `(insertion seq, tid)`; deadlines are looked up at
    /// pick time.
    st: ReadyImage<(u64, TaskId)>,
    slice: Option<SimDuration>,
}

impl EdfScheduler {
    /// EDF with an empty deadline table; `slice` enables preemptive
    /// re-evaluation on a timer.
    pub fn new(slice: Option<SimDuration>) -> Self {
        if let Some(s) = slice {
            assert!(s > SimDuration::ZERO, "zero slice would livelock");
        }
        EdfScheduler {
            deadline_ns: Vec::new(),
            st: ReadyImage::new(),
            slice,
        }
    }

    /// EDF over a concrete task list: task `i`'s absolute deadline is
    /// `arrival + deadline` when stamped, "never" otherwise.
    pub fn for_tasks(specs: &[TaskSpec], slice: Option<SimDuration>) -> Self {
        let mut s = Self::new(slice);
        for (i, spec) in specs.iter().enumerate() {
            if let Some(at) = spec.absolute_deadline() {
                s.set_deadline(TaskId(i as u32), at);
            }
        }
        s
    }

    /// Record `tid`'s absolute deadline (growing the table as needed).
    pub fn set_deadline(&mut self, tid: TaskId, deadline: SimTime) {
        let i = tid.0 as usize;
        if self.deadline_ns.len() <= i {
            self.deadline_ns.resize(i + 1, u64::MAX);
        }
        self.deadline_ns[i] = deadline.as_nanos();
    }

    /// Sort key: the absolute deadline, tasks without one last.
    fn key(&self, tid: TaskId) -> u64 {
        self.deadline_ns
            .get(tid.0 as usize)
            .copied()
            .unwrap_or(u64::MAX)
    }
}

impl Scheduler for EdfScheduler {
    fn on_ready(&mut self, tid: TaskId, _priority: u8, _now: SimTime) {
        self.st.ready.push((self.st.seq, tid));
        self.st.seq += 1;
    }

    fn pick(&mut self, _now: SimTime) -> Option<TaskId> {
        if self.st.ready.is_empty() {
            return None;
        }
        // Earliest deadline; FIFO by insertion among equals.
        let best = self
            .st
            .ready
            .iter()
            .enumerate()
            .min_by_key(|(_, &(seq, tid))| (self.key(tid), seq))
            .map(|(i, _)| i)
            .expect("nonempty");
        Some(self.st.ready.remove(best).1)
    }

    fn slice(&self) -> Option<SimDuration> {
        self.slice
    }

    fn is_empty(&self) -> bool {
        self.st.ready.is_empty()
    }

    fn len(&self) -> usize {
        self.st.ready.len()
    }

    fn name(&self) -> &'static str {
        "edf"
    }

    // The deadline table is configuration (rebuilt identically with the
    // scheduler); only the ready queue and seq counter are state.
    state_is_the_image!(ReadyImage<(u64, TaskId)>, "edf snapshot");
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsim::json::Obj;

    fn t(i: u32) -> TaskId {
        TaskId(i)
    }

    #[test]
    fn fifo_orders_by_arrival() {
        let mut s = FifoScheduler::new();
        s.on_ready(t(2), 0, SimTime::ZERO);
        s.on_ready(t(1), 9, SimTime::ZERO);
        assert_eq!(s.len(), 2);
        assert_eq!(s.pick(SimTime::ZERO), Some(t(2)));
        assert_eq!(s.pick(SimTime::ZERO), Some(t(1)));
        assert_eq!(s.pick(SimTime::ZERO), None);
        assert_eq!(s.slice(), None);
    }

    #[test]
    fn round_robin_has_slice() {
        let s = RoundRobinScheduler::new(SimDuration::from_millis(10));
        assert_eq!(s.slice(), Some(SimDuration::from_millis(10)));
    }

    #[test]
    #[should_panic(expected = "zero slice")]
    fn zero_slice_rejected() {
        RoundRobinScheduler::new(SimDuration::ZERO);
    }

    #[test]
    fn scheduler_snapshots_round_trip() {
        let mut f = FifoScheduler::new();
        f.on_ready(t(3), 0, SimTime::ZERO);
        f.on_ready(t(1), 0, SimTime::ZERO);
        let snap = f.snapshot().unwrap();
        let mut f2 = FifoScheduler::new();
        f2.restore(&snap).unwrap();
        assert_eq!(f2.pick(SimTime::ZERO), Some(t(3)));
        assert_eq!(f2.pick(SimTime::ZERO), Some(t(1)));

        let mut p = PriorityScheduler::new(None);
        p.on_ready(t(1), 1, SimTime::ZERO);
        p.on_ready(t(2), 5, SimTime::ZERO);
        p.on_ready(t(3), 5, SimTime::ZERO);
        let snap = p.snapshot().unwrap();
        let mut p2 = PriorityScheduler::new(None);
        p2.restore(&snap).unwrap();
        // Restored FIFO-within-level ordering survives (the insertion
        // sequence is part of the snapshot).
        assert_eq!(p2.pick(SimTime::ZERO), Some(t(2)));
        assert_eq!(p2.pick(SimTime::ZERO), Some(t(3)));
        assert_eq!(p2.pick(SimTime::ZERO), Some(t(1)));

        // A snapshot survives the writer/parser round trip too.
        let rendered = snap.render();
        let back = Json::parse(&rendered).unwrap();
        let mut p3 = PriorityScheduler::new(None);
        p3.restore(&back).unwrap();
        assert_eq!(p3.len(), 3);
    }

    #[test]
    fn restore_rejects_malformed_snapshots() {
        let mut f = FifoScheduler::new();
        assert!(f.restore(&Json::Null).is_err());
        let mut p = PriorityScheduler::new(None);
        assert!(p.restore(&Obj::new().set("ready", 3u64).build()).is_err());
    }

    #[test]
    fn priority_picks_highest_then_fifo() {
        let mut s = PriorityScheduler::new(None);
        s.on_ready(t(1), 1, SimTime::ZERO);
        s.on_ready(t(2), 5, SimTime::ZERO);
        s.on_ready(t(3), 5, SimTime::ZERO);
        s.on_ready(t(4), 3, SimTime::ZERO);
        assert_eq!(s.pick(SimTime::ZERO), Some(t(2)));
        assert_eq!(s.pick(SimTime::ZERO), Some(t(3)), "FIFO within level 5");
        assert_eq!(s.pick(SimTime::ZERO), Some(t(4)));
        assert_eq!(s.pick(SimTime::ZERO), Some(t(1)));
    }

    #[test]
    fn priority_without_aging_starves_low_priority() {
        // The documented hazard of the base policy: under sustained
        // high-priority arrivals, a low-priority task is never picked no
        // matter how long it has waited.
        let mut s = PriorityScheduler::new(None);
        s.on_ready(t(0), 0, SimTime::ZERO);
        for i in 1..=100u32 {
            let now = SimTime(u64::from(i) * 1_000_000);
            s.on_ready(t(i), 5, now);
            assert_ne!(s.pick(now), Some(t(0)), "starved task must never win");
        }
    }

    #[test]
    fn aging_bounds_the_wait_of_low_priority_tasks() {
        // One effective level per 1 ms waited: after more than 5 ms in
        // the queue, priority 0 outranks a *freshly arrived* priority 5
        // (tasks that waited alongside it age identically and keep their
        // static edge — aging equalizes against new arrivals only).
        let step = SimDuration::from_millis(1);
        let mut s = PriorityScheduler::with_aging(None, step);
        assert_eq!(s.name(), "priority-aging");
        s.on_ready(t(0), 0, SimTime::ZERO);
        let early = SimTime(2_000_000);
        s.on_ready(t(1), 5, early);
        assert_eq!(s.pick(early), Some(t(1)), "2 ms of aging is not enough");
        let late = SimTime(6_000_000);
        s.on_ready(t(1), 5, late); // freshly re-arrived high-priority work
        assert_eq!(
            s.pick(late),
            Some(t(0)),
            "6 ms of aging must outrank a fresh static priority 5"
        );
    }

    #[test]
    fn aging_keeps_fifo_ties_and_zero_step_panics() {
        let step = SimDuration::from_millis(1);
        let mut s = PriorityScheduler::with_aging(None, step);
        // Same priority, same enqueue time: FIFO by insertion order.
        s.on_ready(t(7), 3, SimTime::ZERO);
        s.on_ready(t(8), 3, SimTime::ZERO);
        assert_eq!(s.pick(SimTime::ZERO), Some(t(7)));
        assert_eq!(s.pick(SimTime::ZERO), Some(t(8)));

        let r = std::panic::catch_unwind(|| PriorityScheduler::with_aging(None, SimDuration::ZERO));
        assert!(r.is_err(), "zero aging step must be rejected");
    }

    #[test]
    fn edf_picks_earliest_deadline_then_fifo() {
        let mut s = EdfScheduler::new(None);
        assert_eq!(s.name(), "edf");
        s.set_deadline(t(0), SimTime(9_000));
        s.set_deadline(t(1), SimTime(3_000));
        s.set_deadline(t(2), SimTime(3_000));
        s.on_ready(t(0), 0, SimTime::ZERO);
        s.on_ready(t(1), 0, SimTime::ZERO);
        s.on_ready(t(2), 9, SimTime::ZERO); // priority byte is ignored
        assert_eq!(s.len(), 3);
        assert_eq!(s.pick(SimTime::ZERO), Some(t(1)), "earliest deadline");
        assert_eq!(s.pick(SimTime::ZERO), Some(t(2)), "FIFO at equal deadline");
        assert_eq!(s.pick(SimTime::ZERO), Some(t(0)));
        assert_eq!(s.pick(SimTime::ZERO), None);
    }

    #[test]
    fn edf_sorts_deadline_free_tasks_last() {
        let mut s = EdfScheduler::new(None);
        s.set_deadline(t(2), SimTime(50_000_000));
        s.on_ready(t(0), 0, SimTime::ZERO); // no table entry at all
        s.on_ready(t(1), 0, SimTime::ZERO); // grown entry, still MAX
        s.on_ready(t(2), 0, SimTime::ZERO);
        assert_eq!(s.pick(SimTime::ZERO), Some(t(2)));
        // The deadline-free tail keeps FIFO order.
        assert_eq!(s.pick(SimTime::ZERO), Some(t(0)));
        assert_eq!(s.pick(SimTime::ZERO), Some(t(1)));
    }

    #[test]
    fn edf_for_tasks_uses_absolute_deadlines() {
        use crate::task::Op;
        // Same relative deadline, different arrivals: the earlier arrival
        // has the earlier absolute deadline.
        let ops = || vec![Op::Cpu(SimDuration::from_micros(10))];
        let specs = vec![
            TaskSpec::new("a", SimTime(5_000), ops()).with_deadline(SimDuration::from_micros(100)),
            TaskSpec::new("b", SimTime(1_000), ops()).with_deadline(SimDuration::from_micros(100)),
            TaskSpec::new("c", SimTime::ZERO, ops()), // no deadline
        ];
        let mut s = EdfScheduler::for_tasks(&specs, Some(SimDuration::from_millis(1)));
        assert_eq!(s.slice(), Some(SimDuration::from_millis(1)));
        s.on_ready(t(0), 0, SimTime::ZERO);
        s.on_ready(t(1), 0, SimTime::ZERO);
        s.on_ready(t(2), 0, SimTime::ZERO);
        assert_eq!(s.pick(SimTime::ZERO), Some(t(1)));
        assert_eq!(s.pick(SimTime::ZERO), Some(t(0)));
        assert_eq!(s.pick(SimTime::ZERO), Some(t(2)));
    }

    #[test]
    #[should_panic(expected = "zero slice")]
    fn edf_zero_slice_rejected() {
        EdfScheduler::new(Some(SimDuration::ZERO));
    }

    #[test]
    fn edf_snapshot_round_trips_insertion_order() {
        let mut s = EdfScheduler::new(None);
        s.set_deadline(t(0), SimTime(7_000));
        s.set_deadline(t(1), SimTime(7_000));
        s.on_ready(t(1), 0, SimTime::ZERO);
        s.on_ready(t(0), 0, SimTime::ZERO);
        let snap = s.snapshot().unwrap();
        let back = Json::parse(&snap.render()).unwrap();
        let mut s2 = EdfScheduler::new(None);
        s2.set_deadline(t(0), SimTime(7_000));
        s2.set_deadline(t(1), SimTime(7_000));
        s2.restore(&back).unwrap();
        // The equal-deadline FIFO tie restores exactly: t1 enqueued first.
        assert_eq!(s2.pick(SimTime::ZERO), Some(t(1)));
        assert_eq!(s2.pick(SimTime::ZERO), Some(t(0)));

        let mut bad = EdfScheduler::new(None);
        assert!(bad.restore(&Json::Null).is_err());
        assert!(bad.restore(&Obj::new().set("ready", 3u64).build()).is_err());
    }

    #[test]
    fn aging_snapshot_round_trips_enqueue_times() {
        let step = SimDuration::from_millis(1);
        let mut s = PriorityScheduler::with_aging(None, step);
        s.on_ready(t(0), 0, SimTime::ZERO);
        s.on_ready(t(1), 3, SimTime(5_000_000));
        let snap = s.snapshot().unwrap();
        let back = Json::parse(&snap.render()).unwrap();
        let mut s2 = PriorityScheduler::with_aging(None, step);
        s2.restore(&back).unwrap();
        // Enqueue times survive the round trip, so aging continues from
        // where the checkpoint left off: at 9 ms, t0 has aged 9 levels
        // against t1's 3 + 4. Had restore reset the enqueue times to a
        // common instant, t1's static priority would win instead.
        assert_eq!(s2.pick(SimTime(9_000_000)), Some(t(0)));
        assert_eq!(s2.pick(SimTime(9_000_000)), Some(t(1)));
    }
}
