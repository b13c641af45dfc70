//! What a [`System`](crate::System) is built with, and what a run of it
//! changes (DESIGN.md §9): a [`Build`], which only the builders write, and
//! a [`Run`], which [`Run::reset`] derives from it. A run begins with
//! `reset`, and a restart is `reset` again. `reset` names every field of
//! `Run`, so a field without a reset rule does not compile, and a run's
//! whole state is its capture plus `Run`'s `Debug` form.

use crate::admission::{AdmissionPolicy, AdmissionState};
use crate::checkpoint::{CheckpointConfig, CrashStats, SlotWindow, WalRecord};
use crate::circuit::CircuitLib;
use crate::fleet::DeviceId;
use crate::image::{Capture, Latent, Running};
use crate::recovery::{FaultStats, RecoveryPolicy};
use crate::system::{Ev, SystemConfig};
use crate::task::{SetbackTable, TaskId, TaskSlot, TaskSpec, TaskState};
use fsim::json::Json;
use fsim::{EventQueue, HistSet, Metrics, QueueStats, ScheduledEvent, SimTime, TimelineSet, Trace};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub(crate) type RunProbe<M> = Box<dyn FnOnce(&M, QueueStats) + Send>;

/// Everything a system is built with: what a run reads and never changes.
pub(crate) struct Build<M> {
    pub(crate) lib: Arc<CircuitLib>,
    /// The immutable task descriptions, by task id.
    pub(crate) specs: Vec<TaskSpec>,
    /// Task ids in (arrival, id) order: the arrivals, read off the task
    /// table rather than queued. A task arrives when its slot is `Future`
    /// and its arrival is no later than every other pending event.
    pub(crate) arrivals: Box<[u32]>,
    pub(crate) config: SystemConfig,
    pub(crate) recovery: RecoveryPolicy,
    /// Checkpoint cadence + journal switch; `None` = no checkpointing.
    pub(crate) ckpt: Option<CheckpointConfig>,
    /// Admission control's policy; `None` leaves every legacy code path
    /// byte-identical.
    pub(crate) admission: Option<AdmissionPolicy>,
    /// The trace a run records: `None` none (observability off), else
    /// every event, or the last `n` of them when the ring is `Some(n)`.
    pub(crate) trace: Option<Option<usize>>,
    /// Whether a run keeps simulated-time latency histograms.
    pub(crate) latency: bool,
    /// Shown the manager and the event queue's counters as the run left
    /// them, just before the report is built.
    pub(crate) run_probe: Option<RunProbe<M>>,
    /// Which physical device the system runs on (0 outside a fleet).
    pub(crate) device: DeviceId,
    /// What a cold restart returns the components to.
    pub(crate) boot: Boot,
}

impl<M> Build<M> {
    /// A build with every option off, over `specs`.
    pub(crate) fn new(lib: Arc<CircuitLib>, config: SystemConfig, specs: Vec<TaskSpec>) -> Self {
        // (arrival, id) order: a stable sort, which arrival-sorted specs
        // (every generator's) skip.
        let mut arrivals: Vec<u32> = (0..specs.len() as u32).collect();
        let arrival = |&t: &u32| specs[t as usize].arrival;
        if !arrivals.is_sorted_by_key(arrival) {
            arrivals.sort_by_key(arrival);
        }
        Build {
            lib,
            specs,
            arrivals: arrivals.into_boxed_slice(),
            config,
            recovery: RecoveryPolicy::default(),
            ckpt: None,
            admission: None,
            trace: None,
            latency: false,
            run_probe: None,
            device: DeviceId(0),
            boot: Boot::AsBuilt,
        }
    }
}

/// Where a checkpointed system's components — the scheduler, the
/// manager and the fault streams — stand against the build, as far as a
/// cold restart needs them. Everything else a restart returns to is the
/// `Run` that [`Run::reset`] derives.
pub(crate) enum Boot {
    /// As the build left them: never run, or restarted cold since.
    AsBuilt,
    /// Running since they were as built: what they were then, recorded as
    /// the segment started (boxed: a fleet holds many systems).
    Recorded(Box<BootRecord>),
    /// The system has taken or adopted a capture. Every cut from here on
    /// carries one, and it restores all a record held: none is kept.
    Captured,
}

/// The scheduler's and the manager's snapshots and the fault streams'
/// words as built.
pub(crate) struct BootRecord {
    pub(crate) sched: Json,
    pub(crate) manager: Json,
    pub(crate) rng: Option<[[u64; 4]; 3]>,
}

/// Everything a run changes. Its `Debug` form is its state: two runs that
/// print the same, over components that capture the same, run the same.
#[derive(Debug, Default)]
pub(crate) struct Run {
    /// Everything mutable about each task, by task id.
    pub(crate) slots: Vec<TaskSlot>,
    /// What rollbacks, faults and degradation did to each task.
    pub(crate) setbacks: SetbackTable,
    /// How far into [`Build::arrivals`] the run is: each task before it
    /// has arrived or left `Future` some other way (a restore, a
    /// migration split).
    pub(crate) arrived: usize,
    /// Every pending event but the arrivals and the running segment's end.
    pub(crate) queue: EventQueue<Ev>,
    /// The end of the segment the CPU is running, the task its payload:
    /// the event that is nearly always next, held beside the queue rather
    /// than in it. Its `seq` is the queue's, reserved where the event
    /// would have been scheduled, so it fires in the one `(at, seq)` order
    /// of every event. `None` between segments and while a hanging segment
    /// or a failed download holds the CPU.
    pub(crate) segment_end: Option<ScheduledEvent<TaskId>>,
    pub(crate) running: Option<Running>,
    /// Tasks neither Done nor Failed; fault events stop rescheduling at 0.
    pub(crate) unfinished: usize,
    /// Observability (trace + registry + timelines + manager event
    /// recording) is on exactly when the trace is enabled. Off by default:
    /// the hot path then skips all of it.
    pub(crate) trace: Trace,
    pub(crate) reg: Metrics,
    pub(crate) timelines: TimelineSet,
    /// Simulated-time latency histograms per operation class, when the
    /// build keeps them.
    pub(crate) lat: Option<HistSet>,
    pub(crate) fault: FaultStats,
    /// Checkpoint/crash accounting (an adoption takes the cut's).
    pub(crate) crash: CrashStats,
    /// Delta captures since the last full image (delta checkpointing).
    pub(crate) ckpt_chain: u32,
    /// Fabric was rewritten outside the WAL (scrub repair, crash restore,
    /// failover) — the next capture must be a full image.
    pub(crate) ckpt_dirty_all: bool,
    /// Most recent captured image (the durable restore point).
    pub(crate) last_ckpt: Option<Capture>,
    /// The task slots that may differ from `last_ckpt`'s table: what the
    /// next capture, recycling it, copies.
    pub(crate) ckpt_window: SlotWindow,
    /// OS-level write-ahead log of configuration downloads (empty unless
    /// checkpointing is on).
    pub(crate) wal: Vec<WalRecord>,
    /// Per device column (sized as the system is built): a WAL-logged
    /// download rewrote it since the last checkpoint capture. Set where the
    /// record is appended, cleared at capture — what a delta capture must
    /// read back.
    pub(crate) dirty_cols: Vec<bool>,
    /// Unrepaired upsets by struck circuit id.
    pub(crate) latent: BTreeMap<u32, Latent>,
    /// Circuits whose restored residency claim points at device regions a
    /// post-checkpoint download overwrote, discovered only because the
    /// journal was OFF — the next "hit" on one computes garbage.
    pub(crate) stale: BTreeSet<u32>,
    /// Admission control's state, when the build has a policy.
    pub(crate) admission: Option<AdmissionState>,
    /// Whether `reset` has derived this run from the build: a system is
    /// built with an empty run, derived when the system first runs.
    pub(crate) begun: bool,
}

impl Run {
    /// This run as `build` derives it, before its first event: every task
    /// still to arrive, the first capture the one pending event, nothing
    /// recorded, journaled or counted. Buffers a previous run left are
    /// reused: the task table, the trace's ring, the journal, the dirty
    /// columns. A `warm` reset leaves the task table empty, and so nothing
    /// unfinished: the capture restored next fills it.
    pub(crate) fn reset<M>(&mut self, build: &Build<M>, warm: bool) {
        let Run {
            slots,
            setbacks,
            arrived,
            queue,
            segment_end,
            running,
            unfinished,
            trace,
            reg,
            timelines,
            lat,
            fault,
            crash,
            ckpt_chain,
            ckpt_dirty_all,
            last_ckpt,
            ckpt_window,
            wal,
            dirty_cols,
            latent,
            stale,
            admission,
            begun,
        } = self;
        let n = build.specs.len();
        slots.clear();
        if !warm {
            slots.extend(build.specs.iter().map(TaskSlot::new));
        }
        setbacks.clear();
        *arrived = 0;
        // What the run schedules is in flight a handful at a time: a
        // dispatch, a checkpoint, a watchdog, a fault.
        *queue = EventQueue::new();
        if let Some(cfg) = build.ckpt {
            queue.schedule_at(SimTime::ZERO + cfg.interval, Ev::Checkpoint);
        }
        *segment_end = None;
        *running = None;
        *unfinished = slots.len();
        match build.trace {
            Some(ring) if trace.is_enabled() && trace.capacity() == ring => trace.clear(),
            Some(None) => *trace = Trace::enabled(),
            Some(Some(ring)) => *trace = Trace::enabled_with_capacity(ring),
            None => *trace = Trace::disabled(),
        }
        *reg = Metrics::new();
        *timelines = TimelineSet::new();
        *lat = build.latency.then(HistSet::new);
        *fault = FaultStats::default();
        *crash = CrashStats::default();
        *ckpt_chain = 0;
        *ckpt_dirty_all = false;
        *last_ckpt = None;
        *ckpt_window = SlotWindow::whole(n);
        wal.clear();
        dirty_cols.fill(false);
        latent.clear();
        stale.clear();
        *admission = build.admission.as_ref().map(|_| AdmissionState::fresh(n));
        *begun = true;
    }

    /// The next event to fire: the next of the build's `arrivals`, the
    /// queue's head or the running segment's end, whichever is earliest —
    /// the segment end and the head by `(at, seq)`, and an arrival ahead of
    /// either at one instant, as every event scheduled after the task table
    /// was built is. Debug builds first check the run against its table:
    /// before the first event and after every other.
    #[inline]
    pub(crate) fn next(&mut self, arrivals: &[u32]) -> Option<(SimTime, Ev)> {
        debug_assert_eq!(self.agrees_with_table(), Ok(()), "after an event");
        let head = self.queue.head_key();
        let end = self
            .segment_end
            .filter(|end| head.is_none_or(|head| (end.at, end.seq) < head));
        let first = end.map(|end| end.at).or(head.map(|(at, _)| at));
        if let Some(tid) = self.next_arrival(arrivals) {
            let at = self.slots[tid as usize].arrival;
            if first.is_none_or(|first| at <= first) {
                self.arrived += 1;
                self.queue.advance(at);
                return Some((at, Ev::Arrive(TaskId(tid))));
            }
        }
        if let Some(end) = end {
            self.segment_end = None;
            self.queue.fire_held(end.at);
            return Some((end.at, Ev::Timer(end.event)));
        }
        self.queue.pop().map(|e| (e.at, e.event))
    }

    /// The next task to arrive: the cursor's, once it has skipped the
    /// slots no longer `Future`.
    #[inline]
    fn next_arrival(&mut self, arrivals: &[u32]) -> Option<u32> {
        while let Some(&tid) = arrivals.get(self.arrived) {
            if self.slots[tid as usize].state == TaskState::Future {
                return Some(tid);
            }
            self.arrived += 1;
        }
        None
    }

    /// Schedule `ev` at `at`: a segment end into `segment_end`, under the
    /// sequence number the queue would have given it, anything else into
    /// the queue. An arrival is never scheduled: it is its task's slot.
    #[inline]
    pub(crate) fn schedule(&mut self, at: SimTime, ev: Ev) {
        match ev {
            Ev::Timer(tid) => {
                debug_assert!(self.segment_end.is_none(), "two segments end");
                let seq = self.queue.reserve(at);
                self.segment_end = Some(ScheduledEvent {
                    at,
                    seq,
                    event: tid,
                });
            }
            _ => {
                debug_assert!(!matches!(ev, Ev::Arrive(_)), "an arrival is queued");
                self.queue.schedule_at(at, ev);
            }
        }
    }

    /// Append every pending event but the arrivals to `out` in firing
    /// order, the running segment's end included, leaving all of them
    /// pending.
    pub(crate) fn pending_in_order(&self, out: &mut Vec<(SimTime, Ev)>) {
        let end = self.segment_end.map(|end| ScheduledEvent {
            at: end.at,
            seq: end.seq,
            event: Ev::Timer(end.event),
        });
        self.queue
            .pending_in_order(out, end.as_ref(), |e| (e.at, e.event));
    }

    /// Replace every pending event by `pending`, scheduled in its order,
    /// and read the arrivals off the task table again: what a restore and
    /// a migration split do with the pending set.
    pub(crate) fn reload_pending(&mut self, pending: impl IntoIterator<Item = (SimTime, Ev)>) {
        self.queue.clear();
        self.segment_end = None;
        self.arrived = 0;
        for (at, ev) in pending {
            self.schedule(at, ev);
        }
    }

    /// Tasks that have not left the system, counted off the table: what
    /// `unfinished` must be.
    pub(crate) fn live_in_table(&self) -> usize {
        self.slots.iter().filter(|s| !s.state.is_terminal()).count()
    }

    /// Whether the pending events agree with the task table:
    /// [`agrees_with_table`] over the queue and the held segment end.
    pub(crate) fn agrees_with_table(&self) -> Result<(), String> {
        let queued = self.queue.iter().map(|e| e.event);
        let held = self.segment_end.map(|end| Ev::Timer(end.event));
        let running = self.running.map(|run| run.tid);
        agrees_with_table(&self.slots, running, queued.chain(held))
    }
}

/// Whether the `pending` events agree with the task table `slots`. Every
/// task they name is in it, and none has yet to arrive: an arrival is a
/// `Future` slot, never a queued event. The `running` task is `Running`,
/// and at most one event ends its segment — a timer, or a failed
/// download's retry-done — none for a hanging one; no such event names
/// another task. A run restored from anything else panics or spins. This
/// is also what keeps the capture window exact after a restore: a task
/// that has not arrived changes only through its arrival.
pub(crate) fn agrees_with_table(
    slots: &[TaskSlot],
    running: Option<TaskId>,
    pending: impl IntoIterator<Item = Ev>,
) -> Result<(), String> {
    let n = slots.len();
    let state = |TaskId(t): TaskId| match slots.get(t as usize) {
        Some(slot) => Ok(slot.state),
        None => Err(format!("task id {t} out of range ({n} tasks)")),
    };
    if let Some(t) = running {
        let state = state(t)?;
        if state != TaskState::Running {
            return Err(format!("running task {} is {state:?}", t.0));
        }
    }
    let mut segment_ends = 0;
    for ev in pending {
        let Some(t) = ev.task() else { continue };
        if state(t)? == TaskState::Future {
            return Err(format!(
                "an event names task {}, which has not arrived",
                t.0
            ));
        }
        if matches!(ev, Ev::Timer(_) | Ev::RetryDone(_)) {
            segment_ends += 1;
            if running != Some(t) || segment_ends > 1 {
                return Err(format!("a segment end names task {}, not running", t.0));
            }
        }
    }
    Ok(())
}
