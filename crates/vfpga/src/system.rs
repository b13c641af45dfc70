//! The host-system simulator.
//!
//! A deterministic discrete-event model of the paper's execution
//! environment: one CPU, one FPGA board, a scheduler, and an
//! [`FpgaManager`] policy. Tasks alternate CPU bursts and FPGA operations
//! (co-processor model: the task holds the CPU while its circuit runs).
//! Configuration downloads, state readback/restore, and completion
//! detection are charged as CPU-time overhead on the dispatch path,
//! exactly where the paper places them ("the operating system downloads
//! the desired FPGA configuration … then the operating system can put
//! running the task", §3).

use crate::admission::{AdmissionPolicy, AdmissionRt};
use crate::checkpoint::{
    CheckpointConfig, CheckpointImage, CrashState, CrashStats, RunOutcome, WalRecord,
};
use crate::circuit::{CircuitId, CircuitLib};
use crate::error::VfpgaError;
use crate::image::{Capture, FpgaSeg, Latent, Running, SystemImage};
use crate::manager::{redownload_cost, Activation, FpgaManager, PreemptAction, ResidentRegion};
use crate::metrics::{Report, TaskMetrics};
use crate::recovery::{FaultStats, RecoveryPolicy, UpsetRecovery};
use crate::sched::Scheduler;
use crate::task::{Op, TaskId, TaskSlot, TaskSpec, TaskState};
use fsim::{
    span, EventQueue, FaultInjector, FaultPlan, HistSet, Metrics, QueueStats, SimDuration, SimTime,
    TimelineSet, Trace, TraceEvent,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How the OS learns an FPGA operation has finished (§3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CompletionDetect {
    /// Idealized: the OS knows the exact completion instant.
    Exact,
    /// A-priori estimate from the configuration compiler; the OS waits
    /// `factor × actual` (factor ≥ 1), wasting the difference.
    Estimate {
        /// Overestimation factor (1.0 = perfect estimate).
        factor: f64,
    },
    /// A service circuit raises a done signal; the OS polls it every
    /// `poll`, detecting completion at the next poll boundary and paying
    /// a small CPU cost per poll.
    DoneSignal {
        /// Polling period.
        poll: SimDuration,
    },
}

/// CPU cost of one done-signal poll (status register read + branch).
pub const POLL_CPU_COST: SimDuration = SimDuration::from_micros(2);

/// System-level policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Preemption policy for tasks interrupted mid-FPGA-op. Must agree
    /// with the policy the manager was built with.
    pub preempt: PreemptAction,
    /// Completion-detection mechanism.
    pub completion: CompletionDetect,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            preempt: PreemptAction::WaitCompletion,
            completion: CompletionDetect::Exact,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Ev {
    Arrive(TaskId),
    /// The running segment of `tid` ends.
    Timer(TaskId),
    /// Re-attempt dispatch (after preemption overhead).
    Dispatch,
    /// A configuration upset strikes a random device column.
    Seu,
    /// Periodic configuration scrubbing pass (readback + CRC compare).
    Scrub,
    /// A permanent column failure: `None` picks a fresh random column,
    /// `Some(col)` retries retiring a column that was busy.
    ColumnFail(Option<u32>),
    /// The wasted time of a corrupt download attempt has elapsed.
    RetryDone(TaskId),
    /// Backoff elapsed: the task may re-attempt its download.
    Retry(TaskId),
    /// Capture a periodic system checkpoint.
    Checkpoint,
    /// The host dies here (scheduled by [`System::run_until`]; never
    /// serialized into a checkpoint image).
    Crash,
    /// A watchdog deadline for `tid`'s dispatched FPGA segment. `seq` is
    /// the arming generation: a segment that ends on time bumps the
    /// task's generation, turning the still-pending event stale.
    Watchdog {
        tid: TaskId,
        seq: u64,
    },
}

/// What [`System::fail_over_from`] found in the carried state: the
/// quantities the fleet layer accounts and prices a failover by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailoverReceipt {
    /// Residency claims that died with the source device; each is a
    /// migration the destination re-downloads at next activation.
    pub migrated_claims: u32,
    /// Torn (mid-flight at the crash) journal records dropped.
    pub torn_undone: u32,
    /// Work window lost to the crash: crash time minus the restored
    /// checkpoint's capture time (the whole run so far on a cold start).
    pub redo_window: SimDuration,
    /// Unfinished tasks carried onto the destination.
    pub live_tasks: u32,
}

/// Everything that describes one physical device and dies — or must be
/// rebuilt — with it: the manager owning its fabric, the fault streams
/// striking it, the latent upsets and stale claims on it, and the
/// write-ahead journal of downloads to it. Grouped so device-facing state
/// is per-device rather than global: a fleet (`crate::fleet`) owns N
/// `System`s, one `DeviceCtx` each, and fails tenants over between them.
pub(crate) struct DeviceCtx<M: FpgaManager> {
    /// Which physical device this is (0 outside a fleet).
    pub(crate) id: crate::fleet::DeviceId,
    /// The reconfiguration manager owning the device's fabric.
    pub(crate) manager: M,
    /// Deterministic fault source; `None` runs fault-free.
    pub(crate) injector: Option<FaultInjector>,
    /// Unrepaired upsets by struck circuit id.
    pub(crate) latent: BTreeMap<u32, Latent>,
    /// Circuits whose restored residency claim points at device regions a
    /// post-checkpoint download overwrote, discovered only because the
    /// journal was OFF — the next "hit" on one computes garbage.
    pub(crate) stale: BTreeSet<u32>,
    /// OS-level write-ahead log of configuration downloads (empty unless
    /// checkpointing is on).
    pub(crate) wal: Vec<WalRecord>,
    /// Per column: a WAL-logged download rewrote it since the last
    /// checkpoint capture. Set where the record is appended, cleared at
    /// capture — what a delta capture must read back.
    pub(crate) dirty_cols: Vec<bool>,
}

/// Index of the first journal record the carried checkpoint does not
/// cover. A checkpoint claiming more records than the journal holds is
/// corrupt.
fn wal_base(state: &CrashState) -> Result<usize, VfpgaError> {
    let base = state.image.as_ref().map_or(0, |i| i.wal_len);
    if base > state.wal.len() {
        return Err(VfpgaError::CheckpointCorrupt {
            reason: format!(
                "image covers {base} journal records, the journal holds {}",
                state.wal.len()
            ),
        });
    }
    Ok(base)
}

impl<M: FpgaManager> DeviceCtx<M> {
    /// Journal a configuration download and mark the columns it rewrote
    /// for the next delta capture.
    fn log_download(&mut self, rec: WalRecord) {
        for dirty in self
            .dirty_cols
            .iter_mut()
            .skip(rec.col0 as usize)
            .take(rec.width as usize)
        {
            *dirty = true;
        }
        self.wal.push(rec);
    }
}

/// The simulator.
pub struct System<M: FpgaManager, S: Scheduler> {
    lib: Arc<CircuitLib>,
    dev: DeviceCtx<M>,
    sched: S,
    config: SystemConfig,
    /// The immutable task descriptions, by task id.
    specs: Vec<TaskSpec>,
    /// Everything mutable about each task, by task id.
    slots: Vec<TaskSlot>,
    queue: EventQueue<Ev>,
    running: Option<Running>,
    trace: Trace,
    /// Whether observability (trace + registry + timelines + manager event
    /// recording) is on. Off by default: the hot path then skips all of it.
    obs_on: bool,
    reg: Metrics,
    timelines: TimelineSet,
    recovery: RecoveryPolicy,
    fault: FaultStats,
    /// Tasks neither Done nor Failed; fault events stop rescheduling at 0.
    unfinished: usize,
    /// Checkpoint cadence + journal switch; `None` = no checkpointing.
    ckpt: Option<CheckpointConfig>,
    /// Monotone checkpoint number.
    ckpt_seq: u64,
    /// Delta captures since the last full image (delta checkpointing).
    ckpt_chain: u32,
    /// Fabric was rewritten outside the WAL (scrub repair, crash restore,
    /// failover) — the next capture must be a full image.
    ckpt_dirty_all: bool,
    /// Most recent captured image (the durable restore point).
    last_ckpt: Option<Capture>,
    /// Checkpoint/crash accounting (carried across restarts).
    crash: CrashStats,
    /// Admission-control runtime (quotas, watchdogs, degradation);
    /// `None` leaves every legacy code path byte-identical.
    admission: Option<AdmissionRt>,
    /// Simulated-time latency histograms per operation class; `None`
    /// unless [`with_latency_profile`](Self::with_latency_profile) ran.
    lat: Option<HistSet>,
    /// Shown the manager and the event queue's counters as the run left
    /// them, just before the report is built (see
    /// [`with_run_probe`](Self::with_run_probe)).
    run_probe: Option<RunProbe<M>>,
}

type RunProbe<M> = Box<dyn FnOnce(&M, QueueStats) + Send>;

impl<M: FpgaManager, S: Scheduler> System<M, S> {
    /// Build a system over a task set.
    pub fn new(
        lib: Arc<CircuitLib>,
        manager: M,
        sched: S,
        config: SystemConfig,
        specs: Vec<TaskSpec>,
    ) -> Self {
        // One pending arrival per task, in the queue's run lane when the
        // specs are arrival-sorted (every generator's are). What the run
        // schedules on top is in flight a handful at a time — one segment
        // timer, a dispatch, a checkpoint, a watchdog — and has its own
        // small reservation.
        let mut queue = EventQueue::with_capacity(specs.len());
        for (i, spec) in specs.iter().enumerate() {
            queue.schedule_at(spec.arrival, Ev::Arrive(TaskId(i as u32)));
        }
        let slots: Vec<TaskSlot> = specs.iter().map(TaskSlot::new).collect();
        let cols = manager.timing().spec.cols as usize;
        System {
            lib,
            dev: DeviceCtx {
                id: crate::fleet::DeviceId(0),
                manager,
                injector: None,
                latent: BTreeMap::new(),
                stale: BTreeSet::new(),
                wal: Vec::new(),
                dirty_cols: vec![false; cols],
            },
            sched,
            config,
            unfinished: slots.len(),
            specs,
            slots,
            queue,
            running: None,
            trace: Trace::disabled(),
            obs_on: false,
            reg: Metrics::new(),
            timelines: TimelineSet::new(),
            recovery: RecoveryPolicy::default(),
            fault: FaultStats::default(),
            ckpt: None,
            ckpt_seq: 0,
            ckpt_chain: 0,
            ckpt_dirty_all: false,
            last_ckpt: None,
            crash: CrashStats::default(),
            admission: None,
            lat: None,
            run_probe: None,
        }
    }

    /// Tag the system with the physical device it runs on. Purely
    /// diagnostic outside a fleet (defaults to device 0): it flows into
    /// fleet-facing errors and trace events so multi-device failures are
    /// attributable from the error alone.
    pub fn with_device_id(mut self, id: crate::fleet::DeviceId) -> Self {
        self.dev.id = id;
        self
    }

    /// The physical device this system runs on (0 outside a fleet).
    pub fn device_id(&self) -> crate::fleet::DeviceId {
        self.dev.id
    }

    /// Attach a deterministic fault injector and the recovery policy that
    /// answers it. A zero-rate plan with the default policy is exactly
    /// equivalent to no injector at all (bit-identical reports).
    pub fn with_faults(mut self, plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        let cols = self.dev.manager.timing().spec.cols;
        self.dev.injector = Some(FaultInjector::new(plan, cols));
        self.recovery = policy;
        self
    }

    /// Enable observability: typed event tracing (task state changes,
    /// downloads, preemptions, GC), the metrics registry, and utilization
    /// timelines. Off by default; experiments leave it off for speed.
    /// Observability never changes simulated results — only records them.
    pub fn with_trace(mut self) -> Self {
        self.trace = Trace::enabled();
        self.obs_on = true;
        self.dev.manager.set_recording(true);
        self
    }

    /// Like [`with_trace`](Self::with_trace), but the trace keeps only the
    /// most recent `capacity` events (a ring buffer; older events are
    /// counted in [`Trace::dropped`] and discarded). Metrics and timelines
    /// are unaffected by the cap.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace = Trace::enabled_with_capacity(capacity);
        self.obs_on = true;
        self.dev.manager.set_recording(true);
        self
    }

    /// Enable simulated-time latency profiling: every typed event that
    /// carries a duration (downloads, GC, scrubbing, checkpoint capture,
    /// journal replay, …) feeds a log-bucketed histogram, and per-tenant
    /// `turnaround@t<n>` / `waiting@t<n>` series are recorded at the end
    /// of the run. The collected [`HistSet`] lands in
    /// [`Report::latency`]. Latency samples ride the same typed-event
    /// flow the trace consumes, so this turns the observability path on;
    /// a small trace ring keeps memory bounded when the caller only
    /// wants histograms. Like all observability, this never changes
    /// simulated results — only records them.
    pub fn with_latency_profile(mut self) -> Self {
        if !self.trace.is_enabled() {
            self.trace = Trace::enabled_with_capacity(256);
        }
        self.obs_on = true;
        self.dev.manager.set_recording(true);
        self.lat = Some(HistSet::new());
        self
    }

    /// Look at the manager and the event queue's traffic counters once
    /// the run is over. A run consumes the system, so this is the only
    /// window onto a manager's own diagnostic accessors
    /// (`PartitionManager::route_stats`, `fragmentation`, …) and onto
    /// [`EventQueue::stats`] — numbers that deliberately stay out of
    /// [`Report`] and the exports. `probe` runs when the report is built;
    /// a segment cut short by a crash never calls it.
    pub fn with_run_probe(mut self, probe: impl FnOnce(&M, QueueStats) + Send + 'static) -> Self {
        self.run_probe = Some(Box::new(probe));
        self
    }

    /// Enable periodic whole-system checkpoints. Fails with
    /// [`VfpgaError::CheckpointUnsupported`] when the manager or the
    /// scheduler cannot snapshot its state — refusing up front beats
    /// silently losing state at the first crash.
    pub fn with_checkpoints(mut self, cfg: CheckpointConfig) -> Result<Self, VfpgaError> {
        assert!(
            cfg.interval > SimDuration::ZERO,
            "zero checkpoint interval would livelock the event loop"
        );
        if self.dev.manager.snapshot().is_none() {
            return Err(VfpgaError::CheckpointUnsupported {
                component: self.dev.manager.name(),
            });
        }
        if self.sched.snapshot().is_none() {
            return Err(VfpgaError::CheckpointUnsupported {
                component: self.sched.name(),
            });
        }
        self.queue
            .schedule_at(SimTime::ZERO + cfg.interval, Ev::Checkpoint);
        self.ckpt = Some(cfg);
        Ok(self)
    }

    /// Attach per-tenant admission control, watchdog hang detection and,
    /// optionally, software-emulation degradation under area saturation.
    /// Fails with [`VfpgaError::BadAdmissionPolicy`] on out-of-range
    /// parameters. A system built without this call behaves
    /// byte-identically to one predating the admission subsystem.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Result<Self, VfpgaError> {
        policy.validate()?;
        self.admission = Some(AdmissionRt::new(policy, self.slots.len()));
        Ok(self)
    }

    /// Run to completion, returning the report *and* the recorded trace.
    /// Fails with [`VfpgaError::TraceDisabled`] when
    /// [`with_trace`](Self::with_trace) was not called first, or
    /// [`VfpgaError::Deadlock`] when a task ends neither completed nor
    /// failed.
    pub fn run_traced(self) -> Result<(Report, Trace), VfpgaError> {
        if !self.trace.is_enabled() {
            return Err(VfpgaError::TraceDisabled);
        }
        self.run_inner()
    }

    /// Run to completion and report. Fails with [`VfpgaError::Deadlock`]
    /// when the manager/scheduler combination strands a task.
    pub fn run(self) -> Result<Report, VfpgaError> {
        self.run_inner().map(|(r, _)| r)
    }

    /// Run until completion *or* a host crash at `crash_at`. A crash that
    /// lands after the last task finishes is ignored (the run completed
    /// first). Used by [`crate::checkpoint::run_with_crashes`]; plain runs
    /// go through [`run`](Self::run).
    pub fn run_until(mut self, crash_at: Option<SimTime>) -> Result<RunOutcome, VfpgaError> {
        if let Some(t) = crash_at {
            self.queue.schedule_at(t, Ev::Crash);
        }
        self.run_core()
    }

    fn run_inner(self) -> Result<(Report, Trace), VfpgaError> {
        match self.run_core()? {
            RunOutcome::Completed(report, trace) => Ok((*report, trace)),
            RunOutcome::Crashed(_) => unreachable!("run_inner never schedules Ev::Crash"),
        }
    }

    /// Record one typed event: bump the matching registry counters, then
    /// append it to the trace.
    fn record(&mut self, at: SimTime, event: TraceEvent) {
        match &event {
            TraceEvent::TaskState { state, .. } => {
                self.reg.inc(state.counter_name(), 1);
            }
            TraceEvent::SchedulerDispatch { .. } => self.reg.inc("dispatches", 1),
            TraceEvent::ConfigDownload { frames, bytes, .. } => {
                self.reg.inc("config_downloads", 1);
                self.reg.inc("config_frames", u64::from(*frames));
                self.reg.inc("config_bytes", *bytes);
            }
            TraceEvent::DeltaDownload { frames, .. } => {
                self.reg.inc("delta_downloads", 1);
                self.reg.inc("delta_frames", u64::from(*frames));
            }
            TraceEvent::DeltaInvalidate { .. } => self.reg.inc("delta_invalidations", 1),
            TraceEvent::DeltaCheckpoint { .. } => self.reg.inc("delta_checkpoints", 1),
            TraceEvent::Preemption { .. } => self.reg.inc("preemptions", 1),
            TraceEvent::GcRun { relocations, .. } => {
                self.reg.inc("gc_runs", 1);
                self.reg.inc("gc_relocations", u64::from(*relocations));
            }
            TraceEvent::PageFault { .. } => self.reg.inc("page_faults", 1),
            TraceEvent::OverlaySwap { .. } => self.reg.inc("overlay_swaps", 1),
            TraceEvent::IoMuxGrant { .. } => self.reg.inc("iomux_grants", 1),
            TraceEvent::FaultInjected { .. } => self.reg.inc("faults_injected", 1),
            TraceEvent::CrcMismatch { .. } => self.reg.inc("crc_mismatches", 1),
            TraceEvent::ScrubPass { .. } => self.reg.inc("scrub_passes", 1),
            TraceEvent::RetryScheduled { .. } => self.reg.inc("retries_scheduled", 1),
            TraceEvent::TaskFailed { .. } => self.reg.inc("tasks_failed", 1),
            TraceEvent::ColumnRetired { .. } => self.reg.inc("columns_retired", 1),
            TraceEvent::Recovered { .. } => self.reg.inc("recoveries", 1),
            TraceEvent::CheckpointTaken { .. } => self.reg.inc("checkpoints", 1),
            TraceEvent::Crash { .. } => self.reg.inc("crashes", 1),
            TraceEvent::JournalReplay { .. } => self.reg.inc("journal_replays", 1),
            TraceEvent::WatchdogArmed { .. } => self.reg.inc("watchdogs_armed", 1),
            TraceEvent::WatchdogFired { .. } => self.reg.inc("watchdogs_fired", 1),
            TraceEvent::TaskRejected { .. } => self.reg.inc("tasks_rejected", 1),
            TraceEvent::TaskQuarantined { .. } => self.reg.inc("tasks_quarantined", 1),
            TraceEvent::DegradedDispatch { .. } => self.reg.inc("degraded_dispatches", 1),
            TraceEvent::TaskUnschedulable { .. } => self.reg.inc("tasks_unschedulable", 1),
            TraceEvent::DegradeModeEnter { .. } => self.reg.inc("degrade_mode_enters", 1),
            TraceEvent::DegradeModeExit { .. } => self.reg.inc("degrade_mode_exits", 1),
            TraceEvent::DeviceCrash { .. } => self.reg.inc("device_crashes", 1),
            TraceEvent::DeviceRejoin { .. } => self.reg.inc("device_rejoins", 1),
            TraceEvent::Failover { .. } => self.reg.inc("failovers", 1),
            TraceEvent::SoftwareFailover { .. } => self.reg.inc("software_failovers", 1),
            TraceEvent::FleetRebalance { .. } => self.reg.inc("rebalances", 1),
            TraceEvent::FleetLost { tasks, .. } => {
                self.reg.inc("lost_in_flight", u64::from(*tasks))
            }
            TraceEvent::MigrationPrepare { .. } => self.reg.inc("migrations_prepared", 1),
            TraceEvent::MigrationCommit { .. } => self.reg.inc("migrations_committed", 1),
            TraceEvent::MigrationAbort { .. } => self.reg.inc("migrations_aborted", 1),
            TraceEvent::MigrationFreed { claims, .. } => {
                self.reg.inc("migration_claims_freed", u64::from(*claims))
            }
            TraceEvent::Custom { .. } => self.reg.inc("custom_events", 1),
        }
        if let Some(lat) = self.lat.as_mut() {
            match &event {
                TraceEvent::ConfigDownload { duration, full, .. } => {
                    let name = if *full {
                        "download_full"
                    } else {
                        "download_partial"
                    };
                    lat.record(name, duration.as_nanos());
                }
                TraceEvent::DeltaDownload { duration, .. } => {
                    lat.record("download_delta", duration.as_nanos());
                }
                TraceEvent::DeltaCheckpoint { duration, .. } => {
                    lat.record("checkpoint_delta", duration.as_nanos());
                }
                TraceEvent::Preemption { saved, .. } if *saved > SimDuration::ZERO => {
                    lat.record("preempt_save", saved.as_nanos());
                }
                TraceEvent::GcRun { duration, .. } => lat.record("gc_run", duration.as_nanos()),
                TraceEvent::PageFault { duration, .. } => {
                    lat.record("page_fault", duration.as_nanos());
                }
                TraceEvent::OverlaySwap { duration, .. } => {
                    lat.record("overlay_swap", duration.as_nanos());
                }
                TraceEvent::ScrubPass { duration, .. } => {
                    lat.record("scrub_pass", duration.as_nanos());
                }
                TraceEvent::ColumnRetired { duration, .. } => {
                    lat.record("column_retire", duration.as_nanos());
                }
                TraceEvent::Recovered { duration, .. } => {
                    lat.record("recovery", duration.as_nanos());
                }
                TraceEvent::CheckpointTaken { duration, .. } => {
                    lat.record("checkpoint_capture", duration.as_nanos());
                }
                TraceEvent::JournalReplay { duration, .. } => {
                    lat.record("journal_replay", duration.as_nanos());
                }
                TraceEvent::DegradedDispatch { duration, .. } => {
                    lat.record("degraded_run", duration.as_nanos());
                }
                _ => {}
            }
        }
        self.trace.record(at, event);
    }

    /// Pull buffered typed events out of the manager, stamping them with
    /// the current simulated time, and sample the utilization timelines.
    fn observe(&mut self, now: SimTime) {
        if !self.obs_on {
            return;
        }
        for ev in self.dev.manager.drain_events() {
            self.record(now, ev);
        }
        let u = self.dev.manager.usage();
        self.timelines.sample("clb_used", now, u.used_clbs as f64);
        self.timelines
            .sample("free_fragments", now, f64::from(u.free_fragments));
        self.timelines
            .sample("ready_queue_depth", now, self.sched.len() as f64);
    }

    fn run_core(mut self) -> Result<RunOutcome, VfpgaError> {
        // Seed the fault timeline. A zero-rate plan schedules nothing, so
        // attaching it cannot perturb a fault-free run.
        if self.unfinished > 0 {
            if let Some(inj) = self.dev.injector.as_mut() {
                if let Some(d) = inj.next_seu() {
                    self.queue.schedule_at(SimTime::ZERO + d, Ev::Seu);
                }
                if let Some(d) = inj.next_column_failure() {
                    self.queue
                        .schedule_at(SimTime::ZERO + d, Ev::ColumnFail(None));
                }
                if let Some(iv) = self.recovery.scrub_interval {
                    self.queue.schedule_at(SimTime::ZERO + iv, Ev::Scrub);
                }
            }
        }
        // The span guards below are free when no profiling harness has
        // recording enabled on this thread (one thread-local check each);
        // under `fsim::span::scoped` they produce the `system;…` tree.
        let _loop_span = span::guard("system");
        while let Some(ev) = self.queue.pop() {
            let now = ev.at;
            match ev.event {
                Ev::Arrive(tid) => span::time("arrive", || self.on_arrive(tid, now)),
                Ev::Dispatch => span::time("dispatch", || self.dispatch(now)),
                Ev::Timer(tid) => span::time("timer", || self.on_timer(tid, now)),
                Ev::Seu => span::time("seu", || self.on_seu(now)),
                Ev::Scrub => span::time("scrub", || self.on_scrub(now)),
                Ev::ColumnFail(pending) => {
                    span::time("column_fail", || self.on_column_fail(pending, now))
                }
                Ev::RetryDone(tid) => span::time("retry_done", || self.on_retry_done(tid, now)),
                Ev::Retry(tid) => {
                    // Backoff elapsed; the task may probe the manager
                    // again (a manager wake may already have freed it).
                    let ti = tid.0 as usize;
                    if self.slots[ti].state == TaskState::Blocked {
                        self.slots[ti].state = TaskState::Ready;
                        self.sched.on_ready(tid, self.specs[ti].priority, now);
                        self.dispatch(now);
                    }
                }
                Ev::Checkpoint => span::time("checkpoint", || self.on_checkpoint(now)),
                Ev::Crash => {
                    // A crash after the last task finished changes nothing
                    // observable: the run completed first.
                    if self.unfinished > 0 {
                        let state = span::time("crash", || self.crash_now(now));
                        return Ok(RunOutcome::Crashed(Box::new(state)));
                    }
                }
                Ev::Watchdog { tid, seq } => {
                    let _s = span::guard("watchdog");
                    if !self.on_watchdog(tid, seq, now) {
                        // Stale: the segment ended on time. Skip even the
                        // observation sample so that runs with no hangs stay
                        // byte-identical to runs without watchdogs.
                        continue;
                    }
                }
            }
            self.observe(now);
        }
        // Every task must have left the system — completed or explicitly
        // failed by recovery; anything else is a deadlock.
        for (slot, spec) in self.slots.iter().zip(&self.specs) {
            if !slot.state.is_terminal() {
                return Err(VfpgaError::Deadlock {
                    task: spec.name.clone(),
                });
            }
        }
        let (report, trace) = self.into_report();
        Ok(RunOutcome::Completed(Box::new(report), trace))
    }

    /// Build the final report from whatever terminal state the task table
    /// is in. Shared by the normal completion path and
    /// [`abandon_lost`](Self::abandon_lost).
    fn into_report(mut self) -> (Report, Trace) {
        if let Some(probe) = self.run_probe.take() {
            probe(&self.dev.manager, self.queue.stats());
        }
        // The rows take the names out of the specs; nothing below reads them.
        let tasks: Vec<TaskMetrics> = self
            .slots
            .iter()
            .zip(&mut self.specs)
            .map(|(slot, spec)| slot.metrics(std::mem::take(&mut spec.name)))
            .collect();
        let makespan = tasks
            .iter()
            .map(|m| m.completion)
            .max()
            .unwrap_or(SimTime::ZERO)
            - SimTime::ZERO;
        if self.obs_on {
            self.reg.set_gauge("makespan_s", makespan.as_secs_f64());
            for m in &tasks {
                self.reg
                    .observe("turnaround_s", m.turnaround().as_secs_f64());
                self.reg.observe("waiting_s", m.waiting().as_secs_f64());
            }
        }
        if let Some(lat) = self.lat.as_mut() {
            // Per-tenant tails: `@t<n>` labels keep one series per tenant
            // so E17-style sweeps expose p99 turnaround, not just means.
            for (m, spec) in tasks.iter().zip(&self.specs) {
                let tenant = spec.tenant;
                lat.record(&format!("turnaround@t{tenant}"), m.turnaround().as_nanos());
                lat.record(&format!("waiting@t{tenant}"), m.waiting().as_nanos());
            }
        }
        (
            Report {
                manager: self.dev.manager.name(),
                scheduler: self.sched.name(),
                tasks,
                makespan,
                manager_stats: self.dev.manager.stats(),
                fault: self.fault,
                crash: self.crash,
                admission: self.admission.as_ref().map(|a| a.st.stats),
                delta: self.dev.manager.delta_stats(),
                metrics: self.reg,
                timelines: self.timelines,
                latency: self.lat,
                fleet: None,
            },
            self.trace,
        )
    }

    /// Abandon the run at `at`: every task that has not reached a terminal
    /// state is marked [`TaskMetrics::lost_in_flight`] — its home device
    /// is gone and no destination could take it — and the report is built
    /// from whatever completed before the loss. Lost tasks keep the
    /// metrics they accumulated up to the restore point; their completion
    /// is stamped with the abandon time (never before arrival), so the
    /// slice is disjoint from `failed`/`quarantined`/`rejected`.
    ///
    /// A lost task is never charged for more than it lived. Dispatch
    /// pre-pays a segment's whole download/state overhead, so the restored
    /// image may hold a charge reaching past `at`; the excess is refunded
    /// from `overhead_time`, the only quantity booked ahead of time (CPU,
    /// FPGA, degraded and lost time are booked when a segment ends).
    pub fn abandon_lost(mut self, at: SimTime) -> Report {
        for slot in &mut self.slots {
            if !slot.state.is_terminal() {
                slot.lost_in_flight = true;
                slot.completion = at.max(slot.arrival);
                let row = slot.metrics(String::new());
                let excess = row.accounted().saturating_sub(row.turnaround());
                slot.overhead_time = slot.overhead_time.saturating_sub(excess);
            }
        }
        self.into_report().0
    }

    /// Capture a periodic checkpoint: copy the full mutable state into a
    /// typed image and charge the readback cost of the resident frames as
    /// background port traffic (like scrubbing — never billed to a task).
    fn on_checkpoint(&mut self, now: SimTime) {
        let Some(cfg) = self.ckpt else { return };
        if self.unfinished == 0 {
            return; // nothing left to protect; stop the cadence
        }
        // Schedule the next capture FIRST so it is part of the pending
        // events this image records — a restored run keeps the cadence.
        self.queue.schedule_at(now + cfg.interval, Ev::Checkpoint);
        let regions = self.dev.manager.resident_regions();
        let frames: u32 = regions.iter().map(|r| r.width).sum();
        // Delta capture: only columns that could have diverged from the
        // previous image need a readback — columns rewritten by downloads
        // the WAL logged since that image, plus every resident sequential
        // circuit (its flip-flop state is always volatile). Anything that
        // rewrites fabric outside the WAL (scrub repair, crash restore,
        // failover) raises `ckpt_dirty_all` and forces a full image, as
        // does the every-`k` chain anchor.
        let delta = match (cfg.delta_full_every, &self.last_ckpt) {
            (Some(k), Some(_)) if !self.ckpt_dirty_all && self.ckpt_chain + 1 < k => {
                let dirty = &self.dev.dirty_cols;
                let mut changed = 0u32;
                for r in &regions {
                    if self.lib.get(r.cid).is_sequential() {
                        // Flip-flop state is always volatile.
                        changed += r.width;
                    } else {
                        changed += (r.col0..r.col0 + r.width)
                            .filter(|&c| dirty.get(c as usize).is_some_and(|&d| d))
                            .count() as u32;
                    }
                }
                Some(changed)
            }
            _ => None,
        };
        self.dev.dirty_cols.fill(false);
        let read = delta.unwrap_or(frames);
        let cost = self.dev.manager.timing().readback_time(read as usize);
        self.ckpt_seq += 1;
        self.crash.checkpoints += 1;
        self.crash.checkpoint_time += cost;
        // The stored image is always the full snapshot — delta capture
        // changes what crosses the readback port (the cost model), never
        // what a restore can rely on.
        let recycled = self.last_ckpt.take().map(|c| c.image);
        let image = span::time("capture", || self.capture(now, recycled));
        match delta {
            Some(changed) => {
                self.ckpt_chain += 1;
                if self.trace.is_enabled() {
                    self.record(
                        now,
                        TraceEvent::DeltaCheckpoint {
                            seq: self.ckpt_seq,
                            frames: changed,
                            full_frames: frames,
                            chain: self.ckpt_chain,
                            duration: cost,
                        },
                    );
                }
            }
            None => {
                self.ckpt_chain = 0;
                self.ckpt_dirty_all = false;
                if self.trace.is_enabled() {
                    self.record(
                        now,
                        TraceEvent::CheckpointTaken {
                            seq: self.ckpt_seq,
                            frames,
                            duration: cost,
                        },
                    );
                }
            }
        }
        self.last_ckpt = Some(Capture {
            seq: self.ckpt_seq,
            wal_len: self.dev.wal.len(),
            image,
        });
    }

    /// Copy the full mutable state into a typed image. `recycled` is an
    /// image nobody needs any more (the previous capture): only its
    /// per-task buffers are kept, and they are refilled in place rather
    /// than allocated again.
    pub(crate) fn capture(&self, now: SimTime, recycled: Option<SystemImage>) -> SystemImage {
        let (mut tasks, mut latent, mut stale, mut pending) = match recycled {
            Some(old) => (old.tasks, old.latent, old.stale, old.pending),
            None => Default::default(),
        };
        tasks.clone_from(&self.slots);
        latent.clone_from(&self.dev.latent);
        stale.clone_from(&self.dev.stale);
        pending.clear();
        pending.extend(
            self.queue
                .pending_in_order()
                .into_iter()
                // The crash is the one event that must NOT survive: the
                // next segment gets its own crash time.
                .filter(|e| e.event != Ev::Crash)
                .map(|e| (e.at, e.event)),
        );
        SystemImage {
            at: now,
            tasks,
            latent,
            stale,
            running: self.running,
            pending,
            fault: self.fault,
            rng: self.dev.injector.as_ref().map(|inj| inj.stream_states()),
            admission: self.admission.as_ref().map(|a| a.st.clone()),
            sched: self.sched.snapshot().expect("validated at enable"),
            manager: self.dev.manager.snapshot().expect("validated at enable"),
        }
    }

    /// Load a captured image into this freshly built system. Fails when
    /// the image does not describe this system: another task count, a
    /// task that arrives at another time than its spec, a task id or op
    /// index out of range, or a fault injector or admission policy on one
    /// side only.
    pub(crate) fn restore(&mut self, img: &SystemImage) -> Result<(), String> {
        let n = self.slots.len();
        if img.tasks.len() != n {
            return Err(format!("image has {} tasks, want {n}", img.tasks.len()));
        }
        for (slot, spec) in img.tasks.iter().zip(&self.specs) {
            // Right count is not yet right set: arrivals never change.
            if slot.arrival != spec.arrival {
                return Err(format!("task '{}' arrives at another time", spec.name));
            }
            if !slot.state.is_terminal() && slot.op_idx >= spec.ops.len() {
                return Err(format!("live task '{}' is past its last op", spec.name));
            }
        }
        let in_range = |t: TaskId| -> Result<(), String> {
            if (t.0 as usize) < n {
                Ok(())
            } else {
                Err(format!("task id {} out of range ({n} tasks)", t.0))
            }
        };
        if let Some(run) = &img.running {
            in_range(run.tid)?;
        }
        for (_, ev) in &img.pending {
            match *ev {
                Ev::Arrive(t) | Ev::Timer(t) | Ev::RetryDone(t) | Ev::Retry(t) => in_range(t)?,
                Ev::Watchdog { tid, .. } => in_range(tid)?,
                _ => {}
            }
        }
        match (img.rng, self.dev.injector.as_mut()) {
            (None, None) => {}
            (Some(states), Some(inj)) => inj.restore_stream_states(states),
            _ => return Err("fault injector presence differs from the image".into()),
        }
        match (&img.admission, self.admission.as_mut()) {
            (None, None) => {}
            (Some(a), Some(adm)) => {
                if a.wd_seq.len() != n || a.wd_trips.len() != n || a.degraded.len() != n {
                    return Err(format!("admission state is not sized for {n} tasks"));
                }
                for &t in a.deferred.values().flatten() {
                    in_range(TaskId(t))?;
                }
                adm.st = a.clone();
            }
            _ => return Err("admission presence differs from the image".into()),
        }
        self.sched
            .restore(&img.sched)
            .map_err(|e| format!("scheduler: {e}"))?;
        self.dev
            .manager
            .restore(&img.manager)
            .map_err(|e| format!("manager: {e}"))?;
        self.slots.clone_from(&img.tasks);
        self.dev.latent.clone_from(&img.latent);
        self.dev.stale.clone_from(&img.stale);
        self.unfinished = self.slots.iter().filter(|s| !s.state.is_terminal()).count();
        self.running = img.running;
        self.fault = img.fault;
        // Pending events last: the fresh queue (clock still at zero)
        // re-learns every in-flight timer at its absolute time.
        self.queue.clear();
        for &(at, ev) in &img.pending {
            self.queue.schedule_at(at, ev);
        }
        Ok(())
    }

    /// Adopt a durable checkpoint as this incarnation's restore point:
    /// parse it back into a typed image, load it, and remember it as the
    /// last capture, covering `wal_len` records of this device's journal.
    fn adopt_image(&mut self, image: &CheckpointImage, wal_len: usize) -> Result<(), VfpgaError> {
        let corrupt = |reason| VfpgaError::CheckpointCorrupt { reason };
        let capture = Capture::from_durable(image, wal_len).map_err(corrupt)?;
        self.restore(&capture.image).map_err(corrupt)?;
        self.ckpt_seq = capture.seq;
        self.last_ckpt = Some(capture);
        Ok(())
    }

    /// The host dies at `now`: bundle up everything that survives on
    /// durable storage (last checkpoint + journal + accounting).
    fn crash_now(&mut self, now: SimTime) -> CrashState {
        self.crash.crashes += 1;
        let base = self.last_ckpt.as_ref().map(|i| i.wal_len).unwrap_or(0);
        let at_risk = (self.dev.wal.len() - base) as u32;
        // Only post-checkpoint records can tear: anything older has its
        // table effects inside the image already.
        let torn = self.dev.wal[base..]
            .iter()
            .filter(|r| r.in_flight_at(now))
            .count() as u64;
        self.crash.torn_downloads += torn;
        if self.trace.is_enabled() {
            self.record(
                now,
                TraceEvent::Crash {
                    downloads_at_risk: at_risk,
                    torn: torn > 0,
                },
            );
        }
        CrashState {
            at: now,
            image: self.last_ckpt.as_ref().map(Capture::to_durable),
            wal: std::mem::take(&mut self.dev.wal),
            stats: self.crash,
        }
    }

    /// Restore a freshly built system from what survived a crash: apply
    /// the checkpoint image (if one was ever captured), then reconcile the
    /// restored residency tables against the write-ahead log. With the
    /// journal on, post-checkpoint downloads invalidate overlapping
    /// claims (clean re-downloads later); with it off, those claims stay
    /// and are marked stale — the next "hit" computes garbage.
    pub fn restore_from(&mut self, state: &CrashState) -> Result<(), VfpgaError> {
        let _s = span::guard("restore");
        let Some(cfg) = self.ckpt else {
            return Err(VfpgaError::CheckpointCorrupt {
                reason: "restore_from requires with_checkpoints".into(),
            });
        };
        self.crash = state.stats;
        // Whatever the restore leaves on the fabric was not produced by
        // WAL-visible downloads of THIS incarnation: the next checkpoint
        // capture must be a full image.
        self.ckpt_dirty_all = true;
        self.dev.wal = state.wal.clone();
        let base = wal_base(state)?;
        if let Some(image) = &state.image {
            self.adopt_image(image, image.wal_len)?;
        }
        // Cold restart (no image): the fresh construction state IS the
        // restart state — arrivals and the first checkpoint are already
        // scheduled; only the journal below needs attention.
        let crash_at = state.at;
        let post: Vec<WalRecord> = self.dev.wal[base..].to_vec();
        if post.is_empty() {
            return Ok(());
        }
        let timing = *self.dev.manager.timing();
        if cfg.journal {
            // Journal replay: torn records are undone from their
            // pre-images, committed ones redo-verified by readback; both
            // cost port traffic. The restored tables are older than the
            // device, so every claim overlapping a post-checkpoint write
            // is discarded (conservatively including torn regions — an
            // extra re-download is safe, a stale claim is not).
            let mut redone = 0u32;
            let mut undone = 0u32;
            let mut cost = SimDuration::ZERO;
            for r in &post {
                if r.in_flight_at(crash_at) {
                    undone += 1;
                } else {
                    redone += 1;
                }
                cost += timing.readback_time(r.width as usize);
            }
            for claim in self.dev.manager.resident_regions() {
                if post.iter().any(|r| r.overlaps(claim.col0, claim.width))
                    && self.dev.manager.discard_resident(claim.cid)
                {
                    self.crash.stale_discards += 1;
                }
            }
            // Undone records leave the journal (and the device), exactly
            // like fpga::Journal::recover retaining only committed ones.
            self.dev.wal.retain(|r| !r.in_flight_at(crash_at));
            self.crash.records_redone += u64::from(redone);
            self.crash.records_undone += u64::from(undone);
            self.crash.replay_time += cost;
            if self.trace.is_enabled() {
                self.record(
                    crash_at,
                    TraceEvent::JournalReplay {
                        redone,
                        undone,
                        duration: cost,
                    },
                );
            }
        } else {
            // No journal: nothing reconciles the device with the restored
            // tables. A claim whose region's LAST post-checkpoint write
            // was a different circuit (or tore) now points at garbage.
            for claim in self.dev.manager.resident_regions() {
                let clobbered = post
                    .iter()
                    .rev()
                    .find(|r| r.overlaps(claim.col0, claim.width))
                    .is_some_and(|r| r.cid != claim.cid || r.in_flight_at(crash_at));
                if clobbered {
                    self.dev.stale.insert(claim.cid.0);
                }
            }
            // The most direct victim: an FPGA segment that was mid-flight
            // at the checkpoint resumes WITHOUT re-activating, so the
            // dispatch-path staleness check never sees it. If its circuit
            // claim is stale, the resumed computation runs on whatever the
            // post-checkpoint downloads left in those columns.
            if let Some(run) = &self.running {
                if let Some(f) = &run.fpga {
                    if self.dev.stale.contains(&f.cid.0) {
                        let ti = run.tid.0 as usize;
                        self.slots[ti].corrupted = true;
                        self.crash.silent_corruptions += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Adopt the image of a shard cut at `state.at` onto fresh fabric: the
    /// shared first half of [`fail_over_from`](Self::fail_over_from) and
    /// [`migrate_in`](Self::migrate_in). The journal restarts empty (its
    /// records describe downloads to fabric that no longer exists; the
    /// torn ones are counted undone), every restored residency claim is
    /// discarded, and the dead fabric's latent upsets and stale markers go
    /// with it. Returns the torn-record count, the work window to
    /// re-execute (cut time minus the image's capture time — the whole run
    /// so far on a cold start), that capture time, and the discarded claims.
    fn adopt_onto_fresh_fabric(
        &mut self,
        state: &CrashState,
    ) -> Result<(u32, SimDuration, SimTime, Vec<ResidentRegion>), VfpgaError> {
        self.crash = state.stats;
        // Fresh fabric on the destination device: full capture next.
        self.ckpt_dirty_all = true;
        let base = wal_base(state)?;
        let mut resume_at = SimTime::ZERO;
        if let Some(image) = &state.image {
            self.adopt_image(image, 0)?;
            resume_at = image.at;
        }
        let torn = state.wal[base..]
            .iter()
            .filter(|r| r.in_flight_at(state.at))
            .count() as u32;
        self.crash.records_undone += u64::from(torn);
        self.dev.wal.clear();
        let mut discarded = self.dev.manager.resident_regions();
        discarded.retain(|claim| self.dev.manager.discard_resident(claim.cid));
        self.dev.latent.clear();
        self.dev.stale.clear();
        Ok((torn, state.at - resume_at, resume_at, discarded))
    }

    /// Adopt a shard that died with its device: restore this freshly
    /// built system — running on a *different* (or wiped-and-rejoined)
    /// device — from the crashed shard's durable state. Unlike
    /// [`restore_from`](Self::restore_from), which reconciles surviving
    /// device contents against the journal, here the source fabric is
    /// gone: torn records are dropped, committed post-checkpoint records
    /// have nothing left on the destination to redo-verify, and every
    /// restored residency claim is discarded. Each discarded claim is one
    /// migration, priced honestly: the source-side half was already paid
    /// as the checkpoint readback, and the destination pays the download
    /// at the circuit's next activation. A mid-flight FPGA segment
    /// restored from the image re-executes its post-checkpoint work on
    /// the destination, exactly like the journal-on restore path.
    pub fn fail_over_from(&mut self, state: &CrashState) -> Result<FailoverReceipt, VfpgaError> {
        let _s = span::guard("failover");
        if self.ckpt.is_none() {
            return Err(VfpgaError::CheckpointCorrupt {
                reason: "fail_over_from requires with_checkpoints".into(),
            });
        }
        let (torn, redo_window, _, discarded) = self.adopt_onto_fresh_fabric(state)?;
        Ok(FailoverReceipt {
            migrated_claims: discarded.len() as u32,
            torn_undone: torn,
            redo_window,
            live_tasks: self.unfinished as u32,
        })
    }

    /// Non-terminal tasks of `tenant` still inside this system.
    pub fn live_tasks_of(&self, tenant: u32) -> u32 {
        self.slots
            .iter()
            .zip(&self.specs)
            .filter(|(slot, spec)| spec.tenant == tenant && !slot.state.is_terminal())
            .count() as u32
    }

    /// Retire every non-terminal task matching `pred` as
    /// [`TaskState::Migrated`]: it leaves this system (the other side of
    /// the migration split reports its real outcome), frees its device
    /// claims, and stops being scheduled. Pending events targeting a
    /// retired task are pruned; scheduler entries go stale and are
    /// skipped by dispatch. Returns how many tasks were retired.
    fn retire_tasks_where(
        &mut self,
        stamp_at: SimTime,
        resume_at: SimTime,
        pred: impl Fn(&TaskSpec) -> bool,
    ) -> u32 {
        let mut gone = vec![false; self.slots.len()];
        let mut moved: Vec<TaskId> = Vec::new();
        for (ti, (slot, spec)) in self.slots.iter_mut().zip(&self.specs).enumerate() {
            if slot.state.is_terminal() || !pred(spec) {
                continue;
            }
            // A task that has not even arrived yet "migrates" at its
            // arrival — stamping earlier would record a negative lifetime.
            slot.state = TaskState::Migrated;
            slot.completion = stamp_at.max(spec.arrival);
            slot.poisoned = None;
            self.unfinished -= 1;
            gone[ti] = true;
            moved.push(TaskId(ti as u32));
        }
        if moved.is_empty() {
            return 0;
        }
        if let Some(run) = &self.running {
            if gone[run.tid.0 as usize] {
                self.running = None;
            }
        }
        let pending = self.queue.pending_in_order();
        self.queue.clear();
        for ev in pending {
            let drop = match &ev.event {
                Ev::Arrive(t) | Ev::Timer(t) | Ev::RetryDone(t) | Ev::Retry(t) => {
                    gone[t.0 as usize]
                }
                Ev::Watchdog { tid, .. } => gone[tid.0 as usize],
                _ => false,
            };
            if !drop {
                self.queue.schedule_at(ev.at, ev.event);
            }
        }
        for &tid in &moved {
            let wake = self.dev.manager.task_exit(tid);
            self.wake(wake, resume_at);
        }
        moved.len() as u32
    }

    /// Source half of a migration split: retire `tenant`'s tasks as
    /// migrated (stamped at `cut_at`, the migration instant), drop the
    /// tenant's admission state (its deferred backlog travels inside the
    /// checkpoint image the destination restores), and — unless the free
    /// is deferred to the journal-replay redo path (`free == false`) —
    /// release the tenant's now-unreferenced residency claims.
    pub fn extract_tenant(
        &mut self,
        tenant: u32,
        cut_at: SimTime,
        resume_at: SimTime,
        free: bool,
    ) -> crate::migrate::MigrationManifest {
        let moved = self.retire_tasks_where(cut_at, resume_at, |s| s.tenant == tenant);
        if let Some(adm) = self.admission.as_mut() {
            adm.st.in_flight.remove(&tenant);
            adm.st.deferred.remove(&tenant);
        }
        let freed = if free { self.free_migrated(tenant) } else { 0 };
        self.queue.schedule_at(resume_at, Ev::Dispatch);
        crate::migrate::MigrationManifest {
            moved_tasks: moved,
            freed_claims: freed,
        }
    }

    /// Release residency claims only the migrated tenant still needs:
    /// circuits used by `tenant`'s tasks and by no other tenant left in
    /// this system. Shared circuits stay resident for the remaining
    /// tenants. Idempotent — the journal-replay redo path may call it
    /// again after a crash between commit and free, and the second call
    /// finds nothing to discard.
    pub fn free_migrated(&mut self, tenant: u32) -> u32 {
        let mut exclusive: BTreeSet<u32> = BTreeSet::new();
        for spec in &self.specs {
            if spec.tenant == tenant {
                for cid in spec.circuits_used() {
                    exclusive.insert(cid.0);
                }
            }
        }
        for spec in &self.specs {
            if spec.tenant != tenant {
                for cid in spec.circuits_used() {
                    exclusive.remove(&cid.0);
                }
            }
        }
        let mut freed = 0u32;
        for claim in self.dev.manager.resident_regions() {
            if exclusive.contains(&claim.cid.0) && self.dev.manager.discard_resident(claim.cid) {
                freed += 1;
            }
        }
        freed
    }

    /// Destination half of a migration split: adopt `tenant` from the
    /// source shard's cut state. Restores the *whole* shard image (same
    /// task indexing as the source, so the snapshot applies unchanged),
    /// then retires every other tenant's tasks as migrated — they keep
    /// running on the source remainder. The tenant's resident images are
    /// staged-copied during prepare: with `delta` on, each lands as a
    /// ghost the next activation revalidates header-only (the staged
    /// frames are priced into `replay_time`, like journal replay —
    /// background, never task-charged); with `delta` off the tenant pays
    /// a full re-download at next activation, exactly like a failover.
    pub fn migrate_in(
        &mut self,
        state: &CrashState,
        tenant: u32,
        delta: bool,
    ) -> Result<crate::migrate::MigrateInReceipt, VfpgaError> {
        let _s = span::guard("migrate_in");
        if self.ckpt.is_none() {
            return Err(VfpgaError::CheckpointCorrupt {
                reason: "migrate_in requires with_checkpoints".into(),
            });
        }
        let (torn, redo_window, resume_at, discarded) = self.adopt_onto_fresh_fabric(state)?;
        // The tenant's own claims are what the staged copy re-creates
        // here — remember their geometry for the implant.
        let tenant_circuits: BTreeSet<u32> = self
            .specs
            .iter()
            .filter(|spec| spec.tenant == tenant)
            .flat_map(|spec| spec.circuits_used().into_iter().map(|c| c.0))
            .collect();
        let staged: Vec<ResidentRegion> = discarded
            .into_iter()
            .filter(|claim| tenant_circuits.contains(&claim.cid.0))
            .collect();
        let migrated = staged.len() as u32;
        // Everyone but the migrating tenant continues on the source.
        self.retire_tasks_where(resume_at, resume_at, |s| s.tenant != tenant);
        if let Some(adm) = self.admission.as_mut() {
            adm.st.in_flight.retain(|k, _| *k == tenant);
            adm.st.deferred.retain(|k, _| *k == tenant);
        }
        self.queue.schedule_at(resume_at, Ev::Dispatch);
        // Counters restored from the image are the source's cumulative
        // totals; the fleet subtracts this baseline from the final report
        // so migrated work is counted exactly once. Captured before the
        // staged copy below, so its cost shows in the increment.
        let baseline = crate::migrate::CounterBaseline {
            manager: self.dev.manager.stats(),
            fault: self.fault,
            crash: self.crash,
            admission: self.admission.as_ref().map(|a| a.st.stats),
            delta: self.dev.manager.delta_stats(),
        };
        let mut ghosts = 0u32;
        if delta {
            let timing = *self.dev.manager.timing();
            let mut copy_cost = SimDuration::ZERO;
            for claim in staged {
                if self
                    .dev
                    .manager
                    .implant_ghost(claim.col0, claim.width, claim.cid)
                {
                    ghosts += 1;
                    copy_cost += crate::manager::redownload_cost(&timing, claim.width as usize);
                }
            }
            self.crash.replay_time += copy_cost;
        }
        Ok(crate::migrate::MigrateInReceipt {
            adopted_tasks: self.unfinished as u32,
            migrated_claims: migrated,
            ghosts_implanted: ghosts,
            torn_undone: torn,
            redo_window,
            baseline,
        })
    }

    fn wake(&mut self, wake: Vec<TaskId>, now: SimTime) {
        for w in wake {
            let wi = w.0 as usize;
            if self.slots[wi].state == TaskState::Blocked {
                self.slots[wi].state = TaskState::Ready;
                self.sched.on_ready(w, self.specs[wi].priority, now);
            }
        }
    }

    /// Declare a task failed (graceful degradation, not a crash): it
    /// leaves the system, frees its resources, and the rest keeps running.
    fn fail_task(&mut self, tid: TaskId, now: SimTime, reason: &'static str) {
        let ti = tid.0 as usize;
        debug_assert!(!self.slots[ti].state.is_terminal());
        self.slots[ti].state = TaskState::Failed;
        self.slots[ti].completion = now;
        self.slots[ti].failed = true;
        self.fault.tasks_failed += 1;
        self.unfinished -= 1;
        self.slots[ti].poisoned = None;
        if self.trace.is_enabled() {
            self.record(
                now,
                TraceEvent::TaskFailed {
                    task: tid.0,
                    reason,
                },
            );
        }
        let wake = self.dev.manager.task_exit(tid);
        self.wake(wake, now);
        self.admission_on_terminal(tid, now);
    }

    /// A task arrives: with admission control on, the tenant's quota and
    /// queue cap decide between admitting now, parking in the per-tenant
    /// FIFO, and load-shedding; without it, the task is always admitted.
    fn on_arrive(&mut self, tid: TaskId, now: SimTime) {
        let ti = tid.0 as usize;
        debug_assert_eq!(self.slots[ti].state, TaskState::Future);
        if self.trace.is_enabled() {
            let info = self.specs[ti].name.clone();
            self.record(
                now,
                TraceEvent::TaskState {
                    task: tid.0,
                    state: fsim::TaskState::Arrive,
                    info,
                },
            );
        }
        enum Decision {
            Admit,
            Defer,
            Reject,
        }
        let tenant = self.specs[ti].tenant;
        // Arrival-time schedulability test, ahead of quota accounting: a
        // provably unmeetable deadline rejects the task before it can
        // consume an in-flight slot or queue entry. The margin-scaled §3
        // estimate (service + pending reconfiguration + the tenant's
        // queued backlog) is optimistic — it ignores contention from other
        // tenants — so anything it already rules out is a guaranteed miss.
        let unsched: Option<(SimDuration, SimDuration)> = match self.admission.as_ref() {
            Some(adm) => match (adm.policy.schedulability, self.specs[ti].deadline) {
                (Some(sc), Some(dl)) => {
                    let mut est = self.service_estimate(ti);
                    if let Some(q) = adm.st.deferred.get(&tenant) {
                        for &t in q {
                            est += self.service_estimate(t as usize);
                        }
                    }
                    let est =
                        SimDuration::from_nanos((sc.margin * est.as_nanos() as f64).round() as u64);
                    (now + est > self.specs[ti].arrival + dl).then_some((est, dl))
                }
                _ => None,
            },
            None => None,
        };
        if let Some((est, dl)) = unsched {
            let adm = self.admission.as_mut().expect("checked above");
            adm.st.stats.unschedulable += 1;
            self.slots[ti].state = TaskState::Rejected;
            self.slots[ti].completion = now;
            self.slots[ti].unschedulable = true;
            self.unfinished -= 1;
            if self.trace.is_enabled() {
                self.record(
                    now,
                    TraceEvent::TaskUnschedulable {
                        task: tid.0,
                        tenant,
                        estimate: est,
                        deadline: dl,
                    },
                );
            }
            return;
        }
        let decision = match self.admission.as_mut() {
            None => Decision::Admit,
            Some(adm) => {
                let in_flight = adm.st.in_flight.entry(tenant).or_insert(0);
                if *in_flight < adm.policy.max_in_flight {
                    *in_flight += 1;
                    adm.st.stats.admitted += 1;
                    Decision::Admit
                } else if (adm.st.deferred.get(&tenant).map_or(0, |q| q.len()) as u64)
                    < u64::from(adm.policy.queue_cap)
                {
                    adm.st.deferred.entry(tenant).or_default().push_back(tid.0);
                    adm.st.stats.deferred += 1;
                    Decision::Defer
                } else {
                    adm.st.stats.rejected += 1;
                    Decision::Reject
                }
            }
        };
        match decision {
            Decision::Admit => {
                self.slots[ti].state = TaskState::Ready;
                let prio = self.specs[ti].priority;
                self.sched.on_ready(tid, prio, now);
                self.dispatch(now);
            }
            Decision::Defer => self.slots[ti].state = TaskState::Deferred,
            Decision::Reject => {
                self.slots[ti].state = TaskState::Rejected;
                self.slots[ti].completion = now;
                self.slots[ti].rejected = true;
                self.unfinished -= 1;
                if self.trace.is_enabled() {
                    self.record(
                        now,
                        TraceEvent::TaskRejected {
                            task: tid.0,
                            tenant,
                        },
                    );
                }
            }
        }
    }

    /// Remove a task from scheduling without calling it merely "failed":
    /// it keeps its metrics, frees its device claims, and is reported as
    /// quarantined — the end-of-run deadlock sweep never sees it.
    fn quarantine_task(&mut self, tid: TaskId, now: SimTime, reason: &'static str) {
        let ti = tid.0 as usize;
        debug_assert!(!self.slots[ti].state.is_terminal());
        self.slots[ti].state = TaskState::Quarantined;
        self.slots[ti].completion = now;
        self.slots[ti].quarantined = true;
        if let Some(adm) = self.admission.as_mut() {
            adm.st.stats.quarantined += 1;
        }
        self.unfinished -= 1;
        self.slots[ti].poisoned = None;
        if self.trace.is_enabled() {
            self.record(
                now,
                TraceEvent::TaskQuarantined {
                    task: tid.0,
                    reason,
                },
            );
        }
        let wake = self.dev.manager.task_exit(tid);
        self.wake(wake, now);
        self.admission_on_terminal(tid, now);
    }

    /// An admitted task left the system (done, failed, or quarantined):
    /// release its tenant's in-flight slot and admit the longest-waiting
    /// deferred task of that tenant, if any. Callers dispatch afterwards.
    fn admission_on_terminal(&mut self, tid: TaskId, now: SimTime) {
        let ti = tid.0 as usize;
        let tenant = self.specs[ti].tenant;
        let next = match self.admission.as_mut() {
            None => return,
            Some(adm) => {
                let slots = adm.st.in_flight.entry(tenant).or_insert(0);
                *slots = slots.saturating_sub(1);
                if *slots < adm.policy.max_in_flight {
                    match adm.st.deferred.get_mut(&tenant).and_then(|q| q.pop_front()) {
                        Some(t) => {
                            *slots += 1;
                            adm.st.stats.admitted += 1;
                            Some(TaskId(t))
                        }
                        None => None,
                    }
                } else {
                    None
                }
            }
        };
        if let Some(nt) = next {
            let ni = nt.0 as usize;
            debug_assert_eq!(self.slots[ni].state, TaskState::Deferred);
            self.slots[ni].state = TaskState::Ready;
            let prio = self.specs[ni].priority;
            self.sched.on_ready(nt, prio, now);
        }
    }

    /// The §3 a-priori completion estimate the schedulability test holds
    /// against a task's deadline: every CPU burst at face value, every
    /// FPGA run priced from the circuit's synchronous clock, plus a
    /// pending-reconfiguration charge (one column-addressed frame
    /// transfer per frame, the same movement cost a partial download
    /// pays) for each FPGA op whose circuit is not currently resident.
    fn service_estimate(&self, ti: usize) -> SimDuration {
        let timing = self.dev.manager.timing();
        let resident = self.dev.manager.resident_regions();
        let mut est = SimDuration::ZERO;
        for op in &self.specs[ti].ops {
            match op {
                Op::Cpu(d) => est += *d,
                Op::FpgaRun { circuit, cycles } => {
                    let img = self.lib.get(*circuit);
                    est += img.run_time(*cycles);
                    if !resident.iter().any(|r| r.cid == *circuit) {
                        est += timing.readback_time(img.frames());
                    }
                }
            }
        }
        est
    }

    /// Re-evaluate the sticky degraded-mode bit against the hysteresis
    /// marks: enter once utilization reaches the high mark, leave only
    /// below the low mark. With the legacy single watermark the marks
    /// coincide, the bit tracks the plain comparison exactly, and no
    /// transition counters or events are kept — pre-hysteresis runs stay
    /// byte-identical. Called at dispatch, before any degradation
    /// decision, mirroring where the old per-dispatch comparison ran.
    fn update_degrade_mode(&mut self, now: SimTime) {
        let Some(adm) = self.admission.as_ref() else {
            return;
        };
        let Some(dg) = adm.policy.degradation.as_ref() else {
            return;
        };
        let (high, low, explicit) = (dg.high_mark(), dg.low_mark(), dg.has_hysteresis());
        let mode = adm.st.degrade_mode;
        let u = self.dev.manager.usage();
        let used = u.used_clbs as f64;
        let total = u.total_clbs as f64;
        let mark = if mode { low } else { high };
        let next = u.total_clbs != 0 && used >= mark * total;
        if next == mode {
            return;
        }
        let adm = self.admission.as_mut().expect("checked above");
        adm.st.degrade_mode = next;
        if explicit {
            if next {
                adm.st.stats.degrade_enters += 1;
            } else {
                adm.st.stats.degrade_exits += 1;
            }
            if self.trace.is_enabled() {
                let (used, total) = (u.used_clbs, u.total_clbs);
                let ev = if next {
                    TraceEvent::DegradeModeEnter { used, total }
                } else {
                    TraceEvent::DegradeModeExit { used, total }
                };
                self.record(now, ev);
            }
        }
    }

    /// Whether a fresh FPGA op should run on the software path instead of
    /// competing for fabric: degradation configured, this op not the
    /// deliberate hang, a software model priced for the circuit, the
    /// device in sticky degraded mode (see
    /// [`update_degrade_mode`](Self::update_degrade_mode)), and the
    /// circuit not already resident (a resident hit is cheaper on
    /// hardware regardless of pressure). Returns the software cost in ns
    /// per hardware cycle.
    fn degrade_target(&self, circuit: CircuitId, ti: usize) -> Option<u64> {
        let adm = self.admission.as_ref()?;
        let dg = adm.policy.degradation.as_ref()?;
        if self.specs[ti].hang_op == Some(self.slots[ti].op_idx) {
            return None; // the hang models a broken circuit, not a slow one
        }
        let sw_ns = *dg.sw_ns_per_cycle.get(&circuit.0)?;
        if !adm.st.degrade_mode {
            return None;
        }
        if self
            .dev
            .manager
            .resident_regions()
            .iter()
            .any(|r| r.cid == circuit)
        {
            return None;
        }
        Some(sw_ns)
    }

    /// A watchdog deadline fired. Returns false when the event is stale
    /// (its generation no longer matches because the segment ended on
    /// time); the caller then skips the observation sample too, so an
    /// expired-but-harmless watchdog cannot perturb recorded timelines.
    fn on_watchdog(&mut self, tid: TaskId, seq: u64, now: SimTime) -> bool {
        let ti = tid.0 as usize;
        let (trip, max_trips) = {
            let Some(adm) = self.admission.as_mut() else {
                return false;
            };
            if adm.st.wd_seq[ti] != seq {
                return false;
            }
            debug_assert!(
                matches!(&self.running, Some(r) if r.tid == tid),
                "a live watchdog generation implies the task is mid-segment"
            );
            adm.st.wd_seq[ti] += 1; // consumed: nothing else may fire on this segment
            adm.st.wd_trips[ti] += 1;
            adm.st.stats.watchdog_fired += 1;
            let max = adm.policy.watchdog.map(|w| w.max_trips).unwrap_or(0);
            (adm.st.wd_trips[ti], max)
        };
        let run = self.running.take().expect("watchdog fired on an idle CPU");
        debug_assert_eq!(run.tid, tid);
        let f = run.fpga.expect("watchdog armed on a non-FPGA segment");

        // The op made no trustworthy progress: a hung (or wildly
        // misestimated) circuit's state is not worth saving, so the whole
        // op is discarded — prior completed slices included — exactly like
        // a rollback. The CPU was genuinely held for the whole overrun
        // (co-processor model), so the elapsed wall time is charged lost.
        let elapsed = now - run.exec_start;
        let done = self.slots[ti].op_done_so_far;
        let lost = done + elapsed;
        self.slots[ti].fpga_time -= done;
        self.slots[ti].lost_time += lost;
        self.slots[ti].op_remaining = self.slots[ti].op_full;
        self.slots[ti].op_done_so_far = SimDuration::ZERO;
        self.slots[ti].poisoned = None; // discarded along with the progress

        // Reclaim the device through the existing machinery: a preemption
        // where the policy supports one, otherwise a forced completion
        // that releases the slot (the fault-restart path's move).
        let post = if self.config.preempt != PreemptAction::WaitCompletion
            && self.dev.manager.preemptable()
        {
            let pc = self.dev.manager.preempt(tid, f.cid);
            self.slots[ti].overhead_time += pc.overhead;
            pc.overhead
        } else {
            let (ovh, wake) = self.dev.manager.op_done(tid, f.cid);
            self.slots[ti].overhead_time += ovh;
            self.wake(wake, now);
            ovh
        };
        if let Some(adm) = self.admission.as_mut() {
            adm.st.stats.watchdog_lost_time += lost;
            adm.st.stats.watchdog_preempt_time += post;
        }
        if self.trace.is_enabled() {
            self.record(
                now,
                TraceEvent::WatchdogFired {
                    task: tid.0,
                    trip,
                    lost,
                },
            );
        }

        if trip > max_trips {
            self.quarantine_task(tid, now, "watchdog trips exhausted");
        } else {
            self.slots[ti].state = TaskState::Ready;
            let prio = self.specs[ti].priority;
            self.sched.on_ready(tid, prio, now);
        }
        if post > SimDuration::ZERO {
            self.queue.schedule_at(now + post, Ev::Dispatch);
        } else {
            self.dispatch(now);
        }
        true
    }

    /// A configuration upset strikes column `col` at `now`.
    fn on_seu(&mut self, now: SimTime) {
        let inj = self
            .dev
            .injector
            .as_mut()
            .expect("SEU event without injector");
        let col = inj.seu_column();
        let next = inj.next_seu();
        if self.unfinished > 0 {
            if let Some(d) = next {
                self.queue.schedule_at(now + d, Ev::Seu);
            }
        }
        let hit = self
            .dev
            .manager
            .resident_regions()
            .into_iter()
            .find(|r| r.covers(col));
        match hit {
            Some(r) => {
                self.fault.seu_faults += 1;
                if self.trace.is_enabled() {
                    self.record(
                        now,
                        TraceEvent::FaultInjected {
                            kind: "seu",
                            circuit: Some(r.cid.0),
                            col: Some(col),
                        },
                    );
                }
                // Earliest unrepaired strike wins (MTTR measures from it).
                self.dev.latent.entry(r.cid.0).or_insert(Latent {
                    struck_at: now,
                    detected: false,
                });
                // The struck frames no longer match any image — evicting
                // this circuit must not leave a delta base behind.
                self.dev.manager.invalidate_image_range(r.col0, r.width);
                // The task executing on the struck circuit right now keeps
                // only the progress made before the strike.
                if let Some(run) = &self.running {
                    if let Some(f) = run.fpga {
                        if f.cid == r.cid {
                            let ti = run.tid.0 as usize;
                            if self.slots[ti].poisoned.is_none() {
                                let elapsed = (now - run.exec_start).min(run.dur);
                                self.slots[ti].poisoned =
                                    Some(self.slots[ti].op_done_so_far + elapsed);
                            }
                        }
                    }
                }
            }
            None => {
                // Landed on unmapped fabric: harmless.
                self.fault.seu_benign += 1;
                if self.trace.is_enabled() {
                    self.record(
                        now,
                        TraceEvent::FaultInjected {
                            kind: "seu",
                            circuit: None,
                            col: Some(col),
                        },
                    );
                }
            }
        }
    }

    /// Periodic scrubbing: read the configuration back, compare CRCs, and
    /// repair what was hit. Charged at real readback cost — background
    /// device-port time, never billed to any task.
    fn on_scrub(&mut self, now: SimTime) {
        let regions = self.dev.manager.resident_regions();
        let frames: u32 = regions.iter().map(|r| r.width).sum();
        let cost = self.dev.manager.timing().readback_time(frames as usize);
        self.fault.scrub_passes += 1;
        self.fault.scrub_time += cost;
        // Upsets on circuits that were discarded or evicted left the
        // device with them.
        self.dev
            .latent
            .retain(|cid, _| regions.iter().any(|r| r.cid.0 == *cid));
        let mut newly: Vec<u32> = Vec::new();
        for (cid, l) in self.dev.latent.iter_mut() {
            if !l.detected {
                l.detected = true;
                newly.push(*cid);
            }
        }
        self.fault.crc_mismatches += newly.len() as u64;
        if self.trace.is_enabled() {
            self.record(
                now,
                TraceEvent::ScrubPass {
                    frames,
                    found: newly.len() as u32,
                    duration: cost,
                },
            );
            for &cid in &newly {
                self.record(
                    now,
                    TraceEvent::CrcMismatch {
                        circuit: cid,
                        task: None,
                        context: "scrub",
                    },
                );
            }
        }
        // Repair immediately unless a task is mid-segment on the circuit;
        // then the repair waits for that segment's timer.
        let busy_cid = self.running.as_ref().and_then(|r| r.fpga.map(|f| f.cid.0));
        let detected: Vec<u32> = self
            .dev
            .latent
            .iter()
            .filter(|(_, l)| l.detected)
            .map(|(c, _)| *c)
            .collect();
        for cid in detected {
            if Some(cid) != busy_cid {
                self.repair_circuit(CircuitId(cid), now);
            }
        }
        if self.unfinished > 0 {
            if let Some(iv) = self.recovery.scrub_interval {
                self.queue.schedule_at(now + iv, Ev::Scrub);
            }
        }
    }

    /// Repair a detected upset on `cid`: re-download its frames (partial
    /// when the port allows) and apply the policy's state choice; garbage
    /// computed since the strike is discarded from every victim task.
    fn repair_circuit(&mut self, cid: CircuitId, now: SimTime) {
        let Some(l) = self.dev.latent.remove(&cid.0) else {
            return;
        };
        let Some(region) = self
            .dev
            .manager
            .resident_regions()
            .into_iter()
            .find(|r| r.cid == cid)
        else {
            return; // evicted since detection; corruption left with it
        };
        let timing = *self.dev.manager.timing();
        let frames = region.width as usize;
        let sequential = self.lib.get(cid).is_sequential();
        let mut cost = redownload_cost(&timing, frames);
        // The scrub rewrite happens outside the manager's download path:
        // drop any delta base it covers (the whole device when the port
        // cannot address frames), and force the next checkpoint capture to
        // be a full image — the WAL never saw this write.
        if timing.port.supports_partial() {
            self.dev
                .manager
                .invalidate_image_range(region.col0, region.width);
        } else {
            self.dev.manager.invalidate_image_range(0, timing.spec.cols);
        }
        self.ckpt_dirty_all = true;
        if sequential && self.recovery.upset_recovery == UpsetRecovery::SaveRestore {
            // Read back the flip-flop state (valid bits survive an upset in
            // the *configuration* plane) and write it back after repair —
            // possible because library circuits are observable and
            // controllable (§3).
            cost += timing.readback_time(frames);
            cost += timing.readback_time(frames);
        }
        self.fault.repairs += 1;
        self.fault.repair_time += cost;
        self.fault.mttr_total += now - l.struck_at;
        let mut lost_total = SimDuration::ZERO;
        for ti in 0..self.slots.len() {
            let on_this = matches!(
                self.slots[ti].current_op(&self.specs[ti]),
                Some(Op::FpgaRun { circuit, .. }) if circuit == cid
            );
            if !on_this || self.slots[ti].state.is_terminal() {
                continue;
            }
            if let Some(valid) = self.slots[ti].poisoned.take() {
                // Combinational circuits lose only post-strike items; a
                // sequential circuit under Rollback restarts from its
                // initial inputs.
                let preserved =
                    if !sequential || self.recovery.upset_recovery == UpsetRecovery::SaveRestore {
                        valid
                    } else {
                        SimDuration::ZERO
                    };
                let lost = self.slots[ti].op_done_so_far - preserved;
                if lost > SimDuration::ZERO {
                    self.slots[ti].fpga_time -= lost;
                    self.slots[ti].fault_lost_time += lost;
                    self.fault.work_lost += lost;
                    lost_total += lost;
                }
                self.slots[ti].op_done_so_far = preserved;
                self.slots[ti].op_remaining = self.slots[ti].op_full - preserved;
            }
        }
        if self.trace.is_enabled() {
            self.record(
                now,
                TraceEvent::Recovered {
                    circuit: cid.0,
                    task: None,
                    lost: lost_total,
                    duration: cost,
                },
            );
        }
    }

    /// A permanent column failure at `now`; `pending` retries a column a
    /// running task was pinning.
    fn on_column_fail(&mut self, pending: Option<u32>, now: SimTime) {
        let col = match pending {
            Some(c) => c,
            None => {
                let inj = self
                    .dev
                    .injector
                    .as_mut()
                    .expect("column event w/o injector");
                let col = inj.failed_column();
                let next = inj.next_column_failure();
                if self.unfinished > 0 {
                    if let Some(d) = next {
                        self.queue.schedule_at(now + d, Ev::ColumnFail(None));
                    }
                }
                self.fault.column_faults += 1;
                if self.trace.is_enabled() {
                    self.record(
                        now,
                        TraceEvent::FaultInjected {
                            kind: "column",
                            circuit: None,
                            col: Some(col),
                        },
                    );
                }
                col
            }
        };
        let out = self.dev.manager.retire_column(col);
        if out.busy {
            // A task is mid-op on the dying fabric; retry shortly after.
            if self.unfinished > 0 {
                self.queue
                    .schedule_at(now + SimDuration::from_millis(1), Ev::ColumnFail(Some(col)));
            }
            return;
        }
        if out.applied {
            self.fault.columns_retired += 1;
            self.fault.retire_time += out.overhead;
            if self.trace.is_enabled() {
                self.record(
                    now,
                    TraceEvent::ColumnRetired {
                        col,
                        relocations: out.relocations,
                        duration: out.overhead,
                    },
                );
            }
            // Capacity shrank: every blocked task re-probes the manager so
            // requests that became unservable fail instead of hanging.
            let blocked: Vec<TaskId> = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, t)| t.state == TaskState::Blocked)
                .map(|(i, _)| TaskId(i as u32))
                .collect();
            self.wake(blocked, now);
            self.dispatch(now);
        }
        // Neither busy nor applied: a manager without column bookkeeping
        // absorbed the fault.
    }

    /// The wasted attempt of a corrupt download has elapsed; decide
    /// between another retry (with backoff) and declaring the task failed.
    fn on_retry_done(&mut self, tid: TaskId, now: SimTime) {
        let run = self.running.take().expect("retry-done without runner");
        debug_assert_eq!(run.tid, tid);
        let ti = tid.0 as usize;
        if self.slots[ti].dl_attempts > self.recovery.max_download_retries {
            // Under admission control a task that exhausts its recovery
            // budget is quarantined (reported separately from genuine
            // failures); legacy runs keep the Failed classification.
            if self.admission.is_some() {
                self.quarantine_task(tid, now, "download retries exhausted");
            } else {
                self.fail_task(tid, now, "download retries exhausted");
            }
            self.dispatch(now);
            return;
        }
        let attempt = self.slots[ti].dl_attempts;
        let backoff = self.recovery.backoff_for(attempt);
        self.fault.retries += 1;
        if self.trace.is_enabled() {
            self.record(
                now,
                TraceEvent::RetryScheduled {
                    task: tid.0,
                    attempt,
                    backoff,
                },
            );
        }
        self.slots[ti].state = TaskState::Blocked;
        self.queue.schedule_at(now + backoff, Ev::Retry(tid));
        self.dispatch(now);
    }

    fn dispatch(&mut self, now: SimTime) {
        if self.running.is_some() {
            return;
        }
        loop {
            let Some(tid) = self.sched.pick(now) else {
                return;
            };
            let ti = tid.0 as usize;
            if self.slots[ti].state != TaskState::Ready {
                continue; // stale queue entry
            }
            let Some(op) = self.slots[ti].current_op(&self.specs[ti]) else {
                unreachable!("ready task with no ops");
            };

            let mut overhead = SimDuration::ZERO;
            let mut fpga_ctx: Option<FpgaSeg> = None;
            // An FPGA op running on the software-emulation path (graceful
            // degradation): priced from the coprocessor model, executed
            // like a CPU burst, never touching the manager.
            let mut software_op = false;

            if let Op::FpgaRun { circuit, cycles } = op {
                self.update_degrade_mode(now);
                let already_degraded = self.admission.as_ref().is_some_and(|a| a.st.degraded[ti]);
                let degrade_now = !already_degraded
                    && self.slots[ti].op_done_so_far == SimDuration::ZERO
                    && self.degrade_target(circuit, ti).is_some();
                if already_degraded {
                    // Mid-op re-dispatch of a degraded segment: stay on
                    // the CPU; the pricing decision is sticky per op.
                    software_op = true;
                } else if degrade_now {
                    let sw_ns = self
                        .degrade_target(circuit, ti)
                        .expect("checked just above");
                    let d = SimDuration::from_nanos(cycles.saturating_mul(sw_ns));
                    self.slots[ti].op_full = d;
                    self.slots[ti].op_remaining = d;
                    self.slots[ti].op_done_so_far = SimDuration::ZERO;
                    // Any hardware garbage from an earlier poisoned attempt
                    // is moot: the op restarts from scratch in software.
                    self.slots[ti].poisoned = None;
                    let adm = self.admission.as_mut().expect("degrade implies admission");
                    adm.st.degraded[ti] = true;
                    adm.st.stats.degraded_dispatches += 1;
                    software_op = true;
                    if self.trace.is_enabled() {
                        self.record(
                            now,
                            TraceEvent::DegradedDispatch {
                                task: tid.0,
                                circuit: circuit.0,
                                duration: d,
                            },
                        );
                    }
                }
            }

            if let Op::FpgaRun { circuit, cycles } = op {
                if software_op {
                    // Skip the whole hardware path below.
                } else {
                    // Resolve the op duration on first activation.
                    if self.slots[ti].op_full == SimDuration::ZERO {
                        let d = self.lib.get(circuit).run_time(cycles);
                        self.slots[ti].op_full = d;
                        self.slots[ti].op_remaining = d;
                        self.slots[ti].op_done_so_far = SimDuration::ZERO;
                    }
                    // A stats snapshot lets us detect whether this activation
                    // downloaded: fault injection corrupts downloads, and the
                    // checkpoint machinery journals them.
                    let dl_before = if self.dev.injector.is_some() || self.ckpt.is_some() {
                        Some(self.dev.manager.stats())
                    } else {
                        None
                    };
                    match self.dev.manager.activate(tid, circuit) {
                        Activation::Blocked => {
                            self.slots[ti].state = TaskState::Blocked;
                            self.slots[ti].blocked_count += 1;
                            if self.trace.is_enabled() {
                                self.record(
                                    now,
                                    TraceEvent::TaskState {
                                        task: tid.0,
                                        state: fsim::TaskState::Block,
                                        info: format!("blocks on circuit {}", circuit.0),
                                    },
                                );
                            }
                            continue;
                        }
                        Activation::Unservable => {
                            // No configuration of the device can ever serve
                            // this request (e.g. capacity retired below the
                            // circuit's width): fail, don't hang.
                            self.fail_task(tid, now, "unservable request");
                            continue;
                        }
                        Activation::Ready { overhead: o } => {
                            // Transient download corruption: the per-download
                            // CRC catches it; the wasted attempt still costs
                            // the full download time on the CPU.
                            let corrupted = match (&dl_before, self.dev.injector.as_mut()) {
                                (Some(before), Some(inj)) => {
                                    self.dev.manager.stats().downloads > before.downloads
                                        && inj.corrupt_download()
                                }
                                _ => false,
                            };
                            if corrupted {
                                let before = dl_before.unwrap();
                                self.dev.manager.discard_resident(circuit);
                                self.fault.download_faults += 1;
                                self.fault.crc_mismatches += 1;
                                self.fault.retry_time +=
                                    self.dev.manager.stats().config_time - before.config_time;
                                self.slots[ti].dl_attempts += 1;
                                self.slots[ti].overhead_time += o;
                                if self.trace.is_enabled() {
                                    self.record(
                                        now,
                                        TraceEvent::FaultInjected {
                                            kind: "download",
                                            circuit: Some(circuit.0),
                                            col: None,
                                        },
                                    );
                                    self.record(
                                        now,
                                        TraceEvent::CrcMismatch {
                                            circuit: circuit.0,
                                            task: Some(tid.0),
                                            context: "download",
                                        },
                                    );
                                }
                                // The CPU is held for the wasted attempt; the
                                // retry decision happens when it elapses.
                                self.slots[ti].state = TaskState::Running;
                                self.running = Some(Running {
                                    tid,
                                    dur: SimDuration::ZERO,
                                    exec_start: now + o,
                                    fpga: None,
                                });
                                self.queue.schedule_at(now + o, Ev::RetryDone(tid));
                                return;
                            }
                            self.slots[ti].dl_attempts = 0;
                            if self.ckpt.is_some() {
                                let before = dl_before.as_ref().expect("snapshot taken above");
                                let after = self.dev.manager.stats();
                                if after.downloads > before.downloads {
                                    // A download overwrote the device: journal
                                    // it. Whatever stale claim covered that
                                    // region is also refreshed for this circuit.
                                    let (col0, width) = self
                                        .dev
                                        .manager
                                        .resident_regions()
                                        .into_iter()
                                        .find(|r| r.cid == circuit)
                                        .map(|r| (r.col0, r.width))
                                        .unwrap_or((0, self.dev.manager.timing().spec.cols));
                                    self.dev.log_download(WalRecord {
                                        seq: self.dev.wal.len() as u64,
                                        cid: circuit,
                                        col0,
                                        width,
                                        at: now,
                                        duration: after.config_time - before.config_time,
                                    });
                                    self.dev.stale.remove(&circuit.0);
                                } else if self.dev.stale.contains(&circuit.0) {
                                    // Residency "hit" on a claim a crash
                                    // invalidated (journal off): the op runs on
                                    // garbage and nothing detects it.
                                    self.slots[ti].corrupted = true;
                                    self.crash.silent_corruptions += 1;
                                }
                            }
                            // Dispatching onto fabric a prior upset corrupted:
                            // nothing computed from here on is trustworthy.
                            if self.dev.injector.is_some()
                                && self.dev.latent.contains_key(&circuit.0)
                                && self.slots[ti].poisoned.is_none()
                            {
                                self.slots[ti].poisoned = Some(self.slots[ti].op_done_so_far);
                            }
                            overhead = o;
                            fpga_ctx = Some(FpgaSeg {
                                cid: circuit,
                                completes: false,
                                slack: SimDuration::ZERO,
                                poll_cost: SimDuration::ZERO,
                            });
                        }
                    }
                }
            }

            // A deliberately hung op (done signal never rises): its
            // hardware segment runs open-ended — never sliced, no
            // completion timer. Only the watchdog armed below, or the
            // end-of-run deadlock sweep, can reclaim the CPU.
            let hanging =
                fpga_ctx.is_some() && self.specs[ti].hang_op == Some(self.slots[ti].op_idx);

            // Segment length: slice for CPU ops; FPGA ops are sliced only
            // when the preemption policy permits interruption.
            let remaining = self.slots[ti].op_remaining;
            let slice = self.sched.slice();
            let slicable = match op {
                Op::Cpu(_) => true,
                Op::FpgaRun { .. } => {
                    software_op
                        || (self.config.preempt != PreemptAction::WaitCompletion
                            && self.dev.manager.preemptable())
                }
            };
            let mut dur = remaining;
            if slicable && !hanging {
                if let Some(s) = slice {
                    dur = dur.min(s);
                }
            }
            let completes = dur == remaining && !hanging;

            // Completion-detection slack for FPGA ops finishing here.
            if let Some(ctx) = &mut fpga_ctx {
                ctx.completes = completes;
                if completes {
                    match self.config.completion {
                        CompletionDetect::Exact => {}
                        CompletionDetect::Estimate { factor } => {
                            debug_assert!(factor >= 1.0, "underestimates lose results");
                            let full = self.slots[ti].op_full;
                            let slack_ns = ((factor - 1.0) * full.as_nanos() as f64).round() as u64;
                            ctx.slack = SimDuration::from_nanos(slack_ns);
                        }
                        CompletionDetect::DoneSignal { poll } => {
                            let p = poll.as_nanos().max(1);
                            let d = dur.as_nanos();
                            let rounded = d.div_ceil(p) * p;
                            ctx.slack = SimDuration::from_nanos(rounded - d);
                            let polls = rounded / p;
                            ctx.poll_cost = POLL_CPU_COST * polls;
                        }
                    }
                }
            }

            let slack_total = fpga_ctx
                .map(|c| c.slack + c.poll_cost)
                .unwrap_or(SimDuration::ZERO);
            if self.trace.is_enabled() {
                self.record(
                    now,
                    TraceEvent::SchedulerDispatch {
                        task: tid.0,
                        scheduler: self.sched.name(),
                        queue_depth: self.sched.len(),
                    },
                );
            }
            self.slots[ti].overhead_time += overhead;
            self.slots[ti].state = TaskState::Running;
            self.running = Some(Running {
                tid,
                dur,
                exec_start: now + overhead,
                fpga: fpga_ctx,
            });
            if !hanging {
                self.queue
                    .schedule_at(now + overhead + dur + slack_total, Ev::Timer(tid));
            }
            // Arm the hang watchdog strictly after the completion timer:
            // at equal instants the event queue's FIFO tie-break pops the
            // timer first, so a slack factor of exactly 1.0 can never
            // preempt a healthy segment.
            let arm = match self.admission.as_mut() {
                Some(adm) if fpga_ctx.is_some() && !software_op => match adm.policy.watchdog {
                    Some(wd) => {
                        adm.st.wd_seq[ti] += 1;
                        adm.st.stats.watchdog_armed += 1;
                        Some((adm.st.wd_seq[ti], wd.slack))
                    }
                    None => None,
                },
                _ => None,
            };
            if let Some((seq, slack_factor)) = arm {
                // Deadline: the a-priori estimate of this segment (the
                // same §3 estimate the completion detector uses) times
                // the slack factor, plus the segment's detection slack.
                let est_ns = (slack_factor * dur.as_nanos() as f64).round() as u64;
                let deadline = overhead + SimDuration::from_nanos(est_ns) + slack_total;
                self.queue
                    .schedule_at(now + deadline, Ev::Watchdog { tid, seq });
                if self.trace.is_enabled() {
                    self.record(
                        now,
                        TraceEvent::WatchdogArmed {
                            task: tid.0,
                            deadline,
                        },
                    );
                }
            }
            return;
        }
    }

    fn on_timer(&mut self, tid: TaskId, now: SimTime) {
        let run = self.running.take().expect("timer without a running task");
        debug_assert_eq!(run.tid, tid);
        let ti = tid.0 as usize;

        // The hardware segment ended on time: any watchdog armed for it
        // is now stale (generation bump makes the pending event a no-op).
        if run.fpga.is_some() {
            if let Some(adm) = self.admission.as_mut() {
                adm.st.wd_seq[ti] += 1;
            }
        }

        // Account executed time.
        match self.slots[ti].current_op(&self.specs[ti]) {
            Some(Op::Cpu(_)) => self.slots[ti].cpu_time += run.dur,
            Some(Op::FpgaRun { .. }) => {
                let degraded = self.admission.as_ref().is_some_and(|a| a.st.degraded[ti]);
                if degraded {
                    // Software-emulation path: useful work, but accounted
                    // apart from real fabric time.
                    self.slots[ti].degraded_time += run.dur;
                    if let Some(adm) = self.admission.as_mut() {
                        adm.st.stats.degraded_time += run.dur;
                    }
                } else {
                    self.slots[ti].fpga_time += run.dur;
                }
                if let Some(f) = run.fpga {
                    self.slots[ti].overhead_time += f.slack + f.poll_cost;
                }
            }
            None => unreachable!("running task with no op"),
        }
        self.slots[ti].op_remaining -= run.dur;
        self.slots[ti].op_done_so_far += run.dur;

        // A scrub pass detected an upset on this task's circuit while the
        // segment was in flight: repair now that the segment drained. The
        // repair resets the task's progress per policy, so the op restarts
        // (or resumes) from whatever survived.
        if let Some(f) = run.fpga {
            let detected = self.dev.latent.get(&f.cid.0).is_some_and(|l| l.detected);
            if detected {
                self.repair_circuit(f.cid, now);
                if self.slots[ti].op_remaining > SimDuration::ZERO {
                    // The op did not complete cleanly; release the device
                    // slot and go around again (a fault restart, not a
                    // preemption — the manager's preempt path never runs).
                    let (ovh, wake) = self.dev.manager.op_done(tid, f.cid);
                    self.slots[ti].overhead_time += ovh;
                    self.wake(wake, now);
                    self.slots[ti].fault_restarts += 1;
                    if self.slots[ti].fault_restarts > self.recovery.max_op_recoveries {
                        if self.admission.is_some() {
                            self.quarantine_task(tid, now, "upset recovery limit");
                        } else {
                            self.fail_task(tid, now, "upset recovery limit");
                        }
                        self.dispatch(now);
                        return;
                    }
                    self.slots[ti].state = TaskState::Ready;
                    let prio = self.specs[ti].priority;
                    self.sched.on_ready(tid, prio, now);
                    self.dispatch(now);
                    return;
                }
            }
        }

        if self.slots[ti].op_remaining == SimDuration::ZERO {
            // Op complete.
            if let Some(f) = run.fpga {
                let (ovh, wake) = self.dev.manager.op_done(tid, f.cid);
                self.slots[ti].overhead_time += ovh;
                self.wake(wake, now);
            }
            self.slots[ti].op_full = SimDuration::ZERO;
            self.slots[ti].op_done_so_far = SimDuration::ZERO;
            self.slots[ti].rollbacks = 0;
            self.slots[ti].fault_restarts = 0;
            self.slots[ti].dl_attempts = 0;
            if let Some(adm) = self.admission.as_mut() {
                // The degradation decision is per op; the next op competes
                // for fabric again.
                adm.st.degraded[ti] = false;
            }
            // An undetected upset at op completion (no scrub configured, or
            // the pass hasn't come round yet) is *silent* corruption: the
            // simulator, like the real system, delivers the result anyway.
            self.slots[ti].poisoned = None;
            if self.slots[ti].advance_op(&self.specs[ti]) {
                self.slots[ti].state = TaskState::Ready;
                let prio = self.specs[ti].priority;
                self.sched.on_ready(tid, prio, now);
                self.dispatch(now);
            } else {
                self.slots[ti].state = TaskState::Done;
                self.slots[ti].completion = now;
                self.unfinished -= 1;
                if let Some(d) = self.specs[ti].deadline {
                    if now > self.specs[ti].arrival + d {
                        self.slots[ti].deadline_missed = true;
                        if let Some(adm) = self.admission.as_mut() {
                            adm.st.stats.deadline_missed += 1;
                        }
                    }
                }
                if self.trace.is_enabled() {
                    let info = self.specs[ti].name.clone();
                    self.record(
                        now,
                        TraceEvent::TaskState {
                            task: tid.0,
                            state: fsim::TaskState::Done,
                            info,
                        },
                    );
                }
                let wake = self.dev.manager.task_exit(tid);
                self.wake(wake, now);
                self.admission_on_terminal(tid, now);
                self.dispatch(now);
            }
        } else {
            // Slice expiry mid-op. If nobody else is ready, switching
            // would be pointless (and under rollback actively harmful:
            // an op longer than the slice would restart forever), so the
            // OS lets the task continue — preemption exists only to give
            // the CPU to someone else.
            if self.sched.is_empty() {
                self.slots[ti].state = TaskState::Ready;
                let prio = self.specs[ti].priority;
                self.sched.on_ready(tid, prio, now);
                self.dispatch(now);
                return;
            }
            let mut post_overhead = SimDuration::ZERO;
            if let Some(f) = run.fpga {
                let pc = self.dev.manager.preempt(tid, f.cid);
                post_overhead = pc.overhead;
                self.slots[ti].overhead_time += pc.overhead;
                if self.trace.is_enabled() {
                    let policy = match self.config.preempt {
                        PreemptAction::WaitCompletion => "wait-completion",
                        PreemptAction::Rollback => "rollback",
                        PreemptAction::SaveRestore => "save-restore",
                    };
                    let rolled_back = if pc.lose_progress {
                        self.slots[ti].op_done_so_far
                    } else {
                        SimDuration::ZERO
                    };
                    self.record(
                        now,
                        TraceEvent::Preemption {
                            task: tid.0,
                            policy,
                            saved: pc.overhead,
                            rolled_back,
                        },
                    );
                }
                if pc.lose_progress {
                    // Everything executed on this op so far is discarded.
                    let slot = &mut self.slots[ti];
                    slot.lost_time += slot.op_done_so_far;
                    slot.fpga_time -= slot.op_done_so_far;
                    slot.op_remaining = slot.op_full;
                    slot.op_done_so_far = SimDuration::ZERO;
                    slot.rollbacks += 1;
                    assert!(
                        slot.rollbacks < 100_000,
                        "task {} is rolling back forever: its FPGA op ({}) never \
                         fits inside the time slice — use SaveRestore or WaitCompletion",
                        self.specs[ti].name,
                        slot.op_full
                    );
                }
            }
            self.slots[ti].state = TaskState::Ready;
            let prio = self.specs[ti].priority;
            self.sched.on_ready(tid, prio, now);
            if post_overhead > SimDuration::ZERO {
                self.queue.schedule_at(now + post_overhead, Ev::Dispatch);
            } else {
                self.dispatch(now);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::dynload::DynLoadManager;
    use crate::manager::exclusive::ExclusiveManager;
    use crate::sched::{FifoScheduler, RoundRobinScheduler};
    use fpga::{ConfigPort, ConfigTiming};
    use pnr::{compile, CompileOptions};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn lib2() -> (Arc<CircuitLib>, Vec<crate::circuit::CircuitId>) {
        let mut lib = CircuitLib::new();
        let ids = vec![
            lib.register_compiled(
                compile(
                    &netlist::library::arith::ripple_adder("add", 8),
                    CompileOptions::default(),
                )
                .unwrap(),
            ),
            lib.register_compiled(
                compile(
                    &netlist::library::seq::lfsr("lfsr", 16, 0b1101_0000_0000_1000),
                    CompileOptions::default(),
                )
                .unwrap(),
            ),
        ];
        (Arc::new(lib), ids)
    }

    fn timing() -> ConfigTiming {
        ConfigTiming {
            spec: fpga::device::part("VF400"),
            port: ConfigPort::SerialFast,
        }
    }

    #[test]
    fn cpu_only_tasks_fifo() {
        let (lib, _) = lib2();
        let specs = vec![
            TaskSpec::new("a", SimTime::ZERO, vec![Op::Cpu(ms(10))]),
            TaskSpec::new("b", SimTime::ZERO, vec![Op::Cpu(ms(20))]),
        ];
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
        let sys = System::new(
            lib,
            mgr,
            FifoScheduler::new(),
            SystemConfig::default(),
            specs,
        );
        let r = sys.run().unwrap();
        assert_eq!(r.tasks[0].completion, SimTime::ZERO + ms(10));
        assert_eq!(r.tasks[1].completion, SimTime::ZERO + ms(30));
        assert_eq!(r.makespan, ms(30));
        assert_eq!(r.overhead_time(), SimDuration::ZERO);
    }

    #[test]
    fn round_robin_interleaves() {
        let (lib, _) = lib2();
        let specs = vec![
            TaskSpec::new("a", SimTime::ZERO, vec![Op::Cpu(ms(20))]),
            TaskSpec::new("b", SimTime::ZERO, vec![Op::Cpu(ms(20))]),
        ];
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
        let sys = System::new(
            lib,
            mgr,
            RoundRobinScheduler::new(ms(5)),
            SystemConfig::default(),
            specs,
        );
        let r = sys.run().unwrap();
        // Interleaved: both finish near the end, not one at 20ms.
        assert_eq!(r.makespan, ms(40));
        assert!(r.tasks[0].completion > SimTime::ZERO + ms(30));
    }

    #[test]
    fn fpga_op_charges_config_overhead() {
        let (lib, ids) = lib2();
        let specs = vec![TaskSpec::new(
            "t",
            SimTime::ZERO,
            vec![Op::FpgaRun {
                circuit: ids[0],
                cycles: 1000,
            }],
        )];
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
        let sys = System::new(
            lib.clone(),
            mgr,
            FifoScheduler::new(),
            SystemConfig::default(),
            specs,
        );
        let r = sys.run().unwrap();
        assert_eq!(r.manager_stats.downloads, 1);
        assert!(r.tasks[0].overhead_time > SimDuration::ZERO);
        assert_eq!(r.tasks[0].fpga_time, lib.get(ids[0]).run_time(1000));
    }

    #[test]
    fn latency_profile_records_histograms_without_changing_results() {
        let (lib, ids) = lib2();
        let mk_specs = || {
            vec![TaskSpec::new(
                "t",
                SimTime::ZERO,
                vec![Op::FpgaRun {
                    circuit: ids[0],
                    cycles: 1000,
                }],
            )
            .with_tenant(3)]
        };
        let mk = |profiled: bool| {
            let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
            let sys = System::new(
                lib.clone(),
                mgr,
                FifoScheduler::new(),
                SystemConfig::default(),
                mk_specs(),
            );
            if profiled {
                sys.with_latency_profile()
            } else {
                sys
            }
        };
        let plain = mk(false).run().unwrap();
        let prof = mk(true).run().unwrap();
        // Profiling observes, never perturbs.
        assert_eq!(plain.makespan, prof.makespan);
        assert_eq!(plain.tasks[0].completion, prof.tasks[0].completion);
        assert!(plain.latency.is_none());
        let lat = prof.latency.as_ref().unwrap();
        let dl = lat
            .get("download_partial")
            .expect("one partial-reconfig download");
        assert_eq!(dl.count(), 1);
        assert!(dl.max_ns() > 0);
        let turn = lat.get("turnaround@t3").expect("tenant-labelled series");
        assert_eq!(turn.count(), 1);
        assert_eq!(
            turn.max_ns(),
            prof.tasks[0].turnaround().as_nanos(),
            "turnaround sample is the simulated turnaround"
        );
    }

    #[test]
    fn alternating_circuits_thrash_two_tasks() {
        // Two tasks ping-pong different circuits on a whole-device dynload:
        // every FPGA op re-downloads.
        let (lib, ids) = lib2();
        let op_a = Op::FpgaRun {
            circuit: ids[0],
            cycles: 100,
        };
        let op_b = Op::FpgaRun {
            circuit: ids[1],
            cycles: 100,
        };
        let specs = vec![
            TaskSpec::new("a", SimTime::ZERO, vec![op_a, Op::Cpu(ms(1)), op_a]),
            TaskSpec::new("b", SimTime::ZERO, vec![op_b, Op::Cpu(ms(1)), op_b]),
        ];
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
        let sys = System::new(
            lib,
            mgr,
            RoundRobinScheduler::new(ms(2)),
            SystemConfig::default(),
            specs,
        );
        let r = sys.run().unwrap();
        assert_eq!(r.manager_stats.downloads, 4, "every switch re-configures");
    }

    #[test]
    fn exclusive_serializes_fpga_sections() {
        let (lib, ids) = lib2();
        // Task a holds the device across a CPU burst (non-preemptable
        // discipline: released only at task exit), so b must block.
        let specs = vec![
            TaskSpec::new(
                "a",
                SimTime::ZERO,
                vec![
                    Op::FpgaRun {
                        circuit: ids[0],
                        cycles: 50_000,
                    },
                    Op::Cpu(ms(20)),
                    Op::FpgaRun {
                        circuit: ids[0],
                        cycles: 50_000,
                    },
                ],
            ),
            TaskSpec::new(
                "b",
                SimTime::ZERO,
                vec![Op::FpgaRun {
                    circuit: ids[1],
                    cycles: 50_000,
                }],
            ),
        ];
        let mgr = ExclusiveManager::new(
            lib.clone(),
            ConfigTiming {
                spec: fpga::device::part("VF400"),
                port: ConfigPort::SerialSlow,
            },
        );
        let sys = System::new(
            lib,
            mgr,
            RoundRobinScheduler::new(ms(1)),
            SystemConfig::default(),
            specs,
        );
        let r = sys.run().unwrap();
        assert!(
            r.tasks.iter().any(|t| t.blocked_count > 0),
            "second task must wait"
        );
        assert_eq!(r.manager_stats.downloads, 2);
    }

    #[test]
    fn rollback_preemption_loses_progress() {
        let (lib, ids) = lib2();
        // One long FPGA op + one CPU task forcing slicing.
        let long = Op::FpgaRun {
            circuit: ids[1],
            cycles: 2_000_000,
        };
        let specs = vec![
            TaskSpec::new("fpga", SimTime::ZERO, vec![long]),
            TaskSpec::new("cpu", SimTime::ZERO, vec![Op::Cpu(ms(30))]),
        ];
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::Rollback);
        let cfg = SystemConfig {
            preempt: PreemptAction::Rollback,
            ..Default::default()
        };
        let sys = System::new(lib, mgr, RoundRobinScheduler::new(ms(5)), cfg, specs);
        let r = sys.run().unwrap();
        assert!(
            r.tasks[0].lost_time > SimDuration::ZERO,
            "rollback must discard work"
        );
    }

    #[test]
    fn save_restore_preserves_progress_at_a_cost() {
        let (lib, ids) = lib2();
        let long = Op::FpgaRun {
            circuit: ids[1],
            cycles: 2_000_000,
        };
        let specs = vec![
            TaskSpec::new("fpga", SimTime::ZERO, vec![long]),
            TaskSpec::new("cpu", SimTime::ZERO, vec![Op::Cpu(ms(30))]),
        ];
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
        let cfg = SystemConfig {
            preempt: PreemptAction::SaveRestore,
            ..Default::default()
        };
        let sys = System::new(lib, mgr, RoundRobinScheduler::new(ms(5)), cfg, specs);
        let r = sys.run().unwrap();
        assert_eq!(r.tasks[0].lost_time, SimDuration::ZERO);
        assert!(r.manager_stats.state_saves > 0);
    }

    #[test]
    fn estimate_completion_wastes_time() {
        let (lib, ids) = lib2();
        let specs = vec![TaskSpec::new(
            "t",
            SimTime::ZERO,
            vec![Op::FpgaRun {
                circuit: ids[0],
                cycles: 100_000,
            }],
        )];
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
        let cfg = SystemConfig {
            completion: CompletionDetect::Estimate { factor: 1.5 },
            ..Default::default()
        };
        let sys = System::new(lib.clone(), mgr, FifoScheduler::new(), cfg, specs);
        let r = sys.run().unwrap();
        let actual = lib.get(ids[0]).run_time(100_000);
        let slack = SimDuration::from_nanos(actual.as_nanos() / 2);
        assert!(
            r.tasks[0].overhead_time >= slack,
            "50% overestimate must waste half the run time"
        );
    }

    #[test]
    fn done_signal_rounds_to_poll_boundary() {
        let (lib, ids) = lib2();
        let specs = vec![TaskSpec::new(
            "t",
            SimTime::ZERO,
            vec![Op::FpgaRun {
                circuit: ids[0],
                cycles: 100_000,
            }],
        )];
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
        let cfg = SystemConfig {
            completion: CompletionDetect::DoneSignal { poll: ms(1) },
            ..Default::default()
        };
        let sys = System::new(lib, mgr, FifoScheduler::new(), cfg, specs);
        let r = sys.run().unwrap();
        assert!(r.tasks[0].overhead_time > SimDuration::ZERO);
    }

    #[test]
    fn arrivals_are_respected() {
        let (lib, _) = lib2();
        let specs = vec![
            TaskSpec::new("late", SimTime::ZERO + ms(100), vec![Op::Cpu(ms(5))]),
            TaskSpec::new("early", SimTime::ZERO, vec![Op::Cpu(ms(5))]),
        ];
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
        let sys = System::new(
            lib,
            mgr,
            FifoScheduler::new(),
            SystemConfig::default(),
            specs,
        );
        let r = sys.run().unwrap();
        assert_eq!(r.tasks[1].completion, SimTime::ZERO + ms(5));
        assert_eq!(r.tasks[0].completion, SimTime::ZERO + ms(105));
        // CPU idle between 5ms and 100ms shows up in utilization < 1.
        assert!(r.cpu_utilization() < 0.2);
    }
}
