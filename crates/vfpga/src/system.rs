//! The host-system simulator: the event kernel.
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
//!
//! This file is the small OS core: [`System`] — its three components, the
//! `Build` its builders set and the `Run` a run changes (`run.rs`) — the
//! event loop, the three hot handlers (arrive, dispatch, segment timer),
//! the one way a task leaves (`System::exit`), the report, and the restart
//! (`Run::reset` again). Each technique beside the core keeps its handlers
//! in its own module, as further `impl System` blocks: [`crate::admission`],
//! [`crate::recovery`], [`crate::checkpoint`], [`crate::migrate`] (DESIGN.md
//! §18).

use crate::admission::{AdmissionPolicy, Arrival, Gate};
use crate::checkpoint::{CheckpointConfig, Cut, RunOutcome};
use crate::circuit::{CircuitId, CircuitLib};
use crate::error::VfpgaError;
use crate::image::{FpgaSeg, Running};
use crate::manager::{Activation, FpgaManager, ManagerStats, PreemptAction, ResidentRegion};
use crate::metrics::{Report, TaskMetrics};
use crate::recovery::RecoveryPolicy;
use crate::run::{Boot, BootRecord, Build, Run};
use crate::sched::Scheduler;
use crate::task::{Op, TaskId, TaskSpec, TaskState};
use fsim::{span, FaultInjector, FaultPlan, QueueStats, SimDuration, SimTime, Trace, TraceEvent};
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

impl Ev {
    /// The task the event is about, if it is about one.
    pub(crate) fn task(&self) -> Option<TaskId> {
        match *self {
            Ev::Arrive(t) | Ev::Timer(t) | Ev::RetryDone(t) | Ev::Retry(t) => Some(t),
            Ev::Watchdog { tid, .. } => Some(tid),
            _ => None,
        }
    }
}

/// What [`System::fail_over_cut`] found in the carried state: the
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

/// Why a task leaves the system — the one argument of
/// [`System::exit`]. What each kind stamps, counts, traces and releases
/// is tabulated in DESIGN.md §18.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Exit {
    /// Finished all its ops.
    Done,
    /// Declared failed by recovery (graceful degradation, not a crash).
    Failed(&'static str),
    /// Removed from scheduling under admission control: it keeps its
    /// metrics and is reported apart from genuine failures.
    Quarantined(&'static str),
    /// Load-shed at arrival: quota and queue cap both exhausted.
    Rejected,
    /// Refused at arrival: even the optimistic a-priori `estimate`
    /// overshoots the relative `deadline`.
    Unschedulable {
        estimate: SimDuration,
        deadline: SimDuration,
    },
    /// Retired by a migration split; the other side reports its outcome.
    Migrated,
    /// Abandoned with its device ([`System::abandon_lost`]).
    Lost,
}

/// The simulator: its three components, what it was built with, and
/// what a run changed (DESIGN.md §9).
pub struct System<M: FpgaManager, S: Scheduler> {
    pub(crate) build: Build<M>,
    pub(crate) run: Run,
    /// The reconfiguration manager owning the device's fabric.
    pub(crate) manager: M,
    pub(crate) sched: S,
    /// Deterministic fault source; `None` runs fault-free.
    pub(crate) injector: Option<FaultInjector>,
}

// `into_report` collects the rows over the spec table, which std does in
// place only while a row has a spec's size and alignment.
const _: () = assert!(
    size_of::<TaskMetrics>() == size_of::<TaskSpec>()
        && align_of::<TaskMetrics>() == align_of::<TaskSpec>(),
    "TaskMetrics no longer fits TaskSpec: the report would fall back to a fresh vector"
);

impl<M: FpgaManager, S: Scheduler> System<M, S> {
    /// Build a system over a task set. Its run is derived from what it
    /// was built with when it begins.
    pub fn new(
        lib: Arc<CircuitLib>,
        manager: M,
        sched: S,
        config: SystemConfig,
        specs: Vec<TaskSpec>,
    ) -> Self {
        let cols = manager.timing().spec.cols as usize;
        System {
            build: Build::new(lib, config, specs),
            run: Run {
                dirty_cols: vec![false; cols],
                ..Run::default()
            },
            manager,
            sched,
            injector: None,
        }
    }

    /// Tag the system with the physical device it runs on. Purely
    /// diagnostic outside a fleet (defaults to device 0): it flows into
    /// fleet-facing errors and trace events so multi-device failures are
    /// attributable from the error alone.
    pub fn with_device_id(mut self, id: crate::fleet::DeviceId) -> Self {
        self.build.device = id;
        self
    }

    /// The physical device this system runs on (0 outside a fleet).
    pub fn device_id(&self) -> crate::fleet::DeviceId {
        self.build.device
    }

    /// Attach a deterministic fault injector and the recovery policy that
    /// answers it. A zero-rate plan with the default policy is exactly
    /// equivalent to no injector at all (bit-identical reports).
    pub fn with_faults(mut self, plan: FaultPlan, policy: RecoveryPolicy) -> Self {
        let cols = self.manager.timing().spec.cols;
        self.injector = Some(FaultInjector::new(plan, cols));
        self.build.recovery = policy;
        self
    }

    /// Enable observability: typed event tracing (task state changes,
    /// downloads, preemptions, GC), the metrics registry, and utilization
    /// timelines. Off by default; experiments leave it off for speed.
    /// Observability never changes simulated results — only records them.
    pub fn with_trace(mut self) -> Self {
        self.build.trace = Some(None);
        self.manager.set_recording(true);
        self
    }

    /// Like [`with_trace`](Self::with_trace), but the trace keeps only the
    /// most recent `capacity` events (a ring buffer; older events are
    /// counted in [`Trace::dropped`] and discarded). Metrics and timelines
    /// are unaffected by the cap.
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        self.build.trace = Some(Some(capacity));
        self.manager.set_recording(true);
        self
    }

    /// Enable simulated-time latency profiling: every typed event that
    /// carries a duration (downloads, GC, scrubbing, checkpoint capture,
    /// journal replay, …) feeds a log-bucketed histogram, and per-tenant
    /// `turnaround@t<n>` / `waiting@t<n>` series are recorded at the end
    /// of the run. The collected [`HistSet`](fsim::HistSet) lands in
    /// [`Report::latency`]. Latency samples ride the same typed-event
    /// flow the trace consumes, so this turns the observability path on;
    /// a small trace ring keeps memory bounded when the caller only
    /// wants histograms. Like all observability, this never changes
    /// simulated results — only records them.
    pub fn with_latency_profile(mut self) -> Self {
        self.build.trace.get_or_insert(Some(256));
        self.manager.set_recording(true);
        self.build.latency = true;
        self
    }

    /// Look at the manager and the event queue's traffic counters once
    /// the run is over. A run consumes the system, so this is the only
    /// window onto a manager's own diagnostic accessors
    /// (`PartitionManager::route_stats`, `fragmentation`, …) and onto
    /// [`fsim::EventQueue::stats`] — numbers that deliberately stay out of
    /// [`Report`] and the exports. `probe` runs when the report is built;
    /// a segment cut short by a crash never calls it.
    pub fn with_run_probe(mut self, probe: impl FnOnce(&M, QueueStats) + Send + 'static) -> Self {
        self.build.run_probe = Some(Box::new(probe));
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
        if self.manager.snapshot().is_none() {
            return Err(VfpgaError::CheckpointUnsupported {
                component: self.manager.name(),
            });
        }
        if self.sched.snapshot().is_none() {
            return Err(VfpgaError::CheckpointUnsupported {
                component: self.sched.name(),
            });
        }
        self.build.ckpt = Some(cfg);
        Ok(self)
    }

    /// Attach per-tenant admission control, watchdog hang detection and,
    /// optionally, software-emulation degradation under area saturation.
    /// Fails with [`VfpgaError::BadAdmissionPolicy`] on out-of-range
    /// parameters. A system built without this call behaves
    /// byte-identically to one predating the admission subsystem.
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Result<Self, VfpgaError> {
        policy.validate()?;
        self.build.admission = Some(policy);
        Ok(self)
    }

    /// Run to completion, returning the report *and* the recorded trace.
    /// Fails with [`VfpgaError::TraceDisabled`] when
    /// [`with_trace`](Self::with_trace) was not called first, or
    /// [`VfpgaError::Deadlock`] when a task ends neither completed nor
    /// failed.
    pub fn run_traced(mut self) -> Result<(Report, Trace), VfpgaError> {
        if self.build.trace.is_none() {
            return Err(VfpgaError::TraceDisabled);
        }
        self.run_to_cut(None)?;
        self.finish()
    }

    /// Run to completion and report. Fails with [`VfpgaError::Deadlock`]
    /// when the manager/scheduler combination strands a task.
    pub fn run(mut self) -> Result<Report, VfpgaError> {
        self.run_to_cut(None)?;
        Ok(self.finish()?.0)
    }

    /// Run until completion *or* a host crash at `crash_at`. A crash that
    /// lands after the last task finishes is ignored (the run completed
    /// first). The crash state leaves the process rendered;
    /// [`crate::checkpoint::run_with_crashes`] and the fleet keep theirs
    /// typed. Plain runs go through [`run`](Self::run).
    pub fn run_until(mut self, crash_at: Option<SimTime>) -> Result<RunOutcome, VfpgaError> {
        Ok(match self.run_to_cut(crash_at)? {
            None => {
                let (report, trace) = self.finish()?;
                RunOutcome::Completed(Box::new(report), trace)
            }
            Some(cut) => RunOutcome::Crashed(Box::new(cut.to_durable())),
        })
    }

    /// Record one typed event: bump every registry count its table row
    /// declares, feed the latency profile, then append it to the trace.
    fn record(&mut self, at: SimTime, event: TraceEvent) {
        for (counter, by) in event.counts() {
            self.run.reg.inc(counter, by);
        }
        if let (Some(lat), Some((label, d))) = (self.run.lat.as_mut(), event.latency()) {
            lat.record(label, d.as_nanos());
        }
        self.run.trace.record(at, event);
    }

    /// Record the event `build` describes — when tracing is on; a plain
    /// run never constructs one.
    #[inline]
    pub(crate) fn emit(&mut self, at: SimTime, build: impl FnOnce(&Self) -> TraceEvent) {
        if self.run.trace.is_enabled() {
            let event = build(self);
            self.record(at, event);
        }
    }

    /// Pull buffered typed events out of the manager, stamping them with
    /// the current simulated time, and sample the utilization timelines.
    fn observe(&mut self, now: SimTime) {
        if !self.run.trace.is_enabled() {
            return;
        }
        for ev in self.manager.drain_events() {
            self.record(now, ev);
        }
        let (u, timelines) = (self.manager.usage(), &mut self.run.timelines);
        timelines.sample("clb_used", now, u.used_clbs as f64);
        timelines.sample("free_fragments", now, f64::from(u.free_fragments));
        timelines.sample("ready_queue_depth", now, self.sched.len() as f64);
    }

    /// The segment loop behind [`run_until`](Self::run_until): run until
    /// every event has fired (`None`: [`finish`](Self::finish) builds the
    /// report) or the host crashes at `crash_at`, handing back the
    /// [`Cut`] and leaving the system in place for a restore to restart.
    #[doc(hidden)]
    pub fn run_to_cut(&mut self, crash_at: Option<SimTime>) -> Result<Option<Cut>, VfpgaError> {
        self.begin();
        // A segment starts: from the build, or from an adoption.
        debug_assert_eq!(self.run.unfinished, self.run.live_in_table());
        if self.build.ckpt.is_some() && matches!(self.build.boot, Boot::AsBuilt) {
            self.build.boot = self.boot_record();
        }
        if let Some(t) = crash_at {
            self.run.queue.schedule_at(t, Ev::Crash);
        }
        self.seed_faults();
        // The span guards below are free when no profiling harness has
        // recording enabled on this thread (one thread-local load each);
        // under `fsim::span::scoped` they produce the `system;…` tree.
        let _loop_span = span::guard("system");
        while let Some((now, ev)) = self.run.next(&self.build.arrivals) {
            match ev {
                Ev::Arrive(tid) => span::time("arrive", || self.on_arrive(tid, now)),
                Ev::Dispatch => span::time("dispatch", || self.dispatch(now)),
                Ev::Timer(tid) => span::time("timer", || self.on_timer(tid, now)),
                Ev::Seu => span::time("seu", || self.on_seu(now)),
                Ev::Scrub => span::time("scrub", || self.on_scrub(now)),
                Ev::ColumnFail(pending) => {
                    span::time("column_fail", || self.on_column_fail(pending, now))
                }
                Ev::RetryDone(tid) => span::time("retry_done", || self.on_retry_done(tid, now)),
                Ev::Retry(tid) => span::time("retry", || self.on_retry(tid, now)),
                Ev::Checkpoint => span::time("checkpoint", || self.on_checkpoint(now)),
                Ev::Crash => {
                    // A crash after the last task finished changes nothing
                    // observable: the run completed first.
                    if self.run.unfinished > 0 {
                        return Ok(Some(span::time("crash", || self.crash_now(now))));
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
        Ok(None)
    }

    /// The report and trace of a run whose last segment completed. Fails
    /// with [`VfpgaError::Deadlock`] when a task never left the system —
    /// completed or explicitly failed by recovery.
    #[doc(hidden)]
    pub fn finish(self) -> Result<(Report, Trace), VfpgaError> {
        debug_assert_eq!(self.run.unfinished, self.run.live_in_table());
        if self.run.unfinished > 0 {
            // Walk the table only to name the first stranded task.
            let mut slots = self.run.slots.iter().zip(&self.build.specs);
            if let Some((_, spec)) = slots.find(|(s, _)| !s.state.is_terminal()) {
                return Err(VfpgaError::Deadlock {
                    task: spec.name.clone(),
                });
            }
        }
        Ok(self.into_report())
    }

    /// The boot record of a checkpointed system whose components are as
    /// built.
    fn boot_record(&self) -> Boot {
        Boot::Recorded(Box::new(BootRecord {
            sched: self.sched.snapshot().expect("validated at enable"),
            manager: self.manager.snapshot().expect("validated at enable"),
            rng: self.injector.as_ref().map(FaultInjector::stream_states),
        }))
    }

    /// Derive the run from the build, unless it is derived already: what
    /// a run, a restore and [`state_text`](Self::state_text) begin with.
    pub(crate) fn begin(&mut self) {
        if !self.run.begun {
            self.run.reset(&self.build, false);
        }
    }

    /// Put this checkpointed system back in the state its build left it
    /// in, as the next incarnation of a host that crashed: what a restore
    /// then loads a capture over (`warm`) or runs from (cold). The run is
    /// reset ([`Run::reset`]); a cold restart also returns the components
    /// to the boot record, a warm one leaves them and the task table to
    /// the capture.
    pub(crate) fn restart(&mut self, warm: bool) -> Result<(), String> {
        if !warm {
            match std::mem::replace(&mut self.build.boot, Boot::AsBuilt) {
                Boot::AsBuilt => {}
                Boot::Recorded(record) => {
                    self.sched.restore(&record.sched)?;
                    self.manager.restore(&record.manager)?;
                    if let (Some(inj), Some(states)) = (self.injector.as_mut(), record.rng) {
                        inj.restore_stream_states(states);
                    }
                }
                Boot::Captured => {
                    return Err("a system that has captured restarts only from a capture".into())
                }
            }
        }
        self.run.reset(&self.build, warm);
        Ok(())
    }

    /// This system's whole state as text: the image a capture at `at`
    /// would take (the components' part), then the run's. Two systems that
    /// print the same run the same from here; `tests/cut_equivalence.rs`
    /// holds a restarted system to a freshly built one with it.
    #[doc(hidden)]
    pub fn state_text(&mut self, at: SimTime) -> String {
        self.begin();
        format!("{:#?}\n{:#?}", self.capture(at, None), self.run)
    }

    /// Build the final report from whatever terminal state the task table
    /// is in. Shared by the normal completion path and
    /// [`abandon_lost`](Self::abandon_lost).
    fn into_report(self) -> (Report, Trace) {
        let System {
            mut build,
            mut run,
            manager,
            sched,
            ..
        } = self;
        if let Some(probe) = build.run_probe.take() {
            probe(&manager, run.queue.stats());
        }
        // The per-tenant series are the one reader of the specs after the
        // rows, so they take the tenant ids first.
        let tenants: Vec<u32> = match run.lat {
            Some(_) => build.specs.iter().map(|s| s.tenant).collect(),
            None => Vec::new(),
        };
        // Each row is written in the place of its spec: the collect reuses
        // the spec table, the name moves into the row, the program is freed.
        // The one pass over the rows also finds the makespan.
        let mut last = SimTime::ZERO;
        let tasks: Vec<TaskMetrics> = build
            .specs
            .into_iter()
            .zip(&run.slots)
            .enumerate()
            .map(|(ti, (spec, slot))| {
                last = last.max(slot.completion);
                slot.metrics(spec.name, run.setbacks.get(ti))
            })
            .collect();
        let makespan = last - SimTime::ZERO;
        if run.trace.is_enabled() {
            run.reg.set_gauge("makespan_s", makespan.as_secs_f64());
            for m in &tasks {
                run.reg
                    .observe("turnaround_s", m.turnaround().as_secs_f64());
                run.reg.observe("waiting_s", m.waiting().as_secs_f64());
            }
        }
        if let Some(lat) = run.lat.as_mut() {
            // Per-tenant tails: `@t<n>` labels keep one series per tenant
            // so E17-style sweeps expose p99 turnaround, not just means.
            for (m, tenant) in tasks.iter().zip(tenants) {
                lat.record(&format!("turnaround@t{tenant}"), m.turnaround().as_nanos());
                lat.record(&format!("waiting@t{tenant}"), m.waiting().as_nanos());
            }
        }
        (
            Report {
                manager: manager.name(),
                scheduler: sched.name(),
                tasks,
                makespan,
                manager_stats: manager.stats(),
                fault: run.fault,
                crash: run.crash,
                admission: run.admission.as_ref().map(|adm| adm.stats),
                delta: manager.delta_stats(),
                metrics: run.reg,
                timelines: run.timelines,
                latency: run.lat,
                fleet: None,
            },
            run.trace,
        )
    }

    /// Abandon the run at `at`: every task that has not reached a terminal
    /// state is marked [`TaskMetrics::lost_in_flight`] — its home device
    /// is gone and no destination could take it — and the report is built
    /// from whatever completed before the loss. Lost tasks keep the
    /// metrics they accumulated up to the restore point; their completion
    /// is stamped with the abandon time (never before arrival), so the
    /// slice is disjoint from `failed`/`quarantined`/`rejected`.
    pub fn abandon_lost(mut self, at: SimTime) -> Report {
        for ti in 0..self.run.slots.len() {
            if !self.run.slots[ti].state.is_terminal() {
                self.exit(TaskId(ti as u32), at, Exit::Lost);
            }
        }
        self.into_report().0
    }

    /// The one terminal transition: task `tid` leaves the system at `at`
    /// for the reason `kind` gives. Stamps the completion (never before
    /// the arrival: a task retired before it arrived would otherwise
    /// record a negative lifetime), sets the kind's state, flag and
    /// counter, traces it, and — for a task that was admitted and ran
    /// here — frees its device claims, wakes whoever waited on them, and
    /// hands its tenant's in-flight slot to the longest-deferred task. The
    /// two arrival-time refusals hold nothing. Callers dispatch afterwards.
    pub(crate) fn exit(&mut self, tid: TaskId, at: SimTime, kind: Exit) {
        let ti = tid.0 as usize;
        self.run.ckpt_window.widen(ti);
        let (spec, slot) = (&self.build.specs[ti], &mut self.run.slots[ti]);
        debug_assert!(!slot.state.is_terminal());
        slot.state = match kind {
            Exit::Done => TaskState::Done,
            Exit::Failed(_) => TaskState::Failed,
            Exit::Quarantined(_) => TaskState::Quarantined,
            Exit::Rejected | Exit::Unschedulable { .. } => TaskState::Rejected,
            Exit::Migrated => TaskState::Migrated,
            // No state of its own: the report is built the moment the last
            // lost task is marked, and it reads rows, not states.
            Exit::Lost => slot.state,
        };
        slot.completion = at.max(slot.arrival);
        let missed = kind == Exit::Done && spec.absolute_deadline().is_some_and(|due| at > due);
        slot.deadline_missed |= missed;
        slot.failed |= matches!(kind, Exit::Failed(_));
        slot.quarantined |= matches!(kind, Exit::Quarantined(_));
        slot.rejected |= kind == Exit::Rejected;
        slot.unschedulable |= matches!(kind, Exit::Unschedulable { .. });
        slot.lost_in_flight |= kind == Exit::Lost;
        if kind == Exit::Lost {
            // A lost task is never charged for more than it lived. Dispatch
            // pre-pays a segment's whole download/state overhead, so the
            // restored image may hold a charge reaching past `at`; the
            // excess is refunded from `overhead_time`, the only quantity
            // booked ahead of time (CPU, FPGA, degraded and lost time are
            // booked when a segment ends).
            let set = self.run.setbacks.get(ti);
            let booked = slot.cpu_time + slot.fpga_time + set.degraded_time;
            let booked = booked + set.lost_time + set.fault_lost_time;
            let lifetime = slot.completion - slot.arrival;
            slot.overhead_time = slot.overhead_time.min(lifetime.saturating_sub(booked));
        }
        self.run.setbacks.edit(ti, |set| set.poisoned = None);
        self.run.unfinished -= 1;
        self.run.fault.tasks_failed += u64::from(matches!(kind, Exit::Failed(_)));
        let (task, tenant) = (tid.0, spec.tenant);
        let event = |s: &Self| match kind {
            Exit::Done => TraceEvent::TaskState {
                task,
                state: fsim::TaskState::Done,
                info: s.build.specs[ti].name.clone(),
            },
            Exit::Failed(reason) => TraceEvent::TaskFailed { task, reason },
            Exit::Quarantined(reason) => TraceEvent::TaskQuarantined { task, reason },
            Exit::Rejected => TraceEvent::TaskRejected { task, tenant },
            Exit::Unschedulable { estimate, deadline } => TraceEvent::TaskUnschedulable {
                task,
                tenant,
                estimate,
                deadline,
            },
            Exit::Migrated | Exit::Lost => unreachable!("leave silently"),
        };
        match kind {
            // A migration batch releases its claims itself, once the queue
            // is pruned (`retire_tasks_where`); a lost task's device is gone.
            Exit::Migrated | Exit::Lost => {}
            Exit::Rejected | Exit::Unschedulable { .. } => self.emit(at, event),
            Exit::Done | Exit::Failed(_) | Exit::Quarantined(_) => {
                self.emit(at, event);
                self.release_claims(tid, at);
                let quarantined = matches!(kind, Exit::Quarantined(_));
                let adm = Gate::of(&self.build.admission, &mut self.run.admission);
                let next = adm.and_then(|mut adm| adm.on_exit(tenant, quarantined, missed));
                if let Some(next) = next {
                    debug_assert_eq!(self.run.slots[next as usize].state, TaskState::Deferred);
                    self.make_ready(TaskId(next), at);
                }
            }
        }
    }

    /// Free whatever `tid` holds on the device and wake the tasks that
    /// were blocked on it.
    pub(crate) fn release_claims(&mut self, tid: TaskId, now: SimTime) {
        let wake = self.manager.task_exit(tid);
        self.wake(wake, now);
    }

    /// A task exhausted a recovery budget. Under admission control it is
    /// quarantined (reported apart from genuine failures); legacy runs
    /// keep the Failed classification.
    pub(crate) fn give_up(&mut self, tid: TaskId, now: SimTime, reason: &'static str) {
        let kind = match self.build.admission {
            Some(_) => Exit::Quarantined(reason),
            None => Exit::Failed(reason),
        };
        self.exit(tid, now, kind);
    }

    /// `tid` becomes ready: the one place the scheduler learns of it.
    #[inline]
    pub(crate) fn make_ready(&mut self, tid: TaskId, now: SimTime) {
        let ti = tid.0 as usize;
        self.run.slots[ti].state = TaskState::Ready;
        self.sched.on_ready(tid, self.build.specs[ti].priority, now);
    }

    pub(crate) fn wake(&mut self, wake: impl IntoIterator<Item = TaskId>, now: SimTime) {
        for w in wake {
            if self.run.slots[w.0 as usize].state == TaskState::Blocked {
                self.make_ready(w, now);
            }
        }
    }

    /// Dispatch once `overhead` of CPU time has elapsed — right away when
    /// there is none.
    pub(crate) fn dispatch_after(&mut self, overhead: SimDuration, now: SimTime) {
        if overhead > SimDuration::ZERO {
            self.run.queue.schedule_at(now + overhead, Ev::Dispatch);
        } else {
            self.dispatch(now);
        }
    }

    /// A task arrives: with admission control on, the gate decides between
    /// admitting now, parking in the per-tenant FIFO, and refusing;
    /// without it, the task is always admitted.
    pub(crate) fn on_arrive(&mut self, tid: TaskId, now: SimTime) {
        let ti = tid.0 as usize;
        debug_assert_eq!(self.run.slots[ti].state, TaskState::Future);
        self.run.ckpt_window.widen(ti);
        self.emit(now, |s| TraceEvent::TaskState {
            task: tid.0,
            state: fsim::TaskState::Arrive,
            info: s.build.specs[ti].name.clone(),
        });
        let verdict = match Gate::of(&self.build.admission, &mut self.run.admission) {
            None => Arrival::Admit,
            Some(mut adm) => {
                let (lib, manager, specs) = (&self.build.lib, &self.manager, &self.build.specs);
                adm.on_arrival(tid.0, &specs[ti], now, |t| {
                    crate::admission::service_estimate(lib, manager, &specs[t as usize])
                })
            }
        };
        match verdict {
            Arrival::Admit => {
                self.make_ready(tid, now);
                self.dispatch(now);
            }
            Arrival::Defer => self.run.slots[ti].state = TaskState::Deferred,
            Arrival::Refuse(kind) => self.exit(tid, now, kind),
        }
    }

    pub(crate) fn dispatch(&mut self, now: SimTime) {
        if self.run.running.is_some() {
            return;
        }
        loop {
            let Some(tid) = self.sched.pick(now) else {
                return;
            };
            let ti = tid.0 as usize;
            if self.run.slots[ti].state != TaskState::Ready {
                continue; // stale queue entry
            }
            let Some(op) = self.run.slots[ti].current_op(&self.build.specs[ti]) else {
                unreachable!("ready task with no ops");
            };

            let mut overhead = SimDuration::ZERO;
            let mut fpga_ctx: Option<FpgaSeg> = None;
            // An FPGA op running on the software-emulation path (graceful
            // degradation): priced from the coprocessor model, executed
            // like a CPU burst, never touching the manager.
            let software_op = match op {
                Op::FpgaRun { circuit, cycles } => self.software_path(tid, circuit, cycles, now),
                Op::Cpu(_) => false,
            };
            if let (Op::FpgaRun { circuit, cycles }, false) = (op, software_op) {
                // Resolve the op duration on first activation.
                if self.run.slots[ti].op_full == SimDuration::ZERO {
                    let d = self.build.lib.get(circuit).run_time(cycles);
                    self.run.slots[ti].op_full = d;
                    self.run.slots[ti].op_remaining = d;
                    self.run.slots[ti].op_done_so_far = SimDuration::ZERO;
                }
                // Debug builds hold the activation's writes to the
                // manager's counters (`check_writes`).
                let before = cfg!(debug_assertions).then(|| self.manager.stats());
                let activation = self.manager.activate(tid, circuit);
                if let Some(before) = &before {
                    self.check_writes(circuit, before, activation);
                }
                match activation {
                    Activation::Blocked { moved } => {
                        if self.build.ckpt.is_some() {
                            self.journal_moves(moved, now);
                        }
                        self.run.slots[ti].state = TaskState::Blocked;
                        self.run.slots[ti].blocked_count += 1;
                        self.emit(now, |_| TraceEvent::TaskState {
                            task: tid.0,
                            state: fsim::TaskState::Block,
                            info: format!("blocks on circuit {}", circuit.0),
                        });
                        continue;
                    }
                    Activation::Unservable => {
                        // No configuration of the device can ever serve
                        // this request (e.g. capacity retired below the
                        // circuit's width): fail, don't hang.
                        self.exit(tid, now, Exit::Failed("unservable request"));
                        continue;
                    }
                    Activation::Ready {
                        overhead: o,
                        write,
                        moved,
                    } => {
                        // Fault injection corrupts the load this activation
                        // made; the checkpoint machinery journals its writes.
                        let rejected = self.corrupt_download(tid, circuit, o, write, now);
                        if self.build.ckpt.is_some() {
                            self.journal_activation(ti, circuit, write, moved, rejected, now);
                        }
                        if rejected {
                            // The CPU is held for the wasted attempt; the
                            // retry decision happens when it elapses.
                            return;
                        }
                        // Dispatching onto fabric a prior upset corrupted:
                        // nothing computed from here on is trustworthy.
                        let upset =
                            self.injector.is_some() && self.run.latent.contains_key(&circuit.0);
                        let done = self.run.slots[ti].op_done_so_far;
                        self.run.setbacks.edit(ti, |set| {
                            set.dl_attempts = 0;
                            if upset && set.poisoned.is_none() {
                                set.poisoned = Some(done);
                            }
                        });
                        overhead = o;
                        fpga_ctx = Some(FpgaSeg {
                            cid: circuit,
                            completes: false,
                            slack: SimDuration::ZERO,
                            poll: SimDuration::ZERO,
                        });
                    }
                }
            }

            // A deliberately hung op (done signal never rises): its
            // hardware segment runs open-ended — never sliced, no
            // completion timer. Only the watchdog armed below, or the
            // end-of-run deadlock sweep, can reclaim the CPU.
            let hanging = fpga_ctx.is_some()
                && self.build.specs[ti].hang_op == Some(self.run.slots[ti].op_idx as usize);

            // Segment length: slice for CPU ops; FPGA ops are sliced only
            // when the preemption policy permits interruption.
            let remaining = self.run.slots[ti].op_remaining;
            let slice = self.sched.slice();
            let slicable = match op {
                Op::Cpu(_) => true,
                Op::FpgaRun { .. } => software_op || self.can_preempt(),
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
                    match self.build.config.completion {
                        CompletionDetect::Exact => {}
                        CompletionDetect::Estimate { factor } => {
                            debug_assert!(factor >= 1.0, "underestimates lose results");
                            let full = self.run.slots[ti].op_full;
                            let slack_ns = ((factor - 1.0) * full.as_nanos() as f64).round() as u64;
                            ctx.slack = SimDuration::from_nanos(slack_ns);
                        }
                        CompletionDetect::DoneSignal { poll } => {
                            let p = poll.as_nanos().max(1);
                            let d = dur.as_nanos();
                            let rounded = d.div_ceil(p) * p;
                            ctx.slack = SimDuration::from_nanos(rounded - d);
                            let polls = rounded / p;
                            ctx.poll = POLL_CPU_COST * polls;
                        }
                    }
                }
            }

            let slack_total = fpga_ctx
                .map(|c| c.slack + c.poll)
                .unwrap_or(SimDuration::ZERO);
            self.emit(now, |s| TraceEvent::SchedulerDispatch {
                task: tid.0,
                scheduler: s.sched.name(),
                queue_depth: s.sched.len(),
            });
            self.run.slots[ti].overhead_time += overhead;
            self.run.slots[ti].state = TaskState::Running;
            self.run.running = Some(Running {
                tid,
                dur,
                exec_start: now + overhead,
                fpga: fpga_ctx,
            });
            if !hanging {
                let end = now + overhead + dur + slack_total;
                self.run.schedule(end, Ev::Timer(tid));
            }
            // Arm the hang watchdog strictly after the completion timer:
            // at equal instants the event queue's FIFO tie-break pops the
            // timer first, so a slack factor of exactly 1.0 can never
            // preempt a healthy segment.
            let adm = Gate::of(&self.build.admission, &mut self.run.admission)
                .filter(|_| fpga_ctx.is_some());
            if let Some((seq, deadline)) =
                adm.and_then(|mut adm| adm.arm_watchdog(ti, overhead, dur, slack_total))
            {
                let wd = Ev::Watchdog { tid, seq };
                self.run.queue.schedule_at(now + deadline, wd);
                self.emit(now, |_| TraceEvent::WatchdogArmed {
                    task: tid.0,
                    deadline,
                });
            }
            return;
        }
    }

    /// The resident region `pick` selects, if there is one.
    pub(crate) fn resident(
        &self,
        pick: impl Fn(&ResidentRegion) -> bool,
    ) -> Option<ResidentRegion> {
        self.manager.resident_regions().into_iter().find(pick)
    }

    /// What a manager reports of an activation's writes agrees with its
    /// counters (`before`: from before the call) and residency table: a
    /// load exactly when it counted a download beyond its relocations, at
    /// the circuit's region, for the config time it added; moved columns
    /// exactly when it relocated.
    fn check_writes(&self, circuit: CircuitId, before: &ManagerStats, activation: Activation) {
        let after = self.manager.stats();
        let relocated = after.relocations - before.relocations;
        let (write, moved) = match activation {
            Activation::Ready { write, moved, .. } => (write, moved),
            Activation::Blocked { moved } => (None, moved),
            Activation::Unservable => (None, 0),
        };
        let load = (after.downloads - before.downloads > relocated).then(|| {
            let region = self.resident(|r| r.cid == circuit);
            let cols = self.manager.timing().spec.cols;
            let (col0, width) = region.map_or((0, cols), |r| (r.col0, r.width));
            (circuit, col0, width, after.config_time - before.config_time)
        });
        let reported = write.map(|w| (w.cid, w.col0, w.width, w.config_time));
        assert_eq!(
            (reported, moved != 0),
            (load, relocated > 0),
            "{} activating circuit {}: its load, whether it moved any",
            self.manager.name(),
            circuit.0
        );
    }

    /// Whether a task can be interrupted in the middle of an FPGA op.
    pub(crate) fn can_preempt(&self) -> bool {
        self.build.config.preempt != PreemptAction::WaitCompletion && self.manager.preemptable()
    }

    fn on_timer(&mut self, tid: TaskId, now: SimTime) {
        let run = self.run.running.take();
        let run = run.expect("timer without a running task");
        debug_assert_eq!(run.tid, tid);
        let ti = tid.0 as usize;

        // The hardware segment ended on time: any watchdog armed for it
        // is now stale.
        if run.fpga.is_some() {
            if let Some(adm) = self.run.admission.as_mut() {
                adm.segment_ended(ti);
            }
        }

        // Account executed time.
        match self.run.slots[ti].current_op(&self.build.specs[ti]) {
            Some(Op::Cpu(_)) => self.run.slots[ti].cpu_time += run.dur,
            Some(Op::FpgaRun { .. }) => {
                let adm = self.run.admission.as_mut();
                if adm.is_some_and(|adm| adm.degraded_run(ti, run.dur)) {
                    // Software-emulation path: useful work, but accounted
                    // apart from real fabric time.
                    self.run.setbacks.edit(ti, |s| s.degraded_time += run.dur);
                } else {
                    self.run.slots[ti].fpga_time += run.dur;
                }
                if let Some(f) = run.fpga {
                    self.run.slots[ti].overhead_time += f.slack + f.poll;
                }
            }
            None => unreachable!("running task with no op"),
        }
        self.run.slots[ti].op_remaining -= run.dur;
        self.run.slots[ti].op_done_so_far += run.dur;

        if let Some(f) = run.fpga {
            if self.restart_after_repair(tid, f.cid, now) {
                return;
            }
        }

        if self.run.slots[ti].op_remaining == SimDuration::ZERO {
            // Op complete.
            if let Some(f) = run.fpga {
                let (ovh, wake) = self.manager.op_done(tid, f.cid);
                self.run.slots[ti].overhead_time += ovh;
                self.wake(wake, now);
            }
            self.run.slots[ti].op_full = SimDuration::ZERO;
            self.run.slots[ti].op_done_so_far = SimDuration::ZERO;
            // An undetected upset at op completion (no scrub configured, or
            // the pass hasn't come round yet) is *silent* corruption: the
            // simulator, like the real system, delivers the result anyway.
            self.run.setbacks.edit(ti, |set| {
                set.rollbacks = 0;
                set.fault_restarts = 0;
                set.dl_attempts = 0;
                set.poisoned = None;
            });
            if let Some(adm) = self.run.admission.as_mut() {
                adm.op_completed(ti);
            }
            if self.run.slots[ti].advance_op(&self.build.specs[ti]) {
                self.make_ready(tid, now);
            } else {
                self.exit(tid, now, Exit::Done);
            }
            self.dispatch(now);
        } else {
            // Slice expiry mid-op. If nobody else is ready, switching
            // would be pointless (and under rollback actively harmful:
            // an op longer than the slice would restart forever), so the
            // OS lets the task continue — preemption exists only to give
            // the CPU to someone else.
            if self.sched.is_empty() {
                self.make_ready(tid, now);
                self.dispatch(now);
                return;
            }
            let mut post_overhead = SimDuration::ZERO;
            if let Some(f) = run.fpga {
                let pc = self.manager.preempt(tid, f.cid);
                post_overhead = pc.overhead;
                self.run.slots[ti].overhead_time += pc.overhead;
                self.emit(now, |s| TraceEvent::Preemption {
                    task: tid.0,
                    policy: match s.build.config.preempt {
                        PreemptAction::WaitCompletion => "wait-completion",
                        PreemptAction::Rollback => "rollback",
                        PreemptAction::SaveRestore => "save-restore",
                    },
                    saved: pc.overhead,
                    rolled_back: if pc.lose_progress {
                        s.run.slots[ti].op_done_so_far
                    } else {
                        SimDuration::ZERO
                    },
                });
                if pc.lose_progress {
                    // Everything executed on this op so far is discarded.
                    let slot = &mut self.run.slots[ti];
                    let lost = slot.op_done_so_far;
                    slot.fpga_time -= lost;
                    slot.op_remaining = slot.op_full;
                    slot.op_done_so_far = SimDuration::ZERO;
                    let rollbacks = self.run.setbacks.edit(ti, |set| {
                        set.lost_time += lost;
                        set.rollbacks += 1;
                        set.rollbacks
                    });
                    assert!(
                        rollbacks < 100_000,
                        "task {} is rolling back forever: its FPGA op ({}) never \
                         fits inside the time slice — use SaveRestore or WaitCompletion",
                        self.build.specs[ti].name,
                        slot.op_full
                    );
                }
            }
            self.make_ready(tid, now);
            self.dispatch_after(post_overhead, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::dynload::DynLoadManager;
    use crate::manager::exclusive::ExclusiveManager;
    use crate::sched::{FifoScheduler, RoundRobinScheduler};
    use crate::system_tests::{lib_mixed, ms, timing};
    use fpga::{ConfigPort, ConfigTiming};

    #[test]
    fn cpu_only_tasks_fifo() {
        let (lib, _) = lib_mixed(2);
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
        let (lib, _) = lib_mixed(2);
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
        let (lib, ids) = lib_mixed(2);
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
        let (lib, ids) = lib_mixed(2);
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
        let (lib, ids) = lib_mixed(2);
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
        let (lib, ids) = lib_mixed(2);
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
        let (lib, ids) = lib_mixed(2);
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
        let (lib, ids) = lib_mixed(2);
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
        let (lib, ids) = lib_mixed(2);
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
        let (lib, ids) = lib_mixed(2);
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
        let (lib, _) = lib_mixed(2);
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
