//! Structured event tracing.
//!
//! The OS simulator emits a typed [`TraceEvent`] for every externally
//! observable action: task state changes, configuration downloads,
//! preemptions, garbage-collection runs, page faults, overlay swaps,
//! I/O-mux grants, and scheduler dispatches. Each event carries its
//! payload as typed fields, so tools (`trace_dump`, the JSON exporter)
//! can aggregate without parsing strings; the rendered message is derived
//! from the fields on demand.
//!
//! Integration tests assert on the trace; experiments usually run with the
//! trace disabled for speed. A [`Trace`] can also be capacity-bounded, in
//! which case it behaves as a ring buffer keeping the most recent events.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// The lifecycle states a simulated task moves through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskState {
    /// Task entered the system.
    Arrive,
    /// Task became runnable (circuit resident, waiting for dispatch).
    Ready,
    /// Task's circuit is active on the device.
    Run,
    /// Task blocked waiting for device resources.
    Block,
    /// Task finished all its operations.
    Done,
}

impl TaskState {
    /// The state's tag and registry counter.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            TaskState::Arrive => ("arrive", "tasks_arrived"),
            TaskState::Ready => ("ready", "tasks_ready"),
            TaskState::Run => ("run", "task_runs"),
            TaskState::Block => ("block", "task_blocks"),
            TaskState::Done => ("done", "tasks_completed"),
        }
    }

    /// Short tag for filtering, e.g. `"arrive"` or `"done"`.
    pub fn tag(self) -> &'static str {
        self.names().0
    }

    /// Counter name a metrics registry uses for this transition.
    pub fn counter_name(self) -> &'static str {
        self.names().1
    }
}

/// One typed, structured trace event.
///
/// Task identifiers are plain `u32`s here (the kernel does not know the OS
/// layer's newtypes); the emitting layer documents the mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A task changed lifecycle state.
    TaskState {
        /// Task identifier.
        task: u32,
        /// The state entered.
        state: TaskState,
        /// Free-form context, e.g. the task name or blocking reason.
        info: String,
    },
    /// The scheduler granted the device to a task.
    SchedulerDispatch {
        /// Task identifier.
        task: u32,
        /// Scheduler policy name.
        scheduler: &'static str,
        /// Ready-queue depth *after* removing the dispatched task.
        queue_depth: usize,
    },
    /// A (partial or full) configuration download to the device.
    ConfigDownload {
        /// Task the download served.
        task: u32,
        /// Frames written.
        frames: u32,
        /// Bytes shipped over the configuration port.
        bytes: u64,
        /// Simulated port time.
        duration: SimDuration,
        /// Whole-chip download (true) vs partial reconfiguration (false).
        full: bool,
    },
    /// A delta (frame-diff) download onto a column range whose previous
    /// occupant is still tracked in configuration RAM: only the changed
    /// frames ship, instead of the incoming circuit's full frame set.
    DeltaDownload {
        /// Task the download served.
        task: u32,
        /// Previous occupant of the column range (the delta base).
        from_circuit: u32,
        /// Circuit downloaded.
        to_circuit: u32,
        /// Changed frames actually written.
        frames: u32,
        /// Frames a full (non-delta) load of the circuit would write.
        full_frames: u32,
        /// Simulated port time.
        duration: SimDuration,
    },
    /// A tracked resident image (delta base) was invalidated; the next
    /// load onto the range pays a full download.
    DeltaInvalidate {
        /// First column of the dropped image.
        col0: u32,
        /// Columns it spanned.
        width: u32,
        /// Invalidation cause (`"repair"`, `"retire"`, `"relocate"`,
        /// `"gc"`, `"crash"`, `"overwrite"`, `"discard"`).
        reason: &'static str,
    },
    /// A delta checkpoint capture: only columns dirtied since the previous
    /// image were read back.
    DeltaCheckpoint {
        /// Checkpoint sequence number.
        seq: u64,
        /// Frames read back (the dirty columns).
        frames: u32,
        /// Frames a full capture would have read back.
        full_frames: u32,
        /// Delta captures since the last full image (chain length).
        chain: u32,
        /// Readback cost of the capture.
        duration: SimDuration,
    },
    /// A running task was preempted.
    Preemption {
        /// Task identifier.
        task: u32,
        /// Preemption policy name (`"wait"`, `"rollback"`, `"save-restore"`).
        policy: &'static str,
        /// State save/readback cost paid (zero for rollback/wait).
        saved: SimDuration,
        /// Computation discarded by rollback (zero otherwise).
        rolled_back: SimDuration,
    },
    /// A free-space garbage-collection (compaction) run.
    GcRun {
        /// Free fragments merged away.
        merged: u32,
        /// Resident circuits moved.
        relocations: u32,
        /// Relocation attempts that failed.
        failures: u32,
        /// Simulated cost of the run.
        duration: SimDuration,
    },
    /// A virtual-memory page fault (and the eviction it forced, if any).
    PageFault {
        /// The page (circuit segment) faulted in.
        page: u32,
        /// Replacement policy name (`"lru"`, `"fifo"`, …).
        policy: &'static str,
        /// The page evicted to make room, if the device was full.
        victim: Option<u32>,
        /// Configuration time charged for the fault.
        duration: SimDuration,
    },
    /// An overlay (time-multiplexed context) swap.
    OverlaySwap {
        /// Task identifier.
        task: u32,
        /// Context switched out.
        from_overlay: u32,
        /// Context switched in.
        to_overlay: u32,
        /// Swap cost.
        duration: SimDuration,
    },
    /// The I/O multiplexer granted pins to a task.
    IoMuxGrant {
        /// Task identifier.
        task: u32,
        /// Slot index granted.
        slot: u32,
        /// Pins in the slot.
        pins: u32,
    },
    /// A fault was injected into the device.
    FaultInjected {
        /// Fault class: `"download"`, `"seu"`, or `"column"`.
        kind: &'static str,
        /// Circuit whose configuration the fault struck, if any.
        circuit: Option<u32>,
        /// Fabric column struck, when the fault has a location.
        col: Option<u32>,
    },
    /// A CRC check caught corrupted configuration data.
    CrcMismatch {
        /// Circuit whose configuration failed the check.
        circuit: u32,
        /// Task affected, if the corruption was caught on its download.
        task: Option<u32>,
        /// Where the check ran: `"download"` or `"scrub"`.
        context: &'static str,
    },
    /// One periodic scrubbing pass (readback + CRC compare).
    ScrubPass {
        /// Configuration frames read back.
        frames: u32,
        /// Latent upsets detected this pass.
        found: u32,
        /// Readback port time charged.
        duration: SimDuration,
    },
    /// A corrupted download will be retried after a backoff.
    RetryScheduled {
        /// Task whose download failed.
        task: u32,
        /// Attempt number (1 = first retry).
        attempt: u32,
        /// Backoff delay before the retry.
        backoff: SimDuration,
    },
    /// A task was declared failed (recovery gave up on it).
    TaskFailed {
        /// Task identifier.
        task: u32,
        /// Why recovery gave up.
        reason: &'static str,
    },
    /// A fabric column was permanently retired.
    ColumnRetired {
        /// The failed column.
        col: u32,
        /// Resident circuits relocated off the column.
        relocations: u32,
        /// Relocation/eviction cost of the retirement.
        duration: SimDuration,
    },
    /// A detected upset was repaired (re-download, possibly state moves).
    Recovered {
        /// Circuit repaired.
        circuit: u32,
        /// Task whose in-flight work the repair adjusted, if any.
        task: Option<u32>,
        /// FPGA progress discarded by the recovery.
        lost: SimDuration,
        /// Repair cost (re-download + state traffic).
        duration: SimDuration,
    },
    /// A system checkpoint was captured.
    CheckpointTaken {
        /// Checkpoint sequence number (monotone within a run).
        seq: u64,
        /// Resident frames read back to capture device-visible state.
        frames: u32,
        /// Readback cost of the capture (background, like scrubbing).
        duration: SimDuration,
    },
    /// The host crashed: volatile OS state is gone, and any in-flight
    /// download was torn.
    Crash {
        /// Downloads whose WAL records were past the last checkpoint
        /// (committed after it, or torn by the crash itself).
        downloads_at_risk: u32,
        /// Whether a download was in flight (and therefore torn).
        torn: bool,
    },
    /// Journal replay after a restart: committed downloads redone, torn
    /// ones rolled back.
    JournalReplay {
        /// Committed records re-applied.
        redone: u32,
        /// Torn records rolled back.
        undone: u32,
        /// Port time the replay cost.
        duration: SimDuration,
    },
    /// A hang-detection watchdog was armed for a dispatched FPGA
    /// operation: the a-priori latency estimate times the slack factor.
    WatchdogArmed {
        /// Task identifier.
        task: u32,
        /// Delay from arming until the deadline expires.
        deadline: SimDuration,
    },
    /// A watchdog deadline expired: the operation overran its estimate
    /// and was forcibly preempted.
    WatchdogFired {
        /// Task identifier.
        task: u32,
        /// How many times this task has tripped the watchdog (1 = first).
        trip: u32,
        /// Operation progress discarded by the forced preemption.
        lost: SimDuration,
    },
    /// Admission control rejected a task outright (load shedding).
    TaskRejected {
        /// Task identifier.
        task: u32,
        /// Tenant whose quota and queue cap were both exhausted.
        tenant: u32,
    },
    /// A task was quarantined: removed from scheduling after repeated
    /// watchdog trips or exhausted fault recovery.
    TaskQuarantined {
        /// Task identifier.
        task: u32,
        /// Why the task was quarantined.
        reason: &'static str,
    },
    /// A saturated device sent an FPGA operation down the
    /// software-emulation path instead of queueing it.
    DegradedDispatch {
        /// Task identifier.
        task: u32,
        /// Circuit whose hardware run was emulated.
        circuit: u32,
        /// Software execution time charged in place of the FPGA run.
        duration: SimDuration,
    },
    /// The arrival-time schedulability test rejected a task: even the
    /// optimistic a-priori estimate already overshoots its deadline.
    TaskUnschedulable {
        /// Task identifier.
        task: u32,
        /// Tenant the task belongs to.
        tenant: u32,
        /// The a-priori completion estimate (service + pending
        /// reconfiguration + queued backlog, times the margin).
        estimate: SimDuration,
        /// The relative deadline the estimate overshot.
        deadline: SimDuration,
    },
    /// Device utilization crossed the degradation high mark: the system
    /// entered sticky degraded mode. Only emitted for explicit
    /// hysteresis pairs.
    DegradeModeEnter {
        /// Resident CLBs at the transition.
        used: u64,
        /// Total device CLBs.
        total: u64,
    },
    /// Device utilization fell below the degradation low mark: the
    /// system left degraded mode. Only emitted for explicit hysteresis
    /// pairs; enter/exit churn is the flapping the pair exists to kill.
    DegradeModeExit {
        /// Resident CLBs at the transition.
        used: u64,
        /// Total device CLBs.
        total: u64,
    },
    /// A physical device dropped off the shelf (power brownout, surprise
    /// removal): every resident configuration and flip-flop bit on it is
    /// lost. Emitted by the fleet harness, not a single-device run.
    DeviceCrash {
        /// The device that crashed.
        device: u32,
        /// How long it stays down before rejoining, blank.
        outage: SimDuration,
    },
    /// A crashed device's outage ended: it rejoined the fleet with empty
    /// configuration RAM.
    DeviceRejoin {
        /// The device that rejoined.
        device: u32,
    },
    /// A shard's tasks were failed over from a crashed device to a
    /// surviving one, restarting from the shard's last checkpoint.
    Failover {
        /// The crashed source device.
        from_device: u32,
        /// The surviving destination device.
        to_device: u32,
        /// Unfinished tasks carried over.
        tasks: u32,
        /// Work window lost to the crash (crash time minus the last
        /// checkpoint) that the destination must re-execute.
        redo: SimDuration,
    },
    /// No hardware destination had capacity within the retry budget: the
    /// shard fell back to the software (CPU-only) execution path.
    SoftwareFailover {
        /// The crashed source device.
        from_device: u32,
        /// Unfinished tasks degraded to software.
        tasks: u32,
    },
    /// Planned migration of a shard onto a rejoined device to even out
    /// hosting load.
    FleetRebalance {
        /// The migrated shard.
        shard: u32,
        /// The device it left.
        from_device: u32,
        /// The rejoined device it moved to.
        to_device: u32,
    },
    /// The failover retry budget expired with no destination and no
    /// software fallback: the shard's unfinished tasks were abandoned
    /// (counted in the disjoint lost-in-flight slice).
    FleetLost {
        /// The crashed device the tasks were resident on.
        device: u32,
        /// Tasks lost in flight.
        tasks: u32,
    },
    /// Live-migration *prepare*: a destination region was reserved and
    /// the tenant's resident image + FF state snapshotted; a
    /// `MigrationIntent` record is journaled on both sides.
    MigrationPrepare {
        /// The migrating tenant.
        tenant: u32,
        /// Source device.
        from_device: u32,
        /// Destination device.
        to_device: u32,
        /// Live (unfinished) tasks the tenant carries across.
        tasks: u32,
    },
    /// Live-migration *commit*: the destination owns the tenant, the
    /// placement table flipped, and a `MigrationCommit` was journaled.
    MigrationCommit {
        /// The migrated tenant.
        tenant: u32,
        /// Source device.
        from_device: u32,
        /// Destination device.
        to_device: u32,
        /// Post-checkpoint work window the destination re-executes.
        redo: SimDuration,
    },
    /// Live-migration *abort*: a crash window (or missing destination)
    /// rolled the tenant back onto the source with its backlog intact.
    MigrationAbort {
        /// The tenant that stayed put.
        tenant: u32,
        /// Source device.
        from_device: u32,
        /// Destination device the attempt targeted (`u32::MAX` when the
        /// attempt died before choosing one).
        to_device: u32,
        /// Why the migration rolled back.
        reason: &'static str,
    },
    /// Source columns of a committed migration were freed — either in the
    /// normal commit path or idempotently redone by journal replay after
    /// a crash between commit and free.
    MigrationFreed {
        /// The migrated tenant.
        tenant: u32,
        /// The source device whose columns were freed.
        device: u32,
        /// Residency claims discarded.
        claims: u32,
        /// True when journal replay redid the free after a crash.
        redone: bool,
    },
    /// Escape hatch for one-off annotations.
    Custom {
        /// Category tag.
        tag: &'static str,
        /// Free-form details.
        message: String,
    },
}

impl TraceEvent {
    /// The one name table: per variant, the category tag, the registry
    /// counter an occurrence bumps, and the label its duration is profiled
    /// under (`""`: not profiled).
    fn names(&self) -> [&'static str; 3] {
        use TraceEvent::*;
        match self {
            TaskState { state, .. } => [state.tag(), state.counter_name(), ""],
            SchedulerDispatch { .. } => ["dispatch", "dispatches", ""],
            ConfigDownload { full: true, .. } => ["config", "config_downloads", "download_full"],
            ConfigDownload { .. } => ["config", "config_downloads", "download_partial"],
            DeltaDownload { .. } => ["delta", "delta_downloads", "download_delta"],
            DeltaInvalidate { .. } => ["delta-inv", "delta_invalidations", ""],
            DeltaCheckpoint { .. } => ["ckpt-delta", "delta_checkpoints", "checkpoint_delta"],
            Preemption { .. } => ["preempt", "preemptions", "preempt_save"],
            GcRun { .. } => ["gc", "gc_runs", "gc_run"],
            PageFault { .. } => ["fault", "page_faults", "page_fault"],
            OverlaySwap { .. } => ["overlay", "overlay_swaps", "overlay_swap"],
            IoMuxGrant { .. } => ["iomux", "iomux_grants", ""],
            FaultInjected { .. } => ["fault-inj", "faults_injected", ""],
            CrcMismatch { .. } => ["crc", "crc_mismatches", ""],
            ScrubPass { .. } => ["scrub", "scrub_passes", "scrub_pass"],
            RetryScheduled { .. } => ["retry", "retries_scheduled", ""],
            TaskFailed { .. } => ["task-fail", "tasks_failed", ""],
            ColumnRetired { .. } => ["col-retire", "columns_retired", "column_retire"],
            Recovered { .. } => ["recover", "recoveries", "recovery"],
            CheckpointTaken { .. } => ["ckpt", "checkpoints", "checkpoint_capture"],
            Crash { .. } => ["crash", "crashes", ""],
            JournalReplay { .. } => ["replay", "journal_replays", "journal_replay"],
            WatchdogArmed { .. } => ["wd-arm", "watchdogs_armed", ""],
            WatchdogFired { .. } => ["wd-fire", "watchdogs_fired", ""],
            TaskRejected { .. } => ["reject", "tasks_rejected", ""],
            TaskQuarantined { .. } => ["quarantine", "tasks_quarantined", ""],
            DegradedDispatch { .. } => ["degrade", "degraded_dispatches", "degraded_run"],
            TaskUnschedulable { .. } => ["unsched", "tasks_unschedulable", ""],
            DegradeModeEnter { .. } => ["degrade-on", "degrade_mode_enters", ""],
            DegradeModeExit { .. } => ["degrade-off", "degrade_mode_exits", ""],
            DeviceCrash { .. } => ["dev-crash", "device_crashes", ""],
            DeviceRejoin { .. } => ["dev-rejoin", "device_rejoins", ""],
            Failover { .. } => ["failover", "failovers", ""],
            SoftwareFailover { .. } => ["sw-failover", "software_failovers", ""],
            FleetRebalance { .. } => ["rebalance", "rebalances", ""],
            FleetLost { .. } => ["lost", "lost_in_flight", ""],
            MigrationPrepare { .. } => ["mig-prepare", "migrations_prepared", ""],
            MigrationCommit { .. } => ["mig-commit", "migrations_committed", ""],
            MigrationAbort { .. } => ["mig-abort", "migrations_aborted", ""],
            MigrationFreed { .. } => ["mig-freed", "migration_claims_freed", ""],
            Custom { tag, .. } => [tag, "custom_events", ""],
        }
    }

    /// The event's category tag, used by [`Trace::with_tag`] and
    /// `trace_dump` filtering. Task-state events use the state name
    /// (`"arrive"`, `"block"`, `"done"`, …) so lifecycle assertions can
    /// filter directly on the transition.
    pub fn tag(&self) -> &'static str {
        self.names()[0]
    }

    /// Name of the registry counter this event bumps. `FleetLost` and
    /// `MigrationFreed` name the sum of their payload (tasks, claims), not
    /// a count of occurrences.
    pub fn counter_name(&self) -> &'static str {
        self.names()[1]
    }

    /// Latency-histogram label and sample, for the events whose duration
    /// is profiled.
    pub fn latency(&self) -> Option<(&'static str, SimDuration)> {
        use TraceEvent::*;
        let label = self.names()[2];
        if label.is_empty() {
            return None;
        }
        let sample = match self {
            // A preemption that saved nothing took no time worth a sample.
            Preemption { saved, .. } => Some(*saved).filter(|d| *d > SimDuration::ZERO),
            ConfigDownload { duration, .. }
            | DeltaDownload { duration, .. }
            | DeltaCheckpoint { duration, .. }
            | GcRun { duration, .. }
            | PageFault { duration, .. }
            | OverlaySwap { duration, .. }
            | ScrubPass { duration, .. }
            | ColumnRetired { duration, .. }
            | Recovered { duration, .. }
            | CheckpointTaken { duration, .. }
            | JournalReplay { duration, .. }
            | DegradedDispatch { duration, .. } => Some(*duration),
            _ => unreachable!("'{label}' labels an event without a duration"),
        };
        sample.map(|d| (label, d))
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::TaskState { task, state, info } => {
                write!(f, "task {task} -> {}", state.tag())?;
                if !info.is_empty() {
                    write!(f, " ({info})")?;
                }
                Ok(())
            }
            TraceEvent::SchedulerDispatch {
                task,
                scheduler,
                queue_depth,
            } => {
                write!(
                    f,
                    "dispatch task {task} via {scheduler}, {queue_depth} still queued"
                )
            }
            TraceEvent::ConfigDownload {
                task,
                frames,
                bytes,
                duration,
                full,
            } => write!(
                f,
                "{} download for task {task}: {frames} frames, {bytes} B, {:.3} ms",
                if *full { "full" } else { "partial" },
                duration.as_millis_f64()
            ),
            TraceEvent::DeltaDownload {
                task,
                from_circuit,
                to_circuit,
                frames,
                full_frames,
                duration,
            } => write!(
                f,
                "delta download for task {task}: circuit {from_circuit} -> {to_circuit}, \
                 {frames}/{full_frames} frames, {:.3} ms",
                duration.as_millis_f64()
            ),
            TraceEvent::DeltaInvalidate {
                col0,
                width,
                reason,
            } => write!(
                f,
                "delta base invalidated [{reason}]: cols [{col0}, {})",
                col0 + width
            ),
            TraceEvent::DeltaCheckpoint {
                seq,
                frames,
                full_frames,
                chain,
                duration,
            } => write!(
                f,
                "delta checkpoint #{seq}: {frames}/{full_frames} frames, chain {chain}, {:.3} ms",
                duration.as_millis_f64()
            ),
            TraceEvent::Preemption {
                task,
                policy,
                saved,
                rolled_back,
            } => write!(
                f,
                "preempt task {task} [{policy}]: saved {:.3} ms, rolled back {:.3} ms",
                saved.as_millis_f64(),
                rolled_back.as_millis_f64()
            ),
            TraceEvent::GcRun {
                merged,
                relocations,
                failures,
                duration,
            } => write!(
                f,
                "gc: merged {merged} fragments, {relocations} relocations \
                 ({failures} failed), {:.3} ms",
                duration.as_millis_f64()
            ),
            TraceEvent::PageFault {
                page,
                policy,
                victim,
                duration,
            } => {
                write!(f, "fault page {page} [{policy}]")?;
                if let Some(v) = victim {
                    write!(f, ", evict page {v}")?;
                }
                write!(f, ", {:.3} ms", duration.as_millis_f64())
            }
            TraceEvent::OverlaySwap {
                task,
                from_overlay,
                to_overlay,
                duration,
            } => write!(
                f,
                "overlay swap task {task}: {from_overlay} -> {to_overlay}, {:.3} ms",
                duration.as_millis_f64()
            ),
            TraceEvent::IoMuxGrant { task, slot, pins } => {
                write!(f, "iomux grant slot {slot} ({pins} pins) to task {task}")
            }
            TraceEvent::FaultInjected { kind, circuit, col } => {
                write!(f, "inject {kind} fault")?;
                if let Some(c) = col {
                    write!(f, " at col {c}")?;
                }
                match circuit {
                    Some(cid) => write!(f, " hitting circuit {cid}"),
                    None => write!(f, " (benign: no circuit hit)"),
                }
            }
            TraceEvent::CrcMismatch {
                circuit,
                task,
                context,
            } => {
                write!(f, "crc mismatch on circuit {circuit} [{context}]")?;
                if let Some(t) = task {
                    write!(f, " for task {t}")?;
                }
                Ok(())
            }
            TraceEvent::ScrubPass {
                frames,
                found,
                duration,
            } => write!(
                f,
                "scrub {frames} frames, {found} upsets found, {:.3} ms",
                duration.as_millis_f64()
            ),
            TraceEvent::RetryScheduled {
                task,
                attempt,
                backoff,
            } => write!(
                f,
                "retry #{attempt} for task {task} after {:.3} ms backoff",
                backoff.as_millis_f64()
            ),
            TraceEvent::TaskFailed { task, reason } => {
                write!(f, "task {task} failed: {reason}")
            }
            TraceEvent::ColumnRetired {
                col,
                relocations,
                duration,
            } => write!(
                f,
                "retire col {col}: {relocations} relocations, {:.3} ms",
                duration.as_millis_f64()
            ),
            TraceEvent::Recovered {
                circuit,
                task,
                lost,
                duration,
            } => {
                write!(f, "recovered circuit {circuit}")?;
                if let Some(t) = task {
                    write!(f, " (task {t})")?;
                }
                write!(
                    f,
                    ": lost {:.3} ms, repair {:.3} ms",
                    lost.as_millis_f64(),
                    duration.as_millis_f64()
                )
            }
            TraceEvent::CheckpointTaken {
                seq,
                frames,
                duration,
            } => write!(
                f,
                "checkpoint #{seq}: {frames} frames read back, {:.3} ms",
                duration.as_millis_f64()
            ),
            TraceEvent::Crash {
                downloads_at_risk,
                torn,
            } => write!(
                f,
                "host crash: {downloads_at_risk} downloads past last checkpoint{}",
                if *torn { ", one torn mid-flight" } else { "" }
            ),
            TraceEvent::JournalReplay {
                redone,
                undone,
                duration,
            } => write!(
                f,
                "journal replay: {redone} redone, {undone} undone, {:.3} ms",
                duration.as_millis_f64()
            ),
            TraceEvent::WatchdogArmed { task, deadline } => write!(
                f,
                "watchdog armed for task {task}: fires in {:.3} ms",
                deadline.as_millis_f64()
            ),
            TraceEvent::WatchdogFired { task, trip, lost } => write!(
                f,
                "watchdog fired for task {task} (trip #{trip}): lost {:.3} ms",
                lost.as_millis_f64()
            ),
            TraceEvent::TaskRejected { task, tenant } => {
                write!(f, "reject task {task}: tenant {tenant} over quota")
            }
            TraceEvent::TaskQuarantined { task, reason } => {
                write!(f, "quarantine task {task}: {reason}")
            }
            TraceEvent::DegradedDispatch {
                task,
                circuit,
                duration,
            } => write!(
                f,
                "degraded dispatch task {task}: circuit {circuit} emulated in \
                 software, {:.3} ms",
                duration.as_millis_f64()
            ),
            TraceEvent::TaskUnschedulable {
                task,
                tenant,
                estimate,
                deadline,
            } => write!(
                f,
                "unschedulable task {task}: tenant {tenant}, estimate {:.3} ms \
                 exceeds deadline {:.3} ms",
                estimate.as_millis_f64(),
                deadline.as_millis_f64()
            ),
            TraceEvent::DegradeModeEnter { used, total } => write!(
                f,
                "degraded mode entered: {used}/{total} CLBs past the high mark"
            ),
            TraceEvent::DegradeModeExit { used, total } => write!(
                f,
                "degraded mode left: {used}/{total} CLBs below the low mark"
            ),
            TraceEvent::DeviceCrash { device, outage } => write!(
                f,
                "device {device} crashed: configuration lost, down for {:.3} ms",
                outage.as_millis_f64()
            ),
            TraceEvent::DeviceRejoin { device } => {
                write!(f, "device {device} rejoined the fleet, blank")
            }
            TraceEvent::Failover {
                from_device,
                to_device,
                tasks,
                redo,
            } => write!(
                f,
                "failover dev {from_device} -> dev {to_device}: {tasks} tasks, \
                 redo window {:.3} ms",
                redo.as_millis_f64()
            ),
            TraceEvent::SoftwareFailover { from_device, tasks } => write!(
                f,
                "device {from_device} down, no destination: {tasks} tasks \
                 degraded to the software path"
            ),
            TraceEvent::FleetRebalance {
                shard,
                from_device,
                to_device,
            } => write!(
                f,
                "shard {shard} rebalanced dev {from_device} -> dev {to_device}"
            ),
            TraceEvent::FleetLost { device, tasks } => write!(
                f,
                "device {device} down, no destination: {tasks} tasks lost in flight"
            ),
            TraceEvent::MigrationPrepare {
                tenant,
                from_device,
                to_device,
                tasks,
            } => write!(
                f,
                "migration prepare tenant {tenant} dev {from_device} -> dev {to_device}: \
                 {tasks} live tasks, intent journaled on both sides"
            ),
            TraceEvent::MigrationCommit {
                tenant,
                from_device,
                to_device,
                redo,
            } => write!(
                f,
                "migration commit tenant {tenant} dev {from_device} -> dev {to_device}: \
                 redo window {:.3} ms",
                redo.as_millis_f64()
            ),
            TraceEvent::MigrationAbort {
                tenant,
                from_device,
                to_device,
                reason,
            } => {
                if *to_device == u32::MAX {
                    write!(
                        f,
                        "migration abort tenant {tenant} on dev {from_device}: {reason}"
                    )
                } else {
                    write!(
                        f,
                        "migration abort tenant {tenant} dev {from_device} -> dev {to_device}: \
                         {reason}"
                    )
                }
            }
            TraceEvent::MigrationFreed {
                tenant,
                device,
                claims,
                redone,
            } => write!(
                f,
                "migration freed tenant {tenant} source dev {device}: {claims} claims{}",
                if *redone {
                    " (redone by journal replay)"
                } else {
                    ""
                }
            ),
            TraceEvent::Custom { message, .. } => f.write_str(message),
        }
    }
}

/// One trace record: a timestamped typed event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// When the action happened.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

impl TraceEntry {
    /// The event's category tag.
    pub fn tag(&self) -> &'static str {
        self.event.tag()
    }

    /// Rendered human-readable details (derived from the typed fields).
    pub fn message(&self) -> String {
        self.event.to_string()
    }
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{:>14}] {:<8} {}",
            self.at.to_string(),
            self.tag(),
            self.event
        )
    }
}

/// An event buffer that can be globally enabled or disabled, and
/// optionally capacity-bounded.
///
/// When disabled (the default for benchmark runs), [`Trace::record`] and
/// [`Trace::emit`] are no-ops, so tracing costs one branch.
///
/// With a capacity set ([`Trace::enabled_with_capacity`]) the buffer is a
/// ring: once full, recording a new event silently discards the *oldest*
/// retained event and increments [`Trace::dropped`]. Consequently:
///
/// * [`Trace::len`] is the number of events currently *retained*
///   (at most the capacity), **not** the number ever recorded — use
///   [`Trace::total_recorded`] for that;
/// * [`Trace::entries`] yields only the retained suffix of the stream, in
///   emission order.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    capacity: Option<usize>,
    entries: VecDeque<TraceEntry>,
    dropped: u64,
}

impl Trace {
    /// A disabled trace (records nothing).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// An enabled, unbounded trace.
    pub fn enabled() -> Self {
        Trace {
            enabled: true,
            ..Trace::default()
        }
    }

    /// An enabled trace retaining at most `capacity` events (ring buffer,
    /// oldest dropped first). `capacity` must be nonzero.
    pub fn enabled_with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be nonzero");
        Trace {
            enabled: true,
            capacity: Some(capacity),
            entries: VecDeque::with_capacity(capacity),
            dropped: 0,
        }
    }

    /// Whether entries are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The retention bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Record a typed event if enabled.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if let Some(cap) = self.capacity {
            if self.entries.len() == cap {
                self.entries.pop_front();
                self.dropped += 1;
            }
        }
        self.entries.push_back(TraceEntry { at, event });
    }

    /// Record a [`TraceEvent::Custom`] entry if enabled. The message
    /// closure is only evaluated when the trace is on.
    pub fn emit(&mut self, at: SimTime, tag: &'static str, message: impl FnOnce() -> String) {
        if self.enabled {
            self.record(
                at,
                TraceEvent::Custom {
                    tag,
                    message: message(),
                },
            );
        }
    }

    /// Retained entries in emission order. With a capacity set this is the
    /// most recent suffix of the event stream; earlier events have been
    /// dropped (see [`Trace::dropped`]).
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> + '_ {
        self.entries.iter()
    }

    /// Retained entries with the given tag, in emission order.
    pub fn with_tag<'a>(&'a self, tag: &'a str) -> impl Iterator<Item = &'a TraceEntry> + 'a {
        self.entries.iter().filter(move |e| e.tag() == tag)
    }

    /// Number of *retained* entries (bounded by the capacity, if set).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Events discarded by the ring buffer since the last [`Trace::clear`].
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (retained + dropped) since the last
    /// [`Trace::clear`].
    pub fn total_recorded(&self) -> u64 {
        self.entries.len() as u64 + self.dropped
    }

    /// Drop all retained entries and reset the dropped counter.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_and_skips_closure() {
        let mut t = Trace::disabled();
        let mut evaluated = false;
        t.emit(SimTime(1), "x", || {
            evaluated = true;
            "boom".into()
        });
        assert!(!evaluated, "message closure must not run when disabled");
        t.record(
            SimTime(2),
            TraceEvent::TaskState {
                task: 0,
                state: TaskState::Arrive,
                info: String::new(),
            },
        );
        assert!(t.is_empty());
        assert_eq!(t.total_recorded(), 0);
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.emit(SimTime(1), "a", || "first".into());
        t.record(
            SimTime(2),
            TraceEvent::TaskState {
                task: 7,
                state: TaskState::Done,
                info: "t7".into(),
            },
        );
        assert_eq!(t.len(), 2);
        let entries: Vec<_> = t.entries().collect();
        assert_eq!(entries[0].message(), "first");
        assert_eq!(entries[1].at, SimTime(2));
        assert_eq!(entries[1].tag(), "done");
    }

    #[test]
    fn tag_filter_spans_typed_and_custom() {
        let mut t = Trace::enabled();
        t.emit(SimTime(1), "sched", || "s1".into());
        t.record(
            SimTime(2),
            TraceEvent::ConfigDownload {
                task: 1,
                frames: 4,
                bytes: 512,
                duration: SimDuration::from_micros(30),
                full: false,
            },
        );
        t.emit(SimTime(3), "sched", || "s2".into());
        let scheds: Vec<_> = t.with_tag("sched").map(|e| e.message()).collect();
        assert_eq!(scheds, vec!["s1", "s2"]);
        assert_eq!(t.with_tag("config").count(), 1);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut t = Trace::enabled_with_capacity(3);
        for i in 0..5u64 {
            t.emit(SimTime(i), "x", || format!("m{i}"));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        assert_eq!(t.total_recorded(), 5);
        let kept: Vec<_> = t.entries().map(|e| e.at.0).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest entries must go first");
        t.clear();
        assert_eq!(t.dropped(), 0);
        assert!(t.is_empty());
    }

    #[test]
    fn display_contains_fields() {
        let e = TraceEntry {
            at: SimTime(1_500_000),
            event: TraceEvent::GcRun {
                merged: 2,
                relocations: 1,
                failures: 0,
                duration: SimDuration::from_micros(250),
            },
        };
        let s = e.to_string();
        assert!(s.contains("gc"));
        assert!(s.contains("merged 2 fragments"));

        let f = TraceEvent::PageFault {
            page: 3,
            policy: "lru",
            victim: Some(1),
            duration: SimDuration::from_micros(10),
        };
        let fs = f.to_string();
        assert!(fs.contains("fault page 3"));
        assert!(fs.contains("evict page 1"));
        assert_eq!(f.tag(), "fault");
    }

    #[test]
    fn fault_event_tags_and_display() {
        let cases: Vec<(TraceEvent, &str, &str)> = vec![
            (
                TraceEvent::FaultInjected {
                    kind: "seu",
                    circuit: Some(2),
                    col: Some(7),
                },
                "fault-inj",
                "inject seu fault at col 7 hitting circuit 2",
            ),
            (
                TraceEvent::CrcMismatch {
                    circuit: 3,
                    task: Some(1),
                    context: "download",
                },
                "crc",
                "crc mismatch on circuit 3 [download] for task 1",
            ),
            (
                TraceEvent::ScrubPass {
                    frames: 12,
                    found: 1,
                    duration: SimDuration::from_micros(80),
                },
                "scrub",
                "scrub 12 frames, 1 upsets found",
            ),
            (
                TraceEvent::RetryScheduled {
                    task: 4,
                    attempt: 2,
                    backoff: SimDuration::from_millis(1),
                },
                "retry",
                "retry #2 for task 4",
            ),
            (
                TraceEvent::TaskFailed {
                    task: 5,
                    reason: "download retries exhausted",
                },
                "task-fail",
                "task 5 failed: download retries exhausted",
            ),
            (
                TraceEvent::ColumnRetired {
                    col: 9,
                    relocations: 1,
                    duration: SimDuration::from_micros(40),
                },
                "col-retire",
                "retire col 9: 1 relocations",
            ),
            (
                TraceEvent::Recovered {
                    circuit: 6,
                    task: None,
                    lost: SimDuration::ZERO,
                    duration: SimDuration::from_micros(25),
                },
                "recover",
                "recovered circuit 6",
            ),
        ];
        for (ev, tag, fragment) in cases {
            assert_eq!(ev.tag(), tag);
            let s = ev.to_string();
            assert!(s.contains(fragment), "{s:?} missing {fragment:?}");
        }
    }

    #[test]
    fn admission_event_tags_and_display() {
        let cases: Vec<(TraceEvent, &str, &str)> = vec![
            (
                TraceEvent::WatchdogArmed {
                    task: 1,
                    deadline: SimDuration::from_millis(3),
                },
                "wd-arm",
                "watchdog armed for task 1",
            ),
            (
                TraceEvent::WatchdogFired {
                    task: 1,
                    trip: 2,
                    lost: SimDuration::from_millis(6),
                },
                "wd-fire",
                "watchdog fired for task 1 (trip #2)",
            ),
            (
                TraceEvent::TaskRejected { task: 4, tenant: 2 },
                "reject",
                "reject task 4: tenant 2 over quota",
            ),
            (
                TraceEvent::TaskQuarantined {
                    task: 3,
                    reason: "watchdog trips exhausted",
                },
                "quarantine",
                "quarantine task 3: watchdog trips exhausted",
            ),
            (
                TraceEvent::DegradedDispatch {
                    task: 5,
                    circuit: 7,
                    duration: SimDuration::from_micros(900),
                },
                "degrade",
                "degraded dispatch task 5: circuit 7 emulated in software",
            ),
            (
                TraceEvent::TaskUnschedulable {
                    task: 6,
                    tenant: 1,
                    estimate: SimDuration::from_millis(80),
                    deadline: SimDuration::from_millis(20),
                },
                "unsched",
                "unschedulable task 6: tenant 1",
            ),
            (
                TraceEvent::DegradeModeEnter {
                    used: 180,
                    total: 200,
                },
                "degrade-on",
                "degraded mode entered: 180/200 CLBs",
            ),
            (
                TraceEvent::DegradeModeExit {
                    used: 60,
                    total: 200,
                },
                "degrade-off",
                "degraded mode left: 60/200 CLBs",
            ),
            (
                TraceEvent::DeviceCrash {
                    device: 2,
                    outage: SimDuration::from_millis(4),
                },
                "dev-crash",
                "device 2 crashed",
            ),
            (
                TraceEvent::DeviceRejoin { device: 2 },
                "dev-rejoin",
                "device 2 rejoined",
            ),
            (
                TraceEvent::Failover {
                    from_device: 2,
                    to_device: 0,
                    tasks: 5,
                    redo: SimDuration::from_millis(1),
                },
                "failover",
                "failover dev 2 -> dev 0: 5 tasks",
            ),
            (
                TraceEvent::SoftwareFailover {
                    from_device: 1,
                    tasks: 3,
                },
                "sw-failover",
                "degraded to the software path",
            ),
            (
                TraceEvent::FleetRebalance {
                    shard: 1,
                    from_device: 0,
                    to_device: 2,
                },
                "rebalance",
                "shard 1 rebalanced dev 0 -> dev 2",
            ),
            (
                TraceEvent::FleetLost {
                    device: 3,
                    tasks: 2,
                },
                "lost",
                "2 tasks lost in flight",
            ),
        ];
        for (ev, tag, fragment) in cases {
            assert_eq!(ev.tag(), tag);
            let s = ev.to_string();
            assert!(s.contains(fragment), "{s:?} missing {fragment:?}");
        }
    }

    #[test]
    fn task_state_tags_match_lifecycle_names() {
        for (state, tag) in [
            (TaskState::Arrive, "arrive"),
            (TaskState::Ready, "ready"),
            (TaskState::Run, "run"),
            (TaskState::Block, "block"),
            (TaskState::Done, "done"),
        ] {
            let ev = TraceEvent::TaskState {
                task: 0,
                state,
                info: String::new(),
            };
            assert_eq!(ev.tag(), tag);
        }
    }

    #[test]
    fn delta_event_tags_and_display() {
        let cases: Vec<(TraceEvent, &str, &str)> = vec![
            (
                TraceEvent::DeltaDownload {
                    task: 3,
                    from_circuit: 1,
                    to_circuit: 2,
                    frames: 2,
                    full_frames: 6,
                    duration: SimDuration::from_micros(40),
                },
                "delta",
                "delta download for task 3: circuit 1 -> 2, 2/6 frames",
            ),
            (
                TraceEvent::DeltaInvalidate {
                    col0: 4,
                    width: 3,
                    reason: "retire",
                },
                "delta-inv",
                "delta base invalidated [retire]: cols [4, 7)",
            ),
            (
                TraceEvent::DeltaCheckpoint {
                    seq: 5,
                    frames: 3,
                    full_frames: 9,
                    chain: 2,
                    duration: SimDuration::from_micros(10),
                },
                "ckpt-delta",
                "delta checkpoint #5: 3/9 frames, chain 2",
            ),
        ];
        for (ev, tag, fragment) in cases {
            assert_eq!(ev.tag(), tag);
            let s = ev.to_string();
            assert!(s.contains(fragment), "{s:?} missing {fragment:?}");
        }
    }
}
