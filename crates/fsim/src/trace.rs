//! Structured event tracing.
//!
//! The OS simulator emits a typed [`TraceEvent`] for every externally
//! observable action — task state changes, downloads, preemptions, GC,
//! page faults, overlay swaps, I/O-mux grants, dispatches, and the fault,
//! checkpoint, admission and fleet machinery — with its payload as typed
//! fields, so tools (`trace_dump`, the exporter) aggregate without parsing
//! strings. Each variant is declared once, as one row of the table below:
//! docs and fields, tag, registry counters, latency label and sample,
//! message. The enum, its names, [`TraceEvent::counts`],
//! [`TraceEvent::latency`], `Display` and [`TraceEvent::TAGS`] are
//! generated from the rows, so a new event is one row.
//!
//! Experiments usually run with the trace disabled for speed. A [`Trace`]
//! can also be capacity-bounded: a ring buffer of the most recent events.

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt;

/// The lifecycle states a simulated task moves through. Their tags and
/// counters are the `TaskState` cases of the event table.
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
    /// Short tag for filtering, e.g. `"arrive"` or `"done"`.
    pub fn tag(self) -> &'static str {
        self.event().tag()
    }

    /// Counter name a metrics registry uses for this transition.
    pub fn counter_name(self) -> &'static str {
        self.event().counter_name()
    }

    /// An event entering this state: its row holds the state's names.
    fn event(self) -> TraceEvent {
        TraceEvent::TaskState {
            task: 0,
            state: self,
            info: String::new(),
        }
    }
}

/// One variant of the event table as data: what [`TraceEvent::TAGS`] and
/// the table's consistency test read.
#[cfg_attr(not(test), allow(dead_code))] // the test reads every column
struct Row {
    variant: &'static str,
    fields: &'static [&'static str],
    /// `(tag, counter, latency label)`, one a case.
    cases: &'static [(&'static str, &'static str, Option<&'static str>)],
    /// `(counter, field)` for each counter that sums a payload field.
    payload: &'static [(&'static str, &'static str)],
    /// The field the row's own counter sums instead of counting 1.
    by: Option<&'static str>,
    /// The latency sample, as written.
    sample: Option<&'static str>,
}

/// Declare [`TraceEvent`], one row a variant, and generate the rest. A row:
///
/// ```text
/// /// docs
/// Variant {
///     /// docs
///     field: Type, ...
/// } (pattern)? "tag" "counter" "latency label"? | ...   -- its cases
/// (+ "payload counter" field)* (by field)? (sample expr)?
/// => "message", args...;
/// ```
///
/// * A variant whose names depend on a field (`TaskState`, `ConfigDownload`)
///   gives each case a struct-field pattern; any other is one case.
/// * An occurrence bumps its counter by 1 (or by the field `by` names), and
///   each `+` counter by its field.
/// * A labelled case feeds the latency profile the variant's `sample`: a
///   `SimDuration`, or an `Option` of one (`None`: no sample).
/// * The message is `write!`'s format and arguments over the fields, bound
///   by name (by reference), so `"{task}"` reads the field.
macro_rules! trace_events {
    ($(
        $(#[$doc:meta])*
        $variant:ident { $($(#[$fdoc:meta])* $field:ident: $ty:ty,)* }
        $($(($($case:tt)*))? $tag:literal $counter:literal $($label:literal)?)|+
        $(+ $payload:literal $pfield:ident)*
        $(by $by:ident)?
        $(sample $sample:expr)?
        => $fmt:literal $(, $arg:expr)*;
    )*) => {
        /// One typed, structured trace event.
        ///
        /// Task identifiers are plain `u32`s here (the kernel does not know
        /// the OS layer's newtypes); the emitting layer documents the mapping.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TraceEvent {
            $($(#[$doc])* $variant { $($(#[$fdoc])* $field: $ty,)* },)*
            /// Escape hatch for one-off annotations, and the one variant
            /// outside the table: its tag and message are the caller's, and
            /// it counts under `custom_events`.
            Custom {
                /// Category tag.
                tag: &'static str,
                /// Free-form details.
                message: String,
            },
        }

        const ROWS: &[Row] = &[$(Row {
            variant: stringify!($variant),
            fields: &[$(stringify!($field)),*],
            cases: &[$(($tag, $counter, trace_events!(@opt $($label)?))),+],
            payload: &[$(($payload, stringify!($pfield))),*],
            by: trace_events!(@opt $(stringify!($by))?),
            sample: trace_events!(@opt $(stringify!($sample))?),
        }),*];

        impl TraceEvent {
            /// Every tag the table declares, once each, in table order.
            /// `Custom` events carry their caller's instead (`"evict"`).
            pub const TAGS: &'static [&'static str] = &table_tags::<{ table_tags::<0>().1 }>().0;

            /// The event's category tag, used by [`Trace::with_tag`] and
            /// `trace_dump` filtering. Task-state events use the state name
            /// (`"arrive"`, `"block"`, `"done"`, …) so lifecycle assertions
            /// can filter directly on the transition.
            pub fn tag(&self) -> &'static str {
                match self {
                    $($(Self::$variant { $($($case)*,)? .. } => $tag,)+)*
                    Self::Custom { tag, .. } => tag,
                }
            }

            /// Name of the registry counter this event bumps. `FleetLost`
            /// and `MigrationFreed` name the sum of their payload (tasks,
            /// claims), not a count of occurrences.
            pub fn counter_name(&self) -> &'static str {
                match self {
                    $($(Self::$variant { $($($case)*,)? .. } => $counter,)+)*
                    Self::Custom { .. } => "custom_events",
                }
            }

            /// Every `(registry counter, increment)` one occurrence adds:
            /// its own counter first, then its payload counters.
            #[allow(unused_variables)]
            pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> {
                let own = self.counter_name();
                let counts = match self {
                    $(Self::$variant { $($field),* } => padded(
                        (own, trace_events!(@by $($by)?)),
                        [$(($payload, u64::from(*$pfield))),*],
                    ),)*
                    Self::Custom { .. } => padded((own, 1), []),
                };
                counts.into_iter().flatten()
            }

            /// Latency-histogram label and sample, for the events whose
            /// duration is profiled.
            #[allow(unused_variables)]
            pub fn latency(&self) -> Option<(&'static str, SimDuration)> {
                let label = match self {
                    $($(Self::$variant { $($($case)*,)? .. } => trace_events!(@opt $($label)?),)+)*
                    Self::Custom { .. } => None,
                };
                let sample: Option<SimDuration> = match self {
                    $(Self::$variant { $($field),* } => trace_events!(@sample $($sample)?),)*
                    Self::Custom { .. } => None,
                };
                label.zip(sample)
            }
        }

        impl fmt::Display for TraceEvent {
            #[allow(unused_variables)]
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(Self::$variant { $($field),* } => write!(f, $fmt $(, $arg)*),)*
                    Self::Custom { message, .. } => f.write_str(message),
                }
            }
        }
    };
    (@opt) => { None };
    (@opt $x:expr) => { Some($x) };
    (@by) => { 1 };
    (@by $field:ident) => { u64::from(*$field) };
    (@sample) => { None };
    (@sample $x:expr) => { Option::from($x) };
}

/// An occurrence's counts, padded to the widest row's three.
fn padded<const N: usize>(
    own: (&'static str, u64),
    payload: [(&'static str, u64); N],
) -> [Option<(&'static str, u64)>; 3] {
    let mut out = [Some(own), None, None];
    for (slot, c) in out[1..].iter_mut().zip(payload) {
        *slot = Some(c);
    }
    out
}

/// The table's tags in order, a variant's cases sharing one counted once:
/// the first `N` of them and how many there are.
const fn table_tags<const N: usize>() -> ([&'static str; N], usize) {
    let mut out = [""; N];
    let (mut n, mut v) = (0, 0);
    while v < ROWS.len() {
        let cases = ROWS[v].cases;
        let mut c = 0;
        while c < cases.len() {
            if c == 0 || !same(cases[c].0, cases[c - 1].0) {
                if n < N {
                    out[n] = cases[c].0;
                }
                n += 1;
            }
            c += 1;
        }
        v += 1;
    }
    (out, n)
}

/// `a == b` where only a `const fn` may run.
const fn same(a: &str, b: &str) -> bool {
    let (a, b, mut i) = (a.as_bytes(), b.as_bytes(), 0);
    while i < a.len() && i < b.len() && a[i] == b[i] {
        i += 1;
    }
    i == a.len() && i == b.len()
}

trace_events! {
    /// A task changed lifecycle state.
    TaskState {
        /// Task identifier.
        task: u32,
        /// The state entered.
        state: TaskState,
        /// Free-form context, e.g. the task name or blocking reason.
        info: String,
    } (state: TaskState::Arrive) "arrive" "tasks_arrived"
    | (state: TaskState::Ready) "ready" "tasks_ready"
    | (state: TaskState::Run) "run" "task_runs"
    | (state: TaskState::Block) "block" "task_blocks"
    | (state: TaskState::Done) "done" "tasks_completed"
    => "task {task} -> {}{}", state.tag(),
        if info.is_empty() { String::new() } else { format!(" ({info})") };
    /// The scheduler granted the device to a task.
    SchedulerDispatch {
        /// Task identifier.
        task: u32,
        /// Scheduler policy name.
        scheduler: &'static str,
        /// Ready-queue depth *after* removing the dispatched task.
        queue_depth: usize,
    } "dispatch" "dispatches" => "dispatch task {task} via {scheduler}, {queue_depth} still queued";
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
    } (full: true) "config" "config_downloads" "download_full"
    | (full: false) "config" "config_downloads" "download_partial"
    + "config_frames" frames + "config_bytes" bytes sample *duration
    => "{} download for task {task}: {frames} frames, {bytes} B, {:.3} ms",
        if *full { "full" } else { "partial" }, duration.as_millis_f64();
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
    } "delta" "delta_downloads" "download_delta" + "delta_frames" frames sample *duration
    => "delta download for task {task}: circuit {from_circuit} -> {to_circuit}, \
        {frames}/{full_frames} frames, {:.3} ms", duration.as_millis_f64();
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
    } "delta-inv" "delta_invalidations"
    => "delta base invalidated [{reason}]: cols [{col0}, {})", col0 + width;
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
    } "ckpt-delta" "delta_checkpoints" "checkpoint_delta" sample *duration
    => "delta checkpoint #{seq}: {frames}/{full_frames} frames, chain {chain}, {:.3} ms",
        duration.as_millis_f64();
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
    } "preempt" "preemptions" "preempt_save"
    // A preemption that saved nothing took no time worth a sample.
    sample Some(*saved).filter(|d| *d > SimDuration::ZERO)
    => "preempt task {task} [{policy}]: saved {:.3} ms, rolled back {:.3} ms",
        saved.as_millis_f64(), rolled_back.as_millis_f64();
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
    } "gc" "gc_runs" "gc_run" + "gc_relocations" relocations sample *duration
    => "gc: merged {merged} fragments, {relocations} relocations ({failures} failed), {:.3} ms",
        duration.as_millis_f64();
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
    } "fault" "page_faults" "page_fault" sample *duration
    => "fault page {page} [{policy}]{}, {:.3} ms",
        victim.map(|v| format!(", evict page {v}")).unwrap_or_default(), duration.as_millis_f64();
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
    } "overlay" "overlay_swaps" "overlay_swap" sample *duration
    => "overlay swap task {task}: {from_overlay} -> {to_overlay}, {:.3} ms",
        duration.as_millis_f64();
    /// The I/O multiplexer granted pins to a task.
    IoMuxGrant {
        /// Task identifier.
        task: u32,
        /// Slot index granted.
        slot: u32,
        /// Pins in the slot.
        pins: u32,
    } "iomux" "iomux_grants" => "iomux grant slot {slot} ({pins} pins) to task {task}";
    /// A fault was injected into the device.
    FaultInjected {
        /// Fault class: `"download"`, `"seu"`, or `"column"`.
        kind: &'static str,
        /// Circuit whose configuration the fault struck, if any.
        circuit: Option<u32>,
        /// Fabric column struck, when the fault has a location.
        col: Option<u32>,
    } "fault-inj" "faults_injected"
    => "inject {kind} fault{}{}", col.map(|c| format!(" at col {c}")).unwrap_or_default(),
        circuit.map_or(" (benign: no circuit hit)".into(), |c| format!(" hitting circuit {c}"));
    /// A CRC check caught corrupted configuration data.
    CrcMismatch {
        /// Circuit whose configuration failed the check.
        circuit: u32,
        /// Task affected, if the corruption was caught on its download.
        task: Option<u32>,
        /// Where the check ran: `"download"` or `"scrub"`.
        context: &'static str,
    } "crc" "crc_mismatches"
    => "crc mismatch on circuit {circuit} [{context}]{}",
        task.map(|t| format!(" for task {t}")).unwrap_or_default();
    /// One periodic scrubbing pass (readback + CRC compare).
    ScrubPass {
        /// Configuration frames read back.
        frames: u32,
        /// Latent upsets detected this pass.
        found: u32,
        /// Readback port time charged.
        duration: SimDuration,
    } "scrub" "scrub_passes" "scrub_pass" sample *duration
    => "scrub {frames} frames, {found} upsets found, {:.3} ms", duration.as_millis_f64();
    /// A corrupted download will be retried after a backoff.
    RetryScheduled {
        /// Task whose download failed.
        task: u32,
        /// Attempt number (1 = first retry).
        attempt: u32,
        /// Backoff delay before the retry.
        backoff: SimDuration,
    } "retry" "retries_scheduled"
    => "retry #{attempt} for task {task} after {:.3} ms backoff", backoff.as_millis_f64();
    /// A task was declared failed (recovery gave up on it).
    TaskFailed {
        /// Task identifier.
        task: u32,
        /// Why recovery gave up.
        reason: &'static str,
    } "task-fail" "tasks_failed" => "task {task} failed: {reason}";
    /// A fabric column was permanently retired.
    ColumnRetired {
        /// The failed column.
        col: u32,
        /// Resident circuits relocated off the column.
        relocations: u32,
        /// Relocation/eviction cost of the retirement.
        duration: SimDuration,
    } "col-retire" "columns_retired" "column_retire" sample *duration
    => "retire col {col}: {relocations} relocations, {:.3} ms", duration.as_millis_f64();
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
    } "recover" "recoveries" "recovery" sample *duration
    => "recovered circuit {circuit}{}: lost {:.3} ms, repair {:.3} ms",
        task.map(|t| format!(" (task {t})")).unwrap_or_default(),
        lost.as_millis_f64(), duration.as_millis_f64();
    /// A system checkpoint was captured.
    CheckpointTaken {
        /// Checkpoint sequence number (monotone within a run).
        seq: u64,
        /// Resident frames read back to capture device-visible state.
        frames: u32,
        /// Readback cost of the capture (background, like scrubbing).
        duration: SimDuration,
    } "ckpt" "checkpoints" "checkpoint_capture" sample *duration
    => "checkpoint #{seq}: {frames} frames read back, {:.3} ms", duration.as_millis_f64();
    /// The host crashed: volatile OS state is gone, and any in-flight
    /// download was torn.
    Crash {
        /// Downloads whose WAL records were past the last checkpoint
        /// (committed after it, or torn by the crash itself).
        downloads_at_risk: u32,
        /// Whether a download was in flight (and therefore torn).
        torn: bool,
    } "crash" "crashes"
    => "host crash: {downloads_at_risk} downloads past last checkpoint{}",
        if *torn { ", one torn mid-flight" } else { "" };
    /// Journal replay after a restart: committed downloads redone, torn
    /// ones rolled back.
    JournalReplay {
        /// Committed records re-applied.
        redone: u32,
        /// Torn records rolled back.
        undone: u32,
        /// Port time the replay cost.
        duration: SimDuration,
    } "replay" "journal_replays" "journal_replay" sample *duration
    => "journal replay: {redone} redone, {undone} undone, {:.3} ms", duration.as_millis_f64();
    /// A hang-detection watchdog was armed for a dispatched FPGA
    /// operation: the a-priori latency estimate times the slack factor.
    WatchdogArmed {
        /// Task identifier.
        task: u32,
        /// Delay from arming until the deadline expires.
        deadline: SimDuration,
    } "wd-arm" "watchdogs_armed"
    => "watchdog armed for task {task}: fires in {:.3} ms", deadline.as_millis_f64();
    /// A watchdog deadline expired: the operation overran its estimate
    /// and was forcibly preempted.
    WatchdogFired {
        /// Task identifier.
        task: u32,
        /// How many times this task has tripped the watchdog (1 = first).
        trip: u32,
        /// Operation progress discarded by the forced preemption.
        lost: SimDuration,
    } "wd-fire" "watchdogs_fired"
    => "watchdog fired for task {task} (trip #{trip}): lost {:.3} ms", lost.as_millis_f64();
    /// Admission control rejected a task outright (load shedding).
    TaskRejected {
        /// Task identifier.
        task: u32,
        /// Tenant whose quota and queue cap were both exhausted.
        tenant: u32,
    } "reject" "tasks_rejected" => "reject task {task}: tenant {tenant} over quota";
    /// A task was quarantined: removed from scheduling after repeated
    /// watchdog trips or exhausted fault recovery.
    TaskQuarantined {
        /// Task identifier.
        task: u32,
        /// Why the task was quarantined.
        reason: &'static str,
    } "quarantine" "tasks_quarantined" => "quarantine task {task}: {reason}";
    /// A saturated device sent an FPGA operation down the
    /// software-emulation path instead of queueing it.
    DegradedDispatch {
        /// Task identifier.
        task: u32,
        /// Circuit whose hardware run was emulated.
        circuit: u32,
        /// Software execution time charged in place of the FPGA run.
        duration: SimDuration,
    } "degrade" "degraded_dispatches" "degraded_run" sample *duration
    => "degraded dispatch task {task}: circuit {circuit} emulated in software, {:.3} ms",
        duration.as_millis_f64();
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
    } "unsched" "tasks_unschedulable"
    => "unschedulable task {task}: tenant {tenant}, estimate {:.3} ms exceeds deadline {:.3} ms",
        estimate.as_millis_f64(), deadline.as_millis_f64();
    /// Device utilization crossed the degradation high mark: the system
    /// entered sticky degraded mode. Only emitted for explicit
    /// hysteresis pairs.
    DegradeModeEnter {
        /// Resident CLBs at the transition.
        used: u64,
        /// Total device CLBs.
        total: u64,
    } "degrade-on" "degrade_mode_enters"
    => "degraded mode entered: {used}/{total} CLBs past the high mark";
    /// Device utilization fell below the degradation low mark: the
    /// system left degraded mode. Only emitted for explicit hysteresis
    /// pairs; enter/exit churn is the flapping the pair exists to kill.
    DegradeModeExit {
        /// Resident CLBs at the transition.
        used: u64,
        /// Total device CLBs.
        total: u64,
    } "degrade-off" "degrade_mode_exits"
    => "degraded mode left: {used}/{total} CLBs below the low mark";
    /// A physical device dropped off the shelf (power brownout, surprise
    /// removal): every resident configuration and flip-flop bit on it is
    /// lost. Emitted by the fleet harness, not a single-device run.
    DeviceCrash {
        /// The device that crashed.
        device: u32,
        /// How long it stays down before rejoining, blank.
        outage: SimDuration,
    } "dev-crash" "device_crashes"
    => "device {device} crashed: configuration lost, down for {:.3} ms", outage.as_millis_f64();
    /// A crashed device's outage ended: it rejoined the fleet with empty
    /// configuration RAM.
    DeviceRejoin {
        /// The device that rejoined.
        device: u32,
    } "dev-rejoin" "device_rejoins" => "device {device} rejoined the fleet, blank";
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
    } "failover" "failovers"
    => "failover dev {from_device} -> dev {to_device}: {tasks} tasks, redo window {:.3} ms",
        redo.as_millis_f64();
    /// No hardware destination had capacity within the retry budget: the
    /// shard fell back to the software (CPU-only) execution path.
    SoftwareFailover {
        /// The crashed source device.
        from_device: u32,
        /// Unfinished tasks degraded to software.
        tasks: u32,
    } "sw-failover" "software_failovers"
    => "device {from_device} down, no destination: {tasks} tasks degraded to the software path";
    /// Planned migration of a shard onto a rejoined device to even out
    /// hosting load.
    FleetRebalance {
        /// The migrated shard.
        shard: u32,
        /// The device it left.
        from_device: u32,
        /// The rejoined device it moved to.
        to_device: u32,
    } "rebalance" "rebalances" => "shard {shard} rebalanced dev {from_device} -> dev {to_device}";
    /// The failover retry budget expired with no destination and no
    /// software fallback: the shard's unfinished tasks were abandoned
    /// (counted in the disjoint lost-in-flight slice).
    FleetLost {
        /// The crashed device the tasks were resident on.
        device: u32,
        /// Tasks lost in flight.
        tasks: u32,
    } "lost" "lost_in_flight" by tasks
    => "device {device} down, no destination: {tasks} tasks lost in flight";
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
    } "mig-prepare" "migrations_prepared"
    => "migration prepare tenant {tenant} dev {from_device} -> dev {to_device}: \
        {tasks} live tasks, intent journaled on both sides";
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
    } "mig-commit" "migrations_committed"
    => "migration commit tenant {tenant} dev {from_device} -> dev {to_device}: \
        redo window {:.3} ms", redo.as_millis_f64();
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
    } "mig-abort" "migrations_aborted"
    => "migration abort tenant {tenant} {}: {reason}", match *to_device {
        u32::MAX => format!("on dev {from_device}"),
        to => format!("dev {from_device} -> dev {to}"),
    };
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
    } "mig-freed" "migration_claims_freed" by claims
    => "migration freed tenant {tenant} source dev {device}: {claims} claims{}",
        if *redone { " (redone by journal replay)" } else { "" };
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
/// When disabled (the default for benchmark runs), [`Trace::record`] is a
/// no-op, so tracing costs one branch.
///
/// With a capacity set ([`Trace::enabled_with_capacity`]) the buffer is a
/// ring: once full, recording a new event silently discards the *oldest*
/// retained event and increments [`Trace::dropped`]. Consequently:
///
/// * [`Trace::len`] is the number of events currently *retained*
///   (at most the capacity), **not** the number ever recorded — that is
///   `len() + dropped()`;
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

    /// Events discarded by the ring buffer.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn custom(tag: &'static str, message: &str) -> TraceEvent {
        TraceEvent::Custom {
            tag,
            message: message.into(),
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(
            SimTime(2),
            TraceEvent::TaskState {
                task: 0,
                state: TaskState::Arrive,
                info: String::new(),
            },
        );
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled();
        t.record(SimTime(1), custom("a", "first"));
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
        assert_eq!(entries[0].event.to_string(), "first");
        assert_eq!(entries[1].at, SimTime(2));
        assert_eq!(entries[1].tag(), "done");
        assert_eq!(entries[1].event.to_string(), "task 7 -> done (t7)");
    }

    #[test]
    fn tag_filter_spans_typed_and_custom() {
        let mut t = Trace::enabled();
        t.record(SimTime(1), custom("sched", "s1"));
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
        t.record(SimTime(3), custom("sched", "s2"));
        let scheds: Vec<_> = t.with_tag("sched").map(|e| e.event.to_string()).collect();
        assert_eq!(scheds, vec!["s1", "s2"]);
        assert_eq!(t.with_tag("config").count(), 1);
    }

    #[test]
    fn ring_buffer_drops_oldest() {
        let mut t = Trace::enabled_with_capacity(3);
        for i in 0..5u64 {
            t.record(SimTime(i), custom("x", &format!("m{i}")));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let kept: Vec<_> = t.entries().map(|e| e.at.0).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest entries must go first");
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

    /// Each `(event, tag, message)` renders exactly so.
    fn check(cases: Vec<(TraceEvent, &str, &str)>) {
        for (ev, tag, message) in cases {
            assert_eq!(ev.tag(), tag);
            assert_eq!(ev.to_string(), message);
        }
    }

    #[test]
    fn fault_event_tags_and_display() {
        check(vec![
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
                TraceEvent::FaultInjected {
                    kind: "download",
                    circuit: None,
                    col: None,
                },
                "fault-inj",
                "inject download fault (benign: no circuit hit)",
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
                "scrub 12 frames, 1 upsets found, 0.080 ms",
            ),
            (
                TraceEvent::RetryScheduled {
                    task: 4,
                    attempt: 2,
                    backoff: SimDuration::from_millis(1),
                },
                "retry",
                "retry #2 for task 4 after 1.000 ms backoff",
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
                "retire col 9: 1 relocations, 0.040 ms",
            ),
            (
                TraceEvent::Recovered {
                    circuit: 6,
                    task: None,
                    lost: SimDuration::ZERO,
                    duration: SimDuration::from_micros(25),
                },
                "recover",
                "recovered circuit 6: lost 0.000 ms, repair 0.025 ms",
            ),
            (
                TraceEvent::Recovered {
                    circuit: 6,
                    task: Some(2),
                    lost: SimDuration::ZERO,
                    duration: SimDuration::from_micros(25),
                },
                "recover",
                "recovered circuit 6 (task 2): lost 0.000 ms, repair 0.025 ms",
            ),
        ]);
    }

    #[test]
    fn admission_event_tags_and_display() {
        check(vec![
            (
                TraceEvent::WatchdogArmed {
                    task: 1,
                    deadline: SimDuration::from_millis(3),
                },
                "wd-arm",
                "watchdog armed for task 1: fires in 3.000 ms",
            ),
            (
                TraceEvent::WatchdogFired {
                    task: 1,
                    trip: 2,
                    lost: SimDuration::from_millis(6),
                },
                "wd-fire",
                "watchdog fired for task 1 (trip #2): lost 6.000 ms",
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
                "degraded dispatch task 5: circuit 7 emulated in software, 0.900 ms",
            ),
            (
                TraceEvent::TaskUnschedulable {
                    task: 6,
                    tenant: 1,
                    estimate: SimDuration::from_millis(80),
                    deadline: SimDuration::from_millis(20),
                },
                "unsched",
                "unschedulable task 6: tenant 1, estimate 80.000 ms exceeds deadline 20.000 ms",
            ),
            (
                TraceEvent::DegradeModeEnter {
                    used: 180,
                    total: 200,
                },
                "degrade-on",
                "degraded mode entered: 180/200 CLBs past the high mark",
            ),
            (
                TraceEvent::DegradeModeExit {
                    used: 60,
                    total: 200,
                },
                "degrade-off",
                "degraded mode left: 60/200 CLBs below the low mark",
            ),
            (
                TraceEvent::DeviceCrash {
                    device: 2,
                    outage: SimDuration::from_millis(4),
                },
                "dev-crash",
                "device 2 crashed: configuration lost, down for 4.000 ms",
            ),
            (
                TraceEvent::DeviceRejoin { device: 2 },
                "dev-rejoin",
                "device 2 rejoined the fleet, blank",
            ),
            (
                TraceEvent::Failover {
                    from_device: 2,
                    to_device: 0,
                    tasks: 5,
                    redo: SimDuration::from_millis(1),
                },
                "failover",
                "failover dev 2 -> dev 0: 5 tasks, redo window 1.000 ms",
            ),
            (
                TraceEvent::SoftwareFailover {
                    from_device: 1,
                    tasks: 3,
                },
                "sw-failover",
                "device 1 down, no destination: 3 tasks degraded to the software path",
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
                "device 3 down, no destination: 2 tasks lost in flight",
            ),
            (
                TraceEvent::MigrationAbort {
                    tenant: 1,
                    from_device: 0,
                    to_device: u32::MAX,
                    reason: "no destination",
                },
                "mig-abort",
                "migration abort tenant 1 on dev 0: no destination",
            ),
            (
                TraceEvent::MigrationAbort {
                    tenant: 1,
                    from_device: 0,
                    to_device: 2,
                    reason: "dest-mid-copy",
                },
                "mig-abort",
                "migration abort tenant 1 dev 0 -> dev 2: dest-mid-copy",
            ),
        ]);
    }

    #[test]
    fn task_state_tags_match_lifecycle_names() {
        for (state, tag, counter) in [
            (TaskState::Arrive, "arrive", "tasks_arrived"),
            (TaskState::Ready, "ready", "tasks_ready"),
            (TaskState::Run, "run", "task_runs"),
            (TaskState::Block, "block", "task_blocks"),
            (TaskState::Done, "done", "tasks_completed"),
        ] {
            let ev = TraceEvent::TaskState {
                task: 0,
                state,
                info: String::new(),
            };
            assert_eq!((ev.tag(), ev.counter_name()), (tag, counter));
            assert_eq!((state.tag(), state.counter_name()), (tag, counter));
            assert_eq!(ev.to_string(), format!("task 0 -> {tag}"));
        }
    }

    #[test]
    fn delta_event_tags_and_display() {
        check(vec![
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
                "delta download for task 3: circuit 1 -> 2, 2/6 frames, 0.040 ms",
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
                "delta checkpoint #5: 3/9 frames, chain 2, 0.010 ms",
            ),
        ]);
    }

    #[test]
    fn counts_and_latency_come_from_the_row() {
        let dl = |full| TraceEvent::ConfigDownload {
            task: 1,
            frames: 4,
            bytes: 512,
            duration: SimDuration::from_micros(30),
            full,
        };
        let counts: Vec<_> = dl(true).counts().collect();
        assert_eq!(
            counts,
            [
                ("config_downloads", 1),
                ("config_frames", 4),
                ("config_bytes", 512)
            ]
        );
        let us30 = SimDuration::from_micros(30);
        assert_eq!(dl(true).latency(), Some(("download_full", us30)));
        assert_eq!(dl(false).latency(), Some(("download_partial", us30)));
        let lost = TraceEvent::FleetLost {
            device: 0,
            tasks: 5,
        };
        assert_eq!(lost.counts().collect::<Vec<_>>(), [("lost_in_flight", 5)]);
        assert_eq!(lost.latency(), None);
        let preempt = |saved| TraceEvent::Preemption {
            task: 0,
            policy: "rollback",
            saved,
            rolled_back: SimDuration::from_micros(7),
        };
        assert_eq!(preempt(SimDuration::ZERO).latency(), None);
        assert_eq!(
            preempt(us30).latency(),
            Some(("preempt_save", us30)),
            "a preemption that saved something is sampled"
        );
        let c = custom("evict", "evict idle circuit 3");
        assert_eq!(c.counts().collect::<Vec<_>>(), [("custom_events", 1)]);
        assert_eq!((c.tag(), c.latency()), ("evict", None));
    }

    /// The table's names hang together: no two variants share a tag or a
    /// counter (the cases of one may), no two cases share a latency label,
    /// a case has a label exactly when its variant has a sample, and every
    /// payload counter (at most two a row) sums a field of its own variant
    /// under a name no other counter has.
    #[test]
    fn table_rows_are_consistent() {
        let mut tags = Vec::new();
        let mut counters = vec!["custom_events"];
        let mut labels = Vec::new();
        for row in ROWS {
            let (mut own_tags, mut own_counters) = (Vec::new(), Vec::new());
            for &(tag, counter, label) in row.cases {
                own_tags.push(tag);
                own_counters.push(counter);
                labels.extend(label);
                assert_eq!(label.is_some(), row.sample.is_some(), "{}", row.variant);
            }
            own_tags.dedup();
            own_counters.dedup();
            tags.extend(own_tags);
            counters.extend(own_counters);
            assert!(row.payload.len() < 3, "{}: `padded` holds two", row.variant);
            for &(counter, field) in row.payload {
                assert!(row.fields.contains(&field), "{}.{field}", row.variant);
                counters.push(counter);
            }
            if let Some(field) = row.by {
                assert!(row.fields.contains(&field), "{}.{field}", row.variant);
            }
        }
        for (what, names) in [("tag", &tags), ("counter", &counters), ("label", &labels)] {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "a {what} repeats: {names:?}");
        }
        assert_eq!(TraceEvent::TAGS, tags.as_slice());
    }
}
