//! FPGA management policies.
//!
//! An [`FpgaManager`] decides how the shared device serves task requests:
//! whether a circuit is already resident, what download/readback work a
//! dispatch costs, whether a task must block, and what happens on
//! preemption. One implementation per technique the paper proposes, plus
//! the baselines it argues against.

pub mod delta;
pub mod dynload;
pub mod exclusive;
pub mod merged;
pub mod overlay;
pub mod partition;

pub use delta::DeltaStats;

use crate::circuit::CircuitId;
use crate::task::TaskId;
use fsim::json::Json;
use fsim::{SimDuration, TraceEvent};

/// Result of asking the manager to make a circuit runnable for a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// The circuit is (now) configured; dispatching costs `overhead` of
    /// CPU time first (downloads, state restore, table updates).
    Ready {
        /// CPU time charged before the FPGA op can start.
        overhead: SimDuration,
        /// The download this activation made to configure the circuit;
        /// `None` on a residency hit.
        download: Option<Download>,
    },
    /// The resource is held by others; the task must wait. The manager
    /// has queued it and will return it from a later wake list.
    Blocked,
    /// The manager can never serve this request (circuit wider than any
    /// slot/partition, or capacity permanently retired below the need).
    /// The system fails the task instead of deadlocking on it.
    Unservable,
}

/// The configuration download an activation made: where the circuit now
/// sits and what the port spent writing it. Fault injection corrupts
/// downloads and the checkpoint journal logs them, both off this record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Download {
    /// First device column of the circuit's new region.
    pub col0: u32,
    /// Columns the region spans.
    pub width: u32,
    /// Configuration-port time of the download: its share of
    /// [`ManagerStats::config_time`].
    pub config_time: SimDuration,
}

/// A resident circuit's physical placement, reported by
/// [`FpgaManager::resident_regions`] so fault injection can decide which
/// circuit a configuration upset strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentRegion {
    /// The resident circuit.
    pub cid: CircuitId,
    /// First device column it occupies.
    pub col0: u32,
    /// Columns it spans.
    pub width: u32,
}

impl ResidentRegion {
    /// Whether the region covers device column `col`.
    pub fn covers(&self, col: u32) -> bool {
        col >= self.col0 && col < self.col0 + self.width
    }
}

/// Result of asking the manager to permanently retire a device column
/// ([`FpgaManager::retire_column`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetireOutcome {
    /// The column is now retired. False when the manager does not track
    /// spatial allocation (nothing to retire) — the fault is then absorbed.
    pub applied: bool,
    /// A task is mid-op on the column; the caller must retry later.
    pub busy: bool,
    /// Idle resident circuits relocated off the column.
    pub relocations: u32,
    /// Idle resident circuits evicted (no relocation target routed).
    pub evicted: u32,
    /// Port time the relocations/evictions cost (background recovery
    /// time; accounted in [`crate::FaultStats`], not task-charged).
    pub overhead: SimDuration,
}

/// What preempting a task mid-FPGA-op costs and loses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreemptCost {
    /// CPU time charged at preemption (e.g. state readback).
    pub overhead: SimDuration,
    /// Whether the op's progress is lost (rollback → restart from zero).
    pub lose_progress: bool,
}

/// The preemption policy for tasks interrupted during an FPGA operation —
/// the three options of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptAction {
    /// Never interrupt an FPGA op: the slice stretches to completion.
    WaitCompletion,
    /// Interrupt and restart the op from the beginning later ("roll-back
    /// the computation in the FPGA from the beginning").
    Rollback,
    /// Read back flip-flop state, restore before resuming (requires the
    /// circuit to be observable and controllable — all library circuits
    /// are, because state lives in CLB flip-flops).
    SaveRestore,
}

crate::counters::counter_table! {
    /// Counters every manager maintains.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct ManagerStats {
        /// Configuration downloads performed.
        pub downloads: u64,
        /// Configuration frames written.
        pub frames_written: u64,
        /// Total time spent downloading configurations.
        pub config_time: SimDuration,
        /// State readbacks (saves).
        pub state_saves: u64,
        /// State restores.
        pub state_restores: u64,
        /// Total time spent moving state.
        pub state_time: SimDuration,
        /// Activations served without any download (residency hits).
        pub hits: u64,
        /// Activations that required a download (misses).
        pub misses: u64,
        /// Times a task had to block on the resource.
        pub blocks: u64,
        /// Garbage-collection runs (partition manager).
        pub gc_runs: u64,
        /// Circuits relocated by GC.
        pub relocations: u64,
        /// Relocations abandoned because the circuit would not route.
        pub failed_relocations: u64,
        /// Idle resident circuits evicted to make room.
        pub evictions: u64,
        /// Partition splits (variable partitioning).
        pub splits: u64,
        /// Partition merges (garbage collection).
        pub merges: u64,
        /// Total time spent in garbage-collection runs (relocation downloads
        /// and state moves triggered by GC).
        pub gc_time: SimDuration,
    }
}

/// A point-in-time snapshot of device occupancy, for utilization
/// timelines. Managers that do not track spatial allocation (e.g. the
/// exclusive baseline) report the whole device as one unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceUsage {
    /// CLBs occupied by resident circuits.
    pub used_clbs: u64,
    /// CLBs on the device.
    pub total_clbs: u64,
    /// Free-space fragments (1 for whole-device managers with free space,
    /// 0 when full).
    pub free_fragments: u32,
}

/// A small buffer managers use to collect typed trace events.
///
/// Recording is off by default so event construction costs nothing in
/// benchmark runs; [`crate::System`] turns it on when tracing is enabled
/// and drains the buffer (stamping timestamps) after every manager call.
#[derive(Debug, Default)]
pub(crate) struct EventBuf {
    recording: bool,
    events: Vec<TraceEvent>,
}

impl EventBuf {
    /// Enable or disable recording. Disabling discards pending events.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
        if !on {
            self.events.clear();
        }
    }

    /// Buffer an event if recording. The closure only runs when on.
    pub fn push(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.recording {
            self.events.push(event());
        }
    }

    /// Take all buffered events.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events)
    }
}

/// An FPGA management policy.
pub trait FpgaManager {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Make `cid` runnable for `tid`, or block the task.
    fn activate(&mut self, tid: TaskId, cid: CircuitId) -> Activation;

    /// The task was preempted mid-op on `cid`.
    fn preempt(&mut self, tid: TaskId, cid: CircuitId) -> PreemptCost;

    /// The task finished an FPGA op on `cid`. Returns `(overhead, wake)`:
    /// CPU time charged plus tasks to move from Blocked to Ready.
    fn op_done(&mut self, tid: TaskId, cid: CircuitId) -> (SimDuration, Vec<TaskId>);

    /// The task exited. Free its resources; returns tasks to wake.
    fn task_exit(&mut self, tid: TaskId) -> Vec<TaskId>;

    /// Counters.
    fn stats(&self) -> ManagerStats;

    /// Turn typed-event collection on or off. Off by default; when off,
    /// [`FpgaManager::drain_events`] returns nothing and event
    /// construction must cost nothing.
    fn set_recording(&mut self, _on: bool) {}

    /// Take the typed events buffered since the last drain. The system
    /// stamps them with the current simulated time; managers only supply
    /// the payload.
    fn drain_events(&mut self) -> Vec<TraceEvent> {
        Vec::new()
    }

    /// Current device occupancy, for utilization timelines.
    fn usage(&self) -> DeviceUsage {
        DeviceUsage::default()
    }

    /// The configuration timing model the manager charges against. Fault
    /// recovery uses it to price scrubbing readbacks and repair downloads
    /// consistently with the manager's own accounting.
    fn timing(&self) -> &fpga::ConfigTiming;

    /// Whether [`FpgaManager::preempt`] is meaningful. The exclusive
    /// baseline returns false ("any other task needing an already assigned
    /// FPGA will enter the waiting state") and the system never slices its
    /// FPGA ops.
    fn preemptable(&self) -> bool {
        true
    }

    /// Where resident circuits physically sit, for fault targeting.
    /// Managers without spatial bookkeeping report nothing (an upset then
    /// counts as benign — there is nothing mapped to corrupt).
    fn resident_regions(&self) -> Vec<ResidentRegion> {
        Vec::new()
    }

    /// Whether `cid` is resident now, so activating it needs no download
    /// (no side effects). The default answers over
    /// [`FpgaManager::resident_regions`]; a manager that can answer without
    /// building the list overrides it.
    fn is_resident(&self, cid: CircuitId) -> bool {
        self.resident_regions().iter().any(|r| r.cid == cid)
    }

    /// Forget a resident circuit whose configuration was rejected by the
    /// download CRC, so the next activation re-downloads it. Returns true
    /// if the circuit was resident. Default: nothing tracked, nothing to
    /// discard.
    fn discard_resident(&mut self, _cid: CircuitId) -> bool {
        false
    }

    /// Permanently retire device column `col` after a fabric failure,
    /// relocating or evicting idle residents off it. The default (managers
    /// without column bookkeeping) reports the fault absorbed but not
    /// applied.
    fn retire_column(&mut self, _col: u32) -> RetireOutcome {
        RetireOutcome::default()
    }

    /// Delta-reconfiguration counters, when the policy has delta downloads
    /// enabled. `None` means the feature is off (or unsupported) and the
    /// report omits the section entirely.
    fn delta_stats(&self) -> Option<DeltaStats> {
        None
    }

    /// Frames in `[col0, col0 + width)` were rewritten or corrupted outside
    /// the manager's own download accounting — an SEU landed, a scrub
    /// repair re-downloaded them, a journal redo replayed over them. Any
    /// delta base overlapping the range is stale and must be dropped so a
    /// stale delta is never applied. Default: nothing tracked, nothing to
    /// invalidate.
    fn invalidate_image_range(&mut self, _col0: u32, _width: u32) {}

    /// A migration prepare staged `cid`'s configuration frames onto
    /// `[col0, col0 + width)` of this device (the two-phase copy wrote them
    /// ahead of the placement flip). Managers with delta reconfiguration
    /// enabled track the staged frames as a ghost base, so the circuit's
    /// next activation there is priced as a frame diff (an identical image
    /// diffs to a header-only revalidation) instead of a full download.
    /// Returns whether a ghost is now anchored at `col0`; the default (no
    /// delta machinery) tracks nothing and the destination pays a full
    /// download at next activation, exactly like a failover.
    fn implant_ghost(&mut self, _col0: u32, _width: u32, _cid: CircuitId) -> bool {
        false
    }

    /// Serialize the mutable manager state (residency tables, waiters,
    /// counters) for a system checkpoint. `None` means the policy cannot
    /// be checkpointed; [`crate::System`] then refuses to enable
    /// checkpointing with a typed error instead of silently losing state.
    fn snapshot(&self) -> Option<Json> {
        None
    }

    /// Restore state captured by [`FpgaManager::snapshot`] into a freshly
    /// built manager of the same policy and device. The snapshot comes out
    /// of a checkpoint image — outside input — so it is read strictly:
    /// circuit ids are checked against the library, column ranges against
    /// the device.
    fn restore(&mut self, _snap: &Json) -> Result<(), String> {
        Err("manager does not support snapshots".into())
    }
}

/// Pure cost of re-downloading `frames` frames to repair an upset: partial
/// if the port supports addressing, otherwise a full reconfiguration.
pub(crate) fn redownload_cost(timing: &fpga::ConfigTiming, frames: usize) -> SimDuration {
    if timing.port.supports_partial() {
        timing.frame_transfer(frames).1
    } else {
        timing.full_config_time()
    }
}

/// Shared helper: charge a download of `frames` full-column frames on the
/// given timing model, updating stats and buffering a typed event.
pub(crate) fn charge_partial_download(
    timing: &fpga::ConfigTiming,
    frames: usize,
    stats: &mut ManagerStats,
    obs: &mut EventBuf,
    task: TaskId,
) -> SimDuration {
    let (bits, d) = timing.frame_transfer(frames);
    stats.downloads += 1;
    stats.frames_written += frames as u64;
    stats.config_time += d;
    obs.push(|| TraceEvent::ConfigDownload {
        task: task.0,
        frames: frames as u32,
        bytes: bits.div_ceil(8),
        duration: d,
        full: false,
    });
    d
}

/// Shared helper: charge a delta download of `changed` frames standing in
/// for a full load of `full_frames`, updating both the legacy counters
/// (a delta download is still a download) and the delta statistics.
#[allow(clippy::too_many_arguments)]
pub(crate) fn charge_delta_download(
    timing: &fpga::ConfigTiming,
    changed: usize,
    full_frames: usize,
    from: crate::circuit::CircuitId,
    to: crate::circuit::CircuitId,
    stats: &mut ManagerStats,
    dstats: &mut DeltaStats,
    obs: &mut EventBuf,
    task: TaskId,
) -> SimDuration {
    let d = timing.frame_transfer(changed).1;
    stats.downloads += 1;
    stats.frames_written += changed as u64;
    stats.config_time += d;
    dstats.delta_downloads += 1;
    dstats.frames_written += changed as u64;
    dstats.frames_saved += full_frames.saturating_sub(changed) as u64;
    obs.push(|| TraceEvent::DeltaDownload {
        task: task.0,
        from_circuit: from.0,
        to_circuit: to.0,
        frames: changed as u32,
        full_frames: full_frames as u32,
        duration: d,
    });
    d
}

/// Shared helper: charge a full-device download.
pub(crate) fn charge_full_download(
    timing: &fpga::ConfigTiming,
    stats: &mut ManagerStats,
    obs: &mut EventBuf,
    task: TaskId,
) -> SimDuration {
    let d = timing.full_config_time();
    stats.downloads += 1;
    stats.frames_written += timing.spec.cols as u64;
    stats.config_time += d;
    obs.push(|| TraceEvent::ConfigDownload {
        task: task.0,
        frames: timing.spec.cols,
        bytes: timing.full_bits().div_ceil(8),
        duration: d,
        full: true,
    });
    d
}

/// Shared helper: charge a state movement (readback or write) of `frames`.
pub(crate) fn charge_state_move(
    timing: &fpga::ConfigTiming,
    frames: usize,
    save: bool,
    stats: &mut ManagerStats,
) -> SimDuration {
    let d = timing.readback_time(frames);
    if save {
        stats.state_saves += 1;
    } else {
        stats.state_restores += 1;
    }
    stats.state_time += d;
    d
}
