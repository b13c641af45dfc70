//! FPGA management policies.
//!
//! An [`FpgaManager`] decides how the shared device serves task requests:
//! whether a circuit is already resident, where a missing one goes, whether
//! a task must block, and what happens on preemption. One implementation
//! per technique the paper proposes, plus the baselines it argues against;
//! the §3 merged circuit is no type of its own but an overlay with every
//! circuit common and no slot ([`overlay::OverlayManager::merged`]).
//!
//! What the download and readback work costs is not a policy's to say.
//! Every manager writes the fabric through its one `Port` — the boot
//! download, a partial or full download, a load priced as a delta or in
//! full, a state save or restore — which prices the transfer with the
//! device's [`fpga::ConfigTiming`], counts it in [`ManagerStats`] (and
//! [`DeltaStats`]), traces it and returns the [`Write`] record, a GC run's
//! or a column retirement's relocation too. A call reports every write it
//! made, and the system journals each. The port of a manager that
//! allocates columns also keeps what each column holds (`delta.rs`), the
//! one record of which circuit a partition or an overlay slot holds: its
//! writes update that map themselves, and every other change to the
//! fabric — eviction, GC, retirement, a CRC discard, a repair, a staged
//! migration, a restore — is one port method.

pub mod delta;
pub mod dynload;
pub mod exclusive;
pub mod overlay;
pub mod partition;

pub use delta::DeltaStats;

use crate::circuit::CircuitId;
use crate::image::PolicyImage;
use crate::task::TaskId;
use delta::ColumnMap;
use fsim::json::Json;
use fsim::{SimDuration, TraceEvent};

/// Result of asking the manager to make a circuit runnable for a task.
/// `moved` is the set of columns (bit `c`: column `c`) the call's GC runs
/// moved circuits onto, whether or not the call evicted them again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// The circuit is (now) configured; dispatching costs `overhead` of
    /// CPU time first (downloads, state restore, table updates).
    Ready {
        /// CPU time charged before the FPGA op can start.
        overhead: SimDuration,
        /// The load this activation made; `None` on a residency hit.
        write: Option<Write>,
        /// Columns relocated onto.
        moved: u64,
    },
    /// The resource is held by others; the task must wait. The manager
    /// has queued it and will return it from a later wake list.
    Blocked {
        /// Columns relocated onto.
        moved: u64,
    },
    /// The manager can never serve this request (circuit wider than any
    /// slot/partition, or capacity permanently retired below the need).
    /// The system fails the task instead of deadlocking on it.
    Unservable,
}

// `dispatch` moves one a task: five words at most.
const _: () = assert!(std::mem::size_of::<Activation>() <= 40);

impl Activation {
    /// Ready after `write` (`None`: a hit), no GC run.
    pub fn ready(overhead: SimDuration, write: Option<Write>) -> Self {
        Activation::Ready {
            overhead,
            write,
            moved: 0,
        }
    }
}

/// How a [`Write`] put its circuit's frames on the columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// A download of the circuit's frames (partial, or the whole device).
    Load,
    /// A load priced as the frames a base the columns held differs in.
    Delta,
    /// An idle resident moved here: downloaded again, its state carried.
    Relocate,
}

/// One write of a circuit onto device columns, made and priced by a
/// manager's port. Fault injection corrupts an activation's load and the
/// checkpoint journal logs every write, both off this record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Write {
    /// The circuit written.
    pub cid: CircuitId,
    /// First device column of its region.
    pub col0: u32,
    /// Columns the region spans.
    pub width: u32,
    /// How it was written.
    pub kind: WriteKind,
    /// Port time: a load's share of [`ManagerStats::config_time`], a
    /// relocation's download and state moves.
    pub config_time: SimDuration,
}

/// The column set (bit `c` for column `c`) of `[col0, col0 + width)`.
pub(crate) fn columns(col0: u32, width: u32) -> u64 {
    let ones = (1u128 << width) - 1;
    (ones << col0) as u64
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
    /// The idle resident relocated off the column. Its port time is
    /// background recovery time ([`crate::FaultStats`]), not task-charged.
    pub moved: Option<Write>,
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
    /// the manager's own downloads — an SEU landed, a scrub repair
    /// re-downloaded them. A manager that keeps a column map (partitions,
    /// overlay) drops every ghost the range touches and marks each resident
    /// whose region it touches dirty, so a stale delta is never applied:
    /// one call of its port's `repair`. Default: nothing tracked, nothing
    /// to invalidate.
    fn invalidate_image_range(&mut self, _col0: u32, _width: u32) {}

    /// A migration prepare staged `cid`'s configuration frames onto
    /// `[col0, col0 + width)` of this device (the two-phase copy wrote them
    /// ahead of the placement flip), columns no resident claims. With delta
    /// reconfiguration enabled the port's column map holds them as a ghost,
    /// so the circuit's next activation there is priced as a frame diff
    /// (an identical image diffs to a header-only revalidation) instead of
    /// a full download; a dirty circuit is refused. Returns whether the
    /// copy was kept as a ghost; the default (no column map) tracks nothing
    /// and the destination pays a full download at next activation, exactly
    /// like a failover.
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

    /// The state a system checkpoint carries, as the process keeps it —
    /// what every capture takes. `recycled` is an earlier capture's image
    /// nobody needs any more, whose buffers a manager that keeps a record
    /// refills. The default is the [`snapshot`](FpgaManager::snapshot)
    /// tree; a manager that keeps a record returns it, and renders it as
    /// its snapshot.
    fn image(&self, _recycled: Option<PolicyImage>) -> Option<PolicyImage> {
        self.snapshot().map(PolicyImage::from)
    }

    /// Restore what [`image`](FpgaManager::image) returned, or an image read
    /// back from its JSON, exactly as [`restore`](FpgaManager::restore)
    /// reads the rendering. The default restores the rendering.
    fn restore_image(&mut self, image: &PolicyImage) -> Result<(), String> {
        self.restore(&image.as_json())
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

/// The configuration port a manager writes the fabric through. Each method
/// prices one transfer with [`fpga::ConfigTiming`], counts it in
/// [`ManagerStats`] (and [`DeltaStats`] when delta downloads are on),
/// traces it into the manager's event buffer and returns what it wrote:
/// the [`Write`] record, or the port time of a state move. Where the
/// circuit lands is the caller's to say; what the write costs is decided
/// only here.
#[derive(Debug)]
pub(crate) struct Port<D = ()> {
    timing: fpga::ConfigTiming,
    stats: ManagerStats,
    obs: EventBuf,
    /// What the port keeps of the columns: nothing in a manager that never
    /// loads over a base, a [`DeltaPort`]'s column map in one that can.
    map: D,
}

/// The port of a manager that allocates columns: it keeps the column map
/// (`delta.rs`) and prices a load as a delta once delta downloads are
/// enabled; until then every load is full.
pub(crate) type DeltaPort = Port<ColumnMap>;

impl<D: Default> Port<D> {
    pub(crate) fn new(timing: fpga::ConfigTiming) -> Self {
        Port {
            timing,
            stats: ManagerStats::default(),
            obs: EventBuf::default(),
            map: D::default(),
        }
    }

    /// The boot download of `frames` frames, made while the manager is
    /// built: no task exists yet and recording is off, so nothing is traced.
    pub(crate) fn boot(&mut self, frames: usize) {
        let d = self.timing.frame_transfer(frames).1;
        self.count(frames, d);
    }

    /// A whole-device download for `cid`, `width` columns wide, which then
    /// sits from column 0.
    pub(crate) fn full(&mut self, tid: TaskId, cid: CircuitId, width: u32) -> Write {
        let (frames, d) = (self.timing.spec.cols, self.timing.full_config_time());
        self.count(frames as usize, d);
        let bytes = self.timing.full_bits().div_ceil(8);
        self.obs.push(|| TraceEvent::ConfigDownload {
            task: tid.0,
            frames,
            bytes,
            duration: d,
            full: true,
        });
        record(cid, 0, width, WriteKind::Load, d)
    }

    /// A state readback (`save`) or write-back of `frames` frames.
    pub(crate) fn move_state(&mut self, frames: usize, save: bool) -> SimDuration {
        let d = self.timing.readback_time(frames);
        if save {
            self.stats.state_saves += 1;
        } else {
            self.stats.state_restores += 1;
        }
        self.stats.state_time += d;
        d
    }

    /// A partial download of `cid`'s `n` frames onto `[col0, col0 + width)`.
    fn write(&mut self, tid: TaskId, cid: CircuitId, n: usize, col0: u32, width: u32) -> Write {
        let (bits, d) = self.timing.frame_transfer(n);
        self.count(n, d);
        self.obs.push(|| TraceEvent::ConfigDownload {
            task: tid.0,
            frames: n as u32,
            bytes: bits.div_ceil(8),
            duration: d,
            full: false,
        });
        record(cid, col0, width, WriteKind::Load, d)
    }

    fn count(&mut self, frames: usize, d: SimDuration) {
        self.stats.downloads += 1;
        self.stats.frames_written += frames as u64;
        self.stats.config_time += d;
    }
}

fn record(cid: CircuitId, col0: u32, width: u32, kind: WriteKind, d: SimDuration) -> Write {
    Write {
        cid,
        col0,
        width,
        kind,
        config_time: d,
    }
}

#[cfg(test)]
mod delta_oracle_tests;
#[cfg(test)]
mod merged_oracle_tests;
#[cfg(test)]
mod partition_oracle_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitLib;
    use fpga::{ConfigPort, ConfigTiming};
    use pnr::{compile, CompileOptions};

    /// `(lib, a, near, far)` on VF400: `near` is `a` one column wider with
    /// one block moved into the new column, so the two differ in two
    /// columns; `far` is `a` with every column's tables changed.
    fn fixture(spec: fpga::DeviceSpec) -> (CircuitLib, CircuitId, CircuitId, CircuitId) {
        let opts = CompileOptions {
            max_height: spec.rows,
            full_height: true,
            ..Default::default()
        };
        let a = compile(&netlist::library::arith::array_multiplier("pa", 4), opts).unwrap();
        let mut near = a.clone();
        near.placed.circuit.name = "pn".into();
        near.placed.width += 1;
        near.placed.coords[0] = (a.placed.width, 0);
        let far = pnr::mutate_tables(&a, 1.0, 3);
        let mut lib = CircuitLib::new();
        let ids = [a, near, far].map(|c| lib.register_compiled(c));
        (lib, ids[0], ids[1], ids[2])
    }

    /// What one call did to a fresh port: its time, the record's region if
    /// it made one, whether it used a delta base, the counters and events.
    #[derive(Debug, PartialEq)]
    struct Seen {
        time: SimDuration,
        region: Option<(u32, u32)>,
        used: bool,
        stats: ManagerStats,
        delta: Option<DeltaStats>,
        events: Vec<TraceEvent>,
    }

    type Call<'a> = Box<dyn Fn(&mut DeltaPort) -> (SimDuration, Option<(u32, u32)>, bool) + 'a>;

    fn run(timing: ConfigTiming, delta: bool, call: &Call) -> Seen {
        let mut port = DeltaPort::new(timing);
        if delta {
            port.enable_delta();
        }
        port.obs.set_recording(true);
        let (time, region, used) = call(&mut port);
        Seen {
            time,
            region,
            used,
            stats: port.stats,
            delta: port.delta_stats(),
            events: port.obs.drain(),
        }
    }

    /// A write's time and region, and whether it used a delta base.
    fn written(w: Write) -> (SimDuration, Option<(u32, u32)>, bool) {
        (
            w.config_time,
            Some((w.col0, w.width)),
            w.kind == WriteKind::Delta,
        )
    }

    /// Every port method on a port that addresses frames and on one that
    /// only loads whole devices: the time is `ConfigTiming`'s, the counters
    /// and events are exactly one write's, and a load goes delta only when
    /// its base differs in fewer frames than the circuit has.
    #[test]
    fn each_method_prices_counts_and_traces_one_write() {
        let spec = fpga::device::part("VF400");
        let (lib, a, near, far) = fixture(spec);
        let w = lib.get(a).frames();
        assert_eq!(lib.changed_frames(near, a), 2, "near differs in two frames");
        assert_eq!(lib.changed_frames(far, a), w, "far differs in every frame");
        let (ww, task) = (w as u32, TaskId(7));
        for port in [ConfigPort::SerialFast, ConfigPort::SerialSlow] {
            let t = ConfigTiming { spec, port };
            let write = |frames: usize, d: SimDuration| ManagerStats {
                downloads: 1,
                frames_written: frames as u64,
                config_time: d,
                ..Default::default()
            };
            let partial = |frames: usize| {
                let (bits, d) = t.frame_transfer(frames);
                let event = TraceEvent::ConfigDownload {
                    task: task.0,
                    frames: frames as u32,
                    bytes: bits.div_ceil(8),
                    duration: d,
                    full: false,
                };
                (d, write(frames, d), event)
            };
            let (dw, sw, ew) = partial(w);
            let (d2, s2, _) = partial(2);
            let dfull = t.full_config_time();
            let full_event = TraceEvent::ConfigDownload {
                task: task.0,
                frames: spec.cols,
                bytes: t.full_bits().div_ceil(8),
                duration: dfull,
                full: true,
            };
            let delta_event = TraceEvent::DeltaDownload {
                task: task.0,
                from_circuit: near.0,
                to_circuit: a.0,
                frames: 2,
                full_frames: ww,
                duration: d2,
            };
            let counted_full = DeltaStats {
                full_downloads: 1,
                ..Default::default()
            };
            let counted_delta = DeltaStats {
                delta_downloads: 1,
                frames_written: 2,
                frames_saved: w as u64 - 2,
                ..Default::default()
            };
            let state = |save: bool| ManagerStats {
                state_saves: u64::from(save),
                state_restores: u64::from(!save),
                state_time: t.readback_time(w),
                ..Default::default()
            };
            let seen = |time, region, used, stats, delta, events| Seen {
                time,
                region,
                used,
                stats,
                delta,
                events,
            };
            let rows: Vec<(&str, bool, Call, Seen)> = vec![
                (
                    "boot: counted, not traced",
                    false,
                    Box::new(|p: &mut DeltaPort| {
                        p.boot(w);
                        (p.stats.config_time, None, false)
                    }),
                    seen(dw, None, false, sw, None, vec![]),
                ),
                (
                    "write: a partial download",
                    false,
                    Box::new(|p: &mut DeltaPort| written(p.write(task, a, w, 2, ww))),
                    seen(dw, Some((2, ww)), false, sw, None, vec![ew.clone()]),
                ),
                (
                    "full: the whole device, the circuit at column 0",
                    false,
                    Box::new(|p: &mut DeltaPort| written(p.full(task, a, ww))),
                    seen(
                        dfull,
                        Some((0, ww)),
                        false,
                        write(spec.cols as usize, dfull),
                        None,
                        vec![full_event],
                    ),
                ),
                (
                    "load, delta off: the base is ignored, the region is the caller's",
                    false,
                    Box::new(|p: &mut DeltaPort| {
                        p.stage(near, 2, ww);
                        written(p.load(&lib, task, a, 2, ww + 3))
                    }),
                    seen(dw, Some((2, ww + 3)), false, sw, None, vec![ew.clone()]),
                ),
                (
                    "load, no base",
                    true,
                    Box::new(|p: &mut DeltaPort| written(p.load(&lib, task, a, 2, ww))),
                    seen(
                        dw,
                        Some((2, ww)),
                        false,
                        sw,
                        Some(counted_full),
                        vec![ew.clone()],
                    ),
                ),
                (
                    "load over a base two frames away: delta",
                    true,
                    Box::new(|p: &mut DeltaPort| {
                        p.stage(near, 2, ww);
                        written(p.load(&lib, task, a, 2, ww))
                    }),
                    seen(
                        d2,
                        Some((2, ww)),
                        true,
                        s2,
                        Some(counted_delta),
                        vec![delta_event],
                    ),
                ),
                (
                    "load over a base every frame away: full, the base overwritten",
                    true,
                    Box::new(|p: &mut DeltaPort| {
                        p.stage(far, 2, ww);
                        written(p.load(&lib, task, a, 2, ww))
                    }),
                    seen(
                        dw,
                        Some((2, ww)),
                        false,
                        sw,
                        Some(DeltaStats {
                            invalidations: 1,
                            ..counted_full
                        }),
                        vec![
                            ew.clone(),
                            TraceEvent::DeltaInvalidate {
                                col0: 2,
                                width: ww,
                                reason: "overwrite",
                            },
                        ],
                    ),
                ),
                (
                    "relocate, a GC run's move: a download of the task's, GC time",
                    false,
                    Box::new(|p: &mut DeltaPort| written(p.relocate(Some(task), &lib, a, 2, ww))),
                    seen(
                        dw,
                        Some((2, ww)),
                        false,
                        ManagerStats {
                            downloads: 1,
                            frames_written: w as u64,
                            relocations: 1,
                            gc_time: dw,
                            ..Default::default()
                        },
                        None,
                        vec![ew.clone()],
                    ),
                ),
                (
                    "relocate, a retirement's move: a relocation, untraced",
                    true,
                    Box::new(|p: &mut DeltaPort| written(p.relocate(None, &lib, a, 2, ww))),
                    seen(
                        dw,
                        Some((2, ww)),
                        false,
                        ManagerStats {
                            relocations: 1,
                            ..Default::default()
                        },
                        Some(DeltaStats::default()),
                        vec![],
                    ),
                ),
                (
                    "state save",
                    true,
                    Box::new(|p: &mut DeltaPort| (p.move_state(w, true), None, false)),
                    seen(
                        t.readback_time(w),
                        None,
                        false,
                        state(true),
                        Some(DeltaStats::default()),
                        vec![],
                    ),
                ),
                (
                    "state restore",
                    false,
                    Box::new(|p: &mut DeltaPort| (p.move_state(w, false), None, false)),
                    seen(t.readback_time(w), None, false, state(false), None, vec![]),
                ),
            ];
            for (name, delta, call, want) in &rows {
                assert_eq!(run(t, *delta, call), *want, "{port:?}: {name}");
            }
        }
    }

    /// A load writes the circuit's image whichever way it is priced, so it
    /// clears the circuit's dirty mark: evicting it leaves a base again.
    #[test]
    fn a_load_leaves_its_circuit_clean() {
        let spec = fpga::device::part("VF400");
        let (lib, a, near, _) = fixture(spec);
        let timing = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        for base in [None, Some(near)] {
            let mut port = DeltaPort::new(timing);
            port.enable_delta();
            port.repair(0, 4, [(a, 0, 4)], false);
            if let Some(near) = base {
                port.stage(near, 0, 4);
            }
            let w = port.load(&lib, TaskId(0), a, 0, 4);
            assert_eq!(w.kind == WriteKind::Delta, base.is_some());
            port.evict(a);
            let dropped = port.delta_stats().unwrap().invalidations;
            assert_eq!(dropped, 0, "{base:?}: the eviction refused a ghost");
            assert!(port.implant(8, 4, a), "{base:?}: dirty after the load");
        }
    }
}
