//! Crash-consistent checkpoint/restore of the whole OS layer.
//!
//! A host crash loses every volatile OS table — the task table, the
//! residency/saved-state maps, the scheduler queues, the accounting — but
//! *not* the device's configuration RAM, which keeps whatever the last
//! downloads left there (possibly a torn prefix of an interrupted
//! stream). This module makes the system survive that:
//!
//! * a **checkpoint** is taken every [`CheckpointConfig::interval`]: the
//!   full mutable [`crate::System`] state copied into a typed
//!   [`SystemImage`], charged the realistic
//!   readback cost of the resident frames as background port traffic.
//!   The host keeps the typed image. A crash, failover, rebalance or
//!   migration handed on inside one process carries it, still typed, in
//!   a [`Cut`]; it is rendered through the [`fsim::json`] writer into a
//!   [`CheckpointImage`] only when it leaves the process inside a
//!   [`CrashState`] ([`System::run_until`]), and read back strictly on
//!   the way in ([`System::restore_from`]). That the rendering restores
//!   is proved by the image property tests and, in debug builds,
//!   re-checked on every cut, typed or not;
//! * every column write a manager reports — a load, the columns a GC run
//!   moved circuits onto, a retirement's relocation, a download the CRC
//!   rejected — is logged as a [`WalRecord`], the OS-level view of the
//!   `fpga::journal` write-ahead log. Records after the last checkpoint
//!   are the ones a restore must reconcile: the device holds them, the
//!   restored tables do not;
//! * on restart, [`run_with_crashes`] restarts the crashed system in place
//!   (back to its built state), restores the last [`CheckpointImage`], and
//!   replays the journal: committed post-checkpoint downloads invalidate
//!   the stale residency claims the restored tables still hold (forcing
//!   clean re-downloads), torn ones are rolled back. With the journal
//!   disabled the restored tables keep their stale claims and the next
//!   "residency hit" silently computes on garbage —
//!   [`TaskMetrics::corrupted`](crate::TaskMetrics::corrupted).
//!
//! Capture, journal, crash and the three adoptions (restore on the same
//! device, fail over onto another, and — with [`crate::migrate`] — take
//! one tenant in) are the `impl System` block at the end of this module.
//!
//! [`diff_reports`] is the differential verifier: a crashed-and-restored
//! run must reach the same per-task outcomes as the uninterrupted
//! same-seed run on every timing-invariant field (completion times may
//! legitimately shift, because recovery re-downloads cost time).

use crate::circuit::CircuitId;
use crate::error::VfpgaError;
use crate::image::{Capture, Running, Schema, SystemImage, TaskColumns};
use crate::manager::{columns, FpgaManager, ResidentRegion, Write};
use crate::metrics::Report;
use crate::run::{agrees_with_table, Boot};
use crate::sched::Scheduler;
use crate::system::{Ev, FailoverReceipt, System};
use crate::task::TaskSlot;
use fsim::json::Json;
use fsim::{span, CrashPlan, SimDuration, SimTime, Trace, TraceEvent};
use std::ops::Range;

/// Checkpoint cadence and journal switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Time between checkpoint captures.
    pub interval: SimDuration,
    /// Whether the configuration write-ahead journal is replayed on
    /// restore. Off, restores keep stale residency claims — the ablation
    /// proving the journal is load-bearing.
    pub journal: bool,
    /// Delta checkpointing: `Some(k)` captures only the frames that
    /// changed since the previous image (downloads logged in the WAL plus
    /// the always-volatile flip-flop state of sequential residents), with
    /// a full capture every `k`-th image as the chain anchor. `None`
    /// (the default) reads back every resident frame each time — the
    /// legacy behavior, byte-identical exports.
    pub delta_full_every: Option<u32>,
}

impl CheckpointConfig {
    /// Checkpoints every `interval`, journal on.
    pub fn new(interval: SimDuration) -> Self {
        CheckpointConfig {
            interval,
            journal: true,
            delta_full_every: None,
        }
    }

    /// Disable journal replay (ablation).
    pub fn without_journal(mut self) -> Self {
        self.journal = false;
        self
    }

    /// Enable delta captures with a full-image anchor every `k` captures
    /// (`k` is clamped to at least 1; `k = 1` means every capture is
    /// full, i.e. delta mode with no deltas).
    pub fn with_delta_checkpoints(mut self, k: u32) -> Self {
        self.delta_full_every = Some(k.max(1));
        self
    }
}

/// One captured checkpoint in its durable form: the system state as it
/// exists outside the process that captured it.
#[derive(Debug, Clone)]
pub struct CheckpointImage {
    /// Monotone checkpoint number.
    pub seq: u64,
    /// Capture time.
    pub at: SimTime,
    /// How many [`WalRecord`]s the image covers: records at an index
    /// `>= wal_len` happened after this checkpoint and must be
    /// reconciled on restore.
    pub wal_len: usize,
    /// The state, rendered as a `vfpga-ckpt/3` tree by
    /// [`SystemImage::to_json`](crate::image::SystemImage::to_json) when
    /// the image left its process. A restore reads it back with the strict
    /// [`SystemImage::from_json`](crate::image::SystemImage::from_json),
    /// so a damaged tree is a
    /// [`CheckpointCorrupt`](VfpgaError::CheckpointCorrupt) error.
    pub state: Json,
}

/// The OS-level view of one journaled column write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone record number.
    pub seq: u64,
    /// The circuit the columns now hold; `None` for none a claim may
    /// trust (a download the CRC rejected, or a GC move evicted again).
    pub cid: Option<CircuitId>,
    /// First device column written.
    pub col0: u32,
    /// Columns written.
    pub width: u32,
    /// When the download started.
    pub at: SimTime,
    /// How long the port transfer took. A crash inside
    /// `[at, at + duration)` tears this record.
    pub duration: SimDuration,
}

impl WalRecord {
    /// Whether a crash at `t` cuts this download mid-stream.
    pub fn in_flight_at(&self, t: SimTime) -> bool {
        self.at <= t && t < self.at + self.duration
    }

    /// Whether this record's column span intersects `[col0, col0+width)`.
    pub fn overlaps(&self, col0: u32, width: u32) -> bool {
        self.col0 < col0 + width && col0 < self.col0 + self.width
    }
}

crate::counters::counter_table! {
    /// Checkpoint and crash-recovery accounting for one (possibly restarted)
    /// run, reported in [`Report::crash`].
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct CrashStats {
        /// Checkpoints captured (across all segments of a restarted run).
        pub checkpoints: u64,
        /// Background readback port time spent capturing checkpoints.
        pub checkpoint_time: SimDuration,
        /// Host crashes survived.
        pub crashes: u64,
        /// Downloads a crash cut mid-stream (torn writes).
        pub torn_downloads: u64,
        /// Committed post-checkpoint journal records reconciled on restore.
        pub records_redone: u64,
        /// Torn journal records rolled back on restore.
        pub records_undone: u64,
        /// Background port time spent replaying the journal after crashes.
        pub replay_time: SimDuration,
        /// Residency claims the journal replay invalidated (each forces a
        /// clean re-download on next use).
        pub stale_discards: u64,
        /// FPGA ops that ran on a stale residency claim because the journal
        /// was off — silent corruption the system never detected.
        pub silent_corruptions: u64,
    }
}

/// Everything that survives a host crash: the durable state the next
/// incarnation of the system restores from.
#[derive(Debug, Clone)]
pub struct CrashState {
    /// When the crash struck.
    pub at: SimTime,
    /// Last checkpoint, if any was captured before the crash. `None`
    /// means a cold restart from time zero.
    pub image: Option<CheckpointImage>,
    /// The full write-ahead log (the journal lives on durable storage).
    pub wal: Vec<WalRecord>,
    /// Accounting carried across the restart (work already performed is
    /// not forgotten by the report).
    pub stats: CrashStats,
}

/// How one [`System::run_until`] segment ended.
#[derive(Debug)]
pub enum RunOutcome {
    /// The run finished; the report covers all work since the last
    /// restore, with crash accounting accumulated across segments.
    Completed(Box<Report>, Trace),
    /// The host crashed mid-run; restore from the carried state.
    Crashed(Box<CrashState>),
}

/// What one system hands the next inside one process: [`CrashState`]
/// before it is rendered. Public only so `tests/cut_equivalence.rs` can
/// set the typed hand-off beside the durable one.
#[derive(Debug, Clone, PartialEq)]
pub struct Cut {
    pub(crate) at: SimTime,
    pub(crate) capture: Option<Capture>,
    pub(crate) wal: Vec<WalRecord>,
    pub(crate) stats: CrashStats,
}

impl Cut {
    /// The cut as it leaves the process: its capture rendered to a
    /// `vfpga-ckpt/3` tree.
    pub fn to_durable(&self) -> CrashState {
        let _s = span::guard("image_json");
        let image = self.capture.as_ref().map(|c| CheckpointImage {
            seq: c.seq,
            at: c.image.at,
            wal_len: c.wal_len,
            state: c.image.to_json(),
        });
        CrashState {
            at: self.at,
            image,
            wal: self.wal.clone(),
            stats: self.stats,
        }
    }

    /// A durable state coming back into a process, its image read strictly.
    pub fn from_durable(state: &CrashState) -> Result<Cut, VfpgaError> {
        let _s = span::guard("image_json");
        let mut capture = None;
        if let Some(durable) = &state.image {
            let image = SystemImage::from_json(&durable.state).map_err(corrupt)?;
            if image.at != durable.at {
                return Err(corrupt(
                    "image capture time disagrees with its state".into(),
                ));
            }
            capture = Some(Capture {
                seq: durable.seq,
                wal_len: durable.wal_len,
                image,
            });
        }
        Ok(Cut {
            at: state.at,
            capture,
            wal: state.wal.clone(),
            stats: state.stats,
        })
    }

    /// Debug builds' proof, on every cut: its durable form, rendered to
    /// text and parsed, reads back as this cut.
    fn survives_durable_form(&self) -> bool {
        let mut durable = self.to_durable();
        let reparsed = durable.image.iter_mut().all(|image| {
            let parsed = Json::parse(&image.state.render());
            parsed.map(|tree| image.state = tree).is_ok()
        });
        reparsed && Cut::from_durable(&durable).is_ok_and(|back| back == *self)
    }

    /// Index of the first journal record the capture does not cover. A
    /// checkpoint claiming more records than the journal holds is corrupt.
    fn wal_base(&self) -> Result<usize, VfpgaError> {
        let base = self.capture.as_ref().map_or(0, |c| c.wal_len);
        if base > self.wal.len() {
            return Err(corrupt(format!(
                "image covers {base} journal records, the journal holds {}",
                self.wal.len()
            )));
        }
        Ok(base)
    }

    /// Capture time of the image an adopter resumes from (zero: cold start).
    pub(crate) fn resume_at(&self) -> SimTime {
        self.capture.as_ref().map_or(SimTime::ZERO, |c| c.image.at)
    }
}

fn corrupt(reason: String) -> VfpgaError {
    VfpgaError::CheckpointCorrupt { reason }
}

/// The task slots that may differ from the last capture's copy of the
/// table, `lo..hi`: every slot live at that capture, and every slot that
/// arrived or exited since. A slot that is not live changes only by
/// entering or leaving the live set, so widening the window there
/// (`System::on_arrive`, `System::exit`) is all that keeps it exact.
/// Empty is `lo > hi`, so the first slot it widens over is all it holds.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SlotWindow {
    lo: usize,
    hi: usize,
}

impl SlotWindow {
    /// All `n` slots: what a table from outside may differ in.
    pub(crate) fn whole(n: usize) -> Self {
        SlotWindow { lo: 0, hi: n }
    }

    /// The live slots of `slots` inside `self`, which holds every live
    /// slot: the window of a capture of `slots` taken now.
    fn live(self, slots: &[TaskSlot]) -> Self {
        let span = self.range();
        let inside = &slots[span.clone()];
        let live = |s: &TaskSlot| s.state.is_live();
        match (inside.iter().position(live), inside.iter().rposition(live)) {
            (Some(first), Some(last)) => SlotWindow {
                lo: span.start + first,
                hi: span.start + last + 1,
            },
            _ => SlotWindow {
                lo: usize::MAX,
                hi: 0,
            },
        }
    }

    /// Slot `ti` enters or leaves the live set.
    #[inline]
    pub(crate) fn widen(&mut self, ti: usize) {
        self.lo = self.lo.min(ti);
        self.hi = self.hi.max(ti + 1);
    }

    fn range(self) -> Range<usize> {
        if self.lo < self.hi {
            self.lo..self.hi
        } else {
            0..0
        }
    }
}

thread_local! {
    /// Task slots the captures on this thread copied, counted where the
    /// window check runs (test and debug builds) for the copy-count test;
    /// neither the report nor the image carries it.
    static SLOTS_COPIED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One field-level disagreement between a baseline and a restored run,
/// reported by [`diff_reports`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Task index.
    pub task: usize,
    /// Which field disagreed.
    pub field: &'static str,
    /// Value in the uninterrupted baseline run.
    pub baseline: String,
    /// Value in the crashed-and-restored run.
    pub restored: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {}: {} baseline={} restored={}",
            self.task, self.field, self.baseline, self.restored
        )
    }
}

/// Differential verifier: compare per-task outcomes of an uninterrupted
/// baseline run against a crashed-and-restored run of the same seed,
/// field by field. Only timing-invariant fields are compared — name,
/// done-vs-failed, the admission terminal states (quarantined/rejected),
/// useful CPU, FPGA, and software-emulation time, and the
/// silent-corruption flag. Completion times legitimately shift (journal
/// replay forces re-downloads), so they are *not* compared.
pub fn diff_reports(baseline: &Report, restored: &Report) -> Vec<Divergence> {
    let mut out = Vec::new();
    if baseline.tasks.len() != restored.tasks.len() {
        out.push(Divergence {
            task: usize::MAX,
            field: "task_count",
            baseline: baseline.tasks.len().to_string(),
            restored: restored.tasks.len().to_string(),
        });
        return out;
    }
    let ns = |d: SimDuration| d.as_nanos().to_string();
    let bit = |b: bool| b.to_string();
    for (i, (b, r)) in baseline.tasks.iter().zip(&restored.tasks).enumerate() {
        let fields = [
            ("name", b.name.clone(), r.name.clone()),
            ("failed", bit(b.failed), bit(r.failed)),
            ("quarantined", bit(b.quarantined), bit(r.quarantined)),
            ("rejected", bit(b.rejected), bit(r.rejected)),
            ("degraded_time", ns(b.degraded_time), ns(r.degraded_time)),
            ("cpu_time", ns(b.cpu_time), ns(r.cpu_time)),
            ("fpga_time", ns(b.fpga_time), ns(r.fpga_time)),
            ("corrupted", bit(b.corrupted), bit(r.corrupted)),
            (
                "lost_in_flight",
                bit(b.lost_in_flight),
                bit(r.lost_in_flight),
            ),
        ];
        let diverged = fields.into_iter().filter(|(_, b, r)| b != r);
        out.extend(diverged.map(|(field, baseline, restored)| Divergence {
            task: i,
            field,
            baseline,
            restored,
        }));
    }
    out
}

/// The restart loop behind [`run_with_crashes`] and its traced twin: the
/// report and the final (completing) segment's trace.
fn crash_loop<M, S>(
    build: impl FnOnce() -> System<M, S>,
    cfg: CheckpointConfig,
    plan: CrashPlan,
) -> Result<(Report, Trace), VfpgaError>
where
    M: FpgaManager,
    S: Scheduler,
{
    let mut crashes = plan.crash_times();
    let mut sys = build().with_checkpoints(cfg)?;
    while let Some(cut) = sys.run_to_cut(crashes.next())? {
        sys.restore_cut(cut)?;
    }
    sys.finish()
}

/// Run a workload to completion under seeded host crashes: build the
/// system, run until the injector's next crash time, restart it in place
/// from the carried [`Cut`], repeat. `build` is called once; every
/// incarnation after the first is the same system restarted, exactly as
/// if rebuilt.
///
/// The injector draws successive *absolute* crash times from its own
/// seeded stream, so a restored run never re-crashes at an already-fired
/// time and the whole sequence is deterministic.
pub fn run_with_crashes<M, S>(
    build: impl FnOnce() -> System<M, S>,
    cfg: CheckpointConfig,
    plan: CrashPlan,
) -> Result<Report, VfpgaError>
where
    M: FpgaManager,
    S: Scheduler,
{
    crash_loop(build, cfg, plan).map(|(report, _)| report)
}

/// [`run_with_crashes`] with tracing enabled; returns the final
/// (completing) segment's trace alongside the report. `build` is called
/// once. Earlier segments' traces die with their crashed host — exactly
/// as a real in-memory trace buffer would.
pub fn run_with_crashes_traced<M, S>(
    build: impl FnOnce() -> System<M, S>,
    cfg: CheckpointConfig,
    plan: CrashPlan,
) -> Result<(Report, Trace), VfpgaError>
where
    M: FpgaManager,
    S: Scheduler,
{
    crash_loop(move || build().with_trace(), cfg, plan)
}

impl<M: FpgaManager, S: Scheduler> System<M, S> {
    /// Capture a periodic checkpoint: copy the full mutable state into a
    /// typed image and charge the readback cost of the resident frames as
    /// background port traffic (like scrubbing — never billed to a task).
    pub(crate) fn on_checkpoint(&mut self, now: SimTime) {
        let Some(cfg) = self.build.ckpt else { return };
        if self.run.unfinished == 0 {
            return; // nothing left to protect; stop the cadence
        }
        // Schedule the next capture FIRST so it is part of the pending
        // events this image records — a restored run keeps the cadence.
        let next = now + cfg.interval;
        self.run.queue.schedule_at(next, Ev::Checkpoint);
        let regions = self.manager.resident_regions();
        let frames: u32 = regions.iter().map(|r| r.width).sum();
        // Delta capture: only columns that could have diverged from the
        // previous image need a readback — columns rewritten by downloads
        // the WAL logged since that image, plus every resident sequential
        // circuit (its flip-flop state is always volatile). Anything that
        // rewrites fabric outside the WAL (scrub repair, crash restore,
        // failover) raises `ckpt_dirty_all` and forces a full image, as
        // does the every-`k` chain anchor.
        let delta = match (cfg.delta_full_every, &self.run.last_ckpt) {
            (Some(k), Some(_)) if !self.run.ckpt_dirty_all && self.run.ckpt_chain + 1 < k => {
                let dirty = &self.run.dirty_cols;
                let mut changed = 0u32;
                for r in &regions {
                    if self.build.lib.get(r.cid).is_sequential() {
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
        self.run.dirty_cols.fill(false);
        let read = delta.unwrap_or(frames);
        let cost = self.manager.timing().readback_time(read as usize);
        // Captures are numbered on from the one kept last.
        let seq = self.run.last_ckpt.as_ref().map_or(0, |c| c.seq) + 1;
        self.run.crash.checkpoints += 1;
        self.run.crash.checkpoint_time += cost;
        // The stored image is always the full snapshot — delta capture
        // changes what crosses the readback port (the cost model), never
        // what a restore can rely on. The previous capture is recycled:
        // only its window of the task table is copied again.
        let recycled = self.run.last_ckpt.take().map(|c| c.image);
        let image = span::time("capture", || {
            let image = self.capture(now, recycled);
            self.run.ckpt_window = self.run.ckpt_window.live(&self.run.slots);
            image
        });
        match delta {
            Some(changed) => {
                self.run.ckpt_chain += 1;
                self.emit(now, |s| TraceEvent::DeltaCheckpoint {
                    seq,
                    frames: changed,
                    full_frames: frames,
                    chain: s.run.ckpt_chain,
                    duration: cost,
                });
            }
            None => {
                self.run.ckpt_chain = 0;
                self.run.ckpt_dirty_all = false;
                self.emit(now, |_| TraceEvent::CheckpointTaken {
                    seq,
                    frames,
                    duration: cost,
                });
            }
        }
        let wal_len = self.run.wal.len();
        self.keep_capture(Capture {
            seq,
            wal_len,
            image,
        });
    }

    /// Keep `capture` as the restore point. Every cut from here on carries
    /// one, and it restores what the boot record would: that goes.
    fn keep_capture(&mut self, capture: Capture) {
        self.run.last_ckpt = Some(capture);
        self.build.boot = Boot::Captured;
    }

    /// Copy the full mutable state into a typed image. `recycled` is an
    /// image nobody needs any more: its per-task buffers and the
    /// components' records are refilled in place rather than allocated
    /// again (the components' `image`). Its task table is taken to
    /// differ from this one only inside `ckpt_window` — true of the
    /// capture this system took or adopted last, and of any table while
    /// the window is still a build's or a restart's whole table. A fresh
    /// buffer is filled whole.
    pub(crate) fn capture(&self, now: SimTime, recycled: Option<SystemImage>) -> SystemImage {
        let (mut tasks, mut latent, mut stale, mut pending, sched, manager) = match recycled {
            Some(old) => (
                old.tasks,
                old.latent,
                old.stale,
                old.pending,
                Some(old.sched),
                Some(old.manager),
            ),
            None => Default::default(),
        };
        let slots = &mut tasks.slots;
        let had = slots.len();
        slots.extend_from_slice(&self.run.slots[had..]);
        let window = self.run.ckpt_window.range();
        let window = window.start.min(had)..window.end.min(had);
        slots[window.clone()].copy_from_slice(&self.run.slots[window.clone()]);
        tasks.setbacks.clone_from(&self.run.setbacks);
        if cfg!(any(test, debug_assertions)) {
            assert!(
                tasks.slots == self.run.slots,
                "the capture window missed a task slot that changed"
            );
            let copied = (self.run.slots.len() - had + window.len()) as u64;
            SLOTS_COPIED.with(|n| n.set(n.get() + copied));
        }
        latent.clone_from(&self.run.latent);
        stale.clone_from(&self.run.stale);
        pending.clear();
        self.run.pending_in_order(&mut pending);
        // The crash is the one event that must NOT survive: the next
        // segment gets its own crash time.
        pending.retain(|(_, ev)| !matches!(ev, Ev::Crash));
        SystemImage {
            schema: Schema,
            at: now,
            task_columns: TaskColumns,
            tasks,
            latent,
            stale,
            running: self.run.running,
            pending,
            fault: self.run.fault,
            rng: self.injector.as_ref().map(|inj| inj.stream_states()),
            admission: self.run.admission.clone(),
            sched: self.sched.image(sched).expect("validated at enable"),
            manager: self.manager.image(manager).expect("validated at enable"),
        }
    }

    /// Load a captured image into this system as built or restarted
    /// ([`restart`](Self::restart)): the image holds every other piece of
    /// mutable state, so what it restores over is the same. Fails when
    /// the image does not describe this system: another task count, a
    /// task that arrives at another time than its spec, a task id or op
    /// index out of range, pending events that contradict the task table,
    /// or a fault injector or admission policy on one side only. The
    /// scheduler and the manager read their own sections,
    /// as strictly; the task ids *inside* those two are not range-checked
    /// (neither component knows the task count) until `System` gets a
    /// typed view of them (ROADMAP, `Persist`).
    pub(crate) fn restore(&mut self, img: &SystemImage) -> Result<(), String> {
        self.begin();
        let n = self.build.specs.len();
        let slots = &img.tasks.slots;
        if slots.len() != n {
            return Err(format!("image has {} tasks, want {n}", slots.len()));
        }
        for (slot, spec) in slots.iter().zip(&self.build.specs) {
            // Right count is not yet right set: arrivals never change.
            if slot.arrival != spec.arrival {
                return Err(format!("task '{}' arrives at another time", spec.name));
            }
            if !slot.state.is_terminal() && slot.op_idx as usize >= spec.ops.len() {
                return Err(format!("live task '{}' is past its last op", spec.name));
            }
        }
        let pending = img.pending.iter().map(|&(_, ev)| ev);
        agrees_with_table(slots, img.running.map(|run| run.tid), pending)?;
        match (img.rng, self.injector.as_mut()) {
            (None, None) => {}
            (Some(states), Some(inj)) => inj.restore_stream_states(states),
            _ => return Err("fault injector presence differs from the image".into()),
        }
        match (&img.admission, self.run.admission.as_mut()) {
            (None, None) => {}
            (Some(a), Some(adm)) => {
                a.fits(n)?;
                adm.clone_from(a);
            }
            _ => return Err("admission presence differs from the image".into()),
        }
        self.sched
            .restore_image(&img.sched)
            .map_err(|e| format!("scheduler: {e}"))?;
        self.manager
            .restore_image(&img.manager)
            .map_err(|e| format!("manager: {e}"))?;
        self.run.slots.clone_from(slots);
        self.run.setbacks.clone_from(&img.tasks.setbacks);
        self.run.latent.clone_from(&img.latent);
        self.run.stale.clone_from(&img.stale);
        self.run.unfinished = self.run.live_in_table();
        self.run.running = img.running;
        self.run.fault = img.fault;
        // Pending events last: the fresh queue (clock still at zero)
        // re-learns every in-flight timer at its absolute time.
        self.run.reload_pending(img.pending.iter().copied());
        Ok(())
    }

    /// Restart this system and take the cut's accounting: the first step
    /// of every adoption. The capture, if any, is `adopt_capture`'s next.
    fn restart_from(&mut self, cut: &Cut) -> Result<(), VfpgaError> {
        self.restart(cut.capture.is_some()).map_err(corrupt)?;
        self.run.crash = cut.stats;
        // Whatever the adoption leaves on the fabric was not produced by
        // WAL-visible downloads of THIS incarnation: the next checkpoint
        // capture must be a full image.
        self.run.ckpt_dirty_all = true;
        Ok(())
    }

    /// Adopt a capture as this incarnation's restore point: load it over
    /// the restarted system and remember it as the last capture, covering
    /// `wal_len` records of this device's journal.
    fn adopt_capture(&mut self, capture: Capture, wal_len: usize) -> Result<(), VfpgaError> {
        self.restore(&capture.image).map_err(corrupt)?;
        // The table is the capture's own: the next capture, recycling it,
        // copies only the slots live now and those that arrive or exit.
        self.run.ckpt_window = SlotWindow::whole(self.run.slots.len()).live(&self.run.slots);
        self.keep_capture(Capture { wal_len, ..capture });
        Ok(())
    }

    /// The one sink of the column writes manager calls report: a WAL
    /// record of `[col0, col0 + width)`, those columns marked for the next
    /// delta capture and, if they now hold `cid`, its stale claim fresh.
    pub(crate) fn journal(
        &mut self,
        cid: Option<CircuitId>,
        (col0, width): (u32, u32),
        duration: SimDuration,
        now: SimTime,
    ) {
        let rewritten = self.run.dirty_cols.iter_mut().skip(col0 as usize);
        rewritten.take(width as usize).for_each(|d| *d = true);
        self.run.wal.push(WalRecord {
            seq: self.run.wal.len() as u64,
            cid,
            col0,
            width,
            at: now,
            duration,
        });
        if let Some(c) = cid {
            self.run.stale.remove(&c.0);
        }
    }

    /// Journal the columns a call's GC runs moved circuits onto: each
    /// circuit resident on them now, and each column the call evicted its
    /// mover from again (named by none). The moves' time is the
    /// activation's, so no crash tears these.
    pub(crate) fn journal_moves(&mut self, mut moved: u64, now: SimTime) {
        let held = (moved != 0).then(|| self.manager.resident_regions());
        let held = held.unwrap_or_default();
        while moved != 0 {
            let col = moved.trailing_zeros();
            let r = held.iter().find(|r| r.covers(col));
            let (col0, width) = r.map_or((col, 1), |r| (r.col0, r.width));
            moved &= !columns(col0, width);
            self.journal(r.map(|r| r.cid), (col0, width), SimDuration::ZERO, now);
        }
    }

    /// The activation of `circuit` for task `ti` is through: journal its
    /// moves, then its load (a `rejected` one holds nothing to trust). A
    /// "hit" on a claim a journal-off restore left stale runs the op on
    /// garbage, and nothing detects it.
    pub(crate) fn journal_activation(
        &mut self,
        ti: usize,
        circuit: CircuitId,
        write: Option<Write>,
        moved: u64,
        rejected: bool,
        now: SimTime,
    ) {
        self.journal_moves(moved & !write.map_or(0, |w| columns(w.col0, w.width)), now);
        if let Some(w) = write {
            let cid = Some(circuit).filter(|_| !rejected);
            self.journal(cid, (w.col0, w.width), w.config_time, now);
        } else if self.run.stale.contains(&circuit.0) {
            self.run.slots[ti].corrupted = true;
            self.run.crash.silent_corruptions += 1;
        }
    }

    /// The host dies at `now`: move out everything that survives on
    /// durable storage (last checkpoint + journal + accounting).
    pub(crate) fn crash_now(&mut self, now: SimTime) -> Cut {
        self.run.crash.crashes += 1;
        let base = self.run.last_ckpt.as_ref().map(|i| i.wal_len).unwrap_or(0);
        let at_risk = (self.run.wal.len() - base) as u32;
        // Only post-checkpoint records can tear: anything older has its
        // table effects inside the image already.
        let torn = self.run.wal[base..]
            .iter()
            .filter(|r| r.in_flight_at(now))
            .count() as u64;
        self.run.crash.torn_downloads += torn;
        self.emit(now, |_| TraceEvent::Crash {
            downloads_at_risk: at_risk,
            torn: torn > 0,
        });
        let cut = Cut {
            at: now,
            capture: self.run.last_ckpt.take(),
            wal: std::mem::take(&mut self.run.wal),
            stats: self.run.crash,
        };
        debug_assert!(
            cut.survives_durable_form(),
            "a cut must survive the render/parse round trip"
        );
        cut
    }

    /// Restore this system from what survived a crash: restart it, apply
    /// the checkpoint image (if one was ever captured), then reconcile the
    /// restored residency tables against the write-ahead log. The system
    /// may be freshly built or the one the crash cut — a restart leaves
    /// nothing of the dead incarnation behind. With the journal on,
    /// post-checkpoint downloads invalidate overlapping claims (clean
    /// re-downloads later); with it off, those claims stay and are marked
    /// stale — the next "hit" computes garbage.
    pub fn restore_from(&mut self, state: &CrashState) -> Result<(), VfpgaError> {
        self.restore_cut(Cut::from_durable(state)?)
    }

    /// [`restore_from`](Self::restore_from) for a cut still in its process.
    #[doc(hidden)]
    pub fn restore_cut(&mut self, cut: Cut) -> Result<(), VfpgaError> {
        let _s = span::guard("restore");
        let Some(cfg) = self.build.ckpt else {
            return Err(corrupt("restore_from requires with_checkpoints".into()));
        };
        let base = cut.wal_base()?;
        self.restart_from(&cut)?;
        self.run.wal = cut.wal;
        // Cold restart (no image): the restarted system IS the restart
        // state — every task is still to arrive and the first checkpoint
        // is scheduled; only the journal below needs attention.
        if let Some(capture) = cut.capture {
            self.adopt_capture(capture, base)?;
        }
        let crash_at = cut.at;
        // The post-checkpoint records, walked in place.
        let (post, manager) = (&self.run.wal[base..], &mut self.manager);
        if post.is_empty() {
            return Ok(());
        }
        let timing = *manager.timing();
        if cfg.journal {
            // Journal replay: torn records are undone from their
            // pre-images, committed ones redo-verified by readback; both
            // cost port traffic. The restored tables are older than the
            // device, so every claim overlapping a post-checkpoint write
            // is discarded (conservatively including torn regions — an
            // extra re-download is safe, a stale claim is not).
            let undone = post.iter().filter(|r| r.in_flight_at(crash_at)).count() as u32;
            let redone = post.len() as u32 - undone;
            let cost = post.iter().fold(SimDuration::ZERO, |cost, r| {
                cost + timing.readback_time(r.width as usize)
            });
            for claim in manager.resident_regions() {
                if post.iter().any(|r| r.overlaps(claim.col0, claim.width))
                    && manager.discard_resident(claim.cid)
                {
                    self.run.crash.stale_discards += 1;
                }
            }
            // Undone records leave the journal (and the device), exactly
            // like fpga::Journal::recover retaining only committed ones.
            self.run.wal.retain(|r| !r.in_flight_at(crash_at));
            self.run.crash.records_redone += u64::from(redone);
            self.run.crash.records_undone += u64::from(undone);
            self.run.crash.replay_time += cost;
            self.emit(crash_at, |_| TraceEvent::JournalReplay {
                redone,
                undone,
                duration: cost,
            });
        } else {
            // No journal: nothing reconciles the device with the restored
            // tables. A claim whose region's LAST post-checkpoint write
            // was a different circuit (or tore) now points at garbage.
            for claim in manager.resident_regions() {
                let clobbered = post
                    .iter()
                    .rev()
                    .find(|r| r.overlaps(claim.col0, claim.width))
                    .is_some_and(|r| r.cid != Some(claim.cid) || r.in_flight_at(crash_at));
                if clobbered {
                    self.run.stale.insert(claim.cid.0);
                }
            }
            // The most direct victim: an FPGA segment that was mid-flight
            // at the checkpoint resumes WITHOUT re-activating, so the
            // dispatch-path staleness check never sees it. If its circuit
            // claim is stale, the resumed computation runs on whatever the
            // post-checkpoint downloads left in those columns.
            if let Some(Running {
                tid, fpga: Some(f), ..
            }) = self.run.running
            {
                if self.run.stale.contains(&f.cid.0) {
                    self.run.slots[tid.0 as usize].corrupted = true;
                    self.run.crash.silent_corruptions += 1;
                }
            }
        }
        Ok(())
    }

    /// Adopt the image of a shard cut at `cut.at` onto fresh fabric: the
    /// shared first half of [`fail_over_cut`](Self::fail_over_cut) and
    /// [`migrate_in_cut`](Self::migrate_in_cut). The journal restarts empty (its
    /// records describe downloads to fabric that no longer exists; the
    /// torn ones are counted undone), every restored residency claim is
    /// discarded, and the dead fabric's latent upsets and stale markers go
    /// with it. Returns the torn-record count, the work window to
    /// re-execute (cut time minus the image's capture time — the whole run
    /// so far on a cold start), that capture time, and the discarded claims.
    pub(crate) fn adopt_onto_fresh_fabric(
        &mut self,
        cut: Cut,
        who: &str,
    ) -> Result<(u32, SimDuration, SimTime, Vec<ResidentRegion>), VfpgaError> {
        if self.build.ckpt.is_none() {
            return Err(corrupt(format!("{who} requires with_checkpoints")));
        }
        let base = cut.wal_base()?;
        let resume_at = cut.resume_at();
        // The restart leaves the journal empty and the fabric fresh.
        self.restart_from(&cut)?;
        if let Some(capture) = cut.capture {
            self.adopt_capture(capture, 0)?;
        }
        let torn = cut.wal[base..]
            .iter()
            .filter(|r| r.in_flight_at(cut.at))
            .count() as u32;
        self.run.crash.records_undone += u64::from(torn);
        let mut discarded = self.manager.resident_regions();
        discarded.retain(|claim| self.manager.discard_resident(claim.cid));
        self.run.latent.clear();
        self.run.stale.clear();
        Ok((torn, cut.at - resume_at, resume_at, discarded))
    }

    /// Adopt a shard that died with its device: restart this system —
    /// freshly built, or the one the device fault cut, running on a
    /// *different* (or wiped-and-rejoined) device — and restore it from
    /// the crashed shard's durable state. Unlike
    /// [`restore_from`](Self::restore_from), which reconciles surviving
    /// device contents against the journal, here the source fabric is
    /// gone: torn records are dropped, committed post-checkpoint records
    /// have nothing left on the destination to redo-verify, and every
    /// restored residency claim is discarded. Each discarded claim is one
    /// migration, priced honestly: the source-side half was already paid
    /// as the checkpoint readback, and the destination pays the download
    /// at the circuit's next activation. A mid-flight FPGA segment
    /// restored from the image re-executes its post-checkpoint work on
    /// the destination, exactly like the journal-on restore path. A
    /// durable state comes in through [`Cut::from_durable`].
    pub fn fail_over_cut(&mut self, cut: Cut) -> Result<FailoverReceipt, VfpgaError> {
        let _s = span::guard("failover");
        let (torn, redo_window, _, discarded) =
            self.adopt_onto_fresh_fabric(cut, "fail_over_cut")?;
        Ok(FailoverReceipt {
            migrated_claims: discarded.len() as u32,
            torn_undone: torn,
            redo_window,
            live_tasks: self.run.unfinished as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::pending_rows;
    use crate::manager::dynload::DynLoadManager;
    use crate::manager::PreemptAction;
    use crate::metrics::TaskMetrics;
    use crate::sched::{FifoScheduler, RoundRobinScheduler};
    use crate::system::{CompletionDetect, SystemConfig};
    use crate::system_tests::{lib_mixed, ms, timing};
    use crate::task::{Op, TaskId, TaskSpec};
    use fsim::SimRng;

    const SAVE_RESTORE: SystemConfig = SystemConfig {
        preempt: PreemptAction::SaveRestore,
        completion: CompletionDetect::Exact,
    };

    /// `tasks` Poisson arrivals `gap_ms` apart on average, each a CPU
    /// burst, an FPGA run and a CPU burst, under dynamic loading and
    /// round-robin: the `durable` system, scaled down.
    fn durable_shaped(
        tasks: usize,
        gap_ms: f64,
    ) -> impl Fn() -> System<DynLoadManager, RoundRobinScheduler> {
        let (lib, ids) = lib_mixed(3);
        let mut rng = SimRng::new(0xD0AB1E);
        let mut at = SimTime::ZERO;
        let burst = |rng: &mut SimRng| SimDuration::from_secs_f64(rng.exp(2e-3).max(1e-6));
        let specs: Vec<TaskSpec> = (0..tasks)
            .map(|i| {
                at += SimDuration::from_secs_f64(rng.exp(gap_ms / 1e3));
                let fpga = Op::FpgaRun {
                    circuit: *rng.choose(&ids),
                    cycles: rng.range_u64(60_000, 250_000),
                };
                let ops = vec![Op::Cpu(burst(&mut rng)), fpga, Op::Cpu(burst(&mut rng))];
                TaskSpec::new(format!("t{i}"), at, ops)
            })
            .collect();
        move || {
            let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
            let sched = RoundRobinScheduler::new(ms(1));
            System::new(lib.clone(), mgr, sched, SAVE_RESTORE, specs.clone())
        }
    }

    #[test]
    fn capture_window_copies_what_changed() {
        // 400 tasks at load ~0.3, a delta capture every ten arrivals or so
        // and three host crashes: each capture copies the slots live at
        // the one before, and those that arrived or exited since — not the
        // table. A fresh buffer's whole copy, once a run, counts too.
        let tasks = 400;
        let build = durable_shaped(tasks, 48.0);
        let plain = build().run().unwrap();
        let busy_s: f64 = plain
            .tasks
            .iter()
            .map(|t| (t.cpu_time + t.fpga_time + t.overhead_time).as_secs_f64())
            .sum();
        let load = busy_s / plain.makespan.as_secs_f64();
        assert!(
            (0.2..0.45).contains(&load),
            "load {load:.2}, {:.2} ms a task",
            busy_s * 1e3 / tasks as f64
        );
        let cfg = CheckpointConfig::new(ms(500)).with_delta_checkpoints(4);
        let crashes = CrashPlan {
            seed: 0xC4A5,
            crash_rate_per_s: 0.5,
            max_crashes: 3,
        };
        SLOTS_COPIED.with(|n| n.set(0));
        let report = run_with_crashes(&build, cfg, crashes).unwrap();
        let copied = SLOTS_COPIED.with(|n| n.get());
        let captures = report.crash.checkpoints;
        assert_eq!(report.crash.crashes, 3);
        assert!(captures >= 30, "{captures} captures");
        let share = copied as f64 / (captures * tasks as u64) as f64;
        assert!(
            share < 0.10,
            "{captures} captures copied {copied} task slots, {:.1} % of the table each",
            share * 100.0
        );
    }

    #[test]
    #[should_panic(expected = "the capture window missed a task slot that changed")]
    fn capture_window_check_fires_on_a_write_outside_it() {
        let mut sys = durable_shaped(8, 1.0)()
            .with_checkpoints(CheckpointConfig::new(ms(1)))
            .unwrap();
        sys.begin();
        sys.on_arrive(TaskId(2), SimTime::ZERO);
        // The first capture copies the whole table; slot 2, the one live
        // slot, is the window of the next.
        sys.on_checkpoint(SimTime::ZERO);
        // Below the window, and neither an arrival nor an exit.
        sys.run.slots[1].blocked_count += 1;
        sys.on_checkpoint(SimTime::ZERO);
    }

    /// Tasks of one CPU burst each, `(arrival, burst)` in ms, under FIFO
    /// with a capture every 10 ms and a crash at `crash_ms`: the pending
    /// set of the last capture as its rendering lists it, arrivals
    /// included, and the order the system, restarted from it, pops that
    /// set in.
    fn last_capture_pending(tasks: &[(u64, u64)], crash_ms: u64) -> [Vec<(SimTime, Ev)>; 2] {
        let build = || {
            let (lib, _) = lib_mixed(1);
            let specs = tasks
                .iter()
                .enumerate()
                .map(|(i, &(at, burst))| {
                    TaskSpec::new(
                        format!("t{i}"),
                        SimTime::ZERO + ms(at),
                        vec![Op::Cpu(ms(burst))],
                    )
                })
                .collect();
            let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
            System::new(lib, mgr, FifoScheduler::new(), SAVE_RESTORE, specs)
                .with_checkpoints(CheckpointConfig::new(ms(10)))
                .unwrap()
        };
        let mut sys = build();
        let crash_at = SimTime::ZERO + ms(crash_ms);
        let Some(cut) = sys.run_to_cut(Some(crash_at)).unwrap() else {
            panic!("the crash comes before the last task ends");
        };
        let rendered = cut.capture.as_ref().unwrap().image.to_json();
        let captured = pending_rows::read(rendered.get("pending").unwrap(), "pending").unwrap();
        sys.restore_cut(cut).unwrap();
        let popped = std::iter::from_fn(|| sys.run.next(&sys.build.arrivals)).collect();
        [captured, popped]
    }

    #[test]
    fn segment_end_tied_with_a_checkpoint_keeps_its_place() {
        // The segment end and a capture due at one instant, in both `seq`
        // orders. The captured pending sets are the ones captured while the
        // segment end was a queue event like any other.
        let at = |t: u64| SimTime::ZERO + ms(t);
        // Task 0's segment end (scheduled at 0) is older than the capture
        // due at 20 ms (scheduled at the 10 ms capture), and task 1's
        // arrival at 20 ms older than both: the 10 ms capture holds all
        // three at one instant.
        let [captured, popped] = last_capture_pending(&[(0, 20), (20, 1)], 15);
        let tie = [
            (at(20), Ev::Arrive(TaskId(1))),
            (at(20), Ev::Timer(TaskId(0))),
            (at(20), Ev::Checkpoint),
        ];
        assert_eq!(captured, tie);
        assert_eq!(popped, tie, "a restore pops them in the same order");
        // Task 0's segment end (scheduled at 15 ms) is younger than the
        // capture due at 20 ms: the capture fires first and holds it.
        let [captured, popped] = last_capture_pending(&[(15, 5), (20, 10)], 25);
        let tie = [(at(20), Ev::Timer(TaskId(0))), (at(30), Ev::Checkpoint)];
        assert_eq!(captured, tie);
        assert_eq!(popped, tie, "a restore pops them in the same order");
    }

    #[test]
    fn wal_record_windows_and_overlap() {
        let r = WalRecord {
            seq: 0,
            cid: Some(CircuitId(1)),
            col0: 4,
            width: 3,
            at: SimTime::ZERO + SimDuration::from_millis(10),
            duration: SimDuration::from_millis(5),
        };
        assert!(!r.in_flight_at(SimTime::ZERO + SimDuration::from_millis(9)));
        assert!(r.in_flight_at(SimTime::ZERO + SimDuration::from_millis(10)));
        assert!(r.in_flight_at(SimTime::ZERO + SimDuration::from_millis(14)));
        assert!(!r.in_flight_at(SimTime::ZERO + SimDuration::from_millis(15)));
        assert!(r.overlaps(0, 5), "left overlap");
        assert!(r.overlaps(6, 10), "right overlap");
        assert!(r.overlaps(4, 3), "exact");
        assert!(!r.overlaps(0, 4), "adjacent left");
        assert!(!r.overlaps(7, 2), "adjacent right");
    }

    #[test]
    fn diff_reports_flags_only_real_divergence() {
        let t = |cpu_ms: u64, failed: bool| TaskMetrics {
            name: "t".into(),
            cpu_time: SimDuration::from_millis(cpu_ms),
            failed,
            ..Default::default()
        };
        let a = Report {
            tasks: vec![t(10, false), t(20, false)],
            ..Default::default()
        };
        let mut b = a.clone();
        // Completion shifts do not diverge (not compared).
        b.tasks[0].completion = SimTime::ZERO + SimDuration::from_millis(99);
        assert!(diff_reports(&a, &b).is_empty());
        // A flipped outcome does.
        b.tasks[1].failed = true;
        let d = diff_reports(&a, &b);
        assert_eq!(d.len(), 1);
        assert_eq!((d[0].task, d[0].field), (1, "failed"));
        // Task-count mismatch short-circuits.
        b.tasks.pop();
        assert_eq!(diff_reports(&a, &b)[0].field, "task_count");
    }
}
