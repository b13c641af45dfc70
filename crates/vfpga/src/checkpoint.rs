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
//!   [`SystemImage`](crate::image::SystemImage), charged the realistic
//!   readback cost of the resident frames as background port traffic.
//!   The host keeps the typed image; it is rendered through the
//!   [`fsim::json`] writer into a [`CheckpointImage`] only when it leaves
//!   the host inside a [`CrashState`] (a crash, a failover, a migration),
//!   and read back strictly on the other side. That the rendering
//!   restores is proved by the image property tests and, in debug
//!   builds, re-checked on every image that leaves;
//! * every configuration download is logged as a [`WalRecord`] — the
//!   OS-level view of the `fpga::journal` write-ahead log. Records after
//!   the last checkpoint are the ones a restore must reconcile: the
//!   device holds them, the restored tables do not;
//! * on restart, [`run_with_crashes`] rebuilds the system, restores the
//!   last [`CheckpointImage`], and replays the journal: committed
//!   post-checkpoint downloads invalidate the stale residency claims the
//!   restored tables still hold (forcing clean re-downloads), torn ones
//!   are rolled back. With the journal disabled the restored tables keep
//!   their stale claims and the next "residency hit" silently computes on
//!   garbage — [`TaskMetrics::corrupted`](crate::TaskMetrics::corrupted).
//!
//! [`diff_reports`] is the differential verifier: a crashed-and-restored
//! run must reach the same per-task outcomes as the uninterrupted
//! same-seed run on every timing-invariant field (completion times may
//! legitimately shift, because recovery re-downloads cost time).

use crate::circuit::CircuitId;
use crate::error::VfpgaError;
use crate::manager::FpgaManager;
use crate::metrics::Report;
use crate::sched::Scheduler;
use crate::system::System;
use fsim::json::Json;
use fsim::{CrashInjector, CrashPlan, SimDuration, SimTime, Trace};

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
/// exists outside the host that captured it.
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
    /// the image left its host. A restore reads it back with the strict
    /// [`SystemImage::from_json`](crate::image::SystemImage::from_json),
    /// so a damaged tree is a
    /// [`CheckpointCorrupt`](VfpgaError::CheckpointCorrupt) error.
    pub state: Json,
}

/// The OS-level view of one journaled configuration download.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotone record number.
    pub seq: u64,
    /// Circuit downloaded.
    pub cid: CircuitId,
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
    for (i, (b, r)) in baseline.tasks.iter().zip(&restored.tasks).enumerate() {
        let mut push = |field: &'static str, bv: String, rv: String| {
            if bv != rv {
                out.push(Divergence {
                    task: i,
                    field,
                    baseline: bv,
                    restored: rv,
                });
            }
        };
        push("name", b.name.clone(), r.name.clone());
        push("failed", b.failed.to_string(), r.failed.to_string());
        push(
            "quarantined",
            b.quarantined.to_string(),
            r.quarantined.to_string(),
        );
        push("rejected", b.rejected.to_string(), r.rejected.to_string());
        push(
            "degraded_time",
            b.degraded_time.as_nanos().to_string(),
            r.degraded_time.as_nanos().to_string(),
        );
        push(
            "cpu_time",
            b.cpu_time.as_nanos().to_string(),
            r.cpu_time.as_nanos().to_string(),
        );
        push(
            "fpga_time",
            b.fpga_time.as_nanos().to_string(),
            r.fpga_time.as_nanos().to_string(),
        );
        push(
            "corrupted",
            b.corrupted.to_string(),
            r.corrupted.to_string(),
        );
        push(
            "lost_in_flight",
            b.lost_in_flight.to_string(),
            r.lost_in_flight.to_string(),
        );
    }
    out
}

/// Run a workload to completion under seeded host crashes: build the
/// system, run until the injector's next crash time, restore from the
/// carried [`CrashState`], repeat. `build` must produce identically
/// configured systems (same tasks, manager, scheduler, seeds) — it is
/// called once per crash plus once.
///
/// The injector draws successive *absolute* crash times from its own
/// seeded stream, so a restored run never re-crashes at an already-fired
/// time and the whole sequence is deterministic.
pub fn run_with_crashes<M, S>(
    mut build: impl FnMut() -> System<M, S>,
    cfg: CheckpointConfig,
    plan: CrashPlan,
) -> Result<Report, VfpgaError>
where
    M: FpgaManager,
    S: Scheduler,
{
    let mut inj = CrashInjector::new(plan);
    let mut carry: Option<CrashState> = None;
    loop {
        let mut sys = build().with_checkpoints(cfg)?;
        if let Some(state) = &carry {
            sys.restore_from(state)?;
        }
        match sys.run_until(inj.next_crash_at())? {
            RunOutcome::Completed(report, _) => return Ok(*report),
            RunOutcome::Crashed(state) => carry = Some(*state),
        }
    }
}

/// [`run_with_crashes`] with tracing enabled on every segment; returns
/// the final (completing) segment's trace alongside the report. Earlier
/// segments' traces die with their crashed host — exactly as a real
/// in-memory trace buffer would.
pub fn run_with_crashes_traced<M, S>(
    mut build: impl FnMut() -> System<M, S>,
    cfg: CheckpointConfig,
    plan: CrashPlan,
) -> Result<(Report, Trace), VfpgaError>
where
    M: FpgaManager,
    S: Scheduler,
{
    let mut inj = CrashInjector::new(plan);
    let mut carry: Option<CrashState> = None;
    loop {
        let mut sys = build().with_trace().with_checkpoints(cfg)?;
        if let Some(state) = &carry {
            sys.restore_from(state)?;
        }
        match sys.run_until(inj.next_crash_at())? {
            RunOutcome::Completed(report, trace) => return Ok((*report, trace)),
            RunOutcome::Crashed(state) => carry = Some(*state),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::TaskMetrics;

    #[test]
    fn wal_record_windows_and_overlap() {
        let r = WalRecord {
            seq: 0,
            cid: CircuitId(1),
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
