//! Accounting.
//!
//! The experiments report wait time, turnaround, overhead fraction, and
//! device utilization; this module accumulates them per task and
//! aggregates a [`Report`] per run.

use crate::admission::AdmissionStats;
use crate::checkpoint::CrashStats;
use crate::manager::ManagerStats;
use crate::recovery::FaultStats;
use fsim::{Metrics, SimDuration, SimTime, Summary, TimelineSet};
use std::sync::Arc;

/// Per-task accounting. Aligned to 16 like [`TaskSpec`](crate::TaskSpec),
/// whose table the report's rows are written over.
#[derive(Debug, Clone, Default)]
#[repr(align(16))]
pub struct TaskMetrics {
    /// Task name, shared with the task's spec.
    pub name: Arc<str>,
    /// Arrival time.
    pub arrival: SimTime,
    /// Completion time.
    pub completion: SimTime,
    /// CPU time spent on useful CPU bursts.
    pub cpu_time: SimDuration,
    /// Time spent executing on the FPGA.
    pub fpga_time: SimDuration,
    /// CPU time lost to configuration/state overhead on this task's behalf.
    pub overhead_time: SimDuration,
    /// FPGA work discarded by rollbacks.
    pub lost_time: SimDuration,
    /// FPGA work discarded by fault recovery (garbage computed on a
    /// corrupted circuit between the strike and its repair).
    pub fault_lost_time: SimDuration,
    /// CPU time spent emulating FPGA ops in software (graceful
    /// degradation under area saturation). Useful work, like `cpu_time`,
    /// but priced from the coprocessor software model.
    pub degraded_time: SimDuration,
    /// Number of times the task blocked on an FPGA resource.
    pub blocked_count: u64,
    /// Terminated by fault recovery instead of completing.
    pub failed: bool,
    /// Removed from scheduling by admission control (watchdog trips or
    /// fault recovery exhausted).
    pub quarantined: bool,
    /// Load-shed at arrival: never admitted.
    pub rejected: bool,
    /// Rejected at arrival by the schedulability test: the a-priori
    /// estimate proved the deadline unmeetable. Disjoint from `rejected`
    /// (quota load-shedding) — a task carries at most one of the two.
    pub unschedulable: bool,
    /// Completed, but after its stated deadline.
    pub deadline_missed: bool,
    /// The task "completed" but at least one of its FPGA ops ran on a
    /// stale residency claim after a crash-restore without journal
    /// replay: the result is garbage the system never noticed (silent
    /// corruption). Always false when the configuration journal is on.
    pub corrupted: bool,
    /// The task's device crashed and no failover destination could take
    /// it within the fleet's retry budget: the work in flight since the
    /// last checkpoint is gone and the task never reached a terminal
    /// outcome. Disjoint from every other terminal flag — a checkpointed
    /// single-device run can never set it (only `vfpga::fleet` does).
    pub lost_in_flight: bool,
}

impl TaskMetrics {
    /// Turnaround: completion − arrival.
    pub fn turnaround(&self) -> SimDuration {
        self.completion - self.arrival
    }

    /// Sum of all accounted activity: CPU + FPGA + software emulation +
    /// overhead + rollback loss + fault-recovery loss.
    pub fn accounted(&self) -> SimDuration {
        self.cpu_time
            + self.fpga_time
            + self.degraded_time
            + self.overhead_time
            + self.lost_time
            + self.fault_lost_time
    }

    /// Time neither computing nor charged overhead: queueing/blocked time.
    ///
    /// In debug builds this asserts that the accounted activity does not
    /// exceed the turnaround — a violation means double-charged time, which
    /// the old `saturating_sub` chain silently truncated to zero.
    pub fn waiting(&self) -> SimDuration {
        debug_assert!(
            self.accounted() <= self.turnaround(),
            "task {:?}: accounted {:?} exceeds turnaround {:?} (double-charged time?)",
            self.name,
            self.accounted(),
            self.turnaround(),
        );
        self.turnaround().saturating_sub(self.accounted())
    }

    /// Checked variant of [`waiting`](Self::waiting): `None` when the
    /// accounted activity exceeds the turnaround (an accounting bug) instead
    /// of silently truncating to zero.
    pub fn waiting_checked(&self) -> Option<SimDuration> {
        let acc = self.accounted();
        let turn = self.turnaround();
        (acc <= turn).then(|| turn - acc)
    }
}

/// Per-phase breakdown of where the overhead went.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadBreakdown {
    /// Configuration downloads (partial and full).
    pub config: SimDuration,
    /// State save/restore traffic (readback + state writes).
    pub state: SimDuration,
    /// Garbage collection: compaction relocations.
    pub gc: SimDuration,
    /// FPGA progress discarded by rollbacks.
    pub rollback_loss: SimDuration,
    /// Download time wasted on corrupt configuration attempts (the CRC
    /// failed and the stream was sent again). Carved out of `config` so
    /// the two stay disjoint.
    pub fault_retry: SimDuration,
    /// Background readback traffic spent capturing system checkpoints
    /// (zero unless checkpointing is enabled). Like scrubbing, this is
    /// port time no task is charged for.
    pub checkpoint: SimDuration,
    /// Background port traffic spent replaying the configuration journal
    /// after a crash (undo of torn downloads, redo verification).
    pub journal_replay: SimDuration,
    /// Watchdog-forced preemptions: manager overhead of the forced state
    /// moves plus the operation progress they discarded. Carved out of
    /// `state` and `rollback_loss` respectively, so the slices stay
    /// disjoint (zero unless admission control armed watchdogs).
    pub watchdog: SimDuration,
    /// Remaining charged overhead not attributed to a phase above.
    pub other: SimDuration,
}

impl OverheadBreakdown {
    /// Sum of all phases. On runs without checkpointing this equals the
    /// task-charged [`Report::overhead_time`]; with checkpointing it adds
    /// the background `checkpoint` and `journal_replay` slices on top.
    pub fn total(&self) -> SimDuration {
        self.config
            + self.state
            + self.gc
            + self.rollback_loss
            + self.fault_retry
            + self.checkpoint
            + self.journal_replay
            + self.watchdog
            + self.other
    }
}

/// One simulation run's results.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Manager policy name.
    pub manager: &'static str,
    /// Scheduler policy name.
    pub scheduler: &'static str,
    /// Per-task metrics, task order.
    pub tasks: Vec<TaskMetrics>,
    /// Completion time of the last task.
    pub makespan: SimDuration,
    /// Manager counters.
    pub manager_stats: ManagerStats,
    /// Fault-injection and recovery accounting (all zero on fault-free
    /// runs). Background recovery time (scrubbing, repairs, retirement)
    /// lives only here — it is never charged to any task, so it is
    /// disjoint from [`overhead_breakdown`](Self::overhead_breakdown)
    /// except for the `fault_retry` slice both sides carve out of
    /// download time.
    pub fault: FaultStats,
    /// Checkpoint/crash-recovery accounting (all zero unless the run had
    /// checkpointing enabled). Checkpoint readbacks and journal replay
    /// run in the background like scrubbing — never task-charged.
    pub crash: CrashStats,
    /// Admission-control outcome counters; `None` unless the run was
    /// built with [`System::with_admission`](crate::system::System::with_admission)
    /// (exported as all zeros).
    pub admission: Option<AdmissionStats>,
    /// Delta-reconfiguration counters; `None` unless the manager had
    /// `enable_delta()` called (exported as all zeros).
    pub delta: Option<crate::manager::DeltaStats>,
    /// Counter/gauge snapshot taken at the end of the run (empty unless the
    /// system ran with observability enabled).
    pub metrics: Metrics,
    /// Time-weighted series sampled during the run: `clb_used`,
    /// `free_fragments`, `ready_queue_depth` (empty unless observability
    /// was enabled).
    pub timelines: TimelineSet,
    /// Simulated-time latency distributions per operation class (download,
    /// GC, checkpoint capture, …) plus per-tenant `turnaround@t<n>` /
    /// `waiting@t<n>` series; `None` unless the run was built with
    /// [`System::with_latency_profile`](crate::system::System::with_latency_profile).
    /// Deliberately absent from the exporter's report JSON — E18's table
    /// and `trace_dump` read it directly, so legacy exports stay
    /// byte-identical.
    pub latency: Option<fsim::HistSet>,
    /// Fleet-level failover accounting, present only on reports merged by
    /// [`crate::fleet::run_fleet`]; single-device runs leave it `None`,
    /// which exports as the all-zero section of a fault-free fleet — so a
    /// fault-free one-device fleet export is byte-identical to the plain
    /// `System` export.
    pub fleet: Option<crate::fleet::FleetStats>,
}

impl Report {
    /// Mean turnaround across tasks (seconds).
    pub fn mean_turnaround_s(&self) -> f64 {
        let mut s = Summary::new();
        for t in &self.tasks {
            s.add(t.turnaround().as_secs_f64());
        }
        s.mean()
    }

    /// Mean waiting time across tasks (seconds).
    pub fn mean_waiting_s(&self) -> f64 {
        let mut s = Summary::new();
        for t in &self.tasks {
            s.add(t.waiting().as_secs_f64());
        }
        s.mean()
    }

    /// Total useful time (CPU + FPGA + software emulation) across tasks.
    pub fn useful_time(&self) -> SimDuration {
        self.tasks.iter().fold(SimDuration::ZERO, |a, t| {
            a + t.cpu_time + t.fpga_time + t.degraded_time
        })
    }

    /// Total overhead (config + state + rollback losses).
    pub fn overhead_time(&self) -> SimDuration {
        self.tasks
            .iter()
            .fold(SimDuration::ZERO, |a, t| a + t.overhead_time + t.lost_time)
    }

    /// Everything the run spent on non-useful work: task-charged overhead
    /// plus all background recovery traffic (scrubbing/repair/retirement
    /// from [`FaultStats`], checkpoint capture and journal replay from
    /// [`CrashStats`]). This is the grand total the breakdown and the
    /// fault stats must tile exactly:
    /// `overhead_breakdown().total() + fault.background_time() == total_overhead()`.
    pub fn total_overhead(&self) -> SimDuration {
        self.overhead_time()
            + self.fault.background_time()
            + self.crash.checkpoint_time
            + self.crash.replay_time
    }

    /// Overhead as a fraction of useful + overhead time.
    pub fn overhead_fraction(&self) -> f64 {
        let o = self.overhead_time().as_secs_f64();
        let u = self.useful_time().as_secs_f64();
        if o + u == 0.0 {
            0.0
        } else {
            o / (o + u)
        }
    }

    /// Where the overhead went, by phase. `config`, `state` and `gc` come
    /// from the manager's counters (disjoint: GC relocation traffic is
    /// attributed to `gc`, not `config`/`state`); `rollback_loss` is the
    /// discarded FPGA progress summed over tasks; `other` is whatever
    /// task-charged overhead remains (zero when boot-time downloads, which
    /// no task pays for, exceed the task-charged total). Wasted corrupt
    /// downloads (which the manager's `config_time` necessarily includes)
    /// are split out into `fault_retry`.
    pub fn overhead_breakdown(&self) -> OverheadBreakdown {
        // Watchdog-forced preemptions are reattributed into their own
        // slice: the manager overhead they caused comes out of `state`,
        // the progress they discarded out of `rollback_loss`, so the
        // slices stay disjoint and the tiling invariant holds.
        let (wd_preempt, wd_lost) = match &self.admission {
            Some(a) => (a.watchdog_preempt_time, a.watchdog_lost_time),
            None => (SimDuration::ZERO, SimDuration::ZERO),
        };
        let watchdog = wd_preempt + wd_lost;
        let rollback_loss = self
            .tasks
            .iter()
            .fold(SimDuration::ZERO, |a, t| a + t.lost_time)
            .saturating_sub(wd_lost);
        let fault_retry = self.fault.retry_time;
        let config = self.manager_stats.config_time.saturating_sub(fault_retry);
        let state = self.manager_stats.state_time.saturating_sub(wd_preempt);
        let gc = self.manager_stats.gc_time;
        let other = self
            .overhead_time()
            .saturating_sub(config)
            .saturating_sub(state)
            .saturating_sub(gc)
            .saturating_sub(rollback_loss)
            .saturating_sub(fault_retry)
            .saturating_sub(watchdog);
        OverheadBreakdown {
            config,
            state,
            gc,
            rollback_loss,
            fault_retry,
            // Background slices ride on top of the task-charged total:
            // they are never part of overhead_time(), so they are not
            // subtracted when computing `other`.
            checkpoint: self.crash.checkpoint_time,
            journal_replay: self.crash.replay_time,
            watchdog,
            other,
        }
    }

    /// CPU busy fraction over the makespan (useful + overhead)/makespan.
    pub fn cpu_utilization(&self) -> f64 {
        let m = self.makespan.as_secs_f64();
        if m == 0.0 {
            0.0
        } else {
            (self.useful_time().as_secs_f64() + self.overhead_time().as_secs_f64()) / m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tm(name: &str, arr_ms: u64, done_ms: u64, cpu_ms: u64, ovh_ms: u64) -> TaskMetrics {
        TaskMetrics {
            name: name.into(),
            arrival: SimTime::ZERO + SimDuration::from_millis(arr_ms),
            completion: SimTime::ZERO + SimDuration::from_millis(done_ms),
            cpu_time: SimDuration::from_millis(cpu_ms),
            overhead_time: SimDuration::from_millis(ovh_ms),
            ..Default::default()
        }
    }

    #[test]
    fn turnaround_and_waiting() {
        let t = tm("t", 10, 100, 50, 20);
        assert_eq!(t.turnaround(), SimDuration::from_millis(90));
        assert_eq!(t.waiting(), SimDuration::from_millis(20));
    }

    #[test]
    fn report_aggregates() {
        let r = Report {
            manager: "x",
            scheduler: "y",
            tasks: vec![tm("a", 0, 100, 60, 20), tm("b", 0, 200, 100, 0)],
            makespan: SimDuration::from_millis(200),
            ..Default::default()
        };
        assert!((r.mean_turnaround_s() - 0.150).abs() < 1e-9);
        assert_eq!(r.useful_time(), SimDuration::from_millis(160));
        assert_eq!(r.overhead_time(), SimDuration::from_millis(20));
        let f = r.overhead_fraction();
        assert!((f - 20.0 / 180.0).abs() < 1e-9);
        assert!((r.cpu_utilization() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_zeroes() {
        let r = Report {
            manager: "x",
            scheduler: "y",
            tasks: vec![],
            makespan: SimDuration::ZERO,
            ..Default::default()
        };
        assert_eq!(r.mean_turnaround_s(), 0.0);
        assert_eq!(r.overhead_fraction(), 0.0);
        assert_eq!(r.cpu_utilization(), 0.0);
    }

    #[test]
    fn waiting_checked_flags_overaccounting() {
        let ok = tm("ok", 0, 100, 40, 10);
        assert_eq!(ok.waiting_checked(), Some(SimDuration::from_millis(50)));
        // Accounted time exceeding turnaround is an accounting bug: the
        // checked variant reports it instead of truncating to zero.
        let bad = tm("bad", 0, 50, 40, 30);
        assert_eq!(bad.waiting_checked(), None);
    }

    #[test]
    fn overhead_breakdown_phases_sum() {
        let mut a = tm("a", 0, 400, 100, 120);
        a.lost_time = SimDuration::from_millis(30);
        let r = Report {
            manager: "x",
            scheduler: "y",
            tasks: vec![a],
            makespan: SimDuration::from_millis(400),
            manager_stats: ManagerStats {
                config_time: SimDuration::from_millis(70),
                state_time: SimDuration::from_millis(20),
                gc_time: SimDuration::from_millis(10),
                ..Default::default()
            },
            fault: FaultStats {
                retry_time: SimDuration::from_millis(15),
                ..Default::default()
            },
            ..Default::default()
        };
        let b = r.overhead_breakdown();
        // Wasted corrupt downloads are split out of config: 70 − 15.
        assert_eq!(b.config, SimDuration::from_millis(55));
        assert_eq!(b.state, SimDuration::from_millis(20));
        assert_eq!(b.gc, SimDuration::from_millis(10));
        assert_eq!(b.rollback_loss, SimDuration::from_millis(30));
        assert_eq!(b.fault_retry, SimDuration::from_millis(15));
        // overhead_time = 120 + 30 = 150; other = 150 − 55 − 20 − 10 − 30 − 15.
        assert_eq!(b.other, SimDuration::from_millis(20));
        assert_eq!(b.total(), r.overhead_time());
    }

    #[test]
    fn watchdog_slice_is_carved_not_double_counted() {
        use crate::admission::AdmissionStats;
        let mut a = tm("a", 0, 400, 100, 120);
        a.lost_time = SimDuration::from_millis(30);
        let r = Report {
            manager: "x",
            scheduler: "y",
            tasks: vec![a],
            makespan: SimDuration::from_millis(400),
            manager_stats: ManagerStats {
                config_time: SimDuration::from_millis(70),
                state_time: SimDuration::from_millis(20),
                gc_time: SimDuration::from_millis(10),
                ..Default::default()
            },
            admission: Some(AdmissionStats {
                watchdog_preempt_time: SimDuration::from_millis(8),
                watchdog_lost_time: SimDuration::from_millis(12),
                ..Default::default()
            }),
            ..Default::default()
        };
        let b = r.overhead_breakdown();
        // The forced-preempt overhead moves out of `state`, the discarded
        // progress out of `rollback_loss`; both land in `watchdog`.
        assert_eq!(b.state, SimDuration::from_millis(12));
        assert_eq!(b.rollback_loss, SimDuration::from_millis(18));
        assert_eq!(b.watchdog, SimDuration::from_millis(20));
        // Tiling is preserved: the slices still sum to the charged total.
        assert_eq!(b.total(), r.overhead_time());
    }
}
