//! Fault detection and recovery policy.
//!
//! The OS layer survives the three fault classes of [`fsim::fault`]:
//!
//! * **Download corruption** — the device's bitstream CRC rejects the
//!   frames; the OS retries with exponential backoff up to a bound, then
//!   declares the task failed and keeps scheduling the rest (graceful
//!   degradation, never a crash).
//! * **Configuration upsets (SEUs)** — invisible until a *scrubbing* pass
//!   reads the configuration back and compares CRCs (charged at real
//!   readback cost). A detected upset is repaired by re-downloading the
//!   struck circuit's frames; the work a poisoned circuit computed since
//!   the strike is discarded, and the §3 preemption dichotomy applies to
//!   what survives: under [`UpsetRecovery::Rollback`] the op restarts from
//!   its initial inputs, under [`UpsetRecovery::SaveRestore`] the state
//!   captured at the strike point is restored (possible because library
//!   circuits are observable/controllable via readback).
//! * **Permanent column failures** — the partition manager retires the
//!   column and relocates resident circuits off it with the same
//!   GC machinery that compacts free space.
//!
//! The handlers — the fault events, the retry cycle, the repair — are the
//! `impl System` block at the end of this module.
//!
//! All recovery work that runs in the background (scrubbing, repair,
//! retirement relocation) is accounted in [`FaultStats`], *disjoint* from
//! the task-charged overhead breakdown; only the wasted time of corrupt
//! download attempts is task-charged (the CPU really was busy), and the
//! report subtracts it back out of the config slice into `fault_retry`.

use crate::circuit::CircuitId;
use crate::image::{Latent, Running};
use crate::manager::{redownload_cost, Download, FpgaManager};
use crate::sched::Scheduler;
use crate::system::{Ev, System};
use crate::task::{Op, TaskId, TaskState};
use fsim::{SimDuration, SimTime, TraceEvent};

/// What a detected configuration upset costs the victim op (§3's choice
/// applied to fault recovery rather than preemption).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpsetRecovery {
    /// Restart the op from its initial inputs; all progress is lost.
    Rollback,
    /// Restore the flip-flop state captured at the strike point; only the
    /// (garbage) work computed after the strike is lost. Costs a state
    /// save + restore for sequential circuits.
    SaveRestore,
}

/// Tunable recovery policy, wired into [`crate::System`] with
/// [`crate::System::with_faults`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Download retries after the first corrupt attempt before the task
    /// is declared failed — or, when admission control is active
    /// ([`crate::System::with_admission`]), quarantined: the task is
    /// removed from scheduling and reported under the admission stats
    /// instead of counting as a plain fault casualty.
    pub max_download_retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub retry_backoff: SimDuration,
    /// Scrubbing period; `None` disables scrubbing (upsets then go
    /// undetected — silent corruption, the realistic no-scrub trade-off).
    pub scrub_interval: Option<SimDuration>,
    /// What a repaired op loses.
    pub upset_recovery: UpsetRecovery,
    /// Fault-recovery restarts of one op before the task is declared
    /// failed (guards against an op that can never finish under a heavy
    /// upset rate). Under admission control exhaustion quarantines the
    /// task rather than failing it, same as the download-retry bound.
    pub max_op_recoveries: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_download_retries: 3,
            retry_backoff: SimDuration::from_micros(500),
            scrub_interval: None,
            upset_recovery: UpsetRecovery::Rollback,
            max_op_recoveries: 64,
        }
    }
}

impl RecoveryPolicy {
    /// Exponential-backoff doubling cap: the multiplier never exceeds
    /// 2^[`MAX_BACKOFF_SHIFT`](Self::MAX_BACKOFF_SHIFT) = 1024× the base.
    pub const MAX_BACKOFF_SHIFT: u32 = 10;

    /// Backoff before retry number `attempt` (1-based): exponential,
    /// capped at 2^[`MAX_BACKOFF_SHIFT`](Self::MAX_BACKOFF_SHIFT)× the
    /// base so the delay stays finite. `attempt == 0` (a caller asking
    /// for a delay before any attempt happened) gets the base backoff,
    /// same as attempt 1 — never a spurious extra doubling. The final
    /// multiply saturates: a pathological base near `SimDuration::MAX`
    /// clamps instead of wrapping.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(Self::MAX_BACKOFF_SHIFT);
        SimDuration::from_nanos(self.retry_backoff.as_nanos().saturating_mul(1u64 << shift))
    }
}

crate::counters::counter_table! {
    /// Fault and recovery accounting for one run, reported in
    /// [`crate::Report::fault`]. Background recovery time (scrub, repair,
    /// retirement) lives only here — disjoint from the task-charged
    /// [`crate::OverheadBreakdown`].
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct FaultStats {
        /// Corrupted downloads injected (and CRC-detected).
        pub download_faults: u64,
        /// Configuration upsets that struck a resident circuit.
        pub seu_faults: u64,
        /// Upsets that landed on unused fabric (harmless).
        pub seu_benign: u64,
        /// Permanent column failures injected.
        pub column_faults: u64,
        /// CRC mismatches detected (download checks + scrub passes).
        pub crc_mismatches: u64,
        /// Download retries scheduled.
        pub retries: u64,
        /// Port time wasted on corrupt download attempts (task-charged; the
        /// report moves it from the config slice into `fault_retry`).
        pub retry_time: SimDuration,
        /// Tasks declared failed by recovery.
        pub tasks_failed: u64,
        /// Scrubbing passes run.
        pub scrub_passes: u64,
        /// Readback port time spent scrubbing.
        pub scrub_time: SimDuration,
        /// Upsets repaired.
        pub repairs: u64,
        /// Re-download and state-move port time spent repairing.
        pub repair_time: SimDuration,
        /// FPGA progress discarded by fault recovery (rollback or
        /// garbage-after-strike), not counting preemption rollbacks.
        pub work_lost: SimDuration,
        /// Columns permanently retired.
        pub columns_retired: u64,
        /// Relocation/eviction time spent retiring columns.
        pub retire_time: SimDuration,
        /// Sum of strike→repair latencies, for [`FaultStats::mttr`].
        pub mttr_total: SimDuration,
    }
}

impl FaultStats {
    /// Mean time to repair an upset (strike → repair), when any upset was
    /// repaired.
    pub fn mttr(&self) -> Option<SimDuration> {
        (self.repairs > 0)
            .then(|| SimDuration::from_nanos(self.mttr_total.as_nanos() / self.repairs))
    }

    /// Total background recovery time (never task-charged): scrubbing,
    /// repairs, and retirement relocations.
    pub fn background_time(&self) -> SimDuration {
        self.scrub_time + self.repair_time + self.retire_time
    }

    /// Whether any fault was injected at all.
    pub fn any_faults(&self) -> bool {
        self.download_faults + self.seu_faults + self.seu_benign + self.column_faults > 0
    }
}

impl<M: FpgaManager, S: Scheduler> System<M, S> {
    /// Schedule fault event `ev` after `delay`, if the plan has one coming.
    /// Fault events stop rescheduling once every task has left, so the
    /// queue can drain.
    fn schedule_fault(&mut self, now: SimTime, delay: Option<SimDuration>, ev: Ev) {
        if let Some(d) = delay.filter(|_| self.run.unfinished > 0) {
            self.run.queue.schedule_at(now + d, ev);
        }
    }

    /// Seed the fault timeline before the run starts. A zero-rate plan
    /// schedules nothing, so attaching it cannot perturb a fault-free run.
    pub(crate) fn seed_faults(&mut self) {
        let Some(inj) = self.injector.as_mut() else {
            return;
        };
        let (seu, column) = (inj.next_seu(), inj.next_column_failure());
        self.schedule_fault(SimTime::ZERO, seu, Ev::Seu);
        self.schedule_fault(SimTime::ZERO, column, Ev::ColumnFail(None));
        self.schedule_fault(SimTime::ZERO, self.build.recovery.scrub_interval, Ev::Scrub);
    }

    /// A configuration upset strikes a random device column at `now`.
    pub(crate) fn on_seu(&mut self, now: SimTime) {
        let inj = self.injector.as_mut().expect("SEU event without injector");
        let (col, next) = (inj.seu_column(), inj.next_seu());
        self.schedule_fault(now, next, Ev::Seu);
        let hit = self.resident(|r| r.covers(col));
        self.emit(now, |_| TraceEvent::FaultInjected {
            kind: "seu",
            circuit: hit.map(|r| r.cid.0),
            col: Some(col),
        });
        let Some(r) = hit else {
            // Landed on unmapped fabric: harmless.
            self.run.fault.seu_benign += 1;
            return;
        };
        self.run.fault.seu_faults += 1;
        // Earliest unrepaired strike wins (MTTR measures from it).
        self.run.latent.entry(r.cid.0).or_insert(Latent {
            struck_at: now,
            detected: false,
        });
        // The struck frames no longer match any image — evicting
        // this circuit must not leave a delta base behind.
        self.manager.invalidate_image_range(r.col0, r.width);
        // The task executing on the struck circuit right now keeps
        // only the progress made before the strike.
        if let Some(run) = &self.run.running {
            if run.fpga.is_some_and(|f| f.cid == r.cid) {
                let slot = &mut self.run.slots[run.tid.0 as usize];
                if slot.poisoned.is_none() {
                    let elapsed = (now - run.exec_start).min(run.dur);
                    slot.poisoned = Some(slot.op_done_so_far + elapsed);
                }
            }
        }
    }

    /// Periodic scrubbing: read the configuration back, compare CRCs, and
    /// repair what was hit. Charged at real readback cost — background
    /// device-port time, never billed to any task.
    pub(crate) fn on_scrub(&mut self, now: SimTime) {
        let regions = self.manager.resident_regions();
        let frames: u32 = regions.iter().map(|r| r.width).sum();
        let cost = self.manager.timing().readback_time(frames as usize);
        self.run.fault.scrub_passes += 1;
        self.run.fault.scrub_time += cost;
        // Upsets on circuits that were discarded or evicted left the
        // device with them.
        let latent = &mut self.run.latent;
        latent.retain(|cid, _| regions.iter().any(|r| r.cid.0 == *cid));
        let mut newly: Vec<u32> = Vec::new();
        for (cid, l) in self.run.latent.iter_mut() {
            if !l.detected {
                l.detected = true;
                newly.push(*cid);
            }
        }
        self.run.fault.crc_mismatches += newly.len() as u64;
        self.emit(now, |_| TraceEvent::ScrubPass {
            frames,
            found: newly.len() as u32,
            duration: cost,
        });
        for &cid in &newly {
            self.emit(now, |_| TraceEvent::CrcMismatch {
                circuit: cid,
                task: None,
                context: "scrub",
            });
        }
        // Every latent upset is detected now. Repair immediately unless a
        // task is mid-segment on the circuit; then the repair waits for
        // that segment's timer.
        let busy_cid = self.run.running.and_then(|r| r.fpga).map(|f| f.cid.0);
        let detected: Vec<u32> = self.run.latent.keys().copied().collect();
        for cid in detected {
            if Some(cid) != busy_cid {
                self.repair_circuit(CircuitId(cid), now);
            }
        }
        self.schedule_fault(now, self.build.recovery.scrub_interval, Ev::Scrub);
    }

    /// Repair a detected upset on `cid`: re-download its frames (partial
    /// when the port allows) and apply the policy's state choice; garbage
    /// computed since the strike is discarded from every victim task.
    fn repair_circuit(&mut self, cid: CircuitId, now: SimTime) {
        let Some(l) = self.run.latent.remove(&cid.0) else {
            return;
        };
        let Some(region) = self.resident(|r| r.cid == cid) else {
            return; // evicted since detection; corruption left with it
        };
        let timing = *self.manager.timing();
        let frames = region.width as usize;
        let sequential = self.build.lib.get(cid).is_sequential();
        let mut cost = redownload_cost(&timing, frames);
        // The scrub rewrite happens outside the manager's download path:
        // drop any delta base it covers (the whole device when the port
        // cannot address frames), and force the next checkpoint capture to
        // be a full image — the WAL never saw this write.
        let (col0, width) = match timing.port.supports_partial() {
            true => (region.col0, region.width),
            false => (0, timing.spec.cols),
        };
        self.manager.invalidate_image_range(col0, width);
        self.run.ckpt_dirty_all = true;
        if sequential && self.build.recovery.upset_recovery == UpsetRecovery::SaveRestore {
            // Read back the flip-flop state (valid bits survive an upset in
            // the *configuration* plane) and write it back after repair —
            // possible because library circuits are observable and
            // controllable (§3).
            cost += timing.readback_time(frames);
            cost += timing.readback_time(frames);
        }
        self.run.fault.repairs += 1;
        self.run.fault.repair_time += cost;
        self.run.fault.mttr_total += now - l.struck_at;
        let mut lost_total = SimDuration::ZERO;
        for ti in 0..self.run.slots.len() {
            let on_this = matches!(
                self.run.slots[ti].current_op(&self.build.specs[ti]),
                Some(Op::FpgaRun { circuit, .. }) if circuit == cid
            );
            if !on_this || !self.run.slots[ti].state.is_live() {
                continue;
            }
            if let Some(valid) = self.run.slots[ti].poisoned.take() {
                // Combinational circuits lose only post-strike items; a
                // sequential circuit under Rollback restarts from its
                // initial inputs.
                let preserved = if !sequential
                    || self.build.recovery.upset_recovery == UpsetRecovery::SaveRestore
                {
                    valid
                } else {
                    SimDuration::ZERO
                };
                let lost = self.run.slots[ti].op_done_so_far - preserved;
                if lost > SimDuration::ZERO {
                    self.run.slots[ti].fpga_time -= lost;
                    self.run.slots[ti].fault_lost_time += lost;
                    self.run.fault.work_lost += lost;
                    lost_total += lost;
                }
                self.run.slots[ti].op_done_so_far = preserved;
                self.run.slots[ti].op_remaining = self.run.slots[ti].op_full - preserved;
            }
        }
        self.emit(now, |_| TraceEvent::Recovered {
            circuit: cid.0,
            task: None,
            lost: lost_total,
            duration: cost,
        });
    }

    /// The segment of `tid` on circuit `cid` just drained. If a scrub pass
    /// detected an upset on the circuit meanwhile, repair it now; the
    /// repair resets the task's progress per policy. Returns true when
    /// that left the op incomplete: the device slot is released and the op
    /// goes around again (a fault restart — the manager's preempt path
    /// never runs), or, past `max_op_recoveries`, the task is given up on.
    #[inline]
    pub(crate) fn restart_after_repair(
        &mut self,
        tid: TaskId,
        cid: CircuitId,
        now: SimTime,
    ) -> bool {
        if !self.run.latent.get(&cid.0).is_some_and(|l| l.detected) {
            return false;
        }
        self.repair_circuit(cid, now);
        let ti = tid.0 as usize;
        if self.run.slots[ti].op_remaining == SimDuration::ZERO {
            return false;
        }
        let (ovh, wake) = self.manager.op_done(tid, cid);
        self.run.slots[ti].overhead_time += ovh;
        self.wake(wake, now);
        self.run.slots[ti].fault_restarts += 1;
        if self.run.slots[ti].fault_restarts > self.build.recovery.max_op_recoveries {
            self.give_up(tid, now, "upset recovery limit");
        } else {
            self.make_ready(tid, now);
        }
        self.dispatch(now);
        true
    }

    /// A permanent column failure at `now`; `pending` retries a column a
    /// running task was pinning.
    pub(crate) fn on_column_fail(&mut self, pending: Option<u32>, now: SimTime) {
        let col = match pending {
            Some(c) => c,
            None => {
                let inj = self.injector.as_mut().expect("column event w/o injector");
                let (col, next) = (inj.failed_column(), inj.next_column_failure());
                self.schedule_fault(now, next, Ev::ColumnFail(None));
                self.run.fault.column_faults += 1;
                self.emit(now, |_| TraceEvent::FaultInjected {
                    kind: "column",
                    circuit: None,
                    col: Some(col),
                });
                col
            }
        };
        let out = self.manager.retire_column(col);
        if out.busy {
            // A task is mid-op on the dying fabric; retry shortly after.
            let retry = Some(SimDuration::from_millis(1));
            self.schedule_fault(now, retry, Ev::ColumnFail(Some(col)));
            return;
        }
        if out.applied {
            self.run.fault.columns_retired += 1;
            self.run.fault.retire_time += out.overhead;
            self.emit(now, |_| TraceEvent::ColumnRetired {
                col,
                relocations: out.relocations,
                duration: out.overhead,
            });
            // Capacity shrank: every blocked task (`wake` passes over the
            // others) re-probes the manager so requests that became
            // unservable fail instead of hanging.
            self.wake((0..self.run.slots.len() as u32).map(TaskId), now);
            self.dispatch(now);
        }
        // Neither busy nor applied: a manager without column bookkeeping
        // absorbed the fault.
    }

    /// The activation of `circuit` for `tid` cost `o` and made `download`.
    /// If it downloaded and the injector corrupts the download, the CRC
    /// catches it: the circuit is discarded and the CPU held for the wasted
    /// attempt, whose end ([`on_retry_done`](Self::on_retry_done)) decides
    /// about a retry. Returns whether the download was corrupt.
    pub(crate) fn corrupt_download(
        &mut self,
        tid: TaskId,
        circuit: CircuitId,
        o: SimDuration,
        download: Option<Download>,
        now: SimTime,
    ) -> bool {
        let (Some(inj), Some(download)) = (self.injector.as_mut(), download) else {
            return false;
        };
        if !inj.corrupt_download() {
            return false;
        }
        let ti = tid.0 as usize;
        self.manager.discard_resident(circuit);
        self.run.fault.download_faults += 1;
        self.run.fault.crc_mismatches += 1;
        self.run.fault.retry_time += download.config_time;
        self.run.slots[ti].dl_attempts += 1;
        self.run.slots[ti].overhead_time += o;
        self.emit(now, |_| TraceEvent::FaultInjected {
            kind: "download",
            circuit: Some(circuit.0),
            col: None,
        });
        self.emit(now, |_| TraceEvent::CrcMismatch {
            circuit: circuit.0,
            task: Some(tid.0),
            context: "download",
        });
        self.run.slots[ti].state = TaskState::Running;
        self.run.running = Some(Running {
            tid,
            dur: SimDuration::ZERO,
            exec_start: now + o,
            fpga: None,
        });
        self.run.queue.schedule_at(now + o, Ev::RetryDone(tid));
        true
    }

    /// The wasted attempt of a corrupt download has elapsed; decide
    /// between another retry (with backoff) and giving up on the task.
    pub(crate) fn on_retry_done(&mut self, tid: TaskId, now: SimTime) {
        let run = self.run.running.take().expect("retry-done without runner");
        debug_assert_eq!(run.tid, tid);
        let ti = tid.0 as usize;
        let attempt = self.run.slots[ti].dl_attempts;
        if attempt > self.build.recovery.max_download_retries {
            self.give_up(tid, now, "download retries exhausted");
        } else {
            let backoff = self.build.recovery.backoff_for(attempt);
            self.run.fault.retries += 1;
            self.emit(now, |_| TraceEvent::RetryScheduled {
                task: tid.0,
                attempt,
                backoff,
            });
            self.run.slots[ti].state = TaskState::Blocked;
            self.run.queue.schedule_at(now + backoff, Ev::Retry(tid));
        }
        self.dispatch(now);
    }

    /// Backoff elapsed: the task may probe the manager again (a manager
    /// wake may already have freed it).
    pub(crate) fn on_retry(&mut self, tid: TaskId, now: SimTime) {
        if self.run.slots[tid.0 as usize].state == TaskState::Blocked {
            self.make_ready(tid, now);
            self.dispatch(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RecoveryPolicy {
            retry_backoff: SimDuration::from_micros(100),
            ..Default::default()
        };
        assert_eq!(p.backoff_for(1), SimDuration::from_micros(100));
        assert_eq!(p.backoff_for(2), SimDuration::from_micros(200));
        assert_eq!(p.backoff_for(4), SimDuration::from_micros(800));
        assert_eq!(p.backoff_for(11), p.backoff_for(20), "cap at 1024×");
    }

    #[test]
    fn backoff_attempt_zero_is_the_base_not_a_doubling() {
        // A defensive caller passing attempt 0 (no attempt happened yet)
        // must get the plain base delay, identical to attempt 1 — the
        // `saturating_sub` must not wrap to a huge shift.
        let p = RecoveryPolicy {
            retry_backoff: SimDuration::from_micros(100),
            ..Default::default()
        };
        assert_eq!(p.backoff_for(0), p.backoff_for(1));
        assert_eq!(p.backoff_for(0), SimDuration::from_micros(100));
    }

    #[test]
    fn backoff_saturates_at_extreme_attempts_and_bases() {
        let p = RecoveryPolicy {
            retry_backoff: SimDuration::from_micros(100),
            ..Default::default()
        };
        // Any attempt count, including u32::MAX, stays at the 1024× cap:
        // the shift is clamped, never overflowing the u64 shift width.
        assert_eq!(p.backoff_for(u32::MAX), p.backoff_for(11));
        assert_eq!(
            p.backoff_for(u32::MAX),
            SimDuration::from_micros(100 * 1024)
        );
        // A base near the representable maximum clamps instead of
        // wrapping around to a tiny (or panicking) delay.
        let huge = RecoveryPolicy {
            retry_backoff: SimDuration::from_nanos(u64::MAX / 2),
            ..Default::default()
        };
        assert_eq!(
            huge.backoff_for(u32::MAX),
            SimDuration::from_nanos(u64::MAX)
        );
        assert!(huge.backoff_for(5) >= huge.backoff_for(4), "still monotone");
    }

    #[test]
    fn mttr_averages_repairs() {
        let mut s = FaultStats::default();
        assert_eq!(s.mttr(), None);
        s.repairs = 2;
        s.mttr_total = SimDuration::from_millis(30);
        assert_eq!(s.mttr(), Some(SimDuration::from_millis(15)));
    }

    #[test]
    fn default_policy_disables_scrubbing() {
        // The determinism guard depends on this: attaching a zero-rate
        // plan with the default policy must not schedule any event.
        assert_eq!(RecoveryPolicy::default().scrub_interval, None);
    }
}
