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
//! All recovery work that runs in the background (scrubbing, repair,
//! retirement relocation) is accounted in [`FaultStats`], *disjoint* from
//! the task-charged overhead breakdown; only the wasted time of corrupt
//! download attempts is task-charged (the CPU really was busy), and the
//! report subtracts it back out of the config slice into `fault_retry`.

use fsim::SimDuration;

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
    /// Hard ceiling on any single backoff delay. The doubling shift is
    /// already capped, but the *product* `base << shift` can still
    /// saturate `u64` nanoseconds silently for pathological bases; the
    /// ceiling makes the clamp explicit and configurable. The default is
    /// the representable maximum, i.e. saturation-only behavior.
    pub max_backoff: SimDuration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_download_retries: 3,
            retry_backoff: SimDuration::from_micros(500),
            scrub_interval: None,
            upset_recovery: UpsetRecovery::Rollback,
            max_op_recoveries: 64,
            max_backoff: SimDuration::from_nanos(u64::MAX),
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
    /// clamps instead of wrapping — and the result is additionally
    /// clamped against the configurable [`max_backoff`](Self::max_backoff)
    /// ceiling.
    pub fn backoff_for(&self, attempt: u32) -> SimDuration {
        let shift = attempt.saturating_sub(1).min(Self::MAX_BACKOFF_SHIFT);
        SimDuration::from_nanos(self.retry_backoff.as_nanos().saturating_mul(1u64 << shift))
            .min(self.max_backoff)
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
    fn backoff_ceiling_clamps_at_the_saturation_edge() {
        // Base chosen so attempt 11 lands exactly on the ceiling and the
        // next doubling would shoot past it: 100us << 10 = 102.4 ms.
        let edge = SimDuration::from_micros(100 * 1024);
        let p = RecoveryPolicy {
            retry_backoff: SimDuration::from_micros(100),
            max_backoff: edge,
            ..Default::default()
        };
        assert_eq!(p.backoff_for(11), edge, "exactly at the ceiling");
        assert_eq!(p.backoff_for(u32::MAX), edge, "never above it");
        // One nanosecond below the edge: the clamp bites on the capped
        // shift, and every earlier attempt is untouched.
        let below = SimDuration::from_nanos(edge.as_nanos() - 1);
        let q = RecoveryPolicy {
            retry_backoff: SimDuration::from_micros(100),
            max_backoff: below,
            ..Default::default()
        };
        assert_eq!(q.backoff_for(11), below);
        assert_eq!(q.backoff_for(10), SimDuration::from_micros(100 * 512));
        // A ceiling also tames the silent u64 saturation: the pathological
        // base that used to pin at u64::MAX now reports the ceiling.
        let huge = RecoveryPolicy {
            retry_backoff: SimDuration::from_nanos(u64::MAX / 2),
            max_backoff: SimDuration::from_millis(500),
            ..Default::default()
        };
        assert_eq!(huge.backoff_for(u32::MAX), SimDuration::from_millis(500));
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
