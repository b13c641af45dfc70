//! Overload-resilient admission control.
//!
//! The paper's OS layer promises each of many concurrent tasks a dedicated
//! virtual FPGA and detects completion "via a-priori latency estimate or a
//! done-signal service circuit" (§3) — but a layer that trusts every task
//! to terminate and admits unbounded work lets one hung circuit stall a
//! partition forever, and saturation degrades every tenant equally. This
//! module adds the missing defenses, all wired into
//! [`System`](crate::system::System)'s event loop:
//!
//! * **Watchdogs** ([`WatchdogConfig`]): every dispatched FPGA operation
//!   arms a deadline derived from the same a-priori estimate the §3
//!   completion detector uses, times a slack factor ≥ 1. A segment that
//!   overruns the deadline is forcibly preempted through the existing
//!   rollback/save-restore machinery and re-queued; after `max_trips`
//!   fires the task is quarantined.
//! * **Per-tenant quotas** ([`AdmissionPolicy`]): tasks carry a tenant id;
//!   at most `max_in_flight` of a tenant's tasks are admitted at once,
//!   at most `queue_cap` more wait in a per-tenant FIFO, and anything
//!   beyond that is load-shed (rejected) at arrival.
//! * **Quarantine**: tasks that repeatedly trip the watchdog — or exhaust
//!   fault-recovery retries while admission control is active — are
//!   removed from scheduling and reported, so the end-of-run deadlock
//!   sweep becomes a last resort instead of the only defense.
//! * **Graceful degradation** ([`DegradationConfig`]): past an
//!   area-saturation watermark, FPGA ops whose circuit is not already
//!   resident fall back to a software-emulation execution path priced
//!   from the e12 coprocessor model, instead of queueing indefinitely.
//!   The watermark can be split into a high/low hysteresis pair
//!   (`degrade_above` / `recover_below`): the system enters degraded
//!   mode past the high mark and only leaves it below the low mark, so
//!   oscillating load cannot flap the mode on and off every dispatch.
//! * **Schedulability-gated admission** ([`SchedulabilityConfig`]): at
//!   arrival, a deadline-stamped task whose deadline is provably
//!   unmeetable — the §3 a-priori service estimate plus pending
//!   reconfiguration time plus the tenant's queued backlog already
//!   overshoots it — is rejected up front as an explicit robust outcome
//!   (`unschedulable`, accounted disjointly from quota load-shedding)
//!   instead of burning fabric on a guaranteed deadline miss.
//!
//! Everything is deterministic: the admission decision depends only on
//! simulated state, and a run with admission disabled is byte-identical
//! to one built without this module.

use crate::error::VfpgaError;
use fsim::SimDuration;
use std::collections::{BTreeMap, VecDeque};

/// Hang-detection watchdog parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogConfig {
    /// Deadline slack: the armed deadline is the a-priori segment estimate
    /// times this factor (plus any completion-detection slack the segment
    /// already carries). Must be ≥ 1.0 — a tighter deadline would fire
    /// before a healthy segment's own completion timer.
    pub slack: f64,
    /// Watchdog fires a task survives before being quarantined.
    pub max_trips: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            slack: 2.0,
            max_trips: 2,
        }
    }
}

/// Software-emulation fallback parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationConfig {
    /// Area-saturation watermark in `[0, 1]`: once resident CLBs reach
    /// this fraction of the device, eligible FPGA ops degrade to software
    /// instead of competing for fabric. Legacy single-mark knob: when
    /// `degrade_above` / `recover_below` are unset it serves as both, and
    /// the mode transition counters stay off so pre-hysteresis runs are
    /// byte-identical.
    pub watermark: f64,
    /// Hysteresis high mark: degraded mode is entered once utilization
    /// reaches this fraction. Defaults to `watermark` when unset.
    pub degrade_above: Option<f64>,
    /// Hysteresis low mark: degraded mode is left only once utilization
    /// falls below this fraction. Defaults to the high mark when unset
    /// (which reduces to the single-watermark behavior).
    pub recover_below: Option<f64>,
    /// Software cost model: circuit id → nanoseconds of CPU time per
    /// hardware cycle when the op is emulated (the e12 coprocessor
    /// model's `sw_ns_per_item / hw_cycles_per_item`). Circuits absent
    /// from the map never degrade.
    pub sw_ns_per_cycle: BTreeMap<u32, u64>,
}

impl DegradationConfig {
    /// The utilization fraction at which degraded mode is entered.
    pub fn high_mark(&self) -> f64 {
        self.degrade_above.unwrap_or(self.watermark)
    }

    /// The utilization fraction below which degraded mode is left.
    pub fn low_mark(&self) -> f64 {
        self.recover_below.unwrap_or_else(|| self.high_mark())
    }

    /// Whether the hysteresis pair was set explicitly. Mode-transition
    /// counters and trace events are only kept for explicit pairs, so
    /// legacy single-watermark configurations stay byte-identical.
    pub fn has_hysteresis(&self) -> bool {
        self.degrade_above.is_some() || self.recover_below.is_some()
    }
}

/// Arrival-time schedulability test parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulabilityConfig {
    /// Safety factor ≥ 1.0 applied to the a-priori estimate before it is
    /// compared against the task's absolute deadline: a margin of 1.5
    /// rejects tasks whose deadline leaves less than 1.5× the estimated
    /// service + reconfiguration + backlog time.
    pub margin: f64,
}

impl Default for SchedulabilityConfig {
    fn default() -> Self {
        SchedulabilityConfig { margin: 1.0 }
    }
}

/// Per-tenant admission policy plus the optional watchdog/degradation
/// defenses. `AdmissionPolicy::default()` is maximally permissive (no
/// quotas, watchdog on with default slack, no degradation).
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionPolicy {
    /// Tasks of one tenant admitted (non-terminal, past admission)
    /// concurrently. Must be ≥ 1.
    pub max_in_flight: u32,
    /// Tasks of one tenant parked in the admission queue beyond the
    /// in-flight quota; arrivals past this are rejected.
    pub queue_cap: u32,
    /// Hang-detection watchdog; `None` disables it (hangs then surface
    /// as the end-of-run deadlock error).
    pub watchdog: Option<WatchdogConfig>,
    /// Software-emulation fallback under area saturation; `None` disables.
    pub degradation: Option<DegradationConfig>,
    /// Arrival-time schedulability test; `None` admits regardless of
    /// deadline feasibility (deadline misses then surface at completion).
    pub schedulability: Option<SchedulabilityConfig>,
}

impl Default for AdmissionPolicy {
    fn default() -> Self {
        AdmissionPolicy {
            max_in_flight: u32::MAX,
            queue_cap: u32::MAX,
            watchdog: Some(WatchdogConfig::default()),
            degradation: None,
            schedulability: None,
        }
    }
}

impl AdmissionPolicy {
    /// Check the policy's numeric ranges.
    pub fn validate(&self) -> Result<(), VfpgaError> {
        if self.max_in_flight == 0 {
            return Err(VfpgaError::BadAdmissionPolicy {
                reason: "max_in_flight must be at least 1".into(),
            });
        }
        if let Some(wd) = &self.watchdog {
            if !wd.slack.is_finite() || wd.slack < 1.0 {
                return Err(VfpgaError::BadAdmissionPolicy {
                    reason: format!(
                        "watchdog slack must be a finite factor >= 1.0, got {}",
                        wd.slack
                    ),
                });
            }
        }
        if let Some(dg) = &self.degradation {
            if !dg.watermark.is_finite() || !(0.0..=1.0).contains(&dg.watermark) {
                return Err(VfpgaError::BadAdmissionPolicy {
                    reason: format!(
                        "degradation watermark must be in [0, 1], got {}",
                        dg.watermark
                    ),
                });
            }
            for (name, mark) in [
                ("degrade_above", dg.degrade_above),
                ("recover_below", dg.recover_below),
            ] {
                if let Some(m) = mark {
                    if !m.is_finite() || !(0.0..=1.0).contains(&m) {
                        return Err(VfpgaError::BadAdmissionPolicy {
                            reason: format!("degradation {name} must be in [0, 1], got {m}"),
                        });
                    }
                }
            }
            if dg.low_mark() > dg.high_mark() {
                return Err(VfpgaError::BadAdmissionPolicy {
                    reason: format!(
                        "degradation recover_below must not exceed degrade_above, got {} > {}",
                        dg.low_mark(),
                        dg.high_mark()
                    ),
                });
            }
        }
        if let Some(sc) = &self.schedulability {
            if !sc.margin.is_finite() || sc.margin < 1.0 {
                return Err(VfpgaError::BadAdmissionPolicy {
                    reason: format!(
                        "schedulability margin must be a finite factor >= 1.0, got {}",
                        sc.margin
                    ),
                });
            }
        }
        Ok(())
    }
}

crate::counters::counter_table! {
    /// Outcome counters for one run with admission control enabled; reported
    /// as [`Report::admission`](crate::metrics::Report::admission).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct AdmissionStats {
        /// Tasks admitted (immediately or after deferral).
        pub admitted: u64,
        /// Tasks parked in a per-tenant queue at arrival (they may still be
        /// admitted later; `admitted` counts them again when that happens).
        pub deferred: u64,
        /// Tasks load-shed at arrival (quota and queue cap both exhausted).
        pub rejected: u64,
        /// Tasks removed from scheduling (watchdog trips or fault recovery
        /// exhausted).
        pub quarantined: u64,
        /// Completed tasks that finished after their stated deadline.
        pub deadline_missed: u64,
        /// Watchdog deadlines armed.
        pub watchdog_armed: u64,
        /// Watchdog deadlines that expired (hang detections).
        pub watchdog_fired: u64,
        /// Manager overhead paid for watchdog-forced preemptions (carved out
        /// of the breakdown's `state` slice; never double-counted).
        pub watchdog_preempt_time: SimDuration,
        /// Operation progress discarded by watchdog preemptions (carved out
        /// of the breakdown's `rollback_loss` slice).
        pub watchdog_lost_time: SimDuration,
        /// FPGA ops executed on the software-emulation path.
        pub degraded_dispatches: u64,
        /// CPU time spent in software emulation (useful work, priced from the
        /// coprocessor model; also summed per task).
        pub degraded_time: SimDuration,
        /// Tasks rejected at arrival because the schedulability test proved
        /// their deadline unmeetable. Disjoint from `rejected` (quota
        /// load-shedding), `quarantined`, and `deadline_missed`.
        pub unschedulable: u64,
        /// Degraded-mode entries (utilization crossed the high mark). Only
        /// counted when the hysteresis pair is explicit; flapping shows up as
        /// repeated enter/exit cycles.
        pub degrade_enters: u64,
        /// Degraded-mode exits (utilization fell below the low mark). Only
        /// counted when the hysteresis pair is explicit.
        pub degrade_exits: u64,
    }
}

/// The mutable half of the admission runtime: everything a checkpoint
/// image must carry (the policy is configuration and is rebuilt with the
/// system).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AdmissionState {
    /// Admitted, non-terminal task count per tenant.
    pub in_flight: BTreeMap<u32, u32>,
    /// Deferred task indices per tenant, FIFO.
    pub deferred: BTreeMap<u32, VecDeque<u32>>,
    /// Watchdog generation per task: bumped whenever a segment ends, so a
    /// pending watchdog event with a stale generation is ignored.
    pub wd_seq: Vec<u64>,
    /// Watchdog fires per task.
    pub wd_trips: Vec<u32>,
    /// Whether the task's *current* op is running on the software path.
    pub degraded: Vec<bool>,
    /// Sticky device-wide degraded mode: set once utilization reaches the
    /// high mark, cleared only below the low mark. With the legacy single
    /// watermark the two marks coincide and this tracks the plain
    /// comparison exactly.
    pub degrade_mode: bool,
    /// Outcome counters.
    pub stats: AdmissionStats,
}

/// Runtime admission state carried by the system (crate-internal).
#[derive(Debug)]
pub(crate) struct AdmissionRt {
    /// The policy in force.
    pub policy: AdmissionPolicy,
    /// Quotas, queues, watchdog generations and counters.
    pub st: AdmissionState,
}

impl AdmissionRt {
    pub(crate) fn new(policy: AdmissionPolicy, tasks: usize) -> Self {
        AdmissionRt {
            policy,
            st: AdmissionState {
                in_flight: BTreeMap::new(),
                deferred: BTreeMap::new(),
                wd_seq: vec![0; tasks],
                wd_trips: vec![0; tasks],
                degraded: vec![false; tasks],
                degrade_mode: false,
                stats: AdmissionStats::default(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_permissive_and_valid() {
        let p = AdmissionPolicy::default();
        assert_eq!(p.max_in_flight, u32::MAX);
        assert_eq!(p.queue_cap, u32::MAX);
        assert!(p.watchdog.is_some());
        assert!(p.degradation.is_none());
        p.validate().expect("default policy must validate");
    }

    #[test]
    fn validate_rejects_bad_ranges() {
        let zero_quota = AdmissionPolicy {
            max_in_flight: 0,
            ..Default::default()
        };
        assert!(matches!(
            zero_quota.validate(),
            Err(VfpgaError::BadAdmissionPolicy { .. })
        ));

        let tight_slack = AdmissionPolicy {
            watchdog: Some(WatchdogConfig {
                slack: 0.5,
                max_trips: 1,
            }),
            ..Default::default()
        };
        assert!(tight_slack.validate().is_err());

        let nan_slack = AdmissionPolicy {
            watchdog: Some(WatchdogConfig {
                slack: f64::NAN,
                max_trips: 1,
            }),
            ..Default::default()
        };
        assert!(nan_slack.validate().is_err());

        let bad_mark = AdmissionPolicy {
            degradation: Some(DegradationConfig {
                watermark: 1.5,
                sw_ns_per_cycle: BTreeMap::new(),
                ..Default::default()
            }),
            ..Default::default()
        };
        assert!(bad_mark.validate().is_err());

        let bad_high = AdmissionPolicy {
            degradation: Some(DegradationConfig {
                degrade_above: Some(-0.1),
                ..Default::default()
            }),
            ..Default::default()
        };
        assert!(bad_high.validate().is_err());

        let inverted_pair = AdmissionPolicy {
            degradation: Some(DegradationConfig {
                degrade_above: Some(0.4),
                recover_below: Some(0.8),
                ..Default::default()
            }),
            ..Default::default()
        };
        assert!(
            inverted_pair.validate().is_err(),
            "recover_below above degrade_above must be rejected"
        );

        let bad_margin = AdmissionPolicy {
            schedulability: Some(SchedulabilityConfig { margin: 0.5 }),
            ..Default::default()
        };
        assert!(bad_margin.validate().is_err());
        let nan_margin = AdmissionPolicy {
            schedulability: Some(SchedulabilityConfig { margin: f64::NAN }),
            ..Default::default()
        };
        assert!(nan_margin.validate().is_err());
    }

    #[test]
    fn hysteresis_marks_alias_the_legacy_watermark() {
        let legacy = DegradationConfig {
            watermark: 0.7,
            ..Default::default()
        };
        assert_eq!(legacy.high_mark(), 0.7);
        assert_eq!(legacy.low_mark(), 0.7);
        assert!(!legacy.has_hysteresis());

        let pair = DegradationConfig {
            watermark: 0.7, // ignored once the pair is explicit
            degrade_above: Some(0.9),
            recover_below: Some(0.4),
            ..Default::default()
        };
        assert_eq!(pair.high_mark(), 0.9);
        assert_eq!(pair.low_mark(), 0.4);
        assert!(pair.has_hysteresis());
        AdmissionPolicy {
            degradation: Some(pair),
            ..Default::default()
        }
        .validate()
        .expect("a well-ordered pair validates");

        // An explicit high mark alone recovers at the same mark.
        let high_only = DegradationConfig {
            degrade_above: Some(0.6),
            ..Default::default()
        };
        assert_eq!(high_only.low_mark(), 0.6);
        assert!(high_only.has_hysteresis());
    }

    #[test]
    fn slack_of_exactly_one_is_allowed() {
        // The event queue breaks ties FIFO and the completion timer is
        // always scheduled before the watchdog, so slack == 1.0 is safe.
        let p = AdmissionPolicy {
            watchdog: Some(WatchdogConfig {
                slack: 1.0,
                max_trips: 0,
            }),
            ..Default::default()
        };
        p.validate().expect("slack of exactly 1.0 is legal");
    }

    #[test]
    fn runtime_state_sized_to_task_count() {
        let rt = AdmissionRt::new(AdmissionPolicy::default(), 5).st;
        assert_eq!(rt.wd_seq.len(), 5);
        assert_eq!(rt.wd_trips.len(), 5);
        assert_eq!(rt.degraded.len(), 5);
        assert!(!rt.degrade_mode);
        assert_eq!(rt.stats, AdmissionStats::default());
    }
}
