//! Overload-resilient admission control.
//!
//! The paper's OS layer promises each of many concurrent tasks a dedicated
//! virtual FPGA and detects completion "via a-priori latency estimate or a
//! done-signal service circuit" (§3) — but a layer that trusts every task
//! to terminate and admits unbounded work lets one hung circuit stall a
//! partition forever, and saturation degrades every tenant equally. This
//! module adds the missing defenses. Each rule is a method of the
//! crate-internal `Gate` (the policy over a run's `AdmissionState`),
//! testable on its own; the half that acts inside [`System`]'s event loop
//! (the software path at dispatch, the watchdog firing) is the
//! `impl System` block at the end:
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

use crate::circuit::{CircuitId, CircuitLib};
use crate::error::VfpgaError;
use crate::manager::{DeviceUsage, FpgaManager};
use crate::sched::Scheduler;
use crate::system::{Exit, System};
use crate::task::{Op, TaskId, TaskSpec};
use fsim::{SimDuration, SimTime, TraceEvent};
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
        let bad = |reason: String| Err(VfpgaError::BadAdmissionPolicy { reason });
        let factor = |x: &f64| x.is_finite() && *x >= 1.0;
        if self.max_in_flight == 0 {
            return bad("max_in_flight must be at least 1".into());
        }
        if let Some(slack) = self.watchdog.map(|wd| wd.slack).filter(|s| !factor(s)) {
            return bad(format!(
                "watchdog slack must be a finite factor >= 1.0, got {slack}"
            ));
        }
        if let Some(dg) = &self.degradation {
            let marks = [
                ("watermark", Some(dg.watermark)),
                ("degrade_above", dg.degrade_above),
                ("recover_below", dg.recover_below),
            ];
            for (name, mark) in marks {
                if let Some(m) = mark.filter(|m| !m.is_finite() || !(0.0..=1.0).contains(m)) {
                    return bad(format!("degradation {name} must be in [0, 1], got {m}"));
                }
            }
            let (low, high) = (dg.low_mark(), dg.high_mark());
            if low > high {
                return bad(format!(
                    "degradation recover_below must not exceed degrade_above, got {low} > {high}"
                ));
            }
        }
        if let Some(margin) = self
            .schedulability
            .map(|sc| sc.margin)
            .filter(|m| !factor(m))
        {
            return bad(format!(
                "schedulability margin must be a finite factor >= 1.0, got {margin}"
            ));
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

fsim::record! {
    /// Admission control's state, which a run keeps beside the build's
    /// policy: everything a checkpoint image must carry.
    #[derive(Debug, Clone, Default, PartialEq)]
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
}

impl AdmissionState {
    /// Nothing admitted, deferred or tripped yet, over `tasks` tasks.
    pub(crate) fn fresh(tasks: usize) -> Self {
        AdmissionState {
            wd_seq: vec![0; tasks],
            wd_trips: vec![0; tasks],
            degraded: vec![false; tasks],
            ..Default::default()
        }
    }

    /// Whether this state, read from an image, fits a system of `tasks`
    /// tasks.
    pub(crate) fn fits(&self, tasks: usize) -> Result<(), String> {
        let lens = [self.wd_seq.len(), self.wd_trips.len(), self.degraded.len()];
        if lens.iter().any(|&len| len != tasks) {
            return Err(format!("admission state is not sized for {tasks} tasks"));
        }
        let mut deferred = self.deferred.values().flatten();
        match deferred.find(|&&t| t as usize >= tasks) {
            Some(t) => Err(format!("task id {t} out of range ({tasks} tasks)")),
            None => Ok(()),
        }
    }

    /// A migration split this shard: only the tenants `stay` selects keep
    /// their slots and deferred backlog here (the backlog of the others
    /// travels inside the checkpoint image the other side restores).
    pub(crate) fn retain_tenants(&mut self, stay: impl Fn(u32) -> bool) {
        self.in_flight.retain(|tenant, _| stay(*tenant));
        self.deferred.retain(|tenant, _| stay(*tenant));
    }

    /// Whether task `ti`'s *current* op is running on the software path.
    #[inline]
    pub(crate) fn is_degraded(&self, ti: usize) -> bool {
        self.degraded[ti]
    }

    /// A segment of task `ti`'s FPGA op ran for `dur`: when the op is on
    /// the software path, account the emulation time and say so.
    #[inline]
    pub(crate) fn degraded_run(&mut self, ti: usize, dur: SimDuration) -> bool {
        if self.degraded[ti] {
            self.stats.degraded_time += dur;
        }
        self.degraded[ti]
    }

    /// Task `ti`'s op completed. The degradation decision is per op; the
    /// next op competes for fabric again.
    #[inline]
    pub(crate) fn op_completed(&mut self, ti: usize) {
        self.degraded[ti] = false;
    }

    /// Task `ti`'s hardware segment ended on time: the generation bump
    /// turns the watchdog event still pending for it into a no-op.
    #[inline]
    pub(crate) fn segment_ended(&mut self, ti: usize) {
        self.wd_seq[ti] += 1;
    }

    /// What a fired watchdog cost: the op progress it discarded and the
    /// manager overhead of reclaiming the device.
    pub(crate) fn watchdog_cost(&mut self, lost: SimDuration, preempt: SimDuration) {
        self.stats.watchdog_lost_time += lost;
        self.stats.watchdog_preempt_time += preempt;
    }
}

/// What the gate decides about an arriving task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Arrival {
    /// Admitted now, holding one of its tenant's in-flight slots.
    Admit,
    /// Parked in the tenant's FIFO until a slot frees.
    Defer,
    /// Never enters the system: load-shed ([`Exit::Rejected`]) or provably
    /// late ([`Exit::Unschedulable`]).
    Refuse(Exit),
}

/// The admission rules at work (crate-internal): the policy a system was
/// built with over the state its run keeps. Every quota, watchdog and
/// hysteresis rule is a method here, so the rules can be exercised
/// without a [`System`].
pub(crate) struct Gate<'a> {
    policy: &'a AdmissionPolicy,
    st: &'a mut AdmissionState,
}

impl<'a> Gate<'a> {
    /// The gate of a system whose build has `policy` and whose run keeps
    /// `st`: `None` without admission control.
    #[inline]
    pub(crate) fn of(
        policy: &'a Option<AdmissionPolicy>,
        st: &'a mut Option<AdmissionState>,
    ) -> Option<Self> {
        Some(Gate {
            policy: policy.as_ref()?,
            st: st.as_mut()?,
        })
    }

    /// Task `tid` (described by `spec`) arrives at `now`. The
    /// schedulability test runs ahead of quota accounting: a provably
    /// unmeetable deadline refuses the task before it can consume a slot
    /// or queue entry. The margin-scaled §3 `estimate` (of the task plus
    /// its tenant's deferred backlog) ignores contention from other
    /// tenants, so anything it rules out is a guaranteed miss. Then the
    /// quota: a free in-flight slot admits, room in the tenant's FIFO
    /// defers, and anything beyond is load-shed.
    #[inline]
    pub(crate) fn on_arrival(
        &mut self,
        tid: u32,
        spec: &TaskSpec,
        now: SimTime,
        estimate: impl Fn(u32) -> SimDuration,
    ) -> Arrival {
        let tenant = spec.tenant;
        if let (Some(sc), Some(deadline)) = (self.policy.schedulability, spec.deadline) {
            let mut est = estimate(tid);
            for &t in self.st.deferred.get(&tenant).into_iter().flatten() {
                est += estimate(t);
            }
            let estimate =
                SimDuration::from_nanos((sc.margin * est.as_nanos() as f64).round() as u64);
            if now + estimate > spec.arrival + deadline {
                self.st.stats.unschedulable += 1;
                return Arrival::Refuse(Exit::Unschedulable { estimate, deadline });
            }
        }
        let in_flight = self.st.in_flight.entry(tenant).or_insert(0);
        if *in_flight < self.policy.max_in_flight {
            *in_flight += 1;
            self.st.stats.admitted += 1;
            return Arrival::Admit;
        }
        let queued = self.st.deferred.get(&tenant).map_or(0, VecDeque::len);
        if (queued as u64) < u64::from(self.policy.queue_cap) {
            self.st.deferred.entry(tenant).or_default().push_back(tid);
            self.st.stats.deferred += 1;
            Arrival::Defer
        } else {
            self.st.stats.rejected += 1;
            Arrival::Refuse(Exit::Rejected)
        }
    }

    /// An admitted task of `tenant` left the system (done, failed or
    /// quarantined): count how, release the tenant's in-flight slot, and
    /// admit the longest-waiting deferred task of that tenant in its
    /// place, if any. The caller makes the returned task ready.
    #[inline]
    pub(crate) fn on_exit(&mut self, tenant: u32, quarantined: bool, missed: bool) -> Option<u32> {
        self.st.stats.quarantined += u64::from(quarantined);
        self.st.stats.deadline_missed += u64::from(missed);
        let slots = self.st.in_flight.entry(tenant).or_insert(0);
        *slots = slots.saturating_sub(1);
        if *slots >= self.policy.max_in_flight {
            return None;
        }
        let next = self.st.deferred.get_mut(&tenant)?.pop_front()?;
        *slots += 1;
        self.st.stats.admitted += 1;
        Some(next)
    }

    /// Re-evaluate the sticky degraded-mode bit (with degradation on; only
    /// then is `usage` asked): enter once utilization reaches the high
    /// mark, leave only below the low mark. With the legacy single
    /// watermark the marks coincide, the bit tracks the plain comparison,
    /// and nothing is counted or reported — pre-hysteresis runs stay
    /// byte-identical. A transition under an explicit pair is counted and
    /// returned (`true` = entered) with the usage behind it, for the trace.
    #[inline]
    pub(crate) fn update_degrade_mode(
        &mut self,
        usage: impl FnOnce() -> DeviceUsage,
    ) -> Option<(bool, DeviceUsage)> {
        let dg = self.policy.degradation.as_ref()?;
        let u = usage();
        let mark = if self.st.degrade_mode {
            dg.low_mark()
        } else {
            dg.high_mark()
        };
        let next = u.total_clbs != 0 && u.used_clbs as f64 >= mark * u.total_clbs as f64;
        if next == self.st.degrade_mode {
            return None;
        }
        self.st.degrade_mode = next;
        if !dg.has_hysteresis() {
            return None;
        }
        self.st.stats.degrade_enters += u64::from(next);
        self.st.stats.degrade_exits += u64::from(!next);
        Some((next, u))
    }

    /// Whether a fresh FPGA op of task `ti` runs on the software path
    /// instead of competing for fabric: degradation configured, the op not
    /// the deliberate `hang` (a broken circuit, not a slow one), a
    /// software price for the circuit, the device in degraded mode, and
    /// the circuit not `resident` (a hit is cheaper on hardware whatever
    /// the pressure; asked last). If so the op is marked and counted, and
    /// its software cost in ns per hardware cycle returned.
    #[inline]
    pub(crate) fn degrade(
        &mut self,
        ti: usize,
        circuit: CircuitId,
        hang: bool,
        resident: impl FnOnce() -> bool,
    ) -> Option<u64> {
        let dg = self.policy.degradation.as_ref()?;
        if hang {
            return None;
        }
        let sw_ns = *dg.sw_ns_per_cycle.get(&circuit.0)?;
        if !self.st.degrade_mode || resident() {
            return None;
        }
        self.st.degraded[ti] = true;
        self.st.stats.degraded_dispatches += 1;
        Some(sw_ns)
    }

    /// A hardware segment of task `ti` is dispatched: `overhead`, then
    /// `dur` of execution, then `slack` of completion detection. Starts a
    /// fresh watchdog generation and returns it with its deadline — `dur`
    /// (the §3 a-priori estimate the completion detector also uses) times
    /// the policy's slack factor, between the other two. `None`: no watchdog.
    #[inline]
    pub(crate) fn arm_watchdog(
        &mut self,
        ti: usize,
        overhead: SimDuration,
        dur: SimDuration,
        slack: SimDuration,
    ) -> Option<(u64, SimDuration)> {
        let wd = self.policy.watchdog?;
        self.st.wd_seq[ti] += 1;
        self.st.stats.watchdog_armed += 1;
        let est_ns = (wd.slack * dur.as_nanos() as f64).round() as u64;
        let deadline = overhead + SimDuration::from_nanos(est_ns) + slack;
        Some((self.st.wd_seq[ti], deadline))
    }

    /// A watchdog event of generation `seq` came due for task `ti`.
    /// `None` when it is stale (the segment it was armed for has ended).
    /// Otherwise the generation is consumed — nothing else may fire on
    /// this segment — and the trip counted: returns the task's trip count
    /// and whether that exhausts the policy's `max_trips`.
    pub(crate) fn watchdog_fired(&mut self, ti: usize, seq: u64) -> Option<(u32, bool)> {
        if self.st.wd_seq[ti] != seq {
            return None;
        }
        self.st.wd_seq[ti] += 1;
        self.st.wd_trips[ti] += 1;
        self.st.stats.watchdog_fired += 1;
        let max_trips = self.policy.watchdog.map_or(0, |w| w.max_trips);
        Some((self.st.wd_trips[ti], self.st.wd_trips[ti] > max_trips))
    }
}

/// The §3 a-priori completion estimate the schedulability test holds
/// against a task's deadline: every CPU burst at face value, every
/// FPGA run priced from the circuit's synchronous clock, plus a
/// pending-reconfiguration charge (one column-addressed frame
/// transfer per frame, the same movement cost a partial download
/// pays) for each FPGA op whose circuit is not currently resident.
pub(crate) fn service_estimate<M: FpgaManager>(
    lib: &CircuitLib,
    manager: &M,
    spec: &TaskSpec,
) -> SimDuration {
    let timing = manager.timing();
    let mut est = SimDuration::ZERO;
    for op in &spec.ops {
        match op {
            Op::Cpu(d) => est += *d,
            Op::FpgaRun { circuit, cycles } => {
                let img = lib.get(*circuit);
                est += img.run_time(*cycles);
                if !manager.is_resident(*circuit) {
                    est += timing.readback_time(img.frames());
                }
            }
        }
    }
    est
}

impl<M: FpgaManager, S: Scheduler> System<M, S> {
    /// Re-evaluate the sticky degraded-mode bit, tracing a transition.
    /// Called at dispatch, before any degradation decision, where the old
    /// per-dispatch watermark comparison ran.
    fn update_degrade_mode(&mut self, now: SimTime) {
        let manager = &self.manager;
        let adm = Gate::of(&self.build.admission, &mut self.run.admission);
        let flipped = adm.and_then(|mut adm| adm.update_degrade_mode(|| manager.usage()));
        if let Some((entered, u)) = flipped {
            let (used, total) = (u.used_clbs, u.total_clbs);
            self.emit(now, |_| match entered {
                true => TraceEvent::DegradeModeEnter { used, total },
                false => TraceEvent::DegradeModeExit { used, total },
            });
        }
    }

    /// Whether the FPGA op task `tid` is about to dispatch runs on the
    /// software-emulation path. A mid-op re-dispatch of a degraded op
    /// stays on the CPU (the pricing decision is sticky per op); a fresh
    /// op degrades when [`Gate::degrade`] says so, and is then
    /// priced from the coprocessor model.
    #[inline]
    pub(crate) fn software_path(
        &mut self,
        tid: TaskId,
        circuit: CircuitId,
        cycles: u64,
        now: SimTime,
    ) -> bool {
        self.update_degrade_mode(now);
        let ti = tid.0 as usize;
        let manager = &self.manager;
        let Some(mut adm) = Gate::of(&self.build.admission, &mut self.run.admission) else {
            return false;
        };
        if adm.st.is_degraded(ti) {
            return true;
        }
        if self.run.slots[ti].op_done_so_far != SimDuration::ZERO {
            return false;
        }
        let hang = self.build.specs[ti].hang_op == Some(self.run.slots[ti].op_idx as usize);
        let resident = || manager.is_resident(circuit);
        let Some(sw_ns) = adm.degrade(ti, circuit, hang, resident) else {
            return false;
        };
        let d = SimDuration::from_nanos(cycles.saturating_mul(sw_ns));
        let slot = &mut self.run.slots[ti];
        slot.op_full = d;
        slot.op_remaining = d;
        slot.op_done_so_far = SimDuration::ZERO;
        // Any hardware garbage from an earlier poisoned attempt is moot:
        // the op restarts from scratch in software.
        slot.poisoned = None;
        self.emit(now, |_| TraceEvent::DegradedDispatch {
            task: tid.0,
            circuit: circuit.0,
            duration: d,
        });
        true
    }

    /// A watchdog deadline fired. Returns false when the event is stale
    /// (its generation no longer matches because the segment ended on
    /// time); the caller then skips the observation sample too, so an
    /// expired-but-harmless watchdog cannot perturb recorded timelines.
    pub(crate) fn on_watchdog(&mut self, tid: TaskId, seq: u64, now: SimTime) -> bool {
        let ti = tid.0 as usize;
        let adm = Gate::of(&self.build.admission, &mut self.run.admission);
        let Some((trip, exhausted)) = adm.and_then(|mut adm| adm.watchdog_fired(ti, seq)) else {
            return false;
        };
        // A live watchdog generation implies the task is mid-segment.
        let run = self.run.running.take();
        let run = run.expect("watchdog fired on an idle CPU");
        debug_assert_eq!(run.tid, tid);
        let f = run.fpga.expect("watchdog armed on a non-FPGA segment");

        // The op made no trustworthy progress: a hung (or wildly
        // misestimated) circuit's state is not worth saving, so the whole
        // op is discarded — prior completed slices included — exactly like
        // a rollback. The CPU was genuinely held for the whole overrun
        // (co-processor model), so the elapsed wall time is charged lost.
        let slot = &mut self.run.slots[ti];
        let lost = slot.op_done_so_far + (now - run.exec_start);
        slot.fpga_time -= slot.op_done_so_far;
        slot.lost_time += lost;
        slot.op_remaining = slot.op_full;
        slot.op_done_so_far = SimDuration::ZERO;
        slot.poisoned = None; // discarded along with the progress

        // Reclaim the device through the existing machinery: a preemption
        // where the policy supports one, otherwise a forced completion
        // that releases the slot (the fault-restart path's move).
        let post = if self.can_preempt() {
            self.manager.preempt(tid, f.cid).overhead
        } else {
            let (ovh, wake) = self.manager.op_done(tid, f.cid);
            self.wake(wake, now);
            ovh
        };
        self.run.slots[ti].overhead_time += post;
        if let Some(adm) = self.run.admission.as_mut() {
            adm.watchdog_cost(lost, post);
        }
        self.emit(now, |_| TraceEvent::WatchdogFired {
            task: tid.0,
            trip,
            lost,
        });

        if exhausted {
            self.exit(tid, now, Exit::Quarantined("watchdog trips exhausted"));
        } else {
            self.make_ready(tid, now);
        }
        self.dispatch_after(post, now);
        true
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

    /// A policy and the state it rules over, as a system's build and run
    /// hold them.
    struct Rt {
        policy: Option<AdmissionPolicy>,
        st: Option<AdmissionState>,
    }

    impl Rt {
        fn new(policy: AdmissionPolicy, tasks: usize) -> Self {
            Rt {
                policy: Some(policy),
                st: Some(AdmissionState::fresh(tasks)),
            }
        }

        fn gate(&mut self) -> Gate<'_> {
            Gate::of(&self.policy, &mut self.st).unwrap()
        }

        fn st(&mut self) -> &mut AdmissionState {
            self.st.as_mut().unwrap()
        }
    }

    fn tight(max_in_flight: u32, queue_cap: u32) -> Rt {
        let policy = AdmissionPolicy {
            max_in_flight,
            queue_cap,
            ..Default::default()
        };
        Rt::new(policy, 8)
    }

    /// Task `tid` of `tenant` arrives; no deadline, so nothing is estimated.
    fn arrive(rt: &mut Rt, tid: u32, tenant: u32) -> Arrival {
        let spec = TaskSpec::new("t", SimTime::ZERO, vec![]).with_tenant(tenant);
        rt.gate()
            .on_arrival(tid, &spec, SimTime::ZERO, |_| unreachable!("no deadline"))
    }

    #[test]
    fn quota_admits_then_defers_then_sheds_and_releases_fifo() {
        let mut rt = tight(1, 2);
        let verdicts: Vec<Arrival> = (0..4).map(|tid| arrive(&mut rt, tid, 7)).collect();
        let shed = Arrival::Refuse(Exit::Rejected);
        assert_eq!(
            verdicts,
            [Arrival::Admit, Arrival::Defer, Arrival::Defer, shed]
        );
        // Quotas are per tenant: another tenant still has its slot.
        assert_eq!(arrive(&mut rt, 4, 8), Arrival::Admit);
        // Each exit hands the slot to the longest-deferred task.
        assert_eq!(rt.gate().on_exit(7, false, false), Some(1));
        assert_eq!(rt.gate().on_exit(7, true, false), Some(2));
        assert_eq!(rt.gate().on_exit(7, false, true), None);
        assert_eq!(rt.gate().on_exit(8, false, false), None);
        let st = rt.st().stats;
        assert_eq!((st.admitted, st.deferred, st.rejected), (4, 2, 1));
        assert_eq!((st.quarantined, st.deadline_missed), (1, 1));
        assert!(rt.st().in_flight.values().all(|&n| n == 0));
    }

    #[test]
    fn a_deadline_the_backlog_already_overshoots_is_refused_before_the_quota() {
        let policy = AdmissionPolicy {
            max_in_flight: 1,
            schedulability: Some(SchedulabilityConfig { margin: 1.5 }),
            ..Default::default()
        };
        let mut rt = Rt::new(policy, 8);
        let due = |ms| {
            TaskSpec::new("t", SimTime::ZERO, vec![]).with_deadline(SimDuration::from_millis(ms))
        };
        let one_ms = |_| SimDuration::from_millis(1);
        // 1.5 × 1 ms fits 2 ms; the second task waits behind nobody yet.
        assert_eq!(
            rt.gate().on_arrival(0, &due(2), SimTime::ZERO, one_ms),
            Arrival::Admit
        );
        assert_eq!(
            rt.gate().on_arrival(1, &due(2), SimTime::ZERO, one_ms),
            Arrival::Defer
        );
        // The third would wait behind the deferred one: 1.5 × 2 ms > 2 ms.
        let late = Exit::Unschedulable {
            estimate: SimDuration::from_millis(3),
            deadline: SimDuration::from_millis(2),
        };
        assert_eq!(
            rt.gate().on_arrival(2, &due(2), SimTime::ZERO, one_ms),
            Arrival::Refuse(late)
        );
        let st = rt.st().stats;
        assert_eq!((st.unschedulable, st.rejected, st.deferred), (1, 0, 1));
    }

    #[test]
    fn a_watchdog_fires_only_for_the_generation_it_was_armed_in() {
        let policy = AdmissionPolicy {
            watchdog: Some(WatchdogConfig {
                slack: 1.0,
                max_trips: 1,
            }),
            ..Default::default()
        };
        let mut rt = Rt::new(policy, 1);
        let us = SimDuration::from_micros;
        let arm = |rt: &mut Rt| rt.gate().arm_watchdog(0, us(5), us(100), us(7));
        let (seq, deadline) = arm(&mut rt).unwrap();
        assert_eq!(deadline, us(5 + 100 + 7), "slack 1.0: the timer's instant");
        rt.st().segment_ended(0);
        assert_eq!(
            rt.gate().watchdog_fired(0, seq),
            None,
            "the segment ended on time"
        );
        let (seq, _) = arm(&mut rt).unwrap();
        assert_eq!(rt.gate().watchdog_fired(0, seq), Some((1, false)));
        assert_eq!(
            rt.gate().watchdog_fired(0, seq),
            None,
            "consumed by its firing"
        );
        let (seq, _) = arm(&mut rt).unwrap();
        assert_eq!(
            rt.gate().watchdog_fired(0, seq),
            Some((2, true)),
            "past max_trips"
        );
        let st = rt.st().stats;
        assert_eq!((st.watchdog_armed, st.watchdog_fired), (3, 2));
        let off = AdmissionPolicy {
            watchdog: None,
            ..Default::default()
        };
        assert_eq!(arm(&mut Rt::new(off, 1)), None);
    }

    #[test]
    fn coincident_marks_track_the_comparison_and_a_wide_pair_is_sticky() {
        let rt = |dg: DegradationConfig| {
            let policy = AdmissionPolicy {
                degradation: Some(dg),
                ..Default::default()
            };
            Rt::new(policy, 1)
        };
        let at = |used_clbs| DeviceUsage {
            used_clbs,
            total_clbs: 100,
            free_fragments: 1,
        };
        let sw = || BTreeMap::from([(0, 3)]);
        let mode = |rt: &Rt| rt.st.as_ref().unwrap().degrade_mode;
        // Legacy single watermark: the bit is the plain comparison, and no
        // transition is ever reported or counted.
        let mut legacy = rt(DegradationConfig {
            watermark: 0.5,
            sw_ns_per_cycle: sw(),
            ..Default::default()
        });
        for (used, degraded) in [(49, false), (50, true), (49, false), (80, true)] {
            assert_eq!(legacy.gate().update_degrade_mode(|| at(used)), None);
            assert_eq!(mode(&legacy), degraded, "{used} CLBs");
        }
        assert_eq!(legacy.st().stats, AdmissionStats::default());
        // An explicit coincident pair decides the same, but reports.
        let mut pair = rt(DegradationConfig {
            degrade_above: Some(0.5),
            recover_below: Some(0.5),
            sw_ns_per_cycle: sw(),
            ..Default::default()
        });
        assert_eq!(
            pair.gate().update_degrade_mode(|| at(50)),
            Some((true, at(50)))
        );
        assert_eq!(
            pair.gate().update_degrade_mode(|| at(49)),
            Some((false, at(49)))
        );
        // A wide pair holds the mode between the marks.
        let mut wide = rt(DegradationConfig {
            degrade_above: Some(0.8),
            recover_below: Some(0.3),
            sw_ns_per_cycle: sw(),
            ..Default::default()
        });
        assert_eq!(wide.gate().update_degrade_mode(|| at(79)), None);
        assert_eq!(
            wide.gate().update_degrade_mode(|| at(80)),
            Some((true, at(80)))
        );
        assert_eq!(
            wide.gate().update_degrade_mode(|| at(30)),
            None,
            "still above low"
        );
        assert!(mode(&wide));
        // Degraded mode sends a fresh, priced, non-resident, non-hanging
        // op to software — and asks about residency last.
        let c = CircuitId(0);
        assert_eq!(
            wide.gate().degrade(0, c, true, || unreachable!()),
            None,
            "the hang"
        );
        assert_eq!(
            wide.gate()
                .degrade(0, CircuitId(1), false, || unreachable!()),
            None
        );
        assert_eq!(wide.gate().degrade(0, c, false, || true), None, "resident");
        assert!(!wide.st().is_degraded(0));
        assert_eq!(wide.gate().degrade(0, c, false, || false), Some(3));
        assert!(wide.st().degraded_run(0, SimDuration::from_micros(5)));
        wide.st().op_completed(0);
        assert!(!wide.st().degraded_run(0, SimDuration::from_micros(5)));
        assert_eq!(
            wide.gate().update_degrade_mode(|| at(29)),
            Some((false, at(29)))
        );
        let st = wide.st().stats;
        assert_eq!((st.degrade_enters, st.degrade_exits), (1, 1));
        assert_eq!(st.degraded_time, SimDuration::from_micros(5));
    }

    #[test]
    fn runtime_state_sized_to_task_count() {
        let rt = AdmissionState::fresh(5);
        assert_eq!(rt.wd_seq.len(), 5);
        assert_eq!(rt.wd_trips.len(), 5);
        assert_eq!(rt.degraded.len(), 5);
        assert!(!rt.degrade_mode);
        assert_eq!(rt.stats, AdmissionStats::default());
    }
}
