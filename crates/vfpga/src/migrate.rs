//! Crash-safe live migration of one tenant between fleet devices.
//!
//! A migration is a *planned* two-phase move of a single tenant's column
//! range from a source device to a destination device, driven by the
//! fleet kernel's `Fleet::on_migrate` (under [`crate::fleet::run_fleet`]):
//!
//! * **Prepare** — cut the source at the migration instant (the existing
//!   readback-priced checkpoint path is the snapshot: the cut reuses the
//!   crash machinery, so the [`Cut`] it leaves is exactly what a failover
//!   would carry), reserve the destination, and journal a
//!   [`MigrationPhase::Intent`] record on *both* sides' migration logs.
//! * **Commit** — build the destination shard, adopt the tenant via
//!   [`crate::System::migrate_in`] (delta-anchored ghost implant when the
//!   destination manager has delta reconfiguration enabled), flip the
//!   placement in the fleet table, journal [`MigrationPhase::Commit`],
//!   then free the tenant's source-side residency and journal
//!   [`MigrationPhase::Freed`].
//! * **Abort** — any earlier failure rolls the tenant back onto the
//!   source with its deferred backlog intact and journals
//!   [`MigrationPhase::Aborted`].
//!
//! Crash points inside the window (see
//! [`fsim::MigrationCrashWindow`]) are resolved by replaying the
//! migration log: an intent without a commit is undone (the tenant never
//! left), a commit without a free is redone idempotently (the source
//! columns are freed again; freeing twice is a no-op).
//!
//! The two halves of the split are here as an `impl System` block:
//! [`extract_tenant`](crate::System::extract_tenant) on the source,
//! [`migrate_in`](crate::System::migrate_in) on the destination.
//! The destination system adopts the *whole* shard image (same task
//! indexing as the source, so snapshots restore unchanged) and then
//! retires every non-tenant task as [`crate::task::TaskState::Migrated`].
//! Its report therefore carries the source's cumulative counters; the
//! [`CounterBaseline`] captured at adoption time is subtracted before the
//! fleet merges reports, so migrated work is never double-counted.

use std::collections::BTreeMap;

use fpga::journal::{MigrationLog, MigrationPhase, MigrationRecord, MigrationResolution};
use fsim::{span, MigrationCrashWindow, MigrationPlan, SimDuration, SimTime};

use crate::admission::AdmissionStats;
use crate::checkpoint::{CrashState, CrashStats, Cut};
use crate::circuit::CircuitId;
use crate::counters::Counters;
use crate::error::VfpgaError;
use crate::manager::{redownload_cost, DeltaStats, FpgaManager, ManagerStats, ResidentRegion};
use crate::metrics::Report;
use crate::recovery::FaultStats;
use crate::sched::Scheduler;
use crate::system::{Ev, Exit, System};
use crate::task::{Op, TaskId, TaskSpec};

/// What [`crate::System::extract_tenant`] removed from the source side of
/// a migration split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrationManifest {
    /// Non-terminal tasks of the tenant retired as `Migrated` (they
    /// continue on the destination, which reports their real outcome).
    pub moved_tasks: u32,
    /// Source residency claims freed (zero when the free was deferred to
    /// the journal-replay redo path).
    pub freed_claims: u32,
}

/// What [`crate::System::migrate_in`] found while adopting a tenant.
#[derive(Debug, Clone)]
pub struct MigrateInReceipt {
    /// Live tasks of the tenant carried onto the destination.
    pub adopted_tasks: u32,
    /// The tenant's residency claims that were staged-copied (delta on)
    /// or will re-download at next activation (delta off).
    pub migrated_claims: u32,
    /// Ghost images implanted for delta-anchored revalidation.
    pub ghosts_implanted: u32,
    /// Torn (mid-flight at the cut) journal records dropped.
    pub torn_undone: u32,
    /// Work window the destination re-executes: cut time minus the
    /// restored checkpoint's capture time.
    pub redo_window: SimDuration,
    /// Source-cumulative counters at adoption time; subtract from the
    /// destination's final report before merging.
    pub baseline: CounterBaseline,
}

/// Cumulative counters a destination system inherits from the source
/// image at adoption time. The destination's final report carries
/// `source + own` for every counter; subtracting this baseline leaves the
/// destination's own increment, so the fleet merge (which sums shard
/// reports) counts migrated work exactly once.
#[derive(Debug, Clone, Copy, Default)]
pub struct CounterBaseline {
    /// Manager counters restored from the image.
    pub manager: ManagerStats,
    /// Fault/recovery counters restored from the image.
    pub fault: FaultStats,
    /// Checkpoint/crash counters carried by the crash state.
    pub crash: CrashStats,
    /// Admission counters restored from the image (when admission was on).
    pub admission: Option<AdmissionStats>,
    /// Delta-reconfiguration counters restored from the image (when the
    /// manager had delta enabled).
    pub delta: Option<DeltaStats>,
}

impl CounterBaseline {
    /// Subtract the inherited baseline from `r`'s cumulative counters,
    /// field-wise and saturating, leaving only what the destination did
    /// itself. Per-task metrics are left alone — the fleet merge keeps
    /// only the migrated tenant's rows from this report, and those rows'
    /// cumulative per-task metrics are exactly right.
    pub fn subtract_from(&self, r: &mut Report) {
        r.manager_stats.sub(&self.manager);
        r.fault.sub(&self.fault);
        r.crash.sub(&self.crash);
        if let (Some(a), Some(b)) = (r.admission.as_mut(), self.admission.as_ref()) {
            a.sub(b);
        }
        if let (Some(d), Some(b)) = (r.delta.as_mut(), self.delta.as_ref()) {
            d.sub(b);
        }
    }
}

impl<M: FpgaManager, S: Scheduler> System<M, S> {
    /// Non-terminal tasks of `tenant` still inside this system.
    pub fn live_tasks_of(&self, tenant: u32) -> u32 {
        self.run
            .slots
            .iter()
            .zip(&self.build.specs)
            .filter(|(slot, spec)| spec.tenant == tenant && !slot.state.is_terminal())
            .count() as u32
    }

    /// Retire every non-terminal task matching `pred` as
    /// [`TaskState::Migrated`]: it leaves this system (the other side of
    /// the migration split reports its real outcome), frees its device
    /// claims, and stops being scheduled. Pending events targeting a
    /// retired task are pruned, and a retired task that had not arrived
    /// never will (its slot is no longer `Future`); scheduler entries go
    /// stale and are skipped by dispatch. Returns how many tasks were
    /// retired.
    fn retire_tasks_where(
        &mut self,
        stamp_at: SimTime,
        resume_at: SimTime,
        pred: impl Fn(&TaskSpec) -> bool,
    ) -> u32 {
        let moved: Vec<TaskId> = (0..self.run.slots.len())
            .filter(|&ti| !self.run.slots[ti].state.is_terminal() && pred(&self.build.specs[ti]))
            .map(|ti| TaskId(ti as u32))
            .collect();
        if moved.is_empty() {
            return 0;
        }
        // Mark all now, release below: a wake must not reach a task this
        // batch is still about to retire.
        let mut gone = vec![false; self.run.slots.len()];
        for &tid in &moved {
            self.exit(tid, stamp_at, Exit::Migrated);
            gone[tid.0 as usize] = true;
        }
        if self.run.running.is_some_and(|run| gone[run.tid.0 as usize]) {
            self.run.running = None;
        }
        let mut kept: Vec<(SimTime, Ev)> = Vec::new();
        self.run.pending_in_order(&mut kept);
        kept.retain(|(_, ev)| !ev.task().is_some_and(|t| gone[t.0 as usize]));
        self.run.reload_pending(kept);
        for &tid in &moved {
            self.release_claims(tid, resume_at);
        }
        moved.len() as u32
    }

    /// Source half of a migration split: retire `tenant`'s tasks as
    /// migrated (stamped at `cut_at`, the migration instant), drop the
    /// tenant's admission state (its deferred backlog travels inside the
    /// checkpoint image the destination restores), and — unless the free
    /// is deferred to the journal-replay redo path (`free == false`) —
    /// release the tenant's now-unreferenced residency claims.
    pub fn extract_tenant(
        &mut self,
        tenant: u32,
        cut_at: SimTime,
        resume_at: SimTime,
        free: bool,
    ) -> MigrationManifest {
        let moved = self.retire_tasks_where(cut_at, resume_at, |s| s.tenant == tenant);
        if let Some(adm) = self.run.admission.as_mut() {
            adm.retain_tenants(|t| t != tenant);
        }
        let freed = if free { self.free_migrated(tenant) } else { 0 };
        self.run.queue.schedule_at(resume_at, Ev::Dispatch);
        MigrationManifest {
            moved_tasks: moved,
            freed_claims: freed,
        }
    }

    /// Who uses each of the library's circuits, by circuit id: `tenant`'s
    /// tasks, another tenant's, or both. One pass over every op of every
    /// task in the build — finished, migrated out or not.
    fn circuit_use(&self, tenant: u32) -> Vec<CircuitUse> {
        let mut uses = vec![CircuitUse::default(); self.build.lib.len()];
        for spec in self.build.specs.iter() {
            let mine = spec.tenant == tenant;
            for op in &spec.ops {
                let Op::FpgaRun { circuit, .. } = *op else {
                    continue;
                };
                // A circuit outside the library is never resident.
                if let Some(u) = uses.get_mut(circuit.0 as usize) {
                    if mine {
                        u.tenant = true;
                    } else {
                        u.others = true;
                    }
                }
            }
        }
        uses
    }

    /// Release the residency claims of the circuits only `tenant` uses:
    /// circuits some op of `tenant`'s tasks names and no op of any other
    /// task in this system's build does. That build holds the whole shard
    /// table, so a task still counts when it has finished or its tenant
    /// has migrated out: a circuit shared with one of them stays resident.
    /// Idempotent — the journal-replay redo path may call it again after a
    /// crash between commit and free, and the second call finds nothing to
    /// discard.
    pub fn free_migrated(&mut self, tenant: u32) -> u32 {
        let uses = self.circuit_use(tenant);
        let only_tenant = |cid: CircuitId| {
            uses.get(cid.0 as usize)
                .is_some_and(|u| u.tenant && !u.others)
        };
        let mut freed = 0u32;
        for claim in self.manager.resident_regions() {
            if only_tenant(claim.cid) && self.manager.discard_resident(claim.cid) {
                freed += 1;
            }
        }
        freed
    }

    /// Destination half of a migration split: restart this system — in a
    /// fleet, the one fresh build a migration makes — and adopt `tenant`
    /// from the source shard's cut state. Restores the *whole* shard image
    /// (same task indexing as the source, so the snapshot applies
    /// unchanged), then retires every other tenant's tasks as migrated — they keep
    /// running on the source remainder. The tenant's resident images are
    /// staged-copied during prepare: with `delta` on, each lands as a
    /// ghost the next activation revalidates header-only (the staged
    /// frames are priced into `replay_time`, like journal replay —
    /// background, never task-charged); with `delta` off the tenant pays
    /// a full re-download at next activation, exactly like a failover.
    pub fn migrate_in(
        &mut self,
        state: &CrashState,
        tenant: u32,
        delta: bool,
    ) -> Result<MigrateInReceipt, VfpgaError> {
        self.migrate_in_cut(Cut::from_durable(state)?, tenant, delta)
    }

    /// [`migrate_in`](Self::migrate_in) for a cut still in its process.
    #[doc(hidden)]
    pub fn migrate_in_cut(
        &mut self,
        cut: Cut,
        tenant: u32,
        delta: bool,
    ) -> Result<MigrateInReceipt, VfpgaError> {
        let _s = span::guard("migrate_in");
        let (torn, redo_window, resume_at, discarded) =
            self.adopt_onto_fresh_fabric(cut, "migrate_in")?;
        // The tenant's own claims are what the staged copy re-creates
        // here — remember their geometry for the implant.
        let uses = self.circuit_use(tenant);
        let staged: Vec<ResidentRegion> = discarded
            .into_iter()
            .filter(|claim| uses.get(claim.cid.0 as usize).is_some_and(|u| u.tenant))
            .collect();
        let migrated = staged.len() as u32;
        // Everyone but the migrating tenant continues on the source.
        self.retire_tasks_where(resume_at, resume_at, |s| s.tenant != tenant);
        if let Some(adm) = self.run.admission.as_mut() {
            adm.retain_tenants(|t| t == tenant);
        }
        self.run.queue.schedule_at(resume_at, Ev::Dispatch);
        // Counters restored from the image are the source's cumulative
        // totals; the fleet subtracts this baseline from the final report
        // so migrated work is counted exactly once. Captured before the
        // staged copy below, so its cost shows in the increment.
        let baseline = CounterBaseline {
            manager: self.manager.stats(),
            fault: self.run.fault,
            crash: self.run.crash,
            admission: self.run.admission.as_ref().map(|adm| adm.stats),
            delta: self.manager.delta_stats(),
        };
        let mut ghosts = 0u32;
        if delta {
            let timing = *self.manager.timing();
            let mut copy_cost = SimDuration::ZERO;
            for claim in staged {
                if self
                    .manager
                    .implant_ghost(claim.col0, claim.width, claim.cid)
                {
                    ghosts += 1;
                    copy_cost += redownload_cost(&timing, claim.width as usize);
                }
            }
            self.run.crash.replay_time += copy_cost;
        }
        Ok(MigrateInReceipt {
            adopted_tasks: self.run.unfinished as u32,
            migrated_claims: migrated,
            ghosts_implanted: ghosts,
            torn_undone: torn,
            redo_window,
            baseline,
        })
    }
}

/// Whether a migrating tenant's tasks, and any other tenant's, use a
/// circuit: one row of `System::circuit_use`'s table.
#[derive(Debug, Clone, Copy, Default)]
struct CircuitUse {
    tenant: bool,
    others: bool,
}

/// One tenant's planned move at one instant, as every phase of the
/// protocol and both devices' journals name it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Move {
    pub tenant: u32,
    pub from: u32,
    pub to: u32,
    pub at: SimTime,
}

/// Drives the fleet's migration schedule: the deterministic instant
/// stream, the per-attempt crash-window targeting, and one durable
/// [`MigrationLog`] per device (journal records survive the device's
/// host crashing — they are what replay resolves the windows from).
#[derive(Debug)]
pub(crate) struct MigrationEngine {
    plan: MigrationPlan,
    instants: Vec<SimTime>,
    ptr: usize,
    attempts: u32,
    logs: BTreeMap<u32, MigrationLog>,
}

impl MigrationEngine {
    /// Build the engine for one fleet run.
    pub fn new(plan: MigrationPlan) -> Self {
        MigrationEngine {
            plan,
            instants: plan.instants(),
            ptr: 0,
            attempts: 0,
            logs: BTreeMap::new(),
        }
    }

    /// The next unconsumed migration instant, if any remain.
    pub fn next_instant(&self) -> Option<SimTime> {
        self.instants.get(self.ptr).copied()
    }

    /// Consume the current instant (whether or not a migration was
    /// attempted at it) — the fleet loop's termination depends on this.
    pub fn consume_instant(&mut self) {
        self.ptr += 1;
    }

    /// Start the next migration attempt: the crash window the plan aims
    /// at it, if any.
    pub fn begin_attempt(&mut self) -> Option<MigrationCrashWindow> {
        let k = self.attempts;
        self.attempts += 1;
        self.plan.crash_window(k)
    }

    /// Journal a phase record on one device's migration log.
    pub fn journal_on(&mut self, device: u32, mv: Move, phase: MigrationPhase) {
        let log = self.logs.entry(device).or_default();
        log.record(mv.tenant, mv.from, mv.to, phase);
    }

    /// Journal the same phase on both sides of the move (the protocol's
    /// normal path: both logs agree on every surviving step).
    pub fn journal_both(&mut self, mv: Move, phase: MigrationPhase) {
        self.journal_on(mv.from, mv, phase);
        self.journal_on(mv.to, mv, phase);
    }

    /// Replay one device's migration log: what does each tenant's latest
    /// surviving record demand? Empty when the device never journaled.
    pub fn resolve_device(&self, device: u32) -> Vec<(MigrationRecord, MigrationResolution)> {
        self.logs
            .get(&device)
            .map(|l| l.resolve())
            .unwrap_or_default()
    }

    /// Does replaying `device`'s log demand `want` for `tenant`?
    pub fn replays_to(&self, device: u32, tenant: u32, want: MigrationResolution) -> bool {
        let demands = self.resolve_device(device);
        demands
            .iter()
            .any(|(r, res)| r.tenant == tenant && *res == want)
    }

    /// Drop fully resolved attempts from one device's log.
    pub fn truncate_device(&mut self, device: u32) {
        if let Some(l) = self.logs.get_mut(&device) {
            l.truncate_resolved();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rate: f64, max: u32) -> MigrationPlan {
        MigrationPlan {
            seed: 0xA11CE,
            rate_per_s: rate,
            max_migrations: max,
            delta_copy: true,
            crash: None,
        }
    }

    #[test]
    fn engine_instants_are_deterministic_and_bounded() {
        let a = MigrationEngine::new(plan(50.0, 3));
        let b = MigrationEngine::new(plan(50.0, 3));
        assert_eq!(a.instants, b.instants);
        assert!(a.instants.len() <= 3);
        assert!(a.instants.windows(2).all(|w| w[0] < w[1]));
        let none = MigrationEngine::new(MigrationPlan::none());
        assert_eq!(none.next_instant(), None);
    }

    #[test]
    fn engine_targets_the_requested_attempt_with_a_crash() {
        let mut p = plan(50.0, 4);
        p.crash = Some((2, MigrationCrashWindow::DestMidCopy));
        let mut e = MigrationEngine::new(p);
        assert_eq!(e.begin_attempt(), None);
        assert_eq!(e.begin_attempt(), None);
        assert_eq!(e.begin_attempt(), Some(MigrationCrashWindow::DestMidCopy));
        assert_eq!(e.begin_attempt(), None);
    }

    #[test]
    fn engine_journals_both_sides_and_resolves_per_device() {
        let mut e = MigrationEngine::new(plan(50.0, 1));
        let mv = Move {
            tenant: 7,
            from: 0,
            to: 1,
            at: SimTime::ZERO,
        };
        e.journal_both(mv, MigrationPhase::Intent);
        // Source crashed before Commit: both logs hold a bare intent.
        let src = e.resolve_device(0);
        let dst = e.resolve_device(1);
        assert_eq!(src.len(), 1);
        assert_eq!(src[0].1, MigrationResolution::RollBack);
        assert_eq!(dst[0].1, MigrationResolution::RollBack);
        e.journal_both(mv, MigrationPhase::Aborted);
        assert!(e
            .resolve_device(0)
            .iter()
            .all(|(_, r)| *r == MigrationResolution::Resolved));
        e.truncate_device(0);
        assert!(e.logs[&0].is_empty());
        assert!(e.resolve_device(9).is_empty(), "unjournaled device");
    }

    #[test]
    fn baseline_subtraction_is_saturating_and_skips_absent_sections() {
        let mut r = Report {
            admission: Some(AdmissionStats {
                admitted: 10,
                degraded_time: SimDuration::from_nanos(500),
                ..Default::default()
            }),
            delta: None,
            ..Default::default()
        };
        r.manager_stats.downloads = 7;
        r.manager_stats.config_time = SimDuration::from_nanos(100);
        r.crash.checkpoints = 3;
        let mut base = CounterBaseline {
            admission: Some(AdmissionStats {
                admitted: 4,
                degraded_time: SimDuration::from_nanos(200),
                ..Default::default()
            }),
            // A delta baseline against a report without a delta section
            // must be ignored, not crash.
            delta: Some(DeltaStats {
                delta_downloads: 9,
                ..Default::default()
            }),
            ..Default::default()
        };
        base.manager.downloads = 5;
        base.manager.config_time = SimDuration::from_nanos(40);
        base.crash.checkpoints = 8; // more than the report: saturate to 0
        base.subtract_from(&mut r);
        assert_eq!(r.manager_stats.downloads, 2);
        assert_eq!(r.manager_stats.config_time, SimDuration::from_nanos(60));
        assert_eq!(r.crash.checkpoints, 0);
        let a = r.admission.unwrap();
        assert_eq!(a.admitted, 6);
        assert_eq!(a.degraded_time, SimDuration::from_nanos(300));
        assert!(r.delta.is_none());
    }
}
