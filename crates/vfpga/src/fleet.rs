//! Fleet-level fault tolerance: multi-device sharding with failover.
//!
//! One [`System`] owns one device. A *fleet* owns several: tenants are
//! routed to per-device shards by a placement policy, and when a whole
//! device dies (crash or brownout from [`fsim::DeviceFaultPlan`])
//! every resident tenant fails over onto a surviving device through the
//! existing checkpoint + journal-replay machinery. Migration is priced
//! honestly by that machinery: the periodic checkpoint readback on the
//! (possibly lost) source already paid the capture, the destination pays
//! a fresh configuration download at each circuit's next activation, and
//! everything after the last durable checkpoint is re-executed.
//!
//! The fleet layer never invents costs of its own — it only sequences
//! per-shard [`System`] runs, cuts them at device-fault instants, and
//! restarts them elsewhere via [`System::fail_over_cut`]. A destination
//! search walks a bounded retry/backoff ladder when every device is
//! saturated; if the ladder is exhausted the shard either degrades to a
//! software-priced build (the builder decides what that costs, e12-style)
//! or — with degradation disabled — its unfinished tasks are counted in
//! the disjoint `lost_in_flight` slice. A recovered device rejoins the
//! pool and at most one shard per rejoin is rebalanced onto it through
//! the same (conservatively priced) checkpoint-cut migration path.

use crate::checkpoint::{CheckpointConfig, Cut};
use crate::counters::Counters;
use crate::error::VfpgaError;
use crate::manager::FpgaManager;
use crate::metrics::{Report, TaskMetrics};
use crate::migrate::{CounterBaseline, MigrationEngine, Move};
use crate::sched::Scheduler;
use crate::system::{FailoverReceipt, System};
use crate::task::TaskSpec;
use fpga::journal::{MigrationPhase, MigrationResolution};
use fsim::{
    span, DeviceFaultPlan, HistSet, LogHistogram, MigrationCrashWindow, MigrationPlan, SimDuration,
    SimTime, Trace, TraceEvent,
};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Identifies one physical device in a fleet. Single-device systems are
/// `DeviceId(0)` and never print the id.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub u32);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "device {}", self.0)
    }
}

/// How tenants are routed to devices, both at admission and when a
/// failover or rejoin needs a destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Tenant `i` lands on device `i mod N`; failover walks the devices
    /// in cyclic order from the failed one.
    RoundRobin,
    /// Each tenant (weighted by task count) lands on the device with the
    /// least assigned work; failover picks the least-occupied survivor.
    LeastLoaded,
    /// Tenants with a [`TaskSpec::with_affinity`] hint land on the hinted
    /// device; the rest fall back to least-loaded. Failover prefers the
    /// shard's home device when it is up, then least-loaded.
    Affinity,
}

impl PlacementPolicy {
    /// Short name for tables and export labels.
    pub fn name(&self) -> &'static str {
        match self {
            PlacementPolicy::RoundRobin => "rr",
            PlacementPolicy::LeastLoaded => "least-loaded",
            PlacementPolicy::Affinity => "affinity",
        }
    }
}

crate::counters::counter_table! {
    /// Fleet-level counters, disjoint from every per-system slice. A default
    /// (all-zero) value means the fleet machinery never acted.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FleetStats {
        /// Device-fault windows that opened during the run.
        pub device_crashes: u64,
        /// Device-fault windows that closed (device back up) during the run.
        pub rejoins: u64,
        /// Shards moved to a surviving device after a device fault.
        pub failovers: u64,
        /// Residency claims discarded by migrations — each is one circuit the
        /// destination must re-download at its next activation.
        pub migrated_claims: u64,
        /// Tasks abandoned because no destination had capacity and software
        /// degradation was disabled. Disjoint from failed/quarantined/etc.
        pub lost_in_flight: u64,
        /// Shards moved onto a rejoined device.
        pub rebalances: u64,
        /// Destination-search attempts that found every device saturated or
        /// down and had to back off.
        pub backoff_retries: u64,
        /// Shards that finished on the software-priced degradation path.
        pub software_fallbacks: u64,
        /// Total post-checkpoint work window re-executed by migrations.
        pub redo_time: SimDuration,
        /// Single tenants live-migrated between devices through the
        /// two-phase prepare/commit protocol (planned moves, not failovers).
        pub tenant_migrations: u64,
        /// Live migrations rolled back by journal replay: a crash struck
        /// before the commit, so the intent was undone and the tenant stayed
        /// on its source with its backlog intact.
        pub migration_aborts: u64,
        /// Commit-without-free windows completed by journal replay: the
        /// source-side free was redone idempotently.
        pub migration_redone_frees: u64,
    }
}

/// Configuration of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Number of devices (at least 1).
    pub devices: u32,
    /// Tenant routing policy.
    pub placement: PlacementPolicy,
    /// Checkpoint cadence for every shard. Mandatory (with the journal
    /// on) whenever device faults are enabled — failover has nothing to
    /// restore from otherwise.
    pub ckpt: Option<CheckpointConfig>,
    /// Whole-device fault plan (zero-rate draws nothing).
    pub faults: DeviceFaultPlan,
    /// How many shards one device may host (at least 1). Failover past
    /// this bound must look elsewhere or back off.
    pub max_shards_per_device: u32,
    /// Destination-search retries after the immediate attempt fails.
    pub max_failover_retries: u32,
    /// Wait between destination-search attempts.
    pub retry_backoff: SimDuration,
    /// When the retry ladder is exhausted, finish the shard on a
    /// software-priced build instead of abandoning its tasks.
    pub software_fallback: bool,
    /// Planned live-migration schedule (zero-rate never migrates). Like
    /// device faults, a non-zero plan needs checkpoints with the journal:
    /// the cut restores through the checkpoint path and the two-phase
    /// protocol journals its intent/commit records for crash replay.
    pub migrations: MigrationPlan,
}

impl FleetConfig {
    /// A fleet of `devices` devices with conservative defaults: round
    /// robin placement, two shards per device, three retries at 5 ms,
    /// software fallback on, no checkpoints, no faults.
    pub fn new(devices: u32) -> Self {
        FleetConfig {
            devices,
            placement: PlacementPolicy::RoundRobin,
            ckpt: None,
            faults: DeviceFaultPlan::none(),
            max_shards_per_device: 2,
            max_failover_retries: 3,
            retry_backoff: SimDuration::from_millis(5),
            software_fallback: true,
            migrations: MigrationPlan::none(),
        }
    }

    /// With a planned live-migration schedule.
    pub fn with_migrations(mut self, plan: MigrationPlan) -> Self {
        self.migrations = plan;
        self
    }

    /// With a placement policy.
    pub fn with_placement(mut self, p: PlacementPolicy) -> Self {
        self.placement = p;
        self
    }

    /// With per-shard checkpoints.
    pub fn with_checkpoints(mut self, cfg: CheckpointConfig) -> Self {
        self.ckpt = Some(cfg);
        self
    }

    /// With a device-fault plan.
    pub fn with_device_faults(mut self, plan: DeviceFaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// With a hosting capacity per device.
    pub fn with_max_shards_per_device(mut self, n: u32) -> Self {
        self.max_shards_per_device = n;
        self
    }

    /// With a failover retry ladder: `retries` attempts after the first,
    /// spaced `backoff` apart.
    pub fn with_failover_retry(mut self, retries: u32, backoff: SimDuration) -> Self {
        self.max_failover_retries = retries;
        self.retry_backoff = backoff;
        self
    }

    /// Disable the software degradation path: an unplaceable shard's
    /// unfinished tasks are counted lost instead.
    pub fn without_software_fallback(mut self) -> Self {
        self.software_fallback = false;
        self
    }

    fn validate(&self) -> Result<(), VfpgaError> {
        let bad = |reason: &str| {
            Err(VfpgaError::BadFleetConfig {
                reason: reason.into(),
            })
        };
        if self.devices == 0 {
            return bad("a fleet needs at least one device");
        }
        if self.max_shards_per_device == 0 {
            return bad("max_shards_per_device must be at least 1");
        }
        if !self.faults.is_zero() {
            match self.ckpt {
                None => return bad("device faults need checkpoints to fail over from"),
                Some(c) if !c.journal => {
                    return bad("device faults need the journal for consistent failover")
                }
                Some(_) => {}
            }
        }
        if !self.migrations.is_zero() {
            match self.ckpt {
                None => return bad("live migration needs checkpoints to cut tenants from"),
                Some(c) if !c.journal => {
                    return bad("live migration needs the journal for crash-safe two-phase commit")
                }
                Some(_) => {}
            }
        }
        Ok(())
    }
}

/// What the shard builder sees: which slice of the workload it owns and
/// where it is first instantiated. The builder returns a fully configured
/// [`System`] (manager, scheduler, faults, admission) for these specs;
/// the fleet attaches the device id and checkpoint config itself. It runs
/// once a shard: a failover, a rebalance or a migration's source restarts
/// the shard's system on its new host, as if rebuilt there.
///
/// `software` is set when the fleet fell back to the degradation path —
/// the builder should return a software-priced system (e12-style CPU
/// emulation costs), keeping admission presence identical to its
/// hardware builds so checkpoint images stay portable between the two.
#[derive(Debug)]
pub struct ShardCtx<'a> {
    /// Shard index within the fleet.
    pub shard: u32,
    /// The shard's first host: the device this build starts on.
    pub device: DeviceId,
    /// Device the shard was originally placed on.
    pub home: DeviceId,
    /// Tenants routed to this shard.
    pub tenants: &'a [u32],
    /// The shard's tasks, in original workload order. A live migration's
    /// destination shard is built over its source's table — the same
    /// slice, shared rather than copied — and retires every other
    /// tenant's tasks once it adopts the cut.
    pub specs: &'a [TaskSpec],
    /// True when building the software degradation path.
    pub software: bool,
}

/// One shard's fate.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Shard index.
    pub shard: u32,
    /// Original placement.
    pub home: DeviceId,
    /// Device the shard finished on; `None` means it finished on the
    /// software path (or was abandoned after its last device died).
    pub final_host: Option<DeviceId>,
    /// Tenants the shard finished with (live migration removes a tenant
    /// from its source shard and appends a destination shard for it).
    pub tenants: Vec<u32>,
    /// Fault-driven migrations this shard survived. Same width as the
    /// fleet total so per-shard sums never truncate against it.
    pub failovers: u64,
    /// Planned migrations onto rejoined devices (same width as the fleet
    /// total).
    pub rebalances: u64,
    /// Tasks counted `lost_in_flight`.
    pub lost: u32,
    /// The shard's own report.
    pub report: Report,
}

/// Everything a fleet run produces.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-shard outcomes, shard order.
    pub shards: Vec<ShardOutcome>,
    /// The fleet-wide merged report: tasks in original workload order,
    /// counter slices summed, `fleet` stats attached.
    pub merged: Report,
    /// Fleet-level counters (same value as `merged.fleet`).
    pub stats: FleetStats,
    /// Fleet-level timeline: device crashes/rejoins, failovers,
    /// rebalances, losses — time-ordered.
    pub trace: Trace,
    /// Migration latency (redo window + backoff wait) per migration.
    pub migration_lat: LogHistogram,
}

/// Wrap an error with the device it happened on (idempotent).
fn on_device(device: u32, e: VfpgaError) -> VfpgaError {
    match e {
        e @ VfpgaError::DeviceFailure { .. } => e,
        e => VfpgaError::DeviceFailure {
            device: DeviceId(device),
            source: Box::new(e),
        },
    }
}

/// True when `at` falls outside every `[down, up)` outage window.
fn device_up(windows: &[(SimTime, SimTime)], at: SimTime) -> bool {
    windows.iter().all(|&(down, up)| at < down || at >= up)
}

/// Tenant → device assignment, in tenant first-appearance order.
fn place_tenants(cfg: &FleetConfig, specs: &[TaskSpec]) -> Vec<(u32, u32)> {
    // (tenant, task count, affinity hint) in first-appearance order.
    let mut tenants: Vec<(u32, u64, Option<u32>)> = Vec::new();
    for s in specs {
        match tenants.iter_mut().find(|(t, _, _)| *t == s.tenant) {
            Some((_, n, hint)) => {
                *n += 1;
                if hint.is_none() {
                    *hint = s.affinity;
                }
            }
            None => tenants.push((s.tenant, 1, s.affinity)),
        }
    }
    let n = cfg.devices;
    let mut load = vec![0u64; n as usize];
    let least = |load: &[u64]| -> u32 {
        let mut best = 0u32;
        for d in 1..n {
            if load[d as usize] < load[best as usize] {
                best = d;
            }
        }
        best
    };
    tenants
        .iter()
        .enumerate()
        .map(|(i, &(tenant, weight, hint))| {
            let d = match cfg.placement {
                PlacementPolicy::RoundRobin => i as u32 % n,
                PlacementPolicy::LeastLoaded => least(&load),
                PlacementPolicy::Affinity => match hint {
                    Some(h) => h % n,
                    None => least(&load),
                },
            };
            load[d as usize] += weight;
            (tenant, d)
        })
        .collect()
}

/// How a finished shard ended.
struct Done {
    report: Report,
    /// `None`: finished on the software path, or abandoned.
    final_host: Option<u32>,
    /// Tasks counted `lost_in_flight`.
    lost: u32,
}

/// Internal per-shard run state.
struct ShardRun<M: FpgaManager, S: Scheduler> {
    shard: u32,
    home: u32,
    host: u32,
    tenants: Vec<u32>,
    /// The shard's tasks; a migration's destination shares its source's.
    specs: Arc<[TaskSpec]>,
    /// Original workload index of each shard-local task, shared the same
    /// way.
    orig: Arc<[usize]>,
    /// Instant of the shard's last restore; device-fault windows at or
    /// before it are already accounted for.
    watermark: SimTime,
    failovers: u64,
    rebalances: u64,
    /// A live migration touched this shard (as source or destination):
    /// its report must be filtered to the tenants it finished with.
    mig_touched: bool,
    /// Source-cumulative counter baseline a migration destination must
    /// subtract from its final report before the fleet merge.
    mig_baseline: Option<CounterBaseline>,
    /// The shard's system between segments: built for a migration's
    /// destination, else restarted on the host it hands off to. `None`
    /// until first needed.
    pending: Option<System<M, S>>,
    /// Set when the shard is finished.
    done: Option<Done>,
}

impl<M: FpgaManager, S: Scheduler> ShardRun<M, S> {
    /// A shard of `tenants` over `specs` (workload indices `orig`), placed
    /// on (and hosted by) `home`.
    fn new(home: u32, tenants: Vec<u32>, specs: Arc<[TaskSpec]>, orig: Arc<[usize]>) -> Self {
        ShardRun {
            shard: 0,
            home,
            host: home,
            tenants,
            specs,
            orig,
            watermark: SimTime::ZERO,
            failovers: 0,
            rebalances: 0,
            mig_touched: false,
            mig_baseline: None,
            pending: None,
            done: None,
        }
    }

    fn live(&self) -> bool {
        self.done.is_none()
    }

    /// Continue from `at` on `host` with the restarted `sys`.
    fn resume_on(&mut self, host: u32, at: SimTime, sys: System<M, S>) {
        self.host = host;
        self.watermark = at;
        self.pending = Some(sys);
    }

    /// The finished shard's outcome and the original workload index of
    /// each row it reports. A migration-touched shard ran with the full
    /// spec list for index stability; only the rows of the tenants it
    /// finished with are its to report — the other side of each split
    /// reports the rest.
    fn into_outcome(self) -> (ShardOutcome, Vec<usize>) {
        let Done {
            mut report,
            final_host,
            lost,
        } = self.done.expect("every shard finished");
        if let Some(base) = &self.mig_baseline {
            base.subtract_from(&mut report);
        }
        let mut orig = self.orig.to_vec();
        if self.mig_touched {
            let keep: Vec<bool> = self
                .specs
                .iter()
                .map(|s| self.tenants.contains(&s.tenant))
                .collect();
            let mut kept = keep.iter();
            report.tasks.retain(|_| kept.next() == Some(&true));
            let mut kept = keep.iter();
            orig.retain(|_| kept.next() == Some(&true));
            report.makespan = report
                .tasks
                .iter()
                .map(|m| m.completion - SimTime::ZERO)
                .max()
                .unwrap_or(SimDuration::ZERO);
        }
        let outcome = ShardOutcome {
            shard: self.shard,
            home: DeviceId(self.home),
            final_host: final_host.map(DeviceId),
            tenants: self.tenants,
            failovers: self.failovers,
            rebalances: self.rebalances,
            lost,
            report,
        };
        (outcome, orig)
    }
}

/// A shard's system cut short, and the cut: what a hand-off restarts.
type Handoff<M, S> = (System<M, S>, Cut);

/// What interrupts the fleet next. Declaration order is the tie order at
/// one instant: device crashes (lowest shard index first), then rejoins,
/// then the planned migration — `(SimTime, FleetEv)` is the sort key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FleetEv {
    /// The host of shard `.0` (an index into `Fleet::shards`) goes down.
    DeviceDown(usize),
    /// Device `.0` is back up.
    Rejoin(u32),
    /// A planned live-migration instant.
    Migrate,
}

/// A fleet mid-run: every shard, where it is hosted, and what is still to
/// happen to the devices. [`run_fleet`] steps it until nothing can
/// interrupt a live shard any more, then drains it into the report.
struct Fleet<'a, M: FpgaManager, S: Scheduler, F> {
    cfg: &'a FleetConfig,
    build: F,
    shards: Vec<ShardRun<M, S>>,
    /// Live shards per device.
    hosted: Vec<u32>,
    /// Outage windows `[down, up)` per device.
    windows: Vec<Vec<(SimTime, SimTime)>>,
    /// Rejoins not yet consumed, earliest first.
    rejoins: VecDeque<(SimTime, FleetEv)>,
    engine: MigrationEngine,
    stats: FleetStats,
    migration_lat: LogHistogram,
    events: Vec<(SimTime, TraceEvent)>,
}

impl<'a, M, S, F> Fleet<'a, M, S, F>
where
    M: FpgaManager,
    S: Scheduler,
    F: FnMut(&ShardCtx<'_>) -> Result<System<M, S>, VfpgaError>,
{
    /// Place `specs`' tenants: one shard per device that received at
    /// least one, device order; tasks keep their original workload order
    /// within the shard.
    fn new(cfg: &'a FleetConfig, specs: Vec<TaskSpec>, build: F) -> Self {
        let device_of: BTreeMap<u32, u32> = place_tenants(cfg, &specs).into_iter().collect();
        // (tenants, specs, original indices) per device.
        let mut tables: Vec<(Vec<u32>, Vec<TaskSpec>, Vec<usize>)> =
            (0..cfg.devices).map(|_| Default::default()).collect();
        for (i, s) in specs.into_iter().enumerate() {
            let (tenants, specs, orig) = &mut tables[device_of[&s.tenant] as usize];
            if !tenants.contains(&s.tenant) {
                tenants.push(s.tenant);
            }
            specs.push(s);
            orig.push(i);
        }
        let mut shards: Vec<ShardRun<M, S>> = Vec::new();
        let mut hosted = vec![0u32; cfg.devices as usize];
        for (home, (tenants, specs, orig)) in tables.into_iter().enumerate() {
            if specs.is_empty() {
                continue;
            }
            hosted[home] += 1;
            shards.push(ShardRun {
                shard: shards.len() as u32,
                ..ShardRun::new(home as u32, tenants, specs.into(), orig.into())
            });
        }

        let windows: Vec<Vec<(SimTime, SimTime)>> =
            (0..cfg.devices).map(|d| cfg.faults.windows(d)).collect();
        let mut rejoins: Vec<(SimTime, FleetEv)> = windows
            .iter()
            .enumerate()
            .flat_map(|(d, ws)| {
                ws.iter()
                    .map(move |&(_, up)| (up, FleetEv::Rejoin(d as u32)))
            })
            .collect();
        rejoins.sort();

        Fleet {
            cfg,
            build,
            shards,
            hosted,
            windows,
            rejoins: rejoins.into(),
            engine: MigrationEngine::new(cfg.migrations),
            stats: FleetStats::default(),
            migration_lat: LogHistogram::new(),
            events: Vec::new(),
        }
    }

    /// The earliest pending interrupt: each live shard's next host outage
    /// past its watermark, the next rejoin, the next migration instant.
    fn next_event(&self) -> Option<(SimTime, FleetEv)> {
        let live = self.shards.iter().enumerate().filter(|(_, sr)| sr.live());
        let downs = live.filter_map(|(si, sr)| {
            let ws = &self.windows[sr.host as usize];
            let &(down, _) = ws.iter().find(|&&(down, _)| down > sr.watermark)?;
            Some((down, FleetEv::DeviceDown(si)))
        });
        let rejoin = self.rejoins.front().copied();
        let migrate = self.engine.next_instant().map(|t| (t, FleetEv::Migrate));
        downs.chain(rejoin).chain(migrate).min()
    }

    /// Handle the earliest interrupt; `false` once every shard is done or
    /// nothing can interrupt one any more. Each step either finishes a
    /// shard, strictly advances a shard's watermark, or consumes a rejoin
    /// or migration instant — and all three streams are finite, so
    /// stepping terminates.
    fn step(&mut self) -> Result<bool, VfpgaError> {
        if !self.shards.iter().any(ShardRun::live) {
            return Ok(false);
        }
        let Some((t, ev)) = self.next_event() else {
            return Ok(false);
        };
        match ev {
            FleetEv::DeviceDown(si) => self.on_device_down(si, t)?,
            FleetEv::Rejoin(d) => self.on_rejoin(d, t)?,
            FleetEv::Migrate => self.on_migrate(t)?,
        }
        if cfg!(debug_assertions) {
            self.check_invariants();
        }
        Ok(true)
    }

    /// What must hold between any two steps. Debug builds check it after
    /// every one, so Tier-1 and every in-process experiment run do.
    fn check_invariants(&self) {
        let mut recount = vec![0u32; self.hosted.len()];
        for sr in self.shards.iter().filter(|s| s.live()) {
            recount[sr.host as usize] += 1;
            assert!(
                device_up(&self.windows[sr.host as usize], sr.watermark),
                "shard {} resumed at {:?} on device {}, which was down",
                sr.shard,
                sr.watermark,
                sr.host
            );
        }
        assert_eq!(self.hosted, recount, "hosted is the live shards a device");
        let cap = self.cfg.max_shards_per_device;
        assert!(
            self.hosted.iter().all(|&n| n <= cap),
            "a device hosts more than {cap} shards: {:?}",
            self.hosted
        );
        let mut tenants: Vec<u32> = self
            .shards
            .iter()
            .flat_map(|s| s.tenants.iter().copied())
            .collect();
        tenants.sort_unstable();
        let placed = tenants.len();
        tenants.dedup();
        assert_eq!(placed, tenants.len(), "a tenant is on two shards");
        let specs = self.shards.iter().flat_map(|s| s.specs.iter());
        for tenant in specs.map(|s| s.tenant) {
            assert!(
                tenants.binary_search(&tenant).is_ok(),
                "tenant {tenant} is on no shard"
            );
        }
        // The shard counters are u64 like the totals: a u32 per-shard sum
        // could truncate against them.
        let sum = |f: fn(&ShardRun<M, S>) -> u64| self.shards.iter().map(f).sum::<u64>();
        assert_eq!(
            self.stats.failovers,
            sum(|s| s.failovers),
            "failovers = Σ shards"
        );
        assert_eq!(
            self.stats.rebalances,
            sum(|s| s.rebalances),
            "rebalances = Σ shards"
        );
    }

    /// Build shard `si`'s system on `device`: builder → device id →
    /// checkpoints.
    fn build_on(
        &mut self,
        si: usize,
        device: u32,
        software: bool,
    ) -> Result<System<M, S>, VfpgaError> {
        let sr = &self.shards[si];
        let ctx = ShardCtx {
            shard: sr.shard,
            device: DeviceId(device),
            home: DeviceId(sr.home),
            tenants: &sr.tenants,
            specs: &sr.specs,
            software,
        };
        let mut sys = (self.build)(&ctx)
            .map_err(|e| on_device(device, e))?
            .with_device_id(DeviceId(device));
        if let Some(c) = self.cfg.ckpt {
            sys = sys.with_checkpoints(c).map_err(|e| on_device(device, e))?;
        }
        Ok(sys)
    }

    /// Run shard `si` — on the system a hand-off left waiting, else a
    /// fresh build on its host — to completion or to a cut at `until`.
    /// `None` means the shard finished first (and is marked so); a cut
    /// comes back with the system it cut, for the hand-off to restart. The
    /// cut is planned — a device fault, a rebalance, a migration — so it
    /// comes back off the host-crash count.
    fn run_shard(
        &mut self,
        si: usize,
        until: Option<SimTime>,
    ) -> Result<Option<Handoff<M, S>>, VfpgaError> {
        let _s = span::guard("run_shard");
        let host = self.shards[si].host;
        let mut sys = match self.shards[si].pending.take() {
            Some(sys) => sys,
            None => self.build_on(si, host, false)?,
        };
        match sys.run_to_cut(until).map_err(|e| on_device(host, e))? {
            None => {
                let (report, _) = sys.finish().map_err(|e| on_device(host, e))?;
                self.hosted[host as usize] -= 1;
                self.shards[si].done = Some(Done {
                    report,
                    final_host: Some(host),
                    lost: 0,
                });
                Ok(None)
            }
            Some(mut cut) => {
                cut.stats.crashes -= 1;
                Ok(Some((sys, cut)))
            }
        }
    }

    /// Restart `sys` on `device` from `cut` — the shard's own system, or a
    /// software build — and book the hand-off: the claims it discarded,
    /// the window it re-executes, and its latency — that window plus the
    /// `wait` spent backing off first.
    fn adopt(
        &mut self,
        sys: System<M, S>,
        device: u32,
        cut: Cut,
        wait: SimDuration,
    ) -> Result<(System<M, S>, FailoverReceipt), VfpgaError> {
        let mut sys = sys.with_device_id(DeviceId(device));
        let receipt = sys.fail_over_cut(cut).map_err(|e| on_device(device, e))?;
        self.stats.migrated_claims += u64::from(receipt.migrated_claims);
        self.stats.redo_time += receipt.redo_window;
        self.migration_lat
            .record((receipt.redo_window + wait).as_nanos());
        Ok((sys, receipt))
    }

    /// A failover or migration destination for shard `si`: a device that
    /// is up at `at` and has hosting capacity (`elsewhere`: and is not its
    /// host), policy-flavored like placement and deterministic — cyclic
    /// from the host, least-occupied, or home first.
    fn destination(&self, si: usize, at: SimTime, elsewhere: bool) -> Option<u32> {
        let (sr, n, hosted) = (&self.shards[si], self.cfg.devices, &self.hosted);
        let fits = |&d: &u32| {
            !(elsewhere && d == sr.host)
                && hosted[d as usize] < self.cfg.max_shards_per_device
                && device_up(&self.windows[d as usize], at)
        };
        let least = || (0..n).filter(fits).min_by_key(|&d| (hosted[d as usize], d));
        match self.cfg.placement {
            PlacementPolicy::RoundRobin => (1..=n).map(|o| (sr.host + o) % n).find(fits),
            PlacementPolicy::LeastLoaded => least(),
            PlacementPolicy::Affinity => Some(sr.home).filter(fits).or_else(least),
        }
    }

    /// Device `d` is back at `t`. Rebalance at most one shard onto it:
    /// prefer a shard coming home, else relieve the most crowded device;
    /// never move a shard restored at or after `t`.
    fn on_rejoin(&mut self, d: u32, t: SimTime) -> Result<(), VfpgaError> {
        self.rejoins.pop_front();
        let here = self.hosted[d as usize];
        if here >= self.cfg.max_shards_per_device {
            return Ok(());
        }
        let hosted = &self.hosted;
        let movable = |s: &ShardRun<M, S>| s.live() && s.host != d && s.watermark < t;
        let victim = self
            .shards
            .iter()
            .position(|s| movable(s) && s.home == d)
            .or_else(|| {
                self.shards
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| movable(s) && hosted[s.host as usize] > here + 1)
                    .max_by_key(|(si, s)| (hosted[s.host as usize], std::cmp::Reverse(*si)))
                    .map(|(si, _)| si)
            });
        let Some(si) = victim else { return Ok(()) };
        let from = self.shards[si].host;
        // Cut at the rejoin instant and restart on the rejoined device.
        let Some((sys, cut)) = self.run_shard(si, Some(t))? else {
            return Ok(());
        };
        self.hosted[from as usize] -= 1;
        self.hosted[d as usize] += 1;
        let (sys, _) = self.adopt(sys, d, cut, SimDuration::ZERO)?;
        self.stats.rebalances += 1;
        self.events.push((
            t,
            TraceEvent::FleetRebalance {
                shard: self.shards[si].shard,
                from_device: from,
                to_device: d,
            },
        ));
        self.shards[si].rebalances += 1;
        self.shards[si].resume_on(d, t, sys);
        Ok(())
    }

    /// The host of shard `si` dies at `t`: fail the shard over, degrade it
    /// to software, or lose what its last checkpoint had not finished.
    fn on_device_down(&mut self, si: usize, t: SimTime) -> Result<(), VfpgaError> {
        let from = self.shards[si].host;
        let Some((mut sys, cut)) = self.run_shard(si, Some(t))? else {
            return Ok(());
        };
        self.hosted[from as usize] -= 1;
        // Walk the retry ladder for a destination that is up and has
        // capacity at the attempt instant.
        let backoff = self.cfg.retry_backoff;
        let mut dest: Option<(u32, SimDuration)> = None;
        for k in 0..=self.cfg.max_failover_retries {
            let wait = backoff * u64::from(k);
            if let Some(d) = self.destination(si, t + wait, false) {
                dest = Some((d, wait));
                break;
            }
            self.stats.backoff_retries += 1;
        }
        let (report, lost) = match dest {
            Some((d, wait)) => {
                self.hosted[d as usize] += 1;
                let (sys, receipt) = self.adopt(sys, d, cut, wait)?;
                self.stats.failovers += 1;
                self.events.push((
                    t + wait,
                    TraceEvent::Failover {
                        from_device: from,
                        to_device: d,
                        tasks: receipt.live_tasks,
                        redo: receipt.redo_window,
                    },
                ));
                self.shards[si].failovers += 1;
                self.shards[si].resume_on(d, t + wait, sys);
                return Ok(());
            }
            None if self.cfg.software_fallback => {
                // No device has room: finish the shard on the
                // software-priced path, a build of its own (its programs
                // differ). It cannot crash again.
                let wait = backoff * u64::from(self.cfg.max_failover_retries);
                let software = self.build_on(si, from, true)?;
                let (sys, receipt) = self.adopt(software, from, cut, wait)?;
                self.stats.software_fallbacks += 1;
                self.events.push((
                    t,
                    TraceEvent::SoftwareFailover {
                        from_device: from,
                        tasks: receipt.live_tasks,
                    },
                ));
                (sys.run().map_err(|e| on_device(from, e))?, 0)
            }
            None => {
                // No destination, no fallback: everything the last
                // durable checkpoint had not captured as finished is lost
                // in flight. Nothing is re-executed, so nothing is booked.
                sys.fail_over_cut(cut).map_err(|e| on_device(from, e))?;
                let report = sys.abandon_lost(t);
                let lost = report.tasks.iter().filter(|m| m.lost_in_flight).count() as u32;
                self.stats.lost_in_flight += u64::from(lost);
                self.events.push((
                    t,
                    TraceEvent::FleetLost {
                        device: from,
                        tasks: lost,
                    },
                ));
                (report, lost)
            }
        };
        self.shards[si].done = Some(Done {
            report,
            final_host: None,
            lost,
        });
        Ok(())
    }

    /// One planned live migration at instant `t`: pick the most crowded live
    /// shard, its lowest-id tenant with live work, and a destination device;
    /// then run the two-phase protocol — prepare (cut + journal intent on
    /// both sides), commit (adopt on the destination, flip placement,
    /// journal), free (release source residency, journal). A crash window
    /// targeting this attempt dies at the scripted step instead, and journal
    /// replay resolves what survives: intent-without-commit rolls the tenant
    /// back onto the source, commit-without-free redoes the free
    /// idempotently.
    fn on_migrate(&mut self, t: SimTime) -> Result<(), VfpgaError> {
        use MigrationCrashWindow::{DestMidCopy, SourceMidPrepare};
        self.engine.consume_instant();
        // Victim shard: the live shard carrying the most tenants (ties to
        // the lowest index), host up at `t`, not already cut at or past it.
        let victim = self
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                s.live() && s.watermark < t && device_up(&self.windows[s.host as usize], t)
            })
            .max_by_key(|(si, s)| (s.tenants.len(), std::cmp::Reverse(*si)))
            .map(|(si, _)| si);
        let Some(si) = victim else { return Ok(()) };
        let from = self.shards[si].host;
        // Destination: a different device with room for the tenant's new
        // shard. No destination, or a shard that finishes before the
        // instant: nothing to migrate.
        let Some(to) = self.destination(si, t, true) else {
            return Ok(());
        };
        let Some((mut rem, mut cut)) = self.run_shard(si, Some(t))? else {
            return Ok(());
        };
        let window = self.engine.begin_attempt();
        // In the two genuinely-fatal windows a host dies mid-protocol and
        // the crash count stands; a clean cut (and the commit-without-free
        // window, where only the final free is lost) is a planned migration.
        if matches!(window, Some(SourceMidPrepare | DestMidCopy)) {
            cut.stats.crashes += 1;
        }
        // The remainder continues on the source either way: the cut system,
        // restarted in place. It holds the shard's FULL spec list — identical
        // task indexing — so the cut state restores unchanged; the migrated
        // tenant is then subtracted. The destination, if the protocol gets
        // that far, adopts the same cut.
        rem.restore_cut(cut.clone())
            .map_err(|e| on_device(from, e))?;
        let tenants = self.shards[si].tenants.iter().copied();
        let tenant = tenants
            .filter(|&v| rem.live_tasks_of(v) > 0)
            .min()
            .expect("a cut shard has live work for some tenant");
        let mv = Move {
            tenant,
            from,
            to,
            at: t,
        };
        match window {
            Some(w @ (SourceMidPrepare | DestMidCopy)) => {
                self.abort_migration(mv, w);
                self.shards[si].resume_on(from, t, rem);
                Ok(())
            }
            other => self.commit_migration(si, mv, cut, rem, other.is_some()),
        }
    }

    /// A host died before the commit. Mid-prepare it was the source's, and
    /// only the source had journaled its intent; mid staged copy it was
    /// the destination's, both sides had, and the destination never held
    /// anything durable. Replay resolves every bare intent to a rollback:
    /// the tenant stays on the source, backlog intact.
    fn abort_migration(&mut self, mv: Move, window: MigrationCrashWindow) {
        let journaled: &[u32] = match window {
            MigrationCrashWindow::SourceMidPrepare => &[mv.from],
            _ => &[mv.from, mv.to],
        };
        for &dev in journaled {
            self.engine.journal_on(dev, mv, MigrationPhase::Intent);
            debug_assert!(
                self.engine
                    .replays_to(dev, mv.tenant, MigrationResolution::RollBack),
                "intent without commit must roll back"
            );
            self.engine.journal_on(dev, mv, MigrationPhase::Aborted);
            self.engine.truncate_device(dev);
        }
        self.stats.migration_aborts += 1;
        self.events.push((
            mv.at,
            TraceEvent::MigrationAbort {
                tenant: mv.tenant,
                from_device: mv.from,
                to_device: mv.to,
                reason: window.name(),
            },
        ));
    }

    /// Commit path — clean, or (`redo_free`) the crash strikes between the
    /// commit and the source-side free. A new single-tenant shard on the
    /// destination adopts `cut`; `rem`, the source restored from the same
    /// cut, drops the tenant and carries shard `si` on.
    fn commit_migration(
        &mut self,
        si: usize,
        mv: Move,
        cut: Cut,
        mut rem: System<M, S>,
        redo_free: bool,
    ) -> Result<(), VfpgaError> {
        let (tenant, from, to, at) = (mv.tenant, mv.from, mv.to, mv.at);
        let resume = cut.resume_at();
        self.engine.journal_both(mv, MigrationPhase::Intent);
        self.hosted[to as usize] += 1;
        let di = self.shards.len();
        let src = &self.shards[si];
        let (specs, orig) = (Arc::clone(&src.specs), Arc::clone(&src.orig));
        self.shards.push(ShardRun {
            shard: di as u32,
            watermark: at,
            mig_touched: true,
            ..ShardRun::new(to, vec![tenant], specs, orig)
        });
        let mut dst = self.build_on(di, to, false)?;
        let receipt = dst
            .migrate_in_cut(cut, tenant, self.cfg.migrations.delta_copy)
            .map_err(|e| on_device(to, e))?;
        self.engine.journal_both(mv, MigrationPhase::Commit);
        // Source side: drop the tenant. The free rides along unless
        // the crash window ate it — then journal replay finds the
        // commit-without-free and redoes the free idempotently.
        let manifest = rem.extract_tenant(tenant, at, resume, !redo_free);
        let freed = if redo_free {
            debug_assert!(
                self.engine
                    .replays_to(from, tenant, MigrationResolution::RedoFree),
                "commit without free must redo the free"
            );
            let freed = rem.free_migrated(tenant);
            debug_assert_eq!(
                rem.free_migrated(tenant),
                0,
                "redoing the free is idempotent"
            );
            self.stats.migration_redone_frees += 1;
            freed
        } else {
            manifest.freed_claims
        };
        self.engine.journal_both(mv, MigrationPhase::Freed);
        self.engine.truncate_device(from);
        self.engine.truncate_device(to);
        self.stats.tenant_migrations += 1;
        self.stats.migrated_claims += u64::from(receipt.migrated_claims);
        self.stats.redo_time += receipt.redo_window;
        self.migration_lat.record(receipt.redo_window.as_nanos());
        self.events.extend([
            (
                at,
                TraceEvent::MigrationPrepare {
                    tenant,
                    from_device: from,
                    to_device: to,
                    tasks: receipt.adopted_tasks,
                },
            ),
            (
                at,
                TraceEvent::MigrationCommit {
                    tenant,
                    from_device: from,
                    to_device: to,
                    redo: receipt.redo_window,
                },
            ),
            (
                at,
                TraceEvent::MigrationFreed {
                    tenant,
                    device: from,
                    claims: freed,
                    redone: redo_free,
                },
            ),
        ]);
        self.shards[si].tenants.retain(|&x| x != tenant);
        self.shards[si].mig_touched = true;
        self.shards[si].resume_on(from, at, rem);
        self.shards[di].mig_baseline = Some(receipt.baseline);
        self.shards[di].pending = Some(dst);
        Ok(())
    }

    /// Drain — no device-fault window can interrupt a surviving shard any
    /// more, so each runs to completion in shard order — then assemble
    /// the outcomes, book the device windows against the merged horizon,
    /// and merge.
    fn into_report(mut self, total_tasks: usize) -> Result<FleetReport, VfpgaError> {
        for si in 0..self.shards.len() {
            if self.shards[si].live() {
                let handoff = self.run_shard(si, None)?;
                debug_assert!(handoff.is_none(), "a run with no cut scheduled completes");
            }
        }
        let Fleet {
            shards,
            windows,
            mut stats,
            mut events,
            migration_lat,
            ..
        } = self;
        let (outcomes, origs): (Vec<_>, Vec<_>) =
            shards.into_iter().map(ShardRun::into_outcome).unzip();

        // Windows that open (close) after every shard finished never
        // happened as far as the run is concerned.
        let makespan = outcomes
            .iter()
            .map(|o| o.report.makespan)
            .max()
            .unwrap_or(SimDuration::ZERO);
        let horizon = SimTime::ZERO + makespan;
        for (d, ws) in windows.iter().enumerate() {
            for &(down, up) in ws {
                if down <= horizon {
                    stats.device_crashes += 1;
                    events.push((
                        down,
                        TraceEvent::DeviceCrash {
                            device: d as u32,
                            outage: up - down,
                        },
                    ));
                }
                if up <= horizon {
                    stats.rejoins += 1;
                    events.push((up, TraceEvent::DeviceRejoin { device: d as u32 }));
                }
            }
        }
        events.sort_by_key(|(at, e)| (*at, event_rank(e)));

        let merged = merge_reports(&outcomes, &origs, total_tasks, stats);
        debug_assert_eq!(merged.tasks.len(), total_tasks, "task conservation");

        let mut trace = Trace::enabled();
        for (at, e) in events {
            trace.record(at, e);
        }
        Ok(FleetReport {
            shards: outcomes,
            merged,
            stats,
            trace,
            migration_lat,
        })
    }
}

/// Run a sharded fleet to completion.
///
/// `build` is called with a [`ShardCtx`] once a shard — the initial ones
/// and each live migration's destination — and once a software fallback,
/// and must return an un-run [`System`] for that shard's specs —
/// managers, schedulers, fault plans and admission policies are its
/// business; the fleet only attaches the device id and checkpoint config.
/// Every other hand-off restarts the shard's own system on its new host.
/// Builds must be deterministic in the context (same ctx → same system),
/// which makes the whole fleet run deterministic in (config, specs,
/// builder).
pub fn run_fleet<M, S, F>(
    cfg: &FleetConfig,
    specs: Vec<TaskSpec>,
    build: F,
) -> Result<FleetReport, VfpgaError>
where
    M: FpgaManager,
    S: Scheduler,
    F: FnMut(&ShardCtx<'_>) -> Result<System<M, S>, VfpgaError>,
{
    cfg.validate()?;
    // Free unless a profiling harness has span recording on: then shard
    // stepping shows as `fleet;run_shard;system;…` against fleet self time.
    let _s = span::guard("fleet");
    let total_tasks = specs.len();
    let mut fleet = Fleet::new(cfg, specs, build);
    while fleet.step()? {}
    fleet.into_report(total_tasks)
}

/// Timeline ordering for same-instant fleet events: the crash precedes
/// the failovers it causes; rejoins precede the rebalances they enable.
fn event_rank(e: &TraceEvent) -> u8 {
    match e {
        TraceEvent::DeviceCrash { .. } => 0,
        TraceEvent::Failover { .. }
        | TraceEvent::SoftwareFailover { .. }
        | TraceEvent::FleetLost { .. } => 1,
        TraceEvent::DeviceRejoin { .. } => 2,
        TraceEvent::FleetRebalance { .. } => 3,
        _ => 4,
    }
}

/// Merge shard reports into one fleet-wide report: tasks back in original
/// workload order, every counter slice summed field by field, timelines
/// dropped (they are per-device), latency histograms merged. A one-shard
/// fleet passes its report through wholesale, so a single-device fleet
/// stays byte-identical to the plain system run.
fn merge_reports(
    outcomes: &[ShardOutcome],
    origs: &[Vec<usize>],
    total_tasks: usize,
    stats: FleetStats,
) -> Report {
    if outcomes.len() == 1 {
        let mut r = outcomes[0].report.clone();
        r.fleet = Some(stats);
        return r;
    }
    let mut tasks: Vec<Option<TaskMetrics>> = vec![None; total_tasks];
    for (o, orig) in outcomes.iter().zip(origs) {
        for (j, t) in o.report.tasks.iter().enumerate() {
            tasks[orig[j]] = Some(t.clone());
        }
    }
    let first = &outcomes[0].report;
    let mut r = Report {
        manager: first.manager,
        scheduler: first.scheduler,
        tasks: tasks
            .into_iter()
            .map(|t| t.expect("every workload task landed in exactly one shard"))
            .collect(),
        makespan: outcomes
            .iter()
            .map(|o| o.report.makespan)
            .max()
            .unwrap_or(SimDuration::ZERO),
        fleet: Some(stats),
        ..Default::default()
    };
    for o in outcomes {
        r.manager_stats.add(&o.report.manager_stats);
        r.fault.add(&o.report.fault);
        r.crash.add(&o.report.crash);
        if let Some(s) = &o.report.admission {
            r.admission.get_or_insert_with(Default::default).add(s);
        }
        if let Some(s) = &o.report.delta {
            r.delta.get_or_insert_with(Default::default).add(s);
        }
        r.metrics.absorb(&o.report.metrics);

        if let Some(h) = &o.report.latency {
            r.latency.get_or_insert_with(HistSet::new).merge(h);
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{CircuitId, CircuitLib};
    use crate::manager::dynload::DynLoadManager;
    use crate::manager::partition::{PartitionManager, PartitionMode};
    use crate::manager::PreemptAction;
    use crate::sched::RoundRobinScheduler;
    use crate::system::SystemConfig;
    use crate::system_tests::{lib_n, ms, timing, us};
    use crate::task::Op;

    /// Four tenants, two tasks each, arrivals interleaved.
    fn specs(ids: &[CircuitId]) -> Vec<TaskSpec> {
        (0..8u32)
            .map(|i| {
                let tenant = i % 4;
                TaskSpec::new(
                    format!("t{tenant}-{}", i / 4),
                    SimTime::ZERO + ms(u64::from(i)),
                    vec![
                        Op::Cpu(us(400)),
                        Op::FpgaRun {
                            circuit: ids[(i as usize) % ids.len()],
                            cycles: 150_000,
                        },
                        Op::Cpu(us(200)),
                    ],
                )
                .with_tenant(tenant)
            })
            .collect()
    }

    fn builder(
        lib: Arc<CircuitLib>,
    ) -> impl FnMut(&ShardCtx<'_>) -> Result<System<DynLoadManager, RoundRobinScheduler>, VfpgaError>
           + Clone {
        move |ctx| {
            let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
            Ok(System::new(
                lib.clone(),
                mgr,
                RoundRobinScheduler::new(ms(4)),
                SystemConfig {
                    preempt: PreemptAction::SaveRestore,
                    ..Default::default()
                },
                ctx.specs.to_vec(),
            ))
        }
    }

    fn crashy_plan() -> DeviceFaultPlan {
        DeviceFaultPlan {
            seed: 0xF1EE7,
            crash_rate_per_s: 400.0,
            outage: ms(2),
            max_crashes: 2,
        }
    }

    #[test]
    fn config_validation_catches_impossible_fleets() {
        let (lib, ids) = lib_n(1);
        let sp = specs(&ids);
        let no_dev = run_fleet(&FleetConfig::new(0), sp.clone(), builder(lib.clone()));
        assert!(matches!(no_dev, Err(VfpgaError::BadFleetConfig { .. })));
        let no_ckpt = FleetConfig::new(2).with_device_faults(crashy_plan());
        let r = run_fleet(&no_ckpt, sp.clone(), builder(lib.clone()));
        assert!(matches!(r, Err(VfpgaError::BadFleetConfig { .. })));
        let no_journal = FleetConfig::new(2)
            .with_device_faults(crashy_plan())
            .with_checkpoints(CheckpointConfig::new(ms(1)).without_journal());
        let r = run_fleet(&no_journal, sp, builder(lib));
        assert!(matches!(r, Err(VfpgaError::BadFleetConfig { .. })));
    }

    #[test]
    fn one_device_zero_fault_fleet_matches_plain_system() {
        let (lib, ids) = lib_n(2);
        let sp = specs(&ids);
        let mut b = builder(lib.clone());
        let plain = b(&ShardCtx {
            shard: 0,
            device: DeviceId(0),
            home: DeviceId(0),
            tenants: &[0, 1, 2, 3],
            specs: &sp,
            software: false,
        })
        .unwrap()
        .run()
        .unwrap();
        let fleet = run_fleet(&FleetConfig::new(1), sp, builder(lib)).unwrap();
        assert_eq!(fleet.shards.len(), 1);
        assert!(crate::checkpoint::diff_reports(&plain, &fleet.merged).is_empty());
        assert_eq!(plain.makespan, fleet.merged.makespan);
        assert_eq!(plain.manager_stats, fleet.merged.manager_stats);
        assert_eq!(fleet.stats, FleetStats::default());
        assert_eq!(fleet.merged.fleet, Some(FleetStats::default()));
        assert_eq!(fleet.trace.entries().count(), 0);
    }

    #[test]
    fn device_crash_fails_over_without_losing_work() {
        let (lib, ids) = lib_n(2);
        let sp = specs(&ids);
        let cfg = FleetConfig::new(4)
            .with_checkpoints(CheckpointConfig::new(ms(1)))
            .with_device_faults(crashy_plan());
        let fleet = run_fleet(&cfg, sp.clone(), builder(lib)).unwrap();
        assert!(
            fleet.stats.failovers >= 1,
            "the seeded plan must interrupt at least one shard: {:?}",
            fleet.stats
        );
        assert_eq!(fleet.stats.lost_in_flight, 0);
        assert_eq!(fleet.stats.software_fallbacks, 0);
        assert_eq!(fleet.merged.tasks.len(), sp.len());
        for (m, s) in fleet.merged.tasks.iter().zip(&sp) {
            assert_eq!(m.name, s.name, "merged tasks keep workload order");
            assert!(!m.lost_in_flight);
            assert!(!m.failed, "failover must not fail '{}'", m.name);
        }
        assert_eq!(
            fleet.migration_lat.count(),
            fleet.stats.failovers
                + fleet.stats.rebalances
                + fleet.stats.software_fallbacks
                + fleet.stats.tenant_migrations
        );
        assert!(fleet.stats.device_crashes >= 1);
    }

    #[test]
    fn fleet_runs_are_deterministic() {
        let (lib, ids) = lib_n(2);
        let sp = specs(&ids);
        let cfg = FleetConfig::new(2)
            .with_placement(PlacementPolicy::LeastLoaded)
            .with_checkpoints(CheckpointConfig::new(ms(1)))
            .with_device_faults(crashy_plan());
        let a = run_fleet(&cfg, sp.clone(), builder(lib.clone())).unwrap();
        let b = run_fleet(&cfg, sp, builder(lib)).unwrap();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.merged.makespan, b.merged.makespan);
        assert!(crate::checkpoint::diff_reports(&a.merged, &b.merged).is_empty());
        assert_eq!(a.trace.entries().count(), b.trace.entries().count());
    }

    #[test]
    fn saturated_fleet_without_fallback_counts_lost_in_flight() {
        let (lib, ids) = lib_n(2);
        let sp = specs(&ids);
        // One device, no room elsewhere, no retries, no fallback: the
        // first device crash abandons the shard's unfinished tasks.
        let cfg = FleetConfig::new(1)
            .with_max_shards_per_device(1)
            .with_failover_retry(0, ms(1))
            .without_software_fallback()
            .with_checkpoints(CheckpointConfig::new(ms(1)))
            .with_device_faults(crashy_plan());
        let fleet = run_fleet(&cfg, sp.clone(), builder(lib)).unwrap();
        assert!(fleet.stats.lost_in_flight >= 1, "{:?}", fleet.stats);
        let flagged = fleet
            .merged
            .tasks
            .iter()
            .filter(|m| m.lost_in_flight)
            .count() as u64;
        assert_eq!(flagged, fleet.stats.lost_in_flight);
        for m in fleet.merged.tasks.iter().filter(|m| m.lost_in_flight) {
            // The lost slice is disjoint from every other bad outcome.
            assert!(!m.failed && !m.quarantined && !m.rejected && !m.corrupted);
        }
        assert_eq!(fleet.shards[0].lost as u64, fleet.stats.lost_in_flight);
        assert_eq!(fleet.shards[0].final_host, None);
    }

    #[test]
    fn lost_task_is_never_charged_past_its_crash() {
        let (lib, ids) = lib_n(2);
        // E19's ablation cell in small: dispatch pre-pays a download's whole
        // overhead, a 1 ms checkpoint captures that slot, and a device crash
        // with nowhere to go abandons the task while the download is still
        // in flight.
        let cfg = FleetConfig::new(2)
            .with_max_shards_per_device(1)
            .with_failover_retry(0, ms(1))
            .without_software_fallback()
            .with_checkpoints(CheckpointConfig::new(ms(1)))
            .with_device_faults(crashy_plan());
        let fleet = run_fleet(&cfg, specs(&ids), builder(lib)).unwrap();
        assert!(fleet.stats.lost_in_flight >= 1, "{:?}", fleet.stats);
        for m in &fleet.merged.tasks {
            assert!(
                m.waiting_checked().is_some(),
                "'{}' accounted {:?} in a {:?} turnaround",
                m.name,
                m.accounted(),
                m.turnaround()
            );
        }
        fleet.merged.mean_waiting_s();
    }

    #[test]
    fn exhausted_retries_degrade_to_software_path() {
        let (lib, ids) = lib_n(2);
        let sp = specs(&ids);
        let cfg = FleetConfig::new(1)
            .with_max_shards_per_device(1)
            .with_failover_retry(0, ms(1))
            .with_checkpoints(CheckpointConfig::new(ms(1)))
            .with_device_faults(crashy_plan());
        let fleet = run_fleet(&cfg, sp.clone(), builder(lib)).unwrap();
        assert_eq!(fleet.stats.software_fallbacks, 1, "{:?}", fleet.stats);
        assert_eq!(fleet.stats.lost_in_flight, 0);
        assert_eq!(fleet.merged.tasks.len(), sp.len());
        assert!(fleet.merged.tasks.iter().all(|m| !m.lost_in_flight));
        assert_eq!(fleet.shards[0].final_host, None);
    }

    #[test]
    fn single_device_self_failover_after_outage() {
        let (lib, ids) = lib_n(2);
        let sp = specs(&ids);
        // Retry ladder outlives the outage: the shard fails over back
        // onto its own device once it rejoins.
        let cfg = FleetConfig::new(1)
            .with_failover_retry(5, us(500))
            .with_checkpoints(CheckpointConfig::new(ms(1)))
            .with_device_faults(DeviceFaultPlan {
                outage: ms(1),
                ..crashy_plan()
            });
        let fleet = run_fleet(&cfg, sp, builder(lib)).unwrap();
        assert!(fleet.stats.failovers >= 1, "{:?}", fleet.stats);
        assert_eq!(fleet.stats.lost_in_flight, 0);
        assert_eq!(fleet.stats.software_fallbacks, 0);
        assert!(fleet.stats.backoff_retries >= 1);
        assert_eq!(fleet.shards[0].final_host, Some(DeviceId(0)));
    }

    fn mig_plan(rate: f64, max: u32, crash: Option<(u32, MigrationCrashWindow)>) -> MigrationPlan {
        MigrationPlan {
            seed: 0x515EED,
            rate_per_s: rate,
            max_migrations: max,
            delta_copy: false,
            crash,
        }
    }

    #[test]
    fn live_migration_moves_tenants_without_changing_outcomes() {
        let (lib, ids) = lib_n(2);
        let sp = specs(&ids);
        let base_cfg = FleetConfig::new(2)
            .with_max_shards_per_device(4)
            .with_checkpoints(CheckpointConfig::new(ms(1)));
        let baseline = run_fleet(&base_cfg, sp.clone(), builder(lib.clone())).unwrap();
        let cfg = base_cfg.with_migrations(mig_plan(400.0, 2, None));
        let fleet = run_fleet(&cfg, sp.clone(), builder(lib)).unwrap();
        assert!(fleet.stats.tenant_migrations >= 1, "{:?}", fleet.stats);
        assert_eq!(fleet.stats.migration_aborts, 0);
        assert_eq!(fleet.stats.lost_in_flight, 0);
        // Each migration appends a single-tenant destination shard.
        assert_eq!(
            fleet.shards.len(),
            baseline.shards.len() + fleet.stats.tenant_migrations as usize
        );
        // Every task lands exactly once, in workload order, with the
        // same outcome the migration-free fleet produced.
        assert_eq!(fleet.merged.tasks.len(), sp.len());
        for (m, s) in fleet.merged.tasks.iter().zip(&sp) {
            assert_eq!(m.name, s.name, "merged tasks keep workload order");
        }
        assert!(
            crate::checkpoint::diff_reports(&baseline.merged, &fleet.merged).is_empty(),
            "live migration must not change task outcomes"
        );
        assert_eq!(
            fleet.migration_lat.count(),
            fleet.stats.failovers
                + fleet.stats.rebalances
                + fleet.stats.software_fallbacks
                + fleet.stats.tenant_migrations
        );
        assert!(fleet.trace.entries().count() >= 3, "prepare/commit/freed");
    }

    /// FPGA runs several slices long, so a cut usually lands inside one.
    fn partition_specs(ids: &[CircuitId]) -> Vec<TaskSpec> {
        (0..12u32)
            .map(|i| {
                TaskSpec::new(
                    format!("p{i}"),
                    SimTime::ZERO + us(500 * u64::from(i)),
                    vec![
                        Op::Cpu(us(300)),
                        Op::FpgaRun {
                            circuit: ids[i as usize % ids.len()],
                            cycles: 200_000,
                        },
                    ],
                )
                .with_tenant(i % 4)
            })
            .collect()
    }

    /// Variable partitions under a 1 ms round robin, delta downloads on
    /// request.
    fn partition_builder(
        lib: Arc<CircuitLib>,
        delta: bool,
    ) -> impl FnMut(&ShardCtx<'_>) -> Result<System<PartitionManager, RoundRobinScheduler>, VfpgaError>
           + Clone {
        move |ctx| {
            let (mode, preempt) = (PartitionMode::Variable, PreemptAction::SaveRestore);
            let mut mgr = PartitionManager::new(lib.clone(), timing(), mode, preempt)?;
            if delta {
                mgr.enable_delta();
            }
            Ok(System::new(
                lib.clone(),
                mgr,
                RoundRobinScheduler::new(ms(1)),
                SystemConfig {
                    preempt,
                    ..Default::default()
                },
                ctx.specs.to_vec(),
            ))
        }
    }

    fn seeded_faults(seed: u64) -> DeviceFaultPlan {
        DeviceFaultPlan {
            seed,
            crash_rate_per_s: 300.0,
            outage: ms(2),
            max_crashes: 3,
        }
    }

    /// The fleet-level crash enumeration for one manager: with no device
    /// faults and under each of 16 seeded fault plans, learn how many
    /// migration attempts the run makes, then aim every crash window at
    /// every one of them. Each run must lose nothing, resolve the aimed
    /// window exactly once (one abort, or one redone free), and match the
    /// fault-free, migration-free baseline task for task. Returns how
    /// many (attempt, window) pairs it aimed at.
    fn enumerate_migration_crashes<M, S>(
        sp: &[TaskSpec],
        ckpt: CheckpointConfig,
        delta_copy: bool,
        build: impl FnMut(&ShardCtx<'_>) -> Result<System<M, S>, VfpgaError> + Clone,
    ) -> u32
    where
        M: FpgaManager,
        S: Scheduler,
    {
        let base = FleetConfig::new(3)
            .with_max_shards_per_device(8)
            .with_checkpoints(ckpt);
        let baseline = run_fleet(&base, sp.to_vec(), build.clone()).unwrap();
        let plans = std::iter::once(DeviceFaultPlan::none()).chain((0..16).map(seeded_faults));
        let mut aimed = 0;
        for faults in plans {
            let run = |crash: Option<(u32, MigrationCrashWindow)>| {
                let what = format!("faults seed {} crash {crash:?}", faults.seed);
                let cfg = base
                    .clone()
                    .with_device_faults(faults)
                    .with_migrations(MigrationPlan {
                        seed: 0x515EED,
                        rate_per_s: 800.0,
                        max_migrations: 8,
                        delta_copy,
                        crash,
                    });
                let fleet = run_fleet(&cfg, sp.to_vec(), build.clone())
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(fleet.stats.lost_in_flight, 0, "{what}");
                let diff = crate::checkpoint::diff_reports(&baseline.merged, &fleet.merged);
                assert!(diff.is_empty(), "{what}: {diff:?}");
                let s = fleet.stats;
                (
                    s.tenant_migrations,
                    s.migration_aborts,
                    s.migration_redone_frees,
                )
            };
            // With no window aimed, every attempt commits.
            let (attempts, aborts, redone) = run(None);
            assert_eq!((aborts, redone), (0, 0), "faults seed {}", faults.seed);
            for k in 0..attempts as u32 {
                for w in [
                    MigrationCrashWindow::SourceMidPrepare,
                    MigrationCrashWindow::DestMidCopy,
                    MigrationCrashWindow::BetweenCommitAndFree,
                ] {
                    let (_, aborts, redone) = run(Some((k, w)));
                    let want = match w {
                        MigrationCrashWindow::BetweenCommitAndFree => (0, 1),
                        _ => (1, 0),
                    };
                    assert_eq!((aborts, redone), want, "attempt {k} window {w:?}");
                    aimed += 1;
                }
            }
        }
        aimed
    }

    #[test]
    fn migration_crash_windows_resolve_to_baseline_outcomes() {
        let (lib, ids) = lib_n(2);
        let ckpt = CheckpointConfig::new(ms(1));
        let aimed = enumerate_migration_crashes(&specs(&ids), ckpt, false, builder(lib));
        assert!(aimed >= 200, "only {aimed} windows aimed");
    }

    #[test]
    fn migration_crash_windows_resolve_under_partition_delta() {
        let (lib, ids) = lib_n(3);
        let ckpt = CheckpointConfig::new(ms(1)).with_delta_checkpoints(3);
        let build = partition_builder(lib, true);
        let aimed = enumerate_migration_crashes(&partition_specs(&ids), ckpt, true, build);
        assert!(aimed >= 200, "only {aimed} windows aimed");
    }

    #[test]
    fn fleet_events_at_one_instant_tie_in_declaration_order() {
        let t = SimTime::ZERO + ms(3);
        let mut evs = [
            (t, FleetEv::Migrate),
            (t, FleetEv::Rejoin(0)),
            (t, FleetEv::DeviceDown(2)),
            (t, FleetEv::DeviceDown(1)),
            (t + us(1), FleetEv::DeviceDown(0)),
        ];
        evs.sort();
        let order = evs.map(|(_, ev)| ev);
        assert_eq!(
            order,
            [
                FleetEv::DeviceDown(1),
                FleetEv::DeviceDown(2),
                FleetEv::Rejoin(0),
                FleetEv::Migrate,
                FleetEv::DeviceDown(0),
            ]
        );
    }

    /// The checker's seeded violations: a check that has never failed is
    /// not a check.
    #[test]
    #[should_panic(expected = "hosted is the live shards a device")]
    fn skewed_hosted_count_trips_the_invariant_checker() {
        let (lib, ids) = lib_n(1);
        let cfg = FleetConfig::new(2);
        let mut fleet = Fleet::new(&cfg, specs(&ids), builder(lib));
        fleet.check_invariants();
        fleet.hosted[1] += 1;
        fleet.check_invariants();
    }

    #[test]
    #[should_panic(expected = "a tenant is on two shards")]
    fn duplicated_tenant_trips_the_invariant_checker() {
        let (lib, ids) = lib_n(1);
        let cfg = FleetConfig::new(2);
        let mut fleet = Fleet::new(&cfg, specs(&ids), builder(lib));
        fleet.check_invariants();
        let tenant = fleet.shards[0].tenants[0];
        fleet.shards[1].tenants.push(tenant);
        fleet.check_invariants();
    }

    /// A failover or a migration discards every residency claim while the
    /// FPGA segment restored from the image runs on; under the partition
    /// manager its next slice expiry used to panic in `preempt`
    /// ("preempted circuit is resident").
    #[test]
    fn partition_shards_survive_failover_and_migration_mid_segment() {
        let (lib, ids) = lib_n(3);
        let sp = partition_specs(&ids);
        let build = partition_builder(lib, false);
        let base = FleetConfig::new(3)
            .with_max_shards_per_device(8)
            .with_checkpoints(CheckpointConfig::new(ms(1)));
        for seed in 0..16u64 {
            let faults_only = base.clone().with_device_faults(seeded_faults(seed));
            let migrations_only = base.clone().with_migrations(MigrationPlan {
                seed,
                rate_per_s: 400.0,
                max_migrations: 4,
                delta_copy: false,
                crash: None,
            });
            for (what, cfg) in [("faults", faults_only), ("migrations", migrations_only)] {
                let fleet = run_fleet(&cfg, sp.clone(), build.clone())
                    .unwrap_or_else(|e| panic!("{what} seed {seed}: {e}"));
                assert_eq!(fleet.merged.tasks.len(), sp.len(), "{what} seed {seed}");
                for (m, s) in fleet.merged.tasks.iter().zip(&sp) {
                    assert_eq!(m.name, s.name, "{what} seed {seed}: workload order");
                }
                assert_eq!(fleet.stats.lost_in_flight, 0, "{what} seed {seed}");
                assert!(fleet.merged.tasks.iter().all(|m| !m.lost_in_flight));
            }
        }
    }

    #[test]
    fn migration_without_checkpoint_journal_is_rejected() {
        let (lib, ids) = lib_n(1);
        let sp = specs(&ids);
        let cfg = FleetConfig::new(2).with_migrations(mig_plan(100.0, 1, None));
        let r = run_fleet(&cfg, sp.clone(), builder(lib.clone()));
        assert!(matches!(r, Err(VfpgaError::BadFleetConfig { .. })));
        let cfg = FleetConfig::new(2)
            .with_checkpoints(CheckpointConfig::new(ms(1)).without_journal())
            .with_migrations(mig_plan(100.0, 1, None));
        let r = run_fleet(&cfg, sp, builder(lib));
        assert!(matches!(r, Err(VfpgaError::BadFleetConfig { .. })));
    }

    #[test]
    fn the_builder_runs_once_a_shard_and_once_a_software_fallback() {
        // Failovers, rebalances, live migrations and software fallbacks in
        // one run: only a migration's destination shard and a software
        // fallback build; every other hand-off restarts the cut system.
        let (lib, ids) = lib_n(2);
        let cfg = FleetConfig::new(3)
            .with_max_shards_per_device(2)
            .with_failover_retry(0, ms(1))
            .with_checkpoints(CheckpointConfig::new(ms(1)))
            .with_device_faults(DeviceFaultPlan {
                seed: 4,
                ..crashy_plan()
            })
            .with_migrations(mig_plan(400.0, 2, None));
        let builds = std::cell::Cell::new(0u64);
        let mut build = builder(lib);
        let fleet = run_fleet(&cfg, specs(&ids), |ctx: &ShardCtx<'_>| {
            builds.set(builds.get() + 1);
            build(ctx)
        })
        .unwrap();
        let s = fleet.stats;
        assert!(
            s.failovers > 0 && s.rebalances > 0 && s.tenant_migrations > 0,
            "{s:?}"
        );
        assert!(s.software_fallbacks > 0, "{s:?}");
        let shards = fleet.shards.len() as u64;
        assert_eq!(shards, 3 + s.tenant_migrations, "{s:?}");
        assert_eq!(builds.get(), shards + s.software_fallbacks, "{s:?}");
    }

    #[test]
    fn a_migration_destination_builds_over_its_source_table() {
        // Every build's shard, tenants and spec-table address.
        let (lib, ids) = lib_n(2);
        let cfg = FleetConfig::new(2)
            .with_max_shards_per_device(4)
            .with_checkpoints(CheckpointConfig::new(ms(1)))
            .with_migrations(mig_plan(400.0, 2, None));
        let mut builds: Vec<(u32, Vec<u32>, *const TaskSpec)> = Vec::new();
        let mut build = builder(lib);
        let fleet = run_fleet(&cfg, specs(&ids), |ctx: &ShardCtx<'_>| {
            builds.push((ctx.shard, ctx.tenants.to_vec(), ctx.specs.as_ptr()));
            build(ctx)
        })
        .unwrap();
        let migrations = fleet.stats.tenant_migrations as usize;
        assert!(migrations >= 1, "{:?}", fleet.stats);
        let placed = fleet.shards.len() - migrations;
        let (first, destinations): (Vec<_>, Vec<_>) = builds
            .iter()
            .partition(|(shard, ..)| (*shard as usize) < placed);
        assert_eq!(destinations.len(), migrations);
        for (shard, tenants, table) in destinations {
            let source = first.iter().find(|(_, ts, _)| ts.contains(&tenants[0]));
            assert_eq!(
                source.map(|s| s.2),
                Some(*table),
                "shard {shard} holds a copy of its source's spec table"
            );
        }
    }

    #[test]
    fn affinity_placement_honors_hints() {
        let (lib, ids) = lib_n(2);
        let mut sp = specs(&ids);
        for s in &mut sp {
            // Pin every tenant to device 1.
            s.affinity = Some(1);
        }
        let cfg = FleetConfig::new(4)
            .with_placement(PlacementPolicy::Affinity)
            .with_max_shards_per_device(4);
        let fleet = run_fleet(&cfg, sp, builder(lib)).unwrap();
        assert_eq!(fleet.shards.len(), 1);
        assert_eq!(fleet.shards[0].home, DeviceId(1));
        assert_eq!(fleet.shards[0].final_host, Some(DeviceId(1)));
    }
}
