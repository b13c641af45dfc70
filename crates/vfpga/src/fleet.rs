//! Fleet-level fault tolerance: multi-device sharding with failover.
//!
//! One [`System`] owns one device. A *fleet* owns several: tenants are
//! routed to per-device shards by a placement policy, and when a whole
//! device dies (crash or brownout from [`fsim::DeviceFaultInjector`])
//! every resident tenant fails over onto a surviving device through the
//! existing checkpoint + journal-replay machinery. Migration is priced
//! honestly by that machinery: the periodic checkpoint readback on the
//! (possibly lost) source already paid the capture, the destination pays
//! a fresh configuration download at each circuit's next activation, and
//! everything after the last durable checkpoint is re-executed.
//!
//! The fleet layer never invents costs of its own — it only sequences
//! per-shard [`System`] runs, cuts them at device-fault instants, and
//! restores them elsewhere via [`System::fail_over_from`]. A destination
//! search walks a bounded retry/backoff ladder when every device is
//! saturated; if the ladder is exhausted the shard either degrades to a
//! software-priced build (the builder decides what that costs, e12-style)
//! or — with degradation disabled — its unfinished tasks are counted in
//! the disjoint `lost_in_flight` slice. A recovered device rejoins the
//! pool and at most one shard per rejoin is rebalanced onto it through
//! the same (conservatively priced) checkpoint-cut migration path.

use crate::checkpoint::{CheckpointConfig, Segment};
use crate::counters::Counters;
use crate::error::VfpgaError;
use crate::manager::FpgaManager;
use crate::metrics::{Report, TaskMetrics};
use crate::migrate::{CounterBaseline, MigrationEngine};
use crate::sched::Scheduler;
use crate::system::{FailoverReceipt, System};
use crate::task::TaskSpec;
use fpga::journal::{MigrationPhase, MigrationResolution};
use fsim::{
    DeviceFaultInjector, DeviceFaultPlan, HistSet, LogHistogram, Metrics, MigrationCrashWindow,
    MigrationPlan, SimDuration, SimTime, TimelineSet, Trace, TraceEvent,
};
use std::collections::BTreeMap;
use std::fmt;

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
/// where it is being instantiated. The builder returns a fully configured
/// [`System`] (manager, scheduler, faults, admission) for these specs;
/// the fleet attaches the device id and checkpoint config itself.
///
/// `software` is set when the fleet fell back to the degradation path —
/// the builder should return a software-priced system (e12-style CPU
/// emulation costs), keeping admission presence identical to its
/// hardware builds so checkpoint images stay portable between the two.
#[derive(Debug)]
pub struct ShardCtx<'a> {
    /// Shard index within the fleet.
    pub shard: u32,
    /// Device this build will run on.
    pub device: DeviceId,
    /// Device the shard was originally placed on.
    pub home: DeviceId,
    /// Tenants routed to this shard.
    pub tenants: &'a [u32],
    /// The shard's tasks, in original workload order.
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

/// Pick a failover/rebalance destination among `cands` (devices that are
/// up and have hosting capacity), policy-flavored and deterministic.
fn pick_destination(
    policy: PlacementPolicy,
    cands: &[u32],
    hosted: &[u32],
    devices: u32,
    home: u32,
    from: u32,
) -> Option<u32> {
    if cands.is_empty() {
        return None;
    }
    let least = || {
        cands
            .iter()
            .copied()
            .min_by_key(|&d| (hosted[d as usize], d))
            .expect("cands is non-empty")
    };
    Some(match policy {
        PlacementPolicy::RoundRobin => (1..=devices)
            .map(|o| (from + o) % devices)
            .find(|d| cands.contains(d))
            .expect("cands is a subset of the cyclic walk"),
        PlacementPolicy::LeastLoaded => least(),
        PlacementPolicy::Affinity => {
            if cands.contains(&home) {
                home
            } else {
                least()
            }
        }
    })
}

/// Internal per-shard run state.
struct ShardRun<M: FpgaManager, S: Scheduler> {
    shard: u32,
    home: u32,
    host: u32,
    tenants: Vec<u32>,
    specs: Vec<TaskSpec>,
    /// Original workload index of each shard-local task.
    orig: Vec<usize>,
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
    /// A built (and possibly restored) system waiting for its next
    /// segment. `None` until first needed — segments after a migration
    /// carry the restored system here.
    pending: Option<System<M, S>>,
    /// Set when the shard is finished: (report, final host, lost tasks).
    done: Option<(Report, Option<u32>, u32)>,
}

/// Build one shard's system on `device`: builder → device id →
/// checkpoints.
fn build_shard<M, S, F>(
    build: &mut F,
    ckpt: Option<CheckpointConfig>,
    sr: &ShardRun<M, S>,
    device: u32,
    software: bool,
) -> Result<System<M, S>, VfpgaError>
where
    M: FpgaManager,
    S: Scheduler,
    F: FnMut(&ShardCtx<'_>) -> Result<System<M, S>, VfpgaError>,
{
    let ctx = ShardCtx {
        shard: sr.shard,
        device: DeviceId(device),
        home: DeviceId(sr.home),
        tenants: &sr.tenants,
        specs: &sr.specs,
        software,
    };
    let mut sys = build(&ctx)
        .map_err(|e| on_device(device, e))?
        .with_device_id(DeviceId(device));
    if let Some(c) = ckpt {
        sys = sys.with_checkpoints(c).map_err(|e| on_device(device, e))?;
    }
    Ok(sys)
}

/// The system a shard runs its next segment on: the one a restore left
/// waiting, else a fresh build on the shard's host.
fn take_system<M, S, F>(
    build: &mut F,
    ckpt: Option<CheckpointConfig>,
    sr: &mut ShardRun<M, S>,
) -> Result<System<M, S>, VfpgaError>
where
    M: FpgaManager,
    S: Scheduler,
    F: FnMut(&ShardCtx<'_>) -> Result<System<M, S>, VfpgaError>,
{
    match sr.pending.take() {
        Some(sys) => Ok(sys),
        None => build_shard(build, ckpt, sr, sr.host, false),
    }
}

/// Book one hand-off's receipt: the claims it discarded, the window it
/// re-executes, and its latency — that window plus the `wait` spent
/// backing off first.
fn book_failover(
    receipt: &FailoverReceipt,
    wait: SimDuration,
    stats: &mut FleetStats,
    migration_lat: &mut LogHistogram,
) {
    stats.migrated_claims += u64::from(receipt.migrated_claims);
    stats.redo_time += receipt.redo_window;
    migration_lat.record((receipt.redo_window + wait).as_nanos());
}

/// Run a sharded fleet to completion.
///
/// `build` is called once per run segment with a [`ShardCtx`] and must
/// return an un-run [`System`] for that shard's specs — managers,
/// schedulers, fault plans and admission policies are its business; the
/// fleet only attaches the device id and checkpoint config. Builds must
/// be deterministic in the context (same ctx → same system), which makes
/// the whole fleet run deterministic in (config, specs, builder).
pub fn run_fleet<M, S, F>(
    cfg: &FleetConfig,
    specs: Vec<TaskSpec>,
    mut build: F,
) -> Result<FleetReport, VfpgaError>
where
    M: FpgaManager,
    S: Scheduler,
    F: FnMut(&ShardCtx<'_>) -> Result<System<M, S>, VfpgaError>,
{
    cfg.validate()?;
    let total_tasks = specs.len();
    let device_of: BTreeMap<u32, u32> = place_tenants(cfg, &specs).into_iter().collect();

    // One shard per device that received at least one tenant, device
    // order; tasks keep their original workload order within the shard.
    let mut shards: Vec<ShardRun<M, S>> = (0..cfg.devices)
        .map(|d| ShardRun {
            shard: 0,
            home: d,
            host: d,
            tenants: Vec::new(),
            specs: Vec::new(),
            orig: Vec::new(),
            watermark: SimTime::ZERO,
            failovers: 0,
            rebalances: 0,
            mig_touched: false,
            mig_baseline: None,
            pending: None,
            done: None,
        })
        .collect();
    for (i, s) in specs.iter().enumerate() {
        let sh = &mut shards[device_of[&s.tenant] as usize];
        if !sh.tenants.contains(&s.tenant) {
            sh.tenants.push(s.tenant);
        }
        sh.specs.push(s.clone());
        sh.orig.push(i);
    }
    shards.retain(|sh| !sh.specs.is_empty());
    for (i, sh) in shards.iter_mut().enumerate() {
        sh.shard = i as u32;
    }

    let inj = DeviceFaultInjector::new(cfg.faults);
    let windows: Vec<Vec<(SimTime, SimTime)>> = (0..cfg.devices).map(|d| inj.windows(d)).collect();
    let mut rejoins: Vec<(SimTime, u32)> = windows
        .iter()
        .enumerate()
        .flat_map(|(d, ws)| ws.iter().map(move |&(_, up)| (up, d as u32)))
        .collect();
    rejoins.sort();
    let mut rejoin_ptr = 0usize;

    let mut hosted = vec![0u32; cfg.devices as usize];
    for sh in &shards {
        hosted[sh.host as usize] += 1;
    }

    let mut stats = FleetStats::default();
    let mut migration_lat = LogHistogram::new();
    let mut events: Vec<(SimTime, TraceEvent)> = Vec::new();
    let mut engine = MigrationEngine::new(cfg.migrations);

    // Global event loop: interleave per-shard device-crash interrupts
    // with device rejoins and planned migration instants in time order
    // (crashes first on ties, then rejoins, then migrations). Each
    // iteration either finishes a shard, strictly advances a shard's
    // watermark, or consumes a rejoin or migration instant — and all
    // three streams are finite, so the loop terminates.
    loop {
        if !shards.iter().any(|s| s.done.is_none()) {
            break;
        }
        // Earliest pending interrupt: (time, kind, index). kind 0 =
        // device crash cutting shard `index`, kind 1 = device `index`
        // rejoining, kind 2 = planned migration instant.
        let mut next: Option<(SimTime, u8, usize)> = None;
        for (si, sr) in shards.iter().enumerate() {
            if sr.done.is_some() {
                continue;
            }
            if let Some(&(down, _)) = windows[sr.host as usize]
                .iter()
                .find(|&&(down, _)| down > sr.watermark)
            {
                let cand = (down, 0u8, si);
                if next.is_none_or(|n| cand < n) {
                    next = Some(cand);
                }
            }
        }
        if let Some(&(up, d)) = rejoins.get(rejoin_ptr) {
            let cand = (up, 1u8, d as usize);
            if next.is_none_or(|n| cand < n) {
                next = Some(cand);
            }
        }
        if let Some(at) = engine.next_instant() {
            let cand = (at, 2u8, 0usize);
            if next.is_none_or(|n| cand < n) {
                next = Some(cand);
            }
        }
        let Some((t, kind, idx)) = next else { break };

        if kind == 2 {
            migrate_one(
                cfg,
                t,
                &mut engine,
                &mut build,
                &mut shards,
                &mut hosted,
                &windows,
                &mut stats,
                &mut migration_lat,
                &mut events,
            )?;
            continue;
        }

        if kind == 1 {
            // Device `idx` is back. Rebalance at most one shard onto it:
            // prefer a shard coming home, else relieve the most crowded
            // device; never move a shard restored at or after `t`.
            rejoin_ptr += 1;
            let d = idx as u32;
            if hosted[idx] >= cfg.max_shards_per_device {
                continue;
            }
            let victim = shards
                .iter()
                .position(|s| s.done.is_none() && s.host != d && s.home == d && s.watermark < t)
                .or_else(|| {
                    shards
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| {
                            s.done.is_none()
                                && s.host != d
                                && s.watermark < t
                                && hosted[s.host as usize] > hosted[idx] + 1
                        })
                        .max_by_key(|(si, s)| (hosted[s.host as usize], std::cmp::Reverse(*si)))
                        .map(|(si, _)| si)
                });
            let Some(si) = victim else { continue };
            let sys = take_system(&mut build, cfg.ckpt, &mut shards[si])?;
            let from = shards[si].host;
            match sys.run_to_cut(Some(t)).map_err(|e| on_device(from, e))? {
                Segment::Completed(report, _) => {
                    finish(&mut shards[si], &mut hosted, *report, Some(from));
                }
                Segment::Cut(mut cut) => {
                    // A planned migration, not a host crash: cut at the
                    // rejoin instant and restore on the rejoined device.
                    cut.stats.crashes -= 1;
                    hosted[from as usize] -= 1;
                    hosted[idx] += 1;
                    let mut sys = build_shard(&mut build, cfg.ckpt, &shards[si], d, false)?;
                    let receipt = sys.fail_over_cut(*cut).map_err(|e| on_device(d, e))?;
                    stats.rebalances += 1;
                    book_failover(&receipt, SimDuration::ZERO, &mut stats, &mut migration_lat);
                    events.push((
                        t,
                        TraceEvent::FleetRebalance {
                            shard: shards[si].shard,
                            from_device: from,
                            to_device: d,
                        },
                    ));
                    shards[si].rebalances += 1;
                    shards[si].host = d;
                    shards[si].watermark = t;
                    shards[si].pending = Some(sys);
                }
            }
            continue;
        }

        // Device crash cutting shard `idx` at `t`.
        let si = idx;
        let from = shards[si].host;
        let sys = take_system(&mut build, cfg.ckpt, &mut shards[si])?;
        match sys.run_to_cut(Some(t)).map_err(|e| on_device(from, e))? {
            Segment::Completed(report, _) => {
                // The shard finished before the device died.
                finish(&mut shards[si], &mut hosted, *report, Some(from));
                continue;
            }
            Segment::Cut(mut cut) => {
                // Reattribute: this is a device fault, not a host crash.
                cut.stats.crashes -= 1;
                hosted[from as usize] -= 1;
                // Walk the retry ladder for a destination that is up and
                // has capacity at the attempt instant.
                let mut dest: Option<(u32, SimTime, u32)> = None;
                for k in 0..=cfg.max_failover_retries {
                    let at = t + cfg.retry_backoff * u64::from(k);
                    let cands: Vec<u32> = (0..cfg.devices)
                        .filter(|&d| {
                            hosted[d as usize] < cfg.max_shards_per_device
                                && device_up(&windows[d as usize], at)
                        })
                        .collect();
                    if let Some(d) = pick_destination(
                        cfg.placement,
                        &cands,
                        &hosted,
                        cfg.devices,
                        shards[si].home,
                        from,
                    ) {
                        dest = Some((d, at, k));
                        break;
                    }
                    stats.backoff_retries += 1;
                }
                match dest {
                    Some((d, at, k)) => {
                        hosted[d as usize] += 1;
                        let mut sys = build_shard(&mut build, cfg.ckpt, &shards[si], d, false)?;
                        let receipt = sys.fail_over_cut(*cut).map_err(|e| on_device(d, e))?;
                        stats.failovers += 1;
                        let wait = cfg.retry_backoff * u64::from(k);
                        book_failover(&receipt, wait, &mut stats, &mut migration_lat);
                        events.push((
                            at,
                            TraceEvent::Failover {
                                from_device: from,
                                to_device: d,
                                tasks: receipt.live_tasks,
                                redo: receipt.redo_window,
                            },
                        ));
                        shards[si].failovers += 1;
                        shards[si].host = d;
                        shards[si].watermark = at;
                        shards[si].pending = Some(sys);
                    }
                    None if cfg.software_fallback => {
                        // No device has room: finish the shard on the
                        // software-priced path. It cannot crash again.
                        let mut sys = build_shard(&mut build, cfg.ckpt, &shards[si], from, true)?;
                        let receipt = sys.fail_over_cut(*cut).map_err(|e| on_device(from, e))?;
                        stats.software_fallbacks += 1;
                        let wait = cfg.retry_backoff * u64::from(cfg.max_failover_retries);
                        book_failover(&receipt, wait, &mut stats, &mut migration_lat);
                        events.push((
                            t,
                            TraceEvent::SoftwareFailover {
                                from_device: from,
                                tasks: receipt.live_tasks,
                            },
                        ));
                        let report = sys.run().map_err(|e| on_device(from, e))?;
                        shards[si].done = Some((report, None, 0));
                    }
                    None => {
                        // No destination, no fallback: everything the
                        // last durable checkpoint had not captured as
                        // finished is lost in flight.
                        let mut sys = build_shard(&mut build, cfg.ckpt, &shards[si], from, false)?;
                        sys.fail_over_cut(*cut).map_err(|e| on_device(from, e))?;
                        let report = sys.abandon_lost(t);
                        let lost = report.tasks.iter().filter(|m| m.lost_in_flight).count() as u32;
                        stats.lost_in_flight += u64::from(lost);
                        events.push((
                            t,
                            TraceEvent::FleetLost {
                                device: from,
                                tasks: lost,
                            },
                        ));
                        shards[si].done = Some((report, None, lost));
                    }
                }
            }
        }
    }

    // Drain: no device-fault window can interrupt any surviving shard
    // anymore — run each to completion in shard order.
    for sr in &mut shards {
        if sr.done.is_some() {
            continue;
        }
        let host = sr.host;
        let sys = take_system(&mut build, cfg.ckpt, sr)?;
        let report = sys.run().map_err(|e| on_device(host, e))?;
        finish(sr, &mut hosted, report, Some(host));
    }

    // Fleet totals and per-shard counters are updated in lockstep above;
    // the sums must agree exactly (the shard counters are u64 for this
    // reason — a u32 per-shard sum could truncate against the total).
    debug_assert_eq!(
        stats.failovers,
        shards.iter().map(|s| s.failovers).sum::<u64>(),
        "fleet failover total equals the per-shard sum"
    );
    debug_assert_eq!(
        stats.rebalances,
        shards.iter().map(|s| s.rebalances).sum::<u64>(),
        "fleet rebalance total equals the per-shard sum"
    );

    // Assemble outcomes in shard order, then merge. A migration-touched
    // shard ran with the full spec list for index stability; only the
    // rows of the tenants it finished with are its to report — the other
    // side of each split reports the rest.
    let mut outcomes = Vec::with_capacity(shards.len());
    let mut origs = Vec::with_capacity(shards.len());
    for sr in shards {
        let (mut report, final_host, lost) = sr.done.expect("every shard finished");
        if let Some(base) = &sr.mig_baseline {
            base.subtract_from(&mut report);
        }
        let mut orig = sr.orig;
        if sr.mig_touched {
            let keep: Vec<bool> = sr
                .specs
                .iter()
                .map(|s| sr.tenants.contains(&s.tenant))
                .collect();
            report.tasks = report
                .tasks
                .into_iter()
                .zip(&keep)
                .filter_map(|(m, &k)| k.then_some(m))
                .collect();
            orig = orig
                .into_iter()
                .zip(&keep)
                .filter_map(|(o, &k)| k.then_some(o))
                .collect();
            report.makespan = report
                .tasks
                .iter()
                .map(|m| m.completion - SimTime::ZERO)
                .max()
                .unwrap_or(SimDuration::ZERO);
        }
        outcomes.push(ShardOutcome {
            shard: sr.shard,
            home: DeviceId(sr.home),
            final_host: final_host.map(DeviceId),
            tenants: sr.tenants,
            failovers: sr.failovers,
            rebalances: sr.rebalances,
            lost,
            report,
        });
        origs.push(orig);
    }

    // Device-fault bookkeeping against the merged horizon: windows that
    // open (close) after every shard finished never happened as far as
    // the run is concerned.
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

/// Mark a shard finished on `host`.
fn finish<M: FpgaManager, S: Scheduler>(
    sr: &mut ShardRun<M, S>,
    hosted: &mut [u32],
    report: Report,
    host: Option<u32>,
) {
    if let Some(h) = host {
        hosted[h as usize] -= 1;
    }
    sr.done = Some((report, host, 0));
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
#[allow(clippy::too_many_arguments)]
fn migrate_one<M, S, F>(
    cfg: &FleetConfig,
    t: SimTime,
    engine: &mut MigrationEngine,
    build: &mut F,
    shards: &mut Vec<ShardRun<M, S>>,
    hosted: &mut [u32],
    windows: &[Vec<(SimTime, SimTime)>],
    stats: &mut FleetStats,
    migration_lat: &mut LogHistogram,
    events: &mut Vec<(SimTime, TraceEvent)>,
) -> Result<(), VfpgaError>
where
    M: FpgaManager,
    S: Scheduler,
    F: FnMut(&ShardCtx<'_>) -> Result<System<M, S>, VfpgaError>,
{
    engine.consume_instant();
    // Victim shard: the live shard carrying the most tenants (ties to
    // the lowest index), host up at `t`, not already cut at or past it.
    let vi = shards
        .iter()
        .enumerate()
        .filter(|(_, s)| {
            s.done.is_none() && s.watermark < t && device_up(&windows[s.host as usize], t)
        })
        .max_by_key(|(si, s)| (s.tenants.len(), std::cmp::Reverse(*si)))
        .map(|(si, _)| si);
    let Some(si) = vi else { return Ok(()) };
    let from = shards[si].host;
    // Destination: a different device, up at `t`, with hosting capacity
    // for the tenant's new shard — policy-flavored like failover.
    let cands: Vec<u32> = (0..cfg.devices)
        .filter(|&d| {
            d != from
                && hosted[d as usize] < cfg.max_shards_per_device
                && device_up(&windows[d as usize], t)
        })
        .collect();
    let Some(d) = pick_destination(
        cfg.placement,
        &cands,
        hosted,
        cfg.devices,
        shards[si].home,
        from,
    ) else {
        return Ok(());
    };
    let sys = take_system(build, cfg.ckpt, &mut shards[si])?;
    let mut cut = match sys.run_to_cut(Some(t)).map_err(|e| on_device(from, e))? {
        Segment::Completed(report, _) => {
            // The shard finished before the instant: nothing to migrate.
            finish(&mut shards[si], hosted, *report, Some(from));
            return Ok(());
        }
        Segment::Cut(cut) => *cut,
    };
    let (_k, window) = engine.begin_attempt();
    // In the two genuinely-fatal windows a host dies mid-protocol and
    // the crash count stands; a clean cut (and the commit-without-free
    // window, where only the final free is lost) is a planned migration,
    // not a host crash.
    let genuine = matches!(
        window,
        Some(MigrationCrashWindow::SourceMidPrepare) | Some(MigrationCrashWindow::DestMidCopy)
    );
    if !genuine {
        cut.stats.crashes -= 1;
    }
    // The remainder continues on the source either way. It is built with
    // the shard's FULL spec list — identical task indexing — so the cut
    // state restores unchanged; the migrated tenant is then subtracted.
    // The destination, if the protocol gets that far, adopts the same cut.
    let resume = cut.resume_at();
    let mut rem = build_shard(build, cfg.ckpt, &shards[si], from, false)?;
    rem.restore_cut(cut.clone())
        .map_err(|e| on_device(from, e))?;
    let victim = {
        let mut ts = shards[si].tenants.clone();
        ts.sort_unstable();
        ts.into_iter().find(|&v| rem.live_tasks_of(v) > 0)
    }
    .expect("a cut shard has live work for some tenant");
    match window {
        Some(w @ (MigrationCrashWindow::SourceMidPrepare | MigrationCrashWindow::DestMidCopy)) => {
            // A host died before the commit. Mid-prepare it was the
            // source's, and only the source had journaled its intent;
            // mid staged copy it was the destination's, both sides had,
            // and the destination never held anything durable. Replay
            // resolves every bare intent to a rollback: the tenant stays
            // on the source, backlog intact.
            let journaled: &[u32] = match w {
                MigrationCrashWindow::SourceMidPrepare => &[from],
                _ => &[from, d],
            };
            for &dev in journaled {
                engine.journal_on(dev, victim, from, d, MigrationPhase::Intent);
                let rolled = engine
                    .resolve_device(dev)
                    .into_iter()
                    .any(|(r, res)| r.tenant == victim && res == MigrationResolution::RollBack);
                debug_assert!(rolled, "intent without commit must roll back");
                engine.journal_on(dev, victim, from, d, MigrationPhase::Aborted);
                engine.truncate_device(dev);
            }
            stats.migration_aborts += 1;
            events.push((
                t,
                TraceEvent::MigrationAbort {
                    tenant: victim,
                    from_device: from,
                    to_device: d,
                    reason: w.name(),
                },
            ));
            shards[si].watermark = t;
            shards[si].pending = Some(rem);
        }
        other => {
            // Commit path — clean, or the crash strikes between the
            // commit and the source-side free.
            let redo_free = matches!(other, Some(MigrationCrashWindow::BetweenCommitAndFree));
            engine.journal_both(victim, from, d, MigrationPhase::Intent);
            hosted[d as usize] += 1;
            let mut dst_sr = ShardRun {
                shard: shards.len() as u32,
                home: d,
                host: d,
                tenants: vec![victim],
                specs: shards[si].specs.clone(),
                orig: shards[si].orig.clone(),
                watermark: t,
                failovers: 0,
                rebalances: 0,
                mig_touched: true,
                mig_baseline: None,
                pending: None,
                done: None,
            };
            let mut dst = build_shard(build, cfg.ckpt, &dst_sr, d, false)?;
            let receipt = dst
                .migrate_in_cut(cut, victim, cfg.migrations.delta_copy)
                .map_err(|e| on_device(d, e))?;
            engine.journal_both(victim, from, d, MigrationPhase::Commit);
            // Source side: drop the tenant. The free rides along unless
            // the crash window ate it — then journal replay finds the
            // commit-without-free and redoes the free idempotently.
            let manifest = rem.extract_tenant(victim, t, resume, !redo_free);
            let freed = if redo_free {
                let redo = engine
                    .resolve_device(from)
                    .into_iter()
                    .any(|(r, res)| r.tenant == victim && res == MigrationResolution::RedoFree);
                debug_assert!(redo, "commit without free must redo the free");
                let freed = rem.free_migrated(victim);
                debug_assert_eq!(
                    rem.free_migrated(victim),
                    0,
                    "redoing the free is idempotent"
                );
                stats.migration_redone_frees += 1;
                freed
            } else {
                manifest.freed_claims
            };
            engine.journal_both(victim, from, d, MigrationPhase::Freed);
            engine.truncate_device(from);
            engine.truncate_device(d);
            stats.tenant_migrations += 1;
            stats.migrated_claims += u64::from(receipt.migrated_claims);
            stats.redo_time += receipt.redo_window;
            migration_lat.record(receipt.redo_window.as_nanos());
            events.push((
                t,
                TraceEvent::MigrationPrepare {
                    tenant: victim,
                    from_device: from,
                    to_device: d,
                    tasks: receipt.adopted_tasks,
                },
            ));
            events.push((
                t,
                TraceEvent::MigrationCommit {
                    tenant: victim,
                    from_device: from,
                    to_device: d,
                    redo: receipt.redo_window,
                },
            ));
            events.push((
                t,
                TraceEvent::MigrationFreed {
                    tenant: victim,
                    device: from,
                    claims: freed,
                    redone: redo_free,
                },
            ));
            shards[si].tenants.retain(|&x| x != victim);
            shards[si].mig_touched = true;
            shards[si].watermark = t;
            shards[si].pending = Some(rem);
            dst_sr.mig_baseline = Some(receipt.baseline);
            dst_sr.pending = Some(dst);
            shards.push(dst_sr);
        }
    }
    Ok(())
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
        manager_stats: Default::default(),
        fault: Default::default(),
        crash: Default::default(),
        admission: None,
        delta: None,
        metrics: Metrics::new(),
        timelines: TimelineSet::new(),
        latency: None,
        fleet: Some(stats),
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
    use crate::manager::PreemptAction;
    use crate::sched::RoundRobinScheduler;
    use crate::system::SystemConfig;
    use crate::system_tests::{lib_n, ms, timing, us};
    use crate::task::Op;
    use std::sync::Arc;

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
    {
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

    #[test]
    fn migration_crash_windows_resolve_to_baseline_outcomes() {
        let (lib, ids) = lib_n(2);
        let sp = specs(&ids);
        let base_cfg = FleetConfig::new(2)
            .with_max_shards_per_device(4)
            .with_checkpoints(CheckpointConfig::new(ms(1)));
        let baseline = run_fleet(&base_cfg, sp.clone(), builder(lib.clone())).unwrap();
        for w in [
            MigrationCrashWindow::SourceMidPrepare,
            MigrationCrashWindow::DestMidCopy,
            MigrationCrashWindow::BetweenCommitAndFree,
        ] {
            let cfg = base_cfg
                .clone()
                .with_migrations(mig_plan(400.0, 2, Some((0, w))));
            let fleet = run_fleet(&cfg, sp.clone(), builder(lib.clone())).unwrap();
            match w {
                MigrationCrashWindow::BetweenCommitAndFree => {
                    assert!(
                        fleet.stats.migration_redone_frees >= 1,
                        "{w:?}: {:?}",
                        fleet.stats
                    );
                }
                _ => {
                    assert!(
                        fleet.stats.migration_aborts >= 1,
                        "{w:?}: {:?}",
                        fleet.stats
                    );
                }
            }
            assert_eq!(fleet.stats.lost_in_flight, 0, "{w:?}");
            assert!(
                crate::checkpoint::diff_reports(&baseline.merged, &fleet.merged).is_empty(),
                "crash window {w:?} must not change task outcomes"
            );
        }
    }

    /// A failover or a migration discards every residency claim while the
    /// FPGA segment restored from the image runs on; under the partition
    /// manager its next slice expiry used to panic in `preempt`
    /// ("preempted circuit is resident").
    #[test]
    fn partition_shards_survive_failover_and_migration_mid_segment() {
        use crate::manager::partition::{PartitionManager, PartitionMode};
        let (lib, ids) = lib_n(3);
        // FPGA runs several slices long, so a cut usually lands inside one.
        let sp: Vec<TaskSpec> = (0..12u32)
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
            .collect();
        let build = |ctx: &ShardCtx<'_>| {
            let mgr = PartitionManager::new(
                lib.clone(),
                timing(),
                PartitionMode::Variable,
                PreemptAction::SaveRestore,
            )?;
            Ok(System::new(
                lib.clone(),
                mgr,
                RoundRobinScheduler::new(ms(1)),
                SystemConfig {
                    preempt: PreemptAction::SaveRestore,
                    ..Default::default()
                },
                ctx.specs.to_vec(),
            ))
        };
        let base = FleetConfig::new(3)
            .with_max_shards_per_device(8)
            .with_checkpoints(CheckpointConfig::new(ms(1)));
        for seed in 0..16u64 {
            let faults_only = base.clone().with_device_faults(DeviceFaultPlan {
                seed,
                crash_rate_per_s: 300.0,
                outage: ms(2),
                max_crashes: 3,
            });
            let migrations_only = base.clone().with_migrations(MigrationPlan {
                seed,
                rate_per_s: 400.0,
                max_migrations: 4,
                delta_copy: false,
                crash: None,
            });
            for (what, cfg) in [("faults", faults_only), ("migrations", migrations_only)] {
                let fleet = run_fleet(&cfg, sp.clone(), build)
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
