//! E19 — Fleet-level fault tolerance under device crashes.
//!
//! A multi-device fleet shards tenants across per-device systems and
//! must survive whole-device faults: seeded crashes and timed brownouts
//! cut a shard's run at the fault instant, and the resident tenants fail
//! over onto a surviving device through the checkpoint + journal-replay
//! machinery — priced as the periodic checkpoint readback on the source
//! plus fresh configuration downloads on the destination, with bounded
//! retry/backoff when every device is saturated and graceful degradation
//! to the e12-priced software path as the last resort.
//!
//! The sweep: device count x device-crash rate x placement policy. Every
//! capacity cell is differentially verified in-process against the
//! uninterrupted single-device baseline with [`vfpga::diff_reports`]: a
//! fleet under device crashes must lose no admitted work a checkpointed
//! single device would have kept (divergence aborts the bench). The
//! ablation cell removes spare capacity, retries, and the software
//! fallback — its tasks land in the disjoint `lost_in_flight` slice,
//! proving the loss accounting and the capacity headroom are both real.

use super::RunArgs;
use crate::report::{f3, Table};
use crate::setup::{compile_suite_lib_sw, fleet_specs, save_restore, serial_fast, softwareize};
use crate::{Exporter, HostProfile};
use fpga::ConfigTiming;
use fsim::SimDuration;
use std::collections::BTreeMap;
use std::sync::Arc;
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{
    diff_reports, run_fleet, CheckpointConfig, CircuitLib, DeviceFaultPlan, FleetConfig,
    FleetReport, FleetStats, PlacementPolicy, PreemptAction, Report, RoundRobinScheduler, ShardCtx,
    System, TaskSpec, VfpgaError,
};
use workload::Domain;

/// One fleet shard: a whole-device dynamic-loading system, RR 4 ms, its
/// FPGA ops re-priced as software when the fleet degrades it.
pub fn shard_builder(
    lib: Arc<CircuitLib>,
    sw: Arc<BTreeMap<u32, u64>>,
    timing: ConfigTiming,
) -> impl FnMut(&ShardCtx<'_>) -> Result<System<DynLoadManager, RoundRobinScheduler>, VfpgaError> {
    move |ctx| {
        let specs = if ctx.software {
            softwareize(ctx.specs, &sw)
        } else {
            ctx.specs.to_vec()
        };
        let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore);
        Ok(System::new(
            lib.clone(),
            mgr,
            RoundRobinScheduler::new(SimDuration::from_millis(4)),
            save_restore(),
            specs,
        ))
    }
}

/// All four tenants on one plain `System`, no fleet around it.
fn single_device(
    lib: &Arc<CircuitLib>,
    sw: &Arc<BTreeMap<u32, u64>>,
    timing: ConfigTiming,
    specs: &[TaskSpec],
) -> Result<Report, VfpgaError> {
    shard_builder(lib.clone(), sw.clone(), timing)(&ShardCtx {
        shard: 0,
        device: vfpga::DeviceId(0),
        home: vfpga::DeviceId(0),
        tenants: &[0, 1, 2, 3],
        specs,
        software: false,
    })?
    .run()
}

struct Cell {
    label: String,
    devices: u32,
    rate_name: &'static str,
    ablation: bool,
    divergences: Vec<vfpga::Divergence>,
    fleet: FleetReport,
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let smoke = args.smoke;
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF400");
    let (lib, ids, sw) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec)
    });
    let sw = Arc::new(sw);
    let timing = serial_fast(spec);

    // Uninterrupted single-device reference: what a fleet must not lose.
    let baseline = host.phase(crate::sections::PHASE_BASELINE, || {
        single_device(&lib, &sw, timing, &fleet_specs(&ids, seed, 1))
            .map_err(|e| format!("baseline run failed: {e}"))
    })?;

    // (label fragment, device-crash rate per simulated second)
    let rates: &[(&str, f64)] = if smoke {
        &[("none", 0.0), ("storm", 150.0)]
    } else {
        &[("none", 0.0), ("rare", 40.0), ("storm", 150.0)]
    };
    let placements: &[PlacementPolicy] = if smoke {
        &[PlacementPolicy::RoundRobin, PlacementPolicy::Affinity]
    } else {
        &[
            PlacementPolicy::RoundRobin,
            PlacementPolicy::LeastLoaded,
            PlacementPolicy::Affinity,
        ]
    };

    // (devices, rate name, rate, placement, ablation)
    let mut points: Vec<(u32, &str, f64, PlacementPolicy, bool)> = Vec::new();
    for &(rname, rate) in rates {
        points.push((1, rname, rate, PlacementPolicy::RoundRobin, false));
        for &p in placements {
            points.push((4, rname, rate, p, false));
        }
    }
    // Ablation: two saturated devices, no retries, no fallback — the
    // crash has nowhere to go and the loss accounting must show it.
    points.push((2, "storm", 150.0, PlacementPolicy::RoundRobin, true));

    let cells: Vec<Cell> = host
        .sweep(
            &points,
            |_, &(devices, rname, rate, placement, ablation)| {
                let mut cfg = FleetConfig::new(devices)
                    .with_placement(placement)
                    .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(1)))
                    .with_device_faults(DeviceFaultPlan {
                        seed,
                        crash_rate_per_s: rate,
                        outage: SimDuration::from_millis(2),
                        max_crashes: 3,
                    });
                if ablation {
                    cfg = cfg
                        .with_max_shards_per_device(1)
                        .with_failover_retry(0, SimDuration::from_millis(1))
                        .without_software_fallback();
                }
                let fleet = run_fleet(
                    &cfg,
                    fleet_specs(&ids, seed, devices),
                    shard_builder(lib.clone(), sw.clone(), timing),
                )
                .map_err(|e| format!("fleet run failed ({devices} dev, {rname}): {e}"))?;
                let divergences = diff_reports(&baseline, &fleet.merged);
                Ok(Cell {
                    label: format!(
                        "d{devices}/{rname}/{}{}",
                        placement.name(),
                        if ablation { "/ablation" } else { "" }
                    ),
                    devices,
                    rate_name: rname,
                    ablation,
                    divergences,
                    fleet,
                })
            },
        )
        .into_iter()
        .collect::<Result<_, String>>()?;

    // In-process acceptance gates. A capacity cell that loses work, or
    // diverges from the single-device outcomes, is a correctness bug.
    let mut storm_failovers = 0u64;
    for c in &cells {
        let st = c.fleet.stats;
        let r = &c.fleet.merged;
        assert_eq!(
            r.tasks.len(),
            fleet_specs(&ids, seed, c.devices).len(),
            "{}: task conservation",
            c.label
        );
        // Liveness: every task reached a terminal state — completed, or
        // explicitly counted lost. Nothing is silently stuck.
        let flagged = r.tasks.iter().filter(|t| t.lost_in_flight).count() as u64;
        assert_eq!(flagged, st.lost_in_flight, "{}: lost accounting", c.label);
        if c.ablation {
            if st.lost_in_flight == 0 {
                return Err(format!("ablation cell {} lost nothing", c.label));
            }
        } else {
            if st.lost_in_flight != 0 {
                return Err(format!("capacity cell {} lost work: {st:?}", c.label));
            }
            if !c.divergences.is_empty() {
                return Err(super::diverged(
                    format!("capacity cell {} diverged from baseline", c.label),
                    &c.divergences,
                ));
            }
        }
        if c.rate_name == "none" && st != FleetStats::default() {
            return Err(format!(
                "zero-rate cell {} moved fleet counters: {st:?}",
                c.label
            ));
        }
        if c.rate_name == "storm" && !c.ablation {
            storm_failovers += st.failovers + st.software_fallbacks;
        }
    }
    if storm_failovers == 0 {
        return Err("no storm cell exercised a failover".into());
    }

    let mut ex = Exporter::new("e19", "fleet device crashes x placement x failover");
    ex.seed(seed)
        .param("device", spec.name)
        .param("tasks", 12u64)
        .param("tenants", 4u64)
        .param("smoke", smoke);

    let mut t = Table::new(
        "E19: fleet fault tolerance (dynload shards, RR 4ms, ckpt 1ms + journal)",
        &[
            "cell",
            "dev-crashes",
            "rejoins",
            "failovers",
            "migr-claims",
            "lost",
            "rebal",
            "sw-fb",
            "redo (ms)",
            "mig p50 (ms)",
            "mig p95 (ms)",
            "makespan (ms)",
            "diverged",
        ],
    );
    for c in &cells {
        let st = c.fleet.stats;
        let lat = &c.fleet.migration_lat;
        t.row(vec![
            c.label.clone(),
            st.device_crashes.to_string(),
            st.rejoins.to_string(),
            st.failovers.to_string(),
            st.migrated_claims.to_string(),
            st.lost_in_flight.to_string(),
            st.rebalances.to_string(),
            st.software_fallbacks.to_string(),
            f3(st.redo_time.as_secs_f64() * 1e3),
            f3(lat.quantile_ns(0.50) as f64 / 1e6),
            f3(lat.quantile_ns(0.95) as f64 / 1e6),
            f3(c.fleet.merged.makespan.as_secs_f64() * 1e3),
            c.divergences.len().to_string(),
        ]);
        ex.report(&c.label, &c.fleet.merged);
        ex.metrics().inc("fleet_failovers", st.failovers);
        ex.metrics().inc("fleet_lost_in_flight", st.lost_in_flight);
        ex.metrics()
            .inc("fleet_migrated_claims", st.migrated_claims);
        ex.metrics().inc("fleet_rebalances", st.rebalances);
    }

    t.print();
    ex.table(&t);
    ex.host(host, points.len());

    println!("\nEvery capacity cell under device crashes restored to outcomes identical to");
    println!("the uninterrupted single-device baseline (the bench aborts otherwise): the");
    println!("fleet loses nothing a checkpointed single device would have kept. The");
    println!("ablation cell — no headroom, no retries, no software fallback — shows the");
    println!("same crashes landing in the disjoint lost_in_flight slice instead.");
    Ok(ex)
}

/// A plain single-device system and a 1-device zero-fault fleet of the
/// same workload, each as an export: the two must be byte-identical.
pub fn equivalence(seed: u64) -> (Exporter, Exporter) {
    let spec = fpga::device::part("VF400");
    let (lib, ids, sw) = compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec);
    let timing = serial_fast(spec);
    let (sp, sw) = (fleet_specs(&ids, seed, 1), Arc::new(sw));
    let single = single_device(&lib, &sw, timing, &sp).expect("single run");
    let shards = shard_builder(lib, sw, timing);
    let fleet = run_fleet(&FleetConfig::new(1), sp, shards).expect("fleet run");
    let export = |r: &Report| {
        let mut ex = Exporter::new("e19-equiv", "1-device fleet vs plain system");
        ex.seed(seed).param("tasks", 12u64);
        ex.report("equiv", r);
        ex
    };
    (export(&single), export(&fleet.merged))
}
