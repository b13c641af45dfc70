//! E21 — Crash-safe live migration of individual resident tenants.
//!
//! The fleet's two-phase protocol (see `vfpga::migrate` and DESIGN.md
//! §16) moves one tenant's column range between devices while its
//! backlog keeps running: *prepare* reserves the destination, snapshots
//! via the readback-priced checkpoint path, and journals a
//! `MigrationIntent` on both sides; *commit* downloads on the
//! destination (delta-anchored when a ghost exists), flips the placement
//! atomically, journals `MigrationCommit`, and frees the source columns.
//!
//! The sweep: migration rate x crash window x delta copy on/off. Every
//! cell — including the ones that kill a host inside each of the three
//! distinguishable protocol windows — is differentially verified
//! in-process against the migration-free fleet baseline with
//! [`vfpga::diff_reports`]: journal replay must resolve every window
//! (intent-without-commit undone, commit-without-free redone
//! idempotently) to the exact task outcomes an undisturbed run produces,
//! with zero work lost. A live-rebalance cell piles every tenant onto
//! one device by affinity and shows migrations correcting the placement
//! drift tenant-by-tenant onto the idle devices.

use super::RunArgs;
use crate::report::{f3, Table};
use crate::setup::{compile_suite_lib_sw, fleet_specs, save_restore, serial_fast, softwareize};
use crate::{Exporter, HostProfile};
use fpga::ConfigTiming;
use fsim::{MigrationCrashWindow, SimDuration};
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::sync::Arc;
use vfpga::manager::partition::{PartitionManager, PartitionMode};
use vfpga::{
    diff_reports, run_fleet, CheckpointConfig, CircuitLib, FleetConfig, FleetReport, FleetStats,
    MigrationPlan, PlacementPolicy, PreemptAction, RoundRobinScheduler, ShardCtx, System,
    VfpgaError,
};
use workload::Domain;

fn shard_builder(
    lib: Arc<CircuitLib>,
    sw: Arc<BTreeMap<u32, u64>>,
    timing: ConfigTiming,
    delta: bool,
) -> impl FnMut(&ShardCtx<'_>) -> Result<System<PartitionManager, RoundRobinScheduler>, VfpgaError>
{
    move |ctx| {
        // No e21 cell saturates the fleet, so the software path is dead in
        // practice, but a valid `run_fleet` factory must honour the flag.
        let specs = if ctx.software {
            softwareize(ctx.specs, &sw)
        } else {
            ctx.specs.to_vec()
        };
        let mut mgr = PartitionManager::new(
            lib.clone(),
            timing,
            PartitionMode::Variable,
            PreemptAction::SaveRestore,
        )?;
        if delta {
            mgr.enable_delta();
        }
        Ok(System::new(
            lib.clone(),
            mgr,
            RoundRobinScheduler::new(SimDuration::from_millis(4)),
            save_restore(),
            specs,
        ))
    }
}

#[derive(Clone, Copy)]
struct Point {
    rate_name: &'static str,
    rate: f64,
    max: u32,
    window: Option<MigrationCrashWindow>,
    delta: bool,
    rebalance: bool,
}

struct Cell {
    label: String,
    point: Point,
    divergences: Vec<vfpga::Divergence>,
    fleet: FleetReport,
}

fn window_name(w: Option<MigrationCrashWindow>) -> &'static str {
    w.map(|w| w.name()).unwrap_or("no-crash")
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

    let base_cfg = |devices: u32| {
        FleetConfig::new(devices)
            .with_max_shards_per_device(4)
            .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(1)))
    };

    // Migration-free references, one per delta flavor: the protocol must
    // reproduce these task outcomes exactly, crashes or not.
    let baselines: Vec<FleetReport> = host.phase(crate::sections::PHASE_BASELINE, || {
        [false, true]
            .iter()
            .map(|&delta| {
                run_fleet(
                    &base_cfg(2),
                    fleet_specs(&ids, seed, 2),
                    shard_builder(lib.clone(), sw.clone(), timing, delta),
                )
                .map_err(|e| format!("baseline fleet run failed (delta {delta}): {e}"))
            })
            .collect::<Result<_, String>>()
    })?;

    let windows = [
        MigrationCrashWindow::SourceMidPrepare,
        MigrationCrashWindow::DestMidCopy,
        MigrationCrashWindow::BetweenCommitAndFree,
    ];
    let mut points: Vec<Point> = Vec::new();
    for &delta in &[false, true] {
        points.push(Point {
            rate_name: "none",
            rate: 0.0,
            max: 0,
            window: None,
            delta,
            rebalance: false,
        });
        if !smoke {
            points.push(Point {
                rate_name: "slow",
                rate: 120.0,
                max: 1,
                window: None,
                delta,
                rebalance: false,
            });
        }
        points.push(Point {
            rate_name: "churn",
            rate: 400.0,
            max: 3,
            window: None,
            delta,
            rebalance: false,
        });
        // Crash inside each protocol window: the crash targets the first
        // migration attempt, and replay must resolve it.
        for &w in &windows {
            points.push(Point {
                rate_name: "churn",
                rate: 400.0,
                max: 2,
                window: Some(w),
                delta,
                rebalance: false,
            });
        }
    }
    points.push(Point {
        rate_name: "rebalance",
        rate: 400.0,
        max: 4,
        window: None,
        delta: false,
        rebalance: true,
    });

    let cells: Vec<Cell> = host
        .sweep(&points, |_, &p| {
            // Three devices for the rebalance cell: every tenant starts
            // piled on device 0, and least-loaded destination picking
            // must spread them across BOTH idle devices, not just swing
            // the pile to the other end of a two-device seesaw.
            let mut cfg =
                base_cfg(if p.rebalance { 3 } else { 2 }).with_migrations(MigrationPlan {
                    seed: seed ^ 0x515EED,
                    rate_per_s: p.rate,
                    max_migrations: p.max,
                    delta_copy: p.delta,
                    crash: p.window.map(|w| (0, w)),
                });
            // The rebalance cell pins everything onto device 0 by
            // affinity, then lets migrations spread the load back out.
            let sp = if p.rebalance {
                cfg = cfg.with_placement(PlacementPolicy::Affinity);
                fleet_specs(&ids, seed, 1)
            } else {
                fleet_specs(&ids, seed, 2)
            };
            let fleet = run_fleet(
                &cfg,
                sp,
                shard_builder(lib.clone(), sw.clone(), timing, p.delta),
            )
            .map_err(|e| {
                format!(
                    "fleet run failed ({}/{}): {e}",
                    p.rate_name,
                    window_name(p.window)
                )
            })?;
            // The rebalance cell runs a different initial placement, so
            // its reference is the single-shard affinity layout without
            // migrations; every other cell diffs against the shared
            // round-robin baseline of its delta flavor.
            let divergences = if p.rebalance {
                let reb_base = run_fleet(
                    &base_cfg(3).with_placement(PlacementPolicy::Affinity),
                    fleet_specs(&ids, seed, 1),
                    shard_builder(lib.clone(), sw.clone(), timing, p.delta),
                )
                .expect("rebalance baseline runs");
                diff_reports(&reb_base.merged, &fleet.merged)
            } else {
                diff_reports(&baselines[p.delta as usize].merged, &fleet.merged)
            };
            Ok(Cell {
                label: format!(
                    "{}/{}{}",
                    p.rate_name,
                    window_name(p.window),
                    if p.delta { "/delta" } else { "" }
                ),
                point: p,
                divergences,
                fleet,
            })
        })
        .into_iter()
        .collect::<Result<_, String>>()?;

    // In-process acceptance gates: the protocol's whole claim is that a
    // crash in any window changes *nothing* about task outcomes.
    let mut migrations_seen = 0u64;
    for c in &cells {
        let st = c.fleet.stats;
        let r = &c.fleet.merged;
        let n = fleet_specs(&ids, seed, 2).len();
        assert_eq!(r.tasks.len(), n, "{}: task conservation", c.label);
        let flagged = r.tasks.iter().filter(|t| t.lost_in_flight).count() as u64;
        assert_eq!(flagged, st.lost_in_flight, "{}: lost accounting", c.label);
        if st.lost_in_flight != 0 {
            return Err(format!("cell {} lost work in flight: {st:?}", c.label));
        }
        if !c.divergences.is_empty() {
            return Err(super::diverged(
                format!("cell {} diverged from baseline", c.label),
                &c.divergences,
            ));
        }
        if c.point.rate_name == "none" && st != FleetStats::default() {
            return Err(format!(
                "zero-rate cell {} moved fleet counters: {st:?}",
                c.label
            ));
        }
        match c.point.window {
            // Commit won: replay must redo the source-free, never abort.
            Some(MigrationCrashWindow::BetweenCommitAndFree) if st.migration_redone_frees == 0 => {
                return Err(format!("{} redid no source-free: {st:?}", c.label));
            }
            Some(MigrationCrashWindow::BetweenCommitAndFree) => {}
            // Intent without commit: replay must roll the tenant back.
            Some(_) if st.migration_aborts == 0 => {
                return Err(format!("{} aborted nothing: {st:?}", c.label));
            }
            Some(_) => {}
            None if c.point.rate > 0.0 => {
                if st.tenant_migrations == 0 {
                    return Err(format!("{} migrated nothing: {st:?}", c.label));
                }
                if st.migration_aborts != 0 {
                    return Err(format!("{} aborted without a crash: {st:?}", c.label));
                }
            }
            None => {}
        }
        if c.point.rebalance {
            if st.tenant_migrations < 2 {
                return Err(format!(
                    "rebalance cell corrected fewer than 2 tenants: {st:?}"
                ));
            }
            let hosts: BTreeSet<u32> = c
                .fleet
                .shards
                .iter()
                .filter(|s| !s.tenants.is_empty())
                .filter_map(|s| s.final_host.map(|d| d.0))
                .collect();
            if hosts.len() < 2 {
                return Err(format!(
                    "rebalance left every tenant on one device: {hosts:?}"
                ));
            }
        }
        migrations_seen += st.tenant_migrations;
    }
    if migrations_seen == 0 {
        return Err("no cell exercised a live migration".into());
    }

    let mut ex = Exporter::new("e21", "live migration rate x crash window x delta copy");
    ex.seed(seed)
        .param("device", spec.name)
        .param("tasks", 12u64)
        .param("tenants", 4u64)
        .param("smoke", smoke);

    let mut t = Table::new(
        "E21: crash-safe live migration (partition shards, RR 4ms, ckpt 1ms + journal)",
        &[
            "cell",
            "migrations",
            "aborts",
            "redone-frees",
            "migr-claims",
            "lost",
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
            st.tenant_migrations.to_string(),
            st.migration_aborts.to_string(),
            st.migration_redone_frees.to_string(),
            st.migrated_claims.to_string(),
            st.lost_in_flight.to_string(),
            f3(st.redo_time.as_secs_f64() * 1e3),
            f3(lat.quantile_ns(0.50) as f64 / 1e6),
            f3(lat.quantile_ns(0.95) as f64 / 1e6),
            f3(c.fleet.merged.makespan.as_secs_f64() * 1e3),
            c.divergences.len().to_string(),
        ]);
        ex.report(&c.label, &c.fleet.merged);
        ex.metrics().inc("tenant_migrations", st.tenant_migrations);
        ex.metrics().inc("migration_aborts", st.migration_aborts);
        ex.metrics()
            .inc("migration_redone_frees", st.migration_redone_frees);
        ex.metrics().inc("fleet_lost_in_flight", st.lost_in_flight);
    }

    t.print();
    ex.table(&t);
    ex.host(host, points.len());

    println!("\nEvery cell — including a host crash inside each of the three migration");
    println!("windows — produced task outcomes identical to the migration-free baseline");
    println!("(the bench aborts otherwise): an intent without a commit rolls the tenant");
    println!("back onto its source with the backlog intact, and a commit without the");
    println!("source-free is completed idempotently by journal replay. The rebalance");
    println!("cell starts with every tenant piled on one device and ends with the");
    println!("placement drift corrected tenant-by-tenant onto the idle device.");
    Ok(ex)
}
