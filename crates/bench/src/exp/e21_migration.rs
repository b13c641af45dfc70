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

use super::e19_fleet::{fleet_gates, FleetCell};
use super::grid::{self, axis, ensure, fixed, Column, Gate, Grid};
use super::RunArgs;
use crate::report::millis;
use crate::setup::variable_partitions;
use crate::setup::{compile_suite_lib_sw, fleet_shards, fleet_specs, serial_fast};
use crate::Exporter;
use fsim::MigrationCrashWindow::{self, BetweenCommitAndFree, DestMidCopy, SourceMidPrepare};
use fsim::SimDuration;
use std::collections::BTreeSet;
use std::sync::Arc;
use vfpga::{
    diff_reports, run_fleet, CheckpointConfig, FleetConfig, FleetReport, MigrationPlan,
    PlacementPolicy,
};
use workload::Domain;

/// A migration schedule: label fragment, rate per simulated second, most
/// migrations, and the protocol window a host crash targets (the first
/// attempt's), if any.
type Schedule = (&'static str, f64, u32, Option<MigrationCrashWindow>);

const NONE: Schedule = ("none", 0.0, 0, None);
const CHURN: Schedule = ("churn", 400.0, 3, None);
const fn crash(w: MigrationCrashWindow) -> Schedule {
    ("churn", 400.0, 2, Some(w))
}
const SCHEDULES_SMOKE: [Schedule; 5] = [
    NONE,
    CHURN,
    crash(SourceMidPrepare),
    crash(DestMidCopy),
    crash(BetweenCommitAndFree),
];
const SCHEDULES: [Schedule; 6] = [
    NONE,
    ("slow", 120.0, 1, None),
    CHURN,
    crash(SourceMidPrepare),
    crash(DestMidCopy),
    crash(BetweenCommitAndFree),
];

/// A migration schedule, delta copy on/off, and whether this is the
/// rebalance cell.
type Point = (Schedule, bool, bool);

fn window_name(w: Option<MigrationCrashWindow>) -> &'static str {
    w.map(|w| w.name()).unwrap_or("no-crash")
}

/// A crash resolves the way its window says, and a crash-free cell
/// migrates without aborting.
fn window_resolves(c: &grid::Cell<Point, FleetCell>) -> Result<(), String> {
    let (st, (_, rate, _, window)) = (c.out.st(), c.point.0);
    let ok = match window {
        // Commit won: replay must redo the source-free, never abort.
        Some(BetweenCommitAndFree) => st.migration_redone_frees > 0,
        // Intent without commit: replay must roll the tenant back.
        Some(_) => st.migration_aborts > 0,
        None => rate == 0.0 || (st.tenant_migrations > 0 && st.migration_aborts == 0),
    };
    ensure(ok, || format!("{st:?}"))
}

/// The rebalance cell spreads the pile over more than one device.
fn rebalance_spreads(c: &grid::Cell<Point, FleetCell>) -> Result<(), String> {
    let shards = c.out.fleet.shards.iter().filter(|s| !s.tenants.is_empty());
    let hosts: BTreeSet<u32> = shards.filter_map(|s| s.final_host.map(|d| d.0)).collect();
    let spread = c.out.st().tenant_migrations >= 2 && hosts.len() >= 2;
    ensure(!c.point.2 || spread, || {
        format!("hosts {hosts:?}: {:?}", c.out.st())
    })
}

/// A fleet of `devices`, at most 4 shards a device, checkpointing every 1 ms.
fn base_cfg(devices: u32) -> FleetConfig {
    FleetConfig::new(devices)
        .with_max_shards_per_device(4)
        .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(1)))
}

/// `p`'s fleet under its migration schedule, and over how many devices
/// the tenants' affinity hints cycle. The rebalance cell has three
/// devices: every tenant starts piled on device 0 by affinity, and
/// least-loaded destination picking must spread them across BOTH idle
/// devices, not just swing the pile to the other end of a two-device
/// seesaw.
fn migration_config(
    ((_, rate, max, window), delta, rebalance): Point,
    seed: u64,
) -> (FleetConfig, u32) {
    let plan = MigrationPlan {
        seed: seed ^ 0x515EED,
        rate_per_s: rate,
        max_migrations: max,
        delta_copy: delta,
        crash: window.map(|w| (0, w)),
    };
    match rebalance {
        false => (base_cfg(2).with_migrations(plan), 2),
        true => (
            base_cfg(3)
                .with_migrations(plan)
                .with_placement(PlacementPolicy::Affinity),
            1,
        ),
    }
}

/// The protocol's whole claim: a crash in any window changes *nothing*
/// about task outcomes (the fleet gates), and crashes resolve the way
/// their window says.
const GATES: [Gate<Point, FleetCell>; 3] = [
    Gate::Each("crash window resolves", window_resolves),
    Gate::Each("rebalance spreads the pile", rebalance_spreads),
    Gate::All("a cell migrates", |cells| {
        ensure(
            cells.iter().any(|c| c.out.st().tenant_migrations > 0),
            || "none did".into(),
        )
    }),
];

const COLUMNS: &[Column<Point, FleetCell>] = &[
    ("cell", |c| c.label.clone()),
    ("migrations", |c| c.out.st().tenant_migrations.to_string()),
    ("aborts", |c| c.out.st().migration_aborts.to_string()),
    ("redone-frees", |c| {
        c.out.st().migration_redone_frees.to_string()
    }),
    ("migr-claims", |c| c.out.st().migrated_claims.to_string()),
    ("lost", |c| c.out.st().lost_in_flight.to_string()),
    ("redo (ms)", |c| millis(c.out.st().redo_time)),
    ("mig p50 (ms)", |c| c.out.mig_ms(0.50)),
    ("mig p95 (ms)", |c| c.out.mig_ms(0.95)),
    ("makespan (ms)", |c| millis(c.out.fleet.merged.makespan)),
    ("diverged", |c| c.out.divergences.len().to_string()),
];

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let spec = fpga::device::part("VF400");
    let (lib, ids, sw) = compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec);
    let sw = Arc::new(sw);
    let timing = serial_fast(spec);
    // Partition shards, with delta downloads when the cell copies delta.
    // No e21 cell saturates the fleet, so the software path is dead in
    // practice, but a valid `run_fleet` factory must honour the flag.
    let fleet = |cfg: &FleetConfig, hinted, delta| {
        let partitions = move |lib: &_| {
            let mut mgr = variable_partitions(lib, timing);
            if delta {
                mgr.enable_delta();
            }
            mgr
        };
        let specs = fleet_specs(&ids, seed, hinted);
        run_fleet(cfg, specs, fleet_shards(&lib, &sw, partitions))
            .map_err(|e| format!("fleet run failed: {e}"))
    };

    // Migration-free references, one per delta flavor: the protocol must
    // reproduce these task outcomes exactly, crashes or not.
    let baselines: Vec<FleetReport> = [false, true]
        .map(|delta| fleet(&base_cfg(2), 2, delta))
        .into_iter()
        .collect::<Result<_, String>>()?;

    let cell = |&p: &Point| {
        let (_, delta, rebalance) = p;
        let (cfg, hinted) = migration_config(p, seed);
        let run = fleet(&cfg, hinted, delta)?;
        // The rebalance cell runs a different initial placement, so its
        // reference is the single-shard affinity layout without
        // migrations; every other cell diffs against the shared
        // round-robin baseline of its delta flavor.
        let divergences = if rebalance {
            let cfg = base_cfg(3).with_placement(PlacementPolicy::Affinity);
            diff_reports(&fleet(&cfg, 1, delta)?.merged, &run.merged)
        } else {
            diff_reports(&baselines[delta as usize].merged, &run.merged)
        };
        Ok(FleetCell {
            divergences,
            tasks: fleet_specs(&ids, seed, hinted).len(),
            quiet: p.0 .1 == 0.0,
            lossy: false,
            fleet: run,
        })
    };
    let grid = Grid {
        code: "e21",
        title: "live migration rate x crash window x delta copy",
        seed,
        params: vec![
            ("device", spec.name.into()),
            ("tasks", 12u64.into()),
            ("tenants", 4u64.into()),
        ],
        points: vec![
            grid::product(
                (NONE, false, false),
                vec![
                    fixed(&[false, true], |p, v| p.1 = v),
                    axis(&SCHEDULES_SMOKE, &SCHEDULES, |p, v| p.0 = v),
                ],
            ),
            grid::points(vec![(("rebalance", 400.0, 4, None), false, true)]),
        ],
        label: |&((rate, _, _, window), delta, _)| {
            let delta = if delta { "/delta" } else { "" };
            format!("{rate}/{}{delta}", window_name(window))
        },
        cell: &cell,
        gates: &[&fleet_gates()[..], &GATES].concat(),
        table: "E21: crash-safe live migration (partition shards, RR 4ms, ckpt 1ms + journal)",
        columns: COLUMNS,
        reports: |c| vec![(c.label.clone(), &c.out.fleet.merged)],
        finish: |cells, ex| {
            for st in cells.iter().map(|c| c.out.st()) {
                ex.metrics().inc("tenant_migrations", st.tenant_migrations);
                ex.metrics().inc("migration_aborts", st.migration_aborts);
                ex.metrics()
                    .inc("migration_redone_frees", st.migration_redone_frees);
                ex.metrics().inc("fleet_lost_in_flight", st.lost_in_flight);
            }
        },
        outro: "\nEvery cell — including a host crash inside each of the three migration\n\
                windows — produced task outcomes identical to the migration-free baseline\n\
                (the bench aborts otherwise): an intent without a commit rolls the tenant\n\
                back onto its source with the backlog intact, and a commit without the\n\
                source-free is completed idempotently by journal replay. The rebalance\n\
                cell starts with every tenant piled on one device and ends with the\n\
                placement drift corrected tenant-by-tenant onto the idle device.\n",
        ..Grid::default()
    };
    grid::run(args, grid)
}
