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

use super::grid::{self, axis, ensure, Column, Gate, Grid};
use super::RunArgs;
use crate::report::{f3, millis};
use crate::setup::{compile_suite_lib_sw, fleet_shards, fleet_specs, serial_fast};
use crate::Exporter;
use fpga::ConfigTiming;
use fsim::SimDuration;
use std::collections::BTreeMap;
use std::sync::Arc;
use vfpga::manager::dynload::DynLoadManager;
use vfpga::PlacementPolicy::{self, Affinity, LeastLoaded, RoundRobin};
use vfpga::{
    diff_reports, run_fleet, CheckpointConfig, CircuitLib, DeviceFaultPlan, Divergence,
    FleetConfig, FleetReport, FleetStats, PreemptAction, Report, ShardCtx, TaskSpec, VfpgaError,
};
use workload::Domain;

/// A fleet cell of E19 or E21, as the fleet gates read it.
pub(super) struct FleetCell {
    pub fleet: FleetReport,
    /// How many tasks the workload held: every one must come back.
    pub tasks: usize,
    /// How the outcomes differ from the cell's reference run.
    pub divergences: Vec<Divergence>,
    /// A zero-rate cell, which must move no fleet counter.
    pub quiet: bool,
    /// The ablation, which is meant to lose work (and so to diverge).
    pub lossy: bool,
}

impl FleetCell {
    pub fn st(&self) -> FleetStats {
        self.fleet.stats
    }

    /// The migration-latency quantile `q`, in ms, for a table.
    pub fn mig_ms(&self, q: f64) -> String {
        f3(self.fleet.migration_lat.quantile_ns(q) as f64 / 1e6)
    }
}

/// The gates every fleet cell of E19 and E21 passes: tasks are conserved,
/// the lost flags agree with the counter, no work is lost and no outcome
/// diverges (unless the cell is the ablation), and a zero-rate cell moves
/// no fleet counter.
pub(super) fn fleet_gates<P>() -> [Gate<P, FleetCell>; 5] {
    [
        Gate::Each("task conservation", |c| {
            let n = c.out.fleet.merged.tasks.len();
            ensure(n == c.out.tasks, || format!("{n} tasks back"))
        }),
        Gate::Each("lost accounting", |c| {
            let tasks = &c.out.fleet.merged.tasks;
            let flagged = tasks.iter().filter(|t| t.lost_in_flight).count() as u64;
            ensure(flagged == c.out.st().lost_in_flight, || {
                format!("{flagged} flagged")
            })
        }),
        Gate::Each("loses no work", |c| {
            let st = c.out.st();
            ensure(c.out.lossy || st.lost_in_flight == 0, || format!("{st:?}"))
        }),
        Gate::Each("matches its baseline", |c| match c.out.lossy {
            true => Ok(()),
            false => super::no_divergence(&c.out.divergences),
        }),
        Gate::Each("zero rate moves no fleet counter", |c| {
            let st = c.out.st();
            ensure(!c.out.quiet || st == FleetStats::default(), || {
                format!("{st:?}")
            })
        }),
    ]
}

/// The manager of E19's shards: whole-device dynamic loading.
fn dynload(timing: ConfigTiming) -> impl Fn(&Arc<CircuitLib>) -> DynLoadManager {
    move |lib| DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore)
}

/// All four tenants on one plain `System`, no fleet around it.
fn single_device(
    lib: &Arc<CircuitLib>,
    sw: &Arc<BTreeMap<u32, u64>>,
    timing: ConfigTiming,
    specs: &[TaskSpec],
) -> Result<Report, VfpgaError> {
    fleet_shards(lib, sw, dynload(timing))(&ShardCtx {
        shard: 0,
        device: vfpga::DeviceId(0),
        home: vfpga::DeviceId(0),
        tenants: &[0, 1, 2, 3],
        specs,
        software: false,
    })?
    .run()
}

/// A device-crash rate per simulated second (and its label), the
/// devices and their placement, and whether this is the ablation.
type Point = ((&'static str, f64), (u32, PlacementPolicy), bool);

const RATES_SMOKE: [(&str, f64); 2] = [("none", 0.0), ("storm", 150.0)];
const RATES: [(&str, f64); 3] = [("none", 0.0), ("rare", 40.0), ("storm", 150.0)];
const SHAPES_SMOKE: [(u32, PlacementPolicy); 3] = [(1, RoundRobin), (4, RoundRobin), (4, Affinity)];
const SHAPES: [(u32, PlacementPolicy); 4] = [
    (1, RoundRobin),
    (4, RoundRobin),
    (4, LeastLoaded),
    (4, Affinity),
];

/// The fleet of `p`, checkpointing every 1 ms under seeded device crashes.
/// The ablation has no headroom, no retries and no software fallback.
fn fleet_config(((_, rate), (devices, placement), ablation): Point, seed: u64) -> FleetConfig {
    let cfg = FleetConfig::new(devices)
        .with_placement(placement)
        .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(1)))
        .with_device_faults(DeviceFaultPlan {
            seed,
            crash_rate_per_s: rate,
            outage: SimDuration::from_millis(2),
            max_crashes: 3,
        });
    match ablation {
        false => cfg,
        true => cfg
            .with_max_shards_per_device(1)
            .with_failover_retry(0, SimDuration::from_millis(1))
            .without_software_fallback(),
    }
}

/// A capacity cell that loses work, or diverges from the single-device
/// outcomes, is a correctness bug (the fleet gates); the ablation must
/// lose some, and the storm must make the fleet fail over.
const GATES: [Gate<Point, FleetCell>; 2] = [
    Gate::Each("the ablation loses work", |c| {
        ensure(!c.point.2 || c.out.st().lost_in_flight > 0, || {
            "lost nothing".into()
        })
    }),
    Gate::All("a storm cell fails over", |cells| {
        let storm = cells
            .iter()
            .filter(|c| c.point.0 .0 == "storm" && !c.point.2);
        let moved = storm.map(|c| c.out.st().failovers + c.out.st().software_fallbacks);
        ensure(moved.sum::<u64>() > 0, || "none did".into())
    }),
];

const COLUMNS: &[Column<Point, FleetCell>] = &[
    ("cell", |c| c.label.clone()),
    ("dev-crashes", |c| c.out.st().device_crashes.to_string()),
    ("rejoins", |c| c.out.st().rejoins.to_string()),
    ("failovers", |c| c.out.st().failovers.to_string()),
    ("migr-claims", |c| c.out.st().migrated_claims.to_string()),
    ("lost", |c| c.out.st().lost_in_flight.to_string()),
    ("rebal", |c| c.out.st().rebalances.to_string()),
    ("sw-fb", |c| c.out.st().software_fallbacks.to_string()),
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

    // Uninterrupted single-device reference: what a fleet must not lose.
    let baseline = single_device(&lib, &sw, timing, &fleet_specs(&ids, seed, 1))
        .map_err(|e| format!("baseline run failed: {e}"))?;

    let cell = |&p: &Point| {
        let specs = fleet_specs(&ids, seed, p.1 .0);
        let tasks = specs.len();
        let fleet = run_fleet(
            &fleet_config(p, seed),
            specs,
            fleet_shards(&lib, &sw, dynload(timing)),
        )
        .map_err(|e| format!("fleet run failed: {e}"))?;
        Ok(FleetCell {
            divergences: diff_reports(&baseline, &fleet.merged),
            tasks,
            quiet: p.0 .1 == 0.0,
            lossy: p.2,
            fleet,
        })
    };
    let grid = Grid {
        code: "e19",
        title: "fleet device crashes x placement x failover",
        seed,
        params: vec![
            ("device", spec.name.into()),
            ("tasks", 12u64.into()),
            ("tenants", 4u64.into()),
        ],
        points: vec![
            grid::product(
                (RATES[0], SHAPES[0], false),
                vec![
                    axis(&RATES_SMOKE, &RATES, |p, v| p.0 = v),
                    axis(&SHAPES_SMOKE, &SHAPES, |p, v| p.1 = v),
                ],
            ),
            // Ablation: two saturated devices, no retries, no fallback —
            // the crash has nowhere to go and the loss accounting must
            // show it.
            grid::points(vec![(("storm", 150.0), (2, RoundRobin), true)]),
        ],
        label: |&((rate, _), (devices, placement), ablation)| {
            let ablation = if ablation { "/ablation" } else { "" };
            format!("d{devices}/{rate}/{}{ablation}", placement.name())
        },
        cell: &cell,
        gates: &[&fleet_gates()[..], &GATES].concat(),
        table: "E19: fleet fault tolerance (dynload shards, RR 4ms, ckpt 1ms + journal)",
        columns: COLUMNS,
        reports: |c| vec![(c.label.clone(), &c.out.fleet.merged)],
        finish: |cells, ex| {
            for st in cells.iter().map(|c| c.out.st()) {
                ex.metrics().inc("fleet_failovers", st.failovers);
                ex.metrics().inc("fleet_lost_in_flight", st.lost_in_flight);
                ex.metrics()
                    .inc("fleet_migrated_claims", st.migrated_claims);
                ex.metrics().inc("fleet_rebalances", st.rebalances);
            }
        },
        outro: "\nEvery capacity cell under device crashes restored to outcomes identical to\n\
                the uninterrupted single-device baseline (the bench aborts otherwise): the\n\
                fleet loses nothing a checkpointed single device would have kept. The\n\
                ablation cell — no headroom, no retries, no software fallback — shows the\n\
                same crashes landing in the disjoint lost_in_flight slice instead.\n",
        ..Grid::default()
    };
    grid::run(args, grid)
}

/// A plain single-device system and a 1-device zero-fault fleet of the
/// same workload, each as an export: the two must be byte-identical.
pub fn equivalence(seed: u64) -> (Exporter, Exporter) {
    let spec = fpga::device::part("VF400");
    let (lib, ids, sw) = compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec);
    let timing = serial_fast(spec);
    let (sp, sw) = (fleet_specs(&ids, seed, 1), Arc::new(sw));
    let single = single_device(&lib, &sw, timing, &sp).expect("single run");
    let fleet = run_fleet(
        &FleetConfig::new(1),
        sp,
        fleet_shards(&lib, &sw, dynload(timing)),
    )
    .expect("fleet run");
    let export = |r: &Report| {
        let mut ex = Exporter::new("e19-equiv", "1-device fleet vs plain system");
        ex.seed(seed).param("tasks", 12u64);
        ex.report("equiv", r);
        ex
    };
    (export(&single), export(&fleet.merged))
}
