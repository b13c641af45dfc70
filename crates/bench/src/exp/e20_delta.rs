//! E20 — Delta reconfiguration: similarity x swap rate x delta on/off.
//!
//! The paper's dominant overhead is configuration traffic: every virtual
//! FPGA swap pays a full bitstream download even when the incoming
//! circuit shares most of its frames with the previous occupant of the
//! same columns. This sweep quantifies the delta-download path end to
//! end: circuit families generated at a controlled similarity
//! ([`workload::variant_family`] — `1.0` is bit-identical, `0.0` shares
//! nothing), two swap rates, and the delta feature on or off over the
//! identical workload.
//!
//! Every cell pair is differentially verified in-process with
//! [`vfpga::diff_reports`]: delta pricing must change *when* work
//! finishes, never *what* work happens — any outcome divergence aborts
//! the bench. The delta cell must also beat (or tie, at zero similarity)
//! its full-download twin on config overhead, and its delta checkpoints
//! (full anchor every 4th capture) must not read back more than the
//! full-capture twin.

use super::grid::{self, axis, ensure, Column, Gate, Grid};
use super::no_divergence;
use super::RunArgs;
use crate::report::millis;
use crate::setup::{save_restore, serial_fast, variable_partitions};
use crate::Exporter;
use fpga::ConfigTiming;
use fsim::{SimDuration, SimRng};
use std::sync::Arc;
use vfpga::manager::DeltaStats;
use vfpga::{
    diff_reports, CheckpointConfig, CircuitLib, Divergence, Report, RoundRobinScheduler, System,
};
use workload::{poisson_tasks, variant_family, MixParams};

/// A swap rate: name, mean interarrival and mean CPU burst — how densely
/// tasks contend for the fabric.
type Rate = (&'static str, SimDuration, SimDuration);

const FAST: Rate = (
    "fast",
    SimDuration::from_millis(1),
    SimDuration::from_micros(500),
);
const SLOW: Rate = (
    "slow",
    SimDuration::from_millis(6),
    SimDuration::from_millis(4),
);

fn run_cell(
    base: &pnr::CompiledCircuit,
    timing: ConfigTiming,
    (similarity, (_, mean_interarrival, mean_cpu_burst)): (f64, Rate),
    delta: bool,
    seed: u64,
) -> Report {
    // Each cell builds its own library so the family's ids are stable
    // regardless of which other cells ran: base + 3 variants.
    let mut lib = CircuitLib::new();
    let ids = variant_family(&mut lib, base.clone(), 3, similarity, seed);
    let lib = Arc::new(lib);
    let mix = MixParams {
        tasks: 10,
        mean_interarrival,
        mean_cpu_burst,
        fpga_ops_per_task: 4,
        cycles: (40_000, 160_000),
    };
    let specs = poisson_tasks(&mix, &ids, &mut SimRng::new(seed));
    let mut mgr = variable_partitions(&lib, timing);
    let mut ckpt = CheckpointConfig::new(SimDuration::from_millis(2));
    if delta {
        mgr.enable_delta();
        ckpt = ckpt.with_delta_checkpoints(4);
    }
    let rr = RoundRobinScheduler::new(SimDuration::from_millis(2));
    System::new(lib, mgr, rr, save_restore(), specs)
        .with_checkpoints(ckpt)
        .expect("partition manager snapshots")
        .run()
        .expect("cell run completes")
}

/// One workload with delta off and on, and how their outcomes differ.
struct Twins {
    full: Report,
    delta: Report,
    divergences: Vec<Divergence>,
}

impl Twins {
    /// The delta twin's delta counters.
    fn ds(&self) -> DeltaStats {
        self.delta.delta.unwrap_or_default()
    }
}

/// A family similarity and a swap rate.
type Point = (f64, Rate);
type Cell = grid::Cell<Point, Twins>;

/// The full and the delta twin's configuration time.
fn config_times(c: &Cell) -> (SimDuration, SimDuration) {
    let config = |r: &Report| r.manager_stats.config_time;
    (config(&c.out.full), config(&c.out.delta))
}

/// Identical outcomes, cheaper config.
const GATES: &[Gate<Point, Twins>] = &[
    Gate::Each("delta keeps task outcomes", |c| {
        no_divergence(&c.out.divergences)
    }),
    Gate::Each("only the delta twin reports delta stats", |c| {
        ensure(
            c.out.full.delta.is_none() && c.out.delta.delta.is_some(),
            || format!("full {:?}, delta {:?}", c.out.full.delta, c.out.delta.delta),
        )
    }),
    Gate::Each("delta config costs no more than full", |c| {
        let (full, delta) = config_times(c);
        ensure(delta <= full, || format!("{delta:?} > {full:?}"))
    }),
    Gate::Each("a similar family goes delta and gains", |c| {
        let ((full, delta), went) = (config_times(c), c.out.ds().delta_downloads > 0);
        ensure(c.point.0 < 0.5 || went && delta < full, || {
            format!("{delta:?} vs {full:?}")
        })
    }),
    Gate::Each("delta checkpoints read back no more than full", |c| {
        let (f, d) = (
            c.out.full.crash.checkpoint_time,
            c.out.delta.crash.checkpoint_time,
        );
        ensure(d <= f, || format!("{d:?} > {f:?}"))
    }),
];

const COLUMNS: &[Column<Point, Twins>] = &[
    ("cell", |c| c.label.clone()),
    ("downloads", |c| {
        c.out.delta.manager_stats.downloads.to_string()
    }),
    ("delta-dl", |c| c.out.ds().delta_downloads.to_string()),
    ("frames-saved", |c| c.out.ds().frames_saved.to_string()),
    ("invalidations", |c| c.out.ds().invalidations.to_string()),
    ("config full (ms)", |c| millis(config_times(c).0)),
    ("config delta (ms)", |c| millis(config_times(c).1)),
    ("ckpt full (ms)", |c| {
        millis(c.out.full.crash.checkpoint_time)
    }),
    ("ckpt delta (ms)", |c| {
        millis(c.out.delta.crash.checkpoint_time)
    }),
    ("diverged", |c| c.out.divergences.len().to_string()),
];

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let spec = fpga::device::part("VF100");
    let timing = serial_fast(spec);

    // One base circuit, compiled once: full-height columns so every
    // family member is a drop-in column-range occupant.
    let base = pnr::compile(
        &netlist::library::arith::array_multiplier("e20mul", 4),
        pnr::CompileOptions {
            max_height: spec.rows,
            full_height: true,
            ..Default::default()
        },
    )
    .expect("family base compiles");
    let cell = |&p: &Point| {
        let full = run_cell(&base, timing, p, false, seed);
        let delta = run_cell(&base, timing, p, true, seed);
        let divergences = diff_reports(&full, &delta);
        Ok(Twins {
            full,
            delta,
            divergences,
        })
    };
    let grid = Grid {
        code: "e20",
        title: "delta reconfiguration: similarity x swap rate x on/off",
        seed,
        params: vec![
            ("device", spec.name.into()),
            ("tasks", 10u64.into()),
            ("variants", 4u64.into()),
        ],
        points: vec![grid::product(
            (1.0, FAST),
            vec![
                axis(&[1.0, 0.5], &[1.0, 0.75, 0.5, 0.0], |p, v| p.0 = v),
                axis(&[FAST], &[FAST, SLOW], |p, v| p.1 = v),
            ],
        )],
        label: |(similarity, rate)| format!("sim{similarity:.2}/{}", rate.0),
        cell: &cell,
        gates: GATES,
        table: "E20: delta vs full downloads (partition/variable, RR 2ms, ckpt 2ms; \
                delta anchors every 4)",
        columns: COLUMNS,
        reports: |c| {
            vec![
                (format!("{}/full", c.label), &c.out.full),
                (format!("{}/delta", c.label), &c.out.delta),
            ]
        },
        finish: |cells, ex| {
            for ds in cells.iter().map(|c| c.out.ds()) {
                ex.metrics().inc("delta_downloads", ds.delta_downloads);
                ex.metrics().inc("delta_frames_saved", ds.frames_saved);
                ex.metrics().inc("delta_invalidations", ds.invalidations);
            }
        },
        outro: "\nEvery delta cell reached task outcomes identical to its full-download twin\n\
                (the bench aborts otherwise) while paying less config overhead whenever the\n\
                family shares at least half its frames — delta pricing changes when work\n\
                finishes, never what work happens. Delta checkpoints (full anchor every 4th\n\
                capture) cut the background readback the same way.\n",
        ..Grid::default()
    };
    grid::run(args, grid)
}
