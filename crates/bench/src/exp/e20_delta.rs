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

use super::RunArgs;
use crate::report::{f3, Table};
use crate::setup::{save_restore, serial_fast, variable_partitions};
use crate::{Exporter, HostProfile};
use fpga::ConfigTiming;
use fsim::{SimDuration, SimRng};
use std::sync::Arc;
use vfpga::{diff_reports, CheckpointConfig, CircuitLib, Report, RoundRobinScheduler, System};
use workload::{poisson_tasks, variant_family, MixParams};

/// One swap-rate setting: how densely tasks contend for the fabric.
struct Rate {
    name: &'static str,
    mean_interarrival: SimDuration,
    mean_cpu_burst: SimDuration,
}

fn run_cell(
    base: &pnr::CompiledCircuit,
    timing: ConfigTiming,
    similarity: f64,
    rate: &Rate,
    delta: bool,
    seed: u64,
) -> Report {
    // Each cell builds its own library so the family's ids are stable
    // regardless of which other cells ran: base + 3 variants.
    let mut lib = CircuitLib::new();
    let ids = variant_family(&mut lib, base.clone(), 3, similarity, seed);
    let lib = Arc::new(lib);
    let mut rng = SimRng::new(seed);
    let specs = poisson_tasks(
        &MixParams {
            tasks: 10,
            mean_interarrival: rate.mean_interarrival,
            mean_cpu_burst: rate.mean_cpu_burst,
            fpga_ops_per_task: 4,
            cycles: (40_000, 160_000),
        },
        &ids,
        &mut rng,
    );
    let mut mgr = variable_partitions(&lib, timing);
    if delta {
        mgr.enable_delta();
    }
    let ckpt = CheckpointConfig::new(SimDuration::from_millis(2));
    let ckpt = if delta {
        ckpt.with_delta_checkpoints(4)
    } else {
        ckpt
    };
    System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(SimDuration::from_millis(2)),
        save_restore(),
        specs,
    )
    .with_checkpoints(ckpt)
    .expect("partition manager snapshots")
    .run()
    .expect("cell run completes")
}

struct Cell {
    similarity: f64,
    rate_name: &'static str,
    full: Report,
    delta: Report,
    divergences: Vec<vfpga::Divergence>,
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let smoke = args.smoke;
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF100");
    let timing = serial_fast(spec);

    // One base circuit, compiled once: full-height columns so every
    // family member is a drop-in column-range occupant.
    let base = host.phase(crate::sections::PHASE_COMPILE, || {
        pnr::compile(
            &netlist::library::arith::array_multiplier("e20mul", 4),
            pnr::CompileOptions {
                max_height: spec.rows,
                full_height: true,
                ..Default::default()
            },
        )
        .expect("family base compiles")
    });

    let similarities: &[f64] = if smoke {
        &[1.0, 0.5]
    } else {
        &[1.0, 0.75, 0.5, 0.0]
    };
    let rates: &[Rate] = if smoke {
        &[Rate {
            name: "fast",
            mean_interarrival: SimDuration::from_millis(1),
            mean_cpu_burst: SimDuration::from_micros(500),
        }]
    } else {
        &[
            Rate {
                name: "fast",
                mean_interarrival: SimDuration::from_millis(1),
                mean_cpu_burst: SimDuration::from_micros(500),
            },
            Rate {
                name: "slow",
                mean_interarrival: SimDuration::from_millis(6),
                mean_cpu_burst: SimDuration::from_millis(4),
            },
        ]
    };

    let mut points: Vec<(f64, usize)> = Vec::new();
    for &s in similarities {
        for ri in 0..rates.len() {
            points.push((s, ri));
        }
    }

    let cells: Vec<Cell> = host.sweep(&points, |_, &(similarity, ri)| {
        let rate = &rates[ri];
        let full = run_cell(&base, timing, similarity, rate, false, seed);
        let delta = run_cell(&base, timing, similarity, rate, true, seed);
        let divergences = diff_reports(&full, &delta);
        Cell {
            similarity,
            rate_name: rate.name,
            full,
            delta,
            divergences,
        }
    });

    // In-process acceptance gates: identical outcomes, cheaper config.
    for c in &cells {
        let label = format!("sim{:.2}/{}", c.similarity, c.rate_name);
        if !c.divergences.is_empty() {
            return Err(super::diverged(
                format!("{label}: delta changed task outcomes"),
                &c.divergences,
            ));
        }
        assert!(
            c.full.delta.is_none(),
            "{label}: full cell grew delta stats"
        );
        let ds = c
            .delta
            .delta
            .unwrap_or_else(|| panic!("{label}: delta cell reported no delta stats"));
        let (fc, dc) = (
            c.full.manager_stats.config_time,
            c.delta.manager_stats.config_time,
        );
        if dc > fc {
            return Err(format!(
                "{label}: delta config overhead {dc:?} exceeds full {fc:?}"
            ));
        }
        if c.similarity >= 0.5 {
            if ds.delta_downloads == 0 {
                return Err(format!("{label}: no download ever went delta"));
            }
            if dc >= fc {
                return Err(format!(
                    "{label}: delta config overhead {dc:?} does not beat full {fc:?}"
                ));
            }
        }
        if c.delta.crash.checkpoint_time > c.full.crash.checkpoint_time {
            return Err(format!(
                "{label}: delta checkpoints read back more than full captures"
            ));
        }
    }

    let mut ex = Exporter::new(
        "e20",
        "delta reconfiguration: similarity x swap rate x on/off",
    );
    ex.seed(seed)
        .param("device", spec.name)
        .param("tasks", 10u64)
        .param("variants", 4u64)
        .param("smoke", smoke);

    let mut t = Table::new(
        "E20: delta vs full downloads (partition/variable, RR 2ms, ckpt 2ms; delta anchors every 4)",
        &[
            "cell",
            "downloads",
            "delta-dl",
            "frames-saved",
            "invalidations",
            "config full (ms)",
            "config delta (ms)",
            "ckpt full (ms)",
            "ckpt delta (ms)",
            "diverged",
        ],
    );
    for c in &cells {
        let label = format!("sim{:.2}/{}", c.similarity, c.rate_name);
        let ds = c.delta.delta.expect("gated above");
        t.row(vec![
            label.clone(),
            c.delta.manager_stats.downloads.to_string(),
            ds.delta_downloads.to_string(),
            ds.frames_saved.to_string(),
            ds.invalidations.to_string(),
            f3(c.full.manager_stats.config_time.as_secs_f64() * 1e3),
            f3(c.delta.manager_stats.config_time.as_secs_f64() * 1e3),
            f3(c.full.crash.checkpoint_time.as_secs_f64() * 1e3),
            f3(c.delta.crash.checkpoint_time.as_secs_f64() * 1e3),
            c.divergences.len().to_string(),
        ]);
        ex.report(&format!("{label}/full"), &c.full);
        ex.report(&format!("{label}/delta"), &c.delta);
        ex.metrics().inc("delta_downloads", ds.delta_downloads);
        ex.metrics().inc("delta_frames_saved", ds.frames_saved);
        ex.metrics().inc("delta_invalidations", ds.invalidations);
    }

    t.print();
    ex.table(&t);
    ex.host(host, points.len());

    println!("\nEvery delta cell reached task outcomes identical to its full-download twin");
    println!("(the bench aborts otherwise) while paying less config overhead whenever the");
    println!("family shares at least half its frames — delta pricing changes when work");
    println!("finishes, never what work happens. Delta checkpoints (full anchor every 4th");
    println!("capture) cut the background readback the same way.");
    Ok(ex)
}
