//! E16 — Crash-consistent checkpoint/restore.
//!
//! A virtual-FPGA host can die at any instant: the OS tables evaporate,
//! the device configuration RAM keeps whatever the last downloads left
//! there — including a torn prefix of an interrupted stream. This
//! experiment measures what surviving that costs and what it buys:
//! periodic whole-system checkpoints (readback-priced), a configuration
//! write-ahead journal, seeded host-crash injection, and restore.
//!
//! The sweep: crash rate x checkpoint interval x journal on/off. Every
//! cell is differentially verified in-process against the uninterrupted
//! same-seed baseline with [`vfpga::diff_reports`]: journal ON must reach
//! byte-identical task outcomes (divergence fails the run), journal
//! OFF is the ablation — stale residency claims survive the restore and
//! silently corrupt results, proving the journal is load-bearing.

use super::RunArgs;
use crate::report::{f3, Table};
use crate::setup::{compile_suite_lib, os_mix, save_restore, serial_fast};
use crate::{Exporter, HostProfile};
use fsim::{SimDuration, SimRng};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{
    diff_reports, run_with_crashes, CheckpointConfig, CrashPlan, PreemptAction, Report,
    RoundRobinScheduler, System, TaskSpec,
};
use workload::{poisson_tasks, Domain};

fn specs(ids: &[vfpga::CircuitId], seed: u64) -> Vec<TaskSpec> {
    let mut rng = SimRng::new(seed);
    poisson_tasks(&os_mix(10, SimDuration::from_millis(2)), ids, &mut rng)
}

struct Cell {
    label: String,
    journal: bool,
    divergences: Vec<vfpga::Divergence>,
    report: Report,
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let smoke = args.smoke;
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF400");
    let (lib, ids) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec)
    });
    let timing = serial_fast(spec);

    // Whole-device dynamic loading: every circuit swap rewrites the same
    // columns, so a stale post-crash residency claim always points at
    // clobbered configuration — the worst case for crash consistency.
    let build = |seed: u64| {
        let lib = lib.clone();
        let ids = ids.clone();
        move || {
            let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore);
            System::new(
                lib.clone(),
                mgr,
                RoundRobinScheduler::new(SimDuration::from_millis(4)),
                save_restore(),
                specs(&ids, seed),
            )
        }
    };

    // (name, crash rate per simulated second)
    let rates: &[(&str, f64)] = if smoke {
        &[("rare", 15.0)]
    } else {
        &[("rare", 15.0), ("frequent", 60.0), ("storm", 200.0)]
    };
    let intervals: &[(&str, u64)] = if smoke {
        // The cell where the ablation demonstrably bites: crashes spread
        // across the run, windows wide enough to hold downloads.
        &[("8ms", 8_000)]
    } else {
        &[("1ms", 1_000), ("2ms", 2_000), ("8ms", 8_000)]
    };
    let journals: &[(&str, bool)] = &[("on", true), ("off", false)];

    let mut ex = Exporter::new("e16", "crash rate x checkpoint interval x journal on/off");
    ex.seed(seed)
        .param("device", spec.name)
        .param("tasks", 10u64)
        .param("smoke", smoke);

    let mut t = Table::new(
        "E16: crash-consistent checkpoint/restore (dynload manager, RR 4ms)",
        &[
            "crashes/s",
            "ckpt ivl",
            "journal",
            "crashes",
            "ckpts",
            "ckpt ovh (s)",
            "torn",
            "redone/undone",
            "replay (s)",
            "discards",
            "corrupted",
            "diverged",
        ],
    );

    let baseline = host.phase(crate::sections::PHASE_BASELINE, || {
        build(seed)().run().expect("baseline run")
    });
    let mut points = Vec::new();
    for &(rname, rate) in rates {
        for &(iname, interval_us) in intervals {
            for &(jname, journal) in journals {
                points.push((rname, rate, iname, interval_us, jname, journal));
            }
        }
    }
    let cells: Vec<Cell> = host.sweep(
        &points,
        |_, &(rname, rate, iname, interval_us, jname, journal)| {
            let mut cfg = CheckpointConfig::new(SimDuration::from_micros(interval_us));
            if !journal {
                cfg = cfg.without_journal();
            }
            let plan = CrashPlan {
                seed,
                crash_rate_per_s: rate,
                max_crashes: 4,
            };
            let report =
                run_with_crashes(build(seed), cfg, plan).expect("crashed run must still terminate");
            let divergences = diff_reports(&baseline, &report);
            Cell {
                label: format!("{rname}/{iname}/journal-{jname}"),
                journal,
                divergences,
                report,
            }
        },
    );

    let mut journal_off_corruptions = 0u64;
    for c in &cells {
        // The differential verifier IS the experiment's safety net: a
        // journaled restore that does not reproduce the uninterrupted
        // outcomes is a correctness bug, not a data point.
        if c.journal && !c.divergences.is_empty() {
            return Err(super::diverged(
                format!("journaled cell {} diverged", c.label),
                &c.divergences,
            ));
        }
        if !c.journal {
            journal_off_corruptions += c.report.crash.silent_corruptions;
        }
    }

    for c in &cells {
        let r = &c.report;
        let k = &r.crash;
        let parts: Vec<&str> = c.label.split('/').collect();
        t.row(vec![
            parts[0].into(),
            parts[1].into(),
            parts[2].trim_start_matches("journal-").into(),
            k.crashes.to_string(),
            k.checkpoints.to_string(),
            f3(k.checkpoint_time.as_secs_f64()),
            k.torn_downloads.to_string(),
            format!("{}/{}", k.records_redone, k.records_undone),
            f3(k.replay_time.as_secs_f64()),
            k.stale_discards.to_string(),
            k.silent_corruptions.to_string(),
            c.divergences.len().to_string(),
        ]);
        ex.report(&c.label, r);
        ex.metrics().inc(
            if c.journal {
                "journal_on_divergences"
            } else {
                "journal_off_divergences"
            },
            c.divergences.len() as u64,
        );
    }

    t.print();
    ex.param("journal_off_corruptions", journal_off_corruptions);
    ex.table(&t);
    ex.host(host, points.len());

    println!("\nEvery journal-on cell restored to outcomes identical to the uninterrupted");
    println!("baseline (the bench aborts otherwise). Journal-off cells keep stale residency");
    println!("claims across the restore: the corrupted/diverged columns show what the");
    println!("write-ahead journal is actually buying.");
    Ok(ex)
}
