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

use super::grid::{self, axis, fixed, Gate, Grid};
use super::RunArgs;
use crate::report::secs;
use crate::setup::{compile_suite_lib, os_mix, save_restore, serial_fast};
use crate::Exporter;
use fsim::{SimDuration, SimRng};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{
    diff_reports, run_with_crashes, CheckpointConfig, CrashPlan, Divergence, PreemptAction, Report,
    RoundRobinScheduler, System,
};
use workload::{poisson_tasks, Domain};

/// Crash rate (per simulated second), checkpoint interval (µs) and journal
/// on/off, each with its label.
type Point = (
    (&'static str, f64),
    (&'static str, u64),
    (&'static str, bool),
);

const RATES: [(&str, f64); 3] = [("rare", 15.0), ("frequent", 60.0), ("storm", 200.0)];
const INTERVALS: [(&str, u64); 3] = [("1ms", 1_000), ("2ms", 2_000), ("8ms", 8_000)];
const JOURNALS: [(&str, bool); 2] = [("on", true), ("off", false)];

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let spec = fpga::device::part("VF400");
    let (lib, ids) = compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec);
    let timing = serial_fast(spec);

    // Whole-device dynamic loading: every circuit swap rewrites the same
    // columns, so a stale post-crash residency claim always points at
    // clobbered configuration — the worst case for crash consistency.
    let build = || {
        let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore);
        let mix = os_mix(10, SimDuration::from_millis(2));
        let specs = poisson_tasks(&mix, &ids, &mut SimRng::new(seed));
        let rr = RoundRobinScheduler::new(SimDuration::from_millis(4));
        System::new(lib.clone(), mgr, rr, save_restore(), specs)
    };
    let baseline = build().run().expect("baseline run");
    let cell = |&((_, rate), (_, interval_us), (_, journal)): &Point| {
        let mut cfg = CheckpointConfig::new(SimDuration::from_micros(interval_us));
        if !journal {
            cfg = cfg.without_journal();
        }
        let plan = CrashPlan {
            seed,
            crash_rate_per_s: rate,
            max_crashes: 4,
        };
        let report = run_with_crashes(build, cfg, plan).expect("crashed run must still terminate");
        Ok((diff_reports(&baseline, &report), report))
    };
    let grid = Grid {
        code: "e16",
        title: "crash rate x checkpoint interval x journal on/off",
        seed,
        params: vec![("device", spec.name.into()), ("tasks", 10u64.into())],
        points: vec![grid::product(
            (RATES[0], INTERVALS[2], JOURNALS[0]),
            vec![
                axis(&RATES[..1], &RATES, |p, v| p.0 = v),
                // The smoke cell is where the ablation demonstrably
                // bites: crashes spread across the run, windows wide
                // enough to hold downloads.
                axis(&INTERVALS[2..], &INTERVALS, |p, v| p.1 = v),
                fixed(&JOURNALS, |p, v| p.2 = v),
            ],
        )],
        label: |&((r, _), (i, _), (j, _))| format!("{r}/{i}/journal-{j}"),
        cell: &cell,
        // The differential verifier IS the experiment's safety net: a
        // journaled restore that does not reproduce the uninterrupted
        // outcomes is a correctness bug, not a data point.
        gates: &[Gate::Each(
            "journaled restore matches the baseline",
            |c| match c.point.2 .1 {
                true => super::no_divergence(&c.out.0),
                false => Ok(()),
            },
        )],
        table: "E16: crash-consistent checkpoint/restore (dynload manager, RR 4ms)",
        columns: &[
            ("crashes/s", |c| c.point.0 .0.into()),
            ("ckpt ivl", |c| c.point.1 .0.into()),
            ("journal", |c| c.point.2 .0.into()),
            ("crashes", |c| c.out.1.crash.crashes.to_string()),
            ("ckpts", |c| c.out.1.crash.checkpoints.to_string()),
            ("ckpt ovh (s)", |c| secs(c.out.1.crash.checkpoint_time)),
            ("torn", |c| c.out.1.crash.torn_downloads.to_string()),
            ("redone/undone", |c| {
                let k = &c.out.1.crash;
                format!("{}/{}", k.records_redone, k.records_undone)
            }),
            ("replay (s)", |c| secs(c.out.1.crash.replay_time)),
            ("discards", |c| c.out.1.crash.stale_discards.to_string()),
            ("corrupted", |c| {
                c.out.1.crash.silent_corruptions.to_string()
            }),
            ("diverged", |c| c.out.0.len().to_string()),
        ],
        reports: |c| vec![(c.label.clone(), &c.out.1)],
        finish: |cells, ex| {
            let mut corrupted = 0;
            for c in cells {
                let (divergences, r): &(Vec<Divergence>, Report) = &c.out;
                let n = divergences.len() as u64;
                if c.point.2 .1 {
                    ex.metrics().inc("journal_on_divergences", n);
                } else {
                    ex.metrics().inc("journal_off_divergences", n);
                    corrupted += r.crash.silent_corruptions;
                }
            }
            ex.param("journal_off_corruptions", corrupted);
        },
        outro: "\nEvery journal-on cell restored to outcomes identical to the uninterrupted\n\
                baseline (the bench aborts otherwise). Journal-off cells keep stale residency\n\
                claims across the restore: the corrupted/diverged columns show what the\n\
                write-ahead journal is actually buying.\n",
        ..Grid::default()
    };
    grid::run(args, grid)
}
