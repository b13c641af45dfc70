//! E15 — Fault injection and recovery on the virtual FPGA layer.
//!
//! RAM-based FPGAs are exposed to corrupted configuration downloads,
//! configuration-memory upsets (SEUs), and permanent fabric failures. The
//! OS layer that virtualizes the device is also the natural place to hide
//! those faults from applications: CRC-checked downloads retried with
//! backoff, periodic scrubbing (readback at real port cost) that repairs
//! upsets by re-download plus the §3 state options (rollback vs
//! save/restore), and column retirement that reuses the partition
//! manager's relocation machinery.
//!
//! The sweep: fault intensity x upset-recovery policy x scrub interval,
//! all on the same seeded Poisson workload, reporting what recovery cost
//! (retries, scrub overhead, work lost, MTTR) and what it bought (tasks
//! completed vs explicitly failed). Everything is deterministic: the same
//! `--seed` yields a byte-identical export.

use super::grid::{self, axis, fixed, Grid};
use super::RunArgs;
use crate::report::{pct, secs};
use crate::setup::{compile_suite_lib, os_mix, save_restore, serial_fast, variable_partitions};
use crate::Exporter;
use fsim::{SimDuration, SimRng};
use vfpga::{FaultPlan, RecoveryPolicy, Report, RoundRobinScheduler, System, UpsetRecovery};
use workload::{poisson_tasks, Domain};

/// Name, download corruption probability, SEU rate, column-failure rate.
type Faults = (&'static str, f64, f64, f64);
type Scrub = (&'static str, Option<SimDuration>);
type Point = (Faults, (&'static str, UpsetRecovery), Scrub);

const FAULTS_SMOKE: [Faults; 1] = [("faulty", 0.10, 150.0, 2.0)];
const FAULTS: [Faults; 3] = [
    ("clean", 0.0, 0.0, 0.0),
    ("mild", 0.02, 30.0, 0.0),
    ("harsh", 0.15, 300.0, 5.0),
];
const POLICIES: [(&str, UpsetRecovery); 2] = [
    ("rollback", UpsetRecovery::Rollback),
    ("save-restore", UpsetRecovery::SaveRestore),
];
// Scrubbing is what turns latent upsets into repairs; the "off" column
// shows the silent-corruption alternative.
const SCRUBS: [Scrub; 3] = [
    ("off", None),
    ("2ms", Some(SimDuration::from_millis(2))),
    ("10ms", Some(SimDuration::from_millis(10))),
];

/// The share of useful plus fault-recovery time that recovery took.
fn fault_frac(r: &Report) -> String {
    let f = &r.fault;
    let useful = r.useful_time().as_secs_f64();
    let cost = (f.retry_time + f.work_lost + f.background_time()).as_secs_f64();
    pct(if useful + cost > 0.0 {
        cost / (useful + cost)
    } else {
        0.0
    })
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let spec = fpga::device::part("VF800");
    let (lib, ids) = compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec);
    let timing = serial_fast(spec);
    let cell = |&((_, dl, seu, colf), (_, upset), (_, scrub_interval)): &Point| {
        let plan = FaultPlan {
            seed,
            download_corruption: dl,
            seu_rate_per_s: seu,
            column_failure_rate_per_s: colf,
        };
        let policy = RecoveryPolicy {
            scrub_interval,
            upset_recovery: upset,
            ..RecoveryPolicy::default()
        };
        let mix = os_mix(10, SimDuration::from_millis(2));
        let specs = poisson_tasks(&mix, &ids, &mut SimRng::new(seed));
        let rr = RoundRobinScheduler::new(SimDuration::from_millis(8));
        let sys = System::new(
            lib.clone(),
            variable_partitions(&lib, timing),
            rr,
            save_restore(),
            specs,
        );
        let r = sys.with_faults(plan, policy).run();
        Ok(r.expect("every task must terminate (completed or failed)"))
    };
    let grid = Grid {
        code: "e15",
        title: "fault rate x recovery policy x scrub interval",
        seed,
        params: vec![("device", spec.name.into()), ("tasks", 10u64.into())],
        points: vec![grid::product(
            (FAULTS[0], POLICIES[0], SCRUBS[0]),
            vec![
                axis(&FAULTS_SMOKE, &FAULTS, |p, v| p.0 = v),
                fixed(&POLICIES, |p, v| p.1 = v),
                axis(&SCRUBS[1..2], &SCRUBS, |p, v| p.2 = v),
            ],
        )],
        label: |((f, ..), (u, _), (s, _))| format!("{f}/{u}/scrub-{s}"),
        cell: &cell,
        table: "E15: fault injection x recovery (partition manager, RR 8ms)",
        columns: &[
            ("faults", |c| c.point.0 .0.into()),
            ("upset policy", |c| c.point.1 .0.into()),
            ("scrub", |c| c.point.2 .0.into()),
            ("makespan (s)", |c| secs(c.out.makespan)),
            ("failed", |c| {
                format!("{}/{}", c.out.fault.tasks_failed, c.out.tasks.len())
            }),
            ("retries", |c| c.out.fault.retries.to_string()),
            ("repairs", |c| c.out.fault.repairs.to_string()),
            ("work lost (s)", |c| secs(c.out.fault.work_lost)),
            ("scrub ovh (s)", |c| secs(c.out.fault.scrub_time)),
            ("mttr (s)", |c| c.out.fault.mttr().map_or("-".into(), secs)),
            ("fault frac", |c| fault_frac(&c.out)),
        ],
        reports: grid::own_report,
        outro: "\nRollback pays for upsets with recomputed work; save/restore pays readback\n\
                instead. Without scrubbing upsets stay latent (silent corruption): no\n\
                repairs, no MTTR — the fault column only shows what detection would buy.\n",
        ..Grid::default()
    };
    grid::run(args, grid)
}
