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
//! `--seed` yields a byte-identical export (modulo the volatile `host`
//! section) at any `--threads` count.

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::{compile_suite_lib, os_mix, save_restore, serial_fast, variable_partitions};
use crate::{Exporter, HostProfile};
use fpga::ConfigTiming;
use fsim::{SimDuration, SimRng};
use vfpga::{
    FaultPlan, RecoveryPolicy, Report, RoundRobinScheduler, System, TaskSpec, UpsetRecovery,
};
use workload::{poisson_tasks, Domain};

fn specs(ids: &[vfpga::CircuitId], seed: u64) -> Vec<TaskSpec> {
    let mut rng = SimRng::new(seed);
    poisson_tasks(&os_mix(10, SimDuration::from_millis(2)), ids, &mut rng)
}

fn run_cell(
    lib: &std::sync::Arc<vfpga::CircuitLib>,
    ids: &[vfpga::CircuitId],
    timing: ConfigTiming,
    seed: u64,
    plan: FaultPlan,
    policy: RecoveryPolicy,
    label: String,
) -> (String, Report) {
    let mgr = variable_partitions(lib, timing);
    let report = System::new(
        lib.clone(),
        mgr,
        RoundRobinScheduler::new(SimDuration::from_millis(8)),
        save_restore(),
        specs(ids, seed),
    )
    .with_faults(plan, policy)
    .run()
    .expect("every task must terminate (completed or failed)");
    (label, report)
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let smoke = args.smoke;
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF800");
    let (lib, ids) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec)
    });
    let timing = serial_fast(spec);

    // (name, download corruption probability, SEU rate, column-failure rate)
    let rates: &[(&str, f64, f64, f64)] = if smoke {
        &[("faulty", 0.10, 150.0, 2.0)]
    } else {
        &[
            ("clean", 0.0, 0.0, 0.0),
            ("mild", 0.02, 30.0, 0.0),
            ("harsh", 0.15, 300.0, 5.0),
        ]
    };
    let policies: &[(&str, UpsetRecovery)] = &[
        ("rollback", UpsetRecovery::Rollback),
        ("save-restore", UpsetRecovery::SaveRestore),
    ];
    let scrubs: &[(&str, Option<SimDuration>)] = if smoke {
        &[("2ms", Some(SimDuration::from_millis(2)))]
    } else {
        &[
            ("off", None),
            ("2ms", Some(SimDuration::from_millis(2))),
            ("10ms", Some(SimDuration::from_millis(10))),
        ]
    };

    let mut ex = Exporter::new("e15", "fault rate x recovery policy x scrub interval");
    ex.seed(seed)
        .param("device", spec.name)
        .param("tasks", 10u64)
        .param("smoke", smoke);

    let mut t = Table::new(
        "E15: fault injection x recovery (partition manager, RR 8ms)",
        &[
            "faults",
            "upset policy",
            "scrub",
            "makespan (s)",
            "failed",
            "retries",
            "repairs",
            "work lost (s)",
            "scrub ovh (s)",
            "mttr (s)",
            "fault frac",
        ],
    );

    // Flatten the full cross product so every cell is one sweep point.
    let mut points = Vec::new();
    for &(rname, dl, seu, colf) in rates {
        let plan = FaultPlan {
            seed,
            download_corruption: dl,
            seu_rate_per_s: seu,
            column_failure_rate_per_s: colf,
        };
        for &(pname, upset) in policies {
            for &(sname, scrub_interval) in scrubs {
                // Scrubbing is what turns latent upsets into repairs; the
                // "off" column shows the silent-corruption alternative.
                let policy = RecoveryPolicy {
                    scrub_interval,
                    upset_recovery: upset,
                    ..RecoveryPolicy::default()
                };
                let label = format!("{rname}/{pname}/scrub-{sname}");
                points.push((plan, policy, label));
            }
        }
    }
    let cells = host.sweep(&points, |_, (plan, policy, label)| {
        run_cell(&lib, &ids, timing, seed, *plan, *policy, label.clone())
    });

    for (label, r) in &cells {
        let f = &r.fault;
        let useful = r.useful_time().as_secs_f64();
        let fault_cost = (f.retry_time + f.work_lost + f.background_time()).as_secs_f64();
        let frac = if useful + fault_cost > 0.0 {
            fault_cost / (useful + fault_cost)
        } else {
            0.0
        };
        let parts: Vec<&str> = label.split('/').collect();
        t.row(vec![
            parts[0].into(),
            parts[1].into(),
            parts[2].trim_start_matches("scrub-").into(),
            f3(r.makespan.as_secs_f64()),
            format!("{}/{}", f.tasks_failed, r.tasks.len()),
            f.retries.to_string(),
            f.repairs.to_string(),
            f3(f.work_lost.as_secs_f64()),
            f3(f.scrub_time.as_secs_f64()),
            f.mttr()
                .map(|m| f3(m.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            pct(frac),
        ]);
        ex.report(label, r);
    }

    t.print();
    ex.table(&t);
    ex.host(host, points.len());

    println!("\nRollback pays for upsets with recomputed work; save/restore pays readback");
    println!("instead. Without scrubbing upsets stay latent (silent corruption): no");
    println!("repairs, no MTTR — the fault column only shows what detection would buy.");
    Ok(ex)
}
