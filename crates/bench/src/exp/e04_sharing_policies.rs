//! E4 — Exclusive vs dynamic loading vs partitioning (paper §4).
//!
//! Claim operationalized: the non-preemptable exclusive device makes
//! "parallelism of the execution of application tasks … greatly reduced,
//! even implicitly forcing the scheduling to a strictly FIFO policy",
//! while "partitioning is an effective technique to reduce the number of
//! loading … operations … without impairing the parallelism in a relevant
//! way".
//!
//! The same Poisson task mix runs under all three managers; partitioning
//! should show the fewest downloads and the lowest waiting time.

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::{compile_suite_lib, run_traced, save_restore, serial_fast, variable_partitions};
use crate::{Exporter, HostProfile};
use fsim::{SimDuration, SimRng};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::exclusive::ExclusiveManager;
use vfpga::{PreemptAction, Report, RoundRobinScheduler, SystemConfig, TaskSpec};
use workload::{poisson_tasks, Domain, MixParams};

fn record(r: &Report, t: &mut Table, ex: &mut Exporter) {
    ex.report(r.manager, r);
    let blocked: u64 = r.tasks.iter().map(|x| x.blocked_count).sum();
    t.row(vec![
        r.manager.into(),
        f3(r.makespan.as_secs_f64()),
        f3(r.mean_waiting_s()),
        f3(r.mean_turnaround_s()),
        r.manager_stats.downloads.to_string(),
        blocked.to_string(),
        pct(r.overhead_fraction()),
    ]);
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF800");
    let (lib, ids) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec)
    });
    let timing = serial_fast(spec);
    let slice = SimDuration::from_millis(10);

    let specs: Vec<TaskSpec> = {
        let mut rng = SimRng::new(0xE04);
        poisson_tasks(
            &MixParams {
                tasks: 12,
                mean_interarrival: SimDuration::from_millis(2),
                mean_cpu_burst: SimDuration::from_millis(3),
                fpga_ops_per_task: 6,
                cycles: (100_000, 500_000),
            },
            &ids,
            &mut rng,
        )
    };

    let mut ex = Exporter::new("e04", "FPGA sharing policies under one Poisson mix");
    ex.seed(0xE04)
        .param("device", spec.name)
        .param("tasks", 12u64)
        .param("slice_ms", 10u64);
    let mut t = Table::new(
        "E4: FPGA sharing policies under one Poisson mix (VF800, fast serial port)",
        &[
            "manager",
            "makespan (s)",
            "mean wait (s)",
            "mean turnaround (s)",
            "downloads",
            "blocks",
            "overhead frac",
        ],
    );

    // One sweep point per manager.
    let points = [0usize, 1, 2];
    let results = host.sweep(&points, |_, &which| {
        let (rr, plain) = (RoundRobinScheduler::new(slice), SystemConfig::default());
        match which {
            0 => {
                let mgr = ExclusiveManager::new(lib.clone(), timing);
                run_traced(&lib, mgr, rr, plain, specs.clone())
            }
            1 => {
                let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::WaitCompletion);
                run_traced(&lib, mgr, rr, plain, specs.clone())
            }
            _ => {
                let mgr = variable_partitions(&lib, timing);
                run_traced(&lib, mgr, rr, save_restore(), specs.clone())
            }
        }
    });
    for r in &results {
        record(r, &mut t, &mut ex);
    }
    t.print();
    ex.table(&t);
    ex.host(host, points.len());
    Ok(ex)
}
