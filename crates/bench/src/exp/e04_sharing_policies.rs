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

use super::grid::{self, Grid};
use super::RunArgs;
use crate::report::{f3, pct, secs};
use crate::setup::{
    compile_suite_lib, e4_mix, run_traced, save_restore, serial_fast, variable_partitions,
};
use crate::Exporter;
use fsim::{SimDuration, SimRng};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::exclusive::ExclusiveManager;
use vfpga::{PreemptAction, RoundRobinScheduler, SystemConfig};
use workload::{poisson_tasks, Domain};

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF800");
    let (lib, ids) = compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec);
    let timing = serial_fast(spec);
    let specs = poisson_tasks(&e4_mix(), &ids, &mut SimRng::new(0xE04));
    let cell = |&manager: &&str| {
        let (rr, plain) = (
            RoundRobinScheduler::new(SimDuration::from_millis(10)),
            SystemConfig::default(),
        );
        let specs = specs.clone();
        Ok(match manager {
            "exclusive" => run_traced(
                &lib,
                ExclusiveManager::new(lib.clone(), timing),
                rr,
                plain,
                specs,
            ),
            "dynload" => {
                let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::WaitCompletion);
                run_traced(&lib, mgr, rr, plain, specs)
            }
            _ => run_traced(
                &lib,
                variable_partitions(&lib, timing),
                rr,
                save_restore(),
                specs,
            ),
        })
    };
    let grid = Grid {
        code: "e04",
        title: "FPGA sharing policies under one Poisson mix",
        seed: 0xE04,
        params: vec![
            ("device", spec.name.into()),
            ("tasks", 12u64.into()),
            ("slice_ms", 10u64.into()),
        ],
        points: vec![grid::points(vec!["exclusive", "dynload", "partition"])],
        label: |m| m.to_string(),
        cell: &cell,
        table: "E4: FPGA sharing policies under one Poisson mix (VF800, fast serial port)",
        columns: &[
            ("manager", |c| c.out.manager.into()),
            ("makespan (s)", |c| secs(c.out.makespan)),
            ("mean wait (s)", |c| f3(c.out.mean_waiting_s())),
            ("mean turnaround (s)", |c| f3(c.out.mean_turnaround_s())),
            ("downloads", |c| c.out.manager_stats.downloads.to_string()),
            ("blocks", |c| {
                c.out
                    .tasks
                    .iter()
                    .map(|t| t.blocked_count)
                    .sum::<u64>()
                    .to_string()
            }),
            ("overhead frac", |c| pct(c.out.overhead_fraction())),
        ],
        reports: |c| vec![(c.out.manager.into(), &c.out)],
        ..Grid::default()
    };
    grid::run(args, grid)
}
