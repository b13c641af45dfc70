//! E14 — Host scheduling policy vs FPGA management (paper §1/§4).
//!
//! Claim operationalized: the VFPGA layer is meant to slot into "any
//! traditional general-purpose multitasking (possibly time-shared) system"
//! — so its benefit must be robust across the host's scheduling policy,
//! and the §4 warning that a non-preemptable device "implicitly forces
//! the scheduling to a strictly FIFO policy" should show up as the
//! *scheduler ceasing to matter* under the exclusive manager.
//!
//! The same Poisson mix runs under FIFO / round-robin / priority for each
//! of the three managers — a 3×3 matrix of independent sweep points.

use super::grid::{self, fixed, Grid};
use super::RunArgs;
use crate::report::{f3, pct, secs};
use crate::setup::{compile_suite_lib, run_traced, serial_fast, variable_partitions};
use crate::Exporter;
use fsim::{SimDuration, SimRng};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::exclusive::ExclusiveManager;
use vfpga::{
    FifoScheduler, PreemptAction, PriorityScheduler, Report, RoundRobinScheduler, SystemConfig,
};
use workload::{poisson_tasks, Domain, MixParams};

/// Mean turnaround of the high-priority tasks (every third), in seconds.
fn hi_prio_turnaround(r: &Report) -> String {
    let hi: Vec<f64> = r
        .tasks
        .iter()
        .step_by(3)
        .map(|t| t.turnaround().as_secs_f64())
        .collect();
    f3(hi.iter().sum::<f64>() / hi.len() as f64)
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF800");
    let (lib, ids) = compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec);
    let timing = serial_fast(spec);
    let slice = SimDuration::from_millis(8);
    let mix = MixParams {
        tasks: 10,
        mean_interarrival: SimDuration::from_millis(2),
        mean_cpu_burst: SimDuration::from_millis(3),
        fpga_ops_per_task: 4,
        cycles: (80_000, 300_000),
    };
    let mut specs = poisson_tasks(&mix, &ids, &mut SimRng::new(0xE14));
    // Give every third task high priority so the priority policy has
    // something to express.
    for (i, t) in specs.iter_mut().enumerate() {
        t.priority = if i % 3 == 0 { 9 } else { 1 };
    }
    let cell = |&(manager, scheduler): &(&str, &str)| {
        macro_rules! with_sched {
            ($mgr:expr, $preempt:expr) => {{
                let config = SystemConfig {
                    preempt: $preempt,
                    ..Default::default()
                };
                let specs = specs.clone();
                match scheduler {
                    "fifo" => run_traced(&lib, $mgr, FifoScheduler::new(), config, specs),
                    "rr" => run_traced(&lib, $mgr, RoundRobinScheduler::new(slice), config, specs),
                    _ => run_traced(
                        &lib,
                        $mgr,
                        PriorityScheduler::new(Some(slice)),
                        config,
                        specs,
                    ),
                }
            }};
        }
        let wait = PreemptAction::WaitCompletion;
        Ok(match manager {
            // The exclusive manager: a non-preemptable device.
            "exclusive" => with_sched!(ExclusiveManager::new(lib.clone(), timing), wait),
            "dynload" => with_sched!(DynLoadManager::new(lib.clone(), timing, wait), wait),
            _ => with_sched!(
                variable_partitions(&lib, timing),
                PreemptAction::SaveRestore
            ),
        })
    };
    let grid = Grid {
        code: "e14",
        title: "scheduler x manager matrix",
        seed: 0xE14,
        params: vec![
            ("device", spec.name.into()),
            ("tasks", 10u64.into()),
            ("slice_ms", 8u64.into()),
        ],
        points: vec![grid::product(
            ("", ""),
            vec![
                fixed(&["exclusive", "dynload", "partition"], |p, v| p.0 = v),
                fixed(&["fifo", "rr", "priority"], |p, v| p.1 = v),
            ],
        )],
        label: |(manager, scheduler)| format!("{manager}/{scheduler}"),
        cell: &cell,
        table: "E14: scheduler x manager matrix (same Poisson mix)",
        columns: &[
            ("manager", |c| c.out.manager.into()),
            ("scheduler", |c| c.out.scheduler.into()),
            ("makespan (s)", |c| secs(c.out.makespan)),
            ("mean wait (s)", |c| f3(c.out.mean_waiting_s())),
            ("hi-prio mean turnaround (s)", |c| hi_prio_turnaround(&c.out)),
            ("downloads", |c| c.out.manager_stats.downloads.to_string()),
            ("overhead frac", |c| pct(c.out.overhead_fraction())),
        ],
        reports: |c| vec![(format!("{}/{}", c.out.manager, c.out.scheduler), &c.out)],
        outro: "\nUnder the exclusive manager the scheduler rows collapse toward each other\n\
                (the device serializes everything — §4's 'implicitly forcing FIFO');\n\
                under partitioning the priority scheduler actually buys latency for hi-prio tasks.\n",
        ..Grid::default()
    };
    grid::run(args, grid)
}
