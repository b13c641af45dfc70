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

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::{compile_suite_lib, run_traced, serial_fast, variable_partitions};
use crate::{Exporter, HostProfile};
use fsim::{SimDuration, SimRng};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::exclusive::ExclusiveManager;
use vfpga::{
    FifoScheduler, PreemptAction, PriorityScheduler, RoundRobinScheduler, SystemConfig, TaskSpec,
};
use workload::{poisson_tasks, Domain, MixParams};

fn specs(ids: &[vfpga::CircuitId]) -> Vec<TaskSpec> {
    let mut rng = SimRng::new(0xE14);
    let mut s = poisson_tasks(
        &MixParams {
            tasks: 10,
            mean_interarrival: SimDuration::from_millis(2),
            mean_cpu_burst: SimDuration::from_millis(3),
            fpga_ops_per_task: 4,
            cycles: (80_000, 300_000),
        },
        ids,
        &mut rng,
    );
    // Give every third task high priority so the priority policy has
    // something to express.
    for (i, t) in s.iter_mut().enumerate() {
        t.priority = if i % 3 == 0 { 9 } else { 1 };
    }
    s
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF800");
    let (lib, ids) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec)
    });
    let timing = serial_fast(spec);
    let slice = SimDuration::from_millis(8);

    let mut ex = Exporter::new("e14", "scheduler x manager matrix");
    ex.seed(0xE14)
        .param("device", spec.name)
        .param("tasks", 10u64)
        .param("slice_ms", 8u64);
    let mut t = Table::new(
        "E14: scheduler x manager matrix (same Poisson mix)",
        &[
            "manager",
            "scheduler",
            "makespan (s)",
            "mean wait (s)",
            "hi-prio mean turnaround (s)",
            "downloads",
            "overhead frac",
        ],
    );

    let points: Vec<(&str, &str)> = ["exclusive", "dynload", "partition"]
        .into_iter()
        .flat_map(|m| ["fifo", "rr", "priority"].into_iter().map(move |s| (m, s)))
        .collect();
    let results = host.sweep(&points, |_, &(mgr_kind, sched_kind)| {
        macro_rules! with_sched {
            ($mgr:expr, $preempt:expr) => {{
                let config = SystemConfig {
                    preempt: $preempt,
                    ..Default::default()
                };
                let specs = specs(&ids);
                match sched_kind {
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
        match mgr_kind {
            // Exclusive manager (non-preemptable device).
            "exclusive" => with_sched!(
                ExclusiveManager::new(lib.clone(), timing),
                PreemptAction::WaitCompletion
            ),
            "dynload" => with_sched!(
                DynLoadManager::new(lib.clone(), timing, PreemptAction::WaitCompletion),
                PreemptAction::WaitCompletion
            ),
            _ => with_sched!(
                variable_partitions(&lib, timing),
                PreemptAction::SaveRestore
            ),
        }
    });
    for r in &results {
        ex.report(&format!("{}/{}", r.manager, r.scheduler), r);
        let hi: Vec<f64> = r
            .tasks
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 == 0)
            .map(|(_, m)| m.turnaround().as_secs_f64())
            .collect();
        let hi_mean = hi.iter().sum::<f64>() / hi.len() as f64;
        t.row(vec![
            r.manager.into(),
            r.scheduler.into(),
            f3(r.makespan.as_secs_f64()),
            f3(r.mean_waiting_s()),
            f3(hi_mean),
            r.manager_stats.downloads.to_string(),
            pct(r.overhead_fraction()),
        ]);
    }
    t.print();
    ex.table(&t);
    ex.host(host, points.len());
    println!("\nUnder the exclusive manager the scheduler rows collapse toward each other");
    println!("(the device serializes everything — §4's 'implicitly forcing FIFO');");
    println!("under partitioning the priority scheduler actually buys latency for hi-prio tasks.");
    Ok(ex)
}
