//! E5 — Fixed vs variable partitioning (paper §4).
//!
//! Claim operationalized: "Partitions may have the same or different sizes
//! as well as fixed or variable size" — fixed partitions are simple but
//! waste area when circuits are narrower than their slot (internal
//! fragmentation) and reject circuits wider than any slot; variable
//! partitions fit exactly but fragment externally.
//!
//! The same heterogeneous mix runs under uniform fixed widths 4/5/10 and
//! under variable partitioning.

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::{compile_suite_lib, run_traced, save_restore, serial_fast};
use crate::{Exporter, HostProfile};
use fsim::{SimDuration, SimRng};
use vfpga::manager::partition::{PartitionManager, PartitionMode};
use vfpga::{PreemptAction, RoundRobinScheduler};
use workload::{poisson_tasks, Domain, MixParams};

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF400"); // 20 columns
    let (lib, ids) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib(&[Domain::Multimedia, Domain::Telecom], spec)
    });

    // Internal-fragmentation accounting: circuit widths.
    let widths: Vec<u32> = ids.iter().map(|&i| lib.get(i).shape().0).collect();
    let wmax = *widths.iter().max().unwrap();

    let modes: Vec<(String, PartitionMode)> = vec![
        // One slot wide enough for the widest circuit plus smaller ones.
        (
            format!("fixed [{wmax},5,3]"),
            PartitionMode::Fixed(vec![wmax, 20 - wmax - 3, 3]),
        ),
        (
            format!("fixed [{wmax},{}]", 20 - wmax),
            PartitionMode::Fixed(vec![wmax, 20 - wmax]),
        ),
        // Uniform slots too narrow for the widest circuit: infeasible.
        ("fixed 10x2".into(), PartitionMode::Fixed(vec![10, 10])),
        ("variable".into(), PartitionMode::Variable),
    ];

    let mut ex = Exporter::new("e05", "fixed vs variable partitioning");
    ex.seed(0xE05)
        .param("device", spec.name)
        .param("tasks", 10u64)
        .param("max_circuit_width", wmax);
    let mut t = Table::new(
        "E5: fixed vs variable partitioning (VF400, circuit widths up to given max)",
        &[
            "mode",
            "makespan (s)",
            "mean wait (s)",
            "downloads",
            "blocks",
            "evictions",
            "splits",
            "gc runs",
            "internal frag",
        ],
    );
    println!("circuit widths: {widths:?} (max {wmax})");

    let results = host.sweep(&modes, |_, (name, mode)| {
        // Internal fragmentation estimate: mean over circuits of
        // (slot_width - circuit_width)/slot_width for the smallest fixed
        // slot that fits (circuits wider than every slot can never load —
        // they would block forever, so skip mixes containing them).
        let (feasible, int_frag) = match mode {
            PartitionMode::Fixed(ws) => {
                let max_slot = *ws.iter().max().unwrap();
                let feasible = widths.iter().all(|&w| w <= max_slot);
                let frag = if feasible {
                    let mut acc = 0.0;
                    for &w in &widths {
                        let slot = ws.iter().copied().filter(|&s| s >= w).min().unwrap();
                        acc += (slot - w) as f64 / slot as f64;
                    }
                    acc / widths.len() as f64
                } else {
                    f64::NAN
                };
                (feasible, frag)
            }
            PartitionMode::Variable => (true, 0.0),
        };
        if !feasible {
            return None;
        }

        let mut rng = SimRng::new(0xE05);
        let specs = poisson_tasks(
            &MixParams {
                tasks: 10,
                mean_interarrival: SimDuration::from_millis(2),
                mean_cpu_burst: SimDuration::from_millis(2),
                fpga_ops_per_task: 5,
                cycles: (50_000, 200_000),
            },
            &ids,
            &mut rng,
        );
        let mgr = PartitionManager::new(
            lib.clone(),
            serial_fast(spec),
            mode.clone(),
            PreemptAction::SaveRestore,
        )
        .unwrap();
        let sched = RoundRobinScheduler::new(SimDuration::from_millis(10));
        let r = run_traced(&lib, mgr, sched, save_restore(), specs);
        Some((name.clone(), r, int_frag))
    });

    for ((name, _), result) in modes.iter().zip(&results) {
        match result {
            None => {
                t.row(vec![
                    name.clone(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "infeasible (circuit wider than every slot)".into(),
                ]);
            }
            Some((label, r, int_frag)) => {
                ex.report(label, r);
                let blocked: u64 = r.tasks.iter().map(|x| x.blocked_count).sum();
                t.row(vec![
                    label.clone(),
                    f3(r.makespan.as_secs_f64()),
                    f3(r.mean_waiting_s()),
                    r.manager_stats.downloads.to_string(),
                    blocked.to_string(),
                    r.manager_stats.evictions.to_string(),
                    r.manager_stats.splits.to_string(),
                    r.manager_stats.gc_runs.to_string(),
                    pct(*int_frag),
                ]);
            }
        }
    }
    t.print();
    ex.table(&t);
    ex.host(host, modes.len());
    Ok(ex)
}
