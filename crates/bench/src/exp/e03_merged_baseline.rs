//! E3 — The merged-circuit trivial solution vs dynamic loading (paper §3).
//!
//! Claim operationalized: "If the FPGA is large enough to accommodate
//! contemporaneously all circuits required by all applications, a trivial
//! solution is to merge all circuits into only one … The general solution
//! is indeed dynamic loading."
//!
//! Growing circuit sets on a fixed device: the merge fits up to a point
//! (zero per-switch overhead, one boot download), then area/pins overflow
//! and only dynamic loading can serve the set — at a per-switch price.

use super::RunArgs;
use crate::report::{f3, Table};
use crate::setup::{compile_suite_lib, run_traced, serial_fast};
use crate::{Exporter, HostProfile};
use fsim::{SimDuration, SimRng};
use std::sync::Arc;
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::merged::MergedManager;
use vfpga::{CircuitId, PreemptAction, RoundRobinScheduler, SystemConfig};
use workload::{poisson_tasks, Domain, MixParams};

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF400");
    let (full_lib, all_ids) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib(
            &[Domain::Telecom, Domain::Storage, Domain::Networking],
            spec,
        )
    });

    let mut ex = Exporter::new("e03", "merged circuit vs dynamic loading");
    ex.seed(0xE03)
        .param("device", spec.name)
        .param("max_circuits", all_ids.len());
    let mut t = Table::new(
        "E3: merged circuit vs dynamic loading on VF400",
        &[
            "circuits",
            "total cols",
            "merge fits?",
            "merged makespan (s)",
            "dynload makespan (s)",
            "dynload downloads",
            "merged speedup",
        ],
    );

    let points: Vec<usize> = (2..=all_ids.len()).collect();
    let results = host.sweep(&points, |_, &n| {
        // Sub-library with circuits renumbered 0..n.
        let lib = Arc::new(full_lib.subset(&all_ids[..n]));
        let ids: Vec<CircuitId> = (0..n as u32).map(CircuitId).collect();
        let total_cols: u32 = ids.iter().map(|&i| lib.get(i).shape().0).sum();
        let timing = serial_fast(spec);

        let mut rng = SimRng::new(0xE03);
        let params = MixParams {
            tasks: n,
            mean_interarrival: SimDuration::from_millis(1),
            mean_cpu_burst: SimDuration::from_millis(2),
            fpga_ops_per_task: 5,
            cycles: (50_000, 200_000),
        };
        let specs = poisson_tasks(&params, &ids, &mut rng);

        let rr = || RoundRobinScheduler::new(SimDuration::from_millis(5));
        let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::WaitCompletion);
        let dyn_r = run_traced(&lib, mgr, rr(), SystemConfig::default(), specs.clone());

        let merged = match MergedManager::new(lib.clone(), timing) {
            Ok(mgr) => Some(run_traced(&lib, mgr, rr(), SystemConfig::default(), specs)),
            Err(e) => {
                return (n, total_cols, dyn_r, Err(e.to_string()));
            }
        };
        (n, total_cols, dyn_r, Ok(merged.unwrap()))
    });

    for (n, total_cols, dyn_r, merged) in &results {
        ex.report(&format!("dynload/{n}-circuits"), dyn_r);
        match merged {
            Ok(merged_r) => {
                ex.report(&format!("merged/{n}-circuits"), merged_r);
                t.row(vec![
                    n.to_string(),
                    total_cols.to_string(),
                    "yes".into(),
                    f3(merged_r.makespan.as_secs_f64()),
                    f3(dyn_r.makespan.as_secs_f64()),
                    dyn_r.manager_stats.downloads.to_string(),
                    format!(
                        "{:.2}x",
                        dyn_r.makespan.as_secs_f64() / merged_r.makespan.as_secs_f64().max(1e-12)
                    ),
                ]);
            }
            Err(e) => {
                t.row(vec![
                    n.to_string(),
                    total_cols.to_string(),
                    format!("no ({e})"),
                    "-".into(),
                    f3(dyn_r.makespan.as_secs_f64()),
                    dyn_r.manager_stats.downloads.to_string(),
                    "-".into(),
                ]);
            }
        }
    }
    t.print();
    ex.table(&t);
    ex.host(host, points.len());
    Ok(ex)
}
