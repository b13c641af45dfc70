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

use super::grid::{self, Grid};
use super::RunArgs;
use crate::report::secs;
use crate::setup::{compile_suite_lib, run_traced, serial_fast};
use crate::Exporter;
use fsim::{SimDuration, SimRng};
use std::sync::Arc;
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::overlay::OverlayManager;
use vfpga::{CircuitId, PreemptAction, Report, RoundRobinScheduler, SystemConfig};
use workload::{poisson_tasks, Domain, MixParams};

/// A set's total width, its dynamic-loading run, and its merged run (or
/// why the merge does not fit).
type Out = (u32, Report, Result<Report, String>);

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF400");
    let (full_lib, all_ids) = compile_suite_lib(
        &[Domain::Telecom, Domain::Storage, Domain::Networking],
        spec,
    );
    let cell = |&n: &usize| {
        // Sub-library with circuits renumbered 0..n.
        let lib = Arc::new(full_lib.subset(&all_ids[..n]));
        let ids: Vec<CircuitId> = (0..n as u32).map(CircuitId).collect();
        let total_cols: u32 = ids.iter().map(|&i| lib.get(i).shape().0).sum();
        let timing = serial_fast(spec);
        let params = MixParams {
            tasks: n,
            mean_interarrival: SimDuration::from_millis(1),
            mean_cpu_burst: SimDuration::from_millis(2),
            fpga_ops_per_task: 5,
            cycles: (50_000, 200_000),
        };
        let specs = poisson_tasks(&params, &ids, &mut SimRng::new(0xE03));
        let rr = || RoundRobinScheduler::new(SimDuration::from_millis(5));
        let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::WaitCompletion);
        let dyn_r = run_traced(&lib, mgr, rr(), SystemConfig::default(), specs.clone());
        let merged = OverlayManager::merged(lib.clone(), timing).map_err(|e| e.to_string());
        let merged = merged.map(|m| run_traced(&lib, m, rr(), SystemConfig::default(), specs));
        Ok::<Out, String>((total_cols, dyn_r, merged))
    };
    let grid = Grid {
        code: "e03",
        title: "merged circuit vs dynamic loading",
        seed: 0xE03,
        params: vec![
            ("device", spec.name.into()),
            ("max_circuits", all_ids.len().into()),
        ],
        points: vec![grid::points((2..=all_ids.len()).collect())],
        label: |n| format!("{n}-circuits"),
        cell: &cell,
        table: "E3: merged circuit vs dynamic loading on VF400",
        columns: &[
            ("circuits", |c| c.point.to_string()),
            ("total cols", |c| c.out.0.to_string()),
            ("merge fits?", |c| {
                c.out
                    .2
                    .as_ref()
                    .map_or_else(|e| format!("no ({e})"), |_| "yes".into())
            }),
            ("merged makespan (s)", |c| {
                let makespan = |r: &Report| secs(r.makespan);
                c.out.2.as_ref().map_or("-".into(), makespan)
            }),
            ("dynload makespan (s)", |c| secs(c.out.1.makespan)),
            ("dynload downloads", |c| {
                c.out.1.manager_stats.downloads.to_string()
            }),
            ("merged speedup", |c| {
                let dyn_s = c.out.1.makespan.as_secs_f64();
                let speedup = |r: &Report| dyn_s / r.makespan.as_secs_f64().max(1e-12);
                c.out
                    .2
                    .as_ref()
                    .map_or("-".into(), |r| format!("{:.2}x", speedup(r)))
            }),
        ],
        reports: |c| {
            let mut out = vec![(format!("dynload/{}", c.label), &c.out.1)];
            out.extend(c.out.2.as_ref().map(|r| (format!("merged/{}", c.label), r)));
            out
        },
        ..Grid::default()
    };
    grid::run(args, grid)
}
