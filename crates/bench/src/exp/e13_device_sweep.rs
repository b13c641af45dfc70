//! E13 — Right-sizing the device (paper §1/§5).
//!
//! Claim operationalized: VFPGA techniques let designers "reduce the cost
//! of using these components by avoiding underused components" — i.e. run
//! the same workload on a smaller, cheaper part and pay with management
//! overhead instead of silicon.
//!
//! One fixed task mix swept across the whole part catalog under variable
//! partitioning: large parts keep everything resident; small ones evict
//! and reload; below the widest circuit's footprint the workload becomes
//! infeasible.
//!
//! Each part recompiles the suite: the heaviest compile workload in the
//! repertoire, which exercises the shared compile cache (identical
//! kernels across part heights hit it).

use super::grid::{self, Grid};
use super::RunArgs;
use crate::report::{f3, pct, secs};
use crate::setup::{compile_suite_lib, run_traced, save_restore, serial_fast, variable_partitions};
use crate::Exporter;
use fpga::{DeviceSpec, PARTS};
use fsim::{SimDuration, SimRng};
use vfpga::{Report, RoundRobinScheduler};
use workload::{poisson_tasks, Domain, MixParams};

/// The widest circuit, and the run when the part is at least that wide.
type Out = (u32, Option<Report>);

/// `f` of a part's run, `-` where the workload does not fit.
fn fits(c: &grid::Cell<DeviceSpec, Out>, f: fn(&Report) -> String) -> String {
    c.out.1.as_ref().map_or("-".into(), f)
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let cell = |&spec: &DeviceSpec| {
        // Recompile the suites for this part's height so circuits are
        // full-height columns on *this* device.
        let (lib, ids) = compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec);
        let widest = ids.iter().map(|&i| lib.get(i).shape().0).max();
        let widest = widest.expect("the suites hold circuits");
        if widest > spec.cols {
            return Ok((widest, None));
        }
        let mix = MixParams {
            tasks: 10,
            mean_interarrival: SimDuration::from_millis(2),
            mean_cpu_burst: SimDuration::from_millis(2),
            fpga_ops_per_task: 5,
            cycles: (50_000, 200_000),
        };
        let specs = poisson_tasks(&mix, &ids, &mut SimRng::new(0xE13));
        let mgr = variable_partitions(&lib, serial_fast(spec));
        let sched = RoundRobinScheduler::new(SimDuration::from_millis(10));
        Ok((
            widest,
            Some(run_traced(&lib, mgr, sched, save_restore(), specs)),
        ))
    };
    let grid = Grid {
        code: "e13",
        title: "one workload across the part catalog",
        seed: 0xE13,
        params: vec![("parts", PARTS.len().into()), ("tasks", 10u64.into())],
        points: vec![grid::points(PARTS.to_vec())],
        label: |spec| spec.name.into(),
        cell: &cell,
        table: "E13: one workload across the part catalog (variable partitions)",
        columns: &[
            ("part", |c| c.label.clone()),
            ("cols", |c| c.point.cols.to_string()),
            ("gates", |c| c.point.gates.to_string()),
            ("fits?", |c| match c.out.1 {
                Some(_) => "yes".into(),
                None => format!("NO (needs {} cols)", c.out.0),
            }),
            ("makespan (s)", |c| fits(c, |r| secs(r.makespan))),
            ("mean wait (s)", |c| fits(c, |r| f3(r.mean_waiting_s()))),
            ("downloads", |c| {
                fits(c, |r| r.manager_stats.downloads.to_string())
            }),
            ("evictions", |c| {
                fits(c, |r| r.manager_stats.evictions.to_string())
            }),
            ("overhead frac", |c| fits(c, |r| pct(r.overhead_fraction()))),
        ],
        reports: |c| c.out.1.iter().map(|r| (c.label.clone(), r)).collect(),
        outro:
            "\nThe cheapest part with acceptable makespan is the right buy — §1's cost argument.\n",
        ..Grid::default()
    };
    grid::run(args, grid)
}
