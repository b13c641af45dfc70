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
//! Each part is an independent sweep point: the per-part suite recompile
//! is the heaviest compile workload in the repertoire, which makes this
//! the headline experiment for `--threads N` plus the shared compile
//! cache (identical kernels across part heights hit the cache).

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::{run_traced, save_restore, variable_partitions};
use crate::{Exporter, HostProfile};
use fpga::{ConfigPort, ConfigTiming, PARTS};
use fsim::{SimDuration, SimRng};
use std::sync::Arc;
use vfpga::{CircuitLib, RoundRobinScheduler};
use workload::{poisson_tasks, suite, Domain, MixParams};

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let mut ex = Exporter::new("e13", "one workload across the part catalog");
    ex.seed(0xE13)
        .param("parts", PARTS.len())
        .param("tasks", 10u64);
    let mut t = Table::new(
        "E13: one workload across the part catalog (variable partitions)",
        &[
            "part",
            "cols",
            "gates",
            "fits?",
            "makespan (s)",
            "mean wait (s)",
            "downloads",
            "evictions",
            "overhead frac",
        ],
    );

    let results = host.sweep(PARTS, |_, spec| {
        // Recompile the suites for this part's height so circuits are
        // full-height columns on *this* device.
        let mut lib = CircuitLib::new();
        let mut ids = Vec::new();
        for d in [Domain::Telecom, Domain::Storage] {
            for app in suite(d, spec.rows).apps {
                ids.push(lib.register_shared(app.compiled));
            }
        }
        let lib = Arc::new(lib);
        let widest = ids.iter().map(|&i| lib.get(i).shape().0).max().unwrap();
        if widest > spec.cols {
            return (
                None,
                vec![
                    spec.name.into(),
                    spec.cols.to_string(),
                    spec.gates.to_string(),
                    format!("NO (needs {widest} cols)"),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ],
            );
        }

        let timing = ConfigTiming {
            spec: *spec,
            port: ConfigPort::SerialFast,
        };
        let mut rng = SimRng::new(0xE13);
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
        let mgr = variable_partitions(&lib, timing);
        let sched = RoundRobinScheduler::new(SimDuration::from_millis(10));
        let r = run_traced(&lib, mgr, sched, save_restore(), specs);
        let row = vec![
            spec.name.into(),
            spec.cols.to_string(),
            spec.gates.to_string(),
            "yes".into(),
            f3(r.makespan.as_secs_f64()),
            f3(r.mean_waiting_s()),
            r.manager_stats.downloads.to_string(),
            r.manager_stats.evictions.to_string(),
            pct(r.overhead_fraction()),
        ];
        (Some(r), row)
    });
    for (spec, (report, row)) in PARTS.iter().zip(results) {
        if let Some(r) = &report {
            ex.report(spec.name, r);
        }
        t.row(row);
    }
    t.print();
    ex.table(&t);
    ex.host(host, PARTS.len());
    println!("\nThe cheapest part with acceptable makespan is the right buy — §1's cost argument.");
    Ok(ex)
}
