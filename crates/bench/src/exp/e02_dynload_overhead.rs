//! E2 — Dynamic-loading overhead vs time-slice length (paper §3).
//!
//! Claim operationalized: "The applicability of dynamic loading is limited
//! by the time required to physically download the FPGA configuration …
//! Changing the configuration upon explicit request is feasible if it is
//! required not too often with respect to … the time slice in time-shared
//! systems."
//!
//! Six tasks, each with its own circuit, round-robin over a slice swept
//! from 1 ms to 1 s, on (a) the serial-only port (full reconfiguration
//! every switch) and (b) the partial-reconfiguration port. The overhead
//! fraction collapses once the slice dwarfs the download time.

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::{compile_suite_lib, run_traced, save_restore};
use crate::{Exporter, HostProfile, Json};
use fpga::{ConfigPort, ConfigTiming};
use fsim::{SimDuration, SimRng};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{PreemptAction, RoundRobinScheduler};
use workload::{poisson_tasks, Domain, MixParams};

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF800");
    let (lib, ids) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec)
    });

    let slices_ms = [1u64, 2, 5, 10, 20, 50, 100, 200, 500, 1000];
    let mut ex = Exporter::new("e02", "dynamic loading overhead vs round-robin slice");
    ex.seed(0xE02)
        .param("device", spec.name)
        .param("tasks", 6u64)
        .param(
            "slices_ms",
            Json::Arr(slices_ms.iter().map(|&s| Json::UInt(s)).collect()),
        );
    let mut t = Table::new(
        "E2: dynamic loading — overhead fraction vs round-robin slice",
        &[
            "slice",
            "port",
            "downloads",
            "overhead frac",
            "cpu util",
            "makespan (s)",
            "mean turnaround (s)",
        ],
    );

    let points: Vec<(&str, ConfigPort, u64)> = [
        ("serial-slow", ConfigPort::SerialSlow),
        ("serial-fast", ConfigPort::SerialFast),
    ]
    .into_iter()
    .flat_map(|(pname, port)| slices_ms.iter().map(move |&s| (pname, port, s)))
    .collect();
    let results = host.sweep(&points, |_, &(pname, port, slice)| {
        let timing = ConfigTiming { spec, port };
        let mut rng = SimRng::new(0xE02);
        let params = MixParams {
            tasks: 6,
            mean_interarrival: SimDuration::from_millis(1),
            mean_cpu_burst: SimDuration::from_millis(8),
            fpga_ops_per_task: 4,
            cycles: (100_000, 400_000),
        };
        let specs = poisson_tasks(&params, &ids, &mut rng);
        // SaveRestore so FPGA operations are themselves time-sliced:
        // at small slices every preemption lets another task's circuit
        // evict this one, forcing a re-download on resume — the
        // thrashing regime the paper warns about.
        let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore);
        let sched = RoundRobinScheduler::new(SimDuration::from_millis(slice));
        let r = run_traced(&lib, mgr, sched, save_restore(), specs);
        let row = vec![
            format!("{slice} ms"),
            pname.into(),
            r.manager_stats.downloads.to_string(),
            pct(r.overhead_fraction()),
            pct(r.cpu_utilization()),
            f3(r.makespan.as_secs_f64()),
            f3(r.mean_turnaround_s()),
        ];
        (format!("{pname}/slice-{slice}ms"), r, row)
    });
    for (label, r, row) in &results {
        ex.report(label, r);
        t.row(row.clone());
    }
    t.print();
    ex.table(&t);
    ex.host(host, points.len());
    println!(
        "\nReference: full serial-slow download = {:.1} ms, partial (per circuit) ≈ a few ms.",
        ConfigTiming {
            spec,
            port: ConfigPort::SerialSlow
        }
        .full_config_time()
        .as_millis_f64()
    );
    Ok(ex)
}
