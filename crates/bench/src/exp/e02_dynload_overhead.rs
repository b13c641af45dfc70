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

use super::grid::{self, fixed, Grid};
use super::RunArgs;
use crate::report::{f3, pct, secs};
use crate::setup::{compile_suite_lib, run_traced, save_restore};
use crate::{Exporter, Json};
use fpga::{ConfigPort, ConfigTiming};
use fsim::{SimDuration, SimRng};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{PreemptAction, RoundRobinScheduler};
use workload::{poisson_tasks, Domain, MixParams};

const PORTS: [(&str, ConfigPort); 2] = [
    ("serial-slow", ConfigPort::SerialSlow),
    ("serial-fast", ConfigPort::SerialFast),
];
const SLICES_MS: [u64; 10] = [1, 2, 5, 10, 20, 50, 100, 200, 500, 1000];

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF800");
    let (lib, ids) = compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec);
    let slow = ConfigTiming {
        spec,
        port: ConfigPort::SerialSlow,
    };
    let cell = |&((_, port), slice): &((&str, ConfigPort), u64)| {
        let params = MixParams {
            tasks: 6,
            mean_interarrival: SimDuration::from_millis(1),
            mean_cpu_burst: SimDuration::from_millis(8),
            fpga_ops_per_task: 4,
            cycles: (100_000, 400_000),
        };
        let specs = poisson_tasks(&params, &ids, &mut SimRng::new(0xE02));
        // SaveRestore so FPGA operations are themselves time-sliced:
        // at small slices every preemption lets another task's circuit
        // evict this one, forcing a re-download on resume — the
        // thrashing regime the paper warns about.
        let timing = ConfigTiming { spec, port };
        let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::SaveRestore);
        let sched = RoundRobinScheduler::new(SimDuration::from_millis(slice));
        Ok(run_traced(&lib, mgr, sched, save_restore(), specs))
    };
    let slices = Json::Arr(SLICES_MS.iter().map(|&s| Json::UInt(s)).collect());
    let grid = Grid {
        code: "e02",
        title: "dynamic loading overhead vs round-robin slice",
        seed: 0xE02,
        params: vec![
            ("device", spec.name.into()),
            ("tasks", 6u64.into()),
            ("slices_ms", slices),
        ],
        points: vec![grid::product(
            (PORTS[0], 0),
            vec![
                fixed(&PORTS, |p, v| p.0 = v),
                fixed(&SLICES_MS, |p, v| p.1 = v),
            ],
        )],
        label: |&((pname, _), slice)| format!("{pname}/slice-{slice}ms"),
        cell: &cell,
        table: "E2: dynamic loading — overhead fraction vs round-robin slice",
        columns: &[
            ("slice", |c| format!("{} ms", c.point.1)),
            ("port", |c| c.point.0 .0.into()),
            ("downloads", |c| c.out.manager_stats.downloads.to_string()),
            ("overhead frac", |c| pct(c.out.overhead_fraction())),
            ("cpu util", |c| pct(c.out.cpu_utilization())),
            ("makespan (s)", |c| secs(c.out.makespan)),
            ("mean turnaround (s)", |c| f3(c.out.mean_turnaround_s())),
        ],
        reports: grid::own_report,
        outro: &format!(
            "\nReference: full serial-slow download = {:.1} ms, \
                 partial (per circuit) ≈ a few ms.\n",
            slow.full_config_time().as_millis_f64()
        ),
        ..Grid::default()
    };
    grid::run(args, grid)
}
