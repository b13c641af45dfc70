//! E11 — Completion detection: a-priori estimate vs done signal (§3).
//!
//! Claim operationalized: "This time can be estimated a priori by the
//! compiler of the FPGA configuration … Alternatively, a suitable service
//! logic circuit can be introduced in the FPGA itself to generate a
//! control signal which becomes active only after the completion."
//!
//! One task runs 20 FPGA ops. The estimate path wastes `(factor−1)×op`
//! per op; the done-signal path wastes at most one poll period plus the
//! poll CPU cost. The table locates where each mechanism wins.

use super::grid::{self, Grid};
use super::RunArgs;
use crate::report::{f3, pct, secs};
use crate::setup::{compile_suite_lib, run_traced, serial_fast};
use crate::Exporter;
use fsim::{SimDuration, SimTime};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{CompletionDetect, FifoScheduler, Op, PreemptAction, SystemConfig, TaskSpec};
use workload::Domain;

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF800");
    let (lib, ids) = compile_suite_lib(&[Domain::Networking], spec);
    let (circuit, cycles) = (ids[0], 200_000u64);
    let op_ms = lib.get(circuit).run_time(cycles).as_millis_f64();

    let mut modes: Vec<(String, CompletionDetect)> =
        vec![("exact (ideal)".into(), CompletionDetect::Exact)];
    for factor in [1.05, 1.1, 1.25, 1.5, 2.0] {
        modes.push((
            format!("estimate x{factor}"),
            CompletionDetect::Estimate { factor },
        ));
    }
    for poll_us in [10u64, 100, 1_000, 10_000] {
        let poll = SimDuration::from_micros(poll_us);
        modes.push((
            format!("done-signal poll {poll_us}us"),
            CompletionDetect::DoneSignal { poll },
        ));
    }
    let cell = |&(_, completion): &(String, CompletionDetect)| {
        let op = [
            Op::FpgaRun { circuit, cycles },
            Op::Cpu(SimDuration::from_micros(200)),
        ];
        let specs = vec![TaskSpec::new("t", SimTime::ZERO, op.repeat(20))];
        let mgr = DynLoadManager::new(
            lib.clone(),
            serial_fast(spec),
            PreemptAction::WaitCompletion,
        );
        let config = SystemConfig {
            completion,
            ..Default::default()
        };
        Ok(run_traced(&lib, mgr, FifoScheduler::new(), config, specs))
    };
    let grid = Grid {
        code: "e11",
        title: "completion detection mechanisms",
        params: vec![
            ("device", spec.name.into()),
            ("ops", 20u64.into()),
            ("op_ms", op_ms.into()),
        ],
        points: vec![grid::points(modes)],
        label: |(name, _)| name.clone(),
        cell: &cell,
        table: &format!("E11: completion detection over 20 ops of {op_ms:.2} ms each"),
        columns: &[
            ("mechanism", |c| c.label.clone()),
            ("makespan (s)", |c| secs(c.out.makespan)),
            ("overhead frac", |c| pct(c.out.overhead_fraction())),
            // Wasted time = overhead beyond the single configuration download.
            ("wasted per op (ms)", |c| {
                let config = c.out.manager_stats.config_time;
                f3(c.out.tasks[0]
                    .overhead_time
                    .saturating_sub(config)
                    .as_millis_f64()
                    / 20.0)
            }),
        ],
        reports: grid::own_report,
        ..Grid::default()
    };
    grid::run(args, grid)
}
