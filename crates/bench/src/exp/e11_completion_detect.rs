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

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::{compile_suite_lib, run_traced, serial_fast};
use crate::{Exporter, HostProfile};
use fsim::{SimDuration, SimTime};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{CompletionDetect, FifoScheduler, Op, PreemptAction, SystemConfig, TaskSpec};
use workload::Domain;

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF800");
    let (lib, ids) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib(&[Domain::Networking], spec)
    });
    let cid = ids[0];
    let timing = serial_fast(spec);
    let cycles = 200_000u64;
    let op_ms = lib.get(cid).run_time(cycles).as_millis_f64();

    let mut detect_modes: Vec<(String, CompletionDetect)> =
        vec![("exact (ideal)".into(), CompletionDetect::Exact)];
    for factor in [1.05, 1.1, 1.25, 1.5, 2.0] {
        detect_modes.push((
            format!("estimate x{factor}"),
            CompletionDetect::Estimate { factor },
        ));
    }
    for poll_us in [10u64, 100, 1_000, 10_000] {
        detect_modes.push((
            format!("done-signal poll {poll_us}us"),
            CompletionDetect::DoneSignal {
                poll: SimDuration::from_micros(poll_us),
            },
        ));
    }

    let mut ex = Exporter::new("e11", "completion detection mechanisms");
    ex.seed(0)
        .param("device", spec.name)
        .param("ops", 20u64)
        .param("op_ms", op_ms);
    let mut t = Table::new(
        format!("E11: completion detection over 20 ops of {op_ms:.2} ms each"),
        &[
            "mechanism",
            "makespan (s)",
            "overhead frac",
            "wasted per op (ms)",
        ],
    );
    let results = host.sweep(&detect_modes, |_, (_, completion)| {
        let ops: Vec<Op> = (0..20)
            .flat_map(|_| {
                vec![
                    Op::FpgaRun {
                        circuit: cid,
                        cycles,
                    },
                    Op::Cpu(SimDuration::from_micros(200)),
                ]
            })
            .collect();
        let specs = vec![TaskSpec::new("t", SimTime::ZERO, ops)];
        let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::WaitCompletion);
        let config = SystemConfig {
            completion: *completion,
            ..Default::default()
        };
        run_traced(&lib, mgr, FifoScheduler::new(), config, specs)
    });
    for ((name, _), r) in detect_modes.iter().zip(&results) {
        ex.report(name, r);
        // Wasted time = overhead beyond the single configuration download.
        let config = r.manager_stats.config_time;
        let wasted = r.tasks[0].overhead_time.saturating_sub(config);
        t.row(vec![
            name.clone(),
            f3(r.makespan.as_secs_f64()),
            pct(r.overhead_fraction()),
            f3(wasted.as_millis_f64() / 20.0),
        ]);
    }
    t.print();
    ex.table(&t);
    ex.host(host, detect_modes.len());
    Ok(ex)
}
