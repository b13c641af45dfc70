//! E10 — Preempting sequential circuits: save/restore vs rollback (§3).
//!
//! Claim operationalized: "if the operating system is allowed to interrupt
//! the execution of the algorithm in the FPGA before its completion … it
//! must store all information which are necessary to roll-back the
//! computation … In the case of FPGA implementing sequential circuits …
//! the internal state of the sequential circuit must be observable … and
//! controllable."
//!
//! A sequential kernel (LFSR scrambler) of growing op length competes with
//! CPU tasks under a fixed round-robin slice. Wait-completion blocks the
//! CPU tasks; rollback only terminates when the op fits in one slice;
//! save/restore always terminates at a readback cost.

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::{compile_suite_lib, run_traced, serial_fast};
use crate::{Exporter, HostProfile};
use fsim::{SimDuration, SimTime};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{Op, PreemptAction, RoundRobinScheduler, SystemConfig, TaskSpec};
use workload::Domain;

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF800");
    let (lib, ids) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib(&[Domain::Telecom], spec)
    });
    let scrambler = ids[0]; // LFSR: sequential
    let timing = serial_fast(spec);
    let slice = SimDuration::from_millis(10);
    let per_cycle = lib.get(scrambler).run_time(1).as_nanos().max(1);

    let mut ex = Exporter::new("e10", "preemption policy vs FPGA-op length");
    ex.seed(0)
        .param("device", spec.name)
        .param("slice_ms", 10u64)
        .param("state_bits", lib.get(scrambler).state_bits());
    let mut t = Table::new(
        "E10: preemption policy vs FPGA-op length (slice = 10 ms)",
        &[
            "op length",
            "policy",
            "completes?",
            "fpga turnaround (s)",
            "lost time (s)",
            "state saves",
            "overhead frac",
        ],
    );

    let points: Vec<(u64, PreemptAction)> = [2u64, 8, 25, 100]
        .into_iter()
        .flat_map(|op_ms| {
            [
                PreemptAction::WaitCompletion,
                PreemptAction::Rollback,
                PreemptAction::SaveRestore,
            ]
            .into_iter()
            .map(move |p| (op_ms, p))
        })
        .collect();
    let results = host.sweep(&points, |_, &(op_ms, policy)| {
        let cycles = (op_ms * 1_000_000) / per_cycle;
        // Rollback with op > slice makes progress only once every
        // competitor has left the ready queue (the OS skips pointless
        // preemption when nobody else can run); the lost-time column
        // shows the discarded work.
        let specs = vec![
            TaskSpec::new(
                "fpga-task",
                SimTime::ZERO,
                vec![Op::FpgaRun {
                    circuit: scrambler,
                    cycles,
                }],
            ),
            TaskSpec::new(
                "cpu-a",
                SimTime::ZERO,
                vec![Op::Cpu(SimDuration::from_millis(40))],
            ),
            TaskSpec::new(
                "cpu-b",
                SimTime::ZERO,
                vec![Op::Cpu(SimDuration::from_millis(40))],
            ),
        ];
        let mgr = DynLoadManager::new(lib.clone(), timing, policy);
        let config = SystemConfig {
            preempt: policy,
            ..Default::default()
        };
        run_traced(&lib, mgr, RoundRobinScheduler::new(slice), config, specs)
    });
    for (&(op_ms, policy), r) in points.iter().zip(&results) {
        ex.report(&format!("{op_ms}ms/{policy:?}"), r);
        t.row(vec![
            format!("{op_ms} ms"),
            format!("{policy:?}"),
            if r.tasks[0].lost_time > SimDuration::ZERO {
                "yes (after CPU tasks idle)".into()
            } else {
                "yes".into()
            },
            f3(r.tasks[0].turnaround().as_secs_f64()),
            f3(r.tasks[0].lost_time.as_secs_f64()),
            r.manager_stats.state_saves.to_string(),
            pct(r.overhead_fraction()),
        ]);
    }
    t.print();
    ex.table(&t);
    ex.host(host, points.len());
    println!(
        "\nState footprint of the scrambler: {} flip-flops over {} frames; one readback = {:.3} ms",
        lib.get(scrambler).state_bits(),
        lib.get(scrambler).frames(),
        timing
            .readback_time(lib.get(scrambler).frames())
            .as_millis_f64()
    );
    Ok(ex)
}
