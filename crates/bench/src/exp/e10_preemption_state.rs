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

use super::grid::{self, fixed, Grid};
use super::RunArgs;
use crate::report::{pct, secs};
use crate::setup::{compile_suite_lib, run_traced, serial_fast};
use crate::Exporter;
use fsim::{SimDuration, SimTime};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{Op, PreemptAction, RoundRobinScheduler, SystemConfig, TaskSpec};
use workload::Domain;

const POLICIES: [PreemptAction; 3] = [
    PreemptAction::WaitCompletion,
    PreemptAction::Rollback,
    PreemptAction::SaveRestore,
];

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF800");
    let (lib, ids) = compile_suite_lib(&[Domain::Telecom], spec);
    let scrambler = lib.get(ids[0]); // LFSR: sequential
    let timing = serial_fast(spec);
    let per_cycle = scrambler.run_time(1).as_nanos().max(1);
    let cell = |&(op_ms, policy): &(u64, PreemptAction)| {
        // Rollback with op > slice makes progress only once every
        // competitor has left the ready queue (the OS skips pointless
        // preemption when nobody else can run); the lost-time column
        // shows the discarded work.
        let cycles = (op_ms * 1_000_000) / per_cycle;
        let fpga = vec![Op::FpgaRun {
            circuit: ids[0],
            cycles,
        }];
        let cpu = || vec![Op::Cpu(SimDuration::from_millis(40))];
        let specs = vec![
            TaskSpec::new("fpga-task", SimTime::ZERO, fpga),
            TaskSpec::new("cpu-a", SimTime::ZERO, cpu()),
            TaskSpec::new("cpu-b", SimTime::ZERO, cpu()),
        ];
        let mgr = DynLoadManager::new(lib.clone(), timing, policy);
        let config = SystemConfig {
            preempt: policy,
            ..Default::default()
        };
        let sched = RoundRobinScheduler::new(SimDuration::from_millis(10));
        Ok(run_traced(&lib, mgr, sched, config, specs))
    };
    let grid = Grid {
        code: "e10",
        title: "preemption policy vs FPGA-op length",
        params: vec![
            ("device", spec.name.into()),
            ("slice_ms", 10u64.into()),
            ("state_bits", scrambler.state_bits().into()),
        ],
        points: vec![grid::product(
            (0, POLICIES[0]),
            vec![
                fixed(&[2, 8, 25, 100], |p, v| p.0 = v),
                fixed(&POLICIES, |p, v| p.1 = v),
            ],
        )],
        label: |(op_ms, policy)| format!("{op_ms}ms/{policy:?}"),
        cell: &cell,
        table: "E10: preemption policy vs FPGA-op length (slice = 10 ms)",
        columns: &[
            ("op length", |c| format!("{} ms", c.point.0)),
            ("policy", |c| format!("{:?}", c.point.1)),
            ("completes?", |c| {
                match c.out.tasks[0].lost_time > SimDuration::ZERO {
                    true => "yes (after CPU tasks idle)".into(),
                    false => "yes".into(),
                }
            }),
            ("fpga turnaround (s)", |c| secs(c.out.tasks[0].turnaround())),
            ("lost time (s)", |c| secs(c.out.tasks[0].lost_time)),
            ("state saves", |c| {
                c.out.manager_stats.state_saves.to_string()
            }),
            ("overhead frac", |c| pct(c.out.overhead_fraction())),
        ],
        reports: grid::own_report,
        outro: &format!(
            "\nState footprint of the scrambler: {} flip-flops over {} frames; \
             one readback = {:.3} ms\n",
            scrambler.state_bits(),
            scrambler.frames(),
            timing.readback_time(scrambler.frames()).as_millis_f64()
        ),
        ..Grid::default()
    };
    grid::run(args, grid)
}
