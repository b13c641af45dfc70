//! The fixture the integration tests share: a four-circuit library (two
//! combinational, two sequential), the device timing, and a workload whose
//! tasks alternate between circuits so residency claims churn.
#![allow(dead_code)] // each test crate uses its own subset

use fsim::{SimDuration, SimTime};
use std::sync::Arc;
use vfpga::circuit::{CircuitId, CircuitLib};
use vfpga::manager::partition::{PartitionManager, PartitionMode};
use vfpga::manager::PreemptAction;
use vfpga::system::{System, SystemConfig};
use vfpga::task::{Op, TaskSpec};
use vfpga::Scheduler;

pub fn lib4() -> (Arc<CircuitLib>, Vec<CircuitId>) {
    use netlist::library::{arith, logic, seq};
    let mut lib = CircuitLib::new();
    let ids = [
        arith::ripple_adder("add", 8),
        seq::lfsr("lfsr", 16, 0b1101_0000_0000_1000),
        logic::parity("par", 12),
        seq::counter("ctr", 12),
    ]
    .iter()
    .map(|net| lib.register_compiled(pnr::compile(net, Default::default()).unwrap()))
    .collect();
    (Arc::new(lib), ids)
}

pub fn timing() -> fpga::ConfigTiming {
    fpga::ConfigTiming {
        spec: fpga::device::part("VF400"),
        port: fpga::ConfigPort::SerialFast,
    }
}

/// The system most of these tests run: variable partitions, state saved
/// and restored on preemption.
pub fn partition_system<S: Scheduler>(
    lib: Arc<CircuitLib>,
    sched: S,
    specs: Vec<TaskSpec>,
) -> System<PartitionManager, S> {
    let (mode, preempt) = (PartitionMode::Variable, PreemptAction::SaveRestore);
    let mgr = PartitionManager::new(lib.clone(), timing(), mode, preempt).unwrap();
    let config = SystemConfig {
        preempt,
        ..Default::default()
    };
    System::new(lib, mgr, sched, config, specs)
}

/// The program every task runs: two runs of `cid` between CPU bursts.
pub fn four_ops(cid: CircuitId) -> Vec<Op> {
    vec![
        Op::Cpu(SimDuration::from_micros(100)),
        Op::FpgaRun {
            circuit: cid,
            cycles: 60_000,
        },
        Op::Cpu(SimDuration::from_micros(50)),
        Op::FpgaRun {
            circuit: cid,
            cycles: 30_000,
        },
    ]
}

/// `n` tasks arriving 40 µs apart, task `i` on circuit `i mod 4`: exactly
/// the workload where a stale claim after a bad restore would bite.
pub fn workload(ids: &[CircuitId], n: usize) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let at = SimTime::ZERO + SimDuration::from_micros(i as u64 * 40);
            TaskSpec::new(format!("t{i}"), at, four_ops(ids[i % ids.len()]))
        })
        .collect()
}
