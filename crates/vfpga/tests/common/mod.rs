//! The fixture the integration tests share: a four-circuit library (two
//! combinational, two sequential), the device timing, and a workload whose
//! tasks alternate between circuits so residency claims churn.
#![allow(dead_code)] // each test crate uses its own subset

use fsim::{SimDuration, SimTime};
use std::sync::{Arc, Mutex};
use vfpga::checkpoint::Cut;
use vfpga::circuit::{CircuitId, CircuitLib};
use vfpga::manager::partition::{PartitionManager, PartitionMode};
use vfpga::manager::{PreemptAction, ResidentRegion};
use vfpga::system::{System, SystemConfig};
use vfpga::task::{Op, TaskSpec};
use vfpga::{FpgaManager, Scheduler};

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

/// Seven circuits, 32 columns of them on the 20-column VF400: idle
/// residents crowd the part, so loads evict, compact and land where other
/// circuits sat.
pub fn lib7() -> (Arc<CircuitLib>, Vec<CircuitId>) {
    use netlist::library::{arith, logic, seq};
    let mut lib = CircuitLib::new();
    let ids = [
        arith::ripple_adder("add", 8),
        seq::lfsr("lfsr", 16, 0b1101_0000_0000_1000),
        logic::parity("par", 12),
        seq::counter("ctr", 12),
        arith::ripple_adder("add16", 16),
        seq::counter("ctr24", 24),
        logic::parity("par32", 32),
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

/// A run of `build` crashed at `at`: the cut, the residency claims the
/// device holds then, and those a journaled restore of the cut holds.
/// `None` if the run is over by then.
pub fn crash_claims<M: FpgaManager + 'static, S: Scheduler>(
    build: impl Fn() -> System<M, S>,
    at: SimTime,
) -> Option<(Cut, Vec<ResidentRegion>, Vec<ResidentRegion>)> {
    let probed = || {
        let claims = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&claims);
        let sys = build().with_run_probe(move |m: &M, _| {
            *seen.lock().unwrap() = m.resident_regions();
        });
        (sys, claims)
    };
    let (mut crashed, device) = probed();
    let cut = crashed.run_to_cut(Some(at)).unwrap()?;
    crashed.abandon_lost(at);
    let (mut sys, restored) = probed();
    sys.restore_cut(cut.clone()).unwrap();
    sys.abandon_lost(at);
    let take = |c: Arc<Mutex<_>>| std::mem::take(&mut *c.lock().unwrap());
    Some((cut, take(device), take(restored)))
}

/// No claim a restore holds sits on columns the device holds another
/// circuit (or the same one elsewhere) on.
pub fn assert_no_claim_over_another(
    device: &[ResidentRegion],
    restored: &[ResidentRegion],
    what: &str,
) {
    let overlap = |a: &ResidentRegion, b: &ResidentRegion| {
        a.col0 < b.col0 + b.width && b.col0 < a.col0 + a.width
    };
    for claim in restored {
        for held in device.iter().filter(|h| overlap(claim, h)) {
            assert_eq!(
                claim, held,
                "{what}: a restored claim sits on columns the device holds another circuit on"
            );
        }
    }
}
