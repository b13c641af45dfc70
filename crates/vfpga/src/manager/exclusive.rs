//! The non-preemptable baseline (§4, first paragraph).
//!
//! "The more drastic solution … is preventing the shared FPGA use. This
//! resource will be considered non-preemptable … Any other task needing an
//! already assigned FPGA will enter in the waiting state … Parallelism of
//! the execution of application tasks may be greatly reduced, even
//! implicitly forcing the scheduling to a strictly FIFO policy."
//!
//! The whole device is granted to the first task that needs it and held,
//! non-preemptably, until that task *exits* (the classic non-preemptable
//! resource discipline). Waiters queue FIFO.

use super::{
    Activation, DeviceUsage, FpgaManager, ManagerStats, Port, PreemptCost, ResidentRegion,
};
use crate::circuit::{CircuitId, CircuitLib};
use crate::task::TaskId;
use fpga::ConfigTiming;
use fsim::{SimDuration, TraceEvent};
use std::collections::VecDeque;
use std::sync::Arc;

/// Whole-device, non-preemptable assignment.
#[derive(Debug)]
pub struct ExclusiveManager {
    lib: Arc<CircuitLib>,
    /// Task currently holding the device, with the loaded circuit.
    holder: Option<(TaskId, CircuitId)>,
    /// What is physically configured (survives release: the next task with
    /// the same circuit skips the download).
    loaded: Option<CircuitId>,
    waiters: VecDeque<(TaskId, CircuitId)>,
    port: Port,
}

impl ExclusiveManager {
    /// New manager over a device timing model.
    pub fn new(lib: Arc<CircuitLib>, timing: ConfigTiming) -> Self {
        ExclusiveManager {
            lib,
            holder: None,
            loaded: None,
            waiters: VecDeque::new(),
            port: Port::new(timing),
        }
    }

    fn grant(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        self.holder = Some((tid, cid));
        if self.loaded == Some(cid) {
            self.port.stats.hits += 1;
            return Activation::Ready {
                overhead: SimDuration::ZERO,
                download: None,
            };
        }
        self.port.stats.misses += 1;
        self.loaded = Some(cid);
        // Exclusive mode models the paper's "only serially and
        // completely" devices: every load is a full reconfiguration.
        let download = self.port.full(tid, self.lib.get(cid).shape().0);
        Activation::Ready {
            overhead: download.config_time,
            download: Some(download),
        }
    }
}

impl FpgaManager for ExclusiveManager {
    fn name(&self) -> &'static str {
        "exclusive"
    }

    fn activate(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        debug_assert!(cid.0 < self.lib.len() as u32, "unregistered circuit");
        match self.holder {
            Some((h, _)) if h == tid => Activation::Ready {
                overhead: SimDuration::ZERO,
                download: None,
            },
            Some(_) => {
                self.port.stats.blocks += 1;
                self.waiters.push_back((tid, cid));
                Activation::Blocked
            }
            None => self.grant(tid, cid),
        }
    }

    fn preempt(&mut self, _tid: TaskId, _cid: CircuitId) -> PreemptCost {
        // Non-preemptable: the system must use WaitCompletion with this
        // manager. Reaching here is a host-OS policy bug.
        panic!("exclusive FPGA is non-preemptable; configure WaitCompletion");
    }

    fn op_done(&mut self, _tid: TaskId, _cid: CircuitId) -> (SimDuration, Vec<TaskId>) {
        // Non-preemptable discipline: the holder keeps the device between
        // its FPGA operations; it is only released at task exit.
        (SimDuration::ZERO, Vec::new())
    }

    fn task_exit(&mut self, tid: TaskId) -> Vec<TaskId> {
        if matches!(self.holder, Some((h, _)) if h == tid) {
            self.holder = None;
            return self.waiters.drain(..).map(|(t, _)| t).collect();
        }
        self.waiters.retain(|(t, _)| *t != tid);
        Vec::new()
    }

    fn stats(&self) -> ManagerStats {
        self.port.stats
    }

    fn set_recording(&mut self, on: bool) {
        self.port.obs.set_recording(on);
    }

    fn drain_events(&mut self) -> Vec<TraceEvent> {
        self.port.obs.drain()
    }

    fn usage(&self) -> DeviceUsage {
        // The whole chip is granted as one unit; usage reflects the
        // holder's circuit footprint.
        let total = self.port.timing.spec.clbs() as u64;
        let used = match self.holder {
            Some((_, cid)) => self.lib.get(cid).blocks() as u64,
            None => 0,
        };
        DeviceUsage {
            used_clbs: used,
            total_clbs: total,
            free_fragments: u32::from(used < total),
        }
    }

    fn timing(&self) -> &ConfigTiming {
        &self.port.timing
    }

    fn preemptable(&self) -> bool {
        false
    }

    fn resident_regions(&self) -> Vec<ResidentRegion> {
        // Full reconfigurations start at column 0.
        self.loaded
            .map(|cid| ResidentRegion {
                cid,
                col0: 0,
                width: self.lib.get(cid).shape().0,
            })
            .into_iter()
            .collect()
    }

    fn discard_resident(&mut self, cid: CircuitId) -> bool {
        if self.loaded == Some(cid) {
            self.loaded = None;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::{ConfigPort, DeviceSpec};
    use pnr::{compile, CompileOptions};

    fn setup() -> (ExclusiveManager, CircuitId, CircuitId) {
        let mut lib = CircuitLib::new();
        let a = lib.register_compiled(
            compile(
                &netlist::library::arith::ripple_adder("a", 4),
                CompileOptions::default(),
            )
            .unwrap(),
        );
        let b = lib.register_compiled(
            compile(
                &netlist::library::logic::parity("b", 8),
                CompileOptions::default(),
            )
            .unwrap(),
        );
        let spec: DeviceSpec = fpga::device::part("VF400");
        let m = ExclusiveManager::new(
            Arc::new(lib),
            ConfigTiming {
                spec,
                port: ConfigPort::SerialSlow,
            },
        );
        (m, a, b)
    }

    #[test]
    fn first_activation_pays_full_config() {
        let (mut m, a, _) = setup();
        match m.activate(TaskId(0), a) {
            Activation::Ready { overhead, .. } => {
                assert_eq!(overhead, m.port.timing.full_config_time());
            }
            other => panic!("expected Ready, got {other:?}"),
        }
        assert_eq!(m.stats().downloads, 1);
    }

    #[test]
    fn second_task_blocks_until_task_exit() {
        let (mut m, a, b) = setup();
        assert!(matches!(m.activate(TaskId(0), a), Activation::Ready { .. }));
        assert_eq!(m.activate(TaskId(1), b), Activation::Blocked);
        assert_eq!(m.stats().blocks, 1);
        // Completing an op does NOT release a non-preemptable device.
        let (_, wake) = m.op_done(TaskId(0), a);
        assert!(wake.is_empty());
        assert_eq!(m.activate(TaskId(1), b), Activation::Blocked);
        // Task exit does.
        let wake = m.task_exit(TaskId(0));
        assert!(wake.contains(&TaskId(1)));
        assert!(matches!(m.activate(TaskId(1), b), Activation::Ready { .. }));
    }

    #[test]
    fn same_circuit_reuse_skips_download() {
        let (mut m, a, _) = setup();
        assert!(matches!(m.activate(TaskId(0), a), Activation::Ready { .. }));
        m.op_done(TaskId(0), a);
        m.task_exit(TaskId(0));
        // Different task, same circuit: device still holds it.
        match m.activate(TaskId(1), a) {
            Activation::Ready { overhead, .. } => assert_eq!(overhead, SimDuration::ZERO),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.stats().downloads, 1);
    }

    #[test]
    fn holder_reactivation_is_free() {
        let (mut m, a, _) = setup();
        m.activate(TaskId(0), a);
        match m.activate(TaskId(0), a) {
            Activation::Ready { overhead, .. } => assert_eq!(overhead, SimDuration::ZERO),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "non-preemptable")]
    fn preemption_panics() {
        let (mut m, a, _) = setup();
        m.activate(TaskId(0), a);
        m.preempt(TaskId(0), a);
    }

    #[test]
    fn task_exit_releases_and_wakes() {
        let (mut m, a, b) = setup();
        m.activate(TaskId(0), a);
        assert_eq!(m.activate(TaskId(1), b), Activation::Blocked);
        let wake = m.task_exit(TaskId(0));
        assert_eq!(wake, vec![TaskId(1)]);
    }

    #[test]
    fn exiting_waiter_leaves_queue() {
        let (mut m, a, b) = setup();
        m.activate(TaskId(0), a);
        m.activate(TaskId(1), b);
        assert!(m.task_exit(TaskId(1)).is_empty());
        let wake = m.task_exit(TaskId(0));
        assert!(wake.is_empty(), "dead waiter must not be woken");
    }
}
