//! The merged-circuit baseline (§3).
//!
//! "If the FPGA is large enough to accommodate contemporaneously all
//! circuits required by all applications, a trivial solution is to merge
//! all circuits into only one: each task will use the part of the merged
//! circuit in which it is interested and ignore all other outputs."
//!
//! [`MergedManager`] implements that: one boot-time download of every
//! circuit side by side; every activation afterwards is free. Its
//! constructor *fails* when the circuits don't all fit — the condition
//! that motivates the whole VFPGA machinery.

use super::{
    Activation, DeviceUsage, FpgaManager, ManagerStats, Port, PreemptCost, ResidentRegion,
};
use crate::circuit::{CircuitId, CircuitLib};
use crate::task::TaskId;
use fpga::ConfigTiming;
use fsim::{SimDuration, TraceEvent};
use std::sync::Arc;

/// Why the merged solution is unavailable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Total circuit columns exceed the device.
    AreaExceeded {
        /// Columns demanded.
        needed: u32,
        /// Columns available.
        available: u32,
    },
    /// Total I/O pins exceed the package.
    PinsExceeded {
        /// Pins demanded.
        needed: usize,
        /// Pins available.
        available: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::AreaExceeded { needed, available } => {
                write!(
                    f,
                    "merged circuit needs {needed} columns, device has {available}"
                )
            }
            MergeError::PinsExceeded { needed, available } => {
                write!(
                    f,
                    "merged circuit needs {needed} pins, package has {available}"
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// All circuits resident simultaneously.
#[derive(Debug)]
pub struct MergedManager {
    port: Port,
    busy: Vec<Option<TaskId>>,
    waiters: Vec<TaskId>,
    /// Constant occupancy: the merged image never changes after boot.
    usage: DeviceUsage,
    /// Fixed placement: circuits packed left-to-right in registration
    /// order, never moved after the boot download.
    regions: Vec<ResidentRegion>,
}

impl MergedManager {
    /// Attempt the merge; fails when area or pins don't fit.
    pub fn new(lib: Arc<CircuitLib>, timing: ConfigTiming) -> Result<Self, MergeError> {
        let needed: u32 = lib.iter().map(|(_, c)| c.shape().0).sum();
        if needed > timing.spec.cols {
            return Err(MergeError::AreaExceeded {
                needed,
                available: timing.spec.cols,
            });
        }
        let pins: usize = lib.iter().map(|(_, c)| c.io_count()).sum();
        if pins > timing.spec.io_pins as usize {
            return Err(MergeError::PinsExceeded {
                needed: pins,
                available: timing.spec.io_pins as usize,
            });
        }
        // One boot-time download covering every circuit's frames.
        let mut port = Port::new(timing);
        port.boot(needed as usize);
        let used: u64 = lib.iter().map(|(_, c)| c.blocks() as u64).sum();
        let total = timing.spec.clbs() as u64;
        let mut regions = Vec::with_capacity(lib.len());
        let mut col0 = 0u32;
        for (cid, c) in lib.iter() {
            let width = c.shape().0;
            regions.push(ResidentRegion { cid, col0, width });
            col0 += width;
        }
        Ok(MergedManager {
            port,
            busy: vec![None; lib.len()],
            waiters: Vec::new(),
            usage: DeviceUsage {
                used_clbs: used,
                total_clbs: total,
                free_fragments: u32::from(used < total),
            },
            regions,
        })
    }

    /// The boot-time configuration cost (charged before any task runs).
    pub fn boot_config_time(&self) -> SimDuration {
        self.port.stats.config_time
    }
}

impl FpgaManager for MergedManager {
    fn name(&self) -> &'static str {
        "merged"
    }

    fn activate(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        // Everything is resident; only simultaneous use of the *same*
        // sub-circuit serializes.
        match self.busy[cid.0 as usize] {
            Some(o) if o != tid => {
                self.port.stats.blocks += 1;
                self.waiters.push(tid);
                Activation::Blocked
            }
            _ => {
                self.busy[cid.0 as usize] = Some(tid);
                self.port.stats.hits += 1;
                Activation::Ready {
                    overhead: SimDuration::ZERO,
                    download: None,
                }
            }
        }
    }

    fn preempt(&mut self, _tid: TaskId, _cid: CircuitId) -> PreemptCost {
        // Nothing is ever evicted: state survives in place.
        PreemptCost {
            overhead: SimDuration::ZERO,
            lose_progress: false,
        }
    }

    fn op_done(&mut self, tid: TaskId, cid: CircuitId) -> (SimDuration, Vec<TaskId>) {
        if self.busy[cid.0 as usize] == Some(tid) {
            self.busy[cid.0 as usize] = None;
        }
        (SimDuration::ZERO, std::mem::take(&mut self.waiters))
    }

    fn task_exit(&mut self, tid: TaskId) -> Vec<TaskId> {
        for b in &mut self.busy {
            if *b == Some(tid) {
                *b = None;
            }
        }
        self.waiters.retain(|t| *t != tid);
        std::mem::take(&mut self.waiters)
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
        self.usage
    }

    fn timing(&self) -> &ConfigTiming {
        &self.port.timing
    }

    fn resident_regions(&self) -> Vec<ResidentRegion> {
        self.regions.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::ConfigPort;
    use pnr::{compile, CompileOptions};

    fn lib_of(widths: &[usize], spec: fpga::DeviceSpec) -> Arc<CircuitLib> {
        let mut lib = CircuitLib::new();
        for (i, &w) in widths.iter().enumerate() {
            let net = netlist::library::arith::ripple_adder(&format!("c{i}"), w);
            let opts = CompileOptions {
                max_height: spec.rows,
                ..Default::default()
            };
            lib.register_compiled(compile(&net, opts).unwrap());
        }
        Arc::new(lib)
    }

    #[test]
    fn small_set_merges_and_activations_are_free() {
        let spec = fpga::device::part("VF400");
        let lib = lib_of(&[4, 4, 4], spec);
        let timing = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        let mut m = MergedManager::new(lib, timing).unwrap();
        assert!(m.boot_config_time() > SimDuration::ZERO);
        for t in 0..3u32 {
            match m.activate(TaskId(t), CircuitId(t)) {
                Activation::Ready { overhead, .. } => assert_eq!(overhead, SimDuration::ZERO),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(m.stats().downloads, 1, "exactly the boot download");
    }

    #[test]
    fn oversized_set_fails_with_area() {
        let spec = fpga::device::part("VF100"); // 10 cols
        let lib = lib_of(&[8, 8, 8, 8], spec);
        let timing = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        match MergedManager::new(lib, timing) {
            Err(MergeError::AreaExceeded { needed, available }) => {
                assert!(needed > available);
            }
            other => panic!("expected AreaExceeded, got {other:?}"),
        }
    }

    #[test]
    fn same_subcircuit_serializes() {
        let spec = fpga::device::part("VF400");
        let lib = lib_of(&[4, 4], spec);
        let timing = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        let mut m = MergedManager::new(lib, timing).unwrap();
        m.activate(TaskId(0), CircuitId(0));
        assert_eq!(m.activate(TaskId(1), CircuitId(0)), Activation::Blocked);
        // A different sub-circuit is free though.
        assert!(matches!(
            m.activate(TaskId(2), CircuitId(1)),
            Activation::Ready { .. }
        ));
        let (_, wake) = m.op_done(TaskId(0), CircuitId(0));
        assert!(wake.contains(&TaskId(1)));
    }
}
