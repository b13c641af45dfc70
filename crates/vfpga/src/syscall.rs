//! The system-call veneer (§3).
//!
//! "The configuration desired by the task must be declared and stored in
//! the operating system tables at the beginning of the task life … either
//! by means of a specific operating system call or a call to the operating
//! system call fopen … with the configuration specified by the programmer
//! as one of the parameters."
//!
//! [`OsInterface`] is that declaration-time API: tasks *open* the circuits
//! they will use (validated against the device), *select* among them, and
//! build their [`TaskSpec`] programs from the granted handles. It is a
//! typed front-end over the circuit table the managers consume — the part
//! of the paper's design that keeps "problems not related to the
//! application" out of application code.

use crate::circuit::{CircuitId, CircuitImage, CircuitLib};
use crate::task::{Op, TaskSpec};
use fsim::{SimDuration, SimTime};
use pnr::CompiledCircuit;
use std::sync::Arc;

/// Why `fpga_open` refused a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpenError {
    /// The circuit exceeds the device's CLB array even standing alone.
    TooLarge {
        /// Columns needed.
        needed: (u32, u32),
        /// Device shape.
        device: (u32, u32),
    },
    /// The circuit demands more pins than the package has.
    TooManyPins {
        /// Pins needed.
        needed: usize,
        /// Pins available.
        available: usize,
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::TooLarge { needed, device } => {
                write!(f, "circuit needs {needed:?} CLBs, device is {device:?}")
            }
            OpenError::TooManyPins { needed, available } => {
                write!(f, "circuit needs {needed} pins, package has {available}")
            }
        }
    }
}

impl std::error::Error for OpenError {}

/// A granted circuit handle (the "file descriptor" of the FPGA world).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FpgaHandle(pub CircuitId);

/// The OS-table front-end: validates and registers circuits, and builds
/// task programs against granted handles.
#[derive(Debug)]
pub struct OsInterface {
    device: fpga::DeviceSpec,
    lib: CircuitLib,
}

impl OsInterface {
    /// An interface for one device.
    pub fn new(device: fpga::DeviceSpec) -> Self {
        OsInterface {
            device,
            lib: CircuitLib::new(),
        }
    }

    /// `fpga_open`: declare a compiled circuit; the OS validates it
    /// against the physical device and stores it in its tables. Accepts
    /// either an owned artifact or one shared through the compile cache.
    pub fn open(
        &mut self,
        compiled: impl Into<Arc<CompiledCircuit>>,
    ) -> Result<FpgaHandle, OpenError> {
        let img = CircuitImage::from_shared(compiled.into());
        let (w, h) = img.shape();
        if w > self.device.cols || h > self.device.rows {
            return Err(OpenError::TooLarge {
                needed: (w, h),
                device: (self.device.cols, self.device.rows),
            });
        }
        if img.io_count() > self.device.io_pins as usize {
            return Err(OpenError::TooManyPins {
                needed: img.io_count(),
                available: self.device.io_pins as usize,
            });
        }
        Ok(FpgaHandle(self.lib.register(img)))
    }

    /// The populated circuit table, for constructing managers.
    pub fn into_lib(self) -> CircuitLib {
        self.lib
    }

    /// Peek at the table while still opening circuits.
    pub fn lib(&self) -> &CircuitLib {
        &self.lib
    }

    /// Start building a task program against this interface's handles.
    pub fn program(&self, name: impl Into<Arc<str>>, arrival: SimTime) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            arrival,
            priority: 0,
            ops: Vec::new(),
        }
    }
}

/// Fluent builder for a task's program: the ops grow in a `Vec` and are
/// frozen into the spec's shared [`Program`](crate::task::Program) once,
/// by [`build`](Self::build).
#[derive(Debug)]
pub struct ProgramBuilder {
    name: Arc<str>,
    arrival: SimTime,
    priority: u8,
    ops: Vec<Op>,
}

impl ProgramBuilder {
    /// Append a CPU burst.
    pub fn compute(mut self, d: SimDuration) -> Self {
        self.ops.push(Op::Cpu(d));
        self
    }

    /// Append an FPGA run on an opened circuit (`fpga_select` + execute).
    pub fn fpga(mut self, h: FpgaHandle, cycles: u64) -> Self {
        self.ops.push(Op::FpgaRun {
            circuit: h.0,
            cycles,
        });
        self
    }

    /// Set the scheduling priority.
    pub fn priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }

    /// Finish the program. A program with no operations is a declaration
    /// bug, reported as [`VfpgaError::EmptyProgram`](crate::error::VfpgaError::EmptyProgram) rather than a panic.
    pub fn build(self) -> Result<TaskSpec, crate::error::VfpgaError> {
        if self.ops.is_empty() {
            return Err(crate::error::VfpgaError::EmptyProgram);
        }
        Ok(TaskSpec::new(self.name, self.arrival, self.ops).with_priority(self.priority))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnr::{compile, CompileOptions};

    fn compiled(bits: usize) -> CompiledCircuit {
        compile(
            &netlist::library::arith::ripple_adder("a", bits),
            CompileOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn open_validates_and_registers() {
        let mut os = OsInterface::new(fpga::device::part("VF400"));
        let h1 = os.open(compiled(4)).unwrap();
        let h2 = os.open(compiled(8)).unwrap();
        assert_ne!(h1.0, h2.0);
        assert_eq!(os.lib().len(), 2);
    }

    #[test]
    fn open_rejects_oversized_circuit() {
        let mut os = OsInterface::new(fpga::device::part("VF100"));
        let big = compile(
            &netlist::library::arith::array_multiplier("m12", 12),
            CompileOptions {
                max_height: 10,
                ..Default::default()
            },
        );
        match big {
            Ok(c) => {
                let err = os.open(c).unwrap_err();
                assert!(matches!(
                    err,
                    OpenError::TooLarge { .. } | OpenError::TooManyPins { .. }
                ));
            }
            Err(_) => {
                // The placer itself refused (region capped at the device):
                // equally a correct rejection path.
            }
        }
    }

    #[test]
    fn open_rejects_pin_hungry_circuit() {
        // VF100 has 64 pins; a 70-input parity tree needs 71 pins but only
        // ~23 CLBs, so the pin check is what fires.
        let mut os = OsInterface::new(fpga::device::part("VF100"));
        let c = compile(
            &netlist::library::logic::parity("wide", 70),
            CompileOptions {
                max_height: 10,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(os.open(c), Err(OpenError::TooManyPins { .. })));
    }

    #[test]
    fn program_builder_assembles_ops() {
        let mut os = OsInterface::new(fpga::device::part("VF400"));
        let h = os.open(compiled(4)).unwrap();
        let spec = os
            .program("t", SimTime::ZERO)
            .compute(SimDuration::from_millis(1))
            .fpga(h, 500)
            .compute(SimDuration::from_millis(2))
            .priority(3)
            .build()
            .unwrap();
        assert_eq!(spec.ops.len(), 3);
        assert_eq!(spec.priority, 3);
        assert_eq!(spec.circuits_used(), vec![h.0]);
    }

    #[test]
    fn empty_program_rejected() {
        let os = OsInterface::new(fpga::device::part("VF400"));
        let err = os.program("t", SimTime::ZERO).build().unwrap_err();
        assert!(matches!(err, crate::error::VfpgaError::EmptyProgram));
    }

    /// The veneer end-to-end: open circuits, build programs, run a system.
    #[test]
    fn syscall_flow_runs_a_system() {
        use crate::manager::dynload::DynLoadManager;
        use crate::manager::PreemptAction;
        use crate::sched::FifoScheduler;
        use crate::system::{System, SystemConfig};

        let spec = fpga::device::part("VF400");
        let mut os = OsInterface::new(spec);
        let h1 = os.open(compiled(4)).unwrap();
        let h2 = os.open(compiled(6)).unwrap();
        let t1 = os
            .program("t1", SimTime::ZERO)
            .fpga(h1, 1000)
            .compute(SimDuration::from_millis(1))
            .build()
            .unwrap();
        let t2 = os
            .program("t2", SimTime::ZERO)
            .fpga(h2, 1000)
            .build()
            .unwrap();
        let lib = Arc::new(os.into_lib());
        let timing = fpga::ConfigTiming {
            spec,
            port: fpga::ConfigPort::SerialFast,
        };
        let mgr = DynLoadManager::new(lib.clone(), timing, PreemptAction::WaitCompletion);
        let r = System::new(
            lib,
            mgr,
            FifoScheduler::new(),
            SystemConfig::default(),
            vec![t1, t2],
        )
        .run()
        .unwrap();
        assert_eq!(r.tasks.len(), 2);
        assert_eq!(r.manager_stats.downloads, 2);
    }
}
