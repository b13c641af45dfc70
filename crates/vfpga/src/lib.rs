//! # vfpga — the Virtual FPGA operating-system layer
//!
//! This crate is the paper's contribution: an operating-system layer that
//! virtualizes one physical FPGA for many concurrent tasks, "in a way
//! similar to the virtual memory" (Fornaciari & Piuri, IPPS 1998).
//!
//! The pieces map one-to-one onto the paper's sections:
//!
//! * [`task`] / [`sched`] / [`system`] — the multitasking host: task model
//!   with CPU and FPGA bursts, FIFO / round-robin / priority /
//!   earliest-deadline-first schedulers, and the deterministic
//!   discrete-event kernel (`System`: builders, event loop, arrive /
//!   dispatch / segment timer, the one task-exit path, the report). The
//!   subsystems below that act inside the event loop — [`admission`],
//!   [`recovery`], [`checkpoint`], [`migrate`] — each hold their own
//!   handlers as further `impl System` blocks,
//! * [`manager::exclusive`] — the §4 baseline: a non-preemptable FPGA
//!   ("any other task needing an already assigned FPGA will enter the
//!   waiting state"),
//! * [`manager::dynload`] — §3 dynamic loading, with the three preemption
//!   policies the paper discusses (wait for completion, rollback, and
//!   state save/restore via readback),
//! * [`manager::partition`] — §4 partitioning: fixed and variable-size
//!   column partitions, splitting, and the garbage collector that merges
//!   idle fragments via (routing-checked) relocation,
//! * [`manager::overlay`] — §2 overlaying: resident common functions plus
//!   a replaceable overlay area (LRU/FIFO/LFU), and its limit, the §3
//!   "trivial solution" (`OverlayManager::merged`): merge all circuits
//!   into one and ignore unused outputs,
//! * [`vmem`] — §2 segmentation and demand pagination of one over-large
//!   function: a stand-alone reference model E8 drives, not a manager,
//! * [`iomux`] — §2 I/O multiplexing, more virtual pins than physical ones
//!   by time division: likewise a stand-alone model, driven by E9,
//! * [`syscall`] — the §3 `fpga_open`-style declaration API filling the OS
//!   circuit tables, driven only by `examples/network_interface.rs`,
//! * [`metrics`] — the accounting every experiment reports,
//! * [`recovery`] / [`error`] — fault detection and recovery: retry of
//!   CRC-rejected downloads, configuration scrubbing with upset repair,
//!   permanent column retirement, and the typed error surface,
//! * [`checkpoint`] / [`image`] — crash consistency: periodic
//!   whole-system checkpoints held as typed images (JSON only where they
//!   leave the host), a configuration write-ahead log, seeded host-crash
//!   injection with restore, and the differential verifier proving a
//!   crashed-and-restored run matches the uninterrupted one,
//! * [`admission`] — overload resilience: per-tenant admission quotas,
//!   watchdog hang detection built on the §3 a-priori latency estimate,
//!   quarantine of misbehaving tasks, a schedulability test that rejects
//!   provably deadline-infeasible arrivals, and graceful degradation to
//!   software emulation with a high/low hysteresis watermark pair,
//! * [`migrate`] / [`fleet`] — multi-device fleets: failover of crashed
//!   shards, and crash-safe two-phase live migration of individual
//!   tenants between devices, journaled so a crash in any window of the
//!   protocol is resolved by replay (intent-without-commit undone,
//!   commit-without-free redone idempotently).

pub mod admission;
pub mod checkpoint;
pub mod circuit;
pub mod counters;
pub mod error;
pub mod fleet;
pub mod image;
pub mod iomux;
pub mod manager;
pub mod metrics;
pub mod migrate;
pub mod recovery;
mod run;
pub mod sched;
pub mod syscall;
pub mod system;
pub mod task;
pub mod vmem;

pub use admission::{
    AdmissionPolicy, AdmissionStats, DegradationConfig, SchedulabilityConfig, WatchdogConfig,
};
pub use checkpoint::{
    diff_reports, run_with_crashes, run_with_crashes_traced, CheckpointConfig, CheckpointImage,
    CrashState, CrashStats, Divergence, RunOutcome, WalRecord,
};
pub use circuit::{CircuitId, CircuitImage, CircuitLib};
pub use error::VfpgaError;
pub use fleet::{
    run_fleet, DeviceId, FleetConfig, FleetReport, FleetStats, PlacementPolicy, ShardCtx,
    ShardOutcome,
};
pub use fsim::{
    CrashPlan, DeviceFaultPlan, FaultInjector, FaultPlan, MigrationCrashWindow, MigrationPlan,
};
pub use image::{PolicyImage, SystemImage};
pub use manager::{
    Activation, DeviceUsage, FpgaManager, ManagerStats, PreemptAction, PreemptCost, Write,
    WriteKind,
};
pub use metrics::{OverheadBreakdown, Report, TaskMetrics};
pub use migrate::{CounterBaseline, MigrateInReceipt, MigrationManifest};
pub use recovery::{FaultStats, RecoveryPolicy, UpsetRecovery};
pub use sched::{EdfScheduler, FifoScheduler, PriorityScheduler, RoundRobinScheduler, Scheduler};
pub use syscall::{FpgaHandle, OpenError, OsInterface};
pub use system::{CompletionDetect, FailoverReceipt, System, SystemConfig};
pub use task::{Op, Program, TaskId, TaskSpec};

#[cfg(test)]
mod image_tests;
#[cfg(test)]
mod system_tests;
