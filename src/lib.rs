//! # vfpga-repro — reproduction of *Virtual FPGAs: Some Steps Behind the
//! Physical Barriers* (Fornaciari & Piuri, IPPS 1998)
//!
//! This facade re-exports the whole stack:
//!
//! * [`fsim`] — deterministic discrete-event simulation kernel,
//! * [`netlist`] — gate-level circuits, simulation, LUT mapping, and the
//!   parametric circuit library,
//! * [`fpga`] — the simulated symmetrical-array device (configuration
//!   RAM, bitstreams, timing, executable fabric),
//! * [`pnr`] — the mini CAD flow (pack, place, route, time, emit),
//! * [`vfpga`] — **the paper's contribution**: the operating-system layer
//!   (dynamic loading, partitioning and overlaying as the managers the
//!   system simulator runs under its schedulers; segmentation, pagination
//!   and I/O multiplexing as stand-alone reference models that experiments
//!   E8 and E9 drive),
//! * [`workload`] — application suites and task-mix generators.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory, and
//! `EXPERIMENTS.md` for the paper-claim → measurement index. Runnable
//! examples live in `examples/`; the experiments run as `vfpga-exp <name>`
//! (one binary in `crates/bench/src/bin/`, one module an experiment in
//! `crates/bench/src/exp/`).

pub use fpga;
pub use fsim;
pub use netlist;
pub use pnr;
pub use vfpga;
pub use workload;
