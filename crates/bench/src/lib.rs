//! # bench — the experiment harness
//!
//! The 21 experiments (`exp::e01_*`…`exp::e21_*`, see DESIGN.md §4 and
//! EXPERIMENTS.md) behind one binary, `vfpga-exp <name>`, plus the shared
//! sweep engine, table printing, JSON export and setup helpers. The
//! `jdiff` and `trace_dump` binaries compare exports and dump typed
//! traces.

pub mod args;
pub mod engine;
pub mod exp;
pub mod export;
pub mod report;
pub mod sections;
pub mod setup;

pub use engine::{run_sweep, HostProfile};
pub use export::{strip_volatile, Exporter};
pub use fsim::json::{Json, Obj};
pub use report::Table;
