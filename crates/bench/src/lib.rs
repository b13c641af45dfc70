//! # bench — the experiment harness
//!
//! The 21 experiments (`exp::e01_*`…`exp::e21_*`, see DESIGN.md §4 and
//! EXPERIMENTS.md) behind one binary, `vfpga-exp <name>`, plus the grid
//! runner, table printing, JSON export and setup helpers. The
//! `trace_dump` binary dumps typed traces.

pub mod args;
pub mod exp;
pub mod export;
pub mod report;
pub mod setup;

pub use export::Exporter;
pub use fsim::json::Json;
pub use report::Table;
