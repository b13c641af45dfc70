//! The experiments (E1…E21, see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! Each module exposes one `run`: it prints its tables, records them and
//! the per-cell reports in an [`Exporter`], and hands that back. What a
//! run is asked to do arrives as [`RunArgs`]; what happens to the export
//! (write it, compare it with a golden) is the caller's business — the
//! `vfpga-exp` binary or `tests/experiments.rs`. An experiment whose
//! in-process gate fails returns `Err` naming the cell. All but E6, E8
//! and E9 declare their sweep as a [`grid::Grid`] and make one
//! [`grid::run`] call.

use crate::Exporter;

pub mod e01_reconfig_time;
pub mod e02_dynload_overhead;
pub mod e03_merged_baseline;
pub mod e04_sharing_policies;
pub mod e05_partitioning;
pub mod e06_fragmentation_gc;
pub mod e07_overlay;
pub mod e08_segment_vs_page;
pub mod e09_io_mux;
pub mod e10_preemption_state;
pub mod e11_completion_detect;
pub mod e12_coprocessor_speedup;
pub mod e13_device_sweep;
pub mod e14_schedulers;
pub mod e15_fault_recovery;
pub mod e16_crash_restore;
pub mod e17_overload;
pub mod e18_deadlines;
pub mod e19_fleet;
pub mod e20_delta;
pub mod e21_migration;
pub mod grid;

/// What one run of an experiment is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunArgs {
    /// The reduced, CI-sized sweep (E1–E14 have only one size).
    pub smoke: bool,
    /// Base RNG seed; `None` exactly for the fixed-seed sweeps.
    pub seed: Option<u64>,
}

impl RunArgs {
    /// The seed of a seeded experiment.
    ///
    /// # Panics
    /// If called by an experiment whose [`ALL`] entry has no default seed.
    pub fn seed(&self) -> u64 {
        self.seed
            .expect("a seeded experiment's exp::ALL entry carries a default seed")
    }
}

/// One experiment: golden stem, default seed (`None` = fixed-seed sweep,
/// `--seed` is rejected), and its `run`.
pub type Entry = (
    &'static str,
    Option<u64>,
    fn(&RunArgs) -> Result<Exporter, String>,
);

/// Every experiment, sorted by name. `crates/bench/golden/<name>.smoke.json`
/// pins each one's smoke export (`tests/experiments.rs`).
pub const ALL: &[Entry] = &[
    ("e01_reconfig_time", None, e01_reconfig_time::run),
    ("e02_dynload_overhead", None, e02_dynload_overhead::run),
    ("e03_merged_baseline", None, e03_merged_baseline::run),
    ("e04_sharing_policies", None, e04_sharing_policies::run),
    ("e05_partitioning", None, e05_partitioning::run),
    ("e06_fragmentation_gc", None, e06_fragmentation_gc::run),
    ("e07_overlay", None, e07_overlay::run),
    ("e08_segment_vs_page", None, e08_segment_vs_page::run),
    ("e09_io_mux", None, e09_io_mux::run),
    ("e10_preemption_state", None, e10_preemption_state::run),
    ("e11_completion_detect", None, e11_completion_detect::run),
    (
        "e12_coprocessor_speedup",
        None,
        e12_coprocessor_speedup::run,
    ),
    ("e13_device_sweep", None, e13_device_sweep::run),
    ("e14_schedulers", None, e14_schedulers::run),
    ("e15_fault_recovery", Some(0xE15), e15_fault_recovery::run),
    ("e16_crash_restore", Some(0xE16), e16_crash_restore::run),
    ("e17_overload", Some(0xE17), e17_overload::run),
    ("e18_deadlines", Some(0xE18), e18_deadlines::run),
    ("e19_fleet", Some(0xE19), e19_fleet::run),
    ("e20_delta", Some(0xE20), e20_delta::run),
    ("e21_migration", Some(0xE21), e21_migration::run),
];

/// The entry called `name`.
pub fn find(name: &str) -> Option<&'static Entry> {
    ALL.iter().find(|e| e.0 == name)
}

/// A differential gate: `Err` lists how the cell diverged from its
/// reference run.
fn no_divergence(divergences: &[vfpga::Divergence]) -> Result<(), String> {
    grid::ensure(divergences.is_empty(), || {
        let head = format!("{} divergences:", divergences.len());
        divergences.iter().fold(head, |m, d| format!("{m}\n  {d}"))
    })
}
