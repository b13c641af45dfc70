//! # fsim — deterministic discrete-event simulation kernel
//!
//! The VFPGA operating-system layer (crate `vfpga`) is evaluated on a
//! simulated host computer. This crate provides the substrate for that
//! simulation:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`EventQueue`] — a stable (FIFO-on-tie) pending-event set: a heap of
//!   the events in flight, beside which a caller may hold its own,
//! * [`rng`] — a small deterministic PRNG plus the distributions the
//!   workload generators need (uniform, exponential, Zipf, bounded Pareto),
//! * [`stats`] — streaming summary statistics and fixed-bin histograms,
//! * [`trace`] — typed, optionally ring-buffered event tracing,
//! * [`fault`] — seeded fault-injection plans (download corruption,
//!   configuration upsets, permanent column failures, host crashes),
//! * [`obs`] — a metrics registry and time-weighted utilization timelines,
//! * [`span`] — a hierarchical scoped-span wall-clock profiler whose
//!   profiles list their span paths in sorted order,
//! * [`hash`] — FNV-1a-shaped hashing with exact word fast paths, the one hash
//!   behind device digests, bitstream checksums and netlist cache keys,
//! * [`json`] — the hand-rolled JSON value tree shared by checkpoint
//!   serialization (crate `vfpga`) and the bench exporter.
//!
//! Everything in this crate is deterministic: the same seed and the same
//! sequence of calls produce bit-identical results on every platform, which
//! is what makes the experiment tables in `EXPERIMENTS.md` reproducible.

pub mod event;
pub mod fault;
pub mod hash;
pub mod json;
pub mod obs;
pub mod rng;
pub mod span;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::{EventQueue, QueueStats, ScheduledEvent};
pub use fault::{
    CrashPlan, DeviceFaultPlan, FaultInjector, FaultPlan, MigrationCrashWindow, MigrationPlan,
};
pub use obs::{Metrics, Timeline, TimelineSet};
pub use rng::SimRng;
pub use span::{SpanGuard, SpanProfile, SpanStat};
pub use stats::{HistSet, LogHistogram, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{TaskState, Trace, TraceEntry, TraceEvent};
