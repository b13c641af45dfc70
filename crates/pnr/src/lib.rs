//! # pnr — the mini CAD flow
//!
//! Turns a technology-mapped [`netlist::LutNetwork`] into a *relocatable
//! placed circuit* and ultimately into device [`fpga::Bitstream`]s:
//!
//! 1. [`pack`] — pair flip-flops with their driving LUTs into CLB-shaped
//!    blocks (XC4000 style), inserting route-throughs where needed,
//! 2. [`mod@place`] — region-constrained placement: greedy seed + simulated
//!    annealing on half-perimeter wirelength,
//! 3. [`route`] — maze routing over the device's channel graph with finite
//!    capacity (no rip-up, no negotiation: a connection with no path fails
//!    the circuit, which rolls back — ROADMAP's "rip-up router / Booth-8"
//!    item); routing is *origin-dependent*, which is exactly the paper's §4
//!    warning that "circuit relocation is more difficult to be formalized
//!    and standardized than classical code relocation" — and what is not
//!    is decided once, in a [`RouteTemplate`] whose footprint a load
//!    commits in one pass,
//! 4. [`timing`] — critical-path estimation (CLB + wire delay), the OS's
//!    a-priori completion estimate from §3,
//! 5. [`emit`] — frame-organized bitstream generation at any origin, with
//!    pins bound at emission time (so the OS can rebind I/O per load).
//!
//! [`flow::compile`] chains the whole pipeline.

pub mod cache;
pub mod disk;
pub mod emit;
pub mod flow;
pub mod pack;
pub mod place;
pub mod route;
pub mod timing;
pub mod variant;

pub use cache::{cache_stats, compile_shared, CacheStats};
pub use disk::{compile_with_disk, DISK_SCHEMA};
pub use emit::{emit_bitstream, PinAssignment};
pub use flow::{compile, CompileOptions, CompiledCircuit};
pub use pack::{BlockSource, PackedBlock, PackedCircuit};
pub use place::{place, PlaceError, PlacedCircuit};
pub use route::{RouteError, RouteStats, RouteTemplate, RoutingFabric};
pub use timing::{critical_path_ns, CLB_DELAY_NS, WIRE_DELAY_PER_HOP_NS};
pub use variant::mutate_tables;
