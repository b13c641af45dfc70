//! The complete compilation flow: gate netlist → relocatable placed
//! circuit with timing.
//!
//! [`compile`] is what the workload generators and the OS call; it chains
//! mapping, packing, shape selection, placement, and timing analysis, and
//! records the artifacts every experiment consumes (block count, state
//! size, I/O width, critical path, bitstream-frame footprint).

use crate::pack::{pack, PackedCircuit};
use crate::place::{auto_shape, place, PlaceError, PlacedCircuit};
use crate::timing::{clock_period_ns, critical_path_ns};
use fsim::{span, SimRng};
use netlist::{map_to_luts, MapOptions, Netlist};

/// Options for the compilation flow.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// LUT mapping options.
    pub map: MapOptions,
    /// Placement fill target (lower = more annealing slack).
    pub fill: f64,
    /// Maximum region height (device rows).
    pub max_height: u32,
    /// Placement seed.
    pub seed: u64,
    /// Optional fixed region shape `(w, h)`; `None` selects automatically.
    pub shape: Option<(u32, u32)>,
    /// Use the full `max_height` rows and grow in columns only — the shape
    /// column-partition managers need (partitions span full device height).
    pub full_height: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            map: MapOptions::default(),
            fill: 0.85,
            max_height: 32,
            seed: 0x5EED,
            shape: None,
            full_height: false,
        }
    }
}

/// A fully compiled circuit, ready for bitstream emission at any origin.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    /// The placed circuit.
    pub placed: PlacedCircuit,
    /// Critical path in nanoseconds.
    pub crit_path_ns: f64,
    /// Derived clock period in nanoseconds (with margin).
    pub clock_ns: f64,
}

impl CompiledCircuit {
    /// Circuit name.
    pub fn name(&self) -> &str {
        &self.placed.circuit.name
    }

    /// CLBs occupied.
    pub fn blocks(&self) -> usize {
        self.placed.circuit.blocks.len()
    }

    /// Flip-flop count (state bits).
    pub fn state_bits(&self) -> usize {
        self.placed.circuit.ff_count()
    }

    /// Region shape `(w, h)`.
    pub fn shape(&self) -> (u32, u32) {
        (self.placed.width, self.placed.height)
    }

    /// External I/O count (inputs + outputs).
    pub fn io_count(&self) -> usize {
        self.placed.circuit.num_inputs + self.placed.circuit.outputs.len()
    }

    /// Whether the circuit holds state (sequential).
    pub fn is_sequential(&self) -> bool {
        self.placed.circuit.is_sequential()
    }

    /// Nanoseconds to run `cycles` cycles at the derived clock (the clock
    /// period is rounded up to a whole nanosecond, as a real clock
    /// generator would quantize it).
    pub fn run_ns(&self, cycles: u64) -> u64 {
        self.clock_ns.ceil() as u64 * cycles
    }
}

/// Compile a gate netlist down to a relocatable placed circuit.
///
/// The flow phases record `pnr;map` / `pnr;pack` / `pnr;place` /
/// `pnr;timing` spans into the ambient [`fsim::span`] profiler when a
/// harness has recording enabled (see [`fsim::span::scoped`]); with
/// recording off the guards are free.
pub fn compile(net: &Netlist, opts: CompileOptions) -> Result<CompiledCircuit, PlaceError> {
    let _flow = span::guard("pnr");
    let mapped = span::time("map", || map_to_luts(net, opts.map));
    let packed: PackedCircuit = span::time("pack", || pack(&mapped));
    let (w, h) = match opts.shape {
        Some(shape) => shape,
        // No row to grow a region in: refused as a fixed `(w, 0)` is.
        None if opts.max_height == 0 => {
            return Err(PlaceError::RegionTooSmall {
                blocks: packed.blocks.len(),
                capacity: 0,
            })
        }
        None => {
            let blocks = packed.blocks.len().max(1);
            if opts.full_height {
                let want = (blocks as f64 / opts.fill).ceil() as u32;
                (want.div_ceil(opts.max_height).max(1), opts.max_height)
            } else {
                auto_shape(blocks, opts.fill, opts.max_height)
            }
        }
    };
    let mut rng = SimRng::new(opts.seed);
    let placed = span::time("place", || place(&packed, w, h, &mut rng))?;
    let (crit, clock) = span::time("timing", || {
        (critical_path_ns(&placed), clock_period_ns(&placed))
    });
    Ok(CompiledCircuit {
        placed,
        crit_path_ns: crit,
        clock_ns: clock,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_representative_library() {
        let circuits: Vec<Netlist> = vec![
            netlist::library::arith::ripple_adder("add8", 8),
            netlist::library::arith::array_multiplier("mul6", 6),
            netlist::library::codes::crc_comb("crc8", netlist::library::codes::CRC8, 8, 8),
            netlist::library::seq::lfsr("lfsr16", 16, 0b1101_0000_0000_1000),
            netlist::library::dsp::fir("fir", 6, &[1, 2, 2, 1]),
            netlist::library::alu::alu("alu8", 8),
        ];
        for net in &circuits {
            let c = compile(net, CompileOptions::default()).unwrap();
            assert!(c.blocks() > 0, "{}", c.name());
            assert!(c.crit_path_ns > 0.0);
            assert!(c.clock_ns > c.crit_path_ns);
            let (w, h) = c.shape();
            assert!((w * h) as usize >= c.blocks());
        }
    }

    #[test]
    fn fixed_shape_is_respected() {
        let net = netlist::library::logic::parity("p8", 8);
        let c = compile(
            &net,
            CompileOptions {
                shape: Some((4, 2)),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(c.shape(), (4, 2));
    }

    #[test]
    fn too_small_fixed_shape_errors() {
        let net = netlist::library::arith::array_multiplier("m8", 8);
        let r = compile(
            &net,
            CompileOptions {
                shape: Some((2, 2)),
                ..Default::default()
            },
        );
        assert!(r.is_err());
    }

    /// A compile at `max_height: 0` with no fixed shape.
    fn zero_height(full_height: bool) -> Result<CompiledCircuit, PlaceError> {
        let net = netlist::library::logic::parity("p8", 8);
        let opts = CompileOptions {
            max_height: 0,
            full_height,
            ..Default::default()
        };
        compile(&net, opts)
    }

    #[test]
    fn zero_height_auto_shape_is_a_region_too_small() {
        let r = zero_height(false);
        assert!(
            matches!(r, Err(PlaceError::RegionTooSmall { capacity: 0, .. })),
            "{r:?}"
        );
    }

    #[test]
    fn zero_height_full_height_is_a_region_too_small() {
        let r = zero_height(true);
        assert!(
            matches!(r, Err(PlaceError::RegionTooSmall { capacity: 0, .. })),
            "{r:?}"
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let net = netlist::library::arith::ripple_adder("a8", 8);
        let a = compile(&net, CompileOptions::default()).unwrap();
        let b = compile(&net, CompileOptions::default()).unwrap();
        assert_eq!(a.placed.coords, b.placed.coords);
        assert_eq!(a.crit_path_ns, b.crit_path_ns);
    }

    #[test]
    fn run_ns_scales_linearly() {
        let net = netlist::library::seq::counter("c8", 8);
        let c = compile(&net, CompileOptions::default()).unwrap();
        assert_eq!(c.run_ns(1000), c.run_ns(1) * 1000);
        assert!(c.is_sequential());
        assert_eq!(c.state_bits(), 8);
    }
}
