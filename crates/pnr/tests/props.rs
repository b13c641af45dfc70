//! Property-style tests for the CAD flow: routing conservation, placement
//! bounds, emission/relocation invariants. Inputs come from a deterministic
//! seed sweep ([`fsim::SimRng`]) instead of `proptest`.

use fsim::SimRng;
use pnr::route::RoutingFabric;
use pnr::{compile, emit_bitstream, CompileOptions, PinAssignment};

const SEEDS: u64 = 16;

fn compiled_mult(w: usize, seed: u64) -> pnr::CompiledCircuit {
    let net = netlist::library::arith::array_multiplier("m", w);
    compile(
        &net,
        CompileOptions {
            seed,
            ..Default::default()
        },
    )
    .unwrap()
}

/// Route + release returns the fabric to its exact prior utilization
/// (conservation of channel capacity), at any feasible origin.
#[test]
fn routing_is_conservative() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(seed);
        let ox = rng.below(10) as u32;
        let oy = rng.below(10) as u32;
        let c = compiled_mult(4, rng.next_u64());
        let mut f = RoutingFabric::new(24, 24, 12);
        let before = f.utilization();
        if let Ok(routes) = f.route_circuit(&c.placed, (ox, oy)) {
            assert!(f.utilization() >= before, "seed {seed}");
            f.release(&routes);
        }
        assert_eq!(f.utilization(), before, "seed {seed}");
    }
}

/// Emission at any origin yields a CRC-clean bitstream whose bounding rect
/// is the placement translated by the origin.
#[test]
fn emission_translates_exactly() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(seed ^ 0xE517);
        let ox = rng.below(12) as u32;
        let oy = rng.below(12) as u32;
        let c = compiled_mult(4, rng.next_u64());
        let pins =
            PinAssignment::contiguous(c.placed.circuit.num_inputs, c.placed.circuit.outputs.len());
        let bs = emit_bitstream(&c.placed, (ox, oy), &pins, false);
        assert!(bs.crc_ok(), "seed {seed}");
        let br = bs.bounding_rect().unwrap();
        assert!(br.col >= ox && br.row >= oy, "seed {seed}");
        assert!(br.col_end() <= ox + c.placed.width, "seed {seed}");
        assert!(br.row_end() <= oy + c.placed.height, "seed {seed}");
        assert_eq!(
            bs.frame_count(),
            (br.col_end() - br.col) as usize,
            "seed {seed}"
        );
    }
}

/// The critical path is always at least one CLB delay, and the derived
/// clock leaves margin above it.
#[test]
fn critical_path_is_physical() {
    for seed in 0..SEEDS {
        let c = compiled_mult(4, seed.wrapping_mul(0x9E37_79B9).wrapping_add(seed));
        assert!(c.crit_path_ns >= pnr::CLB_DELAY_NS, "seed {seed}");
        assert!(c.clock_ns > c.crit_path_ns, "seed {seed}");
    }
}

/// Placement determinism: identical options => identical artifacts.
#[test]
fn compile_is_deterministic() {
    for seed in 0..SEEDS {
        let a = compiled_mult(4, seed);
        let b = compiled_mult(4, seed);
        assert_eq!(a.placed.coords, b.placed.coords, "seed {seed}");
        assert_eq!(a.placed.hpwl, b.placed.hpwl, "seed {seed}");
        assert_eq!(a.crit_path_ns, b.crit_path_ns, "seed {seed}");
    }
}

/// Non-proptest sanity: double-release is rejected in debug builds via the
/// underflow assertion — document the contract here by only releasing once.
#[test]
fn can_route_probe_does_not_commit() {
    let c = compiled_mult(5, 1);
    let f = RoutingFabric::new(32, 32, 12);
    let u0 = f.utilization();
    assert!(f.can_route(&c.placed, (0, 0)));
    assert_eq!(f.utilization(), u0, "probe must not commit");
}

/// Fill a fabric with circuits until congestion, then verify releases
/// restore full routability.
#[test]
fn congestion_recovers_after_release() {
    let c = compiled_mult(5, 2);
    let mut f = RoutingFabric::new(20, 20, 6);
    let mut rng = SimRng::new(3);
    let mut loaded = vec![f
        .route_circuit(&c.placed, (0, 0))
        .expect("first copy on an empty fabric must route")];
    for _ in 0..8 {
        let ox = rng.below(10) as u32;
        let oy = rng.below(10) as u32;
        if let Ok(r) = f.route_circuit(&c.placed, (ox, oy)) {
            loaded.push(r);
        }
    }
    assert!(!loaded.is_empty(), "at least one copy must route");
    for r in &loaded {
        f.release(r);
    }
    assert_eq!(f.utilization(), 0.0);
    assert!(f.can_route(&c.placed, (0, 0)));
}

/// Delta-reconfiguration equivalence, the property the vfpga swap path
/// rests on: for seeded random circuit pairs — same-family variants at
/// random similarity and entirely unrelated circuits — applying
/// `Bitstream::diff(old, new)` on a device that holds `old` leaves the
/// fabric byte-identical (per `Device::state_digest`) to a full download
/// of `new` onto a clean device.
#[test]
fn delta_apply_equals_full_download() {
    use fpga::{Bitstream, ConfigPort, Device};
    let spec = fpga::device::part("VF600");
    let opts = CompileOptions {
        max_height: spec.rows,
        full_height: true,
        ..Default::default()
    };
    let library: Vec<netlist::Netlist> = vec![
        netlist::library::arith::ripple_adder("dp-add8", 8),
        netlist::library::seq::lfsr("dp-lfsr", 16, 0b1101_0000_0000_1000),
        netlist::library::codes::crc_comb("dp-crc8", netlist::library::codes::CRC8, 8, 8),
        netlist::library::alu::alu("dp-alu4", 4),
        netlist::library::arith::array_multiplier("dp-m4", 4),
    ];
    let compiled: Vec<pnr::CompiledCircuit> =
        library.iter().map(|n| compile(n, opts).unwrap()).collect();
    let emit = |c: &pnr::CompiledCircuit, origin: (u32, u32)| {
        let pins =
            PinAssignment::contiguous(c.placed.circuit.num_inputs, c.placed.circuit.outputs.len());
        emit_bitstream(&c.placed, origin, &pins, false)
    };
    let mut variant_cases = 0usize;
    let mut cross_cases = 0usize;
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(seed ^ 0xDE17A0);
        let i = rng.below(compiled.len() as u64) as usize;
        let old_c = &compiled[i];
        let new_c = if rng.chance(0.5) {
            variant_cases += 1;
            let f = 0.1 + 0.9 * (rng.below(1000) as f64 / 1000.0);
            pnr::mutate_tables(old_c, f, rng.next_u64())
        } else {
            cross_cases += 1;
            compiled[rng.below(compiled.len() as u64) as usize].clone()
        };
        let origin = (rng.below(3) as u32, 0);
        let old_bs = emit(old_c, origin);
        let new_bs = emit(&new_c, origin);
        let delta = Bitstream::diff(&old_bs, &new_bs);

        let mut via_delta = Device::new(spec, ConfigPort::Parallel8);
        via_delta
            .apply(&old_bs)
            .unwrap_or_else(|e| panic!("seed {seed}: old apply: {e:?}"));
        if !delta.is_identical() {
            via_delta
                .apply(&delta.stream)
                .unwrap_or_else(|e| panic!("seed {seed}: delta apply: {e:?}"));
        }
        let mut via_full = Device::new(spec, ConfigPort::Parallel8);
        via_full
            .apply(&new_bs)
            .unwrap_or_else(|e| panic!("seed {seed}: full apply: {e:?}"));
        assert_eq!(
            via_delta.state_digest(),
            via_full.state_digest(),
            "seed {seed}: delta-configured fabric diverges from full download"
        );
        // Pricing sanity: the delta never writes more frames than the
        // full image of `new`.
        assert!(
            delta.changed_frames <= new_bs.frame_count() + old_bs.frame_count(),
            "seed {seed}"
        );
        // What a manager prices: the column images of the two streams
        // emitted at origin 0 count exactly the frames this delta writes.
        assert_eq!(
            emit(old_c, (0, 0))
                .columns()
                .changed_frames(&emit(&new_c, (0, 0)).columns()),
            delta.changed_frames,
            "seed {seed}"
        );
    }
    assert!(
        variant_cases > 0 && cross_cases > 0,
        "both pair kinds must occur"
    );
}
