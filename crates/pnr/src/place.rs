//! Region-constrained placement.
//!
//! Places a [`PackedCircuit`]'s blocks into a `w × h` rectangle: a greedy
//! topological seed followed by simulated annealing on half-perimeter
//! wirelength (HPWL). Placement is *region-relative* — coordinates start
//! at (0,0) — which is what makes the result relocatable: the OS can drop
//! the same placement at any origin that routes (paper §4's relocatable
//! circuits).
//!
//! **Pricing a move.** A move takes block `bi` from cell `b` to cell `t`
//! and the block `other` at `t`, if any, back to `b`. With `far(x)` the far
//! end of every edge at block `x` — a multi-edge once per copy, self-loops
//! left out — and `d` the Manhattan distance, the change in wirelength is
//!
//! ```text
//! Δ = Σ_{f ∈ far(bi), f ≠ other} [d(t,f) − d(b,f)]
//!   + Σ_{f ∈ far(other), f ≠ bi} [d(b,f) − d(t,f)]
//! ```
//!
//! one signed pass over the two far-end lists, nothing written unless the
//! move is accepted. This is the cost of the touched edges after the swap
//! minus before: an edge between the two swapped blocks only has its ends
//! exchanged and a self-loop has length 0 either way, so the terms left out
//! are zero.
//!
//! **Accepting uphill.** A move with Δ > 0 is accepted when a uniform draw
//! `u` is below `e^(−y)`, `y = Δ / temp`. Since `e^y > 1 + y + y²/2` for
//! `y > 0`, `u·(1 + y + y²/2) > 1` already implies `u > e^(−y)`; the test
//! asks for `> 1 + 10⁻⁶`, ten orders of magnitude more than the rounding of
//! the product and of libm's `exp` together, and calls `exp` only when the
//! bound does not decide. Every decision — and so the random stream, which
//! is the contract: three `below` draws a move, one `f64` draw only when
//! Δ > 0 — is the one `u < exp(−Δ/temp)` alone would make.
//! `tests/place_oracle.rs` holds the previous placer (both blocks' incident
//! edges walked before and after a tentative swap, `exp` every time) and
//! compares coordinates, `hpwl` and the stream position.

use crate::pack::{BlockSource, PackedCircuit};
use fsim::SimRng;

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlaceError {
    /// The region has fewer CLBs than the circuit has blocks.
    RegionTooSmall {
        /// Blocks to place.
        blocks: usize,
        /// CLBs available.
        capacity: usize,
    },
}

impl std::fmt::Display for PlaceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlaceError::RegionTooSmall { blocks, capacity } => {
                write!(f, "{blocks} blocks cannot fit in {capacity} CLBs")
            }
        }
    }
}

impl std::error::Error for PlaceError {}

/// A placed circuit: the packed blocks plus region-relative coordinates.
#[derive(Debug, Clone)]
pub struct PlacedCircuit {
    /// The packed circuit.
    pub circuit: PackedCircuit,
    /// Region width in CLB columns.
    pub width: u32,
    /// Region height in CLB rows.
    pub height: u32,
    /// Block index → region-relative `(col, row)`.
    pub coords: Vec<(u32, u32)>,
    /// Final half-perimeter wirelength (diagnostic).
    pub hpwl: u64,
}

impl PlacedCircuit {
    /// The region shape as a rect at origin.
    pub fn shape(&self) -> fpga::Rect {
        fpga::Rect::new(0, 0, self.width, self.height)
    }

    /// Number of CLBs occupied.
    pub fn block_count(&self) -> usize {
        self.circuit.blocks.len()
    }
}

/// Block-to-block nets as (driver, sink) pairs.
fn edges(pc: &PackedCircuit) -> Vec<(u32, u32)> {
    let mut es = Vec::new();
    for (i, blk) in pc.blocks.iter().enumerate() {
        for s in blk.inputs {
            if let BlockSource::Block(j) = s {
                es.push((j, i as u32));
            }
        }
    }
    es
}

#[inline]
fn manhattan((ax, ay): (u32, u32), (bx, by): (u32, u32)) -> i64 {
    (ax.abs_diff(bx) + ay.abs_diff(by)) as i64
}

fn hpwl_of(edges: &[(u32, u32)], coords: &[(u32, u32)]) -> u64 {
    edges
        .iter()
        .map(|&(a, b)| manhattan(coords[a as usize], coords[b as usize]) as u64)
        .sum()
}

/// Per block, the far end of every incident edge, CSR: block `i`'s are
/// `far[start[i]..start[i + 1]]`. A multi-edge is listed once per copy and
/// a self-loop not at all.
fn far_ends(n: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let mut start = vec![0u32; n + 1];
    for &(a, b) in edges.iter().filter(|(a, b)| a != b) {
        start[a as usize + 1] += 1;
        start[b as usize + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut next = start.clone();
    let mut far = vec![0u32; start[n] as usize];
    for &(a, b) in edges.iter().filter(|(a, b)| a != b) {
        for (near, end) in [(a, b), (b, a)] {
            far[next[near as usize] as usize] = end;
            next[near as usize] += 1;
        }
    }
    (start, far)
}

/// Place `pc` into a `w × h` region.
///
/// Deterministic for a given `(circuit, shape, rng seed)`.
pub fn place(
    pc: &PackedCircuit,
    w: u32,
    h: u32,
    rng: &mut SimRng,
) -> Result<PlacedCircuit, PlaceError> {
    let n = pc.blocks.len();
    let cap = (w * h) as usize;
    if n > cap {
        return Err(PlaceError::RegionTooSmall {
            blocks: n,
            capacity: cap,
        });
    }
    let es = edges(pc);
    let (start, far) = far_ends(n, &es);
    let far_of = |blk: usize| &far[start[blk] as usize..start[blk + 1] as usize];

    // Greedy seed: blocks in index order (already topological-ish from
    // packing) snake through the region so connected blocks start near
    // each other.
    let mut coords: Vec<(u32, u32)> = (0..n as u32)
        .map(|i| {
            let (c, r) = (i % w, i / w);
            (if r % 2 == 0 { c } else { w - 1 - c }, r)
        })
        .collect();

    // Occupancy map: cell -> Some(block) | None.
    let mut occ: Vec<Option<u32>> = vec![None; cap];
    let at = |(c, r): (u32, u32)| (r * w + c) as usize;
    for (i, &cell) in coords.iter().enumerate() {
        occ[at(cell)] = Some(i as u32);
    }

    // Annealing: swap two cells (block-block or block-empty).
    let mut cost = hpwl_of(&es, &coords);
    if n >= 2 && !es.is_empty() {
        let moves = (n * 120).clamp(2_000, 150_000);
        let mut temp = (cost as f64 / es.len() as f64).max(1.0);
        let cooling = (0.005f64 / temp).powf(1.0 / moves as f64);
        for _ in 0..moves {
            // Pick a random block and a random target cell.
            let bi = rng.below(n as u64) as usize;
            let b = coords[bi];
            let t = (rng.below(w as u64) as u32, rng.below(h as u64) as u32);
            if t == b {
                continue;
            }
            let other = occ[at(t)];

            // Delta cost, from the far ends of the moved block(s); see the
            // module doc.
            let mut delta = 0i64;
            for &f in far_of(bi) {
                if Some(f) != other {
                    let p = coords[f as usize];
                    delta += manhattan(t, p) - manhattan(b, p);
                }
            }
            if let Some(o) = other {
                for &f in far_of(o as usize) {
                    if f as usize != bi {
                        let p = coords[f as usize];
                        delta += manhattan(b, p) - manhattan(t, p);
                    }
                }
            }

            let accept = delta <= 0 || {
                let u = rng.f64();
                let y = delta as f64 / temp;
                u * (1.0 + y + y * y / 2.0) <= 1.0 + 1e-6 && u < (-y).exp()
            };
            if accept {
                coords[bi] = t;
                if let Some(o) = other {
                    coords[o as usize] = b;
                }
                occ[at(b)] = other;
                occ[at(t)] = Some(bi as u32);
                cost = cost.wrapping_add_signed(delta);
            }
            temp *= cooling;
        }
    }

    debug_assert_eq!(cost, hpwl_of(&es, &coords), "incremental cost drifted");
    Ok(PlacedCircuit {
        circuit: pc.clone(),
        width: w,
        height: h,
        coords,
        hpwl: cost,
    })
}

/// Choose a near-square region shape for `blocks` CLBs at the given fill
/// target (e.g. 0.85 leaves annealing slack), clamped to the device height.
pub fn auto_shape(blocks: usize, fill: f64, max_h: u32) -> (u32, u32) {
    assert!(blocks > 0);
    assert!((0.1..=1.0).contains(&fill));
    let want = (blocks as f64 / fill).ceil() as u32;
    let mut h = (want as f64).sqrt().ceil() as u32;
    h = h.clamp(1, max_h);
    let w = want.div_ceil(h).max(1);
    (w, h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::pack;
    use netlist::{map_to_luts, MapOptions};

    fn placed(net: &netlist::Netlist, w: u32, h: u32, seed: u64) -> PlacedCircuit {
        let pc = pack(&map_to_luts(net, MapOptions::default()));
        place(&pc, w, h, &mut SimRng::new(seed)).unwrap()
    }

    #[test]
    fn all_blocks_inside_and_distinct() {
        let net = netlist::library::arith::array_multiplier("m5", 5);
        let p = placed(&net, 12, 12, 1);
        let mut seen = std::collections::HashSet::new();
        for &(c, r) in &p.coords {
            assert!(c < 12 && r < 12, "({c},{r}) outside region");
            assert!(seen.insert((c, r)), "cell ({c},{r}) double-booked");
        }
        assert_eq!(p.coords.len(), p.block_count());
    }

    #[test]
    fn too_small_region_is_rejected() {
        let net = netlist::library::arith::array_multiplier("m6", 6);
        let pc = pack(&map_to_luts(&net, MapOptions::default()));
        let err = place(&pc, 2, 2, &mut SimRng::new(1)).unwrap_err();
        assert!(matches!(err, PlaceError::RegionTooSmall { .. }));
    }

    #[test]
    fn annealing_beats_or_matches_random_seed() {
        // Compare final HPWL against the HPWL of the greedy seed alone by
        // re-deriving the seed cost: annealing must not make things worse.
        let net = netlist::library::arith::array_multiplier("m6", 6);
        let pc = pack(&map_to_luts(&net, MapOptions::default()));
        let es = super::edges(&pc);
        let n = pc.blocks.len();
        let (w, h) = auto_shape(n, 0.8, 24);
        // Seed coords = snake order (same construction as place()).
        let mut seed_coords = Vec::with_capacity(n);
        'outer: for r in 0..h {
            let cols: Vec<u32> = if r % 2 == 0 {
                (0..w).collect()
            } else {
                (0..w).rev().collect()
            };
            for c in cols {
                seed_coords.push((c, r));
                if seed_coords.len() == n {
                    break 'outer;
                }
            }
        }
        let seed_cost = super::hpwl_of(&es, &seed_coords);
        let p = place(&pc, w, h, &mut SimRng::new(7)).unwrap();
        assert!(
            p.hpwl <= seed_cost,
            "annealing regressed: {} > seed {}",
            p.hpwl,
            seed_cost
        );
    }

    #[test]
    fn placement_is_deterministic_per_seed() {
        let net = netlist::library::logic::popcount("pc12", 12);
        let a = placed(&net, 8, 8, 42);
        let b = placed(&net, 8, 8, 42);
        assert_eq!(a.coords, b.coords);
        assert_eq!(a.hpwl, b.hpwl);
    }

    #[test]
    fn auto_shape_fits_and_is_squarish() {
        let (w, h) = auto_shape(50, 0.85, 32);
        assert!((w * h) as f64 * 0.85 >= 50.0 - 1.0);
        assert!(w.abs_diff(h) <= 3);
        // Clamped height.
        let (w2, h2) = auto_shape(100, 1.0, 4);
        assert_eq!(h2, 4);
        assert!(w2 * h2 >= 100);
    }

    #[test]
    fn single_block_circuit_places() {
        let mut b = netlist::Builder::new("one");
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        b.output("a", a);
        let net = b.finish();
        let p = placed(&net, 1, 1, 3);
        assert_eq!(p.coords, vec![(0, 0)]);
        assert_eq!(p.hpwl, 0);
    }
}
