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
//!
//! **Refusing before pricing.** Late in the anneal nearly every move is
//! uphill and refused, so most of the pricing above is wasted. Each block
//! keeps a record over its far-end list: the count `d`, the far ends'
//! coordinate sums `Σx` and `Σy`, and its incident wirelength
//! `W = Σ_{f ∈ far(x)} d(x,f)`. Since `Σ|aᵢ| ≥ |Σaᵢ|`, moving `x` to `p`
//! gives
//!
//! ```text
//! Σ_{f ∈ far(x)} [d(p,f) − d(x,f)] ≥ |d·pₓ − Σx| + |d·p_y − Σy| − W
//! ```
//!
//! and the bound `LB` of a move is that term for `bi` going to `t` plus,
//! if `other` exists, the term for `other` going to `b` — O(1) from two
//! records. `LB ≤ Δ`: the full sums differ from Δ's only by the terms Δ
//! leaves out, the edges between `bi` and `other`, and there each copy
//! contributes `d(t,t) − d(b,t) = −d(b,t)` to a full sum, so leaving it out
//! adds `d(b,t) ≥ 0`. When `LB ≥ 1`, Δ > 0 is certain and the `f64` draw is
//! the one the priced path would make, so it is drawn first; if
//! `u·(1 + y + y²/2) > 1 + 10⁻⁶` already holds at `y = LB / temp`, the move
//! is refused unpriced. IEEE division by a positive `temp`, multiplication
//! by `u ≥ 0` and addition are each monotone, so the same test at the real
//! `Δ ≥ LB` holds too, and the priced path would have refused. Otherwise Δ
//! is priced as above and reuses that `u`; a move with `LB < 1` takes the
//! priced path unchanged. Each accepted move refreshes the records it
//! changed: the moved blocks' `W` and their far ends' sums and `W`, in
//! O(their far ends). Debug builds assert `Δ ≥ LB` at every priced move and
//! the refreshed records against a recompute after every accept;
//! `bound_never_exceeds_delta` walks random placements of the `fabric`
//! netlists and the knots with the same two checks.
//!
//! `tests/place_oracle.rs` holds the previous placer (both blocks' incident
//! edges walked before and after a tentative swap, `exp` every time) and
//! compares coordinates, `hpwl` and the stream position.

use crate::pack::{BlockSource, PackedBlock, PackedCircuit};
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

#[inline]
fn manhattan((ax, ay): (u32, u32), (bx, by): (u32, u32)) -> i64 {
    (ax.abs_diff(bx) + ay.abs_diff(by)) as i64
}

/// A block's summary over its far-end list: the far ends' coordinate sums
/// and the block's incident wirelength `W`. The far-end count `d` is the
/// length of the list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ends {
    sx: i64,
    sy: i64,
    w: i64,
}

/// The circuit's block-to-block edges as the placer reads them: per block,
/// the far end of every incident edge, CSR — block `i`'s are
/// `far[start[i]..start[i + 1]]`. A multi-edge is listed once per copy and
/// a self-loop not at all.
struct Graph {
    start: Vec<u32>,
    far: Vec<u32>,
    /// Block-to-block edges, self-loops included.
    edges: usize,
}

impl Graph {
    /// Read the edges off `pc`'s block inputs: one pass counts each block's
    /// far ends, a second fills the lists backwards from their ends.
    fn new(pc: &PackedCircuit) -> Graph {
        let n = pc.blocks.len();
        let sources = |blk: &PackedBlock| {
            blk.inputs.into_iter().filter_map(|s| match s {
                BlockSource::Block(j) => Some(j as usize),
                _ => None,
            })
        };
        let mut start = vec![0u32; n + 1];
        let mut edges = 0;
        for (i, blk) in pc.blocks.iter().enumerate() {
            for j in sources(blk) {
                edges += 1;
                if j != i {
                    start[i] += 1;
                    start[j] += 1;
                }
            }
        }
        for i in 1..=n {
            start[i] += start[i - 1];
        }
        let mut far = vec![0u32; start[n] as usize];
        for (i, blk) in pc.blocks.iter().enumerate() {
            for j in sources(blk).filter(|&j| j != i) {
                for (near, end) in [(i, j), (j, i)] {
                    start[near] -= 1;
                    far[start[near] as usize] = end as u32;
                }
            }
        }
        Graph { start, far, edges }
    }

    #[inline]
    fn far_of(&self, blk: usize) -> &[u32] {
        &self.far[self.start[blk] as usize..self.start[blk + 1] as usize]
    }

    /// `blk`'s summary record, recomputed.
    fn ends_of(&self, blk: usize, coords: &[(u32, u32)]) -> Ends {
        let at = coords[blk];
        let mut e = Ends::default();
        for &f in self.far_of(blk) {
            let p = coords[f as usize];
            e.sx += p.0 as i64;
            e.sy += p.1 as i64;
            e.w += manhattan(at, p);
        }
        e
    }

    /// Every block's summary record, recomputed.
    fn all_ends(&self, coords: &[(u32, u32)]) -> Vec<Ends> {
        (0..coords.len()).map(|i| self.ends_of(i, coords)).collect()
    }

    /// The lower bound on the change in `blk`'s incident wirelength when it
    /// moves to `to`: `|d·toₓ − Σx| + |d·to_y − Σy| − W`.
    #[inline]
    fn bound_of(&self, ends: &[Ends], blk: usize, (tx, ty): (u32, u32)) -> i64 {
        let d = (self.start[blk + 1] - self.start[blk]) as i64;
        let e = ends[blk];
        (d * tx as i64 - e.sx).abs() + (d * ty as i64 - e.sy).abs() - e.w
    }

    /// A lower bound on [`Graph::delta`] of the same move, in O(1); see the
    /// module doc.
    #[inline]
    fn bound(
        &self,
        ends: &[Ends],
        bi: usize,
        b: (u32, u32),
        t: (u32, u32),
        other: Option<u32>,
    ) -> i64 {
        self.bound_of(ends, bi, t) + other.map_or(0, |o| self.bound_of(ends, o as usize, b))
    }

    /// The change in wirelength when `bi` moves from `b` to `t` and `other`,
    /// the block at `t` if any, moves to `b`; see the module doc.
    #[inline]
    fn delta(
        &self,
        coords: &[(u32, u32)],
        bi: usize,
        b: (u32, u32),
        t: (u32, u32),
        other: Option<u32>,
    ) -> i64 {
        let mut delta = 0i64;
        for &f in self.far_of(bi) {
            if Some(f) != other {
                let p = coords[f as usize];
                delta += manhattan(t, p) - manhattan(b, p);
            }
        }
        if let Some(o) = other {
            for &f in self.far_of(o as usize) {
                if f as usize != bi {
                    let p = coords[f as usize];
                    delta += manhattan(b, p) - manhattan(t, p);
                }
            }
        }
        delta
    }

    /// Make a move — `bi` from `b` to `t`, and `other`, the block at `t` if
    /// any, to `b` — and refresh the records it changed.
    fn make_move(
        &self,
        ends: &mut [Ends],
        coords: &mut [(u32, u32)],
        bi: usize,
        b: (u32, u32),
        t: (u32, u32),
        other: Option<u32>,
    ) {
        coords[bi] = t;
        if let Some(o) = other {
            coords[o as usize] = b;
        }
        self.moved(ends, coords, bi, (b, t), other);
        if let Some(o) = other {
            self.moved(ends, coords, o as usize, (t, b), Some(bi as u32));
        }
    }

    /// Refresh the records changed by `blk` moving from `from` to `to`
    /// (already in `coords`), with `partner`, if any, the block that moved
    /// the other way. Each far end of `blk` sees one of its own far ends
    /// move, once per copy of the edge, and that edge's length changes on
    /// both sides — except an edge between the two moved blocks, whose ends
    /// only trade places.
    fn moved(
        &self,
        ends: &mut [Ends],
        coords: &[(u32, u32)],
        blk: usize,
        (from, to): ((u32, u32), (u32, u32)),
        partner: Option<u32>,
    ) {
        let (dx, dy) = (to.0 as i64 - from.0 as i64, to.1 as i64 - from.1 as i64);
        let mut dw = 0;
        for &f in self.far_of(blk) {
            let e = &mut ends[f as usize];
            e.sx += dx;
            e.sy += dy;
            if Some(f) != partner {
                let p = coords[f as usize];
                let c = manhattan(to, p) - manhattan(from, p);
                e.w += c;
                dw += c;
            }
        }
        ends[blk].w += dw;
    }
}

/// The total wirelength: every edge is counted at both of its ends.
fn wirelength(ends: &[Ends]) -> u64 {
    ends.iter().map(|e| e.w as u64).sum::<u64>() / 2
}

/// Whether a draw `u` is refused at `y = delta / temp` by the polynomial
/// test alone: `u·(1 + y + y²/2) > 1 + 10⁻⁶` implies `u > e^(−y)`.
#[inline]
fn refused(u: f64, delta: i64, temp: f64) -> bool {
    let y = delta as f64 / temp;
    u * (1.0 + y + y * y / 2.0) > 1.0 + 1e-6
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
    let cap = w as usize * h as usize;
    if n > cap {
        return Err(PlaceError::RegionTooSmall {
            blocks: n,
            capacity: cap,
        });
    }
    let graph = Graph::new(pc);

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
    let at = |(c, r): (u32, u32)| r as usize * w as usize + c as usize;
    for (i, &cell) in coords.iter().enumerate() {
        occ[at(cell)] = Some(i as u32);
    }

    // Annealing: swap two cells (block-block or block-empty).
    let mut ends = graph.all_ends(&coords);
    if n >= 2 && graph.edges > 0 {
        let moves = (n * 120).clamp(2_000, 150_000);
        let seed_cost = wirelength(&ends);
        let mut temp = (seed_cost as f64 / graph.edges as f64).max(1.0);
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

            // A move the bound proves uphill draws its `u` now, and one the
            // draw refuses at the bound is refused unpriced; see the module
            // doc.
            let bound = graph.bound(&ends, bi, b, t, other);
            let u = (bound >= 1).then(|| rng.f64());
            if u.is_some_and(|u| refused(u, bound, temp)) {
                temp *= cooling;
                continue;
            }
            let delta = graph.delta(&coords, bi, b, t, other);
            debug_assert!(delta >= bound, "bound {bound} above Δ {delta}");

            let accept = delta <= 0 || {
                let u = u.unwrap_or_else(|| rng.f64());
                !refused(u, delta, temp) && u < (-(delta as f64 / temp)).exp()
            };
            if accept {
                graph.make_move(&mut ends, &mut coords, bi, b, t, other);
                occ[at(b)] = other;
                occ[at(t)] = Some(bi as u32);
                if cfg!(debug_assertions) {
                    for m in std::iter::once(bi as u32).chain(other) {
                        for &f in std::iter::once(&m).chain(graph.far_of(m as usize)) {
                            let f = f as usize;
                            assert_eq!(ends[f], graph.ends_of(f, &coords), "record of {f}");
                        }
                    }
                }
            }
            temp *= cooling;
        }
    }

    debug_assert_eq!(ends, graph.all_ends(&coords), "records drifted");
    Ok(PlacedCircuit {
        circuit: pc.clone(),
        width: w,
        height: h,
        coords,
        hpwl: wirelength(&ends),
    })
}

/// Choose a near-square region shape for `blocks` CLBs at the given fill
/// target (e.g. 0.85 leaves annealing slack), clamped to the device height
/// (at least one row; `compile` refuses a zero height before asking).
pub fn auto_shape(blocks: usize, fill: f64, max_h: u32) -> (u32, u32) {
    assert!(blocks > 0);
    assert!((0.1..=1.0).contains(&fill));
    let want = (blocks as f64 / fill).ceil() as u32;
    let mut h = (want as f64).sqrt().ceil() as u32;
    h = h.clamp(1, max_h);
    let w = want.div_ceil(h).max(1);
    (w, h)
}

/// The `fabric` netlists, shared with `tests/place_oracle.rs`.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;
/// The hand-built knots, shared with `tests/place_oracle.rs`.
#[cfg(test)]
#[path = "../tests/common/knots.rs"]
mod knots;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::pack;
    use netlist::{map_to_luts, MapOptions};

    /// Random placements of the `fabric` netlists and the knots, in a
    /// region with empty cells and one without, each walked by random
    /// moves: the bound never exceeds Δ, empty target and swap alike, and
    /// the records the walk refreshes equal a recompute after every move.
    #[test]
    fn bound_never_exceeds_delta() {
        let mut pcs: Vec<PackedCircuit> = common::fabric_netlists()
            .iter()
            .map(|net| pack(&map_to_luts(net, MapOptions::default())))
            .collect();
        pcs.extend([knots::two(), knots::knot(), knots::chain()]);
        let mut rng = SimRng::new(0xB0B0);
        let (mut swaps, mut empties, mut refusable) = (0u64, 0u64, 0u64);
        for pc in &pcs {
            let graph = Graph::new(pc);
            let n = pc.blocks.len() as u32;
            // The most nearly square region with no empty cell.
            let h = (1..=n)
                .rev()
                .find(|h| h * h <= n && n.is_multiple_of(*h))
                .unwrap();
            for (w, h) in [auto_shape(n as usize, 0.85, 30), (n / h, h)] {
                for _ in 0..3 {
                    // A random placement: the first n cells of a shuffle.
                    let mut cells: Vec<(u32, u32)> =
                        (0..h).flat_map(|r| (0..w).map(move |c| (c, r))).collect();
                    for i in (1..cells.len()).rev() {
                        cells.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    let mut coords = cells[..n as usize].to_vec();
                    let mut occ = vec![None; cells.len()];
                    let at = |(c, r): (u32, u32)| (r * w + c) as usize;
                    for (i, &cell) in coords.iter().enumerate() {
                        occ[at(cell)] = Some(i as u32);
                    }
                    let mut ends = graph.all_ends(&coords);
                    for _ in 0..20 * n {
                        let bi = rng.below(n as u64) as usize;
                        let b = coords[bi];
                        let t = (rng.below(w as u64) as u32, rng.below(h as u64) as u32);
                        if t == b {
                            continue;
                        }
                        let other = occ[at(t)];
                        let bound = graph.bound(&ends, bi, b, t, other);
                        let delta = graph.delta(&coords, bi, b, t, other);
                        assert!(
                            bound <= delta,
                            "{}: block {bi} {b:?} -> {t:?} (other {other:?}): \
                             bound {bound} > Δ {delta}",
                            pc.name
                        );
                        if other.is_some() {
                            swaps += 1;
                        } else {
                            empties += 1;
                        }
                        refusable += u64::from(bound >= 1);
                        if rng.below(2) == 0 {
                            graph.make_move(&mut ends, &mut coords, bi, b, t, other);
                            occ[at(b)] = other;
                            occ[at(t)] = Some(bi as u32);
                            assert_eq!(ends, graph.all_ends(&coords), "{}: records", pc.name);
                        }
                    }
                }
            }
        }
        assert!(
            swaps > 0 && empties > 0 && refusable > 0,
            "{swaps} swaps, {empties} moves to an empty cell, {refusable} with bound ≥ 1"
        );
    }

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
        let graph = Graph::new(&pc);
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
        let seed_cost = wirelength(&graph.all_ends(&seed_coords));
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
