//! The placer — a one-pass Δ, and a move refused at its bound unpriced —
//! against the placer it replaced.
//!
//! `reference` is `place` exactly as it stood before the far-end list: each
//! move priced by walking both blocks' incident edges through the edge
//! table before and after a tentative swap, `exp` on every uphill move.
//! [`pnr::place`] must agree with it on every coordinate, on `hpwl`, and on
//! where it leaves the random stream — over the `fabric` workload's 24
//! netlists and the `route_template.rs` library, three seeds, and four
//! kinds of region (the flow's automatic shape, full height, one with no
//! empty cell, one mostly empty), and on hand-built circuits with the edge
//! cases the Δ identity rests on: a doubled edge, a self-loop, two blocks
//! (`common/knots.rs`). The library sweep runs again at 32 seeds under
//! `--release` (`ci.sh`), where the acceptance test's float code is what
//! the benchmark runs.

mod common;
#[path = "common/knots.rs"]
mod knots;

use fsim::SimRng;
use netlist::{map_to_luts, MapOptions};
use pnr::pack::{pack, BlockSource, PackedBlock, PackedCircuit};
use pnr::place;
use pnr::place::auto_shape;

/// The pre-rewrite placer, verbatim.
mod reference {
    use fsim::SimRng;
    use pnr::pack::{BlockSource, PackedCircuit};
    use pnr::{PlaceError, PlacedCircuit};

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

    fn hpwl_of(edges: &[(u32, u32)], coords: &[(u32, u32)]) -> u64 {
        edges
            .iter()
            .map(|&(a, b)| {
                let (ax, ay) = coords[a as usize];
                let (bx, by) = coords[b as usize];
                (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
            })
            .sum()
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
        // Per block, the edges it is an end of (a self-loop listed once), so a
        // move re-prices only those instead of scanning every edge.
        let mut incident: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (e, &(a, b)) in es.iter().enumerate() {
            incident[a as usize].push(e as u32);
            if b != a {
                incident[b as usize].push(e as u32);
            }
        }

        // Greedy seed: blocks in index order (already topological-ish from
        // packing) snake through the region so connected blocks start near
        // each other.
        let mut coords: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut free: Vec<(u32, u32)> = Vec::with_capacity(cap);
        for r in 0..h {
            if r % 2 == 0 {
                for c in 0..w {
                    free.push((c, r));
                }
            } else {
                for c in (0..w).rev() {
                    free.push((c, r));
                }
            }
        }
        coords.extend(free.iter().copied().take(n));
        let empties: Vec<(u32, u32)> = free[n..].to_vec();

        // Occupancy map: cell -> Some(block) | None.
        let mut occ: Vec<Option<u32>> = vec![None; cap];
        let at = |c: u32, r: u32| (r * w + c) as usize;
        for (i, &(c, r)) in coords.iter().enumerate() {
            occ[at(c, r)] = Some(i as u32);
        }
        drop(empties);

        // Annealing: swap two cells (block-block or block-empty).
        let mut cost = hpwl_of(&es, &coords);
        if n >= 2 && !es.is_empty() {
            let moves = (n * 120).clamp(2_000, 150_000);
            let mut temp = (cost as f64 / es.len() as f64).max(1.0);
            let cooling = (0.005f64 / temp).powf(1.0 / moves as f64);
            for _ in 0..moves {
                // Pick a random block and a random target cell.
                let bi = rng.below(n as u64) as usize;
                let (bc, br) = coords[bi];
                let tc = rng.below(w as u64) as u32;
                let tr = rng.below(h as u64) as u32;
                if (tc, tr) == (bc, br) {
                    continue;
                }
                let other = occ[at(tc, tr)];

                // Delta cost: recompute edges touching the moved block(s).
                let touches = |coords: &[(u32, u32)], blk: usize| -> u64 {
                    incident[blk]
                        .iter()
                        .map(|&e| {
                            let (a, b) = es[e as usize];
                            let (ax, ay) = coords[a as usize];
                            let (bx, by) = coords[b as usize];
                            (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
                        })
                        .sum()
                };
                let pair_cost = |coords: &[(u32, u32)]| {
                    touches(coords, bi)
                        + other.map_or(0, |o| {
                            if o as usize != bi {
                                touches(coords, o as usize)
                            } else {
                                0
                            }
                        })
                };
                let before = pair_cost(&coords);
                // Apply tentatively.
                coords[bi] = (tc, tr);
                if let Some(o) = other {
                    coords[o as usize] = (bc, br);
                }
                let after = pair_cost(&coords);

                let accept = if after <= before {
                    true
                } else {
                    let delta = (after - before) as f64;
                    rng.f64() < (-delta / temp).exp()
                };
                if accept {
                    occ[at(bc, br)] = other;
                    occ[at(tc, tr)] = Some(bi as u32);
                    cost = cost + after - before;
                } else {
                    // Revert.
                    coords[bi] = (bc, br);
                    if let Some(o) = other {
                        coords[o as usize] = (tc, tr);
                    }
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
}

// ------------------------------------------------------------- the sweep

const SEEDS: [u64; 3] = [0x5EED, 7, 42];

fn assert_same(pc: &PackedCircuit, (w, h): (u32, u32), seed: u64) {
    let (mut r_old, mut r_new) = (SimRng::new(seed), SimRng::new(seed));
    let want = reference::place(pc, w, h, &mut r_old).unwrap();
    let got = place(pc, w, h, &mut r_new).unwrap();
    let at = format!("{} in {w}x{h} seed {seed:#x}", pc.name);
    assert_eq!(got.coords, want.coords, "coords of {at}");
    assert_eq!(got.hpwl, want.hpwl, "hpwl of {at}");
    assert_eq!(r_new.next_u64(), r_old.next_u64(), "random stream of {at}");
}

/// The four regions a circuit of `n` blocks is placed into.
fn shapes(n: usize) -> [(u32, u32); 4] {
    let auto = auto_shape(n, 0.85, 30);
    let want = (n as f64 / 0.85).ceil() as u32;
    let full_height = (want.div_ceil(12).max(1), 12);
    // The most nearly square `w × h = n`: no empty cell, every move a swap.
    let n32 = n as u32;
    let h = (1..=n32)
        .take_while(|h| h * h <= n32)
        .filter(|h| n32 / h * h == n32)
        .last()
        .unwrap();
    let exact = (n32 / h, h);
    let sparse = (2 * auto.0 + 1, auto.1 + 2);
    [auto, full_height, exact, sparse]
}

/// Every `fabric` netlist in its four regions at each of `seeds`.
fn library_sweep(seeds: &[u64]) {
    let nets = common::fabric_netlists();
    assert_eq!(nets.len(), 24);
    for net in &nets {
        let pc = pack(&map_to_luts(net, MapOptions::default()));
        for shape in shapes(pc.blocks.len()) {
            for &seed in seeds {
                assert_same(&pc, shape, seed);
            }
        }
    }
}

#[test]
fn library_places_as_before() {
    library_sweep(&SEEDS);
}

/// The sweep at 32 seeds, for `ci.sh` under `--release`: the acceptance
/// test and the bound's refusal are float code.
#[test]
#[ignore = "wide sweep: run with --release -- --ignored"]
fn library_places_as_before_wide() {
    let mut draw = SimRng::new(0x0DD5_EED5);
    let seeds: Vec<u64> = (0..32).map(|_| draw.next_u64()).collect();
    library_sweep(&seeds);
}

#[test]
fn doubled_edges_self_loops_and_two_blocks_place_as_before() {
    for pc in [knots::two(), knots::knot(), knots::chain()] {
        let n = pc.blocks.len() as u32;
        for shape in [(n, 1), (n.div_ceil(2), 2), (n, 3), (7, 9)] {
            for seed in SEEDS {
                assert_same(&pc, shape, seed);
            }
        }
    }
}
