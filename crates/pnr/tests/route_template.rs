//! Template routing against the router it replaced.
//!
//! `Oracle` below is the pre-template `RoutingFabric` kept verbatim as a
//! reference: every connection searched live, at the load origin, on the
//! whole device. [`RoutingFabric::route_circuit`] and
//! [`RoutingFabric::route_template`] must agree with it on everything a
//! caller can observe — the committed segments in order, the wirelength,
//! the error payload, and the usage of every segment afterwards — on empty
//! fabrics, beside neighbours, under capacities that force saturation,
//! detours and failures, and across random route/release interleavings.
//! Every sweep also runs at the capacities around each circuit's largest
//! footprint multiplicity, where a one-pass footprint load is decided by a
//! single track: one short of it the circuit's own nets overfill a segment
//! and the connection walk searches, at it the footprint loads only if the
//! segments it fills may end up full, one past it the footprint always
//! loads on an empty fabric.
//!
//! The fabric holds footprints over unused regions as a list of bookings
//! and fills in per-segment counts only when an operation needs them, so
//! every comparison has to be made in both representations and across both
//! conversions. [`handled`] is the tally of how each load, release and
//! recommit went — booked, counted, or counted after a conversion — and
//! the sweeps assert that none of the three stays at zero. Two one-line
//! mutants of `route.rs` that this file must fail on (checked by hand when
//! the booking was written, and worth repeating after any edit to it):
//!
//! * `book` without `|| !self.booked.iter().all(clear)` — overlapping
//!   footprints both booked: usage diverges from the oracle's in
//!   `booked_usage_becomes_counted_and_back`,
//!   `beside_neighbours_and_after_their_release`, the scarce-capacity
//!   sweep and the random interleavings.
//! * `Template::full_at` returning 0 — the segments a footprint fills
//!   exactly are missing from `saturated`: "saturated is not its recount"
//!   in `booked_usage_becomes_counted_and_back` and the interleavings, and
//!   once counted a box that is full reads as free, so usage diverges in
//!   the neighbour and scarce-capacity sweeps.
//!
//! The placer golden at the bottom pins `place` to the coordinates the
//! full-scan cost function produced before the incident-edge index.

use fsim::SimRng;
use netlist::library::{alu, arith, codes, ext, logic, seq};
use netlist::Netlist;
use pnr::pack::BlockSource;
use pnr::route::CircuitRoutes;
use pnr::{
    compile, CompileOptions, PlacedCircuit, RouteError, RouteStats, RouteTemplate, RoutingFabric,
};
use std::collections::VecDeque;

// ------------------------------------------------------------ the oracle

struct Oracle {
    cols: u32,
    rows: u32,
    cap: u16,
    h_used: Vec<u16>,
    v_used: Vec<u16>,
}

impl Oracle {
    fn new(cols: u32, rows: u32, cap: u16) -> Self {
        let h = ((cols.saturating_sub(1)) * rows) as usize;
        let v = (cols * rows.saturating_sub(1)) as usize;
        Oracle {
            cols,
            rows,
            cap,
            h_used: vec![0; h],
            v_used: vec![0; v],
        }
    }

    fn h_idx(&self, c: u32, r: u32) -> usize {
        (r * (self.cols - 1) + c) as usize
    }

    fn v_idx(&self, c: u32, r: u32) -> usize {
        (r * self.cols + c) as usize
    }

    fn seg_between(&self, a: (u32, u32), b: (u32, u32)) -> u32 {
        if a.1 == b.1 {
            let c = a.0.min(b.0);
            self.h_idx(c, a.1) as u32
        } else {
            let r = a.1.min(b.1);
            (self.h_used.len() + self.v_idx(a.0, r)) as u32
        }
    }

    fn seg_used(&self, s: u32) -> u16 {
        let i = s as usize;
        if i < self.h_used.len() {
            self.h_used[i]
        } else {
            self.v_used[i - self.h_used.len()]
        }
    }

    fn seg_add(&mut self, s: u32, delta: i32) {
        let i = s as usize;
        let slot = if i < self.h_used.len() {
            &mut self.h_used[i]
        } else {
            &mut self.v_used[i - self.h_used.len()]
        };
        let v = *slot as i32 + delta;
        assert!(v >= 0, "segment usage underflow");
        *slot = v as u16;
    }

    fn bfs(&self, from: (u32, u32), to: (u32, u32)) -> Option<Vec<u32>> {
        if from == to {
            return Some(Vec::new());
        }
        let n = (self.cols * self.rows) as usize;
        let idx = |c: u32, r: u32| (r * self.cols + c) as usize;
        let mut prev: Vec<u32> = vec![u32::MAX; n];
        let mut q = VecDeque::new();
        q.push_back(from);
        prev[idx(from.0, from.1)] = idx(from.0, from.1) as u32;
        while let Some((c, r)) = q.pop_front() {
            if (c, r) == to {
                let mut segs = Vec::new();
                let mut cur = (c, r);
                while cur != from {
                    let p = prev[idx(cur.0, cur.1)];
                    let pc = p % self.cols;
                    let pr = p / self.cols;
                    segs.push(self.seg_between((pc, pr), cur));
                    cur = (pc, pr);
                }
                segs.reverse();
                return Some(segs);
            }
            let neighbours = [
                (c.wrapping_sub(1), r),
                (c + 1, r),
                (c, r.wrapping_sub(1)),
                (c, r + 1),
            ];
            for (nc, nr) in neighbours {
                if nc >= self.cols || nr >= self.rows {
                    continue;
                }
                if prev[idx(nc, nr)] != u32::MAX {
                    continue;
                }
                let seg = self.seg_between((c, r), (nc, nr));
                if self.seg_used(seg) >= self.cap {
                    continue;
                }
                prev[idx(nc, nr)] = idx(c, r) as u32;
                q.push_back((nc, nr));
            }
        }
        None
    }

    fn route_circuit(
        &mut self,
        placed: &PlacedCircuit,
        origin: (u32, u32),
    ) -> Result<Vec<u32>, RouteError> {
        if origin.0 + placed.width > self.cols || origin.1 + placed.height > self.rows {
            return Err(RouteError::OutOfBounds);
        }
        let abs = |rel: (u32, u32)| (rel.0 + origin.0, rel.1 + origin.1);
        let mut conns: Vec<((u32, u32), (u32, u32))> = Vec::new();
        for (i, blk) in placed.circuit.blocks.iter().enumerate() {
            for s in blk.inputs {
                if let BlockSource::Block(j) = s {
                    conns.push((abs(placed.coords[j as usize]), abs(placed.coords[i])));
                }
            }
        }
        conns.sort_by_key(|&(a, b)| a.0.abs_diff(b.0) + a.1.abs_diff(b.1));

        let mut committed: Vec<u32> = Vec::new();
        for &(from, to) in &conns {
            match self.bfs(from, to) {
                Some(segs) => {
                    for &s in &segs {
                        self.seg_add(s, 1);
                    }
                    committed.extend(segs);
                }
                None => {
                    for &s in &committed {
                        self.seg_add(s, -1);
                    }
                    return Err(RouteError::Congested { from, to });
                }
            }
        }
        Ok(committed)
    }

    fn release(&mut self, segs: &[u32]) {
        for &s in segs {
            self.seg_add(s, -1);
        }
    }
}

// ------------------------------------------------------- the comparison

/// The same sequence of operations applied to the oracle and to a
/// [`RoutingFabric`], compared after every one.
struct Pair {
    old: Oracle,
    new: RoutingFabric,
}

impl Pair {
    fn new(cols: u32, rows: u32, cap: u16) -> Self {
        Pair {
            old: Oracle::new(cols, rows, cap),
            new: RoutingFabric::new(cols, rows, cap),
        }
    }

    fn assert_same_usage(&self, what: &str) {
        let old = self.old.h_used.iter().chain(&self.old.v_used).copied();
        assert!(
            old.eq(self.new.segment_usage()),
            "{what}: segment usage diverged"
        );
    }

    /// Route `c` at `origin` on both; `keep_template` picks the entry
    /// point (a stored template, or `route_circuit`'s throw-away one).
    fn route(
        &mut self,
        c: &Circuit,
        origin: (u32, u32),
        keep_template: bool,
    ) -> Option<(Vec<u32>, CircuitRoutes)> {
        let what = format!("{} at {origin:?}", c.name);
        let old = self.old.route_circuit(&c.placed, origin);
        let new = if keep_template {
            self.new.route_template(&c.template, origin)
        } else {
            self.new.route_circuit(&c.placed, origin)
        };
        self.assert_same_usage(&what);
        match (old, new) {
            (Ok(segs), Ok(routes)) => {
                assert!(
                    segs.iter().copied().eq(routes.segments()),
                    "{what}: segments differ"
                );
                assert_eq!(segs.len(), routes.wirelength, "{what}: wirelength");
                Some((segs, routes))
            }
            (Err(a), Err(b)) => {
                assert_eq!(a, b, "{what}: error payload");
                None
            }
            (a, b) => panic!(
                "{what}: oracle {a:?}, template {:?}",
                b.map(|r| r.wirelength)
            ),
        }
    }

    fn release(&mut self, (segs, routes): &(Vec<u32>, CircuitRoutes)) {
        self.old.release(segs);
        self.new.release(routes);
        self.assert_same_usage("release");
    }

    /// The fabric's own recount — usage against `live`, `saturated`
    /// against the full segments — in whichever representation it is in.
    fn assert_recount(&self, live: &[(Vec<u32>, CircuitRoutes)]) {
        self.new
            .assert_usage_is(live.iter().map(|(_, routes)| routes));
    }
}

/// How `f` handled its loads, releases and recommits so far: through its
/// bookings, on its counts, or on its counts after converting the
/// bookings. The tally is private to the fabric and shows only in its
/// `Debug` form, which is where this reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Handled {
    booked: u64,
    counted: u64,
    converted: u64,
}

fn handled(f: &RoutingFabric) -> Handled {
    let dbg = format!("{f:?}");
    let tally = &dbg[dbg.find("handled: Handled {").expect("the tally field")..];
    let field = |key: &str| {
        let digits = &tally[tally.find(key).expect("a tally count") + key.len()..];
        let end = digits
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(digits.len());
        digits[..end].parse::<u64>().expect("a count")
    };
    Handled {
        booked: field("booked: "),
        counted: field("counted: "),
        converted: field("converted: "),
    }
}

impl std::ops::AddAssign for Handled {
    fn add_assign(&mut self, o: Handled) {
        self.booked += o.booked;
        self.counted += o.counted;
        self.converted += o.converted;
    }
}

struct Circuit {
    name: String,
    placed: PlacedCircuit,
    template: RouteTemplate,
}

fn circuit(net: &Netlist, opts: CompileOptions) -> Circuit {
    let placed = compile(net, opts).expect("library netlist compiles").placed;
    Circuit {
        name: placed.circuit.name.clone(),
        template: RouteTemplate::new(&placed),
        placed,
    }
}

/// One of each netlist kind the `fabric` benchmark workload compiles, at
/// the workload's own options.
fn library() -> Vec<Circuit> {
    let opts = CompileOptions {
        max_height: 30,
        ..Default::default()
    };
    [
        alu::alu("alu4", 4),
        arith::array_multiplier("mul4", 4),
        ext::booth_multiplier("booth3", 3),
        arith::carry_select_adder("csa8", 8),
        logic::popcount("pop8", 8),
        seq::accumulator("acc8", 8),
        logic::barrel_shifter("bsh8", 8),
        codes::crc_comb("crc8x8", codes::CRC8, 8, 8),
    ]
    .iter()
    .map(|net| circuit(net, opts))
    .collect()
}

/// The capacities one below, at and one above `c`'s largest multiplicity.
fn peak_caps(c: &Circuit) -> [u16; 3] {
    let peak = c.template.peak_multiplicity();
    [peak - 1, peak, peak + 1]
}

// ---------------------------------------------------------------- tests

#[test]
fn every_origin_on_an_empty_fabric() {
    // Footprint loads at exactly the peak, and loads there that fell back.
    let (mut full_ok, mut not_full_ok) = (0, 0);
    for c in library() {
        assert!(c.template.connections() > 0, "{}", c.name);
        let [below, peak, above] = peak_caps(&c);
        for cap in [12, below, peak, above] {
            // Alone on an empty fabric only the capacity decides the path.
            let mut check = |p: &mut Pair, origin, keep_template| {
                if p.route(&c, origin, keep_template).is_none() {
                    return;
                }
                let footprints = p.new.route_stats().footprint_loads;
                let what = format!("{} at {origin:?}, capacity {cap}", c.name);
                if cap == below {
                    assert_eq!(footprints, 0, "{what}");
                } else if cap == peak {
                    full_ok += footprints;
                    not_full_ok += 1 - footprints;
                } else {
                    assert_eq!(footprints, 1, "{what}");
                }
            };
            // Every origin on 20x20, one row and column past the last that fits.
            for oy in 0..=(21 - c.placed.height) {
                for ox in 0..=(21 - c.placed.width) {
                    check(&mut Pair::new(20, 20, cap), (ox, oy), (ox + oy) % 2 == 0);
                }
            }
            // A stride on 32x32.
            for oy in (0..=32 - c.placed.height).step_by(5) {
                for ox in (0..=32 - c.placed.width).step_by(3) {
                    check(&mut Pair::new(32, 32, cap), (ox, oy), true);
                }
            }
        }
    }
    assert!(full_ok > 0 && not_full_ok > 0, "{full_ok} / {not_full_ok}");
}

#[test]
fn beside_neighbours_and_after_their_release() {
    let lib = library();
    for (i, c) in lib.iter().enumerate() {
        let n = &lib[(i + 3) % lib.len()];
        // Capacity 3 lets the neighbour's own nets fill segments without
        // every load failing.
        for cap in [3, 12].into_iter().chain(peak_caps(c)) {
            let mut p = Pair::new(32, 32, cap);
            let left = p.route(n, (0, 0), true);
            let below = p.route(n, (n.placed.width, n.placed.height), true);
            // Overlapping the first neighbour, abutting it, and clear of both.
            for origin in [(1, 1), (n.placed.width, 0), (0, n.placed.height), (20, 20)] {
                if let Some(r) = p.route(c, origin, true) {
                    p.release(&r);
                }
            }
            for r in left.iter().chain(&below) {
                p.release(r);
            }
            assert!(p.new.segment_usage().all(|u| u == 0), "{}", c.name);
            p.route(c, (1, 1), false);
        }
    }
}

#[test]
fn scarce_capacity_forces_saturation_detours_and_failures() {
    let lib = library();
    let (mut searched, mut failed, mut outside) = (0, 0, 0);
    for cap in 1..=4u16 {
        for c in &lib {
            // The circuit alone, hard against the device edge and inset:
            // its own nets saturate its channels, so later connections
            // search, detour (off the region where there is room) or fail.
            let (w, h) = (c.placed.width, c.placed.height);
            for (cols, rows, origin) in [(w, h, (0, 0)), (w + 6, h + 6, (3, 3)), (20, 20, (0, 0))] {
                let (cols, rows) = (cols.max(2), rows.max(2));
                let mut p = Pair::new(cols, rows, cap);
                if p.route(c, origin, true).is_some() {
                    // A path step outside the region shows as usage there.
                    let region_h = |i: usize| {
                        let (sc, sr) = (i as u32 % (cols - 1), i as u32 / (cols - 1));
                        sc >= origin.0
                            && sc + 1 < origin.0 + w
                            && sr >= origin.1
                            && sr < origin.1 + h
                    };
                    let h_count = ((cols - 1) * rows) as usize;
                    if p.new
                        .segment_usage()
                        .take(h_count)
                        .enumerate()
                        .any(|(i, u)| u > 0 && !region_h(i))
                    {
                        outside += 1;
                    }
                }
                // Load copies until one fails, then keep going: failures
                // must roll back identically too.
                for k in 0..4 {
                    let o = ((k % 2) * w, (k / 2) * h);
                    p.route(c, o, k % 2 == 0);
                }
                let s = p.new.route_stats();
                searched += s.searched_conns;
                failed += s.failed_circuits;
            }
        }
    }
    assert!(searched > 0, "no connection ever fell back to the search");
    assert!(failed > 0, "no circuit ever failed to route");
    assert!(outside > 0, "no route ever left its region");
}

/// Sixty random routes and releases on a `side × side` fabric; every
/// other route is of `lib[focus]` when there is one.
fn random_interleaving(
    lib: &[Circuit],
    seed: u64,
    side: u32,
    cap: u16,
    focus: Option<usize>,
) -> (RouteStats, Handled) {
    let mut rng = SimRng::new(0x7E3A ^ seed);
    let mut p = Pair::new(side, side, cap);
    let mut live = Vec::new();
    for _ in 0..60 {
        p.assert_recount(&live);
        if !live.is_empty() && rng.below(3) == 0 {
            let r = live.swap_remove(rng.below(live.len() as u64) as usize);
            p.release(&r);
            continue;
        }
        let c = match focus {
            Some(i) if rng.below(2) == 0 => &lib[i],
            _ => &lib[rng.below(lib.len() as u64) as usize],
        };
        // Any origin, overlapping whatever is loaded; one in eight
        // out of bounds.
        let ox = rng.below((side - c.placed.width + 2) as u64) as u32;
        let oy = rng.below((side - c.placed.height + 2) as u64) as u32;
        live.extend(p.route(c, (ox, oy), rng.below(2) == 0));
    }
    while let Some(r) = live.pop() {
        p.release(&r);
        p.assert_recount(&live);
    }
    assert!(p.new.segment_usage().all(|u| u == 0), "seed {seed}");
    (p.new.route_stats(), handled(&p.new))
}

#[test]
fn random_route_release_interleavings() {
    let lib = library();
    let mut how = Handled::default();
    for seed in 0..24u64 {
        let cap = 2 + (seed % 4) as u16;
        let side = if seed % 2 == 0 { 20 } else { 32 };
        how += random_interleaving(&lib, seed, side, cap, None).1;
    }
    // Roomy: most loads land clear of the others and stay booked.
    for seed in 24..32u64 {
        how += random_interleaving(&lib, seed, 64, 8 + (seed % 5) as u16, None).1;
    }
    // Each circuit at each capacity around its peak, among the others.
    let (mut footprints, mut searched, mut failed) = (0, 0, 0);
    for (i, c) in lib.iter().enumerate() {
        for (k, cap) in peak_caps(c).into_iter().enumerate() {
            let seed = 100 + (3 * i + k) as u64;
            let (s, h) = random_interleaving(&lib, seed, 20, cap, Some(i));
            footprints += s.footprint_loads;
            searched += s.searched_conns;
            failed += s.failed_circuits;
            how += h;
        }
    }
    assert!(footprints > 0 && searched > 0 && failed > 0);
    assert!(
        how.booked > 0 && how.counted > 0 && how.converted > 0,
        "{how:?}"
    );
}

#[test]
fn booked_usage_becomes_counted_and_back() {
    let lib = library();
    // Bookable at every capacity from 2 up, and out of everyone's way.
    let small = lib.iter().find(|c| c.name == "crc8x8").unwrap();
    assert_eq!(small.template.peak_multiplicity(), 1);
    let (mut full_while_booked, mut refused_at_peak) = (0, 0);
    for c in lib.iter().filter(|c| c.template.peak_multiplicity() > 2) {
        let (w, h) = (c.placed.width, c.placed.height);
        let [below, peak, above] = peak_caps(c);
        for cap in [below, peak, above, 12] {
            let what = format!("{} at capacity {cap}", c.name);
            let mut p = Pair::new(32, 32, cap);
            let mut live = vec![p.route(small, (28, 27), true).unwrap()];
            assert_eq!(handled(&p.new).booked, 1, "{what}");

            // A template an unused region cannot take converts the booking
            // and walks; one it can take is booked beside it.
            let loaded = p.route(c, (0, 0), true);
            let how = handled(&p.new);
            let footprints = p.new.route_stats().footprint_loads;
            assert_eq!((how.booked, how.converted), (footprints, 2 - footprints));
            match cap {
                _ if cap == below => assert_eq!(footprints, 1, "{what}"),
                _ if cap == peak => refused_at_peak += 2 - footprints,
                _ => assert_eq!(footprints, 2, "{what}"),
            }
            live.extend(loaded);
            p.assert_recount(&live);
            if footprints == 2 && cap == peak {
                // The circuit fills segments on its own: `saturated` has to
                // know without a count to look at.
                full_while_booked += p.new.segment_usage().filter(|&u| u >= cap).count();
            }

            // Clear of both: booked while they are; counted once they are not.
            live.extend(p.route(c, (0, h), false));
            let before = handled(&p.new);
            assert_eq!(before.booked > 1, footprints == 2, "{what}");
            p.assert_recount(&live);

            // Over a booked region: everything is counted from here on.
            let over = p.route(c, (1, 1), true);
            let after = handled(&p.new);
            assert_eq!(after.booked, before.booked, "{what}");
            assert_eq!(
                after.converted,
                before.converted + u64::from(footprints == 2)
            );
            live.extend(over);
            live.extend(p.route(c, (w + 1, 0), true));
            assert_eq!(handled(&p.new).booked, before.booked, "{what}");
            p.assert_recount(&live);

            // Releasing counted routes keeps counting until the last one
            // is gone; the next load over an unused region is booked again.
            let counted = handled(&p.new).counted;
            let n = live.len() as u64;
            while let Some(r) = live.pop() {
                p.release(&r);
                p.assert_recount(&live);
            }
            let how = handled(&p.new);
            assert_eq!((how.counted, how.booked), (counted + n, before.booked));
            live.extend(p.route(small, (0, 0), true));
            live.extend(p.route(small, (3, 0), false));
            assert_eq!(handled(&p.new).booked, before.booked + 2, "{what}");
            p.assert_recount(&live);
            while let Some(r) = live.pop() {
                p.release(&r);
            }
            assert_eq!(handled(&p.new).booked, before.booked + 4, "{what}");
        }
    }
    assert!(full_while_booked > 0 && refused_at_peak > 0);
}

#[test]
fn route_stats_count_each_connection_once() {
    // The library side by side, as a partition manager lays circuits out,
    // at the device capacity: every load is one footprint pass.
    let lib = library();
    let mut f = RoutingFabric::new(64, 8, 12);
    let (mut col, mut conns) = (0, 0);
    let mut live = Vec::new();
    for (n, c) in lib.iter().enumerate() {
        live.push(f.route_template(&c.template, (col, 0)).unwrap());
        col += c.placed.width;
        conns += c.template.connections() as u64;
        let s = f.route_stats();
        assert_eq!(
            (s.templated_conns, s.footprint_loads),
            (conns, n as u64 + 1)
        );
        assert_eq!((s.searched_conns, s.failed_circuits), (0, 0));
    }
    let s = f.route_stats();
    for r in &live {
        f.release(r);
    }
    assert_eq!(f.route_stats(), s, "release routes nothing");
    assert!(f.segment_usage().all(|u| u == 0));
}

#[test]
#[should_panic(expected = "released more often than it was routed through")]
fn double_release_is_caught_in_every_build() {
    let c = &library()[0];
    let mut f = RoutingFabric::new(20, 20, 12);
    let r = f.route_template(&c.template, (0, 0)).unwrap();
    f.release(&r);
    f.release(&r);
}

// --------------------------------------------------------- placer golden

fn coords_digest(coords: &[(u32, u32)]) -> u64 {
    coords.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &(c, r)| {
        (h ^ ((c as u64) << 32 | r as u64)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(hpwl, block count, FNV-1a of the coordinates, first three
/// coordinates)` printed by this test at the parent commit.
#[test]
fn placement_matches_the_full_scan_placer() {
    let cases: [(Netlist, u64, Golden); 3] = [
        (arith::array_multiplier("mul6", 6), 0x5EED, GOLDEN_MUL6),
        (alu::alu("alu8", 8), 7, GOLDEN_ALU8),
        (logic::barrel_shifter("bsh16", 16), 42, GOLDEN_BSH16),
    ];
    for (net, seed, golden) in cases {
        let p = compile(
            &net,
            CompileOptions {
                seed,
                ..Default::default()
            },
        )
        .unwrap()
        .placed;
        let got: Golden = (
            p.hpwl,
            p.coords.len(),
            coords_digest(&p.coords),
            [p.coords[0], p.coords[1], p.coords[2]],
        );
        println!("{}: {got:?}", p.circuit.name);
        assert_eq!(got, golden, "{}", p.circuit.name);
    }
}

type Golden = (u64, usize, u64, [(u32, u32); 3]);
const GOLDEN_MUL6: Golden = (669, 121, 0x5c44_1b69_f702_d24f, [(11, 2), (8, 0), (3, 0)]);
const GOLDEN_ALU8: Golden = (206, 84, 0xff2e_729b_84d0_8d0e, [(8, 3), (9, 3), (8, 5)]);
const GOLDEN_BSH16: Golden = (152, 64, 0x9968_f67c_c7b5_6e2a, [(1, 5), (0, 5), (5, 4)]);
