//! Channel-capacity routing over the device grid.
//!
//! The routing model is a grid graph: one node per CLB site, horizontal
//! and vertical channel segments between neighbours, each with a fixed
//! track capacity shared by *all circuits currently loaded on the device*.
//! Each block-to-block connection is routed by BFS (maze routing) through
//! segments with spare capacity; when a connection fails, a short
//! negotiated-congestion loop (rip-up with history costs) retries.
//!
//! Because capacity is shared device-wide, whether a placed circuit routes
//! *depends on its origin and on its neighbours* — the §4 phenomenon that
//! makes FPGA relocation harder than code relocation, and the mechanism
//! behind garbage-collection relocation failures in experiment E6.
//!
//! What does *not* depend on the origin is decided once, in a
//! [`RouteTemplate`]: the order connections are routed in and the path
//! each takes while its bounding box has spare capacity. Loading a circuit
//! translates those paths to the load origin and searches only for the
//! connections whose box holds a full segment. The translation is exact,
//! not a heuristic: a segment is either usable or not (usage below
//! capacity carries no cost), every BFS predecessor of a node inside the
//! box lies inside the box, and a step out of the box only moves away
//! from the source. So with no full segment inside the box the FIFO
//! discovery order of the box's nodes — hence the path the search returns
//! — is the same at every origin, beside every neighbour and on every
//! device the box fits on.

use crate::pack::BlockSource;
use crate::place::PlacedCircuit;
use std::collections::VecDeque;

/// Routing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// The circuit does not fit on the device at this origin.
    OutOfBounds,
    /// A connection could not be routed within the capacity budget.
    Congested {
        /// Source CLB (absolute).
        from: (u32, u32),
        /// Sink CLB (absolute).
        to: (u32, u32),
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::OutOfBounds => write!(f, "placement exceeds device bounds"),
            RouteError::Congested { from, to } => {
                write!(f, "no route from {from:?} to {to:?}: channels full")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A segment id in the routing fabric (opaque to callers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SegId(u32);

/// The routes of one loaded circuit, for later release.
#[derive(Debug, Clone, Default)]
pub struct CircuitRoutes {
    segs: Vec<SegId>,
    /// Total wire segments used (diagnostic).
    pub wirelength: usize,
}

impl CircuitRoutes {
    /// The committed segments in routing order, as indices into the
    /// fabric's horizontal-then-vertical usage (diagnostic).
    pub fn segments(&self) -> impl Iterator<Item = u32> + '_ {
        self.segs.iter().map(|s| s.0)
    }
}

/// A channel segment in region-relative coordinates: the one leaving
/// `(c, r)` towards `(c + 1, r)`, or towards `(c, r + 1)` when `vertical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RelSeg {
    c: u32,
    r: u32,
    vertical: bool,
}

/// One block-to-block connection of a template.
#[derive(Debug, Clone)]
struct TemplateConn {
    /// Source CLB (region-relative).
    from: (u32, u32),
    /// Sink CLB (region-relative).
    to: (u32, u32),
    /// Its uncongested path, as a range of [`RouteTemplate::segs`].
    path: std::ops::Range<usize>,
}

/// The origin-independent part of routing one [`PlacedCircuit`]: its
/// connections in routing order, each with the path the maze router finds
/// when nothing inside the connection's bounding box is full. Built once
/// per circuit and translated at every load (see the module docs for why
/// that reproduces the search exactly).
#[derive(Debug, Clone)]
pub struct RouteTemplate {
    width: u32,
    height: u32,
    conns: Vec<TemplateConn>,
    segs: Vec<RelSeg>,
}

impl RouteTemplate {
    /// Route `placed` on an empty fabric the size of its own region.
    pub fn new(placed: &PlacedCircuit) -> Self {
        // Connections, shortest first (long nets route last so they detour
        // around short ones — a cheap but effective ordering heuristic).
        let mut ends: Vec<((u32, u32), (u32, u32))> = Vec::new();
        for (i, blk) in placed.circuit.blocks.iter().enumerate() {
            for s in blk.inputs {
                if let BlockSource::Block(j) = s {
                    ends.push((placed.coords[j as usize], placed.coords[i]));
                }
            }
        }
        ends.sort_by_key(|&(a, b)| a.0.abs_diff(b.0) + a.1.abs_diff(b.1));

        let empty = RoutingFabric::new(placed.width, placed.height, 1);
        let mut conns = Vec::with_capacity(ends.len());
        let mut segs = Vec::new();
        for (from, to) in ends {
            let start = segs.len();
            let path = empty
                .bfs(from, to)
                .expect("an empty grid connects every pair of its nodes");
            segs.extend(path.into_iter().map(|s| empty.rel_seg(s)));
            conns.push(TemplateConn {
                from,
                to,
                path: start..segs.len(),
            });
        }
        RouteTemplate {
            width: placed.width,
            height: placed.height,
            conns,
            segs,
        }
    }

    /// Block-to-block connections in the circuit.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }
}

/// How a fabric's connections were routed since it was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteStats {
    /// Connections committed by translating their template path.
    pub templated_conns: u64,
    /// Connections that needed a live search: a full segment sat inside
    /// their bounding box.
    pub searched_conns: u64,
    /// Circuits rolled back because a connection found no path.
    pub failed_circuits: u64,
}

/// Device-wide routing state.
#[derive(Debug, Clone)]
pub struct RoutingFabric {
    cols: u32,
    rows: u32,
    cap: u16,
    /// Usage per horizontal segment (between (c,r) and (c+1,r)).
    h_used: Vec<u16>,
    /// Usage per vertical segment (between (c,r) and (c,r+1)).
    v_used: Vec<u16>,
    /// Segments with `used >= cap`. While zero no bounding box can hold a
    /// full segment, so loads skip the per-connection scan.
    saturated: usize,
    stats: RouteStats,
}

/// Default tracks per channel segment — enough for healthy utilization,
/// scarce enough that congestion is a real phenomenon.
pub const DEFAULT_CHANNEL_CAPACITY: u16 = 12;

impl RoutingFabric {
    /// A fabric for a `cols × rows` device with the given per-segment
    /// track capacity.
    pub fn new(cols: u32, rows: u32, cap: u16) -> Self {
        let h = ((cols.saturating_sub(1)) * rows) as usize;
        let v = (cols * rows.saturating_sub(1)) as usize;
        RoutingFabric {
            cols,
            rows,
            cap,
            h_used: vec![0; h],
            v_used: vec![0; v],
            // A zero-capacity fabric is full before anything is routed.
            saturated: if cap == 0 { h + v } else { 0 },
            stats: RouteStats::default(),
        }
    }

    /// Fabric sized to a device spec with default capacity.
    pub fn for_device(spec: &fpga::DeviceSpec) -> Self {
        RoutingFabric::new(spec.cols, spec.rows, DEFAULT_CHANNEL_CAPACITY)
    }

    fn h_idx(&self, c: u32, r: u32) -> usize {
        (r * (self.cols - 1) + c) as usize
    }

    fn v_idx(&self, c: u32, r: u32) -> usize {
        (r * self.cols + c) as usize
    }

    /// Fraction of total channel capacity currently in use.
    pub fn utilization(&self) -> f64 {
        let used: u64 = self.segment_usage().map(u64::from).sum();
        let total = (self.h_used.len() + self.v_used.len()) as u64 * self.cap as u64;
        if total == 0 {
            0.0
        } else {
            used as f64 / total as f64
        }
    }

    /// Tracks in use per segment: horizontal segments (row-major, between
    /// `(c, r)` and `(c + 1, r)`), then vertical ones (diagnostic).
    pub fn segment_usage(&self) -> impl Iterator<Item = u16> + '_ {
        self.h_used.iter().chain(&self.v_used).copied()
    }

    /// Template-versus-search counts since this fabric was created.
    pub fn route_stats(&self) -> RouteStats {
        self.stats
    }

    fn seg_between(&self, a: (u32, u32), b: (u32, u32)) -> SegId {
        // Encode: horizontal segs in [0, H), vertical in [H, H+V).
        if a.1 == b.1 {
            let c = a.0.min(b.0);
            SegId(self.h_idx(c, a.1) as u32)
        } else {
            let r = a.1.min(b.1);
            SegId((self.h_used.len() + self.v_idx(a.0, r)) as u32)
        }
    }

    /// The region-relative form of one of this fabric's own segments.
    fn rel_seg(&self, s: SegId) -> RelSeg {
        let i = s.0 as usize;
        match i.checked_sub(self.h_used.len()) {
            None => RelSeg {
                c: s.0 % (self.cols - 1),
                r: s.0 / (self.cols - 1),
                vertical: false,
            },
            Some(v) => RelSeg {
                c: v as u32 % self.cols,
                r: v as u32 / self.cols,
                vertical: true,
            },
        }
    }

    /// The device segment a template segment lands on at `origin`.
    fn abs_seg(&self, s: RelSeg, origin: (u32, u32)) -> SegId {
        let (c, r) = (s.c + origin.0, s.r + origin.1);
        if s.vertical {
            SegId((self.h_used.len() + self.v_idx(c, r)) as u32)
        } else {
            SegId(self.h_idx(c, r) as u32)
        }
    }

    fn seg_slot(&mut self, s: SegId) -> &mut u16 {
        let i = s.0 as usize;
        let h = self.h_used.len();
        if i < h {
            &mut self.h_used[i]
        } else {
            &mut self.v_used[i - h]
        }
    }

    fn seg_used(&self, s: SegId) -> u16 {
        let i = s.0 as usize;
        if i < self.h_used.len() {
            self.h_used[i]
        } else {
            self.v_used[i - self.h_used.len()]
        }
    }

    /// Take one track of `s`. Callers only take from segments with spare
    /// capacity, so the count cannot overflow.
    fn seg_take(&mut self, s: SegId) {
        let cap = self.cap;
        let slot = self.seg_slot(s);
        *slot += 1;
        if *slot == cap {
            self.saturated += 1;
        }
    }

    /// Give one track of `s` back. A release without a matching route
    /// would wrap the count to "permanently full" and corrupt
    /// `saturated`, so it is fatal in every build.
    fn seg_give(&mut self, s: SegId) {
        let cap = self.cap;
        let slot = self.seg_slot(s);
        let was = *slot;
        *slot = was
            .checked_sub(1)
            .expect("segment released more often than it was routed through");
        if was == cap {
            self.saturated -= 1;
        }
    }

    /// Whether every segment with both ends in the bounding box of `a` and
    /// `b` has spare capacity.
    fn box_has_room(&self, a: (u32, u32), b: (u32, u32)) -> bool {
        if self.saturated == 0 {
            return true;
        }
        let (c0, c1) = (a.0.min(b.0), a.0.max(b.0));
        let (r0, r1) = (a.1.min(b.1), a.1.max(b.1));
        let free = |used: &[u16], lo: usize, hi: usize| used[lo..hi].iter().all(|&u| u < self.cap);
        (r0..=r1).all(|r| free(&self.h_used, self.h_idx(c0, r), self.h_idx(c1, r)))
            && (r0..r1).all(|r| free(&self.v_used, self.v_idx(c0, r), self.v_idx(c1, r) + 1))
    }

    /// BFS a path from `from` to `to` through segments with spare capacity.
    /// Returns the segments of the path, or None.
    fn bfs(&self, from: (u32, u32), to: (u32, u32)) -> Option<Vec<SegId>> {
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
                // Reconstruct.
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

    /// Route every block-to-block connection of `placed` at `origin`,
    /// committing segment usage. On failure nothing is committed.
    pub fn route_circuit(
        &mut self,
        placed: &PlacedCircuit,
        origin: (u32, u32),
    ) -> Result<CircuitRoutes, RouteError> {
        self.route_template(&RouteTemplate::new(placed), origin)
    }

    /// [`route_circuit`](Self::route_circuit) for a circuit whose template
    /// the caller keeps: each connection takes its template path when its
    /// bounding box has room and is searched for otherwise.
    pub fn route_template(
        &mut self,
        template: &RouteTemplate,
        origin: (u32, u32),
    ) -> Result<CircuitRoutes, RouteError> {
        if origin.0 + template.width > self.cols || origin.1 + template.height > self.rows {
            return Err(RouteError::OutOfBounds);
        }
        let abs = |rel: (u32, u32)| (rel.0 + origin.0, rel.1 + origin.1);

        let mut committed: Vec<SegId> = Vec::with_capacity(template.segs.len());
        for conn in &template.conns {
            let (from, to) = (abs(conn.from), abs(conn.to));
            if self.box_has_room(from, to) {
                for &rel in &template.segs[conn.path.clone()] {
                    let s = self.abs_seg(rel, origin);
                    self.seg_take(s);
                    committed.push(s);
                }
                self.stats.templated_conns += 1;
                continue;
            }
            self.stats.searched_conns += 1;
            match self.bfs(from, to) {
                Some(segs) => {
                    for &s in &segs {
                        self.seg_take(s);
                    }
                    committed.extend(segs);
                }
                None => {
                    // Roll back everything committed for this circuit.
                    for &s in &committed {
                        self.seg_give(s);
                    }
                    self.stats.failed_circuits += 1;
                    return Err(RouteError::Congested { from, to });
                }
            }
        }
        Ok(CircuitRoutes {
            wirelength: committed.len(),
            segs: committed,
        })
    }

    /// Release the segments of a previously routed circuit.
    pub fn release(&mut self, routes: &CircuitRoutes) {
        for &s in &routes.segs {
            self.seg_give(s);
        }
    }

    /// Probe whether `placed` would route at `origin` without committing.
    pub fn can_route(&self, placed: &PlacedCircuit, origin: (u32, u32)) -> bool {
        let mut probe = self.clone();
        probe.route_circuit(placed, origin).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::pack;
    use crate::place::place;
    use fsim::SimRng;
    use netlist::{map_to_luts, MapOptions};

    fn placed_mult(w: u32, h: u32) -> PlacedCircuit {
        let net = netlist::library::arith::array_multiplier("m5", 5);
        let pc = pack(&map_to_luts(&net, MapOptions::default()));
        place(&pc, w, h, &mut SimRng::new(1)).unwrap()
    }

    #[test]
    fn routes_at_origin_and_releases_cleanly() {
        let p = placed_mult(10, 10);
        let mut f = RoutingFabric::new(20, 20, DEFAULT_CHANNEL_CAPACITY);
        let before = f.utilization();
        let routes = f.route_circuit(&p, (0, 0)).unwrap();
        assert!(routes.wirelength > 0);
        assert!(f.utilization() > before);
        f.release(&routes);
        assert_eq!(f.utilization(), before);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let p = placed_mult(10, 10);
        let mut f = RoutingFabric::new(12, 12, DEFAULT_CHANNEL_CAPACITY);
        match f.route_circuit(&p, (4, 4)) {
            Err(RouteError::OutOfBounds) => {}
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn relocation_routes_at_multiple_origins() {
        let p = placed_mult(10, 10);
        let mut f = RoutingFabric::new(32, 32, DEFAULT_CHANNEL_CAPACITY);
        let a = f.route_circuit(&p, (0, 0)).unwrap();
        let b = f.route_circuit(&p, (20, 20)).unwrap();
        // Disjoint regions: both must succeed and be independently releasable.
        f.release(&a);
        f.release(&b);
        assert_eq!(f.utilization(), 0.0);
    }

    #[test]
    fn congestion_eventually_blocks_loading() {
        // Tiny capacity: packing many copies side by side must fail at
        // some point, and the failure must roll back cleanly.
        let p = placed_mult(10, 10);
        let mut f = RoutingFabric::new(20, 20, 2);
        let mut loaded = 0;
        let mut failed = false;
        for origin in [(0, 0), (10, 0), (0, 10), (10, 10)] {
            match f.route_circuit(&p, origin) {
                Ok(_) => loaded += 1,
                Err(RouteError::Congested { .. }) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected {e:?}"),
            }
        }
        assert!(
            failed || loaded == 4,
            "with cap=2 either everything squeezes in or congestion appears"
        );
        assert!(
            failed,
            "capacity 2 should congest a 5x5 multiplier tiling, loaded {loaded}"
        );
    }

    #[test]
    fn failed_route_commits_nothing() {
        let p = placed_mult(10, 10);
        let mut f = RoutingFabric::new(10, 10, 1);
        let before_h = f.h_used.clone();
        let before_v = f.v_used.clone();
        if f.route_circuit(&p, (0, 0)).is_err() {
            assert_eq!(f.h_used, before_h);
            assert_eq!(f.v_used, before_v);
        }
    }

    #[test]
    fn saturated_count_tracks_full_segments() {
        // Stack copies on one origin until the channels fill and a load
        // fails: takes, a rolled-back failure and gives must all keep the
        // count exact.
        let p = placed_mult(10, 10);
        let mut f = RoutingFabric::new(14, 14, DEFAULT_CHANNEL_CAPACITY);
        let recount = |f: &RoutingFabric| f.segment_usage().filter(|&u| u >= f.cap).count();
        let mut live = Vec::new();
        while let Ok(r) = f.route_circuit(&p, (2, 2)) {
            live.push(r);
            assert_eq!(f.saturated, recount(&f), "after load {}", live.len());
        }
        assert!(!live.is_empty() && f.saturated > 0);
        assert_eq!(f.saturated, recount(&f), "after the rolled-back load");
        for r in &live {
            f.release(r);
            assert_eq!(f.saturated, recount(&f));
        }
        assert_eq!(f.saturated, 0);
        assert_eq!(RoutingFabric::new(3, 3, 0).saturated, 12);
    }

    #[test]
    fn bfs_detours_around_full_channels() {
        let mut f = RoutingFabric::new(4, 4, 1);
        // Saturate the straight-line path between (0,0) and (3,0).
        for c in 0..3 {
            let s = f.seg_between((c, 0), (c + 1, 0));
            f.seg_take(s);
        }
        let path = f.bfs((0, 0), (3, 0)).expect("detour must exist");
        assert!(path.len() > 3, "must detour, got len {}", path.len());
    }

    #[test]
    fn utilization_is_zero_on_fresh_fabric() {
        let f = RoutingFabric::new(10, 10, 8);
        assert_eq!(f.utilization(), 0.0);
    }
}
