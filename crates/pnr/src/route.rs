//! Channel-capacity routing over the device grid.
//!
//! The routing model is a grid graph: one node per CLB site, horizontal
//! and vertical channel segments between neighbours, each with a fixed
//! track capacity shared by *all circuits currently loaded on the device*.
//! Each block-to-block connection is routed by BFS (maze routing) through
//! segments with spare capacity. There is no rip-up and no negotiation: a
//! connection that finds no path fails the whole circuit, which rolls back
//! (ROADMAP, "rip-up router / Booth-8", is the open item).
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
//! device the box fits on. On an empty grid that path is an L: along the
//! source's row to the sink's column, then along that column (the search
//! queues left and right neighbours before up and down). So a template
//! walks the L instead of searching for it; the search runs only at a load
//! whose box holds a full segment.
//!
//! A template also carries its *footprint*: each segment its paths cross,
//! once, with the tracks the whole circuit takes of it and the tracks that
//! must be free for every connection to keep its template path. Where the
//! fabric has that room a load is one pass over the footprint instead of a
//! walk over the connections, and so are its release and a move's put-back
//! (see [`RouteTemplate`]).
//!
//! Where even that pass has a foregone result the fabric skips it. A
//! footprint laid over a region nothing else uses fits iff the capacity
//! covers its own peak `need`, so while every live circuit is such a
//! footprint on a region of its own — a partition manager's whole life —
//! the fabric *books* them as `(template, origin)` in a short list and
//! keeps no count per segment. The counts are derived state: they are
//! filled in, and the list cleared, by `RoutingFabric::count_booked` the
//! moment an operation needs them (a load over a booked region, a template
//! an unused region cannot take, a release of a route that is not booked),
//! and booking resumes once the counted usage is back to zero. One
//! representation at a time; readers add the booked footprints to a copy.

use crate::pack::BlockSource;
use crate::place::PlacedCircuit;
use std::sync::Arc;

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
#[derive(Debug, Clone)]
pub struct CircuitRoutes {
    committed: Committed,
    /// Total wire segments used (diagnostic).
    pub wirelength: usize,
}

/// What a load left on the fabric.
#[derive(Debug, Clone)]
enum Committed {
    /// The template's footprint at `origin`: every connection on its
    /// template path. `cols` and `h_len` (the fabric's width and its count
    /// of horizontal segments) are what naming the segments takes.
    Footprint {
        template: RouteTemplate,
        origin: (u32, u32),
        cols: u32,
        h_len: u32,
    },
    /// The per-connection walk's segments in routing order; `searched`
    /// when any of them came from a live search.
    Walked { segs: Vec<SegId>, searched: bool },
}

impl CircuitRoutes {
    /// The committed segments in routing order, as indices into the
    /// fabric's horizontal-then-vertical usage (diagnostic).
    pub fn segments(&self) -> impl Iterator<Item = u32> + '_ {
        let n = match &self.committed {
            Committed::Footprint { template, .. } => template.0.segs.len(),
            Committed::Walked { segs, .. } => segs.len(),
        };
        (0..n).map(move |i| match &self.committed {
            Committed::Footprint {
                template,
                origin,
                cols,
                h_len,
            } => abs_seg(*cols, *h_len, template.0.segs[i], *origin).0,
            Committed::Walked { segs, .. } => segs[i].0,
        })
    }

    /// Whether a connection was searched for: only such a route can leave
    /// its circuit's region.
    pub fn searched(&self) -> bool {
        matches!(self.committed, Committed::Walked { searched: true, .. })
    }

    /// The template and origin of a footprint load.
    fn footprint(&self) -> Option<(&RouteTemplate, (u32, u32))> {
        match &self.committed {
            Committed::Footprint {
                template, origin, ..
            } => Some((template, *origin)),
            Committed::Walked { .. } => None,
        }
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

/// The segment of a `cols`-wide fabric with `h_len` horizontal segments
/// that `s` lands on at `origin`.
fn abs_seg(cols: u32, h_len: u32, s: RelSeg, origin: (u32, u32)) -> SegId {
    let (c, r) = (s.c + origin.0, s.r + origin.1);
    SegId(if s.vertical {
        h_len + r * cols + c
    } else {
        r * (cols - 1) + c
    })
}

/// One block-to-block connection of a template.
#[derive(Debug, Clone)]
struct TemplateConn {
    /// Source CLB (region-relative).
    from: (u32, u32),
    /// Sink CLB (region-relative).
    to: (u32, u32),
    /// Its uncongested path, as a range of [`Template::segs`].
    path: std::ops::Range<usize>,
}

/// One segment the circuit's template paths cross.
#[derive(Debug, Clone, Copy)]
struct FootSeg {
    seg: RelSeg,
    /// Connections crossing it: the tracks the circuit takes.
    mult: u16,
    /// Tracks it must have free for every connection to keep its template
    /// path: `mult`, and one more unless it may end up exactly full.
    need: u16,
}

/// The origin-independent part of routing one [`PlacedCircuit`]: its
/// connections in routing order, each with the path the maze router finds
/// when nothing inside the connection's bounding box is full. Built once
/// per circuit and translated at every load (see the module docs for why
/// that reproduces the search exactly). A cheap handle: clones share the
/// template, and so do the [`CircuitRoutes`] of its footprint loads.
///
/// The *footprint* sums those paths: each segment they cross, once, with
/// its multiplicity. Walking the connections in order, connection `i` keeps
/// its template path iff no segment in its box is full by then, i.e.
/// `used + (crossings by connections before i) < cap` for each. The count
/// only grows with `i`, so per segment the last connection whose box holds
/// it decides: if that is the last one crossing it, the segment may end up
/// exactly full, `used + mult <= cap`; if a later box holds it, it must
/// stay short of full, `used + mult < cap`; if nothing crosses it, it must
/// not be full already. So when no segment of the region (a superset of
/// the boxes) is full and every footprint segment has `need` tracks free,
/// the walk translates every connection, and the load is the footprint
/// added in one pass.
#[derive(Debug, Clone)]
pub struct RouteTemplate(Arc<Template>);

#[derive(Debug)]
struct Template {
    width: u32,
    height: u32,
    conns: Vec<TemplateConn>,
    segs: Vec<RelSeg>,
    /// In fabric order: horizontal segments row by row, then vertical.
    footprint: Vec<FootSeg>,
    /// The least capacity at which a region nothing else uses takes the
    /// footprint in one pass: the largest `need`, and at least one track so
    /// that no box of the region holds a full segment.
    peak_need: u16,
    /// The largest `mult`, and how many footprint segments take it: the
    /// ones the circuit fills on its own at exactly that capacity.
    peak_mult: u16,
    at_peak_mult: usize,
}

impl Template {
    /// Segments the footprint fills on a region nothing else uses, at a
    /// capacity of at least `peak_need` (so no `mult` exceeds `cap`).
    fn full_at(&self, cap: u16) -> usize {
        if cap == self.peak_mult {
            self.at_peak_mult
        } else {
            0
        }
    }

    /// Whether the region at `origin` shares no CLB with `other`'s at `at`.
    fn clear_of(&self, origin: (u32, u32), other: &Template, at: (u32, u32)) -> bool {
        origin.0 + self.width <= at.0
            || at.0 + other.width <= origin.0
            || origin.1 + self.height <= at.1
            || at.1 + other.height <= origin.1
    }
}

impl RouteTemplate {
    /// Route `placed` on an empty fabric the size of its own region: each
    /// connection takes its L path (`RoutingFabric::walk_l`).
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
        assert!(
            ends.len() < usize::from(u16::MAX),
            "a segment's crossings are counted in the fabric's u16 usage"
        );

        let empty = RoutingFabric::new(placed.width, placed.height, 1);
        let mut conns = Vec::with_capacity(ends.len());
        let mut path_ids = Vec::new();
        for (from, to) in ends {
            let start = path_ids.len();
            empty.walk_l(from, to, &mut path_ids);
            conns.push(TemplateConn {
                from,
                to,
                path: start..path_ids.len(),
            });
        }

        // The footprint, last connection first: the first crossing met is
        // a segment's last, and `boxed` holds every later connection's box.
        let mut mult = vec![0u16; empty.used.len()];
        let mut strict = vec![false; mult.len()];
        let mut boxed = vec![false; mult.len()];
        for conn in conns.iter().rev() {
            for s in &path_ids[conn.path.clone()] {
                let s = s.0 as usize;
                if mult[s] == 0 {
                    strict[s] = boxed[s];
                }
                mult[s] += 1;
            }
            for strip in empty.box_strips(conn.from, conn.to) {
                boxed[strip].fill(true);
            }
        }
        let footprint: Vec<FootSeg> = (0..mult.len())
            .filter(|&s| mult[s] > 0)
            .map(|s| FootSeg {
                seg: empty.rel_seg(SegId(s as u32)),
                mult: mult[s],
                need: mult[s] + u16::from(strict[s]),
            })
            .collect();
        let peak_mult = footprint.iter().map(|s| s.mult).max().unwrap_or(0);
        RouteTemplate(Arc::new(Template {
            width: placed.width,
            height: placed.height,
            conns,
            segs: path_ids.iter().map(|&s| empty.rel_seg(s)).collect(),
            peak_need: footprint.iter().map(|s| s.need).max().unwrap_or(0).max(1),
            peak_mult,
            at_peak_mult: footprint.iter().filter(|s| s.mult == peak_mult).count(),
            footprint,
        }))
    }

    /// Block-to-block connections in the circuit.
    pub fn connections(&self) -> usize {
        self.0.conns.len()
    }

    /// The most tracks the circuit takes of any one segment.
    pub fn peak_multiplicity(&self) -> u16 {
        self.0.peak_mult
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
    /// Circuits committed as their template's footprint, in one pass over
    /// its segments instead of a walk over the connections.
    pub footprint_loads: u64,
}

/// A footprint load held as itself, not as counts.
#[derive(Debug, Clone)]
struct Booked {
    template: RouteTemplate,
    origin: (u32, u32),
}

/// How loads, releases and recommits were handled (diagnostic; tests read
/// it off the fabric's `Debug` form).
#[derive(Debug, Clone, Copy, Default)]
struct Handled {
    /// Through the booked list alone.
    booked: u64,
    /// On the counts, nothing being booked.
    counted: u64,
    /// On the counts, after turning the booked footprints into counts.
    converted: u64,
}

/// Device-wide routing state.
#[derive(Debug, Clone)]
pub struct RoutingFabric {
    cols: u32,
    rows: u32,
    cap: u16,
    /// Tracks in use per segment, booked footprints aside: the `h_len`
    /// horizontal ones (between (c,r) and (c+1,r), row-major), then the
    /// vertical ones (between (c,r) and (c,r+1)).
    used: Vec<u16>,
    h_len: u32,
    /// The sum of `used`, kept from the wirelength of what is counted.
    counted: usize,
    /// Footprints on pairwise disjoint regions, each with a peak `need`
    /// within `cap`; empty unless `counted` is zero.
    booked: Vec<Booked>,
    /// Segments whose usage, booked footprints included, is `>= cap`.
    /// While zero no bounding box can hold a full segment, so loads skip
    /// their scans.
    saturated: usize,
    stats: RouteStats,
    handled: Handled,
}

/// Default tracks per channel segment — enough for healthy utilization,
/// scarce enough that congestion is a real phenomenon.
pub const DEFAULT_CHANNEL_CAPACITY: u16 = 12;

/// Scratch one maze search leaves ready for the next, on any fabric.
#[derive(Default)]
struct Search {
    /// Predecessor of each discovered node, `u32::MAX` for the rest (and
    /// for every node between searches).
    prev: Vec<u32>,
    /// The discovered nodes in FIFO order; the search walks an index along it.
    queue: Vec<(u32, u32)>,
    /// The path of the last successful search, source to sink.
    path: Vec<SegId>,
}

impl RoutingFabric {
    /// A fabric for a `cols × rows` device with the given per-segment
    /// track capacity.
    pub fn new(cols: u32, rows: u32, cap: u16) -> Self {
        let h = cols.saturating_sub(1) * rows;
        let v = cols * rows.saturating_sub(1);
        RoutingFabric {
            cols,
            rows,
            cap,
            used: vec![0; (h + v) as usize],
            h_len: h,
            counted: 0,
            booked: Vec::new(),
            // A zero-capacity fabric is full before anything is routed.
            saturated: if cap == 0 { (h + v) as usize } else { 0 },
            stats: RouteStats::default(),
            handled: Handled::default(),
        }
    }

    /// Fabric sized to a device spec with default capacity.
    pub fn for_device(spec: &fpga::DeviceSpec) -> Self {
        RoutingFabric::new(spec.cols, spec.rows, DEFAULT_CHANNEL_CAPACITY)
    }

    /// An empty fabric of the same size and track capacity.
    pub fn empty_like(&self) -> Self {
        RoutingFabric::new(self.cols, self.rows, self.cap)
    }

    fn h_idx(&self, c: u32, r: u32) -> usize {
        (r * (self.cols - 1) + c) as usize
    }

    fn v_idx(&self, c: u32, r: u32) -> usize {
        (self.h_len + r * self.cols + c) as usize
    }

    /// Fraction of total channel capacity currently in use.
    pub fn utilization(&self) -> f64 {
        let used = (self.counted + self.booked_tracks()) as u64;
        let total = self.used.len() as u64 * self.cap as u64;
        if total == 0 {
            0.0
        } else {
            used as f64 / total as f64
        }
    }

    /// Tracks in use per segment: horizontal segments (row-major, between
    /// `(c, r)` and `(c + 1, r)`), then vertical ones (diagnostic).
    pub fn segment_usage(&self) -> impl Iterator<Item = u16> + '_ {
        self.usage().into_iter()
    }

    /// `used` with the booked footprints added: the usage of every segment
    /// in either representation.
    fn usage(&self) -> Vec<u16> {
        let mut usage = self.used.clone();
        self.add_booked(&mut usage);
        usage
    }

    /// Tracks the booked footprints take, over all their segments.
    fn booked_tracks(&self) -> usize {
        let each = self.booked.iter().map(|b| b.template.0.segs.len());
        each.sum()
    }

    /// Add every booked footprint to `usage`. Regions are disjoint and each
    /// `mult` is within `cap`, so nothing overflows.
    fn add_booked(&self, usage: &mut [u16]) {
        for b in &self.booked {
            for s in &b.template.0.footprint {
                usage[abs_seg(self.cols, self.h_len, s.seg, b.origin).0 as usize] += s.mult;
            }
        }
    }

    /// Where every operation on `used` starts: turn the booked footprints,
    /// if any, into counts. `saturated` already includes them.
    fn count_booked(&mut self) {
        if self.booked.is_empty() {
            self.handled.counted += 1;
            return;
        }
        self.handled.converted += 1;
        let mut used = std::mem::take(&mut self.used);
        self.add_booked(&mut used);
        self.used = used;
        self.counted = self.booked_tracks();
        self.booked.clear();
    }

    /// Book `template`'s footprint at `origin` if nothing is counted, the
    /// region is clear of every booked one and an unused region takes the
    /// footprint at this capacity: then every segment of the region is
    /// unused, which is what the counted load would have found.
    fn book(&mut self, template: &RouteTemplate, origin: (u32, u32)) -> bool {
        let t = &*template.0;
        let clear = |b: &Booked| t.clear_of(origin, &b.template.0, b.origin);
        if self.counted > 0 || t.peak_need > self.cap || !self.booked.iter().all(clear) {
            return false;
        }
        self.saturated += t.full_at(self.cap);
        self.booked.push(Booked {
            template: template.clone(),
            origin,
        });
        self.handled.booked += 1;
        true
    }

    /// Drop the booking of `template` at `origin`, if there is one.
    fn unbook(&mut self, template: &RouteTemplate, origin: (u32, u32)) -> bool {
        let same = |b: &Booked| b.origin == origin && Arc::ptr_eq(&b.template.0, &template.0);
        let Some(i) = self.booked.iter().position(same) else {
            return false;
        };
        self.booked.swap_remove(i);
        self.saturated -= template.0.full_at(self.cap);
        self.handled.booked += 1;
        true
    }

    /// Template-versus-search counts since this fabric was created.
    pub fn route_stats(&self) -> RouteStats {
        self.stats
    }

    /// Whether no segment with an end in columns `[col, col + width)`
    /// carries a track (invariant checks: columns no loaded circuit covers,
    /// while no searched route is live).
    pub fn columns_are_unused(&self, col: u32, width: u32) -> bool {
        let idle = |lo: usize, hi: usize| self.used[lo..hi].iter().all(|&u| u == 0);
        // Horizontal segment `c` joins columns `c` and `c + 1`.
        let (h0, h1) = (col.saturating_sub(1), (col + width).min(self.cols - 1));
        // A booked footprint stays inside its region: clear of the columns
        // if the region is, else segment by segment.
        let booked_outside = |b: &Booked| {
            let (t, at) = (&b.template.0, b.origin.0);
            let beside = |c: u32, reach: u32| c >= col + width || c + reach <= col;
            beside(at, t.width)
                || (t.footprint.iter())
                    .all(|s| beside(s.seg.c + at, 1 + u32::from(!s.seg.vertical)))
        };
        (0..self.rows).all(|r| idle(self.h_idx(h0, r), self.h_idx(h1, r)))
            && (0..self.rows.saturating_sub(1))
                .all(|r| idle(self.v_idx(col, r), self.v_idx(col + width, r)))
            && self.booked.iter().all(booked_outside)
    }

    /// Panic unless the usage of every segment is the number of times the
    /// `live` routes cross it and `saturated` counts the full ones: what
    /// every sequence of routes, releases and recommits must preserve.
    pub fn assert_usage_is<'a>(&self, live: impl IntoIterator<Item = &'a CircuitRoutes>) {
        assert!(
            self.booked.is_empty() || self.counted == 0,
            "footprints booked beside counted usage"
        );
        // One buffer: the usage, then what the live routes leave of it —
        // nothing, if they never find a segment unused and cross as many
        // as are in use.
        let mut usage = self.usage();
        let (mut full, mut tracks) = (0, 0);
        for &u in &usage {
            full += usize::from(u >= self.cap);
            tracks += usize::from(u);
        }
        assert_eq!(self.saturated, full, "saturated is not its recount");
        assert_eq!(
            self.counted + self.booked_tracks(),
            tracks,
            "the running total is not the sum of the usage"
        );
        let mut crossed = 0;
        for routes in live {
            for s in routes.segments() {
                let left = usage[s as usize].checked_sub(1);
                usage[s as usize] = left.expect("segment usage is not the sum of the live routes");
                crossed += 1;
            }
        }
        assert_eq!(
            crossed, tracks,
            "segment usage is not the sum of the live routes"
        );
    }

    fn seg_between(&self, a: (u32, u32), b: (u32, u32)) -> SegId {
        if a.1 == b.1 {
            SegId(self.h_idx(a.0.min(b.0), a.1) as u32)
        } else {
            SegId(self.v_idx(a.0, a.1.min(b.1)) as u32)
        }
    }

    /// The region-relative form of one of this fabric's own segments.
    fn rel_seg(&self, s: SegId) -> RelSeg {
        match s.0.checked_sub(self.h_len) {
            None => RelSeg {
                c: s.0 % (self.cols - 1),
                r: s.0 / (self.cols - 1),
                vertical: false,
            },
            Some(v) => RelSeg {
                c: v % self.cols,
                r: v / self.cols,
                vertical: true,
            },
        }
    }

    /// Take `n` tracks of `s`. Callers only take what the segment has
    /// spare, so the count cannot overflow.
    fn seg_take(&mut self, s: SegId, n: u16) {
        let slot = &mut self.used[s.0 as usize];
        let was = *slot;
        *slot = was + n;
        if was < self.cap && *slot >= self.cap {
            self.saturated += 1;
        }
    }

    /// Give `n` tracks of `s` back. A release without a matching route
    /// would wrap the count to "permanently full" and corrupt
    /// `saturated`, so it is fatal in every build.
    fn seg_give(&mut self, s: SegId, n: u16) {
        let slot = &mut self.used[s.0 as usize];
        let was = *slot;
        *slot = was
            .checked_sub(n)
            .expect("segment released more often than it was routed through");
        if was >= self.cap && *slot < self.cap {
            self.saturated -= 1;
        }
    }

    /// The segments with both ends in the bounding box of `a` and `b`, as
    /// strips of `used`.
    fn box_strips(
        &self,
        a: (u32, u32),
        b: (u32, u32),
    ) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        let (c0, c1) = (a.0.min(b.0), a.0.max(b.0));
        let (r0, r1) = (a.1.min(b.1), a.1.max(b.1));
        let h = (r0..=r1).map(move |r| self.h_idx(c0, r)..self.h_idx(c1, r));
        let v = (r0..r1).map(move |r| self.v_idx(c0, r)..self.v_idx(c1, r) + 1);
        h.chain(v)
    }

    /// Whether every segment with both ends in the bounding box of `a` and
    /// `b` has spare capacity.
    fn box_has_room(&self, a: (u32, u32), b: (u32, u32)) -> bool {
        self.saturated == 0
            || self
                .box_strips(a, b)
                .all(|strip| self.used[strip].iter().all(|&u| u < self.cap))
    }

    /// Append the path `RoutingFabric::bfs` finds from `from` to `to`
    /// when no segment is full: along `from`'s row to `to`'s column, then
    /// along that column to `to`. The search queues a node's left and right
    /// neighbours before its upper and lower ones, so on an open grid every
    /// node off the source's row is first reached from the node beside it
    /// towards that row, and every node on the row from along the row.
    fn walk_l(&self, from: (u32, u32), to: (u32, u32), path: &mut Vec<SegId>) {
        let (mut c, mut r) = from;
        while c != to.0 {
            let next = if c < to.0 { c + 1 } else { c - 1 };
            path.push(self.seg_between((c, r), (next, r)));
            c = next;
        }
        while r != to.1 {
            let next = if r < to.1 { r + 1 } else { r - 1 };
            path.push(self.seg_between((c, r), (c, next)));
            r = next;
        }
    }

    /// BFS a path from `from` to `to` through segments with spare capacity
    /// into `search.path`; false when there is none.
    fn bfs(&self, from: (u32, u32), to: (u32, u32), search: &mut Search) -> bool {
        let Search { prev, queue, path } = search;
        path.clear();
        if from == to {
            return true;
        }
        let idx = |c: u32, r: u32| (r * self.cols + c) as usize;
        prev.resize((self.cols * self.rows) as usize, u32::MAX);
        queue.push(from);
        prev[idx(from.0, from.1)] = idx(from.0, from.1) as u32;
        let mut head = 0;
        while let Some(&(c, r)) = queue.get(head) {
            head += 1;
            if (c, r) == to {
                // Reconstruct.
                let mut cur = (c, r);
                while cur != from {
                    let p = prev[idx(cur.0, cur.1)];
                    let pc = p % self.cols;
                    let pr = p / self.cols;
                    path.push(self.seg_between((pc, pr), cur));
                    cur = (pc, pr);
                }
                path.reverse();
                break;
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
                if self.used[seg.0 as usize] >= self.cap {
                    continue;
                }
                prev[idx(nc, nr)] = idx(c, r) as u32;
                queue.push((nc, nr));
            }
        }
        // Forget only what this search discovered.
        for (c, r) in queue.drain(..) {
            prev[idx(c, r)] = u32::MAX;
        }
        !path.is_empty()
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
    /// the caller keeps. Where no segment of the region is full and every
    /// segment of the template's footprint has the room it needs — then the
    /// walk below would translate every connection — the load is the
    /// footprint added in one pass. Otherwise each connection takes its
    /// template path when its bounding box has room and is searched for
    /// when not.
    pub fn route_template(
        &mut self,
        template: &RouteTemplate,
        origin: (u32, u32),
    ) -> Result<CircuitRoutes, RouteError> {
        let t = &*template.0;
        if origin.0 + t.width > self.cols || origin.1 + t.height > self.rows {
            return Err(RouteError::OutOfBounds);
        }
        let abs = |rel: (u32, u32)| (rel.0 + origin.0, rel.1 + origin.1);
        let (cols, h_len, cap) = (self.cols, self.h_len, u32::from(self.cap));
        let as_footprint = |stats: &mut RouteStats| {
            stats.templated_conns += t.conns.len() as u64;
            stats.footprint_loads += 1;
            CircuitRoutes {
                committed: Committed::Footprint {
                    template: template.clone(),
                    origin,
                    cols,
                    h_len,
                },
                wirelength: t.segs.len(),
            }
        };
        if self.book(template, origin) {
            return Ok(as_footprint(&mut self.stats));
        }
        self.count_booked();

        let fits = |s: &FootSeg| {
            let used = self.used[abs_seg(cols, h_len, s.seg, origin).0 as usize];
            u32::from(used) + u32::from(s.need) <= cap
        };
        let far = (t.width.saturating_sub(1), t.height.saturating_sub(1));
        if self.box_has_room(origin, abs(far)) && t.footprint.iter().all(fits) {
            for s in &t.footprint {
                self.seg_take(abs_seg(cols, h_len, s.seg, origin), s.mult);
            }
            self.counted += t.segs.len();
            return Ok(as_footprint(&mut self.stats));
        }

        let mut search = Search::default();
        let mut searched = false;
        let mut committed: Vec<SegId> = Vec::with_capacity(t.segs.len());
        for conn in &t.conns {
            let (from, to) = (abs(conn.from), abs(conn.to));
            if self.box_has_room(from, to) {
                for &rel in &t.segs[conn.path.clone()] {
                    let s = abs_seg(cols, h_len, rel, origin);
                    self.seg_take(s, 1);
                    committed.push(s);
                }
                self.stats.templated_conns += 1;
                continue;
            }
            self.stats.searched_conns += 1;
            searched = true;
            if !self.bfs(from, to, &mut search) {
                // Roll back everything committed for this circuit.
                for &s in &committed {
                    self.seg_give(s, 1);
                }
                self.stats.failed_circuits += 1;
                return Err(RouteError::Congested { from, to });
            }
            for &s in &search.path {
                self.seg_take(s, 1);
            }
            committed.extend_from_slice(&search.path);
        }
        self.counted += committed.len();
        Ok(CircuitRoutes {
            wirelength: committed.len(),
            committed: Committed::Walked {
                segs: committed,
                searched,
            },
        })
    }

    /// Release the segments of a previously routed circuit.
    pub fn release(&mut self, routes: &CircuitRoutes) {
        if routes.footprint().is_some_and(|(t, at)| self.unbook(t, at)) {
            return;
        }
        self.count_booked();
        self.each_track(routes, Self::seg_give);
        self.counted -= routes.wirelength;
    }

    /// Take back exactly the segments `routes` held: the inverse of
    /// [`release`](Self::release). It cannot fail when nothing was
    /// committed since that release — a failed attempt rolls back — which
    /// is how a move that found no room puts its circuit back.
    pub fn recommit(&mut self, routes: &CircuitRoutes) {
        if routes.footprint().is_some_and(|(t, at)| self.book(t, at)) {
            return;
        }
        self.count_booked();
        self.each_track(routes, Self::seg_take);
        self.counted += routes.wirelength;
    }

    /// `f(self, segment, tracks)` over what `routes` holds.
    fn each_track(&mut self, routes: &CircuitRoutes, f: impl Fn(&mut Self, SegId, u16)) {
        match &routes.committed {
            Committed::Footprint {
                template, origin, ..
            } => {
                for s in &template.0.footprint {
                    f(self, abs_seg(self.cols, self.h_len, s.seg, *origin), s.mult);
                }
            }
            Committed::Walked { segs, .. } => segs.iter().for_each(|&s| f(self, s, 1)),
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

    fn placed(net: &netlist::Netlist, w: u32, h: u32) -> PlacedCircuit {
        let pc = pack(&map_to_luts(net, MapOptions::default()));
        place(&pc, w, h, &mut SimRng::new(1)).unwrap()
    }

    fn placed_mult(w: u32, h: u32) -> PlacedCircuit {
        placed(&netlist::library::arith::array_multiplier("m5", 5), w, h)
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
        let before = f.used.clone();
        if f.route_circuit(&p, (0, 0)).is_err() {
            assert_eq!(f.used, before);
        }
    }

    #[test]
    fn saturated_count_tracks_full_segments() {
        // Stack copies on one origin until the channels fill and a load
        // fails: takes, a rolled-back failure and gives must all keep the
        // count exact.
        let p = placed_mult(10, 10);
        let mut f = RoutingFabric::new(14, 14, DEFAULT_CHANNEL_CAPACITY);
        let mut live = Vec::new();
        while let Ok(r) = f.route_circuit(&p, (2, 2)) {
            live.push(r);
            f.assert_usage_is(&live);
        }
        assert!(!live.is_empty() && f.saturated > 0);
        // After the rolled-back load, then release by release.
        while !live.is_empty() {
            f.assert_usage_is(&live);
            f.release(&live.pop().unwrap());
        }
        assert_eq!(f.saturated, 0);
        assert_eq!(RoutingFabric::new(3, 3, 0).saturated, 12);
    }

    #[test]
    fn footprint_need_is_the_tightest_box_check_of_the_walk() {
        let (mut exact, mut strict) = (0, 0);
        for p in [placed_mult(10, 10), placed_mult(12, 8)] {
            let t = RouteTemplate::new(&p);
            let f = RoutingFabric::new(p.width, p.height, 1);
            // Forward, as the walk meets it: a connection wants one track
            // free beyond those already taken, of every segment in its box.
            let mut taken = vec![0u16; f.used.len()];
            let mut need = vec![0u16; f.used.len()];
            for conn in &t.0.conns {
                for s in f.box_strips(conn.from, conn.to).flatten() {
                    need[s] = need[s].max(taken[s] + 1);
                }
                for &rel in &t.0.segs[conn.path.clone()] {
                    taken[abs_seg(p.width, f.h_len, rel, (0, 0)).0 as usize] += 1;
                }
            }
            let walked: Vec<_> = (0..taken.len())
                .filter(|&s| taken[s] > 0)
                .map(|s| (s, taken[s], need[s]))
                .collect();
            let at = |s: &FootSeg| abs_seg(p.width, f.h_len, s.seg, (0, 0)).0 as usize;
            let footprint: Vec<_> = (t.0.footprint.iter())
                .map(|s| (at(s), s.mult, s.need))
                .collect();
            assert_eq!(footprint, walked);
            exact += walked.iter().filter(|(_, m, n)| n == m).count();
            strict += walked.iter().filter(|(_, m, n)| n > m).count();
        }
        assert!(exact > 0 && strict > 0, "{exact} / {strict}");
    }

    #[test]
    fn recommit_undoes_a_release_after_a_failed_attempt() {
        // The garbage collector's failed move — release, try elsewhere,
        // put back — for a footprint load and for a searched one whose
        // detours left segments full all around both.
        let net = netlist::library::logic::comparator("cmp4", 4);
        let t = RouteTemplate::new(&placed(&net, 4, 4));
        let mut f = RoutingFabric::new(10, 8, 2);
        let a = f.route_template(&t, (0, 0)).unwrap();
        let b = f.route_template(&t, (2, 1)).unwrap();
        assert_eq!(f.stats.footprint_loads, 1);
        assert!(!a.searched() && b.searched() && f.saturated > 0);
        for (routes, no_room_at) in [(&a, (1, 0)), (&b, (1, 1))] {
            let before = (f.used.clone(), f.saturated);
            f.release(routes);
            f.route_template(&t, no_room_at).unwrap_err();
            f.recommit(routes);
            assert_eq!((f.used.clone(), f.saturated), before);
            f.assert_usage_is([&a, &b]);
        }
    }

    #[test]
    fn recommit_puts_a_booking_back() {
        // The same failed move while the fabric only holds bookings: an
        // attempt refused before it touches anything leaves them booked,
        // one that has to look at counts leaves everything counted.
        let net = netlist::library::logic::comparator("cmp4", 4);
        let t = RouteTemplate::new(&placed(&net, 4, 4));
        let mut f = RoutingFabric::new(10, 8, 2);
        let a = f.route_template(&t, (0, 0)).unwrap();
        let b = f.route_template(&t, (5, 2)).unwrap();
        assert_eq!((f.booked.len(), f.handled.booked), (2, 2));
        assert!(
            f.saturated > 0,
            "the comparator fills segments at capacity 2"
        );
        let before = (f.usage(), f.saturated);

        f.release(&b);
        let refused = f.route_template(&t, (7, 2)).unwrap_err();
        assert_eq!(refused, RouteError::OutOfBounds);
        f.recommit(&b);
        assert_eq!((f.booked.len(), f.handled.booked), (2, 4));
        assert_eq!((f.usage(), f.saturated), before);

        f.release(&b);
        f.route_template(&t, (1, 1)).unwrap_err();
        assert_eq!((f.booked.len(), f.handled.converted), (0, 1));
        f.recommit(&b);
        assert_eq!((f.handled.booked, f.handled.counted), (5, 1));
        assert_eq!((f.used.clone(), f.saturated), before);
        f.assert_usage_is([&a, &b]);

        // Back to bookings once the counts are gone.
        f.release(&a);
        f.release(&b);
        assert_eq!((f.counted, f.saturated), (0, 0));
        f.recommit(&b);
        assert_eq!((f.booked.len(), f.counted), (1, 0));
        f.assert_usage_is([&b]);
    }

    const UNROUTED: &str = "released more often than it was routed through";

    /// `f.release(routes)` must die of [`UNROUTED`].
    fn assert_release_is_fatal(f: &mut RoutingFabric, routes: &CircuitRoutes) {
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f.release(routes)));
        let msg = died.expect_err("the release went through");
        let msg = msg.downcast_ref::<String>().expect("a formatted message");
        assert!(msg.contains(UNROUTED), "{msg}");
    }

    #[test]
    fn release_without_a_route_is_fatal_in_both_representations() {
        let t = RouteTemplate::new(&placed_mult(10, 10));
        let fabric = || RoutingFabric::new(32, 12, DEFAULT_CHANNEL_CAPACITY);

        // Booked: a second release finds no booking and no counts either.
        let mut f = fabric();
        let a = f.route_template(&t, (0, 0)).unwrap();
        let b = f.route_template(&t, (12, 0)).unwrap();
        f.release(&b);
        assert_eq!((f.booked.len(), f.counted), (1, 0));
        assert_release_is_fatal(&mut f, &b);

        // So does the release of a route another fabric holds.
        let mut other = fabric();
        other.route_template(&t, (20, 2)).unwrap();
        assert_eq!(other.booked.len(), 1);
        assert_release_is_fatal(&mut other, &a);

        // Counted: the second load overlaps the first.
        let mut f = fabric();
        let _a = f.route_template(&t, (0, 0)).unwrap();
        let b = f.route_template(&t, (1, 1)).unwrap();
        assert!(f.booked.is_empty() && f.counted > 0);
        f.release(&b);
        assert_release_is_fatal(&mut f, &b);
    }

    #[test]
    fn bfs_detours_around_full_channels() {
        let mut f = RoutingFabric::new(4, 4, 1);
        // Saturate the straight-line path between (0,0) and (3,0).
        for c in 0..3 {
            let s = f.seg_between((c, 0), (c + 1, 0));
            f.seg_take(s, 1);
        }
        let mut search = Search::default();
        assert!(f.bfs((0, 0), (3, 0), &mut search), "detour must exist");
        let len = search.path.len();
        assert!(len > 3, "must detour, got len {len}");
    }

    #[test]
    fn utilization_is_zero_on_fresh_fabric() {
        let f = RoutingFabric::new(10, 10, 8);
        assert_eq!(f.utilization(), 0.0);
    }
}
