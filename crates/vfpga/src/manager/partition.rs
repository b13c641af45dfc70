//! FPGA partitioning (§4).
//!
//! The CLB array is divided into disjoint full-height *column* partitions
//! (configuration frames span full columns, so column partitions are the
//! cheap-to-reconfigure shape). Each partition independently holds one
//! circuit; circuits stay resident after use, so repeat activations are
//! free — "partitioning is an effective technique to reduce the number of
//! loading … operations and increase the overall time available for
//! computation".
//!
//! * **Fixed** partitions are created once from a size list ("taking the
//!   corresponding sizes from system configuration file") and never change;
//!   a circuit narrower than its partition wastes the difference (internal
//!   fragmentation).
//! * **Variable** partitions split free space to exactly the requested
//!   width ("one of the unused partitions having size large enough is
//!   selected and split in two parts") and a garbage collector merges idle
//!   fragments, relocating resident circuits when routing at the new
//!   origin succeeds ("a garbage-collecting procedure must be introduced
//!   to merge - when necessary - the idle existing partitions").
//!
//! The partitions are column sets, one `u64` word each: where they start,
//! which columns are free and which retired. Every other partition holds
//! one resident circuit, which the port's column map names at the
//! partition's first column, and each resident's record is kept by circuit
//! id. A hit, a residency check, an op's end and a preemption look nothing
//! up; a miss's first fit, its eviction victim, a split, a merge and the GC
//! pass are a few bit operations per partition.

use super::delta::{DeltaImage, DeltaStats};
use super::{
    columns, Activation, DeltaPort, DeviceUsage, FpgaManager, ManagerStats, PreemptCost,
    ResidentRegion, RetireOutcome, Write,
};
use crate::circuit::{CircuitId, CircuitLib};
use crate::error::VfpgaError;
use crate::manager::PreemptAction;
use crate::task::TaskId;
use fpga::ConfigTiming;
use fsim::json::{Fields, Wire};
use fsim::json::{Json, Obj};
use fsim::{SimDuration, TraceEvent};
use pnr::route::CircuitRoutes;
use pnr::RoutingFabric;
use std::collections::VecDeque;
use std::sync::Arc;

/// Partitioning discipline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PartitionMode {
    /// Fixed column widths, created at boot.
    Fixed(Vec<u32>),
    /// One free partition at boot; split/merge on demand.
    Variable,
}

/// A resident circuit's record.
#[derive(Debug)]
struct Resident {
    /// The task currently executing on it (None = idle resident).
    owner: Option<TaskId>,
    /// Monotone last-use stamp for LRU eviction.
    last_use: u64,
    /// Saved FF state pending a restore for `(task)`.
    saved_for: Option<TaskId>,
    routes: CircuitRoutes,
}

/// Column-partitioned FPGA manager.
#[derive(Debug)]
pub struct PartitionManager {
    lib: Arc<CircuitLib>,
    mode: PartitionMode,
    policy: PreemptAction,
    /// The partitions as column sets (bit `c`: column `c`): the first
    /// column of each — a partition runs up to the next, the last one to
    /// the device's edge — and every column of the free ones and of the
    /// retired ones (fabric lost to a column failure, never allocated
    /// again). Fixed mode never moves a bound.
    bounds: u64,
    free: u64,
    retired: u64,
    /// The first columns of the idle residents' partitions.
    idle: u64,
    /// Each resident circuit's record, by circuit id.
    residents: Vec<Option<Resident>>,
    routing: RoutingFabric,
    waiters: VecDeque<(TaskId, CircuitId)>,
    clock: u64,
    port: DeltaPort,
    /// Enable the garbage collector (ablation knob for E6).
    pub gc_enabled: bool,
    /// [`Self::max_servable_width`], which changes only when a column
    /// retires or an image is restored.
    servable: u32,
}

/// The columns in `set`, in column order.
fn each(mut set: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        let col = set.trailing_zeros();
        set &= set.wrapping_sub(1);
        (col < u64::BITS).then_some(col)
    })
}

impl PartitionManager {
    /// Create the manager; fixed widths must tile the device exactly.
    pub fn new(
        lib: Arc<CircuitLib>,
        timing: ConfigTiming,
        mode: PartitionMode,
        policy: PreemptAction,
    ) -> Result<Self, VfpgaError> {
        let cols = timing.spec.cols;
        // A call's moved columns are one `u64`; the widest part has 56.
        assert!(cols <= u64::BITS, "{cols} columns do not fit a column set");
        let mut bounds = 1;
        if let PartitionMode::Fixed(widths) = &mode {
            let sum = widths.iter().sum::<u32>();
            if sum != cols {
                return Err(VfpgaError::BadPartitionWidths { sum, device: cols });
            }
            if widths.contains(&0) {
                return Err(VfpgaError::ZeroWidthPartition);
            }
            let mut col = 0;
            for w in widths {
                (bounds, col) = (bounds | 1 << col, col + w);
            }
        }
        let mut m = PartitionManager {
            residents: (0..lib.len()).map(|_| None).collect(),
            lib,
            mode,
            policy,
            bounds,
            free: columns(0, cols),
            retired: 0,
            idle: 0,
            routing: RoutingFabric::for_device(&timing.spec),
            waiters: VecDeque::new(),
            clock: 0,
            port: DeltaPort::new(timing),
            gc_enabled: true,
            servable: 0,
        };
        m.servable = m.max_servable_width();
        Ok(m)
    }

    /// Enable delta reconfiguration: the next load anchored on an evicted
    /// circuit's image (a *ghost* the port's column map keeps) is priced as
    /// the frame diff instead of a full partial download.
    pub fn enable_delta(&mut self) {
        self.port.enable_delta();
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn variable(&self) -> bool {
        matches!(self.mode, PartitionMode::Variable)
    }

    /// The first column past the partition that starts at `col`.
    fn end(&self, col: u32) -> u32 {
        let later = u128::from(self.bounds & !columns(0, col + 1));
        (later | 1 << self.port.timing.spec.cols).trailing_zeros()
    }

    /// The first columns of the partitions that hold a resident.
    fn resident_starts(&self) -> u64 {
        self.bounds & !(self.free | self.retired)
    }

    /// The widest of the partitions that lie in `set`, whole.
    fn widest(&self, set: u64) -> u32 {
        let widths = each(set & self.bounds).map(|c| self.end(c) - c);
        widths.max().unwrap_or(0)
    }

    /// The partition starting at `col` as a checkpoint image holds it.
    fn slot(&self, col: u32) -> Slot {
        if self.free & 1 << col != 0 {
            return Slot::Free;
        }
        if self.retired & 1 << col != 0 {
            return Slot::Retired;
        }
        let cid = self.port.circuit_at(col);
        let r = self.residents[cid.0 as usize]
            .as_ref()
            .expect("a resident's partition holds a recorded circuit");
        Slot::Resident {
            cid,
            owner: r.owner,
            last_use: r.last_use,
            saved_for: r.saved_for,
        }
    }

    /// CLBs currently occupied by resident circuits.
    pub fn resident_clbs(&self) -> u32 {
        let rows = self.port.timing.spec.rows;
        let shapes =
            each(self.resident_starts()).map(|c| self.lib.get(self.port.circuit_at(c)).shape());
        shapes.map(|(w, h)| w * h.min(rows)).sum()
    }

    /// The widest circuit this manager could still place under ideal
    /// conditions (everything idle, GC done). Requests beyond this are
    /// unservable forever.
    fn max_servable_width(&self) -> u32 {
        let live = columns(0, self.port.timing.spec.cols) & !self.retired;
        match self.mode {
            // Fixed boundaries never move: the widest live partition.
            PartitionMode::Fixed(_) => self.widest(live),
            // Variable mode can compact everything movable, so the limit
            // is the widest contiguous run of non-retired columns.
            PartitionMode::Variable => {
                let runs = each(live & !(live << 1)).map(|c| (live >> c).trailing_ones());
                runs.max().unwrap_or(0)
            }
        }
    }

    /// External fragmentation: the widest circuit width that can NOT be
    /// placed even though total free columns would suffice, expressed as
    /// `1 - largest_free_run / total_free` (0 when free space is one run).
    pub fn fragmentation(&self) -> f64 {
        let total = self.free.count_ones();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.widest(self.free) as f64 / total as f64
    }

    /// How loads, GC moves and relocations were routed since the manager
    /// was built or last restored (diagnostic).
    pub fn route_stats(&self) -> pnr::RouteStats {
        self.routing.route_stats()
    }

    /// Number of partitions (diagnostic).
    pub fn partition_count(&self) -> usize {
        self.bounds.count_ones() as usize
    }

    /// Load `cid` into the free partition starting at `col` (assumed wide
    /// enough), splitting in variable mode. Returns the load — its overhead
    /// is its config time — or None if routing fails at that origin.
    fn load_into(&mut self, col: u32, cid: CircuitId, tid: TaskId) -> Option<Write> {
        let image = self.lib.get(cid);
        let routes = self
            .routing
            .route_template(image.route_template(), (col, 0))
            .ok()?;
        let (need_w, mut end) = (image.shape().0, self.end(col));
        // Split in variable mode when the partition is wider than needed.
        if self.variable() && end - col > need_w {
            end = col + need_w;
            self.bounds |= 1 << end;
            self.port.stats.splits += 1;
        }
        self.free &= !columns(col, end - col);
        let last_use = self.tick();
        let write = self.port.load(&self.lib, tid, cid, col, end - col);
        self.residents[cid.0 as usize] = Some(Resident {
            owner: Some(tid),
            last_use,
            saved_for: None,
            routes,
        });
        Some(write)
    }

    /// Resident `cid`'s record, taken out, its routes released.
    fn unload(&mut self, cid: CircuitId) -> Option<Resident> {
        let r = self.residents[cid.0 as usize].take()?;
        self.routing.release(&r.routes);
        Some(r)
    }

    /// Partition `[col, end)` holds nothing now: its columns are free and,
    /// in variable mode, merged with a free neighbour on either side.
    fn vacate(&mut self, col: u32, end: u32) {
        self.idle &= !(1 << col);
        self.free |= columns(col, end - col);
        self.merge(col, end);
    }

    /// Merge the free columns `[col, end)` with a free partition on either
    /// side (variable mode only). Between calls no two free partitions
    /// touch there, so these are the only merges freeing columns can need.
    fn merge(&mut self, col: u32, end: u32) {
        if !self.variable() {
            return;
        }
        for bound in [end, col] {
            let inside = 0 < bound && bound < self.port.timing.spec.cols;
            if inside && self.free >> (bound - 1) & 3 == 3 {
                self.bounds &= !(1 << bound);
                self.port.stats.merges += 1;
            }
        }
    }

    /// Evict idle resident `cid` from its partition starting at `col`,
    /// whatever its width, and merge the freed columns with free
    /// neighbours. Its frames stay on the fabric: the freed range is a
    /// delta base for the next occupant.
    fn evict(&mut self, col: u32, cid: CircuitId) {
        let end = self.end(col);
        self.unload(cid);
        self.port.obs.push(|| TraceEvent::Custom {
            tag: "evict",
            message: format!("evict idle circuit {} from cols [{col}, {end})", cid.0),
        });
        self.port.evict(cid);
        self.port.stats.evictions += 1;
        self.vacate(col, end);
    }

    /// Move idle resident `cid` out of its partition starting at `col` (to
    /// any free partition where it routes) or evict it; the partition's
    /// columns are the caller's to free. Returns the move, if it routed
    /// somewhere. Its cost is the caller's (background fault accounting):
    /// manager time counters are not touched, only the relocation/eviction
    /// event counters.
    fn relocate_off(&mut self, col: u32, cid: CircuitId) -> Option<Write> {
        let Resident {
            last_use,
            saved_for,
            ..
        } = self.unload(cid)?;
        self.idle &= !(1 << col);
        let image = self.lib.get(cid);
        let need_w = image.shape().0;
        // Candidate destinations: free partitions wide enough, tried in
        // column order. No split — the survivor may sit loosely until the
        // next GC tightens things up.
        for to in each(self.free & self.bounds) {
            let end = self.end(to);
            if end - to < need_w {
                continue;
            }
            let template = image.route_template();
            if let Ok(routes) = self.routing.route_template(template, (to, 0)) {
                let write = self.port.relocate(None, &self.lib, cid, to, need_w);
                self.free &= !columns(to, end - to);
                self.idle |= 1 << to;
                self.residents[cid.0 as usize] = Some(Resident {
                    owner: None,
                    last_use,
                    saved_for,
                    routes,
                });
                return Some(write);
            }
        }
        self.port.discard(cid, None);
        self.port.stats.evictions += 1;
        None
    }

    /// Retire column `col` of partition `[start, end)`, which holds nothing
    /// now: the whole partition in fixed mode (boundaries are immutable),
    /// the one column in variable mode, each free piece left over merged
    /// with its free neighbour.
    fn carve_retired(&mut self, start: u32, end: u32, col: u32) {
        let dead = match self.mode {
            PartitionMode::Fixed(_) => columns(start, end - start),
            PartitionMode::Variable => {
                self.bounds |= 1 << col;
                if col + 1 < end {
                    self.bounds |= 1 << (col + 1);
                }
                1 << col
            }
        };
        self.free = (self.free | columns(start, end - start)) & !dead;
        self.retired |= dead;
        self.merge(col + 1, end);
        self.merge(start, col);
    }

    /// Garbage collection: compact resident circuits leftward so free
    /// space coalesces at the right. Only idle residents move; a move
    /// charges a download at the new origin (plus state save/restore when
    /// the circuit is sequential) and is abandoned when routing fails
    /// there. Returns the total CPU overhead of the compaction and the
    /// columns it moved circuits onto. The requesting task `tid` is charged
    /// for relocation downloads.
    fn garbage_collect(&mut self, tid: TaskId) -> (SimDuration, u64) {
        self.port.stats.gc_runs += 1;
        // Compaction rewrites arbitrary column ranges; every ghost is
        // suspect afterwards. Conservative and correct: drop them all.
        self.port.collect();
        let before = self.port.stats;
        let (mut overhead, mut moved) = (SimDuration::ZERO, 0);

        // One pass in column order over the partitions that hold something:
        // an idle resident moves left to `cursor` (the end of whatever
        // precedes it) when it routes there, everything else stays, and the
        // gap each leaves behind it becomes one free partition.
        let cols = self.port.timing.spec.cols;
        let (mut cursor, mut bounds, mut free) = (0, 0, 0);
        for mut col in each(self.bounds & !self.free) {
            let width = self.end(col) - col;
            if col > cursor && self.idle & 1 << col != 0 {
                let cid = self.port.circuit_at(col);
                let template = self.lib.get(cid).route_template();
                let r = self.residents[cid.0 as usize]
                    .as_mut()
                    .expect("an idle partition holds a recorded circuit");
                self.routing.release(&r.routes);
                match self.routing.route_template(template, (cursor, 0)) {
                    Ok(routes) => {
                        let w = self.port.relocate(Some(tid), &self.lib, cid, cursor, width);
                        overhead += w.config_time;
                        moved |= columns(cursor, width);
                        r.routes = routes;
                        self.idle ^= 1 << col | 1 << cursor;
                        col = cursor;
                    }
                    Err(_) => {
                        // Keep the circuit where it was: the failed attempt
                        // rolled back, so exactly its old segments are free.
                        self.routing.recommit(&r.routes);
                        self.port.stats.failed_relocations += 1;
                    }
                }
            }
            // Packed already, or busy or retired and so pinned; packing
            // resumes after it.
            if col > cursor {
                self.port.stats.merges += 1;
                (bounds, free) = (bounds | 1 << cursor, free | columns(cursor, col - cursor));
            }
            (bounds, cursor) = (bounds | 1 << col, col + width);
        }
        if cursor < cols {
            (bounds, free) = (bounds | 1 << cursor, free | columns(cursor, cols - cursor));
        }
        (self.bounds, self.free) = (bounds, free);
        let after = self.port.stats;
        self.port.obs.push(|| TraceEvent::GcRun {
            merged: (after.merges - before.merges) as u32,
            relocations: (after.relocations - before.relocations) as u32,
            failures: (after.failed_relocations - before.failed_relocations) as u32,
            duration: overhead,
        });
        (overhead, moved)
    }

    /// Debug builds check the partition sets and what is derived from them
    /// after every operation that can change either: the bounds tile the
    /// device, each partition is wholly free, wholly retired or one
    /// resident's, no two free ones touch in variable mode, the servable
    /// width is what the sets give, the records and the idle set are
    /// exactly the residents', and the port's column map claims exactly
    /// the residents, each once from its partition's first column (the
    /// residency lookups read it). Then [`Self::check_routing`].
    fn check(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let device = columns(0, self.port.timing.spec.cols);
        let tiled = self.bounds & 1 == 1 && self.bounds & !device == 0;
        assert!(tiled, "the bounds do not tile the device");
        let (free, retired) = (self.free, self.retired);
        assert!(free & retired == 0, "a column both free and retired");
        assert!((free | retired) & !device == 0, "a column off the device");
        for col in each(self.bounds) {
            let part = columns(col, self.end(col) - col);
            let whole = |set: u64| set & part == 0 || set & part == part;
            assert!(
                whole(free) && whole(retired),
                "a partition at {col} is split"
            );
        }
        let touching = self.bounds & free & free << 1 != 0;
        assert!(!(self.variable() && touching), "two free partitions touch");
        assert!(self.servable == self.max_servable_width(), "stale width");
        let held = self.resident_starts();
        assert!(self.idle & !held == 0, "an idle bit off the residents");
        for col in each(held) {
            let r = self.residents[self.port.circuit_at(col).0 as usize].as_ref();
            let idle = self.idle & 1 << col != 0;
            let ok = r.is_some_and(|r| r.owner.is_none() == idle);
            assert!(
                ok,
                "the resident at {col} has no record or a stale idle bit"
            );
        }
        let records = self.residents.iter().flatten().count();
        assert!(
            records == held.count_ones() as usize,
            "a record no partition holds"
        );
        let claims = each(held).map(|col| (self.port.circuit_at(col), col));
        self.port.check_claims(&self.lib, claims);
        self.check_routing();
    }

    /// The routing fabric re-derived from the records: usage is exactly
    /// the residents' routes, and — while no searched route is live, the
    /// only kind that can leave its columns — free and retired columns
    /// carry nothing, which is what lets the fabric book a load into them
    /// as its footprint without looking at a segment.
    fn check_routing(&self) {
        let live = || self.residents.iter().flatten().map(|r| &r.routes);
        self.routing.assert_usage_is(live());
        if live().any(|r| r.searched()) {
            return;
        }
        for col in each(self.bounds & (self.free | self.retired)) {
            let width = self.end(col) - col;
            assert!(
                self.routing.columns_are_unused(col, width),
                "tracks in use over unoccupied columns [{col}, +{width})"
            );
        }
    }

    /// The first free partition at least `need_w` wide: its first column.
    fn first_fit(&self, need_w: u32) -> Option<u32> {
        each(self.free & self.bounds).find(|&col| self.end(col) - col >= need_w)
    }

    /// The least-recently-used idle resident, the first in column order on
    /// a tie: its partition's first column and its circuit.
    fn lru_idle(&self) -> Option<(u32, CircuitId)> {
        let idle = each(self.idle).map(|col| (col, self.port.circuit_at(col)));
        idle.min_by_key(|&(_, cid)| {
            let r = self.residents[cid.0 as usize].as_ref();
            r.map_or(0, |r| r.last_use)
        })
    }

    /// [`FpgaManager::activate`] proper.
    fn place(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        // 1. Already resident?
        let resident = self.residents.get_mut(cid.0 as usize);
        if let (Some(Some(r)), Some(col)) = (resident, self.port.origin_of(cid)) {
            self.clock += 1;
            if r.owner.is_some_and(|o| o != tid) {
                self.port.stats.blocks += 1;
                self.waiters.push_back((tid, cid));
                return Activation::Blocked { moved: 0 };
            }
            (r.owner, r.last_use) = (Some(tid), self.clock);
            let restore = r.saved_for == Some(tid);
            if restore {
                r.saved_for = None;
            }
            self.idle &= !(1 << col);
            self.port.stats.hits += 1;
            let mut overhead = SimDuration::ZERO;
            if restore {
                let width = self.end(col) - col;
                overhead += self.port.move_state(width as usize, false);
            }
            return Activation::ready(overhead, None);
        }

        // 2. Find a free partition wide enough (first-fit).
        self.port.stats.misses += 1;
        let need_w = self.lib.get(cid).shape().0;
        if need_w > self.servable {
            // Wider than anything this manager can ever assemble (fixed
            // boundaries or retired fabric): blocking would hang forever.
            return Activation::Unservable;
        }
        // The columns GC runs moved circuits onto.
        let mut moved = 0;
        loop {
            let fit = self.first_fit(need_w);
            if let Some(write) = fit.and_then(|col| self.load_into(col, cid, tid)) {
                return Activation::Ready {
                    overhead: write.config_time,
                    write: Some(write),
                    moved,
                };
            }
            // Routing failed at any fit (nothing was committed, the
            // partitions are as they were) — treat like fragmentation: fall
            // through to GC/eviction below rather than looping on the same
            // partition forever.
            // 3. Try GC (variable mode) to coalesce free columns when there
            // are enough of them but no partition is wide enough.
            if self.gc_enabled
                && self.variable()
                && fit.is_none()
                && self.free.count_ones() >= need_w
            {
                let (gc_overhead, columns) = self.garbage_collect(tid);
                moved |= columns;
                if let Some(write) = self
                    .first_fit(need_w)
                    .and_then(|col| self.load_into(col, cid, tid))
                {
                    return Activation::Ready {
                        overhead: write.config_time + gc_overhead,
                        write: Some(write),
                        moved,
                    };
                }
            }
            // 4. Evict the LRU idle resident and retry once per eviction.
            // Compaction keeps the residents' order, owners and last uses,
            // so the victim is the one a scan before it would have chosen.
            match self.lru_idle() {
                Some((col, victim)) => self.evict(col, victim),
                None => {
                    self.port.stats.blocks += 1;
                    self.waiters.push_back((tid, cid));
                    return Activation::Blocked { moved };
                }
            }
        }
    }
}

impl FpgaManager for PartitionManager {
    fn name(&self) -> &'static str {
        match self.mode {
            PartitionMode::Fixed(_) => "partition-fixed",
            PartitionMode::Variable => "partition-variable",
        }
    }

    fn activate(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        let outcome = self.place(tid, cid);
        self.check();
        outcome
    }

    fn preempt(&mut self, tid: TaskId, cid: CircuitId) -> PreemptCost {
        match self.policy {
            // `System::can_preempt` gates both of its calls on the system's
            // own action; a manager built with another one is a wiring bug.
            PreemptAction::WaitCompletion => {
                unreachable!("preempt under WaitCompletion: System was configured to preempt")
            }
            PreemptAction::Rollback => PreemptCost {
                overhead: SimDuration::ZERO,
                lose_progress: true,
            },
            PreemptAction::SaveRestore => {
                // The circuit stays in its partition; state survives in the
                // fabric. No readback is needed *unless* the partition gets
                // reassigned, which this manager never does while the op is
                // unfinished (owner stays set). So preemption is free.
                //
                // The circuit can be gone all the same: a failover or a
                // migration discards every residency claim of the fabric
                // it left behind, while the segment restored from the
                // image runs on. Preempting it is still free, and its
                // next activation pays the download like any other miss.
                if let Some(Some(r)) = self.residents.get(cid.0 as usize) {
                    debug_assert_eq!(r.owner, Some(tid));
                }
                PreemptCost {
                    overhead: SimDuration::ZERO,
                    lose_progress: false,
                }
            }
        }
    }

    fn op_done(&mut self, tid: TaskId, cid: CircuitId) -> (SimDuration, Vec<TaskId>) {
        let resident = self.residents.get_mut(cid.0 as usize);
        if let (Some(Some(r)), Some(col)) = (resident, self.port.origin_of(cid)) {
            self.clock += 1;
            if r.owner == Some(tid) {
                (r.owner, r.last_use) = (None, self.clock);
                self.idle |= 1 << col;
            }
        }
        let wake: Vec<TaskId> = self.waiters.drain(..).map(|(t, _)| t).collect();
        (SimDuration::ZERO, wake)
    }

    fn task_exit(&mut self, tid: TaskId) -> Vec<TaskId> {
        for col in each(self.resident_starts()) {
            let cid = self.port.circuit_at(col);
            if let Some(r) = &mut self.residents[cid.0 as usize] {
                if r.owner == Some(tid) {
                    r.owner = None;
                    self.idle |= 1 << col;
                }
                if r.saved_for == Some(tid) {
                    r.saved_for = None;
                }
            }
        }
        self.waiters.retain(|(t, _)| *t != tid);
        self.waiters.drain(..).map(|(t, _)| t).collect()
    }

    fn stats(&self) -> ManagerStats {
        self.port.stats
    }

    fn set_recording(&mut self, on: bool) {
        self.port.obs.set_recording(on);
    }

    fn drain_events(&mut self) -> Vec<TraceEvent> {
        self.port.obs.drain()
    }

    fn usage(&self) -> DeviceUsage {
        DeviceUsage {
            used_clbs: self.resident_clbs() as u64,
            total_clbs: self.port.timing.spec.clbs() as u64,
            free_fragments: (self.free & self.bounds).count_ones(),
        }
    }

    fn timing(&self) -> &ConfigTiming {
        &self.port.timing
    }

    fn is_resident(&self, cid: CircuitId) -> bool {
        matches!(self.residents.get(cid.0 as usize), Some(Some(_)))
    }

    fn resident_regions(&self) -> Vec<ResidentRegion> {
        let starts = each(self.resident_starts());
        starts
            .map(|col| ResidentRegion {
                cid: self.port.circuit_at(col),
                col0: col,
                width: self.end(col) - col,
            })
            .collect()
    }

    fn discard_resident(&mut self, cid: CircuitId) -> bool {
        let Some(col) = self.port.origin_of(cid) else {
            return false;
        };
        let end = self.end(col);
        self.unload(cid);
        self.port.discard(cid, None);
        self.vacate(col, end);
        self.check();
        true
    }

    fn retire_column(&mut self, col: u32) -> RetireOutcome {
        if col >= self.port.timing.spec.cols {
            return RetireOutcome::default();
        }
        let start = 63 - (self.bounds & columns(0, col + 1)).leading_zeros();
        let end = self.end(start);
        let mut out = RetireOutcome {
            applied: true,
            ..Default::default()
        };
        match self.slot(start) {
            // A second strike on dead fabric changes nothing.
            Slot::Retired => return out,
            Slot::Free => {}
            Slot::Resident { owner: Some(_), .. } => {
                // Mid-op on the dying column: the caller retries after the
                // op drains (we never yank fabric under a running task).
                return RetireOutcome {
                    busy: true,
                    ..Default::default()
                };
            }
            Slot::Resident {
                cid, owner: None, ..
            } => out.moved = self.relocate_off(start, cid),
        }
        // Retired fabric can never serve as a delta base.
        self.port.retire(start, end - start);
        self.carve_retired(start, end, col);
        self.servable = self.max_servable_width();
        self.check();
        out
    }

    fn invalidate_image_range(&mut self, col0: u32, width: u32) {
        // A resident is dirty when the range touches its partition, slack
        // included; only the ghosts dropped are counted.
        let extents = self.resident_regions().into_iter();
        let extents = extents.map(|r| (r.cid, r.col0, r.width));
        self.port.repair(col0, width, extents, false);
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        self.port.delta_stats()
    }

    fn implant_ghost(&mut self, col0: u32, width: u32, cid: CircuitId) -> bool {
        self.port.implant(col0, width, cid)
    }

    fn snapshot(&self) -> Option<Json> {
        let parts = each(self.bounds).map(|col| Part {
            col,
            width: self.end(col) - col,
            slot: self.slot(col),
        });
        let image = PartitionImage {
            parts: parts.collect(),
            waiters: self.waiters.clone(),
            clock: self.clock,
            gc_enabled: self.gc_enabled,
            stats: self.port.stats,
            delta: self.port.delta_image(),
        };
        Some(image.json())
    }

    fn restore(&mut self, snap: &Json) -> Result<(), String> {
        let img = PartitionImage::read(snap, "partition snapshot")?;
        let cols = self.port.timing.spec.cols;
        let mut routing = self.routing.empty_like();
        let (mut bounds, mut free, mut retired, mut idle) = (0u64, 0u64, 0u64, 0u64);
        let mut residents: Vec<Option<Resident>> = (0..self.lib.len()).map(|_| None).collect();
        let mut claims = Vec::new();
        // The partitions tile the device: each starts where the last ended.
        let mut next_col = 0;
        for Part { col, width, slot } in img.parts {
            if col != next_col || width == 0 || width > cols - col {
                return Err(format!(
                    "partition [{col}, +{width}) does not continue the tiling at column {next_col} of {cols}"
                ));
            }
            next_col = col + width;
            bounds |= 1 << col;
            match slot {
                // A freed partition is merged with its free neighbours, so
                // in variable mode two free partitions never touch.
                Slot::Free if self.variable() && col > 0 && free & 1 << (col - 1) != 0 => {
                    return Err(format!("free partition at column {col} follows another"));
                }
                Slot::Free => free |= columns(col, width),
                Slot::Retired => retired |= columns(col, width),
                Slot::Resident {
                    cid,
                    owner,
                    last_use,
                    saved_for,
                } => {
                    self.lib.check_id(cid)?;
                    let record = &mut residents[cid.0 as usize];
                    if record.is_some() {
                        return Err(format!("circuit {} is resident twice", cid.0));
                    }
                    // Re-route at the original origin; partitions are
                    // disjoint column ranges, so routing each resident in
                    // image order reproduces a valid fabric state.
                    let image = self.lib.get(cid);
                    if image.shape().0 > width {
                        return Err(format!("circuit {} is wider than {width} columns", cid.0));
                    }
                    let template = image.route_template();
                    let routes = routing
                        .route_template(template, (col, 0))
                        .map_err(|e| format!("re-routing circuit {} at col {col}: {e:?}", cid.0))?;
                    if owner.is_none() {
                        idle |= 1 << col;
                    }
                    *record = Some(Resident {
                        owner,
                        last_use,
                        saved_for,
                        routes,
                    });
                    claims.push((cid, col));
                }
            }
        }
        if next_col != cols {
            return Err(format!("partitions cover {next_col} of {cols} columns"));
        }
        for &(_, cid) in &img.waiters {
            self.lib.check_id(cid)?;
        }
        // Ghosts are never carried across a restore: the fabric was wiped
        // and re-downloaded, so every tracked base would be stale.
        self.port
            .restore_map(&self.lib, img.delta.as_ref(), claims)?;
        (self.bounds, self.free, self.retired, self.idle) = (bounds, free, retired, idle);
        (self.residents, self.routing, self.waiters) = (residents, routing, img.waiters);
        (self.clock, self.gc_enabled, self.port.stats) = (img.clock, img.gc_enabled, img.stats);
        self.servable = self.max_servable_width();
        self.check();
        Ok(())
    }
}

fsim::record! {
    /// Everything [`PartitionManager`] carries across a checkpoint: its
    /// partitions in column order. Routes are not part of it: they are
    /// derived state, rebuilt by re-routing each resident circuit at its
    /// origin on restore.
    #[derive(Debug)]
    pub(crate) struct PartitionImage {
        parts: Vec<Part>,
        waiters: VecDeque<(TaskId, CircuitId)>,
        clock: u64,
        gc_enabled: bool,
        stats: ManagerStats,
        /// Present exactly when delta downloads are on, so an image with
        /// them off is byte-identical to one from before they existed.
        #[skip_if(Option::is_none)]
        delta: Option<DeltaImage>,
    }
}

/// One partition as a checkpoint image holds it.
#[derive(Debug)]
struct Part {
    col: u32,
    width: u32,
    slot: Slot,
}

/// What a partition holds, as a checkpoint image has it: a resident
/// without its routes.
#[derive(Debug)]
enum Slot {
    Free,
    Retired,
    Resident {
        cid: CircuitId,
        owner: Option<TaskId>,
        last_use: u64,
        saved_for: Option<TaskId>,
    },
}

/// `{"col", "width", "kind"}`, and a resident's circuit, owner, last use
/// and saved state after a `"resident"` kind.
impl Wire for Part {
    fn json(&self) -> Json {
        let o = Obj::new().set("col", self.col).set("width", self.width);
        let o = match self.slot {
            Slot::Free => o.set("kind", "free"),
            Slot::Retired => o.set("kind", "retired"),
            Slot::Resident {
                cid,
                owner,
                last_use,
                saved_for,
            } => o
                .set("kind", "resident")
                .set("cid", cid.json())
                .set("owner", owner.json())
                .set("last_use", last_use)
                .set("saved_for", saved_for.json()),
        };
        o.build()
    }

    fn read(v: &Json, what: &str) -> Result<Part, String> {
        let mut f = Fields::of(v, what)?;
        let (col, width) = (f.get("col")?, f.get("width")?);
        let slot = match f.get::<String>("kind")?.as_str() {
            "free" => Slot::Free,
            "retired" => Slot::Retired,
            "resident" => Slot::Resident {
                cid: f.get("cid")?,
                owner: f.get("owner")?,
                last_use: f.get("last_use")?,
                saved_for: f.get("saved_for")?,
            },
            other => return Err(format!("unknown partition kind '{other}'")),
        };
        f.end()?;
        Ok(Part { col, width, slot })
    }
}

#[cfg(test)]
impl PartitionManager {
    /// The manager, fresh, on a routing fabric of `cap` tracks a channel.
    pub(super) fn with_capacity(mut self, cap: u16) -> Self {
        let spec = self.port.timing.spec;
        self.routing = RoutingFabric::new(spec.cols, spec.rows, cap);
        self
    }

    /// Each partition as `(col, width, resident, retired)`.
    pub(super) fn layout(&self) -> Vec<(u32, u32, Option<CircuitId>, bool)> {
        let parts = each(self.bounds).map(|col| (col, self.end(col) - col, self.slot(col)));
        parts
            .map(|(col, width, slot)| match slot {
                Slot::Resident { cid, .. } => (col, width, Some(cid), false),
                Slot::Free => (col, width, None, false),
                Slot::Retired => (col, width, None, true),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::ConfigPort;
    use pnr::{compile, CompileOptions};

    /// Circuits compiled to full device height so they fit column partitions.
    fn lib_for(
        spec: fpga::DeviceSpec,
        widths: &[(usize, &str)],
    ) -> (Arc<CircuitLib>, Vec<CircuitId>) {
        let mut lib = CircuitLib::new();
        let ids = widths
            .iter()
            .map(|&(w, name)| {
                let net = netlist::library::arith::array_multiplier(name, w);
                let opts = CompileOptions {
                    max_height: spec.rows,
                    full_height: true,
                    ..Default::default()
                };
                lib.register_compiled(compile(&net, opts).unwrap())
            })
            .collect();
        (Arc::new(lib), ids)
    }

    fn mgr(mode: PartitionMode) -> (PartitionManager, Vec<CircuitId>) {
        let spec = fpga::device::part("VF400");
        let (lib, ids) = lib_for(spec, &[(4, "a"), (4, "b"), (5, "c"), (6, "d")]);
        let m = PartitionManager::new(
            lib,
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            mode,
            PreemptAction::SaveRestore,
        )
        .unwrap();
        (m, ids)
    }

    #[test]
    fn variable_mode_splits_and_coexists() {
        let (mut m, ids) = mgr(PartitionMode::Variable);
        let o1 = m.activate(TaskId(0), ids[0]);
        let o2 = m.activate(TaskId(1), ids[1]);
        assert!(matches!(o1, Activation::Ready { .. }));
        assert!(matches!(o2, Activation::Ready { .. }));
        assert!(m.stats().splits >= 2);
        assert!(m.partition_count() >= 3, "two circuits + free tail");
    }

    #[test]
    fn resident_reactivation_is_free() {
        let (mut m, ids) = mgr(PartitionMode::Variable);
        m.activate(TaskId(0), ids[0]);
        m.op_done(TaskId(0), ids[0]);
        match m.activate(TaskId(1), ids[0]) {
            Activation::Ready { overhead, .. } => assert_eq!(overhead, SimDuration::ZERO),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.stats().downloads, 1);
    }

    #[test]
    fn busy_partition_blocks_second_task() {
        let (mut m, ids) = mgr(PartitionMode::Variable);
        m.activate(TaskId(0), ids[0]);
        assert_eq!(
            m.activate(TaskId(1), ids[0]),
            Activation::Blocked { moved: 0 }
        );
        let (_, wake) = m.op_done(TaskId(0), ids[0]);
        assert_eq!(wake, vec![TaskId(1)]);
    }

    #[test]
    fn eviction_makes_room() {
        let spec = fpga::device::part("VF100"); // 10 cols only
        let (lib, ids) = lib_for(spec, &[(4, "a"), (4, "b"), (4, "c")]);
        let mut m = PartitionManager::new(
            lib.clone(),
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            PartitionMode::Variable,
            PreemptAction::SaveRestore,
        )
        .unwrap();
        // Widths of the three circuits:
        let w: Vec<u32> = ids.iter().map(|&i| lib.get(i).shape().0).collect();
        assert!(w.iter().sum::<u32>() > 10, "must not all fit at once");
        m.activate(TaskId(0), ids[0]);
        m.op_done(TaskId(0), ids[0]);
        m.activate(TaskId(1), ids[1]);
        m.op_done(TaskId(1), ids[1]);
        // Third circuit forces eviction of the LRU idle (circuit a).
        match m.activate(TaskId(2), ids[2]) {
            Activation::Ready { .. } => {}
            other => panic!("{other:?}"),
        }
        assert!(m.stats().evictions >= 1);
    }

    #[test]
    fn fixed_mode_respects_boundaries() {
        let spec = fpga::device::part("VF400"); // 20 cols
        let (lib, ids) = lib_for(spec, &[(4, "a"), (6, "d")]);
        let mut m = PartitionManager::new(
            lib.clone(),
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            PartitionMode::Fixed(vec![10, 10]),
            PreemptAction::SaveRestore,
        )
        .unwrap();
        assert_eq!(m.partition_count(), 2);
        m.activate(TaskId(0), ids[0]);
        m.activate(TaskId(1), ids[1]);
        // No splits in fixed mode.
        assert_eq!(m.stats().splits, 0);
        assert_eq!(m.partition_count(), 2);
    }

    #[test]
    fn fixed_widths_must_tile() {
        let spec = fpga::device::part("VF400");
        let (lib, _) = lib_for(spec, &[(4, "a")]);
        let timing = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        let err = PartitionManager::new(
            lib.clone(),
            timing,
            PartitionMode::Fixed(vec![5, 5]),
            PreemptAction::SaveRestore,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                VfpgaError::BadPartitionWidths {
                    sum: 10,
                    device: 20
                }
            ),
            "{err}"
        );
        let err = PartitionManager::new(
            lib,
            timing,
            PartitionMode::Fixed(vec![0, 20]),
            PreemptAction::SaveRestore,
        )
        .unwrap_err();
        assert!(matches!(err, VfpgaError::ZeroWidthPartition), "{err}");
    }

    #[test]
    fn gc_coalesces_fragmented_free_space() {
        let spec = fpga::device::part("VF400"); // 20 cols
                                                // Circuits: a(w≈5) b(w≈5) c(w≈5) then wide d needing ~9.
        let (lib, ids) = lib_for(spec, &[(5, "a"), (5, "b"), (5, "c"), (8, "d")]);
        let widths: Vec<u32> = ids.iter().map(|&i| lib.get(i).shape().0).collect();
        let mut m = PartitionManager::new(
            lib,
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            PartitionMode::Variable,
            PreemptAction::SaveRestore,
        )
        .unwrap();
        // Load a, b, c side by side; then release a and c (idle residents),
        // evict a and c... Instead: directly create fragmentation by
        // loading a,b,c then evicting a and c via direct slot clears.
        m.activate(TaskId(0), ids[0]);
        m.op_done(TaskId(0), ids[0]);
        m.activate(TaskId(1), ids[1]);
        // b stays BUSY (op not done) so GC must work around it... except a
        // busy partition blocks compaction to its left. Release b too for
        // the clean-path test.
        m.op_done(TaskId(1), ids[1]);
        m.activate(TaskId(2), ids[2]);
        m.op_done(TaskId(2), ids[2]);
        // Evict a and c to fragment: free [0,wa) and [wa+wb, wa+wb+wc).
        // Do it through the public path: loading d (too wide for any hole)
        // triggers eviction+GC automatically.
        let used: u32 = widths[..3].iter().sum();
        assert!(
            used <= spec.cols,
            "a,b,c must fit side by side, widths {widths:?}"
        );
        let free_before = spec.cols - used;
        assert!(
            free_before < widths[3],
            "d must not fit without coalescing, widths {widths:?}"
        );
        match m.activate(TaskId(3), ids[3]) {
            Activation::Ready { .. } => {}
            other => panic!("d should load after eviction/GC: {other:?}"),
        }
        assert!(
            m.stats().evictions >= 1 || m.stats().gc_runs >= 1,
            "making room must have evicted or compacted"
        );
    }

    /// A checkpoint image of `parts` (`(col, width, slot)`) with no waiters
    /// and delta off.
    fn image_of(parts: Vec<(u32, u32, Slot)>) -> Json {
        PartitionImage {
            parts: parts
                .into_iter()
                .map(|(col, width, slot)| Part { col, width, slot })
                .collect(),
            waiters: VecDeque::new(),
            clock: 9,
            gc_enabled: true,
            stats: ManagerStats::default(),
            delta: None,
        }
        .json()
    }

    /// An idle resident `cid`, last used at `last_use`.
    fn idle(cid: CircuitId, last_use: u64) -> Slot {
        Slot::Resident {
            cid,
            owner: None,
            last_use,
            saved_for: None,
        }
    }

    /// A variable-mode image with two touching free partitions, or with a
    /// circuit resident twice, is damaged: a freed partition is always
    /// merged with its free neighbours and a circuit sits in one place, and
    /// the manager's lookups rely on both.
    #[test]
    fn restore_refuses_touching_free_partitions_and_a_circuit_twice() {
        let (mut m, ids) = mgr(PartitionMode::Variable);
        let two_free = image_of(vec![(0, 10, Slot::Free), (10, 10, Slot::Free)]);
        let err = m.restore(&two_free).unwrap_err();
        assert!(err.contains("follows another"), "{err}");
        // Fixed boundaries never merge: there the same tiling is sound.
        let (mut f, _) = mgr(PartitionMode::Fixed(vec![10, 10]));
        f.restore(&two_free).unwrap();
        let twice = image_of(vec![(0, 10, idle(ids[0], 1)), (10, 10, idle(ids[0], 2))]);
        let err = f.restore(&twice).unwrap_err();
        assert!(err.contains("resident twice"), "{err}");
        // The refused images left the managers as they were.
        assert_eq!(m.partition_count(), 1);
        assert_eq!(f.partition_count(), 2);
        assert!(!f.is_resident(ids[0]));
    }

    /// Two idle residents used last at the same instant: the first in
    /// column order goes. No run makes such a tie (every use takes a fresh
    /// stamp), so only a restored image can put the rule to the test.
    #[test]
    fn an_lru_tie_evicts_the_first_partition() {
        let (mut m, ids) = mgr(PartitionMode::Fixed(vec![10, 10]));
        let tied = image_of(vec![(0, 10, idle(ids[0], 4)), (10, 10, idle(ids[1], 4))]);
        m.restore(&tied).unwrap();
        assert!(matches!(
            m.activate(TaskId(0), ids[2]),
            Activation::Ready { .. }
        ));
        let cids: Vec<_> = m
            .resident_regions()
            .iter()
            .map(|r| (r.col0, r.cid))
            .collect();
        assert_eq!(cids, [(0, ids[2]), (10, ids[1])]);
    }

    #[test]
    fn preemption_in_partition_is_free_and_keeps_progress() {
        let (mut m, ids) = mgr(PartitionMode::Variable);
        m.activate(TaskId(0), ids[2]);
        let pc = m.preempt(TaskId(0), ids[2]);
        assert_eq!(pc.overhead, SimDuration::ZERO);
        assert!(!pc.lose_progress, "state stays in the partition fabric");
    }

    #[test]
    fn fragmentation_metric() {
        let (mut m, ids) = mgr(PartitionMode::Variable);
        assert_eq!(m.fragmentation(), 0.0, "one free run at boot");
        m.activate(TaskId(0), ids[0]);
        assert_eq!(m.fragmentation(), 0.0, "free space still contiguous");
    }

    #[test]
    fn discard_resident_frees_the_partition() {
        let (mut m, ids) = mgr(PartitionMode::Variable);
        m.activate(TaskId(0), ids[0]);
        m.op_done(TaskId(0), ids[0]);
        assert!(m.is_resident(ids[0]));
        assert!(m.discard_resident(ids[0]));
        assert!(!m.is_resident(ids[0]));
        assert!(!m.discard_resident(ids[0]), "second discard finds nothing");
        // The circuit can be reloaded (a fresh download) afterwards.
        match m.activate(TaskId(1), ids[0]) {
            Activation::Ready { overhead, .. } => assert!(overhead > SimDuration::ZERO),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resident_regions_report_placement() {
        let (mut m, ids) = mgr(PartitionMode::Variable);
        assert!(m.resident_regions().is_empty());
        m.activate(TaskId(0), ids[0]);
        m.op_done(TaskId(0), ids[0]);
        let regions = m.resident_regions();
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].cid, ids[0]);
        assert!(regions[0].covers(regions[0].col0));
        assert!(!regions[0].covers(regions[0].col0 + regions[0].width));
    }

    #[test]
    fn retire_column_on_free_fabric_carves_it_out() {
        let (mut m, _) = mgr(PartitionMode::Variable);
        let before = m.max_servable_width();
        let out = m.retire_column(7);
        assert!(out.applied);
        assert!(!out.busy);
        assert_eq!(out.moved, None);
        assert!(m.max_servable_width() < before, "capacity shrank");
        // Striking the same column again is a no-op.
        let again = m.retire_column(7);
        assert!(again.applied);
        assert_eq!(again.moved, None);
    }

    #[test]
    fn retire_column_relocates_idle_resident() {
        let (mut m, ids) = mgr(PartitionMode::Variable);
        m.activate(TaskId(0), ids[0]);
        m.op_done(TaskId(0), ids[0]);
        let region = m.resident_regions()[0];
        let out = m.retire_column(region.col0);
        assert!(out.applied);
        let now = m.resident_regions();
        let moved = usize::from(out.moved.is_some());
        assert_eq!(
            now.len(),
            moved,
            "the resident moved or was dropped: {out:?}"
        );
        if let Some(moved) = out.moved {
            assert!(!now[0].covers(region.col0), "moved off the dead column");
            assert_eq!(
                (moved.cid, moved.col0),
                (ids[0], now[0].col0),
                "the move names it"
            );
        }
    }

    #[test]
    fn retire_column_under_running_task_reports_busy() {
        let (mut m, ids) = mgr(PartitionMode::Variable);
        m.activate(TaskId(0), ids[0]);
        // No op_done: the task is mid-op on the partition.
        let region = m.resident_regions()[0];
        let out = m.retire_column(region.col0);
        assert!(out.busy);
        assert!(!out.applied);
        // After the op drains the retry lands.
        m.op_done(TaskId(0), ids[0]);
        let out = m.retire_column(region.col0);
        assert!(out.applied);
    }

    /// Register a compiled base circuit, two close variants (same shape,
    /// ~25% of columns mutated), and a narrower unrelated circuit:
    /// `ids = [base, var1, var2, narrow]`. Returns `(lib, ids, w, wn)`.
    fn delta_family(spec: fpga::DeviceSpec) -> (Arc<CircuitLib>, Vec<CircuitId>, u32, u32) {
        let opts = CompileOptions {
            max_height: spec.rows,
            full_height: true,
            ..Default::default()
        };
        let base = compile(&netlist::library::arith::array_multiplier("dbase", 5), opts).unwrap();
        let var1 = pnr::mutate_tables(&base, 0.25, 11);
        let var2 = pnr::mutate_tables(&base, 0.25, 12);
        let narrow = compile(&netlist::library::arith::array_multiplier("dnar", 2), opts).unwrap();
        let (w, wn) = (base.placed.width, narrow.placed.width);
        assert!(wn < w, "narrow circuit must be narrower than the family");
        let mut lib = CircuitLib::new();
        let ids = vec![
            lib.register_compiled(base),
            lib.register_compiled(var1),
            lib.register_compiled(var2),
            lib.register_compiled(narrow),
        ];
        (Arc::new(lib), ids, w, wn)
    }

    /// Fixed layout `[w, w, 1, 1, ...]`: two usable partitions for the
    /// family, the rest unusable slivers, so a third load must evict.
    fn delta_mgr(spec: fpga::DeviceSpec, w: u32, lib: Arc<CircuitLib>) -> PartitionManager {
        let mut widths = vec![w, w];
        widths.extend(std::iter::repeat_n(1, (spec.cols - 2 * w) as usize));
        let mut m = PartitionManager::new(
            lib,
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            PartitionMode::Fixed(widths),
            PreemptAction::SaveRestore,
        )
        .unwrap();
        m.enable_delta();
        m
    }

    #[test]
    fn reload_over_a_ghost_is_priced_as_the_delta() {
        let spec = fpga::device::part("VF400");
        let (lib, ids, w, _) = delta_family(spec);
        assert!(2 * w <= spec.cols, "pair must leave a filler partition");
        // One usable partition: [w, rest-of-device-in-1s] so the variant
        // always reloads over the base's ghost.
        let mut widths = vec![w];
        widths.extend(std::iter::repeat_n(1, (spec.cols - w) as usize));
        let mut m = PartitionManager::new(
            lib,
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            PartitionMode::Fixed(widths),
            PreemptAction::SaveRestore,
        )
        .unwrap();
        m.enable_delta();
        let full = match m.activate(TaskId(0), ids[0]) {
            Activation::Ready { overhead, .. } => overhead,
            other => panic!("{other:?}"),
        };
        m.op_done(TaskId(0), ids[0]);
        // Variant displaces the base: evict -> ghost -> delta reload.
        let delta = match m.activate(TaskId(1), ids[1]) {
            Activation::Ready { overhead, .. } => overhead,
            other => panic!("{other:?}"),
        };
        assert!(
            delta < full,
            "delta reload ({delta:?}) must beat the full download ({full:?})"
        );
        let ds = m.delta_stats().expect("delta enabled");
        assert_eq!(ds.delta_downloads, 1);
        assert_eq!(ds.full_downloads, 1, "the first load had no base");
        assert!(ds.frames_saved > 0);
        // And back again: the base's ghost now serves the other direction.
        m.op_done(TaskId(1), ids[1]);
        match m.activate(TaskId(2), ids[0]) {
            Activation::Ready { overhead, .. } => assert!(overhead < full),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.delta_stats().unwrap().delta_downloads, 2);
        // Legacy counters still see every download.
        assert_eq!(m.stats().downloads, 3);
    }

    #[test]
    fn repair_invalidation_forces_a_full_download() {
        let spec = fpga::device::part("VF400");
        let (lib, ids, w, _) = delta_family(spec);
        // Control: without the repair, evicting the clean base leaves a
        // ghost and the incoming variant rides a delta.
        let mut c = delta_mgr(spec, w, lib.clone());
        c.activate(TaskId(0), ids[0]);
        c.op_done(TaskId(0), ids[0]); // base idle in p0 (LRU victim)
        c.activate(TaskId(1), ids[1]); // var1 busy in p1
        c.activate(TaskId(2), ids[2]); // evicts base -> ghost -> delta
        assert_eq!(c.delta_stats().unwrap().delta_downloads, 1);

        // Same sequence, but a scrub repair rewrote the base's columns
        // between going idle and being evicted: no ghost, full download.
        let mut m = delta_mgr(spec, w, lib);
        m.activate(TaskId(0), ids[0]);
        m.op_done(TaskId(0), ids[0]);
        m.activate(TaskId(1), ids[1]);
        let r = m
            .resident_regions()
            .into_iter()
            .find(|r| r.cid == ids[0])
            .unwrap();
        m.invalidate_image_range(r.col0, r.width);
        let before = m.delta_stats().unwrap();
        match m.activate(TaskId(2), ids[2]) {
            Activation::Ready { .. } => {}
            other => panic!("{other:?}"),
        }
        let after = m.delta_stats().unwrap();
        assert_eq!(
            after.delta_downloads, before.delta_downloads,
            "no delta may ever be priced against a repaired image"
        );
        assert_eq!(after.full_downloads, before.full_downloads + 1);
        assert!(
            after.invalidations > before.invalidations,
            "refusing the dirty ghost counts as an invalidation"
        );
    }

    #[test]
    fn retirement_and_crash_restore_drop_ghosts() {
        let spec = fpga::device::part("VF400");
        let (lib, ids, w, wn) = delta_family(spec);
        // Layout [wn, w, w, 1...]: the narrow circuit's partition cannot
        // host the family, so its ghost survives the double eviction.
        let mut widths = vec![wn, w, w];
        widths.extend(std::iter::repeat_n(1, (spec.cols - wn - 2 * w) as usize));
        let mk = |lib: Arc<CircuitLib>| {
            let mut m = PartitionManager::new(
                lib,
                ConfigTiming {
                    spec,
                    port: ConfigPort::SerialFast,
                },
                PartitionMode::Fixed(widths.clone()),
                PreemptAction::SaveRestore,
            )
            .unwrap();
            m.enable_delta();
            m
        };
        let mut m = mk(lib.clone());
        m.activate(TaskId(0), ids[3]); // narrow -> p0
        m.op_done(TaskId(0), ids[3]); // idle, oldest (first LRU victim)
        m.activate(TaskId(1), ids[0]); // base -> p1
        m.op_done(TaskId(1), ids[0]); // idle, second LRU victim
        m.activate(TaskId(2), ids[1]); // var1 -> p2, busy
                                       // var2 needs w: evicts narrow (ghost at p0, too narrow to reuse),
                                       // then the base (ghost at p1), and loads p1 as a delta.
        match m.activate(TaskId(3), ids[2]) {
            Activation::Ready { .. } => {}
            other => panic!("{other:?}"),
        }
        let ds = m.delta_stats().unwrap();
        assert_eq!(ds.delta_downloads, 1, "var2 rides the base's ghost");
        // The narrow circuit's ghost is live on p0 right now.
        let snap = m.snapshot().expect("partition manager snapshots");

        // -- Retirement drops the ghost: reloading narrow is full-price.
        let inv_before = m.delta_stats().unwrap().invalidations;
        let out = m.retire_column(0);
        assert!(out.applied, "p0 is free, retire lands");
        assert!(
            m.delta_stats().unwrap().invalidations > inv_before,
            "retiring a ghosted range must invalidate the ghost"
        );
        let before = m.delta_stats().unwrap();
        match m.activate(TaskId(4), ids[3]) {
            // p0 is retired; narrow lands on a 1-wide sliver (if it fits)
            // or elsewhere — either way there is no base for it.
            Activation::Ready { .. } => {
                let after = m.delta_stats().unwrap();
                assert_eq!(after.delta_downloads, before.delta_downloads);
                assert_eq!(after.full_downloads, before.full_downloads + 1);
            }
            Activation::Unservable | Activation::Blocked { .. } => {}
        }

        // -- Crash restore folds every live ghost into invalidations.
        let mut m2 = mk(lib);
        m2.restore(&snap).unwrap();
        let ds2 = m2.delta_stats().expect("delta state survives restore");
        assert_eq!(ds2.delta_downloads, ds.delta_downloads);
        assert_eq!(
            ds2.invalidations,
            ds.invalidations + 1,
            "the live ghost is stale after a crash"
        );
        // Reloading narrow after the crash: p0 is free again but holds no
        // trusted image — full download, never a stale delta.
        let full_before = ds2.full_downloads;
        match m2.activate(TaskId(5), ids[3]) {
            Activation::Ready { .. } => {}
            other => panic!("{other:?}"),
        }
        let ds3 = m2.delta_stats().unwrap();
        assert_eq!(
            ds3.delta_downloads, ds.delta_downloads,
            "no stale delta after crash"
        );
        assert_eq!(ds3.full_downloads, full_before + 1);
    }

    #[test]
    fn gc_and_relocation_invalidate_every_ghost() {
        // Variable mode under fragmentation: evictions leave ghosts, then
        // the garbage collector rewrites the column layout — every ghost
        // must die with it (compaction moves images around).
        let spec = fpga::device::part("VF400");
        let (lib, ids) = lib_for(spec, &[(5, "a"), (5, "b"), (5, "c"), (8, "d")]);
        let mut m = PartitionManager::new(
            lib,
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            PartitionMode::Variable,
            PreemptAction::SaveRestore,
        )
        .unwrap();
        m.enable_delta();
        for (t, &cid) in ids[..3].iter().enumerate() {
            m.activate(TaskId(t as u32), cid);
            m.op_done(TaskId(t as u32), cid);
        }
        m.set_recording(true);
        match m.activate(TaskId(3), ids[3]) {
            Activation::Ready { .. } => {}
            other => panic!("{other:?}"),
        }
        let st = m.stats();
        assert_eq!((st.evictions, st.gc_runs), (2, 1), "{st:?}");
        // The evicted circuits' ghosts are the ones the collector drops;
        // the move and the load find nothing left to invalidate.
        let reasons: Vec<_> = m
            .drain_events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::DeltaInvalidate { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        assert_eq!(reasons, ["gc", "gc"], "GC rewrote the layout");
        assert_eq!(m.delta_stats().unwrap().invalidations, 2);
    }

    #[test]
    fn delta_disabled_is_byte_identical_legacy() {
        let spec = fpga::device::part("VF400");
        let (lib, ids, w, _) = delta_family(spec);
        let mut widths = vec![w];
        widths.extend(std::iter::repeat_n(1, (spec.cols - w) as usize));
        let mk = || {
            PartitionManager::new(
                lib.clone(),
                ConfigTiming {
                    spec,
                    port: ConfigPort::SerialFast,
                },
                PartitionMode::Fixed(widths.clone()),
                PreemptAction::SaveRestore,
            )
            .unwrap()
        };
        let mut legacy = mk();
        let mut fresh = mk();
        assert!(fresh.delta_stats().is_none());
        for m in [&mut legacy, &mut fresh] {
            m.activate(TaskId(0), ids[0]);
            m.op_done(TaskId(0), ids[0]);
            m.activate(TaskId(1), ids[1]);
            m.op_done(TaskId(1), ids[1]);
        }
        assert_eq!(legacy.stats(), fresh.stats());
        assert_eq!(legacy.delta_stats(), None);
        let (a, b) = (legacy.snapshot().unwrap(), fresh.snapshot().unwrap());
        assert_eq!(a.render(), b.render(), "snapshot must not grow a delta key");
    }

    #[test]
    fn oversized_request_is_unservable_not_blocked() {
        let spec = fpga::device::part("VF100"); // 10 cols
        let (lib, ids) = lib_for(spec, &[(4, "a")]);
        let mut m = PartitionManager::new(
            lib.clone(),
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            PartitionMode::Fixed(vec![2, 8]),
            PreemptAction::SaveRestore,
        )
        .unwrap();
        let w = lib.get(ids[0]).shape().0;
        assert!(w > 2, "test circuit must exceed the narrow partition");
        if w > 8 {
            assert_eq!(m.activate(TaskId(0), ids[0]), Activation::Unservable);
        } else {
            assert!(matches!(
                m.activate(TaskId(0), ids[0]),
                Activation::Ready { .. }
            ));
        }
        // Retiring enough columns makes a once-servable circuit unservable.
        let mut v = PartitionManager::new(
            lib.clone(),
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            PartitionMode::Variable,
            PreemptAction::SaveRestore,
        )
        .unwrap();
        // Kill every w-th column so no contiguous run of width w survives.
        for col in (0..spec.cols).step_by(w as usize) {
            assert!(v.retire_column(col).applied);
        }
        assert_eq!(v.activate(TaskId(0), ids[0]), Activation::Unservable);
    }
}
