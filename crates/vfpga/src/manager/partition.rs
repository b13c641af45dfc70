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

/// Content of one partition. A checkpoint image holds it as `Slot<()>`:
/// routes are derived state, rebuilt by re-routing at the same origin.
#[derive(Debug)]
enum Slot<R = CircuitRoutes> {
    Free,
    /// Fabric permanently lost to a column failure; never allocated again.
    Retired,
    /// Holds a resident circuit; `owner` is the task currently executing
    /// on it (None = idle resident).
    Resident {
        cid: CircuitId,
        owner: Option<TaskId>,
        routes: R,
        /// Monotone last-use stamp for LRU eviction.
        last_use: u64,
        /// Saved FF state pending a restore for `(task)`.
        saved_for: Option<TaskId>,
    },
}

#[derive(Debug)]
pub(crate) struct Partition<R = CircuitRoutes> {
    col: u32,
    width: u32,
    slot: Slot<R>,
}

/// Column-partitioned FPGA manager.
#[derive(Debug)]
pub struct PartitionManager {
    lib: Arc<CircuitLib>,
    mode: PartitionMode,
    policy: PreemptAction,
    parts: Vec<Partition>,
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

/// What one walk of the partition list finds for a miss `need_w` wide.
struct Scan {
    /// The first free partition at least `need_w` wide.
    fit: Option<usize>,
    /// Free columns in total, and the widest free partition.
    free: u32,
    widest: u32,
    /// The least-recently-used idle resident (the first one on a tie).
    victim: Option<CircuitId>,
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
        let parts = match &mode {
            PartitionMode::Fixed(widths) => {
                let sum = widths.iter().sum::<u32>();
                if sum != cols {
                    return Err(VfpgaError::BadPartitionWidths { sum, device: cols });
                }
                if widths.contains(&0) {
                    return Err(VfpgaError::ZeroWidthPartition);
                }
                let mut c = 0;
                widths
                    .iter()
                    .map(|&w| {
                        let p = Partition {
                            col: c,
                            width: w,
                            slot: Slot::Free,
                        };
                        c += w;
                        p
                    })
                    .collect()
            }
            PartitionMode::Variable => {
                vec![Partition {
                    col: 0,
                    width: cols,
                    slot: Slot::Free,
                }]
            }
        };
        let mut m = PartitionManager {
            lib,
            mode,
            policy,
            parts,
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

    /// Index of the partition resident with `cid`, if any: the port's map
    /// knows its first column, and `parts` is kept in column order.
    fn find_resident(&self, cid: CircuitId) -> Option<usize> {
        let col = self.port.origin_of(cid)?;
        Some(self.parts.partition_point(|p| p.col < col))
    }

    /// CLBs currently occupied by resident circuits.
    pub fn resident_clbs(&self) -> u32 {
        self.parts
            .iter()
            .map(|p| match p.slot {
                Slot::Resident { cid, .. } => {
                    let (w, h) = self.lib.get(cid).shape();
                    w * h.min(self.port.timing.spec.rows)
                }
                Slot::Free | Slot::Retired => 0,
            })
            .sum()
    }
    /// The widest circuit this manager could still place under ideal
    /// conditions (everything idle, GC done). Requests beyond this are
    /// unservable forever.
    fn max_servable_width(&self) -> u32 {
        match self.mode {
            // Fixed boundaries never move: the widest live partition.
            PartitionMode::Fixed(_) => self
                .parts
                .iter()
                .filter(|p| !matches!(p.slot, Slot::Retired))
                .map(|p| p.width)
                .max()
                .unwrap_or(0),
            // Variable mode can compact everything movable, so the limit
            // is the widest contiguous run of non-retired columns.
            PartitionMode::Variable => {
                let mut best = 0u32;
                let mut run = 0u32;
                for p in &self.parts {
                    if matches!(p.slot, Slot::Retired) {
                        run = 0;
                    } else {
                        run += p.width;
                        best = best.max(run);
                    }
                }
                best
            }
        }
    }

    /// External fragmentation: the widest circuit width that can NOT be
    /// placed even though total free columns would suffice, expressed as
    /// `1 - largest_free_run / total_free` (0 when free space is one run).
    pub fn fragmentation(&self) -> f64 {
        let free: Vec<u32> = self
            .parts
            .iter()
            .filter(|p| matches!(p.slot, Slot::Free))
            .map(|p| p.width)
            .collect();
        let total: u32 = free.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let largest = free.iter().copied().max().unwrap_or(0);
        1.0 - largest as f64 / total as f64
    }

    /// How loads, GC moves and relocations were routed since the manager
    /// was built or last restored (diagnostic).
    pub fn route_stats(&self) -> pnr::RouteStats {
        self.routing.route_stats()
    }

    /// Number of partitions (diagnostic).
    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    /// Load `cid` into partition `idx` (assumed free and wide enough),
    /// splitting in variable mode. Returns the load — its overhead is its
    /// config time — or None if routing fails at that origin.
    fn load_into(&mut self, idx: usize, cid: CircuitId, tid: TaskId) -> Option<Write> {
        let need_w = self.lib.get(cid).shape().0;
        let origin = (self.parts[idx].col, 0u32);
        let routes = self
            .routing
            .route_template(self.lib.get(cid).route_template(), origin)
            .ok()?;
        // Split in variable mode when the partition is wider than needed.
        if matches!(self.mode, PartitionMode::Variable) && self.parts[idx].width > need_w {
            let leftover = Partition {
                col: self.parts[idx].col + need_w,
                width: self.parts[idx].width - need_w,
                slot: Slot::Free,
            };
            self.parts[idx].width = need_w;
            self.parts.insert(idx + 1, leftover);
            self.port.stats.splits += 1;
        }
        let last_use = self.tick();
        let (col, width) = (self.parts[idx].col, self.parts[idx].width);
        let write = self.port.load(&self.lib, tid, cid, col, width);
        self.parts[idx].slot = Slot::Resident {
            cid,
            owner: Some(tid),
            routes,
            last_use,
            saved_for: None,
        };
        Some(write)
    }

    /// Evict the idle resident in partition `i`, whatever its width, and
    /// merge the freed columns with free neighbours. Its frames stay on the
    /// fabric: the freed range is a delta base for the next occupant.
    fn evict(&mut self, i: usize) {
        let (col, width) = (self.parts[i].col, self.parts[i].width);
        if let Slot::Resident { cid, routes, .. } =
            std::mem::replace(&mut self.parts[i].slot, Slot::Free)
        {
            self.routing.release(&routes);
            self.port.obs.push(|| TraceEvent::Custom {
                tag: "evict",
                message: format!(
                    "evict idle circuit {} from cols [{col}, {})",
                    cid.0,
                    col + width
                ),
            });
            self.port.evict(cid);
        }
        self.port.stats.evictions += 1;
        self.merge_around(i);
    }

    /// Move the idle resident out of partition `idx` (to any free
    /// partition where it routes) or evict it; the partition ends up Free.
    /// Returns the move, if it routed somewhere. Its cost is the caller's
    /// (background fault accounting): manager time counters are not
    /// touched, only the relocation/eviction event counters.
    fn relocate_off(&mut self, idx: usize) -> Option<Write> {
        let (cid, routes, last_use, saved_for) =
            match std::mem::replace(&mut self.parts[idx].slot, Slot::Free) {
                Slot::Resident {
                    cid,
                    owner: None,
                    routes,
                    last_use,
                    saved_for,
                } => (cid, routes, last_use, saved_for),
                // `retire_column` is the one caller, from its idle-resident arm.
                other => unreachable!("relocate_off on {other:?}, not an idle resident"),
            };
        self.routing.release(&routes);
        let need_w = self.lib.get(cid).shape().0;
        // Candidate destinations: free partitions wide enough, tried in
        // column order. No split — the survivor may sit loosely until the
        // next GC tightens things up.
        for i in 0..self.parts.len() {
            let p = &self.parts[i];
            if i == idx || !matches!(p.slot, Slot::Free) || p.width < need_w {
                continue;
            }
            let origin = (p.col, 0u32);
            let template = self.lib.get(cid).route_template();
            if let Ok(new_routes) = self.routing.route_template(template, origin) {
                let write = self.port.relocate(None, &self.lib, cid, origin.0, need_w);
                self.parts[i].slot = Slot::Resident {
                    cid,
                    owner: None,
                    routes: new_routes,
                    last_use,
                    saved_for,
                };
                return Some(write);
            }
        }
        self.port.discard(cid, None);
        self.port.stats.evictions += 1;
        None
    }

    /// Replace partition `idx` (already Free) with retired fabric covering
    /// `col`: the whole partition in fixed mode (boundaries are immutable),
    /// a single carved-out column in variable mode, each free piece left
    /// over merged with its free neighbour.
    fn carve_retired(&mut self, idx: usize, col: u32) {
        match self.mode {
            PartitionMode::Fixed(_) => self.parts[idx].slot = Slot::Retired,
            PartitionMode::Variable => {
                let (p_col, p_w) = (self.parts[idx].col, self.parts[idx].width);
                let mut pieces = Vec::with_capacity(3);
                let (left, right) = (col > p_col, col + 1 < p_col + p_w);
                if left {
                    pieces.push(Partition {
                        col: p_col,
                        width: col - p_col,
                        slot: Slot::Free,
                    });
                }
                pieces.push(Partition {
                    col,
                    width: 1,
                    slot: Slot::Retired,
                });
                if right {
                    pieces.push(Partition {
                        col: col + 1,
                        width: p_col + p_w - col - 1,
                        slot: Slot::Free,
                    });
                }
                self.parts.splice(idx..idx + 1, pieces);
                if right {
                    self.merge_around(idx + usize::from(left) + 1);
                }
                if left {
                    self.merge_around(idx);
                }
            }
        }
    }

    /// Merge free partition `i` with a free neighbour on either side
    /// (variable mode only). Between calls no two free partitions are
    /// adjacent there, so these are the only merges freeing `i` can need.
    fn merge_around(&mut self, i: usize) {
        if !matches!(self.mode, PartitionMode::Variable) {
            return;
        }
        let free = |p: Option<&Partition>| p.is_some_and(|p| matches!(p.slot, Slot::Free));
        for j in [i + 1, i] {
            if j > 0 && free(self.parts.get(j)) && free(self.parts.get(j - 1)) {
                self.parts[j - 1].width += self.parts[j].width;
                self.parts.remove(j);
                self.port.stats.merges += 1;
            }
        }
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

        // One pass in column order: an idle resident moves left to `cursor`
        // (the end of whatever precedes it) when it routes there, everything
        // else stays, and the gap each leaves behind it becomes one free
        // partition. Each gap takes the slot of a free partition the pass
        // drops, so the list is rebuilt in place and never grows.
        let cols = self.port.timing.spec.cols;
        let (mut cursor, mut w) = (0u32, 0);
        for r in 0..self.parts.len() {
            let p = &mut self.parts[r];
            if matches!(p.slot, Slot::Free) {
                continue;
            }
            debug_assert!(p.col >= cursor, "partitions are kept in column order");
            match &mut p.slot {
                Slot::Resident {
                    cid,
                    owner: None,
                    routes,
                    ..
                } if p.col > cursor => {
                    let cid = *cid;
                    let template = self.lib.get(cid).route_template();
                    self.routing.release(routes);
                    match self.routing.route_template(template, (cursor, 0)) {
                        Ok(new_routes) => {
                            let w = self
                                .port
                                .relocate(Some(tid), &self.lib, cid, cursor, p.width);
                            overhead += w.config_time;
                            moved |= columns(cursor, p.width);
                            p.col = cursor;
                            *routes = new_routes;
                        }
                        Err(_) => {
                            // Keep the circuit where it was: the failed attempt
                            // rolled back, so exactly its old segments are free.
                            self.routing.recommit(routes);
                            self.port.stats.failed_relocations += 1;
                        }
                    }
                }
                // Packed already, or busy or retired and so pinned; packing
                // resumes after it.
                _ => {}
            }
            let (col, width) = (p.col, p.width);
            if col > cursor {
                // The gap's columns were held by free partitions read since
                // the last gap (a moved resident only shifts them along),
                // so a dropped slot lies between `w` and `r`.
                debug_assert!(w < r, "a gap with no free partition behind it");
                self.port.stats.merges += 1;
                self.parts[w] = Partition {
                    col: cursor,
                    width: col - cursor,
                    slot: Slot::Free,
                };
                w += 1;
            }
            self.parts.swap(w, r);
            (cursor, w) = (col + width, w + 1);
        }
        self.parts.truncate(w);
        if cursor < cols {
            self.parts.push(Partition {
                col: cursor,
                width: cols - cursor,
                slot: Slot::Free,
            });
        }
        let after = self.port.stats;
        self.port.obs.push(|| TraceEvent::GcRun {
            merged: (after.merges - before.merges) as u32,
            relocations: (after.relocations - before.relocations) as u32,
            failures: (after.failed_relocations - before.failed_relocations) as u32,
            duration: overhead,
        });
        (overhead, moved)
    }

    /// Debug builds check the partition list and what is derived from it
    /// after every operation that can change either: the partitions tile
    /// the device in column order, no two free ones are adjacent in
    /// variable mode, the servable width is what a scan finds, and the
    /// port's column map holds exactly the residents, each once (the
    /// residency lookups read it). Then [`Self::check_routing`].
    fn check(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut end = 0;
        for p in &self.parts {
            assert!(p.col == end, "the partitions do not tile the device");
            end += p.width;
        }
        assert!(
            end == self.port.timing.spec.cols,
            "the partitions end short"
        );
        let free = |p: &Partition| matches!(p.slot, Slot::Free);
        let touching = self.parts.windows(2).any(|w| free(&w[0]) && free(&w[1]));
        let variable = matches!(self.mode, PartitionMode::Variable);
        assert!(!(variable && touching), "two free partitions touch");
        assert!(self.servable == self.max_servable_width(), "stale width");
        let claims = residents(&self.parts).map(|(cid, col, _)| (cid, col));
        self.port.check_claims(&self.lib, claims);
        self.check_routing();
    }

    /// The routing fabric re-derived from the partition list: usage is
    /// exactly the residents' routes, and — while no searched route is
    /// live, the only kind that can leave its columns — free and retired
    /// columns carry nothing, which is what lets the fabric book a load
    /// into them as its footprint without looking at a segment.
    fn check_routing(&self) {
        let live = || {
            self.parts.iter().filter_map(|p| match &p.slot {
                Slot::Resident { routes, .. } => Some(routes),
                Slot::Free | Slot::Retired => None,
            })
        };
        self.routing.assert_usage_is(live());
        if live().any(|r| r.searched()) {
            return;
        }
        for p in &self.parts {
            assert!(
                matches!(p.slot, Slot::Resident { .. })
                    || self.routing.columns_are_unused(p.col, p.width),
                "tracks in use over unoccupied columns [{}, +{})",
                p.col,
                p.width
            );
        }
    }

    /// One walk of the partition list for a miss `need_w` wide.
    fn scan(&self, need_w: u32) -> Scan {
        let mut s = Scan {
            fit: None,
            free: 0,
            widest: 0,
            victim: None,
        };
        let mut oldest = 0;
        for (i, p) in self.parts.iter().enumerate() {
            match p.slot {
                Slot::Free => {
                    if s.fit.is_none() && p.width >= need_w {
                        s.fit = Some(i);
                    }
                    s.free += p.width;
                    s.widest = s.widest.max(p.width);
                }
                Slot::Resident {
                    cid,
                    owner: None,
                    last_use,
                    ..
                } if s.victim.is_none() || last_use < oldest => {
                    (s.victim, oldest) = (Some(cid), last_use);
                }
                Slot::Resident { .. } | Slot::Retired => {}
            }
        }
        s
    }

    /// [`FpgaManager::activate`] proper.
    fn place(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        // 1. Already resident?
        let resident = self.find_resident(cid).map(|i| &mut self.parts[i]);
        if let Some(Partition {
            width,
            slot:
                Slot::Resident {
                    owner,
                    last_use,
                    saved_for,
                    ..
                },
            ..
        }) = resident
        {
            self.clock += 1;
            if owner.is_some_and(|o| o != tid) {
                self.port.stats.blocks += 1;
                self.waiters.push_back((tid, cid));
                return Activation::Blocked { moved: 0 };
            }
            *owner = Some(tid);
            *last_use = self.clock;
            self.port.stats.hits += 1;
            let mut overhead = SimDuration::ZERO;
            if *saved_for == Some(tid) {
                *saved_for = None;
                overhead += self.port.move_state(*width as usize, false);
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
            let scan = self.scan(need_w);
            if let Some(write) = scan.fit.and_then(|i| self.load_into(i, cid, tid)) {
                return Activation::Ready {
                    overhead: write.config_time,
                    write: Some(write),
                    moved,
                };
            }
            // Routing failed at any fit (nothing was committed, the
            // partitions are as scanned) — treat like fragmentation: fall
            // through to GC/eviction below rather than looping on the same
            // partition forever.
            // 3. Try GC (variable mode) to coalesce free columns.
            if self.gc_enabled
                && matches!(self.mode, PartitionMode::Variable)
                && scan.free >= need_w
                && scan.widest < need_w
            {
                let (gc_overhead, columns) = self.garbage_collect(tid);
                moved |= columns;
                if let Some(write) = self
                    .scan(need_w)
                    .fit
                    .and_then(|i| self.load_into(i, cid, tid))
                {
                    return Activation::Ready {
                        overhead: write.config_time + gc_overhead,
                        write: Some(write),
                        moved,
                    };
                }
            }
            // 4. Evict the LRU idle resident and retry once per eviction.
            // Compaction keeps the partitions' order and owners, so the
            // scanned victim is still the one to go.
            match scan.victim.and_then(|v| self.find_resident(v)) {
                Some(i) => self.evict(i),
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
                if let Some(i) = self.find_resident(cid) {
                    if let Slot::Resident { owner, .. } = &self.parts[i].slot {
                        debug_assert_eq!(*owner, Some(tid));
                    }
                }
                PreemptCost {
                    overhead: SimDuration::ZERO,
                    lose_progress: false,
                }
            }
        }
    }

    fn op_done(&mut self, tid: TaskId, cid: CircuitId) -> (SimDuration, Vec<TaskId>) {
        if let Some(i) = self.find_resident(cid) {
            let stamp = self.tick();
            if let Slot::Resident {
                owner, last_use, ..
            } = &mut self.parts[i].slot
            {
                if *owner == Some(tid) {
                    *owner = None;
                    *last_use = stamp;
                }
            }
        }
        let wake: Vec<TaskId> = self.waiters.drain(..).map(|(t, _)| t).collect();
        (SimDuration::ZERO, wake)
    }

    fn task_exit(&mut self, tid: TaskId) -> Vec<TaskId> {
        for p in &mut self.parts {
            if let Slot::Resident {
                owner, saved_for, ..
            } = &mut p.slot
            {
                if *owner == Some(tid) {
                    *owner = None;
                }
                if *saved_for == Some(tid) {
                    *saved_for = None;
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
            free_fragments: self
                .parts
                .iter()
                .filter(|p| matches!(p.slot, Slot::Free))
                .count() as u32,
        }
    }

    fn timing(&self) -> &ConfigTiming {
        &self.port.timing
    }

    fn is_resident(&self, cid: CircuitId) -> bool {
        self.find_resident(cid).is_some()
    }

    fn resident_regions(&self) -> Vec<ResidentRegion> {
        self.parts
            .iter()
            .filter_map(|p| match p.slot {
                Slot::Resident { cid, .. } => Some(ResidentRegion {
                    cid,
                    col0: p.col,
                    width: p.width,
                }),
                Slot::Free | Slot::Retired => None,
            })
            .collect()
    }

    fn discard_resident(&mut self, cid: CircuitId) -> bool {
        let Some(i) = self.find_resident(cid) else {
            return false;
        };
        if let Slot::Resident { routes, .. } =
            std::mem::replace(&mut self.parts[i].slot, Slot::Free)
        {
            self.routing.release(&routes);
        }
        self.port.discard(cid, None);
        self.merge_around(i);
        self.check();
        true
    }

    fn retire_column(&mut self, col: u32) -> RetireOutcome {
        let Some(idx) = self
            .parts
            .iter()
            .position(|p| col >= p.col && col < p.col + p.width)
        else {
            return RetireOutcome::default();
        };
        let mut out = RetireOutcome {
            applied: true,
            ..Default::default()
        };
        match &self.parts[idx].slot {
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
            Slot::Resident { owner: None, .. } => {
                out.moved = self.relocate_off(idx);
            }
        }
        // Retired fabric can never serve as a delta base.
        self.port.retire(self.parts[idx].col, self.parts[idx].width);
        self.carve_retired(idx, col);
        self.servable = self.max_servable_width();
        self.check();
        out
    }

    fn invalidate_image_range(&mut self, col0: u32, width: u32) {
        // A resident is dirty when the range touches its partition, slack
        // included; only the ghosts dropped are counted.
        self.port.repair(col0, width, residents(&self.parts), false);
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        self.port.delta_stats()
    }

    fn implant_ghost(&mut self, col0: u32, width: u32, cid: CircuitId) -> bool {
        self.port.implant(col0, width, cid)
    }

    fn snapshot(&self) -> Option<Json> {
        let image = PartitionImage {
            parts: self.parts.iter().map(Partition::image).collect(),
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
        let mut routing = pnr::RoutingFabric::for_device(&self.port.timing.spec);
        let mut parts: Vec<Partition> = Vec::with_capacity(img.parts.len());
        let mut home = vec![None; self.lib.len()];
        // The partitions tile the device: each starts where the last ended.
        let mut next_col = 0;
        for Partition { col, width, slot } in img.parts {
            if col != next_col || width == 0 || width > cols - col {
                return Err(format!(
                    "partition [{col}, +{width}) does not continue the tiling at column {next_col} of {cols}"
                ));
            }
            next_col = col + width;
            let slot = match slot {
                // A freed partition is merged with its free neighbours, so
                // in variable mode two free partitions never touch.
                Slot::Free
                    if matches!(self.mode, PartitionMode::Variable)
                        && parts.last().is_some_and(|p| matches!(p.slot, Slot::Free)) =>
                {
                    return Err(format!("free partition at column {col} follows another"));
                }
                Slot::Free => Slot::Free,
                Slot::Retired => Slot::Retired,
                Slot::Resident {
                    cid,
                    owner,
                    last_use,
                    saved_for,
                    routes: (),
                } => {
                    self.lib.check_id(cid)?;
                    if home[cid.0 as usize].replace(col).is_some() {
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
                    Slot::Resident {
                        cid,
                        owner,
                        routes,
                        last_use,
                        saved_for,
                    }
                }
            };
            parts.push(Partition { col, width, slot });
        }
        if next_col != cols {
            return Err(format!("partitions cover {next_col} of {cols} columns"));
        }
        for &(_, cid) in &img.waiters {
            self.lib.check_id(cid)?;
        }
        // Ghosts are never carried across a restore: the fabric was wiped
        // and re-downloaded, so every tracked base would be stale.
        let claims = residents(&parts).map(|(cid, col, _)| (cid, col));
        self.port
            .restore_map(&self.lib, img.delta.as_ref(), claims)?;
        (self.parts, self.routing, self.waiters) = (parts, routing, img.waiters);
        (self.clock, self.gc_enabled, self.port.stats) = (img.clock, img.gc_enabled, img.stats);
        self.servable = self.max_servable_width();
        self.check();
        Ok(())
    }
}

/// Each resident circuit and its partition, `(cid, col, width)`.
fn residents(parts: &[Partition]) -> impl Iterator<Item = (CircuitId, u32, u32)> + '_ {
    parts.iter().filter_map(|p| match p.slot {
        Slot::Resident { cid, .. } => Some((cid, p.col, p.width)),
        Slot::Free | Slot::Retired => None,
    })
}

fsim::record! {
    /// Everything [`PartitionManager`] carries across a checkpoint. Routes
    /// are not part of it: they are derived state, rebuilt by re-routing
    /// each resident circuit at its origin on restore.
    #[derive(Debug)]
    pub(crate) struct PartitionImage {
        parts: Vec<Partition<()>>,
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

impl Partition {
    /// The partition as a checkpoint image holds it: without its routes.
    fn image(&self) -> Partition<()> {
        let slot = match self.slot {
            Slot::Free => Slot::Free,
            Slot::Retired => Slot::Retired,
            Slot::Resident {
                cid,
                owner,
                last_use,
                saved_for,
                ..
            } => Slot::Resident {
                cid,
                owner,
                routes: (),
                last_use,
                saved_for,
            },
        };
        Partition {
            col: self.col,
            width: self.width,
            slot,
        }
    }
}

/// `{"col", "width", "kind"}`, and a resident's circuit, owner, last use
/// and saved state after a `"resident"` kind.
impl Wire for Partition<()> {
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
                ..
            } => o
                .set("kind", "resident")
                .set("cid", cid.json())
                .set("owner", owner.json())
                .set("last_use", last_use)
                .set("saved_for", saved_for.json()),
        };
        o.build()
    }

    fn read(v: &Json, what: &str) -> Result<Partition<()>, String> {
        let mut f = Fields::of(v, what)?;
        let (col, width) = (f.get("col")?, f.get("width")?);
        let slot = match f.get::<String>("kind")?.as_str() {
            "free" => Slot::Free,
            "retired" => Slot::Retired,
            "resident" => Slot::Resident {
                cid: f.get("cid")?,
                owner: f.get("owner")?,
                routes: (),
                last_use: f.get("last_use")?,
                saved_for: f.get("saved_for")?,
            },
            other => return Err(format!("unknown partition kind '{other}'")),
        };
        f.end()?;
        Ok(Partition { col, width, slot })
    }
}

#[cfg(test)]
impl PartitionManager {
    /// Each partition as `(col, width, resident, retired)`.
    pub(super) fn layout(&self) -> Vec<(u32, u32, Option<CircuitId>, bool)> {
        let parts = self.parts.iter();
        parts
            .map(|p| match p.slot {
                Slot::Resident { cid, .. } => (p.col, p.width, Some(cid), false),
                Slot::Free => (p.col, p.width, None, false),
                Slot::Retired => (p.col, p.width, None, true),
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
    fn image_of(parts: Vec<(u32, u32, Slot<()>)>) -> Json {
        PartitionImage {
            parts: parts
                .into_iter()
                .map(|(col, width, slot)| Partition { col, width, slot })
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
    fn idle(cid: CircuitId, last_use: u64) -> Slot<()> {
        Slot::Resident {
            cid,
            owner: None,
            routes: (),
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
