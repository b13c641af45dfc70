//! The list-based partition manager the column sets replaced, kept as the
//! bit-exact oracle for [`PartitionManager`], and a seeded walk that holds
//! the sets to it.
//!
//! `ListManager` is the manager as it was when it kept its partitions as a
//! `Vec` in column order, a resident's record and routes in its slot, and
//! walked or bisected that list for every question. The walk drives both
//! through the same random calls — activate (a resumed op too), op done,
//! preempt, task exit, discard, column retirement, and a checkpoint image
//! restored into fresh managers (typed, and a third from its rendering,
//! which must restore the same), sometimes edited so that the idle
//! residents' last uses tie and saved state is owed — on fixed partitions,
//! fixed partitions with slack and variable partitions with GC and delta
//! pricing. After every call the answer, the counters, the usage, the
//! resident regions, the routing statistics, the trace events and the
//! rendered image must be identical.
//!
//! Tier-1 runs a few short walks; `ci.sh` runs the wide ones under
//! `--release` (`cargo test -p vfpga --lib partition_oracle --
//! --include-ignored`).

use super::delta::{DeltaImage, DeltaStats};
use super::partition::{PartitionImage, PartitionManager, PartitionMode};
use super::{
    columns, Activation, DeltaPort, DeviceUsage, FpgaManager, ManagerStats, PreemptAction,
    PreemptCost, ResidentRegion, RetireOutcome, Write,
};
use crate::circuit::{CircuitId, CircuitLib};
use crate::error::VfpgaError;
use crate::image::Record;
use crate::task::TaskId;
use fpga::{ConfigPort, ConfigTiming};
use fsim::json::{Fields, Json, Obj, Wire};
use fsim::{SimDuration, SimRng, TraceEvent};
use pnr::route::CircuitRoutes;
use pnr::{compile, CompileOptions, RoutingFabric};
use std::collections::VecDeque;
use std::sync::Arc;

/// The partition list: each partition's columns and what it holds.
#[derive(Debug)]
enum Slot<R = CircuitRoutes> {
    Free,
    Retired,
    Resident {
        cid: CircuitId,
        owner: Option<TaskId>,
        routes: R,
        last_use: u64,
        saved_for: Option<TaskId>,
    },
}

#[derive(Debug)]
struct Partition<R = CircuitRoutes> {
    col: u32,
    width: u32,
    slot: Slot<R>,
}

#[derive(Debug)]
struct ListManager {
    lib: Arc<CircuitLib>,
    mode: PartitionMode,
    policy: PreemptAction,
    parts: Vec<Partition>,
    routing: RoutingFabric,
    waiters: VecDeque<(TaskId, CircuitId)>,
    clock: u64,
    port: DeltaPort,
    pub gc_enabled: bool,
    servable: u32,
}

struct Scan {
    fit: Option<usize>,
    free: u32,
    widest: u32,
    victim: Option<CircuitId>,
}

impl ListManager {
    pub fn new(
        lib: Arc<CircuitLib>,
        timing: ConfigTiming,
        mode: PartitionMode,
        policy: PreemptAction,
    ) -> Result<Self, VfpgaError> {
        let cols = timing.spec.cols;
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
        let mut m = ListManager {
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

    pub fn enable_delta(&mut self) {
        self.port.enable_delta();
    }

    fn with_capacity(mut self, cap: u16) -> Self {
        let spec = self.port.timing.spec;
        self.routing = RoutingFabric::new(spec.cols, spec.rows, cap);
        self
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn find_resident(&self, cid: CircuitId) -> Option<usize> {
        let col = self.port.origin_of(cid)?;
        Some(self.parts.partition_point(|p| p.col < col))
    }

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
    fn max_servable_width(&self) -> u32 {
        match self.mode {
            PartitionMode::Fixed(_) => self
                .parts
                .iter()
                .filter(|p| !matches!(p.slot, Slot::Retired))
                .map(|p| p.width)
                .max()
                .unwrap_or(0),
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

    pub fn route_stats(&self) -> pnr::RouteStats {
        self.routing.route_stats()
    }

    pub fn partition_count(&self) -> usize {
        self.parts.len()
    }

    fn load_into(&mut self, idx: usize, cid: CircuitId, tid: TaskId) -> Option<Write> {
        let need_w = self.lib.get(cid).shape().0;
        let origin = (self.parts[idx].col, 0u32);
        let routes = self
            .routing
            .route_template(self.lib.get(cid).route_template(), origin)
            .ok()?;
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
                other => unreachable!("relocate_off on {other:?}, not an idle resident"),
            };
        self.routing.release(&routes);
        let need_w = self.lib.get(cid).shape().0;
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

    fn garbage_collect(&mut self, tid: TaskId) -> (SimDuration, u64) {
        self.port.stats.gc_runs += 1;
        self.port.collect();
        let before = self.port.stats;
        let (mut overhead, mut moved) = (SimDuration::ZERO, 0);

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
                            self.routing.recommit(routes);
                            self.port.stats.failed_relocations += 1;
                        }
                    }
                }
                _ => {}
            }
            let (col, width) = (p.col, p.width);
            if col > cursor {
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

    fn place(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
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

        self.port.stats.misses += 1;
        let need_w = self.lib.get(cid).shape().0;
        if need_w > self.servable {
            return Activation::Unservable;
        }
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

impl FpgaManager for ListManager {
    fn name(&self) -> &'static str {
        match self.mode {
            PartitionMode::Fixed(_) => "partition-fixed",
            PartitionMode::Variable => "partition-variable",
        }
    }

    fn activate(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        self.place(tid, cid)
    }

    fn preempt(&mut self, tid: TaskId, cid: CircuitId) -> PreemptCost {
        match self.policy {
            PreemptAction::WaitCompletion => {
                unreachable!("preempt under WaitCompletion: System was configured to preempt")
            }
            PreemptAction::Rollback => PreemptCost {
                overhead: SimDuration::ZERO,
                lose_progress: true,
            },
            PreemptAction::SaveRestore => {
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
            Slot::Retired => return out,
            Slot::Free => {}
            Slot::Resident { owner: Some(_), .. } => {
                return RetireOutcome {
                    busy: true,
                    ..Default::default()
                };
            }
            Slot::Resident { owner: None, .. } => {
                out.moved = self.relocate_off(idx);
            }
        }
        self.port.retire(self.parts[idx].col, self.parts[idx].width);
        self.carve_retired(idx, col);
        self.servable = self.max_servable_width();
        out
    }

    fn invalidate_image_range(&mut self, col0: u32, width: u32) {
        self.port.repair(col0, width, residents(&self.parts), false);
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        self.port.delta_stats()
    }

    fn implant_ghost(&mut self, col0: u32, width: u32, cid: CircuitId) -> bool {
        self.port.implant(col0, width, cid)
    }

    fn snapshot(&self) -> Option<Json> {
        let image = ListImage {
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
        let img = ListImage::read(snap, "partition snapshot")?;
        let cols = self.port.timing.spec.cols;
        let mut routing = self.routing.empty_like();
        let mut parts: Vec<Partition> = Vec::with_capacity(img.parts.len());
        let mut home = vec![None; self.lib.len()];
        let mut next_col = 0;
        for Partition { col, width, slot } in img.parts {
            if col != next_col || width == 0 || width > cols - col {
                return Err(format!(
                    "partition [{col}, +{width}) does not continue the tiling at column {next_col} of {cols}"
                ));
            }
            next_col = col + width;
            let slot = match slot {
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
        let claims = residents(&parts).map(|(cid, col, _)| (cid, col));
        self.port
            .restore_map(&self.lib, img.delta.as_ref(), claims)?;
        (self.parts, self.routing, self.waiters) = (parts, routing, img.waiters);
        (self.clock, self.gc_enabled, self.port.stats) = (img.clock, img.gc_enabled, img.stats);
        self.servable = self.max_servable_width();
        Ok(())
    }
}

fn residents(parts: &[Partition]) -> impl Iterator<Item = (CircuitId, u32, u32)> + '_ {
    parts.iter().filter_map(|p| match p.slot {
        Slot::Resident { cid, .. } => Some((cid, p.col, p.width)),
        Slot::Free | Slot::Retired => None,
    })
}

fsim::record! {
    #[derive(Debug)]
    struct ListImage {
        parts: Vec<Partition<()>>,
        waiters: VecDeque<(TaskId, CircuitId)>,
        clock: u64,
        gc_enabled: bool,
        stats: ManagerStats,
        #[skip_if(Option::is_none)]
        delta: Option<DeltaImage>,
    }
}

impl Partition {
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

/// One call of the walk.
#[derive(Debug, Clone, Copy)]
enum Call {
    Activate(TaskId, CircuitId),
    OpDone(TaskId, CircuitId),
    Preempt(TaskId, CircuitId),
    Exit(TaskId),
    Discard(CircuitId),
    Retire(u32),
    /// The image restored into fresh managers; `edit`: with the idle
    /// residents' last uses tied and a resident's saved state owed.
    Restore {
        edit: bool,
    },
}

/// What a call answered.
#[derive(Debug, PartialEq)]
enum Answer {
    Activation(Activation),
    Preempt(PreemptCost),
    Woken(Vec<TaskId>),
    Discarded(bool),
    Retired(RetireOutcome),
    Restored(Result<(), String>),
}

/// A walk's managers: what they are built from.
struct Setup {
    lib: Arc<CircuitLib>,
    timing: ConfigTiming,
    mode: PartitionMode,
    delta: bool,
    /// Tracks a routing channel.
    cap: u16,
    /// The rare paths its walks must reach.
    reaches: Reached,
}

impl Setup {
    fn build(&self) -> (PartitionManager, ListManager) {
        let (lib, mode, policy) = (&self.lib, &self.mode, PreemptAction::SaveRestore);
        let new = PartitionManager::new(lib.clone(), self.timing, mode.clone(), policy).unwrap();
        let old = ListManager::new(lib.clone(), self.timing, mode.clone(), policy).unwrap();
        let (mut new, mut old) = (new.with_capacity(self.cap), old.with_capacity(self.cap));
        if self.delta {
            new.enable_delta();
            old.enable_delta();
        }
        new.set_recording(true);
        old.set_recording(true);
        (new, old)
    }
}

/// The rare paths a walk reached.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Reached {
    /// A GC move that did not route at its new origin.
    gc_route_failure: bool,
    /// A column retired inside a resident's partition.
    retire_in_resident: bool,
    /// An eviction with two idle residents last used at the same instant.
    lru_tie: bool,
    /// A circuit the device once had room for made unservable by
    /// retirements.
    retired_unservable: bool,
}

impl Reached {
    /// Every path `want` names was reached.
    fn covers(&self, want: &Reached) -> bool {
        (self.gc_route_failure || !want.gc_route_failure)
            && (self.retire_in_resident || !want.retire_in_resident)
            && (self.lru_tie || !want.lru_tie)
            && (self.retired_unservable || !want.retired_unservable)
    }
}

/// Image `snap` with the idle residents' last uses tied to the oldest of
/// them and a random resident's state owed to task `owed`.
fn tie_and_owe(snap: &Json, rng: &mut SimRng, owed: TaskId) -> Json {
    let mut image = ListImage::read(snap, "partition snapshot").unwrap();
    let mut residents: Vec<_> = image
        .parts
        .iter_mut()
        .filter_map(|p| match &mut p.slot {
            Slot::Resident {
                owner,
                last_use,
                saved_for,
                ..
            } => Some((*owner, last_use, saved_for)),
            Slot::Free | Slot::Retired => None,
        })
        .collect();
    let idle = residents.iter().filter(|r| r.0.is_none());
    if let Some(oldest) = idle.map(|r| *r.1).min() {
        for r in residents.iter_mut().filter(|r| r.0.is_none()) {
            *r.1 = oldest;
        }
    }
    if !residents.is_empty() {
        let i = rng.below(residents.len() as u64) as usize;
        *residents[i].2 = Some(owed);
    }
    image.json()
}

/// Drive the managers `setup` builds through `steps` random calls from
/// `seed`, holding the column sets to the list after every one.
fn walk(setup: &Setup, seed: u64, steps: usize) -> Reached {
    let (mut new, mut old) = setup.build();
    let mut rng = SimRng::new(seed);
    let cols = setup.timing.spec.cols;
    let circuits = setup.lib.len() as u64;
    let mut holding: Vec<Option<CircuitId>> = vec![None; 5];
    let (mut retired, mut reached) = (0, Reached::default());
    let servable = old.servable;
    let on = format!("{:?} on {}", setup.mode, setup.timing.spec.name);
    for step in 0..steps {
        let call = loop {
            let t = rng.below(holding.len() as u64) as usize;
            let tid = TaskId(t as u32);
            let call = match (rng.below(24), holding[t]) {
                (0..=9, None) => Call::Activate(tid, CircuitId(rng.below(circuits) as u32)),
                (0..=9, Some(cid)) => Call::OpDone(tid, cid),
                (10..=11, Some(cid)) => Call::Preempt(tid, cid),
                (12, Some(cid)) => Call::Activate(tid, cid),
                (13..=14, _) => Call::Exit(tid),
                (15, _) => match new.resident_regions() {
                    regions if regions.is_empty() => continue,
                    regions => Call::Discard(rng.choose(&regions).cid),
                },
                (16, _) if retired < 6 => {
                    retired += 1;
                    match new.resident_regions() {
                        regions if !regions.is_empty() && rng.chance(0.75) => {
                            let r = rng.choose(&regions);
                            Call::Retire(r.col0 + rng.below(u64::from(r.width)) as u32)
                        }
                        _ => Call::Retire(rng.below(u64::from(cols)) as u32),
                    }
                }
                (17..=18, _) => Call::Restore {
                    edit: rng.chance(0.5),
                },
                _ => continue,
            };
            break call;
        };
        let (new_answer, old_answer) = match call {
            Call::Activate(tid, cid) => {
                let idle: Vec<u64> = (old.parts.iter())
                    .filter_map(|p| match p.slot {
                        Slot::Resident {
                            owner: None,
                            last_use,
                            ..
                        } => Some(last_use),
                        _ => None,
                    })
                    .collect();
                let oldest = idle.iter().min();
                let tie = oldest.is_some_and(|o| idle.iter().filter(|&u| u == o).count() > 1);
                let evictions = new.stats().evictions;
                let a = (new.activate(tid, cid), old.activate(tid, cid));
                reached.lru_tie |= tie && new.stats().evictions > evictions;
                let once = setup.lib.get(cid).shape().0 <= servable;
                reached.retired_unservable |= once && a.1 == Activation::Unservable;
                if matches!(a.0, Activation::Ready { .. }) {
                    holding[tid.0 as usize] = Some(cid);
                }
                (Answer::Activation(a.0), Answer::Activation(a.1))
            }
            Call::OpDone(tid, cid) => {
                holding[tid.0 as usize] = None;
                let (new_wake, old_wake) = (new.op_done(tid, cid), old.op_done(tid, cid));
                assert_eq!(new_wake.0, old_wake.0);
                (Answer::Woken(new_wake.1), Answer::Woken(old_wake.1))
            }
            Call::Preempt(tid, cid) => (
                Answer::Preempt(new.preempt(tid, cid)),
                Answer::Preempt(old.preempt(tid, cid)),
            ),
            Call::Exit(tid) => {
                holding[tid.0 as usize] = None;
                (
                    Answer::Woken(new.task_exit(tid)),
                    Answer::Woken(old.task_exit(tid)),
                )
            }
            Call::Discard(cid) => {
                // The load it was rejected for failed its task.
                for h in holding.iter_mut().filter(|h| **h == Some(cid)) {
                    *h = None;
                }
                (
                    Answer::Discarded(new.discard_resident(cid)),
                    Answer::Discarded(old.discard_resident(cid)),
                )
            }
            Call::Retire(col) => {
                let resident = |p: &&Partition| matches!(p.slot, Slot::Resident { .. });
                let hit = old
                    .parts
                    .iter()
                    .filter(resident)
                    .any(|p| p.col <= col && col < p.col + p.width);
                reached.retire_in_resident |= hit;
                (
                    Answer::Retired(new.retire_column(col)),
                    Answer::Retired(old.retire_column(col)),
                )
            }
            Call::Restore { edit } => {
                let mut image = new.image(None).unwrap();
                let mut snap = new.snapshot().unwrap();
                if edit {
                    let owed = TaskId(rng.below(holding.len() as u64) as u32);
                    snap = tie_and_owe(&snap, &mut rng, owed);
                    image = Box::new(PartitionImage::read(&snap, "edited").unwrap()).into_image();
                }
                // Re-routing the residents in column order can fail where
                // their searched routes were found in another order: then
                // the run goes on with the managers it had. The manager
                // restores its typed image, and a third its rendering.
                let ((mut fresh_new, mut fresh_old), (mut from_json, _)) =
                    (setup.build(), setup.build());
                let restored = (fresh_new.restore_image(&image), fresh_old.restore(&snap));
                let through_json = from_json.restore(&snap);
                let paths = format!("{on} seed {seed} step {step}: the two paths");
                assert_eq!(through_json, restored.0, "{paths}");
                if restored.0.is_ok() {
                    let images = (from_json.snapshot(), fresh_new.snapshot());
                    assert_eq!(
                        images.0.unwrap().render(),
                        images.1.unwrap().render(),
                        "{paths}"
                    );
                    (new, old) = (fresh_new, fresh_old);
                }
                (Answer::Restored(restored.0), Answer::Restored(restored.1))
            }
        };
        let at = format!("{on} seed {seed} step {step}: {call:?}");
        assert_eq!(new_answer, old_answer, "{at}: the answer");
        assert_eq!(new.stats(), old.stats(), "{at}: the counters");
        assert_eq!(new.delta_stats(), old.delta_stats(), "{at}: delta");
        assert_eq!(new.usage(), old.usage(), "{at}: the usage");
        let regions = (new.resident_regions(), old.resident_regions());
        assert_eq!(regions.0, regions.1, "{at}: the resident regions");
        assert_eq!(new.route_stats(), old.route_stats(), "{at}: the routing");
        let events = (new.drain_events(), old.drain_events());
        assert_eq!(events.0, events.1, "{at}: the events");
        let frag = (new.fragmentation(), old.fragmentation());
        assert_eq!(frag.0, frag.1, "{at}: the fragmentation");
        let count = (new.partition_count(), old.partition_count());
        assert_eq!(count.0, count.1, "{at}: the partition count");
        let images = (new.snapshot().unwrap(), old.snapshot().unwrap());
        assert_eq!(images.0.render(), images.1.render(), "{at}: the image");
    }
    reached.gc_route_failure = new.stats().failed_relocations > 0;
    reached
}

/// `[base, narrow, a base variant, a narrow variant, two sorters, a
/// divider]`: two families that price as deltas against each other, and
/// three circuits whose own nets do not all fit their template's channels,
/// so their routes search and detour past their columns, where a GC move
/// can then fail to route.
fn library(spec: fpga::DeviceSpec) -> Arc<CircuitLib> {
    let opts = CompileOptions {
        max_height: spec.rows,
        full_height: true,
        ..Default::default()
    };
    let compiled = |net| compile(&net, opts).unwrap();
    use netlist::library::{arith, ext};
    let base = compiled(arith::array_multiplier("pbase", 5));
    let narrow = compiled(arith::array_multiplier("pnar", 2));
    let circuits = [
        pnr::mutate_tables(&base, 0.25, 21),
        pnr::mutate_tables(&narrow, 0.3, 22),
        compiled(ext::bitonic_sorter("psort4", 4, 4)),
        compiled(ext::bitonic_sorter("psort3", 4, 3)),
        compiled(ext::restoring_divider("pdiv", 4)),
    ];
    let mut lib = CircuitLib::new();
    lib.register_compiled(base);
    lib.register_compiled(narrow);
    for c in circuits {
        lib.register_compiled(c);
    }
    Arc::new(lib)
}

/// Tracks a routing channel scarce enough that loads and GC moves next to
/// a detoured route fail now and then (the device's own 12 never do here).
const SCARCE: u16 = 6;

/// Fixed partitions as wide as some of the library's circuits, delta off;
/// fixed partitions with slack to spare, delta on; variable partitions
/// with GC and delta on; and variable partitions on VF100, whose 10
/// columns a walk's retirements cut into runs narrower than some circuits.
/// The last three route on scarce channels. Every setup's walks must reach
/// an LRU tie and a retirement inside a resident's partition; the exact
/// and the narrow ones a circuit made unservable by retirements, and the
/// variable one on VF400 a GC move that fails to route.
fn setups() -> [Setup; 4] {
    let on = |part| (fpga::device::part(part), library(fpga::device::part(part)));
    let (vf400, vf100) = (on("VF400"), on("VF100"));
    let (spec, lib) = &vf400;
    let width = |c: u32| lib.get(CircuitId(c)).shape().0;
    let (w, narrow, sorter) = (width(0), width(1), width(4));
    let exact = vec![w, w, narrow, sorter, spec.cols - 2 * w - narrow - sorter];
    let slack = vec![w + 1, w + 2, narrow + 1, spec.cols - 2 * w - narrow - 4];
    let setup =
        |(spec, lib): &(fpga::DeviceSpec, Arc<CircuitLib>), mode, delta, cap, reaches| Setup {
            lib: lib.clone(),
            timing: ConfigTiming {
                spec: *spec,
                port: ConfigPort::SerialFast,
            },
            mode,
            delta,
            cap,
            reaches,
        };
    let base = Reached {
        retire_in_resident: true,
        lru_tie: true,
        ..Reached::default()
    };
    let unservable = Reached {
        retired_unservable: true,
        ..base
    };
    let gc = Reached {
        gc_route_failure: true,
        ..base
    };
    let cap = pnr::route::DEFAULT_CHANNEL_CAPACITY;
    [
        setup(&vf400, PartitionMode::Fixed(exact), false, cap, unservable),
        setup(&vf400, PartitionMode::Fixed(slack), true, SCARCE, base),
        setup(&vf400, PartitionMode::Variable, true, SCARCE, gc),
        setup(&vf100, PartitionMode::Variable, true, SCARCE, unservable),
    ]
}

/// Walk every setup from each seed in `seeds`: together they must reach
/// the rare paths the setup names.
fn walks(seeds: std::ops::Range<u64>, steps: usize) {
    for setup in setups() {
        let mut reached = Reached::default();
        for seed in seeds.clone() {
            let r = walk(&setup, seed, steps);
            reached.gc_route_failure |= r.gc_route_failure;
            reached.retire_in_resident |= r.retire_in_resident;
            reached.lru_tie |= r.lru_tie;
            reached.retired_unservable |= r.retired_unservable;
        }
        let on = format!("{:?} on {}", setup.mode, setup.timing.spec.name);
        assert!(reached.covers(&setup.reaches), "{on}: {reached:?}");
    }
}

#[test]
fn partition_oracle_short_walks() {
    walks(1..4, 600);
}

#[test]
#[ignore = "wide walk: ci.sh runs it under --release"]
fn partition_oracle_wide_walks() {
    walks(1..33, 4000);
}
