//! Overlaying (§2).
//!
//! "Overlaying configures part of the FPGA to compute common functions
//! which are frequently used, while the remaining part is used to download
//! specific functions which are typically rarely used or mutually
//! exclusive."
//!
//! The device is split into a *resident* column range, configured once at
//! boot with the designated common circuits, and an *overlay* range of
//! equal-width slots. A task using a common circuit always hits; a task
//! using a specific circuit faults into an overlay slot, evicting a victim
//! chosen by the configured replacement policy.

use super::delta::DeltaStats;
use super::{
    Activation, DeltaPort, DeviceUsage, FpgaManager, ManagerStats, PreemptCost, ResidentRegion,
};
use crate::circuit::{CircuitId, CircuitLib};
use crate::error::VfpgaError;
use crate::task::TaskId;
use fpga::ConfigTiming;
use fsim::{SimDuration, TraceEvent};
use std::collections::VecDeque;
use std::sync::Arc;

/// Overlay-slot replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// Evict the least-recently-used slot.
    Lru,
    /// Evict slots in load order.
    Fifo,
    /// Evict the least-frequently-used slot (ties by LRU).
    Lfu,
}

#[derive(Debug, Clone)]
struct OverlaySlot {
    resident: Option<CircuitId>,
    owner: Option<TaskId>,
    last_use: u64,
    loaded_at: u64,
    uses: u64,
}

/// Resident-plus-overlay manager.
#[derive(Debug)]
pub struct OverlayManager {
    lib: Arc<CircuitLib>,
    /// Circuits permanently resident (loaded once at boot).
    common: Vec<CircuitId>,
    /// Who is currently using each common circuit (for blocking).
    common_owner: Vec<Option<TaskId>>,
    slots: Vec<OverlaySlot>,
    slot_width: u32,
    policy: Replacement,
    waiters: VecDeque<TaskId>,
    clock: u64,
    port: DeltaPort,
}

impl OverlayManager {
    /// Build the manager: `common` circuits become permanently resident
    /// (their total width is carved off the device); the remaining columns
    /// are divided into `slot_width`-wide overlay slots.
    ///
    /// Fails when the common circuits exceed the device or no overlay slot
    /// fits beside them.
    pub fn new(
        lib: Arc<CircuitLib>,
        timing: ConfigTiming,
        common: Vec<CircuitId>,
        slot_width: u32,
        policy: Replacement,
    ) -> Result<Self, VfpgaError> {
        let common_width: u32 = common.iter().map(|&c| lib.get(c).shape().0).sum();
        let remaining =
            timing
                .spec
                .cols
                .checked_sub(common_width)
                .ok_or(VfpgaError::CommonTooWide {
                    common: common_width,
                    device: timing.spec.cols,
                })?;
        if slot_width == 0 {
            return Err(VfpgaError::NoOverlaySlot);
        }
        // The port's column map covers a column set, one `u64`.
        assert!(
            timing.spec.cols <= u64::BITS,
            "{} columns do not fit a column set",
            timing.spec.cols
        );
        let n_slots = (remaining / slot_width) as usize;
        if n_slots == 0 {
            return Err(VfpgaError::NoOverlaySlot);
        }
        let mut m = OverlayManager {
            lib,
            common_owner: vec![None; common.len()],
            common,
            slots: vec![
                OverlaySlot {
                    resident: None,
                    owner: None,
                    last_use: 0,
                    loaded_at: 0,
                    uses: 0
                };
                n_slots
            ],
            slot_width,
            policy,
            waiters: VecDeque::new(),
            clock: 0,
            port: DeltaPort::new(timing),
        };
        if common_width > 0 {
            // Boot-time download of the resident region: one download
            // covering the common circuits' frames.
            m.port.boot(common_width as usize);
        }
        Ok(m)
    }

    /// Number of overlay slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Enable delta reconfiguration: an overlay swap is priced as the
    /// frame diff against the slot's outgoing occupant (the run the port's
    /// column map holds there) instead of a full partial download of the
    /// incoming circuit.
    pub fn enable_delta(&mut self) {
        self.port.enable_delta();
    }

    /// Total width of the permanently resident common circuits.
    fn common_width(&self) -> u32 {
        self.common.iter().map(|&c| self.lib.get(c).shape().0).sum()
    }

    /// First device column of overlay slot `i`.
    fn slot_col0(&self, i: usize) -> u32 {
        self.common_width() + i as u32 * self.slot_width
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// The slot a miss loads into: the first idle empty slot, else the
    /// idle slot the policy ranks lowest (the first one on a tie).
    fn pick_victim(&self) -> Option<usize> {
        let key = |s: &OverlaySlot| match self.policy {
            Replacement::Lru => (s.last_use, 0),
            Replacement::Fifo => (s.loaded_at, 0),
            Replacement::Lfu => (s.uses, s.last_use),
        };
        let mut best: Option<(usize, (u64, u64))> = None;
        for (i, s) in self.slots.iter().enumerate() {
            if s.owner.is_some() {
                continue;
            }
            if s.resident.is_none() {
                return Some(i);
            }
            if best.is_none_or(|(_, k)| key(s) < k) {
                best = Some((i, key(s)));
            }
        }
        best.map(|(i, _)| i)
    }

    /// The slots as `(cid, first column, slot width)`, occupied ones only.
    pub(super) fn occupied(&self) -> impl Iterator<Item = (CircuitId, u32, u32)> + '_ {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(i, s)| {
            s.resident
                .map(|cid| (cid, self.slot_col0(i), self.slot_width))
        })
    }

    /// Debug builds check after every call that changes a slot that the
    /// port's column map holds each occupant at its slot's first column.
    fn check(&self) {
        let claims = self.occupied().map(|(cid, col0, _)| (cid, col0));
        self.port.check_claims(&self.lib, claims);
    }

    fn block(&mut self, tid: TaskId) -> Activation {
        self.port.stats.blocks += 1;
        self.waiters.push_back(tid);
        Activation::Blocked { moved: 0 }
    }
}

impl FpgaManager for OverlayManager {
    fn name(&self) -> &'static str {
        "overlay"
    }

    fn activate(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        let stamp = self.tick();
        let hit = Activation::ready(SimDuration::ZERO, None);
        // Common circuit: always resident.
        if let Some(ci) = self.common.iter().position(|&c| c == cid) {
            if self.common_owner[ci].is_some_and(|o| o != tid) {
                return self.block(tid);
            }
            self.common_owner[ci] = Some(tid);
            self.port.stats.hits += 1;
            return hit;
        }
        // Specific circuit: look for it in the overlay slots.
        if let Some(i) = self.slots.iter().position(|s| s.resident == Some(cid)) {
            let s = &mut self.slots[i];
            if s.owner.is_some_and(|o| o != tid) {
                return self.block(tid);
            }
            s.owner = Some(tid);
            s.last_use = stamp;
            s.uses += 1;
            self.port.stats.hits += 1;
            return hit;
        }
        // Fault: load into a victim slot.
        let width = self.lib.get(cid).shape().0;
        if width > self.slot_width {
            // No slot will ever fit it; blocking would deadlock the task.
            return Activation::Unservable;
        }
        let Some(i) = self.pick_victim() else {
            return self.block(tid);
        };
        self.port.stats.misses += 1;
        let old = self.slots[i].resident;
        if let Some(old) = old {
            self.port.stats.evictions += 1;
            self.port.obs.push(|| TraceEvent::OverlaySwap {
                task: tid.0,
                from_overlay: old.0,
                to_overlay: cid.0,
                duration: SimDuration::ZERO, // download charged below
            });
        }
        // The port loads over the outgoing occupant in place: its frames
        // are the delta base unless a rewrite left them dirty (junk beyond
        // its width is safe: the diff writes full frames for columns the
        // base does not cover).
        let col0 = self.slot_col0(i);
        let write = self.port.load(&self.lib, tid, cid, col0, width);
        let s = &mut self.slots[i];
        s.resident = Some(cid);
        s.owner = Some(tid);
        s.last_use = stamp;
        s.loaded_at = stamp;
        s.uses = 1;
        self.check();
        Activation::ready(write.config_time, Some(write))
    }

    fn preempt(&mut self, _tid: TaskId, _cid: CircuitId) -> PreemptCost {
        // Slots are not reassigned while owned, so state survives in place.
        PreemptCost {
            overhead: SimDuration::ZERO,
            lose_progress: false,
        }
    }

    fn op_done(&mut self, tid: TaskId, cid: CircuitId) -> (SimDuration, Vec<TaskId>) {
        if let Some(ci) = self.common.iter().position(|&c| c == cid) {
            if self.common_owner[ci] == Some(tid) {
                self.common_owner[ci] = None;
            }
        }
        for s in &mut self.slots {
            if s.resident == Some(cid) && s.owner == Some(tid) {
                s.owner = None;
            }
        }
        (SimDuration::ZERO, self.waiters.drain(..).collect())
    }

    fn task_exit(&mut self, tid: TaskId) -> Vec<TaskId> {
        for o in &mut self.common_owner {
            if *o == Some(tid) {
                *o = None;
            }
        }
        for s in &mut self.slots {
            if s.owner == Some(tid) {
                s.owner = None;
            }
        }
        self.waiters.retain(|t| *t != tid);
        self.waiters.drain(..).collect()
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

    fn timing(&self) -> &ConfigTiming {
        &self.port.timing
    }

    fn resident_regions(&self) -> Vec<ResidentRegion> {
        // Common circuits are packed from column 0 in declaration order;
        // overlay slots follow at fixed offsets.
        let mut out = Vec::new();
        let mut col0 = 0u32;
        for &cid in &self.common {
            let width = self.lib.get(cid).shape().0;
            out.push(ResidentRegion { cid, col0, width });
            col0 += width;
        }
        let common_width: u32 = self.common.iter().map(|&c| self.lib.get(c).shape().0).sum();
        for (i, s) in self.slots.iter().enumerate() {
            if let Some(cid) = s.resident {
                out.push(ResidentRegion {
                    cid,
                    col0: common_width + i as u32 * self.slot_width,
                    width: self.lib.get(cid).shape().0,
                });
            }
        }
        out
    }

    fn discard_resident(&mut self, cid: CircuitId) -> bool {
        let mut any = false;
        for i in 0..self.slots.len() {
            if self.slots[i].resident == Some(cid) {
                // The download was rejected: the slot holds garbage, the
                // would-be owner gets nothing — and the garbage can never
                // serve as a delta base.
                self.slots[i].resident = None;
                self.slots[i].owner = None;
                self.slots[i].uses = 0;
                any = true;
                let extent = (self.slot_col0(i), self.slot_width);
                self.port.discard(cid, Some(extent));
            }
        }
        self.check();
        any
    }

    fn invalidate_image_range(&mut self, col0: u32, width: u32) {
        // An occupant whose slot the rewrite touches is its next swap's
        // base no more: each is counted over its slot.
        let extents: Vec<_> = self.occupied().collect();
        self.port.repair(col0, width, extents, true);
        self.check();
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        self.port.delta_stats()
    }

    fn usage(&self) -> DeviceUsage {
        let common: u64 = self
            .common
            .iter()
            .map(|&c| self.lib.get(c).blocks() as u64)
            .sum();
        let overlays: u64 = self
            .slots
            .iter()
            .filter_map(|s| s.resident)
            .map(|c| self.lib.get(c).blocks() as u64)
            .sum();
        DeviceUsage {
            used_clbs: common + overlays,
            total_clbs: self.port.timing.spec.clbs() as u64,
            // Each empty overlay slot is one independently fillable hole.
            free_fragments: self.slots.iter().filter(|s| s.resident.is_none()).count() as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::ConfigPort;
    use pnr::{compile, CompileOptions};

    fn setup(policy: Replacement) -> (OverlayManager, Vec<CircuitId>) {
        let spec = fpga::device::part("VF400"); // 20 cols
        let mut lib = CircuitLib::new();
        let mut ids = Vec::new();
        // One common circuit + four specific ones, all narrow.
        for (i, name) in ["common", "s1", "s2", "s3", "s4"].iter().enumerate() {
            let net = netlist::library::arith::ripple_adder(name, 4 + i);
            let opts = CompileOptions {
                max_height: spec.rows,
                full_height: true,
                ..Default::default()
            };
            ids.push(lib.register_compiled(compile(&net, opts).unwrap()));
        }
        let lib = Arc::new(lib);
        let widest = ids.iter().map(|&i| lib.get(i).shape().0).max().unwrap();
        // Exactly 3 overlay slots so the tests can overflow them with the
        // 4 specific circuits.
        let common_w = lib.get(ids[0]).shape().0;
        let slot_w = widest.max((spec.cols - common_w) / 3);
        let m = OverlayManager::new(
            lib,
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            vec![ids[0]],
            slot_w,
            policy,
        )
        .unwrap();
        assert_eq!(m.slot_count(), 3, "tests assume exactly 3 slots");
        (m, ids)
    }

    #[test]
    fn common_circuit_always_hits() {
        let (mut m, ids) = setup(Replacement::Lru);
        for t in 0..5u32 {
            match m.activate(TaskId(t), ids[0]) {
                Activation::Ready { overhead, .. } => assert_eq!(overhead, SimDuration::ZERO),
                other => panic!("{other:?}"),
            }
            m.op_done(TaskId(t), ids[0]);
        }
        assert_eq!(m.stats().hits, 5);
        assert_eq!(m.stats().misses, 0);
    }

    #[test]
    fn specific_circuit_faults_then_hits() {
        let (mut m, ids) = setup(Replacement::Lru);
        assert!(
            matches!(m.activate(TaskId(0), ids[1]), Activation::Ready { overhead, .. } if overhead > SimDuration::ZERO)
        );
        m.op_done(TaskId(0), ids[1]);
        assert!(
            matches!(m.activate(TaskId(1), ids[1]), Activation::Ready { overhead, .. } if overhead == SimDuration::ZERO)
        );
        assert_eq!(m.stats().misses, 1);
        assert_eq!(m.stats().hits, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let (mut m, ids) = setup(Replacement::Lru);
        let n = m.slot_count();
        // Fill all slots with s1..sN, then touch s1 so s2 is LRU.
        for (t, &cid) in ids[1..].iter().take(n).enumerate() {
            m.activate(TaskId(t as u32), cid);
            m.op_done(TaskId(t as u32), cid);
        }
        m.activate(TaskId(9), ids[1]);
        m.op_done(TaskId(9), ids[1]);
        let before = m.stats().evictions;
        // Load one more specific circuit: victim must be s2 (LRU), so s1
        // must still hit afterwards.
        let extra = ids[1 + n]; // first circuit beyond the filled slots
        m.activate(TaskId(10), extra);
        m.op_done(TaskId(10), extra);
        assert_eq!(m.stats().evictions, before + 1);
        assert!(
            matches!(m.activate(TaskId(11), ids[1]), Activation::Ready { overhead, .. } if overhead == SimDuration::ZERO)
        );
    }

    #[test]
    fn busy_slots_are_not_victims() {
        let (mut m, ids) = setup(Replacement::Lru);
        let n = m.slot_count();
        // Occupy every slot and keep them all busy (no op_done).
        for (t, &cid) in ids[1..].iter().take(n).enumerate() {
            m.activate(TaskId(t as u32), cid);
        }
        let extra = ids[1 + n];
        assert_eq!(
            m.activate(TaskId(8), extra),
            Activation::Blocked { moved: 0 }
        );
        // Release one: the blocked task can now be woken and retried.
        let (_, wake) = m.op_done(TaskId(0), ids[1]);
        assert!(wake.contains(&TaskId(8)));
        assert!(matches!(
            m.activate(TaskId(8), extra),
            Activation::Ready { .. }
        ));
    }

    #[test]
    fn fifo_and_lfu_policies_differ_from_lru() {
        // Smoke: same access pattern, count evictions of a probe circuit.
        for policy in [Replacement::Fifo, Replacement::Lfu] {
            let (mut m, ids) = setup(policy);
            let n = m.slot_count();
            for (t, &cid) in ids[1..].iter().take(n).enumerate() {
                m.activate(TaskId(t as u32), cid);
                m.op_done(TaskId(t as u32), cid);
            }
            // Hammer s1 (raises its use count and recency).
            for t in 20..25u32 {
                m.activate(TaskId(t), ids[1]);
                m.op_done(TaskId(t), ids[1]);
            }
            let extra = ids[1 + n];
            m.activate(TaskId(30), extra);
            m.op_done(TaskId(30), extra);
            // Under LFU, s1 must survive (highest use count).
            if policy == Replacement::Lfu {
                assert!(matches!(
                    m.activate(TaskId(31), ids[1]),
                    Activation::Ready { overhead, .. } if overhead == SimDuration::ZERO
                ));
            }
        }
    }

    #[test]
    fn swap_between_variants_is_priced_as_the_delta() {
        let spec = fpga::device::part("VF400");
        let opts = CompileOptions {
            max_height: spec.rows,
            full_height: true,
            ..Default::default()
        };
        let base = compile(&netlist::library::arith::array_multiplier("ob", 5), opts).unwrap();
        let var = pnr::mutate_tables(&base, 0.25, 5);
        let w = base.placed.width;
        let mut lib = CircuitLib::new();
        let a = lib.register_compiled(base);
        let b = lib.register_compiled(var);
        // One overlay slot spanning the device: every miss is a swap.
        let mut m = OverlayManager::new(
            Arc::new(lib),
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            vec![],
            spec.cols,
            Replacement::Lru,
        )
        .unwrap();
        assert_eq!(m.slot_count(), 1);
        m.enable_delta();
        let full = match m.activate(TaskId(0), a) {
            Activation::Ready { overhead, .. } => overhead,
            other => panic!("{other:?}"),
        };
        m.op_done(TaskId(0), a);
        // Swap a -> b: the outgoing occupant is the base.
        let delta = match m.activate(TaskId(1), b) {
            Activation::Ready { overhead, .. } => overhead,
            other => panic!("{other:?}"),
        };
        assert!(delta < full, "variant swap must beat the full download");
        let ds = m.delta_stats().unwrap();
        assert_eq!((ds.delta_downloads, ds.full_downloads), (1, 1));
        assert!(ds.frames_saved > 0);
        m.op_done(TaskId(1), b);
        // A repair rewrote the slot: the occupant is no longer a base.
        m.invalidate_image_range(0, w);
        match m.activate(TaskId(2), a) {
            Activation::Ready { overhead, .. } => assert_eq!(overhead, full),
            other => panic!("{other:?}"),
        }
        let ds = m.delta_stats().unwrap();
        assert_eq!(ds.delta_downloads, 1, "no delta against a repaired slot");
        assert_eq!(ds.full_downloads, 2);
        assert_eq!(ds.invalidations, 1);
        m.op_done(TaskId(2), a);
        // The fresh download re-synced the slot: deltas work again.
        match m.activate(TaskId(3), b) {
            Activation::Ready { overhead, .. } => assert!(overhead < full),
            other => panic!("{other:?}"),
        }
        assert_eq!(m.delta_stats().unwrap().delta_downloads, 2);
        m.op_done(TaskId(3), b);
        // A CRC-rejected download empties the slot: next load is full.
        assert!(m.discard_resident(b));
        match m.activate(TaskId(4), a) {
            Activation::Ready { overhead, .. } => assert_eq!(overhead, full),
            other => panic!("{other:?}"),
        }
        let ds = m.delta_stats().unwrap();
        assert_eq!(ds.full_downloads, 3);
        assert_eq!(ds.invalidations, 2);
    }

    #[test]
    fn oversized_circuit_is_unservable() {
        let spec = fpga::device::part("VF400");
        let mut lib = CircuitLib::new();
        let big = lib.register_compiled(
            compile(
                &netlist::library::arith::array_multiplier("big", 8),
                CompileOptions {
                    max_height: spec.rows,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let mut m = OverlayManager::new(
            Arc::new(lib),
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            vec![],
            2,
            Replacement::Lru,
        )
        .unwrap();
        assert_eq!(m.activate(TaskId(0), big), Activation::Unservable);
    }

    #[test]
    fn impossible_layouts_are_errors_not_panics() {
        let spec = fpga::device::part("VF100"); // 10 cols
        let mut lib = CircuitLib::new();
        for i in 0..2 {
            let net = netlist::library::arith::ripple_adder(&format!("w{i}"), 16);
            let opts = CompileOptions {
                max_height: spec.rows,
                full_height: true,
                ..Default::default()
            };
            lib.register_compiled(compile(&net, opts).unwrap());
        }
        let lib = Arc::new(lib);
        let timing = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        // Both wide circuits resident: the common region overflows.
        let err = OverlayManager::new(
            lib.clone(),
            timing,
            vec![CircuitId(0), CircuitId(1)],
            2,
            Replacement::Lru,
        )
        .unwrap_err();
        assert!(matches!(err, VfpgaError::CommonTooWide { .. }), "{err}");
        // One resident, slots wider than the leftover: no slot fits.
        let err =
            OverlayManager::new(lib, timing, vec![CircuitId(0)], 64, Replacement::Lru).unwrap_err();
        assert!(matches!(err, VfpgaError::NoOverlaySlot), "{err}");
    }
}
