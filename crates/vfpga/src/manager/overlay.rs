//! Overlaying (§2), and the merged circuit (§3) as its limit.
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
//! chosen by the configured replacement policy. What a slot holds is the
//! port's column map: the circuit whose claimed run starts at the slot's
//! first column.
//!
//! "If the FPGA is large enough to accommodate contemporaneously all
//! circuits required by all applications, a trivial solution is to merge
//! all circuits into only one: each task will use the part of the merged
//! circuit in which it is interested and ignore all other outputs."
//!
//! That is an overlay with every circuit common and no slot left to swap:
//! [`OverlayManager::merged`] builds it, one boot download of every
//! circuit side by side, every activation afterwards free. It *fails* when
//! the circuits don't all fit — the condition that motivates the whole
//! VFPGA machinery.

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

/// Why the merged solution is unavailable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// Total circuit columns exceed the device.
    AreaExceeded {
        /// Columns demanded.
        needed: u32,
        /// Columns available.
        available: u32,
    },
    /// Total I/O pins exceed the package.
    PinsExceeded {
        /// Pins demanded.
        needed: usize,
        /// Pins available.
        available: usize,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::AreaExceeded { needed, available } => {
                write!(
                    f,
                    "merged circuit needs {needed} columns, device has {available}"
                )
            }
            MergeError::PinsExceeded { needed, available } => {
                write!(
                    f,
                    "merged circuit needs {needed} pins, package has {available}"
                )
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// An overlay slot's use, for the replacement policy; its occupant is the
/// port's column map's.
#[derive(Debug, Clone, Default)]
struct OverlaySlot {
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
        let Some(remaining) = timing.spec.cols.checked_sub(common_width) else {
            return Err(VfpgaError::CommonTooWide {
                common: common_width,
                device: timing.spec.cols,
            });
        };
        // Zero-width slots are no slots.
        let n_slots = remaining.checked_div(slot_width).unwrap_or(0) as usize;
        if n_slots == 0 {
            return Err(VfpgaError::NoOverlaySlot);
        }
        Ok(OverlayManager {
            slots: vec![OverlaySlot::default(); n_slots],
            slot_width,
            policy,
            ..Self::with_common(lib, timing, common)
        })
    }

    /// The merged circuit (§3): every circuit of `lib` common, in
    /// registration order, and no overlay slot — one boot download of the
    /// summed widths, regions packed from column 0, every activation a hit
    /// that only simultaneous use of the same circuit blocks.
    ///
    /// Fails when the circuits' columns exceed the device or their pins
    /// the package.
    pub fn merged(lib: Arc<CircuitLib>, timing: ConfigTiming) -> Result<Self, MergeError> {
        let needed: u32 = lib.iter().map(|(_, c)| c.shape().0).sum();
        if needed > timing.spec.cols {
            return Err(MergeError::AreaExceeded {
                needed,
                available: timing.spec.cols,
            });
        }
        let pins: usize = lib.iter().map(|(_, c)| c.io_count()).sum();
        if pins > timing.spec.io_pins as usize {
            return Err(MergeError::PinsExceeded {
                needed: pins,
                available: timing.spec.io_pins as usize,
            });
        }
        let common = lib.iter().map(|(cid, _)| cid).collect();
        Ok(Self::with_common(lib, timing, common))
    }

    /// `common` resident, booted, and no overlay slot.
    fn with_common(lib: Arc<CircuitLib>, timing: ConfigTiming, common: Vec<CircuitId>) -> Self {
        // The port's column map covers a column set, one `u64`.
        assert!(
            timing.spec.cols <= u64::BITS,
            "{} columns do not fit a column set",
            timing.spec.cols
        );
        let mut m = OverlayManager {
            lib,
            common_owner: vec![None; common.len()],
            common,
            slots: Vec::new(),
            slot_width: 0,
            policy: Replacement::Lru,
            waiters: VecDeque::new(),
            clock: 0,
            port: DeltaPort::new(timing),
        };
        let common_width = m.common_width();
        if common_width > 0 {
            // Boot-time download of the resident region: one download
            // covering the common circuits' frames.
            m.port.boot(common_width as usize);
        }
        m
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

    /// What slot `i` holds: the circuit whose claimed run starts at its
    /// first column.
    fn occupant(&self, i: usize) -> Option<CircuitId> {
        let col0 = self.slot_col0(i);
        let cid = self.port.circuit_at(col0);
        (self.port.origin_of(cid) == Some(col0)).then_some(cid)
    }

    /// The slot that holds `cid`: only slots' loads claim runs.
    fn slot_of(&self, cid: CircuitId) -> Option<usize> {
        let col0 = self.port.origin_of(cid)?;
        Some(((col0 - self.common_width()) / self.slot_width) as usize)
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
            if self.occupant(i).is_none() {
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
        (0..self.slots.len())
            .filter_map(|i| Some((self.occupant(i)?, self.slot_col0(i), self.slot_width)))
    }

    fn block(&mut self, tid: TaskId) -> Activation {
        self.port.stats.blocks += 1;
        self.waiters.push_back(tid);
        Activation::Blocked { moved: 0 }
    }
}

impl FpgaManager for OverlayManager {
    fn name(&self) -> &'static str {
        if self.slots.is_empty() {
            "merged"
        } else {
            "overlay"
        }
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
        if let Some(i) = self.slot_of(cid) {
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
        if let Some(old) = self.occupant(i) {
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
        self.slots[i] = OverlaySlot {
            owner: Some(tid),
            last_use: stamp,
            loaded_at: stamp,
            uses: 1,
        };
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
        if let Some(i) = self.slot_of(cid) {
            if self.slots[i].owner == Some(tid) {
                self.slots[i].owner = None;
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
        let slots = self.occupied().map(|(cid, col0, _)| ResidentRegion {
            cid,
            col0,
            width: self.lib.get(cid).shape().0,
        });
        out.extend(slots);
        out
    }

    fn discard_resident(&mut self, cid: CircuitId) -> bool {
        let Some(i) = self.slot_of(cid) else {
            return false;
        };
        // The download was rejected: the slot holds garbage, the would-be
        // owner gets nothing — and the garbage can never serve as a delta
        // base.
        (self.slots[i].owner, self.slots[i].uses) = (None, 0);
        let extent = (self.slot_col0(i), self.slot_width);
        self.port.discard(cid, Some(extent));
        true
    }

    fn invalidate_image_range(&mut self, col0: u32, width: u32) {
        // An occupant whose slot the rewrite touches is its next swap's
        // base no more: each is counted over its slot.
        let extents: Vec<_> = self.occupied().collect();
        self.port.repair(col0, width, extents, true);
    }

    fn delta_stats(&self) -> Option<DeltaStats> {
        self.port.delta_stats()
    }

    fn usage(&self) -> DeviceUsage {
        let blocks = |c: CircuitId| self.lib.get(c).blocks() as u64;
        let common: u64 = self.common.iter().map(|&c| blocks(c)).sum();
        let overlays: u64 = self.occupied().map(|(c, ..)| blocks(c)).sum();
        let (used_clbs, total_clbs) = (common + overlays, self.port.timing.spec.clbs() as u64);
        // Each empty overlay slot is one independently fillable hole; with
        // no slot (the merged circuit) the free fabric is one, as on the
        // whole-device managers.
        let free_fragments = match self.slots.len() {
            0 => u32::from(used_clbs < total_clbs),
            n => n as u32 - self.occupied().count() as u32,
        };
        DeviceUsage {
            used_clbs,
            total_clbs,
            free_fragments,
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

    fn lib_of(widths: &[usize], spec: fpga::DeviceSpec) -> Arc<CircuitLib> {
        let mut lib = CircuitLib::new();
        for (i, &w) in widths.iter().enumerate() {
            let net = netlist::library::arith::ripple_adder(&format!("c{i}"), w);
            let opts = CompileOptions {
                max_height: spec.rows,
                ..Default::default()
            };
            lib.register_compiled(compile(&net, opts).unwrap());
        }
        Arc::new(lib)
    }

    #[test]
    fn small_set_merges_and_activations_are_free() {
        let spec = fpga::device::part("VF400");
        let lib = lib_of(&[4, 4, 4], spec);
        let timing = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        let mut m = OverlayManager::merged(lib, timing).unwrap();
        assert_eq!(m.name(), "merged");
        assert!(m.stats().config_time > SimDuration::ZERO);
        for t in 0..3u32 {
            match m.activate(TaskId(t), CircuitId(t)) {
                Activation::Ready { overhead, .. } => assert_eq!(overhead, SimDuration::ZERO),
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(m.stats().downloads, 1, "exactly the boot download");
    }

    #[test]
    fn oversized_set_fails_with_area() {
        let spec = fpga::device::part("VF100"); // 10 cols
        let lib = lib_of(&[8, 8, 8, 8], spec);
        let timing = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        match OverlayManager::merged(lib, timing) {
            Err(MergeError::AreaExceeded { needed, available }) => {
                assert!(needed > available);
            }
            other => panic!("expected AreaExceeded, got {other:?}"),
        }
    }

    #[test]
    fn same_subcircuit_serializes() {
        let spec = fpga::device::part("VF400");
        let lib = lib_of(&[4, 4], spec);
        let timing = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        let mut m = OverlayManager::merged(lib, timing).unwrap();
        m.activate(TaskId(0), CircuitId(0));
        assert_eq!(
            m.activate(TaskId(1), CircuitId(0)),
            Activation::Blocked { moved: 0 }
        );
        // A different sub-circuit is free though.
        assert!(matches!(
            m.activate(TaskId(2), CircuitId(1)),
            Activation::Ready { .. }
        ));
        let (_, wake) = m.op_done(TaskId(0), CircuitId(0));
        assert!(wake.contains(&TaskId(1)));
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
