//! Delta reconfiguration bookkeeping.
//!
//! A full partial download rewrites every frame of the incoming circuit,
//! yet successive occupants of a column range often share most of their
//! configuration (same circuit re-loaded, or a close variant). The delta
//! table remembers what image a column range *still holds* after its
//! circuit was evicted (a **ghost**) so the next load of that range can be
//! priced as the frames that actually differ — only those cross the
//! configuration port. The count is a merge of the two circuits'
//! [`fpga::bitstream::ColumnImage`]s, derived at registration: the columns
//! `Bitstream::diff(old, new)` writes, with no stream built to count them.
//!
//! Correctness rests on one invariant: **a ghost is dropped the moment its
//! physical frames can no longer be proven equal to the evicted circuit's
//! image**. Every path that rewrites fabric outside the manager's own
//! download accounting — SEU scrub repairs, column retirement, relocation,
//! garbage collection, device crash/restore — invalidates overlapping
//! ghosts, so a stale delta is never applied. The byte-level equivalence
//! of `apply(old); apply(diff)` and `apply(new)` is proven in
//! `fpga::device` and the `pnr` property suite; managers only price.

use super::EventBuf;
use crate::circuit::{CircuitId, CircuitLib};
use fsim::TraceEvent;
use std::collections::BTreeSet;

crate::counters::counter_table! {
    /// Counters for the delta-download path, reported separately from
    /// [`super::ManagerStats`]: all zero while the feature is off.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DeltaStats {
        /// Downloads served as a frame delta against a tracked base.
        pub delta_downloads: u64,
        /// Downloads that went full-price while delta was enabled (no usable
        /// base for the target columns).
        pub full_downloads: u64,
        /// Frames actually written by delta downloads.
        pub frames_written: u64,
        /// Frames a full load would have written minus what the deltas wrote.
        pub frames_saved: u64,
        /// Tracked bases dropped because their frames could no longer be
        /// trusted (overwrite, repair, retirement, relocation, GC, crash).
        pub invalidations: u64,
    }
}

/// An evicted circuit whose configuration frames are still physically
/// present on a free column range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ghost {
    pub col0: u32,
    pub width: u32,
    pub cid: CircuitId,
}

impl Ghost {
    fn overlaps(&self, col0: u32, width: u32) -> bool {
        self.col0 < col0 + width && col0 < self.col0 + self.width
    }
}

/// Per-manager delta-reconfiguration state: the ghost table, the dirty
/// set and the statistics. Pricing keeps no state: it compares the two
/// circuits' column images, which the library derived at registration.
#[derive(Debug, Default)]
pub(crate) struct DeltaTable {
    ghosts: Vec<Ghost>,
    /// Circuits whose resident frames were corrupted or rewritten outside
    /// the download path; evicting one must not leave a ghost until a
    /// fresh download makes content equal image again.
    dirty: BTreeSet<u32>,
    pub stats: DeltaStats,
}

impl DeltaTable {
    pub fn new() -> Self {
        Self::default()
    }

    /// Frames a download of `new` over a ghost of `old` writes: the columns
    /// their column images configure differently, the count
    /// `Bitstream::diff` of their streams reports. Identical ids are zero
    /// frames (a header-only revalidation download).
    pub fn changed_frames(&self, lib: &CircuitLib, old: CircuitId, new: CircuitId) -> usize {
        if old == new {
            return 0;
        }
        lib.get(old)
            .column_image()
            .changed_frames(lib.get(new).column_image())
    }

    /// The ghost anchored exactly at `col0`, if any.
    pub fn base_at(&self, col0: u32) -> Option<Ghost> {
        self.ghosts.iter().copied().find(|g| g.col0 == col0)
    }

    /// Record that the frames of `cid` remain on `[col0, col0+width)`
    /// after its eviction. Skipped (and counted as an invalidation) when
    /// the circuit's frames are dirty.
    pub fn record_ghost(&mut self, col0: u32, width: u32, cid: CircuitId, obs: &mut EventBuf) {
        if self.dirty.contains(&cid.0) {
            self.stats.invalidations += 1;
            obs.push(|| TraceEvent::DeltaInvalidate {
                col0,
                width,
                reason: "dirty",
            });
            return;
        }
        // Ghosts stay disjoint: anything the new ghost covers is stale.
        self.invalidate_overlap(col0, width, "overwrite", obs);
        self.ghosts.push(Ghost { col0, width, cid });
    }

    /// Remove and return the ghost at `col0` without counting an
    /// invalidation (it is being consumed as a delta base).
    pub fn consume_base(&mut self, col0: u32) -> Option<Ghost> {
        let i = self.ghosts.iter().position(|g| g.col0 == col0)?;
        Some(self.ghosts.remove(i))
    }

    /// Drop every ghost overlapping `[col0, col0+width)`, counting each as
    /// an invalidation. Returns how many were dropped.
    pub fn invalidate_overlap(
        &mut self,
        col0: u32,
        width: u32,
        reason: &'static str,
        obs: &mut EventBuf,
    ) -> usize {
        let mut dropped = 0;
        self.ghosts.retain(|g| {
            if g.overlaps(col0, width) {
                dropped += 1;
                let (gc, gw) = (g.col0, g.width);
                obs.push(|| TraceEvent::DeltaInvalidate {
                    col0: gc,
                    width: gw,
                    reason,
                });
                false
            } else {
                true
            }
        });
        self.stats.invalidations += dropped as u64;
        dropped
    }

    /// Drop every ghost (garbage collection rewrites arbitrary columns;
    /// a crash restore re-downloads the whole device).
    pub fn invalidate_all(&mut self, reason: &'static str, obs: &mut EventBuf) -> usize {
        let dropped = self.ghosts.len();
        for g in self.ghosts.drain(..) {
            let (gc, gw) = (g.col0, g.width);
            obs.push(|| TraceEvent::DeltaInvalidate {
                col0: gc,
                width: gw,
                reason,
            });
        }
        self.stats.invalidations += dropped as u64;
        dropped
    }

    /// Mark `cid`'s resident frames as diverged from its image (an upset
    /// landed on it, or an external rewrite covered it).
    pub fn mark_dirty(&mut self, cid: CircuitId) {
        self.dirty.insert(cid.0);
    }

    /// A fresh download of `cid` just completed: content equals image.
    pub fn clear_dirty(&mut self, cid: CircuitId) {
        self.dirty.remove(&cid.0);
    }

    /// Whether `cid`'s frames are marked diverged.
    pub fn is_dirty(&self, cid: CircuitId) -> bool {
        self.dirty.contains(&cid.0)
    }

    /// Live ghost count (diagnostics / snapshots).
    pub fn ghost_count(&self) -> usize {
        self.ghosts.len()
    }

    /// The table as a checkpoint carries it.
    pub fn image(&self) -> DeltaImage {
        DeltaImage {
            stats: self.stats,
            ghosts: self.ghost_count() as u64,
        }
    }

    /// Rebuild from an [`image`](Self::image): counters restored, ghosts
    /// dropped and counted as crash invalidations (a count that does not
    /// fit is a damaged image).
    pub fn restored(img: &DeltaImage) -> Result<Self, String> {
        let mut stats = img.stats;
        stats.invalidations = stats
            .invalidations
            .checked_add(img.ghosts)
            .ok_or("delta invalidations overflow 64 bits")?;
        Ok(DeltaTable {
            stats,
            ..DeltaTable::new()
        })
    }
}

fsim::record! {
    /// A delta table's checkpoint image: the counters plus how many ghosts
    /// were live. Ghosts themselves are *not* restored — a restore implies
    /// the fabric was re-downloaded, so every base is stale by definition.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct DeltaImage {
        stats: DeltaStats,
        ghosts: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::overlay::{OverlayManager, Replacement};
    use crate::manager::partition::{PartitionManager, PartitionMode};
    use crate::manager::{Activation, FpgaManager, PreemptAction};
    use crate::task::TaskId;
    use fpga::{ConfigPort, ConfigTiming};
    use fsim::SimDuration;
    use pnr::{compile, CompileOptions};
    use std::sync::Arc;

    fn buf() -> EventBuf {
        let mut b = EventBuf::default();
        b.set_recording(true);
        b
    }

    #[test]
    fn ghosts_stay_disjoint_and_overlap_invalidates() {
        let mut t = DeltaTable::new();
        let mut obs = buf();
        t.record_ghost(0, 4, CircuitId(1), &mut obs);
        t.record_ghost(4, 4, CircuitId(2), &mut obs);
        assert_eq!(t.ghost_count(), 2);
        assert_eq!(t.stats.invalidations, 0);
        // A ghost covering [2, 6) evicts both neighbours.
        t.record_ghost(2, 4, CircuitId(3), &mut obs);
        assert_eq!(t.ghost_count(), 1);
        assert_eq!(t.stats.invalidations, 2);
        assert_eq!(t.base_at(2).unwrap().cid, CircuitId(3));
        assert!(t.base_at(0).is_none());
        let inv = obs
            .drain()
            .iter()
            .filter(|e| matches!(e, TraceEvent::DeltaInvalidate { .. }))
            .count();
        assert_eq!(inv, 2);
    }

    #[test]
    fn dirty_circuits_never_become_bases() {
        let mut t = DeltaTable::new();
        let mut obs = buf();
        t.mark_dirty(CircuitId(7));
        t.record_ghost(0, 4, CircuitId(7), &mut obs);
        assert_eq!(t.ghost_count(), 0, "dirty image must not be a base");
        assert_eq!(t.stats.invalidations, 1);
        t.clear_dirty(CircuitId(7));
        t.record_ghost(0, 4, CircuitId(7), &mut obs);
        assert_eq!(t.ghost_count(), 1, "clean again after a fresh download");
    }

    #[test]
    fn snapshot_round_trip_drops_ghosts_as_invalidations() {
        let mut t = DeltaTable::new();
        let mut obs = buf();
        t.stats.delta_downloads = 3;
        t.stats.frames_saved = 17;
        t.record_ghost(0, 4, CircuitId(1), &mut obs);
        t.record_ghost(8, 2, CircuitId(2), &mut obs);
        let r = DeltaTable::restored(&t.image()).unwrap();
        assert_eq!(r.ghost_count(), 0);
        assert_eq!(r.stats.delta_downloads, 3);
        assert_eq!(r.stats.frames_saved, 17);
        assert_eq!(r.stats.invalidations, t.stats.invalidations + 2);
        let mut wrapped = t.image();
        (wrapped.stats.invalidations, wrapped.ghosts) = (1, u64::MAX);
        assert!(
            DeltaTable::restored(&wrapped).is_err(),
            "ghosts overflow the count"
        );
    }

    /// `(lib, narrow, wide)` on VF400: a compiled multiplier and a copy one
    /// column wider whose only difference is one block moved into the new
    /// last column. Their images differ in exactly two columns: the one
    /// the block left and the tail column only the wide one configures.
    fn width_pair(spec: fpga::DeviceSpec) -> (Arc<CircuitLib>, CircuitId, CircuitId) {
        let opts = CompileOptions {
            max_height: spec.rows,
            full_height: true,
            ..Default::default()
        };
        let narrow = compile(&netlist::library::arith::array_multiplier("wn", 4), opts).unwrap();
        let mut wide = narrow.clone();
        wide.placed.circuit.name = "ww".into();
        wide.placed.width += 1;
        wide.placed.coords[0] = (narrow.placed.width, 0);
        let mut lib = CircuitLib::new();
        let n = lib.register_compiled(narrow);
        let w = lib.register_compiled(wide);
        (Arc::new(lib), n, w)
    }

    /// Partition `[wide, 1, 1, ...]` in fixed mode: loading `second` over
    /// the ghost `first` leaves, returning the second load's overhead.
    fn reload_over_ghost(first_wide: bool) -> (SimDuration, DeltaStats) {
        let spec = fpga::device::part("VF400");
        let (lib, narrow, wide) = width_pair(spec);
        let ww = lib.get(wide).shape().0;
        let mut widths = vec![ww];
        widths.extend(std::iter::repeat_n(1, (spec.cols - ww) as usize));
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
        let (first, second) = if first_wide {
            (wide, narrow)
        } else {
            (narrow, wide)
        };
        assert!(matches!(
            m.activate(TaskId(0), first),
            Activation::Ready { .. }
        ));
        m.op_done(TaskId(0), first);
        match m.activate(TaskId(1), second) {
            Activation::Ready { overhead, .. } => (overhead, m.delta_stats().unwrap()),
            other => panic!("{other:?}"),
        }
    }

    fn stats(delta: u64, full: u64, written: u64, saved: u64, inval: u64) -> DeltaStats {
        DeltaStats {
            delta_downloads: delta,
            full_downloads: full,
            frames_written: written,
            frames_saved: saved,
            invalidations: inval,
        }
    }

    /// A narrow circuit over a wider ghost: the ghost's tail column is a
    /// clearing write and counts as a changed frame.
    #[test]
    fn narrow_load_over_a_wider_ghost_counts_the_tail() {
        let spec = fpga::device::part("VF400");
        let (lib, narrow, wide) = width_pair(spec);
        let dt = DeltaTable::new();
        assert_eq!(dt.changed_frames(&lib, wide, narrow), 2);
        assert_eq!(dt.changed_frames(&lib, narrow, wide), 2);
        let (overhead, ds) = reload_over_ghost(true);
        assert_eq!(overhead, SimDuration::from_nanos(2_030_000));
        assert_eq!(ds, stats(1, 1, 2, 1, 0));
    }

    /// A wide circuit over a narrower ghost: the new tail column is a write.
    #[test]
    fn wide_load_over_a_narrower_ghost_writes_the_tail() {
        let (overhead, ds) = reload_over_ghost(false);
        assert_eq!(overhead, SimDuration::from_nanos(2_030_000));
        assert_eq!(ds, stats(1, 1, 2, 2, 0));
    }

    /// One overlay slot spanning the device: a narrow circuit swapped in
    /// over a wider occupant pays for the occupant's tail column.
    #[test]
    fn overlay_swap_over_a_wider_base_counts_the_tail() {
        let spec = fpga::device::part("VF400");
        let (lib, narrow, wide) = width_pair(spec);
        let mut m = OverlayManager::new(
            lib,
            ConfigTiming {
                spec,
                port: ConfigPort::SerialFast,
            },
            vec![],
            spec.cols,
            Replacement::Lru,
        )
        .unwrap();
        m.enable_delta();
        assert!(matches!(
            m.activate(TaskId(0), wide),
            Activation::Ready { .. }
        ));
        m.op_done(TaskId(0), wide);
        let overhead = match m.activate(TaskId(1), narrow) {
            Activation::Ready { overhead, .. } => overhead,
            other => panic!("{other:?}"),
        };
        assert_eq!(overhead, SimDuration::from_nanos(2_030_000));
        assert_eq!(m.delta_stats().unwrap(), stats(1, 1, 2, 1, 0));
    }
}
