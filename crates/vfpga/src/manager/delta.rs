//! Delta reconfiguration bookkeeping.
//!
//! A full partial download rewrites every frame of the incoming circuit,
//! yet successive occupants of a column range often share most of their
//! configuration (same circuit re-loaded, or a close variant). The delta
//! table remembers what image a column range *still holds* after its
//! circuit was evicted (a **ghost**) so the next load of that range can be
//! priced as `Bitstream::diff(old, new)` — only the frames that actually
//! differ cross the configuration port.
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
use std::collections::{BTreeSet, HashMap};

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

/// Per-manager delta-reconfiguration state: the ghost table, a memo of
/// pair diffs (emission is relocatable, so a diff computed at origin 0 is
/// valid at every origin), and the statistics.
#[derive(Debug, Default)]
pub(crate) struct DeltaTable {
    ghosts: Vec<Ghost>,
    /// `(old, new) -> changed frame count` — diffs are pure functions of
    /// the circuit pair, so each pair is diffed at most once per run.
    memo: HashMap<(u32, u32), usize>,
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

    /// Changed frames of `diff(old, new)`, memoized. Identical ids diff
    /// to zero frames (a header-only revalidation download).
    pub fn changed_frames(&mut self, lib: &CircuitLib, old: CircuitId, new: CircuitId) -> usize {
        if old == new {
            return 0;
        }
        if let Some(&n) = self.memo.get(&(old.0, new.0)) {
            return n;
        }
        let n = fpga::Bitstream::diff(lib.get(old).base_image(), lib.get(new).base_image())
            .changed_frames;
        self.memo.insert((old.0, new.0), n);
        n
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

crate::image::record! {
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
}
