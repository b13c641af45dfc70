//! What the columns hold, and delta reconfiguration priced off it.
//!
//! The port of a manager that allocates columns (partitions, overlay slots)
//! keeps a **column map**: what each column holds as far as the port can
//! prove. A load or relocation writes a *run*, its circuit's image from an
//! origin column on, dropping every older run it touches, whole; managers
//! *claim* their residents' runs. An unclaimed run is a **ghost**, an
//! evicted or staged image still on the fabric: a load anchored on it is
//! priced as the frames the two differ in, read off the library
//! ([`CircuitLib::changed_frames`](crate::circuit::CircuitLib::changed_frames),
//! derived from their [`fpga::bitstream::ColumnImage`]s at registration).
//!
//! **A run is dropped the moment its frames can no longer be proven equal
//! to its image**: the port's writes update the map, and every other
//! rewrite (a dirty eviction, GC, retirement, a CRC discard, a repair, a
//! restore) is one port method, so a stale delta is never applied; that
//! `apply(old); apply(diff)` equals `apply(new)` is proven in
//! `fpga::device` and the `pnr` property suite. The map is kept with
//! pricing off too: only prices, [`DeltaStats`] and `DeltaInvalidate`
//! events wait for `enable_delta()`.

use super::{columns, record, DeltaPort, Write, WriteKind};
use crate::circuit::{CircuitId, CircuitLib};
use crate::task::TaskId;
use fsim::TraceEvent;

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

/// The column map of a [`DeltaPort`], as column sets (bit `c`: column
/// `c`, at most 64): the columns that hold a run, the origin column of
/// each run — a run is its origin's held columns up to the next origin,
/// and a column that holds none holds frames no image is known to match —
/// and the runs a resident claims; the circuit each run holds, at its
/// origin; each resident's origin by circuit id; the circuits whose frames
/// a repair touched while resident — never a base, and dirty until their
/// next load, past the eviction that refused their ghost — and the delta
/// counters, `None` until pricing is enabled.
#[derive(Debug)]
pub(crate) struct ColumnMap {
    held: u64,
    starts: u64,
    claimed: u64,
    cid: [CircuitId; 64],
    origin: Vec<Option<u32>>,
    dirty: Vec<CircuitId>,
    stats: Option<DeltaStats>,
}

impl Default for ColumnMap {
    fn default() -> Self {
        ColumnMap {
            held: 0,
            starts: 0,
            claimed: 0,
            cid: [CircuitId(0); 64],
            origin: Vec::new(),
            dirty: Vec::new(),
            stats: None,
        }
    }
}

impl ColumnMap {
    /// The width of the run written from `origin`.
    fn span(&self, origin: u32) -> u32 {
        let next = (self.starts >> origin) & !1;
        (!(self.held >> origin) | next).trailing_zeros()
    }

    /// The run written from `origin`: its circuit and width.
    fn run(&self, origin: u32) -> Option<(CircuitId, u32)> {
        let start = self.starts & 1 << origin != 0;
        start.then(|| (self.cid[origin as usize], self.span(origin)))
    }

    /// Every run in column order: `(cid, origin, width, claimed)`.
    fn runs(&self) -> impl Iterator<Item = (CircuitId, u32, u32, bool)> + '_ {
        (0..64).filter_map(|c| self.run(c).map(|(cid, w)| (cid, c, w, self.claims(c))))
    }

    /// Resident `cid`'s run is no longer claimed: its origin and width.
    fn unclaim(&mut self, cid: CircuitId) -> Option<(u32, u32)> {
        let origin = self.origin.get_mut(cid.0 as usize)?.take()?;
        let width = self.span(origin);
        self.claimed &= !columns(origin, width);
        Some((origin, width))
    }

    fn claims(&self, col: u32) -> bool {
        self.claimed & 1 << col != 0
    }

    fn is_dirty(&self, cid: CircuitId) -> bool {
        self.dirty.contains(&cid)
    }

    /// `[col0, col0 + width)`, which no resident claims, holds no run.
    fn clear(&mut self, col0: u32, width: u32) {
        let cols = !columns(col0, width);
        (self.held, self.starts) = (self.held & cols, self.starts & cols);
    }

    /// An unclaimed run of `cid`, `width` wide from `col0`.
    fn put(&mut self, cid: CircuitId, col0: u32, width: u32) {
        self.clear(col0, width);
        (self.held, self.starts) = (self.held | columns(col0, width), self.starts | 1 << col0);
        self.cid[col0 as usize] = cid;
    }
}

impl DeltaPort {
    /// Price loads against the ghosts the map holds from now on.
    pub(crate) fn enable_delta(&mut self) {
        self.map.stats.get_or_insert_with(DeltaStats::default);
    }

    pub(crate) fn delta_stats(&self) -> Option<DeltaStats> {
        self.map.stats
    }

    /// Count a base over `[col0, col0 + width)` dropped for `reason`.
    fn invalidated(&mut self, col0: u32, width: u32, reason: &'static str) {
        if let Some(stats) = &mut self.map.stats {
            stats.invalidations += 1;
            self.obs.push(|| TraceEvent::DeltaInvalidate {
                col0,
                width,
                reason,
            });
        }
    }

    /// Drop every ghost touching `[col0, col0 + width)`, whole, counted for
    /// `reason`.
    fn drop_ghosts(&mut self, col0: u32, width: u32, reason: &'static str) {
        let mut ghosts = self.map.held & !self.map.claimed & columns(col0, width);
        while ghosts != 0 {
            let c = ghosts.trailing_zeros();
            ghosts &= ghosts - 1;
            // The run holding `c` starts at the last origin up to `c`.
            let origin = 63 - (self.map.starts & columns(0, c + 1)).leading_zeros();
            let w = self.map.span(origin);
            self.map.clear(origin, w);
            self.invalidated(origin, w, reason);
            ghosts &= !columns(origin, w);
        }
    }

    /// Load `cid` onto `[col0, col0 + width)`, its resident's region, its
    /// run the circuit's own width. The base is the run anchored at `col0`:
    /// a ghost, or the resident a manager loads over in place unless that
    /// one is dirty. With delta downloads on and a base whose diff is fewer
    /// frames than the circuit's own, the load is priced as the diff — a
    /// [`WriteKind::Delta`] write that consumes the base, uncounted —
    /// otherwise it is a partial download of the circuit's frames. The new
    /// run drops every ghost it touches (`"overwrite"`) and leaves `cid`
    /// clean.
    pub(crate) fn load(
        &mut self,
        lib: &CircuitLib,
        tid: TaskId,
        cid: CircuitId,
        col0: u32,
        width: u32,
    ) -> Write {
        let image = lib.get(cid);
        let (frames, w) = (image.frames(), image.shape().0);
        let (run, in_place) = (self.map.run(col0), self.map.claims(col0));
        if let Some((old, _)) = run.filter(|_| in_place) {
            self.map.unclaim(old);
        }
        let base = run.filter(|&(b, _)| !in_place || !self.map.is_dirty(b));
        if !self.map.dirty.is_empty() {
            self.map.dirty.retain(|&c| c != cid);
        }
        let delta = self.map.stats.as_mut().and_then(|stats| {
            let priced = base.map(|(from, bw)| (from, bw, lib.changed_frames(from, cid)));
            let delta = priced.filter(|&(.., changed)| changed < frames);
            match delta {
                Some((.., changed)) => {
                    stats.delta_downloads += 1;
                    stats.frames_written += changed as u64;
                    stats.frames_saved += (frames - changed) as u64;
                }
                None => stats.full_downloads += 1,
            }
            delta
        });
        // A consumed base, or the resident replaced in place, is no
        // invalidation.
        if let Some((_, bw)) = run.filter(|_| in_place || delta.is_some()) {
            self.map.clear(col0, bw);
        }
        let write = match delta {
            None => self.write(tid, cid, frames, col0, width),
            Some((from, _, changed)) => {
                let d = self.timing.frame_transfer(changed).1;
                self.count(changed, d);
                self.obs.push(|| TraceEvent::DeltaDownload {
                    task: tid.0,
                    from_circuit: from.0,
                    to_circuit: cid.0,
                    frames: changed as u32,
                    full_frames: frames as u32,
                    duration: d,
                });
                record(cid, col0, width, WriteKind::Delta, d)
            }
        };
        self.drop_ghosts(col0, w, "overwrite");
        self.claim(cid, col0, w);
        write
    }

    /// `cid`'s run `width` wide from `col0`, claimed.
    fn claim(&mut self, cid: CircuitId, col0: u32, width: u32) {
        self.map.put(cid, col0, width);
        self.map.claimed |= columns(col0, width);
        let i = cid.0 as usize;
        if self.map.origin.len() <= i {
            self.map.origin.resize(i + 1, None);
        }
        self.map.origin[i] = Some(col0);
    }

    /// The first column of resident `cid`'s run.
    pub(crate) fn origin_of(&self, cid: CircuitId) -> Option<u32> {
        *self.map.origin.get(cid.0 as usize)?
    }

    /// The circuit of the run last written from `origin`: a resident's
    /// when `origin_of` names `origin` for it.
    pub(crate) fn circuit_at(&self, origin: u32) -> CircuitId {
        self.map.cid[origin as usize]
    }

    /// Move idle resident `cid` onto `[col0, col0 + width)`, the one price
    /// of a relocation: `width` frames, and a sequential circuit's state
    /// saved and restored. A GC run's move (`gc`: the task charged) counts
    /// as a download and two state moves, traced, as GC time. The run
    /// leaves its old columns and drops every ghost it lands on
    /// (`"relocate"`).
    pub(crate) fn relocate(
        &mut self,
        gc: Option<TaskId>,
        lib: &CircuitLib,
        cid: CircuitId,
        col0: u32,
        width: u32,
    ) -> Write {
        self.discard(cid, None);
        self.drop_ghosts(col0, lib.get(cid).shape().0, "relocate");
        self.claim(cid, col0, lib.get(cid).shape().0);
        let (n, sequential) = (width as usize, lib.get(cid).is_sequential());
        let state = self.timing.readback_time(n) * u64::from(sequential) * 2;
        self.stats.relocations += 1;
        let d = match gc {
            None => self.timing.frame_transfer(n).1,
            Some(tid) => {
                // Booked as GC time, not download time, so that an overhead
                // breakdown's slices stay disjoint.
                let d = self.write(tid, cid, n, col0, width).config_time;
                self.stats.config_time -= d;
                self.stats.state_saves += u64::from(sequential);
                self.stats.state_restores += u64::from(sequential);
                self.stats.gc_time += d + state;
                d
            }
        };
        record(cid, col0, width, WriteKind::Relocate, d + state)
    }

    /// Resident `cid` was evicted: its run stays as a ghost — unless the
    /// circuit is dirty, when the frames are dropped (`"dirty"`).
    pub(crate) fn evict(&mut self, cid: CircuitId) {
        if let Some((origin, w)) = self.map.unclaim(cid) {
            if self.map.is_dirty(cid) {
                self.map.clear(origin, w);
                self.invalidated(origin, w, "dirty");
            }
        }
    }

    /// Garbage collection rewrites arbitrary columns: every ghost goes
    /// (`"gc"`).
    pub(crate) fn collect(&mut self) {
        self.drop_ghosts(0, 64, "gc");
    }

    /// `[col0, col0 + width)` retires: its ghosts go (`"retire"`).
    pub(crate) fn retire(&mut self, col0: u32, width: u32) {
        self.drop_ghosts(col0, width, "retire");
    }

    /// Resident `cid`'s frames are garbage (a CRC-rejected download) or
    /// forgotten; `counted`, the region a manager loads over in place, is
    /// counted as a `"discard"`.
    pub(crate) fn discard(&mut self, cid: CircuitId, counted: Option<(u32, u32)>) {
        if let Some((origin, w)) = self.map.unclaim(cid) {
            self.map.clear(origin, w);
        }
        if let Some((col0, width)) = counted {
            self.invalidated(col0, width, "discard");
        }
    }

    /// `[col0, col0 + width)` was rewritten or corrupted outside a download:
    /// its ghosts go (`"repair"`), and each resident whose region — its
    /// manager's `extents` entry `(cid, col0, width)` — the range touches
    /// is dirty, that region counted when the manager loads over its
    /// residents in place (`counted`).
    pub(crate) fn repair(
        &mut self,
        col0: u32,
        width: u32,
        extents: impl IntoIterator<Item = (CircuitId, u32, u32)>,
        counted: bool,
    ) {
        self.drop_ghosts(col0, width, "repair");
        for (cid, c0, w) in extents {
            if c0 < col0 + width && col0 < c0 + w {
                if !self.map.is_dirty(cid) {
                    self.map.dirty.push(cid);
                }
                if counted {
                    self.invalidated(c0, w, "repair");
                }
            }
        }
    }

    /// A migration staged `cid`'s frames onto `[col0, col0 + width)`, which
    /// no resident claims: with pricing on they are a ghost, dropping the
    /// ghosts they touch (`"overwrite"`), unless the circuit is dirty
    /// (`"dirty"`); with pricing off nothing was staged. Returns whether
    /// the staged copy was kept as a ghost — never for a refused one, even
    /// over an older ghost of `cid` anchored at `col0`.
    pub(crate) fn implant(&mut self, col0: u32, width: u32, cid: CircuitId) -> bool {
        if self.map.stats.is_none() {
            return false;
        }
        if self.map.is_dirty(cid) {
            self.invalidated(col0, width, "dirty");
            return false;
        }
        debug_assert!(self.map.claimed & columns(col0, width) == 0);
        self.drop_ghosts(col0, width, "overwrite");
        self.map.put(cid, col0, width);
        true
    }

    /// The map as a checkpoint carries it; `None` while pricing is off.
    pub(crate) fn delta_image(&self) -> Option<DeltaImage> {
        let ghosts = self.map.runs().filter(|r| !r.3).count() as u64;
        self.map.stats.map(|stats| DeltaImage { stats, ghosts })
    }

    /// After a restore from `image` (present exactly when pricing is on):
    /// the fabric was re-downloaded, so only the residents' `claims`
    /// (`(cid, origin)`) hold a known image, nothing is dirty, and the
    /// image's ghosts are counted (one that overflows is a damaged image,
    /// refused with nothing changed).
    pub(crate) fn restore_map(
        &mut self,
        lib: &CircuitLib,
        image: Option<&DeltaImage>,
        claims: impl IntoIterator<Item = (CircuitId, u32)>,
    ) -> Result<(), String> {
        let stats = match (self.map.stats, image) {
            (None, None) => None,
            (Some(_), Some(DeltaImage { stats, ghosts })) => Some(DeltaStats {
                invalidations: (stats.invalidations.checked_add(*ghosts))
                    .ok_or("delta invalidations overflow 64 bits")?,
                ..*stats
            }),
            _ => return Err("a delta section belongs exactly to a delta manager".into()),
        };
        self.map = ColumnMap {
            stats,
            ..ColumnMap::default()
        };
        for (cid, origin) in claims {
            self.claim(cid, origin, lib.get(cid).shape().0);
        }
        Ok(())
    }

    /// Debug builds: the map's claims are exactly the residents' `claims`
    /// (`(cid, origin)`), each holding its circuit's image from its origin.
    pub(crate) fn check_claims(
        &self,
        lib: &CircuitLib,
        claims: impl Iterator<Item = (CircuitId, u32)>,
    ) {
        if cfg!(debug_assertions) {
            let (mut held, mut n) = (0, 0);
            for (cid, origin) in claims {
                let w = lib.get(cid).shape().0;
                let ok =
                    self.map.run(origin) == Some((cid, w)) && self.origin_of(cid) == Some(origin);
                assert!(ok, "no claimed run of circuit {} at {origin}", cid.0);
                (held, n) = (held | columns(origin, w), n + 1);
            }
            let indexed = self.map.origin.iter().flatten().count();
            assert!(
                held == self.map.claimed && indexed == n,
                "a claim no resident holds"
            );
        }
    }
}

fsim::record! {
    /// The column map's checkpoint image: the counters plus how many ghosts
    /// were live. Ghosts themselves are *not* restored — a restore implies
    /// the fabric was re-downloaded, so every base is stale by definition.
    #[derive(Debug, Clone, PartialEq)]
    pub(crate) struct DeltaImage {
        stats: DeltaStats,
        ghosts: u64,
    }
}

#[cfg(test)]
impl DeltaPort {
    /// An unclaimed run of `cid` over `[col0, col0 + width)`, whether or
    /// not pricing is on.
    pub(crate) fn stage(&mut self, cid: CircuitId, col0: u32, width: u32) {
        self.map.put(cid, col0, width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::CircuitLib;
    use crate::manager::overlay::{OverlayManager, Replacement};
    use crate::manager::partition::{PartitionManager, PartitionMode};
    use crate::manager::{Activation, FpgaManager, PreemptAction};
    use crate::task::TaskId;
    use fpga::{ConfigPort, ConfigTiming};
    use fsim::SimDuration;
    use pnr::{compile, CompileOptions};
    use std::sync::Arc;

    fn port() -> DeltaPort {
        let spec = fpga::device::part("VF400");
        let mut port = DeltaPort::new(ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        });
        port.enable_delta();
        port.obs.set_recording(true);
        port
    }

    fn ghosts(port: &DeltaPort) -> Vec<(CircuitId, u32, u32)> {
        let runs = port.map.runs().filter(|r| !r.3);
        runs.map(|(cid, origin, w, _)| (cid, origin, w)).collect()
    }

    #[test]
    fn ghosts_stay_disjoint_and_overlap_invalidates() {
        let mut t = port();
        assert!(t.implant(0, 4, CircuitId(1)));
        assert!(t.implant(4, 4, CircuitId(2)));
        assert_eq!(ghosts(&t).len(), 2);
        assert_eq!(t.delta_stats().unwrap().invalidations, 0);
        // A ghost covering [2, 6) drops both neighbours, whole.
        assert!(t.implant(2, 4, CircuitId(3)));
        assert_eq!(ghosts(&t), [(CircuitId(3), 2, 4)]);
        assert_eq!(t.delta_stats().unwrap().invalidations, 2);
        let inv = t
            .obs
            .drain()
            .iter()
            .filter(|e| matches!(e, TraceEvent::DeltaInvalidate { .. }))
            .count();
        assert_eq!(inv, 2);
    }

    #[test]
    fn dirty_circuits_never_become_bases() {
        let (lib, narrow, _) = width_pair(fpga::device::part("VF400"));
        let mut t = port();
        t.repair(0, 1, [(narrow, 0, 4)], false);
        assert!(!t.implant(0, 4, narrow), "a dirty image must not be a base");
        assert!(ghosts(&t).is_empty());
        assert_eq!(t.delta_stats().unwrap().invalidations, 1);
        // A resident covered by a repair stays dirty past its eviction.
        t.load(&lib, TaskId(0), narrow, 0, 4);
        t.repair(0, 1, [(narrow, 0, 4)], false);
        t.evict(narrow);
        assert!(ghosts(&t).is_empty(), "the eviction refused the ghost");
        assert!(!t.implant(10, 4, narrow), "still dirty after the eviction");
        assert_eq!(t.delta_stats().unwrap().invalidations, 3);
        // Only its next load makes it clean again.
        t.load(&lib, TaskId(0), narrow, 0, 4);
        t.evict(narrow);
        assert_eq!(ghosts(&t).len(), 1, "clean again after a fresh download");
        assert!(t.implant(10, 4, narrow));
    }

    /// A dirty circuit's staged copy is refused and reported so, even
    /// where an older ghost of the same circuit is anchored: a migration
    /// must not count or charge a copy that was not kept.
    #[test]
    fn a_refused_implant_over_its_own_ghost_reports_false() {
        let mut t = port();
        assert!(t.implant(0, 4, CircuitId(1)));
        // A repair elsewhere marks the circuit dirty and leaves the ghost.
        t.repair(10, 1, [(CircuitId(1), 10, 4)], false);
        assert_eq!(ghosts(&t), [(CircuitId(1), 0, 4)]);
        assert!(!t.implant(0, 4, CircuitId(1)), "the copy was refused");
        assert_eq!(ghosts(&t), [(CircuitId(1), 0, 4)], "the old ghost stays");
        assert_eq!(
            t.delta_stats().unwrap().invalidations,
            1,
            "one dirty refusal"
        );
    }

    #[test]
    fn snapshot_round_trip_drops_ghosts_as_invalidations() {
        let mut t = port();
        if let Some(stats) = &mut t.map.stats {
            stats.delta_downloads = 3;
            stats.frames_saved = 17;
        }
        t.implant(0, 4, CircuitId(1));
        t.implant(8, 2, CircuitId(2));
        let image = t.delta_image().unwrap();
        assert_eq!(image.ghosts, 2);
        let mut r = port();
        r.restore_map(&CircuitLib::new(), Some(&image), []).unwrap();
        assert!(ghosts(&r).is_empty());
        let stats = r.delta_stats().unwrap();
        assert_eq!(stats.delta_downloads, 3);
        assert_eq!(stats.frames_saved, 17);
        assert_eq!(stats.invalidations, 2);
        let mut wrapped = image.clone();
        (wrapped.stats.invalidations, wrapped.ghosts) = (1, u64::MAX);
        assert!(
            r.restore_map(&CircuitLib::new(), Some(&wrapped), [])
                .is_err(),
            "ghosts overflow the count"
        );
        assert_eq!(
            r.delta_stats(),
            Some(stats),
            "a refused image changes nothing"
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
        assert_eq!(lib.changed_frames(wide, narrow), 2);
        assert_eq!(lib.changed_frames(narrow, wide), 2);
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
