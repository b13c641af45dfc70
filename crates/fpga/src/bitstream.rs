//! Configuration bitstreams.
//!
//! A [`Bitstream`] is the unit the operating system downloads into the
//! device: a set of per-column [`FrameWrite`]s plus I/O-block settings,
//! protected by a checksum the device verifies on load (real bitstreams
//! carry a CRC; a corrupted stream must be rejected, not half-applied).
//! Partial bitstreams simply carry fewer frames.

use crate::region::Rect;
use std::collections::BTreeMap;

/// Where a CLB input or an output IOB takes its signal from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClbSource {
    /// Unconnected (reads as constant 0).
    None,
    /// Output of the CLB at `(col, row)`.
    Clb(u32, u32),
    /// Value of I/O pin `pin` (the IOB must be configured as an input).
    Pin(u32),
    /// Constant signal.
    Const(bool),
}

/// Configuration of one CLB: a K-input LUT, an optional flip-flop fed by
/// the LUT output, and an output selector (combinational or registered) —
/// the XC4000-style logic block reduced to what the experiments exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClbCell {
    /// LUT truth table (bit `m` = output for minterm `m`); K ≤ 4 so 16 bits.
    pub lut_table: u16,
    /// LUT input connections, LSB-first in minterm index.
    pub inputs: [ClbSource; 4],
    /// Whether the flip-flop is used.
    pub has_ff: bool,
    /// Flip-flop power-up value.
    pub ff_init: bool,
    /// If true the CLB output is the flip-flop output, else the LUT output.
    pub out_from_ff: bool,
}

impl ClbCell {
    /// A purely combinational cell.
    pub fn comb(lut_table: u16, inputs: [ClbSource; 4]) -> Self {
        ClbCell {
            lut_table,
            inputs,
            has_ff: false,
            ff_init: false,
            out_from_ff: false,
        }
    }

    /// A registered cell: LUT feeding the flip-flop, output from the FF.
    pub fn registered(lut_table: u16, inputs: [ClbSource; 4], ff_init: bool) -> Self {
        ClbCell {
            lut_table,
            inputs,
            has_ff: true,
            ff_init,
            out_from_ff: true,
        }
    }
}

/// One configuration frame write: a column, the row span it covers, and
/// the cell contents (None = clear the CLB).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameWrite {
    /// Target column.
    pub col: u32,
    /// First row covered.
    pub row0: u32,
    /// Cell contents for rows `row0..row0+cells.len()`.
    pub cells: Vec<Option<ClbCell>>,
}

/// Configuration of one I/O block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IobConfig {
    /// Pin drives into the fabric.
    Input,
    /// Pin is driven by the CLB at the given coordinates.
    Output(u32, u32),
    /// Pin unused.
    Unused,
}

/// A full or partial configuration stream.
///
/// Deliberately *not* `Clone`: streams carry whole frame vectors, and the
/// system shares them via `Arc<Bitstream>` (journal after-images, compile
/// cache output). A deep copy on a download path is a bug, not a
/// convenience.
#[derive(Debug, PartialEq, Eq)]
pub struct Bitstream {
    /// Human-readable origin (circuit name) for traces.
    pub label: String,
    /// Frame writes, in download order.
    pub frames: Vec<FrameWrite>,
    /// IOB writes as `(pin, config)`.
    pub iobs: Vec<(u32, IobConfig)>,
    /// Whether this stream reconfigures the whole device (the serial
    /// full-configuration path) or only the listed frames (partial).
    pub full: bool,
    /// Integrity checksum over the payload.
    pub crc: u64,
}

impl Bitstream {
    /// Assemble a stream and stamp its checksum.
    pub fn new(
        label: impl Into<String>,
        frames: Vec<FrameWrite>,
        iobs: Vec<(u32, IobConfig)>,
        full: bool,
    ) -> Self {
        let mut bs = Bitstream {
            label: label.into(),
            frames,
            iobs,
            full,
            crc: 0,
        };
        bs.crc = bs.compute_crc();
        bs
    }

    /// FNV-1a over a canonical serialization of the payload.
    pub fn compute_crc(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |b: u64| {
            for i in 0..8 {
                h ^= (b >> (i * 8)) & 0xFF;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(self.full as u64);
        for f in &self.frames {
            eat(f.col as u64);
            eat(f.row0 as u64);
            eat(f.cells.len() as u64);
            for c in &f.cells {
                match c {
                    None => eat(u64::MAX),
                    Some(cell) => {
                        eat(cell.lut_table as u64);
                        for s in cell.inputs {
                            eat(source_code(s));
                        }
                        eat(cell.has_ff as u64
                            | ((cell.ff_init as u64) << 1)
                            | ((cell.out_from_ff as u64) << 2));
                    }
                }
            }
        }
        for &(pin, cfg) in &self.iobs {
            eat(pin as u64);
            eat(match cfg {
                IobConfig::Input => 1,
                IobConfig::Output(c, r) => 2 | ((c as u64) << 8) | ((r as u64) << 40),
                IobConfig::Unused => 0,
            });
        }
        h
    }

    /// Whether the stored checksum matches the payload.
    pub fn crc_ok(&self) -> bool {
        self.crc == self.compute_crc()
    }

    /// Number of distinct frame columns this stream writes.
    ///
    /// Called on every download pricing and report row, so it must not
    /// allocate: columns fit in a 128-bit set for every catalog part
    /// (the largest is 56 columns wide); the sort-and-dedup scan is kept
    /// only as a fallback for out-of-catalog geometries.
    pub fn frame_count(&self) -> usize {
        let mut mask: u128 = 0;
        for f in &self.frames {
            if f.col >= 128 {
                return self.frame_count_wide();
            }
            mask |= 1u128 << f.col;
        }
        mask.count_ones() as usize
    }

    /// Allocating fallback for streams addressing columns ≥ 128.
    fn frame_count_wide(&self) -> usize {
        let mut cols: Vec<u32> = self.frames.iter().map(|f| f.col).collect();
        cols.sort_unstable();
        cols.dedup();
        cols.len()
    }

    /// Whether any frame covers only part of a column of the given height
    /// (forcing a read-modify-write on the device).
    pub fn has_partial_columns(&self, device_rows: u32) -> bool {
        self.frames
            .iter()
            .any(|f| f.row0 != 0 || (f.cells.len() as u32) < device_rows)
    }

    /// The bounding region of all frame writes, if any.
    pub fn bounding_rect(&self) -> Option<Rect> {
        let mut min_c = u32::MAX;
        let mut max_c = 0;
        let mut min_r = u32::MAX;
        let mut max_r = 0;
        for f in &self.frames {
            min_c = min_c.min(f.col);
            max_c = max_c.max(f.col);
            min_r = min_r.min(f.row0);
            max_r = max_r.max(f.row0 + f.cells.len() as u32 - 1);
        }
        if min_c == u32::MAX {
            None
        } else {
            Some(Rect::new(
                min_c,
                min_r,
                max_c - min_c + 1,
                max_r - min_r + 1,
            ))
        }
    }

    /// Corrupt the checksum (test helper for the device's rejection path).
    pub fn corrupted(mut self) -> Self {
        self.crc ^= 0xDEAD_BEEF;
        self
    }

    /// The stream's [`ColumnImage`]: what it leaves on a clean region.
    pub fn columns(&self) -> ColumnImage {
        // A stable sort: each column's frames keep their download order.
        let mut order: Vec<&FrameWrite> = self.frames.iter().collect();
        order.sort_by_key(|f| f.col);
        let (mut img, mut rows) = (ColumnImage::default(), Vec::new());
        for run in order.chunk_by(|a, b| a.col == b.col) {
            // Replay the column's frames over its row span, then trim.
            let lo = run.iter().map(|f| f.row0).min().unwrap_or(0);
            let hi = run.iter().map(|f| f.row0 + f.cells.len() as u32).max();
            rows.clear();
            rows.resize((hi.unwrap_or(lo) - lo) as usize, None);
            for f in run {
                let at = (f.row0 - lo) as usize;
                rows[at..at + f.cells.len()].copy_from_slice(&f.cells);
            }
            let first = rows.iter().position(Option::is_some);
            if let (Some(a), Some(b)) = (first, rows.iter().rposition(Option::is_some)) {
                let start = img.cells.len() as u32;
                img.cells.extend_from_slice(&rows[a..=b]);
                let end = img.cells.len() as u32;
                img.spans.push((run[0].col, lo + a as u32, start, end));
            }
        }
        img
    }

    /// Frame-wise delta between two streams targeting the same region.
    ///
    /// Produces a partial stream that, applied to a device currently
    /// holding exactly what `old` left behind (applied to a clean
    /// region), yields the configuration a download of `new` onto a
    /// clean region would — columns whose contents are identical are
    /// skipped entirely. A differing column is rewritten over the union
    /// row span of both streams' content there, with `None` cells
    /// clearing CLBs `old` configured and `new` does not; IOBs present
    /// only in `old` are explicitly unbound. The columns written are
    /// [`ColumnImage::changed_frames`]'s, by construction.
    ///
    /// Flip-flop caveat: cells the delta skips keep their current FF
    /// state, while a rewritten cell resets to its init value (exactly
    /// like any reconfiguration). The managers only apply deltas on
    /// fresh context switches where the incoming circuit starts from
    /// init anyway, so the equivalence holds where it is used.
    pub fn diff(old: &Bitstream, new: &Bitstream) -> DeltaStream {
        let (o, n) = (old.columns(), new.columns());
        let mut frames = Vec::new();
        for (col, was, now) in o.changed(&n) {
            // The union of both runs' rows: `now`'s cells, `None` elsewhere
            // (a row before `now`'s first wraps to an index past its end).
            let row0 = was.iter().chain(&now).map(|r| r.0).min().unwrap_or(0);
            let end = was.iter().chain(&now).map(|r| r.0 + r.1.len() as u32).max();
            let cell = |r: u32| now.and_then(|(at, c)| c.get(r.wrapping_sub(at) as usize));
            let cells = (row0..end.unwrap_or(row0)).map(|r| cell(r).copied().flatten());
            let cells = cells.collect();
            frames.push(FrameWrite { col, row0, cells });
        }
        let oi: BTreeMap<u32, IobConfig> = old.iobs.iter().copied().collect();
        let ni: BTreeMap<u32, IobConfig> = new.iobs.iter().copied().collect();
        let mut iobs: Vec<(u32, IobConfig)> = ni
            .iter()
            .filter(|(pin, cfg)| oi.get(pin) != Some(cfg))
            .map(|(&pin, &cfg)| (pin, cfg))
            .collect();
        iobs.extend(
            oi.keys()
                .filter(|pin| !ni.contains_key(pin))
                .map(|&pin| (pin, IobConfig::Unused)),
        );
        iobs.sort_unstable_by_key(|&(pin, _)| pin);
        let changed_frames = frames.len();
        let changed_iobs = iobs.len();
        DeltaStream {
            stream: Bitstream::new(
                format!("delta:{}->{}", old.label, new.label),
                frames,
                iobs,
                false,
            ),
            changed_frames,
            total_frames: new.frame_count(),
            changed_iobs,
        }
    }
}

/// The result of [`Bitstream::diff`]: a partial stream carrying only the
/// frames/IOBs that differ, plus the counts the pricing layer needs.
#[derive(Debug)]
pub struct DeltaStream {
    /// Partial stream applying the changes (`full == false`).
    pub stream: Bitstream,
    /// Distinct columns the delta rewrites.
    pub changed_frames: usize,
    /// Distinct columns the full `new` stream writes — what a non-delta
    /// download would have cost.
    pub total_frames: usize,
    /// IOB writes in the delta (changed + explicitly unbound).
    pub changed_iobs: usize,
}

impl DeltaStream {
    /// Whether the two streams configure identical content (nothing to
    /// download beyond the stream header).
    pub fn is_identical(&self) -> bool {
        self.changed_frames == 0 && self.changed_iobs == 0
    }

    /// Columns a full (non-delta) download would write but the delta
    /// skips.
    pub fn frames_saved(&self) -> usize {
        self.total_frames.saturating_sub(self.changed_frames)
    }
}

/// What a stream leaves on a clean region ([`Bitstream::columns`]): per
/// configured column, the cells surviving later writes and `None` clears,
/// first configured row to last. Columns are alike exactly when these runs
/// are equal, so [`Bitstream::diff`] and its count are one merge of two.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnImage {
    /// `(col, first row, start, end)`, ascending; rows `cells[start..end]`.
    spans: Vec<(u32, u32, u32, u32)>,
    cells: Vec<Option<ClbCell>>,
}

/// A configured column's first row and its rows from there.
type Run<'a> = (u32, &'a [Option<ClbCell>]);

impl ColumnImage {
    /// Columns configured differently here and in `new`, or on one side
    /// only: the frames a delta from `self` to `new` writes. No allocation.
    pub fn changed_frames(&self, new: &ColumnImage) -> usize {
        self.changed(new).count()
    }

    fn run(&self, s: &(u32, u32, u32, u32)) -> Run<'_> {
        (s.1, &self.cells[s.2 as usize..s.3 as usize])
    }

    /// The columns that differ, ascending, with each side's run there.
    fn changed<'a>(
        &'a self,
        new: &'a ColumnImage,
    ) -> impl Iterator<Item = (u32, Option<Run<'a>>, Option<Run<'a>>)> + 'a {
        let (mut i, mut j) = (0, 0);
        std::iter::from_fn(move || loop {
            let (a, b) = (self.spans.get(i), new.spans.get(j));
            let col = a.into_iter().chain(b).map(|s| s.0).min()?;
            let was = a.filter(|s| s.0 == col).map(|s| self.run(s));
            let now = b.filter(|s| s.0 == col).map(|s| new.run(s));
            i += usize::from(was.is_some());
            j += usize::from(now.is_some());
            if was != now {
                return Some((col, was, now));
            }
        })
    }
}

pub(crate) fn source_code(s: ClbSource) -> u64 {
    match s {
        ClbSource::None => 0,
        ClbSource::Clb(c, r) => 1 | ((c as u64) << 8) | ((r as u64) << 40),
        ClbSource::Pin(p) => 2 | ((p as u64) << 8),
        ClbSource::Const(b) => 3 | ((b as u64) << 8),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bitstream {
        let cell = ClbCell::comb(
            0b0110,
            [
                ClbSource::Pin(0),
                ClbSource::Pin(1),
                ClbSource::None,
                ClbSource::None,
            ],
        );
        Bitstream::new(
            "xor",
            vec![FrameWrite {
                col: 3,
                row0: 2,
                cells: vec![Some(cell), None],
            }],
            vec![
                (0, IobConfig::Input),
                (1, IobConfig::Input),
                (2, IobConfig::Output(3, 2)),
            ],
            false,
        )
    }

    #[test]
    fn crc_is_stable_and_detects_tampering() {
        let bs = sample();
        assert!(bs.crc_ok());
        // Bitstream is intentionally not Clone; build fresh copies.
        assert_eq!(sample().crc, bs.crc, "construction is deterministic");
        let bad = sample().corrupted();
        assert!(!bad.crc_ok());

        let mut modified = sample();
        modified.frames[0].col = 4;
        assert!(!modified.crc_ok(), "payload change must invalidate CRC");
    }

    #[test]
    fn frame_count_dedupes_columns() {
        let cell = ClbCell::comb(0, [ClbSource::None; 4]);
        let bs = Bitstream::new(
            "x",
            vec![
                FrameWrite {
                    col: 1,
                    row0: 0,
                    cells: vec![Some(cell)],
                },
                FrameWrite {
                    col: 1,
                    row0: 4,
                    cells: vec![Some(cell)],
                },
                FrameWrite {
                    col: 2,
                    row0: 0,
                    cells: vec![Some(cell)],
                },
            ],
            vec![],
            false,
        );
        assert_eq!(bs.frame_count(), 2);
    }

    #[test]
    fn partial_column_detection() {
        let bs = sample();
        assert!(bs.has_partial_columns(10), "covers rows 2..4 of 10");
        let cell = ClbCell::comb(0, [ClbSource::None; 4]);
        let full_col = Bitstream::new(
            "f",
            vec![FrameWrite {
                col: 0,
                row0: 0,
                cells: vec![Some(cell); 10],
            }],
            vec![],
            false,
        );
        assert!(!full_col.has_partial_columns(10));
    }

    #[test]
    fn bounding_rect() {
        let bs = sample();
        assert_eq!(bs.bounding_rect(), Some(Rect::new(3, 2, 1, 2)));
        let empty = Bitstream::new("e", vec![], vec![], false);
        assert_eq!(empty.bounding_rect(), None);
    }

    /// Regression for the allocating frame_count: duplicate and
    /// out-of-order columns must dedupe through the bitmask scan exactly
    /// like the old sort-and-dedup, including past the u128 fallback
    /// boundary.
    #[test]
    fn frame_count_bitmask_matches_slow_scan() {
        let cell = ClbCell::comb(0, [ClbSource::None; 4]);
        let fw = |col: u32| FrameWrite {
            col,
            row0: 0,
            cells: vec![Some(cell)],
        };
        let bs = Bitstream::new(
            "dup",
            vec![fw(9), fw(2), fw(9), fw(0), fw(2), fw(55)],
            vec![],
            false,
        );
        assert_eq!(bs.frame_count(), 4);
        // Columns ≥ 128 exercise the wide fallback.
        let wide = Bitstream::new("wide", vec![fw(200), fw(3), fw(200)], vec![], false);
        assert_eq!(wide.frame_count(), 2);
        assert_eq!(Bitstream::new("e", vec![], vec![], false).frame_count(), 0);
    }

    fn col_stream(label: &str, cols: &[(u32, u16)], rows: usize) -> Bitstream {
        let frames = cols
            .iter()
            .map(|&(col, lut)| FrameWrite {
                col,
                row0: 0,
                cells: vec![Some(ClbCell::comb(lut, [ClbSource::None; 4])); rows],
            })
            .collect();
        Bitstream::new(label, frames, vec![], false)
    }

    #[test]
    fn diff_skips_identical_columns_and_counts_changes() {
        let old = col_stream("a", &[(0, 1), (1, 2), (2, 3)], 4);
        let new = col_stream("b", &[(0, 1), (1, 9), (2, 3)], 4);
        let d = Bitstream::diff(&old, &new);
        assert_eq!(d.changed_frames, 1);
        assert_eq!(d.total_frames, 3);
        assert_eq!(d.frames_saved(), 2);
        assert_eq!(d.changed_iobs, 0);
        assert!(!d.is_identical());
        assert_eq!(d.stream.frames.len(), 1);
        assert_eq!(d.stream.frames[0].col, 1);
        assert!(!d.stream.full);
        assert!(d.stream.crc_ok());
    }

    #[test]
    fn diff_of_identical_streams_is_empty() {
        let old = col_stream("a", &[(0, 1), (1, 2)], 4);
        let new = col_stream("a2", &[(0, 1), (1, 2)], 4);
        let d = Bitstream::diff(&old, &new);
        assert!(d.is_identical());
        assert_eq!(d.changed_frames, 0);
        assert!(d.stream.frames.is_empty());
    }

    #[test]
    fn diff_clears_columns_old_covered_but_new_does_not() {
        let old = col_stream("a", &[(0, 1), (1, 2)], 4);
        let new = col_stream("b", &[(0, 1)], 4);
        let d = Bitstream::diff(&old, &new);
        assert_eq!(d.changed_frames, 1);
        let f = &d.stream.frames[0];
        assert_eq!(f.col, 1);
        assert!(
            f.cells.iter().all(Option::is_none),
            "vacated column must be cleared, not left stale"
        );
    }

    #[test]
    fn diff_unbinds_stale_iobs_and_writes_changed_ones() {
        let mk = |iobs: Vec<(u32, IobConfig)>| Bitstream::new("s", vec![], iobs, false);
        let old = mk(vec![
            (0, IobConfig::Input),
            (1, IobConfig::Output(0, 0)),
            (2, IobConfig::Input),
        ]);
        let new = mk(vec![(0, IobConfig::Input), (1, IobConfig::Output(0, 1))]);
        let d = Bitstream::diff(&old, &new);
        assert_eq!(d.changed_iobs, 2);
        assert_eq!(
            d.stream.iobs,
            vec![(1, IobConfig::Output(0, 1)), (2, IobConfig::Unused)]
        );
    }

    #[test]
    fn diff_covers_union_row_span_of_partial_columns() {
        let cell = |lut: u16| ClbCell::comb(lut, [ClbSource::None; 4]);
        let old = Bitstream::new(
            "a",
            vec![FrameWrite {
                col: 0,
                row0: 1,
                cells: vec![Some(cell(1)), Some(cell(2))],
            }],
            vec![],
            false,
        );
        let new = Bitstream::new(
            "b",
            vec![FrameWrite {
                col: 0,
                row0: 3,
                cells: vec![Some(cell(3))],
            }],
            vec![],
            false,
        );
        let d = Bitstream::diff(&old, &new);
        let f = &d.stream.frames[0];
        // Union span rows 1..=3: clears old's rows 1-2, writes new row 3.
        assert_eq!((f.row0, f.cells.len()), (1, 3));
        assert_eq!(f.cells[0], None);
        assert_eq!(f.cells[1], None);
        assert_eq!(f.cells[2], Some(cell(3)));
    }

    #[test]
    fn cell_constructors() {
        let c = ClbCell::comb(7, [ClbSource::None; 4]);
        assert!(!c.has_ff && !c.out_from_ff);
        let r = ClbCell::registered(7, [ClbSource::None; 4], true);
        assert!(r.has_ff && r.out_from_ff && r.ff_init);
    }
}
