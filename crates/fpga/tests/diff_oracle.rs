//! `Bitstream::diff` and `ColumnImage::changed_frames` against the diff
//! they replaced.
//!
//! [`oracle`] is the previous `Bitstream::diff` verbatim: it canonicalises
//! each stream into a `BTreeMap` of columns of `BTreeMap`s of rows, then
//! walks the union of their columns. The column-image rewrite must give the
//! same delta stream field by field — label, frames, IOBs, `full`, CRC and
//! the three counts — and the column images must count the same changed
//! frames, over seeded stream pairs that cover several frames on one
//! column, `row0 > 0`, `None` clears, all-`None` columns, trailing `None`s,
//! the same content framed differently, and IOBs added, removed and
//! changed.

use fpga::{Bitstream, ClbCell, ClbSource, DeltaStream, FrameWrite, IobConfig};
use fsim::SimRng;
use std::collections::BTreeMap;

/// The previous `Bitstream::diff`, unchanged.
fn oracle(old: &Bitstream, new: &Bitstream) -> DeltaStream {
    // Canonical per-column view: col -> row -> configured cell.
    // Later writes win and `None` clears, matching `Device::apply`.
    fn columns(bs: &Bitstream) -> BTreeMap<u32, BTreeMap<u32, ClbCell>> {
        let mut out: BTreeMap<u32, BTreeMap<u32, ClbCell>> = BTreeMap::new();
        for f in &bs.frames {
            let col = out.entry(f.col).or_default();
            for (k, c) in f.cells.iter().enumerate() {
                let row = f.row0 + k as u32;
                match c {
                    Some(cell) => {
                        col.insert(row, *cell);
                    }
                    None => {
                        col.remove(&row);
                    }
                }
            }
        }
        out.retain(|_, m| !m.is_empty());
        out
    }
    let o = columns(old);
    let n = columns(new);
    let empty = BTreeMap::new();
    let mut frames = Vec::new();
    let mut cols: Vec<u32> = o.keys().chain(n.keys()).copied().collect();
    cols.sort_unstable();
    cols.dedup();
    for col in cols {
        let oc = o.get(&col).unwrap_or(&empty);
        let nc = n.get(&col).unwrap_or(&empty);
        if oc == nc {
            continue;
        }
        let lo = *oc.keys().chain(nc.keys()).min().expect("nonempty column");
        let hi = *oc.keys().chain(nc.keys()).max().expect("nonempty column");
        frames.push(FrameWrite {
            col,
            row0: lo,
            cells: (lo..=hi).map(|r| nc.get(&r).copied()).collect(),
        });
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

/// One of four cells, or a clear: a small alphabet, so columns of two
/// streams are often equal.
fn cell(rng: &mut SimRng) -> Option<ClbCell> {
    let k = rng.below(5);
    (k > 0).then(|| {
        ClbCell::comb(
            k as u16,
            [
                ClbSource::Pin(k as u32 % 2),
                ClbSource::None,
                ClbSource::None,
                ClbSource::None,
            ],
        )
    })
}

/// Up to eight frames over six columns, starting at rows 0–3; about one
/// in seven is all `None`.
fn frames(rng: &mut SimRng) -> Vec<FrameWrite> {
    (0..rng.below(9))
        .map(|_| {
            let (col, row0, len) = (rng.below(6) as u32, rng.below(4) as u32, 1 + rng.below(5));
            let clear = rng.chance(0.15);
            let cells = (0..len)
                .map(|_| if clear { None } else { cell(rng) })
                .collect();
            FrameWrite { col, row0, cells }
        })
        .collect()
}

fn iob(rng: &mut SimRng) -> (u32, IobConfig) {
    let cfg = match rng.below(3) {
        0 => IobConfig::Input,
        1 => IobConfig::Output(rng.below(6) as u32, rng.below(4) as u32),
        _ => IobConfig::Unused,
    };
    (rng.below(6) as u32, cfg)
}

/// `new` from `old`: unrelated, edited (a cell changed, a frame added or
/// dropped, an IOB added, dropped or changed), or the same content framed
/// differently (each frame split in two, columns reordered).
fn pair(seed: u64) -> (Bitstream, Bitstream) {
    let mut rng = SimRng::new(seed);
    let old_frames = frames(&mut rng);
    let old_iobs: Vec<_> = (0..rng.below(5)).map(|_| iob(&mut rng)).collect();
    let (mut new_frames, mut new_iobs) = (old_frames.clone(), old_iobs.clone());
    match seed % 3 {
        0 => {
            new_frames = frames(&mut rng);
            new_iobs = (0..rng.below(5)).map(|_| iob(&mut rng)).collect();
        }
        1 => {
            for _ in 0..1 + rng.below(3) {
                match rng.below(3) {
                    0 if !new_frames.is_empty() => {
                        let f = rng.below(new_frames.len() as u64) as usize;
                        let r = rng.below(new_frames[f].cells.len() as u64) as usize;
                        new_frames[f].cells[r] = cell(&mut rng);
                    }
                    1 if !new_frames.is_empty() => {
                        new_frames.remove(rng.below(new_frames.len() as u64) as usize);
                    }
                    _ => new_frames.extend(frames(&mut rng).into_iter().take(1)),
                }
                match rng.below(3) {
                    0 if !new_iobs.is_empty() => {
                        new_iobs.remove(rng.below(new_iobs.len() as u64) as usize);
                    }
                    1 if !new_iobs.is_empty() => {
                        let i = rng.below(new_iobs.len() as u64) as usize;
                        new_iobs[i].1 = iob(&mut rng).1;
                    }
                    _ => new_iobs.push(iob(&mut rng)),
                }
            }
        }
        _ => {
            new_frames = Vec::new();
            for f in &old_frames {
                let at = rng.below(f.cells.len() as u64 + 1) as usize;
                for (row0, cells) in [
                    (f.row0, &f.cells[..at]),
                    (f.row0 + at as u32, &f.cells[at..]),
                ] {
                    if !cells.is_empty() {
                        new_frames.push(FrameWrite {
                            col: f.col,
                            row0,
                            cells: cells.to_vec(),
                        });
                    }
                }
            }
            // Stable: each column keeps its frames' order.
            new_frames.sort_by_key(|f| std::cmp::Reverse(f.col));
        }
    }
    (
        Bitstream::new(format!("old{seed}"), old_frames, old_iobs, false),
        Bitstream::new(format!("new{seed}"), new_frames, new_iobs, false),
    )
}

#[test]
fn diff_and_column_count_equal_the_oracle() {
    let (mut partial, mut identical, mut edited_iobs) = (0, 0, 0);
    for seed in 0..3000 {
        let (old, new) = pair(seed);
        let want = oracle(&old, &new);
        let got = Bitstream::diff(&old, &new);
        let at = format!("seed {seed}: {old:?} -> {new:?}");
        assert_eq!(got.stream.label, want.stream.label, "{at}");
        assert_eq!(got.stream.frames, want.stream.frames, "{at}");
        assert_eq!(got.stream.iobs, want.stream.iobs, "{at}");
        assert_eq!(got.stream.full, want.stream.full, "{at}");
        assert_eq!(got.stream.crc, want.stream.crc, "{at}");
        assert_eq!(got.changed_frames, want.changed_frames, "{at}");
        assert_eq!(got.total_frames, want.total_frames, "{at}");
        assert_eq!(got.changed_iobs, want.changed_iobs, "{at}");
        assert_eq!(
            old.columns().changed_frames(&new.columns()),
            want.changed_frames,
            "{at}"
        );
        // Configured columns on the wider side: a count below it means at
        // least one column both streams configure alike.
        let wider = [&old, &new]
            .map(|bs| bs.columns().changed_frames(&Default::default()))
            .into_iter()
            .max()
            .unwrap_or(0);
        let changed = want.changed_frames;
        partial += usize::from(changed > 0 && changed < wider);
        identical += usize::from(changed == 0 && wider > 0);
        edited_iobs += usize::from(want.changed_iobs > 0 && seed % 3 == 1);
    }
    // The sweep reached the cases that tell a canonical view from a
    // naive one: equal and differing columns in one pair, content equal
    // under different framing, and IOB edits.
    assert!(partial > 300, "partial diffs: {partial}");
    assert!(identical > 300, "identical content: {identical}");
    assert!(edited_iobs > 300, "IOB edits: {edited_iobs}");
}
