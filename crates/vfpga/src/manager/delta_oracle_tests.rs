//! The ghost list and dirty set the column map replaced, kept as the
//! oracle for the port's delta bookkeeping, and a seeded walk that holds
//! the map to it.
//!
//! The reference is the table the partition and overlay managers once
//! narrated by hand: a list of evicted images (`Ghost`s) in the order they
//! were recorded, and the set of circuits whose frames diverged. The walk
//! drives a real manager through random calls and replays what each call
//! did — the evictions and GC runs its events name, the load it reports,
//! the partitions or slots it held before — through the reference the way
//! the managers used to. After every call the chosen base, the
//! [`DeltaStats`] and that call's `DeltaInvalidate` events must agree.
//! The map emits a call's events in column order, the list emitted them in
//! the order its ghosts were recorded, so one call's events are compared as
//! a multiset.
//!
//! Run it alone with `cargo test -p vfpga --lib delta_oracle` (add
//! `--release` for the build the benchmark measures).

use super::overlay::{OverlayManager, Replacement};
use super::partition::{PartitionManager, PartitionMode};
use super::{Activation, DeltaStats, EventBuf, FpgaManager, PreemptAction};
use crate::circuit::{CircuitId, CircuitLib};
use crate::task::TaskId;
use fpga::{ConfigPort, ConfigTiming};
use fsim::{SimRng, TraceEvent};
use pnr::{compile, CompileOptions};
use std::collections::BTreeSet;
use std::sync::Arc;

/// An evicted circuit whose configuration frames are still physically
/// present on a free column range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Ghost {
    col0: u32,
    width: u32,
    cid: CircuitId,
}

impl Ghost {
    fn overlaps(&self, col0: u32, width: u32) -> bool {
        self.col0 < col0 + width && col0 < self.col0 + self.width
    }
}

/// The ghost table: ghosts in recording order, the dirty set, the
/// counters, and the events it emitted.
#[derive(Debug, Default)]
struct DeltaTable {
    ghosts: Vec<Ghost>,
    dirty: BTreeSet<u32>,
    stats: DeltaStats,
    obs: EventBuf,
}

impl DeltaTable {
    fn new() -> Self {
        let mut t = DeltaTable::default();
        t.obs.set_recording(true);
        t
    }

    fn base_at(&self, col0: u32) -> Option<Ghost> {
        self.ghosts.iter().copied().find(|g| g.col0 == col0)
    }

    /// Skipped, and counted, when the circuit's frames are dirty. Returns
    /// whether the ghost was recorded.
    fn record_ghost(&mut self, col0: u32, width: u32, cid: CircuitId) -> bool {
        if self.dirty.contains(&cid.0) {
            self.count_invalidation(col0, width, "dirty");
            return false;
        }
        self.invalidate_overlap(col0, width, "overwrite");
        self.ghosts.push(Ghost { col0, width, cid });
        true
    }

    fn count_invalidation(&mut self, col0: u32, width: u32, reason: &'static str) {
        self.stats.invalidations += 1;
        self.obs.push(|| TraceEvent::DeltaInvalidate {
            col0,
            width,
            reason,
        });
    }

    /// Removed without counting: it is being consumed as a delta base.
    fn consume_base(&mut self, col0: u32) {
        if let Some(i) = self.ghosts.iter().position(|g| g.col0 == col0) {
            self.ghosts.remove(i);
        }
    }

    fn invalidate_overlap(&mut self, col0: u32, width: u32, reason: &'static str) {
        let (dropped, kept) = self.ghosts.iter().partition(|g| g.overlaps(col0, width));
        self.ghosts = kept;
        for g in dropped {
            self.count_invalidation(g.col0, g.width, reason);
        }
    }

    fn invalidate_all(&mut self, reason: &'static str) {
        for g in std::mem::take(&mut self.ghosts) {
            self.count_invalidation(g.col0, g.width, reason);
        }
    }

    /// A load of `cid` over `base` as the port priced it: the base it
    /// used, if it went delta.
    fn price(
        &mut self,
        lib: &CircuitLib,
        cid: CircuitId,
        base: Option<CircuitId>,
    ) -> Option<CircuitId> {
        let frames = lib.get(cid).frames();
        self.dirty.remove(&cid.0);
        let delta = base.map(|b| (b, lib.changed_frames(b, cid)));
        let Some((from, changed)) = delta.filter(|&(_, changed)| changed < frames) else {
            self.stats.full_downloads += 1;
            return None;
        };
        self.stats.delta_downloads += 1;
        self.stats.frames_written += changed as u64;
        self.stats.frames_saved += (frames - changed) as u64;
        Some(from)
    }

    /// A restore: counters kept, live ghosts counted, nothing dirty.
    fn restored(&mut self) {
        self.stats.invalidations += self.ghosts.len() as u64;
        self.ghosts.clear();
        self.dirty.clear();
    }
}

/// One call of the walk.
#[derive(Debug, Clone, Copy)]
enum Call {
    Activate(TaskId, CircuitId),
    OpDone(TaskId, CircuitId),
    Exit(TaskId),
    Retire(u32),
    Repair(u32, u32),
    Discard(CircuitId),
    Implant(u32, u32, CircuitId),
    Restore,
}

/// The manager under test.
enum Under {
    Partition(PartitionManager),
    Overlay(OverlayManager),
}

impl Under {
    fn mgr(&mut self) -> &mut dyn FpgaManager {
        match self {
            Under::Partition(m) => m,
            Under::Overlay(m) => m,
        }
    }

    /// Each partition or slot: `(col0, width, occupant, retired)`.
    fn layout(&self) -> Vec<(u32, u32, Option<CircuitId>, bool)> {
        match self {
            Under::Partition(m) => m.layout(),
            Under::Overlay(m) => m
                .occupied()
                .map(|(cid, col0, w)| (col0, w, Some(cid), false))
                .collect(),
        }
    }
}

fn touches(a0: u32, aw: u32, b0: u32, bw: u32) -> bool {
    a0 < b0 + bw && b0 < a0 + aw
}

/// A call's `DeltaInvalidate` events, as a sorted multiset.
fn invalidations(events: &[TraceEvent]) -> Vec<(u32, u32, &'static str)> {
    let mut v: Vec<_> = events
        .iter()
        .filter_map(|e| match *e {
            TraceEvent::DeltaInvalidate {
                col0,
                width,
                reason,
            } => Some((col0, width, reason)),
            _ => None,
        })
        .collect();
    v.sort();
    v
}

/// The circuit and column a partition eviction's event names.
fn evicted(message: &str) -> (CircuitId, u32) {
    let rest = message.strip_prefix("evict idle circuit ").unwrap();
    let (cid, cols) = rest.split_once(" from cols [").unwrap();
    let (col, _) = cols.split_once(',').unwrap();
    (CircuitId(cid.parse().unwrap()), col.parse().unwrap())
}

/// Replay `call`, which `under` answered with `events` (and `outcome`),
/// through the reference; `before` is the layout it was called on.
fn replay(
    table: &mut DeltaTable,
    lib: &CircuitLib,
    under: &Under,
    call: Call,
    before: &[(u32, u32, Option<CircuitId>, bool)],
    events: &[TraceEvent],
    outcome: &Outcome,
) -> Option<CircuitId> {
    let partition = matches!(under, Under::Partition(_));
    let width = |cid: CircuitId| lib.get(cid).shape().0;
    match call {
        Call::Activate(..) => {
            if partition {
                for e in events {
                    match e {
                        TraceEvent::Custom {
                            tag: "evict",
                            message,
                        } => {
                            let (cid, col) = evicted(message);
                            table.record_ghost(col, width(cid), cid);
                        }
                        TraceEvent::GcRun { .. } => table.invalidate_all("gc"),
                        _ => {}
                    }
                }
            }
            let Outcome::Activation(Activation::Ready { write: Some(w), .. }) = *outcome else {
                return None;
            };
            if partition {
                let base = table.base_at(w.col0).map(|g| g.cid);
                let used = table.price(lib, w.cid, base);
                if used.is_some() {
                    table.consume_base(w.col0);
                }
                table.invalidate_overlap(w.col0, width(w.cid), "overwrite");
                used
            } else {
                let old = before.iter().find(|s| s.0 == w.col0).and_then(|s| s.2);
                let base = old.filter(|o| !table.dirty.contains(&o.0));
                table.price(lib, w.cid, base)
            }
        }
        Call::OpDone(..) | Call::Exit(_) => None,
        Call::Retire(col) => {
            let Outcome::Retire(out) = *outcome else {
                unreachable!()
            };
            let &(pc, pw, _, retired) = before.iter().find(|p| touches(p.0, p.1, col, 1)).unwrap();
            if out.applied && !retired {
                if let Some(m) = out.moved {
                    table.invalidate_overlap(m.col0, m.width, "relocate");
                }
                table.invalidate_overlap(pc, pw, "retire");
            }
            None
        }
        Call::Repair(col0, w) => {
            if partition {
                table.invalidate_overlap(col0, w, "repair");
            }
            for &(s0, sw, cid, _) in before {
                if let Some(cid) = cid.filter(|_| touches(s0, sw, col0, w)) {
                    table.dirty.insert(cid.0);
                    if !partition {
                        table.count_invalidation(s0, sw, "repair");
                    }
                }
            }
            None
        }
        Call::Discard(cid) => {
            if !partition {
                if let Some(&(s0, sw, ..)) = before.iter().find(|s| s.2 == Some(cid)) {
                    table.count_invalidation(s0, sw, "discard");
                }
            }
            None
        }
        Call::Implant(col0, w, cid) => {
            let kept = table.record_ghost(col0, w, cid);
            assert_eq!(
                *outcome,
                Outcome::Implanted(kept),
                "implant {call:?} over {before:?}: {table:?}"
            );
            None
        }
        Call::Restore => {
            table.restored();
            None
        }
    }
}

#[derive(Debug, PartialEq)]
enum Outcome {
    Activation(Activation),
    Retire(super::RetireOutcome),
    Implanted(bool),
    Other,
}

/// `[base, narrow, two base variants, a narrow variant, wide]`: two
/// families whose members price as deltas against each other, and an
/// unrelated wider circuit.
pub(super) fn library(spec: fpga::DeviceSpec) -> Arc<CircuitLib> {
    let opts = CompileOptions {
        max_height: spec.rows,
        full_height: true,
        ..Default::default()
    };
    let mult =
        |name: &str, n| compile(&netlist::library::arith::array_multiplier(name, n), opts).unwrap();
    let base = mult("obase", 5);
    let narrow = mult("onar", 2);
    let circuits = [
        pnr::mutate_tables(&base, 0.25, 11),
        pnr::mutate_tables(&base, 0.25, 12),
        pnr::mutate_tables(&narrow, 0.3, 13),
        mult("owide", 6),
    ];
    let mut lib = CircuitLib::new();
    lib.register_compiled(base);
    lib.register_compiled(narrow);
    for c in circuits {
        lib.register_compiled(c);
    }
    Arc::new(lib)
}

/// Drive `under` through `steps` random calls from `seed`, holding it to
/// the reference after every one. Returns the invalidation reasons the
/// calls produced, and `"restore"` if one restored over a live ghost.
fn walk(mut under: Under, lib: &CircuitLib, seed: u64, steps: usize) -> BTreeSet<&'static str> {
    let mut seen = BTreeSet::new();
    let mut rng = SimRng::new(seed);
    let mut table = DeltaTable::new();
    let partition = matches!(under, Under::Partition(_));
    let cols = under.mgr().timing().spec.cols;
    let mut holding: Vec<Option<CircuitId>> = vec![None; 4];
    let mut retired = 0;
    under.mgr().set_recording(true);
    for step in 0..steps {
        let before = under.layout();
        let call = loop {
            let tid = rng.below(holding.len() as u64) as usize;
            let cid = CircuitId(rng.below(lib.len() as u64) as u32);
            let call = match rng.below(20) {
                0..=8 if holding[tid].is_none() => Call::Activate(TaskId(tid as u32), cid),
                0..=8 => Call::OpDone(TaskId(tid as u32), holding[tid].unwrap()),
                9..=10 => Call::Exit(TaskId(tid as u32)),
                11..=12 => {
                    let col0 = rng.below(cols as u64) as u32;
                    let w = 1 + rng.below(u64::from(cols - col0).min(4)) as u32;
                    Call::Repair(col0, w)
                }
                13 => {
                    let resident: Vec<_> = before.iter().filter_map(|p| p.2).collect();
                    match resident.is_empty() {
                        true => continue,
                        false => Call::Discard(*rng.choose(&resident)),
                    }
                }
                14 if partition && retired < 3 => {
                    retired += 1;
                    Call::Retire(rng.below(cols as u64) as u32)
                }
                15..=16 if partition => {
                    // A migration stages onto columns no resident claims.
                    let free: Vec<_> = before.iter().filter(|p| p.2.is_none() && !p.3).collect();
                    if free.is_empty() {
                        continue;
                    }
                    let &&(col0, pw, ..) = rng.choose(&free);
                    let w = if rng.chance(0.5) {
                        pw
                    } else {
                        1 + rng.below(pw as u64) as u32
                    };
                    Call::Implant(col0, w, cid)
                }
                17 if partition => Call::Restore,
                _ => continue,
            };
            break call;
        };
        let mgr = under.mgr();
        let outcome = match call {
            Call::Activate(tid, cid) => {
                let a = mgr.activate(tid, cid);
                if matches!(a, Activation::Ready { .. }) {
                    holding[tid.0 as usize] = Some(cid);
                }
                Outcome::Activation(a)
            }
            Call::OpDone(tid, cid) => {
                mgr.op_done(tid, cid);
                holding[tid.0 as usize] = None;
                Outcome::Other
            }
            Call::Exit(tid) => {
                mgr.task_exit(tid);
                holding[tid.0 as usize] = None;
                Outcome::Other
            }
            Call::Retire(col) => Outcome::Retire(mgr.retire_column(col)),
            Call::Repair(col0, w) => {
                mgr.invalidate_image_range(col0, w);
                Outcome::Other
            }
            Call::Discard(cid) => {
                mgr.discard_resident(cid);
                // The load it was rejected for failed its task.
                for h in holding.iter_mut().filter(|h| **h == Some(cid)) {
                    *h = None;
                }
                Outcome::Other
            }
            Call::Implant(col0, w, cid) => Outcome::Implanted(mgr.implant_ghost(col0, w, cid)),
            Call::Restore => {
                let snap = mgr.snapshot().unwrap();
                mgr.restore(&snap).unwrap();
                Outcome::Other
            }
        };
        let events = under.mgr().drain_events();
        if matches!(call, Call::Restore) && !table.ghosts.is_empty() {
            seen.insert("restore");
        }
        let used = replay(&mut table, lib, &under, call, &before, &events, &outcome);
        let chosen = events.iter().find_map(|e| match *e {
            TraceEvent::DeltaDownload { from_circuit, .. } => Some(CircuitId(from_circuit)),
            _ => None,
        });
        let at = format!("seed {seed} step {step}: {call:?} -> {outcome:?}");
        assert_eq!(chosen, used, "{at}: the base");
        let dropped = invalidations(&events);
        seen.extend(dropped.iter().map(|d| d.2));
        assert_eq!(
            dropped,
            invalidations(&table.obs.drain()),
            "{at}: the invalidations"
        );
        assert_eq!(
            under.mgr().delta_stats(),
            Some(table.stats),
            "{at}: the counters"
        );
    }
    assert!(
        table.stats.delta_downloads > 0,
        "seed {seed}: no delta load"
    );
    seen
}

fn timing(spec: fpga::DeviceSpec) -> ConfigTiming {
    ConfigTiming {
        spec,
        port: ConfigPort::SerialFast,
    }
}

/// Walk a manager from `build` over every seed; the reasons seen, and
/// `"restore"` if a restore counted a live ghost.
fn walks(lib: &CircuitLib, build: impl Fn() -> Under) -> Vec<&'static str> {
    let seen = (1..17).flat_map(|seed| walk(build(), lib, seed, 400));
    seen.collect::<BTreeSet<_>>().into_iter().collect()
}

fn partitions(lib: &Arc<CircuitLib>, mode: PartitionMode) -> Under {
    let spec = fpga::device::part("VF400");
    let policy = PreemptAction::SaveRestore;
    let mut m = PartitionManager::new(lib.clone(), timing(spec), mode, policy).unwrap();
    m.enable_delta();
    Under::Partition(m)
}

#[test]
fn variable_partitions_match_the_ghost_list() {
    let lib = library(fpga::device::part("VF400"));
    let seen = walks(&lib, || partitions(&lib, PartitionMode::Variable));
    let all = [
        "dirty",
        "gc",
        "overwrite",
        "relocate",
        "repair",
        "restore",
        "retire",
    ];
    assert_eq!(seen, all, "the walks reach every reason");
}

#[test]
fn fixed_partitions_match_the_ghost_list() {
    let spec = fpga::device::part("VF400");
    let lib = library(spec);
    // Two partitions a family member fits with slack to spare, one only
    // the narrow circuits fit, and the rest in one piece.
    let w = lib.get(CircuitId(0)).shape().0;
    let narrow = lib.get(CircuitId(1)).shape().0;
    let widths = vec![w + 1, w + 2, narrow + 1, spec.cols - 2 * w - narrow - 4];
    let seen = walks(&lib, || {
        partitions(&lib, PartitionMode::Fixed(widths.clone()))
    });
    let all = [
        "dirty",
        "overwrite",
        "relocate",
        "repair",
        "restore",
        "retire",
    ];
    assert_eq!(seen, all, "the walks reach every reason but GC's");
}

/// With no common circuit the slots start at column 0; with the wide
/// circuit common (booted over columns 0–7) they start past the booted
/// range, so a repair can land on common columns and every slot load sits
/// at an offset.
#[test]
fn overlay_matches_the_dirty_set() {
    let spec = fpga::device::part("VF400");
    let lib = library(spec);
    for common in [vec![], vec![CircuitId(5)]] {
        let widest = (0..lib.len() as u32)
            .map(CircuitId)
            .filter(|c| !common.contains(c))
            .map(|c| lib.get(c).shape().0)
            .max()
            .unwrap();
        let seen = walks(&lib, || {
            let (timing, slot) = (timing(spec), widest + 1);
            let m =
                OverlayManager::new(lib.clone(), timing, common.clone(), slot, Replacement::Lru);
            let mut m = m.unwrap();
            m.enable_delta();
            Under::Overlay(m)
        });
        let both = ["discard", "repair"];
        assert_eq!(
            seen, both,
            "common {common:?}: the walks reach both reasons"
        );
    }
}
