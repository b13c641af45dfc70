//! Persistent on-disk compile cache.
//!
//! The process cache in [`crate::cache`] amortizes place-and-route within
//! one process; experiment sweeps pay the full flow again every time the
//! harness restarts. This module persists [`CompiledCircuit`]
//! artifacts to disk in a versioned JSON format so a *warm* process can
//! skip the flow entirely.
//!
//! Layering and trust model:
//!
//! * The process cache always sits in front. [`crate::compile_shared`]
//!   consults it first, then (when a cache directory is configured via the
//!   `VFPGA_CACHE_DIR` environment variable) tries the disk, and only then
//!   runs the flow — publishing the result to both layers.
//! * An entry is declared through the workspace's one codec,
//!   [`fsim::json::Wire`] — a `{schema, key, circuit}` record holding the
//!   process cache's own `Key` and one flat record of the artifact — and
//!   read as strictly as a checkpoint image. Entries are *advisory*: a
//!   missing, truncated or version-mismatched file, a field missing, extra
//!   or out of place, a stored key that is not the one looked up (a
//!   filename collision, a stale file), and a circuit that does not hang
//!   together (`coherent`: an index past what it indexes, two blocks on
//!   one cell, another netlist's interface — emission and routing index by
//!   those numbers unchecked) all read as a miss: the circuit is
//!   recompiled and the entry rewritten. [`crate::compile`] is
//!   deterministic, so the cache can be deleted at any time.
//! * Writes go to a process-unique temp file in the same directory,
//!   then `rename` into place — concurrent processes race benignly
//!   (last rename wins; both wrote identical bytes).
//!
//! [`DISK_SCHEMA`] names the format; any change to its shape bumps it.

use crate::cache::Key;
use crate::flow::{compile, CompileOptions, CompiledCircuit};
use crate::pack::{BlockSource, PackedBlock, PackedCircuit};
use crate::place::{PlaceError, PlacedCircuit};
use fsim::json::{Json, Wire};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Version tag of the on-disk entry format.
pub const DISK_SCHEMA: &str = "vfpga-pnr-cache/1";

/// The cache directory configured for this process: the value of the
/// `VFPGA_CACHE_DIR` environment variable, or `None` (disk layer off).
/// Read on every call — cheap next to a compile, and keeps tests that
/// use explicit directories independent of process-global state.
pub fn configured_dir() -> Option<PathBuf> {
    std::env::var_os("VFPGA_CACHE_DIR").map(PathBuf::from)
}

/// Names the entry file: a byte-serial fold of the key fields shaped like
/// FNV-1a (FNV-64's offset basis, xor then multiply), but with multiplier
/// `0x1_0000_01b3` (2^32 + 0x1b3) where FNV-64's prime is
/// `0x100_0000_01b3` (2^40 + 0x1b3), so it is not FNV-1a. The file names
/// under `crates/pnr/golden/` and every existing warm cache directory are
/// pinned to its values, so it stays as it is. Collisions are harmless
/// (the stored key is verified on load); this only needs to spread
/// entries across file names.
fn key_fnv(key: &Key) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1_0000_01b3);
        }
    };
    mix(key.net_hash);
    mix(key.map_k as u64);
    mix(key.map_max_cuts as u64);
    mix(key.fill_bits);
    mix(key.max_height as u64);
    mix(key.seed);
    match key.shape {
        None => mix(u64::MAX),
        Some((w, h2)) => {
            mix(w as u64);
            mix(h2 as u64);
        }
    }
    mix(key.full_height as u64);
    h
}

/// Path of the entry file for `key` under `dir`.
pub(crate) fn entry_path(dir: &Path, key: &Key) -> PathBuf {
    dir.join(format!("{:016x}.json", key_fnv(key)))
}

fsim::record! {
    /// One entry file: the format tag, the full key of what it holds, and
    /// the artifact.
    struct Entry {
        schema: String,
        key: Key,
        circuit: Circuit,
    }
}

fsim::record! {
    /// A [`CompiledCircuit`] as one flat record: `coords` as flat
    /// `col, row` pairs, the two timing figures by bit pattern.
    struct Circuit {
        name: String,
        num_inputs: usize,
        outputs: Vec<(String, u32)>,
        ff_block: Vec<u32>,
        blocks: Vec<PackedBlock>,
        width: u32,
        height: u32,
        coords: Vec<u32>,
        hpwl: u64,
        crit_path_ns_bits: u64,
        clock_ns_bits: u64,
    }
}

/// A block as one flat row, `[lut_table, in0, in1, in2, in3, ff,
/// out_from_ff]`, with `ff` 0 for no flip-flop, 1 for `Some(false)` and 2
/// for `Some(true)`.
impl Wire for PackedBlock {
    fn json(&self) -> Json {
        let [in0, in1, in2, in3] = self.inputs;
        let ff = self.ff.map_or(0u8, |init| 1 + u8::from(init));
        (self.lut_table, in0, in1, in2, in3, ff, self.out_from_ff).json()
    }

    fn read(v: &Json, what: &str) -> Result<PackedBlock, String> {
        let (lut_table, in0, in1, in2, in3, ff, out_from_ff) = Wire::read(v, what)?;
        let ff = match ff {
            0u8 => None,
            1 => Some(false),
            2 => Some(true),
            _ => return Err(format!("{what}: no flip-flop code {ff}")),
        };
        Ok(PackedBlock {
            lut_table,
            inputs: [in0, in1, in2, in3],
            ff,
            out_from_ff,
        })
    }
}

/// A block input as one tagged integer, `tag * 2^32 + value`: tag 0 is
/// unused (value 0), 1 a block, 2 a primary input, 3 a constant (value 0
/// or 1).
impl Wire for BlockSource {
    fn json(&self) -> Json {
        let (tag, value) = match *self {
            BlockSource::None => (0u64, 0),
            BlockSource::Block(i) => (1, i),
            BlockSource::Input(i) => (2, i),
            BlockSource::Const(b) => (3, u32::from(b)),
        };
        Json::UInt(tag << 32 | u64::from(value))
    }

    fn read(v: &Json, what: &str) -> Result<BlockSource, String> {
        let code = u64::read(v, what)?;
        let value = code as u32;
        match code >> 32 {
            0 if value == 0 => Ok(BlockSource::None),
            1 => Ok(BlockSource::Block(value)),
            2 => Ok(BlockSource::Input(value)),
            3 if value <= 1 => Ok(BlockSource::Const(value == 1)),
            _ => Err(format!("{what}: {code} is no block source")),
        }
    }
}

fn entry_json(key: &Key, c: &CompiledCircuit) -> Json {
    let (p, pc) = (&c.placed, &c.placed.circuit);
    let circuit = Circuit {
        name: pc.name.clone(),
        num_inputs: pc.num_inputs,
        outputs: pc.outputs.clone(),
        ff_block: pc.ff_block.clone(),
        blocks: pc.blocks.clone(),
        width: p.width,
        height: p.height,
        coords: p.coords.iter().flat_map(|&(col, row)| [col, row]).collect(),
        hpwl: p.hpwl,
        crit_path_ns_bits: c.crit_path_ns.to_bits(),
        clock_ns_bits: c.clock_ns.to_bits(),
    };
    let schema = DISK_SCHEMA.to_string();
    Entry {
        schema,
        key: *key,
        circuit,
    }
    .json()
}

/// Most cells a region may claim: 256 × 256, twenty times the largest
/// catalog part. The template router allocates per cell of the region, so
/// a damaged `width` must not get that far; this also bounds [`coherent`]'s
/// occupancy bitmap to 8 KiB of stack.
const MAX_CELLS: usize = 1 << 16;

/// Whether a parsed artifact can be handed downstream: it has `net`'s
/// interface, every index in it names something that exists, and its
/// blocks sit on distinct cells of the region. Emission, routing and state
/// readback index by these numbers unchecked, so an entry that fails is
/// damaged and reads as a miss. One pass, no allocation.
fn coherent(p: &PlacedCircuit, net: &netlist::Netlist) -> bool {
    let pc = &p.circuit;
    let n = pc.blocks.len();
    let cells = p.width as u64 * p.height as u64;
    if pc.num_inputs != net.num_inputs()
        || !pc
            .outputs
            .iter()
            .map(|(name, _)| name)
            .eq(net.outputs().iter().map(|(name, _)| name))
        || n as u64 > cells
        || cells > MAX_CELLS as u64
    {
        return false;
    }
    let exists = |s: &BlockSource| match *s {
        BlockSource::Block(i) => (i as usize) < n,
        BlockSource::Input(i) => (i as usize) < pc.num_inputs,
        BlockSource::None | BlockSource::Const(_) => true,
    };
    let mut taken = [0u64; MAX_CELLS / 64];
    for (blk, &(c, r)) in pc.blocks.iter().zip(&p.coords) {
        if c >= p.width || r >= p.height || !blk.inputs.iter().all(exists) {
            return false;
        }
        let cell = (r * p.width + c) as usize;
        let bit = 1u64 << (cell % 64);
        if taken[cell / 64] & bit != 0 {
            return false;
        }
        taken[cell / 64] |= bit;
    }
    pc.outputs.iter().all(|&(_, b)| (b as usize) < n)
        && pc.ff_block.iter().all(|&b| {
            pc.blocks
                .get(b as usize)
                .is_some_and(|blk| blk.ff.is_some())
        })
}

/// Read an entry's text. `None` on any miss: unparsable, not exactly the
/// shape the writer emits, wrong schema version, stored key mismatch
/// (filename collision / stale file), a block without a place, or a
/// circuit that is not [`coherent`] with `net`.
fn parse_entry(text: &str, key: &Key, net: &netlist::Netlist) -> Option<CompiledCircuit> {
    let entry = Entry::read(&Json::parse(text).ok()?, "entry").ok()?;
    let c = entry.circuit;
    if entry.schema != DISK_SCHEMA || entry.key != *key || c.coords.len() != 2 * c.blocks.len() {
        return None;
    }
    let placed = PlacedCircuit {
        circuit: PackedCircuit {
            name: c.name,
            blocks: c.blocks,
            num_inputs: c.num_inputs,
            outputs: c.outputs,
            ff_block: c.ff_block,
        },
        width: c.width,
        height: c.height,
        coords: c.coords.chunks_exact(2).map(|p| (p[0], p[1])).collect(),
        hpwl: c.hpwl,
    };
    coherent(&placed, net).then(|| CompiledCircuit {
        placed,
        crit_path_ns: f64::from_bits(c.crit_path_ns_bits),
        clock_ns: f64::from_bits(c.clock_ns_bits),
    })
}

/// Load the entry for `key` (the key of `net`) from `dir`. `None` on any
/// miss: no file, unreadable, or whatever [`parse_entry`] refuses.
pub(crate) fn load(dir: &Path, key: &Key, net: &netlist::Netlist) -> Option<CompiledCircuit> {
    let text = std::fs::read_to_string(entry_path(dir, key)).ok()?;
    parse_entry(&text, key, net)
}

/// Write the entry for `key` to `dir` (creating the directory). Returns
/// whether the write landed; failures are swallowed — a cache that cannot
/// be written is merely cold.
pub(crate) fn store(dir: &Path, key: &Key, c: &CompiledCircuit) -> bool {
    if std::fs::create_dir_all(dir).is_err() {
        return false;
    }
    let path = entry_path(dir, key);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let text = entry_json(key, c).render();
    if std::fs::write(&tmp, text).is_err() {
        let _ = std::fs::remove_file(&tmp);
        return false;
    }
    match std::fs::rename(&tmp, &path) {
        Ok(()) => true,
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
            false
        }
    }
}

/// Compile `net` against an *explicit* disk cache directory, bypassing
/// the process table: a present valid entry loads from disk, anything
/// else compiles and writes the entry. This is the path the repository
/// benchmark times (`pnr.disk_hit_us`) — going around the process cache is
/// what makes the disk layer's cold/warm split observable.
pub fn compile_with_disk(
    net: &netlist::Netlist,
    opts: CompileOptions,
    dir: &Path,
) -> Result<Arc<CompiledCircuit>, PlaceError> {
    let key = Key::new(net, opts);
    if let Some(hit) = load(dir, &key, net) {
        crate::cache::note_disk_hit();
        return Ok(Arc::new(hit));
    }
    crate::cache::note_disk_miss();
    let compiled = compile(net, opts)?;
    if store(dir, &key, &compiled) {
        crate::cache::note_disk_write();
    }
    Ok(Arc::new(compiled))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{emit_bitstream, PinAssignment};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory per test, without touching any global
    /// cache location.
    fn scratch(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "vfpga-pnr-cache-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn round_trip_preserves_the_whole_artifact() {
        let dir = scratch("rt");
        let net = netlist::library::seq::lfsr("disk-lfsr", 16, 0b1101_0000_0000_1000);
        let opts = CompileOptions {
            max_height: 10,
            full_height: true,
            ..Default::default()
        };
        let key = Key::new(&net, opts);
        let fresh = compile(&net, opts).unwrap();
        assert!(store(&dir, &key, &fresh));
        let back = load(&dir, &key, &net).expect("stored entry must load");
        assert_eq!(back.placed.circuit.name, fresh.placed.circuit.name);
        assert_eq!(back.placed.circuit.blocks, fresh.placed.circuit.blocks);
        assert_eq!(back.placed.circuit.outputs, fresh.placed.circuit.outputs);
        assert_eq!(back.placed.circuit.ff_block, fresh.placed.circuit.ff_block);
        assert_eq!(back.placed.coords, fresh.placed.coords);
        assert_eq!(back.placed.hpwl, fresh.placed.hpwl);
        assert_eq!(back.crit_path_ns.to_bits(), fresh.crit_path_ns.to_bits());
        assert_eq!(back.clock_ns.to_bits(), fresh.clock_ns.to_bits());
        // The decisive check: emitted bitstreams are identical, so the
        // loaded artifact is interchangeable everywhere downstream.
        let pins = PinAssignment::contiguous(
            fresh.placed.circuit.num_inputs,
            fresh.placed.circuit.outputs.len(),
        );
        assert_eq!(
            emit_bitstream(&back.placed, (0, 0), &pins, false),
            emit_bitstream(&fresh.placed, (0, 0), &pins, false),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_stale_and_mismatched_entries_read_as_misses() {
        let dir = scratch("bad");
        let net = netlist::library::arith::ripple_adder("disk-bad", 8);
        let opts = CompileOptions::default();
        let key = Key::new(&net, opts);
        let fresh = compile(&net, opts).unwrap();
        assert!(store(&dir, &key, &fresh));
        let path = entry_path(&dir, &key);

        // Truncated file → miss.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(
            load(&dir, &key, &net).is_none(),
            "truncated entry must miss"
        );

        // Valid JSON, wrong schema version → miss.
        let stale = full.replacen(DISK_SCHEMA, "vfpga-pnr-cache/0", 1);
        std::fs::write(&path, stale).unwrap();
        assert!(load(&dir, &key, &net).is_none(), "stale schema must miss");

        // Valid JSON, wrong stored key (filename collision) → miss.
        let collided = full.replacen(
            &format!("\"seed\": {}", key.seed),
            &format!("\"seed\": {}", key.seed ^ 1),
            1,
        );
        std::fs::write(&path, collided).unwrap();
        assert!(load(&dir, &key, &net).is_none(), "key mismatch must miss");

        // Garbage → miss; and a rewrite recovers the entry.
        std::fs::write(&path, "not json at all {{{").unwrap();
        assert!(load(&dir, &key, &net).is_none());
        assert!(store(&dir, &key, &fresh));
        assert!(load(&dir, &key, &net).is_some(), "rewrite must recover");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A small sequential circuit — registers, a register feeding its own
    /// LUT, primary inputs — with its key, artifact and entry text.
    fn stored_accumulator() -> (netlist::Netlist, Key, CompiledCircuit, String) {
        let net = netlist::library::seq::accumulator("disk-acc4", 4);
        let opts = CompileOptions::default();
        let key = Key::new(&net, opts);
        let fresh = compile(&net, opts).unwrap();
        let text = entry_json(&key, &fresh).render();
        (net, key, fresh, text)
    }

    /// What every consumer of a hit does with it, pins bound off the
    /// netlist as every caller binds them. Routing may fail; nothing may
    /// panic.
    fn drive(c: &CompiledCircuit, net: &netlist::Netlist) {
        let pins = PinAssignment::contiguous(net.num_inputs(), net.outputs().len());
        let _ = emit_bitstream(&c.placed, (1, 1), &pins, false);
        let spec = fpga::device::part("VF1000");
        let _ = crate::RoutingFabric::for_device(&spec).route_circuit(&c.placed, (1, 1));
    }

    #[test]
    fn damaged_entries_are_misses_or_usable_never_panics() {
        let (net, key, _, text) = stored_accumulator();
        drive(&parse_entry(&text, &key, &net).expect("intact entry"), &net);

        // Every truncation short of the closing brace.
        let body = text.trim_end();
        for cut in 0..body.len() {
            assert!(
                parse_entry(&body[..cut], &key, &net).is_none(),
                "prefix of {cut} bytes read"
            );
        }

        // Every number outside a string, replaced in turn by its
        // neighbours, by values around each width a field is narrowed to,
        // and by itself with the source tag (bits 32 up) or the source
        // index (bits below) changed.
        let bytes = text.as_bytes();
        let (mut hits, mut misses, mut at, mut quoted) = (0, 0, 0, false);
        while at < bytes.len() {
            quoted ^= bytes[at] == b'"';
            if quoted || !bytes[at].is_ascii_digit() {
                at += 1;
                continue;
            }
            let end = at
                + bytes[at..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
            let v: u64 = text[at..end].parse().unwrap();
            let tag = v & !0xffff_ffff;
            for m in [
                0,
                1,
                v.wrapping_add(1),
                v.wrapping_sub(1),
                v ^ (1 << 32),
                v ^ (3 << 32),
                tag | 9999,
                tag | 0xffff_ffff,
                u64::from(u16::MAX),
                u64::from(u16::MAX) + 1,
                u64::from(u32::MAX) + 1,
                u64::MAX,
            ] {
                if m == v {
                    continue;
                }
                let damaged = format!("{}{m}{}", &text[..at], &text[end..]);
                match parse_entry(&damaged, &key, &net) {
                    Some(c) => {
                        hits += 1;
                        drive(&c, &net);
                    }
                    None => misses += 1,
                }
            }
            at = end;
        }
        // Table bits, hpwl and in-range moves survive; indices do not.
        assert!(hits > 100 && misses > 500, "{hits} hits, {misses} misses");
    }

    #[test]
    fn every_dangling_index_is_a_miss() {
        let (net, key, fresh, text) = stored_accumulator();
        assert!(parse_entry(&text, &key, &net).is_some());
        let n = fresh.placed.circuit.blocks.len() as u32;
        let stateless = (0..n)
            .find(|&b| fresh.placed.circuit.blocks[b as usize].ff.is_none())
            .unwrap();
        type Damage = fn(&mut PlacedCircuit, u32, u32);
        let damages: [(&str, Damage); 9] = [
            ("block input past the blocks", |p, n, _| {
                p.circuit.blocks[0].inputs[3] = BlockSource::Block(n)
            }),
            ("the route.rs:205 index", |p, _, _| {
                p.circuit.blocks[0].inputs[0] = BlockSource::Block(9999)
            }),
            ("primary input past num_inputs", |p, _, _| {
                p.circuit.blocks[0].inputs[3] = BlockSource::Input(p.circuit.num_inputs as u32)
            }),
            ("output past the blocks", |p, n, _| {
                p.circuit.outputs[0].1 = n
            }),
            ("ff_block past the blocks", |p, n, _| {
                p.circuit.ff_block[0] = n
            }),
            ("ff_block on a block without a flip-flop", |p, _, b| {
                p.circuit.ff_block[0] = b
            }),
            ("two blocks on one cell", |p, _, _| {
                p.coords[1] = p.coords[0]
            }),
            ("more blocks than cells", |p, _, _| p.height = 1),
            ("a region past MAX_CELLS", |p, _, _| p.width = 1 << 17),
        ];
        for (what, damage) in damages {
            let mut bad = fresh.clone();
            damage(&mut bad.placed, n, stateless);
            let text = entry_json(&key, &bad).render();
            assert!(parse_entry(&text, &key, &net).is_none(), "{what} read");
        }
        // Another netlist's interface, under this one's key.
        let other = netlist::library::seq::accumulator("disk-acc4", 5);
        assert!(parse_entry(&text, &key, &other).is_none());
    }

    #[test]
    fn compile_with_disk_is_cold_then_warm_and_equivalent() {
        let dir = scratch("warm");
        let net = netlist::library::alu::alu("disk-alu4", 4);
        let opts = CompileOptions {
            max_height: 12,
            full_height: true,
            ..Default::default()
        };
        let before = crate::cache::cache_stats();
        let cold = compile_with_disk(&net, opts, &dir).unwrap();
        let mid = crate::cache::cache_stats();
        assert_eq!(mid.disk_misses, before.disk_misses + 1);
        assert_eq!(mid.disk_writes, before.disk_writes + 1);
        let warm = compile_with_disk(&net, opts, &dir).unwrap();
        let after = crate::cache::cache_stats();
        assert_eq!(after.disk_hits, mid.disk_hits + 1);
        assert_eq!(cold.placed.coords, warm.placed.coords);
        assert_eq!(cold.crit_path_ns.to_bits(), warm.crit_path_ns.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_codes_round_trip() {
        for s in [
            BlockSource::None,
            BlockSource::Block(0),
            BlockSource::Block(4_000_000_000),
            BlockSource::Input(7),
            BlockSource::Const(false),
            BlockSource::Const(true),
        ] {
            assert_eq!(BlockSource::read(&s.json(), "source"), Ok(s));
        }
        let read = |code: u64| BlockSource::read(&Json::UInt(code), "source");
        assert!(read(5u64 << 32).is_err(), "unknown tag rejected");
        assert!(read(3u64 << 32 | 2).is_err(), "bad const rejected");
        assert!(read(1).is_err(), "an unused input with a value rejected");
    }

    /// An object's fields.
    type Pairs = Vec<(String, Json)>;

    /// `entry` with `edit` applied to the fields of its `section` (`""`:
    /// the entry's own), rendered.
    fn edited(entry: &Json, section: &str, edit: &dyn Fn(&mut Pairs)) -> String {
        let mut doc = entry.clone();
        let Json::Obj(top) = &mut doc else {
            panic!("an entry is an object")
        };
        let fields = match top.iter().position(|(k, _)| k == section) {
            Some(i) => match &mut top[i].1 {
                Json::Obj(inner) => inner,
                _ => panic!("'{section}' is an object"),
            },
            None => top,
        };
        edit(fields);
        doc.render()
    }

    /// Each of these entries is a miss, and the next `compile_with_disk`
    /// writes the intact entry back over it: in the entry, its key and its
    /// circuit, each field dropped, swapped with the next, and after an
    /// extra field, and an extra field last; and the stored key differing
    /// from the looked-up one in any one field. A reader that looks fields
    /// up by name accepts the extra and the swapped ones.
    #[test]
    fn misarranged_entries_and_other_keys_are_misses_and_rewritten() {
        let dir = scratch("strict");
        let (net, key, fresh, intact) = stored_accumulator();
        let opts = CompileOptions::default();
        let entry = Json::parse(&intact).unwrap();
        let extra = || ("epilogue".to_string(), Json::UInt(0));
        let mut damaged = Vec::new();
        for section in ["", "key", "circuit"] {
            let fields = match section {
                "" => &entry,
                s => entry.get(s).unwrap(),
            };
            let Json::Obj(fields) = fields else {
                panic!("'{section}' is an object")
            };
            let n = fields.len();
            let mut damage = |what: String, edit: &dyn Fn(&mut Pairs)| {
                damaged.push((format!("'{section}' {what}"), edited(&entry, section, edit)));
            };
            for i in 0..n {
                damage(format!("field {i} dropped"), &|f| drop(f.remove(i)));
                damage(format!("field {i} swapped"), &|f| f.swap(i, (i + 1) % n));
                damage(format!("field {i} after an extra field"), &|f| {
                    f.insert(i, extra())
                });
            }
            damage("with an extra field last".into(), &|f| f.push(extra()));
        }
        let other_keys = [
            Key {
                net_hash: key.net_hash ^ 1,
                ..key
            },
            Key {
                map_k: key.map_k + 1,
                ..key
            },
            Key {
                map_max_cuts: key.map_max_cuts + 1,
                ..key
            },
            Key {
                fill_bits: key.fill_bits ^ 1,
                ..key
            },
            Key {
                max_height: key.max_height + 1,
                ..key
            },
            Key {
                seed: key.seed ^ 1,
                ..key
            },
            Key {
                shape: Some((4, 4)),
                ..key
            },
            Key {
                full_height: !key.full_height,
                ..key
            },
        ];
        for other in other_keys {
            damaged.push((format!("{other:?}"), entry_json(&other, &fresh).render()));
        }

        compile_with_disk(&net, opts, &dir).unwrap();
        let path = entry_path(&dir, &key);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), intact);
        for (what, text) in damaged {
            assert!(parse_entry(&text, &key, &net).is_none(), "{what} read");
            std::fs::write(&path, &text).unwrap();
            compile_with_disk(&net, opts, &dir).unwrap();
            let now = std::fs::read_to_string(&path).unwrap();
            assert!(now == intact, "{what} was not rewritten");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
