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
//! * Entries are *advisory*: a missing, corrupt, truncated, or
//!   version-mismatched file is treated exactly like a miss — the circuit
//!   is recompiled and the entry rewritten. So is one that parses but does
//!   not hang together (`coherent`): an index past what it indexes, two
//!   blocks on one cell, another netlist's interface — emission and
//!   routing index by those numbers unchecked. The cache can be deleted at
//!   any time without affecting correctness, because [`crate::compile`] is
//!   deterministic and the stored artifact is observationally identical to
//!   a fresh compile.
//! * The full cache key (netlist content hash + every [`CompileOptions`]
//!   field, `f64`s by bit pattern) is stored *inside* the file and
//!   verified on load, so a filename hash collision or a stale file from
//!   an older workload can never hand back the wrong circuit.
//! * Writes go to a process-unique temp file in the same directory,
//!   then `rename` into place — concurrent processes race benignly
//!   (last rename wins; both wrote identical bytes).
//!
//! Schema versioning: [`DISK_SCHEMA`] names the format. Any change to the
//! serialized shape must bump the version; old entries then read as stale
//! and are rewritten on the next compile.

use crate::cache::Key;
use crate::flow::{compile, CompileOptions, CompiledCircuit};
use crate::pack::{BlockSource, PackedBlock, PackedCircuit};
use crate::place::{PlaceError, PlacedCircuit};
use fsim::json::{Json, Obj};
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

/// FNV-1a over the key fields; names the entry file. Collisions are
/// harmless (the stored key is verified on load), this only needs to
/// spread entries across filenames.
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

fn key_json(key: &Key) -> Json {
    Obj::new()
        .set("net_hash", key.net_hash)
        .set("map_k", key.map_k)
        .set("map_max_cuts", key.map_max_cuts)
        .set("fill_bits", key.fill_bits)
        .set("max_height", key.max_height)
        .set("seed", key.seed)
        .set(
            "shape",
            match key.shape {
                None => Json::Null,
                Some((w, h)) => Json::Arr(vec![w.into(), h.into()]),
            },
        )
        .set("full_height", key.full_height)
        .build()
}

/// `BlockSource` → compact tagged integer (`tag * 2^32 + value`).
fn source_code(s: BlockSource) -> u64 {
    match s {
        BlockSource::None => 0,
        BlockSource::Block(i) => (1u64 << 32) | i as u64,
        BlockSource::Input(i) => (2u64 << 32) | i as u64,
        BlockSource::Const(b) => (3u64 << 32) | b as u64,
    }
}

fn source_decode(v: u64) -> Option<BlockSource> {
    let val = (v & 0xffff_ffff) as u32;
    match v >> 32 {
        0 if val == 0 => Some(BlockSource::None),
        1 => Some(BlockSource::Block(val)),
        2 => Some(BlockSource::Input(val)),
        3 if val <= 1 => Some(BlockSource::Const(val == 1)),
        _ => None,
    }
}

/// One block as a flat scalar row:
/// `[lut_table, in0, in1, in2, in3, ff_code, out_from_ff]`
/// with `ff_code` 0 = no FF, 1 = `Some(false)`, 2 = `Some(true)`.
fn block_json(b: &PackedBlock) -> Json {
    let ff_code: u64 = match b.ff {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    Json::Arr(vec![
        Json::UInt(b.lut_table as u64),
        Json::UInt(source_code(b.inputs[0])),
        Json::UInt(source_code(b.inputs[1])),
        Json::UInt(source_code(b.inputs[2])),
        Json::UInt(source_code(b.inputs[3])),
        Json::UInt(ff_code),
        Json::Bool(b.out_from_ff),
    ])
}

fn circuit_json(c: &CompiledCircuit) -> Json {
    let p = &c.placed;
    let pc = &p.circuit;
    let mut coords = Vec::with_capacity(p.coords.len() * 2);
    for &(col, row) in &p.coords {
        coords.push(Json::UInt(col as u64));
        coords.push(Json::UInt(row as u64));
    }
    Obj::new()
        .set("name", pc.name.as_str())
        .set("num_inputs", pc.num_inputs)
        .set(
            "outputs",
            Json::Arr(
                pc.outputs
                    .iter()
                    .map(|(n, i)| Json::Arr(vec![Json::Str(n.clone()), Json::UInt(*i as u64)]))
                    .collect(),
            ),
        )
        .set(
            "ff_block",
            Json::Arr(pc.ff_block.iter().map(|&i| Json::UInt(i as u64)).collect()),
        )
        .set(
            "blocks",
            Json::Arr(pc.blocks.iter().map(block_json).collect()),
        )
        .set("width", p.width)
        .set("height", p.height)
        .set("coords", Json::Arr(coords))
        .set("hpwl", p.hpwl)
        .set("crit_path_ns_bits", c.crit_path_ns.to_bits())
        .set("clock_ns_bits", c.clock_ns.to_bits())
        .build()
}

fn entry_json(key: &Key, c: &CompiledCircuit) -> Json {
    Obj::new()
        .set("schema", DISK_SCHEMA)
        .set("key", key_json(key))
        .set("circuit", circuit_json(c))
        .build()
}

// --- defensive readers: any shape mismatch yields None (treated as a
// --- corrupt/stale entry, i.e. a plain miss).

fn get_u64(j: &Json, key: &str) -> Option<u64> {
    match j.get(key)? {
        Json::UInt(v) => Some(*v),
        _ => None,
    }
}

fn get_u32(j: &Json, key: &str) -> Option<u32> {
    u32::try_from(get_u64(j, key)?).ok()
}

fn get_bool(j: &Json, key: &str) -> Option<bool> {
    match j.get(key)? {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

fn get_str<'a>(j: &'a Json, key: &str) -> Option<&'a str> {
    match j.get(key)? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn as_uint(j: &Json) -> Option<u64> {
    match j {
        Json::UInt(v) => Some(*v),
        _ => None,
    }
}

fn key_matches(j: &Json, key: &Key) -> bool {
    let shape_ok = match (j.get("shape"), key.shape) {
        (Some(Json::Null), None) => true,
        (Some(Json::Arr(a)), Some((w, h))) => {
            a.len() == 2 && as_uint(&a[0]) == Some(w as u64) && as_uint(&a[1]) == Some(h as u64)
        }
        _ => false,
    };
    shape_ok
        && get_u64(j, "net_hash") == Some(key.net_hash)
        && get_u64(j, "map_k") == Some(key.map_k as u64)
        && get_u64(j, "map_max_cuts") == Some(key.map_max_cuts as u64)
        && get_u64(j, "fill_bits") == Some(key.fill_bits)
        && get_u64(j, "max_height") == Some(key.max_height as u64)
        && get_u64(j, "seed") == Some(key.seed)
        && get_bool(j, "full_height") == Some(key.full_height)
}

fn block_from_json(j: &Json) -> Option<PackedBlock> {
    let row = j.as_arr()?;
    if row.len() != 7 {
        return None;
    }
    let lut = u16::try_from(as_uint(&row[0])?).ok()?;
    let mut inputs = [BlockSource::None; 4];
    for (slot, item) in inputs.iter_mut().zip(&row[1..5]) {
        *slot = source_decode(as_uint(item)?)?;
    }
    let ff = match as_uint(&row[5])? {
        0 => None,
        1 => Some(false),
        2 => Some(true),
        _ => return None,
    };
    let out_from_ff = match &row[6] {
        Json::Bool(b) => *b,
        _ => return None,
    };
    Some(PackedBlock {
        lut_table: lut,
        inputs,
        ff,
        out_from_ff,
    })
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

fn circuit_from_json(j: &Json, net: &netlist::Netlist) -> Option<CompiledCircuit> {
    let name = get_str(j, "name")?.to_string();
    let num_inputs = usize::try_from(get_u64(j, "num_inputs")?).ok()?;
    let outputs = j
        .get("outputs")?
        .as_arr()?
        .iter()
        .map(|o| {
            let pair = o.as_arr()?;
            if pair.len() != 2 {
                return None;
            }
            let n = match &pair[0] {
                Json::Str(s) => s.clone(),
                _ => return None,
            };
            Some((n, u32::try_from(as_uint(&pair[1])?).ok()?))
        })
        .collect::<Option<Vec<_>>>()?;
    let ff_block = j
        .get("ff_block")?
        .as_arr()?
        .iter()
        .map(|v| u32::try_from(as_uint(v)?).ok())
        .collect::<Option<Vec<_>>>()?;
    let blocks = j
        .get("blocks")?
        .as_arr()?
        .iter()
        .map(block_from_json)
        .collect::<Option<Vec<_>>>()?;
    let raw_coords = j.get("coords")?.as_arr()?;
    if raw_coords.len() != blocks.len() * 2 {
        return None;
    }
    let coords = raw_coords
        .chunks(2)
        .map(|pair| {
            Some((
                u32::try_from(as_uint(&pair[0])?).ok()?,
                u32::try_from(as_uint(&pair[1])?).ok()?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    let placed = PlacedCircuit {
        circuit: PackedCircuit {
            name,
            blocks,
            num_inputs,
            outputs,
            ff_block,
        },
        width: get_u32(j, "width")?,
        height: get_u32(j, "height")?,
        coords,
        hpwl: get_u64(j, "hpwl")?,
    };
    if !coherent(&placed, net) {
        return None;
    }
    Some(CompiledCircuit {
        placed,
        crit_path_ns: f64::from_bits(get_u64(j, "crit_path_ns_bits")?),
        clock_ns: f64::from_bits(get_u64(j, "clock_ns_bits")?),
    })
}

/// Read an entry's text. `None` on any miss: unparsable, wrong schema
/// version, stored key mismatch (filename collision / stale file), or a
/// circuit that is not [`coherent`] with `net`.
fn parse_entry(text: &str, key: &Key, net: &netlist::Netlist) -> Option<CompiledCircuit> {
    let doc = Json::parse(text).ok()?;
    if get_str(&doc, "schema") != Some(DISK_SCHEMA) {
        return None;
    }
    if !key_matches(doc.get("key")?, key) {
        return None;
    }
    circuit_from_json(doc.get("circuit")?, net)
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
            assert_eq!(source_decode(source_code(s)), Some(s));
        }
        assert_eq!(source_decode(5u64 << 32), None, "unknown tag rejected");
        assert_eq!(source_decode(3u64 << 32 | 2), None, "bad const rejected");
    }
}
