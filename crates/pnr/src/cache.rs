//! Process-wide compile cache.
//!
//! The experiment harness sweeps many `(seed, policy, device, …)` points,
//! and almost every point re-compiles the same workload suites through
//! the full map/pack/place/timing flow. [`compile_shared`] memoizes
//! [`compile`] results behind a global table keyed by the netlist's
//! content hash plus every compile option, handing out
//! `Arc<CompiledCircuit>` so a circuit is placed and routed once per
//! process and shared by reference everywhere else.
//!
//! Correctness rests on two facts:
//! * [`compile`] is deterministic: the same netlist and options always
//!   produce the same placement, timing, and (later) bitstreams — so a
//!   cache hit is observationally identical to a fresh compile. (Host
//!   wall-clock flow timings live in the ambient [`fsim::span`] profiler,
//!   not in [`CompiledCircuit`], so caching does not skew any stored
//!   artifact — a hit simply records no `pnr;*` spans.)
//! * The key covers everything [`compile`] reads: the netlist content
//!   hash (name, gates, inputs, outputs) and all [`CompileOptions`]
//!   fields (`fill` via its bit pattern, since `f64` is not `Eq`).
//!
//! Hit/miss counters are monotone but *thread-racy* (two threads may both
//! miss on the same key and compile twice; the first insert wins and
//! both results are identical) — they feed the benchmark's cache
//! metrics, never deterministic output.

use crate::flow::{compile, CompileOptions, CompiledCircuit};
use crate::place::PlaceError;
use netlist::Netlist;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

fsim::record! {
    /// Cache key: netlist content hash + every compile option. Shared with
    /// the on-disk layer ([`crate::disk`]), which stores it inside each
    /// entry file and reads it back strictly.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub(crate) struct Key {
        pub(crate) net_hash: u64,
        pub(crate) map_k: usize,
        pub(crate) map_max_cuts: usize,
        pub(crate) fill_bits: u64,
        pub(crate) max_height: u32,
        pub(crate) seed: u64,
        pub(crate) shape: Option<(u32, u32)>,
        pub(crate) full_height: bool,
    }
}

impl Key {
    pub(crate) fn new(net: &Netlist, opts: CompileOptions) -> Self {
        Key {
            net_hash: net.content_hash(),
            map_k: opts.map.k,
            map_max_cuts: opts.map.max_cuts,
            fill_bits: opts.fill.to_bits(),
            max_height: opts.max_height,
            seed: opts.seed,
            shape: opts.shape,
            full_height: opts.full_height,
        }
    }
}

/// Hit/miss counters for the process-wide cache (host diagnostics only:
/// under threads two workers can race to compile the same key, so the
/// split between hits and misses is not deterministic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the table.
    pub hits: u64,
    /// Lookups that ran the full flow.
    pub misses: u64,
    /// Process-cache misses served from the on-disk cache.
    pub disk_hits: u64,
    /// On-disk lookups that found no usable entry (missing, corrupt, or
    /// stale — all read as a plain miss).
    pub disk_misses: u64,
    /// Entries written (or rewritten over a corrupt file) on disk.
    pub disk_writes: u64,
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static DISK_MISSES: AtomicU64 = AtomicU64::new(0);
static DISK_WRITES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn note_disk_hit() {
    DISK_HITS.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_disk_miss() {
    DISK_MISSES.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn note_disk_write() {
    DISK_WRITES.fetch_add(1, Ordering::Relaxed);
}

fn table() -> &'static Mutex<HashMap<Key, Arc<CompiledCircuit>>> {
    static TABLE: OnceLock<Mutex<HashMap<Key, Arc<CompiledCircuit>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Compile `net` with `opts`, memoized process-wide. A hit returns the
/// shared artifact without re-running the flow; a miss compiles outside
/// the table lock (so concurrent misses on *different* circuits overlap)
/// and publishes the result.
///
/// When `VFPGA_CACHE_DIR` is set, the persistent [`crate::disk`] layer
/// sits behind the process table: a process miss first tries the disk
/// entry (publishing a valid one to the table), and a genuine compile
/// writes its entry back — so the *next* process starts warm.
pub fn compile_shared(
    net: &Netlist,
    opts: CompileOptions,
) -> Result<Arc<CompiledCircuit>, PlaceError> {
    let key = Key::new(net, opts);
    if let Some(hit) = table().lock().unwrap().get(&key).cloned() {
        HITS.fetch_add(1, Ordering::Relaxed);
        return Ok(hit);
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let disk_dir = crate::disk::configured_dir();
    if let Some(dir) = &disk_dir {
        if let Some(loaded) = crate::disk::load(dir, &key, net) {
            DISK_HITS.fetch_add(1, Ordering::Relaxed);
            let loaded = Arc::new(loaded);
            return Ok(table().lock().unwrap().entry(key).or_insert(loaded).clone());
        }
        DISK_MISSES.fetch_add(1, Ordering::Relaxed);
    }
    let compiled = Arc::new(compile(net, opts)?);
    if let Some(dir) = &disk_dir {
        if crate::disk::store(dir, &key, &compiled) {
            DISK_WRITES.fetch_add(1, Ordering::Relaxed);
        }
    }
    // Two threads may race here; compile is deterministic, so whichever
    // insert wins, every caller observes the same artifact content.
    Ok(table()
        .lock()
        .unwrap()
        .entry(key)
        .or_insert(compiled)
        .clone())
}

/// Snapshot the process-wide hit/miss counters.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        disk_hits: DISK_HITS.load(Ordering::Relaxed),
        disk_misses: DISK_MISSES.load(Ordering::Relaxed),
        disk_writes: DISK_WRITES.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emit::{emit_bitstream, PinAssignment};

    #[test]
    fn hit_returns_the_same_arc() {
        let net = netlist::library::arith::ripple_adder("cache-a8", 8);
        let opts = CompileOptions::default();
        let a = compile_shared(&net, opts).unwrap();
        let b = compile_shared(&net, opts).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit");
    }

    #[test]
    fn different_options_are_different_entries() {
        let net = netlist::library::arith::ripple_adder("cache-opt", 8);
        let a = compile_shared(&net, CompileOptions::default()).unwrap();
        let b = compile_shared(
            &net,
            CompileOptions {
                seed: 0xD1FF,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!Arc::ptr_eq(&a, &b), "seed is part of the key");
    }

    #[test]
    fn infeasible_compiles_propagate_errors() {
        let net = netlist::library::arith::array_multiplier("cache-m8", 8);
        let r = compile_shared(
            &net,
            CompileOptions {
                shape: Some((2, 2)),
                ..Default::default()
            },
        );
        assert!(r.is_err());
    }

    /// The property the whole design rests on: a cached artifact is
    /// indistinguishable from a fresh compile — same placement, same
    /// timing, and identical emitted bitstreams at several origins.
    #[test]
    fn property_cached_equals_fresh_compile() {
        let circuits: Vec<netlist::Netlist> = vec![
            netlist::library::arith::ripple_adder("cp-add8", 8),
            netlist::library::seq::lfsr("cp-lfsr", 16, 0b1101_0000_0000_1000),
            netlist::library::codes::crc_comb("cp-crc8", netlist::library::codes::CRC8, 8, 8),
            netlist::library::alu::alu("cp-alu4", 4),
        ];
        let opts = CompileOptions {
            max_height: 10,
            full_height: true,
            ..Default::default()
        };
        for net in &circuits {
            let cached = compile_shared(&net.clone(), opts).unwrap();
            let cached_again = compile_shared(net, opts).unwrap();
            let fresh = compile(net, opts).unwrap();
            assert!(Arc::ptr_eq(&cached, &cached_again));
            assert_eq!(cached.placed.coords, fresh.placed.coords, "{}", net.name());
            assert_eq!(cached.crit_path_ns, fresh.crit_path_ns);
            assert_eq!(cached.clock_ns, fresh.clock_ns);
            let ins = cached.placed.circuit.num_inputs;
            let outs = cached.placed.circuit.outputs.len();
            for origin in [(0u32, 0u32), (3, 0)] {
                let pins = PinAssignment::contiguous(ins, outs);
                let a = emit_bitstream(&cached.placed, origin, &pins, false);
                let b = emit_bitstream(&fresh.placed, origin, &pins, false);
                assert_eq!(a, b, "{} bitstreams diverge at {origin:?}", net.name());
            }
        }
        let s = cache_stats();
        assert!(s.hits >= circuits.len() as u64, "stats move: {s:?}");
    }
}
