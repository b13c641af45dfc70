//! Deterministic work budgets: counters that do not depend on the host,
//! held at or below the ceilings recorded in `crates/bench/budgets.txt`.
//!
//! Host time moves by tens of percent between runs on a shared machine, so
//! no wall-clock gate can catch a regression that leaves the output
//! identical. What the code allocates to do a fixed piece of work does not
//! move, and a return to rebuilding an artefact on a hot path shows up
//! there first. Each row of `budgets.txt` is `<shape> <counter> <ceiling>`;
//! any measured value above its ceiling fails. A change that lowers a
//! counter writes the new value, so the file's history is the trajectory.
//!
//! Three counters a task (a circuit for `fabric`), on this thread only (a
//! per-thread counting allocator): allocations, bytes allocated (a
//! `realloc` counts as one allocation of its new size), and peak live
//! bytes — the high-water mark of bytes allocated minus bytes freed over
//! the counted window, the deterministic stand-in for the benchmark's
//! `peak_rss_mb`.
//!
//! Four shapes run systems over the `workload::suite` library at VF400
//! rows, and a fifth runs no system:
//!
//! * `churn` — the `churn` benchmark's system at 200 tasks: variable
//!   partitions with delta reconfiguration, EDF with a 10 ms slice, and the
//!   churn admission gate. Counted from building the manager to the
//!   returned report. Seeded violations: a per-pair `fpga::Bitstream::diff`
//!   of the two circuits' `(0, 0)` streams put back into the load path's
//!   pricing (now `CircuitLib::changed_frames`) reads 89.8
//!   allocations and 54,048 bytes a task; the same diff memoised per pair
//!   over stored streams, as pricing was before column images, reads 34.1
//!   and 16,550. Seeded violation: the region list back in
//!   `admission::service_estimate` (`manager.resident_regions()` once an
//!   estimate, in place of `is_resident`) reads 3.985 allocations, 588.9
//!   bytes and 440.63 peak live bytes a task, failing all three rows.
//! * `stream` — the `stream` benchmark's system at 6,000 tasks: Poisson
//!   tasks of four FPGA runs, dynamic loading with state save/restore under
//!   round-robin with a 10 ms slice. Counted from generating the specs to
//!   the returned report, holding the specs and running a clone, as the
//!   benchmark does. Seeded violations, each of which fails it: programs
//!   grown op by op (`Vec::new()` in `workload::poisson_tasks`) read 6.002
//!   allocations, 984.1 bytes and 791.9 peak live bytes a task; the report
//!   collected into a fresh vector instead of over the spec table reads
//!   784.1 bytes and 783.9 peak live bytes (and fails `churn`'s three rows).
//!   Seeded violation: a spec clone that deep-copies its name and program
//!   again (a `Clone` for `TaskSpec` that copies the `Arc<str>` and the
//!   `Program` into fresh allocations, as the `String` and `Vec<Op>` did)
//!   reads 4.002 allocations, 644.1 bytes and 644.1 peak live bytes a
//!   task, and fails every `churn`, `stream`, `durable` and `fleet` row
//!   (`fleet` 9.335 allocations, 2,855.6 bytes and 1,750.9 peak live bytes
//!   a task: each shard build copies its specs).
//! * `durable` — the `durable` benchmark's system at 2,000 tasks: the
//!   `stream` system at a third of its load, with delta checkpoints every
//!   5 s (a full image every fourth) and ten seeded host crashes, each
//!   restored from the last capture. Counted from the one build, over a
//!   clone of the held specs as the benchmark does, to the returned
//!   report. Seeded violation: a fresh build for every incarnation, as
//!   `run_with_crashes` did before it restarted the crashed system in
//!   place, reads 27.611 allocations and 5,277.0 bytes a task (peak live
//!   bytes level, 859.998). Seeded violation: captures through
//!   `snapshot()` again (`capture` taking each component's JSON tree, as
//!   before the components' typed images) read 3.322 allocations, 1,150.4
//!   bytes and 748.735 peak live bytes a task, failing all three rows.
//!   Seeded violation: a capture that leaves the journal whole (no `clear`
//!   in `on_checkpoint`, so the journal keeps every record of the run, as
//!   it did before a capture ended the records it covers) reads 0.120
//!   allocations, 787.1 bytes and 522.504 peak live bytes a task, failing
//!   all three rows (and `fleet`'s three: 1.335, 1,976.3 and 977.406).
//! * `fleet` — the `fleet` benchmark's shape at 2,000 tasks: 32 tenants on
//!   eight devices under least-loaded placement, the dynamic-loading system
//!   on every shard, a capture every second, two device crashes a device
//!   and sixteen live migrations. Counted from cloning the held specs to
//!   the returned fleet report. Seeded violation: a fresh shard build for
//!   every failover, rebalance and migration source, as before shards
//!   were restarted in place (93 builds a run against 24), reads 44.742
//!   allocations and 7,610.7 bytes a task. Its peak live bytes, 2,526.186,
//!   sit 0.01 % lower: the shard table's slots held a `System` 16 bytes
//!   narrower. Seeded violation: a copy of the source shard's spec and
//!   index tables for every migration's destination, in place of sharing
//!   them, reads 21.726 allocations, 4,072.2 bytes and 2,523.9 peak live
//!   bytes a task, and fails all three `fleet` rows. Seeded violation:
//!   captures through `snapshot()` again, as under `durable`, read 17.587
//!   allocations, 3,227.5 bytes and 1,653.319 peak live bytes a task,
//!   failing all three rows.
//! * `fabric` — the `fabric` benchmark's pipeline over its 24 netlists on
//!   a VF1000, once each: compile, route at `(1, 1)`, emit, download, the
//!   fabric against the gate simulator, readback, and a delta download
//!   from a half-rewritten variant checked against a fresh download's
//!   `state_digest`. Counted from the first compile to the last digest.
//!   Seeded violation: route templates built by a maze search over the
//!   empty region, as before the L walk, read 368.833 allocations and
//!   487,249.0 bytes a circuit, failing both rows (peak live bytes level,
//!   12,045.875).
//!
//! Debug builds run invariant checkers that allocate, so the test runs
//! only under `--release` (`ci.sh` does).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

use fpga::{Bitstream, ConfigPort, Device, DeviceSpec, FabricView, Rect};
use fsim::{CrashPlan, SimDuration, SimRng};
use netlist::library::{alu, arith, codes, ext, logic, seq};
use netlist::{Netlist, Simulator};
use pnr::{emit_bitstream, mutate_tables, CompileOptions, PinAssignment, RoutingFabric};
use std::collections::{BTreeMap, HashMap};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::{
    run_fleet, run_with_crashes, AdmissionPolicy, CheckpointConfig, CircuitId, CircuitLib,
    DeviceFaultPlan, EdfScheduler, FleetConfig, MigrationPlan, Op, PlacementPolicy, PreemptAction,
    RoundRobinScheduler, SchedulabilityConfig, ShardCtx, System as VSystem,
};
use workload::{poisson_tasks, tenant_tasks, Domain, TenantMixParams};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting calls, bytes and live bytes on threads
/// that opted in.
struct Counting;

/// Book one call: `allocated` bytes handed out by it (`None` for a free),
/// `live` the change in bytes held.
fn book(allocated: Option<usize>, live: i64) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            if let Some(bytes) = allocated {
                ALLOCS.with(|a| a.set(a.get() + 1));
                BYTES.with(|b| b.set(b.get() + bytes as u64));
            }
            let now = LIVE.with(|l| {
                l.set(l.get() + live);
                l.get()
            });
            PEAK.with(|p| p.set(p.get().max(now)));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialised thread-locals
// that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(Some(layout.size()), layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(Some(layout.size()), layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(Some(new_size), new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(None, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// One shape's measured counters, by name.
type Rows = [(&'static str, f64); 3];

/// The three counters' names, per task and per circuit.
const PER_TASK: [&str; 3] = [
    "allocs_per_task",
    "bytes_per_task",
    "peak_live_bytes_per_task",
];
const PER_CIRCUIT: [&str; 3] = [
    "allocs_per_circuit",
    "bytes_per_circuit",
    "peak_live_bytes_per_circuit",
];

/// `f`'s result and the budget rows of `units` tasks or circuits it cost
/// on this thread: allocations, bytes allocated and peak live bytes, each
/// a unit, under `names`. Whatever `f` returns is dropped after the window
/// closes.
fn counted<T>(units: usize, names: [&'static str; 3], f: impl FnOnce() -> T) -> (T, Rows) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    LIVE.with(|l| l.set(0));
    PEAK.with(|p| p.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    let per_unit = |n: u64| n as f64 / units as f64;
    let rows = [
        (names[0], per_unit(a1 - a0)),
        (names[1], per_unit(b1 - b0)),
        (names[2], per_unit(PEAK.with(Cell::get) as u64)),
    ];
    (out, rows)
}

const CHURN_TASKS: usize = 200;
const STREAM_TASKS: usize = 6_000;
const DURABLE_TASKS: usize = 2_000;
const FLEET_TASKS: usize = 2_000;
const SLICE: SimDuration = SimDuration::from_millis(10);

fn churn_budget(lib: &Arc<CircuitLib>, ids: &[CircuitId], spec: DeviceSpec) -> Rows {
    let specs = tenant_tasks(
        &TenantMixParams {
            base: bench::setup::os_mix(CHURN_TASKS, SimDuration::from_millis(80)),
            tenants: 8,
            deadline: Some(SimDuration::from_millis(400)),
            deadline_spread: 0.5,
            ..Default::default()
        },
        ids,
        &mut SimRng::new(2833),
    );
    let admission = AdmissionPolicy {
        max_in_flight: 64,
        queue_cap: 4096,
        watchdog: None,
        degradation: None,
        schedulability: Some(SchedulabilityConfig { margin: 1.0 }),
    };
    let (report, rows) = counted(CHURN_TASKS, PER_TASK, || {
        let mut mgr = bench::setup::variable_partitions(lib, bench::setup::serial_fast(spec));
        mgr.enable_delta();
        let sched = EdfScheduler::for_tasks(&specs, Some(SLICE));
        VSystem::new(
            Arc::clone(lib),
            mgr,
            sched,
            bench::setup::save_restore(),
            specs.clone(),
        )
        .with_admission(admission)
        .expect("the gate fits the system")
        .run()
        .expect("churn runs to completion")
    });
    let delta = report.delta.expect("delta is enabled");
    assert!(delta.delta_downloads > 0, "the run must price deltas");
    rows
}

fn stream_budget(lib: &Arc<CircuitLib>, ids: &[CircuitId], spec: DeviceSpec) -> Rows {
    let ((specs, report), rows) = counted(STREAM_TASKS, PER_TASK, || {
        let mix = bench::setup::os_mix(STREAM_TASKS, SimDuration::from_millis(100));
        let specs = poisson_tasks(&mix, ids, &mut SimRng::new(2833));
        let timing = bench::setup::serial_fast(spec);
        let mgr = DynLoadManager::new(Arc::clone(lib), timing, PreemptAction::SaveRestore);
        let report = VSystem::new(
            Arc::clone(lib),
            mgr,
            RoundRobinScheduler::new(SLICE),
            bench::setup::save_restore(),
            specs.clone(),
        )
        .run()
        .expect("stream runs to completion");
        (specs, report)
    });
    assert_eq!(report.tasks.len(), specs.len());
    assert!(report.manager_stats.state_saves > 0, "the run must preempt");
    rows
}

fn durable_budget(lib: &Arc<CircuitLib>, ids: &[CircuitId], spec: DeviceSpec) -> Rows {
    let interarrival = SimDuration::from_millis(250);
    let mix = bench::setup::os_mix(DURABLE_TASKS, interarrival);
    let specs = poisson_tasks(&mix, ids, &mut SimRng::new(2833));
    let ckpt = CheckpointConfig::new(SimDuration::from_secs(5)).with_delta_checkpoints(4);
    // Ten crashes over the run: the cap binds.
    let sim_s = (interarrival * DURABLE_TASKS as u64).as_secs_f64();
    let crashes = CrashPlan {
        seed: 0xC4A5,
        crash_rate_per_s: 20.0 / sim_s,
        max_crashes: 10,
    };
    let build = || {
        let timing = bench::setup::serial_fast(spec);
        let mgr = DynLoadManager::new(Arc::clone(lib), timing, PreemptAction::SaveRestore);
        VSystem::new(
            Arc::clone(lib),
            mgr,
            RoundRobinScheduler::new(SLICE),
            bench::setup::save_restore(),
            specs.clone(),
        )
    };
    let (report, rows) = counted(DURABLE_TASKS, PER_TASK, || {
        run_with_crashes(build, ckpt, crashes).expect("durable runs to completion")
    });
    assert_eq!(report.crash.crashes, 10, "every crash of the plan strikes");
    assert!(report.crash.checkpoints > 50, "the run must capture");
    rows
}

fn fleet_budget(
    lib: &Arc<CircuitLib>,
    ids: &[CircuitId],
    sw: &BTreeMap<u32, u64>,
    spec: DeviceSpec,
) -> Rows {
    let specs = tenant_tasks(
        &TenantMixParams {
            base: bench::setup::os_mix(FLEET_TASKS, SimDuration::from_millis(15)),
            tenants: 32,
            ..Default::default()
        },
        ids,
        &mut SimRng::new(2833),
    );
    // Two crashes a device and sixteen migrations: the caps bind.
    let sim_s = FLEET_TASKS as f64 * 0.015;
    let cfg = FleetConfig::new(8)
        .with_placement(PlacementPolicy::LeastLoaded)
        .with_max_shards_per_device(8)
        .with_checkpoints(CheckpointConfig::new(SimDuration::from_secs(1)))
        .with_device_faults(DeviceFaultPlan {
            seed: 0xD0_FA17,
            crash_rate_per_s: 5.0 / sim_s,
            outage: SimDuration::from_millis(50),
            max_crashes: 2,
        })
        .with_migrations(MigrationPlan {
            seed: 0x515_EED,
            rate_per_s: 40.0 / sim_s,
            max_migrations: 16,
            delta_copy: false,
            crash: None,
        });
    let build = |ctx: &ShardCtx<'_>| {
        let mut specs = ctx.specs.to_vec();
        if ctx.software {
            for op in specs.iter_mut().flat_map(|s| &mut s.ops) {
                if let Op::FpgaRun { circuit, cycles } = *op {
                    *op = Op::Cpu(SimDuration::from_nanos(sw[&circuit.0] * cycles));
                }
            }
        }
        let timing = bench::setup::serial_fast(spec);
        let mgr = DynLoadManager::new(Arc::clone(lib), timing, PreemptAction::SaveRestore);
        Ok(VSystem::new(
            Arc::clone(lib),
            mgr,
            RoundRobinScheduler::new(SLICE),
            bench::setup::save_restore(),
            specs,
        ))
    };
    let (fleet, rows) = counted(FLEET_TASKS, PER_TASK, || {
        run_fleet(&cfg, specs.clone(), build).expect("fleet runs to completion")
    });
    let stats = fleet.stats;
    assert_eq!(stats.device_crashes, 16, "every crash of the plan strikes");
    assert!(
        stats.failovers > 0 && stats.tenant_migrations > 0,
        "{stats:?}"
    );
    assert_eq!(stats.lost_in_flight, 0);
    rows
}

/// The `fabric` benchmark's 24 netlists: eight kinds at three widths.
fn fabric_netlists() -> Vec<Netlist> {
    let mut nets = Vec::new();
    for w in [4, 6, 8] {
        nets.push(alu::alu(&format!("alu{w}"), w));
        nets.push(arith::array_multiplier(&format!("mul{w}"), w));
        nets.push(ext::booth_multiplier(
            &format!("booth{}", w / 2 + 1),
            w / 2 + 1,
        ));
        nets.push(arith::carry_select_adder(&format!("csa{}", 2 * w), 2 * w));
        nets.push(logic::popcount(&format!("pop{}", 2 * w), 2 * w));
        nets.push(seq::accumulator(&format!("acc{}", 2 * w), 2 * w));
    }
    for w in [4, 8, 16] {
        nets.push(logic::barrel_shifter(&format!("bsh{w}"), w));
    }
    nets.push(codes::crc_comb("crc8x8", codes::CRC8, 8, 8));
    nets.push(codes::crc_comb("crc16x8", codes::CRC16_CCITT, 16, 8));
    nets.push(codes::crc_comb("crc16x16", codes::CRC16_CCITT, 16, 16));
    nets
}

/// One circuit's trip through the `fabric` pipeline; whether the fabric
/// matched the gate simulator and the delta download the fresh one.
fn fabric_item(spec: DeviceSpec, opts: CompileOptions, net: &Netlist, idx: u64) -> bool {
    let compiled = pnr::compile(net, opts).expect("a library netlist compiles");
    let placed = &compiled.placed;
    let origin = (1, 1);
    RoutingFabric::for_device(&spec)
        .route_circuit(placed, origin)
        .expect("a library circuit routes on an empty device");
    let pins = PinAssignment::contiguous(net.num_inputs(), net.outputs().len());
    let bs = emit_bitstream(placed, origin, &pins, false);
    let download = |bs: &Bitstream| {
        let mut dev = Device::new(spec, ConfigPort::SerialFast);
        dev.apply(bs).expect("an emitted stream downloads");
        dev
    };
    let mut dev = download(&bs);
    let region = Rect::new(origin.0, origin.1, placed.width, placed.height);
    let mut view = FabricView::resolve(&dev, region).expect("an emitted region resolves");
    let mut gold = Simulator::new(net);
    let mut rng = SimRng::new(2833).derive(idx);
    let mut ok = true;
    for _ in 0..if net.is_sequential() { 8 } else { 1 } {
        let words: Vec<u64> = (0..net.num_inputs()).map(|_| rng.next_u64()).collect();
        let pinvals: HashMap<u32, u64> = pins
            .inputs
            .iter()
            .copied()
            .zip(words.iter().copied())
            .collect();
        gold.eval(&words);
        view.eval(&dev, &pinvals);
        ok &= pins
            .outputs
            .iter()
            .enumerate()
            .all(|(o, &p)| view.output(&dev, p) == gold.output(o));
        gold.clock();
        view.clock(&mut dev);
    }
    dev.readback_region(&region);
    let fresh = download(&bs).state_digest();
    let variant = mutate_tables(&compiled, 0.5, 2833 ^ idx);
    let bs_variant = emit_bitstream(&variant.placed, origin, &pins, false);
    let delta = Bitstream::diff(&bs_variant, &bs);
    let mut dev2 = download(&bs_variant);
    dev2.apply(&delta.stream).expect("a delta stream downloads");
    ok && dev2.state_digest() == fresh
}

fn fabric_budget() -> Rows {
    let spec = fpga::device::part("VF1000");
    let opts = CompileOptions {
        max_height: spec.rows - 2,
        ..Default::default()
    };
    let nets = fabric_netlists();
    let (ok, rows) = counted(nets.len(), PER_CIRCUIT, || {
        (0..)
            .zip(&nets)
            .filter(|&(idx, net)| fabric_item(spec, opts, net, idx))
            .count()
    });
    assert_eq!(
        ok,
        nets.len(),
        "every circuit matches its gate model and fresh download"
    );
    rows
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "debug checkers allocate; run with --release"
)]
fn work_stays_within_its_budget() {
    let here = std::env::var("CARGO_MANIFEST_DIR").expect("cargo runs the tests");
    let path = Path::new(&here).join("budgets.txt");
    let text = std::fs::read_to_string(&path).expect("budgets.txt exists");
    let spec = fpga::device::part("VF400");
    let (lib, ids, sw) = bench::setup::compile_suite_lib_sw(&Domain::ALL, spec);
    let shapes = [
        ("churn", churn_budget(&lib, &ids, spec)),
        ("stream", stream_budget(&lib, &ids, spec)),
        ("durable", durable_budget(&lib, &ids, spec)),
        ("fleet", fleet_budget(&lib, &ids, &sw, spec)),
        ("fabric", fabric_budget()),
    ];
    let mut over = Vec::new();
    for (shape, rows) in shapes {
        for (name, value) in rows {
            let row = text
                .lines()
                .map(str::split_whitespace)
                .map(|mut w| (w.next(), w.next(), w.next()))
                .find(|&(s, counter, _)| s == Some(shape) && counter == Some(name));
            let ceiling: f64 = match row {
                Some((_, _, Some(v))) => v.parse().expect("a ceiling is a number"),
                _ => panic!("budgets.txt has no `{shape} {name}` row"),
            };
            println!("{shape} {name} {value:.3} (ceiling {ceiling})");
            if value > ceiling {
                over.push(format!("{shape} {name}: {value:.3} > {ceiling}"));
            }
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}
