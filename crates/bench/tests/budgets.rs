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
//! The only shape so far is `churn`: the `churn` benchmark's system at 200
//! tasks — the `workload::suite` library at VF400 rows, variable partitions
//! with delta reconfiguration, EDF with a 10 ms slice, and the churn
//! admission gate. Counted from building the manager to the returned
//! report, on this thread only (a per-thread counting allocator; a
//! `realloc` counts as one allocation of its new size).
//!
//! Seeded violations, both of which fail it: a per-pair
//! `fpga::Bitstream::diff` of the two circuits' `(0, 0)` streams put back
//! into `DeltaTable::changed_frames` (the load path's pricing) reads 89.8
//! allocations and 54,048 bytes a task; the same diff memoised per pair
//! over stored streams, as pricing was before column images, reads 34.1
//! and 16,550. The ceilings are 4.675 and 1,237.
//!
//! Debug builds run invariant checkers that allocate, so the test runs
//! only under `--release` (`ci.sh` does).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;

use fsim::{SimDuration, SimRng};
use vfpga::{AdmissionPolicy, EdfScheduler, SchedulabilityConfig, System as VSystem};
use workload::{tenant_tasks, Domain, TenantMixParams};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting calls and bytes on threads that opted in.
struct Counting;

fn count(bytes: usize) {
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            ALLOCS.with(|a| a.set(a.get() + 1));
            BYTES.with(|b| b.set(b.get() + bytes as u64));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counting touches only const-initialised thread-locals
// that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `(allocations, bytes)` made on this thread while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    let (a1, b1) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    (out, a1 - a0, b1 - b0)
}

const CHURN_TASKS: usize = 200;

/// `churn`'s allocations and bytes allocated per task.
fn churn_budget() -> Vec<(&'static str, f64)> {
    let spec = fpga::device::part("VF400");
    let (lib, ids) = bench::setup::compile_suite_lib(&Domain::ALL, spec);
    let specs = tenant_tasks(
        &TenantMixParams {
            base: bench::setup::os_mix(CHURN_TASKS, SimDuration::from_millis(80)),
            tenants: 8,
            deadline: Some(SimDuration::from_millis(400)),
            deadline_spread: 0.5,
            ..Default::default()
        },
        &ids,
        &mut SimRng::new(2833),
    );
    let admission = AdmissionPolicy {
        max_in_flight: 64,
        queue_cap: 4096,
        watchdog: None,
        degradation: None,
        schedulability: Some(SchedulabilityConfig { margin: 1.0 }),
    };
    let (report, allocs, bytes) = counted(|| {
        let mut mgr = bench::setup::variable_partitions(&lib, bench::setup::serial_fast(spec));
        mgr.enable_delta();
        let sched = EdfScheduler::for_tasks(&specs, Some(SimDuration::from_millis(10)));
        VSystem::new(
            Arc::clone(&lib),
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
    let per_task = |n: u64| n as f64 / CHURN_TASKS as f64;
    vec![
        ("allocs_per_task", per_task(allocs)),
        ("bytes_per_task", per_task(bytes)),
    ]
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
    let measured = churn_budget();
    let mut over = Vec::new();
    for (name, value) in &measured {
        let row = text
            .lines()
            .map(str::split_whitespace)
            .map(|mut w| (w.next(), w.next(), w.next()))
            .find(|&(shape, counter, _)| shape == Some("churn") && counter == Some(name));
        let ceiling: f64 = match row {
            Some((_, _, Some(v))) => v.parse().expect("a ceiling is a number"),
            _ => panic!("budgets.txt has no `churn {name}` row"),
        };
        println!("churn {name} {value:.3} (ceiling {ceiling})");
        if *value > ceiling {
            over.push(format!("churn {name}: {value:.3} > {ceiling}"));
        }
    }
    assert!(over.is_empty(), "over budget: {over:?}");
}
