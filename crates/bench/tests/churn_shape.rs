//! The `churn` benchmark's shape, pinned: 300 tenant deadline tasks on a
//! variable-partition manager with delta reconfiguration and the garbage
//! collector, under EDF with a 10 ms slice, behind the churn admission gate
//! (`crates/bench/tests/budgets.rs` runs the same system at 200 tasks for
//! its allocations).
//!
//! Every split, merge, eviction, GC run, relocation and delta price of the
//! partition manager shows in its counters, so two seeds' `ManagerStats`
//! and `DeltaStats`, and the FNV-1a of each rendered report, are pinned as
//! a build from before the manager's lookup tables wrote them. A changed
//! first fit, LRU victim or tie rule, merge, GC trigger or pair count moves
//! them. `ci.sh` runs this under `--release` as well.

use std::sync::Arc;

use fpga::DeviceSpec;
use fsim::{SimDuration, SimRng};
use vfpga::manager::DeltaStats;
use vfpga::{
    AdmissionPolicy, CircuitId, CircuitLib, EdfScheduler, ManagerStats, SchedulabilityConfig,
    System,
};
use workload::{tenant_tasks, Domain, TenantMixParams};

const TASKS: usize = 300;

/// One seed's pinned outcome.
struct Pin {
    seed: u64,
    /// hits, misses, evictions, merges, splits, GC runs, relocations,
    /// downloads.
    manager: [u64; 8],
    /// delta downloads, full downloads, frames written, frames saved,
    /// invalidations.
    delta: [u64; 5],
    report_fnv: u64,
}

const PINS: [Pin; 2] = [
    Pin {
        seed: 2833,
        manager: [809, 832, 819, 371, 543, 136, 487, 1317],
        delta: [1, 829, 0, 1, 818],
        report_fnv: 0x948b3dad74f22179,
    },
    Pin {
        seed: 6151,
        manager: [771, 844, 839, 372, 529, 129, 467, 1309],
        delta: [9, 833, 0, 10, 830],
        report_fnv: 0x589bcaed6c4de3ad,
    },
];

fn manager_row(s: &ManagerStats) -> [u64; 8] {
    [
        s.hits,
        s.misses,
        s.evictions,
        s.merges,
        s.splits,
        s.gc_runs,
        s.relocations,
        s.downloads,
    ]
}

fn delta_row(d: &DeltaStats) -> [u64; 5] {
    [
        d.delta_downloads,
        d.full_downloads,
        d.frames_written,
        d.frames_saved,
        d.invalidations,
    ]
}

/// 64-bit FNV-1a of a rendered report.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(lib: &Arc<CircuitLib>, ids: &[CircuitId], spec: DeviceSpec, seed: u64) -> vfpga::Report {
    let specs = tenant_tasks(
        &TenantMixParams {
            base: bench::setup::os_mix(TASKS, SimDuration::from_millis(80)),
            tenants: 8,
            deadline: Some(SimDuration::from_millis(400)),
            deadline_spread: 0.5,
            ..Default::default()
        },
        ids,
        &mut SimRng::new(seed),
    );
    let admission = AdmissionPolicy {
        max_in_flight: 64,
        queue_cap: 4096,
        watchdog: None,
        degradation: None,
        schedulability: Some(SchedulabilityConfig { margin: 1.0 }),
    };
    let mut mgr = bench::setup::variable_partitions(lib, bench::setup::serial_fast(spec));
    mgr.enable_delta();
    assert!(mgr.gc_enabled);
    let sched = EdfScheduler::for_tasks(&specs, Some(SimDuration::from_millis(10)));
    System::new(
        Arc::clone(lib),
        mgr,
        sched,
        bench::setup::save_restore(),
        specs,
    )
    .with_admission(admission)
    .expect("the gate fits the system")
    .run()
    .expect("churn runs to completion")
}

#[test]
fn churn_shape_counters_and_report_are_pinned() {
    let spec = fpga::device::part("VF400");
    let (lib, ids) = bench::setup::compile_suite_lib(&Domain::ALL, spec);
    let mut wrong = Vec::new();
    for pin in &PINS {
        let report = run(&lib, &ids, spec, pin.seed);
        let st = &report.manager_stats;
        assert!(
            st.evictions > 0 && st.gc_runs > 0 && st.merges > 0 && st.splits > 0,
            "seed {}: the shape must evict, merge, split and collect: {st:?}",
            pin.seed
        );
        let delta = report.delta.expect("delta is enabled");
        let mut export = bench::Exporter::new("churn_shape", "pinned churn shape");
        let text = export.report("run", &report).render_checked().unwrap();
        let got = (manager_row(st), delta_row(&delta), fnv1a(&text));
        if got != (pin.manager, pin.delta, pin.report_fnv) {
            wrong.push(format!(
                "seed {}: manager {:?}, delta {:?}, report {:#018x}",
                pin.seed, got.0, got.1, got.2
            ));
        }
    }
    assert!(
        wrong.is_empty(),
        "the churn shape moved:\n{}",
        wrong.join("\n")
    );
}

/// The library's pair table is the column images' merge for every ordered
/// pair of the benchmark library, symmetric and zero on the diagonal, and
/// a subset carries its rows under the new ids.
#[test]
fn the_pair_table_is_what_the_column_images_price() {
    let (lib, ids) = bench::setup::compile_suite_lib(&Domain::ALL, fpga::device::part("VF400"));
    for &a in &ids {
        for &b in &ids {
            let image = |c| lib.get(c).column_image();
            let want = image(a).changed_frames(image(b));
            assert_eq!(lib.changed_frames(a, b), want, "pair ({}, {})", a.0, b.0);
            assert_eq!(lib.changed_frames(b, a), want, "pair ({}, {})", b.0, a.0);
        }
        assert_eq!(lib.changed_frames(a, a), 0);
    }
    let picked: Vec<CircuitId> = ids.iter().rev().step_by(3).copied().collect();
    let sub = lib.subset(&picked);
    for (i, &a) in picked.iter().enumerate() {
        for (j, &b) in picked.iter().enumerate() {
            let (si, sj) = (CircuitId(i as u32), CircuitId(j as u32));
            assert_eq!(sub.changed_frames(si, sj), lib.changed_frames(a, b));
        }
    }
}
