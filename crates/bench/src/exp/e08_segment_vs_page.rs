//! E8 — Segmentation vs pagination of an over-large function (paper §2).
//!
//! Claim operationalized: "segmentation decomposes the function … into
//! smaller parts computing a self-contained sub-function and, as a
//! consequence, having variable size; pagination partitions the function
//! … into smaller portions of fixed size."
//!
//! One function larger than the device (segments sized from real compiled
//! kernels) is demand-loaded under a Zipf reference trace while the column
//! budget shrinks; pagination is additionally swept over page width and
//! replacement policy. Pagination pays internal fragmentation (padding),
//! segmentation pays external fragmentation (flushes).

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::serial_fast;
use crate::Exporter;
use fpga::ConfigTiming;
use fsim::rng::Zipf;
use fsim::{SimRng, Timeline};
use vfpga::vmem::{PagingSim, Replacement, SegmentSim, SegmentedFunction, VmemStats};
use workload::{suite, Domain};

/// What one column budget contributes: table rows, and (at the 50%
/// budget) fault timelines and counters.
type BudgetRows = (
    Vec<Vec<String>>,
    Vec<(String, Timeline)>,
    Vec<(&'static str, u64)>,
);

/// Segmentation, then pagination at three page widths and three policies,
/// under `budget_pct` of the function's columns. At the 50% budget the
/// typed PageFault events are recorded and exported as cumulative faults
/// over (load-time) time — the document's timeline for this sim-less
/// experiment.
fn budget_rows(
    func: &SegmentedFunction,
    timing: ConfigTiming,
    trace: &[usize],
    budget_pct: u32,
) -> BudgetRows {
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut timelines: Vec<(String, Timeline)> = Vec::new();
    let mut counters: Vec<(&'static str, u64)> = Vec::new();
    let widths = &func.segment_widths;
    let widest = *widths.iter().max().expect("the function has segments");
    let budget = (func.total_columns() * budget_pct / 100).max(widest);
    let mut seg = SegmentSim::new(func.clone(), timing, budget);
    if budget_pct == 50 {
        seg.set_recording(true);
    }
    let st = seg.run_trace(trace);
    if budget_pct == 50 {
        let mut tl = Timeline::new();
        for (i, e) in seg.drain_events().iter().enumerate() {
            tl.sample(e.at, (i + 1) as f64);
        }
        timelines.push(("segment_faults_cumulative_at_50pct_budget".into(), tl));
        counters.push(("segment_faults_at_50pct_budget", st.faults));
    }
    let row = |scheme: String, st: &VmemStats| {
        vec![
            scheme,
            format!("{budget} ({budget_pct}%)"),
            pct(st.fault_rate()),
            f3(st.load_time.as_millis_f64()),
            st.padding_columns.to_string(),
            st.evictions.to_string(),
            st.flushes.to_string(),
        ]
    };
    rows.push(row("segmentation (LRU)".into(), &st));
    for page in [2u32, 4, 8] {
        for policy in [Replacement::Lru, Replacement::Fifo, Replacement::Clock] {
            let mut pg = PagingSim::new(func, timing, budget, page, policy);
            let record = budget_pct == 50 && page == 4 && policy == Replacement::Lru;
            if record {
                pg.set_recording(true);
            }
            let st = pg.run_trace(trace);
            if record {
                let mut tl = Timeline::new();
                for (i, e) in pg.drain_events().iter().enumerate() {
                    tl.sample(e.at, (i + 1) as f64);
                }
                timelines.push(("paging_w4_lru_faults_cumulative_at_50pct_budget".into(), tl));
                counters.push(("paging_w4_lru_faults_at_50pct_budget", st.faults));
            }
            rows.push(row(format!("paging w={page} ({policy:?})"), &st));
        }
    }
    (rows, timelines, counters)
}

pub fn run(_: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF400");
    let timing = serial_fast(spec);

    // Segment widths from real compiled kernels across two domains.
    let mut widths = Vec::new();
    for d in [Domain::Multimedia, Domain::Networking] {
        for app in suite(d, spec.rows).apps {
            widths.push(app.compiled.shape().0);
        }
    }
    let func = SegmentedFunction {
        segment_widths: widths.clone(),
    };
    let total = func.total_columns();
    println!(
        "function: {} segments, {} total columns, widths {:?}",
        widths.len(),
        total,
        widths
    );

    // Zipf reference trace over segments.
    let trace: Vec<usize> = {
        let z = Zipf::new(widths.len(), 1.0);
        let mut rng = SimRng::new(0xE08);
        (0..2_000).map(|_| z.sample(&mut rng)).collect()
    };

    let mut ex = Exporter::new("e08", "segmentation vs pagination under a Zipf trace");
    ex.seed(0xE08)
        .param("device", spec.name)
        .param("segments", widths.len())
        .param("total_columns", total)
        .param("references", 2000u64);
    let mut t = Table::new(
        "E8: segmentation vs pagination under a Zipf trace (2000 references)",
        &[
            "scheme",
            "budget",
            "fault rate",
            "load time (ms)",
            "padding cols",
            "evictions",
            "flushes",
        ],
    );

    for budget_pct in [100u32, 75, 50, 35] {
        let (rows, timelines, counters) = budget_rows(&func, timing, &trace, budget_pct);
        for (name, tl) in &timelines {
            ex.timeline(name, tl);
        }
        for (name, v) in counters {
            ex.metrics().inc(name, v);
        }
        for row in rows {
            t.row(row);
        }
    }
    t.print();
    ex.table(&t);
    Ok(ex)
}
