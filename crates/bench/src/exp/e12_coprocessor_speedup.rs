//! E12 — FPGA co-processing vs software execution (paper §1/§5).
//!
//! Claim operationalized: "frequently-executed algorithms can be
//! downloaded on these boards to speed up the computation on the main
//! processor" — and the flip side, that configuration time must amortize:
//! small batches lose to software.
//!
//! For every kernel in every domain suite: software ns/item vs FPGA
//! ns/item, raw speed-up, and the effective speed-up at batch sizes
//! 1 / 100 / 10k / 1M items once the configuration download is charged.

use super::grid::{self, Grid};
use super::RunArgs;
use crate::report::f3;
use crate::setup::serial_fast;
use crate::Exporter;
use fsim::{SimDuration, SimTime, Timeline};
use workload::{suite, App, Domain};

const BATCHES: [u64; 7] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

/// A kernel's configuration download (ns), its effective speed-up at
/// each of [`BATCHES`], and its break-even batch (`None`: never).
type Out = (u64, [f64; 7], Option<u64>);

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF800");
    let timing = serial_fast(spec);
    let apps: Vec<App> = Domain::ALL
        .iter()
        .flat_map(|&d| suite(d, spec.rows).apps)
        .collect();
    let cell = |app: &App| {
        let frames = app.compiled.shape().0 as usize;
        let config_ns = timing.frame_transfer(frames).1.as_nanos();
        let (sw, hw) = (app.sw_ns_per_item, app.hw_ns_per_item());
        let eff = BATCHES.map(|batch| {
            let sw_total = sw.saturating_mul(batch) as f64;
            sw_total / (config_ns + hw.saturating_mul(batch)) as f64
        });
        // Break-even batch: config / (sw - hw) when hardware is faster.
        let breakeven = (sw > hw).then(|| (config_ns as f64 / (sw - hw) as f64).ceil() as u64);
        Ok::<Out, String>((config_ns, eff, breakeven))
    };
    let grid = Grid {
        code: "e12",
        title: "software vs FPGA co-processor speedup",
        params: vec![("device", spec.name.into()), ("port", "serial-fast".into())],
        points: vec![grid::points(apps)],
        label: |app| app.name.clone(),
        cell: &cell,
        table: "E12: software vs FPGA co-processor (fast serial port, per-kernel)",
        columns: &[
            ("domain", |c| c.point.domain.name().into()),
            ("kernel", |c| c.label.clone()),
            ("sw ns/item", |c| c.point.sw_ns_per_item.to_string()),
            ("hw ns/item", |c| c.point.hw_ns_per_item().to_string()),
            ("raw speedup", |c| format!("{:.1}x", c.point.raw_speedup())),
            ("config (ms)", |c| f3(c.out.0 as f64 / 1e6)),
            ("batch 1", |c| format!("{:.3}x", c.out.1[0])),
            ("batch 100", |c| format!("{:.2}x", c.out.1[2])),
            ("batch 10k", |c| format!("{:.1}x", c.out.1[4])),
            ("batch 1M", |c| format!("{:.1}x", c.out.1[6])),
            ("break-even batch", |c| {
                c.out.2.map_or("never".into(), |b| b.to_string())
            }),
        ],
        // Per-batch-size mean effective speedup across all kernels, summed
        // suite by suite; the timeline axis encodes the batch size as
        // nanoseconds (1 ns = 1 item).
        finish: |cells, ex| {
            let mut sums = [0.0f64; 7];
            for suite in cells.chunk_by(|a, b| a.point.domain == b.point.domain) {
                for (i, sum) in sums.iter_mut().enumerate() {
                    *sum += suite.iter().fold(0.0, |s, c| s + c.out.1[i]);
                }
            }
            ex.param("kernels", cells.len() as u64);
            let mut tl = Timeline::new();
            for (&b, sum) in BATCHES.iter().zip(sums) {
                tl.sample(
                    SimTime::ZERO + SimDuration::from_nanos(b),
                    sum / cells.len() as f64,
                );
            }
            ex.timeline("mean_effective_speedup_by_batch", &tl);
        },
        ..Grid::default()
    };
    grid::run(args, grid)
}
