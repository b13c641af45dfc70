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

use super::RunArgs;
use crate::report::{f3, Table};
use crate::setup::serial_fast;
use crate::{Exporter, HostProfile};
use fsim::{SimDuration, SimTime, Timeline};
use workload::{suite, Domain};

const BATCHES: [u64; 7] = [1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF800");
    let timing = serial_fast(spec);

    let mut ex = Exporter::new("e12", "software vs FPGA co-processor speedup");
    ex.seed(0)
        .param("device", spec.name)
        .param("port", "serial-fast");

    let mut t = Table::new(
        "E12: software vs FPGA co-processor (fast serial port, per-kernel)",
        &[
            "domain",
            "kernel",
            "sw ns/item",
            "hw ns/item",
            "raw speedup",
            "config (ms)",
            "batch 1",
            "batch 100",
            "batch 10k",
            "batch 1M",
            "break-even batch",
        ],
    );

    // One sweep point per domain suite; each point compiles its own suite
    // (through the shared compile cache) and returns its table rows plus
    // the per-batch effective-speedup contributions.
    let results = host.sweep(&Domain::ALL, |_, &d| {
        let s = suite(d, spec.rows);
        let mut rows = Vec::new();
        let mut sums = vec![0.0f64; BATCHES.len()];
        for app in &s.apps {
            let frames = app.compiled.shape().0 as usize;
            let config_ns = {
                use fpga::config::{FRAME_ADDR_BITS, HEADER_BITS};
                let bits = HEADER_BITS + frames as u64 * (FRAME_ADDR_BITS + timing.frame_bits());
                bits.saturating_mul(1_000_000_000) / timing.port.bits_per_sec()
            };
            let sw = app.sw_ns_per_item;
            let hw = app.hw_ns_per_item();
            let eff = |batch: u64| -> f64 {
                let sw_total = sw.saturating_mul(batch) as f64;
                let hw_total = (config_ns + hw.saturating_mul(batch)) as f64;
                sw_total / hw_total
            };
            for (i, &b) in BATCHES.iter().enumerate() {
                sums[i] += eff(b);
            }
            // Break-even batch: config / (sw - hw) when hardware is faster.
            let breakeven = if sw > hw {
                (config_ns as f64 / (sw - hw) as f64).ceil() as u64
            } else {
                u64::MAX
            };
            rows.push(vec![
                d.name().into(),
                app.name.clone(),
                sw.to_string(),
                hw.to_string(),
                format!("{:.1}x", app.raw_speedup()),
                f3(config_ns as f64 / 1e6),
                format!("{:.3}x", eff(1)),
                format!("{:.2}x", eff(100)),
                format!("{:.1}x", eff(10_000)),
                format!("{:.1}x", eff(1_000_000)),
                if breakeven == u64::MAX {
                    "never".into()
                } else {
                    breakeven.to_string()
                },
            ]);
        }
        (rows, sums, s.apps.len() as u64)
    });

    // Per-batch-size mean effective speedup across all kernels; the
    // timeline axis encodes the batch size as nanoseconds (1 ns = 1 item).
    let mut eff_sums = vec![0.0f64; BATCHES.len()];
    let mut kernels = 0u64;
    for (rows, sums, n) in results {
        for row in rows {
            t.row(row);
        }
        for (i, s) in sums.iter().enumerate() {
            eff_sums[i] += s;
        }
        kernels += n;
    }
    t.print();
    ex.param("kernels", kernels);
    let mut tl = Timeline::new();
    for (i, &b) in BATCHES.iter().enumerate() {
        tl.sample(
            SimTime::ZERO + SimDuration::from_nanos(b),
            eff_sums[i] / kernels as f64,
        );
    }
    ex.timeline("mean_effective_speedup_by_batch", &tl);
    ex.table(&t);
    ex.host(host, Domain::ALL.len());
    Ok(ex)
}
