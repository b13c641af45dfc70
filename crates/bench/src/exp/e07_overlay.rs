//! E7 — Overlaying: resident common functions vs swapped rare ones (§2).
//!
//! Claim operationalized: "overlaying configures part of the FPGA to
//! compute common functions which are frequently used, while the remaining
//! part is used to download specific functions which are typically rarely
//! used or mutually exclusive."
//!
//! Tasks draw circuits from a Zipf popularity distribution. Sweeping how
//! many of the most popular circuits are made permanently resident (and
//! the replacement policy for the overlay slots) shows the hit-rate and
//! overhead trade-off.

use super::grid::{self, fixed, Grid};
use super::RunArgs;
use crate::report::{pct, secs};
use crate::setup::{compile_suite_lib, run_traced, save_restore, serial_fast};
use crate::Exporter;
use fsim::rng::Zipf;
use fsim::{SimDuration, SimRng, SimTime};
use vfpga::manager::overlay::{OverlayManager, Replacement};
use vfpga::{Op, RoundRobinScheduler, TaskSpec};
use workload::Domain;

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF800"); // 32 cols
    let (lib, ids) = compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec);
    let timing = serial_fast(spec);
    // Popularity: rank 0 = most popular (Zipf s=1.2).
    let zipf = Zipf::new(ids.len(), 1.2);
    let specs = || -> Vec<TaskSpec> {
        let mut rng = SimRng::new(0xE07);
        let mut at = SimTime::ZERO;
        (0..60)
            .map(|i| {
                at += SimDuration::from_micros(rng.range_u64(100, 2_000));
                let circuit = ids[zipf.sample(&mut rng)];
                let cpu = Op::Cpu(SimDuration::from_micros(rng.range_u64(100, 1_000)));
                let cycles = rng.range_u64(20_000, 100_000);
                TaskSpec::new(
                    format!("t{i}"),
                    at,
                    vec![cpu, Op::FpgaRun { circuit, cycles }],
                )
            })
            .collect()
    };
    // Scarce overlay area: slots sized so only ~3 specific circuits fit at
    // once (an overlay with more slots than circuits never replaces).
    let widest = ids.iter().map(|&i| lib.get(i).shape().0).max();
    let widest = widest.expect("the suites hold circuits");
    let cell = |&(k, policy): &(usize, Replacement)| {
        let common: Vec<_> = ids[..k].to_vec();
        let common_w: u32 = common.iter().map(|&i| lib.get(i).shape().0).sum();
        let slot_w = widest.max((timing.spec.cols - common_w) / 3);
        let mgr = OverlayManager::new(lib.clone(), timing, common, slot_w, policy)
            .expect("the slots fit beside the resident circuits");
        let slots = mgr.slot_count();
        let sched = RoundRobinScheduler::new(SimDuration::from_millis(5));
        Ok((slots, run_traced(&lib, mgr, sched, save_restore(), specs())))
    };
    let policies = [Replacement::Lru, Replacement::Fifo, Replacement::Lfu];
    let grid = Grid {
        code: "e07",
        title: "overlay resident share and replacement policy",
        seed: 0xE07,
        params: vec![
            ("device", spec.name.into()),
            ("tasks", 60u64.into()),
            ("zipf_s", 1.2f64.into()),
            ("circuits", ids.len().into()),
        ],
        points: vec![grid::product(
            (0, Replacement::Lru),
            vec![
                fixed(&[0, 1, 2], |p, v| p.0 = v),
                fixed(&policies, |p, v| p.1 = v),
            ],
        )],
        label: |(k, policy)| format!("top{k}/{policy:?}"),
        cell: &cell,
        table: "E7: overlay — resident share and replacement policy (Zipf s=1.2)",
        columns: &[
            ("resident top-k", |c| c.point.0.to_string()),
            ("policy", |c| format!("{:?}", c.point.1)),
            ("slots", |c| c.out.0.to_string()),
            ("hit rate", |c| {
                let s = c.out.1.manager_stats;
                pct(s.hits as f64 / (s.hits + s.misses).max(1) as f64)
            }),
            ("downloads", |c| c.out.1.manager_stats.downloads.to_string()),
            ("evictions", |c| c.out.1.manager_stats.evictions.to_string()),
            ("overhead frac", |c| pct(c.out.1.overhead_fraction())),
            ("makespan (s)", |c| secs(c.out.1.makespan)),
        ],
        reports: |c| vec![(c.label.clone(), &c.out.1)],
        ..Grid::default()
    };
    grid::run(args, grid)
}
