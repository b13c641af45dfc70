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

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::{compile_suite_lib, run_traced, save_restore, serial_fast};
use crate::{Exporter, HostProfile};
use fsim::rng::Zipf;
use fsim::{SimDuration, SimRng, SimTime};
use vfpga::manager::overlay::{OverlayManager, Replacement};
use vfpga::{Op, RoundRobinScheduler, TaskSpec};
use workload::Domain;

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF800"); // 32 cols
    let (lib, ids) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib(&[Domain::Telecom, Domain::Storage], spec)
    });
    let timing = serial_fast(spec);

    // Popularity: rank 0 = most popular (Zipf s=1.2).
    let zipf = Zipf::new(ids.len(), 1.2);
    let build_specs = |seed: u64| -> Vec<TaskSpec> {
        let mut rng = SimRng::new(seed);
        let mut specs = Vec::new();
        let mut at = SimTime::ZERO;
        for i in 0..60 {
            at += SimDuration::from_micros(rng.range_u64(100, 2_000));
            let cid = ids[zipf.sample(&mut rng)];
            specs.push(TaskSpec::new(
                format!("t{i}"),
                at,
                vec![
                    Op::Cpu(SimDuration::from_micros(rng.range_u64(100, 1_000))),
                    Op::FpgaRun {
                        circuit: cid,
                        cycles: rng.range_u64(20_000, 100_000),
                    },
                ],
            ));
        }
        specs
    };

    // Scarce overlay area: slots sized so only ~3 specific circuits fit at
    // once (an overlay with more slots than circuits never replaces).
    let widest = ids.iter().map(|&i| lib.get(i).shape().0).max().unwrap();
    let mut ex = Exporter::new("e07", "overlay resident share and replacement policy");
    ex.seed(0xE07)
        .param("device", spec.name)
        .param("tasks", 60u64)
        .param("zipf_s", 1.2f64)
        .param("circuits", ids.len());
    let mut t = Table::new(
        "E7: overlay — resident share and replacement policy (Zipf s=1.2)",
        &[
            "resident top-k",
            "policy",
            "slots",
            "hit rate",
            "downloads",
            "evictions",
            "overhead frac",
            "makespan (s)",
        ],
    );
    let points: Vec<(usize, Replacement)> = (0..=2usize)
        .flat_map(|k| {
            [Replacement::Lru, Replacement::Fifo, Replacement::Lfu]
                .into_iter()
                .map(move |p| (k, p))
        })
        .collect();
    let results = host.sweep(&points, |_, &(k, policy)| {
        let common: Vec<_> = ids[..k].to_vec();
        let common_w: u32 = common.iter().map(|&i| lib.get(i).shape().0).sum();
        let slot_w = widest.max((timing.spec.cols - common_w) / 3);
        let mgr = OverlayManager::new(lib.clone(), timing, common, slot_w, policy).unwrap();
        let slots = mgr.slot_count();
        let sched = RoundRobinScheduler::new(SimDuration::from_millis(5));
        let r = run_traced(&lib, mgr, sched, save_restore(), build_specs(0xE07));
        (k, policy, slots, r)
    });
    for (k, policy, slots, r) in &results {
        ex.report(&format!("top{k}/{policy:?}"), r);
        let s = r.manager_stats;
        let hit_rate = s.hits as f64 / (s.hits + s.misses).max(1) as f64;
        t.row(vec![
            k.to_string(),
            format!("{policy:?}"),
            slots.to_string(),
            pct(hit_rate),
            s.downloads.to_string(),
            s.evictions.to_string(),
            pct(r.overhead_fraction()),
            f3(r.makespan.as_secs_f64()),
        ]);
    }
    t.print();
    ex.table(&t);
    ex.host(host, points.len());
    Ok(ex)
}
