//! E6 — Fragmentation and garbage collection (paper §4).
//!
//! Claim operationalized: "it is definitely not acceptable that a task is
//! waiting for enough room in a single partition while such a space may be
//! actually available even if split in more idle existing partitions. In
//! such a case, a garbage-collecting procedure must be introduced to merge
//! … the idle existing partitions … relocation for garbage collection
//! cannot be frequently applied in order to limit the management
//! overhead."
//!
//! Part A is a deterministic micro-trace that exhibits the exact situation
//! the paper describes: free space sufficient in total but split across
//! holes; the collector relocates idle residents instead of destroying
//! them. Part B is a stochastic churn workload on the full system.

use super::RunArgs;
use crate::report::{f3, pct, secs, Table};
use crate::setup::{save_restore, serial_fast, variable_partitions};
use crate::Exporter;
use fsim::{SimDuration, SimRng, SimTime};
use pnr::{compile_shared, CompileOptions};
use std::sync::Arc;
use vfpga::manager::{Activation, FpgaManager};
use vfpga::{CircuitId, CircuitLib, Op, RoundRobinScheduler, System, TaskId, TaskSpec};

fn build_lib(spec: fpga::DeviceSpec) -> (Arc<CircuitLib>, Vec<CircuitId>, Vec<CircuitId>) {
    let mut lib = CircuitLib::new();
    let mut narrow = Vec::new();
    let mut wide = Vec::new();
    let opts = CompileOptions {
        max_height: spec.rows,
        full_height: true,
        ..Default::default()
    };
    for (i, w) in [4usize, 4, 5, 5].iter().enumerate() {
        let net = netlist::library::arith::array_multiplier(&format!("narrow{i}"), *w);
        narrow.push(lib.register_shared(compile_shared(&net, opts).unwrap()));
    }
    for (i, w) in [6usize, 7].iter().enumerate() {
        let net = netlist::library::arith::array_multiplier(&format!("wide{i}"), *w);
        wide.push(lib.register_shared(compile_shared(&net, opts).unwrap()));
    }
    (Arc::new(lib), narrow, wide)
}

/// Part A: the paper's fragmentation scenario, step by step.
fn micro_trace(
    spec: fpga::DeviceSpec,
    lib: &Arc<CircuitLib>,
    narrow: &[CircuitId],
    wide: &[CircuitId],
    ex: &mut Exporter,
) {
    let timing = serial_fast(spec);
    let mut t = Table::new(
        "E6a: micro-trace — wide circuit arrives into fragmented free space",
        &[
            "gc",
            "wide loads?",
            "evictions",
            "gc runs",
            "relocations",
            "residents destroyed",
            "gc overhead",
        ],
    );
    for gc in [true, false] {
        let mut m = variable_partitions(lib, timing);
        m.gc_enabled = gc;
        // Fill the device left-to-right with the four narrow circuits,
        // finishing each op so they become idle residents. LRU order is
        // load order, so evictions will hollow out the left side first,
        // leaving holes separated by the surviving residents.
        for (k, &cid) in narrow.iter().enumerate() {
            match m.activate(TaskId(k as u32), cid) {
                Activation::Ready { .. } => {}
                other => panic!("narrow circuit must load: {other:?}"),
            }
            m.op_done(TaskId(k as u32), cid);
        }
        let before = m.stats();
        // The wide circuit arrives: total free suffices after two
        // evictions, but only coalesces via GC relocation; without GC a
        // third resident must die.
        let wide_cid = wide[0];
        let loaded = matches!(m.activate(TaskId(9), wide_cid), Activation::Ready { .. });
        let after = m.stats();
        // How many of the narrow residents survived?
        let survivors = narrow.iter().filter(|&&cid| m.is_resident(cid)).count();
        t.row(vec![
            if gc { "on" } else { "off" }.into(),
            if loaded { "yes" } else { "NO" }.into(),
            (after.evictions - before.evictions).to_string(),
            (after.gc_runs - before.gc_runs).to_string(),
            (after.relocations - before.relocations).to_string(),
            (narrow.len() - survivors).to_string(),
            format!(
                "{}",
                (after.config_time - before.config_time) + (after.gc_time - before.gc_time)
            ),
        ]);
    }
    t.print();
    ex.table(&t);
}

fn churn(
    spec: fpga::DeviceSpec,
    lib: &Arc<CircuitLib>,
    narrow: &[CircuitId],
    wide: &[CircuitId],
    ex: &mut Exporter,
) {
    let timing = serial_fast(spec);
    let build_specs = |seed: u64| -> Vec<TaskSpec> {
        let mut rng = SimRng::new(seed);
        let mut specs = Vec::new();
        let mut at = SimTime::ZERO;
        for round in 0..12 {
            for (k, &cid) in narrow.iter().enumerate() {
                at += SimDuration::from_micros(rng.range_u64(200, 800));
                specs.push(TaskSpec::new(
                    format!("n{round}-{k}"),
                    at,
                    vec![
                        Op::Cpu(SimDuration::from_micros(rng.range_u64(100, 500))),
                        Op::FpgaRun {
                            circuit: cid,
                            cycles: rng.range_u64(20_000, 80_000),
                        },
                    ],
                ));
            }
            at += SimDuration::from_millis(2);
            let cid = wide[round % wide.len()];
            specs.push(TaskSpec::new(
                format!("wide{round}"),
                at,
                vec![Op::FpgaRun {
                    circuit: cid,
                    cycles: 50_000,
                }],
            ));
        }
        specs
    };

    let mut t = Table::new(
        "E6b: garbage collection on/off under churn (VF400, variable partitions)",
        &[
            "gc",
            "makespan (s)",
            "mean wait (s)",
            "downloads",
            "hits",
            "evictions",
            "gc runs",
            "relocations",
            "failed reloc",
            "overhead frac",
        ],
    );
    for gc in [true, false] {
        let mut mgr = variable_partitions(lib, timing);
        mgr.gc_enabled = gc;
        let r = System::new(
            lib.clone(),
            mgr,
            RoundRobinScheduler::new(SimDuration::from_millis(5)),
            save_restore(),
            build_specs(0xE06),
        )
        .with_trace_capacity(8192)
        .run()
        .unwrap();
        ex.report(if gc { "churn/gc-on" } else { "churn/gc-off" }, &r);
        t.row(vec![
            if gc { "on" } else { "off" }.into(),
            secs(r.makespan),
            f3(r.mean_waiting_s()),
            r.manager_stats.downloads.to_string(),
            r.manager_stats.hits.to_string(),
            r.manager_stats.evictions.to_string(),
            r.manager_stats.gc_runs.to_string(),
            r.manager_stats.relocations.to_string(),
            r.manager_stats.failed_relocations.to_string(),
            pct(r.overhead_fraction()),
        ]);
    }
    t.print();
    ex.table(&t);
}

pub fn run(_: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF400"); // 20 cols
    let (lib, narrow, wide) = build_lib(spec);
    let mut ex = Exporter::new("e06", "fragmentation and garbage collection");
    ex.seed(0xE06)
        .param("device", spec.name)
        .param("narrow_circuits", narrow.len())
        .param("wide_circuits", wide.len());
    println!(
        "narrow widths: {:?}, wide widths: {:?}, device: {} cols",
        narrow
            .iter()
            .map(|&i| lib.get(i).shape().0)
            .collect::<Vec<_>>(),
        wide.iter()
            .map(|&i| lib.get(i).shape().0)
            .collect::<Vec<_>>(),
        spec.cols
    );
    micro_trace(spec, &lib, &narrow, &wide, &mut ex);
    churn(spec, &lib, &narrow, &wide, &mut ex);
    Ok(ex)
}
