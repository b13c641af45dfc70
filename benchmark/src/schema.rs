//! The metric tables: every name the benchmark prints, with its unit,
//! direction and (end to end) regression bound. `BENCHMARK.json` repeats
//! these tables; `run --check` fails when the two disagree.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How a metric is obtained, which decides how `compare` judges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Host time or memory: a median over noisy samples.
    Host,
    /// Read off the simulation: repeats exactly for one seed.
    Exact,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    pub kind: Kind,
}

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const SCHEMA: &str = "vfpga-benchmark/1";

pub const WORKLOADS: [&str; 5] = ["stream", "churn", "durable", "fleet", "fabric"];

/// Why each workload exists, in [`WORKLOADS`] order, as `BENCHMARK.json`
/// records it (one line, at most 200 characters).
pub const WHY: [&str; 5] = [
    "300k Poisson tasks on one dynamic-loading round-robin System at load 0.77: the event kernel, scheduler and event queue do the work; checkpoint, JSON, fleet and pnr do none",
    "10k deadline tasks on a variable-partition delta manager under EDF behind an admission gate: split, merge, GC, relocation and eviction dominate; the manager trait used the opposite way to stream",
    "the stream system with 2000 tasks at load 0.31, delta checkpoints every 5 s and 10 host crashes: checkpoint capture, JSON render and parse, WAL and replay dominate; the checkpoint write side",
    "8 devices, least-loaded, 2000 tenant tasks, 16 device crashes and 16 live migrations: failover, restore, replay, rejoin and migration; the checkpoint read side and the fleet loop",
    "24 library netlists through compile, route, emit, apply, fabric eval against the gate simulator, readback and delta diff: netlist, pnr and fpga only; the control for every OS-layer change",
];

/// How long one run measures, and the default of `--seconds`.
pub const RUN_SECONDS: u64 = 15;

use vfpga_repro::fsim::json::{Json, Obj};
use Better::{Higher, Lower};

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "items_per_s",
        unit: "items/s",
        better: Higher,
        bound: 0.25,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.15,
        kind: Kind::Host,
    },
    EndToEnd {
        name: "ok_frac",
        unit: "ratio",
        better: Higher,
        bound: 0.001,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "sim_makespan_s",
        unit: "s",
        better: Lower,
        bound: 0.15,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "sim_turnaround_p50_ms",
        unit: "ms",
        better: Lower,
        bound: 0.15,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "sim_turnaround_p90_ms",
        unit: "ms",
        better: Lower,
        bound: 0.20,
        kind: Kind::Exact,
    },
    EndToEnd {
        name: "sim_overhead_frac",
        unit: "ratio",
        better: Lower,
        bound: 0.15,
        kind: Kind::Exact,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Higher,
    }
}

/// Every per-layer metric, in README order. A metric whose layer does no
/// work on a workload reads 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    // fsim
    lower("fsim.queue_ns_per_event", "ns"),
    higher("fsim.json_render_mb_per_s", "MB/s"),
    higher("fsim.json_parse_mb_per_s", "MB/s"),
    lower("fsim.json_image_bytes", "bytes"),
    // netlist
    lower("netlist.gen_s", "s"),
    lower("netlist.map_s", "s"),
    lower("netlist.luts", "count"),
    lower("netlist.sim_s", "s"),
    // pnr
    lower("pnr.pack_s", "s"),
    lower("pnr.place_s", "s"),
    lower("pnr.route_s", "s"),
    lower("pnr.timing_s", "s"),
    lower("pnr.emit_s", "s"),
    lower("pnr.compile_ms_p50", "ms"),
    lower("pnr.cache_hit_ns", "ns"),
    lower("pnr.disk_hit_us", "us"),
    higher("pnr.cache_hits", "count"),
    lower("pnr.cache_misses", "count"),
    // fpga
    lower("fpga.apply_ns_per_frame", "ns"),
    lower("fpga.readback_ns_per_clb", "ns"),
    lower("fpga.diff_ns_per_frame", "ns"),
    lower("fpga.fabric_resolve_us", "us"),
    lower("fpga.fabric_eval_ns_per_cell", "ns"),
    lower("fpga.journal_txn_ns", "ns"),
    lower("fpga.journal_recover_us", "us"),
    lower("fpga.frames_applied", "count"),
    // workload
    lower("workload.gen_s", "s"),
    lower("workload.lib_s", "s"),
    // vfpga: system kernel
    lower("vfpga.system.build_s", "s"),
    lower("vfpga.system.run_s", "s"),
    lower("vfpga.system.self_s", "s"),
    lower("vfpga.system.ns_per_dispatch", "ns"),
    lower("vfpga.system.scale_ratio", "ratio"),
    // vfpga: scheduler and manager
    lower("vfpga.sched.busy_s", "s"),
    lower("vfpga.sched.calls", "count"),
    lower("vfpga.sched.deadline_miss_frac", "ratio"),
    lower("vfpga.manager.busy_s", "s"),
    lower("vfpga.manager.calls", "count"),
    lower("vfpga.manager.activate_ns_mean", "ns"),
    higher("vfpga.manager.hit_ratio", "ratio"),
    lower("vfpga.manager.evictions", "count"),
    lower("vfpga.manager.gc_runs", "count"),
    lower("vfpga.manager.relocations", "count"),
    lower("vfpga.manager.frames_written", "count"),
    higher("vfpga.delta.hit_ratio", "ratio"),
    lower("vfpga.admission.refused", "count"),
    // vfpga: checkpoint
    lower("vfpga.checkpoint.captures", "count"),
    lower("vfpga.checkpoint.capture_ms_mean", "ms"),
    lower("vfpga.checkpoint.snapshot_s", "s"),
    lower("vfpga.checkpoint.twin_s", "s"),
    lower("vfpga.checkpoint.restore_ms", "ms"),
    lower("vfpga.checkpoint.replayed_records", "count"),
    lower("vfpga.checkpoint.sim_readback_s", "s"),
    // vfpga: fleet
    lower("vfpga.fleet.run_s", "s"),
    lower("vfpga.fleet.build_s", "s"),
    lower("vfpga.fleet.twin_s", "s"),
    lower("vfpga.fleet.fault_cost_ms", "ms"),
    lower("vfpga.fleet.failovers", "count"),
    lower("vfpga.fleet.migrations", "count"),
    lower("vfpga.fleet.redo_sim_s", "s"),
    lower("vfpga.fleet.lost_in_flight", "count"),
    // the modelled design
    lower("sim.turnaround_p99_ms", "ms"),
    // trace
    lower("trace.overhead_frac", "ratio"),
    lower("trace.dropped_spans", "count"),
    higher("trace.home_layer_frac", "ratio"),
];

/// `BENCHMARK.json`, generated: `run --manifest` prints it and `run --check`
/// fails when the file at the repository root differs.
pub fn manifest() -> Json {
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .zip(WHY)
        .map(|(name, why)| Obj::new().set("name", *name).set("why", why).build())
        .collect();
    let end_to_end: Vec<Json> = END_TO_END
        .iter()
        .map(|m| {
            Obj::new()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
                .set("bound", m.bound)
                .build()
        })
        .collect();
    let per_layer: Vec<Json> = PER_LAYER
        .iter()
        .map(|m| {
            Obj::new()
                .set("name", m.name)
                .set("unit", m.unit)
                .set("better", m.better.as_str())
                .build()
        })
        .collect();
    Obj::new()
        .set("command", vec!["bash", "benchmark/run"])
        .set("paths", vec!["benchmark"])
        .set("run_seconds", RUN_SECONDS)
        .set("workloads", workloads)
        .set("end_to_end", end_to_end)
        .set("per_layer", per_layer)
        .build()
}

/// Whether `s` is a legal metric or workload name.
pub fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Whether `s` is a legal unit.
pub fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (*w, "count")))
        {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
        assert!(!valid_name("a b") && !valid_name("") && !valid_name("-x"));
        assert!(!valid_unit("items per s") && valid_unit("1/s"));
    }

    #[test]
    fn setup_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(setup.bound <= 0.25);
    }
}
