//! What the four simulated workloads share: the circuit library, the
//! per-rep outcome read off a [`Report`], and the conservation check.

use crate::stats::{percentile_sorted, Digest};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use vfpga_repro::fpga::{ConfigPort, ConfigTiming, DeviceSpec};
use vfpga_repro::fsim::SimDuration;
use vfpga_repro::vfpga::{CircuitId, CircuitLib, FleetStats, Op, Report, TaskMetrics, TaskSpec};
use vfpga_repro::workload::{suite, Domain};

/// The compiled circuit library every simulated workload draws from: all
/// five application domains (20 circuits), compiled full-height for the
/// device so the column-partition managers can place them.
pub struct Library {
    pub lib: Arc<CircuitLib>,
    pub ids: Vec<CircuitId>,
    /// Software price per hardware cycle by circuit id, for the fleet's
    /// degradation path.
    pub sw_ns_per_cycle: BTreeMap<u32, u64>,
    pub timing: ConfigTiming,
}

/// Build the library cold. `workload::suite` generates each netlist and
/// compiles it through `pnr::compile_shared`; in a fresh process with
/// `VFPGA_CACHE_DIR` unset every circuit is a cache miss, so this is the
/// full netlist + pnr cost and the bulk of `setup_s`.
pub fn build_library(spec: DeviceSpec, tracer: &Tracer) -> Library {
    let mut lib = CircuitLib::new();
    let mut ids = Vec::new();
    let mut sw = BTreeMap::new();
    for d in Domain::ALL {
        let apps = tracer.time("workload.suite", || suite(d, spec.rows)).apps;
        for app in apps {
            let ns = app.sw_ns_per_cycle();
            let id = lib.register_shared(app.compiled);
            sw.insert(id.0, ns);
            ids.push(id);
        }
    }
    Library {
        lib: Arc::new(lib),
        ids,
        sw_ns_per_cycle: sw,
        timing: ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        },
    }
}

/// Re-price every FPGA op as host CPU time: what a fleet shard runs when
/// it degrades to the software path.
pub fn softwareize(specs: &[TaskSpec], sw: &BTreeMap<u32, u64>) -> Vec<TaskSpec> {
    specs
        .iter()
        .cloned()
        .map(|mut s| {
            for op in &mut s.ops {
                if let Op::FpgaRun { circuit, cycles } = *op {
                    let ns = sw.get(&circuit.0).copied().unwrap_or(1);
                    *op = Op::Cpu(SimDuration::from_nanos(ns.saturating_mul(cycles)));
                }
            }
            s
        })
        .collect()
}

/// The simulated end-to-end values of one rep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimValues {
    pub makespan_s: f64,
    pub turnaround_p50_ms: f64,
    pub turnaround_p90_ms: f64,
    pub overhead_frac: f64,
}

/// Everything one rep yields besides its wall time.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Items submitted.
    pub items: u64,
    /// Items that did not complete correctly.
    pub failed: u64,
    pub digest: u64,
    pub sim: SimValues,
    /// Exact counters of the layers, by per-layer metric name.
    pub counters: BTreeMap<&'static str, f64>,
    /// Correctness violations found while reading the result.
    pub violations: Vec<String>,
}

fn terminal_flags(t: &TaskMetrics) -> [bool; 5] {
    [
        t.failed,
        t.quarantined,
        t.rejected,
        t.unschedulable,
        t.lost_in_flight,
    ]
}

/// A task counts as failed when it ended in any state but a clean
/// completion.
fn task_failed(t: &TaskMetrics) -> bool {
    t.corrupted || terminal_flags(t).contains(&true)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Read a rep's [`Outcome`] off its report. `fleet` carries the fleet
/// counters of a `run_fleet` rep.
pub fn summarize(report: &Report, submitted: usize, fleet: Option<&FleetStats>) -> Outcome {
    let mut violations = Vec::new();
    // Task conservation: every submitted task is reported exactly once,
    // in exactly one terminal state.
    if report.tasks.len() != submitted {
        violations.push(format!(
            "task conservation: {submitted} submitted, {} reported",
            report.tasks.len()
        ));
    }
    let mut digest = Digest::new();
    let mut turnarounds: Vec<u64> = Vec::with_capacity(report.tasks.len());
    let mut failed = 0u64;
    let mut missed = 0u64;
    for (i, t) in report.tasks.iter().enumerate() {
        let flags = terminal_flags(t);
        let set = flags.iter().filter(|&&f| f).count();
        if set > 1 {
            violations.push(format!("task {i} is in {set} terminal states"));
        }
        if set == 0 && t.completion <= t.arrival {
            violations.push(format!("task {i} has no terminal state"));
        }
        if task_failed(t) {
            failed += 1;
        } else {
            turnarounds.push(t.turnaround().as_nanos());
        }
        missed += u64::from(t.deadline_missed);
        let bits = flags
            .iter()
            .chain([&t.corrupted, &t.deadline_missed])
            .fold(0u64, |a, &f| a << 1 | u64::from(f));
        digest.eat_all([bits, t.completion.0]);
    }
    turnarounds.sort_unstable();
    let pct = |p: f64| {
        if turnarounds.is_empty() {
            0.0
        } else {
            percentile_sorted(&turnarounds, p) as f64 / 1e6
        }
    };

    let m = &report.manager_stats;
    digest.eat_all([
        report.makespan.as_nanos(),
        m.downloads,
        m.frames_written,
        m.config_time.as_nanos(),
        m.state_saves,
        m.state_restores,
        m.state_time.as_nanos(),
        m.hits,
        m.misses,
        m.blocks,
        m.gc_runs,
        m.relocations,
        m.failed_relocations,
        m.evictions,
        m.splits,
        m.merges,
        m.gc_time.as_nanos(),
    ]);
    let c = &report.crash;
    digest.eat_all([
        c.checkpoints,
        c.checkpoint_time.as_nanos(),
        c.crashes,
        c.torn_downloads,
        c.records_redone,
        c.records_undone,
        c.replay_time.as_nanos(),
        c.stale_discards,
        c.silent_corruptions,
    ]);
    let refused = report.admission.map_or(0, |a| {
        digest.eat_all([a.admitted, a.deferred, a.rejected, a.unschedulable]);
        a.rejected + a.unschedulable
    });
    let delta = report.delta.unwrap_or_default();
    digest.eat_all([
        delta.delta_downloads,
        delta.full_downloads,
        delta.frames_written,
        delta.frames_saved,
        delta.invalidations,
    ]);
    let f = fleet.copied().unwrap_or_default();
    digest.eat_all([
        f.device_crashes,
        f.rejoins,
        f.failovers,
        f.migrated_claims,
        f.lost_in_flight,
        f.rebalances,
        f.backoff_retries,
        f.software_fallbacks,
        f.redo_time.as_nanos(),
        f.tenant_migrations,
        f.migration_aborts,
        f.migration_redone_frees,
    ]);

    let counters = BTreeMap::from([
        ("sim.turnaround_p99_ms", pct(0.99)),
        ("vfpga.manager.hit_ratio", ratio(m.hits, m.hits + m.misses)),
        ("vfpga.manager.evictions", m.evictions as f64),
        ("vfpga.manager.gc_runs", m.gc_runs as f64),
        ("vfpga.manager.relocations", m.relocations as f64),
        ("vfpga.manager.frames_written", m.frames_written as f64),
        (
            "vfpga.delta.hit_ratio",
            ratio(
                delta.delta_downloads,
                delta.delta_downloads + delta.full_downloads,
            ),
        ),
        ("vfpga.admission.refused", refused as f64),
        (
            "vfpga.sched.deadline_miss_frac",
            ratio(missed, report.tasks.len() as u64),
        ),
        ("vfpga.checkpoint.captures", c.checkpoints as f64),
        (
            "vfpga.checkpoint.replayed_records",
            (c.records_redone + c.records_undone) as f64,
        ),
        (
            "vfpga.checkpoint.sim_readback_s",
            c.checkpoint_time.as_secs_f64(),
        ),
        ("vfpga.fleet.failovers", f.failovers as f64),
        ("vfpga.fleet.migrations", f.tenant_migrations as f64),
        ("vfpga.fleet.redo_sim_s", f.redo_time.as_secs_f64()),
        ("vfpga.fleet.lost_in_flight", f.lost_in_flight as f64),
    ]);

    Outcome {
        items: submitted as u64,
        failed,
        digest: digest.value(),
        sim: SimValues {
            makespan_s: report.makespan.as_secs_f64(),
            turnaround_p50_ms: pct(0.50),
            turnaround_p90_ms: pct(0.90),
            overhead_frac: report.overhead_fraction(),
        },
        counters,
        violations,
    }
}
