//! E18 — Deadline-closed scheduling: EDF against the time-shared policies.
//!
//! E17 stamped deadlines on every task but only *accounted* the misses;
//! the schedulers stayed deadline-blind. This experiment closes the loop
//! three ways:
//!
//! * **EDF** ([`vfpga::EdfScheduler`]) orders the ready queue by absolute
//!   deadline (`arrival + relative deadline`, the §3 a-priori quantity),
//!   against run-to-completion FIFO and priority-with-aging stamped from
//!   deadline rank (shortest deadline = highest static priority).
//! * **Schedulability-gated admission**: with
//!   [`vfpga::SchedulabilityConfig`] set, an arrival whose §3 a-priori
//!   estimate (service demand + pending reconfiguration + the tenant's
//!   queued backlog) already exceeds its deadline is rejected at the door
//!   — accounted as `unschedulable`, disjoint from quota load-shed.
//! * **Hysteresis degradation**: the single saturation watermark becomes
//!   a `degrade_above` / `recover_below` pair; a baseline with the marks
//!   coincident flaps in and out of degraded mode as utilization hovers
//!   at the mark, the split pair enters once and never flaps back.
//!
//! The workload is the E17 overload harness (tenant-tagged Poisson mix,
//! heavy offered load) with a ±50% uniform deadline jitter so the
//! policies can actually disagree about ordering. Everything is
//! deterministic: the same `--seed` yields a byte-identical export.

use super::grid::{self, axis, fixed, Grid};
use super::RunArgs;
use crate::report::{f3, secs};
use crate::setup::{compile_suite_lib_sw, os_mix, save_restore, serial_fast, variable_partitions};
use crate::Exporter;
use fpga::ConfigTiming;
use fsim::{LogHistogram, SimDuration, SimRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use vfpga::{
    AdmissionPolicy, AdmissionStats, CircuitId, CircuitLib, DegradationConfig, EdfScheduler,
    FifoScheduler, PriorityScheduler, Report, SchedulabilityConfig, System, TaskMetrics, TaskSpec,
};
use workload::{tenant_tasks, Domain, TenantMixParams};

/// The E17 arrival process with jittered deadlines, plus a static
/// priority stamp derived from deadline rank (shortest deadline =
/// highest priority) so the priority-with-aging arm has something
/// deadline-shaped to order by.
fn specs(ids: &[CircuitId], seed: u64, mean_interarrival: SimDuration) -> Vec<TaskSpec> {
    let mix = TenantMixParams {
        base: os_mix(10, mean_interarrival),
        tenants: 2,
        deadline: Some(SimDuration::from_millis(120)),
        hang_tasks: 0,
        deadline_spread: 0.5,
        ..Default::default()
    };
    let mut specs = tenant_tasks(&mix, ids, &mut SimRng::new(seed));
    let mut order: Vec<usize> = (0..specs.len()).collect();
    // Sort by (deadline, index): deterministic rank even on ties.
    order.sort_by_key(|&i| (specs[i].deadline.expect("mix stamps deadlines"), i));
    for (rank, &i) in order.iter().enumerate() {
        specs[i].priority = (specs.len() - rank) as u8;
    }
    specs
}

/// A cell's admission policy beyond the scheduler arm.
#[derive(Clone, Copy)]
enum Policy {
    /// E17's quota/queue shape, so rejection behavior is comparable; no
    /// watchdog (no task hangs here) and no degradation.
    Quota,
    /// The schedulability gate at this margin, with E17's tight quota so
    /// a real deferred backlog exists for the estimate to count.
    Gate(f64),
    /// Degradation marks `degrade_above` 0.45 / `recover_below` this, on
    /// the small (VF200) device whose capacity forces eviction churn —
    /// the utilization oscillation the hysteresis cells need. At 0.45
    /// the marks coincide (the flapping baseline).
    Hysteresis(f64),
}

/// Offered load, scheduler arm ("fifo", "aging" or "edf"), and policy.
type Point = ((&'static str, SimDuration), &'static str, Policy);

const HEAVY: (&str, SimDuration) = ("heavy", SimDuration::from_millis(1));
const LOADS: [(&str, SimDuration); 2] = [("light", SimDuration::from_millis(4)), HEAVY];
const ARMS: [&str; 3] = ["fifo", "aging", "edf"];

/// A device to run on: its library, circuit ids and timing.
type Device = (Arc<CircuitLib>, Vec<CircuitId>, ConfigTiming);

/// `policy` as admission control; `sw` prices the degraded path.
fn admission(policy: Policy, sw: &BTreeMap<u32, u64>) -> AdmissionPolicy {
    let quota = |max_in_flight| AdmissionPolicy {
        max_in_flight,
        queue_cap: 2,
        ..Default::default()
    };
    match policy {
        Policy::Quota => quota(4),
        Policy::Gate(margin) => AdmissionPolicy {
            schedulability: Some(SchedulabilityConfig { margin }),
            ..quota(2)
        },
        // A tighter in-flight quota than the arms: the small device cannot
        // host four tenants' circuits at once without allocation failures.
        Policy::Hysteresis(recover_below) => AdmissionPolicy {
            degradation: Some(DegradationConfig {
                watermark: 0.0, // aliased away by the explicit pair below
                degrade_above: Some(0.45),
                recover_below: Some(recover_below),
                sw_ns_per_cycle: sw.clone(),
            }),
            ..quota(3)
        },
    }
}

/// One cell: the arm's scheduler over `device`, behind `policy`.
fn run_cell(
    (lib, ids, timing): &Device,
    (load, arm, _): Point,
    policy: AdmissionPolicy,
    seed: u64,
) -> Report {
    let specs = specs(ids, seed, load.1);
    // The three arms need three concrete `System<_, S>` types; the
    // admission/profile plumbing is identical.
    macro_rules! run_arm {
        ($sched:expr) => {{
            let mgr = variable_partitions(lib, *timing);
            System::new(lib.clone(), mgr, $sched, save_restore(), specs.clone())
                .with_admission(policy)
                .expect("sweep policies must validate")
                .with_latency_profile()
                .run()
                .expect("every task must terminate")
        }};
    }
    match arm {
        "fifo" => run_arm!(FifoScheduler::new()),
        "aging" => run_arm!(PriorityScheduler::with_aging(
            None,
            SimDuration::from_millis(4)
        )),
        _ => run_arm!(EdfScheduler::for_tasks(&specs, None)),
    }
}

/// Turnaround quantile across tenants, from the latency profile.
fn turnaround_quantile(r: &Report, q: f64) -> String {
    let lat = r.latency.as_ref().expect("profile enabled on every cell");
    let mut merged = LogHistogram::new();
    for (name, h) in lat.iter() {
        if name.starts_with("turnaround@") {
            merged.merge(h);
        }
    }
    f3(merged.quantile_ns(q) as f64 / 1e9)
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let (spec, spec_small) = (fpga::device::part("VF800"), fpga::device::part("VF200"));
    let (lib, ids, _) = compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec);
    // Every domain: 20 circuits whose column demand exceeds the small
    // device, so residency churns all run long.
    let (lib_s, ids_s, sw_s) = compile_suite_lib_sw(&Domain::ALL, spec_small);
    let big: Device = (lib, ids, serial_fast(spec));
    let small: Device = (lib_s, ids_s, serial_fast(spec_small));
    // Software models for only half the suite: in degraded mode the
    // uncovered circuits still load hardware, so eviction churn (and the
    // utilization dips that flap a coincident-mark baseline) continues.
    let sw_partial: BTreeMap<u32, u64> = sw_s.into_iter().step_by(2).collect();
    let cell = |&p: &Point| {
        let device = if matches!(p.2, Policy::Hysteresis(_)) {
            &small
        } else {
            &big
        };
        Ok(run_cell(device, p, admission(p.2, &sw_partial), seed))
    };
    let grid = Grid {
        code: "e18",
        title: "scheduler arm x schedulability gate x hysteresis",
        seed,
        params: vec![
            ("device", spec.name.into()),
            ("tasks", 10u64.into()),
            ("tenants", 2u64.into()),
        ],
        points: vec![
            grid::product(
                (HEAVY, "edf", Policy::Quota),
                vec![
                    axis(&[HEAVY], &LOADS, |p, v| p.0 = v),
                    fixed(&ARMS, |p, v| p.1 = v),
                ],
            ),
            grid::product(
                (HEAVY, "edf", Policy::Quota),
                vec![axis(&[1.0], &[1.0, 2.0], |p, m| p.2 = Policy::Gate(m))],
            ),
            grid::points(vec![
                (HEAVY, "edf", Policy::Hysteresis(0.45)),
                (HEAVY, "edf", Policy::Hysteresis(0.05)),
            ]),
        ],
        label: |&((load, _), arm, policy)| match policy {
            Policy::Quota => format!("{load}/{arm}"),
            Policy::Gate(m) => format!("{load}/{arm}/gate-x{m}"),
            Policy::Hysteresis(r) if r >= 0.45 => format!("{load}/{arm}/flap-baseline"),
            Policy::Hysteresis(_) => format!("{load}/{arm}/hysteresis"),
        },
        cell: &cell,
        table: "E18: deadline-closed scheduling (partition manager, run-to-completion)",
        columns: &[
            ("cell", |c| c.label.clone()),
            ("makespan (s)", |c| secs(c.out.makespan)),
            ("done", |c| {
                let ts = &c.out.tasks;
                let out = |t: &&TaskMetrics| t.failed || t.quarantined || t.rejected;
                let done = ts.iter().filter(|t| !out(t) && !t.unschedulable).count();
                format!("{done}/{}", ts.len())
            }),
            ("ddl miss", |c| {
                let missed = c.out.tasks.iter().filter(|t| t.deadline_missed);
                missed.count().to_string()
            }),
            ("unsched", |c| admission_of(c).unschedulable.to_string()),
            ("rejected", |c| admission_of(c).rejected.to_string()),
            ("turn p50 (s)", |c| turnaround_quantile(&c.out, 0.5)),
            ("turn p95 (s)", |c| turnaround_quantile(&c.out, 0.95)),
            ("degr flaps", |c| {
                let a = admission_of(c);
                format!("{}/{}", a.degrade_enters, a.degrade_exits)
            }),
        ],
        reports: grid::own_report,
        outro: "\nFIFO serves deadlines in arrival order and pays for it; EDF spends the\n\
                same cycles on whoever is closest to the edge. The gate turns the leftover\n\
                misses into refusals at the door (unschedulable, not load-shed), and the\n\
                hysteresis pair keeps the degraded-mode decision from flapping at the mark.\n",
        ..Grid::default()
    };
    grid::run(args, grid)
}

fn admission_of(c: &grid::Cell<Point, Report>) -> AdmissionStats {
    c.out.admission.unwrap_or_default()
}
