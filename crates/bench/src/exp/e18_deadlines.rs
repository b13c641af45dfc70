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
//! deterministic: the same `--seed` yields a byte-identical export
//! (modulo the volatile `host` section) at any `--threads` count.

use super::RunArgs;
use crate::report::{f3, Table};
use crate::setup::{compile_suite_lib_sw, os_mix, save_restore, serial_fast, variable_partitions};
use crate::{Exporter, HostProfile};
use fpga::{ConfigPort, ConfigTiming};
use fsim::{LogHistogram, SimDuration, SimRng};
use vfpga::{
    AdmissionPolicy, DegradationConfig, EdfScheduler, FifoScheduler, PriorityScheduler, Report,
    SchedulabilityConfig, System, TaskSpec,
};
use workload::{tenant_tasks, Domain, TenantMixParams};

/// The E17 arrival process with jittered deadlines, plus a static
/// priority stamp derived from deadline rank (shortest deadline =
/// highest priority) so the priority-with-aging arm has something
/// deadline-shaped to order by.
fn specs(ids: &[vfpga::CircuitId], seed: u64, mean_interarrival: SimDuration) -> Vec<TaskSpec> {
    let mut rng = SimRng::new(seed);
    let mut specs = tenant_tasks(
        &TenantMixParams {
            base: os_mix(10, mean_interarrival),
            tenants: 2,
            deadline: Some(SimDuration::from_millis(120)),
            hang_tasks: 0,
            deadline_spread: 0.5,
            ..Default::default()
        },
        ids,
        &mut rng,
    );
    let mut order: Vec<usize> = (0..specs.len()).collect();
    // Sort by (deadline, index): deterministic rank even on ties.
    order.sort_by_key(|&i| (specs[i].deadline.expect("mix stamps deadlines"), i));
    for (rank, &i) in order.iter().enumerate() {
        specs[i].priority = (specs.len() - rank) as u8;
    }
    specs
}

#[derive(Clone, Copy, PartialEq)]
enum Arm {
    Fifo,
    Aging,
    Edf,
}

impl Arm {
    fn label(self) -> &'static str {
        match self {
            Arm::Fifo => "fifo",
            Arm::Aging => "aging",
            Arm::Edf => "edf",
        }
    }
}

#[derive(Clone)]
struct Point {
    label: String,
    arm: Arm,
    mean_interarrival: SimDuration,
    policy: Option<AdmissionPolicy>,
    /// Run on the small (VF200) device, whose capacity forces eviction
    /// churn — the utilization oscillation the hysteresis cells need.
    small: bool,
}

struct Device {
    lib: std::sync::Arc<vfpga::CircuitLib>,
    ids: Vec<vfpga::CircuitId>,
    timing: ConfigTiming,
}

fn run_cell(big: &Device, small: &Device, seed: u64, p: &Point) -> (String, Report) {
    let Device { lib, ids, timing } = if p.small { small } else { big };
    let timing = *timing;
    let specs = specs(ids, seed, p.mean_interarrival);
    let mgr = || variable_partitions(lib, timing);
    let cfg = || save_restore();
    let slice: Option<SimDuration> = None;
    // The three arms need three concrete `System<_, S>` types; the
    // admission/profile plumbing is identical, so a closure per arm.
    macro_rules! run_arm {
        ($sched:expr) => {{
            let mut sys = System::new(lib.clone(), mgr(), $sched, cfg(), specs.clone());
            if let Some(policy) = &p.policy {
                sys = sys
                    .with_admission(policy.clone())
                    .expect("sweep policies must validate");
            }
            sys.with_latency_profile()
                .run()
                .expect("every task must terminate")
        }};
    }
    let report = match p.arm {
        Arm::Fifo => run_arm!(FifoScheduler::new()),
        Arm::Aging => run_arm!(PriorityScheduler::with_aging(
            slice,
            SimDuration::from_millis(4)
        )),
        Arm::Edf => run_arm!(EdfScheduler::for_tasks(&specs, slice)),
    };
    (p.label.clone(), report)
}

/// Turnaround quantile across tenants, from the latency profile.
fn turnaround_quantile(r: &Report, q: f64) -> f64 {
    let lat = r.latency.as_ref().expect("profile enabled on every cell");
    let mut merged = LogHistogram::new();
    for (name, h) in lat.iter() {
        if name.starts_with("turnaround@") {
            merged.merge(h);
        }
    }
    merged.quantile_ns(q) as f64 / 1e9
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let smoke = args.smoke;
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF800");
    let spec_small = fpga::device::part("VF200");
    let ((lib, ids, _sw), (lib_s, ids_s, sw_s)) =
        host.phase(crate::sections::PHASE_COMPILE, || {
            (
                compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec),
                // Every domain: 20 circuits whose column demand exceeds
                // the small device, so residency churns all run long.
                compile_suite_lib_sw(&Domain::ALL, spec_small),
            )
        });
    let big = Device {
        lib,
        ids,
        timing: serial_fast(spec),
    };
    let small = Device {
        lib: lib_s,
        ids: ids_s,
        timing: ConfigTiming {
            spec: spec_small,
            port: ConfigPort::SerialFast,
        },
    };
    // Software models for only half the suite: in degraded mode the
    // uncovered circuits still load hardware, so eviction churn (and the
    // utilization dips that flap a coincident-mark baseline) continues.
    let sw_partial: std::collections::BTreeMap<u32, u64> = sw_s
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, (k, v))| (*k, *v))
        .collect();

    // Same quota/queue shape as E17 so rejection behavior is comparable;
    // no watchdog (no task hangs here) and no degradation outside the
    // dedicated hysteresis cells.
    let quota_policy = || AdmissionPolicy {
        max_in_flight: 4,
        queue_cap: 2,
        ..Default::default()
    };
    // The gate cells keep E17's tight quota so a real deferred backlog
    // exists for the estimate to count.
    let gated_policy = |margin: f64| AdmissionPolicy {
        max_in_flight: 2,
        queue_cap: 2,
        schedulability: Some(SchedulabilityConfig { margin }),
        ..Default::default()
    };
    // Hysteresis cells: both run the saturation watermark low enough to
    // engage under load. The baseline keeps the marks coincident (the
    // exact single-watermark semantics, only with transition accounting
    // on); the pair splits them so a crossing is sticky.
    // Tighter in-flight quota than the arms: the small device cannot
    // host four tenants' circuits at once without allocation failures.
    let flap_policy = |recover_below: f64| AdmissionPolicy {
        max_in_flight: 3,
        queue_cap: 2,
        degradation: Some(DegradationConfig {
            watermark: 0.0, // aliased away by the explicit pair below
            degrade_above: Some(0.45),
            recover_below: Some(recover_below),
            sw_ns_per_cycle: sw_partial.clone(),
        }),
        ..Default::default()
    };

    let loads: &[(&str, SimDuration)] = if smoke {
        &[("heavy", SimDuration::from_millis(1))]
    } else {
        &[
            ("light", SimDuration::from_millis(4)),
            ("heavy", SimDuration::from_millis(1)),
        ]
    };
    let margins: &[f64] = if smoke { &[1.0] } else { &[1.0, 2.0] };

    let mut points = Vec::new();
    for &(lname, ia) in loads {
        for arm in [Arm::Fifo, Arm::Aging, Arm::Edf] {
            points.push(Point {
                label: format!("{lname}/{}", arm.label()),
                arm,
                mean_interarrival: ia,
                policy: Some(quota_policy()),
                small: false,
            });
        }
    }
    for &m in margins {
        points.push(Point {
            label: format!("heavy/edf/gate-x{m}"),
            arm: Arm::Edf,
            mean_interarrival: SimDuration::from_millis(1),
            policy: Some(gated_policy(m)),
            small: false,
        });
    }
    points.push(Point {
        label: "heavy/edf/flap-baseline".into(),
        arm: Arm::Edf,
        mean_interarrival: SimDuration::from_millis(1),
        policy: Some(flap_policy(0.45)),
        small: true,
    });
    points.push(Point {
        label: "heavy/edf/hysteresis".into(),
        arm: Arm::Edf,
        mean_interarrival: SimDuration::from_millis(1),
        policy: Some(flap_policy(0.05)),
        small: true,
    });

    let mut ex = Exporter::new("e18", "scheduler arm x schedulability gate x hysteresis");
    ex.seed(seed)
        .param("device", spec.name)
        .param("tasks", 10u64)
        .param("tenants", 2u64)
        .param("smoke", smoke);

    let mut t = Table::new(
        "E18: deadline-closed scheduling (partition manager, run-to-completion)",
        &[
            "cell",
            "makespan (s)",
            "done",
            "ddl miss",
            "unsched",
            "rejected",
            "turn p50 (s)",
            "turn p95 (s)",
            "degr flaps",
        ],
    );

    let cells = host.sweep(&points, |_, p| run_cell(&big, &small, seed, p));

    for (label, r) in &cells {
        let done = r
            .tasks
            .iter()
            .filter(|t| !t.failed && !t.quarantined && !t.rejected && !t.unschedulable)
            .count();
        let missed = r.tasks.iter().filter(|t| t.deadline_missed).count();
        let a = r.admission.unwrap_or_default();
        t.row(vec![
            label.clone(),
            f3(r.makespan.as_secs_f64()),
            format!("{}/{}", done, r.tasks.len()),
            missed.to_string(),
            a.unschedulable.to_string(),
            a.rejected.to_string(),
            f3(turnaround_quantile(r, 0.5)),
            f3(turnaround_quantile(r, 0.95)),
            format!("{}/{}", a.degrade_enters, a.degrade_exits),
        ]);
        ex.report(label, r);
    }

    t.print();
    ex.table(&t);
    ex.host(host, points.len());

    println!("\nFIFO serves deadlines in arrival order and pays for it; EDF spends the");
    println!("same cycles on whoever is closest to the edge. The gate turns the leftover");
    println!("misses into refusals at the door (unschedulable, not load-shed), and the");
    println!("hysteresis pair keeps the degraded-mode decision from flapping at the mark.");
    Ok(ex)
}
