//! E17 — Overload-resilient multi-tenant admission control.
//!
//! The paper's OS layer detects completion "via a-priori latency estimate
//! or a done-signal service circuit" (§3) and promises each of many tasks
//! a dedicated virtual FPGA — but it trusts every task to terminate and
//! admits unbounded work. This experiment exercises the defenses the
//! `vfpga::admission` module adds: per-tenant in-flight quotas with a
//! bounded admission queue (arrivals past both are load-shed), watchdog
//! deadlines derived from the same §3 a-priori estimate (a deliberately
//! hanging task is preempted and, after bounded retries, quarantined),
//! and graceful degradation to a software-emulation path priced from the
//! e12 coprocessor model once the fabric saturates.
//!
//! The sweep: offered load x per-tenant quota x watchdog slack, on the
//! same seeded tenant-tagged Poisson workload (one task hangs forever),
//! plus a no-admission baseline on the hang-free variant — the only
//! variant that *can* run without a watchdog. Everything is
//! deterministic: the same `--seed` yields a byte-identical export
//! (modulo the volatile `host` section) at any `--threads` count.

use super::RunArgs;
use crate::report::{f3, Table};
use crate::setup::{compile_suite_lib_sw, os_mix, save_restore, serial_fast, variable_partitions};
use crate::{Exporter, HostProfile};
use fpga::ConfigTiming;
use fsim::{SimDuration, SimRng};
use std::collections::BTreeMap;
use vfpga::{
    AdmissionPolicy, DegradationConfig, Report, RoundRobinScheduler, System, TaskSpec,
    WatchdogConfig,
};
use workload::{tenant_tasks, Domain, TenantMixParams};

fn specs(
    ids: &[vfpga::CircuitId],
    seed: u64,
    mean_interarrival: SimDuration,
    hang_tasks: usize,
) -> Vec<TaskSpec> {
    let mut rng = SimRng::new(seed);
    tenant_tasks(
        &TenantMixParams {
            base: os_mix(10, mean_interarrival),
            tenants: 2,
            deadline: Some(SimDuration::from_millis(60)),
            hang_tasks,
            ..Default::default()
        },
        ids,
        &mut rng,
    )
}

#[derive(Clone)]
struct Point {
    label: String,
    mean_interarrival: SimDuration,
    hang_tasks: usize,
    policy: Option<AdmissionPolicy>,
}

fn run_cell(
    lib: &std::sync::Arc<vfpga::CircuitLib>,
    ids: &[vfpga::CircuitId],
    timing: ConfigTiming,
    seed: u64,
    p: &Point,
) -> (String, Report) {
    let mgr = variable_partitions(lib, timing);
    let mut sys = System::new(
        lib.clone(),
        mgr,
        RoundRobinScheduler::new(SimDuration::from_millis(8)),
        save_restore(),
        specs(ids, seed, p.mean_interarrival, p.hang_tasks),
    );
    if let Some(policy) = &p.policy {
        sys = sys
            .with_admission(policy.clone())
            .expect("sweep policies must validate");
    }
    let report = sys
        .run()
        .expect("every task must terminate (completed, rejected, or quarantined)");
    (p.label.clone(), report)
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let smoke = args.smoke;
    let mut host = HostProfile::new(args.threads);
    let spec = fpga::device::part("VF800");
    let (lib, ids, sw) = host.phase(crate::sections::PHASE_COMPILE, || {
        compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec)
    });
    let timing = serial_fast(spec);

    // queue_cap 2: a tenant holds `quota` running + 2 queued; the rest of
    // a burst is load-shed. The default watermark (0.85) only degrades
    // under real saturation; the dedicated "saturated" cell forces it low
    // so the software-fallback path shows in the table.
    let policy =
        |quota: u32, slack: f64, watermark: f64, sw: &BTreeMap<u32, u64>| AdmissionPolicy {
            max_in_flight: quota,
            queue_cap: 2,
            watchdog: Some(WatchdogConfig {
                slack,
                max_trips: 2,
            }),
            degradation: Some(DegradationConfig {
                watermark,
                sw_ns_per_cycle: sw.clone(),
                ..Default::default()
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
    let quotas: &[u32] = if smoke { &[2] } else { &[2, 4] };
    let slacks: &[f64] = if smoke { &[2.0] } else { &[1.5, 3.0] };

    // One task hangs forever (its FPGA op never raises done); only the
    // watchdog terminates it. The no-admission baseline therefore runs
    // the hang-free variant of the same arrival process.
    let mut points = Vec::new();
    points.push(Point {
        label: "off/baseline".into(),
        mean_interarrival: loads[0].1,
        hang_tasks: 0,
        policy: None,
    });
    for &(lname, ia) in loads {
        for &q in quotas {
            for &s in slacks {
                points.push(Point {
                    label: format!("{lname}/quota{q}/slack{s}"),
                    mean_interarrival: ia,
                    hang_tasks: 1,
                    policy: Some(policy(q, s, 0.85, &sw)),
                });
            }
        }
    }
    // Saturation cell: a watermark this low treats the fabric as already
    // full, so every non-resident FPGA op takes the software path.
    points.push(Point {
        label: "heavy/quota4/saturated".into(),
        mean_interarrival: SimDuration::from_millis(1),
        hang_tasks: 1,
        policy: Some(policy(4, 2.0, 0.05, &sw)),
    });

    let mut ex = Exporter::new("e17", "offered load x tenant quota x watchdog slack");
    ex.seed(seed)
        .param("device", spec.name)
        .param("tasks", 10u64)
        .param("tenants", 2u64)
        .param("smoke", smoke);

    let mut t = Table::new(
        "E17: overload x admission control (partition manager, RR 8ms)",
        &[
            "cell",
            "makespan (s)",
            "done",
            "rejected",
            "deferred",
            "quarantined",
            "wd fires",
            "degraded",
            "ddl miss",
            "lost (s)",
        ],
    );

    let cells = host.sweep(&points, |_, p| run_cell(&lib, &ids, timing, seed, p));

    for (label, r) in &cells {
        let done = r
            .tasks
            .iter()
            .filter(|t| !t.failed && !t.quarantined && !t.rejected)
            .count();
        let a = r.admission.unwrap_or_default();
        t.row(vec![
            label.clone(),
            f3(r.makespan.as_secs_f64()),
            format!("{}/{}", done, r.tasks.len()),
            a.rejected.to_string(),
            a.deferred.to_string(),
            a.quarantined.to_string(),
            a.watchdog_fired.to_string(),
            a.degraded_dispatches.to_string(),
            a.deadline_missed.to_string(),
            f3(a.watchdog_lost_time.as_secs_f64()),
        ]);
        ex.report(label, r);
    }

    t.print();
    ex.table(&t);
    ex.host(host, points.len());

    println!("\nQuotas trade tenant isolation for load shedding: rejected work never");
    println!("queues, so the surviving tasks' turnaround stays bounded. The watchdog is");
    println!("what lets a hanging tenant coexist with the rest — without it that cell");
    println!("would deadlock; with it the hang costs `max_trips` deadlines, then exile.");
    Ok(ex)
}
