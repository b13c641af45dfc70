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
//! deterministic: the same `--seed` yields a byte-identical export.

use super::grid::{self, axis, Column, Grid};
use super::RunArgs;
use crate::report::secs;
use crate::setup::{compile_suite_lib_sw, os_mix, save_restore, serial_fast, variable_partitions};
use crate::Exporter;
use fsim::{SimDuration, SimRng};
use std::collections::BTreeMap;
use vfpga::{
    AdmissionPolicy, AdmissionStats, DegradationConfig, Report, RoundRobinScheduler, System,
    WatchdogConfig,
};
use workload::{tenant_tasks, Domain, TenantMixParams};

#[derive(Clone, Copy)]
struct Point {
    load: (&'static str, SimDuration),
    quota: u32,
    slack: f64,
    /// The degradation watermark: the default 0.85 only degrades under
    /// real saturation; the "saturated" cell forces it low.
    watermark: f64,
    /// Admission control on, and one task that hangs forever (only the
    /// watchdog terminates it). The no-admission baseline therefore runs
    /// the hang-free variant of the same arrival process.
    admission: bool,
}

const HEAVY: (&str, SimDuration) = ("heavy", SimDuration::from_millis(1));
const LOADS: [(&str, SimDuration); 2] = [("light", SimDuration::from_millis(4)), HEAVY];
const ADMITTED: Point = Point {
    load: HEAVY,
    quota: 2,
    slack: 2.0,
    watermark: 0.85,
    admission: true,
};

fn admission_of(c: &grid::Cell<Point, Report>) -> AdmissionStats {
    c.out.admission.unwrap_or_default()
}

/// `p`'s admission control; `sw` prices the software fallback.
fn admission(p: &Point, sw: &BTreeMap<u32, u64>) -> AdmissionPolicy {
    // queue_cap 2: a tenant holds `quota` running + 2 queued; the rest of
    // a burst is load-shed.
    AdmissionPolicy {
        max_in_flight: p.quota,
        queue_cap: 2,
        watchdog: Some(WatchdogConfig {
            slack: p.slack,
            max_trips: 2,
        }),
        degradation: Some(DegradationConfig {
            watermark: p.watermark,
            sw_ns_per_cycle: sw.clone(),
            ..Default::default()
        }),
        ..Default::default()
    }
}

const COLUMNS: &[Column<Point, Report>] = &[
    ("cell", |c| c.label.clone()),
    ("makespan (s)", |c| secs(c.out.makespan)),
    ("done", |c| {
        let ts = &c.out.tasks;
        let done = ts
            .iter()
            .filter(|t| !t.failed && !t.quarantined && !t.rejected);
        format!("{}/{}", done.count(), ts.len())
    }),
    ("rejected", |c| admission_of(c).rejected.to_string()),
    ("deferred", |c| admission_of(c).deferred.to_string()),
    ("quarantined", |c| admission_of(c).quarantined.to_string()),
    ("wd fires", |c| admission_of(c).watchdog_fired.to_string()),
    ("degraded", |c| {
        admission_of(c).degraded_dispatches.to_string()
    }),
    ("ddl miss", |c| admission_of(c).deadline_missed.to_string()),
    ("lost (s)", |c| secs(admission_of(c).watchdog_lost_time)),
];

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let seed = args.seed();
    let spec = fpga::device::part("VF800");
    let (lib, ids, sw) = compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec);
    let timing = serial_fast(spec);
    let cell = |p: &Point| {
        let mix = TenantMixParams {
            base: os_mix(10, p.load.1),
            tenants: 2,
            deadline: Some(SimDuration::from_millis(60)),
            hang_tasks: p.admission as usize,
            ..Default::default()
        };
        let specs = tenant_tasks(&mix, &ids, &mut SimRng::new(seed));
        let rr = RoundRobinScheduler::new(SimDuration::from_millis(8));
        let mgr = variable_partitions(&lib, timing);
        let mut sys = System::new(lib.clone(), mgr, rr, save_restore(), specs);
        if p.admission {
            sys = sys
                .with_admission(admission(p, &sw))
                .expect("sweep policies must validate");
        }
        let r = sys.run();
        Ok(r.expect("every task must terminate (completed, rejected, or quarantined)"))
    };
    let grid = Grid {
        code: "e17",
        title: "offered load x tenant quota x watchdog slack",
        seed,
        params: vec![
            ("device", spec.name.into()),
            ("tasks", 10u64.into()),
            ("tenants", 2u64.into()),
        ],
        points: vec![
            grid::product(
                Point {
                    admission: false,
                    ..ADMITTED
                },
                vec![axis(&[HEAVY], &LOADS[..1], |p, v| p.load = v)],
            ),
            grid::product(
                ADMITTED,
                vec![
                    axis(&[HEAVY], &LOADS, |p, v| p.load = v),
                    axis(&[2], &[2, 4], |p, v| p.quota = v),
                    axis(&[2.0], &[1.5, 3.0], |p, v| p.slack = v),
                ],
            ),
            // A watermark this low treats the fabric as already full, so
            // every non-resident FPGA op takes the software path.
            grid::points(vec![Point {
                quota: 4,
                watermark: 0.05,
                ..ADMITTED
            }]),
        ],
        label: |p| match (p.admission, p.watermark < 0.85) {
            (false, _) => "off/baseline".into(),
            (true, true) => format!("{}/quota{}/saturated", p.load.0, p.quota),
            (true, false) => format!("{}/quota{}/slack{}", p.load.0, p.quota, p.slack),
        },
        cell: &cell,
        table: "E17: overload x admission control (partition manager, RR 8ms)",
        columns: COLUMNS,
        reports: grid::own_report,
        outro: "\nQuotas trade tenant isolation for load shedding: rejected work never\n\
                queues, so the surviving tasks' turnaround stays bounded. The watchdog is\n\
                what lets a hanging tenant coexist with the rest — without it that cell\n\
                would deadlock; with it the hang costs `max_trips` deadlines, then exile.\n",
        ..Grid::default()
    };
    grid::run(args, grid)
}
