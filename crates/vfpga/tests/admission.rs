//! Property tests for the admission-control subsystem.
//!
//! The guarantees worth pinning down, end to end:
//!
//! 1. a maximally permissive policy is *exactly* a no-op — the report is
//!    byte-identical (modulo the `admission` stats section) to a run
//!    built without `with_admission` at all;
//! 2. a task whose FPGA op never completes always terminates anyway —
//!    quarantined by the watchdog at every seed — while the identical
//!    workload without admission control deadlocks;
//! 3. per-tenant quotas defer and then load-shed excess arrivals, with
//!    coherent accounting (admitted + rejected covers every task);
//! 4. under a saturated-fabric watermark every eligible op degrades to
//!    the software path and still completes;
//! 5. the overhead breakdown still tiles the grand total exactly when
//!    the watchdog slice is non-zero;
//! 6. admission state checkpoints and restores: a crashed-and-restored
//!    run matches the uninterrupted baseline, including quarantine and
//!    degradation outcomes;
//! 7. admission-controlled runs are bit-reproducible per seed;
//! 8. the watchdog generation counter is airtight at both edges: a
//!    deferred task released by a quarantine and hanging immediately is
//!    caught by a *fresh* watchdog, and a watchdog whose segment already
//!    completed is a no-op even at the tightest legal slack (1.0);
//! 9. schedulability rejections are accounted disjointly from quota
//!    load-shedding, per task and in the stats totals;
//! 10. an explicit coincident hysteresis pair dispatches identically to
//!     the legacy single watermark, and a wide pair is sticky (zero
//!     exits once entered);
//! 11. the deadline-era state — EDF queue, schedulability gate,
//!     hysteresis mode bit — survives crash-and-restore;
//! 12. specs that are not arrival-sorted (so `System` sorts its arrival
//!     order) give the outcomes pinned with the single-heap queue that
//!     held every arrival, uninterrupted and across crash-and-restore.

mod common;

use common::{four_ops, lib4, partition_system};
use fsim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use vfpga::manager::partition::PartitionManager;
use vfpga::sched::RoundRobinScheduler;
use vfpga::system::System;
use vfpga::task::TaskSpec;
use vfpga::{
    diff_reports, run_with_crashes, AdmissionPolicy, CheckpointConfig, CrashPlan,
    DegradationConfig, EdfScheduler, Report, SchedulabilityConfig, VfpgaError, WatchdogConfig,
};

/// Two-tenant workload with seeded arrival jitter, explicit hang indices
/// (those tasks' first FPGA op never raises its done signal) and optional
/// per-index deadlines.
fn workload_ext(
    ids: &[vfpga::circuit::CircuitId],
    n: usize,
    seed: u64,
    hang: &[usize],
    deadline: impl Fn(usize) -> Option<SimDuration>,
) -> Vec<TaskSpec> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|i| {
            let cid = ids[i % ids.len()];
            let jitter = rng.range_u64(0, 30);
            let mut s = TaskSpec::new(
                format!("t{i}"),
                SimTime::ZERO + SimDuration::from_micros(i as u64 * 40 + jitter),
                four_ops(cid),
            )
            .with_tenant(i as u32 % 2);
            if hang.contains(&i) {
                s = s.with_hang_op(1);
            }
            if let Some(d) = deadline(i) {
                s = s.with_deadline(d);
            }
            s
        })
        .collect()
}

/// The original shape most tests use: optionally hang task 0, no deadlines.
fn workload(ids: &[vfpga::circuit::CircuitId], n: usize, seed: u64, hang: bool) -> Vec<TaskSpec> {
    workload_ext(ids, n, seed, if hang { &[0] } else { &[] }, |_| None)
}

/// Flat per-cycle software price for every circuit in the library — the
/// exact values are irrelevant to these properties, only that lookups hit.
fn sw_all(ids: &[vfpga::circuit::CircuitId]) -> BTreeMap<u32, u64> {
    ids.iter().map(|id| (id.0, 3)).collect()
}

fn build(
    seed: u64,
    hang: bool,
    policy: Option<AdmissionPolicy>,
) -> System<PartitionManager, RoundRobinScheduler> {
    let (lib, ids) = lib4();
    let sched = RoundRobinScheduler::new(SimDuration::from_millis(2));
    let mut sys = partition_system(lib, sched, workload(&ids, 8, seed, hang));
    if let Some(p) = policy {
        sys = sys.with_admission(p).unwrap();
    }
    sys
}

fn run(seed: u64, hang: bool, policy: Option<AdmissionPolicy>) -> Report {
    build(seed, hang, policy).run().unwrap()
}

/// Fully parameterized builder: the workload is derived from the compiled
/// circuit ids, the scheduler from the finished specs (EDF needs them).
fn build_with<S: vfpga::Scheduler>(
    make_specs: impl FnOnce(&[vfpga::circuit::CircuitId]) -> Vec<TaskSpec>,
    make_sched: impl FnOnce(&[TaskSpec]) -> S,
    policy: Option<AdmissionPolicy>,
) -> System<PartitionManager, S> {
    let (lib, ids) = lib4();
    let specs = make_specs(&ids);
    let sched = make_sched(&specs);
    let mut sys = partition_system(lib, sched, specs);
    if let Some(p) = policy {
        sys = sys.with_admission(p).unwrap();
    }
    sys
}

#[test]
fn permissive_policy_is_byte_identical_to_no_admission() {
    for seed in [0u64, 7, 991] {
        let baseline = run(seed, false, None);
        let mut r = run(seed, false, Some(AdmissionPolicy::default()));
        let stats = r.admission.take().expect("admission section present");
        // The permissive run still armed watchdogs (the default policy
        // keeps them on) — they just never fired.
        assert!(stats.watchdog_armed > 0);
        assert_eq!(stats.watchdog_fired, 0);
        assert_eq!(stats.rejected + stats.quarantined + stats.deferred, 0);
        // With the stats section removed the two reports must be
        // *byte-identical*: admission off the hot path costs nothing.
        assert_eq!(
            format!("{baseline:?}"),
            format!("{r:?}"),
            "seed {seed}: permissive admission perturbed the run"
        );
    }
}

#[test]
fn hanging_task_is_always_quarantined_and_the_run_terminates() {
    for seed in 0..10u64 {
        let r = run(seed, true, Some(AdmissionPolicy::default()));
        let t0 = &r.tasks[0];
        assert!(t0.quarantined, "seed {seed}: hanging task not quarantined");
        assert!(
            t0.completion >= t0.arrival,
            "seed {seed}: no termination instant"
        );
        let stats = r.admission.unwrap();
        // Default max_trips = 2: fire, retry, fire, retry, fire, exile.
        assert_eq!(stats.watchdog_fired, 3, "seed {seed}");
        assert_eq!(stats.quarantined, 1, "seed {seed}");
        assert!(stats.watchdog_lost_time > SimDuration::ZERO);
        // Everyone else still finishes.
        for t in &r.tasks[1..] {
            assert!(!t.failed && !t.quarantined && !t.rejected, "seed {seed}");
        }
    }
}

#[test]
fn without_admission_the_hanging_task_deadlocks_the_run() {
    // The ablation: the identical workload minus the watchdog cannot
    // terminate — the op holds its virtual FPGA forever and the run ends
    // in the deadlock sweep.
    let err = build(3, true, None).run().unwrap_err();
    assert!(
        matches!(err, VfpgaError::Deadlock { .. }),
        "expected Deadlock, got {err:?}"
    );
}

#[test]
fn quotas_defer_then_load_shed_with_coherent_accounting() {
    let policy = AdmissionPolicy {
        max_in_flight: 1,
        queue_cap: 1,
        watchdog: None,
        degradation: None,
        ..AdmissionPolicy::default()
    };
    let r = run(11, false, Some(policy));
    let stats = r.admission.unwrap();
    // 4 tasks per tenant arriving within ~120us against multi-ms service
    // times: 1 in flight + 1 queued per tenant, the rest load-shed.
    assert_eq!(stats.rejected, 4);
    assert!(stats.deferred >= 2);
    let rejected = r.tasks.iter().filter(|t| t.rejected).count();
    assert_eq!(rejected as u64, stats.rejected);
    // Every non-rejected task was admitted (possibly after deferral) and
    // completed; rejected tasks carry a termination instant too.
    assert_eq!(stats.admitted, (r.tasks.len() - rejected) as u64);
    for t in &r.tasks {
        assert!(t.completion >= t.arrival, "{} never terminated", t.name);
        if !t.rejected {
            assert!(!t.failed && !t.quarantined);
        }
    }
}

#[test]
fn saturated_watermark_degrades_to_software_and_still_completes() {
    let (_, ids) = lib4();
    let policy = AdmissionPolicy {
        degradation: Some(DegradationConfig {
            watermark: 0.0,
            sw_ns_per_cycle: sw_all(&ids),
            ..Default::default()
        }),
        ..AdmissionPolicy::default()
    };
    let r = run(5, false, Some(policy));
    let stats = r.admission.unwrap();
    // Watermark 0 treats the fabric as saturated from the first op: every
    // FPGA op of every task (8 tasks x 2 ops) takes the software path.
    assert_eq!(stats.degraded_dispatches, 16);
    assert!(stats.degraded_time > SimDuration::ZERO);
    assert_eq!(
        r.tasks
            .iter()
            .map(|t| t.degraded_time)
            .fold(SimDuration::ZERO, |a, d| a + d),
        stats.degraded_time,
        "per-task degraded time must sum to the stats total"
    );
    for t in &r.tasks {
        assert!(!t.failed && !t.quarantined && !t.rejected);
        assert_eq!(t.fpga_time, SimDuration::ZERO, "{} touched fabric", t.name);
    }
}

#[test]
fn overhead_breakdown_tiles_total_with_watchdog_slice() {
    let r = run(2, true, Some(AdmissionPolicy::default()));
    let stats = r.admission.unwrap();
    assert!(stats.watchdog_fired > 0, "dead test: watchdog never fired");
    let b = r.overhead_breakdown();
    assert!(b.watchdog > SimDuration::ZERO);
    assert_eq!(
        b.watchdog,
        stats.watchdog_preempt_time + stats.watchdog_lost_time
    );
    assert_eq!(
        b.total(),
        r.overhead_time(),
        "breakdown must tile the grand total exactly"
    );
}

#[test]
fn admission_state_survives_crash_and_restore() {
    let policy = || AdmissionPolicy {
        max_in_flight: 2,
        queue_cap: 4,
        watchdog: Some(WatchdogConfig::default()),
        degradation: Some(DegradationConfig {
            watermark: 0.0,
            sw_ns_per_cycle: sw_all(&lib4().1),
            ..Default::default()
        }),
        ..AdmissionPolicy::default()
    };
    let baseline = run(9, true, Some(policy()));
    assert!(baseline.tasks[0].quarantined);
    assert!(baseline.admission.unwrap().degraded_dispatches > 0);
    let mut crashed_somewhere = false;
    for seed in 0..6u64 {
        let plan = CrashPlan {
            seed,
            crash_rate_per_s: 200.0,
            max_crashes: 3,
        };
        let cfg = CheckpointConfig::new(SimDuration::from_micros(2_500));
        let r = run_with_crashes(|| build(9, true, Some(policy())), cfg, plan).unwrap();
        crashed_somewhere |= r.crash.crashes > 0;
        let d = diff_reports(&baseline, &r);
        assert!(
            d.is_empty(),
            "crash seed {seed}: restored run diverged: {d:?}"
        );
    }
    assert!(crashed_somewhere, "no seed ever crashed — dead test");
}

#[test]
fn admission_runs_are_bit_reproducible() {
    let policy = || AdmissionPolicy {
        max_in_flight: 2,
        queue_cap: 2,
        ..AdmissionPolicy::default()
    };
    let a = run(42, true, Some(policy()));
    let b = run(42, true, Some(policy()));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn released_deferred_hanging_task_is_requarantined() {
    // Generation-counter edge one: tenant 0's first task hangs and is
    // quarantined; the exile releases tenant 0's deferred queue, and the
    // *released* task hangs immediately too. It must be caught by a fresh
    // watchdog generation — neither masked by the first task's consumed
    // generations nor tripped by one of its stale deadline events.
    for seed in [1u64, 8, 77] {
        let policy = AdmissionPolicy {
            max_in_flight: 1,
            queue_cap: 3,
            ..AdmissionPolicy::default()
        };
        let r = build_with(
            |ids| workload_ext(ids, 8, seed, &[0, 2], |_| None),
            |_| RoundRobinScheduler::new(SimDuration::from_millis(2)),
            Some(policy),
        )
        .run()
        .unwrap();
        let stats = r.admission.unwrap();
        assert!(r.tasks[0].quarantined, "seed {seed}: first hang survived");
        assert!(
            r.tasks[2].quarantined,
            "seed {seed}: released hang not re-quarantined"
        );
        assert_eq!(stats.quarantined, 2, "seed {seed}");
        // max_trips = 2 costs 3 fires per hang, independently for each.
        assert_eq!(stats.watchdog_fired, 6, "seed {seed}");
        for (i, t) in r.tasks.iter().enumerate() {
            if i != 0 && i != 2 {
                assert!(
                    !t.failed && !t.quarantined && !t.rejected,
                    "seed {seed}: healthy task {i} harmed"
                );
            }
        }
    }
}

#[test]
fn stale_watchdog_after_on_time_completion_is_a_noop() {
    // Generation-counter edge two: at slack 1.0 every watchdog deadline
    // lands on the *same instant* as its segment's completion timer. The
    // FIFO tie-break pops the timer first, which bumps the generation, so
    // the watchdog event arrives stale and must do nothing. max_trips 0
    // turns any spurious fire into an immediate quarantine the
    // assertions below would catch.
    for seed in [0u64, 13, 541] {
        let policy = AdmissionPolicy {
            watchdog: Some(WatchdogConfig {
                slack: 1.0,
                max_trips: 0,
            }),
            ..AdmissionPolicy::default()
        };
        let r = run(seed, false, Some(policy));
        let stats = r.admission.unwrap();
        // 8 tasks x 2 FPGA ops, plus re-arms after any preemption.
        assert!(stats.watchdog_armed >= 16, "seed {seed}: dead test");
        assert_eq!(stats.watchdog_fired, 0, "seed {seed}: spurious fire");
        assert_eq!(stats.quarantined, 0, "seed {seed}");
        for t in &r.tasks {
            assert!(!t.failed && !t.quarantined && !t.rejected, "seed {seed}");
        }
    }
}

#[test]
fn unschedulable_rejections_are_disjoint_from_quota_shedding() {
    // Tenant 1's tasks (odd indices) carry a deadline far below any §3
    // service estimate: the schedulability gate refuses them at arrival.
    // Tenant 0's tasks carry no deadline, so they flow through the quota
    // path instead: 1 in flight + 1 queued, the remaining 2 load-shed.
    // The two rejection kinds must never share a task or a counter.
    let policy = AdmissionPolicy {
        max_in_flight: 1,
        queue_cap: 1,
        schedulability: Some(SchedulabilityConfig { margin: 1.0 }),
        ..AdmissionPolicy::default()
    };
    let r = build_with(
        |ids| {
            workload_ext(ids, 8, 11, &[], |i| {
                (i % 2 == 1).then_some(SimDuration::from_micros(100))
            })
        },
        |_| RoundRobinScheduler::new(SimDuration::from_millis(2)),
        Some(policy),
    )
    .run()
    .unwrap();
    let stats = r.admission.unwrap();
    assert_eq!(stats.unschedulable, 4, "all four deadlined tasks refused");
    assert_eq!(stats.rejected, 2, "quota path sheds exactly the overflow");
    assert_eq!(stats.admitted, 2);
    assert!(stats.deferred >= 1);
    // Disjoint per task: a task is unschedulable xor quota-rejected xor
    // admitted, and the three counters tile the workload exactly.
    for t in &r.tasks {
        assert!(
            !(t.unschedulable && t.rejected),
            "{}: double-counted rejection",
            t.name
        );
        assert!(t.completion >= t.arrival, "{} never terminated", t.name);
    }
    let unsched = r.tasks.iter().filter(|t| t.unschedulable).count() as u64;
    let shed = r.tasks.iter().filter(|t| t.rejected).count() as u64;
    assert_eq!(unsched, stats.unschedulable);
    assert_eq!(shed, stats.rejected);
    assert_eq!(
        stats.admitted + stats.rejected + stats.unschedulable,
        r.tasks.len() as u64
    );
}

#[test]
fn coincident_hysteresis_pair_dispatches_like_the_legacy_watermark() {
    let (_, ids) = lib4();
    let legacy = AdmissionPolicy {
        degradation: Some(DegradationConfig {
            watermark: 0.0,
            sw_ns_per_cycle: sw_all(&ids),
            ..Default::default()
        }),
        ..AdmissionPolicy::default()
    };
    let pair = AdmissionPolicy {
        degradation: Some(DegradationConfig {
            watermark: 0.0,
            degrade_above: Some(0.0),
            recover_below: Some(0.0),
            sw_ns_per_cycle: sw_all(&ids),
        }),
        ..AdmissionPolicy::default()
    };
    let a = run(5, false, Some(legacy));
    let b = run(5, false, Some(pair));
    // Identical timelines: only the mode-transition counters (kept solely
    // for explicit pairs) may differ between the two stats blocks.
    assert_eq!(format!("{:?}", a.tasks), format!("{:?}", b.tasks));
    let (sa, sb) = (a.admission.unwrap(), b.admission.unwrap());
    assert_eq!(sa.degraded_dispatches, sb.degraded_dispatches);
    assert_eq!(sa.degraded_time, sb.degraded_time);
    assert_eq!((sa.degrade_enters, sa.degrade_exits), (0, 0));
    // A zero high mark is crossed at the first dispatch and, with an
    // equal low mark, never left: sticky mode, single entry, zero exits —
    // the no-flap guarantee in its degenerate form.
    assert_eq!((sb.degrade_enters, sb.degrade_exits), (1, 0));
}

#[test]
fn deadline_era_state_survives_crash_and_restore() {
    // One run exercising every new persisted field at once: EDF queue
    // order, the schedulability gate's disjoint rejection, the sticky
    // hysteresis mode bit, and a watchdog quarantine — then crash it
    // repeatedly and demand byte-equality with the uninterrupted run.
    let policy = || AdmissionPolicy {
        max_in_flight: 2,
        queue_cap: 4,
        degradation: Some(DegradationConfig {
            watermark: 0.0,
            degrade_above: Some(0.0),
            recover_below: Some(0.0),
            sw_ns_per_cycle: lib4()
                .1
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 2 == 0)
                .map(|(_, id)| (id.0, 3))
                .collect(),
        }),
        schedulability: Some(SchedulabilityConfig { margin: 1.0 }),
        ..AdmissionPolicy::default()
    };
    let build_sys = || {
        build_with(
            |ids| {
                workload_ext(ids, 8, 9, &[0], |i| {
                    Some(SimDuration::from_micros(if i % 3 == 1 {
                        120
                    } else {
                        400_000
                    }))
                })
            },
            |specs| EdfScheduler::for_tasks(specs, Some(SimDuration::from_millis(2))),
            Some(policy()),
        )
    };
    let baseline = build_sys().run().unwrap();
    let stats = baseline.admission.unwrap();
    assert!(stats.unschedulable > 0, "dead test: gate never refused");
    assert!(stats.quarantined > 0, "dead test: no quarantine");
    assert!(stats.degrade_enters > 0, "dead test: mode never entered");
    let mut crashed_somewhere = false;
    for seed in 0..6u64 {
        let plan = CrashPlan {
            seed,
            crash_rate_per_s: 200.0,
            max_crashes: 3,
        };
        let cfg = CheckpointConfig::new(SimDuration::from_micros(2_500));
        let r = run_with_crashes(build_sys, cfg, plan).unwrap();
        crashed_somewhere |= r.crash.crashes > 0;
        let d = diff_reports(&baseline, &r);
        assert!(
            d.is_empty(),
            "crash seed {seed}: restored run diverged: {d:?}"
        );
    }
    assert!(crashed_somewhere, "no seed ever crashed — dead test");
}

/// FNV-1a, a word at a time, over every task's completion instant and
/// outcome flags.
fn outcome_digest(r: &Report) -> u64 {
    r.tasks.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, t| {
        let flags = [
            t.failed,
            t.quarantined,
            t.rejected,
            t.unschedulable,
            t.deadline_missed,
            t.corrupted,
            t.lost_in_flight,
        ]
        .iter()
        .fold(0u64, |acc, &f| acc << 1 | u64::from(f));
        [t.completion.as_nanos(), flags]
            .iter()
            .fold(h, |h, &w| (h ^ w).wrapping_mul(0x0000_0100_0000_01b3))
    })
}

#[test]
fn unsorted_specs_reproduce_the_pinned_outcomes() {
    // `System` serves arrivals from the task table in (arrival, id)
    // order, ahead of every other event at one instant; how it holds them
    // must never show. Here the specs come latest-first with arrivals tied
    // in pairs, so the order is a sort, not the table's, and a watchdog at
    // slack 1.0 fires at the very instant of its segment's timer. The
    // digest was taken with the single-heap queue that held every arrival.
    const PINNED: u64 = 0xbe54_5a7b_5d0c_3315;
    let policy = || AdmissionPolicy {
        max_in_flight: 3,
        queue_cap: 4,
        watchdog: Some(WatchdogConfig {
            slack: 1.0,
            max_trips: 1,
        }),
        ..AdmissionPolicy::default()
    };
    let build_sys = || {
        build_with(
            |ids| {
                let mut specs = workload_ext(ids, 12, 5, &[3], |_| None);
                for (i, s) in specs.iter_mut().enumerate() {
                    s.arrival = SimTime::ZERO + SimDuration::from_micros((i / 2) as u64 * 90);
                }
                specs.reverse();
                specs
            },
            |_| RoundRobinScheduler::new(SimDuration::from_millis(2)),
            Some(policy()),
        )
    };
    let baseline = build_sys().run().unwrap();
    let stats = baseline.admission.as_ref().unwrap();
    assert!(stats.watchdog_fired > 0, "dead test: watchdog never fired");
    assert!(stats.deferred > 0, "dead test: quota never deferred");
    assert_eq!(
        outcome_digest(&baseline),
        PINNED,
        "unsorted input changed task outcomes"
    );
    let mut crashed_somewhere = false;
    for seed in 0..4u64 {
        let plan = CrashPlan {
            seed,
            crash_rate_per_s: 200.0,
            max_crashes: 3,
        };
        let cfg = CheckpointConfig::new(SimDuration::from_micros(2_500));
        let r = run_with_crashes(build_sys, cfg, plan).unwrap();
        crashed_somewhere |= r.crash.crashes > 0;
        assert_eq!(
            outcome_digest(&r),
            PINNED,
            "crash seed {seed}: restored run changed task outcomes"
        );
    }
    assert!(crashed_somewhere, "no seed ever crashed — dead test");
}
