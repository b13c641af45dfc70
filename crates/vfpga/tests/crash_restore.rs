//! Crash-consistency properties of the checkpoint/journal subsystem.
//!
//! The contract under test, end to end:
//!
//! 1. checkpointing alone never perturbs outcomes — a checkpointed run
//!    that happens not to crash matches the plain run on every
//!    timing-invariant field;
//! 2. a crashed-and-restored run (journal on) reaches the *same* per-task
//!    outcomes as the uninterrupted same-seed run, for every crash seed;
//! 3. with the journal off the restore keeps stale residency claims and
//!    silently corrupts results — the ablation proving the journal is
//!    load-bearing, not decorative;
//! 4. the overhead breakdown (now including checkpoint and journal-replay
//!    slices) still tiles the grand total exactly, across a random policy
//!    sweep;
//! 5. a zero retry budget fails a corrupt download immediately, without a
//!    spurious retry (recovery-policy edge case);
//! 6. a crashed run is built once: every later incarnation, cold or warm,
//!    is the crashed system restarted in place.

mod common;

use common::{lib4, partition_system, timing, workload};
use fsim::SimDuration;
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::partition::PartitionManager;
use vfpga::manager::PreemptAction;
use vfpga::sched::RoundRobinScheduler;
use vfpga::system::{System, SystemConfig};
use vfpga::{
    diff_reports, run_with_crashes, CheckpointConfig, CrashPlan, FaultPlan, FpgaManager,
    RecoveryPolicy, Report, RunOutcome, Scheduler,
};

/// A dynamically loaded single-tenant device: every circuit swap rewrites
/// the same columns, so post-checkpoint downloads always clobber the
/// claims an old checkpoint image still holds.
fn build_dynload() -> System<DynLoadManager, RoundRobinScheduler> {
    let (lib, ids) = lib4();
    let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
    System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(SimDuration::from_millis(2)),
        SystemConfig {
            preempt: PreemptAction::SaveRestore,
            ..Default::default()
        },
        workload(&ids, 8),
    )
}

fn build_partition() -> System<PartitionManager, RoundRobinScheduler> {
    let (lib, ids) = lib4();
    let sched = RoundRobinScheduler::new(SimDuration::from_millis(2));
    partition_system(lib, sched, workload(&ids, 8))
}

fn finish<M: FpgaManager, S: Scheduler>(sys: System<M, S>) -> Report {
    match sys.run_until(None).unwrap() {
        RunOutcome::Completed(r, _) => *r,
        RunOutcome::Crashed(_) => unreachable!("no crash scheduled"),
    }
}

#[test]
fn checkpointing_alone_never_perturbs_outcomes() {
    let baseline = build_dynload().run().unwrap();
    for interval_us in [300u64, 1_000, 5_000] {
        let cfg = CheckpointConfig::new(SimDuration::from_micros(interval_us));
        let r = finish(build_dynload().with_checkpoints(cfg).unwrap());
        let d = diff_reports(&baseline, &r);
        assert!(
            d.is_empty(),
            "checkpoints every {interval_us}us changed outcomes: {d:?}"
        );
        assert!(r.crash.checkpoints > 0, "cadence never fired");
        assert!(
            r.crash.checkpoint_time > SimDuration::ZERO,
            "checkpoint readback must cost port time"
        );
        assert_eq!(r.crash.crashes, 0);
    }
}

fn assert_restores_match<M: FpgaManager, S: Scheduler>(name: &str, build: fn() -> System<M, S>) {
    let baseline = build().run().unwrap();
    let mut crashed_somewhere = false;
    // High rate clusters crashes before the first checkpoint (cold
    // restarts); low rate spreads them mid-run (rich images). Both must
    // restore to identical outcomes.
    for (seed, rate) in (0..6u64).flat_map(|s| [(s, 400.0), (s, 60.0)]) {
        let plan = CrashPlan {
            seed,
            crash_rate_per_s: rate,
            max_crashes: 4,
        };
        let cfg = CheckpointConfig::new(SimDuration::from_micros(2_500));
        let r = run_with_crashes(build, cfg, plan).unwrap();
        crashed_somewhere |= r.crash.crashes > 0;
        let d = diff_reports(&baseline, &r);
        assert!(
            d.is_empty(),
            "{name} seed {seed}: restored run diverged: {d:?}"
        );
        assert_eq!(
            r.crash.silent_corruptions, 0,
            "{name} seed {seed}: journaled restore corrupted state"
        );
        assert!(r.tasks.iter().all(|t| !t.corrupted));
    }
    assert!(
        crashed_somewhere,
        "{name}: no seed ever crashed — dead test"
    );
}

#[test]
fn crashed_and_restored_runs_match_the_uninterrupted_baseline() {
    assert_restores_match("dynload", build_dynload);
    assert_restores_match("partition", build_partition);
}

#[test]
fn crash_restore_is_bit_reproducible() {
    let plan = CrashPlan {
        seed: 99,
        crash_rate_per_s: 500.0,
        max_crashes: 3,
    };
    let cfg = CheckpointConfig::new(SimDuration::from_micros(600));
    let a = run_with_crashes(build_dynload, cfg, plan).unwrap();
    let b = run_with_crashes(build_dynload, cfg, plan).unwrap();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn journal_off_restores_corrupt_silently() {
    // The ablation: identical crash schedules, journal replay disabled.
    // At least one seed must reach a stale residency claim and compute
    // garbage — otherwise the journal would be dead weight. And whenever
    // corruption happens, the differential verifier must see it.
    let baseline = build_dynload().run().unwrap();
    let mut corrupted_somewhere = false;
    for seed in 0..12u64 {
        let plan = CrashPlan {
            seed,
            crash_rate_per_s: 60.0,
            max_crashes: 4,
        };
        let cfg = CheckpointConfig::new(SimDuration::from_micros(2_500)).without_journal();
        let r = run_with_crashes(build_dynload, cfg, plan).unwrap();
        let d = diff_reports(&baseline, &r);
        if r.crash.silent_corruptions > 0 {
            corrupted_somewhere = true;
            assert!(
                d.iter().any(|x| x.field == "corrupted"),
                "seed {seed}: corruption not visible to the verifier"
            );
            assert!(r.tasks.iter().any(|t| t.corrupted));
        }
        // No journal means no replay accounting, ever.
        assert_eq!(r.crash.records_redone, 0);
        assert_eq!(r.crash.records_undone, 0);
        assert_eq!(r.crash.replay_time, SimDuration::ZERO);
    }
    assert!(
        corrupted_somewhere,
        "no seed produced silent corruption — the journal ablation proves nothing"
    );
}

#[test]
fn overhead_breakdown_tiles_total_overhead_under_crashes() {
    // Satellite regression: FaultStats + OverheadBreakdown (including the
    // new checkpoint and journal-replay slices) must sum *exactly* to the
    // grand total, across a random sweep of fault and crash policies.
    let mut lcg = 0xE16_u64;
    let mut next = move || {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        lcg >> 33
    };
    for case in 0..10u64 {
        let fault_plan = FaultPlan {
            seed: next(),
            download_corruption: (next() % 3) as f64 * 0.05,
            seu_rate_per_s: (next() % 4) as f64 * 50.0,
            column_failure_rate_per_s: 0.0,
        };
        let policy = RecoveryPolicy {
            scrub_interval: Some(SimDuration::from_millis(1 + next() % 3)),
            ..RecoveryPolicy::default()
        };
        let crash_plan = CrashPlan {
            seed: next(),
            crash_rate_per_s: 200.0 + (next() % 4) as f64 * 100.0,
            max_crashes: 1 + (next() % 3) as u32,
        };
        let cfg = CheckpointConfig::new(SimDuration::from_micros(400 + next() % 2000));
        let r = run_with_crashes(
            || build_partition().with_faults(fault_plan, policy),
            cfg,
            crash_plan,
        )
        .unwrap();
        let b = r.overhead_breakdown();
        assert_eq!(b.checkpoint, r.crash.checkpoint_time, "case {case}");
        assert_eq!(b.journal_replay, r.crash.replay_time, "case {case}");
        assert_eq!(
            b.total() + r.fault.background_time(),
            r.total_overhead(),
            "case {case}: breakdown does not tile the total ({fault_plan:?}, {crash_plan:?})"
        );
    }
}

#[test]
fn delta_checkpoints_cut_readback_without_changing_outcomes() {
    let cfg_full = CheckpointConfig::new(SimDuration::from_micros(500));
    let cfg_delta = cfg_full.with_delta_checkpoints(4);
    let full = finish(build_dynload().with_checkpoints(cfg_full).unwrap());
    let delta = finish(build_dynload().with_checkpoints(cfg_delta).unwrap());
    let d = diff_reports(&full, &delta);
    assert!(d.is_empty(), "delta capture changed outcomes: {d:?}");
    assert_eq!(
        delta.crash.checkpoints, full.crash.checkpoints,
        "delta mode must keep the capture cadence"
    );
    assert!(
        delta.crash.checkpoint_time < full.crash.checkpoint_time,
        "delta captures must read back less than full ones ({:?} vs {:?})",
        delta.crash.checkpoint_time,
        full.crash.checkpoint_time
    );
    // And the images still restore: crashed runs under delta capture
    // reach the same outcomes as the uninterrupted run.
    let baseline = build_dynload().run().unwrap();
    let mut crashed = false;
    for seed in 0..4u64 {
        let plan = CrashPlan {
            seed,
            crash_rate_per_s: 60.0,
            max_crashes: 3,
        };
        let r = run_with_crashes(build_dynload, cfg_delta, plan).unwrap();
        crashed |= r.crash.crashes > 0;
        let d = diff_reports(&baseline, &r);
        assert!(
            d.is_empty(),
            "seed {seed}: delta-ckpt restore diverged: {d:?}"
        );
    }
    assert!(crashed, "no seed crashed — restore path untested");
}

#[test]
fn delta_checkpoint_chain_anchors_on_full_images() {
    use fsim::TraceEvent;
    let k = 3u32;
    let cfg = CheckpointConfig::new(SimDuration::from_micros(400)).with_delta_checkpoints(k);
    let sys = build_dynload().with_checkpoints(cfg).unwrap().with_trace();
    let (r, trace) = match sys.run_until(None).unwrap() {
        RunOutcome::Completed(r, t) => (*r, t),
        RunOutcome::Crashed(_) => unreachable!("no crash scheduled"),
    };
    let mut chain = 0u32;
    let mut fulls = 0u64;
    let mut deltas = 0u64;
    for e in trace.entries() {
        match e.event {
            TraceEvent::CheckpointTaken { .. } => {
                fulls += 1;
                chain = 0;
            }
            TraceEvent::DeltaCheckpoint {
                chain: c,
                frames,
                full_frames,
                ..
            } => {
                deltas += 1;
                chain += 1;
                assert_eq!(c, chain, "chain counter must count from the last anchor");
                assert!(chain < k, "a chain of {chain} deltas missed its anchor");
                assert!(
                    frames <= full_frames,
                    "a delta capture ({frames}) cannot exceed the full image ({full_frames})"
                );
            }
            _ => {}
        }
    }
    assert_eq!(fulls + deltas, r.crash.checkpoints);
    assert!(fulls >= 2, "every k-th capture must anchor a full image");
    assert!(deltas > 0, "cadence never produced a delta capture");
}

#[test]
fn scrub_repair_forces_the_next_capture_full() {
    use fsim::TraceEvent;
    // k is huge: after the first image, full captures can only come from
    // the dirty-fabric flag a scrub repair raises. SEUs at a high rate
    // with fast scrubbing guarantee repairs happen mid-run.
    let fault_plan = FaultPlan {
        seed: 7,
        download_corruption: 0.0,
        seu_rate_per_s: 400.0,
        column_failure_rate_per_s: 0.0,
    };
    let policy = RecoveryPolicy {
        scrub_interval: Some(SimDuration::from_micros(800)),
        ..RecoveryPolicy::default()
    };
    let cfg = CheckpointConfig::new(SimDuration::from_micros(600)).with_delta_checkpoints(10_000);
    let sys = build_partition()
        .with_faults(fault_plan, policy)
        .with_checkpoints(cfg)
        .unwrap()
        .with_trace();
    let (r, trace) = match sys.run_until(None).unwrap() {
        RunOutcome::Completed(r, t) => (*r, t),
        RunOutcome::Crashed(_) => unreachable!("no crash scheduled"),
    };
    assert!(r.fault.repairs > 0, "no repair ever ran — dead test");
    let mut captures = 0u64;
    let mut repaired_since_capture = false;
    let mut fulls_after_repair = 0u64;
    for e in trace.entries() {
        match e.event {
            TraceEvent::Recovered { .. } => repaired_since_capture = true,
            TraceEvent::CheckpointTaken { .. } => {
                captures += 1;
                if captures > 1 {
                    assert!(
                        repaired_since_capture,
                        "full capture #{captures} without a repair since the last one \
                         (k=10000 rules out chain anchors)"
                    );
                    fulls_after_repair += 1;
                }
                repaired_since_capture = false;
            }
            TraceEvent::DeltaCheckpoint { .. } => {
                assert!(
                    !repaired_since_capture,
                    "delta capture over fabric a scrub repair rewrote — the image \
                     readback would miss the repaired frames"
                );
            }
            _ => {}
        }
    }
    assert!(
        fulls_after_repair > 0,
        "no repair was ever followed by a capture — the forcing path is untested"
    );
}

#[test]
fn zero_retry_budget_fails_immediately_without_spurious_retry() {
    // max_download_retries = 0 with certain corruption: the first corrupt
    // attempt exhausts the budget. The task fails at once and the retry
    // counter must stay at zero — a spurious "retry 0" would both lie in
    // the stats and burn backoff time.
    let (lib, ids) = lib4();
    let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
    let plan = FaultPlan {
        seed: 5,
        download_corruption: 1.0,
        ..FaultPlan::none()
    };
    let policy = RecoveryPolicy {
        max_download_retries: 0,
        ..RecoveryPolicy::default()
    };
    let r = System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(SimDuration::from_millis(2)),
        SystemConfig::default(),
        workload(&ids, 4),
    )
    .with_faults(plan, policy)
    .run()
    .unwrap();
    assert!(r.tasks.iter().all(|t| t.failed));
    assert_eq!(r.fault.tasks_failed, 4);
    assert_eq!(r.fault.retries, 0, "budget 0 must not schedule any retry");
    // The first (and only) wasted attempt per task is still real download
    // waste, and the breakdown must still carve it out exactly.
    assert!(r.fault.retry_time > SimDuration::ZERO);
    assert_eq!(r.overhead_breakdown().fault_retry, r.fault.retry_time);
}

#[test]
fn a_crashed_run_is_built_once() {
    // One crash before the first capture (a cold restart from time zero)
    // and three after it: every incarnation after the first is the
    // crashed system restarted in place, never a second build.
    let interval = SimDuration::from_micros(2_500);
    let plan = CrashPlan {
        seed: 3,
        crash_rate_per_s: 400.0,
        max_crashes: 4,
    };
    let times: Vec<_> = plan.crash_times().collect();
    let first_capture = fsim::SimTime::ZERO + interval;
    assert!(times[0] < first_capture, "a cold restart: {times:?}");
    assert!(times.iter().filter(|&&t| t > first_capture).count() >= 2);
    let builds = std::cell::Cell::new(0);
    let r = run_with_crashes(
        || {
            builds.set(builds.get() + 1);
            build_dynload()
        },
        CheckpointConfig::new(interval),
        plan,
    )
    .unwrap();
    assert_eq!(r.crash.crashes, 4, "every crash of the plan strikes");
    assert_eq!(builds.get(), 1, "built once a run");
    assert!(diff_reports(&build_dynload().run().unwrap(), &r).is_empty());
}
