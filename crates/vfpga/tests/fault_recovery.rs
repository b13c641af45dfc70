//! Property tests for the fault-injection/recovery subsystem.
//!
//! Three guarantees worth pinning down:
//!
//! 1. a zero-rate [`FaultPlan`] attached to a system is *exactly* a no-op —
//!    the report is byte-identical to a run without any injector;
//! 2. under recoverable fault rates every task terminates: completed or
//!    explicitly failed, never hung ([`System::run`] returns `Ok`, and a
//!    stranded task would surface as `VfpgaError::Deadlock`);
//! 3. a fault-injected run is bit-reproducible: same seed, same report.

mod common;

use common::{lib4, partition_system, timing, workload};
use fsim::SimDuration;
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::PreemptAction;
use vfpga::sched::RoundRobinScheduler;
use vfpga::system::{System, SystemConfig};
use vfpga::{FaultPlan, RecoveryPolicy, Report, UpsetRecovery};

fn run_partition(faults: Option<(FaultPlan, RecoveryPolicy)>) -> Report {
    let (lib, ids) = lib4();
    let sched = RoundRobinScheduler::new(SimDuration::from_millis(2));
    let mut sys = partition_system(lib, sched, workload(&ids, 8));
    if let Some((plan, policy)) = faults {
        sys = sys.with_faults(plan, policy);
    }
    sys.run().unwrap()
}

#[test]
fn zero_rate_plan_is_byte_identical_to_no_injector() {
    let baseline = run_partition(None);
    for seed in [0u64, 7, 991] {
        let plan = FaultPlan {
            seed,
            ..FaultPlan::none()
        };
        let r = run_partition(Some((plan, RecoveryPolicy::default())));
        assert_eq!(
            format!("{baseline:?}"),
            format!("{r:?}"),
            "zero-rate plan (seed {seed}) perturbed the run"
        );
        assert!(!r.fault.any_faults());
    }
}

#[test]
fn every_task_terminates_under_recoverable_faults() {
    for seed in 0..12u64 {
        let plan = FaultPlan {
            seed,
            download_corruption: 0.2,
            seu_rate_per_s: 300.0,
            column_failure_rate_per_s: 0.0,
        };
        let policy = RecoveryPolicy {
            scrub_interval: Some(SimDuration::from_millis(1)),
            upset_recovery: if seed % 2 == 0 {
                UpsetRecovery::Rollback
            } else {
                UpsetRecovery::SaveRestore
            },
            ..RecoveryPolicy::default()
        };
        // `run` errors with Deadlock if any task neither completed nor
        // failed; unwrapping *is* the termination assertion.
        let r = run_partition(Some((plan, policy)));
        let failed = r.tasks.iter().filter(|t| t.failed).count();
        let done = r.tasks.len() - failed;
        assert_eq!(done + failed, 8);
        for t in &r.tasks {
            assert!(
                t.completion >= t.arrival,
                "task {} has no termination instant",
                t.name
            );
        }
    }
}

#[test]
fn column_failures_degrade_gracefully() {
    // Permanent column failures retire capacity mid-run; tasks whose
    // requests become unservable must fail explicitly, the rest complete.
    for seed in [3u64, 17, 42] {
        let plan = FaultPlan {
            seed,
            column_failure_rate_per_s: 40.0,
            ..FaultPlan::none()
        };
        let r = run_partition(Some((plan, RecoveryPolicy::default())));
        for t in &r.tasks {
            assert!(t.completion >= t.arrival);
        }
        // Accounting stays coherent even when columns disappeared.
        if r.fault.columns_retired > 0 {
            assert!(r.fault.column_faults >= r.fault.columns_retired);
        }
    }
}

#[test]
fn fault_injected_runs_are_bit_reproducible() {
    let plan = FaultPlan {
        seed: 12345,
        download_corruption: 0.15,
        seu_rate_per_s: 200.0,
        column_failure_rate_per_s: 5.0,
    };
    let policy = RecoveryPolicy {
        scrub_interval: Some(SimDuration::from_millis(2)),
        ..RecoveryPolicy::default()
    };
    let a = run_partition(Some((plan, policy)));
    let b = run_partition(Some((plan, policy)));
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    // And a different seed actually changes something (the plan is live).
    let other = FaultPlan {
        seed: 54321,
        ..plan
    };
    let c = run_partition(Some((other, policy)));
    assert_ne!(
        format!("{a:?}"),
        format!("{c:?}"),
        "different fault seeds should diverge under these rates"
    );
}

#[test]
fn retries_exhaust_into_explicit_failure() {
    // Certain corruption: every download fails its CRC, so every FPGA
    // task must exhaust its retries and fail — and the run still ends.
    let (lib, ids) = lib4();
    let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
    let plan = FaultPlan {
        seed: 1,
        download_corruption: 1.0,
        ..FaultPlan::none()
    };
    let r = System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(SimDuration::from_millis(2)),
        SystemConfig::default(),
        workload(&ids, 4),
    )
    .with_faults(plan, RecoveryPolicy::default())
    .run()
    .unwrap();
    assert_eq!(r.fault.tasks_failed, 4, "all FPGA tasks exhaust retries");
    assert!(r.tasks.iter().all(|t| t.failed));
    assert!(r.fault.retries > 0);
    assert!(r.fault.retry_time > SimDuration::ZERO);
    // Retry download waste is carved out of config in the breakdown.
    let b = r.overhead_breakdown();
    assert_eq!(b.fault_retry, r.fault.retry_time);
    assert_eq!(b.total(), r.overhead_time());
}
