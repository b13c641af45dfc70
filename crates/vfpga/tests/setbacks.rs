//! A task's setbacks — what only rollbacks, fault recovery and degradation
//! write of it — survive a checkpoint. One run writes all seven: sequential
//! ops rolled back on preemption (`rollbacks`, `lost_time`), downloads the
//! CRC rejects and retries (`dl_attempts`), upsets that poison a running
//! op until a scrub repairs the circuit and restarts it (`poisoned`,
//! `fault_restarts`, `fault_lost_time`), and ops emulated in software
//! (`degraded_time`).
//!
//! The run is cut every 5 ms. Each cut's image is rendered, and
//! restored both typed and through its durable form: the two restored
//! systems must print the same state and finish with the same report. (Not
//! the uninterrupted run's: a restore downloads again, and each download
//! draws from the corruption stream.) The rendered images, every setback column
//! of which holds a nonzero value in some row, and the uninterrupted
//! report are pinned by hash, as the build that still kept every setback
//! in the task slot wrote them.

mod common;

use common::{lib4, timing};
use fsim::json::Json;
use fsim::{FaultPlan, SimDuration, SimTime};
use std::collections::BTreeMap;
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::PreemptAction;
use vfpga::sched::RoundRobinScheduler;
use vfpga::system::{System, SystemConfig};
use vfpga::task::{Op, TaskSpec};
use vfpga::{AdmissionPolicy, CheckpointConfig, DegradationConfig, RecoveryPolicy, Report};

/// The task table's setback columns.
const SETBACKS: [&str; 7] = [
    "rollbacks",
    "dl_attempts",
    "fault_restarts",
    "poisoned",
    "lost_time",
    "fault_lost_time",
    "degraded_time",
];

/// FNV-1a hashes of every rendered image the cuts took, in cut order, and
/// of the uninterrupted report's `Debug` form.
const PINNED: (u64, u64) = (0x8438_de27_3727_2786, 0x5ca3_4492_6d0f_d172);

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// Dynamic loading under round-robin with rollback preemption, corrupt
/// downloads, upsets and a scrub, checkpoints, and an admission gate
/// that runs the parity circuit in software whenever it is not loaded.
fn build() -> System<DynLoadManager, RoundRobinScheduler> {
    let (lib, ids) = lib4();
    let [add, lfsr, par, ctr] = [ids[0], ids[1], ids[2], ids[3]];
    let run = |circuit, cycles| Op::FpgaRun { circuit, cycles };
    // Task 3's counter run outlasts the slice: rolled back while another
    // task is ready, it completes once none is.
    let specs = (0..8u64)
        .map(|i| {
            let long = if i == 3 { 5_000 } else { 1_000 };
            let ops = vec![
                Op::Cpu(us(100 + 20 * i)),
                run([lfsr, ctr][i as usize % 2], long + 100 * i),
                Op::Cpu(us(60)),
                run([par, add][i as usize % 2], 20_000),
                Op::Cpu(us(60)),
                run([ctr, lfsr][i as usize % 2], 1_200),
                Op::Cpu(us(80)),
            ];
            TaskSpec::new(format!("t{i}"), SimTime::ZERO + us(2000 * i), ops)
        })
        .collect();
    let preempt = PreemptAction::Rollback;
    let mgr = DynLoadManager::new(lib.clone(), timing(), preempt);
    let config = SystemConfig {
        preempt,
        ..Default::default()
    };
    let faults = FaultPlan {
        seed: 0x5E7B,
        download_corruption: 0.15,
        seu_rate_per_s: 1000.0,
        column_failure_rate_per_s: 0.0,
    };
    let recovery = RecoveryPolicy {
        scrub_interval: Some(us(2000)),
        retry_backoff: us(150),
        ..Default::default()
    };
    let admission = AdmissionPolicy {
        degradation: Some(DegradationConfig {
            watermark: 0.0,
            sw_ns_per_cycle: BTreeMap::from([(par.0, 20)]),
            ..Default::default()
        }),
        ..Default::default()
    };
    System::new(lib, mgr, RoundRobinScheduler::new(us(100)), config, specs)
        .with_admission(admission)
        .unwrap()
        .with_faults(faults, recovery)
        .with_checkpoints(CheckpointConfig::new(us(300)))
        .unwrap()
}

fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Whether a rendered cell holds something: a number above zero or a
/// poisoned op's valid progress.
fn nonzero(cell: &Json) -> bool {
    !matches!(cell, Json::Null | Json::UInt(0))
}

#[test]
fn every_setback_survives_a_checkpoint() {
    let baseline = build().run().expect("the uninterrupted run completes");
    let text = |r: &Report| format!("{r:?}");
    let (mut images, mut written) = (String::new(), [false; SETBACKS.len()]);
    let mut at = SimTime::ZERO;
    loop {
        at += us(5000);
        let Some(cut) = build().run_to_cut(Some(at)).unwrap() else {
            break; // the run was over by then
        };
        let durable = cut.to_durable();
        let Some(image) = &durable.image else {
            continue;
        };
        let rendered = image.state.render();
        images += &rendered;
        let columns = image.state.get("task_columns").expect("a header");
        let rows = image.state.get("tasks").expect("a task table");
        for (i, name) in SETBACKS.iter().enumerate() {
            let Json::Arr(columns) = columns else {
                panic!("the header is a list")
            };
            let col = columns.iter().position(|c| *c == Json::from(*name));
            let col = col.unwrap_or_else(|| panic!("no column '{name}'"));
            let Json::Arr(rows) = rows else {
                panic!("the task table is a list")
            };
            written[i] |= rows.iter().any(|row| match row {
                Json::Arr(cells) => nonzero(&cells[col]),
                _ => panic!("a row is a list"),
            });
        }
        let (mut typed, mut restored) = (build(), build());
        typed.restore_cut(cut).expect("the typed cut restores");
        restored
            .restore_from(&durable)
            .expect("the durable form restores");
        assert_eq!(
            typed.state_text(at),
            restored.state_text(at),
            "@{at}: the durable form restored another state"
        );
        let (typed, restored) = (typed.run().unwrap(), restored.run().unwrap());
        assert_eq!(
            text(&typed),
            text(&restored),
            "@{at}: the two finished apart"
        );
    }
    let missing: Vec<&str> = (0..SETBACKS.len())
        .filter(|&i| !written[i])
        .map(|i| SETBACKS[i])
        .collect();
    assert!(missing.is_empty(), "no image holds a nonzero {missing:?}");
    assert_eq!(
        (fnv(&images), fnv(&text(&baseline))),
        PINNED,
        "the rendered images, the report"
    );
}
