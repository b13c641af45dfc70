//! Additional whole-system scenario tests: every manager driven through
//! the discrete-event engine, scheduler interplay, and invariant checks
//! on the reports.

use crate::circuit::{CircuitId, CircuitLib};
use crate::manager::dynload::DynLoadManager;
use crate::manager::exclusive::ExclusiveManager;
use crate::manager::overlay::{OverlayManager, Replacement};
use crate::manager::partition::{PartitionManager, PartitionMode};
use crate::manager::PreemptAction;
use crate::sched::{FifoScheduler, PriorityScheduler, RoundRobinScheduler};
use crate::system::{System, SystemConfig};
use crate::task::{Op, TaskSpec};
use fpga::{ConfigPort, ConfigTiming};
use fsim::{SimDuration, SimTime};
use pnr::{compile, CompileOptions};
use std::sync::Arc;

pub(crate) fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

pub(crate) fn us(v: u64) -> SimDuration {
    SimDuration::from_micros(v)
}

/// The first `n` of an adder, an LFSR (sequential) and a parity tree, at
/// their natural shapes — for whole-device managers.
pub(crate) fn lib_mixed(n: usize) -> (Arc<CircuitLib>, Vec<CircuitId>) {
    use netlist::library::{arith, logic, seq};
    let nets = [
        arith::ripple_adder("add", 8),
        seq::lfsr("lfsr", 16, 0b1101_0000_0000_1000),
        logic::parity("par", 12),
    ];
    let mut lib = CircuitLib::new();
    let ids = nets[..n]
        .iter()
        .map(|net| lib.register_compiled(compile(net, CompileOptions::default()).unwrap()))
        .collect();
    (Arc::new(lib), ids)
}

pub(crate) fn lib_n(n: usize) -> (Arc<CircuitLib>, Vec<CircuitId>) {
    let spec = fpga::device::part("VF400");
    let mut lib = CircuitLib::new();
    let ids = (0..n)
        .map(|i| {
            let net = netlist::library::arith::array_multiplier(&format!("c{i}"), 4 + (i % 2));
            let opts = CompileOptions {
                max_height: spec.rows,
                full_height: true,
                seed: 0x5EED + i as u64,
                ..Default::default()
            };
            lib.register_compiled(compile(&net, opts).unwrap())
        })
        .collect();
    (Arc::new(lib), ids)
}

pub(crate) fn timing() -> ConfigTiming {
    ConfigTiming {
        spec: fpga::device::part("VF400"),
        port: ConfigPort::SerialFast,
    }
}

fn fpga_task(name: &str, at_ms: u64, cid: CircuitId, cycles: u64) -> TaskSpec {
    TaskSpec::new(
        name,
        SimTime::ZERO + ms(at_ms),
        vec![Op::FpgaRun {
            circuit: cid,
            cycles,
        }],
    )
}

/// Report-level invariant: useful + overhead + waiting == turnaround per
/// task, and makespan covers every completion.
fn check_invariants(r: &crate::metrics::Report) {
    for t in &r.tasks {
        let sum = t.cpu_time + t.fpga_time + t.overhead_time + t.lost_time + t.waiting();
        assert_eq!(
            sum,
            t.turnaround(),
            "accounting leak for '{}': parts {sum:?} vs turnaround {:?}",
            t.name,
            t.turnaround()
        );
        assert!(
            t.completion - SimTime::ZERO <= r.makespan,
            "completion beyond makespan"
        );
    }
}

#[test]
fn partition_system_reaches_steady_state_hits() {
    let (lib, ids) = lib_n(3);
    // 9 tasks reusing 3 circuits: after 3 cold loads everything hits.
    let specs: Vec<TaskSpec> = (0..9)
        .map(|i| fpga_task(&format!("t{i}"), i, ids[i as usize % 3], 20_000))
        .collect();
    let mgr = PartitionManager::new(
        lib.clone(),
        timing(),
        PartitionMode::Variable,
        PreemptAction::SaveRestore,
    )
    .unwrap();
    let routed = Arc::new(std::sync::Mutex::new(None));
    let seen = Arc::clone(&routed);
    let r = System::new(
        lib.clone(),
        mgr,
        RoundRobinScheduler::new(ms(5)),
        SystemConfig {
            preempt: PreemptAction::SaveRestore,
            ..Default::default()
        },
        specs,
    )
    .with_run_probe(move |m: &PartitionManager, queue| {
        *seen.lock().unwrap() = Some((m.route_stats(), queue));
    })
    .run()
    .unwrap();
    check_invariants(&r);
    assert_eq!(r.manager_stats.downloads, 3, "exactly the cold loads");
    assert_eq!(r.manager_stats.hits, 6);
    // The probe saw the manager as the run left it: each cold load
    // translated its circuit's template once, and nothing was searched.
    let (routed, queue) = routed.lock().unwrap().expect("probe ran");
    let conns: usize = ids
        .iter()
        .map(|&c| lib.get(c).route_template().connections())
        .sum();
    assert_eq!(routed.templated_conns, conns as u64);
    assert_eq!((routed.searched_conns, routed.failed_circuits), (0, 0));
    // And the queue's counters: the nine arrivals are read off the task
    // table, never queued, and one event at a time was in flight — the
    // segment end the kernel holds. Nine pending at the peak was the
    // build that preloaded the arrivals.
    assert_eq!(queue.peak_pending, 1, "{queue:?}");
    assert_eq!((queue.scheduled, queue.via_heap), (9, 0), "{queue:?}");
}

#[test]
fn overlay_system_runs_clean() {
    let (lib, ids) = lib_n(4);
    let widest = ids.iter().map(|&i| lib.get(i).shape().0).max().unwrap();
    let specs: Vec<TaskSpec> = (0..8)
        .map(|i| fpga_task(&format!("t{i}"), i, ids[i as usize % 4], 10_000))
        .collect();
    let mgr = OverlayManager::new(
        lib.clone(),
        timing(),
        vec![ids[0]],
        widest,
        Replacement::Lru,
    )
    .unwrap();
    let r = System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(ms(5)),
        SystemConfig {
            preempt: PreemptAction::SaveRestore,
            ..Default::default()
        },
        specs,
    )
    .run()
    .unwrap();
    check_invariants(&r);
    // The common circuit never downloads on use; others fault at least once.
    assert!(r.manager_stats.hits >= 2);
    assert!(r.manager_stats.misses >= 3);
}

#[test]
fn merged_system_has_only_boot_download() {
    let (lib, ids) = lib_n(3);
    let specs: Vec<TaskSpec> = (0..6)
        .map(|i| fpga_task(&format!("t{i}"), i, ids[i as usize % 3], 10_000))
        .collect();
    let mgr = OverlayManager::merged(lib.clone(), timing()).expect("three small circuits fit");
    let r = System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(ms(5)),
        SystemConfig::default(),
        specs,
    )
    .run()
    .unwrap();
    check_invariants(&r);
    assert_eq!(r.manager_stats.downloads, 1);
}

#[test]
fn priority_scheduler_orders_completions() {
    let (lib, ids) = lib_n(1);
    // Same arrival, different priorities; FIFO within the system otherwise.
    let mk = |name: &str, prio: u8| {
        TaskSpec::new(
            name,
            SimTime::ZERO,
            vec![
                Op::Cpu(ms(10)),
                Op::FpgaRun {
                    circuit: ids[0],
                    cycles: 10_000,
                },
            ],
        )
        .with_priority(prio)
    };
    let specs = vec![mk("low", 1), mk("high", 9), mk("mid", 5)];
    let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
    let r = System::new(
        lib,
        mgr,
        PriorityScheduler::new(None),
        SystemConfig::default(),
        specs,
    )
    .run()
    .unwrap();
    check_invariants(&r);
    let done = |name: &str| {
        r.tasks
            .iter()
            .find(|t| &*t.name == name)
            .unwrap()
            .completion
    };
    assert!(done("high") < done("mid"));
    assert!(done("mid") < done("low"));
}

#[test]
fn exclusive_under_fifo_behaves_like_serial_execution() {
    let (lib, ids) = lib_n(2);
    let specs = vec![
        fpga_task("a", 0, ids[0], 50_000),
        fpga_task("b", 0, ids[1], 50_000),
    ];
    let mgr = ExclusiveManager::new(lib.clone(), timing());
    let r = System::new(
        lib.clone(),
        mgr,
        FifoScheduler::new(),
        SystemConfig::default(),
        specs,
    )
    .run()
    .unwrap();
    check_invariants(&r);
    // Serial: b's completion is at least a's completion + b's own work.
    let a_done = r.tasks[0].completion;
    let b_done = r.tasks[1].completion;
    assert!(b_done > a_done);
    assert_eq!(r.manager_stats.downloads, 2);
}

#[test]
fn blocked_tasks_do_not_deadlock_with_many_waiters() {
    // Many tasks demand the same busy partition circuit; all must finish.
    let (lib, ids) = lib_n(1);
    let specs: Vec<TaskSpec> = (0..12)
        .map(|i| fpga_task(&format!("t{i}"), 0, ids[0], 30_000))
        .collect();
    let mgr = PartitionManager::new(
        lib.clone(),
        timing(),
        PartitionMode::Variable,
        PreemptAction::SaveRestore,
    )
    .unwrap();
    let r = System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(ms(1)),
        SystemConfig {
            preempt: PreemptAction::SaveRestore,
            ..Default::default()
        },
        specs,
    )
    .run()
    .unwrap();
    check_invariants(&r);
    assert_eq!(r.tasks.len(), 12);
    assert_eq!(r.manager_stats.downloads, 1, "one circuit, one load");
}

#[test]
fn zero_cycle_fpga_op_completes_immediately() {
    let (lib, ids) = lib_n(1);
    let specs = vec![TaskSpec::new(
        "z",
        SimTime::ZERO,
        vec![
            Op::FpgaRun {
                circuit: ids[0],
                cycles: 0,
            },
            Op::Cpu(ms(1)),
        ],
    )];
    let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
    let r = System::new(
        lib,
        mgr,
        FifoScheduler::new(),
        SystemConfig::default(),
        specs,
    )
    .run()
    .unwrap();
    check_invariants(&r);
    assert_eq!(r.tasks[0].fpga_time, SimDuration::ZERO);
    assert_eq!(r.tasks[0].cpu_time, ms(1));
}

#[test]
fn staggered_arrivals_with_partitions_and_estimates() {
    let (lib, ids) = lib_n(3);
    let specs: Vec<TaskSpec> = (0..6)
        .map(|i| {
            TaskSpec::new(
                format!("t{i}"),
                SimTime::ZERO + ms(i * 3),
                vec![
                    Op::Cpu(ms(1)),
                    Op::FpgaRun {
                        circuit: ids[i as usize % 3],
                        cycles: 40_000,
                    },
                    Op::Cpu(ms(1)),
                ],
            )
        })
        .collect();
    let mgr = PartitionManager::new(
        lib.clone(),
        timing(),
        PartitionMode::Variable,
        PreemptAction::SaveRestore,
    )
    .unwrap();
    let r = System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(ms(4)),
        SystemConfig {
            preempt: PreemptAction::SaveRestore,
            completion: crate::system::CompletionDetect::Estimate { factor: 1.2 },
        },
        specs,
    )
    .run()
    .unwrap();
    check_invariants(&r);
    // The 20% estimate slack must appear as overhead on every FPGA task.
    for t in &r.tasks {
        assert!(
            t.overhead_time > SimDuration::ZERO,
            "{} missing estimate slack",
            t.name
        );
    }
}

#[test]
fn traced_run_records_lifecycle_events() {
    let (lib, ids) = lib_n(2);
    // Long ops + a small slice: a gets preempted mid-op while still owning
    // its partition, so b's activation of the same circuit must block.
    let specs = vec![
        fpga_task("a", 0, ids[0], 500_000),
        fpga_task("b", 0, ids[0], 500_000),
    ];
    let mgr = PartitionManager::new(
        lib.clone(),
        timing(),
        PartitionMode::Variable,
        PreemptAction::SaveRestore,
    )
    .unwrap();
    let (r, trace) = System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(ms(2)),
        SystemConfig {
            preempt: PreemptAction::SaveRestore,
            ..Default::default()
        },
        specs,
    )
    .with_trace()
    .run_traced()
    .unwrap();
    check_invariants(&r);
    assert_eq!(trace.with_tag("arrive").count(), 2);
    assert_eq!(trace.with_tag("done").count(), 2);
    assert!(trace.with_tag("dispatch").count() >= 2);
    assert!(
        trace.with_tag("block").count() >= 1,
        "b must block on a's circuit"
    );
    // Timestamps are nondecreasing in emission order.
    let entries: Vec<_> = trace.entries().collect();
    for w in entries.windows(2) {
        assert!(w[0].at <= w[1].at);
    }
}

#[test]
fn untraced_run_records_nothing() {
    let (lib, ids) = lib_n(1);
    let specs = vec![fpga_task("a", 0, ids[0], 10_000)];
    let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
    let r = System::new(
        lib,
        mgr,
        FifoScheduler::new(),
        SystemConfig::default(),
        specs,
    )
    .run()
    .unwrap();
    check_invariants(&r);
    // run() drops the (disabled, empty) trace internally; nothing to assert
    // beyond the system still completing — this guards the plumbing.
    assert_eq!(r.tasks.len(), 1);
}

/// Property-style accounting check for `fail_over_cut`: across seeds and
/// cut instants, the receipt's fields exactly partition the crashed
/// shard's journal. A capture ends the records it covers, so every WAL
/// record the cut carries follows the restored image, and is either (a)
/// committed by the crash (carried implicitly — its download survives in
/// no fabric, so it becomes a migrated claim or a cold re-download), or
/// (b) torn mid-flight, counted in `torn_undone`. The redo window and
/// live-task count must match an independent recomputation from the
/// `CrashState` alone.
#[test]
fn failover_receipt_partitions_the_source_journal() {
    let (lib, ids) = lib_n(3);
    let mut crashed_cases = 0u32;
    for seed in 0..4u64 {
        for cut_ms in [2u64, 3, 5, 8] {
            let specs: Vec<TaskSpec> = (0..6u32)
                .map(|i| {
                    fpga_task(
                        &format!("fo{seed}_{i}"),
                        u64::from(i) + seed % 3,
                        ids[((u64::from(i) + seed) % ids.len() as u64) as usize],
                        90_000 + 40_000 * ((u64::from(i) + seed) % 3),
                    )
                    .with_tenant(i % 2)
                })
                .collect();
            let build = |specs: &[TaskSpec]| {
                let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
                System::new(
                    lib.clone(),
                    mgr,
                    RoundRobinScheduler::new(ms(2)),
                    SystemConfig::default(),
                    specs.to_vec(),
                )
                .with_checkpoints(crate::checkpoint::CheckpointConfig::new(ms(1)))
                .expect("dynload + round-robin both support snapshots")
            };
            let cut = SimTime::ZERO + ms(cut_ms);
            let state = match build(&specs).run_until(Some(cut)).unwrap() {
                crate::checkpoint::RunOutcome::Crashed(s) => *s,
                // The whole workload finished before this cut instant;
                // nothing to fail over. Other (seed, cut) cells cover it.
                crate::checkpoint::RunOutcome::Completed(..) => continue,
            };
            crashed_cases += 1;

            // Ground truth recomputed from the CrashState alone.
            let captured_at = state.image.as_ref().map_or(SimTime::ZERO, |i| i.at);
            for r in &state.wal {
                assert!(
                    r.at >= captured_at,
                    "seed {seed} cut {cut_ms}ms: {r:?} precedes its capture \
                     at {captured_at:?}, which covers it"
                );
            }
            let torn = state
                .wal
                .iter()
                .filter(|r| r.in_flight_at(state.at))
                .count() as u32;
            let committed = state
                .wal
                .iter()
                .filter(|r| !r.in_flight_at(state.at))
                .count() as u32;
            // Partition: every journal record is committed or torn —
            // nothing is double-counted.
            assert_eq!(
                committed + torn,
                state.wal.len() as u32,
                "seed {seed} cut {cut_ms}ms: journal partition leaks records"
            );
            let expect_redo = state.at - captured_at;

            let mut dst = build(&specs);
            let cut = crate::checkpoint::Cut::from_durable(&state).unwrap();
            let receipt = dst.fail_over_cut(cut).unwrap();
            assert_eq!(
                receipt.torn_undone, torn,
                "seed {seed} cut {cut_ms}ms: torn count must equal the \
                 in-flight post-checkpoint records"
            );
            assert_eq!(
                receipt.redo_window, expect_redo,
                "seed {seed} cut {cut_ms}ms: redo window must span crash \
                 minus restored checkpoint (whole run when cold)"
            );
            let live: u32 = (0..2).map(|t| dst.live_tasks_of(t)).sum();
            assert_eq!(
                receipt.live_tasks, live,
                "seed {seed} cut {cut_ms}ms: receipt live tasks must match \
                 the per-tenant live count on the destination"
            );
            assert!(
                receipt.migrated_claims as usize <= ids.len(),
                "dynload holds at most one claim per circuit"
            );

            // The destination must finish every carried task, and its
            // final crash counters must show exactly the torn records as
            // undone on top of the source's tally (no replays happen
            // after a single failover).
            let report = match dst.run_until(None).unwrap() {
                crate::checkpoint::RunOutcome::Completed(r, _) => *r,
                crate::checkpoint::RunOutcome::Crashed(_) => {
                    unreachable!("run_until(None) never crashes")
                }
            };
            check_invariants(&report);
            assert_eq!(
                report.crash.records_undone,
                state.stats.records_undone + u64::from(torn),
                "seed {seed} cut {cut_ms}ms: undone tally must grow by \
                 exactly the torn records"
            );
            for t in &report.tasks {
                assert!(
                    t.failed || t.completion >= SimTime::ZERO,
                    "carried task left unfinished"
                );
            }
        }
    }
    assert!(
        crashed_cases >= 8,
        "property needs real crash coverage; only {crashed_cases} cells cut"
    );
}

/// The report writes each row over its spec and moves the name in: a
/// row's name is the very allocation its spec (and every copy) holds.
#[test]
fn report_rows_share_their_specs_names() {
    let (lib, ids) = lib_mixed(2);
    let specs: Vec<TaskSpec> = (0..4)
        .map(|i| fpga_task(&format!("t{i}"), i, ids[i as usize % 2], 5_000))
        .collect();
    let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::WaitCompletion);
    let config = SystemConfig::default();
    let r = System::new(lib, mgr, FifoScheduler::new(), config, specs.clone())
        .run()
        .unwrap();
    assert_eq!(r.tasks.len(), specs.len());
    for (row, spec) in r.tasks.iter().zip(&specs) {
        assert!(Arc::ptr_eq(&row.name, &spec.name), "{}", spec.name);
    }
}

#[test]
fn latency_profile_keeps_every_tenant_series() {
    // The per-tenant series are recorded after the report's rows have
    // taken the spec table over, from the tenant ids read before it. Four
    // tenants of uneven size (8, 8, 7, 7 tasks); every series' count and
    // maximum were written from the build that still read the specs.
    let (lib, ids) = lib_mixed(3);
    let specs = (0..30u64)
        .map(|i| {
            let (circuit, cycles) = (ids[i as usize % 3], 20_000 + 3_000 * i);
            let ops = [Op::FpgaRun { circuit, cycles }, Op::Cpu(us(300 + 50 * i))];
            TaskSpec::new(format!("t{i}"), SimTime::ZERO + ms(i), ops).with_tenant(i as u32 % 4)
        })
        .collect();
    let preempt = PreemptAction::SaveRestore;
    let mgr = DynLoadManager::new(lib.clone(), timing(), preempt);
    let config = SystemConfig {
        preempt,
        ..Default::default()
    };
    let r = System::new(lib, mgr, RoundRobinScheduler::new(ms(1)), config, specs)
        .with_latency_profile()
        .run()
        .unwrap();
    let lat = r.latency.expect("profiled");
    let series: Vec<(&str, u64, u64)> = lat
        .iter()
        .filter(|(label, _)| label.contains("@t"))
        .map(|(label, h)| (label, h.count(), h.max_ns()))
        .collect();
    assert_eq!(
        series,
        [
            ("turnaround@t0", 8, 187_682_000),
            ("turnaround@t1", 8, 185_330_000),
            ("turnaround@t2", 7, 187_980_000),
            ("turnaround@t3", 7, 190_780_000),
            ("waiting@t0", 8, 175_582_000),
            ("waiting@t1", 8, 170_902_000),
            ("waiting@t2", 7, 179_071_000),
            ("waiting@t3", 7, 182_345_000),
        ]
    );
}

/// Events a 2,000-task `stream`-shaped run schedules, pinned by the build
/// that still scheduled every segment end through the queue (39,588):
/// holding the segment end outside it neither adds nor elides an event,
/// and the 2,000 arrivals, read off the task table, are no longer
/// scheduled.
const STREAM_SHAPED_EVENTS: u64 = 37_588;

/// `stream` scaled down to 2,000 tasks: Poisson arrivals at load ~0.73,
/// each task four FPGA runs between CPU bursts, on dynamic loading under
/// round-robin with a 10 ms slice, state saved and restored on preemption.
/// The runs are longer than `stream`'s, so that runs of the sequential
/// circuit outlast the slice and their preemptions save state.
fn stream_shaped(tasks: usize) -> System<DynLoadManager, RoundRobinScheduler> {
    let (lib, ids) = lib_mixed(3);
    let mut rng = fsim::SimRng::new(0x57AE);
    let mut at = SimTime::ZERO;
    let burst = |rng: &mut fsim::SimRng| SimDuration::from_secs_f64(rng.exp(2e-3).max(1e-6));
    let specs = (0..tasks)
        .map(|i| {
            at += SimDuration::from_secs_f64(rng.exp(0.2));
            let mut ops = vec![Op::Cpu(burst(&mut rng))];
            for _ in 0..4 {
                ops.push(Op::FpgaRun {
                    circuit: *rng.choose(&ids),
                    cycles: rng.range_u64(60_000, 3_000_000),
                });
                ops.push(Op::Cpu(burst(&mut rng)));
            }
            TaskSpec::new(format!("t{i}"), at, ops)
        })
        .collect();
    let preempt = PreemptAction::SaveRestore;
    let mgr = DynLoadManager::new(lib.clone(), timing(), preempt);
    let config = SystemConfig {
        preempt,
        ..Default::default()
    };
    System::new(lib, mgr, RoundRobinScheduler::new(ms(10)), config, specs)
}

#[test]
fn segment_ends_never_enter_the_heap() {
    // The gate on the kernel's event traffic. Seeded violation: schedule
    // the segment end back through the queue in `System::schedule`
    // (`self.queue.schedule_at(at, ev)` for `Ev::Timer` too). Then every
    // event of the run goes through the heap: `via_heap` jumps to 37,588,
    // forty times the preemptions.
    let seen = Arc::new(std::sync::Mutex::new(None));
    let probe = Arc::clone(&seen);
    let r = stream_shaped(2000)
        .with_run_probe(move |_, queue| *probe.lock().unwrap() = Some(queue))
        .run()
        .unwrap();
    check_invariants(&r);
    let busy: f64 = r
        .tasks
        .iter()
        .map(|t| (t.cpu_time + t.fpga_time + t.overhead_time).as_secs_f64())
        .sum();
    let load = busy / r.makespan.as_secs_f64();
    assert!((0.6..0.9).contains(&load), "load {load:.2}");
    let queue = seen.lock().unwrap().expect("probe ran");
    assert_eq!(queue.scheduled, STREAM_SHAPED_EVENTS, "{queue:?}");
    // A preemption that saves state dispatches the next task once the
    // save is through: the one event of this run that may use the heap.
    let preemptions = r.manager_stats.state_saves;
    assert!(preemptions > 100, "{preemptions} preemptions");
    assert!(
        queue.via_heap <= preemptions,
        "{queue:?}, {preemptions} preemptions"
    );
    // The census, counted exactly: a change to the kernel's event traffic
    // must move it on purpose. A task fires its arrival and one segment end
    // a slice of each of its nine ops (the floor: ten events a task); the
    // manager is asked once a dispatch of an FPGA slice. Here a task takes
    // 19.8 events, 18.3 of them segment ends: the runs are longer than
    // `stream`'s.
    let tasks = r.tasks.len() as u64;
    let census = (
        tasks + queue.scheduled,
        queue.scheduled - queue.via_heap,
        queue.via_heap,
        r.manager_stats.hits + r.manager_stats.misses,
    );
    assert_eq!(
        census,
        (39_588, 36_658, 930, 26_585),
        "events, segment ends, heap events, activations"
    );
    assert!(census.0 >= 10 * tasks, "fewer events than arrivals and ops");
}
