//! A cut adopted typed and a cut adopted through its durable form are the
//! same cut — at every event instant of a run, not at sampled ones.
//!
//! One traced run of a small workload lists every instant at which the
//! system did anything. The run is cut at each such instant `t` (between
//! the arrivals at `t` and what they cause) and at `t + 1 ns` (after
//! everything at `t`), and every cut is adopted all three ways — restored
//! on its own device, failed over onto a fresh one, and split by a live
//! migration of one tenant — twice each: as the typed [`Cut`] the fleet
//! and the crash loop hand on inside one process, and through
//! [`Cut::to_durable`] and [`Cut::from_durable`] (the restore through the
//! public `&CrashState` entry point). Every
//! adoption must finish with the per-task outcomes of the uninterrupted
//! run, and the two forms must finish with the same [`Report`], field for
//! field (and hand back the same receipts).
//!
//! A fourth adoption is the one the crash loop and the fleet make: the cut
//! system itself, restarted in place, restored and failed over. Right
//! after the restart its whole state must read as a freshly built
//! system's that adopted the same cut, and under tracing both must finish
//! with the same report, trace and event-queue counters. One more cell
//! holds only this adoption, over a build whose run derives more from it:
//! admission vectors, a latency set over a small trace ring, and seeded
//! fault streams.
//!
//! The small matrix runs in Tier-1; `ci.sh` runs the wide one
//! (`--ignored`) under `--release`.

mod common;

use common::{four_ops, lib4, timing};
use fsim::json::Json;
use fsim::{FaultPlan, QueueStats, SimDuration, SimTime, Trace};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use vfpga::checkpoint::Cut;
use vfpga::circuit::{CircuitId, CircuitLib};
use vfpga::manager::dynload::DynLoadManager;
use vfpga::manager::partition::{PartitionManager, PartitionMode};
use vfpga::manager::PreemptAction;
use vfpga::sched::{EdfScheduler, RoundRobinScheduler};
use vfpga::system::{System, SystemConfig};
use vfpga::task::TaskSpec;
use vfpga::{
    diff_reports, AdmissionPolicy, CheckpointConfig, CrashState, FpgaManager, RecoveryPolicy,
    Report, Scheduler,
};

const TENANTS: u32 = 3;

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

/// `n` tasks 150 µs apart over three tenants, task `i` on circuit `i mod
/// 4`, each with a deadline for EDF to order by.
fn specs(ids: &[CircuitId], n: usize) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            let at = SimTime::ZERO + us(i as u64 * 150);
            TaskSpec::new(format!("t{i}"), at, four_ops(ids[i % ids.len()]))
                .with_tenant(i as u32 % TENANTS)
                .with_deadline(SimDuration::from_millis(40))
        })
        .collect()
}

const SAVE_RESTORE: SystemConfig = SystemConfig {
    preempt: PreemptAction::SaveRestore,
    completion: vfpga::system::CompletionDetect::Exact,
};

fn dynload(lib: &Arc<CircuitLib>) -> (DynLoadManager, CheckpointConfig) {
    let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
    (mgr, CheckpointConfig::new(us(1000)))
}

/// Variable partitions with delta downloads, under delta checkpoints.
fn partition_delta(lib: &Arc<CircuitLib>) -> (PartitionManager, CheckpointConfig) {
    let (mode, preempt) = (PartitionMode::Variable, PreemptAction::SaveRestore);
    let mut mgr = PartitionManager::new(lib.clone(), timing(), mode, preempt).unwrap();
    mgr.enable_delta();
    (
        mgr,
        CheckpointConfig::new(us(1000)).with_delta_checkpoints(3),
    )
}

fn run<M: FpgaManager, S: Scheduler>(sys: System<M, S>) -> Report {
    sys.run().expect("an adopted run completes")
}

/// A report as text: `Report` has no `PartialEq`, its `Debug` form has
/// every field.
fn text(r: &Report) -> String {
    format!("{r:?}")
}

/// A cut adopted one way, run to completion: the report (for a migration,
/// the tenant's rows from the destination over the remainder's report)
/// and what the adoption handed back.
struct Adopted {
    report: Report,
    receipt: String,
}

/// The two forms of one cut, and how each is adopted.
enum Form<'a> {
    Typed(&'a Cut),
    Durable(&'a CrashState),
}

impl Form<'_> {
    fn restore<M: FpgaManager, S: Scheduler>(&self, sys: &mut System<M, S>) {
        match self {
            Form::Typed(cut) => sys.restore_cut((*cut).clone()),
            Form::Durable(state) => sys.restore_from(state),
        }
        .expect("the cut restores");
    }

    fn fail_over<M: FpgaManager, S: Scheduler>(&self, mut sys: System<M, S>) -> Adopted {
        let receipt = match self {
            Form::Typed(cut) => sys.fail_over_cut((*cut).clone()),
            Form::Durable(state) => Cut::from_durable(state).and_then(|cut| sys.fail_over_cut(cut)),
        }
        .expect("the cut fails over");
        Adopted {
            receipt: format!("{receipt:?}"),
            report: run(sys),
        }
    }

    /// The fleet's commit path in small: the remainder restores the cut
    /// (made at `at`, its image captured at `resume`) and gives up its
    /// lowest tenant with live work, the destination adopts that tenant
    /// from the same cut.
    fn migrate<M: FpgaManager, S: Scheduler>(
        &self,
        (mut rem, mut dst): (System<M, S>, System<M, S>),
        specs: &[TaskSpec],
        (at, resume): (SimTime, SimTime),
        delta: bool,
    ) -> Adopted {
        self.restore(&mut rem);
        let tenant = (0..TENANTS)
            .find(|&t| rem.live_tasks_of(t) > 0)
            .expect("a cut system has live work");
        let receipt = match self {
            Form::Typed(cut) => dst.migrate_in_cut((*cut).clone(), tenant, delta),
            Form::Durable(state) => {
                Cut::from_durable(state).and_then(|cut| dst.migrate_in_cut(cut, tenant, delta))
            }
        }
        .expect("the destination adopts the tenant");
        let manifest = rem.extract_tenant(tenant, at, resume, true);
        let (mut report, moved) = (run(rem), run(dst));
        let receipt = format!("{receipt:?} {manifest:?} {}", text(&moved));
        for ((row, theirs), spec) in report.tasks.iter_mut().zip(moved.tasks).zip(specs) {
            if spec.tenant == tenant {
                *row = theirs;
            }
        }
        Adopted { report, receipt }
    }
}

/// `sys`, which records a trace, with its event queue's counters read out
/// at the end.
fn traced<M: FpgaManager, S: Scheduler>(sys: System<M, S>) -> Traced<M, S> {
    let queue = Arc::new(Mutex::new(None));
    let seen = Arc::clone(&queue);
    let sys = sys.with_run_probe(move |_, stats| *seen.lock().unwrap() = Some(stats));
    Traced { sys, queue }
}

/// A traced system and where its run probe leaves the queue's counters.
struct Traced<M: FpgaManager, S: Scheduler> {
    sys: System<M, S>,
    queue: Arc<Mutex<Option<QueueStats>>>,
}

impl<M: FpgaManager, S: Scheduler> Traced<M, S> {
    /// Adopt `cut` typed: restore it, or fail it over.
    fn adopt(&mut self, failover: bool, cut: Cut) {
        let sys = &mut self.sys;
        match failover {
            false => sys.restore_cut(cut),
            true => sys.fail_over_cut(cut).map(drop),
        }
        .expect("the cut adopts");
    }

    /// Run to completion: the report, the trace, the queue counters.
    fn finish(self) -> (Report, Trace, QueueStats) {
        let (report, trace) = self.sys.run_traced().expect("an adopted run completes");
        let queue = self.queue.lock().unwrap().take().expect("the probe ran");
        (report, trace, queue)
    }
}

/// The cut system restarted in place against a fresh build, both adopting
/// the cut `build`'s run (which records a trace) makes at `at` (if the run
/// is not over by then), restored and failed over: the same state right
/// after the adoption, then the same report, trace and queue counters, and
/// the uninterrupted run's (`baseline`'s) outcomes.
fn restart_matches_a_fresh_build<M: FpgaManager, S: Scheduler>(
    label: &str,
    at: SimTime,
    baseline: &Report,
    build: impl Fn() -> System<M, S>,
) {
    for (how, failover) in [("restore", false), ("failover", true)] {
        let mut cut_sys = traced(build());
        let Some(cut) = cut_sys.sys.run_to_cut(Some(at)).unwrap() else {
            return;
        };
        let mut fresh = traced(build());
        fresh.adopt(failover, cut.clone());
        cut_sys.adopt(failover, cut);
        let (got, want) = (cut_sys.sys.state_text(at), fresh.sys.state_text(at));
        let first_difference = got.lines().zip(want.lines()).find(|(g, w)| g != w);
        assert!(
            got == want,
            "{label} @{at} {how}: the restarted system is not the fresh build's: {first_difference:?}"
        );
        let (report, trace, queue) = cut_sys.finish();
        let diverged = diff_reports(baseline, &report);
        assert!(
            diverged.is_empty(),
            "{label} @{at} {how}: the restart diverged from the uninterrupted run: {diverged:?}"
        );
        let (want, want_trace, want_queue) = fresh.finish();
        let what = format!("{label} @{at} {how}: the restart finished differently");
        assert_eq!(text(&report), text(&want), "{what}: report");
        assert_eq!(
            format!("{trace:?}"),
            format!("{want_trace:?}"),
            "{what}: trace"
        );
        assert_eq!(queue, want_queue, "{what}: queue counters");
    }
}

/// How many cuts a sweep made and adopted.
#[derive(Default)]
struct Tally {
    cuts: usize,
    with_image: usize,
}

/// Cut `build`'s run at every event instant and just after it, adopt each
/// cut every way in both forms and restarted in place, and compare.
fn sweep<M: FpgaManager, S: Scheduler>(
    label: &str,
    specs: &[TaskSpec],
    delta: bool,
    build: impl Fn() -> System<M, S>,
) -> Tally {
    let (baseline, trace) = build().with_trace().run_traced().unwrap();
    let traced = || build().with_trace();
    let mut tally = Tally::default();
    for at in instants(&trace) {
        let Some(cut) = build().run_to_cut(Some(at)).unwrap() else {
            continue; // the run was over by then
        };
        let durable = cut.to_durable();
        tally.cuts += 1;
        tally.with_image += usize::from(durable.image.is_some());
        let resume = durable.image.as_ref().map_or(SimTime::ZERO, |i| i.at);
        let adopt_all = |form: Form<'_>| {
            let mut restored = build();
            form.restore(&mut restored);
            [
                Adopted {
                    report: run(restored),
                    receipt: String::new(),
                },
                form.fail_over(build()),
                form.migrate((build(), build()), specs, (at, resume), delta),
            ]
        };
        let typed = adopt_all(Form::Typed(&cut));
        let through_json = adopt_all(Form::Durable(&durable));
        for ((how, t), d) in ["restore", "failover", "migration"]
            .iter()
            .zip(&typed)
            .zip(&through_json)
        {
            let diverged = diff_reports(&baseline, &t.report);
            assert!(
                diverged.is_empty(),
                "{label} @{at} {how}: typed adoption diverged from the uninterrupted run: {diverged:?}"
            );
            assert_eq!(
                text(&t.report),
                text(&d.report),
                "{label} @{at} {how}: the two forms finished differently"
            );
            assert_eq!(t.receipt, d.receipt, "{label} @{at} {how}: receipts");
        }
        restart_matches_a_fresh_build(label, at, &baseline, traced);
    }
    tally
}

/// Every instant a traced run did something at, and the instant after.
fn instants(trace: &Trace) -> BTreeSet<SimTime> {
    let at = trace.entries().map(|e| e.at);
    at.flat_map(|at| [at, at + SimDuration::from_nanos(1)])
        .collect()
}

/// The restart-in-place cell over a build whose run derives, beside the
/// task table and the first capture, admission vectors, a latency set
/// over a 16-event trace ring, and seeded fault streams. Captures and
/// scrubs are 4–5 ms apart, so the cell cuts at about as many instants as
/// the other cells.
fn restart_rederives<M: FpgaManager, S: Scheduler>(label: &str, build: impl Fn() -> System<M, S>) {
    let faults = FaultPlan {
        seed: 0x5EED,
        download_corruption: 0.05,
        seu_rate_per_s: 200.0,
        column_failure_rate_per_s: 0.0,
    };
    let recovery = RecoveryPolicy {
        scrub_interval: Some(us(5000)),
        ..Default::default()
    };
    let admission = AdmissionPolicy {
        max_in_flight: 2,
        queue_cap: 2,
        ..Default::default()
    };
    let build = || {
        build()
            .with_admission(admission.clone())
            .unwrap()
            .with_trace_capacity(16)
            .with_latency_profile()
            .with_faults(faults, recovery)
            .with_checkpoints(CheckpointConfig::new(us(4000)))
            .unwrap()
    };
    let (baseline, trace) = build().with_trace().run_traced().unwrap();
    for at in instants(&trace) {
        restart_matches_a_fresh_build(label, at, &baseline, build);
    }
}

/// {dynload, partition variable + delta} × {round-robin, EDF} over `n`
/// tasks, and the restart cell that derives more from its build.
fn matrix(n: usize) {
    let (lib, ids) = lib4();
    let sp = specs(&ids, n);
    let quantum = us(700);
    macro_rules! cell {
        ($label:expr, $delta:expr, $manager:ident, $sched:expr) => {{
            let tally = sweep($label, &sp, $delta, || {
                let (mgr, ckpt) = $manager(&lib);
                System::new(lib.clone(), mgr, $sched, SAVE_RESTORE, sp.clone())
                    .with_checkpoints(ckpt)
                    .unwrap()
            });
            assert!(
                tally.cuts >= 8 * n && tally.with_image * 2 >= tally.cuts,
                "{}: {} cuts, {} with an image: a dead sweep",
                $label,
                tally.cuts,
                tally.with_image
            );
        }};
    }
    cell!(
        "dynload/rr",
        false,
        dynload,
        RoundRobinScheduler::new(quantum)
    );
    cell!(
        "dynload/edf",
        false,
        dynload,
        EdfScheduler::for_tasks(&sp, Some(quantum))
    );
    cell!(
        "partition+delta/rr",
        true,
        partition_delta,
        RoundRobinScheduler::new(quantum)
    );
    cell!(
        "partition+delta/edf",
        true,
        partition_delta,
        EdfScheduler::for_tasks(&sp, Some(quantum))
    );
    restart_rederives("dynload/rr rederived", || {
        let (mgr, _) = dynload(&lib);
        let sched = RoundRobinScheduler::new(quantum);
        System::new(lib.clone(), mgr, sched, SAVE_RESTORE, sp.clone())
    });
}

#[test]
fn every_cut_adopts_the_same_typed_and_through_json() {
    matrix(8);
}

/// The wide matrix, for `ci.sh` under `--release`.
#[test]
#[ignore = "wide matrix: run with --release -- --ignored"]
fn every_cut_adopts_the_same_typed_and_through_json_wide() {
    matrix(40);
}

/// The field `key` of a JSON object.
fn field<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(fields) = v else {
        panic!("not an object")
    };
    let found = fields.iter_mut().find(|(k, _)| k == key);
    &mut found.unwrap_or_else(|| panic!("no field '{key}'")).1
}

/// `with_checkpoints` sets the cadence and schedules nothing: a system it
/// configured twice runs as one it configured once, capture for capture.
#[test]
fn a_second_with_checkpoints_changes_nothing() {
    let (lib, ids) = lib4();
    let sp = specs(&ids, 8);
    let (_, ckpt) = dynload(&lib);
    let build = || {
        let (mgr, _) = dynload(&lib);
        let sched = RoundRobinScheduler::new(us(700));
        System::new(lib.clone(), mgr, sched, SAVE_RESTORE, sp.clone())
            .with_checkpoints(ckpt)
            .unwrap()
    };
    let once = run(build());
    let twice = run(build().with_checkpoints(ckpt).unwrap());
    assert!(once.crash.checkpoints > 0);
    assert_eq!(text(&twice), text(&once));
}

/// The seeded violation: a durable form that loses one pending event — the
/// next checkpoint — still restores, and `diff_reports` still passes (no
/// task outcome depends on a checkpoint), but the field-for-field equality
/// above does not. A check that cannot fail is not a check.
#[test]
fn a_durable_form_that_drops_a_pending_event_is_caught() {
    let (lib, ids) = lib4();
    let sp = specs(&ids, 8);
    let build = || {
        let (mgr, ckpt) = dynload(&lib);
        let sched = RoundRobinScheduler::new(us(700));
        System::new(lib.clone(), mgr, sched, SAVE_RESTORE, sp.clone())
            .with_checkpoints(ckpt)
            .unwrap()
    };
    let baseline = run(build());
    let at = SimTime::ZERO + us(2500);
    let Some(cut) = build().run_to_cut(Some(at)).unwrap() else {
        panic!("the run is cut at 2.5 ms, not over")
    };
    let adopt = |form: Form<'_>| {
        let mut sys = build();
        form.restore(&mut sys);
        run(sys)
    };
    let typed = adopt(Form::Typed(&cut));
    let mut durable = cut.to_durable();
    assert_eq!(text(&typed), text(&adopt(Form::Durable(&durable))));

    let image = &mut durable.image.as_mut().expect("cut after a capture").state;
    let Json::Arr(pending) = field(image, "pending") else {
        panic!("'pending' is an array")
    };
    let before = pending.len();
    pending.retain(|ev| ev.as_arr().unwrap()[1] != Json::from("ckpt"));
    assert_eq!(pending.len(), before - 1, "one checkpoint was pending");
    let mutant = adopt(Form::Durable(&durable));
    assert!(diff_reports(&baseline, &mutant).is_empty());
    assert_ne!(text(&typed), text(&mutant), "the equality has teeth");
    assert!(mutant.crash.checkpoints < typed.crash.checkpoints);
}
