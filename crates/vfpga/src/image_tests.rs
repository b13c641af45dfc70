//! Properties of typed checkpoint images: the `vfpga-ckpt/3` rendering
//! round-trips and is byte-stable, a restored system captures the image
//! it was restored from, and the strict reader turns every damaged image
//! into an error.

use crate::admission::AdmissionPolicy;
use crate::checkpoint::{CheckpointConfig, RunOutcome};
use crate::circuit::{CircuitId, CircuitLib};
use crate::error::VfpgaError;
use crate::image::SystemImage;
use crate::manager::dynload::DynLoadManager;
use crate::manager::overlay::{OverlayManager, Replacement};
use crate::manager::partition::{PartitionManager, PartitionMode};
use crate::manager::{FpgaManager, PreemptAction};
use crate::recovery::RecoveryPolicy;
use crate::sched::{
    EdfScheduler, FifoScheduler, PriorityScheduler, RoundRobinScheduler, Scheduler,
};
use crate::system::{Ev, System, SystemConfig};
use crate::system_tests::{lib_mixed, lib_n, ms, timing, us};
use crate::task::{Op, TaskId, TaskSpec};
use fsim::json::Json;
use fsim::{FaultPlan, SimTime};
use std::sync::Arc;

const SAVE_RESTORE: SystemConfig = SystemConfig {
    preempt: PreemptAction::SaveRestore,
    completion: crate::system::CompletionDetect::Exact,
};

fn faults() -> (FaultPlan, RecoveryPolicy) {
    (
        FaultPlan {
            seed: 7,
            download_corruption: 0.2,
            seu_rate_per_s: 300.0,
            column_failure_rate_per_s: 0.0,
        },
        RecoveryPolicy {
            scrub_interval: Some(ms(2)),
            ..Default::default()
        },
    )
}

fn tight_admission() -> AdmissionPolicy {
    AdmissionPolicy {
        max_in_flight: 1,
        queue_cap: 4,
        ..Default::default()
    }
}

/// `n` tasks over two tenants, each a CPU burst, one FPGA run, a CPU
/// burst; priorities and deadlines set so every scheduler has something
/// to order by.
fn specs(ids: &[CircuitId], n: u32) -> Vec<TaskSpec> {
    (0..n)
        .map(|i| {
            TaskSpec::new(
                format!("g{i}"),
                SimTime::ZERO + us(300 * u64::from(i)),
                vec![
                    Op::Cpu(us(200)),
                    Op::FpgaRun {
                        circuit: ids[i as usize % ids.len()],
                        cycles: 150_000,
                    },
                    Op::Cpu(us(100)),
                ],
            )
            .with_tenant(i % 2)
            .with_priority((i % 3) as u8)
            .with_deadline(ms(30))
        })
        .collect()
}

/// The pinned small case behind `golden/ckpt_small.json`: dynamic
/// loading, round-robin, faults and a tight admission gate, cut at
/// 4.6 ms (so the image is the capture at 4 ms).
fn pinned_small(
    lib: &Arc<CircuitLib>,
    ids: &[CircuitId],
) -> System<DynLoadManager, RoundRobinScheduler> {
    let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
    let (plan, policy) = faults();
    System::new(
        lib.clone(),
        mgr,
        RoundRobinScheduler::new(ms(1)),
        SAVE_RESTORE,
        specs(ids, 4),
    )
    .with_faults(plan, policy)
    .with_admission(tight_admission())
    .unwrap()
    .with_checkpoints(CheckpointConfig::new(ms(1)))
    .unwrap()
}

const PINNED_CUT_US: u64 = 4600;

/// The durable image a crash at `cut_us` leaves behind, if the run got
/// that far and had captured one.
fn image_at<M: FpgaManager, S: Scheduler>(sys: System<M, S>, cut_us: u64) -> Option<Json> {
    match sys.run_until(Some(SimTime::ZERO + us(cut_us))).unwrap() {
        RunOutcome::Crashed(state) => state.image.map(|i| i.state),
        RunOutcome::Completed(..) => None,
    }
}

/// Where the round-trip matrix cuts each run.
const CUTS_US: [u64; 6] = [1500, 2500, 4000, 6000, 9000, 14000];

/// For every cut point that yields an image: the rendering parses back to
/// the same typed image, and a fresh system restored from it captures it
/// again. `drops_ghosts` marks managers whose restore deliberately
/// forgets delta bases (the fabric they described was wiped): their
/// `manager` section settles one restore later.
fn check_round_trips<M: FpgaManager, S: Scheduler>(
    label: &str,
    drops_ghosts: bool,
    build: impl Fn() -> System<M, S>,
) {
    let mut images = 0;
    let mut stale: Option<SystemImage> = None;
    for cut_us in CUTS_US {
        let Some(durable) = image_at(build(), cut_us) else {
            continue;
        };
        images += 1;
        let img = SystemImage::from_json(&durable)
            .unwrap_or_else(|e| panic!("{label} @{cut_us}us: boundary image rejected: {e}"));
        let text = img.to_json().render();
        assert_eq!(text, durable.render(), "{label} @{cut_us}us: re-rendering");
        let back = SystemImage::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, img, "{label} @{cut_us}us: render/parse round trip");

        let recapture = |img: &SystemImage, recycled: Option<SystemImage>| {
            let mut fresh = build();
            fresh
                .restore(img)
                .unwrap_or_else(|e| panic!("{label} @{cut_us}us: restore failed: {e}"));
            fresh.capture(img.at, recycled)
        };
        let again = recapture(&img, None);
        // Refilling the buffers of an image from another cut changes nothing.
        let recycled = recapture(&img, stale.replace(img.clone()));
        assert_eq!(recycled, again, "{label} @{cut_us}us: recycled capture");
        if !drops_ghosts {
            assert_eq!(again.manager, img.manager, "{label} @{cut_us}us: manager");
        }
        let mut expect = img.clone();
        expect.manager = again.manager.clone();
        assert_eq!(again, expect, "{label} @{cut_us}us: restore then capture");
        assert_eq!(
            recapture(&again, None),
            again,
            "{label} @{cut_us}us: fixed point"
        );
    }
    assert!(
        images >= 3,
        "{label}: only {images} cut points had an image"
    );
}

/// What to do with one cell of the round-trip matrix: its name, whether
/// its manager forgets delta bases on restore, and how to build it.
trait Cell {
    fn cell<M: FpgaManager, S: Scheduler>(
        &mut self,
        name: &str,
        drops_ghosts: bool,
        build: impl Fn() -> System<M, S>,
    );
}

/// The round-trip check, one cell at a time.
struct RoundTrips;

impl Cell for RoundTrips {
    fn cell<M: FpgaManager, S: Scheduler>(
        &mut self,
        name: &str,
        drops_ghosts: bool,
        build: impl Fn() -> System<M, S>,
    ) {
        check_round_trips(name, drops_ghosts, build);
    }
}

/// One manager under FIFO, round-robin, priority-with-aging and EDF, each
/// with and without the admission gate and fault injector.
fn each_scheduler<M: FpgaManager>(
    visit: &mut impl Cell,
    (label, drops_ghosts): (&str, bool),
    ckpt: CheckpointConfig,
    ids: &[CircuitId],
    lib: &Arc<CircuitLib>,
    manager: impl Fn() -> M,
) {
    fn finish<M: FpgaManager, S: Scheduler>(
        sys: System<M, S>,
        guarded: bool,
        ckpt: CheckpointConfig,
    ) -> System<M, S> {
        let sys = if guarded {
            let (plan, policy) = faults();
            sys.with_faults(plan, policy)
                .with_admission(tight_admission())
                .unwrap()
        } else {
            sys
        };
        sys.with_checkpoints(ckpt).unwrap()
    }
    for guarded in [false, true] {
        let sp = || specs(ids, 8);
        let name = |s: &str| {
            let side = if guarded { "guarded" } else { "plain" };
            format!("{label}-{s}-{side}")
        };
        visit.cell(&name("fifo"), drops_ghosts, || {
            let sched = FifoScheduler::new();
            let sys = System::new(lib.clone(), manager(), sched, SAVE_RESTORE, sp());
            finish(sys, guarded, ckpt)
        });
        visit.cell(&name("rr"), drops_ghosts, || {
            let sched = RoundRobinScheduler::new(ms(1));
            let sys = System::new(lib.clone(), manager(), sched, SAVE_RESTORE, sp());
            finish(sys, guarded, ckpt)
        });
        visit.cell(&name("priority"), drops_ghosts, || {
            let sched = PriorityScheduler::with_aging(Some(ms(1)), ms(2));
            let sys = System::new(lib.clone(), manager(), sched, SAVE_RESTORE, sp());
            finish(sys, guarded, ckpt)
        });
        visit.cell(&name("edf"), drops_ghosts, || {
            let sched = EdfScheduler::for_tasks(&sp(), Some(ms(1)));
            let sys = System::new(lib.clone(), manager(), sched, SAVE_RESTORE, sp());
            finish(sys, guarded, ckpt)
        });
    }
}

/// The round-trip matrix: dynamic loading, fixed partitions and variable
/// partitions with delta downloads and delta checkpoints, under every
/// scheduler, guarded and plain.
fn matrix(visit: &mut impl Cell) {
    let (lib, ids) = lib_n(3);
    let plain = CheckpointConfig::new(ms(1));
    each_scheduler(visit, ("dynload", false), plain, &ids, &lib, || {
        DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore)
    });
    let widest = ids.iter().map(|&c| lib.get(c).shape().0).max().unwrap();
    let cols = timing().spec.cols;
    let mut widths = vec![widest; (cols / widest) as usize];
    *widths.last_mut().unwrap() += cols % widest;
    each_scheduler(visit, ("partition-fixed", false), plain, &ids, &lib, || {
        PartitionManager::new(
            lib.clone(),
            timing(),
            PartitionMode::Fixed(widths.clone()),
            PreemptAction::SaveRestore,
        )
        .unwrap()
    });
    let delta = plain.with_delta_checkpoints(3);
    let label = ("partition-variable-delta", true);
    each_scheduler(visit, label, delta, &ids, &lib, || variable_delta(&lib));
    // Column failures too, so a partition is retired, and a retry backoff
    // long enough that a capture finds the retry pending.
    visit.cell("partition-variable-delta-fifo-colfail", true, || {
        let (mut plan, mut policy) = faults();
        plan.column_failure_rate_per_s = 400.0;
        policy.retry_backoff = ms(10);
        let sched = FifoScheduler::new();
        System::new(
            lib.clone(),
            variable_delta(&lib),
            sched,
            SAVE_RESTORE,
            specs(&ids, 8),
        )
        .with_faults(plan, policy)
        .with_admission(tight_admission())
        .unwrap()
        .with_checkpoints(delta)
        .unwrap()
    });
    // A sequential circuit whose runs outlast the slice, so a capture finds
    // saved flip-flop state and a dispatch waiting out its readback.
    let (lib, ids) = lib_mixed(3);
    visit.cell("dynload-rr-sequential", false, || {
        let (plan, policy) = faults();
        let mut sp = specs(&ids, 8);
        for op in sp.iter_mut().flat_map(|s| &mut s.ops) {
            if let Op::FpgaRun { cycles, .. } = op {
                *cycles *= 10;
            }
        }
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
        System::new(
            lib.clone(),
            mgr,
            RoundRobinScheduler::new(ms(1)),
            SAVE_RESTORE,
            sp,
        )
        .with_faults(plan, policy)
        .with_admission(tight_admission())
        .unwrap()
        .with_checkpoints(plain)
        .unwrap()
    });
}

#[test]
fn images_round_trip_and_restore_to_themselves() {
    matrix(&mut RoundTrips);
}

/// The typed path against the JSON one. At every cut of a cell that
/// leaves a capture: the capture holds the scheduler's and the manager's
/// own records, no JSON; a capture of the cut system, fresh or refilled
/// from the cut's, renders each record byte for byte as the component's
/// `snapshot`; and a system restored from the typed cut reads as one
/// restored from its durable text, parsed.
struct TypedIsJson;

impl Cell for TypedIsJson {
    fn cell<M: FpgaManager, S: Scheduler>(
        &mut self,
        name: &str,
        _drops_ghosts: bool,
        build: impl Fn() -> System<M, S>,
    ) {
        let mut images = 0;
        for cut_us in CUTS_US {
            let (at, label) = (SimTime::ZERO + us(cut_us), format!("{name} @{cut_us}us"));
            let mut sys = build();
            let Some(cut) = sys.run_to_cut(Some(at)).unwrap() else {
                continue;
            };
            let Some(capture) = &cut.capture else {
                continue;
            };
            images += 1;
            let fresh = sys.capture(at, None);
            let refilled = sys.capture(at, Some(capture.image.clone()));
            for img in [&capture.image, &fresh, &refilled] {
                let records = img.sched.is_record() && img.manager.is_record();
                assert!(records, "{label}: a capture holds JSON");
            }
            let sched = sys.sched.snapshot().unwrap().render();
            let manager = sys.manager.snapshot().unwrap().render();
            for img in [&fresh, &refilled] {
                assert_eq!(img.sched.as_json().render(), sched, "{label}: scheduler");
                assert_eq!(img.manager.as_json().render(), manager, "{label}: manager");
            }
            let mut durable = cut.to_durable();
            if let Some(image) = &mut durable.image {
                image.state = Json::parse(&image.state.render()).unwrap();
            }
            let (mut typed, mut parsed) = (build(), build());
            typed.restore_cut(cut.clone()).unwrap();
            parsed.restore_from(&durable).unwrap();
            let (typed, parsed) = (typed.state_text(at), parsed.state_text(at));
            let first_difference = typed.lines().zip(parsed.lines()).find(|(t, p)| t != p);
            assert!(
                typed == parsed,
                "{label}: the typed restore is not the parsed one: {first_difference:?}"
            );
        }
        assert!(images >= 3, "{name}: only {images} cut points had an image");
    }
}

#[test]
fn typed_images_are_their_snapshots_and_restore_as_the_parsed_text() {
    matrix(&mut TypedIsJson);
}

fn variable_delta(lib: &Arc<CircuitLib>) -> PartitionManager {
    let mut mgr = PartitionManager::new(
        lib.clone(),
        timing(),
        PartitionMode::Variable,
        PreemptAction::SaveRestore,
    )
    .unwrap();
    mgr.enable_delta();
    mgr
}

#[test]
fn overlay_manager_cannot_be_checkpointed() {
    // No snapshot, so no image to round-trip: refused up front.
    let (lib, ids) = lib_n(3);
    let widest = ids.iter().map(|&c| lib.get(c).shape().0).max().unwrap();
    let mgr = OverlayManager::new(
        lib.clone(),
        timing(),
        vec![ids[0]],
        widest,
        Replacement::Lru,
    )
    .unwrap();
    let sys = System::new(
        lib,
        mgr,
        RoundRobinScheduler::new(ms(1)),
        SAVE_RESTORE,
        specs(&ids, 4),
    );
    assert!(matches!(
        sys.with_checkpoints(CheckpointConfig::new(ms(1))),
        Err(VfpgaError::CheckpointUnsupported { .. })
    ));
}

#[test]
fn pinned_image_renders_the_golden_bytes() {
    // The golden file is the pinned case as `vfpga-ckpt/3` first rendered
    // it: the rendering must not drift.
    let (lib, ids) = lib_n(2);
    let durable = image_at(pinned_small(&lib, &ids), PINNED_CUT_US).unwrap();
    assert_eq!(durable.render(), include_str!("../golden/ckpt_small.json"));
}

/// Each cell's image, rendered: a guarded cell's at the earliest of
/// [`CUTS_US`] (arrivals still pending, ready queues full), every other
/// cell's at the latest that yields one (waiters, upsets, retired columns).
#[derive(Default)]
struct Goldens(Vec<(String, String)>);

impl Cell for Goldens {
    fn cell<M: FpgaManager, S: Scheduler>(
        &mut self,
        name: &str,
        _drops_ghosts: bool,
        build: impl Fn() -> System<M, S>,
    ) {
        let mut cuts: Vec<u64> = CUTS_US.to_vec();
        if !name.ends_with("-guarded") {
            cuts.reverse();
        }
        let image = cuts.iter().find_map(|&cut| image_at(build(), cut));
        let image = image.unwrap_or_else(|| panic!("{name}: no cut yields an image"));
        self.0.push((name.to_string(), image.render()));
    }
}

/// What one image shows non-empty: `latent`, `running.fpga`, each
/// `pending:<kind>`, `manager.parts:<kind>`, … (see [`SECTIONS`]).
fn sections_of(image: &Json, into: &mut Vec<String>) {
    let nonempty = |v: Option<&Json>| v.and_then(Json::as_arr).is_some_and(|a| !a.is_empty());
    let mut seen = |what: &str, yes: bool| {
        if yes && !into.iter().any(|s| s == what) {
            into.push(what.to_string());
        }
    };
    seen("latent", nonempty(image.get("latent")));
    seen("stale", nonempty(image.get("stale")));
    let running = image.get("running").and_then(|r| r.get("fpga"));
    seen("running.fpga", running.is_some_and(|f| *f != Json::Null));
    for entry in image.get("pending").and_then(Json::as_arr).unwrap() {
        let Some(Json::Str(kind)) = entry.as_arr().map(|e| &e[1]) else {
            panic!("pending entry {entry:?}")
        };
        seen(&format!("pending:{kind}"), true);
    }
    let admission = image.get("admission").and_then(|a| a.get("deferred"));
    seen("admission.deferred", nonempty(admission));
    let manager = image.get("manager").unwrap();
    for part in manager.get("parts").and_then(Json::as_arr).unwrap_or(&[]) {
        let Some(Json::Str(kind)) = part.get("kind") else {
            panic!("partition {part:?}")
        };
        seen(&format!("manager.parts:{kind}"), true);
    }
    seen("manager.waiters", nonempty(manager.get("waiters")));
    seen("manager.saved", nonempty(manager.get("saved")));
    seen("manager.delta", manager.get("delta").is_some());
    let sched = image.get("sched").unwrap();
    seen("sched.queue", nonempty(sched.get("queue")));
    for entry in sched.get("ready").and_then(Json::as_arr).unwrap_or(&[]) {
        let policy = match entry.as_arr().map(<[Json]>::len) {
            Some(4) => "priority",
            Some(2) => "edf",
            _ => panic!("ready entry {entry:?}"),
        };
        seen(&format!("sched.ready:{policy}"), true);
    }
}

/// Every section the goldens must show non-empty at least once.
const SECTIONS: &[&str] = &[
    "latent",
    "stale",
    "running.fpga",
    "pending:arrive",
    "pending:timer",
    "pending:dispatch",
    "pending:seu",
    "pending:scrub",
    "pending:colfail",
    "pending:colfail_at",
    "pending:retry_done",
    "pending:retry",
    "pending:ckpt",
    "pending:watchdog",
    "admission.deferred",
    "manager.parts:free",
    "manager.parts:resident",
    "manager.parts:retired",
    "manager.waiters",
    "manager.saved",
    "manager.delta",
    "sched.queue",
    "sched.ready:priority",
    "sched.ready:edf",
];

/// The sections no cell reaches, and why.
const UNREACHED: &[(&str, &str)] = &[(
    "stale",
    "only a journal-off crash restore leaves a stale claim; the matrix journals",
)];

#[test]
fn matrix_images_render_their_golden_bytes() {
    // Written by the parent build of the codec rewrite: one image per cell
    // of the round-trip matrix, byte for byte.
    let mut goldens = Goldens::default();
    matrix(&mut goldens);
    let here = std::env::var("CARGO_MANIFEST_DIR").expect("cargo runs the tests");
    let dir = format!("{here}/golden/ckpt");
    let mut shown = Vec::new();
    for (name, text) in &goldens.0 {
        let path = format!("{dir}/{name}.json");
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert!(*text == want, "{name}: the rendering drifted from {path}");
        sections_of(&Json::parse(text).unwrap(), &mut shown);
    }
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, goldens.0.len(), "{dir} holds a file no cell renders");
    for section in SECTIONS {
        let why = UNREACHED.iter().find(|(s, _)| s == section);
        match (shown.iter().any(|s| s == section), why) {
            (true, None) | (false, Some(_)) => {}
            (true, Some((_, why))) => panic!("{section} is reached after all ({why})"),
            (false, None) => panic!("no golden shows {section} non-empty"),
        }
    }
    assert!(
        shown.iter().all(|s| SECTIONS.contains(&s.as_str())),
        "{shown:?}"
    );
}

/// The object field `key` of `v`, for damaging a parsed image in place.
fn field<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
    match v {
        Json::Obj(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field '{key}'")),
        other => panic!("not an object: {other:?}"),
    }
}

fn items(v: &mut Json) -> &mut Vec<Json> {
    match v {
        Json::Arr(items) => items,
        other => panic!("not an array: {other:?}"),
    }
}

/// Every truncation of `text` short of its closing brace, and every
/// structural character damaged three ways — blanked, turned into
/// garbage, swapped for the structural character it is most easily
/// confused with — must fail `read`.
fn sweep_damage<T>(text: &str, read: impl Fn(&str) -> Result<T, String>) {
    let body = text.trim_end();
    for cut in 0..body.len() {
        assert!(read(&body[..cut]).is_err(), "prefix of {cut} bytes read");
    }
    let mut bytes = text.as_bytes().to_vec();
    for at in 0..bytes.len() {
        let orig = bytes[at];
        let confusable = match orig {
            b'{' => b'[',
            b'[' => b'{',
            b'}' => b']',
            b']' => b'}',
            b':' => b',',
            b',' => b':',
            b'"' => b'\'',
            _ => continue,
        };
        for damage in [b' ', b'x', confusable] {
            bytes[at] = damage;
            let t = std::str::from_utf8(&bytes).unwrap();
            assert!(
                read(t).is_err(),
                "byte {at} '{}' -> '{}' read",
                orig as char,
                damage as char
            );
        }
        bytes[at] = orig;
    }
}

/// The counter sections the managers and the admission gate write — the
/// one place an image is keyed rather than positional — on a variable
/// partition manager with delta downloads behind the admission gate:
/// `manager` is read by the manager's own `restore`, so reading here
/// means restoring into a fresh system.
#[test]
fn damaged_counter_sections_are_errors_not_panics() {
    let (lib, ids) = lib_n(3);
    let build = || {
        let sched = RoundRobinScheduler::new(ms(1));
        System::new(
            lib.clone(),
            variable_delta(&lib),
            sched,
            SAVE_RESTORE,
            specs(&ids, 8),
        )
        .with_admission(tight_admission())
        .unwrap()
        .with_checkpoints(CheckpointConfig::new(ms(1)).with_delta_checkpoints(3))
        .unwrap()
    };
    let restore = |doc: &Json| build().restore(&SystemImage::from_json(doc)?);
    let good = image_at(build(), 9000).unwrap();
    restore(&good).expect("the undamaged image restores");
    sweep_damage(&good.render(), |t| {
        restore(&Json::parse(t).map_err(|e| e.to_string())?)
    });

    let sections: [&[&str]; 4] = [
        &["admission", "stats"],
        &["manager", "stats"],
        &["manager", "delta"],
        &["manager", "delta", "stats"],
    ];
    for path in sections {
        let damaged = |what: &str, damage: fn(&mut Vec<(String, Json)>)| {
            let mut doc = good.clone();
            let Json::Obj(fields) = path.iter().fold(&mut doc, |v, key| field(v, key)) else {
                panic!("{path:?} is not an object")
            };
            damage(fields);
            assert!(restore(&doc).is_err(), "{path:?}: {what} restored");
        };
        damaged("extra key", |f| {
            f.push(("epilogue".into(), Json::from(0u64)))
        });
        damaged("missing key", |f| drop(f.pop()));
        damaged("reordered keys", |f| f.swap(0, 1));
        damaged("duplicated key", |f| f[1] = f[0].clone());
        damaged("wrong kind", |f| f[0].1 = Json::from(true));
    }
}

/// One step into a JSON tree: an object key or an array index.
#[derive(Clone, Copy, PartialEq)]
enum Step<'a> {
    Key(&'a str),
    Idx(usize),
}

/// Every node of `v` with its path, parents first.
fn walk<'a>(v: &'a Json, path: &mut Vec<Step<'a>>, visit: &mut impl FnMut(&[Step<'a>], &Json)) {
    visit(path, v);
    let children: Vec<(Step, &Json)> = match v {
        Json::Obj(fields) => fields.iter().map(|(k, c)| (Step::Key(k), c)).collect(),
        Json::Arr(items) => (0..).map(Step::Idx).zip(items).collect(),
        _ => Vec::new(),
    };
    for (step, child) in children {
        path.push(step);
        walk(child, path, visit);
        path.pop();
    }
}

fn node<'a>(v: &'a mut Json, path: &[Step]) -> &'a mut Json {
    path.iter().fold(v, |v, step| match *step {
        Step::Key(k) => field(v, k),
        Step::Idx(i) => &mut items(v)[i],
    })
}

fn fields(v: &mut Json) -> &mut Vec<(String, Json)> {
    match v {
        Json::Obj(fields) => fields,
        other => panic!("not an object: {other:?}"),
    }
}

/// The `sched` and `manager` sections are written and read by the
/// component's own `snapshot`/`restore`. Under each of the four schedulers
/// and over both checkpointable managers, every way of damaging them is an
/// error out of `System::restore`, never a panic: byte damage, every
/// object's key set, 2^32+1 in every cell read into 32 bits or fewer (task
/// and circuit ids, columns, widths, priorities — sequence numbers,
/// clocks, times and counters are 64-bit), and every circuit id pointed
/// outside the library. A 64-bit cell of the manager has no narrower range
/// to leave, but u64::MAX in each, and in all of them at once, must be
/// restored or refused, never overflow.
#[test]
fn damaged_component_sections_are_errors_not_panics() {
    const WIDE: u64 = (1 << 32) + 1;
    fn sweep<M: FpgaManager, S: Scheduler>(label: &str, build: impl Fn() -> System<M, S>) {
        let restore = |doc: &Json| build().restore(&SystemImage::from_json(doc)?);
        let good = image_at(build(), 9000).unwrap_or_else(|| panic!("{label}: no image"));
        restore(&good).unwrap_or_else(|e| panic!("{label}: undamaged image: {e}"));
        for section in ["sched", "manager"] {
            sweep_damage(&good.get(section).unwrap().render(), |t| {
                let mut doc = good.clone();
                *field(&mut doc, section) = Json::parse(t).map_err(|e| e.to_string())?;
                restore(&doc)
            });
        }
        // Every damaged copy of the image, with what was done to it.
        let mut cases: Vec<(&str, Json)> = Vec::new();
        let mut wide_cells = Vec::new();
        let mut damage = |what, path: &[Step], how: &dyn Fn(&mut Json)| {
            let mut doc = good.clone();
            how(node(&mut doc, path));
            cases.push((what, doc));
        };
        walk(&good, &mut Vec::new(), &mut |path, v| {
            if !matches!(path.first(), Some(Step::Key("sched" | "manager"))) {
                return;
            }
            // The key this node sits under, and its index if in an array.
            let (mut under, mut index) = ("", None);
            for step in path {
                match *step {
                    Step::Key(k) => (under, index) = (k, None),
                    Step::Idx(i) => index = Some(i),
                }
            }
            let pairs = ["saved", "waiters"].contains(&under);
            match v {
                Json::Obj(obj) => {
                    let extra = ("epilogue".to_string(), Json::from(0u64));
                    damage("extra key", path, &|o| fields(o).push(extra.clone()));
                    damage("missing key", path, &|o| drop(fields(o).pop()));
                    damage("wrong kind", path, &|o| {
                        let first = &mut fields(o)[0].1;
                        *first = Json::from(!matches!(first, Json::Bool(_)));
                    });
                    if obj.len() >= 2 {
                        damage("reordered keys", path, &|o| fields(o).swap(0, 1));
                        damage("duplicated key", path, &|o| {
                            fields(o)[1] = fields(o)[0].clone()
                        });
                    }
                }
                // An entry of a ready queue: (priority, seq, task, enqueue
                // time) under the priority policy, (seq, task) under EDF.
                Json::Arr(entry) if under == "ready" && index.is_some() => {
                    let narrow: &[usize] = if entry.len() == 4 { &[0, 2] } else { &[1] };
                    for &i in narrow {
                        damage("wide ready cell", path, &|e| items(e)[i] = WIDE.into());
                    }
                }
                // The two lists of (task, circuit) pairs may be empty at
                // the cut: a foreign entry is refused all the same.
                Json::Arr(_) if pairs && index.is_none() => {
                    for pair in [[0, 9999], [WIDE, 0]] {
                        damage("foreign pair", path, &|l| {
                            items(l).push(pair.to_vec().into())
                        });
                    }
                }
                Json::UInt(_) => {
                    let narrow = [
                        "queue",
                        "loaded",
                        "col",
                        "width",
                        "cid",
                        "owner",
                        "saved_for",
                    ];
                    if pairs || narrow.contains(&under) {
                        damage("wide cell", path, &|c| *c = WIDE.into());
                    } else if path[0] == Step::Key("manager") {
                        wide_cells.push(path.to_vec());
                    }
                    if ["loaded", "cid"].contains(&under) || (pairs && index == Some(1)) {
                        damage("circuit 9999", path, &|c| *c = 9999u64.into());
                    }
                }
                _ => {}
            }
        });
        assert!(cases.len() >= 12, "{label}: only {} cases", cases.len());
        for (what, doc) in &cases {
            assert!(restore(doc).is_err(), "{label}: {what} restored");
        }
        let mut all = good.clone();
        for path in &wide_cells {
            let mut doc = good.clone();
            *node(&mut doc, path) = u64::MAX.into();
            *node(&mut all, path) = u64::MAX.into();
            let _ = restore(&doc);
        }
        let _ = restore(&all);
        assert!(
            wide_cells.len() >= 10,
            "{label}: {} wide cells",
            wide_cells.len()
        );
    }
    fn all_schedulers<M: FpgaManager>(
        label: &str,
        lib: &Arc<CircuitLib>,
        ids: &[CircuitId],
        manager: impl Fn() -> M,
    ) {
        let ckpt = CheckpointConfig::new(ms(1)).with_delta_checkpoints(3);
        let sp = || specs(ids, 8);
        macro_rules! with {
            ($name:literal, $sched:expr) => {
                sweep(&format!("{}/{label}", $name), || {
                    System::new(lib.clone(), manager(), $sched, SAVE_RESTORE, sp())
                        .with_checkpoints(ckpt)
                        .unwrap()
                })
            };
        }
        with!("fifo", FifoScheduler::new());
        with!("rr", RoundRobinScheduler::new(ms(1)));
        with!(
            "priority",
            PriorityScheduler::with_aging(Some(ms(1)), ms(2))
        );
        with!("edf", EdfScheduler::for_tasks(&sp(), Some(ms(1))));
    }
    let (lib, ids) = lib_n(3);
    all_schedulers("dynload", &lib, &ids, || {
        DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore)
    });
    all_schedulers("variable+delta", &lib, &ids, || variable_delta(&lib));
}

#[test]
fn damaged_images_are_errors_not_panics() {
    let text = include_str!("../golden/ckpt_small.json");
    let good = Json::parse(text).unwrap();
    let img = SystemImage::from_json(&good).unwrap();
    sweep_damage(text, |t| {
        SystemImage::from_json(&Json::parse(t).map_err(|e| e.to_string())?)
    });

    // Decoded, but not an image of this system.
    let (lib, ids) = lib_n(2);
    let restore = |doc: &Json| pinned_small(&lib, &ids).restore(&SystemImage::from_json(doc)?);

    // The task table: a header that is not the writer's, rows one cell
    // short or long, the table itself one row short or long (it then has
    // another task count than the system, and than the admission vectors).
    let damaged_header = |damage: fn(&mut Vec<Json>)| {
        let mut doc = good.clone();
        damage(items(field(&mut doc, "task_columns")));
        SystemImage::from_json(&doc).unwrap_err()
    };
    assert!(damaged_header(|h| h[3] = Json::from("op_total")).contains("task_columns"));
    assert!(damaged_header(|h| h.swap(9, 10)).contains("task_columns"));
    assert!(damaged_header(|h| drop(h.pop())).contains("task_columns"));
    assert!(damaged_header(|h| h.push(Json::from("epilogue"))).contains("task_columns"));
    let damaged_table = |damage: fn(&mut Vec<Json>)| {
        let mut doc = good.clone();
        damage(items(field(&mut doc, "tasks")));
        restore(&doc)
    };
    assert!(
        damaged_table(|t| drop(items(&mut t[1]).pop())).is_err(),
        "short row"
    );
    assert!(
        damaged_table(|t| items(&mut t[1]).push(Json::from(false))).is_err(),
        "long row"
    );
    assert!(damaged_table(|t| drop(t.pop())).is_err(), "short table");
    assert!(
        damaged_table(|t| t.push(t[0].clone())).is_err(),
        "long table"
    );

    // Every cell of a row, swapped for the other scalar kind: the error
    // names the column.
    let columns = good.get("task_columns").and_then(Json::as_arr).unwrap();
    assert_eq!(columns.len(), 25);
    let column = |name: &str| columns.iter().position(|c| *c == Json::from(name)).unwrap();
    for (col, name) in columns.iter().enumerate() {
        let Json::Str(name) = name else {
            panic!("not a column name: {name:?}")
        };
        let mut doc = good.clone();
        let cell = &mut items(&mut items(field(&mut doc, "tasks"))[0])[col];
        *cell = match cell {
            Json::Bool(_) => Json::from(1u64),
            _ => Json::from(true),
        };
        let err = SystemImage::from_json(&doc).unwrap_err();
        assert!(err.contains(name.as_str()), "column '{name}': {err}");
    }
    for name in ["op_idx", "rollbacks", "dl_attempts", "fault_restarts"] {
        let mut doc = good.clone();
        items(&mut items(field(&mut doc, "tasks"))[0])[column(name)] =
            Json::from(u64::from(u32::MAX) + 1);
        let err = SystemImage::from_json(&doc).unwrap_err();
        assert!(err.contains(name), "64-bit '{name}': {err}");
    }
    for key in ["wd_seq", "wd_trips", "degraded"] {
        let mut short = good.clone();
        items(field(field(&mut short, "admission"), key)).pop();
        assert!(restore(&short).is_err(), "short admission '{key}'");
    }
    let mut rng = good.clone();
    items(&mut items(field(&mut rng, "rng"))[1]).pop();
    assert!(SystemImage::from_json(&rng).is_err(), "short rng stream");

    // Names the reader does not know.
    let mut schema = good.clone();
    *field(&mut schema, "schema") = Json::from("vfpga-ckpt/2");
    assert!(SystemImage::from_json(&schema)
        .unwrap_err()
        .contains("schema 'vfpga-ckpt/2'"));
    let mut state = good.clone();
    items(&mut items(field(&mut state, "tasks"))[0])[0] = Json::from("zombie");
    assert!(SystemImage::from_json(&state)
        .unwrap_err()
        .contains("zombie"));
    let mut kind = good.clone();
    items(&mut items(field(&mut kind, "pending"))[0])[1] = Json::from("reboot");
    assert!(SystemImage::from_json(&kind)
        .unwrap_err()
        .contains("reboot"));

    // Fields missing, unexpected, or too large for their type.
    let mut extra = good.clone();
    if let Json::Obj(fields) = &mut extra {
        fields.push(("epilogue".into(), Json::Null));
    }
    assert!(SystemImage::from_json(&extra).is_err(), "extra field");
    let mut missing = good.clone();
    if let Json::Obj(fields) = &mut missing {
        fields.retain(|(k, _)| k != "stale");
    }
    assert!(SystemImage::from_json(&missing).is_err(), "missing field");
    // The live-task count is recounted by `restore`, never stored.
    let mut counted = good.clone();
    if let Json::Obj(fields) = &mut counted {
        let stale = fields.iter().position(|(k, _)| k == "stale").unwrap();
        fields.insert(stale, ("unfinished".into(), Json::from(4u64)));
    }
    assert!(SystemImage::from_json(&counted)
        .unwrap_err()
        .contains("unfinished"));
    let mut wide = good.clone();
    *field(field(&mut wide, "running"), "tid") = Json::from(u64::from(u32::MAX) + 1);
    assert!(SystemImage::from_json(&wide).is_err(), "64-bit task id");

    // Well-formed images that describe some other system.
    let mut ghost_task = img.clone();
    ghost_task.running.as_mut().unwrap().tid.0 = 99;
    assert!(pinned_small(&lib, &ids).restore(&ghost_task).is_err());
    let mut fewer = img.clone();
    fewer.tasks.slots.pop();
    assert!(pinned_small(&lib, &ids).restore(&fewer).is_err());
    let mut unguarded = img.clone();
    unguarded.admission = None;
    assert!(pinned_small(&lib, &ids).restore(&unguarded).is_err());
    // Pending events the task table contradicts: restored, this one
    // panicked in `on_timer` ("timer without a running task"). (Arrivals
    // the table contradicts never get this far:
    // `rendered_arrivals_are_exactly_the_task_tables`.)
    let mut idle_timer = img.clone();
    idle_timer.running = None;
    idle_timer
        .pending
        .push((img.at + ms(6), Ev::Timer(TaskId(0))));
    let refused = pinned_small(&lib, &ids).restore(&idle_timer);
    assert!(refused.unwrap_err().contains("not running"));
    pinned_small(&lib, &ids)
        .restore(&img)
        .expect("the undamaged image restores");
    // Right task count, wrong task set: through the public door.
    let cut = SimTime::ZERO + us(PINNED_CUT_US);
    let Ok(RunOutcome::Crashed(mut state)) = pinned_small(&lib, &ids).run_until(Some(cut)) else {
        panic!("the pinned run is cut, not completed");
    };
    let tasks = field(&mut state.image.as_mut().unwrap().state, "tasks");
    items(&mut items(tasks)[2])[column("arrival")] = Json::from(601_000u64);
    assert!(matches!(
        pinned_small(&lib, &ids).restore_from(&state),
        Err(VfpgaError::CheckpointCorrupt { reason }) if reason.contains("arrives")
    ));
}

/// The typed image queues no arrival; its rendering lists one for each
/// `Future` slot, at the slot's arrival, in (arrival, id) order, ahead of
/// every event at the same instant — and the reader accepts exactly that.
/// Five CPU tasks under FIFO, captured every 1 ms and cut at 4.5 ms: the
/// image at 4 ms lists tasks 2 and 3 arriving at 5 ms, tied with each
/// other and with the next capture, then task 4 arriving at 6 ms, tied
/// with the running task's segment end. Every arrangement but the
/// writer's is an error, never a panic. Seeded violation: a reader that
/// checks the listed events against the writer's by event alone, skipping
/// their times, accepts the first damaged case.
#[test]
fn rendered_arrivals_are_exactly_the_task_tables() {
    let (lib, _) = lib_mixed(1);
    let build = || {
        let tasks = [(0, 3), (0, 3), (5, 1), (5, 1), (6, 1)];
        let specs = (0..)
            .zip(tasks)
            .map(|(i, (at, burst))| {
                TaskSpec::new(
                    format!("a{i}"),
                    SimTime::ZERO + ms(at),
                    vec![Op::Cpu(ms(burst))],
                )
            })
            .collect();
        let mgr = DynLoadManager::new(lib.clone(), timing(), PreemptAction::SaveRestore);
        System::new(lib.clone(), mgr, FifoScheduler::new(), SAVE_RESTORE, specs)
            .with_checkpoints(CheckpointConfig::new(ms(1)))
            .unwrap()
    };
    let good = image_at(build(), 4500).unwrap();
    let at = |t: u64| Json::from(t * 1_000_000);
    let event = |t: u64, kind: &str, arg: Json| Json::Arr(vec![at(t), Json::from(kind), arg]);
    let task = |t: u64| Json::from(t);
    let listed = good.get("pending").and_then(Json::as_arr).unwrap().to_vec();
    assert_eq!(
        listed,
        [
            event(5, "arrive", task(2)),
            event(5, "arrive", task(3)),
            event(5, "ckpt", Json::Null),
            event(6, "arrive", task(4)),
            event(6, "timer", task(1)),
        ]
    );
    let img = SystemImage::from_json(&good).expect("the writer's arrangement reads");
    assert!(img
        .pending
        .iter()
        .all(|(_, ev)| !matches!(ev, Ev::Arrive(_))));
    assert_eq!(img.to_json(), good, "and renders back");
    build().restore(&img).expect("and restores");

    let damaged = |what: &str, damage: &dyn Fn(&mut Vec<Json>)| {
        let mut doc = good.clone();
        damage(items(field(&mut doc, "pending")));
        let read = std::panic::catch_unwind(|| SystemImage::from_json(&doc));
        match read {
            Ok(read) => assert!(read.is_err(), "{what}: read"),
            Err(_) => panic!("{what}: the reader panicked"),
        }
    };
    damaged("an arrival 1 ns early", &|p| {
        items(&mut p[3])[0] = Json::from(6_000_000u64 - 1)
    });
    damaged("an arrival missing", &|p| drop(p.remove(1)));
    damaged("an arrival of a task the table lacks", &|p| {
        p.push(event(7, "arrive", task(5)))
    });
    damaged("an arrival twice", &|p| p.insert(1, p[0].clone()));
    damaged("an arrival of a task that has arrived", &|p| {
        p.insert(0, event(0, "arrive", task(0)))
    });
    damaged("arrivals out of (arrival, id) order", &|p| p.swap(0, 1));
    damaged("an arrival after a same-instant event", &|p| {
        let ckpt = p.remove(2);
        p.insert(0, ckpt);
    });
}
