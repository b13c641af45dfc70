//! The experiment gate: what `ci.sh` used to check with 47 binary
//! invocations, export diffs and inline Python, as `cargo test`.
//!
//! Every entry of [`bench::exp::ALL`] runs its smoke sweep in-process and
//! must reproduce `golden/<name>.smoke.json` — an export committed from a
//! known-good build — byte for byte. That one comparison is also the
//! "same seed twice" check. The per-
//! experiment tests below it assert what the numbers must *mean*, so a
//! refreshed golden cannot quietly pin a regression. Refresh a golden only
//! in a change that means to move the numbers:
//!
//! ```sh
//! cargo run --release -p bench --bin vfpga-exp -- <name> --smoke \
//!     --json crates/bench/golden/<name>.smoke.json
//! ```

use bench::exp::{Entry, RunArgs, ALL};
use bench::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// A sweep takes well under a second; one that has not finished by
/// now is spinning on the hanging task of e17, a fleet loop that stopped
/// converging (e19, e21), or a new bug of that kind.
const LIVENESS: Duration = Duration::from_secs(120);

/// Cargo sets the variable for the test process. Read then, not baked in
/// at compile time: a test binary another checkout left in a shared target
/// directory would otherwise look in that checkout.
fn golden(name: &str) -> PathBuf {
    let here = std::env::var("CARGO_MANIFEST_DIR").expect("cargo runs the tests");
    Path::new(&here).join(format!("golden/{name}.smoke.json"))
}

fn parse(name: &str, text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{name}: export does not parse: {e}"))
}

/// The export of `entry` (smoke or full size), as `vfpga-exp --json`
/// would write it, from a worker thread so that a run that never ends
/// fails the test instead of hanging it.
fn export_text(entry: &Entry, smoke: bool, seed: Option<u64>) -> String {
    let &(name, _, run) = entry;
    let (tx, rx) = mpsc::channel();
    // Named, so that a panic inside the experiment says whose it is.
    let worker = std::thread::Builder::new().name(name.to_string());
    let worker = worker.spawn(move || {
        let _ = tx.send(run(&RunArgs { smoke, seed }).and_then(|ex| ex.render_checked()));
    });
    let worker = worker.expect("worker thread spawns");
    match rx.recv_timeout(LIVENESS) {
        Ok(result) => {
            worker.join().expect("worker has already sent its result");
            result.unwrap_or_else(|e| panic!("{name} FAILED: {e}"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("{name}: run still going after 120 s"),
        Err(RecvTimeoutError::Disconnected) => {
            let panic = worker.join().expect_err("sender dropped without a result");
            std::panic::resume_unwind(panic)
        }
    }
}

/// The smoke export of `entry`.
fn smoke_text(entry: &Entry, seed: Option<u64>) -> String {
    export_text(entry, true, seed)
}

/// `name`'s fresh smoke export.
fn smoke(name: &str) -> Json {
    let entry = bench::exp::find(name).expect("a name in exp::ALL");
    parse(name, &smoke_text(entry, entry.1))
}

/// `doc.a.b.c` for the dotted `path`, which must exist.
fn at<'a>(doc: &'a Json, path: &str) -> &'a Json {
    path.split('.').fold(doc, |j, key| {
        j.get(key)
            .unwrap_or_else(|| panic!("no {key:?} on the way to {path:?}"))
    })
}

/// The counter `key` of a section.
fn count(section: &Json, key: &str) -> u64 {
    match at(section, key) {
        Json::UInt(n) => *n,
        other => panic!("{key} is not a counter: {other:?}"),
    }
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// Whether every counter of `report`'s `section` reads zero: what a run
/// without that subsystem exports.
fn all_zero(report: &Json, section: &str) -> bool {
    match at(report, section) {
        Json::Obj(fields) => fields
            .iter()
            .all(|(_, v)| matches!(v, Json::UInt(0)) || *v == Json::Num(0.0)),
        other => panic!("{section} is not an object: {other:?}"),
    }
}

/// `(label, report)` for every report of an export.
fn reports(doc: &Json) -> Vec<(&str, &Json)> {
    let all = at(doc, "reports").as_arr().expect("reports array");
    all.iter()
        .map(|r| match at(r, "label") {
            Json::Str(label) => (label.as_str(), r),
            other => panic!("label is not a string: {other:?}"),
        })
        .collect()
}

fn report<'a>(doc: &'a Json, label: &str) -> &'a Json {
    let found = reports(doc).into_iter().find(|(l, _)| *l == label);
    found.unwrap_or_else(|| panic!("no report {label:?}")).1
}

fn tasks(report: &Json) -> &[Json] {
    at(report, "tasks").as_arr().expect("tasks array")
}

fn is_set(task: &Json, flag: &str) -> bool {
    task.get(flag) == Some(&Json::Bool(true))
}

/// How many of a report's tasks carry `flag: true`.
fn tasks_with(report: &Json, flag: &str) -> u64 {
    tasks(report).iter().filter(|t| is_set(t, flag)).count() as u64
}

#[test]
fn table_is_sorted_and_goldens_match_it_one_to_one() {
    let names: Vec<&str> = ALL.iter().map(|e| e.0).collect();
    assert!(
        names.windows(2).all(|w| w[0] < w[1]),
        "exp::ALL must be sorted and free of duplicates: {names:?}"
    );
    // Files only: `golden/trace_dump/` holds the trace_dump views.
    let mut goldens: Vec<String> = std::fs::read_dir(golden("x").parent().unwrap())
        .expect("golden directory")
        .map(|f| f.unwrap())
        .filter(|f| f.file_type().unwrap().is_file())
        .map(|f| f.file_name().into_string().unwrap())
        .collect();
    goldens.sort();
    let want: Vec<String> = names.iter().map(|n| format!("{n}.smoke.json")).collect();
    assert_eq!(goldens, want, "one committed golden per experiment");
}

#[test]
fn every_smoke_export_matches_its_golden() {
    for entry in ALL {
        let name = entry.0;
        let want = std::fs::read_to_string(golden(name)).expect("golden is readable");
        let got = smoke_text(entry, entry.1);
        let shorter = want.lines().count().min(got.lines().count());
        let differ = want.lines().zip(got.lines()).position(|(w, g)| w != g);
        if let Some(n) = differ.or((want != got).then_some(shorter)) {
            panic!(
                "{name} --smoke drifted from its golden at line {}:\n  \
                 golden: {}\n  fresh:  {}",
                n + 1,
                want.lines().nth(n).unwrap_or("<end>"),
                got.lines().nth(n).unwrap_or("<end>"),
            );
        }
    }
}

/// `vfpga-bench/2` has one report shape: whatever a run had switched on,
/// its report carries every section with every counter and its tasks every
/// flag, so a reader never asks whether a key is there.
#[test]
fn every_report_of_every_export_has_the_same_keys() {
    const SECTIONS: [&str; 7] = [
        "manager_stats",
        "overhead_breakdown",
        "fault",
        "crash",
        "delta",
        "admission",
        "fleet",
    ];
    let docs: Vec<(&str, Json)> = ALL
        .iter()
        .map(|&(name, ..)| {
            let text = std::fs::read_to_string(golden(name)).expect("golden is readable");
            (name, parse(name, &text))
        })
        .collect();
    let mut report_shape: Option<Vec<Vec<&str>>> = None;
    let mut task_shape: Option<Vec<&str>> = None;
    let mut seen = 0;
    for (name, doc) in &docs {
        for (label, r) in reports(doc) {
            let mut sections = vec![keys(r)];
            sections.extend(SECTIONS.iter().map(|s| keys(at(r, s))));
            let want = report_shape.get_or_insert_with(|| sections.clone());
            assert_eq!(&sections, want, "{name} {label}: report keys");
            for t in tasks(r) {
                let want = task_shape.get_or_insert_with(|| keys(t));
                assert_eq!(&keys(t), want, "{name} {label}: task keys");
            }
            seen += 1;
        }
    }
    assert!(seen >= 100, "only {seen} reports compared");
}

/// The goldens pin the default seeds; the in-process gates of E15–E21
/// (differential verifiers, loss accounting) and same-seed determinism
/// must hold at any seed, so run them twice at a second one.
#[test]
fn seeded_experiments_pass_their_gates_at_another_seed() {
    for entry in ALL.iter().filter(|e| e.1.is_some()) {
        let run = || smoke_text(entry, Some(3605));
        assert!(
            run() == run(),
            "{}: seed 3605 ran differently twice",
            entry.0
        );
    }
}

/// 64-bit FNV-1a, the digest the full-size exports are pinned by.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of each experiment's full-size export at its default seed, as a
/// known-good build wrote it.
const FULL_DIGESTS: &[(&str, u64)] = &[
    ("e01_reconfig_time", 0x4a4c3bc6489b3c7f),
    ("e02_dynload_overhead", 0x07b4d7addff05387),
    ("e03_merged_baseline", 0x8af0dda921fc87ea),
    ("e04_sharing_policies", 0x28097affa118fd7d),
    ("e05_partitioning", 0x09a9c3c78af19335),
    ("e06_fragmentation_gc", 0x73e3140423e1e242),
    ("e07_overlay", 0xf66d71d29aebcd68),
    ("e08_segment_vs_page", 0x1cfd734daf535e7f),
    ("e09_io_mux", 0x93647aeb928e260a),
    ("e10_preemption_state", 0x4c1bc6793f2e74b9),
    ("e11_completion_detect", 0xea71ccebbfeb1e48),
    ("e12_coprocessor_speedup", 0x726bff3e45dbc2bd),
    ("e13_device_sweep", 0x456c427ef1f1b44e),
    ("e14_schedulers", 0xbefa252236f0fb7f),
    ("e15_fault_recovery", 0x26a8afc039ec74e1),
    ("e16_crash_restore", 0x33518a6ae9b2adce),
    ("e17_overload", 0x6cc4883afa04e55d),
    ("e18_deadlines", 0xc59671ffe9c02bf6),
    ("e19_fleet", 0x30c48b2be7a37dd6),
    ("e20_delta", 0xece9f01694109033),
    ("e21_migration", 0x04c34fcbcc50ccb8),
];

/// The goldens pin the smoke sweeps only; the full-size exports are pinned
/// by digest. A digest moves only in a change that means to move the
/// numbers — find the first differing line with `cmp` against the export
/// of a build of the parent commit.
#[test]
fn every_full_export_matches_its_pinned_digest() {
    let names: Vec<&str> = FULL_DIGESTS.iter().map(|d| d.0).collect();
    let all: Vec<&str> = ALL.iter().map(|e| e.0).collect();
    assert_eq!(names, all, "one pinned digest per experiment");
    for (entry, &(name, want)) in ALL.iter().zip(FULL_DIGESTS) {
        let got = fnv1a(&export_text(entry, false, entry.1));
        assert!(
            got == want,
            "{name}: full export digest {got:#018x}, pinned {want:#018x}; write the \
             export with `vfpga-exp {name} --json` here and from a build of the parent \
             commit, and `cmp` the two"
        );
    }
}

// The gates name their experiment in the test name, which is what a
// failure prints first; the messages say which expectation broke.

#[test]
fn e16_journal_is_load_bearing() {
    let doc = smoke("e16_crash_restore");
    let counters = at(&doc, "metrics.counters");
    let on = count(counters, "journal_on_divergences");
    assert_eq!(on, 0, "journaled restore diverged");
    let off = count(counters, "journal_off_divergences");
    assert!(off > 0, "journal-off ablation did not diverge");
    let corrupt = count(at(&doc, "params"), "journal_off_corruptions");
    assert!(corrupt > 0, "no silent corruption recorded");
}

#[test]
fn e17_hanging_task_is_quarantined_and_off_cell_is_legacy() {
    let doc = smoke("e17_overload");
    let off = report(&doc, "off/baseline");
    assert!(all_zero(off, "admission"), "admission-off cell counted");
    let on: Vec<&Json> = reports(&doc)
        .into_iter()
        .filter(|(l, _)| *l != "off/baseline")
        .map(|(_, r)| at(r, "admission"))
        .collect();
    assert!(!on.is_empty(), "no admission cells in smoke");
    let quarantined = on.iter().any(|a| count(a, "quarantined") > 0);
    assert!(quarantined, "no cell quarantined the hanging task");
    let fired = on.iter().all(|a| count(a, "watchdog_fired") > 0);
    assert!(fired, "a hanging task never fired its watchdog");
}

#[test]
fn e18_edf_beats_fifo_gate_is_disjoint_hysteresis_holds() {
    let doc = smoke("e18_deadlines");
    let missed = |label| tasks_with(report(&doc, label), "deadline_missed");
    let (edf, fifo) = (missed("heavy/edf"), missed("heavy/fifo"));
    assert!(edf < fifo, "EDF missed {edf}, FIFO {fifo}: no strict win");
    let gate = report(&doc, "heavy/edf/gate-x1");
    let unsched = count(at(gate, "admission"), "unschedulable");
    assert!(unsched > 0, "gate never refused an arrival");
    let shed = count(at(gate, "admission"), "rejected");
    assert!(shed > 0, "gate cell lost its quota shedding");
    let both = |t: &&Json| is_set(t, "unschedulable") && is_set(t, "rejected");
    let both = tasks(gate).iter().filter(both).count();
    assert_eq!(both, 0, "unschedulable and quota-rejected overlap");
    let flap = at(report(&doc, "heavy/edf/flap-baseline"), "admission");
    let flaps = count(flap, "degrade_exits");
    assert!(flaps >= 1, "coincident-mark baseline never flapped");
    let hyst = at(report(&doc, "heavy/edf/hysteresis"), "admission");
    let enters = count(hyst, "degrade_enters");
    assert!(enters >= 1, "hysteresis cell never degraded");
    let exits = count(hyst, "degrade_exits");
    assert_eq!(exits, 0, "split hysteresis pair flapped back out");
}

#[test]
fn e19_storm_loses_nothing_and_ablation_loss_is_a_disjoint_slice() {
    let doc = smoke("e19_fleet");
    let all = reports(&doc);
    for (label, r) in &all {
        if label.contains("/none/") || label.ends_with("/none") {
            assert!(all_zero(r, "fleet"), "{label} moved a fleet counter");
        }
    }
    let ablation = |l: &str| l.contains("ablation");
    let is_storm = |l: &str| l.contains("/storm/") && !ablation(l);
    let storm = || all.iter().filter(|(l, _)| is_storm(l)).map(|(_, r)| *r);
    assert!(storm().next().is_some(), "no storm cells in smoke");
    let failovers = |r| count(at(r, "fleet"), "failovers");
    let failovers: u64 = storm().map(failovers).sum();
    assert!(failovers > 0, "no storm cell failed over");
    for r in storm() {
        let lost = count(at(r, "fleet"), "lost_in_flight");
        assert_eq!(lost, 0, "capacity cell lost work");
        let flagged = tasks_with(r, "lost_in_flight");
        assert_eq!(flagged, 0, "capacity cell flagged a task lost");
    }
    let abl = all.iter().find(|(l, _)| ablation(l));
    let abl = abl.expect("ablation cell").1;
    let lost = count(at(abl, "fleet"), "lost_in_flight");
    assert!(lost > 0, "ablation cell lost nothing");
    let flagged = tasks_with(abl, "lost_in_flight");
    assert_eq!(flagged, lost, "lost flags disagree with the counter");
    let slices = ["failed", "rejected", "quarantined"];
    let other = |t: &Json| slices.iter().any(|f| is_set(t, f));
    let overlap = |t: &&Json| is_set(t, "lost_in_flight") && other(t);
    let overlap = tasks(abl).iter().filter(overlap).count();
    assert_eq!(overlap, 0, "lost_in_flight overlaps another slice");
}

#[test]
fn e19_one_device_fleet_is_a_plain_system() {
    let (single, fleet) = bench::exp::e19_fleet::equivalence(0xE19);
    let single = single.render_checked().expect("single exports");
    let fleet = fleet.render_checked().expect("fleet exports");
    assert!(single == fleet, "1-device fleet is not a plain system");
}

#[test]
fn e20_off_cells_are_legacy_and_similar_families_go_delta() {
    let doc = smoke("e20_delta");
    let all = reports(&doc);
    let ending = |suffix: &'static str| all.iter().filter(move |(l, _)| l.ends_with(suffix));
    let (fulls, deltas) = (ending("/full").count(), ending("/delta").count());
    assert!(fulls > 0 && fulls == deltas, "unpaired cells");
    for (label, r) in ending("/full") {
        assert!(all_zero(r, "delta"), "{label} moved a delta counter");
    }
    // Labels are `sim<similarity>/<rate>/<full|delta>`.
    let similarity = |l: &str| l[3..l.find('/').unwrap()].parse::<f64>().unwrap();
    let mut high_went_delta = false;
    for (label, r) in ending("/delta") {
        let went_delta = count(at(r, "delta"), "delta_downloads") > 0;
        high_went_delta |= similarity(label) >= 0.5 && went_delta;
    }
    assert!(high_went_delta, "no >=50%-similar cell went delta");
    let saved = count(at(&doc, "metrics.counters"), "delta_frames_saved");
    assert!(saved > 0, "delta saved zero frames");
}

#[test]
fn e21_every_crash_window_resolves_the_right_way() {
    let doc = smoke("e21_migration");
    let mut migrated = 0;
    for (label, r) in reports(&doc) {
        let fl = at(r, "fleet");
        let lost = count(fl, "lost_in_flight");
        assert_eq!(lost, 0, "{label} lost work in flight");
        let flagged = tasks_with(r, "lost_in_flight");
        assert_eq!(flagged, 0, "{label} flagged a task lost");
        if label.starts_with("none/") {
            assert!(all_zero(r, "fleet"), "{label} moved a fleet counter");
        }
        let aborts = count(fl, "migration_aborts");
        let redone = count(fl, "migration_redone_frees");
        if label.contains("src-mid-prepare") || label.contains("dest-mid-copy") {
            // Intent without commit: rolled back, nothing to redo.
            assert!(aborts >= 1, "{label}");
            assert_eq!(redone, 0, "{label} redid a free");
        }
        if label.contains("commit-no-free") {
            // Commit without free: replay redoes it, nothing aborts.
            assert!(redone >= 1, "{label}");
            assert_eq!(aborts, 0, "{label} aborted after commit");
        }
        migrated += count(fl, "tenant_migrations");
    }
    assert!(migrated > 0, "no cell exercised a live migration");
}

/// A scratch directory of this test process's own.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vfpga-exp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch directory");
    dir
}

/// The persistent compile cache is advisory, never load-bearing: a warm
/// process and one reading vandalised entries must both reproduce the cold
/// export, and the bad entries must be rewritten. The cache directory comes
/// from the environment, so this is the one check that needs the real
/// binary in a child process (the variable is set on the child only).
#[test]
fn pnr_disk_cache_is_invisible_to_results() {
    let dir = scratch("cache");
    let cache = dir.join("pnr-cache");
    let run = |tag: &str| {
        let out = dir.join(format!("{tag}.json"));
        let status = Command::new(env!("CARGO_BIN_EXE_vfpga-exp"))
            .args(["e15_fault_recovery", "--smoke", "--seed", "3605", "--json"])
            .arg(&out)
            .env("VFPGA_CACHE_DIR", &cache)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("vfpga-exp must spawn");
        assert!(status.success(), "{tag} run failed: {status}");
        std::fs::read_to_string(out).expect("export was written")
    };
    let entries = || -> Vec<PathBuf> {
        let files = std::fs::read_dir(&cache).expect("cache directory exists");
        let files = files.map(|f| f.unwrap().path());
        files
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .collect()
    };
    let cold = run("cold");
    assert!(!entries().is_empty(), "cold run wrote no cache entries");
    assert_eq!(run("warm"), cold, "warm run diverged from cold");
    for f in entries() {
        std::fs::write(f, "not json").expect("vandalise entry");
    }
    assert_eq!(run("corrupt"), cold, "corrupt entries changed results");
    for f in entries() {
        let text = std::fs::read_to_string(&f).expect("entry is readable");
        assert_ne!(text, "not json", "{} was not rewritten", f.display());
    }
    let _ = std::fs::remove_dir_all(dir);
}
