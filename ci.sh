#!/usr/bin/env bash
# Local CI — the same gates .github/workflows/ci.yml runs.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test (tier 1)"
cargo test -q --workspace

echo "==> repository benchmark (frozen API surface: --check + unit tests)"
# benchmark/ is its own package and nothing in the workspace builds it, so
# a change that breaks what it uses of the public API (`CrashState`,
# `CheckpointImage.state`, `restore_from`, the two policy traits) would
# otherwise pass CI and fail the pipeline. Both build into the workspace
# target directory.
CARGO_TARGET_DIR="$PWD/target/benchmark" benchmark/run --check >/dev/null
CARGO_TARGET_DIR="$PWD/target/benchmark" \
  cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo bench --no-run (harness must keep compiling)"
cargo bench --no-run --workspace >/dev/null

echo "==> e15 fault-recovery smoke (JSON parse-back + bit reproducibility)"
E15_TMP="$(mktemp -d)"
trap 'rm -rf "$E15_TMP"' EXIT
JDIFF=./target/release/jdiff
# The binary itself re-reads and re-parses the export through the bench
# JSON reader and exits nonzero if it does not round-trip. Exports carry
# a volatile wall-clock `host` section, so the comparison goes through
# jdiff, which strips it before demanding byte-identity.
./target/release/e15_fault_recovery --smoke --seed 3605 --json "$E15_TMP/a.json" >/dev/null
./target/release/e15_fault_recovery --smoke --seed 3605 --json "$E15_TMP/b.json" >/dev/null
"$JDIFF" "$E15_TMP/a.json" "$E15_TMP/b.json" \
  || { echo "e15 smoke: same-seed runs are not identical modulo host"; exit 1; }

echo "==> committed goldens (smoke exports: e05, e06, e20 partition side; e14, e16, e17, e19, e21 kernel side)"
# Every other gate compares a build with itself; these compare it with
# exports committed from a known-good commit, so a change to routing,
# partitioning, GC or delta pricing (e05, e06, e20) or to the event
# kernel, its queue, checkpoint/restore, admission, failover or migration
# (e14, e16, e17, e19, e21) that shifts any simulated number fails here
# even when it is perfectly deterministic. Refresh a golden only in a PR
# that means to change the numbers:
#   ./target/release/<exp> --smoke --json crates/bench/golden/<exp>.smoke.json
for exp in e05_partitioning e06_fragmentation_gc e20_delta \
           e14_schedulers e16_crash_restore e17_overload e19_fleet e21_migration; do
  ./target/release/$exp --smoke --json "$E15_TMP/$exp.golden.json" >/dev/null
  "$JDIFF" "crates/bench/golden/$exp.smoke.json" "$E15_TMP/$exp.golden.json" \
    || { echo "$exp: smoke export drifted from crates/bench/golden/$exp.smoke.json"; exit 1; }
done

echo "==> parallel determinism smoke (--threads 4 vs --threads 1)"
# The sweep engine must be a pure performance knob: any thread count has
# to reproduce the serial export exactly, modulo the host section.
./target/release/e15_fault_recovery --smoke --threads 1 --json "$E15_TMP/t1.json" >/dev/null
./target/release/e15_fault_recovery --smoke --threads 4 --json "$E15_TMP/t4.json" >/dev/null
"$JDIFF" "$E15_TMP/t1.json" "$E15_TMP/t4.json" \
  || { echo "e15 smoke: --threads 4 diverged from --threads 1"; exit 1; }
./target/release/e05_partitioning --threads 1 --json "$E15_TMP/e05t1.json" >/dev/null
./target/release/e05_partitioning --threads 4 --json "$E15_TMP/e05t4.json" >/dev/null
"$JDIFF" "$E15_TMP/e05t1.json" "$E15_TMP/e05t4.json" \
  || { echo "e05: --threads 4 diverged from --threads 1"; exit 1; }

echo "==> e16 crash-restore smoke (differential verifier + journal ablation)"
# The binary aborts in-process if any journaled cell diverges from the
# uninterrupted same-seed baseline. The JSON gate re-checks the exported
# counters and additionally proves the ablation bites: with the journal
# off the smoke cell must record silent corruption and divergence, or the
# journal has stopped being load-bearing.
./target/release/e16_crash_restore --smoke --json "$E15_TMP/e16a.json" >/dev/null
./target/release/e16_crash_restore --smoke --threads 4 --json "$E15_TMP/e16b.json" >/dev/null
"$JDIFF" "$E15_TMP/e16a.json" "$E15_TMP/e16b.json" \
  || { echo "e16 smoke: parallel same-seed run diverged"; exit 1; }
python3 - "$E15_TMP/e16a.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = doc["metrics"]["counters"]
assert counters["journal_on_divergences"] == 0, "journaled restore diverged"
assert counters["journal_off_divergences"] > 0, "journal-off ablation did not diverge"
assert doc["params"]["journal_off_corruptions"] > 0, "no silent corruption recorded"
print("e16 gate: journal on = 0 divergences, journal off = "
      f"{counters['journal_off_divergences']} (ablation bites)")
PY

echo "==> e17 overload smoke (admission control: determinism + liveness)"
# Same-seed bit reproducibility and thread invariance, like e15/e16.
./target/release/e17_overload --smoke --seed 3605 --json "$E15_TMP/e17a.json" >/dev/null
./target/release/e17_overload --smoke --seed 3605 --json "$E15_TMP/e17b.json" >/dev/null
"$JDIFF" "$E15_TMP/e17a.json" "$E15_TMP/e17b.json" \
  || { echo "e17 smoke: same-seed runs are not identical modulo host"; exit 1; }
./target/release/e17_overload --smoke --threads 1 --json "$E15_TMP/e17t1.json" >/dev/null
./target/release/e17_overload --smoke --threads 4 --json "$E15_TMP/e17t4.json" >/dev/null
"$JDIFF" "$E15_TMP/e17t1.json" "$E15_TMP/e17t4.json" \
  || { echo "e17 smoke: --threads 4 diverged from --threads 1"; exit 1; }
# Liveness under a deliberately hanging task: the smoke sweep contains a
# never-completing FPGA op that only the watchdog can reclaim. The hard
# wall-clock timeout is the point — if quarantine regresses, the binary
# spins or deadlocks instead of exiting, and CI must fail loudly rather
# than hang.
timeout 120 ./target/release/e17_overload --smoke --json "$E15_TMP/e17live.json" >/dev/null \
  || { echo "e17 smoke: hanging task did not terminate (watchdog/quarantine broken)"; exit 1; }
python3 - "$E15_TMP/e17live.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
reports = {r["label"]: r for r in doc["reports"]}
off = reports["off/baseline"]
assert "admission" not in off, "admission-off export grew an admission section"
on = [r for l, r in reports.items() if l != "off/baseline"]
assert on, "no admission cells in smoke sweep"
assert any(r["admission"]["quarantined"] > 0 for r in on), \
    "no cell quarantined the hanging task"
assert all(r["admission"]["watchdog_fired"] > 0 for r in on), \
    "a cell with a hanging task never fired its watchdog"
print("e17 gate: hanging task quarantined, admission-off export unchanged")
PY

echo "==> e18 deadline smoke (EDF dominance + gate accounting + hysteresis)"
# Same determinism contract as e15/e16/e17, then the substance: EDF must
# strictly beat FIFO on deadline misses, the schedulability gate's
# refusals must stay disjoint from quota load-shedding, and the split
# hysteresis pair must never flap back out of degraded mode while the
# coincident-mark baseline does.
./target/release/e18_deadlines --smoke --seed 3605 --json "$E15_TMP/e18a.json" >/dev/null
./target/release/e18_deadlines --smoke --seed 3605 --json "$E15_TMP/e18b.json" >/dev/null
"$JDIFF" "$E15_TMP/e18a.json" "$E15_TMP/e18b.json" \
  || { echo "e18 smoke: same-seed runs are not identical modulo host"; exit 1; }
./target/release/e18_deadlines --smoke --threads 1 --json "$E15_TMP/e18t1.json" >/dev/null
./target/release/e18_deadlines --smoke --threads 4 --json "$E15_TMP/e18t4.json" >/dev/null
"$JDIFF" "$E15_TMP/e18t1.json" "$E15_TMP/e18t4.json" \
  || { echo "e18 smoke: --threads 4 diverged from --threads 1"; exit 1; }
timeout 120 ./target/release/e18_deadlines --smoke --json "$E15_TMP/e18live.json" >/dev/null \
  || { echo "e18 smoke: sweep did not terminate"; exit 1; }
python3 - "$E15_TMP/e18live.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
reports = {r["label"]: r for r in doc["reports"]}
def missed(r):
    return sum(1 for t in r["tasks"] if t.get("deadline_missed"))
edf, fifo = missed(reports["heavy/edf"]), missed(reports["heavy/fifo"])
assert edf < fifo, f"EDF must strictly beat FIFO on misses ({edf} vs {fifo})"
gate = reports["heavy/edf/gate-x1"]
ga = gate["admission"]
assert ga.get("unschedulable", 0) > 0, "gate never refused an arrival"
assert ga.get("rejected", 0) > 0, "gate cell lost its quota shedding"
for t in gate["tasks"]:
    assert not (t.get("unschedulable") and t.get("rejected")), \
        "a task counted both unschedulable and quota-rejected"
fb = reports["heavy/edf/flap-baseline"]["admission"]
hy = reports["heavy/edf/hysteresis"]["admission"]
assert fb.get("degrade_exits", 0) >= 1, "coincident-mark baseline never flapped"
assert hy.get("degrade_enters", 0) >= 1, "hysteresis cell never entered degraded mode"
assert hy.get("degrade_exits", 0) == 0, "split hysteresis pair flapped back out"
print(f"e18 gate: edf {edf} < fifo {fifo} misses, gate unsched={ga['unschedulable']}"
      f" rejected={ga['rejected']}, flap {fb['degrade_enters']}/{fb['degrade_exits']}"
      f" vs hysteresis {hy['degrade_enters']}/{hy['degrade_exits']}")
PY

echo "==> e19 fleet smoke (device-crash failover: determinism + liveness + equivalence)"
# Same determinism contract as e15-e18. The binary aborts in-process if a
# capacity cell loses admitted work or diverges from the uninterrupted
# single-device baseline, so merely exiting zero is already the main gate;
# the wall-clock timeout catches a fleet event loop that stops converging.
./target/release/e19_fleet --smoke --seed 3605 --json "$E15_TMP/e19a.json" >/dev/null
./target/release/e19_fleet --smoke --seed 3605 --json "$E15_TMP/e19b.json" >/dev/null
"$JDIFF" "$E15_TMP/e19a.json" "$E15_TMP/e19b.json" \
  || { echo "e19 smoke: same-seed runs are not identical modulo host"; exit 1; }
./target/release/e19_fleet --smoke --threads 1 --json "$E15_TMP/e19t1.json" >/dev/null
./target/release/e19_fleet --smoke --threads 4 --json "$E15_TMP/e19t4.json" >/dev/null
"$JDIFF" "$E15_TMP/e19t1.json" "$E15_TMP/e19t4.json" \
  || { echo "e19 smoke: --threads 4 diverged from --threads 1"; exit 1; }
timeout 120 ./target/release/e19_fleet --smoke --json "$E15_TMP/e19live.json" >/dev/null \
  || { echo "e19 smoke: fleet did not survive device crashes (failover liveness broken)"; exit 1; }
# A 1-device zero-fault fleet is the same machine as a plain System: both
# exports must be byte-identical (the files carry no host section at all).
./target/release/e19_fleet --smoke --equivalence "$E15_TMP/e19eq" >/dev/null 2>&1
"$JDIFF" "$E15_TMP/e19eq.single.json" "$E15_TMP/e19eq.fleet.json" \
  || { echo "e19: 1-device fleet diverged from the plain single-device system"; exit 1; }
python3 - "$E15_TMP/e19live.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
reports = {r["label"]: r for r in doc["reports"]}
for label, r in reports.items():
    if "/none/" in label or label.endswith("/none"):
        assert "fleet" not in r, f"zero-rate cell {label} grew a fleet section"
storm = [r for l, r in reports.items() if "/storm/" in l and "ablation" not in l]
assert storm, "no storm cells in smoke sweep"
assert any(r["fleet"]["failovers"] > 0 for r in storm), \
    "no storm cell failed over"
for r in storm:
    assert r["fleet"]["lost_in_flight"] == 0, "capacity cell lost work"
    assert not any(t.get("lost_in_flight") for t in r["tasks"]), \
        "capacity cell flagged a task lost"
abl = next(r for l, r in reports.items() if "ablation" in l)
fl = abl["fleet"]
assert fl["lost_in_flight"] > 0, "ablation cell lost nothing"
flagged = sum(1 for t in abl["tasks"] if t.get("lost_in_flight"))
assert flagged == fl["lost_in_flight"], "per-task lost flags disagree with the counter"
for t in abl["tasks"]:
    assert not (t.get("lost_in_flight") and (t.get("failed") or t.get("rejected")
                or t.get("quarantined"))), "lost_in_flight overlaps another slice"
print(f"e19 gate: {sum(r['fleet']['failovers'] for r in storm)} failovers, "
      f"capacity cells lost 0, ablation lost {fl['lost_in_flight']} (disjoint slice)")
PY

echo "==> e20 delta smoke (determinism + delta-beats-full + outcome identity)"
# Same determinism contract as e15-e19. The binary is its own main gate:
# it aborts in-process if any delta cell diverges from its full-download
# twin (diff_reports), if delta config overhead ever exceeds full, or if
# a >=50%-similar family never goes delta. The JSON pass re-checks the
# off-switch: delta-off cells must export no "delta" section at all —
# byte-identical to pre-delta behavior (the e01-e19 exports were verified
# unchanged against the pre-delta build when this gate was introduced).
./target/release/e20_delta --smoke --seed 3605 --json "$E15_TMP/e20a.json" >/dev/null
./target/release/e20_delta --smoke --seed 3605 --json "$E15_TMP/e20b.json" >/dev/null
"$JDIFF" "$E15_TMP/e20a.json" "$E15_TMP/e20b.json" \
  || { echo "e20 smoke: same-seed runs are not identical modulo host"; exit 1; }
./target/release/e20_delta --smoke --threads 1 --json "$E15_TMP/e20t1.json" >/dev/null
./target/release/e20_delta --smoke --threads 4 --json "$E15_TMP/e20t4.json" >/dev/null
"$JDIFF" "$E15_TMP/e20t1.json" "$E15_TMP/e20t4.json" \
  || { echo "e20 smoke: --threads 4 diverged from --threads 1"; exit 1; }
timeout 120 ./target/release/e20_delta --smoke --json "$E15_TMP/e20live.json" >/dev/null \
  || { echo "e20 smoke: in-process delta gates failed (outcome divergence or lost savings)"; exit 1; }
python3 - "$E15_TMP/e20live.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
reports = {r["label"]: r for r in doc["reports"]}
fulls = {l: r for l, r in reports.items() if l.endswith("/full")}
deltas = {l: r for l, r in reports.items() if l.endswith("/delta")}
assert fulls and len(fulls) == len(deltas), "unpaired e20 cells"
for l, r in fulls.items():
    assert "delta" not in r, f"delta-off cell {l} grew a delta section"
for l, r in deltas.items():
    assert "delta" in r, f"delta cell {l} lost its delta section"
high = [r for l, r in deltas.items() if float(l.split("/")[0][3:]) >= 0.5]
assert any(r["delta"]["delta_downloads"] > 0 for r in high), \
    "no >=50%-similar cell ever downloaded a delta"
counters = doc["metrics"]["counters"]
assert counters["delta_frames_saved"] > 0, "delta saved zero frames"
print(f"e20 gate: {len(fulls)} cell pairs, {counters['delta_downloads']} delta "
      f"downloads, {counters['delta_frames_saved']} frames saved, off-cells clean")
PY

echo "==> e21 live-migration smoke (determinism + crash-window equivalence + liveness)"
# Same determinism contract as e15-e20. The binary is its own main gate:
# it aborts in-process if any cell — including the three crash-window
# cells — diverges from the migration-free baseline (diff_reports), if a
# crash window resolves wrongly (intent-without-commit not rolled back,
# commit-without-free not redone idempotently), or if the rebalance cell
# leaves the piled-up tenants on one device. The wall-clock timeout
# catches a migration handler that stops the fleet loop from converging;
# the JSON pass re-checks the exported counters per crash window.
./target/release/e21_migration --smoke --seed 3605 --json "$E15_TMP/e21a.json" >/dev/null
./target/release/e21_migration --smoke --seed 3605 --json "$E15_TMP/e21b.json" >/dev/null
"$JDIFF" "$E15_TMP/e21a.json" "$E15_TMP/e21b.json" \
  || { echo "e21 smoke: same-seed runs are not identical modulo host"; exit 1; }
./target/release/e21_migration --smoke --threads 1 --json "$E15_TMP/e21t1.json" >/dev/null
./target/release/e21_migration --smoke --threads 4 --json "$E15_TMP/e21t4.json" >/dev/null
"$JDIFF" "$E15_TMP/e21t1.json" "$E15_TMP/e21t4.json" \
  || { echo "e21 smoke: --threads 4 diverged from --threads 1"; exit 1; }
timeout 120 ./target/release/e21_migration --smoke --json "$E15_TMP/e21live.json" >/dev/null \
  || { echo "e21 smoke: in-process migration gates failed (outcome divergence or unresolved crash window)"; exit 1; }
python3 - "$E15_TMP/e21live.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
reports = {r["label"]: r for r in doc["reports"]}
for label, r in reports.items():
    fl = r.get("fleet", {})
    assert fl.get("lost_in_flight", 0) == 0, f"cell {label} lost work in flight"
    assert not any(t.get("lost_in_flight") for t in r["tasks"]), \
        f"cell {label} flagged a task lost"
    if label.startswith("none/"):
        assert "fleet" not in r, f"zero-rate cell {label} grew a fleet section"
    if "src-mid-prepare" in label or "dest-mid-copy" in label:
        assert fl.get("migration_aborts", 0) >= 1, \
            f"{label}: intent-without-commit was not rolled back"
        assert "migration_redone_frees" not in fl, \
            f"{label}: pre-commit crash redid a free"
    if "commit-no-free" in label:
        assert fl.get("migration_redone_frees", 0) >= 1, \
            f"{label}: commit-without-free was not redone by replay"
        assert "migration_aborts" not in fl, f"{label}: committed migration aborted"
migrated = sum(r.get("fleet", {}).get("tenant_migrations", 0) for r in reports.values())
assert migrated > 0, "no cell exercised a live migration"
counters = doc["metrics"]["counters"]
print(f"e21 gate: {migrated} migrations across {len(reports)} cells, "
      f"{counters['migration_aborts']} rolled back, "
      f"{counters['migration_redone_frees']} frees redone, zero lost")
PY

echo "==> pnr disk-cache smoke (cold populate / warm hit / corrupt-entry fallback)"
# The persistent compile cache must be invisible to results: a warm
# process and a process reading a vandalized cache must both reproduce
# the cold export byte-for-byte (corrupt entries read as misses and are
# rewritten; the cache is advisory, never load-bearing).
CACHE_DIR="$E15_TMP/pnr-cache"
VFPGA_CACHE_DIR="$CACHE_DIR" ./target/release/e15_fault_recovery --smoke --seed 3605 \
  --json "$E15_TMP/cachecold.json" >/dev/null
ls "$CACHE_DIR"/*.json >/dev/null 2>&1 \
  || { echo "disk cache: cold run wrote no entries"; exit 1; }
VFPGA_CACHE_DIR="$CACHE_DIR" ./target/release/e15_fault_recovery --smoke --seed 3605 \
  --json "$E15_TMP/cachewarm.json" >/dev/null
"$JDIFF" "$E15_TMP/cachecold.json" "$E15_TMP/cachewarm.json" \
  || { echo "disk cache: warm run diverged from cold"; exit 1; }
for f in "$CACHE_DIR"/*.json; do printf 'not json' > "$f"; done
VFPGA_CACHE_DIR="$CACHE_DIR" ./target/release/e15_fault_recovery --smoke --seed 3605 \
  --json "$E15_TMP/cachebad.json" >/dev/null
"$JDIFF" "$E15_TMP/cachecold.json" "$E15_TMP/cachebad.json" \
  || { echo "disk cache: corrupt entries changed results"; exit 1; }
if grep -lq 'not json' "$CACHE_DIR"/*.json; then
  echo "disk cache: corrupt entries were not rewritten"; exit 1
fi
echo "disk-cache gate: $(ls "$CACHE_DIR"/*.json | wc -l) entries, warm and corrupt runs identical to cold"

echo "==> bench_perf smoke (perf schema + self-compare + thread invariance)"
# The perf harness must (a) write a document that parses back through the
# bench JSON reader with the expected schema, (b) report zero regressions
# when compared against itself, and (c) keep its deterministic `sim`
# section byte-identical at any --threads — jdiff strips the volatile
# host section exactly as it does for experiment exports.
./target/release/bench_perf --smoke --threads 1 --out "$E15_TMP/perf1.json" >/dev/null
./target/release/bench_perf --smoke --threads 4 --out "$E15_TMP/perf4.json" >/dev/null
"$JDIFF" "$E15_TMP/perf1.json" "$E15_TMP/perf4.json" \
  || { echo "bench_perf: --threads 4 diverged from --threads 1"; exit 1; }
./target/release/bench_perf --compare "$E15_TMP/perf1.json" "$E15_TMP/perf1.json" \
  || { echo "bench_perf: self-compare flagged regressions"; exit 1; }
python3 - "$E15_TMP/perf1.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "vfpga-bench-perf/1", f"unexpected schema {doc['schema']}"
cases = doc["host"]["cases"]
for case in ["compile_cold", "compile_warm", "compile_disk_warm", "download_full",
             "download_partial", "download_delta", "ckpt_crash_replay", "ckpt_delta",
             "fleet_failover", "migrate_live", "macro_point"]:
    assert case in cases, f"missing case {case}"
    assert cases[case]["iters"] > 0, f"case {case} ran no iterations"
assert doc["sim"]["latency_ns"], "no simulated latency histograms"
assert any(k.startswith("system") for k in doc["sim"]["span_counts"]), \
    "no event-loop span counts"
print(f"bench_perf gate: {len(cases)} cases, schema {doc['schema']}")
PY

echo "==> bench_perf regression gate (pinned baseline)"
# A smoke-profile baseline measured on a known-good commit is pinned in
# the repo; the compare judges best-of-N (min_ns) and the generous
# tolerance absorbs host noise while still catching order-of-magnitude
# regressions. A flagged run is re-measured once on a quiet machine
# state before failing — a real regression reproduces, a loaded-host
# artifact does not. Refresh with:
#   ./target/release/bench_perf --smoke --threads 1 --out BENCH_<sha>.json
BASELINE="$(ls BENCH_*.json 2>/dev/null | sort | head -n 1 || true)"
if [ -n "$BASELINE" ]; then
  if ! ./target/release/bench_perf --compare "$BASELINE" "$E15_TMP/perf1.json" --tolerance-pct 400; then
    echo "bench_perf: flagged vs pinned $BASELINE; re-measuring once"
    ./target/release/bench_perf --smoke --threads 1 --out "$E15_TMP/perf_retry.json" > /dev/null
    ./target/release/bench_perf --compare "$BASELINE" "$E15_TMP/perf_retry.json" --tolerance-pct 400 \
      || { echo "bench_perf: regression against pinned $BASELINE (reproduced)"; exit 1; }
  fi
else
  echo "no pinned BENCH_*.json baseline found; skipping"
fi

echo "CI green."
