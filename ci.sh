#!/usr/bin/env bash
# CI — .github/workflows/ci.yml runs this script and nothing else.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
# Unresolved and private intra-doc links fail here (ROADMAP item 13a). The
# TraceEvent variants and their field docs come out of fsim's
# trace_events! table, so this also renders what the macro generates.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> examples, release"
# No test runs the five examples/ (a few ms each): each must exit 0.
cargo build -q --release --examples
for example in examples/*.rs; do
  example="$(basename "$example" .rs)"
  echo "  $example"
  "./target/release/examples/$example" >/dev/null
done

echo "==> cargo test"
# The experiment gates live here too: crates/bench/tests/experiments.rs
# runs all 21 smoke sweeps against their committed goldens, byte for
# byte, and asserts what each export must mean (DESIGN.md §17 maps every
# former shell/Python gate to its test). Cargo's `Running` lines are kept
# (only the harness is quiet) so the slowest binaries can be named below.
tier1_log="$(mktemp)"
trap 'rm -f "$tier1_log"' EXIT
cargo test --workspace -- -q 2>&1 | tee "$tier1_log"

echo "==> compile-flow oracles and golden, router oracle, release"
# The benchmark measures release code — the placer's float acceptance test
# and its refusal at the bound, the router's booked footprints; the run
# above was a debug build. The placer oracle's wide sweep (32 seeds) runs
# only here.
cargo test -q --release -p netlist --test mapper_oracle
cargo test -q --release -p pnr --test flow_golden --test route_template
cargo test -q --release -p pnr --test place_oracle -- --include-ignored

echo "==> frame-diff oracle and work budgets, release"
# The benchmark's `fabric` diffs in release code, and the budgets count
# allocations, which debug builds' invariant checkers inflate: the budgets
# test is ignored under debug assertions and runs only here.
cargo test -q --release -p fpga --test diff_oracle
cargo test -q --release -p bench --test budgets

echo "==> the churn shape's pinned counters, the column map's and the partition sets' oracles, release"
# `churn` runs the partition manager's first fit, LRU victim, local merges
# and pair-table pricing in release code; Tier-1 pinned them in debug. The
# first oracle walks partitions and overlay against the ghost list and
# dirty set the port's column map replaced; the second walks the partition
# sets against the partition list they replaced, its wide walks only here.
cargo test -q --release -p bench --test churn_shape
cargo test -q --release -p vfpga --lib -- delta_oracle
cargo test -q --release -p vfpga --lib -- partition_oracle --include-ignored

echo "==> codec suite, compile-cache entries, image goldens, image tests, capture window and crash restore, release"
# `durable` and `fleet` reps run the release writer, and a release build
# wraps where debug panics (a delta image's ghost count once did). The
# codec itself is fsim's, and the compile cache's entries go through it
# too. The capture window's copy count and its full-table check run here
# too: in the benchmark's release build the check is compiled out.
# `durable` and `fleet` also crash and restore in release code, where the
# journal a capture ends and the restore that replays it run without the
# debug build's checks; the crash-restore suite runs here for that.
cargo test -q --release -p fsim --lib json
cargo test -q --release -p pnr --lib disk
cargo test -q --release -p vfpga --lib -- image capture_window
cargo test -q --release -p vfpga --test crash_restore

echo "==> event queue oracle, the kernel's segment-end gates and rendered arrivals, release"
# The benchmark's kernel holds the running segment's end outside the
# queue and reads arrivals off the task table; the oracle holds an event
# the same way against a queue that holds every event, the gate counts a
# stream-shaped run's events and heap pushes, the tie test pins capture
# and restore order at one instant, and the strict reader accepts a
# rendered arrival only where the task table puts it.
cargo test -q --release -p fsim --test event_queue_oracle
cargo test -q --release -p vfpga --lib -- segment_end rendered_arrivals

echo "==> cut equivalence, wide matrix, release"
# Every event instant of a 40-task run, cut and adopted typed and through
# the durable form; Tier-1 ran the 8-task matrix under debug assertions.
cargo test -q --release -p vfpga --test cut_equivalence -- --include-ignored

echo "==> repository benchmark (frozen API surface: --check + unit tests; benchmark/Cargo.lock put back as found)"
# benchmark/ is its own package and nothing in the workspace builds it, so
# a change that breaks what it uses of the public API (`CrashState`,
# `CheckpointImage.state`, `restore_from`, the two policy traits) would
# otherwise pass CI and fail the pipeline. Both build into the workspace
# target directory. The build rewrites benchmark/Cargo.lock (the lock
# lacks the `netlist -> fsim` edge, which only a change to the benchmark
# may add), so the lock is saved here and put back on exit, pass or fail:
# no other change can commit a rewritten one.
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
trap 'rm -f "$tier1_log"; cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"' EXIT
CARGO_TARGET_DIR="$PWD/target/benchmark" benchmark/run --check >/dev/null
CARGO_TARGET_DIR="$PWD/target/benchmark" \
  cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The two numbers ROADMAP aim 2 tracks, then how the lines split, crate
# by crate too, and how many the experiments take. Files under tests/ and *_tests.rs count as
# test, and so does each item a #[cfg(test)] line gates: a `mod x;` line,
# or the next item up to its closing brace (braces in strings, char
# literals and // comments aside). Blank and comment lines after a gated
# item go with the next code line: test before another gated item or at
# the file's end. So "fewer lines" cannot be met by moving code into tests,
# and the next god object shows up in every log. Last, by the same rule,
# the places non-test crates/vfpga/src can panic (comment lines aside):
# ROADMAP item 1 wants each to name its invariant or become a VfpgaError.
echo "crates/: $(find crates -name '*.rs' | xargs cat | wc -l) lines in" \
  "$(find crates -name '*.rs' | wc -l) .rs files"
# A task's slot, the row of the kernel's table and of every capture
# (ROADMAP item 11): at 80 bytes a 300k-task table stays under the
# allocator's mmap-threshold ceiling. Then the spec and its report row:
# the report writes its rows over the spec table only while the two have
# one size and alignment, which the `repr(align(16))` on both provides.
cargo test -q -p vfpga --lib task::tests::slot_bytes -- --nocapture |
  grep -E '^Task(Slot|Spec):' | sed 's/^/crates\/vfpga: /'
find crates -name '*.rs' | sort | xargs awk '
  function tally(test, k,   c) {
    if (test) { t += k; return }
    n += k; per[FILENAME] += k
    c = FILENAME; sub(/^crates\//, "", c); sub(/\/.*/, "", c)
    if (!(c in crate)) order[++crates] = c
    crate[c] += k
    if (per[FILENAME] > max) { max = per[FILENAME]; big = FILENAME }
    if (FILENAME ~ /^crates\/bench\/src\/exp\//) e += k
    if (FILENAME ~ /^crates\/vfpga\/src\//) v += k
  }
  FNR == 1 { t += held; held = gate = after = 0
             whole = (FILENAME ~ /\/tests\// || FILENAME ~ /_tests\.rs$/) }
  { code = $0; gsub(/\\\\|\\"|\047.\047|\047\\.\047/, "", code); gsub(/"[^"]*"/, "", code)
    sub(/\/\/.*/, "", code) }
  after && code !~ /[^[:space:]]/ { held++; next }
  !gate && /^[[:space:]]*#\[cfg\(test\)\]/ { gate = 1; depth = opened = 0 }
  after { tally(gate, held); held = after = 0 }
  { test = whole || gate; tally(test, 1) }
  gate { o = gsub(/\{/, "", code); depth += o - gsub(/\}/, "", code); opened = opened || o
         if (opened ? depth == 0 : code ~ /;/) gate = 0; after = !gate }
  !test && FILENAME ~ /^crates\/vfpga\/src\// && !/^[[:space:]]*\/\// {
    p += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "&") }
  END { t += held
        printf "crates/: %d non-test + %d test lines; largest non-test file %s (%d)\n", n, t, big, max
        by = ""; for (i = 1; i <= crates; i++) by = by (i > 1 ? ", " : "") order[i] " " crate[order[i]]
        printf "crates/: non-test lines by crate: %s\n", by
        printf "crates/vfpga/src: %d non-test lines\n", v
        printf "crates/bench/src/exp: %d non-test lines (the experiments and their runner)\n", e
        printf "crates/vfpga/src: %d unwrap/expect/panic!/unreachable! sites in non-test code\n", p }'
# Every ignored test under crates/ with its reason, so a parked reproducer
# shows in every log: the list is meant to hold only the release-only
# sweeps and the budgets.
echo "crates/: ignored tests"
find crates -name '*.rs' | sort | xargs awk '
  /#\[ignore|^[[:space:]]*ignore = "/ { at = FILENAME ":" FNR; why = "(no reason given)"
    if (match($0, /"[^"]*"/)) why = substr($0, RSTART + 1, RLENGTH - 2) }
  why != "" && /^[[:space:]]*fn / { name = $0; sub(/^[[:space:]]*fn /, "", name); sub(/\(.*/, "", name)
    printf "  %s %s: %s\n", at, name, why; why = "" }'
# Tier-1's time is tracked too (ROADMAP item 18): the five slowest test
# binaries of the run above, by the harness's own "finished in".
echo "Tier-1: the five slowest test binaries"
awk '/^ *Running / { p = $NF; gsub(/[()]/, "", p); n = split(p, a, "/")
                     bin = a[n]; sub(/-[0-9a-f]+$/, "", bin) }
     /^ *Doc-tests / { bin = "doc-tests " $2 }
     /^test result:/ { t = $NF; sub(/s$/, "", t); printf "  %7.2f s  %s\n", t, bin }' \
  "$tier1_log" | sort -rn | sed -n 1,5p
# Doc lines are tracked too (ROADMAP item 13): what a reader has to get
# through besides the code.
echo "docs: $(cat README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CHANGES.md docs/*.md |
  wc -l) lines in README, DESIGN, EXPERIMENTS, ROADMAP, CHANGES and docs/*.md"
# Functions over 100 code lines in non-test crates/ (no --all-targets, so
# test code is not compiled): a second clippy pass whose one lint only
# warns, counted and never failed on, then each one's file:line.
long="$(cargo clippy --workspace -- -W clippy::too_many_lines 2>&1 |
  grep -A1 'has too many lines' | sed -n 's/^ *--> \(crates\/[^:]*:[0-9]*\).*/\1/p' || true)"
echo "crates/: $(printf '%s' "$long" | grep -c .) functions over 100 code lines"
printf '%s\n' "$long" | sed '/^$/d; s/^/  /'
echo "CI green."
