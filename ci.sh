#!/usr/bin/env bash
# CI — .github/workflows/ci.yml runs this script and nothing else.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors)"
# Unresolved and private intra-doc links fail here (ROADMAP item 6b). The
# TraceEvent variants and their field docs come out of fsim's
# trace_events! table, so this also renders what the macro generates.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
# The experiment gates live here too: crates/bench/tests/experiments.rs
# runs all 21 smoke sweeps against their committed goldens at 1 and 4
# threads and asserts what each export must mean (DESIGN.md §17 maps every
# former shell/Python gate to its test).
cargo test -q --workspace

echo "==> compile-flow oracles and golden, router oracle, release"
# The benchmark measures release code — the placer's float acceptance test,
# the router's booked footprints; the run above was a debug build.
cargo test -q --release -p netlist --test mapper_oracle
cargo test -q --release -p pnr --test place_oracle --test flow_golden --test route_template

echo "==> cut equivalence, wide matrix, release"
# Every event instant of a 40-task run, cut and adopted typed and through
# the durable form; Tier-1 ran the 8-task matrix under debug assertions.
cargo test -q --release -p vfpga --test cut_equivalence -- --include-ignored

echo "==> repository benchmark (frozen API surface: --check + unit tests)"
# benchmark/ is its own package and nothing in the workspace builds it, so
# a change that breaks what it uses of the public API (`CrashState`,
# `CheckpointImage.state`, `restore_from`, the two policy traits) would
# otherwise pass CI and fail the pipeline. Both build into the workspace
# target directory.
CARGO_TARGET_DIR="$PWD/target/benchmark" benchmark/run --check >/dev/null
CARGO_TARGET_DIR="$PWD/target/benchmark" \
  cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The two numbers ROADMAP aim 2 tracks, then how the lines split. Files
# under tests/, *_tests.rs, and everything from a file's #[cfg(test)] on
# count as test — so "fewer lines" cannot be met by moving code into tests,
# and the next god object shows up in every log. Last, by the same rule,
# the places non-test crates/vfpga/src can panic (comment lines aside):
# ROADMAP item 1 wants each to name its invariant or become a VfpgaError.
echo "crates/: $(find crates -name '*.rs' | xargs cat | wc -l) lines in" \
  "$(find crates -name '*.rs' | wc -l) .rs files"
find crates -name '*.rs' | sort | xargs awk '
  FNR == 1 { test = (FILENAME ~ /\/tests\// || FILENAME ~ /_tests\.rs$/) }
  /^[[:space:]]*#\[cfg\(test\)\]/ { test = 1 }
  { if (test) t++; else { n++; if (++per[FILENAME] > max) { max = per[FILENAME]; big = FILENAME } } }
  !test && FILENAME ~ /^crates\/vfpga\/src\// && !/^[[:space:]]*\/\// {
    p += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "&") }
  END { printf "crates/: %d non-test + %d test lines; largest non-test file %s (%d)\n", n, t, big, max
        printf "crates/vfpga/src: %d unwrap/expect/panic!/unreachable! sites in non-test code\n", p }'
# Functions over 100 code lines in non-test crates/ (no --all-targets, so
# test code is not compiled): a second clippy pass whose one lint only
# warns, counted and never failed on.
echo "crates/: $(cargo clippy --workspace -- -W clippy::too_many_lines 2>&1 |
  grep -A1 'has too many lines' | grep -c -- '--> crates/') functions over 100 code lines"
echo "CI green."
