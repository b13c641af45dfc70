//! `trace_dump`'s views, pinned byte for byte.
//!
//! Each case runs the real binary and compares its stdout with
//! `golden/trace_dump/<name>.txt`, written by the build *before* the
//! `trace_dump` / `TraceEvent` rewrite (PR 25), so the goldens are what the
//! rewrite is judged by, not what it produced. Seeded violation: changing
//! one character of one `TraceEvent` message (`SchedulerDispatch`'s
//! "still queued" → "still queues") fails `every_view_matches_its_golden`
//! on the two views that list dispatches, `default` and `faults`. Refresh a
//! golden only in a change that means to move a view, and say which in
//! CHANGES.md:
//!
//! ```sh
//! ./target/release/trace_dump --section delta > crates/bench/golden/trace_dump/delta.txt
//! ```

use std::path::Path;
use std::process::Command;

/// Golden file stem, then the arguments that produce it.
const VIEWS: &[(&str, &[&str])] = &[
    ("default", &[]),
    ("tag_config_limit10", &["--tag", "config", "--limit", "10"]),
    ("summary", &["--summary"]),
    ("faults", &["--section", "faults"]),
    ("checkpoints", &["--section", "checkpoints"]),
    ("admission", &["--section", "admission"]),
    ("deadlines", &["--section", "deadlines"]),
    ("delta", &["--section", "delta"]),
    ("fleet", &["--section", "fleet"]),
    (
        "delta_checkpoints",
        &["--section", "delta", "--section", "checkpoints"],
    ),
    (
        "delta_faults",
        &["--section", "delta", "--section", "faults"],
    ),
];

fn trace_dump(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_trace_dump"))
        .args(args)
        .output()
        .expect("trace_dump runs");
    assert!(out.status.success(), "trace_dump {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("trace_dump prints UTF-8")
}

#[test]
fn every_view_matches_its_golden() {
    // Read at run time, not baked in: a test binary another checkout left
    // in a shared target directory would otherwise read that checkout's.
    let here = std::env::var("CARGO_MANIFEST_DIR").expect("cargo runs the tests");
    let mut differ = Vec::new();
    for &(name, args) in VIEWS {
        let path = Path::new(&here).join(format!("golden/trace_dump/{name}.txt"));
        let golden = std::fs::read_to_string(&path).expect("golden exists");
        if trace_dump(args) != golden {
            differ.push(format!("{name} (trace_dump {})", args.join(" ")));
        }
    }
    assert!(differ.is_empty(), "views differ from golden: {differ:?}");
}

/// The profile view is wall clock; only its three headers are stable.
#[test]
fn profile_view_prints_its_three_sections() {
    let out = trace_dump(&["--section", "profile", "--summary"]);
    let headers: Vec<&str> = out.lines().filter(|l| l.starts_with("## ")).collect();
    assert_eq!(
        headers,
        [
            "## host spans (wall clock, inclusive/exclusive)",
            "## collapsed stacks (flamegraph.pl / inferno format)",
            "## simulated latency histograms (ns, log-bucketed)",
        ]
    );
}
