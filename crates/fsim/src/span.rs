//! Hierarchical scoped-span host profiling.
//!
//! This is the *wall-clock* sibling of the simulated-time observability in
//! [`crate::obs`]: RAII guards time how long the host spends in a region of
//! code, nested guards form a span tree, and the thread's records come back
//! as a [`SpanProfile`] whose paths iterate in sorted order. It subsumes
//! the ad-hoc `FlowProfile` timers the compilation flow used to carry:
//! `pnr::compile` now records `pnr;map`, `pnr;pack`, … spans here. The
//! `vfpga` event loop records one `system;<event>` span per event kind
//! (`system;dispatch`, `system;timer`, …), plus `capture`, `image_json`,
//! `restore`, `failover`, `migrate_in`, `run_shard` and `fleet`; no span
//! sits at a manager or scheduler call.
//!
//! Recording is **off by default**. A guard then costs one load of a
//! thread-local `bool` that only [`scoped`] sets — inlined at the call
//! site, no call and no `RefCell` borrow — so instrumented hot paths stay
//! cheap in ordinary runs, an event loop with a guard on every event
//! included. A profiling harness wraps the region of interest in
//! [`scoped`]:
//!
//! ```
//! use fsim::span;
//! let (result, profile) = span::scoped(|| {
//!     let _outer = span::guard("work");
//!     {
//!         let _inner = span::guard("inner");
//!     }
//!     42
//! });
//! assert_eq!(result, 42);
//! assert_eq!(profile.get("work").unwrap().count, 1);
//! assert_eq!(profile.get("work;inner").unwrap().count, 1);
//! ```
//!
//! Wall-clock durations are inherently volatile: they are printed by
//! profiling views (`trace_dump --section profile`) and the benchmark,
//! never written into deterministic output.

use crate::stats::LogHistogram;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Separator between span names in a path — the flamegraph
/// collapsed-stack convention (`parent;child;grandchild`).
pub const PATH_SEP: char = ';';

/// Accumulated statistics for one span path.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered.
    pub count: u64,
    /// Inclusive wall time: everything between enter and exit.
    pub total_ns: u64,
    /// Wall time attributed to child spans (inclusive of *their* children).
    pub child_ns: u64,
    /// Per-invocation inclusive latency distribution.
    pub hist: LogHistogram,
}

impl SpanStat {
    /// Exclusive wall time: inclusive minus time spent in child spans.
    pub fn exclusive_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

/// A merged collection of span statistics keyed by `;`-joined path.
///
/// Iteration is in path order; because `;` sorts before every printable
/// identifier character, a parent path always precedes its children, which
/// makes the indented tree rendering a single linear pass.
#[derive(Debug, Clone, Default)]
pub struct SpanProfile {
    spans: BTreeMap<String, SpanStat>,
}

impl SpanProfile {
    /// An empty profile.
    pub fn new() -> Self {
        SpanProfile::default()
    }

    /// Look up a span by its full path (e.g. `"system;dispatch"`).
    pub fn get(&self, path: &str) -> Option<&SpanStat> {
        self.spans.get(path)
    }

    /// All spans in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SpanStat)> + '_ {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct span paths.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Sum of inclusive time over root spans (paths with no parent).
    pub fn root_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|(p, _)| !p.contains(PATH_SEP))
            .map(|(_, s)| s.total_ns)
            .sum()
    }

    /// Render the span tree: one line per span, indented by depth, with
    /// call count and inclusive/exclusive milliseconds. Parents precede
    /// children by the path ordering, so this is a single pass.
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<40} {:>8} {:>12} {:>12}",
            "span", "count", "incl (ms)", "excl (ms)"
        );
        for (path, s) in &self.spans {
            let depth = path.matches(PATH_SEP).count();
            let name = path.rsplit(PATH_SEP).next().unwrap_or(path);
            let label = format!("{}{}", "  ".repeat(depth), name);
            let _ = writeln!(
                out,
                "{:<40} {:>8} {:>12.3} {:>12.3}",
                label,
                s.count,
                s.total_ns as f64 / 1e6,
                s.exclusive_ns() as f64 / 1e6,
            );
        }
        out
    }

    /// Flamegraph-compatible collapsed-stack text: one
    /// `path;to;span <exclusive_ns>` line per span, in path order. Feed
    /// it straight to `flamegraph.pl` (or any collapsed-stack consumer).
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, s) in &self.spans {
            let _ = writeln!(out, "{path} {}", s.exclusive_ns());
        }
        out
    }
}

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

struct Recorder {
    stack: Vec<Frame>,
    done: BTreeMap<String, SpanStat>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            stack: Vec::with_capacity(8),
            done: BTreeMap::new(),
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
    /// Whether `RECORDER` holds a recorder: what a guard reads first.
    /// Only [`scoped`] sets it, and puts back what it found on the way
    /// out, returning or unwinding.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
}

/// Whether span recording is active on this thread.
#[inline]
pub fn profiling_enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// An RAII span: records the wall time from construction to drop under the
/// current span path. A no-op (one thread-local `bool` load) when
/// recording is not enabled on this thread.
#[must_use = "a span guard times the scope it lives in; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    name: &'static str,
    active: bool,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.active {
            self.close();
        }
    }
}

impl SpanGuard {
    /// Record the span this active guard opened.
    #[inline(never)]
    fn close(&self) {
        RECORDER.with(|r| {
            let mut slot = r.borrow_mut();
            let Some(rec) = slot.as_mut() else { return };
            // Guards are strictly LIFO within a thread; a mismatch means a
            // guard escaped its scope — drop the record rather than corrupt
            // the tree.
            if rec.stack.last().map(|f| f.name) != Some(self.name) {
                debug_assert!(false, "span guard '{}' dropped out of order", self.name);
                return;
            }
            let frame = rec.stack.pop().expect("matched above");
            let dur = frame.start.elapsed().as_nanos() as u64;
            let mut path = String::with_capacity(32);
            for f in &rec.stack {
                path.push_str(f.name);
                path.push(PATH_SEP);
            }
            path.push_str(self.name);
            let e = rec.done.entry(path).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.child_ns += frame.child_ns;
            e.hist.record(dur);
            if let Some(parent) = rec.stack.last_mut() {
                parent.child_ns += dur;
            }
        });
    }
}

/// Open a span named `name` under the current span path. Close it by
/// dropping the returned guard.
#[inline]
pub fn guard(name: &'static str) -> SpanGuard {
    let active = profiling_enabled() && open(name);
    SpanGuard { name, active }
}

/// Push a frame for `name` onto this thread's recorder, if it has one.
#[inline(never)]
fn open(name: &'static str) -> bool {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        match slot.as_mut() {
            Some(rec) => {
                rec.stack.push(Frame {
                    name,
                    start: Instant::now(),
                    child_ns: 0,
                });
                true
            }
            None => false,
        }
    })
}

/// Run `f` inside a span named `name`.
#[inline]
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _g = guard(name);
    f()
}

/// Run `f` with span recording enabled on this thread, returning its result
/// and the recorded profile. Nesting is supported: an outer [`scoped`]'s
/// recorder is saved and restored, so a library can profile internally
/// without clobbering its caller's spans (the inner region's spans simply
/// don't appear in the outer profile). If `f` panics, the outer recorder
/// (or none) is back in place before the panic leaves `scoped`.
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, SpanProfile) {
    let outer = Reinstate(RECORDER.with(|r| r.borrow_mut().replace(Recorder::new())));
    ENABLED.with(|e| e.set(true));
    let out = f();
    let rec = RECORDER.with(|r| r.borrow_mut().take());
    drop(outer);
    let rec = rec.expect("scoped installed a recorder above");
    debug_assert!(
        rec.stack.is_empty(),
        "span guards must not outlive span::scoped"
    );
    (out, SpanProfile { spans: rec.done })
}

/// Puts the recorder [`scoped`] displaced back, with the flag that goes
/// with it, however `scoped`'s closure leaves: returning or unwinding.
struct Reinstate(Option<Recorder>);

impl Drop for Reinstate {
    fn drop(&mut self) {
        let outer = self.0.take();
        ENABLED.with(|e| e.set(outer.is_some()));
        RECORDER.with(|r| *r.borrow_mut() = outer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_guards_are_noops() {
        assert!(!profiling_enabled());
        let g = guard("nothing");
        drop(g);
        let (_, p) = scoped(|| ());
        assert!(p.is_empty());
    }

    #[test]
    fn nested_spans_form_paths_and_exclusive_subtracts_children() {
        let ((), p) = scoped(|| {
            let _a = guard("a");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _b = guard("b");
                std::thread::sleep(Duration::from_millis(2));
            }
            {
                let _b = guard("b");
            }
        });
        assert!(!profiling_enabled());
        let a = p.get("a").unwrap();
        let b = p.get("a;b").unwrap();
        assert_eq!(a.count, 1);
        assert_eq!(b.count, 2);
        assert!(a.total_ns >= b.total_ns, "parent includes child time");
        assert_eq!(a.child_ns, b.total_ns, "child time attributed to parent");
        assert!(a.exclusive_ns() <= a.total_ns);
        assert_eq!(b.hist.count(), 2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.root_total_ns(), a.total_ns);
    }

    #[test]
    fn sibling_spans_at_root_are_separate() {
        let ((), p) = scoped(|| {
            time("x", || ());
            time("y", || ());
            time("x", || ());
        });
        assert_eq!(p.get("x").unwrap().count, 2);
        assert_eq!(p.get("y").unwrap().count, 1);
        let paths: Vec<_> = p.iter().map(|(k, _)| k).collect();
        assert_eq!(paths, vec!["x", "y"], "iteration is path-sorted");
    }

    #[test]
    fn scoped_nests_without_clobbering_outer() {
        let ((), outer) = scoped(|| {
            let _o = guard("outer");
            let ((), inner) = scoped(|| {
                time("inner", || ());
            });
            assert!(inner.get("inner").is_some());
            assert!(inner.get("outer").is_none(), "inner profile is fresh");
        });
        assert!(outer.get("outer").is_some());
        assert!(
            outer.get("inner").is_none(),
            "inner spans stay in the inner profile"
        );
    }

    #[test]
    fn a_panic_inside_scoped_reinstates_the_outer_recorder() {
        let unwinds = |f: fn()| std::panic::catch_unwind(f).is_err();
        assert!(unwinds(|| {
            let _ = scoped(|| panic!("inside an outermost scoped"));
        }));
        assert!(!profiling_enabled(), "no recorder is left behind");
        let (_, p) = scoped(|| ());
        assert!(p.is_empty());

        let ((), outer) = scoped(|| {
            let _o = guard("outer");
            assert!(unwinds(|| {
                let _ = scoped(|| {
                    let _i = guard("inner");
                    panic!("inside a nested scoped");
                });
            }));
            assert!(profiling_enabled(), "the outer recorder is back");
            time("after", || ());
        });
        assert!(!profiling_enabled());
        let paths: Vec<_> = outer.iter().map(|(k, _)| k).collect();
        assert_eq!(paths, ["outer", "outer;after"]);
    }

    #[test]
    fn tree_and_collapsed_render() {
        let ((), p) = scoped(|| {
            let _a = guard("root");
            time("leaf", || ());
        });
        let tree = p.render_tree();
        assert!(tree.contains("root"), "{tree}");
        assert!(tree.contains("  leaf"), "child indented: {tree}");
        let collapsed = p.collapsed();
        assert!(collapsed.contains("root;leaf "), "{collapsed}");
        for line in collapsed.lines() {
            let (_, n) = line.rsplit_once(' ').unwrap();
            let _: u64 = n.parse().expect("collapsed lines end in a number");
        }
    }
}
