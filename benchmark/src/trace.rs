//! In-memory span recorder for the traced rep.
//!
//! The benchmark opens a span around every call it makes into the
//! repository's public API. Spans nest; each is aggregated under its
//! `;`-joined path (count, total time, time covered by child spans) and
//! the first [`RAW_SPAN_CAP`] are also kept as raw records. Nothing is
//! written until the run ends. A disabled tracer records nothing and
//! reads no clock, so the untraced reps pay only a branch per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;
use vfpga_repro::fsim::json::{Json, Obj};

/// Raw span records kept per workload; later spans are only aggregated
/// and counted in [`Tracer::dropped`].
pub const RAW_SPAN_CAP: usize = 100_000;

/// One closed span, times in ns since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawSpan {
    pub id: u64,
    /// Id of the span that was open when this one started.
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Everything recorded under one path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathStat {
    pub count: u64,
    pub total_ns: u64,
    /// Part of `total_ns` covered by direct child spans.
    pub child_ns: u64,
}

impl PathStat {
    /// Time spent in the span itself, outside its children.
    pub fn self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(self.child_ns)
    }
}

struct Open {
    id: u64,
    name: &'static str,
    path_len: usize,
    start_ns: u64,
    child_ns: u64,
}

struct Inner {
    epoch: Instant,
    cap: usize,
    next_id: u64,
    path: String,
    stack: Vec<Open>,
    paths: BTreeMap<String, PathStat>,
    raw: Vec<RawSpan>,
    dropped: u64,
}

/// Handle to the recorder; clones share it. `Tracer::disabled()` is the
/// no-op every untraced rep uses.
#[derive(Clone)]
pub struct Tracer(Option<Rc<RefCell<Inner>>>);

/// Closes its span on drop.
pub struct SpanGuard<'a>(&'a Tracer);

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(inner) = &self.0 .0 {
            let now = inner.borrow().epoch.elapsed().as_nanos() as u64;
            inner.borrow_mut().close(now);
        }
    }
}

impl Inner {
    fn open(&mut self, name: &'static str, now: u64) {
        let path_len = self.path.len();
        if !self.path.is_empty() {
            self.path.push(';');
        }
        self.path.push_str(name);
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            id,
            name,
            path_len,
            start_ns: now,
            child_ns: 0,
        });
    }

    fn close(&mut self, now: u64) {
        let open = self.stack.pop().expect("span closed twice");
        let dur = now.saturating_sub(open.start_ns);
        let stat = self.paths.entry(self.path.clone()).or_default();
        stat.count += 1;
        stat.total_ns += dur;
        stat.child_ns += open.child_ns;
        self.path.truncate(open.path_len);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if self.raw.len() < self.cap {
            self.raw.push(RawSpan {
                id: open.id,
                parent: self.stack.last().map(|p| p.id),
                name: open.name,
                start_ns: open.start_ns,
                end_ns: now,
            });
        } else {
            self.dropped += 1;
        }
    }
}

impl Tracer {
    pub fn disabled() -> Self {
        Tracer(None)
    }

    pub fn enabled() -> Self {
        Self::with_cap(RAW_SPAN_CAP)
    }

    pub fn with_cap(cap: usize) -> Self {
        Tracer(Some(Rc::new(RefCell::new(Inner {
            epoch: Instant::now(),
            cap,
            next_id: 0,
            path: String::new(),
            stack: Vec::new(),
            paths: BTreeMap::new(),
            raw: Vec::new(),
            dropped: 0,
        }))))
    }

    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Open a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if let Some(inner) = &self.0 {
            let now = inner.borrow().epoch.elapsed().as_nanos() as u64;
            inner.borrow_mut().open(name, now);
        }
        SpanGuard(self)
    }

    /// Run `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name);
        f()
    }

    /// Record a closed span with explicit times.
    #[cfg(test)]
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(inner) = &self.0 {
            let mut i = inner.borrow_mut();
            i.open(name, start_ns);
            i.close(end_ns);
        }
    }

    /// Fold `count` calls totalling `busy_ns` under the currently open
    /// span as one aggregated child path, without raw records. This is how
    /// the `Timed<_>` wrappers' per-method totals enter the tree: the
    /// methods run millions of times inside one `run` span, far too often
    /// to record one by one.
    pub fn fold_child(&self, name: &str, count: u64, busy_ns: u64) {
        if let Some(inner) = &self.0 {
            let mut i = inner.borrow_mut();
            let path = if i.path.is_empty() {
                name.to_string()
            } else {
                format!("{};{name}", i.path)
            };
            let stat = i.paths.entry(path).or_default();
            stat.count += count;
            stat.total_ns += busy_ns;
            if let Some(parent) = i.stack.last_mut() {
                parent.child_ns += busy_ns;
            }
        }
    }

    /// Aggregate of one path, zero if it never ran.
    #[cfg(test)]
    pub fn path(&self, path: &str) -> PathStat {
        self.0
            .as_ref()
            .and_then(|i| i.borrow().paths.get(path).copied())
            .unwrap_or_default()
    }

    /// Sum over every path that satisfies `pick`.
    pub fn sum_where(&self, pick: impl Fn(&str) -> bool) -> PathStat {
        let mut out = PathStat::default();
        if let Some(inner) = &self.0 {
            for (_, s) in inner.borrow().paths.iter().filter(|(p, _)| pick(p)) {
                out.count += s.count;
                out.total_ns += s.total_ns;
                out.child_ns += s.child_ns;
            }
        }
        out
    }

    /// Sum over every path whose last segment is `name`.
    pub fn named(&self, name: &str) -> PathStat {
        self.leaves(|n| n == name)
    }

    /// Sum over every path whose last segment satisfies `pick`.
    pub fn leaves(&self, pick: impl Fn(&str) -> bool) -> PathStat {
        self.sum_where(|p| p.rsplit(';').next().is_some_and(&pick))
    }

    /// Sum over every path that ends with the segments `suffix`.
    pub fn suffix(&self, suffix: &str) -> PathStat {
        self.sum_where(|p| {
            p.strip_suffix(suffix)
                .is_some_and(|head| head.is_empty() || head.ends_with(';'))
        })
    }

    /// Raw spans that did not fit under the cap.
    pub fn dropped(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.borrow().dropped)
    }

    pub fn raw(&self) -> Vec<RawSpan> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().raw.clone())
    }

    /// The `trace-<workload>.json` body: per-path aggregates with self
    /// time, then the raw records.
    pub fn to_json(&self) -> Json {
        let Some(inner) = &self.0 else {
            return Json::Null;
        };
        let i = inner.borrow();
        let paths: Vec<Json> = i
            .paths
            .iter()
            .map(|(p, s)| {
                Obj::new()
                    .set("path", p.as_str())
                    .set("count", s.count)
                    .set("total_ns", s.total_ns)
                    .set("self_ns", s.self_ns())
                    .build()
            })
            .collect();
        let spans: Vec<Json> = i
            .raw
            .iter()
            .map(|r| {
                Obj::new()
                    .set("id", r.id)
                    .set("parent", r.parent.map_or(Json::Null, Json::UInt))
                    .set("name", r.name)
                    .set("start", r.start_ns)
                    .set("end", r.end_ns)
                    .build()
            })
            .collect();
        Obj::new()
            .set("raw_span_cap", i.cap)
            .set("dropped_spans", i.dropped)
            .set("paths", paths)
            .set("spans", spans)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_spans() {
        let t = Tracer::enabled();
        {
            let i = t.0.as_ref().unwrap();
            // root [0, 100): child a [10, 30), child b [40, 90) holding
            // grandchild c [50, 60).
            i.borrow_mut().open("root", 0);
            i.borrow_mut().open("a", 10);
            i.borrow_mut().close(30);
            i.borrow_mut().open("b", 40);
            i.borrow_mut().open("c", 50);
            i.borrow_mut().close(60);
            i.borrow_mut().close(90);
            i.borrow_mut().close(100);
        }
        assert_eq!(t.path("root").total_ns, 100);
        assert_eq!(t.path("root").child_ns, 70);
        assert_eq!(t.path("root").self_ns(), 30);
        assert_eq!(t.path("root;b").self_ns(), 40);
        assert_eq!(t.path("root;b;c").self_ns(), 10);
        assert_eq!(t.path("root;a").count, 1);
        // Self times tile the root exactly.
        let tiled: u64 = ["root", "root;a", "root;b", "root;b;c"]
            .iter()
            .map(|p| t.path(p).self_ns())
            .sum();
        assert_eq!(tiled, 100);
        let raw = t.raw();
        let c = raw.iter().find(|r| r.name == "c").unwrap();
        let b = raw.iter().find(|r| r.name == "b").unwrap();
        assert_eq!(c.parent, Some(b.id));
        assert_eq!(raw.iter().find(|r| r.name == "root").unwrap().parent, None);
    }

    #[test]
    fn folded_children_count_against_the_open_span() {
        let t = Tracer::enabled();
        {
            let i = t.0.as_ref().unwrap();
            i.borrow_mut().open("run", 0);
        }
        t.fold_child("manager.activate", 1000, 400);
        t.fold_child("manager.activate", 500, 100);
        t.0.as_ref().unwrap().borrow_mut().close(1000);
        assert_eq!(t.path("run;manager.activate").count, 1500);
        assert_eq!(t.path("run;manager.activate").total_ns, 500);
        assert_eq!(t.path("run").self_ns(), 500);
        assert_eq!(t.named("manager.activate").total_ns, 500);
        assert!(t.raw().iter().all(|r| r.name == "run"));
    }

    #[test]
    fn raw_records_are_capped_and_the_drop_is_counted() {
        let t = Tracer::with_cap(3);
        for k in 0..10 {
            t.record("s", k, k + 1);
        }
        assert_eq!(t.raw().len(), 3);
        assert_eq!(t.dropped(), 7);
        // Aggregates keep counting past the cap.
        assert_eq!(t.path("s").count, 10);
        assert_eq!(t.path("s").total_ns, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.time("x", || ());
        t.fold_child("y", 1, 1);
        assert_eq!(t.path("x"), PathStat::default());
        assert_eq!(t.dropped(), 0);
        assert!(t.raw().is_empty());
        assert_eq!(t.to_json(), Json::Null);
    }
}
