//! `Timed<_>`: delegating wrappers around the two public policy traits.
//!
//! The traced rep hands `System` a `Timed<Manager>` and a
//! `Timed<Scheduler>`; every trait method forwards to the wrapped value
//! and adds one call and its host time to a per-method table. The untraced
//! reps use the bare types, so the wrapper cost never reaches an
//! end-to-end number, and the two kinds of rep must agree on `sim_digest`
//! (the wrapper is transparent to the simulation).

use crate::trace::Tracer;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;
use vfpga_repro::fpga::ConfigTiming;
use vfpga_repro::fsim::json::{Json, Obj};
use vfpga_repro::fsim::{SimDuration, SimTime, TraceEvent};
use vfpga_repro::vfpga::manager::{DeltaStats, ResidentRegion, RetireOutcome};
use vfpga_repro::vfpga::{
    Activation, CircuitId, DeviceUsage, FpgaManager, ManagerStats, PreemptCost, Scheduler, TaskId,
};

/// Calls and busy time of one trait method.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallStat {
    pub calls: u64,
    /// Estimated host time inside the method, see [`CallTable`].
    pub busy_ns: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    calls: u64,
    timed_calls: u64,
    timed_ns: u64,
}

/// Every wrapped method of the two traits. The first [`HOT`] are the ones
/// the event loop calls on nearly every event: each takes a few
/// nanoseconds, less than reading the clock twice, so only one call in
/// [`HOT_SAMPLE`] is timed and the total is scaled up. Every other method
/// is timed on every call.
const METHODS: [&str; 16] = [
    "activate",
    "preempt",
    "op_done",
    "task_exit",
    "on_ready",
    "pick",
    "stats",
    "drain_events",
    "usage",
    "resident_regions",
    "discard_resident",
    "retire_column",
    "invalidate_image_range",
    "implant_ghost",
    "snapshot",
    "restore",
];
const HOT: usize = 6;
const HOT_SAMPLE: u64 = 16;

/// Index of a wrapped method in [`METHODS`].
#[derive(Debug, Clone, Copy)]
enum Method {
    Activate,
    Preempt,
    OpDone,
    TaskExit,
    OnReady,
    Pick,
    Stats,
    DrainEvents,
    Usage,
    ResidentRegions,
    DiscardResident,
    RetireColumn,
    InvalidateImageRange,
    ImplantGhost,
    Snapshot,
    Restore,
}

#[derive(Debug)]
struct Table {
    slots: [Cell<Slot>; METHODS.len()],
    /// What a timed empty body reads: the cost of the clock itself,
    /// subtracted from every timed call.
    clock_ns: f64,
}

/// Per-method table of one wrapped trait, shared by every wrapper a
/// workload builds (a fleet builds one per shard segment).
///
/// Every call is counted. A timed call reads the clock before and after;
/// the reading of an empty body, calibrated when the table is made, is
/// subtracted, and sampled methods are scaled by calls over timed calls.
#[derive(Debug, Clone)]
pub struct CallTable(Rc<Table>);

impl Default for CallTable {
    fn default() -> Self {
        const ROUNDS: u32 = 20_000;
        let mut total = 0u128;
        for _ in 0..ROUNDS {
            let t0 = Instant::now();
            total += std::hint::black_box(t0.elapsed()).as_nanos();
        }
        CallTable(Rc::new(Table {
            slots: Default::default(),
            clock_ns: total as f64 / f64::from(ROUNDS),
        }))
    }
}

impl CallTable {
    #[inline]
    fn timed<R>(&self, method: Method, f: impl FnOnce() -> R) -> R {
        let idx = method as usize;
        let cell = &self.0.slots[idx];
        let mut slot = cell.get();
        slot.calls += 1;
        cell.set(slot);
        if idx < HOT && slot.calls % HOT_SAMPLE != 1 {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        // Re-read: `f` may have re-entered a wrapper sharing this table.
        let mut slot = cell.get();
        slot.timed_calls += 1;
        slot.timed_ns += ns;
        cell.set(slot);
        out
    }

    fn stat(&self, idx: usize) -> CallStat {
        let s = self.0.slots[idx].get();
        let net = (s.timed_ns as f64 - self.0.clock_ns * s.timed_calls as f64).max(0.0);
        CallStat {
            calls: s.calls,
            busy_ns: (net * s.calls as f64 / s.timed_calls.max(1) as f64) as u64,
        }
    }

    /// The methods that were called at all.
    fn stats(&self) -> impl Iterator<Item = (&'static str, CallStat)> + '_ {
        (0..METHODS.len())
            .map(|i| (METHODS[i], self.stat(i)))
            .filter(|(_, s)| s.calls > 0)
    }

    pub fn get(&self, name: &str) -> CallStat {
        let idx = METHODS.iter().position(|m| *m == name);
        self.stat(idx.expect("a wrapped method"))
    }

    pub fn total(&self) -> CallStat {
        self.stats()
            .fold(CallStat::default(), |a, (_, s)| CallStat {
                calls: a.calls + s.calls,
                busy_ns: a.busy_ns + s.busy_ns,
            })
    }

    /// Fold every method into the tracer under the open span, as
    /// `<prefix>.<method>` children.
    pub fn fold_into(&self, tracer: &Tracer, prefix: &str) {
        for (method, s) in self.stats() {
            tracer.fold_child(&format!("{prefix}.{method}"), s.calls, s.busy_ns);
        }
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![("clock_ns".to_string(), Json::Num(self.0.clock_ns))];
        fields.extend(self.stats().map(|(m, s)| {
            (
                m.to_string(),
                Obj::new()
                    .set("calls", s.calls)
                    .set("busy_ns", s.busy_ns)
                    .build(),
            )
        }));
        Json::Obj(fields)
    }
}

/// The two tables of one traced rep.
#[derive(Debug, Clone, Default)]
pub struct Tables {
    pub manager: CallTable,
    pub sched: CallTable,
}

/// A policy value plus the table its calls are charged to.
pub struct Timed<T> {
    inner: T,
    table: CallTable,
}

/// How a rep obtains its policy values: bare ([`Plain`]) or wrapped
/// ([`Tables`]). Workloads are generic over this so the traced and
/// untraced reps share every other line.
pub trait Wrap {
    type M<T: FpgaManager>: FpgaManager;
    type S<T: Scheduler>: Scheduler;
    fn manager<T: FpgaManager>(&self, m: T) -> Self::M<T>;
    fn sched<T: Scheduler>(&self, s: T) -> Self::S<T>;
    /// Fold what the wrappers counted into the tracer, under the span
    /// that is open now.
    fn fold(&self, _tracer: &Tracer) {}
}

/// No wrapper: the policy values go to `System` as they are.
pub struct Plain;

impl Wrap for Plain {
    type M<T: FpgaManager> = T;
    type S<T: Scheduler> = T;
    fn manager<T: FpgaManager>(&self, m: T) -> T {
        m
    }
    fn sched<T: Scheduler>(&self, s: T) -> T {
        s
    }
}

impl Wrap for Tables {
    type M<T: FpgaManager> = Timed<T>;
    type S<T: Scheduler> = Timed<T>;
    fn manager<T: FpgaManager>(&self, m: T) -> Timed<T> {
        Timed {
            inner: m,
            table: self.manager.clone(),
        }
    }
    fn sched<T: Scheduler>(&self, s: T) -> Timed<T> {
        Timed {
            inner: s,
            table: self.sched.clone(),
        }
    }
    fn fold(&self, tracer: &Tracer) {
        self.manager.fold_into(tracer, "manager");
        self.sched.fold_into(tracer, "sched");
    }
}

// `name`, `timing`, `preemptable`, `slice`, `is_empty`, `len` are field
// reads the event loop makes on nearly every event; they forward without
// a clock read so the traced rep stays close to the untraced one.
impl<M: FpgaManager> FpgaManager for Timed<M> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn activate(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        let inner = &mut self.inner;
        self.table
            .timed(Method::Activate, || inner.activate(tid, cid))
    }
    fn preempt(&mut self, tid: TaskId, cid: CircuitId) -> PreemptCost {
        let inner = &mut self.inner;
        self.table
            .timed(Method::Preempt, || inner.preempt(tid, cid))
    }
    fn op_done(&mut self, tid: TaskId, cid: CircuitId) -> (SimDuration, Vec<TaskId>) {
        let inner = &mut self.inner;
        self.table.timed(Method::OpDone, || inner.op_done(tid, cid))
    }
    fn task_exit(&mut self, tid: TaskId) -> Vec<TaskId> {
        let inner = &mut self.inner;
        self.table.timed(Method::TaskExit, || inner.task_exit(tid))
    }
    fn stats(&self) -> ManagerStats {
        self.table.timed(Method::Stats, || self.inner.stats())
    }
    fn set_recording(&mut self, on: bool) {
        self.inner.set_recording(on);
    }
    fn drain_events(&mut self) -> Vec<TraceEvent> {
        let inner = &mut self.inner;
        self.table
            .timed(Method::DrainEvents, || inner.drain_events())
    }
    fn usage(&self) -> DeviceUsage {
        self.table.timed(Method::Usage, || self.inner.usage())
    }
    fn timing(&self) -> &ConfigTiming {
        self.inner.timing()
    }
    fn preemptable(&self) -> bool {
        self.inner.preemptable()
    }
    fn resident_regions(&self) -> Vec<ResidentRegion> {
        self.table
            .timed(Method::ResidentRegions, || self.inner.resident_regions())
    }
    fn discard_resident(&mut self, cid: CircuitId) -> bool {
        let inner = &mut self.inner;
        self.table
            .timed(Method::DiscardResident, || inner.discard_resident(cid))
    }
    fn retire_column(&mut self, col: u32) -> RetireOutcome {
        let inner = &mut self.inner;
        self.table
            .timed(Method::RetireColumn, || inner.retire_column(col))
    }
    fn delta_stats(&self) -> Option<DeltaStats> {
        self.inner.delta_stats()
    }
    fn invalidate_image_range(&mut self, col0: u32, width: u32) {
        let inner = &mut self.inner;
        self.table.timed(Method::InvalidateImageRange, || {
            inner.invalidate_image_range(col0, width)
        })
    }
    fn implant_ghost(&mut self, col0: u32, width: u32, cid: CircuitId) -> bool {
        let inner = &mut self.inner;
        self.table.timed(Method::ImplantGhost, || {
            inner.implant_ghost(col0, width, cid)
        })
    }
    fn snapshot(&self) -> Option<Json> {
        self.table.timed(Method::Snapshot, || self.inner.snapshot())
    }
    fn restore(&mut self, snap: &Json) -> Result<(), String> {
        let inner = &mut self.inner;
        self.table.timed(Method::Restore, || inner.restore(snap))
    }
}

impl<S: Scheduler> Scheduler for Timed<S> {
    fn on_ready(&mut self, tid: TaskId, priority: u8, now: SimTime) {
        let inner = &mut self.inner;
        self.table
            .timed(Method::OnReady, || inner.on_ready(tid, priority, now))
    }
    fn pick(&mut self, now: SimTime) -> Option<TaskId> {
        let inner = &mut self.inner;
        self.table.timed(Method::Pick, || inner.pick(now))
    }
    fn slice(&self) -> Option<SimDuration> {
        self.inner.slice()
    }
    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn snapshot(&self) -> Option<Json> {
        self.table.timed(Method::Snapshot, || self.inner.snapshot())
    }
    fn restore(&mut self, snap: &Json) -> Result<(), String> {
        let inner = &mut self.inner;
        self.table.timed(Method::Restore, || inner.restore(snap))
    }
}
