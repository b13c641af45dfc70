//! Typed checkpoint images.
//!
//! A [`SystemImage`] is the whole mutable state of a
//! [`System`](crate::System) as plain typed data: the task table (one
//! `Copy` slot per task), the pending events, the running segment, the
//! device's latent upsets and stale claims, the fault accounting and RNG
//! words, the admission runtime, and the two JSON values the scheduler's
//! and the manager's own `snapshot` methods return. Capturing one is a
//! flat copy, so a periodic checkpoint costs the host almost nothing.
//!
//! JSON enters only where state leaves the process — the public
//! [`CrashState`](crate::CrashState) of `run_until`/`restore_from`; a
//! crash, failover, rebalance or migration handed on *inside* one process
//! stays a typed [`Cut`](crate::checkpoint::Cut) — through
//! [`SystemImage::to_json`], which renders the `vfpga-ckpt/3` schema: the
//! task table is one
//! `task_columns` header (the `TaskSlot` field names, once) and one
//! positional row of scalars per task, so a crash allocates one array
//! and one state name a task and no keys; every counter section (`fault`,
//! the admission `stats`, the managers' `stats` and delta `stats`) is its
//! struct's [`Counters::to_json`], keyed by field name.
//! [`SystemImage::from_json`] is its strict inverse:
//! fields must appear exactly as the writer emits them, the header must
//! be the writer's, every row must have one cell per column, and every
//! cell must have its column's JSON kind and fit its typed field;
//! anything else is an error, never a panic. Earlier schemas are not
//! read: no image outlives the process that wrote it. Observability state
//! (trace buffer, registry, timelines) is deliberately not part of an
//! image: it never influences simulated behaviour, and a real in-memory
//! trace dies with its host anyway.

use crate::admission::{AdmissionState, AdmissionStats};
use crate::circuit::CircuitId;
use crate::counters::Counters;
use crate::recovery::FaultStats;
use crate::system::Ev;
use crate::task::{TaskId, TaskSlot, TaskState};
use fsim::json::{Json, Obj};
use fsim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Schema tag of the rendered image.
const SCHEMA: &str = "vfpga-ckpt/3";

/// The segment holding the CPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Running {
    pub(crate) tid: TaskId,
    /// Executed op time in this segment (excludes overhead and slack).
    pub(crate) dur: SimDuration,
    /// When the executed portion starts (after dispatch overhead), so an
    /// upset mid-segment can split valid from garbage progress.
    pub(crate) exec_start: SimTime,
    /// FPGA context when the op is an FPGA run.
    pub(crate) fpga: Option<FpgaSeg>,
}

/// The FPGA half of a running segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FpgaSeg {
    pub(crate) cid: CircuitId,
    /// Whether the op completes at the end of this segment.
    pub(crate) completes: bool,
    /// Detection slack charged after completion.
    pub(crate) slack: SimDuration,
    /// Poll CPU cost folded into overhead.
    pub(crate) poll_cost: SimDuration,
}

/// An injected configuration upset that has not been repaired yet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Latent {
    /// When the (earliest) strike happened, for MTTR.
    pub(crate) struck_at: SimTime,
    /// Whether a scrub pass has found it (repair may still be deferred
    /// until the victim circuit's current op drains).
    pub(crate) detected: bool,
}

/// One captured checkpoint as the running system holds it: typed, so the
/// capture is a copy. It is a [`CheckpointImage`](crate::CheckpointImage)
/// (JSON) only while it is outside the process.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Capture {
    /// Monotone checkpoint number.
    pub(crate) seq: u64,
    /// How many [`WalRecord`](crate::WalRecord)s the image covers.
    pub(crate) wal_len: usize,
    pub(crate) image: SystemImage,
}

/// The full mutable state of one [`System`](crate::System) at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemImage {
    /// Capture time.
    pub(crate) at: SimTime,
    pub(crate) tasks: Vec<TaskSlot>,
    /// Unrepaired upsets by struck circuit id.
    pub(crate) latent: BTreeMap<u32, Latent>,
    /// Circuits whose residency claim a journal-off restore left stale.
    pub(crate) stale: BTreeSet<u32>,
    pub(crate) running: Option<Running>,
    /// Pending events in firing order, without the crash that cut the run.
    pub(crate) pending: Vec<(SimTime, Ev)>,
    pub(crate) fault: FaultStats,
    /// The injector's three stream states; `None` runs fault-free.
    pub(crate) rng: Option<[[u64; 4]; 3]>,
    pub(crate) admission: Option<AdmissionState>,
    /// What `Scheduler::snapshot` returned.
    pub(crate) sched: Json,
    /// What `FpgaManager::snapshot` returned.
    pub(crate) manager: Json,
}

/// Heap footprint of a JSON tree: its nodes plus their strings.
fn json_bytes(v: &Json) -> usize {
    use std::mem::size_of;
    size_of::<Json>()
        + match v {
            Json::Str(s) => s.len(),
            Json::Arr(items) => items.iter().map(json_bytes).sum(),
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, v)| size_of::<String>() + k.len() + json_bytes(v))
                .sum(),
            _ => 0,
        }
}

/// Stable names for [`TaskState`] inside checkpoint images.
fn state_str(s: TaskState) -> &'static str {
    match s {
        TaskState::Future => "future",
        TaskState::Ready => "ready",
        TaskState::Running => "running",
        TaskState::Blocked => "blocked",
        TaskState::Deferred => "deferred",
        TaskState::Done => "done",
        TaskState::Failed => "failed",
        TaskState::Quarantined => "quarantined",
        TaskState::Rejected => "rejected",
        TaskState::Migrated => "migrated",
    }
}

fn state_from_str(s: &str) -> Result<TaskState, String> {
    Ok(match s {
        "future" => TaskState::Future,
        "ready" => TaskState::Ready,
        "running" => TaskState::Running,
        "blocked" => TaskState::Blocked,
        "deferred" => TaskState::Deferred,
        "done" => TaskState::Done,
        "failed" => TaskState::Failed,
        "quarantined" => TaskState::Quarantined,
        "rejected" => TaskState::Rejected,
        "migrated" => TaskState::Migrated,
        other => return Err(format!("unknown task state '{other}'")),
    })
}

impl SystemImage {
    /// Rough heap footprint of the typed image in bytes, for setting it
    /// beside the size of its rendered JSON.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let admission = self.admission.as_ref().map_or(0, |a| {
            a.wd_seq.len() * size_of::<u64>()
                + a.wd_trips.len() * size_of::<u32>()
                + a.degraded.len()
                + a.in_flight.len() * 2 * size_of::<u32>()
                + a.deferred
                    .values()
                    .map(|q| size_of::<u32>() * (1 + q.len()))
                    .sum::<usize>()
        });
        size_of::<Self>()
            + self.tasks.len() * size_of::<TaskSlot>()
            + self.pending.len() * size_of::<(SimTime, Ev)>()
            + self.latent.len() * size_of::<(u32, Latent)>()
            + self.stale.len() * size_of::<u32>()
            + admission
            + json_bytes(&self.sched)
            + json_bytes(&self.manager)
    }

    /// Render the image as a `vfpga-ckpt/3` JSON tree.
    pub fn to_json(&self) -> Json {
        let running = match &self.running {
            None => Json::Null,
            Some(r) => Obj::new()
                .set("tid", r.tid.0.json())
                .set("dur", r.dur.json())
                .set("exec_start", r.exec_start.json())
                .set(
                    "fpga",
                    match &r.fpga {
                        None => Json::Null,
                        Some(f) => Obj::new()
                            .set("cid", u64::from(f.cid.0))
                            .set("completes", f.completes)
                            .set("slack", f.slack.json())
                            .set("poll", f.poll_cost.json())
                            .build(),
                    },
                )
                .build(),
        };
        let pending: Vec<Json> = self
            .pending
            .iter()
            .map(|&(at, ev)| {
                let (kind, arg) = match ev {
                    Ev::Arrive(t) => ("arrive", t.0.json()),
                    Ev::Timer(t) => ("timer", t.0.json()),
                    Ev::Dispatch => ("dispatch", Json::Null),
                    Ev::Seu => ("seu", Json::Null),
                    Ev::Scrub => ("scrub", Json::Null),
                    Ev::ColumnFail(None) => ("colfail", Json::Null),
                    Ev::ColumnFail(Some(c)) => ("colfail_at", Json::from(u64::from(c))),
                    Ev::RetryDone(t) => ("retry_done", t.0.json()),
                    Ev::Retry(t) => ("retry", t.0.json()),
                    Ev::Checkpoint => ("ckpt", Json::Null),
                    Ev::Watchdog { tid: t, seq } => {
                        ("watchdog", Json::Arr(vec![t.0.json(), Json::from(seq)]))
                    }
                    Ev::Crash => unreachable!("capture drops the crash event"),
                };
                Json::Arr(vec![at.json(), Json::from(kind), arg])
            })
            .collect();
        let rng = match &self.rng {
            None => Json::Null,
            Some(streams) => Json::Arr(
                streams
                    .iter()
                    .map(|s| Json::Arr(s.iter().map(|&w| Json::from(w)).collect()))
                    .collect(),
            ),
        };
        Obj::new()
            .set("schema", SCHEMA)
            .set("at", self.at.json())
            .set("task_columns", TASK_COLUMNS.to_vec())
            .set("tasks", self.tasks.iter().map(task_row).collect::<Vec<_>>())
            .set(
                "latent",
                self.latent
                    .iter()
                    .map(|(cid, l)| {
                        Json::Arr(vec![
                            Json::from(*cid),
                            l.struck_at.json(),
                            Json::from(l.detected),
                        ])
                    })
                    .collect::<Vec<_>>(),
            )
            .set("stale", self.stale.iter().copied().collect::<Vec<u32>>())
            .set("running", running)
            .set("pending", pending)
            .set("fault", self.fault.to_json())
            .set("rng", rng)
            .set(
                "admission",
                self.admission
                    .as_ref()
                    .map(admission_to_json)
                    .unwrap_or(Json::Null),
            )
            .set("sched", self.sched.clone())
            .set("manager", self.manager.clone())
            .build()
    }

    /// Rebuild the typed image from its `vfpga-ckpt/3` rendering. Strict:
    /// an unknown schema, a missing, extra or reordered field, a foreign
    /// `task_columns` header, a task row or per-task array of the wrong
    /// length, a cell of the wrong JSON kind, an unknown task-state or
    /// event-kind name, or a number too large for its field is an error.
    pub fn from_json(v: &Json) -> Result<SystemImage, String> {
        let mut top = Fields::of(v, "image")?;
        match top.str("schema")? {
            SCHEMA => {}
            other => return Err(format!("unknown image schema '{other}'")),
        }
        let at = top.get("at")?;
        if *top.next("task_columns")? != Json::from(TASK_COLUMNS.to_vec()) {
            return Err("'task_columns' is not the header this reader knows".into());
        }
        let tasks = arr_of(top.next("tasks")?, "tasks")?
            .iter()
            .map(slot_from_row)
            .collect::<Result<Vec<_>, String>>()?;
        let n = tasks.len();
        let mut latent = BTreeMap::new();
        for v in arr_of(top.next("latent")?, "latent")? {
            let [cid, struck, detected] = tuple(v, "latent entry")?;
            let l = Latent {
                struck_at: SimTime::read(struck, "latent strike time")?,
                detected: bool::read(detected, "latent detected flag")?,
            };
            if latent
                .insert(u32::read(cid, "latent circuit")?, l)
                .is_some()
            {
                return Err("latent lists a circuit twice".into());
            }
        }
        let mut stale = BTreeSet::new();
        for v in arr_of(top.next("stale")?, "stale")? {
            if !stale.insert(u32::read(v, "stale circuit")?) {
                return Err("stale lists a circuit twice".into());
            }
        }
        let running = match top.next("running")? {
            Json::Null => None,
            r => Some(running_from_json(r)?),
        };
        let pending = arr_of(top.next("pending")?, "pending")?
            .iter()
            .map(pending_from_json)
            .collect::<Result<_, String>>()?;
        let fault = FaultStats::from_json(top.next("fault")?)?;
        let rng = match top.next("rng")? {
            Json::Null => None,
            v => {
                let mut states = [[0u64; 4]; 3];
                for (state, words) in states.iter_mut().zip(fixed(v, "rng", 3)?) {
                    for (w, v) in state.iter_mut().zip(fixed(words, "rng stream", 4)?) {
                        *w = u64::read(v, "rng word")?;
                    }
                }
                Some(states)
            }
        };
        let admission = match top.next("admission")? {
            Json::Null => None,
            a => Some(admission_from_json(a, n)?),
        };
        let sched = top.next("sched")?.clone();
        let manager = top.next("manager")?.clone();
        top.end()?;
        Ok(SystemImage {
            at,
            tasks,
            latent,
            stale,
            running,
            pending,
            fault,
            rng,
            admission,
            sched,
            manager,
        })
    }
}

/// The task table, declared once: [`TaskSlot`]'s fields in declaration
/// order. Expands to the `task_columns` header, the writer of one task's
/// positional row and its strict reader, so the three cannot drift apart
/// (a field missing here does not compile).
macro_rules! task_table {
    ($($field:ident),*) => {
        const TASK_COLUMNS: &[&str] = &[$(stringify!($field)),*];

        fn task_row(t: &TaskSlot) -> Json {
            Json::Arr(vec![$(t.$field.json()),*])
        }

        fn slot_from_row(row: &Json) -> Result<TaskSlot, String> {
            let mut cells = fixed(row, "task row", TASK_COLUMNS.len())?.iter();
            let mut cell = || cells.next().expect("one cell per column");
            Ok(TaskSlot {
                $($field: Scalar::read(cell(), stringify!($field))?),*
            })
        }
    };
}

task_table!(
    state,
    op_idx,
    op_remaining,
    op_full,
    op_done_so_far,
    rollbacks,
    dl_attempts,
    fault_restarts,
    poisoned,
    arrival,
    completion,
    cpu_time,
    fpga_time,
    overhead_time,
    lost_time,
    fault_lost_time,
    degraded_time,
    blocked_count,
    failed,
    quarantined,
    rejected,
    unschedulable,
    deadline_missed,
    corrupted,
    lost_in_flight
);

fn running_from_json(v: &Json) -> Result<Running, String> {
    let mut r = Fields::of(v, "running")?;
    let run = Running {
        tid: r.get("tid")?,
        dur: r.get("dur")?,
        exec_start: r.get("exec_start")?,
        fpga: match r.next("fpga")? {
            Json::Null => None,
            f => {
                let mut f = Fields::of(f, "running fpga segment")?;
                let seg = FpgaSeg {
                    cid: CircuitId(f.get("cid")?),
                    completes: f.get("completes")?,
                    slack: f.get("slack")?,
                    poll_cost: f.get("poll")?,
                };
                f.end()?;
                Some(seg)
            }
        },
    };
    r.end()?;
    Ok(run)
}

fn pending_from_json(v: &Json) -> Result<(SimTime, Ev), String> {
    let [at, kind, arg] = tuple(v, "pending entry")?;
    let Json::Str(kind) = kind else {
        return Err(format!("pending event kind is {}", kind_of(kind)));
    };
    let task = || TaskId::read(arg, "pending event task");
    let no_arg = |ev: Ev| match arg {
        Json::Null => Ok(ev),
        other => Err(format!("'{kind}' event carries {}", kind_of(other))),
    };
    let ev = match kind.as_str() {
        "arrive" => Ev::Arrive(task()?),
        "timer" => Ev::Timer(task()?),
        "dispatch" => no_arg(Ev::Dispatch)?,
        "seu" => no_arg(Ev::Seu)?,
        "scrub" => no_arg(Ev::Scrub)?,
        "colfail" => no_arg(Ev::ColumnFail(None))?,
        "colfail_at" => Ev::ColumnFail(Some(u32::read(arg, "failed column")?)),
        "retry_done" => Ev::RetryDone(task()?),
        "retry" => Ev::Retry(task()?),
        "ckpt" => no_arg(Ev::Checkpoint)?,
        "watchdog" => {
            let [t, seq] = tuple(arg, "watchdog arg")?;
            Ev::Watchdog {
                tid: TaskId::read(t, "watchdog task")?,
                seq: u64::read(seq, "watchdog generation")?,
            }
        }
        other => return Err(format!("unknown pending event '{other}'")),
    };
    Ok((SimTime::read(at, "pending event time")?, ev))
}

fn admission_to_json(a: &AdmissionState) -> Json {
    let in_flight: Vec<Json> = a
        .in_flight
        .iter()
        .map(|(t, c)| Json::Arr(vec![Json::from(*t), Json::from(*c)]))
        .collect();
    let deferred: Vec<Json> = a
        .deferred
        .iter()
        .map(|(t, q)| {
            Json::Arr(vec![
                Json::from(*t),
                Json::from(q.iter().copied().collect::<Vec<u32>>()),
            ])
        })
        .collect();
    Obj::new()
        .set("in_flight", in_flight)
        .set("deferred", deferred)
        .set("wd_seq", a.wd_seq.clone())
        .set("wd_trips", a.wd_trips.clone())
        .set("degraded", a.degraded.clone())
        .set("degrade_mode", a.degrade_mode)
        .set("stats", a.stats.to_json())
        .build()
}

fn admission_from_json(v: &Json, n: usize) -> Result<AdmissionState, String> {
    let mut a = Fields::of(v, "admission")?;
    let mut in_flight = BTreeMap::new();
    for v in arr_of(a.next("in_flight")?, "in_flight")? {
        let [t, c] = tuple(v, "in_flight entry")?;
        let c = u32::read(c, "in_flight count")?;
        if in_flight
            .insert(u32::read(t, "in_flight tenant")?, c)
            .is_some()
        {
            return Err("in_flight lists a tenant twice".into());
        }
    }
    let mut deferred = BTreeMap::new();
    for v in arr_of(a.next("deferred")?, "deferred")? {
        let [t, q] = tuple(v, "deferred entry")?;
        let q: VecDeque<u32> = arr_of(q, "deferred queue")?
            .iter()
            .map(|x| u32::read(x, "deferred task"))
            .collect::<Result<_, String>>()?;
        if deferred
            .insert(u32::read(t, "deferred tenant")?, q)
            .is_some()
        {
            return Err("deferred lists a tenant twice".into());
        }
    }
    let wd_seq = fixed(a.next("wd_seq")?, "wd_seq", n)?
        .iter()
        .map(|v| u64::read(v, "wd_seq"))
        .collect::<Result<_, String>>()?;
    let wd_trips = fixed(a.next("wd_trips")?, "wd_trips", n)?
        .iter()
        .map(|v| u32::read(v, "wd_trips"))
        .collect::<Result<_, String>>()?;
    let degraded = fixed(a.next("degraded")?, "degraded", n)?
        .iter()
        .map(|v| bool::read(v, "degraded"))
        .collect::<Result<_, String>>()?;
    let degrade_mode = a.get("degrade_mode")?;
    let stats = AdmissionStats::from_json(a.next("stats")?)?;
    a.end()?;
    Ok(AdmissionState {
        in_flight,
        deferred,
        wd_seq,
        wd_trips,
        degraded,
        degrade_mode,
        stats,
    })
}

/// What kind of JSON value `v` is, for error messages (a `Debug` dump of
/// a misplaced array could run to megabytes).
fn kind_of(v: &Json) -> &'static str {
    match v {
        Json::Null => "null",
        Json::Bool(_) => "a bool",
        Json::UInt(_) | Json::Int(_) | Json::Num(_) => "a number",
        Json::Str(_) => "a string",
        Json::Arr(_) => "an array",
        Json::Obj(_) => "an object",
    }
}

/// A typed scalar as one JSON value: how every number, flag and state
/// name of an image is written and strictly read back (`what` names the
/// value in the error).
pub(crate) trait Scalar: Sized {
    fn json(self) -> Json;
    fn read(v: &Json, what: &str) -> Result<Self, String>;
}

impl Scalar for u64 {
    fn json(self) -> Json {
        Json::UInt(self)
    }
    fn read(v: &Json, what: &str) -> Result<u64, String> {
        match v {
            Json::UInt(x) => Ok(*x),
            other => Err(format!(
                "{what} is {}, not an unsigned integer",
                kind_of(other)
            )),
        }
    }
}

impl Scalar for u32 {
    fn json(self) -> Json {
        Json::from(self)
    }
    fn read(v: &Json, what: &str) -> Result<u32, String> {
        u32::try_from(u64::read(v, what)?).map_err(|_| format!("{what} does not fit in 32 bits"))
    }
}

impl Scalar for usize {
    fn json(self) -> Json {
        Json::from(self)
    }
    fn read(v: &Json, what: &str) -> Result<usize, String> {
        usize::try_from(u64::read(v, what)?).map_err(|_| format!("{what} does not fit in usize"))
    }
}

impl Scalar for bool {
    fn json(self) -> Json {
        Json::Bool(self)
    }
    fn read(v: &Json, what: &str) -> Result<bool, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(format!("{what} is {}, not a bool", kind_of(other))),
        }
    }
}

impl Scalar for SimDuration {
    fn json(self) -> Json {
        Json::UInt(self.as_nanos())
    }
    fn read(v: &Json, what: &str) -> Result<SimDuration, String> {
        u64::read(v, what).map(SimDuration::from_nanos)
    }
}

impl Scalar for SimTime {
    fn json(self) -> Json {
        Json::UInt(self.as_nanos())
    }
    fn read(v: &Json, what: &str) -> Result<SimTime, String> {
        u64::read(v, what).map(SimTime)
    }
}

/// `null` is "none": a poisoned mark that was never set, a partition
/// nobody owns.
impl<T: Scalar> Scalar for Option<T> {
    fn json(self) -> Json {
        self.map_or(Json::Null, Scalar::json)
    }
    fn read(v: &Json, what: &str) -> Result<Option<T>, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v, what).map(Some),
        }
    }
}

impl Scalar for TaskId {
    fn json(self) -> Json {
        self.0.json()
    }
    fn read(v: &Json, what: &str) -> Result<TaskId, String> {
        u32::read(v, what).map(TaskId)
    }
}

impl Scalar for TaskState {
    fn json(self) -> Json {
        Json::from(state_str(self))
    }
    fn read(v: &Json, what: &str) -> Result<TaskState, String> {
        match v {
            Json::Str(s) => state_from_str(s),
            other => Err(format!("{what} is {}, not a string", kind_of(other))),
        }
    }
}

pub(crate) fn arr_of<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    v.as_arr()
        .ok_or_else(|| format!("{what} is {}, not an array", kind_of(v)))
}

/// An array of exactly `N` items, for destructuring.
pub(crate) fn tuple<'a, const N: usize>(v: &'a Json, what: &str) -> Result<&'a [Json; N], String> {
    let a = arr_of(v, what)?;
    a.try_into()
        .map_err(|_| format!("{what} has {} entries, want {N}", a.len()))
}

fn fixed<'a>(v: &'a Json, what: &str, n: usize) -> Result<&'a [Json], String> {
    let a = arr_of(v, what)?;
    if a.len() != n {
        return Err(format!("{what} has {} entries, want {n}", a.len()));
    }
    Ok(a)
}

/// Strict reader over one JSON object: the fields must come in exactly
/// the order the writer emits them, with nothing missing and nothing
/// extra.
pub(crate) struct Fields<'a> {
    what: &'static str,
    rest: std::slice::Iter<'a, (String, Json)>,
}

impl<'a> Fields<'a> {
    pub(crate) fn of(v: &'a Json, what: &'static str) -> Result<Self, String> {
        match v {
            Json::Obj(fields) => Ok(Fields {
                what,
                rest: fields.iter(),
            }),
            other => Err(format!("{what} is {}, not an object", kind_of(other))),
        }
    }

    pub(crate) fn next(&mut self, key: &str) -> Result<&'a Json, String> {
        match self.rest.next() {
            Some((k, v)) if k == key => Ok(v),
            Some((k, _)) => Err(format!("{}: expected '{key}', found '{k}'", self.what)),
            None => Err(format!("{}: missing '{key}'", self.what)),
        }
    }

    pub(crate) fn end(mut self) -> Result<(), String> {
        match self.rest.next() {
            None => Ok(()),
            Some((k, _)) => Err(format!("{}: unexpected field '{k}'", self.what)),
        }
    }

    pub(crate) fn get<T: Scalar>(&mut self, key: &str) -> Result<T, String> {
        T::read(self.next(key)?, key)
    }

    pub(crate) fn str(&mut self, key: &str) -> Result<&'a str, String> {
        match self.next(key)? {
            Json::Str(s) => Ok(s),
            other => Err(format!("'{key}' is {}, not a string", kind_of(other))),
        }
    }
}
