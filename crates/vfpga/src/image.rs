//! Typed checkpoint images, and the one codec that writes and reads them.
//!
//! A [`SystemImage`] is the whole mutable state of a
//! [`System`](crate::System) as plain typed data: the task table (one
//! `Copy` slot per task), the pending events, the running segment, latent
//! upsets and stale claims, fault accounting and RNG words, the admission
//! runtime, and the JSON the scheduler's and manager's `snapshot` return.
//! Capturing one refills the previous capture in place and copies only
//! what can have changed since: of the task table, the slots live at that
//! capture and those that arrived or exited after it (a slot that is not
//! live changes only by arriving or exiting); of the pending events, the
//! queue's in-flight few. An arrival is not a pending event of the typed
//! image: it is its task's `Future` slot. JSON enters only where state
//! leaves the process (a hand-off inside one is a typed
//! [`Cut`](crate::checkpoint::Cut)), through [`SystemImage::to_json`]: the
//! `vfpga-ckpt/3` schema, which lists each arrival among the pending
//! events, where a queue holding it would fire it.
//!
//! Every section is written and read by one codec, `Wire`: `json`
//! renders a value and `read` is its strict inverse, implemented once for
//! the scalars (nanoseconds for times), `Option` (`null`), `Vec`,
//! `VecDeque`, tuples and fixed arrays, `BTreeSet` (members) and
//! `BTreeMap` (`[key, value]` pairs), both in ascending key order. A
//! struct declared through `record!` is an object keyed by its field
//! names: the one field list is the struct, its writer and its reader. The
//! task table is a `task_columns` header and one positional row a task,
//! both from the one `task_table!` list. Hand-written codecs remain only
//! for tagged shapes — a pending event (`[at, kind, arg]`), a partition
//! (its `kind`), the header — and for the latent upsets' flat rows.
//!
//! A reader accepts exactly what its writer emits; anything else is an
//! error, never a panic. What an image must *mean* — circuit ids in the
//! library, partitions tiling the device, task ids in range — is checked
//! after decoding by the `restore` that consumes it. Earlier schemas are
//! not read, and observability state is not part of an image: it never
//! influences simulated behaviour.

use crate::admission::AdmissionState;
use crate::circuit::CircuitId;
use crate::recovery::FaultStats;
use crate::system::Ev;
use crate::task::{TaskId, TaskSlot, TaskState};
use fsim::json::Json;
use fsim::{SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Schema tag of the rendered image.
const SCHEMA: &str = "vfpga-ckpt/3";

// ---------------------------------------------------------------------------
// The codec.

/// A typed value as one JSON value: how every section of a checkpoint
/// image is written ([`json`](Wire::json)) and strictly read back
/// ([`read`](Wire::read); `what` names the value in the error).
pub(crate) trait Wire: Sized {
    fn json(&self) -> Json;
    fn read(v: &Json, what: &str) -> Result<Self, String>;
}

/// Declare a struct — attributes, docs, names and types exactly as
/// written — and implement [`Wire`] for it from the same field list: an
/// object keyed by field name in declaration order, read back strictly.
/// A field marked `#[skip_if(pred)]` is left out while `pred` holds for
/// it; absent, it reads as its default, and written out, it must not be a
/// value the writer would have left out.
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(<$param:ident>)? {
            $(
                $(#[doc = $doc:literal])*
                $(#[skip_if($skip:path)])?
                $fvis:vis $field:ident: $ty:ty,
            )*
        }
    ) => {
        $(#[$meta])*
        $vis struct $name $(<$param>)? {
            $($(#[doc = $doc])* $fvis $field: $ty,)*
        }

        impl $(<$param: $crate::image::Wire>)? $crate::image::Wire for $name $(<$param>)? {
            fn json(&self) -> fsim::json::Json {
                let mut fields = Vec::with_capacity([$(stringify!($field)),*].len());
                $($crate::image::record!(@set fields, $field, &self.$field $(, $skip)?);)*
                fsim::json::Json::Obj(fields)
            }

            fn read(v: &fsim::json::Json, what: &str) -> Result<Self, String> {
                let mut f = $crate::image::Fields::of(v, what)?;
                let read = Self {
                    $($field: $crate::image::record!(@get f, $field $(, $skip)?),)*
                };
                f.end()?;
                Ok(read)
            }
        }
    };
    (@set $fields:ident, $field:ident, $value:expr) => {
        $fields.push((stringify!($field).to_string(), $crate::image::Wire::json($value)))
    };
    (@set $fields:ident, $field:ident, $value:expr, $skip:path) => {
        if !$skip($value) {
            $crate::image::record!(@set $fields, $field, $value)
        }
    };
    (@get $f:ident, $field:ident) => {
        $f.get(stringify!($field))?
    };
    (@get $f:ident, $field:ident, $skip:path) => {
        $f.get_unless(stringify!($field), $skip)?
    };
}
pub(crate) use record;

record! {
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
}

record! {
    /// The FPGA half of a running segment.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) struct FpgaSeg {
        pub(crate) cid: CircuitId,
        /// Whether the op completes at the end of this segment.
        pub(crate) completes: bool,
        /// Detection slack charged after completion.
        pub(crate) slack: SimDuration,
        /// Poll CPU cost folded into overhead.
        pub(crate) poll: SimDuration,
    }
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

record! {
    /// The full mutable state of one [`System`](crate::System) at one instant.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SystemImage {
        /// `vfpga-ckpt/3`.
        pub(crate) schema: Schema,
        /// Capture time.
        pub(crate) at: SimTime,
        /// The task table's header.
        pub(crate) task_columns: TaskColumns,
        pub(crate) tasks: Vec<TaskSlot>,
        /// Unrepaired upsets by struck circuit id.
        pub(crate) latent: BTreeMap<u32, Latent>,
        /// Circuits whose residency claim a journal-off restore left stale.
        pub(crate) stale: BTreeSet<u32>,
        pub(crate) running: Option<Running>,
        /// Pending events in firing order, without the crash that cut the
        /// run and without the arrivals, which are the `Future` slots.
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
}

/// The image's schema tag: it renders as [`SCHEMA`], and any other tag is
/// an error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Schema;

/// The task table's header: [`TaskSlot`]'s field names, which must be
/// exactly the writer's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TaskColumns;

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

    /// Render the image as a `vfpga-ckpt/3` JSON tree. Its pending list
    /// holds an `arrive` for each `Future` slot, at the slot's arrival, in
    /// (arrival, id) order and ahead of every event at the same instant:
    /// where a queue holding the arrivals fires them.
    pub fn to_json(&self) -> Json {
        let mut tree = self.json();
        if let Json::Obj(fields) = &mut tree {
            if let Some((_, pending)) = fields.iter_mut().find(|(k, _)| k == "pending") {
                *pending = with_arrivals(&self.tasks, &self.pending).json();
            }
        }
        tree
    }

    /// Rebuild the typed image from its `vfpga-ckpt/3` rendering, strictly:
    /// anything [`to_json`](Self::to_json) would not write is an error —
    /// an arrival among the pending events included, unless it is exactly
    /// one the task table puts there.
    pub fn from_json(v: &Json) -> Result<SystemImage, String> {
        let mut img = SystemImage::read(v, "image")?;
        let listed = std::mem::take(&mut img.pending);
        let arrives = |&(_, ev): &(SimTime, Ev)| matches!(ev, Ev::Arrive(_));
        img.pending = listed.iter().copied().filter(|e| !arrives(e)).collect();
        let want = with_arrivals(&img.tasks, &img.pending);
        if listed != want {
            let i = listed.iter().zip(&want).take_while(|(a, b)| a == b).count();
            return Err(format!(
                "pending event {i} is not what the task table's arrivals put there"
            ));
        }
        Ok(img)
    }
}

/// `pending` with an arrival for each `Future` slot of `tasks` merged in:
/// at the slot's arrival, in (arrival, id) order, ahead of the events at
/// the same instant.
fn with_arrivals(tasks: &[TaskSlot], pending: &[(SimTime, Ev)]) -> Vec<(SimTime, Ev)> {
    let mut arrivals: Vec<(SimTime, Ev)> = (0..)
        .zip(tasks)
        .filter(|(_, slot)| slot.state == TaskState::Future)
        .map(|(t, slot)| (slot.arrival, Ev::Arrive(TaskId(t))))
        .collect();
    arrivals.sort_by_key(|&(at, _)| at);
    let mut out = Vec::with_capacity(arrivals.len() + pending.len());
    let mut events = pending.iter().copied().peekable();
    for arrival in arrivals {
        out.extend(std::iter::from_fn(|| {
            events.next_if(|&(at, _)| at < arrival.0)
        }));
        out.push(arrival);
    }
    out.extend(events);
    out
}

impl Wire for Schema {
    fn json(&self) -> Json {
        Json::from(SCHEMA)
    }
    fn read(v: &Json, what: &str) -> Result<Schema, String> {
        match str_of(v, what)? {
            SCHEMA => Ok(Schema),
            other => Err(format!("unknown image {what} '{other}'")),
        }
    }
}

impl Wire for TaskColumns {
    fn json(&self) -> Json {
        Json::from(TASK_COLUMNS.to_vec())
    }
    fn read(v: &Json, what: &str) -> Result<TaskColumns, String> {
        if *v == TaskColumns.json() {
            Ok(TaskColumns)
        } else {
            Err(format!("'{what}' is not the header this reader knows"))
        }
    }
}

/// The task table, declared once: [`TaskSlot`]'s fields in declaration
/// order. Expands to the `task_columns` header and the codec of one
/// task's positional row, so the two cannot drift apart (a field missing
/// here does not compile).
macro_rules! task_table {
    ($($field:ident),*) => {
        const TASK_COLUMNS: &[&str] = &[$(stringify!($field)),*];

        impl Wire for TaskSlot {
            fn json(&self) -> Json {
                Json::Arr(vec![$(self.$field.json()),*])
            }
            fn read(row: &Json, what: &str) -> Result<TaskSlot, String> {
                let [$($field),*] = tuple(row, what)?;
                Ok(TaskSlot {
                    $($field: Wire::read($field, stringify!($field))?),*
                })
            }
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

/// The unrepaired upsets, one `[circuit, struck_at, detected]` row each.
/// ([`Latent`] has no codec of its own, which is what lets this impl sit
/// beside the generic map's.)
impl Wire for BTreeMap<u32, Latent> {
    fn json(&self) -> Json {
        let row = |(&cid, l): (&u32, &Latent)| (cid, l.struck_at, l.detected).json();
        Json::Arr(self.iter().map(row).collect())
    }
    fn read(v: &Json, what: &str) -> Result<Self, String> {
        let rows = Vec::<(u32, SimTime, bool)>::read(v, what)?;
        ascending(&rows, |(cid, ..)| cid, what)?;
        let latent = |(cid, struck_at, detected)| {
            (
                cid,
                Latent {
                    struck_at,
                    detected,
                },
            )
        };
        Ok(rows.into_iter().map(latent).collect())
    }
}

/// A pending event: `[at, kind, arg]`, where `arg` is the task of a
/// task's event, `[task, generation]` of a watchdog, the column of a
/// retried column failure, and `null` otherwise. (Like [`Latent`], `Ev`
/// has no codec of its own.)
impl Wire for (SimTime, Ev) {
    fn json(&self) -> Json {
        let (at, ev) = *self;
        let (kind, arg) = match ev {
            Ev::Arrive(t) => ("arrive", t.json()),
            Ev::Timer(t) => ("timer", t.json()),
            Ev::Dispatch => ("dispatch", Json::Null),
            Ev::Seu => ("seu", Json::Null),
            Ev::Scrub => ("scrub", Json::Null),
            Ev::ColumnFail(None) => ("colfail", Json::Null),
            Ev::ColumnFail(Some(c)) => ("colfail_at", c.json()),
            Ev::RetryDone(t) => ("retry_done", t.json()),
            Ev::Retry(t) => ("retry", t.json()),
            Ev::Checkpoint => ("ckpt", Json::Null),
            Ev::Watchdog { tid, seq } => ("watchdog", (tid, seq).json()),
            Ev::Crash => unreachable!("capture drops the crash event"),
        };
        Json::Arr(vec![at.json(), Json::from(kind), arg])
    }
    fn read(v: &Json, what: &str) -> Result<Self, String> {
        let [at, kind, arg] = tuple(v, what)?;
        let kind = str_of(kind, "pending event kind")?;
        let task = || TaskId::read(arg, "pending event task");
        let no_arg = |ev: Ev| match arg {
            Json::Null => Ok(ev),
            other => Err(format!("'{kind}' event carries {}", kind_of(other))),
        };
        let ev = match kind {
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
                let (tid, seq) = Wire::read(arg, "watchdog arg")?;
                Ev::Watchdog { tid, seq }
            }
            other => return Err(format!("unknown pending event '{other}'")),
        };
        Ok((SimTime::read(at, "pending event time")?, ev))
    }
}

impl Wire for u64 {
    fn json(&self) -> Json {
        Json::UInt(*self)
    }
    fn read(v: &Json, what: &str) -> Result<u64, String> {
        match v {
            Json::UInt(x) => Ok(*x),
            other => not(what, other, "an unsigned integer"),
        }
    }
}

/// Unsigned integers narrower than 64 bits, read as `u64` and range-checked.
macro_rules! narrow_uint {
    ($($ty:ty: $width:literal),*) => {$(
        impl Wire for $ty {
            fn json(&self) -> Json {
                Json::UInt(*self as u64)
            }
            fn read(v: &Json, what: &str) -> Result<$ty, String> {
                <$ty>::try_from(u64::read(v, what)?)
                    .map_err(|_| format!("{what} does not fit in {}", $width))
            }
        }
    )*};
}
narrow_uint!(u8: "8 bits", u32: "32 bits", usize: "usize");

impl Wire for bool {
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
    fn read(v: &Json, what: &str) -> Result<bool, String> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => not(what, other, "a bool"),
        }
    }
}

/// Types written as the number they wrap: times and durations in
/// nanoseconds, ids bare (whether the library has a circuit is the
/// consuming `restore`'s check, [`CircuitLib::check_id`](crate::CircuitLib)).
macro_rules! numeric {
    ($($ty:ty: $inner:ty, $unwrap:expr, $wrap:expr;)*) => {$(
        impl Wire for $ty {
            fn json(&self) -> Json {
                ($unwrap)(*self).json()
            }
            fn read(v: &Json, what: &str) -> Result<$ty, String> {
                <$inner>::read(v, what).map($wrap)
            }
        }
    )*};
}
numeric! {
    SimDuration: u64, SimDuration::as_nanos, SimDuration::from_nanos;
    SimTime: u64, SimTime::as_nanos, SimTime;
    TaskId: u32, |t: TaskId| t.0, TaskId;
    CircuitId: u32, |c: CircuitId| c.0, CircuitId;
}

impl Wire for TaskState {
    fn json(&self) -> Json {
        Json::from(match self {
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
        })
    }
    fn read(v: &Json, what: &str) -> Result<TaskState, String> {
        Ok(match str_of(v, what)? {
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
}

/// A section a component renders and reads itself (`snapshot`/`restore`
/// are frozen to JSON), carried as is.
impl Wire for Json {
    fn json(&self) -> Json {
        self.clone()
    }
    fn read(v: &Json, _what: &str) -> Result<Json, String> {
        Ok(v.clone())
    }
}

/// `null` is "none": a poisoned mark that was never set, a partition
/// nobody owns.
impl<T: Wire> Wire for Option<T> {
    fn json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::json)
    }
    fn read(v: &Json, what: &str) -> Result<Option<T>, String> {
        match v {
            Json::Null => Ok(None),
            v => T::read(v, what).map(Some),
        }
    }
}

/// Sequences are arrays.
macro_rules! sequence {
    ($($seq:ident),*) => {$(
        impl<T: Wire> Wire for $seq<T> {
            fn json(&self) -> Json {
                Json::Arr(self.iter().map(T::json).collect())
            }
            fn read(v: &Json, what: &str) -> Result<$seq<T>, String> {
                arr_of(v, what)?.iter().map(|x| T::read(x, what)).collect()
            }
        }
    )*};
}
sequence!(Vec, VecDeque);

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(T::json).collect())
    }
    fn read(v: &Json, what: &str) -> Result<[T; N], String> {
        let items = Vec::<T>::read(v, what)?;
        let n = items.len();
        items
            .try_into()
            .map_err(|_| format!("{what} has {n} entries, want {N}"))
    }
}

/// Tuples are arrays of exactly their arity.
macro_rules! tuple_wire {
    ($(($($t:ident $v:ident),*)),*) => {$(
        impl<$($t: Wire),*> Wire for ($($t,)*) {
            fn json(&self) -> Json {
                let ($($v,)*) = self;
                Json::Arr(vec![$($v.json()),*])
            }
            fn read(v: &Json, what: &str) -> Result<Self, String> {
                let [$($v),*] = tuple(v, what)?;
                Ok(($($t::read($v, what)?,)*))
            }
        }
    )*};
}
tuple_wire!((A a, B b), (A a, B b, C c), (A a, B b, C c, D d));

impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(T::json).collect())
    }
    fn read(v: &Json, what: &str) -> Result<BTreeSet<T>, String> {
        let members = Vec::<T>::read(v, what)?;
        ascending(&members, |m| m, what)?;
        Ok(members.into_iter().collect())
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn json(&self) -> Json {
        let pair = |(k, v): (&K, &V)| Json::Arr(vec![k.json(), v.json()]);
        Json::Arr(self.iter().map(pair).collect())
    }
    fn read(v: &Json, what: &str) -> Result<BTreeMap<K, V>, String> {
        let pairs = Vec::<(K, V)>::read(v, what)?;
        ascending(&pairs, |(k, _)| k, what)?;
        Ok(pairs.into_iter().collect())
    }
}

/// Keys in strictly ascending order, as a `BTreeSet` or a `BTreeMap`
/// writes them; a key out of order or listed twice is an error.
fn ascending<T, K: Ord>(items: &[T], key: impl Fn(&T) -> &K, what: &str) -> Result<(), String> {
    if items.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        Ok(())
    } else {
        Err(format!("{what} lists a key out of order or twice"))
    }
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

/// "`what` is `v`'s kind, not `want`".
fn not<T>(what: &str, v: &Json, want: &str) -> Result<T, String> {
    Err(format!("{what} is {}, not {want}", kind_of(v)))
}

fn str_of<'a>(v: &'a Json, what: &str) -> Result<&'a str, String> {
    match v {
        Json::Str(s) => Ok(s),
        other => not(what, other, "a string"),
    }
}

fn arr_of<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    v.as_arr().map_or_else(|| not(what, v, "an array"), Ok)
}

/// An array of exactly `N` items, for destructuring.
fn tuple<'a, const N: usize>(v: &'a Json, what: &str) -> Result<&'a [Json; N], String> {
    let a = arr_of(v, what)?;
    a.try_into()
        .map_err(|_| format!("{what} has {} entries, want {N}", a.len()))
}

/// Strict reader over one JSON object: the fields must come in exactly
/// the order the writer emits them, with nothing missing and nothing
/// extra.
pub(crate) struct Fields<'a> {
    what: &'a str,
    rest: std::slice::Iter<'a, (String, Json)>,
}

impl<'a> Fields<'a> {
    pub(crate) fn of(v: &'a Json, what: &'a str) -> Result<Self, String> {
        match v {
            Json::Obj(fields) => Ok(Fields {
                what,
                rest: fields.iter(),
            }),
            other => not(what, other, "an object"),
        }
    }

    fn next(&mut self, key: &str) -> Result<&'a Json, String> {
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

    pub(crate) fn get<T: Wire>(&mut self, key: &str) -> Result<T, String> {
        T::read(self.next(key)?, key)
    }

    /// A field the writer leaves out while `skip` holds for it.
    pub(crate) fn get_unless<T: Wire + Default>(
        &mut self,
        key: &str,
        skip: impl Fn(&T) -> bool,
    ) -> Result<T, String> {
        match self.rest.as_slice().first() {
            Some((k, _)) if k == key => {}
            _ => return Ok(T::default()),
        }
        let v = self.get(key)?;
        if skip(&v) {
            return Err(format!("{}: '{key}' is written out empty", self.what));
        }
        Ok(v)
    }

    pub(crate) fn str(&mut self, key: &str) -> Result<&'a str, String> {
        str_of(self.next(key)?, key)
    }
}

#[cfg(test)]
mod tests {
    //! The codec suite: every record reads back exactly what it writes,
    //! and nothing a writer would not emit.

    use super::*;
    use crate::admission::AdmissionStats;
    use crate::counters::Counters;
    use crate::manager::delta::{DeltaImage, DeltaStats};
    use crate::manager::dynload::DynLoadImage;
    use crate::manager::partition::PartitionImage;
    use crate::manager::ManagerStats;
    use crate::sched::{QueueImage, ReadyImage};
    use crate::{CrashStats, FleetStats};
    use std::any::type_name;

    /// An object's fields.
    type Pairs = Vec<(String, Json)>;

    /// One value of each JSON kind, to put in place of another.
    fn kinds() -> [Json; 8] {
        [
            Json::Null,
            Json::Bool(true),
            Json::UInt(1),
            Json::Int(-1),
            Json::Num(0.5),
            Json::from("x"),
            Json::Arr(Vec::new()),
            Json::Obj(Vec::new()),
        ]
    }

    /// Every copy of `v` with one thing damaged, and what: at every node,
    /// the node replaced by a value of each other kind; at every object,
    /// each key dropped, repeated, swapped with the next, and an extra key
    /// before each and after the last; at every array, each entry dropped
    /// and repeated.
    fn damaged(v: &Json) -> Vec<(String, Json)> {
        let mut out: Vec<(String, Json)> = kinds()
            .into_iter()
            .filter(|k| k != v)
            .map(|k| (format!("{} in its place", k.render()), k))
            .collect();
        let extra = || ("epilogue".to_string(), Json::UInt(0));
        match v {
            Json::Obj(fields) => {
                let with = |edit: &dyn Fn(&mut Pairs)| {
                    let mut copy = fields.clone();
                    edit(&mut copy);
                    Json::Obj(copy)
                };
                let n = fields.len();
                for (i, (key, child)) in fields.iter().enumerate() {
                    out.push((format!("'{key}' dropped"), with(&|c| drop(c.remove(i)))));
                    let again = fields[i].clone();
                    out.push((
                        format!("'{key}' twice"),
                        with(&|c| c.insert(i, again.clone())),
                    ));
                    out.push((
                        format!("extra before '{key}'"),
                        with(&|c| c.insert(i, extra())),
                    ));
                    if n >= 2 {
                        out.push((
                            format!("'{key}' swapped"),
                            with(&|c| c.swap(i, (i + 1) % n)),
                        ));
                    }
                    for (what, bad) in damaged(child) {
                        out.push((format!("{key}: {what}"), with(&|c| c[i].1 = bad.clone())));
                    }
                }
                out.push(("extra key last".into(), with(&|c| c.push(extra()))));
            }
            Json::Arr(items) => {
                let with = |edit: &dyn Fn(&mut Vec<Json>)| {
                    let mut copy = items.clone();
                    edit(&mut copy);
                    Json::Arr(copy)
                };
                for (i, item) in items.iter().enumerate() {
                    out.push((format!("[{i}] dropped"), with(&|c| drop(c.remove(i)))));
                    out.push((format!("[{i}] twice"), with(&|c| c.insert(i, item.clone()))));
                    for (what, bad) in damaged(item) {
                        out.push((format!("[{i}]: {what}"), with(&|c| c[i] = bad.clone())));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// `doc` reads as a `T` that renders back to it, through the text form
    /// too; and every damaged copy of it is either refused or — an
    /// `Option` reading `null`, a list losing an entry, a skipped field
    /// left out — a rendering the writer does emit. A reader that accepts
    /// anything else (a key missing, repeated, out of place or extra, a
    /// value of the wrong kind) fails here.
    fn check<T: Wire>(doc: &Json) {
        let name = type_name::<T>();
        let read = |doc: &Json| T::read(doc, name).map(|t| t.json());
        assert_eq!(read(doc).as_ref(), Ok(doc), "{name} does not round-trip");
        let text = doc.render();
        let parsed = Json::parse(&text).expect("a rendering parses");
        assert_eq!(read(&parsed).map(|j| j.render()), Ok(text));
        for (what, bad) in damaged(doc) {
            if let Ok(back) = read(&bad) {
                assert!(back == bad, "{name}: {what} read as {}", back.render());
            }
        }
    }

    /// Counter struct `C` with field `i` (from 1) holding `i`.
    fn counters<C: Counters>() -> Json {
        let fields = C::FIELDS.iter().zip(1u64..);
        Json::Obj(
            fields
                .map(|(k, i)| (k.to_string(), Json::UInt(i)))
                .collect(),
        )
    }

    /// The committed images of the round-trip matrix, by cell name.
    fn goldens() -> Vec<(String, Json)> {
        let here = std::env::var("CARGO_MANIFEST_DIR").expect("cargo runs the tests");
        let dir = std::fs::read_dir(format!("{here}/golden/ckpt")).expect("the matrix goldens");
        let mut out: Vec<(String, Json)> = dir
            .map(|entry| {
                let path = entry.expect("a directory entry").path();
                let text = std::fs::read_to_string(&path).expect("a golden image");
                let name = path.file_stem().unwrap().to_string_lossy().into_owned();
                (name, Json::parse(&text).expect("a golden parses"))
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// [`check`] `T` on the distinct non-null values at `path` in the
    /// goldens whose cell name passes `cell` (the first few: they repeat).
    fn sections<T: Wire>(goldens: &[(String, Json)], cell: fn(&str) -> bool, path: &[&str]) {
        let mut seen: Vec<&Json> = Vec::new();
        for (_, image) in goldens.iter().filter(|(name, _)| cell(name)) {
            let section = path.iter().try_fold(image, |v, key| v.get(key));
            if let Some(doc) = section.filter(|&d| *d != Json::Null && !seen.contains(&d)) {
                seen.push(doc);
            }
        }
        assert!(!seen.is_empty(), "no golden has {path:?}");
        seen.into_iter().take(3).for_each(check::<T>);
    }

    #[test]
    fn every_record_reads_back_only_what_it_writes() {
        let goldens = goldens();
        let any = |_: &str| true;
        let queue = |n: &str| n.contains("-fifo-") || n.contains("-rr-");
        let priority = |n: &str| n.contains("-priority-");
        let edf = |n: &str| n.contains("-edf-");
        let dynload = |n: &str| n.starts_with("dynload-");
        let partition = |n: &str| n.starts_with("partition-");

        check::<CrashStats>(&counters::<CrashStats>());
        check::<FleetStats>(&counters::<FleetStats>());
        sections::<FaultStats>(&goldens, any, &["fault"]);
        sections::<AdmissionStats>(&goldens, any, &["admission", "stats"]);
        sections::<ManagerStats>(&goldens, any, &["manager", "stats"]);
        sections::<DeltaStats>(&goldens, any, &["manager", "delta", "stats"]);
        sections::<Running>(&goldens, any, &["running"]);
        sections::<FpgaSeg>(&goldens, any, &["running", "fpga"]);
        sections::<AdmissionState>(&goldens, any, &["admission"]);
        sections::<QueueImage>(&goldens, queue, &["sched"]);
        type PriorityEntry = (u8, u64, TaskId, SimTime);
        sections::<ReadyImage<PriorityEntry>>(&goldens, priority, &["sched"]);
        sections::<ReadyImage<(u64, TaskId)>>(&goldens, edf, &["sched"]);
        sections::<DynLoadImage>(&goldens, dynload, &["manager"]);
        sections::<PartitionImage>(&goldens, partition, &["manager"]);
        sections::<DeltaImage>(&goldens, any, &["manager", "delta"]);
        // A column failure, and arrivals pending.
        let whole = |n: &str| n.ends_with("-colfail") || n == "dynload-fifo-guarded";
        sections::<Rendered>(&goldens, whole, &[]);
    }

    /// The image as it leaves the process: [`SystemImage::to_json`] and its
    /// strict inverse, which list the arrivals among the pending events.
    struct Rendered(SystemImage);

    impl Wire for Rendered {
        fn json(&self) -> Json {
            self.0.to_json()
        }
        fn read(v: &Json, _what: &str) -> Result<Rendered, String> {
            SystemImage::from_json(v).map(Rendered)
        }
    }

    #[test]
    fn containers_refuse_what_no_writer_emits() {
        let n = Json::UInt;
        let arr = Json::Arr;
        let pair = |k, v| arr(vec![n(k), n(v)]);
        let refused = |what: &str, read: Result<(), String>| {
            assert!(read.is_err(), "{what} accepted");
        };
        let map = |pairs| BTreeMap::<u32, u32>::read(&arr(pairs), "map").map(drop);
        refused("a map key twice", map(vec![pair(1, 2), pair(1, 3)]));
        refused("map keys out of order", map(vec![pair(2, 2), pair(1, 3)]));
        let set = |members| BTreeSet::<u32>::read(&arr(members), "set").map(drop);
        refused("a set member twice", set(vec![n(4), n(4)]));
        refused("set members out of order", set(vec![n(5), n(4)]));
        let latent = |cid| arr(vec![n(cid), n(7), Json::Bool(false)]);
        let latent = BTreeMap::<u32, Latent>::read(&arr(vec![latent(3), latent(3)]), "latent");
        refused("an upset twice", latent.map(drop));
        let words = |k| <[u64; 4]>::read(&arr(vec![n(1); k]), "words").map(drop);
        refused("three words of four", words(3));
        refused("five words of four", words(5));
        refused(
            "a short tuple",
            <(u32, u64)>::read(&arr(vec![n(1)]), "pair").map(drop),
        );
        refused(
            "2^32+1 in 32 bits",
            u32::read(&n((1 << 32) + 1), "id").map(drop),
        );
        refused("256 in 8 bits", u8::read(&n(256), "priority").map(drop));
        assert_eq!(u32::read(&n(u32::MAX.into()), "id"), Ok(u32::MAX));
        assert_eq!(words(4), Ok(()));
    }
}
