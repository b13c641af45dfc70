//! Typed checkpoint images, and the image's own shapes in the workspace's
//! one codec, [`fsim::json::Wire`].
//!
//! A [`SystemImage`] is the whole mutable state of a
//! [`System`](crate::System) as plain typed data: the task table (one
//! `Copy` slot per task), the pending events, the running segment, latent
//! upsets and stale claims, fault accounting and RNG words, the admission
//! runtime, and the scheduler's and the manager's own records
//! ([`PolicyImage`]). Capturing one refills the previous capture in place
//! and copies only what can have changed since: of the task table, the
//! slots live at that capture and those that arrived or exited after it (a
//! slot that is not live changes only by arriving or exiting); of the
//! pending events, the queue's in-flight few; of the two records, their
//! lists, into the previous capture's buffers. An arrival is not a pending
//! event of the typed image: it is its task's `Future` slot. JSON enters
//! only where state leaves the process (a hand-off inside one is a typed
//! [`Cut`](crate::checkpoint::Cut)), through [`SystemImage::to_json`]: the
//! `vfpga-ckpt/3` schema, which lists each arrival among the pending
//! events, where a queue holding it would fire it.
//!
//! The image and the records in it are `fsim::record!`s. This module adds
//! the image's own shapes: ids as the number they wrap, a task state by
//! name, the schema tag, the task table (a `task_columns` header and one
//! positional row a task, both from the one `task_table!` list), and the
//! per-field codecs of the pending events (`[at, kind, arg]` rows) and the
//! latent upsets (`[circuit, struck_at, detected]` rows). What an image
//! must *mean* — circuit ids in the library, partitions tiling the device,
//! task ids in range — is checked after decoding by the `restore` that
//! consumes it. Earlier schemas are not read, and observability state is
//! not part of an image: it never influences simulated behaviour.

use crate::admission::AdmissionState;
use crate::circuit::CircuitId;
use crate::manager::dynload::DynLoadImage;
use crate::manager::partition::PartitionImage;
use crate::recovery::FaultStats;
use crate::sched::{QueueImage, ReadyImage};
use crate::system::Ev;
use crate::task::{SetbackTable, Setbacks, TaskId, TaskSlot, TaskState};
use fsim::json::{arr_of, kind_of, str_of, tuple, Json, Wire};
use fsim::{SimDuration, SimTime};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::mem::size_of;

/// Schema tag of the rendered image.
const SCHEMA: &str = "vfpga-ckpt/3";

fsim::record! {
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

fsim::record! {
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

fsim::record! {
    /// The full mutable state of one [`System`](crate::System) at one instant.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SystemImage {
        /// `vfpga-ckpt/3`.
        pub(crate) schema: Schema,
        /// Capture time.
        pub(crate) at: SimTime,
        /// The task table's header.
        pub(crate) task_columns: TaskColumns,
        pub(crate) tasks: TaskTable,
        /// Unrepaired upsets by struck circuit id.
        #[with(latent_rows)]
        pub(crate) latent: BTreeMap<u32, Latent>,
        /// Circuits whose residency claim a journal-off restore left stale.
        pub(crate) stale: BTreeSet<u32>,
        pub(crate) running: Option<Running>,
        /// Pending events in firing order, without the crash that cut the
        /// run and without the arrivals, which are the `Future` slots.
        #[with(pending_rows)]
        pub(crate) pending: Vec<(SimTime, Ev)>,
        pub(crate) fault: FaultStats,
        /// The injector's three stream states; `None` runs fault-free.
        pub(crate) rng: Option<[[u64; 4]; 3]>,
        pub(crate) admission: Option<AdmissionState>,
        /// What `Scheduler::image` returned.
        pub(crate) sched: PolicyImage,
        /// What `FpgaManager::image` returned.
        pub(crate) manager: PolicyImage,
    }
}

/// The state a scheduler or a manager carries across a checkpoint, as the
/// process holds it: the policy's own record when the policy keeps one
/// ([`FpgaManager::image`](crate::FpgaManager::image),
/// [`Scheduler::image`](crate::Scheduler::image)), else the JSON its
/// `snapshot` rendered. It is JSON only at the process edge: its
/// [`Wire`] form writes the record's rendering, and reads any section
/// back as the JSON variant, which the policy's restore reads strictly.
/// Two images are equal, and print the same, when they render the same.
#[derive(Clone)]
pub struct PolicyImage(Form);

const _: () = assert!(
    size_of::<PolicyImage>() == size_of::<Json>(),
    "a policy image outgrew the JSON section it replaced"
);

/// Declares [`Form`], one variant a record plus the JSON one, and each
/// record's [`Record`] impl. A record is boxed, so an image takes no more
/// room in a [`SystemImage`] than the JSON tree it replaced, and a capture
/// refills the box with the buffers.
macro_rules! policy_records {
    ($($variant:ident($record:ty)),*) => {
        #[derive(Clone)]
        enum Form {
            Json(Json),
            $($variant(Box<$record>),)*
        }

        impl Form {
            fn json(&self) -> Json {
                match self {
                    Form::Json(j) => j.clone(),
                    $(Form::$variant(r) => r.json(),)*
                }
            }
        }

        $(impl Record for $record {
            fn into_image(self: Box<Self>) -> PolicyImage {
                PolicyImage(Form::$variant(self))
            }
            fn of(image: &PolicyImage) -> Option<&Self> {
                match &image.0 {
                    Form::$variant(r) => Some(r),
                    _ => None,
                }
            }
            fn from_image(image: PolicyImage) -> Option<Box<Self>> {
                match image.0 {
                    Form::$variant(r) => Some(r),
                    _ => None,
                }
            }
        })*
    };
}

policy_records!(
    DynLoad(DynLoadImage),
    Partition(PartitionImage),
    Queue(QueueImage),
    Priority(ReadyImage<(u8, u64, TaskId, SimTime)>),
    Edf(ReadyImage<(u64, TaskId)>)
);

/// A policy's checkpoint record: one variant of [`PolicyImage`].
pub(crate) trait Record: Wire + Clone {
    fn into_image(self: Box<Self>) -> PolicyImage;
    /// The record `image` holds, if it holds this kind.
    fn of(image: &PolicyImage) -> Option<&Self>;
    fn from_image(image: PolicyImage) -> Option<Box<Self>>;
}

impl PolicyImage {
    /// `from`, copied into the buffers of `recycled` when that holds a
    /// record of the same kind: a steady-state capture allocates nothing.
    pub(crate) fn refill<R: Record>(recycled: Option<PolicyImage>, from: &R) -> PolicyImage {
        match recycled.and_then(R::from_image) {
            Some(mut record) => {
                R::clone_from(&mut record, from);
                record.into_image()
            }
            None => Box::new(from.clone()).into_image(),
        }
    }

    /// The record this image holds, read strictly from its JSON when it
    /// came from outside the process (or holds another policy's record).
    pub(crate) fn record<R: Record>(&self, what: &str) -> Result<Cow<'_, R>, String> {
        match R::of(self) {
            Some(record) => Ok(Cow::Borrowed(record)),
            None => R::read(&self.as_json(), what).map(Cow::Owned),
        }
    }

    /// The image as the JSON section a `snapshot` renders, borrowed when
    /// it is one already.
    pub(crate) fn as_json(&self) -> Cow<'_, Json> {
        match &self.0 {
            Form::Json(j) => Cow::Borrowed(j),
            form => Cow::Owned(form.json()),
        }
    }
}

/// What a policy that only renders its state returned.
impl From<Json> for PolicyImage {
    fn from(snapshot: Json) -> Self {
        PolicyImage(Form::Json(snapshot))
    }
}

impl Wire for PolicyImage {
    fn json(&self) -> Json {
        self.0.json()
    }
    fn read(v: &Json, _what: &str) -> Result<PolicyImage, String> {
        Ok(PolicyImage::from(v.clone()))
    }
}

impl PartialEq for PolicyImage {
    fn eq(&self, other: &Self) -> bool {
        self.as_json() == other.as_json()
    }
}

impl fmt::Debug for PolicyImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.as_json(), f)
    }
}

/// The image's schema tag: it renders as [`SCHEMA`], and any other tag is
/// an error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Schema;

/// The task table's header: [`TaskSlot`]'s and [`Setbacks`]' field
/// names, which must be exactly the writer's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TaskColumns;

/// The task table as an image holds it: the kernel's slots and setbacks,
/// one positional row a task.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct TaskTable {
    pub(crate) slots: Vec<TaskSlot>,
    pub(crate) setbacks: SetbackTable,
}

/// Heap footprint of a JSON tree: its nodes plus their strings.
fn json_bytes(v: &Json) -> usize {
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
    /// beside the size of its rendered JSON. The two component sections
    /// count as the JSON trees an image read back from its rendering holds.
    pub fn approx_bytes(&self) -> usize {
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
            + self.tasks.slots.len() * size_of::<TaskSlot>()
            + self.tasks.setbacks.len() * size_of::<Setbacks>()
            + self.pending.len() * size_of::<(SimTime, Ev)>()
            + self.latent.len() * size_of::<(u32, Latent)>()
            + self.stale.len() * size_of::<u32>()
            + admission
            + json_bytes(&self.sched.as_json())
            + json_bytes(&self.manager.as_json())
    }

    /// Render the image as a `vfpga-ckpt/3` JSON tree. Its pending list
    /// holds an `arrive` for each `Future` slot, at the slot's arrival, in
    /// (arrival, id) order and ahead of every event at the same instant:
    /// where a queue holding the arrivals fires them.
    pub fn to_json(&self) -> Json {
        let mut tree = self.json();
        if let Json::Obj(fields) = &mut tree {
            if let Some((_, pending)) = fields.iter_mut().find(|(k, _)| k == "pending") {
                *pending = pending_rows::json(&with_arrivals(&self.tasks.slots, &self.pending));
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
        let want = with_arrivals(&img.tasks.slots, &img.pending);
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

/// The task table, declared once: each column a field of the task's
/// [`TaskSlot`] (`slot`) or [`Setbacks`] (`set`), in the row's order.
/// Expands to the `task_columns` header and the rows' codec, whose reader
/// builds each struct as one literal: a field missing here does not compile.
macro_rules! task_table {
    ($($part:ident.$field:ident),*) => {
        const TASK_COLUMNS: &[&str] = &[$(stringify!($field)),*];

        impl Wire for TaskTable {
            fn json(&self) -> Json {
                let row = |(ti, slot): (usize, &TaskSlot)| {
                    let set = self.setbacks.get(ti);
                    Json::Arr(vec![$(task_table!(@at slot set $part.$field).json()),*])
                };
                Json::Arr(self.slots.iter().enumerate().map(row).collect())
            }
            fn read(v: &Json, what: &str) -> Result<TaskTable, String> {
                let mut table = TaskTable::default();
                for (ti, row) in arr_of(v, what)?.iter().enumerate() {
                    let [$($field),*] = tuple(row, what)?;
                    table.slots.push(task_table!(@read TaskSlot slot [] $($part.$field)*));
                    let set = task_table!(@read Setbacks set [] $($part.$field)*);
                    table.setbacks.edit(ti, |s| *s = set);
                }
                Ok(table)
            }
        }
    };
    (@at $slot:ident $set:ident slot.$field:ident) => { $slot.$field };
    (@at $slot:ident $set:ident set.$field:ident) => { $set.$field };
    // The reader's `$ty`, one struct literal of the columns `$part` owns.
    (@read $ty:ident $part:ident [$($got:ident)*]) => {
        $ty { $($got: Wire::read($got, stringify!($got))?),* }
    };
    (@read $ty:ident slot [$($got:ident)*] slot.$field:ident $($rest:tt)*) => {
        task_table!(@read $ty slot [$($got)* $field] $($rest)*)
    };
    (@read $ty:ident set [$($got:ident)*] set.$field:ident $($rest:tt)*) => {
        task_table!(@read $ty set [$($got)* $field] $($rest)*)
    };
    (@read $ty:ident $part:ident [$($got:ident)*] $other:ident.$field:ident $($rest:tt)*) => {
        task_table!(@read $ty $part [$($got)*] $($rest)*)
    };
}

task_table!(
    slot.state,
    slot.op_idx,
    slot.op_remaining,
    slot.op_full,
    slot.op_done_so_far,
    set.rollbacks,
    set.dl_attempts,
    set.fault_restarts,
    set.poisoned,
    slot.arrival,
    slot.completion,
    slot.cpu_time,
    slot.fpga_time,
    slot.overhead_time,
    set.lost_time,
    set.fault_lost_time,
    set.degraded_time,
    slot.blocked_count,
    slot.failed,
    slot.quarantined,
    slot.rejected,
    slot.unschedulable,
    slot.deadline_missed,
    slot.corrupted,
    slot.lost_in_flight
);

/// Ids are written as the number they wrap (whether the library has a
/// circuit is the consuming `restore`'s check,
/// [`CircuitLib::check_id`](crate::CircuitLib)).
macro_rules! id_wire {
    ($($id:ident),*) => {$(
        impl Wire for $id {
            fn json(&self) -> Json {
                self.0.json()
            }
            fn read(v: &Json, what: &str) -> Result<$id, String> {
                u32::read(v, what).map($id)
            }
        }
    )*};
}
id_wire!(TaskId, CircuitId);

/// A task state by name, both ways from one list.
macro_rules! state_names {
    ($($state:ident: $name:literal),*) => {
        impl Wire for TaskState {
            fn json(&self) -> Json {
                Json::from(match self {
                    $(TaskState::$state => $name,)*
                })
            }
            fn read(v: &Json, what: &str) -> Result<TaskState, String> {
                match str_of(v, what)? {
                    $($name => Ok(TaskState::$state),)*
                    other => Err(format!("unknown task state '{other}'")),
                }
            }
        }
    };
}

state_names!(
    Future: "future", Ready: "ready", Running: "running", Blocked: "blocked",
    Deferred: "deferred", Done: "done", Failed: "failed", Quarantined: "quarantined",
    Rejected: "rejected", Migrated: "migrated"
);

/// The unrepaired upsets, one `[circuit, struck_at, detected]` row each,
/// in ascending circuit order.
mod latent_rows {
    use super::*;

    pub(super) fn json(latent: &BTreeMap<u32, Latent>) -> Json {
        let row = |(&cid, l): (&u32, &Latent)| (cid, l.struck_at, l.detected).json();
        Json::Arr(latent.iter().map(row).collect())
    }

    pub(super) fn read(v: &Json, what: &str) -> Result<BTreeMap<u32, Latent>, String> {
        let rows = Vec::<(u32, SimTime, bool)>::read(v, what)?;
        fsim::json::ascending(&rows, |(cid, ..)| cid, what)?;
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

/// The pending events, one `[at, kind, arg]` row each, where `arg` is the
/// task of a task's event, `[task, generation]` of a watchdog, the column
/// of a retried column failure, and `null` otherwise.
pub(crate) mod pending_rows {
    use super::*;

    pub(crate) fn json(pending: &[(SimTime, Ev)]) -> Json {
        let row = |&(at, ev): &(SimTime, Ev)| {
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
        };
        Json::Arr(pending.iter().map(row).collect())
    }

    pub(crate) fn read(v: &Json, what: &str) -> Result<Vec<(SimTime, Ev)>, String> {
        arr_of(v, what)?.iter().map(|r| read_row(r, what)).collect()
    }

    fn read_row(v: &Json, what: &str) -> Result<(SimTime, Ev), String> {
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

#[cfg(test)]
impl PolicyImage {
    /// Whether the image is a policy's own record, not JSON.
    pub(crate) fn is_record(&self) -> bool {
        !matches!(self.0, Form::Json(_))
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

    /// The image's own containers, the two per-field codecs; the generic
    /// ones are `fsim::json`'s.
    #[test]
    fn containers_refuse_what_no_writer_emits() {
        let n = Json::UInt;
        let arr = Json::Arr;
        let refused = |what: &str, read: Result<(), String>| {
            assert!(read.is_err(), "{what} accepted");
        };
        let upset = |cid| arr(vec![n(cid), n(7), Json::Bool(false)]);
        let latent = |rows| latent_rows::read(&arr(rows), "latent").map(drop);
        refused("an upset twice", latent(vec![upset(3), upset(3)]));
        refused("upsets out of order", latent(vec![upset(4), upset(3)]));
        refused("a short upset", latent(vec![arr(vec![n(3), n(7)])]));
        assert_eq!(latent(vec![upset(3), upset(4)]), Ok(()));
        let event = |kind: &str, arg| arr(vec![n(5), Json::from(kind), arg]);
        let pending = |rows| pending_rows::read(&arr(rows), "pending").map(drop);
        refused(
            "an unknown event",
            pending(vec![event("reboot", Json::Null)]),
        );
        refused(
            "a dispatch with a task",
            pending(vec![event("dispatch", n(1))]),
        );
        refused(
            "a timer without one",
            pending(vec![event("timer", Json::Null)]),
        );
        refused(
            "a two-item event",
            pending(vec![arr(vec![n(5), Json::from("seu")])]),
        );
        let watchdog = event("watchdog", arr(vec![n(1), n(2)]));
        assert_eq!(pending(vec![event("timer", n(1)), watchdog]), Ok(()));
    }
}
