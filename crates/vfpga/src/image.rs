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
//! JSON enters only where state crosses the durability boundary — a host
//! crash, a failover, a migration — through [`SystemImage::to_json`],
//! which renders the `vfpga-ckpt/1` schema. [`SystemImage::from_json`] is
//! its strict inverse: fields must appear exactly as the writer emits
//! them, every per-task array must have one entry per task, and every
//! number must fit its typed field; anything else is an error, never a
//! panic. Observability state (trace buffer, registry, timelines) is
//! deliberately not part of an image: it never influences simulated
//! behaviour, and a real in-memory trace dies with its host anyway.

use crate::admission::{AdmissionState, AdmissionStats};
use crate::checkpoint::CheckpointImage;
use crate::circuit::CircuitId;
use crate::recovery::FaultStats;
use crate::system::Ev;
use crate::task::{TaskId, TaskSlot, TaskState};
use fsim::json::{Json, Obj};
use fsim::{span, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Schema tag of the rendered image.
const SCHEMA: &str = "vfpga-ckpt/1";

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
/// capture is a copy. It is a [`CheckpointImage`] (JSON) only while it is
/// outside the host.
pub(crate) struct Capture {
    /// Monotone checkpoint number.
    pub(crate) seq: u64,
    /// How many [`WalRecord`](crate::WalRecord)s the image covers.
    pub(crate) wal_len: usize,
    pub(crate) image: SystemImage,
}

impl Capture {
    /// The capture as it leaves the host: rendered to its `vfpga-ckpt/1`
    /// tree. Debug builds prove here that the rendering parses back to
    /// the same typed image; release builds rely on the property tests.
    pub(crate) fn to_durable(&self) -> CheckpointImage {
        let _s = span::guard("image_json");
        let state = self.image.to_json();
        debug_assert_eq!(
            Json::parse(&state.render())
                .map_err(|e| e.to_string())
                .and_then(|json| SystemImage::from_json(&json))
                .as_ref(),
            Ok(&self.image),
            "a checkpoint image must survive the render/parse round trip"
        );
        CheckpointImage {
            seq: self.seq,
            at: self.image.at,
            wal_len: self.wal_len,
            state,
        }
    }

    /// A durable checkpoint coming back into a host, as the restore point
    /// of a journal that holds `wal_len` records the image already covers.
    pub(crate) fn from_durable(durable: &CheckpointImage, wal_len: usize) -> Result<Self, String> {
        let _s = span::guard("image_json");
        let image = SystemImage::from_json(&durable.state)?;
        if image.at != durable.at {
            return Err("image capture time disagrees with its state".into());
        }
        Ok(Capture {
            seq: durable.seq,
            wal_len,
            image,
        })
    }
}

/// The full mutable state of one [`System`](crate::System) at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemImage {
    /// Capture time.
    pub(crate) at: SimTime,
    pub(crate) tasks: Vec<TaskSlot>,
    /// Unrepaired upsets by struck circuit id.
    pub(crate) latent: BTreeMap<u32, Latent>,
    /// Tasks not yet terminal.
    pub(crate) unfinished: usize,
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

fn dur(d: SimDuration) -> Json {
    Json::from(d.as_nanos())
}

fn time(t: SimTime) -> Json {
    Json::from(t.as_nanos())
}

fn tid(t: TaskId) -> Json {
    Json::from(u64::from(t.0))
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

    /// Render the image as a `vfpga-ckpt/1` JSON tree.
    pub fn to_json(&self) -> Json {
        let per_task =
            |f: fn(&TaskSlot) -> Json| -> Vec<Json> { self.tasks.iter().map(f).collect() };
        let running = match &self.running {
            None => Json::Null,
            Some(r) => Obj::new()
                .set("tid", tid(r.tid))
                .set("dur", dur(r.dur))
                .set("exec_start", time(r.exec_start))
                .set(
                    "fpga",
                    match &r.fpga {
                        None => Json::Null,
                        Some(f) => Obj::new()
                            .set("cid", u64::from(f.cid.0))
                            .set("completes", f.completes)
                            .set("slack", dur(f.slack))
                            .set("poll", dur(f.poll_cost))
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
                    Ev::Arrive(t) => ("arrive", tid(t)),
                    Ev::Timer(t) => ("timer", tid(t)),
                    Ev::Dispatch => ("dispatch", Json::Null),
                    Ev::Seu => ("seu", Json::Null),
                    Ev::Scrub => ("scrub", Json::Null),
                    Ev::ColumnFail(None) => ("colfail", Json::Null),
                    Ev::ColumnFail(Some(c)) => ("colfail_at", Json::from(u64::from(c))),
                    Ev::RetryDone(t) => ("retry_done", tid(t)),
                    Ev::Retry(t) => ("retry", tid(t)),
                    Ev::Checkpoint => ("ckpt", Json::Null),
                    Ev::Watchdog { tid: t, seq } => {
                        ("watchdog", Json::Arr(vec![tid(t), Json::from(seq)]))
                    }
                    Ev::Crash => unreachable!("capture drops the crash event"),
                };
                Json::Arr(vec![time(at), Json::from(kind), arg])
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
            .set("at", time(self.at))
            .set(
                "tasks",
                per_task(|t| {
                    Obj::new()
                        .set("state", state_str(t.state))
                        .set("op_idx", t.op_idx as u64)
                        .set("op_remaining", dur(t.op_remaining))
                        .set("completed_at", time(t.completion))
                        .build()
                }),
            )
            .set(
                "metrics",
                per_task(|m| {
                    Obj::new()
                        .set("arrival", time(m.arrival))
                        .set("completion", time(m.completion))
                        .set("cpu", dur(m.cpu_time))
                        .set("fpga", dur(m.fpga_time))
                        .set("overhead", dur(m.overhead_time))
                        .set("lost", dur(m.lost_time))
                        .set("fault_lost", dur(m.fault_lost_time))
                        .set("blocked", m.blocked_count)
                        .set("failed", m.failed)
                        .set("corrupted", m.corrupted)
                        .set("degraded", dur(m.degraded_time))
                        .set("quarantined", m.quarantined)
                        .set("rejected", m.rejected)
                        .set("unschedulable", m.unschedulable)
                        .set("deadline_missed", m.deadline_missed)
                        .set("lost_in_flight", m.lost_in_flight)
                        .build()
                }),
            )
            .set("op_full", per_task(|t| dur(t.op_full)))
            .set("op_done", per_task(|t| dur(t.op_done_so_far)))
            .set("rollbacks", per_task(|t| Json::from(t.rollbacks)))
            .set("dl_attempts", per_task(|t| Json::from(t.dl_attempts)))
            .set("fault_restarts", per_task(|t| Json::from(t.fault_restarts)))
            .set(
                "poisoned",
                per_task(|t| t.poisoned.map(dur).unwrap_or(Json::Null)),
            )
            .set(
                "latent",
                self.latent
                    .iter()
                    .map(|(cid, l)| {
                        Json::Arr(vec![
                            Json::from(*cid),
                            time(l.struck_at),
                            Json::from(l.detected),
                        ])
                    })
                    .collect::<Vec<_>>(),
            )
            .set("unfinished", self.unfinished)
            .set("stale", self.stale.iter().copied().collect::<Vec<u32>>())
            .set("running", running)
            .set("pending", pending)
            .set("fault", fault_to_json(&self.fault))
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

    /// Rebuild the typed image from its `vfpga-ckpt/1` rendering. Strict:
    /// an unknown schema, a missing, extra or reordered field, a per-task
    /// array of the wrong length, an unknown task-state or event-kind
    /// name, or a number too large for its field is an error.
    pub fn from_json(v: &Json) -> Result<SystemImage, String> {
        let mut top = Fields::of(v, "image")?;
        match top.str("schema")? {
            SCHEMA => {}
            other => return Err(format!("unknown image schema '{other}'")),
        }
        let at = top.time("at")?;
        let runs = arr_of(top.next("tasks")?, "tasks")?;
        let n = runs.len();
        let metrics = fixed(top.next("metrics")?, "metrics", n)?;
        let mut tasks = Vec::with_capacity(n);
        for (t, m) in runs.iter().zip(metrics) {
            tasks.push(slot_from_json(t, m)?);
        }
        // The parallel per-task arrays, one entry per task each.
        let mut column = |key: &'static str| fixed(top.next(key)?, key, n);
        for (t, v) in tasks.iter_mut().zip(column("op_full")?) {
            t.op_full = SimDuration::from_nanos(as_u64(v, "op_full")?);
        }
        for (t, v) in tasks.iter_mut().zip(column("op_done")?) {
            t.op_done_so_far = SimDuration::from_nanos(as_u64(v, "op_done")?);
        }
        for (t, v) in tasks.iter_mut().zip(column("rollbacks")?) {
            t.rollbacks = as_u64(v, "rollbacks")?;
        }
        for (t, v) in tasks.iter_mut().zip(column("dl_attempts")?) {
            t.dl_attempts = as_u32(v, "dl_attempts")?;
        }
        for (t, v) in tasks.iter_mut().zip(column("fault_restarts")?) {
            t.fault_restarts = as_u32(v, "fault_restarts")?;
        }
        for (t, v) in tasks.iter_mut().zip(column("poisoned")?) {
            t.poisoned = match v {
                Json::Null => None,
                v => Some(SimDuration::from_nanos(as_u64(v, "poisoned")?)),
            };
        }
        let mut latent = BTreeMap::new();
        for v in arr_of(top.next("latent")?, "latent")? {
            let [cid, struck, detected] = tuple(v, "latent entry")?;
            let l = Latent {
                struck_at: SimTime(as_u64(struck, "latent strike time")?),
                detected: as_bool(detected, "latent detected flag")?,
            };
            if latent.insert(as_u32(cid, "latent circuit")?, l).is_some() {
                return Err("latent lists a circuit twice".into());
            }
        }
        let unfinished = top.usize("unfinished")?;
        let mut stale = BTreeSet::new();
        for v in arr_of(top.next("stale")?, "stale")? {
            if !stale.insert(as_u32(v, "stale circuit")?) {
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
        let fault = fault_from_json(top.next("fault")?)?;
        let rng = match top.next("rng")? {
            Json::Null => None,
            v => {
                let mut states = [[0u64; 4]; 3];
                for (state, words) in states.iter_mut().zip(fixed(v, "rng", 3)?) {
                    for (w, v) in state.iter_mut().zip(fixed(words, "rng stream", 4)?) {
                        *w = as_u64(v, "rng word")?;
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
            unfinished,
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

fn slot_from_json(run: &Json, metrics: &Json) -> Result<TaskSlot, String> {
    let mut t = Fields::of(run, "task")?;
    let state = state_from_str(t.str("state")?)?;
    let op_idx = t.usize("op_idx")?;
    let op_remaining = t.dur("op_remaining")?;
    let completion = t.time("completed_at")?;
    t.end()?;
    let mut m = Fields::of(metrics, "task metrics")?;
    let arrival = m.time("arrival")?;
    // The image writes the one completion instant in both places.
    if m.time("completion")? != completion {
        return Err("task 'completion' disagrees with 'completed_at'".into());
    }
    let slot = TaskSlot {
        state,
        op_idx,
        op_remaining,
        // The parallel per-task arrays fill these in afterwards.
        op_full: SimDuration::ZERO,
        op_done_so_far: SimDuration::ZERO,
        rollbacks: 0,
        dl_attempts: 0,
        fault_restarts: 0,
        poisoned: None,
        arrival,
        completion,
        cpu_time: m.dur("cpu")?,
        fpga_time: m.dur("fpga")?,
        overhead_time: m.dur("overhead")?,
        lost_time: m.dur("lost")?,
        fault_lost_time: m.dur("fault_lost")?,
        blocked_count: m.u64("blocked")?,
        failed: m.bool("failed")?,
        corrupted: m.bool("corrupted")?,
        degraded_time: m.dur("degraded")?,
        quarantined: m.bool("quarantined")?,
        rejected: m.bool("rejected")?,
        unschedulable: m.bool("unschedulable")?,
        deadline_missed: m.bool("deadline_missed")?,
        lost_in_flight: m.bool("lost_in_flight")?,
    };
    m.end()?;
    Ok(slot)
}

fn running_from_json(v: &Json) -> Result<Running, String> {
    let mut r = Fields::of(v, "running")?;
    let run = Running {
        tid: TaskId(r.u32("tid")?),
        dur: r.dur("dur")?,
        exec_start: r.time("exec_start")?,
        fpga: match r.next("fpga")? {
            Json::Null => None,
            f => {
                let mut f = Fields::of(f, "running fpga segment")?;
                let seg = FpgaSeg {
                    cid: CircuitId(f.u32("cid")?),
                    completes: f.bool("completes")?,
                    slack: f.dur("slack")?,
                    poll_cost: f.dur("poll")?,
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
    let task = || as_u32(arg, "pending event task").map(TaskId);
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
        "colfail_at" => Ev::ColumnFail(Some(as_u32(arg, "failed column")?)),
        "retry_done" => Ev::RetryDone(task()?),
        "retry" => Ev::Retry(task()?),
        "ckpt" => no_arg(Ev::Checkpoint)?,
        "watchdog" => {
            let [t, seq] = tuple(arg, "watchdog arg")?;
            Ev::Watchdog {
                tid: TaskId(as_u32(t, "watchdog task")?),
                seq: as_u64(seq, "watchdog generation")?,
            }
        }
        other => return Err(format!("unknown pending event '{other}'")),
    };
    Ok((SimTime(as_u64(at, "pending event time")?), ev))
}

fn fault_to_json(f: &FaultStats) -> Json {
    Obj::new()
        .set("download_faults", f.download_faults)
        .set("seu_faults", f.seu_faults)
        .set("seu_benign", f.seu_benign)
        .set("column_faults", f.column_faults)
        .set("crc_mismatches", f.crc_mismatches)
        .set("retries", f.retries)
        .set("retry_time", dur(f.retry_time))
        .set("tasks_failed", f.tasks_failed)
        .set("scrub_passes", f.scrub_passes)
        .set("scrub_time", dur(f.scrub_time))
        .set("repairs", f.repairs)
        .set("repair_time", dur(f.repair_time))
        .set("work_lost", dur(f.work_lost))
        .set("columns_retired", f.columns_retired)
        .set("retire_time", dur(f.retire_time))
        .set("mttr_total", dur(f.mttr_total))
        .build()
}

fn fault_from_json(v: &Json) -> Result<FaultStats, String> {
    let mut f = Fields::of(v, "fault")?;
    let stats = FaultStats {
        download_faults: f.u64("download_faults")?,
        seu_faults: f.u64("seu_faults")?,
        seu_benign: f.u64("seu_benign")?,
        column_faults: f.u64("column_faults")?,
        crc_mismatches: f.u64("crc_mismatches")?,
        retries: f.u64("retries")?,
        retry_time: f.dur("retry_time")?,
        tasks_failed: f.u64("tasks_failed")?,
        scrub_passes: f.u64("scrub_passes")?,
        scrub_time: f.dur("scrub_time")?,
        repairs: f.u64("repairs")?,
        repair_time: f.dur("repair_time")?,
        work_lost: f.dur("work_lost")?,
        columns_retired: f.u64("columns_retired")?,
        retire_time: f.dur("retire_time")?,
        mttr_total: f.dur("mttr_total")?,
    };
    f.end()?;
    Ok(stats)
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
    let st = &a.stats;
    Obj::new()
        .set("in_flight", in_flight)
        .set("deferred", deferred)
        .set("wd_seq", a.wd_seq.clone())
        .set("wd_trips", a.wd_trips.clone())
        .set("degraded", a.degraded.clone())
        .set("degrade_mode", a.degrade_mode)
        .set(
            "stats",
            Obj::new()
                .set("admitted", st.admitted)
                .set("deferred", st.deferred)
                .set("rejected", st.rejected)
                .set("quarantined", st.quarantined)
                .set("deadline_missed", st.deadline_missed)
                .set("wd_armed", st.watchdog_armed)
                .set("wd_fired", st.watchdog_fired)
                .set("wd_preempt", dur(st.watchdog_preempt_time))
                .set("wd_lost", dur(st.watchdog_lost_time))
                .set("degraded_dispatches", st.degraded_dispatches)
                .set("degraded_time", dur(st.degraded_time))
                .set("unschedulable", st.unschedulable)
                .set("degrade_enters", st.degrade_enters)
                .set("degrade_exits", st.degrade_exits)
                .build(),
        )
        .build()
}

fn admission_from_json(v: &Json, n: usize) -> Result<AdmissionState, String> {
    let mut a = Fields::of(v, "admission")?;
    let mut in_flight = BTreeMap::new();
    for v in arr_of(a.next("in_flight")?, "in_flight")? {
        let [t, c] = tuple(v, "in_flight entry")?;
        let c = as_u32(c, "in_flight count")?;
        if in_flight
            .insert(as_u32(t, "in_flight tenant")?, c)
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
            .map(|x| as_u32(x, "deferred task"))
            .collect::<Result<_, String>>()?;
        if deferred.insert(as_u32(t, "deferred tenant")?, q).is_some() {
            return Err("deferred lists a tenant twice".into());
        }
    }
    let wd_seq = fixed(a.next("wd_seq")?, "wd_seq", n)?
        .iter()
        .map(|v| as_u64(v, "wd_seq"))
        .collect::<Result<_, String>>()?;
    let wd_trips = fixed(a.next("wd_trips")?, "wd_trips", n)?
        .iter()
        .map(|v| as_u32(v, "wd_trips"))
        .collect::<Result<_, String>>()?;
    let degraded = fixed(a.next("degraded")?, "degraded", n)?
        .iter()
        .map(|v| as_bool(v, "degraded"))
        .collect::<Result<_, String>>()?;
    let degrade_mode = a.bool("degrade_mode")?;
    let mut st = Fields::of(a.next("stats")?, "admission stats")?;
    let stats = AdmissionStats {
        admitted: st.u64("admitted")?,
        deferred: st.u64("deferred")?,
        rejected: st.u64("rejected")?,
        quarantined: st.u64("quarantined")?,
        deadline_missed: st.u64("deadline_missed")?,
        watchdog_armed: st.u64("wd_armed")?,
        watchdog_fired: st.u64("wd_fired")?,
        watchdog_preempt_time: st.dur("wd_preempt")?,
        watchdog_lost_time: st.dur("wd_lost")?,
        degraded_dispatches: st.u64("degraded_dispatches")?,
        degraded_time: st.dur("degraded_time")?,
        unschedulable: st.u64("unschedulable")?,
        degrade_enters: st.u64("degrade_enters")?,
        degrade_exits: st.u64("degrade_exits")?,
    };
    st.end()?;
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

fn as_u64(v: &Json, what: &str) -> Result<u64, String> {
    match v {
        Json::UInt(x) => Ok(*x),
        other => Err(format!(
            "{what} is {}, not an unsigned integer",
            kind_of(other)
        )),
    }
}

fn as_u32(v: &Json, what: &str) -> Result<u32, String> {
    u32::try_from(as_u64(v, what)?).map_err(|_| format!("{what} does not fit in 32 bits"))
}

fn as_bool(v: &Json, what: &str) -> Result<bool, String> {
    match v {
        Json::Bool(b) => Ok(*b),
        other => Err(format!("{what} is {}, not a bool", kind_of(other))),
    }
}

fn arr_of<'a>(v: &'a Json, what: &str) -> Result<&'a [Json], String> {
    v.as_arr()
        .ok_or_else(|| format!("{what} is {}, not an array", kind_of(v)))
}

/// An array of exactly `N` items, for destructuring.
fn tuple<'a, const N: usize>(v: &'a Json, what: &str) -> Result<&'a [Json; N], String> {
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
struct Fields<'a> {
    what: &'static str,
    rest: std::slice::Iter<'a, (String, Json)>,
}

impl<'a> Fields<'a> {
    fn of(v: &'a Json, what: &'static str) -> Result<Self, String> {
        match v {
            Json::Obj(fields) => Ok(Fields {
                what,
                rest: fields.iter(),
            }),
            other => Err(format!("{what} is {}, not an object", kind_of(other))),
        }
    }

    fn next(&mut self, key: &str) -> Result<&'a Json, String> {
        match self.rest.next() {
            Some((k, v)) if k == key => Ok(v),
            Some((k, _)) => Err(format!("{}: expected '{key}', found '{k}'", self.what)),
            None => Err(format!("{}: missing '{key}'", self.what)),
        }
    }

    fn end(mut self) -> Result<(), String> {
        match self.rest.next() {
            None => Ok(()),
            Some((k, _)) => Err(format!("{}: unexpected field '{k}'", self.what)),
        }
    }

    fn u64(&mut self, key: &str) -> Result<u64, String> {
        as_u64(self.next(key)?, key)
    }

    fn u32(&mut self, key: &str) -> Result<u32, String> {
        as_u32(self.next(key)?, key)
    }

    fn usize(&mut self, key: &str) -> Result<usize, String> {
        usize::try_from(self.u64(key)?).map_err(|_| format!("'{key}' does not fit in usize"))
    }

    fn dur(&mut self, key: &str) -> Result<SimDuration, String> {
        self.u64(key).map(SimDuration::from_nanos)
    }

    fn time(&mut self, key: &str) -> Result<SimTime, String> {
        self.u64(key).map(SimTime)
    }

    fn bool(&mut self, key: &str) -> Result<bool, String> {
        as_bool(self.next(key)?, key)
    }

    fn str(&mut self, key: &str) -> Result<&'a str, String> {
        match self.next(key)? {
            Json::Str(s) => Ok(s),
            other => Err(format!("'{key}' is {}, not a string", kind_of(other))),
        }
    }
}
