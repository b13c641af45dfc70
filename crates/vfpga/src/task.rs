//! The task model.
//!
//! A task is a program alternating CPU bursts and FPGA operations, the
//! workload shape the paper assumes: "an application may benefit from the
//! speed-up granted by the FPGA execution of different independent
//! algorithms at different points of the task itself" (§3).

use crate::circuit::CircuitId;
use crate::metrics::TaskMetrics;
use fsim::{SimDuration, SimTime};
use std::ops::Deref;
use std::sync::Arc;

/// Task identifier (index into the system's task table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// One program step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Compute on the host CPU for the given time.
    Cpu(SimDuration),
    /// Run `cycles` clock cycles of the given circuit on the FPGA.
    /// The task must hold the CPU (co-processor model) and the circuit
    /// must be configured on the device.
    FpgaRun {
        /// Which registered circuit.
        circuit: CircuitId,
        /// Synchronous cycles to run.
        cycles: u64,
    },
}

/// A task's program: its ops, shared by every copy of its spec, so a
/// clone bumps a reference count. It reads as a plain slice; iterating a
/// `&mut Program` first copies the ops if another spec shares them (copy
/// on write), so re-pricing one copy leaves every other copy as it was.
/// It has no `push`: a program is built whole (from a `Vec`, an array or
/// an exact-length iterator, which writes the shared allocation
/// directly) or through [`ProgramBuilder`](crate::syscall::ProgramBuilder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program(Arc<[Op]>);

impl Program {
    /// Whether `self` and `other` are one shared allocation, not just
    /// equal ops.
    pub fn shares(&self, other: &Program) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for Program {
    type Target = [Op];

    #[inline]
    fn deref(&self) -> &[Op] {
        &self.0
    }
}

impl From<Vec<Op>> for Program {
    fn from(ops: Vec<Op>) -> Self {
        Program(ops.into())
    }
}

impl<const N: usize> From<[Op; N]> for Program {
    fn from(ops: [Op; N]) -> Self {
        Program(Arc::new(ops))
    }
}

impl FromIterator<Op> for Program {
    /// One allocation when the iterator knows its exact length (a
    /// `Range` mapped, an array's); otherwise std collects into a `Vec`
    /// first.
    fn from_iter<I: IntoIterator<Item = Op>>(ops: I) -> Self {
        Program(ops.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a Op;
    type IntoIter = std::slice::Iter<'a, Op>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Copy on write: the ops are copied first if another spec shares them.
impl<'a> IntoIterator for &'a mut Program {
    type Item = &'a mut Op;
    type IntoIter = std::slice::IterMut<'a, Op>;

    fn into_iter(self) -> Self::IntoIter {
        Arc::make_mut(&mut self.0).iter_mut()
    }
}

/// Static description of a task. Its name and program are shared by every
/// copy: a clone of a spec allocates nothing.
///
/// Aligned to 16 like [`TaskMetrics`], so the two keep one size and
/// alignment (96 bytes) and the report writes its rows over the spec
/// table in place.
#[derive(Debug, Clone)]
#[repr(align(16))]
pub struct TaskSpec {
    /// Name for reports.
    pub name: Arc<str>,
    /// Arrival time.
    pub arrival: SimTime,
    /// Scheduling priority (higher runs first under the priority policy).
    pub priority: u8,
    /// Tenant the task belongs to; admission quotas are per tenant.
    pub tenant: u32,
    /// Relative completion deadline (from arrival), if the tenant stated
    /// one. Misses are accounted, not enforced.
    pub deadline: Option<SimDuration>,
    /// Index of an op that never raises its done signal (a hung circuit).
    /// The op runs forever unless a watchdog preempts it.
    pub hang_op: Option<usize>,
    /// Device-affinity hint for fleet placement: the tenant would prefer
    /// its tasks to land on this device (modulo fleet size). Advisory —
    /// single-device systems and non-affinity placement policies ignore
    /// it entirely.
    pub affinity: Option<u32>,
    /// The program.
    pub ops: Program,
}

impl TaskSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<Arc<str>>, arrival: SimTime, ops: impl Into<Program>) -> Self {
        TaskSpec {
            name: name.into(),
            arrival,
            priority: 0,
            tenant: 0,
            deadline: None,
            hang_op: None,
            affinity: None,
            ops: ops.into(),
        }
    }

    /// With a priority.
    pub fn with_priority(mut self, p: u8) -> Self {
        self.priority = p;
        self
    }

    /// With a tenant id (admission quotas are per tenant).
    pub fn with_tenant(mut self, tenant: u32) -> Self {
        self.tenant = tenant;
        self
    }

    /// With a relative completion deadline.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// With a device-affinity hint (used by the fleet's affinity
    /// placement policy; ignored everywhere else).
    pub fn with_affinity(mut self, device: u32) -> Self {
        self.affinity = Some(device);
        self
    }

    /// The absolute instant the deadline lands on (`arrival + deadline`),
    /// when one is stamped — the quantity EDF orders by and the
    /// schedulability test compares estimates against.
    pub fn absolute_deadline(&self) -> Option<SimTime> {
        self.deadline.map(|d| self.arrival + d)
    }

    /// Mark op `idx` (which must be an FPGA run) as hanging: its done
    /// signal never rises, so only a watchdog can reclaim the device.
    pub fn with_hang_op(mut self, idx: usize) -> Self {
        debug_assert!(
            matches!(self.ops.get(idx), Some(Op::FpgaRun { .. })),
            "hang_op must point at an FPGA op"
        );
        self.hang_op = Some(idx);
        self
    }

    /// Total CPU demand (excluding FPGA ops).
    pub fn cpu_demand(&self) -> SimDuration {
        self.ops
            .iter()
            .filter_map(|op| match op {
                Op::Cpu(d) => Some(*d),
                _ => None,
            })
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Circuits this task references, deduplicated, in first-use order.
    pub fn circuits_used(&self) -> Vec<CircuitId> {
        let mut out = Vec::new();
        for op in &self.ops {
            if let Op::FpgaRun { circuit, .. } = op {
                if !out.contains(circuit) {
                    out.push(*circuit);
                }
            }
        }
        out
    }
}

/// Runtime lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TaskState {
    /// Not yet arrived.
    #[default]
    Future,
    /// Ready to run.
    Ready,
    /// Holding the CPU.
    Running,
    /// Waiting for an FPGA resource (partition, device, overlay slot).
    Blocked,
    /// Admitted later: parked in a per-tenant admission queue until the
    /// tenant's in-flight quota frees a slot. Unlike [`TaskState::Blocked`]
    /// the task holds no device claim and cannot be woken by the manager.
    Deferred,
    /// Finished all ops.
    Done,
    /// Terminated by fault recovery (retries exhausted or the request can
    /// never be served); the rest of the system keeps running.
    Failed,
    /// Removed from scheduling by admission control: repeated watchdog
    /// trips or exhausted fault recovery.
    Quarantined,
    /// Load-shed at arrival: the tenant's quota and queue cap were both
    /// exhausted, so the task never entered the system.
    Rejected,
    /// Live-migrated to another device: the task left *this* system and
    /// continues on the migration destination, which reports its real
    /// outcome. Terminal here so the source shard can drain; never a
    /// final fleet-level outcome (the destination's row wins the merge).
    Migrated,
}

impl TaskState {
    /// Whether the task has left the system (completed, failed,
    /// quarantined, rejected, or migrated away).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TaskState::Done
                | TaskState::Failed
                | TaskState::Quarantined
                | TaskState::Rejected
                | TaskState::Migrated
        )
    }

    /// Whether the task is in the system: arrived and not yet terminal.
    pub(crate) fn is_live(self) -> bool {
        self != TaskState::Future && !self.is_terminal()
    }
}

/// Everything mutable about one task that every task changes, as one
/// `Copy` record: lifecycle, progress through the current op, and the
/// numeric accounting that becomes the task's [`TaskMetrics`] row. What
/// only rollbacks, fault recovery and degradation write is its
/// [`Setbacks`], kept apart in a [`SetbackTable`]. The immutable
/// identity (name, program, tenant) stays in the [`TaskSpec`], so a
/// checkpoint captures task slots with flat copies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct TaskSlot {
    /// Lifecycle state.
    pub state: TaskState,
    /// Index of the current op.
    pub op_idx: u32,
    /// Remaining time of the current op.
    pub op_remaining: SimDuration,
    /// Full duration of the current FPGA op (for rollback); zero until
    /// the op's first activation resolves it from the circuit clock.
    pub op_full: SimDuration,
    /// Executed time of the current op so far (rollback loss account).
    pub op_done_so_far: SimDuration,
    /// Arrival time.
    pub arrival: SimTime,
    /// When the task left the system (valid once terminal).
    pub completion: SimTime,
    /// See [`TaskMetrics::cpu_time`].
    pub cpu_time: SimDuration,
    /// See [`TaskMetrics::fpga_time`].
    pub fpga_time: SimDuration,
    /// See [`TaskMetrics::overhead_time`].
    pub overhead_time: SimDuration,
    /// See [`TaskMetrics::blocked_count`].
    pub blocked_count: u32,
    /// See [`TaskMetrics::failed`].
    pub failed: bool,
    /// See [`TaskMetrics::quarantined`].
    pub quarantined: bool,
    /// See [`TaskMetrics::rejected`].
    pub rejected: bool,
    /// See [`TaskMetrics::unschedulable`].
    pub unschedulable: bool,
    /// See [`TaskMetrics::deadline_missed`].
    pub deadline_missed: bool,
    /// See [`TaskMetrics::corrupted`].
    pub corrupted: bool,
    /// See [`TaskMetrics::lost_in_flight`].
    pub lost_in_flight: bool,
}

// One slot a task, in the kernel's table and in every capture: 80 bytes,
// so a 300k-task table (24 MB) stays under the allocator's largest mmap
// threshold and is recycled from a process's second run on (DESIGN §9).
#[cfg(target_pointer_width = "64")]
const _: () = assert!(size_of::<TaskSlot>() <= 80, "a TaskSlot is ≤ 80 bytes");

/// What only rollbacks, fault recovery and degradation write of a task:
/// the cold part of its record, all zero for nearly every task.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct Setbacks {
    /// Consecutive rollbacks of the current op (livelock guard; the
    /// kernel panics at 100,000).
    pub rollbacks: u32,
    /// Corrupt download attempts in the current request streak.
    pub dl_attempts: u32,
    /// Fault-recovery restarts of the current op (cap guard).
    pub fault_restarts: u32,
    /// Valid progress at the moment an upset poisoned the current op
    /// (`None` = unpoisoned). Everything executed past this point is
    /// garbage and is discarded when the upset is repaired.
    pub poisoned: Option<SimDuration>,
    /// See [`TaskMetrics::lost_time`].
    pub lost_time: SimDuration,
    /// See [`TaskMetrics::fault_lost_time`].
    pub fault_lost_time: SimDuration,
    /// See [`TaskMetrics::degraded_time`].
    pub degraded_time: SimDuration,
}

/// Every task's [`Setbacks`], by task id, stored only from a run's first
/// setback on: empty in a run without rollbacks, faults or degradation,
/// then one entry a task up to the highest id that had one.
#[derive(Clone, Default)]
pub(crate) struct SetbackTable(Vec<Setbacks>);

impl SetbackTable {
    /// Task `ti`'s setbacks.
    #[inline]
    pub fn get(&self, ti: usize) -> Setbacks {
        self.0.get(ti).copied().unwrap_or_default()
    }

    /// Change task `ti`'s setbacks with `f`. A task past the store's end
    /// is stored only if `f` leaves it a setback, so zeroing a task
    /// stores nothing in a run that has none.
    #[inline]
    pub fn edit<R>(&mut self, ti: usize, f: impl FnOnce(&mut Setbacks) -> R) -> R {
        if let Some(set) = self.0.get_mut(ti) {
            return f(set);
        }
        let mut set = Setbacks::default();
        let out = f(&mut set);
        if set != Setbacks::default() {
            self.0.resize(ti + 1, Setbacks::default());
            self.0[ti] = set;
        }
        out
    }

    /// Forget every task's setbacks, keeping the buffer.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Entries stored.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Two tables are equal when every task's setbacks are: a stored entry
/// of zeros is the same as none.
impl PartialEq for SetbackTable {
    fn eq(&self, other: &Self) -> bool {
        let n = self.0.len().max(other.0.len());
        (0..n).all(|ti| self.get(ti) == other.get(ti))
    }
}

/// The tasks with setbacks, by id: a stored entry of zeros shows as none.
impl std::fmt::Debug for SetbackTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let zero = Setbacks::default();
        let hit = self.0.iter().enumerate().filter(|(_, set)| **set != zero);
        f.debug_map().entries(hit).finish()
    }
}

/// Full duration of an op as far as the spec knows it; FPGA run durations
/// depend on the circuit clock, so they are zero here and the system
/// overwrites `op_remaining` at first activation.
fn spec_duration(op: Option<&Op>) -> SimDuration {
    match op {
        Some(Op::Cpu(d)) => *d,
        Some(Op::FpgaRun { .. }) | None => SimDuration::ZERO,
    }
}

impl TaskSlot {
    /// The initial runtime state of a task that has not arrived yet:
    /// `Future`, its first op's spec duration to run, nothing counted.
    pub fn new(spec: &TaskSpec) -> Self {
        TaskSlot {
            op_remaining: spec_duration(spec.ops.first()),
            arrival: spec.arrival,
            ..TaskSlot::default()
        }
    }

    /// The current op of `spec`'s program, if any remain.
    pub fn current_op(&self, spec: &TaskSpec) -> Option<Op> {
        spec.ops.get(self.op_idx as usize).copied()
    }

    /// Advance to the next op; returns false when the program is finished.
    pub fn advance_op(&mut self, spec: &TaskSpec) -> bool {
        self.op_idx += 1;
        let next = spec.ops.get(self.op_idx as usize);
        if next.is_some() {
            self.op_remaining = spec_duration(next);
        }
        next.is_some()
    }

    /// The task's report row, with its `setbacks`.
    pub fn metrics(&self, name: Arc<str>, setbacks: Setbacks) -> TaskMetrics {
        TaskMetrics {
            name,
            arrival: self.arrival,
            completion: self.completion,
            cpu_time: self.cpu_time,
            fpga_time: self.fpga_time,
            overhead_time: self.overhead_time,
            lost_time: setbacks.lost_time,
            fault_lost_time: setbacks.fault_lost_time,
            degraded_time: setbacks.degraded_time,
            blocked_count: u64::from(self.blocked_count),
            failed: self.failed,
            quarantined: self.quarantined,
            rejected: self.rejected,
            unschedulable: self.unschedulable,
            deadline_missed: self.deadline_missed,
            corrupted: self.corrupted,
            lost_in_flight: self.lost_in_flight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system_tests::ms;

    #[test]
    fn spec_accessors() {
        let spec = TaskSpec::new(
            "t",
            SimTime::ZERO,
            vec![
                Op::Cpu(ms(5)),
                Op::FpgaRun {
                    circuit: CircuitId(1),
                    cycles: 100,
                },
                Op::Cpu(ms(3)),
                Op::FpgaRun {
                    circuit: CircuitId(1),
                    cycles: 50,
                },
                Op::FpgaRun {
                    circuit: CircuitId(2),
                    cycles: 10,
                },
            ],
        )
        .with_priority(3);
        assert_eq!(spec.cpu_demand(), ms(8));
        assert_eq!(spec.circuits_used(), vec![CircuitId(1), CircuitId(2)]);
        assert_eq!(spec.priority, 3);
    }

    fn two_op_spec() -> TaskSpec {
        let run = Op::FpgaRun {
            circuit: CircuitId(1),
            cycles: 100,
        };
        TaskSpec::new("t", SimTime::ZERO, [Op::Cpu(ms(5)), run])
    }

    #[test]
    fn a_clone_shares_its_name_and_program() {
        let spec = two_op_spec();
        let copy = spec.clone();
        assert!(Arc::ptr_eq(&spec.name, &copy.name));
        assert!(spec.ops.shares(&copy.ops));
        // Equal ops built apart are equal, not shared.
        let apart = two_op_spec();
        assert_eq!(apart.ops, spec.ops);
        assert!(!apart.ops.shares(&spec.ops));
    }

    /// Re-pricing one copy's FPGA ops as CPU time (what a fleet's software
    /// fallback does) copies that program first; every other copy keeps
    /// the original, still shared.
    #[test]
    fn rewriting_one_copys_ops_leaves_every_other_copy() {
        let spec = two_op_spec();
        let (other, mut soft) = (spec.clone(), spec.clone());
        for op in &mut soft.ops {
            if let Op::FpgaRun { cycles, .. } = *op {
                *op = Op::Cpu(SimDuration::from_nanos(cycles * 10));
            }
        }
        assert_eq!(
            &soft.ops[..],
            [Op::Cpu(ms(5)), Op::Cpu(SimDuration::from_nanos(1000))]
        );
        assert!(!soft.ops.shares(&spec.ops));
        assert!(Arc::ptr_eq(&soft.name, &spec.name));
        assert!(other.ops.shares(&spec.ops));
        assert_eq!(spec.ops, two_op_spec().ops);
        // A program no other copy holds is rewritten where it is.
        let at = soft.ops.as_ptr();
        for op in &mut soft.ops {
            *op = Op::Cpu(ms(1));
        }
        assert_eq!(soft.ops.as_ptr(), at);
        assert_eq!(&soft.ops[..], [Op::Cpu(ms(1)); 2]);
    }

    /// The slot's size, which `ci.sh` prints beside the line counts (a
    /// `const` assertion holds it to 80 bytes).
    #[test]
    fn slot_bytes() {
        println!("TaskSlot: {} bytes", size_of::<TaskSlot>());
        println!(
            "TaskSpec: {} bytes, align {}; TaskMetrics: {} bytes, align {}",
            size_of::<TaskSpec>(),
            align_of::<TaskSpec>(),
            size_of::<TaskMetrics>(),
            align_of::<TaskMetrics>()
        );
    }

    #[test]
    fn run_advances_through_ops() {
        let spec = TaskSpec::new("t", SimTime::ZERO, vec![Op::Cpu(ms(1)), Op::Cpu(ms(2))]);
        let mut run = TaskSlot::new(&spec);
        assert_eq!(run.op_remaining, ms(1));
        assert!(run.advance_op(&spec));
        assert_eq!(run.op_remaining, ms(2));
        assert!(!run.advance_op(&spec));
        assert_eq!(run.current_op(&spec), None);
    }
}
