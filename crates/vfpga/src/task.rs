//! The task model.
//!
//! A task is a program alternating CPU bursts and FPGA operations, the
//! workload shape the paper assumes: "an application may benefit from the
//! speed-up granted by the FPGA execution of different independent
//! algorithms at different points of the task itself" (§3).

use crate::circuit::CircuitId;
use crate::metrics::TaskMetrics;
use fsim::{SimDuration, SimTime};

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

/// Static description of a task.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Name for reports.
    pub name: String,
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
    pub ops: Vec<Op>,
}

impl TaskSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, arrival: SimTime, ops: Vec<Op>) -> Self {
        TaskSpec {
            name: name.into(),
            arrival,
            priority: 0,
            tenant: 0,
            deadline: None,
            hang_op: None,
            affinity: None,
            ops,
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

/// Everything mutable about one task, as one `Copy` record: lifecycle,
/// progress through the current op, recovery bookkeeping, and the numeric
/// accounting that becomes the task's [`TaskMetrics`] row. The immutable
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
    /// See [`TaskMetrics::lost_time`].
    pub lost_time: SimDuration,
    /// See [`TaskMetrics::fault_lost_time`].
    pub fault_lost_time: SimDuration,
    /// See [`TaskMetrics::degraded_time`].
    pub degraded_time: SimDuration,
    /// See [`TaskMetrics::blocked_count`].
    pub blocked_count: u64,
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

// One slot a task, in the kernel's table and in every capture: 136 bytes
// with 32-bit `op_idx` and `rollbacks`.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(size_of::<TaskSlot>() == 136, "a TaskSlot is 136 bytes");

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

    /// The task's report row.
    pub fn metrics(&self, name: String) -> TaskMetrics {
        TaskMetrics {
            name,
            arrival: self.arrival,
            completion: self.completion,
            cpu_time: self.cpu_time,
            fpga_time: self.fpga_time,
            overhead_time: self.overhead_time,
            lost_time: self.lost_time,
            fault_lost_time: self.fault_lost_time,
            degraded_time: self.degraded_time,
            blocked_count: self.blocked_count,
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
