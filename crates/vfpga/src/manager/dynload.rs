//! Dynamic loading (§3).
//!
//! "The operating system downloads the desired FPGA configuration into the
//! FPGA RAM, by using the information received at task loading … Then, the
//! operating system can put running the task."
//!
//! The whole device is multiplexed among tasks: whenever a dispatched task
//! needs a circuit that is not the one currently configured, the manager
//! downloads it (full stream on serial-only ports, partial frames when the
//! port supports it). Preemption mid-operation follows the configured
//! [`PreemptAction`]; sequential circuits preempted under `SaveRestore`
//! pay readback on the way out and state-write on the way back in.

use super::{
    Activation, DeviceUsage, FpgaManager, ManagerStats, Port, PreemptCost, ResidentRegion,
};
use crate::circuit::{CircuitId, CircuitLib};
use crate::manager::PreemptAction;
use crate::task::TaskId;
use fpga::ConfigTiming;
use fsim::json::Json;
use fsim::json::Wire;
use fsim::{SimDuration, TraceEvent};
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Saved state per (task, circuit) awaiting restore.
pub(crate) type Saved = BTreeSet<(TaskId, CircuitId)>;

fsim::record! {
    /// Everything [`DynLoadManager`] carries across a checkpoint. A
    /// snapshot lends the manager's saved list, which it keeps in
    /// ascending order, so it renders as the [`Saved`] set a restore reads.
    #[derive(Debug)]
    pub(crate) struct DynLoadImage<S> {
        /// Circuit currently in configuration RAM.
        loaded: Option<CircuitId>,
        saved: S,
        stats: ManagerStats,
    }
}

/// Dynamic whole-device loading.
#[derive(Debug)]
pub struct DynLoadManager {
    lib: Arc<CircuitLib>,
    policy: PreemptAction,
    /// Circuit currently in configuration RAM.
    loaded: Option<CircuitId>,
    /// Saved state per (task, circuit) awaiting restore, ascending.
    saved: Vec<(TaskId, CircuitId)>,
    port: Port,
}

impl DynLoadManager {
    /// New manager with the given preemption policy.
    pub fn new(lib: Arc<CircuitLib>, timing: ConfigTiming, policy: PreemptAction) -> Self {
        DynLoadManager {
            lib,
            policy,
            loaded: None,
            saved: Vec::new(),
            port: Port::new(timing),
        }
    }

    /// The configured preemption policy.
    pub fn policy(&self) -> PreemptAction {
        self.policy
    }
}

impl FpgaManager for DynLoadManager {
    fn name(&self) -> &'static str {
        "dynload"
    }

    fn activate(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        let mut overhead = SimDuration::ZERO;
        let mut write = None;
        if self.loaded != Some(cid) {
            self.port.stats.misses += 1;
            self.loaded = Some(cid);
            // Downloads always place the circuit from column 0: only its
            // frames where the port can address them, else the whole chip.
            let width = self.lib.get(cid).shape().0;
            let w = if self.port.timing.port.supports_partial() {
                self.port.write(tid, cid, width as usize, 0, width)
            } else {
                self.port.full(tid, cid, width)
            };
            overhead += w.config_time;
            write = Some(w);
        } else {
            self.port.stats.hits += 1;
        }
        // Restore saved state if this task was preempted mid-op earlier.
        if let Ok(i) = self.saved.binary_search(&(tid, cid)) {
            self.saved.remove(i);
            overhead += self.port.move_state(self.lib.get(cid).frames(), false);
        }
        Activation::ready(overhead, write)
    }

    fn preempt(&mut self, tid: TaskId, cid: CircuitId) -> PreemptCost {
        let img = self.lib.get(cid);
        // A combinational circuit processes a stream of independent items:
        // preemption at an item boundary loses nothing and needs no
        // readback — the paper's "simply … wait the complete propagation"
        // applies per item, not per burst.
        if !img.is_sequential() {
            return PreemptCost {
                overhead: SimDuration::ZERO,
                lose_progress: false,
            };
        }
        match self.policy {
            PreemptAction::WaitCompletion => {
                unreachable!("system must not call preempt under WaitCompletion")
            }
            // No save machinery: the sequential computation restarts from
            // its initial data ("roll-back the computation in the FPGA
            // from the beginning").
            PreemptAction::Rollback => PreemptCost {
                overhead: SimDuration::ZERO,
                lose_progress: true,
            },
            PreemptAction::SaveRestore => {
                let overhead = self.port.move_state(img.frames(), true);
                if let Err(i) = self.saved.binary_search(&(tid, cid)) {
                    // Room for every state a `stream` run holds saved at
                    // once (at most 10), so the list does not grow while
                    // the task table is live and settle where the next
                    // run's table goes.
                    if self.saved.is_empty() {
                        self.saved.reserve(16);
                    }
                    self.saved.insert(i, (tid, cid));
                }
                PreemptCost {
                    overhead,
                    lose_progress: false,
                }
            }
        }
    }

    fn op_done(&mut self, _tid: TaskId, _cid: CircuitId) -> (SimDuration, Vec<TaskId>) {
        // The circuit stays loaded; the next task to need it wins a hit.
        (SimDuration::ZERO, Vec::new())
    }

    fn task_exit(&mut self, tid: TaskId) -> Vec<TaskId> {
        self.saved.retain(|&(t, _)| t != tid);
        Vec::new()
    }

    fn stats(&self) -> ManagerStats {
        self.port.stats
    }

    fn set_recording(&mut self, on: bool) {
        self.port.obs.set_recording(on);
    }

    fn drain_events(&mut self) -> Vec<TraceEvent> {
        self.port.obs.drain()
    }

    fn usage(&self) -> DeviceUsage {
        let total = self.port.timing.spec.clbs() as u64;
        let used = self
            .loaded
            .map(|cid| self.lib.get(cid).blocks() as u64)
            .unwrap_or(0);
        DeviceUsage {
            used_clbs: used,
            total_clbs: total,
            // Whole-device multiplexing: the free space is one contiguous
            // remainder (or none when a circuit covers the chip).
            free_fragments: u32::from(used < total),
        }
    }

    fn timing(&self) -> &ConfigTiming {
        &self.port.timing
    }

    fn resident_regions(&self) -> Vec<ResidentRegion> {
        // Downloads always place the circuit from column 0.
        self.loaded
            .map(|cid| ResidentRegion {
                cid,
                col0: 0,
                width: self.lib.get(cid).shape().0,
            })
            .into_iter()
            .collect()
    }

    fn is_resident(&self, cid: CircuitId) -> bool {
        self.loaded == Some(cid)
    }

    fn discard_resident(&mut self, cid: CircuitId) -> bool {
        if self.loaded == Some(cid) {
            self.loaded = None;
            true
        } else {
            false
        }
    }

    fn snapshot(&self) -> Option<Json> {
        let image = DynLoadImage {
            loaded: self.loaded,
            saved: Cow::Borrowed(&self.saved),
            stats: self.port.stats,
        };
        Some(image.json())
    }

    fn restore(&mut self, snap: &Json) -> Result<(), String> {
        let st = DynLoadImage::<Saved>::read(snap, "dynload snapshot")?;
        let saved = st.saved.iter().map(|&(_, cid)| cid);
        for cid in st.loaded.into_iter().chain(saved) {
            self.lib.check_id(cid)?;
        }
        self.saved = st.saved.into_iter().collect();
        (self.loaded, self.port.stats) = (st.loaded, st.stats);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpga::ConfigPort;

    fn manager(port: ConfigPort, policy: PreemptAction) -> (DynLoadManager, Vec<CircuitId>) {
        let (lib, ids) = crate::system_tests::lib_mixed(3);
        let timing = ConfigTiming {
            spec: fpga::device::part("VF400"),
            port,
        };
        (DynLoadManager::new(lib, timing, policy), ids)
    }

    #[test]
    fn switching_circuits_costs_downloads_reuse_does_not() {
        let (mut m, ids) = manager(ConfigPort::SerialFast, PreemptAction::Rollback);
        let t0 = TaskId(0);
        let t1 = TaskId(1);
        assert!(
            matches!(m.activate(t0, ids[0]), Activation::Ready { overhead, .. } if overhead > SimDuration::ZERO)
        );
        m.op_done(t0, ids[0]);
        // Same circuit again (other task): hit.
        match m.activate(t1, ids[0]) {
            Activation::Ready { overhead, .. } => assert_eq!(overhead, SimDuration::ZERO),
            other => panic!("{other:?}"),
        }
        // Different circuit: miss.
        assert!(
            matches!(m.activate(t0, ids[2]), Activation::Ready { overhead, .. } if overhead > SimDuration::ZERO)
        );
        assert_eq!(m.stats().downloads, 2);
        assert_eq!(m.stats().hits, 1);
        assert_eq!(m.stats().misses, 2);
    }

    #[test]
    fn serial_slow_pays_full_time_partial_port_pays_frames() {
        let (mut slow, ids) = manager(ConfigPort::SerialSlow, PreemptAction::Rollback);
        let (mut fast, ids_f) = manager(ConfigPort::SerialFast, PreemptAction::Rollback);
        let o_slow = match slow.activate(TaskId(0), ids[0]) {
            Activation::Ready { overhead, .. } => overhead,
            _ => unreachable!(),
        };
        let o_fast = match fast.activate(TaskId(0), ids_f[0]) {
            Activation::Ready { overhead, .. } => overhead,
            _ => unreachable!(),
        };
        assert_eq!(o_slow, slow.port.timing.full_config_time());
        assert!(
            o_fast.as_nanos() * 4 < o_slow.as_nanos(),
            "partial frames on the fast port must be far cheaper: {o_fast} vs {o_slow}"
        );
    }

    #[test]
    fn save_restore_on_sequential_circuit() {
        let (mut m, ids) = manager(ConfigPort::SerialFast, PreemptAction::SaveRestore);
        let lfsr = ids[1];
        let t = TaskId(3);
        m.activate(t, lfsr);
        let pc = m.preempt(t, lfsr);
        assert!(!pc.lose_progress, "sequential state is saved, not lost");
        assert!(pc.overhead > SimDuration::ZERO, "readback costs time");
        assert_eq!(m.stats().state_saves, 1);

        // Another task evicts the circuit.
        m.activate(TaskId(4), ids[0]);
        // Original task resumes: download + state restore.
        match m.activate(t, lfsr) {
            Activation::Ready { overhead, .. } => {
                assert!(overhead > SimDuration::ZERO);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(m.stats().state_restores, 1);
    }

    #[test]
    fn combinational_circuit_preempts_free_at_item_boundaries() {
        let (mut m, ids) = manager(ConfigPort::SerialFast, PreemptAction::SaveRestore);
        let adder = ids[0];
        m.activate(TaskId(0), adder);
        let pc = m.preempt(TaskId(0), adder);
        assert!(!pc.lose_progress, "items already processed are done");
        assert_eq!(pc.overhead, SimDuration::ZERO, "no state to read back");
        assert_eq!(m.stats().state_saves, 0);

        // Same under Rollback: only *sequential* circuits restart.
        let (mut m2, ids2) = manager(ConfigPort::SerialFast, PreemptAction::Rollback);
        m2.activate(TaskId(0), ids2[0]);
        let pc2 = m2.preempt(TaskId(0), ids2[0]);
        assert!(!pc2.lose_progress);
    }

    #[test]
    fn rollback_loses_progress_without_overhead() {
        let (mut m, ids) = manager(ConfigPort::SerialFast, PreemptAction::Rollback);
        m.activate(TaskId(0), ids[1]);
        let pc = m.preempt(TaskId(0), ids[1]);
        assert!(pc.lose_progress);
        assert_eq!(pc.overhead, SimDuration::ZERO);
    }

    #[test]
    fn task_exit_drops_saved_state() {
        let (mut m, ids) = manager(ConfigPort::SerialFast, PreemptAction::SaveRestore);
        let t = TaskId(0);
        m.activate(t, ids[1]);
        m.preempt(t, ids[1]);
        m.task_exit(t);
        // Re-activating must not charge a restore for the dead save.
        m.activate(TaskId(1), ids[0]);
        match m.activate(t, ids[1]) {
            Activation::Ready { .. } => {}
            other => panic!("{other:?}"),
        }
        assert_eq!(m.stats().state_restores, 0);
    }
}
