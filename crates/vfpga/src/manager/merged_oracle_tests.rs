//! The merged-circuit manager that [`OverlayManager::merged`] replaced,
//! kept as the bit-exact oracle for it, and a seeded walk that holds the
//! overlay to it.
//!
//! `MergedManager` is the §3 baseline as it was when it was a manager of
//! its own: one boot download of every circuit side by side, its own
//! waiters, counters and regions. The walk builds both over random
//! libraries on VF100 and VF400 — among them one set that fills the
//! device exactly, one that leaves columns spare, and sets that overflow
//! the area or the pins, whose errors must be equal — and drives them
//! through the same random calls: activate, op done, preempt, task exit,
//! discard, image invalidation and residency questions. After every call
//! the answer, the wake list, the counters, the usage, the resident
//! regions and the trace events must be identical.
//!
//! Run it alone with `cargo test -p vfpga --lib merged_oracle`.

use super::overlay::{MergeError, OverlayManager};
use super::{
    Activation, DeviceUsage, FpgaManager, ManagerStats, Port, PreemptCost, ResidentRegion,
};
use crate::circuit::{CircuitId, CircuitLib};
use crate::task::TaskId;
use fpga::{ConfigPort, ConfigTiming};
use fsim::{SimDuration, SimRng, TraceEvent};
use pnr::{compile, CompileOptions};
use std::sync::Arc;

/// All circuits resident simultaneously.
#[derive(Debug)]
pub struct MergedManager {
    port: Port,
    busy: Vec<Option<TaskId>>,
    waiters: Vec<TaskId>,
    /// Constant occupancy: the merged image never changes after boot.
    usage: DeviceUsage,
    /// Fixed placement: circuits packed left-to-right in registration
    /// order, never moved after the boot download.
    regions: Vec<ResidentRegion>,
}

impl MergedManager {
    /// Attempt the merge; fails when area or pins don't fit.
    pub fn new(lib: Arc<CircuitLib>, timing: ConfigTiming) -> Result<Self, MergeError> {
        let needed: u32 = lib.iter().map(|(_, c)| c.shape().0).sum();
        if needed > timing.spec.cols {
            return Err(MergeError::AreaExceeded {
                needed,
                available: timing.spec.cols,
            });
        }
        let pins: usize = lib.iter().map(|(_, c)| c.io_count()).sum();
        if pins > timing.spec.io_pins as usize {
            return Err(MergeError::PinsExceeded {
                needed: pins,
                available: timing.spec.io_pins as usize,
            });
        }
        // One boot-time download covering every circuit's frames.
        let mut port = Port::new(timing);
        port.boot(needed as usize);
        let used: u64 = lib.iter().map(|(_, c)| c.blocks() as u64).sum();
        let total = timing.spec.clbs() as u64;
        let mut regions = Vec::with_capacity(lib.len());
        let mut col0 = 0u32;
        for (cid, c) in lib.iter() {
            let width = c.shape().0;
            regions.push(ResidentRegion { cid, col0, width });
            col0 += width;
        }
        Ok(MergedManager {
            port,
            busy: vec![None; lib.len()],
            waiters: Vec::new(),
            usage: DeviceUsage {
                used_clbs: used,
                total_clbs: total,
                free_fragments: u32::from(used < total),
            },
            regions,
        })
    }

    /// The boot-time configuration cost (charged before any task runs).
    pub fn boot_config_time(&self) -> SimDuration {
        self.port.stats.config_time
    }
}

impl FpgaManager for MergedManager {
    fn name(&self) -> &'static str {
        "merged"
    }

    fn activate(&mut self, tid: TaskId, cid: CircuitId) -> Activation {
        // Everything is resident; only simultaneous use of the *same*
        // sub-circuit serializes.
        match self.busy[cid.0 as usize] {
            Some(o) if o != tid => {
                self.port.stats.blocks += 1;
                self.waiters.push(tid);
                Activation::Blocked { moved: 0 }
            }
            _ => {
                self.busy[cid.0 as usize] = Some(tid);
                self.port.stats.hits += 1;
                Activation::ready(SimDuration::ZERO, None)
            }
        }
    }

    fn preempt(&mut self, _tid: TaskId, _cid: CircuitId) -> PreemptCost {
        // Nothing is ever evicted: state survives in place.
        PreemptCost {
            overhead: SimDuration::ZERO,
            lose_progress: false,
        }
    }

    fn op_done(&mut self, tid: TaskId, cid: CircuitId) -> (SimDuration, Vec<TaskId>) {
        if self.busy[cid.0 as usize] == Some(tid) {
            self.busy[cid.0 as usize] = None;
        }
        (SimDuration::ZERO, std::mem::take(&mut self.waiters))
    }

    fn task_exit(&mut self, tid: TaskId) -> Vec<TaskId> {
        for b in &mut self.busy {
            if *b == Some(tid) {
                *b = None;
            }
        }
        self.waiters.retain(|t| *t != tid);
        std::mem::take(&mut self.waiters)
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
        self.usage
    }

    fn timing(&self) -> &ConfigTiming {
        &self.port.timing
    }

    fn resident_regions(&self) -> Vec<ResidentRegion> {
        self.regions.clone()
    }
}

/// One call of the walk.
#[derive(Debug, Clone, Copy)]
enum Call {
    Activate(TaskId, CircuitId),
    OpDone(TaskId, CircuitId),
    Preempt(TaskId, CircuitId),
    Exit(TaskId),
    Discard(CircuitId),
    Invalidate(u32, u32),
    IsResident(CircuitId),
}

/// What a call answered.
#[derive(Debug, PartialEq)]
enum Answer {
    Activation(Activation),
    Preempt(PreemptCost),
    Done(SimDuration, Vec<TaskId>),
    Woken(Vec<TaskId>),
    Yes(bool),
    Nothing,
}

fn call(m: &mut dyn FpgaManager, call: Call) -> Answer {
    match call {
        Call::Activate(tid, cid) => Answer::Activation(m.activate(tid, cid)),
        Call::OpDone(tid, cid) => {
            let (overhead, wake) = m.op_done(tid, cid);
            Answer::Done(overhead, wake)
        }
        Call::Preempt(tid, cid) => Answer::Preempt(m.preempt(tid, cid)),
        Call::Exit(tid) => Answer::Woken(m.task_exit(tid)),
        Call::Discard(cid) => Answer::Yes(m.discard_resident(cid)),
        Call::Invalidate(col0, width) => {
            m.invalidate_image_range(col0, width);
            Answer::Nothing
        }
        Call::IsResident(cid) => Answer::Yes(m.is_resident(cid)),
    }
}

/// Both managers' whole observable state, drained events included.
fn same(new: &mut OverlayManager, old: &mut MergedManager, at: &str) {
    assert_eq!(new.name(), old.name(), "{at}: the name");
    assert_eq!(new.stats(), old.stats(), "{at}: the counters");
    assert_eq!(new.delta_stats(), old.delta_stats(), "{at}: delta");
    assert_eq!(new.usage(), old.usage(), "{at}: the usage");
    let regions = (new.resident_regions(), old.resident_regions());
    assert_eq!(regions.0, regions.1, "{at}: the resident regions");
    let events = (new.drain_events(), old.drain_events());
    assert_eq!(events.0, events.1, "{at}: the events");
}

/// What a walk's library did to the merge, and what its walk reached.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Reached {
    /// The set's columns fill the device exactly.
    exact: bool,
    /// The set leaves columns spare.
    spare: bool,
    /// The set overflows the area.
    area: bool,
    /// The set fits the area but overflows the pins.
    pins: bool,
    /// A task blocked on a circuit another one holds.
    blocked: bool,
    /// A call woke a blocked task.
    woken: bool,
}

impl Reached {
    fn or(self, r: Reached) -> Reached {
        Reached {
            exact: self.exact | r.exact,
            spare: self.spare | r.spare,
            area: self.area | r.area,
            pins: self.pins | r.pins,
            blocked: self.blocked | r.blocked,
            woken: self.woken | r.woken,
        }
    }
}

/// Merge `lib` both ways and, when it fits, drive both through `steps`
/// random calls from `seed`.
fn walk(lib: &Arc<CircuitLib>, timing: ConfigTiming, seed: u64, steps: usize) -> Reached {
    let at = format!("{} seed {seed}", timing.spec.name);
    let built = (
        OverlayManager::merged(lib.clone(), timing),
        MergedManager::new(lib.clone(), timing),
    );
    let (mut new, mut old) = match built {
        (Ok(new), Ok(old)) => (new, old),
        (Err(new), Err(old)) => {
            assert_eq!(new, old, "{at}: the error");
            assert_eq!(new.to_string(), old.to_string(), "{at}: the message");
            return Reached {
                area: matches!(new, MergeError::AreaExceeded { .. }),
                pins: matches!(new, MergeError::PinsExceeded { .. }),
                ..Reached::default()
            };
        }
        (new, old) => panic!("{at}: {:?} against {:?}", new.err(), old.err()),
    };
    let cols: u32 = lib.iter().map(|(_, c)| c.shape().0).sum();
    let mut reached = Reached {
        exact: cols == timing.spec.cols,
        spare: cols < timing.spec.cols,
        ..Reached::default()
    };
    new.set_recording(true);
    old.set_recording(true);
    let boot = (new.stats().config_time, old.boot_config_time());
    assert_eq!(boot.0, boot.1, "{at}: the boot download");
    same(&mut new, &mut old, &format!("{at} built"));
    let mut rng = SimRng::new(seed);
    let circuits = lib.len() as u64;
    let mut holding: Vec<Option<CircuitId>> = vec![None; 5];
    for step in 0..steps {
        let t = rng.below(holding.len() as u64) as usize;
        let tid = TaskId(t as u32);
        let any = CircuitId(rng.below(circuits) as u32);
        let c = match (rng.below(20), holding[t]) {
            (0..=8, None) => Call::Activate(tid, any),
            (0..=8, Some(cid)) => Call::OpDone(tid, cid),
            (9..=10, Some(cid)) => Call::Preempt(tid, cid),
            (11, Some(cid)) => Call::Activate(tid, cid),
            (11..=13, _) => Call::Exit(tid),
            (14, _) => Call::Discard(any),
            (15..=16, _) => {
                let col0 = rng.below(u64::from(timing.spec.cols)) as u32;
                let width = 1 + rng.below(u64::from(timing.spec.cols - col0)) as u32;
                Call::Invalidate(col0, width)
            }
            _ => Call::IsResident(any),
        };
        let answers = (call(&mut new, c), call(&mut old, c));
        let at = format!("{at} step {step}: {c:?}");
        assert_eq!(answers.0, answers.1, "{at}: the answer");
        match (c, &answers.0) {
            (Call::Activate(_, cid), Answer::Activation(Activation::Ready { .. })) => {
                holding[t] = Some(cid);
            }
            (Call::Activate(..), Answer::Activation(Activation::Blocked { .. })) => {
                reached.blocked = true;
            }
            (Call::OpDone(..), Answer::Done(_, wake)) | (Call::Exit(_), Answer::Woken(wake)) => {
                holding[t] = None;
                reached.woken |= !wake.is_empty();
            }
            _ => {}
        }
        same(&mut new, &mut old, &at);
    }
    reached
}

/// The circuits libraries are drawn from on `spec`, each `(netlist, how
/// many bits)`, ripple adders and array multipliers from 2 to 8 columns
/// wide; VF400's adds two 16-bit adders and a 10-bit one, together exactly
/// as wide as the device and one pin over its package.
fn pool(spec: fpga::DeviceSpec) -> Arc<CircuitLib> {
    use netlist::library::arith::{array_multiplier, ripple_adder};
    let opts = CompileOptions {
        max_height: spec.rows,
        ..Default::default()
    };
    let mut nets: Vec<_> = [1, 2, 3, 4, 5, 6, 8]
        .map(|n| ripple_adder(&format!("r{n}"), n))
        .into_iter()
        .chain([2, 3, 4].map(|n| array_multiplier(&format!("m{n}"), n)))
        .collect();
    if spec.cols >= 20 {
        nets.extend([ripple_adder("a16", 16), ripple_adder("b16", 16)]);
        nets.push(ripple_adder("r10", 10));
    }
    let mut lib = CircuitLib::new();
    for net in nets {
        lib.register_compiled(compile(&net, opts).unwrap());
    }
    Arc::new(lib)
}

/// The pool's circuits named in `names`, in that order.
fn set(pool: &CircuitLib, names: &[&str]) -> Arc<CircuitLib> {
    let ids: Vec<_> = names
        .iter()
        .map(|n| pool.iter().find(|(_, c)| c.name() == *n).unwrap().0)
        .collect();
    Arc::new(pool.subset(&ids))
}

#[test]
fn merged_oracle_walks() {
    let mut reached = Reached::default();
    for (part, exact, spare) in [
        ("VF100", &["r1", "r3", "r8"][..], &["r4", "m2"][..]),
        (
            "VF400",
            &["r1", "r3", "r5", "r8", "r6", "m2"][..],
            &["m4", "r6", "m2"][..],
        ),
    ] {
        let spec = fpga::device::part(part);
        let timing = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        let pool = pool(spec);
        let exact = walk(&set(&pool, exact), timing, 1, 400);
        assert!(exact.exact, "{part}: the exact set fills the device");
        let spare = walk(&set(&pool, spare), timing, 2, 400);
        assert!(spare.spare, "{part}: the spare set leaves columns");
        reached = reached.or(exact).or(spare);
        // Random sets in random registration order.
        let mut rng = SimRng::new(0x3e7);
        for seed in 3..40 {
            let mut ids: Vec<CircuitId> = pool.iter().map(|(cid, _)| cid).collect();
            for i in (1..ids.len()).rev() {
                ids.swap(i, rng.below(i as u64 + 1) as usize);
            }
            ids.truncate(1 + rng.below(6) as usize);
            reached = reached.or(walk(&Arc::new(pool.subset(&ids)), timing, seed, 150));
        }
        if part == "VF400" {
            reached = reached.or(walk(&set(&pool, &["a16", "b16", "r10"]), timing, 0, 1));
        }
    }
    let all = Reached {
        exact: true,
        spare: true,
        area: true,
        pins: true,
        blocked: true,
        woken: true,
    };
    assert_eq!(reached, all);
}
