//! Bit-parallel functional simulation.
//!
//! [`Simulator`] evaluates a netlist 64 input vectors at a time (one bit
//! lane per vector). It doubles as:
//!
//! * the golden model for LUT-mapping equivalence checks,
//! * the paper's *readback* path — [`Simulator::read_state`] exposes every
//!   flip-flop (observability), and [`Simulator::load_state`] writes them
//!   (controllability), exactly the two properties §3 demands of circuits
//!   that may be preempted.

use crate::gate::Gate;
use crate::graph::Netlist;

/// A 64-lane functional simulator for one netlist.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    net: &'a Netlist,
    /// Current value of every node, one bit per lane.
    values: Vec<u64>,
    /// Current flip-flop outputs (indexed like `net.dff_nodes()`).
    state: Vec<u64>,
    dffs: Vec<crate::gate::NodeId>,
}

impl<'a> Simulator<'a> {
    /// Create a simulator with all flip-flops at their power-up values
    /// (replicated across all 64 lanes).
    pub fn new(net: &'a Netlist) -> Self {
        let dffs = net.dff_nodes();
        let state = dffs
            .iter()
            .map(|&id| match net.gate(id) {
                Gate::Dff { init, .. } => {
                    if init {
                        u64::MAX
                    } else {
                        0
                    }
                }
                _ => unreachable!("dff_nodes returned non-DFF"),
            })
            .collect();
        Simulator {
            net,
            values: vec![0; net.nodes().len()],
            state,
            dffs,
        }
    }

    /// Evaluate all combinational logic for the given primary-input words
    /// (`inputs[i]` carries input bit `i` across 64 lanes). Flip-flop
    /// outputs present their *current* state; registers are not advanced.
    pub fn eval(&mut self, inputs: &[u64]) {
        assert_eq!(
            inputs.len(),
            self.net.num_inputs(),
            "input word count mismatch"
        );
        let mut dff_cursor = 0usize;
        for (i, g) in self.net.nodes().iter().enumerate() {
            let v = match *g {
                Gate::Input { bit } => inputs[bit as usize],
                Gate::Const(c) => {
                    if c {
                        u64::MAX
                    } else {
                        0
                    }
                }
                Gate::Not(a) => !self.values[a.index()],
                Gate::And(a, b) => self.values[a.index()] & self.values[b.index()],
                Gate::Or(a, b) => self.values[a.index()] | self.values[b.index()],
                Gate::Xor(a, b) => self.values[a.index()] ^ self.values[b.index()],
                Gate::Nand(a, b) => !(self.values[a.index()] & self.values[b.index()]),
                Gate::Nor(a, b) => !(self.values[a.index()] | self.values[b.index()]),
                Gate::Xnor(a, b) => !(self.values[a.index()] ^ self.values[b.index()]),
                Gate::Mux { sel, lo, hi } => {
                    let s = self.values[sel.index()];
                    (s & self.values[hi.index()]) | (!s & self.values[lo.index()])
                }
                Gate::Dff { .. } => {
                    let v = self.state[dff_cursor];
                    dff_cursor += 1;
                    v
                }
            };
            self.values[i] = v;
        }
    }

    /// Advance every register by one clock edge: each flip-flop latches the
    /// current value of its `d` node. Call after [`Simulator::eval`].
    pub fn clock(&mut self) {
        for (k, &id) in self.dffs.iter().enumerate() {
            if let Gate::Dff { d, .. } = self.net.gate(id) {
                self.state[k] = self.values[d.index()];
            }
        }
    }

    /// Evaluate then clock — one full synchronous cycle.
    pub fn step(&mut self, inputs: &[u64]) {
        self.eval(inputs);
        self.clock();
    }

    /// Value word of primary output `idx` (order of [`Netlist::outputs`]).
    pub fn output(&self, idx: usize) -> u64 {
        let (_, id) = &self.net.outputs()[idx];
        self.values[id.index()]
    }

    /// All output words in declaration order.
    pub fn outputs(&self) -> Vec<u64> {
        self.net
            .outputs()
            .iter()
            .map(|(_, id)| self.values[id.index()])
            .collect()
    }

    /// **Readback** (observability): snapshot all flip-flop words in
    /// `dff_nodes()` order.
    pub fn read_state(&self) -> Vec<u64> {
        self.state.clone()
    }

    /// **State load** (controllability): overwrite all flip-flops.
    ///
    /// # Panics
    /// Panics if `state` length differs from the flip-flop count.
    pub fn load_state(&mut self, state: &[u64]) {
        assert_eq!(state.len(), self.state.len(), "state width mismatch");
        self.state.copy_from_slice(state);
    }

    /// Reset every flip-flop to its power-up value in all lanes.
    pub fn reset(&mut self) {
        for (k, &id) in self.dffs.iter().enumerate() {
            if let Gate::Dff { init, .. } = self.net.gate(id) {
                self.state[k] = if init { u64::MAX } else { 0 };
            }
        }
    }
}

/// Evaluate a purely combinational netlist on single scalar inputs,
/// returning scalar outputs. Convenience wrapper used heavily in tests.
pub fn eval_comb(net: &Netlist, inputs: &[bool]) -> Vec<bool> {
    let words: Vec<u64> = inputs
        .iter()
        .map(|&b| if b { u64::MAX } else { 0 })
        .collect();
    let mut sim = Simulator::new(net);
    sim.eval(&words);
    sim.outputs().iter().map(|&w| w & 1 == 1).collect()
}

/// Pack an integer into LSB-first input words, one lane (lane 0) wide.
pub fn scalar_inputs(value: u64, width: usize) -> Vec<u64> {
    (0..width).map(|i| (value >> i) & 1).collect()
}

/// Extract lane-0 bits of output words into an integer (LSB-first).
pub fn scalar_output(words: &[u64]) -> u64 {
    words
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &w)| acc | ((w & 1) << i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Builder;

    #[test]
    fn gates_behave() {
        let mut b = Builder::new("g");
        let x = b.input();
        let y = b.input();
        let and = b.and(x, y);
        let or = b.or(x, y);
        let xor = b.xor(x, y);
        let nand = b.nand(x, y);
        let nor = b.nor(x, y);
        let xnor = b.xnor(x, y);
        let not = b.not(x);
        b.output("and", and);
        b.output("or", or);
        b.output("xor", xor);
        b.output("nand", nand);
        b.output("nor", nor);
        b.output("xnor", xnor);
        b.output("not", not);
        let n = b.finish();
        for (xv, yv) in [(false, false), (false, true), (true, false), (true, true)] {
            let o = eval_comb(&n, &[xv, yv]);
            assert_eq!(o[0], xv & yv);
            assert_eq!(o[1], xv | yv);
            assert_eq!(o[2], xv ^ yv);
            assert_eq!(o[3], !(xv & yv));
            assert_eq!(o[4], !(xv | yv));
            assert_eq!(o[5], !(xv ^ yv));
            assert_eq!(o[6], !xv);
        }
    }

    #[test]
    fn mux_selects() {
        let mut b = Builder::new("m");
        let s = b.input();
        let lo = b.input();
        let hi = b.input();
        let m = b.mux(s, lo, hi);
        b.output("m", m);
        let n = b.finish();
        assert_eq!(eval_comb(&n, &[false, true, false]), vec![true]); // sel=0 -> lo
        assert_eq!(eval_comb(&n, &[true, true, false]), vec![false]); // sel=1 -> hi
    }

    #[test]
    fn lanes_are_independent() {
        let mut b = Builder::new("lanes");
        let x = b.input();
        let y = b.input();
        let z = b.xor(x, y);
        b.output("z", z);
        let n = b.finish();
        let mut sim = Simulator::new(&n);
        // lane i of x = bit i of 0b...0101, y = 0b...0011
        sim.eval(&[0b0101, 0b0011]);
        assert_eq!(sim.output(0) & 0xF, 0b0110);
    }

    #[test]
    fn toggle_flip_flop_sequences() {
        let mut b = Builder::new("toggle");
        let q = b.dff_placeholder(false);
        let nq = b.not(q);
        b.connect_dff(q, nq);
        b.output("q", q);
        let n = b.finish();
        let mut sim = Simulator::new(&n);
        let mut seen = Vec::new();
        for _ in 0..4 {
            sim.eval(&[]);
            seen.push(sim.output(0) & 1);
            sim.clock();
        }
        assert_eq!(seen, vec![0, 1, 0, 1]);
    }

    #[test]
    fn dff_init_value_respected() {
        let mut b = Builder::new("init");
        let x = b.input();
        let q = b.dff(x, true);
        b.output("q", q);
        let n = b.finish();
        let mut sim = Simulator::new(&n);
        sim.eval(&[0]);
        assert_eq!(sim.output(0), u64::MAX, "power-up value must be 1");
        sim.clock();
        sim.eval(&[0]);
        assert_eq!(sim.output(0), 0, "latched d=0");
    }

    #[test]
    fn readback_and_restore_roundtrip() {
        // 3-bit counter; run 5 cycles, save, run 3 more, restore, re-run 3,
        // and require identical trajectories (paper §3 save/restore).
        let n = crate::library::seq::counter("cnt", 3);
        let mut sim = Simulator::new(&n);
        for _ in 0..5 {
            sim.step(&[u64::MAX]); // enable = 1
        }
        let saved = sim.read_state();
        let mut first = Vec::new();
        for _ in 0..3 {
            sim.step(&[u64::MAX]);
            first.push(sim.read_state());
        }
        sim.load_state(&saved);
        let mut second = Vec::new();
        for _ in 0..3 {
            sim.step(&[u64::MAX]);
            second.push(sim.read_state());
        }
        assert_eq!(first, second);
    }

    #[test]
    fn reset_restores_power_up() {
        let mut b = Builder::new("r");
        let x = b.input();
        let q0 = b.dff(x, false);
        let q1 = b.dff(x, true);
        b.output("q0", q0);
        b.output("q1", q1);
        let n = b.finish();
        let mut sim = Simulator::new(&n);
        sim.step(&[u64::MAX]);
        sim.reset();
        sim.eval(&[0]);
        assert_eq!(sim.output(0), 0);
        assert_eq!(sim.output(1), u64::MAX);
    }

    #[test]
    fn scalar_helpers_roundtrip() {
        let words = scalar_inputs(0b1011, 4);
        assert_eq!(words, vec![1, 1, 0, 1]);
        assert_eq!(scalar_output(&words), 0b1011);
    }
}
