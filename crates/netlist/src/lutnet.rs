//! LUT-level netlists: the mapper's output and the placer's input.
//!
//! A [`LutNetwork`] is the technology-mapped form of a [`crate::Netlist`]:
//! K-input lookup tables plus D flip-flops. This is the granularity at
//! which the FPGA fabric is configured — one LUT (optionally paired with
//! one flip-flop) per configurable logic block — so partition sizes, page
//! counts, and configuration-frame footprints are all derived from it.

/// A signal source inside a LUT network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LutIn {
    /// Primary input number.
    Input(u32),
    /// Output of LUT number.
    Lut(u32),
    /// Output of flip-flop number.
    Ff(u32),
    /// Constant signal.
    Const(bool),
}

/// One K-input lookup table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lut {
    /// Input connections, LSB-first w.r.t. the truth table index.
    pub inputs: Vec<LutIn>,
    /// Truth table over `inputs` (bit `m` = output for minterm `m`).
    pub table: u64,
}

/// One D flip-flop in the mapped network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlipFlop {
    /// Data input.
    pub d: LutIn,
    /// Power-up value.
    pub init: bool,
}

/// A technology-mapped circuit.
///
/// LUTs are stored in topological order: a LUT may only reference LUTs
/// with smaller indices (flip-flop outputs and primary inputs may be
/// referenced freely). This is checked by [`LutNetwork::validate`].
#[derive(Debug, Clone)]
pub struct LutNetwork {
    /// Circuit name (propagated from the gate netlist).
    pub name: String,
    /// LUT input arity limit the network was mapped for.
    pub k: usize,
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Lookup tables in topological order.
    pub luts: Vec<Lut>,
    /// Flip-flops.
    pub ffs: Vec<FlipFlop>,
    /// Primary outputs as `(name, source)`.
    pub outputs: Vec<(String, LutIn)>,
}

impl LutNetwork {
    /// Number of logic blocks this network occupies on the fabric: each
    /// LUT costs one block; a flip-flop is *packed* into the block of the
    /// LUT that drives it when it is that LUT's only fanout destination,
    /// otherwise it occupies a block of its own (as a route-through).
    pub fn block_count(&self) -> usize {
        self.luts.len() + self.unpacked_ff_count()
    }

    /// Flip-flops that cannot share a block with their driving LUT.
    pub fn unpacked_ff_count(&self) -> usize {
        self.ffs
            .iter()
            .filter(|ff| !matches!(ff.d, LutIn::Lut(_)))
            .count()
    }

    /// Longest LUT-level combinational path (LUT levels).
    pub fn depth(&self) -> usize {
        let mut lvl = vec![0usize; self.luts.len()];
        for (i, lut) in self.luts.iter().enumerate() {
            let mut m = 0;
            for inp in &lut.inputs {
                if let LutIn::Lut(j) = *inp {
                    m = m.max(lvl[j as usize]);
                }
            }
            lvl[i] = m + 1;
        }
        lvl.into_iter().max().unwrap_or(0)
    }

    /// Total pins used by the network's external interface (inputs +
    /// outputs) — the quantity the paper's I/O-multiplexing technique
    /// virtualizes.
    pub fn io_count(&self) -> usize {
        self.num_inputs + self.outputs.len()
    }

    /// Structural validation: topological LUT order, in-range references,
    /// arity ≤ K, truth tables within mask.
    pub fn validate(&self) -> Result<(), String> {
        for (i, lut) in self.luts.iter().enumerate() {
            if lut.inputs.len() > self.k {
                return Err(format!(
                    "LUT {i} has {} inputs > K={}",
                    lut.inputs.len(),
                    self.k
                ));
            }
            let mask = crate::truth::table_mask(lut.inputs.len());
            if lut.table & !mask != 0 {
                return Err(format!("LUT {i} table has bits outside its arity mask"));
            }
            for inp in &lut.inputs {
                match *inp {
                    LutIn::Lut(j) if j as usize >= i => {
                        return Err(format!("LUT {i} references LUT {j}: not topological"));
                    }
                    LutIn::Input(b) if b as usize >= self.num_inputs => {
                        return Err(format!("LUT {i} references missing input {b}"));
                    }
                    LutIn::Ff(f) if f as usize >= self.ffs.len() => {
                        return Err(format!("LUT {i} references missing FF {f}"));
                    }
                    _ => {}
                }
            }
        }
        for (i, ff) in self.ffs.iter().enumerate() {
            match ff.d {
                LutIn::Lut(j) if j as usize >= self.luts.len() => {
                    return Err(format!("FF {i} d references missing LUT {j}"));
                }
                LutIn::Input(b) if b as usize >= self.num_inputs => {
                    return Err(format!("FF {i} d references missing input {b}"));
                }
                LutIn::Ff(f) if f as usize >= self.ffs.len() => {
                    return Err(format!("FF {i} d references missing FF {f}"));
                }
                _ => {}
            }
        }
        for (name, src) in &self.outputs {
            match *src {
                LutIn::Lut(j) if j as usize >= self.luts.len() => {
                    return Err(format!("output '{name}' references missing LUT {j}"));
                }
                LutIn::Input(b) if b as usize >= self.num_inputs => {
                    return Err(format!("output '{name}' references missing input {b}"));
                }
                LutIn::Ff(f) if f as usize >= self.ffs.len() => {
                    return Err(format!("output '{name}' references missing FF {f}"));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Bit-parallel simulator for a [`LutNetwork`] — the reference model used
/// to prove mapping preserved the circuit's function, and the execution
/// model the FPGA fabric uses once the network is configured.
#[derive(Debug, Clone)]
pub struct LutSimulator<'a> {
    net: &'a LutNetwork,
    lut_vals: Vec<u64>,
    ff_state: Vec<u64>,
}

impl<'a> LutSimulator<'a> {
    /// New simulator with flip-flops at power-up values.
    pub fn new(net: &'a LutNetwork) -> Self {
        LutSimulator {
            lut_vals: vec![0; net.luts.len()],
            ff_state: net
                .ffs
                .iter()
                .map(|ff| if ff.init { u64::MAX } else { 0 })
                .collect(),
            net,
        }
    }

    fn source(&self, s: LutIn, inputs: &[u64]) -> u64 {
        match s {
            LutIn::Input(b) => inputs[b as usize],
            LutIn::Lut(j) => self.lut_vals[j as usize],
            LutIn::Ff(f) => self.ff_state[f as usize],
            LutIn::Const(c) => {
                if c {
                    u64::MAX
                } else {
                    0
                }
            }
        }
    }

    /// Evaluate all LUTs for the given input words.
    pub fn eval(&mut self, inputs: &[u64]) {
        assert_eq!(inputs.len(), self.net.num_inputs, "input width mismatch");
        for i in 0..self.net.luts.len() {
            let lut = &self.net.luts[i];
            // Evaluate the truth table lane-wise: build the minterm index
            // per lane by scanning input bits.
            let mut out = 0u64;
            let in_words: Vec<u64> = lut.inputs.iter().map(|&s| self.source(s, inputs)).collect();
            for lane in 0..64 {
                let mut idx = 0usize;
                for (b, w) in in_words.iter().enumerate() {
                    idx |= (((w >> lane) & 1) as usize) << b;
                }
                out |= ((lut.table >> idx) & 1) << lane;
            }
            self.lut_vals[i] = out;
        }
    }

    /// Latch all flip-flops.
    pub fn clock(&mut self, inputs: &[u64]) {
        let next: Vec<u64> = self
            .net
            .ffs
            .iter()
            .map(|ff| self.source(ff.d, inputs))
            .collect();
        self.ff_state = next;
    }

    /// One full synchronous cycle.
    pub fn step(&mut self, inputs: &[u64]) {
        self.eval(inputs);
        self.clock(inputs);
    }

    /// Current output words in declaration order.
    pub fn outputs(&self, inputs: &[u64]) -> Vec<u64> {
        self.net
            .outputs
            .iter()
            .map(|(_, s)| self.source(*s, inputs))
            .collect()
    }

    /// Readback of all flip-flop words.
    pub fn read_state(&self) -> Vec<u64> {
        self.ff_state.clone()
    }

    /// Overwrite all flip-flop words.
    pub fn load_state(&mut self, state: &[u64]) {
        assert_eq!(state.len(), self.ff_state.len(), "state width mismatch");
        self.ff_state.copy_from_slice(state);
    }
}

/// Scalar single-assignment evaluation helper (lane 0 only).
pub fn lut_eval_comb(net: &LutNetwork, inputs: &[bool]) -> Vec<bool> {
    let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
    let mut sim = LutSimulator::new(net);
    sim.eval(&words);
    sim.outputs(&words).iter().map(|&w| w & 1 == 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor2_lut() -> LutNetwork {
        LutNetwork {
            name: "xor2".into(),
            k: 4,
            num_inputs: 2,
            luts: vec![Lut {
                inputs: vec![LutIn::Input(0), LutIn::Input(1)],
                table: 0b0110,
            }],
            ffs: vec![],
            outputs: vec![("o".into(), LutIn::Lut(0))],
        }
    }

    #[test]
    fn xor_lut_simulates() {
        let n = xor2_lut();
        n.validate().unwrap();
        assert_eq!(lut_eval_comb(&n, &[false, false]), vec![false]);
        assert_eq!(lut_eval_comb(&n, &[true, false]), vec![true]);
        assert_eq!(lut_eval_comb(&n, &[true, true]), vec![false]);
        assert_eq!(n.depth(), 1);
        assert_eq!(n.block_count(), 1);
        assert_eq!(n.io_count(), 3);
    }

    #[test]
    fn registered_lut_packs() {
        let n = LutNetwork {
            name: "reg".into(),
            k: 4,
            num_inputs: 1,
            luts: vec![Lut {
                inputs: vec![LutIn::Input(0)],
                table: 0b01, // NOT
            }],
            ffs: vec![FlipFlop {
                d: LutIn::Lut(0),
                init: false,
            }],
            outputs: vec![("q".into(), LutIn::Ff(0))],
        };
        n.validate().unwrap();
        assert_eq!(n.block_count(), 1, "FF packs with its driving LUT");

        let mut sim = LutSimulator::new(&n);
        sim.step(&[0]); // d = !0 = 1 latched
        assert_eq!(sim.read_state(), vec![u64::MAX]);
    }

    #[test]
    fn input_fed_ff_needs_own_block() {
        let n = LutNetwork {
            name: "reg".into(),
            k: 4,
            num_inputs: 1,
            luts: vec![],
            ffs: vec![FlipFlop {
                d: LutIn::Input(0),
                init: false,
            }],
            outputs: vec![("q".into(), LutIn::Ff(0))],
        };
        assert_eq!(n.block_count(), 1);
        assert_eq!(n.unpacked_ff_count(), 1);
    }

    #[test]
    fn validate_catches_non_topological() {
        let n = LutNetwork {
            name: "bad".into(),
            k: 4,
            num_inputs: 0,
            luts: vec![Lut {
                inputs: vec![LutIn::Lut(0)],
                table: 0b01,
            }],
            ffs: vec![],
            outputs: vec![("o".into(), LutIn::Lut(0))],
        };
        assert!(n.validate().is_err());
    }

    #[test]
    fn validate_catches_wide_lut() {
        let n = LutNetwork {
            name: "bad".into(),
            k: 2,
            num_inputs: 3,
            luts: vec![Lut {
                inputs: vec![LutIn::Input(0), LutIn::Input(1), LutIn::Input(2)],
                table: 0,
            }],
            ffs: vec![],
            outputs: vec![("o".into(), LutIn::Lut(0))],
        };
        assert!(n.validate().is_err());
    }

    #[test]
    fn state_roundtrip() {
        let n = LutNetwork {
            name: "ff".into(),
            k: 4,
            num_inputs: 1,
            luts: vec![],
            ffs: vec![FlipFlop {
                d: LutIn::Input(0),
                init: false,
            }],
            outputs: vec![("q".into(), LutIn::Ff(0))],
        };
        let mut sim = LutSimulator::new(&n);
        sim.step(&[u64::MAX]);
        let s = sim.read_state();
        sim.step(&[0]);
        assert_eq!(sim.read_state(), vec![0]);
        sim.load_state(&s);
        assert_eq!(sim.read_state(), vec![u64::MAX]);
    }
}
