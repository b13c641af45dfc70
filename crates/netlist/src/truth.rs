//! Truth-table extraction for logic cones.
//!
//! The LUT mapper selects a cut (a set of ≤ K leaf nodes) for each mapped
//! node and needs the Boolean function of the cone between the leaves and
//! the root. [`ConeEval`] computes it by symbolic bit-parallel
//! evaluation: leaf `i` is assigned the canonical variable word `VAR[i]`
//! and the cone is evaluated bottom-up, yielding the truth table directly
//! in the output word. With K ≤ 6 one 64-bit word holds the whole table.

use crate::gate::{Gate, NodeId};
use crate::graph::Netlist;

/// Canonical truth-table words for up to 6 variables: bit `m` of `VAR[i]`
/// is bit `i` of minterm index `m`.
pub const VAR: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Mask selecting the meaningful low `2^k` bits of a k-variable table.
#[inline]
pub fn table_mask(k: usize) -> u64 {
    if k >= 6 {
        u64::MAX
    } else {
        (1u64 << (1usize << k)) - 1
    }
}

/// Cone evaluation over node-indexed scratch: one allocation serves every
/// cone of a netlist. Each [`ConeEval::table`] call opens a new epoch, so
/// the values of the previous cone go stale without being cleared.
pub struct ConeEval<'a> {
    net: &'a Netlist,
    value: Vec<u64>,
    /// Epoch in which `value[i]` was written.
    stamp: Vec<u32>,
    epoch: u32,
}

impl<'a> ConeEval<'a> {
    /// Scratch sized for `net`.
    pub fn new(net: &'a Netlist) -> Self {
        let n = net.nodes().len();
        ConeEval {
            net,
            value: vec![0; n],
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    /// Compute the truth table of the cone rooted at `root` with the given
    /// `leaves` (≤ 6). Every path from `root` must terminate at a leaf —
    /// the caller (the cut enumerator) guarantees this; a cone that escapes
    /// its leaves returns `None`.
    pub fn table(&mut self, root: NodeId, leaves: &[NodeId]) -> Option<u64> {
        assert!(leaves.len() <= 6, "cone too wide for one table word");
        self.epoch += 1;
        for (i, &l) in leaves.iter().enumerate() {
            self.value[l.index()] = VAR[i];
            self.stamp[l.index()] = self.epoch;
        }
        let full = self.eval(root)?;
        Some(full & table_mask(leaves.len()))
    }

    fn eval(&mut self, node: NodeId) -> Option<u64> {
        if self.stamp[node.index()] == self.epoch {
            return Some(self.value[node.index()]);
        }
        let v = match self.net.gate(node) {
            // Reaching a primary input, register, or constant that is not a
            // declared leaf: constants are fine (they're closed), anything
            // else means the cut does not actually cover the cone.
            Gate::Const(c) => {
                if c {
                    u64::MAX
                } else {
                    0
                }
            }
            Gate::Input { .. } | Gate::Dff { .. } => return None,
            Gate::Not(a) => !self.eval(a)?,
            Gate::And(a, b) => self.eval(a)? & self.eval(b)?,
            Gate::Or(a, b) => self.eval(a)? | self.eval(b)?,
            Gate::Xor(a, b) => self.eval(a)? ^ self.eval(b)?,
            Gate::Nand(a, b) => !(self.eval(a)? & self.eval(b)?),
            Gate::Nor(a, b) => !(self.eval(a)? | self.eval(b)?),
            Gate::Xnor(a, b) => !(self.eval(a)? ^ self.eval(b)?),
            Gate::Mux { sel, lo, hi } => {
                let s = self.eval(sel)?;
                let l = self.eval(lo)?;
                let h = self.eval(hi)?;
                (s & h) | (!s & l)
            }
        };
        self.value[node.index()] = v;
        self.stamp[node.index()] = self.epoch;
        Some(v)
    }
}

/// [`ConeEval::table`] for one cone.
pub fn cone_truth_table(net: &Netlist, root: NodeId, leaves: &[NodeId]) -> Option<u64> {
    ConeEval::new(net).table(root, leaves)
}

/// Evaluate a ≤6-input truth table word on a specific input assignment.
#[inline]
pub fn table_eval(table: u64, inputs: &[bool]) -> bool {
    let mut idx = 0usize;
    for (i, &b) in inputs.iter().enumerate() {
        if b {
            idx |= 1 << i;
        }
    }
    (table >> idx) & 1 == 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Builder;

    #[test]
    fn var_words_are_canonical() {
        // Minterm 5 = 0b101: x0=1, x1=0, x2=1.
        assert_eq!((VAR[0] >> 5) & 1, 1);
        assert_eq!((VAR[1] >> 5) & 1, 0);
        assert_eq!((VAR[2] >> 5) & 1, 1);
    }

    #[test]
    fn and_cone_table() {
        let mut b = Builder::new("t");
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        b.output("a", a);
        let n = b.finish();
        let t = cone_truth_table(&n, a, &[x, y]).unwrap();
        assert_eq!(t, 0b1000); // AND over 2 vars
    }

    #[test]
    fn xor3_cone_table() {
        let mut b = Builder::new("t");
        let xs = b.inputs(3);
        let x = b.xor_tree(&xs);
        b.output("x", x);
        let n = b.finish();
        let t = cone_truth_table(&n, x, &xs).unwrap();
        assert_eq!(t, 0b1001_0110); // parity of 3 vars
    }

    #[test]
    fn cone_escaping_leaves_is_rejected() {
        let mut b = Builder::new("t");
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        b.output("a", a);
        let n = b.finish();
        // Leaves = {x} only: the cone still reaches y -> None.
        assert_eq!(cone_truth_table(&n, a, &[x]), None);
    }

    #[test]
    fn constants_are_closed() {
        let mut b = Builder::new("t");
        let x = b.input();
        let one = b.constant(true);
        let a = b.and(x, one);
        b.output("a", a);
        let n = b.finish();
        let t = cone_truth_table(&n, a, &[x]).unwrap();
        assert_eq!(t, 0b10); // identity of 1 var
    }

    #[test]
    fn table_eval_agrees_with_simulation() {
        let mut b = Builder::new("t");
        let xs = b.inputs(4);
        let a = b.and(xs[0], xs[1]);
        let o = b.or(xs[2], xs[3]);
        let m = b.mux(a, o, xs[3]);
        b.output("m", m);
        let n = b.finish();
        let t = cone_truth_table(&n, m, &xs).unwrap();
        for v in 0..16u64 {
            let bits: Vec<bool> = (0..4).map(|i| (v >> i) & 1 == 1).collect();
            let sim = crate::sim::eval_comb(&n, &bits)[0];
            assert_eq!(table_eval(t, &bits), sim, "minterm {v}");
        }
    }

    #[test]
    fn mask_widths() {
        assert_eq!(table_mask(0), 0b1);
        assert_eq!(table_mask(1), 0b11);
        assert_eq!(table_mask(2), 0xF);
        assert_eq!(table_mask(4), 0xFFFF);
        assert_eq!(table_mask(6), u64::MAX);
    }
}
