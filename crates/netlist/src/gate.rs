//! Gate primitives.
//!
//! The netlist IR uses a deliberately small cell library: 2-input logic
//! gates, an inverter, a 2:1 mux, constants, primary inputs, and a D
//! flip-flop. Everything the circuit library builds reduces to these, and
//! the LUT mapper absorbs them into K-input LUTs anyway, so a richer cell
//! library would only add surface area.

use std::fmt;

/// Index of a node within its [`crate::Netlist`].
///
/// `u32` keeps the node table compact; netlists in this project stay far
/// below 2^32 nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position in the netlist node table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One netlist node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Primary input number `bit`.
    Input { bit: u32 },
    /// Constant 0 or 1.
    Const(bool),
    /// Inverter.
    Not(NodeId),
    /// 2-input AND.
    And(NodeId, NodeId),
    /// 2-input OR.
    Or(NodeId, NodeId),
    /// 2-input XOR.
    Xor(NodeId, NodeId),
    /// 2-input NAND.
    Nand(NodeId, NodeId),
    /// 2-input NOR.
    Nor(NodeId, NodeId),
    /// 2-input XNOR.
    Xnor(NodeId, NodeId),
    /// 2:1 multiplexer: output = if sel { hi } else { lo }.
    Mux {
        /// Select line.
        sel: NodeId,
        /// Output when `sel` is 0.
        lo: NodeId,
        /// Output when `sel` is 1.
        hi: NodeId,
    },
    /// D flip-flop: output is the registered value; `d` is sampled on each
    /// clock step; `init` is the power-up value. A flip-flop output is a
    /// *sequential* source: it breaks combinational cycles.
    Dff {
        /// Data input.
        d: NodeId,
        /// Power-up value.
        init: bool,
    },
}

impl Gate {
    /// Combinational fan-in of this node (flip-flops report none: their
    /// `d` input is a *sequential* edge, not part of the combinational DAG).
    pub fn comb_fanin(&self) -> GateFanin {
        match *self {
            Gate::Input { .. } | Gate::Const(_) | Gate::Dff { .. } => GateFanin::None,
            Gate::Not(a) => GateFanin::One(a),
            Gate::And(a, b)
            | Gate::Or(a, b)
            | Gate::Xor(a, b)
            | Gate::Nand(a, b)
            | Gate::Nor(a, b)
            | Gate::Xnor(a, b) => GateFanin::Two(a, b),
            Gate::Mux { sel, lo, hi } => GateFanin::Three(sel, lo, hi),
        }
    }

    /// Whether this node is a flip-flop.
    pub fn is_dff(&self) -> bool {
        matches!(self, Gate::Dff { .. })
    }

    /// Short mnemonic for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Gate::Input { .. } => "input",
            Gate::Const(_) => "const",
            Gate::Not(_) => "not",
            Gate::And(..) => "and",
            Gate::Or(..) => "or",
            Gate::Xor(..) => "xor",
            Gate::Nand(..) => "nand",
            Gate::Nor(..) => "nor",
            Gate::Xnor(..) => "xnor",
            Gate::Mux { .. } => "mux",
            Gate::Dff { .. } => "dff",
        }
    }
}

/// Combinational fan-in of a gate, by arity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateFanin {
    /// No combinational inputs (primary input, constant, flip-flop output).
    None,
    /// One input.
    One(NodeId),
    /// Two inputs.
    Two(NodeId, NodeId),
    /// Three inputs (mux).
    Three(NodeId, NodeId, NodeId),
}

impl GateFanin {
    /// Iterate over the fan-in node ids.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        let (a, b, c) = match self {
            GateFanin::None => (None, None, None),
            GateFanin::One(a) => (Some(a), None, None),
            GateFanin::Two(a, b) => (Some(a), Some(b), None),
            GateFanin::Three(a, b, c) => (Some(a), Some(b), Some(c)),
        };
        a.into_iter().chain(b).chain(c)
    }

    /// Number of fan-in nodes.
    pub fn len(self) -> usize {
        match self {
            GateFanin::None => 0,
            GateFanin::One(_) => 1,
            GateFanin::Two(..) => 2,
            GateFanin::Three(..) => 3,
        }
    }

    /// Whether there is no combinational fan-in.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanin_arities() {
        let a = NodeId(0);
        let b = NodeId(1);
        let c = NodeId(2);
        assert_eq!(Gate::Input { bit: 0 }.comb_fanin().len(), 0);
        assert_eq!(Gate::Const(true).comb_fanin().len(), 0);
        assert_eq!(Gate::Dff { d: a, init: false }.comb_fanin().len(), 0);
        assert_eq!(Gate::Not(a).comb_fanin().len(), 1);
        assert_eq!(Gate::And(a, b).comb_fanin().len(), 2);
        assert_eq!(
            Gate::Mux {
                sel: a,
                lo: b,
                hi: c
            }
            .comb_fanin()
            .len(),
            3
        );
    }

    #[test]
    fn fanin_iter_yields_in_order() {
        let f = GateFanin::Three(NodeId(5), NodeId(6), NodeId(7));
        let v: Vec<_> = f.iter().collect();
        assert_eq!(v, vec![NodeId(5), NodeId(6), NodeId(7)]);
    }

    #[test]
    fn kind_strings() {
        assert_eq!(Gate::Xor(NodeId(0), NodeId(1)).kind(), "xor");
        assert_eq!(
            Gate::Dff {
                d: NodeId(0),
                init: true
            }
            .kind(),
            "dff"
        );
    }

    #[test]
    fn display_node_id() {
        assert_eq!(NodeId(12).to_string(), "n12");
    }
}
