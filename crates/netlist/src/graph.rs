//! The netlist DAG and its builder.
//!
//! A [`Netlist`] is an append-only table of [`Gate`] nodes plus a list of
//! named primary outputs. Flip-flop `d` edges are *sequential* and excluded
//! from the combinational topological order, so feedback through registers
//! is legal while combinational loops are rejected by [`Netlist::validate`].

use crate::gate::{Gate, NodeId};
use fsim::hash::Digest;
use std::collections::HashMap;

/// A gate-level circuit.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    nodes: Vec<Gate>,
    n_inputs: u32,
    outputs: Vec<(String, NodeId)>,
}

/// Size/shape summary of a netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetlistStats {
    /// Total nodes (including inputs and constants).
    pub nodes: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Combinational gates (everything except inputs, constants, DFFs).
    pub gates: usize,
    /// Flip-flops.
    pub dffs: usize,
    /// Longest combinational path, in gate levels.
    pub depth: usize,
}

/// Errors detected by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A gate references a node id at or beyond its own position (forward
    /// reference) or beyond the table.
    ForwardReference {
        /// The offending node.
        node: NodeId,
        /// The out-of-range reference.
        refers: NodeId,
    },
    /// Primary input bits are not exactly `0..n_inputs`.
    BadInputNumbering,
    /// An output references a nonexistent node.
    DanglingOutput(String),
    /// The netlist has no outputs (nothing observable).
    NoOutputs,
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::ForwardReference { node, refers } => {
                write!(
                    f,
                    "node {node} references {refers} which is not strictly earlier"
                )
            }
            NetlistError::BadInputNumbering => write!(f, "primary input bits are not dense 0..n"),
            NetlistError::DanglingOutput(name) => {
                write!(f, "output '{name}' references missing node")
            }
            NetlistError::NoOutputs => write!(f, "netlist has no primary outputs"),
        }
    }
}

impl std::error::Error for NetlistError {}

impl Netlist {
    /// The circuit's name (used in reports and OS tables).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Node table in creation order. Creation order is a valid
    /// combinational topological order by construction (the builder only
    /// permits backward references), with flip-flop outputs acting as
    /// sources.
    pub fn nodes(&self) -> &[Gate] {
        &self.nodes
    }

    /// Gate at `id`.
    pub fn gate(&self, id: NodeId) -> Gate {
        self.nodes[id.index()]
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.n_inputs as usize
    }

    /// Primary outputs as `(name, node)` pairs.
    pub fn outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Ids of all flip-flop nodes, in table order.
    pub fn dff_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_dff())
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Whether the circuit contains any flip-flop (i.e. is sequential).
    pub fn is_sequential(&self) -> bool {
        self.nodes.iter().any(|g| g.is_dff())
    }

    /// Combinational level of every node: inputs/constants/DFF outputs are
    /// level 0; a gate is 1 + max(level of fan-in).
    pub fn levels(&self) -> Vec<usize> {
        let mut lvl = vec![0usize; self.nodes.len()];
        for (i, g) in self.nodes.iter().enumerate() {
            let mut m = 0usize;
            let mut has_fanin = false;
            for f in g.comb_fanin().iter() {
                has_fanin = true;
                m = m.max(lvl[f.index()]);
            }
            lvl[i] = if has_fanin { m + 1 } else { 0 };
        }
        lvl
    }

    /// Size/shape summary.
    pub fn stats(&self) -> NetlistStats {
        let mut gates = 0;
        let mut dffs = 0;
        for g in &self.nodes {
            match g {
                Gate::Input { .. } | Gate::Const(_) => {}
                Gate::Dff { .. } => dffs += 1,
                _ => gates += 1,
            }
        }
        let depth = self.levels().into_iter().max().unwrap_or(0);
        NetlistStats {
            nodes: self.nodes.len(),
            inputs: self.n_inputs as usize,
            outputs: self.outputs.len(),
            gates,
            dffs,
            depth,
        }
    }

    /// Structural sanity check. The builder can't create most of these
    /// errors, but netlists can also be assembled by deserialization or
    /// transformation passes, so the invariants are enforced here too.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut seen_bits = Vec::new();
        for (i, g) in self.nodes.iter().enumerate() {
            for r in g.comb_fanin().iter() {
                if r.index() >= i {
                    return Err(NetlistError::ForwardReference {
                        node: NodeId(i as u32),
                        refers: r,
                    });
                }
            }
            match *g {
                Gate::Input { bit } => seen_bits.push(bit),
                // A DFF's d edge may reference any node (feedback is legal)
                // but must at least be in the table.
                Gate::Dff { d, .. } if d.index() >= self.nodes.len() => {
                    return Err(NetlistError::ForwardReference {
                        node: NodeId(i as u32),
                        refers: d,
                    });
                }
                _ => {}
            }
        }
        seen_bits.sort_unstable();
        let expect: Vec<u32> = (0..self.n_inputs).collect();
        if seen_bits != expect {
            return Err(NetlistError::BadInputNumbering);
        }
        if self.outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        for (name, id) in &self.outputs {
            if id.index() >= self.nodes.len() {
                return Err(NetlistError::DanglingOutput(name.clone()));
            }
        }
        Ok(())
    }

    /// Content hash ([`fsim::hash::Digest`]) over the netlist's full
    /// structure: name, node table, input count, and outputs. Two
    /// netlists with equal hashes are, for cache purposes, the same
    /// circuit — the compile cache keys on this together with the compile
    /// options, so identical workload suites are placed and routed once
    /// per sweep rather than once per sweep point.
    pub fn content_hash(&self) -> u64 {
        fn eat_str(h: &mut Digest, s: &str) {
            h.bytes(s.as_bytes());
            h.bytes(&[0xFF]); // terminator so "ab","c" != "a","bc"
        }
        let mut h = Digest::new();
        eat_str(&mut h, &self.name);
        h.word(self.n_inputs as u64);
        h.word(self.nodes.len() as u64);
        for g in &self.nodes {
            let (tag, a, b, c) = match *g {
                Gate::Input { bit } => (0, bit as u64, 0, 0),
                Gate::Const(v) => (1, v as u64, 0, 0),
                Gate::Not(x) => (2, x.0 as u64, 0, 0),
                Gate::And(x, y) => (3, x.0 as u64, y.0 as u64, 0),
                Gate::Or(x, y) => (4, x.0 as u64, y.0 as u64, 0),
                Gate::Xor(x, y) => (5, x.0 as u64, y.0 as u64, 0),
                Gate::Nand(x, y) => (6, x.0 as u64, y.0 as u64, 0),
                Gate::Nor(x, y) => (7, x.0 as u64, y.0 as u64, 0),
                Gate::Xnor(x, y) => (8, x.0 as u64, y.0 as u64, 0),
                Gate::Mux { sel, lo, hi } => (9, sel.0 as u64, lo.0 as u64, hi.0 as u64),
                Gate::Dff { d, init } => (10, d.0 as u64, init as u64, 0),
            };
            h.word(tag);
            h.word(a);
            h.word(b);
            h.word(c);
        }
        h.word(self.outputs.len() as u64);
        for (name, id) in &self.outputs {
            eat_str(&mut h, name);
            h.word(id.0 as u64);
        }
        h.finish()
    }

    /// Fanout count per node (combinational edges plus DFF `d` edges plus
    /// primary outputs). Used by the mapper's cone-duplication heuristics
    /// and the placer's wiring estimates.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut fo = vec![0u32; self.nodes.len()];
        for g in &self.nodes {
            for f in g.comb_fanin().iter() {
                fo[f.index()] += 1;
            }
            if let Gate::Dff { d, .. } = *g {
                fo[d.index()] += 1;
            }
        }
        for (_, id) in &self.outputs {
            fo[id.index()] += 1;
        }
        fo
    }
}

/// Incremental netlist constructor.
///
/// Only backward references are possible (each factory method returns the
/// id of the node it just appended), so the node table is always in
/// combinational topological order. Flip-flop feedback is expressed with
/// [`Builder::dff_placeholder`] + [`Builder::connect_dff`].
#[derive(Debug)]
pub struct Builder {
    name: String,
    nodes: Vec<Gate>,
    n_inputs: u32,
    outputs: Vec<(String, NodeId)>,
    cache: HashMap<Gate, NodeId>,
    const_false: Option<NodeId>,
    const_true: Option<NodeId>,
}

impl Builder {
    /// Start a circuit named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Builder {
            name: name.into(),
            nodes: Vec::new(),
            n_inputs: 0,
            outputs: Vec::new(),
            cache: HashMap::new(),
            const_false: None,
            const_true: None,
        }
    }

    fn push(&mut self, g: Gate) -> NodeId {
        // Structural hashing: identical gates on identical fan-in collapse
        // to one node. DFF placeholders must stay distinct, so they bypass
        // the cache (handled by callers).
        if let Some(&id) = self.cache.get(&g) {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(g);
        self.cache.insert(g, id);
        id
    }

    /// Append one primary input.
    pub fn input(&mut self) -> NodeId {
        let bit = self.n_inputs;
        self.n_inputs += 1;
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Gate::Input { bit });
        id
    }

    /// Append `n` primary inputs, returned LSB-first.
    pub fn inputs(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.input()).collect()
    }

    /// Constant node.
    pub fn constant(&mut self, v: bool) -> NodeId {
        let slot = if v {
            &mut self.const_true
        } else {
            &mut self.const_false
        };
        if let Some(id) = *slot {
            return id;
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Gate::Const(v));
        *slot = Some(id);
        id
    }

    /// Inverter.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.push(Gate::Not(a))
    }

    /// 2-input AND.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::And(a, b))
    }

    /// 2-input OR.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Or(a, b))
    }

    /// 2-input XOR.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Xor(a, b))
    }

    /// 2-input NAND.
    pub fn nand(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Nand(a, b))
    }

    /// 2-input NOR.
    pub fn nor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Nor(a, b))
    }

    /// 2-input XNOR.
    pub fn xnor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.push(Gate::Xnor(a, b))
    }

    /// 2:1 mux (`sel ? hi : lo`).
    pub fn mux(&mut self, sel: NodeId, lo: NodeId, hi: NodeId) -> NodeId {
        self.push(Gate::Mux { sel, lo, hi })
    }

    /// N-ary AND tree over a non-empty slice.
    pub fn and_tree(&mut self, xs: &[NodeId]) -> NodeId {
        self.tree(xs, Builder::and)
    }

    /// N-ary OR tree over a non-empty slice.
    pub fn or_tree(&mut self, xs: &[NodeId]) -> NodeId {
        self.tree(xs, Builder::or)
    }

    /// N-ary XOR tree over a non-empty slice.
    pub fn xor_tree(&mut self, xs: &[NodeId]) -> NodeId {
        self.tree(xs, Builder::xor)
    }

    fn tree(&mut self, xs: &[NodeId], op: fn(&mut Self, NodeId, NodeId) -> NodeId) -> NodeId {
        assert!(!xs.is_empty(), "tree over empty slice");
        let mut layer: Vec<NodeId> = xs.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    op(self, pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Append a D flip-flop whose data input is `d`.
    pub fn dff(&mut self, d: NodeId, init: bool) -> NodeId {
        // Do NOT structurally hash flip-flops: two registers with the same
        // input are distinct state elements.
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Gate::Dff { d, init });
        id
    }

    /// Append a flip-flop whose data input will be wired later with
    /// [`Builder::connect_dff`] — required for feedback (e.g. counters).
    /// Until connected, the placeholder feeds back its own output.
    pub fn dff_placeholder(&mut self, init: bool) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Gate::Dff { d: id, init });
        id
    }

    /// Wire the data input of a placeholder flip-flop.
    ///
    /// # Panics
    /// Panics if `ff` is not a flip-flop.
    pub fn connect_dff(&mut self, ff: NodeId, d: NodeId) {
        match &mut self.nodes[ff.index()] {
            Gate::Dff { d: slot, .. } => *slot = d,
            other => panic!("connect_dff on non-DFF node ({})", other.kind()),
        }
    }

    /// Declare a primary output.
    pub fn output(&mut self, name: impl Into<String>, id: NodeId) {
        self.outputs.push((name.into(), id));
    }

    /// Declare a bus of outputs `name[0]`, `name[1]`, … (LSB-first).
    pub fn output_bus(&mut self, name: &str, ids: &[NodeId]) {
        for (i, &id) in ids.iter().enumerate() {
            self.outputs.push((format!("{name}[{i}]"), id));
        }
    }

    /// Finish, validate, and return the netlist.
    ///
    /// # Panics
    /// Panics if the constructed netlist is invalid — builder misuse is a
    /// programming error in the circuit generator.
    pub fn finish(self) -> Netlist {
        let n = Netlist {
            name: self.name,
            nodes: self.nodes,
            n_inputs: self.n_inputs,
            outputs: self.outputs,
        };
        if let Err(e) = n.validate() {
            panic!("invalid netlist '{}': {e}", n.name());
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut b = Builder::new("tiny");
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        let o = b.xor(a, x);
        b.output("o", o);
        b.finish()
    }

    #[test]
    fn build_and_stats() {
        let n = tiny();
        let s = n.stats();
        assert_eq!(s.inputs, 2);
        assert_eq!(s.outputs, 1);
        assert_eq!(s.gates, 2);
        assert_eq!(s.dffs, 0);
        assert_eq!(s.depth, 2);
        assert!(!n.is_sequential());
    }

    #[test]
    fn structural_hashing_dedupes_gates_but_not_dffs() {
        let mut b = Builder::new("dedupe");
        let x = b.input();
        let y = b.input();
        let a1 = b.and(x, y);
        let a2 = b.and(x, y);
        assert_eq!(a1, a2, "identical AND gates must merge");
        let f1 = b.dff(a1, false);
        let f2 = b.dff(a1, false);
        assert_ne!(f1, f2, "registers must never merge");
        b.output("o", f1);
        b.output("p", f2);
        let n = b.finish();
        assert_eq!(n.stats().dffs, 2);
    }

    #[test]
    fn constants_are_shared() {
        let mut b = Builder::new("c");
        let t1 = b.constant(true);
        let t2 = b.constant(true);
        let f1 = b.constant(false);
        assert_eq!(t1, t2);
        assert_ne!(t1, f1);
        let x = b.input();
        let o = b.and(x, t1);
        b.output("o", o);
        b.finish();
    }

    #[test]
    fn dff_feedback_via_placeholder() {
        // 1-bit toggle: q' = !q
        let mut b = Builder::new("toggle");
        let q = b.dff_placeholder(false);
        let nq = b.not(q);
        b.connect_dff(q, nq);
        b.output("q", q);
        // No primary inputs needed; n_inputs = 0 is valid.
        let n = b.finish();
        assert!(n.is_sequential());
        assert_eq!(n.stats().dffs, 1);
    }

    #[test]
    fn levels_ignore_sequential_edges() {
        let mut b = Builder::new("lv");
        let x = b.input();
        let q = b.dff_placeholder(false);
        let s = b.xor(x, q);
        b.connect_dff(q, s);
        b.output("s", s);
        let n = b.finish();
        let lv = n.levels();
        // q (DFF) is a level-0 source even though its d comes from level-1 s.
        assert_eq!(lv[q.index()], 0);
        assert_eq!(lv[s.index()], 1);
    }

    #[test]
    fn trees_reduce_correctly() {
        let mut b = Builder::new("tree");
        let xs = b.inputs(7);
        let a = b.and_tree(&xs);
        let o = b.or_tree(&xs);
        let x = b.xor_tree(&xs);
        b.output("a", a);
        b.output("o", o);
        b.output("x", x);
        let n = b.finish();
        // Depth of a 7-leaf balanced tree is 3.
        assert_eq!(n.stats().depth, 3);
    }

    #[test]
    fn content_hash_distinguishes_structure_and_name() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.content_hash(), b.content_hash(), "same build, same hash");

        let mut bld = Builder::new("tiny2"); // same structure, new name
        let x = bld.input();
        let y = bld.input();
        let g = bld.and(x, y);
        let o = bld.xor(g, x);
        bld.output("o", o);
        let renamed = bld.finish();
        assert_ne!(a.content_hash(), renamed.content_hash());

        let mut bld = Builder::new("tiny"); // same name, new structure
        let x = bld.input();
        let y = bld.input();
        let g = bld.or(x, y);
        let o = bld.xor(g, x);
        bld.output("o", o);
        let restructured = bld.finish();
        assert_ne!(a.content_hash(), restructured.content_hash());
    }

    #[test]
    fn validate_rejects_dangling_output() {
        let n = Netlist {
            name: "bad".into(),
            nodes: vec![Gate::Input { bit: 0 }],
            n_inputs: 1,
            outputs: vec![("o".into(), NodeId(99))],
        };
        assert!(matches!(n.validate(), Err(NetlistError::DanglingOutput(_))));
    }

    #[test]
    fn validate_rejects_forward_reference() {
        let n = Netlist {
            name: "bad".into(),
            nodes: vec![Gate::Not(NodeId(1)), Gate::Input { bit: 0 }],
            n_inputs: 1,
            outputs: vec![("o".into(), NodeId(0))],
        };
        assert!(matches!(
            n.validate(),
            Err(NetlistError::ForwardReference { .. })
        ));
    }

    #[test]
    fn validate_rejects_no_outputs() {
        let n = Netlist {
            name: "bad".into(),
            nodes: vec![Gate::Input { bit: 0 }],
            n_inputs: 1,
            outputs: vec![],
        };
        assert_eq!(n.validate(), Err(NetlistError::NoOutputs));
    }

    #[test]
    fn fanout_counts_include_outputs_and_dff_d() {
        let mut b = Builder::new("fo");
        let x = b.input();
        let inv = b.not(x);
        let ff = b.dff(inv, false);
        b.output("q", ff);
        b.output("inv", inv);
        let n = b.finish();
        let fo = n.fanout_counts();
        assert_eq!(fo[x.index()], 1); // -> inv
        assert_eq!(fo[inv.index()], 2); // -> dff.d and output
        assert_eq!(fo[ff.index()], 1); // -> output
    }
}
