//! Technology mapping onto K-input LUTs.
//!
//! A classic cut-based mapper: enumerate K-feasible cuts bottom-up with
//! pruning, label each node with its optimal arrival depth, then cover the
//! netlist from its roots using each node's depth-best cut and extract the
//! cone truth table for the resulting LUT. This is FlowMap-style
//! depth-oriented mapping with a small cut budget — simple, deterministic,
//! and good enough that mapped areas track gate counts closely, which is
//! what the partition/paging experiments need.
//!
//! **Cut order.** A node's candidates are the unions of one cut from each
//! fan-in, totally ordered by (depth, leaf count, leaves lexicographic by
//! node id); depth is one more than the worst arrival among the leaves.
//! Equal leaf sets have equal depth, so the order is total on distinct
//! candidates.
//!
//! **Budget rule.** A node keeps the `max_cuts` smallest *distinct*
//! candidates, then its trivial cut `{node}` last (a constant keeps only
//! the empty cut, an input or register only the trivial one). Candidates
//! go straight into a sorted buffer of `max_cuts` entries, equals dropped
//! — which keeps exactly what sorting all of them, deduplicating and
//! truncating would. The cover takes each node's first cut.
//!
//! **No dominance filter.** A cut whose leaves contain another kept cut's
//! is never chosen by the cover, but it occupies a budget slot: dropping it
//! would let a different cut survive and so change which cuts the parents
//! see. The mapper's output is pinned bit for bit (placements, bitstreams
//! and every experiment golden derive from it), so dominated cuts stay.
//!
//! Cuts are `Copy` values in one flat vector, a union is a two-pointer
//! merge into a stack array refused early by a leaf signature, and cone
//! truth tables come from one node-indexed [`ConeEval`]: mapping allocates
//! per netlist, not per cut. `tests/mapper_oracle.rs` holds the previous
//! allocation-per-cut mapper and compares LUT for LUT.

use crate::gate::{Gate, NodeId};
use crate::graph::Netlist;
use crate::lutnet::{FlipFlop, Lut, LutIn, LutNetwork};
use crate::truth::ConeEval;
use std::cmp::Ordering;

/// Mapper configuration.
#[derive(Debug, Clone, Copy)]
pub struct MapOptions {
    /// LUT input arity, 1..=6 (the simulated fabric uses 4, like the
    /// XC4000's primary function generators). A gate needs a cut over its
    /// own fan-in at least, so K = 2 cannot map a mux and K = 1 maps only
    /// inverters: [`map_to_luts`] panics on such a netlist.
    pub k: usize,
    /// Cut-set budget per node; larger explores more area/depth trade-offs.
    pub max_cuts: usize,
}

impl Default for MapOptions {
    fn default() -> Self {
        MapOptions { k: 4, max_cuts: 8 }
    }
}

/// Largest supported LUT arity: one 64-bit word holds the truth table.
const MAX_K: usize = 6;

/// A cut: a sorted set of leaf nodes (≤ K of them).
#[derive(Debug, Clone, Copy)]
struct Cut {
    /// The leaves in `..len`, ascending; the rest is padding.
    leaves: [NodeId; MAX_K],
    len: u8,
    /// Worst arrival among the leaves; the LUT rooted on this cut has depth
    /// `worst + 1`.
    worst: u32,
    /// One bit a leaf, `1 << id % 64`. Leaves 64 apart share a bit, so the
    /// popcount is a lower bound on the leaf count.
    sig: u64,
}

impl Cut {
    const EMPTY: Cut = Cut {
        leaves: [NodeId(0); MAX_K],
        len: 0,
        worst: 0,
        sig: 0,
    };

    /// The trivial cut `{id}`.
    fn trivial(id: NodeId, arrival: u32) -> Cut {
        let mut leaves = Cut::EMPTY.leaves;
        leaves[0] = id;
        Cut {
            leaves,
            len: 1,
            worst: arrival,
            sig: 1 << (id.0 % 64),
        }
    }

    fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// The cut order: depth, then leaf count, then leaves.
    fn order(&self, other: &Cut) -> Ordering {
        (self.worst, self.len, self.leaves()).cmp(&(other.worst, other.len, other.leaves()))
    }

    /// `self ∪ other`, or `None` if that is more than `k` leaves.
    fn union(&self, other: &Cut, k: usize) -> Option<Cut> {
        let sig = self.sig | other.sig;
        if sig.count_ones() as usize > k {
            return None;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut leaves = Cut::EMPTY.leaves;
        let (mut i, mut j, mut len) = (0, 0, 0);
        while i < a.len() || j < b.len() {
            if len == k {
                return None;
            }
            let x = a.get(i).copied().unwrap_or(NodeId(u32::MAX));
            let y = b.get(j).copied().unwrap_or(NodeId(u32::MAX));
            leaves[len] = x.min(y);
            i += (x <= y) as usize;
            j += (y <= x) as usize;
            len += 1;
        }
        Some(Cut {
            leaves,
            len: len as u8,
            worst: self.worst.max(other.worst),
            sig,
        })
    }
}

/// Insert `c` into `best`, the at most `max_cuts` smallest distinct
/// candidates so far in ascending order.
fn keep_smallest(best: &mut Vec<Cut>, c: Cut, max_cuts: usize) {
    let mut at = best.len();
    while at > 0 {
        match c.order(&best[at - 1]) {
            Ordering::Less => at -= 1,
            Ordering::Equal => return,
            Ordering::Greater => break,
        }
    }
    if at < max_cuts {
        best.truncate(max_cuts - 1);
        best.insert(at, c);
    }
}

/// Map a gate netlist to a [`LutNetwork`].
///
/// # Panics
/// Panics when a gate has no K-feasible cut (see [`MapOptions::k`]), and on
/// internal inconsistencies (cone extraction failing for an enumerated
/// cut), which would indicate a mapper bug.
pub fn map_to_luts(net: &Netlist, opts: MapOptions) -> LutNetwork {
    assert!((1..=MAX_K).contains(&opts.k), "K must be in 1..=6");
    assert!(opts.max_cuts >= 1);
    let (k, max_cuts) = (opts.k, opts.max_cuts);
    let n = net.nodes().len();

    // ---- Phase 1: bottom-up cut enumeration with depth labeling. ----
    // Node i's cuts are `cuts[start[i]..start[i + 1]]`, best first. The
    // arrival of a node — the depth of its best LUT implementation, 0 for
    // leaves — is the `worst` of its trivial cut.
    let mut cuts: Vec<Cut> = Vec::with_capacity(n * (max_cuts.min(8) + 1));
    let mut start: Vec<usize> = Vec::with_capacity(n + 1);
    let mut best: Vec<Cut> = Vec::new();
    // Unions over the fan-ins so far, and over one more.
    let (mut partial, mut wider): (Vec<Cut>, Vec<Cut>) = (Vec::new(), Vec::new());

    for (i, g) in net.nodes().iter().enumerate() {
        let id = NodeId(i as u32);
        start.push(cuts.len());
        match g {
            // Constants fold into cones: expose an *empty* cut so they
            // never consume a LUT input.
            Gate::Const(_) => cuts.push(Cut::EMPTY),
            // Pure leaves: only the trivial cut.
            Gate::Input { .. } | Gate::Dff { .. } => cuts.push(Cut::trivial(id, 0)),
            _ => {
                // Cross-product of fan-in cut sets, one fan-in at a time:
                // a union already over K leaves has no feasible superset.
                partial.clear();
                partial.push(Cut::EMPTY);
                for f in g.comb_fanin().iter() {
                    wider.clear();
                    for p in &partial {
                        for c in &cuts[start[f.index()]..start[f.index() + 1]] {
                            wider.extend(p.union(c, k));
                        }
                    }
                    std::mem::swap(&mut partial, &mut wider);
                }
                best.clear();
                for &c in &partial {
                    keep_smallest(&mut best, c, max_cuts);
                }
                assert!(
                    !best.is_empty(),
                    "no K-feasible cut for node {id} ({}); K too small",
                    g.kind()
                );
                cuts.extend_from_slice(&best);
                // Append the trivial cut so parents can stop here.
                cuts.push(Cut::trivial(id, best[0].worst + 1));
            }
        }
    }

    // ---- Phase 2: cover from the roots. ----
    struct Cover<'a> {
        net: &'a Netlist,
        cuts: &'a [Cut],
        start: &'a [usize],
        /// Node → flip-flop number, for the register nodes.
        ff_index: Vec<u32>,
        /// Node → the source it materialized as.
        memo: Vec<Option<LutIn>>,
        cones: ConeEval<'a>,
        luts: Vec<Lut>,
    }

    impl Cover<'_> {
        fn materialize(&mut self, id: NodeId) -> LutIn {
            if let Some(m) = self.memo[id.index()] {
                return m;
            }
            let out = match self.net.gate(id) {
                Gate::Input { bit } => LutIn::Input(bit),
                Gate::Const(c) => LutIn::Const(c),
                Gate::Dff { .. } => LutIn::Ff(self.ff_index[id.index()]),
                _ => {
                    // A gate's best cut is its first (the trivial cut was
                    // appended last and never has strictly better depth).
                    let cut = self.cuts[self.start[id.index()]];
                    let ins: Vec<LutIn> =
                        cut.leaves().iter().map(|&l| self.materialize(l)).collect();
                    let table = self
                        .cones
                        .table(id, cut.leaves())
                        .expect("enumerated cut must cover its cone");
                    let idx = self.luts.len() as u32;
                    self.luts.push(Lut { inputs: ins, table });
                    LutIn::Lut(idx)
                }
            };
            self.memo[id.index()] = Some(out);
            out
        }
    }

    let dff_nodes = net.dff_nodes();
    let mut ff_index = vec![u32::MAX; n];
    for (k, &id) in dff_nodes.iter().enumerate() {
        ff_index[id.index()] = k as u32;
    }

    let mut cover = Cover {
        net,
        cuts: &cuts,
        start: &start,
        ff_index,
        memo: vec![None; n],
        cones: ConeEval::new(net),
        luts: Vec::new(),
    };

    // Roots: every primary output and every flip-flop data input.
    let outputs: Vec<(String, LutIn)> = net
        .outputs()
        .iter()
        .map(|(name, id)| (name.clone(), cover.materialize(*id)))
        .collect();

    let ffs: Vec<FlipFlop> = dff_nodes
        .iter()
        .map(|&id| match net.gate(id) {
            Gate::Dff { d, init } => FlipFlop {
                d: cover.materialize(d),
                init,
            },
            _ => unreachable!(),
        })
        .collect();

    let mapped = LutNetwork {
        name: net.name().to_string(),
        k: opts.k,
        num_inputs: net.num_inputs(),
        luts: cover.luts,
        ffs,
        outputs,
    };
    debug_assert_eq!(mapped.validate(), Ok(()));
    mapped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Builder;
    use crate::lutnet::{lut_eval_comb, LutSimulator};
    use crate::sim::{eval_comb, Simulator};

    /// Exhaustively (≤ 12 inputs) or randomly check functional equivalence
    /// of a combinational netlist and its mapping.
    fn assert_comb_equiv(net: &Netlist, mapped: &LutNetwork) {
        let w = net.num_inputs();
        assert!(w <= 16, "test helper limited to 16 inputs");
        for v in 0..(1u64 << w) {
            let bits: Vec<bool> = (0..w).map(|i| (v >> i) & 1 == 1).collect();
            let golden = eval_comb(net, &bits);
            let got = lut_eval_comb(mapped, &bits);
            assert_eq!(golden, got, "mismatch at input {v:#b}");
        }
    }

    #[test]
    fn maps_xor_chain_into_single_lut() {
        let mut b = Builder::new("x4");
        let xs = b.inputs(4);
        let x = b.xor_tree(&xs);
        b.output("x", x);
        let net = b.finish();
        let mapped = map_to_luts(&net, MapOptions::default());
        mapped.validate().unwrap();
        assert_eq!(mapped.luts.len(), 1, "4-input parity fits one 4-LUT");
        assert_eq!(mapped.depth(), 1);
        assert_comb_equiv(&net, &mapped);
    }

    #[test]
    fn maps_wider_parity_into_tree() {
        let mut b = Builder::new("x10");
        let xs = b.inputs(10);
        let x = b.xor_tree(&xs);
        b.output("x", x);
        let net = b.finish();
        let mapped = map_to_luts(&net, MapOptions::default());
        mapped.validate().unwrap();
        assert!(mapped.luts.len() >= 3);
        assert!(mapped.depth() <= 2, "10 vars -> depth 2 in 4-LUTs");
        assert_comb_equiv(&net, &mapped);
    }

    #[test]
    fn constants_fold_into_cones() {
        let mut b = Builder::new("cf");
        let x = b.input();
        let one = b.constant(true);
        let a = b.and(x, one);
        let o = b.xor(a, one);
        b.output("o", o);
        let net = b.finish();
        let mapped = map_to_luts(&net, MapOptions::default());
        assert_eq!(mapped.luts.len(), 1);
        assert_eq!(
            mapped.luts[0].inputs.len(),
            1,
            "constant must not use a LUT pin"
        );
        assert_comb_equiv(&net, &mapped);
    }

    #[test]
    fn sequential_mapping_preserves_behaviour() {
        let net = crate::library::seq::counter("cnt4", 4);
        let mapped = map_to_luts(&net, MapOptions::default());
        mapped.validate().unwrap();
        assert_eq!(mapped.ffs.len(), 4);
        let mut gsim = Simulator::new(&net);
        let mut lsim = LutSimulator::new(&mapped);
        for step in 0..40 {
            let en = if step % 5 == 0 { 0u64 } else { u64::MAX };
            gsim.eval(&[en]);
            lsim.eval(&[en]);
            let g = gsim.outputs();
            let l = lsim.outputs(&[en]);
            assert_eq!(g, l, "cycle {step}");
            gsim.clock();
            lsim.clock(&[en]);
        }
    }

    #[test]
    fn adder_maps_equivalently() {
        let net = crate::library::arith::ripple_adder("add4", 4);
        let mapped = map_to_luts(&net, MapOptions::default());
        assert_comb_equiv(&net, &mapped);
        // Mapping must not balloon: a 4-bit adder is a handful of LUTs.
        assert!(mapped.luts.len() <= 12, "got {} luts", mapped.luts.len());
    }

    #[test]
    fn k_variants_all_equivalent() {
        let net = crate::library::arith::ripple_adder("add3", 3);
        for k in 2..=6 {
            let mapped = map_to_luts(&net, MapOptions { k, max_cuts: 8 });
            mapped.validate().unwrap();
            assert_comb_equiv(&net, &mapped);
        }
    }

    #[test]
    fn larger_k_never_deepens() {
        let mut b = Builder::new("mixed");
        let xs = b.inputs(12);
        let s1 = b.xor_tree(&xs[0..6]);
        let s2 = b.and_tree(&xs[6..12]);
        let o = b.or(s1, s2);
        b.output("o", o);
        let net = b.finish();
        let d4 = map_to_luts(&net, MapOptions { k: 4, max_cuts: 8 }).depth();
        let d6 = map_to_luts(&net, MapOptions { k: 6, max_cuts: 8 }).depth();
        assert!(d6 <= d4, "k=6 depth {d6} vs k=4 depth {d4}");
    }

    #[test]
    fn passthrough_output_needs_no_lut() {
        let mut b = Builder::new("wire");
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        b.output("a", a);
        b.output("x_again", x);
        let net = b.finish();
        let mapped = map_to_luts(&net, MapOptions::default());
        assert_eq!(mapped.luts.len(), 1);
        assert_eq!(mapped.outputs[1].1, LutIn::Input(0));
    }
}
