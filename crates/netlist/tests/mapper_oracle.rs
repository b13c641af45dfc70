//! The cut mapper against the mapper it replaced.
//!
//! `reference` is `map_to_luts` exactly as it stood before the flat cut
//! store, with the `cone_truth_table` / `eval_rec` pair it called: a heap
//! `Vec` per candidate cut, push-all / sort / dedup / truncate, a `HashMap`
//! per cone. [`netlist::map_to_luts`] must return the same network LUT for
//! LUT — inputs in the same order, the same truth table bits, the same
//! flip-flop and output bindings — for every library generator at three
//! widths, every K that maps them and cut budgets below, at and above the
//! default; for random netlists of every gate kind with constants and
//! register feedback; and for netlists whose node ids straddle 64, where
//! two leaves share a bit of the 64-bit leaf signature and only the merge
//! itself can count them.

use fsim::SimRng;
use netlist::library::{alu, arith, codes, dsp, ext, logic, seq};
use netlist::{map_to_luts, Builder, MapOptions, Netlist, NodeId};

/// The pre-rewrite mapper and cone evaluator, verbatim.
mod reference {
    use netlist::truth::{table_mask, VAR};
    use netlist::{FlipFlop, Gate, Lut, LutIn, LutNetwork, MapOptions, Netlist, NodeId};
    use std::collections::HashMap;

    /// A cut: a sorted set of leaf nodes (≤ K of them).
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Cut {
        leaves: Vec<NodeId>,
        /// Depth of the LUT rooted here if this cut is chosen.
        depth: u32,
    }

    fn merge_leaves(k: usize, parts: &[&[NodeId]]) -> Option<Vec<NodeId>> {
        let mut out: Vec<NodeId> = Vec::with_capacity(k + 1);
        for part in parts {
            for &l in *part {
                if let Err(pos) = out.binary_search(&l) {
                    if out.len() == k {
                        return None;
                    }
                    out.insert(pos, l);
                }
            }
        }
        Some(out)
    }

    /// Map a gate netlist to a [`LutNetwork`].
    ///
    /// # Panics
    /// Panics on internal inconsistencies (cone extraction failing for an
    /// enumerated cut), which would indicate a mapper bug.
    pub fn map_to_luts(net: &Netlist, opts: MapOptions) -> LutNetwork {
        assert!((1..=6).contains(&opts.k), "K must be in 1..=6");
        assert!(opts.max_cuts >= 1);
        let n = net.nodes().len();

        // ---- Phase 1: bottom-up cut enumeration with depth labeling. ----
        // `arrival[i]` = depth of the best LUT implementation rooted at i
        // (0 for leaves).
        let mut arrival = vec![0u32; n];
        let mut cuts: Vec<Vec<Cut>> = Vec::with_capacity(n);

        for i in 0..n {
            let id = NodeId(i as u32);
            let g = net.gate(id);
            let node_cuts = match g {
                // Constants fold into cones: expose an *empty* cut so they
                // never consume a LUT input.
                Gate::Const(_) => vec![Cut {
                    leaves: vec![],
                    depth: 0,
                }],
                // Pure leaves: only the trivial cut.
                Gate::Input { .. } | Gate::Dff { .. } => {
                    vec![Cut {
                        leaves: vec![id],
                        depth: 0,
                    }]
                }
                _ => {
                    let fanin: Vec<NodeId> = g.comb_fanin().iter().collect();
                    let mut cands: Vec<Cut> = Vec::new();
                    // Cross-product of fan-in cut sets.
                    match fanin.len() {
                        1 => {
                            for ca in &cuts[fanin[0].index()] {
                                if let Some(leaves) = merge_leaves(opts.k, &[&ca.leaves]) {
                                    cands.push(Cut { leaves, depth: 0 });
                                }
                            }
                        }
                        2 => {
                            for ca in &cuts[fanin[0].index()] {
                                for cb in &cuts[fanin[1].index()] {
                                    if let Some(leaves) =
                                        merge_leaves(opts.k, &[&ca.leaves, &cb.leaves])
                                    {
                                        cands.push(Cut { leaves, depth: 0 });
                                    }
                                }
                            }
                        }
                        3 => {
                            for ca in &cuts[fanin[0].index()] {
                                for cb in &cuts[fanin[1].index()] {
                                    for cc in &cuts[fanin[2].index()] {
                                        if let Some(leaves) = merge_leaves(
                                            opts.k,
                                            &[&ca.leaves, &cb.leaves, &cc.leaves],
                                        ) {
                                            cands.push(Cut { leaves, depth: 0 });
                                        }
                                    }
                                }
                            }
                        }
                        arity => unreachable!("unexpected gate arity {arity}"),
                    }
                    // Depth of each candidate = 1 + max leaf arrival.
                    for c in &mut cands {
                        let worst = c
                            .leaves
                            .iter()
                            .map(|l| arrival[l.index()])
                            .max()
                            .unwrap_or(0);
                        c.depth = worst + 1;
                    }
                    // Sort by (depth, size), dedupe identical leaf sets, prune.
                    cands.sort_by(|a, b| {
                        a.depth
                            .cmp(&b.depth)
                            .then(a.leaves.len().cmp(&b.leaves.len()))
                            .then(a.leaves.cmp(&b.leaves))
                    });
                    cands.dedup_by(|a, b| a.leaves == b.leaves);
                    cands.truncate(opts.max_cuts);
                    assert!(
                        !cands.is_empty(),
                        "no K-feasible cut for node {id} ({}); K too small",
                        g.kind()
                    );
                    arrival[i] = cands[0].depth;
                    // Append the trivial cut so parents can stop here.
                    cands.push(Cut {
                        leaves: vec![id],
                        depth: arrival[i],
                    });
                    cands
                }
            };
            cuts.push(node_cuts);
        }

        // ---- Phase 2: cover from the roots. ----
        struct Cover<'a> {
            net: &'a Netlist,
            cuts: &'a [Vec<Cut>],
            ff_index: HashMap<NodeId, u32>,
            memo: HashMap<NodeId, LutIn>,
            luts: Vec<Lut>,
        }

        impl Cover<'_> {
            fn materialize(&mut self, id: NodeId) -> LutIn {
                if let Some(&m) = self.memo.get(&id) {
                    return m;
                }
                let out = match self.net.gate(id) {
                    Gate::Input { bit } => LutIn::Input(bit),
                    Gate::Const(c) => LutIn::Const(c),
                    Gate::Dff { .. } => LutIn::Ff(self.ff_index[&id]),
                    _ => {
                        // Best non-trivial cut is first (the trivial cut was
                        // appended last and never has strictly better depth).
                        let cut = self.cuts[id.index()]
                            .iter()
                            .find(|c| !(c.leaves.len() == 1 && c.leaves[0] == id))
                            .expect("gate node always has a non-trivial cut")
                            .clone();
                        let ins: Vec<LutIn> =
                            cut.leaves.iter().map(|&l| self.materialize(l)).collect();
                        let table = cone_truth_table(self.net, id, &cut.leaves)
                            .expect("enumerated cut must cover its cone");
                        let idx = self.luts.len() as u32;
                        self.luts.push(Lut { inputs: ins, table });
                        LutIn::Lut(idx)
                    }
                };
                self.memo.insert(id, out);
                out
            }
        }

        let dff_nodes = net.dff_nodes();
        let ff_index: HashMap<NodeId, u32> = dff_nodes
            .iter()
            .enumerate()
            .map(|(k, &id)| (id, k as u32))
            .collect();

        let mut cover = Cover {
            net,
            cuts: &cuts,
            ff_index,
            memo: HashMap::new(),
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

    /// Compute the truth table of the cone rooted at `root` with the given
    /// `leaves` (≤ 6). Every path from `root` must terminate at a leaf — the
    /// caller (the cut enumerator) guarantees this; a cone that escapes its
    /// leaves returns `None`.
    pub fn cone_truth_table(net: &Netlist, root: NodeId, leaves: &[NodeId]) -> Option<u64> {
        assert!(leaves.len() <= 6, "cone too wide for one table word");
        let mut memo: HashMap<NodeId, u64> = HashMap::with_capacity(16);
        for (i, &l) in leaves.iter().enumerate() {
            memo.insert(l, VAR[i]);
        }
        let full = eval_rec(net, root, &mut memo)?;
        Some(full & table_mask(leaves.len()))
    }

    fn eval_rec(net: &Netlist, node: NodeId, memo: &mut HashMap<NodeId, u64>) -> Option<u64> {
        if let Some(&v) = memo.get(&node) {
            return Some(v);
        }
        let v = match net.gate(node) {
            // Reaching a primary input, register, or constant that is not a
            // declared leaf: constants are fine (they're closed), anything else
            // means the cut does not actually cover the cone.
            Gate::Const(c) => {
                if c {
                    u64::MAX
                } else {
                    0
                }
            }
            Gate::Input { .. } | Gate::Dff { .. } => return None,
            Gate::Not(a) => !eval_rec(net, a, memo)?,
            Gate::And(a, b) => eval_rec(net, a, memo)? & eval_rec(net, b, memo)?,
            Gate::Or(a, b) => eval_rec(net, a, memo)? | eval_rec(net, b, memo)?,
            Gate::Xor(a, b) => eval_rec(net, a, memo)? ^ eval_rec(net, b, memo)?,
            Gate::Nand(a, b) => !(eval_rec(net, a, memo)? & eval_rec(net, b, memo)?),
            Gate::Nor(a, b) => !(eval_rec(net, a, memo)? | eval_rec(net, b, memo)?),
            Gate::Xnor(a, b) => !(eval_rec(net, a, memo)? ^ eval_rec(net, b, memo)?),
            Gate::Mux { sel, lo, hi } => {
                let s = eval_rec(net, sel, memo)?;
                let l = eval_rec(net, lo, memo)?;
                let h = eval_rec(net, hi, memo)?;
                (s & h) | (!s & l)
            }
        };
        memo.insert(node, v);
        Some(v)
    }
}

// ------------------------------------------------------------- the sweep

const BUDGETS: [usize; 4] = [1, 2, 8, 16];

/// Both mappers on `net` at every K in `ks` and every budget.
fn assert_same(net: &Netlist, ks: std::ops::RangeInclusive<usize>) {
    for k in ks {
        for max_cuts in BUDGETS {
            let opts = MapOptions { k, max_cuts };
            let want = reference::map_to_luts(net, opts);
            let got = map_to_luts(net, opts);
            let at = format!("{} k={k} max_cuts={max_cuts}", net.name());
            assert_eq!(got.luts, want.luts, "luts of {at}");
            assert_eq!(got.ffs, want.ffs, "ffs of {at}");
            assert_eq!(got.outputs, want.outputs, "outputs of {at}");
            assert_eq!(
                (got.name, got.k, got.num_inputs),
                (want.name, want.k, want.num_inputs),
                "header of {at}"
            );
        }
    }
}

/// Every generator of `netlist::library`: the parametric ones at three
/// widths, the fixed-size ones once.
fn library() -> Vec<Netlist> {
    let mut nets = vec![
        codes::hamming74_encode("ham-enc"),
        codes::hamming74_decode("ham-dec"),
        ext::seven_segment("seg7"),
        ext::bin_to_bcd("bcd"),
        seq::pattern_fsm("fsm"),
        seq::bcd_counter("bcdcnt"),
        seq::traffic_light("traffic"),
    ];
    for (i, w) in [2usize, 4, 7].into_iter().enumerate() {
        let pow2 = 2 << i; // 2, 4, 8
        nets.push(alu::alu(&format!("alu{w}"), w));
        nets.push(arith::ripple_adder(&format!("add{w}"), w));
        nets.push(arith::subtractor(&format!("sub{w}"), w));
        nets.push(arith::array_multiplier(&format!("mul{w}"), w));
        nets.push(arith::carry_select_adder(&format!("csa{w}"), w));
        nets.push(codes::crc_comb(&format!("crc8x{w}"), codes::CRC8, 8, w));
        nets.push(codes::crc_comb(
            &format!("crc16x{w}"),
            codes::CRC16_CCITT,
            16,
            2 * w,
        ));
        nets.push(codes::gray_encode(&format!("genc{w}"), w));
        nets.push(codes::gray_decode(&format!("gdec{w}"), w));
        nets.push(dsp::fir(&format!("fir{w}"), w, &[1, 2, 3][..=i]));
        nets.push(dsp::moving_sum(&format!("msum{w}"), w, i + 2));
        nets.push(ext::restoring_divider(&format!("div{w}"), w));
        nets.push(ext::booth_multiplier(&format!("booth{w}"), w));
        nets.push(ext::bitonic_sorter(&format!("sort{pow2}x{w}"), pow2, w));
        nets.push(logic::comparator(&format!("cmp{w}"), w));
        nets.push(logic::parity(&format!("par{w}"), 3 * w));
        nets.push(logic::popcount(&format!("pop{w}"), 2 * w));
        nets.push(logic::priority_encoder(&format!("prio{w}"), 2 * w));
        nets.push(logic::barrel_shifter(&format!("bsh{pow2}"), 2 * pow2));
        nets.push(logic::majority(&format!("maj{w}"), 2 * i + 3));
        nets.push(seq::counter(&format!("cnt{w}"), 2 * w));
        nets.push(seq::lfsr(&format!("lfsr{w}"), 2 * w, 0b1011));
        nets.push(seq::shift_register(&format!("sr{w}"), 2 * w));
        nets.push(seq::accumulator(&format!("acc{w}"), 2 * w));
        nets.push(seq::crc_serial(&format!("crcs{w}"), codes::CRC8, 2 + 3 * i));
        nets.push(seq::johnson_counter(&format!("john{w}"), 2 * w));
    }
    nets
}

#[test]
fn every_library_generator_maps_as_before() {
    let nets = library();
    assert!(nets.len() >= 80, "{} netlists", nets.len());
    for net in &nets {
        // K = 2 cannot hold a mux (three fan-ins), and most of the library
        // has one.
        assert_same(net, 3..=6);
    }
}

/// `gates` random gates of every kind over `inputs` primary inputs, two
/// constants and `regs` registers with feedback. `pick` chooses each
/// fan-in among the nodes so far.
fn random_netlist(
    name: &str,
    rng: &mut SimRng,
    (inputs, regs, gates): (usize, usize, usize),
    pick: impl Fn(&mut SimRng, &[NodeId]) -> NodeId,
) -> Netlist {
    let mut b = Builder::new(name);
    let mut nodes = b.inputs(inputs);
    nodes.push(b.constant(false));
    nodes.push(b.constant(true));
    let ffs: Vec<NodeId> = (0..regs).map(|i| b.dff_placeholder(i % 2 == 1)).collect();
    nodes.extend(&ffs);
    for _ in 0..gates {
        let (x, y, z) = (pick(rng, &nodes), pick(rng, &nodes), pick(rng, &nodes));
        nodes.push(match rng.below(9) {
            0 => b.not(x),
            1 => b.and(x, y),
            2 => b.or(x, y),
            3 => b.xor(x, y),
            4 => b.nand(x, y),
            5 => b.nor(x, y),
            6 => b.xnor(x, y),
            _ => b.mux(x, y, z),
        });
    }
    for &ff in &ffs {
        let d = pick(rng, &nodes);
        b.connect_dff(ff, d);
    }
    for i in 0..4 {
        b.output(format!("tail{i}"), nodes[nodes.len() - 1 - i]);
        let any = pick(rng, &nodes);
        b.output(format!("any{i}"), any);
    }
    b.finish()
}

#[test]
fn random_netlists_map_as_before() {
    for seed in 1..=12u64 {
        let mut rng = SimRng::new(seed);
        // Fan-ins near the newest node make deep cones with reconvergence.
        let net = random_netlist(
            &format!("rand{seed}"),
            &mut rng,
            (6, 3, 120),
            |rng, nodes| nodes[nodes.len() - 1 - rng.below(nodes.len().min(14) as u64) as usize],
        );
        assert_same(&net, 3..=6);
    }
}

#[test]
fn leaves_sharing_a_signature_bit_are_still_counted() {
    // By hand: ids 0, 1, 64 and 65 set two signature bits between them, so
    // at K = 3 the union {0, 1, 64, 65} passes the popcount test and only
    // the merge can refuse it.
    let mut b = Builder::new("straddle");
    let xs = b.inputs(70);
    let (x0, x1, x64, x65) = (xs[0], xs[1], xs[64], xs[65]);
    assert_eq!((x0.0 % 64, x1.0 % 64), (x64.0 % 64, x65.0 % 64));
    let lo = b.and(x0, x64);
    let hi = b.xor(x1, x65);
    let both = b.or(lo, hi);
    // The same again one level up, where the aliased leaves arrive inside
    // cuts that are already merged.
    let (y0, y64) = (b.nand(x0, xs[2]), b.nor(x64, xs[66]));
    let wide = b.xnor(y0, y64);
    let top = b.and(both, wide);
    b.output("both", both);
    b.output("top", top);
    let net = b.finish();
    // No mux, so K = 2 maps too.
    assert_same(&net, 2..=6);
}

#[test]
fn random_netlists_over_aliased_ids_map_as_before() {
    // 200 inputs, and every fan-in drawn from the nodes whose id is one of
    // four residues mod 64: most unions meet leaves that alias.
    for seed in 1..=6u64 {
        let mut rng = SimRng::new(0xA11A5 ^ seed);
        let net = random_netlist(
            &format!("alias{seed}"),
            &mut rng,
            (200, 2, 150),
            |rng, nodes| {
                let residue = [0, 1, 5, 63][rng.below(4) as usize];
                let aliased: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|n| n.0 % 64 == residue)
                    .collect();
                aliased[rng.below(aliased.len() as u64) as usize]
            },
        );
        assert_same(&net, 3..=6);
    }
}
