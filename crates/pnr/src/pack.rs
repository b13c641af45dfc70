//! LUT/FF packing into CLB-shaped blocks.
//!
//! The simulated CLB holds one 4-LUT and one flip-flop with a single
//! output (combinational *or* registered). A flip-flop therefore packs
//! with its driving LUT only when that LUT has no other consumers; all
//! other flip-flops become *route-through* blocks (identity LUT feeding
//! the FF). Primary inputs and constants that directly feed outputs also
//! get route-throughs, because an IOB can only be driven by a CLB.

use netlist::{LutIn, LutNetwork};

/// Where a packed block's LUT input comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockSource {
    /// Unused input.
    None,
    /// Output of another block (index into [`PackedCircuit::blocks`]).
    Block(u32),
    /// Primary input bit.
    Input(u32),
    /// Constant.
    Const(bool),
}

/// One CLB-shaped block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedBlock {
    /// LUT truth table (≤ 4 inputs).
    pub lut_table: u16,
    /// LUT input sources.
    pub inputs: [BlockSource; 4],
    /// `Some(init)` when the block's flip-flop is used.
    pub ff: Option<bool>,
    /// Whether the block output is the FF output (else the LUT output).
    pub out_from_ff: bool,
}

/// A packed circuit: blocks plus external bindings.
#[derive(Debug, Clone)]
pub struct PackedCircuit {
    /// Circuit name.
    pub name: String,
    /// Blocks; indices are the [`BlockSource::Block`] namespace.
    pub blocks: Vec<PackedBlock>,
    /// Number of primary inputs.
    pub num_inputs: usize,
    /// Primary outputs as `(name, block index)`.
    pub outputs: Vec<(String, u32)>,
    /// For each flip-flop of the source LUT network, the block that holds
    /// it — the mapping OS state save/restore uses.
    pub ff_block: Vec<u32>,
}

impl PackedCircuit {
    /// Number of CLBs the circuit occupies.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of flip-flops (sequential state bits).
    pub fn ff_count(&self) -> usize {
        self.ff_block.len()
    }

    /// Whether the circuit holds any state.
    pub fn is_sequential(&self) -> bool {
        !self.ff_block.is_empty()
    }
}

const IDENTITY_LUT: u16 = 0b10; // out = in0

/// Pack a LUT network into CLB blocks.
pub fn pack(net: &LutNetwork) -> PackedCircuit {
    assert_eq!(net.validate(), Ok(()), "pack requires a valid LUT network");
    assert!(net.k <= 4, "fabric CLBs hold 4-LUTs");

    // Count consumers of each LUT output (other LUTs, FF d-inputs, outputs).
    let mut lut_consumers = vec![0u32; net.luts.len()];
    let mut tally = |s: &LutIn| {
        if let LutIn::Lut(j) = s {
            lut_consumers[*j as usize] += 1;
        }
    };
    for lut in &net.luts {
        for inp in &lut.inputs {
            tally(inp);
        }
    }
    for ff in &net.ffs {
        tally(&ff.d);
    }
    for (_, src) in &net.outputs {
        tally(src);
    }

    // Decide packing: FF i packs into LUT j when ff.d == Lut(j) and LUT j
    // has exactly one consumer (the FF itself, so no second FF can claim
    // it). Every other FF gets a route-through block after the LUT blocks,
    // in FF order — which fixes `ff_block` before any block is built.
    let mut lut_ff: Vec<Option<bool>> = vec![None; net.luts.len()];
    let mut ff_block: Vec<u32> = Vec::with_capacity(net.ffs.len());
    let mut next_route_through = net.luts.len() as u32;
    for ff in &net.ffs {
        match ff.d {
            LutIn::Lut(j) if lut_consumers[j as usize] == 1 => {
                lut_ff[j as usize] = Some(ff.init);
                ff_block.push(j);
            }
            _ => {
                ff_block.push(next_route_through);
                next_route_through += 1;
            }
        }
    }
    let source = |s: &LutIn| -> BlockSource {
        match *s {
            LutIn::Input(b) => BlockSource::Input(b),
            LutIn::Const(c) => BlockSource::Const(c),
            LutIn::Lut(j) => BlockSource::Block(j),
            LutIn::Ff(i) => BlockSource::Block(ff_block[i as usize]),
        }
    };
    // Identity LUT on one source: the route-through block.
    let route_through = |s: &LutIn, ff: Option<bool>| PackedBlock {
        lut_table: IDENTITY_LUT,
        inputs: [
            source(s),
            BlockSource::None,
            BlockSource::None,
            BlockSource::None,
        ],
        ff,
        out_from_ff: ff.is_some(),
    };

    // Block layout: one block per LUT, then one per unpacked FF, then
    // route-throughs for outputs fed by inputs/constants.
    let mut blocks: Vec<PackedBlock> = Vec::with_capacity(next_route_through as usize);
    for (lut, &ff) in net.luts.iter().zip(&lut_ff) {
        let mut inputs = [BlockSource::None; 4];
        for (slot, s) in inputs.iter_mut().zip(&lut.inputs) {
            *slot = source(s);
        }
        blocks.push(PackedBlock {
            lut_table: lut.table as u16,
            inputs,
            ff,
            out_from_ff: ff.is_some(),
        });
    }
    for (ff, &b) in net.ffs.iter().zip(&ff_block) {
        if b as usize >= net.luts.len() {
            blocks.push(route_through(&ff.d, Some(ff.init)));
        }
    }

    // Outputs: bind to blocks, inserting route-throughs for raw inputs and
    // constants.
    let mut outputs = Vec::with_capacity(net.outputs.len());
    for (name, src) in &net.outputs {
        let block = match source(src) {
            BlockSource::Block(b) => b,
            _ => {
                blocks.push(route_through(src, None));
                blocks.len() as u32 - 1
            }
        };
        outputs.push((name.clone(), block));
    }

    PackedCircuit {
        name: net.name.clone(),
        blocks,
        num_inputs: net.num_inputs,
        outputs,
        ff_block,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{map_to_luts, MapOptions};

    fn packed(net: &netlist::Netlist) -> PackedCircuit {
        pack(&map_to_luts(net, MapOptions::default()))
    }

    #[test]
    fn counter_packs_ffs_with_luts() {
        let net = netlist::library::seq::counter("c4", 4);
        let pc = packed(&net);
        assert_eq!(pc.ff_count(), 4);
        // The counter's next-state LUTs feed only their FFs... but the FF
        // outputs also feed the increment logic, which is fine: packing is
        // about the LUT's consumers, not the FF's.
        assert!(
            pc.block_count() <= 8,
            "4-bit counter should pack tightly, got {} blocks",
            pc.block_count()
        );
    }

    #[test]
    fn ff_block_mapping_is_valid() {
        let net = netlist::library::seq::lfsr("l8", 8, 0b10111000);
        let pc = packed(&net);
        assert_eq!(pc.ff_count(), 8);
        for &b in &pc.ff_block {
            let blk = &pc.blocks[b as usize];
            assert!(blk.ff.is_some(), "ff_block must point at a stateful block");
            assert!(blk.out_from_ff);
        }
    }

    #[test]
    fn unpacked_flip_flops_follow_the_luts_in_flip_flop_order() {
        // The accumulator packs its sum bits with their LUTs; the LFSR's
        // stages are mostly register-to-register route-throughs.
        for net in [
            netlist::library::seq::accumulator("a6", 6),
            netlist::library::seq::lfsr("l8", 8, 0b10111000),
        ] {
            let mapped = map_to_luts(&net, MapOptions::default());
            let pc = pack(&mapped);
            let mut next = mapped.luts.len() as u32;
            for (ff, &b) in mapped.ffs.iter().zip(&pc.ff_block) {
                let blk = &pc.blocks[b as usize];
                assert_eq!(blk.ff, Some(ff.init));
                if ff.d != LutIn::Lut(b) {
                    assert_eq!(b, next, "{}: route-throughs in order", net.name());
                    assert_eq!(blk.lut_table, IDENTITY_LUT);
                    next += 1;
                }
            }
            assert!(next as usize <= pc.blocks.len());
        }
    }

    #[test]
    fn output_from_input_gets_route_through() {
        let mut b = netlist::Builder::new("wire");
        let x = b.input();
        let y = b.input();
        let a = b.and(x, y);
        b.output("a", a);
        b.output("x", x);
        let net = b.finish();
        let pc = packed(&net);
        // AND block + route-through for the passthrough output.
        assert_eq!(pc.block_count(), 2);
        let (_, rt) = &pc.outputs[1];
        let blk = &pc.blocks[*rt as usize];
        assert_eq!(blk.lut_table, 0b10, "identity LUT");
        assert_eq!(blk.inputs[0], BlockSource::Input(0));
    }

    #[test]
    fn shift_register_chain_packs_one_block_per_bit() {
        let net = netlist::library::seq::shift_register("sr8", 8);
        let pc = packed(&net);
        // Each stage is an FF fed by the previous FF: route-through per bit.
        assert_eq!(pc.ff_count(), 8);
        assert_eq!(pc.block_count(), 8);
    }

    #[test]
    fn block_references_are_in_range() {
        let net = netlist::library::arith::array_multiplier("m6", 6);
        let pc = packed(&net);
        for blk in &pc.blocks {
            for s in blk.inputs {
                if let BlockSource::Block(j) = s {
                    assert!((j as usize) < pc.blocks.len());
                }
            }
        }
        for (_, b) in &pc.outputs {
            assert!((*b as usize) < pc.blocks.len());
        }
    }

    #[test]
    fn combinational_circuit_has_no_state() {
        let net = netlist::library::logic::parity("p8", 8);
        let pc = packed(&net);
        assert!(!pc.is_sequential());
        assert_eq!(pc.ff_count(), 0);
    }
}
