//! Hand-built circuits with the edge cases the placer's Δ identity and its
//! bound rest on: a doubled edge, a self-loop, two blocks.
//!
//! Shared by `place_oracle.rs` and `pnr::place`'s unit tests, which name
//! the crate differently, so the including module brings `BlockSource`,
//! `PackedBlock` and `PackedCircuit` into scope.

use super::{BlockSource, PackedBlock, PackedCircuit};
use BlockSource::{Block, Input, None};

fn block(inputs: [BlockSource; 4], ff: bool) -> PackedBlock {
    PackedBlock {
        lut_table: 0b0110,
        inputs,
        ff: ff.then_some(false),
        out_from_ff: ff,
    }
}

fn circuit(name: &str, blocks: Vec<PackedBlock>) -> PackedCircuit {
    let last = blocks.len() as u32 - 1;
    PackedCircuit {
        name: name.into(),
        ff_block: (0..blocks.len() as u32)
            .filter(|&i| blocks[i as usize].ff.is_some())
            .collect(),
        blocks,
        num_inputs: 2,
        outputs: vec![("o".into(), last)],
    }
}

/// Two blocks, one edge: every accepted move is the two of them swapping,
/// or one stepping next to the other.
pub fn two() -> PackedCircuit {
    circuit(
        "two",
        vec![
            block([Input(0), Input(1), None, None], false),
            block([Block(0), Input(1), None, None], false),
        ],
    )
}

/// Block 1 reads block 0 twice (a doubled edge); block 2 is a register
/// feeding its own LUT (a self-loop) and reads block 1 twice more; block 3
/// reads everything, itself included.
pub fn knot() -> PackedCircuit {
    circuit(
        "knot",
        vec![
            block([Input(0), Input(1), None, None], false),
            block([Block(0), Block(0), Input(0), None], false),
            block([Block(2), Block(1), Block(1), Input(1)], true),
            block([Block(3), Block(2), Block(1), Block(0)], true),
        ],
    )
}

/// The knot tiled twelve times into a chain, so the annealer has real work.
pub fn chain() -> PackedCircuit {
    let mut blocks = Vec::new();
    for t in 0..12u32 {
        let base = 4 * t;
        let prev = if t == 0 { Input(0) } else { Block(base - 1) };
        blocks.push(block([prev, Input(1), None, None], false));
        blocks.push(block([Block(base), Block(base), prev, None], false));
        blocks.push(block(
            [Block(base + 2), Block(base + 1), Block(base + 1), Input(1)],
            true,
        ));
        blocks.push(block(
            [
                Block(base + 3),
                Block(base + 2),
                Block(base + 1),
                Block(base),
            ],
            true,
        ));
    }
    circuit("chain", blocks)
}
