//! The netlists the compile-flow oracles share.

use netlist::library::{alu, arith, codes, ext, logic, seq};
use netlist::Netlist;

/// The `fabric` benchmark workload's 24 netlists: eight kinds at three
/// widths.
pub fn fabric_netlists() -> Vec<Netlist> {
    let mut nets = Vec::new();
    for w in [4, 6, 8] {
        nets.push(alu::alu(&format!("alu{w}"), w));
        nets.push(arith::array_multiplier(&format!("mul{w}"), w));
        nets.push(ext::booth_multiplier(
            &format!("booth{}", w / 2 + 1),
            w / 2 + 1,
        ));
        nets.push(arith::carry_select_adder(&format!("csa{}", 2 * w), 2 * w));
        nets.push(logic::popcount(&format!("pop{}", 2 * w), 2 * w));
        nets.push(seq::accumulator(&format!("acc{}", 2 * w), 2 * w));
    }
    for w in [4, 8, 16] {
        nets.push(logic::barrel_shifter(&format!("bsh{w}"), w));
    }
    nets.push(codes::crc_comb("crc8x8", codes::CRC8, 8, 8));
    nets.push(codes::crc_comb("crc16x8", codes::CRC16_CCITT, 16, 8));
    nets.push(codes::crc_comb("crc16x16", codes::CRC16_CCITT, 16, 16));
    nets
}
