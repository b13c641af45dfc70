//! Configuration-port timing model.
//!
//! The paper's feasibility arguments all reduce to configuration time:
//! "in the Xilinx X4000 FPGAs, the configuration can be downloaded only
//! serially and completely in no more than 200 ms", and partial
//! reconfigurability is what makes *frequent* reprogramming practical.
//! This module encodes that arithmetic: bits per CLB/IOB, per-frame
//! addressing overhead, port bit rates, and read-modify-write penalties
//! for frames that cover only part of a column.

use crate::bitstream::Bitstream;
use crate::device::DeviceSpec;
use fsim::SimDuration;

/// Configuration bits per CLB (LUT table + input routing + FF mode),
/// including this CLB's share of the interconnect configuration.
pub const BITS_PER_CLB: u64 = 400;
/// Configuration bits per I/O block.
pub const BITS_PER_IOB: u64 = 64;
/// Fixed stream header (sync word, device id, commands).
pub const HEADER_BITS: u64 = 160;
/// Addressing overhead per partial frame (frame address register write).
pub const FRAME_ADDR_BITS: u64 = 40;

/// How the configuration RAM is written.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigPort {
    /// Slow serial port (XC4000-style CCLK at conservative speed):
    /// the paper's "≈ 200 ms for a full device" operating point.
    SerialSlow,
    /// Fast serial port (aggressive CCLK).
    SerialFast,
    /// Byte-wide parallel (Express-style) port.
    Parallel8,
}

impl ConfigPort {
    /// Port throughput in configuration bits per second.
    pub fn bits_per_sec(self) -> u64 {
        match self {
            ConfigPort::SerialSlow => 2_000_000,
            ConfigPort::SerialFast => 8_000_000,
            ConfigPort::Parallel8 => 64_000_000,
        }
    }

    /// Whether the port supports frame-addressed (partial) writes. The
    /// slow serial port only performs whole-device loads — the paper's
    /// "downloaded only serially and completely" case.
    pub fn supports_partial(self) -> bool {
        !matches!(self, ConfigPort::SerialSlow)
    }
}

/// Timing calculator binding a device to a port.
#[derive(Debug, Clone, Copy)]
pub struct ConfigTiming {
    /// The device geometry.
    pub spec: DeviceSpec,
    /// The configuration port in use.
    pub port: ConfigPort,
}

impl ConfigTiming {
    /// Bits in one full-column configuration frame.
    pub fn frame_bits(&self) -> u64 {
        self.spec.rows as u64 * BITS_PER_CLB
    }

    /// Total bits of a full-device configuration.
    pub fn full_bits(&self) -> u64 {
        HEADER_BITS
            + self.spec.cols as u64 * self.frame_bits()
            + self.spec.io_pins as u64 * BITS_PER_IOB
    }

    fn dur_for_bits(&self, bits: u64) -> SimDuration {
        let ns = bits.saturating_mul(1_000_000_000) / self.port.bits_per_sec();
        SimDuration::from_nanos(ns)
    }

    /// Time for a full-device configuration download.
    pub fn full_config_time(&self) -> SimDuration {
        self.dur_for_bits(self.full_bits())
    }

    /// Time to download a specific bitstream.
    ///
    /// * full streams cost [`ConfigTiming::full_config_time`] regardless
    ///   of content (the stream carries every frame);
    /// * partial streams cost header + per-frame (address + data), with
    ///   frames that cover only part of a column charged a read-modify-
    ///   write (the device must read the frame back, merge, and rewrite —
    ///   ×2 on the data movement);
    /// * IOB writes are charged per touched IOB.
    pub fn download_time(&self, bs: &Bitstream) -> SimDuration {
        if bs.full {
            return self.full_config_time();
        }
        let mut bits = HEADER_BITS;
        for f in &bs.frames {
            let covers_column = f.row0 == 0 && f.cells.len() as u32 >= self.spec.rows;
            let data = self.frame_bits();
            bits += FRAME_ADDR_BITS + if covers_column { data } else { 2 * data };
        }
        bits += bs.iobs.len() as u64 * BITS_PER_IOB;
        self.dur_for_bits(bits)
    }

    /// Bits and time to move `n_frames` full-column frames over the port —
    /// the header, then each frame's address and data: what a partial
    /// download of whole columns, a readback and a state write-back cost.
    pub fn frame_transfer(&self, n_frames: usize) -> (u64, SimDuration) {
        let bits = HEADER_BITS + n_frames as u64 * (FRAME_ADDR_BITS + self.frame_bits());
        (bits, self.dur_for_bits(bits))
    }

    /// Time to read back the flip-flop state of `n_frames` columns
    /// (readback moves whole frames, like configuration, plus addressing).
    pub fn readback_time(&self, n_frames: usize) -> SimDuration {
        self.frame_transfer(n_frames).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{ClbCell, ClbSource, FrameWrite};
    use crate::device::PARTS;

    fn part(name: &str) -> DeviceSpec {
        *PARTS.iter().find(|p| p.name == name).unwrap()
    }

    #[test]
    fn flagship_full_serial_config_is_about_200ms() {
        // The paper's anchor: the largest X4000 takes "no more than 200 ms"
        // over the slow serial port.
        let t = ConfigTiming {
            spec: part("VF800"),
            port: ConfigPort::SerialSlow,
        };
        let ms = t.full_config_time().as_millis_f64();
        assert!(
            (160.0..240.0).contains(&ms),
            "flagship serial config {ms} ms should be ≈ 200 ms"
        );
    }

    #[test]
    fn small_part_configures_much_faster() {
        let small = ConfigTiming {
            spec: part("VF100"),
            port: ConfigPort::SerialSlow,
        };
        let big = ConfigTiming {
            spec: part("VF800"),
            port: ConfigPort::SerialSlow,
        };
        assert!(small.full_config_time().as_nanos() * 5 < big.full_config_time().as_nanos());
    }

    #[test]
    fn partial_beats_full_when_touching_few_frames() {
        let spec = part("VF800");
        let t = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        let cell = ClbCell::comb(0, [ClbSource::None; 4]);
        // 4 full-column frames out of 32.
        let frames = (0..4)
            .map(|c| FrameWrite {
                col: c,
                row0: 0,
                cells: vec![Some(cell); spec.rows as usize],
            })
            .collect();
        let partial = Bitstream::new("p", frames, vec![], false);
        let dl = t.download_time(&partial);
        let full = t.full_config_time();
        assert!(
            dl.as_nanos() * 5 < full.as_nanos(),
            "4/32 frames must be ≫ 5x cheaper: {} vs {}",
            dl.as_nanos(),
            full.as_nanos()
        );
    }

    #[test]
    fn partial_column_pays_read_modify_write() {
        let spec = part("VF800");
        let t = ConfigTiming {
            spec,
            port: ConfigPort::SerialFast,
        };
        let cell = ClbCell::comb(0, [ClbSource::None; 4]);
        let full_col = Bitstream::new(
            "f",
            vec![FrameWrite {
                col: 0,
                row0: 0,
                cells: vec![Some(cell); spec.rows as usize],
            }],
            vec![],
            false,
        );
        let half_col = Bitstream::new(
            "h",
            vec![FrameWrite {
                col: 0,
                row0: 0,
                cells: vec![Some(cell); spec.rows as usize / 2],
            }],
            vec![],
            false,
        );
        assert!(
            t.download_time(&half_col) > t.download_time(&full_col),
            "read-modify-write must cost more than a clean frame write"
        );
    }

    #[test]
    fn full_streams_cost_full_time_regardless_of_content() {
        let spec = part("VF400");
        let t = ConfigTiming {
            spec,
            port: ConfigPort::SerialSlow,
        };
        let empty_full = Bitstream::new("e", vec![], vec![], true);
        assert_eq!(t.download_time(&empty_full), t.full_config_time());
    }

    #[test]
    fn port_rates_order() {
        assert!(ConfigPort::SerialSlow.bits_per_sec() < ConfigPort::SerialFast.bits_per_sec());
        assert!(ConfigPort::SerialFast.bits_per_sec() < ConfigPort::Parallel8.bits_per_sec());
        assert!(!ConfigPort::SerialSlow.supports_partial());
        assert!(ConfigPort::SerialFast.supports_partial());
    }

    #[test]
    fn readback_scales_with_frames() {
        let t = ConfigTiming {
            spec: part("VF400"),
            port: ConfigPort::SerialFast,
        };
        let one = t.readback_time(1).as_nanos();
        let ten = t.readback_time(10).as_nanos();
        assert!(ten > 8 * one && ten < 11 * one);
    }
}
