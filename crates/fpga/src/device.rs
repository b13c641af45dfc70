//! The device catalog and the device state.
//!
//! [`DeviceSpec`] describes a part's geometry; [`Device`] holds live
//! configuration RAM (the CLB grid and IOBs) and flip-flop state, applies
//! bitstreams, and exposes readback/state-write — the physical substrate
//! every VFPGA technique manipulates.

use crate::bitstream::{hash_cell, iob_code, Bitstream, ClbCell, IobConfig};
use crate::config::{ConfigPort, ConfigTiming};
use crate::region::Rect;
use fsim::hash::Digest;
use fsim::SimDuration;

/// Geometry and capability of one part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSpec {
    /// Part name.
    pub name: &'static str,
    /// CLB columns.
    pub cols: u32,
    /// CLB rows.
    pub rows: u32,
    /// User I/O pins.
    pub io_pins: u32,
    /// Marketing gate count (for report tables only).
    pub gates: u32,
}

impl DeviceSpec {
    /// Total CLBs.
    pub fn clbs(&self) -> u32 {
        self.cols * self.rows
    }

    /// The whole-device region.
    pub fn full_rect(&self) -> Rect {
        Rect::new(0, 0, self.cols, self.rows)
    }
}

/// The part catalog — a family spanning the paper's "up to 250 K gates"
/// range. Geometry follows the XC4000 progression (square arrays, pin
/// count growing with the perimeter).
pub const PARTS: &[DeviceSpec] = &[
    DeviceSpec {
        name: "VF100",
        cols: 10,
        rows: 10,
        io_pins: 64,
        gates: 10_000,
    },
    DeviceSpec {
        name: "VF200",
        cols: 14,
        rows: 14,
        io_pins: 96,
        gates: 20_000,
    },
    DeviceSpec {
        name: "VF400",
        cols: 20,
        rows: 20,
        io_pins: 128,
        gates: 40_000,
    },
    DeviceSpec {
        name: "VF600",
        cols: 24,
        rows: 24,
        io_pins: 160,
        gates: 60_000,
    },
    DeviceSpec {
        name: "VF800",
        cols: 32,
        rows: 32,
        io_pins: 224,
        gates: 100_000,
    },
    DeviceSpec {
        name: "VF1000",
        cols: 40,
        rows: 40,
        io_pins: 288,
        gates: 150_000,
    },
    DeviceSpec {
        name: "VF1500",
        cols: 48,
        rows: 48,
        io_pins: 352,
        gates: 200_000,
    },
    DeviceSpec {
        name: "VF2000",
        cols: 56,
        rows: 56,
        io_pins: 448,
        gates: 250_000,
    },
];

/// Look up a part by name.
pub fn part(name: &str) -> DeviceSpec {
    *PARTS
        .iter()
        .find(|p| p.name == name)
        .unwrap_or_else(|| panic!("unknown part '{name}'"))
}

/// Errors surfaced by the device when applying configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// Bitstream checksum mismatch — the stream is rejected untouched.
    CrcMismatch,
    /// A frame addresses a column/row outside the device.
    OutOfRange {
        /// Offending column.
        col: u32,
        /// Offending row.
        row: u32,
    },
    /// An IOB write addresses a pin the package doesn't have.
    BadPin(u32),
    /// The port in use cannot perform partial writes.
    PartialUnsupported,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::CrcMismatch => write!(f, "bitstream CRC mismatch"),
            DeviceError::OutOfRange { col, row } => {
                write!(f, "frame write outside device at ({col},{row})")
            }
            DeviceError::BadPin(p) => write!(f, "no such pin {p}"),
            DeviceError::PartialUnsupported => {
                write!(f, "configuration port cannot do partial writes")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// Live device state: configuration RAM + flip-flop contents.
#[derive(Debug, Clone)]
pub struct Device {
    spec: DeviceSpec,
    port: ConfigPort,
    cells: Vec<Option<ClbCell>>,
    iobs: Vec<IobConfig>,
    /// Flip-flop value per CLB, 64 simulation lanes wide.
    ff: Vec<u64>,
    /// Count of configuration downloads performed (diagnostics).
    downloads: u64,
}

impl Device {
    /// A blank (unconfigured) device.
    pub fn new(spec: DeviceSpec, port: ConfigPort) -> Self {
        Device {
            spec,
            port,
            cells: vec![None; spec.clbs() as usize],
            iobs: vec![IobConfig::Unused; spec.io_pins as usize],
            ff: vec![0; spec.clbs() as usize],
            downloads: 0,
        }
    }

    /// The part geometry.
    pub fn spec(&self) -> DeviceSpec {
        self.spec
    }

    /// The configured port.
    pub fn port(&self) -> ConfigPort {
        self.port
    }

    /// The timing calculator for this device+port.
    pub fn timing(&self) -> ConfigTiming {
        ConfigTiming {
            spec: self.spec,
            port: self.port,
        }
    }

    #[inline]
    fn idx(&self, col: u32, row: u32) -> usize {
        (row * self.spec.cols + col) as usize
    }

    /// Cell configuration at `(col, row)`.
    pub fn cell(&self, col: u32, row: u32) -> Option<ClbCell> {
        self.cells[self.idx(col, row)]
    }

    /// IOB configuration of `pin`.
    pub fn iob(&self, pin: u32) -> IobConfig {
        self.iobs[pin as usize]
    }

    /// Number of configured (non-empty) CLBs.
    pub fn used_clbs(&self) -> usize {
        self.cells.iter().filter(|c| c.is_some()).count()
    }

    /// Total downloads applied so far.
    pub fn download_count(&self) -> u64 {
        self.downloads
    }

    /// Digest ([`fsim::hash::Digest`]) of the complete device state —
    /// configuration RAM, IOBs, and flip-flop contents (the download
    /// counter is excluded: it counts operations, not state). Two devices
    /// with equal digests hold byte-identical fabric state; the
    /// delta-reconfiguration equivalence tests compare this against a
    /// fresh full download.
    pub fn state_digest(&self) -> u64 {
        let mut h = Digest::new();
        for c in &self.cells {
            hash_cell(&mut h, c);
        }
        for &iob in &self.iobs {
            h.word(iob_code(iob));
        }
        for &w in &self.ff {
            h.word(w);
        }
        h.finish()
    }

    /// Validate a bitstream against this device without mutating anything
    /// (the shared front half of [`Device::apply`] and
    /// [`Device::apply_torn`]).
    fn validate(&self, bs: &Bitstream) -> Result<(), DeviceError> {
        if !bs.crc_ok() {
            return Err(DeviceError::CrcMismatch);
        }
        if !bs.full && !self.port.supports_partial() {
            return Err(DeviceError::PartialUnsupported);
        }
        for f in &bs.frames {
            if f.col >= self.spec.cols {
                return Err(DeviceError::OutOfRange { col: f.col, row: 0 });
            }
            let end_row = f.row0 as usize + f.cells.len();
            if end_row > self.spec.rows as usize {
                return Err(DeviceError::OutOfRange {
                    col: f.col,
                    row: end_row as u32 - 1,
                });
            }
        }
        for &(pin, _) in &bs.iobs {
            if pin >= self.spec.io_pins {
                return Err(DeviceError::BadPin(pin));
            }
        }
        Ok(())
    }

    /// Validate and apply a bitstream, returning the download time.
    ///
    /// A rejected stream (bad CRC, out-of-range write, unsupported partial)
    /// leaves the device untouched.
    pub fn apply(&mut self, bs: &Bitstream) -> Result<SimDuration, DeviceError> {
        self.validate(bs)?;

        if bs.full {
            // A full download wipes the device first.
            self.cells.fill(None);
            self.iobs.fill(IobConfig::Unused);
            self.ff.fill(0);
        }
        for f in &bs.frames {
            for (k, cell) in f.cells.iter().enumerate() {
                let row = f.row0 + k as u32;
                let i = self.idx(f.col, row);
                self.cells[i] = *cell;
                // (Re)configuring a CLB initializes its flip-flop.
                self.ff[i] = match cell {
                    Some(c) if c.has_ff && c.ff_init => u64::MAX,
                    _ => 0,
                };
            }
        }
        for &(pin, cfg) in &bs.iobs {
            self.iobs[pin as usize] = cfg;
        }
        self.downloads += 1;
        Ok(self.timing().download_time(bs))
    }

    /// Apply only the first `frames_applied` frames of a bitstream — what
    /// a host crash mid-download leaves behind. The stream itself is
    /// valid (it was cut short, not corrupted), so validation is the same
    /// as [`Device::apply`]; but no IOB writes land (they follow the
    /// frames in the stream), the download counter does not advance (the
    /// download never completed), and a torn *full* stream leaves the
    /// device wiped with only a prefix written — the worst case the
    /// journal's undo path must handle.
    pub fn apply_torn(&mut self, bs: &Bitstream, frames_applied: usize) -> Result<(), DeviceError> {
        self.validate(bs)?;
        let n = frames_applied.min(bs.frames.len());
        if bs.full {
            self.cells.fill(None);
            self.iobs.fill(IobConfig::Unused);
            self.ff.fill(0);
        }
        for f in &bs.frames[..n] {
            for (k, cell) in f.cells.iter().enumerate() {
                let row = f.row0 + k as u32;
                let i = self.idx(f.col, row);
                self.cells[i] = *cell;
                self.ff[i] = match cell {
                    Some(c) if c.has_ff && c.ff_init => u64::MAX,
                    _ => 0,
                };
            }
        }
        Ok(())
    }

    /// Raw cell write for the journal's undo path (pre-image restore).
    pub(crate) fn set_cell(&mut self, col: u32, row: u32, cell: Option<ClbCell>) {
        let i = self.idx(col, row);
        self.cells[i] = cell;
    }

    /// Raw IOB write for the journal's undo path.
    pub(crate) fn set_iob(&mut self, pin: u32, cfg: IobConfig) {
        self.iobs[pin as usize] = cfg;
    }

    /// Clear a region's CLBs (used when a partition is released), and
    /// unbind any output IOB driven from inside the region. This is
    /// bookkeeping, not a device operation: the OS simply forgets the
    /// contents; no download time is charged.
    pub fn clear_region(&mut self, r: &Rect) {
        assert!(
            self.spec.full_rect().contains_rect(r),
            "region outside device"
        );
        for (c, row) in r.cells() {
            let i = self.idx(c, row);
            self.cells[i] = None;
            self.ff[i] = 0;
        }
        for iob in &mut self.iobs {
            if let IobConfig::Output(c, row) = *iob {
                if r.contains(c, row) {
                    *iob = IobConfig::Unused;
                }
            }
        }
    }

    /// **Readback**: snapshot flip-flop words of every CLB in the region
    /// (row-major order), with the time the readback occupies the port.
    pub fn readback_region(&self, r: &Rect) -> (Vec<u64>, SimDuration) {
        assert!(
            self.spec.full_rect().contains_rect(r),
            "region outside device"
        );
        let state = r
            .cells()
            .map(|(c, row)| self.ff[self.idx(c, row)])
            .collect();
        let t = self.timing().readback_time(r.w as usize);
        (state, t)
    }

    /// **State write**: restore flip-flop words captured by
    /// [`Device::readback_region`] over the same region shape.
    pub fn write_state_region(&mut self, r: &Rect, state: &[u64]) -> SimDuration {
        assert!(
            self.spec.full_rect().contains_rect(r),
            "region outside device"
        );
        assert_eq!(state.len(), r.area() as usize, "state length mismatch");
        for ((c, row), &v) in r.cells().zip(state) {
            let i = self.idx(c, row);
            self.ff[i] = v;
        }
        self.timing().frame_transfer(r.w as usize).1
    }

    /// Raw flip-flop word access for the fabric executor.
    pub(crate) fn ff_word(&self, col: u32, row: u32) -> u64 {
        self.ff[self.idx(col, row)]
    }

    /// Raw flip-flop word write for the fabric executor.
    pub(crate) fn set_ff_word(&mut self, col: u32, row: u32, v: u64) {
        let i = self.idx(col, row);
        self.ff[i] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::{ClbSource, FrameWrite};

    fn xor_stream(spec: &DeviceSpec) -> Bitstream {
        let cell = ClbCell::comb(
            0b0110,
            [
                ClbSource::Pin(0),
                ClbSource::Pin(1),
                ClbSource::None,
                ClbSource::None,
            ],
        );
        Bitstream::new(
            "xor",
            vec![FrameWrite {
                col: 0,
                row0: 0,
                cells: vec![Some(cell); spec.rows as usize],
            }],
            vec![
                (0, IobConfig::Input),
                (1, IobConfig::Input),
                (2, IobConfig::Output(0, 0)),
            ],
            false,
        )
    }

    #[test]
    fn apply_partial_configures_cells() {
        let spec = part("VF100");
        let mut d = Device::new(spec, ConfigPort::SerialFast);
        assert_eq!(d.used_clbs(), 0);
        let t = d.apply(&xor_stream(&spec)).unwrap();
        assert!(t.as_nanos() > 0);
        assert_eq!(d.used_clbs(), spec.rows as usize);
        assert!(d.cell(0, 0).is_some());
        assert_eq!(d.iob(2), IobConfig::Output(0, 0));
        assert_eq!(d.download_count(), 1);
    }

    #[test]
    fn corrupted_stream_rejected_untouched() {
        let spec = part("VF100");
        let mut d = Device::new(spec, ConfigPort::SerialFast);
        let bad = xor_stream(&spec).corrupted();
        assert_eq!(d.apply(&bad), Err(DeviceError::CrcMismatch));
        assert_eq!(d.used_clbs(), 0);
        assert_eq!(d.download_count(), 0);
    }

    #[test]
    fn slow_serial_port_rejects_partial() {
        let spec = part("VF100");
        let mut d = Device::new(spec, ConfigPort::SerialSlow);
        assert_eq!(
            d.apply(&xor_stream(&spec)),
            Err(DeviceError::PartialUnsupported)
        );
        let mut full = xor_stream(&spec);
        full.full = true;
        let full = Bitstream::new(full.label, full.frames, full.iobs, true);
        assert!(d.apply(&full).is_ok());
    }

    #[test]
    fn out_of_range_frame_rejected() {
        let spec = part("VF100");
        let mut d = Device::new(spec, ConfigPort::SerialFast);
        let cell = ClbCell::comb(0, [ClbSource::None; 4]);
        let bs = Bitstream::new(
            "oob",
            vec![FrameWrite {
                col: spec.cols,
                row0: 0,
                cells: vec![Some(cell)],
            }],
            vec![],
            false,
        );
        assert!(matches!(d.apply(&bs), Err(DeviceError::OutOfRange { .. })));

        let tall = Bitstream::new(
            "tall",
            vec![FrameWrite {
                col: 0,
                row0: spec.rows - 1,
                cells: vec![Some(cell); 2],
            }],
            vec![],
            false,
        );
        assert!(matches!(
            d.apply(&tall),
            Err(DeviceError::OutOfRange { .. })
        ));
    }

    #[test]
    fn bad_pin_rejected() {
        let spec = part("VF100");
        let mut d = Device::new(spec, ConfigPort::SerialFast);
        let bs = Bitstream::new("p", vec![], vec![(spec.io_pins, IobConfig::Input)], false);
        assert_eq!(d.apply(&bs), Err(DeviceError::BadPin(spec.io_pins)));
    }

    /// Every rejection path must leave the device byte-identical: cells,
    /// flip-flops, IOBs, and the download counter. A full-stream rejection
    /// is the sharpest case — validation must come before the wipe.
    #[test]
    fn apply_is_side_effect_free_on_every_error_path() {
        let spec = part("VF100");
        let mut d = Device::new(spec, ConfigPort::SerialFast);
        d.apply(&xor_stream(&spec)).unwrap();
        // Distinctive flip-flop state so a stray wipe shows up.
        d.set_ff_word(0, 0, 0xDEAD_BEEF);
        d.set_ff_word(0, 3, 0x1234_5678);
        let before = format!("{d:?}");

        let cell = ClbCell::comb(0, [ClbSource::None; 4]);
        let corrupt = xor_stream(&spec).corrupted();
        let oob_col = Bitstream::new(
            "oob-col",
            vec![FrameWrite {
                col: spec.cols,
                row0: 0,
                cells: vec![Some(cell)],
            }],
            vec![],
            false,
        );
        let oob_row = Bitstream::new(
            "oob-row",
            vec![FrameWrite {
                col: 0,
                row0: spec.rows - 1,
                cells: vec![Some(cell); 2],
            }],
            vec![],
            false,
        );
        let bad_pin = Bitstream::new("pin", vec![], vec![(spec.io_pins, IobConfig::Input)], false);
        // A *full* stream with an invalid frame: rejection must precede
        // the wipe a full download normally performs.
        let full_oob = Bitstream::new(
            "full-oob",
            vec![FrameWrite {
                col: spec.cols,
                row0: 0,
                cells: vec![Some(cell)],
            }],
            vec![],
            true,
        );
        for (bs, err) in [
            (&corrupt, DeviceError::CrcMismatch),
            (
                &oob_col,
                DeviceError::OutOfRange {
                    col: spec.cols,
                    row: 0,
                },
            ),
            (
                &oob_row,
                DeviceError::OutOfRange {
                    col: 0,
                    row: spec.rows,
                },
            ),
            (&bad_pin, DeviceError::BadPin(spec.io_pins)),
            (
                &full_oob,
                DeviceError::OutOfRange {
                    col: spec.cols,
                    row: 0,
                },
            ),
        ] {
            assert_eq!(d.apply(bs), Err(err));
            assert_eq!(
                format!("{d:?}"),
                before,
                "rejected {:?} mutated state",
                bs.label
            );
        }

        // PartialUnsupported on a slow-port device configured via a full
        // download.
        let mut slow = Device::new(spec, ConfigPort::SerialSlow);
        let f = xor_stream(&spec);
        let full = Bitstream::new(f.label, f.frames, f.iobs, true);
        slow.apply(&full).unwrap();
        slow.set_ff_word(0, 1, 0xCAFE);
        let before_slow = format!("{slow:?}");
        assert_eq!(
            slow.apply(&xor_stream(&spec)),
            Err(DeviceError::PartialUnsupported)
        );
        assert_eq!(format!("{slow:?}"), before_slow);
        assert_eq!(slow.download_count(), 1);
    }

    #[test]
    fn full_download_wipes_previous_contents() {
        let spec = part("VF100");
        let mut d = Device::new(spec, ConfigPort::SerialFast);
        d.apply(&xor_stream(&spec)).unwrap();
        let empty_full = Bitstream::new("wipe", vec![], vec![], true);
        d.apply(&empty_full).unwrap();
        assert_eq!(d.used_clbs(), 0);
        assert_eq!(d.iob(2), IobConfig::Unused);
    }

    #[test]
    fn readback_roundtrip() {
        let spec = part("VF100");
        let mut d = Device::new(spec, ConfigPort::SerialFast);
        let r = Rect::new(2, 3, 3, 2);
        // Manually poke FF state (stands in for circuit activity).
        d.set_ff_word(2, 3, 0xAB);
        d.set_ff_word(4, 4, 0xCD);
        let (state, t) = d.readback_region(&r);
        assert!(t.as_nanos() > 0);
        assert_eq!(state.len(), 6);
        assert_eq!(state[0], 0xAB);
        assert_eq!(state[5], 0xCD);

        d.set_ff_word(2, 3, 0);
        d.set_ff_word(4, 4, 0);
        d.write_state_region(&r, &state);
        assert_eq!(d.ff_word(2, 3), 0xAB);
        assert_eq!(d.ff_word(4, 4), 0xCD);
    }

    #[test]
    fn clear_region_wipes_cells_state_and_driven_iobs() {
        let spec = part("VF100");
        let mut d = Device::new(spec, ConfigPort::SerialFast);
        d.apply(&xor_stream(&spec)).unwrap();
        d.set_ff_word(0, 0, 7);
        assert_eq!(d.iob(2), IobConfig::Output(0, 0));
        d.clear_region(&Rect::new(0, 0, 1, spec.rows));
        assert_eq!(d.used_clbs(), 0);
        assert_eq!(d.ff_word(0, 0), 0);
        assert_eq!(d.iob(2), IobConfig::Unused, "output IOB must unbind");
        assert_eq!(d.iob(0), IobConfig::Input, "input IOBs are untouched");
    }

    #[test]
    fn reconfiguring_a_clb_resets_its_ff_to_init() {
        let spec = part("VF100");
        let mut d = Device::new(spec, ConfigPort::SerialFast);
        let cell = ClbCell::registered(
            0b01,
            [
                ClbSource::Pin(0),
                ClbSource::None,
                ClbSource::None,
                ClbSource::None,
            ],
            true,
        );
        let bs = Bitstream::new(
            "r",
            vec![FrameWrite {
                col: 1,
                row0: 1,
                cells: vec![Some(cell)],
            }],
            vec![(0, IobConfig::Input)],
            false,
        );
        d.apply(&bs).unwrap();
        assert_eq!(d.ff_word(1, 1), u64::MAX, "init=1 must preset the FF");
    }

    /// The delta contract at the device level: apply(old) then
    /// apply(diff(old, new)) must leave fabric state byte-identical to a
    /// fresh device after apply(new) — including cleared columns, unbound
    /// IOBs, and flip-flop init values.
    #[test]
    fn applying_delta_matches_full_download() {
        let spec = part("VF100");
        let cell = |lut: u16| {
            ClbCell::registered(
                lut,
                [
                    ClbSource::Pin(0),
                    ClbSource::None,
                    ClbSource::None,
                    ClbSource::None,
                ],
                lut & 1 == 1,
            )
        };
        let col = |c: u32, lut: u16| FrameWrite {
            col: c,
            row0: 0,
            cells: vec![Some(cell(lut)); spec.rows as usize],
        };
        let old = Bitstream::new(
            "old",
            vec![col(0, 3), col(1, 5), col(4, 7)],
            vec![(0, IobConfig::Input), (3, IobConfig::Output(0, 0))],
            false,
        );
        let new = Bitstream::new(
            "new",
            vec![col(0, 3), col(1, 6), col(2, 8)],
            vec![(0, IobConfig::Input), (5, IobConfig::Output(2, 0))],
            false,
        );
        let delta = Bitstream::diff(&old, &new);
        assert!(delta.changed_frames < new.frame_count() + 1);

        let mut via_delta = Device::new(spec, ConfigPort::SerialFast);
        via_delta.apply(&old).unwrap();
        via_delta.apply(&delta.stream).unwrap();
        let mut via_full = Device::new(spec, ConfigPort::SerialFast);
        via_full.apply(&new).unwrap();
        assert_eq!(via_delta.state_digest(), via_full.state_digest());
        // And the digest actually discriminates.
        let mut other = Device::new(spec, ConfigPort::SerialFast);
        other.apply(&old).unwrap();
        assert_ne!(other.state_digest(), via_full.state_digest());
    }

    /// The device digest and the stream checksum as they were first
    /// written: one byte at a time, eight bytes a word. `fsim::hash`'s word
    /// fast paths must reproduce them bit for bit.
    struct Serial(u64);

    impl Serial {
        fn eat(&mut self, w: u64) {
            for i in 0..8 {
                self.0 ^= (w >> (i * 8)) & 0xFF;
                self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
            }
        }

        fn cell(&mut self, c: &Option<ClbCell>) {
            match c {
                None => self.eat(u64::MAX),
                Some(cell) => {
                    self.eat(cell.lut_table as u64);
                    for s in cell.inputs {
                        self.eat(crate::bitstream::source_code(s));
                    }
                    self.eat(
                        cell.has_ff as u64
                            | ((cell.ff_init as u64) << 1)
                            | ((cell.out_from_ff as u64) << 2),
                    );
                }
            }
        }

        fn iob(&mut self, cfg: IobConfig) {
            self.eat(match cfg {
                IobConfig::Input => 1,
                IobConfig::Output(c, r) => 2 | ((c as u64) << 8) | ((r as u64) << 40),
                IobConfig::Unused => 0,
            });
        }

        fn device(d: &Device) -> u64 {
            let mut h = Serial(0xcbf2_9ce4_8422_2325);
            d.cells.iter().for_each(|c| h.cell(c));
            d.iobs.iter().for_each(|&iob| h.iob(iob));
            d.ff.iter().for_each(|&w| h.eat(w));
            h.0
        }

        fn stream(bs: &Bitstream) -> u64 {
            let mut h = Serial(0xcbf2_9ce4_8422_2325);
            h.eat(bs.full as u64);
            for f in &bs.frames {
                h.eat(f.col as u64);
                h.eat(f.row0 as u64);
                h.eat(f.cells.len() as u64);
                f.cells.iter().for_each(|c| h.cell(c));
            }
            for &(pin, cfg) in &bs.iobs {
                h.eat(pin as u64);
                h.iob(cfg);
            }
            h.0
        }
    }

    #[test]
    fn digest_and_crc_equal_the_byte_serial_fold() {
        let spec = part("VF400");
        let mut rng = fsim::SimRng::new(38);
        let src = |rng: &mut fsim::SimRng| match rng.below(4) {
            0 => ClbSource::None,
            1 => ClbSource::Clb(rng.below(20) as u32, rng.below(20) as u32),
            2 => ClbSource::Pin(rng.below(128) as u32),
            _ => ClbSource::Const(rng.chance(0.5)),
        };
        let full = Bitstream::new(
            "full",
            (0..spec.cols)
                .map(|col| FrameWrite {
                    col,
                    row0: 0,
                    cells: (0..spec.rows)
                        .map(|_| {
                            let inputs = [(); 4].map(|_| src(&mut rng));
                            let lut = rng.below(1 << 16) as u16;
                            match rng.below(3) {
                                0 => None,
                                1 => Some(ClbCell::comb(lut, inputs)),
                                _ => Some(ClbCell::registered(lut, inputs, rng.chance(0.5))),
                            }
                        })
                        .collect(),
                })
                .collect(),
            (0..spec.io_pins)
                .map(|pin| {
                    let cfg = match pin % 3 {
                        0 => IobConfig::Input,
                        1 => IobConfig::Output(pin % spec.cols, pin % spec.rows),
                        _ => IobConfig::Unused,
                    };
                    (pin, cfg)
                })
                .collect(),
            true,
        );
        let one = xor_stream(&spec);
        for bs in [&full, &one] {
            assert_eq!(bs.compute_crc(), Serial::stream(bs), "{}", bs.label);
        }

        let empty = Device::new(spec, ConfigPort::SerialFast);
        let mut applied = empty.clone();
        applied.apply(&one).unwrap();
        let mut loaded = empty.clone();
        loaded.apply(&full).unwrap();
        let mut written = loaded.clone();
        let region = Rect::new(3, 2, 9, 11);
        let state: Vec<u64> = (0..region.area())
            .map(|i| match i % 3 {
                0 => rng.next_u64(),
                1 => u64::MAX,
                _ => rng.next_u64() >> rng.below(64),
            })
            .collect();
        written.write_state_region(&region, &state);
        let devices = [&empty, &applied, &loaded, &written];
        for (i, d) in devices.iter().enumerate() {
            assert_eq!(d.state_digest(), Serial::device(d), "device {i}");
        }
        let mut digests: Vec<u64> = devices.iter().map(|d| d.state_digest()).collect();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), 4, "the four states hash apart");
    }

    #[test]
    fn catalog_is_ordered_and_unique() {
        for w in PARTS.windows(2) {
            assert!(w[0].clbs() < w[1].clbs());
            assert!(w[0].io_pins <= w[1].io_pins);
            assert_ne!(w[0].name, w[1].name);
        }
        assert_eq!(part("VF400").cols, 20);
    }
}
