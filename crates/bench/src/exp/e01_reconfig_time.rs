//! E1 — Reconfiguration time across the device family (paper §2).
//!
//! Claim operationalized: "in the Xilinx X4000 FPGAs, the configuration
//! can be downloaded only serially and completely in no more than 200 ms.
//! … In some Xilinx FPGAs families, the connectivity is partially
//! reconfigurable. In these cases, frequent reprogramming of the FPGA is
//! feasible."
//!
//! Rows: every part × port; full configuration time, partial
//! reconfiguration of 10/25/50% of frames, and state readback of 25% of
//! frames.

use super::grid::{self, fixed, Grid};
use super::RunArgs;
use crate::report::ms;
use crate::Exporter;
use fpga::{ConfigPort, ConfigTiming, DeviceSpec, PARTS};
use fsim::{SimTime, Timeline};

const PORTS: [(&str, ConfigPort); 3] = [
    ("serial-slow", ConfigPort::SerialSlow),
    ("serial-fast", ConfigPort::SerialFast),
    ("parallel-8", ConfigPort::Parallel8),
];

/// `pct` of the device's columns, at least one frame.
fn frames(t: &ConfigTiming, pct: f64) -> usize {
    ((t.spec.cols as f64 * pct).round() as usize).max(1)
}

/// Downloading `pct` of the frames, where the port can do partial.
fn partial(t: &ConfigTiming, pct: f64) -> String {
    if !t.port.supports_partial() {
        return "n/a (full only)".into();
    }
    let cell = fpga::ClbCell::comb(0, [fpga::ClbSource::None; 4]);
    let fw: Vec<fpga::FrameWrite> = (0..frames(t, pct) as u32)
        .map(|c| fpga::FrameWrite {
            col: c,
            row0: 0,
            cells: vec![Some(cell); t.spec.rows as usize],
        })
        .collect();
    let bs = fpga::Bitstream::new("p", fw, vec![], false);
    ms(t.download_time(&bs).as_millis_f64())
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF800");
    let anchor = ConfigTiming {
        spec,
        port: ConfigPort::SerialSlow,
    };
    let grid = Grid {
        code: "e01",
        title: "configuration & readback time by device and port",
        params: vec![("parts", PARTS.len().into()), ("ports", 3usize.into())],
        points: vec![grid::product(
            (PARTS[0], PORTS[0]),
            vec![fixed(PARTS, |p, v| p.0 = v), fixed(&PORTS, |p, v| p.1 = v)],
        )],
        cell: &|&(spec, (_, port)): &(DeviceSpec, _)| Ok(ConfigTiming { spec, port }),
        table: "E1: configuration & readback time by device and port",
        columns: &[
            ("part", |c| c.out.spec.name.into()),
            ("clbs", |c| {
                format!("{}x{}", c.out.spec.cols, c.out.spec.rows)
            }),
            ("pins", |c| c.out.spec.io_pins.to_string()),
            ("port", |c| c.point.1 .0.into()),
            ("full", |c| ms(c.out.full_config_time().as_millis_f64())),
            ("partial 10%", |c| partial(&c.out, 0.10)),
            ("partial 25%", |c| partial(&c.out, 0.25)),
            ("partial 50%", |c| partial(&c.out, 0.50)),
            ("readback 25%", |c| {
                ms(c.out.readback_time(frames(&c.out, 0.25)).as_millis_f64())
            }),
        ],
        // No simulation here: export a synthetic timeline of cumulative
        // serial-slow full-configuration time as the catalog grows, so the
        // document still demonstrates the timeline schema.
        finish: |_, ex| {
            let mut growth = Timeline::new();
            let mut at = SimTime::ZERO;
            growth.sample(at, 0.0);
            for (i, spec) in PARTS.iter().enumerate() {
                at += ConfigTiming {
                    spec: *spec,
                    port: ConfigPort::SerialSlow,
                }
                .full_config_time();
                growth.sample(at, (i + 1) as f64);
                ex.metrics().inc("parts_timed", 1);
            }
            ex.timeline("parts_configured_vs_cumulative_full_config", &growth);
        },
        outro: &format!(
            "\nAnchor check: VF800 full serial-slow = {} (paper: \"no more than 200 ms\")\n",
            ms(anchor.full_config_time().as_millis_f64())
        ),
        ..Grid::default()
    };
    grid::run(args, grid)
}
