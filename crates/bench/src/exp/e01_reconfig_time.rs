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

use super::RunArgs;
use crate::report::{ms, Table};
use crate::{Exporter, HostProfile};
use fpga::{ConfigPort, ConfigTiming, PARTS};
use fsim::{SimTime, Timeline};

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let mut host = HostProfile::new(args.threads);
    let mut ex = Exporter::new("e01", "configuration & readback time by device and port");
    ex.seed(0)
        .param("parts", PARTS.len())
        .param("ports", 3usize);
    let ports = [
        ("serial-slow", ConfigPort::SerialSlow),
        ("serial-fast", ConfigPort::SerialFast),
        ("parallel-8", ConfigPort::Parallel8),
    ];
    let mut t = Table::new(
        "E1: configuration & readback time by device and port",
        &[
            "part",
            "clbs",
            "pins",
            "port",
            "full",
            "partial 10%",
            "partial 25%",
            "partial 50%",
            "readback 25%",
        ],
    );
    // No simulation here: export a synthetic timeline of cumulative
    // serial-slow full-configuration time as the catalog grows, so the
    // document still demonstrates the timeline schema.
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

    // Sweep: one point per (part, port) row.
    let points: Vec<(&fpga::DeviceSpec, &str, ConfigPort)> = PARTS
        .iter()
        .flat_map(|spec| ports.iter().map(move |&(pname, port)| (spec, pname, port)))
        .collect();
    let rows = host.sweep(&points, |_, &(spec, pname, port)| {
        let timing = ConfigTiming { spec: *spec, port };
        let frames = |pct: f64| ((spec.cols as f64 * pct).round() as usize).max(1);
        let partial = |pct: f64| {
            if port.supports_partial() {
                let cell = fpga::ClbCell::comb(0, [fpga::ClbSource::None; 4]);
                let fw: Vec<fpga::FrameWrite> = (0..frames(pct) as u32)
                    .map(|c| fpga::FrameWrite {
                        col: c,
                        row0: 0,
                        cells: vec![Some(cell); spec.rows as usize],
                    })
                    .collect();
                let bs = fpga::Bitstream::new("p", fw, vec![], false);
                ms(timing.download_time(&bs).as_millis_f64())
            } else {
                "n/a (full only)".into()
            }
        };
        vec![
            spec.name.into(),
            format!("{}x{}", spec.cols, spec.rows),
            spec.io_pins.to_string(),
            pname.into(),
            ms(timing.full_config_time().as_millis_f64()),
            partial(0.10),
            partial(0.25),
            partial(0.50),
            ms(timing.readback_time(frames(0.25)).as_millis_f64()),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.print();
    ex.table(&t);
    ex.host(host, points.len());

    println!(
        "\nAnchor check: VF800 full serial-slow = {} (paper: \"no more than 200 ms\")",
        ms(ConfigTiming {
            spec: fpga::device::part("VF800"),
            port: ConfigPort::SerialSlow
        }
        .full_config_time()
        .as_millis_f64())
    );
    Ok(ex)
}
