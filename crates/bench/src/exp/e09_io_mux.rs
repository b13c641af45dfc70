//! E9 — Input/output multiplexing (paper §2).
//!
//! Claim operationalized: "input and output multiplexing is used … to
//! increase the number of inputs and outputs when there are not enough
//! physically available."
//!
//! Part 1 sweeps the virtual/physical pin ratio: time-division frames,
//! throughput degradation, and the CLB cost of the mux/demux service
//! logic. Part 2 runs the pin-assignment table: how many concurrent
//! circuits a package can host before binding fails.

use super::RunArgs;
use crate::report::{f3, pct, Table};
use crate::setup::compile_suite_lib;
use crate::Exporter;
use fsim::{SimDuration, SimTime, Timeline};
use vfpga::iomux::{mux_plan, transfer_time, PinTable};
use workload::Domain;

pub fn run(_: &RunArgs) -> Result<Exporter, String> {
    let mut ex = Exporter::new("e09", "input/output multiplexing and pin-table packing");
    ex.seed(0).param("physical_pins", 64u64);
    // Part 1: widening, one row a ratio.
    let mut t = Table::new(
        "E9a: time-division multiplexing of virtual pins (64 physical pins)",
        &[
            "virtual pins",
            "frames",
            "throughput",
            "service CLBs",
            "10k transfers @10ns clk",
        ],
    );
    for v in [32u32, 64, 96, 128, 192, 256, 512] {
        let plan = mux_plan(v, 64).expect("nonzero pins");
        t.row(vec![
            v.to_string(),
            plan.frames.to_string(),
            pct(plan.throughput_factor()),
            plan.service_clbs.to_string(),
            f3(transfer_time(&plan, 10_000, 10.0).as_millis_f64()) + " ms",
        ]);
    }
    t.print();
    ex.table(&t);

    // Part 2: pin assignment across concurrent circuits. The table is a
    // single shared stateful resource — each bind depends on the previous
    // one.
    let spec = fpga::device::part("VF400"); // 128 pins
    let (lib, ids) = compile_suite_lib(
        &[Domain::Telecom, Domain::Storage, Domain::Networking],
        spec,
    );
    let mut t2 = Table::new(
        format!(
            "E9b: pin-table packing on {} ({} pins)",
            spec.name, spec.io_pins
        ),
        &["circuit", "io pins", "bound?", "free pins after"],
    );
    let mut table = PinTable::new(spec.io_pins);
    table.set_recording(true);
    // No simulated clock here: the timeline's axis is the bind sequence
    // number, one nanosecond per attempt.
    let mut free_tl = Timeline::new();
    free_tl.sample(SimTime::ZERO, f64::from(table.free_pins()));
    for (k, &cid) in ids.iter().enumerate() {
        let io = lib.get(cid).io_count() as u32;
        let ok = table.bind(k as u32, io).is_some();
        ex.metrics()
            .inc(if ok { "binds_ok" } else { "binds_exhausted" }, 1);
        free_tl.sample(
            SimTime::ZERO + SimDuration::from_nanos(k as u64 + 1),
            f64::from(table.free_pins()),
        );
        t2.row(vec![
            lib.get(cid).name().into(),
            io.to_string(),
            if ok { "yes" } else { "NO (exhausted)" }.into(),
            table.free_pins().to_string(),
        ]);
    }
    ex.metrics()
        .inc("iomux_grants", table.drain_events().len() as u64);
    ex.timeline("free_pins_by_bind_attempt", &free_tl);
    t2.print();
    ex.table(&t2);
    Ok(ex)
}
