//! Microbenchmarks for the substrate hot paths: LUT mapping, placement,
//! routing, netlist simulation, and the event queue. Run with
//! `cargo bench --bench substrate` (hand-rolled harness, no Criterion).

use bench::microbench::Suite;
use fsim::{EventQueue, SimDuration, SimRng, SimTime};
use netlist::{map_to_luts, MapOptions};
use pnr::route::RoutingFabric;
use pnr::{compile, CompileOptions};

fn main() {
    let mut suite = Suite::new("substrate microbenchmarks");

    for w in [4usize, 6, 8] {
        let net = netlist::library::arith::array_multiplier(&format!("m{w}"), w);
        suite.case(&format!("map_mult_{w}x{w}"), 30, || {
            map_to_luts(&net, MapOptions::default())
        });
    }

    let net = netlist::library::arith::array_multiplier("m6", 6);
    suite.case("compile_mult_6x6", 10, || {
        compile(&net, CompileOptions::default()).unwrap()
    });

    let compiled = compile(&net, CompileOptions::default()).unwrap();
    suite.case("route_mult_6x6", 20, || {
        let mut f = RoutingFabric::new(32, 32, 12);
        f.route_circuit(&compiled.placed, (0, 0)).unwrap()
    });

    let fir = netlist::library::dsp::fir("fir", 8, &[1, 3, 5, 3, 1]);
    let inputs = vec![0xDEAD_BEEF_u64; fir.num_inputs()];
    let mut sim = netlist::Simulator::new(&fir);
    suite.case("fir_step_64lanes", 200, || sim.step(&inputs));

    let mut rng = SimRng::new(1);
    suite.case("eventq_schedule_pop_1k", 100, || {
        let mut q = EventQueue::new();
        for _ in 0..1000 {
            q.schedule_at(SimTime(rng.below(1_000_000)), 0u32);
        }
        let mut popped = 0u32;
        while q.pop().is_some() {
            popped += 1;
        }
        popped
    });

    // The simulator's shape: 100k arrivals loaded in firing order, each
    // one arming a short timer when it pops, so one or two dynamically
    // scheduled events are in flight among the pending arrivals.
    suite.case("eventq_sorted_preload_hold_100k", 10, || {
        let mut q = EventQueue::with_capacity(100_000);
        for i in 0..100_000u64 {
            q.schedule_at(SimTime(i * 100), 0u32);
        }
        let mut popped = 0u32;
        while let Some(ev) = q.pop() {
            popped += 1;
            if ev.event == 0 {
                q.schedule_in(SimDuration::from_nanos(150), 1u32);
            }
        }
        popped
    });

    suite.print();
}
