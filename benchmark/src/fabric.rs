//! `fabric`: the gate-to-device pipeline with no operating-system layer.
//!
//! 24 library netlists (eight kinds at three widths) each go through cold
//! `pnr::compile`, routing, `emit_bitstream`, `Device::apply`,
//! `FabricView::resolve`/`eval` against `netlist::Simulator` on 64 vectors,
//! `readback_region`, and `Bitstream::diff` against a `mutate_tables`
//! variant. netlist, pnr and fpga do all the work and vfpga none, so this is
//! the control for every OS-layer change, the home of mapper, placer and
//! bitstream work, and the accuracy check of the fabric model against the
//! gate-level one.

use crate::sim::{Outcome, SimValues};
use crate::stats::{median, percentile_sorted, Digest};
use crate::timed::Wrap;
use crate::trace::Tracer;
use crate::workloads::{Bench, Layer, Rep, RepClock, Sizes};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use vfpga_repro::fpga::{self, Bitstream, ConfigPort, Device, DeviceSpec, FabricView, Journal};
use vfpga_repro::fsim::{SimDuration, SimRng};
use vfpga_repro::netlist::library::{alu, arith, codes, ext, logic, seq};
use vfpga_repro::netlist::{map_to_luts, Netlist, Simulator};
use vfpga_repro::pnr::{
    self, emit_bitstream, mutate_tables, CompileOptions, CompiledCircuit, PinAssignment,
    RoutingFabric,
};
use vfpga_repro::vfpga::Report;

/// Cycles a circuit is modelled to run once configured: drawn per item from
/// the simulated workloads' burst range, so `sim_overhead_frac` here weighs
/// reconfiguration against the same FPGA bursts.
const RUN_CYCLES: (u64, u64) = (60_000, 250_000);

/// Clock cycles a sequential circuit is stepped against the golden model.
const SEQ_STEPS: usize = 8;

pub struct Fabric {
    spec: DeviceSpec,
    nets: Vec<Netlist>,
    opts: CompileOptions,
    seed: u64,
    rounds: usize,
    /// Scratch directory for the disk-cache probe.
    scratch: PathBuf,
}

fn netlists() -> Vec<Netlist> {
    let mut nets = Vec::new();
    for w in [4, 6, 8] {
        nets.push(alu::alu(&format!("alu{w}"), w));
        nets.push(arith::array_multiplier(&format!("mul{w}"), w));
        // Booth multipliers wider than 5 bits congest the routing channels.
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

/// One circuit's trip through the pipeline.
struct Item {
    ok: bool,
    /// Simulated port and run time, ns: download, run, readback, delta.
    sim_ns: [u64; 4],
    digest: [u64; 3],
    frames: u64,
    clbs: u64,
    cells: u64,
    delta_frames: u64,
}

impl Fabric {
    /// `pnr::compile` taken apart into its public stages, so the traced rep
    /// can time each. The untraced reps call `pnr::compile` itself, and the
    /// digest check holds the two to the same placement and timing.
    fn compile_staged(&self, net: &Netlist, tracer: &Tracer) -> Option<CompiledCircuit> {
        let o = self.opts;
        let mapped = tracer.time("netlist.map", || map_to_luts(net, o.map));
        let packed = tracer.time("pnr.pack", || pnr::pack::pack(&mapped));
        let (w, h) = pnr::place::auto_shape(packed.blocks.len().max(1), o.fill, o.max_height);
        let placed = tracer
            .time("pnr.place", || {
                pnr::place(&packed, w, h, &mut SimRng::new(o.seed))
            })
            .ok()?;
        let (crit, clock) = tracer.time("pnr.timing", || {
            (
                pnr::critical_path_ns(&placed),
                pnr::timing::clock_period_ns(&placed),
            )
        });
        Some(CompiledCircuit {
            placed,
            crit_path_ns: crit,
            clock_ns: clock,
        })
    }

    fn pipeline(&self, net: &Netlist, round: usize, idx: usize, tracer: &Tracer) -> Item {
        let failed = Item {
            ok: false,
            sim_ns: [0; 4],
            digest: [0; 3],
            frames: 0,
            clbs: 0,
            cells: 0,
            delta_frames: 0,
        };
        let compiled = if tracer.is_enabled() {
            tracer.time("pnr.compile", || self.compile_staged(net, tracer))
        } else {
            pnr::compile(net, self.opts).ok()
        };
        let Some(compiled) = compiled else {
            return failed;
        };
        let placed = &compiled.placed;
        let origin = (1, 1);
        let routed = tracer.time("pnr.route", || {
            RoutingFabric::for_device(&self.spec)
                .route_circuit(placed, origin)
                .map(|r| r.wirelength)
        });
        let Ok(wirelength) = routed else {
            return failed;
        };
        let pins = PinAssignment::contiguous(net.num_inputs(), net.outputs().len());
        let bs = tracer.time("pnr.emit", || emit_bitstream(placed, origin, &pins, false));

        let mut dev = Device::new(self.spec, ConfigPort::SerialFast);
        let Ok(download) = tracer.time("fpga.apply", || dev.apply(&bs)) else {
            return failed;
        };
        let region = fpga::Rect::new(origin.0, origin.1, placed.width, placed.height);
        let Ok(mut view) = tracer.time("fpga.fabric.resolve", || FabricView::resolve(&dev, region))
        else {
            return failed;
        };

        // 64 random vectors in one bit-parallel pass; a sequential circuit
        // is also clocked, so state progression is compared too.
        let mut rng = SimRng::new(self.seed).derive(((round as u64) << 32) | idx as u64);
        let cycles = rng.range_u64(RUN_CYCLES.0, RUN_CYCLES.1);
        let mut gold = Simulator::new(net);
        let steps = if net.is_sequential() { SEQ_STEPS } else { 1 };
        let mut ok = true;
        for _ in 0..steps {
            let words: Vec<u64> = (0..net.num_inputs()).map(|_| rng.next_u64()).collect();
            let pinvals: HashMap<u32, u64> = pins
                .inputs
                .iter()
                .copied()
                .zip(words.iter().copied())
                .collect();
            tracer.time("netlist.sim", || gold.eval(&words));
            tracer.time("fpga.fabric.eval", || view.eval(&dev, &pinvals));
            ok &= pins
                .outputs
                .iter()
                .enumerate()
                .all(|(o, &p)| view.output(&dev, p) == gold.output(o));
            gold.clock();
            view.clock(&mut dev);
        }

        let (state, readback) = tracer.time("fpga.readback", || dev.readback_region(&region));

        // Delta reconfiguration from a half-rewritten variant back to the
        // circuit must land on the state a fresh download gives.
        let fresh = fresh_digest(self.spec, &bs);
        let variant = mutate_tables(&compiled, 0.5, self.seed ^ idx as u64);
        let bs_variant = emit_bitstream(&variant.placed, origin, &pins, false);
        let delta = tracer.time("fpga.diff", || Bitstream::diff(&bs_variant, &bs));
        let mut dev2 = Device::new(self.spec, ConfigPort::SerialFast);
        let applied = dev2
            .apply(&bs_variant)
            .and_then(|_| tracer.time("fpga.apply_delta", || dev2.apply(&delta.stream)));
        let Ok(delta_time) = applied else {
            return failed;
        };
        ok &= dev2.state_digest() == fresh;

        let mut state_digest = Digest::new();
        state_digest.eat_all(state.iter().copied());
        Item {
            ok,
            sim_ns: [
                download.as_nanos(),
                compiled.run_ns(cycles),
                readback.as_nanos(),
                delta_time.as_nanos(),
            ],
            digest: [
                fresh,
                state_digest.value(),
                wirelength as u64 ^ (compiled.crit_path_ns.to_bits()),
            ],
            frames: bs.frame_count() as u64,
            clbs: u64::from(region.area()),
            cells: view.cell_count() as u64 * steps as u64,
            delta_frames: delta.changed_frames as u64,
        }
    }
}

/// State digest of a blank device after downloading `bs`.
fn fresh_digest(spec: DeviceSpec, bs: &Bitstream) -> u64 {
    let mut dev = Device::new(spec, ConfigPort::SerialFast);
    dev.apply(bs).expect("stream applied once already");
    dev.state_digest()
}

impl Bench for Fabric {
    fn setup(seed: u64, sizes: &Sizes, tracer: &Tracer) -> Self {
        let spec = fpga::device::part("VF1000");
        let nets = tracer.time("netlist.gen", netlists);
        Fabric {
            spec,
            nets,
            // The placement seed stays the flow's default: the seed varies
            // the test vectors and the variants, not which circuits route.
            opts: CompileOptions {
                max_height: spec.rows - 2,
                ..Default::default()
            },
            seed,
            rounds: sizes.fabric_rounds,
            scratch: crate::out_dir().join(format!("pnr-cache-{}", std::process::id())),
        }
    }

    fn rep<W: Wrap>(&self, _wrap: &W, tracer: &Tracer) -> Result<Rep, String> {
        let t0 = RepClock::start();
        let span = tracer.span("fabric.pipeline");
        let mut items = Vec::with_capacity(self.rounds * self.nets.len());
        for round in 0..self.rounds {
            for (idx, net) in self.nets.iter().enumerate() {
                items.push(self.pipeline(net, round, idx, tracer));
            }
        }
        drop(span);
        let took = t0.stop();

        let mut digest = Digest::new();
        let mut violations = Vec::new();
        let mut per_item: Vec<u64> = Vec::with_capacity(items.len());
        let (mut total, mut overhead) = (0u64, 0u64);
        let mut counters: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, it) in items.iter().enumerate() {
            if !it.ok {
                violations.push(format!(
                    "fabric: {} failed the pipeline or mismatched the golden model",
                    self.nets[i % self.nets.len()].name()
                ));
            }
            digest.eat_all(it.digest.iter().chain(&it.sim_ns).copied());
            let sum: u64 = it.sim_ns.iter().sum();
            per_item.push(sum);
            total += sum;
            overhead += sum - it.sim_ns[1];
            *counters.entry("fpga.frames_applied").or_default() += it.frames as f64;
            *counters.entry("fabric.clbs_read").or_default() += it.clbs as f64;
            *counters.entry("fabric.cells_evaluated").or_default() += it.cells as f64;
            *counters.entry("fabric.delta_frames").or_default() += it.delta_frames as f64;
        }
        per_item.sort_unstable();
        counters.insert(
            "sim.turnaround_p99_ms",
            percentile_sorted(&per_item, 0.99) as f64 / 1e6,
        );
        let failed = items.iter().filter(|it| !it.ok).count() as u64;
        Ok(Rep {
            outcome: Outcome {
                items: items.len() as u64,
                failed,
                digest: digest.value(),
                sim: SimValues {
                    makespan_s: SimDuration::from_nanos(total).as_secs_f64(),
                    turnaround_p50_ms: percentile_sorted(&per_item, 0.50) as f64 / 1e6,
                    turnaround_p90_ms: percentile_sorted(&per_item, 0.90) as f64 / 1e6,
                    overhead_frac: overhead as f64 / total.max(1) as f64,
                },
                counters,
                violations,
            },
            took,
            report: Report::default(),
        })
    }

    fn probes(&self, tracer: &Tracer, rep: &Outcome, _rep_s: f64, layer: &mut Layer) {
        stage_metrics(tracer, rep, layer);
        layer.insert(
            "netlist.luts",
            self.nets
                .iter()
                .map(|n| map_to_luts(n, self.opts.map).luts.len() as f64)
                .sum(),
        );
        let net = &self.nets[0];
        // The process cache: one miss, then a fixed number of hits.
        const HITS: u32 = 1000;
        let before = pnr::cache_stats();
        pnr::compile_shared(net, self.opts).expect("alu compiles");
        let t = Instant::now();
        tracer.time("pnr.cache_hit", || {
            for _ in 0..HITS {
                black_box(pnr::compile_shared(net, self.opts).expect("alu compiles"));
            }
        });
        let hit_ns = t.elapsed().as_nanos() as f64 / f64::from(HITS);
        let after = pnr::cache_stats();
        layer.insert("pnr.cache_hit_ns", hit_ns);
        layer.insert("pnr.cache_hits", (after.hits - before.hits) as f64);
        layer.insert("pnr.cache_misses", (after.misses - before.misses) as f64);

        // The disk cache, in a scratch directory of the benchmark's own.
        let _ = std::fs::remove_dir_all(&self.scratch);
        pnr::compile_with_disk(net, self.opts, &self.scratch).expect("alu compiles");
        let disk_s = tracer.time("pnr.disk_hit", || {
            crate::workloads::time_repeated(|| {
                pnr::compile_with_disk(net, self.opts, &self.scratch)
            })
        });
        let _ = std::fs::remove_dir_all(&self.scratch);
        layer.insert("pnr.disk_hit_us", disk_s * 1e6);

        // The device journal: one guarded partial download, then recovery
        // of a journal holding one torn and one committed transaction.
        let compiled = pnr::compile(net, self.opts).expect("alu compiles");
        let pins = PinAssignment::contiguous(net.num_inputs(), net.outputs().len());
        let bs = Arc::new(emit_bitstream(&compiled.placed, (1, 1), &pins, false));
        let mut dev = Device::new(self.spec, ConfigPort::SerialFast);
        let txn_s = tracer.time("fpga.journal.txn", || {
            crate::workloads::time_repeated(|| {
                let mut journal = Journal::new();
                let id = journal.begin(&dev, &bs);
                dev.apply(&bs).expect("stream applies");
                journal.commit(id);
                journal.len()
            })
        });
        layer.insert("fpga.journal_txn_ns", txn_s * 1e9);
        let recover_s = tracer.time("fpga.journal.recover", || {
            crate::workloads::median_sampled(|| {
                let mut journal = Journal::new();
                let id = journal.begin(&dev, &bs);
                dev.apply(&bs).expect("stream applies");
                journal.commit(id);
                journal.begin(&dev, &bs);
                dev.apply_torn(&bs, bs.frames.len() / 2)
                    .expect("torn stream applies");
                let t = Instant::now();
                black_box(journal.recover(&mut dev).expect("journal recovers"));
                t.elapsed().as_secs_f64()
            })
        });
        layer.insert("fpga.journal_recover_us", recover_s * 1e6);
    }

    fn home_layer_frac(&self, tracer: &Tracer, _layer: &Layer, rep_s: f64) -> f64 {
        // The stage spans of the traced rep; `pnr.compile` only groups
        // stages that are counted themselves.
        let layers = tracer.sum_where(|path| {
            let stage = path.rsplit(';').next().unwrap_or(path);
            path.starts_with("rep;")
                && stage != "pnr.compile"
                && ["netlist.", "pnr.", "fpga."]
                    .iter()
                    .any(|layer| stage.starts_with(layer))
        });
        layers.total_ns as f64 / 1e9 / rep_s
    }
}

/// The per-stage times and rates the traced rep adds to the layer map.
fn stage_metrics(tracer: &Tracer, rep: &Outcome, layer: &mut Layer) {
    let s = |name: &str| tracer.named(name).total_ns as f64 / 1e9;
    let per = |name: &str, n: f64| {
        if n > 0.0 {
            tracer.named(name).total_ns as f64 / n
        } else {
            0.0
        }
    };
    let c = |k: &str| rep.counters.get(k).copied().unwrap_or(0.0);
    layer.insert("netlist.map_s", s("netlist.map"));
    layer.insert("netlist.sim_s", s("netlist.sim"));
    layer.insert("pnr.pack_s", s("pnr.pack"));
    layer.insert("pnr.place_s", s("pnr.place"));
    layer.insert("pnr.route_s", s("pnr.route"));
    layer.insert("pnr.timing_s", s("pnr.timing"));
    layer.insert("pnr.emit_s", s("pnr.emit"));
    let compile_ms: Vec<f64> = tracer
        .raw()
        .iter()
        .filter(|r| r.name == "pnr.compile")
        .map(|r| (r.end_ns - r.start_ns) as f64 / 1e6)
        .collect();
    if !compile_ms.is_empty() {
        layer.insert("pnr.compile_ms_p50", median(&compile_ms));
    }
    layer.insert(
        "fpga.apply_ns_per_frame",
        per("fpga.apply", c("fpga.frames_applied")),
    );
    layer.insert(
        "fpga.readback_ns_per_clb",
        per("fpga.readback", c("fabric.clbs_read")),
    );
    layer.insert(
        "fpga.diff_ns_per_frame",
        per("fpga.diff", c("fpga.frames_applied")),
    );
    let resolves = tracer.named("fpga.fabric.resolve");
    layer.insert(
        "fpga.fabric_resolve_us",
        per("fpga.fabric.resolve", resolves.count as f64) / 1e3,
    );
    layer.insert(
        "fpga.fabric_eval_ns_per_cell",
        per("fpga.fabric.eval", c("fabric.cells_evaluated")),
    );
}
