//! Application circuit suites.
//!
//! Each [`Domain`] matches one of the paper's §5 scenarios; [`suite`]
//! compiles its circuits through the full CAD flow. Every app also has a
//! software-execution model — nanoseconds per item on the host CPU — used
//! by experiment E12's co-processor comparison. The software costs are
//! derived from the circuit's gate count and depth (a software emulation
//! of the same dataflow executes ~1 gate-equivalent per CPU ns at our
//! reference 1 GHz host, with no bit-level parallelism), which keeps the
//! hardware/software ratio tied to circuit structure rather than to magic
//! constants.

use netlist::Netlist;
use pnr::{compile_shared, CompileOptions, CompiledCircuit};
use std::sync::Arc;

/// Application domains from the paper's conclusions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Voice/image compression bank (multimedia systems).
    Multimedia,
    /// Modem/fax encoding chains (telecommunication).
    Telecom,
    /// Programmable network interface protocol engines.
    Networking,
    /// Disk-array codecs (fault-tolerant storage).
    Storage,
    /// Embedded control: testing, diagnosis, parameter tuning.
    EmbeddedControl,
}

impl Domain {
    /// All domains.
    pub const ALL: [Domain; 5] = [
        Domain::Multimedia,
        Domain::Telecom,
        Domain::Networking,
        Domain::Storage,
        Domain::EmbeddedControl,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Multimedia => "multimedia",
            Domain::Telecom => "telecom",
            Domain::Networking => "networking",
            Domain::Storage => "storage",
            Domain::EmbeddedControl => "embedded-control",
        }
    }
}

/// One compiled application kernel.
#[derive(Debug, Clone)]
pub struct App {
    /// Kernel name.
    pub name: String,
    /// Owning domain.
    pub domain: Domain,
    /// The compiled circuit, shared through the process-wide compile
    /// cache — building the same suite twice compiles each kernel once.
    pub compiled: Arc<CompiledCircuit>,
    /// Nanoseconds per processed item when executed in software.
    pub sw_ns_per_item: u64,
    /// Fabric cycles per processed item when executed on the FPGA.
    pub hw_cycles_per_item: u64,
}

impl App {
    /// Nanoseconds per item on the FPGA (excluding configuration).
    pub fn hw_ns_per_item(&self) -> u64 {
        (self.compiled.clock_ns * self.hw_cycles_per_item as f64).ceil() as u64
    }

    /// Raw kernel speed-up of hardware over software (no config cost).
    pub fn raw_speedup(&self) -> f64 {
        self.sw_ns_per_item as f64 / self.hw_ns_per_item().max(1) as f64
    }

    /// Software cost per *hardware cycle* — the price admission control's
    /// graceful degradation charges when it emulates this kernel instead
    /// of configuring it (the e12 co-processor model re-expressed in the
    /// unit `Op::FpgaRun` counts in).
    pub fn sw_ns_per_cycle(&self) -> u64 {
        (self.sw_ns_per_item / self.hw_cycles_per_item.max(1)).max(1)
    }
}

/// A domain's circuit suite.
#[derive(Debug, Clone)]
pub struct Suite {
    /// The domain.
    pub domain: Domain,
    /// Compiled kernels.
    pub apps: Vec<App>,
}

/// Software cost model: one gate-equivalent per host-CPU nanosecond, with
/// the netlist's full gate count executed per item (software evaluates the
/// whole dataflow serially, bit by bit).
fn sw_model(net: &Netlist) -> u64 {
    let s = net.stats();
    (s.gates + s.dffs) as u64
}

fn mk_app(domain: Domain, net: Netlist, hw_cycles_per_item: u64, opts: CompileOptions) -> App {
    let sw = sw_model(&net);
    let compiled = compile_shared(&net, opts).expect("suite circuit must compile");
    App {
        name: compiled.name().to_string(),
        domain,
        compiled,
        sw_ns_per_item: sw,
        hw_cycles_per_item,
    }
}

/// Build the suite for a domain; `max_height` should be the target
/// device's row count so circuits fit column partitions.
pub fn suite(domain: Domain, max_height: u32) -> Suite {
    use netlist::library::*;
    let o = CompileOptions {
        max_height,
        full_height: true,
        ..Default::default()
    };
    let apps = match domain {
        // Codec bank: filters and transforms; each standard = one kernel.
        Domain::Multimedia => vec![
            mk_app(domain, dsp::fir("fir-voice", 8, &[1, 3, 5, 3, 1]), 1, o),
            mk_app(domain, dsp::fir("fir-image", 8, &[2, 4, 2]), 1, o),
            mk_app(domain, dsp::moving_sum("smoother", 8, 4), 1, o),
            mk_app(domain, arith::array_multiplier("dct-mac", 6), 1, o),
        ],
        // Modem/fax chains: scramblers, CRC, constellation mapping.
        Domain::Telecom => vec![
            mk_app(
                domain,
                seq::lfsr("scrambler", 16, 0b1101_0000_0000_1000),
                1,
                o,
            ),
            mk_app(
                domain,
                codes::crc_comb("crc16", codes::CRC16_CCITT, 16, 16),
                1,
                o,
            ),
            mk_app(domain, codes::gray_encode("qam-map", 6), 1, o),
            mk_app(domain, codes::hamming74_encode("fec-enc"), 1, o),
        ],
        // NIC engines: checksums, classification, framing.
        Domain::Networking => vec![
            mk_app(domain, codes::crc_comb("fcs32", 0x04C1_1DB7, 32, 16), 1, o),
            mk_app(domain, logic::priority_encoder("classifier", 16), 1, o),
            mk_app(domain, seq::pattern_fsm("delimiter"), 1, o),
            mk_app(domain, logic::popcount("hamming-wt", 16), 1, o),
        ],
        // Disk arrays: parity/ECC generation across stripes.
        Domain::Storage => vec![
            mk_app(domain, logic::parity("stripe-parity", 16), 1, o),
            mk_app(domain, codes::hamming74_decode("ecc-dec"), 1, o),
            mk_app(domain, logic::majority("vote3", 5), 1, o),
            mk_app(
                domain,
                codes::crc_comb("sector-crc", codes::CRC8, 8, 16),
                1,
                o,
            ),
        ],
        // Embedded control: diagnosis and tuning kernels.
        Domain::EmbeddedControl => vec![
            mk_app(domain, alu::alu("tuner-alu", 8), 1, o),
            mk_app(domain, logic::comparator("threshold", 8), 1, o),
            mk_app(domain, seq::counter("watchdog", 12), 1, o),
            mk_app(domain, seq::accumulator("integrator", 10), 1, o),
        ],
    };
    Suite { domain, apps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suites_compile() {
        for d in Domain::ALL {
            let s = suite(d, 24);
            assert_eq!(s.apps.len(), 4, "{}", d.name());
            for a in &s.apps {
                assert!(a.compiled.blocks() > 0, "{}", a.name);
                assert!(a.sw_ns_per_item > 0);
                assert!(a.hw_ns_per_item() > 0);
            }
        }
    }

    #[test]
    fn hardware_beats_software_on_compute_heavy_kernels() {
        // The premise of the co-processor model: FPGA kernels beat serial
        // software per item (before configuration overheads) — for kernels
        // with enough logic to amortize a fabric clock. Trivial kernels
        // (e.g. a 6-bit Gray mapper) legitimately do not, which is exactly
        // the "crossover" experiment E12 demonstrates.
        for d in Domain::ALL {
            let s = suite(d, 24);
            let mean: f64 = s.apps.iter().map(App::raw_speedup).sum::<f64>() / s.apps.len() as f64;
            assert!(mean > 1.0, "{}: mean raw speedup {mean}", d.name());
            let best = s.apps.iter().map(App::raw_speedup).fold(0.0, f64::max);
            assert!(best > 1.5, "{}: best raw speedup {best}", d.name());
        }
    }

    #[test]
    fn op_durations_are_the_compiled_clock_times_the_cycles() {
        // `CircuitImage` prices an FPGA op from the whole-nanosecond cycle
        // it stores at registration. Over the benchmark's library (every
        // domain at VF400's height) and one circuit whose clock is already
        // a whole number of nanoseconds, that is `run_ns` exactly.
        let rows = fpga::device::part("VF400").rows;
        let mut circuits: Vec<_> = Domain::ALL
            .into_iter()
            .flat_map(|d| suite(d, rows).apps)
            .map(|app| app.compiled)
            .collect();
        assert!(circuits.iter().any(|c| c.clock_ns.fract() != 0.0));
        let mut integral = (*circuits[0]).clone();
        integral.clock_ns = integral.clock_ns.floor();
        circuits.push(Arc::new(integral));
        for compiled in circuits {
            let image = vfpga::circuit::CircuitImage::from_shared(Arc::clone(&compiled));
            for cycles in [0, 1, 2, 60_000, 123_457, 250_000, 1 << 32] {
                assert_eq!(
                    image.run_time(cycles),
                    fsim::SimDuration::from_nanos(compiled.run_ns(cycles)),
                    "{} at {} ns, {cycles} cycles",
                    compiled.name(),
                    compiled.clock_ns
                );
            }
        }
    }

    #[test]
    fn suites_fit_mid_size_device() {
        let spec = fpga::device::part("VF400");
        for d in Domain::ALL {
            let s = suite(d, spec.rows);
            for a in &s.apps {
                let (w, h) = a.compiled.shape();
                assert!(
                    w <= spec.cols && h <= spec.rows,
                    "{} is {}x{}",
                    a.name,
                    w,
                    h
                );
            }
        }
    }
}
