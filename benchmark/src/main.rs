//! The repository benchmark. See `benchmark/README.md`.
//!
//! Modes (all through `benchmark/run`, which builds first):
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload, the
//!   driver's contract: the last stdout line is one JSON object with
//!   `correct`, `attempted`, `failed` and `metrics`.
//! * no `--workload` — every workload, untraced then traced, each in its
//!   own child process, one at a time; writes `out/result.json`.
//! * `--check` — the same at tiny sizes, plus schema validation.
//! * `--manifest` — print `BENCHMARK.json` as `schema.rs` defines it.
//! * `compare A.json B.json` — judge B against A.

mod compare;
mod drive;
mod fabric;
mod schema;
mod sim;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Default seed of the recorded baseline.
pub const DEFAULT_SEED: u64 = 0xB11;

/// Where the benchmark may write: `out/` under its own directory. The
/// `run` script passes that directory; a bare binary assumes the checkout
/// root as working directory.
pub fn bench_dir() -> PathBuf {
    std::env::var_os("VFPGA_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub tiny: bool,
    pub setup_only: bool,
    pub check: bool,
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("bad number '{s}': {e}"))
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: schema::RUN_SECONDS,
        trace: false,
        tiny: false,
        setup_only: false,
        check: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.to_string()),
            "--seed" => a.seed = parse_u64(value()?)?,
            "--seconds" => a.seconds = parse_u64(value()?)?,
            "--trace" => a.trace = parse_u64(value()?)? != 0,
            "--tiny" => a.tiny = true,
            "--setup-only" => a.setup_only = true,
            "--check" => a.check = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    // A configured disk cache would turn the cold library build that
    // `setup_s` measures into file reads.
    std::env::remove_var("VFPGA_CACHE_DIR");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--manifest") {
        print!("{}", schema::manifest().render());
        return ExitCode::SUCCESS;
    }
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => compare::main(a, b),
            _ => {
                eprintln!("usage: compare A.json B.json");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.workload, args.check) {
        (Some(_), _) => drive::one(&args),
        (None, check) => drive::all(&args, check),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(1)
        }
    }
}
