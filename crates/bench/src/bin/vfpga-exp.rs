//! Run one experiment.
//!
//! ```sh
//! vfpga-exp <name> [--smoke] [--seed N] [--json PATH]
//! ```
//!
//! `<name>` is an entry of [`bench::exp::ALL`] (run without arguments to
//! list them). The experiment prints its tables; `--json` also writes the
//! `vfpga-bench/2` export, after reading it back. `--smoke` selects the
//! CI-sized sweep, `--seed` replaces the default seed of a seeded
//! experiment (E15–E21). Runs are deterministic: the same arguments give
//! the same stdout and the same export, byte for byte.
//! Exit status 0 on success, 1 when a gate inside the experiment or the
//! export fails, 2 on a usage error.

fn run(cli: &bench::args::Cli) -> Result<(), String> {
    let (name, _, run) = cli.entry;
    let ex = run(&cli.run).map_err(|e| format!("{name} FAILED: {e}"))?;
    if let Some(path) = &cli.json {
        let text = ex.render_checked().map_err(|e| format!("{name}: {e}"))?;
        std::fs::write(path, text)
            .map_err(|e| format!("failed to write {}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
    }
    Ok(())
}

fn fail(code: i32, msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let argv: Vec<&str> = argv.iter().map(String::as_str).collect();
    let cli = bench::args::parse(&argv).unwrap_or_else(|usage| fail(2, usage));
    run(&cli).unwrap_or_else(|e| fail(1, e));
}
