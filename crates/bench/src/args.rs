//! The command line of `vfpga-exp`, parsed in one place.
//!
//! `vfpga-exp <name> [--smoke] [--seed N] [--json PATH]`;
//! a value may also be attached as `--flag=value`. Anything else — an
//! unknown experiment or flag, a missing or non-integer value, `--seed` on
//! a fixed-seed sweep — is an error, so a misspelt flag cannot silently
//! run the default instead.

use crate::exp::{Entry, RunArgs, ALL};
use std::path::PathBuf;

/// A parsed `vfpga-exp` command line.
#[derive(Debug)]
pub struct Cli {
    /// The experiment to run.
    pub entry: &'static Entry,
    /// What to ask of it.
    pub run: RunArgs,
    /// Where to write the export, if anywhere.
    pub json: Option<PathBuf>,
}

fn usage() -> String {
    let mut s = String::from("usage: vfpga-exp <name> [--smoke] [--seed N] [--json PATH]");
    s.push_str("\nexperiments:");
    for (name, ..) in ALL {
        s.push_str("\n  ");
        s.push_str(name);
    }
    s
}

fn int(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} requires an integer argument, got {value:?}"))
}

/// Parse everything after the program name.
pub fn parse(argv: &[&str]) -> Result<Cli, String> {
    let Some((&name, flags)) = argv.split_first() else {
        return Err(format!("missing experiment name\n{}", usage()));
    };
    let entry = crate::exp::find(name)
        .ok_or_else(|| format!("unknown experiment {name:?}\n{}", usage()))?;
    let (mut smoke, mut seed, mut json) = (false, None, None);
    let mut rest = flags.iter();
    while let Some(&arg) = rest.next() {
        let (flag, attached) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg, None),
        };
        let mut value = || {
            attached
                .or_else(|| rest.next().copied())
                .ok_or_else(|| format!("{flag} requires an argument"))
        };
        match flag {
            "--smoke" if attached.is_none() => smoke = true,
            "--seed" => seed = Some(int(flag, value()?)?),
            "--json" => json = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown argument {arg:?}\n{}", usage())),
        }
    }
    if seed.is_some() && entry.1.is_none() {
        return Err(format!(
            "{name} is a fixed-seed sweep: --seed does not apply"
        ));
    }
    Ok(Cli {
        entry,
        run: RunArgs {
            smoke,
            seed: seed.or(entry.1),
        },
        json,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_come_from_the_table() {
        let cli = parse(&["e15_fault_recovery"]).unwrap();
        assert_eq!(cli.entry.0, "e15_fault_recovery");
        let want = RunArgs {
            smoke: false,
            seed: Some(0xE15),
        };
        assert_eq!(cli.run, want);
        assert!(cli.json.is_none());
        assert_eq!(parse(&["e05_partitioning"]).unwrap().run.seed, None);
    }

    #[test]
    fn every_flag_in_both_spellings() {
        for flags in [
            "--smoke --seed 7 --json o.json",
            "--smoke --seed=7 --json=o.json",
        ] {
            let argv: Vec<&str> = std::iter::once("e19_fleet")
                .chain(flags.split(' '))
                .collect();
            let cli = parse(&argv).unwrap();
            let want = RunArgs {
                smoke: true,
                seed: Some(7),
            };
            assert_eq!(cli.run, want);
            assert_eq!(cli.json, Some(PathBuf::from("o.json")));
        }
    }

    #[test]
    fn mistakes_are_errors_not_defaults() {
        for (argv, needle) in [
            ("", "missing experiment name"),
            ("e99_nope", "unknown experiment"),
            ("--smoke", "unknown experiment"),
            ("e17_overload --smok", "unknown argument"),
            ("e17_overload --thread 4", "unknown argument"),
            ("e17_overload --threads 4", "unknown argument"),
            ("e17_overload --smoke=1", "unknown argument"),
            ("e17_overload stray", "unknown argument"),
            ("e17_overload --seed", "requires an argument"),
            ("e17_overload --json", "requires an argument"),
            ("e17_overload --seed x", "integer"),
            ("e05_partitioning --seed 3", "fixed-seed"),
        ] {
            let argv: Vec<&str> = argv.split_whitespace().collect();
            let err = parse(&argv).expect_err("must be rejected");
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
        let err = parse(&["e99_nope"]).unwrap_err();
        for (name, ..) in ALL {
            assert!(err.contains(name), "usage must list {name}");
        }
    }
}
