//! The whole compile flow against entries the previous flow wrote.
//!
//! `crates/pnr/golden/` holds `vfpga-pnr-cache/1` entries written by
//! `compile_with_disk` at the commit before the cut mapper and the
//! one-pass-delta placer: three netlists at the default options, at
//! `full_height`, and at a fixed shape. Rendering the same entries now
//! must give the same file names and the same bytes. The mapper and placer
//! oracles each see one stage; this pins what only shows with the stages
//! chained — pack order, `hpwl`, the timing bits — and the cache key, so a
//! warm cache written before the rewrite still hits.

use netlist::library::{alu, arith, seq};
use netlist::Netlist;
use pnr::{compile_with_disk, CompileOptions};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Cargo sets the variable for the test process. Read then, not baked in
/// at compile time: a test binary another checkout left in a shared target
/// directory would otherwise look in that checkout.
fn golden_dir() -> PathBuf {
    let here = std::env::var("CARGO_MANIFEST_DIR").expect("cargo runs the tests");
    Path::new(&here).join("golden")
}

/// Each netlist with its fixed shape: `alu4` with many empty cells, `mul6`
/// with a few, `acc12` with none.
fn cases() -> Vec<(Netlist, CompileOptions)> {
    let nets = [
        (alu::alu("alu4", 4), (9, 7)),
        (arith::array_multiplier("mul6", 6), (14, 9)),
        (seq::accumulator("acc12", 12), (8, 4)),
    ];
    let mut cases = Vec::new();
    for (net, shape) in nets {
        for opts in [
            CompileOptions::default(),
            CompileOptions {
                max_height: 12,
                full_height: true,
                ..Default::default()
            },
            CompileOptions {
                shape: Some(shape),
                ..Default::default()
            },
        ] {
            cases.push((net.clone(), opts));
        }
    }
    cases
}

fn entries(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (
                e.file_name().into_string().unwrap(),
                std::fs::read(e.path()).unwrap(),
            )
        })
        .collect()
}

#[test]
fn compile_writes_the_entries_the_previous_flow_wrote() {
    let dir = std::env::temp_dir().join(format!("vfpga-flow-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cases = cases();
    for (net, opts) in &cases {
        compile_with_disk(net, *opts, &dir).unwrap();
    }
    let (got, want) = (entries(&dir), entries(&golden_dir()));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(want.len(), cases.len(), "one golden entry a case");
    assert_eq!(
        got.keys().collect::<Vec<_>>(),
        want.keys().collect::<Vec<_>>(),
        "entry file names (the cache key)"
    );
    for (name, bytes) in &want {
        assert!(
            got[name] == *bytes,
            "{name} differs from crates/pnr/golden/"
        );
    }
}
