//! Running workloads: one (`one`), or all of them in child processes
//! (`all`), and the records both write.

use crate::compare::load_json;
use crate::fabric::Fabric;
use crate::schema::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;
use crate::timed::{Plain, Tables};
use crate::trace::Tracer;
use crate::workloads::{Bench, Churn, Durable, Fleet, Layer, Rep, Sizes, Stream};
use crate::{out_dir, Args};
use std::process::Command;
use std::time::Instant;
use vfpga_repro::fsim::json::{Json, Obj};
use vfpga_repro::fsim::span;

/// Timed reps never drop below this, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Fresh processes timed for `setup_s`: at least this many, and more (up
/// to `SETUP_SAMPLES_MAX`) while they have taken under `SETUP_MIN_S`
/// together, so a set-up of a few milliseconds still gets a steady reading.
const SETUP_SAMPLES: usize = 5;
const SETUP_SAMPLES_MAX: usize = 50;
const SETUP_MIN_S: f64 = 1.0;
/// Untraced reps a traced run times for `trace.overhead_frac`.
const TRACE_BASE_REPS: usize = 3;

/// One metric as measured.
pub struct Measured {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The samples behind a median, when there are several.
    pub samples: Vec<f64>,
}

/// What one `--workload` run found. Written to
/// `out/run-<workload>-trace<0|1>.json` and printed (in the contract's
/// reduced form) as the last stdout line.
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    pub sim_digest: u64,
    pub reps: usize,
    pub metrics: Vec<Measured>,
    pub violations: Vec<String>,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn metrics_json(&self, with_samples: bool) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let mut o = Obj::new().set("value", m.value).set("unit", m.unit);
                    if with_samples && m.samples.len() > 1 {
                        o = o.set("samples", m.samples.clone());
                    }
                    (m.name.to_string(), o.build())
                })
                .collect(),
        )
    }

    /// The contract's result object.
    fn result_line(&self) -> String {
        compact(
            &Obj::new()
                .set("correct", self.correct())
                .set("attempted", self.attempted)
                .set("failed", self.failed)
                .set("metrics", self.metrics_json(false))
                .build(),
        )
    }

    fn to_json(&self) -> Json {
        Obj::new()
            .set("workload", self.workload.as_str())
            .set("seed", self.seed)
            .set("trace", self.trace)
            .set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("sim_digest", format!("{:#018x}", self.sim_digest))
            .set("reps", self.reps)
            .set("metrics", self.metrics_json(true))
            .set("violations", self.violations.clone())
            .build()
    }
}

/// Render on one line. Numbers keep every digit Rust's shortest
/// round-trip formatting gives them.
pub fn compact(j: &Json) -> String {
    fn go(j: &Json, out: &mut String) {
        match j {
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    go(v, out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    go(&Json::Str(k.clone()), out);
                    out.push_str(": ");
                    go(v, out);
                }
                out.push('}');
            }
            // Scalars render on one line already.
            scalar => out.push_str(scalar.render().trim_end()),
        }
    }
    let mut out = String::new();
    go(j, &mut out);
    out
}

fn record_path(workload: &str, trace: bool) -> std::path::PathBuf {
    out_dir().join(format!("run-{workload}-trace{}.json", u8::from(trace)))
}

fn write_out(path: &std::path::Path, body: &Json) -> Result<(), String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("create {:?}: {e}", out_dir()))?;
    std::fs::write(path, body.render()).map_err(|e| format!("write {path:?}: {e}"))
}

fn sizes(args: &Args) -> Sizes {
    if args.tiny {
        Sizes::tiny()
    } else {
        Sizes::reference()
    }
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Set the workload up in fresh processes that do nothing else: cold
/// process cache, no disk cache. A child prints the CPU seconds it has used
/// from process start to inputs ready (its one thread's clock; spawn to
/// exit on the parent's wall clock where that clock is missing). Wall time
/// of a process this short mostly measures how the host woke up a CPU for
/// it: its median moved 40 % between otherwise equal runs here.
fn measure_setup(args: &Args, workload: &str) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (min, max) = if args.tiny {
        (2, 2)
    } else {
        (SETUP_SAMPLES, SETUP_SAMPLES_MAX)
    };
    let mut samples = Vec::with_capacity(max);
    let t_all = Instant::now();
    while samples.len() < min
        || (samples.len() < max && t_all.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        let mut cmd = Command::new(&exe);
        cmd.args(["--setup-only", "--workload", workload, "--seed"])
            .arg(args.seed.to_string());
        if args.tiny {
            cmd.arg("--tiny");
        }
        let t0 = Instant::now();
        let out = cmd
            .output()
            .map_err(|e| format!("spawn set-up child: {e}"))?;
        let wall_s = t0.elapsed().as_secs_f64();
        if !out.status.success() {
            return Err(format!("set-up child exited with {}", out.status));
        }
        let cpu_ns = String::from_utf8_lossy(&out.stdout).trim().parse::<u64>();
        samples.push(cpu_ns.map_or(wall_s, |ns| ns as f64 / 1e9));
    }
    Ok(samples)
}

/// Run untraced reps until `seconds` have passed (at least `min`); returns
/// the last rep and every rep's host seconds. Reps that disagree on the
/// digest are reported as violations.
fn timed_reps<B: Bench>(
    bench: &B,
    seconds: u64,
    min: usize,
    digest: u64,
    violations: &mut Vec<String>,
) -> Result<(Rep, Vec<f64>), String> {
    let off = Tracer::disabled();
    let mut secs = Vec::new();
    let t0 = Instant::now();
    loop {
        let rep = bench.rep(&Plain, &off)?;
        secs.push(rep.took.host_s());
        if rep.outcome.digest != digest {
            violations.push(format!(
                "rep {} has sim_digest {:#x}, the warm-up rep {digest:#x}",
                secs.len(),
                rep.outcome.digest
            ));
        }
        if secs.len() >= min && t0.elapsed().as_secs() >= seconds {
            return Ok((rep, secs));
        }
    }
}

fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn untraced<B: Bench>(args: &Args, workload: &str) -> Result<Record, String> {
    let setup = measure_setup(args, workload)?;
    let bench = B::setup(args.seed, &sizes(args), &Tracer::disabled());
    let warm = bench.rep(&Plain, &Tracer::disabled())?;
    let digest = warm.outcome.digest;
    let mut violations = warm.outcome.violations.clone();
    drop(warm);
    let (last, reps) = timed_reps(&bench, args.seconds, MIN_REPS, digest, &mut violations)?;
    // The fastest rep: the work is the same every time, and whatever else
    // the host was doing can only have added to it.
    let rep_s = fastest(&reps);
    violations.extend(bench.verify(&last, rep_s, &mut Layer::new()));

    let o = &last.outcome;
    let items = o.items as f64;
    // A failed check is a failed operation, like a failed item.
    let failed = (o.failed + violations.len() as u64).min(o.items);
    let metric = |name: &str, value: f64, samples: Vec<f64>| {
        let def = END_TO_END.iter().find(|m| m.name == name);
        let def = def.expect("an end-to-end metric of schema.rs");
        Measured {
            name: def.name,
            unit: def.unit,
            value,
            samples,
        }
    };
    let single = |name: &str, value: f64| metric(name, value, Vec::new());
    let metrics = vec![
        metric(
            "items_per_s",
            items / rep_s,
            reps.iter().map(|s| items / s).collect(),
        ),
        metric("setup_s", median(&setup), setup.clone()),
        single("peak_rss_mb", peak_rss_mb()?),
        single("ok_frac", (o.items - failed) as f64 / items),
        single("sim_makespan_s", o.sim.makespan_s),
        single("sim_turnaround_p50_ms", o.sim.turnaround_p50_ms),
        single("sim_turnaround_p90_ms", o.sim.turnaround_p90_ms),
        single("sim_overhead_frac", o.sim.overhead_frac),
    ];
    Ok(Record {
        workload: workload.to_string(),
        seed: args.seed,
        trace: false,
        attempted: o.items,
        failed,
        sim_digest: digest,
        reps: reps.len(),
        metrics,
        violations,
    })
}

fn traced<B: Bench>(args: &Args, workload: &str) -> Result<Record, String> {
    let tracer = Tracer::enabled();
    let bench = tracer.time("setup", || B::setup(args.seed, &sizes(args), &tracer));
    let off = Tracer::disabled();
    let warm = bench.rep(&Plain, &off)?;
    let digest = warm.outcome.digest;
    let mut violations = warm.outcome.violations.clone();
    drop(warm);
    let (last, reps) = timed_reps(&bench, 0, TRACE_BASE_REPS, digest, &mut violations)?;
    let rep_s = fastest(&reps);
    let mut layer = Layer::new();
    violations.extend(bench.verify(&last, rep_s, &mut layer));
    drop(last);

    // The traced rep: spans on, policies wrapped.
    let tables = Tables::default();
    let rep = tracer.time("rep", || bench.rep(&tables, &tracer))?;
    if rep.outcome.digest != digest {
        violations.push(format!(
            "Timed<_> is not transparent: traced sim_digest {:#x}, untraced {digest:#x}",
            rep.outcome.digest
        ));
    }
    let traced_s = rep.took.host_s();

    tracer.time("probes", || {
        bench.probes(&tracer, &rep.outcome, rep_s, &mut layer)
    });
    let is_per_layer = |name: &str| PER_LAYER.iter().any(|m| m.name == name);
    layer.extend(
        rep.outcome
            .counters
            .iter()
            .filter(|(k, _)| is_per_layer(k))
            .map(|(k, v)| (*k, *v)),
    );

    let s = |name: &str| tracer.named(name).total_ns as f64 / 1e9;
    let run = tracer.named("vfpga.system.run");
    let nested_build = tracer.suffix("vfpga.system.run;vfpga.system.build");
    let (mgr, sched) = (tables.manager.total(), tables.sched.total());
    let picks = tables.sched.get("pick").calls;
    let activate = tables.manager.get("activate");
    let snapshot_ns = tables.manager.get("snapshot").busy_ns + tables.sched.get("snapshot").busy_ns;
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    layer.extend([
        ("workload.gen_s", s("workload.gen")),
        ("workload.lib_s", s("workload.suite")),
        ("netlist.gen_s", s("netlist.gen")),
        ("vfpga.system.build_s", s("vfpga.system.build")),
        (
            "vfpga.system.run_s",
            (run.total_ns - nested_build.total_ns) as f64 / 1e9,
        ),
        ("vfpga.system.self_s", run.self_ns() as f64 / 1e9),
        (
            "vfpga.system.ns_per_dispatch",
            per(run.total_ns - nested_build.total_ns, picks),
        ),
        ("vfpga.sched.busy_s", sched.busy_ns as f64 / 1e9),
        ("vfpga.sched.calls", sched.calls as f64),
        ("vfpga.manager.busy_s", mgr.busy_ns as f64 / 1e9),
        ("vfpga.manager.calls", mgr.calls as f64),
        (
            "vfpga.manager.activate_ns_mean",
            per(activate.busy_ns, activate.calls),
        ),
        ("vfpga.checkpoint.snapshot_s", snapshot_ns as f64 / 1e9),
        ("vfpga.fleet.run_s", s("vfpga.fleet.run")),
        ("vfpga.fleet.build_s", s("vfpga.fleet.build")),
        ("trace.overhead_frac", traced_s / rep_s - 1.0),
        ("trace.dropped_spans", tracer.dropped() as f64),
    ]);
    let home = bench.home_layer_frac(&tracer, &layer, rep.took.wall_ns as f64 / 1e9);
    layer.insert("trace.home_layer_frac", home);

    // One more rep under the repository's own span profiler, dumped as it
    // is. It runs apart from the traced rep so its guards, which sit
    // inside the event loop, do not inflate the self times above.
    let (profiled, profile) = span::scoped(|| bench.rep(&Plain, &off));
    if profiled?.outcome.digest != digest {
        violations.push("fsim::span::scoped changed the sim_digest".into());
    }

    let metrics = PER_LAYER
        .iter()
        .map(|m| Measured {
            name: m.name,
            unit: m.unit,
            value: layer.get(m.name).copied().unwrap_or(0.0),
            samples: Vec::new(),
        })
        .collect();
    for name in layer.keys() {
        if !is_per_layer(name) {
            violations.push(format!("layer value '{name}' has no PER_LAYER entry"));
        }
    }

    let trace_file = Obj::new()
        .set("workload", workload)
        .set("seed", args.seed)
        .set("untraced_rep_s", rep_s)
        .set("traced_rep_s", traced_s)
        .set("trace", tracer.to_json())
        .set(
            "timed",
            Obj::new()
                .set("manager", tables.manager.to_json())
                .set("sched", tables.sched.to_json()),
        )
        .set("fsim_span_profile", profile.collapsed())
        .build();
    write_out(
        &out_dir().join(format!("trace-{workload}.json")),
        &trace_file,
    )?;

    Ok(Record {
        workload: workload.to_string(),
        seed: args.seed,
        trace: true,
        attempted: rep.outcome.items,
        failed: (rep.outcome.failed + violations.len() as u64).min(rep.outcome.items),
        sim_digest: digest,
        reps: 1,
        metrics,
        violations,
    })
}

fn run<B: Bench>(args: &Args, workload: &str) -> Result<bool, String> {
    if args.setup_only {
        std::hint::black_box(B::setup(args.seed, &sizes(args), &Tracer::disabled()));
        if let Some(ns) = crate::workloads::on_cpu_ns() {
            println!("{ns}");
        }
        // Inputs ready: leave without unwinding half a million specs.
        std::process::exit(0);
    }
    let record = if args.trace {
        traced::<B>(args, workload)?
    } else {
        untraced::<B>(args, workload)?
    };
    write_out(&record_path(workload, args.trace), &record.to_json())?;
    println!(
        "workload {workload}  seed {:#x}  trace {}  reps {}  sim_digest {:#018x}",
        record.seed,
        u8::from(record.trace),
        record.reps,
        record.sim_digest
    );
    for m in &record.metrics {
        println!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    for v in &record.violations {
        println!("VIOLATION: {v}");
    }
    println!("{}", record.result_line());
    Ok(record.correct())
}

/// Run one workload in this process.
pub fn one(args: &Args) -> Result<bool, String> {
    let workload = args.workload.as_deref().expect("one() needs --workload");
    match workload {
        "stream" => run::<Stream>(args, workload),
        "churn" => run::<Churn>(args, workload),
        "durable" => run::<Durable>(args, workload),
        "fleet" => run::<Fleet>(args, workload),
        "fabric" => run::<Fabric>(args, workload),
        other => Err(format!(
            "unknown workload '{other}' (known: {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Run every workload, untraced then traced, each in a child process of
/// its own, one at a time, and merge their records into
/// `out/result.json`.
pub fn all(args: &Args, check: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = if check { 0 } else { args.seconds };
    let mut ok = true;
    let mut merged: Vec<(String, Json)> = Vec::new();
    for workload in WORKLOADS {
        let mut records = Vec::new();
        for trace in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }]);
            if check || args.tiny {
                cmd.arg("--tiny");
            }
            let _ = std::fs::remove_file(record_path(workload, trace));
            let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
            if !status.success() {
                eprintln!(
                    "{workload} (trace {}) exited with {status}",
                    u8::from(trace)
                );
                ok = false;
            }
            records.push(load_json(&record_path(workload, trace))?);
        }
        let (plain, traced) = (&records[0], &records[1]);
        let field = |r: &Json, k: &str| r.get(k).cloned().unwrap_or(Json::Null);
        let mut violations = Vec::new();
        for r in [plain, traced] {
            violations.extend(
                r.get("violations")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .to_vec(),
            );
        }
        if field(plain, "sim_digest") != field(traced, "sim_digest") {
            violations.push(Json::Str(
                "untraced and traced runs disagree on sim_digest".into(),
            ));
        }
        ok &= violations.is_empty();
        merged.push((
            workload.to_string(),
            Obj::new()
                .set(
                    "correct",
                    violations.is_empty()
                        && field(plain, "correct") == Json::Bool(true)
                        && field(traced, "correct") == Json::Bool(true),
                )
                .set("attempted", field(plain, "attempted"))
                .set("failed", field(plain, "failed"))
                .set("sim_digest", field(plain, "sim_digest"))
                .set("reps", field(plain, "reps"))
                .set("end_to_end", field(plain, "metrics"))
                .set("per_layer", field(traced, "metrics"))
                .set("violations", violations)
                .build(),
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let result = Obj::new()
        .set("schema", schema::SCHEMA)
        .set("seed", args.seed)
        .set(
            "sizes",
            if check || args.tiny {
                "tiny"
            } else {
                "reference"
            },
        )
        .set("run_seconds", seconds)
        .set("min_reps", MIN_REPS)
        .set("nproc", nproc)
        .set("workloads", Json::Obj(merged))
        .build();
    let path = out_dir().join("result.json");
    write_out(&path, &result)?;
    println!("wrote {}", path.display());

    let mut problems = crate::compare::validate(&load_json(&path)?);
    if check {
        problems.extend(check_manifest());
    }
    for p in &problems {
        eprintln!("SCHEMA: {p}");
    }
    Ok(ok && problems.is_empty())
}

/// `BENCHMARK.json` must be what `schema::manifest` generates.
fn check_manifest() -> Vec<String> {
    let path = crate::bench_dir().join("..").join("BENCHMARK.json");
    match load_json(&path) {
        Ok(found) if found == schema::manifest() => Vec::new(),
        Ok(_) => vec![format!(
            "{} differs from `benchmark/run --manifest`",
            path.display()
        )],
        Err(e) => vec![e],
    }
}
