//! `trace_dump` — run a representative traced simulation and dump the
//! typed event stream.
//!
//! The workload is the E4 mix (12 Poisson tasks on a VF800 under variable
//! partitioning with save/restore preemption) — it exercises every event
//! kind the managers emit: task lifecycle, dispatches, downloads,
//! preemptions, and GC.
//!
//! Usage: `trace_dump [--section NAME]... [--tag TAG]... [--limit N]
//! [--seed S] [--summary]`. Each `--section` (alias `--NAME`) attaches one
//! subsystem of [`SECTIONS`] to the run and prints its views after the
//! event counts; `fleet` runs a 3-device fleet instead and does not compose
//! with the others. `--tag` (repeatable; `--help` lists
//! `fsim::TraceEvent::TAGS`) picks the events listed — by default the
//! union of the enabled sections' tags, or every event if none filters.
//! `--limit` caps the listing (default 200, `0` = all), `--summary` skips
//! it, `--seed` reseeds the workload (default 0xE04).

use fpga::ConfigTiming;
use fsim::{span, LogHistogram, SimDuration, SimRng, SimTime, Trace, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::sync::{Arc, Mutex};
use vfpga::manager::partition::PartitionManager;
use vfpga::{
    run_fleet, run_with_crashes_traced, AdmissionPolicy, CheckpointConfig, CircuitLib, CrashPlan,
    DegradationConfig, DeviceFaultPlan, FaultPlan, FleetConfig, FleetReport, MigrationPlan,
    PlacementPolicy, RecoveryPolicy, Report, RoundRobinScheduler, RunOutcome, SchedulabilityConfig,
    System, SystemImage, TaskSpec, WatchdogConfig,
};
use workload::{poisson_tasks, tenant_tasks, Domain, TenantMixParams};

/// The sections: name, help blurb, and the tags the listing keeps by
/// default while the section is on (none: it filters nothing).
#[rustfmt::skip] // one row a section
const SECTIONS: &[(&str, &str, &str)] = &[
    ("faults", "fault injection + scrubbing recovery events", ""),
    ("checkpoints", "periodic checkpoints, host crashes, journal replay", "ckpt crash replay"),
    ("admission", "quotas, watchdogs, degraded dispatch", "wd-arm wd-fire reject quarantine degrade"),
    ("deadlines", "schedulability gate, per-tenant deadline outcomes", "unsched reject"),
    ("delta", "delta downloads, invalidations, delta checkpoints", "delta delta-inv ckpt-delta"),
    ("fleet", "device crashes, failovers, live migrations, migration latency", ""),
    ("profile", "host span tree, collapsed stacks, latency histograms", ""),
];

struct Args {
    tags: Vec<String>,
    limit: usize,
    seed: u64,
    summary_only: bool,
    sections: Vec<&'static str>,
}

impl Args {
    fn section(&self, name: &str) -> bool {
        self.sections.contains(&name)
    }

    /// Turn on the section called `name`, if there is one.
    fn enable(&mut self, name: &str) -> bool {
        let known = SECTIONS.iter().map(|s| s.0).find(|s| *s == name);
        self.sections.extend(known.filter(|s| !self.section(s)));
        known.is_some()
    }

    /// The listed tags (empty: all): `--tag`'s, else the sections' union.
    fn filter(&self) -> BTreeSet<&str> {
        if !self.tags.is_empty() {
            return self.tags.iter().map(String::as_str).collect();
        }
        let on = SECTIONS.iter().filter(|(name, ..)| self.section(name));
        on.flat_map(|(.., tags)| tags.split_whitespace()).collect()
    }
}

fn usage() -> String {
    let mut out = String::from(
        "usage: trace_dump [--section NAME]... [--tag TAG]... [--limit N] [--seed S] \
         [--summary]\n\nsections (repeatable; --NAME is an alias):\n",
    );
    for (name, blurb, _) in SECTIONS {
        out.push_str(&format!("  {name:<12} {blurb}\n"));
    }
    out.push_str("\ntags (--tag; Custom events carry their own, e.g. evict):\n");
    for line in TraceEvent::TAGS.chunks(8) {
        out.push_str(&format!("  {}\n", line.join(" ")));
    }
    out
}

/// Report a command-line error and exit 2.
fn fail(message: impl Display) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut out = Args {
        tags: Vec::new(),
        limit: 200,
        seed: 0xE04,
        summary_only: false,
        sections: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| fail(format!("{flag} requires a value")))
        };
        match a.as_str() {
            "--tag" => out.tags.push(value("--tag")),
            "--limit" => {
                let n = value("--limit").parse();
                out.limit = n.unwrap_or_else(|e| fail(format!("--limit: {e}")));
            }
            "--seed" => {
                let n = value("--seed").parse();
                out.seed = n.unwrap_or_else(|e| fail(format!("--seed: {e}")));
            }
            "--summary" => out.summary_only = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            "--section" => {
                let name = value("--section");
                if !out.enable(&name) {
                    fail(format!("unknown section {name:?}\n\n{}", usage()));
                }
            }
            // `--NAME`: the pre-`--section` spelling, kept as an alias.
            other => {
                let alias = other.strip_prefix("--");
                if !alias.is_some_and(|name| out.enable(name)) {
                    fail(format!("unknown argument {other} (see --help)"));
                }
            }
        }
    }
    out
}

fn main() {
    let args = parse_args();
    // The fleet view runs its own multi-device harness (run_fleet), so it
    // does not compose with the single-device sections.
    if args.section("fleet") {
        fleet_view(&args);
    } else {
        device_view(&args);
    }
}

/// List the events `filter` keeps (empty: all) and count every tag.
fn list(trace: &Trace, filter: &BTreeSet<&str>, args: &Args) -> BTreeMap<&'static str, u64> {
    let mut by_tag = BTreeMap::new();
    let (mut printed, mut matched) = (0usize, 0usize);
    for e in trace.entries() {
        let tag = e.tag();
        *by_tag.entry(tag).or_insert(0) += 1;
        if !filter.is_empty() && !filter.contains(tag) {
            continue;
        }
        matched += 1;
        if !args.summary_only && (args.limit == 0 || printed < args.limit) {
            println!("{e}");
            printed += 1;
        }
    }
    if !args.summary_only && matched > printed {
        let more = matched - printed;
        println!("... {more} more matching events (raise --limit)");
    }
    by_tag
}

/// `p50 …, p90 …, max … (<count> <what>)` of a latency histogram.
fn quantiles(h: &LogHistogram, what: &str) -> String {
    let ns = bench::report::fmt_ns;
    let (p50, p90) = (ns(h.quantile_ns(0.5)), ns(h.quantile_ns(0.9)));
    format!(
        "p50 {p50}, p90 {p90}, max {} ({} {what})",
        ns(h.max_ns()),
        h.count()
    )
}

/// The `run:` line both views end their counts with.
fn run_line(r: &Report) -> String {
    format!(
        "run: makespan {:.3} s, {} tasks, overhead fraction {:.1}%",
        r.makespan.as_secs_f64(),
        r.tasks.len(),
        r.overhead_fraction() * 100.0
    )
}

/// What every single-device view runs.
type Sys = System<PartitionManager, RoundRobinScheduler>;

/// Routing and event-queue counters, which a probe carries past the run.
type RunStats = Arc<Mutex<(pnr::RouteStats, fsim::QueueStats)>>;

/// The library, task mix, software prices and port timing of a device view.
struct Workload {
    lib: Arc<CircuitLib>,
    specs: Vec<TaskSpec>,
    sw: BTreeMap<u32, u64>,
    timing: ConfigTiming,
}

impl Workload {
    fn new(args: &Args) -> Workload {
        // The delta view runs on a tenth-size part: a fabric with room for
        // the whole working set never evicts, so never reloads over a
        // ghost, so no download would ever go delta.
        let delta = args.section("delta");
        let spec = fpga::device::part(if delta { "VF100" } else { "VF800" });
        let (lib, ids, sw) =
            bench::setup::compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec);
        // It also swaps the suite for a circuit family: a delta download
        // needs the incoming circuit to land on the ghost of a similar
        // predecessor, so four half-similar drop-in variants of one
        // full-height multiplier rotate through the same few columns.
        let (lib, ids) = if delta {
            let base = pnr::compile(
                &netlist::library::arith::array_multiplier("tdmul", 4),
                pnr::CompileOptions {
                    max_height: spec.rows,
                    full_height: true,
                    ..Default::default()
                },
            )
            .expect("delta family base compiles");
            let mut dlib = CircuitLib::new();
            let dids = workload::variant_family(&mut dlib, base, 3, 0.5, args.seed);
            (Arc::new(dlib), dids)
        } else {
            (lib, ids)
        };
        let mut rng = SimRng::new(args.seed);
        let (admission, deadlines) = (args.section("admission"), args.section("deadlines"));
        let specs = if admission || deadlines || delta {
            // Tenant-tagged arrivals. Admission hangs one op for the
            // watchdog; deadlines jitters looser deadlines than admission's
            // so the gate refuses some tasks, not nearly all; delta only
            // needs the tenant tags for its table.
            let params = TenantMixParams {
                base: bench::setup::e4_mix(),
                tenants: 3,
                deadline: if deadlines {
                    Some(SimDuration::from_millis(90))
                } else {
                    admission.then(|| SimDuration::from_millis(50))
                },
                hang_tasks: usize::from(admission),
                deadline_spread: if deadlines { 0.4 } else { 0.0 },
                ..Default::default()
            };
            tenant_tasks(&params, &ids, &mut rng)
        } else {
            poisson_tasks(&bench::setup::e4_mix(), &ids, &mut rng)
        };
        let timing = bench::setup::serial_fast(spec);
        Workload {
            lib,
            specs,
            sw,
            timing,
        }
    }

    /// A fresh system with the enabled sections attached.
    fn system(&self, args: &Args, stats: &RunStats) -> Sys {
        let mut mgr = bench::setup::variable_partitions(&self.lib, self.timing);
        if args.section("delta") {
            mgr.enable_delta();
        }
        let mut sys = System::new(
            self.lib.clone(),
            mgr,
            RoundRobinScheduler::new(SimDuration::from_millis(10)),
            bench::setup::save_restore(),
            self.specs.clone(),
        );
        if args.section("faults") {
            let plan = FaultPlan {
                seed: args.seed,
                download_corruption: 0.1,
                seu_rate_per_s: 200.0,
                column_failure_rate_per_s: 2.0,
            };
            let policy = RecoveryPolicy {
                scrub_interval: Some(SimDuration::from_millis(2)),
                ..RecoveryPolicy::default()
            };
            sys = sys.with_faults(plan, policy);
        }
        let (admission, deadlines) = (args.section("admission"), args.section("deadlines"));
        if admission || deadlines {
            // The deadlines section arms the schedulability gate; the
            // admission extras (watchdog, degradation) ride along only
            // when that section is also on, so each view stays focused.
            let policy = AdmissionPolicy {
                max_in_flight: 2,
                queue_cap: 2,
                watchdog: admission.then_some(WatchdogConfig {
                    slack: 2.0,
                    max_trips: 2,
                }),
                degradation: admission.then(|| DegradationConfig {
                    watermark: 0.05,
                    sw_ns_per_cycle: self.sw.clone(),
                    ..Default::default()
                }),
                schedulability: deadlines.then_some(SchedulabilityConfig { margin: 1.0 }),
            };
            sys = sys.with_admission(policy).expect("policy validates");
        }
        if args.section("delta") && !args.section("checkpoints") {
            // The crash harness installs its own checkpoint config;
            // standalone delta runs attach one here so the delta-capture
            // chain (full anchor every 4th) shows up in the trace.
            let cfg = checkpoint_config(args);
            sys = sys
                .with_checkpoints(cfg)
                .expect("partition manager snapshots");
        }
        if args.section("profile") {
            sys = sys.with_latency_profile();
        }
        let seen = Arc::clone(stats);
        sys.with_run_probe(move |m: &PartitionManager, queue| {
            *seen.lock().expect("probe runs on this thread") = (m.route_stats(), queue);
        })
    }
}

/// Checkpoints every 5 ms; delta ones (full every 4th) with `delta`.
fn checkpoint_config(args: &Args) -> CheckpointConfig {
    let cfg = CheckpointConfig::new(SimDuration::from_millis(5));
    if args.section("delta") {
        cfg.with_delta_checkpoints(4)
    } else {
        cfg
    }
}

/// Every view but `fleet`: one system, with the enabled sections attached.
fn device_view(args: &Args) {
    let work = Workload::new(args);
    let stats = RunStats::default();
    let build = || work.system(args, &stats);
    let run = || {
        if args.section("checkpoints") {
            let plan = CrashPlan {
                seed: args.seed,
                crash_rate_per_s: 25.0,
                max_crashes: 3,
            };
            run_with_crashes_traced(build, checkpoint_config(args), plan).expect("deadlock")
        } else {
            build().with_trace().run_traced().expect("deadlock")
        }
    };
    let ((report, trace), spans) = if args.section("profile") {
        span::scoped(run)
    } else {
        (run(), span::SpanProfile::new())
    };

    let by_tag = list(&trace, &args.filter(), args);
    let (len, dropped) = (trace.len(), trace.dropped());
    println!("\nevents by tag ({len} total, {dropped} dropped by ring buffer):");
    for (tag, n) in &by_tag {
        println!("  {tag:<10} {n}");
    }
    println!("\n{}", run_line(&report));
    device_lines(&report, &stats, args.section("checkpoints"));
    if args.section("checkpoints") {
        crash_lines(&report, build(), checkpoint_config(args));
    }
    if args.section("delta") {
        delta_tables(&trace, &work.specs, &report);
    }
    if let Some(a) = &report.admission {
        println!(
            "admission: {} admitted, {} deferred, {} rejected, {} quarantined, \
             watchdog {}/{} fired/armed ({:.3} s lost), {} degraded dispatches \
             ({:.3} s software)",
            a.admitted,
            a.deferred,
            a.rejected,
            a.quarantined,
            a.watchdog_fired,
            a.watchdog_armed,
            a.watchdog_lost_time.as_secs_f64(),
            a.degraded_dispatches,
            a.degraded_time.as_secs_f64(),
        );
    }
    if args.section("deadlines") {
        deadline_table(&work.specs, &report);
    }
    if args.section("profile") {
        profile_views(&spans, &report);
    }
}

/// The manager, routing and queue lines (the latter two of the last
/// incarnation after a restore).
fn device_lines(report: &Report, stats: &RunStats, restored: bool) {
    let m = &report.manager_stats;
    println!(
        "manager: {} hits / {} misses, {} downloads ({} frames), {} evictions, \
         {} gc runs, {} relocations ({} failed)",
        m.hits,
        m.misses,
        m.downloads,
        m.frames_written,
        m.evictions,
        m.gc_runs,
        m.relocations,
        m.failed_relocations,
    );
    let (r, q) = *stats.lock().expect("probe ran on this thread");
    let since = if restored {
        " (since the last restore)"
    } else {
        ""
    };
    println!(
        "routing{since}: {} connections translated from their template ({} circuits as one \
         footprint), {} searched, {} circuits failed to route",
        r.templated_conns, r.footprint_loads, r.searched_conns, r.failed_circuits,
    );
    println!(
        "queue{since}: {} events scheduled, {} via the heap, peak {} pending ({} in the heap)",
        q.scheduled, q.via_heap, q.peak_pending, q.peak_heap,
    );
}

/// The crash-consistency totals, and the two forms of the image `probe`
/// leaves when cut halfway through the run.
fn crash_lines(report: &Report, probe: Sys, cfg: CheckpointConfig) {
    let c = &report.crash;
    println!(
        "crash consistency: {} checkpoints ({:.3} s readback), {} crashes, \
         {} torn, {} redone / {} undone ({:.3} s replay), {} stale discards",
        c.checkpoints,
        c.checkpoint_time.as_secs_f64(),
        c.crashes,
        c.torn_downloads,
        c.records_redone,
        c.records_undone,
        c.replay_time.as_secs_f64(),
        c.stale_discards,
    );
    let halfway = SimTime::ZERO + SimDuration::from_nanos(report.makespan.as_nanos() / 2);
    let probe = probe
        .with_checkpoints(cfg)
        .expect("partition manager snapshots");
    let outcome = probe.run_until(Some(halfway)).expect("deadlock");
    let RunOutcome::Crashed(state) = outcome else {
        return;
    };
    let Some(image) = &state.image else { return };
    let typed = SystemImage::from_json(&image.state).expect("own image reads back");
    let section = |key| image.state.get(key).expect("own image has a task table");
    let len = |key| {
        section(key)
            .as_arr()
            .expect("the task table is arrays")
            .len()
    };
    let rows = len("tasks");
    println!(
        "checkpoint image #{} at {:.3} s: ~{} bytes as the typed image the host keeps, \
         {} bytes rendered as vfpga-ckpt/3 JSON when it leaves the process \
         ({} task rows x {} columns, {} bytes a row)",
        image.seq,
        image.at.as_secs_f64(),
        typed.approx_bytes(),
        image.state.render().len(),
        rows,
        len("task_columns"),
        section("tasks").render().len() / rows.max(1),
    );
}

/// Per-tenant downloads, invalidations, chain lengths and delta totals.
fn delta_tables(trace: &Trace, specs: &[TaskSpec], report: &Report) {
    // Every download is exactly one of DeltaDownload (priced as a frame
    // diff) or ConfigDownload (full-price), and the event's task id
    // indexes the spec list. A tenant's row: delta, full, frames saved.
    let tenant = |task: u32| specs.get(task as usize).map(|sp| sp.tenant).unwrap_or(0);
    let mut per: BTreeMap<u32, [u64; 3]> = BTreeMap::new();
    let mut invalidations: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Chain lengths: deltas taken between consecutive full anchors, as a
    // `length -> count` distribution (the final chain may still be open
    // when the run ends). Anything shorter than `k - 1` means a
    // dirty-fabric event forced an early anchor.
    let mut chains: BTreeMap<u32, u64> = BTreeMap::new();
    let (mut open_chain, mut full_anchors, mut delta_ckpts) = (0u32, 0u64, 0u64);
    for e in trace.entries() {
        match e.event {
            TraceEvent::DeltaDownload {
                task,
                frames,
                full_frames,
                ..
            } => {
                let row = per.entry(tenant(task)).or_default();
                row[0] += 1;
                row[2] += u64::from(full_frames.saturating_sub(frames));
            }
            TraceEvent::ConfigDownload { task, .. } => {
                per.entry(tenant(task)).or_default()[1] += 1;
            }
            TraceEvent::DeltaInvalidate { reason, .. } => {
                *invalidations.entry(reason).or_insert(0) += 1;
            }
            TraceEvent::DeltaCheckpoint { chain, .. } => {
                delta_ckpts += 1;
                open_chain = chain;
            }
            TraceEvent::CheckpointTaken { .. } => {
                full_anchors += 1;
                if full_anchors > 1 || open_chain > 0 {
                    *chains.entry(open_chain).or_insert(0) += 1;
                }
                open_chain = 0;
            }
            _ => {}
        }
    }
    println!("\nper-tenant downloads (delta-priced vs full-priced):");
    println!("  tenant     delta    full   frames-saved");
    for (tn, [delta, full, saved]) in &per {
        println!("  t{tn:<7} {delta:>7} {full:>7} {saved:>14}");
    }
    let joined = |counts: Vec<String>| counts.join(", ");
    let by_reason = joined(
        invalidations
            .iter()
            .map(|(r, n)| format!("{r} {n}"))
            .collect(),
    );
    let by_reason = if by_reason.is_empty() {
        "none".into()
    } else {
        by_reason
    };
    println!("delta base invalidations: {by_reason}");
    let dist = joined(
        chains
            .iter()
            .map(|(len, n)| format!("{len} x{n}"))
            .collect(),
    );
    println!(
        "delta checkpoints: {delta_ckpts} delta captures, {full_anchors} full anchors; \
         chain lengths between anchors {{{dist}}}, open chain {open_chain}"
    );
    if let Some(d) = &report.delta {
        println!(
            "delta totals: {} delta / {} full downloads, {} frames written \
             ({} saved), {} invalidations",
            d.delta_downloads, d.full_downloads, d.frames_written, d.frames_saved, d.invalidations,
        );
    }
}

/// Per-tenant deadline outcomes (tasks zipped with their specs) and the
/// miss-latency quantiles.
fn deadline_table(specs: &[TaskSpec], report: &Report) {
    println!("\nper-tenant deadline outcomes:");
    println!("  tenant    admitted   unsched     shed  missed");
    let tenants: BTreeSet<u32> = specs.iter().map(|sp| sp.tenant).collect();
    for &tn in &tenants {
        let mine = || {
            let tasks = specs.iter().zip(&report.tasks);
            tasks.filter(move |(sp, _)| sp.tenant == tn)
        };
        let unsched = mine().filter(|(_, t)| t.unschedulable).count();
        let shed = mine()
            .filter(|(_, t)| t.rejected && !t.unschedulable)
            .count();
        let missed = mine().filter(|(_, t)| t.deadline_missed).count();
        let admitted = mine().count() - unsched - shed;
        println!("  t{tn:<7} {admitted:>9} {unsched:>9} {shed:>8} {missed:>7}");
    }
    let mut miss_lat = LogHistogram::new();
    for (sp, t) in specs.iter().zip(&report.tasks) {
        if t.deadline_missed {
            let dl = sp.absolute_deadline().expect("missed implies deadline");
            miss_lat.record((t.completion - dl).as_nanos());
        }
    }
    if miss_lat.count() > 0 {
        let q = quantiles(&miss_lat, "misses");
        println!("miss latency (completion past deadline): {q}");
    } else {
        println!("miss latency: no deadline misses");
    }
}

/// The span tree, the collapsed stacks and the latency quantiles.
fn profile_views(spans: &span::SpanProfile, report: &Report) {
    println!("\n## host spans (wall clock, inclusive/exclusive)\n");
    print!("{}", spans.render_tree());
    println!("\n## collapsed stacks (flamegraph.pl / inferno format)\n");
    print!("{}", spans.collapsed());
    let Some(lat) = &report.latency else { return };
    println!("\n## simulated latency histograms (ns, log-bucketed)\n");
    println!(
        "label                      count          p50          p90          p99          max"
    );
    for (label, h) in lat.iter() {
        let q = |p| bench::report::fmt_ns(h.quantile_ns(p));
        let max = bench::report::fmt_ns(h.max_ns());
        let (p50, p90, p99) = (q(0.5), q(0.9), q(0.99));
        println!(
            "{label:<24} {:>7} {p50:>12} {p90:>12} {p99:>12} {max:>12}",
            h.count()
        );
    }
}

/// `--section fleet`: a 3-device fleet of dynload shards under a seeded
/// device-crash plan and a live-migration plan, and its timelines.
fn fleet_view(args: &Args) {
    let spec = fpga::device::part("VF400");
    let (lib, ids, sw) =
        bench::setup::compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec);
    let timing = bench::setup::serial_fast(spec);
    let specs = bench::setup::fleet_specs(&ids, args.seed, 3);
    let cfg = FleetConfig::new(3)
        .with_placement(PlacementPolicy::Affinity)
        .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(1)))
        .with_device_faults(DeviceFaultPlan {
            seed: args.seed,
            crash_rate_per_s: 120.0,
            outage: SimDuration::from_millis(2),
            max_crashes: 3,
        })
        .with_migrations(MigrationPlan {
            seed: args.seed,
            rate_per_s: 150.0,
            max_migrations: 2,
            delta_copy: false,
            crash: None,
        });
    let shards = bench::exp::e19_fleet::shard_builder(lib, Arc::new(sw), timing);
    let fleet = run_fleet(&cfg, specs.clone(), shards).expect("fleet runs");

    // Fleet traces hold fleet events only: no section filters; --tag may.
    let by_tag = list(&fleet.trace, &args.filter(), args);
    println!("\nevents by tag ({} total):", fleet.trace.len());
    for (tag, n) in &by_tag {
        println!("  {tag:<12} {n}");
    }
    device_timeline(&fleet.trace, cfg.devices);
    tenant_outcomes(&fleet, &specs);
    migration_timeline(&fleet.trace);
    fleet_totals(&fleet);
}

/// `step`'s lines for the events it picks (`at` in ms), by the id it gives.
fn timeline(
    trace: &Trace,
    step: impl Fn(&TraceEvent, f64) -> Option<(u32, String)>,
) -> BTreeMap<u32, Vec<String>> {
    let mut lines: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for e in trace.entries() {
        if let Some((id, line)) = step(&e.event, e.at.as_secs_f64() * 1e3) {
            lines.entry(id).or_default().push(line);
        }
    }
    lines
}

/// Per-device availability: each crash with the rejoin that follows it.
fn device_timeline(trace: &Trace, devices: u32) {
    println!("\nper-device crash/rejoin timeline:");
    let history = timeline(trace, |event, at| match *event {
        TraceEvent::DeviceCrash { device, outage } => {
            let down = outage.as_secs_f64() * 1e3;
            Some((device, format!("down @ {at:.3} ms for {down:.3} ms")))
        }
        TraceEvent::DeviceRejoin { device } => Some((device, format!("rejoin @ {at:.3} ms"))),
        _ => None,
    });
    for d in 0..devices {
        match history.get(&d) {
            Some(steps) => println!("  device {d}: {}", steps.join("; ")),
            None => println!("  device {d}: up for the whole run"),
        }
    }
}

/// Per-tenant outcomes: the shard's history, lost tasks from the merged
/// per-task table (workload order, zippable with the specs).
fn tenant_outcomes(fleet: &FleetReport, specs: &[TaskSpec]) {
    println!("\nper-tenant failover/migration outcomes:");
    println!("  tenant   shard   home      final failovers   rebal tasks  lost");
    for sh in &fleet.shards {
        for &tn in &sh.tenants {
            let mine = || {
                let tasks = specs.iter().zip(&fleet.merged.tasks);
                tasks.filter(move |(sp, _)| sp.tenant == tn)
            };
            let lost = mine().filter(|(_, t)| t.lost_in_flight).count();
            let host = sh.final_host.map(|d| d.0.to_string());
            println!(
                "  t{tn:<7} {:>5} {:>6} {:>10} {:>9} {:>7} {:>5} {lost:>5}",
                sh.shard,
                sh.home.0,
                host.unwrap_or_else(|| "software".into()),
                sh.failovers,
                sh.rebalances,
                mine().count(),
            );
        }
    }
}

/// Per-tenant migration phases, and where an aborted attempt died.
fn migration_timeline(trace: &Trace) {
    println!("\nper-tenant migration phase timeline:");
    let phases = timeline(trace, |event, at| match *event {
        TraceEvent::MigrationPrepare {
            tenant,
            from_device: from,
            to_device: to,
            tasks,
        } => Some((
            tenant,
            format!("prepare @ {at:.3} ms dev {from} -> dev {to} ({tasks} tasks)"),
        )),
        TraceEvent::MigrationCommit { tenant, redo, .. } => {
            let redo = redo.as_secs_f64() * 1e3;
            Some((tenant, format!("commit @ {at:.3} ms (redo {redo:.3} ms)")))
        }
        TraceEvent::MigrationAbort { tenant, reason, .. } => {
            Some((tenant, format!("abort @ {at:.3} ms ({reason})")))
        }
        TraceEvent::MigrationFreed {
            tenant,
            claims,
            redone,
            ..
        } => {
            let redone = if redone { ", redone by replay" } else { "" };
            Some((
                tenant,
                format!("freed @ {at:.3} ms ({claims} claims{redone})"),
            ))
        }
        _ => None,
    });
    if phases.is_empty() {
        println!("  no live migrations this run");
    }
    for (tn, steps) in &phases {
        println!("  t{tn}: {}", steps.join("; "));
    }
}

/// The fleet counters, the migration-latency quantiles and the run line.
fn fleet_totals(fleet: &FleetReport) {
    let st = fleet.stats;
    println!(
        "\nfleet: {} device crashes, {} rejoins, {} failovers ({} claims migrated), \
         {} rebalances, {} tenant migrations ({} aborted, {} frees redone), \
         {} backoff retries, {} software fallbacks, {} lost in flight, \
         {:.3} ms redone",
        st.device_crashes,
        st.rejoins,
        st.failovers,
        st.migrated_claims,
        st.rebalances,
        st.tenant_migrations,
        st.migration_aborts,
        st.migration_redone_frees,
        st.backoff_retries,
        st.software_fallbacks,
        st.lost_in_flight,
        st.redo_time.as_secs_f64() * 1e3,
    );
    if fleet.migration_lat.count() > 0 {
        let q = quantiles(&fleet.migration_lat, "migrations");
        println!("migration latency (redo window + backoff): {q}");
    } else {
        println!("migration latency: no migrations");
    }
    println!("{}", run_line(&fleet.merged));
}
