//! `trace_dump` — run a representative traced simulation and dump the
//! typed event stream.
//!
//! The workload is the E4 mix (12 Poisson tasks on a VF800 under variable
//! partitioning with save/restore preemption) — it exercises every event
//! kind the managers emit: task lifecycle, dispatches, downloads,
//! preemptions, and GC.
//!
//! Usage: `trace_dump [--section NAME]... [--tag TAG]... [--limit N]
//! [--seed S] [--summary]`
//!
//! * `--section NAME` — enable one of the optional subsystems
//!   (repeatable, combine freely):
//!   - `faults` — attach a deterministic fault injector (download
//!     corruption + SEUs + 2ms scrubbing) so the recovery events appear
//!     (tags fault-inj/crc/scrub/retry/task-fail/col-retire/recover).
//!   - `checkpoints` — run under periodic checkpoints with seeded host
//!     crashes and journaled restore, and (unless `--tag` is given)
//!     filter the listing to the ckpt/crash/replay events. The printed
//!     trace covers the final segment — earlier segments died with their
//!     crashed host.
//!   - `admission` — tag tasks with tenants round-robin, make the first
//!     task's first FPGA op hang, and attach an [`AdmissionPolicy`]
//!     (tight per-tenant quota, watchdog, low-watermark degradation) so
//!     the admission events appear (tags wd-arm/wd-fire/reject/
//!     quarantine/degrade; the listing filters to them unless `--tag`
//!     is given).
//!   - `delta` — enable delta reconfiguration on the partition manager
//!     and run under delta checkpoints (full anchor every 4th capture),
//!     then print the per-tenant delta-vs-full download table, the base
//!     invalidations by reason, and the delta-checkpoint chain lengths
//!     (tags delta/delta-inv/ckpt-delta; the listing filters to them
//!     unless `--tag` is given). Composes with `faults` (scrub repairs
//!     invalidate bases) and `checkpoints` (crashes drop every base).
//!   - `fleet` — run a 3-device fleet of dynload shards under a seeded
//!     device-crash plan *and* a live-migration plan instead of the
//!     single-device engine, and print the fleet-level timeline:
//!     per-device crash/rejoin history, the per-tenant
//!     failover/migration outcome table, the per-tenant migration phase
//!     timeline (prepare/commit/freed, and aborts with their
//!     crash-window reason), and migration-latency quantiles (tags
//!     dev-crash/dev-rejoin/failover/sw-failover/rebalance/lost/
//!     mig-prepare/mig-commit/mig-abort/mig-freed). Does not compose
//!     with the single-device sections.
//!   - `profile` — record host spans and simulated latency histograms
//!     during the run, then print the span tree (inclusive/exclusive
//!     wall time), a flamegraph-compatible collapsed-stack export, and
//!     per-label latency quantiles after the event summary.
//! * `--faults`, `--checkpoints`, `--admission`, `--fleet`, `--profile`
//!   — aliases for the matching `--section NAME`.
//! * `--tag TAG` — print only events whose tag matches (repeatable;
//!   base tags: arrive/ready/run/block/fail/done/dispatch/config/
//!   preempt/gc/fault/overlay/iomux/custom, plus the per-section tags
//!   listed above).
//! * `--limit N` — print at most N events (default 200; `0` = unlimited).
//! * `--seed S`  — workload seed (default 0xE04).
//! * `--summary` — skip the event listing, print only the per-tag counts
//!   (and, with `--section profile`, the profile views).

use fsim::{span, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use vfpga::manager::partition::PartitionManager;
use vfpga::{
    run_fleet, run_with_crashes_traced, AdmissionPolicy, CheckpointConfig, CircuitLib, CrashPlan,
    DegradationConfig, DeviceFaultPlan, FaultPlan, FleetConfig, MigrationPlan, PlacementPolicy,
    RecoveryPolicy, RoundRobinScheduler, RunOutcome, SchedulabilityConfig, System, SystemImage,
    WatchdogConfig,
};
use workload::{poisson_tasks, tenant_tasks, Domain, MixParams, TenantMixParams};

/// Optional subsystems `--section` can enable, with their help blurbs.
const SECTIONS: &[(&str, &str)] = &[
    ("faults", "fault injection + scrubbing recovery events"),
    (
        "checkpoints",
        "periodic checkpoints, host crashes, journal replay",
    ),
    ("admission", "tenant quotas, watchdogs, degraded dispatch"),
    (
        "deadlines",
        "schedulability gate, per-tenant deadline outcomes",
    ),
    (
        "delta",
        "delta downloads, ghost invalidations, delta checkpoints",
    ),
    (
        "fleet",
        "multi-device crashes, failovers, live-migration phase timelines, migration latency",
    ),
    (
        "profile",
        "host span tree, collapsed stacks, latency histograms",
    ),
];

struct Args {
    tags: Vec<String>,
    limit: usize,
    seed: u64,
    summary_only: bool,
    sections: Vec<String>,
}

impl Args {
    fn section(&self, name: &str) -> bool {
        self.sections.iter().any(|s| s == name)
    }
}

fn usage() -> String {
    let mut out = String::from(
        "usage: trace_dump [--section NAME]... [--tag TAG]... [--limit N] [--seed S] \
         [--summary]\n\nsections (repeatable; --faults/--checkpoints/--admission/--deadlines/\
         --delta/--fleet/--profile are aliases):\n",
    );
    for (name, blurb) in SECTIONS {
        out.push_str(&format!("  {name:<12} {blurb}\n"));
    }
    out
}

fn parse_args() -> Args {
    let mut out = Args {
        tags: Vec::new(),
        limit: 200,
        seed: 0xE04,
        summary_only: false,
        sections: Vec::new(),
    };
    let push_section = |sections: &mut Vec<String>, name: &str| {
        if !sections.iter().any(|s| s == name) {
            sections.push(name.to_string());
        }
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} requires a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--tag" => {
                let t = value("--tag");
                out.tags.push(t);
            }
            "--limit" => {
                out.limit = value("--limit").parse().unwrap_or_else(|e| {
                    eprintln!("--limit: {e}");
                    std::process::exit(2);
                });
            }
            "--seed" => {
                out.seed = value("--seed").parse().unwrap_or_else(|e| {
                    eprintln!("--seed: {e}");
                    std::process::exit(2);
                });
            }
            "--summary" => out.summary_only = true,
            "--section" => {
                let name = value("--section");
                if !SECTIONS.iter().any(|(s, _)| *s == name) {
                    eprintln!("unknown section {name:?}\n\n{}", usage());
                    std::process::exit(2);
                }
                push_section(&mut out.sections, &name);
            }
            // Pre-`--section` spellings, kept as aliases.
            "--faults" => push_section(&mut out.sections, "faults"),
            "--checkpoints" => push_section(&mut out.sections, "checkpoints"),
            "--admission" => push_section(&mut out.sections, "admission"),
            "--deadlines" => push_section(&mut out.sections, "deadlines"),
            "--delta" => push_section(&mut out.sections, "delta"),
            "--fleet" => push_section(&mut out.sections, "fleet"),
            "--profile" => push_section(&mut out.sections, "profile"),
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument {other} (see --help)");
                std::process::exit(2);
            }
        }
    }
    out
}

fn main() {
    let args = parse_args();
    if args.section("fleet") {
        // The fleet view runs its own multi-device harness (run_fleet
        // replaces the single-system engine), so it does not compose
        // with the single-device sections.
        fleet_view(&args);
        return;
    }
    let profile = args.section("profile");

    // The delta view runs the same mix on a quarter-size part: VF800
    // holds the whole suite resident, and a fabric that never evicts
    // never reloads over a ghost, so no download would ever go delta.
    // The delta view runs on a tenth-size part: a fabric with room for
    // the whole working set never evicts, and a fabric that never evicts
    // never reloads over a ghost, so no download would ever go delta.
    let spec = fpga::device::part(if args.section("delta") {
        "VF100"
    } else {
        "VF800"
    });
    let (lib, ids, sw) =
        bench::setup::compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec);
    // The delta view also swaps the suite for a circuit family: delta
    // downloads need the incoming circuit to land on the ghost of a
    // similar predecessor, so the workload rotates four half-similar
    // drop-in variants of one full-height multiplier through the same
    // few columns instead of mixing unrelated apps.
    let (lib, ids) = if args.section("delta") {
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
    let timing = bench::setup::serial_fast(spec);
    let mix = MixParams {
        tasks: 12,
        mean_interarrival: SimDuration::from_millis(2),
        mean_cpu_burst: SimDuration::from_millis(3),
        fpga_ops_per_task: 6,
        cycles: (100_000, 500_000),
    };
    let specs = {
        let mut rng = SimRng::new(args.seed);
        if args.section("admission") || args.section("deadlines") || args.section("delta") {
            // Tenant-tagged variant of the same arrival process. The
            // admission section adds one deliberately hanging op so the
            // watchdog has work to do; the deadlines section jitters the
            // deadlines so the schedulability gate sees a mixed bag; the
            // delta section only needs the tenant tags for its table.
            tenant_tasks(
                &TenantMixParams {
                    base: mix,
                    tenants: 3,
                    // The deadlines view runs looser deadlines than the
                    // admission one so the gate refuses some tasks and
                    // admits others instead of refusing nearly all.
                    deadline: if args.section("deadlines") {
                        Some(SimDuration::from_millis(90))
                    } else if args.section("admission") {
                        Some(SimDuration::from_millis(50))
                    } else {
                        None
                    },
                    hang_tasks: if args.section("admission") { 1 } else { 0 },
                    deadline_spread: if args.section("deadlines") { 0.4 } else { 0.0 },
                    ..Default::default()
                },
                &ids,
                &mut rng,
            )
        } else {
            poisson_tasks(&mix, &ids, &mut rng)
        }
    };
    // The run consumes the system, manager and event queue included;
    // their routing and traffic counters stay out of the report, so a
    // probe carries them past the run.
    let run_stats = Arc::new(Mutex::new((
        pnr::RouteStats::default(),
        fsim::QueueStats::default(),
    )));
    let build = || {
        let mut mgr = bench::setup::variable_partitions(&lib, timing);
        if args.section("delta") {
            mgr.enable_delta();
        }
        let mut sys = System::new(
            lib.clone(),
            mgr,
            RoundRobinScheduler::new(SimDuration::from_millis(10)),
            bench::setup::save_restore(),
            specs.clone(),
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
        if args.section("admission") || args.section("deadlines") {
            // The deadlines section arms the schedulability gate; the
            // admission extras (watchdog, degradation) ride along only
            // when that section is also on, so each view stays focused.
            let policy = AdmissionPolicy {
                max_in_flight: 2,
                queue_cap: 2,
                watchdog: if args.section("admission") {
                    Some(WatchdogConfig {
                        slack: 2.0,
                        max_trips: 2,
                    })
                } else {
                    None
                },
                degradation: if args.section("admission") {
                    Some(DegradationConfig {
                        watermark: 0.05,
                        sw_ns_per_cycle: sw.clone(),
                        ..Default::default()
                    })
                } else {
                    None
                },
                schedulability: if args.section("deadlines") {
                    Some(SchedulabilityConfig { margin: 1.0 })
                } else {
                    None
                },
            };
            sys = sys.with_admission(policy).expect("policy validates");
        }
        if args.section("delta") && !args.section("checkpoints") {
            // The crash harness below installs its own checkpoint config;
            // standalone delta runs attach one here so the delta-capture
            // chain (full anchor every 4th) shows up in the trace.
            sys = sys
                .with_checkpoints(
                    CheckpointConfig::new(SimDuration::from_millis(5)).with_delta_checkpoints(4),
                )
                .expect("partition manager snapshots");
        }
        if profile {
            sys = sys.with_latency_profile();
        }
        let seen = Arc::clone(&run_stats);
        sys.with_run_probe(move |m: &PartitionManager, queue| {
            *seen.lock().expect("probe runs on this thread") = (m.route_stats(), queue);
        })
    };
    let mut tags = args.tags.clone();
    if args.section("admission") && tags.is_empty() && !args.section("checkpoints") {
        // The advertised filter: only the admission-control stream.
        tags = ["wd-arm", "wd-fire", "reject", "quarantine", "degrade"]
            .map(String::from)
            .to_vec();
    } else if args.section("deadlines") && tags.is_empty() && !args.section("checkpoints") {
        // The deadline stream: refusals at the door plus quota sheds.
        tags = ["unsched", "reject"].map(String::from).to_vec();
    } else if args.section("delta") && tags.is_empty() && !args.section("checkpoints") {
        // The advertised filter: only the delta-reconfiguration stream.
        tags = ["delta", "delta-inv", "ckpt-delta"]
            .map(String::from)
            .to_vec();
    }
    let ckpt_cfg = {
        let cfg = CheckpointConfig::new(SimDuration::from_millis(5));
        if args.section("delta") {
            cfg.with_delta_checkpoints(4)
        } else {
            cfg
        }
    };
    let run = || {
        if args.section("checkpoints") {
            let plan = CrashPlan {
                seed: args.seed,
                crash_rate_per_s: 25.0,
                max_crashes: 3,
            };
            run_with_crashes_traced(build, ckpt_cfg, plan).expect("deadlock")
        } else {
            build().with_trace().run_traced().expect("deadlock")
        }
    };
    if args.section("checkpoints") && tags.is_empty() {
        // The advertised filter: only the crash-consistency stream,
        // widened to the delta stream when both sections are on.
        tags = vec!["ckpt".into(), "crash".into(), "replay".into()];
        if args.section("delta") {
            tags.extend(["delta", "delta-inv", "ckpt-delta"].map(String::from));
        }
    }
    let ((report, trace), spans) = if profile {
        span::scoped(run)
    } else {
        (run(), span::SpanProfile::new())
    };

    let mut by_tag: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut printed = 0usize;
    let mut matched = 0usize;
    for e in trace.entries() {
        let tag = e.tag();
        *by_tag.entry(tag).or_insert(0) += 1;
        if !tags.is_empty() && !tags.iter().any(|t| t == tag) {
            continue;
        }
        matched += 1;
        if !args.summary_only && (args.limit == 0 || printed < args.limit) {
            println!("{e}");
            printed += 1;
        }
    }
    if !args.summary_only && matched > printed {
        println!(
            "... {} more matching events (raise --limit)",
            matched - printed
        );
    }

    println!(
        "\nevents by tag ({} total, {} dropped by ring buffer):",
        trace.len(),
        trace.dropped()
    );
    for (tag, n) in &by_tag {
        println!("  {tag:<10} {n}");
    }
    println!(
        "\nrun: makespan {:.3} s, {} tasks, overhead fraction {:.1}%",
        report.makespan.as_secs_f64(),
        report.tasks.len(),
        report.overhead_fraction() * 100.0
    );
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
    let (r, q) = *run_stats.lock().expect("probe ran on this thread");
    let since = if args.section("checkpoints") {
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
    if args.section("checkpoints") {
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
        // What one checkpoint weighs in each of its two forms: cut a
        // probe run halfway and size the image it leaves behind.
        let halfway = SimTime::ZERO + SimDuration::from_nanos(report.makespan.as_nanos() / 2);
        let probe = build()
            .with_checkpoints(ckpt_cfg)
            .expect("partition manager snapshots")
            .run_until(Some(halfway))
            .expect("deadlock");
        if let RunOutcome::Crashed(state) = probe {
            if let Some(image) = &state.image {
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
        }
    }
    if args.section("delta") {
        // Per-tenant download split: every download is exactly one of
        // DeltaDownload (priced as a frame diff) or ConfigDownload
        // (full-price), and the event's task id indexes the spec list.
        #[derive(Default)]
        struct TenantDl {
            delta: u64,
            full: u64,
            saved: u64,
        }
        let mut per: BTreeMap<u32, TenantDl> = BTreeMap::new();
        let mut invalidations: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut chains: Vec<u32> = Vec::new();
        let mut open_chain = 0u32;
        let mut full_anchors = 0u64;
        let mut delta_ckpts = 0u64;
        for e in trace.entries() {
            match &e.event {
                fsim::TraceEvent::DeltaDownload {
                    task,
                    frames,
                    full_frames,
                    ..
                } => {
                    let tn = specs.get(*task as usize).map(|sp| sp.tenant).unwrap_or(0);
                    let t = per.entry(tn).or_default();
                    t.delta += 1;
                    t.saved += full_frames.saturating_sub(*frames) as u64;
                }
                fsim::TraceEvent::ConfigDownload { task, .. } => {
                    let tn = specs.get(*task as usize).map(|sp| sp.tenant).unwrap_or(0);
                    per.entry(tn).or_default().full += 1;
                }
                fsim::TraceEvent::DeltaInvalidate { reason, .. } => {
                    *invalidations.entry(reason).or_insert(0) += 1;
                }
                fsim::TraceEvent::DeltaCheckpoint { chain, .. } => {
                    delta_ckpts += 1;
                    open_chain = *chain;
                }
                fsim::TraceEvent::CheckpointTaken { .. } => {
                    full_anchors += 1;
                    if full_anchors > 1 || open_chain > 0 {
                        chains.push(open_chain);
                    }
                    open_chain = 0;
                }
                _ => {}
            }
        }
        println!("\nper-tenant downloads (delta-priced vs full-priced):");
        println!(
            "  {:<8} {:>7} {:>7} {:>14}",
            "tenant", "delta", "full", "frames-saved"
        );
        for (tn, t) in &per {
            println!("  t{tn:<7} {:>7} {:>7} {:>14}", t.delta, t.full, t.saved);
        }
        if invalidations.is_empty() {
            println!("delta base invalidations: none");
        } else {
            let by_reason: Vec<String> = invalidations
                .iter()
                .map(|(r, n)| format!("{r} {n}"))
                .collect();
            println!("delta base invalidations: {}", by_reason.join(", "));
        }
        // Chain lengths: deltas taken between consecutive full anchors,
        // as a `length x count` distribution (the final chain may still
        // be open when the run ends). Anything shorter than `k - 1`
        // means a dirty-fabric event forced an early anchor.
        let mut chain_dist: BTreeMap<u32, u64> = BTreeMap::new();
        for c in &chains {
            *chain_dist.entry(*c).or_insert(0) += 1;
        }
        let dist = chain_dist
            .iter()
            .map(|(len, n)| format!("{len} x{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "delta checkpoints: {delta_ckpts} delta captures, {full_anchors} full anchors; \
             chain lengths between anchors {{{dist}}}, open chain {open_chain}"
        );
        if let Some(d) = &report.delta {
            println!(
                "delta totals: {} delta / {} full downloads, {} frames written \
                 ({} saved), {} invalidations",
                d.delta_downloads,
                d.full_downloads,
                d.frames_written,
                d.frames_saved,
                d.invalidations,
            );
        }
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
        // Per-tenant deadline outcomes: the report's task table zipped
        // with the specs (same order) for the deadline each task carried.
        println!("\nper-tenant deadline outcomes:");
        println!(
            "  {:<8} {:>9} {:>9} {:>8} {:>7}",
            "tenant", "admitted", "unsched", "shed", "missed"
        );
        let tenants: std::collections::BTreeSet<u32> = specs.iter().map(|sp| sp.tenant).collect();
        for &tn in &tenants {
            let mine = || {
                specs
                    .iter()
                    .zip(&report.tasks)
                    .filter(move |(sp, _)| sp.tenant == tn)
            };
            let unsched = mine().filter(|(_, t)| t.unschedulable).count();
            let shed = mine()
                .filter(|(_, t)| t.rejected && !t.unschedulable)
                .count();
            let missed = mine().filter(|(_, t)| t.deadline_missed).count();
            let admitted = mine().count() - unsched - shed;
            println!("  t{tn:<7} {admitted:>9} {unsched:>9} {shed:>8} {missed:>7}");
        }
        let mut miss_lat = fsim::LogHistogram::new();
        for (sp, t) in specs.iter().zip(&report.tasks) {
            if t.deadline_missed {
                let dl = sp.absolute_deadline().expect("missed implies deadline");
                miss_lat.record((t.completion - dl).as_nanos());
            }
        }
        if miss_lat.count() > 0 {
            println!(
                "miss latency (completion past deadline): p50 {}, p90 {}, max {} \
                 ({} misses)",
                bench::report::fmt_ns(miss_lat.quantile_ns(0.50)),
                bench::report::fmt_ns(miss_lat.quantile_ns(0.90)),
                bench::report::fmt_ns(miss_lat.max_ns()),
                miss_lat.count(),
            );
        } else {
            println!("miss latency: no deadline misses");
        }
    }
    if profile {
        println!("\n## host spans (wall clock, inclusive/exclusive)\n");
        print!("{}", spans.render_tree());
        println!("\n## collapsed stacks (flamegraph.pl / inferno format)\n");
        print!("{}", spans.collapsed());
        if let Some(lat) = &report.latency {
            println!("\n## simulated latency histograms (ns, log-bucketed)\n");
            println!(
                "{:<24} {:>7} {:>12} {:>12} {:>12} {:>12}",
                "label", "count", "p50", "p90", "p99", "max"
            );
            for (label, h) in lat.iter() {
                println!(
                    "{:<24} {:>7} {:>12} {:>12} {:>12} {:>12}",
                    label,
                    h.count(),
                    bench::report::fmt_ns(h.quantile_ns(0.50)),
                    bench::report::fmt_ns(h.quantile_ns(0.90)),
                    bench::report::fmt_ns(h.quantile_ns(0.99)),
                    bench::report::fmt_ns(h.max_ns()),
                );
            }
        }
    }
}

/// `--section fleet`: run a 3-device fleet of dynload shards under a
/// seeded device-crash plan and dump the fleet-level timeline — device
/// crashes/rejoins per device, the per-tenant failover/migration
/// outcome table, and migration-latency quantiles.
fn fleet_view(args: &Args) {
    let spec = fpga::device::part("VF400");
    let (lib, ids, sw) =
        bench::setup::compile_suite_lib_sw(&[Domain::Telecom, Domain::Storage], spec);
    let sw = std::sync::Arc::new(sw);
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
    let shards = bench::exp::e19_fleet::shard_builder(lib.clone(), sw.clone(), timing);
    let fleet = run_fleet(&cfg, specs.clone(), shards).expect("fleet runs");

    // The fleet trace carries only fleet-level events, so the default
    // listing is unfiltered; --tag still narrows it.
    let mut by_tag: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut printed = 0usize;
    let mut matched = 0usize;
    for e in fleet.trace.entries() {
        let tag = e.tag();
        *by_tag.entry(tag).or_insert(0) += 1;
        if !args.tags.is_empty() && !args.tags.iter().any(|t| t == tag) {
            continue;
        }
        matched += 1;
        if !args.summary_only && (args.limit == 0 || printed < args.limit) {
            println!("{e}");
            printed += 1;
        }
    }
    if !args.summary_only && matched > printed {
        println!(
            "... {} more matching events (raise --limit)",
            matched - printed
        );
    }
    println!("\nevents by tag ({} total):", fleet.trace.len());
    for (tag, n) in &by_tag {
        println!("  {tag:<12} {n}");
    }

    // Per-device availability timeline, assembled by pairing each crash
    // with the rejoin that follows it on the same device.
    println!("\nper-device crash/rejoin timeline:");
    let mut devices: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for d in 0..cfg.devices {
        devices.entry(d).or_default();
    }
    for e in fleet.trace.entries() {
        match e.event {
            fsim::TraceEvent::DeviceCrash { device, outage } => {
                devices.entry(device).or_default().push(format!(
                    "down @ {:.3} ms for {:.3} ms",
                    e.at.as_secs_f64() * 1e3,
                    outage.as_secs_f64() * 1e3
                ));
            }
            fsim::TraceEvent::DeviceRejoin { device } => {
                devices
                    .entry(device)
                    .or_default()
                    .push(format!("rejoin @ {:.3} ms", e.at.as_secs_f64() * 1e3));
            }
            _ => {}
        }
    }
    for (d, events) in &devices {
        if events.is_empty() {
            println!("  device {d}: up for the whole run");
        } else {
            println!("  device {d}: {}", events.join("; "));
        }
    }

    // Per-tenant outcomes: each tenant inherits its shard's migration
    // history; lost tasks come from the merged per-task table (original
    // workload order, zippable with the specs).
    println!("\nper-tenant failover/migration outcomes:");
    println!(
        "  {:<8} {:>5} {:>6} {:>10} {:>9} {:>7} {:>5} {:>5}",
        "tenant", "shard", "home", "final", "failovers", "rebal", "tasks", "lost"
    );
    for sh in &fleet.shards {
        for &tn in &sh.tenants {
            let mine = || {
                specs
                    .iter()
                    .zip(&fleet.merged.tasks)
                    .filter(move |(sp, _)| sp.tenant == tn)
            };
            let lost = mine().filter(|(_, t)| t.lost_in_flight).count();
            println!(
                "  t{tn:<7} {:>5} {:>6} {:>10} {:>9} {:>7} {:>5} {:>5}",
                sh.shard,
                sh.home.0,
                sh.final_host
                    .map(|d| d.0.to_string())
                    .unwrap_or_else(|| "software".into()),
                sh.failovers,
                sh.rebalances,
                mine().count(),
                lost,
            );
        }
    }

    // Per-tenant migration phase timeline: the four mig-* events carry
    // the tenant id, so the two-phase protocol's progress — and where an
    // aborted attempt died — reads off chronologically per tenant.
    println!("\nper-tenant migration phase timeline:");
    let mut phases: BTreeMap<u32, Vec<String>> = BTreeMap::new();
    for e in fleet.trace.entries() {
        let at_ms = e.at.as_secs_f64() * 1e3;
        match e.event {
            fsim::TraceEvent::MigrationPrepare {
                tenant,
                from_device,
                to_device,
                tasks,
            } => phases.entry(tenant).or_default().push(format!(
                "prepare @ {at_ms:.3} ms dev {from_device} -> dev {to_device} ({tasks} tasks)"
            )),
            fsim::TraceEvent::MigrationCommit { tenant, redo, .. } => {
                phases.entry(tenant).or_default().push(format!(
                    "commit @ {at_ms:.3} ms (redo {:.3} ms)",
                    redo.as_secs_f64() * 1e3
                ));
            }
            fsim::TraceEvent::MigrationAbort { tenant, reason, .. } => phases
                .entry(tenant)
                .or_default()
                .push(format!("abort @ {at_ms:.3} ms ({reason})")),
            fsim::TraceEvent::MigrationFreed {
                tenant,
                claims,
                redone,
                ..
            } => phases.entry(tenant).or_default().push(format!(
                "freed @ {at_ms:.3} ms ({claims} claims{})",
                if redone { ", redone by replay" } else { "" }
            )),
            _ => {}
        }
    }
    if phases.is_empty() {
        println!("  no live migrations this run");
    }
    for (tn, steps) in &phases {
        println!("  t{tn}: {}", steps.join("; "));
    }

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
    let lat = &fleet.migration_lat;
    if lat.count() > 0 {
        println!(
            "migration latency (redo window + backoff): p50 {}, p90 {}, max {} \
             ({} migrations)",
            bench::report::fmt_ns(lat.quantile_ns(0.50)),
            bench::report::fmt_ns(lat.quantile_ns(0.90)),
            bench::report::fmt_ns(lat.max_ns()),
            lat.count(),
        );
    } else {
        println!("migration latency: no migrations");
    }
    println!(
        "run: makespan {:.3} s, {} tasks, overhead fraction {:.1}%",
        fleet.merged.makespan.as_secs_f64(),
        fleet.merged.tasks.len(),
        fleet.merged.overhead_fraction() * 100.0
    );
}
