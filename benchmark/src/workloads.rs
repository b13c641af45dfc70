//! The four simulated workloads. Sizes live in [`Sizes`]; why each
//! workload exists is recorded in `BENCHMARK.json` and the README.

use crate::sim::{build_library, softwareize, summarize, Library, Outcome};
use crate::timed::{Plain, Wrap};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use vfpga_repro::fpga;
use vfpga_repro::fsim::json::Json;
use vfpga_repro::fsim::{EventQueue, SimDuration, SimRng, SimTime};
use vfpga_repro::vfpga::manager::dynload::DynLoadManager;
use vfpga_repro::vfpga::manager::partition::{PartitionManager, PartitionMode};
use vfpga_repro::vfpga::{
    diff_reports, run_fleet, run_with_crashes, AdmissionPolicy, CheckpointConfig, CrashPlan,
    CrashState, DeviceFaultPlan, EdfScheduler, FleetConfig, FleetReport, FleetStats, MigrationPlan,
    PlacementPolicy, PreemptAction, Report, RoundRobinScheduler, RunOutcome, SchedulabilityConfig,
    ShardCtx, System, SystemConfig, TaskSpec, VfpgaError,
};
use vfpga_repro::workload::{poisson_tasks, tenant_tasks, MixParams, TenantMixParams};

/// Per-layer values by metric name.
pub type Layer = BTreeMap<&'static str, f64>;

/// Input sizes. [`Sizes::reference`] is what every recorded number uses;
/// [`Sizes::tiny`] exists for `--check`.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub stream_tasks: usize,
    pub churn_tasks: usize,
    pub durable_tasks: usize,
    /// Simulated time between checkpoint captures on `durable`.
    pub durable_ckpt_ms: u64,
    pub fleet_tasks: usize,
    pub fleet_ckpt_ms: u64,
    /// Events of the `fsim::EventQueue` probe.
    pub queue_events: u64,
    /// Pipeline rounds over the 24 `fabric` circuits.
    pub fabric_rounds: usize,
}

impl Sizes {
    pub fn reference() -> Self {
        Sizes {
            stream_tasks: 300_000,
            churn_tasks: 10_000,
            durable_tasks: 2_000,
            durable_ckpt_ms: 5_000,
            fleet_tasks: 2_000,
            fleet_ckpt_ms: 1_000,
            queue_events: 1_000_000,
            fabric_rounds: 10,
        }
    }

    pub fn tiny() -> Self {
        Sizes {
            stream_tasks: 4_000,
            churn_tasks: 300,
            durable_tasks: 100,
            durable_ckpt_ms: 1_000,
            fleet_tasks: 320,
            fleet_ckpt_ms: 1_000,
            queue_events: 20_000,
            fabric_rounds: 1,
        }
    }
}

/// Times a rep by the seconds its thread spent on a CPU
/// (`CLOCK_THREAD_CPUTIME_ID`), falling back to wall time off 64-bit
/// Linux. The benchmark is single-threaded and never blocks, so on a quiet
/// machine the two agree; on a shared one, wall time also counts whatever
/// the hypervisor or the scheduler gave to somebody else, which read as up
/// to 17 % of a rep here and changes from minute to minute.
pub struct RepClock {
    wall: Instant,
    on_cpu_ns: Option<u64>,
}

/// Nanoseconds this thread has spent on a CPU since it started.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn on_cpu_ns() -> Option<u64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout the C
    // library uses on 64-bit Linux (two 64-bit fields); `clock_gettime`
    // writes that struct and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn on_cpu_ns() -> Option<u64> {
    None
}

impl RepClock {
    pub fn start() -> Self {
        RepClock {
            on_cpu_ns: on_cpu_ns(),
            wall: Instant::now(),
        }
    }

    pub fn stop(&self) -> Took {
        let wall_ns = self.wall.elapsed().as_nanos() as u64;
        let host_ns = match (self.on_cpu_ns, on_cpu_ns()) {
            (Some(t0), Some(t1)) => t1.saturating_sub(t0),
            _ => wall_ns,
        };
        Took { host_ns, wall_ns }
    }
}

/// What a [`RepClock`] read.
#[derive(Debug, Clone, Copy)]
pub struct Took {
    /// Seconds on a CPU: what `items_per_s` and the twin differences use.
    pub host_ns: u64,
    /// Wall time, comparable with the tracer's spans.
    pub wall_ns: u64,
}

impl Took {
    pub fn host_s(&self) -> f64 {
        self.host_ns as f64 / 1e9
    }
}

/// One rep: the outcome and the host time of building and running the
/// system (input cloning and result reading excluded).
pub struct Rep {
    pub outcome: Outcome,
    pub took: Took,
    /// The run's report (the merged one on `fleet`), for `diff_reports`.
    pub report: Report,
}

impl Rep {
    fn new(report: Report, submitted: usize, fleet: Option<&FleetStats>, took: Took) -> Self {
        Rep {
            outcome: summarize(&report, submitted, fleet),
            took,
            report,
        }
    }
}

/// A benchmark workload.
pub trait Bench: Sized {
    /// Generate the inputs from the seed. Everything here is `setup_s`.
    fn setup(seed: u64, sizes: &Sizes, tracer: &Tracer) -> Self;

    /// Build the system from the generated inputs and run it once.
    fn rep<W: Wrap>(&self, wrap: &W, tracer: &Tracer) -> Result<Rep, String>;

    /// Checks that need a twin run, made once outside the timed reps.
    /// `rep_s` is the fastest untraced rep, in host seconds; values the
    /// twins yield as a by-product go into `layer`.
    fn verify(&self, _rep: &Rep, _rep_s: f64, _layer: &mut Layer) -> Vec<String> {
        Vec::new()
    }

    /// Layer probes only the traced run needs.
    fn probes(&self, _tracer: &Tracer, _rep: &Outcome, _rep_s: f64, _layer: &mut Layer) {}

    /// Share of the traced rep's wall time spent in the layer this
    /// workload exists to load.
    fn home_layer_frac(&self, tracer: &Tracer, layer: &Layer, rep_s: f64) -> f64;
}

const RR_SLICE: SimDuration = SimDuration::from_millis(10);
const SYSTEM_CONFIG: SystemConfig = SystemConfig {
    preempt: PreemptAction::SaveRestore,
    completion: vfpga_repro::vfpga::CompletionDetect::Exact,
};

fn mix(tasks: usize, mean_interarrival_ms: u64) -> MixParams {
    MixParams {
        tasks,
        mean_interarrival: SimDuration::from_millis(mean_interarrival_ms),
        mean_cpu_burst: SimDuration::from_millis(2),
        fpga_ops_per_task: 4,
        cycles: (60_000, 250_000),
    }
}

fn err(e: VfpgaError) -> String {
    e.to_string()
}

/// The system `stream`, `durable` and every `fleet` shard run: dynamic
/// loading under round-robin, policies obtained through `wrap`.
fn dynload_system<W: Wrap>(
    lib: &Library,
    wrap: &W,
    specs: Vec<TaskSpec>,
) -> System<W::M<DynLoadManager>, W::S<RoundRobinScheduler>> {
    let mgr = DynLoadManager::new(lib.lib.clone(), lib.timing, PreemptAction::SaveRestore);
    System::new(
        lib.lib.clone(),
        wrap.manager(mgr),
        wrap.sched(RoundRobinScheduler::new(RR_SLICE)),
        SYSTEM_CONFIG,
        specs,
    )
}

/// Run `f` inside the span `name`, stop `clock` when it returns, then fold
/// what the wrappers counted into that span.
fn run_span<R>(
    tracer: &Tracer,
    wrap: &impl Wrap,
    name: &'static str,
    clock: &RepClock,
    f: impl FnOnce() -> R,
) -> (R, Took) {
    let _span = tracer.span(name);
    let out = f();
    let took = clock.stop();
    wrap.fold(tracer);
    (out, took)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Call `sample` (which returns seconds it measured itself) for a fifth of
/// a second, at least five times; returns the median.
pub(crate) fn median_sampled(mut sample: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < 5 || t0.elapsed().as_secs_f64() < 0.2 {
        samples.push(sample());
    }
    crate::stats::median(&samples)
}

/// Median seconds per call of `f`, sampled as [`median_sampled`] does.
pub(crate) fn time_repeated<R>(mut f: impl FnMut() -> R) -> f64 {
    median_sampled(|| {
        let t = Instant::now();
        black_box(f());
        t.elapsed().as_secs_f64()
    })
}

// ---------------------------------------------------------------- stream

/// `stream`: one dynamic-loading, round-robin system fed a long Poisson
/// stream at a stable load. No checkpoints, faults or admission: the event
/// kernel, the scheduler and the event queue do nearly all the work.
pub struct Stream {
    lib: Library,
    specs: Vec<TaskSpec>,
    queue_events: u64,
}

impl Stream {
    fn run<W: Wrap>(
        &self,
        specs: Vec<TaskSpec>,
        wrap: &W,
        tracer: &Tracer,
    ) -> Result<(Report, Took), String> {
        let t0 = RepClock::start();
        let sys = tracer.time("vfpga.system.build", || {
            dynload_system(&self.lib, wrap, specs)
        });
        let (report, took) = run_span(tracer, wrap, "vfpga.system.run", &t0, || sys.run());
        Ok((report.map_err(err)?, took))
    }
}

impl Bench for Stream {
    fn setup(seed: u64, sizes: &Sizes, tracer: &Tracer) -> Self {
        let lib = build_library(fpga::device::part("VF400"), tracer);
        let specs = tracer.time("workload.gen", || {
            poisson_tasks(
                &mix(sizes.stream_tasks, 100),
                &lib.ids,
                &mut SimRng::new(seed),
            )
        });
        Stream {
            lib,
            specs,
            queue_events: sizes.queue_events,
        }
    }

    fn rep<W: Wrap>(&self, wrap: &W, tracer: &Tracer) -> Result<Rep, String> {
        let (report, took) = self.run(self.specs.clone(), wrap, tracer)?;
        Ok(Rep::new(report, self.specs.len(), None, took))
    }

    fn probes(&self, _tracer: &Tracer, _rep: &Outcome, rep_s: f64, layer: &mut Layer) {
        // Throughput on the first tenth of the same arrival stream over
        // throughput on all of it: 1.0 means host time is linear in tasks.
        let tenth = self.specs.len() / 10;
        let tenth_s = median_sampled(|| {
            let (_, took) = self
                .run(self.specs[..tenth].to_vec(), &Plain, &Tracer::disabled())
                .expect("stream prefix runs");
            took.host_s()
        });
        layer.insert(
            "vfpga.system.scale_ratio",
            (tenth as f64 / tenth_s) / (self.specs.len() as f64 / rep_s),
        );

        // The event queue alone, under the hold model: a steady pending
        // set, each pop scheduling one successor with the stream's
        // exponential 100 ms spread.
        let mut rng = SimRng::new(0x9E7E);
        let mut q: EventQueue<u32> = EventQueue::with_capacity(4096);
        let mut delay = || SimDuration::from_secs_f64(rng.exp(0.1).max(1e-9));
        for i in 0..4096 {
            q.schedule_in(delay(), i);
        }
        let t0 = Instant::now();
        for _ in 0..self.queue_events {
            let ev = q.pop().expect("pending set never drains");
            q.schedule_in(delay(), black_box(ev.event));
        }
        layer.insert(
            "fsim.queue_ns_per_event",
            t0.elapsed().as_nanos() as f64 / self.queue_events as f64,
        );
    }

    fn home_layer_frac(&self, tracer: &Tracer, _layer: &Layer, rep_s: f64) -> f64 {
        // Kernel self time plus the scheduler.
        let run = tracer.named("vfpga.system.run");
        let sched = tracer.leaves(|n| n.starts_with("sched."));
        secs(run.self_ns() + sched.total_ns) / rep_s
    }
}

// ----------------------------------------------------------------- churn

/// `churn`: one variable-partition system with delta reconfiguration
/// under EDF, fed tenant-tagged deadline tasks through an admission gate.
/// Same manager trait as `stream`, opposite use: split, merge, GC,
/// relocation, eviction and ghost pricing on almost every activation.
pub struct Churn {
    lib: Library,
    specs: Vec<TaskSpec>,
}

/// The admission gate is live on every arrival but sized so that nothing
/// is refused: the benchmark contract wants workloads on which no
/// operation fails, so a refusal here is a regression, not a data point.
fn churn_admission() -> AdmissionPolicy {
    AdmissionPolicy {
        max_in_flight: 64,
        queue_cap: 4096,
        watchdog: None,
        degradation: None,
        schedulability: Some(SchedulabilityConfig { margin: 1.0 }),
    }
}

impl Bench for Churn {
    fn setup(seed: u64, sizes: &Sizes, tracer: &Tracer) -> Self {
        let lib = build_library(fpga::device::part("VF400"), tracer);
        let specs = tracer.time("workload.gen", || {
            tenant_tasks(
                &TenantMixParams {
                    base: mix(sizes.churn_tasks, 80),
                    tenants: 8,
                    deadline: Some(SimDuration::from_millis(400)),
                    deadline_spread: 0.5,
                    ..Default::default()
                },
                &lib.ids,
                &mut SimRng::new(seed),
            )
        });
        Churn { lib, specs }
    }

    fn rep<W: Wrap>(&self, wrap: &W, tracer: &Tracer) -> Result<Rep, String> {
        let specs = self.specs.clone();
        let t0 = RepClock::start();
        let sys = tracer.time("vfpga.system.build", || {
            let mut mgr = PartitionManager::new(
                self.lib.lib.clone(),
                self.lib.timing,
                PartitionMode::Variable,
                PreemptAction::SaveRestore,
            )?;
            mgr.enable_delta();
            let sched = EdfScheduler::for_tasks(&specs, Some(RR_SLICE));
            System::new(
                self.lib.lib.clone(),
                wrap.manager(mgr),
                wrap.sched(sched),
                SYSTEM_CONFIG,
                specs,
            )
            .with_admission(churn_admission())
        });
        let sys = sys.map_err(err)?;
        let (report, took) = run_span(tracer, wrap, "vfpga.system.run", &t0, || sys.run());
        Ok(Rep::new(report.map_err(err)?, self.specs.len(), None, took))
    }

    fn home_layer_frac(&self, tracer: &Tracer, _layer: &Layer, rep_s: f64) -> f64 {
        secs(tracer.leaves(|n| n.starts_with("manager.")).total_ns) / rep_s
    }
}

// --------------------------------------------------------------- durable

/// `durable`: the `stream` system, short and lightly loaded, with delta
/// checkpoints and seeded host crashes. Host time is checkpoint capture,
/// JSON render and parse, WAL and replay: the write side of the checkpoint
/// layer.
pub struct Durable {
    lib: Library,
    specs: Vec<TaskSpec>,
    ckpt: CheckpointConfig,
    crashes: CrashPlan,
}

/// A capture serialises every task, so `durable` cannot afford `stream`'s
/// length. At `stream`'s load a run this short sees only a few busy
/// periods and its turnaround quantiles swing by tens of percent from seed
/// to seed; at a third of that load they repeat within a few percent.
const DURABLE_INTERARRIVAL_MS: u64 = 250;

impl Durable {
    fn build<W: Wrap>(&self, wrap: &W) -> System<W::M<DynLoadManager>, W::S<RoundRobinScheduler>> {
        dynload_system(&self.lib, wrap, self.specs.clone())
    }

    /// The durable state a crash late in the run leaves behind.
    fn late_crash_state(&self) -> Result<CrashState, String> {
        let last_arrival = self.specs.last().map_or(SimTime::ZERO, |s| s.arrival);
        let at = SimTime(last_arrival.0 / 10 * 9);
        let sys = self
            .build(&Plain)
            .with_checkpoints(self.ckpt)
            .map_err(err)?;
        match sys.run_until(Some(at)).map_err(err)? {
            RunOutcome::Crashed(state) => Ok(*state),
            RunOutcome::Completed(..) => Err("durable finished before the probe crash".into()),
        }
    }
}

impl Bench for Durable {
    fn setup(seed: u64, sizes: &Sizes, tracer: &Tracer) -> Self {
        let lib = build_library(fpga::device::part("VF400"), tracer);
        let specs = tracer.time("workload.gen", || {
            poisson_tasks(
                &mix(sizes.durable_tasks, DURABLE_INTERARRIVAL_MS),
                &lib.ids,
                &mut SimRng::new(seed),
            )
        });
        // Ten crashes over the run, whatever its length (the cap binds).
        let sim_s = (sizes.durable_tasks as u64 * DURABLE_INTERARRIVAL_MS) as f64 / 1e3;
        Durable {
            lib,
            specs,
            ckpt: CheckpointConfig::new(SimDuration::from_millis(sizes.durable_ckpt_ms))
                .with_delta_checkpoints(4),
            crashes: CrashPlan {
                seed: 0xC4A5,
                crash_rate_per_s: 20.0 / sim_s,
                max_crashes: 10,
            },
        }
    }

    fn rep<W: Wrap>(&self, wrap: &W, tracer: &Tracer) -> Result<Rep, String> {
        let t0 = RepClock::start();
        let (report, took) = run_span(tracer, wrap, "vfpga.system.run", &t0, || {
            run_with_crashes(
                || tracer.time("vfpga.system.build", || self.build(wrap)),
                self.ckpt,
                self.crashes,
            )
        });
        Ok(Rep::new(report.map_err(err)?, self.specs.len(), None, took))
    }

    fn verify(&self, rep: &Rep, rep_s: f64, layer: &mut Layer) -> Vec<String> {
        let mut bad = Vec::new();
        if rep.report.crash.crashes == 0 {
            bad.push("durable: the crash plan injected no crash".into());
        }
        // The uninterrupted twin: same checkpoints, no crashes.
        match self
            .build(&Plain)
            .with_checkpoints(self.ckpt)
            .and_then(System::run)
        {
            Ok(twin) => {
                for d in diff_reports(&twin, &rep.report) {
                    bad.push(format!("durable vs uninterrupted twin: {d}"));
                }
            }
            Err(e) => bad.push(format!("durable uninterrupted twin failed: {e}")),
        }
        // The checkpoint-free twin prices a capture: what the durable run
        // costs beyond the same system run plainly, per capture.
        let t0 = RepClock::start();
        let plain = self.build(&Plain).run();
        let plain_s = t0.stop().host_s();
        if let Err(e) = plain {
            bad.push(format!("durable checkpoint-free twin failed: {e}"));
        }
        let captures = rep.outcome.counters["vfpga.checkpoint.captures"];
        layer.insert("vfpga.checkpoint.twin_s", plain_s);
        layer.insert(
            "vfpga.checkpoint.capture_ms_mean",
            (rep_s - plain_s).max(0.0) * 1e3 / captures.max(1.0),
        );
        bad
    }

    fn probes(&self, tracer: &Tracer, _rep: &Outcome, _rep_s: f64, layer: &mut Layer) {
        let state = self.late_crash_state().expect("durable probe crash");
        let image: &Json = &state
            .image
            .as_ref()
            .expect("a late crash follows a checkpoint")
            .state;
        let text = image.render();
        let mb = text.len() as f64 / 1e6;
        layer.insert("fsim.json_image_bytes", text.len() as f64);
        layer.insert(
            "fsim.json_render_mb_per_s",
            mb / tracer.time("fsim.json.render", || time_repeated(|| image.render())),
        );
        layer.insert(
            "fsim.json_parse_mb_per_s",
            mb / tracer.time("fsim.json.parse", || {
                time_repeated(|| Json::parse(&text).expect("rendered image parses"))
            }),
        );
        // Restore into a fresh system each time; only the restore is timed.
        let restore_s = median_sampled(|| {
            let mut sys = self
                .build(&Plain)
                .with_checkpoints(self.ckpt)
                .expect("dynload snapshots");
            let t = Instant::now();
            tracer.time("vfpga.checkpoint.restore", || {
                sys.restore_from(&state).expect("image restores")
            });
            t.elapsed().as_secs_f64()
        });
        layer.insert("vfpga.checkpoint.restore_ms", restore_s * 1e3);
    }

    fn home_layer_frac(&self, _tracer: &Tracer, layer: &Layer, rep_s: f64) -> f64 {
        // Everything the run costs beyond its checkpoint-free twin.
        (rep_s - layer["vfpga.checkpoint.twin_s"]).max(0.0) / rep_s
    }
}

// ----------------------------------------------------------------- fleet

/// `fleet`: eight devices under least-loaded placement, with seeded
/// device crashes and planned live migrations. Failover, restore, replay,
/// rejoin and rebalance: the read side of the checkpoint layer.
///
/// The shards run the dynamic-loading manager. Under the partition manager
/// this workload panics on about a third of all seeds (`preempted circuit
/// is resident`, `PartitionManager::preempt` after a failover or a
/// migration dropped the running task's residency claim), and a benchmark
/// workload must not fail. `delta_copy` is therefore off: only the
/// partition and overlay managers can price a migration as a delta.
pub struct Fleet {
    lib: Library,
    specs: Vec<TaskSpec>,
    cfg: FleetConfig,
}

const FLEET_DEVICES: u32 = 8;

impl Fleet {
    fn base_cfg(ckpt_ms: u64) -> FleetConfig {
        FleetConfig::new(FLEET_DEVICES)
            .with_placement(PlacementPolicy::LeastLoaded)
            .with_max_shards_per_device(8)
            .with_checkpoints(CheckpointConfig::new(SimDuration::from_millis(ckpt_ms)))
    }

    fn run<W: Wrap>(
        &self,
        cfg: &FleetConfig,
        wrap: &W,
        tracer: &Tracer,
    ) -> Result<(FleetReport, Took), String> {
        let specs = self.specs.clone();
        let t0 = RepClock::start();
        let (report, took) = run_span(tracer, wrap, "vfpga.fleet.run", &t0, || {
            run_fleet(cfg, specs, |ctx: &ShardCtx<'_>| {
                let _build = tracer.span("vfpga.fleet.build");
                let specs = if ctx.software {
                    softwareize(ctx.specs, &self.lib.sw_ns_per_cycle)
                } else {
                    ctx.specs.to_vec()
                };
                Ok(dynload_system(&self.lib, wrap, specs))
            })
        });
        Ok((report.map_err(err)?, took))
    }
}

impl Bench for Fleet {
    fn setup(seed: u64, sizes: &Sizes, tracer: &Tracer) -> Self {
        let lib = build_library(fpga::device::part("VF400"), tracer);
        let specs = tracer.time("workload.gen", || {
            tenant_tasks(
                &TenantMixParams {
                    base: mix(sizes.fleet_tasks, 15),
                    tenants: 32,
                    ..Default::default()
                },
                &lib.ids,
                &mut SimRng::new(seed),
            )
        });
        // Two crashes a device and sixteen migrations, whatever the run's
        // length: the rates are high enough that the caps always bind, so
        // every seed does the same amount of fault handling.
        let sim_s = sizes.fleet_tasks as f64 * 0.015;
        let cfg = Self::base_cfg(sizes.fleet_ckpt_ms)
            .with_device_faults(DeviceFaultPlan {
                seed: 0xD0_FA17,
                crash_rate_per_s: 5.0 / sim_s,
                outage: SimDuration::from_millis(50),
                max_crashes: 2,
            })
            .with_migrations(MigrationPlan {
                seed: 0x515_EED,
                rate_per_s: 40.0 / sim_s,
                max_migrations: 16,
                delta_copy: false,
                crash: None,
            });
        Fleet { lib, specs, cfg }
    }

    fn rep<W: Wrap>(&self, wrap: &W, tracer: &Tracer) -> Result<Rep, String> {
        let (fleet, took) = self.run(&self.cfg, wrap, tracer)?;
        let stats = fleet.stats;
        Ok(Rep::new(fleet.merged, self.specs.len(), Some(&stats), took))
    }

    fn verify(&self, rep: &Rep, rep_s: f64, layer: &mut Layer) -> Vec<String> {
        let mut bad = Vec::new();
        let counters = &rep.outcome.counters;
        if counters["vfpga.fleet.lost_in_flight"] != 0.0 {
            bad.push("fleet lost work in flight".into());
        }
        let (failovers, migrations) = (
            counters["vfpga.fleet.failovers"],
            counters["vfpga.fleet.migrations"],
        );
        if failovers == 0.0 || migrations == 0.0 {
            bad.push(format!(
                "fleet exercised {failovers} failovers and {migrations} migrations"
            ));
        }
        let quiet = FleetConfig {
            faults: DeviceFaultPlan::none(),
            migrations: MigrationPlan::none(),
            ..self.cfg.clone()
        };
        match self.run(&quiet, &Plain, &Tracer::disabled()) {
            Ok((twin, took)) => {
                let twin_s = took.host_s();
                for d in diff_reports(&twin.merged, &rep.report) {
                    bad.push(format!("fleet vs fault-free twin: {d}"));
                }
                let acts = rep
                    .report
                    .fleet
                    .map_or(0, |s| s.failovers + s.rebalances + s.tenant_migrations);
                layer.insert("vfpga.fleet.twin_s", twin_s);
                layer.insert(
                    "vfpga.fleet.fault_cost_ms",
                    (rep_s - twin_s).max(0.0) * 1e3 / acts.max(1) as f64,
                );
            }
            Err(e) => bad.push(format!("fleet fault-free twin failed: {e}")),
        }
        bad
    }

    fn home_layer_frac(&self, tracer: &Tracer, _layer: &Layer, rep_s: f64) -> f64 {
        // The fleet loop and the shard stepping it drives, minus the time
        // it spends constructing shard systems.
        let run = tracer.named("vfpga.fleet.run");
        let build = tracer.named("vfpga.fleet.build");
        secs(run.total_ns - build.total_ns) / rep_s
    }
}
