//! Deterministic fault injection.
//!
//! RAM-based FPGAs fail in ways an OS layer must survive: a configuration
//! download can be corrupted in transit (detected by the bitstream CRC), a
//! configuration-memory cell can be upset while a circuit runs (an SEU,
//! detected only by scrubbing readback), and fabric columns can fail
//! permanently, retiring capacity mid-run. A [`FaultPlan`] describes the
//! rates of those three processes; a [`FaultInjector`] turns the plan into
//! a reproducible stream of faults, one independent [`SimRng`] sub-stream
//! per fault class so enabling one class never perturbs another.
//!
//! Everything here is deterministic: the same plan (including its seed)
//! yields bit-identical fault sequences, so a fault-injected run is as
//! reproducible as a fault-free one.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Rates for the three modeled fault classes. All rates default to zero:
/// `FaultPlan::default()` (or [`FaultPlan::none`]) injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injector's random streams.
    pub seed: u64,
    /// Probability that any single configuration download arrives
    /// corrupted (caught by the bitstream CRC on the device).
    pub download_corruption: f64,
    /// Poisson rate (events per simulated second) of configuration-memory
    /// upsets striking a uniformly random fabric column.
    pub seu_rate_per_s: f64,
    /// Poisson rate (events per simulated second) of permanent column
    /// failures.
    pub column_failure_rate_per_s: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// A plan that injects nothing (all rates zero).
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            download_corruption: 0.0,
            seu_rate_per_s: 0.0,
            column_failure_rate_per_s: 0.0,
        }
    }
}

/// Turns a [`FaultPlan`] into reproducible fault streams.
///
/// Each fault class draws from its own derived RNG stream, so consuming
/// (say) download-corruption randomness never shifts the SEU sequence.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    cols: u32,
    dl_rng: SimRng,
    seu_rng: SimRng,
    col_rng: SimRng,
}

impl FaultInjector {
    /// An injector over a device with `cols` fabric columns.
    pub fn new(plan: FaultPlan, cols: u32) -> Self {
        let root = SimRng::new(plan.seed);
        FaultInjector {
            plan,
            cols: cols.max(1),
            dl_rng: root.derive(1),
            seu_rng: root.derive(2),
            col_rng: root.derive(3),
        }
    }

    /// Decide whether the download that just happened was corrupted.
    /// Consumes randomness only when the corruption probability is
    /// nonzero, so a zero-rate plan is bit-identical to no injector.
    pub fn corrupt_download(&mut self) -> bool {
        self.plan.download_corruption > 0.0 && self.dl_rng.chance(self.plan.download_corruption)
    }

    /// Time until the next configuration-memory upset (exponential
    /// interarrival), or `None` when SEUs are disabled.
    pub fn next_seu(&mut self) -> Option<SimDuration> {
        Self::interarrival(&mut self.seu_rng, self.plan.seu_rate_per_s)
    }

    /// The column struck by an upset (uniform over the fabric).
    pub fn seu_column(&mut self) -> u32 {
        self.seu_rng.below(u64::from(self.cols)) as u32
    }

    /// Time until the next permanent column failure, or `None` when
    /// column failures are disabled.
    pub fn next_column_failure(&mut self) -> Option<SimDuration> {
        Self::interarrival(&mut self.col_rng, self.plan.column_failure_rate_per_s)
    }

    /// The column that fails permanently (uniform over the fabric).
    pub fn failed_column(&mut self) -> u32 {
        self.col_rng.below(u64::from(self.cols)) as u32
    }

    fn interarrival(rng: &mut SimRng, rate_per_s: f64) -> Option<SimDuration> {
        (rate_per_s > 0.0).then(|| gap(rng, rate_per_s))
    }

    /// Snapshot the three stream states (download, SEU, column) for
    /// checkpointing. Restoring via
    /// [`FaultInjector::restore_stream_states`] resumes every fault
    /// stream exactly where it was, so a checkpoint-restored run draws
    /// the same fault sequence the uninterrupted run would have.
    pub fn stream_states(&self) -> [[u64; 4]; 3] {
        [
            self.dl_rng.state(),
            self.seu_rng.state(),
            self.col_rng.state(),
        ]
    }

    /// Rebuild the three fault streams from a
    /// [`FaultInjector::stream_states`] snapshot.
    pub fn restore_stream_states(&mut self, s: [[u64; 4]; 3]) {
        self.dl_rng = SimRng::from_state(s[0]);
        self.seu_rng = SimRng::from_state(s[1]);
        self.col_rng = SimRng::from_state(s[2]);
    }
}

/// The fourth fault class: host crashes. The host process dies at a
/// seeded random simulation time, losing all volatile OS state; whatever
/// configuration download was in flight at that instant is *torn* — a
/// prefix of its frames reached the device, the rest did not.
///
/// Kept separate from [`FaultPlan`] because a crash is not survived by
/// the event loop: it terminates the run, and a harness restarts the
/// system from its last checkpoint (see `vfpga::checkpoint`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPlan {
    /// Seed for the crash stream (independent of [`FaultPlan::seed`]'s
    /// derived streams — crash times use their own derivation tag).
    pub seed: u64,
    /// Poisson rate (crashes per simulated second). Zero disables
    /// crashes entirely.
    pub crash_rate_per_s: f64,
    /// Hard cap on injected crashes, so a run always finishes.
    pub max_crashes: u32,
}

impl CrashPlan {
    /// A plan that never crashes.
    pub fn none() -> Self {
        CrashPlan {
            seed: 0,
            crash_rate_per_s: 0.0,
            max_crashes: 0,
        }
    }

    /// The absolute crash times, strictly increasing, at most
    /// `max_crashes`, drawn lazily. The restart harness holds the iterator
    /// outside the simulated system, so a restored run is never re-killed
    /// at an instant that already fired.
    pub fn crash_times(&self) -> impl Iterator<Item = SimTime> {
        let (rate, max) = (self.crash_rate_per_s, self.max_crashes);
        poisson(self.seed, CRASH_TAG, rate, max, SimDuration::ZERO)
    }
}

impl Default for CrashPlan {
    fn default() -> Self {
        CrashPlan::none()
    }
}

/// Derivation tags of the harness streams: tags 1–3 are the
/// [`FaultInjector`] streams, 4 the host crashes, `5 + d` device `d`'s
/// outages, and 2^32 — far above the device tags of any realistic fleet —
/// the migration instants, so no two collide even under a shared seed.
const CRASH_TAG: u64 = 4;
const DEVICE_TAG_BASE: u64 = 5;
const MIGRATION_TAG: u64 = 1 << 32;

/// An exponential gap of mean `1 / rate_per_s` seconds, at least 1 ns.
fn gap(rng: &mut SimRng, rate_per_s: f64) -> SimDuration {
    let ns = rng.exp(1e9 / rate_per_s).ceil() as u64;
    SimDuration::from_nanos(ns.max(1))
}

/// The instants of a Poisson process of `rate_per_s` on derivation stream
/// `tag` of `seed`, `max` of them, each drawn from `dead` after the one
/// before. A zero rate draws nothing, so a disabled plan changes no run;
/// otherwise the length is known, and a collected schedule is sized once.
fn poisson(
    seed: u64,
    tag: u64,
    rate_per_s: f64,
    max: u32,
    dead: SimDuration,
) -> impl Iterator<Item = SimTime> {
    let n = if rate_per_s > 0.0 { max } else { 0 };
    let mut rng = SimRng::new(seed).derive(tag);
    let mut at = 0u64;
    (0..n).map(move |_| {
        let fires = at.saturating_add(gap(&mut rng, rate_per_s).as_nanos());
        at = fires.saturating_add(dead.as_nanos());
        SimTime(fires)
    })
}

/// The fifth fault class: whole-device outages. A physical FPGA drops off
/// the shelf — power brownout, PCIe surprise-removal, carrier reboot — and
/// every bit of configuration RAM and flip-flop state on it is lost. After
/// a fixed outage the device returns, blank.
///
/// Like [`CrashPlan`] this is not survived by a single device's event
/// loop: a fleet harness (see `vfpga::fleet`) fails resident tenants over
/// to surviving devices from their last checkpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceFaultPlan {
    /// Seed for the per-device crash streams. Each device derives its own
    /// sub-stream, so drawing device 0's outages never shifts device 1's.
    pub seed: u64,
    /// Poisson rate (crashes per simulated second) *per device*. Zero
    /// disables device faults entirely.
    pub crash_rate_per_s: f64,
    /// How long a crashed device stays down before rejoining, blank.
    pub outage: SimDuration,
    /// Hard cap on crashes per device, so a run always finishes.
    pub max_crashes: u32,
}

impl DeviceFaultPlan {
    /// Device `device`'s outage windows, absolute `[down, rejoin)` pairs,
    /// strictly increasing and non-overlapping (the next crash is drawn
    /// after the previous rejoin), on a stream of the device's own.
    pub fn windows(&self, device: u32) -> Vec<(SimTime, SimTime)> {
        let (tag, outage) = (DEVICE_TAG_BASE + u64::from(device), self.outage);
        poisson(
            self.seed,
            tag,
            self.crash_rate_per_s,
            self.max_crashes,
            outage,
        )
        .map(|down| (down, SimTime(down.0.saturating_add(outage.as_nanos()))))
        .collect()
    }

    /// A plan under which no device ever fails.
    pub fn none() -> Self {
        DeviceFaultPlan {
            seed: 0,
            crash_rate_per_s: 0.0,
            outage: SimDuration::ZERO,
            max_crashes: 0,
        }
    }

    /// Whether device faults are disabled (rate zero or budget zero).
    pub fn is_zero(&self) -> bool {
        self.crash_rate_per_s <= 0.0 || self.max_crashes == 0
    }
}

impl Default for DeviceFaultPlan {
    fn default() -> Self {
        DeviceFaultPlan::none()
    }
}

/// Where inside a live-migration window a crash lands. The two-phase
/// protocol (see `vfpga::migrate`) has three distinguishable windows a
/// host or device death can interrupt; journal replay must resolve each
/// one to either a clean rollback or an idempotent completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCrashWindow {
    /// The source host dies after journaling its `MigrationIntent` but
    /// before the destination journals one: prepare never finished, the
    /// intent-without-commit must be undone (tenant stays on the source).
    SourceMidPrepare,
    /// The destination dies while the prepared image is being copied in:
    /// both sides hold an intent and no commit — undone on both, the
    /// tenant rolls back onto the source with its backlog intact.
    DestMidCopy,
    /// The crash lands after `MigrationCommit` was journaled but before
    /// the source columns were freed: the commit wins, and replay redoes
    /// the source-free idempotently.
    BetweenCommitAndFree,
}

impl MigrationCrashWindow {
    /// Short name for labels and trace output.
    pub fn name(&self) -> &'static str {
        match self {
            MigrationCrashWindow::SourceMidPrepare => "src-mid-prepare",
            MigrationCrashWindow::DestMidCopy => "dest-mid-copy",
            MigrationCrashWindow::BetweenCommitAndFree => "commit-no-free",
        }
    }
}

/// Seeded plan for tenant-grain live migrations driven by the fleet
/// event loop: migration *instants* arrive as a Poisson process, and an
/// optional crash point kills a chosen migration inside a chosen window.
/// Like every other plan here, a zero-rate plan draws nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationPlan {
    /// Seed for the migration-instant stream (independent of every other
    /// fault class — the stream has its own derivation tag).
    pub seed: u64,
    /// Poisson rate (migration attempts per simulated second). Zero
    /// disables live migration entirely.
    pub rate_per_s: f64,
    /// Hard cap on migration attempts, so a run always finishes.
    pub max_migrations: u32,
    /// Copy the prepared image delta-anchored: the destination implants a
    /// ghost of the tenant's resident circuits so their next activation
    /// is priced as a delta reconfiguration instead of a full download
    /// (requires a delta-capable manager; silently full-priced otherwise).
    pub delta_copy: bool,
    /// Crash the `k`-th (0-based) migration attempt inside the given
    /// window. `None` lets every migration run to completion.
    pub crash: Option<(u32, MigrationCrashWindow)>,
}

impl MigrationPlan {
    /// A plan that never migrates.
    pub fn none() -> Self {
        MigrationPlan {
            seed: 0,
            rate_per_s: 0.0,
            max_migrations: 0,
            delta_copy: false,
            crash: None,
        }
    }

    /// Whether live migration is disabled (rate zero or budget zero).
    pub fn is_zero(&self) -> bool {
        self.rate_per_s <= 0.0 || self.max_migrations == 0
    }

    /// The absolute migration instants, strictly increasing, at most
    /// `max_migrations`.
    pub fn instants(&self) -> Vec<SimTime> {
        let (rate, max) = (self.rate_per_s, self.max_migrations);
        poisson(self.seed, MIGRATION_TAG, rate, max, SimDuration::ZERO).collect()
    }

    /// The crash window the plan aims at migration attempt `k` (0-based),
    /// if it crashes that attempt.
    pub fn crash_window(&self, k: u32) -> Option<MigrationCrashWindow> {
        match self.crash {
            Some((target, window)) if target == k => Some(window),
            _ => None,
        }
    }
}

impl Default for MigrationPlan {
    fn default() -> Self {
        MigrationPlan::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            download_corruption: 0.2,
            seu_rate_per_s: 50.0,
            column_failure_rate_per_s: 2.0,
        }
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::none(), 20);
        for _ in 0..100 {
            assert!(!inj.corrupt_download());
        }
        assert_eq!(inj.next_seu(), None);
        assert_eq!(inj.next_column_failure(), None);
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let mut a = FaultInjector::new(plan(42), 20);
        let mut b = FaultInjector::new(plan(42), 20);
        for _ in 0..200 {
            assert_eq!(a.corrupt_download(), b.corrupt_download());
            assert_eq!(a.next_seu(), b.next_seu());
            assert_eq!(a.seu_column(), b.seu_column());
            assert_eq!(a.next_column_failure(), b.next_column_failure());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(plan(1), 20);
        let mut b = FaultInjector::new(plan(2), 20);
        let sa: Vec<_> = (0..50).map(|_| a.next_seu()).collect();
        let sb: Vec<_> = (0..50).map(|_| b.next_seu()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn streams_are_independent() {
        // Draining download randomness must not shift the SEU stream.
        let mut a = FaultInjector::new(plan(7), 20);
        let mut b = FaultInjector::new(plan(7), 20);
        for _ in 0..100 {
            a.corrupt_download();
        }
        for _ in 0..20 {
            assert_eq!(a.next_seu(), b.next_seu());
        }
    }

    #[test]
    fn seu_interarrival_mean_tracks_rate() {
        // 1000 draws at 100 events/s: mean should be ~10 ms (loose bound).
        let mut inj = FaultInjector::new(
            FaultPlan {
                seed: 3,
                seu_rate_per_s: 100.0,
                ..FaultPlan::none()
            },
            20,
        );
        let n = 1000;
        let total: u64 = (0..n).map(|_| inj.next_seu().unwrap().as_nanos()).sum();
        let mean_ms = total as f64 / n as f64 / 1e6;
        assert!(
            (5.0..20.0).contains(&mean_ms),
            "mean interarrival {mean_ms} ms implausible for 100/s"
        );
    }

    #[test]
    fn crash_times_are_seeded_monotone_and_bounded() {
        let plan = CrashPlan {
            seed: 11,
            crash_rate_per_s: 5.0,
            max_crashes: 3,
        };
        let ta: Vec<_> = plan.crash_times().collect();
        let tb: Vec<_> = plan.crash_times().collect();
        assert_eq!(ta, tb, "same seed, same crash times");
        assert_eq!(ta.len(), 3, "budget caps the sequence");
        assert!(ta.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert_eq!(CrashPlan::none().crash_times().next(), None);
    }

    #[test]
    fn fault_stream_states_round_trip() {
        let mut a = FaultInjector::new(plan(42), 20);
        // Advance all three streams, snapshot, advance further, restore.
        for _ in 0..10 {
            a.corrupt_download();
            a.next_seu();
            a.next_column_failure();
        }
        let snap = a.stream_states();
        let expect: Vec<_> = (0..20)
            .map(|_| (a.corrupt_download(), a.next_seu(), a.next_column_failure()))
            .collect();
        a.restore_stream_states(snap);
        let replay: Vec<_> = (0..20)
            .map(|_| (a.corrupt_download(), a.next_seu(), a.next_column_failure()))
            .collect();
        assert_eq!(expect, replay);
    }

    #[test]
    fn device_fault_windows_are_seeded_monotone_and_bounded() {
        let plan = DeviceFaultPlan {
            seed: 21,
            crash_rate_per_s: 40.0,
            outage: SimDuration::from_millis(3),
            max_crashes: 4,
        };
        let a = plan.windows(0);
        let b = plan.windows(0);
        assert_eq!(a, b, "same seed, same windows");
        assert_eq!(a.len(), 4, "budget caps the sequence");
        for &(down, up) in &a {
            assert_eq!(up, down + SimDuration::from_millis(3));
        }
        for w in a.windows(2) {
            assert!(w[0].1 <= w[1].0, "next crash drawn after prior rejoin");
        }
    }

    #[test]
    fn device_streams_are_independent_and_zero_plan_draws_nothing() {
        let plan = DeviceFaultPlan {
            seed: 6,
            crash_rate_per_s: 25.0,
            outage: SimDuration::from_millis(1),
            max_crashes: 8,
        };
        // Each device has its own derived stream: distinct sequences, and
        // querying one device never perturbs another.
        let d0 = plan.windows(0);
        let d1 = plan.windows(1);
        assert_ne!(d0, d1);
        assert_eq!(plan.windows(0), d0);

        assert!(DeviceFaultPlan::none().is_zero());
        assert!(DeviceFaultPlan::none().windows(0).is_empty());
    }

    #[test]
    fn migration_instants_are_seeded_monotone_and_bounded() {
        let plan = MigrationPlan {
            seed: 17,
            rate_per_s: 200.0,
            max_migrations: 5,
            delta_copy: false,
            crash: None,
        };
        let a = plan.instants();
        let b = plan.instants();
        assert_eq!(a, b, "same seed, same instants");
        assert_eq!(a.len(), 5, "budget caps the sequence");
        assert!(a.windows(2).all(|w| w[0] < w[1]), "strictly increasing");
        assert_eq!(plan.crash_window(0), None);

        assert!(MigrationPlan::none().is_zero());
        assert!(MigrationPlan::none().instants().is_empty());
    }

    #[test]
    fn migration_crash_targets_exactly_one_attempt() {
        let plan = MigrationPlan {
            seed: 17,
            rate_per_s: 200.0,
            max_migrations: 5,
            delta_copy: true,
            crash: Some((2, MigrationCrashWindow::DestMidCopy)),
        };
        for k in 0..5 {
            let w = plan.crash_window(k);
            if k == 2 {
                assert_eq!(w, Some(MigrationCrashWindow::DestMidCopy));
            } else {
                assert_eq!(w, None);
            }
        }
        // The crash knob must not perturb the instant stream itself.
        let clean = MigrationPlan {
            crash: None,
            ..plan
        };
        assert_eq!(plan.instants(), clean.instants());
    }

    #[test]
    fn columns_stay_in_range() {
        let mut inj = FaultInjector::new(plan(9), 13);
        for _ in 0..500 {
            assert!(inj.seu_column() < 13);
            assert!(inj.failed_column() < 13);
        }
    }
}
