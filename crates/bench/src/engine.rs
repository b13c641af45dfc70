//! Parallel sweep execution.
//!
//! Every experiment binary is a *sweep*: a list of independent points
//! (seeds, policies, device sizes, …), each simulated in isolation, whose
//! results are appended to tables and reports in point order. [`run_sweep`]
//! fans those points across a hand-rolled scoped worker pool and joins the
//! results back **in point order**, so a parallel run is byte-identical to
//! a serial one everywhere except the wall clock.
//!
//! Determinism argument: each point's simulation is a pure function of its
//! inputs (the simulators use owned [`fsim::SimRng`] streams seeded per
//! point, and the compile cache returns identical artifacts for identical
//! keys), workers communicate only through the disjoint result slots, and
//! the join re-establishes point order regardless of which worker finished
//! first. The only thing a thread count can change is the `host` section
//! of an export — which is volatile by design and stripped before any
//! byte comparison.
//!
//! [`HostProfile`] is the harness-side stopwatch: phases of host wall
//! time, thread count, and throughput, rendered into that volatile `host`
//! section by [`crate::Exporter::host`].

use crate::{Json, Obj};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Run `f` over every point of a sweep, on `threads` workers, returning
/// the results **in point order**.
///
/// * `threads <= 1` (or a sweep of fewer than two points) runs inline on
///   the calling thread with no pool at all — the serial baseline.
/// * Workers pull the next unclaimed point index from a shared atomic
///   counter (work stealing degenerates to striping only when points are
///   uniform); each worker buffers `(index, result)` pairs and the join
///   scatters them into an index-addressed vector.
///
/// # Panics
/// Propagates a panic from any worker, and panics if a result slot is
/// left unfilled (impossible unless `f` itself diverges).
pub fn run_sweep<P, R, F>(threads: usize, points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(usize, &P) -> R + Sync,
{
    if threads <= 1 || points.len() <= 1 {
        return points.iter().enumerate().map(|(i, p)| f(i, p)).collect();
    }
    let workers = threads.min(points.len());
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(points.len()).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut got: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= points.len() {
                            break;
                        }
                        got.push((i, f(i, &points[i])));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("sweep worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|o| o.expect("every sweep point must produce a result"))
        .collect()
}

/// Resolve a `--threads` request: `0` means "all available cores".
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Host-side stopwatch for one experiment run.
///
/// Everything recorded here is **volatile** — wall-clock durations, thread
/// counts, cache statistics — and lands in the export's `host` section,
/// the one section excluded from byte-identity comparisons.
#[derive(Debug)]
pub struct HostProfile {
    threads: usize,
    started: Instant,
    phases: Vec<(String, Duration)>,
}

impl HostProfile {
    /// Start the run clock; `threads` is the resolved worker count.
    pub fn new(threads: usize) -> Self {
        HostProfile {
            threads,
            started: Instant::now(),
            phases: Vec::new(),
        }
    }

    /// Time one named phase of the run. `name` must come from
    /// [`crate::sections::PHASES`] — registering labels in one table keeps
    /// the exporter and the volatile-section tooling agreeing on what
    /// binaries emit (checked in debug builds).
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        debug_assert!(
            crate::sections::is_known_phase(name),
            "phase {name:?} is not registered in bench::sections::PHASES"
        );
        let t0 = Instant::now();
        let out = f();
        self.phases.push((name.to_string(), t0.elapsed()));
        out
    }

    /// The run's sweep: [`run_sweep`] over `points` on this run's workers,
    /// timed as the [`crate::sections::PHASE_SWEEP`] phase.
    pub fn sweep<P: Sync, R: Send>(
        &mut self,
        points: &[P],
        f: impl Fn(usize, &P) -> R + Sync,
    ) -> Vec<R> {
        let threads = self.threads;
        self.phase(crate::sections::PHASE_SWEEP, || {
            run_sweep(threads, points, f)
        })
    }

    /// Render the volatile `host` section of a run that executed `points`
    /// sweep points.
    pub fn to_json(&self, points: usize) -> Json {
        let total = self.started.elapsed();
        let mut phases = Obj::new();
        for (name, d) in &self.phases {
            phases = phases.set(name, d.as_secs_f64() * 1e3);
        }
        let pps = if total.as_secs_f64() > 0.0 && points > 0 {
            points as f64 / total.as_secs_f64()
        } else {
            0.0
        };
        let cache = pnr::cache_stats();
        Obj::new()
            .set("threads", self.threads as u64)
            .set("points", points as u64)
            .set("wall_ms", total.as_secs_f64() * 1e3)
            .set("phases_ms", phases)
            .set("points_per_sec", pps)
            .set(
                "compile_cache",
                Obj::new()
                    .set("hits", cache.hits)
                    .set("misses", cache.misses)
                    .set("entries", pnr::cache_len() as u64),
            )
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_in_order() {
        let points: Vec<u64> = (0..37).collect();
        let f = |i: usize, p: &u64| {
            // A little deterministic work whose result encodes the index.
            let mut h = *p ^ 0x9E37_79B9_7F4A_7C15;
            for _ in 0..100 {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(i as u64);
            }
            (i, h)
        };
        let serial = run_sweep(1, &points, f);
        for threads in [2, 4, 8] {
            let par = run_sweep(threads, &points, f);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_point_sweeps() {
        let none: Vec<u32> = vec![];
        assert!(run_sweep(4, &none, |_, p| *p).is_empty());
        assert_eq!(run_sweep(4, &[7u32], |i, p| (i, *p)), vec![(0, 7)]);
    }

    #[test]
    fn more_threads_than_points_is_fine() {
        let points = [1u32, 2, 3];
        assert_eq!(run_sweep(64, &points, |_, p| p * 2), vec![2, 4, 6]);
    }

    #[test]
    fn resolve_threads_zero_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn host_profile_renders_expected_keys() {
        let mut hp = HostProfile::new(4);
        hp.phase("sweep", || std::thread::sleep(Duration::from_millis(1)));
        let j = hp.to_json(10).render();
        for needle in [
            "\"threads\": 4",
            "\"points\": 10",
            "\"wall_ms\"",
            "\"phases_ms\"",
            "\"sweep\"",
            "\"points_per_sec\"",
            "\"compile_cache\"",
        ] {
            assert!(j.contains(needle), "missing {needle} in:\n{j}");
        }
    }
}
