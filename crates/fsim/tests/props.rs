//! Property-style tests for the simulation kernel.
//!
//! The container has no third-party crates, so instead of `proptest` these
//! tests drive the same invariants with a deterministic seed sweep: every
//! case derives its inputs from [`SimRng`], so failures are reproducible
//! by seed.

use fsim::{EventQueue, LogHistogram, SimDuration, SimRng, SimTime, Summary};

const SEEDS: u64 = 64;

/// Events always pop in nondecreasing time order, FIFO on ties — also
/// when pops are interleaved with pushes at or after the current time.
#[test]
fn event_queue_total_order() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(seed);
        let n = 1 + rng.below(200) as usize;
        let mut q = EventQueue::new();
        let mut last: Option<(SimTime, usize)> = None;
        let mut check = |ev: fsim::ScheduledEvent<usize>| {
            if let Some((lt, li)) = last {
                assert!(ev.at >= lt, "seed {seed}: time went backwards");
                if ev.at == lt {
                    assert!(ev.event > li, "seed {seed}: FIFO tie-break violated");
                }
            }
            last = Some((ev.at, ev.event));
        };
        let mut popped = 0usize;
        for i in 0..n {
            q.schedule_at(SimTime(q.now().0 + rng.below(1000)), i);
            if rng.below(3) == 0 {
                check(q.pop().expect("just pushed"));
                popped += 1;
            }
        }
        while let Some(ev) = q.pop() {
            check(ev);
            popped += 1;
        }
        assert_eq!(popped, n, "seed {seed}: every event pops exactly once");
    }
}

/// below(n) is always < n; range_u64 is always within bounds.
#[test]
fn rng_bounds() {
    for seed in 0..SEEDS {
        let mut meta = SimRng::new(seed ^ 0xB07);
        let bound = 1 + meta.below(1_000_000);
        let lo = meta.below(500);
        let span = meta.below(500);
        let mut r = SimRng::new(seed);
        for _ in 0..100 {
            assert!(r.below(bound) < bound, "seed {seed}");
            let v = r.range_u64(lo, lo + span);
            assert!((lo..=lo + span).contains(&v), "seed {seed}");
        }
    }
}

/// Derived streams are reproducible functions of (seed, tag).
#[test]
fn rng_derive_deterministic() {
    for seed in 0..SEEDS {
        let mut meta = SimRng::new(seed.wrapping_mul(0x9E37_79B9));
        let tag = meta.next_u64();
        let root = SimRng::new(seed);
        let mut a = root.derive(tag);
        let mut b = root.derive(tag);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed} tag {tag}");
        }
    }
}

/// Summary statistics match naive computation.
#[test]
fn summary_matches_naive() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(seed);
        let n = 1 + rng.below(100) as usize;
        let xs: Vec<f64> = (0..n)
            .map(|_| (rng.next_u64() as f64 / u64::MAX as f64 - 0.5) * 2e9)
            .collect();
        let mut s = Summary::new();
        for &x in &xs {
            s.add(x);
        }
        let nf = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / nf;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / nf;
        assert!(
            (s.mean() - mean).abs() <= 1e-6 * (1.0 + mean.abs()),
            "seed {seed}"
        );
        assert!(
            (s.variance() - var).abs() <= 1e-4 * (1.0 + var),
            "seed {seed}"
        );
        assert_eq!(s.min(), xs.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(
            s.max(),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
    }
}

/// Histogram quantiles are monotone in q and bounded by the samples.
#[test]
fn histogram_quantiles_monotone() {
    for seed in 0..SEEDS {
        let mut rng = SimRng::new(seed);
        let n = 1 + rng.below(200) as usize;
        let mut h = LogHistogram::new();
        for _ in 0..n {
            h.record(rng.next_u64() >> rng.below(64));
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| h.quantile_ns(q)).collect();
        assert!(
            vals.windows(2).all(|w| w[0] <= w[1]),
            "seed {seed}: quantiles not monotone {vals:?}"
        );
        assert!(
            h.min_ns() <= vals[0] && vals[6] <= h.max_ns(),
            "seed {seed}"
        );
    }
}

/// Saturating duration arithmetic never panics and preserves ordering.
#[test]
fn duration_arithmetic_sane() {
    let mut rng = SimRng::new(0xD00D);
    for _ in 0..256 {
        // Bias toward huge values to exercise saturation.
        let a = rng.next_u64() | (rng.next_u64() & 0xFFFF_0000_0000_0000);
        let b = rng.next_u64();
        let da = SimDuration::from_nanos(a / 2);
        let db = SimDuration::from_nanos(b / 2);
        let sum = da + db;
        assert!(sum >= da && sum >= db);
        let diff = da.saturating_sub(db);
        assert!(diff <= da);
    }
}
