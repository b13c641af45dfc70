//! Task-mix generators.
//!
//! Builds [`vfpga::TaskSpec`] sets over a compiled circuit library:
//! Poisson arrivals with alternating CPU/FPGA bursts (the time-shared
//! scenario) and periodic task sets (the real-time scenario the abstract
//! mentions).

use fsim::{SimDuration, SimRng, SimTime};
use vfpga::circuit::CircuitLib;
use vfpga::{CircuitId, Op, TaskSpec};

/// Parameters for the Poisson mix.
#[derive(Debug, Clone, Copy)]
pub struct MixParams {
    /// Number of tasks.
    pub tasks: usize,
    /// Mean inter-arrival time.
    pub mean_interarrival: SimDuration,
    /// CPU burst mean (exponential).
    pub mean_cpu_burst: SimDuration,
    /// FPGA bursts per task.
    pub fpga_ops_per_task: usize,
    /// Cycles per FPGA burst (uniform in `[lo, hi]`).
    pub cycles: (u64, u64),
}

impl Default for MixParams {
    fn default() -> Self {
        MixParams {
            tasks: 8,
            mean_interarrival: SimDuration::from_millis(5),
            mean_cpu_burst: SimDuration::from_millis(2),
            fpga_ops_per_task: 3,
            cycles: (10_000, 100_000),
        }
    }
}

/// Poisson-arrival tasks, each alternating CPU bursts with FPGA runs of a
/// circuit drawn (uniformly) from `circuits`.
pub fn poisson_tasks(
    params: &MixParams,
    circuits: &[CircuitId],
    rng: &mut SimRng,
) -> Vec<TaskSpec> {
    poisson_named(params, circuits, rng, |i| format!("task{i}"))
}

/// [`poisson_tasks`] with task `i` named `name(i)`. Each program is
/// allocated once at its final length: `2k + 1` ops for `k` FPGA runs.
fn poisson_named(
    params: &MixParams,
    circuits: &[CircuitId],
    rng: &mut SimRng,
    name: impl Fn(usize) -> String,
) -> Vec<TaskSpec> {
    assert!(!circuits.is_empty(), "need at least one circuit");
    let mut specs = Vec::with_capacity(params.tasks);
    let mut at = SimTime::ZERO;
    let runs = params.fpga_ops_per_task;
    let len = 2 * runs + usize::from(runs > 0);
    for i in 0..params.tasks {
        at += SimDuration::from_secs_f64(rng.exp(params.mean_interarrival.as_secs_f64()));
        let mut ops = Vec::with_capacity(len);
        for k in 0..params.fpga_ops_per_task {
            ops.push(Op::Cpu(SimDuration::from_secs_f64(
                rng.exp(params.mean_cpu_burst.as_secs_f64()).max(1e-6),
            )));
            let cid = *rng.choose(circuits);
            let cycles = rng.range_u64(params.cycles.0, params.cycles.1);
            ops.push(Op::FpgaRun {
                circuit: cid,
                cycles,
            });
            if k + 1 == params.fpga_ops_per_task {
                ops.push(Op::Cpu(SimDuration::from_secs_f64(
                    rng.exp(params.mean_cpu_burst.as_secs_f64()).max(1e-6),
                )));
            }
        }
        specs.push(TaskSpec::new(name(i), at, ops));
    }
    specs
}

/// Parameters for the multi-tenant overload mix (experiment E17).
#[derive(Debug, Clone, Copy)]
pub struct TenantMixParams {
    /// The underlying Poisson mix.
    pub base: MixParams,
    /// Tenants; tasks are assigned round-robin (task `i` → `i % tenants`).
    pub tenants: u32,
    /// Relative completion deadline stamped on every task (miss accounting
    /// only; nothing is enforced). `None` stamps no deadlines.
    pub deadline: Option<SimDuration>,
    /// The first `hang_tasks` tasks get their first FPGA op marked as
    /// hanging (done signal never rises) — the deliberately misbehaving
    /// application only a watchdog can defend against.
    pub hang_tasks: usize,
    /// Half-width of a uniform jitter applied to each task's deadline,
    /// as a fraction of `deadline` (task `i` gets `deadline * u`,
    /// `u ~ U[1 - spread, 1 + spread]`). Zero stamps the uniform
    /// deadline unchanged. The jitter draws from an RNG derived from the
    /// caller's (never from the caller's own stream), and only when the
    /// spread is nonzero — mixes generated before this knob existed are
    /// bit-for-bit unchanged.
    pub deadline_spread: f64,
    /// Stamp each tenant with a device-affinity hint for fleet placement:
    /// tenant `t` prefers device `t % affinity_devices`. Zero stamps no
    /// hints — mixes generated before this knob existed are bit-for-bit
    /// unchanged, and single-device systems ignore hints entirely.
    pub affinity_devices: u32,
}

impl Default for TenantMixParams {
    fn default() -> Self {
        TenantMixParams {
            base: MixParams::default(),
            tenants: 2,
            deadline: None,
            hang_tasks: 0,
            deadline_spread: 0.0,
            affinity_devices: 0,
        }
    }
}

/// Tenant-tagged Poisson mix: the [`poisson_tasks`] arrival process with
/// round-robin tenant ids, an optional uniform relative deadline, and the
/// first `hang_tasks` tasks carrying a hanging first FPGA op. Identical
/// seeds produce identical specs; with `tenants: 1`, `deadline: None`,
/// `hang_tasks: 0` the specs differ from [`poisson_tasks`] only in name.
pub fn tenant_tasks(
    params: &TenantMixParams,
    circuits: &[CircuitId],
    rng: &mut SimRng,
) -> Vec<TaskSpec> {
    assert!(params.tenants >= 1, "need at least one tenant");
    assert!(
        params.hang_tasks <= params.base.tasks,
        "more hanging tasks than tasks"
    );
    assert!(
        (0.0..1.0).contains(&params.deadline_spread),
        "deadline_spread must be in [0, 1)"
    );
    let mut dl_rng = rng.derive(0xD11E);
    let tenant_of = |i: usize| i as u32 % params.tenants;
    let specs = poisson_named(&params.base, circuits, rng, |i| {
        format!("tn{}-task{i}", tenant_of(i))
    });
    specs
        .into_iter()
        .enumerate()
        .map(|(i, mut s)| {
            let tenant = tenant_of(i);
            s = s.with_tenant(tenant);
            if params.affinity_devices > 0 {
                s = s.with_affinity(tenant % params.affinity_devices);
            }
            if let Some(d) = params.deadline {
                let d = if params.deadline_spread > 0.0 {
                    let u =
                        1.0 - params.deadline_spread + 2.0 * params.deadline_spread * dl_rng.f64();
                    SimDuration::from_secs_f64(d.as_secs_f64() * u)
                } else {
                    d
                };
                s = s.with_deadline(d);
            }
            if i < params.hang_tasks {
                let first_fpga = s
                    .ops
                    .iter()
                    .position(|op| matches!(op, Op::FpgaRun { .. }))
                    .expect("poisson tasks always carry FPGA ops");
                s = s.with_hang_op(first_fpga);
            }
            s
        })
        .collect()
}

/// Register a circuit family sharing structure: the base plus `variants`
/// circuits derived by rewriting a fraction `1 - similarity` of the
/// base's LUT columns ([`pnr::mutate_tables`] — column-clustered, so the
/// frame-level diff against the base stays sparse). `similarity` is the
/// fraction of configuration columns a variant shares with the base:
/// `1.0` makes every variant bit-identical to it (a delta download of
/// zero frames), `0.0` rewrites every column (delta degenerates to a
/// full download). Returns the family's ids, base first. Shape, timing,
/// and I/O are preserved, so members are drop-in replacements for one
/// another in any task mix — exactly the workload where successive swaps
/// onto the same columns share most of their frames.
pub fn variant_family(
    lib: &mut CircuitLib,
    base: pnr::CompiledCircuit,
    variants: usize,
    similarity: f64,
    seed: u64,
) -> Vec<CircuitId> {
    assert!(
        (0.0..=1.0).contains(&similarity),
        "similarity must be in [0, 1]"
    );
    // Each variant mutates the base independently (not the previous
    // variant), so every family pair stays `similarity`-close.
    let mutants: Vec<_> = (0..variants)
        .map(|v| pnr::mutate_tables(&base, 1.0 - similarity, seed.wrapping_add(v as u64 + 1)))
        .collect();
    let mut ids = Vec::with_capacity(variants + 1);
    ids.push(lib.register_compiled(base));
    ids.extend(mutants.into_iter().map(|m| lib.register_compiled(m)));
    ids
}

/// Periodic task set: `jobs` releases of each task at its period, each job
/// one CPU burst plus one FPGA run of the task's dedicated circuit
/// (modeled as separate TaskSpecs per job, arrival = release time).
pub fn periodic_tasks(
    periods: &[(CircuitId, SimDuration)],
    jobs: usize,
    cpu_burst: SimDuration,
    cycles: u64,
) -> Vec<TaskSpec> {
    let mut specs = Vec::with_capacity(periods.len() * jobs);
    for (ti, &(cid, period)) in periods.iter().enumerate() {
        for j in 0..jobs {
            let arrival = SimTime::ZERO + period * j as u64;
            specs.push(
                TaskSpec::new(
                    format!("p{ti}-job{j}"),
                    arrival,
                    vec![
                        Op::Cpu(cpu_burst),
                        Op::FpgaRun {
                            circuit: cid,
                            cycles,
                        },
                    ],
                )
                .with_priority((periods.len() - ti) as u8),
            );
        }
    }
    specs.sort_by_key(|s| s.arrival);
    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cids(n: u32) -> Vec<CircuitId> {
        (0..n).map(CircuitId).collect()
    }

    #[test]
    fn poisson_mix_shape() {
        let mut rng = SimRng::new(1);
        let specs = poisson_tasks(&MixParams::default(), &cids(3), &mut rng);
        assert_eq!(specs.len(), 8);
        // Arrivals are nondecreasing.
        for w in specs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        for s in &specs {
            let fpga_ops = s
                .ops
                .iter()
                .filter(|o| matches!(o, Op::FpgaRun { .. }))
                .count();
            assert_eq!(fpga_ops, 3);
            assert!(s.cpu_demand() > SimDuration::ZERO);
            for op in &s.ops {
                if let Op::FpgaRun { circuit, cycles } = op {
                    assert!(circuit.0 < 3);
                    assert!((10_000..=100_000).contains(cycles));
                }
            }
        }
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a = poisson_tasks(&MixParams::default(), &cids(3), &mut SimRng::new(7));
        let b = poisson_tasks(&MixParams::default(), &cids(3), &mut SimRng::new(7));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.ops, y.ops);
        }
    }

    #[test]
    fn tenant_mix_tags_deadlines_and_hangs() {
        let params = TenantMixParams {
            base: MixParams::default(),
            tenants: 3,
            deadline: Some(SimDuration::from_millis(250)),
            hang_tasks: 2,
            ..Default::default()
        };
        let specs = tenant_tasks(&params, &cids(3), &mut SimRng::new(9));
        assert_eq!(specs.len(), 8);
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(s.tenant, i as u32 % 3);
            assert_eq!(s.deadline, Some(SimDuration::from_millis(250)));
            assert!(s.name.starts_with(&format!("tn{}-", s.tenant)));
            if i < 2 {
                let idx = s.hang_op.expect("first two tasks hang");
                assert!(matches!(s.ops[idx], Op::FpgaRun { .. }));
            } else {
                assert_eq!(s.hang_op, None);
            }
        }
        // The arrival process is untouched: same seed, same arrivals as
        // the plain Poisson mix.
        let plain = poisson_tasks(&MixParams::default(), &cids(3), &mut SimRng::new(9));
        for (a, b) in specs.iter().zip(&plain) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.ops, b.ops);
        }
    }

    #[test]
    fn deadline_spread_jitters_without_touching_arrivals() {
        let params = TenantMixParams {
            base: MixParams::default(),
            tenants: 2,
            deadline: Some(SimDuration::from_millis(100)),
            hang_tasks: 0,
            deadline_spread: 0.5,
            ..Default::default()
        };
        let specs = tenant_tasks(&params, &cids(3), &mut SimRng::new(9));
        let lo = SimDuration::from_millis(50);
        let hi = SimDuration::from_millis(150);
        let mut distinct = std::collections::BTreeSet::new();
        for s in &specs {
            let d = s.deadline.expect("deadline stamped");
            assert!(d >= lo && d <= hi, "jittered deadline out of band: {d:?}");
            distinct.insert(d);
        }
        assert!(distinct.len() > 1, "spread 0.5 never varied the deadline");
        // The arrival/op stream is untouched by the jitter draws: same
        // seed, same specs as the spread-free mix, deadlines aside.
        let plain = tenant_tasks(
            &TenantMixParams {
                deadline_spread: 0.0,
                ..params
            },
            &cids(3),
            &mut SimRng::new(9),
        );
        for (a, b) in specs.iter().zip(&plain) {
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.ops, b.ops);
            assert_eq!(b.deadline, Some(SimDuration::from_millis(100)));
        }
        // And per-seed determinism holds for the jitter itself.
        let again = tenant_tasks(&params, &cids(3), &mut SimRng::new(9));
        for (a, b) in specs.iter().zip(&again) {
            assert_eq!(a.deadline, b.deadline);
        }
    }

    #[test]
    fn variant_families_scale_frame_sharing_with_similarity() {
        use pnr::{compile, CompileOptions, PinAssignment};
        let base = compile(
            &netlist::library::arith::array_multiplier("fam", 4),
            CompileOptions::default(),
        )
        .unwrap();
        let emit = |lib: &CircuitLib, id: CircuitId| {
            let c = &lib.get(id).compiled;
            let pins = PinAssignment::contiguous(
                c.placed.circuit.num_inputs,
                c.placed.circuit.outputs.len(),
            );
            pnr::emit_bitstream(&c.placed, (0, 0), &pins, false)
        };
        let changed_at = |similarity: f64| {
            let mut lib = CircuitLib::new();
            let ids = variant_family(&mut lib, base.clone(), 3, similarity, 42);
            assert_eq!(ids.len(), 4);
            let shape = lib.get(ids[0]).shape();
            for w in ids.windows(2) {
                // Drop-in replacements: same footprint, every pair.
                assert_eq!(lib.get(w[1]).shape(), shape);
            }
            let b = emit(&lib, ids[0]);
            ids[1..]
                .iter()
                .map(|&v| fpga::Bitstream::diff(&b, &emit(&lib, v)).changed_frames)
                .max()
                .unwrap()
        };
        let width = base.placed.width as usize;
        assert_eq!(changed_at(1.0), 0, "similarity 1 must be bit-identical");
        let half = changed_at(0.5);
        assert!(half > 0 && half <= width.div_ceil(2));
        assert!(
            changed_at(0.0) >= half,
            "lower similarity cannot shrink the diff"
        );
        // Determinism: the same seed yields the same family.
        let mut lib_a = CircuitLib::new();
        let mut lib_b = CircuitLib::new();
        let a = variant_family(&mut lib_a, base.clone(), 2, 0.5, 7);
        let b = variant_family(&mut lib_b, base.clone(), 2, 0.5, 7);
        for (&x, &y) in a.iter().zip(&b) {
            assert_eq!(emit(&lib_a, x).frames, emit(&lib_b, y).frames);
        }
    }

    #[test]
    fn periodic_releases() {
        let periods = vec![
            (CircuitId(0), SimDuration::from_millis(10)),
            (CircuitId(1), SimDuration::from_millis(25)),
        ];
        let specs = periodic_tasks(&periods, 3, SimDuration::from_micros(100), 1000);
        assert_eq!(specs.len(), 6);
        let t0_arrivals: Vec<_> = specs
            .iter()
            .filter(|s| s.name.starts_with("p0"))
            .map(|s| s.arrival)
            .collect();
        assert_eq!(
            t0_arrivals,
            vec![
                SimTime::ZERO,
                SimTime::ZERO + SimDuration::from_millis(10),
                SimTime::ZERO + SimDuration::from_millis(20)
            ]
        );
        // Shorter period = higher priority (rate monotonic).
        let p0 = specs.iter().find(|s| s.name.starts_with("p0")).unwrap();
        let p1 = specs.iter().find(|s| s.name.starts_with("p1")).unwrap();
        assert!(p0.priority > p1.priority);
    }

    #[test]
    fn programs_are_allocated_at_their_final_length() {
        let tenant = TenantMixParams {
            tenants: 3,
            ..Default::default()
        };
        let periods = [(CircuitId(0), SimDuration::from_millis(10))];
        for ops_per_task in [0, 1, 4] {
            let base = MixParams {
                fpga_ops_per_task: ops_per_task,
                ..Default::default()
            };
            let sets = [
                poisson_tasks(&base, &cids(3), &mut SimRng::new(5)),
                tenant_tasks(
                    &TenantMixParams { base, ..tenant },
                    &cids(3),
                    &mut SimRng::new(5),
                ),
                periodic_tasks(&periods, 3, SimDuration::from_micros(100), 1000),
            ];
            for s in sets.iter().flatten() {
                assert_eq!(s.ops.capacity(), s.ops.len(), "{}", s.name);
            }
        }
    }

    #[test]
    fn affinity_hints_are_stamped_without_touching_the_mix() {
        let params = TenantMixParams {
            base: MixParams::default(),
            tenants: 4,
            affinity_devices: 2,
            ..Default::default()
        };
        let specs = tenant_tasks(&params, &cids(3), &mut SimRng::new(9));
        for s in &specs {
            assert_eq!(s.affinity, Some(s.tenant % 2));
        }
        // The knob draws nothing and touches nothing else: the hint-free
        // mix from the same seed is identical, affinity aside.
        let plain = tenant_tasks(
            &TenantMixParams {
                affinity_devices: 0,
                ..params
            },
            &cids(3),
            &mut SimRng::new(9),
        );
        for (a, b) in specs.iter().zip(&plain) {
            assert_eq!(b.affinity, None);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.ops, b.ops);
            assert_eq!(a.name, b.name);
        }
    }
}
