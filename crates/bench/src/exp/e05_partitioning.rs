//! E5 — Fixed vs variable partitioning (paper §4).
//!
//! Claim operationalized: "Partitions may have the same or different sizes
//! as well as fixed or variable size" — fixed partitions are simple but
//! waste area when circuits are narrower than their slot (internal
//! fragmentation) and reject circuits wider than any slot; variable
//! partitions fit exactly but fragment externally.
//!
//! The same heterogeneous mix runs under uniform fixed widths 4/5/10 and
//! under variable partitioning.

use super::grid::{self, Grid};
use super::RunArgs;
use crate::report::{f3, pct, secs};
use crate::setup::{compile_suite_lib, run_traced, save_restore, serial_fast};
use crate::Exporter;
use fsim::{SimDuration, SimRng};
use vfpga::manager::partition::{PartitionManager, PartitionMode};
use vfpga::{PreemptAction, Report, RoundRobinScheduler};
use workload::{poisson_tasks, Domain, MixParams};

/// A mode's run and its internal fragmentation, `None` when some circuit
/// is wider than every slot (it could never load).
type Out = Option<(Report, f64)>;

/// `f` of a feasible mode's run, `-` for an infeasible one.
fn feasible(c: &grid::Cell<(String, PartitionMode), Out>, f: fn(&Report) -> String) -> String {
    c.out.as_ref().map_or("-".into(), |(r, _)| f(r))
}

pub fn run(args: &RunArgs) -> Result<Exporter, String> {
    let spec = fpga::device::part("VF400"); // 20 columns
    let (lib, ids) = compile_suite_lib(&[Domain::Multimedia, Domain::Telecom], spec);
    // Internal-fragmentation accounting: circuit widths.
    let widths: Vec<u32> = ids.iter().map(|&i| lib.get(i).shape().0).collect();
    let wmax = *widths.iter().max().expect("the suites hold circuits");
    let modes: Vec<(String, PartitionMode)> = vec![
        // One slot wide enough for the widest circuit plus smaller ones.
        (
            format!("fixed [{wmax},{},3]", 20 - wmax - 3),
            PartitionMode::Fixed(vec![wmax, 20 - wmax - 3, 3]),
        ),
        (
            format!("fixed [{wmax},{}]", 20 - wmax),
            PartitionMode::Fixed(vec![wmax, 20 - wmax]),
        ),
        // Uniform slots too narrow for the widest circuit: infeasible.
        ("fixed 10x2".into(), PartitionMode::Fixed(vec![10, 10])),
        ("variable".into(), PartitionMode::Variable),
    ];
    let cell = |(_, mode): &(String, PartitionMode)| {
        // Internal fragmentation: mean over circuits of
        // (slot_width - circuit_width)/slot_width for the smallest slot
        // that fits.
        let int_frag = match mode {
            PartitionMode::Fixed(ws) => {
                let slot = |w| ws.iter().copied().filter(|&s| s >= w).min();
                let frag = |&w: &u32| slot(w).map(|s| (s - w) as f64 / s as f64);
                let Some(fs) = widths.iter().map(frag).collect::<Option<Vec<_>>>() else {
                    return Ok(None);
                };
                fs.iter().sum::<f64>() / widths.len() as f64
            }
            PartitionMode::Variable => 0.0,
        };
        let mix = MixParams {
            tasks: 10,
            mean_interarrival: SimDuration::from_millis(2),
            mean_cpu_burst: SimDuration::from_millis(2),
            fpga_ops_per_task: 5,
            cycles: (50_000, 200_000),
        };
        let specs = poisson_tasks(&mix, &ids, &mut SimRng::new(0xE05));
        let (timing, save) = (serial_fast(spec), PreemptAction::SaveRestore);
        let mgr = PartitionManager::new(lib.clone(), timing, mode.clone(), save)
            .expect("every slot fits the device");
        let sched = RoundRobinScheduler::new(SimDuration::from_millis(10));
        Ok(Some((
            run_traced(&lib, mgr, sched, save_restore(), specs),
            int_frag,
        )))
    };
    let grid = Grid {
        code: "e05",
        title: "fixed vs variable partitioning",
        seed: 0xE05,
        params: vec![
            ("device", spec.name.into()),
            ("tasks", 10u64.into()),
            ("max_circuit_width", wmax.into()),
        ],
        intro: &format!("circuit widths: {widths:?} (max {wmax})\n"),
        points: vec![grid::points(modes)],
        label: |(name, _)| name.clone(),
        cell: &cell,
        table: "E5: fixed vs variable partitioning (VF400, circuit widths up to given max)",
        columns: &[
            ("mode", |c| c.label.clone()),
            ("makespan (s)", |c| feasible(c, |r| secs(r.makespan))),
            ("mean wait (s)", |c| feasible(c, |r| f3(r.mean_waiting_s()))),
            ("downloads", |c| {
                feasible(c, |r| r.manager_stats.downloads.to_string())
            }),
            ("blocks", |c| {
                feasible(c, |r| {
                    r.tasks
                        .iter()
                        .map(|t| t.blocked_count)
                        .sum::<u64>()
                        .to_string()
                })
            }),
            ("evictions", |c| {
                feasible(c, |r| r.manager_stats.evictions.to_string())
            }),
            ("splits", |c| {
                feasible(c, |r| r.manager_stats.splits.to_string())
            }),
            ("gc runs", |c| {
                feasible(c, |r| r.manager_stats.gc_runs.to_string())
            }),
            ("internal frag", |c| match &c.out {
                Some((_, frag)) => pct(*frag),
                None => "infeasible (circuit wider than every slot)".into(),
            }),
        ],
        reports: |c| c.out.iter().map(|(r, _)| (c.label.clone(), r)).collect(),
        ..Grid::default()
    };
    grid::run(args, grid)
}
