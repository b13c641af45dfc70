//! `System::free_migrated` held to the rule it replaced, kept here as the
//! oracle: the circuits some op of the tenant's tasks names, minus every
//! circuit some op of another tenant's task names, each set built whole.
//! Over generated tenant/op tables, the claims the call frees must be
//! exactly the resident claims on that set, and a second call — the
//! journal-replay redo of a crash between commit and free — frees none.

mod common;

use common::{lib4, partition_system};
use fsim::{SimDuration, SimRng, SimTime};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use vfpga::circuit::{CircuitId, CircuitLib};
use vfpga::manager::partition::PartitionManager;
use vfpga::manager::{FpgaManager, ResidentRegion};
use vfpga::sched::FifoScheduler;
use vfpga::task::{Op, TaskSpec};

/// The circuits only `tenant` uses, by the two-set rule.
fn oracle(specs: &[TaskSpec], tenant: u32) -> BTreeSet<u32> {
    let circuits_of = |of: &dyn Fn(u32) -> bool| -> BTreeSet<u32> {
        let specs = specs.iter().filter(|spec| of(spec.tenant));
        let ops = specs.flat_map(|spec| &spec.ops);
        ops.filter_map(|op| match *op {
            Op::FpgaRun { circuit, .. } => Some(circuit.0),
            Op::Cpu(_) => None,
        })
        .collect()
    };
    let mut exclusive = circuits_of(&|t| t == tenant);
    for cid in circuits_of(&|t| t != tenant) {
        exclusive.remove(&cid);
    }
    exclusive
}

/// Run `specs` to the end, then call `free_migrated(tenant)` twice when a
/// tenant is given: what each call freed, and the claims resident after.
fn run(
    lib: &Arc<CircuitLib>,
    specs: &[TaskSpec],
    tenant: Option<u32>,
) -> (Vec<u32>, Vec<ResidentRegion>) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let probe = Arc::clone(&seen);
    let mut sys = partition_system(lib.clone(), FifoScheduler::new(), specs.to_vec())
        .with_run_probe(move |m: &PartitionManager, _| {
            *probe.lock().unwrap() = m.resident_regions();
        });
    assert!(sys.run_to_cut(None).unwrap().is_none(), "no cut was asked");
    let freed = match tenant {
        Some(t) => vec![sys.free_migrated(t), sys.free_migrated(t)],
        None => Vec::new(),
    };
    sys.finish().unwrap();
    let residents = seen.lock().unwrap().clone();
    (freed, residents)
}

/// `tasks` tasks of `tenants` tenants, 30 µs apart, each running one to
/// three of `ids`' circuits.
fn generated(rng: &mut SimRng, ids: &[CircuitId], tenants: u32, tasks: u32) -> Vec<TaskSpec> {
    (0..tasks)
        .map(|i| {
            let mut ops = vec![Op::Cpu(SimDuration::from_micros(40))];
            for _ in 0..rng.range_u64(1, 4) {
                ops.push(Op::FpgaRun {
                    circuit: ids[rng.below(ids.len() as u64) as usize],
                    cycles: 20_000,
                });
            }
            let at = SimTime::ZERO + SimDuration::from_micros(u64::from(i) * 30);
            let tenant = rng.below(u64::from(tenants)) as u32;
            TaskSpec::new(format!("t{i}"), at, ops).with_tenant(tenant)
        })
        .collect()
}

/// Free `tenant`'s circuits after a run of `specs` and check the call
/// against the oracle; returns how many claims the first call freed.
fn check(lib: &Arc<CircuitLib>, specs: &[TaskSpec], tenant: u32) -> u32 {
    let (_, before) = run(lib, specs, None);
    let (freed, after) = run(lib, specs, Some(tenant));
    let only = oracle(specs, tenant);
    let kept: Vec<ResidentRegion> = before
        .iter()
        .copied()
        .filter(|claim| !only.contains(&claim.cid.0))
        .collect();
    assert_eq!(after, kept, "tenant {tenant}: the claims left resident");
    assert_eq!(
        freed[0] as usize,
        before.len() - kept.len(),
        "tenant {tenant}"
    );
    assert_eq!(freed[1], 0, "tenant {tenant}: the redo frees nothing");
    freed[0]
}

#[test]
fn free_migrated_frees_what_the_two_set_rule_names() {
    let (lib, ids) = lib4();
    let mut rng = SimRng::new(0x0F7EE);
    let mut freed = 0;
    for _ in 0..24 {
        let tenants = rng.range_u64(2, 5) as u32;
        let tasks = rng.range_u64(3, 11) as u32;
        let specs = generated(&mut rng, &ids, tenants, tasks);
        for tenant in 0..tenants {
            freed += check(&lib, &specs, tenant);
        }
    }
    assert!(freed > 0, "no generated table freed anything");
}

#[test]
fn a_tenant_whose_circuits_are_all_shared_frees_nothing() {
    let (lib, ids) = lib4();
    let task = |i: u64, tenant: u32, cids: &[CircuitId]| {
        let mut ops = vec![Op::Cpu(SimDuration::from_micros(40))];
        ops.extend(cids.iter().map(|&circuit| Op::FpgaRun {
            circuit,
            cycles: 20_000,
        }));
        let at = SimTime::ZERO + SimDuration::from_micros(i * 30);
        TaskSpec::new(format!("t{i}"), at, ops).with_tenant(tenant)
    };
    let specs = vec![
        task(0, 0, &[ids[0], ids[1]]),
        task(1, 1, &[ids[1], ids[2]]),
        task(2, 0, &[ids[2]]),
        task(3, 2, &[ids[0], ids[3]]),
    ];
    assert!(oracle(&specs, 0).is_empty());
    let (_, before) = run(&lib, &specs, None);
    assert!(
        before.iter().any(|claim| claim.cid == ids[0]),
        "tenant 0's circuits are resident after the run: {before:?}"
    );
    assert_eq!(check(&lib, &specs, 0), 0);
    // Tenant 2 alone uses the last circuit: that one goes.
    assert_eq!(oracle(&specs, 2), BTreeSet::from([ids[3].0]));
    check(&lib, &specs, 2);
}
