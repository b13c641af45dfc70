//! Shared experiment setup.

use fpga::{ConfigPort, ConfigTiming, DeviceSpec};
use fsim::{SimDuration, SimRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use vfpga::manager::partition::{PartitionManager, PartitionMode};
use vfpga::{
    CircuitId, CircuitLib, FpgaManager, Op, PreemptAction, Report, RoundRobinScheduler, Scheduler,
    ShardCtx, System, SystemConfig, TaskSpec, VfpgaError,
};
use workload::{suite, tenant_tasks, Domain, MixParams, TenantMixParams};

/// `spec` configured over the fast serial port — the port that supports
/// partial reconfiguration, and the one most experiments run on.
pub fn serial_fast(spec: DeviceSpec) -> ConfigTiming {
    ConfigTiming {
        spec,
        port: ConfigPort::SerialFast,
    }
}

/// The default system, except that a preempted FPGA op saves and restores
/// its state (§3) instead of running to completion.
pub fn save_restore() -> SystemConfig {
    SystemConfig {
        preempt: PreemptAction::SaveRestore,
        ..Default::default()
    }
}

/// A variable-partition manager (§4) over the whole device, save/restore
/// on preemption.
pub fn variable_partitions(lib: &Arc<CircuitLib>, timing: ConfigTiming) -> PartitionManager {
    PartitionManager::new(
        lib.clone(),
        timing,
        PartitionMode::Variable,
        PreemptAction::SaveRestore,
    )
    .expect("variable partitions fit any device")
}

/// Run one system to completion with a 4096-event trace ring: the arm every
/// E2–E14 sweep point ends in. Their workloads cannot deadlock.
pub fn run_traced<M: FpgaManager, S: Scheduler>(
    lib: &Arc<CircuitLib>,
    mgr: M,
    sched: S,
    config: SystemConfig,
    specs: Vec<TaskSpec>,
) -> Report {
    System::new(lib.clone(), mgr, sched, config, specs)
        .with_trace_capacity(4096)
        .run()
        .expect("deadlock")
}

/// Compile every app of the given domains into one circuit library sized
/// for `spec`; returns the library and circuit ids in suite order.
pub fn compile_suite_lib(
    domains: &[Domain],
    spec: DeviceSpec,
) -> (Arc<CircuitLib>, Vec<CircuitId>) {
    let (lib, ids, _) = compile_suite_lib_sw(domains, spec);
    (lib, ids)
}

/// Like [`compile_suite_lib`], but also returns each circuit's software
/// cost (ns per hardware cycle, the app's co-processor model) keyed by
/// circuit id — the map [`vfpga::DegradationConfig`] wants.
pub fn compile_suite_lib_sw(
    domains: &[Domain],
    spec: DeviceSpec,
) -> (Arc<CircuitLib>, Vec<CircuitId>, BTreeMap<u32, u64>) {
    let mut lib = CircuitLib::new();
    let mut ids = Vec::new();
    let mut sw = BTreeMap::new();
    for &d in domains {
        for app in suite(d, spec.rows).apps {
            let ns = app.sw_ns_per_cycle();
            let id = lib.register_shared(app.compiled);
            ids.push(id);
            sw.insert(id.0, ns);
        }
    }
    (Arc::new(lib), ids, sw)
}

/// E4's task mix, which `trace_dump` runs too: 12 Poisson arrivals 2 ms
/// apart on average, 3 ms CPU bursts, six FPGA ops of 100k–500k cycles.
pub fn e4_mix() -> MixParams {
    MixParams {
        tasks: 12,
        mean_interarrival: SimDuration::from_millis(2),
        mean_cpu_burst: SimDuration::from_millis(3),
        fpga_ops_per_task: 6,
        cycles: (100_000, 500_000),
    }
}

/// The task shape E15–E21 share: `tasks` Poisson arrivals, 2 ms CPU
/// bursts, four FPGA ops of 60k–250k cycles each.
pub fn os_mix(tasks: usize, mean_interarrival: SimDuration) -> MixParams {
    MixParams {
        tasks,
        mean_interarrival,
        mean_cpu_burst: SimDuration::from_millis(2),
        fpga_ops_per_task: 4,
        cycles: (60_000, 250_000),
    }
}

/// The fleet workload of E19, E21 and `trace_dump --section fleet`: twelve
/// [`os_mix`] tasks from four tenants, whose tenant-to-device affinity
/// hints cycle over `affinity_devices` devices (only the affinity placement
/// policy reads them; 1 piles every tenant onto device 0).
pub fn fleet_specs(ids: &[CircuitId], seed: u64, affinity_devices: u32) -> Vec<TaskSpec> {
    tenant_tasks(
        &TenantMixParams {
            base: os_mix(12, SimDuration::from_millis(2)),
            tenants: 4,
            affinity_devices,
            ..Default::default()
        },
        ids,
        &mut SimRng::new(seed),
    )
}

/// The shard factory of E19, E21 and `trace_dump --section fleet`: each
/// shard a system over `manager(lib)`, RR 4 ms, save/restore. When the
/// fleet degrades a shard to software, every FPGA op is re-priced as host
/// CPU time at the e12 co-processor model's software cost (`sw`, as
/// [`compile_suite_lib_sw`] returns it).
pub fn fleet_shards<M: FpgaManager>(
    lib: &Arc<CircuitLib>,
    sw: &Arc<BTreeMap<u32, u64>>,
    manager: impl Fn(&Arc<CircuitLib>) -> M,
) -> impl FnMut(&ShardCtx<'_>) -> Result<System<M, RoundRobinScheduler>, VfpgaError> {
    let (lib, sw) = (lib.clone(), sw.clone());
    move |ctx| {
        let mut specs = ctx.specs.to_vec();
        if ctx.software {
            for op in specs.iter_mut().flat_map(|s| &mut s.ops) {
                if let Op::FpgaRun { circuit, cycles } = *op {
                    let ns = sw.get(&circuit.0).copied().unwrap_or(1);
                    *op = Op::Cpu(SimDuration::from_nanos(ns.saturating_mul(cycles)));
                }
            }
        }
        let rr = RoundRobinScheduler::new(SimDuration::from_millis(4));
        Ok(System::new(
            lib.clone(),
            manager(&lib),
            rr,
            save_restore(),
            specs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_lib_compiles() {
        let spec = fpga::device::part("VF400");
        let (lib, ids) = compile_suite_lib(&[Domain::Telecom], spec);
        assert_eq!(lib.len(), 4);
        assert_eq!(ids.len(), 4);
    }

    #[test]
    fn suite_lib_sw_prices_every_circuit() {
        let spec = fpga::device::part("VF400");
        let (lib, ids, sw) = compile_suite_lib_sw(&[Domain::Telecom], spec);
        assert_eq!(lib.len(), 4);
        assert_eq!(sw.len(), ids.len());
        for id in &ids {
            assert!(sw[&id.0] >= 1);
        }
    }
}
