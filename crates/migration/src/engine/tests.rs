//! Pins the slot arrays to the cluster's Eq. 2 (`wavm3_cluster::Host`).

use super::*;
use crate::config::MigrationConfig;
use proptest::prelude::*;
use std::collections::BTreeMap;
use wavm3_cluster::{hardware, vm_instances, Cluster, VmId, VmSpec};
use wavm3_workloads::MatMulWorkload;

/// One VM: vCPUs, suspended when 0, has a workload unless 0, demand.
fn vm() -> impl Strategy<Value = (u32, u8, u8, f64)> {
    (1u32..9, 0u8..4, 0u8..4, 0.0f64..10.0)
}

proptest! {
    /// The slots fold the cluster's Eq. 2 — the same running count,
    /// `vm_cores` and allocation with the migration's cores added —
    /// and keep its placement order across a relocation. The slots are
    /// the sampled engine's: profile constants, and a trait call per tick
    /// for each demand curve that moves.
    #[test]
    fn slots_follow_the_clusters_eq2(
        src_vms in prop::collection::vec(vm(), 1..10),
        dst_vms in prop::collection::vec(vm(), 0..10),
        pick in 0usize..9,
        migration_cores in (0.0f64..4.0, 0.0f64..4.0),
    ) {
        let now = SimTime::from_secs(3);
        let mut cluster = Cluster::new(Link::gigabit());
        let source = cluster.add_host(hardware::m01());
        let target = cluster.add_host(hardware::m02());
        let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();
        for (host, vms) in [(source, &src_vms), (target, &dst_vms)] {
            for &(vcpus, state, kind, demand) in vms {
                let id = cluster.boot_vm(host, VmSpec { vcpus, ..vm_instances::load_cpu() });
                let vm = cluster.vm_mut(id).expect("just booted");
                if kind > 0 {
                    let w = MatMulWorkload::with_cores(demand).with_phase(demand);
                    vm.set_cpu_demand(w.cpu_demand(now));
                    workloads.insert(id, Arc::new(w));
                }
                if state == 0 {
                    vm.suspend();
                }
            }
        }
        let on_source = cluster.host(source).vms();
        let migrant = on_source[pick % on_source.len()].id;
        let mut relocated = cluster.clone();
        relocated.relocate_vm(migrant, source, target);
        let config = MigrationConfig::live();
        let rng = RngFactory::new(1);
        let sim = MigrationSimulation::new(
            cluster.clone(), workloads, migrant, source, target, config, rng,
        );
        let mut arena = RunSlot::default();
        let mut mech = Mechanism::new(&sim, &rng, &mut arena);
        let mut hosts = Hosts::new(&sim, now, sampled_profile, &mut arena);

        for relocate in [false, true] {
            if relocate {
                mech.migrant_on_target = true;
                let _ = hosts.apply_moves(&mech, Moves { relocated: true, ..Moves::default() });
            }
            let cluster = if relocate { &relocated } else { &cluster };
            let endpoints = [
                (&mut hosts.src, source, migration_cores.0),
                (&mut hosts.dst, target, migration_cores.1),
            ];
            for (state, id, cores) in endpoints {
                let host = cluster.host(id);
                let acc = host.cpu_accounting();
                let sums = state.refresh_tick(now, 1.0);
                prop_assert_eq!(sums.running, host.running_vm_count());
                prop_assert_eq!(sums.vm_cores, acc.vm_cores);
                prop_assert_eq!(
                    state.allocate(sums.running, sums.vm_cores, cores),
                    CpuAccounting { migration_cores: cores, ..acc }
                        .allocate(host.spec.cpu_capacity())
                );
                prop_assert_eq!(state.slots.len(), host.vms().len());
                for (slot, vm) in state.slots.iter().zip(host.vms()) {
                    let demand = if slot.running { slot.demand } else { 0.0 };
                    prop_assert_eq!(
                        (slot.vcpus, slot.running, slot.is_migrant, demand),
                        (vm.spec.vcpus as f64, vm.is_running(), vm.id == migrant, vm.cpu_demand())
                    );
                }
            }
        }
    }
}
