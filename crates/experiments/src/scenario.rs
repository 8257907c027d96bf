//! The experiment design of paper Table IIa.
//!
//! Five experiment families sweep one knob each while the rest of the
//! testbed is pinned:
//!
//! | family | migrant | swept knob | mechanism |
//! |---|---|---|---|
//! | CPULOAD-SOURCE | migrating-cpu | load-cpu VMs on source (0→8) | live + non-live |
//! | CPULOAD-TARGET | migrating-cpu | load-cpu VMs on target (0→8) | live + non-live |
//! | MEMLOAD-VM | migrating-mem | dirtying ratio 5–95 % | live |
//! | MEMLOAD-SOURCE | migrating-mem @95 % | load-cpu VMs on source | live |
//! | MEMLOAD-TARGET | migrating-mem @95 % | load-cpu VMs on target | live |
//!
//! The load levels follow the figures' legends (0/1/3/5/7/8 VMs — with a
//! 4-vCPU migrant on a 32-thread host, 8 load VMs oversubscribe the CPUs,
//! the paper's "multiplexing" case) and the MEMLOAD ratios follow Fig. 5
//! (5/15/35/55/75/95 %).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;
use wavm3_cluster::{hardware, vm_instances, Cluster, Link, MachineSet, VmId};
use wavm3_harness::Wavm3Error;
use wavm3_migration::{MigrationConfig, MigrationKind, MigrationSimulation};
use wavm3_simkit::RngFactory;
use wavm3_workloads::{MatMulWorkload, PageDirtierWorkload, Workload};

/// Load levels (number of `load-cpu` VMs) of the figures' legends.
pub const LOAD_VM_LEVELS: [usize; 6] = [0, 1, 3, 5, 7, 8];

/// Dirtying-ratio levels of Fig. 5, percent.
pub const DR_LEVELS_PCT: [u32; 6] = [5, 15, 35, 55, 75, 95];

/// The five experiment families of Table IIa.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExperimentFamily {
    /// CPU-intensive load swept on the source host.
    CpuloadSource,
    /// CPU-intensive load swept on the target host.
    CpuloadTarget,
    /// Dirtying ratio swept on the migrating VM.
    MemloadVm,
    /// Memory-hot migrant + CPU load swept on the source.
    MemloadSource,
    /// Memory-hot migrant + CPU load swept on the target.
    MemloadTarget,
}

impl ExperimentFamily {
    /// Paper-style family name.
    pub fn label(&self) -> &'static str {
        match self {
            ExperimentFamily::CpuloadSource => "CPULOAD-SOURCE",
            ExperimentFamily::CpuloadTarget => "CPULOAD-TARGET",
            ExperimentFamily::MemloadVm => "MEMLOAD-VM",
            ExperimentFamily::MemloadSource => "MEMLOAD-SOURCE",
            ExperimentFamily::MemloadTarget => "MEMLOAD-TARGET",
        }
    }
}

/// One fully pinned experimental configuration (one curve of one figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Family this scenario belongs to.
    pub family: ExperimentFamily,
    /// Migration mechanism.
    pub kind: MigrationKind,
    /// Machine pair to run on.
    pub machine_set: MachineSet,
    /// `load-cpu` VMs on the source host.
    pub source_load_vms: usize,
    /// `load-cpu` VMs on the target host.
    pub target_load_vms: usize,
    /// `Some(ratio)` → migrating-mem with that working-set fraction;
    /// `None` → migrating-cpu at full CPU load.
    pub migrant_mem_ratio: Option<f64>,
    /// Legend label ("3 VM", "55%", …).
    pub label: String,
}

impl Scenario {
    /// All scenarios of a family on one machine set, in sweep order.
    pub fn family_scenarios(family: ExperimentFamily, set: MachineSet) -> Vec<Scenario> {
        let mut out = Vec::new();
        match family {
            ExperimentFamily::CpuloadSource | ExperimentFamily::CpuloadTarget => {
                for kind in [MigrationKind::NonLive, MigrationKind::Live] {
                    for &n in &LOAD_VM_LEVELS {
                        let (src, dst) = if family == ExperimentFamily::CpuloadSource {
                            (n, 0)
                        } else {
                            (0, n)
                        };
                        out.push(Scenario {
                            family,
                            kind,
                            machine_set: set,
                            source_load_vms: src,
                            target_load_vms: dst,
                            migrant_mem_ratio: None,
                            label: format!("{n} VM"),
                        });
                    }
                }
            }
            ExperimentFamily::MemloadVm => {
                for &pct in &DR_LEVELS_PCT {
                    out.push(Scenario {
                        family,
                        kind: MigrationKind::Live,
                        machine_set: set,
                        source_load_vms: 0,
                        target_load_vms: 0,
                        migrant_mem_ratio: Some(pct as f64 / 100.0),
                        label: format!("{pct}%"),
                    });
                }
            }
            ExperimentFamily::MemloadSource | ExperimentFamily::MemloadTarget => {
                for &n in &LOAD_VM_LEVELS {
                    let (src, dst) = if family == ExperimentFamily::MemloadSource {
                        (n, 0)
                    } else {
                        (0, n)
                    };
                    out.push(Scenario {
                        family,
                        kind: MigrationKind::Live,
                        machine_set: set,
                        source_load_vms: src,
                        target_load_vms: dst,
                        migrant_mem_ratio: Some(0.95),
                        label: format!("{n} VM"),
                    });
                }
            }
        }
        out
    }

    /// The complete campaign of Table IIa on one machine set.
    pub fn full_campaign(set: MachineSet) -> Vec<Scenario> {
        [
            ExperimentFamily::CpuloadSource,
            ExperimentFamily::CpuloadTarget,
            ExperimentFamily::MemloadVm,
            ExperimentFamily::MemloadSource,
            ExperimentFamily::MemloadTarget,
        ]
        .into_iter()
        .flat_map(|f| Scenario::family_scenarios(f, set))
        .collect()
    }

    /// Instantiate the simulator for this scenario with a given RNG scope.
    pub fn build(&self, rng: RngFactory) -> MigrationSimulation {
        self.build_with_config(rng, MigrationConfig::new(self.kind))
    }

    /// Like [`Scenario::build`], but with an explicit engine configuration
    /// (the runner uses this to thread a fault-injection config through).
    /// `config.kind` must agree with the scenario's mechanism. Panics with
    /// the error of a config the simulation rejects.
    pub fn build_with_config(
        &self,
        rng: RngFactory,
        config: MigrationConfig,
    ) -> MigrationSimulation {
        match self.try_build_with_config(rng, config) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Scenario::build_with_config`] through
    /// [`MigrationSimulation::try_new`]: a config the simulation rejects
    /// (one that cannot finish before the horizon, say) is an error.
    pub fn try_build_with_config(
        &self,
        rng: RngFactory,
        config: MigrationConfig,
    ) -> Result<MigrationSimulation, Wavm3Error> {
        assert_eq!(
            config.kind, self.kind,
            "engine config disagrees with the scenario's mechanism"
        );
        let (src_spec, dst_spec) = hardware::pair(self.machine_set);
        let mut cluster = Cluster::new(Link::gigabit());
        let source = cluster.add_host(src_spec);
        let target = cluster.add_host(dst_spec);
        let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();

        let migrant = match self.migrant_mem_ratio {
            Some(ratio) => {
                let id = cluster.boot_vm(source, vm_instances::migrating_mem());
                workloads.insert(id, Arc::new(PageDirtierWorkload::with_ratio(ratio)));
                id
            }
            None => {
                let id = cluster.boot_vm(source, vm_instances::migrating_cpu());
                workloads.insert(id, Arc::new(MatMulWorkload::full(4)));
                id
            }
        };
        for i in 0..self.source_load_vms {
            let id = cluster.boot_vm(source, vm_instances::load_cpu());
            workloads.insert(
                id,
                Arc::new(MatMulWorkload::full(4).with_phase(i as f64 * 0.137)),
            );
        }
        for i in 0..self.target_load_vms {
            let id = cluster.boot_vm(target, vm_instances::load_cpu());
            workloads.insert(
                id,
                Arc::new(MatMulWorkload::full(4).with_phase(0.41 + i as f64 * 0.137)),
            );
        }

        MigrationSimulation::try_new(cluster, workloads, migrant, source, target, config, rng)
    }

    /// A stable identifier for seeding and file names, e.g.
    /// `cpuload-source/live/m01-m02/3 VM`.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.family.label().to_lowercase(),
            self.kind.label(),
            self.machine_set.label(),
            self.label
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpuload_families_cover_both_kinds_and_levels() {
        let s = Scenario::family_scenarios(ExperimentFamily::CpuloadSource, MachineSet::M);
        assert_eq!(s.len(), 12); // 2 kinds × 6 levels
        assert!(s.iter().all(|x| x.migrant_mem_ratio.is_none()));
        assert!(s.iter().all(|x| x.target_load_vms == 0));
        assert_eq!(
            s.iter().filter(|x| x.kind == MigrationKind::Live).count(),
            6
        );
    }

    #[test]
    fn memload_vm_is_live_only_with_ratio_sweep() {
        let s = Scenario::family_scenarios(ExperimentFamily::MemloadVm, MachineSet::M);
        assert_eq!(s.len(), 6);
        assert!(s.iter().all(|x| x.kind == MigrationKind::Live));
        assert_eq!(s[0].migrant_mem_ratio, Some(0.05));
        assert_eq!(s[5].migrant_mem_ratio, Some(0.95));
    }

    #[test]
    fn memload_load_families_pin_ratio_at_95() {
        for fam in [
            ExperimentFamily::MemloadSource,
            ExperimentFamily::MemloadTarget,
        ] {
            let s = Scenario::family_scenarios(fam, MachineSet::O);
            assert_eq!(s.len(), 6);
            assert!(s.iter().all(|x| x.migrant_mem_ratio == Some(0.95)));
            assert!(s.iter().all(|x| x.machine_set == MachineSet::O));
        }
    }

    #[test]
    fn full_campaign_size_matches_design() {
        // 12 + 12 + 6 + 6 + 6 = 42 scenarios per machine set.
        assert_eq!(Scenario::full_campaign(MachineSet::M).len(), 42);
    }

    #[test]
    fn ids_are_unique() {
        let all = Scenario::full_campaign(MachineSet::M);
        let mut ids: Vec<String> = all.iter().map(|s| s.id()).collect();
        ids.sort();
        let n = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn scenarios_build_and_run() {
        // Smoke-run the cheapest scenario end to end.
        let s = Scenario {
            family: ExperimentFamily::CpuloadSource,
            kind: MigrationKind::NonLive,
            machine_set: MachineSet::M,
            source_load_vms: 1,
            target_load_vms: 0,
            migrant_mem_ratio: None,
            label: "1 VM".into(),
        };
        let record = s.build(RngFactory::new(1)).run();
        assert!(record.total_bytes > 0);
        assert_eq!(record.kind, MigrationKind::NonLive);
    }
}
