//! Service-level impact of a migration on the migrating VM.
//!
//! The paper's comparison targets energy, but its related work (§II —
//! Voorsluys, Akoush, Verma) frames migration cost in *performance* terms.
//! This module distils a [`MigrationRecord`] into
//! the guest-visible service metrics those works report, so the
//! consolidation layer can trade energy against SLA impact.

use crate::record::MigrationRecord;
use serde::{Deserialize, Serialize};
use wavm3_power::MigrationPhase;

/// Guest-visible impact of one migration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlaReport {
    /// Total VM unavailability (suspend → resume), seconds.
    pub downtime_s: f64,
    /// Wall-clock length of the whole migration `[ms, me]`, seconds.
    pub total_migration_s: f64,
    /// CPU-seconds the guest *lost* relative to uninterrupted execution:
    /// the suspension gap plus any multiplexing squeeze while migrating.
    pub lost_cpu_seconds: f64,
    /// Mean guest CPU allocation during the migration window relative to
    /// its pre-migration level (1.0 = unimpaired).
    pub relative_performance: f64,
}

impl SlaReport {
    /// Derive the report from a completed migration record.
    ///
    /// The guest's pre-migration CPU level is taken from the normal
    /// execution samples before `ms`; zero-demand guests report
    /// `relative_performance = 1.0` (nothing to impair).
    pub fn from_record(record: &MigrationRecord) -> SlaReport {
        let pre: Vec<f64> = record
            .samples
            .iter()
            .filter(|s| s.phase == MigrationPhase::NormalExecution && s.t < record.phases.ms)
            .map(|s| s.cpu_vm)
            .collect();
        let baseline = if pre.is_empty() {
            0.0
        } else {
            pre.iter().sum::<f64>() / pre.len() as f64
        };

        let window: Vec<f64> = record
            .samples
            .iter()
            .filter(|s| s.phase != MigrationPhase::NormalExecution)
            .map(|s| s.cpu_vm)
            .collect();
        let during = if window.is_empty() {
            baseline
        } else {
            window.iter().sum::<f64>() / window.len() as f64
        };

        let total_migration_s = record.phases.total().as_secs_f64();
        let relative_performance = if baseline > 1e-9 {
            (during / baseline).clamp(0.0, 1.0)
        } else {
            1.0
        };
        // Lost capacity integrated over the migration window, in units of
        // "baseline guest CPU-seconds".
        let lost_cpu_seconds = (1.0 - relative_performance) * total_migration_s;

        SlaReport {
            downtime_s: record.downtime.as_secs_f64(),
            total_migration_s,
            lost_cpu_seconds,
            relative_performance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MigrationConfig, MigrationKind};
    use crate::simulation::MigrationSimulation;
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use wavm3_cluster::{hardware, vm_instances, Cluster, Link, MachineSet, VmId};
    use wavm3_simkit::RngFactory;
    use wavm3_workloads::{MatMulWorkload, PageDirtierWorkload, Workload};

    fn run(kind: MigrationKind, mem_ratio: Option<f64>, seed: u64) -> crate::MigrationRecord {
        let (s, t) = hardware::pair(MachineSet::M);
        let mut cluster = Cluster::new(Link::gigabit());
        let src = cluster.add_host(s);
        let dst = cluster.add_host(t);
        let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();
        let migrant = match mem_ratio {
            Some(r) => {
                let id = cluster.boot_vm(src, vm_instances::migrating_mem());
                workloads.insert(id, Arc::new(PageDirtierWorkload::with_ratio(r)));
                id
            }
            None => {
                let id = cluster.boot_vm(src, vm_instances::migrating_cpu());
                workloads.insert(id, Arc::new(MatMulWorkload::full(4)));
                id
            }
        };
        MigrationSimulation::new(
            cluster,
            workloads,
            migrant,
            src,
            dst,
            MigrationConfig::new(kind),
            RngFactory::new(seed),
        )
        .run()
    }

    #[test]
    fn live_migration_barely_impairs_a_cpu_guest() {
        let r = run(MigrationKind::Live, None, 1);
        let sla = SlaReport::from_record(&r);
        assert!(sla.relative_performance > 0.9, "{sla:?}");
        assert!(sla.downtime_s > 0.01 && sla.downtime_s < 2.0, "{sla:?}");
    }

    #[test]
    fn non_live_migration_suspends_the_guest_throughout() {
        let r = run(MigrationKind::NonLive, None, 2);
        let sla = SlaReport::from_record(&r);
        // Suspended for essentially the whole migration window.
        assert!(sla.relative_performance < 0.1, "{sla:?}");
        assert!(sla.downtime_s > 30.0);
        assert!(
            sla.lost_cpu_seconds > 0.8 * sla.total_migration_s,
            "{sla:?}"
        );
    }

    #[test]
    fn hot_memory_guest_pays_a_partial_penalty() {
        let live_cold = SlaReport::from_record(&run(MigrationKind::Live, Some(0.05), 3));
        let live_hot = SlaReport::from_record(&run(MigrationKind::Live, Some(0.95), 3));
        assert!(live_hot.downtime_s > live_cold.downtime_s);
        assert!(live_hot.lost_cpu_seconds > live_cold.lost_cpu_seconds);
        assert!(live_hot.relative_performance < live_cold.relative_performance);
    }
}
