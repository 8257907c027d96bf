//! Every config `MigrationSimulation::try_new` accepts runs to completion
//! inside the horizon, with finite energies and, for post-copy, a resumed
//! guest; the rest are config errors, never panics.
//!
//! The post-copy guest is suspended on the first tick at or after the
//! transfer start `ts` and resumed on the first tick at or after `ts` plus
//! the handover. So its downtime is in `[handover, handover + tick)` when
//! `ts` falls on a tick, and within a tick of the handover otherwise.
//!
//! The hosts are idle on purpose: `try_new` prices the crossing at the
//! best rate (the cap, or the line), which a saturated host does not
//! reach. The analytic path suffices: both paths share the mechanism and
//! the horizon assert, and the fixed probes of
//! `configs_that_cannot_fit_the_horizon_are_config_errors` cover the
//! sampled path.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use wavm3_cluster::{hardware, vm_instances, Cluster, Link, MachineSet, VmId};
use wavm3_migration::{MigrationConfig, MigrationKind, MigrationSimulation, SimulationPath};
use wavm3_simkit::{RngFactory, SimDuration, SimTime};
use wavm3_workloads::{MatMulWorkload, PageDirtierWorkload, Workload};

const HORIZON: SimTime = SimTime::from_secs(3_600);

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn accepted_configs_finish_inside_the_horizon(
        kind_sel in 0usize..3,
        dirty_ratio in prop_oneof![Just(None), (0.0f64..=1.0).prop_map(Some)],
        // Log-uniform over 1-200 MB/s, so the caps near the horizon's edge
        // (1-5 MB/s for a 4 GiB image) come up often.
        cap in prop_oneof![Just(None), (0.0f64..=1.0).prop_map(|u| Some(1e6 * 200f64.powf(u)))],
        stall_ratio in (0.0f64..=1.0).prop_filter("stall_ratio > 0", |r| *r > 0.0),
        max_rounds in 1usize..=60,
        tick_ms in 50u64..=1_000,
        // Log-uniform over 0.1-3,000 s and 1 ms-60 s.
        handover_s in (0.0f64..=1.0).prop_map(|u| 0.1 * 30_000f64.powf(u)),
        wander_tau_s in (0.0f64..=1.0).prop_map(|u| 1e-3 * 60_000f64.powf(u)),
        seed in 0u64..10_000,
    ) {
        let kind = [MigrationKind::NonLive, MigrationKind::Live, MigrationKind::PostCopy][kind_sel];
        let (src_spec, dst_spec) = hardware::pair(MachineSet::M);
        let mut cluster = Cluster::new(Link::gigabit());
        let source = cluster.add_host(src_spec);
        let target = cluster.add_host(dst_spec);
        let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();
        let vm = match dirty_ratio {
            Some(r) => {
                let vm = cluster.boot_vm(source, vm_instances::migrating_mem());
                workloads.insert(vm, Arc::new(PageDirtierWorkload::with_ratio(r)));
                vm
            }
            None => {
                let vm = cluster.boot_vm(source, vm_instances::migrating_cpu());
                workloads.insert(vm, Arc::new(MatMulWorkload::full(4)));
                vm
            }
        };
        let mut config = MigrationConfig::new(kind);
        config.path = SimulationPath::Analytic;
        config.precopy.rate_limit_bps = cap;
        config.precopy.stall_ratio = stall_ratio;
        config.precopy.max_rounds = max_rounds;
        config.timing.tick = SimDuration::from_millis(tick_ms);
        config.timing.postcopy_handover = SimDuration::from_secs_f64(handover_s);
        config.env_noise.wander_tau_s = wander_tau_s;
        match MigrationSimulation::try_new(
            cluster,
            workloads,
            vm,
            source,
            target,
            config,
            RngFactory::new(seed),
        ) {
            Err(e) => prop_assert!(e.is_config_error(), "not a config error: {e}"),
            Ok(sim) => {
                let r = sim.run();
                prop_assert!(r.phases.me < HORIZON, "me {} past the horizon", r.phases.me);
                let (source_j, target_j) = (r.source_energy.total_j(), r.target_energy.total_j());
                prop_assert!(source_j.is_finite() && target_j.is_finite(), "{source_j} J, {target_j} J");
                if kind == MigrationKind::PostCopy {
                    let (handover, tick) = (config.timing.postcopy_handover, config.timing.tick);
                    let late = handover + tick;
                    prop_assert!(r.downtime < late, "downtime {} past {late}", r.downtime);
                    if r.phases.ts.as_micros() % tick.as_micros() == 0 {
                        prop_assert!(r.downtime >= handover, "downtime {} under {handover}", r.downtime);
                    } else {
                        prop_assert!(r.downtime + tick > handover, "downtime {} a tick short of {handover}", r.downtime);
                    }
                }
            }
        }
    }
}
