//! Mechanism comparison (extension): non-live vs live pre-copy vs
//! post-copy, across workload types — downtime, bytes, energy, and the
//! guest-visible SLA impact.

use std::collections::BTreeMap;
use std::sync::Arc;
use wavm3_cluster::{hardware, vm_instances, Cluster, Link, MachineSet, VmId};
use wavm3_experiments::campaign::Campaign;
use wavm3_experiments::cli::CliOptions;
use wavm3_harness::Wavm3Error;
use wavm3_migration::{
    MigrationConfig, MigrationKind, MigrationRecord, MigrationSimulation, SlaReport,
};
use wavm3_simkit::RngFactory;
use wavm3_workloads::{MatMulWorkload, PageDirtierWorkload, Workload};

fn run(kind: MigrationKind, mem_ratio: Option<f64>, seed: u64) -> MigrationRecord {
    let (s_spec, t_spec) = hardware::pair(MachineSet::M);
    let mut cluster = Cluster::new(Link::gigabit());
    let src = cluster.add_host(s_spec);
    let dst = cluster.add_host(t_spec);
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

pub fn body(opts: &CliOptions, _campaign: &Campaign) -> Result<(), Wavm3Error> {
    let reps = match opts.runner.repetitions {
        wavm3_experiments::RepetitionPolicy::Fixed(n) => n,
        _ => 5,
    };
    println!("MECHANISMS (extension): non-live vs live pre-copy vs post-copy");
    println!(
        "{:<12} {:<10} {:>9} {:>10} {:>9} {:>10} {:>11} {:>9}",
        "workload",
        "mechanism",
        "transfer",
        "downtime",
        "bytes",
        "E_total",
        "lost CPU-s",
        "rel perf"
    );
    for (wl_label, ratio) in [("cpu-bound", None), ("mem 95%", Some(0.95))] {
        for kind in [
            MigrationKind::NonLive,
            MigrationKind::Live,
            MigrationKind::PostCopy,
        ] {
            let mut acc: Vec<MigrationRecord> = Vec::new();
            for r in 0..reps {
                acc.push(run(kind, ratio, opts.runner.base_seed ^ r as u64));
            }
            let n = acc.len() as f64;
            let mean = |f: &dyn Fn(&MigrationRecord) -> f64| acc.iter().map(f).sum::<f64>() / n;
            let sla_mean = |f: &dyn Fn(&SlaReport) -> f64| {
                acc.iter()
                    .map(|x| f(&SlaReport::from_record(x)))
                    .sum::<f64>()
                    / n
            };
            println!(
                "{:<12} {:<10} {:>8.1}s {:>9.2}s {:>7.2}G {:>8.1}kJ {:>10.1}s {:>8.0}%",
                wl_label,
                kind.label(),
                mean(&|x| x.phases.transfer().as_secs_f64()),
                mean(&|x| x.downtime.as_secs_f64()),
                mean(&|x| x.total_bytes as f64 / 1e9),
                mean(&|x| x.total_energy_j() / 1e3),
                sla_mean(&|s| s.lost_cpu_seconds),
                sla_mean(&|s| s.relative_performance) * 100.0,
            );
        }
    }
    println!();
    println!("(post-copy: fixed sub-second downtime and single-pass bytes even for");
    println!(" hot memory, paid for with degraded guest performance during transfer)");
    Ok(())
}
