//! # wavm3-migration — the VM migration engine
//!
//! Implements both migration mechanisms of the paper (§III-A) on top of the
//! cluster substrate, with full energy-phase accounting:
//!
//! * **non-live (suspend/resume)** — suspend the VM, transfer its whole
//!   memory image, resume on the target;
//! * **live (pre-copy)** — iterative rounds: move the image while the VM
//!   runs, re-send pages dirtied during each round, terminate on a
//!   threshold / round cap / non-convergence stall, then stop-and-copy the
//!   final dirty set. With hot memory workloads the stall rule fires early
//!   and live migration degenerates to a long stop-and-copy — the paper's
//!   observation that "the live migration \[turns\] into a non-live one"
//!   (§VI-D).
//!
//! The engine couples transfer bandwidth to CPU availability on both
//! endpoints (the paper's central CPULOAD effect), injects the migration
//! machinery's own CPU demand (`CPU_migr` of Eq. 2) and per-phase service
//! power, and records everything a regression model could want: 2 Hz noisy
//! meter traces, noise-free ground truth, feature samples aligned with the
//! meter, per-round statistics, and phase-resolved energies.
//!
//! ## Example
//!
//! ```
//! use std::collections::BTreeMap;
//! use std::sync::Arc;
//! use wavm3_cluster::{hardware, vm_instances, Cluster, Link, VmId};
//! use wavm3_migration::{MigrationConfig, MigrationSimulation};
//! use wavm3_simkit::RngFactory;
//! use wavm3_workloads::{MatMulWorkload, Workload};
//!
//! let mut cluster = Cluster::new(Link::gigabit());
//! let src = cluster.add_host(hardware::m01());
//! let dst = cluster.add_host(hardware::m02());
//! let vm = cluster.boot_vm(src, vm_instances::migrating_cpu());
//! let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();
//! workloads.insert(vm, Arc::new(MatMulWorkload::full(4)));
//!
//! let record = MigrationSimulation::new(
//!     cluster, workloads, vm, src, dst,
//!     MigrationConfig::live(), RngFactory::new(7),
//! ).run();
//! // 4 GiB over a gigabit link: a ~40 s transfer, sub-second downtime.
//! assert!(record.phases.transfer().as_secs_f64() > 30.0);
//! assert!(record.downtime.as_secs_f64() < 2.0);
//! ```

pub mod analytic;
pub mod config;
mod engine;
pub mod record;
pub mod simulation;
pub mod sla;

pub use config::{
    EnvNoise, MigrationConfig, MigrationCpuCost, MigrationKind, PrecopyConfig, ServicePower,
    SimulationPath, TimingConfig,
};
pub use engine::RunSlot;
pub use record::{FeatureSample, MigrationOutcome, MigrationRecord, RoundStats};
pub use simulation::MigrationSimulation;
pub use sla::SlaReport;
