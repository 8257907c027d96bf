//! # WAVM3 — a workload-aware energy model for VM migration
//!
//! A full reproduction of *De Maio, Kecskemeti, Prodan — "A Workload-Aware
//! Energy Model for Virtual Machine Migration" (IEEE CLUSTER 2015)* as a
//! Rust workspace: the WAVM3 per-phase power model, the HUANG / LIU /
//! STRUNK baselines, and every substrate the paper's evaluation needs —
//! a discrete-event cluster simulator with Xen-style CPU multiplexing, a
//! pre-copy live-migration engine, a synthetic power-metering testbed,
//! the CPULOAD/MEMLOAD experiment campaign, and a consolidation manager
//! that uses the models for placement decisions.
//!
//! This facade crate re-exports the workspace so downstream users can
//! depend on a single crate:
//!
//! ```
//! use wavm3::experiments::{Scenario, ExperimentFamily};
//! use wavm3::cluster::MachineSet;
//! use wavm3::migration::MigrationKind;
//! use wavm3::simkit::RngFactory;
//!
//! // Simulate one live migration of a CPU-loaded VM between idle hosts.
//! let scenario = Scenario {
//!     family: ExperimentFamily::CpuloadSource,
//!     kind: MigrationKind::Live,
//!     machine_set: MachineSet::M,
//!     source_load_vms: 0,
//!     target_load_vms: 0,
//!     migrant_mem_ratio: None,
//!     label: "0 VM".into(),
//! };
//! let record = scenario.build(RngFactory::new(42)).run();
//! assert!(record.total_bytes >= 4 * 1024 * 1024 * 1024);
//! assert!(record.source_energy.total_j() > 0.0);
//! ```
//!
//! See `examples/` for end-to-end walkthroughs and the
//! `wavm3-experiments` binary (`crates/experiments/src/main.rs`), whose
//! targets regenerate each table and figure.

pub use wavm3_cluster as cluster;
pub use wavm3_consolidation as consolidation;
pub use wavm3_experiments as experiments;
pub use wavm3_faults as faults;
pub use wavm3_harness as harness;
pub use wavm3_migration as migration;
pub use wavm3_models as models;
pub use wavm3_obs as obs;
pub use wavm3_power as power;
pub use wavm3_simkit as simkit;
pub use wavm3_stats as stats;
pub use wavm3_workloads as workloads;
