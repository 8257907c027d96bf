//! # wavm3-consolidation — model-driven workload consolidation
//!
//! The application the paper builds WAVM3 *for* (§I, §VIII): a
//! consolidation manager must decide whether migrating a VM saves energy —
//! the steady-state saving of packing machines tighter (and switching the
//! emptied ones off) against the one-off energy cost of the migration
//! itself. The paper's closing example: *"one may think not to consolidate
//! a VM with an high dirtying ratio to a host that is running a lot of CPU
//! intensive workloads"* — a decision only a workload-aware model can make.
//!
//! Components:
//!
//! * [`planner`] — an **analytic pre-copy estimator**: predicts transfer
//!   time, rounds, downtime and bytes for a contemplated migration without
//!   running the simulator, and synthesises the feature timeline that an
//!   [`EnergyModel`](wavm3_models::EnergyModel) needs to price it;
//! * [`policy`] — the consolidation manager: enumerates candidate moves,
//!   prices them with a pluggable energy model, and greedily empties
//!   under-utilised hosts when the migration cost amortises within a
//!   configurable horizon;
//! * [`executor`] — carries a plan out move by move in the full simulator
//!   and compares each predicted migration energy with the measured one;
//! * [`evaluation`] — scores each model's accept/reject decisions against
//!   an oracle that executes every candidate move;
//! * [`datacenter`] — the end-to-end horizon trade: baseline against the
//!   consolidated placement, migrations and powered-off hosts included.

//! ## Example
//!
//! ```
//! use wavm3_cluster::{Link, MachineSet};
//! use wavm3_consolidation::{plan_migration, PlannerInputs};
//! use wavm3_migration::{MigrationConfig, MigrationKind};
//!
//! // Price a live migration of a hot-memory guest without simulating it.
//! let plan = plan_migration(&PlannerInputs {
//!     kind: MigrationKind::Live,
//!     machine_set: MachineSet::M,
//!     idle_power_w: 430.0,
//!     ram_mib: 4096,
//!     vcpus: 1,
//!     vm_cpu_fraction: 1.0,
//!     working_set_fraction: 0.95,
//!     page_write_rate: 220_000.0,
//!     source_other_cores: 0.0,
//!     target_other_cores: 0.0,
//!     source_capacity: 32.0,
//!     target_capacity: 32.0,
//!     link: Link::gigabit(),
//!     config: MigrationConfig::live(),
//! });
//! // Non-convergent dirtying: a long stop-and-copy is predicted.
//! assert!(plan.est_downtime.as_secs_f64() > 10.0);
//! ```

pub mod datacenter;
pub mod evaluation;
pub mod executor;
pub mod planner;
pub mod policy;

pub use datacenter::{cluster_steady_power, run_horizon, HorizonReport};
pub use evaluation::{agreement_rate, evaluate_decisions, CandidateMove, DecisionOutcome};
pub use executor::{execute_plan, workload_for, ExecutedMove, MoveOutcome};
pub use planner::{plan_migration, select_mechanism, MigrationPlan, PlannerInputs};
pub use policy::{ConsolidationManager, HostLoad, Move, MoveAssessment, PolicyConfig, VmLoad};
