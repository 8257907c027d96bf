//! # wavm3-cluster — data-centre substrate
//!
//! The physical-resource model underneath the WAVM3 reproduction: machines
//! (paper Table IIc), virtual machines (Table IIb), per-host CPU accounting
//! with Xen-credit-style multiplexing (paper Eq. 2), each VM's RAM size,
//! and the gigabit link between migration endpoints. The dirty set a live
//! migration re-sends is the migration engine's analytic one, not state
//! kept here.
//!
//! This crate holds *state and resource arithmetic only* — the event loop
//! that advances a migration lives in `wavm3-migration`, and power synthesis
//! lives in `wavm3-power`.
//!
//! ## Units
//!
//! * CPU — "cores-worth of demand": a VM with 4 vCPUs at full load demands
//!   4.0. Host *utilisation* is demand / logical CPUs, clamped to `[0, 1]`.
//! * Memory — 4 KiB pages.
//! * Bandwidth — bytes per second.
//!
//! ## Example
//!
//! ```
//! use wavm3_cluster::{hardware, vm_instances, Cluster, Link};
//!
//! let mut cluster = Cluster::new(Link::gigabit());
//! let src = cluster.add_host(hardware::m01());
//! let dst = cluster.add_host(hardware::m02());
//! let vm = cluster.boot_vm(src, vm_instances::migrating_cpu());
//! cluster.vm_mut(vm).unwrap().set_cpu_demand(4.0);
//! // A 4-core guest on a 32-thread Opteron: ~13% utilisation + dom-0.
//! assert!(cluster.host(src).utilisation() > 0.12);
//! // The empty host only burns the dom-0 arbitration sliver.
//! assert!(cluster.host(dst).utilisation() < 0.01);
//! ```

pub mod cluster;
pub mod cpu;
pub mod host;
pub mod ids;
pub mod machine;
pub mod memory;
pub mod network;
pub mod specs;
pub mod vm;

pub use cluster::Cluster;
pub use cpu::{CpuAccounting, CpuAllocation};
pub use host::Host;
pub use ids::{HostId, VmId};
pub use machine::{MachineSet, MachineSpec, PowerProfile};
pub use memory::PAGE_SIZE_BYTES;
pub use network::Link;
pub use specs::{hardware, vm_instances};
pub use vm::{Vm, VmSpec, VmState};
