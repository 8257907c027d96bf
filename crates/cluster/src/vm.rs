//! Virtual machines (paper Table IIb).

use crate::ids::VmId;
use serde::{Deserialize, Serialize};

/// Static description of a VM instance type (paper Table IIb).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmSpec {
    /// Instance type name, e.g. "migrating-cpu".
    pub name: String,
    /// Number of virtual CPUs.
    pub vcpus: u32,
    /// Guest kernel version string (descriptive only).
    pub kernel: String,
    /// Allocated RAM in MiB.
    pub ram_mib: u64,
    /// Workload the instance type runs (descriptive label; the actual
    /// workload object is attached by `wavm3-workloads`).
    pub workload: String,
    /// Disk image size in GiB (transferred out-of-band via NFS in the paper,
    /// so it does not enter the migration byte count).
    pub storage_gib: u64,
}

impl VmSpec {
    /// Memory image size in bytes (`ram_mib × 2^20`): what a migration
    /// must carry across before the target can run the guest.
    pub fn ram_bytes(&self) -> u64 {
        self.ram_mib * 1024 * 1024
    }
}

/// Lifecycle state of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VmState {
    /// Executing normally on its host.
    Running,
    /// Suspended (non-live migration, or the stop-and-copy step of live
    /// migration). A suspended VM has `CPU(v,t) = 0` and `DR(v,t) = 0`
    /// (paper §IV-B).
    Suspended,
    /// Shut down / destroyed (post-migration source copy).
    Stopped,
}

/// A live VM: spec + mutable runtime state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Vm {
    /// Identifier within the cluster.
    pub id: VmId,
    /// Static configuration.
    pub spec: VmSpec,
    /// Lifecycle state.
    pub state: VmState,
    /// Current CPU demand in cores-worth, `[0, vcpus]`.
    cpu_demand: f64,
}

impl Vm {
    /// A freshly booted VM with zero CPU demand.
    pub fn new(id: VmId, spec: VmSpec) -> Self {
        Vm {
            id,
            spec,
            state: VmState::Running,
            cpu_demand: 0.0,
        }
    }

    /// Current CPU demand in cores-worth. Zero while not running
    /// (paper §IV-B: `CPU(v,t) = 0` for idle or suspended VMs).
    pub fn cpu_demand(&self) -> f64 {
        if self.state == VmState::Running {
            self.cpu_demand
        } else {
            0.0
        }
    }

    /// Set the CPU demand, clamped to `[0, vcpus]`.
    pub fn set_cpu_demand(&mut self, cores: f64) {
        let max = self.spec.vcpus as f64;
        self.cpu_demand = cores.clamp(0.0, max);
    }

    /// Suspend the VM (its CPU demand reads as zero).
    pub fn suspend(&mut self) {
        if self.state == VmState::Running {
            self.state = VmState::Suspended;
        }
    }

    /// Resume a suspended VM.
    pub fn resume(&mut self) {
        if self.state == VmState::Suspended {
            self.state = VmState::Running;
        }
    }

    /// Stop (destroy) the VM.
    pub fn stop(&mut self) {
        self.state = VmState::Stopped;
    }

    /// Is the VM running?
    pub fn is_running(&self) -> bool {
        self.state == VmState::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> VmSpec {
        VmSpec {
            name: "migrating-cpu".into(),
            vcpus: 4,
            kernel: "2.6.32".into(),
            ram_mib: 4096,
            workload: "matrixmult".into(),
            storage_gib: 6,
        }
    }

    #[test]
    fn demand_clamps_to_vcpus() {
        let mut vm = Vm::new(VmId(1), spec());
        vm.set_cpu_demand(10.0);
        assert_eq!(vm.cpu_demand(), 4.0);
        vm.set_cpu_demand(-2.0);
        assert_eq!(vm.cpu_demand(), 0.0);
        vm.set_cpu_demand(2.5);
        assert_eq!(vm.cpu_demand(), 2.5);
    }

    #[test]
    fn suspended_vm_reads_zero() {
        let mut vm = Vm::new(VmId(1), spec());
        vm.set_cpu_demand(4.0);
        assert!(vm.cpu_demand() > 0.0);
        vm.suspend();
        assert_eq!(vm.cpu_demand(), 0.0);
        assert_eq!(vm.state, VmState::Suspended);
        vm.resume();
        assert_eq!(vm.cpu_demand(), 4.0);
    }

    #[test]
    fn stop_is_terminal_for_resume() {
        let mut vm = Vm::new(VmId(1), spec());
        vm.stop();
        vm.resume();
        assert_eq!(vm.state, VmState::Stopped);
        assert!(!vm.is_running());
    }

    #[test]
    fn memory_sized_from_spec() {
        let vm = Vm::new(VmId(1), spec());
        assert_eq!(vm.spec.ram_bytes(), 4096 * 1024 * 1024);
    }
}
