//! A physical host: machine spec + resident VMs.

use crate::cpu::{vmm_overhead_cores, CpuAccounting, CpuAllocation};
use crate::ids::{HostId, VmId};
use crate::machine::MachineSpec;
use crate::vm::Vm;
use serde::{Deserialize, Serialize};

/// A physical machine hosting zero or more VMs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Host {
    /// Identifier within the cluster.
    pub id: HostId,
    /// Static machine description.
    pub spec: MachineSpec,
    /// Resident VMs, in placement order (deterministic iteration).
    vms: Vec<Vm>,
}

impl Host {
    /// An empty host.
    pub fn new(id: HostId, spec: MachineSpec) -> Self {
        Host {
            id,
            spec,
            vms: Vec::new(),
        }
    }

    /// Place a VM on this host. Panics if the id is already present.
    pub fn attach_vm(&mut self, vm: Vm) {
        assert!(
            self.vm(vm.id).is_none(),
            "VM {} already on host {}",
            vm.id,
            self.id
        );
        self.vms.push(vm);
    }

    /// Remove and return a VM, or `None` if not resident.
    pub fn detach_vm(&mut self, id: VmId) -> Option<Vm> {
        let idx = self.vms.iter().position(|v| v.id == id)?;
        Some(self.vms.remove(idx))
    }

    /// Shared access to a resident VM.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.iter().find(|v| v.id == id)
    }

    /// Mutable access to a resident VM.
    pub fn vm_mut(&mut self, id: VmId) -> Option<&mut Vm> {
        self.vms.iter_mut().find(|v| v.id == id)
    }

    /// All resident VMs in placement order.
    pub fn vms(&self) -> &[Vm] {
        &self.vms
    }

    /// Number of resident VMs in the `Running` state.
    pub fn running_vm_count(&self) -> usize {
        self.vms.iter().filter(|v| v.is_running()).count()
    }

    /// Aggregate CPU demand decomposed per paper Eq. 2. The migration
    /// term `CPU_migr(h,t)` is zero here: the migration engine adds its
    /// own cores when it allocates.
    pub fn cpu_accounting(&self) -> CpuAccounting {
        CpuAccounting {
            vmm_cores: vmm_overhead_cores(self.running_vm_count()),
            vm_cores: self.vms.iter().map(|v| v.cpu_demand()).sum(),
            migration_cores: 0.0,
        }
    }

    /// Resolve demand against this machine's capacity.
    pub fn cpu_allocation(&self) -> CpuAllocation {
        self.cpu_accounting().allocate(self.spec.cpu_capacity())
    }

    /// Host CPU utilisation `CPU(h,t)` in `[0, 1]`.
    pub fn utilisation(&self) -> f64 {
        self.cpu_allocation().utilisation()
    }

    /// Free RAM in MiB after resident VM reservations (dom-0 excluded: its
    /// 512 MiB is part of the machine's base footprint).
    pub fn free_ram_mib(&self) -> i64 {
        self.spec.ram_mib as i64 - self.vms.iter().map(|v| v.spec.ram_mib as i64).sum::<i64>()
    }

    /// Can the host accept a VM of `ram_mib` without overcommitting memory?
    pub fn fits_ram(&self, ram_mib: u64) -> bool {
        self.free_ram_mib() >= ram_mib as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{hardware, vm_instances};

    fn host() -> Host {
        Host::new(HostId(0), hardware::m01())
    }

    fn vm(id: u32) -> Vm {
        Vm::new(VmId(id), vm_instances::load_cpu())
    }

    #[test]
    fn attach_detach_roundtrip() {
        let mut h = host();
        h.attach_vm(vm(1));
        h.attach_vm(vm(2));
        assert_eq!(h.vms().len(), 2);
        let out = h.detach_vm(VmId(1)).unwrap();
        assert_eq!(out.id, VmId(1));
        assert_eq!(h.vms().len(), 1);
        assert!(h.detach_vm(VmId(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "already on host")]
    fn duplicate_attach_panics() {
        let mut h = host();
        h.attach_vm(vm(1));
        h.attach_vm(vm(1));
    }

    #[test]
    fn accounting_follows_eq2() {
        let mut h = host();
        let mut v1 = vm(1);
        v1.set_cpu_demand(4.0);
        let mut v2 = vm(2);
        v2.set_cpu_demand(2.0);
        h.attach_vm(v1);
        h.attach_vm(v2);
        let acc = h.cpu_accounting();
        assert_eq!(acc.vm_cores, 6.0);
        assert!(acc.vmm_cores > 0.0);
        // m01 has 32 logical CPUs: nowhere near multiplexing.
        assert!(!h.cpu_allocation().is_multiplexed());
        assert_eq!(h.cpu_allocation().scale, 1.0);
    }

    #[test]
    fn multiplexing_kicks_in_past_capacity() {
        let mut h = host();
        // Nine 4-vCPU VMs at full tilt: 36 cores demanded of 32.
        for i in 0..9 {
            let mut v = vm(i);
            v.set_cpu_demand(4.0);
            h.attach_vm(v);
        }
        let alloc = h.cpu_allocation();
        assert!(alloc.is_multiplexed());
        assert!((h.utilisation() - 1.0).abs() < 1e-12);
        assert!(alloc.scale < 1.0);
    }

    #[test]
    fn suspended_vms_do_not_demand_cpu() {
        let mut h = host();
        let mut v = vm(1);
        v.set_cpu_demand(4.0);
        h.attach_vm(v);
        let before = h.cpu_accounting().vm_cores;
        h.vm_mut(VmId(1)).unwrap().suspend();
        let after = h.cpu_accounting().vm_cores;
        assert_eq!(before, 4.0);
        assert_eq!(after, 0.0);
        // Suspended VMs also stop counting toward VMM arbitration.
        assert_eq!(h.running_vm_count(), 0);
    }

    #[test]
    fn ram_fitting() {
        let mut h = host(); // 32 GiB
        assert!(h.fits_ram(4096));
        for i in 0..62 {
            h.attach_vm(Vm::new(VmId(i), vm_instances::load_cpu())); // 512 MiB each
        }
        // 62 * 512 MiB = 31 GiB used, 1 GiB free.
        assert_eq!(h.free_ram_mib(), 1024);
        assert!(h.fits_ram(1024));
        assert!(!h.fits_ram(2048));
    }
}
