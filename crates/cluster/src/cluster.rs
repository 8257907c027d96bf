//! The cluster: a set of hosts, the link between them, and VM placement.

use crate::host::Host;
use crate::ids::{HostId, VmId};
use crate::machine::MachineSpec;
use crate::network::Link;
use crate::vm::Vm;
use serde::{Deserialize, Serialize};

/// A collection of hosts joined by a uniform migration network.
///
/// The paper's experiments only ever involve two hosts, but consolidation
/// (the model's intended application) needs many, so the container is
/// general.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    hosts: Vec<Host>,
    /// Migration path characteristics (uniform across pairs: both testbeds
    /// use a single switch).
    pub link: Link,
    next_vm_id: u32,
}

impl Cluster {
    /// An empty cluster over the given link.
    pub fn new(link: Link) -> Self {
        Cluster {
            hosts: Vec::new(),
            link,
            next_vm_id: 0,
        }
    }

    /// Add a machine; returns its id.
    pub fn add_host(&mut self, spec: MachineSpec) -> HostId {
        let id = HostId(self.hosts.len() as u32);
        self.hosts.push(Host::new(id, spec));
        id
    }

    /// All hosts in id order.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Shared access to a host.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    /// Mutable access to a host.
    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        &mut self.hosts[id.0 as usize]
    }

    /// Mutable access to two *distinct* hosts at once (source and target of
    /// a migration). Panics if `a == b`.
    pub fn host_pair_mut(&mut self, a: HostId, b: HostId) -> (&mut Host, &mut Host) {
        assert_ne!(a, b, "need two distinct hosts");
        let (ai, bi) = (a.0 as usize, b.0 as usize);
        if ai < bi {
            let (lo, hi) = self.hosts.split_at_mut(bi);
            (&mut lo[ai], &mut hi[0])
        } else {
            let (lo, hi) = self.hosts.split_at_mut(ai);
            (&mut hi[0], &mut lo[bi])
        }
    }

    /// Boot a new VM onto `host`; returns its id. Panics on unknown host or
    /// if the VM does not fit in RAM.
    pub fn boot_vm(&mut self, host: HostId, spec: crate::vm::VmSpec) -> VmId {
        let id = VmId(self.next_vm_id);
        self.next_vm_id += 1;
        let h = self.host_mut(host);
        assert!(
            h.fits_ram(spec.ram_mib),
            "VM {} ({} MiB) does not fit on {}",
            spec.name,
            spec.ram_mib,
            h.spec.name
        );
        h.attach_vm(Vm::new(id, spec));
        id
    }

    /// The host currently holding `vm`, if any.
    pub fn locate_vm(&self, vm: VmId) -> Option<HostId> {
        self.hosts.iter().find(|h| h.vm(vm).is_some()).map(|h| h.id)
    }

    /// Shared access to a VM wherever it lives.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.hosts.iter().find_map(|h| h.vm(id))
    }

    /// Mutable access to a VM wherever it lives.
    pub fn vm_mut(&mut self, id: VmId) -> Option<&mut Vm> {
        self.hosts.iter_mut().find_map(|h| h.vm_mut(id))
    }

    /// Instantaneously move a VM between hosts (bookkeeping only — the
    /// timed, energy-accounted process lives in `wavm3-migration`).
    /// Panics if the VM is not on `from` or does not fit on `to`.
    pub fn relocate_vm(&mut self, vm: VmId, from: HostId, to: HostId) {
        let (src, dst) = self.host_pair_mut(from, to);
        let v = src
            .detach_vm(vm)
            .unwrap_or_else(|| panic!("{vm} not on {from}"));
        assert!(
            dst.fits_ram(v.spec.ram_mib),
            "{vm} does not fit on {to} during relocation"
        );
        dst.attach_vm(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{hardware, vm_instances};

    fn two_host_cluster() -> (Cluster, HostId, HostId) {
        let mut c = Cluster::new(Link::gigabit());
        let a = c.add_host(hardware::m01());
        let b = c.add_host(hardware::m02());
        (c, a, b)
    }

    #[test]
    fn boot_and_locate() {
        let (mut c, a, b) = two_host_cluster();
        let vm = c.boot_vm(a, vm_instances::migrating_cpu());
        assert_eq!(c.locate_vm(vm), Some(a));
        assert_ne!(c.locate_vm(vm), Some(b));
        assert!(c.vm(vm).is_some());
        assert_eq!(c.host(a).vms().len(), 1);
    }

    #[test]
    fn vm_ids_are_unique_across_hosts() {
        let (mut c, a, b) = two_host_cluster();
        let v1 = c.boot_vm(a, vm_instances::load_cpu());
        let v2 = c.boot_vm(b, vm_instances::load_cpu());
        assert_ne!(v1, v2);
    }

    #[test]
    fn relocation_moves_state() {
        let (mut c, a, b) = two_host_cluster();
        let vm = c.boot_vm(a, vm_instances::migrating_mem());
        c.vm_mut(vm).unwrap().set_cpu_demand(0.75);
        c.relocate_vm(vm, a, b);
        assert_eq!(c.locate_vm(vm), Some(b));
        assert_eq!(c.vm(vm).unwrap().cpu_demand(), 0.75, "state travels");
        assert!(c.host(a).vm(vm).is_none());
    }

    #[test]
    fn host_pair_mut_both_orders() {
        let (mut c, a, b) = two_host_cluster();
        {
            let (x, y) = c.host_pair_mut(a, b);
            assert_eq!(x.id, a);
            assert_eq!(y.id, b);
        }
        let (y, x) = c.host_pair_mut(b, a);
        assert_eq!(y.id, b);
        assert_eq!(x.id, a);
    }

    #[test]
    #[should_panic(expected = "distinct hosts")]
    fn host_pair_mut_same_host_panics() {
        let (mut c, a, _) = two_host_cluster();
        c.host_pair_mut(a, a);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn boot_respects_ram() {
        let mut c = Cluster::new(Link::gigabit());
        let a = c.add_host(hardware::m01()); // 32 GiB
        for _ in 0..9 {
            // 9 × 4 GiB = 36 GiB > 32 GiB — the 9th must panic.
            c.boot_vm(a, vm_instances::migrating_cpu());
        }
    }
}
