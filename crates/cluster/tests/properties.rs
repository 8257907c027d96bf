//! Property-based tests of the cluster substrate.

use proptest::prelude::*;
use wavm3_cluster::{CpuAccounting, Link};

proptest! {
    #[test]
    fn cpu_allocation_conservation(
        vmm in 0.0f64..4.0,
        vms in 0.0f64..128.0,
        migr in 0.0f64..4.0,
        capacity in 1.0f64..64.0,
    ) {
        let acc = CpuAccounting { vmm_cores: vmm, vm_cores: vms, migration_cores: migr };
        let alloc = acc.allocate(capacity);
        // Granted total never exceeds capacity.
        let granted = alloc.granted(acc.total_demand());
        prop_assert!(granted <= capacity + 1e-9);
        // Scale in (0, 1]; utilisation in [0, 1].
        prop_assert!(alloc.scale > 0.0 && alloc.scale <= 1.0);
        prop_assert!((0.0..=1.0).contains(&alloc.utilisation()));
        // Headroom + granted ≈ capacity when multiplexed, ≤ otherwise.
        prop_assert!(alloc.headroom_cores() >= -1e-9);
        prop_assert!((granted + alloc.headroom_cores() - capacity).abs() < 1e-6
            || granted + alloc.headroom_cores() <= capacity + 1e-6);
        // Under-subscription grants everything.
        if acc.total_demand() <= capacity {
            prop_assert!((alloc.scale - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bandwidth_monotone_in_cpu_scales(
        s1 in 0.0f64..1.0,
        s2 in 0.0f64..1.0,
        d in 0.0f64..1.0,
    ) {
        let link = Link::gigabit();
        let (lo, hi) = if s1 <= s2 { (s1, s2) } else { (s2, s1) };
        prop_assert!(link.effective_bandwidth(lo, d) <= link.effective_bandwidth(hi, d) + 1e-9);
        prop_assert!(link.effective_bandwidth(d, lo) <= link.effective_bandwidth(d, hi) + 1e-9);
        prop_assert!(link.effective_bandwidth(s1, s2) <= link.nominal_bandwidth() + 1e-9);
    }
}
