//! Property-based tests of the workload processes.

use proptest::prelude::*;
use wavm3_simkit::SimTime;
use wavm3_workloads::{
    IdleWorkload, MatMulWorkload, MixedWorkload, NetworkWorkload, PageDirtierWorkload, Workload,
};

proptest! {
    /// Every workload's outputs stay in their documented domains for any
    /// configuration and any query instant.
    #[test]
    fn workload_outputs_stay_in_domain(
        cores in 0.0f64..16.0,
        ratio in -0.5f64..1.5,
        share in -0.5f64..1.5,
        t_ms in 0u64..600_000,
    ) {
        let t = SimTime::from_millis(t_ms);
        let ws: Vec<Box<dyn Workload>> = vec![
            Box::new(MatMulWorkload::with_cores(cores)),
            Box::new(PageDirtierWorkload::with_ratio(ratio)),
            Box::new(NetworkWorkload::with_line_share(share)),
        ];
        for w in &ws {
            prop_assert!(w.cpu_demand(t) >= 0.0, "{}", w.name());
            prop_assert!(w.page_write_rate(t) >= 0.0);
            let wsf = w.working_set_fraction();
            prop_assert!((0.0..=1.0).contains(&wsf));
            let ls = w.line_share(t);
            prop_assert!((0.0..=1.0).contains(&ls));
        }
    }

    /// Every closed form the Table IIa workloads claim in
    /// `demand_profile()` agrees with their trait methods bit for bit, for
    /// any parameters and at any microsecond of the simulation horizon.
    /// The sampled engine reads the constants among them in place of the
    /// trait, so this contract is what keeps it a reference independent of
    /// the analytic engine's inputs.
    #[test]
    fn closed_form_profiles_agree_with_the_trait_bitwise(
        vcpus in 0u32..64,
        cores in -1.0f64..16.0,
        phase in -2.0f64..2.0,
        ratio in -0.5f64..1.5,
        write_rate in 0.0f64..1e6,
        t_us in 0u64..=3_600_000_000,
    ) {
        let t = SimTime::from_micros(t_us);
        let ws: Vec<Box<dyn Workload>> = vec![
            Box::new(MatMulWorkload::full(vcpus)),
            Box::new(MatMulWorkload::with_cores(cores).with_phase(phase)),
            Box::new(PageDirtierWorkload::with_ratio(ratio).with_write_rate(write_rate)),
            Box::new(IdleWorkload),
        ];
        for w in &ws {
            let p = w.demand_profile();
            // A profile that claims no closed form reads `None` and fails.
            let claims = [
                ("cpu", p.cpu.eval(t), w.cpu_demand(t)),
                ("write rate", p.page_write_rate, w.page_write_rate(t)),
                ("line share", p.line_share, w.line_share(t)),
            ];
            for (what, claim, value) in claims {
                prop_assert_eq!(
                    claim.map(f64::to_bits),
                    Some(value.to_bits()),
                    "{} {} at {} µs: {:?} claimed, {} by the trait",
                    w.name(), what, t_us, claim, value
                );
            }
        }
    }

    /// Mixing workloads adds demands and never exceeds unit working set /
    /// line share.
    #[test]
    fn mixed_workload_is_additive_and_capped(
        a in 0.0f64..8.0,
        b in 0.0f64..1.0,
        t_ms in 0u64..100_000,
    ) {
        let t = SimTime::from_millis(t_ms);
        let cpu = MatMulWorkload::with_cores(a);
        let mem = PageDirtierWorkload::with_ratio(b);
        let expect = cpu.cpu_demand(t) + mem.cpu_demand(t);
        let mix = MixedWorkload::new("m", vec![Box::new(cpu), Box::new(mem)]);
        prop_assert!((mix.cpu_demand(t) - expect).abs() < 1e-9);
        prop_assert!(mix.working_set_fraction() <= 1.0);
        prop_assert!(mix.line_share(t) <= 1.0);
    }
}
