//! Property-based tests of the simulation kernel.

use proptest::prelude::*;
use wavm3_simkit::{RngFactory, SimDuration, SimTime, TimeSeries};

proptest! {
    #[test]
    fn integration_is_additive(
        samples in prop::collection::vec((0u64..10_000, 0.0f64..1_000.0), 2..64),
        cut in 0.0f64..1.0,
    ) {
        // ∫[a,c] = ∫[a,b] + ∫[b,c] for any interior b.
        let mut times: Vec<u64> = samples.iter().map(|&(t, _)| t).collect();
        times.sort_unstable();
        let mut s = TimeSeries::new();
        for (t, &(_, v)) in times.iter().zip(samples.iter()) {
            s.push(SimTime::from_millis(*t), v);
        }
        let a = s.start().unwrap();
        let c = s.end().unwrap();
        let span = c.as_micros() - a.as_micros();
        let b = SimTime::from_micros(a.as_micros() + (span as f64 * cut) as u64);
        let whole = s.integrate_between(a, c);
        let parts = s.integrate_between(a, b) + s.integrate_between(b, c);
        prop_assert!((whole - parts).abs() <= 1e-6 * (1.0 + whole.abs()),
            "whole {whole} vs parts {parts}");
    }

    #[test]
    fn integral_bounded_by_extremes(
        samples in prop::collection::vec((0u64..10_000, 0.0f64..1_000.0), 2..64),
    ) {
        let mut times: Vec<u64> = samples.iter().map(|&(t, _)| t).collect();
        times.sort_unstable();
        let mut s = TimeSeries::new();
        for (t, &(_, v)) in times.iter().zip(samples.iter()) {
            s.push(SimTime::from_millis(*t), v);
        }
        let (lo, hi) = s.min_max().unwrap();
        let dur = (s.end().unwrap() - s.start().unwrap()).as_secs_f64();
        let e = s.integrate();
        prop_assert!(e >= lo * dur - 1e-9);
        prop_assert!(e <= hi * dur + 1e-9);
    }

    #[test]
    fn interpolation_is_within_neighbours(
        t0 in 0u64..1_000,
        dt in 1u64..1_000,
        v0 in -100.0f64..100.0,
        v1 in -100.0f64..100.0,
        frac in 0.0f64..1.0,
    ) {
        let t1 = t0 + dt;
        let s = TimeSeries::from_parts(
            vec![SimTime::from_millis(t0), SimTime::from_millis(t1)],
            vec![v0, v1],
        );
        let q = SimTime::from_micros(
            SimTime::from_millis(t0).as_micros()
                + (frac * (dt * 1_000) as f64) as u64,
        );
        let v = s.sample_at(q).unwrap();
        let (lo, hi) = (v0.min(v1), v0.max(v1));
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn rng_streams_are_stable_and_independent(seed in 0u64..10_000, label in "[a-z]{1,12}") {
        use rand::RngCore;
        let f = RngFactory::new(seed);
        let mut a = f.stream(&label);
        let mut b = f.stream(&label);
        prop_assert_eq!(a.next_u64(), b.next_u64());
        // A different label diverges (astronomically likely).
        let mut c = f.stream(&format!("{label}!"));
        let mut d = f.stream(&label);
        prop_assert_ne!(c.next_u64(), d.next_u64());
    }

    #[test]
    fn duration_arithmetic_is_consistent(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40) {
        let (da, db) = (SimDuration::from_micros(a), SimDuration::from_micros(b));
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db) - db, da);
        let t = SimTime::from_micros(a);
        prop_assert_eq!((t + db) - db, t);
        prop_assert_eq!((t + db).saturating_since(t), db);
    }
}
