//! The `pagedirtier` memory-intensive workload (paper §V-A2).
//!
//! The paper's pagedirtier "continuously writes in memory pages in random
//! order", with 3.8 GB allocated inside a 4 GB guest to avoid swapping. The
//! MEMLOAD-VM experiment sweeps the *percentage of memory pages dirtied*
//! from 5 % to 95 % — i.e. the working set the program rewrites.
//!
//! Because writes land uniformly at random inside the working set, the
//! number of *distinct* dirty pages `d(t)` after the hypervisor clears the
//! dirty bitmap saturates as
//!
//! ```text
//! d(t) = W · (1 − exp(−r·t / W))
//! ```
//!
//! where `W` is the working-set page count and `r` the write rate. The
//! simulated process exposes exactly `r` and `W`; the migration engine
//! steps the curve tick by tick, and the consolidation planner evaluates it
//! in closed form.

use crate::workload::{Workload, WorkloadProfile};
use wavm3_simkit::SimTime;

/// Simulated pagedirtier: rewrites a fixed fraction of guest memory.
#[derive(Debug, Clone)]
pub struct PageDirtierWorkload {
    /// Fraction of guest memory in the working set (the swept "dirtying
    /// ratio" of MEMLOAD-VM), `[0, 1]`.
    working_set_fraction: f64,
    /// Page writes per second.
    write_rate: f64,
    /// CPU demand of the write loop, cores (a single busy thread).
    cpu_cores: f64,
}

impl PageDirtierWorkload {
    /// Default write rate: a single thread streaming writes re-dirties a
    /// 3.8 GB working set in a few seconds, as in the paper (where a 95 %
    /// ratio makes pre-copy rounds futile and forces an early stop-and-copy).
    pub const DEFAULT_WRITE_RATE: f64 = 220_000.0;

    /// A pagedirtier touching `working_set_fraction` of guest memory.
    pub fn with_ratio(working_set_fraction: f64) -> Self {
        PageDirtierWorkload {
            working_set_fraction: working_set_fraction.clamp(0.0, 1.0),
            write_rate: Self::DEFAULT_WRITE_RATE,
            cpu_cores: 1.0,
        }
    }

    /// Override the write rate (pages/second).
    pub fn with_write_rate(mut self, rate: f64) -> Self {
        self.write_rate = rate.max(0.0);
        self
    }
}

impl Workload for PageDirtierWorkload {
    fn name(&self) -> &str {
        "pagedirtier"
    }

    fn cpu_demand(&self, _t: SimTime) -> f64 {
        if self.working_set_fraction > 0.0 {
            self.cpu_cores
        } else {
            0.0
        }
    }

    fn page_write_rate(&self, _t: SimTime) -> f64 {
        if self.working_set_fraction > 0.0 {
            self.write_rate
        } else {
            0.0
        }
    }

    fn working_set_fraction(&self) -> f64 {
        self.working_set_fraction
    }

    fn demand_profile(&self) -> WorkloadProfile {
        if self.working_set_fraction > 0.0 {
            WorkloadProfile::constant(self.cpu_cores, self.write_rate, 0.0)
        } else {
            WorkloadProfile::constant(0.0, 0.0, 0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_clamps() {
        assert_eq!(
            PageDirtierWorkload::with_ratio(1.5).working_set_fraction(),
            1.0
        );
        assert_eq!(
            PageDirtierWorkload::with_ratio(-0.5).working_set_fraction(),
            0.0
        );
        assert_eq!(
            PageDirtierWorkload::with_ratio(0.55).working_set_fraction(),
            0.55
        );
    }

    #[test]
    fn single_core_cpu_footprint() {
        let w = PageDirtierWorkload::with_ratio(0.95);
        assert_eq!(w.cpu_demand(SimTime::from_secs(4)), 1.0);
        assert_eq!(w.name(), "pagedirtier");
    }

    #[test]
    fn zero_ratio_is_idle() {
        let w = PageDirtierWorkload::with_ratio(0.0);
        assert_eq!(w.cpu_demand(SimTime::ZERO), 0.0);
        assert_eq!(w.page_write_rate(SimTime::ZERO), 0.0);
    }

    #[test]
    fn profile_matches_trait_bitwise() {
        for w in [
            PageDirtierWorkload::with_ratio(0.95),
            PageDirtierWorkload::with_ratio(0.4).with_write_rate(250_000.0),
            PageDirtierWorkload::with_ratio(0.0),
        ] {
            let p = w.demand_profile();
            for s in 0..20 {
                let t = SimTime::from_millis(s * 700);
                assert_eq!(p.cpu.eval(t), Some(w.cpu_demand(t)));
                assert_eq!(p.page_write_rate, Some(w.page_write_rate(t)));
                assert_eq!(p.line_share, Some(w.line_share(t)));
            }
        }
    }
}
