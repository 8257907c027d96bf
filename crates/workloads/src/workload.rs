//! The [`Workload`] abstraction consumed by the migration simulator.

use wavm3_simkit::{SimTime, TimeSeries};

/// Closed-form description of a CPU-demand curve, used by the analytic
/// fast path so the inner loop can evaluate (or tabulate) demand without
/// a virtual call per tick.
///
/// [`DemandProfile::eval`] must agree *bitwise* with the owning
/// workload's [`Workload::cpu_demand`] at every instant — the analytic
/// and sampled simulation paths both consume it, and the differential
/// harness holds them to the discretisation bound only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DemandProfile {
    /// Demand is `c` cores at every instant.
    Constant(f64),
    /// `target · (1 + ½·ripple·sin(τ·(t/period_s + phase)))`, floored at 0
    /// — the matmul synchronisation ripple.
    Ripple {
        /// Nominal demand in cores.
        target: f64,
        /// Peak-to-peak ripple as a fraction of `target`.
        ripple: f64,
        /// Ripple period, seconds.
        period_s: f64,
        /// Phase offset in periods.
        phase: f64,
    },
    /// No closed form is available; callers must query
    /// [`Workload::cpu_demand`] directly.
    General,
}

impl DemandProfile {
    /// Evaluate the closed form at `t`, or `None` for [`General`].
    ///
    /// [`General`]: DemandProfile::General
    pub fn eval(&self, t: SimTime) -> Option<f64> {
        match *self {
            DemandProfile::Constant(c) => Some(c),
            DemandProfile::Ripple {
                target,
                ripple,
                period_s,
                phase,
            } => {
                let factor = 1.0
                    + 0.5
                        * ripple
                        * (std::f64::consts::TAU * (t.as_secs_f64() / period_s + phase)).sin();
                Some((target * factor).max(0.0))
            }
            DemandProfile::General => None,
        }
    }
}

/// Closed-form summary of a workload for the analytic fast path: the CPU
/// demand curve plus the time-invariant rates. `None` for a rate means it
/// varies with time (or is unknown), forcing per-instant trait queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// CPU demand curve.
    pub cpu: DemandProfile,
    /// Constant page-write rate (pages/s), when time-invariant.
    pub page_write_rate: Option<f64>,
    /// Constant NIC line share in `[0, 1]`, when time-invariant.
    pub line_share: Option<f64>,
}

impl WorkloadProfile {
    /// The conservative default: nothing is known in closed form.
    pub fn general() -> Self {
        WorkloadProfile {
            cpu: DemandProfile::General,
            page_write_rate: None,
            line_share: None,
        }
    }

    /// A fully constant workload.
    pub fn constant(cpu: f64, page_write_rate: f64, line_share: f64) -> Self {
        WorkloadProfile {
            cpu: DemandProfile::Constant(cpu),
            page_write_rate: Some(page_write_rate),
            line_share: Some(line_share),
        }
    }
}

/// A guest workload as the simulator sees it: how much CPU it wants and how
/// fast it dirties memory pages, both as functions of simulation time.
///
/// Every method must be a pure function of `t` (and of the workload's own
/// construction-time state): all randomness is injected at construction
/// time (seeded), never at query time, and no query changes what a later
/// one returns, so the simulator can re-query any instant idempotently.
/// Prototype reuse relies on this: a campaign runs every repetition of a
/// scenario on one simulation, and the analytic engine replays the
/// trajectory of its first fault-free run in the others.
pub trait Workload: Send + Sync {
    /// Human-readable workload name ("matrixmult", "pagedirtier", …).
    fn name(&self) -> &str;

    /// CPU demand in cores-worth at time `t`. The hosting VM clamps this to
    /// its vCPU count.
    fn cpu_demand(&self, t: SimTime) -> f64;

    /// Page writes per second issued at time `t` (uniformly random within
    /// the working set). Zero for CPU-only workloads.
    fn page_write_rate(&self, t: SimTime) -> f64;

    /// Fraction of the VM's memory the workload ever touches, `[0, 1]`.
    /// Dirty pages saturate at this fraction.
    fn working_set_fraction(&self) -> f64;

    /// Fraction of the host's network line rate this workload keeps busy,
    /// `[0, 1]`. Zero for everything except network-intensive services;
    /// the migration stream must share the NIC with it.
    fn line_share(&self, _t: SimTime) -> f64 {
        0.0
    }

    /// Closed-form summary of this workload for the analytic fast path.
    ///
    /// The default claims nothing ([`WorkloadProfile::general`]), which is
    /// always safe: the analytic path falls back to querying the trait
    /// methods per instant. Overrides must agree bitwise with the trait
    /// methods at every `t`.
    fn demand_profile(&self) -> WorkloadProfile {
        WorkloadProfile::general()
    }
}

/// A VM doing nothing (the paper's "idle" hosts).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleWorkload;

impl Workload for IdleWorkload {
    fn name(&self) -> &str {
        "idle"
    }
    fn cpu_demand(&self, _t: SimTime) -> f64 {
        0.0
    }
    fn page_write_rate(&self, _t: SimTime) -> f64 {
        0.0
    }
    fn working_set_fraction(&self) -> f64 {
        0.0
    }
    fn demand_profile(&self) -> WorkloadProfile {
        WorkloadProfile::constant(0.0, 0.0, 0.0)
    }
}

/// Replay a recorded CPU-demand series (e.g. captured from the real
/// kernels in [`crate::kernels`]); page writes replay a second series.
pub struct TraceWorkload {
    name: String,
    cpu: TimeSeries,
    writes: TimeSeries,
    working_set: f64,
}

impl TraceWorkload {
    /// Build from recorded series. `working_set` clamps to `[0, 1]`.
    pub fn new(
        name: impl Into<String>,
        cpu: TimeSeries,
        writes: TimeSeries,
        working_set: f64,
    ) -> Self {
        TraceWorkload {
            name: name.into(),
            cpu,
            writes,
            working_set: working_set.clamp(0.0, 1.0),
        }
    }
}

impl Workload for TraceWorkload {
    fn name(&self) -> &str {
        &self.name
    }
    fn cpu_demand(&self, t: SimTime) -> f64 {
        self.cpu.sample_at(t).unwrap_or(0.0).max(0.0)
    }
    fn page_write_rate(&self, t: SimTime) -> f64 {
        self.writes.sample_at(t).unwrap_or(0.0).max(0.0)
    }
    fn working_set_fraction(&self) -> f64 {
        self.working_set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavm3_simkit::SimTime;

    #[test]
    fn idle_is_all_zero() {
        let w = IdleWorkload;
        assert_eq!(w.cpu_demand(SimTime::from_secs(5)), 0.0);
        assert_eq!(w.page_write_rate(SimTime::ZERO), 0.0);
        assert_eq!(w.working_set_fraction(), 0.0);
        assert_eq!(w.name(), "idle");
    }

    #[test]
    fn trace_replays_and_extrapolates() {
        let mut cpu = TimeSeries::new();
        cpu.push(SimTime::from_secs(0), 1.0);
        cpu.push(SimTime::from_secs(10), 3.0);
        let w = TraceWorkload::new("replay", cpu, TimeSeries::new(), 0.0);
        assert_eq!(w.cpu_demand(SimTime::from_secs(5)), 2.0);
        // Flat extrapolation past the end of the trace.
        assert_eq!(w.cpu_demand(SimTime::from_secs(60)), 3.0);
        assert_eq!(w.page_write_rate(SimTime::ZERO), 0.0);
    }

    #[test]
    fn trace_clamps_negatives_and_working_set() {
        let mut cpu = TimeSeries::new();
        cpu.push(SimTime::ZERO, -5.0);
        let w = TraceWorkload::new("neg", cpu, TimeSeries::new(), 3.0);
        assert_eq!(w.cpu_demand(SimTime::ZERO), 0.0);
        assert_eq!(w.working_set_fraction(), 1.0);
    }

    #[test]
    fn empty_trace_reads_zero() {
        let w = TraceWorkload::new("empty", TimeSeries::new(), TimeSeries::new(), 0.0);
        assert_eq!(w.cpu_demand(SimTime::from_secs(1)), 0.0);
    }

    #[test]
    fn default_profile_is_general() {
        let w = TraceWorkload::new("replay", TimeSeries::new(), TimeSeries::new(), 0.0);
        let p = w.demand_profile();
        assert_eq!(p.cpu, DemandProfile::General);
        assert_eq!(p.cpu.eval(SimTime::ZERO), None);
        assert_eq!(p.page_write_rate, None);
        assert_eq!(p.line_share, None);
    }

    #[test]
    fn idle_profile_matches_trait_bitwise() {
        let w = IdleWorkload;
        let p = w.demand_profile();
        for s in 0..50 {
            let t = SimTime::from_millis(s * 137);
            assert_eq!(p.cpu.eval(t), Some(w.cpu_demand(t)));
            assert_eq!(p.page_write_rate, Some(w.page_write_rate(t)));
            assert_eq!(p.line_share, Some(w.line_share(t)));
        }
    }

    #[test]
    fn ripple_profile_evaluates_the_documented_form() {
        let p = DemandProfile::Ripple {
            target: 4.0,
            ripple: 0.03,
            period_s: 7.0,
            phase: 0.25,
        };
        let t = SimTime::from_millis(1_300);
        let expect = (4.0
            * (1.0 + 0.5 * 0.03 * (std::f64::consts::TAU * (t.as_secs_f64() / 7.0 + 0.25)).sin()))
        .max(0.0);
        assert_eq!(p.eval(t), Some(expect));
    }
}
