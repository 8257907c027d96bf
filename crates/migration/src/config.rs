//! Migration engine configuration.

use serde::{Deserialize, Serialize};
use wavm3_faults::FaultConfig;
use wavm3_harness::{ensure_non_negative, ensure_ordered, Wavm3Error};
use wavm3_simkit::SimDuration;

/// Which migration mechanism to run (paper §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationKind {
    /// Suspend → transfer → resume.
    NonLive,
    /// Iterative pre-copy with final stop-and-copy.
    Live,
    /// Post-copy (extension beyond the paper): a brief handover moves the
    /// CPU state and resumes the VM on the target immediately; memory pages
    /// follow via background push + demand fetches. Minimal downtime at the
    /// cost of degraded guest performance while pages are remote.
    PostCopy,
}

impl MigrationKind {
    /// Table label ("non-live" / "live").
    pub fn label(&self) -> &'static str {
        match self {
            MigrationKind::NonLive => "non-live",
            MigrationKind::Live => "live",
            MigrationKind::PostCopy => "post-copy",
        }
    }
}

/// Pre-copy termination policy (Xen-style).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrecopyConfig {
    /// Hard cap on pre-copy rounds (Xen defaults to ~30 iterations).
    pub max_rounds: usize,
    /// Optional transfer rate cap in bytes/s (Xen's `xl migrate`
    /// `max_rate` knob): `None` = use whatever the link and CPUs allow.
    pub rate_limit_bps: Option<f64>,
    /// Stop-and-copy when the dirty set falls to this many pages or fewer.
    pub stop_threshold_pages: u64,
    /// Non-convergence stall: stop-and-copy when the dirty set regenerated
    /// during a round is at least this fraction of the pages the round
    /// managed to send (sending more buys nothing).
    pub stall_ratio: f64,
}

impl Default for PrecopyConfig {
    fn default() -> Self {
        PrecopyConfig {
            max_rounds: 30,
            rate_limit_bps: None,
            // 16384 pages = 64 MiB: ~0.6 s of downtime at gigabit rate.
            stop_threshold_pages: 16_384,
            stall_ratio: 0.9,
        }
    }
}

impl PrecopyConfig {
    /// Reject a zero round cap, a non-positive or non-finite rate limit
    /// (negative bandwidth), and a stall ratio outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), Wavm3Error> {
        if self.max_rounds == 0 {
            return Err(Wavm3Error::invalid_config(
                "precopy.max_rounds",
                "must allow at least one pre-copy round",
            ));
        }
        if let Some(bps) = self.rate_limit_bps {
            if !bps.is_finite() || bps <= 0.0 {
                return Err(Wavm3Error::invalid_config(
                    "precopy.rate_limit_bps",
                    format!("bandwidth cap must be finite and positive, got {bps}"),
                ));
            }
        }
        if !self.stall_ratio.is_finite() || self.stall_ratio <= 0.0 || self.stall_ratio > 1.0 {
            return Err(Wavm3Error::invalid_config(
                "precopy.stall_ratio",
                format!("must lie in (0, 1], got {}", self.stall_ratio),
            ));
        }
        Ok(())
    }
}

/// Additive service power of the migration machinery per phase and host
/// role, watts (the constants `C(i)`, `C(t)`, `C(a)` of Eqs. 5–7 absorb
/// these during regression).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServicePower {
    /// Source during initiation (live preparation tasks — the paper's
    /// "new peak" of Fig. 2b).
    pub init_source_w: f64,
    /// Target during initiation (resource availability checks, ack).
    pub init_target_w: f64,
    /// Source during transfer (stream management).
    pub transfer_source_w: f64,
    /// Target during transfer — higher than the source because the target
    /// "also needs to load the VM state in memory" (paper §IV-C2).
    pub transfer_target_w: f64,
    /// Source during activation (resource deallocation).
    pub activation_source_w: f64,
    /// Target during activation (hypervisor starting the VM).
    pub activation_target_w: f64,
}

impl Default for ServicePower {
    fn default() -> Self {
        ServicePower {
            init_source_w: 24.0,
            init_target_w: 16.0,
            transfer_source_w: 12.0,
            transfer_target_w: 22.0,
            activation_source_w: 8.0,
            activation_target_w: 28.0,
        }
    }
}

/// Fixed-duration parts of the migration timeline and the measurement
/// protocol envelope.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Initiation phase length (connection setup, target preparation).
    pub initiation: SimDuration,
    /// Activation phase length (resume + cleanup).
    pub activation: SimDuration,
    /// Normal-execution lead-in before `ms` (meters must stabilise).
    pub pre_run: SimDuration,
    /// Minimum normal-execution tail after `me`.
    pub post_run_min: SimDuration,
    /// Hard cap on the tail (even if meters refuse to stabilise).
    pub post_run_max: SimDuration,
    /// Simulation tick for continuous dynamics.
    pub tick: SimDuration,
    /// Post-copy only: length of the CPU-state handover (the downtime).
    pub postcopy_handover: SimDuration,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            initiation: SimDuration::from_millis(2_000),
            activation: SimDuration::from_millis(3_000),
            pre_run: SimDuration::from_secs(12),
            post_run_min: SimDuration::from_secs(8),
            post_run_max: SimDuration::from_secs(25),
            tick: SimDuration::from_millis(100),
            postcopy_handover: SimDuration::from_millis(400),
        }
    }
}

/// CPU demand of the migration machinery itself (`CPU_migr` of Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationCpuCost {
    /// Cores the source-side driver needs to push the NIC at line rate.
    pub source_cores_at_line_rate: f64,
    /// Cores the target-side receiver needs at line rate.
    pub target_cores_at_line_rate: f64,
    /// Extra source cores for shadow/log-dirty tracking during live
    /// migration, scaled by the guest's dirtying intensity.
    pub dirty_tracking_cores: f64,
    /// Cores used by the toolstack during initiation and activation.
    pub control_cores: f64,
}

impl Default for MigrationCpuCost {
    fn default() -> Self {
        MigrationCpuCost {
            source_cores_at_line_rate: 1.6,
            target_cores_at_line_rate: 1.3,
            dirty_tracking_cores: 0.45,
            control_cores: 0.5,
        }
    }
}

/// Which integration engine [`MigrationSimulation::run`] uses.
///
/// Both paths expose the same public API and the same deterministic
/// record/metrics surface; they differ in how per-phase energy is
/// integrated. `Sampled` steps the 2 Hz meter grid and is the bit-stable
/// reference; `Analytic` integrates each phase's per-term energy in
/// closed form (piecewise-constant allocations × phase durations, OU
/// wander via its exact discrete-step moments on a counter-based stream)
/// and is ~20×+ faster, at the cost of not materialising per-sample rows
/// — so it falls back to `Sampled` whenever a trace sink is recording.
///
/// [`MigrationSimulation::run`]: crate::MigrationSimulation::run
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SimulationPath {
    /// Step the meter grid; the reference engine.
    #[default]
    Sampled,
    /// Closed-form per-phase integration; the campaign fast path.
    Analytic,
}

impl SimulationPath {
    /// Stable lower-case label (`sampled` / `analytic`).
    pub fn label(&self) -> &'static str {
        match self {
            SimulationPath::Sampled => "sampled",
            SimulationPath::Analytic => "analytic",
        }
    }

    /// The engine a run on this path executes right now: the analytic
    /// path materialises no per-sample rows, so while a trace sink is
    /// recording its runs fall back to the sampled engine.
    pub fn effective(self) -> SimulationPath {
        if wavm3_obs::tracing_active() {
            SimulationPath::Sampled
        } else {
            self
        }
    }
}

/// Environmental noise parameters: the per-run jitter draws and the
/// slow OU power wander. The defaults reproduce the constants the engine
/// previously hard-coded, so a default config is bit-identical to the
/// pre-parametrised behaviour; zeroing the fields yields a fully
/// deterministic environment (used by the differential test harness).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnvNoise {
    /// OU wander mean-reversion time constant, seconds.
    pub wander_tau_s: f64,
    /// OU wander stationary standard deviation, watts.
    pub wander_std_w: f64,
    /// Std-dev of the per-run additive idle-power shift, watts.
    pub jitter_idle_std_w: f64,
    /// Std-dev of the per-run multiplicative dynamic-power factor.
    pub jitter_dyn_std: f64,
    /// Std-dev of the per-run multiplicative service-power factor.
    pub jitter_service_std: f64,
}

impl Default for EnvNoise {
    fn default() -> Self {
        EnvNoise {
            wander_tau_s: 15.0,
            wander_std_w: 9.0,
            jitter_idle_std_w: 12.0,
            jitter_dyn_std: 0.05,
            jitter_service_std: 0.10,
        }
    }
}

impl EnvNoise {
    /// A fully quiet environment: no wander, no per-run jitter.
    pub fn disabled() -> Self {
        EnvNoise {
            wander_tau_s: 15.0,
            wander_std_w: 0.0,
            jitter_idle_std_w: 0.0,
            jitter_dyn_std: 0.0,
            jitter_service_std: 0.0,
        }
    }

    fn validate(&self) -> Result<(), Wavm3Error> {
        if !self.wander_tau_s.is_finite() || self.wander_tau_s <= 0.0 {
            return Err(Wavm3Error::invalid_config(
                "env_noise.wander_tau_s",
                "OU time constant must be finite and positive",
            ));
        }
        for (field, v) in [
            ("env_noise.wander_std_w", self.wander_std_w),
            ("env_noise.jitter_idle_std_w", self.jitter_idle_std_w),
            ("env_noise.jitter_dyn_std", self.jitter_dyn_std),
            ("env_noise.jitter_service_std", self.jitter_service_std),
        ] {
            ensure_non_negative(field, v)?;
        }
        Ok(())
    }
}

/// Complete migration-engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Mechanism to run.
    pub kind: MigrationKind,
    /// Pre-copy termination policy (live only).
    pub precopy: PrecopyConfig,
    /// Per-phase service power.
    pub service: ServicePower,
    /// Timeline and measurement envelope.
    pub timing: TimingConfig,
    /// `CPU_migr` parameters.
    pub cpu_cost: MigrationCpuCost,
    /// Fault injection (default: nothing fails; the engine behaves exactly
    /// as it did before the fault subsystem existed).
    pub faults: FaultConfig,
    /// Integration engine (default: the sampled reference path).
    pub path: SimulationPath,
    /// Environmental noise parameters (default: the engine's historic
    /// constants, bit-identical to the pre-parametrised behaviour).
    pub env_noise: EnvNoise,
}

impl MigrationConfig {
    /// Defaults for the requested mechanism.
    pub fn new(kind: MigrationKind) -> Self {
        MigrationConfig {
            kind,
            precopy: PrecopyConfig::default(),
            service: ServicePower::default(),
            timing: TimingConfig::default(),
            cpu_cost: MigrationCpuCost::default(),
            faults: FaultConfig::default(),
            path: SimulationPath::default(),
            env_noise: EnvNoise::default(),
        }
    }

    /// The same defaults with fault injection switched on.
    pub fn with_faults(kind: MigrationKind, faults: FaultConfig) -> Self {
        MigrationConfig {
            faults,
            ..MigrationConfig::new(kind)
        }
    }

    /// Live-migration defaults.
    pub fn live() -> Self {
        MigrationConfig::new(MigrationKind::Live)
    }

    /// Non-live defaults.
    pub fn non_live() -> Self {
        MigrationConfig::new(MigrationKind::NonLive)
    }

    /// Post-copy defaults (extension).
    pub fn post_copy() -> Self {
        MigrationConfig::new(MigrationKind::PostCopy)
    }

    /// Reject NaN / non-finite / negative power and CPU-cost parameters,
    /// negative bandwidth caps, inverted timing envelopes, a zero tick,
    /// and any invalid fault configuration — at construction, so a bad
    /// config surfaces as one [`Wavm3Error`] instead of a panic deep in
    /// the engine mid-campaign.
    pub fn validate(&self) -> Result<(), Wavm3Error> {
        self.precopy.validate()?;
        for (field, w) in [
            ("service.init_source_w", self.service.init_source_w),
            ("service.init_target_w", self.service.init_target_w),
            ("service.transfer_source_w", self.service.transfer_source_w),
            ("service.transfer_target_w", self.service.transfer_target_w),
            (
                "service.activation_source_w",
                self.service.activation_source_w,
            ),
            (
                "service.activation_target_w",
                self.service.activation_target_w,
            ),
        ] {
            ensure_non_negative(field, w)?;
        }
        for (field, cores) in [
            (
                "cpu_cost.source_cores_at_line_rate",
                self.cpu_cost.source_cores_at_line_rate,
            ),
            (
                "cpu_cost.target_cores_at_line_rate",
                self.cpu_cost.target_cores_at_line_rate,
            ),
            (
                "cpu_cost.dirty_tracking_cores",
                self.cpu_cost.dirty_tracking_cores,
            ),
            ("cpu_cost.control_cores", self.cpu_cost.control_cores),
        ] {
            ensure_non_negative(field, cores)?;
        }
        if self.timing.tick.is_zero() {
            return Err(Wavm3Error::invalid_config(
                "timing.tick",
                "simulation tick must be positive",
            ));
        }
        ensure_ordered(
            "timing.post_run_min",
            self.timing.post_run_min,
            "timing.post_run_max",
            self.timing.post_run_max,
        )?;
        self.env_noise.validate()?;
        self.faults.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(MigrationKind::Live.label(), "live");
        assert_eq!(MigrationKind::NonLive.label(), "non-live");
        assert_eq!(MigrationKind::PostCopy.label(), "post-copy");
    }

    #[test]
    fn default_constructors_set_kind() {
        assert_eq!(MigrationConfig::live().kind, MigrationKind::Live);
        assert_eq!(MigrationConfig::non_live().kind, MigrationKind::NonLive);
    }

    #[test]
    fn target_state_load_costs_more_than_source_streaming() {
        // Paper §IV-C2: C(t) is higher on the target.
        let s = ServicePower::default();
        assert!(s.transfer_target_w > s.transfer_source_w);
        // And VM start-up dominates activation.
        assert!(s.activation_target_w > s.activation_source_w);
    }

    #[test]
    fn timing_envelope_is_sane() {
        let t = TimingConfig::default();
        assert!(t.tick < t.initiation);
        assert!(t.post_run_min <= t.post_run_max);
        assert!(
            t.pre_run.as_secs_f64() >= 10.0,
            "meters need 20 samples to stabilise"
        );
    }

    #[test]
    fn precopy_defaults_match_xen_shape() {
        let p = PrecopyConfig::default();
        assert_eq!(p.max_rounds, 30);
        assert!(p.stall_ratio > 0.5 && p.stall_ratio <= 1.0);
        assert!(p.stop_threshold_pages > 0);
    }

    #[test]
    fn default_configs_validate() {
        for cfg in [
            MigrationConfig::live(),
            MigrationConfig::non_live(),
            MigrationConfig::post_copy(),
        ] {
            cfg.validate().expect("defaults are valid");
        }
    }

    #[test]
    fn negative_bandwidth_and_nan_are_rejected() {
        let mut cfg = MigrationConfig::live();
        cfg.precopy.rate_limit_bps = Some(-125e6);
        let msg = cfg.validate().expect_err("negative bandwidth").to_string();
        assert!(msg.contains("rate_limit_bps"), "{msg}");

        let mut cfg = MigrationConfig::live();
        cfg.service.transfer_target_w = f64::NAN;
        let msg = cfg.validate().expect_err("NaN power").to_string();
        assert!(msg.contains("transfer_target_w"), "{msg}");

        // A zero tick used to trip a runtime `assert!` deep inside the
        // engine; it must instead surface here as a config error — the
        // variant `cli::run` maps to the usage exit code (2).
        let mut cfg = MigrationConfig::live();
        cfg.timing.tick = SimDuration::ZERO;
        let err = cfg.validate().expect_err("zero tick must be rejected");
        assert!(err.is_config_error(), "{err}");
        assert!(err.to_string().contains("timing.tick"), "{err}");

        let mut cfg = MigrationConfig::live();
        cfg.timing.post_run_min = SimDuration::from_secs(30);
        cfg.timing.post_run_max = SimDuration::from_secs(8);
        let msg = cfg.validate().expect_err("inverted tail").to_string();
        assert!(msg.contains("post_run_min"), "{msg}");
    }
}
