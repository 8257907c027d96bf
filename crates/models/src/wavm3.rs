//! WAVM3 — the paper's workload-aware migration energy model (Eqs. 5–7).
//!
//! One linear power law per (phase × host role):
//!
//! ```text
//! P(i)(h,v,t) = α(i)·CPU(h,t) + β(i)·CPU(v,t)                     + C(i)   (Eq. 5)
//! P(t)(h,v,t) = α(t)·CPU(h,t) + β(t)·BW + γ(t)·DR + δ(t)·CPU(v,t) + C(t)   (Eq. 6)
//! P(a)(h,v,t) = α(a)·CPU(h,t) + β(a)·CPU(v,t)                     + C(a)   (Eq. 7)
//! ```
//!
//! All three reduce to the same five-coefficient linear form over the
//! masked [`PhaseVector`] — in the initiation and activation phases the
//! bandwidth and dirty-ratio features are structurally zero, so their
//! coefficients are inert.

use crate::features::{HostRole, PhaseVector};
use crate::model::{integrate_power, EnergyModel, PowerModel, SAMPLE_PERIOD_S};
use serde::{Deserialize, Serialize};
use wavm3_migration::{FeatureSample, MigrationKind, MigrationRecord};
use wavm3_power::MigrationPhase;

/// Coefficients of one phase's power law.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseCoeffs {
    /// α — watts per percent of host CPU.
    pub alpha_cpu_host: f64,
    /// β (init/activation) / δ (transfer) — watts per percent of VM CPU.
    pub beta_cpu_vm: f64,
    /// β(t) — watts per byte/s of migration bandwidth (transfer only).
    pub beta_bw: f64,
    /// γ(t) — watts per percent of dirtying ratio (transfer only).
    pub gamma_dr: f64,
    /// C — the phase constant, watts (absorbs idle power + service power).
    pub c: f64,
}

impl PhaseCoeffs {
    /// Evaluate the power law on a masked feature vector.
    pub fn eval(&self, v: &PhaseVector) -> f64 {
        self.alpha_cpu_host * v.cpu_host_pct
            + self.beta_cpu_vm * v.cpu_vm_pct
            + self.beta_bw * v.bandwidth_bps
            + self.gamma_dr * v.dirty_ratio_pct
            + self.c
    }
}

/// The three phase laws of one host role.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct HostCoeffs {
    /// Initiation-phase law (Eq. 5).
    pub initiation: PhaseCoeffs,
    /// Transfer-phase law (Eq. 6).
    pub transfer: PhaseCoeffs,
    /// Activation-phase law (Eq. 7).
    pub activation: PhaseCoeffs,
}

impl HostCoeffs {
    /// The law for a phase (`NormalExecution` maps onto the initiation law:
    /// no migration activity, so only the CPU and constant terms act).
    pub fn for_phase(&self, phase: MigrationPhase) -> &PhaseCoeffs {
        match phase {
            MigrationPhase::Initiation | MigrationPhase::NormalExecution => &self.initiation,
            MigrationPhase::Transfer => &self.transfer,
            MigrationPhase::Activation => &self.activation,
        }
    }
}

/// A trained WAVM3 model for one migration mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Wavm3Model {
    /// Mechanism the coefficients were fitted for (Tables III vs IV).
    pub kind: MigrationKind,
    /// Source-host laws.
    pub source: HostCoeffs,
    /// Target-host laws.
    pub target: HostCoeffs,
    /// Idle power of the machines the model was trained on, watts — the
    /// origin of the phase constants' bias (paper §VI-F).
    pub trained_idle_w: f64,
}

impl Wavm3Model {
    /// The laws for a host role.
    pub fn coeffs(&self, role: HostRole) -> &HostCoeffs {
        match role {
            HostRole::Source => &self.source,
            HostRole::Target => &self.target,
        }
    }

    /// The paper's cross-machine-set bias correction (Table V): shift every
    /// phase constant by the idle-power difference between the training
    /// machines and a new machine set (`C2 = C1 − (idle_train − idle_new)`).
    pub fn with_idle_bias(&self, new_idle_w: f64) -> Wavm3Model {
        let delta = new_idle_w - self.trained_idle_w;
        let shift = |mut h: HostCoeffs| {
            h.initiation.c += delta;
            h.transfer.c += delta;
            h.activation.c += delta;
            h
        };
        Wavm3Model {
            kind: self.kind,
            source: shift(self.source),
            target: shift(self.target),
            trained_idle_w: new_idle_w,
        }
    }

    /// Predicted energy of one phase, joules.
    pub fn predict_phase_energy(
        &self,
        role: HostRole,
        record: &MigrationRecord,
        phase: MigrationPhase,
    ) -> f64 {
        record
            .samples
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| self.predict_power(role, s) * SAMPLE_PERIOD_S)
            .sum()
    }
}

impl EnergyModel for Wavm3Model {
    fn name(&self) -> &'static str {
        "WAVM3"
    }

    fn predict_energy(&self, role: HostRole, record: &MigrationRecord) -> f64 {
        integrate_power(self, role, record)
    }
}

impl PowerModel for Wavm3Model {
    fn predict_power(&self, role: HostRole, sample: &FeatureSample) -> f64 {
        let v = PhaseVector::extract(role, sample);
        self.coeffs(role).for_phase(v.phase).eval(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavm3_simkit::SimTime;

    fn model() -> Wavm3Model {
        let phase = |alpha: f64, c: f64| PhaseCoeffs {
            alpha_cpu_host: alpha,
            beta_cpu_vm: 0.5,
            beta_bw: 1.0e-6,
            gamma_dr: 1.2,
            c,
        };
        let host = HostCoeffs {
            initiation: phase(1.7, 500.0),
            transfer: phase(2.4, 450.0),
            activation: phase(2.0, 480.0),
        };
        Wavm3Model {
            kind: MigrationKind::Live,
            source: host,
            target: HostCoeffs {
                initiation: phase(3.0, 430.0),
                ..host
            },
            trained_idle_w: 430.0,
        }
    }

    fn sample(phase: MigrationPhase) -> FeatureSample {
        FeatureSample {
            t: SimTime::from_secs(20),
            phase,
            cpu_source: 0.5,
            cpu_target: 0.25,
            cpu_vm: 1.0,
            dirty_ratio: 0.4,
            bandwidth_bps: 1.0e8,
            power_source_w: 0.0,
            power_target_w: 0.0,
        }
    }

    #[test]
    fn transfer_power_combines_all_terms() {
        let m = model();
        // Source transfer: 2.4·50 + 0.5·100 + 1e-6·1e8 + 1.2·40 + 450
        let p = m.predict_power(HostRole::Source, &sample(MigrationPhase::Transfer));
        assert!((p - (120.0 + 50.0 + 100.0 + 48.0 + 450.0)).abs() < 1e-9);
    }

    #[test]
    fn target_transfer_drops_vm_terms() {
        let m = model();
        // Target transfer masks cpu_vm and dr: 2.4·25 + 1e-6·1e8 + 450.
        let p = m.predict_power(HostRole::Target, &sample(MigrationPhase::Transfer));
        assert!((p - (60.0 + 100.0 + 450.0)).abs() < 1e-9);
    }

    #[test]
    fn initiation_ignores_bandwidth_via_masking() {
        let m = model();
        // Initiation features have bw = dr = 0 regardless of the sample,
        // because the simulator only reports bandwidth during transfer.
        let mut s = sample(MigrationPhase::Initiation);
        s.bandwidth_bps = 0.0; // what the simulator produces outside transfer
        let p = m.predict_power(HostRole::Source, &s);
        assert!((p - (1.7 * 50.0 + 0.5 * 100.0 + 500.0)).abs() < 1e-9);
    }

    #[test]
    fn bias_shift_moves_all_constants() {
        let m = model();
        let shifted = m.with_idle_bias(165.0); // o-set idle
        let delta = 165.0 - 430.0;
        assert_eq!(shifted.source.transfer.c, m.source.transfer.c + delta);
        assert_eq!(shifted.target.initiation.c, m.target.initiation.c + delta);
        assert_eq!(shifted.source.activation.c, m.source.activation.c + delta);
        // Slopes untouched.
        assert_eq!(
            shifted.source.transfer.alpha_cpu_host,
            m.source.transfer.alpha_cpu_host
        );
        assert_eq!(shifted.trained_idle_w, 165.0);
        // Round trip restores the original.
        let back = shifted.with_idle_bias(430.0);
        assert_eq!(back, m);
    }

    #[test]
    fn phase_energy_sums_to_total() {
        let m = model();
        let record = crate::training::tests_support::tiny_record();
        let by_phase: f64 = [
            MigrationPhase::Initiation,
            MigrationPhase::Transfer,
            MigrationPhase::Activation,
        ]
        .iter()
        .map(|&p| m.predict_phase_energy(HostRole::Source, &record, p))
        .sum();
        let total = m.predict_energy(HostRole::Source, &record);
        assert!((by_phase - total).abs() < 1e-9);
    }
}
