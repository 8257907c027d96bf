//! Ground-truth instantaneous power of a host.
//!
//! This plays the role of physics in the reproduction: the "real" power a
//! meter would observe. It is parameterised by the machine's
//! [`PowerProfile`] and the host's live resource state. Every candidate
//! model (WAVM3 and the baselines) is a *simplification* of this function,
//! exactly as the paper's linear models are simplifications of real server
//! physics:
//!
//! * the CPU term is mildly nonlinear (`u^exponent`) while all models
//!   assume linearity;
//! * NIC and memory-contention power are separate physical terms, which
//!   only WAVM3 approximates (via bandwidth and dirtying-ratio features);
//! * migration service activity (connection setup, state load) appears as
//!   an additive term the models can only absorb into phase constants.

use serde::{Deserialize, Serialize};
use wavm3_cluster::PowerProfile;

/// A host's instantaneous resource state, as seen by the synthesiser.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerInputs {
    /// Host CPU utilisation `[0, 1]` (paper's `CPU(h,t)` in fraction form).
    pub cpu_utilisation: f64,
    /// NIC line utilisation `[0, 1]` caused by migration traffic.
    pub nic_utilisation: f64,
    /// Memory-bus contention `[0, 1]` — the fraction of peak dirtying
    /// activity on this host (source-side live migration with a hot guest).
    pub mem_activity: f64,
    /// Additive service power of the migration machinery itself, watts
    /// (connection establishment, suspend/resume work, state loading).
    pub service_w: f64,
}

impl PowerInputs {
    /// An idle host.
    pub fn idle() -> Self {
        PowerInputs::default()
    }

    /// Clamp every fraction to its domain (service power may be any
    /// non-negative value).
    pub fn clamped(self) -> Self {
        PowerInputs {
            cpu_utilisation: self.cpu_utilisation.clamp(0.0, 1.0),
            nic_utilisation: self.nic_utilisation.clamp(0.0, 1.0),
            mem_activity: self.mem_activity.clamp(0.0, 1.0),
            service_w: self.service_w.max(0.0),
        }
    }
}

/// Noise-free ground-truth power draw, watts.
///
/// Measurement noise is added by the meter, not here, so the simulator can
/// also expose the clean signal for debugging and for exact-integral tests.
pub fn ground_truth_power(profile: &PowerProfile, inputs: PowerInputs) -> f64 {
    let i = inputs.clamped();
    profile.cpu_power(i.cpu_utilisation)
        + profile.nic_w_at_line_rate * i.nic_utilisation
        + profile.mem_contention_w * i.mem_activity
        + i.service_w
}

/// The additive decomposition of [`ground_truth_power`] into its physical
/// terms, watts. The energy-attribution ledger splits measured readings
/// across these terms proportionally, so per-term energies always sum
/// back to the metered total.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerTerms {
    /// Static floor the host draws regardless of load.
    pub idle_w: f64,
    /// Dynamic CPU power above the idle floor (`cpu_dynamic_w · u^e`).
    pub cpu_w: f64,
    /// Memory-bus contention from page dirtying.
    pub mem_dirty_w: f64,
    /// NIC power from migration traffic.
    pub network_w: f64,
    /// Migration service machinery (connection setup, suspend/resume).
    pub service_w: f64,
}

impl PowerTerms {
    /// Sum of the terms — equals [`ground_truth_power`] up to float
    /// summation order.
    pub fn total_w(&self) -> f64 {
        self.idle_w + self.cpu_w + self.mem_dirty_w + self.network_w + self.service_w
    }
}

/// Decompose the noise-free ground-truth power into its additive terms.
pub fn ground_truth_terms(profile: &PowerProfile, inputs: PowerInputs) -> PowerTerms {
    let i = inputs.clamped();
    PowerTerms {
        idle_w: profile.idle_w,
        cpu_w: profile.cpu_power(i.cpu_utilisation) - profile.idle_w,
        mem_dirty_w: profile.mem_contention_w * i.mem_activity,
        network_w: profile.nic_w_at_line_rate * i.nic_utilisation,
        service_w: i.service_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> PowerProfile {
        PowerProfile {
            idle_w: 430.0,
            cpu_dynamic_w: 390.0,
            cpu_exponent: 1.15,
            nic_w_at_line_rate: 42.0,
            mem_contention_w: 55.0,
            noise_std_w: 2.5,
        }
    }

    #[test]
    fn idle_host_draws_idle_power() {
        assert_eq!(ground_truth_power(&profile(), PowerInputs::idle()), 430.0);
    }

    #[test]
    fn full_everything_draws_peak() {
        let p = profile();
        let inputs = PowerInputs {
            cpu_utilisation: 1.0,
            nic_utilisation: 1.0,
            mem_activity: 1.0,
            service_w: 0.0,
        };
        assert!((ground_truth_power(&p, inputs) - p.peak_w()).abs() < 1e-9);
    }

    #[test]
    fn terms_are_additive() {
        let p = profile();
        let base = ground_truth_power(&p, PowerInputs::idle());
        let nic_only = ground_truth_power(
            &p,
            PowerInputs {
                nic_utilisation: 0.5,
                ..PowerInputs::idle()
            },
        );
        assert!((nic_only - base - 21.0).abs() < 1e-9);
        let svc = ground_truth_power(
            &p,
            PowerInputs {
                service_w: 17.0,
                ..PowerInputs::idle()
            },
        );
        assert!((svc - base - 17.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_term_is_superlinear() {
        let p = profile();
        let half = ground_truth_power(
            &p,
            PowerInputs {
                cpu_utilisation: 0.5,
                ..PowerInputs::idle()
            },
        );
        // u^1.15 at 0.5 < 0.5, so the midpoint sits below the linear chord.
        assert!(half < 430.0 + 390.0 * 0.5);
        assert!(half > 430.0);
    }

    #[test]
    fn out_of_range_inputs_clamp() {
        let p = profile();
        let crazy = PowerInputs {
            cpu_utilisation: 9.0,
            nic_utilisation: -3.0,
            mem_activity: 2.0,
            service_w: -100.0,
        };
        let got = ground_truth_power(&p, crazy);
        let expect = ground_truth_power(
            &p,
            PowerInputs {
                cpu_utilisation: 1.0,
                nic_utilisation: 0.0,
                mem_activity: 1.0,
                service_w: 0.0,
            },
        );
        assert_eq!(got, expect);
    }

    #[test]
    fn term_decomposition_sums_to_ground_truth() {
        let p = profile();
        let inputs = PowerInputs {
            cpu_utilisation: 0.63,
            nic_utilisation: 0.8,
            mem_activity: 0.4,
            service_w: 12.5,
        };
        let terms = ground_truth_terms(&p, inputs);
        let total = ground_truth_power(&p, inputs);
        assert!((terms.total_w() - total).abs() < 1e-9 * total);
        assert_eq!(terms.idle_w, p.idle_w);
        assert!(terms.cpu_w > 0.0);
        assert!((terms.network_w - 42.0 * 0.8).abs() < 1e-12);
        assert!((terms.mem_dirty_w - 55.0 * 0.4).abs() < 1e-12);
        assert_eq!(terms.service_w, 12.5);
    }

    #[test]
    fn power_is_monotone_in_each_input() {
        let p = profile();
        let base = PowerInputs {
            cpu_utilisation: 0.3,
            nic_utilisation: 0.3,
            mem_activity: 0.3,
            service_w: 5.0,
        };
        let f = |i: PowerInputs| ground_truth_power(&p, i);
        assert!(
            f(PowerInputs {
                cpu_utilisation: 0.6,
                ..base
            }) > f(base)
        );
        assert!(
            f(PowerInputs {
                nic_utilisation: 0.6,
                ..base
            }) > f(base)
        );
        assert!(
            f(PowerInputs {
                mem_activity: 0.6,
                ..base
            }) > f(base)
        );
        assert!(
            f(PowerInputs {
                service_w: 10.0,
                ..base
            }) > f(base)
        );
    }
}
