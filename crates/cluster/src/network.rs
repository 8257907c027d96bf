//! The migration network path.
//!
//! Both testbeds connect source and target through one gigabit switch, and
//! the paper argues (§III-B) that switch energy is constant, so the network
//! actor is reduced to a [`Link`]: a nominal line rate, a protocol
//! efficiency, and the CPU-coupling that produces the paper's central
//! bandwidth effect — a migration process that is starved of CPU on either
//! end cannot drive the NIC at line rate.

use serde::{Deserialize, Serialize};
use wavm3_simkit::SimDuration;

/// Point-to-point migration path between two hosts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Nominal line rate, bytes/second (1 Gbit/s = 1.25e8 B/s).
    pub line_rate_bps: f64,
    /// Fraction of line rate achievable by the migration stream under ideal
    /// CPU conditions (TCP/IP + Xen migration protocol overhead).
    pub protocol_efficiency: f64,
    /// One-way latency (connection setup handshakes).
    pub latency: SimDuration,
}

impl Link {
    /// A gigabit link with typical protocol efficiency and LAN latency.
    pub fn gigabit() -> Self {
        Link {
            line_rate_bps: 1.25e8,
            protocol_efficiency: 0.92,
            latency: SimDuration::from_micros(350),
        }
    }

    /// Best-case migration throughput in bytes/s.
    pub fn nominal_bandwidth(&self) -> f64 {
        self.line_rate_bps * self.protocol_efficiency
    }

    /// Effective migration bandwidth given the CPU *grant scale* of the
    /// migration process on each endpoint (1.0 = got all the CPU it asked
    /// for; 0.8 = multiplexed down to 80 %, …).
    ///
    /// The stream runs at the pace of its slowest endpoint: a saturated
    /// source throttles transmission even if the target is idle, exactly
    /// the behaviour seen in the paper's Fig. 3b (full source load ⇒ lower
    /// target power, longer transfer).
    pub fn effective_bandwidth(&self, src_cpu_scale: f64, dst_cpu_scale: f64) -> f64 {
        let s = src_cpu_scale.clamp(0.0, 1.0);
        let d = dst_cpu_scale.clamp(0.0, 1.0);
        self.nominal_bandwidth() * s.min(d)
    }

    /// Utilisation of the physical line when the stream moves at
    /// `bandwidth_bps` — feeds the NIC term of the power synthesiser.
    pub fn line_utilisation(&self, bandwidth_bps: f64) -> f64 {
        (bandwidth_bps / self.line_rate_bps).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gigabit_nominal_numbers() {
        let l = Link::gigabit();
        assert!((l.nominal_bandwidth() - 1.15e8).abs() < 1e6);
    }

    #[test]
    fn slowest_endpoint_governs() {
        let l = Link::gigabit();
        let full = l.effective_bandwidth(1.0, 1.0);
        assert_eq!(full, l.nominal_bandwidth());
        assert_eq!(l.effective_bandwidth(0.5, 1.0), 0.5 * full);
        assert_eq!(l.effective_bandwidth(1.0, 0.25), 0.25 * full);
        assert_eq!(l.effective_bandwidth(0.5, 0.25), 0.25 * full);
    }

    #[test]
    fn scales_are_clamped() {
        let l = Link::gigabit();
        assert_eq!(
            l.effective_bandwidth(7.0, 2.0),
            l.nominal_bandwidth(),
            "scales above 1 clamp"
        );
        assert_eq!(l.effective_bandwidth(-1.0, 1.0), 0.0);
    }

    #[test]
    fn line_utilisation_clamps() {
        let l = Link::gigabit();
        assert_eq!(l.line_utilisation(2.0 * l.line_rate_bps), 1.0);
        assert_eq!(l.line_utilisation(0.0), 0.0);
        assert!((l.line_utilisation(l.line_rate_bps / 2.0) - 0.5).abs() < 1e-12);
    }
}
