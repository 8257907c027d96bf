//! A recorded power trace for one host.

use serde::{Deserialize, Serialize};
use wavm3_simkit::{SimTime, TimeSeries};

/// A power trace: watts sampled over time for a named host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerTrace {
    /// Host the trace was taken on (e.g. "m01").
    pub host: String,
    /// The samples (watts).
    pub series: TimeSeries,
}

impl PowerTrace {
    /// An empty trace for `host`.
    pub fn new(host: impl Into<String>) -> Self {
        PowerTrace {
            host: host.into(),
            series: TimeSeries::new(),
        }
    }

    /// Append a reading.
    pub fn record(&mut self, t: SimTime, watts: f64) {
        self.series.push(t, watts);
    }

    /// Number of readings.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// `true` when no readings exist.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// Energy in joules over `[from, to]` (trapezoidal).
    pub fn energy_between(&self, from: SimTime, to: SimTime) -> f64 {
        self.series.integrate_between(from, to)
    }

    /// Mean power over `[from, to]`, if any samples fall inside.
    pub fn mean_power_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        self.series.mean_between(from, to)
    }

    /// Emit `time_s,watts` CSV lines (the format the figure targets dump).
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(self.len() * 16 + 16);
        out.push_str("time_s,power_w\n");
        for (t, v) in self.series.iter() {
            out.push_str(&format!("{:.3},{:.1}\n", t.as_secs_f64(), v));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_integrate() {
        let mut tr = PowerTrace::new("m01");
        tr.record(SimTime::from_secs(0), 500.0);
        tr.record(SimTime::from_secs(10), 500.0);
        assert_eq!(tr.len(), 2);
        assert!((tr.energy_between(SimTime::ZERO, SimTime::from_secs(10)) - 5000.0).abs() < 1e-9);
        assert!(
            (tr.energy_between(SimTime::from_secs(2), SimTime::from_secs(4)) - 1000.0).abs() < 1e-9
        );
        assert_eq!(
            tr.mean_power_between(SimTime::ZERO, SimTime::from_secs(10)),
            Some(500.0)
        );
    }

    #[test]
    fn csv_shape() {
        let mut tr = PowerTrace::new("m01");
        tr.record(SimTime::from_millis(500), 432.15);
        let csv = tr.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("time_s,power_w"));
        assert_eq!(lines.next(), Some("0.500,432.1"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn empty_trace() {
        let tr = PowerTrace::new("o1");
        assert!(tr.is_empty());
        assert_eq!(tr.energy_between(SimTime::ZERO, SimTime::from_secs(1)), 0.0);
        assert_eq!(
            tr.mean_power_between(SimTime::ZERO, SimTime::from_secs(1)),
            None
        );
    }
}
