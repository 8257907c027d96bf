//! Periodic schedules — grid-aligned instants for samplers and monitors.
//!
//! The power meters (2 Hz) and the telemetry sampler walk fixed time
//! grids; [`PeriodicSchedule`] names such a grid, so that a test or an
//! example can state where its instants fall.

use crate::time::{SimDuration, SimTime};

/// An unbounded sequence of instants `start, start+p, start+2p, …`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeriodicSchedule {
    start: SimTime,
    period: SimDuration,
}

impl PeriodicSchedule {
    /// A grid starting at `start` with spacing `period` (must be > 0).
    pub fn new(start: SimTime, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        PeriodicSchedule { start, period }
    }

    /// The paper's meter grid: 2 Hz from `t = 0`.
    pub fn two_hz() -> Self {
        PeriodicSchedule::new(SimTime::ZERO, SimDuration::from_millis(500))
    }

    /// Grid spacing.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// The `n`-th instant (0-based).
    pub fn instant(&self, n: u64) -> SimTime {
        SimTime::from_micros(
            self.start
                .as_micros()
                .saturating_add(n.saturating_mul(self.period.as_micros())),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> PeriodicSchedule {
        PeriodicSchedule::two_hz()
    }

    #[test]
    fn instants_are_evenly_spaced() {
        let g = grid();
        assert_eq!(g.instant(0), SimTime::ZERO);
        assert_eq!(g.instant(3), SimTime::from_millis(1500));
        assert_eq!(g.period(), SimDuration::from_millis(500));
    }

    #[test]
    fn offset_grids() {
        let g = PeriodicSchedule::new(SimTime::from_millis(250), SimDuration::from_millis(100));
        assert_eq!(g.instant(0), SimTime::from_millis(250));
        assert_eq!(g.instant(1), SimTime::from_millis(350));
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        PeriodicSchedule::new(SimTime::ZERO, SimDuration::ZERO);
    }

    #[test]
    fn meter_grid_matches_sim_expectations() {
        // A 60-second trace at 2 Hz holds 121 samples (inclusive ends):
        // the last lands on 60 s exactly.
        let g = PeriodicSchedule::two_hz();
        assert_eq!(g.instant(120), SimTime::from_secs(60));
    }
}
