//! Half-open time intervals `[start, end)`.
//!
//! The fault-injection layer schedules transient conditions (link
//! degradation windows, abort instants) as intervals on the simulation
//! clock; the simulator asks "is `t` inside any active window?" every tick.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A half-open interval `[start, end)` on the simulation clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interval {
    /// First instant inside the interval.
    pub start: SimTime,
    /// First instant after the interval.
    pub end: SimTime,
}

impl Interval {
    /// Construct, validating `start <= end`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(start <= end, "interval end precedes start");
        Interval { start, end }
    }

    /// Construct from a start instant and a span.
    pub fn starting_at(start: SimTime, span: SimDuration) -> Self {
        Interval {
            start,
            end: start + span,
        }
    }

    /// `true` when `t ∈ [start, end)`.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }

    /// Length of the interval.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// `true` when the interval contains no instant.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(a: u64, b: u64) -> Interval {
        Interval::new(SimTime::from_secs(a), SimTime::from_secs(b))
    }

    #[test]
    fn containment_is_half_open() {
        let i = iv(2, 5);
        assert!(!i.contains(SimTime::from_secs(1)));
        assert!(i.contains(SimTime::from_secs(2)));
        assert!(i.contains(SimTime::from_secs(4)));
        assert!(!i.contains(SimTime::from_secs(5)));
    }

    #[test]
    fn duration_and_emptiness() {
        assert_eq!(iv(2, 5).duration(), SimDuration::from_secs(3));
        assert!(iv(3, 3).is_empty());
        assert!(!iv(3, 3).contains(SimTime::from_secs(3)));
    }

    #[test]
    fn starting_at_builds_the_span() {
        let i = Interval::starting_at(SimTime::from_secs(7), SimDuration::from_secs(2));
        assert_eq!(i, iv(7, 9));
    }

    #[test]
    #[should_panic(expected = "end precedes start")]
    fn inverted_interval_panics() {
        iv(5, 2);
    }
}
