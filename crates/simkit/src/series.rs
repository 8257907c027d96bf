//! Sampled time series.
//!
//! The workhorse container for power traces and telemetry: a sequence of
//! `(SimTime, f64)` samples with non-decreasing timestamps, plus the
//! numerical operations the paper's methodology needs — trapezoidal
//! integration (power → energy), windowed statistics, interpolation, and
//! the Voltech-style stabilisation test.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// A time-ordered sequence of scalar samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    times: Vec<SimTime>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// An empty series with preallocated capacity.
    pub fn with_capacity(n: usize) -> Self {
        TimeSeries {
            times: Vec::with_capacity(n),
            values: Vec::with_capacity(n),
        }
    }

    /// Build from parallel vectors. Panics if lengths differ or times are
    /// not non-decreasing.
    pub fn from_parts(times: Vec<SimTime>, values: Vec<f64>) -> Self {
        assert_eq!(times.len(), values.len(), "times/values length mismatch");
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "timestamps must be non-decreasing"
        );
        TimeSeries { times, values }
    }

    /// Append a sample. Panics if `t` precedes the last timestamp.
    pub fn push(&mut self, t: SimTime, value: f64) {
        if let Some(&last) = self.times.last() {
            assert!(t >= last, "timestamps must be non-decreasing");
        }
        self.times.push(t);
        self.values.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Timestamps slice.
    pub fn times(&self) -> &[SimTime] {
        &self.times
    }

    /// Values slice.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Iterate `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// First timestamp, if any.
    pub fn start(&self) -> Option<SimTime> {
        self.times.first().copied()
    }

    /// Last timestamp, if any.
    pub fn end(&self) -> Option<SimTime> {
        self.times.last().copied()
    }

    /// Linear interpolation of the series at `t`.
    ///
    /// Outside the sampled range the series is held constant at its first /
    /// last value (zero-order extrapolation). Returns `None` for an empty
    /// series.
    pub fn sample_at(&self, t: SimTime) -> Option<f64> {
        if self.is_empty() {
            return None;
        }
        if t <= self.times[0] {
            return Some(self.values[0]);
        }
        let n = self.len();
        if t >= self.times[n - 1] {
            return Some(self.values[n - 1]);
        }
        // partition_point: first index with time > t, so idx-1 is the left
        // neighbour; idx is in [1, n-1] here.
        let idx = self.times.partition_point(|&x| x <= t);
        let (t0, t1) = (self.times[idx - 1], self.times[idx]);
        let (v0, v1) = (self.values[idx - 1], self.values[idx]);
        if t0 == t1 {
            return Some(v1);
        }
        let frac = (t.as_secs_f64() - t0.as_secs_f64()) / (t1.as_secs_f64() - t0.as_secs_f64());
        Some(v0 + frac * (v1 - v0))
    }

    /// Trapezoidal integral over the full series.
    ///
    /// For a power trace in watts this yields energy in joules.
    pub fn integrate(&self) -> f64 {
        self.integrate_between(
            self.start().unwrap_or(SimTime::ZERO),
            self.end().unwrap_or(SimTime::ZERO),
        )
    }

    /// Trapezoidal integral restricted to `[from, to]`, interpolating the
    /// boundary values. Returns 0 for empty series or inverted ranges.
    pub fn integrate_between(&self, from: SimTime, to: SimTime) -> f64 {
        if self.is_empty() || to <= from {
            return 0.0;
        }
        let a = from.max(self.times[0]);
        let b = to.min(self.times[self.len() - 1]);
        if b <= a {
            // Entire window falls outside the samples: constant extrapolation.
            let v = self.sample_at(from).unwrap_or(0.0);
            return v * (to - from).as_secs_f64();
        }
        let va = self.sample_at(a).expect("non-empty");
        let vb = self.sample_at(b).expect("non-empty");
        let mut acc = 0.0;
        let mut prev_t = a;
        let mut prev_v = va;
        let lo = self.times.partition_point(|&x| x <= a);
        let hi = self.times.partition_point(|&x| x < b);
        for i in lo..hi {
            let (t, v) = (self.times[i], self.values[i]);
            acc += 0.5 * (prev_v + v) * (t - prev_t).as_secs_f64();
            prev_t = t;
            prev_v = v;
        }
        acc += 0.5 * (prev_v + vb) * (b - prev_t).as_secs_f64();
        // Extrapolated flat tails when the window exceeds the sampled range.
        if from < a {
            acc += self.values[0] * (a - from).as_secs_f64();
        }
        if to > b {
            acc += self.values[self.len() - 1] * (to - b).as_secs_f64();
        }
        acc
    }

    /// Arithmetic mean of the sample values (unweighted). `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.len() as f64)
        }
    }

    /// Mean of samples whose timestamps fall in `[from, to]`.
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (t, v) in self.iter() {
            if t >= from && t <= to {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Minimum and maximum values. `None` if empty.
    pub fn min_max(&self) -> Option<(f64, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// The paper's measurement-stabilisation rule: `true` when the last
    /// `window` samples all lie within `tolerance` *relative* spread, i.e.
    /// `(max - min) / |mean| <= tolerance`.
    ///
    /// The paper uses `window = 20`, `tolerance = 0.003` (0.3 %).
    pub fn is_stable(&self, window: usize, tolerance: f64) -> bool {
        if window == 0 || self.len() < window {
            return false;
        }
        let tail = &self.values[self.len() - window..];
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &v in tail {
            lo = lo.min(v);
            hi = hi.max(v);
            sum += v;
        }
        let mean = sum / window as f64;
        if mean == 0.0 {
            return hi - lo == 0.0;
        }
        (hi - lo) / mean.abs() <= tolerance
    }

    /// Restrict the series to samples within `[from, to]` (inclusive).
    pub fn slice(&self, from: SimTime, to: SimTime) -> TimeSeries {
        let mut out = TimeSeries::new();
        for (t, v) in self.iter() {
            if t >= from && t <= to {
                out.push(t, v);
            }
        }
        out
    }

    /// Shift every timestamp so the series starts at `t = 0`.
    pub fn rebase(&self) -> TimeSeries {
        let Some(start) = self.start() else {
            return TimeSeries::new();
        };
        let times = self
            .times
            .iter()
            .map(|&t| SimTime::from_micros(t.as_micros() - start.as_micros()))
            .collect();
        TimeSeries {
            times,
            values: self.values.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn push_and_iterate() {
        let mut s = TimeSeries::new();
        s.push(secs(0), 1.0);
        s.push(secs(1), 2.0);
        assert_eq!(s.len(), 2);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![(secs(0), 1.0), (secs(1), 2.0)]);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn rejects_time_regression() {
        let mut s = TimeSeries::new();
        s.push(secs(2), 1.0);
        s.push(secs(1), 2.0);
    }

    #[test]
    fn interpolation_midpoint_and_extrapolation() {
        let s = TimeSeries::from_parts(vec![secs(0), secs(2)], vec![0.0, 10.0]);
        assert_eq!(s.sample_at(secs(1)), Some(5.0));
        assert_eq!(s.sample_at(secs(0)), Some(0.0));
        // Flat extrapolation beyond the ends.
        assert_eq!(s.sample_at(secs(5)), Some(10.0));
        assert_eq!(s.sample_at(SimTime::ZERO), Some(0.0));
    }

    #[test]
    fn integrate_constant_power() {
        // 100 W for 10 s = 1000 J.
        let s = TimeSeries::from_parts(vec![secs(0), secs(10)], vec![100.0, 100.0]);
        assert!((s.integrate() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn integrate_ramp() {
        // Power ramps 0→100 W over 10 s: energy = 500 J.
        let s = TimeSeries::from_parts(vec![secs(0), secs(10)], vec![0.0, 100.0]);
        assert!((s.integrate() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn integrate_between_interpolates_boundaries() {
        let s = TimeSeries::from_parts(vec![secs(0), secs(10)], vec![0.0, 100.0]);
        // Between t=5 (50 W) and t=10 (100 W): 0.5*(50+100)*5 = 375 J.
        assert!((s.integrate_between(secs(5), secs(10)) - 375.0).abs() < 1e-9);
        // Inverted range → 0.
        assert_eq!(s.integrate_between(secs(10), secs(5)), 0.0);
    }

    #[test]
    fn integrate_window_past_samples_extrapolates() {
        let s = TimeSeries::from_parts(vec![secs(0), secs(10)], vec![100.0, 100.0]);
        // Window [0, 20]: 10 s sampled + 10 s flat tail = 2000 J.
        assert!((s.integrate_between(secs(0), secs(20)) - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn windowed_mean() {
        let s = TimeSeries::from_parts(
            vec![secs(0), secs(1), secs(2), secs(3)],
            vec![1.0, 2.0, 3.0, 4.0],
        );
        assert_eq!(s.mean_between(secs(1), secs(2)), Some(2.5));
        assert_eq!(s.mean_between(secs(8), secs(9)), None);
        assert_eq!(s.mean(), Some(2.5));
    }

    #[test]
    fn stabilisation_rule() {
        let mut s = TimeSeries::new();
        for i in 0..19 {
            s.push(SimTime::from_millis(i * 500), 500.0);
        }
        // 19 samples: not enough for a window of 20.
        assert!(!s.is_stable(20, 0.003));
        s.push(SimTime::from_millis(19 * 500), 500.5);
        // Spread 0.5/500.25 ≈ 0.1% < 0.3%.
        assert!(s.is_stable(20, 0.003));
        s.push(SimTime::from_millis(20 * 500), 510.0);
        // Last 20 now include a 10 W jump (~2%): unstable.
        assert!(!s.is_stable(20, 0.003));
    }

    #[test]
    fn slice_and_rebase() {
        let s = TimeSeries::from_parts(vec![secs(5), secs(6), secs(7)], vec![1.0, 2.0, 3.0]);
        let cut = s.slice(secs(6), secs(7));
        assert_eq!(cut.len(), 2);
        let rb = cut.rebase();
        assert_eq!(rb.start(), Some(SimTime::ZERO));
        assert_eq!(rb.end(), Some(secs(1)));
    }

    #[test]
    fn min_max_and_empty_behaviour() {
        let s = TimeSeries::from_parts(vec![secs(0), secs(1)], vec![-3.0, 8.0]);
        assert_eq!(s.min_max(), Some((-3.0, 8.0)));
        let e = TimeSeries::new();
        assert_eq!(e.min_max(), None);
        assert_eq!(e.mean(), None);
        assert_eq!(e.sample_at(secs(0)), None);
        assert_eq!(e.integrate(), 0.0);
    }
}
