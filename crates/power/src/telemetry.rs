//! dstat-equivalent resource telemetry.
//!
//! The paper records CPU and memory activity of every actor with `dstat`
//! alongside the power readings. [`TelemetryRecorder`] is the simulator's
//! version: a set of named channels, each a [`TimeSeries`], sampled at the
//! same 2 Hz instants as the meters so that regression rows line up
//! one-to-one with power readings.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wavm3_simkit::{SimTime, TimeSeries};

/// Canonical channel names used across the workspace.
pub mod channels {
    /// Source-host CPU utilisation `CPU(S,t)` (fraction `[0,1]`).
    pub const CPU_SOURCE: &str = "cpu.source";
    /// Target-host CPU utilisation `CPU(T,t)` (fraction `[0,1]`).
    pub const CPU_TARGET: &str = "cpu.target";
    /// Migrating-VM CPU demand `CPU(v,t)` (fraction of its vCPUs `[0,1]`).
    pub const CPU_VM: &str = "cpu.vm";
    /// Dirtying ratio `DR(v,t)` (fraction `[0,1]`).
    pub const DIRTY_RATIO: &str = "mem.dirty_ratio";
    /// Effective migration bandwidth `BW(S,T,t)` (bytes/s).
    pub const BANDWIDTH: &str = "net.bandwidth";
    /// Injected link-fault bandwidth multiplier (`[0,1]`, 1 = healthy).
    /// Only recorded on runs with a non-empty fault plan.
    pub const FAULT_BW_FACTOR: &str = "fault.bw_factor";
}

/// Named time-series channels (BTreeMap: deterministic iteration order).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryRecorder {
    channels: BTreeMap<String, TimeSeries>,
}

impl TelemetryRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        TelemetryRecorder::default()
    }

    /// Record one sample on `channel` (creating it on first use). Only
    /// the first sample of a channel allocates its name.
    pub fn record(&mut self, channel: &str, t: SimTime, value: f64) {
        if let Some(series) = self.channels.get_mut(channel) {
            series.push(t, value);
            return;
        }
        self.channels
            .entry(channel.to_owned())
            .or_default()
            .push(t, value);
    }

    /// The series for `channel`, if it exists.
    pub fn channel(&self, channel: &str) -> Option<&TimeSeries> {
        self.channels.get(channel)
    }

    /// Interpolated value of `channel` at `t`, defaulting to 0.0 when the
    /// channel was never recorded (or has no sample covering `t`): an
    /// absent channel reads as inactivity. Callers that must distinguish
    /// "idle" from "not instrumented" — e.g. the fault bandwidth factor,
    /// where 0.0 would mean a dead link rather than a healthy one — should
    /// use [`TelemetryRecorder::try_value_at`] instead.
    pub fn value_at(&self, channel: &str, t: SimTime) -> f64 {
        self.try_value_at(channel, t).unwrap_or(0.0)
    }

    /// Interpolated value of `channel` at `t`, or `None` when the channel
    /// was never recorded or has no sample covering `t`. Unlike
    /// [`TelemetryRecorder::value_at`], this keeps "never recorded"
    /// distinguishable from a genuine 0.0 reading.
    pub fn try_value_at(&self, channel: &str, t: SimTime) -> Option<f64> {
        self.channels.get(channel).and_then(|s| s.sample_at(t))
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.channels.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut t = TelemetryRecorder::new();
        t.record(channels::CPU_SOURCE, SimTime::ZERO, 0.25);
        t.record(channels::CPU_SOURCE, SimTime::from_secs(2), 0.75);
        assert_eq!(t.value_at(channels::CPU_SOURCE, SimTime::from_secs(1)), 0.5);
        assert_eq!(t.channel(channels::CPU_SOURCE).unwrap().len(), 2);
        assert_eq!(t.len(), 1, "one channel, two samples");
    }

    #[test]
    fn unknown_channel_reads_zero() {
        let t = TelemetryRecorder::new();
        assert_eq!(t.value_at("nope", SimTime::ZERO), 0.0);
        assert!(t.channel("nope").is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn try_value_at_distinguishes_absent_from_zero() {
        let mut t = TelemetryRecorder::new();
        t.record(channels::FAULT_BW_FACTOR, SimTime::ZERO, 0.0);
        // A recorded zero is a real reading...
        assert_eq!(
            t.try_value_at(channels::FAULT_BW_FACTOR, SimTime::ZERO),
            Some(0.0)
        );
        // ...while a never-recorded channel is None, not a silent 0.0.
        assert_eq!(t.try_value_at(channels::BANDWIDTH, SimTime::ZERO), None);
        assert_eq!(t.value_at(channels::BANDWIDTH, SimTime::ZERO), 0.0);
    }

    #[test]
    fn canonical_names_are_distinct() {
        let names = [
            channels::CPU_SOURCE,
            channels::CPU_TARGET,
            channels::CPU_VM,
            channels::DIRTY_RATIO,
            channels::BANDWIDTH,
            channels::FAULT_BW_FACTOR,
        ];
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
