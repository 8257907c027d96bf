//! Everything recorded during one simulated migration.

use crate::config::MigrationKind;
use serde::{Deserialize, Serialize};
use wavm3_cluster::MachineSet;
use wavm3_faults::FaultEvent;
use wavm3_power::{EnergyBreakdown, MigrationPhase, PhaseTimes, PowerTrace, TelemetryRecorder};
use wavm3_simkit::{SimDuration, SimTime};

/// How the migration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MigrationOutcome {
    /// The VM runs on the target; the source was cleaned up.
    Completed,
    /// An injected abort rolled the VM back to the source; the record's
    /// `te` is the abort instant and its post-`te` energy is rollback.
    Aborted,
}

/// One regression row: the workload features of paper §IV-B and the two
/// measured powers, taken at a 2 Hz meter instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureSample {
    /// Sample instant.
    pub t: SimTime,
    /// Energy phase at `t`.
    pub phase: MigrationPhase,
    /// `CPU(S,t)` — source-host utilisation `[0,1]`.
    pub cpu_source: f64,
    /// `CPU(T,t)` — target-host utilisation `[0,1]`.
    pub cpu_target: f64,
    /// `CPU(v,t)` — migrating-VM CPU as a fraction of its vCPUs `[0,1]`.
    pub cpu_vm: f64,
    /// `DR(v,t)` — dirtying ratio `[0,1]`.
    pub dirty_ratio: f64,
    /// `BW(S,T,t)` — effective migration bandwidth, bytes/s.
    pub bandwidth_bps: f64,
    /// Measured (noisy) source power, watts.
    pub power_source_w: f64,
    /// Measured (noisy) target power, watts.
    pub power_target_w: f64,
}

/// Statistics of one pre-copy round (or the single bulk pass of a non-live
/// migration).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundStats {
    /// Round index (0 = bulk image pass).
    pub round: usize,
    /// Bytes sent during this round.
    pub bytes_sent: u64,
    /// Wall-clock duration of the round.
    pub duration: SimDuration,
    /// Pages found dirty when the round finished (to be sent next).
    pub dirty_at_end_pages: u64,
    /// `true` for the final stop-and-copy pass (VM suspended).
    pub stop_and_copy: bool,
}

/// The complete record of one simulated migration — the unit of data the
/// models train and evaluate on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Mechanism used.
    pub kind: MigrationKind,
    /// Machine pair the run executed on.
    pub machine_set: MachineSet,
    /// Phase instants `ms / ts / te / me`.
    pub phases: PhaseTimes,
    /// 2 Hz noisy meter trace, source host.
    pub source_trace: PowerTrace,
    /// 2 Hz noisy meter trace, target host.
    pub target_trace: PowerTrace,
    /// Noise-free ground truth at simulation-tick resolution, source host.
    pub source_truth: PowerTrace,
    /// Noise-free ground truth at simulation-tick resolution, target host.
    pub target_truth: PowerTrace,
    /// dstat-style resource channels.
    pub telemetry: TelemetryRecorder,
    /// Regression rows aligned with the meter instants.
    pub samples: Vec<FeatureSample>,
    /// Per-round transfer log.
    pub rounds: Vec<RoundStats>,
    /// Total bytes pushed over the link.
    pub total_bytes: u64,
    /// VM unavailability (suspend → resume).
    pub downtime: SimDuration,
    /// Migrating VM's RAM size, MiB (the LIU/STRUNK feature).
    pub vm_ram_mib: u64,
    /// Phase-resolved measured energy on the source.
    pub source_energy: EnergyBreakdown,
    /// Phase-resolved measured energy on the target.
    pub target_energy: EnergyBreakdown,
    /// The machines' idle power, watts (the paper's cross-set bias term).
    pub idle_power_w: f64,
    /// How the run ended (aborts only occur under fault injection).
    pub outcome: MigrationOutcome,
    /// Injected faults that actually fired, in occurrence order. After a
    /// retried run, the events of failed attempts are carried forward.
    pub fault_events: Vec<FaultEvent>,
    /// Which attempt produced this record (0 = first try; only retried
    /// fault-injected runs are ever > 0).
    pub attempt: u32,
    /// Total simulated retry backoff charged before this attempt started.
    pub retry_backoff: SimDuration,
}

impl MigrationRecord {
    /// Mean effective bandwidth over the transfer phase, bytes/s.
    pub fn mean_transfer_bandwidth(&self) -> f64 {
        let dur = self.phases.transfer().as_secs_f64();
        if dur <= 0.0 {
            0.0
        } else {
            self.total_bytes as f64 / dur
        }
    }

    /// Samples restricted to one phase.
    pub fn samples_in_phase(&self, phase: MigrationPhase) -> Vec<&FeatureSample> {
        self.samples.iter().filter(|s| s.phase == phase).collect()
    }

    /// Number of pre-copy rounds before the stop-and-copy pass.
    pub fn precopy_rounds(&self) -> usize {
        self.rounds.iter().filter(|r| !r.stop_and_copy).count()
    }

    /// Measured total migration energy (source + target), joules.
    pub fn total_energy_j(&self) -> f64 {
        self.source_energy.total_j() + self.target_energy.total_j()
    }

    /// `true` when the run was rolled back by an injected abort.
    pub fn is_aborted(&self) -> bool {
        self.outcome == MigrationOutcome::Aborted
    }

    /// Combined rollback energy of both hosts, joules.
    pub fn rollback_energy_j(&self) -> f64 {
        self.source_energy.rollback_j + self.target_energy.rollback_j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_record() -> MigrationRecord {
        let phases = PhaseTimes::new(
            SimTime::from_secs(10),
            SimTime::from_secs(12),
            SimTime::from_secs(48),
            SimTime::from_secs(51),
        );
        MigrationRecord {
            kind: MigrationKind::Live,
            machine_set: MachineSet::M,
            phases,
            source_trace: PowerTrace::new("m01"),
            target_trace: PowerTrace::new("m02"),
            source_truth: PowerTrace::new("m01"),
            target_truth: PowerTrace::new("m02"),
            telemetry: TelemetryRecorder::new(),
            samples: vec![
                FeatureSample {
                    t: SimTime::from_secs(5),
                    phase: MigrationPhase::NormalExecution,
                    cpu_source: 0.1,
                    cpu_target: 0.0,
                    cpu_vm: 1.0,
                    dirty_ratio: 0.0,
                    bandwidth_bps: 0.0,
                    power_source_w: 500.0,
                    power_target_w: 430.0,
                },
                FeatureSample {
                    t: SimTime::from_secs(20),
                    phase: MigrationPhase::Transfer,
                    cpu_source: 0.2,
                    cpu_target: 0.05,
                    cpu_vm: 1.0,
                    dirty_ratio: 0.4,
                    bandwidth_bps: 1.1e8,
                    power_source_w: 560.0,
                    power_target_w: 470.0,
                },
            ],
            rounds: vec![
                RoundStats {
                    round: 0,
                    bytes_sent: 4 << 30,
                    duration: SimDuration::from_secs(34),
                    dirty_at_end_pages: 50_000,
                    stop_and_copy: false,
                },
                RoundStats {
                    round: 1,
                    bytes_sent: 50_000 * 4096,
                    duration: SimDuration::from_secs(2),
                    dirty_at_end_pages: 0,
                    stop_and_copy: true,
                },
            ],
            total_bytes: (4u64 << 30) + 50_000 * 4096,
            downtime: SimDuration::from_secs(2),
            vm_ram_mib: 4096,
            source_energy: EnergyBreakdown {
                initiation_j: 1000.0,
                transfer_j: 20_000.0,
                activation_j: 1500.0,
                rollback_j: 0.0,
            },
            target_energy: EnergyBreakdown {
                initiation_j: 900.0,
                transfer_j: 17_000.0,
                activation_j: 1800.0,
                rollback_j: 0.0,
            },
            idle_power_w: 430.0,
            outcome: MigrationOutcome::Completed,
            fault_events: Vec::new(),
            attempt: 0,
            retry_backoff: SimDuration::ZERO,
        }
    }

    #[test]
    fn bandwidth_is_bytes_over_transfer_time() {
        let r = dummy_record();
        let expect = r.total_bytes as f64 / 36.0;
        assert!((r.mean_transfer_bandwidth() - expect).abs() < 1.0);
    }

    #[test]
    fn phase_filters() {
        let r = dummy_record();
        assert_eq!(r.samples_in_phase(MigrationPhase::Transfer).len(), 1);
        assert_eq!(r.samples_in_phase(MigrationPhase::Initiation).len(), 0);
    }

    #[test]
    fn round_accounting() {
        let r = dummy_record();
        assert_eq!(r.precopy_rounds(), 1);
        assert_eq!(r.rounds.len(), 2);
    }

    #[test]
    fn total_energy_sums_both_hosts() {
        let r = dummy_record();
        assert!((r.total_energy_j() - 42_200.0).abs() < 1e-9);
    }
}
