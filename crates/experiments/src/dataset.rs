//! Dataset assembly: campaign results, averaging, and train/test splits.

use crate::runner::{run_all, RunnerConfig};
use crate::scenario::Scenario;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use wavm3_migration::MigrationRecord;
use wavm3_simkit::{SimDuration, TimeSeries};

/// One scenario's repetitions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRuns {
    /// The configuration that was run.
    pub scenario: Scenario,
    /// Its repetitions.
    pub records: Vec<MigrationRecord>,
}

/// A complete campaign result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentDataset {
    /// All scenarios with their repetitions.
    pub runs: Vec<ScenarioRuns>,
}

impl ExperimentDataset {
    /// Execute a list of scenarios (rayon-parallel) and collect results.
    pub fn collect(scenarios: Vec<Scenario>, cfg: &RunnerConfig) -> Self {
        let results = run_all(&scenarios, cfg);
        ExperimentDataset {
            runs: scenarios
                .into_iter()
                .zip(results)
                .map(|(scenario, records)| ScenarioRuns { scenario, records })
                .collect(),
        }
    }

    /// Every record, flattened in campaign order.
    pub fn all_records(&self) -> Vec<&MigrationRecord> {
        self.runs.iter().flat_map(|r| r.records.iter()).collect()
    }

    /// Total number of simulated migrations.
    pub fn record_count(&self) -> usize {
        self.runs.iter().map(|r| r.records.len()).sum()
    }

    /// Stratified run-level split: from each scenario's repetitions take
    /// `train_fraction` (at least one) for training, rest for testing.
    /// Used by the run-level models (LIU/STRUNK); WAVM3/HUANG use the
    /// reading-level split inside `wavm3-models`.
    pub fn split_runs(
        &self,
        train_fraction: f64,
        seed: u64,
    ) -> (Vec<&MigrationRecord>, Vec<&MigrationRecord>) {
        assert!((0.0..1.0).contains(&train_fraction), "fraction in [0,1)");
        let mut train = Vec::new();
        let mut test = Vec::new();
        for (si, runs) in self.runs.iter().enumerate() {
            let n = runs.records.len();
            if n == 0 {
                continue;
            }
            // At least one training run, and (when possible) at least one
            // test run per scenario.
            let take = ((n as f64 * train_fraction).floor() as usize).max(1);
            let take = if n > 1 { take.min(n - 1) } else { take.min(n) };
            let mut idx: Vec<usize> = (0..n).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (si as u64) << 17);
            idx.shuffle(&mut rng);
            for (pos, &i) in idx.iter().enumerate() {
                if pos < take {
                    train.push(&runs.records[i]);
                } else {
                    test.push(&runs.records[i]);
                }
            }
        }
        (train, test)
    }
}

/// Point-wise mean of several power traces on a common 2 Hz grid,
/// truncated to the shortest trace — the "average of ten runs" the paper
/// plots in Figs. 2–7.
pub fn mean_trace(traces: &[&TimeSeries]) -> TimeSeries {
    let mut out = TimeSeries::new();
    if traces.is_empty() {
        return out;
    }
    let n_min = traces.iter().map(|t| t.len()).min().unwrap_or(0);
    if n_min == 0 {
        return out;
    }
    let grid = SimDuration::from_millis(500);
    let _ = grid; // traces already share the meter grid; average by index
    for i in 0..n_min {
        let t = traces[0].times()[i];
        let mean = traces.iter().map(|tr| tr.values()[i]).sum::<f64>() / traces.len() as f64;
        out.push(t, mean);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RepetitionPolicy;
    use crate::scenario::ExperimentFamily;
    use wavm3_cluster::MachineSet;
    use wavm3_migration::MigrationKind;
    use wavm3_simkit::SimTime;

    fn mini_dataset() -> ExperimentDataset {
        let scenarios = vec![
            Scenario {
                family: ExperimentFamily::CpuloadSource,
                kind: MigrationKind::NonLive,
                machine_set: MachineSet::M,
                source_load_vms: 0,
                target_load_vms: 0,
                migrant_mem_ratio: None,
                label: "0 VM".into(),
            },
            Scenario {
                family: ExperimentFamily::CpuloadSource,
                kind: MigrationKind::Live,
                machine_set: MachineSet::M,
                source_load_vms: 0,
                target_load_vms: 0,
                migrant_mem_ratio: None,
                label: "0 VM".into(),
            },
        ];
        ExperimentDataset::collect(
            scenarios,
            &RunnerConfig {
                repetitions: RepetitionPolicy::Fixed(3),
                base_seed: 11,
                ..Default::default()
            },
        )
    }

    #[test]
    fn collect_preserves_structure() {
        let ds = mini_dataset();
        assert_eq!(ds.runs.len(), 2);
        assert_eq!(ds.record_count(), 6);
        let records = ds.all_records();
        let live = records.iter().filter(|r| r.kind == MigrationKind::Live);
        assert_eq!(live.count(), 3);
        assert!(records.iter().all(|r| r.machine_set == MachineSet::M));
    }

    #[test]
    fn split_is_stratified_and_disjoint() {
        let ds = mini_dataset();
        let (train, test) = ds.split_runs(0.34, 5);
        assert_eq!(train.len() + test.len(), 6);
        // One train record per scenario at 34% of 3 runs.
        assert_eq!(train.len(), 2);
        // Determinism.
        let (train2, _) = ds.split_runs(0.34, 5);
        assert_eq!(
            train.iter().map(|r| r.total_bytes).collect::<Vec<_>>(),
            train2.iter().map(|r| r.total_bytes).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mean_trace_averages_pointwise() {
        let mut a = TimeSeries::new();
        let mut b = TimeSeries::new();
        for i in 0..4u64 {
            a.push(SimTime::from_millis(i * 500), 100.0);
            b.push(SimTime::from_millis(i * 500), 200.0);
        }
        // b longer than a is truncated.
        b.push(SimTime::from_millis(2000), 999.0);
        let m = mean_trace(&[&a, &b]);
        assert_eq!(m.len(), 4);
        assert!(m.values().iter().all(|&v| v == 150.0));
    }

    #[test]
    fn mean_trace_empty_inputs() {
        assert!(mean_trace(&[]).is_empty());
        let empty = TimeSeries::new();
        assert!(mean_trace(&[&empty]).is_empty());
    }
}
