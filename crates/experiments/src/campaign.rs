//! Crash-safe campaign execution: the experiments-side glue over
//! `wavm3-harness`.
//!
//! A [`Campaign`] wraps a [`RunnerConfig`] with the supervision the
//! harness provides — per-scenario checkpoint/resume, panic isolation,
//! and deadline budgets — while keeping the unsupervised fast path
//! bit-identical: [`Campaign::plain`] with no checkpoint directory and
//! no budget produces exactly the records (and trace events) of
//! [`ExperimentDataset::collect`].
//!
//! ## Checkpoint identity
//!
//! Every scenario checkpoint is fingerprinted over the serialized
//! [`RunnerConfig`] (seed, repetition policy, fault mix, retry policy),
//! the scenario id, and the checkpoint format version. Because results
//! are a pure function of `(runner config, scenario)` — the runner seeds
//! every repetition as `base.child(hash(scenario)).child(rep)` — a
//! fingerprint match proves the journaled records are byte-identical to
//! what a re-run would produce, which is what makes resumed campaigns
//! safe to merge into golden outputs.

use crate::dataset::{ExperimentDataset, ScenarioRuns};
use crate::runner::{run_scenario_supervised, RunnerConfig, ScenarioFailure};
use crate::scenario::Scenario;
use rayon::prelude::*;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use wavm3_harness::{
    fingerprint_of, Budget, CheckpointLoad, CheckpointStore, Wavm3Error, CHECKPOINT_VERSION,
};
use wavm3_migration::MigrationRecord;

/// Supervision knobs, typically parsed from the shared CLI flags.
#[derive(Debug, Clone, Default)]
pub struct SupervisorOptions {
    /// Journal per-scenario results into this directory.
    pub checkpoint_dir: Option<PathBuf>,
    /// Load (and verify) existing checkpoints instead of recomputing.
    pub resume: bool,
    /// Per-scenario wall-clock / sim-time budget.
    pub budget: Budget,
}

/// Aggregate supervision counters for the end-of-campaign report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CampaignStats {
    /// Scenarios computed to completion this run.
    pub completed: usize,
    /// Scenarios served from verified checkpoints.
    pub resumed: usize,
    /// Checkpoints that failed verification and were quarantined.
    pub quarantined: usize,
    /// Scenarios whose repetition policy was cut short by a budget.
    pub budget_truncated: usize,
    /// Scenarios that panicked and were recorded as failures.
    pub failed: usize,
}

#[derive(Debug, Default)]
struct CampaignState {
    stats: CampaignStats,
    failures: Vec<ScenarioFailure>,
}

/// The partial-results report of a supervised campaign.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignReport {
    /// Aggregate counters.
    pub stats: CampaignStats,
    /// Every scenario failure, sorted by scenario id.
    pub failures: Vec<ScenarioFailure>,
}

/// A supervised experiment campaign: a [`RunnerConfig`] plus checkpoint
/// store, budget, and failure ledger. Shared immutably across rayon
/// workers; the ledger sits behind a mutex and is sorted on read so the
/// report is deterministic regardless of completion order.
pub struct Campaign {
    runner: RunnerConfig,
    store: Option<CheckpointStore>,
    budget: Budget,
    state: Arc<Mutex<CampaignState>>,
}

impl Campaign {
    /// An unsupervised campaign: no checkpoints, no budget, panics
    /// propagate only as recorded failures. Never fails to construct and
    /// performs no validation — this is the drop-in stand-in for a bare
    /// [`RunnerConfig`] in tests and goldens.
    pub fn plain(runner: RunnerConfig) -> Self {
        Campaign {
            runner,
            store: None,
            budget: Budget::UNLIMITED,
            state: Arc::default(),
        }
    }

    /// A supervised campaign. Validates `runner` (rejecting NaN,
    /// inverted-interval and impossible-policy configs up-front) and
    /// opens the checkpoint directory when one was requested.
    pub fn new(runner: RunnerConfig, options: SupervisorOptions) -> Result<Self, Wavm3Error> {
        runner.validate()?;
        let store = options
            .checkpoint_dir
            .map(|dir| CheckpointStore::open(dir, options.resume))
            .transpose()?;
        Ok(Campaign {
            runner,
            store,
            budget: options.budget,
            state: Arc::default(),
        })
    }

    /// The wrapped runner configuration.
    pub fn runner(&self) -> &RunnerConfig {
        &self.runner
    }

    /// The checkpoint directory, when journaling is on.
    pub fn checkpoint_dir(&self) -> Option<&std::path::Path> {
        self.store.as_ref().map(|s| s.dir())
    }

    /// The same supervision (shared store, budget, and failure ledger)
    /// over a different runner configuration — used by sweeps that vary
    /// the seed. Checkpoints cannot collide: the fingerprint covers the
    /// whole runner config.
    pub fn with_runner(&self, runner: RunnerConfig) -> Campaign {
        Campaign {
            runner,
            store: self.store.clone(),
            budget: self.budget,
            state: Arc::clone(&self.state),
        }
    }

    /// Execute `scenarios` (rayon-parallel, output order = input order)
    /// under full supervision and collect the dataset. Failed scenarios
    /// contribute an empty record list and are recorded in the report;
    /// the campaign always completes.
    pub fn collect(&self, scenarios: Vec<Scenario>) -> ExperimentDataset {
        let _timer = wavm3_obs::perf::scope("runner.campaign");
        let started = std::time::Instant::now();
        let results: Vec<Vec<MigrationRecord>> = scenarios
            .par_iter()
            .map(|scenario| self.run_one(scenario))
            .collect();
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > 0.0 {
            let runs: usize = results.iter().map(Vec::len).sum();
            wavm3_obs::metrics::gauge_set(
                crate::runner::throughput_gauge(&self.runner),
                runs as f64 / elapsed,
            );
        }
        ExperimentDataset {
            runs: scenarios
                .into_iter()
                .zip(results)
                .map(|(scenario, records)| ScenarioRuns { scenario, records })
                .collect(),
        }
    }

    /// The campaign's fingerprint for `scenario`: runner config JSON +
    /// scenario id + checkpoint format version.
    fn fingerprint(&self, scenario: &Scenario) -> String {
        let runner_json = serde_json::to_string(&self.runner)
            .expect("RunnerConfig is a plain data struct and always serialises");
        fingerprint_of(&[
            &runner_json,
            &scenario.id(),
            &CHECKPOINT_VERSION.to_string(),
        ])
    }

    fn run_one(&self, scenario: &Scenario) -> Vec<MigrationRecord> {
        let id = scenario.id();
        // An interrupt (SIGINT/SIGTERM caught by the CLI layer) drains the
        // campaign instead of killing it: scenarios already running finish
        // and checkpoint normally, the rest are skipped here and recorded
        // as failures, and `cli::run` maps the whole run to exit code 3.
        if let Some(signal) = wavm3_harness::signal::interrupted_by() {
            self.trace_lifecycle(&id, "scenario.interrupted", 0);
            let mut state = self.lock();
            state.stats.failed += 1;
            state.failures.push(ScenarioFailure {
                scenario: id,
                base_seed: self.runner.base_seed,
                rep: 0,
                fault_plan: None,
                message: format!("interrupted by {signal}: scenario skipped during drain"),
            });
            return Vec::new();
        }
        if let Some(records) = self.try_restore(scenario, &id) {
            return records;
        }
        match run_scenario_supervised(scenario, &self.runner, &self.budget) {
            Ok(result) => {
                if result.budget_truncated {
                    self.lock().stats.budget_truncated += 1;
                    self.trace_lifecycle(&id, "checkpoint.skipped_truncated", result.records.len());
                    // Deliberately NOT checkpointed: a truncated scenario
                    // must be recomputed in full on resume, otherwise the
                    // merged campaign would differ from an uninterrupted one.
                } else {
                    self.save_checkpoint(scenario, &id, &result.records);
                    self.lock().stats.completed += 1;
                }
                result.records
            }
            Err(failure) => {
                eprintln!(
                    "warning: scenario '{}' failed at rep {} (seed {:#x}): {}",
                    failure.scenario, failure.rep, failure.base_seed, failure.message
                );
                self.trace_lifecycle(&id, "scenario.failed", failure.rep as usize);
                let mut state = self.lock();
                state.stats.failed += 1;
                state.failures.push(*failure);
                Vec::new()
            }
        }
    }

    /// Load + verify + deserialize a checkpoint; payloads that fail to
    /// deserialize (format drift the header version missed) are
    /// quarantined through the same path as corrupt files.
    fn try_restore(&self, scenario: &Scenario, id: &str) -> Option<Vec<MigrationRecord>> {
        let store = self.store.as_ref()?;
        match store.load(id, &self.fingerprint(scenario)) {
            Ok(CheckpointLoad::Valid(payload)) => {
                match serde_json::from_str::<Vec<MigrationRecord>>(&payload) {
                    Ok(records) => {
                        self.lock().stats.resumed += 1;
                        self.trace_lifecycle(id, "checkpoint.loaded", records.len());
                        Some(records)
                    }
                    Err(e) => {
                        let path = store.path_for(id);
                        if let Err(q) = store.quarantine(&path, &format!("payload: {e}")) {
                            eprintln!("warning: could not quarantine {}: {q}", path.display());
                        }
                        self.lock().stats.quarantined += 1;
                        self.trace_lifecycle(id, "checkpoint.quarantined", 0);
                        None
                    }
                }
            }
            Ok(CheckpointLoad::Quarantined { .. }) => {
                self.lock().stats.quarantined += 1;
                self.trace_lifecycle(id, "checkpoint.quarantined", 0);
                None
            }
            Ok(CheckpointLoad::Missing) => None,
            Err(e) => {
                eprintln!("warning: checkpoint load for '{id}' failed: {e}");
                None
            }
        }
    }

    fn save_checkpoint(&self, scenario: &Scenario, id: &str, records: &Vec<MigrationRecord>) {
        let Some(store) = self.store.as_ref() else {
            return;
        };
        let payload = match serde_json::to_string(records) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("warning: could not serialise checkpoint for '{id}': {e}");
                return;
            }
        };
        match store.save(id, &self.fingerprint(scenario), &payload) {
            Ok(()) => self.trace_lifecycle(id, "checkpoint.saved", records.len()),
            Err(e) => eprintln!("warning: could not save checkpoint for '{id}': {e}"),
        }
    }

    /// Checkpoint lifecycle events ride the deterministic trace. They are
    /// emitted from rayon workers, so they must live in their own run
    /// scope; the "z-harness" key sorts after every repetition buffer of
    /// the same scenario, like the variance-rule progress events.
    fn trace_lifecycle(&self, id: &str, name: &'static str, records: usize) {
        if !wavm3_obs::active() {
            return;
        }
        wavm3_obs::run_scope(format!("{id}|z-harness"), || {
            wavm3_obs::event!(
                wavm3_obs::Level::Info, "wavm3_harness", name,
                wavm3_simkit::SimTime::ZERO,
                "scenario" => id.to_string(),
                "records" => records as u64,
            );
        });
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CampaignState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// `true` when at least one scenario failed.
    pub fn has_failures(&self) -> bool {
        !self.lock().failures.is_empty()
    }

    /// Snapshot the partial-results report (stats + failures, sorted by
    /// scenario id for determinism).
    pub fn report(&self) -> CampaignReport {
        let state = self.lock();
        let mut failures = state.failures.clone();
        failures.sort_by(|a, b| a.scenario.cmp(&b.scenario).then(a.rep.cmp(&b.rep)));
        CampaignReport {
            stats: state.stats,
            failures,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::RepetitionPolicy;
    use crate::scenario::ExperimentFamily;
    use wavm3_cluster::MachineSet;
    use wavm3_migration::MigrationKind;

    fn cheap_scenarios() -> Vec<Scenario> {
        vec![
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
                label: "0 VM live".into(),
            },
        ]
    }

    fn fixed_cfg(seed: u64) -> RunnerConfig {
        RunnerConfig {
            repetitions: RepetitionPolicy::Fixed(2),
            base_seed: seed,
            ..Default::default()
        }
    }

    #[test]
    fn plain_campaign_matches_unsupervised_collect() {
        let cfg = fixed_cfg(21);
        let supervised = Campaign::plain(cfg).collect(cheap_scenarios());
        let bare = ExperimentDataset::collect(cheap_scenarios(), &cfg);
        assert_eq!(supervised, bare, "supervision must not perturb results");
    }

    #[test]
    fn invalid_runner_config_is_rejected_at_construction() {
        let cfg = RunnerConfig {
            repetitions: RepetitionPolicy::Fixed(0),
            ..Default::default()
        };
        let err = Campaign::new(cfg, SupervisorOptions::default())
            .err()
            .expect("zero repetitions must be rejected");
        assert!(err.is_config_error(), "{err}");
    }

    #[test]
    fn fingerprints_separate_seeds_and_scenarios() {
        let a = Campaign::plain(fixed_cfg(1));
        let b = Campaign::plain(fixed_cfg(2));
        let scenarios = cheap_scenarios();
        assert_ne!(a.fingerprint(&scenarios[0]), b.fingerprint(&scenarios[0]));
        assert_ne!(a.fingerprint(&scenarios[0]), a.fingerprint(&scenarios[1]));
        assert_eq!(a.fingerprint(&scenarios[0]), a.fingerprint(&scenarios[0]));
    }

    #[test]
    fn with_runner_shares_the_failure_ledger() {
        let base = Campaign::plain(fixed_cfg(1));
        let forked = base.with_runner(fixed_cfg(2));
        forked.lock().stats.completed += 1;
        assert_eq!(base.report().stats.completed, 1);
    }
}
