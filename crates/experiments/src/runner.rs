//! Experiment execution with the paper's repetition protocol.
//!
//! §V-B: *"we repeat each experiment until the difference in variance
//! between one run and the previous runs becomes less than 10 %, resulting
//! in at least ten runs for each experiment."* The repetition criterion is
//! applied to the run's total source-side migration energy.
//!
//! Scenarios are independent, so [`run_all`] fans them out over rayon —
//! and repetitions within a scenario shard over the same pool: every run
//! is seeded as `base.child(scenario-id hash).child(rep)`, a pure
//! function of the campaign structure, so results are identical
//! regardless of the thread count or execution order.
//!
//! ## The hot path
//!
//! On both paths a scenario builds one prototype [`MigrationSimulation`]
//! and re-runs it for every repetition with that repetition's RNG root,
//! threading a worker-local [`RunSlot`] arena through
//! [`MigrationSimulation::run_reusing`], which picks the engine. On the
//! analytic path the steady-state loop performs no heap allocation. Run
//! keys and panic contexts are built lazily
//! ([`wavm3_obs::run_scope_with`], [`wavm3_harness::run_isolated_with`]),
//! so with observability off a repetition costs the simulation itself and
//! nothing else.

use crate::scenario::Scenario;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use wavm3_faults::{FaultConfig, FaultPlan, RetryPolicy};
use wavm3_harness::{Budget, BudgetTracker, Wavm3Error};
use wavm3_migration::{
    MigrationConfig, MigrationRecord, MigrationSimulation, RunSlot, SimulationPath,
};
use wavm3_simkit::{RngFactory, SimDuration, SimTime};
use wavm3_stats::VarianceStopper;

thread_local! {
    /// Each rayon worker's recycled analytic-run buffers. Capacity is
    /// retained across every repetition the worker executes; results
    /// never depend on what the buffers held before.
    static RUN_SLOT: RefCell<RunSlot> = RefCell::new(RunSlot::default());
}

/// How many repetitions to run per scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RepetitionPolicy {
    /// Exactly `n` repetitions (fast paths, benches).
    Fixed(usize),
    /// The paper's rule: at least `min`, stop when the variance of the
    /// total migration energy changes by less than `threshold`, hard cap
    /// at `max`.
    VarianceRule {
        /// Minimum repetitions (paper: 10).
        min: usize,
        /// Hard cap.
        max: usize,
        /// Relative variance-change threshold (paper: 0.10).
        threshold: f64,
    },
}

impl RepetitionPolicy {
    /// The paper's protocol.
    pub fn paper() -> Self {
        RepetitionPolicy::VarianceRule {
            min: 10,
            max: 15,
            threshold: 0.10,
        }
    }
}

/// Runner configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunnerConfig {
    /// Repetition policy.
    pub repetitions: RepetitionPolicy,
    /// Root seed of the whole campaign.
    pub base_seed: u64,
    /// Fault injection: `None` (the default) runs the engine exactly as it
    /// behaved before the fault subsystem existed.
    pub faults: Option<FaultConfig>,
    /// Retry policy for aborted runs (only consulted when faults are on).
    pub retry: RetryPolicy,
    /// Which integration engine every repetition runs on. The default
    /// ([`SimulationPath::Sampled`]) reproduces the pre-analytic campaign
    /// bit for bit; [`SimulationPath::Analytic`] trades the 2 Hz meter
    /// traces for closed-form per-phase energies (see
    /// `wavm3_migration::analytic`).
    pub path: SimulationPath,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            repetitions: RepetitionPolicy::paper(),
            base_seed: 0xC1A5_7E01,
            faults: None,
            retry: RetryPolicy::default(),
            path: SimulationPath::Sampled,
        }
    }
}

impl RunnerConfig {
    /// Reject impossible repetition policies (zero repetitions, inverted
    /// `min > max`, NaN / non-positive variance thresholds), invalid
    /// retry parameters, and any invalid fault configuration — before a
    /// campaign starts, not ten scenarios into it.
    pub fn validate(&self) -> Result<(), Wavm3Error> {
        match self.repetitions {
            RepetitionPolicy::Fixed(n) => {
                if n == 0 {
                    return Err(Wavm3Error::invalid_config(
                        "runner.repetitions",
                        "fixed policy needs at least one repetition",
                    ));
                }
            }
            RepetitionPolicy::VarianceRule {
                min,
                max,
                threshold,
            } => {
                if min == 0 {
                    return Err(Wavm3Error::invalid_config(
                        "runner.repetitions.min",
                        "variance rule needs at least one repetition",
                    ));
                }
                if min > max {
                    return Err(Wavm3Error::invalid_config(
                        "runner.repetitions.min",
                        format!("must not exceed max ({min} > {max})"),
                    ));
                }
                if !threshold.is_finite() || threshold <= 0.0 {
                    return Err(Wavm3Error::invalid_config(
                        "runner.repetitions.threshold",
                        format!("variance threshold must be finite and positive, got {threshold}"),
                    ));
                }
            }
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        self.retry.validate()
    }
}

/// One scenario's supervised outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The completed repetitions (in repetition order).
    pub records: Vec<MigrationRecord>,
    /// `true` when a wall-clock or sim-time budget cut the repetition
    /// policy short: the records are valid but fewer than the policy
    /// asked for, and the scenario should not be checkpointed as done.
    pub budget_truncated: bool,
}

/// A scenario that panicked under supervision, or whose config the
/// simulation rejected (recorded at rep 0), with everything needed to
/// reproduce the failure deterministically: the scenario id, the
/// campaign seed, the poisoned repetition, and the fault plan that
/// repetition drew (when fault injection was on).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioFailure {
    /// Scenario id (`family/kind/set/label`).
    pub scenario: String,
    /// Campaign base seed; `base.child(hash(scenario)).child(rep)` replays
    /// the poisoned repetition exactly.
    pub base_seed: u64,
    /// The repetition that panicked.
    pub rep: u64,
    /// The fault plan attempt 0 of that repetition drew, if it could be
    /// regenerated (a planner panic leaves it `None`).
    pub fault_plan: Option<FaultPlan>,
    /// The captured panic message, or the config error.
    pub message: String,
}

impl ScenarioFailure {
    fn capture(
        scenario: &Scenario,
        cfg: &RunnerConfig,
        scope: &RngFactory,
        rep: u64,
        error: &Wavm3Error,
    ) -> Box<ScenarioFailure> {
        // Re-draw the poisoned repetition's fault plan for the report;
        // guarded, because a planner panic is one of the failure modes
        // being reported.
        let fault_plan = cfg.faults.filter(|f| f.is_enabled()).and_then(|faults| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                FaultPlan::generate(&faults, &scope.child(rep))
            }))
            .ok()
        });
        let message = match error {
            Wavm3Error::ScenarioPanicked { message, .. } => message.clone(),
            other => other.to_string(),
        };
        Box::new(ScenarioFailure {
            scenario: scenario.id(),
            base_seed: cfg.base_seed,
            rep,
            fault_plan,
            message,
        })
    }
}

fn scenario_rng(cfg: &RunnerConfig, id: &str) -> RngFactory {
    // Hash the scenario id into a child scope so adding scenarios never
    // perturbs the seeds of existing ones.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    RngFactory::new(cfg.base_seed).child(h)
}

/// Trace run key of one attempt: sorts by scenario, then repetition, then
/// attempt, giving the merged JSONL stream its deterministic order.
fn run_key(id: &str, rep: u64, attempt: u32) -> String {
    format!("{id}|rep{rep:03}|att{attempt}")
}

/// Everything a scenario's repetitions share, computed exactly once: the
/// id string, the RNG scope, and a prototype simulation that every
/// repetition re-runs with its own RNG root instead of rebuilding the
/// cluster, workloads and config from scratch.
struct ScenarioCtx<'a> {
    cfg: &'a RunnerConfig,
    id: String,
    scope: RngFactory,
    /// Fault config when injection is enabled (the retry protocol only
    /// engages on this path).
    faults: Option<FaultConfig>,
    prototype: MigrationSimulation,
}

impl<'a> ScenarioCtx<'a> {
    /// Build the prototype. A config the simulation rejects fails the
    /// scenario at rep 0, since every repetition would fail alike.
    fn new(scenario: &Scenario, cfg: &'a RunnerConfig) -> Result<Self, Box<ScenarioFailure>> {
        let id = scenario.id();
        let scope = scenario_rng(cfg, &id);
        let faults = cfg.faults.filter(|f| f.is_enabled());
        let mut config = match faults {
            Some(f) => MigrationConfig::with_faults(scenario.kind, f),
            None => MigrationConfig::new(scenario.kind),
        };
        config.path = cfg.path;
        // The stored RNG is a placeholder — `run_reusing` takes the real
        // per-repetition root as an argument.
        let prototype = scenario
            .try_build_with_config(scope.child(0), config)
            .map_err(|e| ScenarioFailure::capture(scenario, cfg, &scope, 0, &e))?;
        Ok(ScenarioCtx {
            cfg,
            id,
            scope,
            faults,
            prototype,
        })
    }

    /// One simulation run with the given RNG root, through the prototype
    /// and the worker's recycled [`RunSlot`].
    fn run_once(&self, rng: RngFactory) -> MigrationRecord {
        RUN_SLOT.with(|slot| self.prototype.run_reusing(rng, &mut slot.borrow_mut()))
    }
}

/// One repetition, with the runner's retry-on-abort protocol.
///
/// Attempt 0 draws from `scope.child(rep)` — with faults off this is the
/// exact pre-fault seeding, so a `faults: None` campaign is bit-identical
/// to one produced before the subsystem existed. Attempt `k > 0` draws from
/// `scope.child(rep).child(k)`, an independent stream of the same rep.
///
/// The returned record is the last attempt's, annotated with the retry
/// history: the fault events of failed attempts are carried forward (in
/// attempt order), their whole measured energy is charged to the final
/// record's `rollback_j` (energy spent and rolled back), and
/// `retry_backoff` accumulates the exponential backoff simulated between
/// attempts.
fn run_repetition(ctx: &ScenarioCtx, rep: u64) -> MigrationRecord {
    let _timer = wavm3_obs::perf::scope("runner.repetition");
    if ctx.faults.is_none() {
        return wavm3_obs::run_scope_with(
            || run_key(&ctx.id, rep, 0),
            || ctx.run_once(ctx.scope.child(rep)),
        );
    }
    let max_attempts = ctx.cfg.retry.max_attempts.max(1);
    let mut carried_events = Vec::new();
    let mut wasted_source_j = 0.0;
    let mut wasted_target_j = 0.0;
    let mut backoff = SimDuration::ZERO;
    let mut attempt = 0u32;
    loop {
        let rng = if attempt == 0 {
            ctx.scope.child(rep)
        } else {
            ctx.scope.child(rep).child(attempt as u64)
        };
        // The whole attempt (including the retry decision) runs inside its
        // run scope so every event lands in the attempt's own buffer —
        // worker threads never write the shared root buffer.
        let (done, mut record) = wavm3_obs::run_scope_with(
            || run_key(&ctx.id, rep, attempt),
            || {
                let mut record = ctx.run_once(rng);
                record.attempt = attempt;
                record.retry_backoff = backoff;
                if !carried_events.is_empty() {
                    carried_events.append(&mut record.fault_events);
                    record.fault_events = std::mem::take(&mut carried_events);
                }
                let done = !record.is_aborted() || attempt + 1 >= max_attempts;
                if !done {
                    wavm3_obs::metrics::counter_add("runner.retries", 1);
                    wavm3_obs::event!(
                        wavm3_obs::Level::Warn, "wavm3_experiments", "runner.retry",
                        record.phases.me,
                        "attempt" => attempt,
                        "next_backoff_s" => ctx.cfg.retry.backoff_before(attempt + 1).as_secs_f64(),
                    );
                }
                (done, record)
            },
        );
        if done {
            record.source_energy.rollback_j += wasted_source_j;
            record.target_energy.rollback_j += wasted_target_j;
            return record;
        }
        wasted_source_j += record.source_energy.total_j();
        wasted_target_j += record.target_energy.total_j();
        carried_events = record.fault_events;
        attempt += 1;
        backoff += ctx.cfg.retry.backoff_before(attempt);
    }
}

/// Run one scenario under the repetition policy (panics propagate; see
/// [`run_scenario_supervised`] for the isolated variant).
pub fn run_scenario(scenario: &Scenario, cfg: &RunnerConfig) -> Vec<MigrationRecord> {
    match run_scenario_supervised(scenario, cfg, &Budget::UNLIMITED) {
        Ok(result) => result.records,
        Err(failure) => panic!(
            "scenario '{}' rep {} panicked: {}",
            failure.scenario, failure.rep, failure.message
        ),
    }
}

/// Run one scenario under the repetition policy with crash supervision:
///
/// * every repetition runs under `catch_unwind`, so a poisoned scenario
///   comes back as a structured [`ScenarioFailure`] instead of tearing
///   down the rayon pool;
/// * `budget` caps the scenario's wall-clock and accumulated sim time —
///   on exhaustion the repetition policy is cut short at the current
///   count (at least one repetition always runs) and the result is
///   flagged `budget_truncated` rather than dropped.
///
/// With [`Budget::UNLIMITED`] and no panic, the records — and the trace
/// events, run-scope keys and metrics they emit — are bit-identical to
/// the unsupervised path.
pub fn run_scenario_supervised(
    scenario: &Scenario,
    cfg: &RunnerConfig,
    budget: &Budget,
) -> Result<ScenarioResult, Box<ScenarioFailure>> {
    let _timer = wavm3_obs::perf::scope("runner.scenario");
    let ctx = ScenarioCtx::new(scenario, cfg)?;
    let mut tracker = BudgetTracker::start(*budget);
    let mut truncated = false;

    // One isolated repetition: panics become taxonomy errors, completed
    // runs charge their simulated span (start to end of measurement) to
    // the budget.
    let supervised_rep =
        |rep: u64, tracker: &mut BudgetTracker| -> Result<MigrationRecord, Box<ScenarioFailure>> {
            match wavm3_harness::run_isolated_with(
                || format!("{}|rep{rep:03}", ctx.id),
                || run_repetition(&ctx, rep),
            ) {
                Ok(record) => {
                    tracker.charge_sim(record.phases.me.saturating_since(SimTime::ZERO));
                    Ok(record)
                }
                Err(e) => Err(ScenarioFailure::capture(scenario, cfg, &ctx.scope, rep, &e)),
            }
        };

    // A block of repetitions sharded over the rayon pool. Seeds are a
    // pure function of `(scenario, rep)`, metrics are commutative atomics
    // and trace/ledger shards merge in run-key order at session finish,
    // so the outcome is byte-identical to running the block serially.
    // Panic isolation is per shard; when shards fail, the lowest failing
    // repetition is reported — the same one the serial loop stops at.
    let sharded_reps =
        |reps: std::ops::Range<u64>| -> Result<Vec<MigrationRecord>, Box<ScenarioFailure>> {
            let outcomes: Vec<Result<MigrationRecord, Box<ScenarioFailure>>> = {
                let _shard = wavm3_obs::perf::scope("runner.shard");
                let reps: Vec<u64> = reps.collect();
                reps.par_iter()
                    .map(|&rep| {
                        wavm3_harness::run_isolated_with(
                            || format!("{}|rep{rep:03}", ctx.id),
                            || run_repetition(&ctx, rep),
                        )
                        .map_err(|e| ScenarioFailure::capture(scenario, cfg, &ctx.scope, rep, &e))
                    })
                    .collect()
            };
            let _merge = wavm3_obs::perf::scope("runner.merge");
            let mut records = Vec::with_capacity(outcomes.len());
            for outcome in outcomes {
                records.push(outcome?);
            }
            Ok(records)
        };

    let records = match cfg.repetitions {
        // An armed budget serialises the repetitions: `exhausted()` must
        // observe every completed rep's sim-time charge before the next
        // rep starts for truncation to stay deterministic.
        RepetitionPolicy::Fixed(n) if budget.is_unlimited() => sharded_reps(0..n.max(1) as u64)?,
        RepetitionPolicy::Fixed(n) => {
            let mut records = Vec::new();
            for rep in 0..n.max(1) as u64 {
                if rep > 0 && tracker.exhausted().is_some() {
                    truncated = true;
                    break;
                }
                records.push(supervised_rep(rep, &mut tracker)?);
            }
            records
        }
        RepetitionPolicy::VarianceRule {
            min,
            max,
            threshold,
        } => {
            let min_reps = min.max(2);
            let max_reps = max.max(min_reps);
            // The stopper cannot be satisfied before `min_reps` runs, so
            // an unlimited-budget scenario shards that prefix and feeds
            // the stopper afterwards, in repetition order — its state
            // (and the progress events) are a pure function of the
            // records in order, not of when they were computed.
            let prefix = if budget.is_unlimited() {
                sharded_reps(0..min_reps as u64)?
            } else {
                Vec::new()
            };
            // Progress events collect under their own run key ("z-" sorts
            // after every "repNNN" buffer of the same scenario).
            wavm3_obs::run_scope_with(
                || format!("{}|z-progress", ctx.id),
                || {
                    let mut stopper = VarianceStopper::new(min_reps, max_reps, threshold);
                    let mut records = Vec::new();
                    let progress =
                        |record: &MigrationRecord, rep: u64, stopper: &mut VarianceStopper| {
                            stopper.push(record.source_energy.total_j());
                            wavm3_obs::event!(
                                wavm3_obs::Level::Debug, "wavm3_experiments", "runner.variance_progress",
                                record.phases.me,
                                "rep" => rep,
                                "runs" => stopper.runs() as u64,
                                "source_energy_j" => record.source_energy.total_j(),
                                "relative_change" => stopper.relative_change().unwrap_or(f64::NAN),
                                "satisfied" => stopper.is_satisfied(),
                            );
                        };
                    for record in prefix {
                        progress(&record, records.len() as u64, &mut stopper);
                        records.push(record);
                    }
                    let mut rep = records.len() as u64;
                    while !stopper.is_satisfied() {
                        if rep > 0 && tracker.exhausted().is_some() {
                            truncated = true;
                            break;
                        }
                        let record = supervised_rep(rep, &mut tracker)?;
                        progress(&record, rep, &mut stopper);
                        records.push(record);
                        rep += 1;
                    }
                    Ok::<_, Box<ScenarioFailure>>(records)
                },
            )?
        }
    };
    wavm3_obs::metrics::counter_add("runner.repetitions", records.len() as u64);
    if truncated {
        wavm3_obs::metrics::counter_add("runner.budget_truncated", 1);
    }
    Ok(ScenarioResult {
        records,
        budget_truncated: truncated,
    })
}

/// Name of the wall-clock campaign-throughput gauge, labelled with the
/// path the campaign actually executed: `--path analytic` campaigns that
/// fall back to the sampled engine (a trace sink needs per-sample rows)
/// report under the sampled name, so the figure always describes the
/// engine that produced it.
pub fn throughput_gauge(cfg: &RunnerConfig) -> &'static str {
    match cfg.path.effective() {
        SimulationPath::Analytic => "runner.throughput_runs_per_s.analytic",
        SimulationPath::Sampled => "runner.throughput_runs_per_s.sampled",
    }
}

/// Run many scenarios in parallel; output order matches input order.
pub fn run_all(scenarios: &[Scenario], cfg: &RunnerConfig) -> Vec<Vec<MigrationRecord>> {
    let _timer = wavm3_obs::perf::scope("runner.campaign");
    let started = std::time::Instant::now();
    let results: Vec<Vec<MigrationRecord>> =
        scenarios.par_iter().map(|s| run_scenario(s, cfg)).collect();
    // Wall-clock campaign throughput: explicitly non-reproducible, which
    // is why it lives in a gauge and never in the trace.
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > 0.0 {
        let runs: usize = results.iter().map(Vec::len).sum();
        wavm3_obs::metrics::gauge_set(throughput_gauge(cfg), runs as f64 / elapsed);
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ExperimentFamily, Scenario};
    use wavm3_cluster::MachineSet;
    use wavm3_migration::MigrationKind;

    fn cheap_scenario() -> Scenario {
        Scenario {
            family: ExperimentFamily::CpuloadSource,
            kind: MigrationKind::NonLive,
            machine_set: MachineSet::M,
            source_load_vms: 0,
            target_load_vms: 0,
            migrant_mem_ratio: None,
            label: "0 VM".into(),
        }
    }

    #[test]
    fn fixed_policy_runs_exact_count() {
        let cfg = RunnerConfig {
            repetitions: RepetitionPolicy::Fixed(3),
            base_seed: 1,
            ..Default::default()
        };
        let records = run_scenario(&cheap_scenario(), &cfg);
        assert_eq!(records.len(), 3);
        // Repetitions differ (noise seeds differ)…
        assert_ne!(records[0].source_trace, records[1].source_trace);
        // …but re-running the whole scenario reproduces everything.
        let again = run_scenario(&cheap_scenario(), &cfg);
        assert_eq!(records[0].source_trace, again[0].source_trace);
        assert_eq!(records[2].total_bytes, again[2].total_bytes);
    }

    #[test]
    fn variance_rule_reaches_min_runs() {
        let cfg = RunnerConfig {
            repetitions: RepetitionPolicy::VarianceRule {
                min: 4,
                max: 8,
                threshold: 0.5,
            },
            base_seed: 2,
            ..Default::default()
        };
        let records = run_scenario(&cheap_scenario(), &cfg);
        assert!(
            records.len() >= 4 && records.len() <= 8,
            "{}",
            records.len()
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let scenarios = vec![cheap_scenario(), {
            let mut s = cheap_scenario();
            s.kind = MigrationKind::Live;
            s.label = "0 VM live".into();
            s
        }];
        let cfg = RunnerConfig {
            repetitions: RepetitionPolicy::Fixed(2),
            base_seed: 3,
            ..Default::default()
        };
        let par = run_all(&scenarios, &cfg);
        let seq: Vec<Vec<MigrationRecord>> =
            scenarios.iter().map(|s| run_scenario(s, &cfg)).collect();
        assert_eq!(par, seq, "rayon fan-out must not change results");
    }

    #[test]
    fn aborted_runs_retry_and_carry_their_history() {
        use wavm3_faults::{AbortFault, LinkFaultConfig};
        use wavm3_simkit::SimTime;

        let mut scenario = cheap_scenario();
        scenario.kind = MigrationKind::Live;
        scenario.label = "0 VM live".into();
        // Link degradation on every run plus a likely (but not certain)
        // abort: most repetitions fail at least once and then complete on a
        // retry drawn from an independent stream.
        let faults = FaultConfig {
            link: LinkFaultConfig {
                mean_windows: 2.0,
                ..LinkFaultConfig::default()
            },
            abort: AbortFault {
                probability: 0.7,
                earliest: SimTime::from_secs(16),
                latest: SimTime::from_secs(45),
            },
            ..FaultConfig::default()
        };
        let cfg = RunnerConfig {
            repetitions: RepetitionPolicy::Fixed(6),
            base_seed: 9,
            faults: Some(faults),
            ..Default::default()
        };
        let records = run_scenario(&scenario, &cfg);
        assert_eq!(records.len(), 6);
        let retried = records
            .iter()
            .find(|r| r.attempt > 0 && !r.is_aborted())
            .expect("some repetition should complete via retry");
        // The final record carries the failed attempts' events and charges
        // their whole spent energy as rollback.
        assert!(retried
            .fault_events
            .iter()
            .any(|e| matches!(e, wavm3_faults::FaultEvent::Aborted { .. })));
        assert!(retried.rollback_energy_j() > 0.0);
        assert!(retried.retry_backoff > SimDuration::ZERO);
        assert!(records.iter().all(|r| r.attempt < cfg.retry.max_attempts));
        // The retry protocol is as reproducible as everything else.
        let again = run_scenario(&scenario, &cfg);
        assert_eq!(records, again);
    }

    #[test]
    fn a_config_the_simulation_rejects_fails_the_scenario_at_rep_zero() {
        use wavm3_faults::LinkFaultConfig;
        use wavm3_obs::{ObsConfig, Session};
        use wavm3_simkit::SimTime;

        let mut scenario = cheap_scenario();
        scenario.kind = MigrationKind::Live;
        // A certain 4,000 s total link outage at 13 s: the image cannot
        // cross before the horizon, which `try_new` rejects.
        let faults = FaultConfig {
            link: LinkFaultConfig {
                mean_windows: 1.0,
                max_windows: 1,
                min_duration: SimDuration::from_secs(4_000),
                max_duration: SimDuration::from_secs(4_000),
                min_factor: 0.0,
                max_factor: 0.0,
                earliest: SimTime::from_secs(13),
                latest: SimTime::from_secs(13),
            },
            ..FaultConfig::default()
        };
        let cfg = RunnerConfig {
            repetitions: RepetitionPolicy::Fixed(3),
            faults: Some(faults),
            ..Default::default()
        };
        let session = Session::install(ObsConfig {
            metrics: true,
            ..ObsConfig::default()
        });
        let failure = run_scenario_supervised(&scenario, &cfg, &Budget::UNLIMITED)
            .expect_err("the scenario cannot be built");
        let report = session.finish();
        assert_eq!(failure.rep, 0);
        assert!(
            failure.message.starts_with("invalid config: faults.link"),
            "{}",
            failure.message
        );
        // Built once and rejected, not built and panicking per repetition.
        assert!(
            !report
                .metrics
                .counters
                .contains_key("harness.panics_isolated"),
            "{:?}",
            report.metrics.counters
        );
    }

    #[test]
    fn faults_off_reproduces_the_pre_fault_campaign_exactly() {
        // `faults: None` and `faults: Some(disabled)` must both take the
        // plain path: same seeds, same records.
        let base = RunnerConfig {
            repetitions: RepetitionPolicy::Fixed(2),
            base_seed: 5,
            ..Default::default()
        };
        let with_disabled = RunnerConfig {
            faults: Some(FaultConfig::default()),
            ..base
        };
        assert_eq!(
            run_scenario(&cheap_scenario(), &base),
            run_scenario(&cheap_scenario(), &with_disabled)
        );
    }

    #[test]
    fn zero_sim_budget_truncates_to_one_rep() {
        let cfg = RunnerConfig {
            repetitions: RepetitionPolicy::Fixed(5),
            base_seed: 11,
            ..Default::default()
        };
        let budget = Budget {
            wall: None,
            sim: Some(wavm3_simkit::SimDuration::ZERO),
        };
        let result = run_scenario_supervised(&cheap_scenario(), &cfg, &budget).unwrap();
        assert!(result.budget_truncated, "zero budget must truncate");
        assert_eq!(result.records.len(), 1, "at least one repetition runs");
        // The surviving repetition is bit-identical to the full run's rep 0.
        let full = run_scenario(&cheap_scenario(), &cfg);
        assert_eq!(result.records[0], full[0]);
    }

    #[test]
    fn unlimited_budget_matches_the_unsupervised_path() {
        let cfg = RunnerConfig {
            repetitions: RepetitionPolicy::VarianceRule {
                min: 3,
                max: 6,
                threshold: 0.5,
            },
            base_seed: 12,
            ..Default::default()
        };
        let supervised =
            run_scenario_supervised(&cheap_scenario(), &cfg, &Budget::UNLIMITED).unwrap();
        assert!(!supervised.budget_truncated);
        assert_eq!(supervised.records, run_scenario(&cheap_scenario(), &cfg));
    }

    #[test]
    fn a_panicking_scenario_becomes_a_structured_failure() {
        use wavm3_faults::LinkFaultConfig;
        // Enabled but invalid: `mean_windows > max_windows` passes the
        // planner's `is_enabled` gate and trips its validation panic.
        let poisoned = FaultConfig {
            link: LinkFaultConfig {
                mean_windows: 5.0,
                max_windows: 4,
                ..LinkFaultConfig::default()
            },
            ..FaultConfig::default()
        };
        let cfg = RunnerConfig {
            repetitions: RepetitionPolicy::Fixed(2),
            base_seed: 13,
            faults: Some(poisoned),
            ..Default::default()
        };
        let failure = run_scenario_supervised(&cheap_scenario(), &cfg, &Budget::UNLIMITED)
            .expect_err("planner panic must be captured");
        assert_eq!(failure.scenario, cheap_scenario().id());
        assert_eq!(failure.base_seed, 13);
        assert_eq!(failure.rep, 0);
        assert!(
            failure.message.contains("mean_windows"),
            "{}",
            failure.message
        );
        // The config is also rejected up-front by validation.
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn runner_config_validation_rejects_inverted_policies() {
        let mut cfg = RunnerConfig::default();
        assert!(cfg.validate().is_ok(), "defaults validate");
        cfg.repetitions = RepetitionPolicy::Fixed(0);
        assert!(cfg.validate().is_err());
        cfg.repetitions = RepetitionPolicy::VarianceRule {
            min: 10,
            max: 5,
            threshold: 0.1,
        };
        assert!(cfg.validate().is_err());
        cfg.repetitions = RepetitionPolicy::VarianceRule {
            min: 2,
            max: 5,
            threshold: f64::NAN,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn seeds_differ_between_scenarios() {
        let a = cheap_scenario();
        let mut b = cheap_scenario();
        b.source_load_vms = 1;
        b.label = "1 VM".into();
        let cfg = RunnerConfig {
            repetitions: RepetitionPolicy::Fixed(1),
            base_seed: 4,
            ..Default::default()
        };
        let ra = run_scenario(&a, &cfg);
        let rb = run_scenario(&b, &cfg);
        assert_ne!(ra[0].source_trace, rb[0].source_trace);
    }
}
