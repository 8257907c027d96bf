//! The batch workloads: Table IIa campaigns and the reproduction
//! pipeline, driven through `wavm3_experiments::Campaign::collect` one
//! scenario at a time on a one-thread rayon pool.
//!
//! Table IIa splits into scenarios with at least one matmul VM, whose
//! demand ripples and so forces the per-tick ripple prelude on every
//! tick (`campaign-ripple`), and scenarios where every VM's demand is
//! constant, whose hosts hit the fast tick-cache tier (`campaign-constant`).
//! Together the two are exactly Table IIa; `reproduce-sampled` runs all of
//! it on the sampled reference engine, which model training needs.

use crate::digest::{self, Digest};
use crate::spans::Tracer;
use crate::summary::Summary;
use crate::{peak_rss_mb, Run, Settings};
use std::time::Instant;
use wavm3_cluster::MachineSet;
use wavm3_experiments::tables::{self, RUN_SPLIT_SEED, RUN_TRAIN_FRACTION};
use wavm3_experiments::{
    Campaign, ExperimentDataset, RepetitionPolicy, RunnerConfig, Scenario, SupervisorOptions,
};
use wavm3_migration::{MigrationConfig, MigrationRecord, RunSlot, SimulationPath};
use wavm3_models::Wavm3Model;
use wavm3_simkit::RngFactory;

/// Set-ups per untraced run, half before and half after the measurement;
/// `setup_s` is their median.
const SETUP_CYCLES: usize = 10;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// `campaign-ripple`.
    Ripple,
    /// `campaign-constant`.
    Constant,
    /// `reproduce-sampled`.
    Reproduce,
}

impl Batch {
    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Batch::Ripple => "campaign-ripple",
            Batch::Constant => "campaign-constant",
            Batch::Reproduce => "reproduce-sampled",
        }
    }

    /// The workload's scenarios over both machine sets, in campaign order.
    fn scenarios(self) -> Vec<Scenario> {
        [MachineSet::M, MachineSet::O]
            .into_iter()
            .flat_map(Scenario::full_campaign)
            .filter(|s| match self {
                Batch::Ripple => has_ripple(s),
                Batch::Constant => !has_ripple(s),
                Batch::Reproduce => true,
            })
            .collect()
    }

    fn path(self) -> SimulationPath {
        match self {
            Batch::Reproduce => SimulationPath::Sampled,
            Batch::Ripple | Batch::Constant => SimulationPath::Analytic,
        }
    }

    /// Repetitions per scenario in a measured pass. The fixed counts give
    /// both campaign workloads roughly a second per pass.
    fn policy(self, settings: &Settings) -> RepetitionPolicy {
        match self {
            Batch::Ripple => RepetitionPolicy::Fixed(settings.scaled(300, 1)),
            Batch::Constant => RepetitionPolicy::Fixed(settings.scaled(1500, 1)),
            // At scale 1 this is exactly `RepetitionPolicy::paper()`.
            Batch::Reproduce => RepetitionPolicy::VarianceRule {
                min: settings.scaled(10, 2),
                max: settings.scaled(15, 3),
                threshold: 0.10,
            },
        }
    }

    /// Repetitions per scenario in the set-up's warm-up pass: a twentieth
    /// of a measured pass, or one sampled run per scenario.
    fn warmup_policy(self, settings: &Settings) -> RepetitionPolicy {
        match self.policy(settings) {
            RepetitionPolicy::Fixed(n) => RepetitionPolicy::Fixed((n / 20).max(1)),
            RepetitionPolicy::VarianceRule { .. } => RepetitionPolicy::Fixed(1),
        }
    }

    fn runner(self, repetitions: RepetitionPolicy, seed: u64) -> RunnerConfig {
        RunnerConfig {
            repetitions,
            base_seed: seed,
            path: self.path(),
            ..RunnerConfig::default()
        }
    }
}

/// `true` when a scenario runs at least one matmul VM, whose demand
/// ripples: a matmul migrant, or any load VM.
fn has_ripple(s: &Scenario) -> bool {
    s.migrant_mem_ratio.is_none() || s.source_load_vms + s.target_load_vms > 0
}

/// One measured pass.
struct Pass {
    wall_s: f64,
    scenario_ms: Vec<f64>,
    dataset: ExperimentDataset,
    /// Fitted WAVM3 models (reproduce only).
    models: Option<(Wavm3Model, Wavm3Model)>,
    train_s: f64,
    score_s: f64,
    problems: Vec<String>,
}

impl Pass {
    fn runs(&self) -> usize {
        self.dataset.record_count()
    }

    fn digest(&self) -> Digest {
        let d = Digest::of(self.dataset.all_records());
        match &self.models {
            Some((live, non_live)) => d.with_models(live, non_live),
            None => d,
        }
    }
}

/// Open a span when a tracer is given.
fn open(
    tracer: &mut Option<&mut Tracer>,
    name: &str,
    parent: Option<usize>,
    group: u64,
) -> Option<usize> {
    tracer.as_deref_mut().map(|t| t.open(name, parent, group))
}

/// Close a span opened by [`open`].
fn close(tracer: &mut Option<&mut Tracer>, span: Option<usize>) {
    if let (Some(t), Some(span)) = (tracer.as_deref_mut(), span) {
        t.close(span);
    }
}

/// Run every scenario through `campaign`, timing each `collect`; for the
/// reproduction, then train and score. Spans go to `tracer` when given.
fn pass(
    batch: Batch,
    campaign: &Campaign,
    scenarios: &[Scenario],
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let started = Instant::now();
    let root = open(&mut tracer, "pass", None, 0);
    let mut scenario_ms = Vec::with_capacity(scenarios.len());
    let mut runs = Vec::with_capacity(scenarios.len());
    for (i, scenario) in scenarios.iter().enumerate() {
        let span = open(&mut tracer, "collect", root, i as u64);
        let t = Instant::now();
        let dataset = campaign.collect(vec![scenario.clone()]);
        scenario_ms.push(t.elapsed().as_secs_f64() * 1e3);
        close(&mut tracer, span);
        runs.extend(dataset.runs);
    }
    let mut pass = Pass {
        wall_s: 0.0,
        scenario_ms,
        dataset: ExperimentDataset { runs },
        models: None,
        train_s: 0.0,
        score_s: 0.0,
        problems: Vec::new(),
    };
    if batch == Batch::Reproduce {
        reproduce_tables(&mut pass, &mut tracer, root);
    }
    pass.wall_s = started.elapsed().as_secs_f64();
    close(&mut tracer, root);
    pass
}

/// Train every model on the m01-m02 training split and score Tables V
/// and VII, as `reproduce_all` does after its campaigns.
fn reproduce_tables(pass: &mut Pass, tracer: &mut Option<&mut Tracer>, root: Option<usize>) {
    let runs = std::mem::take(&mut pass.dataset.runs);
    let (m, o): (Vec<_>, Vec<_>) = runs
        .into_iter()
        .partition(|r| r.scenario.machine_set == MachineSet::M);
    let (m, o) = (ExperimentDataset { runs: m }, ExperimentDataset { runs: o });

    let span = open(tracer, "train", root, 0);
    let t = Instant::now();
    let (train, _) = m.split_runs(RUN_TRAIN_FRACTION, RUN_SPLIT_SEED);
    let bundle = tables::train_all(&train);
    pass.train_s = t.elapsed().as_secs_f64();
    close(tracer, span);

    let span = open(tracer, "score", root, 0);
    let t = Instant::now();
    let scored = tables::table5(&m, &o).is_some() && tables::table7(&m).is_some();
    pass.score_s = t.elapsed().as_secs_f64();
    close(tracer, span);

    match bundle {
        Some(b) => pass.models = Some((b.wavm3_live, b.wavm3_non_live)),
        None => pass.problems.push("model training failed".into()),
    }
    if !scored {
        pass.problems.push("Table V/VII scoring failed".into());
    }
    pass.dataset.runs = m.runs.into_iter().chain(o.runs).collect();
}

/// Checks every pass against the first pass and the committed digest.
struct Oracle {
    committed: Option<Digest>,
    first: Option<Digest>,
}

impl Oracle {
    /// Digests are committed for the benchmark as defined; a scaled run
    /// can only check its passes against each other.
    fn new(workload: &str, settings: &Settings) -> Oracle {
        Oracle {
            committed: (settings.scale == 1.0)
                .then(|| digest::committed(workload, settings.seed))
                .flatten(),
            first: None,
        }
    }

    /// Check one pass; returns the number of failed operations it adds.
    fn check(&mut self, run: &mut Run, pass: &Pass) -> u64 {
        let mut failed = 0;
        for p in &pass.problems {
            run.problem(p.clone());
            failed += 1;
        }
        let got = pass.digest();
        let first = self.first.get_or_insert_with(|| got.clone());
        let mut wrong = first.mismatches(&got);
        if let Some(committed) = &self.committed {
            wrong.extend(
                committed
                    .mismatches(&got)
                    .into_iter()
                    .map(|m| format!("vs committed: {m}")),
            );
        }
        if !wrong.is_empty() {
            failed += 1;
            for m in wrong {
                run.problem(format!("digest mismatch: {m}"));
            }
        }
        failed
    }

    fn describe(&self) -> &'static str {
        if self.committed.is_some() {
            "every pass matches the committed digest and each other"
        } else {
            "every pass matches each other (no digest committed for this seed)"
        }
    }
}

fn pinned<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?
        .install(f)
}

/// Run a batch workload on a one-thread rayon pool.
pub fn run(batch: Batch, settings: &Settings) -> Result<Run, String> {
    pinned(|| run_pinned(batch, settings))
}

/// The digest of one pass of the workload as defined, for `digests.json`.
pub fn digest(batch: Batch, seed: u64) -> Result<Digest, String> {
    let settings = Settings {
        seed,
        seconds: 0.0,
        trace: false,
        scale: 1.0,
    };
    pinned(|| {
        let runner = batch.runner(batch.policy(&settings), seed);
        let campaign =
            Campaign::new(runner, SupervisorOptions::default()).map_err(|e| e.to_string())?;
        let p = pass(batch, &campaign, &batch.scenarios(), None);
        match p.problems.first() {
            Some(problem) => Err(problem.clone()),
            None if campaign.has_failures() => Err("a scenario failed".into()),
            None => Ok(p.digest()),
        }
    })
}

fn run_pinned(batch: Batch, settings: &Settings) -> Result<Run, String> {
    let mut run = Run::new(batch.name());
    let runner = batch.runner(batch.policy(settings), settings.seed);
    let warmup = batch.runner(batch.warmup_policy(settings), settings.seed);

    // One set-up: the scenario list, the campaign, and a warm-up pass;
    // also whether any warm-up scenario failed.
    type Ready = (Vec<Scenario>, Campaign, bool);
    let set_up = || -> Result<(Ready, f64), String> {
        let t = Instant::now();
        let scenarios = batch.scenarios();
        let campaign =
            Campaign::new(runner, SupervisorOptions::default()).map_err(|e| e.to_string())?;
        let warm =
            Campaign::new(warmup, SupervisorOptions::default()).map_err(|e| e.to_string())?;
        warm.collect(scenarios.clone());
        let seconds = t.elapsed().as_secs_f64();
        Ok(((scenarios, campaign, warm.has_failures()), seconds))
    };
    // Half the set-ups run before the measurement and half after it, so
    // one slow spell of the machine cannot own the median.
    let before = if settings.trace { 1 } else { SETUP_CYCLES / 2 };
    let mut setup_s = Vec::with_capacity(SETUP_CYCLES);
    let mut warm_failed = false;
    let mut ready = None;
    for _ in 0..before {
        let ((scenarios, campaign, failed), seconds) = set_up()?;
        setup_s.push(seconds);
        warm_failed |= failed;
        ready = Some((scenarios, campaign));
    }
    let (scenarios, campaign) = ready.expect("at least one set-up");

    let mut oracle = Oracle::new(batch.name(), settings);
    let measure_s = if settings.trace {
        settings.measure_s() / 2.0
    } else {
        settings.measure_s()
    };
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut fastest = Fastest::new(scenarios.len());
    let mut runs = 0;
    while walls.is_empty() || started.elapsed().as_secs_f64() < measure_s {
        let p = pass(batch, &campaign, &scenarios, None);
        run.attempted += scenarios.len() as u64;
        run.failed += oracle.check(&mut run, &p);
        runs = p.runs();
        walls.push(p.wall_s);
        fastest.add(&p);
    }
    if !settings.trace {
        for _ in before..SETUP_CYCLES {
            let ((_, _, failed), seconds) = set_up()?;
            setup_s.push(seconds);
            warm_failed |= failed;
        }
    }
    if warm_failed {
        run.problem("warm-up pass had failed scenarios".into());
    }

    if settings.trace {
        traced(
            batch,
            settings,
            &mut run,
            &campaign,
            &scenarios,
            &mut oracle,
            &fastest,
        );
    } else {
        let pass_ms = fastest.pass_ms();
        let (slowest, slowest_ms) = fastest
            .sweeps_ms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, ms)| (scenarios[i].id(), *ms))
            .expect("at least one scenario");
        let setup = Summary::new(setup_s);
        run.metric("throughput_per_s", runs as f64 / pass_ms * 1e3);
        run.metric("latency_ms", pass_ms);
        run.metric("tail_latency_ms", slowest_ms);
        run.metric("setup_s", setup.median().expect("at least one set-up"));
        run.metric("peak_rss_mb", peak_rss_mb()?);
        run.line(format!(
            "{} passes of {} scenarios, {runs} runs each",
            walls.len(),
            scenarios.len()
        ));
        run.line(format!(
            "measured pass wall: {}",
            Summary::new(walls).render("s")
        ));
        run.line(format!(
            "pass from each scenario's fastest sweep: {pass_ms:.3} ms (models {:.3} ms)",
            fastest.train_ms + fastest.score_ms
        ));
        run.line(format!("slowest scenario: {slowest} at {slowest_ms:.3} ms"));
        run.line(format!("setup: {}", setup.render("s")));
    }
    let failed_scenarios = campaign.report().stats.failed as u64;
    if failed_scenarios > 0 {
        run.failed += failed_scenarios;
        run.problem(format!("{failed_scenarios} scenario(s) failed"));
    }
    run.line(format!("outputs: {}", oracle.describe()));
    Ok(run)
}

/// The fastest time seen for each scenario's sweep (its `collect` call),
/// and for training and scoring, over a run's passes.
///
/// Load from other tenants of the machine only ever slows a sweep down,
/// and it comes in phases of seconds to minutes that a median over passes
/// does not survive. Each scenario's fastest sweep of the run is its cost
/// with that interference removed; a pass costs the sum of them.
struct Fastest {
    sweeps_ms: Vec<f64>,
    train_ms: f64,
    score_ms: f64,
}

impl Fastest {
    fn new(scenarios: usize) -> Fastest {
        Fastest {
            sweeps_ms: vec![f64::INFINITY; scenarios],
            train_ms: f64::INFINITY,
            score_ms: f64::INFINITY,
        }
    }

    fn add(&mut self, p: &Pass) {
        for (best, ms) in self.sweeps_ms.iter_mut().zip(&p.scenario_ms) {
            *best = best.min(*ms);
        }
        self.train_ms = self.train_ms.min(p.train_s * 1e3);
        self.score_ms = self.score_ms.min(p.score_s * 1e3);
    }

    fn pass_ms(&self) -> f64 {
        self.sweeps_ms.iter().sum::<f64>() + self.train_ms + self.score_ms
    }
}

/// Traced passes, each followed by a replay of its runs layer by layer,
/// for the second half of the run. Every layer keeps its fastest time,
/// as the untraced estimate does.
fn traced(
    batch: Batch,
    settings: &Settings,
    run: &mut Run,
    campaign: &Campaign,
    scenarios: &[Scenario],
    oracle: &mut Oracle,
    untraced: &Fastest,
) {
    let mut tracer = Tracer::new(Instant::now());
    let mut traced = Fastest::new(scenarios.len());
    let mut build_ms = vec![f64::INFINITY; scenarios.len()];
    let mut engine_ms = vec![f64::INFINITY; scenarios.len()];
    let mut replay = None;
    let mut runs = 0;
    let started = Instant::now();
    while replay.is_none() || started.elapsed().as_secs_f64() < settings.measure_s() / 2.0 {
        let p = pass(batch, campaign, scenarios, Some(&mut tracer));
        run.attempted += scenarios.len() as u64;
        run.failed += oracle.check(run, &p);
        traced.add(&p);
        runs = p.runs();
        let layers = reexecute(batch, &p.dataset, settings.seed, &mut tracer);
        let wrong = Digest::of(p.dataset.all_records()).mismatches(&layers.digest);
        if !wrong.is_empty() {
            run.failed += 1;
            for m in wrong {
                run.problem(format!("layer replay differs from the campaign: {m}"));
            }
        }
        for (best, ms) in build_ms.iter_mut().zip(&layers.build_ms) {
            *best = best.min(*ms);
        }
        for (best, ms) in engine_ms.iter_mut().zip(&layers.engine_ms) {
            *best = best.min(*ms);
        }
        replay = Some(layers);
    }
    let layers = replay.expect("at least one traced pass");

    let runs = runs as f64;
    let (build, engine) = (build_ms.iter().sum::<f64>(), engine_ms.iter().sum::<f64>());
    let models = traced.train_ms + traced.score_ms;
    let pass_ms = traced.pass_ms();
    let per_run_us = |ms: f64| ms / runs * 1e3;
    let runner_overhead = traced.sweeps_ms.iter().sum::<f64>() - build - engine;
    run.metric("engine_us_per_op", per_run_us(engine));
    run.metric("support_us_per_op", per_run_us(build + models));
    run.metric("overhead_us_per_op", per_run_us(runner_overhead));
    run.metric("engine_ns_per_step", engine / layers.steps as f64 * 1e6);
    run.metric("steps_per_op", layers.steps as f64 / runs);
    run.metric("rounds_per_op", layers.rounds as f64 / runs);
    let untraced_ms = untraced.pass_ms();
    run.metric(
        "trace_overhead_pct",
        (pass_ms - untraced_ms) / untraced_ms * 100.0,
    );

    let (engine_name, step) = match batch.path() {
        SimulationPath::Analytic => ("analytic", "tick"),
        SimulationPath::Sampled => ("sampled", "sample"),
    };
    run.layer(
        "experiments.scenario.build_us",
        build / layers.builds as f64 * 1e3,
    );
    run.layer(
        &format!("migration.{engine_name}.us_per_run"),
        per_run_us(engine),
    );
    run.layer(
        &format!("migration.{engine_name}.ns_per_{step}"),
        engine / layers.steps as f64 * 1e6,
    );
    run.layer(
        &format!("migration.{step}s_per_run"),
        layers.steps as f64 / runs,
    );
    run.layer("migration.rounds_per_run", layers.rounds as f64 / runs);
    run.layer(
        "experiments.runner.overhead_us_per_run",
        per_run_us(runner_overhead),
    );
    if batch == Batch::Reproduce {
        run.layer("models.train_ms", traced.train_ms);
        run.layer("models.score_ms", traced.score_ms);
    }
    run.layer("pass.runs", runs);
    run.layer("pass.fastest_ms", pass_ms);
    run.layer("pass.untraced_fastest_ms", untraced_ms);
    run.line(format!(
        "traced pass from fastest sweeps: {pass_ms:.3} ms for {runs} runs = build {build:.3} + engine {engine:.3} + models {models:.3} + runner {runner_overhead:.3} ms"
    ));
    run.tracer = Some(tracer);
}

/// What re-executing a pass layer by layer measured.
struct Layers {
    /// Digest of the replayed records, to compare with the campaign's.
    digest: Digest,
    builds: u64,
    /// Build time per scenario, milliseconds.
    build_ms: Vec<f64>,
    /// Engine time per scenario, milliseconds.
    engine_ms: Vec<f64>,
    steps: u64,
    rounds: u64,
}

/// The runner's per-scenario RNG scope: `base.child(fnv1a(scenario id))`.
/// Repetition `rep` runs on `scope.child(rep)`, so the replay below draws
/// exactly the random numbers the campaign drew.
fn scenario_scope(seed: u64, id: &str) -> RngFactory {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    RngFactory::new(seed).child(h)
}

/// Replay every run of `dataset` through the migration crate's public
/// entry points, timing scenario builds and engine runs separately — the
/// same calls the runner makes: on the analytic path one prototype per
/// scenario re-run through a reused [`RunSlot`], on the sampled path one
/// build and `run()` per repetition.
fn reexecute(batch: Batch, dataset: &ExperimentDataset, seed: u64, tracer: &mut Tracer) -> Layers {
    let mut layers = Layers {
        digest: Digest::empty(),
        builds: 0,
        build_ms: vec![0.0; dataset.runs.len()],
        engine_ms: vec![0.0; dataset.runs.len()],
        steps: 0,
        rounds: 0,
    };
    let root = Some(tracer.open("layers", None, 0));
    let mut slot = RunSlot::default();
    for (i, runs) in dataset.runs.iter().enumerate() {
        let scenario = &runs.scenario;
        let scope = scenario_scope(seed, &scenario.id());
        let mut config = MigrationConfig::new(scenario.kind);
        config.path = batch.path();
        let reps = runs.records.len() as u64;
        let group = i as u64;
        let tick_us = config.timing.tick.as_micros();
        let tally = |layers: &mut Layers, r: &MigrationRecord| {
            layers.digest.add(r);
            layers.steps += match batch.path() {
                SimulationPath::Analytic => (r.phases.me - r.phases.ms).as_micros() / tick_us,
                SimulationPath::Sampled => r.samples.len() as u64,
            };
            layers.rounds += r.precopy_rounds() as u64;
        };
        match batch.path() {
            SimulationPath::Analytic => {
                let t = Instant::now();
                let sim = tracer.time("build", root, group, || {
                    scenario.build_with_config(scope.child(0), config)
                });
                layers.build_ms[i] += t.elapsed().as_secs_f64() * 1e3;
                layers.builds += 1;
                let t = Instant::now();
                let records: Vec<MigrationRecord> = tracer.time("engine", root, group, || {
                    (0..reps)
                        .map(|rep| sim.run_analytic_reusing(scope.child(rep), &mut slot))
                        .collect()
                });
                layers.engine_ms[i] += t.elapsed().as_secs_f64() * 1e3;
                for r in &records {
                    tally(&mut layers, r);
                }
            }
            SimulationPath::Sampled => {
                for rep in 0..reps {
                    let t = Instant::now();
                    let sim = tracer.time("build", root, group, || {
                        scenario.build_with_config(scope.child(rep), config)
                    });
                    layers.build_ms[i] += t.elapsed().as_secs_f64() * 1e3;
                    layers.builds += 1;
                    let t = Instant::now();
                    let record = tracer.time("engine", root, group, || sim.run());
                    layers.engine_ms[i] += t.elapsed().as_secs_f64() * 1e3;
                    tally(&mut layers, &record);
                }
            }
        }
    }
    if let Some(root) = root {
        tracer.close(root);
    }
    layers
}
