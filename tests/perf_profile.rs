//! Profiler concurrency and determinism: the hierarchical self-profiler
//! must count the same work no matter how many rayon threads execute it,
//! must not perturb the deterministic trace/metrics outputs in any way
//! when disarmed, and must export valid Chrome `trace_event` JSON and
//! well-formed collapsed stacks.

use wavm3::cluster::MachineSet;
use wavm3::experiments::scenario::ExperimentFamily;
use wavm3::experiments::{run_all, RepetitionPolicy, RunnerConfig, Scenario};
use wavm3::migration::{MigrationConfig, MigrationKind, MigrationRecord, SimulationPath};
use wavm3::obs::perf::{chrome_trace, collapsed_stacks, PerfSnapshot};
use wavm3::obs::{Level, ObsConfig, ObsReport, Session};

/// A matmul load VM on the source: demand ripples every tick, and the
/// analytic engine replays the ripple in spans.
fn scenarios() -> Vec<Scenario> {
    [MigrationKind::Live, MigrationKind::NonLive]
        .into_iter()
        .map(|kind| Scenario {
            family: ExperimentFamily::CpuloadSource,
            kind,
            machine_set: MachineSet::M,
            source_load_vms: 1,
            target_load_vms: 0,
            migrant_mem_ratio: None,
            label: "1 VM".into(),
        })
        .collect()
}

/// A pagedirtier migrant between idle hosts: every VM has constant
/// demand, so the analytic engine steps spans.
fn constant_scenarios() -> Vec<Scenario> {
    [MigrationKind::Live, MigrationKind::NonLive]
        .into_iter()
        .map(|kind| Scenario {
            family: ExperimentFamily::MemloadVm,
            kind,
            machine_set: MachineSet::M,
            source_load_vms: 0,
            target_load_vms: 0,
            migrant_mem_ratio: Some(0.5),
            label: "50%".into(),
        })
        .collect()
}

fn runner(path: SimulationPath) -> RunnerConfig {
    RunnerConfig {
        repetitions: RepetitionPolicy::Fixed(3),
        base_seed: 11,
        path,
        ..RunnerConfig::default()
    }
}

/// Run `scenarios` on `threads` rayon workers with the given config;
/// return the finished report and the records.
fn run_on(
    threads: usize,
    config: ObsConfig,
    path: SimulationPath,
    scenarios: &[Scenario],
) -> (ObsReport, Vec<Vec<MigrationRecord>>) {
    let session = Session::install(config);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool");
    let records = pool.install(|| run_all(scenarios, &runner(path)));
    assert_eq!(records.len(), scenarios.len());
    (session.finish(), records)
}

/// The ripple campaign on `threads` workers; return the finished report.
fn campaign(threads: usize, config: ObsConfig, path: SimulationPath) -> ObsReport {
    run_on(threads, config, path, &scenarios()).0
}

/// Ticks the analytic engine processed for `records`: every tick from
/// the one containing `ms` up to the last one starting before `me`.
fn tick_count(records: &[Vec<MigrationRecord>]) -> u64 {
    let dt = MigrationConfig::new(MigrationKind::Live)
        .timing
        .tick
        .as_micros();
    records
        .iter()
        .flatten()
        .map(|r| r.phases.me.as_micros().div_ceil(dt) - r.phases.ms.as_micros() / dt)
        .sum()
}

/// The tick-cache counters: `(full + fast_hit + semi_hit + replayed,
/// replayed, spans)`. The tiers count the ticks that were stepped,
/// `replayed` the ticks served from a scenario's tape.
fn tick_tiers(perf: &PerfSnapshot) -> (u64, u64, u64) {
    let get = |k: &str| perf.counters.get(k).copied().unwrap_or(0);
    let replayed = get("analytic.tick_cache.replayed");
    let tiers = get("analytic.tick_cache.full")
        + get("analytic.tick_cache.fast_hit")
        + get("analytic.tick_cache.semi_hit")
        + replayed;
    (tiers, replayed, get("analytic.tick_cache.spans"))
}

fn profiled() -> ObsConfig {
    ObsConfig {
        profiling: true,
        collect_level: Level::Debug,
        ..ObsConfig::default()
    }
}

/// Total scope count over the whole tree plus the merged counters —
/// everything about a snapshot that must be thread-count invariant.
fn deterministic_view(perf: &PerfSnapshot) -> (u64, Vec<(String, u64)>) {
    fn count(nodes: &[wavm3::obs::perf::PerfNode]) -> u64 {
        nodes
            .iter()
            .map(|n| n.count + count(&n.children))
            .sum::<u64>()
    }
    (
        count(&perf.roots),
        perf.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
    )
}

#[test]
fn snapshot_counts_are_identical_across_thread_counts() {
    let (one, records) = run_on(1, profiled(), SimulationPath::Analytic, &scenarios());
    let two = campaign(2, profiled(), SimulationPath::Analytic);
    let eight = campaign(8, profiled(), SimulationPath::Analytic);

    let v1 = deterministic_view(&one.perf);
    let v2 = deterministic_view(&two.perf);
    let v8 = deterministic_view(&eight.perf);
    assert!(v1.0 > 0, "profiled campaign must record scopes");
    assert_eq!(v1, v2, "1 vs 2 threads");
    assert_eq!(v1, v8, "1 vs 8 threads");

    // Per-stage counts are invariant too, not just the total.
    for stage in [
        "migration.run.analytic",
        "analytic.tick_loop",
        "runner.repetition",
        "harness.isolated",
    ] {
        let n = one.perf.count_of(stage);
        assert!(n > 0, "stage {stage} missing from the tree");
        assert_eq!(n, two.perf.count_of(stage), "{stage}: 1 vs 2 threads");
        assert_eq!(n, eight.perf.count_of(stage), "{stage}: 1 vs 8 threads");
    }

    // The tick-cache tiers and the replayed ticks partition the tick count
    // deterministically.
    let (tiers, _, _) = tick_tiers(&one.perf);
    assert_eq!(
        tiers,
        tick_count(&records),
        "tick-cache tiers must partition the ticks: {:?}",
        one.perf.counters
    );
}

/// Exactly one run per scenario ticks and records its tape, whatever the
/// thread count: a second recorder racing the first would step more spans
/// and replay fewer ticks.
#[test]
fn ripple_and_constant_campaigns_step_the_same_spans_at_every_thread_count() {
    for (set, scenarios) in [("ripple", scenarios()), ("constant", constant_scenarios())] {
        let run = |threads| {
            let (report, records) =
                run_on(threads, profiled(), SimulationPath::Analytic, &scenarios);
            let (tiers, replayed, spans) = tick_tiers(&report.perf);
            assert_eq!(
                tiers,
                tick_count(&records),
                "{set}, {threads} threads: tier sum"
            );
            (replayed, spans)
        };
        let (replayed, spans) = run(1);
        assert!(spans > 0, "the {set} campaign must step spans");
        assert!(replayed > 0, "the {set} campaign must replay tapes");
        assert_eq!((replayed, spans), run(2), "{set}: 1 vs 2 threads");
        assert_eq!((replayed, spans), run(8), "{set}: 1 vs 8 threads");
    }
}

/// Eight threads released at once onto one prototype: exactly one run
/// ticks and records the tape, and the other seven replay it. A 1 ms
/// tick makes the recording run long enough for the others to race it.
#[test]
fn one_run_records_the_tape_however_many_threads_race_for_it() {
    use std::sync::Barrier;
    use wavm3::migration::RunSlot;
    use wavm3::simkit::{RngFactory, SimDuration};
    let scenario = &scenarios()[0];
    let mut config = MigrationConfig::new(scenario.kind);
    config.path = SimulationPath::Analytic;
    config.timing.tick = SimDuration::from_millis(1);
    let prototype = scenario.build_with_config(RngFactory::new(5), config);
    let session = Session::install(profiled());
    let barrier = Barrier::new(8);
    let records: Vec<MigrationRecord> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let (prototype, barrier) = (&prototype, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    prototype.run_reusing(RngFactory::new(5).child(i), &mut RunSlot::default())
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("run"))
            .collect()
    });
    let (tiers, replayed, spans) = tick_tiers(&session.finish().perf);
    let dt = config.timing.tick.as_micros();
    let ticks: u64 = records
        .iter()
        .map(|r| r.phases.me.as_micros().div_ceil(dt) - r.phases.ms.as_micros() / dt)
        .sum();
    assert_eq!(tiers, ticks, "tier sum");
    assert_eq!(replayed, ticks / 8 * 7, "seven runs replay");
    assert!(spans > 0, "the recording run steps spans");
}

#[test]
fn profiler_does_not_perturb_deterministic_outputs() {
    let traced = |profiling: bool| {
        campaign(
            2,
            ObsConfig {
                trace: true,
                metrics: true,
                profiling,
                collect_level: Level::Debug,
                ..ObsConfig::default()
            },
            SimulationPath::Sampled,
        )
    };
    let off = traced(false);
    let on = traced(true);

    // Byte-identical deterministic outputs either way: the profiler's
    // wall-clock data lives only in the perf/profiling sections.
    assert_eq!(off.trace_jsonl(), on.trace_jsonl(), "trace perturbed");
    assert_eq!(off.metrics.counters, on.metrics.counters);
    assert_eq!(off.metrics.histograms, on.metrics.histograms);
    assert_eq!(off.ledger_jsonl(), on.ledger_jsonl());

    // And the profiling sections really are off/on respectively.
    assert!(off.perf.is_empty(), "disarmed session recorded scopes");
    assert!(off.profiling.is_empty());
    assert!(!on.perf.is_empty(), "armed session recorded nothing");
}

#[test]
fn exports_are_valid_trace_event_json_and_collapsed_stacks() {
    use serde::Value;
    struct Raw(Value);
    impl serde::Deserialize for Raw {
        fn from_value(v: &Value) -> Result<Self, serde::Error> {
            Ok(Raw(v.clone()))
        }
    }

    // Single-threaded so every scope nests under the one `runner.campaign`
    // root; on worker threads the first scope entered becomes a root of
    // its own thread's subtree, which is exercised elsewhere.
    let report = campaign(1, profiled(), SimulationPath::Analytic);
    let trace = chrome_trace(&report.perf);
    let Raw(root) = serde_json::from_str(&trace).expect("trace.json must parse");
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents array");
    let mut complete = 0;
    for ev in events {
        let ph = ev.get("ph").and_then(Value::as_str).expect("ph field");
        match ph {
            "X" => {
                complete += 1;
                for key in ["name", "ts", "dur", "pid", "tid", "args"] {
                    assert!(ev.get(key).is_some(), "complete event missing {key}");
                }
            }
            "M" => {} // metadata
            other => panic!("unexpected event phase {other}"),
        }
    }
    assert!(complete > 0, "no complete events in the trace");

    let folded = collapsed_stacks(&report.perf);
    assert!(!folded.is_empty(), "collapsed stacks empty");
    for line in folded.lines() {
        let (path, samples) = line.rsplit_once(' ').expect("`stack count` shape");
        assert!(!path.is_empty());
        samples.parse::<u64>().expect("sample count is an integer");
        // Stack frames are ;-joined scope names rooted at a known root.
        assert!(
            path.starts_with("runner.campaign"),
            "unexpected stack root in {line:?}"
        );
    }

    // The self-time identity the hotspot attribution relies on.
    assert_eq!(
        report.perf.total_ns(),
        report.perf.self_total_ns(),
        "self times must sum exactly to cumulative root time"
    );
}
