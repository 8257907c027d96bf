//! Trace determinism and coverage: a faulted campaign captured through the
//! observability session produces a byte-identical JSONL trace regardless
//! of how many rayon worker threads execute it, and the trace/metrics pair
//! actually covers what the ISSUE promises — every migration phase spanned,
//! counters for migrations, fault events, retries, and repetitions.
//!
//! The sampled engine's Debug trace is also pinned byte for byte in
//! `tests/golden/trace_sampled.jsonl`. Regenerate it after an intentional
//! change to the engine's events with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test obs_trace
//! ```

use wavm3::cluster::MachineSet;
use wavm3::experiments::scenario::ExperimentFamily;
use wavm3::experiments::{run_all, RepetitionPolicy, RunnerConfig, Scenario};
use wavm3::faults::{AbortFault, FaultConfig};
use wavm3::migration::MigrationKind;
use wavm3::obs::metrics::MetricsSnapshot;
use wavm3::obs::{Level, ObsConfig, ObsReport, Session};
use wavm3::simkit::SimTime;

const LIVE_AND_NONLIVE: [MigrationKind; 2] = [MigrationKind::Live, MigrationKind::NonLive];

fn scenarios(kinds: &[MigrationKind]) -> Vec<Scenario> {
    kinds
        .iter()
        .map(|&kind| Scenario {
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

fn faulted_runner() -> RunnerConfig {
    // The light mix with an aggressive abort rate, so retries show up
    // even across only six runs.
    let faults = FaultConfig {
        abort: AbortFault {
            probability: 0.6,
            earliest: SimTime::from_secs(15),
            latest: SimTime::from_secs(45),
        },
        ..FaultConfig::light()
    };
    RunnerConfig {
        repetitions: RepetitionPolicy::Fixed(3),
        base_seed: 11,
        faults: Some(faults),
        ..RunnerConfig::default()
    }
}

/// Run the faulted campaign over `kinds` on `threads` rayon workers with
/// trace + metrics armed; return the finished report.
fn traced_campaign(kinds: &[MigrationKind], threads: usize) -> ObsReport {
    let session = Session::install(ObsConfig {
        trace: true,
        collect_level: Level::Debug,
        console: None,
        metrics: true,
        profiling: false,
        ledger: false,
    });
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("build rayon pool");
    let records = pool.install(|| run_all(&scenarios(kinds), &faulted_runner()));
    assert_eq!(records.len(), kinds.len());
    session.finish()
}

#[test]
fn faulted_trace_is_byte_identical_across_thread_counts() {
    let single = traced_campaign(&LIVE_AND_NONLIVE, 1);
    let multi = traced_campaign(&LIVE_AND_NONLIVE, 4);
    let a = single.trace_jsonl();
    let b = multi.trace_jsonl();
    assert!(!a.is_empty(), "trace must capture the campaign");
    assert_eq!(a, b, "same-seed trace must not depend on thread count");
    // Counters and histograms are integer/fixed-point and must agree too.
    // Gauges are exempt by design: they carry wall-clock data (runner
    // throughput), so only their key set is stable.
    assert_eq!(single.metrics.counters, multi.metrics.counters);
    assert_eq!(single.metrics.histograms, multi.metrics.histograms);
    assert_eq!(
        single.metrics.gauges.keys().collect::<Vec<_>>(),
        multi.metrics.gauges.keys().collect::<Vec<_>>()
    );
}

#[test]
fn trace_spans_every_phase_and_counts_the_campaign() {
    let report = traced_campaign(&LIVE_AND_NONLIVE, 2);
    let trace = report.trace_jsonl();

    // ≥ 1 span per migration phase per run: every run buffer that holds a
    // migration (i.e. every per-attempt buffer) carries all five phases.
    let mut attempt_buffers = 0;
    for (key, events) in &report.events {
        if !key.contains("|rep") {
            continue;
        }
        attempt_buffers += 1;
        for phase in [
            "phase.normal",
            "phase.initiation",
            "phase.transfer",
            "phase.activation",
            "phase.tail",
            "migration.run",
        ] {
            assert!(
                events.iter().any(|e| e.name == phase),
                "buffer {key} missing span {phase}"
            );
        }
    }
    // 2 scenarios × 3 reps, plus any retry attempts.
    assert!(
        attempt_buffers >= 6,
        "only {attempt_buffers} attempt buffers"
    );

    // Span lines are distinguishable in the JSONL (span_start_us field).
    assert!(trace.contains("\"span_start_us\":"));
    // The fault mix injects something across 6+ runs.
    assert!(trace.contains("fault.injected"), "no fault events in trace");

    // Counters cover migrations, fault events, retries and repetitions.
    let m: &MetricsSnapshot = &report.metrics;
    let counter = |name: &str| m.counters.get(name).copied().unwrap_or(0);
    assert!(counter("migration.runs") >= 6);
    assert!(counter("faults.injected") >= 1);
    assert_eq!(counter("runner.repetitions"), 6);
    // Retries only happen when an abort fires; heavy() aborts often enough
    // that at least one retry across 6 faulted runs is overwhelmingly
    // likely — but key the assertion on the trace so it cannot flake: a
    // runner.retry event and the counter must agree.
    let retry_events = report
        .events
        .iter()
        .flat_map(|(_, evs)| evs)
        .filter(|e| e.name == "runner.retry")
        .count() as u64;
    assert_eq!(counter("runner.retries"), retry_events);
}

#[test]
fn disabled_session_emits_nothing() {
    let session = Session::install(ObsConfig {
        trace: false,
        collect_level: Level::Debug,
        console: None,
        metrics: false,
        profiling: false,
        ledger: false,
    });
    let records = run_all(&scenarios(&LIVE_AND_NONLIVE), &faulted_runner());
    assert_eq!(records.len(), 2);
    let report = session.finish();
    assert_eq!(report.event_count(), 0, "trace off ⇒ no events collected");
    assert!(report.metrics.is_empty(), "metrics off ⇒ empty snapshot");
}

/// The sampled engine's event sites (suspend, resume, round, fault and
/// phase spans) pinned byte for byte over live, non-live and post-copy
/// runs of the faulted campaign. Results alone would not notice an event
/// that moved to another tick or changed places with its neighbour.
#[test]
fn sampled_trace_matches_its_golden() {
    let kinds = [
        MigrationKind::Live,
        MigrationKind::NonLive,
        MigrationKind::PostCopy,
    ];
    let trace = traced_campaign(&kinds, 2).trace_jsonl();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("trace_sampled.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &trace).expect("write golden trace");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing {}; regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    for (i, (g, a)) in golden.lines().zip(trace.lines()).enumerate() {
        assert_eq!(g, a, "trace line {} differs from the golden", i + 1);
    }
    assert_eq!(
        golden.lines().count(),
        trace.lines().count(),
        "trace length differs from the golden"
    );
    assert_eq!(golden, trace);
}
