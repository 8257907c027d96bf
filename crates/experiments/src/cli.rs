//! Minimal argument parsing shared by the targets of the
//! `wavm3-experiments` binary; only `regress` parses flags of its own.
//!
//! Flags: `--reps N` (fixed repetitions instead of the paper's variance
//! rule), `--seed S` (campaign seed), `--out DIR` (CSV output directory,
//! default `out/`), `--faults` (inject the light fault mix: transient link
//! degradation, pre-copy non-convergence, occasional aborts with retry),
//! the observability set: `--trace PATH` (deterministic JSONL event
//! trace), `--log-level LVL` (human console subscriber on stderr),
//! `--metrics-out PATH` (metrics snapshot JSON),
//! `--ledger-out PATH` (per-migration energy-attribution JSONL),
//! `--html-report PATH` (self-contained HTML campaign report) and
//! `--profile-out DIR` (arms the hierarchical self-profiler and writes
//! `profile.json`, `trace.json` — Chrome `chrome://tracing` / Perfetto
//! format — and `flame.folded` — collapsed stacks for flamegraph tools),
//! plus the crash-safety set: `--checkpoint-dir DIR` (journal per-scenario
//! results), `--resume` (reload verified checkpoints instead of
//! recomputing), and `--wall-budget-s S` / `--sim-budget-s S`
//! (per-scenario runtime budgets). `--threads N` sizes the campaign's
//! worker pool (default: the machine's core count); every value produces
//! byte-identical output, and `--threads 1` is an exact serial run.
//!
//! Exit codes: `0` success, `1` runtime failure, `2` invalid flags or
//! configuration, `3` partial success (the campaign completed but at
//! least one scenario failed under supervision — see the failure report
//! in the checkpoint directory).

use crate::campaign::{Campaign, SupervisorOptions};
use crate::runner::{RepetitionPolicy, RunnerConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use wavm3_faults::FaultConfig;
use wavm3_harness::Wavm3Error;
use wavm3_migration::SimulationPath;
use wavm3_obs::{Level, ObsConfig, Session};
use wavm3_simkit::SimDuration;

/// Exit code for invalid flags or configuration.
pub const EXIT_USAGE: u8 = 2;
/// Exit code for a campaign that completed with scenario failures.
pub const EXIT_PARTIAL: u8 = 3;

/// Observability flags shared by every campaign target.
#[derive(Debug, Clone, Default)]
pub struct ObsCliOptions {
    /// `--trace PATH`: write the deterministic JSONL event trace here.
    pub trace: Option<PathBuf>,
    /// `--log-level LVL`: echo events at `LVL` and above to stderr.
    pub log_level: Option<Level>,
    /// `--metrics-out PATH`: write the metrics snapshot JSON here.
    pub metrics_out: Option<PathBuf>,
    /// `--ledger-out PATH`: write the energy-attribution JSONL here.
    pub ledger_out: Option<PathBuf>,
    /// `--html-report PATH`: write the self-contained HTML campaign
    /// report here (arms metrics and the ledger).
    pub html_report: Option<PathBuf>,
    /// `--profile-out DIR`: arm the hierarchical self-profiler and write
    /// `profile.json` / `trace.json` / `flame.folded` into this directory.
    pub profile_out: Option<PathBuf>,
}

impl ObsCliOptions {
    /// `true` when any observability sink was requested.
    pub fn any(&self) -> bool {
        self.trace.is_some()
            || self.log_level.is_some()
            || self.metrics_out.is_some()
            || self.ledger_out.is_some()
            || self.html_report.is_some()
            || self.profile_out.is_some()
    }

    /// The session configuration these flags describe.
    pub fn session_config(&self) -> ObsConfig {
        ObsConfig {
            trace: self.trace.is_some(),
            collect_level: Level::Debug,
            console: self.log_level,
            metrics: self.metrics_out.is_some() || self.html_report.is_some(),
            profiling: self.profile_out.is_some(),
            ledger: self.ledger_out.is_some() || self.html_report.is_some(),
        }
    }
}

/// Parsed common options.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Runner configuration derived from the flags.
    pub runner: RunnerConfig,
    /// Where figure CSVs are written.
    pub out_dir: PathBuf,
    /// Observability sinks.
    pub obs: ObsCliOptions,
    /// Crash-safety supervision (checkpoints, resume, budgets).
    pub supervisor: SupervisorOptions,
    /// `--threads N`: worker threads for the campaign pool. `None` lets
    /// rayon size the pool from the machine's core count. Seeds are a
    /// pure function of `(scenario, rep)`, so every value — including
    /// `--threads 1` — produces byte-identical campaign output.
    pub threads: Option<usize>,
}

impl Default for CliOptions {
    fn default() -> Self {
        CliOptions {
            runner: RunnerConfig::default(),
            out_dir: PathBuf::from("out"),
            obs: ObsCliOptions::default(),
            supervisor: SupervisorOptions::default(),
            threads: None,
        }
    }
}

/// Parse a target's flags (the arguments after its name). Unknown flags
/// abort with a usage message.
pub fn parse_from(args: impl Iterator<Item = String>) -> CliOptions {
    let mut opts = CliOptions::default();
    let mut it = args.peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reps" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .unwrap_or_else(|| usage("--reps needs a positive integer"));
                opts.runner.repetitions = RepetitionPolicy::Fixed(v.max(1));
            }
            "--seed" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
                opts.runner.base_seed = v;
            }
            "--out" => {
                let v = it.next().unwrap_or_else(|| usage("--out needs a path"));
                opts.out_dir = PathBuf::from(v);
            }
            "--faults" => {
                opts.runner.faults = Some(FaultConfig::light());
            }
            "--path" => {
                let v = it.next().unwrap_or_else(|| usage("--path needs a value"));
                opts.runner.path = match v.as_str() {
                    "sampled" => SimulationPath::Sampled,
                    "analytic" => SimulationPath::Analytic,
                    other => usage(&format!(
                        "--path needs 'sampled' or 'analytic', got '{other}'"
                    )),
                };
            }
            "--trace" => {
                let v = it.next().unwrap_or_else(|| usage("--trace needs a path"));
                opts.obs.trace = Some(PathBuf::from(v));
            }
            "--log-level" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<Level>().ok())
                    .unwrap_or_else(|| {
                        usage("--log-level needs one of trace/debug/info/warn/error")
                    });
                opts.obs.log_level = Some(v);
            }
            "--metrics-out" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--metrics-out needs a path"));
                opts.obs.metrics_out = Some(PathBuf::from(v));
            }
            "--ledger-out" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--ledger-out needs a path"));
                opts.obs.ledger_out = Some(PathBuf::from(v));
            }
            "--html-report" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--html-report needs a path"));
                opts.obs.html_report = Some(PathBuf::from(v));
            }
            "--profile-out" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--profile-out needs a directory"));
                opts.obs.profile_out = Some(PathBuf::from(v));
            }
            "--checkpoint-dir" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--checkpoint-dir needs a path"));
                opts.supervisor.checkpoint_dir = Some(PathBuf::from(v));
            }
            "--resume" => {
                opts.supervisor.resume = true;
            }
            "--threads" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .filter(|v| *v > 0)
                    .unwrap_or_else(|| usage("--threads needs a positive integer"));
                opts.threads = Some(v);
            }
            "--wall-budget-s" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v > 0.0)
                    .unwrap_or_else(|| usage("--wall-budget-s needs a positive number"));
                opts.supervisor.budget.wall = Some(std::time::Duration::from_secs_f64(v));
            }
            "--sim-budget-s" => {
                let v = it
                    .next()
                    .and_then(|s| s.parse::<f64>().ok())
                    .filter(|v| v.is_finite() && *v >= 0.0)
                    .unwrap_or_else(|| usage("--sim-budget-s needs a non-negative number"));
                opts.supervisor.budget.sim = Some(SimDuration::from_secs_f64(v));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    if opts.supervisor.resume && opts.supervisor.checkpoint_dir.is_none() {
        usage("--resume requires --checkpoint-dir");
    }
    opts
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: wavm3-experiments <target> [--reps N] [--seed S] [--out DIR] [--faults] \
         [--path sampled|analytic] \
         [--trace PATH] [--log-level LVL] [--metrics-out PATH] \
         [--ledger-out PATH] [--html-report PATH] [--profile-out DIR] \
         [--checkpoint-dir DIR] [--resume] [--wall-budget-s S] [--sim-budget-s S] \
         [--threads N]"
    );
    eprintln!("  default repetition policy: paper variance rule (>=10 runs, <10% variance delta)");
    eprintln!(
        "  --faults: seeded fault injection (link degradation, non-convergence, aborts+retry)"
    );
    eprintln!("  --path: integration engine; 'sampled' (default, 2 Hz meter traces) or 'analytic'");
    eprintln!("      (closed-form per-phase energies, no per-sample rows, ~100x faster)");
    eprintln!("  --trace: write a deterministic sim-time JSONL event trace");
    eprintln!("  --log-level: echo events (trace/debug/info/warn/error) to stderr");
    eprintln!("  --metrics-out: write the metrics snapshot as JSON");
    eprintln!("  --ledger-out: write the per-migration energy-attribution JSONL (deterministic)");
    eprintln!("  --html-report: write a self-contained HTML campaign report (phase energies,");
    eprintln!("      residual summaries, fault/retry counts); arms metrics + ledger");
    eprintln!("  --profile-out: arm the hierarchical self-profiler; writes profile.json (call");
    eprintln!("      tree), trace.json (Chrome trace_event) and flame.folded (collapsed stacks)");
    eprintln!("  --checkpoint-dir: journal per-scenario results for crash-safe restarts");
    eprintln!(
        "  --resume: reload verified checkpoints from --checkpoint-dir instead of re-running"
    );
    eprintln!("  --wall-budget-s / --sim-budget-s: per-scenario runtime budgets; on exhaustion");
    eprintln!("      the repetition rule is cut short and the result flagged budget_truncated");
    eprintln!("  --threads: campaign worker threads (default: machine core count); output is");
    eprintln!("      byte-identical at every thread count, --threads 1 reproduces a serial run");
    eprintln!("  exit codes: 0 ok, 1 runtime error, 2 bad flags/config, 3 partial success");
    std::process::exit(if err.is_empty() { 0 } else { EXIT_USAGE as i32 });
}

/// Run one campaign target: parse its flags from `args`, build the
/// supervised [`Campaign`] (validating the runner configuration — invalid
/// configs exit with code 2 before any compute), install the requested
/// observability session around `body`, write the trace / metrics files
/// afterwards, and persist the campaign's failure report next to the
/// checkpoints. A campaign whose scenarios partially failed exits with
/// code 3; other failures are reported on stderr and exit with code 1.
pub fn run(
    args: impl Iterator<Item = String>,
    body: impl FnOnce(&CliOptions, &Campaign) -> Result<(), Wavm3Error>,
) -> ExitCode {
    // Catch SIGINT/SIGTERM instead of dying mid-write: the campaign
    // drains (in-flight scenarios finish and checkpoint, queued ones are
    // skipped as recorded failures) and the run exits with the
    // partial-success code 3 — mirroring the serve crate's graceful
    // drain, and keeping `--resume` able to pick up where the interrupt
    // landed.
    wavm3_harness::signal::install();
    let opts = parse_from(args);
    let campaign = match Campaign::new(opts.runner, opts.supervisor.clone()) {
        Ok(campaign) => campaign,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    // Pin the campaign pool to `--threads N` before any parallel work
    // starts; results never depend on the count, only throughput does.
    let pool = match rayon::ThreadPoolBuilder::new()
        .num_threads(opts.threads.unwrap_or(0))
        .build()
    {
        Ok(pool) => pool,
        Err(e) => {
            eprintln!("error: could not build thread pool: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let session = opts
        .obs
        .any()
        .then(|| Session::install(opts.obs.session_config()));

    let result = pool.install(|| body(&opts, &campaign));

    let mut sink_result: Result<(), Wavm3Error> = Ok(());
    let obs_report = session.map(Session::finish);
    if let Some(report) = &obs_report {
        if let Some(path) = &opts.obs.trace {
            match report.write_trace_jsonl(path) {
                Ok(()) => eprintln!(
                    "trace: {} events -> {}",
                    report.event_count(),
                    path.display()
                ),
                Err(e) => sink_result = Err(Wavm3Error::io_at(path, e)),
            }
        }
        if let Some(path) = &opts.obs.metrics_out {
            match report.write_metrics_json(path) {
                Ok(()) => eprintln!("metrics: {}", path.display()),
                Err(e) => sink_result = Err(Wavm3Error::io_at(path, e)),
            }
        }
        if let Some(path) = &opts.obs.ledger_out {
            match report.write_ledger_jsonl(path) {
                Ok(()) => eprintln!(
                    "ledger: {} migrations -> {}",
                    report.ledger.len(),
                    path.display()
                ),
                Err(e) => sink_result = Err(Wavm3Error::io_at(path, e)),
            }
        }
        if let Some(dir) = &opts.obs.profile_out {
            match write_profile_exports(dir, report) {
                Ok(()) => eprintln!("profile: {}", dir.display()),
                Err(e) => sink_result = Err(e),
            }
        }
        let profile = wavm3_obs::perf::summarise(&report.perf);
        if !profile.is_empty() {
            eprint!("{profile}");
        }
    }

    let mut report = campaign.report();
    if let Some(signal) = wavm3_harness::signal::interrupted_by() {
        // The campaign records one failure per scenario it skipped during
        // the drain; a signal that lands after the last scenario still
        // deserves an entry so `campaign-report.json` and the exit code
        // (3, partial success) say what happened.
        if !report
            .failures
            .iter()
            .any(|f| f.message.contains("interrupted by"))
        {
            report.failures.push(crate::runner::ScenarioFailure {
                scenario: "<campaign>".to_string(),
                base_seed: campaign.runner().base_seed,
                rep: 0,
                fault_plan: None,
                message: format!("interrupted by {signal} after the last scenario completed"),
            });
        }
        eprintln!("interrupted by {signal}: campaign drained, reporting partial success");
    }
    if let (Some(path), Some(obs)) = (&opts.obs.html_report, &obs_report) {
        let html = crate::report::render_campaign_html(obs, &report);
        match crate::export::write_file(path, &html) {
            Ok(()) => eprintln!("report: {}", path.display()),
            Err(e) => sink_result = Err(e),
        }
    }
    if let Some(dir) = campaign.checkpoint_dir() {
        let path = dir.join("campaign-report.json");
        match serde_json::to_string_pretty(&report) {
            Ok(json) => {
                if let Err(e) = wavm3_harness::write_atomic_str(&path, &json) {
                    eprintln!("warning: could not write campaign report: {e}");
                }
            }
            Err(e) => eprintln!("warning: could not serialise campaign report: {e}"),
        }
    }
    if report.stats != Default::default() {
        eprintln!(
            "supervision: {} computed, {} resumed, {} quarantined, {} budget-truncated, {} failed",
            report.stats.completed,
            report.stats.resumed,
            report.stats.quarantined,
            report.stats.budget_truncated,
            report.stats.failed,
        );
    }

    match result.and(sink_result) {
        Ok(()) if !report.failures.is_empty() => {
            for failure in &report.failures {
                eprintln!(
                    "failed scenario: '{}' rep {} (seed {:#x}): {}",
                    failure.scenario, failure.rep, failure.base_seed, failure.message
                );
            }
            eprintln!(
                "partial success: {} of the campaign's scenarios failed",
                report.failures.len()
            );
            ExitCode::from(EXIT_PARTIAL)
        }
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            if e.is_config_error() {
                ExitCode::from(EXIT_USAGE)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

/// Write the profiler's export files for `report` into `dir`:
/// `profile.json` (the raw call-tree snapshot), `trace.json` (Chrome
/// `trace_event` format, loadable in `chrome://tracing` / Perfetto) and
/// `flame.folded` (collapsed stacks for flamegraph tooling).
pub fn write_profile_exports(
    dir: &std::path::Path,
    report: &wavm3_obs::ObsReport,
) -> Result<(), Wavm3Error> {
    let json = serde_json::to_string_pretty(&report.perf)
        .map_err(|e| Wavm3Error::serde("perf snapshot", e))?;
    crate::export::write_file(&dir.join("profile.json"), &json)?;
    crate::export::write_file(
        &dir.join("trace.json"),
        &wavm3_obs::perf::chrome_trace(&report.perf),
    )?;
    crate::export::write_file(
        &dir.join("flame.folded"),
        &wavm3_obs::perf::collapsed_stacks(&report.perf),
    )?;
    Ok(())
}

/// Write a figure's CSV into the output directory and print its summary.
pub fn emit_figure(
    opts: &CliOptions,
    fig: &crate::figures::FigureOutput,
) -> Result<(), Wavm3Error> {
    let path = opts.out_dir.join(format!("{}.csv", fig.id));
    crate::export::write_file(&path, &fig.csv)?;
    println!("{}", fig.summary);
    println!("(series written to {})", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_use_paper_policy() {
        let o = parse_from(std::iter::empty());
        assert!(matches!(
            o.runner.repetitions,
            RepetitionPolicy::VarianceRule { min: 10, .. }
        ));
        assert_eq!(o.out_dir, PathBuf::from("out"));
        assert!(!o.obs.any(), "observability defaults to off");
        assert!(o.supervisor.checkpoint_dir.is_none());
        assert!(!o.supervisor.resume);
        assert_eq!(o.supervisor.budget.wall, None);
        assert_eq!(o.supervisor.budget.sim, None);
    }

    #[test]
    fn flags_parse() {
        let o = parse_from(
            ["--reps", "3", "--seed", "42", "--out", "tmpdir"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert!(matches!(o.runner.repetitions, RepetitionPolicy::Fixed(3)));
        assert_eq!(o.runner.base_seed, 42);
        assert_eq!(o.out_dir, PathBuf::from("tmpdir"));
    }

    #[test]
    fn path_flag_selects_the_engine() {
        let o = parse_from(std::iter::empty());
        assert_eq!(o.runner.path, SimulationPath::Sampled, "sampled by default");
        let o = parse_from(["--path", "analytic"].iter().map(|s| s.to_string()));
        assert_eq!(o.runner.path, SimulationPath::Analytic);
        let o = parse_from(["--path", "sampled"].iter().map(|s| s.to_string()));
        assert_eq!(o.runner.path, SimulationPath::Sampled);
    }

    #[test]
    fn faults_flag_switches_on_the_light_mix() {
        let o = parse_from(std::iter::empty());
        assert!(o.runner.faults.is_none(), "faults default to off");
        let o = parse_from(["--faults"].iter().map(|s| s.to_string()));
        let f = o.runner.faults.expect("--faults sets a config");
        assert!(f.is_enabled());
    }

    #[test]
    fn obs_flags_parse_and_describe_a_session() {
        let o = parse_from(
            [
                "--trace",
                "t.jsonl",
                "--log-level",
                "warn",
                "--metrics-out",
                "m.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(
            o.obs.trace.as_deref(),
            Some(std::path::Path::new("t.jsonl"))
        );
        assert_eq!(o.obs.log_level, Some(Level::Warn));
        assert_eq!(
            o.obs.metrics_out.as_deref(),
            Some(std::path::Path::new("m.json"))
        );
        assert!(o.obs.any());
        let cfg = o.obs.session_config();
        assert!(cfg.trace && cfg.metrics);
        assert!(!cfg.profiling, "profiling is armed by --profile-out only");
        assert_eq!(cfg.console, Some(Level::Warn));
    }

    #[test]
    fn profile_out_arms_the_profiler_only() {
        let o = parse_from(["--profile-out", "prof"].iter().map(|s| s.to_string()));
        assert_eq!(
            o.obs.profile_out.as_deref(),
            Some(std::path::Path::new("prof"))
        );
        assert!(o.obs.any());
        let cfg = o.obs.session_config();
        assert!(cfg.profiling, "--profile-out arms the self-profiler");
        assert!(!cfg.trace && !cfg.metrics && !cfg.ledger);
    }

    #[test]
    fn ledger_and_html_report_flags_arm_the_session() {
        let o = parse_from(["--ledger-out", "l.jsonl"].iter().map(|s| s.to_string()));
        assert_eq!(
            o.obs.ledger_out.as_deref(),
            Some(std::path::Path::new("l.jsonl"))
        );
        assert!(o.obs.any());
        let cfg = o.obs.session_config();
        assert!(cfg.ledger && !cfg.metrics && !cfg.trace);

        let o = parse_from(["--html-report", "r.html"].iter().map(|s| s.to_string()));
        assert_eq!(
            o.obs.html_report.as_deref(),
            Some(std::path::Path::new("r.html"))
        );
        let cfg = o.obs.session_config();
        assert!(cfg.ledger && cfg.metrics, "html report arms both sinks");
        assert!(!cfg.profiling);
    }

    #[test]
    fn threads_flag_parses() {
        let o = parse_from(std::iter::empty());
        assert_eq!(o.threads, None, "default pool size is the core count");
        let o = parse_from(["--threads", "4"].iter().map(|s| s.to_string()));
        assert_eq!(o.threads, Some(4));
        let o = parse_from(["--threads", "1"].iter().map(|s| s.to_string()));
        assert_eq!(o.threads, Some(1));
    }

    #[test]
    fn supervision_flags_parse() {
        let o = parse_from(
            [
                "--checkpoint-dir",
                "ckpt",
                "--resume",
                "--wall-budget-s",
                "1.5",
                "--sim-budget-s",
                "600",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        assert_eq!(
            o.supervisor.checkpoint_dir.as_deref(),
            Some(std::path::Path::new("ckpt"))
        );
        assert!(o.supervisor.resume);
        assert_eq!(
            o.supervisor.budget.wall,
            Some(std::time::Duration::from_millis(1500))
        );
        assert_eq!(o.supervisor.budget.sim, Some(SimDuration::from_secs(600)));
    }
}
