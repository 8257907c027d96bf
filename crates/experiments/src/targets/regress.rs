//! `regress` — the regression gate over the metrics pipeline.
//!
//! Diffs a run's metrics snapshot against a committed baseline
//! (`BENCH_baseline.json`, `BENCH_serve.json`) with per-metric relative
//! tolerances:
//!
//! ```text
//! wavm3-experiments regress --baseline BENCH_baseline.json \
//!     --current metrics.json \
//!     [--tolerance-counters T] [--tolerance-gauges T] \
//!     [--tolerance-histograms T] [--tolerances overrides.json]
//! ```
//!
//! The current snapshot comes from a `--metrics-out` run, e.g.
//! `wavm3-experiments campaign --reps 2 --seed 7 --metrics-out
//! metrics.json`. Exit codes: `0` pass (warnings allowed, printed to
//! stderr), `1` at least one metric failed the gate, `2` usage /
//! unreadable inputs.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use wavm3_experiments::cli::EXIT_USAGE;
use wavm3_experiments::regress::{self, Tolerances, Verdict};
use wavm3_obs::metrics::MetricsSnapshot;

struct Options {
    baseline: PathBuf,
    current: PathBuf,
    tolerances: Tolerances,
    overrides: Option<PathBuf>,
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: wavm3-experiments regress --baseline BENCH_baseline.json --current METRICS.json \
         [--tolerance-counters T] [--tolerance-gauges T] [--tolerance-histograms T] \
         [--tolerances OVERRIDES.json]"
    );
    eprintln!("  --baseline: committed baseline produced by scripts/bench_baseline.sh");
    eprintln!("  --current: metrics JSON from a --metrics-out run");
    eprintln!("  --tolerance-*: relative tolerance per metric family");
    eprintln!("      (defaults: counters 0, gauges 0.25, histograms 0)");
    eprintln!("  --tolerances: JSON object of per-metric overrides {{\"name\": tol}}");
    eprintln!("  exit codes: 0 pass/warn, 1 regression, 2 usage");
    std::process::exit(if err.is_empty() { 0 } else { EXIT_USAGE as i32 });
}

fn parse_tol(flag: &str, value: Option<String>) -> f64 {
    value
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|v| v.is_finite() && *v >= 0.0)
        .unwrap_or_else(|| usage(&format!("{flag} needs a non-negative number")))
}

fn parse_args(args: Vec<String>) -> Options {
    let mut baseline = None;
    let mut current = None;
    let mut tolerances = Tolerances::default();
    let mut overrides = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--baseline needs a path"));
                baseline = Some(PathBuf::from(v));
            }
            "--current" => {
                let v = it.next().unwrap_or_else(|| usage("--current needs a path"));
                current = Some(PathBuf::from(v));
            }
            "--tolerance-counters" => tolerances.counters = parse_tol(&arg, it.next()),
            "--tolerance-gauges" => tolerances.gauges = parse_tol(&arg, it.next()),
            "--tolerance-histograms" => tolerances.histograms = parse_tol(&arg, it.next()),
            "--tolerances" => {
                let v = it
                    .next()
                    .unwrap_or_else(|| usage("--tolerances needs a path"));
                overrides = Some(PathBuf::from(v));
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Options {
        baseline: baseline.unwrap_or_else(|| usage("--baseline is required")),
        current: current.unwrap_or_else(|| usage("--current is required")),
        tolerances,
        overrides,
    }
}

/// Read a metrics snapshot from either layout [`regress::snapshot_from_json`]
/// accepts.
fn read_snapshot(path: &Path) -> Result<MetricsSnapshot, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    regress::snapshot_from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn main(args: Vec<String>) -> ExitCode {
    let mut opts = parse_args(args);
    if let Some(path) = &opts.overrides {
        if let Err(e) = opts.tolerances.load_overrides(path) {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    let (baseline, current) = match (read_snapshot(&opts.baseline), read_snapshot(&opts.current)) {
        (Ok(baseline), Ok(current)) => (baseline, current),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    let report = regress::compare(&baseline, &current, &opts.tolerances);
    eprint!("{report}");
    match report.worst() {
        Verdict::Fail => ExitCode::FAILURE,
        Verdict::Pass | Verdict::Warn => ExitCode::SUCCESS,
    }
}
