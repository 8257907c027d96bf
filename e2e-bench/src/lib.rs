//! # wavm3-bench — the end-to-end benchmark of WAVM3
//!
//! One command runs five workloads, each in its own process, prints every
//! end-to-end metric by name with its unit, checks that the program's
//! outputs are correct, and writes a results JSON per workload:
//!
//! ```text
//! cargo run --release --manifest-path e2e-bench/Cargo.toml --bin wavm3-bench -- --seed 7 --out bench-out
//! ```
//!
//! `--workload NAME` runs one workload, `--trace 1` the traced pass, and
//! `wavm3-bench compare A B` compares two result sets. The definition —
//! workloads, metric units, directions, regression bounds and run length —
//! is the repository's `BENCHMARK.json`; `e2e-bench/BENCHMARK.md` explains
//! why each workload exists, how each per-layer metric maps onto the
//! end-to-end ones, how to run the traced pass, and how to compare two
//! commits.
//!
//! ## Workloads
//!
//! | name | what runs |
//! |---|---|
//! | `campaign-ripple` | the 68 Table IIa scenarios with a matmul VM, analytic path, `Fixed(300)` |
//! | `campaign-constant` | the 16 constant-demand scenarios, analytic path, `Fixed(1500)` |
//! | `reproduce-sampled` | all 84 scenarios on the sampled path under the paper's variance rule, then training and Table V/VII scoring |
//! | `serve-small` | an in-process `wavm3-serve` with 0.5–4 GiB migrants |
//! | `serve-large` | the same with 64 GiB–1 TiB migrants |
//!
//! Campaign workloads pin the rayon pool to one thread; the serve
//! workloads run `nproc` server workers against at most `nproc` sender
//! threads of the open-loop generator ([`openloop`]).
//!
//! ## End-to-end metrics (untraced runs)
//!
//! | metric | unit | batch workloads | serve workloads |
//! |---|---|---|---|
//! | `throughput_per_s` | 1/s | simulated runs per second of pass time | requests per second, closed loop with `nproc` senders |
//! | `latency_ms` | ms | time of one pass (campaign, or reproduction with training and scoring) | median latency from due time at 400 req/s |
//! | `tail_latency_ms` | ms | the slowest scenario's sweep | p99 of each second at 400 req/s, median over the seconds |
//! | `setup_s` | s | scenario list + `Campaign::new` + warm-up pass | request pool + oracle answers + `wavm3_serve::start` |
//! | `peak_rss_mb` | MB | `VmHWM` of the workload process | same |
//!
//! Batch times take each scenario's fastest sweep of the run, because
//! other tenants of a shared machine only ever slow a sweep down;
//! `setup_s` is the median of several set-ups within the run. Percentiles
//! are nearest rank on raw samples ([`summary`]).
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! Traced passes (batch, each followed by a layer-by-layer replay of its
//! runs) or a traced fixed-rate phase (serve), with spans recorded by the
//! benchmark around its calls into each crate's public functions
//! ([`spans`]). An *op* is one simulated run (batch) or one request
//! (serve):
//!
//! | metric | batch workloads | serve workloads |
//! |---|---|---|
//! | `engine_us_per_op` | `run_analytic_reusing` (campaign) / sampled `run()` (reproduce) | `ApiRequest::plan()` |
//! | `support_us_per_op` | `Scenario::build_with_config`, plus training and scoring (reproduce) | parse + `to_record` and 2× `predict_energy` + render |
//! | `overhead_us_per_op` | pass − the two above: the runner's own time | p50 − the two above: admission and transport |
//! | `engine_ns_per_step` | engine time per tick (analytic) or meter sample (sampled) | planner time per feature sample |
//! | `steps_per_op` | ticks `(me−ms)/tick` or meter samples per run | planner feature samples per request |
//! | `rounds_per_op` | pre-copy rounds per run | planned pre-copy rounds per request |
//! | `trace_overhead_pct` | traced pass against the untraced pass | traced phase p50 against the untraced p50 |
//!
//! For batch workloads engine + support + overhead equal the traced pass
//! per run by construction. The traced run also writes `layers.json`
//! (every layer metric under its crate-level name) and a Chrome
//! `trace.json` under `--out`. `BENCHMARK.md` maps each layer metric onto
//! the end-to-end metric and workload it should move.

pub mod batch;
pub mod compare;
pub mod digest;
pub mod openloop;
pub mod serve;
pub mod spans;
pub mod spec;
pub mod summary;

use spans::Tracer;

/// What one workload run is asked to do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// The benchmark's only input: seeds every generated scenario and
    /// request body.
    pub seed: u64,
    /// How long the run measures, seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Work multiplier for quick checks: scales measuring time,
    /// repetitions and request pools (1 = the benchmark as defined).
    pub scale: f64,
}

impl Settings {
    /// Measuring time after scaling.
    pub fn measure_s(&self) -> f64 {
        self.seconds * self.scale
    }

    /// `n` scaled, at least `min`.
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(min)
    }
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Operations attempted (scenarios for batch workloads, requests for
    /// serve workloads).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Every correctness problem found; empty when the outputs are right.
    pub problems: Vec<String>,
    /// The reported metrics, `(name, value)`, in definition order.
    pub metrics: Vec<(String, f64)>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// Traced runs: every layer metric under its crate-level name.
    pub layers: Vec<(String, f64)>,
    /// Traced runs: the recorded spans.
    pub tracer: Option<Tracer>,
}

impl Run {
    /// An empty run of `workload`.
    pub fn new(workload: &str) -> Run {
        Run {
            workload: workload.to_string(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: Vec::new(),
            lines: Vec::new(),
            layers: Vec::new(),
            tracer: None,
        }
    }

    /// `true` when every correctness check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// Record a correctness problem (capped so a systematic failure does
    /// not flood the report).
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 20 {
            self.problems.push(message);
        }
    }

    /// Set a reported metric.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Set a layer metric (traced runs).
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }

    /// Add a report line.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }
}

/// Run workload `name`.
pub fn run_workload(name: &str, settings: &Settings) -> Result<Run, String> {
    use batch::Batch;
    use serve::Size;
    match name {
        "campaign-ripple" => batch::run(Batch::Ripple, settings),
        "campaign-constant" => batch::run(Batch::Constant, settings),
        "reproduce-sampled" => batch::run(Batch::Reproduce, settings),
        "serve-small" => serve::run(Size::Small, settings),
        "serve-large" => serve::run(Size::Large, settings),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Peak resident set size of this process (`VmHWM`), megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Worker threads and sender threads for the serve workloads: one per
/// available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
