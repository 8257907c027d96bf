//! Deterministic load generator for the serving stack.
//!
//! Request *content*, chaos *fate* and *trace identity* are all pure
//! functions of `(seed, request id, attempt)`: bodies come from
//! per-request RNG streams, each attempt carries
//! `x-wavm3-chaos-key: "{id}:{attempt}"` so the server's chaos
//! middleware makes the same injection decisions on every rerun, and
//! each attempt stamps a derived `x-wavm3-trace-id` (plus a matching
//! W3C `traceparent`) so the server-side sampled span set is
//! reproducible too. With `concurrency = 1` the entire interaction
//! sequence is reproducible, which is what the golden test pins; at
//! higher concurrency, per-request outcomes are still
//! seed-deterministic but the interleaving (and therefore
//! breaker-coupled counts) is not.
//!
//! Client-side latency quantiles use the **same bucket ladder and
//! interpolating estimator** as the server's `serve.latency_ms`
//! histogram ([`buckets::LATENCY_MS`]), so the client's p50/p95/p99 and
//! the server's are directly comparable — the serve-smoke gate asserts
//! they agree to within a bucket.

use crate::http;
use rand::Rng;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wavm3_harness::Wavm3Error;
use wavm3_models::{EnergyModel, HostRole};
use wavm3_obs::metrics::{buckets, HistogramSnapshot};
use wavm3_obs::reqtrace::TraceId;
use wavm3_simkit::RngFactory;

/// Client retry schedule (wall-clock milliseconds; exponential + jitter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryConfig {
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Pause before the first retry, milliseconds.
    pub base_backoff_ms: f64,
    /// Growth factor per further retry.
    pub multiplier: f64,
    /// Uniform jitter added to each pause, `[0, max_jitter_ms]`.
    pub max_jitter_ms: f64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            max_attempts: 4,
            base_backoff_ms: 20.0,
            multiplier: 2.0,
            max_jitter_ms: 10.0,
        }
    }
}

impl RetryConfig {
    /// Reject zero attempts and NaN / non-finite / negative backoff
    /// parameters — the same config-error discipline (exit code 2) as
    /// the simulated `wavm3_faults::RetryPolicy`.
    pub fn validate(&self) -> Result<(), Wavm3Error> {
        if self.max_attempts == 0 {
            return Err(Wavm3Error::invalid_config(
                "loadgen.retry.max_attempts",
                "must allow at least one attempt",
            ));
        }
        if !self.base_backoff_ms.is_finite() || self.base_backoff_ms < 0.0 {
            return Err(Wavm3Error::invalid_config(
                "loadgen.retry.base_backoff_ms",
                format!(
                    "must be finite and non-negative, got {}",
                    self.base_backoff_ms
                ),
            ));
        }
        if !self.multiplier.is_finite() || self.multiplier < 1.0 {
            return Err(Wavm3Error::invalid_config(
                "loadgen.retry.multiplier",
                format!(
                    "backoff growth factor must be >= 1, got {}",
                    self.multiplier
                ),
            ));
        }
        if !self.max_jitter_ms.is_finite() || self.max_jitter_ms < 0.0 {
            return Err(Wavm3Error::invalid_config(
                "loadgen.retry.max_jitter_ms",
                format!(
                    "must be finite and non-negative, got {}",
                    self.max_jitter_ms
                ),
            ));
        }
        let worst = self.base_backoff_ms * self.multiplier.powi(self.max_attempts as i32 - 1);
        if !worst.is_finite() {
            return Err(Wavm3Error::invalid_config(
                "loadgen.retry.multiplier",
                "worst-case backoff overflows f64",
            ));
        }
        Ok(())
    }

    /// Pause before retry `attempt` (1-based), without jitter. Capped at
    /// 60 s so a generous schedule cannot wedge the generator.
    pub fn backoff_ms(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        (self.base_backoff_ms * self.multiplier.powi(attempt as i32 - 1)).min(60_000.0)
    }
}

/// Which endpoint(s) to exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// `POST /predict` only.
    Predict,
    /// `POST /plan` only.
    Plan,
    /// Alternate between them by request id.
    Mixed,
}

/// Load-generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Total requests to issue.
    pub requests: u64,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Request rate limit, requests/second (0 = unthrottled).
    pub rps: f64,
    /// Seed for bodies, chaos keys, and jitter.
    pub seed: u64,
    /// Deadline header attached to every request, milliseconds.
    pub deadline_ms: u64,
    /// Retry schedule.
    pub retry: RetryConfig,
    /// Endpoint mix.
    pub target: Target,
    /// Attach seeded ground-truth energies (`truth_*_energy_j`) to every
    /// body so the server's online drift monitor has residuals to chew
    /// on. Truth is the paper model's own prediction perturbed by a
    /// seeded ±3%, so a correctly fitted server stays healthy and a
    /// mis-fitted one drifts.
    pub truth: bool,
    /// Write a per-attempt JSONL log (id, attempt, trace id, path,
    /// status, outcome), sorted by `(id, attempt)` so it is
    /// seed-deterministic regardless of concurrency.
    pub log_out: Option<PathBuf>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".to_string(),
            requests: 100,
            concurrency: 4,
            rps: 0.0,
            seed: 42,
            deadline_ms: 2_000,
            retry: RetryConfig::default(),
            target: Target::Mixed,
            truth: false,
            log_out: None,
        }
    }
}

impl LoadgenConfig {
    /// Reject empty workloads and invalid retry schedules (exit code 2).
    pub fn validate(&self) -> Result<(), Wavm3Error> {
        if self.requests == 0 {
            return Err(Wavm3Error::invalid_config(
                "loadgen.requests",
                "must issue at least one request",
            ));
        }
        if self.concurrency == 0 {
            return Err(Wavm3Error::invalid_config(
                "loadgen.concurrency",
                "must use at least one client thread",
            ));
        }
        if !self.rps.is_finite() || self.rps < 0.0 {
            return Err(Wavm3Error::invalid_config(
                "loadgen.rps",
                format!("must be finite and non-negative, got {}", self.rps),
            ));
        }
        if self.deadline_ms == 0 {
            return Err(Wavm3Error::invalid_config(
                "loadgen.deadline_ms",
                "a zero deadline fails every request",
            ));
        }
        self.retry.validate()
    }
}

/// Aggregated outcome of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Requests issued (== configured `requests`).
    pub sent: u64,
    /// Requests that ended in a 200.
    pub ok: u64,
    /// 200s served from the degraded fast path.
    pub degraded: u64,
    /// 429 responses observed (each one retried).
    pub shed_seen: u64,
    /// 5xx responses observed (each one retried).
    pub server_errors_seen: u64,
    /// Connect/read failures observed (each one retried).
    pub connection_errors: u64,
    /// Retry attempts performed.
    pub retries: u64,
    /// Terminal 4xx responses (client bugs; not retried).
    pub client_errors: u64,
    /// Requests that exhausted every attempt without a 200 — the
    /// "client-visible errors" the chaos CI gate requires to be zero.
    pub failed: u64,
    /// Final-attempt latency quantiles, milliseconds (0 when nothing
    /// succeeded).
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
}

impl LoadReport {
    /// The seed-deterministic slice of the report: everything except the
    /// wall-clock latency quantiles. Two runs with the same seed and
    /// `concurrency = 1` against identically configured servers are
    /// equal on this tuple.
    pub fn deterministic_counts(&self) -> (u64, u64, u64, u64, u64, u64, u64, u64, u64) {
        (
            self.sent,
            self.ok,
            self.degraded,
            self.shed_seen,
            self.server_errors_seen,
            self.connection_errors,
            self.retries,
            self.client_errors,
            self.failed,
        )
    }
}

#[derive(Default)]
struct Counters {
    ok: AtomicU64,
    degraded: AtomicU64,
    shed_seen: AtomicU64,
    server_errors_seen: AtomicU64,
    connection_errors: AtomicU64,
    retries: AtomicU64,
    client_errors: AtomicU64,
    failed: AtomicU64,
}

/// Deterministic request body for `id` under `seed`. With `truth` the
/// body additionally carries seeded ground-truth energies.
fn body_for(seed: u64, id: u64, truth: bool) -> String {
    let mut rng = RngFactory::new(seed).child(id).stream("loadgen.body");
    let ram_mib = 512 * rng.gen_range(1u64..=8);
    let kind = match rng.gen_range(0u32..3) {
        0 => "live",
        1 => "non_live",
        _ => "post_copy",
    };
    let cpu: f64 = rng.gen_range(0.1..0.9);
    let base =
        format!("{{\"kind\": \"{kind}\", \"ram_mib\": {ram_mib}, \"vm_cpu_fraction\": {cpu:.3}}}");
    if !truth {
        return base;
    }
    truth_body(seed, id, &base).unwrap_or(base)
}

/// Extend `base` with ground-truth energies: the paper model's own
/// prediction for this workload, perturbed by a seeded uniform ±3%.
/// Against a server running the same (default) coefficients the
/// residual NRMSE sits well under every Table VII baseline; against
/// deliberately mis-fitted coefficients the drift monitor trips.
fn truth_body(seed: u64, id: u64, base: &str) -> Option<String> {
    let value: serde::Value = serde_json::from_str(base).ok()?;
    let req = crate::api::ApiRequest::from_value(&value).ok()?;
    let record = req.plan().to_record();
    let model = match req.kind_label() {
        "non_live" => wavm3_models::paper::wavm3_non_live(),
        _ => wavm3_models::paper::wavm3_live(),
    };
    let mut rng = RngFactory::new(seed).child(id).stream("loadgen.truth");
    let mut noisy = |role: HostRole| {
        let predicted = model.predict_energy(role, &record);
        let noise: f64 = rng.gen_range(-0.03..=0.03);
        (predicted * (1.0 + noise)).max(1e-3)
    };
    let source = noisy(HostRole::Source);
    let target = noisy(HostRole::Target);
    let trimmed = base.trim_end().strip_suffix('}')?;
    Some(format!(
        "{trimmed}, \"truth_source_energy_j\": {source:.6}, \"truth_target_energy_j\": {target:.6}}}"
    ))
}

fn path_for(target: Target, id: u64) -> &'static str {
    match target {
        Target::Predict => "/predict",
        Target::Plan => "/plan",
        Target::Mixed => {
            if id.is_multiple_of(2) {
                "/predict"
            } else {
                "/plan"
            }
        }
    }
}

/// One attempt's worth of client-side evidence, joinable with the
/// server's access log / spans / exemplars by `trace_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct LogEntry {
    id: u64,
    attempt: u32,
    trace_id: String,
    path: &'static str,
    /// HTTP status of the attempt; 0 when the connection failed.
    status: u16,
    outcome: &'static str,
}

impl LogEntry {
    fn to_jsonl(&self) -> String {
        format!(
            "{{\"id\":{},\"attempt\":{},\"trace_id\":\"{}\",\"path\":\"{}\",\"status\":{},\"outcome\":\"{}\"}}",
            self.id, self.attempt, self.trace_id, self.path, self.status, self.outcome
        )
    }
}

/// Shared mutable run state: final-attempt latencies bucketed on the
/// server's ladder, plus the per-attempt log.
struct RunState {
    latencies: Mutex<HistogramSnapshot>,
    log: Mutex<Vec<LogEntry>>,
}

/// Run the configured load against the server and aggregate the outcome.
pub fn run(cfg: &LoadgenConfig) -> Result<LoadReport, Wavm3Error> {
    cfg.validate()?;
    let counters = Arc::new(Counters::default());
    let state = Arc::new(RunState {
        latencies: Mutex::new(HistogramSnapshot::new(buckets::LATENCY_MS)),
        log: Mutex::new(Vec::new()),
    });
    let next_id = Arc::new(AtomicU64::new(0));
    let started = Instant::now();

    let threads: Vec<_> = (0..cfg.concurrency)
        .map(|_| {
            let cfg = cfg.clone();
            let counters = Arc::clone(&counters);
            let state = Arc::clone(&state);
            let next_id = Arc::clone(&next_id);
            std::thread::spawn(move || loop {
                let id = next_id.fetch_add(1, Ordering::SeqCst);
                if id >= cfg.requests {
                    return;
                }
                if cfg.rps > 0.0 {
                    let due = started + Duration::from_secs_f64(id as f64 / cfg.rps);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                }
                issue_request(&cfg, id, &counters, &state);
            })
        })
        .collect();
    for t in threads {
        t.join().expect("loadgen thread panicked");
    }

    if let Some(path) = &cfg.log_out {
        let mut log = state.log.lock().expect("log poisoned");
        log.sort_by_key(|e| (e.id, e.attempt));
        let mut text = String::new();
        for entry in log.iter() {
            text.push_str(&entry.to_jsonl());
            text.push('\n');
        }
        std::fs::write(path, text).map_err(|e| {
            Wavm3Error::invalid_config("loadgen.log_out", format!("cannot write {path:?}: {e}"))
        })?;
    }

    let lat = state.latencies.lock().expect("latencies poisoned");
    let quantile = |q: f64| lat.quantile(q).unwrap_or(0.0);
    let load = |c: &AtomicU64| c.load(Ordering::SeqCst);
    Ok(LoadReport {
        sent: cfg.requests,
        ok: load(&counters.ok),
        degraded: load(&counters.degraded),
        shed_seen: load(&counters.shed_seen),
        server_errors_seen: load(&counters.server_errors_seen),
        connection_errors: load(&counters.connection_errors),
        retries: load(&counters.retries),
        client_errors: load(&counters.client_errors),
        failed: load(&counters.failed),
        p50_ms: quantile(0.50),
        p95_ms: quantile(0.95),
        p99_ms: quantile(0.99),
    })
}

fn issue_request(cfg: &LoadgenConfig, id: u64, counters: &Counters, state: &RunState) {
    let body = body_for(cfg.seed, id, cfg.truth);
    let path = path_for(cfg.target, id);
    let mut jitter_rng = RngFactory::new(cfg.seed).child(id).stream("loadgen.jitter");

    for attempt in 0..cfg.retry.max_attempts {
        let attempt_started = Instant::now();
        let (outcome, status) = one_attempt(cfg, path, &body, id, attempt);
        state.log.lock().expect("log poisoned").push(LogEntry {
            id,
            attempt,
            trace_id: TraceId::derive(cfg.seed, id, attempt).as_hex(),
            path,
            status,
            outcome: outcome.label(),
        });
        match outcome {
            AttemptOutcome::Ok { degraded } => {
                counters.ok.fetch_add(1, Ordering::SeqCst);
                if degraded {
                    counters.degraded.fetch_add(1, Ordering::SeqCst);
                }
                state
                    .latencies
                    .lock()
                    .expect("latencies poisoned")
                    .observe(attempt_started.elapsed().as_secs_f64() * 1e3);
                return;
            }
            AttemptOutcome::ClientError => {
                counters.client_errors.fetch_add(1, Ordering::SeqCst);
                counters.failed.fetch_add(1, Ordering::SeqCst);
                return;
            }
            AttemptOutcome::Shed => {
                counters.shed_seen.fetch_add(1, Ordering::SeqCst);
            }
            AttemptOutcome::ServerError => {
                counters.server_errors_seen.fetch_add(1, Ordering::SeqCst);
            }
            AttemptOutcome::ConnectionError => {
                counters.connection_errors.fetch_add(1, Ordering::SeqCst);
            }
        }
        if attempt + 1 < cfg.retry.max_attempts {
            counters.retries.fetch_add(1, Ordering::SeqCst);
            let jitter: f64 = if cfg.retry.max_jitter_ms > 0.0 {
                jitter_rng.gen_range(0.0..=cfg.retry.max_jitter_ms)
            } else {
                0.0
            };
            let pause = cfg.retry.backoff_ms(attempt + 1) + jitter;
            std::thread::sleep(Duration::from_secs_f64(pause / 1e3));
        }
    }
    counters.failed.fetch_add(1, Ordering::SeqCst);
}

enum AttemptOutcome {
    Ok { degraded: bool },
    Shed,
    ServerError,
    ClientError,
    ConnectionError,
}

impl AttemptOutcome {
    fn label(&self) -> &'static str {
        match self {
            AttemptOutcome::Ok { degraded: false } => "ok",
            AttemptOutcome::Ok { degraded: true } => "ok_degraded",
            AttemptOutcome::Shed => "shed",
            AttemptOutcome::ServerError => "server_error",
            AttemptOutcome::ClientError => "client_error",
            AttemptOutcome::ConnectionError => "connection_error",
        }
    }
}

fn one_attempt(
    cfg: &LoadgenConfig,
    path: &str,
    body: &str,
    id: u64,
    attempt: u32,
) -> (AttemptOutcome, u16) {
    let stream = TcpStream::connect(&cfg.addr);
    let mut stream = match stream {
        Ok(s) => s,
        Err(_) => return (AttemptOutcome::ConnectionError, 0),
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let trace_id = TraceId::derive(cfg.seed, id, attempt).as_hex();
    let headers = [
        ("x-wavm3-chaos-key", format!("{id}:{attempt}")),
        ("x-wavm3-deadline-ms", cfg.deadline_ms.to_string()),
        ("x-wavm3-trace-id", trace_id.clone()),
        (
            "traceparent",
            format!(
                "00-{trace_id}-{}-01",
                TraceId::derived_span_hex(cfg.seed, id, attempt)
            ),
        ),
    ];
    let response = match http::roundtrip(&mut stream, "POST", path, &headers, body.as_bytes()) {
        Ok(r) => r,
        Err(_) => return (AttemptOutcome::ConnectionError, 0),
    };
    let outcome = match response.status {
        200 => {
            let degraded = serde_json::from_str::<serde::Value>(&response.body_text())
                .ok()
                .and_then(|v| match v.get("degraded") {
                    Some(serde::Value::Bool(b)) => Some(*b),
                    _ => None,
                })
                .unwrap_or(false);
            AttemptOutcome::Ok { degraded }
        }
        429 => AttemptOutcome::Shed,
        500..=599 => AttemptOutcome::ServerError,
        _ => AttemptOutcome::ClientError,
    };
    (outcome, response.status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_deterministic_per_seed_and_id() {
        assert_eq!(body_for(7, 3, false), body_for(7, 3, false));
        assert_ne!(body_for(7, 3, false), body_for(7, 4, false));
        assert_ne!(body_for(7, 3, false), body_for(8, 3, false));
    }

    #[test]
    fn truth_bodies_carry_plausible_ground_truth() {
        let body = body_for(7, 3, true);
        assert_eq!(body, body_for(7, 3, true), "truth bodies are seeded");
        let v: serde::Value = serde_json::from_str(&body).unwrap();
        let req = crate::api::ApiRequest::from_value(&v).unwrap();
        let (truth_s, truth_t) = (
            req.truth_source_energy_j.expect("source truth"),
            req.truth_target_energy_j.expect("target truth"),
        );
        // Truth is the paper model's own prediction within ±3%.
        let record = req.plan().to_record();
        let model = match req.kind_label() {
            "non_live" => wavm3_models::paper::wavm3_non_live(),
            _ => wavm3_models::paper::wavm3_live(),
        };
        for (role, truth) in [(HostRole::Source, truth_s), (HostRole::Target, truth_t)] {
            let predicted = model.predict_energy(role, &record);
            let rel = (truth - predicted).abs() / predicted;
            assert!(
                rel <= 0.031,
                "{role:?}: truth {truth} vs predicted {predicted}"
            );
        }
    }

    #[test]
    fn log_entries_render_compact_jsonl() {
        let entry = LogEntry {
            id: 3,
            attempt: 1,
            trace_id: TraceId::derive(7, 3, 1).as_hex(),
            path: "/plan",
            status: 429,
            outcome: "shed",
        };
        let line = entry.to_jsonl();
        assert!(line.starts_with("{\"id\":3,\"attempt\":1,\"trace_id\":\""));
        assert!(line.ends_with("\",\"path\":\"/plan\",\"status\":429,\"outcome\":\"shed\"}"));
        // The line is valid JSON and round-trips the trace id.
        let v: serde::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(
            v.get("trace_id").unwrap().as_str(),
            Some(entry.trace_id.as_str())
        );
    }

    #[test]
    fn client_quantiles_use_the_server_bucket_ladder() {
        let mut hist = HistogramSnapshot::new(buckets::LATENCY_MS);
        for v in [0.7, 0.8, 1.5, 3.0, 40.0] {
            hist.observe(v);
        }
        let p50 = hist.quantile(0.50).unwrap();
        assert!(p50 <= 2.0, "p50 within the 2ms bucket, got {p50}");
        let p99 = hist.quantile(0.99).unwrap();
        assert!(
            (20.0..=50.0).contains(&p99),
            "p99 in the 50ms bucket, got {p99}"
        );
    }

    #[test]
    fn retry_validation_rejects_nonsense_as_config_errors() {
        for bad in [
            RetryConfig {
                max_attempts: 0,
                ..RetryConfig::default()
            },
            RetryConfig {
                base_backoff_ms: f64::NAN,
                ..RetryConfig::default()
            },
            RetryConfig {
                base_backoff_ms: -1.0,
                ..RetryConfig::default()
            },
            RetryConfig {
                multiplier: f64::INFINITY,
                ..RetryConfig::default()
            },
            RetryConfig {
                multiplier: 0.5,
                ..RetryConfig::default()
            },
            RetryConfig {
                max_jitter_ms: f64::NEG_INFINITY,
                ..RetryConfig::default()
            },
            RetryConfig {
                max_attempts: 50,
                multiplier: 1e40,
                ..RetryConfig::default()
            },
        ] {
            let err = bad.validate().expect_err("invalid retry config");
            assert!(err.is_config_error(), "{err}");
        }
        assert!(RetryConfig::default().validate().is_ok());
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let retry = RetryConfig {
            max_attempts: 8,
            base_backoff_ms: 10.0,
            multiplier: 2.0,
            max_jitter_ms: 0.0,
        };
        assert_eq!(retry.backoff_ms(0), 0.0);
        assert_eq!(retry.backoff_ms(1), 10.0);
        assert_eq!(retry.backoff_ms(3), 40.0);
        let huge = RetryConfig {
            multiplier: 1e6,
            ..retry
        };
        assert_eq!(huge.backoff_ms(7), 60_000.0);
    }
}
