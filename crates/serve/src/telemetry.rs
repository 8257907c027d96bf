//! Per-request telemetry glue: trace lifecycle, RED recording, access
//! logs, exemplars, drift, and drain-time exports.
//!
//! [`Telemetry`] is the one object the server threads share. Every
//! finished request flows through [`Telemetry::finish`], which samples
//! it once and fans the record out to:
//!
//! * the **RED families** `serve.red.{route}.{class}.duration_ms`
//!   (only for real work routes — `/metrics`, `/healthz` and the debug
//!   endpoints stay out of the registry so a scrape never perturbs the
//!   exposition it is rendering);
//! * **exemplars** — every error-class observation pins its trace id to
//!   the bucket it landed in; tail-slow successes attach an unpinned
//!   (latest-wins) exemplar;
//! * the **access log** — one `key=value` line per request carrying
//!   every join key the correlation checker needs;
//! * the **trace collector** — when armed, the tail-sampled span tree.

use crate::config::ObsOptions;
use crate::http::Request;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use wavm3_harness::Wavm3Error;
use wavm3_models::paper::TABLE_VII_NRMSE;
use wavm3_obs::metrics::{buckets, Registry};
use wavm3_obs::reqtrace::{
    resolve, ReqRecord, ReqTrace, SampleDecision, TailSampler, TraceCollector, TraceId,
};
use wavm3_obs::slo::{self, DriftMonitor, DriftState, SloConfig, SloReport, ERROR_CLASSES};

/// Map a request path to its stable route label.
pub fn route_label(path: &str) -> &'static str {
    match path {
        "/predict" => "predict",
        "/plan" => "plan",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/debug/slo" => "debug_slo",
        "/debug/metrics" => "debug_metrics",
        _ => "other",
    }
}

/// Routes whose outcomes are recorded in RED families. Introspection
/// routes are excluded by design: `/metrics` must never mutate the
/// registry it renders (the exposition is byte-stable while quiescent).
fn red_route(route: &str) -> bool {
    matches!(route, "predict" | "plan" | "other")
}

/// Sanitise a value for a `key=value` access-log token: whitespace,
/// `"` and `=` become `_` so the line stays splittable no matter what
/// the client put in its headers.
fn token(s: &str) -> String {
    let mut out: String = s
        .chars()
        .map(|c| {
            if c.is_whitespace() || c == '"' || c == '=' || c.is_control() {
                '_'
            } else {
                c
            }
        })
        .collect();
    if out.is_empty() {
        out.push('-');
    }
    out
}

/// Shared observability state for one server.
pub struct Telemetry {
    collector: Option<TraceCollector>,
    sampler: TailSampler,
    access: Option<Mutex<BufWriter<File>>>,
    drift: DriftMonitor,
    slo: SloConfig,
    trace_out: Option<PathBuf>,
    fallback_nonce: u64,
    fallback_counter: AtomicU64,
}

impl Telemetry {
    /// Build from validated [`ObsOptions`]; opens the access log and
    /// creates the trace-out directory eagerly so misconfiguration
    /// fails at startup, not at drain.
    pub fn new(opts: &ObsOptions) -> Result<Telemetry, Wavm3Error> {
        let access = match &opts.access_log {
            None => None,
            Some(path) => {
                let file = File::create(path).map_err(|e| {
                    Wavm3Error::invalid_config(
                        "serve.obs.access_log",
                        format!("cannot create {}: {e}", path.display()),
                    )
                })?;
                Some(Mutex::new(BufWriter::new(file)))
            }
        };
        if let Some(dir) = &opts.trace_out {
            std::fs::create_dir_all(dir).map_err(|e| {
                Wavm3Error::invalid_config(
                    "serve.obs.trace_out",
                    format!("cannot create {}: {e}", dir.display()),
                )
            })?;
        }
        Ok(Telemetry {
            collector: opts.tracing_armed().then(TraceCollector::new),
            sampler: opts.sampler,
            access,
            drift: DriftMonitor::new(opts.drift, table_vii_baselines(), 11.8),
            slo: opts.slo,
            trace_out: opts.trace_out.clone(),
            fallback_nonce: opts.sampler.seed ^ 0x7a3e_77a7_5e12_f00d,
            fallback_counter: AtomicU64::new(0),
        })
    }

    /// Open a request trace: resolve the client's trace headers (never
    /// failing — malformed ids fall back to a server-generated one) and
    /// reconstruct the queue span `[0, queue_us]`.
    pub fn begin(
        &self,
        request: Option<&Request>,
        accepted_at: Instant,
        queue_us: u64,
    ) -> ReqTrace {
        let counter = self.fallback_counter.fetch_add(1, Ordering::Relaxed);
        let (id, client_supplied) = match request {
            Some(r) => resolve(
                r.header("x-wavm3-trace-id"),
                r.header("traceparent"),
                self.fallback_nonce,
                counter,
            ),
            None => (
                TraceId::server_generated(self.fallback_nonce, counter),
                false,
            ),
        };
        let mut trace = ReqTrace::begin(id, client_supplied, accepted_at);
        trace.set_queue_us(queue_us);
        trace.enter_at("queue", 0);
        trace.exit_at(queue_us);
        trace
    }

    /// Close a request: RED + exemplars, access log, trace collection.
    /// Returns the sampling decision (stamped into the access log too).
    pub fn finish(&self, registry: &Registry, trace: ReqTrace) -> SampleDecision {
        let record = trace.finish();
        let total_ms = record.total_us as f64 / 1e3;
        if red_route(&record.route) {
            let metric = slo::red_metric(&record.route, record.class());
            if ERROR_CLASSES.contains(&record.class()) {
                registry.observe_with_exemplar(
                    &metric,
                    buckets::LATENCY_MS,
                    total_ms,
                    &record.trace_id.as_hex(),
                    true,
                );
            } else if record.class() == "2xx" && total_ms >= self.sampler.tail_latency_ms {
                registry.observe_with_exemplar(
                    &metric,
                    buckets::LATENCY_MS,
                    total_ms,
                    &record.trace_id.as_hex(),
                    false,
                );
            } else {
                registry.observe(&metric, buckets::LATENCY_MS, total_ms);
            }
        }
        let decision = self.sampler.decide(&record);
        self.log_access(&record, decision);
        if let Some(collector) = &self.collector {
            collector.record(record, decision);
        }
        decision
    }

    fn log_access(&self, r: &ReqRecord, decision: SampleDecision) {
        let Some(access) = &self.access else {
            return;
        };
        let line = format!(
            "trace_id={} route={} status={} class={} queue_us={} total_us={} \
             breaker={} breaker_transition={} chaos_key={} deadline_remaining_ms={} \
             degraded={} client_trace={} sampled={}",
            r.trace_id.as_hex(),
            token(&r.route),
            r.status,
            r.class(),
            r.queue_us,
            r.total_us,
            token(&r.breaker),
            r.breaker_transition,
            token(&r.chaos_key),
            r.deadline_remaining_ms,
            r.degraded,
            r.client_supplied,
            decision.label(),
        );
        let mut writer = access.lock().unwrap_or_else(|p| p.into_inner());
        let _ = writeln!(writer, "{line}");
    }

    /// Stream one `(predicted, truth)` energy pair into the drift
    /// monitor and mirror the window state into gauges.
    pub fn record_drift(
        &self,
        registry: &Registry,
        kind: &str,
        role: &str,
        predicted: f64,
        truth: f64,
    ) {
        let key = format!("{kind}.{role}");
        if let Some(state) = self.drift.record(&key, predicted, truth) {
            registry.counter_add("serve.drift.samples", 1);
            registry.gauge_set(&format!("serve.drift.{key}.nrmse_pct"), state.nrmse_pct);
            registry.gauge_set(
                &format!("serve.drift.{key}.degraded"),
                if state.degraded { 1.0 } else { 0.0 },
            );
        }
    }

    /// Drift keys currently degraded (the `/healthz` payload).
    pub fn degraded_keys(&self) -> Vec<String> {
        self.drift.degraded_keys()
    }

    /// Every drift window's current state.
    pub fn drift_states(&self) -> Vec<DriftState> {
        self.drift.states()
    }

    /// Score the registry's RED families against the configured SLOs.
    pub fn slo_report(&self, registry: &Registry) -> SloReport {
        slo::evaluate(&registry.snapshot(), &self.slo)
    }

    /// `/metrics` body: refresh the SLO burn-rate gauges from the RED
    /// counts, then render with exemplars. The gauges are deterministic
    /// functions of the counts, so a snapshot taken after the scrape
    /// renders byte-identically to the scrape body.
    pub fn render_metrics(&self, registry: &Registry) -> String {
        let report = self.slo_report(registry);
        for (name, value) in report.gauges() {
            registry.gauge_set(&name, value);
        }
        registry
            .snapshot()
            .to_prometheus_text_with_exemplars(&registry.exemplars())
    }

    /// Timing-free canonical projection of the sampled traces (the
    /// determinism surface), `None` when tracing is disarmed.
    pub fn canonical_export(&self) -> Option<String> {
        self.collector.as_ref().map(|c| c.export_canonical())
    }

    /// JSONL span export, `None` when tracing is disarmed.
    pub fn jsonl_export(&self) -> Option<String> {
        self.collector.as_ref().map(|c| c.export_jsonl())
    }

    /// Drain-time export: flush the access log, stamp the sampling
    /// totals into counters, and write `spans.jsonl` / `trace.json` /
    /// `canonical.txt` under the configured trace-out directory.
    pub fn export(&self, registry: &Registry) {
        if let Some(access) = &self.access {
            let _ = access.lock().unwrap_or_else(|p| p.into_inner()).flush();
        }
        let Some(collector) = &self.collector else {
            return;
        };
        let (recorded, dropped) = collector.totals();
        registry.counter_add("serve.trace.recorded", recorded);
        registry.counter_add("serve.trace.sampled", recorded - dropped);
        if let Some(dir) = &self.trace_out {
            let _ = std::fs::write(dir.join("spans.jsonl"), collector.export_jsonl());
            let _ = std::fs::write(dir.join("trace.json"), collector.export_chrome());
            let _ = std::fs::write(dir.join("canonical.txt"), collector.export_canonical());
        }
    }
}

/// Table VII NRMSE baselines for the fitted model, keyed `{kind}.{role}`
/// — post-copy reuses the live fit (same phase structure).
fn table_vii_baselines() -> Vec<(String, f64)> {
    let mut out = Vec::with_capacity(6);
    for row in TABLE_VII_NRMSE.iter().filter(|r| r.model == "WAVM3") {
        out.push((format!("live.{}", row.host), row.live_pct));
        out.push((format!("post_copy.{}", row.host), row.live_pct));
        out.push((format!("non_live.{}", row.host), row.non_live_pct));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ObsOptions;
    use std::time::Instant;
    use wavm3_obs::reqtrace::status_class;

    fn telemetry(opts: &ObsOptions) -> Telemetry {
        Telemetry::new(opts).expect("telemetry builds")
    }

    #[test]
    fn route_labels_cover_every_endpoint() {
        assert_eq!(route_label("/predict"), "predict");
        assert_eq!(route_label("/plan"), "plan");
        assert_eq!(route_label("/metrics"), "metrics");
        assert_eq!(route_label("/healthz"), "healthz");
        assert_eq!(route_label("/debug/slo"), "debug_slo");
        assert_eq!(route_label("/debug/metrics"), "debug_metrics");
        assert_eq!(route_label("/nope"), "other");
    }

    #[test]
    fn tokens_stay_splittable() {
        assert_eq!(token("7:0"), "7:0");
        assert_eq!(token("a key=\"x\"\n"), "a_key__x__");
        assert_eq!(token(""), "-");
    }

    #[test]
    fn finish_records_red_only_for_work_routes() {
        let tele = telemetry(&ObsOptions::default());
        let registry = Registry::new();
        let t0 = Instant::now();

        let mut ok = tele.begin(None, t0, 5);
        ok.set_route("predict");
        ok.set_status(200);
        tele.finish(&registry, ok);

        let mut scrape = tele.begin(None, t0, 0);
        scrape.set_route("metrics");
        scrape.set_status(200);
        tele.finish(&registry, scrape);

        let snapshot = registry.snapshot();
        assert!(snapshot
            .histograms
            .contains_key("serve.red.predict.2xx.duration_ms"));
        assert!(!snapshot.histograms.keys().any(|k| k.contains("metrics")));
    }

    #[test]
    fn error_finishes_pin_exemplars() {
        let tele = telemetry(&ObsOptions::default());
        let registry = Registry::new();
        let mut shed = tele.begin(None, Instant::now(), 0);
        shed.set_route("predict");
        shed.set_status(429);
        tele.finish(&registry, shed);
        assert_eq!(status_class(429), "429");
        let exemplars = registry.exemplars();
        let attached = exemplars
            .get("serve.red.predict.429.duration_ms")
            .expect("shed exemplar attached");
        assert_eq!(attached.len(), 1);
        assert!(attached[0].pinned);
    }

    #[test]
    fn drift_baselines_come_from_table_vii() {
        let baselines = table_vii_baselines();
        let get = |k: &str| {
            baselines
                .iter()
                .find(|(key, _)| key == k)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("live.source"), 11.8);
        assert_eq!(get("live.target"), 5.0);
        assert_eq!(get("non_live.target"), 12.0);
        assert_eq!(get("post_copy.source"), get("live.source"));
    }

    #[test]
    fn render_metrics_is_stable_across_scrapes() {
        let tele = telemetry(&ObsOptions::default());
        let registry = Registry::new();
        let mut ok = tele.begin(None, Instant::now(), 1);
        ok.set_route("plan");
        ok.set_status(200);
        tele.finish(&registry, ok);
        let first = tele.render_metrics(&registry);
        let second = tele.render_metrics(&registry);
        assert_eq!(first, second);
        assert!(first.contains("serve_slo_worst_burn_rate"), "{first}");
        // The body matches a snapshot taken after the scrape.
        assert_eq!(
            second,
            registry
                .snapshot()
                .to_prometheus_text_with_exemplars(&registry.exemplars())
        );
    }
}
