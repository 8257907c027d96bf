//! Metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! ## Determinism
//!
//! Counters and histogram bucket counts accumulate with integer addition
//! and histogram sums accumulate in fixed-point microunits, so totals are
//! independent of the order parallel workers contribute in — a snapshot of
//! a seeded campaign is reproducible across thread counts. Gauges are
//! last-write-wins and should only be set from deterministic points (or
//! carry explicitly non-reproducible data such as wall-clock throughput,
//! which the conventions below confine to the `runner.*` namespace).
//!
//! The process-wide registry (fed through [`counter_add`] & friends) is
//! armed by an installed [`Session`](crate::Session) with `metrics: true`;
//! without one the free functions are a single relaxed atomic load.

use crate::session;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Well-known histogram bucket ladders.
pub mod buckets {
    /// Durations in seconds (phase lengths, downtime): 100 ms … 500 s.
    pub const DURATION_S: &[f64] = &[
        0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    ];
    /// Energies in kilojoules: 0.1 kJ … 100 kJ.
    pub const ENERGY_KJ: &[f64] = &[0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0];
    /// Absolute residuals in percent of the observed value: 1 % … 100 %.
    pub const RESIDUAL_PCT: &[f64] = &[1.0, 2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 50.0, 100.0];
    /// Absolute power residuals in watts: 0.5 W … 200 W.
    pub const POWER_W: &[f64] = &[0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0];
    /// Request latencies in milliseconds (serving paths): 0.5 ms … 5 s.
    pub const LATENCY_MS: &[f64] = &[
        0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
    ];
}

/// Fixed-point scale for deterministic histogram sums (microunits).
const SUM_SCALE: f64 = 1e6;

/// One histogram's state: counts per bucket plus a fixed-point sum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Inclusive upper bounds; one final overflow bucket is implicit.
    pub bounds: Vec<f64>,
    /// Sample counts, `bounds.len() + 1` entries (last = overflow).
    pub counts: Vec<u64>,
    /// Total samples observed.
    pub count: u64,
    /// Sum of samples in fixed-point microunits (deterministic across
    /// accumulation orders, unlike a float sum).
    pub sum_micro: i64,
}

impl HistogramSnapshot {
    /// An empty histogram over `bounds` (public so clients — e.g. the
    /// load generator — can aggregate with the *same* estimator the
    /// server exposes and quantiles stay comparable bucket-for-bucket).
    pub fn new(bounds: &[f64]) -> Self {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum_micro: 0,
        }
    }

    /// Record one sample (inclusive upper-bound bucketing).
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum_micro += (value * SUM_SCALE).round() as i64;
        }
    }

    /// Sum of observed samples (decoded from fixed point).
    pub fn sum(&self) -> f64 {
        self.sum_micro as f64 / SUM_SCALE
    }

    /// Mean observed sample, or `None` before any observation (so an
    /// empty histogram can never leak NaN into snapshots or exposition).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum() / self.count as f64)
        }
    }

    /// Estimate the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear
    /// interpolation within the bucket containing the target rank —
    /// the same estimator as Prometheus' `histogram_quantile`.
    ///
    /// The first bucket's lower edge is taken as `min(bound, 0)`;
    /// samples in the overflow bucket resolve to the last finite bound
    /// (the distribution's tail is unknowable from bounded buckets).
    /// Returns `None` for an empty histogram, one without finite bounds,
    /// or a `q` outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || self.bounds.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let below = cumulative as f64;
            cumulative += c;
            if cumulative as f64 >= target {
                if i >= self.bounds.len() {
                    // Overflow bucket: clamp to the last finite bound.
                    return self.bounds.last().copied();
                }
                let upper = self.bounds[i];
                let lower = if i == 0 {
                    upper.min(0.0)
                } else {
                    self.bounds[i - 1]
                };
                let frac = ((target - below) / c as f64).clamp(0.0, 1.0);
                return Some(lower + (upper - lower) * frac);
            }
        }
        self.bounds.last().copied()
    }
}

/// One exemplar: a trace id attached to a histogram observation, the
/// metric↔trace join key of the serving layer's correlation story.
///
/// Exemplars live in a separate registry store rather than inside
/// [`HistogramSnapshot`]: adding a field there would break
/// deserialisation of committed baseline snapshots (the vendored serde
/// derive requires every field present).
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// Trace id of the observation (32-hex for the serving layer).
    pub trace_id: String,
    /// The observed value.
    pub value: f64,
    /// Upper bound of the bucket the value landed in
    /// (`f64::INFINITY` = overflow bucket).
    pub bucket_le: f64,
    /// Pinned exemplars (errors) are never displaced by later
    /// same-bucket observations; unpinned ones (tail latencies) keep
    /// only the latest per bucket.
    pub pinned: bool,
}

/// Retained exemplars per histogram before eviction. Generous enough
/// that a CI chaos run never evicts; evictions are counted on
/// `obs.exemplars.evicted` so the cap is never silent.
const EXEMPLAR_CAP: usize = 4096;

/// Deterministic point-in-time copy of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins instantaneous values.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket distributions.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4).
    ///
    /// Metric names are sanitised (every character outside
    /// `[a-zA-Z0-9_:]` becomes `_`, so `migration.runs` exposes as
    /// `migration_runs`); label values escape `\`, `"` and newlines.
    /// Histograms expose the conventional cumulative
    /// `_bucket{le="…"}` series plus `_sum`, `_count` and interpolated
    /// `_p50`/`_p95`/`_p99` quantile estimates. Output order
    /// follows the snapshot's BTreeMap ordering, so two equal snapshots
    /// render byte-identically.
    pub fn to_prometheus_text(&self) -> String {
        self.to_prometheus_text_with_exemplars(&BTreeMap::new())
    }

    /// Like [`to_prometheus_text`](Self::to_prometheus_text), but after
    /// each histogram's series the attached exemplars are rendered as
    /// comment lines:
    ///
    /// ```text
    /// # exemplar serve_red_predict_5xx_duration_ms{le="2",trace_id="0af7…"} 1.8
    /// ```
    ///
    /// Comment lines keep the exposition valid for any 0.0.4 parser
    /// (real exemplar syntax needs the OpenMetrics content type) while
    /// staying one-line-greppable for the correlation checker. With an
    /// empty map the output is byte-identical to the exemplar-free
    /// exposition.
    pub fn to_prometheus_text_with_exemplars(
        &self,
        exemplars: &BTreeMap<String, Vec<Exemplar>>,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = sanitize_metric_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", format_sample(*value));
        }
        for (raw_name, hist) in &self.histograms {
            let name = sanitize_metric_name(raw_name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (bound, count) in hist.bounds.iter().zip(&hist.counts) {
                cumulative += count;
                let le = escape_label_value(&format_sample(*bound));
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            // Overflow bucket: everything observed so far.
            cumulative += hist.counts.last().copied().unwrap_or(0);
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
            let _ = writeln!(out, "{name}_sum {}", format_sample(hist.sum()));
            let _ = writeln!(out, "{name}_count {}", hist.count);
            for (suffix, q) in [("p50", 0.5), ("p95", 0.95), ("p99", 0.99)] {
                if let Some(v) = hist.quantile(q) {
                    let _ = writeln!(out, "{name}_{suffix} {}", format_sample(v));
                }
            }
            for e in exemplars.get(raw_name).into_iter().flatten() {
                let _ = writeln!(
                    out,
                    "# exemplar {name}{{le=\"{}\",trace_id=\"{}\"}} {}",
                    escape_label_value(&format_sample(e.bucket_le)),
                    escape_label_value(&e.trace_id),
                    format_sample(e.value),
                );
            }
        }
        out
    }
}

/// Replace every character outside `[a-zA-Z0-9_:]` with `_` (and prefix
/// `_` if the name would start with a digit).
fn sanitize_metric_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        out.insert(0, '_');
    }
    out
}

/// Escape a Prometheus label value: `\` → `\\`, `"` → `\"`, newline →
/// `\n`.
fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a sample value: shortest round-trip for finite floats, the
/// Prometheus spellings for the non-finite ones.
fn format_sample(value: f64) -> String {
    if value.is_nan() {
        "NaN".to_string()
    } else if value == f64::INFINITY {
        "+Inf".to_string()
    } else if value == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        value.to_string()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, HistogramSnapshot>,
    exemplars: BTreeMap<String, Vec<Exemplar>>,
}

/// A metrics registry. The workspace normally uses the process-wide one
/// through the free functions below; standalone registries exist for
/// tests and embedding.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Add `delta` to counter `name` (created at 0 on first use).
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Set gauge `name` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.lock().gauges.insert(name.to_string(), value);
    }

    /// Observe `value` on histogram `name`. The first call fixes the
    /// bucket bounds; later calls reuse them (`bounds` is then ignored).
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        let mut inner = self.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = HistogramSnapshot::new(bounds);
                h.observe(value);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Observe `value` on histogram `name` and attach `trace_id` as an
    /// exemplar on the bucket it lands in.
    ///
    /// `pinned` exemplars (errors) all survive — every one of them is a
    /// required join key for the correlation checker; unpinned ones
    /// (tail latencies) keep only the latest per bucket. Past
    /// `EXEMPLAR_CAP` the oldest unpinned exemplar is evicted first
    /// (then the oldest pinned), and each eviction increments the
    /// `obs.exemplars.evicted` counter so truncation is visible.
    pub fn observe_with_exemplar(
        &self,
        name: &str,
        bounds: &[f64],
        value: f64,
        trace_id: &str,
        pinned: bool,
    ) {
        let mut inner = self.lock();
        let bucket_le = match inner.histograms.get_mut(name) {
            Some(h) => {
                h.observe(value);
                h.bounds
                    .iter()
                    .find(|&&b| value <= b)
                    .copied()
                    .unwrap_or(f64::INFINITY)
            }
            None => {
                let mut h = HistogramSnapshot::new(bounds);
                h.observe(value);
                let le = h
                    .bounds
                    .iter()
                    .find(|&&b| value <= b)
                    .copied()
                    .unwrap_or(f64::INFINITY);
                inner.histograms.insert(name.to_string(), h);
                le
            }
        };
        let store = inner.exemplars.entry(name.to_string()).or_default();
        let exemplar = Exemplar {
            trace_id: trace_id.to_string(),
            value,
            bucket_le,
            pinned,
        };
        if !pinned {
            if let Some(existing) = store
                .iter_mut()
                .find(|e| !e.pinned && e.bucket_le == bucket_le)
            {
                *existing = exemplar;
                return;
            }
        }
        let mut evicted = 0u64;
        while store.len() >= EXEMPLAR_CAP {
            let victim = store.iter().position(|e| !e.pinned).unwrap_or(0);
            store.remove(victim);
            evicted += 1;
        }
        store.push(exemplar);
        if evicted > 0 {
            match inner.counters.get_mut("obs.exemplars.evicted") {
                Some(v) => *v += evicted,
                None => {
                    inner
                        .counters
                        .insert("obs.exemplars.evicted".to_string(), evicted);
                }
            }
        }
    }

    /// The exemplar store, histogram-name order (insertion order within
    /// a histogram). Pass to
    /// [`MetricsSnapshot::to_prometheus_text_with_exemplars`].
    pub fn exemplars(&self) -> BTreeMap<String, Vec<Exemplar>> {
        self.lock().exemplars.clone()
    }

    /// Deterministic snapshot (BTreeMap name order).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Drop all recorded metrics.
    pub fn reset(&self) {
        *self.lock() = RegistryInner::default();
    }
}

fn global() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Add `delta` to the global counter `name`; no-op without a metrics
/// session.
#[inline]
pub fn counter_add(name: &str, delta: u64) {
    if session::metrics_active() {
        global().counter_add(name, delta);
    }
}

/// Set the global gauge `name`; no-op without a metrics session.
#[inline]
pub fn gauge_set(name: &str, value: f64) {
    if session::metrics_active() {
        global().gauge_set(name, value);
    }
}

/// Observe on the global histogram `name`; no-op without a metrics
/// session.
#[inline]
pub fn observe(name: &str, bounds: &[f64], value: f64) {
    if session::metrics_active() {
        global().observe(name, bounds, value);
    }
}

/// `true` when an installed session is collecting metrics — use to skip
/// expensive metric computation (the free functions are no-ops anyway).
#[inline]
pub fn active() -> bool {
    session::metrics_active()
}

/// Snapshot the global registry (empty without a metrics session).
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

pub(crate) fn reset_global() {
    global().reset();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing_is_inclusive_upper_bound() {
        let h = Registry::new();
        let bounds: &[f64] = &[1.0, 2.0, 5.0];
        for v in [0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 5.1, 99.0] {
            h.observe("x", bounds, v);
        }
        let snap = h.snapshot();
        let hist = &snap.histograms["x"];
        //                 <=1  <=2  <=5  overflow
        assert_eq!(hist.counts, vec![2, 2, 2, 2]);
        assert_eq!(hist.count, 8);
        let expected: f64 = 0.5 + 1.0 + 1.5 + 2.0 + 4.9 + 5.0 + 5.1 + 99.0;
        assert!((hist.sum() - expected).abs() < 1e-6);
        assert!((hist.mean().expect("non-empty mean") - expected / 8.0).abs() < 1e-6);
    }

    #[test]
    fn empty_histogram_mean_is_none() {
        let hist = HistogramSnapshot::new(buckets::DURATION_S);
        assert_eq!(hist.mean(), None);
        assert_eq!(hist.sum(), 0.0);
        assert_eq!(hist.quantile(0.5), None);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        let bounds: &[f64] = &[1.0, 2.0, 4.0];
        // 4 samples in (1, 2], 4 in (2, 4] → uniform mass over [1, 4].
        for v in [1.2, 1.4, 1.6, 1.8, 2.5, 3.0, 3.5, 4.0] {
            r.observe("q", bounds, v);
        }
        let hist = r.snapshot().histograms["q"].clone();
        // Rank 4 of 8 lands exactly on the (1, 2] bucket's upper edge.
        assert_eq!(hist.quantile(0.5), Some(2.0));
        // Rank 2 of 8 is halfway through the (1, 2] bucket.
        assert_eq!(hist.quantile(0.25), Some(1.5));
        // q=0 resolves to the first occupied bucket's lower edge, q=1 to
        // the last occupied bucket's upper edge.
        assert_eq!(hist.quantile(0.0), Some(1.0));
        assert_eq!(hist.quantile(1.0), Some(4.0));
        // Out-of-range q never panics.
        assert_eq!(hist.quantile(-0.1), None);
        assert_eq!(hist.quantile(1.5), None);
    }

    #[test]
    fn quantile_edge_cases() {
        // Overflow-bucket mass clamps to the last finite bound.
        let r = Registry::new();
        r.observe("over", &[1.0, 2.0], 50.0);
        r.observe("over", &[1.0, 2.0], 60.0);
        let hist = r.snapshot().histograms["over"].clone();
        assert_eq!(hist.quantile(0.99), Some(2.0));
        // First bucket interpolates from min(bound, 0).
        let r = Registry::new();
        r.observe("first", &[10.0, 20.0], 3.0);
        let hist = r.snapshot().histograms["first"].clone();
        assert_eq!(hist.quantile(0.5), Some(5.0));
        // A bound-less histogram (pure counter) has no quantiles.
        let r = Registry::new();
        r.observe("none", &[], 3.0);
        assert_eq!(r.snapshot().histograms["none"].quantile(0.5), None);
    }

    #[test]
    fn histogram_non_finite_observations_count_but_never_poison_the_sum() {
        let r = Registry::new();
        let bounds: &[f64] = &[1.0, 10.0];
        r.observe("x", bounds, f64::NAN);
        r.observe("x", bounds, f64::INFINITY);
        r.observe("x", bounds, f64::NEG_INFINITY);
        r.observe("x", bounds, 0.5);
        let snap = r.snapshot();
        let hist = &snap.histograms["x"];
        // NaN and +Inf compare false against every bound → overflow
        // bucket; -Inf satisfies `<= 1.0` → first bucket (with 0.5).
        assert_eq!(hist.counts, vec![2, 0, 2]);
        assert_eq!(hist.count, 4);
        // Only the finite sample contributes to the fixed-point sum, so
        // mean stays finite and the exposition never prints NaN sums.
        assert_eq!(hist.sum(), 0.5);
        assert_eq!(hist.mean(), Some(0.125));
        let text = snap.to_prometheus_text();
        assert!(text.contains("x_sum 0.5"), "{text}");
        assert!(text.contains("x_count 4"), "{text}");
    }

    #[test]
    fn histogram_negative_values_land_in_the_first_bucket() {
        let r = Registry::new();
        r.observe("neg", &[0.0, 1.0], -5.0);
        r.observe("neg", &[0.0, 1.0], -0.0);
        let hist = r.snapshot().histograms["neg"].clone();
        assert_eq!(hist.counts, vec![2, 0, 0]);
        assert_eq!(hist.sum(), -5.0);
    }

    #[test]
    fn histogram_with_empty_bounds_is_a_pure_counter() {
        let r = Registry::new();
        r.observe("all_overflow", &[], 3.0);
        r.observe("all_overflow", &[], 4.0);
        let snap = r.snapshot();
        let hist = &snap.histograms["all_overflow"];
        assert_eq!(hist.counts, vec![2]);
        assert_eq!(hist.sum(), 7.0);
        // The exposition still emits a valid series: just +Inf, sum,
        // count.
        let text = snap.to_prometheus_text();
        assert!(
            text.contains("all_overflow_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(!text.contains("all_overflow_bucket{le=\"+Inf\"} 2\nall_overflow_bucket"));
    }

    #[test]
    fn histogram_bounds_are_fixed_by_the_first_observation() {
        let r = Registry::new();
        r.observe("fixed", &[1.0, 2.0], 0.5);
        // A later caller passing a different ladder must not resize or
        // rebucket the series.
        r.observe("fixed", &[100.0], 1.5);
        let hist = r.snapshot().histograms["fixed"].clone();
        assert_eq!(hist.bounds, vec![1.0, 2.0]);
        assert_eq!(hist.counts, vec![1, 1, 0]);
    }

    #[test]
    fn prometheus_sanitises_dotted_and_unicode_names() {
        // Dots — the workspace's metric namespace separator — become
        // underscores, as does every non-ASCII scalar (one `_` per char).
        assert_eq!(
            sanitize_metric_name("migration.phase.activation_kj"),
            "migration_phase_activation_kj"
        );
        assert_eq!(sanitize_metric_name("énergie.kJ"), "_nergie_kJ");
        assert_eq!(sanitize_metric_name("runs/s"), "runs_s");
        assert_eq!(sanitize_metric_name("host:m01"), "host:m01");
        let r = Registry::new();
        r.counter_add("migration.runs.完了", 1);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE migration_runs___ counter"), "{text}");
        assert!(text.contains("\nmigration_runs___ 1\n"), "{text}");
    }

    #[test]
    fn prometheus_renders_non_finite_gauges_with_canonical_spellings() {
        let r = Registry::new();
        r.gauge_set("g.nan", f64::NAN);
        r.gauge_set("g.pinf", f64::INFINITY);
        r.gauge_set("g.ninf", f64::NEG_INFINITY);
        let text = r.snapshot().to_prometheus_text();
        assert!(text.contains("g_nan NaN"), "{text}");
        assert!(text.contains("g_pinf +Inf"), "{text}");
        assert!(text.contains("g_ninf -Inf"), "{text}");
    }

    #[test]
    fn empty_snapshot_renders_to_an_empty_exposition() {
        assert!(MetricsSnapshot::default().is_empty());
        assert_eq!(MetricsSnapshot::default().to_prometheus_text(), "");
    }

    #[test]
    fn prometheus_text_golden() {
        let r = Registry::new();
        r.counter_add("migration.runs", 42);
        r.counter_add("faults.injected", 3);
        r.gauge_set("runner.throughput_runs_per_s", 12.5);
        let bounds: &[f64] = &[1.0, 2.5];
        for v in [0.5, 2.0, 9.0] {
            r.observe("migration.transfer_s", bounds, v);
        }
        let text = r.snapshot().to_prometheus_text();
        let expected = "\
# TYPE faults_injected counter
faults_injected 3
# TYPE migration_runs counter
migration_runs 42
# TYPE runner_throughput_runs_per_s gauge
runner_throughput_runs_per_s 12.5
# TYPE migration_transfer_s histogram
migration_transfer_s_bucket{le=\"1\"} 1
migration_transfer_s_bucket{le=\"2.5\"} 2
migration_transfer_s_bucket{le=\"+Inf\"} 3
migration_transfer_s_sum 11.5
migration_transfer_s_count 3
migration_transfer_s_p50 1.75
migration_transfer_s_p95 2.5
migration_transfer_s_p99 2.5
";
        assert_eq!(text, expected);
    }

    #[test]
    fn prometheus_rendering_is_order_stable() {
        // Insertion order must not leak into the exposition: two
        // registries fed in opposite orders render identically.
        let a = Registry::new();
        let b = Registry::new();
        a.counter_add("b.second", 1);
        a.counter_add("a.first", 1);
        b.counter_add("a.first", 1);
        b.counter_add("b.second", 1);
        assert_eq!(
            a.snapshot().to_prometheus_text(),
            b.snapshot().to_prometheus_text()
        );
    }

    #[test]
    fn prometheus_name_sanitisation_and_label_escaping() {
        assert_eq!(
            sanitize_metric_name("migration.energy-kj"),
            "migration_energy_kj"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        assert_eq!(format_sample(f64::INFINITY), "+Inf");
        assert_eq!(format_sample(f64::NAN), "NaN");
    }

    #[test]
    fn fixed_point_sum_is_order_independent() {
        let a = Registry::new();
        let b = Registry::new();
        let values = [0.1, 0.2, 0.3, 1e6, 1e-6, 37.7];
        for v in values {
            a.observe("x", buckets::DURATION_S, v);
        }
        for v in values.iter().rev() {
            b.observe("x", buckets::DURATION_S, *v);
        }
        assert_eq!(
            a.snapshot().histograms["x"].sum_micro,
            b.snapshot().histograms["x"].sum_micro
        );
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        r.counter_add("runs", 2);
        r.counter_add("runs", 3);
        r.gauge_set("speed", 1.0);
        r.gauge_set("speed", 4.5);
        let snap = r.snapshot();
        assert_eq!(snap.counters["runs"], 5);
        assert_eq!(snap.gauges["speed"], 4.5);
        assert!(!snap.is_empty());
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let r = Registry::new();
        r.counter_add("migration.runs", 7);
        r.gauge_set("runner.throughput_runs_per_s", 123.25);
        r.observe("migration.transfer_s", buckets::DURATION_S, 42.0);
        r.observe("migration.transfer_s", buckets::DURATION_S, 600.0);
        let snap = r.snapshot();
        let json = serde_json::to_string(&snap).expect("serialise snapshot");
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("parse snapshot");
        assert_eq!(back, snap);
        assert_eq!(back.histograms["migration.transfer_s"].count, 2);
    }

    #[test]
    fn exemplars_attach_to_buckets_and_render_as_comment_lines() {
        let r = Registry::new();
        let bounds: &[f64] = &[1.0, 2.0, 5.0];
        r.observe_with_exemplar("req.ms", bounds, 1.8, "aaaa", true);
        r.observe_with_exemplar("req.ms", bounds, 99.0, "bbbb", false);
        let ex = r.exemplars();
        assert_eq!(ex["req.ms"].len(), 2);
        assert_eq!(ex["req.ms"][0].bucket_le, 2.0);
        assert_eq!(ex["req.ms"][1].bucket_le, f64::INFINITY);
        // The histogram itself counted both observations.
        assert_eq!(r.snapshot().histograms["req.ms"].count, 2);
        let text = r.snapshot().to_prometheus_text_with_exemplars(&ex);
        assert!(
            text.contains("# exemplar req_ms{le=\"2\",trace_id=\"aaaa\"} 1.8"),
            "{text}"
        );
        assert!(
            text.contains("# exemplar req_ms{le=\"+Inf\",trace_id=\"bbbb\"} 99"),
            "{text}"
        );
        // Exemplar-free rendering is unchanged by the feature.
        assert_eq!(
            r.snapshot().to_prometheus_text(),
            r.snapshot()
                .to_prometheus_text_with_exemplars(&BTreeMap::new())
        );
    }

    #[test]
    fn unpinned_exemplars_replace_per_bucket_pinned_ones_accumulate() {
        let r = Registry::new();
        let bounds: &[f64] = &[10.0];
        r.observe_with_exemplar("h", bounds, 3.0, "first", false);
        r.observe_with_exemplar("h", bounds, 4.0, "second", false);
        let ex = r.exemplars();
        assert_eq!(ex["h"].len(), 1, "unpinned replaces in-bucket");
        assert_eq!(ex["h"][0].trace_id, "second");
        r.observe_with_exemplar("h", bounds, 5.0, "err1", true);
        r.observe_with_exemplar("h", bounds, 6.0, "err2", true);
        let ex = r.exemplars();
        assert_eq!(ex["h"].len(), 3, "pinned exemplars all survive");
    }

    #[test]
    fn exemplar_cap_evicts_unpinned_first_and_counts_it() {
        let r = Registry::new();
        let bounds: Vec<f64> = (0..16).map(|i| i as f64).collect();
        // One unpinned, then pinned entries past the cap.
        r.observe_with_exemplar("h", &bounds, 0.5, "unpinned", false);
        for i in 0..EXEMPLAR_CAP {
            r.observe_with_exemplar("h", &bounds, 1.5, &format!("e{i}"), true);
        }
        let ex = r.exemplars();
        assert_eq!(ex["h"].len(), EXEMPLAR_CAP);
        assert!(
            ex["h"].iter().all(|e| e.trace_id != "unpinned"),
            "unpinned must be the first eviction"
        );
        let snap = r.snapshot();
        assert_eq!(snap.counters.get("obs.exemplars.evicted"), Some(&1));
    }

    #[test]
    fn global_functions_are_inert_without_a_session() {
        // Hold the session lock so no concurrent test arms the registry.
        let _guard = crate::session::lock_for_tests();
        counter_add("test.inert", 1);
        observe("test.inert_h", buckets::DURATION_S, 1.0);
        let snap = snapshot();
        assert!(!snap.counters.contains_key("test.inert"));
        assert!(!snap.histograms.contains_key("test.inert_h"));
    }
}
