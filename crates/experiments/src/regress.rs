//! Regression gate over the metrics pipeline.
//!
//! Compares a run's [`MetricsSnapshot`] against the committed
//! `BENCH_baseline.json` with per-metric *relative* tolerances and
//! classifies every metric as pass / warn / fail:
//!
//! * relative delta `<= tol/2` → **pass**,
//! * in `(tol/2, tol]` → **warn** (drifting towards the gate),
//! * `> tol` → **fail**;
//!
//! with a zero tolerance there is no warn band — any delta fails.
//! Counters and histograms are seed-deterministic, so their default
//! tolerance is `0`; gauges may carry wall-clock data (throughput) and
//! default to `0.25`. A metric present in the baseline but missing from
//! the current run fails for counters/histograms (the pipeline lost a
//! signal) and warns for gauges; metrics new in the current run warn so
//! the baseline gets regenerated deliberately.
//!
//! Histograms compare their total sample count (exact integer) and their
//! fixed-point sum, both against the histogram tolerance; a changed
//! bucket ladder is always a failure.
//!
//! `wavm3-experiments regress` wires this to files and exit codes:
//! `0` pass (warnings allowed), `1` at least one failure, `2` usage.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use wavm3_harness::Wavm3Error;
use wavm3_obs::metrics::{HistogramSnapshot, MetricsSnapshot};

/// Relative tolerances for the three metric families plus per-metric
/// overrides (keyed by the full metric name, applied to every family).
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Relative tolerance for counters (seed-deterministic; default `0`).
    pub counters: f64,
    /// Relative tolerance for gauges (may be wall-clock; default `0.25`).
    pub gauges: f64,
    /// Relative tolerance for histogram count + sum (default `0`).
    pub histograms: f64,
    /// Per-metric overrides, consulted before the family default.
    pub per_metric: BTreeMap<String, f64>,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            counters: 0.0,
            gauges: 0.25,
            histograms: 0.0,
            per_metric: BTreeMap::new(),
        }
    }
}

impl Tolerances {
    /// The tolerance applied to `metric` in `family`.
    pub fn for_metric(&self, metric: &str, family: Family) -> f64 {
        if let Some(t) = self.per_metric.get(metric) {
            return *t;
        }
        match family {
            Family::Counter => self.counters,
            Family::Gauge => self.gauges,
            Family::Histogram => self.histograms,
        }
    }

    /// Load per-metric overrides from a JSON object `{"name": tol, …}`.
    pub fn load_overrides(&mut self, path: &Path) -> Result<(), Wavm3Error> {
        let text = std::fs::read_to_string(path).map_err(|e| Wavm3Error::io_at(path, e))?;
        let overrides: BTreeMap<String, f64> = serde_json::from_str(&text)
            .map_err(|e| Wavm3Error::invalid_input(path.display().to_string(), e))?;
        for (name, tol) in &overrides {
            if !tol.is_finite() || *tol < 0.0 {
                return Err(Wavm3Error::invalid_input(
                    path.display().to_string(),
                    format!("tolerance for `{name}` must be finite and >= 0, got {tol}"),
                ));
            }
        }
        self.per_metric.extend(overrides);
        Ok(())
    }
}

/// Metric family a finding belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Monotonic event count.
    Counter,
    /// Last-write-wins instantaneous value.
    Gauge,
    /// Fixed-bucket distribution.
    Histogram,
}

impl Family {
    /// Lower-case label used in findings.
    pub fn label(self) -> &'static str {
        match self {
            Family::Counter => "counter",
            Family::Gauge => "gauge",
            Family::Histogram => "histogram",
        }
    }
}

/// Outcome of one metric comparison, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Within half the tolerance.
    Pass,
    /// Within tolerance but past half of it, or a benign schema drift.
    Warn,
    /// Outside tolerance, or a lost deterministic signal.
    Fail,
}

impl Verdict {
    /// Upper-case label used in the rendered report.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Full metric name.
    pub metric: String,
    /// Which family it came from.
    pub family: Family,
    /// Severity.
    pub verdict: Verdict,
    /// Human-readable comparison (baseline vs current, delta vs tol).
    pub detail: String,
}

/// Every finding of one baseline/current comparison.
#[derive(Debug, Clone, Default)]
pub struct RegressionReport {
    /// All findings, baseline order (counters, gauges, histograms).
    pub findings: Vec<Finding>,
}

impl RegressionReport {
    /// The most severe verdict ([`Verdict::Pass`] when empty).
    pub fn worst(&self) -> Verdict {
        self.findings
            .iter()
            .map(|f| f.verdict)
            .max()
            .unwrap_or(Verdict::Pass)
    }

    /// Count findings with `verdict`.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.findings
            .iter()
            .filter(|f| f.verdict == verdict)
            .count()
    }
}

impl fmt::Display for RegressionReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for finding in &self.findings {
            if finding.verdict != Verdict::Pass {
                writeln!(
                    f,
                    "{} {} {}: {}",
                    finding.verdict.label(),
                    finding.family.label(),
                    finding.metric,
                    finding.detail
                )?;
            }
        }
        writeln!(
            f,
            "regression gate: {} compared, {} pass, {} warn, {} fail -> {}",
            self.findings.len(),
            self.count(Verdict::Pass),
            self.count(Verdict::Warn),
            self.count(Verdict::Fail),
            self.worst().label()
        )
    }
}

/// Relative delta of `current` against `baseline` (`0` when both are
/// zero, `inf` when only the baseline is).
fn relative_delta(baseline: f64, current: f64) -> f64 {
    if baseline == 0.0 {
        if current == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (current - baseline).abs() / baseline.abs()
    }
}

/// Pass/warn/fail for a relative delta under `tol` (see module docs).
fn classify(rel: f64, tol: f64) -> Verdict {
    if tol <= 0.0 {
        if rel == 0.0 {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    } else if rel <= tol / 2.0 {
        Verdict::Pass
    } else if rel <= tol {
        Verdict::Warn
    } else {
        Verdict::Fail
    }
}

fn numeric_finding(
    metric: &str,
    family: Family,
    baseline: f64,
    current: f64,
    tol: &Tolerances,
) -> Finding {
    let t = tol.for_metric(metric, family);
    let (verdict, detail) = if !baseline.is_finite() || !current.is_finite() {
        // Non-finite gauges can't be compared relatively; identical
        // spellings pass, anything else is schema drift worth a warning.
        if baseline.to_bits() == current.to_bits() || (baseline.is_nan() && current.is_nan()) {
            (
                Verdict::Pass,
                format!("non-finite on both sides ({baseline})"),
            )
        } else {
            (
                Verdict::Warn,
                format!("non-finite value (baseline {baseline}, current {current})"),
            )
        }
    } else {
        let rel = relative_delta(baseline, current);
        (
            classify(rel, t),
            format!(
                "baseline {baseline}, current {current} (delta {:.2}% vs tol {:.2}%)",
                rel * 100.0,
                t * 100.0
            ),
        )
    };
    Finding {
        metric: metric.to_string(),
        family,
        verdict,
        detail,
    }
}

fn missing_finding(metric: &str, family: Family) -> Finding {
    // Counters and histograms are deterministic: losing one means the
    // pipeline stopped recording a signal, which is exactly what the
    // gate exists to catch. A gauge may legitimately not be set.
    let verdict = match family {
        Family::Gauge => Verdict::Warn,
        _ => Verdict::Fail,
    };
    Finding {
        metric: metric.to_string(),
        family,
        verdict,
        detail: "present in baseline, missing from current run".to_string(),
    }
}

fn new_finding(metric: &str, family: Family) -> Finding {
    Finding {
        metric: metric.to_string(),
        family,
        verdict: Verdict::Warn,
        detail: "new metric, not in baseline (regenerate BENCH_baseline.json)".to_string(),
    }
}

fn histogram_findings(
    metric: &str,
    baseline: &HistogramSnapshot,
    current: &HistogramSnapshot,
    tol: &Tolerances,
    out: &mut Vec<Finding>,
) {
    if baseline.bounds != current.bounds {
        out.push(Finding {
            metric: metric.to_string(),
            family: Family::Histogram,
            verdict: Verdict::Fail,
            detail: format!(
                "bucket ladder changed ({} -> {} bounds)",
                baseline.bounds.len(),
                current.bounds.len()
            ),
        });
        return;
    }
    out.push(numeric_finding(
        &format!("{metric}.count"),
        Family::Histogram,
        baseline.count as f64,
        current.count as f64,
        tol,
    ));
    out.push(numeric_finding(
        &format!("{metric}.sum"),
        Family::Histogram,
        baseline.sum(),
        current.sum(),
        tol,
    ));
}

/// Diff `current` against `baseline` under `tol`.
pub fn compare(
    baseline: &MetricsSnapshot,
    current: &MetricsSnapshot,
    tol: &Tolerances,
) -> RegressionReport {
    let mut findings = Vec::new();
    for (name, b) in &baseline.counters {
        match current.counters.get(name) {
            Some(c) => findings.push(numeric_finding(
                name,
                Family::Counter,
                *b as f64,
                *c as f64,
                tol,
            )),
            None => findings.push(missing_finding(name, Family::Counter)),
        }
    }
    for name in current.counters.keys() {
        if !baseline.counters.contains_key(name) {
            findings.push(new_finding(name, Family::Counter));
        }
    }
    for (name, b) in &baseline.gauges {
        match current.gauges.get(name) {
            Some(c) => findings.push(numeric_finding(name, Family::Gauge, *b, *c, tol)),
            None => findings.push(missing_finding(name, Family::Gauge)),
        }
    }
    for name in current.gauges.keys() {
        if !baseline.gauges.contains_key(name) {
            findings.push(new_finding(name, Family::Gauge));
        }
    }
    for (name, b) in &baseline.histograms {
        match current.histograms.get(name) {
            Some(c) => histogram_findings(name, b, c, tol, &mut findings),
            None => findings.push(missing_finding(name, Family::Histogram)),
        }
    }
    for name in current.histograms.keys() {
        if !baseline.histograms.contains_key(name) {
            findings.push(new_finding(name, Family::Histogram));
        }
    }
    RegressionReport { findings }
}

/// Extract the metrics snapshot from a JSON document that is either a
/// `--metrics-out` file (snapshot fields at the root) or a
/// `BENCH_baseline.json` (snapshot nested under `"metrics"`). Unknown
/// sibling keys (`profiling`, stamps) are ignored.
pub fn snapshot_from_json(text: &str) -> Result<MetricsSnapshot, Wavm3Error> {
    use serde::{Deserialize as _, Value};
    struct Raw(Value);
    impl serde::Deserialize for Raw {
        fn from_value(v: &Value) -> Result<Self, serde::Error> {
            Ok(Raw(v.clone()))
        }
    }
    let Raw(root) =
        serde_json::from_str(text).map_err(|e| Wavm3Error::invalid_input("metrics JSON", e))?;
    let node = match root.get("metrics") {
        Some(nested) if nested.as_object().is_some() => nested,
        _ => &root,
    };
    MetricsSnapshot::from_value(node).map_err(|e| Wavm3Error::invalid_input("metrics JSON", e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(counter: u64, gauge: f64) -> MetricsSnapshot {
        let mut s = MetricsSnapshot::default();
        s.counters.insert("migration.runs".into(), counter);
        s.gauges
            .insert("runner.throughput_runs_per_s".into(), gauge);
        s.histograms.insert(
            "migration.duration_s".into(),
            HistogramSnapshot {
                bounds: vec![1.0, 10.0],
                counts: vec![2, 3, 0],
                count: 5,
                sum_micro: 12_500_000,
            },
        );
        s
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = snapshot(168, 40.0);
        let report = compare(&base, &base.clone(), &Tolerances::default());
        assert_eq!(report.worst(), Verdict::Pass);
        assert_eq!(report.count(Verdict::Pass), report.findings.len());
        assert!(report.to_string().contains("0 fail -> PASS"));
    }

    #[test]
    fn gauge_drift_inside_the_warn_band_warns() {
        let base = snapshot(168, 100.0);
        // 20% off a 25% tolerance: past tol/2, inside tol.
        let cur = snapshot(168, 80.0);
        let report = compare(&base, &cur, &Tolerances::default());
        assert_eq!(report.worst(), Verdict::Warn);
        let g = report
            .findings
            .iter()
            .find(|f| f.metric == "runner.throughput_runs_per_s")
            .unwrap();
        assert_eq!(g.verdict, Verdict::Warn);
    }

    #[test]
    fn perturbed_counter_fails_at_zero_tolerance() {
        let base = snapshot(168, 40.0);
        let cur = snapshot(167, 40.0);
        let report = compare(&base, &cur, &Tolerances::default());
        assert_eq!(report.worst(), Verdict::Fail);
        let text = report.to_string();
        assert!(text.contains("FAIL counter migration.runs"), "{text}");
    }

    #[test]
    fn missing_counter_fails_and_missing_gauge_warns() {
        let base = snapshot(168, 40.0);
        let mut cur = base.clone();
        cur.counters.clear();
        cur.gauges.clear();
        let report = compare(&base, &cur, &Tolerances::default());
        let counter = report
            .findings
            .iter()
            .find(|f| f.metric == "migration.runs")
            .unwrap();
        assert_eq!(counter.verdict, Verdict::Fail);
        let gauge = report
            .findings
            .iter()
            .find(|f| f.metric == "runner.throughput_runs_per_s")
            .unwrap();
        assert_eq!(gauge.verdict, Verdict::Warn);
    }

    #[test]
    fn new_metrics_warn() {
        let base = snapshot(168, 40.0);
        let mut cur = base.clone();
        cur.counters.insert("faults.injected".into(), 3);
        let report = compare(&base, &cur, &Tolerances::default());
        assert_eq!(report.worst(), Verdict::Warn);
    }

    #[test]
    fn per_metric_override_beats_the_family_default() {
        let base = snapshot(100, 40.0);
        let cur = snapshot(103, 40.0);
        let mut tol = Tolerances::default();
        tol.per_metric.insert("migration.runs".into(), 0.10);
        let report = compare(&base, &cur, &tol);
        // 3% <= 10%/2 -> pass despite the 0 counter default.
        assert_eq!(report.worst(), Verdict::Pass);
    }

    #[test]
    fn histogram_sum_and_ladder_changes_fail() {
        let base = snapshot(168, 40.0);
        let mut cur = base.clone();
        cur.histograms
            .get_mut("migration.duration_s")
            .unwrap()
            .sum_micro += 1;
        let report = compare(&base, &cur, &Tolerances::default());
        assert_eq!(report.worst(), Verdict::Fail);

        let mut cur = base.clone();
        cur.histograms
            .get_mut("migration.duration_s")
            .unwrap()
            .bounds = vec![1.0];
        let report = compare(&base, &cur, &Tolerances::default());
        let f = report
            .findings
            .iter()
            .find(|f| f.metric == "migration.duration_s")
            .unwrap();
        assert_eq!(f.verdict, Verdict::Fail);
        assert!(f.detail.contains("bucket ladder"));
    }

    #[test]
    fn zero_tolerance_has_no_warn_band() {
        assert_eq!(classify(0.0, 0.0), Verdict::Pass);
        assert_eq!(classify(1e-12, 0.0), Verdict::Fail);
        assert_eq!(classify(0.04, 0.1), Verdict::Pass);
        assert_eq!(classify(0.08, 0.1), Verdict::Warn);
        assert_eq!(classify(0.2, 0.1), Verdict::Fail);
        assert_eq!(relative_delta(0.0, 0.0), 0.0);
        assert_eq!(relative_delta(0.0, 1.0), f64::INFINITY);
    }

    #[test]
    fn snapshot_parses_from_both_layouts() {
        let snap = snapshot(7, 1.5);
        let flat = serde_json::to_string(&snap).unwrap();
        let parsed = snapshot_from_json(&flat).unwrap();
        assert_eq!(parsed.counters, snap.counters);

        let nested = format!("{{\"benchmark\":\"x\",\"seed\":7,\"reps\":2,\"metrics\":{flat}}}");
        let parsed = snapshot_from_json(&nested).unwrap();
        assert_eq!(parsed.histograms, snap.histograms);
    }
}
