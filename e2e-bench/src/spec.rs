//! The benchmark's definition, read from the repository's `BENCHMARK.json`.
//!
//! Units, directions and regression bounds live in that one file; the
//! binary embeds it at build time so a report and a comparison always use
//! the definition the binary was built with.

use serde::Value;

/// `BENCHMARK.json`, embedded.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the definition.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// How long one run measures, seconds.
    pub run_seconds: f64,
    /// Workload names, in definition order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (reported by untraced runs).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The embedded definition.
    ///
    /// # Panics
    ///
    /// When the embedded file is malformed — a build-time artefact, so
    /// this is a bug in the repository, not bad input.
    pub fn embedded() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well formed")
    }

    /// Parse a definition.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let list = |key: &str| -> Result<&[Value], String> {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("`{key}` must be an array"))
        };
        let text_of = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let metric = |v: &Value| -> Result<MetricSpec, String> {
            let better = text_of(v, "better")?;
            let bound = match v.get("bound") {
                None => None,
                Some(Value::F64(x)) => Some(*x),
                Some(Value::U64(n)) => Some(*n as f64),
                Some(other) => return Err(format!("bound must be a number, got {}", other.kind())),
            };
            Ok(MetricSpec {
                name: text_of(v, "name")?,
                unit: text_of(v, "unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("better must be higher|lower, got {other:?}")),
                },
                bound,
            })
        };
        let run_seconds = match root.get("run_seconds") {
            Some(Value::U64(n)) if *n > 0 => *n as f64,
            _ => return Err("`run_seconds` must be a positive whole number".into()),
        };
        Ok(Spec {
            run_seconds,
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: list("end_to_end")?
                .iter()
                .map(metric)
                .collect::<Result<_, _>>()?,
            per_layer: list("per_layer")?
                .iter()
                .map(metric)
                .collect::<Result<_, _>>()?,
        })
    }

    /// The metric list a run reports: per-layer when traced, else
    /// end-to-end.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_definition_parses_with_bounds_on_every_end_to_end_metric() {
        let spec = Spec::embedded();
        assert_eq!(spec.workloads.len(), 5);
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is defined");
        assert_eq!(setup.unit, "s");
        assert!(!setup.higher_is_better);
    }

    #[test]
    fn malformed_definitions_are_rejected() {
        assert!(Spec::parse("[]").is_err());
        assert!(Spec::parse(
            r#"{"run_seconds": 5, "workloads": [], "end_to_end": [{"name": "x", "unit": "s", "better": "up"}], "per_layer": []}"#
        )
        .is_err());
        assert!(Spec::parse(r#"{"workloads": [], "end_to_end": [], "per_layer": []}"#).is_err());
        assert!(Spec::parse(
            r#"{"run_seconds": 5, "workloads": [], "end_to_end": [], "per_layer": []}"#
        )
        .is_ok());
    }
}
