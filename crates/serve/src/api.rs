//! Request/response schema for `/predict` and `/plan`.
//!
//! The vendored serde stand-in derives `Deserialize` only for structs
//! whose every field is present, so request bodies — where most fields
//! are optional with documented defaults — are parsed by hand from the
//! [`serde::Value`] tree. Responses are plain named-field structs with
//! derived `Serialize`.

use serde::{Serialize, Value};
use wavm3_cluster::{hardware, Link, MachineSet};
use wavm3_consolidation::planner::{plan_migration, MigrationPlan, PlannerInputs};
use wavm3_migration::{MigrationConfig, MigrationKind};

/// A fully-defaulted, validated prediction/planning request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApiRequest {
    /// Mechanism to price.
    pub kind: MigrationKind,
    /// Machine pair.
    pub machine_set: MachineSet,
    /// Migrant RAM, MiB.
    pub ram_mib: u64,
    /// Migrant vCPUs.
    pub vcpus: u32,
    /// Migrant CPU demand as a fraction of its vCPUs.
    pub vm_cpu_fraction: f64,
    /// Migrant working-set fraction.
    pub working_set_fraction: f64,
    /// Migrant page-write rate, pages/s.
    pub page_write_rate: f64,
    /// Other demand on the source, cores.
    pub source_other_cores: f64,
    /// Other demand on the target, cores.
    pub target_other_cores: f64,
    /// Ground-truth source-host migration energy (loadgen replay mode),
    /// joules — feeds the online drift monitor when present.
    pub truth_source_energy_j: Option<f64>,
    /// Ground-truth target-host migration energy, joules.
    pub truth_target_energy_j: Option<f64>,
}

impl ApiRequest {
    /// Parse a request body. Only `kind` and `ram_mib` are required;
    /// everything else defaults to the workload the paper migrates most
    /// (a moderately busy VM on an otherwise half-loaded pair).
    pub fn from_value(v: &Value) -> Result<ApiRequest, String> {
        if v.as_object().is_none() {
            return Err(format!(
                "request body must be a JSON object, got {}",
                v.kind()
            ));
        }
        let kind = match required_str(v, "kind")? {
            "live" => MigrationKind::Live,
            "non_live" => MigrationKind::NonLive,
            "post_copy" => MigrationKind::PostCopy,
            other => {
                return Err(format!(
                    "kind must be one of live|non_live|post_copy, got {other:?}"
                ))
            }
        };
        let machine_set = match v.get("machine_set") {
            None => MachineSet::M,
            Some(set) => match set.as_str() {
                Some("M") | Some("m") => MachineSet::M,
                Some("O") | Some("o") => MachineSet::O,
                _ => return Err(format!("machine_set must be M or O, got {}", set.kind())),
            },
        };
        let req = ApiRequest {
            kind,
            machine_set,
            ram_mib: required_u64(v, "ram_mib")?,
            vcpus: optional_u64(v, "vcpus", 2)? as u32,
            vm_cpu_fraction: optional_f64(v, "vm_cpu_fraction", 0.5)?,
            working_set_fraction: optional_f64(v, "working_set_fraction", 0.3)?,
            page_write_rate: optional_f64(v, "page_write_rate", 2_000.0)?,
            source_other_cores: optional_f64(v, "source_other_cores", 4.0)?,
            target_other_cores: optional_f64(v, "target_other_cores", 4.0)?,
            truth_source_energy_j: optional_truth(v, "truth_source_energy_j")?,
            truth_target_energy_j: optional_truth(v, "truth_target_energy_j")?,
        };
        req.validate()?;
        Ok(req)
    }

    fn validate(&self) -> Result<(), String> {
        if self.ram_mib == 0 {
            return Err("ram_mib must be at least 1".into());
        }
        if self.ram_mib > 1 << 20 {
            return Err("ram_mib beyond 1 TiB is not a plannable VM".into());
        }
        if self.vcpus == 0 {
            return Err("vcpus must be at least 1".into());
        }
        for (name, value) in [
            ("vm_cpu_fraction", self.vm_cpu_fraction),
            ("working_set_fraction", self.working_set_fraction),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(format!("{name} must be a fraction in [0, 1], got {value}"));
            }
        }
        for (name, value) in [
            ("page_write_rate", self.page_write_rate),
            ("source_other_cores", self.source_other_cores),
            ("target_other_cores", self.target_other_cores),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(format!(
                    "{name} must be finite and non-negative, got {value}"
                ));
            }
        }
        Ok(())
    }

    /// Expand into full planner inputs over the standard testbed pair.
    pub fn planner_inputs(&self) -> PlannerInputs {
        let (source, target) = hardware::pair(self.machine_set);
        let config = match self.kind {
            MigrationKind::Live => MigrationConfig::live(),
            MigrationKind::NonLive => MigrationConfig::non_live(),
            MigrationKind::PostCopy => MigrationConfig::post_copy(),
        };
        PlannerInputs {
            kind: self.kind,
            machine_set: self.machine_set,
            idle_power_w: source.power.idle_w,
            ram_mib: self.ram_mib,
            vcpus: self.vcpus,
            vm_cpu_fraction: self.vm_cpu_fraction,
            working_set_fraction: self.working_set_fraction,
            page_write_rate: self.page_write_rate,
            source_other_cores: self.source_other_cores,
            target_other_cores: self.target_other_cores,
            source_capacity: source.logical_cpus as f64,
            target_capacity: target.logical_cpus as f64,
            link: Link::gigabit(),
            config,
        }
    }

    /// Run the analytic planner for this request.
    pub fn plan(&self) -> MigrationPlan {
        plan_migration(&self.planner_inputs())
    }

    /// Lowercase mechanism label.
    pub fn kind_label(&self) -> &'static str {
        kind_label(self.kind)
    }

    /// Machine-set label.
    pub fn set_label(&self) -> &'static str {
        match self.machine_set {
            MachineSet::M => "M",
            MachineSet::O => "O",
        }
    }
}

/// Lowercase mechanism label.
pub fn kind_label(kind: MigrationKind) -> &'static str {
    match kind {
        MigrationKind::Live => "live",
        MigrationKind::NonLive => "non_live",
        MigrationKind::PostCopy => "post_copy",
    }
}

fn required_str<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.get(key)
        .ok_or_else(|| format!("missing required field `{key}`"))?
        .as_str()
        .ok_or_else(|| format!("field `{key}` must be a string"))
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

fn required_u64(v: &Value, key: &str) -> Result<u64, String> {
    let field = v
        .get(key)
        .ok_or_else(|| format!("missing required field `{key}`"))?;
    as_u64(field).ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
}

fn optional_u64(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(field) => {
            as_u64(field).ok_or_else(|| format!("field `{key}` must be a non-negative integer"))
        }
    }
}

fn optional_f64(v: &Value, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(field) => as_f64(field).ok_or_else(|| format!("field `{key}` must be a number")),
    }
}

/// Optional ground-truth energy: absent stays `None`; present must be a
/// finite positive number (a zero or negative "truth" would poison the
/// drift monitor's normalisation).
fn optional_truth(v: &Value, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(field) => {
            let x = as_f64(field).ok_or_else(|| format!("field `{key}` must be a number"))?;
            if !x.is_finite() || x <= 0.0 {
                return Err(format!(
                    "field `{key}` must be finite and positive, got {x}"
                ));
            }
            Ok(Some(x))
        }
    }
}

/// `/predict` response body.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PredictResponse {
    /// Mechanism priced.
    pub kind: String,
    /// Machine pair.
    pub machine_set: String,
    /// Predicted source-host migration energy, joules.
    pub source_energy_j: f64,
    /// Predicted target-host migration energy, joules.
    pub target_energy_j: f64,
    /// Source + target.
    pub total_energy_j: f64,
    /// Predicted downtime, milliseconds.
    pub downtime_ms: f64,
    /// Predicted migration duration, seconds.
    pub duration_s: f64,
    /// Estimated bytes on the wire.
    pub est_bytes: u64,
    /// Served from the degraded analytic fast path?
    pub degraded: bool,
    /// Breaker position when the response was formed.
    pub breaker: String,
}

/// `/plan` response body.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PlanResponse {
    /// Mechanism planned.
    pub kind: String,
    /// Machine pair.
    pub machine_set: String,
    /// Estimated bytes on the wire.
    pub est_bytes: u64,
    /// Estimated downtime, milliseconds.
    pub est_downtime_ms: f64,
    /// Estimated effective bandwidth, bytes/s.
    pub est_bandwidth_bps: f64,
    /// Estimated pre-copy rounds (excluding stop-and-copy).
    pub est_precopy_rounds: u64,
    /// Estimated migration duration, seconds.
    pub est_duration_s: f64,
    /// Length of the synthesised 2 Hz feature timeline.
    pub samples: u64,
    /// Served from the degraded analytic fast path?
    pub degraded: bool,
    /// Breaker position when the response was formed.
    pub breaker: String,
}

/// Error body for every non-2xx the service emits. Carries the
/// correlation context (trace id, chaos key, breaker position) so a
/// shed or breached request is joinable end to end from the client side
/// alone.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ErrorResponse {
    /// Machine-readable error class (`bad_request`, `overloaded`,
    /// `deadline_exceeded`, `injected_fault`, `not_found`).
    pub error: String,
    /// Human-readable detail.
    pub detail: String,
    /// Trace id of the failed request (`-` when unknown).
    pub trace_id: String,
    /// The client's chaos key (`-` when absent).
    pub chaos_key: String,
    /// Breaker position when the error was formed.
    pub breaker: String,
}

impl ErrorResponse {
    /// Serialise to the JSON body with full correlation context.
    pub fn with_context(
        error: &str,
        detail: impl Into<String>,
        trace_id: &str,
        chaos_key: &str,
        breaker: &str,
    ) -> String {
        serde_json::to_string(&ErrorResponse {
            error: error.to_string(),
            detail: detail.into(),
            trace_id: trace_id.to_string(),
            chaos_key: chaos_key.to_string(),
            breaker: breaker.to_string(),
        })
        .expect("error body serialises")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Result<ApiRequest, String> {
        let v: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        ApiRequest::from_value(&v)
    }

    #[test]
    fn minimal_request_gets_documented_defaults() {
        let req = parse(r#"{"kind": "live", "ram_mib": 4096}"#).unwrap();
        assert_eq!(req.kind, MigrationKind::Live);
        assert_eq!(req.machine_set, MachineSet::M);
        assert_eq!(req.vcpus, 2);
        assert_eq!(req.vm_cpu_fraction, 0.5);
        assert_eq!(req.working_set_fraction, 0.3);
    }

    #[test]
    fn full_request_round_trips_every_field() {
        let req = parse(
            r#"{"kind": "post_copy", "machine_set": "O", "ram_mib": 2048,
                "vcpus": 4, "vm_cpu_fraction": 0.9, "working_set_fraction": 0.5,
                "page_write_rate": 9000, "source_other_cores": 10,
                "target_other_cores": 1.5}"#,
        )
        .unwrap();
        assert_eq!(req.kind, MigrationKind::PostCopy);
        assert_eq!(req.machine_set, MachineSet::O);
        assert_eq!(req.vcpus, 4);
        assert_eq!(req.page_write_rate, 9000.0);
        assert_eq!(req.target_other_cores, 1.5);
    }

    #[test]
    fn invalid_requests_are_descriptive() {
        for (json, needle) in [
            (r#"{"ram_mib": 1024}"#, "missing required field `kind`"),
            (
                r#"{"kind": "warp", "ram_mib": 1024}"#,
                "live|non_live|post_copy",
            ),
            (r#"{"kind": "live"}"#, "missing required field `ram_mib`"),
            (r#"{"kind": "live", "ram_mib": 0}"#, "ram_mib"),
            (
                r#"{"kind": "live", "ram_mib": 1024, "vm_cpu_fraction": 1.5}"#,
                "vm_cpu_fraction",
            ),
            (r#"[1, 2]"#, "must be a JSON object"),
        ] {
            let err = parse(json).expect_err(json);
            assert!(err.contains(needle), "{json}: {err}");
        }
    }

    #[test]
    fn truth_fields_are_optional_but_strict_when_present() {
        let bare = parse(r#"{"kind": "live", "ram_mib": 4096}"#).unwrap();
        assert_eq!(bare.truth_source_energy_j, None);
        assert_eq!(bare.truth_target_energy_j, None);
        let with = parse(
            r#"{"kind": "live", "ram_mib": 4096,
                "truth_source_energy_j": 1234.5, "truth_target_energy_j": 600}"#,
        )
        .unwrap();
        assert_eq!(with.truth_source_energy_j, Some(1234.5));
        assert_eq!(with.truth_target_energy_j, Some(600.0));
        for bad in [
            r#"{"kind": "live", "ram_mib": 1, "truth_source_energy_j": 0}"#,
            r#"{"kind": "live", "ram_mib": 1, "truth_source_energy_j": -2}"#,
            r#"{"kind": "live", "ram_mib": 1, "truth_target_energy_j": "x"}"#,
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn error_bodies_carry_correlation_context() {
        let body = ErrorResponse::with_context(
            "overloaded",
            "queue full",
            "0af7651916cd43dd8448eb211c80319c",
            "7:1",
            "closed",
        );
        for needle in [
            "\"error\":\"overloaded\"",
            "\"trace_id\":\"0af7651916cd43dd8448eb211c80319c\"",
            "\"chaos_key\":\"7:1\"",
            "\"breaker\":\"closed\"",
        ] {
            assert!(body.contains(needle), "{body}");
        }
        // Placeholders render as given.
        let body = ErrorResponse::with_context("bad_request", "x", "-", "-", "-");
        assert!(body.contains("\"trace_id\":\"-\""), "{body}");
    }

    #[test]
    fn planner_inputs_use_the_selected_pair() {
        let m = parse(r#"{"kind": "live", "ram_mib": 1024}"#)
            .unwrap()
            .planner_inputs();
        assert_eq!(m.source_capacity, 32.0);
        assert_eq!(m.idle_power_w, 430.0);
        let o = parse(r#"{"kind": "live", "ram_mib": 1024, "machine_set": "O"}"#)
            .unwrap()
            .planner_inputs();
        assert_eq!(o.source_capacity, 40.0);
        assert_eq!(o.idle_power_w, 165.0);
    }

    #[test]
    fn plan_produces_a_priceable_record() {
        let req = parse(r#"{"kind": "live", "ram_mib": 2048}"#).unwrap();
        let plan = req.plan();
        assert!(plan.est_bytes > 0);
        assert!(!plan.samples.is_empty());
        let record = plan.to_record();
        use wavm3_models::{EnergyModel, HostRole};
        let model = wavm3_models::paper::wavm3_live();
        let e = model.predict_energy(HostRole::Source, &record);
        assert!(e.is_finite() && e > 0.0, "{e}");
    }
}
