//! Every workload at `--scale 0.02`: it must exit 0, print every metric
//! `BENCHMARK.json` defines by name with its unit, find no wrong output,
//! and — traced — write `layers.json` and `trace.json`.

use serde::Value;
use std::path::Path;
use std::process::Command;
use wavm3_e2e_bench::spec::{MetricSpec, Spec};

fn bench(out: &Path, workload: &str, trace: &str) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_wavm3-bench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "10"])
        .args(["--trace", trace, "--scale", "0.02", "--out"])
        .arg(out)
        .output()
        .expect("run wavm3-bench");
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(
        output.status.success(),
        "{workload} exited {}:\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    stdout
}

/// Every metric printed as `name = value unit`, and the result line
/// reporting it with that unit and no failures.
fn check_report(stdout: &str, metrics: &[MetricSpec]) {
    for m in metrics {
        let line = stdout
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{} = ", m.name)))
            .unwrap_or_else(|| panic!("{} not printed:\n{stdout}", m.name));
        assert!(line.ends_with(&format!(" {}", m.unit)), "{line}");
    }
    assert!(stdout.contains("fail_ratio = 0 ratio"), "{stdout}");
    let last: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
    assert_eq!(last.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(last.get("failed"), Some(&Value::U64(0)));
    let reported = last.get("metrics").and_then(Value::as_object).unwrap();
    assert_eq!(reported.len(), metrics.len());
    for m in metrics {
        let entry = last.get("metrics").unwrap().get(&m.name).unwrap();
        assert_eq!(
            entry.get("unit").and_then(Value::as_str),
            Some(m.unit.as_str())
        );
        assert!(
            matches!(entry.get("value"), Some(Value::F64(_))),
            "{entry:?}"
        );
    }
}

fn number(v: &Value, key: &str) -> f64 {
    match v.get(key) {
        Some(Value::F64(x)) => *x,
        other => panic!("{key}: {other:?}"),
    }
}

#[test]
fn every_workload_runs_clean_at_small_scale() {
    let spec = Spec::embedded();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-untraced");
    for workload in &spec.workloads {
        let stdout = bench(&out, workload, "0");
        check_report(&stdout, &spec.end_to_end);
        assert!(out.join(format!("{workload}.json")).is_file());
    }
}

#[test]
fn every_workload_traces_its_layers() {
    let spec = Spec::embedded();
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-traced");
    for workload in &spec.workloads {
        let stdout = bench(&out, workload, "1");
        check_report(&stdout, &spec.per_layer);
        let dir = out.join(workload);
        let trace: Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("trace.json")).unwrap())
                .unwrap();
        assert!(!trace
            .get("traceEvents")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
        let layers: Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("layers.json")).unwrap())
                .unwrap();
        if workload.starts_with("serve") {
            continue;
        }
        // Batch workloads: the three time layers add up to the pass.
        let metrics = layers.get("metrics").unwrap();
        let per_op: f64 = [
            "engine_us_per_op",
            "support_us_per_op",
            "overhead_us_per_op",
        ]
        .iter()
        .map(|m| number(metrics.get(m).unwrap(), "value"))
        .sum();
        let layer = layers.get("layers").unwrap();
        let wall_us = number(layer, "pass.fastest_ms") * 1e3;
        let runs = number(layer, "pass.runs");
        assert!(
            (per_op * runs - wall_us).abs() <= 1e-6 * wall_us,
            "{workload}: {per_op} us x {runs} runs != {wall_us} us"
        );
    }
}
