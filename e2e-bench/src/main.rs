//! `wavm3-bench` — run the end-to-end benchmark, compare two result sets,
//! or regenerate the committed digests. See the crate documentation and
//! `BENCHMARK.md` for what each workload and metric means.

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use wavm3_e2e_bench::batch::{self, Batch};
use wavm3_e2e_bench::compare::{compare, spread, Verdict};
use wavm3_e2e_bench::spec::Spec;
use wavm3_e2e_bench::{run_workload, Run, Settings};

const USAGE: &str = "\
usage: wavm3-bench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                   [--scale F] [--out DIR]
       wavm3-bench compare A B
       wavm3-bench digests SEED...

  --workload NAME  run one workload in this process (default: every
                   workload, each in its own child process)
  --seed N         the benchmark's only input (default 7)
  --seconds S      measuring time per workload (default: run_seconds
                   of BENCHMARK.json)
  --trace [0|1]    1 runs the traced pass and reports per-layer metrics
  --scale F        work multiplier for quick checks (default 1)
  --out DIR        results directory (default bench-out)

  compare A B      compare the result sets under directories A and B
  digests SEED...  print the batch workloads' digests for these seeds

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics. Exit codes: 0 correct, 1 wrong outputs or a
worse metric, 2 usage errors.";

struct Args {
    workload: Option<String>,
    settings: Settings,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        settings: Settings {
            seed: 7,
            seconds: Spec::embedded().run_seconds,
            trace: false,
            scale: 1.0,
        },
        out: PathBuf::from("bench-out"),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?.clone()),
            "--seed" => parsed.settings.seed = number(value("--seed")?)?,
            "--seconds" => parsed.settings.seconds = positive(value("--seconds")?)?,
            "--scale" => parsed.settings.scale = positive(value("--scale")?)?,
            "--out" => parsed.out = PathBuf::from(value("--out")?),
            "--trace" => {
                parsed.settings.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option {other}\n\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn number<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("cannot parse {s:?}"))
}

fn positive(s: &str) -> Result<f64, String> {
    let x: f64 = number(s)?;
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!("{s:?} must be a positive number"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare_sets(Path::new(a), Path::new(b)),
            _ => Err(Failure::Usage(format!(
                "compare needs two directories\n\n{USAGE}"
            ))),
        },
        Some("digests") => digests(&args[1..]),
        _ => parse(&args)
            .map_err(Failure::Usage)
            .and_then(|a| match &a.workload {
                Some(name) => one(name, &a),
                None => all(&a),
            }),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Wrong(message)) => {
            eprintln!("wavm3-bench: {message}");
            ExitCode::from(1)
        }
        Err(Failure::Usage(message)) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

enum Failure {
    /// Wrong outputs, a failed run, or a worse metric: exit 1.
    Wrong(String),
    /// Bad arguments: exit 2.
    Usage(String),
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, Value)>,
) -> String {
    let root = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    serde_json::to_string(&root).expect("result line serialises")
}

fn measured(value: f64, unit: &str) -> Value {
    Value::Object(vec![
        ("value".into(), Value::F64(value)),
        ("unit".into(), Value::Str(unit.into())),
    ])
}

fn write(path: &Path, text: &str) -> Result<(), Failure> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| Failure::Wrong(format!("cannot create {}: {e}", dir.display())))?;
    }
    std::fs::write(path, text)
        .map_err(|e| Failure::Wrong(format!("cannot write {}: {e}", path.display())))
}

/// Run one workload in this process.
fn one(name: &str, args: &Args) -> Result<(), Failure> {
    let spec = Spec::embedded();
    if !spec.workloads.iter().any(|w| w == name) {
        return Err(Failure::Usage(format!(
            "unknown workload {name:?}; one of {}",
            spec.workloads.join(", ")
        )));
    }
    let s = &args.settings;
    println!(
        "== {name} (seed {}, {} s{}{}) ==",
        s.seed,
        s.seconds,
        if s.trace { ", traced" } else { "" },
        if s.scale == 1.0 {
            String::new()
        } else {
            format!(", scale {}", s.scale)
        }
    );
    let run = run_workload(name, s).map_err(Failure::Wrong)?;
    for line in &run.lines {
        println!("  {line}");
    }
    let defs = spec.metrics(s.trace);
    let mut metrics = Vec::with_capacity(defs.len());
    for def in defs {
        let value = run
            .metrics
            .iter()
            .find(|(n, _)| *n == def.name)
            .map(|(_, v)| *v)
            .ok_or_else(|| Failure::Wrong(format!("{name} did not report {}", def.name)))?;
        println!("  {} = {value} {}", def.name, def.unit);
        metrics.push((def.name.clone(), measured(value, &def.unit)));
    }
    if let Some((extra, _)) = run
        .metrics
        .iter()
        .find(|(n, _)| !defs.iter().any(|d| d.name == *n))
    {
        return Err(Failure::Wrong(format!(
            "{name} reported {extra}, which BENCHMARK.json does not define"
        )));
    }
    let fail_ratio = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "  fail_ratio = {fail_ratio} ratio ({} of {} failed)",
        run.failed, run.attempted
    );
    for problem in &run.problems {
        println!("  WRONG: {problem}");
    }
    println!("  correct: {}", if run.correct() { "yes" } else { "NO" });
    save(&run, args, &metrics)?;
    println!(
        "{}",
        result_line(run.correct(), run.attempted, run.failed, metrics)
    );
    if run.correct() {
        Ok(())
    } else {
        Err(Failure::Wrong(format!("{name}: outputs are not correct")))
    }
}

/// Write the run's results JSON, or its layers and trace when traced.
fn save(run: &Run, args: &Args, metrics: &[(String, Value)]) -> Result<(), Failure> {
    let s = &args.settings;
    let head = vec![
        ("workload".into(), Value::Str(run.workload.clone())),
        ("seed".into(), Value::U64(s.seed)),
        ("seconds".into(), Value::F64(s.seconds)),
        ("scale".into(), Value::F64(s.scale)),
        ("correct".into(), Value::Bool(run.correct())),
        ("attempted".into(), Value::U64(run.attempted)),
        ("failed".into(), Value::U64(run.failed)),
        ("metrics".into(), Value::Object(metrics.to_vec())),
        (
            "problems".into(),
            Value::Array(run.problems.iter().cloned().map(Value::Str).collect()),
        ),
    ];
    let pretty = |entries: Vec<(String, Value)>| {
        serde_json::to_string_pretty(&Value::Object(entries)).expect("results serialise")
    };
    if !s.trace {
        let mut entries = head;
        entries.push((
            "report".into(),
            Value::Array(run.lines.iter().cloned().map(Value::Str).collect()),
        ));
        return write(
            &args.out.join(format!("{}.json", run.workload)),
            &pretty(entries),
        );
    }
    let dir = args.out.join(&run.workload);
    let mut entries = head;
    entries.push((
        "layers".into(),
        Value::Object(
            run.layers
                .iter()
                .map(|(n, v)| (n.clone(), Value::F64(*v)))
                .collect(),
        ),
    ));
    write(&dir.join("layers.json"), &pretty(entries))?;
    if let Some(tracer) = &run.tracer {
        write(&dir.join("trace.json"), &tracer.chrome_json())?;
    }
    Ok(())
}

/// Run every workload, each in its own child process.
fn all(args: &Args) -> Result<(), Failure> {
    let spec = Spec::embedded();
    let exe = std::env::current_exe().map_err(|e| Failure::Wrong(e.to_string()))?;
    let s = &args.settings;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for name in &spec.workloads {
        let output = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &s.seed.to_string()])
            .args(["--seconds", &s.seconds.to_string()])
            .args(["--trace", if s.trace { "1" } else { "0" }])
            .args(["--scale", &s.scale.to_string()])
            .arg("--out")
            .arg(&args.out)
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| Failure::Wrong(format!("cannot run {name}: {e}")))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        let last: Option<Value> = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str(l).ok());
        let Some(last) = last.filter(|_| output.status.success()) else {
            correct = false;
            eprintln!("wavm3-bench: {name} failed ({})", output.status);
            continue;
        };
        correct &= last.get("correct") == Some(&Value::Bool(true));
        let count = |key: &str| match last.get(key) {
            Some(Value::U64(n)) => *n,
            _ => 0,
        };
        attempted += count("attempted");
        failed += count("failed");
        if let Some(entries) = last.get("metrics").and_then(Value::as_object) {
            metrics.extend(
                entries
                    .iter()
                    .map(|(k, v)| (format!("{name}/{k}"), v.clone())),
            );
        }
    }
    println!("{}", result_line(correct, attempted, failed, metrics));
    if correct {
        Ok(())
    } else {
        Err(Failure::Wrong(
            "some workload failed or produced wrong outputs".into(),
        ))
    }
}

/// Every `<workload>.json` under `dir`, in path order, as
/// workload → runs → metric → value.
fn load_set(
    dir: &Path,
    spec: &Spec,
) -> Result<BTreeMap<String, Vec<BTreeMap<String, f64>>>, Failure> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let entries = std::fs::read_dir(&d)
            .map_err(|e| Failure::Usage(format!("cannot read {}: {e}", d.display())))?;
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path
                .file_stem()
                .and_then(|s| s.to_str())
                .is_some_and(|stem| spec.workloads.iter().any(|w| w == stem))
                && path.extension().is_some_and(|e| e == "json")
            {
                files.push(path);
            }
        }
    }
    files.sort();
    let mut set: BTreeMap<String, Vec<BTreeMap<String, f64>>> = BTreeMap::new();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| Failure::Usage(format!("cannot read {}: {e}", path.display())))?;
        let root: Value = serde_json::from_str(&text)
            .map_err(|e| Failure::Usage(format!("{}: {e}", path.display())))?;
        let workload = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default();
        let mut values = BTreeMap::new();
        for (name, m) in root
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            if let Some(Value::F64(v)) = m.get("value") {
                values.insert(name.clone(), *v);
            }
        }
        set.entry(workload.to_string()).or_default().push(values);
    }
    Ok(set)
}

/// `compare A B`: one row per workload × end-to-end metric.
fn compare_sets(a: &Path, b: &Path) -> Result<(), Failure> {
    let spec = Spec::embedded();
    let (sa, sb) = (load_set(a, &spec)?, load_set(b, &spec)?);
    println!(
        "{:<18} {:<17} {:>30} {:>30} {:>8} {:>6}  verdict (bound)",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "wins"
    );
    let mut worse = 0;
    let mut unresolved = 0;
    let mut rows = 0;
    for workload in &spec.workloads {
        let (Some(ra), Some(rb)) = (sa.get(workload), sb.get(workload)) else {
            continue;
        };
        for def in &spec.end_to_end {
            let values = |runs: &Vec<BTreeMap<String, f64>>| -> Vec<f64> {
                runs.iter()
                    .filter_map(|m| m.get(&def.name).copied())
                    .collect()
            };
            let (va, vb) = (values(ra), values(rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let c = compare(&va, &vb, def.higher_is_better, bound);
            let side = |s: &wavm3_e2e_bench::summary::Summary| {
                let (q1, q3) = s.quartiles().expect("runs");
                format!(
                    "{:.4} [{:.4}, {:.4}] ({})",
                    s.median().expect("runs"),
                    q1,
                    q3,
                    s.n()
                )
            };
            println!(
                "{:<18} {:<17} {:>30} {:>30} {:>+7.2}% {:>3}/{:<2}  {} ({:.0}%; spread {:.1}%/{:.1}%)",
                workload,
                def.name,
                side(&c.a),
                side(&c.b),
                c.gain * 100.0,
                c.wins.0,
                c.wins.1,
                c.verdict.label(),
                bound * 100.0,
                spread(&c.a) * 100.0,
                spread(&c.b) * 100.0
            );
            rows += 1;
            worse += usize::from(c.verdict == Verdict::Worse);
            unresolved += usize::from(c.verdict == Verdict::Unresolved);
        }
    }
    println!("{rows} rows: {worse} worse, {unresolved} unresolved");
    if rows == 0 {
        return Err(Failure::Usage(
            "no workload has results on both sides".into(),
        ));
    }
    if worse > 0 {
        return Err(Failure::Wrong(format!("{worse} metric(s) worse")));
    }
    Ok(())
}

/// `digests SEED...`: the batch workloads' pass digests, as
/// `digests.json` holds them.
fn digests(seeds: &[String]) -> Result<(), Failure> {
    if seeds.is_empty() {
        return Err(Failure::Usage(format!(
            "digests needs at least one seed\n\n{USAGE}"
        )));
    }
    let seeds: Vec<u64> = seeds
        .iter()
        .map(|s| number(s).map_err(Failure::Usage))
        .collect::<Result<_, _>>()?;
    // One digest per line keeps the committed file small and diffable.
    let mut text = String::from("{\n");
    let workloads = [Batch::Ripple, Batch::Constant, Batch::Reproduce];
    for (i, b) in workloads.iter().enumerate() {
        text.push_str(&format!("  \"{}\": {{\n", b.name()));
        for (j, &seed) in seeds.iter().enumerate() {
            let d = batch::digest(*b, seed).map_err(Failure::Wrong)?;
            let line = serde_json::to_string(&d).expect("digests serialise");
            let comma = if j + 1 < seeds.len() { "," } else { "" };
            text.push_str(&format!("    \"{seed}\": {line}{comma}\n"));
        }
        text.push_str(if i + 1 < workloads.len() {
            "  },\n"
        } else {
            "  }\n"
        });
    }
    text.push('}');
    println!("{text}");
    Ok(())
}
