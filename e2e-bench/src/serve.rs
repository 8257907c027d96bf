//! The serve workloads: an in-process `wavm3_serve::start` with one
//! worker per core, tracing and chaos off, driven by the open-loop
//! generator ([`crate::openloop`]).
//!
//! An untraced run spends 70 % of its measuring time at a fixed rate of
//! 400 req/s (latency, timed from each request's due instant) and the rest
//! in a closed loop with one sender per core (the rate the server
//! sustains).
//! Bodies follow `wavm3-loadgen`'s: mechanism uniform, CPU share
//! 0.1–0.9, `/predict` and `/plan` alternating. `serve-small` migrates
//! 0.5–4 GiB VMs, for which the planner is a few microseconds of work;
//! `serve-large` migrates 64 GiB–1 TiB VMs, for which it synthesises
//! thousands of feature samples per request.

use crate::openloop::{self, Load, Outcome, PhaseReport, Request};
use crate::spans::Tracer;
use crate::summary::Summary;
use crate::{nproc, peak_rss_mb, Run, Settings};
use rand::Rng;
use serde::Value;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use wavm3_migration::MigrationKind;
use wavm3_models::{EnergyModel, HostRole};
use wavm3_serve::api::{kind_label, ApiRequest, PlanResponse, PredictResponse};
use wavm3_serve::{ServeConfig, ServerHandle};
use wavm3_simkit::RngFactory;

/// Offered rate of the fixed-rate phase, requests per second.
const RATE: f64 = 400.0;

/// Latency limit of the service-level check, milliseconds from due time.
pub const LIMIT_MS: f64 = 10.0;

/// Share of requests that must meet [`LIMIT_MS`] with a correct answer.
pub const LIMIT_SHARE: f64 = 0.99;

/// Share of an untraced run's measuring time spent at the fixed rate; the
/// rest measures the closed loop, whose rate settles much faster than a
/// p99 does.
const FIXED_SHARE: f64 = 0.7;

/// Distinct request bodies; request `i` sends body `i % POOL`.
const POOL: usize = 512;

/// Set-ups per untraced run, half before and half after the measurement;
/// `setup_s` is their median.
const SETUP_CYCLES: usize = 10;

/// Relative tolerance when comparing response numbers with the oracle.
const RTOL: f64 = 1e-9;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// `serve-small`: 512 MiB–4 GiB migrants.
    Small,
    /// `serve-large`: 64 GiB–1 TiB migrants.
    Large,
}

impl Size {
    /// Workload name.
    pub fn name(self) -> &'static str {
        match self {
            Size::Small => "serve-small",
            Size::Large => "serve-large",
        }
    }
}

/// The seeded request `id`: loadgen's body distribution with this
/// workload's migrant sizes.
///
/// Sizes are uniform over the workload's steps, as in loadgen, but taken
/// in turn rather than drawn: each pair of requests (one `/predict`, one
/// `/plan`) gets the next step. The pool then holds every size equally
/// often whatever the seed, so the share of the heaviest requests, which
/// sets the tail, does not change from seed to seed.
fn request(size: Size, seed: u64, id: u64) -> Request {
    let mut rng = RngFactory::new(seed).child(id).stream("bench.body");
    let ram_mib = match size {
        Size::Small => 512 * (id / 2 % 8 + 1),
        Size::Large => 65_536 * (id / 2 % 16 + 1),
    };
    let kind = match rng.gen_range(0u32..3) {
        0 => "live",
        1 => "non_live",
        _ => "post_copy",
    };
    let cpu: f64 = rng.gen_range(0.1..0.9);
    Request {
        path: if id.is_multiple_of(2) {
            "/predict"
        } else {
            "/plan"
        },
        body: format!(
            "{{\"kind\": \"{kind}\", \"ram_mib\": {ram_mib}, \"vm_cpu_fraction\": {cpu:.3}}}"
        ),
    }
}

/// Time spent in each layer on one request, computed outside the server
/// by calling the same public functions its handler calls.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTimes {
    parse_s: f64,
    plan_s: f64,
    predict_s: f64,
    render_s: f64,
    samples: u64,
    rounds: u64,
}

impl LayerTimes {
    /// Each layer's faster reading of the two.
    fn fastest(self, other: &LayerTimes) -> LayerTimes {
        LayerTimes {
            parse_s: self.parse_s.min(other.parse_s),
            plan_s: self.plan_s.min(other.plan_s),
            predict_s: self.predict_s.min(other.predict_s),
            render_s: self.render_s.min(other.render_s),
            ..self
        }
    }
}

/// The correct response body for `request`, as a parsed JSON value, and
/// the per-layer cost of producing it.
///
/// Mirrors the server's live path: parse, plan, price the plan with the
/// paper's WAVM3 coefficients for the mechanism (live coefficients for
/// post-copy), render.
fn answer(request: &Request) -> Result<(Value, LayerTimes), String> {
    let mut times = LayerTimes::default();
    let t = Instant::now();
    let parsed: Value = serde_json::from_str(&request.body).map_err(|e| e.to_string())?;
    let api = ApiRequest::from_value(&parsed)?;
    times.parse_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let plan = api.plan();
    times.plan_s = t.elapsed().as_secs_f64();
    times.samples = plan.samples.len() as u64;
    times.rounds = plan.est_precopy_rounds as u64;

    let t = Instant::now();
    let record = plan.to_record();
    let model = match api.kind {
        MigrationKind::NonLive => wavm3_models::paper::wavm3_non_live(),
        MigrationKind::Live | MigrationKind::PostCopy => wavm3_models::paper::wavm3_live(),
    };
    let source = model.predict_energy(HostRole::Source, &record);
    let target = model.predict_energy(HostRole::Target, &record);
    times.predict_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let downtime_ms = plan.est_downtime.as_secs_f64() * 1e3;
    let duration_s = (plan.phases.me - plan.phases.ms).as_secs_f64();
    let body = if request.path == "/plan" {
        serde_json::to_string(&PlanResponse {
            kind: kind_label(api.kind).to_string(),
            machine_set: api.set_label().to_string(),
            est_bytes: plan.est_bytes,
            est_downtime_ms: downtime_ms,
            est_bandwidth_bps: plan.est_bandwidth_bps,
            est_precopy_rounds: plan.est_precopy_rounds as u64,
            est_duration_s: duration_s,
            samples: plan.samples.len() as u64,
            degraded: false,
            breaker: "closed".to_string(),
        })
    } else {
        serde_json::to_string(&PredictResponse {
            kind: kind_label(api.kind).to_string(),
            machine_set: api.set_label().to_string(),
            source_energy_j: source,
            target_energy_j: target,
            total_energy_j: source + target,
            downtime_ms,
            duration_s,
            est_bytes: plan.est_bytes,
            degraded: false,
            breaker: "closed".to_string(),
        })
    }
    .map_err(|e| e.to_string())?;
    times.render_s = t.elapsed().as_secs_f64();
    let expected = serde_json::from_str(&body).map_err(|e| e.to_string())?;
    Ok((expected, times))
}

/// Why a response body is wrong, or `None` when it matches `expected`:
/// strings, booleans and integers exactly, other numbers to [`RTOL`].
fn wrong_body(expected: &Value, body: &str) -> Option<String> {
    let got: Value = match serde_json::from_str(body) {
        Ok(v) => v,
        Err(e) => return Some(format!("unparseable body: {e}")),
    };
    let fields = expected.as_object()?;
    for (key, want) in fields {
        let Some(have) = got.get(key) else {
            return Some(format!("missing field {key}"));
        };
        let same = match (want, have) {
            (Value::F64(a), b) | (b, Value::F64(a)) => {
                number(b).is_some_and(|b| a == &b || (a - b).abs() <= RTOL * a.abs().max(b.abs()))
            }
            (a, b) => a == b,
        };
        if !same {
            return Some(format!("{key}: expected {want:?}, got {have:?}"));
        }
    }
    None
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// `GET /healthz` until it answers 200.
fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let status = TcpStream::connect(addr).ok().and_then(|mut s| {
            let _ = s.set_read_timeout(Some(openloop::IO_TIMEOUT));
            wavm3_serve::http::roundtrip(&mut s, "GET", "/healthz", &[], &[])
                .ok()
                .map(|r| r.status)
        });
        if status == Some(200) {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!("server at {addr} never became healthy"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn start(workers: usize) -> Result<ServerHandle, String> {
    wavm3_serve::start(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
    .map_err(|e| e.to_string())
}

/// Run a serve workload.
pub fn run(size: Size, settings: &Settings) -> Result<Run, String> {
    let mut run = Run::new(size.name());
    let cores = nproc();

    // Set-up: the request pool, the oracle's answer for every body, and a
    // started server. The server start alone is a fraction of a
    // millisecond of thread start-up whose run-to-run scatter no median
    // tames. The wait for the first `/healthz` answer is not timed: it
    // hangs on whether the accept loop's first poll came before the
    // connection, which adds 0 or about 2 ms at random.
    let pool_size = settings.scaled(POOL, 8);
    type Ready = (Vec<Request>, Vec<(Value, LayerTimes)>, ServerHandle);
    let set_up = || -> Result<(Ready, f64), String> {
        let t = Instant::now();
        let requests: Vec<Request> = (0..pool_size as u64)
            .map(|id| request(size, settings.seed, id))
            .collect();
        let answers = requests.iter().map(answer).collect::<Result<Vec<_>, _>>()?;
        let server = start(cores)?;
        let seconds = t.elapsed().as_secs_f64();
        wait_healthy(server.local_addr())?;
        Ok(((requests, answers, server), seconds))
    };
    // Half the set-ups run before the measurement and half after it, so
    // one slow spell of the machine cannot own the median.
    let before = if settings.trace { 1 } else { SETUP_CYCLES / 2 };
    let mut setup_s = Vec::with_capacity(SETUP_CYCLES);
    let mut ready: Option<Ready> = None;
    for _ in 0..before {
        if let Some((_, _, previous)) = ready.take() {
            previous.join();
        }
        let (next, seconds) = set_up()?;
        setup_s.push(seconds);
        ready = Some(next);
    }
    let (requests, answers, server) = ready.expect("at least one set-up");
    let addr = server.local_addr();

    let measure = Duration::from_secs_f64(settings.measure_s());
    let (fixed, second) = if settings.trace {
        let half = measure / 2;
        (
            openloop::run(addr, Load::Rate(RATE), half, cores, &requests),
            openloop::run(addr, Load::Rate(RATE), half, cores, &requests),
        )
    } else {
        (
            openloop::run(
                addr,
                Load::Rate(RATE),
                measure.mul_f64(FIXED_SHARE),
                cores,
                &requests,
            ),
            openloop::run(
                addr,
                Load::Closed,
                measure.mul_f64(1.0 - FIXED_SHARE),
                cores,
                &requests,
            ),
        )
    };

    let counters = server.registry().snapshot().counters;
    let drain = server.join();
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    if drain.accepted != drain.completed + drain.shed {
        run.problem(format!("drain lost requests: {drain:?}"));
    }
    if !settings.trace {
        for _ in before..SETUP_CYCLES {
            let ((_, _, server), seconds) = set_up()?;
            setup_s.push(seconds);
            server.join();
        }
    }

    // Why a request failed, or `None` when it got the right answer.
    let wrong = |o: &Outcome| match o.status {
        200 => wrong_body(&answers[o.id as usize % pool_size].0, &o.body),
        0 => Some("connection error".to_string()),
        status => Some(format!("status {status}: {}", o.body)),
    };
    for phase in [&fixed, &second] {
        for o in &phase.outcomes {
            run.attempted += 1;
            if let Some(why) = wrong(o) {
                run.failed += 1;
                run.problem(format!("request {}: {why}", o.id));
            }
        }
    }

    let latency = Summary::new(fixed.outcomes.iter().map(Outcome::latency_ms).collect());
    let late = Summary::new(fixed.outcomes.iter().map(Outcome::late_ms).collect());
    let within = fixed.share_within(LIMIT_MS, |o| wrong(o).is_none());
    run.line(format!(
        "fixed rate {RATE} req/s, {cores} senders, {cores} workers"
    ));
    run.line(format!("latency from due time: {}", latency.render("ms")));
    run.line(format!("generator lateness: {}", late.render("ms")));
    run.line(format!(
        "{:.2}% of requests correct within {LIMIT_MS} ms of due time (limit {:.0}%): {}",
        within * 100.0,
        LIMIT_SHARE * 100.0,
        if within >= LIMIT_SHARE {
            "met"
        } else {
            "missed"
        }
    ));
    run.line(format!(
        "server: shed {}, deadline breached {}, degraded {}",
        counter("serve.shed"),
        counter("serve.deadline.breached"),
        counter("serve.responses.degraded")
    ));

    if settings.trace {
        traced(&mut run, &fixed, &second, &requests, &answers, cores);
    } else {
        let setup = Summary::new(setup_s);
        let p50 = latency.median().expect("at least one request");
        let (tail, seconds) = tail_ms(&fixed);
        run.metric("throughput_per_s", second.achieved_rps());
        run.metric("latency_ms", p50);
        run.metric("tail_latency_ms", tail);
        run.line(format!(
            "p99 of each second, median over {seconds} seconds: {tail:.4} ms"
        ));
        run.metric("setup_s", setup.median().expect("at least one start-up"));
        run.metric("peak_rss_mb", peak_rss_mb()?);
        run.line(format!(
            "closed loop, {cores} senders: {:.1} req/s over {:.2} s",
            second.achieved_rps(),
            second.wall_s
        ));
        run.line(format!("setup: {}", setup.render("s")));
    }
    Ok(run)
}

/// The fixed-rate phase's p99, made robust to stalls of the machine
/// itself: the p99 of each whole second of requests, median over the
/// seconds, with the number of seconds. Other tenants of a shared machine
/// stall this process now and then for tens of milliseconds; such a stall
/// holds up every request due during it and would own a whole-phase p99,
/// but here it owns only the seconds it falls in. A phase shorter than two
/// seconds falls back to its highest percentile with enough samples
/// beyond it, or its maximum.
fn tail_ms(fixed: &PhaseReport) -> (f64, usize) {
    let latencies: Vec<f64> = fixed.outcomes.iter().map(Outcome::latency_ms).collect();
    let per_second: Vec<f64> = latencies
        .chunks_exact(RATE as usize)
        .map(|second| {
            Summary::new(second.to_vec())
                .at(99.0)
                .expect("a full second")
        })
        .collect();
    if per_second.len() >= 2 {
        let n = per_second.len();
        (Summary::new(per_second).median().expect("seconds"), n)
    } else {
        let all = Summary::new(latencies);
        let tail = all
            .tail()
            .map_or_else(|| all.at(100.0).expect("requests"), |(_, v)| v);
        (tail, per_second.len())
    }
}

/// Per-layer numbers for the second (traced) fixed-rate phase: spans
/// from the generator's timestamps, compute layers timed by replaying
/// each request's handler calls outside the server.
fn traced(
    run: &mut Run,
    untraced: &PhaseReport,
    traced: &PhaseReport,
    requests: &[Request],
    answers: &[(Value, LayerTimes)],
    cores: usize,
) {
    let mut tracer = Tracer::new(untraced.started);
    let offset = tracer.at(traced.started);
    for o in &traced.outcomes {
        let request = tracer.record(
            "request",
            offset + o.due_us,
            offset + o.done_us,
            None,
            o.id,
            o.sender,
        );
        for (name, start, end) in [
            ("client.wait", o.due_us, o.start_us),
            ("client.connect", o.start_us, o.connected_us),
            ("client.response", o.connected_us, o.done_us),
        ] {
            tracer.record(
                name,
                offset + start,
                offset + end,
                Some(request),
                o.id,
                o.sender,
            );
        }
    }

    // Re-time every body twice more now that the server is gone, and keep
    // each layer's fastest reading: the oracle's pass ran cold.
    let mut best: Vec<LayerTimes> = answers.iter().map(|(_, t)| *t).collect();
    let root = tracer.open("layers", None, 0);
    for _ in 0..2 {
        for (i, request) in requests.iter().enumerate() {
            if let Ok((_, t)) = tracer.time("answer", Some(root), i as u64, || answer(request)) {
                best[i] = best[i].fastest(&t);
            }
        }
    }
    tracer.close(root);

    // Weight by what the traced phase actually sent.
    let sent: Vec<&LayerTimes> = traced
        .outcomes
        .iter()
        .map(|o| &best[o.id as usize % requests.len()])
        .collect();
    let avg_us =
        |f: fn(&LayerTimes) -> f64| mean(&sent.iter().map(|t| f(t)).collect::<Vec<_>>()) * 1e6;
    let parse = avg_us(|t| t.parse_s);
    let plan = avg_us(|t| t.plan_s);
    let predict = avg_us(|t| t.predict_s);
    let render = avg_us(|t| t.render_s);
    let samples = mean(&sent.iter().map(|t| t.samples as f64).collect::<Vec<_>>());
    let rounds = mean(&sent.iter().map(|t| t.rounds as f64).collect::<Vec<_>>());
    let p50 = |r: &PhaseReport| {
        Summary::new(r.outcomes.iter().map(Outcome::latency_ms).collect())
            .median()
            .expect("at least one request")
    };
    let (p50_untraced, p50_traced) = (p50(untraced), p50(traced));
    let compute = parse + plan + predict + render;
    let transport = p50_traced * 1e3 - compute;
    let client = |f: fn(&Outcome) -> f64| {
        Summary::new(traced.outcomes.iter().map(f).collect())
            .median()
            .expect("at least one request")
    };

    run.metric("engine_us_per_op", plan);
    run.metric("support_us_per_op", parse + predict + render);
    run.metric("overhead_us_per_op", transport);
    run.metric("engine_ns_per_step", plan / samples.max(1.0) * 1e3);
    run.metric("steps_per_op", samples);
    run.metric("rounds_per_op", rounds);
    run.metric(
        "trace_overhead_pct",
        (p50_traced - p50_untraced) / p50_untraced * 100.0,
    );

    run.layer("serve.parse_us", parse);
    run.layer("serve.render_us", render);
    run.layer("consolidation.plan_us", plan);
    run.layer("models.predict_us", predict);
    run.layer("serve.compute_share", compute / (p50_traced * 1e3));
    run.layer(
        "serve.client.connect_us",
        client(|o| o.connected_us - o.start_us),
    );
    run.layer(
        "serve.client.response_us",
        client(|o| o.done_us - o.connected_us),
    );
    run.layer("serve.transport_us", transport);
    run.layer(
        "loadgen.late_p99_ms",
        Summary::new(traced.outcomes.iter().map(Outcome::late_ms).collect())
            .at(99.0)
            .expect("at least one request"),
    );
    run.layer("loadgen.achieved_rps", traced.achieved_rps());
    run.layer("loadgen.senders", cores as f64);
    run.line(format!(
        "traced p50 {p50_traced:.4} ms = compute {compute:.2} us (plan {plan:.2}, parse {parse:.2}, predict {predict:.2}, render {render:.2}) + transport {transport:.2} us"
    ));
    run.tracer = Some(tracer);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bodies_are_seeded_and_sized_per_workload() {
        assert_eq!(request(Size::Small, 7, 3), request(Size::Small, 7, 3));
        assert_ne!(request(Size::Small, 7, 3), request(Size::Small, 8, 3));
        for id in 0..64 {
            for (size, lo, hi) in [(Size::Small, 512, 4096), (Size::Large, 65_536, 1 << 20)] {
                let r = request(size, 7, id);
                let v: Value = serde_json::from_str(&r.body).unwrap();
                let api = ApiRequest::from_value(&v).unwrap();
                assert!((lo..=hi).contains(&api.ram_mib), "{}", r.body);
                assert!((0.1..0.9).contains(&api.vm_cpu_fraction), "{}", r.body);
                assert_eq!(
                    r.path,
                    if id.is_multiple_of(2) {
                        "/predict"
                    } else {
                        "/plan"
                    }
                );
            }
        }
        // Every size in turn, each for one `/predict` and one `/plan`.
        let ram = |id| {
            let v: Value = serde_json::from_str(&request(Size::Large, 7, id).body).unwrap();
            ApiRequest::from_value(&v).unwrap().ram_mib
        };
        assert_eq!(
            [ram(0), ram(1), ram(2), ram(31), ram(32)],
            [65_536, 65_536, 131_072, 1 << 20, 65_536]
        );
    }

    #[test]
    fn the_oracle_flags_wrong_numbers_and_fields() {
        let r = request(Size::Small, 7, 0);
        let (expected, _) = answer(&r).unwrap();
        let good = serde_json::to_string(&expected).unwrap();
        assert_eq!(wrong_body(&expected, &good), None);
        let bad = good.replace("\"degraded\":false", "\"degraded\":true");
        assert!(wrong_body(&expected, &bad).unwrap().starts_with("degraded"));
        assert!(wrong_body(&expected, "{}").unwrap().starts_with("missing"));
        assert!(wrong_body(&expected, "nope").is_some());
    }
}
