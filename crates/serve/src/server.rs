//! The failure-hardened prediction & planning server.
//!
//! Plain `std::net` blocking I/O: an accept thread feeds a bounded
//! admission queue ([`crate::queue`]), a fixed worker pool drains it, and
//! every robustness mechanism is deterministic and separately testable —
//! per-request deadlines, load shedding with `429 Retry-After`, a
//! circuit breaker ([`crate::breaker`]) that degrades planner requests to
//! an analytic fast path with last-known-good coefficients instead of
//! erroring, seeded chaos injection ([`crate::chaos`]), and a graceful
//! drain that finishes every accepted in-flight request before
//! [`ServerHandle::join`] returns.
//!
//! ## Endpoints
//!
//! | Route | Semantics |
//! |---|---|
//! | `POST /predict` | energy/downtime prediction for one migration |
//! | `POST /plan`    | full analytic plan via `wavm3-consolidation` |
//! | `GET /metrics`  | Prometheus exposition (+ SLO gauges, exemplars) |
//! | `GET /healthz`  | liveness + breaker position + drift state |
//! | `GET /debug/slo` | JSON SLO report (burn rates per route) |
//! | `GET /debug/metrics` | JSON metrics snapshot (regress input) |
//!
//! The introspection routes never touch the counters they report, so the
//! exposition is byte-stable while the server is quiescent.
//!
//! ## Request observability
//!
//! Every request carries a [`wavm3_obs::reqtrace::ReqTrace`] span tree
//! (accept → queue → read → breaker → plan/predict → respond) resolved
//! from the client's `x-wavm3-trace-id` / `traceparent` headers (or a
//! server-generated fallback — malformed telemetry headers never fail a
//! request). The trace id is echoed on every response as
//! `x-wavm3-trace-id` and embedded in every error body, the access log
//! gets one line per request, and [`crate::telemetry::Telemetry`]
//! tail-samples the span trees into one collector exported at drain.

use crate::api::{kind_label, ApiRequest, ErrorResponse, PlanResponse, PredictResponse};
use crate::breaker::{Admission, BreakerState, CircuitBreaker};
use crate::chaos::{self, Fate};
use crate::config::ServeConfig;
use crate::http::{read_body, read_head, read_request, Request, Response};
use crate::queue::{BoundedQueue, PushOutcome};
use crate::telemetry::{route_label, Telemetry};
use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wavm3_harness::Wavm3Error;
use wavm3_migration::MigrationKind;
use wavm3_models::{EnergyModel, HostRole, Wavm3Model};
use wavm3_obs::metrics::{buckets, Registry};
use wavm3_obs::reqtrace::ReqTrace;
use wavm3_obs::slo::{DriftState, SloReport};

/// Per-connection I/O timeout (keeps a wedged peer from pinning a worker).
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Accept-loop poll interval while the listener is idle.
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// How long the accept thread will wait to drain a shed request before
/// answering 429 (kept short so slow peers cannot stall admission).
const SHED_DRAIN_TIMEOUT: Duration = Duration::from_millis(500);

/// A connection waiting for a worker.
struct Job {
    stream: TcpStream,
    accepted_at: Instant,
}

/// Reads a connection within a total budget that ends at `deadline`.
/// Before each read the socket's timeout is set to what is left (at most
/// [`IO_TIMEOUT`]), so a client that drips its request cannot hold the
/// reader past the budget. Once it is spent, only bytes that have already
/// arrived are read. Expiry surfaces as [`timed_out`] errors.
struct Budgeted<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Budgeted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            self.stream.set_nonblocking(true)?;
            let n = self.stream.read(buf);
            self.stream.set_nonblocking(false)?;
            return n;
        }
        self.stream.set_read_timeout(Some(left.min(IO_TIMEOUT)))?;
        self.stream.read(buf)
    }
}

/// Close a connection after its response (RFC 9112 §9.6). Closing a socket
/// with unread request bytes makes the kernel answer with a reset, which
/// can destroy the response before the client reads it. So one
/// non-blocking read looks for such bytes; if it finds any, the write side
/// is shut down (the client sees the response end) and the rest is read
/// and discarded until the client closes or `deadline` passes. Otherwise
/// the socket closes at once.
fn close_staged(stream: &TcpStream, deadline: Instant) {
    let mut scratch = [0u8; 4096];
    let pending = stream.set_nonblocking(true).is_ok()
        && matches!((&*stream).read(&mut scratch), Ok(n) if n > 0);
    if !pending || stream.set_nonblocking(false).is_err() {
        return;
    }
    let _ = stream.shutdown(Shutdown::Write);
    let mut reader = Budgeted { stream, deadline };
    while matches!(reader.read(&mut scratch), Ok(n) if n > 0) {}
}

/// Whether a read failed because its budget or timeout ran out.
fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// The last successful planner outcome for one mechanism — the degraded
/// fast path scales it by RAM size instead of invoking the planner.
#[derive(Debug, Clone, Copy)]
struct KnownGood {
    ram_mib: u64,
    source_energy_j: f64,
    target_energy_j: f64,
    downtime_ms: f64,
    duration_s: f64,
    est_bytes: u64,
    bandwidth_bps: f64,
    precopy_rounds: u64,
    samples: u64,
}

fn kind_index(kind: MigrationKind) -> usize {
    match kind {
        MigrationKind::Live => 0,
        MigrationKind::NonLive => 1,
        MigrationKind::PostCopy => 2,
    }
}

struct Shared {
    cfg: ServeConfig,
    registry: Registry,
    telemetry: Telemetry,
    breaker: Mutex<CircuitBreaker>,
    known_good: Mutex<[KnownGood; 3]>,
    model_live: Wavm3Model,
    model_non_live: Wavm3Model,
    started: Instant,
    fallback_key: AtomicU64,
    completed: AtomicU64,
    chaos_dropped: AtomicU64,
}

impl Shared {
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    fn model_for(&self, kind: MigrationKind) -> &Wavm3Model {
        match kind {
            MigrationKind::NonLive => &self.model_non_live,
            // The live coefficients are the closest published fit for
            // post-copy (same phase structure, different downtime).
            MigrationKind::Live | MigrationKind::PostCopy => &self.model_live,
        }
    }

    /// Run the breaker closure, count state transitions, and stamp the
    /// observed position (and any transition) into the request trace.
    fn with_breaker<R>(
        &self,
        trace: Option<&mut ReqTrace>,
        f: impl FnOnce(&mut CircuitBreaker) -> R,
    ) -> R {
        let mut breaker = self.breaker.lock().expect("breaker poisoned");
        let before = breaker.state();
        let result = f(&mut breaker);
        let after = breaker.state();
        if before != after {
            let name = match after {
                BreakerState::Open => "serve.breaker.opened",
                BreakerState::HalfOpen => "serve.breaker.half_opened",
                BreakerState::Closed => "serve.breaker.closed",
            };
            self.registry.counter_add(name, 1);
        }
        if let Some(trace) = trace {
            trace.set_breaker(after.label());
            if before != after {
                trace.mark_breaker_transition();
            }
        }
        result
    }

    fn breaker_label(&self) -> &'static str {
        self.breaker
            .lock()
            .expect("breaker poisoned")
            .state()
            .label()
    }

    /// `/healthz` body: liveness, breaker position, and the drift keys
    /// currently degraded — `status` flips to `"degraded"` once any
    /// model×role window drifts past its Table VII baseline multiple.
    fn health_body(&self) -> String {
        let degraded = self.telemetry.degraded_keys();
        let status = if degraded.is_empty() {
            "ok"
        } else {
            "degraded"
        };
        let keys: Vec<String> = degraded.iter().map(|k| format!("\"{k}\"")).collect();
        format!(
            "{{\"status\": \"{status}\", \"breaker\": \"{}\", \"drift_degraded\": [{}]}}",
            self.breaker_label(),
            keys.join(", "),
        )
    }
}

/// Counters returned by [`ServerHandle::join`]: the graceful-drain
/// contract is `accepted == completed + shed` — every connection the
/// listener accepted was either answered by a worker or shed with 429,
/// never silently dropped (chaos drops are *completed* jobs whose
/// response was deliberately withheld, and are counted separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections accepted from the listener.
    pub accepted: u64,
    /// Jobs fully handled by a worker.
    pub completed: u64,
    /// Connections shed at admission with 429.
    pub shed: u64,
    /// Responses withheld by chaos drop injection.
    pub chaos_dropped: u64,
}

struct AcceptStats {
    accepted: u64,
    shed: u64,
}

/// A running server; dropping the handle without [`join`](Self::join)
/// leaks the threads, so tests and bins always join.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
    accept_thread: JoinHandle<AcceptStats>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` ephemeral binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics registry (shared with `/metrics`).
    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// The current SLO report (what `GET /debug/slo` serves).
    pub fn slo_report(&self) -> SloReport {
        self.shared.telemetry.slo_report(&self.shared.registry)
    }

    /// Every drift window's current state.
    pub fn drift_states(&self) -> Vec<DriftState> {
        self.shared.telemetry.drift_states()
    }

    /// Begin graceful shutdown without waiting: the accept loop stops,
    /// queued and in-flight requests keep draining.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Graceful drain: stop accepting, finish every queued and in-flight
    /// request, then return the accounting.
    pub fn join(self) -> DrainReport {
        self.shutdown.store(true, Ordering::SeqCst);
        let stats = self.accept_thread.join().expect("accept thread panicked");
        for worker in self.workers {
            worker.join().expect("worker panicked");
        }
        let completed = self.shared.completed.load(Ordering::SeqCst);
        self.shared
            .registry
            .counter_add("serve.drain.completed_inflight", completed);
        // Workers have quiesced: flush the access log and write the
        // span exports before reporting.
        self.shared.telemetry.export(&self.shared.registry);
        DrainReport {
            accepted: stats.accepted,
            completed,
            shed: stats.shed,
            chaos_dropped: self.shared.chaos_dropped.load(Ordering::SeqCst),
        }
    }
}

/// Build and start a server from a validated config.
pub fn start(cfg: ServeConfig) -> Result<ServerHandle, Wavm3Error> {
    cfg.validate()?;
    let model_live = match &cfg.coeffs_live {
        Some(path) => wavm3_models::io::load(path)
            .map_err(|e| Wavm3Error::invalid_config("serve.coeffs_live", e.to_string()))?,
        None => wavm3_models::paper::wavm3_live(),
    };
    let model_non_live = match &cfg.coeffs_non_live {
        Some(path) => wavm3_models::io::load(path)
            .map_err(|e| Wavm3Error::invalid_config("serve.coeffs_non_live", e.to_string()))?,
        None => wavm3_models::paper::wavm3_non_live(),
    };

    let listener = TcpListener::bind(&cfg.addr).map_err(|e| {
        Wavm3Error::invalid_config("serve.addr", format!("cannot bind {}: {e}", cfg.addr))
    })?;
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    listener
        .set_nonblocking(true)
        .expect("nonblocking accept is supported");

    let telemetry = Telemetry::new(&cfg.obs)?;
    let shared = Arc::new(Shared {
        known_good: Mutex::new(seed_known_good(&model_live, &model_non_live)),
        breaker: Mutex::new(CircuitBreaker::new(cfg.breaker)),
        registry: Registry::new(),
        telemetry,
        model_live,
        model_non_live,
        started: Instant::now(),
        fallback_key: AtomicU64::new(0),
        completed: AtomicU64::new(0),
        chaos_dropped: AtomicU64::new(0),
        cfg,
    });

    let queue = Arc::new(BoundedQueue::<Job>::new(shared.cfg.queue_capacity));
    let shutdown = Arc::new(AtomicBool::new(false));

    let accept_thread = {
        let queue = Arc::clone(&queue);
        let shutdown = Arc::clone(&shutdown);
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, queue, shutdown, shared))
            .expect("spawn accept thread")
    };

    let workers = (0..shared.cfg.workers)
        .map(|i| {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(queue, shared))
                .expect("spawn worker thread")
        })
        .collect();

    Ok(ServerHandle {
        addr,
        shutdown,
        shared,
        accept_thread,
        workers,
    })
}

/// Seed the last-known-good cache with one planner + model evaluation per
/// mechanism, so the degraded fast path works from the very first request.
fn seed_known_good(live: &Wavm3Model, non_live: &Wavm3Model) -> [KnownGood; 3] {
    let mut seeded = [KnownGood {
        ram_mib: 1,
        source_energy_j: 0.0,
        target_energy_j: 0.0,
        downtime_ms: 0.0,
        duration_s: 0.0,
        est_bytes: 0,
        bandwidth_bps: 0.0,
        precopy_rounds: 0,
        samples: 0,
    }; 3];
    for kind in [
        MigrationKind::Live,
        MigrationKind::NonLive,
        MigrationKind::PostCopy,
    ] {
        let req = reference_request(kind);
        let plan = req.plan();
        let record = plan.to_record();
        let model = match kind {
            MigrationKind::NonLive => non_live,
            _ => live,
        };
        seeded[kind_index(kind)] = KnownGood {
            ram_mib: req.ram_mib,
            source_energy_j: model.predict_energy(HostRole::Source, &record),
            target_energy_j: model.predict_energy(HostRole::Target, &record),
            downtime_ms: plan.est_downtime.as_secs_f64() * 1e3,
            duration_s: (plan.phases.me - plan.phases.ms).as_secs_f64(),
            est_bytes: plan.est_bytes,
            bandwidth_bps: plan.est_bandwidth_bps,
            precopy_rounds: plan.est_precopy_rounds as u64,
            samples: plan.samples.len() as u64,
        };
    }
    seeded
}

fn reference_request(kind: MigrationKind) -> ApiRequest {
    ApiRequest {
        kind,
        machine_set: wavm3_cluster::MachineSet::M,
        ram_mib: 2048,
        vcpus: 2,
        vm_cpu_fraction: 0.5,
        working_set_fraction: 0.3,
        page_write_rate: 2_000.0,
        source_other_cores: 4.0,
        target_other_cores: 4.0,
        truth_source_energy_j: None,
        truth_target_energy_j: None,
    }
}

fn accept_loop(
    listener: TcpListener,
    queue: Arc<BoundedQueue<Job>>,
    shutdown: Arc<AtomicBool>,
    shared: Arc<Shared>,
) -> AcceptStats {
    let mut stats = AcceptStats {
        accepted: 0,
        shed: 0,
    };
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                stats.accepted += 1;
                let job = Job {
                    stream,
                    accepted_at: Instant::now(),
                };
                match queue.try_push(job) {
                    PushOutcome::Queued => {}
                    PushOutcome::Full(job) | PushOutcome::Closed(job) => {
                        stats.shed += 1;
                        shed(job, &shared);
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            // Transient accept errors (e.g. a peer resetting between
            // SYN and accept) are not fatal to the server.
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Stop admitting; workers drain whatever is already queued.
    queue.close();
    stats
}

/// Answer a shed connection with `429 Retry-After` and close it.
///
/// The request is drained (with a short timeout, since this runs on the
/// accept thread) before the response is written: closing a socket with
/// unread bytes in its receive buffer sends an RST, which would destroy
/// the very 429 the client is supposed to see.
fn shed(mut job: Job, shared: &Shared) {
    shared.registry.counter_add("serve.shed", 1);
    let _ = job.stream.set_write_timeout(Some(IO_TIMEOUT));
    let request = read_request(&mut Budgeted {
        stream: &job.stream,
        deadline: job.accepted_at + SHED_DRAIN_TIMEOUT,
    })
    .ok();
    let mut trace = shared.telemetry.begin(request.as_ref(), job.accepted_at, 0);
    trace.enter("shed");
    if let Some(request) = &request {
        trace.set_route(route_label(&request.path));
        if let Some(key) = request.header("x-wavm3-chaos-key") {
            trace.set_chaos_key(key);
        }
    }
    let breaker = shared.breaker_label();
    trace.set_breaker(breaker);
    let trace_hex = trace.trace_id().as_hex();
    let chaos_key = request
        .as_ref()
        .and_then(|r| r.header("x-wavm3-chaos-key"))
        .unwrap_or("-");
    let response = Response::json(
        429,
        ErrorResponse::with_context(
            "overloaded",
            "admission queue full, retry later",
            &trace_hex,
            chaos_key,
            breaker,
        ),
    )
    .with_header("retry-after", "1")
    .with_header("x-wavm3-trace-id", trace_hex);
    trace.set_status(429);
    trace.exit();
    trace.enter("respond");
    let _ = response.write_to(&mut job.stream);
    trace.exit();
    shared.telemetry.finish(&shared.registry, trace);
}

fn worker_loop(queue: Arc<BoundedQueue<Job>>, shared: Arc<Shared>) {
    while let Some(job) = queue.pop() {
        handle_connection(job, &shared);
        shared.completed.fetch_add(1, Ordering::SeqCst);
    }
}

fn handle_connection(mut job: Job, shared: &Shared) {
    let _ = job.stream.set_write_timeout(Some(IO_TIMEOUT));
    let queue_us = job.accepted_at.elapsed().as_micros() as u64;
    // The request's own `x-wavm3-deadline-ms` is in its head, so the head
    // is read within the server's default and the body within the longer
    // of the two.
    let default_ms = shared.cfg.default_deadline_ms;
    let mut reader = Budgeted {
        stream: &job.stream,
        deadline: job.accepted_at + Duration::from_millis(default_ms),
    };
    let read = read_head(&mut reader).and_then(|(mut request, content_length)| {
        let deadline_ms = deadline_ms(&request, default_ms).max(default_ms);
        reader.deadline = job.accepted_at + Duration::from_millis(deadline_ms);
        read_body(&mut reader, &mut request, content_length)?;
        Ok(request)
    });
    let read_deadline = reader.deadline;
    let request = match read {
        Ok(request) => request,
        Err(e) => {
            // Unreadable request: no headers to resolve a trace from,
            // so the fallback id still correlates the 400 or 408 end to
            // end. A slow client is not a server failure, so neither
            // feeds the breaker.
            let (status, error) = if timed_out(&e) {
                (408, "request_timeout")
            } else {
                (400, "bad_request")
            };
            let mut trace = shared.telemetry.begin(None, job.accepted_at, queue_us);
            let breaker = shared.breaker_label();
            trace.set_breaker(breaker);
            let trace_hex = trace.trace_id().as_hex();
            let response = Response::json(
                status,
                ErrorResponse::with_context(error, e.to_string(), &trace_hex, "-", breaker),
            )
            .with_header("x-wavm3-trace-id", trace_hex);
            trace.set_status(status);
            trace.enter("respond");
            let _ = response.write_to(&mut job.stream);
            trace.exit();
            shared.telemetry.finish(&shared.registry, trace);
            close_staged(&job.stream, read_deadline);
            return;
        }
    };
    let mut trace = shared
        .telemetry
        .begin(Some(&request), job.accepted_at, queue_us);
    trace.enter_at("read", queue_us);
    trace.exit();
    trace.set_route(route_label(&request.path));
    if let Some(key) = request.header("x-wavm3-chaos-key") {
        trace.set_chaos_key(key);
    }
    trace.set_breaker(shared.breaker_label());
    let trace_hex = trace.trace_id().as_hex();
    let response = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Some(Response::json(200, shared.health_body())),
        ("GET", "/metrics") => Some(Response::text(
            200,
            shared.telemetry.render_metrics(&shared.registry),
        )),
        ("GET", "/debug/slo") => Some(Response::json(
            200,
            serde_json::to_string(&shared.telemetry.slo_report(&shared.registry))
                .expect("slo report serialises"),
        )),
        ("GET", "/debug/metrics") => Some(Response::json(
            200,
            serde_json::to_string(&shared.registry.snapshot()).expect("snapshot serialises"),
        )),
        ("POST", "/predict") | ("POST", "/plan") => {
            handle_api(&request, job.accepted_at, shared, &mut trace)
        }
        (_, "/healthz")
        | (_, "/metrics")
        | (_, "/debug/slo")
        | (_, "/debug/metrics")
        | (_, "/predict")
        | (_, "/plan") => Some(Response::json(
            405,
            ErrorResponse::with_context(
                "bad_request",
                "method not allowed",
                &trace_hex,
                trace.chaos_key(),
                shared.breaker_label(),
            ),
        )),
        _ => Some(Response::json(
            404,
            ErrorResponse::with_context(
                "not_found",
                format!("no route {}", request.path),
                &trace_hex,
                trace.chaos_key(),
                shared.breaker_label(),
            ),
        )),
    };
    match response {
        Some(response) => {
            let response = response.with_header("x-wavm3-trace-id", trace_hex);
            trace.set_status(response.status);
            trace.enter("respond");
            let _ = response.write_to(&mut job.stream);
            trace.exit();
            shared.telemetry.finish(&shared.registry, trace);
            close_staged(&job.stream, read_deadline);
        }
        // Chaos drop: close without responding (trace status stays 0,
        // class `drop`), as abruptly as the fault it injects.
        None => {
            shared.chaos_dropped.fetch_add(1, Ordering::SeqCst);
            shared.telemetry.finish(&shared.registry, trace);
        }
    }
}

/// `/predict` and `/plan`. Returns `None` when chaos drops the connection.
fn handle_api(
    request: &Request,
    accepted_at: Instant,
    shared: &Shared,
    trace: &mut ReqTrace,
) -> Option<Response> {
    let is_plan = request.path == "/plan";
    let registry = &shared.registry;
    registry.counter_add(
        if is_plan {
            "serve.requests.plan"
        } else {
            "serve.requests.predict"
        },
        1,
    );

    // Deadline budget, counted from the accept instant so queue wait is
    // charged too.
    let deadline_ms = deadline_ms(request, shared.cfg.default_deadline_ms);
    let budget_left = || deadline_ms as i64 - accepted_at.elapsed().as_millis() as i64;

    // Chaos fate for this request, keyed by the client-supplied chaos key
    // (deterministic per seed) or a fallback counter (unique, not
    // reproducible across runs).
    let decision = match request.header("x-wavm3-chaos-key") {
        Some(key) => chaos::decide(&shared.cfg.chaos, key),
        None => {
            let n = shared.fallback_key.fetch_add(1, Ordering::Relaxed);
            let key = format!("fallback:{n}");
            trace.set_chaos_key(&key);
            chaos::decide(&shared.cfg.chaos, &key)
        }
    };
    if decision.fate == Fate::Drop {
        registry.counter_add("serve.chaos.drop_injected", 1);
        trace.set_deadline_remaining_ms(budget_left());
        return None;
    }

    // Injected latency is charged against the deadline before it is
    // slept, so a breach is detected immediately instead of after the
    // sleep — deterministic and fast.
    let elapsed_ms = accepted_at.elapsed().as_millis() as u64;
    let remaining_ms = deadline_ms.saturating_sub(elapsed_ms);
    if decision.latency_ms > 0 {
        registry.counter_add("serve.chaos.latency_injected", 1);
        if decision.latency_ms >= remaining_ms {
            return Some(deadline_exceeded(deadline_ms, shared, trace, accepted_at));
        }
        trace.enter("chaos");
        std::thread::sleep(Duration::from_millis(decision.latency_ms));
        trace.exit();
    } else if remaining_ms == 0 {
        return Some(deadline_exceeded(deadline_ms, shared, trace, accepted_at));
    }

    // Parse after the chaos gate: a malformed body is the client's
    // fault and never feeds the breaker.
    trace.enter("parse");
    let body = std::str::from_utf8(&request.body).unwrap_or("");
    let parsed = serde_json::from_str::<serde::Value>(body)
        .map_err(|e| e.to_string())
        .and_then(|v| ApiRequest::from_value(&v));
    trace.exit();
    let api = match parsed {
        Ok(api) => api,
        Err(detail) => {
            registry.counter_add("serve.responses.client_error", 1);
            trace.set_deadline_remaining_ms(budget_left());
            return Some(Response::json(
                400,
                ErrorResponse::with_context(
                    "bad_request",
                    detail,
                    &trace.trace_id().as_hex(),
                    trace.chaos_key(),
                    shared.breaker_label(),
                ),
            ));
        }
    };

    trace.enter("breaker");
    let admission = shared.with_breaker(Some(&mut *trace), |b| b.try_acquire(shared.now_us()));
    trace.exit();
    let response = match admission {
        Admission::Degrade => {
            registry.counter_add("serve.responses.degraded", 1);
            trace.mark_degraded();
            trace.enter(if is_plan { "plan" } else { "predict" });
            let response = degraded_response(&api, is_plan, shared);
            trace.exit();
            Some(response)
        }
        Admission::Allow => {
            if decision.fate == Fate::Error {
                registry.counter_add("serve.chaos.error_injected", 1);
                shared.with_breaker(Some(&mut *trace), |b| b.on_failure(shared.now_us()));
                registry.counter_add("serve.responses.server_error", 1);
                trace.set_deadline_remaining_ms(budget_left());
                return Some(Response::json(
                    500,
                    ErrorResponse::with_context(
                        "injected_fault",
                        "chaos middleware failure",
                        &trace.trace_id().as_hex(),
                        trace.chaos_key(),
                        shared.breaker_label(),
                    ),
                ));
            }
            trace.enter(if is_plan { "plan" } else { "predict" });
            let plan = api.plan();
            // The planner itself counts against the deadline.
            if accepted_at.elapsed().as_millis() as u64 >= deadline_ms {
                trace.exit();
                shared.with_breaker(Some(&mut *trace), |b| b.on_failure(shared.now_us()));
                return Some(deadline_exceeded(deadline_ms, shared, trace, accepted_at));
            }
            shared.with_breaker(Some(&mut *trace), |b| b.on_success(shared.now_us()));
            registry.counter_add("serve.responses.ok", 1);
            let response = live_response(&api, &plan, is_plan, shared);
            trace.exit();
            Some(response)
        }
    };
    trace.set_deadline_remaining_ms(budget_left());
    registry.observe(
        "serve.latency_ms",
        buckets::LATENCY_MS,
        accepted_at.elapsed().as_secs_f64() * 1e3,
    );
    response
}

/// A request's deadline: its `x-wavm3-deadline-ms`, or else `default_ms`.
fn deadline_ms(request: &Request, default_ms: u64) -> u64 {
    request
        .header("x-wavm3-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default_ms)
}

fn deadline_exceeded(
    deadline_ms: u64,
    shared: &Shared,
    trace: &mut ReqTrace,
    accepted_at: Instant,
) -> Response {
    shared.registry.counter_add("serve.deadline.breached", 1);
    shared.with_breaker(Some(&mut *trace), |b| b.on_failure(shared.now_us()));
    shared
        .registry
        .counter_add("serve.responses.server_error", 1);
    trace.set_deadline_remaining_ms(deadline_ms as i64 - accepted_at.elapsed().as_millis() as i64);
    Response::json(
        503,
        ErrorResponse::with_context(
            "deadline_exceeded",
            format!("request exceeded its {deadline_ms} ms deadline"),
            &trace.trace_id().as_hex(),
            trace.chaos_key(),
            shared.breaker_label(),
        ),
    )
    .with_header("retry-after", "1")
}

/// Serve from the real planner and refresh the last-known-good cache.
fn live_response(
    api: &ApiRequest,
    plan: &wavm3_consolidation::planner::MigrationPlan,
    is_plan: bool,
    shared: &Shared,
) -> Response {
    let record = plan.to_record();
    let model = shared.model_for(api.kind);
    let source_energy_j = model.predict_energy(HostRole::Source, &record);
    let target_energy_j = model.predict_energy(HostRole::Target, &record);
    // Ground-truth replay: requests carrying observed energies feed the
    // online drift monitor, one window per model × host role.
    if let Some(truth) = api.truth_source_energy_j {
        shared.telemetry.record_drift(
            &shared.registry,
            kind_label(api.kind),
            "source",
            source_energy_j,
            truth,
        );
    }
    if let Some(truth) = api.truth_target_energy_j {
        shared.telemetry.record_drift(
            &shared.registry,
            kind_label(api.kind),
            "target",
            target_energy_j,
            truth,
        );
    }
    let summary = KnownGood {
        ram_mib: api.ram_mib,
        source_energy_j,
        target_energy_j,
        downtime_ms: plan.est_downtime.as_secs_f64() * 1e3,
        duration_s: (plan.phases.me - plan.phases.ms).as_secs_f64(),
        est_bytes: plan.est_bytes,
        bandwidth_bps: plan.est_bandwidth_bps,
        precopy_rounds: plan.est_precopy_rounds as u64,
        samples: plan.samples.len() as u64,
    };
    shared.known_good.lock().expect("cache poisoned")[kind_index(api.kind)] = summary;
    render(api, &summary, is_plan, false, shared)
}

/// Serve from the last-known-good cache, scaled linearly by RAM size.
/// Coarse by design: the point of the fast path is availability with an
/// honest `degraded: true`, not accuracy.
fn degraded_response(api: &ApiRequest, is_plan: bool, shared: &Shared) -> Response {
    let cached = shared.known_good.lock().expect("cache poisoned")[kind_index(api.kind)];
    let ratio = api.ram_mib as f64 / cached.ram_mib as f64;
    let scaled = KnownGood {
        ram_mib: api.ram_mib,
        source_energy_j: cached.source_energy_j * ratio,
        target_energy_j: cached.target_energy_j * ratio,
        downtime_ms: cached.downtime_ms * ratio,
        duration_s: cached.duration_s * ratio,
        est_bytes: (cached.est_bytes as f64 * ratio) as u64,
        bandwidth_bps: cached.bandwidth_bps,
        precopy_rounds: cached.precopy_rounds,
        samples: cached.samples,
    };
    render(api, &scaled, is_plan, true, shared)
}

fn render(
    api: &ApiRequest,
    summary: &KnownGood,
    is_plan: bool,
    degraded: bool,
    shared: &Shared,
) -> Response {
    let breaker = shared.breaker_label().to_string();
    let body = if is_plan {
        serde_json::to_string(&PlanResponse {
            kind: kind_label(api.kind).to_string(),
            machine_set: api.set_label().to_string(),
            est_bytes: summary.est_bytes,
            est_downtime_ms: summary.downtime_ms,
            est_bandwidth_bps: summary.bandwidth_bps,
            est_precopy_rounds: summary.precopy_rounds,
            est_duration_s: summary.duration_s,
            samples: summary.samples,
            degraded,
            breaker,
        })
    } else {
        serde_json::to_string(&PredictResponse {
            kind: kind_label(api.kind).to_string(),
            machine_set: api.set_label().to_string(),
            source_energy_j: summary.source_energy_j,
            target_energy_j: summary.target_energy_j,
            total_energy_j: summary.source_energy_j + summary.target_energy_j,
            downtime_ms: summary.downtime_ms,
            duration_s: summary.duration_s,
            est_bytes: summary.est_bytes,
            degraded,
            breaker,
        })
    };
    Response::json(200, body.expect("response serialises"))
}
