//! Request-scoped tracing for the serving layer.
//!
//! Unlike [`crate::trace`] (sim-time spans for simulation campaigns),
//! this module traces *wall-clock requests* flowing through a real
//! server: every request owns a [`ReqTrace`] span tree (accept → queue →
//! read → breaker → plan/predict → respond) identified by a 128-bit
//! trace id that the client propagates via `x-wavm3-trace-id` or a W3C
//! `traceparent` header.
//!
//! ## Determinism contract
//!
//! Every worker hands its kept traces to one [`TraceCollector`] list,
//! taking its lock once per kept trace, and the export step sorts that
//! list by *trace id*, never by thread-completion order. The
//! [canonical export](TraceCollector::export_canonical) strips every
//! wall-clock field, so for a deterministic request stream the sampled
//! span set is byte-identical across any worker count.
//!
//! ## Tail sampling
//!
//! Keeping every span of every request would make tracing the first
//! thing to fall over under load, so the [`TailSampler`] applies
//! deterministic, seed-keyed head+tail rules at record time: errors,
//! sheds, chaos drops and breaker transitions are always kept, as are
//! requests slower than the tail-latency threshold; everything else is
//! kept only when a hash of `(seed, trace id)` selects it. The decision
//! is a pure function of the trace, so two runs over the same request
//! stream sample the same set.

use crate::json;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// 64-bit SplitMix finaliser — the trace-id deriver and the sampling
/// hash share it so both are pure functions of their integer inputs
/// (no dependency on a seeded RNG stream's word order).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A 128-bit request trace id (W3C `trace-id` shape: 32 lowercase hex
/// digits, never all-zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u128);

impl TraceId {
    /// Canonical 32-digit lowercase hex form.
    pub fn as_hex(&self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse a bare 32-hex-digit trace id. Rejects anything that is not
    /// *exactly* 32 ASCII hex digits, and the all-zero id (invalid per
    /// W3C trace-context). Never panics on arbitrary input.
    pub fn parse(s: &str) -> Option<TraceId> {
        if s.len() != 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        match u128::from_str_radix(s, 16) {
            Ok(0) | Err(_) => None,
            Ok(v) => Some(TraceId(v)),
        }
    }

    /// Parse a W3C `traceparent` header
    /// (`00-<32 hex trace-id>-<16 hex span-id>-<2 hex flags>`). Strict:
    /// exact length, exact dash positions, version `00` only, non-zero
    /// trace and span ids. Never panics on arbitrary input.
    pub fn parse_traceparent(s: &str) -> Option<TraceId> {
        let bytes = s.as_bytes();
        if bytes.len() != 55 || bytes[2] != b'-' || bytes[35] != b'-' || bytes[52] != b'-' {
            return None;
        }
        let (version, trace, span, flags) = (&s[0..2], &s[3..35], &s[36..52], &s[53..55]);
        if version != "00" {
            return None;
        }
        let hex = |part: &str| part.bytes().all(|b| b.is_ascii_hexdigit());
        if !hex(span) || !hex(flags) {
            return None;
        }
        if u64::from_str_radix(span, 16) == Ok(0) {
            return None;
        }
        TraceId::parse(trace)
    }

    /// Deterministically derive the trace id the load generator stamps
    /// on `(seed, request id, attempt)` — a pure function, so reruns of
    /// the same seed produce the same ids and the server-side sampled
    /// span set is reproducible.
    pub fn derive(seed: u64, id: u64, attempt: u32) -> TraceId {
        let hi = mix64(seed ^ mix64(id));
        let lo = mix64(mix64(seed).wrapping_add(id) ^ (attempt as u64).wrapping_mul(0xa5a5_a5a5));
        // `| 1` keeps the id non-zero (the W3C-invalid value).
        TraceId(((hi as u128) << 64) | lo as u128 | 1)
    }

    /// Matching deterministic span id for the `traceparent` header.
    pub fn derived_span_hex(seed: u64, id: u64, attempt: u32) -> String {
        format!(
            "{:016x}",
            mix64(seed ^ mix64(id ^ ((attempt as u64) << 32))) | 1
        )
    }

    /// A server-generated fallback id for requests that arrive without a
    /// usable trace header. Unique per `(nonce, counter)`; marked by a
    /// distinctive top nibble so fallback ids are recognisable in logs.
    pub fn server_generated(nonce: u64, counter: u64) -> TraceId {
        let hi = 0xf000_0000_0000_0000 | (mix64(nonce) >> 4);
        TraceId(((hi as u128) << 64) | mix64(counter ^ !nonce) as u128 | 1)
    }
}

/// Resolve the trace id for an incoming request: prefer a valid
/// `x-wavm3-trace-id`, then a valid `traceparent`; a malformed or
/// missing header falls back to `server_generated` (never an error —
/// bad telemetry headers must not fail real requests).
///
/// Returns the id and whether the client supplied it.
pub fn resolve(
    trace_header: Option<&str>,
    traceparent: Option<&str>,
    nonce: u64,
    counter: u64,
) -> (TraceId, bool) {
    if let Some(id) = trace_header.and_then(TraceId::parse) {
        return (id, true);
    }
    if let Some(id) = traceparent.and_then(TraceId::parse_traceparent) {
        return (id, true);
    }
    (TraceId::server_generated(nonce, counter), false)
}

/// Why a trace was kept (or not) by the [`TailSampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleDecision {
    /// Non-2xx outcome (shed, breach, fault, drop): always kept.
    KeepError,
    /// A breaker state transition happened during the request.
    KeepBreaker,
    /// Total latency beyond the tail threshold.
    KeepTail,
    /// Selected by the deterministic `(seed, trace id)` hash.
    KeepSampled,
    /// Not sampled.
    Drop,
}

impl SampleDecision {
    /// Stable label used in exports and access logs.
    pub fn label(&self) -> &'static str {
        match self {
            SampleDecision::KeepError => "error",
            SampleDecision::KeepBreaker => "breaker",
            SampleDecision::KeepTail => "tail",
            SampleDecision::KeepSampled => "sampled",
            SampleDecision::Drop => "drop",
        }
    }

    /// `true` for every `Keep*` variant.
    pub fn keep(&self) -> bool {
        !matches!(self, SampleDecision::Drop)
    }
}

/// Deterministic seed-keyed tail sampler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSampler {
    /// Sampling key: the hash rule is a pure function of
    /// `(seed, trace id)`.
    pub seed: u64,
    /// Keep one in this many non-error, non-tail traces (`1` keeps
    /// everything; must be ≥ 1).
    pub keep_1_in: u64,
    /// Requests at least this slow are always kept
    /// (`f64::INFINITY` disables the latency rule — the wall-clock
    /// escape hatch the determinism tests use).
    pub tail_latency_ms: f64,
}

impl Default for TailSampler {
    fn default() -> Self {
        TailSampler {
            seed: 0,
            keep_1_in: 10,
            tail_latency_ms: 200.0,
        }
    }
}

impl TailSampler {
    /// Classify one finished request.
    pub fn decide(&self, record: &ReqRecord) -> SampleDecision {
        if record.status == 0 || !(200..300).contains(&record.status) {
            return SampleDecision::KeepError;
        }
        if record.breaker_transition {
            return SampleDecision::KeepBreaker;
        }
        if record.total_us as f64 / 1e3 >= self.tail_latency_ms {
            return SampleDecision::KeepTail;
        }
        let keep_1_in = self.keep_1_in.max(1);
        let hash =
            mix64(self.seed ^ mix64(record.trace_id.0 as u64) ^ (record.trace_id.0 >> 64) as u64);
        if hash.is_multiple_of(keep_1_in) {
            SampleDecision::KeepSampled
        } else {
            SampleDecision::Drop
        }
    }
}

/// One closed span: offsets are microseconds since the request was
/// accepted, parents are indices into the owning trace's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name from the fixed request taxonomy.
    pub name: &'static str,
    /// Index of the parent span (`None` for the root).
    pub parent: Option<usize>,
    /// Start offset, µs since accept.
    pub start_us: u64,
    /// End offset, µs since accept.
    pub end_us: u64,
}

/// Everything recorded about one finished request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReqRecord {
    /// The request's trace id.
    pub trace_id: TraceId,
    /// Did the client supply the id (vs. a server-generated fallback)?
    pub client_supplied: bool,
    /// Route label (`predict`, `plan`, `shed`, `metrics`, …).
    pub route: String,
    /// Response status (`0` = chaos-dropped, no response written).
    pub status: u16,
    /// Client chaos key, `-` when absent.
    pub chaos_key: String,
    /// Breaker position when the response was formed.
    pub breaker: String,
    /// Did the breaker change state during this request?
    pub breaker_transition: bool,
    /// Served from the degraded fast path?
    pub degraded: bool,
    /// Deadline budget left when the response was formed, ms
    /// (negative = already breached).
    pub deadline_remaining_ms: i64,
    /// Time spent in the admission queue, µs.
    pub queue_us: u64,
    /// Total accept→response time, µs.
    pub total_us: u64,
    /// Closed spans, creation order (root first).
    pub spans: Vec<SpanRec>,
}

impl ReqRecord {
    /// Status class label shared by RED metrics, access logs and
    /// exports: `2xx`/`3xx`/`4xx` plus the distinct overload signals
    /// `429` (shed), `503` (deadline/unavailable), `5xx`, and `drop`
    /// (chaos-withheld response, status 0).
    pub fn class(&self) -> &'static str {
        status_class(self.status)
    }
}

/// Status → class label (see [`ReqRecord::class`]).
pub fn status_class(status: u16) -> &'static str {
    match status {
        0 => "drop",
        429 => "429",
        503 => "503",
        200..=299 => "2xx",
        300..=399 => "3xx",
        400..=499 => "4xx",
        500..=599 => "5xx",
        _ => "other",
    }
}

/// A per-request span tree under construction. Single-threaded by
/// design: the owning worker mutates it without any synchronisation and
/// hands the finished record to the collector once.
#[derive(Debug)]
pub struct ReqTrace {
    record: ReqRecord,
    started: Instant,
    open: Vec<usize>,
}

impl ReqTrace {
    /// Open the root `request` span, anchored at `accepted_at`.
    pub fn begin(trace_id: TraceId, client_supplied: bool, accepted_at: Instant) -> ReqTrace {
        let mut trace = ReqTrace {
            record: ReqRecord {
                trace_id,
                client_supplied,
                route: "other".to_string(),
                status: 0,
                chaos_key: "-".to_string(),
                breaker: "closed".to_string(),
                breaker_transition: false,
                degraded: false,
                deadline_remaining_ms: 0,
                queue_us: 0,
                total_us: 0,
                spans: Vec::with_capacity(8),
            },
            started: accepted_at,
            open: Vec::with_capacity(4),
        };
        trace.enter("request");
        trace
    }

    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }

    /// Open a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let start_us = self.now_us();
        let parent = self.open.last().copied();
        self.record.spans.push(SpanRec {
            name,
            parent,
            start_us,
            end_us: start_us,
        });
        self.open.push(self.record.spans.len() - 1);
    }

    /// Open a child spanning `[start_us, now]` retroactively — used for
    /// the queue span, whose start (the accept instant) predates the
    /// worker picking the job up.
    pub fn enter_at(&mut self, name: &'static str, start_us: u64) {
        let parent = self.open.last().copied();
        self.record.spans.push(SpanRec {
            name,
            parent,
            start_us,
            end_us: start_us,
        });
        self.open.push(self.record.spans.len() - 1);
    }

    /// Close the innermost open span (the root closes in
    /// [`finish`](Self::finish)).
    pub fn exit(&mut self) {
        let end_us = self.now_us();
        self.exit_at(end_us);
    }

    /// Close the innermost open span at an explicit offset — pairs with
    /// [`enter_at`](Self::enter_at) for spans reconstructed after the
    /// fact (queue wait, read).
    pub fn exit_at(&mut self, end_us: u64) {
        if self.open.len() > 1 {
            if let Some(idx) = self.open.pop() {
                self.record.spans[idx].end_us = end_us;
            }
        }
    }

    /// Record the route label.
    pub fn set_route(&mut self, route: &str) {
        self.record.route = route.to_string();
    }

    /// Record the final response status (leave unset for chaos drops).
    pub fn set_status(&mut self, status: u16) {
        self.record.status = status;
    }

    /// Record the client's chaos key.
    pub fn set_chaos_key(&mut self, key: &str) {
        self.record.chaos_key = key.to_string();
    }

    /// Record the breaker position observed while handling.
    pub fn set_breaker(&mut self, label: &str) {
        self.record.breaker = label.to_string();
    }

    /// Mark that the breaker changed state during this request.
    pub fn mark_breaker_transition(&mut self) {
        self.record.breaker_transition = true;
    }

    /// Mark the response as served from the degraded fast path.
    pub fn mark_degraded(&mut self) {
        self.record.degraded = true;
    }

    /// Record the deadline budget left at response time, ms.
    pub fn set_deadline_remaining_ms(&mut self, remaining: i64) {
        self.record.deadline_remaining_ms = remaining;
    }

    /// Record time spent queued, µs.
    pub fn set_queue_us(&mut self, queue_us: u64) {
        self.record.queue_us = queue_us;
    }

    /// The trace id (for response headers and error bodies).
    pub fn trace_id(&self) -> TraceId {
        self.record.trace_id
    }

    /// Did the client supply the trace id?
    pub fn client_supplied(&self) -> bool {
        self.record.client_supplied
    }

    /// The chaos key recorded so far (`-` until set).
    pub fn chaos_key(&self) -> &str {
        &self.record.chaos_key
    }

    /// Close every open span (root included) and return the record.
    pub fn finish(mut self) -> ReqRecord {
        let end_us = self.now_us();
        while let Some(idx) = self.open.pop() {
            self.record.spans[idx].end_us = end_us;
        }
        self.record.total_us = end_us;
        self.record
    }
}

/// One sampled trace plus why it was kept.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledTrace {
    /// The finished request record.
    pub record: ReqRecord,
    /// The sampler's keep reason.
    pub decision: SampleDecision,
}

/// The per-server trace store: every kept trace, sorted at export.
#[derive(Default)]
pub struct TraceCollector {
    kept: Mutex<Vec<SampledTrace>>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> TraceCollector {
        TraceCollector::default()
    }

    /// Count one finished request and keep it when the sampler's
    /// `decision` says so.
    pub fn record(&self, record: ReqRecord, decision: SampleDecision) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        if decision.keep() {
            self.kept
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .push(SampledTrace { record, decision });
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `(recorded, dropped)` totals — `recorded - dropped` traces are
    /// retained, so the cap the sampler imposes is never silent.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.recorded.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Every kept trace in one deterministically ordered list: sorted by
    /// `(trace id, route, status)` — never by thread or completion
    /// order, so the result is independent of worker count.
    pub fn sampled(&self) -> Vec<SampledTrace> {
        let mut all = self.kept.lock().unwrap_or_else(|p| p.into_inner()).clone();
        all.sort_by(|a, b| {
            (a.record.trace_id, &a.record.route, a.record.status).cmp(&(
                b.record.trace_id,
                &b.record.route,
                b.record.status,
            ))
        });
        all
    }

    /// JSONL span export: one JSON object per trace, wall-clock span
    /// offsets included (not reproducible across runs — use
    /// [`export_canonical`](Self::export_canonical) for goldens).
    pub fn export_jsonl(&self) -> String {
        let quoted = |s: &str| {
            let mut q = String::with_capacity(s.len() + 2);
            json::write_str(&mut q, s);
            q
        };
        let mut out = String::new();
        for t in self.sampled() {
            let r = &t.record;
            out.push_str(&format!(
                "{{\"trace_id\":\"{}\",\"client_supplied\":{},\"route\":{},\
                 \"status\":{},\"class\":\"{}\",\"chaos_key\":{},\"breaker\":{},\
                 \"breaker_transition\":{},\"degraded\":{},\"deadline_remaining_ms\":{},\
                 \"queue_us\":{},\"total_us\":{},\"sampled\":\"{}\",\"spans\":[",
                r.trace_id.as_hex(),
                r.client_supplied,
                quoted(&r.route),
                r.status,
                r.class(),
                quoted(&r.chaos_key),
                quoted(&r.breaker),
                r.breaker_transition,
                r.degraded,
                r.deadline_remaining_ms,
                r.queue_us,
                r.total_us,
                t.decision.label(),
            ));
            for (i, span) in r.spans.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"parent\":{},\"start_us\":{},\"end_us\":{}}}",
                    span.name,
                    span.parent.map_or("null".to_string(), |p| p.to_string()),
                    span.start_us,
                    span.end_us,
                ));
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Chrome `trace_event` export (`chrome://tracing`, Perfetto): one
    /// complete (`ph: "X"`) event per span, one tid per trace.
    pub fn export_chrome(&self) -> String {
        let mut doc = json::ChromeTrace::new();
        for (tid, t) in self.sampled().iter().enumerate() {
            let r = &t.record;
            for span in &r.spans {
                let dur_us = span.end_us.saturating_sub(span.start_us);
                let (ts_ns, dur_ns) = (span.start_us * 1_000, dur_us * 1_000);
                doc.complete("request", span.name, tid as u64, ts_ns, dur_ns, |args| {
                    let _ = write!(args, "\"trace_id\":\"{}\",\"route\":", r.trace_id.as_hex());
                    json::write_str(args, &r.route);
                    let _ = write!(
                        args,
                        ",\"status\":{},\"sampled\":\"{}\"",
                        r.status,
                        t.decision.label()
                    );
                });
            }
        }
        doc.finish()
    }

    /// Timing-free canonical projection: one line per sampled trace
    /// (trace-id order) carrying only seed-deterministic fields — the
    /// byte-identical-across-worker-counts surface the determinism
    /// tests pin. Span names appear in tree order with their parent
    /// index; offsets and durations are deliberately absent.
    pub fn export_canonical(&self) -> String {
        let mut out = String::new();
        for t in self.sampled() {
            let r = &t.record;
            let spans: Vec<String> = r
                .spans
                .iter()
                .map(|s| match s.parent {
                    Some(p) => format!("{}<{}", s.name, p),
                    None => s.name.to_string(),
                })
                .collect();
            out.push_str(&format!(
                "{} route={} status={} class={} chaos_key={} breaker={} degraded={} sampled={} spans={}\n",
                r.trace_id.as_hex(),
                r.route,
                r.status,
                r.class(),
                r.chaos_key,
                r.breaker,
                r.degraded,
                t.decision.label(),
                spans.join(","),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(status: u16, total_us: u64, id: TraceId) -> ReqRecord {
        ReqRecord {
            trace_id: id,
            client_supplied: true,
            route: "predict".to_string(),
            status,
            chaos_key: "1:0".to_string(),
            breaker: "closed".to_string(),
            breaker_transition: false,
            degraded: false,
            deadline_remaining_ms: 900,
            queue_us: 10,
            total_us,
            spans: Vec::new(),
        }
    }

    #[test]
    fn parse_accepts_only_exact_32_hex_nonzero() {
        assert!(TraceId::parse("0af7651916cd43dd8448eb211c80319c").is_some());
        assert!(TraceId::parse("0AF7651916CD43DD8448EB211C80319C").is_some());
        for bad in [
            "",
            "0af7651916cd43dd8448eb211c80319",    // 31
            "0af7651916cd43dd8448eb211c80319cc",  // 33
            "0af7651916cd43dd8448eb211c80319g",   // non-hex
            "00000000000000000000000000000000",   // all-zero
            "0af7651916cd43dd 448eb211c80319c",   // space
            "тридцатьдва-символа-не-шестнадцать", // non-ascii
        ] {
            assert!(TraceId::parse(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn traceparent_is_strict_but_never_panics() {
        let id =
            TraceId::parse_traceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01")
                .expect("valid traceparent");
        assert_eq!(id.as_hex(), "0af7651916cd43dd8448eb211c80319c");
        for bad in [
            "",
            "00",
            "01-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // version
            "00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace
            "00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-1",  // short flags
            "00-0af7651916cd43dd8448eb211c80319c-b7ad6b716920333-011", // shifted dash
            "00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01", // wrong separator
        ] {
            assert!(TraceId::parse_traceparent(bad).is_none(), "{bad:?}");
        }
    }

    #[test]
    fn derived_ids_are_deterministic_and_distinct() {
        assert_eq!(TraceId::derive(7, 3, 0), TraceId::derive(7, 3, 0));
        assert_ne!(TraceId::derive(7, 3, 0), TraceId::derive(7, 3, 1));
        assert_ne!(TraceId::derive(7, 3, 0), TraceId::derive(7, 4, 0));
        assert_ne!(TraceId::derive(7, 3, 0), TraceId::derive(8, 3, 0));
        // Derived ids round-trip through the canonical hex form.
        let id = TraceId::derive(42, 17, 2);
        assert_eq!(TraceId::parse(&id.as_hex()), Some(id));
        assert_eq!(TraceId::derived_span_hex(7, 3, 0).len(), 16);
    }

    #[test]
    fn resolve_prefers_the_dedicated_header_then_traceparent() {
        let bare = "0af7651916cd43dd8448eb211c80319c";
        let parent = "00-ffffffffffffffffffffffffffffffff-b7ad6b7169203331-01";
        let (id, client) = resolve(Some(bare), Some(parent), 1, 2);
        assert!(client);
        assert_eq!(id.as_hex(), bare);
        let (id, client) = resolve(Some("garbage"), Some(parent), 1, 2);
        assert!(client);
        assert_eq!(id.as_hex(), "ffffffffffffffffffffffffffffffff");
        let (fallback, client) = resolve(Some("garbage"), Some("also-garbage"), 1, 2);
        assert!(!client);
        assert_ne!(fallback.0, 0);
        // Fallbacks are unique per counter.
        let (other, _) = resolve(None, None, 1, 3);
        assert_ne!(fallback, other);
    }

    #[test]
    fn sampler_keeps_errors_breaker_transitions_and_tails() {
        let sampler = TailSampler {
            seed: 1,
            keep_1_in: u64::MAX, // hash rule effectively never fires
            tail_latency_ms: 200.0,
        };
        let id = TraceId::derive(1, 1, 0);
        assert_eq!(
            sampler.decide(&record(429, 50, id)),
            SampleDecision::KeepError
        );
        assert_eq!(
            sampler.decide(&record(0, 50, id)),
            SampleDecision::KeepError
        );
        assert_eq!(
            sampler.decide(&record(503, 50, id)),
            SampleDecision::KeepError
        );
        let mut with_transition = record(200, 50, id);
        with_transition.breaker_transition = true;
        assert_eq!(
            sampler.decide(&with_transition),
            SampleDecision::KeepBreaker
        );
        assert_eq!(
            sampler.decide(&record(200, 250_000, id)),
            SampleDecision::KeepTail
        );
        assert_eq!(sampler.decide(&record(200, 50, id)), SampleDecision::Drop);
        // keep_1_in = 1 keeps everything.
        let keep_all = TailSampler {
            keep_1_in: 1,
            ..sampler
        };
        assert_eq!(
            keep_all.decide(&record(200, 50, id)),
            SampleDecision::KeepSampled
        );
    }

    #[test]
    fn sampling_hash_is_a_pure_function_of_seed_and_trace_id() {
        let sampler = TailSampler {
            seed: 9,
            keep_1_in: 4,
            tail_latency_ms: f64::INFINITY,
        };
        let mut kept = 0;
        for i in 0..256u64 {
            let r = record(200, 10, TraceId::derive(3, i, 0));
            let first = sampler.decide(&r);
            assert_eq!(first, sampler.decide(&r), "decision must be stable");
            if first.keep() {
                kept += 1;
            }
        }
        // Roughly 1-in-4 with wide tolerance — the point is the rule
        // fires sometimes and not always, deterministically.
        assert!((16..=160).contains(&kept), "kept {kept}/256");
    }

    #[test]
    fn span_tree_nests_and_finish_closes_everything() {
        let t0 = Instant::now();
        let mut trace = ReqTrace::begin(TraceId::derive(1, 1, 0), true, t0);
        trace.enter_at("queue", 0);
        trace.exit();
        trace.enter("handle");
        trace.enter("plan");
        trace.exit();
        // "handle" left open on purpose — finish must close it.
        trace.set_route("plan");
        trace.set_status(200);
        let record = trace.finish();
        let names: Vec<&str> = record.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["request", "queue", "handle", "plan"]);
        assert_eq!(record.spans[0].parent, None);
        assert_eq!(record.spans[1].parent, Some(0));
        assert_eq!(record.spans[2].parent, Some(0));
        assert_eq!(record.spans[3].parent, Some(2));
        for span in &record.spans {
            assert!(span.end_us >= span.start_us);
        }
        assert_eq!(record.status, 200);
    }

    #[test]
    fn collector_merge_is_shard_order_independent() {
        // Two workers record the same traces, distributed and ordered
        // differently per run.
        let make = |order: &[u64]| {
            let collector = TraceCollector::new();
            std::thread::scope(|s| {
                for worker in 0..2 {
                    let collector = &collector;
                    s.spawn(move || {
                        for &id in order.iter().skip(worker).step_by(2) {
                            let r = record(200, 10, TraceId::derive(5, id, 0));
                            collector.record(r, SampleDecision::KeepSampled);
                        }
                    });
                }
            });
            collector.export_canonical()
        };
        let forward = make(&[1, 2, 3, 4, 5]);
        let reversed = make(&[5, 4, 3, 2, 1]);
        assert_eq!(forward, reversed);
        assert_eq!(forward.lines().count(), 5);
    }

    #[test]
    fn exports_carry_the_join_keys() {
        let collector = TraceCollector::new();
        let id = TraceId::derive(2, 9, 0);
        let mut shed = record(429, 77, id);
        shed.route = "shed".to_string();
        let decision = TailSampler::default().decide(&shed);
        assert_eq!(decision, SampleDecision::KeepError);
        collector.record(shed, decision);
        collector.record(record(200, 10, id), SampleDecision::Drop);
        let jsonl = collector.export_jsonl();
        assert!(jsonl.contains(&id.as_hex()), "{jsonl}");
        assert!(jsonl.contains("\"class\":\"429\""), "{jsonl}");
        assert!(jsonl.contains("\"sampled\":\"error\""), "{jsonl}");
        let chrome = collector.export_chrome();
        assert!(
            chrome.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["),
            "{chrome}"
        );
        assert!(chrome.ends_with("]}"), "{chrome}");
        let canonical = collector.export_canonical();
        assert!(canonical.contains("class=429"), "{canonical}");
        assert_eq!(collector.totals(), (2, 1));
    }

    #[test]
    fn status_classes_distinguish_overload_signals() {
        assert_eq!(status_class(200), "2xx");
        assert_eq!(status_class(404), "4xx");
        assert_eq!(status_class(429), "429");
        assert_eq!(status_class(503), "503");
        assert_eq!(status_class(500), "5xx");
        assert_eq!(status_class(0), "drop");
    }
}
