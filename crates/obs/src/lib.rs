//! # wavm3-obs — sim-time structured tracing, metrics and profiling
//!
//! Observability layer for the WAVM3 workspace, built around the same
//! determinism contract as everything else in simkit: **trace output is a
//! pure function of the seeds**, bit-identical across rayon thread counts,
//! because every event is stamped with [`SimTime`] (never the wall clock)
//! and events are grouped into per-run buffers that are merged in a
//! deterministic key order, not in thread-completion order.
//!
//! Three cooperating subsystems:
//!
//! * **Tracing** ([`event!`], [`span`], [`run_scope`]) — structured
//!   events and sim-time spans carrying key/value [`FieldValue`] fields.
//!   Sinks: a JSONL trace buffer (deterministic), a human console
//!   subscriber on stderr behind a level filter, and the null sink — with
//!   no [`Session`] installed every probe is one relaxed atomic load.
//! * **Metrics** ([`metrics`]) — a process-wide registry of counters,
//!   gauges and fixed-bucket histograms with a deterministic,
//!   serde-serialisable [`metrics::MetricsSnapshot`].
//! * **Request observability** ([`reqtrace`], [`slo`]) — wall-clock
//!   span trees for the serving layer with deterministic seed-keyed
//!   tail sampling, SLO burn-rate evaluation over RED metric families,
//!   and windowed NRMSE drift monitoring of online predictions.
//! * **Profiling** ([`perf`]) — a hierarchical wall-clock self-profiler:
//!   nested [`perf::scope`]s accumulate into per-thread arenas that merge
//!   lock-free into a call-tree [`perf::PerfSnapshot`] (cumulative/self
//!   time, counts, maxima, optional allocation tallies) with Chrome
//!   `trace_event` and collapsed-stack (flamegraph) exporters. Wall time
//!   is inherently non-reproducible, so profiling data is kept strictly
//!   out of traces and golden outputs: it only appears in the session
//!   report's [`ObsReport::perf`] snapshot and the profiler's exports.
//!
//! ## Quick tour
//!
//! ```
//! use wavm3_obs::{metrics, ObsConfig, Level, Session};
//! use wavm3_simkit::SimTime;
//!
//! let session = Session::install(ObsConfig {
//!     trace: true,
//!     metrics: true,
//!     ..ObsConfig::default()
//! });
//!
//! wavm3_obs::run_scope("demo/rep000".into(), || {
//!     wavm3_obs::event!(
//!         Level::Info, "demo", "migration.start", SimTime::ZERO,
//!         "kind" => "live", "ram_mib" => 4096u64,
//!     );
//!     let span = wavm3_obs::span(Level::Info, "demo", "phase.transfer", SimTime::ZERO);
//!     span.close(SimTime::from_secs(30));
//!     metrics::counter_add("migration.runs", 1);
//! });
//!
//! let report = session.finish();
//! assert_eq!(report.metrics.counters["migration.runs"], 1);
//! assert!(report.trace_jsonl().lines().count() >= 2);
//! ```

pub mod event;
mod json;
pub mod ledger;
pub mod level;
pub mod metrics;
pub mod perf;
pub mod reqtrace;
pub mod session;
pub mod slo;
pub mod trace;

pub use event::{Event, FieldValue};
pub use ledger::{ledger_active, LedgerEntry, RoleLedger, TermEnergy};
pub use level::Level;
pub use session::{ObsConfig, ObsReport, Session};
pub use trace::{
    emit, emit_span, event_enabled, run_scope, run_scope_with, span, tracing_active, RunScope, Span,
};

/// `true` when any observability subsystem (tracing, console, metrics)
/// is live — the cheapest "should I bother computing attributes" probe.
#[inline]
pub fn active() -> bool {
    session::any_active()
}

/// Build a structured event if its level passes the installed sinks.
///
/// Fields are written `"key" => value` and are **not evaluated** when no
/// sink accepts the level, so instrumented hot paths cost one relaxed
/// atomic load while disabled.
#[macro_export]
macro_rules! event {
    ($lvl:expr, $target:expr, $name:expr, $t:expr $(, $k:literal => $v:expr)* $(,)?) => {{
        let lvl: $crate::Level = $lvl;
        if $crate::event_enabled(lvl) {
            $crate::emit(
                lvl,
                $target,
                $name,
                $t,
                vec![$(($k, $crate::FieldValue::from($v))),*],
            );
        }
    }};
}
