//! Session lifecycle: installing sinks, collecting buffers, reporting.
//!
//! One [`Session`] is active per process at a time (installation takes a
//! global lock, so concurrent tests serialise instead of interleaving).
//! With no session installed, every instrumentation probe in the
//! workspace reduces to a relaxed atomic load — the "null sink".

use crate::event::Event;
use crate::ledger::LedgerEntry;
use crate::level::Level;
use crate::metrics::{self, MetricsSnapshot};
use crate::perf::{self, PerfSnapshot};
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

// --- Global sink state, read on the hot path. ------------------------------

static TRACE_ACTIVE: AtomicBool = AtomicBool::new(false);
static METRICS_ACTIVE: AtomicBool = AtomicBool::new(false);
static LEDGER_ACTIVE: AtomicBool = AtomicBool::new(false);
/// 0 = console off, otherwise `level as u8 + 1`.
static CONSOLE_LEVEL: AtomicU8 = AtomicU8::new(0);
/// Minimum level the JSONL buffer collects.
static COLLECT_LEVEL: AtomicU8 = AtomicU8::new(Level::Debug as u8);

#[inline]
pub(crate) fn trace_active() -> bool {
    TRACE_ACTIVE.load(Ordering::Relaxed)
}

#[inline]
pub(crate) fn metrics_active() -> bool {
    METRICS_ACTIVE.load(Ordering::Relaxed)
}

#[inline]
pub(crate) fn ledger_active() -> bool {
    LEDGER_ACTIVE.load(Ordering::Relaxed)
}

#[inline]
pub(crate) fn console_level() -> Option<Level> {
    match CONSOLE_LEVEL.load(Ordering::Relaxed) {
        0 => None,
        n => Some(Level::ALL[(n - 1) as usize]),
    }
}

#[inline]
pub(crate) fn collect_level() -> Level {
    Level::ALL[COLLECT_LEVEL.load(Ordering::Relaxed) as usize]
}

#[inline]
pub(crate) fn any_active() -> bool {
    trace_active() || metrics_active() || ledger_active() || console_level().is_some()
}

// --- Collected buffers. ----------------------------------------------------

#[derive(Default)]
struct Collected {
    /// Events emitted outside any run scope (main-thread campaign level).
    root: Vec<Event>,
    /// Closed run-scope buffers, in completion order (re-sorted by key at
    /// flush, which is what makes the merged stream deterministic).
    runs: Vec<(String, Vec<Event>)>,
    /// Energy-attribution entries keyed by run key, in completion order
    /// (re-sorted by key at flush, same determinism contract).
    ledger: Vec<(String, LedgerEntry)>,
}

fn collected() -> &'static Mutex<Collected> {
    static COLLECTED: OnceLock<Mutex<Collected>> = OnceLock::new();
    COLLECTED.get_or_init(Mutex::default)
}

fn lock_collected() -> MutexGuard<'static, Collected> {
    collected().lock().unwrap_or_else(|p| p.into_inner())
}

pub(crate) fn push_root_event(event: Event) {
    lock_collected().root.push(event);
}

/// Drain one closed run scope into the session in a single lock
/// acquisition: the event buffer (when the scope kept one) and every
/// ledger entry recorded inside it, all under the scope's run key.
pub(crate) fn push_run_shard(key: String, events: Option<Vec<Event>>, ledger: Vec<LedgerEntry>) {
    if events.is_none() && ledger.is_empty() {
        return;
    }
    let mut collected = lock_collected();
    if !ledger.is_empty() {
        collected
            .ledger
            .extend(ledger.into_iter().map(|entry| (key.clone(), entry)));
    }
    if let Some(events) = events {
        collected.runs.push((key, events));
    }
}

pub(crate) fn push_ledger_entry(key: String, entry: LedgerEntry) {
    lock_collected().ledger.push((key, entry));
}

fn session_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(Mutex::default)
}

/// Serialise against session installation — lets tests that assert on the
/// *absence* of a session avoid racing tests that install one.
#[cfg(test)]
pub(crate) fn lock_for_tests() -> MutexGuard<'static, ()> {
    session_lock().lock().unwrap_or_else(|p| p.into_inner())
}

// --- Configuration and the session guard. ----------------------------------

/// Which sinks a [`Session`] arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Collect events into the deterministic JSONL trace buffer.
    pub trace: bool,
    /// Minimum level the trace buffer records (default [`Level::Debug`]).
    pub collect_level: Level,
    /// Human-readable console subscriber on stderr, with its filter
    /// level; `None` = silent.
    pub console: Option<Level>,
    /// Arm the global metrics registry.
    pub metrics: bool,
    /// Arm the wall-clock stage profiler.
    pub profiling: bool,
    /// Collect per-migration energy-attribution [`LedgerEntry`]s.
    pub ledger: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace: false,
            collect_level: Level::Debug,
            console: None,
            metrics: false,
            profiling: false,
            ledger: false,
        }
    }
}

/// An installed observability session. Dropping it (or calling
/// [`Session::finish`]) disarms every sink and releases the global
/// session lock.
pub struct Session {
    _lock: MutexGuard<'static, ()>,
    config: ObsConfig,
}

impl Session {
    /// Arm the configured sinks. Blocks until any other session in the
    /// process has finished.
    pub fn install(config: ObsConfig) -> Session {
        let lock = session_lock().lock().unwrap_or_else(|p| p.into_inner());
        *lock_collected() = Collected::default();
        metrics::reset_global();
        perf::reset_global();
        COLLECT_LEVEL.store(config.collect_level as u8, Ordering::Relaxed);
        CONSOLE_LEVEL.store(
            config.console.map(|l| l as u8 + 1).unwrap_or(0),
            Ordering::Relaxed,
        );
        TRACE_ACTIVE.store(config.trace, Ordering::Relaxed);
        METRICS_ACTIVE.store(config.metrics, Ordering::Relaxed);
        LEDGER_ACTIVE.store(config.ledger, Ordering::Relaxed);
        perf::set_active(config.profiling);
        Session {
            _lock: lock,
            config,
        }
    }

    /// The configuration this session was installed with.
    pub fn config(&self) -> ObsConfig {
        self.config
    }

    /// Disarm the sinks and hand back everything collected.
    pub fn finish(self) -> ObsReport {
        disarm();
        let collected = std::mem::take(&mut *lock_collected());
        let mut events = Vec::with_capacity(collected.runs.len() + 1);
        if !collected.root.is_empty() {
            // The root buffer's key sorts before any run key.
            events.push((String::new(), collected.root));
        }
        events.extend(collected.runs);
        events.sort_by(|a, b| a.0.cmp(&b.0));
        let mut ledger = collected.ledger;
        ledger.sort_by(|a, b| a.0.cmp(&b.0));
        let report = ObsReport {
            events,
            ledger,
            metrics: metrics::snapshot(),
            perf: perf::snapshot(),
        };
        metrics::reset_global();
        perf::reset_global();
        report
        // `self._lock` releases here, letting the next session install.
    }
}

fn disarm() {
    TRACE_ACTIVE.store(false, Ordering::Relaxed);
    METRICS_ACTIVE.store(false, Ordering::Relaxed);
    LEDGER_ACTIVE.store(false, Ordering::Relaxed);
    CONSOLE_LEVEL.store(0, Ordering::Relaxed);
    perf::set_active(false);
}

impl Drop for Session {
    fn drop(&mut self) {
        disarm();
        *lock_collected() = Collected::default();
        metrics::reset_global();
        perf::reset_global();
    }
}

/// Everything one session collected, ready to serialise.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsReport {
    /// Run buffers sorted by run key (root buffer first, empty key).
    /// Within a buffer, events are in emission order.
    pub events: Vec<(String, Vec<Event>)>,
    /// Energy-attribution entries sorted by run key.
    pub ledger: Vec<(String, LedgerEntry)>,
    /// Deterministic metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Hierarchical wall-clock call tree with profiler counters (not
    /// reproducible; never in traces).
    pub perf: PerfSnapshot,
}

impl ObsReport {
    /// Total number of collected trace events.
    pub fn event_count(&self) -> usize {
        self.events.iter().map(|(_, evs)| evs.len()).sum()
    }

    /// The full deterministic JSONL trace (one event per line, run
    /// buffers concatenated in key order).
    pub fn trace_jsonl(&self) -> String {
        let mut out = String::new();
        for (_, events) in &self.events {
            for ev in events {
                out.push_str(&ev.to_jsonl());
                out.push('\n');
            }
        }
        out
    }

    /// Write [`ObsReport::trace_jsonl`] to `path`, creating parent
    /// directories on demand.
    pub fn write_trace_jsonl(&self, path: &Path) -> io::Result<()> {
        write_with_context(path, &self.trace_jsonl())
    }

    /// The deterministic energy-attribution JSONL (one migration per
    /// line, entries in run-key order).
    pub fn ledger_jsonl(&self) -> String {
        let mut out = String::new();
        for (key, entry) in &self.ledger {
            out.push_str(&entry.to_jsonl(key));
            out.push('\n');
        }
        out
    }

    /// Write [`ObsReport::ledger_jsonl`] to `path`, creating parent
    /// directories on demand.
    pub fn write_ledger_jsonl(&self, path: &Path) -> io::Result<()> {
        write_with_context(path, &self.ledger_jsonl())
    }

    /// Write the metrics snapshot as a JSON document to `path`, creating
    /// parent directories on demand.
    ///
    /// Layout: `{"counters":{…},"gauges":{…},"histograms":{…}}`.
    /// Counters/histograms are seed-deterministic; gauges may carry
    /// wall-clock data. The wall-clock profile is [`ObsReport::perf`].
    pub fn write_metrics_json(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string(&self.metrics).expect("metrics snapshot serialises");
        write_with_context(path, &json)
    }
}

fn write_with_context(path: &Path, contents: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| annotate(parent, e))?;
        }
    }
    let mut f = std::fs::File::create(path).map_err(|e| annotate(path, e))?;
    f.write_all(contents.as_bytes())
        .map_err(|e| annotate(path, e))
}

fn annotate(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wavm3_simkit::SimTime;

    #[test]
    fn metrics_session_records_and_finish_disarms() {
        let session = Session::install(ObsConfig {
            metrics: true,
            ..ObsConfig::default()
        });
        crate::metrics::counter_add("session.test", 3);
        let report = session.finish();
        assert_eq!(report.metrics.counters["session.test"], 3);
        // Disarmed: later increments are dropped and the registry is clean.
        crate::metrics::counter_add("session.test", 5);
        assert!(crate::metrics::snapshot().counters.is_empty());
    }

    #[test]
    fn trace_files_are_written_with_parent_dirs() {
        let session = Session::install(ObsConfig {
            trace: true,
            ..ObsConfig::default()
        });
        crate::event!(Level::Info, "t", "io.test", SimTime::ZERO, "ok" => true);
        let report = session.finish();
        let dir = std::env::temp_dir().join(format!("wavm3-obs-test-{}", std::process::id()));
        let path = dir.join("deep/nested/trace.jsonl");
        report.write_trace_jsonl(&path).expect("write trace");
        let back = std::fs::read_to_string(&path).unwrap();
        assert!(back.contains("io.test"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_errors_carry_the_path() {
        let report = ObsReport {
            events: Vec::new(),
            ledger: Vec::new(),
            metrics: MetricsSnapshot::default(),
            perf: PerfSnapshot::default(),
        };
        let err = report
            .write_trace_jsonl(Path::new("/dev/null/not-a-dir/x.jsonl"))
            .expect_err("cannot create a directory under /dev/null");
        assert!(err.to_string().contains("not-a-dir"));
    }
}
