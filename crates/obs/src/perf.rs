//! Hierarchical wall-clock self-profiler.
//!
//! Scopes opened with [`scope`] nest into a **call tree**, so a snapshot
//! attributes wall time to
//! `runner.scenario → runner.repetition → migration.run.analytic` paths
//! with cumulative *and* self time per node, plus per-scope counts,
//! maxima and (behind the `count-allocs` feature) allocation tallies.
//! [`PerfSnapshot::hotspots`] is its one flat view.
//!
//! ## Zero contention
//!
//! Each OS thread records into its own fixed-capacity node arena
//! ([`MAX_NODES`] slots of atomic stats) that only the owner thread
//! writes. The global registry mutex is taken once per thread per
//! session (registration) and once at snapshot; opening/closing a scope
//! touches no shared state at all, so rayon workers never serialise on
//! the profiler. With no profiling session armed, a probe is a single
//! relaxed atomic load; the `perf-off` cargo feature compiles probes out
//! entirely (the "no-obs build" the CI overhead gate compares against).
//!
//! ## Determinism firewall
//!
//! Wall time is inherently non-reproducible, so profiling data never
//! enters the deterministic trace buffer or any golden output: it only
//! appears in the session report's [`perf`](crate::ObsReport::perf)
//! snapshot and the exporter files ([`chrome_trace`],
//! [`collapsed_stacks`]).
//! Snapshot *merging* is deterministic (trees merge by name in BTreeMap
//! order), so equal recordings render identically.

use crate::json;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Deepest scope nesting recorded; deeper scopes are counted as dropped.
pub const MAX_DEPTH: usize = 64;
/// Distinct (parent, name) nodes per thread; beyond this scopes are
/// counted as dropped rather than reallocating on the hot path.
pub const MAX_NODES: usize = 512;

// --- Always-available data model. ------------------------------------------

/// One merged node of the profiled call tree.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PerfNode {
    /// Scope name as passed to [`scope`].
    pub name: String,
    /// Completed timings of this node.
    pub count: u64,
    /// Cumulative wall time (includes children), nanoseconds.
    pub total_ns: u64,
    /// Wall time not attributed to any child scope, nanoseconds.
    pub self_ns: u64,
    /// Longest single timing, nanoseconds.
    pub max_ns: u64,
    /// Heap allocations observed inside the scope (cumulative; 0 unless
    /// built with the `count-allocs` feature).
    pub allocs: u64,
    /// Bytes requested by those allocations (cumulative).
    pub alloc_bytes: u64,
    /// Child scopes, merged by name.
    pub children: Vec<PerfNode>,
}

impl PerfNode {
    /// Cumulative wall time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6
    }

    /// Self wall time in milliseconds.
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }

    /// Longest single timing in milliseconds.
    pub fn max_ms(&self) -> f64 {
        self.max_ns as f64 / 1e6
    }
}

/// A merged point-in-time copy of every thread's call tree plus the
/// session's profiler counters (cache hits, RNG stream derivations, …).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PerfSnapshot {
    /// Top-level scopes, merged across threads by name.
    pub roots: Vec<PerfNode>,
    /// Named event counters recorded via [`counter_add`] and the simkit
    /// probe hooks.
    pub counters: BTreeMap<String, u64>,
}

/// One row of a flattened hotspot listing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Hotspot {
    /// Full `/`-joined path from the root scope.
    pub path: String,
    /// Leaf scope name.
    pub name: String,
    /// Completed timings.
    pub count: u64,
    /// Cumulative wall time, nanoseconds.
    pub total_ns: u64,
    /// Self wall time, nanoseconds.
    pub self_ns: u64,
    /// Longest single timing, nanoseconds.
    pub max_ns: u64,
    /// Cumulative allocations (0 without `count-allocs`).
    pub allocs: u64,
    /// Cumulative allocated bytes.
    pub alloc_bytes: u64,
}

impl PerfSnapshot {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty() && self.counters.is_empty()
    }

    /// Total cumulative wall time across the root scopes, nanoseconds.
    /// Because self time is defined as cumulative minus children, the
    /// self times of the whole tree sum back to exactly this value.
    pub fn total_ns(&self) -> u64 {
        self.roots.iter().map(|r| r.total_ns).sum()
    }

    /// Sum of self time over every node, nanoseconds.
    pub fn self_total_ns(&self) -> u64 {
        fn rec(n: &PerfNode) -> u64 {
            n.self_ns + n.children.iter().map(rec).sum::<u64>()
        }
        self.roots.iter().map(rec).sum()
    }

    /// Total [`PerfNode::count`] over every node named `name`, anywhere
    /// in the tree (e.g. `count_of("migration.run.analytic")` = number
    /// of profiled migration runs).
    pub fn count_of(&self, name: &str) -> u64 {
        fn rec(n: &PerfNode, name: &str) -> u64 {
            let own = if n.name == name { n.count } else { 0 };
            own + n.children.iter().map(|c| rec(c, name)).sum::<u64>()
        }
        self.roots.iter().map(|r| rec(r, name)).sum()
    }

    /// Every node as a flat row, sorted by self time, largest first.
    pub fn hotspots(&self) -> Vec<Hotspot> {
        let mut rows = Vec::new();
        fn rec(n: &PerfNode, prefix: &str, rows: &mut Vec<Hotspot>) {
            let path = if prefix.is_empty() {
                n.name.clone()
            } else {
                format!("{prefix}/{}", n.name)
            };
            rows.push(Hotspot {
                path: path.clone(),
                name: n.name.clone(),
                count: n.count,
                total_ns: n.total_ns,
                self_ns: n.self_ns,
                max_ns: n.max_ns,
                allocs: n.allocs,
                alloc_bytes: n.alloc_bytes,
            });
            for c in &n.children {
                rec(c, &path, rows);
            }
        }
        for r in &self.roots {
            rec(r, "", &mut rows);
        }
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.path.cmp(&b.path)));
        rows
    }
}

/// Human-readable hotspot table, largest self time first (empty string
/// when nothing was profiled).
pub fn summarise(snapshot: &PerfSnapshot) -> String {
    let rows = snapshot.hotspots();
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "profile: stage                                               count   total_ms    self_ms     max_ms\n",
    );
    for h in rows {
        let _ = writeln!(
            out,
            "profile: {:<51} {:>6} {:>10.1} {:>10.1} {:>10.2}",
            h.path,
            h.count,
            h.total_ns as f64 / 1e6,
            h.self_ns as f64 / 1e6,
            h.max_ns as f64 / 1e6
        );
    }
    out
}

// --- Exporters. -------------------------------------------------------------

/// Render the snapshot as Chrome `trace_event` JSON, loadable in
/// `chrome://tracing` or Perfetto.
///
/// The timeline is *synthetic*: scopes of one node ran at many different
/// wall-clock instants (and threads), so each merged node is laid out as
/// a single complete ("X") event of its cumulative duration, with its
/// children packed sequentially inside it — the uncovered remainder of a
/// span is its self time. Real counts and maxima ride along in `args`.
pub fn chrome_trace(snap: &PerfSnapshot) -> String {
    fn emit(doc: &mut json::ChromeTrace, node: &PerfNode, ts_ns: u64) {
        doc.complete("perf", &node.name, 1, ts_ns, node.total_ns, |args| {
            let _ = write!(args, "\"count\":{},\"self_us\":", node.count);
            json::write_us(args, node.self_ns);
            args.push_str(",\"max_us\":");
            json::write_us(args, node.max_ns);
            let _ = write!(
                args,
                ",\"allocs\":{},\"alloc_bytes\":{}",
                node.allocs, node.alloc_bytes
            );
        });
        let mut child_ts = ts_ns;
        for c in &node.children {
            emit(doc, c, child_ts);
            child_ts += c.total_ns;
        }
    }
    let mut doc = json::ChromeTrace::new();
    let mut ts = 0;
    for root in &snap.roots {
        emit(&mut doc, root, ts);
        ts += root.total_ns;
    }
    doc.finish()
}

/// Render the snapshot as collapsed stacks (`a;b;c <self_us>` per line),
/// directly consumable by `flamegraph.pl` / `inferno-flamegraph`. One
/// "sample" is one microsecond of self time.
pub fn collapsed_stacks(snap: &PerfSnapshot) -> String {
    fn rec(out: &mut String, node: &PerfNode, prefix: &str) {
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix};{}", node.name)
        };
        let self_us = node.self_ns / 1_000;
        if self_us > 0 || node.children.is_empty() {
            let _ = writeln!(out, "{path} {self_us}");
        }
        for c in &node.children {
            rec(out, c, &path);
        }
    }
    let mut out = String::new();
    for r in &snap.roots {
        rec(&mut out, r, "");
    }
    out
}

// --- Recording machinery (compiled out under `perf-off`). -------------------

#[cfg(not(feature = "perf-off"))]
mod record {
    use super::{PerfNode, PerfSnapshot, MAX_DEPTH, MAX_NODES};
    use std::cell::RefCell;
    use std::collections::{BTreeMap, HashMap};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
    use std::time::Instant;

    static PERF_ACTIVE: AtomicBool = AtomicBool::new(false);
    /// Bumped by [`reset_global`] (under the registry lock) so stale
    /// thread-local cursors re-register instead of writing into tables
    /// from a finished session.
    static EPOCH: AtomicU64 = AtomicU64::new(0);

    pub fn set_active(on: bool) {
        PERF_ACTIVE.store(on, Ordering::Relaxed);
    }

    #[inline]
    pub fn profiling_active() -> bool {
        PERF_ACTIVE.load(Ordering::Relaxed)
    }

    struct NodeStats {
        count: AtomicU64,
        total_ns: AtomicU64,
        max_ns: AtomicU64,
        allocs: AtomicU64,
        alloc_bytes: AtomicU64,
    }

    impl NodeStats {
        const fn new() -> Self {
            NodeStats {
                count: AtomicU64::new(0),
                total_ns: AtomicU64::new(0),
                max_ns: AtomicU64::new(0),
                allocs: AtomicU64::new(0),
                alloc_bytes: AtomicU64::new(0),
            }
        }
    }

    #[derive(Clone, Copy)]
    struct NodeMeta {
        name: &'static str,
        /// Index of the parent node, or `u32::MAX` for a root.
        parent: u32,
    }

    /// One thread's private arena. Only the owner thread writes the
    /// stats (relaxed atomics make the snapshot read race-free); the
    /// meta mutex is uncontended except while a snapshot runs.
    pub struct ThreadTable {
        meta: Mutex<Vec<NodeMeta>>,
        stats: Box<[NodeStats]>,
        counters: Mutex<BTreeMap<&'static str, u64>>,
    }

    impl ThreadTable {
        fn new() -> Self {
            ThreadTable {
                meta: Mutex::new(Vec::with_capacity(MAX_NODES)),
                stats: (0..MAX_NODES).map(|_| NodeStats::new()).collect(),
                counters: Mutex::new(BTreeMap::new()),
            }
        }
    }

    fn registry() -> &'static Mutex<Vec<Arc<ThreadTable>>> {
        static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadTable>>>> = OnceLock::new();
        REGISTRY.get_or_init(Mutex::default)
    }

    fn lock_registry() -> MutexGuard<'static, Vec<Arc<ThreadTable>>> {
        registry().lock().unwrap_or_else(|p| p.into_inner())
    }

    struct Frame {
        node: u32,
        start: Instant,
        allocs0: u64,
        alloc_bytes0: u64,
    }

    #[derive(Default)]
    struct Cursor {
        epoch: u64,
        table: Option<Arc<ThreadTable>>,
        lookup: HashMap<(u32, &'static str), u32>,
        stack: Vec<Frame>,
    }

    thread_local! {
        static CURSOR: RefCell<Cursor> = RefCell::new(Cursor::default());
    }

    #[cfg(feature = "count-allocs")]
    fn alloc_tally() -> (u64, u64) {
        super::alloc_counter::tally()
    }

    #[cfg(not(feature = "count-allocs"))]
    fn alloc_tally() -> (u64, u64) {
        (0, 0)
    }

    /// Point the cursor at a registered table for the current epoch.
    /// Returns `false` while open frames from a previous epoch are still
    /// draining (their recordings go to the orphaned table and are
    /// discarded — resets only happen at session boundaries).
    fn ensure_table(cur: &mut Cursor) -> bool {
        // EPOCH only changes under the registry lock, so loading it
        // after taking the lock gives a consistent (epoch, registry)
        // pair for registration.
        if cur.table.is_some() && cur.epoch == EPOCH.load(Ordering::Acquire) {
            return true;
        }
        if !cur.stack.is_empty() {
            return false;
        }
        let mut reg = lock_registry();
        let epoch = EPOCH.load(Ordering::Acquire);
        let table = Arc::new(ThreadTable::new());
        reg.push(table.clone());
        drop(reg);
        cur.table = Some(table);
        cur.lookup.clear();
        cur.epoch = epoch;
        true
    }

    /// Open a scope: resolve/create the `(parent, name)` node and push a
    /// frame. Returns `false` when the scope cannot be recorded (depth or
    /// node capacity exhausted, or an epoch change is draining).
    pub fn enter(name: &'static str) -> bool {
        CURSOR
            .try_with(|c| {
                let mut cur = c.borrow_mut();
                if !ensure_table(&mut cur) || cur.stack.len() >= MAX_DEPTH {
                    return false;
                }
                let parent = cur.stack.last().map(|f| f.node).unwrap_or(u32::MAX);
                let node = match cur.lookup.get(&(parent, name)) {
                    Some(&idx) => idx,
                    None => {
                        let table = cur.table.as_ref().expect("table ensured");
                        let mut meta = table.meta.lock().unwrap_or_else(|p| p.into_inner());
                        if meta.len() >= MAX_NODES {
                            return false;
                        }
                        let idx = meta.len() as u32;
                        meta.push(NodeMeta { name, parent });
                        drop(meta);
                        cur.lookup.insert((parent, name), idx);
                        idx
                    }
                };
                let (allocs0, alloc_bytes0) = alloc_tally();
                cur.stack.push(Frame {
                    node,
                    start: Instant::now(),
                    allocs0,
                    alloc_bytes0,
                });
                true
            })
            .unwrap_or(false)
    }

    /// Close the innermost scope and fold its timing into the node.
    pub fn exit() {
        let end = Instant::now();
        let _ = CURSOR.try_with(|c| {
            let mut cur = c.borrow_mut();
            let Some(frame) = cur.stack.pop() else {
                return;
            };
            let Some(table) = cur.table.as_ref() else {
                return;
            };
            let elapsed_ns = end
                .saturating_duration_since(frame.start)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            let stats = &table.stats[frame.node as usize];
            // Owner-thread-only writes: plain load/store max is race-free.
            stats.count.fetch_add(1, Ordering::Relaxed);
            stats.total_ns.fetch_add(elapsed_ns, Ordering::Relaxed);
            if elapsed_ns > stats.max_ns.load(Ordering::Relaxed) {
                stats.max_ns.store(elapsed_ns, Ordering::Relaxed);
            }
            let (allocs, alloc_bytes) = alloc_tally();
            let d_allocs = allocs.saturating_sub(frame.allocs0);
            if d_allocs > 0 {
                stats.allocs.fetch_add(d_allocs, Ordering::Relaxed);
                stats.alloc_bytes.fetch_add(
                    alloc_bytes.saturating_sub(frame.alloc_bytes0),
                    Ordering::Relaxed,
                );
            }
        });
    }

    /// Add to a per-thread named counter (merged at snapshot).
    pub fn counter_add(name: &'static str, delta: u64) {
        let _ = CURSOR.try_with(|c| {
            let mut cur = c.borrow_mut();
            if ensure_table(&mut cur) {
                let table = cur.table.as_ref().expect("table ensured");
                let mut counters = table.counters.lock().unwrap_or_else(|p| p.into_inner());
                *counters.entry(name).or_insert(0) += delta;
            }
        });
    }

    #[derive(Default)]
    struct MergeNode {
        count: u64,
        total_ns: u64,
        max_ns: u64,
        allocs: u64,
        alloc_bytes: u64,
        children: BTreeMap<&'static str, MergeNode>,
    }

    fn merge_into(
        dst: &mut MergeNode,
        idx: usize,
        meta: &[NodeMeta],
        kids: &[Vec<usize>],
        table: &ThreadTable,
    ) {
        let stats = &table.stats[idx];
        let node = dst.children.entry(meta[idx].name).or_default();
        node.count += stats.count.load(Ordering::Relaxed);
        node.total_ns += stats.total_ns.load(Ordering::Relaxed);
        node.max_ns = node.max_ns.max(stats.max_ns.load(Ordering::Relaxed));
        node.allocs += stats.allocs.load(Ordering::Relaxed);
        node.alloc_bytes += stats.alloc_bytes.load(Ordering::Relaxed);
        for &k in &kids[idx] {
            merge_into(node, k, meta, kids, table);
        }
    }

    fn convert(children: BTreeMap<&'static str, MergeNode>) -> Vec<PerfNode> {
        children
            .into_iter()
            .map(|(name, m)| {
                let child_total: u64 = m.children.values().map(|c| c.total_ns).sum();
                PerfNode {
                    name: name.to_string(),
                    count: m.count,
                    total_ns: m.total_ns,
                    self_ns: m.total_ns.saturating_sub(child_total),
                    max_ns: m.max_ns,
                    allocs: m.allocs,
                    alloc_bytes: m.alloc_bytes,
                    children: convert(m.children),
                }
            })
            .collect()
    }

    /// Merge every registered thread table into one call tree.
    pub fn snapshot() -> PerfSnapshot {
        let tables: Vec<Arc<ThreadTable>> = lock_registry().clone();
        let mut root = MergeNode::default();
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        for table in &tables {
            let meta: Vec<NodeMeta> = table.meta.lock().unwrap_or_else(|p| p.into_inner()).clone();
            let mut kids: Vec<Vec<usize>> = vec![Vec::new(); meta.len()];
            let mut roots_idx: Vec<usize> = Vec::new();
            for (i, m) in meta.iter().enumerate() {
                if m.parent == u32::MAX {
                    roots_idx.push(i);
                } else {
                    kids[m.parent as usize].push(i);
                }
            }
            for &r in &roots_idx {
                merge_into(&mut root, r, &meta, &kids, table);
            }
            for (name, value) in table
                .counters
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .iter()
            {
                *counters.entry(name.to_string()).or_insert(0) += value;
            }
        }
        for (name, value) in wavm3_simkit::probe::snapshot() {
            if value > 0 {
                *counters.entry(name.to_string()).or_insert(0) += value;
            }
        }
        PerfSnapshot {
            roots: convert(root.children),
            counters,
        }
    }

    /// Drop every thread table and bump the epoch so cursors re-register.
    pub fn reset_global() {
        let mut reg = lock_registry();
        reg.clear();
        EPOCH.fetch_add(1, Ordering::Release);
    }
}

// --- Public probes. ---------------------------------------------------------

/// A running scope timer; folds its timing into the call tree on drop.
#[must_use = "the scope records when dropped"]
pub struct ScopeGuard {
    armed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        #[cfg(not(feature = "perf-off"))]
        if self.armed {
            record::exit();
        }
        #[cfg(feature = "perf-off")]
        let _ = self.armed;
    }
}

/// `true` when a session armed the profiler.
#[cfg(not(feature = "perf-off"))]
#[inline]
pub fn profiling_active() -> bool {
    record::profiling_active()
}

/// `true` when a session armed the profiler (never, in this build).
#[cfg(feature = "perf-off")]
#[inline(always)]
pub fn profiling_active() -> bool {
    false
}

/// Open a nested wall-clock scope (inert unless a profiling session is
/// armed; compiled out entirely under the `perf-off` feature).
#[cfg(not(feature = "perf-off"))]
#[inline]
pub fn scope(name: &'static str) -> ScopeGuard {
    if !record::profiling_active() {
        return ScopeGuard { armed: false };
    }
    ScopeGuard {
        armed: record::enter(name),
    }
}

/// Open a nested wall-clock scope (no-op in this build).
#[cfg(feature = "perf-off")]
#[inline(always)]
pub fn scope(_name: &'static str) -> ScopeGuard {
    ScopeGuard { armed: false }
}

/// Add `delta` to the profiler counter `name` (inert unless a profiling
/// session is armed). Counters are per-thread and merged at snapshot, so
/// the probe never contends.
#[cfg(not(feature = "perf-off"))]
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if delta > 0 && record::profiling_active() {
        record::counter_add(name, delta);
    }
}

/// Add to a profiler counter (no-op in this build).
#[cfg(feature = "perf-off")]
#[inline(always)]
pub fn counter_add(_name: &'static str, _delta: u64) {}

#[cfg(not(feature = "perf-off"))]
pub(crate) fn set_active(on: bool) {
    record::set_active(on);
    wavm3_simkit::probe::set_armed(on);
}

#[cfg(feature = "perf-off")]
pub(crate) fn set_active(_on: bool) {}

/// Merge every thread's recordings into one deterministic-ordered tree.
#[cfg(not(feature = "perf-off"))]
pub fn snapshot() -> PerfSnapshot {
    record::snapshot()
}

/// Merge every thread's recordings (always empty in this build).
#[cfg(feature = "perf-off")]
pub fn snapshot() -> PerfSnapshot {
    PerfSnapshot::default()
}

#[cfg(not(feature = "perf-off"))]
pub(crate) fn reset_global() {
    record::reset_global();
    wavm3_simkit::probe::reset();
}

#[cfg(feature = "perf-off")]
pub(crate) fn reset_global() {}

// --- Allocation counting (behind `count-allocs`). ---------------------------

/// Counting wrapper around the system allocator. Enabling the
/// `count-allocs` feature installs it as the global allocator, so scope
/// stats additionally carry allocation counts and bytes. Deallocation is
/// not tracked — the profiler answers "how much allocator traffic does
/// this stage cause", not "what is live".
#[cfg(feature = "count-allocs")]
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // const-init so `try_with` never allocates (re-entrancy firewall:
        // the counter itself must not call the counting allocator).
        static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    /// The counting allocator (delegates to [`System`]).
    pub struct CountingAlloc;

    fn note(bytes: usize) {
        let _ = TALLY.try_with(|t| {
            let (n, b) = t.get();
            t.set((n + 1, b + bytes as u64));
        });
    }

    /// This thread's running `(allocations, bytes)` tally.
    pub fn tally() -> (u64, u64) {
        TALLY.try_with(Cell::get).unwrap_or((0, 0))
    }

    // SAFETY: pure delegation to `System`; the tally is thread-local
    // bookkeeping with no aliasing or layout implications.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;
}

#[cfg(all(test, not(feature = "perf-off")))]
mod tests {
    use super::*;
    use crate::session::{ObsConfig, Session};

    fn profiled_session() -> Session {
        Session::install(ObsConfig {
            profiling: true,
            ..ObsConfig::default()
        })
    }

    #[test]
    fn scopes_are_inert_without_a_session() {
        let _guard = crate::session::lock_for_tests();
        {
            let _s = scope("inert.scope");
        }
        assert!(snapshot().roots.is_empty());
    }

    #[test]
    fn nested_scopes_build_a_tree_with_self_time() {
        let session = profiled_session();
        for _ in 0..3 {
            let _outer = scope("unit.outer");
            for _ in 0..2 {
                let _inner = scope("unit.inner");
                std::hint::black_box(1 + 1);
            }
        }
        let report = session.finish();
        let snap = &report.perf;
        let outer = snap
            .roots
            .iter()
            .find(|r| r.name == "unit.outer")
            .expect("outer scope recorded");
        assert_eq!(outer.count, 3);
        let inner = outer
            .children
            .iter()
            .find(|c| c.name == "unit.inner")
            .expect("inner nested under outer");
        assert_eq!(inner.count, 6);
        assert!(outer.total_ns >= inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // The self-time identity: Σ self == Σ root cumulative.
        assert_eq!(snap.self_total_ns(), snap.total_ns());
        assert_eq!(snap.count_of("unit.inner"), 6);
        // The flat view keys by path.
        let flat = snap.hotspots();
        let row = |path: &str| flat.iter().find(|h| h.path == path);
        assert!(row("unit.outer").is_some());
        assert_eq!(row("unit.outer/unit.inner").map(|h| h.count), Some(6));
    }

    #[test]
    fn recursion_creates_distinct_path_nodes() {
        fn recurse(depth: usize) {
            let _s = scope("unit.recurse");
            if depth > 0 {
                recurse(depth - 1);
            }
        }
        let session = profiled_session();
        recurse(2);
        let report = session.finish();
        let flat = report.perf.hotspots();
        let count = |path: &str| flat.iter().find(|h| h.path == path).map(|h| h.count);
        assert!(count("unit.recurse/unit.recurse").is_some());
        assert!(count("unit.recurse/unit.recurse/unit.recurse").is_some());
        assert_eq!(count("unit.recurse"), Some(1));
    }

    #[test]
    fn depth_overflow_drops_frames_but_keeps_counting_the_rest() {
        fn recurse(depth: usize) {
            let _s = scope("unit.deep");
            if depth > 0 {
                recurse(depth - 1);
            }
        }
        let session = profiled_session();
        recurse(MAX_DEPTH + 10);
        let report = session.finish();
        // No panic, and the recorded chain stops at MAX_DEPTH.
        let mut depth = 0;
        let mut node = report.perf.roots.iter().find(|r| r.name == "unit.deep");
        while let Some(n) = node {
            depth += 1;
            node = n.children.first();
        }
        assert_eq!(depth, MAX_DEPTH);
    }

    #[test]
    fn counters_merge_across_threads() {
        let session = profiled_session();
        counter_add("unit.counter", 2);
        std::thread::spawn(|| counter_add("unit.counter", 3))
            .join()
            .unwrap();
        let report = session.finish();
        assert_eq!(report.perf.counters["unit.counter"], 5);
    }

    #[test]
    fn parallel_scopes_merge_without_losing_counts() {
        let session = profiled_session();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        let _s = scope("unit.parallel");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = session.finish();
        assert_eq!(report.perf.count_of("unit.parallel"), 400);
    }

    #[test]
    fn chrome_trace_and_collapsed_stacks_render() {
        let session = profiled_session();
        {
            let _a = scope("unit.export.outer");
            let _b = scope("unit.export.inner");
        }
        let report = session.finish();
        let trace = chrome_trace(&report.perf);
        // Parse through the vendored serde's Value tree to prove the
        // exporter emits valid JSON.
        use serde::Value;
        struct Raw(Value);
        impl serde::Deserialize for Raw {
            fn from_value(v: &Value) -> Result<Self, serde::Error> {
                Ok(Raw(v.clone()))
            }
        }
        let Raw(parsed) = serde_json::from_str::<Raw>(&trace).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // One complete event per scope, each with the `ts` and `pid`
        // trace viewers require.
        let name = |ev: &Value| ev.get("name").and_then(|v| v.as_str()).map(str::to_string);
        let names: Vec<_> = events.iter().filter_map(name).collect();
        assert_eq!(names, ["unit.export.outer", "unit.export.inner"], "{trace}");
        for ev in events {
            assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"), "{trace}");
            assert!(ev.get("ts").is_some() && ev.get("pid").is_some(), "{trace}");
        }
        let folded = collapsed_stacks(&report.perf);
        assert!(
            folded
                .lines()
                .any(|l| l.starts_with("unit.export.outer;unit.export.inner ")),
            "{folded}"
        );
        for line in folded.lines() {
            let (_, value) = line.rsplit_once(' ').expect("collapsed line has a value");
            value.parse::<u64>().expect("numeric sample count");
        }
    }

    #[test]
    fn summarise_formats_the_flat_view() {
        let session = profiled_session();
        {
            let _s = scope("unit.fmt");
        }
        let report = session.finish();
        let text = summarise(&report.perf);
        assert!(text.contains("unit.fmt"));
        assert!(text.contains("self_ms"));
        assert!(summarise(&PerfSnapshot::default()).is_empty());
    }
}
