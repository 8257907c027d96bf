//! Dependency-inverted performance counters.
//!
//! simkit sits below the observability crate, so it cannot call the
//! profiler directly. Instead it keeps a handful of process-wide atomic
//! event counters that `wavm3-obs` arms when a profiling session
//! installs and folds into its [`PerfSnapshot`] counters at snapshot
//! time. Disarmed (the default), every probe is one relaxed atomic load.
//!
//! The counts are wall-clock-free and deterministic for a fixed
//! workload, but they still live strictly on the profiling side of the
//! determinism firewall: nothing here feeds traces or golden outputs.
//!
//! [`PerfSnapshot`]: https://docs.rs/wavm3-obs

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ARMED: AtomicBool = AtomicBool::new(false);
static RNG_STREAMS: AtomicU64 = AtomicU64::new(0);
static RNG_COUNTER_STREAMS: AtomicU64 = AtomicU64::new(0);
static RNG_CHILDREN: AtomicU64 = AtomicU64::new(0);

/// Arm or disarm the probe counters (called by the obs session).
pub fn set_armed(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// `true` when a profiling session is collecting simkit counters.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Count one [`RngFactory::stream`](crate::RngFactory::stream) derivation.
#[inline]
pub(crate) fn note_stream() {
    if armed() {
        RNG_STREAMS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Count one [`RngFactory::counter_stream`](crate::RngFactory::counter_stream)
/// derivation.
#[inline]
pub(crate) fn note_counter_stream() {
    if armed() {
        RNG_COUNTER_STREAMS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Count one [`RngFactory::child`](crate::RngFactory::child) derivation.
#[inline]
pub(crate) fn note_child() {
    if armed() {
        RNG_CHILDREN.fetch_add(1, Ordering::Relaxed);
    }
}

/// Current counter values as `(name, count)` pairs.
pub fn snapshot() -> [(&'static str, u64); 3] {
    [
        ("simkit.rng.stream", RNG_STREAMS.load(Ordering::Relaxed)),
        (
            "simkit.rng.counter_stream",
            RNG_COUNTER_STREAMS.load(Ordering::Relaxed),
        ),
        ("simkit.rng.child", RNG_CHILDREN.load(Ordering::Relaxed)),
    ]
}

/// Zero every counter (called by the obs session at install/teardown).
pub fn reset() {
    RNG_STREAMS.store(0, Ordering::Relaxed);
    RNG_COUNTER_STREAMS.store(0, Ordering::Relaxed);
    RNG_CHILDREN.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RngFactory;

    #[test]
    fn disarmed_probes_count_nothing_and_armed_probes_count_derivations() {
        // ARMED is process-global and other simkit tests derive streams
        // concurrently, so while armed we only assert lower bounds.
        reset();
        let f = RngFactory::new(7);
        let _ = f.stream("a");
        assert_eq!(snapshot()[0].1, 0, "disarmed probes are inert");

        set_armed(true);
        let _ = f.stream("a");
        let _ = f.stream("b");
        let _ = f.counter_stream("c");
        let _ = f.child(1);
        set_armed(false);

        let counts = snapshot();
        assert_eq!(counts[0].0, "simkit.rng.stream");
        assert!(counts[0].1 >= 2, "two streams: {counts:?}");
        assert!(counts[1].1 >= 1, "{counts:?}");
        assert!(counts[2].1 >= 1, "{counts:?}");
        reset();
    }
}
