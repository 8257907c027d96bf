//! Reproducible random-number streams.
//!
//! Every stochastic component of the simulation (meter noise, page-dirty
//! ordering, workload jitter, …) draws from its own *named stream* derived
//! from a root seed. Streams are independent of each other and of the order
//! in which they are created, so adding a new noise source never perturbs
//! existing results, and rayon-parallel sweeps stay bit-reproducible.
//!
//! `ChaCha8Rng` is used because, unlike `StdRng`, its output is documented
//! to be stable across `rand` versions and platforms.

use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The concrete RNG handed to simulation components.
pub type StreamRng = ChaCha8Rng;

/// Derives independent [`StreamRng`] streams from a root seed and a label.
///
/// The derivation is a small, stable FNV-1a-style hash of the label mixed
/// into the root seed — not cryptographic, just collision-resistant enough
/// for a handful of named streams per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngFactory {
    root_seed: u64,
}

impl RngFactory {
    /// A factory whose streams are all determined by `root_seed`.
    pub fn new(root_seed: u64) -> Self {
        RngFactory { root_seed }
    }

    /// The root seed this factory was built from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// A factory for a sub-scope (e.g. one repetition of an experiment).
    ///
    /// `self.child(a).stream(s)` differs from `self.child(b).stream(s)`
    /// whenever `a != b`.
    pub fn child(&self, index: u64) -> RngFactory {
        crate::probe::note_child();
        RngFactory {
            root_seed: mix(self.root_seed, &index.to_le_bytes()),
        }
    }

    /// A named, independent random stream.
    pub fn stream(&self, label: &str) -> StreamRng {
        crate::probe::note_stream();
        let seed = mix(self.root_seed, label.as_bytes());
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// A named *counter-based* stream: a stateless generator whose `n`-th
    /// draw is a pure function of `(root_seed, label, n)`.
    ///
    /// Unlike [`RngFactory::stream`], a [`CounterRng`] can be re-created at
    /// any point and read at any index with [`CounterRng::draw_at`], so
    /// analytic fast paths can consume exactly as many draws as they need
    /// per migration without threading mutable RNG state through the
    /// computation — and the draws are identical regardless of rayon
    /// thread count or the order migrations are evaluated in.
    pub fn counter_stream(&self, label: &str) -> CounterRng {
        crate::probe::note_counter_stream();
        CounterRng::new(mix(self.root_seed, label.as_bytes()))
    }
}

/// A counter-based RNG: draw `n` is `splitmix64(key ⊕ n·φ)` where `φ` is
/// the 64-bit golden-ratio constant. Stateless up to the counter, so any
/// draw index can be produced in O(1) and streams are reproducible across
/// execution orders and thread counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
    counter: u64,
}

impl CounterRng {
    /// A stream keyed by `key`, positioned at draw 0.
    pub fn new(key: u64) -> Self {
        CounterRng { key, counter: 0 }
    }

    /// The draw at absolute index `n`, without advancing the stream.
    pub fn draw_at(&self, n: u64) -> u64 {
        // Weyl-sequence input, then the splitmix64 finalizer: the standard
        // construction for a counter-based stream with full 64-bit state.
        const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut z = self.key ^ n.wrapping_mul(GOLDEN);
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl RngCore for CounterRng {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let v = self.draw_at(self.counter);
        self.counter += 1;
        v
    }
}

/// FNV-1a over `bytes`, seeded by `seed`. Stable across platforms.
fn mix(seed: u64, bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME);
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Final avalanche (splitmix64 finalizer) so nearby seeds diverge.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Draw a sample from a normal distribution via Box–Muller.
///
/// Self-contained (no `rand_distr` dependency) and entirely adequate for
/// meter-noise synthesis.
pub fn sample_normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> f64 {
    if std_dev <= 0.0 {
        return mean;
    }
    // Avoid ln(0) by sampling the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    mean + std_dev * z
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let f = RngFactory::new(42);
        let a: Vec<u64> = (0..8).map(|_| 0).collect::<Vec<_>>();
        let mut s1 = f.stream("meter");
        let mut s2 = f.stream("meter");
        let v1: Vec<u64> = a.iter().map(|_| s1.next_u64()).collect();
        let v2: Vec<u64> = a.iter().map(|_| s2.next_u64()).collect();
        assert_eq!(v1, v2);
    }

    #[test]
    fn different_labels_diverge() {
        let f = RngFactory::new(42);
        assert_ne!(f.stream("meter").next_u64(), f.stream("dirty").next_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        assert_ne!(
            RngFactory::new(1).stream("x").next_u64(),
            RngFactory::new(2).stream("x").next_u64()
        );
    }

    #[test]
    fn children_are_independent() {
        let f = RngFactory::new(7);
        let a = f.child(0).stream("s").next_u64();
        let b = f.child(1).stream("s").next_u64();
        assert_ne!(a, b);
        // Child derivation is deterministic.
        assert_eq!(a, RngFactory::new(7).child(0).stream("s").next_u64());
    }

    #[test]
    fn nearby_child_indices_diverge_strongly() {
        let f = RngFactory::new(0);
        let vals: Vec<u64> = (0..64).map(|i| f.child(i).stream("s").next_u64()).collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), vals.len(), "child seeds must not collide");
    }

    #[test]
    fn normal_sampler_statistics() {
        let mut rng = RngFactory::new(9).stream("normal");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn normal_sampler_degenerate_std() {
        let mut rng = RngFactory::new(9).stream("n");
        assert_eq!(sample_normal(&mut rng, 3.0, 0.0), 3.0);
        assert_eq!(sample_normal(&mut rng, 3.0, -1.0), 3.0);
    }

    #[test]
    fn counter_stream_is_deterministic_per_label() {
        let f = RngFactory::new(42);
        let mut a = f.counter_stream("wander");
        let mut b = f.counter_stream("wander");
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(
            f.counter_stream("wander").next_u64(),
            f.counter_stream("meter").next_u64(),
            "labels must derive distinct keys"
        );
    }

    #[test]
    fn counter_stream_jumps_match_sequential_draws() {
        let f = RngFactory::new(7);
        let mut seq = f.counter_stream("s");
        let sequential: Vec<u64> = (0..32).map(|_| seq.next_u64()).collect();
        let frozen = f.counter_stream("s");
        for (n, &expect) in sequential.iter().enumerate() {
            assert_eq!(frozen.draw_at(n as u64), expect, "draw {n}");
        }
    }

    #[test]
    fn counter_stream_draws_are_execution_order_invariant() {
        // Evaluate "per-migration" draws (one child scope per migration)
        // forward, backward and interleaved: every schedule must observe
        // identical values.
        let f = RngFactory::new(0xC1A5_7E01);
        let draws = |rep: u64| -> [u64; 3] {
            let mut s = f.child(rep).counter_stream("wander.analytic");
            [s.next_u64(), s.next_u64(), s.next_u64()]
        };
        let forward: Vec<[u64; 3]> = (0..64).map(draws).collect();
        let backward: Vec<[u64; 3]> = (0..64).rev().map(draws).collect();
        let interleaved: Vec<[u64; 3]> = (0..32).flat_map(|i| [i, 63 - i]).map(draws).collect();
        assert!((0..64).all(|i| forward[i] == backward[63 - i]));
        assert!(
            (0..32)
                .all(|i| interleaved[2 * i] == forward[i]
                    && interleaved[2 * i + 1] == forward[63 - i])
        );
    }

    #[test]
    fn counter_stream_draws_are_thread_count_invariant() {
        // The satellite property: per-migration draws from counter-based
        // streams are identical no matter how many rayon threads execute
        // the sweep or how the scheduler slices it.
        use rayon::prelude::*;
        let f = RngFactory::new(1234);
        let reps: Vec<u64> = (0..64).collect();
        let run = |threads: usize| -> Vec<[u64; 4]> {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool")
                .install(|| {
                    reps.par_iter()
                        .map(|&rep| {
                            let mut s = f.child(rep).counter_stream("wander.analytic");
                            [s.next_u64(), s.next_u64(), s.next_u64(), s.next_u64()]
                        })
                        .collect()
                })
        };
        let reference = run(1);
        for threads in [2, 3, 4, 8] {
            assert_eq!(run(threads), reference, "thread count {threads}");
        }
    }

    #[test]
    fn counter_stream_feeds_the_normal_sampler() {
        let mut rng = RngFactory::new(5).counter_stream("normal");
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_normal(&mut rng, 0.0, 1.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
