//! Real, executable versions of the paper's two load generators.
//!
//! These run actual work on the local machine — they are what the
//! `calibrate` example executes, standing in for the OpenMP `matrixmult`
//! and ANSI-C `pagedirtier` binaries of the paper. The simulator never
//! calls them (it uses the closed-form processes in [`crate::matmul`] and
//! [`crate::pagedirtier`]); they exist to demonstrate the workloads and to
//! keep the reproduction honest about what "CPU-intensive" and
//! "memory-intensive" mean.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;

/// A square row-major `f64` matrix for the matmul kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct SquareMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SquareMatrix {
    /// An `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        SquareMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Deterministic pseudo-random fill (values in `[0, 1)`).
    pub fn random(n: usize, seed: u64) -> Self {
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        SquareMatrix {
            n,
            data: (0..n * n).map(|_| rng.gen::<f64>()).collect(),
        }
    }

    /// Element access.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Naive `O(n³)` triple loop — the correctness reference.
    pub fn multiply_naive(&self, rhs: &SquareMatrix) -> SquareMatrix {
        assert_eq!(self.n, rhs.n, "dimension mismatch");
        let n = self.n;
        let mut out = SquareMatrix::zeros(n);
        for i in 0..n {
            for k in 0..n {
                let a = self.data[i * n + k];
                for j in 0..n {
                    out.data[i * n + j] += a * rhs.data[k * n + j];
                }
            }
        }
        out
    }

    /// Rayon-parallel multiplication: rows of the result are independent,
    /// so `par_chunks_mut` splits them across the thread pool exactly like
    /// the paper's OpenMP `parallel for` over rows.
    pub fn multiply_parallel(&self, rhs: &SquareMatrix) -> SquareMatrix {
        assert_eq!(self.n, rhs.n, "dimension mismatch");
        let n = self.n;
        let mut out = SquareMatrix::zeros(n);
        out.data
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, orow)| {
                for k in 0..n {
                    let a = self.data[i * n + k];
                    if a == 0.0 {
                        continue;
                    }
                    let rrow = &rhs.data[k * n..(k + 1) * n];
                    for (o, &r) in orow.iter_mut().zip(rrow) {
                        *o += a * r;
                    }
                }
            });
        out
    }

    /// Frobenius norm (a cheap whole-matrix checksum).
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

/// A real page dirtier: owns a buffer and rewrites 4 KiB pages in random
/// order, mirroring the paper's ANSI-C program.
pub struct PageDirtier {
    buffer: Vec<u8>,
    /// Page visit order (a random permutation, regenerated when exhausted).
    order: Vec<usize>,
    cursor: usize,
    page_size: usize,
    rng: ChaCha8Rng,
    writes_done: u64,
}

impl PageDirtier {
    /// A dirtier over `pages` pages of `page_size` bytes.
    pub fn new(pages: usize, page_size: usize, seed: u64) -> Self {
        assert!(pages > 0 && page_size > 0, "need a non-empty buffer");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..pages).collect();
        order.shuffle(&mut rng);
        PageDirtier {
            buffer: vec![0u8; pages * page_size],
            order,
            cursor: 0,
            page_size,
            rng,
            writes_done: 0,
        }
    }

    /// Number of pages in the buffer.
    pub fn pages(&self) -> usize {
        self.order.len()
    }

    /// Total page writes performed.
    pub fn writes_done(&self) -> u64 {
        self.writes_done
    }

    /// Write one page (every cache line of it), returning its index.
    /// Visits pages in random permutation order, reshuffling per epoch, so
    /// all pages are touched before any repeats — the steady state is a
    /// fully dirty working set, as in the paper.
    pub fn dirty_one(&mut self) -> usize {
        if self.cursor == self.order.len() {
            self.order.shuffle(&mut self.rng);
            self.cursor = 0;
        }
        let page = self.order[self.cursor];
        self.cursor += 1;
        let start = page * self.page_size;
        let value = (self.writes_done & 0xFF) as u8;
        // Touch one byte per 64-byte cache line: enough to dirty the page
        // while keeping the walk from being a pure memset.
        let mut off = 0;
        while off < self.page_size {
            self.buffer[start + off] = value;
            off += 64;
        }
        self.writes_done += 1;
        page
    }

    /// Perform `n` page writes, returning the number of *distinct* pages
    /// touched by this call.
    pub fn dirty_burst(&mut self, n: usize) -> usize {
        let mut seen = vec![false; self.pages()];
        let mut distinct = 0;
        for _ in 0..n {
            let p = self.dirty_one();
            if !seen[p] {
                seen[p] = true;
                distinct += 1;
            }
        }
        distinct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_matches_naive() {
        let a = SquareMatrix::random(64, 1);
        let b = SquareMatrix::random(64, 2);
        let naive = a.multiply_naive(&b);
        let par = a.multiply_parallel(&b);
        for i in 0..64 {
            for j in 0..64 {
                assert!(
                    (naive.get(i, j) - par.get(i, j)).abs() < 1e-10,
                    "mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn identity_multiplication() {
        let mut id = SquareMatrix::zeros(16);
        for i in 0..16 {
            id.data[i * 16 + i] = 1.0;
        }
        let a = SquareMatrix::random(16, 3);
        assert_eq!(a.multiply_parallel(&id), a);
    }

    #[test]
    fn frobenius_of_zeros_is_zero() {
        assert_eq!(SquareMatrix::zeros(8).frobenius(), 0.0);
        assert!(SquareMatrix::random(8, 4).frobenius() > 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_multiply_panics() {
        let a = SquareMatrix::zeros(4);
        let b = SquareMatrix::zeros(5);
        a.multiply_parallel(&b);
    }

    #[test]
    fn dirtier_visits_every_page_before_repeating() {
        let mut d = PageDirtier::new(100, 256, 7);
        let distinct = d.dirty_burst(100);
        assert_eq!(distinct, 100, "one epoch touches every page exactly once");
        assert_eq!(d.writes_done(), 100);
    }

    #[test]
    fn dirtier_burst_counts_distinct_within_call() {
        let mut d = PageDirtier::new(50, 128, 8);
        let distinct = d.dirty_burst(125); // 2.5 epochs
        assert_eq!(distinct, 50, "only 50 distinct pages exist");
        assert_eq!(d.writes_done(), 125);
    }

    #[test]
    fn dirtier_actually_writes_memory() {
        let mut d = PageDirtier::new(4, 4096, 9);
        // Writes stamp values 0,1,2,3 — at least the later ones are visible.
        d.dirty_burst(4);
        assert!(d.buffer.iter().any(|&b| b != 0), "buffer must be modified");
    }

    #[test]
    #[should_panic(expected = "non-empty buffer")]
    fn empty_dirtier_panics() {
        PageDirtier::new(0, 4096, 1);
    }
}
