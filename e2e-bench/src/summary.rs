//! Order statistics on raw samples.
//!
//! Percentiles use the nearest-rank definition on the raw, unbucketed
//! samples: the `p`-th percentile of `n` sorted samples is the sample at
//! 1-based rank `ceil(p/100 · n)`. A tail percentile is only worth
//! reporting when enough samples lie beyond it to make it more than one
//! unlucky outlier, so [`Summary::tail`] emits a `pNN` only when at least
//! [`MIN_BEYOND`] samples sit above it and otherwise falls back to the
//! highest percentile of [`TAIL_LADDER`] that qualifies.

/// Samples that must lie beyond a tail percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Multiply before dividing: `p · n` is exact for whole percentiles,
    // so an exact rank never rounds up past itself.
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// The `p`-th nearest-rank percentile of ascending `sorted` samples.
///
/// # Panics
///
/// On an empty slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's rank.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Median, quartiles and the sample count of one timing or rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarise raw samples (NaNs are a caller bug and sort last).
    pub fn new(mut samples: Vec<f64>) -> Summary {
        samples.sort_by(|a, b| a.total_cmp(b));
        Summary { sorted: samples }
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile (`None` without samples).
    pub fn at(&self, p: f64) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| percentile(&self.sorted, p))
    }

    /// Median (`None` without samples).
    pub fn median(&self) -> Option<f64> {
        self.at(50.0)
    }

    /// `(q1, q3)` (`None` without samples).
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        Some((self.at(25.0)?, self.at(75.0)?))
    }

    /// The highest percentile of [`TAIL_LADDER`] that has at least
    /// [`MIN_BEYOND`] samples beyond it, as `(percentile, value)`. `None`
    /// when no candidate qualifies.
    pub fn tail(&self) -> Option<(f64, f64)> {
        TAIL_LADDER
            .iter()
            .copied()
            .find(|&p| beyond(self.n(), p) >= MIN_BEYOND)
            .map(|p| (p, percentile(&self.sorted, p)))
    }

    /// One human-readable line: median, quartiles, the qualifying tail
    /// and always the sample count.
    pub fn render(&self, unit: &str) -> String {
        let (Some(median), Some((q1, q3))) = (self.median(), self.quartiles()) else {
            return "no samples (n=0)".to_string();
        };
        let tail = match self.tail() {
            Some((p, v)) => format!(" p{p:.0} {v:.4}"),
            None => String::new(),
        };
        format!(
            "median {median:.4} {unit} [q1 {q1:.4}, q3 {q3:.4}]{tail} (n={})",
            self.n()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Summary {
        Summary::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn nearest_rank_picks_raw_samples() {
        let s = ramp(10);
        assert_eq!(s.median(), Some(5.0));
        assert_eq!(s.quartiles(), Some((3.0, 8.0)));
        assert_eq!(s.at(100.0), Some(10.0));
        assert_eq!(s.at(0.0), Some(1.0));
        // Unsorted input is sorted first.
        let shuffled = Summary::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(shuffled.median(), Some(2.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly ten beyond.
        let s = ramp(1000);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(s.tail(), Some((99.0, 990.0)));
        // 999 samples: rank 990, nine beyond — p95 is the fallback.
        let s = ramp(999);
        assert_eq!(s.tail(), Some((95.0, 950.0)));
    }

    #[test]
    fn tail_falls_back_to_what_the_sample_supports() {
        // 25 samples: only p50 (12 beyond) qualifies.
        assert_eq!(ramp(25).tail(), Some((50.0, 13.0)));
        // Too few samples for any tail.
        assert_eq!(ramp(15).tail(), None);
    }

    #[test]
    fn render_always_states_the_sample_count() {
        let line = ramp(1000).render("ms");
        assert!(line.contains("median 500.0000 ms"), "{line}");
        assert!(line.contains("p99 990.0000"), "{line}");
        assert!(line.ends_with("(n=1000)"), "{line}");
        let few = ramp(5).render("ms");
        assert!(!few.contains(" p"), "{few}");
        assert!(few.ends_with("(n=5)"), "{few}");
        assert_eq!(Summary::new(Vec::new()).render("ms"), "no samples (n=0)");
    }
}
