//! Verdicts between two sets of runs of one metric.
//!
//! Each side is summarised by its median and quartiles. A side whose
//! quartile spread (`(q3 − q1) / median`) exceeds the metric's bound is
//! too noisy to compare medians against that bound, so the verdict is
//! *unresolved* — unless every run of one side beats every run of the
//! other, which no amount of noise explains away.

use crate::summary::Summary;

/// The outcome of comparing side B (the change) against side A (the base).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median beats A's by more than the bound.
    Better,
    /// The medians are within the bound of each other.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's spread exceeds the bound and neither side dominates.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric compared across two sets of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Summary of side A.
    pub a: Summary,
    /// Summary of side B.
    pub b: Summary,
    /// Signed change of B's median against A's, as a share of A's; positive
    /// means B is better.
    pub gain: f64,
    /// Index-aligned pairs `(a[i], b[i])` in which B is better, and the
    /// number of pairs.
    pub wins: (usize, usize),
    /// The verdict.
    pub verdict: Verdict,
}

/// Relative quartile spread of a summary.
pub fn spread(s: &Summary) -> f64 {
    match (s.median(), s.quartiles()) {
        (Some(m), Some((q1, q3))) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => f64::INFINITY,
    }
}

/// Compare the runs of B against those of A.
///
/// # Panics
///
/// When either side has no runs.
pub fn compare(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Comparison {
    assert!(!a.is_empty() && !b.is_empty(), "both sides need runs");
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let (sa, sb) = (Summary::new(a.to_vec()), Summary::new(b.to_vec()));
    let (ma, mb) = (sa.median().expect("runs"), sb.median().expect("runs"));
    let sign = if higher_is_better { 1.0 } else { -1.0 };
    let gain = sign * (mb - ma) / ma.abs();
    let pairs = a.len().min(b.len());
    let wins = (0..pairs).filter(|&i| beats(b[i], a[i])).count();
    let b_dominates = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let a_dominates = a.iter().all(|&x| b.iter().all(|&y| beats(x, y)));
    let verdict = if spread(&sa) > bound || spread(&sb) > bound {
        if b_dominates {
            Verdict::Better
        } else if a_dominates {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    Comparison {
        a: sa,
        b: sb,
        gain,
        wins: (wins, pairs),
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_sides_compare_medians_against_the_bound() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            compare(&a, &[100.2, 99.8, 100.9, 100.1], true, 0.1).verdict,
            Verdict::Same
        );
        // Throughput down 20%: worse.
        let c = compare(&a, &[80.0, 81.0, 79.5, 80.5], true, 0.1);
        assert_eq!(c.verdict, Verdict::Worse);
        assert!((c.gain + 0.2).abs() < 0.01, "{}", c.gain);
        assert_eq!(c.wins, (0, 4));
        // Latency down 20% (lower is better): better.
        assert_eq!(
            compare(&a, &[80.0, 81.0, 79.5, 80.5], false, 0.1).verdict,
            Verdict::Better
        );
    }

    #[test]
    fn noisy_sides_are_unresolved_unless_one_dominates() {
        let noisy = [50.0, 100.0, 150.0, 100.0];
        assert_eq!(spread(&Summary::new(noisy.to_vec())), 0.5);
        assert_eq!(
            compare(&[100.0, 101.0, 99.0], &noisy, false, 0.1).verdict,
            Verdict::Unresolved
        );
        // Every run of B is slower than every run of A.
        assert_eq!(
            compare(&[10.0, 11.0, 12.0], &[50.0, 100.0, 150.0], false, 0.1).verdict,
            Verdict::Worse
        );
        assert_eq!(
            compare(&[50.0, 100.0, 150.0], &[10.0, 11.0, 12.0], false, 0.1).verdict,
            Verdict::Better
        );
    }
}
