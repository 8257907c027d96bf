//! Correctness oracle for the batch workloads: a compact digest of every
//! record a pass produced, compared across passes and against the digest
//! committed for the seed in `digests.json`.
//!
//! Energies are sums of floating-point values, so they compare to a
//! relative tolerance; byte counts, downtime, rounds and outcomes are
//! integers and must match exactly.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wavm3_migration::{MigrationOutcome, MigrationRecord};
use wavm3_models::Wavm3Model;

/// Relative tolerance on energy sums.
pub const ENERGY_RTOL: f64 = 1e-9;

/// Relative tolerance on fitted model coefficients.
pub const COEFF_RTOL: f64 = 1e-6;

/// Digests committed with the benchmark, keyed by workload then seed.
pub const COMMITTED_JSON: &str = include_str!("../digests.json");

/// The digest of one pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Digest {
    /// Records digested.
    pub runs: u64,
    /// Source-host energy per phase (initiation, transfer, activation,
    /// rollback), summed over runs, joules.
    pub source_j: Vec<f64>,
    /// Target-host energy per phase, summed over runs, joules.
    pub target_j: Vec<f64>,
    /// Bytes on the wire, summed.
    pub total_bytes: u64,
    /// Downtime, summed, microseconds.
    pub downtime_us: u64,
    /// Transfer rounds (pre-copy plus stop-and-copy), summed.
    pub rounds: u64,
    /// Runs that completed (the rest were aborted).
    pub completed: u64,
    /// Fitted WAVM3 coefficients (live, then non-live; source, then
    /// target; initiation, transfer, activation; five per phase). Empty
    /// for workloads that fit no model.
    pub coeffs: Vec<f64>,
}

impl Digest {
    /// The digest of no records.
    pub fn empty() -> Digest {
        Digest {
            runs: 0,
            source_j: vec![0.0; 4],
            target_j: vec![0.0; 4],
            total_bytes: 0,
            downtime_us: 0,
            rounds: 0,
            completed: 0,
            coeffs: Vec::new(),
        }
    }

    /// Digest a pass's records.
    pub fn of<'a>(records: impl IntoIterator<Item = &'a MigrationRecord>) -> Digest {
        let mut d = Digest::empty();
        for r in records {
            d.add(r);
        }
        d
    }

    /// Fold one more record in.
    pub fn add(&mut self, r: &MigrationRecord) {
        self.runs += 1;
        for (sums, e) in [
            (&mut self.source_j, &r.source_energy),
            (&mut self.target_j, &r.target_energy),
        ] {
            for (sum, x) in
                sums.iter_mut()
                    .zip([e.initiation_j, e.transfer_j, e.activation_j, e.rollback_j])
            {
                *sum += x;
            }
        }
        self.total_bytes += r.total_bytes;
        self.downtime_us += r.downtime.as_micros();
        self.rounds += r.rounds.len() as u64;
        self.completed += u64::from(r.outcome == MigrationOutcome::Completed);
    }

    /// Attach the fitted WAVM3 coefficients.
    pub fn with_models(mut self, live: &Wavm3Model, non_live: &Wavm3Model) -> Digest {
        for model in [live, non_live] {
            for host in [&model.source, &model.target] {
                for p in [&host.initiation, &host.transfer, &host.activation] {
                    self.coeffs.extend([
                        p.alpha_cpu_host,
                        p.beta_cpu_vm,
                        p.beta_bw,
                        p.gamma_dr,
                        p.c,
                    ]);
                }
            }
        }
        self
    }

    /// Every way `other` disagrees with `self` beyond tolerance; empty
    /// when they agree.
    pub fn mismatches(&self, other: &Digest) -> Vec<String> {
        let mut out = Vec::new();
        let ints = [
            ("runs", self.runs, other.runs),
            ("total_bytes", self.total_bytes, other.total_bytes),
            ("downtime_us", self.downtime_us, other.downtime_us),
            ("rounds", self.rounds, other.rounds),
            ("completed", self.completed, other.completed),
        ];
        for (name, a, b) in ints {
            if a != b {
                out.push(format!("{name}: expected {a}, got {b}"));
            }
        }
        for (name, a, b, rtol) in [
            ("source_j", &self.source_j, &other.source_j, ENERGY_RTOL),
            ("target_j", &self.target_j, &other.target_j, ENERGY_RTOL),
            ("coeffs", &self.coeffs, &other.coeffs, COEFF_RTOL),
        ] {
            if a.len() != b.len() {
                out.push(format!(
                    "{name}: expected {} values, got {}",
                    a.len(),
                    b.len()
                ));
                continue;
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                if !close(*x, *y, rtol) {
                    out.push(format!("{name}[{i}]: expected {x}, got {y}"));
                }
            }
        }
        out
    }
}

fn close(a: f64, b: f64, rtol: f64) -> bool {
    a == b || (a - b).abs() <= rtol * a.abs().max(b.abs())
}

/// The committed digest for `workload` at `seed`, if one was committed.
///
/// # Panics
///
/// When the embedded `digests.json` is malformed (a repository bug).
pub fn committed(workload: &str, seed: u64) -> Option<Digest> {
    let all: BTreeMap<String, BTreeMap<String, Digest>> =
        serde_json::from_str(COMMITTED_JSON).expect("digests.json is well formed");
    all.get(workload)?.get(&seed.to_string()).cloned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest() -> Digest {
        Digest {
            runs: 2,
            source_j: vec![1.0, 2.0, 3.0, 0.0],
            target_j: vec![1.5, 2.5, 3.5, 0.0],
            total_bytes: 10,
            downtime_us: 5,
            rounds: 3,
            completed: 2,
            coeffs: vec![0.25],
        }
    }

    #[test]
    fn energies_compare_to_tolerance_and_integers_exactly() {
        let a = digest();
        let mut b = digest();
        b.source_j[1] *= 1.0 + 1e-12;
        assert!(a.mismatches(&b).is_empty());
        b.source_j[1] *= 1.0 + 1e-6;
        b.rounds += 1;
        let found = a.mismatches(&b);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().any(|m| m.starts_with("rounds")));
        assert!(found.iter().any(|m| m.starts_with("source_j[1]")));
    }

    #[test]
    fn coefficient_count_must_agree() {
        let mut b = digest();
        b.coeffs.clear();
        assert_eq!(digest().mismatches(&b).len(), 1);
    }

    #[test]
    fn digests_round_trip_through_json() {
        let text = serde_json::to_string(&digest()).unwrap();
        let back: Digest = serde_json::from_str(&text).unwrap();
        assert_eq!(back, digest());
    }

    #[test]
    fn committed_digests_parse() {
        // Unknown workloads and seeds simply have no committed digest.
        assert_eq!(committed("no-such-workload", 7), None);
    }
}
