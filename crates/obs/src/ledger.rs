//! Energy-attribution ledger: per-phase × per-role × per-term joules.
//!
//! The migration simulation knows, at every meter sample, how the host's
//! ground-truth power splits into physical terms (idle floor, dynamic
//! CPU, memory dirtying, NIC, migration service). The ledger collects
//! that split integrated over the paper's phase windows, one entry per
//! simulated migration, so a campaign can answer *where the joules went*
//! rather than only how many were drawn.
//!
//! ## Determinism contract
//!
//! Entries are recorded under the run key of the enclosing
//! [`run_scope`](crate::run_scope) (the same key the trace buffers use)
//! and sorted by that key when the session finishes, so the JSONL
//! artefact is byte-identical across rayon thread counts — the same
//! guarantee the trace stream gives. Numbers are rendered with Rust's
//! shortest round-trip `f64` formatting (non-finite → `null`), matching
//! the trace encoder.

use crate::{json, session};

/// Per-term energy of one phase window on one host, joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TermEnergy {
    /// Static idle floor.
    pub idle_j: f64,
    /// Dynamic CPU power above the idle floor.
    pub cpu_j: f64,
    /// Memory-bus contention from page dirtying.
    pub mem_dirty_j: f64,
    /// NIC power from migration traffic.
    pub network_j: f64,
    /// Migration service machinery.
    pub service_j: f64,
}

impl TermEnergy {
    /// Sum of the terms.
    pub fn total_j(&self) -> f64 {
        self.idle_j + self.cpu_j + self.mem_dirty_j + self.network_j + self.service_j
    }

    /// Element-wise sum.
    pub fn plus(&self, other: &TermEnergy) -> TermEnergy {
        TermEnergy {
            idle_j: self.idle_j + other.idle_j,
            cpu_j: self.cpu_j + other.cpu_j,
            mem_dirty_j: self.mem_dirty_j + other.mem_dirty_j,
            network_j: self.network_j + other.network_j,
            service_j: self.service_j + other.service_j,
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        write_kv(out, "idle_j", self.idle_j);
        out.push(',');
        write_kv(out, "cpu_j", self.cpu_j);
        out.push(',');
        write_kv(out, "mem_dirty_j", self.mem_dirty_j);
        out.push(',');
        write_kv(out, "network_j", self.network_j);
        out.push(',');
        write_kv(out, "service_j", self.service_j);
        out.push('}');
    }
}

/// One host's ledger over a migration: a [`TermEnergy`] per phase
/// window. The windows mirror
/// [`EnergyBreakdown`](../../wavm3_power/phases/struct.EnergyBreakdown.html):
/// aborted runs book the post-abort window under `rollback` and leave
/// `activation` zero.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoleLedger {
    /// `[ms, ts)` — target preparation, connection setup.
    pub initiation: TermEnergy,
    /// `[ts, te)` — state moving over the network.
    pub transfer: TermEnergy,
    /// `[te, me)` on completed runs — resume, cleanup.
    pub activation: TermEnergy,
    /// `[te, me)` on aborted runs — teardown of the failed attempt.
    pub rollback: TermEnergy,
}

impl RoleLedger {
    /// Sum across phases and terms — the host's total migration energy.
    pub fn total_j(&self) -> f64 {
        self.initiation.total_j()
            + self.transfer.total_j()
            + self.activation.total_j()
            + self.rollback.total_j()
    }

    /// Phase label / energy pairs, in timeline order.
    pub fn phases(&self) -> [(&'static str, TermEnergy); 4] {
        [
            ("initiation", self.initiation),
            ("transfer", self.transfer),
            ("activation", self.activation),
            ("rollback", self.rollback),
        ]
    }

    fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, (label, term)) in self.phases().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(label);
            out.push_str("\":");
            term.write_json(out);
        }
        out.push(',');
        write_kv(out, "total_j", self.total_j());
        out.push('}');
    }
}

/// One migration's attribution entry: both hosts' per-phase term splits.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerEntry {
    /// Migration kind label (`live` / `non-live`).
    pub kind: &'static str,
    /// `completed` or `aborted`.
    pub outcome: &'static str,
    /// Source-host attribution.
    pub source: RoleLedger,
    /// Target-host attribution.
    pub target: RoleLedger,
}

impl LedgerEntry {
    /// Source + target total, joules.
    pub fn total_j(&self) -> f64 {
        self.source.total_j() + self.target.total_j()
    }

    /// One deterministic JSONL line (fixed key order, shortest
    /// round-trip floats, no whitespace). `run` is the run key the entry
    /// was recorded under.
    pub fn to_jsonl(&self, run: &str) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\"run\":");
        json::write_str(&mut out, run);
        out.push_str(",\"kind\":");
        json::write_str(&mut out, self.kind);
        out.push_str(",\"outcome\":");
        json::write_str(&mut out, self.outcome);
        out.push_str(",\"source\":");
        self.source.write_json(&mut out);
        out.push_str(",\"target\":");
        self.target.write_json(&mut out);
        out.push(',');
        write_kv(&mut out, "total_j", self.total_j());
        out.push('}');
        out
    }
}

fn write_kv(out: &mut String, key: &str, value: f64) {
    json::write_str(out, key);
    out.push(':');
    json::write_f64(out, value);
}

/// `true` when an installed session is collecting ledger entries. The
/// simulation consults this once per run before doing any per-sample
/// attribution work.
#[inline]
pub fn ledger_active() -> bool {
    session::ledger_active()
}

/// Record one migration's attribution under the innermost
/// [`run_scope`](crate::run_scope) key (root key when none is open).
/// No-op without a ledger session.
///
/// Inside a run scope the entry is buffered thread-locally and flushed
/// with the scope — one session-lock acquisition per run instead of one
/// per entry.
pub fn record(entry: LedgerEntry) {
    if !session::ledger_active() {
        return;
    }
    if let Some(entry) = crate::trace::buffer_ledger_entry(entry) {
        session::push_ledger_entry(String::new(), entry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn term(scale: f64) -> TermEnergy {
        TermEnergy {
            idle_j: 100.0 * scale,
            cpu_j: 40.0 * scale,
            mem_dirty_j: 10.0 * scale,
            network_j: 8.0 * scale,
            service_j: 2.0 * scale,
        }
    }

    #[test]
    fn totals_add_up() {
        let role = RoleLedger {
            initiation: term(1.0),
            transfer: term(10.0),
            activation: term(0.5),
            rollback: TermEnergy::default(),
        };
        assert!((role.total_j() - 160.0 * 11.5).abs() < 1e-9);
        let entry = LedgerEntry {
            kind: "live",
            outcome: "completed",
            source: role,
            target: role,
        };
        assert!((entry.total_j() - 2.0 * role.total_j()).abs() < 1e-9);
    }

    #[test]
    fn jsonl_is_fixed_order_and_compact() {
        let entry = LedgerEntry {
            kind: "live",
            outcome: "completed",
            source: RoleLedger {
                transfer: term(1.0),
                ..RoleLedger::default()
            },
            target: RoleLedger::default(),
        };
        let line = entry.to_jsonl("cpuload-src|rep000|att0");
        assert!(line.starts_with("{\"run\":\"cpuload-src|rep000|att0\",\"kind\":\"live\""));
        assert!(line.contains("\"outcome\":\"completed\""));
        // Fixed phase order inside a role object.
        let src = line.find("\"source\":").unwrap();
        let ini = line[src..].find("\"initiation\"").unwrap();
        let tra = line[src..].find("\"transfer\"").unwrap();
        let act = line[src..].find("\"activation\"").unwrap();
        let rb = line[src..].find("\"rollback\"").unwrap();
        assert!(ini < tra && tra < act && act < rb);
        assert!(!line.contains(' '), "compact encoding has no spaces");
        assert!(line.contains("\"total_j\":160"));
    }

    #[test]
    fn ledger_entries_sort_by_run_key_and_skip_empty_trace_buffers() {
        use crate::session::{ObsConfig, Session};
        let session = Session::install(ObsConfig {
            ledger: true,
            ..ObsConfig::default()
        });
        let entry = |scale: f64| LedgerEntry {
            kind: "live",
            outcome: "completed",
            source: RoleLedger {
                transfer: term(scale),
                ..RoleLedger::default()
            },
            target: RoleLedger::default(),
        };
        crate::run_scope("z|rep001|att0".into(), || record(entry(2.0)));
        crate::run_scope("a|rep000|att0".into(), || record(entry(1.0)));
        let report = session.finish();
        let keys: Vec<&str> = report.ledger.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["a|rep000|att0", "z|rep001|att0"]);
        // Ledger-only scopes must not pad the trace with empty buffers.
        assert!(report.events.is_empty());
        assert_eq!(report.ledger_jsonl().lines().count(), 2);
    }

    #[test]
    fn record_without_a_session_is_inert() {
        let _guard = crate::session::lock_for_tests();
        assert!(!ledger_active());
        record(LedgerEntry {
            kind: "live",
            outcome: "completed",
            source: RoleLedger::default(),
            target: RoleLedger::default(),
        });
    }

    #[test]
    fn non_finite_values_encode_as_null() {
        let entry = LedgerEntry {
            kind: "live",
            outcome: "completed",
            source: RoleLedger {
                transfer: TermEnergy {
                    idle_j: f64::NAN,
                    ..TermEnergy::default()
                },
                ..RoleLedger::default()
            },
            target: RoleLedger::default(),
        };
        assert!(entry.to_jsonl("k").contains("\"idle_j\":null"));
    }
}
