//! Ablation study: which of WAVM3's ingredients buys how much accuracy?
//!
//! DESIGN.md calls out the model's design choices — per-phase structure
//! and the four workload features. Each variant below *retrains* the model
//! with one ingredient removed (see [`FeatureMask`]) and scores it on the
//! same test runs, quantifying the paper's implicit claims:
//!
//! * dropping `DR` / `CPU(v)` recreates HUANG's blind spot on live
//!   migrations of memory-hot guests;
//! * dropping `BW` loses the multiplexing cases (paper §VII-A);
//! * collapsing the phases loses the service constants that differ per
//!   phase and host role.

use crate::dataset::ExperimentDataset;
use crate::tables::{RUN_SPLIT_SEED, RUN_TRAIN_FRACTION};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use wavm3_migration::MigrationKind;
use wavm3_models::evaluation::score_model;
use wavm3_models::{train_wavm3_masked, FeatureMask, HostRole, ReadingSplit};

/// The ablation grid, in presentation order.
pub fn variants() -> Vec<FeatureMask> {
    let full = FeatureMask::default();
    vec![
        full,
        FeatureMask {
            dirty_ratio: false,
            ..full
        },
        FeatureMask {
            cpu_vm: false,
            ..full
        },
        FeatureMask {
            bandwidth: false,
            ..full
        },
        FeatureMask {
            cpu_host: false,
            ..full
        },
        FeatureMask {
            per_phase: false,
            ..full
        },
        // The HUANG shape, re-derived: host CPU only, no phase structure.
        FeatureMask {
            cpu_vm: false,
            bandwidth: false,
            dirty_ratio: false,
            per_phase: false,
            ..full
        },
    ]
}

/// One scored ablation variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Variant label ("full", "-DR", …).
    pub label: String,
    /// Live-migration NRMSE on the source host, percent.
    pub source_live_pct: f64,
    /// Live-migration NRMSE on the target host, percent.
    pub target_live_pct: f64,
}

/// Run the ablation on a campaign dataset (live migrations).
pub fn run_ablation(dataset: &ExperimentDataset) -> Option<Vec<AblationRow>> {
    let (train, test) = dataset.split_runs(RUN_TRAIN_FRACTION, RUN_SPLIT_SEED);
    let split = ReadingSplit::default();
    let mut rows = Vec::new();
    for mask in variants() {
        let model = train_wavm3_masked(&train, MigrationKind::Live, &split, &mask)?;
        let score = |role| {
            score_model(&model, role, MigrationKind::Live, &test)
                .map(|r| r.nrmse_pct())
                .unwrap_or(f64::NAN)
        };
        rows.push(AblationRow {
            label: mask.label(),
            source_live_pct: score(HostRole::Source),
            target_live_pct: score(HostRole::Target),
        });
    }
    Some(rows)
}

/// Render the ablation table.
pub fn render(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ABLATION: WAVM3 ingredients vs live-migration NRMSE");
    let _ = writeln!(
        out,
        "{:<28} {:>14} {:>14}",
        "variant", "source live", "target live"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>13.1}% {:>13.1}%",
            r.label, r.source_live_pct, r.target_live_pct
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RepetitionPolicy, RunnerConfig};
    use crate::scenario::{ExperimentFamily, Scenario};
    use wavm3_cluster::MachineSet;

    fn dataset() -> ExperimentDataset {
        let mut scenarios = Vec::new();
        for fam in [
            ExperimentFamily::CpuloadSource,
            ExperimentFamily::MemloadVm,
            ExperimentFamily::MemloadSource,
        ] {
            let mut all = Scenario::family_scenarios(fam, MachineSet::M);
            all.retain(|s| matches!(s.label.as_str(), "0 VM" | "8 VM" | "5%" | "95%"));
            scenarios.extend(all);
        }
        ExperimentDataset::collect(
            scenarios,
            &RunnerConfig {
                repetitions: RepetitionPolicy::Fixed(3),
                base_seed: 17,
                ..Default::default()
            },
        )
    }

    #[test]
    fn ablation_orders_ingredients_sensibly() {
        let ds = dataset();
        let rows = run_ablation(&ds).expect("training succeeds");
        assert_eq!(rows.len(), variants().len());
        let get = |label: &str| {
            rows.iter()
                .find(|r| r.label == label)
                .unwrap_or_else(|| panic!("missing variant {label}"))
        };
        let full = get("full");
        // Removing the host-CPU term must hurt the most on this CPU-heavy
        // campaign.
        assert!(
            get("-CPU(h)").source_live_pct > full.source_live_pct * 1.5,
            "-CPU(h) {:.1}% vs full {:.1}%",
            get("-CPU(h)").source_live_pct,
            full.source_live_pct
        );
        // The HUANG-shaped variant is not meaningfully better than the
        // full model. On this reduced 3-rep campaign the variants sit
        // within sampling noise of each other (a simpler model can edge
        // out the full one by a few tenths of a percent on a lucky
        // draw), so allow that noise band rather than strict dominance.
        let huang_shape = get("-CPU(v) -BW -DR -phases");
        assert!(
            huang_shape.source_live_pct >= full.source_live_pct * 0.85,
            "huang-shape {:.3}% vs full {:.3}%",
            huang_shape.source_live_pct,
            full.source_live_pct
        );
        // Every variant produced finite scores.
        for r in &rows {
            assert!(r.source_live_pct.is_finite(), "{}", r.label);
            assert!(r.target_live_pct.is_finite(), "{}", r.label);
        }
        let table = render(&rows);
        assert!(table.contains("ABLATION"));
        assert!(table.contains("-DR"));
    }
}
