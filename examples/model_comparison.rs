//! Train WAVM3 and the three baselines on a fresh simulated campaign and
//! print a Table VII-style comparison — the paper's §VII in one command.
//!
//! ```text
//! cargo run --release --example model_comparison
//! ```

use wavm3::cluster::MachineSet;
use wavm3::experiments::tables::{train_all, RUN_SPLIT_SEED, RUN_TRAIN_FRACTION};
use wavm3::experiments::{ExperimentDataset, RepetitionPolicy, RunnerConfig, Scenario};
use wavm3::migration::MigrationKind;
use wavm3::models::evaluation::score_model;
use wavm3::models::{EnergyModel, HostRole};

fn main() {
    // A trimmed campaign (4 repetitions) keeps the example quick while
    // spanning every experiment family; the table targets run the full
    // paper protocol.
    println!("running the CPULOAD/MEMLOAD campaign on m01-m02 ...");
    let cfg = RunnerConfig {
        repetitions: RepetitionPolicy::Fixed(4),
        base_seed: 2015,
        ..Default::default()
    };
    let dataset = ExperimentDataset::collect(Scenario::full_campaign(MachineSet::M), &cfg);
    println!(
        "  {} scenarios, {} migrations simulated",
        dataset.runs.len(),
        dataset.record_count()
    );

    let (train, test) = dataset.split_runs(RUN_TRAIN_FRACTION, RUN_SPLIT_SEED);
    println!("  {} training runs, {} test runs", train.len(), test.len());
    let bundle = train_all(&train).expect("training succeeds on the full campaign");

    println!(
        "\n{:<8} {:<7} {:>14} {:>14}",
        "model", "host", "NRMSE non-live", "NRMSE live"
    );
    let models_nl: [(&str, &dyn EnergyModel); 4] = [
        ("WAVM3", &bundle.wavm3_non_live),
        ("HUANG", &bundle.huang_non_live),
        ("LIU", &bundle.liu_non_live),
        ("STRUNK", &bundle.strunk_non_live),
    ];
    let models_l: [(&str, &dyn EnergyModel); 4] = [
        ("WAVM3", &bundle.wavm3_live),
        ("HUANG", &bundle.huang_live),
        ("LIU", &bundle.liu_live),
        ("STRUNK", &bundle.strunk_live),
    ];
    for ((name, m_nl), (_, m_l)) in models_nl.iter().zip(&models_l) {
        for role in [HostRole::Source, HostRole::Target] {
            let nl = score_model(*m_nl, role, MigrationKind::NonLive, &test)
                .map(|r| r.nrmse_pct())
                .unwrap_or(f64::NAN);
            let l = score_model(*m_l, role, MigrationKind::Live, &test)
                .map(|r| r.nrmse_pct())
                .unwrap_or(f64::NAN);
            println!("{name:<8} {:<7} {nl:>13.1}% {l:>13.1}%", role.label());
        }
    }

    println!("\npaper's shape to check: WAVM3 <= HUANG << LIU/STRUNK on live");
    println!("migration; HUANG competitive on non-live; STRUNK collapsing on");
    println!("live (its memory-size feature is constant across the campaign).");
}
