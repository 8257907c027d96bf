//! Per-phase prediction fidelity (extension): WAVM3's predicted initiation
//! / transfer / activation energies against the measured ones, per host
//! role — the phase-resolved view behind the paper's aggregate NRMSE.

use wavm3_cluster::MachineSet;
use wavm3_experiments::campaign::Campaign;
use wavm3_experiments::cli::CliOptions;
use wavm3_experiments::tables;
use wavm3_experiments::tables::{RUN_SPLIT_SEED, RUN_TRAIN_FRACTION};
use wavm3_harness::Wavm3Error;
use wavm3_migration::MigrationKind;
use wavm3_models::{train_wavm3, HostRole, ReadingSplit};
use wavm3_power::MigrationPhase;

pub fn body(_opts: &CliOptions, campaign: &Campaign) -> Result<(), Wavm3Error> {
    let dataset = tables::run_campaign(MachineSet::M, campaign);
    let (train, test) = dataset.split_runs(RUN_TRAIN_FRACTION, RUN_SPLIT_SEED);
    let model = train_wavm3(&train, MigrationKind::Live, &ReadingSplit::default())
        .ok_or_else(|| Wavm3Error::training("phases"))?;

    println!("PER-PHASE FIDELITY: WAVM3 predicted vs measured energy (live, test runs)");
    println!(
        "{:<7} {:<11} {:>14} {:>14} {:>9}",
        "host", "phase", "predicted", "measured", "error"
    );
    let live_test: Vec<_> = test
        .iter()
        .filter(|r| r.kind == MigrationKind::Live)
        .collect();
    for role in HostRole::ALL {
        for phase in [
            MigrationPhase::Initiation,
            MigrationPhase::Transfer,
            MigrationPhase::Activation,
        ] {
            let mut pred = 0.0;
            let mut obs = 0.0;
            for r in &live_test {
                pred += model.predict_phase_energy(role, r, phase);
                let e = match role {
                    HostRole::Source => &r.source_energy,
                    HostRole::Target => &r.target_energy,
                };
                obs += match phase {
                    MigrationPhase::Initiation => e.initiation_j,
                    MigrationPhase::Transfer => e.transfer_j,
                    MigrationPhase::Activation => e.activation_j,
                    MigrationPhase::NormalExecution => 0.0,
                };
            }
            let n = live_test.len() as f64;
            println!(
                "{:<7} {:<11} {:>11.2} kJ {:>11.2} kJ {:>8.1}%",
                role.label(),
                phase.label(),
                pred / n / 1e3,
                obs / n / 1e3,
                100.0 * (pred - obs).abs() / obs.max(1.0)
            );
        }
    }
    Ok(())
}
