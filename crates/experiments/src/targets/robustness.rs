//! Seed-robustness check (extension): do the paper's comparison orderings
//! hold regardless of the campaign seed? Runs the full pipeline under
//! several independent seeds and reports which of Table VII's claims
//! survive each time.

use wavm3_cluster::MachineSet;
use wavm3_experiments::campaign::Campaign;
use wavm3_experiments::cli::CliOptions;
use wavm3_experiments::tables::{train_all, RUN_SPLIT_SEED, RUN_TRAIN_FRACTION};
use wavm3_experiments::{tables, RunnerConfig};
use wavm3_harness::Wavm3Error;
use wavm3_migration::MigrationKind;
use wavm3_models::evaluation::score_model;
use wavm3_models::HostRole;

pub fn body(opts: &CliOptions, campaign: &Campaign) -> Result<(), Wavm3Error> {
    let seeds = [opts.runner.base_seed, 0xA11CE, 0xB0B5, 0xCAFE];
    println!(
        "ROBUSTNESS: Table VII orderings across {} campaign seeds",
        seeds.len()
    );
    println!(
        "{:>12} {:>18} {:>18} {:>20} {:>16}",
        "seed", "WAVM3<=HUANG(l)", "LIU>>WAVM3(l)", "STRUNK degrades l", "HUANG ok (nl)"
    );
    let mut all_hold = true;
    for seed in seeds {
        let seeded = campaign.with_runner(RunnerConfig {
            base_seed: seed,
            ..opts.runner
        });
        let dataset = tables::run_campaign(MachineSet::M, &seeded);
        let (train, test) = dataset.split_runs(RUN_TRAIN_FRACTION, RUN_SPLIT_SEED);
        let Some(bundle) = train_all(&train) else {
            println!("{seed:>12x}  training failed");
            all_hold = false;
            continue;
        };
        let nrmse = |m: &dyn wavm3_models::EnergyModel, role, kind| {
            score_model(m, role, kind, &test)
                .map(|r| r.nrmse_pct())
                .unwrap_or(f64::NAN)
        };
        let w_l = nrmse(&bundle.wavm3_live, HostRole::Source, MigrationKind::Live);
        let h_l = nrmse(&bundle.huang_live, HostRole::Source, MigrationKind::Live);
        let l_l = nrmse(&bundle.liu_live, HostRole::Source, MigrationKind::Live);
        let s_l = nrmse(&bundle.strunk_live, HostRole::Source, MigrationKind::Live);
        let s_nl = nrmse(
            &bundle.strunk_non_live,
            HostRole::Source,
            MigrationKind::NonLive,
        );
        let w_nl = nrmse(
            &bundle.wavm3_non_live,
            HostRole::Source,
            MigrationKind::NonLive,
        );
        let h_nl = nrmse(
            &bundle.huang_non_live,
            HostRole::Source,
            MigrationKind::NonLive,
        );

        let c1 = w_l <= h_l * 1.10;
        let c2 = l_l > 2.0 * w_l;
        let c3 = s_l > s_nl;
        let c4 = h_nl < w_nl * 1.8;
        all_hold &= c1 && c2 && c3 && c4;
        let mark = |b: bool| if b { "yes" } else { "NO" };
        println!(
            "{seed:>12x} {:>18} {:>18} {:>20} {:>16}",
            mark(c1),
            mark(c2),
            mark(c3),
            mark(c4)
        );
    }
    println!();
    if !all_hold {
        println!("WARNING: at least one ordering failed under some seed");
        return Err(Wavm3Error::check_failed(
            "at least one Table VII ordering failed under some seed",
        ));
    }
    println!("all orderings hold under every seed");
    Ok(())
}
