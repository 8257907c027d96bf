//! Quickstart: simulate one live migration, inspect its energy phases, and
//! compare the measurement against WAVM3's prediction.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use wavm3::cluster::MachineSet;
use wavm3::experiments::{ExperimentFamily, Scenario};
use wavm3::migration::MigrationKind;
use wavm3::models::{paper, EnergyModel, HostRole};
use wavm3::power::MigrationPhase;
use wavm3::simkit::RngFactory;

fn main() {
    // 1. Describe the scenario: migrate a 4 GiB CPU-loaded VM between two
    //    idle Opteron hosts over a gigabit link (the paper's baseline).
    let scenario = Scenario {
        family: ExperimentFamily::CpuloadSource,
        kind: MigrationKind::Live,
        machine_set: MachineSet::M,
        source_load_vms: 0,
        target_load_vms: 0,
        migrant_mem_ratio: None,
        label: "quickstart".into(),
    };

    // 2. Run it. The record carries everything a testbed run would:
    //    2 Hz meter traces, phase instants, per-round transfer stats.
    let record = scenario.build(RngFactory::new(42)).run();

    println!("== migration timeline ==");
    println!(
        "initiation {:>6.1}s   transfer {:>6.1}s   activation {:>5.1}s",
        record.phases.initiation().as_secs_f64(),
        record.phases.transfer().as_secs_f64(),
        record.phases.activation().as_secs_f64(),
    );
    println!(
        "moved {:.2} GiB in {} pre-copy round(s) + stop-and-copy, downtime {:.2}s",
        record.total_bytes as f64 / (1u64 << 30) as f64,
        record.precopy_rounds(),
        record.downtime.as_secs_f64(),
    );

    println!("\n== measured energy (source host) ==");
    println!(
        "E(i) {:>8.1} J   E(t) {:>9.1} J   E(a) {:>8.1} J   total {:>9.1} J",
        record.source_energy.initiation_j,
        record.source_energy.transfer_j,
        record.source_energy.activation_j,
        record.source_energy.total_j(),
    );

    // 3. Predict the same energy with the paper's published coefficients
    //    (Table IV) and with per-phase detail.
    let model = paper::wavm3_live();
    println!("\n== WAVM3 prediction (paper Table IV coefficients) ==");
    for role in [HostRole::Source, HostRole::Target] {
        let pred = model.predict_energy(role, &record);
        let obs = match role {
            HostRole::Source => record.source_energy.total_j(),
            HostRole::Target => record.target_energy.total_j(),
        };
        println!(
            "{:<7} predicted {:>9.1} J   measured {:>9.1} J   error {:>5.1}%",
            role.label(),
            pred,
            obs,
            100.0 * (pred - obs).abs() / obs,
        );
    }
    let e_transfer =
        model.predict_phase_energy(HostRole::Source, &record, MigrationPhase::Transfer);
    println!(
        "transfer phase alone: predicted {:.1} J vs measured {:.1} J",
        e_transfer, record.source_energy.transfer_j
    );

    println!("\n(Published coefficients come from the authors' physical testbed;");
    println!(" run `cargo run -p wavm3-experiments -- table4` to fit fresh");
    println!(" coefficients on this simulator instead.)");
}
