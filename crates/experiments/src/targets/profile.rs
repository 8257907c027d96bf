//! Profile the baseline Table IIa campaign with the hierarchical
//! self-profiler and report where the wall time goes.
//!
//! The campaign runs on a single rayon thread so the call tree's
//! self-times are directly comparable to the process wall clock (on N
//! threads the tree sums CPU time across workers and can exceed wall).
//! Output:
//!
//! * a top-N hotspot table on stdout (self time, µs per migration run,
//!   cumulative time, worst single timing),
//! * `profile.json` / `trace.json` / `flame.folded` in the profile
//!   directory (`--profile-out DIR`, default `OUT/profile`),
//! * `summary.json` next to them with the wall/self-coverage numbers the
//!   CI budget gate reads.
//!
//! Shares the common experiment flags; `--reps 2 --seed 7` reproduces
//! the CI profile run.

use std::process::ExitCode;
use std::time::Instant;
use wavm3_cluster::MachineSet;
use wavm3_experiments::campaign::Campaign;
use wavm3_experiments::cli::{self, EXIT_USAGE};
use wavm3_experiments::{export, tables};
use wavm3_harness::Wavm3Error;
use wavm3_obs::{ObsConfig, Session};

/// Hotspot rows printed to stdout.
const TOP_N: usize = 14;

#[derive(serde::Serialize)]
struct ProfileSummary {
    /// Process wall time of the campaign body, milliseconds.
    wall_ms: f64,
    /// Sum of self time over the whole call tree, milliseconds.
    self_sum_ms: f64,
    /// `self_sum_ms / wall_ms` as a percentage — how much of the wall
    /// clock the profiler accounted for.
    coverage_pct: f64,
    /// Profiled migration runs (`migration.run.*` node counts).
    runs: u64,
}

pub fn main(args: Vec<String>) -> ExitCode {
    let opts = cli::parse_from(args.into_iter());
    let campaign = match Campaign::new(opts.runner, opts.supervisor.clone()) {
        Ok(campaign) => campaign,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };

    // Arm the profiler regardless of --profile-out; keep whatever other
    // sinks the shared flags requested.
    let mut cfg: ObsConfig = opts.obs.session_config();
    cfg.profiling = true;
    let session = Session::install(cfg);

    let started = Instant::now();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool");
    let dataset = pool.install(|| tables::run_campaign(MachineSet::M, &campaign));
    let wall = started.elapsed();

    let report = session.finish();
    let perf = &report.perf;
    let runs = perf.count_of("migration.run.analytic") + perf.count_of("migration.run.sampled");
    let wall_ms = wall.as_secs_f64() * 1e3;
    let self_sum_ms = perf.self_total_ns() as f64 / 1e6;
    let coverage_pct = if wall_ms > 0.0 {
        100.0 * self_sum_ms / wall_ms
    } else {
        0.0
    };

    println!(
        "campaign: {} scenarios, {} migrations, {} profiled runs, {:.1} ms wall",
        dataset.runs.len(),
        dataset.record_count(),
        runs,
        wall_ms
    );
    println!(
        "profiler coverage: {:.1} ms self time = {:.1}% of wall",
        self_sum_ms, coverage_pct
    );
    println!();
    println!(
        "{:<52} {:>8} {:>10} {:>10} {:>10} {:>9}",
        "hotspot (self-time order)", "count", "self_ms", "us/run", "total_ms", "max_ms"
    );
    for h in perf.hotspots().into_iter().take(TOP_N) {
        let per_run_us = if runs > 0 {
            h.self_ns as f64 / 1e3 / runs as f64
        } else {
            0.0
        };
        println!(
            "{:<52} {:>8} {:>10.2} {:>10.2} {:>10.2} {:>9.3}",
            h.path,
            h.count,
            h.self_ns as f64 / 1e6,
            per_run_us,
            h.total_ns as f64 / 1e6,
            h.max_ns as f64 / 1e6,
        );
    }
    if !perf.counters.is_empty() {
        println!();
        println!("{:<52} {:>8}", "counter", "value");
        for (name, value) in &perf.counters {
            println!("{name:<52} {value:>8}");
        }
    }

    let dir = opts
        .obs
        .profile_out
        .clone()
        .unwrap_or_else(|| opts.out_dir.join("profile"));
    let written: Result<(), Wavm3Error> = (|| {
        cli::write_profile_exports(&dir, &report)?;
        let summary = ProfileSummary {
            wall_ms,
            self_sum_ms,
            coverage_pct,
            runs,
        };
        let json = serde_json::to_string_pretty(&summary)
            .map_err(|e| Wavm3Error::serde("profile summary", e))?;
        export::write_file(&dir.join("summary.json"), &json)?;
        Ok(())
    })();
    match written {
        Ok(()) => {
            println!();
            println!(
                "wrote {p}/profile.json, {p}/trace.json, {p}/flame.folded, {p}/summary.json",
                p = dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
