//! # wavm3-experiments — the paper's experimental campaign
//!
//! Encodes the experiment design of Table IIa (the CPULOAD and MEMLOAD
//! families), runs it against the simulator with the paper's repetition
//! protocol (≥10 runs, stop when run-variance change < 10 %), assembles
//! datasets, and regenerates **every table and figure** of the evaluation:
//!
//! | target | what it regenerates or runs |
//! |---|---|
//! | `table1` | Table I: workload impact, with measured evidence |
//! | `table2` | Table II: experimental setup |
//! | `table3` | Table III: WAVM3 coefficients, non-live |
//! | `table4` | Table IV: WAVM3 coefficients, live |
//! | `table5` | Table V: WAVM3 NRMSE on both machine sets |
//! | `table6` | Table VI: baseline training coefficients |
//! | `table7` | Table VII: model comparison |
//! | `fig1` | Fig. 1: the migration's actors and where each is implemented |
//! | `fig2` | Fig. 2: phase-annotated power traces |
//! | `fig3` | Fig. 3: CPULOAD-SOURCE |
//! | `fig4` | Fig. 4: CPULOAD-TARGET |
//! | `fig5` | Fig. 5: MEMLOAD-VM |
//! | `fig6` | Fig. 6: MEMLOAD-SOURCE |
//! | `fig7` | Fig. 7: MEMLOAD-TARGET |
//! | `reproduce_all` | Tables I-VII and Figs. 2-7 at once, under OUT/summaries and OUT/fig*.csv |
//! | `netload` | NETLOAD extension: live migration next to a network-intensive guest |
//! | `ablation` | ablation study: retrain WAVM3 with each ingredient removed |
//! | `mechanisms` | mechanism comparison: non-live vs live pre-copy vs post-copy |
//! | `phases` | per-phase prediction fidelity of WAVM3 |
//! | `sensitivity` | training-fraction sensitivity of WAVM3 |
//! | `robustness` | seed robustness of Table VII's orderings (exit 1 if one fails) |
//! | `campaign` | Table IIa campaign on both machine sets, exported as JSON and CSV |
//! | `profile` | self-profile the m01-m02 campaign on one thread |
//! | `regress` | gate a --metrics-out snapshot against a committed baseline |
//!
//! The crate's one binary, `wavm3-experiments`, runs them: its first
//! argument names the target (`cargo run --release -p wavm3-experiments
//! -- table7`), and `--help` lists them. Every target but `regress`
//! accepts `--reps N` (fixed repetitions) and `--seed S`; the
//! default follows the paper's variance-rule protocol. The crash-safety
//! flags `--checkpoint-dir DIR` and `--resume` journal per-scenario
//! results through `wavm3-harness` and reload them on restart, and
//! `--wall-budget-s` / `--sim-budget-s` bound each scenario's runtime.

pub mod ablation;
pub mod campaign;
pub mod cli;
pub mod dataset;
pub mod export;
pub mod figures;
pub mod netload;
pub mod regress;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod tables;

pub use campaign::{Campaign, CampaignReport, CampaignStats, SupervisorOptions};
pub use dataset::{mean_trace, ExperimentDataset, ScenarioRuns};
pub use regress::{compare, RegressionReport, Tolerances, Verdict};
pub use report::render_campaign_html;
pub use runner::{
    run_all, run_scenario, run_scenario_supervised, throughput_gauge, RepetitionPolicy,
    RunnerConfig, ScenarioFailure, ScenarioResult,
};
pub use scenario::{ExperimentFamily, Scenario, DR_LEVELS_PCT, LOAD_VM_LEVELS};
