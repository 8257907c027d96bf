//! `wavm3-experiments` — regenerate the paper's tables and figures and
//! run the reproduction's extensions. The first argument names the
//! target, the rest are its flags:
//!
//! ```text
//! cargo run --release -p wavm3-experiments -- table7 --reps 2 --seed 7
//! cargo run --release -p wavm3-experiments -- --help    # list the targets
//! ```
//!
//! Every target lives in [`TARGETS`], once. Most share the flags and exit
//! codes of [`cli::run`]; `profile` and `regress` parse their own. A
//! missing or unknown target exits 2. `reproduce_all` walks the table, so
//! it lives here, next to `fig1` and `campaign`; the other long bodies are
//! in `src/targets/`, which only this binary compiles.

use std::cell::OnceCell;
use std::process::ExitCode;
use wavm3_cluster::MachineSet;
use wavm3_experiments::campaign::Campaign;
use wavm3_experiments::cli::{self, CliOptions, EXIT_USAGE};
use wavm3_experiments::figures::{self, FigureOutput};
use wavm3_experiments::{ablation, export, netload, tables, ExperimentDataset};
use wavm3_harness::Wavm3Error;
use wavm3_migration::MigrationKind;

mod targets {
    pub mod mechanisms;
    pub mod phases;
    pub mod profile;
    pub mod regress;
    pub mod robustness;
    pub mod sensitivity;
}
use targets::{mechanisms, phases, profile, regress, robustness, sensitivity};

/// One target: the name that selects it, the line `--help` prints for
/// it, and its body.
struct Target {
    name: &'static str,
    about: &'static str,
    body: Body,
}

enum Body {
    /// A paper table or figure; `None` when model training failed.
    /// `reproduce_all` renders every one of these, in table order, from
    /// one pair of datasets.
    Paper(fn(&Inputs) -> Option<Artefact>),
    /// Any other target run through [`cli::run`].
    Run(fn(&CliOptions, &Campaign) -> Result<(), Wavm3Error>),
    /// A target with flags and exit codes of its own.
    Main(fn(Vec<String>) -> ExitCode),
}
use Body::{Main, Paper, Run};

/// What a paper target renders.
enum Artefact {
    Table(String),
    Figure(FigureOutput),
}
use Artefact::{Figure, Table};

/// A paper target's inputs: the campaign and the datasets of its two
/// machine sets, each run on first use.
struct Inputs<'a> {
    campaign: &'a Campaign,
    m: OnceCell<ExperimentDataset>,
    o: OnceCell<ExperimentDataset>,
}

impl<'a> Inputs<'a> {
    fn new(campaign: &'a Campaign) -> Self {
        Inputs {
            campaign,
            m: OnceCell::new(),
            o: OnceCell::new(),
        }
    }

    fn m(&self) -> &ExperimentDataset {
        self.m
            .get_or_init(|| tables::run_campaign(MachineSet::M, self.campaign))
    }

    fn o(&self) -> &ExperimentDataset {
        self.o
            .get_or_init(|| tables::run_campaign(MachineSet::O, self.campaign))
    }
}

const TARGETS: &[Target] = &[
    Target {
        name: "table1",
        about: "Table I: workload impact, with measured evidence",
        body: Paper(|d| Some(Table(tables::table1(d.m())))),
    },
    Target {
        name: "table2",
        about: "Table II: experimental setup",
        body: Paper(|_| Some(Table(tables::table2()))),
    },
    Target {
        name: "table3",
        about: "Table III: WAVM3 coefficients, non-live",
        body: Paper(|d| tables::table3_4(d.m(), MigrationKind::NonLive).map(Table)),
    },
    Target {
        name: "table4",
        about: "Table IV: WAVM3 coefficients, live",
        body: Paper(|d| tables::table3_4(d.m(), MigrationKind::Live).map(Table)),
    },
    Target {
        name: "table5",
        about: "Table V: WAVM3 NRMSE on both machine sets",
        body: Paper(|d| tables::table5(d.m(), d.o()).map(Table)),
    },
    Target {
        name: "table6",
        about: "Table VI: baseline training coefficients",
        body: Paper(|d| tables::table6(d.m()).map(Table)),
    },
    Target {
        name: "table7",
        about: "Table VII: model comparison",
        body: Paper(|d| tables::table7(d.m()).map(Table)),
    },
    Target {
        name: "fig1",
        about: "Fig. 1: the migration's actors and where each is implemented",
        body: Run(fig1),
    },
    Target {
        name: "fig2",
        about: "Fig. 2: phase-annotated power traces",
        body: Paper(|d| Some(Figure(figures::fig2(d.campaign)))),
    },
    Target {
        name: "fig3",
        about: "Fig. 3: CPULOAD-SOURCE",
        body: Paper(|d| Some(Figure(figures::fig3(d.campaign)))),
    },
    Target {
        name: "fig4",
        about: "Fig. 4: CPULOAD-TARGET",
        body: Paper(|d| Some(Figure(figures::fig4(d.campaign)))),
    },
    Target {
        name: "fig5",
        about: "Fig. 5: MEMLOAD-VM",
        body: Paper(|d| Some(Figure(figures::fig5(d.campaign)))),
    },
    Target {
        name: "fig6",
        about: "Fig. 6: MEMLOAD-SOURCE",
        body: Paper(|d| Some(Figure(figures::fig6(d.campaign)))),
    },
    Target {
        name: "fig7",
        about: "Fig. 7: MEMLOAD-TARGET",
        body: Paper(|d| Some(Figure(figures::fig7(d.campaign)))),
    },
    Target {
        name: "reproduce_all",
        about: "Tables I-VII and Figs. 2-7 at once, under OUT/summaries and OUT/fig*.csv",
        body: Run(reproduce_all),
    },
    Target {
        name: "netload",
        about: "NETLOAD extension: live migration next to a network-intensive guest",
        body: Run(|opts, _campaign| {
            let points = netload::run_netload_sweep(&opts.runner)?;
            print!("{}", netload::render(&points));
            Ok(())
        }),
    },
    Target {
        name: "ablation",
        about: "ablation study: retrain WAVM3 with each ingredient removed",
        body: Run(|_opts, campaign| {
            let dataset = tables::run_campaign(MachineSet::M, campaign);
            let rows =
                ablation::run_ablation(&dataset).ok_or_else(|| Wavm3Error::training("ablation"))?;
            print!("{}", ablation::render(&rows));
            Ok(())
        }),
    },
    Target {
        name: "mechanisms",
        about: "mechanism comparison: non-live vs live pre-copy vs post-copy",
        body: Run(mechanisms::body),
    },
    Target {
        name: "phases",
        about: "per-phase prediction fidelity of WAVM3",
        body: Run(phases::body),
    },
    Target {
        name: "sensitivity",
        about: "training-fraction sensitivity of WAVM3",
        body: Run(sensitivity::body),
    },
    Target {
        name: "robustness",
        about: "seed robustness of Table VII's orderings (exit 1 if one fails)",
        body: Run(robustness::body),
    },
    Target {
        name: "campaign",
        about: "Table IIa campaign on both machine sets, exported as JSON and CSV",
        body: Run(export_datasets),
    },
    Target {
        name: "profile",
        about: "self-profile the m01-m02 campaign on one thread",
        body: Main(profile::main),
    },
    Target {
        name: "regress",
        about: "gate a --metrics-out snapshot against a committed baseline",
        body: Main(regress::main),
    },
];

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    if name == "--help" || name == "-h" {
        print!("{}", listing());
        return ExitCode::SUCCESS;
    }
    let Some(target) = TARGETS.iter().find(|t| t.name == name) else {
        if name.is_empty() {
            eprintln!("error: no target given");
        } else {
            eprintln!("error: unknown target '{name}'");
        }
        eprint!("{}", listing());
        return ExitCode::from(EXIT_USAGE);
    };
    let args = args.collect::<Vec<_>>();
    match target.body {
        Paper(render) => cli::run(args.into_iter(), |opts, campaign| {
            let artefact = render(&Inputs::new(campaign));
            match artefact.ok_or_else(|| Wavm3Error::training(target.name))? {
                Table(text) => {
                    print!("{text}");
                    Ok(())
                }
                Figure(fig) => cli::emit_figure(opts, &fig),
            }
        }),
        Run(body) => cli::run(args.into_iter(), body),
        Main(main) => main(args),
    }
}

/// The usage line and one line per target.
fn listing() -> String {
    let mut text = String::from(
        "usage: wavm3-experiments <target> [flags]  (`<target> --help` lists its flags)\n\ntargets:\n",
    );
    for t in TARGETS {
        text.push_str(&format!("  {:<14} {}\n", t.name, t.about));
    }
    text
}

/// Regenerate every table and figure of the paper in one go, writing
/// summaries and CSV series under the output directory. With
/// `--checkpoint-dir DIR` each scenario's results are journaled as they
/// complete, and `--resume` restarts an interrupted reproduction from the
/// verified checkpoints instead of recomputing the finished scenarios.
fn reproduce_all(opts: &CliOptions, campaign: &Campaign) -> Result<(), Wavm3Error> {
    let out = &opts.out_dir;
    let save = |name: &str, content: &str| -> Result<(), Wavm3Error> {
        export::write_file(&out.join("summaries").join(format!("{name}.txt")), content)?;
        println!("=== {name} ===\n{content}");
        Ok(())
    };

    let inputs = Inputs::new(campaign);
    eprintln!("running the m01-m02 campaign ...");
    inputs.m();
    eprintln!("running the o1-o2 campaign ...");
    inputs.o();

    for target in TARGETS {
        let Paper(render) = target.body else { continue };
        match render(&inputs).ok_or_else(|| Wavm3Error::training(target.name))? {
            Table(text) => save(target.name, &text)?,
            Figure(fig) => {
                export::write_file(&out.join(format!("{}.csv", fig.id)), &fig.csv)?;
                save(fig.id, &fig.summary)?;
            }
        }
    }
    eprintln!("all artefacts under {}", out.display());
    Ok(())
}

/// Run the full Table IIa campaign on both machine sets and export the
/// datasets as JSON for external analysis.
fn export_datasets(opts: &CliOptions, campaign: &Campaign) -> Result<(), Wavm3Error> {
    for set in [MachineSet::M, MachineSet::O] {
        let dataset = tables::run_campaign(set, campaign);
        let slug = set.label().replace('-', "_");
        let path = opts.out_dir.join(format!("dataset_{slug}.json"));
        export::write_file(&path, &serde_json::to_string(&dataset)?)?;
        let runs_path = opts.out_dir.join(format!("runs_{slug}.csv"));
        export::write_file(&runs_path, &export::runs_csv(&dataset))?;
        let readings_path = opts.out_dir.join(format!("readings_{slug}.csv"));
        export::write_file(&readings_path, &export::readings_csv(&dataset))?;
        println!(
            "{}: {} scenarios, {} migrations -> {}, {}, {}",
            set.label(),
            dataset.runs.len(),
            dataset.record_count(),
            path.display(),
            runs_path.display(),
            readings_path.display()
        );
    }
    Ok(())
}

/// Paper Fig. 1 — the actors of the migration process (descriptive
/// diagram; printed here with each actor's role as implemented by this
/// reproduction, §III-B).
fn fig1(_opts: &CliOptions, _campaign: &Campaign) -> Result<(), Wavm3Error> {
    println!(
        r#"Fig 1: Summary of the migration process (actors and implementation map)

  +------------------------+        selects VM + target, issues migration
  | Consolidation Manager  | -----------------------------------------------+
  +------------------------+   (wavm3-consolidation::ConsolidationManager)  |
                                                                            v
  +------------------+   1. connect / ack    +------------------+
  |   SOURCE host    | <-------------------> |   TARGET host    |
  |  (wavm3-cluster  |   2. VM state over    |  runs the VM     |
  |   ::Host)        |      the network      |   after 'me'     |
  |                  | ====================> |                  |
  |  +------------+  |   (wavm3-migration)   |  +- - - - - -+   |
  |  | Migrating  |  |                       |  : Migrating :   |
  |  |    VM      |  |                       |  :    VM     :   |
  |  +------------+  |                       |  +- - - - - -+   |
  +------------------+                       +------------------+
        |                    NETWORK                 |
        +------------- (wavm3-cluster::Link) --------+
                 single gigabit switch; constant switch power (§III-B)

Actors modelled for energy (paper §III-B): migrating VM, source host,
target host. The consolidation manager only initiates (not metered); the
network's switch draw is constant and excluded. Per-actor workload impact
is Table I (`cargo run -p wavm3-experiments -- table1`)."#
    );
    Ok(())
}
