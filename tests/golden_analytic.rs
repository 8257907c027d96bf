//! Adversarial golden configurations pinning the analytic engine.
//!
//! Three sets. The first (32 configs) boots a matmul background VM on each
//! host, so demand ripples and spans replay each tick's CPU term. The
//! second (30 configs) keeps every VM at constant demand — pagedirtier
//! backgrounds and migrants — so spans replay frozen power; it adds light
//! link faults and a tick that does not divide the pre-run length to the
//! variants below. The third (21 configs) takes the Table IIa scenarios
//! whose rippling host saturates during transfer, so the bandwidth moves
//! with the ripple and transfer ticks must not be spanned.
//!
//! Each config stresses a boundary the closed-form integration must get
//! exactly right — tiny ticks, zero-duration phases, a dirty rate
//! saturated at `PEAK_PAGE_WRITE_RATE`, aborts landing inside specific
//! phases, rate-capped links, and an immediately-converging pre-copy —
//! across all three mechanisms and both workload shapes. The expected
//! outcome, round structure, µs-exact phase instants, and per-phase ×
//! per-role energies are checked in under `tests/golden/` with shortest
//! round-trip formatting and compared at 1e-12 relative tolerance, so
//! any behavioural drift in the fast path is caught to the last bit
//! that survives cross-libm variation.
//!
//! Those goldens run each config once, on a fresh scenario, so every run
//! ticks. `replayed_runs_equal_ticked_runs_bit_for_bit` re-runs one
//! scenario per config, whose fault-free runs after the first replay its
//! tick record, and holds each run to a freshly ticked one bit for bit.
//!
//! Regenerate after an intentional engine change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_analytic
//! ```

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use wavm3::cluster::{hardware, vm_instances, Cluster, Link, VmId, PAGE_SIZE_BYTES};
use wavm3::faults::{AbortFault, FaultConfig};
use wavm3::migration::simulation::PEAK_PAGE_WRITE_RATE;
use wavm3::migration::{
    EnvNoise, MigrationConfig, MigrationKind, MigrationRecord, MigrationSimulation, RunSlot,
    SimulationPath,
};
use wavm3::obs::{run_scope, LedgerEntry, ObsConfig, Session};
use wavm3::simkit::{RngFactory, SimDuration, SimTime};
use wavm3::workloads::{IdleWorkload, MatMulWorkload, PageDirtierWorkload, Workload};

/// Relative tolerance for numeric cells — tight enough to pin behaviour,
/// loose enough to survive a libm `powf` ulp.
const REL_TOL: f64 = 1e-12;
/// Absolute floor below which two numbers are considered equal.
const ABS_TOL: f64 = 1e-9;

/// Which background VM each host boots.
#[derive(Debug, Clone, Copy)]
enum Background {
    /// A phase-shifted matmul: oscillating demand, live CPU coupling.
    Ripple,
    /// A pagedirtier: constant demand and write rate.
    Constant,
}

/// A base (mechanism, migrant-workload) combination.
#[derive(Debug, Clone, Copy)]
struct Base {
    name: &'static str,
    kind: MigrationKind,
    /// `Some(ratio)` → PageDirtier migrant, `None` → MatMul migrant.
    mem_ratio: Option<f64>,
}

/// The ripple set's four bases.
const BASES: [Base; 4] = [
    Base {
        name: "live-cpu",
        kind: MigrationKind::Live,
        mem_ratio: None,
    },
    Base {
        name: "live-mem",
        kind: MigrationKind::Live,
        mem_ratio: Some(0.8),
    },
    Base {
        name: "nonlive-mem",
        kind: MigrationKind::NonLive,
        mem_ratio: Some(0.5),
    },
    Base {
        name: "postcopy-cpu",
        kind: MigrationKind::PostCopy,
        mem_ratio: None,
    },
];

/// One adversarial twist applied on top of a base.
struct Variant {
    name: &'static str,
    apply: fn(&mut MigrationConfig, &mut Option<f64>),
}

/// The constant-host set: a pagedirtier migrant for every mechanism.
const CONSTANT_BASES: [Base; 3] = [
    Base {
        name: "live-mem",
        kind: MigrationKind::Live,
        mem_ratio: Some(0.8),
    },
    Base {
        name: "nonlive-mem",
        kind: MigrationKind::NonLive,
        mem_ratio: Some(0.5),
    },
    Base {
        name: "postcopy-mem",
        kind: MigrationKind::PostCopy,
        mem_ratio: Some(0.4),
    },
];

const VARIANTS: [Variant; 8] = [
    Variant {
        // 1 ms ticks: 100× finer than default; exercises sub-tick
        // transfer-loop boundaries and the µs phase arithmetic.
        name: "tiny-tick",
        apply: |cfg, _| cfg.timing.tick = SimDuration::from_millis(1),
    },
    Variant {
        // Zero-duration initiation: `ts == ms`, an empty energy window.
        name: "zero-initiation",
        apply: |cfg, _| cfg.timing.initiation = SimDuration::ZERO,
    },
    Variant {
        // Zero-duration activation (and post-copy handover): `me` rides
        // directly on the transfer end plus the tail envelope.
        name: "zero-activation",
        apply: |cfg, _| {
            cfg.timing.activation = SimDuration::ZERO;
            cfg.timing.postcopy_handover = SimDuration::ZERO;
        },
    },
    Variant {
        // Migrant dirtying flat out at PEAK_PAGE_WRITE_RATE: live
        // pre-copy cannot converge and must degenerate to stop-and-copy
        // via the stall rule (the paper's §VI-D observation).
        name: "saturated-dirty",
        apply: |_, mem| *mem = Some(1.0),
    },
    Variant {
        // Certain abort inside the initiation phase [12 s, 14 s).
        name: "abort-initiation",
        apply: |cfg, _| {
            cfg.faults = FaultConfig {
                abort: AbortFault {
                    probability: 1.0,
                    earliest: SimTime::from_millis(12_400),
                    latest: SimTime::from_millis(13_600),
                },
                ..FaultConfig::default()
            }
        },
    },
    Variant {
        // Certain abort mid-transfer (never fires for post-copy, whose
        // migrant is already on the target — also worth pinning).
        name: "abort-transfer",
        apply: |cfg, _| {
            cfg.faults = FaultConfig {
                abort: AbortFault {
                    probability: 1.0,
                    earliest: SimTime::from_secs(20),
                    latest: SimTime::from_secs(34),
                },
                ..FaultConfig::default()
            }
        },
    },
    Variant {
        // Tight rate cap + coarse tick: many rate-limited sub-steps.
        name: "rate-capped",
        apply: |cfg, _| {
            cfg.precopy.rate_limit_bps = Some(5.0e7);
            cfg.timing.tick = SimDuration::from_millis(250);
        },
    },
    Variant {
        // A stop threshold above the whole image with a one-round cap:
        // pre-copy converges immediately after the bulk pass.
        name: "instant-converge",
        apply: |cfg, _| {
            cfg.precopy.stop_threshold_pages = u64::MAX / 2;
            cfg.precopy.max_rounds = 1;
        },
    },
];

/// Variants only the constant-host set adds.
const CONSTANT_VARIANTS: [Variant; 2] = [
    Variant {
        // Seeded link-degradation windows: bandwidth changes mid-round.
        name: "light-faults",
        apply: |cfg, _| cfg.faults = FaultConfig::light(),
    },
    Variant {
        // A tick that divides neither `ms` nor any phase length, so the
        // first tick straddles `ms` and phase edges fall mid-tick.
        name: "odd-tick",
        apply: |cfg, _| cfg.timing.tick = SimDuration::from_micros(70_001),
    },
];

fn run_config(base: Base, variant: &Variant, background: Background, seed: u64) -> MigrationRecord {
    build_config(base, variant, background, seed, None).run()
}

/// The scenario `run_config` runs, with `faults` in place of the variant's
/// fault config when given.
fn build_config(
    base: Base,
    variant: &Variant,
    background: Background,
    seed: u64,
    faults: Option<FaultConfig>,
) -> MigrationSimulation {
    let mut cfg = MigrationConfig::new(base.kind);
    cfg.path = SimulationPath::Analytic;
    let mut mem_ratio = base.mem_ratio;
    (variant.apply)(&mut cfg, &mut mem_ratio);
    cfg.faults = faults.unwrap_or(cfg.faults);
    cfg.validate().expect("adversarial configs stay valid");

    let mut cluster = Cluster::new(Link::gigabit());
    let src = cluster.add_host(hardware::m01());
    let dst = cluster.add_host(hardware::m02());
    let migrant_spec = if mem_ratio.is_some() {
        vm_instances::migrating_mem()
    } else {
        vm_instances::migrating_cpu()
    };
    let vm = cluster.boot_vm(src, migrant_spec);
    let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();
    match mem_ratio {
        Some(r) => {
            workloads.insert(vm, Arc::new(PageDirtierWorkload::with_ratio(r)));
        }
        None => {
            workloads.insert(vm, Arc::new(MatMulWorkload::full(4)));
        }
    }
    // One background VM on each side so CPU coupling is live.
    let bg_src = cluster.boot_vm(src, vm_instances::load_cpu());
    let bg_dst = cluster.boot_vm(dst, vm_instances::load_cpu());
    let (w_src, w_dst): (Arc<dyn Workload>, Arc<dyn Workload>) = match background {
        Background::Ripple => (
            Arc::new(MatMulWorkload::full(4).with_phase(0.137)),
            Arc::new(MatMulWorkload::full(4).with_phase(0.41)),
        ),
        Background::Constant => (
            Arc::new(PageDirtierWorkload::with_ratio(0.3)),
            Arc::new(PageDirtierWorkload::with_ratio(0.6)),
        ),
    };
    workloads.insert(bg_src, w_src);
    workloads.insert(bg_dst, w_dst);

    MigrationSimulation::new(cluster, workloads, vm, src, dst, cfg, RngFactory::new(seed))
}

/// One golden line per config: discrete outcome fields exactly, then the
/// µs phase instants and per-phase × per-role energies with shortest
/// round-trip float formatting.
fn render(name: &str, r: &MigrationRecord) -> String {
    let e = |j: f64| format!("{j}");
    format!(
        "{name} outcome={:?} rounds={} bytes={} ms={} ts={} te={} me={} down_us={} \
         src=[{} {} {} {}] dst=[{} {} {} {}]\n",
        r.outcome,
        r.rounds.len(),
        r.total_bytes,
        r.phases.ms.as_micros(),
        r.phases.ts.as_micros(),
        r.phases.te.as_micros(),
        r.phases.me.as_micros(),
        r.downtime.as_micros(),
        e(r.source_energy.initiation_j),
        e(r.source_energy.transfer_j),
        e(r.source_energy.activation_j),
        e(r.source_energy.rollback_j),
        e(r.target_energy.initiation_j),
        e(r.target_energy.transfer_j),
        e(r.target_energy.activation_j),
        e(r.target_energy.rollback_j),
    )
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn cells_match(golden: &str, actual: &str) -> bool {
    if golden == actual {
        return true;
    }
    match (golden.parse::<f64>(), actual.parse::<f64>()) {
        (Ok(g), Ok(a)) => {
            let scale = g.abs().max(a.abs());
            (g - a).abs() <= ABS_TOL + REL_TOL * scale
        }
        _ => false,
    }
}

/// Compare `actual` with the golden `file` cell by cell (or rewrite it
/// under `UPDATE_GOLDEN`).
fn check_golden(file: &str, configs: usize, actual: &str) {
    let path = golden_path(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {file}; regenerate with \
             UPDATE_GOLDEN=1 cargo test --test golden_analytic"
        )
    });

    let g_lines: Vec<&str> = golden.lines().collect();
    let a_lines: Vec<&str> = actual.lines().collect();
    assert_eq!(
        g_lines.len(),
        a_lines.len(),
        "config count changed ({} golden vs {} actual)",
        g_lines.len(),
        a_lines.len()
    );
    assert_eq!(a_lines.len(), configs, "{file}: bases x variants");
    for (gl, al) in g_lines.iter().zip(&a_lines) {
        let gt: Vec<&str> = gl.split_whitespace().collect();
        let at: Vec<&str> = al.split_whitespace().collect();
        assert_eq!(
            gt.len(),
            at.len(),
            "cell count changed\n golden: {gl}\n actual: {al}"
        );
        for (gc, ac) in gt.iter().zip(&at) {
            // Strip the bracket/key decorations so numbers parse.
            let strip = |s: &str| {
                s.trim_matches(|c| c == '[' || c == ']')
                    .split('=')
                    .next_back()
                    .unwrap_or(s)
                    .to_string()
            };
            assert!(
                cells_match(&strip(gc), &strip(ac)),
                "cell {gc:?} became {ac:?}\n golden: {gl}\n actual: {al}"
            );
        }
    }
}

#[test]
fn adversarial_configs_match_their_goldens() {
    let mut actual = String::new();
    for (bi, base) in BASES.iter().enumerate() {
        for (vi, variant) in VARIANTS.iter().enumerate() {
            let seed = 1000 + (bi * VARIANTS.len() + vi) as u64;
            let r = run_config(*base, variant, Background::Ripple, seed);
            let name = format!("{}/{}", base.name, variant.name);
            actual.push_str(&render(&name, &r));
        }
    }
    check_golden("analytic_adversarial.txt", 32, &actual);
}

#[test]
fn constant_host_configs_match_their_goldens() {
    let mut actual = String::new();
    let variants: Vec<&Variant> = VARIANTS.iter().chain(&CONSTANT_VARIANTS).collect();
    for (bi, base) in CONSTANT_BASES.iter().enumerate() {
        for (vi, variant) in variants.iter().enumerate() {
            let seed = 2000 + (bi * variants.len() + vi) as u64;
            let r = run_config(*base, variant, Background::Constant, seed);
            let name = format!("{}/{}", base.name, variant.name);
            actual.push_str(&render(&name, &r));
        }
    }
    check_golden("analytic_constant_hosts.txt", 30, &actual);
}

/// Table IIa scenarios on m01–m02 whose rippling host saturates during
/// transfer: its CPU grant, and with it the coupled bandwidth, moves with
/// the ripple. Neither set above has such a host (each boots one 4-vCPU
/// matmul per 32-core host). Each runs under the default config and the
/// constant set's extra variants (link faults, an odd tick).
#[test]
fn saturated_ripple_scenarios_match_their_goldens() {
    let mut actual = String::new();
    for (name, seed, build) in saturated_ripple_configs() {
        actual.push_str(&render(&name, &build(seed, None).run()));
    }
    check_golden("analytic_saturated_ripple.txt", 21, &actual);
}

/// A golden config: its name, seed, and a builder taking the seed and an
/// optional fault config to use in place of the config's own.
type Config = (
    String,
    u64,
    Box<dyn Fn(u64, Option<FaultConfig>) -> MigrationSimulation>,
);

/// The third golden set's configs: Table IIa scenarios on m01–m02 whose
/// rippling host saturates during transfer, under the default config and
/// the constant set's extra variants.
fn saturated_ripple_configs() -> Vec<Config> {
    use wavm3::cluster::MachineSet;
    use wavm3::experiments::scenario::ExperimentFamily as F;
    use wavm3::experiments::Scenario;
    use MigrationKind::{Live, NonLive};
    const DEFAULT: Variant = Variant {
        name: "default",
        apply: |_, _| {},
    };
    let scenarios = [
        (F::CpuloadSource, Live, 7),
        (F::CpuloadSource, Live, 8),
        (F::CpuloadSource, NonLive, 8),
        (F::CpuloadTarget, Live, 8),
        (F::CpuloadTarget, NonLive, 8),
        (F::MemloadSource, Live, 8),
        (F::MemloadTarget, Live, 8),
    ];
    let variants = [&DEFAULT, &CONSTANT_VARIANTS[0], &CONSTANT_VARIANTS[1]];
    let mut configs: Vec<Config> = Vec::new();
    for (si, &(family, kind, load_vms)) in scenarios.iter().enumerate() {
        let scenario = Scenario::family_scenarios(family, MachineSet::M)
            .into_iter()
            .find(|s| s.kind == kind && s.source_load_vms + s.target_load_vms == load_vms)
            .expect("a Table IIa scenario");
        for (vi, variant) in variants.iter().enumerate() {
            let mut cfg = MigrationConfig::new(kind);
            cfg.path = SimulationPath::Analytic;
            (variant.apply)(&mut cfg, &mut None);
            let name = format!(
                "{}/{}/{}VM/{}",
                family.label(),
                kind.label(),
                load_vms,
                variant.name
            );
            let scenario = scenario.clone();
            let build = move |seed, faults: Option<FaultConfig>| {
                let cfg = MigrationConfig {
                    faults: faults.unwrap_or(cfg.faults),
                    ..cfg
                };
                scenario.build_with_config(RngFactory::new(seed), cfg)
            };
            let seed = 3000 + (si * variants.len() + vi) as u64;
            configs.push((name, seed, Box::new(build)));
        }
    }
    configs
}

/// Every config of the three golden sets, with and without
/// `FaultConfig::light()`: one prototype runs reps 0–5 through
/// `run_reusing` on `RngFactory::new(seed).child(rep)`, so its fault-free
/// reps after the first replay its tape, and each rep must equal a fresh
/// prototype's first, ticked, run on the same root — every energy and
/// ledger term bit for bit, and phases, rounds, bytes, downtime, outcome
/// and fault events exactly.
#[test]
fn replayed_runs_equal_ticked_runs_bit_for_bit() {
    let mut configs = saturated_ripple_configs();
    let golden_sets = [
        (
            &BASES[..],
            VARIANTS.iter().collect::<Vec<_>>(),
            Background::Ripple,
            1000,
        ),
        (
            &CONSTANT_BASES[..],
            VARIANTS.iter().chain(&CONSTANT_VARIANTS).collect(),
            Background::Constant,
            2000,
        ),
    ];
    for (bases, variants, background, seed0) in golden_sets {
        for (bi, &base) in bases.iter().enumerate() {
            for (vi, &variant) in variants.iter().enumerate() {
                let name = format!("{}/{}", base.name, variant.name);
                let seed = seed0 + (bi * variants.len() + vi) as u64;
                let build =
                    move |seed, faults| build_config(base, variant, background, seed, faults);
                configs.push((name, seed, Box::new(build)));
            }
        }
    }
    assert_eq!(configs.len(), 32 + 30 + 21);

    let session = Session::install(ObsConfig {
        ledger: true,
        ..ObsConfig::default()
    });
    let mut runs = Vec::new();
    for (name, seed, build) in &configs {
        for faults in [None, Some(FaultConfig::light())] {
            let prototype = build(*seed, faults);
            let mut slot = RunSlot::default();
            for rep in 0..6 {
                let rng = RngFactory::new(*seed).child(rep);
                let key = format!("{name}/{}/{rep}", faults.is_some());
                let reused = run_scope(format!("{key}/reused"), || {
                    prototype.run_reusing(rng, &mut slot)
                });
                let ticked = run_scope(format!("{key}/ticked"), || {
                    build(*seed, faults).run_reusing(rng, &mut RunSlot::default())
                });
                runs.push((key, reused, ticked));
            }
        }
    }
    let ledger: BTreeMap<String, LedgerEntry> = session.finish().ledger.into_iter().collect();

    let energy_bits = |r: &MigrationRecord| {
        [r.source_energy, r.target_energy]
            .map(|e| [e.initiation_j, e.transfer_j, e.activation_j, e.rollback_j].map(f64::to_bits))
    };
    let ledger_bits = |key: &str| {
        let entry = ledger.get(key).expect("one ledger entry per run");
        [entry.source, entry.target].map(|role| {
            [
                role.initiation,
                role.transfer,
                role.activation,
                role.rollback,
            ]
            .map(|t| [t.idle_j, t.cpu_j, t.mem_dirty_j, t.network_j, t.service_j].map(f64::to_bits))
        })
    };
    for (key, reused, ticked) in &runs {
        assert_eq!(energy_bits(reused), energy_bits(ticked), "{key}: energies");
        assert_eq!(
            ledger_bits(&format!("{key}/reused")),
            ledger_bits(&format!("{key}/ticked")),
            "{key}: ledger"
        );
        assert_eq!(reused.phases, ticked.phases, "{key}: phases");
        assert_eq!(reused.rounds, ticked.rounds, "{key}: rounds");
        assert_eq!(reused.total_bytes, ticked.total_bytes, "{key}: bytes");
        assert_eq!(reused.downtime, ticked.downtime, "{key}: downtime");
        assert_eq!(reused.outcome, ticked.outcome, "{key}: outcome");
        assert_eq!(reused.fault_events, ticked.fault_events, "{key}: faults");
    }
}

/// The hand-computed oracles' set-up: one `migrating_mem()` VM running
/// `workload` from an idle m01 to an idle m02 in a quiet environment.
/// The stream is capped at 2^26 B/s, below the link's bandwidth: the
/// 4 GiB image takes exactly 64 s, so the transfer ends on a tick edge and
/// no activation tick carries transfer-stage CPU load.
fn oracle_run(
    kind: MigrationKind,
    workload: Arc<dyn Workload>,
) -> (MigrationConfig, MigrationRecord) {
    let mut cfg = MigrationConfig::new(kind);
    cfg.path = SimulationPath::Analytic;
    cfg.env_noise = EnvNoise::disabled();
    cfg.precopy.rate_limit_bps = Some(67_108_864.0);
    cfg.validate().expect("oracle config is valid");

    let mut cluster = Cluster::new(Link::gigabit());
    let src = cluster.add_host(hardware::m01());
    let dst = cluster.add_host(hardware::m02());
    let vm = cluster.boot_vm(src, vm_instances::migrating_mem());
    let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();
    workloads.insert(vm, workload);
    let r =
        MigrationSimulation::new(cluster, workloads, vm, src, dst, cfg, RngFactory::new(5)).run();
    assert_eq!(r.phases.te, r.phases.ts + SimDuration::from_secs(64));
    (cfg, r)
}

/// Eq. 5 (CPU, `idle + dyn·u^e` over the 32 logical CPUs) plus the
/// memory-contention (Eq. 6), NIC (Eq. 7) and service terms, on the power
/// profile m01 and m02 share.
fn oracle_power(cores: f64, nic: f64, mem_activity: f64, service_w: f64) -> f64 {
    let spec = hardware::m01();
    let f = (cores / spec.cpu_capacity()).powf(spec.power.cpu_exponent);
    oracle_power_at(f, nic, mem_activity, service_w)
}

/// [`oracle_power`] with the CPU curve's `u^e` given as `f`.
fn oracle_power_at(f: f64, nic: f64, mem_activity: f64, service_w: f64) -> f64 {
    let p = hardware::m01().power;
    p.idle_w
        + p.cpu_dynamic_w * f
        + p.nic_w_at_line_rate * nic
        + p.mem_contention_w * mem_activity
        + service_w
}

/// The stream at the cap: its share of the NIC's line rate, and the
/// memory activity of the pages it writes into the target.
fn oracle_stream(cfg: &MigrationConfig) -> (f64, f64) {
    let cap = cfg.precopy.rate_limit_bps.expect("capped");
    let nic = cap / Link::gigabit().line_rate_bps;
    let loading = cap / PAGE_SIZE_BYTES as f64 / PEAK_PAGE_WRITE_RATE;
    (nic, loading)
}

/// Assert each `(phase, engine, hand-computed)` energy to 1e-12.
fn assert_oracle(expected: [(&str, f64, f64); 6]) {
    for (name, got, want) in expected {
        assert!(
            (got - want).abs() <= 1e-12 * want,
            "{name}: engine {got} J vs hand-computed {want} J"
        );
    }
}

/// Hand-computed oracle: a non-live migration of a constant pagedirtier
/// between idle m01/m02 hosts in a quiet environment. Power is constant
/// on both hosts within each phase, so each phase's energy is
/// `P · duration` with `P` from Eqs. 5–7 and the machine's power profile;
/// the engine steps the phases as spans and must hit it to 1e-12.
#[test]
fn nonlive_phase_energies_match_the_hand_computed_oracle() {
    let (cfg, r) = oracle_run(
        MigrationKind::NonLive,
        Arc::new(PageDirtierWorkload::with_ratio(0.5)),
    );
    let power = oracle_power;
    // Busy cores: the VMM's 0.10 + 0.04 per running VM, the migration
    // control plane or stream, and the pagedirtier's one core once it
    // runs again.
    let control = cfg.cpu_cost.control_cores;
    let idle_host = 0.10 + control;
    let migrant_host = 0.10 + 0.04 + 1.0 + control;
    let src_stream = 0.10 + cfg.cpu_cost.source_cores_at_line_rate;
    let dst_stream = 0.10 + cfg.cpu_cost.target_cores_at_line_rate;
    let dirtying = PageDirtierWorkload::DEFAULT_WRITE_RATE / PEAK_PAGE_WRITE_RATE;
    let (nic, loading) = oracle_stream(&cfg);
    let svc = cfg.service;
    let init_s = cfg.timing.initiation.as_secs_f64();
    let act_s = cfg.timing.activation.as_secs_f64();
    // The transfer's last tick is booked at the power the engine works out
    // after that tick's transfer step: the CPU was allocated before the
    // step, at the stream's cost, but the handover has happened, so the
    // tick carries no NIC load, the activation service power, and on the
    // target the resumed migrant's page writes.
    let tick_s = cfg.timing.tick.as_secs_f64();
    let stream_s = 64.0 - tick_s;
    // Non-live: the migrant is suspended from `ms` until it resumes on
    // the target at `te`.
    assert_oracle([
        (
            "source initiation",
            r.source_energy.initiation_j,
            power(idle_host, 0.0, 0.0, svc.init_source_w) * init_s,
        ),
        (
            "target initiation",
            r.target_energy.initiation_j,
            power(idle_host, 0.0, 0.0, svc.init_target_w) * init_s,
        ),
        (
            "source transfer",
            r.source_energy.transfer_j,
            power(src_stream, nic, 0.0, svc.transfer_source_w) * stream_s
                + power(src_stream, 0.0, 0.0, svc.activation_source_w) * tick_s,
        ),
        (
            "target transfer",
            r.target_energy.transfer_j,
            power(dst_stream, nic, loading, svc.transfer_target_w) * stream_s
                + power(dst_stream, 0.0, dirtying, svc.activation_target_w) * tick_s,
        ),
        (
            "source activation",
            r.source_energy.activation_j,
            power(idle_host, 0.0, 0.0, svc.activation_source_w) * act_s,
        ),
        (
            "target activation",
            r.target_energy.activation_j,
            power(migrant_host, 0.0, dirtying, svc.activation_target_w) * act_s,
        ),
    ]);
}

/// Hand-computed oracle: a live migration of an idle guest, on the
/// non-live oracle's set-up. The guest writes no pages, so its working set
/// is empty: one round, `te = ts + 64 s`, no downtime, no dirty-tracking
/// cost. The migrant runs throughout and counts toward the VMM overhead
/// (0.10 + 0.04 cores) on the source until `te` and on the target after.
#[test]
fn live_phase_energies_match_the_hand_computed_oracle() {
    let (cfg, r) = oracle_run(MigrationKind::Live, Arc::new(IdleWorkload));
    assert_eq!(r.rounds.len(), 1);
    assert_eq!(r.downtime, SimDuration::ZERO);
    let power = oracle_power;
    let control = cfg.cpu_cost.control_cores;
    let idle_host = 0.10 + control;
    let migrant_host = 0.10 + 0.04 + control;
    let src_stream = 0.10 + 0.04 + cfg.cpu_cost.source_cores_at_line_rate;
    let dst_stream = 0.10 + cfg.cpu_cost.target_cores_at_line_rate;
    let (nic, loading) = oracle_stream(&cfg);
    let svc = cfg.service;
    let init_s = cfg.timing.initiation.as_secs_f64();
    let act_s = cfg.timing.activation.as_secs_f64();
    // As in the non-live oracle, the transfer's last tick keeps the CPU
    // allocated before the handover and the power booked after it.
    let tick_s = cfg.timing.tick.as_secs_f64();
    let stream_s = 64.0 - tick_s;
    assert_oracle([
        (
            "source initiation",
            r.source_energy.initiation_j,
            power(migrant_host, 0.0, 0.0, svc.init_source_w) * init_s,
        ),
        (
            "target initiation",
            r.target_energy.initiation_j,
            power(idle_host, 0.0, 0.0, svc.init_target_w) * init_s,
        ),
        (
            "source transfer",
            r.source_energy.transfer_j,
            power(src_stream, nic, 0.0, svc.transfer_source_w) * stream_s
                + power(src_stream, 0.0, 0.0, svc.activation_source_w) * tick_s,
        ),
        (
            "target transfer",
            r.target_energy.transfer_j,
            power(dst_stream, nic, loading, svc.transfer_target_w) * stream_s
                + power(dst_stream, 0.0, 0.0, svc.activation_target_w) * tick_s,
        ),
        (
            "source activation",
            r.source_energy.activation_j,
            power(idle_host, 0.0, 0.0, svc.activation_source_w) * act_s,
        ),
        (
            "target activation",
            r.target_energy.activation_j,
            power(migrant_host, 0.0, 0.0, svc.activation_target_w) * act_s,
        ),
    ]);
}

/// Hand-computed oracle: a post-copy migration of an idle guest, on the
/// non-live oracle's set-up. One round, `te = ts + 64 s`, and a downtime
/// of the 400 ms handover: the guest leaves the source at `ts` and adds
/// its 0.04 VMM cores on the target from its resume at `ts + 0.4 s`; its
/// demand ramp multiplies zero demand. That resume moves the target's
/// utilisation by 1.25·10⁻³, inside `PowCache`'s ±2·10⁻³ window, so the
/// engine prices what follows with the cache's second-order expansion
/// around the handover's utilisation, and so does the oracle. Post-copy
/// transfer never spans, so this pins the ticked step.
#[test]
fn postcopy_phase_energies_match_the_hand_computed_oracle() {
    let (cfg, r) = oracle_run(MigrationKind::PostCopy, Arc::new(IdleWorkload));
    assert_eq!(r.rounds.len(), 1);
    assert_eq!(r.downtime, cfg.timing.postcopy_handover);
    let power = oracle_power;
    let control = cfg.cpu_cost.control_cores;
    let idle_host = 0.10 + control;
    let migrant_host = 0.10 + 0.04 + control;
    let src_stream = 0.10 + cfg.cpu_cost.source_cores_at_line_rate;
    let dst_stream = 0.10 + cfg.cpu_cost.target_cores_at_line_rate;
    // `u^e` on the target once the guest runs there, expanded around the
    // handover's `u0` as `PowCache::eval` does.
    let spec = hardware::m01();
    let e = spec.power.cpu_exponent;
    let u0 = dst_stream / spec.cpu_capacity();
    let du = (dst_stream + 0.04) / spec.cpu_capacity() - u0;
    let f0 = u0.powf(e);
    let (d1, d2) = (e * f0 / u0, e * (e - 1.0) * f0 / (u0 * u0));
    let resumed = f0 + du * (d1 + du * (0.5 * d2));
    let (nic, loading) = oracle_stream(&cfg);
    let svc = cfg.service;
    let init_s = cfg.timing.initiation.as_secs_f64();
    let act_s = cfg.timing.activation.as_secs_f64();
    let handover_s = cfg.timing.postcopy_handover.as_secs_f64();
    // As in the other oracles, the transfer's last tick keeps the CPU
    // allocated before the transfer ends and the power booked after it.
    let tick_s = cfg.timing.tick.as_secs_f64();
    let stream_s = 64.0 - tick_s;
    assert_oracle([
        (
            "source initiation",
            r.source_energy.initiation_j,
            power(migrant_host, 0.0, 0.0, svc.init_source_w) * init_s,
        ),
        (
            "target initiation",
            r.target_energy.initiation_j,
            power(idle_host, 0.0, 0.0, svc.init_target_w) * init_s,
        ),
        (
            "source transfer",
            r.source_energy.transfer_j,
            power(src_stream, nic, 0.0, svc.transfer_source_w) * stream_s
                + power(src_stream, 0.0, 0.0, svc.activation_source_w) * tick_s,
        ),
        (
            "target transfer",
            r.target_energy.transfer_j,
            power(dst_stream, nic, loading, svc.transfer_target_w) * handover_s
                + oracle_power_at(resumed, nic, loading, svc.transfer_target_w)
                    * (stream_s - handover_s)
                + oracle_power_at(resumed, 0.0, 0.0, svc.activation_target_w) * tick_s,
        ),
        (
            "source activation",
            r.source_energy.activation_j,
            power(idle_host, 0.0, 0.0, svc.activation_source_w) * act_s,
        ),
        (
            "target activation",
            r.target_energy.activation_j,
            power(migrant_host, 0.0, 0.0, svc.activation_target_w) * act_s,
        ),
    ]);
}
