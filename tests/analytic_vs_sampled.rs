//! Differential harness: the closed-form analytic engine must agree with
//! the sampled reference engine on every observable that is defined on
//! both paths, across mechanisms, workloads, and fault plans.
//!
//! ## What "agree" means
//!
//! The environment is quieted (`EnvNoise::disabled()` plus zero meter
//! noise in the machine specs), so both engines integrate the *same*
//! ground-truth power signal; the only remaining difference is
//! discretisation. The sampled path records power on the 2 Hz meter grid
//! and integrates it trapezoidally, while the analytic path integrates
//! the per-tick-constant signal exactly, so the per-window error is
//! bounded by the classic quadrature estimate
//!
//! ```text
//! |E_sampled − E_analytic| ≤ (Δ_meter / 2) · TV(P)    over the window,
//! ```
//!
//! where `TV(P)` is the total variation of the ground-truth power across
//! the window — an O(Δ) bound, computed here *numerically* from the
//! sampled run's own tick-resolution truth trace rather than assumed
//! (see DESIGN.md §12). Discrete observables — outcome, round structure,
//! phase instants, transferred bytes — carry no discretisation error and
//! must match (near-)exactly.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use wavm3::cluster::{hardware, vm_instances, Cluster, Link, MachineSpec, VmId};
use wavm3::faults::{AbortFault, FaultConfig};
use wavm3::migration::{
    EnvNoise, MigrationConfig, MigrationKind, MigrationRecord, MigrationSimulation, SimulationPath,
};
use wavm3::obs::{Level, ObsConfig, RoleLedger, Session, TermEnergy};
use wavm3::power::PowerTrace;
use wavm3::simkit::{RngFactory, SimDuration, SimTime};
use wavm3::workloads::{MatMulWorkload, PageDirtierWorkload, Workload};

/// The meter period both engines integrate against (2 Hz).
const METER_DT_S: f64 = 0.5;

/// Cluster composition of one differential case.
#[derive(Debug, Clone, Copy)]
struct Setup {
    /// MatMul load VMs on the source host.
    load_src: usize,
    /// MatMul load VMs on the target host.
    load_dst: usize,
    /// `Some(ratio)` → PageDirtier migrant; `None` → MatMul migrant.
    mem_ratio: Option<f64>,
}

/// Zero the spec's meter noise so measured == truth at sample instants.
fn quiet(mut spec: MachineSpec) -> MachineSpec {
    spec.power.noise_std_w = 0.0;
    spec
}

/// Run one migration on the given path under a ledger session, with a
/// quiet environment. Same `seed` + same inputs ⇒ both paths see the
/// identical fault plan and RNG streams.
fn run_one(
    setup: Setup,
    mut cfg: MigrationConfig,
    path: SimulationPath,
    seed: u64,
) -> (MigrationRecord, RoleLedger, RoleLedger) {
    cfg.path = path;
    cfg.env_noise = EnvNoise::disabled();
    cfg.validate().expect("differential config must be valid");

    let mut cluster = Cluster::new(Link::gigabit());
    let src = cluster.add_host(quiet(hardware::m01()));
    let dst = cluster.add_host(quiet(hardware::m02()));
    let migrant_spec = if setup.mem_ratio.is_some() {
        vm_instances::migrating_mem()
    } else {
        vm_instances::migrating_cpu()
    };
    let vm = cluster.boot_vm(src, migrant_spec);
    let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();
    match setup.mem_ratio {
        Some(r) => {
            workloads.insert(vm, Arc::new(PageDirtierWorkload::with_ratio(r)));
        }
        None => {
            workloads.insert(vm, Arc::new(MatMulWorkload::full(4)));
        }
    }
    for i in 0..setup.load_src {
        let id = cluster.boot_vm(src, vm_instances::load_cpu());
        workloads.insert(
            id,
            Arc::new(MatMulWorkload::full(4).with_phase(i as f64 * 0.137)),
        );
    }
    for i in 0..setup.load_dst {
        let id = cluster.boot_vm(dst, vm_instances::load_cpu());
        workloads.insert(
            id,
            Arc::new(MatMulWorkload::full(4).with_phase(0.41 + i as f64 * 0.137)),
        );
    }

    let session = Session::install(ObsConfig {
        trace: false,
        collect_level: Level::Info,
        console: None,
        metrics: false,
        profiling: false,
        ledger: true,
    });
    let record =
        MigrationSimulation::new(cluster, workloads, vm, src, dst, cfg, RngFactory::new(seed))
            .run();
    let report = session.finish();
    assert_eq!(report.ledger.len(), 1, "exactly one ledger entry per run");
    let entry = report.ledger.into_iter().next().expect("entry").1;
    (record, entry.source, entry.target)
}

/// Total variation of a trace over `[lo, hi]`, including one sample of
/// lead-in on each side so boundary-straddling trapezoids are covered.
fn total_variation(trace: &PowerTrace, lo: SimTime, hi: SimTime) -> f64 {
    let mut tv = 0.0;
    let mut prev: Option<(SimTime, f64)> = None;
    for (t, v) in trace.series.iter() {
        if let Some((pt, pv)) = prev {
            if t >= lo && pt <= hi {
                tv += (v - pv).abs();
            }
            if pt > hi {
                break;
            }
        }
        prev = Some((t, v));
    }
    tv
}

/// The numeric O(Δ) bound for one phase window. Two discretisation error
/// sources, each bounded by the window's total variation: the trapezoid
/// rule itself (`≤ (Δ/2)·TV`) and the meter's sample-and-hold offset —
/// a 2 Hz reading reports the power of the *tick containing* the sample
/// instant, a time shift of up to one tick (`≤ (Δ/2)·TV` again since
/// tick ≤ Δ/2 in every supported config). A small absolute floor covers
/// degenerate (sub-sample) windows.
fn window_bound(truth: &PowerTrace, lo: SimTime, hi: SimTime) -> f64 {
    METER_DT_S * total_variation(truth, lo, hi) + 2.0
}

fn assert_within(tag: &str, sampled_j: f64, analytic_j: f64, bound_j: f64) {
    let err = (analytic_j - sampled_j).abs();
    assert!(
        err <= bound_j,
        "{tag}: sampled {sampled_j:.3} J vs analytic {analytic_j:.3} J \
         — error {err:.3} J exceeds the O(dt) bound {bound_j:.3} J"
    );
}

/// Full structural + numeric agreement check for one (sampled, analytic)
/// record pair produced from identical inputs.
fn assert_pair_agrees(
    tag: &str,
    cfg: &MigrationConfig,
    s: &MigrationRecord,
    a: &MigrationRecord,
    ledgers: [(&RoleLedger, &RoleLedger); 2],
) {
    let tick = cfg.timing.tick.as_secs_f64();

    // --- Discrete observables: exact (or within one tick / a page). ---
    assert_eq!(s.outcome, a.outcome, "{tag}: outcome");
    assert_eq!(s.kind, a.kind, "{tag}: kind");
    assert_eq!(s.rounds.len(), a.rounds.len(), "{tag}: round count");
    for (rs, ra) in s.rounds.iter().zip(&a.rounds) {
        assert_eq!(rs.round, ra.round, "{tag}: round index");
        assert_eq!(
            rs.stop_and_copy, ra.stop_and_copy,
            "{tag}: round {} stop-and-copy flag",
            rs.round
        );
        let tol = (rs.bytes_sent as f64 * 1e-6) + 4096.0;
        let diff = (rs.bytes_sent as f64 - ra.bytes_sent as f64).abs();
        assert!(
            diff <= tol,
            "{tag}: round {} bytes {} vs {} (diff {diff} > {tol})",
            rs.round,
            rs.bytes_sent,
            ra.bytes_sent
        );
    }
    let byte_diff = (s.total_bytes as f64 - a.total_bytes as f64).abs();
    let byte_tol = s.total_bytes as f64 * 1e-6 + 4096.0;
    assert!(
        byte_diff <= byte_tol,
        "{tag}: total bytes {} vs {}",
        s.total_bytes,
        a.total_bytes
    );

    for (name, ps, pa) in [
        ("ms", s.phases.ms, a.phases.ms),
        ("ts", s.phases.ts, a.phases.ts),
        ("te", s.phases.te, a.phases.te),
        ("me", s.phases.me, a.phases.me),
    ] {
        let d = (ps.as_secs_f64() - pa.as_secs_f64()).abs();
        assert!(
            d <= tick + 1e-9,
            "{tag}: phase instant {name} differs by {d}s (> one tick {tick}s): \
             sampled {ps:?} vs analytic {pa:?}"
        );
    }
    let downtime_diff = (s.downtime.as_secs_f64() - a.downtime.as_secs_f64()).abs();
    assert!(
        downtime_diff <= tick + 1e-9,
        "{tag}: downtime {:?} vs {:?}",
        s.downtime,
        a.downtime
    );

    // Identical fault plans must fire the identical event sequence.
    assert_eq!(
        s.fault_events.iter().map(|e| e.kind()).collect::<Vec<_>>(),
        a.fault_events.iter().map(|e| e.kind()).collect::<Vec<_>>(),
        "{tag}: fault event sequence"
    );

    // --- Energies: per phase × per role within the numeric O(dt) bound.
    let aborted = s.is_aborted();
    for (role, es, ea, truth) in [
        (
            "source",
            &s.source_energy,
            &a.source_energy,
            &s.source_truth,
        ),
        (
            "target",
            &s.target_energy,
            &a.target_energy,
            &s.target_truth,
        ),
    ] {
        let tail_s = if aborted {
            es.rollback_j
        } else {
            es.activation_j
        };
        let tail_a = if aborted {
            ea.rollback_j
        } else {
            ea.activation_j
        };
        let windows = [
            (
                "initiation",
                s.phases.ms,
                s.phases.ts,
                es.initiation_j,
                ea.initiation_j,
            ),
            (
                "transfer",
                s.phases.ts,
                s.phases.te,
                es.transfer_j,
                ea.transfer_j,
            ),
            ("tail", s.phases.te, s.phases.me, tail_s, tail_a),
        ];
        let mut total_bound = 0.0;
        for (phase, lo, hi, ej_s, ej_a) in windows {
            let bound = window_bound(truth, lo, hi);
            total_bound += bound;
            assert_within(&format!("{tag}: {role} {phase}"), ej_s, ej_a, bound);
        }
        assert_within(
            &format!("{tag}: {role} total"),
            es.total_j(),
            ea.total_j(),
            total_bound,
        );
    }

    // --- Ledger: per phase × per role × per term. Term traces split the
    // same metered signal, so each term obeys the same window bound (plus
    // a small pro-rata slack from the attribution of boundary samples).
    let [(s_src, s_dst), (a_src, a_dst)] = ledgers;
    for (role, ls, la, truth) in [
        ("source", s_src, a_src, &s.source_truth),
        ("target", s_dst, a_dst, &s.target_truth),
    ] {
        for ((phase, ts_terms), (_, ta_terms)) in ls.phases().into_iter().zip(la.phases()) {
            let (lo, hi) = match phase {
                "initiation" => (s.phases.ms, s.phases.ts),
                "transfer" => (s.phases.ts, s.phases.te),
                _ => (s.phases.te, s.phases.me),
            };
            let bound = window_bound(truth, lo, hi) + 1e-3 * ts_terms.total_j().abs();
            for (term, vs, va) in term_triples(&ts_terms, &ta_terms) {
                assert_within(&format!("{tag}: {role} {phase} {term}"), vs, va, bound);
            }
            assert_within(
                &format!("{tag}: {role} {phase} ledger total"),
                ts_terms.total_j(),
                ta_terms.total_j(),
                bound,
            );
        }
    }
}

fn term_triples(s: &TermEnergy, a: &TermEnergy) -> [(&'static str, f64, f64); 5] {
    [
        ("idle_j", s.idle_j, a.idle_j),
        ("cpu_j", s.cpu_j, a.cpu_j),
        ("mem_dirty_j", s.mem_dirty_j, a.mem_dirty_j),
        ("network_j", s.network_j, a.network_j),
        ("service_j", s.service_j, a.service_j),
    ]
}

/// A fault plan that aborts with certainty somewhere inside the transfer.
fn certain_abort() -> FaultConfig {
    FaultConfig {
        abort: AbortFault {
            probability: 1.0,
            earliest: SimTime::from_secs(16),
            latest: SimTime::from_secs(38),
        },
        ..FaultConfig::default()
    }
}

fn run_pair_and_assert(tag: &str, setup: Setup, cfg: MigrationConfig, seed: u64) {
    let (s, s_src, s_dst) = run_one(setup, cfg, SimulationPath::Sampled, seed);
    let (a, a_src, a_dst) = run_one(setup, cfg, SimulationPath::Analytic, seed);
    assert_pair_agrees(tag, &cfg, &s, &a, [(&s_src, &s_dst), (&a_src, &a_dst)]);
}

/// Fixed matrix: every mechanism × {clean, light faults, certain abort},
/// rotating through CPU- and memory-bound migrants and load placements.
#[test]
fn analytic_matches_sampled_across_the_kind_and_fault_matrix() {
    let kinds = [
        MigrationKind::Live,
        MigrationKind::NonLive,
        MigrationKind::PostCopy,
    ];
    let plans: [(&str, FaultConfig); 3] = [
        ("clean", FaultConfig::default()),
        ("light", FaultConfig::light()),
        ("abort", certain_abort()),
    ];
    let setups = [
        Setup {
            load_src: 2,
            load_dst: 0,
            mem_ratio: None,
        },
        Setup {
            load_src: 0,
            load_dst: 2,
            mem_ratio: Some(0.6),
        },
        Setup {
            load_src: 1,
            load_dst: 1,
            mem_ratio: Some(0.95),
        },
    ];
    for (ki, kind) in kinds.into_iter().enumerate() {
        for (pi, (plan_name, faults)) in plans.iter().enumerate() {
            let setup = setups[(ki + pi) % setups.len()];
            let cfg = MigrationConfig::with_faults(kind, *faults);
            let tag = format!("{}/{}/{:?}", kind.label(), plan_name, setup);
            run_pair_and_assert(&tag, setup, cfg, 7 + (ki * 3 + pi) as u64);
        }
    }
    // Constant-host rows: no matmul VM anywhere, so the analytic engine
    // steps the quiet stretches of every phase as spans.
    let constant = Setup {
        load_src: 0,
        load_dst: 0,
        mem_ratio: Some(0.6),
    };
    for (ki, kind) in kinds.into_iter().enumerate() {
        for (pi, (plan_name, faults)) in plans.iter().enumerate() {
            let cfg = MigrationConfig::with_faults(kind, *faults);
            let tag = format!("{}/{}/{:?}", kind.label(), plan_name, constant);
            run_pair_and_assert(&tag, constant, cfg, 40 + (ki * 3 + pi) as u64);
        }
    }
}

proptest! {
    // Each case runs one full sampled + one analytic migration; the
    // default count keeps the suite under tier-1 budgets, and CI's
    // nightly job deepens it via WAVM3_PROPTEST_CASES.
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn randomized_configs_agree_within_the_dt_bound(
        kind_sel in 0usize..3,
        tick_ms in prop_oneof![Just(50u64), Just(100), Just(250)],
        plan_sel in 0usize..3,
        load_src in 0usize..=2,
        load_dst in 0usize..=2,
        mem in prop_oneof![Just(None), (0.2f64..=0.95).prop_map(Some)],
        rate_cap in prop_oneof![Just(None), Just(Some(6.0e7)), Just(Some(1.1e8))],
        seed in 0u64..10_000,
    ) {
        let kind = [MigrationKind::Live, MigrationKind::NonLive, MigrationKind::PostCopy][kind_sel];
        let faults = [FaultConfig::default(), FaultConfig::light(), certain_abort()][plan_sel];
        let mut cfg = MigrationConfig::with_faults(kind, faults);
        cfg.timing.tick = SimDuration::from_millis(tick_ms);
        cfg.precopy.rate_limit_bps = rate_cap;
        let setup = Setup { load_src, load_dst, mem_ratio: mem };
        let tag = format!(
            "prop kind={} tick={tick_ms}ms plan={plan_sel} seed={seed}",
            kind.label()
        );
        run_pair_and_assert(&tag, setup, cfg, seed);
    }
}
