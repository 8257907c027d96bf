//! The analytic fast path: closed-form per-phase energy integration.
//!
//! [`run_analytic`] replays the *same* migration dynamics as the sampled
//! reference engine — identical stage machine, CPU-coupled bandwidth,
//! dirty-page saturation, fault plan and per-run jitter — but integrates
//! energy exactly instead of materialising a 2 Hz meter trace:
//!
//! * the tick loop covers only `[ms, me]` (no lead-in or stabilising tail
//!   ticks — neither contributes to any phase window);
//! * each tick's piecewise-constant ground-truth power is accumulated
//!   into per-phase [`TermIntegral`]s by exact integer-µs overlap, so the
//!   deterministic energy is the *exact* integral of the engine's power
//!   signal (the sampled path approximates the same integral with a 2 Hz
//!   trapezoid — an `O(h)` difference bounded by the differential
//!   harness);
//! * the slow OU power wander is integrated per phase window from its
//!   exact discrete-step moments ([`OuIntegrator`]) on counter-based RNG
//!   streams (`wander.analytic.*`), two draws per window instead of one
//!   per tick — the sampled path's own streams are left untouched, so
//!   sampled results stay byte-identical whether or not this path exists;
//! * host/VM state lives in flat per-host slot vectors (no cluster
//!   mutation, no per-tick map lookups), demand curves come from
//!   [`WorkloadProfile`]s (sinusoid ripple advanced by a unit rotation
//!   per tick), and `u^e` / `exp` in the inner loop are served from
//!   small memo/Taylor caches;
//! * when every VM on both hosts has constant demand, power is constant
//!   between events (Eqs. 5–7 are linear in their inputs within a
//!   phase), so the quiet ticks between events are stepped as *spans*.
//!   A span runs until the next stage edge, post-copy handover, abort,
//!   link-window edge or horizon, and stops before any tick that would
//!   complete a round or straddle a phase window. Its ticks replay only
//!   the state updates — bytes moved, the dirty-page recurrence, and the
//!   cached power terms accumulated per tick — with the same float
//!   operations in the same order, so results are bit-identical to
//!   ticking. Any tick outside a span takes the full prelude.
//!
//! ## Known, documented approximations (all bounded or zero-mean)
//!
//! * Wander energy is booked per *tick*, attributed to the window owning
//!   the tick (`idx(t) = ceil(t/dt)`); the sub-tick misassignment at
//!   window boundaries is zero-mean and at most one tick of wander.
//! * The sampled path clamps instantaneous power at 0 W; the analytic
//!   wander does not, which only matters if wander excursions exceed the
//!   idle floor (σ = 9 W vs ≥ 400 W floors — never in practice).
//! * Ripple demand uses a rotation recurrence (drift ≈ 1 ulp per period)
//!   and `u^e` a ±2·10⁻³-radius second-order Taylor expansion (relative
//!   error ≤ 10⁻⁶ of the dynamic-power term).
//!
//! No per-sample rows exist on this path, so [`MigrationRecord`] carries
//! empty meter/truth traces, telemetry and feature samples; everything
//! deterministic (phases, rounds, bytes, downtime, outcome, fault events)
//! is produced by the same decision logic as the sampled engine.

use crate::config::MigrationKind;
use crate::record::{MigrationOutcome, MigrationRecord, RoundStats};
use crate::simulation::{MigrationSimulation, RunJitter, PEAK_PAGE_WRITE_RATE};
use std::collections::BTreeMap;
use std::sync::Arc;
use wavm3_cluster::{
    cpu::vmm_overhead_cores, CpuAccounting, Host, Link, PowerProfile, VmId, PAGE_SIZE_BYTES,
};
use wavm3_faults::{observe_fault, FaultEvent, FaultPlan};
use wavm3_obs::{metrics, LedgerEntry, RoleLedger, TermEnergy};
use wavm3_power::{
    EnergyBreakdown, OuIntegrator, PhaseTimes, PowerInputs, PowerTerms, PowerTrace,
    TelemetryRecorder, TermIntegral,
};
use wavm3_simkit::{CounterRng, RngFactory, SimDuration, SimTime};
use wavm3_workloads::{DemandProfile, Workload};

/// Coarse engine state, mirroring the sampled engine's stage machine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Stage {
    Pre,
    Initiation,
    Transfer,
    Activation,
}

/// In-flight transfer bookkeeping (identical to the sampled engine's).
#[derive(Debug, Clone, Copy)]
struct Xfer {
    round: usize,
    remaining_bytes: f64,
    round_bytes_sent: f64,
    round_start: SimTime,
    stop_and_copy: bool,
}

/// A CPU-demand curve specialised for per-tick evaluation.
enum CpuCurve {
    /// Time-invariant demand.
    Constant(f64),
    /// `target·(1 + half_ripple·sin)` advanced by a unit rotation per
    /// tick — the matmul ripple without a `sin` call in the loop.
    Osc {
        s: f64,
        c: f64,
        step_s: f64,
        step_c: f64,
        target: f64,
        half_ripple: f64,
    },
    /// No closed form: query the trait object every tick.
    General,
}

/// One resident VM in a host's placement order — the struct-of-arrays
/// `Vm` twin the inner loop iterates without touching the cluster.
struct Slot {
    vcpus: f64,
    /// Stored demand, mirroring `Vm::set_cpu_demand` (already clamped).
    demand: f64,
    running: bool,
    is_migrant: bool,
    cpu: CpuCurve,
    /// Constant page-write rate, or `None` → trait query per use.
    write_rate: Option<f64>,
    /// Constant NIC line share, or `None` → trait query per use.
    line_share: Option<f64>,
    /// Trait object for `General` fallbacks (and the migrant's working
    /// set); `None` for VMs with no workload attached.
    wl: Option<Arc<dyn Workload>>,
}

impl Slot {
    #[inline]
    fn write_rate_at(&self, t: SimTime) -> f64 {
        match self.write_rate {
            Some(r) => r,
            None => self
                .wl
                .as_ref()
                .map(|w| w.page_write_rate(t))
                .unwrap_or(0.0),
        }
    }

    #[inline]
    fn line_share_at(&self, t: SimTime) -> f64 {
        match self.line_share {
            Some(v) => v,
            None => self.wl.as_ref().map(|w| w.line_share(t)).unwrap_or(0.0),
        }
    }
}

/// Placement-order folds the engine needs once per tick, produced by a
/// single fused pass over a host's slots.
#[derive(Clone, Copy, Default)]
struct TickSums {
    /// CPU demand fold of running VMs (placement order, starts at 0.0 —
    /// the exact fold `Host::cpu_allocation` performs).
    vm_cores: f64,
    /// Running VM count (with or without a workload) for the VMM
    /// overhead curve.
    running: usize,
    /// NIC line-share fold of running guests with workloads (uncapped).
    line_share: f64,
    /// Page-write-rate fold of running guests with workloads.
    write_rate: f64,
}

/// Recycled per-worker buffers for repeated analytic runs.
///
/// A campaign worker holds one `RunSlot` and threads it through every
/// repetition it executes
/// ([`MigrationSimulation::run_analytic_reusing`]); the host slot
/// vectors, round-statistics buffer and fault-window bitmap keep their
/// capacity between runs, so the steady-state tick loop performs no heap
/// allocation at all. A default (empty) slot behaves identically to the
/// one-shot path — results are a pure function of the scenario and RNG,
/// never of what the buffers held before.
#[derive(Default)]
pub struct RunSlot {
    src_slots: Vec<Slot>,
    dst_slots: Vec<Slot>,
    rounds: Vec<RoundStats>,
    link_seen: Vec<bool>,
}

/// One host's mutable simulation state.
struct HostState {
    capacity: f64,
    slots: Vec<Slot>,
}

impl HostState {
    /// Build the host's slot array into `slots` (a recycled buffer —
    /// cleared first, so only its capacity survives between runs).
    fn from_host(
        host: &Host,
        workloads: &BTreeMap<VmId, Arc<dyn Workload>>,
        migrant: VmId,
        t0: SimTime,
        dt_s: f64,
        mut slots: Vec<Slot>,
    ) -> Self {
        use std::f64::consts::TAU;
        slots.clear();
        slots.extend(host.vms().iter().map(|vm| {
            let wl = workloads.get(&vm.id).cloned();
            let profile = wl.as_ref().map(|w| w.demand_profile());
            let cpu = match profile.as_ref().map(|p| p.cpu) {
                Some(DemandProfile::Constant(c)) => CpuCurve::Constant(c),
                Some(DemandProfile::Ripple {
                    target,
                    ripple,
                    period_s,
                    phase,
                }) => {
                    let arg = TAU * (t0.as_secs_f64() / period_s + phase);
                    let step = TAU * (dt_s / period_s);
                    CpuCurve::Osc {
                        s: arg.sin(),
                        c: arg.cos(),
                        step_s: step.sin(),
                        step_c: step.cos(),
                        target,
                        half_ripple: 0.5 * ripple,
                    }
                }
                Some(DemandProfile::General) => CpuCurve::General,
                // No workload attached: demand is never refreshed.
                None => CpuCurve::Constant(0.0),
            };
            Slot {
                vcpus: vm.spec.vcpus as f64,
                demand: 0.0,
                running: vm.is_running(),
                is_migrant: vm.id == migrant,
                cpu,
                write_rate: profile.as_ref().and_then(|p| p.page_write_rate),
                line_share: profile.as_ref().and_then(|p| p.line_share),
                wl,
            }
        }));
        HostState {
            capacity: host.spec.cpu_capacity(),
            slots,
        }
    }

    /// Refresh every workload's CPU demand (advancing each ripple
    /// oscillator by one tick) and fold the sums this tick needs, all in
    /// one placement-order pass. `migrant_factor` is the post-copy
    /// degraded-demand multiplier, applied to the migrant slot only
    /// (pass 1.0 otherwise — an exact no-op).
    ///
    /// Suspension flags must be synced *before* the call: the folds read
    /// them, exactly like `Vm::cpu_demand` gating on the Running state.
    #[inline]
    fn refresh_tick(&mut self, now: SimTime, migrant_factor: f64) -> TickSums {
        let mut sums = TickSums::default();
        for slot in &mut self.slots {
            if let Some(wl) = &slot.wl {
                let mut demand = match &mut slot.cpu {
                    CpuCurve::Constant(c) => *c,
                    CpuCurve::Osc {
                        s,
                        c,
                        step_s,
                        step_c,
                        target,
                        half_ripple,
                    } => {
                        let factor = 1.0 + *half_ripple * *s;
                        let d = (*target * factor).max(0.0);
                        let (ns, nc) = (*s * *step_c + *c * *step_s, *c * *step_c - *s * *step_s);
                        *s = ns;
                        *c = nc;
                        d
                    }
                    CpuCurve::General => wl.cpu_demand(now),
                };
                if slot.is_migrant {
                    demand *= migrant_factor;
                }
                // Vm::set_cpu_demand semantics.
                slot.demand = demand.clamp(0.0, slot.vcpus);
            }
            if slot.running {
                sums.running += 1;
                sums.vm_cores += slot.demand;
                if slot.wl.is_some() {
                    sums.line_share += slot.line_share_at(now);
                    sums.write_rate += slot.write_rate_at(now);
                }
            } else {
                sums.vm_cores += 0.0;
            }
        }
        sums
    }

    /// Advance every demand curve and fold running `vm_cores` only — the
    /// per-tick work of a host whose line-share / write-rate folds are
    /// profile constants (cached between events). The demand updates and
    /// the fold order are exactly [`HostState::refresh_tick`]'s, so the
    /// result is bit-identical to the full pass.
    #[inline]
    fn refresh_vm_cores(&mut self, now: SimTime, migrant_factor: f64) -> f64 {
        let mut vm_cores = 0.0;
        for slot in &mut self.slots {
            if let Some(wl) = &slot.wl {
                let mut demand = match &mut slot.cpu {
                    CpuCurve::Constant(c) => *c,
                    CpuCurve::Osc {
                        s,
                        c,
                        step_s,
                        step_c,
                        target,
                        half_ripple,
                    } => {
                        let factor = 1.0 + *half_ripple * *s;
                        let d = (*target * factor).max(0.0);
                        let (ns, nc) = (*s * *step_c + *c * *step_s, *c * *step_c - *s * *step_s);
                        *s = ns;
                        *c = nc;
                        d
                    }
                    CpuCurve::General => wl.cpu_demand(now),
                };
                if slot.is_migrant {
                    demand *= migrant_factor;
                }
                slot.demand = demand.clamp(0.0, slot.vcpus);
            }
            if slot.running {
                vm_cores += slot.demand;
            }
        }
        vm_cores
    }

    /// Placement-order running write-rate fold, for the rare ticks where
    /// the transfer sub-loop changes placement or suspension mid-tick
    /// (the memory-activity term reads the *post*-sub-loop state).
    fn write_rate_sum(&self, t: SimTime) -> f64 {
        let mut rate = 0.0;
        for s in &self.slots {
            if s.running && s.wl.is_some() {
                rate += s.write_rate_at(t);
            }
        }
        rate
    }

    fn migrant_index(&self) -> Option<usize> {
        self.slots.iter().position(|s| s.is_migrant)
    }
}

/// Memo + second-order Taylor cache for `u^e` (the CPU power curve).
/// Exact on repeated inputs (saturated or constant-utilisation hosts hit
/// the memo every tick); within a ±2·10⁻³ window it expands around the
/// last exactly-evaluated point with relative error ≤ 10⁻⁶.
struct PowCache {
    e: f64,
    u0: f64,
    f0: f64,
    d1: f64,
    d2: f64,
    last_u: f64,
    last_f: f64,
}

impl PowCache {
    fn new(e: f64) -> Self {
        PowCache {
            e,
            u0: f64::NAN,
            f0: 0.0,
            d1: 0.0,
            d2: 0.0,
            last_u: f64::NAN,
            last_f: 0.0,
        }
    }

    #[inline]
    fn eval(&mut self, u: f64) -> f64 {
        if u == self.last_u {
            return self.last_f;
        }
        let du = u - self.u0;
        let f = if du.abs() <= 2.0e-3 && self.u0 >= 0.01 {
            self.f0 + du * (self.d1 + du * (0.5 * self.d2))
        } else {
            self.rebase(u)
        };
        self.last_u = u;
        self.last_f = f;
        f
    }

    fn rebase(&mut self, u: f64) -> f64 {
        let f = u.powf(self.e);
        self.u0 = u;
        self.f0 = f;
        if u > 0.0 {
            self.d1 = self.e * f / u;
            self.d2 = self.e * (self.e - 1.0) * f / (u * u);
        } else {
            self.d1 = 0.0;
            self.d2 = 0.0;
        }
        f
    }
}

/// Single-entry memo for `exp` (the dirty-saturation factor is constant
/// for every full-length sub-step of a round).
struct ExpCache {
    arg: f64,
    val: f64,
}

impl ExpCache {
    fn new() -> Self {
        ExpCache {
            arg: f64::NAN,
            val: 0.0,
        }
    }

    #[inline]
    fn eval(&mut self, arg: f64) -> f64 {
        if arg != self.arg {
            self.arg = arg;
            self.val = arg.exp();
        }
        self.val
    }
}

/// Ground-truth terms with the `u^e` served from the cache; otherwise the
/// same arithmetic (and rounding order) as `ground_truth_terms`.
#[inline]
fn terms_for(profile: &PowerProfile, inputs: PowerInputs, pow: &mut PowCache) -> PowerTerms {
    let i = inputs.clamped();
    let cpu_power = profile.idle_w + profile.cpu_dynamic_w * pow.eval(i.cpu_utilisation);
    PowerTerms {
        idle_w: profile.idle_w,
        cpu_w: cpu_power - profile.idle_w,
        mem_dirty_w: profile.mem_contention_w * i.mem_activity,
        network_w: profile.nic_w_at_line_rate * i.nic_utilisation,
        service_w: i.service_w,
    }
}

/// Overlap of `[a, b)` with `[lo, hi)` in µs.
#[inline]
fn overlap_us(a: u64, b: u64, lo: u64, hi: u64) -> u64 {
    b.min(hi).saturating_sub(a.max(lo))
}

/// Spread a window's wander energy across its deterministic terms pro
/// rata, mirroring the sampled path's `TermTraces::record` attribution
/// (degenerate windows book everything under the idle floor).
fn spread(det: &TermIntegral, wander_j: f64) -> TermEnergy {
    let total = det.total_j();
    if total > 0.0 {
        let t = det.scaled((total + wander_j) / total);
        TermEnergy {
            idle_j: t.idle_j,
            cpu_j: t.cpu_j,
            mem_dirty_j: t.mem_dirty_j,
            network_j: t.network_j,
            service_j: t.service_j,
        }
    } else {
        TermEnergy {
            idle_j: wander_j,
            ..TermEnergy::default()
        }
    }
}

/// Mark newly-entered degraded-link windows (once each) and emit their
/// fault events — the sampled engine's per-tick check, verbatim.
fn note_link_windows(
    plan: &FaultPlan,
    seen: &mut [bool],
    events: &mut Vec<FaultEvent>,
    now: SimTime,
) {
    for (i, w) in plan.link_windows().iter().enumerate() {
        if w.window.contains(now) && !seen[i] {
            seen[i] = true;
            events.push(FaultEvent::LinkDegraded {
                window: w.window,
                bandwidth_factor: w.bandwidth_factor,
            });
            observe_fault(events.last().expect("just pushed"));
        }
    }
}

/// Run the scenario on the analytic path. See the module docs for the
/// contract with the sampled reference engine.
pub(crate) fn run_analytic(sim: MigrationSimulation) -> MigrationRecord {
    let rng = sim.rng;
    run_analytic_reusing(&sim, rng, &mut RunSlot::default())
}

/// [`run_analytic`] on a borrowed scenario with recycled buffers and a
/// caller-supplied RNG root: campaign workers rebuild neither the cluster
/// nor the slot arrays between repetitions. Bit-identical to the one-shot
/// path for the same `(sim, rng)`.
pub(crate) fn run_analytic_reusing(
    sim: &MigrationSimulation,
    rng: RngFactory,
    arena: &mut RunSlot,
) -> MigrationRecord {
    let _perf = wavm3_obs::perf::scope("migration.run.analytic");
    let cluster = &sim.cluster;
    let workloads = &sim.workloads;
    let migrant = sim.migrant;
    let source = sim.source;
    let target = sim.target;
    let cfg = sim.config;

    let dt = cfg.timing.tick;
    let dt_s = dt.as_secs_f64();
    let dt_us = dt.as_micros();

    let migrant_ram_bytes = cluster
        .vm(migrant)
        .expect("migrant exists")
        .memory
        .total_bytes();
    let migrant_total_pages = migrant_ram_bytes / PAGE_SIZE_BYTES;
    let vm_ram_mib = cluster.vm(migrant).unwrap().spec.ram_mib;
    let link: Link = cluster.link;
    let (src_name, dst_name, src_power, dst_power, machine_set, idle_power_w) = {
        let s = &cluster.host(source).spec;
        let t = &cluster.host(target).spec;
        assert_eq!(
            s.set, t.set,
            "paper scenario: homogeneous source and target (Xen restriction)"
        );
        (
            s.name.clone(),
            t.name.clone(),
            s.power,
            t.power,
            s.set,
            s.power.idle_w,
        )
    };

    // Same per-run jitter streams (and therefore the same draws) as the
    // sampled path; the wander moves to dedicated counter streams.
    let noise = cfg.env_noise;
    let src_jitter = RunJitter::draw(&mut rng.stream("jitter.source"), &noise);
    let dst_jitter = RunJitter::draw(&mut rng.stream("jitter.target"), &noise);
    let src_power = src_jitter.apply(src_power);
    let dst_power = dst_jitter.apply(dst_power);
    let mut src_wander: OuIntegrator<CounterRng> = OuIntegrator::new(
        noise.wander_tau_s,
        noise.wander_std_w,
        dt_s,
        rng.counter_stream("wander.analytic.source"),
    );
    let mut dst_wander: OuIntegrator<CounterRng> = OuIntegrator::new(
        noise.wander_tau_s,
        noise.wander_std_w,
        dt_s,
        rng.counter_stream("wander.analytic.target"),
    );
    let ledger_on = wavm3_obs::ledger_active();

    let fault_plan = FaultPlan::generate(&cfg.faults, &rng);
    let mut fault_events: Vec<FaultEvent> = Vec::new();
    let mut link_window_seen = std::mem::take(&mut arena.link_seen);
    link_window_seen.clear();
    link_window_seen.resize(fault_plan.link_windows().len(), false);
    let mut aborted = false;

    // Phase instants (`ts` collapses on an abort during initiation).
    let ms = SimTime::ZERO + cfg.timing.pre_run;
    let mut ts = ms + cfg.timing.initiation;
    let mut te: Option<SimTime> = None;
    let mut me: Option<SimTime> = None;

    // Slot state starts at the first processed tick: the one containing
    // `ms` (it can straddle `ms` when the tick doesn't divide it, and its
    // `[ms, ·)` remainder belongs to the initiation window).
    let k0 = ms.as_micros() / dt_us;
    let mut now = SimTime::from_micros(k0 * dt_us);
    let mut hsrc = HostState::from_host(
        cluster.host(source),
        workloads,
        migrant,
        now,
        dt_s,
        std::mem::take(&mut arena.src_slots),
    );
    let mut hdst = HostState::from_host(
        cluster.host(target),
        workloads,
        migrant,
        now,
        dt_s,
        std::mem::take(&mut arena.dst_slots),
    );
    let mut m_idx = hsrc.migrant_index().expect("migrant starts on the source");
    let migrant_wl = workloads.get(&migrant).cloned();
    let migrant_ws_pages = migrant_wl
        .as_ref()
        .map(|w| w.working_set_fraction() * migrant_total_pages as f64)
        .unwrap_or(0.0);

    let mut pow_src = PowCache::new(src_power.cpu_exponent);
    let mut pow_dst = PowCache::new(dst_power.cpu_exponent);
    let mut dirty_exp = ExpCache::new();

    let mut stage = Stage::Pre;
    let mut xfer: Option<Xfer> = None;
    let mut dirty_pages: f64 = 0.0;
    let mut total_bytes: f64 = 0.0;
    let mut current_bw: f64;
    let mut suspend_time: Option<SimTime> = None;
    let mut resume_time: Option<SimTime> = None;
    let mut migrant_on_target = false;
    let mut migrant_running = true;
    let mut rounds = std::mem::take(&mut arena.rounds);
    rounds.clear();

    // Per-phase deterministic integrals: [initiation, transfer, tail].
    let mut int_src = [TermIntegral::default(); 3];
    let mut int_dst = [TermIntegral::default(); 3];

    // --- Tick-invariant prelude cache. ---------------------------------
    // On hosts whose every demand curve is `CpuCurve::Constant` (and whose
    // workload folds come from profile constants), the entire prelude —
    // demand refresh, CPU allocation, coupled bandwidth, power terms — is
    // invariant between state-changing events: stage boundaries, suspend /
    // resume / relocation, post-copy demand ramp, fault-window edges.
    // `cache_dirty` marks those events; the ticks in between are stepped
    // as spans that reuse the last full tick's values, bit-identical to
    // recomputation because every input is unchanged. Oscillating or
    // `General` demand curves keep `cache_dirty` latched, i.e. the full
    // per-tick prelude.
    let host_const = |h: &HostState| {
        h.slots.iter().all(|s| {
            matches!(s.cpu, CpuCurve::Constant(_))
                && (s.wl.is_none() || (s.write_rate.is_some() && s.line_share.is_some()))
        })
    };
    // Per-host flags go stale when the migrant slot relocates, so they are
    // refreshed at both relocation sites; the conjunctions `fast_ok` /
    // `semi_ok` range over the union of slots and are relocation-invariant.
    let mut src_const = host_const(&hsrc);
    let mut dst_const = host_const(&hdst);
    let fast_ok = src_const && dst_const;
    // Weaker tier for hosts with oscillating demand: when every workload's
    // line-share / write-rate folds are profile constants, only `vm_cores`
    // (and whatever depends on it) needs per-tick recomputation; the
    // constant folds, running counts and the non-CPU power terms are
    // reused between events — each reuse bit-identical to recomputation.
    let folds_const = |h: &HostState| {
        h.slots
            .iter()
            .all(|s| s.wl.is_none() || (s.write_rate.is_some() && s.line_share.is_some()))
    };
    let semi_ok = folds_const(&hsrc) && folds_const(&hdst);
    let mut cache_dirty = true;
    let mut c_src_running = 0usize;
    let mut c_dst_running = 0usize;
    let mut c_src_wrf = 0.0;
    let mut c_dst_wrf = 0.0;
    let mut c_migrant_factor = f64::NAN;
    let mut c_bw = 0.0;
    let mut c_migrant_wr = 0.0;
    let mut c_src_alloc = CpuAccounting::default().allocate(1.0);
    let mut c_dst_alloc = c_src_alloc;
    let mut c_src_bg = 0.0;
    let mut c_dst_bg = 0.0;
    let mut c_src_terms = PowerTerms::default();
    let mut c_dst_terms = PowerTerms::default();

    let horizon = SimTime::from_secs(3_600);

    // Tick-cache tier tallies (flushed once per run into the profiler so
    // the hot loop never touches shared state). Ticks stepped inside
    // spans report as `fast_hit`.
    let mut ticks_full: u64 = 0;
    let mut ticks_spanned: u64 = 0;
    let mut ticks_semi: u64 = 0;
    let mut spans: u64 = 0;

    let _perf_ticks = wavm3_obs::perf::scope("analytic.tick_loop");
    loop {
        if let Some(me_t) = me {
            if now >= me_t {
                break;
            }
        }
        assert!(now < horizon, "simulation failed to terminate");

        // --- Stage transitions on wall-clock boundaries (cascading). ---
        if stage == Stage::Pre && now >= ms {
            stage = Stage::Initiation;
            cache_dirty = true;
            if cfg.kind == MigrationKind::NonLive {
                migrant_running = false;
                suspend_time = Some(now);
            }
        }
        if stage == Stage::Initiation && now >= ts {
            stage = Stage::Transfer;
            cache_dirty = true;
            xfer = Some(Xfer {
                round: 0,
                remaining_bytes: migrant_ram_bytes as f64,
                round_bytes_sent: 0.0,
                round_start: now,
                stop_and_copy: false,
            });
            dirty_pages = 0.0;
            if cfg.kind == MigrationKind::PostCopy {
                migrant_running = false;
                suspend_time = Some(now);
                let slot = hsrc.slots.remove(m_idx);
                hdst.slots.push(slot);
                m_idx = hdst.slots.len() - 1;
                migrant_on_target = true;
                src_const = host_const(&hsrc);
                dst_const = host_const(&hdst);
            }
        }
        if cfg.kind == MigrationKind::PostCopy
            && migrant_on_target
            && resume_time.is_none()
            && now >= ts + cfg.timing.postcopy_handover
        {
            migrant_running = true;
            resume_time = Some(now);
            cache_dirty = true;
        }

        // --- Injected abort: identical gating to the sampled engine. ---
        if !aborted
            && matches!(stage, Stage::Initiation | Stage::Transfer)
            && !migrant_on_target
            && fault_plan.abort_at().is_some_and(|t| now >= t)
        {
            aborted = true;
            fault_events.push(FaultEvent::Aborted {
                at: now,
                bytes_sent: total_bytes.round() as u64,
            });
            observe_fault(fault_events.last().expect("just pushed"));
            if !migrant_running {
                migrant_running = true;
                resume_time = Some(now);
            }
            if stage == Stage::Initiation {
                ts = now; // the transfer never started
            }
            te = Some(now);
            me = Some(now + cfg.timing.activation);
            xfer = None;
            dirty_pages = 0.0;
            stage = Stage::Activation;
            cache_dirty = true;
        }

        // --- Refresh demands and fold per-host tick sums (one pass). ---
        // Suspension gates the demand at read time, as Vm::cpu_demand
        // does, so the migrant's flag syncs before the fold.
        {
            let m = if migrant_on_target {
                &mut hdst.slots[m_idx]
            } else {
                &mut hsrc.slots[m_idx]
            };
            if m.running != migrant_running {
                m.running = migrant_running;
                cache_dirty = true;
            }
        }
        let migrant_factor = if cfg.kind == MigrationKind::PostCopy && stage == Stage::Transfer {
            let progress = xfer
                .map(|x| 1.0 - (x.remaining_bytes / migrant_ram_bytes as f64).clamp(0.0, 1.0))
                .unwrap_or(1.0);
            0.55 + 0.45 * progress
        } else {
            1.0
        };
        if migrant_factor != c_migrant_factor {
            cache_dirty = true;
        }

        let stage_at_prelude = stage;
        let mut sums_stale = false;
        let mut semi_partial = false;
        let src_wr_fold;
        let dst_wr_fold;
        let migrant_wr;
        let src_alloc;
        let dst_alloc;
        let src_bg;
        let dst_bg;
        if cache_dirty {
            ticks_full += 1;
            let src_sums = hsrc.refresh_tick(now, migrant_factor);
            let dst_sums = hdst.refresh_tick(now, migrant_factor);

            // --- Migration CPU demand per stage (CPU_migr of Eq. 2). ---
            migrant_wr = {
                let m = if migrant_on_target {
                    &hdst.slots[m_idx]
                } else {
                    &hsrc.slots[m_idx]
                };
                if m.wl.is_some() {
                    m.write_rate_at(now)
                } else {
                    0.0
                }
            };
            let migrant_running_on_source = !migrant_on_target && migrant_running;
            let dirty_intensity = if cfg.kind == MigrationKind::Live && migrant_running_on_source {
                (migrant_wr / PEAK_PAGE_WRITE_RATE).min(1.0)
            } else {
                0.0
            };
            let (migr_src_cores, migr_dst_cores) = match stage {
                Stage::Initiation | Stage::Activation => {
                    (cfg.cpu_cost.control_cores, cfg.cpu_cost.control_cores)
                }
                Stage::Transfer => (
                    cfg.cpu_cost.source_cores_at_line_rate
                        + cfg.cpu_cost.dirty_tracking_cores * dirty_intensity,
                    cfg.cpu_cost.target_cores_at_line_rate,
                ),
                Stage::Pre => (0.0, 0.0),
            };

            // --- Resolve CPU allocations and the coupled bandwidth. ---
            src_alloc = CpuAccounting {
                vmm_cores: vmm_overhead_cores(src_sums.running),
                vm_cores: src_sums.vm_cores,
                migration_cores: migr_src_cores.max(0.0),
            }
            .allocate(hsrc.capacity);
            dst_alloc = CpuAccounting {
                vmm_cores: vmm_overhead_cores(dst_sums.running),
                vm_cores: dst_sums.vm_cores,
                migration_cores: migr_dst_cores.max(0.0),
            }
            .allocate(hdst.capacity);
            src_bg = src_sums.line_share.min(1.0);
            dst_bg = dst_sums.line_share.min(1.0);
            current_bw = if stage == Stage::Transfer {
                let free_line = (1.0 - src_bg.max(dst_bg)).max(0.02);
                let fault_factor = fault_plan.bandwidth_factor_at(now);
                if fault_factor < 1.0 {
                    note_link_windows(&fault_plan, &mut link_window_seen, &mut fault_events, now);
                }
                let base = link.effective_bandwidth(src_alloc.scale, dst_alloc.scale) * free_line;
                let bw = base * fault_factor;
                match cfg.precopy.rate_limit_bps {
                    Some(cap) => bw.min(cap.max(1.0)),
                    None => bw,
                }
            } else {
                0.0
            };

            c_migrant_factor = migrant_factor;
            c_migrant_wr = migrant_wr;
            c_src_alloc = src_alloc;
            c_dst_alloc = dst_alloc;
            c_src_bg = src_bg;
            c_dst_bg = dst_bg;
            c_bw = current_bw;
            c_src_running = src_sums.running;
            c_dst_running = dst_sums.running;
            c_src_wrf = src_sums.write_rate;
            c_dst_wrf = dst_sums.write_rate;
            src_wr_fold = src_sums.write_rate;
            dst_wr_fold = dst_sums.write_rate;
            cache_dirty = !semi_ok;
        } else {
            // Semi-cached tick (oscillating demand, constant folds):
            // advance the curves and re-fold `vm_cores`, reuse everything
            // whose inputs cannot have moved since the last event. A host
            // that is itself fully constant skips even that — its fold,
            // allocation and power terms are frozen between events.
            ticks_semi += 1;
            migrant_wr = c_migrant_wr;
            let migrant_running_on_source = !migrant_on_target && migrant_running;
            let dirty_intensity = if cfg.kind == MigrationKind::Live && migrant_running_on_source {
                (migrant_wr / PEAK_PAGE_WRITE_RATE).min(1.0)
            } else {
                0.0
            };
            let (migr_src_cores, migr_dst_cores) = match stage {
                Stage::Initiation | Stage::Activation => {
                    (cfg.cpu_cost.control_cores, cfg.cpu_cost.control_cores)
                }
                Stage::Transfer => (
                    cfg.cpu_cost.source_cores_at_line_rate
                        + cfg.cpu_cost.dirty_tracking_cores * dirty_intensity,
                    cfg.cpu_cost.target_cores_at_line_rate,
                ),
                Stage::Pre => (0.0, 0.0),
            };
            src_alloc = if src_const {
                c_src_alloc
            } else {
                CpuAccounting {
                    vmm_cores: vmm_overhead_cores(c_src_running),
                    vm_cores: hsrc.refresh_vm_cores(now, migrant_factor),
                    migration_cores: migr_src_cores.max(0.0),
                }
                .allocate(hsrc.capacity)
            };
            dst_alloc = if dst_const {
                c_dst_alloc
            } else {
                CpuAccounting {
                    vmm_cores: vmm_overhead_cores(c_dst_running),
                    vm_cores: hdst.refresh_vm_cores(now, migrant_factor),
                    migration_cores: migr_dst_cores.max(0.0),
                }
                .allocate(hdst.capacity)
            };
            src_bg = c_src_bg;
            dst_bg = c_dst_bg;
            current_bw = if stage == Stage::Transfer {
                let free_line = (1.0 - src_bg.max(dst_bg)).max(0.02);
                let fault_factor = fault_plan.bandwidth_factor_at(now);
                if fault_factor < 1.0 {
                    note_link_windows(&fault_plan, &mut link_window_seen, &mut fault_events, now);
                }
                let base = link.effective_bandwidth(src_alloc.scale, dst_alloc.scale) * free_line;
                let bw = base * fault_factor;
                match cfg.precopy.rate_limit_bps {
                    Some(cap) => bw.min(cap.max(1.0)),
                    None => bw,
                }
            } else {
                0.0
            };
            // Unchanged bandwidth (unsaturated endpoints) leaves every
            // non-CPU term of the last tick valid.
            semi_partial = current_bw == c_bw;
            c_bw = current_bw;
            src_wr_fold = c_src_wrf;
            dst_wr_fold = c_dst_wrf;
        }

        // --- Advance the transfer within this tick (may cross rounds). ---
        if stage == Stage::Transfer {
            let write_rate = migrant_wr;
            let mut t_cur = now;
            let mut dt_left = dt_s;
            while dt_left > 1e-12 {
                let x = xfer.as_mut().expect("transfer state exists");
                if current_bw <= 0.0 {
                    break; // fully starved this tick; try again next tick
                }
                // Mid-round full ticks skip the division: the guard's
                // relative margin exceeds the rounding error of the `*`
                // and `/` involved, so whenever it fires `remaining/bw`
                // exceeds `dt_left` and `min` would pick `dt_left` — the
                // exact `(step, moved)` the divided path produces.
                let full_tick = current_bw * dt_left;
                let (step, moved) = if x.remaining_bytes > full_tick * 1.000_000_1 {
                    (dt_left, full_tick)
                } else {
                    let step = (x.remaining_bytes / current_bw).min(dt_left);
                    (step, current_bw * step)
                };
                x.remaining_bytes -= moved;
                x.round_bytes_sent += moved;
                total_bytes += moved;
                if cfg.kind == MigrationKind::Live && migrant_running && migrant_ws_pages >= 1.0 {
                    dirty_pages = migrant_ws_pages
                        - (migrant_ws_pages - dirty_pages)
                            * dirty_exp.eval(-write_rate * step / migrant_ws_pages);
                }
                let completes = x.remaining_bytes <= 0.5;
                if completes || step < dt_left {
                    // `t_cur` is only ever read at a round boundary; a
                    // full step that completes nothing ends the tick, so
                    // its µs conversion is unobservable and skipped.
                    t_cur += SimDuration::from_secs_f64(step);
                }
                dt_left -= step;
                if completes {
                    // Round complete at t_cur.
                    let pages_sent = (x.round_bytes_sent / PAGE_SIZE_BYTES as f64).max(1.0);
                    let d_end = dirty_pages.round() as u64;
                    rounds.push(RoundStats {
                        round: x.round,
                        bytes_sent: x.round_bytes_sent.round() as u64,
                        duration: t_cur - x.round_start,
                        dirty_at_end_pages: d_end,
                        stop_and_copy: x.stop_and_copy,
                    });
                    let finish = |te_slot: &mut Option<SimTime>,
                                  me_slot: &mut Option<SimTime>,
                                  t_end: SimTime| {
                        *te_slot = Some(t_end);
                        *me_slot = Some(t_end + cfg.timing.activation);
                    };
                    if x.stop_and_copy || cfg.kind != MigrationKind::Live {
                        finish(&mut te, &mut me, t_cur);
                        stage = Stage::Activation;
                    } else {
                        let threshold = cfg.precopy.stop_threshold_pages as f64;
                        let stall = d_end as f64 >= cfg.precopy.stall_ratio * pages_sent;
                        let cap = x.round + 1 >= cfg.precopy.max_rounds;
                        let forced = d_end > 0
                            && fault_plan
                                .force_stop_after_rounds()
                                .is_some_and(|c| x.round + 1 >= c)
                            && !(d_end as f64 <= threshold || stall || cap);
                        if forced {
                            fault_events.push(FaultEvent::ForcedStopAndCopy {
                                at: t_cur,
                                after_rounds: x.round + 1,
                            });
                            observe_fault(fault_events.last().expect("just pushed"));
                        }
                        if d_end == 0 {
                            finish(&mut te, &mut me, t_cur);
                            stage = Stage::Activation;
                        } else if d_end as f64 <= threshold || stall || cap || forced {
                            // Final stop-and-copy: suspend the VM.
                            migrant_running = false;
                            hsrc.slots[m_idx].running = false;
                            sums_stale = true;
                            suspend_time = Some(t_cur);
                            *x = Xfer {
                                round: x.round + 1,
                                remaining_bytes: d_end as f64 * PAGE_SIZE_BYTES as f64,
                                round_bytes_sent: 0.0,
                                round_start: t_cur,
                                stop_and_copy: true,
                            };
                            dirty_pages = 0.0;
                        } else {
                            *x = Xfer {
                                round: x.round + 1,
                                remaining_bytes: d_end as f64 * PAGE_SIZE_BYTES as f64,
                                round_bytes_sent: 0.0,
                                round_start: t_cur,
                                stop_and_copy: false,
                            };
                            dirty_pages = 0.0;
                        }
                    }
                    if stage != Stage::Transfer {
                        break;
                    }
                }
            }
            // Transfer finished inside this tick: perform the handover
            // (post-copy already moved the VM at the start of transfer).
            if stage == Stage::Activation {
                if !migrant_on_target {
                    let te_t = te.expect("te set");
                    let slot = hsrc.slots.remove(m_idx);
                    hdst.slots.push(slot);
                    m_idx = hdst.slots.len() - 1;
                    migrant_on_target = true;
                    migrant_running = true;
                    hdst.slots[m_idx].running = true;
                    sums_stale = true;
                    resume_time = Some(te_t);
                    src_const = host_const(&hsrc);
                    dst_const = host_const(&hdst);
                }
                current_bw = 0.0;
                cache_dirty = true;
            }
        }

        // --- Ground-truth power for both hosts at this instant. ---
        let stage_moved = stage != stage_at_prelude;
        if sums_stale || stage_moved {
            cache_dirty = true;
        }
        let (src_terms, dst_terms) = if semi_partial && !sums_stale && !stage_moved {
            // Semi-cached tick with unchanged bandwidth: only the CPU
            // utilisation moved, so rebuild just `cpu_w` — the expression
            // below replicates `terms_for`'s bit for bit (`utilisation()`
            // already clamps, making `clamped()` a no-op on this field).
            // A fully constant host's utilisation did not move either.
            let s = if src_const {
                c_src_terms
            } else {
                let u = src_alloc.utilisation();
                let cpu_power = src_power.idle_w + src_power.cpu_dynamic_w * pow_src.eval(u);
                PowerTerms {
                    cpu_w: cpu_power - src_power.idle_w,
                    ..c_src_terms
                }
            };
            let d = if dst_const {
                c_dst_terms
            } else {
                let u = dst_alloc.utilisation();
                let cpu_power = dst_power.idle_w + dst_power.cpu_dynamic_w * pow_dst.eval(u);
                PowerTerms {
                    cpu_w: cpu_power - dst_power.idle_w,
                    ..c_dst_terms
                }
            };
            c_src_terms = s;
            c_dst_terms = d;
            (s, d)
        } else {
            let migr_nic = link.line_utilisation(current_bw);
            let src_nic_util = (migr_nic + src_bg).min(1.0);
            let dst_nic_util = (migr_nic + dst_bg).min(1.0);
            let (svc_src, svc_dst) = match stage {
                Stage::Initiation => (cfg.service.init_source_w, cfg.service.init_target_w),
                Stage::Transfer => (cfg.service.transfer_source_w, cfg.service.transfer_target_w),
                Stage::Activation => (
                    cfg.service.activation_source_w,
                    cfg.service.activation_target_w,
                ),
                Stage::Pre => (0.0, 0.0),
            };
            let state_load_rate = if stage == Stage::Transfer {
                current_bw / PAGE_SIZE_BYTES as f64
            } else {
                0.0
            };
            // The memory-activity term reads the post-sub-loop placement;
            // when the sub-loop suspended or relocated the migrant,
            // re-fold the write rates.
            let (src_wr, dst_wr) = if !sums_stale {
                (src_wr_fold, dst_wr_fold)
            } else {
                (hsrc.write_rate_sum(now), hdst.write_rate_sum(now))
            };
            let s = terms_for(
                &src_power,
                PowerInputs {
                    cpu_utilisation: src_alloc.utilisation(),
                    nic_utilisation: src_nic_util,
                    mem_activity: (src_wr / PEAK_PAGE_WRITE_RATE).min(1.0),
                    service_w: svc_src * src_jitter.service_factor,
                },
                &mut pow_src,
            );
            let d = terms_for(
                &dst_power,
                PowerInputs {
                    cpu_utilisation: dst_alloc.utilisation(),
                    nic_utilisation: dst_nic_util,
                    mem_activity: ((state_load_rate + dst_wr) / PEAK_PAGE_WRITE_RATE).min(1.0),
                    service_w: svc_dst * dst_jitter.service_factor,
                },
                &mut pow_dst,
            );
            c_src_terms = s;
            c_dst_terms = d;
            (s, d)
        };

        // --- Exact window attribution of this tick's constant power. ---
        let a = now.as_micros();
        let b = a + dt_us;
        let o1 = overlap_us(a, b, ms.as_micros(), ts.as_micros());
        if o1 > 0 {
            let secs = o1 as f64 / 1e6;
            int_src[0].accumulate(&src_terms, secs);
            int_dst[0].accumulate(&dst_terms, secs);
        }
        let w2_hi = te.map(|t| t.as_micros()).unwrap_or(u64::MAX);
        let o2 = overlap_us(a, b, ts.as_micros(), w2_hi);
        if o2 > 0 {
            let secs = o2 as f64 / 1e6;
            int_src[1].accumulate(&src_terms, secs);
            int_dst[1].accumulate(&dst_terms, secs);
        }
        if let (Some(te_t), Some(me_t)) = (te, me) {
            let o3 = overlap_us(a, b, te_t.as_micros(), me_t.as_micros());
            if o3 > 0 {
                let secs = o3 as f64 / 1e6;
                int_src[2].accumulate(&src_terms, secs);
                int_dst[2].accumulate(&dst_terms, secs);
            }
        }

        now += dt;

        // --- Span stepping on constant hosts (see the module docs). ---
        // A tick that ends with a clean cache leaves the prelude and power
        // terms of the following ticks unchanged until the next event, so
        // those ticks replay only their state updates — the loop's own float
        // operations in the same order, which keeps every result
        // bit-identical (a closed form `terms·n·dt` would round differently).
        // Post-copy transfer never qualifies: its demand ramp moves each tick.
        if fast_ok {
            let ramping = cfg.kind == MigrationKind::PostCopy && stage == Stage::Transfer;
            if !cache_dirty && stage != Stage::Pre && !ramping {
                let now_us = now.as_micros();
                // A span tick starts before the next event ...
                let mut start_lim = horizon.as_micros();
                if cfg.kind == MigrationKind::PostCopy && migrant_on_target && resume_time.is_none()
                {
                    start_lim = start_lim.min((ts + cfg.timing.postcopy_handover).as_micros());
                }
                if let Some(t) = fault_plan.abort_at() {
                    if !aborted && stage != Stage::Activation && !migrant_on_target {
                        start_lim = start_lim.min(t.as_micros());
                    }
                }
                if stage == Stage::Transfer {
                    for w in fault_plan.link_windows() {
                        for edge in [w.window.start, w.window.end] {
                            if edge.as_micros() + dt_us > now_us {
                                start_lim = start_lim.min(edge.as_micros());
                            }
                        }
                    }
                }
                // ... and lies inside the phase window it is attributed to.
                let (w, lo, hi) = match stage {
                    Stage::Initiation => (0, ms, Some(ts)),
                    Stage::Transfer => (1, ts, None),
                    _ => (2, te.expect("te set"), me),
                };
                let n = if now < lo {
                    0
                } else {
                    let hi_us = hi.map_or(u64::MAX, SimTime::as_micros);
                    (start_lim.saturating_sub(now_us).div_ceil(dt_us))
                        .min(hi_us.saturating_sub(now_us) / dt_us)
                };
                let secs = dt_us as f64 / 1e6;
                let mut k = 0;
                if stage == Stage::Transfer {
                    // Stop before any tick that would complete or split a
                    // round: the sub-loop's full-step guard, per tick.
                    let x = xfer.as_mut().expect("transfer state exists");
                    let full_tick = c_bw * dt_s;
                    let dirtying = cfg.kind == MigrationKind::Live
                        && migrant_running
                        && migrant_ws_pages >= 1.0;
                    let decay = if dirtying {
                        dirty_exp.eval(-c_migrant_wr * dt_s / migrant_ws_pages)
                    } else {
                        0.0
                    };
                    while k < n
                        && c_bw > 0.0
                        && x.remaining_bytes > full_tick * 1.000_000_1
                        && x.remaining_bytes - full_tick > 0.5
                    {
                        x.remaining_bytes -= full_tick;
                        x.round_bytes_sent += full_tick;
                        total_bytes += full_tick;
                        if dirtying {
                            dirty_pages =
                                migrant_ws_pages - (migrant_ws_pages - dirty_pages) * decay;
                        }
                        int_src[w].accumulate(&c_src_terms, secs);
                        int_dst[w].accumulate(&c_dst_terms, secs);
                        k += 1;
                    }
                } else {
                    for _ in 0..n {
                        int_src[w].accumulate(&c_src_terms, secs);
                        int_dst[w].accumulate(&c_dst_terms, secs);
                    }
                    k = n;
                }
                now += SimDuration::from_micros(k * dt_us);
                ticks_spanned += k;
                spans += u64::from(k > 0);
            }
            // Whatever ends the span takes the full prelude.
            cache_dirty = true;
        }
    }
    drop(_perf_ticks);
    wavm3_obs::perf::counter_add("analytic.tick_cache.full", ticks_full);
    wavm3_obs::perf::counter_add("analytic.tick_cache.fast_hit", ticks_spanned);
    wavm3_obs::perf::counter_add("analytic.tick_cache.semi_hit", ticks_semi);
    wavm3_obs::perf::counter_add("analytic.tick_cache.spans", spans);
    let _perf_finalise = wavm3_obs::perf::scope("analytic.finalise");

    let te = te.expect("transfer completed");
    let me = me.expect("activation scheduled");
    let phases = PhaseTimes::new(ms, ts, te, me);

    let downtime = match (suspend_time, resume_time) {
        (Some(s), Some(r)) => r.saturating_since(s),
        _ => SimDuration::ZERO,
    };

    // --- OU wander per phase window, from its exact discrete moments.
    // Tick ownership: window [a, b) owns ticks ceil(a/dt)..ceil(b/dt).
    let k_ms = ms.as_micros().div_ceil(dt_us);
    let k_ts = ts.as_micros().div_ceil(dt_us);
    let k_te = te.as_micros().div_ceil(dt_us);
    let k_me = me.as_micros().div_ceil(dt_us);
    let wander_of = |ou: &mut OuIntegrator<CounterRng>| {
        ou.advance(k_ms);
        [
            ou.window_sum(k_ts - k_ms) * dt_s,
            ou.window_sum(k_te - k_ts) * dt_s,
            ou.window_sum(k_me - k_te) * dt_s,
        ]
    };
    let w_src = wander_of(&mut src_wander);
    let w_dst = wander_of(&mut dst_wander);

    let totals = |ints: &[TermIntegral; 3], w: &[f64; 3]| {
        [
            ints[0].total_j() + w[0],
            ints[1].total_j() + w[1],
            ints[2].total_j() + w[2],
        ]
    };
    let src_tot = totals(&int_src, &w_src);
    let dst_tot = totals(&int_dst, &w_dst);
    let breakdown = |t: &[f64; 3]| {
        if aborted {
            EnergyBreakdown {
                initiation_j: t[0],
                transfer_j: t[1],
                activation_j: 0.0,
                rollback_j: t[2],
            }
        } else {
            EnergyBreakdown {
                initiation_j: t[0],
                transfer_j: t[1],
                activation_j: t[2],
                rollback_j: 0.0,
            }
        }
    };
    let source_energy = breakdown(&src_tot);
    let target_energy = breakdown(&dst_tot);

    // --- Metrics: the same family, one observation per run, as the
    // sampled path — regression snapshots stay structurally identical.
    metrics::counter_add("migration.runs", 1);
    if aborted {
        metrics::counter_add("migration.aborted", 1);
    }
    metrics::observe(
        "migration.transfer_s",
        metrics::buckets::DURATION_S,
        phases.transfer().as_secs_f64(),
    );
    metrics::observe(
        "migration.downtime_s",
        metrics::buckets::DURATION_S,
        downtime.as_secs_f64(),
    );
    metrics::observe(
        "migration.energy_kj",
        metrics::buckets::ENERGY_KJ,
        (source_energy.total_j() + target_energy.total_j()) / 1e3,
    );
    for (name, src_j, dst_j) in [
        (
            "migration.phase.initiation_kj",
            source_energy.initiation_j,
            target_energy.initiation_j,
        ),
        (
            "migration.phase.transfer_kj",
            source_energy.transfer_j,
            target_energy.transfer_j,
        ),
        (
            "migration.phase.activation_kj",
            source_energy.activation_j,
            target_energy.activation_j,
        ),
        (
            "migration.phase.rollback_kj",
            source_energy.rollback_j,
            target_energy.rollback_j,
        ),
    ] {
        metrics::observe(name, metrics::buckets::ENERGY_KJ, (src_j + dst_j) / 1e3);
    }

    if ledger_on {
        let role = |ints: &[TermIntegral; 3], w: &[f64; 3]| {
            let tail = spread(&ints[2], w[2]);
            RoleLedger {
                initiation: spread(&ints[0], w[0]),
                transfer: spread(&ints[1], w[1]),
                activation: if aborted { TermEnergy::default() } else { tail },
                rollback: if aborted { tail } else { TermEnergy::default() },
            }
        };
        wavm3_obs::ledger::record(LedgerEntry {
            kind: cfg.kind.label(),
            outcome: if aborted { "aborted" } else { "completed" },
            source: role(&int_src, &w_src),
            target: role(&int_dst, &w_dst),
        });
    }

    let record = MigrationRecord {
        kind: cfg.kind,
        machine_set,
        phases,
        source_trace: PowerTrace::new(src_name.clone()),
        target_trace: PowerTrace::new(dst_name.clone()),
        source_truth: PowerTrace::new(src_name),
        target_truth: PowerTrace::new(dst_name),
        telemetry: TelemetryRecorder::new(),
        samples: Vec::new(),
        rounds: rounds.clone(),
        total_bytes: total_bytes.round() as u64,
        downtime,
        vm_ram_mib,
        source_energy,
        target_energy,
        idle_power_w,
        outcome: if aborted {
            MigrationOutcome::Aborted
        } else {
            MigrationOutcome::Completed
        },
        fault_events,
        attempt: 0,
        retry_backoff: SimDuration::ZERO,
    };

    // Hand the warm buffers back so the next repetition reuses their
    // capacity (the tick loop's pushes then never touch the allocator).
    arena.rounds = rounds;
    arena.link_seen = link_window_seen;
    arena.src_slots = hsrc.slots;
    arena.dst_slots = hdst.slots;
    record
}
