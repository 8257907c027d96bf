//! The analytic fast path: closed-form per-phase energy integration.
//!
//! [`MigrationSimulation::run_analytic_reusing`] drives the migration
//! mechanism of `engine.rs` — stage machine, CPU-coupled bandwidth,
//! dirty-page saturation, fault plan and per-run jitter — like the sampled
//! reference engine does, but integrates energy exactly instead of
//! materialising a 2 Hz meter trace:
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
//! empty meter/truth traces, telemetry and feature samples. Everything
//! deterministic (phases, rounds, bytes, downtime, outcome, fault events)
//! comes from the shared mechanism; its inputs differ from the sampled
//! engine's only through the ripple recurrence above, which can move the
//! coupled bandwidth, bytes and round boundaries in the last bits.

use crate::engine::{Mechanism, Moves, Stage, HORIZON};
use crate::record::{MigrationRecord, RoundStats};
use crate::simulation::{MigrationSimulation, PEAK_PAGE_WRITE_RATE};
use std::collections::BTreeMap;
use std::sync::Arc;
use wavm3_cluster::{
    cpu::vmm_overhead_cores, CpuAccounting, CpuAllocation, Host, PowerProfile, VmId,
};
use wavm3_obs::TermEnergy;
use wavm3_power::{EnergyBreakdown, OuIntegrator, PowerInputs, PowerTerms, TermIntegral};
use wavm3_simkit::{CounterRng, RngFactory, SimDuration, SimTime};
use wavm3_workloads::{DemandProfile, Workload};

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
    /// Refresh the stored demand (advancing a ripple oscillator by one
    /// tick), scaled by `migrant_factor` on the migrant's slot and clamped
    /// like `Vm::set_cpu_demand`.
    #[inline]
    fn refresh_demand(&mut self, now: SimTime, migrant_factor: f64) {
        let Some(wl) = &self.wl else { return };
        let mut demand = match &mut self.cpu {
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
        if self.is_migrant {
            demand *= migrant_factor;
        }
        self.demand = demand.clamp(0.0, self.vcpus);
    }

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

    /// Whether the slot's line-share and write-rate folds are profile
    /// constants (or it has no workload to fold).
    fn folds_constant(&self) -> bool {
        self.wl.is_none() || (self.write_rate.is_some() && self.line_share.is_some())
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

impl TickSums {
    /// Background NIC line share, capped at the line.
    #[inline]
    fn bg(&self) -> f64 {
        self.line_share.min(1.0)
    }
}

/// What a tick resolves before its transfer step: demands, allocations and
/// the coupled bandwidth. The last full tick's copy is the cache that
/// semi-cached ticks and spans reuse.
#[derive(Clone, Copy)]
struct Prelude {
    migrant_factor: f64,
    /// The migrant's page-write rate.
    migrant_wr: f64,
    src: TickSums,
    dst: TickSums,
    src_alloc: CpuAllocation,
    dst_alloc: CpuAllocation,
    bw: f64,
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
    /// Every demand curve is constant and every fold a profile constant,
    /// so the host's allocation and power are frozen between events. Goes
    /// stale when the migrant's slot relocates.
    constant: bool,
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
        let mut state = HostState {
            capacity: host.spec.cpu_capacity(),
            slots,
            constant: false,
        };
        state.constant = state.is_constant();
        state
    }

    fn is_constant(&self) -> bool {
        self.slots
            .iter()
            .all(|s| matches!(s.cpu, CpuCurve::Constant(_)) && s.folds_constant())
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
            slot.refresh_demand(now, migrant_factor);
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
            slot.refresh_demand(now, migrant_factor);
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

    /// The host's CPU allocation (Eq. 2) for `running` VMs demanding
    /// `vm_cores`, plus the migration's own `migration_cores`.
    #[inline]
    fn allocate(&self, running: usize, vm_cores: f64, migration_cores: f64) -> CpuAllocation {
        CpuAccounting {
            vmm_cores: vmm_overhead_cores(running),
            vm_cores,
            migration_cores: migration_cores.max(0.0),
        }
        .allocate(self.capacity)
    }
}

/// Apply `moves` to the slot arrays: move the migrant's slot to the end of
/// the target's placement order, as `Cluster::relocate_vm` does, and sync
/// its run state. Returns whether the migrant's placement or run state
/// changed.
fn apply_moves(
    hsrc: &mut HostState,
    hdst: &mut HostState,
    m_idx: &mut usize,
    mech: &Mechanism,
    moves: Moves,
) -> bool {
    if moves.relocated {
        let slot = hsrc.slots.remove(*m_idx);
        hdst.slots.push(slot);
        *m_idx = hdst.slots.len() - 1;
        hsrc.constant = hsrc.is_constant();
        hdst.constant = hdst.is_constant();
    }
    if moves.run_state {
        let host = if mech.migrant_on_target { hdst } else { hsrc };
        host.slots[*m_idx].running = mech.migrant_running;
    }
    moves.relocated || moves.run_state
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

/// Ground-truth terms with the `u^e` served from the cache; otherwise the
/// same arithmetic (and rounding order) as `ground_truth_terms`.
#[inline]
fn terms_for(profile: &PowerProfile, inputs: PowerInputs, pow: &mut PowCache) -> PowerTerms {
    let i = inputs.clamped();
    let terms = PowerTerms {
        idle_w: profile.idle_w,
        cpu_w: 0.0,
        mem_dirty_w: profile.mem_contention_w * i.mem_activity,
        network_w: profile.nic_w_at_line_rate * i.nic_utilisation,
        service_w: i.service_w,
    };
    with_cpu(profile, i.cpu_utilisation, pow, terms)
}

/// `terms` with the CPU term for utilisation `u` (already in `[0, 1]`).
#[inline]
fn with_cpu(profile: &PowerProfile, u: f64, pow: &mut PowCache, terms: PowerTerms) -> PowerTerms {
    let cpu_power = profile.idle_w + profile.cpu_dynamic_w * pow.eval(u);
    PowerTerms {
        cpu_w: cpu_power - profile.idle_w,
        ..terms
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

/// Run the scenario on the analytic path with recycled buffers and a
/// caller-supplied RNG root: campaign workers rebuild neither the cluster
/// nor the slot arrays between repetitions. A default `arena` gives the
/// one-shot run. See the module docs for the contract with the sampled
/// reference engine.
pub(crate) fn run_analytic_reusing(
    sim: &MigrationSimulation,
    rng: RngFactory,
    arena: &mut RunSlot,
) -> MigrationRecord {
    let _perf = wavm3_obs::perf::scope("migration.run.analytic");
    let mut mech = Mechanism::new(
        sim,
        &rng,
        std::mem::take(&mut arena.rounds),
        std::mem::take(&mut arena.link_seen),
    );
    let cfg = mech.cfg;
    let link = sim.cluster.link;
    let (src_power, dst_power) = (mech.src_power, mech.dst_power);
    let ms = mech.ms;

    let dt = cfg.timing.tick;
    let dt_s = dt.as_secs_f64();
    let dt_us = dt.as_micros();

    // The wander runs on dedicated counter streams; the sampled engine's
    // per-tick wander streams are left untouched.
    let noise = cfg.env_noise;
    let wander = |label| {
        OuIntegrator::<CounterRng>::new(
            noise.wander_tau_s,
            noise.wander_std_w,
            dt_s,
            rng.counter_stream(label),
        )
    };
    let mut src_wander = wander("wander.analytic.source");
    let mut dst_wander = wander("wander.analytic.target");
    let ledger_on = wavm3_obs::ledger_active();

    // Slot state starts at the first processed tick: the one containing
    // `ms` (it can straddle `ms` when the tick doesn't divide it, and its
    // `[ms, ·)` remainder belongs to the initiation window).
    let k0 = ms.as_micros() / dt_us;
    let mut now = SimTime::from_micros(k0 * dt_us);
    let host_state = |id, slots| {
        HostState::from_host(
            sim.cluster.host(id),
            &sim.workloads,
            sim.migrant,
            now,
            dt_s,
            slots,
        )
    };
    let mut hsrc = host_state(sim.source, std::mem::take(&mut arena.src_slots));
    let mut hdst = host_state(sim.target, std::mem::take(&mut arena.dst_slots));
    let mut m_idx = hsrc.migrant_index().expect("migrant starts on the source");

    let mut pow_src = PowCache::new(src_power.cpu_exponent);
    let mut pow_dst = PowCache::new(dst_power.cpu_exponent);

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
    // per-tick prelude. The conjunctions `fast_ok` / `semi_ok` range over
    // the union of slots and are relocation-invariant.
    let fast_ok = hsrc.constant && hdst.constant;
    // Weaker tier for hosts with oscillating demand: when every workload's
    // line-share / write-rate folds are profile constants, only `vm_cores`
    // (and whatever depends on it) needs per-tick recomputation; the
    // constant folds, running counts and the non-CPU power terms are
    // reused between events — each reuse bit-identical to recomputation.
    let semi_ok = hsrc
        .slots
        .iter()
        .chain(&hdst.slots)
        .all(Slot::folds_constant);
    let mut cache_dirty = true;
    let placeholder = CpuAccounting::default().allocate(1.0);
    let mut cache = Prelude {
        migrant_factor: f64::NAN,
        migrant_wr: 0.0,
        src: TickSums::default(),
        dst: TickSums::default(),
        src_alloc: placeholder,
        dst_alloc: placeholder,
        bw: 0.0,
    };
    let mut c_src_terms = PowerTerms::default();
    let mut c_dst_terms = PowerTerms::default();

    // Tick-cache tier tallies (flushed once per run into the profiler so
    // the hot loop never touches shared state). Ticks stepped inside
    // spans report as `fast_hit`.
    let mut ticks_full: u64 = 0;
    let mut ticks_spanned: u64 = 0;
    let mut ticks_semi: u64 = 0;
    let mut spans: u64 = 0;

    let _perf_ticks = wavm3_obs::perf::scope("analytic.tick_loop");
    loop {
        if mech.me().is_some_and(|me| now >= me) {
            break;
        }
        assert!(now < HORIZON, "simulation failed to terminate");

        // --- Stage edges and the injected abort. ---
        let moves = mech.stage_edges(now);
        apply_moves(&mut hsrc, &mut hdst, &mut m_idx, &mech, moves);
        let migrant_factor = mech.migrant_factor();
        if moves.edge || migrant_factor != cache.migrant_factor {
            cache_dirty = true;
        }

        // --- Refresh demands, resolve allocations and the bandwidth. ---
        let mut semi_partial = false;
        let p = if cache_dirty {
            ticks_full += 1;
            let src = hsrc.refresh_tick(now, migrant_factor);
            let dst = hdst.refresh_tick(now, migrant_factor);
            let migrant_wr = if mech.migrant_on_target {
                &hdst.slots[m_idx]
            } else {
                &hsrc.slots[m_idx]
            }
            .write_rate_at(now);
            let (migr_src, migr_dst) = mech.migration_cores(migrant_wr);
            let src_alloc = hsrc.allocate(src.running, src.vm_cores, migr_src);
            let dst_alloc = hdst.allocate(dst.running, dst.vm_cores, migr_dst);
            let bw =
                mech.coupled_bandwidth(now, src_alloc.scale, dst_alloc.scale, src.bg(), dst.bg());
            cache = Prelude {
                migrant_factor,
                migrant_wr,
                src,
                dst,
                src_alloc,
                dst_alloc,
                bw,
            };
            cache_dirty = !semi_ok;
            cache
        } else {
            // Semi-cached tick (oscillating demand, constant folds):
            // advance the curves and re-fold `vm_cores`, reuse everything
            // whose inputs cannot have moved since the last event. A host
            // that is itself fully constant skips even that — its fold,
            // allocation and power terms are frozen between events.
            ticks_semi += 1;
            let mut p = cache;
            let (migr_src, migr_dst) = mech.migration_cores(p.migrant_wr);
            if !hsrc.constant {
                let vm_cores = hsrc.refresh_vm_cores(now, migrant_factor);
                p.src_alloc = hsrc.allocate(p.src.running, vm_cores, migr_src);
            }
            if !hdst.constant {
                let vm_cores = hdst.refresh_vm_cores(now, migrant_factor);
                p.dst_alloc = hdst.allocate(p.dst.running, vm_cores, migr_dst);
            }
            p.bw = mech.coupled_bandwidth(
                now,
                p.src_alloc.scale,
                p.dst_alloc.scale,
                p.src.bg(),
                p.dst.bg(),
            );
            // Unchanged bandwidth (unsaturated endpoints) leaves every
            // non-CPU term of the last tick valid.
            semi_partial = p.bw == cache.bw;
            cache.bw = p.bw;
            p
        };

        // --- Advance the transfer within this tick (may cross rounds). ---
        let moves = mech.advance_transfer(now, dt_s, p.bw, p.migrant_wr);
        let sums_stale = apply_moves(&mut hsrc, &mut hdst, &mut m_idx, &mech, moves);
        let current_bw = if moves.edge { 0.0 } else { p.bw };
        if moves.edge || sums_stale {
            cache_dirty = true;
        }

        // --- Ground-truth power for both hosts at this instant. ---
        let (src_u, dst_u) = (p.src_alloc.utilisation(), p.dst_alloc.utilisation());
        if semi_partial && !sums_stale && !moves.edge {
            // Semi-cached tick with unchanged bandwidth: only the CPU
            // utilisation moved, so rebuild just `cpu_w` (`utilisation()`
            // already clamps, as `terms_for` would). A fully constant
            // host's utilisation did not move either.
            if !hsrc.constant {
                c_src_terms = with_cpu(&src_power, src_u, &mut pow_src, c_src_terms);
            }
            if !hdst.constant {
                c_dst_terms = with_cpu(&dst_power, dst_u, &mut pow_dst, c_dst_terms);
            }
        } else {
            let migr_nic = link.line_utilisation(current_bw);
            let (svc_src, svc_dst) = mech.service_power();
            // The memory-activity term reads the post-sub-loop placement;
            // when the sub-loop suspended or relocated the migrant,
            // re-fold the write rates.
            let (src_wr, dst_wr) = if !sums_stale {
                (p.src.write_rate, p.dst.write_rate)
            } else {
                (hsrc.write_rate_sum(now), hdst.write_rate_sum(now))
            };
            c_src_terms = terms_for(
                &src_power,
                PowerInputs {
                    cpu_utilisation: src_u,
                    nic_utilisation: (migr_nic + p.src.bg()).min(1.0),
                    mem_activity: (src_wr / PEAK_PAGE_WRITE_RATE).min(1.0),
                    service_w: svc_src,
                },
                &mut pow_src,
            );
            c_dst_terms = terms_for(
                &dst_power,
                PowerInputs {
                    cpu_utilisation: dst_u,
                    nic_utilisation: (migr_nic + p.dst.bg()).min(1.0),
                    mem_activity: ((mech.state_load_rate(current_bw) + dst_wr)
                        / PEAK_PAGE_WRITE_RATE)
                        .min(1.0),
                    service_w: svc_dst,
                },
                &mut pow_dst,
            );
        }

        // --- Exact window attribution of this tick's constant power. ---
        // Window `w` is `[edges[w], edges[w + 1])`; an edge not yet known
        // lies at the end of time.
        let edges = [
            ms.as_micros(),
            mech.ts.as_micros(),
            mech.te.map_or(u64::MAX, SimTime::as_micros),
            mech.me().map_or(u64::MAX, SimTime::as_micros),
        ];
        let a = now.as_micros();
        for w in 0..3 {
            let o = overlap_us(a, a + dt_us, edges[w], edges[w + 1]);
            if o > 0 {
                let secs = o as f64 / 1e6;
                int_src[w].accumulate(&c_src_terms, secs);
                int_dst[w].accumulate(&c_dst_terms, secs);
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
            if !cache_dirty && mech.stage != Stage::Pre && !mech.ramping() {
                let now_us = now.as_micros();
                // A span tick starts before the next event ...
                let mut start_lim = HORIZON.as_micros();
                for t in [mech.pending_resume(), mech.pending_abort()]
                    .into_iter()
                    .flatten()
                {
                    start_lim = start_lim.min(t.as_micros());
                }
                if mech.stage == Stage::Transfer {
                    for w in mech.fault_plan.link_windows() {
                        for edge in [w.window.start, w.window.end] {
                            if edge.as_micros() + dt_us > now_us {
                                start_lim = start_lim.min(edge.as_micros());
                            }
                        }
                    }
                }
                // ... and lies inside the phase window it is attributed to.
                let w = match mech.stage {
                    Stage::Initiation => 0,
                    Stage::Transfer => 1,
                    _ => 2,
                };
                let n = if now_us < edges[w] {
                    0
                } else {
                    (start_lim.saturating_sub(now_us).div_ceil(dt_us))
                        .min(edges[w + 1].saturating_sub(now_us) / dt_us)
                };
                let secs = dt_us as f64 / 1e6;
                let mut k = 0;
                if mech.stage == Stage::Transfer {
                    // Stop before any tick that would complete or split a
                    // round.
                    let mut x = mech.xfer.expect("transfer state exists");
                    let full_tick = cache.bw * dt_s;
                    let dirtying = mech.dirtying();
                    let decay = if dirtying {
                        mech.dirty_decay(cache.migrant_wr, dt_s)
                    } else {
                        0.0
                    };
                    while k < n && cache.bw > 0.0 && x.whole_tick_fits(full_tick) {
                        x.remaining_bytes -= full_tick;
                        x.round_bytes_sent += full_tick;
                        mech.total_bytes += full_tick;
                        if dirtying {
                            mech.saturate_dirty(decay);
                        }
                        int_src[w].accumulate(&c_src_terms, secs);
                        int_dst[w].accumulate(&c_dst_terms, secs);
                        k += 1;
                    }
                    mech.xfer = Some(x);
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

    let phases = mech.phases();

    // --- OU wander per phase window, from its exact discrete moments.
    // Tick ownership: window [a, b) owns ticks ceil(a/dt)..ceil(b/dt).
    let k_ms = phases.ms.as_micros().div_ceil(dt_us);
    let k_ts = phases.ts.as_micros().div_ceil(dt_us);
    let k_te = phases.te.as_micros().div_ceil(dt_us);
    let k_me = phases.me.as_micros().div_ceil(dt_us);
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

    let breakdown = |ints: &[TermIntegral; 3], w: &[f64; 3]| {
        let t = [
            ints[0].total_j() + w[0],
            ints[1].total_j() + w[1],
            ints[2].total_j() + w[2],
        ];
        EnergyBreakdown {
            initiation_j: t[0],
            transfer_j: t[1],
            activation_j: if mech.aborted { 0.0 } else { t[2] },
            rollback_j: if mech.aborted { t[2] } else { 0.0 },
        }
    };
    let source_energy = breakdown(&int_src, &w_src);
    let target_energy = breakdown(&int_dst, &w_dst);
    let record = mech.finish(phases, source_energy, target_energy);

    if ledger_on {
        let terms = |ints: &[TermIntegral; 3], w: &[f64; 3]| {
            [
                spread(&ints[0], w[0]),
                spread(&ints[1], w[1]),
                spread(&ints[2], w[2]),
            ]
        };
        mech.record_ledger(terms(&int_src, &w_src), terms(&int_dst, &w_dst));
    }

    // Hand the warm buffers back so the next repetition reuses their
    // capacity (the tick loop's pushes then never touch the allocator).
    (arena.rounds, arena.link_seen) = mech.into_buffers();
    arena.src_slots = hsrc.slots;
    arena.dst_slots = hdst.slots;
    record
}
