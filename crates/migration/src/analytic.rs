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
//! * host/VM state is the slot arrays both engines share (`engine.rs`),
//!   built from each workload's closed forms (`demand_profile()`: sinusoid
//!   ripple advanced by a unit rotation per tick, constant rates folded
//!   once), and `u^e` / `exp` in the inner loop are served from small
//!   memo/Taylor caches;
//! * when every workload's write-rate and line-share folds are profile
//!   constants, power between events moves only with the demand curves
//!   (Eqs. 5–7 are linear in their inputs within a phase), so the ticks
//!   between events are stepped as *spans*. A span runs until the next
//!   stage edge, post-copy handover, abort, link-window edge or horizon,
//!   and stops before any tick that would complete a round or straddle a
//!   phase window. Its ticks replay only what moves — bytes moved, the
//!   dirty-page recurrence, on a host with ripple demand the oscillators,
//!   the `vm_cores` fold, the Eq. 2 allocation and the CPU term, and the
//!   power terms accumulated per tick — with the same float operations in
//!   the same order, so results are bit-identical to ticking. In transfer
//!   a span also needs the bandwidth frozen: no rippling endpoint may be
//!   able to saturate (`HostState::grant_frozen`, decided at the tick
//!   before the span), or its grant `scale` would move the bandwidth every
//!   tick. Post-copy transfer never spans: its demand ramp moves each tick.
//!   So the loop takes two kinds of step: a tick, which runs the full
//!   prelude (`Hosts::prelude`), and a span, which replays from the
//!   prelude of a tick whose transfer step hit no event;
//! * the tick loop records each tick's inputs that no run's draws move
//!   (`u^e`, NIC and memory activity, stage, window, overlap), and
//!   `integrate` prices them with the run's jitter. With an empty fault
//!   plan they and every edge, round and byte are the same in every run of
//!   a prototype, so its first fault-free, untraced run stores them as a
//!   `Tape` (one recorder at any thread count), and later ones adopt and
//!   price it instead of ticking — bit-identical.
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

use crate::engine::{Hosts, Mechanism, Prelude, RunSlot, Slot, Stage, HORIZON};
use crate::record::MigrationRecord;
use crate::simulation::{MigrationSimulation, PEAK_PAGE_WRITE_RATE};
use wavm3_cluster::PowerProfile;
use wavm3_obs::TermEnergy;
use wavm3_power::{EnergyBreakdown, OuIntegrator, PowerTerms, TermIntegral};
use wavm3_simkit::{CounterRng, RngFactory, SimDuration, SimTime};

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

/// One host's tick inputs that no run's draws can move: `f = u^e` (from
/// [`PowCache::eval`]) and the clamped NIC and memory activity.
#[derive(Clone, Copy)]
struct HostTick {
    f: f64,
    nic: f64,
    mem: f64,
}

impl HostTick {
    /// The tick's terms on a run's jittered `profile` and service power:
    /// the arithmetic (and rounding order) of `ground_truth_terms`.
    #[inline]
    fn terms(&self, profile: &PowerProfile, service_w: f64) -> PowerTerms {
        let cpu_power = profile.idle_w + profile.cpu_dynamic_w * self.f;
        PowerTerms {
            idle_w: profile.idle_w,
            cpu_w: cpu_power - profile.idle_w,
            mem_dirty_w: profile.mem_contention_w * self.mem,
            network_w: profile.nic_w_at_line_rate * self.nic,
            service_w: service_w.max(0.0),
        }
    }
}

/// A tick record entry: `n` (< 2³², as a run has < `HORIZON / 1 µs` ticks)
/// consecutive ticks of the same inputs, each over `secs` in window `w`.
#[derive(Clone, Copy)]
pub(crate) struct Step {
    w: u32,
    n: u32,
    stage: Stage,
    secs: f64,
    src: HostTick,
    dst: HostTick,
}

impl Step {
    /// Everything but `n`, bit for bit.
    fn key(&self) -> (u32, Stage, [u64; 7]) {
        let (a, b) = (self.src, self.dst);
        let x = [self.secs, a.f, a.nic, a.mem, b.f, b.nic, b.mem];
        (self.w, self.stage, x.map(f64::to_bits))
    }
}

/// Append `n` ticks, merged into the last entry when their keys match: the
/// same sequence of operations, so pricing stays identical.
#[inline]
fn book(
    steps: &mut Vec<Step>,
    w: u32,
    n: u64,
    stage: Stage,
    secs: f64,
    src: HostTick,
    dst: HostTick,
) {
    let n = n as u32;
    let step = Step {
        w,
        n,
        stage,
        secs,
        src,
        dst,
    };
    match steps.last_mut() {
        Some(last) if last.key() == step.key() => last.n += step.n,
        _ => steps.push(step),
    }
}

/// Price `steps` with `mech`'s jittered profiles and service power into
/// each host's `[initiation, transfer, tail]` integrals: the only place a
/// tick's power is built and integrated, for ticked and replayed runs.
fn integrate(steps: &[Step], mech: &Mechanism) -> [[TermIntegral; 3]; 2] {
    let [mut src, mut dst] = [[TermIntegral::default(); 3]; 2];
    for s in steps {
        let (svc_src, svc_dst) = mech.service_power(s.stage);
        let src_terms = s.src.terms(&mech.src_power, svc_src);
        let dst_terms = s.dst.terms(&mech.dst_power, svc_dst);
        let (src_w, dst_w) = (&mut src[s.w as usize], &mut dst[s.w as usize]);
        for _ in 0..s.n {
            src_w.accumulate(&src_terms, s.secs);
            dst_w.accumulate(&dst_terms, s.secs);
        }
    }
    [src, dst]
}

/// A prototype's fault-free run, recorded once: its tick record, its
/// mechanism at the end, and how many ticks it took.
pub(crate) struct Tape {
    steps: Box<[Step]>,
    end: Mechanism,
    ticks: u64,
}

/// Overlap of `[a, b)` with `[lo, hi)` in µs.
#[inline]
fn overlap_us(a: u64, b: u64, lo: u64, hi: u64) -> u64 {
    b.min(hi).saturating_sub(a.max(lo))
}

/// Replay up to `n` span ticks at the cached bandwidth, calling `tick(k)`
/// for the power of tick `k`; returns how many ran. In transfer each tick
/// is the sub-loop's one full step, and the span stops before any tick
/// that would complete or split a round.
#[inline(always)]
fn replay(
    mech: &mut Mechanism,
    cache: &Prelude,
    dt_s: f64,
    n: u64,
    mut tick: impl FnMut(u64),
) -> u64 {
    if mech.stage != Stage::Transfer {
        for k in 0..n {
            tick(k);
        }
        return n;
    }
    let mut x = mech.xfer.expect("transfer state exists");
    let full_tick = cache.bw * dt_s;
    let dirtying = mech.dirtying();
    let decay = if dirtying {
        mech.dirty_decay(cache.migrant_wr, dt_s)
    } else {
        0.0
    };
    let mut k = 0;
    while k < n && cache.bw > 0.0 && x.whole_tick_fits(full_tick) {
        x.remaining_bytes -= full_tick;
        x.round_bytes_sent += full_tick;
        mech.total_bytes += full_tick;
        if dirtying {
            mech.saturate_dirty(decay);
        }
        tick(k);
        k += 1;
    }
    mech.xfer = Some(x);
    k
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

impl MigrationSimulation {
    /// Run the analytic path on a borrowed scenario with the caller's
    /// per-run RNG root, recycling all transient buffers through `arena`,
    /// whatever the configured path and trace state ([`Self::run_reusing`]
    /// applies the trace fallback). See the module docs for the contract
    /// with the sampled reference engine. A fault-free run replays the
    /// scenario's tape, so it emits no mechanism events; a traced run
    /// always ticks.
    pub fn run_analytic_reusing(&self, rng: RngFactory, arena: &mut RunSlot) -> MigrationRecord {
        let _perf = wavm3_obs::perf::scope("migration.run.analytic");
        let mut mech = Mechanism::new(self, &rng, arena);
        let ledger_on = wavm3_obs::ledger_active();

        // `get_or_init` lets exactly one run record, whatever the thread
        // count; the others wait for it and replay.
        let [int_src, int_dst] = if mech.fault_plan.is_empty() && !wavm3_obs::tracing_active() {
            let mut ticked = None;
            let tape = self.tape.get_or_init(|| {
                let (ints, ticks) = self.tick(&mut mech, arena);
                ticked = Some(ints);
                let (steps, end) = (arena.steps.as_slice().into(), mech.clone());
                Tape { steps, end, ticks }
            });
            ticked.unwrap_or_else(|| {
                let _perf_ticks = wavm3_obs::perf::scope("analytic.tick_loop");
                wavm3_obs::perf::counter_add("analytic.tick_cache.replayed", tape.ticks);
                mech.adopt(&tape.end);
                integrate(&tape.steps, &mech)
            })
        } else {
            self.tick(&mut mech, arena).0
        };
        let _perf_finalise = wavm3_obs::perf::scope("analytic.finalise");

        let phases = mech.phases();
        let dt_us = mech.cfg.timing.tick.as_micros();
        let dt_s = mech.cfg.timing.tick.as_secs_f64();

        // --- OU wander per phase window, from its exact discrete moments,
        // on dedicated counter streams (the sampled engine's per-tick
        // wander streams are left untouched).
        // Tick ownership: window [a, b) owns ticks ceil(a/dt)..ceil(b/dt).
        let k_ms = phases.ms.as_micros().div_ceil(dt_us);
        let k_ts = phases.ts.as_micros().div_ceil(dt_us);
        let k_te = phases.te.as_micros().div_ceil(dt_us);
        let k_me = phases.me.as_micros().div_ceil(dt_us);
        let noise = mech.cfg.env_noise;
        let wander_of = |label| {
            let mut ou = OuIntegrator::<CounterRng>::new(
                noise.wander_tau_s,
                noise.wander_std_w,
                dt_s,
                rng.counter_stream(label),
            );
            ou.advance(k_ms);
            [
                ou.window_sum(k_ts - k_ms) * dt_s,
                ou.window_sum(k_te - k_ts) * dt_s,
                ou.window_sum(k_me - k_te) * dt_s,
            ]
        };
        let w_src = wander_of("wander.analytic.source");
        let w_dst = wander_of("wander.analytic.target");

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
        arena.recycle(mech);
        record
    }

    /// Tick `mech` through `[ms, me]`, recording each tick's power inputs
    /// in `arena`, and price them; returns the integrals and tick count.
    fn tick(&self, mech: &mut Mechanism, arena: &mut RunSlot) -> ([[TermIntegral; 3]; 2], u64) {
        let cfg = mech.cfg;
        let link = self.cluster.link;
        let ms = mech.ms;

        let dt = cfg.timing.tick;
        let dt_s = dt.as_secs_f64();
        let dt_us = dt.as_micros();

        // Slot state starts at the first processed tick: the one containing
        // `ms` (it can straddle `ms` when the tick doesn't divide it, and its
        // `[ms, ·)` remainder belongs to the initiation window).
        let k0 = ms.as_micros() / dt_us;
        let mut now = SimTime::from_micros(k0 * dt_us);
        let mut hosts = Hosts::new(self, now, |w| w.demand_profile(), arena);

        let mut pow_src = PowCache::new(mech.src_power.cpu_exponent);
        let mut pow_dst = PowCache::new(mech.dst_power.cpu_exponent);
        let steps = &mut arena.steps;
        steps.clear();

        // Spans need every workload's line-share and write-rate folds to be
        // profile constants: then the running counts, those folds and the
        // migration's CPU move only at events (stage edges, suspend / resume /
        // relocation, the post-copy ramp, fault-window edges), and between
        // events only the demand curves do, and on a constant host not even
        // they. The conjunction ranges over the union of slots, so it is
        // relocation-invariant.
        let folds_constant = hosts
            .src
            .slots
            .iter()
            .chain(&hosts.dst.slots)
            .all(Slot::folds_constant);

        // Tick tallies (flushed once per run into the profiler so the hot
        // loop never touches shared state). Ticks stepped inside spans
        // report as `fast_hit`.
        let mut ticks_full: u64 = 0;
        let mut ticks_spanned: u64 = 0;
        let mut spans: u64 = 0;

        let _perf_ticks = wavm3_obs::perf::scope("analytic.tick_loop");
        loop {
            if mech.me().is_some_and(|me| now >= me) {
                break;
            }
            assert!(now < HORIZON, "simulation failed to terminate");

            // --- Stage edges and the injected abort. ---
            let moves = mech.stage_edges(now);
            hosts.apply_moves(mech, moves);

            // --- Refresh demands, resolve allocations and the bandwidth. ---
            ticks_full += 1;
            let p = hosts.prelude(mech, now);

            // --- Advance the transfer within this tick (may cross rounds). ---
            let moves = mech.advance_transfer(now, dt_s, p.bw, p.migrant_wr);
            let sums_stale = hosts.apply_moves(mech, moves);
            let current_bw = if moves.edge { 0.0 } else { p.bw };

            // --- Ground-truth power inputs for both hosts at this instant,
            // clamped like `PowerInputs::clamped`. ---
            let migr_nic = link.line_utilisation(current_bw);
            // The memory-activity term reads the post-sub-loop placement; when
            // the sub-loop suspended or relocated the migrant, re-fold the
            // write rates.
            let (src_wr, dst_wr) = if !sums_stale {
                (p.src.write_rate, p.dst.write_rate)
            } else {
                (
                    hosts.src.write_rate_sum(0.0, now),
                    hosts.dst.write_rate_sum(0.0, now),
                )
            };
            let mut src = HostTick {
                f: pow_src.eval(p.src_alloc.utilisation().clamp(0.0, 1.0)),
                nic: (migr_nic + p.src.bg()).min(1.0).clamp(0.0, 1.0),
                mem: (src_wr / PEAK_PAGE_WRITE_RATE).min(1.0).clamp(0.0, 1.0),
            };
            let dst_load = mech.state_load_rate(current_bw) + dst_wr;
            let mut dst = HostTick {
                f: pow_dst.eval(p.dst_alloc.utilisation().clamp(0.0, 1.0)),
                nic: (migr_nic + p.dst.bg()).min(1.0).clamp(0.0, 1.0),
                mem: (dst_load / PEAK_PAGE_WRITE_RATE).min(1.0).clamp(0.0, 1.0),
            };
            let stage = mech.stage;

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
                    book(steps, w as u32, 1, stage, o as f64 / 1e6, src, dst);
                }
            }

            now += dt;

            // --- Span stepping (see the module docs). ---
            // A tick whose transfer step hit no event leaves `p` valid until
            // the next event: the ticks before it move only the ripple
            // oscillators and the transfer state, so they replay only those —
            // on a rippling host the demand refresh, `vm_cores` fold, Eq. 2
            // allocation and `u^e`, then the transfer state and the tick's
            // record — with the loop's own float operations in the same
            // order, which keeps every result bit-identical (a closed form
            // `terms·n·dt` would round differently). Outside transfer the
            // bandwidth is 0 whatever the grants. In transfer no rippling
            // endpoint may saturate, or its grant `scale` would move the
            // bandwidth (a `General` curve has no peak, so its host never
            // spans there); the post-copy ramp moves it every tick.
            let (migr_src, migr_dst) = mech.migration_cores(p.migrant_wr);
            let in_transfer = mech.stage == Stage::Transfer;
            let spannable = folds_constant
                && !moves.edge
                && !sums_stale
                && mech.stage != Stage::Pre
                && !mech.ramping()
                && (!in_transfer
                    || hosts.src.grant_frozen(migr_src) && hosts.dst.grant_frozen(migr_dst));
            if spannable {
                let now_us = now.as_micros();
                // A span tick starts before the next event ...
                let mut start_lim = HORIZON.as_micros();
                for t in [mech.pending_resume(), mech.pending_abort()]
                    .into_iter()
                    .flatten()
                {
                    start_lim = start_lim.min(t.as_micros());
                }
                if in_transfer {
                    for w in mech.fault_plan.link_windows() {
                        for edge in [w.window.start, w.window.end] {
                            if edge.as_micros() + dt_us > now_us {
                                start_lim = start_lim.min(edge.as_micros());
                            }
                        }
                    }
                }
                // ... and lies inside the phase window it is attributed to.
                let w: u32 = match mech.stage {
                    Stage::Initiation => 0,
                    Stage::Transfer => 1,
                    _ => 2,
                };
                let (lo, hi) = (edges[w as usize], edges[w as usize + 1]);
                let n = if now_us < lo {
                    0
                } else {
                    (start_lim.saturating_sub(now_us).div_ceil(dt_us))
                        .min(hi.saturating_sub(now_us) / dt_us)
                };
                let secs = dt_us as f64 / 1e6;
                let factor = mech.migrant_factor();
                let k = replay(mech, &p, dt_s, n, |k| {
                    let t = now + SimDuration::from_micros(k * dt_us);
                    if !hosts.src.constant {
                        let vm_cores = hosts.src.refresh_tick(t, factor).vm_cores;
                        let a = hosts.src.allocate(p.src.running, vm_cores, migr_src);
                        debug_assert!(!in_transfer || a.scale == 1.0, "source saturated");
                        src.f = pow_src.eval(a.utilisation());
                    }
                    if !hosts.dst.constant {
                        let vm_cores = hosts.dst.refresh_tick(t, factor).vm_cores;
                        let a = hosts.dst.allocate(p.dst.running, vm_cores, migr_dst);
                        debug_assert!(!in_transfer || a.scale == 1.0, "target saturated");
                        dst.f = pow_dst.eval(a.utilisation());
                    }
                    book(steps, w, 1, stage, secs, src, dst);
                });
                now += SimDuration::from_micros(k * dt_us);
                ticks_spanned += k;
                spans += u64::from(k > 0);
            }
        }
        let ints = integrate(steps, mech);
        drop(_perf_ticks);
        wavm3_obs::perf::counter_add("analytic.tick_cache.full", ticks_full);
        wavm3_obs::perf::counter_add("analytic.tick_cache.fast_hit", ticks_spanned);
        wavm3_obs::perf::counter_add("analytic.tick_cache.spans", spans);
        arena.recycle_hosts(hosts);
        (ints, ticks_full + ticks_spanned)
    }
}
