//! The migration mechanism and the host state both engines drive.
//!
//! Every phase edge the energy model prices comes from here: the stage
//! machine (initiation at `ms`, transfer at `ts`, activation at `te`), the
//! non-live suspend, the post-copy handover and resume, the injected abort
//! and its rollback, the pre-copy round rule with stop-and-copy and the
//! forced stop, the migration's own CPU cost (`CPU_migr` of Eq. 2), the
//! CPU-coupled bandwidth, per-stage service power, and the end of the run:
//! phase instants, downtime, outcome and the `migration.*` metrics.
//!
//! [`Mechanism`] owns that state; [`Hosts`] owns the endpoints' state, one
//! [`Slot`] per resident VM in placement order, so no engine mutates its
//! scenario. Once per tick an engine asks for the stage edges, applies the
//! [`Moves`] they report to the slots, runs the tick prelude
//! ([`Hosts::prelude`]: demand refresh, the migration's CPU, the Eq. 2
//! allocations and the coupled bandwidth), advances the transfer and
//! applies that step's moves in turn. Both engines therefore make the same
//! decisions from the same inputs.
//!
//! The engines differ in one host-state decision, made when they build the
//! slots from each workload's closed forms (`demand_profile()`). Both take
//! its constants: a constant demand, write rate or line share. For a demand
//! curve that moves, the sampled engine calls the trait every tick
//! ([`sampled_profile`]), and the analytic engine advances a ripple by a
//! rotation recurrence instead. Beyond that each keeps only its integrator
//! — the sampled engine samples 2 Hz meters, the analytic engine
//! integrates each tick's power exactly.
//! The per-tick calls both loops make are `#[inline(always)]`: left to the
//! compiler they stayed out of line and cost constant-host campaigns ~5 %.

use crate::analytic::Step;
use crate::config::{EnvNoise, MigrationConfig, MigrationKind};
use crate::record::{MigrationOutcome, MigrationRecord, RoundStats};
use crate::simulation::{MigrationSimulation, PEAK_PAGE_WRITE_RATE};
use std::sync::Arc;
use wavm3_cluster::{
    cpu::vmm_overhead_cores, CpuAccounting, CpuAllocation, HostId, Link, MachineSet, PowerProfile,
    PAGE_SIZE_BYTES,
};
use wavm3_faults::{observe_fault, FaultEvent, FaultPlan};
use wavm3_obs::{metrics, LedgerEntry, Level, RoleLedger, TermEnergy};
use wavm3_power::{EnergyBreakdown, PhaseTimes, PowerTrace, TelemetryRecorder};
use wavm3_simkit::{RngFactory, SimDuration, SimTime};
use wavm3_workloads::{DemandProfile, Workload, WorkloadProfile};

/// Generous hard cap on simulated time: no scenario in the paper runs
/// longer than a few hundred seconds.
pub(crate) const HORIZON: SimTime = SimTime::from_secs(3_600);

/// Coarse engine state. `Post` and `Finished` are the sampled engine's
/// stabilising tail; the analytic engine stops at `me`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Stage {
    Pre,
    Initiation,
    Transfer,
    Activation,
    Post,
    Finished,
}

/// In-flight transfer bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Xfer {
    round: usize,
    pub(crate) remaining_bytes: f64,
    pub(crate) round_bytes_sent: f64,
    round_start: SimTime,
    stop_and_copy: bool,
}

/// A sub-step moves a whole tick's bytes without dividing when the round
/// has more than this factor of them left. The margin exceeds the rounding
/// error of the `*` and `/` involved, so whenever it holds `remaining/bw`
/// exceeds the tick and `min` would pick the tick anyway — the divided path
/// would produce the exact same `(step, moved)`.
const FULL_STEP_MARGIN: f64 = 1.000_000_1;

/// A round is complete once no more than this many bytes remain.
const ROUND_DONE_BYTES: f64 = 0.5;

impl Xfer {
    fn start(round: usize, bytes: f64, at: SimTime, stop_and_copy: bool) -> Self {
        Xfer {
            round,
            remaining_bytes: bytes,
            round_bytes_sent: 0.0,
            round_start: at,
            stop_and_copy,
        }
    }

    /// Whether a whole tick moving `full_tick` bytes leaves this round
    /// unfinished: the transfer sub-loop would take one full step and
    /// reach no round boundary.
    #[inline]
    pub(crate) fn whole_tick_fits(&self, full_tick: f64) -> bool {
        self.remaining_bytes > full_tick * FULL_STEP_MARGIN
            && self.remaining_bytes - full_tick > ROUND_DONE_BYTES
    }
}

/// Run-to-run environmental variability, mirroring what the paper's
/// physical testbed exhibits (and the reason its §V-B repetition rule
/// exists): thermal/fan state shifts the idle floor (σ ≈ 12 W), silicon
/// and supply efficiency drift scales the dynamic power (σ ≈ 5 %), and
/// the migration machinery's service power varies (σ ≈ 10 %). None of
/// this is visible to any of the regression models, so it sets the
/// irreducible error floor of the model comparison. Returns the jittered
/// profile and the service-power factor.
fn jitter(
    rng: &mut wavm3_simkit::StreamRng,
    noise: &EnvNoise,
    mut p: PowerProfile,
) -> (PowerProfile, f64) {
    use wavm3_simkit::rng::sample_normal;
    let idle_shift_w = sample_normal(rng, 0.0, noise.jitter_idle_std_w);
    let dyn_factor = sample_normal(rng, 1.0, noise.jitter_dyn_std).clamp(0.7, 1.3);
    let service_factor = sample_normal(rng, 1.0, noise.jitter_service_std).clamp(0.5, 1.5);
    p.idle_w = (p.idle_w + idle_shift_w).max(0.0);
    p.cpu_dynamic_w *= dyn_factor;
    p.nic_w_at_line_rate *= dyn_factor;
    p.mem_contention_w *= dyn_factor;
    (p, service_factor)
}

/// What one step of the mechanism changed, for the engine to apply to its
/// own host state at the point of the tick where the step ran.
#[derive(Debug, Clone, Copy, Default)]
#[must_use]
pub(crate) struct Moves {
    /// The migration entered another stage, or the post-copy guest
    /// resumed.
    pub(crate) edge: bool,
    /// The migrant was suspended or resumed; [`Mechanism::migrant_running`]
    /// holds its new state.
    pub(crate) run_state: bool,
    /// The migrant moved to the end of the target's placement order.
    pub(crate) relocated: bool,
}

/// The migration's state and every decision both engines share.
#[derive(Clone)]
pub(crate) struct Mechanism {
    pub(crate) cfg: MigrationConfig,
    link: Link,
    /// Endpoint power profiles with this run's jitter applied.
    pub(crate) src_power: PowerProfile,
    pub(crate) dst_power: PowerProfile,
    src_service_factor: f64,
    dst_service_factor: f64,
    pub(crate) src_name: String,
    pub(crate) dst_name: String,
    machine_set: MachineSet,
    idle_power_w: f64,
    pub(crate) vm_ram_mib: u64,
    pub(crate) migrant_ram_bytes: u64,
    /// The migrant's working set, pages: where its dirty set saturates.
    migrant_ws_pages: f64,
    pub(crate) fault_plan: FaultPlan,
    pub(crate) fault_events: Vec<FaultEvent>,
    /// Degraded-link windows already entered (each is reported once).
    link_seen: Vec<bool>,
    pub(crate) aborted: bool,
    pub(crate) ms: SimTime,
    /// Mutable only because an abort during initiation collapses the
    /// transfer phase to zero length.
    pub(crate) ts: SimTime,
    pub(crate) te: Option<SimTime>,
    pub(crate) stage: Stage,
    pub(crate) xfer: Option<Xfer>,
    /// Analytic dirty-set size of the migrant (pages, live transfer only).
    pub(crate) dirty_pages: f64,
    pub(crate) total_bytes: f64,
    suspend_time: Option<SimTime>,
    resume_time: Option<SimTime>,
    pub(crate) migrant_on_target: bool,
    pub(crate) migrant_running: bool,
    pub(crate) rounds: Vec<RoundStats>,
    /// Memo of the last dirty-saturation `(argument, exp)`: the argument
    /// repeats for every full-length sub-step of a round.
    dirty_exp: (f64, f64),
}

impl Mechanism {
    /// The run prologue: endpoint specs, this run's jitter and fault plan,
    /// and the phase instants known up front. The round and link-window
    /// buffers come from `arena`; only their capacity survives.
    pub(crate) fn new(sim: &MigrationSimulation, rng: &RngFactory, arena: &mut RunSlot) -> Self {
        let mut rounds = std::mem::take(&mut arena.rounds);
        let mut link_seen = std::mem::take(&mut arena.link_seen);
        let cfg = sim.config;
        let vm = sim.cluster.vm(sim.migrant).expect("migrant exists");
        let migrant_ram_bytes = vm.spec.ram_bytes();
        let s = &sim.cluster.host(sim.source).spec;
        let t = &sim.cluster.host(sim.target).spec;
        assert_eq!(
            s.set, t.set,
            "paper scenario: homogeneous source and target (Xen restriction)"
        );
        let (src_power, src_service_factor) =
            jitter(&mut rng.stream("jitter.source"), &cfg.env_noise, s.power);
        let (dst_power, dst_service_factor) =
            jitter(&mut rng.stream("jitter.target"), &cfg.env_noise, t.power);
        // Drawn from the same RNG scope as the rest of the run's noise, so
        // identical on every replay. A disabled config yields the empty
        // plan without touching any stream.
        let fault_plan = FaultPlan::generate(&cfg.faults, rng);
        link_seen.clear();
        link_seen.resize(fault_plan.link_windows().len(), false);
        rounds.clear();
        let ms = SimTime::ZERO + cfg.timing.pre_run;
        Mechanism {
            cfg,
            link: sim.cluster.link,
            src_power,
            dst_power,
            src_service_factor,
            dst_service_factor,
            src_name: s.name.clone(),
            dst_name: t.name.clone(),
            machine_set: s.set,
            idle_power_w: s.power.idle_w,
            vm_ram_mib: vm.spec.ram_mib,
            migrant_ram_bytes,
            migrant_ws_pages: sim
                .workloads
                .get(&sim.migrant)
                .map(|w| w.working_set_fraction() * (migrant_ram_bytes / PAGE_SIZE_BYTES) as f64)
                .unwrap_or(0.0),
            fault_plan,
            fault_events: Vec::new(),
            link_seen,
            aborted: false,
            ms,
            ts: ms + cfg.timing.initiation,
            te: None,
            stage: Stage::Pre,
            xfer: None,
            dirty_pages: 0.0,
            total_bytes: 0.0,
            suspend_time: None,
            resume_time: None,
            migrant_on_target: false,
            migrant_running: true,
            rounds,
            dirty_exp: (f64::NAN, 0.0),
        }
    }

    fn suspend(&mut self, at: SimTime, reason: &'static str, moves: &mut Moves) {
        self.migrant_running = false;
        self.suspend_time = Some(at);
        moves.run_state = true;
        wavm3_obs::event!(
            Level::Debug, "wavm3_migration", "vm.suspend", at,
            "reason" => reason,
        );
    }

    fn resume(&mut self, at: SimTime, reason: &'static str, moves: &mut Moves) {
        self.migrant_running = true;
        self.resume_time = Some(at);
        moves.run_state = true;
        wavm3_obs::event!(
            Level::Debug, "wavm3_migration", "vm.resume", at,
            "reason" => reason,
        );
    }

    /// The stage edges that fire on tick boundaries, in order, followed by
    /// the injected abort.
    #[inline(always)]
    pub(crate) fn stage_edges(&mut self, now: SimTime) -> Moves {
        let mut moves = Moves::default();
        let kind = self.cfg.kind;
        if self.stage == Stage::Pre && now >= self.ms {
            self.stage = Stage::Initiation;
            moves.edge = true;
            if kind == MigrationKind::NonLive {
                // Suspend-and-copy: the VM stops at migration start.
                self.suspend(now, "non_live_start", &mut moves);
            }
        }
        if self.stage == Stage::Initiation && now >= self.ts {
            self.stage = Stage::Transfer;
            moves.edge = true;
            self.xfer = Some(Xfer::start(0, self.migrant_ram_bytes as f64, now, false));
            self.dirty_pages = 0.0; // log-dirty bitmap cleared at ts
            if kind == MigrationKind::PostCopy {
                // Post-copy handover: suspend, move the CPU state, and run
                // on the target while memory follows over the wire.
                self.suspend(now, "postcopy_handover", &mut moves);
                self.migrant_on_target = true;
                moves.relocated = true;
            }
        }
        if self.pending_resume().is_some_and(|t| now >= t) {
            self.resume(now, "postcopy_target", &mut moves);
            moves.edge = true;
        }
        if self.stage == Stage::Activation && self.me().is_some_and(|me| now >= me) {
            self.stage = Stage::Post;
            moves.edge = true;
        }
        if self.pending_abort().is_some_and(|t| now >= t) {
            // Roll the migration back to the source.
            self.aborted = true;
            self.record_fault(FaultEvent::Aborted {
                at: now,
                bytes_sent: self.total_bytes.round() as u64,
            });
            // The VM never left the source; resume it if this migration
            // suspended it (non-live, or a live stop-and-copy pass caught
            // mid-flight).
            if !self.migrant_running {
                self.resume(now, "abort_rollback", &mut moves);
            }
            // Timeline: `te` = abort instant; the activation-length window
            // that follows holds target teardown and source cleanup,
            // accounted as rollback energy.
            if self.stage == Stage::Initiation {
                self.ts = now; // the transfer never started
            }
            self.end_transfer(now);
            self.xfer = None;
            self.dirty_pages = 0.0;
            moves.edge = true;
        }
        moves
    }

    /// When the post-copy guest resumes on the target, while that is still
    /// to come.
    #[inline]
    pub(crate) fn pending_resume(&self) -> Option<SimTime> {
        (self.cfg.kind == MigrationKind::PostCopy
            && self.migrant_on_target
            && self.resume_time.is_none())
        .then(|| self.ts + self.cfg.timing.postcopy_handover)
    }

    /// When the injected abort fires, while it still can. Post-copy runs
    /// are only abortable before the handover (once the VM executes on the
    /// target there is nothing to roll back to); pre-copy and non-live runs
    /// are abortable until `te`.
    #[inline]
    pub(crate) fn pending_abort(&self) -> Option<SimTime> {
        let armed = !self.aborted
            && matches!(self.stage, Stage::Initiation | Stage::Transfer)
            && !self.migrant_on_target;
        self.fault_plan.abort_at().filter(|_| armed)
    }

    /// Whether the post-copy demand ramp is on: the migrant's demand
    /// multiplier moves with every byte transferred.
    #[inline]
    pub(crate) fn ramping(&self) -> bool {
        self.cfg.kind == MigrationKind::PostCopy && self.stage == Stage::Transfer
    }

    /// The migrant's CPU-demand multiplier. In post-copy transfer the
    /// guest stalls on demand fetches while pages are still remote, so its
    /// achievable CPU rises with the fraction of memory already local;
    /// elsewhere 1.0, an exact no-op.
    #[inline]
    pub(crate) fn migrant_factor(&self) -> f64 {
        if self.ramping() {
            let progress = self
                .xfer
                .map(|x| 1.0 - (x.remaining_bytes / self.migrant_ram_bytes as f64).clamp(0.0, 1.0))
                .unwrap_or(1.0);
            0.55 + 0.45 * progress
        } else {
            1.0
        }
    }

    /// Migration CPU demand per stage (`CPU_migr` of Eq. 2) on source and
    /// target, cores; `write_rate` is the migrant's page-write rate.
    #[inline]
    pub(crate) fn migration_cores(&self, write_rate: f64) -> (f64, f64) {
        let cost = self.cfg.cpu_cost;
        match self.stage {
            Stage::Initiation | Stage::Activation => (cost.control_cores, cost.control_cores),
            Stage::Transfer => {
                // Log-dirty tracking scales with the guest's dirtying
                // intensity while it runs on the source (live only).
                let dirty_intensity = if self.cfg.kind == MigrationKind::Live
                    && !self.migrant_on_target
                    && self.migrant_running
                {
                    (write_rate / PEAK_PAGE_WRITE_RATE).min(1.0)
                } else {
                    0.0
                };
                (
                    cost.source_cores_at_line_rate + cost.dirty_tracking_cores * dirty_intensity,
                    cost.target_cores_at_line_rate,
                )
            }
            _ => (0.0, 0.0),
        }
    }

    /// The migration stream's bandwidth in bytes/s (0 outside transfer):
    /// the link at the pace of the endpoint with the smaller CPU grant
    /// `scale`, on the line share background guests leave free (`*_bg`,
    /// paper §III-B), throttled by injected link degradation, then by the
    /// sender-side rate cap.
    #[inline]
    pub(crate) fn coupled_bandwidth(
        &mut self,
        now: SimTime,
        src_scale: f64,
        dst_scale: f64,
        src_bg: f64,
        dst_bg: f64,
    ) -> f64 {
        if self.stage != Stage::Transfer {
            return 0.0;
        }
        let free_line = (1.0 - src_bg.max(dst_bg)).max(0.02);
        let fault_factor = self.fault_plan.bandwidth_factor_at(now);
        if fault_factor < 1.0 {
            self.note_link_windows(now);
        }
        let bw = self.link.effective_bandwidth(src_scale, dst_scale) * free_line * fault_factor;
        match self.cfg.precopy.rate_limit_bps {
            Some(cap) => bw.min(cap.max(1.0)),
            None => bw,
        }
    }

    /// Report each newly entered degraded-link window once.
    fn note_link_windows(&mut self, now: SimTime) {
        for i in 0..self.link_seen.len() {
            let w = self.fault_plan.link_windows()[i];
            if w.window.contains(now) && !self.link_seen[i] {
                self.link_seen[i] = true;
                self.record_fault(FaultEvent::LinkDegraded {
                    window: w.window,
                    bandwidth_factor: w.bandwidth_factor,
                });
            }
        }
    }

    fn record_fault(&mut self, event: FaultEvent) {
        self.fault_events.push(event);
        observe_fault(self.fault_events.last().expect("just pushed"));
    }

    /// Whether the migrant's dirty set grows: a live migrant that runs.
    #[inline]
    pub(crate) fn dirtying(&self) -> bool {
        self.cfg.kind == MigrationKind::Live && self.migrant_running && self.migrant_ws_pages >= 1.0
    }

    /// The dirty-set saturation factor over `step` seconds of writes at
    /// `write_rate` pages/s.
    #[inline]
    pub(crate) fn dirty_decay(&mut self, write_rate: f64, step: f64) -> f64 {
        let arg = -write_rate * step / self.migrant_ws_pages;
        if arg != self.dirty_exp.0 {
            self.dirty_exp = (arg, arg.exp());
        }
        self.dirty_exp.1
    }

    /// One step of dirty-set saturation by `decay`.
    #[inline]
    pub(crate) fn saturate_dirty(&mut self, decay: f64) {
        let ws = self.migrant_ws_pages;
        self.dirty_pages = ws - (ws - self.dirty_pages) * decay;
    }

    /// Advance the transfer by one tick of `dt_s` seconds at `bw` bytes/s,
    /// crossing round boundaries as needed; `write_rate` is the migrant's
    /// page-write rate. A round that completes applies the pre-copy round
    /// rule; a transfer that completes hands the VM over to the target.
    #[inline(always)]
    pub(crate) fn advance_transfer(
        &mut self,
        now: SimTime,
        dt_s: f64,
        bw: f64,
        write_rate: f64,
    ) -> Moves {
        let mut moves = Moves::default();
        if self.stage != Stage::Transfer {
            return moves;
        }
        let mut x = self.xfer.expect("transfer state exists");
        let mut t_cur = now;
        let mut dt_left = dt_s;
        while dt_left > 1e-12 {
            if bw <= 0.0 {
                break; // fully starved this tick; try again next tick
            }
            let full_tick = bw * dt_left;
            let (step, moved) = if x.remaining_bytes > full_tick * FULL_STEP_MARGIN {
                (dt_left, full_tick)
            } else {
                let step = (x.remaining_bytes / bw).min(dt_left);
                (step, bw * step)
            };
            x.remaining_bytes -= moved;
            x.round_bytes_sent += moved;
            self.total_bytes += moved;
            if self.dirtying() {
                let decay = self.dirty_decay(write_rate, step);
                self.saturate_dirty(decay);
            }
            let completes = x.remaining_bytes <= ROUND_DONE_BYTES;
            if completes || step < dt_left {
                // `t_cur` is only ever read at a round boundary; a full
                // step that completes nothing ends the tick, so its µs
                // conversion is unobservable and skipped.
                t_cur += SimDuration::from_secs_f64(step);
            }
            dt_left -= step;
            if completes {
                x = self.end_round(x, t_cur, &mut moves);
                if self.stage != Stage::Transfer {
                    break;
                }
            }
        }
        self.xfer = Some(x);
        if self.stage == Stage::Activation {
            moves.edge = true;
            // Transfer finished inside this tick: hand the VM over
            // (post-copy already moved it at the start of transfer).
            if !self.migrant_on_target {
                self.migrant_on_target = true;
                moves.relocated = true;
                self.resume(self.te.expect("te set"), "activation", &mut moves);
            }
        }
        moves
    }

    /// Close round `x` at `t` and decide what follows: the end of the
    /// transfer, another pre-copy round, or the final stop-and-copy.
    fn end_round(&mut self, x: Xfer, t: SimTime, moves: &mut Moves) -> Xfer {
        let pages_sent = (x.round_bytes_sent / PAGE_SIZE_BYTES as f64).max(1.0);
        let d_end = self.dirty_pages.round() as u64;
        self.rounds.push(RoundStats {
            round: x.round,
            bytes_sent: x.round_bytes_sent.round() as u64,
            duration: t - x.round_start,
            dirty_at_end_pages: d_end,
            stop_and_copy: x.stop_and_copy,
        });
        wavm3_obs::event!(
            Level::Debug, "wavm3_migration", "transfer.round", t,
            "round" => x.round as u64,
            "bytes_sent" => x.round_bytes_sent.round() as u64,
            "dirty_at_end_pages" => d_end,
            "stop_and_copy" => x.stop_and_copy,
        );
        if x.stop_and_copy || self.cfg.kind != MigrationKind::Live {
            self.end_transfer(t);
            return x;
        }
        // Live pre-copy round boundary: decide.
        let precopy = self.cfg.precopy;
        let threshold = precopy.stop_threshold_pages as f64;
        let stall = d_end as f64 >= precopy.stall_ratio * pages_sent;
        let cap = x.round + 1 >= precopy.max_rounds;
        // Injected dirty-page storm: force the final pass at the fault's
        // round cap where the engine's own rules would keep iterating.
        let forced = d_end > 0
            && self
                .fault_plan
                .force_stop_after_rounds()
                .is_some_and(|c| x.round + 1 >= c)
            && !(d_end as f64 <= threshold || stall || cap);
        if forced {
            self.record_fault(FaultEvent::ForcedStopAndCopy {
                at: t,
                after_rounds: x.round + 1,
            });
        }
        if d_end == 0 {
            self.end_transfer(t);
            return x;
        }
        let stop_and_copy = d_end as f64 <= threshold || stall || cap || forced;
        if stop_and_copy {
            // Final stop-and-copy: suspend the VM.
            self.suspend(t, "stop_and_copy", moves);
        }
        self.dirty_pages = 0.0;
        Xfer::start(
            x.round + 1,
            d_end as f64 * PAGE_SIZE_BYTES as f64,
            t,
            stop_and_copy,
        )
    }

    fn end_transfer(&mut self, t: SimTime) {
        self.te = Some(t);
        self.stage = Stage::Activation;
    }

    /// The end of activation, once `te` is known.
    #[inline]
    pub(crate) fn me(&self) -> Option<SimTime> {
        self.te.map(|te| te + self.cfg.timing.activation)
    }

    /// Service power of the migration machinery in `stage` on source and
    /// target, watts, with this run's jitter.
    #[inline]
    pub(crate) fn service_power(&self, stage: Stage) -> (f64, f64) {
        let svc = self.cfg.service;
        let (src, dst) = match stage {
            Stage::Initiation => (svc.init_source_w, svc.init_target_w),
            Stage::Transfer => (svc.transfer_source_w, svc.transfer_target_w),
            Stage::Activation => (svc.activation_source_w, svc.activation_target_w),
            _ => (0.0, 0.0),
        };
        (src * self.src_service_factor, dst * self.dst_service_factor)
    }

    /// Pages/s the target writes while it receives the migration: the
    /// incoming state is loaded into memory.
    #[inline]
    pub(crate) fn state_load_rate(&self, bw: f64) -> f64 {
        if self.stage == Stage::Transfer {
            bw / PAGE_SIZE_BYTES as f64
        } else {
            0.0
        }
    }

    /// The phase instants of the finished run.
    pub(crate) fn phases(&self) -> PhaseTimes {
        PhaseTimes::new(
            self.ms,
            self.ts,
            self.te.expect("transfer completed"),
            self.me().expect("activation scheduled"),
        )
    }

    /// How long the migrant was suspended.
    pub(crate) fn downtime(&self) -> SimDuration {
        match (self.suspend_time, self.resume_time) {
            (Some(s), Some(r)) => r.saturating_since(s),
            _ => SimDuration::ZERO,
        }
    }

    pub(crate) fn outcome_label(&self) -> &'static str {
        if self.aborted {
            "aborted"
        } else {
            "completed"
        }
    }

    /// The end of the run: record the `migration.*` metrics and assemble
    /// the record. Meter and truth traces, telemetry and feature samples
    /// are left empty; the sampled engine fills them in.
    pub(crate) fn finish(
        &mut self,
        phases: PhaseTimes,
        src: EnergyBreakdown,
        dst: EnergyBreakdown,
    ) -> MigrationRecord {
        let downtime = self.downtime();
        metrics::counter_add("migration.runs", 1);
        if self.aborted {
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
            (src.total_j() + dst.total_j()) / 1e3,
        );
        for (name, src_j, dst_j) in [
            (
                "migration.phase.initiation_kj",
                src.initiation_j,
                dst.initiation_j,
            ),
            (
                "migration.phase.transfer_kj",
                src.transfer_j,
                dst.transfer_j,
            ),
            (
                "migration.phase.activation_kj",
                src.activation_j,
                dst.activation_j,
            ),
            (
                "migration.phase.rollback_kj",
                src.rollback_j,
                dst.rollback_j,
            ),
        ] {
            metrics::observe(name, metrics::buckets::ENERGY_KJ, (src_j + dst_j) / 1e3);
        }

        MigrationRecord {
            kind: self.cfg.kind,
            machine_set: self.machine_set,
            phases,
            source_trace: PowerTrace::new(self.src_name.clone()),
            target_trace: PowerTrace::new(self.dst_name.clone()),
            source_truth: PowerTrace::new(std::mem::take(&mut self.src_name)),
            target_truth: PowerTrace::new(std::mem::take(&mut self.dst_name)),
            telemetry: TelemetryRecorder::new(),
            samples: Vec::new(),
            rounds: self.rounds.clone(),
            total_bytes: self.total_bytes.round() as u64,
            downtime,
            vm_ram_mib: self.vm_ram_mib,
            source_energy: src,
            target_energy: dst,
            idle_power_w: self.idle_power_w,
            outcome: if self.aborted {
                MigrationOutcome::Aborted
            } else {
                MigrationOutcome::Completed
            },
            fault_events: std::mem::take(&mut self.fault_events),
            attempt: 0,
            retry_backoff: SimDuration::ZERO,
        }
    }

    /// End where `t`, a fault-free run of the same prototype, ended instead
    /// of ticking there: its trajectory is the same whatever the run's
    /// jitter. Adopts all that [`Self::phases`] and [`Self::finish`] read.
    pub(crate) fn adopt(&mut self, t: &Mechanism) {
        self.ts = t.ts;
        self.te = t.te;
        self.rounds.extend_from_slice(&t.rounds);
        self.total_bytes = t.total_bytes;
        self.suspend_time = t.suspend_time;
        self.resume_time = t.resume_time;
    }

    /// Book the run in the energy ledger from each role's per-term energy
    /// over initiation, transfer and the post-`te` window; after an abort
    /// that window is rollback, not activation.
    pub(crate) fn record_ledger(&self, source: [TermEnergy; 3], target: [TermEnergy; 3]) {
        let role = |[initiation, transfer, tail]: [TermEnergy; 3]| RoleLedger {
            initiation,
            transfer,
            activation: if self.aborted {
                TermEnergy::default()
            } else {
                tail
            },
            rollback: if self.aborted {
                tail
            } else {
                TermEnergy::default()
            },
        };
        wavm3_obs::ledger::record(LedgerEntry {
            kind: self.cfg.kind.label(),
            outcome: self.outcome_label(),
            source: role(source),
            target: role(target),
        });
    }
}

/// Recycled per-worker buffers for repeated runs.
///
/// A campaign worker holds one `RunSlot` and threads it through every
/// repetition it executes ([`MigrationSimulation::run_reusing`]); the host
/// slot vectors, round-statistics buffer, fault-window bitmap and the
/// analytic engine's tick record keep their capacity between runs, so the
/// analytic engine's steady-state tick loop performs no heap allocation at
/// all. A default (empty) slot behaves identically to the one-shot path —
/// results are a pure function of the scenario and RNG, never of what the
/// buffers held before.
#[derive(Default)]
pub struct RunSlot {
    src_slots: Vec<Slot>,
    dst_slots: Vec<Slot>,
    rounds: Vec<RoundStats>,
    link_seen: Vec<bool>,
    /// The analytic tick loop's record of each tick's power inputs.
    pub(crate) steps: Vec<Step>,
}

impl RunSlot {
    /// Take back the mechanism's buffers of a finished run.
    pub(crate) fn recycle(&mut self, mech: Mechanism) {
        self.rounds = mech.rounds;
        self.link_seen = mech.link_seen;
    }

    /// Take back the slot arrays of a finished tick loop.
    pub(crate) fn recycle_hosts(&mut self, hosts: Hosts) {
        self.src_slots = hosts.src.slots;
        self.dst_slots = hosts.dst.slots;
    }
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
/// `Vm` twin the engines step instead of a `Cluster`.
pub(crate) struct Slot {
    pub(crate) vcpus: f64,
    /// Stored demand, clamped like `Vm::set_cpu_demand`.
    pub(crate) demand: f64,
    pub(crate) running: bool,
    is_migrant: bool,
    cpu: CpuCurve,
    /// Constant page-write rate, or `None` → trait query per use.
    write_rate: Option<f64>,
    /// Constant NIC line share, or `None` → trait query per use.
    line_share: Option<f64>,
    /// Trait object for `General` fallbacks; `None` for VMs with no
    /// workload attached.
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
    pub(crate) fn folds_constant(&self) -> bool {
        self.wl.is_none() || (self.write_rate.is_some() && self.line_share.is_some())
    }
}

/// Placement-order folds the engine needs once per tick, produced by a
/// single fused pass over a host's slots.
#[derive(Clone, Copy, Default)]
pub(crate) struct TickSums {
    /// CPU demand fold of running VMs (placement order, starts at 0.0 —
    /// the exact fold `Host::cpu_accounting` performs).
    pub(crate) vm_cores: f64,
    /// Running VM count (with or without a workload) for the VMM
    /// overhead curve.
    pub(crate) running: usize,
    /// NIC line-share fold of running guests with workloads (uncapped).
    line_share: f64,
    /// Page-write-rate fold of running guests with workloads.
    pub(crate) write_rate: f64,
}

impl TickSums {
    /// Background NIC line share, capped at the line.
    #[inline]
    pub(crate) fn bg(&self) -> f64 {
        self.line_share.min(1.0)
    }
}

/// What a tick resolves before its transfer step: demands, allocations and
/// the coupled bandwidth. An analytic span replays from its preceding
/// tick's copy.
#[derive(Clone, Copy)]
pub(crate) struct Prelude {
    /// The migrant's page-write rate.
    pub(crate) migrant_wr: f64,
    pub(crate) src: TickSums,
    pub(crate) dst: TickSums,
    pub(crate) src_alloc: CpuAllocation,
    pub(crate) dst_alloc: CpuAllocation,
    pub(crate) bw: f64,
}

/// One host's mutable simulation state.
pub(crate) struct HostState {
    capacity: f64,
    pub(crate) slots: Vec<Slot>,
    /// Every demand curve is constant and every fold a profile constant,
    /// so the host's allocation and power are frozen between events. Goes
    /// stale when the migrant's slot relocates.
    pub(crate) constant: bool,
}

impl HostState {
    /// Build host `id`'s slot array into `slots` (a recycled buffer —
    /// cleared first, so only its capacity survives between runs), with
    /// each workload described by `profile_of` and ripple curves
    /// positioned at `t0`.
    fn new(
        sim: &MigrationSimulation,
        id: HostId,
        t0: SimTime,
        profile_of: fn(&dyn Workload) -> WorkloadProfile,
        mut slots: Vec<Slot>,
    ) -> Self {
        use std::f64::consts::TAU;
        let dt_s = sim.config.timing.tick.as_secs_f64();
        let host = sim.cluster.host(id);
        slots.clear();
        slots.extend(host.vms().iter().map(|vm| {
            let wl = sim.workloads.get(&vm.id).cloned();
            let profile = wl.as_deref().map(profile_of);
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
                is_migrant: vm.id == sim.migrant,
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
    /// one placement-order pass. A suspended guest's 0.0 demand, which
    /// `Host::cpu_accounting` adds to `vm_cores`, is left out: it cannot
    /// move a sum that starts at +0.0. `migrant_factor` is the post-copy
    /// degraded-demand multiplier, applied to the migrant slot only (pass
    /// 1.0 otherwise — an exact no-op).
    ///
    /// Suspension flags must be synced *before* the call: the folds read
    /// them, exactly like `Vm::cpu_demand` gating on the Running state.
    #[inline]
    pub(crate) fn refresh_tick(&mut self, now: SimTime, migrant_factor: f64) -> TickSums {
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
            }
        }
        sums
    }

    /// `start` plus the placement-order write-rate fold of running guests,
    /// at the placement and suspension state of the call: the
    /// memory-activity term reads the state after the transfer step.
    pub(crate) fn write_rate_sum(&self, start: f64, t: SimTime) -> f64 {
        let mut rate = start;
        for s in &self.slots {
            if s.running && s.wl.is_some() {
                rate += s.write_rate_at(t);
            }
        }
        rate
    }

    /// Whether the host's Eq. 2 grant `scale` cannot move before the next
    /// event while the migration demands `migration_cores`: the host is
    /// constant, or the peak demand of its running guests leaves it
    /// unsaturated, so `scale` stays exactly 1.0. A constant curve peaks at
    /// its stored demand and an oscillator at its crest. The margins cover
    /// the rotation's ulp drift and the fold's rounding. A `General` curve
    /// has no peak.
    pub(crate) fn grant_frozen(&self, migration_cores: f64) -> bool {
        if self.constant {
            return true;
        }
        let mut running = 0;
        let mut cores = migration_cores.max(0.0);
        for s in self.slots.iter().filter(|s| s.running) {
            running += 1;
            cores += match s.cpu {
                CpuCurve::Constant(_) => s.demand,
                CpuCurve::Osc {
                    target,
                    half_ripple,
                    ..
                } => s
                    .vcpus
                    .min(target.abs() * (1.0 + half_ripple.abs() * (1.0 + 1e-6))),
                CpuCurve::General => return false,
            };
        }
        vmm_overhead_cores(running) + cores <= self.capacity * (1.0 - 1e-9)
    }

    /// The host's CPU allocation (Eq. 2) for `running` VMs demanding
    /// `vm_cores`, plus the migration's own `migration_cores`.
    #[inline]
    pub(crate) fn allocate(
        &self,
        running: usize,
        vm_cores: f64,
        migration_cores: f64,
    ) -> CpuAllocation {
        CpuAccounting {
            vmm_cores: vmm_overhead_cores(running),
            vm_cores,
            migration_cores: migration_cores.max(0.0),
        }
        .allocate(self.capacity)
    }
}

/// The sampled engine's closed-form choice: `w`'s `demand_profile()`,
/// with every demand curve that moves (a ripple, or no closed form) left
/// to a `cpu_demand` call per tick. Constant demands and the write-rate
/// and line-share folds are taken as they are; the trait's contract makes
/// each agree bitwise with the method it replaces.
pub(crate) fn sampled_profile(w: &dyn Workload) -> WorkloadProfile {
    let profile = w.demand_profile();
    match profile.cpu {
        DemandProfile::Constant(_) => profile,
        DemandProfile::Ripple { .. } | DemandProfile::General => WorkloadProfile {
            cpu: DemandProfile::General,
            ..profile
        },
    }
}

/// Both endpoints' host state, and where the migrant's slot sits.
pub(crate) struct Hosts {
    pub(crate) src: HostState,
    pub(crate) dst: HostState,
    /// The migrant's index in the placement order of the host holding it.
    m_idx: usize,
}

impl Hosts {
    /// Build both endpoints' slot arrays in `arena`'s buffers, with ripple
    /// curves positioned at `t0`. `profile_of` is the engine's closed-form
    /// choice: each workload's `demand_profile()`, whose ripples become
    /// rotation recurrences, or [`sampled_profile`], which keeps only its
    /// constants and leaves every moving curve to a trait call per tick.
    pub(crate) fn new(
        sim: &MigrationSimulation,
        t0: SimTime,
        profile_of: fn(&dyn Workload) -> WorkloadProfile,
        arena: &mut RunSlot,
    ) -> Self {
        let host = |id, slots| HostState::new(sim, id, t0, profile_of, slots);
        let src = host(sim.source, std::mem::take(&mut arena.src_slots));
        let dst = host(sim.target, std::mem::take(&mut arena.dst_slots));
        let m_idx = src
            .slots
            .iter()
            .position(|s| s.is_migrant)
            .expect("migrant starts on the source");
        Hosts { src, dst, m_idx }
    }

    /// The migrant's slot, on whichever host holds it.
    #[inline]
    pub(crate) fn migrant(&self, mech: &Mechanism) -> &Slot {
        let host = if mech.migrant_on_target {
            &self.dst
        } else {
            &self.src
        };
        &host.slots[self.m_idx]
    }

    /// Apply `moves` to the slot arrays: move the migrant's slot to the end
    /// of the target's placement order, as `Cluster::relocate_vm` does, and
    /// sync its run state. Returns whether the migrant's placement or run
    /// state changed.
    #[inline(always)]
    pub(crate) fn apply_moves(&mut self, mech: &Mechanism, moves: Moves) -> bool {
        if moves.relocated {
            let slot = self.src.slots.remove(self.m_idx);
            self.dst.slots.push(slot);
            self.m_idx = self.dst.slots.len() - 1;
            self.src.constant = self.src.is_constant();
            self.dst.constant = self.dst.is_constant();
        }
        if moves.run_state {
            let host = if mech.migrant_on_target {
                &mut self.dst
            } else {
                &mut self.src
            };
            host.slots[self.m_idx].running = mech.migrant_running;
        }
        moves.relocated || moves.run_state
    }

    /// The full tick prelude: refresh every demand and fold each host's
    /// sums, then resolve the migration's own CPU, both allocations and the
    /// coupled bandwidth. The migrant's write rate comes from its slot
    /// whether or not it runs.
    #[inline(always)]
    pub(crate) fn prelude(&mut self, mech: &mut Mechanism, now: SimTime) -> Prelude {
        let migrant_factor = mech.migrant_factor();
        let src = self.src.refresh_tick(now, migrant_factor);
        let dst = self.dst.refresh_tick(now, migrant_factor);
        let migrant_wr = self.migrant(mech).write_rate_at(now);
        let (migr_src, migr_dst) = mech.migration_cores(migrant_wr);
        let src_alloc = self.src.allocate(src.running, src.vm_cores, migr_src);
        let dst_alloc = self.dst.allocate(dst.running, dst.vm_cores, migr_dst);
        let bw = mech.coupled_bandwidth(now, src_alloc.scale, dst_alloc.scale, src.bg(), dst.bg());
        Prelude {
            migrant_wr,
            src,
            dst,
            src_alloc,
            dst_alloc,
            bw,
        }
    }
}

#[cfg(test)]
mod tests;
