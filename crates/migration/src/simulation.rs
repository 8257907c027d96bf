//! The migration scenario simulator.
//!
//! One [`MigrationSimulation`] runs one complete measured migration: a
//! normal-execution lead-in (meters stabilising), the initiation /
//! transfer / activation phases, and a stabilising tail — producing a
//! [`MigrationRecord`] with everything the paper's methodology extracts
//! from a testbed run.
//!
//! The engine advances on a fixed 100 ms tick (continuous dynamics:
//! bandwidth/CPU coupling, dirty-page saturation) while the meters sample
//! on their own 2 Hz schedule, exactly like the paper's instrumentation.

use crate::analytic::Tape;
use crate::config::{EnvNoise, MigrationConfig, SimulationPath};
use crate::engine::{sampled_profile, Hosts, Mechanism, RunSlot, Stage, HORIZON};
use crate::record::{FeatureSample, MigrationRecord};
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use wavm3_cluster::{Cluster, HostId, VmId, PAGE_SIZE_BYTES};
use wavm3_harness::Wavm3Error;
use wavm3_obs::{Level, TermEnergy};
use wavm3_power::{
    channels, ground_truth_power, ground_truth_terms, EnergyBreakdown, PhaseTimes, PowerInputs,
    PowerMeter, PowerTerms, PowerTrace, TelemetryRecorder,
};
use wavm3_simkit::{RngFactory, SimDuration, SimTime};
use wavm3_workloads::Workload;

/// Page-write rate treated as 100 % memory-bus contention (pages/s).
pub const PEAK_PAGE_WRITE_RATE: f64 = 250_000.0;

/// Relaxed stabilisation tolerance used to end the measurement tail (the
/// strict 0.3 % device-accuracy rule gates *readings*, but with synthetic
/// meter noise the run-level criterion uses a 1.5 % envelope).
const TAIL_STABILITY_TOLERANCE: f64 = 0.015;

/// A slow Ornstein–Uhlenbeck power wander (fans, temperature, background
/// dom-0 housekeeping): mean-reverting with time constant `tau_s` and
/// stationary standard deviation `std_w` (both from [`EnvNoise`]),
/// stepped every `dt_s` seconds.
struct PowerWander {
    x: f64,
    tau_s: f64,
    dt_s: f64,
    /// The per-step noise scale `std_w·√(2/τ)·√dt`, fixed for the run.
    step_std_w: f64,
    rng: wavm3_simkit::StreamRng,
}

impl PowerWander {
    fn new(rng: wavm3_simkit::StreamRng, noise: &EnvNoise, dt_s: f64) -> Self {
        PowerWander {
            x: 0.0,
            tau_s: noise.wander_tau_s,
            dt_s,
            step_std_w: (noise.wander_std_w * (2.0 / noise.wander_tau_s).sqrt()) * dt_s.sqrt(),
            rng,
        }
    }

    fn step(&mut self) -> f64 {
        use wavm3_simkit::rng::sample_normal;
        let noise = sample_normal(&mut self.rng, 0.0, self.step_std_w);
        self.x += -self.x / self.tau_s * self.dt_s + noise;
        self.x
    }
}

/// Per-term power traces on the meter's 2 Hz grid, feeding the energy
/// ledger. Each metered (noisy) reading is split across the ground-truth
/// terms proportionally, so the term traces always integrate back to the
/// metered energy — conservation holds by construction, with measurement
/// noise and environmental wander spread pro rata across the terms.
struct TermTraces {
    idle: PowerTrace,
    cpu: PowerTrace,
    mem_dirty: PowerTrace,
    network: PowerTrace,
    service: PowerTrace,
}

impl TermTraces {
    fn new() -> Self {
        TermTraces {
            idle: PowerTrace::new("idle"),
            cpu: PowerTrace::new("cpu"),
            mem_dirty: PowerTrace::new("mem_dirty"),
            network: PowerTrace::new("network"),
            service: PowerTrace::new("service"),
        }
    }

    /// Attribute reading `reading_w` at `t` across `terms` pro rata.
    fn record(&mut self, t: SimTime, reading_w: f64, terms: PowerTerms) {
        let total = terms.total_w();
        if total > 0.0 {
            let k = reading_w / total;
            self.idle.record(t, terms.idle_w * k);
            self.cpu.record(t, terms.cpu_w * k);
            self.mem_dirty.record(t, terms.mem_dirty_w * k);
            self.network.record(t, terms.network_w * k);
            self.service.record(t, terms.service_w * k);
        } else {
            // Degenerate profile: book the whole reading as idle floor so
            // no energy is ever dropped.
            self.idle.record(t, reading_w);
            self.cpu.record(t, 0.0);
            self.mem_dirty.record(t, 0.0);
            self.network.record(t, 0.0);
            self.service.record(t, 0.0);
        }
    }

    /// Integrate every term over `[from, to]` (trapezoidal, same rule as
    /// [`EnergyBreakdown`]).
    fn window(&self, from: SimTime, to: SimTime) -> TermEnergy {
        TermEnergy {
            idle_j: self.idle.energy_between(from, to),
            cpu_j: self.cpu.energy_between(from, to),
            mem_dirty_j: self.mem_dirty.energy_between(from, to),
            network_j: self.network.energy_between(from, to),
            service_j: self.service.energy_between(from, to),
        }
    }

    /// One host's terms over initiation, transfer and the post-`te`
    /// window, for [`Mechanism::record_ledger`].
    fn phase_windows(&self, phases: &PhaseTimes) -> [TermEnergy; 3] {
        [
            self.window(phases.ms, phases.ts),
            self.window(phases.ts, phases.te),
            self.window(phases.te, phases.me),
        ]
    }
}

/// A fully configured migration scenario, ready to run. It also caches a
/// pure function of itself, which lives and dies with it: the tape of its
/// first fault-free analytic run, which later ones replay.
pub struct MigrationSimulation {
    pub(crate) cluster: Cluster,
    pub(crate) workloads: BTreeMap<VmId, Arc<dyn Workload>>,
    pub(crate) migrant: VmId,
    pub(crate) source: HostId,
    pub(crate) target: HostId,
    pub(crate) config: MigrationConfig,
    pub(crate) rng: RngFactory,
    pub(crate) tape: OnceLock<Tape>,
}

impl MigrationSimulation {
    /// Assemble a scenario. The migrant must already reside on `source`,
    /// and `source != target`.
    ///
    /// # Panics
    ///
    /// On any condition [`MigrationSimulation::try_new`] rejects; use
    /// that for the error-returning path.
    pub fn new(
        cluster: Cluster,
        workloads: BTreeMap<VmId, Arc<dyn Workload>>,
        migrant: VmId,
        source: HostId,
        target: HostId,
        config: MigrationConfig,
        rng: RngFactory,
    ) -> Self {
        match Self::try_new(cluster, workloads, migrant, source, target, config, rng) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible assembly: validates the configuration (NaN, negative
    /// bandwidth, inverted intervals, ...), the placement preconditions and
    /// the migrant's crossing before the simulation horizon at the rate cap
    /// and through the worst link-fault stall, returning a taxonomy error
    /// instead of panicking.
    pub fn try_new(
        cluster: Cluster,
        workloads: BTreeMap<VmId, Arc<dyn Workload>>,
        migrant: VmId,
        source: HostId,
        target: HostId,
        config: MigrationConfig,
        rng: RngFactory,
    ) -> Result<Self, Wavm3Error> {
        config.validate()?;
        if source == target {
            return Err(Wavm3Error::invalid_input(
                "migration",
                "source and target must differ",
            ));
        }
        if cluster.locate_vm(migrant) != Some(source) {
            return Err(Wavm3Error::invalid_input(
                "migration",
                "migrant must start on the source host",
            ));
        }
        let vm = cluster
            .vm(migrant)
            .ok_or_else(|| Wavm3Error::invalid_input("migration", "migrant VM does not exist"))?;
        if !cluster.host(target).fits_ram(vm.spec.ram_mib) {
            return Err(Wavm3Error::invalid_input(
                "migration",
                "migrant does not fit on the target host",
            ));
        }
        // If the image takes `secs` to cross, can its last tick still start
        // before the horizon? Both checks assume the best rate.
        let bytes = vm.memory.total_bytes() as f64;
        let past_horizon = |secs: f64| {
            let last_tick = config
                .timing
                .last_tick_bound(SimDuration::from_secs_f64(secs));
            (last_tick >= HORIZON)
                .then(|| format!("the image needs a tick at {last_tick}, past {HORIZON}"))
        };
        // The engine never streams faster than `cap.max(1.0)`.
        let cap = config.precopy.rate_limit_bps.map(|cap| cap.max(1.0));
        if let Some(why) = cap.and_then(|cap| past_horizon(bytes / cap)) {
            return Err(Wavm3Error::invalid_config("precopy.rate_limit_bps", why));
        }
        // Link windows can stall the stream: time spent under windows runs
        // at a bandwidth factor of `min_factor` at worst, so `d` of it costs
        // `d·(1 − min_factor)` at most. The windows start in `[earliest,
        // latest]`, so they cover at most `latest − earliest + max_duration`
        // between them. The best rate is the line's, or the cap below it.
        let link = config.faults.link;
        if link.mean_windows > 0.0 {
            let line = cluster.link.line_rate_bps;
            let best = cap.map_or(line, |cap| cap.min(line));
            let longest = link.max_duration.as_secs_f64();
            let covered = (link.max_windows as f64 * longest)
                .min(link.latest.saturating_since(link.earliest).as_secs_f64() + longest);
            let stall = covered * (1.0 - link.min_factor);
            if let Some(why) = past_horizon(bytes / best + stall) {
                return Err(Wavm3Error::invalid_config("faults.link", why));
            }
        }
        Ok(MigrationSimulation {
            cluster,
            workloads,
            migrant,
            source,
            target,
            config,
            rng,
            tape: OnceLock::new(),
        })
    }

    /// Run the scenario to completion on the configured
    /// [`SimulationPath`]: [`Self::run_reusing`] with the scenario's own
    /// RNG root and fresh buffers.
    pub fn run(self) -> MigrationRecord {
        self.run_reusing(self.rng, &mut RunSlot::default())
    }

    /// Run the scenario on the configured [`SimulationPath`] with the
    /// caller's per-run RNG root, recycling all transient buffers through
    /// `slot`. No engine mutates the scenario, so one prototype serves
    /// every repetition, bit-identical to a fresh build per run (on the
    /// analytic path, later fault-free runs replay the first one's tape).
    ///
    /// The analytic path materialises no per-sample rows, so while a
    /// trace sink is recording (and needs every meter sample) the run
    /// falls back to the sampled engine ([`SimulationPath::effective`]).
    pub fn run_reusing(&self, rng: RngFactory, slot: &mut RunSlot) -> MigrationRecord {
        match self.config.path.effective() {
            SimulationPath::Analytic => self.run_analytic_reusing(rng, slot),
            SimulationPath::Sampled => self.run_sampled(rng, slot),
        }
    }

    /// The sampled reference engine: step the meter grid tick by tick.
    /// A zero tick is rejected by [`MigrationConfig::validate`] at
    /// construction, so the division by `dt` below is always sound.
    ///
    /// The slots take each workload's profile constants (a constant
    /// demand, a constant write rate or line share) and query the trait
    /// at every tick for each demand curve that moves
    /// ([`sampled_profile`]); a profile agrees bitwise with its trait
    /// methods, so the slots see exactly the values the trait gives.
    /// What is fixed for the run is worked out once: the wander's noise
    /// scale, and the tail's stability verdict between meter readings.
    fn run_sampled(&self, rng: RngFactory, slot: &mut RunSlot) -> MigrationRecord {
        let _perf = wavm3_obs::perf::scope("migration.run.sampled");
        let mut mech = Mechanism::new(self, &rng, slot);
        let cfg = mech.cfg;
        let dt = cfg.timing.tick;
        let dt_s = dt.as_secs_f64();
        let migrant_total_pages = mech.migrant_ram_bytes / PAGE_SIZE_BYTES;
        let (src_power, dst_power) = (mech.src_power, mech.dst_power);
        let mut hosts = Hosts::new(self, SimTime::ZERO, sampled_profile, slot);

        // Per-run slow wander (see PowerWander) and the 2 Hz meters.
        let noise = cfg.env_noise;
        let mut src_wander = PowerWander::new(rng.stream("wander.source"), &noise, dt_s);
        let mut dst_wander = PowerWander::new(rng.stream("wander.target"), &noise, dt_s);
        let mut src_meter = PowerMeter::new(
            mech.src_name.clone(),
            src_power.noise_std_w,
            rng.stream("meter.source"),
        );
        let mut dst_meter = PowerMeter::new(
            mech.dst_name.clone(),
            dst_power.noise_std_w,
            rng.stream("meter.target"),
        );
        let mut truth_src = PowerTrace::new(mech.src_name.clone());
        let mut truth_dst = PowerTrace::new(mech.dst_name.clone());
        // Energy-attribution ledger feed, latched once per run so the
        // per-sample work cannot toggle mid-run. No RNG stream is touched
        // on this path, so arming the ledger never perturbs results.
        let ledger_on = wavm3_obs::ledger_active();
        let mut src_attrib = TermTraces::new();
        let mut dst_attrib = TermTraces::new();
        let mut telemetry = TelemetryRecorder::new();
        let mut samples: Vec<FeatureSample> = Vec::new();
        // The tail's stability verdict and the meter-trace length it was
        // taken at: the traces only change when the meters read.
        let mut tail_stable = (usize::MAX, false);

        let mut now = SimTime::ZERO;
        while mech.stage != Stage::Finished {
            assert!(now < HORIZON, "simulation failed to terminate");

            // --- Stage edges and the injected abort. ---
            let moves = mech.stage_edges(now);
            hosts.apply_moves(&mech, moves);
            if mech.stage == Stage::Post {
                let me = mech.me().expect("me set in the tail");
                let min_end = me + cfg.timing.post_run_min;
                let max_end = me + cfg.timing.post_run_max;
                // Both meters read at the same instants, so the source
                // trace's length keys both verdicts.
                let readings = src_meter.trace().series.len();
                if tail_stable.0 != readings {
                    let stable = |meter: &PowerMeter| {
                        meter.trace().series.is_stable(20, TAIL_STABILITY_TOLERANCE)
                    };
                    tail_stable = (readings, stable(&src_meter) && stable(&dst_meter));
                }
                if (now >= min_end && tail_stable.1) || now >= max_end {
                    // Leave before this tick's meter samples: the trace
                    // already covers the whole window.
                    mech.stage = Stage::Finished;
                    continue;
                }
            }

            // --- Refresh demands, resolve allocations and the bandwidth. ---
            let p = hosts.prelude(&mut mech, now);
            let (src_alloc, dst_alloc) = (p.src_alloc, p.dst_alloc);

            // --- Advance the transfer within this tick (may cross rounds). ---
            let moves = mech.advance_transfer(now, dt_s, p.bw, p.migrant_wr);
            let moved = hosts.apply_moves(&mech, moves);
            let current_bw = if moves.edge { 0.0 } else { p.bw };

            // --- Ground-truth power for both hosts at this instant. ---
            // The memory-activity term reads the placement after the
            // transfer step and, on the target, starts from the incoming
            // state's writes; otherwise the prelude's folds are the sums.
            let migr_nic = self.cluster.link.line_utilisation(current_bw);
            let (svc_src, svc_dst) = mech.service_power(mech.stage);
            let mem_activity = |rate: f64| (rate / PEAK_PAGE_WRITE_RATE).min(1.0);
            let loading = mech.state_load_rate(current_bw);
            let src_wr = if moved {
                hosts.src.write_rate_sum(0.0, now)
            } else {
                p.src.write_rate
            };
            let dst_wr = if moved || loading != 0.0 {
                hosts.dst.write_rate_sum(loading, now)
            } else {
                p.dst.write_rate
            };
            let src_inputs = PowerInputs {
                cpu_utilisation: src_alloc.utilisation(),
                nic_utilisation: (migr_nic + p.src.bg()).min(1.0),
                mem_activity: mem_activity(src_wr),
                service_w: svc_src,
            };
            let dst_inputs = PowerInputs {
                cpu_utilisation: dst_alloc.utilisation(),
                nic_utilisation: (migr_nic + p.dst.bg()).min(1.0),
                mem_activity: mem_activity(dst_wr),
                service_w: svc_dst,
            };
            let p_src = (ground_truth_power(&src_power, src_inputs) + src_wander.step()).max(0.0);
            let p_dst = (ground_truth_power(&dst_power, dst_inputs) + dst_wander.step()).max(0.0);
            truth_src.record(now, p_src);
            truth_dst.record(now, p_dst);

            // --- Meter sampling on the 2 Hz grid. ---
            while src_meter.next_sample_time() < now + dt {
                let t_sample = src_meter.next_sample_time();
                let r_src = src_meter.sample(t_sample, p_src);
                let r_dst = dst_meter.sample(t_sample, p_dst);

                if ledger_on {
                    src_attrib.record(t_sample, r_src, ground_truth_terms(&src_power, src_inputs));
                    dst_attrib.record(t_sample, r_dst, ground_truth_terms(&dst_power, dst_inputs));
                }

                let migrant_cpu_fraction = {
                    let vm = hosts.migrant(&mech);
                    if vm.running && vm.vcpus > 0.0 {
                        let host = if mech.migrant_on_target {
                            &dst_alloc
                        } else {
                            &src_alloc
                        };
                        (host.granted(vm.demand) / vm.vcpus).clamp(0.0, 1.0)
                    } else {
                        0.0
                    }
                };
                let dirty_ratio = if migrant_total_pages > 0 {
                    (mech.dirty_pages / migrant_total_pages as f64).clamp(0.0, 1.0)
                } else {
                    0.0
                };
                telemetry.record(channels::CPU_SOURCE, t_sample, src_alloc.utilisation());
                telemetry.record(channels::CPU_TARGET, t_sample, dst_alloc.utilisation());
                telemetry.record(channels::CPU_VM, t_sample, migrant_cpu_fraction);
                telemetry.record(channels::DIRTY_RATIO, t_sample, dirty_ratio);
                telemetry.record(channels::BANDWIDTH, t_sample, current_bw);
                if !mech.fault_plan.is_empty() {
                    // Extra channel only on faulted runs, so fault-free
                    // records stay byte-identical to the pre-fault engine.
                    telemetry.record(
                        channels::FAULT_BW_FACTOR,
                        t_sample,
                        mech.fault_plan.bandwidth_factor_at(t_sample),
                    );
                }

                // Phase classification needs final te/me; defer by storing
                // a provisional phase and fixing Normal/Activation below.
                samples.push(FeatureSample {
                    t: t_sample,
                    phase: wavm3_power::MigrationPhase::NormalExecution, // fixed up later
                    cpu_source: src_alloc.utilisation(),
                    cpu_target: dst_alloc.utilisation(),
                    cpu_vm: migrant_cpu_fraction,
                    dirty_ratio,
                    bandwidth_bps: current_bw,
                    power_source_w: r_src,
                    power_target_w: r_dst,
                });
            }

            now += dt;
        }

        let phases = mech.phases();
        for s in &mut samples {
            s.phase = phases.phase_at(s.t);
        }

        let source_trace = src_meter.into_trace();
        let target_trace = dst_meter.into_trace();
        let (source_energy, target_energy) = if mech.aborted {
            (
                EnergyBreakdown::from_trace_aborted(&source_trace, &phases),
                EnergyBreakdown::from_trace_aborted(&target_trace, &phases),
            )
        } else {
            (
                EnergyBreakdown::from_trace(&source_trace, &phases),
                EnergyBreakdown::from_trace(&target_trace, &phases),
            )
        };

        // --- Observability: phase spans and the run span. Gated so a run
        // without an installed session pays a few atomic loads; all
        // timestamps are sim time, so traces replay byte-identically. ---
        if wavm3_obs::tracing_active() {
            // Mean workload attributes over one phase window, computed
            // from the phase-corrected feature samples.
            let phase_span = |name: &'static str, lo: SimTime, hi: SimTime| {
                let mut n = 0u32;
                let (mut cpu_s, mut cpu_t, mut dr, mut bw) = (0.0, 0.0, 0.0, 0.0);
                for s in &samples {
                    if s.t >= lo && s.t < hi {
                        n += 1;
                        cpu_s += s.cpu_source;
                        cpu_t += s.cpu_target;
                        dr += s.dirty_ratio;
                        bw += s.bandwidth_bps;
                    }
                }
                let denom = n.max(1) as f64;
                wavm3_obs::emit_span(
                    Level::Info,
                    "wavm3_migration",
                    name,
                    lo,
                    hi,
                    vec![
                        ("samples", u64::from(n).into()),
                        ("cpu_s_mean", (cpu_s / denom).into()),
                        ("cpu_t_mean", (cpu_t / denom).into()),
                        ("dr_mean", (dr / denom).into()),
                        ("bw_mean_bps", (bw / denom).into()),
                    ],
                );
            };
            phase_span("phase.normal", SimTime::ZERO, phases.ms);
            phase_span("phase.initiation", phases.ms, phases.ts);
            phase_span("phase.transfer", phases.ts, phases.te);
            phase_span("phase.activation", phases.te, phases.me);
            phase_span("phase.tail", phases.me, now);
            wavm3_obs::emit_span(
                Level::Info,
                "wavm3_migration",
                "migration.run",
                SimTime::ZERO,
                now,
                vec![
                    ("kind", cfg.kind.label().into()),
                    ("outcome", mech.outcome_label().into()),
                    ("total_bytes", (mech.total_bytes.round() as u64).into()),
                    ("downtime_s", mech.downtime().as_secs_f64().into()),
                    ("rounds", (mech.rounds.len() as u64).into()),
                    ("fault_events", (mech.fault_events.len() as u64).into()),
                    ("vm_ram_mib", mech.vm_ram_mib.into()),
                ],
            );
        }
        let record = mech.finish(phases, source_energy, target_energy);
        if ledger_on {
            mech.record_ledger(
                src_attrib.phase_windows(&phases),
                dst_attrib.phase_windows(&phases),
            );
        }

        slot.recycle(mech);
        slot.recycle_hosts(hosts);

        MigrationRecord {
            source_trace,
            target_trace,
            source_truth: truth_src,
            target_truth: truth_dst,
            telemetry,
            samples,
            ..record
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MigrationKind;
    use wavm3_cluster::{hardware, vm_instances, Link, MachineSet};
    use wavm3_faults::LinkFaultConfig;
    use wavm3_simkit::SimDuration;
    use wavm3_workloads::{IdleWorkload, MatMulWorkload, PageDirtierWorkload};

    /// Build the canonical two-host scenario: `load_vms` load-cpu guests on
    /// the chosen host, one migrant on the source.
    fn scenario(
        kind: MigrationKind,
        source_load_vms: usize,
        target_load_vms: usize,
        mem_ratio: Option<f64>,
        seed: u64,
    ) -> MigrationRecord {
        let (src_spec, dst_spec) = hardware::pair(MachineSet::M);
        let mut cluster = Cluster::new(Link::gigabit());
        let source = cluster.add_host(src_spec);
        let target = cluster.add_host(dst_spec);
        let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();

        let migrant = if let Some(r) = mem_ratio {
            let id = cluster.boot_vm(source, vm_instances::migrating_mem());
            workloads.insert(id, Arc::new(PageDirtierWorkload::with_ratio(r)));
            id
        } else {
            let id = cluster.boot_vm(source, vm_instances::migrating_cpu());
            workloads.insert(id, Arc::new(MatMulWorkload::full(4)));
            id
        };
        for i in 0..source_load_vms {
            let id = cluster.boot_vm(source, vm_instances::load_cpu());
            workloads.insert(
                id,
                Arc::new(MatMulWorkload::full(4).with_phase(i as f64 * 0.13)),
            );
        }
        for i in 0..target_load_vms {
            let id = cluster.boot_vm(target, vm_instances::load_cpu());
            workloads.insert(
                id,
                Arc::new(MatMulWorkload::full(4).with_phase(0.5 + i as f64 * 0.13)),
            );
        }
        let _ = IdleWorkload; // idle hosts simply have no extra VMs

        MigrationSimulation::new(
            cluster,
            workloads,
            migrant,
            source,
            target,
            MigrationConfig::new(kind),
            RngFactory::new(seed),
        )
        .run()
    }

    #[test]
    fn non_live_idle_baseline() {
        let r = scenario(MigrationKind::NonLive, 0, 0, None, 1);
        // Phase ordering and rough transfer duration: 4 GiB at ~115 MB/s.
        let transfer_s = r.phases.transfer().as_secs_f64();
        assert!(
            (30.0..50.0).contains(&transfer_s),
            "transfer took {transfer_s}s"
        );
        // Non-live sends the image exactly once.
        let expect = 4.0 * 1024.0 * 1024.0 * 1024.0;
        assert!((r.total_bytes as f64 - expect).abs() / expect < 0.01);
        assert_eq!(r.rounds.len(), 1);
        // Downtime spans the whole migration.
        assert!(r.downtime.as_secs_f64() > transfer_s);
        assert_eq!(r.kind, MigrationKind::NonLive);
    }

    #[test]
    fn live_cpu_migrant_has_short_downtime() {
        let r = scenario(MigrationKind::Live, 0, 0, None, 2);
        // matmul's tiny working set: stop-and-copy well under 2 s.
        assert!(
            r.downtime.as_secs_f64() < 2.0,
            "downtime {}",
            r.downtime.as_secs_f64()
        );
        // Live sends at least the image, plus some dirty re-sends.
        assert!(r.total_bytes as f64 >= 4.0 * 1024.0 * 1024.0 * 1024.0);
        assert!(r.rounds.last().unwrap().stop_and_copy);
    }

    #[test]
    fn hot_memory_vm_degenerates_to_stop_and_copy() {
        let r = scenario(MigrationKind::Live, 0, 0, Some(0.95), 3);
        // Working set regenerates faster than the link drains it: the
        // stall rule fires and the final pass moves ~the working set.
        let last = r.rounds.last().unwrap();
        assert!(last.stop_and_copy);
        assert!(
            r.downtime.as_secs_f64() > 10.0,
            "95% dirtying must force a long suspension, got {}s",
            r.downtime.as_secs_f64()
        );
        // The paper's observation: live behaves like non-live at the end.
        assert!(r.precopy_rounds() <= 3);
    }

    #[test]
    fn low_ratio_memory_vm_suspends_briefly() {
        let hot = scenario(MigrationKind::Live, 0, 0, Some(0.95), 4);
        let cool = scenario(MigrationKind::Live, 0, 0, Some(0.05), 4);
        assert!(
            cool.downtime < hot.downtime,
            "5% ratio must suspend for less time than 95%"
        );
        assert!(cool.total_bytes < hot.total_bytes);
    }

    #[test]
    fn saturated_source_stretches_transfer() {
        // Paper Fig 3: full source CPU ⇒ reduced bandwidth ⇒ longer phase.
        let idle = scenario(MigrationKind::Live, 0, 0, None, 5);
        let loaded = scenario(MigrationKind::Live, 8, 0, None, 5);
        assert!(
            loaded.phases.transfer() > idle.phases.transfer(),
            "loaded {:?} vs idle {:?}",
            loaded.phases.transfer(),
            idle.phases.transfer()
        );
        assert!(loaded.mean_transfer_bandwidth() < idle.mean_transfer_bandwidth());
    }

    #[test]
    fn target_gains_the_vm_power_after_migration() {
        let r = scenario(MigrationKind::NonLive, 0, 0, None, 6);
        let before = r
            .target_trace
            .mean_power_between(SimTime::ZERO, r.phases.ms)
            .unwrap();
        let after = r
            .target_trace
            .mean_power_between(r.phases.me, r.phases.me + SimDuration::from_secs(8))
            .unwrap();
        assert!(
            after > before + 10.0,
            "target must draw more after hosting the VM: {before} → {after}"
        );
    }

    #[test]
    fn source_returns_toward_idle_after_migration() {
        let r = scenario(MigrationKind::NonLive, 0, 0, None, 7);
        let during = r
            .source_trace
            .mean_power_between(SimTime::ZERO, r.phases.ms)
            .unwrap();
        let after = r
            .source_trace
            .mean_power_between(
                r.phases.me + SimDuration::from_secs(2),
                r.phases.me + SimDuration::from_secs(8),
            )
            .unwrap();
        assert!(
            after < during,
            "source must relax once the VM left: {during} → {after}"
        );
    }

    #[test]
    fn record_is_internally_consistent() {
        let r = scenario(MigrationKind::Live, 1, 1, None, 8);
        // Samples cover all four phases.
        use wavm3_power::MigrationPhase as P;
        for phase in [
            P::NormalExecution,
            P::Initiation,
            P::Transfer,
            P::Activation,
        ] {
            assert!(
                !r.samples_in_phase(phase).is_empty(),
                "no samples in {phase:?}"
            );
        }
        // Bytes accounted in rounds equal the total.
        let round_bytes: u64 = r.rounds.iter().map(|x| x.bytes_sent).sum();
        assert!(
            (round_bytes as f64 - r.total_bytes as f64).abs() < PAGE_SIZE_BYTES as f64 * 4.0,
            "round bytes {round_bytes} vs total {}",
            r.total_bytes
        );
        // Energies are positive and phases ordered.
        assert!(r.source_energy.total_j() > 0.0);
        assert!(r.target_energy.total_j() > 0.0);
        assert!(
            r.phases.ms < r.phases.ts && r.phases.ts < r.phases.te && r.phases.te < r.phases.me
        );
        // Bandwidth feature is 0 outside transfer, positive inside.
        for s in &r.samples {
            match s.phase {
                P::Transfer => {}
                _ => assert_eq!(s.bandwidth_bps, 0.0, "bw outside transfer at {}", s.t),
            }
        }
        assert!(r
            .samples_in_phase(P::Transfer)
            .iter()
            .any(|s| s.bandwidth_bps > 0.0));
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let a = scenario(MigrationKind::Live, 2, 0, Some(0.55), 42);
        let b = scenario(MigrationKind::Live, 2, 0, Some(0.55), 42);
        assert_eq!(a.total_bytes, b.total_bytes);
        assert_eq!(a.phases, b.phases);
        assert_eq!(a.source_trace, b.source_trace);
        let c = scenario(MigrationKind::Live, 2, 0, Some(0.55), 43);
        assert_ne!(
            a.source_trace, c.source_trace,
            "different seed, different noise"
        );
    }

    #[test]
    fn rate_limit_caps_bandwidth_and_stretches_transfer() {
        // Xen's `max_rate` knob: cap the stream at 50 MB/s.
        let (src_spec, dst_spec) = hardware::pair(MachineSet::M);
        let mut cluster = Cluster::new(Link::gigabit());
        let source = cluster.add_host(src_spec);
        let target = cluster.add_host(dst_spec);
        let vm = cluster.boot_vm(source, vm_instances::migrating_cpu());
        let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();
        workloads.insert(vm, Arc::new(MatMulWorkload::full(4)));
        let mut config = MigrationConfig::non_live();
        config.precopy.rate_limit_bps = Some(5.0e7);
        let r = MigrationSimulation::new(
            cluster,
            workloads,
            vm,
            source,
            target,
            config,
            RngFactory::new(31),
        )
        .run();
        let bw = r.mean_transfer_bandwidth();
        assert!(bw <= 5.05e7, "rate cap violated: {bw}");
        // 4 GiB at 50 MB/s ≈ 86 s.
        assert!(r.phases.transfer().as_secs_f64() > 70.0);
    }

    /// Configs `validate` used to accept that then ticked past `HORIZON`
    /// and panicked: a 5,000 s tick, a 1,800 s tick (the sampled tail's
    /// tick lands on the horizon), a 4,000 s initiation, a 4,000 s tail,
    /// a 1 MB/s cap for the 4 GiB migrant, and a certain 4,000 s link
    /// outage at 13 s. Each is a config error on both paths; at 2 MB/s the
    /// image crosses in time and the run ends.
    #[test]
    fn configs_that_cannot_fit_the_horizon_are_config_errors() {
        type Edit = fn(&mut MigrationConfig);
        let build = |path, edit: Edit| {
            let (src_spec, dst_spec) = hardware::pair(MachineSet::M);
            let mut cluster = Cluster::new(Link::gigabit());
            let source = cluster.add_host(src_spec);
            let target = cluster.add_host(dst_spec);
            let vm = cluster.boot_vm(source, vm_instances::migrating_cpu());
            let mut workloads: BTreeMap<VmId, Arc<dyn Workload>> = BTreeMap::new();
            workloads.insert(vm, Arc::new(MatMulWorkload::full(4)));
            let mut config = MigrationConfig::live();
            config.path = path;
            edit(&mut config);
            MigrationSimulation::try_new(
                cluster,
                workloads,
                vm,
                source,
                target,
                config,
                RngFactory::new(12),
            )
        };
        const fn secs(s: u64) -> SimDuration {
            SimDuration::from_secs(s)
        }
        let probes: [(&str, Edit); 6] = [
            ("timing", |c| c.timing.tick = secs(5_000)),
            ("timing", |c| c.timing.tick = secs(1_800)),
            ("timing", |c| c.timing.initiation = secs(4_000)),
            ("timing", |c| {
                c.timing.post_run_min = secs(4_000);
                c.timing.post_run_max = secs(4_000);
            }),
            ("precopy.rate_limit_bps", |c| {
                c.precopy.rate_limit_bps = Some(1.0e6)
            }),
            ("faults.link", |c| {
                c.faults.link = LinkFaultConfig {
                    mean_windows: 1.0,
                    max_windows: 1,
                    min_duration: secs(4_000),
                    max_duration: secs(4_000),
                    min_factor: 0.0,
                    max_factor: 0.0,
                    earliest: SimTime::from_secs(13),
                    latest: SimTime::from_secs(13),
                }
            }),
        ];
        for path in [SimulationPath::Analytic, SimulationPath::Sampled] {
            for (i, (field, edit)) in probes.iter().enumerate() {
                match build(path, *edit) {
                    Err(Wavm3Error::InvalidConfig { field: f, .. }) => {
                        assert_eq!(f, *field, "probe {i} on {path:?}")
                    }
                    Err(e) => panic!("probe {i} on {path:?}: {e}"),
                    Ok(_) => panic!("probe {i} on {path:?} was accepted"),
                }
            }
            let r = build(path, |c| c.precopy.rate_limit_bps = Some(2.0e6))
                .expect("4 GiB at 2 MB/s crosses in time")
                .run();
            assert!(r.phases.me < HORIZON, "{path:?}: me {}", r.phases.me);
            // Eight certain 500 s outages that all start in [13 s, 60 s]
            // cover 547 s between them, not 4,000 s.
            let r = build(path, |c| {
                c.faults.link = LinkFaultConfig {
                    mean_windows: 8.0,
                    max_windows: 8,
                    min_duration: secs(500),
                    max_duration: secs(500),
                    min_factor: 0.0,
                    max_factor: 0.0,
                    earliest: SimTime::from_secs(13),
                    latest: SimTime::from_secs(60),
                }
            })
            .expect("overlapping outages fit the horizon")
            .run();
            assert!(r.phases.me < HORIZON, "{path:?}: me {}", r.phases.me);
        }
    }

    #[test]
    fn post_copy_has_minimal_downtime_even_for_hot_memory() {
        // The mechanism's selling point: downtime is the fixed handover,
        // independent of the dirtying ratio that cripples pre-copy.
        let hot_pre = scenario(MigrationKind::Live, 0, 0, Some(0.95), 21);
        let hot_post = scenario(MigrationKind::PostCopy, 0, 0, Some(0.95), 21);
        assert!(
            hot_post.downtime.as_secs_f64() < 1.0,
            "post-copy downtime {}s",
            hot_post.downtime.as_secs_f64()
        );
        assert!(hot_pre.downtime.as_secs_f64() > 10.0);
        // And it never re-sends pages: bytes ≈ the RAM image.
        let ram = 4.0 * 1024.0 * 1024.0 * 1024.0;
        assert!(
            (hot_post.total_bytes as f64 - ram).abs() / ram < 0.02,
            "post-copy moved {} bytes",
            hot_post.total_bytes
        );
        assert!(hot_pre.total_bytes as f64 > 1.5 * ram, "pre-copy re-sends");
    }

    #[test]
    fn post_copy_runs_the_vm_on_the_target_during_transfer() {
        let r = scenario(MigrationKind::PostCopy, 0, 0, None, 22);
        // Target power during transfer includes the running guest: clearly
        // above the target's transfer power in the non-live case.
        let nl = scenario(MigrationKind::NonLive, 0, 0, None, 22);
        let mid = |x: &MigrationRecord| {
            x.target_trace
                .mean_power_between(x.phases.ts + SimDuration::from_secs(5), x.phases.te)
                .unwrap()
        };
        assert!(
            mid(&r) > mid(&nl) + 15.0,
            "post-copy target must host the running VM: {} vs {}",
            mid(&r),
            mid(&nl)
        );
        assert_eq!(r.rounds.len(), 1, "single background push");
        assert_eq!(r.kind, MigrationKind::PostCopy);
    }

    #[test]
    fn post_copy_degrades_then_recovers_guest_performance() {
        let r = scenario(MigrationKind::PostCopy, 0, 0, None, 23);
        use wavm3_power::MigrationPhase as P;
        let transfer: Vec<f64> = r
            .samples
            .iter()
            .filter(|s| s.phase == P::Transfer)
            .map(|s| s.cpu_vm)
            .collect();
        assert!(transfer.len() > 10);
        let early = transfer[2];
        let late = transfer[transfer.len() - 2];
        assert!(
            late > early + 0.1,
            "guest CPU must recover as pages arrive: {early} -> {late}"
        );
        // Post-migration the guest runs at full speed on the target.
        let after: Vec<f64> = r
            .samples
            .iter()
            .filter(|s| s.phase == P::NormalExecution && s.t > r.phases.me)
            .map(|s| s.cpu_vm)
            .collect();
        assert!(after.iter().copied().fold(0.0, f64::max) > 0.9);
    }

    #[test]
    fn live_non_live_target_behaviour_similar_when_idle() {
        // Paper Fig 3b/3d: target behaves comparably across mechanisms.
        let live = scenario(MigrationKind::Live, 0, 0, None, 9);
        let nonlive = scenario(MigrationKind::NonLive, 0, 0, None, 9);
        let lt = live
            .target_trace
            .mean_power_between(live.phases.ts, live.phases.te)
            .unwrap();
        let nt = nonlive
            .target_trace
            .mean_power_between(nonlive.phases.ts, nonlive.phases.te)
            .unwrap();
        assert!(
            (lt - nt).abs() < 30.0,
            "target transfer power should be similar: live {lt} vs non-live {nt}"
        );
    }
}
