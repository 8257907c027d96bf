//! Analytic migration planning.
//!
//! A consolidation manager cannot run a full simulation for every candidate
//! move; it needs a closed-form estimate. [`plan_migration`] reproduces the
//! migration engine's dynamics analytically — CPU-coupled bandwidth,
//! pre-copy round recursion with dirty-set saturation, the stop-and-copy
//! termination rules — and synthesises the 2 Hz feature timeline that the
//! energy models consume, so any [`EnergyModel`](wavm3_models::EnergyModel)
//! can price a move that has never been executed.

use serde::{Deserialize, Serialize};
use wavm3_cluster::{Link, MachineSet, PAGE_SIZE_BYTES};
use wavm3_migration::{
    FeatureSample, MigrationConfig, MigrationKind, MigrationOutcome, MigrationRecord, RoundStats,
};
use wavm3_power::{EnergyBreakdown, MigrationPhase, PhaseTimes, PowerTrace, TelemetryRecorder};
use wavm3_simkit::{SimDuration, SimTime};

/// Everything the planner needs to know about a contemplated move.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlannerInputs {
    /// Mechanism to plan.
    pub kind: MigrationKind,
    /// Machine pair (selects idle power recorded in the plan).
    pub machine_set: MachineSet,
    /// Idle power of the machines, watts.
    pub idle_power_w: f64,
    /// Migrant RAM, MiB.
    pub ram_mib: u64,
    /// Migrant vCPUs.
    pub vcpus: u32,
    /// Migrant CPU demand as a fraction of its vCPUs, `[0, 1]`.
    pub vm_cpu_fraction: f64,
    /// Migrant working-set fraction, `[0, 1]`.
    pub working_set_fraction: f64,
    /// Migrant page-write rate, pages/s.
    pub page_write_rate: f64,
    /// CPU demand of everything else on the source, cores.
    pub source_other_cores: f64,
    /// CPU demand of everything else on the target, cores.
    pub target_other_cores: f64,
    /// Source machine capacity, cores.
    pub source_capacity: f64,
    /// Target machine capacity, cores.
    pub target_capacity: f64,
    /// The migration link.
    pub link: Link,
    /// Engine configuration (timings, pre-copy policy, CPU costs).
    pub config: MigrationConfig,
}

/// The analytic estimate of one migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// Inputs the plan was derived from.
    pub inputs: PlannerInputs,
    /// Estimated phase instants (with `ms` at the configured pre-run).
    pub phases: PhaseTimes,
    /// Estimated bytes on the wire.
    pub est_bytes: u64,
    /// Estimated VM downtime.
    pub est_downtime: SimDuration,
    /// Estimated effective bandwidth, bytes/s.
    pub est_bandwidth_bps: f64,
    /// Estimated pre-copy rounds (excluding stop-and-copy).
    pub est_precopy_rounds: usize,
    /// Synthesised feature timeline at 2 Hz for model pricing.
    pub samples: Vec<FeatureSample>,
}

/// Distinct dirty pages after `dt` seconds of writes at `rate` pages/s,
/// starting from a clean dirty set: `ws·(1 − e^(−rate·dt/ws))` over a
/// working set of `ws_pages`. This is the closed form of the curve the
/// migration engine steps tick by tick (`Mechanism::saturate_dirty`).
fn dirty_after(ws_pages: f64, rate: f64, dt: f64) -> f64 {
    if ws_pages < 1.0 || rate <= 0.0 || dt <= 0.0 {
        return 0.0;
    }
    ws_pages * (1.0 - (-rate * dt / ws_pages).exp())
}

/// Produce the analytic plan for a contemplated migration.
pub fn plan_migration(inputs: &PlannerInputs) -> MigrationPlan {
    let cfg = &inputs.config;
    let ram_bytes = inputs.ram_mib as f64 * 1024.0 * 1024.0;
    let total_pages = ram_bytes / PAGE_SIZE_BYTES as f64;
    let ws_pages = inputs.working_set_fraction.clamp(0.0, 1.0) * total_pages;
    let vm_cores = inputs.vm_cpu_fraction.clamp(0.0, 1.0) * inputs.vcpus as f64;
    let live = inputs.kind == MigrationKind::Live;

    // CPU-coupled bandwidth during transfer, assuming steady demands.
    let dirty_intensity = if live {
        (inputs.page_write_rate / wavm3_migration::simulation::PEAK_PAGE_WRITE_RATE).min(1.0)
    } else {
        0.0
    };
    let src_migr = cfg.cpu_cost.source_cores_at_line_rate
        + cfg.cpu_cost.dirty_tracking_cores * dirty_intensity;
    let dst_migr = cfg.cpu_cost.target_cores_at_line_rate;
    let post_copy = inputs.kind == MigrationKind::PostCopy;
    let vm_on_source = if live { vm_cores } else { 0.0 };
    let vm_on_target = if post_copy { vm_cores } else { 0.0 };
    let src_demand = inputs.source_other_cores + vm_on_source + src_migr + 0.2;
    let dst_demand = inputs.target_other_cores + vm_on_target + dst_migr + 0.2;
    let src_scale = (inputs.source_capacity / src_demand).min(1.0);
    let dst_scale = (inputs.target_capacity / dst_demand).min(1.0);
    let bw = inputs.link.effective_bandwidth(src_scale, dst_scale);

    // Round recursion.
    let mut rounds: Vec<RoundStats> = Vec::new();
    let mut total_bytes = 0.0;
    let mut transfer_s = 0.0;
    let mut downtime_s = 0.0;
    let mut precopy_rounds = 0;
    if bw > 0.0 {
        if live {
            let mut to_send = ram_bytes;
            for round in 0..cfg.precopy.max_rounds + 1 {
                let dur = to_send / bw;
                let sent_pages = to_send / PAGE_SIZE_BYTES as f64;
                let d = dirty_after(ws_pages, inputs.page_write_rate, dur);
                total_bytes += to_send;
                transfer_s += dur;
                rounds.push(RoundStats {
                    round,
                    bytes_sent: to_send as u64,
                    duration: SimDuration::from_secs_f64(dur),
                    dirty_at_end_pages: d.round() as u64,
                    stop_and_copy: false,
                });
                precopy_rounds += 1;
                let stall = d >= cfg.precopy.stall_ratio * sent_pages;
                let small = d <= cfg.precopy.stop_threshold_pages as f64;
                if d < 0.5 {
                    break;
                }
                if small || stall || round + 1 >= cfg.precopy.max_rounds {
                    // Stop-and-copy of the final dirty set.
                    let final_bytes = d * PAGE_SIZE_BYTES as f64;
                    let final_dur = final_bytes / bw;
                    total_bytes += final_bytes;
                    transfer_s += final_dur;
                    downtime_s = final_dur;
                    rounds.push(RoundStats {
                        round: round + 1,
                        bytes_sent: final_bytes as u64,
                        duration: SimDuration::from_secs_f64(final_dur),
                        dirty_at_end_pages: 0,
                        stop_and_copy: true,
                    });
                    break;
                }
                to_send = d * PAGE_SIZE_BYTES as f64;
            }
        } else {
            transfer_s = ram_bytes / bw;
            total_bytes = ram_bytes;
            rounds.push(RoundStats {
                round: 0,
                bytes_sent: ram_bytes as u64,
                duration: SimDuration::from_secs_f64(transfer_s),
                dirty_at_end_pages: 0,
                stop_and_copy: false,
            });
        }
    }
    if post_copy {
        // Only the CPU-state handover suspends the guest.
        downtime_s = cfg.timing.postcopy_handover.as_secs_f64();
    } else if !live {
        // Suspended from ms to the end of the transfer.
        downtime_s = cfg.timing.initiation.as_secs_f64() + transfer_s;
    }

    let ms = SimTime::ZERO + cfg.timing.pre_run;
    let ts = ms + cfg.timing.initiation;
    let te = ts + SimDuration::from_secs_f64(transfer_s);
    let me = te + cfg.timing.activation;
    let phases = PhaseTimes::new(ms, ts, te, me);

    // Synthesise the 2 Hz feature timeline.
    let mut samples = Vec::new();
    let step = SimDuration::from_millis(500);
    let mut t = ms;
    // Dirty-ratio sawtooth: time offset into the current round.
    let mut round_edges: Vec<(SimTime, f64)> = Vec::new(); // (round start, ws reset)
    {
        let mut acc = ts;
        for r in &rounds {
            round_edges.push((acc, 0.0));
            acc += r.duration;
        }
    }
    while t < me {
        let phase = phases.phase_at(t);
        let in_stop_copy = rounds
            .last()
            .map(|r| r.stop_and_copy && t >= te - r.duration)
            .unwrap_or(false);
        let vm_running_on_source = match inputs.kind {
            MigrationKind::NonLive | MigrationKind::PostCopy => false,
            MigrationKind::Live => t < te && !in_stop_copy,
        } && phase != MigrationPhase::Activation;
        let vm_running_on_target = post_copy && phase == MigrationPhase::Transfer;
        let (cpu_src_cores, cpu_dst_cores, bw_now) = match phase {
            MigrationPhase::Initiation => (
                inputs.source_other_cores
                    + if vm_running_on_source { vm_cores } else { 0.0 }
                    + cfg.cpu_cost.control_cores,
                inputs.target_other_cores + cfg.cpu_cost.control_cores,
                0.0,
            ),
            MigrationPhase::Transfer => (
                inputs.source_other_cores
                    + if vm_running_on_source { vm_cores } else { 0.0 }
                    + src_migr,
                inputs.target_other_cores
                    + if vm_running_on_target { vm_cores } else { 0.0 }
                    + dst_migr,
                bw,
            ),
            MigrationPhase::Activation => (
                inputs.source_other_cores + cfg.cpu_cost.control_cores,
                inputs.target_other_cores + vm_cores + cfg.cpu_cost.control_cores,
                0.0,
            ),
            MigrationPhase::NormalExecution => {
                (inputs.source_other_cores, inputs.target_other_cores, 0.0)
            }
        };
        // Dirty ratio at t: saturation since the current round's start.
        let dr = if vm_running_on_source && phase == MigrationPhase::Transfer {
            let round_start = round_edges
                .iter()
                .rev()
                .find(|(s, _)| *s <= t)
                .map(|(s, _)| *s)
                .unwrap_or(ts);
            dirty_after(
                ws_pages,
                inputs.page_write_rate,
                (t - round_start).as_secs_f64(),
            ) / total_pages.max(1.0)
        } else {
            0.0
        };
        let cpu_vm = if vm_running_on_source
            || vm_running_on_target
            || phase == MigrationPhase::Activation
        {
            inputs.vm_cpu_fraction
        } else {
            0.0
        };
        samples.push(FeatureSample {
            t,
            phase,
            cpu_source: (cpu_src_cores / inputs.source_capacity).clamp(0.0, 1.0),
            cpu_target: (cpu_dst_cores / inputs.target_capacity).clamp(0.0, 1.0),
            cpu_vm,
            dirty_ratio: dr,
            bandwidth_bps: bw_now,
            power_source_w: 0.0,
            power_target_w: 0.0,
        });
        t += step;
    }

    MigrationPlan {
        inputs: *inputs,
        phases,
        est_bytes: total_bytes.round() as u64,
        est_downtime: SimDuration::from_secs_f64(downtime_s),
        est_bandwidth_bps: bw,
        est_precopy_rounds: precopy_rounds,
        samples,
    }
}

impl MigrationPlan {
    /// Wrap the plan as a [`MigrationRecord`] so any energy model can price
    /// it. Measured traces and energies are empty — only the feature
    /// timeline and the run-level features (bytes, RAM, bandwidth) are
    /// populated.
    pub fn to_record(&self) -> MigrationRecord {
        let rounds = Vec::new();
        MigrationRecord {
            kind: self.inputs.kind,
            machine_set: self.inputs.machine_set,
            phases: self.phases,
            source_trace: PowerTrace::new("planned-source"),
            target_trace: PowerTrace::new("planned-target"),
            source_truth: PowerTrace::new("planned-source"),
            target_truth: PowerTrace::new("planned-target"),
            telemetry: TelemetryRecorder::new(),
            samples: self.samples.clone(),
            rounds,
            total_bytes: self.est_bytes,
            downtime: self.est_downtime,
            vm_ram_mib: self.inputs.ram_mib,
            source_energy: EnergyBreakdown {
                initiation_j: 0.0,
                transfer_j: 0.0,
                activation_j: 0.0,
                rollback_j: 0.0,
            },
            target_energy: EnergyBreakdown {
                initiation_j: 0.0,
                transfer_j: 0.0,
                activation_j: 0.0,
                rollback_j: 0.0,
            },
            idle_power_w: self.inputs.idle_power_w,
            outcome: MigrationOutcome::Completed,
            fault_events: Vec::new(),
            attempt: 0,
            retry_backoff: SimDuration::ZERO,
        }
    }
}

/// Pick the migration mechanism for a move under a downtime SLO
/// (extension): plan every candidate mechanism and return the first
/// feasible one in preference order — live pre-copy (no guest impact when
/// it converges), then post-copy (bounded downtime, degraded transfer
/// period), then non-live (only acceptable when the SLO tolerates a full
/// outage). `None` when nothing meets the SLO.
pub fn select_mechanism(
    inputs: &PlannerInputs,
    max_downtime_s: f64,
    allow_post_copy: bool,
) -> Option<(MigrationKind, MigrationPlan)> {
    let mut candidates = vec![MigrationKind::Live];
    if allow_post_copy {
        candidates.push(MigrationKind::PostCopy);
    }
    candidates.push(MigrationKind::NonLive);
    for kind in candidates {
        let mut i = *inputs;
        i.kind = kind;
        i.config.kind = kind;
        let plan = plan_migration(&i);
        if plan.est_downtime.as_secs_f64() <= max_downtime_s {
            return Some((kind, plan));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use wavm3_workloads::PageDirtierWorkload;

    /// The pagedirtier's default write rate, pages/s.
    const RATE: f64 = PageDirtierWorkload::DEFAULT_WRITE_RATE;

    #[test]
    fn dirty_saturation_approaches_working_set() {
        let ws = 0.5 * 1_048_576.0; // half of 4 GiB of pages
        let after_long = dirty_after(ws, RATE, 600.0);
        assert!(
            (after_long - ws).abs() / ws < 1e-6,
            "saturates at working set"
        );
        // Early in a round, dirtying is roughly linear at the write rate.
        let after_short = dirty_after(ws, RATE, 0.1);
        let linear = 0.1 * RATE;
        assert!(
            (after_short - linear).abs() / linear < 0.05,
            "{after_short} vs {linear}"
        );
    }

    #[test]
    fn dirty_saturation_is_monotone_in_time() {
        let ws = 0.95 * 1_000_000.0;
        let mut prev = 0.0;
        for s in 1..=30 {
            let d = dirty_after(ws, RATE, s as f64);
            assert!(d >= prev);
            prev = d;
        }
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(dirty_after(0.0, RATE, 10.0), 0.0);
        assert_eq!(dirty_after(500.0, RATE, 0.0), 0.0);
        assert_eq!(dirty_after(500.0, 0.0, 10.0), 0.0);
    }

    #[test]
    fn higher_ratio_dirties_more_for_same_duration() {
        let lo = dirty_after(0.05 * 1_000_000.0, RATE, 30.0);
        let hi = dirty_after(0.95 * 1_000_000.0, RATE, 30.0);
        assert!(
            hi > lo * 2.0,
            "95% ratio must dirty far more than 5%: {hi} vs {lo}"
        );
    }

    proptest! {
        /// The dirty estimate is monotone in time and bounded by both the
        /// working set and the write budget.
        #[test]
        fn dirty_estimate_bounds(
            ratio in 0.0f64..=1.0,
            secs in 0.0f64..300.0,
            total in 1u64..2_000_000,
        ) {
            let ws = ratio * total as f64;
            let d = dirty_after(ws, RATE, secs);
            prop_assert!(d >= 0.0);
            prop_assert!(d <= ws + 1e-6);
            prop_assert!(d <= RATE * secs + 1e-6);
            let d2 = dirty_after(ws, RATE, secs + 1.0);
            prop_assert!(d2 + 1e-9 >= d);
        }
    }

    fn base_inputs() -> PlannerInputs {
        PlannerInputs {
            kind: MigrationKind::Live,
            machine_set: MachineSet::M,
            idle_power_w: 430.0,
            ram_mib: 4096,
            vcpus: 4,
            vm_cpu_fraction: 1.0,
            working_set_fraction: 0.015,
            page_write_rate: 400.0,
            source_other_cores: 0.0,
            target_other_cores: 0.0,
            source_capacity: 32.0,
            target_capacity: 32.0,
            link: Link::gigabit(),
            config: MigrationConfig::live(),
        }
    }

    #[test]
    fn idle_live_plan_matches_expectations() {
        let p = plan_migration(&base_inputs());
        // 4 GiB at ~115 MB/s: 35-40 s transfer.
        let ts = p.phases.transfer().as_secs_f64();
        assert!((30.0..48.0).contains(&ts), "transfer {ts}");
        assert!(p.est_downtime.as_secs_f64() < 2.0, "tiny working set");
        assert!(p.est_bytes >= 4 * 1024 * 1024 * 1024);
        assert!(!p.samples.is_empty());
    }

    #[test]
    fn hot_memory_plan_predicts_long_downtime() {
        let mut i = base_inputs();
        i.working_set_fraction = 0.95;
        i.page_write_rate = 220_000.0;
        let p = plan_migration(&i);
        assert!(
            p.est_downtime.as_secs_f64() > 10.0,
            "stop-and-copy of ~3.8 GiB expected, got {}",
            p.est_downtime.as_secs_f64()
        );
        assert!(p.est_bytes > 6 * 1024 * 1024 * 1024, "resends expected");
    }

    #[test]
    fn loaded_source_reduces_planned_bandwidth() {
        let idle = plan_migration(&base_inputs());
        let mut i = base_inputs();
        i.source_other_cores = 32.0;
        let loaded = plan_migration(&i);
        assert!(loaded.est_bandwidth_bps < idle.est_bandwidth_bps);
        assert!(loaded.phases.transfer() > idle.phases.transfer());
    }

    #[test]
    fn non_live_downtime_spans_whole_migration() {
        let mut i = base_inputs();
        i.kind = MigrationKind::NonLive;
        let p = plan_migration(&i);
        assert!(
            (p.est_downtime.as_secs_f64()
                - (p.phases.initiation().as_secs_f64() + p.phases.transfer().as_secs_f64()))
            .abs()
                < 0.6
        );
        assert_eq!(p.est_precopy_rounds, 0);
        // Every transfer sample has CPU(v)=0 (suspended).
        assert!(p
            .samples
            .iter()
            .filter(|s| s.phase == MigrationPhase::Transfer)
            .all(|s| s.cpu_vm == 0.0));
    }

    #[test]
    fn record_conversion_carries_plan_features() {
        let p = plan_migration(&base_inputs());
        let r = p.to_record();
        assert_eq!(r.total_bytes, p.est_bytes);
        assert_eq!(r.vm_ram_mib, 4096);
        assert_eq!(r.samples.len(), p.samples.len());
        assert!(r.mean_transfer_bandwidth() > 0.0);
    }

    #[test]
    fn mechanism_selection_respects_downtime_slo() {
        // Cold guest, 2 s SLO: live pre-copy converges and wins.
        let cold = base_inputs();
        let (kind, plan) = select_mechanism(&cold, 2.0, true).unwrap();
        assert_eq!(kind, MigrationKind::Live);
        assert!(plan.est_downtime.as_secs_f64() <= 2.0);

        // Hot guest, 2 s SLO: pre-copy cannot converge; post-copy's fixed
        // handover does.
        let mut hot = base_inputs();
        hot.working_set_fraction = 0.95;
        hot.page_write_rate = 220_000.0;
        let (kind, plan) = select_mechanism(&hot, 2.0, true).unwrap();
        assert_eq!(kind, MigrationKind::PostCopy);
        assert!(plan.est_downtime.as_secs_f64() <= 2.0);

        // Hot guest, post-copy forbidden, tight SLO: no mechanism fits.
        assert!(select_mechanism(&hot, 2.0, false).is_none());

        // Batch window (10 min outage fine): live still preferred, but a
        // non-live-only SLO is also satisfiable.
        let (kind, _) = select_mechanism(&hot, 600.0, false).unwrap();
        assert_eq!(
            kind,
            MigrationKind::Live,
            "pre-copy's long stop-and-copy fits 600s"
        );
    }

    #[test]
    fn plan_matches_simulation_within_tolerance() {
        // The planner must agree with the full engine on the idle-host
        // live migration: same bandwidth regime, same round structure.
        use std::collections::BTreeMap;
        use std::sync::Arc;
        use wavm3_cluster::{hardware, vm_instances, Cluster};
        use wavm3_migration::MigrationSimulation;
        use wavm3_simkit::RngFactory;
        use wavm3_workloads::{MatMulWorkload, Workload};

        let (s_spec, t_spec) = hardware::pair(MachineSet::M);
        let mut cluster = Cluster::new(Link::gigabit());
        let src = cluster.add_host(s_spec);
        let dst = cluster.add_host(t_spec);
        let vm = cluster.boot_vm(src, vm_instances::migrating_cpu());
        let mut workloads: BTreeMap<_, Arc<dyn Workload>> = BTreeMap::new();
        workloads.insert(vm, Arc::new(MatMulWorkload::full(4)));
        let record = MigrationSimulation::new(
            cluster,
            workloads,
            vm,
            src,
            dst,
            MigrationConfig::live(),
            RngFactory::new(5),
        )
        .run();

        let plan = plan_migration(&base_inputs());
        let sim_ts = record.phases.transfer().as_secs_f64();
        let plan_ts = plan.phases.transfer().as_secs_f64();
        assert!(
            (sim_ts - plan_ts).abs() / sim_ts < 0.15,
            "transfer: sim {sim_ts}s vs plan {plan_ts}s"
        );
        let byte_err =
            (record.total_bytes as f64 - plan.est_bytes as f64).abs() / record.total_bytes as f64;
        assert!(
            byte_err < 0.1,
            "bytes: sim {} vs plan {}",
            record.total_bytes,
            plan.est_bytes
        );
    }
}
