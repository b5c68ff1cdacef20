//! Pipelined execution of MSM batches (§3.2.3).
//!
//! "Proof generation involves several MSM calculations and other GPU
//! tasks, which means that bucket-reduce can be efficiently pipelined."
//! This module makes that claim executable: a batch of MSMs flows through
//! a two-stage pipeline — GPUs (scatter + bucket-sum) and CPU
//! (bucket-reduce + window-reduce) — so the CPU stage of proof `i`
//! overlaps the GPU stage of proof `i+1`.

use crate::engine::{DistMsm, DistMsmConfig, MsmError};
use distmsm_ec::{Curve, MsmInstance, XyzzPoint};
use distmsm_gpu_sim::MultiGpuSystem;

/// Result of a pipelined batch.
#[derive(Clone, Debug)]
pub struct PipelineReport<C: Curve> {
    /// Per-MSM results (bit-exact).
    pub results: Vec<XyzzPoint<C>>,
    /// Per-MSM `(gpu stage, cpu stage)` seconds.
    pub stages: Vec<(f64, f64)>,
    /// Makespan with the two-stage pipeline.
    pub pipelined_s: f64,
    /// Makespan if every MSM ran to completion before the next started.
    pub serial_s: f64,
    /// Total fabric time across the batch: every per-MSM gather or
    /// collective, routed through the system's interconnect topology by
    /// the engine. Rides the GPU stage of the flow-shop.
    pub comm_s: f64,
    /// Total recovery overhead across the batch (zero without a fault
    /// plan): backoff, recompute, self-check and checkpoint seconds as
    /// reported per MSM by the supervisor. Already contained in the
    /// stage times — surfaced so batch callers can see what faults cost.
    pub recovery_s: f64,
    /// MSMs in the batch whose supervisor observed at least one fault.
    pub faulted_msms: u32,
}

impl<C: Curve> PipelineReport<C> {
    /// Time saved by pipelining, as a fraction of the serial makespan.
    pub fn saving(&self) -> f64 {
        1.0 - self.pipelined_s / self.serial_s
    }
}

/// Executes a batch of MSM instances through the two-stage pipeline.
///
/// # Errors
///
/// Propagates the first MSM failure.
pub fn execute_batch<C: Curve>(
    system: &MultiGpuSystem,
    config: &DistMsmConfig,
    batch: &[MsmInstance<C>],
) -> Result<PipelineReport<C>, MsmError> {
    // stage times come from unpipelined per-MSM reports so the pipeline
    // model composes them itself
    let engine = DistMsm::with_config(
        system.clone(),
        DistMsmConfig {
            pipelined: false,
            ..config.clone()
        },
    );
    let mut results = Vec::with_capacity(batch.len());
    let mut stages = Vec::with_capacity(batch.len());
    let mut comm_s = 0.0;
    let mut recovery_s = 0.0;
    let mut faulted_msms = 0u32;
    for inst in batch {
        let rep = engine.execute(inst)?;
        let cpu = rep.phases.bucket_reduce_s + rep.phases.window_reduce_s;
        // recovery overhead is inside total_s and rides the GPU stage:
        // re-planned slices recompute on GPUs before the reduce can close
        let gpu = rep.total_s - cpu;
        comm_s += rep.phases.transfer_s;
        if let Some(rec) = &rep.recovery {
            recovery_s += rec.recovery_s();
            faulted_msms += u32::from(!rec.faults.is_empty());
        }
        results.push(rep.result);
        stages.push((gpu, cpu));
    }

    // classic two-stage flow-shop makespan
    let mut gpu_done = 0.0f64;
    let mut cpu_done = 0.0f64;
    for &(gpu, cpu) in &stages {
        gpu_done += gpu;
        cpu_done = gpu_done.max(cpu_done) + cpu;
    }
    let serial_s: f64 = stages.iter().map(|&(g, c)| g + c).sum();

    Ok(PipelineReport {
        results,
        stages,
        pipelined_s: cpu_done,
        serial_s,
        comm_s,
        recovery_s,
        faulted_msms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::Bn254G1;
    use rand::{rngs::StdRng, SeedableRng};

    fn batch(n: usize, count: usize, seed: u64) -> Vec<MsmInstance<Bn254G1>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| MsmInstance::<Bn254G1>::random(n, &mut rng))
            .collect()
    }

    #[test]
    fn pipeline_results_are_correct() {
        let b = batch(96, 3, 950);
        let rep = execute_batch(
            &MultiGpuSystem::dgx_a100(4),
            &DistMsmConfig::default(),
            &b,
        )
        .unwrap();
        for (inst, got) in b.iter().zip(&rep.results) {
            assert_eq!(*got, inst.reference_result());
        }
    }

    #[test]
    fn pipelining_never_slower_and_overlaps() {
        let b = batch(128, 4, 951);
        let rep = execute_batch(
            &MultiGpuSystem::dgx_a100(8),
            &DistMsmConfig {
                window_size: Some(9),
                ..DistMsmConfig::default()
            },
            &b,
        )
        .unwrap();
        assert!(rep.pipelined_s <= rep.serial_s + 1e-12);
        // with >1 MSM and nonzero CPU stages there must be real overlap
        assert!(rep.saving() > 0.0, "saving {}", rep.saving());
    }

    #[test]
    fn batch_comm_rides_the_topology() {
        // The pod topology makes the batch's fabric time strictly larger
        // than one (hypothetical) box of the same GPU count.
        let b = batch(96, 2, 953);
        let cfg = DistMsmConfig {
            window_size: Some(8),
            ..DistMsmConfig::default()
        };
        let pod = execute_batch(&MultiGpuSystem::dgx_a100(16), &cfg, &b).unwrap();
        let one_box = MultiGpuSystem {
            topology: distmsm_comms::Topology::single_box(16),
            ..MultiGpuSystem::dgx_a100(16)
        };
        let boxed = execute_batch(&one_box, &cfg, &b).unwrap();
        assert!(pod.comm_s > 0.0);
        assert!(boxed.comm_s > 0.0);
        assert!(pod.comm_s > boxed.comm_s, "pod {} vs box {}", pod.comm_s, boxed.comm_s);
    }

    #[test]
    fn faulted_batch_stays_exact_and_surfaces_recovery() {
        let b = batch(96, 3, 954);
        let clean_cfg = DistMsmConfig {
            window_size: Some(8),
            ..DistMsmConfig::default()
        };
        let faulted_cfg = DistMsmConfig {
            fault_plan: distmsm_gpu_sim::FaultPlan::fail_stop(2, 0),
            ..clean_cfg.clone()
        };
        let sys = MultiGpuSystem::dgx_a100(4);
        let clean = execute_batch(&sys, &clean_cfg, &b).unwrap();
        let rep = execute_batch(&sys, &faulted_cfg, &b).unwrap();
        for (inst, got) in b.iter().zip(&rep.results) {
            assert_eq!(*got, inst.reference_result());
        }
        assert_eq!(clean.recovery_s, 0.0);
        assert_eq!(clean.faulted_msms, 0);
        assert_eq!(rep.faulted_msms, 3, "every MSM sees the fail-stop");
        assert!(rep.recovery_s > 0.0);
        assert!(rep.pipelined_s > clean.pipelined_s, "recovery is not free");
        assert!(rep.pipelined_s <= rep.serial_s + 1e-12);
    }

    #[test]
    fn single_msm_gains_nothing() {
        let b = batch(64, 1, 952);
        let rep = execute_batch(
            &MultiGpuSystem::dgx_a100(2),
            &DistMsmConfig::default(),
            &b,
        )
        .unwrap();
        assert!((rep.pipelined_s - rep.serial_s).abs() < 1e-15);
    }
}
