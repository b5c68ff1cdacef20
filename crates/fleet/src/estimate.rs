//! Analytic pod-scaling model for a sharded fleet MSM: the largest
//! shard's on-pod estimate plus the NIC-tier reduce-tree schedule cost.
//! Feeds the `fig9_scaling --bench-json` pod-count rows.

use distmsm::{
    estimate_distmsm, shard_points, window_shape, CollectiveStrategy, CurveDesc, DistMsmConfig,
};
use distmsm_comms::{plan_collective, CommConfig, Fabric, Topology};
use distmsm_gpu_sim::MultiGpuSystem;

/// Analytic estimate for one `(n, curve, n_pods)` fleet configuration.
#[derive(Clone, Debug)]
pub struct FleetMsmEstimate {
    /// Pod count the MSM is sharded across.
    pub n_pods: usize,
    /// Modeled seconds for the largest shard on one pod (compute).
    pub compute_s: f64,
    /// Modeled seconds for the cross-pod NIC-tier reduce tree.
    pub reduce_s: f64,
    /// End-to-end modeled seconds (`compute + reduce`).
    pub total_s: f64,
    /// Strategy that won the reduce (best over all strategies).
    pub strategy: CollectiveStrategy,
}

/// Estimates a sharded fleet MSM: the slowest (largest) shard runs the
/// per-pod analytic model, and the cross-pod reduce is planned over
/// [`Topology::fleet`] with the best collective strategy. The twin
/// query doubles per-pod compute (the price of 2G2T verification).
pub fn estimate_fleet_msm(
    n: u64,
    curve: &CurveDesc,
    n_pods: usize,
    gpus_per_pod: usize,
    cfg: &DistMsmConfig,
) -> FleetMsmEstimate {
    assert!(n_pods > 0, "need at least one pod");
    let system = MultiGpuSystem::dgx_a100(gpus_per_pod);
    let largest = shard_points(n as usize, n_pods)
        .into_iter()
        .map(|(lo, hi)| hi - lo)
        .max()
        .unwrap_or(0) as u64;
    let pod = estimate_distmsm(largest, curve, &system, cfg);
    // Outsourcing check: each pod also executes the blinded twin.
    let compute_s = 2.0 * pod.total_s;

    let w = window_shape(curve.scalar_bits, pod.window_size, false).0 as usize;
    let elem_bytes = curve.xyzz_bytes();
    let topo = Topology::fleet(n_pods);
    let (strategy, reduce_s) = CollectiveStrategy::ALL
        .iter()
        .map(|&s| {
            let sched = plan_collective(
                s,
                n_pods,
                w,
                elem_bytes,
                &Fabric::Topology(&topo),
                &CommConfig::default(),
            );
            (s, sched.total_s)
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one collective strategy");

    FleetMsmEstimate { n_pods, compute_s, reduce_s, total_s: compute_s + reduce_s, strategy }
}
