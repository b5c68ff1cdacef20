//! Topology-routed communication costing shared by [`crate::engine`]
//! and [`crate::analytic`].
//!
//! Both the functional engine and the paper-scale analytic model derive
//! their transfer terms from the *same* deterministic schedules built
//! here, so the `analytic_matches_functional` validation holds by
//! construction: the engine executes the collective over real points,
//! the analytic model plans the identical flows over unit data, and
//! both read `CommSchedule::total_s`.

use crate::plan::Slice;
use distmsm_comms::{
    gather_to_host, plan_collective, CollectiveStrategy, CommConfig, CommSchedule,
};
use distmsm_gpu_sim::MultiGpuSystem;

/// Bytes of bucket partial sums each GPU must ship to the host before a
/// CPU-side bucket-reduce: every slice contributes its bucket count.
pub fn per_gpu_bucket_bytes(slices: &[Slice], n_gpus: usize, point_bytes: f64) -> Vec<f64> {
    let mut per = vec![0.0; n_gpus];
    for sl in slices {
        per[sl.gpu] += f64::from(sl.len()) * point_bytes;
    }
    per
}

/// Plans the device→host gather of bucket partials (CPU bucket-reduce
/// path), routed through the system's fabric.
pub fn bucket_gather_schedule(
    slices: &[Slice],
    point_bytes: f64,
    system: &MultiGpuSystem,
) -> CommSchedule {
    let per = per_gpu_bucket_bytes(slices, system.n_gpus(), point_bytes);
    gather_to_host(&per, system.fabric(), &CommConfig::default())
}

/// Plans the inter-GPU reduction of per-GPU window partials (GPU
/// bucket-reduce path) under `strategy`, routed through the system's
/// fabric. The engine's [`distmsm_comms::run_collective`] over real EC
/// points emits the identical flows and cost.
pub fn window_partial_plan(
    strategy: CollectiveStrategy,
    n_windows: u32,
    point_bytes: f64,
    system: &MultiGpuSystem,
) -> CommSchedule {
    plan_collective(
        strategy,
        system.n_gpus(),
        n_windows as usize,
        point_bytes,
        system.fabric(),
        &CommConfig::default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::plan_slices;

    #[test]
    fn bucket_bytes_cover_every_slice() {
        let slices = plan_slices(16, 1 << 10, 8);
        let per = per_gpu_bucket_bytes(&slices, 8, 128.0);
        let total: f64 = per.iter().sum();
        assert!((total - 16.0 * 1024.0 * 128.0).abs() < 1e-6);
        assert!(per.iter().all(|&b| b > 0.0));
    }

    #[test]
    fn window_plan_scales_with_gpus_and_point_size() {
        let strat = CollectiveStrategy::HostGather;
        let t = |gpus: usize, pb: f64| {
            window_partial_plan(strat, 16, pb, &MultiGpuSystem::dgx_a100(gpus)).total_s
        };
        assert!(t(2, 128.0) > t(1, 128.0));
        assert!(t(8, 128.0) > t(4, 128.0));
        assert!(t(4, 384.0) > t(4, 128.0));
    }
}
