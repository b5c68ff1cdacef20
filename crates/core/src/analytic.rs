//! Paper-scale analytic timing (no functional execution).
//!
//! The evaluation sizes (`N = 2^22 … 2^28`, Table 3) cannot be executed
//! functionally on a development machine, so this module evaluates the
//! same cost composition as [`crate::engine`] from *expected* event
//! counts. The expectation formulas are validated against functional
//! metering at reduced `N` by the `analytic_matches_functional`
//! integration tests.

use crate::baseline::best_named_time;
use crate::bucket_sum::{bucket_sum_stats, threads_per_bucket};
use crate::config::DistMsmConfig;
use crate::engine::{compose_timing, gpu_threads, window_shape, PhaseBreakdown, PhaseTimes};
use crate::plan::plan_slices;
use crate::reduce::{bucket_reduce_gpu_stats, cpu_seconds_for_padds};
use crate::scatter::{
    hierarchical_scatter_stats, hierarchical_shared_bytes, naive_scatter_stats, ScatterKind,
};
use distmsm_gpu_sim::{estimate_kernel_time, CostModelConfig, MultiGpuSystem};
use distmsm_kernel::EcKernelModel;

/// Static description of a curve for analytic runs (no point arithmetic
/// is performed, only limb widths and scalar widths matter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CurveDesc {
    /// Curve name as used in the paper's tables.
    pub name: &'static str,
    /// 32-bit limbs per base-field element.
    pub limbs32: usize,
    /// Scalar bit width λ.
    pub scalar_bits: u32,
    /// Whether `a = 0` in the curve equation.
    pub a_is_zero: bool,
}

impl CurveDesc {
    /// The descriptor matching a statically-known [`distmsm_ec::Curve`]
    /// type, so generic callers (e.g. the service front-end estimating
    /// deadlines) can obtain analytic timings without a lookup table.
    pub fn of<C: distmsm_ec::Curve>() -> Self {
        Self {
            name: C::NAME,
            limbs32: <C::Base as distmsm_ec::FieldElement>::LIMBS32,
            scalar_bits: C::SCALAR_BITS,
            a_is_zero: C::A_IS_ZERO,
        }
    }

    /// Wire size of one XYZZ point: four base-field coordinates of
    /// `limbs32` four-byte limbs.
    pub fn xyzz_bytes(&self) -> f64 {
        16.0 * self.limbs32 as f64
    }

    /// BN254 (Table 1: 254-bit scalars and points).
    pub const BN254: Self = Self {
        name: "BN254",
        limbs32: 8,
        scalar_bits: 254,
        a_is_zero: true,
    };
    /// BLS12-377 (253-bit scalars, 377-bit points).
    pub const BLS12_377: Self = Self {
        name: "BLS12-377",
        limbs32: 12,
        scalar_bits: 253,
        a_is_zero: true,
    };
    /// BLS12-381 (255-bit scalars, 381-bit points).
    pub const BLS12_381: Self = Self {
        name: "BLS12-381",
        limbs32: 12,
        scalar_bits: 255,
        a_is_zero: true,
    };
    /// MNT4-753 (753-bit everything; `a = 2`).
    pub const MNT4753: Self = Self {
        name: "MNT4753",
        limbs32: 24,
        scalar_bits: 753,
        a_is_zero: false,
    };

    /// The four curves of the paper's evaluation.
    pub const ALL: [Self; 4] = [Self::BN254, Self::BLS12_377, Self::BLS12_381, Self::MNT4753];
}

/// Analytic timing result (mirror of `MsmReport` without a point value).
#[derive(Clone, Debug)]
pub struct MsmEstimate {
    /// Window size used.
    pub window_size: u32,
    /// Number of windows.
    pub n_windows: u32,
    /// Per-phase breakdown.
    pub phases: PhaseBreakdown,
    /// Total estimated seconds.
    pub total_s: f64,
    /// Whether the configuration could execute at all (hierarchical
    /// scatter overflow ⇒ `false`, the paper's `s > 14` failures).
    pub feasible: bool,
}

/// Estimates a DistMSM execution at scale `n` on `system`.
///
/// With `config.window_size == None` the window size is chosen by
/// minimising this very estimate over `s ∈ 4..=22` — DistMSM tunes itself
/// against its own cost model, which (unlike the raw §3.1 op count)
/// includes the CPU bucket-reduce and transfer costs that push multi-GPU
/// configurations toward small windows (§3.2).
pub fn estimate_distmsm(
    n: u64,
    curve: &CurveDesc,
    system: &MultiGpuSystem,
    config: &DistMsmConfig,
) -> MsmEstimate {
    let shape = Shape::new(n, curve, system, config);
    match config.window_size {
        Some(s) => shape.estimate(s),
        None => (4..=22u32)
            .map(|s| shape.estimate(s))
            .min_by(|a, b| a.total_s.total_cmp(&b.total_s))
            // infallible: the literal range 4..=22 is non-empty
            .expect("non-empty window range"),
    }
}

/// [`estimate_distmsm`] at an explicit window size.
pub fn estimate_distmsm_with_s(
    n: u64,
    curve: &CurveDesc,
    system: &MultiGpuSystem,
    config: &DistMsmConfig,
    s: u32,
) -> MsmEstimate {
    Shape::new(n, curve, system, config).estimate(s)
}

/// Everything an estimate needs that does not depend on the window size,
/// derived once and shared by the 19 candidates of the argmin.
struct Shape<'a> {
    n: u64,
    curve: &'a CurveDesc,
    system: &'a MultiGpuSystem,
    config: &'a DistMsmConfig,
    cost_cfg: CostModelConfig,
    model: EcKernelModel,
    gpu_threads: u64,
    /// Packed-coefficient repacking pre-pass, charged to every GPU.
    prepass: f64,
    coeff_bytes: f64,
}

impl<'a> Shape<'a> {
    fn new(
        n: u64,
        curve: &'a CurveDesc,
        system: &'a MultiGpuSystem,
        config: &'a DistMsmConfig,
    ) -> Self {
        let model = EcKernelModel::new(curve.limbs32, config.kernel_opts);
        let scalar_bytes = curve.scalar_bits.div_ceil(8);
        let (prepass, coeff_bytes) = if config.packed_coefficients {
            let prepass = crate::scatter::scalar_prepass_seconds(
                n,
                u64::from(scalar_bytes),
                system.devices[0].mem_bandwidth_gbps,
                system.n_gpus(),
            );
            (prepass, 4.0)
        } else {
            (0.0, f64::from(scalar_bytes))
        };
        Self {
            n,
            curve,
            system,
            config,
            cost_cfg: CostModelConfig::default(),
            gpu_threads: gpu_threads(system, config, &model),
            model,
            prepass,
            coeff_bytes,
        }
    }

    /// The estimate at window size `s`.
    fn estimate(&self, s: u32) -> MsmEstimate {
        let Self {
            n,
            curve,
            system,
            config,
            ref cost_cfg,
            ref model,
            gpu_threads,
            prepass,
            coeff_bytes,
        } = *self;
        let (n_windows, window_buckets) = window_shape(curve.scalar_bits, s, config.signed_digits);
        let n_gpus = system.n_gpus();
        let slices = plan_slices(n_windows, window_buckets, n_gpus);
        let n_buckets = u64::from(window_buckets);

        let mut scatter_per_gpu = vec![prepass; n_gpus];
        let mut sum_per_gpu = vec![0.0f64; n_gpus];
        let mut gpu_reduce_per_gpu = vec![0.0f64; n_gpus];
        let mut cpu_padds = 0u64;
        let mut feasible = true;

        for slice in &slices {
            let dev = &system.devices[slice.gpu];
            let slice_buckets = u64::from(slice.len());
            let expected_inserts = n * slice_buckets / n_buckets;

            // --- scatter --------------------------------------------------
            let fits = hierarchical_shared_bytes(slice.len(), &config.scatter_cfg)
                <= config.scatter_cfg.shared_mem_per_block;
            let kind = config.scatter.unwrap_or(if fits {
                ScatterKind::Hierarchical
            } else {
                ScatterKind::Naive
            });
            let scatter_stats = match kind {
                ScatterKind::Naive => {
                    naive_scatter_stats(n, expected_inserts, slice.len(), gpu_threads, coeff_bytes)
                }
                ScatterKind::Hierarchical if !fits => {
                    feasible = false;
                    continue;
                }
                ScatterKind::Hierarchical => {
                    let points_per_block = u64::from(config.scatter_cfg.block_size)
                        * u64::from(config.scatter_cfg.points_per_thread);
                    let n_blocks = n.div_ceil(points_per_block).max(1);
                    // expected non-empty local buckets per block
                    let lam = points_per_block as f64 / n_buckets as f64;
                    let nonempty_frac = 1.0 - (-lam).exp();
                    let committed = (slice_buckets as f64 * nonempty_frac * n_blocks as f64) as u64;
                    hierarchical_scatter_stats(
                        n_blocks,
                        committed.max(1),
                        slice.len(),
                        &config.scatter_cfg,
                        coeff_bytes,
                    )
                }
            };
            scatter_per_gpu[slice.gpu] +=
                estimate_kernel_time(dev, &scatter_stats, cost_cfg).total();

            // --- bucket-sum -------------------------------------------------
            let tpb = threads_per_bucket(gpu_threads, slice_buckets);
            let sum_stats =
                bucket_sum_stats(expected_inserts, slice_buckets, tpb, model, config.block_size);
            sum_per_gpu[slice.gpu] += estimate_kernel_time(dev, &sum_stats, cost_cfg).total();

            // --- bucket-reduce ----------------------------------------------
            if config.bucket_reduce_on_cpu {
                cpu_padds += 2 * slice_buckets + 1;
            } else {
                let stats = bucket_reduce_gpu_stats(
                    slice_buckets,
                    s,
                    gpu_threads,
                    model,
                    curve.a_is_zero,
                    config.block_size,
                );
                gpu_reduce_per_gpu[slice.gpu] +=
                    estimate_kernel_time(dev, &stats, cost_cfg).total();
            }
        }

        let point_bytes = curve.xyzz_bytes();
        // identical schedules to the engine's gather/collective (see
        // `crate::comm`): the transfer term stays in lockstep by construction
        let comm = if config.bucket_reduce_on_cpu {
            crate::comm::bucket_gather_schedule(&slices, point_bytes, system)
        } else {
            crate::comm::window_partial_plan(config.collective, n_windows, point_bytes, system)
        };
        let cpu_s = |padds: u64| cpu_seconds_for_padds(padds, model, system.cpu.int_ops_per_sec);
        let composed = compose_timing(
            config,
            n_windows,
            &PhaseTimes {
                scatter_per_gpu: &scatter_per_gpu,
                sum_per_gpu: &sum_per_gpu,
                gpu_reduce_per_gpu: &gpu_reduce_per_gpu,
                cpu_reduce_s: cpu_s(cpu_padds),
                comm_host_s: cpu_s(comm.host_reduce_ops),
                window_reduce_s: cpu_s(u64::from(curve.scalar_bits) + u64::from(n_windows)),
                transfer_s: comm.total_s,
            },
        );
        MsmEstimate {
            window_size: s,
            n_windows,
            phases: composed.phases,
            total_s: if feasible { composed.total_s } else { f64::INFINITY },
            feasible,
        }
    }
}

/// Estimates the N-dim-split single-GPU-design baseline at scale `n`.
pub fn estimate_best_gpu(
    n: u64,
    curve: &CurveDesc,
    system: &MultiGpuSystem,
    kernel_opts: distmsm_kernel::PaddOptimizations,
) -> MsmEstimate {
    let g = system.n_gpus() as u64;
    // each slice runs on one GPU in a box of its own, as in
    // `BestGpuBaseline::execute`
    let single = MultiGpuSystem {
        cpu: system.cpu.clone(),
        ..MultiGpuSystem::homogeneous(system.devices[0].clone(), 1)
    };
    // Baselines tune their window size empirically for their own design
    // (large windows, naive scatter, on-GPU reduce), so pick the s that
    // minimises their own estimate.
    let base_config = |s: u32| DistMsmConfig {
        window_size: Some(s),
        scatter: Some(ScatterKind::Naive),
        kernel_opts,
        bucket_reduce_on_cpu: false,
        pipelined: false,
        packed_coefficients: false, // baselines stream raw scalars
        ..DistMsmConfig::default()
    };
    (10..=22u32)
        .map(|s| estimate_distmsm((n / g).max(1), curve, &single, &base_config(s)))
        .min_by(|a, b| a.total_s.total_cmp(&b.total_s))
        // infallible: the literal range 10..=22 is non-empty
        .expect("non-empty window range")
}

/// The best named baseline ("BG") time at scale `n`, with the winning
/// implementation's name and Table 2 id.
pub fn estimate_best_baseline(
    n: u64,
    curve: &CurveDesc,
    system: &MultiGpuSystem,
) -> (f64, &'static str, u8) {
    let generic = estimate_best_gpu(n, curve, system, crate::baseline::tuned_baseline_kernel());
    best_named_time(curve.name, generic.total_s, system.n_gpus())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_scales_with_n() {
        let sys = MultiGpuSystem::dgx_a100(8);
        let cfg = DistMsmConfig::default();
        let small = estimate_distmsm(1 << 20, &CurveDesc::BN254, &sys, &cfg);
        let large = estimate_distmsm(1 << 24, &CurveDesc::BN254, &sys, &cfg);
        assert!(large.total_s > 4.0 * small.total_s, "{} vs {}", large.total_s, small.total_s);
    }

    #[test]
    fn one_machine_has_one_price() {
        // Fig 9's A100 row and Table 3's 1-GPU cell price the same box
        let fig9 = MultiGpuSystem::homogeneous(distmsm_gpu_sim::DeviceSpec::a100(), 1);
        let table3 = MultiGpuSystem::dgx_a100(1);
        let cfg = DistMsmConfig::default();
        let price = |sys: &MultiGpuSystem| {
            estimate_distmsm(1 << 24, &CurveDesc::BLS12_381, sys, &cfg)
                .total_s
                .to_bits()
        };
        assert_eq!(price(&fig9), price(&table3));
    }

    #[test]
    fn estimate_scales_with_gpus() {
        let cfg = DistMsmConfig::default();
        let one = estimate_distmsm(1 << 26, &CurveDesc::BN254, &MultiGpuSystem::dgx_a100(1), &cfg);
        let eight =
            estimate_distmsm(1 << 26, &CurveDesc::BN254, &MultiGpuSystem::dgx_a100(8), &cfg);
        let speedup = one.total_s / eight.total_s;
        assert!(speedup > 3.0, "8-GPU speedup only {speedup}");
    }

    #[test]
    fn mnt4753_is_much_slower() {
        let sys = MultiGpuSystem::dgx_a100(8);
        let cfg = DistMsmConfig::default();
        let bn = estimate_distmsm(1 << 24, &CurveDesc::BN254, &sys, &cfg);
        let mnt = estimate_distmsm(1 << 24, &CurveDesc::MNT4753, &sys, &cfg);
        assert!(mnt.total_s > 5.0 * bn.total_s);
    }

    #[test]
    fn infeasible_when_hierarchical_forced_large() {
        let sys = MultiGpuSystem::dgx_a100(1);
        let cfg = DistMsmConfig {
            window_size: Some(16),
            scatter: Some(ScatterKind::Hierarchical),
            ..DistMsmConfig::default()
        };
        let e = estimate_distmsm(1 << 22, &CurveDesc::BN254, &sys, &cfg);
        assert!(!e.feasible);
        assert!(e.total_s.is_infinite());
    }

    #[test]
    fn signed_digits_help_at_scale() {
        // halved buckets cut the CPU reduce; the extra window costs ~4%
        let sys = MultiGpuSystem::dgx_a100(16);
        let base = estimate_distmsm(1 << 26, &CurveDesc::BN254, &sys, &DistMsmConfig::default());
        let signed_cfg = DistMsmConfig {
            signed_digits: true,
            ..DistMsmConfig::default()
        };
        let signed = estimate_distmsm(1 << 26, &CurveDesc::BN254, &sys, &signed_cfg);
        let ratio = signed.total_s / base.total_s;
        assert!((0.7..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn distmsm_beats_baseline_at_scale() {
        let sys = MultiGpuSystem::dgx_a100(16);
        let d = estimate_distmsm(1 << 26, &CurveDesc::BLS12_381, &sys, &DistMsmConfig::default());
        let (bg, _, _) = estimate_best_baseline(1 << 26, &CurveDesc::BLS12_381, &sys);
        assert!(d.total_s < bg, "DistMSM {} vs BG {bg}", d.total_s);
    }
}
