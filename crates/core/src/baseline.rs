//! Baseline MSM implementations for comparison.
//!
//! The paper benchmarks against single-GPU-optimised implementations
//! (Bellperson, cuZK, Icicle, Mina, sppark, Yrrid) and reports the best
//! per cell as "BG". For baselines without multi-GPU support it
//! "augments them by parallelizing along the N-dim" — each GPU runs the
//! full single-GPU algorithm on an `N/G` slice of the points and the CPU
//! adds the per-GPU results.
//!
//! [`BestGpuBaseline`] reproduces that family: large single-GPU-optimal
//! windows, naive scatter, on-GPU bucket-reduce, N-dim multi-GPU split.
//! [`BestGpuBaseline::no_opt`] is the paper's NO-OPT configuration for
//! Figure 10 (single-GPU Pippenger design *and* no PADD kernel
//! optimisations).

use crate::engine::{DistMsm, DistMsmConfig, MsmError, MsmReport, PhaseBreakdown};
use crate::reduce::cpu_seconds_for_padds;
use crate::scatter::ScatterKind;
use distmsm_comms::{run_collective, CollectiveStrategy, CommConfig};
use distmsm_ec::{Curve, MsmInstance, XyzzPoint};
use distmsm_gpu_sim::MultiGpuSystem;
use distmsm_kernel::{EcKernelModel, PaddOptimizations};

/// Kernel quality of a baseline: the leading baselines ship hand-tuned
/// kernels (dedicated accumulation, good schedules) but none of the
/// paper's tensor-core or spill machinery.
pub fn tuned_baseline_kernel() -> PaddOptimizations {
    PaddOptimizations {
        dedicated_pacc: true,
        optimal_order: true,
        explicit_spill: false,
        tc_montmul: false,
        tc_onthefly_compact: false,
    }
}

/// A single-GPU-designed Pippenger implementation augmented for
/// multi-GPU by splitting points across GPUs (N-dim).
#[derive(Clone, Debug)]
pub struct BestGpuBaseline {
    system: MultiGpuSystem,
    kernel_opts: PaddOptimizations,
    window_size: Option<u32>,
}

impl BestGpuBaseline {
    /// Best-baseline configuration (tuned kernels).
    pub fn new(system: MultiGpuSystem) -> Self {
        Self {
            system,
            kernel_opts: tuned_baseline_kernel(),
            window_size: None,
        }
    }

    /// The paper's NO-OPT configuration: same algorithm, no kernel
    /// optimisations at all.
    pub fn no_opt(system: MultiGpuSystem) -> Self {
        Self {
            system,
            kernel_opts: PaddOptimizations::none(),
            window_size: None,
        }
    }

    /// Overrides the window size (defaults to the single-GPU optimum —
    /// the defining trait of these baselines).
    pub fn with_window_size(mut self, s: u32) -> Self {
        self.window_size = Some(s);
        self
    }

    /// The underlying system.
    pub fn system(&self) -> &MultiGpuSystem {
        &self.system
    }

    /// Executes the baseline MSM: each GPU runs single-GPU Pippenger on a
    /// point slice; the CPU merges the per-GPU results.
    ///
    /// # Errors
    ///
    /// Propagates sub-MSM failures (see [`MsmError`]).
    pub fn execute<C: Curve>(&self, instance: &MsmInstance<C>) -> Result<MsmReport<C>, MsmError> {
        if instance.is_empty() {
            return Err(MsmError::EmptyInstance);
        }
        let g = self.system.n_gpus();
        let n = instance.len();
        let single_gpu = MultiGpuSystem {
            devices: vec![self.system.devices[0].clone()],
            cpu: self.system.cpu.clone(),
            interconnect_gbps: self.system.interconnect_gbps,
            peer_gbps: self.system.peer_gbps,
            // each sub-MSM runs on one GPU; the merge below crosses the
            // real fabric
            topology: None,
        };
        // the single-GPU optimum: what these implementations were tuned
        // for — chosen by minimising the baseline's own cost estimate,
        // like a real implementation's empirical window tuning
        let s = self.window_size.unwrap_or_else(|| {
            let desc = crate::analytic::CurveDesc {
                name: C::NAME,
                limbs32: <C::Base as distmsm_ec::FieldElement>::LIMBS32,
                scalar_bits: C::SCALAR_BITS,
                a_is_zero: C::A_IS_ZERO,
            };
            crate::analytic::estimate_best_gpu(n as u64, &desc, &self.system, self.kernel_opts)
                .window_size
        });
        let config = DistMsmConfig {
            window_size: Some(s),
            scatter: Some(ScatterKind::Naive),
            kernel_opts: self.kernel_opts,
            bucket_reduce_on_cpu: false,
            pipelined: false,
            packed_coefficients: false, // baselines stream raw scalars
            ..DistMsmConfig::default()
        };
        let engine = DistMsm::with_config(single_gpu, config);

        let mut partials: Vec<Vec<XyzzPoint<C>>> = Vec::with_capacity(g);
        let mut per_gpu_s = Vec::with_capacity(g);
        let mut phases = PhaseBreakdown::default();
        let mut launches = Vec::new();
        let mut window_size = 0;
        let mut n_windows = 0;
        for slice in 0..g {
            let lo = n * slice / g;
            let hi = n * (slice + 1) / g;
            if lo == hi {
                per_gpu_s.push(0.0);
                partials.push(vec![XyzzPoint::identity()]);
                continue;
            }
            let sub = MsmInstance {
                points: instance.points[lo..hi].to_vec(),
                scalars: instance.scalars[lo..hi].to_vec(),
            };
            let rep = engine.execute(&sub)?;
            partials.push(vec![rep.result]);
            per_gpu_s.push(rep.total_s);
            phases.scatter_s = phases.scatter_s.max(rep.phases.scatter_s);
            phases.bucket_sum_s = phases.bucket_sum_s.max(rep.phases.bucket_sum_s);
            phases.bucket_reduce_s = phases.bucket_reduce_s.max(rep.phases.bucket_reduce_s);
            phases.window_reduce_s += rep.phases.window_reduce_s;
            phases.transfer_s = phases.transfer_s.max(rep.phases.transfer_s);
            launches.extend(rep.launches);
            window_size = rep.window_size;
            n_windows = rep.n_windows;
        }
        // The CPU merge of per-GPU results crosses the real fabric (the
        // N-dim augmentation ships one point per GPU to the host).
        let point_bytes = crate::analytic::CurveDesc::of::<C>().xyzz_bytes();
        let (merged, sched) = run_collective(
            CollectiveStrategy::HostGather,
            &partials,
            |a, b| a.padd(b),
            &self.system.fabric(),
            &CommConfig::default(),
            point_bytes,
        );
        let model = EcKernelModel::new(
            <C::Base as distmsm_ec::FieldElement>::LIMBS32,
            self.kernel_opts,
        );
        let merge_s = sched.total_s
            + cpu_seconds_for_padds(
                sched.host_reduce_ops,
                &model,
                self.system.cpu.int_ops_per_sec,
            );
        phases.transfer_s += sched.total_s;
        let total_s = per_gpu_s.iter().copied().fold(0.0, f64::max) + merge_s;
        Ok(MsmReport {
            result: merged[0],
            window_partials: Vec::new(),
            window_size,
            n_windows,
            phases,
            total_s,
            per_gpu_s,
            launches,
            comm: Some(sched),
            recovery: None,
        })
    }
}

/// Relative single-GPU calibration of the named baselines per curve,
/// reproducing the Table 3 "BG" superscripts: which implementation wins a
/// given (curve, size) cell. Factors are multipliers on
/// [`BestGpuBaseline`]'s time (lower = faster implementation).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NamedBaseline {
    /// Implementation name as in Table 2.
    pub name: &'static str,
    /// Table 2 identifier.
    pub id: u8,
    /// Single-GPU time multiplier vs the generic tuned baseline.
    pub single_gpu_factor: f64,
    /// Additional per-doubling-of-GPUs inefficiency (poor scaling —
    /// Figure 8 shows Yrrid scaling worst).
    pub scaling_penalty: f64,
}

/// The baseline implementations of Table 2 with calibration factors
/// chosen to reproduce the paper's relative standings (Yrrid fastest on
/// one GPU for BLS12-377 but worst scaling; sppark strong generally;
/// Mina far behind on MNT4753).
pub fn named_baselines(curve: &str) -> Vec<NamedBaseline> {
    match curve {
        "BLS12-377" => vec![
            NamedBaseline { name: "Yrrid", id: 6, single_gpu_factor: 0.72, scaling_penalty: 1.35 },
            NamedBaseline { name: "sppark", id: 5, single_gpu_factor: 1.00, scaling_penalty: 1.10 },
            NamedBaseline { name: "cuZK", id: 2, single_gpu_factor: 1.15, scaling_penalty: 1.02 },
            NamedBaseline { name: "Icicle", id: 3, single_gpu_factor: 1.40, scaling_penalty: 1.12 },
        ],
        "BLS12-381" => vec![
            NamedBaseline { name: "sppark", id: 5, single_gpu_factor: 1.00, scaling_penalty: 1.10 },
            NamedBaseline { name: "cuZK", id: 2, single_gpu_factor: 1.18, scaling_penalty: 1.02 },
            NamedBaseline { name: "Icicle", id: 3, single_gpu_factor: 1.45, scaling_penalty: 1.12 },
            NamedBaseline { name: "Bellperson", id: 1, single_gpu_factor: 6.0, scaling_penalty: 1.15 },
        ],
        "BN254" => vec![
            NamedBaseline { name: "sppark", id: 5, single_gpu_factor: 1.00, scaling_penalty: 1.10 },
            NamedBaseline { name: "Icicle", id: 3, single_gpu_factor: 1.35, scaling_penalty: 1.12 },
        ],
        // The generic simulated baseline already suffers the full
        // register-pressure collapse on 753-bit integers, so the named
        // factors are small; Mina leads (the paper's Table 3 superscript)
        // until cuZK's flatter scaling overtakes it at high GPU counts.
        // Mina's MNT4753 kernels predate every §4 optimisation and run
        // far from a tuned implementation (the paper measures DistMSM at
        // 15.5× Mina on average); cuZK trails it on this curve.
        "MNT4753" => vec![
            NamedBaseline { name: "Mina", id: 4, single_gpu_factor: 5.0, scaling_penalty: 1.08 },
            NamedBaseline { name: "cuZK", id: 2, single_gpu_factor: 7.5, scaling_penalty: 1.02 },
        ],
        _ => vec![NamedBaseline { name: "generic", id: 0, single_gpu_factor: 1.0, scaling_penalty: 1.1 }],
    }
}

/// The best named baseline's time for a GPU count, given the generic
/// baseline's measured/simulated time.
pub fn best_named_time(curve: &str, generic_time_s: f64, n_gpus: usize) -> (f64, &'static str, u8) {
    let doublings = (n_gpus as f64).log2();
    named_baselines(curve)
        .into_iter()
        .map(|b| {
            let t = generic_time_s * b.single_gpu_factor * b.scaling_penalty.powf(doublings);
            (t, b.name, b.id)
        })
        .min_by(|a, b| a.0.total_cmp(&b.0))
        // infallible: named_baselines always returns at least the
        // generic fallback entry
        .expect("non-empty baseline set")
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::Bn254G1;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn baseline_is_correct() {
        let mut rng = StdRng::seed_from_u64(31);
        let inst = MsmInstance::<Bn254G1>::random(200, &mut rng);
        for g in [1usize, 4] {
            let b = BestGpuBaseline::new(MultiGpuSystem::dgx_a100(g)).with_window_size(8);
            let rep = b.execute(&inst).expect("baseline runs");
            assert_eq!(rep.result, inst.reference_result(), "g={g}");
        }
    }

    #[test]
    fn no_opt_is_correct() {
        let mut rng = StdRng::seed_from_u64(32);
        let inst = MsmInstance::<Bn254G1>::random(150, &mut rng);
        let noopt = BestGpuBaseline::no_opt(MultiGpuSystem::dgx_a100(2))
            .with_window_size(8)
            .execute(&inst)
            .unwrap();
        assert_eq!(noopt.result, inst.reference_result());
    }

    #[test]
    fn no_opt_is_slower_at_scale() {
        // At paper-scale N the kernel optimisations dominate; at toy N the
        // fixed intra-bucket merge overhead hides them, so this claim is
        // checked analytically.
        use crate::analytic::{estimate_best_gpu, CurveDesc};
        let sys = MultiGpuSystem::dgx_a100(8);
        let tuned = estimate_best_gpu(1 << 24, &CurveDesc::MNT4753, &sys, tuned_baseline_kernel());
        let noopt =
            estimate_best_gpu(1 << 24, &CurveDesc::MNT4753, &sys, PaddOptimizations::none());
        assert!(
            noopt.total_s > tuned.total_s,
            "NO-OPT {} must be slower than tuned {}",
            noopt.total_s,
            tuned.total_s
        );
    }

    #[test]
    fn yrrid_wins_single_gpu_bls377_but_loses_at_scale() {
        // Table 3 / §5.1: Yrrid leads BLS12-377 on one GPU; by 32 GPUs it
        // is outpaced (even by cuZK).
        let (_, name1, _) = best_named_time("BLS12-377", 1.0, 1);
        assert_eq!(name1, "Yrrid");
        let (_, name32, _) = best_named_time("BLS12-377", 1.0, 32);
        assert_ne!(name32, "Yrrid");
    }

    #[test]
    fn mina_is_the_mnt4753_baseline() {
        let (_, name, id) = best_named_time("MNT4753", 1.0, 8);
        assert_eq!(name, "Mina");
        assert_eq!(id, 4);
    }

    #[test]
    fn empty_rejected() {
        let b = BestGpuBaseline::new(MultiGpuSystem::dgx_a100(1));
        let inst = MsmInstance::<Bn254G1> {
            points: vec![],
            scalars: vec![],
        };
        assert!(matches!(b.execute(&inst), Err(MsmError::EmptyInstance)));
    }
}
