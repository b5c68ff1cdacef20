//! The *bucket-reduce* and *window-reduce* steps.
//!
//! Bucket-reduce computes `W = Σ_b b·B_b` for one window. Executed
//! serially (the CPU offload of §3.2.3) it is two PADDs per bucket via
//! the classic suffix-sum trick; executed as a GPU parallel reduction it
//! costs each thread `2s·⌈2^s/N_T⌉ + …` operations (§3.1) — which is why
//! DistMSM moves it to the CPU for small windows.

use distmsm_ec::{Curve, Scalar, XyzzPoint};
use distmsm_gpu_sim::{LaunchStats, ThreadCost};
use distmsm_kernel::EcKernelModel;

/// Serial bucket-reduce over a bucket slice `[lo, lo + sums.len())`:
/// returns `Σ_i (lo + i)·B_i` and the number of PADD-equivalent
/// operations the *modelled* CPU spends (for the CPU cost model).
///
/// The two counts differ on purpose. The modelled count is the classic
/// suffix-sum trick's two PADDs per bucket plus the offset correction,
/// whatever the buckets hold: it feeds [`cpu_seconds_for_padds`] and so
/// the simulated clock. The host walks only the occupied buckets: a run
/// of `k` empty buckets adds `k·running` to the accumulator, one short
/// double-and-add instead of `k` PADDs, and nothing at all while
/// `running` is still the identity. The returned point equals the dense
/// walk's as a group element (its XYZZ representative may differ).
pub fn bucket_reduce_serial<C: Curve>(sums: &[XyzzPoint<C>], lo: u32) -> (XyzzPoint<C>, u64) {
    if sums.is_empty() {
        return (XyzzPoint::identity(), 0);
    }
    // suffix sums give Σ (i+1)·B_i …
    let mut running = XyzzPoint::<C>::identity();
    let mut acc = XyzzPoint::<C>::identity();
    // empty buckets passed since `running` last went into `acc`
    let mut empties: u64 = 0;
    let settle = |acc: &mut XyzzPoint<C>, running: &XyzzPoint<C>, empties: u64| {
        if empties > 0 && !running.is_identity() {
            *acc = acc.padd(&running.scalar_mul(&C::Scalar::from_u64(empties)));
        }
    };
    for b in sums.iter().rev() {
        if b.is_identity() {
            empties += 1;
            continue;
        }
        settle(&mut acc, &running, empties);
        empties = 0;
        running = running.padd(b);
        acc = acc.padd(&running);
    }
    settle(&mut acc, &running, empties);
    let mut ops = 2 * sums.len() as u64;
    // … so correct by (lo - 1)·ΣB_i (negative correction for lo = 0).
    let correction: i64 = i64::from(lo) - 1;
    if correction != 0 {
        let scaled = running.scalar_mul(&C::Scalar::from_u64(correction.unsigned_abs()));
        let adj = if correction < 0 { scaled.neg() } else { scaled };
        acc = acc.padd(&adj);
        ops += 2 * (64 - correction.unsigned_abs().leading_zeros() as u64) + 1;
    }
    (acc, ops)
}

/// GPU parallel bucket-reduce statistics (the baseline path the paper
/// argues against for small `s`): per-thread cost per §3.1.
pub fn bucket_reduce_gpu_stats(
    n_buckets: u64,
    s: u32,
    gpu_threads: u64,
    model: &EcKernelModel,
    a_is_zero: bool,
    block_size: u32,
) -> LaunchStats {
    let threads = n_buckets.min(gpu_threads).max(1);
    let bpt = (n_buckets as f64 / gpu_threads as f64).ceil().max(1.0);
    let log_nt = (gpu_threads as f64).log2();
    // 2s·⌈2^s/N_T⌉ PADD+PDBL pairs, then the parallel reduction
    let pair = model.padd_cost().add(&model.pdbl_cost(a_is_zero));
    let mut max_thread = pair.scale(f64::from(s) * bpt);
    let tail = (bpt + log_nt).min(f64::from(s));
    max_thread = max_thread.add(&model.padd_cost().scale(tail));
    max_thread.global_syncs += log_nt.min(f64::from(s));

    let mut stats = LaunchStats::new(model.profile("bucket-reduce-gpu", block_size), threads);
    stats.total = max_thread.scale(threads as f64);
    stats.max_thread = max_thread;
    stats
}

/// Window-reduce: combines per-window results with Horner's rule,
/// `acc ← 2^s·acc + W_j` from the most significant window down. Returns
/// the final MSM value and the EC op count (`λ` PDBLs + `N_win` PADDs —
/// negligible, performed on the CPU).
pub fn window_reduce<C: Curve>(window_results: &[XyzzPoint<C>], s: u32) -> (XyzzPoint<C>, u64) {
    let mut acc = XyzzPoint::<C>::identity();
    let mut ops = 0;
    for w in window_results.iter().rev() {
        for _ in 0..s {
            acc = acc.pdbl();
            ops += 1;
        }
        acc = acc.padd(w);
        ops += 1;
    }
    (acc, ops)
}

/// CPU seconds for `padd_ops` PADD-equivalent operations, converting the
/// GPU-kernel op model to 64-bit host arithmetic (a quarter of the
/// 32-bit-limb MAC count).
pub fn cpu_seconds_for_padds(padd_ops: u64, model: &EcKernelModel, cpu_ops_per_sec: f64) -> f64 {
    let int_ops_per_padd = ThreadCost::default().add(&model.padd_cost()).int_ops / 4.0;
    padd_ops as f64 * int_ops_per_padd / cpu_ops_per_sec
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::Bn254G1;
    use distmsm_ec::{Curve, Scalar};
    use distmsm_kernel::{EcKernelModel, PaddOptimizations};

    fn multiples(ks: &[u64]) -> Vec<XyzzPoint<Bn254G1>> {
        let g = Bn254G1::generator();
        ks.iter().map(|&k| g.scalar_mul(&Scalar::from_u64(k))).collect()
    }

    #[test]
    fn reduce_from_bucket_zero() {
        // buckets 0..4 holding k·G with k = [7, 1, 2, 3]:
        // expected Σ b·B_b = 0·7G + 1·1G + 2·2G + 3·3G = 14G
        let sums = multiples(&[7, 1, 2, 3]);
        let (w, ops) = bucket_reduce_serial(&sums, 0);
        assert_eq!(w, Bn254G1::generator().scalar_mul(&Scalar::from_u64(14)));
        assert!(ops >= 8);
    }

    #[test]
    fn reduce_with_offset_slice() {
        // buckets 5..8 holding [1G, 1G, 2G]: Σ = 5·1 + 6·1 + 7·2 = 25
        let sums = multiples(&[1, 1, 2]);
        let (w, _) = bucket_reduce_serial(&sums, 5);
        assert_eq!(w, Bn254G1::generator().scalar_mul(&Scalar::from_u64(25)));
    }

    #[test]
    fn reduce_slices_compose() {
        // splitting a window's buckets across two "GPUs" must not change
        // the reduced value
        let all = multiples(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let (whole, _) = bucket_reduce_serial(&all, 0);
        let (lo, _) = bucket_reduce_serial(&all[..4], 0);
        let (hi, _) = bucket_reduce_serial(&all[4..], 4);
        assert_eq!(whole, lo.padd(&hi));
    }

    /// The dense walk the model counts: two PADDs per bucket, empty or
    /// not. Kept as the reference [`bucket_reduce_serial`] must equal.
    fn bucket_reduce_dense<C: Curve>(sums: &[XyzzPoint<C>], lo: u32) -> (XyzzPoint<C>, u64) {
        if sums.is_empty() {
            return (XyzzPoint::identity(), 0);
        }
        let mut running = XyzzPoint::<C>::identity();
        let mut acc = XyzzPoint::<C>::identity();
        let mut ops: u64 = 0;
        for b in sums.iter().rev() {
            running = running.padd(b);
            acc = acc.padd(&running);
            ops += 2;
        }
        let correction: i64 = i64::from(lo) - 1;
        if correction != 0 {
            let scaled = running.scalar_mul(&C::Scalar::from_u64(correction.unsigned_abs()));
            let adj = if correction < 0 { scaled.neg() } else { scaled };
            acc = acc.padd(&adj);
            ops += 2 * (64 - correction.unsigned_abs().leading_zeros() as u64) + 1;
        }
        (acc, ops)
    }

    fn sparse_matches_dense<C: Curve>(seed: u64) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const LEN: usize = 24;
        let mut rng = StdRng::seed_from_u64(seed);
        let point = |rng: &mut StdRng| C::generator().scalar_mul(&C::random_scalar(rng));
        let mut cases: Vec<Vec<XyzzPoint<C>>> = vec![vec![XyzzPoint::identity(); LEN]];
        for at in [0, LEN - 1] {
            let mut one = vec![XyzzPoint::identity(); LEN];
            one[at] = point(&mut rng);
            cases.push(one);
        }
        cases.push((0..LEN).map(|_| point(&mut rng)).collect());
        for occupied_in_8 in [1u32, 4, 7] {
            cases.push(
                (0..LEN)
                    .map(|_| {
                        if rng.random_range(0..8u32) < occupied_in_8 {
                            point(&mut rng)
                        } else {
                            XyzzPoint::identity()
                        }
                    })
                    .collect(),
            );
        }
        // a bucket and its negation: `running` returns to the identity
        let mut cancel = vec![XyzzPoint::identity(); LEN];
        cancel[5] = point(&mut rng);
        cancel[9] = cancel[5].neg();
        cancel[2] = point(&mut rng);
        cases.push(cancel);
        for sums in &cases {
            for lo in [0u32, 1, 2, LEN as u32, 1 << 15] {
                let (want, want_ops) = bucket_reduce_dense(sums, lo);
                let (got, ops) = bucket_reduce_serial(sums, lo);
                assert_eq!(got, want, "{} seed {seed} lo {lo}", C::NAME);
                assert_eq!(got.to_affine(), want.to_affine());
                assert_eq!(ops, want_ops, "{} lo {lo}: modelled op count", C::NAME);
            }
        }
    }

    #[test]
    fn occupancy_aware_reduce_matches_dense_reference() {
        use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G2, Mnt4753G1};
        for seed in 0..3 {
            sparse_matches_dense::<Bn254G1>(seed);
            sparse_matches_dense::<Bls12377G1>(seed);
            sparse_matches_dense::<Bls12381G1>(seed);
            sparse_matches_dense::<Bn254G2>(seed);
        }
        sparse_matches_dense::<Mnt4753G1>(0);
    }

    #[test]
    fn empty_reduce_is_identity() {
        let (w, ops) = bucket_reduce_serial::<Bn254G1>(&[], 7);
        assert!(w.is_identity());
        assert_eq!(ops, 0);
    }

    #[test]
    fn window_reduce_matches_direct() {
        // windows of width 4 holding W_j = j+1 times G:
        // Σ 2^{4j}·(j+1)·G
        let ws = multiples(&[1, 2, 3]);
        let (r, ops) = window_reduce(&ws, 4);
        let expect = 1 + 2 * (1 << 4) + 3 * (1 << 8);
        assert_eq!(r, Bn254G1::generator().scalar_mul(&Scalar::from_u64(expect)));
        assert_eq!(ops, 3 * 4 + 3);
    }

    #[test]
    fn gpu_reduce_stats_grow_with_s() {
        let model = EcKernelModel::new(8, PaddOptimizations::all());
        let small = bucket_reduce_gpu_stats(1 << 11, 11, 1 << 16, &model, true, 256);
        let large = bucket_reduce_gpu_stats(1 << 20, 20, 1 << 16, &model, true, 256);
        assert!(large.max_thread.int_ops > small.max_thread.int_ops);
    }

    #[test]
    fn cpu_seconds_linear() {
        let model = EcKernelModel::new(8, PaddOptimizations::all());
        let t1 = cpu_seconds_for_padds(1000, &model, 1.5e11);
        let t2 = cpu_seconds_for_padds(2000, &model, 1.5e11);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }
}
