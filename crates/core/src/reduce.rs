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

/// Host cost of one PDBL, PACC and PADD in tens of reference-host ns
/// (`ec.pdbl_ns.bn254` ≈ 290, `ec.pacc_ns.bn254` ≈ 300,
/// `ec.padd_ns.bn254` ≈ 410 in the repo benchmark): the weights
/// [`bucket_reduce_serial`] prices its two walks with. Only their ratios
/// matter, and those are the formulas' 9 : 10 : 14 field multiplications
/// on every curve.
const PDBL_WEIGHT: u64 = 29;
const PACC_WEIGHT: u64 = 30;
const PADD_WEIGHT: u64 = 41;

/// Serial bucket-reduce over a bucket slice `[lo, lo + sums.len())`:
/// returns `Σ_i (lo + i)·B_i` and the number of PADD-equivalent
/// operations the *modelled* CPU spends (for the CPU cost model).
///
/// The two counts differ on purpose. The modelled count is the classic
/// suffix-sum trick's two PADDs per bucket plus the offset correction,
/// whatever the buckets hold: it feeds [`cpu_seconds_for_padds`] and so
/// the simulated clock. The host runs whichever of two exact walks costs
/// less on this slice's occupancy: the dense suffix walk, which pays for
/// every bucket up to the highest occupied one, or a Horner walk over the
/// NAF digits of the occupied buckets' indices, which pays per occupied
/// bucket and index bit. The returned point is the same group element
/// either way (its XYZZ representative depends on the walk).
pub fn bucket_reduce_serial<C: Curve>(sums: &[XyzzPoint<C>], lo: u32) -> (XyzzPoint<C>, u64) {
    if sums.is_empty() {
        return (XyzzPoint::identity(), 0);
    }
    let w = match pick_walk(sums, lo) {
        Walk::Dense => dense_walk(sums, lo),
        Walk::Horner => naf_horner_walk(sums, lo),
    };
    let mut ops = 2 * sums.len() as u64;
    let correction = i64::from(lo) - 1;
    if correction != 0 {
        ops += 2 * u64::from(bit_len(correction.unsigned_abs())) + 1;
    }
    (w, ops)
}

/// The two walks [`bucket_reduce_serial`] picks between.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Walk {
    Dense,
    Horner,
}

/// Prices both walks on `sums` by the additions and doublings each would
/// perform (a copy into the identity counted as an addition in both) and
/// picks the cheaper; a tie goes to the dense walk.
fn pick_walk<C: Curve>(sums: &[XyzzPoint<C>], lo: u32) -> Walk {
    // dense: `running += B` per occupied bucket, `acc += running` from the
    // highest occupied bucket down, then the correction
    let mut running_adds = 0;
    let mut top = None;
    // Horner: `acc ± B` per non-zero digit, a doubling per digit position
    let mut digit_adds = 0;
    let mut digits = 0;
    for (i, b) in sums.iter().enumerate() {
        if b.is_identity() {
            continue;
        }
        let add = if b.is_normalized() {
            PACC_WEIGHT
        } else {
            PADD_WEIGHT
        };
        let (pos, neg) = naf(u64::from(lo) + i as u64);
        running_adds += add;
        digit_adds += u64::from((pos | neg).count_ones()) * add;
        digits = digits.max(bit_len(pos));
        top = Some(i);
    }
    let Some(top) = top else {
        return Walk::Horner;
    };
    let mut dense = running_adds + (top as u64 + 1) * PADD_WEIGHT;
    let correction = (i64::from(lo) - 1).unsigned_abs();
    if correction != 0 {
        dense += u64::from(bit_len(correction) - 1) * PDBL_WEIGHT
            + u64::from(correction.count_ones() + 1) * PADD_WEIGHT;
    }
    let horner = digit_adds + u64::from(digits.saturating_sub(1)) * PDBL_WEIGHT;
    if horner < dense {
        Walk::Horner
    } else {
        Walk::Dense
    }
}

/// The suffix-sum walk the model counts: `running += B; acc += running`
/// over every bucket from the top, giving `Σ (i+1)·B_i`, then the
/// `(lo − 1)·ΣB_i` correction (negative for `lo = 0`).
fn dense_walk<C: Curve>(sums: &[XyzzPoint<C>], lo: u32) -> XyzzPoint<C> {
    let mut running = XyzzPoint::<C>::identity();
    let mut acc = XyzzPoint::<C>::identity();
    for b in sums.iter().rev() {
        running = running.padd(b);
        acc = acc.padd(&running);
    }
    let correction = i64::from(lo) - 1;
    if correction != 0 {
        let scaled = running.scalar_mul(&C::Scalar::from_u64(correction.unsigned_abs()));
        let adj = if correction < 0 { scaled.neg() } else { scaled };
        acc = acc.padd(&adj);
    }
    acc
}

/// Horner's rule over the NAF digits of every occupied bucket's absolute
/// index `lo + i`, most significant digit first: one doubling per digit
/// position, one `acc ± B_i` per non-zero digit, no correction.
fn naf_horner_walk<C: Curve>(sums: &[XyzzPoint<C>], lo: u32) -> XyzzPoint<C> {
    let occupied: Vec<(&XyzzPoint<C>, u64, u64)> = sums
        .iter()
        .enumerate()
        .filter(|(_, b)| !b.is_identity())
        .map(|(i, b)| {
            let (pos, neg) = naf(u64::from(lo) + i as u64);
            (b, pos, neg)
        })
        .collect();
    let digits = occupied
        .iter()
        .map(|&(_, pos, _)| bit_len(pos))
        .max()
        .unwrap_or(0);
    let mut acc = XyzzPoint::<C>::identity();
    for k in (0..digits).rev() {
        acc = acc.pdbl();
        for &(b, pos, neg) in &occupied {
            if pos >> k & 1 == 1 {
                acc = acc.padd(b);
            } else if neg >> k & 1 == 1 {
                acc = acc.padd(&b.neg());
            }
        }
    }
    acc
}

/// The non-adjacent form of `n < 2^62` as `(positive, negative)` digit
/// masks: `n = pos − neg`, and no two set bits of `pos | neg` are
/// adjacent. Its top digit is positive, so `pos` is the longer mask.
fn naf(n: u64) -> (u64, u64) {
    let triple = 3 * n;
    let carries = triple ^ n;
    ((triple & carries) >> 1, (n & carries) >> 1)
}

/// Bits needed to write `n` (`0` for `0`).
fn bit_len(n: u64) -> u32 {
    64 - n.leading_zeros()
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

    /// The definition, independent of both walks: `Σ (lo + i)·B_i`, one
    /// double-and-add per bucket.
    fn reduce_by_definition<C: Curve>(sums: &[XyzzPoint<C>], lo: u32) -> XyzzPoint<C> {
        sums.iter()
            .enumerate()
            .map(|(i, b)| b.scalar_mul(&C::Scalar::from_u64(u64::from(lo) + i as u64)))
            .sum()
    }

    /// The modelled op count, frozen: two PADDs per bucket plus
    /// `2·bits(|lo − 1|) + 1` for the correction.
    fn frozen_ops(len: usize, lo: u32) -> u64 {
        let correction = match lo {
            1 => 0,
            0 | 2 => 3,
            32 => 11,
            32_768 => 31,
            _ => unreachable!("no frozen count for lo = {lo}"),
        };
        2 * len as u64 + correction
    }

    /// Bucket patterns both walks must reduce exactly: all empty, one
    /// bucket at either end, dense, 1/8 … 7/8 occupied, a cancelling pair,
    /// and buckets whose NAF digits carry (`2^k − 1`, `0b0111…`). Every
    /// other occupied bucket is normalized, so both of `padd`'s formulas
    /// run.
    fn bucket_patterns<C: Curve>(seed: u64) -> Vec<Vec<XyzzPoint<C>>> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut normalize = true;
        let mut point = |rng: &mut StdRng| {
            // 64-bit multiples keep MNT4-753 affordable in a debug build
            let p = C::generator().scalar_mul(&C::Scalar::from_u64(rng.random()));
            normalize = !normalize;
            if normalize {
                p.to_affine().to_xyzz()
            } else {
                p
            }
        };
        let empty = || vec![XyzzPoint::<C>::identity(); PATTERN_LEN];
        let mut cases = vec![empty()];
        for at in [0, PATTERN_LEN - 1] {
            let mut one = empty();
            one[at] = point(&mut rng);
            cases.push(one);
        }
        cases.push((0..PATTERN_LEN).map(|_| point(&mut rng)).collect());
        for occupied_in_8 in 1u32..8 {
            cases.push(
                (0..PATTERN_LEN)
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
        let mut cancel = empty();
        cancel[5] = point(&mut rng);
        cancel[9] = cancel[5].neg();
        cancel[2] = point(&mut rng);
        cases.push(cancel);
        let mut carries = empty();
        for i in [3, 7, 14, 15, 23, 31] {
            carries[i] = point(&mut rng);
        }
        cases.push(carries);
        cases
    }

    const PATTERN_LEN: usize = 32;

    fn both_walks_match_the_definition<C: Curve>(seed: u64) {
        for sums in &bucket_patterns::<C>(seed) {
            for lo in [0u32, 1, 2, PATTERN_LEN as u32, 1 << 15] {
                let want = reduce_by_definition(sums, lo);
                let at = format!("{} seed {seed} lo {lo}", C::NAME);
                assert_eq!(dense_walk(sums, lo), want, "dense walk, {at}");
                assert_eq!(naf_horner_walk(sums, lo), want, "Horner walk, {at}");
                let (got, ops) = bucket_reduce_serial(sums, lo);
                assert_eq!(got.to_affine(), want.to_affine(), "{at}");
                assert_eq!(ops, frozen_ops(sums.len(), lo), "modelled op count, {at}");
            }
        }
    }

    #[test]
    fn both_walks_equal_the_definition_on_every_curve() {
        use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G2, Mnt4753G1};
        for seed in 0..2 {
            both_walks_match_the_definition::<Bn254G1>(seed);
            both_walks_match_the_definition::<Bls12377G1>(seed);
            both_walks_match_the_definition::<Bls12381G1>(seed);
            both_walks_match_the_definition::<Bn254G2>(seed);
        }
        both_walks_match_the_definition::<Mnt4753G1>(0);
    }

    #[test]
    fn naf_digits_are_non_adjacent_and_sum_to_the_index() {
        for n in (0..1u64 << 12).chain([
            (1 << 32) - 1,
            (1 << 32) + 0b0111,
            u64::from(u32::MAX) + 4096,
        ]) {
            let (pos, neg) = naf(n);
            assert_eq!(pos & neg, 0, "{n}");
            assert_eq!(pos.wrapping_sub(neg), n, "{n}");
            let digits = pos | neg;
            assert_eq!(digits & (digits >> 1), 0, "{n}: adjacent digits");
            assert!(pos >= neg, "{n}: the top digit is positive");
        }
        // the carries a binary walk would pay for
        assert_eq!(naf(0b0111), (0b1000, 0b0001));
        assert_eq!(naf(0b1011), (0b10000, 0b00101));
    }

    /// `len` buckets from `lo`, every one occupied by a normalized point.
    fn full_slice(len: usize) -> Vec<XyzzPoint<Bn254G1>> {
        vec![Bn254G1::generator().to_xyzz(); len]
    }

    #[test]
    fn full_s8_slices_take_the_dense_walk() {
        for (lo, len) in [
            (0, 256),
            (1, 255),
            (0, 128),
            (128, 128),
            (64, 64),
            (192, 64),
        ] {
            assert_eq!(
                pick_walk(&full_slice(len), lo),
                Walk::Dense,
                "[{lo}, {})",
                lo as usize + len
            );
        }
    }

    #[test]
    fn slices_at_an_eighth_occupancy_or_less_take_horner() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(8);
        for (lo, len) in [(0, 256), (128, 128), (0, 1024), (512, 512), (1 << 15, 2048)] {
            for occupied in [1, len / 16, len / 8] {
                let mut sums = vec![XyzzPoint::<Bn254G1>::identity(); len];
                // the top bucket is always occupied: the dense walk's best case
                sums[len - 1] = Bn254G1::generator().to_xyzz().pdbl();
                for _ in 1..occupied {
                    sums[rng.random_range(0..len)] = Bn254G1::generator().to_xyzz();
                }
                assert_eq!(
                    pick_walk(&sums, lo as u32),
                    Walk::Horner,
                    "{occupied} of [{lo}, {})",
                    lo + len
                );
            }
        }
    }

    /// The signed 2^12-point BLS12-381 shape on 32 GPUs (the repo
    /// benchmark's `msm_bls381_sliced`): the engine's own window size and
    /// slices, occupied as 2^12 random scalars' signed digits occupy them,
    /// every bucket normalized (the case least favourable to the dense
    /// walk). The short slices at either end of a window's bucket range
    /// may go either way; every occupied slice of 48 buckets or more is dense, and
    /// so is the walk over nine in ten occupied buckets.
    #[test]
    fn the_signed_2p12_shape_takes_the_dense_walk() {
        use crate::analytic::CurveDesc;
        use crate::engine::{partition_plan, DistMsm, DistMsmConfig};
        use crate::signed::recode_signed;
        use distmsm_comms::CollectiveStrategy;
        use distmsm_ec::curves::Bls12381G1;
        use distmsm_gpu_sim::MultiGpuSystem;
        use rand::{rngs::StdRng, SeedableRng};
        const N: usize = 1 << 12;
        let config = DistMsmConfig::builder()
            .signed_digits(true)
            .bucket_reduce_on_cpu(false)
            .collective(CollectiveStrategy::RingAllReduce)
            .build()
            .expect("a valid engine configuration");
        let engine = DistMsm::with_config(MultiGpuSystem::dgx_a100(32), config);
        let s = engine.window_size_for(N, &CurveDesc::of::<Bls12381G1>());
        let (slices, _, _) = partition_plan(Bls12381G1::SCALAR_BITS, s, true, 32);
        let mut rng = StdRng::seed_from_u64(12);
        let digits: Vec<Vec<i32>> = (0..N)
            .map(|_| {
                recode_signed(
                    &Bls12381G1::random_scalar(&mut rng),
                    s,
                    Bls12381G1::SCALAR_BITS,
                )
            })
            .collect();
        let (mut occupied_total, mut occupied_dense) = (0, 0);
        for sl in &slices {
            let mut sums = vec![XyzzPoint::<Bls12381G1>::identity(); sl.len() as usize];
            for d in &digits {
                let bucket = d[sl.window as usize].unsigned_abs();
                if (sl.bucket_lo..sl.bucket_hi).contains(&bucket) && bucket != 0 {
                    sums[(bucket - sl.bucket_lo) as usize] = Bls12381G1::generator().to_xyzz();
                }
            }
            let occupied = sums.iter().filter(|b| !b.is_identity()).count();
            let walk = pick_walk(&sums, sl.bucket_lo);
            if sl.len() >= 48 && occupied > 0 {
                assert_eq!(walk, Walk::Dense, "s = {s}, {occupied} occupied in {sl:?}");
            }
            occupied_total += occupied;
            if walk == Walk::Dense {
                occupied_dense += occupied;
            }
        }
        assert!(
            occupied_dense * 10 >= occupied_total * 9,
            "s = {s}: {occupied_dense} of {occupied_total} occupied buckets walked densely"
        );
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
