//! The host bucket-sum executes batched-affine rounds with a PACC tail;
//! what it meters is the GPU's PACC kernel. These tests pin both halves:
//! on adversarial bucket lists the sums equal the serial PACC fold (the
//! reference below, which is all that is left of the old loop) on all
//! five curves and both entry points, and the `LaunchStats` are bit for
//! bit what the pre-batching formulas gave.

use distmsm::bucket_sum::{bucket_sum, bucket_sum_signed, bucket_sum_stats};
use distmsm::scatter::SIGN_BIT;
use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
use distmsm_ec::sample::generator_multiples;
use distmsm_ec::{Affine, Curve, XyzzPoint};
use distmsm_gpu_sim::{LaunchStats, ThreadCost};
use distmsm_kernel::{EcKernelModel, PaddOptimizations};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct generator multiples in the point set.
const MULTIPLES: u32 = 24;
/// Index of the identity in the point set.
const IDENTITY: u32 = 2 * MULTIPLES;

/// `[G, …, 24G]`, then their negations at `i + MULTIPLES`, then the
/// identity: every exceptional case of affine addition is one index away.
fn point_set<C: Curve>() -> Vec<Affine<C>> {
    let mut points = generator_multiples::<C>(MULTIPLES as usize);
    let negated: Vec<Affine<C>> = points.iter().map(Affine::neg).collect();
    points.extend(negated);
    points.push(Affine::identity());
    points
}

/// The serial per-bucket PACC chain the engine ran before batching.
fn serial_pacc_fold<C: Curve>(
    points: &[Affine<C>],
    buckets: &[Vec<u32>],
    signed: bool,
) -> Vec<XyzzPoint<C>> {
    buckets
        .iter()
        .map(|bucket| {
            let mut acc = XyzzPoint::<C>::identity();
            for &entry in bucket {
                if signed && entry & SIGN_BIT != 0 {
                    acc.pacc(&points[(entry & !SIGN_BIT) as usize].neg());
                } else {
                    acc.pacc(&points[entry as usize]);
                }
            }
            acc
        })
        .collect()
}

/// One bucket of `len` entries in the given style.
fn bucket(style: u32, len: usize, signed: bool, rng: &mut StdRng) -> Vec<u32> {
    let random = |rng: &mut StdRng| -> u32 {
        let i = rng.random_range(0..MULTIPLES);
        match (rng.random_range(0..8u32), signed) {
            (0, _) => IDENTITY,
            (1 | 2, true) => i | SIGN_BIT,
            (1 | 2, false) => i + MULTIPLES,
            _ => i,
        }
    };
    let negative = |i: u32| if signed { i | SIGN_BIT } else { i + MULTIPLES };
    match style % 4 {
        // one index throughout: a doubling at every level of the tree
        0 => vec![rng.random_range(0..MULTIPLES); len],
        // P, −P, P, −P, …: every first-round pair cancels, then more points
        1 => {
            let i = rng.random_range(0..MULTIPLES);
            let cancelling = len - len / 4;
            (0..len)
                .map(|k| match k {
                    k if k >= cancelling => random(rng),
                    k if k % 2 == 0 => i,
                    _ => negative(i),
                })
                .collect()
        }
        // identities in front of and between finite points
        2 => (0..len)
            .map(|k| if k % 3 == 0 { IDENTITY } else { random(rng) })
            .collect(),
        _ => (0..len).map(|_| random(rng)).collect(),
    }
}

/// Bucket-length lists around the kernel's two constants: a 1024-point
/// group (boundaries inside, at the end of, and one past a bucket) and a
/// 64-pair round (one bucket of 127–130 points is 63–65 pairs, and one of
/// 255–258 points halves to 127–129 points in its first round).
fn length_lists(rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut lists: Vec<Vec<usize>> = vec![
        vec![],
        vec![0, 0, 0],
        vec![1],
        vec![0, 1, 0, 2, 1],
        vec![127],
        vec![128],
        vec![129],
        vec![130],
        vec![255],
        vec![256],
        vec![257],
        vec![258],
        vec![1023],
        vec![1024],
        vec![1025],
        vec![1000, 24],
        vec![1000, 23, 1],
        vec![1000, 25, 7],
        vec![1023, 1, 1024, 1],
        vec![2049],
        vec![512, 512, 512, 1],
    ];
    // one huge bucket among many tiny ones, before and after it
    let mut skewed: Vec<usize> = (0..40).map(|_| rng.random_range(0..3)).collect();
    skewed.insert(rng.random_range(0..40), rng.random_range(1100..1400));
    lists.push(skewed);
    // many mid-sized buckets: several runs halve side by side
    lists.push((0..12).map(|_| rng.random_range(90..260)).collect());
    // sparse: full groups that never reach a round's worth of pairs
    lists.push((0..1100).map(|_| rng.random_range(0..2)).collect());
    lists
}

fn check_sums<C: Curve>(seed: u64, pick: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = point_set::<C>();
    let model = EcKernelModel::new(8, PaddOptimizations::all());
    let lists = length_lists(&mut rng);
    let lengths = &lists[pick % lists.len()];
    for signed in [false, true] {
        let buckets: Vec<Vec<u32>> = lengths
            .iter()
            .map(|&len| bucket(rng.random_range(0..4), len, signed, &mut rng))
            .collect();
        let got = if signed {
            bucket_sum_signed(&points, &buckets, 32, &model, 256)
        } else {
            bucket_sum(&points, &buckets, 32, &model, 256)
        };
        let want = serial_pacc_fold(&points, &buckets, signed);
        assert_eq!(got.sums.len(), want.len());
        for (b, (g, w)) in got.sums.iter().zip(&want).enumerate() {
            assert_eq!(
                g,
                w,
                "{} seed={seed} lengths={lengths:?} signed={signed} bucket {b}",
                C::NAME
            );
        }
    }
}

/// Every length list, once per curve, on a fixed seed.
fn check_every_list<C: Curve>() {
    let lists = length_lists(&mut StdRng::seed_from_u64(0)).len();
    for pick in 0..lists {
        check_sums::<C>(7, pick);
    }
}

#[test]
fn every_adversarial_shape_on_bn254() {
    check_every_list::<Bn254G1>();
}

#[test]
fn every_adversarial_shape_on_bn254_g2() {
    check_every_list::<Bn254G2>();
}

#[test]
fn every_adversarial_shape_on_bls12_377() {
    check_every_list::<Bls12377G1>();
}

#[test]
fn every_adversarial_shape_on_bls12_381() {
    check_every_list::<Bls12381G1>();
}

#[test]
fn every_adversarial_shape_on_mnt4_753() {
    // a ≠ 0: the batched doubling must carry the curve's `a`
    check_every_list::<Mnt4753G1>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn bn254_matches_serial_fold(seed in 0u64..100_000, pick in 0usize..64) {
        check_sums::<Bn254G1>(seed, pick);
    }

    #[test]
    fn bn254_g2_matches_serial_fold(seed in 0u64..100_000, pick in 0usize..64) {
        check_sums::<Bn254G2>(seed, pick);
    }

    #[test]
    fn bls12_377_matches_serial_fold(seed in 0u64..100_000, pick in 0usize..64) {
        check_sums::<Bls12377G1>(seed, pick);
    }

    #[test]
    fn bls12_381_matches_serial_fold(seed in 0u64..100_000, pick in 0usize..64) {
        check_sums::<Bls12381G1>(seed, pick);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn mnt4_753_matches_serial_fold(seed in 0u64..100_000, pick in 0usize..64) {
        check_sums::<Mnt4753G1>(seed, pick);
    }
}

// ---- the metered launch is the PACC kernel's, bit for bit ----------------

/// The launch statistics as `bucket_sum_stats` wrote them out before the
/// functional and analytic paths shared one helper, for `per_thread_paccs`
/// PACCs on the critical path.
fn frozen_stats(
    per_thread_paccs: f64,
    n_points: u64,
    n_buckets: u64,
    tpb: u32,
    model: &EcKernelModel,
    block_size: u32,
) -> LaunchStats {
    let threads = (n_buckets * u64::from(tpb)).max(1);
    let acc = model.acc_cost();
    let padd = model.padd_cost();
    let reduce_steps = f64::from(tpb).log2().ceil();

    let mut max_thread = acc.scale(per_thread_paccs);
    max_thread = max_thread.add(&padd.scale(reduce_steps));
    max_thread.global_bytes += per_thread_paccs * (2.0 * model.limbs32() as f64 * 4.0);
    max_thread.barriers += reduce_steps;

    let mut total = acc.scale(n_points as f64);
    total = total.add(&padd.scale((n_buckets * u64::from(tpb.saturating_sub(1))) as f64));
    total.global_bytes += n_points as f64 * (2.0 * model.limbs32() as f64 * 4.0);

    let mut stats = LaunchStats::new(model.profile("bucket-sum", block_size), threads);
    stats.max_thread = max_thread;
    stats.total = total;
    stats
}

fn cost_bits(c: &ThreadCost) -> [u64; 9] {
    [
        c.int_ops,
        c.tc_int8_ops,
        c.fp32_ops,
        c.global_atomics,
        c.shared_atomics,
        c.barriers,
        c.global_syncs,
        c.global_bytes,
        c.shared_bytes,
    ]
    .map(f64::to_bits)
}

fn assert_same_stats(got: &LaunchStats, want: &LaunchStats, what: &str) {
    assert_eq!(got.profile, want.profile, "{what}");
    assert_eq!(got.threads, want.threads, "{what}");
    assert_eq!(
        cost_bits(&got.max_thread),
        cost_bits(&want.max_thread),
        "{what}"
    );
    assert_eq!(cost_bits(&got.total), cost_bits(&want.total), "{what}");
    assert_eq!(
        got.distinct_atomic_addrs, want.distinct_atomic_addrs,
        "{what}"
    );
    assert_eq!(
        got.distinct_shared_addrs, want.distinct_shared_addrs,
        "{what}"
    );
}

#[test]
fn launch_stats_are_bit_identical_to_the_frozen_formulas() {
    let points = point_set::<Bn254G1>();
    let mut rng = StdRng::seed_from_u64(13);
    let mut shapes = 0;
    for (limbs32, opts) in [
        (8, PaddOptimizations::all()),
        (12, PaddOptimizations::none()),
        (24, PaddOptimizations::all()),
    ] {
        let model = EcKernelModel::new(limbs32, opts);
        for (tpb, block_size) in [(1u32, 128u32), (3, 256), (32, 256), (96, 512), (1024, 1024)] {
            for lengths in [
                vec![],
                vec![0usize, 0],
                vec![1],
                vec![7, 0, 300, 2],
                (0..rng.random_range(1..70usize))
                    .map(|_| rng.random_range(0..40usize))
                    .collect(),
            ] {
                let buckets: Vec<Vec<u32>> = lengths
                    .iter()
                    .map(|&len| bucket(3, len, false, &mut rng))
                    .collect();
                let n = lengths.iter().sum::<usize>() as u64;
                let n_buckets = lengths.len() as u64;
                let max_bucket = lengths.iter().copied().max().unwrap_or(0) as u64;
                let what = format!("limbs32={limbs32} tpb={tpb} lengths={lengths:?}");
                // functional: the largest real bucket sets the critical path
                let want = frozen_stats(
                    max_bucket.div_ceil(u64::from(tpb)) as f64,
                    n,
                    n_buckets,
                    tpb,
                    &model,
                    block_size,
                );
                for signed in [false, true] {
                    let got = if signed {
                        bucket_sum_signed(&points, &buckets, tpb, &model, block_size)
                    } else {
                        bucket_sum(&points, &buckets, tpb, &model, block_size)
                    };
                    assert_same_stats(&got.stats, &want, &what);
                }
                // analytic: the expected bucket does
                let expected = if n_buckets == 0 {
                    0.0
                } else {
                    n as f64 / n_buckets as f64
                };
                let want = frozen_stats(
                    (expected / f64::from(tpb)).ceil().max(1.0),
                    n,
                    n_buckets,
                    tpb,
                    &model,
                    block_size,
                );
                let got = bucket_sum_stats(n, n_buckets, tpb, &model, block_size);
                assert_same_stats(&got, &want, &what);
                shapes += 1;
            }
        }
    }
    assert!(shapes >= 20, "only {shapes} shapes");
}
