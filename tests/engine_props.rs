//! Property tests of the full engine: for *any* small instance and any
//! legal configuration, the MSM value must equal the reference.

use distmsm::engine::{DistMsm, DistMsmConfig};
use distmsm::scatter::ScatterKind;
use distmsm_ec::curves::Bn254G1;
use distmsm_ec::MsmInstance;
use distmsm_gpu_sim::MultiGpuSystem;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_correct_under_arbitrary_config(
        seed in 0u64..10_000,
        n in 1usize..150,
        gpus in 1usize..9,
        s in 2u32..12,
        naive in any::<bool>(),
        cpu_reduce in any::<bool>(),
        signed in any::<bool>(),
        packed in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = MsmInstance::<Bn254G1>::random(n, &mut rng);
        let builder = DistMsmConfig::builder()
            .window_size(s)
            .bucket_reduce_on_cpu(cpu_reduce)
            .signed_digits(signed)
            .packed_coefficients(packed);
        let builder = if naive {
            builder.scatter(ScatterKind::Naive)
        } else {
            builder.auto_scatter()
        };
        let cfg = builder.build().expect("valid config");
        let engine = DistMsm::with_config(MultiGpuSystem::dgx_a100(gpus), cfg);
        let report = engine.execute(&inst).expect("small windows always fit");
        prop_assert_eq!(report.result, inst.reference_result());
        prop_assert!(report.total_s.is_finite() && report.total_s > 0.0);
    }
}

// ---- the per-engine plan memo is invisible to the simulated clock --------

use distmsm::analytic::{estimate_distmsm, CurveDesc};
use distmsm::CollectiveStrategy;
use distmsm_ec::curves::Bn254G2;

/// Asserts that what `engine` answers for `(n, curve)` — memo miss or
/// hit — is bit for bit what a fresh analytic estimate gives.
fn assert_engine_matches_fresh(engine: &DistMsm, n: usize, curve: &CurveDesc) {
    let fresh = estimate_distmsm(n as u64, curve, engine.system(), engine.config());
    let want_s = engine.config().window_size.unwrap_or(fresh.window_size);
    assert_eq!(
        engine.window_size_for(n, curve),
        want_s,
        "n={n} {}",
        curve.name
    );
    assert_eq!(
        engine.estimate_seconds(n, curve).to_bits(),
        fresh.total_s.to_bits(),
        "n={n} {}",
        curve.name
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memoised_plan_equals_fresh_estimate(
        log_n in 0u32..27,
        jitter in 0usize..1000,
        curve in 0usize..4,
        gpus in 0usize..6,
        signed in any::<bool>(),
        cpu_reduce in any::<bool>(),
        collective in 0usize..4,
        fixed_window in any::<bool>(),
    ) {
        let n = (1usize << log_n) + jitter;
        let curve = CurveDesc::ALL[curve];
        let builder = DistMsmConfig::builder()
            .signed_digits(signed)
            .bucket_reduce_on_cpu(cpu_reduce)
            .collective(CollectiveStrategy::ALL[collective]);
        let builder = if fixed_window { builder.window_size(9) } else { builder };
        let system = MultiGpuSystem::dgx_a100([1, 2, 4, 8, 12, 16][gpus]);
        let engine = DistMsm::with_config(system, builder.build().expect("valid config"));
        for _ in 0..3 {
            assert_engine_matches_fresh(&engine, n, &curve);
            assert_engine_matches_fresh(&engine, n + 1, &curve);
        }
        // a clone starts over and must agree all the same
        assert_engine_matches_fresh(&engine.clone(), n, &curve);
    }
}

#[test]
fn plan_memo_survives_eviction_and_alternating_curves() {
    // more shapes than any fixed capacity the memo may have, G1 and G2
    // interleaved on one engine, walked twice and then backwards
    let engine = DistMsm::new(MultiGpuSystem::dgx_a100(8));
    let curves = [CurveDesc::of::<Bn254G1>(), CurveDesc::of::<Bn254G2>()];
    let shapes: Vec<(usize, &CurveDesc)> =
        (0..200).map(|i| (1000 + 37 * i, &curves[i % 2])).collect();
    for (n, curve) in shapes.iter().chain(&shapes).chain(shapes.iter().rev()) {
        assert_engine_matches_fresh(&engine, *n, curve);
    }
    let msm = MsmInstance::<Bn254G1>::random(64, &mut StdRng::seed_from_u64(3));
    let window = engine.execute(&msm).expect("defaults execute").window_size;
    assert_eq!(window, engine.window_size_for(64, &curves[0]));
}

#[test]
fn plan_memo_shared_by_two_threads() {
    let engine = DistMsm::new(MultiGpuSystem::dgx_a100(4));
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|scope| {
        for t in 0..2usize {
            let (engine, barrier) = (&engine, &barrier);
            scope.spawn(move || {
                barrier.wait();
                // the same shapes from both ends, so hits and misses interleave
                for i in 0..100usize {
                    let i = if t == 0 { i } else { 99 - i };
                    assert_engine_matches_fresh(engine, 5000 + i, &CurveDesc::BLS12_381);
                }
            });
        }
    });
}

// ---- bucket sums do not depend on which worker summed what ---------------

use distmsm::bucket_sum::{bucket_sum, bucket_sum_signed};
use distmsm::engine::window_shape;
use distmsm::plan::plan_slices;
use distmsm::reduce::{bucket_reduce_serial, window_reduce};
use distmsm::scatter::{scatter_hierarchical, scatter_signed_digits};
use distmsm::signed::recode_signed;
use distmsm_ec::{Curve, XyzzPoint};
use distmsm_kernel::EcKernelModel;

/// `execute`'s host workers claim slices one at a time, each worker with
/// one bucket-sum scratch reused from slice to slice; how many workers
/// there are and which takes what is the host's business. This walk gives
/// every slice a scratch of its own through `core`'s public functions
/// and must land on the same XYZZ coordinates, not merely the same point.
fn walk_with_a_scratch_per_slice<C: Curve>(
    inst: &MsmInstance<C>,
    gpus: usize,
    s: u32,
    signed: bool,
) -> XyzzPoint<C> {
    let cfg = DistMsmConfig::default();
    let model = EcKernelModel::new(8, cfg.kernel_opts);
    let (n_windows, n_buckets) = window_shape(C::SCALAR_BITS, s, signed);
    let digits: Option<Vec<Vec<i32>>> = signed.then(|| {
        inst.scalars
            .iter()
            .map(|k| recode_signed(k, s, C::SCALAR_BITS))
            .collect()
    });
    let mut windows = vec![XyzzPoint::<C>::identity(); n_windows as usize];
    for sl in plan_slices(n_windows, n_buckets, gpus) {
        // tpb and the coefficient width only shape the metered statistics
        let sums = match &digits {
            Some(d) => {
                let scattered = scatter_signed_digits(
                    d,
                    &sl,
                    ScatterKind::Hierarchical,
                    1 << 16,
                    &cfg.scatter_cfg,
                    4.0,
                )
                .expect("small slices fit shared memory");
                bucket_sum_signed(&inst.points, &scattered.buckets, 32, &model, cfg.block_size)
            }
            None => {
                let scattered = scatter_hierarchical(&inst.scalars, s, &sl, &cfg.scatter_cfg, 4.0)
                    .expect("small slices fit shared memory");
                bucket_sum(&inst.points, &scattered.buckets, 32, &model, cfg.block_size)
            }
        };
        let (w, _) = bucket_reduce_serial(&sums.sums, sl.bucket_lo);
        windows[sl.window as usize] = windows[sl.window as usize].padd(&w);
    }
    window_reduce(&windows, s).0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Slices of 1–3 thousand points in a few dozen buckets: every slice
    /// fills the scratch and runs batched rounds.
    #[test]
    fn execute_coordinates_do_not_depend_on_which_worker_ran_a_slice(
        seed in 0u64..10_000,
        n in 1100usize..3000,
        gpus in 1usize..9,
        s in 3u32..7,
        signed in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = MsmInstance::<Bn254G1>::random(n, &mut rng);
        let cfg = DistMsmConfig::builder()
            .window_size(s)
            .signed_digits(signed)
            .build()
            .expect("valid config");
        let engine = DistMsm::with_config(MultiGpuSystem::dgx_a100(gpus), cfg);
        let got = engine.execute(&inst).expect("small windows always fit").result;
        let want = walk_with_a_scratch_per_slice(&inst, gpus, s, signed);
        prop_assert_eq!(
            (got.x, got.y, got.zz, got.zzz),
            (want.x, want.y, want.zz, want.zzz),
            "n={} gpus={} s={} signed={}", n, gpus, s, signed
        );
        // and twice in a row: nothing carries over between calls
        let again = engine.execute(&inst).expect("second run").result;
        prop_assert_eq!((again.x, again.y, again.zz, again.zzz), (got.x, got.y, got.zz, got.zzz));
    }
}

// ---- the report's window partials are the paper's §3.1 window sums -------

use distmsm_ec::{Affine, Scalar};
use distmsm_gpu_sim::FaultPlan;

/// `W = Σᵢ dᵢ·Pᵢ` for one window's digits by plain bucket accumulation and
/// a suffix running sum over every bucket: no slices, no batched-affine
/// sum, no empty-run skip, no workers.
fn naive_window_partial<C: Curve>(
    points: &[Affine<C>],
    digit: impl Fn(usize) -> i32,
    n_buckets: u32,
) -> XyzzPoint<C> {
    let mut buckets = vec![XyzzPoint::<C>::identity(); n_buckets as usize];
    for (i, p) in points.iter().enumerate() {
        match digit(i) {
            0 => {}
            d if d > 0 => buckets[d as usize].pacc(p),
            d => buckets[d.unsigned_abs() as usize].pacc(&p.neg()),
        }
    }
    let mut running = XyzzPoint::identity();
    let mut partial = XyzzPoint::identity();
    for b in buckets.iter().skip(1).rev() {
        running = running.padd(b);
        partial = partial.padd(&running);
    }
    partial
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whichever path filled it — CPU fold, collective merge, supervised
    /// recovery, survivors-only gather — `window_partials` is the vector
    /// `result` was folded from, window for window.
    #[test]
    fn window_partials_are_the_naive_window_sums(
        seed in 0u64..10_000,
        n in 1usize..150,
        gpus in 1usize..9,
        s in 2u32..12,
        signed in any::<bool>(),
        cpu_reduce in any::<bool>(),
        collective in 0usize..4,
        fail_stop_at in 0u64..6,
    ) {
        let inst = MsmInstance::<Bn254G1>::random(n, &mut StdRng::seed_from_u64(seed));
        // half the cases fail-stop the last device of at least two, so a
        // survivor remains
        let plan = if fail_stop_at < 3 && gpus > 1 {
            FaultPlan::fail_stop(gpus - 1, fail_stop_at)
        } else {
            FaultPlan::none()
        };
        let cfg = DistMsmConfig::builder()
            .window_size(s)
            .signed_digits(signed)
            .bucket_reduce_on_cpu(cpu_reduce)
            .collective(CollectiveStrategy::ALL[collective])
            .fault_plan(plan)
            .build()
            .expect("valid config");
        let engine = DistMsm::with_config(MultiGpuSystem::dgx_a100(gpus), cfg);
        let report = engine.execute(&inst).expect("small windows fit, a survivor remains");

        let (n_windows, n_buckets) = window_shape(254, s, signed);
        prop_assert_eq!(report.n_windows, n_windows);
        prop_assert_eq!(report.window_partials.len(), n_windows as usize);
        prop_assert_eq!(window_reduce(&report.window_partials, s).0, report.result);
        prop_assert_eq!(report.result, inst.reference_result());
        let recoded: Vec<Vec<i32>> =
            inst.scalars.iter().map(|k| recode_signed(k, s, 254)).collect();
        let digit = |i: usize, w: usize| {
            if signed {
                recoded[i][w]
            } else {
                inst.scalars[i].window(w as u32 * s, s) as i32
            }
        };
        for (w, got) in report.window_partials.iter().enumerate() {
            let want = naive_window_partial(&inst.points, |i| digit(i, w), n_buckets);
            prop_assert_eq!(*got, want, "window {}", w);
        }
    }
}
