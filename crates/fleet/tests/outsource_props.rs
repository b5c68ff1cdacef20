//! Property-based tests of the 2G2T twin-base outsourcing check, across
//! all four paper curves plus G2: every honest pod result is accepted,
//! every corruption class — bit flip, swapped shard, zeroed partial and
//! the adaptive shift that reads its multiplier off the query — is
//! rejected, on shards down to one point and on every sub-range of one
//! key; and the fleet detects and quarantines an adaptive pod end to end.

use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
use distmsm_ec::{straus, Curve, FieldElement, MsmInstance, XyzzPoint};
use distmsm_fleet::soak::{
    build_fleet_chaos, build_fleet_jobs, check_fleet_invariants, fleet_config,
};
use distmsm_fleet::{
    Corruption, FleetCoordinator, FleetRecord, FleetSoakSpec, OutsourcedResult, TwinKey,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// An honest pod's answer for `instance` at `[lo, lo + n)` of the key's
/// base set: the double-and-add reference MSM of the instance and of its
/// twin query.
fn honest_pair<C: Curve>(
    key: &TwinKey<C>,
    lo: usize,
    instance: &MsmInstance<C>,
) -> OutsourcedResult<C> {
    let twin = key
        .twin_query(lo, instance)
        .expect("the instance is on the key's bases");
    OutsourcedResult {
        r1: instance.reference_result(),
        r2: twin.reference_result(),
    }
}

/// `n` generator multiples from `lo + 1` on, the points at `[lo, lo + n)`
/// of a twin key, with random scalars.
fn shard<C: Curve>(lo: usize, n: usize, rng: &mut StdRng) -> MsmInstance<C> {
    let points = MsmInstance::<C>::random(lo + n, rng).points.split_off(lo);
    MsmInstance {
        points,
        scalars: (0..n).map(|_| C::random_scalar(rng)).collect(),
    }
}

/// The adaptive pod's estimate of the twin's secret multiplier: the most
/// common ratio `yᵢ / xᵢ` of the twin query's scalars to the real ones.
/// Against the decoy challenge this was the blinding factor; on twin
/// bases the two queries carry the same scalars, so it is 1.
fn estimate_lambda<C: Curve>(x: &[C::Scalar], y: &[C::Scalar]) -> C::ScalarField {
    let ratios: Vec<C::ScalarField> = x
        .iter()
        .zip(y)
        .filter_map(|(x, y)| {
            C::scalar_to_field(x)
                .inverse()
                .map(|inv| C::scalar_to_field(y) * inv)
        })
        .collect();
    let count = |r: &C::ScalarField| ratios.iter().filter(|s| *s == r).count();
    ratios
        .iter()
        .copied()
        .max_by_key(count)
        .unwrap_or_else(C::ScalarField::one)
}

/// `(S1 + D, S2 + λ·D)`.
fn shifted<C: Curve>(
    pair: &OutsourcedResult<C>,
    d: &XyzzPoint<C>,
    lambda: &C::ScalarField,
) -> OutsourcedResult<C> {
    OutsourcedResult {
        r1: pair.r1.padd(d),
        r2: pair.r2.padd(&d.scalar_mul(&C::field_to_scalar(lambda))),
    }
}

/// Accept every honest result; reject every corruption class, with the
/// swapped pair a valid answer for another job on the same key.
fn check_curve<C: Curve>(seed: u64, n: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let key = TwinKey::<C>::generate(seed ^ 0x2624, n);
    let instance = shard::<C>(0, n, &mut rng);
    let honest = honest_pair(&key, 0, &instance);
    assert!(
        key.verify(0, &instance, &honest),
        "honest pod result rejected (seed={seed}, n={n})"
    );

    let other = shard::<C>(0, n, &mut rng);
    let swap = honest_pair(&key, 0, &other);
    assert!(
        key.verify(0, &other, &swap),
        "swap source must be valid for its own job"
    );

    for class in Corruption::ALL {
        let corrupted = honest.corrupted(class, &swap);
        assert!(
            !key.verify(0, &instance, &corrupted),
            "{} corruption went undetected (seed={seed}, n={n})",
            class.label()
        );
    }
}

/// The adaptive shift on `n`-point jobs: the pod reads `λ` off its query
/// and returns `(S1 + D, S2 + λ·D)` for a random `D`, as
/// [`Corruption::AdaptiveShift`] does with `D = G`; no `λ` it could
/// guess, read or draw at random passes.
fn adaptive_shift_is_rejected<C: Curve>(sizes: &[usize]) {
    let mut accepted = Vec::new();
    for &n in sizes {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ ((n as u64) << 8));
            let key = TwinKey::<C>::generate(seed ^ 0xada9, n);
            let instance = shard::<C>(0, n, &mut rng);
            let twin = key.twin_query(0, &instance).expect("on the key's bases");
            let honest = honest_pair(&key, 0, &instance);
            let lambda = estimate_lambda::<C>(&instance.scalars, &twin.scalars);
            assert_eq!(
                lambda,
                C::ScalarField::one(),
                "the twin query's scalars are the job's"
            );

            let g = C::generator().to_xyzz();
            let class = honest.corrupted(Corruption::AdaptiveShift, &honest);
            let by_hand = shifted(&honest, &g, &lambda);
            assert!(class.r1 == by_hand.r1 && class.r2 == by_hand.r2);

            let d = C::generator().scalar_mul(&C::random_scalar(&mut rng));
            let candidates = [
                lambda,
                C::ScalarField::random(&mut rng),
                C::ScalarField::zero(),
            ];
            let forgeries = std::iter::once(class)
                .chain(candidates.iter().map(|lambda| shifted(&honest, &d, lambda)));
            for (i, forged) in forgeries.enumerate() {
                if key.verify(0, &instance, &forged) {
                    accepted.push(format!("{} n={n} seed={seed} forgery {i}", C::NAME));
                }
            }
            assert!(key.verify(0, &instance, &honest));
        }
    }
    assert!(accepted.is_empty(), "adaptive shift accepted: {accepted:?}");
}

#[test]
fn adaptive_shift_is_rejected_on_bn254() {
    adaptive_shift_is_rejected::<Bn254G1>(&[9, 16, 64]);
}

#[test]
fn adaptive_shift_is_rejected_on_bls12377() {
    adaptive_shift_is_rejected::<Bls12377G1>(&[9, 16, 64]);
}

#[test]
fn adaptive_shift_is_rejected_on_bls12381() {
    adaptive_shift_is_rejected::<Bls12381G1>(&[9, 16, 64]);
}

#[test]
fn adaptive_shift_is_rejected_on_mnt4753() {
    adaptive_shift_is_rejected::<Mnt4753G1>(&[9, 16]);
}

#[test]
fn adaptive_shift_is_rejected_on_bn254_g2() {
    adaptive_shift_is_rejected::<Bn254G2>(&[9, 16, 64]);
}

/// One key over 24 bases. Honest pairs over every `[lo, hi)` sub-range
/// (every prefix among them) are accepted; shards of 1–4 points at every
/// position, and the whole 24, reject every corruption class, the swap
/// source being another job's valid pair over the same range. Counts
/// false accepts and false rejects, and both must be zero. On every
/// sub-range the key's table-based twin MSM is `straus` over its twin
/// query, and a key grown to 24 in uneven steps gives it bit for bit.
fn tiny_shards_and_sub_ranges<C: Curve>(seed: u64) {
    const N: usize = 24;
    let mut rng = StdRng::seed_from_u64(seed);
    let key = TwinKey::<C>::generate(seed ^ 0x5b5b, N).with_tables();
    let mut grown = TwinKey::<C>::generate(seed ^ 0x5b5b, 0).with_tables();
    for n in [5, 9, N] {
        grown.extend_to(n);
    }
    let job = shard::<C>(0, N, &mut rng);
    let other = shard::<C>(0, N, &mut rng);
    // xᵢ·Pᵢ and xᵢ·Tᵢ by double-and-add, once per index: a sub-range's
    // honest pair is their sum over the range
    let terms = |inst: &MsmInstance<C>| -> Vec<OutsourcedResult<C>> {
        let twin = key.twin_query(0, inst).expect("on the key's bases");
        (0..N)
            .map(|i| OutsourcedResult {
                r1: inst.points[i].scalar_mul(&inst.scalars[i]),
                r2: twin.points[i].scalar_mul(&inst.scalars[i]),
            })
            .collect()
    };
    let (job_terms, other_terms) = (terms(&job), terms(&other));
    let sum = |terms: &[OutsourcedResult<C>]| OutsourcedResult {
        r1: terms.iter().map(|t| t.r1).sum(),
        r2: terms.iter().map(|t| t.r2).sum(),
    };
    let range = |inst: &MsmInstance<C>, lo: usize, hi: usize| MsmInstance {
        points: inst.points[lo..hi].to_vec(),
        scalars: inst.scalars[lo..hi].to_vec(),
    };

    let (mut false_rejects, mut false_accepts, mut honest_checked) = (0, 0, 0);
    for lo in 0..N {
        for hi in lo + 1..=N {
            let sub = range(&job, lo, hi);
            let twin = key.twin_query(lo, &sub).expect("on the key's bases");
            let terms: Vec<_> = twin
                .points
                .iter()
                .zip(&twin.scalars)
                .map(|(t, x)| (t.to_xyzz(), *x))
                .collect();
            let s2 = key.twin_msm(lo, &sub).expect("the key holds tables");
            let from_grown = grown.twin_msm(lo, &sub).expect("the key holds tables");
            assert_eq!(s2, straus(&terms), "{} [{lo}, {hi})", C::NAME);
            assert_eq!(
                (s2.x, s2.y, s2.zz, s2.zzz),
                (from_grown.x, from_grown.y, from_grown.zz, from_grown.zzz),
                "{} [{lo}, {hi}): grown key",
                C::NAME
            );
            let honest = sum(&job_terms[lo..hi]);
            honest_checked += 1;
            false_rejects += usize::from(!key.verify(lo, &sub, &honest));
            if hi - lo > 4 && hi - lo < N {
                continue;
            }
            let swap = sum(&other_terms[lo..hi]);
            for class in Corruption::ALL {
                false_accepts += usize::from(key.verify(lo, &sub, &honest.corrupted(class, &swap)));
            }
        }
    }
    assert_eq!(honest_checked, N * (N + 1) / 2);
    assert_eq!(
        (false_accepts, false_rejects),
        (0, 0),
        "{}: false accepts, false rejects",
        C::NAME
    );
}

#[test]
fn tiny_shards_and_sub_ranges_on_bn254() {
    tiny_shards_and_sub_ranges::<Bn254G1>(2910);
}

#[test]
fn tiny_shards_and_sub_ranges_on_bls12377() {
    tiny_shards_and_sub_ranges::<Bls12377G1>(2911);
}

#[test]
fn tiny_shards_and_sub_ranges_on_bls12381() {
    tiny_shards_and_sub_ranges::<Bls12381G1>(2912);
}

#[test]
fn tiny_shards_and_sub_ranges_on_mnt4753() {
    tiny_shards_and_sub_ranges::<Mnt4753G1>(2913);
}

#[test]
fn tiny_shards_and_sub_ranges_on_bn254_g2() {
    tiny_shards_and_sub_ranges::<Bn254G2>(2914);
}

/// Points the key does not cover are never accepted: another base set,
/// the right bases at the wrong offset, and a range past the key's end;
/// none of them has a stand-in twin.
#[test]
fn points_off_the_key_are_never_accepted() {
    let mut rng = StdRng::seed_from_u64(77);
    let key = TwinKey::<Bn254G1>::generate(77, 8);
    let job = shard::<Bn254G1>(0, 8, &mut rng);
    let honest = honest_pair(&key, 0, &job);
    assert!(key.verify(0, &job, &honest));
    let doubled = MsmInstance {
        points: job
            .points
            .iter()
            .map(|p| p.to_xyzz().pdbl().to_affine())
            .collect(),
        scalars: job.scalars.clone(),
    };
    assert!(key.twin_query(0, &doubled).is_none());
    assert!(!key.verify(0, &doubled, &honest));
    assert!(!key.verify(1, &job, &honest));
    assert!(key.twin_query(1, &job).is_none());
    let past_the_end = shard::<Bn254G1>(4, 8, &mut rng);
    assert!(key.twin_query(4, &past_the_end).is_none());
    assert!(!key.verify(4, &past_the_end, &honest));
    // the stand-in twin: none off the key, and none from a key without
    // tables
    let tabled = key.clone().with_tables();
    assert!(key.twin_msm(0, &job).is_none());
    assert!(tabled.twin_msm(0, &job) == Some(honest.r2));
    for (lo, inst) in [(0, &doubled), (1, &job), (4, &past_the_end)] {
        assert!(tabled.twin_msm(lo, inst).is_none());
    }
}

/// A short fleet run whose byzantine pod is set to the adaptive shift by
/// its chaos schedule: the pod is detected under that class and
/// quarantined, and every fleet invariant holds.
#[test]
fn an_adaptive_pod_is_detected_and_quarantined_by_the_fleet() {
    let spec = FleetSoakSpec {
        arrival_seed: 5,
        fault_seed: 9,
        n_jobs: 24,
        n_tenants: 8,
        n_pods: 3,
        devices_per_pod: 2,
        n_fault_windows: 0,
        horizon_s: 30.0,
        msm_size: 16,
        byzantine_pod: Some(1),
        lost_pod: None,
        partition_seed: 41,
        n_partition_windows: 0,
    };
    let jobs = build_fleet_jobs(&spec);
    let config = fleet_config(&spec);
    let mut chaos = build_fleet_chaos(&spec);
    assert_eq!(chaos.byzantine.len(), 1);
    chaos.byzantine[0].class = Corruption::AdaptiveShift;
    let outcome = FleetCoordinator::new(config.clone()).run(jobs.clone(), &chaos);

    let detections: Vec<_> = outcome
        .events
        .iter()
        .filter_map(|e| match *e {
            FleetRecord::Detected {
                pod, corruption, ..
            } => Some((pod, corruption)),
            _ => None,
        })
        .collect();
    assert!(
        !detections.is_empty(),
        "the adaptive pod was never detected"
    );
    assert!(
        detections.iter().all(|&d| d == (1, "adaptive-shift")),
        "{detections:?}"
    );
    assert_eq!(outcome.report.quarantined_pods, vec![1]);
    let violations = check_fleet_invariants(&spec, &jobs, &outcome, &config);
    assert!(violations.is_empty(), "{violations:?}");
}

/// A job off the key's base set is refused before placement: the run
/// neither panics nor accepts it, and every other job is accepted.
#[test]
fn a_job_off_the_key_is_refused_and_the_rest_are_served() {
    let spec = FleetSoakSpec {
        arrival_seed: 6,
        fault_seed: 9,
        n_jobs: 6,
        n_tenants: 2,
        n_pods: 2,
        devices_per_pod: 2,
        n_fault_windows: 0,
        horizon_s: 10.0,
        msm_size: 8,
        byzantine_pod: None,
        lost_pod: None,
        partition_seed: 41,
        n_partition_windows: 0,
    };
    let mut jobs = build_fleet_jobs(&spec);
    let foreign = &mut jobs[2].instance;
    foreign.points = foreign
        .points
        .iter()
        .map(|p| p.to_xyzz().pdbl().to_affine())
        .collect();
    let chaos = build_fleet_chaos(&spec);
    let outcome = FleetCoordinator::new(fleet_config(&spec)).run(jobs.clone(), &chaos);
    let accepted: Vec<u64> = outcome.accepted.iter().map(|a| a.id).collect();
    assert!(!accepted.contains(&2));
    let placed = |id| {
        outcome
            .events
            .iter()
            .any(|e| matches!(*e, FleetRecord::Placed { id: i, .. } if i == id))
    };
    assert!(!placed(2), "the foreign job was placed");
    for id in [0, 1, 3, 4, 5] {
        assert!(accepted.contains(&id) && placed(id), "job {id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn bn254_honest_accepted_corruptions_detected(seed in 0u64..1_000_000, n in 1usize..24) {
        check_curve::<Bn254G1>(seed, n);
    }

    #[test]
    fn bls12377_honest_accepted_corruptions_detected(seed in 0u64..1_000_000, n in 1usize..24) {
        check_curve::<Bls12377G1>(seed, n);
    }

    #[test]
    fn bls12381_honest_accepted_corruptions_detected(seed in 0u64..1_000_000, n in 1usize..24) {
        check_curve::<Bls12381G1>(seed, n);
    }

    #[test]
    fn mnt4753_honest_accepted_corruptions_detected(seed in 0u64..1_000_000, n in 1usize..16) {
        check_curve::<Mnt4753G1>(seed, n);
    }

    #[test]
    fn g2_honest_accepted_corruptions_detected(seed in 0u64..1_000_000, n in 1usize..12) {
        check_curve::<Bn254G2>(seed, n);
    }

    #[test]
    fn the_key_is_deterministic(seed in 0u64..1_000_000, n in 1usize..24) {
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = shard::<Bn254G1>(0, n, &mut rng);
        let a = TwinKey::<Bn254G1>::generate(seed, n).twin_query(0, &instance);
        let b = TwinKey::<Bn254G1>::generate(seed, n).twin_query(0, &instance);
        prop_assert_eq!(a.map(|q| q.points), b.map(|q| q.points));
    }

    #[test]
    fn scaling_attack_is_rejected(seed in 0u64..1_000_000, n in 1usize..24, c in 2u64..64) {
        // (c·S1, c·S2) passes only if (c − 1)·⟨x, ρ⟩ = 0
        let mut rng = StdRng::seed_from_u64(seed);
        let key = TwinKey::<Bn254G1>::generate(seed ^ 0x5ca1e, n);
        let instance = shard::<Bn254G1>(0, n, &mut rng);
        let honest = honest_pair(&key, 0, &instance);
        let c = <Bn254G1 as Curve>::Scalar::from_u64(c);
        let scaled = OutsourcedResult { r1: honest.r1.scalar_mul(&c), r2: honest.r2.scalar_mul(&c) };
        prop_assert!(!key.verify(0, &instance, &scaled));
    }
}
