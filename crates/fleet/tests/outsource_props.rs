//! Property-based tests of the 2G2T blinded-twin outsourcing check,
//! across all four paper curves (plus G2): every honest pod result is
//! accepted, every seeded corruption class — bit flip, swapped shard,
//! zeroed partial — is detected, and every verdict is the one the
//! double-and-add predicate gives.

use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
use distmsm_ec::{Affine, Curve, MsmInstance, XyzzPoint};
use distmsm_fleet::{Challenge, Corruption, OutsourcedResult};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// An honest pod's answer: the reference MSM of the instance and of its
/// blinded twin.
fn honest_pair<C: Curve>(
    instance: &MsmInstance<C>,
    challenge: &Challenge<C>,
) -> OutsourcedResult<C> {
    OutsourcedResult {
        r1: instance.reference_result(),
        r2: challenge.twin_instance(instance).reference_result(),
    }
}

/// Accept every honest result; detect every corruption class.
fn check_curve<C: Curve>(seed: u64, n: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let instance = MsmInstance::<C>::random(n, &mut rng);
    let challenge = Challenge::<C>::generate(seed ^ 0x2624, n);
    let honest = honest_pair(&instance, &challenge);
    assert!(
        challenge.verify(&instance.points, &honest.r1, &honest.r2),
        "honest pod result rejected (seed={seed}, n={n})"
    );

    // The swapped-shard source is a *valid* pair for a different job:
    // it satisfies its own challenge, but must not satisfy this one.
    let other = MsmInstance::<C>::random(n, &mut StdRng::seed_from_u64(seed ^ 0xdead));
    let other_challenge = Challenge::<C>::generate(seed ^ 0xbeef, n);
    let swap = honest_pair(&other, &other_challenge);
    assert!(
        other_challenge.verify(&other.points, &swap.r1, &swap.r2),
        "swap source must be valid under its own challenge"
    );

    for class in Corruption::ALL {
        let corrupted = honest.corrupted(class, &swap);
        assert!(
            !challenge.verify(&instance.points, &corrupted.r1, &corrupted.r2),
            "{} corruption went undetected (seed={seed}, n={n})",
            class.label()
        );
    }
}

/// The right-hand side before the check ran on `straus`: `α·R1` and each
/// `βⱼ·Pⱼ` by double-and-add.
fn double_and_add_rhs<C: Curve>(
    challenge: &Challenge<C>,
    points: &[Affine<C>],
    r1: &XyzzPoint<C>,
) -> XyzzPoint<C> {
    let mut rhs = r1.scalar_mul(&C::field_to_scalar(&challenge.alpha));
    for (p, beta) in &challenge.decoys {
        rhs = rhs.padd(&points[*p].scalar_mul(&C::field_to_scalar(beta)));
    }
    rhs
}

/// `Challenge::verify` gives the double-and-add predicate's verdict on
/// honest, corrupted, random and degenerate pairs of `n`-point shards.
fn verdicts_match_double_and_add<C: Curve>(seed: u64, sizes: &[usize]) {
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
        let instance = MsmInstance::<C>::random(n, &mut rng);
        let challenge = Challenge::<C>::generate(seed ^ 0x2929 ^ n as u64, n);
        let honest = honest_pair(&instance, &challenge);
        let other = MsmInstance::<C>::random(n, &mut rng);
        let swap = honest_pair(&other, &Challenge::<C>::generate(seed ^ 0xbeef, n));

        let rhs = |r1: &XyzzPoint<C>| double_and_add_rhs(&challenge, &instance.points, r1);
        let mut random = || C::generator().scalar_mul(&C::random_scalar(&mut rng));
        let (a, b) = (random(), random());
        let id = XyzzPoint::identity();
        // (R1, R2, the double-and-add right-hand side for R1)
        let [rhs_a, rhs_id] = [a, id].map(|r1| rhs(&r1));
        let mut cases = vec![
            (honest.r1, honest.r2, rhs(&honest.r1)),
            (a, rhs_a, rhs_a),
            (a, b, rhs_a),
            (a, id, rhs_a),
            (a, a, rhs_a),
            (a, a.neg(), rhs_a),
            (id, rhs_id, rhs_id),
            (id, id, rhs_id),
            (id, a, rhs_id),
        ];
        cases.extend(Corruption::ALL.map(|class| {
            let bad = honest.corrupted(class, &swap);
            (bad.r1, bad.r2, rhs(&bad.r1))
        }));
        for (i, (r1, r2, rhs)) in cases.iter().enumerate() {
            assert_eq!(
                challenge.verify(&instance.points, r1, r2),
                rhs == r2,
                "case {i} on {} with {n} points",
                C::NAME
            );
        }
        assert!(challenge.verify(&instance.points, &honest.r1, &honest.r2));
    }
}

/// Shards with fewer points than `N_DECOYS` on every curve, and 24-point
/// ones on the three 4-limb G1 curves (the debug build's budget).
#[test]
fn verdicts_match_double_and_add_on_every_curve() {
    let all = [1, 2, 3, 4, 24];
    verdicts_match_double_and_add::<Bn254G1>(2910, &all);
    verdicts_match_double_and_add::<Bls12377G1>(2911, &all);
    verdicts_match_double_and_add::<Bls12381G1>(2912, &all);
    verdicts_match_double_and_add::<Mnt4753G1>(2913, &[1, 4]);
    verdicts_match_double_and_add::<Bn254G2>(2914, &[1, 2, 3, 4]);
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
    fn blinding_is_deterministic(seed in 0u64..1_000_000, n in 1usize..24) {
        let a = Challenge::<Bn254G1>::generate(seed, n);
        let b = Challenge::<Bn254G1>::generate(seed, n);
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = MsmInstance::<Bn254G1>::random(n, &mut rng);
        prop_assert_eq!(a.blind(&instance.scalars), b.blind(&instance.scalars));
    }

    #[test]
    fn scaling_attack_is_defeated_by_decoys(seed in 0u64..1_000_000, n in 1usize..24, c in 2u64..64) {
        // (c·R1, c·R2) passes `R2 = α·R1` but not `R2 = α·R1 + V` with
        // a nonzero secret decoy point V — the hole decoys close.
        let mut rng = StdRng::seed_from_u64(seed);
        let instance = MsmInstance::<Bn254G1>::random(n, &mut rng);
        let challenge = Challenge::<Bn254G1>::generate(seed ^ 0x5ca1e, n);
        let honest = honest_pair(&instance, &challenge);
        let k = <Bn254G1 as Curve>::Scalar::from_u64(c);
        let scaled_r1 = honest.r1.scalar_mul(&k);
        let scaled_r2 = honest.r2.scalar_mul(&k);
        prop_assert!(!challenge.verify(&instance.points, &scaled_r1, &scaled_r2));
    }
}
