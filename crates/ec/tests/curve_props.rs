//! Property-based tests of the group laws in XYZZ coordinates.
//!
//! These exercise exactly the exceptional paths (identity, doubling,
//! inverse pairs) that a GPU PADD kernel must branch around.

use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
use distmsm_ec::{Affine, Curve, Scalar, XyzzPoint};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn arb_point<C: Curve>() -> impl Strategy<Value = XyzzPoint<C>> {
    (0u64..1000).prop_map(|k| {
        if k == 0 {
            XyzzPoint::identity()
        } else {
            C::generator().scalar_mul(&C::Scalar::from_u64(k))
        }
    })
}

fn group_laws<C: Curve>(a: XyzzPoint<C>, b: XyzzPoint<C>, c: XyzzPoint<C>) {
    // commutativity
    assert_eq!(a.padd(&b), b.padd(&a));
    // associativity
    assert_eq!(a.padd(&b).padd(&c), a.padd(&b.padd(&c)));
    // identity
    assert_eq!(a.padd(&XyzzPoint::identity()), a);
    // inverse
    assert!(a.padd(&a.neg()).is_identity());
    // doubling consistency: P + P = 2P through the exceptional path
    assert_eq!(a.padd(&a), a.pdbl());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn bn254_group_laws(a in arb_point::<Bn254G1>(), b in arb_point::<Bn254G1>(), c in arb_point::<Bn254G1>()) {
        group_laws(a, b, c);
    }

    #[test]
    fn bls12381_group_laws(a in arb_point::<Bls12381G1>(), b in arb_point::<Bls12381G1>(), c in arb_point::<Bls12381G1>()) {
        group_laws(a, b, c);
    }

    #[test]
    fn g2_group_laws(a in arb_point::<Bn254G2>(), b in arb_point::<Bn254G2>(), c in arb_point::<Bn254G2>()) {
        group_laws(a, b, c);
    }

    #[test]
    fn pacc_matches_padd(ka in 1u64..500, kb in 1u64..500) {
        let a = Bn254G1::generator().scalar_mul(&Scalar::from_u64(ka));
        let b_aff = Bn254G1::generator().scalar_mul(&Scalar::from_u64(kb)).to_affine();
        let mut via_pacc = a;
        via_pacc.pacc(&b_aff);
        let via_padd = a.padd(&b_aff.to_xyzz());
        prop_assert_eq!(via_pacc, via_padd);
    }

    #[test]
    fn pacc_doubling_exception(k in 1u64..500) {
        // accumulate P onto P (affine): must route through PDBL
        let p = Bn254G1::generator().scalar_mul(&Scalar::from_u64(k));
        let p_aff = p.to_affine();
        let mut acc = p_aff.to_xyzz();
        acc.pacc(&p_aff);
        prop_assert_eq!(acc, p.pdbl());
    }

    #[test]
    fn pacc_cancellation_exception(k in 1u64..500) {
        // accumulate -P onto P: must produce the identity
        let p = Bn254G1::generator().scalar_mul(&Scalar::from_u64(k));
        let mut acc = p;
        acc.pacc(&p.to_affine().neg());
        prop_assert!(acc.is_identity());
    }

    #[test]
    fn scalar_mul_distributes(k1 in 0u64..1000, k2 in 0u64..1000) {
        let g = Bn254G1::generator();
        let lhs = g.scalar_mul(&Scalar::from_u64(k1)).padd(&g.scalar_mul(&Scalar::from_u64(k2)));
        let rhs = g.scalar_mul(&Scalar::from_u64(k1 + k2));
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn to_affine_round_trip(k in 1u64..1000) {
        let p = Bls12377G1::generator().scalar_mul(&Scalar::from_u64(k));
        prop_assert_eq!(p.to_affine().to_xyzz(), p);
    }
}

#[test]
fn mnt4753_nonzero_a_doubling() {
    // MNT4-753 has a = 2; PDBL must include the a·ZZ² term.
    let g = Mnt4753G1::generator();
    let two_g = g.to_xyzz().pdbl();
    let also_two_g = g.scalar_mul(&Scalar::from_u64(2));
    assert_eq!(two_g, also_two_g);
    assert!(two_g.to_affine().is_on_curve());
}

#[test]
fn batch_to_affine_matches_individual() {
    let mut rng = StdRng::seed_from_u64(5);
    let mut pts = Vec::new();
    for i in 0..33u64 {
        if i % 7 == 3 {
            pts.push(XyzzPoint::<Bn254G1>::identity());
        } else {
            let k = Bn254G1::random_scalar(&mut rng);
            pts.push(Bn254G1::generator().scalar_mul(&k));
        }
    }
    let batch = XyzzPoint::batch_to_affine(&pts);
    for (p, a) in pts.iter().zip(&batch) {
        assert_eq!(p.to_affine(), *a);
    }
}

/// `to_affine` shares one inversion between `ZZ⁻¹` and `ZZZ⁻¹`; the
/// coordinates must be the bits the two separate inversions give.
fn to_affine_matches_two_inversions<C: Curve>() {
    use distmsm_ec::FieldElement;
    let mut rng = StdRng::seed_from_u64(11);
    let mut p = C::generator().scalar_mul(&C::random_scalar(&mut rng));
    for _ in 0..4 {
        let a = p.to_affine();
        assert!(a.x == p.x * p.zz.inverse().expect("nonzero ZZ"));
        assert!(a.y == p.y * p.zzz.inverse().expect("nonzero ZZZ"));
        assert!(a.is_on_curve());
        p = p.pdbl().padd(&C::generator().to_xyzz());
    }
    assert!(XyzzPoint::<C>::identity().to_affine().is_identity());
}

#[test]
fn to_affine_matches_two_inversions_on_every_curve() {
    to_affine_matches_two_inversions::<Bn254G1>();
    to_affine_matches_two_inversions::<Bn254G2>();
    to_affine_matches_two_inversions::<Bls12377G1>();
    to_affine_matches_two_inversions::<Bls12381G1>();
    to_affine_matches_two_inversions::<Mnt4753G1>();
}

#[test]
fn batch_to_affine_all_identity() {
    let pts = vec![XyzzPoint::<Bn254G1>::identity(); 5];
    let batch = XyzzPoint::batch_to_affine(&pts);
    assert!(batch.iter().all(Affine::is_identity));
}

#[test]
fn sum_iterator() {
    let g = Bn254G1::generator();
    let pts: Vec<XyzzPoint<Bn254G1>> = (1..=4u64)
        .map(|k| g.scalar_mul(&Scalar::from_u64(k)))
        .collect();
    let total: XyzzPoint<Bn254G1> = pts.into_iter().sum();
    assert_eq!(total, g.scalar_mul(&Scalar::from_u64(10)));
}

#[test]
fn scalar_mul_by_zero_and_one() {
    let g = Bn254G1::generator();
    assert!(g.scalar_mul(&Scalar::zero()).is_identity());
    assert_eq!(g.scalar_mul(&Scalar::from_u64(1)).to_affine(), g);
}

/// `padd`'s general formula, copied here unchanged: what `padd` must
/// return coordinate for coordinate when it takes the PACC shortcut for a
/// normalized right operand.
fn padd_general<C: Curve>(a: &XyzzPoint<C>, b: &XyzzPoint<C>) -> XyzzPoint<C> {
    use distmsm_ec::FieldElement;
    if a.is_identity() {
        return *b;
    }
    if b.is_identity() {
        return *a;
    }
    let u1 = a.x * b.zz;
    let u2 = b.x * a.zz;
    let s1 = a.y * b.zzz;
    let s2 = b.y * a.zzz;
    let p = u2 - u1;
    let r = s2 - s1;
    if p.is_zero() {
        if r.is_zero() {
            return a.pdbl();
        }
        return XyzzPoint::identity();
    }
    let pp = p.square();
    let ppp = pp * p;
    let q = u1 * pp;
    let mut v = r.square();
    v -= ppp;
    v -= q;
    let x3 = v - q;
    let t = q - x3;
    let y = r * t;
    let t2 = s1 * ppp;
    XyzzPoint {
        x: x3,
        y: y - t2,
        zz: a.zz * b.zz * pp,
        zzz: a.zzz * b.zzz * ppp,
    }
}

fn mixed_padd_is_bit_identical_to_the_general_formula<C: Curve>() {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(16);
    let mut point = || C::generator().scalar_mul(&C::Scalar::from_u64(rng.random()));
    let (p, q) = (point(), point());
    let normal = |x: &XyzzPoint<C>| x.to_affine().to_xyzz();
    assert!(!p.is_normalized() && normal(&p).is_normalized());
    let cases = [
        (XyzzPoint::identity(), normal(&q)),
        (p, normal(&q)),
        (normal(&p), normal(&q)),
        // P + P, from either representative of P
        (p, normal(&p)),
        (normal(&p), normal(&p)),
        // P + (−P)
        (p, normal(&p).neg()),
        (normal(&p).neg(), normal(&p)),
    ];
    for (a, b) in cases {
        assert_eq!(
            format!("{:?}", a.padd(&b)),
            format!("{:?}", padd_general(&a, &b)),
            "{}: {a:?} + {b:?}",
            C::NAME
        );
    }
    assert!(p.padd(&normal(&p).neg()).is_identity());
    assert_eq!(p.padd(&normal(&p)), p.pdbl());
}

#[test]
fn mixed_padd_is_bit_identical_to_the_general_formula_on_every_curve() {
    mixed_padd_is_bit_identical_to_the_general_formula::<Bn254G1>();
    mixed_padd_is_bit_identical_to_the_general_formula::<Bn254G2>();
    mixed_padd_is_bit_identical_to_the_general_formula::<Bls12377G1>();
    mixed_padd_is_bit_identical_to_the_general_formula::<Bls12381G1>();
    mixed_padd_is_bit_identical_to_the_general_formula::<Mnt4753G1>();
}
