//! Property-based tests of the group laws in XYZZ coordinates.
//!
//! These exercise exactly the exceptional paths (identity, doubling,
//! inverse pairs) that a GPU PADD kernel must branch around, and hold the
//! multi-scalar kernel `straus`, and its table at every width, to the
//! double-and-add oracle.

use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
use distmsm_ec::sample::generator_multiples;
use distmsm_ec::validate::order_minus_one;
use distmsm_ec::{
    straus, Affine, Curve, FieldElement, MsmInstance, Scalar, StrausTable, XyzzPoint,
};
use distmsm_ff::Uint;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

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

/// `p` in the XYZZ representative with `ZZ = λ²`, `ZZZ = λ³`: bases
/// reach the kernel unnormalised, as engine results do.
fn rescaled<C: Curve>(p: &Affine<C>, lambda: C::Base) -> XyzzPoint<C> {
    if p.is_identity() {
        return XyzzPoint::identity();
    }
    let zz = lambda.square();
    let zzz = zz * lambda;
    XyzzPoint {
        x: p.x * zz,
        y: p.y * zzz,
        zz,
        zzz,
    }
}

/// `straus` against the per-term double-and-add oracle.
fn check<C: Curve>(points: &[Affine<C>], scalars: &[C::Scalar], rng: &mut StdRng) {
    let terms: Vec<_> = points
        .iter()
        .zip(scalars)
        .map(|(p, k)| (rescaled(p, C::Base::random(rng)), *k))
        .collect();
    let oracle = MsmInstance {
        points: points.to_vec(),
        scalars: scalars.to_vec(),
    };
    assert_eq!(
        straus(&terms),
        oracle.reference_result(),
        "{} terms on {}: {scalars:?}",
        terms.len(),
        C::NAME
    );
}

/// 0 to 40 terms, with full-width scalars and with 64-bit ones (the
/// 2G2T and the RLC shapes).
fn random_combinations<C: Curve>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for n in [0, 1, 2, 5, 13, 40] {
        let instance = MsmInstance::<C>::random(n, &mut rng);
        check(&instance.points, &instance.scalars, &mut rng);
        let short: Vec<_> = (0..n).map(|_| C::Scalar::from_u64(rng.random())).collect();
        check(&instance.points, &short, &mut rng);
    }
}

#[test]
fn random_combinations_match_the_reference_on_every_curve() {
    random_combinations::<Bn254G1>(2901);
    random_combinations::<Bn254G2>(2902);
    random_combinations::<Bls12377G1>(2903);
    random_combinations::<Bls12381G1>(2904);
    random_combinations::<Mnt4753G1>(2905);
}

fn edge_cases<C: Curve<Scalar = Uint<N>>, const N: usize>() {
    let mut rng = StdRng::seed_from_u64(2906);
    let id = Affine::<C>::identity();
    let g = C::generator();
    let p = generator_multiples::<C>(3)[2];
    let k = C::random_scalar(&mut rng);
    let r_minus_1 = order_minus_one::<C>();
    let cases: [(&[Affine<C>], &[Uint<N>]); 9] = [
        // no terms
        (&[], &[]),
        // identity bases
        (&[id, g, id], &[k, k, Uint::ONE]),
        // zero scalars, alone and beside a live term
        (&[g, p], &[Uint::ZERO, Uint::ZERO]),
        (&[g, p], &[Uint::ZERO, k]),
        // the scalars 1, r − 1 and the widest limb pattern
        (&[g, p, g], &[Uint::ONE, r_minus_1, Uint::MAX]),
        // a repeated base
        (&[p, p, p], &[k, r_minus_1, Uint::ONE]),
        // a base next to its negation, cancelling and not
        (&[p, p.neg()], &[k, k]),
        (&[p, p.neg(), g], &[k, Uint::ONE, r_minus_1]),
        // the 2G2T shape with R1 = identity: α·∞ + Σ βⱼ·Pⱼ
        (&[id, g, p], &[k, r_minus_1, k]),
    ];
    for (points, scalars) in cases {
        check(points, scalars, &mut rng);
    }
    assert!(straus::<C>(&[]).is_identity());
    assert!(straus(&[(p.to_xyzz(), k), (p.neg().to_xyzz(), k)]).is_identity());
    assert_eq!(straus(&[(g.to_xyzz(), r_minus_1)]), g.neg().to_xyzz());
}

#[test]
fn edge_cases_match_the_reference_on_every_curve() {
    edge_cases::<Bn254G1, 4>();
    edge_cases::<Bn254G2, 4>();
    edge_cases::<Bls12377G1, 4>();
    edge_cases::<Bls12381G1, 4>();
    edge_cases::<Mnt4753G1, 12>();
}

/// The scalars where wNAF recoding turns: 0, 1, `2^k − 1`, `2^k` and
/// `2^k + 1` at and around every window width and limb edge and at the
/// group order's top bit, `r − 1`, and the all-ones scalar, whose top
/// digit carries one position past its top bit.
fn recoding_edges<const N: usize>(r_minus_1: Uint<N>) -> Vec<Uint<N>> {
    let top = r_minus_1.num_bits();
    let mut ks: Vec<u32> = (1..=9)
        .chain([63, 64, 65, 127, 128, top - 1, top, 64 * N as u32 - 1])
        .collect();
    ks.retain(|&k| k < 64 * N as u32);
    let mut edges = vec![Uint::ZERO, Uint::ONE, r_minus_1, Uint::MAX];
    for k in ks {
        let mut limbs = [0u64; N];
        limbs[k as usize / 64] = 1 << (k % 64);
        let pow = Uint(limbs);
        edges.extend([
            pow.borrowing_sub(&Uint::ONE).0,
            pow,
            pow.carrying_add(&Uint::ONE).0,
        ]);
    }
    edges
}

/// A width-`W` table's evaluation against double-and-add: each edge
/// scalar alone, and all of them at once over a table of several bases
/// read from an offset.
fn table_at_width<C: Curve<Scalar = Uint<N>>, const N: usize, const W: u32>(
    bases: &[XyzzPoint<C>],
    edges: &[Uint<N>],
    oracle: &[XyzzPoint<C>],
) {
    let table = StrausTable::<C, W>::new(bases);
    for (k, want) in edges.iter().zip(oracle) {
        assert_eq!(table.msm(0, &[*k]), *want, "{} W = {W}: k = {k:?}", C::NAME);
    }
    let lo = 1;
    let scalars: Vec<Uint<N>> = (0..bases.len() - lo)
        .map(|i| edges[(i * 7 + W as usize) % edges.len()])
        .collect();
    let want: XyzzPoint<C> = scalars
        .iter()
        .zip(&bases[lo..])
        .map(|(k, p)| p.scalar_mul(k))
        .sum();
    assert_eq!(
        table.msm(lo, &scalars),
        want,
        "{} W = {W}: offset sum",
        C::NAME
    );
}

/// Widths 2 through 8 on the recoding edges, bases unnormalised.
fn table_widths<C: Curve<Scalar = Uint<N>>, const N: usize>() {
    let mut rng = StdRng::seed_from_u64(2907);
    let edges = recoding_edges::<N>(order_minus_one::<C>());
    let bases: Vec<XyzzPoint<C>> = generator_multiples::<C>(6)
        .iter()
        .map(|p| rescaled(p, C::Base::random(&mut rng)))
        .collect();
    let oracle: Vec<XyzzPoint<C>> = edges.iter().map(|k| bases[0].scalar_mul(k)).collect();
    table_at_width::<C, N, 2>(&bases, &edges, &oracle);
    table_at_width::<C, N, 3>(&bases, &edges, &oracle);
    table_at_width::<C, N, 4>(&bases, &edges, &oracle);
    table_at_width::<C, N, 5>(&bases, &edges, &oracle);
    table_at_width::<C, N, 6>(&bases, &edges, &oracle);
    table_at_width::<C, N, 7>(&bases, &edges, &oracle);
    table_at_width::<C, N, 8>(&bases, &edges, &oracle);
}

#[test]
fn table_widths_match_double_and_add_on_recoding_edges() {
    table_widths::<Bn254G1, 4>();
    table_widths::<Bn254G2, 4>();
    table_widths::<Bls12377G1, 4>();
    table_widths::<Bls12381G1, 4>();
    table_widths::<Mnt4753G1, 12>();
}
