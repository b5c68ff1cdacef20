//! Published curve points, typed in as constants: both scalar
//! multiplications — double-and-add (`scalar_mul`) and the interleaved
//! multi-scalar kernel (`straus`) — must land on them.
//!
//! * BN254 G1 `2·G` — the `ecAdd` / `ecMul` test vector of EIP-196;
//! * the BN254 G2 generator — EIP-197;
//! * the BLS12-381 G1 generator — the IETF pairing-friendly-curves draft.
//!
//! A generator is reached as `(r + 1)·G`, a full-width product that wraps
//! around the group order once.
//!
//! The BN254 pairing is pinned by exact arithmetic and by the
//! clarity-first oracle in `reference_pairing`: the hard-part exponent
//! decomposition in integers, bilinearity at full width, and equality with
//! the oracle. (The literal Frobenius constants are private to the library;
//! its unit tests pin each to its power of `ξ`.)

mod reference_pairing;

use distmsm_ec::curves::{scalar_modulus_bls12381, scalar_modulus_bn254};
use distmsm_ec::curves::{Bls12381G1, Bn254G1, Bn254G2};
use distmsm_ec::pairing::{final_exponentiation, multi_miller_loop, pairing};
use distmsm_ec::{straus, Affine, Curve, XyzzPoint};
use distmsm_ff::params::{Bn254Fq, Bn254Fr, FqBls12381, FqBn254, FrBn254};
use distmsm_ff::{Fp2, FpParams, Uint};
use rand::{rngs::StdRng, SeedableRng};
use reference_pairing as reference;

const BN254_2G_X: &str = "0x030644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd3";
const BN254_2G_Y: &str = "0x15ed738c0e0a7c92e7845f96b2ae9c0a68a6a449e3538fc7ff3ebf7a5a18a2c4";

const BN254_G2_X: [&str; 2] = [
    "0x1800deef121f1e76426a00665e5c4479674322d4f75edadd46debd5cd992f6ed",
    "0x198e9393920d483a7260bfb731fb5d25f1aa493335a9e71297e485b7aef312c2",
];
const BN254_G2_Y: [&str; 2] = [
    "0x12c85ea5db8c6deb4aab71808dcb408fe3d1e7690c43d37b4ce6cc0166fa7daa",
    "0x090689d0585ff075ec9e99ad690c3395bc4b313370b38ef355acdadcd122975b",
];

const BLS12_381_G_X: &str = "0x17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb";
const BLS12_381_G_Y: &str = "0x08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1";

fn bn254_fq(hex: &str) -> FqBn254 {
    FqBn254::from_uint(&Uint::from_hex(hex))
}

fn bn254_fq2([c0, c1]: [&str; 2]) -> Fp2<Bn254Fq, 4> {
    Fp2::new(bn254_fq(c0), bn254_fq(c1))
}

/// `k·base` by both kernels, and by `straus` split into two terms
/// `(k − 1)·base + 1·base`, all equal to `expected`.
fn lands_on<C: Curve<Scalar = Uint<4>>>(base: &Affine<C>, k: Uint<4>, expected: &Affine<C>) {
    let b = base.to_xyzz();
    let (k_minus_1, borrow) = k.borrowing_sub(&Uint::ONE);
    assert!(!borrow, "k ≥ 1");
    let products: [(&str, XyzzPoint<C>); 3] = [
        ("scalar_mul", base.scalar_mul(&k)),
        ("straus", straus(&[(b, k)])),
        ("straus, two terms", straus(&[(b, k_minus_1), (b, Uint::ONE)])),
    ];
    for (kernel, p) in products {
        assert_eq!(p.to_affine(), *expected, "{kernel} on {}", C::NAME);
    }
}

fn r_plus_one(r: Uint<4>) -> Uint<4> {
    let (k, carry) = r.carrying_add(&Uint::ONE);
    assert!(!carry, "r + 1 fits the scalar width");
    k
}

#[test]
fn bn254_g1_double_generator_eip196() {
    let two_g = Affine::<Bn254G1>::new_unchecked(bn254_fq(BN254_2G_X), bn254_fq(BN254_2G_Y));
    let g = Bn254G1::generator();
    lands_on(&g, Uint::from_u64(2), &two_g);
    // (r + 2)·G wraps once more
    lands_on(&g, r_plus_one(r_plus_one(scalar_modulus_bn254())), &two_g);
}

#[test]
fn bn254_g2_generator_eip197() {
    let g2 = Affine::<Bn254G2>::new_unchecked(bn254_fq2(BN254_G2_X), bn254_fq2(BN254_G2_Y));
    assert!(g2.is_on_curve());
    lands_on(&Bn254G2::generator(), r_plus_one(scalar_modulus_bn254()), &g2);
}

#[test]
fn bls12_381_g1_generator() {
    let fq = |hex| FqBls12381::from_uint(&Uint::from_hex(hex));
    let g = Affine::<Bls12381G1>::new_unchecked(fq(BLS12_381_G_X), fq(BLS12_381_G_Y));
    assert!(g.is_on_curve());
    lands_on(&Bls12381G1::generator(), r_plus_one(scalar_modulus_bls12381()), &g);
}

// ---------------------------------------------------------------------------
// the BN254 pairing
// ---------------------------------------------------------------------------

/// The BN parameter, typed in independently of the library.
const BN_X: &str = "0x44e992b44a6909f1";

fn widen<const M: usize, const N: usize>(a: &Uint<M>) -> Uint<N> {
    let mut out = Uint::<N>::ZERO;
    out.0[..M].copy_from_slice(&a.0);
    out
}

fn int<const N: usize>(k: u64) -> Uint<N> {
    Uint::from_u64(k)
}

fn add<const N: usize>(a: Uint<N>, b: Uint<N>) -> Uint<N> {
    let (s, carry) = a.carrying_add(&b);
    assert!(!carry);
    s
}

fn sub<const N: usize>(a: Uint<N>, b: Uint<N>) -> Uint<N> {
    let (d, borrow) = a.borrowing_sub(&b);
    assert!(!borrow);
    d
}

fn mul<const N: usize>(a: Uint<N>, b: Uint<N>) -> Uint<N> {
    let (lo, hi) = a.widening_mul(&b);
    assert!(hi.is_zero(), "product overflows {N} limbs");
    lo
}

/// `Σ cᵢ·x^{n−i}` for coefficients listed highest degree first.
fn poly<const N: usize>(x: Uint<N>, coeffs: &[u64]) -> Uint<N> {
    coeffs.iter().fold(Uint::ZERO, |acc, &c| add(mul(acc, x), int(c)))
}

#[test]
fn bn254_hard_part_decomposition_is_exact() {
    let x = Uint::<16>::from_hex(BN_X);
    let p: Uint<16> = widen(&Bn254Fq::MODULUS);
    let r: Uint<16> = widen(&Bn254Fr::MODULUS);
    assert_eq!(poly(x, &[36, 36, 24, 6, 1]), p, "p = 36x⁴ + 36x³ + 24x² + 6x + 1");
    assert_eq!(poly(x, &[36, 36, 18, 6, 1]), r, "r = 36x⁴ + 36x³ + 18x² + 6x + 1");
    let p2 = mul(p, p);
    // λ₀ = −(36x³ + 30x² + 18x + 2), λ₁ = −(36x³ + 18x² + 12x − 1),
    // λ₂ = 6x² + 1, λ₃ = 1
    let minus_l0 = poly(x, &[36, 30, 18, 2]);
    let minus_l1 = sub(poly(x, &[36, 18, 12, 0]), int(1));
    let l2 = poly(x, &[6, 0, 1]);
    let hard = sub(
        add(mul(l2, p2), mul(p2, p)),
        add(minus_l0, mul(minus_l1, p)),
    );
    assert_eq!(hard, widen(&reference::HARD_EXP));
    // and the division it stands for is exact: hard·r = p⁴ − p² + 1
    assert_eq!(mul(hard, r), add(sub(mul(p2, p2), p2), int(1)));
}

#[test]
fn bn254_pairing_is_bilinear_at_full_width() {
    let mut rng = StdRng::seed_from_u64(2800);
    let (a, b) = (FrBn254::random(&mut rng), FrBn254::random(&mut rng));
    let (g1, g2) = (Bn254G1::generator(), Bn254G2::generator());
    let e = reference::Fp12::from_fast(&pairing(&g1, &g2));
    assert!(!e.is_one(), "non-degenerate");
    assert!(e.pow(&Bn254Fr::MODULUS.0).is_one(), "order divides r");
    let ap = g1.scalar_mul(&a.to_uint()).to_affine();
    let bq = g2.scalar_mul(&b.to_uint()).to_affine();
    let eab = reference::Fp12::from_fast(&pairing(&ap, &bq));
    assert_eq!(eab, e.pow(&(a * b).to_uint().0));
}

#[test]
fn bn254_pairing_equals_the_reference() {
    let mut rng = StdRng::seed_from_u64(2801);
    let mut g1 = || Bn254G1::generator().scalar_mul(&Bn254G1::random_scalar(&mut rng));
    let [p, p1, p2, p3] = [(); 4].map(|_| g1().to_affine());
    let mut g2 = || Bn254G2::generator().scalar_mul(&Bn254G2::random_scalar(&mut rng));
    let [q, q1, q2, q3] = [(); 4].map(|_| g2().to_affine());
    // π(Q) on the twist, with the constants derived at runtime; on G2 it
    // is multiplication by p
    let pi_q = Affine::<Bn254G2>::new_unchecked(
        q.x.conjugate() * reference::xi_root(3),
        q.y.conjugate() * reference::xi_root(2),
    );
    assert_eq!(pi_q, q.scalar_mul(&Bn254Fq::MODULUS).to_affine());
    let (o1, o2) = (Affine::identity(), Affine::identity());
    let cases = [
        (p, q),
        (p1, q1),
        (p2, q2),
        (p3, q3),
        (o1, q),
        (p, o2),
        (o1, o2),
        (p.neg(), q),
        (p, q.neg()),
        (p.neg(), q.neg()),
        (p, pi_q),
    ];
    for (i, (a, b)) in cases.iter().enumerate() {
        let fast = reference::Fp12::from_fast(&pairing(a, b));
        assert_eq!(fast, reference::pairing(a, b), "case {i}: {a:?}, {b:?}");
    }
    // four pairs through one multi-Miller loop
    let terms = &cases[..4];
    let fast = final_exponentiation(&multi_miller_loop(terms));
    assert_eq!(reference::Fp12::from_fast(&fast), reference::pairing_product(terms));
}
