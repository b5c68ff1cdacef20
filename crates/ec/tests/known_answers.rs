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

use distmsm_ec::curves::{scalar_modulus_bls12381, scalar_modulus_bn254};
use distmsm_ec::curves::{Bls12381G1, Bn254G1, Bn254G2};
use distmsm_ec::{straus, Affine, Curve, XyzzPoint};
use distmsm_ff::params::{Bn254Fq, FqBls12381, FqBn254};
use distmsm_ff::{Fp2, Uint};

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
