//! Property-based tests for the field and big-integer substrate.

use distmsm_ff::mont::{add_mod, sub_mod, MontCtx};
use distmsm_ff::params::{Bn254Fq, FqBn254, FqMnt4753, FrBls12377};
use distmsm_ff::u32limb::U32Field;
use distmsm_ff::{FpParams, Uint};
use proptest::prelude::*;

fn arb_uint4() -> impl Strategy<Value = Uint<4>> {
    prop::array::uniform4(any::<u64>()).prop_map(Uint)
}

fn arb_fq() -> impl Strategy<Value = FqBn254> {
    arb_uint4().prop_map(|u| {
        // reduce into range by masking the top bits then conditional sub
        let mut v = u;
        v.0[3] &= (1 << 62) - 1;
        FqBn254::from_uint(&v)
    })
}

fn arb_fr377() -> impl Strategy<Value = FrBls12377> {
    arb_uint4().prop_map(|u| {
        let mut v = u;
        v.0[3] &= (1 << 61) - 1;
        FrBls12377::from_uint(&v)
    })
}

fn arb_fq753() -> impl Strategy<Value = FqMnt4753> {
    prop::collection::vec(any::<u64>(), 12).prop_map(|v| {
        let mut limbs = [0u64; 12];
        limbs.copy_from_slice(&v);
        limbs[11] &= (1 << 48) - 1;
        FqMnt4753::from_uint(&Uint(limbs))
    })
}

proptest! {
    #[test]
    fn uint_add_commutes(a in arb_uint4(), b in arb_uint4()) {
        prop_assert_eq!(a.carrying_add(&b), b.carrying_add(&a));
    }

    #[test]
    fn uint_sub_inverts_add(a in arb_uint4(), b in arb_uint4()) {
        let (s, _) = a.carrying_add(&b);
        let (d, _) = s.borrowing_sub(&b);
        prop_assert_eq!(d, a);
    }

    #[test]
    fn uint_mul_commutes(a in arb_uint4(), b in arb_uint4()) {
        prop_assert_eq!(a.widening_mul(&b), b.widening_mul(&a));
    }

    #[test]
    fn uint_bits_reassemble(a in arb_uint4(), w in 1u32..=16) {
        // Reading the whole integer window-by-window loses nothing.
        let mut acc = Uint::<4>::ZERO;
        let mut i = 0;
        while i < 256 {
            let width = w.min(256 - i);
            let chunk = a.bits(i, width);
            for b in 0..width {
                if (chunk >> b) & 1 == 1 {
                    let limb = ((i + b) / 64) as usize;
                    acc.0[limb] |= 1 << ((i + b) % 64);
                }
            }
            i += width;
        }
        prop_assert_eq!(acc, a);
    }

    #[test]
    fn field_add_assoc(a in arb_fq(), b in arb_fq(), c in arb_fq()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn field_mul_assoc(a in arb_fq(), b in arb_fq(), c in arb_fq()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn field_distributive(a in arb_fq(), b in arb_fq(), c in arb_fq()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn field_inverse(a in arb_fq()) {
        if !a.is_zero() {
            prop_assert_eq!(a.inverse().unwrap() * a, FqBn254::ONE);
        }
    }

    #[test]
    fn field_sqrt_of_square(a in arb_fq()) {
        let sq = a.square();
        let r = sq.sqrt().expect("squares have roots");
        prop_assert!(r == a || r == -a);
    }

    #[test]
    fn sos_equals_cios(a in arb_fq(), b in arb_fq()) {
        prop_assert_eq!(a.mul_sos(&b), a * b);
    }

    #[test]
    fn sos_equals_cios_753(a in arb_fq753(), b in arb_fq753()) {
        prop_assert_eq!(a.mul_sos(&b), a * b);
    }

    #[test]
    fn fr377_roundtrip(a in arb_fr377()) {
        prop_assert_eq!(FrBls12377::from_uint(&a.to_uint()), a);
    }

    #[test]
    fn u32_kernel_matches_u64(a in arb_fq(), b in arb_fq()) {
        let field = U32Field::from_modulus(&Bn254Fq::MODULUS);
        let got = field.mul_sos(&a.mont_repr().to_u32_limbs(), &b.mont_repr().to_u32_limbs());
        prop_assert_eq!(got, (a * b).mont_repr().to_u32_limbs());
    }

    #[test]
    fn mod_add_sub_roundtrip(a in arb_fq(), b in arb_fq()) {
        let m = &Bn254Fq::MODULUS;
        let s = add_mod(a.mont_repr(), b.mont_repr(), m);
        let d = sub_mod(&s, b.mont_repr(), m);
        prop_assert_eq!(d, *a.mont_repr());
    }

    #[test]
    fn mont_ctx_matches_fp(a in arb_fq(), b in arb_fq()) {
        let ctx = MontCtx::new(Bn254Fq::MODULUS);
        let got = ctx.mul(a.mont_repr(), b.mont_repr());
        let expect = a * b;
        prop_assert_eq!(&got, expect.mont_repr());
    }

    #[test]
    fn pow_adds_exponents(a in arb_fq(), e1 in 0u64..1000, e2 in 0u64..1000) {
        prop_assert_eq!(a.pow(&[e1]) * a.pow(&[e2]), a.pow(&[e1 + e2]));
    }
}

// ---------------------------------------------------------------------
// The four field primitives against independent oracles: the CIOS and
// SOS schedules and plain schoolbook-then-reduce for products, `x * x`
// for squares, the Karatsuba formula over `Fp` for `Fp2` products,
// Fermat's `a^(p−2)` and known answers for inverses, and repeated
// subtraction for `from_uint`.

use distmsm_ff::mont::{mont_mul_cios, mont_mul_sos, mont_reduce_sos};
use distmsm_ff::params::{
    Bls12377Fq, Bls12377Fr, Bls12381Fq, Bls12381Fr, Bn254Fr, Mnt4753Fq, Mnt4753Fr,
};
use distmsm_ff::{Fp, Fp2};
use rand::{rngs::StdRng, SeedableRng};

/// Calls `$check::<P, N>()` for every prime field of the workspace.
macro_rules! for_every_field {
    ($check:ident) => {
        $check::<Bn254Fq, 4>();
        $check::<Bn254Fr, 4>();
        $check::<Bls12377Fq, 6>();
        $check::<Bls12377Fr, 4>();
        $check::<Bls12381Fq, 6>();
        $check::<Bls12381Fr, 4>();
        $check::<Mnt4753Fq, 12>();
        $check::<Mnt4753Fr, 12>();
    };
}

fn minus<const N: usize>(a: &Uint<N>, k: u64) -> Uint<N> {
    a.borrowing_sub(&Uint::from_u64(k)).0
}

/// 0, 1, p − 1, R mod p and every limb all-ones masked below p's top bit,
/// as Montgomery representations (each `< p`).
fn edge_reprs<P: FpParams<N>, const N: usize>() -> Vec<Uint<N>> {
    let ones = Uint([u64::MAX; N]).shr(64 * N as u32 - (P::MODULUS_BITS - 1));
    vec![Uint::ZERO, Uint::ONE, minus(&P::MODULUS, 1), P::R, ones]
}

/// Edge representations plus random ones.
fn operands<P: FpParams<N>, const N: usize>() -> Vec<Fp<P, N>> {
    let mut rng = StdRng::seed_from_u64(35);
    let edges = edge_reprs::<P, N>().into_iter().map(Fp::from_mont);
    edges.chain((0..16).map(|_| Fp::random(&mut rng))).collect()
}

fn products_agree<P: FpParams<N>, const N: usize>() {
    let (m, inv) = (&P::MODULUS, P::INV);
    // the u32-limb mirror of the GPU kernel shares no code with the u64 path
    let u32_field = U32Field::from_modulus(m);
    let xs = operands::<P, N>();
    for a in &xs {
        for b in &xs {
            let (a, b) = (a.mont_repr(), b.mont_repr());
            let cios = mont_mul_cios(a, b, m, inv);
            let (lo, hi) = a.widening_mul(b);
            assert!(cios.lt(m), "{}: CIOS result not canonical", P::NAME);
            assert_eq!(cios, mont_mul_sos(a, b, m, inv), "{}: CIOS vs SOS", P::NAME);
            assert_eq!(
                cios,
                mont_reduce_sos(&lo, &hi, m, inv),
                "{}: CIOS vs schoolbook",
                P::NAME
            );
            let mirror = u32_field.mul_sos(&a.to_u32_limbs(), &b.to_u32_limbs());
            assert_eq!(cios.to_u32_limbs(), mirror, "{}: CIOS vs u32 SOS", P::NAME);
        }
    }
}

#[test]
fn cios_sos_and_schoolbook_agree_on_edge_operands() {
    for_every_field!(products_agree);
}

fn square_is_the_product<P: FpParams<N>, const N: usize>() {
    for x in operands::<P, N>() {
        assert_eq!(x.square(), x * x, "{}: {x}", P::NAME);
    }
}

#[test]
fn square_equals_the_product_on_edge_operands() {
    for_every_field!(square_is_the_product);
}

type F2 = Fp2<Bn254Fq, 4>;

/// The Karatsuba product over `Fp`: three full Montgomery products.
fn karatsuba(a: F2, b: F2) -> F2 {
    let v0 = a.c0 * b.c0;
    let v1 = a.c1 * b.c1;
    let mixed = (a.c0 + a.c1) * (b.c0 + b.c1);
    F2::new(v0 - v1, mixed - v0 - v1)
}

fn fp2_operands() -> Vec<F2> {
    let base = operands::<Bn254Fq, 4>();
    let mut out: Vec<F2> = base
        .iter()
        .flat_map(|&x| base.iter().map(move |&y| F2::new(x, y)))
        .collect();
    let mut rng = StdRng::seed_from_u64(36);
    out.extend((0..64).map(|_| F2::random(&mut rng)));
    out
}

#[test]
fn lazy_fp2_product_equals_karatsuba() {
    let xs = fp2_operands();
    for (i, &a) in xs.iter().enumerate() {
        // every edge pair, and each operand against a stride of the rest
        for &b in xs.iter().skip(i % 7).step_by(7) {
            assert_eq!(a * b, karatsuba(a, b), "{a} · {b}");
        }
    }
}

fn fermat<P: FpParams<N>, const N: usize>(a: Fp<P, N>) -> Fp<P, N> {
    a.pow(&minus(&P::MODULUS, 2).0)
}

fn inverse_is_fermat<P: FpParams<N>, const N: usize>() {
    let p = P::MODULUS;
    for a in operands::<P, N>() {
        match a.inverse() {
            None => assert!(a.is_zero(), "{}: {a} has no inverse", P::NAME),
            Some(inv) => assert_eq!(inv, fermat(a), "{}: 1/{a}", P::NAME),
        }
    }
    // known answers in plain integer arithmetic: 2⁻¹ = (p + 1)/2 and
    // (p − 1)⁻¹ = p − 1
    let half = p.carrying_add(&Uint::ONE).0.shr1();
    assert_eq!(
        Fp::<P, N>::from_u64(2).inverse().map(|x| x.to_uint()),
        Some(half)
    );
    let p_minus_1 = Fp::<P, N>::from_uint(&minus(&p, 1));
    assert_eq!(p_minus_1.inverse().map(|x| x.to_uint()), Some(minus(&p, 1)));
}

#[test]
fn inverse_equals_fermat_on_every_field() {
    for_every_field!(inverse_is_fermat);
}

#[test]
fn fp2_inverse_equals_fermat() {
    // a^(q² − 2) with q² − 2 as eight limbs
    let (lo, hi) = Bn254Fq::MODULUS.widening_mul(&Bn254Fq::MODULUS);
    let (lo, borrow) = lo.borrowing_sub(&Uint::from_u64(2));
    let hi = hi.borrowing_sub(&Uint::from_u64(u64::from(borrow))).0;
    let exp: Vec<u64> = lo.0.iter().chain(&hi.0).copied().collect();
    for a in fp2_operands().into_iter().step_by(5) {
        match a.inverse() {
            None => assert!(a.is_zero()),
            Some(inv) => assert_eq!(inv, a.pow(&exp), "1/{a}"),
        }
    }
}

fn from_uint_reduces_full_width<P: FpParams<N>, const N: usize>() {
    let p = P::MODULUS;
    let mut rng = StdRng::seed_from_u64(37);
    let mut inputs = vec![Uint([u64::MAX; N]), p, minus(&p, 1), p.shl1().0];
    inputs.extend((0..4).map(|_| Uint(core::array::from_fn(|_| rand::Rng::random(&mut rng)))));
    for v in inputs {
        // the oracle: subtract p until below it
        let mut r = v;
        while !r.lt(&p) {
            r = r.borrowing_sub(&p).0;
        }
        assert_eq!(Fp::<P, N>::from_uint(&v).to_uint(), r, "{}: {v:x}", P::NAME);
    }
}

#[test]
fn from_uint_reduces_full_width_inputs_on_every_field() {
    for_every_field!(from_uint_reduces_full_width);
}
