//! The optimal ate pairing on BN254.
//!
//! Completes the zkSNARK substrate: with a pairing, the Groth16 proofs of
//! `distmsm-zksnark` can be *verified* cryptographically, not just
//! structurally. The implementation favours clarity and self-evidence
//! over speed:
//!
//! * the tower is `Fp² → Fp⁶ = Fp²[v]/(v³ − ξ) → Fp¹² = Fp⁶[w]/(w² − v)`
//!   with `ξ = 9 + u`;
//! * G2 points are **untwisted** into `E(Fp¹²)` (`(x', y') ↦ (x'w²,
//!   y'w³)`, valid because `w⁶ = ξ` and the twist is D-type), and the
//!   Miller loop runs with plain affine line functions over `Fp¹²` —
//!   mathematically transparent, if slower than dedicated towers;
//! * Frobenius endomorphisms are applied directly in `Fp¹²`, with the
//!   twist constants computed at runtime from `ξ^{(p−1)/6}`;
//! * the final exponentiation does the easy part by conjugation /
//!   Frobenius and the hard part by plain square-and-multiply with the
//!   externally verified 761-bit exponent `(p⁴ − p² + 1)/r`.
//!
//! Correctness is established by the strongest available self-tests:
//! bilinearity `e(aP, bQ) = e(P, Q)^{ab}` and non-degeneracy.

use crate::curve::{Affine, Curve};
use crate::curves::{Bn254G1, Bn254G2};
use distmsm_ff::params::{Bn254Fq, FqBn254};
use distmsm_ff::{Fp2, FpParams, Uint};

type F = FqBn254;
type F2 = Fp2<Bn254Fq, 4>;

/// `6x + 2` for the BN parameter `x = 0x44E992B44A6909F1` — the optimal
/// ate Miller loop count (65 bits).
const ATE_LOOP: u128 = 29_793_968_203_157_093_288;

/// `(p⁴ − p² + 1)/r`, the hard part of the final exponentiation
/// (761 bits; derived and verified externally from the BN parameter).
const HARD_EXP: Uint<12> = Uint([
    0xe81bb482ccdf42b1,
    0x5abf5cc4f49c36d4,
    0xf1154e7e1da014fd,
    0xdcc7b44c87cdbacf,
    0xaaa441e3954bcf8a,
    0x6b887d56d5095f23,
    0x79581e16f3fd90c6,
    0x3b1b1355d189227d,
    0x4e529a5861876f6b,
    0x6c0eb522d5b12278,
    0x331ec15183177faf,
    0x01baaa710b0759ad,
]);

fn xi() -> F2 {
    F2::new(F::from_u64(9), F::ONE)
}

// ---------------------------------------------------------------------------
// Fp6 = Fp2[v]/(v³ − ξ)
// ---------------------------------------------------------------------------

/// An element `c0 + c1·v + c2·v²` of `Fp⁶`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fp6 {
    /// Constant coefficient.
    pub c0: F2,
    /// Coefficient of `v`.
    pub c1: F2,
    /// Coefficient of `v²`.
    pub c2: F2,
}

impl Fp6 {
    /// Additive identity.
    pub const ZERO: Self = Self {
        c0: F2::ZERO,
        c1: F2::ZERO,
        c2: F2::ZERO,
    };
    /// Multiplicative identity.
    pub const ONE: Self = Self {
        c0: F2::ONE,
        c1: F2::ZERO,
        c2: F2::ZERO,
    };

    /// Builds an element from its coefficients.
    pub const fn new(c0: F2, c1: F2, c2: F2) -> Self {
        Self { c0, c1, c2 }
    }

    /// Embeds an `Fp²` element.
    pub const fn from_fp2(c0: F2) -> Self {
        Self {
            c0,
            c1: F2::ZERO,
            c2: F2::ZERO,
        }
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    fn add(&self, o: &Self) -> Self {
        Self::new(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)
    }

    fn sub(&self, o: &Self) -> Self {
        Self::new(self.c0 - o.c0, self.c1 - o.c1, self.c2 - o.c2)
    }

    fn neg(&self) -> Self {
        Self::new(-self.c0, -self.c1, -self.c2)
    }

    fn mul(&self, o: &Self) -> Self {
        // schoolbook with v³ = ξ
        let x = xi();
        let a = self;
        let b = o;
        let c0 = a.c0 * b.c0 + x * (a.c1 * b.c2 + a.c2 * b.c1);
        let c1 = a.c0 * b.c1 + a.c1 * b.c0 + x * (a.c2 * b.c2);
        let c2 = a.c0 * b.c2 + a.c1 * b.c1 + a.c2 * b.c0;
        Self::new(c0, c1, c2)
    }

    /// Multiplication by `v` (the degree shift used by the `Fp¹²` tower).
    fn mul_by_v(&self) -> Self {
        Self::new(xi() * self.c2, self.c0, self.c1)
    }

    fn scale(&self, k: F2) -> Self {
        Self::new(self.c0 * k, self.c1 * k, self.c2 * k)
    }

    fn inverse(&self) -> Option<Self> {
        let x = xi();
        let t0 = self.c0.square() - x * (self.c1 * self.c2);
        let t1 = x * self.c2.square() - self.c0 * self.c1;
        let t2 = self.c1.square() - self.c0 * self.c2;
        let norm = self.c0 * t0 + x * (self.c2 * t1 + self.c1 * t2);
        let inv = norm.inverse()?;
        Some(Self::new(t0 * inv, t1 * inv, t2 * inv))
    }

    /// Frobenius `x ↦ x^p`, using `v^p = v·ξ^{(p−1)/3}`.
    fn frobenius(&self) -> Self {
        let (e, r) = Bn254Fq::MODULUS
            .borrowing_sub(&Uint::ONE)
            .0
            .div_rem_u64(3);
        debug_assert_eq!(r, 0);
        let g1 = xi().pow(&e.0);
        let g2 = g1 * g1;
        Self::new(
            self.c0.frobenius(),
            self.c1.frobenius() * g1,
            self.c2.frobenius() * g2,
        )
    }
}

// ---------------------------------------------------------------------------
// Fp12 = Fp6[w]/(w² − v)
// ---------------------------------------------------------------------------

/// An element `c0 + c1·w` of `Fp¹²`, the pairing target field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fp12 {
    /// Constant coefficient.
    pub c0: Fp6,
    /// Coefficient of `w`.
    pub c1: Fp6,
}

impl Fp12 {
    /// Multiplicative identity.
    pub const ONE: Self = Self {
        c0: Fp6::ONE,
        c1: Fp6::ZERO,
    };

    /// Builds an element from its `Fp⁶` halves.
    pub const fn new(c0: Fp6, c1: Fp6) -> Self {
        Self { c0, c1 }
    }

    /// Is this the multiplicative identity?
    pub fn is_one(&self) -> bool {
        *self == Self::ONE
    }

    fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    fn add(&self, o: &Self) -> Self {
        Self::new(self.c0.add(&o.c0), self.c1.add(&o.c1))
    }

    fn sub(&self, o: &Self) -> Self {
        Self::new(self.c0.sub(&o.c0), self.c1.sub(&o.c1))
    }

    /// Field multiplication (`w² = v`).
    pub fn mul(&self, o: &Self) -> Self {
        let a0b0 = self.c0.mul(&o.c0);
        let a1b1 = self.c1.mul(&o.c1);
        let c0 = a0b0.add(&a1b1.mul_by_v());
        let c1 = self.c0.mul(&o.c1).add(&self.c1.mul(&o.c0));
        Self::new(c0, c1)
    }

    /// Squaring.
    pub fn square(&self) -> Self {
        self.mul(self)
    }

    /// Multiplicative inverse, or `None` for zero.
    pub fn inverse(&self) -> Option<Self> {
        // (c0 + c1 w)⁻¹ = (c0 − c1 w)/(c0² − c1² v)
        let denom = self.c0.mul(&self.c0).sub(&self.c1.mul(&self.c1).mul_by_v());
        let inv = denom.inverse()?;
        Some(Self::new(self.c0.mul(&inv), self.c1.mul(&inv).neg()))
    }

    /// Conjugation over `w` — equals `x ↦ x^{p⁶}` (the "unitary" part).
    pub fn conjugate(&self) -> Self {
        Self::new(self.c0, self.c1.neg())
    }

    /// Frobenius `x ↦ x^p`, using `w^p = w·ξ^{(p−1)/6}`.
    pub fn frobenius(&self) -> Self {
        let (e, r) = Bn254Fq::MODULUS
            .borrowing_sub(&Uint::ONE)
            .0
            .div_rem_u64(6);
        debug_assert_eq!(r, 0);
        let gw = xi().pow(&e.0);
        Self::new(self.c0.frobenius(), self.c1.frobenius().scale(gw))
    }

    /// Exponentiation by a little-endian limb slice.
    pub fn pow(&self, exp: &[u64]) -> Self {
        let mut acc = Self::ONE;
        let mut bits = 64 * exp.len();
        while bits > 0 && (exp[(bits - 1) / 64] >> ((bits - 1) % 64)) & 1 == 0 {
            bits -= 1;
        }
        for i in (0..bits).rev() {
            acc = acc.square();
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.mul(self);
            }
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// the pairing
// ---------------------------------------------------------------------------

/// A G2 point untwisted into `E(Fp¹²)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ep12 {
    x: Fp12,
    y: Fp12,
    infinity: bool,
}

impl Ep12 {
    fn untwist(q: &Affine<Bn254G2>) -> Self {
        if q.infinity {
            return Self {
                x: Fp12::ONE,
                y: Fp12::ONE,
                infinity: true,
            };
        }
        // x = x'·w², y = y'·w³ ;  w² = v, w³ = v·w
        let x = Fp12::new(Fp6::new(F2::ZERO, q.x, F2::ZERO), Fp6::ZERO);
        let y = Fp12::new(Fp6::ZERO, Fp6::new(F2::ZERO, q.y, F2::ZERO));
        Self {
            x,
            y,
            infinity: false,
        }
    }

    fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: Fp12::new(self.y.c0.neg(), self.y.c1.neg()),
            infinity: self.infinity,
        }
    }

    fn frobenius(&self) -> Self {
        Self {
            x: self.x.frobenius(),
            y: self.y.frobenius(),
            infinity: self.infinity,
        }
    }
}

/// Embeds a G1 point's coordinates into `Fp¹²`.
fn embed(a: F) -> Fp12 {
    Fp12::new(Fp6::from_fp2(F2::from_base(a)), Fp6::ZERO)
}

/// One Miller step: evaluates the line through `t` and `q` (tangent when
/// `t == q`) at `p`, and returns `(line value, t + q)`.
fn line_and_add(t: &Ep12, q: &Ep12, px: &Fp12, py: &Fp12) -> (Fp12, Ep12) {
    debug_assert!(!t.infinity && !q.infinity);
    let (lambda, vertical) = if t.x == q.x {
        if t.y == q.y {
            // tangent: λ = 3x²/(2y)
            let x2 = t.x.square();
            let num = x2.add(&x2).add(&x2);
            let den = t.y.add(&t.y);
            (
                num.mul(&den.inverse().expect("tangent at 2-torsion")),
                false,
            )
        } else {
            // vertical line x − x_T
            (Fp12::ONE, true)
        }
    } else {
        let num = q.y.sub(&t.y);
        let den = q.x.sub(&t.x);
        (num.mul(&den.inverse().expect("distinct x")), false)
    };

    if vertical {
        let l = px.sub(&t.x);
        let sum = Ep12 {
            x: Fp12::ONE,
            y: Fp12::ONE,
            infinity: true,
        };
        return (l, sum);
    }

    // l(P) = (y_P − y_T) − λ(x_P − x_T)
    let l = py.sub(&t.y).sub(&lambda.mul(&px.sub(&t.x)));
    // sum coordinates
    let x3 = lambda.square().sub(&t.x).sub(&q.x);
    let y3 = lambda.mul(&t.x.sub(&x3)).sub(&t.y);
    (
        l,
        Ep12 {
            x: x3,
            y: y3,
            infinity: false,
        },
    )
}

/// The Miller loop of the optimal ate pairing (before final
/// exponentiation).
pub fn miller_loop(p: &Affine<Bn254G1>, q: &Affine<Bn254G2>) -> Fp12 {
    if p.infinity || q.infinity {
        return Fp12::ONE;
    }
    let px = embed(p.x);
    let py = embed(p.y);
    let q12 = Ep12::untwist(q);
    let mut t = q12;
    let mut f = Fp12::ONE;

    let bits = 128 - ATE_LOOP.leading_zeros();
    for i in (0..bits - 1).rev() {
        let (l, t2) = line_and_add(&t, &t, &px, &py);
        f = f.square().mul(&l);
        t = t2;
        if (ATE_LOOP >> i) & 1 == 1 {
            let (l, tq) = line_and_add(&t, &q12, &px, &py);
            f = f.mul(&l);
            t = tq;
        }
    }

    // the two extra optimal-ate steps: Q1 = π(Q), Q2 = π²(Q)
    let q1 = q12.frobenius();
    let (l, t1) = line_and_add(&t, &q1, &px, &py);
    f = f.mul(&l);
    let q2 = q1.frobenius().neg();
    let (l, _) = line_and_add(&t1, &q2, &px, &py);
    f.mul(&l)
}

/// The final exponentiation `f ↦ f^{(p¹² − 1)/r}`.
pub fn final_exponentiation(f: &Fp12) -> Fp12 {
    assert!(!f.is_zero(), "pairing of valid points is never zero");
    // easy part: f^{(p⁶ − 1)(p² + 1)}
    let f1 = f.conjugate().mul(&f.inverse().expect("nonzero"));
    let f2 = f1.frobenius().frobenius().mul(&f1);
    // hard part: ^(p⁴ − p² + 1)/r
    f2.pow(&HARD_EXP.0)
}

/// The optimal ate pairing `e: G1 × G2 → μ_r ⊂ Fp¹²`.
pub fn pairing(p: &Affine<Bn254G1>, q: &Affine<Bn254G2>) -> Fp12 {
    final_exponentiation(&miller_loop(p, q))
}

/// Product-of-pairings check `Π e(pᵢ, qᵢ) = 1`, the shape every Groth16
/// verification equation reduces to (one shared final exponentiation).
pub fn pairing_product_is_one(terms: &[(Affine<Bn254G1>, Affine<Bn254G2>)]) -> bool {
    let mut acc = Fp12::ONE;
    for (p, q) in terms {
        acc = acc.mul(&miller_loop(p, q));
    }
    final_exponentiation(&acc).is_one()
}

/// Convenience: `[k]G` reduced to affine for pairing inputs.
pub fn g1_mul(k: u64) -> Affine<Bn254G1> {
    mul_g::<Bn254G1>(k)
}

/// See [`g1_mul`].
pub fn g2_mul(k: u64) -> Affine<Bn254G2> {
    mul_g::<Bn254G2>(k)
}

fn mul_g<C: Curve>(k: u64) -> Affine<C> {
    use crate::traits::Scalar as _;
    if k == 0 {
        return Affine::identity();
    }
    C::generator()
        .scalar_mul(&C::Scalar::from_u64(k))
        .to_affine()
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ff::params::Bn254Fr;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn fp6_field_axioms() {
        let mut rng = StdRng::seed_from_u64(700);
        for _ in 0..10 {
            let a = Fp6::new(
                F2::random(&mut rng),
                F2::random(&mut rng),
                F2::random(&mut rng),
            );
            let b = Fp6::new(
                F2::random(&mut rng),
                F2::random(&mut rng),
                F2::random(&mut rng),
            );
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&a.inverse().unwrap()), Fp6::ONE);
            // v³ = ξ: multiplying by v three times equals scaling by ξ
            let v3 = a.mul_by_v().mul_by_v().mul_by_v();
            assert_eq!(v3, a.scale(xi()));
        }
    }

    #[test]
    fn fp12_field_axioms() {
        let mut rng = StdRng::seed_from_u64(701);
        let rand6 = |rng: &mut StdRng| {
            Fp6::new(F2::random(rng), F2::random(rng), F2::random(rng))
        };
        for _ in 0..10 {
            let a = Fp12::new(rand6(&mut rng), rand6(&mut rng));
            let b = Fp12::new(rand6(&mut rng), rand6(&mut rng));
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&a.inverse().unwrap()), Fp12::ONE);
            assert_eq!(a.square(), a.mul(&a));
        }
    }

    #[test]
    fn frobenius_is_p_power() {
        // x^p computed by Frobenius must equal pow by the modulus
        let mut rng = StdRng::seed_from_u64(702);
        let a = Fp12::new(
            Fp6::new(
                F2::random(&mut rng),
                F2::random(&mut rng),
                F2::random(&mut rng),
            ),
            Fp6::new(
                F2::random(&mut rng),
                F2::random(&mut rng),
                F2::random(&mut rng),
            ),
        );
        let via_frob = a.frobenius();
        let via_pow = a.pow(&Bn254Fq::MODULUS.0);
        assert_eq!(via_frob, via_pow);
    }

    #[test]
    fn untwisted_point_is_on_curve() {
        let q = Ep12::untwist(&Bn254G2::generator());
        // y² = x³ + 3 in Fp12
        let lhs = q.y.square();
        let rhs = q.x.square().mul(&q.x).add(&embed(F::from_u64(3)));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn pairing_is_nondegenerate() {
        let e = pairing(&Bn254G1::generator(), &Bn254G2::generator());
        assert!(!e.is_one(), "e(G1, G2) must not be 1");
        // and lands in the r-torsion: e^r = 1
        let er = e.pow(&Bn254Fr::MODULUS.0);
        assert!(er.is_one(), "pairing output must have order dividing r");
    }

    #[test]
    fn pairing_is_bilinear() {
        let mut rng = StdRng::seed_from_u64(703);
        let a = rng.random_range(2u64..1 << 20);
        let b = rng.random_range(2u64..1 << 20);
        let lhs = pairing(&g1_mul(a), &g2_mul(b));
        let base = pairing(&Bn254G1::generator(), &Bn254G2::generator());
        let rhs = base.pow(&[a * b]);
        assert_eq!(lhs, rhs, "e(aP, bQ) != e(P,Q)^(ab)");
        // and each argument separately
        assert_eq!(pairing(&g1_mul(a), &Bn254G2::generator()), base.pow(&[a]));
        assert_eq!(pairing(&Bn254G1::generator(), &g2_mul(b)), base.pow(&[b]));
    }

    #[test]
    fn pairing_product_identity() {
        // e(aG1, G2) · e(−aG1, G2) = 1
        let a = 77u64;
        let p = g1_mul(a);
        assert!(pairing_product_is_one(&[
            (p, Bn254G2::generator()),
            (p.neg(), Bn254G2::generator()),
        ]));
        // and a failing case
        assert!(!pairing_product_is_one(&[(p, Bn254G2::generator())]));
    }

    #[test]
    fn pairing_with_identity_is_one() {
        assert!(pairing(&Affine::identity(), &Bn254G2::generator()).is_one());
        assert!(pairing(&Bn254G1::generator(), &Affine::identity()).is_one());
    }
}
