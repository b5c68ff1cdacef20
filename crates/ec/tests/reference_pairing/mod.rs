//! The clarity-first optimal ate pairing on BN254, kept as the oracle the
//! library's [`distmsm_ec::pairing`] is compared against, bit for bit.
//!
//! It shares nothing with the library's tower but `Fp²`:
//!
//! * `Fp⁶ = Fp²[v]/(v³ − ξ)` and `Fp¹² = Fp⁶[w]/(w² − v)` with `ξ = 9 + u`,
//!   multiplied schoolbook;
//! * G2 points are **untwisted** into `E(Fp¹²)` (`(x', y') ↦ (x'w², y'w³)`,
//!   valid because `w⁶ = ξ` and the twist is D-type), and the Miller loop
//!   walks the binary digits of `6x + 2` with affine line functions over
//!   `Fp¹²`, one `Fp¹²` inversion per step;
//! * Frobenius endomorphisms are applied directly in `Fp¹²`, with the
//!   twist constants computed at runtime from `ξ^{(p−1)/6}`;
//! * the final exponentiation does the easy part by conjugation and
//!   Frobenius and the hard part by square-and-multiply over the 761-bit
//!   exponent `(p⁴ − p² + 1)/r`.

#![allow(dead_code)]

use distmsm_ec::curve::Affine;
use distmsm_ec::curves::{Bn254G1, Bn254G2};
use distmsm_ec::pairing as fast;
use distmsm_ff::params::{Bn254Fq, FqBn254};
use distmsm_ff::{Fp2, FpParams, Uint};

type F = FqBn254;
type F2 = Fp2<Bn254Fq, 4>;

/// `6x + 2` for the BN parameter `x = 0x44E992B44A6909F1` — the optimal
/// ate Miller loop count (65 bits).
pub const ATE_LOOP: u128 = 29_793_968_203_157_093_288;

/// `(p⁴ − p² + 1)/r`, the hard part of the final exponentiation
/// (761 bits).
pub const HARD_EXP: Uint<12> = Uint([
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

pub fn xi() -> F2 {
    F2::new(F::from_u64(9), F::ONE)
}

/// `ξ^{(p − 1)/d}` by a runtime exponentiation.
pub fn xi_root(d: u64) -> F2 {
    let (e, r) = Bn254Fq::MODULUS
        .borrowing_sub(&Uint::ONE)
        .0
        .div_rem_u64(d);
    assert_eq!(r, 0);
    xi().pow(&e.0)
}

/// An element `c0 + c1·v + c2·v²` of `Fp⁶`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fp6 {
    pub c0: F2,
    pub c1: F2,
    pub c2: F2,
}

impl Fp6 {
    pub const ZERO: Self = Self::new(F2::ZERO, F2::ZERO, F2::ZERO);
    pub const ONE: Self = Self::new(F2::ONE, F2::ZERO, F2::ZERO);

    pub const fn new(c0: F2, c1: F2, c2: F2) -> Self {
        Self { c0, c1, c2 }
    }

    pub fn from_fp2(c0: F2) -> Self {
        Self::new(c0, F2::ZERO, F2::ZERO)
    }

    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero() && self.c2.is_zero()
    }

    pub fn add(&self, o: &Self) -> Self {
        Self::new(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)
    }

    pub fn sub(&self, o: &Self) -> Self {
        Self::new(self.c0 - o.c0, self.c1 - o.c1, self.c2 - o.c2)
    }

    pub fn neg(&self) -> Self {
        Self::new(-self.c0, -self.c1, -self.c2)
    }

    /// Schoolbook with `v³ = ξ`.
    pub fn mul(&self, o: &Self) -> Self {
        let x = xi();
        let (a, b) = (self, o);
        let c0 = a.c0 * b.c0 + x * (a.c1 * b.c2 + a.c2 * b.c1);
        let c1 = a.c0 * b.c1 + a.c1 * b.c0 + x * (a.c2 * b.c2);
        let c2 = a.c0 * b.c2 + a.c1 * b.c1 + a.c2 * b.c0;
        Self::new(c0, c1, c2)
    }

    /// Multiplication by `v`.
    pub fn mul_by_v(&self) -> Self {
        Self::new(xi() * self.c2, self.c0, self.c1)
    }

    pub fn inverse(&self) -> Option<Self> {
        let x = xi();
        let t0 = self.c0.square() - x * (self.c1 * self.c2);
        let t1 = x * self.c2.square() - self.c0 * self.c1;
        let t2 = self.c1.square() - self.c0 * self.c2;
        let norm = self.c0 * t0 + x * (self.c2 * t1 + self.c1 * t2);
        let inv = norm.inverse()?;
        Some(Self::new(t0 * inv, t1 * inv, t2 * inv))
    }

    /// Frobenius `x ↦ x^p`, using `v^p = v·ξ^{(p−1)/3}`.
    pub fn frobenius(&self) -> Self {
        let g1 = xi_root(3);
        Self::new(
            self.c0.frobenius(),
            self.c1.frobenius() * g1,
            self.c2.frobenius() * g1 * g1,
        )
    }
}

/// An element `c0 + c1·w` of `Fp¹²`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fp12 {
    pub c0: Fp6,
    pub c1: Fp6,
}

impl Fp12 {
    pub const ONE: Self = Self::new(Fp6::ONE, Fp6::ZERO);

    pub const fn new(c0: Fp6, c1: Fp6) -> Self {
        Self { c0, c1 }
    }

    /// The same element of the library's `Fp¹²` (both towers use the same
    /// basis).
    pub fn from_fast(a: &fast::Fp12) -> Self {
        let six = |b: &fast::Fp6| Fp6::new(b.c0, b.c1, b.c2);
        Self::new(six(&a.c0), six(&a.c1))
    }

    pub fn is_one(&self) -> bool {
        *self == Self::ONE
    }

    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    pub fn add(&self, o: &Self) -> Self {
        Self::new(self.c0.add(&o.c0), self.c1.add(&o.c1))
    }

    pub fn sub(&self, o: &Self) -> Self {
        Self::new(self.c0.sub(&o.c0), self.c1.sub(&o.c1))
    }

    /// Schoolbook with `w² = v`.
    pub fn mul(&self, o: &Self) -> Self {
        let a0b0 = self.c0.mul(&o.c0);
        let a1b1 = self.c1.mul(&o.c1);
        let c0 = a0b0.add(&a1b1.mul_by_v());
        let c1 = self.c0.mul(&o.c1).add(&self.c1.mul(&o.c0));
        Self::new(c0, c1)
    }

    pub fn square(&self) -> Self {
        self.mul(self)
    }

    pub fn inverse(&self) -> Option<Self> {
        // (c0 + c1 w)⁻¹ = (c0 − c1 w)/(c0² − c1² v)
        let denom = self.c0.mul(&self.c0).sub(&self.c1.mul(&self.c1).mul_by_v());
        let inv = denom.inverse()?;
        Some(Self::new(self.c0.mul(&inv), self.c1.mul(&inv).neg()))
    }

    /// Conjugation over `w`, i.e. `x ↦ x^{p⁶}`.
    pub fn conjugate(&self) -> Self {
        Self::new(self.c0, self.c1.neg())
    }

    /// Frobenius `x ↦ x^p`, using `w^p = w·ξ^{(p−1)/6}`.
    pub fn frobenius(&self) -> Self {
        let gw = xi_root(6);
        let c1 = self.c1.frobenius();
        Self::new(
            self.c0.frobenius(),
            Fp6::new(c1.c0 * gw, c1.c1 * gw, c1.c2 * gw),
        )
    }

    /// Exponentiation by a little-endian limb slice.
    pub fn pow(&self, exp: &[u64]) -> Self {
        let mut acc = Self::ONE;
        for i in (0..64 * exp.len()).rev() {
            acc = acc.square();
            if (exp[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.mul(self);
            }
        }
        acc
    }
}

/// A G2 point untwisted into `E(Fp¹²)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Ep12 {
    x: Fp12,
    y: Fp12,
    infinity: bool,
}

const INFINITY: Ep12 = Ep12 {
    x: Fp12::ONE,
    y: Fp12::ONE,
    infinity: true,
};

impl Ep12 {
    fn untwist(q: &Affine<Bn254G2>) -> Self {
        if q.infinity {
            return INFINITY;
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
            y: Fp12::new(self.y.c0.neg(), self.y.c1.neg()),
            ..*self
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

/// Embeds a G1 point's coordinate into `Fp¹²`.
fn embed(a: F) -> Fp12 {
    Fp12::new(Fp6::from_fp2(F2::from_base(a)), Fp6::ZERO)
}

/// One Miller step: evaluates the line through `t` and `q` (tangent when
/// `t == q`) at `p`, and returns `(line value, t + q)`.
fn line_and_add(t: &Ep12, q: &Ep12, px: &Fp12, py: &Fp12) -> (Fp12, Ep12) {
    let lambda = if t.x == q.x {
        if t.y != q.y {
            // vertical line x − x_T
            return (px.sub(&t.x), INFINITY);
        }
        // tangent: λ = 3x²/(2y)
        let x2 = t.x.square();
        let den = t.y.add(&t.y);
        x2.add(&x2).add(&x2).mul(&den.inverse().expect("tangent at 2-torsion"))
    } else {
        let den = q.x.sub(&t.x);
        q.y.sub(&t.y).mul(&den.inverse().expect("distinct x"))
    };
    // l(P) = (y_P − y_T) − λ(x_P − x_T)
    let l = py.sub(&t.y).sub(&lambda.mul(&px.sub(&t.x)));
    let x3 = lambda.square().sub(&t.x).sub(&q.x);
    let y3 = lambda.mul(&t.x.sub(&x3)).sub(&t.y);
    let sum = Ep12 {
        x: x3,
        y: y3,
        infinity: false,
    };
    (l, sum)
}

/// The Miller loop of the optimal ate pairing for one pair.
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

    // the two extra optimal-ate steps: Q1 = π(Q), Q2 = −π²(Q)
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

/// The optimal ate pairing.
pub fn pairing(p: &Affine<Bn254G1>, q: &Affine<Bn254G2>) -> Fp12 {
    final_exponentiation(&miller_loop(p, q))
}

/// `Π e(pᵢ, qᵢ)` with one shared final exponentiation.
pub fn pairing_product(terms: &[(Affine<Bn254G1>, Affine<Bn254G2>)]) -> Fp12 {
    let f = terms
        .iter()
        .fold(Fp12::ONE, |acc, (p, q)| acc.mul(&miller_loop(p, q)));
    final_exponentiation(&f)
}
