//! The optimal ate pairing on BN254, built for the Groth16 verifier's
//! product check (DESIGN.md §28).
//!
//! * **Tower.** `Fp² → Fp⁶ = Fp²[v]/(v³ − ξ) → Fp¹² = Fp⁶[w]/(w² − v)`
//!   with `ξ = 9 + u`. Both levels multiply by Karatsuba (`Fp⁶`: six `Fp²`
//!   products, `Fp¹²`: three `Fp⁶` products), `Fp¹²` squares by the
//!   complex method, and an element of the cyclotomic subgroup squares by
//!   Granger–Scott. Multiplication by `ξ` is additions only.
//! * **Frobenius.** `x ↦ x^{p^k}` (`k = 1, 2, 3`) conjugates each `Fp²`
//!   coefficient `k` times and scales it by a literal constant
//!   `ξ^{m(p^k − 1)/6}`.
//! * **Miller loop.** [`multi_miller_loop`] runs every pair through one
//!   loop over the NAF of `6x + 2` (22 non-zero digits), sharing the
//!   squaring of `f`. Each G2 point stays on the D-type twist
//!   `y² = x³ + 3/ξ` in homogeneous projective coordinates. A doubling or
//!   addition step returns its line as three `Fp²` coefficients at `1`,
//!   `w` and `w³`, scaled by `P`'s coordinates, and `f` absorbs it by a
//!   sparse multiplication (thirteen `Fp²` products). Nothing in the loop
//!   inverts.
//! * **Final exponentiation.** [`final_exponentiation`] raises to exactly
//!   `(p¹² − 1)/r`: the easy part by conjugation, one inversion and a
//!   `p²`-Frobenius, the hard part `(p⁴ − p² + 1)/r = λ₀ + λ₁p + λ₂p² + p³`
//!   through `f^x`, `f^{x²}` and `f^{x³}`. It is the exponent itself, not a
//!   multiple of it, so [`pairing`] returns the reduced pairing value bit
//!   for bit.
//!
//! Nothing here panics on hostile input. A point off the curve can drive
//! the Miller value to zero, and the final exponentiation of zero is zero,
//! which is not one.

use crate::curve::{Affine, Curve};
use crate::curves::{Bn254G1, Bn254G2};
use distmsm_ff::params::{Bn254Fq, FqBn254};
use distmsm_ff::{Fp2, Uint};

type F = FqBn254;
type F2 = Fp2<Bn254Fq, 4>;
type G1 = Affine<Bn254G1>;
type G2 = Affine<Bn254G2>;

/// The BN parameter `x = 0x44e992b44a6909f1` in non-adjacent form, most
/// significant digit first: 63 digits, 24 of them non-zero (28 set bits).
const X_NAF: [i8; 63] = [
    1, 0, 0, 0, 1, 0, 1, 0, 0, -1, 0, 1, 0, 1, 0, -1, 0, 0, 1, 0, 1, 0, -1, 0, -1, 0, -1, 0, 1, 0,
    0, 0, 1, 0, 0, 1, 0, 1, 0, 1, 0, -1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0,
    0, 1,
];

/// `6x + 2` in non-adjacent form, most significant digit first: 66
/// digits, 22 of them non-zero (the binary form has 37 set bits).
const ATE_LOOP_NAF: [i8; 66] = [
    1, 0, -1, 0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 0, -1, 0, 1, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0, 1, 0, 0,
    -1, 0, 1, 0, 0, -1, 0, 0, 0, 0, -1, 0, 1, 0, 0, 0, -1, 0, -1, 0, 0, 1, 0, 0, 0, -1, 0, 0, -1, 0,
    1, 0, 1, 0, 0, 0,
];

const fn fp2(c0: [u64; 4], c1: [u64; 4]) -> F2 {
    F2::new(F::from_mont(Uint(c0)), F::from_mont(Uint(c1)))
}

/// `FROBENIUS[k − 1][m − 1] = ξ^{m(p^k − 1)/6}` in Montgomery form: the
/// factor `w^{m·p^k}/w^m` the coefficient of `w^m` picks up under
/// `x ↦ x^{p^k}`. The `k = 2` row lies in `Fp`.
const FROBENIUS: [[F2; 5]; 3] = [
    [
        fp2(
            [0xaf9ba69633144907, 0xca6b1d7387afb78a, 0x11bded5ef08a2087, 0x02f34d751a1f3a7c],
            [0xa222ae234c492d72, 0xd00f02a4565de15b, 0xdc2ff3a253dfc926, 0x10a75716b3899551],
        ),
        fp2(
            [0xb5773b104563ab30, 0x347f91c8a9aa6454, 0x7a007127242e0991, 0x1956bcd8118214ec],
            [0x6e849f1ea0aa4757, 0xaa1c7b6d89f89141, 0xb6e713cdfae0ca3a, 0x26694fbb4e82ebc3],
        ),
        fp2(
            [0xe4bbdd0c2936b629, 0xbb30f162e133bacb, 0x31a9d1b6f9645366, 0x253570bea500f8dd],
            [0xa1d77ce45ffe77c7, 0x07affd117826d1db, 0x6d16bd27bb7edc6b, 0x2c87200285defecc],
        ),
        fp2(
            [0x7361d77f843abe92, 0xa5bb2bd3273411fb, 0x9c941f314b3e2399, 0x15df9cddbb9fd3ec],
            [0x5dddfd154bd8c949, 0x62cb29a5a4445b60, 0x37bc870a0c7dd2b9, 0x24830a9d3171f0fd],
        ),
        fp2(
            [0xc970692f41690fe7, 0xe240342127694b0b, 0x32bee66b83c459e8, 0x12aabced0ab08841],
            [0x0d485d2340aebfa9, 0x05193418ab2fcc57, 0xd3b0a40b8a4910f5, 0x2f21ebb535d2925a],
        ),
    ],
    [
        fp2([0xca8d800500fa1bf2, 0xf0c5d61468b39769, 0x0e201271ad0d4418, 0x04290f65bad856e6], [0; 4]),
        fp2([0x3350c88e13e80b9c, 0x7dce557cdb5e56b9, 0x6001b4b8b615564a, 0x2682e617020217e0], [0; 4]),
        fp2([0x68c3488912edefaa, 0x8d087f6872aabf4f, 0x51e1a24709081231, 0x2259d6b14729c0fa], [0; 4]),
        fp2([0x71930c11d782e155, 0xa6bb947cffbe3323, 0xaa303344d4741444, 0x2c3b3f0d26594943], [0; 4]),
        fp2([0x08cfc388c494f1ab, 0x19b315148d1373d4, 0x584e90fdcb6c0213, 0x09e1685bdf2f8849], [0; 4]),
    ],
    [
        fp2(
            [0x365316184e46d97d, 0x0af7129ed4c96d9f, 0x659da72fca1009b5, 0x08116d8983a20d23],
            [0xb1df4af7c39c1939, 0x3d9f02878a73bf7f, 0x9b2220928caf0ae0, 0x26684515eff054a6],
        ),
        fp2(
            [0xc9af22f716ad6bad, 0xb311782a4aa662b2, 0x19eeaf64e248c7f4, 0x20273e77e3439f82],
            [0xacc02860f7ce93ac, 0x3933d5817ba76b4c, 0x69e6188b446c8467, 0x0a46036d4417cc55],
        ),
        fp2(
            [0x5764af0aaf46471e, 0xdc50792e873e0fc1, 0x86a673ff881d04f6, 0x0b2eddb43c30a74c],
            [0x9a490f32787e8580, 0x8fd16d7ff04af8b1, 0x4b39888ec6027bf2, 0x03dd2e705b52a15d],
        ),
        fp2(
            [0x448a93a57b6762df, 0xbfd62df528fdeadf, 0xd858f5d00e9bd47a, 0x06b03d4d3476ec58],
            [0x2b19daf4bcc936d1, 0xa1a54e7a56f4299f, 0xb533eee05adeaef1, 0x170c812b84dda0b2],
        ),
        fp2(
            [0xe0bc4b2275cf559f, 0xc238b945c154e60f, 0x803982a5929a7d5e, 0x15ce052df7e4a37e],
            [0x2d28efbdbf3799a7, 0x9b097e3c1ad60773, 0x982d4113af4a535b, 0x24e18991e3056063],
        ),
    ],
];

/// `a·ξ` by additions: `(9a₀ − a₁) + (9a₁ + a₀)u`.
fn mul_by_xi(a: F2) -> F2 {
    let nine = |c: F| c.double().double().double() + c;
    F2::new(nine(a.c0) - a.c1, nine(a.c1) + a.c0)
}

/// `a·s` for a base-field `s`.
fn scale(a: F2, s: F) -> F2 {
    F2::new(a.c0 * s, a.c1 * s)
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
    pub const ZERO: Self = Self::new(F2::ZERO, F2::ZERO, F2::ZERO);
    /// Multiplicative identity.
    pub const ONE: Self = Self::new(F2::ONE, F2::ZERO, F2::ZERO);

    /// Builds an element from its coefficients.
    pub const fn new(c0: F2, c1: F2, c2: F2) -> Self {
        Self { c0, c1, c2 }
    }

    fn add(&self, o: &Self) -> Self {
        Self::new(self.c0 + o.c0, self.c1 + o.c1, self.c2 + o.c2)
    }

    fn sub(&self, o: &Self) -> Self {
        Self::new(self.c0 - o.c0, self.c1 - o.c1, self.c2 - o.c2)
    }

    /// Karatsuba multiplication: six `Fp²` products.
    fn mul(&self, o: &Self) -> Self {
        let (a, b) = (self, o);
        let (t0, t1, t2) = (a.c0 * b.c0, a.c1 * b.c1, a.c2 * b.c2);
        Self::new(
            t0 + mul_by_xi((a.c1 + a.c2) * (b.c1 + b.c2) - t1 - t2),
            (a.c0 + a.c1) * (b.c0 + b.c1) - t0 - t1 + mul_by_xi(t2),
            (a.c0 + a.c2) * (b.c0 + b.c2) - t0 - t2 + t1,
        )
    }

    /// `self·(b0 + b1·v)`: five `Fp²` products.
    fn mul_by_01(&self, b0: F2, b1: F2) -> Self {
        let (t0, t1) = (self.c0 * b0, self.c1 * b1);
        Self::new(
            t0 + mul_by_xi(self.c2 * b1),
            (self.c0 + self.c1) * (b0 + b1) - t0 - t1,
            self.c2 * b0 + t1,
        )
    }

    /// `self·b` for `b ∈ Fp²`.
    fn mul_by_0(&self, b: F2) -> Self {
        Self::new(self.c0 * b, self.c1 * b, self.c2 * b)
    }

    /// Multiplication by `v`.
    fn mul_by_v(&self) -> Self {
        Self::new(mul_by_xi(self.c2), self.c0, self.c1)
    }

    fn inverse(&self) -> Option<Self> {
        let t0 = self.c0.square() - mul_by_xi(self.c1 * self.c2);
        let t1 = mul_by_xi(self.c2.square()) - self.c0 * self.c1;
        let t2 = self.c1.square() - self.c0 * self.c2;
        let norm = self.c0 * t0 + mul_by_xi(self.c2 * t1 + self.c1 * t2);
        let inv = norm.inverse()?;
        Some(Self::new(t0 * inv, t1 * inv, t2 * inv))
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
    /// Additive identity.
    pub const ZERO: Self = Self::new(Fp6::ZERO, Fp6::ZERO);
    /// Multiplicative identity.
    pub const ONE: Self = Self::new(Fp6::ONE, Fp6::ZERO);

    /// Builds an element from its `Fp⁶` halves.
    pub const fn new(c0: Fp6, c1: Fp6) -> Self {
        Self { c0, c1 }
    }

    /// Is this the multiplicative identity?
    pub fn is_one(&self) -> bool {
        *self == Self::ONE
    }

    /// Karatsuba multiplication: three `Fp⁶` products.
    pub fn mul(&self, o: &Self) -> Self {
        let aa = self.c0.mul(&o.c0);
        let bb = self.c1.mul(&o.c1);
        let mid = self.c0.add(&self.c1).mul(&o.c0.add(&o.c1));
        Self::new(aa.add(&bb.mul_by_v()), mid.sub(&aa).sub(&bb))
    }

    /// Complex squaring: two `Fp⁶` products.
    pub fn square(&self) -> Self {
        let (a, b) = (&self.c0, &self.c1);
        let ab = a.mul(b);
        let c0 = a.add(b).mul(&a.add(&b.mul_by_v()));
        Self::new(c0.sub(&ab).sub(&ab.mul_by_v()), ab.add(&ab))
    }

    /// Granger–Scott squaring, exact only in the cyclotomic subgroup (every
    /// value after the easy part of the final exponentiation): three
    /// squarings in `Fp⁴ = Fp²[s]/(s² − ξ)`, nine `Fp²` squarings.
    fn cyclotomic_square(&self) -> Self {
        let fp4_square = |a: F2, b: F2| {
            let (a2, b2) = (a.square(), b.square());
            (a2 + mul_by_xi(b2), (a + b).square() - a2 - b2)
        };
        let (z0, z4, z3) = (self.c0.c0, self.c0.c1, self.c0.c2);
        let (z2, z1, z5) = (self.c1.c0, self.c1.c1, self.c1.c2);
        let (t0, t1) = fp4_square(z0, z1);
        let (t2, t3) = fp4_square(z2, z3);
        let (t4, t5) = fp4_square(z4, z5);
        let minus = |t: F2, z: F2| (t - z).double() + t;
        let plus = |t: F2, z: F2| (t + z).double() + t;
        Self::new(
            Fp6::new(minus(t0, z0), minus(t2, z4), minus(t4, z3)),
            Fp6::new(plus(mul_by_xi(t5), z2), plus(t1, z1), plus(t3, z5)),
        )
    }

    /// `self·(l0 + l3·w + l4·w³)`, a line value: thirteen `Fp²` products.
    fn mul_by_034(&self, &(l0, l3, l4): &Line) -> Self {
        let a = self.c0.mul_by_0(l0);
        let b = self.c1.mul_by_01(l3, l4);
        let e = self.c0.add(&self.c1).mul_by_01(l0 + l3, l4);
        Self::new(a.add(&b.mul_by_v()), e.sub(&a).sub(&b))
    }

    /// Multiplicative inverse, or `None` for zero.
    pub fn inverse(&self) -> Option<Self> {
        // (c0 + c1 w)⁻¹ = (c0 − c1 w)/(c0² − c1² v)
        let denom = self.c0.mul(&self.c0).sub(&self.c1.mul(&self.c1).mul_by_v());
        let inv = denom.inverse()?;
        Some(Self::new(self.c0.mul(&inv), Fp6::ZERO.sub(&self.c1.mul(&inv))))
    }

    /// Conjugation over `w`: `x ↦ x^{p⁶}`, the inverse in the cyclotomic
    /// subgroup.
    pub fn conjugate(&self) -> Self {
        Self::new(self.c0, Fp6::ZERO.sub(&self.c1))
    }

    /// `x ↦ x^{p^k}` for `k ∈ {1, 2, 3}`. The coefficients of `1, v, v²`
    /// are those of `w⁰, w², w⁴`, and those of `w·(1, v, v²)` are of
    /// `w¹, w³, w⁵`.
    fn frobenius_map(&self, k: usize) -> Self {
        let g = &FROBENIUS[k - 1];
        let c = |a: F2| if k % 2 == 1 { a.conjugate() } else { a };
        let (a, b) = (&self.c0, &self.c1);
        Self::new(
            Fp6::new(c(a.c0), c(a.c1) * g[1], c(a.c2) * g[3]),
            Fp6::new(c(b.c0) * g[0], c(b.c1) * g[2], c(b.c2) * g[4]),
        )
    }

    /// `self^x` for the BN parameter, in the cyclotomic subgroup (where
    /// the conjugate is the inverse).
    fn cyclotomic_exp_x(&self) -> Self {
        let inverse = self.conjugate();
        let mut acc = *self;
        for &digit in &X_NAF[1..] {
            acc = acc.cyclotomic_square();
            match digit {
                1 => acc = acc.mul(self),
                -1 => acc = acc.mul(&inverse),
                _ => {}
            }
        }
        acc
    }
}

// ---------------------------------------------------------------------------
// the pairing
// ---------------------------------------------------------------------------

/// A line evaluated at `P`: its coefficients of `1`, `w` and `w³`, up to an
/// `Fp²` factor the final exponentiation removes.
type Line = (F2, F2, F2);

/// One pair of the multi-Miller loop: `P`, and `Q` with its running
/// multiple `T = (X : Y : Z)` on the twist.
struct MillerPair {
    px: F,
    py: F,
    q: (F2, F2),
    t: [F2; 3],
}

impl MillerPair {
    /// `T ← 2T`, returning the tangent at `T`. The coordinates are four
    /// times those of the halving formula (Costello–Lange–Naehrig, in
    /// Aranha et al.'s form), which spares the two halvings.
    fn double(&mut self, three_b: F2) -> Line {
        let [x, y, z] = self.t;
        let (b, c, j) = (y.square(), z.square(), x.square());
        let e = three_b * c;
        let f = e.double() + e;
        let h = (y + z).square() - b - c;
        let e2 = e.square();
        self.t = [
            (x * y * (b - f)).double(),
            (b + f).square() - (e2.double() + e2).double().double(),
            (b * h).double().double(),
        ];
        (scale(-h, self.py), scale(j.double() + j, self.px), e - b)
    }

    /// `T ← T + R` for an affine `R ≠ ±T`, returning the line through both.
    fn add(&mut self, (rx, ry): (F2, F2)) -> Line {
        let [x, y, z] = self.t;
        let theta = y - ry * z;
        let lambda = x - rx * z;
        let d = lambda.square();
        let e = lambda * d;
        let g = x * d;
        let h = e + z * theta.square() - g.double();
        self.t = [lambda * h, theta * (g - h) - e * y, z * e];
        let l4 = theta * rx - lambda * ry;
        (scale(lambda, self.py), scale(-theta, self.px), l4)
    }
}

/// The optimal ate Miller loop of every pair at once, `Π f_{6x+2,Qᵢ}(Pᵢ)`
/// times the two Frobenius lines, up to factors the final exponentiation
/// removes. A pair with an identity side contributes one.
pub fn multi_miller_loop(terms: &[(G1, G2)]) -> Fp12 {
    let b = Bn254G2::b();
    let three_b = b.double() + b;
    let mut pairs: Vec<MillerPair> = terms
        .iter()
        .filter(|(p, q)| !p.infinity && !q.infinity)
        .map(|(p, q)| MillerPair {
            px: p.x,
            py: p.y,
            q: (q.x, q.y),
            t: [q.x, q.y, F2::ONE],
        })
        .collect();
    let mut f = Fp12::ONE;
    for &digit in &ATE_LOOP_NAF[1..] {
        f = f.square();
        for pair in &mut pairs {
            f = f.mul_by_034(&pair.double(three_b));
            if digit != 0 {
                let (qx, qy) = pair.q;
                f = f.mul_by_034(&pair.add((qx, if digit > 0 { qy } else { -qy })));
            }
        }
    }
    // T + π(Q), then + (−π²(Q)); on the twist π is a conjugation and a
    // scaling. T ends at −π³(Q), whose vertical line lies in Fp⁶ and is
    // left out
    let [g1, g2, _] = &FROBENIUS;
    for pair in &mut pairs {
        let (qx, qy) = pair.q;
        f = f.mul_by_034(&pair.add((qx.conjugate() * g1[1], qy.conjugate() * g1[2])));
        f = f.mul_by_034(&pair.add((qx * g2[1], -(qy * g2[2]))));
    }
    f
}

/// The final exponentiation `f ↦ f^{(p¹² − 1)/r}`; zero maps to zero.
pub fn final_exponentiation(f: &Fp12) -> Fp12 {
    let Some(inv) = f.inverse() else {
        return Fp12::ZERO;
    };
    // easy part: f^{(p⁶ − 1)(p² + 1)}
    let f = f.conjugate().mul(&inv);
    let f = f.frobenius_map(2).mul(&f);
    // hard part: f^{λ₀ + λ₁p + λ₂p² + p³} with λ₂ = 6x² + 1,
    // λ₁ = −36x³ − 18x² − 12x + 1, λ₀ = −36x³ − 30x² − 18x − 2
    let fx = f.cyclotomic_exp_x();
    let fx2 = fx.cyclotomic_exp_x();
    let fx3 = fx2.cyclotomic_exp_x();
    let y0 = f.frobenius_map(1).mul(&f.frobenius_map(2)).mul(&f.frobenius_map(3));
    let y1 = f.conjugate();
    let y2 = fx2.frobenius_map(2);
    let y3 = fx.frobenius_map(1).conjugate();
    let y4 = fx.mul(&fx2.frobenius_map(1)).conjugate();
    let y5 = fx2.conjugate();
    let y6 = fx3.mul(&fx3.frobenius_map(1)).conjugate();
    // y0 · y1² · y2⁶ · y3¹² · y4¹⁸ · y5³⁰ · y6³⁶
    let t0 = y6.cyclotomic_square().mul(&y4).mul(&y5);
    let t1 = y3.mul(&y5).mul(&t0);
    let t0 = t0.mul(&y2);
    let t1 = t1.cyclotomic_square().mul(&t0).cyclotomic_square();
    t1.mul(&y1).cyclotomic_square().mul(&t1.mul(&y0))
}

/// The optimal ate pairing `e: G1 × G2 → μ_r ⊂ Fp¹²`.
pub fn pairing(p: &G1, q: &G2) -> Fp12 {
    final_exponentiation(&multi_miller_loop(&[(*p, *q)]))
}

/// Product-of-pairings check `Π e(pᵢ, qᵢ) = 1`, the shape every Groth16
/// verification equation reduces to: one Miller loop, one final
/// exponentiation.
pub fn pairing_product_is_one(terms: &[(G1, G2)]) -> bool {
    final_exponentiation(&multi_miller_loop(terms)).is_one()
}

/// Convenience: `[k]G` reduced to affine for pairing inputs.
pub fn g1_mul(k: u64) -> G1 {
    mul_g::<Bn254G1>(k)
}

/// See [`g1_mul`].
pub fn g2_mul(k: u64) -> G2 {
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
    use distmsm_ff::FpParams;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// The BN parameter: `p = 36x⁴ + 36x³ + 24x² + 6x + 1`.
    const BN_X: u64 = 0x44e9_92b4_4a69_09f1;

    fn rand6(rng: &mut StdRng) -> Fp6 {
        Fp6::new(F2::random(rng), F2::random(rng), F2::random(rng))
    }

    fn rand12(rng: &mut StdRng) -> Fp12 {
        Fp12::new(rand6(rng), rand6(rng))
    }

    fn xi() -> F2 {
        F2::new(F::from_u64(9), F::ONE)
    }

    impl Fp12 {
        /// Exponentiation by a little-endian limb slice, square and
        /// multiply: the oracle for the library's fixed exponents.
        fn pow(&self, exp: &[u64]) -> Self {
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

    /// Schoolbook `Fp⁶` product with `v³ = ξ`, the Karatsuba oracle.
    fn schoolbook6(a: &Fp6, b: &Fp6) -> Fp6 {
        Fp6::new(
            a.c0 * b.c0 + xi() * (a.c1 * b.c2 + a.c2 * b.c1),
            a.c0 * b.c1 + a.c1 * b.c0 + xi() * (a.c2 * b.c2),
            a.c0 * b.c2 + a.c1 * b.c1 + a.c2 * b.c0,
        )
    }

    /// The easy part of the final exponentiation: lands in the cyclotomic
    /// subgroup.
    fn cyclotomic(a: &Fp12) -> Fp12 {
        let f = a.conjugate().mul(&a.inverse().unwrap());
        f.frobenius_map(2).mul(&f)
    }

    #[test]
    fn fp6_karatsuba_and_sparse_products_equal_schoolbook() {
        let mut rng = StdRng::seed_from_u64(700);
        for _ in 0..10 {
            let (a, b) = (rand6(&mut rng), rand6(&mut rng));
            assert_eq!(a.mul(&b), schoolbook6(&a, &b));
            let (b0, b1) = (F2::random(&mut rng), F2::random(&mut rng));
            assert_eq!(a.mul_by_01(b0, b1), schoolbook6(&a, &Fp6::new(b0, b1, F2::ZERO)));
            assert_eq!(a.mul_by_0(b0), schoolbook6(&a, &Fp6::new(b0, F2::ZERO, F2::ZERO)));
            assert_eq!(a.mul(&a.inverse().unwrap()), Fp6::ONE);
            // v³ = ξ
            let v3 = a.mul_by_v().mul_by_v().mul_by_v();
            assert_eq!(v3, a.mul_by_0(xi()));
            assert_eq!(mul_by_xi(b0), b0 * xi());
        }
        assert_eq!(Fp6::ZERO.inverse(), None);
    }

    #[test]
    fn fp12_products_and_squarings_agree() {
        let mut rng = StdRng::seed_from_u64(701);
        for _ in 0..10 {
            let (a, b) = (rand12(&mut rng), rand12(&mut rng));
            assert_eq!(a.mul(&b), b.mul(&a));
            assert_eq!(a.mul(&a.inverse().unwrap()), Fp12::ONE);
            assert_eq!(a.square(), a.mul(&a));
            let (l0, l3, l4) = (F2::random(&mut rng), F2::random(&mut rng), F2::random(&mut rng));
            let dense = Fp12::new(Fp6::new(l0, F2::ZERO, F2::ZERO), Fp6::new(l3, l4, F2::ZERO));
            assert_eq!(a.mul_by_034(&(l0, l3, l4)), a.mul(&dense));
            let c = cyclotomic(&a);
            assert_eq!(c.cyclotomic_square(), c.square());
            assert_eq!(c.cyclotomic_exp_x(), c.pow(&[BN_X]));
            assert_eq!(c.conjugate(), c.inverse().unwrap());
        }
        assert_eq!(Fp12::ZERO.inverse(), None);
    }

    #[test]
    fn frobenius_maps_are_p_powers() {
        let mut rng = StdRng::seed_from_u64(702);
        let a = rand12(&mut rng);
        let p = a.pow(&Bn254Fq::MODULUS.0);
        assert_eq!(a.frobenius_map(1), p);
        assert_eq!(a.frobenius_map(2), p.frobenius_map(1));
        assert_eq!(a.frobenius_map(3), p.frobenius_map(2));
        // x^{p¹²} = x
        let mut b = a;
        for _ in 0..4 {
            b = b.frobenius_map(3);
        }
        assert_eq!(b, a);
    }

    #[test]
    fn frobenius_constants_are_powers_of_xi() {
        // FROBENIUS[k − 1][m − 1] = ξ^{m(p^k − 1)/6}, exponents in exact
        // integers
        let mut p = Uint::<12>::ZERO;
        p.0[..4].copy_from_slice(&Bn254Fq::MODULUS.0);
        let mut pk = Uint::<12>::ONE;
        for (k, row) in (1..).zip(&FROBENIUS) {
            let (lo, hi) = pk.widening_mul(&p);
            assert!(hi.is_zero());
            pk = lo;
            let (e, rem) = pk.borrowing_sub(&Uint::ONE).0.div_rem_u64(6);
            assert_eq!(rem, 0);
            let root = xi().pow(&e.0);
            for (m, gamma) in (1..).zip(row) {
                assert_eq!(*gamma, root.pow(&[m]), "k = {k}, m = {m}");
            }
        }
    }

    #[test]
    fn naf_tables_spell_x_and_six_x_plus_two() {
        let value = |naf: &[i8]| naf.iter().fold(0i128, |acc, &d| 2 * acc + i128::from(d));
        let adjacent = |naf: &[i8]| naf.windows(2).any(|w| w[0] != 0 && w[1] != 0);
        assert_eq!(value(&X_NAF), i128::from(BN_X));
        assert_eq!(value(&ATE_LOOP_NAF), 6 * i128::from(BN_X) + 2);
        assert!(!adjacent(&X_NAF) && !adjacent(&ATE_LOOP_NAF));
        assert_eq!(ATE_LOOP_NAF.iter().filter(|&&d| d != 0).count(), 22);
    }

    #[test]
    fn pairing_is_nondegenerate() {
        let e = pairing(&Bn254G1::generator(), &Bn254G2::generator());
        assert!(!e.is_one(), "e(G1, G2) must not be 1");
        let er = e.pow(&Bn254Fr::MODULUS.0);
        assert!(er.is_one(), "pairing output must have order dividing r");
    }

    #[test]
    fn pairing_is_bilinear() {
        let mut rng = StdRng::seed_from_u64(703);
        let a = rng.random_range(2u64..1 << 20);
        let b = rng.random_range(2u64..1 << 20);
        let base = pairing(&Bn254G1::generator(), &Bn254G2::generator());
        assert_eq!(pairing(&g1_mul(a), &g2_mul(b)), base.pow(&[a * b]));
        assert_eq!(pairing(&g1_mul(a), &Bn254G2::generator()), base.pow(&[a]));
        assert_eq!(pairing(&Bn254G1::generator(), &g2_mul(b)), base.pow(&[b]));
    }

    #[test]
    fn pairing_product_identity() {
        // e(aG1, G2) · e(−aG1, G2) = 1
        let p = g1_mul(77);
        let g2 = Bn254G2::generator();
        assert!(pairing_product_is_one(&[(p, g2), (p.neg(), g2)]));
        assert!(!pairing_product_is_one(&[(p, g2)]));
        assert!(pairing_product_is_one(&[]));
    }

    #[test]
    fn pairing_with_identity_is_one() {
        assert!(pairing(&Affine::identity(), &Bn254G2::generator()).is_one());
        assert!(pairing(&Bn254G1::generator(), &Affine::identity()).is_one());
    }

    #[test]
    fn points_off_the_curve_do_not_panic() {
        // (0, 0) on the twist doubles to Z = 0; every later line is zero
        let zero_q = Affine::<Bn254G2>::new_unchecked(F2::ZERO, F2::ZERO);
        let off = Affine::<Bn254G1>::new_unchecked(F::from_u64(1), F::from_u64(3));
        assert_eq!(final_exponentiation(&Fp12::ZERO), Fp12::ZERO);
        for (p, q) in [(Bn254G1::generator(), zero_q), (off, Bn254G2::generator())] {
            let _ = pairing(&p, &q);
            assert!(!pairing_product_is_one(&[(p, q)]));
        }
    }
}
