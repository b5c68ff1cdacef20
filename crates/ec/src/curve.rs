//! Short-Weierstrass curves in affine and XYZZ coordinates.
//!
//! The XYZZ system (`x = X/ZZ`, `y = Y/ZZZ`, `ZZ³ = ZZZ²`) is the one the
//! paper's kernels use: a full point addition (PADD, Algorithm 1) costs 14
//! field multiplications and the mixed *point accumulation* (PACC,
//! Algorithm 4) specialises to 10 by exploiting `ZZ = ZZZ = 1` for affine
//! inputs — the "PADD→PACC" optimisation of §4.1. [`straus`] builds the
//! short multi-scalar sums computed off the engine from the same formulas.

use crate::traits::{FieldElement, Scalar};
use rand::Rng;

/// A short-Weierstrass curve `y² = x³ + a·x + b` over [`Curve::Base`].
///
/// Implementors are zero-sized markers (see [`crate::curves`]).
pub trait Curve:
    'static + Copy + Clone + core::fmt::Debug + Send + Sync + PartialEq + Eq
{
    /// The base field of the curve (an `Fp` or `Fp2`). The
    /// [`CanonicalBytes`](crate::serialize::CanonicalBytes) bound gives
    /// every curve a canonical point wire format — checkpointed window
    /// partials and journaled completion results round-trip through it.
    type Base: FieldElement + crate::serialize::CanonicalBytes;
    /// The scalar representation (a `Uint`).
    type Scalar: Scalar;
    /// The scalar field `F_r` (the group order as a prime field), with
    /// full arithmetic — the algebra the 2G2T-style outsourcing checks
    /// blind and verify in.
    type ScalarField: FieldElement;

    /// Curve name as used in the paper's tables.
    const NAME: &'static str;
    /// Bit width λ of scalars (Table 1).
    const SCALAR_BITS: u32;
    /// Whether `a = 0` (saves one multiplication in PDBL).
    const A_IS_ZERO: bool;
    /// Whether the curve's cofactor is 1 — i.e. the whole curve group
    /// *is* the prime-order subgroup. When true, admission-time
    /// validation ([`crate::validate`]) can skip the order
    /// multiplication: every on-curve point is automatically in the
    /// subgroup.
    const COFACTOR_IS_ONE: bool;

    /// The `a` coefficient.
    fn a() -> Self::Base;
    /// The `b` coefficient.
    fn b() -> Self::Base;
    /// A generator of the prime-order subgroup.
    fn generator() -> Affine<Self>;
    /// A uniformly random scalar below the group order.
    fn random_scalar<R: Rng + ?Sized>(rng: &mut R) -> Self::Scalar;
    /// Lifts a canonical scalar (`< r`) into the scalar field.
    fn scalar_to_field(s: &Self::Scalar) -> Self::ScalarField;
    /// Canonical representative (`< r`) of a scalar-field element.
    fn field_to_scalar(f: &Self::ScalarField) -> Self::Scalar;
}

/// An affine point, or the point at infinity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Affine<C: Curve> {
    /// x-coordinate (meaningless when `infinity`).
    pub x: C::Base,
    /// y-coordinate (meaningless when `infinity`).
    pub y: C::Base,
    /// Marker for the identity element.
    pub infinity: bool,
}

impl<C: Curve> Affine<C> {
    /// The point at infinity.
    pub fn identity() -> Self {
        Self {
            x: C::Base::zero(),
            y: C::Base::zero(),
            infinity: true,
        }
    }

    /// Builds a finite point without checking the curve equation.
    pub fn new_unchecked(x: C::Base, y: C::Base) -> Self {
        Self {
            x,
            y,
            infinity: false,
        }
    }

    /// Is this the identity?
    pub fn is_identity(&self) -> bool {
        self.infinity
    }

    /// Checks `y² = x³ + a·x + b` (always true for the identity).
    pub fn is_on_curve(&self) -> bool {
        if self.infinity {
            return true;
        }
        let lhs = self.y.square();
        let rhs = self.x.square() * self.x + C::a() * self.x + C::b();
        lhs == rhs
    }

    /// The negation `(x, -y)`.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            infinity: self.infinity,
        }
    }

    /// Promotes to XYZZ coordinates (`ZZ = ZZZ = 1`).
    pub fn to_xyzz(&self) -> XyzzPoint<C> {
        if self.infinity {
            XyzzPoint::identity()
        } else {
            XyzzPoint {
                x: self.x,
                y: self.y,
                zz: C::Base::one(),
                zzz: C::Base::one(),
            }
        }
    }

    /// Scalar multiplication by double-and-add (the reference against which
    /// every MSM implementation is validated).
    pub fn scalar_mul(&self, k: &C::Scalar) -> XyzzPoint<C> {
        self.to_xyzz().scalar_mul(k)
    }
}

/// A point in XYZZ coordinates; `ZZ = 0` encodes the identity.
#[derive(Clone, Copy, Debug)]
pub struct XyzzPoint<C: Curve> {
    /// `X = x·ZZ`.
    pub x: C::Base,
    /// `Y = y·ZZZ`.
    pub y: C::Base,
    /// `ZZ = z²` for some projective `z`.
    pub zz: C::Base,
    /// `ZZZ = z³`, maintaining `ZZ³ = ZZZ²`.
    pub zzz: C::Base,
}

impl<C: Curve> XyzzPoint<C> {
    /// The identity element.
    pub fn identity() -> Self {
        Self {
            x: C::Base::zero(),
            y: C::Base::zero(),
            zz: C::Base::zero(),
            zzz: C::Base::zero(),
        }
    }

    /// Is this the identity?
    pub fn is_identity(&self) -> bool {
        self.zz.is_zero()
    }

    /// `ZZ = ZZZ = 1`: the point's `X`, `Y` are its affine coordinates,
    /// as [`Affine::to_xyzz`] leaves them.
    pub fn is_normalized(&self) -> bool {
        self.zz == C::Base::one() && self.zzz == C::Base::one()
    }

    /// Full PADD (paper Algorithm 1, `add-2008-s`): 14 field
    /// multiplications. Handles the identity and doubling exceptions that
    /// the GPU kernels branch around.
    ///
    /// A [normalized](Self::is_normalized) `rhs` takes the PACC formula:
    /// it is this one without its four multiplications by `ZZ₂ = ZZZ₂ = 1`,
    /// and a field product is its canonical representative, so `a·1` is
    /// `a` bit for bit and so is the sum.
    pub fn padd(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }
        if rhs.is_normalized() {
            return self.add_affine(&rhs.x, &rhs.y);
        }
        let u1 = self.x * rhs.zz;
        let u2 = rhs.x * self.zz;
        let s1 = self.y * rhs.zzz;
        let s2 = rhs.y * self.zzz;
        let p = u2 - u1;
        let r = s2 - s1;
        if p.is_zero() {
            if r.is_zero() {
                return self.pdbl();
            }
            return Self::identity();
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
        let y3 = y - t2;
        let zz = self.zz * rhs.zz;
        let zz3 = zz * pp;
        let zzz = self.zzz * rhs.zzz;
        let zzz3 = zzz * ppp;
        Self {
            x: x3,
            y: y3,
            zz: zz3,
            zzz: zzz3,
        }
    }

    /// PACC (paper Algorithm 4): accumulate an affine point into `self`
    /// using the prior knowledge `ZZ_P = ZZZ_P = 1`; 10 field
    /// multiplications. This is the hot operation of *bucket-sum*.
    pub fn pacc(&mut self, p: &Affine<C>) {
        if p.infinity {
            return;
        }
        if self.is_identity() {
            *self = p.to_xyzz();
            return;
        }
        *self = self.add_affine(&p.x, &p.y);
    }

    /// The PACC formula: `self + (x2, y2)` for a finite `self` and a
    /// finite affine point.
    fn add_affine(&self, x2: &C::Base, y2: &C::Base) -> Self {
        let u2 = *x2 * self.zz;
        let s2 = *y2 * self.zzz;
        let pp_ = u2 - self.x; // "P" of the paper; renamed to avoid the point
        let r = s2 - self.y;
        if pp_.is_zero() {
            if r.is_zero() {
                return self.pdbl();
            }
            return Self::identity();
        }
        let pp = pp_.square();
        let ppp = pp * pp_;
        let q = self.x * pp;
        let mut v = r.square();
        v -= ppp;
        v -= q;
        let x3 = v - q;
        let t = q - x3;
        let y = r * t;
        let t2 = self.y * ppp;
        Self {
            x: x3,
            y: y - t2,
            zz: self.zz * pp,
            zzz: self.zzz * ppp,
        }
    }

    /// PDBL (`dbl-2008-s-1`): point doubling in XYZZ coordinates.
    pub fn pdbl(&self) -> Self {
        if self.is_identity() {
            return *self;
        }
        let u = self.y.double();
        let v = u.square();
        let w = u * v;
        let s = self.x * v;
        let mut m = self.x.square();
        m = m.double() + m; // 3·X²
        if !C::A_IS_ZERO {
            m += C::a() * self.zz.square();
        }
        let x3 = m.square() - s.double();
        let y3 = m * (s - x3) - w * self.y;
        Self {
            x: x3,
            y: y3,
            zz: v * self.zz,
            zzz: w * self.zzz,
        }
    }

    /// The negation.
    pub fn neg(&self) -> Self {
        Self {
            x: self.x,
            y: -self.y,
            zz: self.zz,
            zzz: self.zzz,
        }
    }

    /// Converts back to affine (one field inversion).
    pub fn to_affine(&self) -> Affine<C> {
        if self.is_identity() {
            return Affine::identity();
        }
        // (ZZ·ZZZ)⁻¹·ZZZ = ZZ⁻¹ and (ZZ·ZZZ)⁻¹·ZZ = ZZZ⁻¹
        let inv_pair = (self.zz * self.zzz).inverse().expect("nonzero ZZ and ZZZ");
        let zz_inv = inv_pair * self.zzz;
        let zzz_inv = inv_pair * self.zz;
        Affine {
            x: self.x * zz_inv,
            y: self.y * zzz_inv,
            infinity: false,
        }
    }

    /// Left-to-right double-and-add scalar multiplication.
    pub fn scalar_mul(&self, k: &C::Scalar) -> Self {
        let mut acc = Self::identity();
        let bits = k.num_bits();
        for i in (0..bits).rev() {
            acc = acc.pdbl();
            if k.bit(i) {
                acc = acc.padd(self);
            }
        }
        acc
    }

    /// Batch conversion to affine with a single inversion (Montgomery's
    /// trick) — how the *precomputation* tables and sampled MSM inputs are
    /// normalised without per-point inversions.
    pub fn batch_to_affine(points: &[Self]) -> Vec<Affine<C>> {
        // prefix products of the ZZ·ZZZ pairs, skipping identities
        let mut prefix = Vec::with_capacity(points.len());
        let mut acc = C::Base::one();
        for p in points {
            prefix.push(acc);
            if !p.is_identity() {
                acc = acc * p.zz * p.zzz;
            }
        }
        let mut inv = acc.inverse().unwrap_or_else(C::Base::zero);
        let mut out = vec![Affine::identity(); points.len()];
        for (i, p) in points.iter().enumerate().rev() {
            if p.is_identity() {
                continue;
            }
            // inv_zz_zzz = (ZZ_i · ZZZ_i)⁻¹
            let inv_pair = inv * prefix[i];
            inv = inv * p.zz * p.zzz;
            let zz_inv = inv_pair * p.zzz; // (ZZ·ZZZ)⁻¹·ZZZ = ZZ⁻¹
            let zzz_inv = inv_pair * p.zz;
            out[i] = Affine {
                x: p.x * zz_inv,
                y: p.y * zzz_inv,
                infinity: false,
            };
        }
        out
    }
}

impl<C: Curve> PartialEq for XyzzPoint<C> {
    fn eq(&self, other: &Self) -> bool {
        match (self.is_identity(), other.is_identity()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => {
                self.x * other.zz == other.x * self.zz
                    && self.y * other.zzz == other.y * self.zzz
            }
        }
    }
}

impl<C: Curve> Eq for XyzzPoint<C> {}

impl<C: Curve> Default for XyzzPoint<C> {
    fn default() -> Self {
        Self::identity()
    }
}

impl<C: Curve> core::ops::Add for XyzzPoint<C> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        self.padd(&rhs)
    }
}

impl<C: Curve> core::ops::AddAssign for XyzzPoint<C> {
    fn add_assign(&mut self, rhs: Self) {
        *self = self.padd(&rhs);
    }
}

impl<C: Curve> core::iter::Sum for XyzzPoint<C> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::identity(), |a, b| a.padd(&b))
    }
}

impl<C: Curve> From<Affine<C>> for XyzzPoint<C> {
    fn from(a: Affine<C>) -> Self {
        a.to_xyzz()
    }
}

/// NAF digit width `w` of [`straus`]. A `λ`-bit scalar costs `≈ λ/(w+1)`
/// PACCs and its table one PDBL, `2^{w−2} − 1` PADDs and `2^{w−2}`
/// normalisations, so each extra bit saves a fifth or less of the
/// additions and doubles the table. In field multiplications per term,
/// widths 3 / 4 / 5 cost 676 / 595 / 602 on a 254-bit scalar (the 2G2T
/// check) and 201 / 215 / 286 on a 64-bit one (the RLC fold): 4 is within
/// 1 % and 5 % of the best width on the two shapes, the only width close
/// on both (DESIGN.md §26).
const NAF_WIDTH: u32 = 4;

/// Table entries per base: the odd multiples `1·P, 3·P, 5·P, 7·P`.
const ODD_MULTIPLES: usize = 1 << (NAF_WIDTH - 2);

/// `Σ kᵢ·Pᵢ` by Straus's interleaved method, for the short linear
/// combinations computed off the engine (the 2G2T check, the RLC
/// self-check, Groth16's blinding and public-input sums).
///
/// Each scalar is recoded into width-4 NAF digits; each base gets a table
/// of its odd multiples, and all tables are normalised together with one
/// [`XyzzPoint::batch_to_affine`] (a single field inversion). One doubling
/// chain is shared by every term, and each non-zero digit is one mixed
/// addition. Identity bases and zero scalars are skipped; no terms give
/// the identity. [`XyzzPoint::scalar_mul`] stays double-and-add: it and
/// `MsmInstance::reference_result` are the references this is tested
/// against.
pub fn straus<C: Curve>(terms: &[(XyzzPoint<C>, C::Scalar)]) -> XyzzPoint<C> {
    let terms: Vec<_> = terms
        .iter()
        .filter(|(p, k)| !p.is_identity() && k.num_bits() > 0)
        .collect();
    let mut odd = Vec::with_capacity(terms.len() * ODD_MULTIPLES);
    for (p, _) in &terms {
        let twice = p.pdbl();
        let mut m = *p;
        for _ in 0..ODD_MULTIPLES {
            odd.push(m);
            m = m.padd(&twice);
        }
    }
    let tables = XyzzPoint::batch_to_affine(&odd);
    let digits: Vec<Vec<i8>> = terms.iter().map(|(_, k)| wnaf(k)).collect();
    let len = digits.iter().map(Vec::len).max().unwrap_or(0);

    let mut acc = XyzzPoint::identity();
    for i in (0..len).rev() {
        acc = acc.pdbl();
        for (d, table) in digits.iter().zip(tables.chunks_exact(ODD_MULTIPLES)) {
            match d.get(i).copied().unwrap_or(0) {
                0 => {}
                d if d > 0 => acc.pacc(&table[d as usize / 2]),
                d => acc.pacc(&table[d.unsigned_abs() as usize / 2].neg()),
            }
        }
    }
    acc
}

/// Width-[`NAF_WIDTH`] NAF digits of `k`, least significant first, with
/// `Σ dᵢ·2^i = k`: `num_bits(k) + 1` digits, since a negative digit can
/// carry one position past the top bit.
fn wnaf<S: Scalar>(k: &S) -> Vec<i8> {
    let bits = k.num_bits();
    let mut digits = vec![0i8; bits as usize + 1];
    let mut carry = 0;
    let mut pos = 0;
    // invariant: the digits still to come sum to ⌊k / 2^pos⌋ + carry
    while pos < bits || carry != 0 {
        let window = carry + k.window(pos, NAF_WIDTH);
        if window % 2 == 0 {
            pos += 1;
            continue;
        }
        let digit = if window < 1 << (NAF_WIDTH - 1) {
            carry = 0;
            window as i8
        } else {
            carry = 1;
            window as i8 - (1 << NAF_WIDTH)
        };
        digits[pos as usize] = digit;
        pos += NAF_WIDTH;
    }
    digits
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ff::Uint;

    fn value(digits: &[i8]) -> i128 {
        digits.iter().rev().fold(0, |acc, &d| 2 * acc + i128::from(d))
    }

    #[test]
    fn wnaf_digits_are_odd_sparse_and_sum_to_the_scalar() {
        let samples = (0..4096u64)
            .chain([u64::MAX, u64::MAX - 1, 1 << 63, (1 << 63) - 1])
            .chain((0..64).map(|s| 0x9e37_79b9_7f4a_7c15u64.rotate_left(s)));
        for k in samples {
            let digits = wnaf(&Uint::<1>::from_u64(k));
            assert_eq!(value(&digits), i128::from(k), "k = {k}");
            assert_eq!(digits.len(), 64 - k.leading_zeros() as usize + 1);
            let nonzero: Vec<usize> = (0..digits.len()).filter(|&i| digits[i] != 0).collect();
            for &i in &nonzero {
                assert!(digits[i] % 2 != 0 && digits[i].unsigned_abs() < 1 << (NAF_WIDTH - 1));
            }
            for pair in nonzero.windows(2) {
                assert!(pair[1] - pair[0] >= NAF_WIDTH as usize, "k = {k}: {digits:?}");
            }
        }
    }
}
