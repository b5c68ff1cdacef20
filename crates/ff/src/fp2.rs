//! Quadratic extension field `Fp² = Fp[u]/(u² + 1)`.
//!
//! Needed for BN254 G2 (the second MSM input group of a Groth16 prover).
//! The irreducible polynomial is fixed to `u² + 1`, which is valid whenever
//! `-1` is a quadratic non-residue in `Fp` — true for BN254's base field
//! (`q ≡ 3 mod 4`), the only field this reproduction instantiates it for.

use crate::fp::{Fp, FpParams};
use rand::Rng;

/// An element `c0 + c1·u` of the quadratic extension of `Fp`.
///
/// # Examples
///
/// ```
/// use distmsm_ff::{Fp2, params::Bn254Fq};
///
/// type F2 = Fp2<Bn254Fq, 4>;
/// let u = F2::new(0u64.into(), 1u64.into());
/// assert_eq!(u * u, -F2::ONE); // u² = -1
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fp2<P: FpParams<N>, const N: usize> {
    /// Real part.
    pub c0: Fp<P, N>,
    /// Coefficient of `u`.
    pub c1: Fp<P, N>,
}

impl<P: FpParams<N>, const N: usize> Fp2<P, N> {
    /// The additive identity.
    pub const ZERO: Self = Self {
        c0: Fp::ZERO,
        c1: Fp::ZERO,
    };

    /// The multiplicative identity.
    pub const ONE: Self = Self {
        c0: Fp::ONE,
        c1: Fp::ZERO,
    };

    /// Builds `c0 + c1·u`.
    pub const fn new(c0: Fp<P, N>, c1: Fp<P, N>) -> Self {
        Self { c0, c1 }
    }

    /// Embeds a base-field element.
    pub const fn from_base(c0: Fp<P, N>) -> Self {
        Self { c0, c1: Fp::ZERO }
    }

    /// Returns `true` for zero.
    pub fn is_zero(&self) -> bool {
        self.c0.is_zero() && self.c1.is_zero()
    }

    /// Doubles the element.
    pub fn double(&self) -> Self {
        Self::new(self.c0.double(), self.c1.double())
    }

    /// Squares the element: `(a+bu)² = (a+b)(a−b) + 2ab·u`, two base-field
    /// multiplications.
    pub fn square(&self) -> Self {
        let a = self.c0;
        let b = self.c1;
        Self::new((a + b) * (a - b), (a * b).double())
    }

    /// Conjugate `c0 - c1·u`.
    pub fn conjugate(&self) -> Self {
        Self::new(self.c0, -self.c1)
    }

    /// Norm `c0² + c1²` (since u² = -1).
    pub fn norm(&self) -> Fp<P, N> {
        self.c0 * self.c0 + self.c1 * self.c1
    }

    /// Multiplicative inverse, or `None` for zero.
    pub fn inverse(&self) -> Option<Self> {
        let inv_norm = self.norm().inverse()?;
        Some(Self::new(self.c0 * inv_norm, -(self.c1 * inv_norm)))
    }

    /// Uniformly random element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::new(Fp::random(rng), Fp::random(rng))
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
                acc *= *self;
            }
        }
        acc
    }

    /// The Frobenius endomorphism `x ↦ x^p`; for `p ≡ 3 (mod 4)` (true for
    /// BN254) this is conjugation.
    pub fn frobenius(&self) -> Self {
        self.conjugate()
    }

    /// Square root in `Fp²`, or `None` for non-squares.
    ///
    /// Uses the norm trick: for `x = a + bu`, any root `c0 + c1·u`
    /// satisfies `c0² = (a ± √(a² + b²))/2` and `c1 = b/(2c0)`; one of the
    /// two signs yields a base-field square whenever `x` is a square.
    pub fn sqrt(&self) -> Option<Self> {
        if self.c1.is_zero() {
            // a + 0u: either √a, or √(-a)·u (since (cu)² = −c²)
            return match self.c0.sqrt() {
                Some(r) => Some(Self::new(r, Fp::ZERO)),
                None => (-self.c0).sqrt().map(|r| Self::new(Fp::ZERO, r)),
            };
        }
        let s = self.norm().sqrt()?;
        let two_inv = Fp::<P, N>::from_u64(2).inverse().expect("odd characteristic");
        let mut t = (self.c0 + s) * two_inv;
        let mut c0 = t.sqrt();
        if c0.is_none() {
            t = (self.c0 - s) * two_inv;
            c0 = t.sqrt();
        }
        let c0 = c0?;
        let c1 = self.c1 * (c0.double()).inverse()?;
        let cand = Self::new(c0, c1);
        (cand.square() == *self).then_some(cand)
    }
}

impl<P: FpParams<N>, const N: usize> Default for Fp2<P, N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<P: FpParams<N>, const N: usize> core::fmt::Display for Fp2<P, N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "({} + {}*u)", self.c0, self.c1)
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::Add for Fp2<P, N> {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.c0 + rhs.c0, self.c1 + rhs.c1)
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::Sub for Fp2<P, N> {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.c0 - rhs.c0, self.c1 - rhs.c1)
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::Mul for Fp2<P, N> {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        // Karatsuba: (a0 + a1 u)(b0 + b1 u) = a0b0 - a1b1 + ((a0+a1)(b0+b1) - a0b0 - a1b1) u
        let v0 = self.c0 * rhs.c0;
        let v1 = self.c1 * rhs.c1;
        let mixed = (self.c0 + self.c1) * (rhs.c0 + rhs.c1);
        Self::new(v0 - v1, mixed - v0 - v1)
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::Neg for Fp2<P, N> {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.c0, -self.c1)
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::AddAssign for Fp2<P, N> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::SubAssign for Fp2<P, N> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::MulAssign for Fp2<P, N> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Bn254Fq;
    use rand::{rngs::StdRng, SeedableRng};

    type F2 = Fp2<Bn254Fq, 4>;

    #[test]
    fn u_squared_is_minus_one() {
        let u = F2::new(Fp::ZERO, Fp::ONE);
        assert_eq!(u * u, -F2::ONE);
    }

    #[test]
    fn field_axioms_random() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let a = F2::random(&mut rng);
            let b = F2::random(&mut rng);
            let c = F2::random(&mut rng);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a * b, b * a);
            assert_eq!(a.square(), a * a);
            if !a.is_zero() {
                assert_eq!(a.inverse().unwrap() * a, F2::ONE);
            }
        }
    }

    #[test]
    fn complex_squaring_equals_the_product() {
        let p_minus_1 = -Fp::ONE;
        let edges = [
            F2::ZERO,
            F2::ONE,
            F2::new(Fp::ZERO, Fp::ONE),
            -F2::ONE,
            F2::new(p_minus_1, p_minus_1),
        ];
        let mut rng = StdRng::seed_from_u64(12);
        let random = (0..1000).map(|_| F2::random(&mut rng));
        for x in edges.into_iter().chain(random) {
            assert_eq!(x.square(), x * x, "{x}");
        }
    }

    #[test]
    fn norm_is_multiplicative() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = F2::random(&mut rng);
        let b = F2::random(&mut rng);
        assert_eq!((a * b).norm(), a.norm() * b.norm());
    }

    #[test]
    fn sqrt_of_square_round_trips() {
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..25 {
            let a = F2::random(&mut rng);
            let sq = a.square();
            let r = sq.sqrt().expect("squares have roots");
            assert!(r == a || r == -a);
        }
        // pure-imaginary and pure-real cases
        let b = F2::new(Fp::ZERO, Fp::from_u64(5));
        let r = b.square().sqrt().unwrap();
        assert!(r == b || r == -b);
        assert_eq!(F2::ZERO.sqrt(), Some(F2::ZERO));
    }

    #[test]
    fn sqrt_rejects_nonsquares() {
        // x is a square in Fp2 iff norm(x) is a square in Fp and the
        // reconstruction succeeds; scan until a non-square appears
        let mut rng = StdRng::seed_from_u64(11);
        let mut rejected = 0;
        for _ in 0..40 {
            let a = F2::random(&mut rng);
            if let Some(r) = a.sqrt() {
                assert_eq!(r.square(), a);
            } else {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "roughly half of Fp2 is non-square");
    }

    #[test]
    fn conjugate_properties() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = F2::random(&mut rng);
        assert_eq!(a * a.conjugate(), Fp2::from_base(a.norm()));
    }
}
