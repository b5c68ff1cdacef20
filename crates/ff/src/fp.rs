//! Generic Montgomery-form prime field.
//!
//! [`Fp<P, N>`] is a field element of the prime field described by the
//! parameter type `P` (one of the markers in [`crate::params`]). Elements
//! are kept in the Montgomery domain at all times; conversion happens only
//! at the API boundary ([`Fp::from_uint`] / [`Fp::to_uint`]).

use crate::mont::{
    add_mod, carry_free, compute_r, compute_r2, mont_inv64, mont_mul_cios, mont_mul_sos,
    mont_reduce_sos, sub_mod, two_adicity,
};
use crate::uint::{mac, Uint};
use core::marker::PhantomData;
use rand::Rng;

/// Compile-time description of a prime field.
///
/// Implementors are zero-sized marker types; only [`FpParams::MODULUS`] and
/// [`FpParams::NAME`] must be provided — every Montgomery constant is derived
/// from the modulus by `const fn`s so the tables cannot drift out of sync.
///
/// This trait is not intended to be implemented outside this workspace but is
/// left open so downstream experiments can add curves.
pub trait FpParams<const N: usize>:
    'static + Sized + Copy + Clone + Send + Sync + core::fmt::Debug + PartialEq + Eq
{
    /// The prime modulus. Must be odd and leave the top bit of its top
    /// limb clear ([`crate::mont::carry_free`]): every constructor of
    /// [`Fp`] refuses to compile otherwise.
    ///
    /// ```compile_fail
    /// use distmsm_ff::{Fp, FpParams, Uint};
    ///
    /// #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    /// struct NoHeadroom;
    /// impl FpParams<1> for NoHeadroom {
    ///     const MODULUS: Uint<1> = Uint([0xffff_ffff_ffff_ffc5]); // 2^64 − 59
    ///     const NAME: &'static str = "no headroom";
    /// }
    /// let _ = Fp::<NoHeadroom, 1>::ONE;
    /// ```
    const MODULUS: Uint<N>;
    /// Human-readable field name (used in diagnostics and reports).
    const NAME: &'static str;

    /// `-MODULUS⁻¹ mod 2^64` (the `n′₀` of the paper's Algorithm 2).
    const INV: u64 = mont_inv64(Self::MODULUS.0[0]);
    /// `R = 2^(64N) mod MODULUS` — the Montgomery form of one.
    const R: Uint<N> = compute_r(&Self::MODULUS);
    /// `R² mod MODULUS` — converts canonical values into the domain.
    const R2: Uint<N> = compute_r2(&Self::MODULUS);
    /// Two-adicity `s` of `MODULUS - 1 = 2^s · odd` (bounds NTT sizes).
    const TWO_ADICITY: u32 = two_adicity(&Self::MODULUS);
    /// Significant bits of the modulus (the `λ` / point widths of Table 1).
    const MODULUS_BITS: u32 = Self::MODULUS.num_bits();
}

/// An element of the prime field `P`, stored in Montgomery form.
///
/// # Examples
///
/// ```
/// use distmsm_ff::{Fp, params::Bn254Fq};
///
/// type F = Fp<Bn254Fq, 4>;
/// let a = F::from_u64(3);
/// let b = F::from_u64(4);
/// assert_eq!((a + b) * a, F::from_u64(21));
/// assert_eq!(a.inverse().unwrap() * a, F::ONE);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp<P: FpParams<N>, const N: usize> {
    repr: Uint<N>,
    _params: PhantomData<P>,
}

impl<P: FpParams<N>, const N: usize> Fp<P, N> {
    /// The compile-time form of the precondition on [`FpParams::MODULUS`]
    /// that [`mont_mul_cios`] relies on.
    const CARRY_FREE: () = assert!(
        carry_free(&P::MODULUS),
        "the modulus must leave the top bit of its top limb clear"
    );

    /// The additive identity.
    pub const ZERO: Self = Self::from_mont(Uint::ZERO);

    /// The multiplicative identity (Montgomery form `R`).
    pub const ONE: Self = Self::from_mont(P::R);

    /// The field modulus (re-exported from the parameter type for
    /// convenience at use sites that only know the alias).
    pub const MODULUS: Uint<N> = P::MODULUS;

    /// Significant bits of the modulus.
    pub const MODULUS_BITS: u32 = P::MODULUS_BITS;

    /// Two-adicity of the multiplicative group.
    pub const TWO_ADICITY: u32 = P::TWO_ADICITY;

    /// Human-readable field name.
    pub const NAME: &'static str = P::NAME;

    /// Wraps an already-Montgomery-form representation.
    ///
    /// Callers must guarantee `repr < MODULUS`; this is the raw constructor
    /// used by the simulated GPU kernels, which operate on Montgomery limbs
    /// directly.
    #[inline]
    pub const fn from_mont(repr: Uint<N>) -> Self {
        let () = Self::CARRY_FREE;
        Self {
            repr,
            _params: PhantomData,
        }
    }

    /// The raw Montgomery-form limbs.
    #[inline]
    pub const fn mont_repr(&self) -> &Uint<N> {
        &self.repr
    }

    /// Converts an integer into the field, reducing it modulo `p`.
    ///
    /// One product by `R²` for any `v < 2^(64N)`: [`mont_mul_cios`] takes a
    /// full-width first operand.
    pub fn from_uint(v: &Uint<N>) -> Self {
        Self::from_mont(mont_mul_cios(v, &P::R2, &P::MODULUS, P::INV))
    }

    /// Converts a small integer into the field.
    pub fn from_u64(v: u64) -> Self {
        Self::from_uint(&Uint::from_u64(v))
    }

    /// Converts back to the canonical integer in `[0, p)`.
    pub fn to_uint(&self) -> Uint<N> {
        mont_mul_cios(&self.repr, &Uint::ONE, &P::MODULUS, P::INV)
    }

    /// Returns `true` for the additive identity.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.repr.is_zero()
    }

    /// Returns `true` for the multiplicative identity.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.repr == P::R
    }

    /// Doubles the element.
    #[inline]
    pub fn double(&self) -> Self {
        Self::from_mont(add_mod(&self.repr, &self.repr, &P::MODULUS))
    }

    /// Squares the element: each cross product once, doubled, plus the
    /// diagonal ([`Uint::widening_square`]), then one reduction.
    #[inline]
    pub fn square(&self) -> Self {
        let (lo, hi) = self.repr.widening_square();
        Self::from_mont(mont_reduce_sos(&lo, &hi, &P::MODULUS, P::INV))
    }

    /// Montgomery multiplication via the SOS method (paper Algorithm 2),
    /// functionally identical to `*` (which uses CIOS); exposed so the
    /// kernel-model crate can compare both schedules.
    pub fn mul_sos(&self, rhs: &Self) -> Self {
        Self::from_mont(mont_mul_sos(&self.repr, &rhs.repr, &P::MODULUS, P::INV))
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

    /// Multiplicative inverse, or `None` for zero.
    ///
    /// A binary extended Euclid on the limbs: `(u, v)` starts at
    /// `(aR, p)` and the cofactors `(b, c)` at `(R², 0)`, keeping
    /// `b·aR ≡ u·R²` and `c·aR ≡ v·R²`; each step strips the factors of 2
    /// from `u` or `v` (halving its cofactor modulo `p`) and subtracts the
    /// smaller from the larger. When `u = 1`, `b = a⁻¹R`, the Montgomery
    /// form of the inverse.
    ///
    /// **Variable-time**: the steps taken depend on `a`. Public values
    /// (curve points, proof elements, pairing values, NTT constants) and
    /// secrets blinded by an independent random factor may reach it; a
    /// bare secret must not (DESIGN.md §26, "What is and is not
    /// variable-time").
    pub fn inverse(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        let p = &P::MODULUS;
        let (mut u, mut v) = (self.repr, *p);
        let (mut b, mut c) = (P::R2, Uint::ZERO);
        loop {
            strip_twos(&mut u, &mut b, p, P::INV);
            if u == Uint::ONE {
                return Some(Self::from_mont(b));
            }
            strip_twos(&mut v, &mut c, p, P::INV);
            if v == Uint::ONE {
                return Some(Self::from_mont(c));
            }
            // both odd and distinct: the difference is even and nonzero
            if v.lt(&u) {
                u = u.borrowing_sub(&v).0;
                b = sub_mod(&b, &c, p);
            } else {
                v = v.borrowing_sub(&u).0;
                c = sub_mod(&c, &b, p);
            }
        }
    }

    /// Legendre symbol: `1` for a nonzero square, `-1` for a non-square,
    /// `0` for zero.
    pub fn legendre(&self) -> i32 {
        if self.is_zero() {
            return 0;
        }
        let (pm1, _) = P::MODULUS.borrowing_sub(&Uint::ONE);
        let e = pm1.shr1();
        let r = self.pow(&e.0);
        if r == Self::ONE {
            1
        } else {
            -1
        }
    }

    /// Square root via Tonelli–Shanks, or `None` for non-squares.
    ///
    /// Used for deterministic curve-point sampling: pick `x`, solve for `y`.
    pub fn sqrt(&self) -> Option<Self> {
        if self.is_zero() {
            return Some(*self);
        }
        if self.legendre() != 1 {
            return None;
        }
        let s = P::TWO_ADICITY;
        let (pm1, _) = P::MODULUS.borrowing_sub(&Uint::ONE);
        let q = pm1.shr(s); // odd part
        if s == 1 {
            // p ≡ 3 (mod 4): a^((p+1)/4)
            let (p1, _) = P::MODULUS.carrying_add(&Uint::ONE);
            let e = p1.shr(2);
            let r = self.pow(&e.0);
            return (r.square() == *self).then_some(r);
        }
        // find a quadratic non-residue z
        let mut z = Self::from_u64(2);
        while z.legendre() != -1 {
            z += Self::ONE;
        }
        let mut m = s;
        let mut c = z.pow(&q.0);
        let mut t = self.pow(&q.0);
        let q1 = {
            let (v, _) = q.carrying_add(&Uint::ONE);
            v.shr1()
        };
        let mut r = self.pow(&q1.0);
        while !t.is_one() {
            let mut i = 0;
            let mut t2 = t;
            while !t2.is_one() {
                t2 = t2.square();
                i += 1;
                if i == m {
                    return None;
                }
            }
            let mut b = c;
            for _ in 0..(m - i - 1) {
                b = b.square();
            }
            m = i;
            c = b.square();
            t *= c;
            r *= b;
        }
        (r.square() == *self).then_some(r)
    }

    /// Uniformly random field element.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling on the top limb keeps the distribution uniform.
        loop {
            let mut limbs = [0u64; N];
            for l in &mut limbs {
                *l = rng.random();
            }
            let top_bits = P::MODULUS_BITS % 64;
            if top_bits != 0 {
                limbs[N - 1] &= (1u64 << top_bits) - 1;
            }
            let v = Uint(limbs);
            if v.lt(&P::MODULUS) {
                return Self::from_mont(mont_mul_cios(&v, &P::R2, &P::MODULUS, P::INV));
            }
        }
    }

    /// A 2^`log_n`-th primitive root of unity, or `None` if the field's
    /// two-adicity is insufficient. The generator is found by searching for
    /// a quadratic non-residue, whose `(p-1)/2^s` power has exact order
    /// `2^s`.
    pub fn root_of_unity(log_n: u32) -> Option<Self> {
        if log_n > P::TWO_ADICITY {
            return None;
        }
        let mut g = Self::from_u64(2);
        while g.legendre() != -1 {
            g += Self::ONE;
        }
        let (pm1, _) = P::MODULUS.borrowing_sub(&Uint::ONE);
        let e = pm1.shr(log_n);
        Some(g.pow(&e.0))
    }
}

/// Divides `x` by its largest power-of-two factor `2^k` (`x ≠ 0`) and
/// `cofactor` by `2^k` modulo `p`, up to 63 bits at a time: adding
/// `q·p` with `q = −cofactor·p⁻¹ mod 2^s` clears the low `s` bits, and
/// `(cofactor + q·p) / 2^s < p` needs no reduction.
fn strip_twos<const N: usize>(x: &mut Uint<N>, cofactor: &mut Uint<N>, p: &Uint<N>, inv: u64) {
    loop {
        let s = x.0[0].trailing_zeros().min(63);
        if s == 0 {
            return;
        }
        *x = x.shr(s);
        let q = cofactor.0[0].wrapping_mul(inv) & ((1u64 << s) - 1);
        let mut carry = 0u64;
        for (limb, &p_j) in cofactor.0.iter_mut().zip(&p.0) {
            let (v, c) = mac(*limb, q, p_j, carry);
            *limb = v;
            carry = c;
        }
        // shift the N + 1 limbs (cofactor, carry) right by s
        for j in 0..N {
            let next = if j + 1 < N { cofactor.0[j + 1] } else { carry };
            cofactor.0[j] = (cofactor.0[j] >> s) | (next << (64 - s));
        }
    }
}

impl<P: FpParams<N>, const N: usize> Default for Fp<P, N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<P: FpParams<N>, const N: usize> core::fmt::Debug for Fp<P, N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}(0x{:x})", P::NAME, self.to_uint())
    }
}

impl<P: FpParams<N>, const N: usize> core::fmt::Display for Fp<P, N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "0x{:x}", self.to_uint())
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::Add for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::from_mont(add_mod(&self.repr, &rhs.repr, &P::MODULUS))
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::Sub for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::from_mont(sub_mod(&self.repr, &rhs.repr, &P::MODULUS))
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::Mul for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::from_mont(mont_mul_cios(&self.repr, &rhs.repr, &P::MODULUS, P::INV))
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::Neg for Fp<P, N> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Self::from_mont(sub_mod(&Uint::ZERO, &self.repr, &P::MODULUS))
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::AddAssign for Fp<P, N> {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::SubAssign for Fp<P, N> {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl<P: FpParams<N>, const N: usize> core::ops::MulAssign for Fp<P, N> {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<P: FpParams<N>, const N: usize> core::iter::Sum for Fp<P, N> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<P: FpParams<N>, const N: usize> core::iter::Product for Fp<P, N> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl<P: FpParams<N>, const N: usize> From<u64> for Fp<P, N> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Bn254Fq, Bn254Fr, Mnt4753Fq};
    use rand::{rngs::StdRng, SeedableRng};

    type F = Fp<Bn254Fq, 4>;
    type Fr = Fp<Bn254Fr, 4>;
    type Fbig = Fp<Mnt4753Fq, 12>;

    #[test]
    fn identities() {
        assert!(F::ZERO.is_zero());
        assert!(F::ONE.is_one());
        assert_eq!(F::ONE.to_uint(), Uint::ONE);
        assert_eq!(F::from_u64(0), F::ZERO);
    }

    #[test]
    fn add_sub_neg() {
        let a = F::from_u64(100);
        let b = F::from_u64(58);
        assert_eq!(a - b, F::from_u64(42));
        assert_eq!(b - a, -F::from_u64(42));
        assert_eq!(a + (-a), F::ZERO);
    }

    #[test]
    fn mul_distributes() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = F::random(&mut rng);
            let b = F::random(&mut rng);
            let c = F::random(&mut rng);
            assert_eq!(a * (b + c), a * b + a * c);
            assert_eq!(a.mul_sos(&b), a * b);
        }
    }

    #[test]
    fn inverse_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let a = F::random(&mut rng);
            if a.is_zero() {
                continue;
            }
            assert_eq!(a.inverse().unwrap() * a, F::ONE);
        }
        assert!(F::ZERO.inverse().is_none());
    }

    #[test]
    fn sqrt_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut squares = 0;
        for _ in 0..20 {
            let a = F::random(&mut rng);
            let sq = a.square();
            let r = sq.sqrt().expect("square must have a root");
            assert!(r == a || r == -a);
            squares += 1;
        }
        assert!(squares > 0);
    }

    #[test]
    fn sqrt_of_nonresidue_is_none() {
        // find a non-residue and check
        let mut z = F::from_u64(2);
        while z.legendre() != -1 {
            z += F::ONE;
        }
        assert!(z.sqrt().is_none());
    }

    #[test]
    fn mnt4753_field_works() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = Fbig::random(&mut rng);
        let b = Fbig::random(&mut rng);
        assert_eq!((a + b) - b, a);
        assert_eq!(a * b * b.inverse().unwrap(), a);
        assert_eq!(a.mul_sos(&b), a * b);
        assert_eq!(Fbig::MODULUS_BITS, 753);
    }

    #[test]
    fn bn254_fr_two_adic_root() {
        assert_eq!(Fr::TWO_ADICITY, 28);
        let w = Fr::root_of_unity(4).unwrap();
        let mut acc = Fr::ONE;
        for _ in 0..16 {
            acc *= w;
        }
        assert!(acc.is_one());
        let mut acc8 = Fr::ONE;
        for _ in 0..8 {
            acc8 *= w;
        }
        assert!(!acc8.is_one());
        assert!(Fr::root_of_unity(29).is_none());
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let a = F::from_u64(3);
        assert_eq!(a.pow(&[5]), F::from_u64(243));
        assert_eq!(a.pow(&[0]), F::ONE);
    }

    #[test]
    fn display_and_debug_nonempty() {
        assert_eq!(format!("{}", F::ZERO), "0x0");
        assert!(format!("{:?}", F::ONE).contains("BN254"));
    }
}
