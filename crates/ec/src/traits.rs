//! Abstractions over field elements and scalars.
//!
//! [`FieldElement`] lets the curve machinery work uniformly over `Fp`
//! (G1 curves) and `Fp2` (BN254 G2). [`Scalar`] exposes the bit-window
//! view Pippenger's algorithm slices scalars with.

use distmsm_ff::{Fp, Fp2, FpParams, Uint};
use rand::Rng;

/// Field-element operations required by the curve formulas.
///
/// Implemented for every [`Fp`] instantiation and for [`Fp2`]. The
/// `LIMBS32` constant reports the number of 32-bit GPU registers one
/// element occupies — the quantity the paper's register-pressure analysis
/// (§4.2) is phrased in.
pub trait FieldElement:
    'static
    + Copy
    + Clone
    + core::fmt::Debug
    + Send
    + Sync
    + PartialEq
    + Eq
    + Default
    + core::ops::Add<Output = Self>
    + core::ops::Sub<Output = Self>
    + core::ops::Mul<Output = Self>
    + core::ops::Neg<Output = Self>
    + core::ops::AddAssign
    + core::ops::SubAssign
    + core::ops::MulAssign
{
    /// Number of 32-bit limbs (GPU registers) per element.
    const LIMBS32: usize;

    /// The additive identity.
    fn zero() -> Self;
    /// The multiplicative identity.
    fn one() -> Self;
    /// Is this the additive identity?
    fn is_zero(&self) -> bool;
    /// `2·self`.
    fn double(&self) -> Self;
    /// `self²`.
    fn square(&self) -> Self;
    /// Multiplicative inverse, `None` for zero.
    fn inverse(&self) -> Option<Self>;
    /// Uniformly random element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

/// Fields with an available square root (used for hash-free point
/// sampling by x-coordinate and for compressed-point decoding).
pub trait SqrtField: FieldElement {
    /// Square root, `None` for quadratic non-residues.
    fn sqrt(&self) -> Option<Self>;
}

impl<P: FpParams<N>, const N: usize> FieldElement for Fp<P, N> {
    const LIMBS32: usize = 2 * N;

    fn zero() -> Self {
        Self::ZERO
    }
    fn one() -> Self {
        Self::ONE
    }
    fn is_zero(&self) -> bool {
        Fp::is_zero(self)
    }
    fn double(&self) -> Self {
        Fp::double(self)
    }
    fn square(&self) -> Self {
        Fp::square(self)
    }
    fn inverse(&self) -> Option<Self> {
        Fp::inverse(self)
    }
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Fp::random(rng)
    }
}

impl<P: FpParams<N>, const N: usize> SqrtField for Fp<P, N> {
    fn sqrt(&self) -> Option<Self> {
        Fp::sqrt(self)
    }
}

impl<P: FpParams<N>, const N: usize> SqrtField for Fp2<P, N> {
    fn sqrt(&self) -> Option<Self> {
        Fp2::sqrt(self)
    }
}

impl<P: FpParams<N>, const N: usize> FieldElement for Fp2<P, N> {
    const LIMBS32: usize = 4 * N;

    fn zero() -> Self {
        Self::ZERO
    }
    fn one() -> Self {
        Self::ONE
    }
    fn is_zero(&self) -> bool {
        Fp2::is_zero(self)
    }
    fn double(&self) -> Self {
        Fp2::double(self)
    }
    fn square(&self) -> Self {
        Fp2::square(self)
    }
    fn inverse(&self) -> Option<Self> {
        Fp2::inverse(self)
    }
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Fp2::random(rng)
    }
}

/// Scalar representation: a fixed-width integer sliced into Pippenger
/// windows.
pub trait Scalar:
    'static + Copy + Clone + core::fmt::Debug + Send + Sync + Eq + Ord + Default
{
    /// Extracts `width ≤ 64` bits starting at `lo` (zero past the end).
    fn window(&self, lo: u32, width: u32) -> u64;
    /// Significant bits.
    fn num_bits(&self) -> u32;
    /// Bit `i`.
    fn bit(&self, i: u32) -> bool;
    /// The zero scalar.
    fn zero() -> Self;
    /// A small scalar.
    fn from_u64(v: u64) -> Self;
}

impl<const N: usize> Scalar for Uint<N> {
    fn window(&self, lo: u32, width: u32) -> u64 {
        self.bits(lo, width)
    }
    fn num_bits(&self) -> u32 {
        Uint::num_bits(self)
    }
    fn bit(&self, i: u32) -> bool {
        Uint::bit(self, i)
    }
    fn zero() -> Self {
        Uint::ZERO
    }
    fn from_u64(v: u64) -> Self {
        Uint::from_u64(v)
    }
}
