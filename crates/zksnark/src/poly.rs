//! Dense polynomial arithmetic over a two-adic prime field.
//!
//! The algebra under the QAP machinery, exposed as a proper type for
//! library users: NTT-backed multiplication, evaluation, interpolation
//! from domain values, and division by the vanishing polynomial.

use crate::ntt::{poly_mul, NttDomain};
use distmsm_ff::{Fp, FpParams};

/// A dense polynomial `Σ coeffs[i]·x^i` (trailing zeros trimmed).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Polynomial<P: FpParams<N>, const N: usize> {
    coeffs: Vec<Fp<P, N>>,
}

impl<P: FpParams<N>, const N: usize> Polynomial<P, N> {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Self { coeffs: Vec::new() }
    }

    /// Builds a polynomial from coefficients (low degree first), trimming
    /// trailing zeros.
    pub fn from_coeffs(mut coeffs: Vec<Fp<P, N>>) -> Self {
        while coeffs.last().is_some_and(Fp::is_zero) {
            coeffs.pop();
        }
        Self { coeffs }
    }

    /// Interpolates the polynomial taking `values[j]` at the `j`-th domain
    /// point (one inverse NTT).
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` is not the domain size.
    pub fn interpolate(domain: &NttDomain<P, N>, values: &[Fp<P, N>]) -> Self {
        let mut coeffs = values.to_vec();
        domain.inverse(&mut coeffs);
        Self::from_coeffs(coeffs)
    }

    /// Coefficients, low degree first.
    pub fn coeffs(&self) -> &[Fp<P, N>] {
        &self.coeffs
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// True for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Horner evaluation at `x`.
    pub fn evaluate(&self, x: Fp<P, N>) -> Fp<P, N> {
        self.coeffs
            .iter()
            .rev()
            .fold(Fp::ZERO, |acc, &c| acc * x + c)
    }

    /// Polynomial sum.
    pub fn add(&self, other: &Self) -> Self {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = vec![Fp::ZERO; n];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in other.coeffs.iter().enumerate() {
            out[i] += c;
        }
        Self::from_coeffs(out)
    }

    /// Polynomial product via NTT.
    pub fn mul(&self, other: &Self) -> Self {
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        Self::from_coeffs(poly_mul(&self.coeffs, &other.coeffs))
    }

    /// Scales every coefficient.
    pub fn scale(&self, k: Fp<P, N>) -> Self {
        Self::from_coeffs(self.coeffs.iter().map(|&c| c * k).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ff::params::{Bn254Fr, FrBn254};
    use rand::{rngs::StdRng, SeedableRng};

    type Poly = Polynomial<Bn254Fr, 4>;

    fn rand_poly(deg: usize, rng: &mut StdRng) -> Poly {
        let mut c: Vec<FrBn254> = (0..=deg).map(|_| FrBn254::random(rng)).collect();
        if c.last().unwrap().is_zero() {
            *c.last_mut().unwrap() = FrBn254::ONE;
        }
        Poly::from_coeffs(c)
    }

    #[test]
    fn evaluate_and_degree() {
        // 3 + 2x + x²
        let p = Poly::from_coeffs(vec![3u64.into(), 2u64.into(), 1u64.into()]);
        assert_eq!(p.degree(), Some(2));
        assert_eq!(p.evaluate(FrBn254::from_u64(5)), FrBn254::from_u64(38));
    }

    #[test]
    fn trailing_zeros_trimmed() {
        let p = Poly::from_coeffs(vec![1u64.into(), FrBn254::ZERO, FrBn254::ZERO]);
        assert_eq!(p.degree(), Some(0));
        assert!(Poly::from_coeffs(vec![FrBn254::ZERO; 4]).is_zero());
    }

    #[test]
    fn mul_is_evaluation_homomorphic() {
        let mut rng = StdRng::seed_from_u64(60);
        let a = rand_poly(9, &mut rng);
        let b = rand_poly(6, &mut rng);
        let ab = a.mul(&b);
        assert_eq!(ab.degree(), Some(15));
        let x = FrBn254::random(&mut rng);
        assert_eq!(ab.evaluate(x), a.evaluate(x) * b.evaluate(x));
    }

    #[test]
    fn interpolation_round_trip() {
        let mut rng = StdRng::seed_from_u64(61);
        let domain = NttDomain::<Bn254Fr, 4>::new(4).unwrap();
        let values: Vec<FrBn254> = (0..16).map(|_| FrBn254::random(&mut rng)).collect();
        let p = Poly::interpolate(&domain, &values);
        let omega = domain.generator();
        for (j, &v) in values.iter().enumerate() {
            assert_eq!(p.evaluate(omega.pow(&[j as u64])), v);
        }
    }

    #[test]
    fn add_and_scale() {
        let a = Poly::from_coeffs(vec![1u64.into(), 2u64.into()]);
        let b = Poly::from_coeffs(vec![5u64.into()]);
        assert_eq!(
            a.add(&b),
            Poly::from_coeffs(vec![6u64.into(), 2u64.into()])
        );
        assert_eq!(
            a.scale(3u64.into()),
            Poly::from_coeffs(vec![3u64.into(), 6u64.into()])
        );
    }
}
