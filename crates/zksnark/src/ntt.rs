//! Number-theoretic transform over a two-adic prime field.
//!
//! The second-heaviest stage of proof generation (17.9 % per the paper's
//! Table 4 analysis). Radix-2 in-place Cooley–Tukey with bit-reversal,
//! plus the coset evaluation needed by the QAP division.

use core::iter::successors;
use distmsm_ff::{Fp, FpParams};

/// Precomputed NTT domain of size `2^log_n`.
///
/// # Examples
///
/// ```
/// use distmsm_zksnark::ntt::NttDomain;
/// use distmsm_ff::params::{Bn254Fr, FrBn254};
///
/// let domain = NttDomain::<Bn254Fr, 4>::new(3).unwrap();
/// let mut data: Vec<FrBn254> = (0..8u64).map(FrBn254::from_u64).collect();
/// let original = data.clone();
/// domain.forward(&mut data);
/// domain.inverse(&mut data);
/// assert_eq!(data, original);
/// ```
#[derive(Clone, Debug)]
pub struct NttDomain<P: FpParams<N>, const N: usize> {
    log_n: u32,
    omega: Fp<P, N>,
    omega_inv: Fp<P, N>,
    n_inv: Fp<P, N>,
}

impl<P: FpParams<N>, const N: usize> NttDomain<P, N> {
    /// Builds a domain of size `2^log_n`, or `None` if the field's
    /// two-adicity is insufficient.
    pub fn new(log_n: u32) -> Option<Self> {
        let omega = Fp::<P, N>::root_of_unity(log_n)?;
        let omega_inv = omega.inverse().expect("roots of unity are invertible");
        let n_inv = Fp::<P, N>::from_u64(1u64 << log_n)
            .inverse()
            .expect("domain size below characteristic");
        Some(Self {
            log_n,
            omega,
            omega_inv,
            n_inv,
        })
    }

    /// Domain size.
    pub fn size(&self) -> usize {
        1 << self.log_n
    }

    /// The primitive `2^log_n`-th root of unity generating the domain.
    pub fn generator(&self) -> Fp<P, N> {
        self.omega
    }

    fn transform(&self, data: &mut [Fp<P, N>], root: Fp<P, N>) {
        let n = data.len();
        assert_eq!(n, self.size(), "input length must equal the domain size");
        // bit reversal
        let mut j = 0usize;
        for i in 1..n {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            if i < j {
                data.swap(i, j);
            }
        }
        // butterflies: stage `len` twiddles by root^(n/len)^k = root^(k·n/len),
        // every (n/len)-th power of root, built once per transform
        let twiddles: Vec<Fp<P, N>> = successors(Some(Fp::<P, N>::ONE), |&w| Some(w * root))
            .take(n / 2)
            .collect();
        let mut len = 2usize;
        while len <= n {
            let stride = n / len;
            for start in (0..n).step_by(len) {
                for k in 0..len / 2 {
                    let u = data[start + k];
                    let v = data[start + k + len / 2] * twiddles[k * stride];
                    data[start + k] = u + v;
                    data[start + k + len / 2] = u - v;
                }
            }
            len <<= 1;
        }
    }

    /// In-place forward NTT (evaluates a coefficient vector on the domain).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the domain size.
    pub fn forward(&self, data: &mut [Fp<P, N>]) {
        self.transform(data, self.omega);
    }

    /// In-place inverse NTT (interpolates evaluations back to coefficients).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the domain size.
    pub fn inverse(&self, data: &mut [Fp<P, N>]) {
        self.transform(data, self.omega_inv);
        for x in data {
            *x *= self.n_inv;
        }
    }

    /// Forward NTT over the coset `g·H` (multiply coefficients by powers
    /// of `g` first). Used to evaluate where the vanishing polynomial is
    /// nonzero.
    pub fn coset_forward(&self, data: &mut [Fp<P, N>], g: Fp<P, N>) {
        let mut p = Fp::<P, N>::ONE;
        for x in data.iter_mut() {
            *x *= p;
            p *= g;
        }
        self.forward(data);
    }

    /// Inverse of [`Self::coset_forward`].
    pub fn coset_inverse(&self, data: &mut [Fp<P, N>], g: Fp<P, N>) {
        self.inverse(data);
        let g_inv = g.inverse().expect("coset generator nonzero");
        let mut p = Fp::<P, N>::ONE;
        for x in data.iter_mut() {
            *x *= p;
            p *= g_inv;
        }
    }

    /// Value of the vanishing polynomial `Z(x) = x^n - 1` at `g` — constant
    /// on a coset `g·H`.
    pub fn vanishing_on_coset(&self, g: Fp<P, N>) -> Fp<P, N> {
        g.pow(&[self.size() as u64]) - Fp::ONE
    }

    /// Butterfly count of one transform (the NTT cost model input):
    /// `n/2 · log n`.
    pub fn butterflies(&self) -> u64 {
        (self.size() as u64 / 2) * u64::from(self.log_n)
    }
}

/// Multiplies two coefficient vectors via NTT, returning a product of
/// length `a.len() + b.len() - 1` (zero-padded internally).
pub fn poly_mul<P: FpParams<N>, const N: usize>(
    a: &[Fp<P, N>],
    b: &[Fp<P, N>],
) -> Vec<Fp<P, N>> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let log_n = (out_len.next_power_of_two()).trailing_zeros();
    let domain = NttDomain::<P, N>::new(log_n).expect("field supports this NTT size");
    let n = domain.size();
    let mut fa = a.to_vec();
    fa.resize(n, Fp::ZERO);
    let mut fb = b.to_vec();
    fb.resize(n, Fp::ZERO);
    domain.forward(&mut fa);
    domain.forward(&mut fb);
    for (x, y) in fa.iter_mut().zip(&fb) {
        *x *= *y;
    }
    domain.inverse(&mut fa);
    fa.truncate(out_len);
    fa
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ff::params::{Bn254Fr, FrBn254};
    use rand::{rngs::StdRng, SeedableRng};

    type D = NttDomain<Bn254Fr, 4>;

    #[test]
    fn round_trip() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = D::new(6).unwrap();
        let mut v: Vec<FrBn254> = (0..64).map(|_| FrBn254::random(&mut rng)).collect();
        let orig = v.clone();
        d.forward(&mut v);
        assert_ne!(v, orig);
        d.inverse(&mut v);
        assert_eq!(v, orig);
    }

    #[test]
    fn forward_is_evaluation() {
        // NTT of coefficients == evaluation at powers of omega
        let d = D::new(3).unwrap();
        let coeffs: Vec<FrBn254> = (1..=8u64).map(FrBn254::from_u64).collect();
        let mut v = coeffs.clone();
        d.forward(&mut v);
        let omega = d.generator();
        for (i, &got) in v.iter().enumerate() {
            let x = omega.pow(&[i as u64]);
            let mut expect = FrBn254::ZERO;
            for c in coeffs.iter().rev() {
                expect = expect * x + *c;
            }
            assert_eq!(got, expect, "evaluation {i}");
        }
    }

    #[test]
    fn poly_mul_matches_schoolbook() {
        let mut rng = StdRng::seed_from_u64(12);
        let a: Vec<FrBn254> = (0..13).map(|_| FrBn254::random(&mut rng)).collect();
        let b: Vec<FrBn254> = (0..7).map(|_| FrBn254::random(&mut rng)).collect();
        let fast = poly_mul(&a, &b);
        let mut slow = vec![FrBn254::ZERO; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                slow[i + j] += x * y;
            }
        }
        assert_eq!(fast, slow);
    }

    #[test]
    fn coset_round_trip() {
        let mut rng = StdRng::seed_from_u64(13);
        let d = D::new(5).unwrap();
        let g = FrBn254::from_u64(5); // multiplicative generator of BN254 Fr
        let mut v: Vec<FrBn254> = (0..32).map(|_| FrBn254::random(&mut rng)).collect();
        let orig = v.clone();
        d.coset_forward(&mut v, g);
        d.coset_inverse(&mut v, g);
        assert_eq!(v, orig);
    }

    #[test]
    fn vanishing_polynomial_on_domain_and_coset() {
        let d = D::new(4).unwrap();
        // Z vanishes on the domain itself
        let omega = d.generator();
        let z_on_domain = omega.pow(&[16]) - FrBn254::ONE;
        assert!(z_on_domain.is_zero());
        // but not on a proper coset
        let g = FrBn254::from_u64(5);
        assert!(!d.vanishing_on_coset(g).is_zero());
    }

    #[test]
    fn too_large_domain_rejected() {
        assert!(D::new(29).is_none()); // BN254 Fr two-adicity is 28
        assert!(D::new(28).is_some());
    }

    #[test]
    fn butterflies_formula() {
        let d = D::new(10).unwrap();
        assert_eq!(d.butterflies(), 512 * 10);
    }

    #[test]
    fn linearity() {
        let mut rng = StdRng::seed_from_u64(14);
        let d = D::new(4).unwrap();
        let a: Vec<FrBn254> = (0..16).map(|_| FrBn254::random(&mut rng)).collect();
        let b: Vec<FrBn254> = (0..16).map(|_| FrBn254::random(&mut rng)).collect();
        let mut sum: Vec<FrBn254> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        d.forward(&mut sum);
        d.forward(&mut fa);
        d.forward(&mut fb);
        for i in 0..16 {
            assert_eq!(sum[i], fa[i] + fb[i]);
        }
    }
}
