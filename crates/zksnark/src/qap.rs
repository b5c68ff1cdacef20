//! R1CS → QAP instance via NTT.
//!
//! The prover evaluates the constraint matrices against the assignment
//! (`az`, `bz`, `cz` over the constraint domain) and computes the
//! quotient `h = (az·bz − cz)/Z` on a coset — the NTT-heavy stage of
//! proof generation.

use crate::ntt::NttDomain;
use crate::r1cs::ConstraintSystem;
use distmsm_ff::{Fp, FpParams};

/// The prover-side QAP artefacts.
#[derive(Clone, Debug)]
pub struct QapWitness<P: FpParams<N>, const N: usize> {
    /// Evaluations `⟨A_k, z⟩` on the constraint domain (zero padded).
    pub az: Vec<Fp<P, N>>,
    /// Evaluations `⟨B_k, z⟩`.
    pub bz: Vec<Fp<P, N>>,
    /// Evaluations `⟨C_k, z⟩`.
    pub cz: Vec<Fp<P, N>>,
    /// Coefficients of the quotient polynomial `h`.
    pub h: Vec<Fp<P, N>>,
    /// The evaluation domain.
    pub domain: NttDomain<P, N>,
    /// NTT invocations spent (the cost-model input: 7 size-`d` NTTs).
    pub ntt_count: u32,
}

/// Computes the QAP witness for a satisfied constraint system.
///
/// # Panics
///
/// Panics if the field's two-adicity cannot host the constraint count, or
/// if the system is unsatisfied (the quotient would not exist — checked
/// via the polynomial identity in debug builds).
pub fn qap_witness<P: FpParams<N>, const N: usize>(
    cs: &ConstraintSystem<P, N>,
) -> QapWitness<P, N> {
    let (domain, [az, bz, cz]) = evaluations(cs);
    let h = quotient(&domain, [az.clone(), bz.clone(), cz.clone()]);
    QapWitness {
        az,
        bz,
        cz,
        h,
        domain,
        ntt_count: 3 + 3 + 1, // 3 iNTT + 3 coset NTT + 1 coset iNTT
    }
}

/// [`QapWitness::h`] alone — all a Groth16 proof reads of the QAP — with
/// three size-`d` vectors live where [`qap_witness`] holds seven.
///
/// # Panics
///
/// As [`qap_witness`].
pub fn qap_quotient<P: FpParams<N>, const N: usize>(
    cs: &ConstraintSystem<P, N>,
) -> Vec<Fp<P, N>> {
    let (domain, evaluations) = evaluations(cs);
    quotient(&domain, evaluations)
}

/// The constraint domain and `az`, `bz`, `cz` on it, zero padded.
fn evaluations<P: FpParams<N>, const N: usize>(
    cs: &ConstraintSystem<P, N>,
) -> (NttDomain<P, N>, [Vec<Fp<P, N>>; 3]) {
    let d = cs.n_constraints().next_power_of_two().max(2);
    let log_d = d.trailing_zeros();
    let domain = NttDomain::<P, N>::new(log_d).expect("two-adicity too small for circuit");
    let mut evaluations = [(); 3].map(|_| vec![Fp::ZERO; d]);
    for (k, c) in cs.constraints().iter().enumerate() {
        for (e, lc) in evaluations.iter_mut().zip([&c.a, &c.b, &c.c]) {
            e[k] = cs.eval_lc(lc);
        }
    }
    (domain, evaluations)
}

/// The coefficients of `h = (az·bz − cz)/Z`, computed in place in the
/// three evaluation vectors (7 NTTs).
fn quotient<P: FpParams<N>, const N: usize>(
    domain: &NttDomain<P, N>,
    [mut a, mut b, mut c]: [Vec<Fp<P, N>>; 3],
) -> Vec<Fp<P, N>> {
    // interpolate to coefficients, then evaluate on the coset g·H where
    // Z(x) = x^d − 1 is invertible
    let g = multiplicative_shift::<P, N>();
    for v in [&mut a, &mut b, &mut c] {
        domain.inverse(v);
        domain.coset_forward(v, g);
    }

    // h|coset = (az·bz − cz)/Z, with Z constant on the coset
    let z_inv = domain
        .vanishing_on_coset(g)
        .inverse()
        .expect("Z nonzero off the domain");
    for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
        *a = (*a * *b - *c) * z_inv;
    }
    drop((b, c));
    let mut h = a;
    domain.coset_inverse(&mut h, g);
    // h has degree d − 2 for a satisfied system; the top coefficient must
    // vanish (this is the quotient-exactness check).
    debug_assert!(
        h.last().is_none_or(Fp::is_zero),
        "system unsatisfied: (az·bz − cz) is not divisible by Z"
    );
    h
}

/// A coset shift: any element outside the 2^s-torsion; the field's small
/// quadratic non-residue works. Searching once per call is cheap relative
/// to the NTTs around it.
fn multiplicative_shift<P: FpParams<N>, const N: usize>() -> Fp<P, N> {
    let mut g = Fp::<P, N>::from_u64(2);
    while g.legendre() != -1 {
        g += Fp::ONE;
    }
    g
}

/// Verifies the QAP identity `az·bz − cz = h·Z` at a random point τ —
/// the structural soundness check this reproduction uses in place of a
/// full pairing verifier (DESIGN.md §1; proof verification is O(1) in the
/// paper and not part of any reproduced experiment).
pub fn check_qap_identity<P: FpParams<N>, const N: usize>(
    w: &QapWitness<P, N>,
    tau: Fp<P, N>,
) -> bool {
    let d = w.domain.size();
    // interpolate az/bz/cz and evaluate at tau
    let eval_from_values = |values: &[Fp<P, N>]| -> Fp<P, N> {
        let mut coeffs = values.to_vec();
        w.domain.inverse(&mut coeffs);
        horner(&coeffs, tau)
    };
    let a = eval_from_values(&w.az);
    let b = eval_from_values(&w.bz);
    let c = eval_from_values(&w.cz);
    let h = horner(&w.h, tau);
    let z = tau.pow(&[d as u64]) - Fp::ONE;
    a * b - c == h * z
}

fn horner<P: FpParams<N>, const N: usize>(coeffs: &[Fp<P, N>], x: Fp<P, N>) -> Fp<P, N> {
    coeffs
        .iter()
        .rev()
        .fold(Fp::ZERO, |acc, &c| acc * x + c)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::synthetic_circuit;
    use distmsm_ff::params::Bn254Fr;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn qap_identity_holds_for_satisfied_system() {
        let mut rng = StdRng::seed_from_u64(30);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(100, &mut rng);
        assert!(cs.is_satisfied());
        let w = qap_witness(&cs);
        let tau = distmsm_ff::Fp::random(&mut rng);
        assert!(check_qap_identity(&w, tau));
    }

    #[test]
    fn qap_identity_fails_for_tampered_witness() {
        let mut rng = StdRng::seed_from_u64(31);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(64, &mut rng);
        let mut w = qap_witness(&cs);
        w.h[0] += distmsm_ff::Fp::ONE;
        let tau = distmsm_ff::Fp::random(&mut rng);
        assert!(!check_qap_identity(&w, tau));
    }

    #[test]
    fn quotient_alone_equals_the_witness_quotient() {
        let mut rng = StdRng::seed_from_u64(34);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(100, &mut rng);
        assert_eq!(qap_quotient(&cs), qap_witness(&cs).h);
    }

    #[test]
    fn ntt_count_is_seven() {
        let mut rng = StdRng::seed_from_u64(32);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(16, &mut rng);
        assert_eq!(qap_witness(&cs).ntt_count, 7);
    }

    #[test]
    fn domain_is_padded_to_power_of_two() {
        let mut rng = StdRng::seed_from_u64(33);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(100, &mut rng);
        let w = qap_witness(&cs);
        assert_eq!(w.domain.size(), 128);
        assert_eq!(w.az.len(), 128);
    }
}
