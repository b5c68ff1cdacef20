//! Complete Groth16 over BN254: trusted setup, proving (with every MSM on
//! the simulated multi-GPU engine) and **pairing-based verification**.
//!
//! This is the full protocol the paper's end-to-end workloads run —
//! "DistMSM generates proofs in the same format as those produced on
//! CPUs, allowing for verification by libsnark" — closed under this
//! repository: proofs produced here verify under the optimal ate pairing
//! of `distmsm-ec`, with the standard equation
//!
//! ```text
//! e(A, B) = e(α, β) · e(Σ aᵢ·ICᵢ, γ) · e(C, δ).
//! ```

use crate::qap::qap_witness;
use crate::r1cs::ConstraintSystem;
use distmsm::engine::{DistMsm, MsmError};
use distmsm_ec::batch::batch_inverse;
use distmsm_ec::curve::{Affine, Curve, XyzzPoint};
use distmsm_ec::curves::{Bn254G1, Bn254G2};
use distmsm_ec::fixed_base::FixedBaseTable;
use distmsm_ec::pairing::pairing_product_is_one;
use distmsm_ec::validate::in_prime_subgroup;
use distmsm_ec::{straus, MsmInstance};
use distmsm_ff::params::Bn254Fr;
use distmsm_ff::Fp;
use distmsm_gpu_sim::MultiGpuSystem;
use rand::Rng;
use std::iter::successors;

type Fr = Fp<Bn254Fr, 4>;
type G1 = Affine<Bn254G1>;
type G2 = Affine<Bn254G2>;

/// The Groth16 proving key (CRS, prover half).
#[derive(Clone, Debug, PartialEq)]
pub struct ProvingKey {
    alpha_g1: G1,
    beta_g1: G1,
    delta_g1: G1,
    beta_g2: G2,
    delta_g2: G2,
    /// `uᵢ(τ)·G1` for every variable.
    a_query: Vec<G1>,
    /// `vᵢ(τ)·G1`.
    b_g1_query: Vec<G1>,
    /// `vᵢ(τ)·G2`.
    b_g2_query: Vec<G2>,
    /// `((β·uᵢ + α·vᵢ + wᵢ)/δ)(τ)·G1` for private variables.
    l_query: Vec<G1>,
    /// `(τ^i·Z(τ)/δ)·G1` for the quotient.
    h_query: Vec<G1>,
    n_public: usize,
}

/// The Groth16 verifying key.
#[derive(Clone, Debug, PartialEq)]
pub struct VerifyingKey {
    alpha_g1: G1,
    beta_g2: G2,
    gamma_g2: G2,
    delta_g2: G2,
    /// `((β·uᵢ + α·vᵢ + wᵢ)/γ)(τ)·G1` for the constant and each public
    /// input.
    ic: Vec<G1>,
}

/// A Groth16 proof: exactly two G1 elements and one G2 element (the
/// paper's 127-byte constant-size proof in compressed form).
#[derive(Clone, Debug, PartialEq)]
pub struct Groth16Proof {
    /// The `A` commitment.
    pub a: G1,
    /// The `B` commitment.
    pub b: G2,
    /// The `C` commitment.
    pub c: G1,
}

impl Groth16Proof {
    /// Wire encoding: all three elements compressed (G1: 33 B, G2: 65 B
    /// via the `Fp²` square root) — 131 bytes, four flag bytes away from
    /// the paper's bit-packed 127.
    pub fn to_bytes(&self) -> Vec<u8> {
        use distmsm_ec::serialize::point_to_compressed;
        let mut out = point_to_compressed(&self.a);
        out.extend(point_to_compressed(&self.b));
        out.extend(point_to_compressed(&self.c));
        out
    }

    /// Strict decoding of [`Self::to_bytes`]; validates curve and
    /// subgroup membership (G1 has cofactor 1; a `B` on the G2 curve but
    /// outside the order-`r` subgroup is rejected).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        use distmsm_ec::serialize::point_from_compressed;
        if bytes.len() != 33 + 65 + 33 {
            return None;
        }
        let proof = Self {
            a: point_from_compressed(&bytes[..33])?,
            b: point_from_compressed(&bytes[33..98])?,
            c: point_from_compressed(&bytes[98..])?,
        };
        in_prime_subgroup::<Bn254G2>(&proof.b).then_some(proof)
    }
}

fn nonzero<R: Rng + ?Sized>(rng: &mut R) -> Fr {
    loop {
        let x = Fr::random(rng);
        if !x.is_zero() {
            return x;
        }
    }
}

/// Trusted setup for a circuit: samples the toxic waste `(τ, α, β, γ, δ)`
/// and evaluates the QAP polynomials at `τ` in the exponent.
///
/// # Panics
///
/// Panics if the circuit's domain exceeds the field's two-adicity.
pub fn setup<R: Rng + ?Sized>(
    cs: &ConstraintSystem<Bn254Fr, 4>,
    rng: &mut R,
) -> (ProvingKey, VerifyingKey) {
    let tau = nonzero(rng);
    let alpha = nonzero(rng);
    let beta = nonzero(rng);
    let gamma = nonzero(rng);
    let delta = nonzero(rng);

    let m = cs.n_variables();
    let d = cs.n_constraints().next_power_of_two().max(2);
    let domain = crate::ntt::NttDomain::<Bn254Fr, 4>::new(d.trailing_zeros())
        .expect("domain fits the field's two-adicity");

    // Lagrange basis at τ: L_j(τ) = ω^j · (τ^d − 1) / (d · (τ − ω^j))
    let z_tau = tau.pow(&[d as u64]) - Fr::ONE;
    assert!(!z_tau.is_zero(), "τ landed on the domain (re-run setup)");
    let omega = domain.generator();
    let d_inv = Fr::from_u64(d as u64).inverse().expect("d < r");
    // τ is off the domain, so no denominator is zero
    let mut lagrange: Vec<Fr> = successors(Some(Fr::ONE), |&w_j| Some(w_j * omega))
        .take(d)
        .map(|w_j| tau - w_j)
        .collect();
    batch_inverse(&mut lagrange);
    let mut scale = z_tau * d_inv; // ω^j · Z(τ)/d
    for l_j in &mut lagrange {
        *l_j *= scale;
        scale *= omega;
    }

    // u_i(τ), v_i(τ), w_i(τ) from the sparse constraint matrices
    let mut u = vec![Fr::ZERO; m];
    let mut v = vec![Fr::ZERO; m];
    let mut w = vec![Fr::ZERO; m];
    for (j, c) in cs.constraints().iter().enumerate() {
        for &(var, coeff) in &c.a {
            u[var] += coeff * lagrange[j];
        }
        for &(var, coeff) in &c.b {
            v[var] += coeff * lagrange[j];
        }
        for &(var, coeff) in &c.c {
            w[var] += coeff * lagrange[j];
        }
    }
    drop(lagrange);

    let gamma_inv = gamma.inverse().expect("nonzero");
    let delta_inv = delta.inverse().expect("nonzero");
    let n_pub = cs.n_public() + 1; // constant-1 wire counts as public

    let combined = |i: usize| -> Fr { beta * u[i] + alpha * v[i] + w[i] };
    // every product below has one of two bases: one table each. The G2
    // table is built in the room the G1 table, `u` and `w` give back, so
    // the setup's peak is the keys themselves.
    let g1 = FixedBaseTable::new(&Bn254G1::generator());
    let a_query = g1.mul_many(u.iter().map(Fr::to_uint));
    let b_g1_query = g1.mul_many(v.iter().map(Fr::to_uint));
    let ic = g1.mul_many((0..n_pub).map(|i| (combined(i) * gamma_inv).to_uint()));
    let l_query = g1.mul_many((n_pub..m).map(|i| (combined(i) * delta_inv).to_uint()));
    // h query: τ^i · Z(τ)/δ for i in 0..d−1
    let h_query = g1.mul_many(
        successors(Some(z_tau * delta_inv), |&t| Some(t * tau))
            .take(d - 1)
            .map(|t| t.to_uint()),
    );
    let [alpha_g1, beta_g1, delta_g1] =
        [alpha, beta, delta].map(|k| g1.mul(&k.to_uint()).to_affine());
    drop((g1, u, w));
    let g2 = FixedBaseTable::new(&Bn254G2::generator());
    let b_g2_query = g2.mul_many(v.iter().map(Fr::to_uint));
    let [beta_g2, gamma_g2, delta_g2] =
        [beta, gamma, delta].map(|k| g2.mul(&k.to_uint()).to_affine());

    let pk = ProvingKey {
        alpha_g1,
        beta_g1,
        delta_g1,
        beta_g2,
        delta_g2,
        a_query,
        b_g1_query,
        b_g2_query,
        l_query,
        h_query,
        n_public: n_pub,
    };
    let vk = VerifyingKey {
        alpha_g1,
        beta_g2,
        gamma_g2,
        delta_g2,
        ic,
    };
    (pk, vk)
}

/// Produces a proof, running all four MSMs on the simulated multi-GPU
/// engine (the paper's Figure 1 pipeline end to end).
///
/// # Errors
///
/// Propagates MSM failures.
///
/// # Panics
///
/// Panics if the assignment does not satisfy the constraint system.
pub fn prove<R: Rng + ?Sized>(
    pk: &ProvingKey,
    cs: &ConstraintSystem<Bn254Fr, 4>,
    system: &MultiGpuSystem,
    rng: &mut R,
) -> Result<Groth16Proof, MsmError> {
    assert!(cs.is_satisfied(), "cannot prove an unsatisfied system");
    let engine = DistMsm::new(system.clone());
    let z: Vec<_> = cs.assignment().iter().map(Fp::to_uint).collect();

    let msm_g1 = |points: &[G1], scalars: &[<Bn254G1 as Curve>::Scalar]| {
        engine
            .execute(&MsmInstance::<Bn254G1> {
                points: points.to_vec(),
                scalars: scalars.to_vec(),
            })
            .map(|r| r.result)
    };

    let r = Fr::random(rng);
    let s = Fr::random(rng);

    // A = α + Σ zᵢ uᵢ(τ) + rδ
    let a_acc = msm_g1(&pk.a_query, &z)?
        .padd(&pk.alpha_g1.to_xyzz())
        .padd(&straus(&[(pk.delta_g1.to_xyzz(), r.to_uint())]));

    // B = β + Σ zᵢ vᵢ(τ) + sδ (in G2, with a G1 copy for C)
    let b_g2 = engine
        .execute(&MsmInstance::<Bn254G2> {
            points: pk.b_g2_query.clone(),
            scalars: z.clone(),
        })?
        .result
        .padd(&pk.beta_g2.to_xyzz())
        .padd(&straus(&[(pk.delta_g2.to_xyzz(), s.to_uint())]));
    let b_g1 = msm_g1(&pk.b_g1_query, &z)?
        .padd(&pk.beta_g1.to_xyzz())
        .padd(&straus(&[(pk.delta_g1.to_xyzz(), s.to_uint())]));

    // C = Σ_priv zᵢ Lᵢ + h(τ)Z(τ)/δ + sA + rB − rsδ
    let qap = qap_witness(cs);
    let h_scalars: Vec<_> = qap
        .h
        .iter()
        .take(pk.h_query.len())
        .map(Fp::to_uint)
        .collect();
    let priv_scalars: Vec<_> = z[pk.n_public..].to_vec();
    let mut c_acc = XyzzPoint::<Bn254G1>::identity();
    if !pk.l_query.is_empty() {
        c_acc = c_acc.padd(&msm_g1(&pk.l_query, &priv_scalars)?);
    }
    if !pk.h_query.is_empty() {
        c_acc = c_acc.padd(&msm_g1(&pk.h_query[..h_scalars.len()], &h_scalars)?);
    }
    c_acc = c_acc.padd(&straus(&[
        (a_acc, s.to_uint()),
        (b_g1, r.to_uint()),
        (pk.delta_g1.to_xyzz(), (-(r * s)).to_uint()),
    ]));

    Ok(Groth16Proof {
        a: a_acc.to_affine(),
        b: b_g2.to_affine(),
        c: c_acc.to_affine(),
    })
}

/// Verifies a proof against the public inputs with the pairing equation.
pub fn verify(vk: &VerifyingKey, public_inputs: &[Fr], proof: &Groth16Proof) -> bool {
    if public_inputs.len() + 1 != vk.ic.len() {
        return false;
    }
    // Σ aᵢ·ICᵢ with a₀ = 1
    let terms: Vec<_> = std::iter::once(Fr::ONE)
        .chain(public_inputs.iter().copied())
        .zip(&vk.ic)
        .map(|(x, ic)| (ic.to_xyzz(), x.to_uint()))
        .collect();
    let acc = straus(&terms);
    // e(A, B) · e(−α, β) · e(−acc, γ) · e(−C, δ) = 1
    pairing_product_is_one(&[
        (proof.a, proof.b),
        (vk.alpha_g1.neg(), vk.beta_g2),
        (acc.to_affine().neg(), vk.gamma_g2),
        (proof.c.neg(), vk.delta_g2),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::synthetic_circuit;
    use rand::{rngs::StdRng, SeedableRng};

    fn demo_circuit(x: u64, w: u64) -> (ConstraintSystem<Bn254Fr, 4>, Vec<Fr>) {
        // prove knowledge of w with x = w²  (one public input)
        let mut cs = ConstraintSystem::new();
        let x_var = cs.alloc(Fr::from_u64(x));
        cs.set_public(1);
        let w_var = cs.alloc(Fr::from_u64(w));
        let w2 = cs.mul(w_var, w_var);
        // enforce w² = x
        cs.enforce(
            vec![(w2, Fr::ONE)],
            vec![(ConstraintSystem::<Bn254Fr, 4>::one(), Fr::ONE)],
            vec![(x_var, Fr::ONE)],
        );
        (cs, vec![Fr::from_u64(x)])
    }

    #[test]
    fn prove_and_verify_square_circuit() {
        let mut rng = StdRng::seed_from_u64(800);
        let (cs, public) = demo_circuit(49, 7);
        assert!(cs.is_satisfied());
        let (pk, vk) = setup(&cs, &mut rng);
        let sys = MultiGpuSystem::dgx_a100(2);
        let proof = prove(&pk, &cs, &sys, &mut rng).expect("prove");
        assert!(verify(&vk, &public, &proof), "honest proof must verify");
    }

    #[test]
    fn wrong_public_input_rejected() {
        let mut rng = StdRng::seed_from_u64(801);
        let (cs, _) = demo_circuit(49, 7);
        let (pk, vk) = setup(&cs, &mut rng);
        let sys = MultiGpuSystem::dgx_a100(1);
        let proof = prove(&pk, &cs, &sys, &mut rng).expect("prove");
        assert!(!verify(&vk, &[Fr::from_u64(50)], &proof));
        assert!(!verify(&vk, &[], &proof), "arity mismatch rejected");
    }

    #[test]
    fn proof_serialization_round_trip() {
        let mut rng = StdRng::seed_from_u64(805);
        let (cs, public) = demo_circuit(36, 6);
        let (pk, vk) = setup(&cs, &mut rng);
        let sys = MultiGpuSystem::dgx_a100(1);
        let proof = prove(&pk, &cs, &sys, &mut rng).expect("prove");
        let bytes = proof.to_bytes();
        assert_eq!(bytes.len(), 131, "constant proof size");
        let decoded = Groth16Proof::from_bytes(&bytes).expect("decode");
        assert_eq!(decoded, proof);
        assert!(verify(&vk, &public, &decoded));
        assert!(Groth16Proof::from_bytes(&bytes[..100]).is_none());
    }

    #[test]
    fn tampered_proof_rejected() {
        let mut rng = StdRng::seed_from_u64(802);
        let (cs, public) = demo_circuit(121, 11);
        let (pk, vk) = setup(&cs, &mut rng);
        let sys = MultiGpuSystem::dgx_a100(1);
        let mut proof = prove(&pk, &cs, &sys, &mut rng).expect("prove");
        proof.a = proof.a.neg();
        assert!(!verify(&vk, &public, &proof));
    }

    #[test]
    fn synthetic_circuit_round_trip() {
        let mut rng = StdRng::seed_from_u64(803);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(60, &mut rng);
        let (pk, vk) = setup(&cs, &mut rng);
        let sys = MultiGpuSystem::dgx_a100(4);
        let proof = prove(&pk, &cs, &sys, &mut rng).expect("prove");
        let public: Vec<Fr> = cs.assignment()[1..=cs.n_public()].to_vec();
        assert!(verify(&vk, &public, &proof));
    }

    #[test]
    fn proof_from_different_witness_still_verifies() {
        // zero-knowledge sanity: both square roots prove the same statement
        let mut rng = StdRng::seed_from_u64(804);
        let (cs_a, public) = demo_circuit(49, 7);
        let (pk, vk) = setup(&cs_a, &mut rng);
        let sys = MultiGpuSystem::dgx_a100(1);
        let p1 = prove(&pk, &cs_a, &sys, &mut rng).expect("prove 7");
        assert!(verify(&vk, &public, &p1));
        // witness -7 = r - 7
        let minus7 = -Fr::from_u64(7);
        let mut cs_b = ConstraintSystem::<Bn254Fr, 4>::new();
        let x_var = cs_b.alloc(Fr::from_u64(49));
        cs_b.set_public(1);
        let w_var = cs_b.alloc(minus7);
        let w2 = cs_b.mul(w_var, w_var);
        cs_b.enforce(
            vec![(w2, Fr::ONE)],
            vec![(ConstraintSystem::<Bn254Fr, 4>::one(), Fr::ONE)],
            vec![(x_var, Fr::ONE)],
        );
        assert!(cs_b.is_satisfied());
        let p2 = prove(&pk, &cs_b, &sys, &mut rng).expect("prove -7");
        assert!(verify(&vk, &public, &p2));
        assert_ne!(p1, p2, "different randomness/witness ⇒ different proofs");
    }

    // The setup this module had before `FixedBaseTable`: one double-and-add
    // from the generator and one inversion per element. Kept as the
    // reference every key element is compared against.
    fn g1_mul(k: Fr) -> G1 {
        Bn254G1::generator().scalar_mul(&k.to_uint()).to_affine()
    }

    fn g2_mul(k: Fr) -> G2 {
        Bn254G2::generator().scalar_mul(&k.to_uint()).to_affine()
    }

    fn reference_setup<R: Rng + ?Sized>(
        cs: &ConstraintSystem<Bn254Fr, 4>,
        rng: &mut R,
    ) -> (ProvingKey, VerifyingKey) {
        let tau = nonzero(rng);
        let alpha = nonzero(rng);
        let beta = nonzero(rng);
        let gamma = nonzero(rng);
        let delta = nonzero(rng);

        let m = cs.n_variables();
        let d = cs.n_constraints().next_power_of_two().max(2);
        let domain = crate::ntt::NttDomain::<Bn254Fr, 4>::new(d.trailing_zeros())
            .expect("domain fits the field's two-adicity");

        // Lagrange basis at τ: L_j(τ) = ω^j · (τ^d − 1) / (d · (τ − ω^j))
        let z_tau = tau.pow(&[d as u64]) - Fr::ONE;
        assert!(!z_tau.is_zero(), "τ landed on the domain (re-run setup)");
        let omega = domain.generator();
        let d_inv = Fr::from_u64(d as u64).inverse().expect("d < r");
        let mut lagrange = Vec::with_capacity(d);
        let mut w_j = Fr::ONE;
        for _ in 0..d {
            let denom = (tau - w_j).inverse().expect("τ off the domain");
            lagrange.push(w_j * z_tau * d_inv * denom);
            w_j *= omega;
        }

        // u_i(τ), v_i(τ), w_i(τ) from the sparse constraint matrices
        let mut u = vec![Fr::ZERO; m];
        let mut v = vec![Fr::ZERO; m];
        let mut w = vec![Fr::ZERO; m];
        for (j, c) in cs.constraints().iter().enumerate() {
            for &(var, coeff) in &c.a {
                u[var] += coeff * lagrange[j];
            }
            for &(var, coeff) in &c.b {
                v[var] += coeff * lagrange[j];
            }
            for &(var, coeff) in &c.c {
                w[var] += coeff * lagrange[j];
            }
        }

        let gamma_inv = gamma.inverse().expect("nonzero");
        let delta_inv = delta.inverse().expect("nonzero");
        let n_pub = cs.n_public() + 1; // constant-1 wire counts as public

        let a_query: Vec<G1> = u.iter().map(|&ui| g1_mul(ui)).collect();
        let b_g1_query: Vec<G1> = v.iter().map(|&vi| g1_mul(vi)).collect();
        let b_g2_query: Vec<G2> = v.iter().map(|&vi| g2_mul(vi)).collect();

        let combined = |i: usize| -> Fr { beta * u[i] + alpha * v[i] + w[i] };
        let ic: Vec<G1> = (0..n_pub)
            .map(|i| g1_mul(combined(i) * gamma_inv))
            .collect();
        let l_query: Vec<G1> = (n_pub..m)
            .map(|i| g1_mul(combined(i) * delta_inv))
            .collect();

        // h query: τ^i · Z(τ)/δ for i in 0..d−1
        let mut h_query = Vec::with_capacity(d - 1);
        let mut tau_i = Fr::ONE;
        for _ in 0..(d - 1) {
            h_query.push(g1_mul(tau_i * z_tau * delta_inv));
            tau_i *= tau;
        }

        let pk = ProvingKey {
            alpha_g1: g1_mul(alpha),
            beta_g1: g1_mul(beta),
            delta_g1: g1_mul(delta),
            beta_g2: g2_mul(beta),
            delta_g2: g2_mul(delta),
            a_query,
            b_g1_query,
            b_g2_query,
            l_query,
            h_query,
            n_public: n_pub,
        };
        let vk = VerifyingKey {
            alpha_g1: pk.alpha_g1,
            beta_g2: pk.beta_g2,
            gamma_g2: g2_mul(gamma),
            delta_g2: pk.delta_g2,
            ic,
        };
        (pk, vk)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn line<C: Curve>(name: &str, p: &Affine<C>) -> String
    where
        C::Base: distmsm_ec::traits::SqrtField,
    {
        let bytes = distmsm_ec::serialize::point_to_compressed(p);
        format!("{name} {}\n", hex(&bytes))
    }

    /// First, middle and last element of a query.
    fn picks<C: Curve>(name: &str, q: &[Affine<C>]) -> String
    where
        C::Base: distmsm_ec::traits::SqrtField,
    {
        [0, q.len() / 2, q.len() - 1]
            .iter()
            .map(|&i| line(&format!("pk.{name}[{i}]"), &q[i]))
            .collect()
    }

    fn frozen_lines(pk: &ProvingKey, vk: &VerifyingKey, proof: &Groth16Proof) -> String {
        let ic: String = (0..vk.ic.len())
            .map(|i| line(&format!("vk.ic[{i}]"), &vk.ic[i]))
            .collect();
        [
            line("vk.alpha_g1", &vk.alpha_g1),
            line("vk.beta_g2", &vk.beta_g2),
            line("vk.gamma_g2", &vk.gamma_g2),
            line("vk.delta_g2", &vk.delta_g2),
            ic,
            line("pk.beta_g1", &pk.beta_g1),
            line("pk.delta_g1", &pk.delta_g1),
            picks("a_query", &pk.a_query),
            picks("b_g1_query", &pk.b_g1_query),
            picks("l_query", &pk.l_query),
            picks("h_query", &pk.h_query),
            picks("b_g2_query", &pk.b_g2_query),
            format!("proof {}\n", hex(&proof.to_bytes())),
        ]
        .concat()
    }

    /// Captured on the parent commit (per-element double-and-add setup).
    const FROZEN_64: &str = "\
vk.alpha_g1 025a95a9f987c10906fdcef8e69d56b939e3639cdfbe674a1fc1558c4e238a3326\n\
vk.beta_g2 0288e48df6a28358f792376c0284b58df395a47ca59d9996b21258f4a99492151432d778f02d8869f291e197212e60d2ca2479bf4f3f85476308990a78f8417500\n\
vk.gamma_g2 02eb292777e925fdb57090216f3a71812e1efd8ef8757ec2f69203d78bf02fda033b530cbbcfc97cb8ef053d828e507235b9eb9b06d48f7924b72bfb9da5df720e\n\
vk.delta_g2 00f19f8a4ce9a36efb4ad6b8bc66b72e8c2bc7c22095cdfc7422c27eb8d03d5b1e4eee706a9ce48e89bb311fa63c2c749f64ff224cbc4b11dc9879603e3e8e4330\n\
vk.ic[0] 02c1524ba124ed44c84782770b41347e68743b85f03021259f050f80e3bb67e311\n\
vk.ic[1] 024c201ef5c93e74a3a91fb53f1b0ebd4c5942bbc62c6614bdfa6c7f261d808b10\n\
pk.beta_g1 029a3c214889c777efba63be6192a216f3bdca005688825e0bdd9bb115204d3a08\n\
pk.delta_g1 02ad97b89169165d0b222b34cc64276b08122bff6f36031132c98d9804da52f81d\n\
pk.a_query[0] 010000000000000000000000000000000000000000000000000000000000000000\n\
pk.a_query[33] 0050ae0421d2168a7d3f2d7923bdd26119ea88b4b53695f86d501201fddfbc2d29\n\
pk.a_query[66] 010000000000000000000000000000000000000000000000000000000000000000\n\
pk.b_g1_query[0] 025a721d1740b4bd370165d14de8d3e2c2ab64ab2cd998456f7b02cf707055de00\n\
pk.b_g1_query[33] 0050ae0421d2168a7d3f2d7923bdd26119ea88b4b53695f86d501201fddfbc2d29\n\
pk.b_g1_query[66] 010000000000000000000000000000000000000000000000000000000000000000\n\
pk.l_query[0] 0240bb076515579663210853b2a3c585ca64f2c608b8c432b20db7ae82bfd4d610\n\
pk.l_query[32] 02df64ccb8e85d742181264fe1aef88afff24a0ddcd0d66d914aac9125dbe8080a\n\
pk.l_query[64] 009b56f5763a3ee1db1471141065804ed26c6e7dd1292bf99c515bfb6d408d9502\n\
pk.h_query[0] 023c821fdddf953c5ae4b823d9a1b87d8dd878262cb4e4631ca2b0dea854d2e001\n\
pk.h_query[31] 021262b34e068575d4922f7f2387db808a91cc56944e3dba9e4a100f98bff0a50a\n\
pk.h_query[62] 00e0317d6b10a4cd4c7af47bdf518e31c99cacd038f59d10a8f3e931b3ac359916\n\
pk.b_g2_query[0] 02b87fc807eee139042659c20f7a8d558722fd3521b7097cf0f5ca5474c8dde61e59f47402828610c6d509d54b9f20c67597f203ab3e7d82f9697078f1f6068a20\n\
pk.b_g2_query[33] 0267d825d7edf1dbdeee6cd4bdcf6160f64c91da6ffb234da895a3ea60513c251c5cf614a31729733cbd6bd52c62ad251bebfe3dde5ffdb1d36bc1cb2bb5d22f1b\n\
pk.b_g2_query[66] 0100000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000\n\
proof 00b63f5ae30d3e21775ecb0929d9198f7ab1ebedc9735357dcc419477229a6c42f009ae0d7793eb086bdabc9c2c1a55bb13fb023c7a7aeb27f4edca602f474393e1aadb1166da651dd0ac5a26ac3f188099c5506744b33b87b71d339ad3480037a14004ac23bc925780ca06bf69136d9078c50ead501c493da39a8935bdc5964bf2d16\n\
";

    #[test]
    fn keys_equal_the_per_element_reference() {
        // 8: public wires are a fifth of the variables; 100: not a power of two
        for (n, seed) in [(8, 810), (64, 811), (100, 812)] {
            let cs = synthetic_circuit::<Bn254Fr, 4, _>(n, &mut StdRng::seed_from_u64(seed));
            let (pk, vk) = setup(&cs, &mut StdRng::seed_from_u64(seed));
            let (ref_pk, ref_vk) = reference_setup(&cs, &mut StdRng::seed_from_u64(seed));
            assert!(pk == ref_pk, "{n}-constraint proving key drifted");
            assert!(vk == ref_vk, "{n}-constraint verifying key drifted");
        }
    }

    #[test]
    fn keys_and_proof_are_frozen() {
        let mut rng = StdRng::seed_from_u64(2400);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(64, &mut rng);
        let (pk, vk) = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &MultiGpuSystem::dgx_a100(2), &mut rng).expect("prove");
        assert_eq!(frozen_lines(&pk, &vk, &proof), FROZEN_64);
    }

    /// Every strict prefix of the frozen proof, the proof plus one
    /// trailing byte, and every single-bit flip of it decode to `None` or
    /// to the one proof whose encoding is exactly those bytes.
    #[test]
    fn hostile_proof_bytes_decode_to_none_or_their_own_encoding() {
        let good: Vec<u8> = {
            let hex = FROZEN_64
                .lines()
                .find_map(|l| l.strip_prefix("proof "))
                .expect("frozen proof line");
            (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
                .collect()
        };
        let proof = Groth16Proof::from_bytes(&good).expect("the frozen proof decodes");
        assert_eq!(proof.to_bytes(), good);
        let prefixes = (0..good.len()).map(|n| good[..n].to_vec());
        let flips = (0..good.len() * 8).map(|bit| {
            let mut b = good.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        });
        for bytes in prefixes.chain([[&good[..], &[0]].concat()]).chain(flips) {
            if let Some(p) = Groth16Proof::from_bytes(&bytes) {
                assert_eq!(hex(&p.to_bytes()), hex(&bytes), "a second spelling of {p:?}");
            }
        }
    }

    #[test]
    fn b_outside_the_prime_subgroup_rejected() {
        use distmsm_ec::serialize::{point_from_compressed, point_to_compressed};
        let mut rng = StdRng::seed_from_u64(806);
        let (cs, _) = demo_circuit(36, 6);
        let (pk, _) = setup(&cs, &mut rng);
        let proof = prove(&pk, &cs, &MultiGpuSystem::dgx_a100(1), &mut rng).expect("prove");
        // G2's cofactor is ≈ 2^254: a point picked by x is outside the subgroup
        let stray = distmsm_ec::sample::points_by_x::<Bn254G2>(1, 1)[0];
        assert!(stray.is_on_curve() && !in_prime_subgroup(&stray));
        let mut bytes = proof.to_bytes();
        bytes[33..98].copy_from_slice(&point_to_compressed(&stray));
        assert_eq!(
            point_from_compressed::<Bn254G2>(&bytes[33..98]),
            Some(stray)
        );
        assert_eq!(Groth16Proof::from_bytes(&bytes), None);
    }
}
