//! A Groth16-shaped prover over simulated multi-GPU MSM.
//!
//! Reproduces the *structure* of end-to-end proof generation (Table 4):
//! witness evaluation → QAP quotient via NTT → one G2 MSM and three G1
//! MSMs → constant-size proof. Query bases are generator multiples rather
//! than a real trusted setup (the paper's experiments never inspect base
//! values, only MSM sizes), and verification is the QAP polynomial
//! identity instead of a pairing check (O(1) and outside every reproduced
//! experiment — DESIGN.md §1).

use crate::qap::{check_qap_identity, qap_witness, QapWitness};
use crate::r1cs::ConstraintSystem;
use distmsm::engine::{DistMsm, DistMsmConfig, MsmError, MsmReport};
use distmsm_ec::curves::{Bn254G1, Bn254G2};
use distmsm_ec::sample::generator_multiples;
use distmsm_ec::{Curve, MsmInstance, XyzzPoint};
use distmsm_ff::params::Bn254Fr;
use distmsm_ff::Fp;
use distmsm_gpu_sim::MultiGpuSystem;

type Fr = Fp<Bn254Fr, 4>;

/// A Groth16-format proof: two G1 elements and one G2 element
/// (127 bytes compressed — the paper's constant proof size).
#[derive(Clone, Debug, PartialEq)]
pub struct Proof {
    /// The `A` commitment.
    pub a: XyzzPoint<Bn254G1>,
    /// The `B` commitment (G2).
    pub b: XyzzPoint<Bn254G2>,
    /// The `C` commitment.
    pub c: XyzzPoint<Bn254G1>,
}

/// Timing breakdown of one proof generation, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProverTiming {
    /// Multi-GPU MSM time (all four MSMs).
    pub msm_s: f64,
    /// Single-GPU NTT time (the paper pairs DistMSM with sppark's
    /// single-GPU NTT).
    pub ntt_s: f64,
    /// CPU time for everything else (witness/matrix evaluation,
    /// element-wise products).
    pub others_s: f64,
}

impl ProverTiming {
    /// Total proof-generation time.
    pub fn total(&self) -> f64 {
        self.msm_s + self.ntt_s + self.others_s
    }

    /// Fraction of time in each stage `(msm, ntt, others)`.
    pub fn fractions(&self) -> (f64, f64, f64) {
        let t = self.total();
        (self.msm_s / t, self.ntt_s / t, self.others_s / t)
    }
}

/// Result of proving: the proof, its timing and the QAP artefacts.
#[derive(Clone, Debug)]
pub struct ProveOutcome {
    /// The constant-size proof.
    pub proof: Proof,
    /// Simulated timing.
    pub timing: ProverTiming,
    /// The QAP witness (kept for verification).
    pub qap: QapWitness<Bn254Fr, 4>,
    /// Service-level MSM retries the prover spent: each time an MSM
    /// failed with a fault-class error, the prover re-ran it as the next
    /// attempt (fault plans are attempt-scoped, so a transient fault
    /// clears on re-run).
    pub msm_retries: u32,
}

/// The Groth16-shaped prover bound to a multi-GPU system.
#[derive(Clone, Debug)]
pub struct Groth16Prover {
    msm: DistMsm,
    system: MultiGpuSystem,
    retry_budget: u32,
}

impl Groth16Prover {
    /// Builds a prover whose MSMs run on `system` with DistMSM defaults.
    pub fn new(system: MultiGpuSystem) -> Self {
        Self::with_config(system, DistMsmConfig::default())
    }

    /// Builds a prover with an explicit engine configuration — the way a
    /// fault plan (and its retry policy) reaches proof generation.
    pub fn with_config(system: MultiGpuSystem, config: DistMsmConfig) -> Self {
        let retry_budget = config.retry.max_retries;
        Self {
            msm: DistMsm::with_config(system.clone(), config),
            system,
            retry_budget,
        }
    }

    /// Runs one MSM with service-level retries: a fault-class failure
    /// (lost device, partitioned fabric, exhausted in-run budget) re-runs
    /// the MSM as the next attempt, up to the engine's retry budget.
    /// Non-fault errors propagate immediately. A successful MSM is
    /// wrapped in a prover-lane span called `name`.
    fn msm_with_retry<C: Curve>(
        &self,
        name: &str,
        inst: &MsmInstance<C>,
        retries: &mut u32,
    ) -> Result<MsmReport<C>, MsmError> {
        let t0 = distmsm_telemetry::session::clock_s();
        let mut attempt = 0u32;
        let rep = loop {
            match self.msm.execute_attempt(inst, attempt) {
                Err(e) if e.is_fault() && attempt < self.retry_budget => {
                    attempt += 1;
                    *retries += 1;
                }
                other => break other?,
            }
        };
        telem::msm_span(name, t0);
        Ok(rep)
    }

    /// Generates a proof for a satisfied constraint system, running every
    /// MSM through the simulated multi-GPU engine.
    ///
    /// # Errors
    ///
    /// Propagates MSM failures.
    ///
    /// # Panics
    ///
    /// Panics if the constraint system is unsatisfied.
    pub fn prove(&self, cs: &ConstraintSystem<Bn254Fr, 4>) -> Result<ProveOutcome, MsmError> {
        assert!(cs.is_satisfied(), "cannot prove an unsatisfied system");
        let m = cs.n_variables();

        // ---- stage 1: QAP quotient (NTT stage) --------------------------
        let qap = qap_witness(cs);
        let d = qap.domain.size();

        // ---- stage 2: MSMs ------------------------------------------------
        // Bases: generator multiples stand in for CRS elements.
        let g1_bases = generator_multiples::<Bn254G1>(m.max(d));
        let g2_bases = generator_multiples::<Bn254G2>(m);
        let z: Vec<<Bn254G1 as Curve>::Scalar> =
            cs.assignment().iter().map(Fp::to_uint).collect();
        let h_scalars: Vec<<Bn254G1 as Curve>::Scalar> =
            qap.h.iter().map(Fp::to_uint).collect();

        let mut msm_retries = 0u32;
        let a_msm = self.msm_with_retry(
            "msm:a(G1)",
            &MsmInstance::<Bn254G1> {
                points: g1_bases[..m].to_vec(),
                scalars: z.clone(),
            },
            &mut msm_retries,
        )?;
        let b_msm = self.msm_with_retry(
            "msm:b(G2)",
            &MsmInstance::<Bn254G2> {
                points: g2_bases,
                scalars: z.clone(),
            },
            &mut msm_retries,
        )?;
        let c_base = self.msm_with_retry(
            "msm:c(G1)",
            &MsmInstance::<Bn254G1> {
                points: g1_bases[..m].to_vec(),
                scalars: z,
            },
            &mut msm_retries,
        )?;
        let h_msm = self.msm_with_retry(
            "msm:h(G1)",
            &MsmInstance::<Bn254G1> {
                points: g1_bases[..d].to_vec(),
                scalars: h_scalars,
            },
            &mut msm_retries,
        )?;

        let proof = Proof {
            a: a_msm.result,
            b: b_msm.result,
            c: c_base.result.padd(&h_msm.result),
        };

        // ---- timing --------------------------------------------------------
        let msm_s = a_msm.total_s + b_msm.total_s + c_base.total_s + h_msm.total_s;
        let ntt_s = ntt_time_single_gpu(d as u64, qap.ntt_count, &self.system);
        let nnz: u64 = cs
            .constraints()
            .iter()
            .map(|c| (c.a.len() + c.b.len() + c.c.len()) as u64)
            .sum();
        let others_s = others_time_cpu(nnz, d as u64, &self.system);
        telem::serial_stage("ntt(single-gpu)", "ntt", ntt_s);
        telem::serial_stage("witness+others(cpu)", "others", others_s);

        Ok(ProveOutcome {
            proof,
            timing: ProverTiming {
                msm_s,
                ntt_s,
                others_s,
            },
            qap,
            msm_retries,
        })
    }

    /// Verifies a proof outcome structurally: the QAP identity holds at a
    /// pseudo-random point and the proof parts are finite group elements.
    pub fn verify(&self, outcome: &ProveOutcome) -> bool {
        let tau = Fr::from_u64(0x5eed_cafe_f00d_u64);
        check_qap_identity(&outcome.qap, tau)
            && !outcome.proof.a.is_identity()
            && !outcome.proof.b.is_identity()
    }
}

/// Single-GPU NTT time model: `count` transforms of size `d`, one modular
/// multiply plus two adds per butterfly, on the first device's CUDA cores
/// (the paper: "the NTT is a single-GPU implementation").
pub fn ntt_time_single_gpu(d: u64, count: u32, system: &MultiGpuSystem) -> f64 {
    let dev = &system.devices[0];
    let log_d = 64 - d.leading_zeros() as u64 - 1;
    let butterflies = (d / 2) * log_d * u64::from(count);
    // BN254 Fr: 8 u32 limbs ⇒ ~4·8² + 8·8 int ops per modmul, ~3·8 per add
    let ops_per_butterfly = 4.0 * 64.0 + 64.0 + 2.0 * 24.0;
    let eff = dev.efficiency_at(dev.occupancy(48, 0, 256));
    butterflies as f64 * ops_per_butterfly / (dev.cuda_int32_tops * 1e12 * eff)
}

/// Multi-GPU NTT projection — the paper's stated future work ("this
/// analysis still underestimates the potential speedup, as … NTT and
/// others could also benefit from multi-GPU acceleration"). Models the
/// four-step NTT: per-GPU sub-transforms scale linearly; one all-to-all
/// transpose of the full data crosses the interconnect.
pub fn ntt_time_multi_gpu(d: u64, count: u32, system: &MultiGpuSystem) -> f64 {
    let g = system.n_gpus() as f64;
    let compute = ntt_time_single_gpu(d, count, system) / g;
    // One all-to-all transpose per transform over the peer fabric. The
    // widest-spread pair prices the per-byte cost: on a multi-node pod
    // that pair crosses the NIC, so the transpose slows at node
    // boundaries instead of pretending to ride box-local NVLink.
    let bytes = d as f64 * 32.0 * (g - 1.0).max(1.0) / g;
    let transpose = if system.n_gpus() > 1 {
        f64::from(count) * system.peer_time(0, system.n_gpus() - 1, bytes)
    } else {
        f64::from(count) * system.peer_transfer_time(bytes)
    };
    compute + transpose
}

/// CPU time model for the "others" stage: matrix-vector evaluation over
/// the sparse constraint matrices plus element-wise polynomial work.
pub fn others_time_cpu(nnz: u64, d: u64, system: &MultiGpuSystem) -> f64 {
    // one field multiply (~80 64-bit int ops) per nonzero plus ~4 ops of
    // bookkeeping per domain element
    let ops = nnz as f64 * 80.0 + d as f64 * 4.0 * 80.0;
    system.cpu.compute_time(ops)
}

/// Prover-lane telemetry: structural `"msm"` wrapper spans around the
/// engine emissions (which advance the session clock themselves) and
/// serial NTT/"others" stage spans that advance the clock by their own
/// duration.
mod telem {
    use distmsm_telemetry::{session, Lane, Span};

    /// Closes a structural MSM wrapper opened at `t0_s`: the engine's
    /// emission advanced the clock to the MSM's end.
    pub(crate) fn msm_span(name: &str, t0_s: f64) {
        if !session::active() {
            return;
        }
        session::push_span(Span {
            name: name.into(),
            cat: "msm".into(),
            lane: Lane::Prover,
            t0_s,
            t1_s: session::clock_s(),
            args: Vec::new(),
        });
    }

    /// Emits one serial prover stage at the clock cursor and advances
    /// the cursor past it.
    pub(crate) fn serial_stage(name: &str, cat: &str, dur_s: f64) {
        if !session::active() || dur_s <= 0.0 {
            return;
        }
        let t0 = session::clock_s();
        session::push_span(Span {
            name: name.into(),
            cat: cat.into(),
            lane: Lane::Prover,
            t0_s: t0,
            t1_s: t0 + dur_s,
            args: Vec::new(),
        });
        session::advance_s(dur_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::r1cs::synthetic_circuit;
    use rand::{rngs::StdRng, SeedableRng};

    fn small_prove(n: usize, gpus: usize) -> (Groth16Prover, ProveOutcome) {
        let mut rng = StdRng::seed_from_u64(40);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(n, &mut rng);
        let prover = Groth16Prover::new(MultiGpuSystem::dgx_a100(gpus));
        let outcome = prover.prove(&cs).expect("prove");
        (prover, outcome)
    }

    #[test]
    fn prove_and_verify() {
        let (prover, outcome) = small_prove(64, 2);
        assert!(prover.verify(&outcome));
        assert!(outcome.timing.total() > 0.0);
    }

    #[test]
    fn tampered_proof_outcome_rejected() {
        let (prover, mut outcome) = small_prove(32, 1);
        outcome.qap.h[0] += Fr::ONE;
        assert!(!prover.verify(&outcome));
    }

    #[test]
    fn msm_dominates_at_scale_in_models() {
        // Table 4 analysis: MSM 78.2%, NTT 17.9%, others 3.9% on CPUs; on
        // the simulated pipeline MSM must at least dominate NTT+others for
        // realistic sizes. Checked through the pure timing models to avoid
        // functional execution at scale.
        let sys = MultiGpuSystem::dgx_a100(1);
        let d = 1u64 << 22;
        let ntt = ntt_time_single_gpu(d, 7, &sys);
        let others = others_time_cpu(6 * d, d, &sys);
        assert!(ntt > 0.0 && others > 0.0);
        // MSM time at that size (analytic) dwarfs both
        let msm = distmsm::analytic::estimate_distmsm(
            d,
            &distmsm::CurveDesc::BN254,
            &sys,
            &distmsm::DistMsmConfig::default(),
        );
        assert!(msm.total_s > ntt, "msm {} vs ntt {ntt}", msm.total_s);
    }

    #[test]
    fn prover_retries_through_transient_device_loss() {
        // a sole GPU fail-stops on attempt 0: unrecoverable in-run, but
        // the service-level retry re-runs as attempt 1 where the
        // (attempt-scoped) fault has cleared
        let mut rng = StdRng::seed_from_u64(41);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(48, &mut rng);
        let prover = Groth16Prover::with_config(
            MultiGpuSystem::dgx_a100(1),
            DistMsmConfig::builder()
                .fault_plan(distmsm_gpu_sim::FaultPlan::fail_stop(0, 0))
                .build()
                .unwrap(),
        );
        let outcome = prover.prove(&cs).expect("retry clears the fault");
        assert!(prover.verify(&outcome));
        assert!(outcome.msm_retries >= 1, "retries {}", outcome.msm_retries);

        // the reference prover on the same circuit agrees bit-for-bit
        let clean = Groth16Prover::new(MultiGpuSystem::dgx_a100(1));
        let reference = clean.prove(&cs).expect("clean prove");
        assert_eq!(outcome.proof, reference.proof);
        assert_eq!(reference.msm_retries, 0);
    }

    #[test]
    fn prover_without_budget_surfaces_fault() {
        let mut rng = StdRng::seed_from_u64(42);
        let cs = synthetic_circuit::<Bn254Fr, 4, _>(32, &mut rng);
        let prover = Groth16Prover::with_config(
            MultiGpuSystem::dgx_a100(1),
            DistMsmConfig::builder()
                .fault_plan(distmsm_gpu_sim::FaultPlan::fail_stop(0, 0))
                .retry(distmsm::RetryPolicy::default().with_max_retries(0))
                .build()
                .unwrap(),
        );
        let err = prover.prove(&cs).expect_err("no budget, fault surfaces");
        assert!(err.is_fault(), "expected a fault-class error, got {err:?}");
    }

    #[test]
    fn proof_is_constant_size() {
        let (_, o1) = small_prove(16, 1);
        let (_, o2) = small_prove(128, 1);
        // structurally: both proofs are exactly (G1, G2, G1)
        let _ = (o1.proof.a, o2.proof.a);
        assert!(!o1.proof.c.is_identity() || !o2.proof.c.is_identity());
    }
}
