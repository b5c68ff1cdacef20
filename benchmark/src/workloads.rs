//! The four workloads: what each builds from the seed, what one op is,
//! and how its outputs are checked.
//!
//! * `msm_bn254_64k` — the paper's path: PACC and bucket-sum dominate.
//! * `msm_bls381_sliced` — the same engine on its non-default paths:
//!   6-limb field, signed digits, GPU-side reduce, a 32-rank ring.
//! * `groth16_4k` — what a proof user pays: G2, four unequal MSMs,
//!   QAP/NTT and the pairing verifier over fixed bases.
//! * `fleet_serve` — `fleet`/`service`/`journal`/2G2T in front of tiny
//!   MSMs: the engine's per-call floor, not PACC.

use crate::layers::{fleet_walk, micro, msm_walk, proof_walk, FleetCase, MsmCase, ProofCase};
use crate::metrics::Metrics;
use crate::oracle::{same_bits, serial_pippenger};
use crate::spans::Tracer;
use crate::stats::median;
use distmsm::prelude::*;
use distmsm_ec::sample::generator_multiples;
use distmsm_fleet::soak::{check_fleet_invariants, FleetSoakSpec};
use distmsm_fleet::{FleetCoordinator, FleetOutcome};
use distmsm_service::ServiceEventKind;
use distmsm_zksnark::{groth16, Groth16Prover};
use rand::{rngs::StdRng, SeedableRng};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "msm_bn254_64k",
    "msm_bls381_sliced",
    "groth16_4k",
    "fleet_serve",
];

/// Independent 64-bit stream `stream` of the run's seed (splitmix64
/// finaliser), so instance scalars, the circuit witness and the fleet's
/// arrival/fault seeds never share randomness.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const STREAM_SCALARS: u64 = 1;
const STREAM_CIRCUIT: u64 = 2;
const STREAM_ARRIVALS: u64 = 3;
const STREAM_FAULTS: u64 = 4;
const STREAM_PROOF_BLINDING: u64 = 5;

/// One workload, built from a seed.
pub trait Workload {
    /// Ops run and discarded before timing starts.
    fn warmup_ops(&self) -> usize;
    /// Runs one op and checks its output against the first op's; `false`
    /// counts the op as failed.
    fn op(&mut self) -> bool;
    /// Output checks outside the timed loop; one line per miss.
    fn oracle(&mut self) -> Vec<String>;
    /// Simulated milliseconds of the modelled system for one op (valid
    /// after [`Self::oracle`]).
    fn sim_ms(&self) -> f64;
    /// Walks the MSM this workload rests on through `core` (the traced
    /// run); one line per output mismatch.
    fn walk_msm(&self, tr: &mut Tracer, m: &mut Metrics) -> Vec<String>;
    /// The workload's own circuit, when proving is what it does.
    fn proof_case(&self) -> Option<&ProofCase> {
        None
    }
    /// The workload's own job trace, with the report its first op produced.
    fn fleet_case(&self) -> Option<(&FleetCase, Option<&str>)> {
        None
    }
    /// Seeds derived from `--seed`, for the provenance line.
    fn derived_seeds(&self) -> String {
        String::new()
    }
}

/// Builds workload `name` from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "msm_bn254_64k" => Box::new(MsmWorkload::<Bn254G1>::new(
            1 << 16,
            MultiGpuSystem::dgx_a100(8),
            DistMsmConfig::default(),
            seed,
        )),
        "msm_bls381_sliced" => Box::new(MsmWorkload::<Bls12381G1>::new(
            1 << 12,
            MultiGpuSystem::dgx_a100(32),
            DistMsmConfig::builder()
                .signed_digits(true)
                .bucket_reduce_on_cpu(false)
                .collective(CollectiveStrategy::RingAllReduce)
                .build()
                .expect("a valid engine configuration"),
            seed,
        )),
        "groth16_4k" => Box::new(ProofWorkload::new(seed)),
        "fleet_serve" => Box::new(FleetWorkload::new(seed)),
        _ => return None,
    })
}

/// The traced run's layer measurements: the workload's MSM through
/// `core`, a proof through `zksnark`, a job trace through
/// `service`/`fleet`/`journal`, then the `ff`/`ec`/NTT rungs. Where the
/// workload has no circuit or job trace of its own a small one stands in
/// (2^8 constraints; 8 chaos-free jobs), so that every traced run measures
/// every layer. Returns one line per output mismatch.
pub fn layers(w: &dyn Workload, tr: &mut Tracer, m: &mut Metrics, seed: u64) -> Vec<String> {
    let mut failures = w.walk_msm(tr, m);

    let probe;
    let proof = match w.proof_case() {
        Some(own) => own,
        None => {
            let mut rng = StdRng::seed_from_u64(derive_seed(seed, STREAM_CIRCUIT));
            probe = ProofCase::build(1 << 8, 8, &mut rng);
            &probe
        }
    };
    let blinding = derive_seed(seed, STREAM_PROOF_BLINDING);
    failures.extend(proof_walk(tr, m, proof, blinding));

    let probe;
    let (fleet, first_report) = match w.fleet_case() {
        Some(own) => own,
        None => {
            probe = FleetCase::build(FleetSoakSpec {
                n_jobs: 8,
                horizon_s: 6.0,
                n_fault_windows: 0,
                byzantine_pod: None,
                lost_pod: None,
                ..serve_spec(seed)
            });
            (&probe, None)
        }
    };
    failures.extend(fleet_walk(tr, m, fleet, first_report));

    micro(tr, m);
    failures
}

// -------------------------------------------------------------------- MSM

struct MsmWorkload<C: Curve> {
    case: MsmCase<C>,
    engine: DistMsm,
    first: Option<XyzzPoint<C>>,
    sim_s: f64,
}

impl<C: Curve> MsmWorkload<C> {
    fn new(n: usize, system: MultiGpuSystem, config: DistMsmConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, STREAM_SCALARS));
        let instance = MsmInstance::<C>::random(n, &mut rng);
        let engine = DistMsm::with_config(system.clone(), config.clone());
        Self {
            case: MsmCase {
                instance,
                system,
                config,
            },
            engine,
            first: None,
            sim_s: 0.0,
        }
    }
}

impl<C: Curve> Workload for MsmWorkload<C> {
    fn warmup_ops(&self) -> usize {
        3
    }

    fn op(&mut self) -> bool {
        let Ok(report) = self.engine.execute(&self.case.instance) else {
            return false;
        };
        self.sim_s = report.total_s;
        same_bits(self.first.get_or_insert(report.result), &report.result)
    }

    fn oracle(&mut self) -> Vec<String> {
        match &self.first {
            Some(first)
                if first.to_affine() == serial_pippenger(&self.case.instance).to_affine() =>
            {
                Vec::new()
            }
            Some(_) => vec!["the engine's MSM differs from the serial Pippenger oracle".into()],
            None => vec!["no op completed".into()],
        }
    }

    fn sim_ms(&self) -> f64 {
        self.sim_s * 1e3
    }

    fn walk_msm(&self, tr: &mut Tracer, m: &mut Metrics) -> Vec<String> {
        msm_walk(tr, m, &self.case)
    }
}

// ---------------------------------------------------------------- Groth16

struct ProofWorkload {
    case: ProofCase,
    seed: u64,
    ops: u64,
    last_proof: Option<groth16::Groth16Proof>,
    sim_s: f64,
}

impl ProofWorkload {
    fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, STREAM_CIRCUIT));
        Self {
            case: ProofCase::build(1 << 12, 8, &mut rng),
            seed,
            ops: 0,
            last_proof: None,
            sim_s: 0.0,
        }
    }
}

impl Workload for ProofWorkload {
    fn warmup_ops(&self) -> usize {
        2
    }

    /// Prove, then verify with the pairing check; blinding differs per op.
    fn op(&mut self) -> bool {
        let c = &self.case;
        let blinding = derive_seed(self.seed, STREAM_PROOF_BLINDING).wrapping_add(self.ops);
        self.ops += 1;
        let mut rng = StdRng::seed_from_u64(blinding);
        let Ok(proof) = groth16::prove(&c.pk, &c.cs, &c.system, &mut rng) else {
            return false;
        };
        let ok = groth16::verify(&c.vk, &c.public_inputs(), &proof);
        self.last_proof = Some(proof);
        ok
    }

    fn oracle(&mut self) -> Vec<String> {
        let c = &self.case;
        let Some(proof) = &self.last_proof else {
            return vec!["no proof completed".into()];
        };
        let mut failures = Vec::new();
        let mut wrong_inputs = c.public_inputs();
        wrong_inputs[0] += distmsm_ff::Fp::ONE;
        if groth16::verify(&c.vk, &wrong_inputs, proof) {
            failures.push("a proof verified against a wrong public input".into());
        }
        let negated = groth16::Groth16Proof {
            c: proof.c.neg(),
            ..proof.clone()
        };
        if groth16::verify(&c.vk, &c.public_inputs(), &negated) {
            failures.push("a proof with negated C verified".into());
        }
        match Groth16Prover::new(c.system.clone()).prove(&c.cs) {
            Ok(modelled) => self.sim_s = modelled.timing.total(),
            Err(e) => failures.push(format!("the modelled prover failed: {e}")),
        }
        failures
    }

    fn sim_ms(&self) -> f64 {
        self.sim_s * 1e3
    }

    /// The proof's first MSM: all variables against G1 bases.
    fn walk_msm(&self, tr: &mut Tracer, m: &mut Metrics) -> Vec<String> {
        let c = &self.case;
        let msm = MsmCase::<Bn254G1> {
            instance: MsmInstance {
                points: generator_multiples(c.cs.n_variables()),
                scalars: c.scalars(),
            },
            system: c.system.clone(),
            config: DistMsmConfig::default(),
        };
        msm_walk(tr, m, &msm)
    }

    fn proof_case(&self) -> Option<&ProofCase> {
        Some(&self.case)
    }
}

// ------------------------------------------------------------------ fleet

/// 80 jobs of 16–32 points from 128 tenants over 60 simulated seconds on
/// 4 pods × 4 devices, pod 3 byzantine and pod 1 lost a quarter in.
fn serve_spec(seed: u64) -> FleetSoakSpec {
    FleetSoakSpec {
        arrival_seed: derive_seed(seed, STREAM_ARRIVALS),
        fault_seed: derive_seed(seed, STREAM_FAULTS),
        n_jobs: 80,
        n_tenants: 128,
        horizon_s: 60.0,
        ..FleetSoakSpec::smoke()
    }
}

struct FleetWorkload {
    case: FleetCase,
    first: Option<(String, FleetOutcome<Bn254G1>)>,
    last: Option<FleetOutcome<Bn254G1>>,
}

impl FleetWorkload {
    fn new(seed: u64) -> Self {
        Self {
            case: FleetCase::build(serve_spec(seed)),
            first: None,
            last: None,
        }
    }
}

impl Workload for FleetWorkload {
    fn warmup_ops(&self) -> usize {
        1
    }

    fn op(&mut self) -> bool {
        let c = &self.case;
        let outcome = FleetCoordinator::new(c.config.clone()).run(c.jobs.clone(), &c.chaos);
        let json = outcome.report.to_detailed_json();
        match &self.first {
            None => {
                self.first = Some((json, outcome));
                true
            }
            Some((first_json, _)) => {
                let same = *first_json == json;
                self.last = Some(outcome);
                same
            }
        }
    }

    fn oracle(&mut self) -> Vec<String> {
        let c = &self.case;
        let checked = self.first.iter().map(|(_, o)| o).chain(&self.last);
        checked
            .flat_map(|o| check_fleet_invariants(&c.spec, &c.jobs, o, &c.config))
            .map(|v| format!("fleet invariant {}: {}", v.invariant, v.detail))
            .collect()
    }

    /// Median simulated arrival-to-completion time of a completed job.
    /// (`FleetReport::horizon_s` follows the arrival trace, so it differs
    /// by ~6 % from seed to seed; it is reported as `fleet.sim_horizon_s`.)
    fn sim_ms(&self) -> f64 {
        let Some((_, outcome)) = &self.first else {
            return 0.0;
        };
        let sojourns: Vec<f64> = outcome
            .pod_events
            .iter()
            .filter_map(|(_, e)| match e.kind {
                ServiceEventKind::Completed { sojourn_s, .. } => Some(sojourn_s * 1e3),
                _ => None,
            })
            .collect();
        median(&sojourns)
    }

    /// One job's MSM as a pod dispatches it.
    fn walk_msm(&self, tr: &mut Tracer, m: &mut Metrics) -> Vec<String> {
        let c = &self.case;
        let msm = MsmCase::<Bn254G1> {
            instance: c.jobs[0].instance.clone(),
            system: MultiGpuSystem::dgx_a100(c.config.pod.gpus_per_job),
            config: DistMsmConfig::builder()
                .window_size(c.config.pod.window_size)
                .build()
                .expect("the service's window size is valid"),
        };
        msm_walk(tr, m, &msm)
    }

    fn fleet_case(&self) -> Option<(&FleetCase, Option<&str>)> {
        let first_report = self.first.as_ref().map(|(json, _)| json.as_str());
        Some((&self.case, first_report))
    }

    fn derived_seeds(&self) -> String {
        format!(
            " arrival_seed={} fault_seed={}",
            self.case.spec.arrival_seed, self.case.spec.fault_seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_streams_differ_and_repeat() {
        assert_eq!(
            derive_seed(7, STREAM_ARRIVALS),
            derive_seed(7, STREAM_ARRIVALS)
        );
        assert_ne!(
            derive_seed(7, STREAM_ARRIVALS),
            derive_seed(7, STREAM_FAULTS)
        );
        assert_ne!(
            derive_seed(7, STREAM_SCALARS),
            derive_seed(8, STREAM_SCALARS)
        );
    }

    #[test]
    fn every_named_workload_is_known_and_no_other() {
        assert!(build("nope", 1).is_none());
        // building the two cheap ones exercises the seed plumbing
        for name in ["msm_bls381_sliced", "fleet_serve"] {
            assert!(build(name, 1).is_some(), "{name}");
        }
    }
}
