//! The prover telemetry lane under a real proof, in this test binary's
//! own process (the session is process-global).

use distmsm_ff::params::Bn254Fr;
use distmsm_gpu_sim::MultiGpuSystem;
use distmsm_telemetry::{session, Lane, Span};
use distmsm_zksnark::r1cs::synthetic_circuit;
use distmsm_zksnark::Groth16Prover;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn prove_lays_four_msm_wrappers_then_ntt_and_others_on_the_prover_lane() {
    let mut rng = StdRng::seed_from_u64(40);
    let cs = synthetic_circuit::<Bn254Fr, 4, _>(64, &mut rng);
    let prover = Groth16Prover::new(MultiGpuSystem::dgx_a100(2));

    session::begin();
    let outcome = prover.prove(&cs).expect("prove");
    let clock_s = session::clock_s();
    let timeline = session::end();

    let total_s = outcome.timing.total();
    let eps = 1e-9 * total_s;
    assert!((clock_s - total_s).abs() <= eps, "clock {clock_s} vs timing {total_s}");

    let (prover_lane, engine): (Vec<&Span>, Vec<&Span>) =
        timeline.spans.iter().partition(|s| s.lane == Lane::Prover);
    let stages: Vec<(&str, &str)> =
        prover_lane.iter().map(|s| (s.name.as_str(), s.cat.as_str())).collect();
    assert_eq!(
        stages,
        [
            ("msm:a(G1)", "msm"),
            ("msm:b(G2)", "msm"),
            ("msm:c(G1)", "msm"),
            ("msm:h(G1)", "msm"),
            ("ntt(single-gpu)", "ntt"),
            ("witness+others(cpu)", "others"),
        ]
    );

    // the six stages tile [0, total] in order, and every engine span
    // (device, fabric, host lanes) sits inside an MSM wrapper
    let mut cursor = 0.0;
    for s in &prover_lane {
        assert!((s.t0_s - cursor).abs() <= eps, "`{}` starts at {} not {cursor}", s.name, s.t0_s);
        cursor = s.t1_s;
    }
    assert!((cursor - total_s).abs() <= eps);
    assert!(!engine.is_empty());
    for s in engine {
        let inside = prover_lane[..4]
            .iter()
            .any(|w| w.t0_s - eps <= s.t0_s && s.t1_s <= w.t1_s + eps);
        assert!(inside, "`{}` [{}, {}] lies in no MSM wrapper", s.name, s.t0_s, s.t1_s);
    }
}
