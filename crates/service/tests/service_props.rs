//! Property tests of the service's re-admission path, across curves:
//! a job that completes on a partition containing a device the pool
//! previously quarantined (breaker tripped, probed, re-admitted) must
//! be bit-identical to the fault-free single-GPU reference — quarantine
//! and probation change *placement*, never *values*.

use distmsm::engine::DistMsm;
use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G1, Mnt4753G1};
use distmsm_ec::{Curve, MsmInstance};
use distmsm_gpu_sim::{FaultKind, MultiGpuSystem};
use distmsm_service::{
    ChaosSchedule, DeviceFaultWindow, JobClass, JobSpec, ProverService, ServiceConfig,
    ServiceEventKind,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Runs a three-GPU service where device 2 fail-stops for the opening
/// stretch (tripping its breaker) and then heals (so a half-open probe
/// re-admits it under the tail of the trickle). Returns the outcome
/// with at least one completion on the re-admitted device guaranteed.
fn run_readmission_scenario<C: Curve>(seed: u64, n: usize) -> distmsm_service::ServiceOutcome<C> {
    let config = ServiceConfig {
        n_devices: 3,
        gpus_per_job: 2,
        ..ServiceConfig::default()
    };
    let chaos = ChaosSchedule {
        device_windows: vec![DeviceFaultWindow {
            device: 2,
            t0_s: 0.0,
            t1_s: 10.0,
            kind: FaultKind::FailStop,
        }],
        link_windows: Vec::new(),
    };
    let mut jobs = Vec::new();
    for i in 0..24u64 {
        // Burst, then a trickle: the trickle's dispatches inside the
        // fault window trip the breaker (the burst mostly drains on the
        // devices the first recovery left idle), and its dispatches
        // past the window give the probe a healthy device to re-admit.
        let arrival_s = if i < 10 { 0.001 * i as f64 } else { 5.0 + (i - 10) as f64 };
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(i));
        jobs.push(JobSpec {
            id: i,
            tenant: (i % 2) as usize,
            class: JobClass::Batch,
            arrival_s,
            deadline_s: None,
            instance: MsmInstance::<C>::random(n, &mut rng),
        });
    }
    let mut service = ProverService::new(config);
    service.run(jobs.clone(), &chaos)
}

/// The property: the scenario exercises the full breaker cycle, and
/// every job completed on a partition containing the re-admitted device
/// matches the fault-free reference bit for bit.
fn check_readmitted_results_bit_exact<C: Curve>(seed: u64, n: usize) {
    let outcome = run_readmission_scenario::<C>(seed, n);

    // The cycle actually happened: device 2 tripped and was re-admitted.
    let causes: Vec<&str> = outcome
        .report
        .pool_timeline
        .iter()
        .filter(|t| t.device == 2)
        .map(|t| t.cause)
        .collect();
    assert!(
        causes.contains(&"fault-threshold"),
        "{}: device 2 never tripped its breaker: {causes:?}",
        C::NAME
    );
    assert!(
        causes.contains(&"probe-success"),
        "{}: device 2 was never re-admitted: {causes:?}",
        C::NAME
    );

    let readmitted: Vec<_> = outcome
        .completed
        .iter()
        .filter(|c| c.used_readmitted_device)
        .collect();
    assert!(
        !readmitted.is_empty(),
        "{}: no completion rode the re-admitted device",
        C::NAME
    );

    // Rebuild the same instances the scenario ran and compare each
    // re-admitted completion against the fault-free single-GPU result.
    let reference = DistMsm::new(MultiGpuSystem::dgx_a100(1));
    for c in readmitted {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(c.id));
        let inst = MsmInstance::<C>::random(n, &mut rng);
        let clean = reference.execute(&inst).expect("fault-free reference executes");
        assert_eq!(
            clean.result.to_affine(),
            c.result.to_affine(),
            "{} seed={seed} job={}: re-admitted result diverged from the reference",
            C::NAME,
            c.id
        );
    }

    // And the health gate held throughout: replaying the event stream,
    // no dispatch named device 2 while its breaker was open.
    let mut open = false;
    for e in &outcome.events {
        match &e.kind {
            ServiceEventKind::Breaker { transition } if transition.device == 2 => {
                open = transition.to == distmsm_service::BreakerState::Open;
            }
            ServiceEventKind::Dispatched { devices, .. } if devices.contains(&2) => {
                assert!(
                    !open,
                    "{} seed={seed}: job {:?} dispatched to device 2 at t={} \
                     while its breaker was open",
                    C::NAME,
                    e.job,
                    e.t_s
                );
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn bn254_readmitted_results_bit_exact(seed in 0u64..1000) {
        check_readmitted_results_bit_exact::<Bn254G1>(seed, 32);
    }

    #[test]
    fn bls12_377_readmitted_results_bit_exact(seed in 0u64..1000) {
        check_readmitted_results_bit_exact::<Bls12377G1>(seed, 24);
    }

    #[test]
    fn bls12_381_readmitted_results_bit_exact(seed in 0u64..1000) {
        check_readmitted_results_bit_exact::<Bls12381G1>(seed, 24);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn mnt4753_readmitted_results_bit_exact(seed in 0u64..1000) {
        check_readmitted_results_bit_exact::<Mnt4753G1>(seed, 10);
    }
}
