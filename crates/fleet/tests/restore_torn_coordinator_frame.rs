//! A pod journals a hand-off (the victim's tombstone, the thief's
//! absorption) before the coordinator journals it, so a crash cut can
//! keep a job on a pod the coordinator's fold does not name as owner.
//! The restore moves ownership to the pod that holds the job; left on
//! the stale owner, the job's next steal is refused by the fold (a
//! panic in the live append) and its completion is discarded as a
//! zombie (the job never terminates).

use distmsm_ec::curves::Bn254G1;
use distmsm_ec::MsmInstance;
use distmsm_fleet::{
    CrashSoakSpec, FleetChaos, FleetConfig, FleetCoordinator, FleetRecord, FleetWal,
};
use distmsm_service::{
    AdmissionOutcome, JobClass, JobSpec, Scenario, ServiceConfig, ServiceEvent,
    ServiceEventKind, ServiceRecord, ServiceWal,
};
use rand::{rngs::StdRng, SeedableRng};

fn job(id: u64) -> JobSpec<Bn254G1> {
    let mut rng = StdRng::seed_from_u64(id);
    JobSpec {
        id,
        tenant: 0,
        class: JobClass::Interactive,
        arrival_s: 0.0,
        deadline_s: None,
        instance: MsmInstance::random(8, &mut rng),
    }
}

fn admit(wal: &mut ServiceWal, id: u64) {
    let outcome = AdmissionOutcome::Admitted { queue_len: 1 };
    let class = JobClass::Interactive;
    wal.append(0.0, &ServiceRecord::Admission { t_s: 0.0, id, tenant: 0, class, outcome });
}

/// Restores a two-pod fleet whose coordinator placed job 1 on pod 0
/// and lost the hand-off to pod 1 that `pod1` journaled.
fn restore_lost_hand_off(pod1: impl FnOnce(&mut ServiceWal)) -> (FleetCoordinator<Bn254G1>, u64) {
    let pod = ServiceConfig { n_devices: 2, gpus_per_job: 2, ..ServiceConfig::default() };
    let config = FleetConfig { n_pods: 2, pod, check_seed: 1 };
    let mut coordinator = FleetWal::new(2);
    coordinator.append(0.0, &FleetRecord::Placed { t_s: 0.0, id: 1, pod: 0, epoch: 1 });

    let mut pods: Vec<ServiceWal> = (0..2).map(|_| ServiceWal::new(config.pod.shape())).collect();
    admit(&mut pods[0], 1);
    pods[0].append(1.0, &ServiceRecord::StolenOut { t_s: 1.0, id: 1, attempt: 0 });
    pods[1].append(1.0, &ServiceRecord::Absorbed { t_s: 1.0, id: 1, tenant: 0, attempt: 0 });
    pod1(&mut pods[1]);
    let pod_durables: Vec<_> = pods.iter().map(|w| w.durable().clone()).collect();

    let chaos = FleetChaos::none(2);
    let (fleet, info) =
        FleetCoordinator::restore(config, &[job(1)], coordinator.durable(), &pod_durables, &chaos)
            .expect("the cut restores");
    (fleet, info.replaced_jobs)
}

#[test]
fn a_queued_copy_the_coordinator_lost_moves_ownership_to_its_pod() {
    let (fleet, replaced) = restore_lost_hand_off(|_| {});
    assert_eq!(fleet.wal_state().placed_on[&1], 1, "the pod holding the job owns it");
    assert_eq!(replaced, 1);
}

#[test]
fn a_completed_copy_the_coordinator_lost_is_reverified_on_its_pod() {
    let (fleet, replaced) = restore_lost_hand_off(|wal| {
        let spec = job(1);
        let kind = ServiceEventKind::Completed { deadline_met: true, sojourn_s: 1.0, attempts: 1 };
        let event = ServiceEvent { t_s: 2.0, job: Some(1), tenant: Some(0), kind };
        let result = spec.instance.reference_result().to_affine();
        let result = distmsm_ec::serialize::point_to_uncompressed(&result);
        wal.append(2.0, &ServiceRecord::Completed { event, result, used_readmitted: false });
    });
    let state = fleet.wal_state();
    assert_eq!(state.placed_on[&1], 1);
    assert_eq!(replaced, 1);
    let accepted: Vec<(u64, usize)> = state.accepted.iter().map(|a| (a.id, a.pod)).collect();
    assert_eq!(accepted, [(1, 1)], "the durable completion is accepted, not discarded");
}

/// The full crash-soak preset with everything but the torn
/// coordinator frame shrunk away, over `fleet_jobs` fleet jobs.
fn torn_frame_spec(fleet_jobs: usize) -> CrashSoakSpec {
    let args = "--service-jobs 1 --service-fault-windows 0 --service-link-windows 0 \
                --service-horizon 0.5859375 --no-service-always-faulty --kill-points 1 \
                --torn-points 1 --fleet-cuts 0 --ckpt-msm-size 16";
    let mut args: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
    args.extend(["--fleet-jobs".to_owned(), fleet_jobs.to_string()]);
    CrashSoakSpec::from_args(&args)
}

/// Torn frame 805 loses `Replaced { id: 131, from: 3, to: 0 }`; pod 0's
/// absorption survives, and the job's later steal off pod 0 used to
/// panic the coordinator.
#[test]
fn torn_frame_restore_with_600_jobs_steals_the_reowned_job() {
    let run = torn_frame_spec(600).run();
    assert!(run.violations.is_empty(), "{:#?}", run.violations);
    assert_eq!(run.report.fleet_cuts, 1);
}

/// Torn frame 535 loses `Replaced { id: 87, from: 3, to: 0 }`; pod 0's
/// completion of job 87 used to be discarded, and the job never
/// terminated.
#[test]
fn torn_frame_restore_with_400_jobs_accepts_the_reowned_job() {
    let run = torn_frame_spec(400).run();
    assert!(run.violations.is_empty(), "{:#?}", run.violations);
    assert_eq!(run.report.fleet_cuts, 1);
}
