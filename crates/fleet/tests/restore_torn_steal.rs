//! A crash cut that tears a steal in half (the victim's hand-off is
//! durable, the thief's absorption is not) is restored by re-absorbing
//! the job onto a placeable pod — never onto one the recovered fold has
//! fenced, whose hand-off the fold refuses.

use distmsm_ec::curves::Bn254G1;
use distmsm_ec::MsmInstance;
use distmsm_fleet::{FleetChaos, FleetConfig, FleetCoordinator, FleetRecord, FleetWal};
use distmsm_service::{
    AdmissionOutcome, JobClass, JobSpec, ServiceConfig, ServiceRecord, ServiceWal,
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

fn admit(wal: &mut ServiceWal, id: u64, queue_len: usize) {
    let outcome = AdmissionOutcome::Admitted { queue_len };
    let class = JobClass::Interactive;
    wal.append(0.0, &ServiceRecord::Admission { t_s: 0.0, id, tenant: 0, class, outcome });
}

#[test]
fn a_torn_steal_is_never_reabsorbed_onto_a_fenced_pod() {
    let pod = ServiceConfig { n_devices: 2, gpus_per_job: 2, ..ServiceConfig::default() };
    let config = FleetConfig { n_pods: 3, pod, check_seed: 1 };

    // Coordinator: j1 → pod 1, j2 → pod 2, j3 → pod 1, then pod 0's
    // lease lapses. Pod 0 owns nothing, so it has the shortest queue.
    let mut coordinator = FleetWal::new(3);
    for (id, pod) in [(1, 1), (2, 2), (3, 1)] {
        coordinator.append(0.0, &FleetRecord::Placed { t_s: 0.0, id, pod, epoch: 1 });
    }
    coordinator.append(5.0, &FleetRecord::Fenced { t_s: 5.0, pod: 0, epoch: 2 });

    // Pod 1 admitted j1 and j3 and handed j1 off; no pod journaled the
    // absorption. Pod 2 admitted j2.
    let mut pods: Vec<ServiceWal> =
        (0..3).map(|_| ServiceWal::new(config.pod.shape())).collect();
    admit(&mut pods[1], 1, 1);
    admit(&mut pods[1], 3, 2);
    pods[1].append(1.0, &ServiceRecord::StolenOut { t_s: 1.0, id: 1, attempt: 0 });
    admit(&mut pods[2], 2, 1);
    let pod_durables: Vec<_> = pods.iter().map(|w| w.durable().clone()).collect();

    let jobs = [job(1), job(2), job(3)];
    let chaos = FleetChaos::none(3);
    let (fleet, info) =
        FleetCoordinator::restore(config, &jobs, coordinator.durable(), &pod_durables, &chaos)
            .expect("the torn cut restores");
    let state = fleet.wal_state();
    let owner = state.placed_on[&1];
    assert!(state.fenced[0], "the fence survived the restore");
    assert!(!state.fenced[owner], "j1 re-absorbed onto fenced pod {owner}");
    assert_eq!(info.replaced_jobs, 1, "only the torn steal was re-placed");
}
