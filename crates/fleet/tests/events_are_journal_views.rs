//! The service's and the coordinator's event streams are views over
//! their journals. On a cold-start run of each soak's smoke scenario
//! (`soak`, `fleet_soak`, every arm of `partition_soak`), every live
//! `outcome.events` stream equals what decoding the durable journal
//! yields, element for element with `t_s` compared bit for bit, and the
//! fleet report's quarantine flags, detections and tenants served equal
//! a from-scratch recovery of the coordinator journal.

use std::collections::BTreeSet;

use distmsm_comms::PartitionSchedule;
use distmsm_ec::curves::Bn254G1;
use distmsm_fleet::soak::{build_fleet_chaos, build_fleet_jobs, fleet_config};
use distmsm_fleet::{
    decode_fleet_events, recover_fleet_state, FleetChaos, FleetConfig, FleetCoordinator,
    FleetEvent, FleetSoakSpec, PartitionSoakSpec,
};
use distmsm_service::soak::{build_chaos, build_jobs, service_config};
use distmsm_service::{decode_events, ProverService, Scenario, ServiceEvent, SoakSpec};

fn assert_service_view(live: &[ServiceEvent], durable: &[ServiceEvent], what: &str) {
    assert_eq!(live.len(), durable.len(), "{what}: stream lengths");
    for (i, (a, b)) in live.iter().zip(durable).enumerate() {
        assert_eq!(a.t_s.to_bits(), b.t_s.to_bits(), "{what}: event {i} time bits");
        assert_eq!(a, b, "{what}: event {i}");
    }
}

fn assert_fleet_view(live: &[FleetEvent], durable: &[FleetEvent], what: &str) {
    assert_eq!(live.len(), durable.len(), "{what}: stream lengths");
    for (i, (a, b)) in live.iter().zip(durable).enumerate() {
        assert_eq!(a.t_s.to_bits(), b.t_s.to_bits(), "{what}: event {i} time bits");
        assert_eq!((a.job, &a.kind), (b.job, &b.kind), "{what}: event {i}");
    }
}

/// Runs one fleet from a cold start and checks every stream it produced
/// against its journal.
fn check_fleet(config: FleetConfig, spec: &FleetSoakSpec, chaos: &FleetChaos, what: &str) {
    let n_pods = config.n_pods;
    let mut fleet = FleetCoordinator::<Bn254G1>::new(config);
    let outcome = fleet.run(build_fleet_jobs(spec), chaos);

    let journal = decode_fleet_events(fleet.durable()).expect("coordinator journal decodes");
    assert_fleet_view(&outcome.events, &journal, &format!("{what} coordinator"));
    for pod in 0..n_pods {
        let live: Vec<ServiceEvent> =
            outcome.pod_events.iter().filter(|(p, _)| *p == pod).map(|(_, e)| e.clone()).collect();
        let journal = decode_events(fleet.pod_durable(pod)).expect("pod journal decodes");
        assert_service_view(&live, &journal, &format!("{what} pod {pod}"));
    }

    let state = recover_fleet_state(fleet.durable(), n_pods).expect("coordinator recovers").state;
    let quarantined: Vec<usize> = (0..n_pods).filter(|&p| state.quarantined[p]).collect();
    let served: BTreeSet<usize> = state.accepted.iter().map(|a| a.tenant).collect();
    assert_eq!(outcome.report.quarantined_pods, quarantined, "{what}: quarantined pods");
    assert_eq!(outcome.report.detections, state.detections, "{what}: detections");
    assert_eq!(outcome.report.tenants_served, served.len(), "{what}: tenants served");
}

#[test]
fn service_soak_events_are_the_journal_decoded() {
    let spec = <SoakSpec as Scenario>::smoke();
    let mut service = ProverService::new(service_config(&spec));
    let outcome = service.run(build_jobs(&spec), &build_chaos(&spec));
    let journal = decode_events(service.durable()).expect("service journal decodes");
    assert!(!outcome.events.is_empty());
    assert_service_view(&outcome.events, &journal, "soak");
}

#[test]
fn fleet_soak_events_and_counters_are_journal_views() {
    let spec = FleetSoakSpec::smoke();
    check_fleet(fleet_config(&spec), &spec, &build_fleet_chaos(&spec), "fleet_soak");
}

#[test]
fn partition_soak_events_and_counters_are_journal_views() {
    let smoke = <PartitionSoakSpec as Scenario>::smoke();
    for i in 0..smoke.n_seeds {
        let seed = smoke.partition_seed.wrapping_add(i as u64);
        for lost_pod in [None, smoke.fleet.lost_pod] {
            let spec = FleetSoakSpec { lost_pod, ..smoke.fleet };
            let mut chaos = build_fleet_chaos(&spec);
            chaos.partitions =
                PartitionSchedule::random(seed, smoke.n_windows, spec.n_pods, spec.horizon_s);
            let what = format!("partition seed {seed} lost {lost_pod:?}");
            check_fleet(fleet_config(&spec), &spec, &chaos, &what);
        }
    }
}
