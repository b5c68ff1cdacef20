//! A restored layer's outcome is its whole history. The service and the
//! coordinator keep no event list beside their journals: the outcome's
//! streams are the journals decoded, and a restored journal continues
//! its durable prefix. So after a mid-run crash the outcome starts with
//! the cut's events, and the restored service report's pool timeline
//! holds the breaker transitions from before the crash.

use distmsm_ec::curves::Bn254G1;
use distmsm_fleet::soak::{build_fleet_chaos, build_fleet_jobs, fleet_config};
use distmsm_fleet::{FleetCoordinator, FleetRecord, FleetSoakSpec};
use distmsm_journal::{decode_records, DurableState, JournalError};
use distmsm_service::soak::{build_chaos, build_jobs, service_config};
use distmsm_service::{decode_events, ProverService, ServiceEvent, ServiceEventKind, SoakSpec};

fn breaker_transitions(events: &[ServiceEvent]) -> Vec<String> {
    events
        .iter()
        .filter_map(|e| match &e.kind {
            ServiceEventKind::Breaker { transition } => Some(format!("{transition:?}")),
            _ => None,
        })
        .collect()
}

/// The longest prefix of `durable` stamped at or before `t_s`.
fn cut_at(durable: &DurableState, t_s: f64) -> DurableState {
    let records = durable.journal.replay().expect("the reference journal is intact");
    durable.truncate_records(records.iter().take_while(|r| r.t_s <= t_s).count())
}

#[test]
fn a_restored_service_reports_its_durable_past() {
    let spec = SoakSpec {
        arrival_seed: 11,
        fault_seed: 3,
        n_jobs: 12,
        n_fault_windows: 2,
        n_link_windows: 1,
        horizon_s: 120.0,
        n_devices: 4,
        msm_size: 32,
        always_faulty: Some(0),
    };
    let (jobs, chaos, config) = (build_jobs(&spec), build_chaos(&spec), service_config(&spec));
    let mut reference = ProverService::<Bn254G1>::new(config.clone());
    reference.run(jobs.clone(), &chaos);
    let n_records = reference.durable().journal.n_records();
    let cut = reference.durable().truncate_records(n_records / 2);
    let durable = decode_events(&cut).expect("the cut decodes");
    let durable_transitions = breaker_transitions(&durable);
    assert!(!durable_transitions.is_empty(), "the always-faulty device trips before the cut");

    let (mut service, _) = ProverService::restore(config, &jobs, &cut).expect("the cut restores");
    while service.step(&chaos) {}
    let outcome = service.finish();
    assert!(outcome.events.len() > durable.len(), "the restored service ran on");
    assert_eq!(outcome.events[..durable.len()], durable[..], "the stream starts with the cut's");
    let timeline: Vec<String> =
        outcome.report.pool_timeline.iter().map(|t| format!("{t:?}")).collect();
    assert_eq!(timeline, breaker_transitions(&outcome.events));
    assert_eq!(timeline[..durable_transitions.len()], durable_transitions[..]);
}

#[test]
fn a_restored_fleet_reports_its_durable_past() {
    let spec = FleetSoakSpec {
        arrival_seed: 2027,
        fault_seed: 17,
        n_jobs: 24,
        n_tenants: 16,
        n_pods: 3,
        devices_per_pod: 3,
        n_fault_windows: 1,
        horizon_s: 150.0,
        msm_size: 16,
        byzantine_pod: Some(2),
        lost_pod: None,
        partition_seed: 41,
        n_partition_windows: 0,
    };
    let (jobs, chaos, config) =
        (build_fleet_jobs(&spec), build_fleet_chaos(&spec), fleet_config(&spec));
    let mut reference = FleetCoordinator::<Bn254G1>::new(config.clone());
    let full = reference.run(jobs.clone(), &chaos);
    // Halfway through the coordinator's decisions.
    let t_s = full.events.last().expect("the fleet decided").t_s() / 2.0;
    let coordinator = cut_at(reference.durable(), t_s);
    let pods: Vec<DurableState> =
        (0..config.n_pods).map(|p| cut_at(reference.pod_durable(p), t_s)).collect();

    let (mut fleet, _) =
        FleetCoordinator::restore(config.clone(), &jobs, &coordinator, &pods, &chaos)
            .expect("the cut restores");
    let outcome = fleet.resume(&chaos);

    let durable = decode_records::<FleetRecord>(&coordinator).expect("the coordinator cut decodes");
    assert!(durable.len() > jobs.len(), "the cut keeps decisions past the placement plan");
    assert!(outcome.events.len() > durable.len(), "the restored fleet ran on");
    assert_eq!(outcome.events[..durable.len()], durable[..], "the stream starts with the cut's");
    for (pod, cut) in pods.iter().enumerate() {
        let durable = decode_events(cut).expect("the pod cut decodes");
        let stream: Vec<ServiceEvent> =
            outcome.pod_events.iter().filter(|(p, _)| *p == pod).map(|(_, e)| e.clone()).collect();
        assert!(!durable.is_empty(), "pod {pod} journaled before the cut");
        assert_eq!(stream[..durable.len()], durable[..], "pod {pod}");
    }
}

/// The outcome is the journal decoded, so a restore refuses a
/// coordinator or pod journal holding a CRC-valid record that does not
/// decode, at any epoch, and names that epoch.
#[test]
fn a_fleet_restore_refuses_an_undecodable_record_at_any_epoch() {
    let spec = FleetSoakSpec {
        arrival_seed: 2027,
        fault_seed: 17,
        n_jobs: 6,
        n_tenants: 4,
        n_pods: 2,
        devices_per_pod: 2,
        n_fault_windows: 0,
        horizon_s: 30.0,
        msm_size: 8,
        byzantine_pod: None,
        lost_pod: None,
        partition_seed: 41,
        n_partition_windows: 0,
    };
    let (jobs, chaos, config) =
        (build_fleet_jobs(&spec), build_fleet_chaos(&spec), fleet_config(&spec));
    let mut reference = FleetCoordinator::<Bn254G1>::new(config.clone());
    reference.run(jobs.clone(), &chaos);
    let coordinator = reference.durable().clone();
    let pods: Vec<DurableState> =
        (0..config.n_pods).map(|p| reference.pod_durable(p).clone()).collect();
    // Every record kept, but record `bad` replaced by a tag no record has.
    let forge = |durable: &DurableState, bad: usize| {
        let mut forged = DurableState::new();
        for (i, r) in durable.journal.replay().expect("intact").iter().enumerate() {
            forged.append(r.t_s, if i == bad { &[0xee] } else { &r.payload });
        }
        forged
    };
    let refused_at = |coordinator: &DurableState, pods: &[DurableState], epoch: usize| {
        let restored = FleetCoordinator::restore(config.clone(), &jobs, coordinator, pods, &chaos);
        match restored.err() {
            Some(JournalError::BadPayload { epoch: e, .. }) => assert_eq!(e, epoch as u64),
            other => panic!("record {epoch}: expected BadPayload, got {other:?}"),
        }
    };
    for bad in 0..coordinator.journal.n_records() {
        refused_at(&forge(&coordinator, bad), &pods, bad + 1);
    }
    for bad in 0..pods[1].journal.n_records() {
        let forged = [pods[0].clone(), forge(&pods[1], bad)];
        refused_at(&coordinator, &forged, bad + 1);
    }
}
