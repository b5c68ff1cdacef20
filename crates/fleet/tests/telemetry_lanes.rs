//! The fleet, service and device telemetry lanes under a real soak, in
//! this test binary's own process (the session is process-global).
//! Recording must not move a byte of the simulated outcome, and what it
//! records must be a valid Chrome trace.

use distmsm_ec::curves::Bn254G1;
use distmsm_fleet::soak::{build_fleet_chaos, build_fleet_jobs, fleet_config};
use distmsm_fleet::{FleetCoordinator, FleetRecord, FleetSoakSpec};
use distmsm_journal::decode_records;
use distmsm_service::harness::Scenario;
use distmsm_telemetry::{parse_json, session, to_chrome_trace, validate_chrome_trace, Lane};

/// The `fleet`-lane instants named after coordinator record kinds.
const RECORD_INSTANTS: [&str; 9] = [
    "fleet.placed",
    "fleet.stolen",
    "fleet.verified",
    "fleet.byzantine-detected",
    "fleet.quarantined",
    "fleet.replaced",
    "fleet.fenced",
    "fleet.rejoined",
    "fleet.discarded",
];

/// The `fleet`-lane instant each coordinator record kind is traced as.
fn record_instant(rec: &FleetRecord) -> &'static str {
    match rec {
        FleetRecord::Placed { .. } => "fleet.placed",
        FleetRecord::Stolen { .. } => "fleet.stolen",
        FleetRecord::Accepted { .. } => "fleet.verified",
        FleetRecord::Detected { .. } => "fleet.byzantine-detected",
        FleetRecord::Quarantined { .. } => "fleet.quarantined",
        FleetRecord::Replaced { .. } => "fleet.replaced",
        FleetRecord::Fenced { .. } => "fleet.fenced",
        FleetRecord::Rejoined { .. } => "fleet.rejoined",
        FleetRecord::Discarded { .. } => "fleet.discarded",
    }
}

/// Also pins that the coordinator's record-kind instants are a view
/// over its journal: one instant per durable record, in journal order,
/// named after the record kind and stamped with its event time. The
/// only trace change this mapping made is that a restore-time
/// re-placement reads `fleet.placed` (it is a `Placed` record), where it
/// used to read `fleet.recovery:replaced`.
#[test]
fn recording_a_fleet_soak_changes_nothing_and_fills_every_lane() {
    // fault seed 7: a 12-job trace in which a device breaker trips, so
    // the service lane is not empty
    let spec = FleetSoakSpec {
        fault_seed: 7,
        n_jobs: 12,
        n_tenants: 8,
        horizon_s: 30.0,
        msm_size: 8,
        ..FleetSoakSpec::smoke()
    };

    let bare = spec.run();
    session::begin();
    let mut coordinator = FleetCoordinator::<Bn254G1>::new(fleet_config(&spec));
    let recorded = coordinator.run(build_fleet_jobs(&spec), &build_fleet_chaos(&spec));
    let timeline = session::end();

    assert!(bare.violations.is_empty(), "{:?}", bare.violations);
    assert_eq!(bare.report.to_detailed_json(), recorded.report.to_detailed_json());

    let instants_on = |lane| timeline.instants.iter().filter(|i| i.lane == lane).count();
    assert!(instants_on(Lane::Fleet) > 0, "no fleet-lane instant");
    assert!(instants_on(Lane::Service) > 0, "no service-lane instant");
    assert!(
        timeline.spans.iter().any(|s| {
            matches!(s.lane, Lane::Device(_)) && s.args.iter().any(|(k, _)| k == "kernel")
        }),
        "no device-lane kernel span"
    );

    let journal =
        decode_records::<FleetRecord>(coordinator.durable()).expect("coordinator journal decodes");
    let want: Vec<(&str, u64)> =
        journal.iter().map(|r| (record_instant(r), r.t_s().to_bits())).collect();
    let traced: Vec<(&str, u64)> = timeline
        .instants
        .iter()
        .filter(|i| i.lane == Lane::Fleet && RECORD_INSTANTS.contains(&i.name.as_str()))
        .map(|i| (i.name.as_str(), i.t_s.to_bits()))
        .collect();
    assert!(!want.is_empty());
    assert_eq!(traced, want, "fleet record instants are the journal, one to one");

    let doc = parse_json(&to_chrome_trace(&timeline)).expect("exported trace parses");
    assert_eq!(validate_chrome_trace(&doc), Vec::<String>::new());
}
