//! The fleet, service and device telemetry lanes under a real soak, in
//! this test binary's own process (the session is process-global).
//! Recording must not move a byte of the simulated outcome, and what it
//! records must be a valid Chrome trace.

use distmsm_fleet::FleetSoakSpec;
use distmsm_service::harness::Scenario;
use distmsm_telemetry::{parse_json, session, to_chrome_trace, validate_chrome_trace, Lane};

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
    let recorded = spec.run();
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

    let doc = parse_json(&to_chrome_trace(&timeline)).expect("exported trace parses");
    assert_eq!(validate_chrome_trace(&doc), Vec::<String>::new());
}
