//! Heartbeat leases do nothing when no partition window is scheduled: on
//! the `fleet_soak` smoke and on every fleet cut of the `crash_soak`
//! smoke no lease lapses, so no `Fenced`, `Rejoined` or `Discarded`
//! record is journaled and no `fleet.partition:*` instant is traced.
//! In its own test binary: the telemetry session is process-global.

use distmsm_fleet::soak::execute;
use distmsm_fleet::{CrashSoakSpec, FleetEventKind, FleetSoakSpec};
use distmsm_service::harness::Scenario;
use distmsm_telemetry::{session, Timeline};

/// The traced instants only a lease can cause: the instants of the three
/// lease records, and the degraded/healed markers.
fn lease_instants(timeline: &Timeline) -> Vec<&str> {
    timeline
        .instants
        .iter()
        .map(|i| i.name.as_str())
        .filter(|name| {
            matches!(*name, "fleet.fenced" | "fleet.rejoined" | "fleet.discarded")
                || name.starts_with("fleet.partition:")
        })
        .collect()
}

/// One test, so the two captures never overlap.
#[test]
fn leases_take_no_action_without_partitions() {
    session::begin();
    let (_, _, outcome) = execute(&FleetSoakSpec::smoke());
    let timeline = session::end();
    let lease_records: Vec<_> = outcome
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                FleetEventKind::Fenced { .. }
                    | FleetEventKind::Rejoined { .. }
                    | FleetEventKind::Discarded { .. }
            )
        })
        .collect();
    assert!(lease_records.is_empty(), "fleet_soak journaled {lease_records:?}");
    assert_eq!(lease_instants(&timeline), [] as [&str; 0], "fleet_soak");
    drop(timeline);

    // The service kill points cut no fleet: only the fleet sweep runs.
    let crash = CrashSoakSpec { n_kill_points: 0, n_torn_points: 0, ..CrashSoakSpec::smoke() };
    session::begin();
    let run = crash.run();
    let timeline = session::end();
    assert!(run.violations.is_empty(), "{:?}", run.violations);
    assert_eq!(run.report.fleet_cuts, crash.n_fleet_cuts + 1, "every time cut plus the torn frame");
    // Every record a cut's restore or resume journals is traced as its
    // instant (the `telemetry_lanes` test pins that mapping).
    assert_eq!(lease_instants(&timeline), [] as [&str; 0], "crash_soak fleet cuts");
}
