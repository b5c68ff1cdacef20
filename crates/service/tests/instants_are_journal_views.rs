//! The service lane's `reject:*`, `shed:*`, `job:failed`, `breaker:*`
//! and `recovery:restored` telemetry instants are views over the
//! journal: recorded under a telemetry session, a soak scenario (cold,
//! or restored from a cut of its journal) emits exactly one such instant
//! per decoded Rejected, Shed, Failed, Breaker and Recovered event, in
//! journal order, at the event's time (bit for bit) and with the
//! arguments the event carries. Its own test binary: the session is
//! process-global.

use distmsm_ec::curves::Bn254G1;
use distmsm_ec::{Curve, FieldElement};
use distmsm_service::soak::{build_chaos, build_jobs, service_config};
use distmsm_service::{
    decode_events, JobSpec, ProverService, Scenario, ServiceEvent, ServiceEventKind, SoakSpec,
};
use distmsm_telemetry::{session, Lane, Timeline};

type Instant = (String, u64, Vec<(String, String)>);

const PREFIXES: [&str; 5] = ["reject:", "shed:", "job:failed", "breaker:", "recovery:restored"];

fn args(pairs: &[(&str, String)]) -> Vec<(String, String)> {
    pairs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect()
}

/// The instants `events` must be traced as, in order.
fn expected(events: &[ServiceEvent], tenants: &[String]) -> Vec<Instant> {
    let job = |id: Option<u64>| id.map_or_else(String::new, |id| id.to_string());
    events
        .iter()
        .filter_map(|e| {
            let (name, args) = match &e.kind {
                ServiceEventKind::Rejected { error } => (
                    format!("reject:{}", error.label()),
                    args(&[("job", job(e.job)), ("tenant", tenants[e.tenant?].clone())]),
                ),
                ServiceEventKind::Shed { reason } => {
                    (format!("shed:{}", reason.label()), args(&[("job", job(e.job))]))
                }
                ServiceEventKind::Failed { error } => {
                    ("job:failed".to_owned(), args(&[("job", job(e.job)), ("error", error.clone())]))
                }
                ServiceEventKind::Breaker { transition: t } => (
                    format!("breaker:{}", t.to.label()),
                    args(&[
                        ("device", t.device.to_string()),
                        ("from", t.from.label().to_owned()),
                        ("cause", t.cause.to_owned()),
                    ]),
                ),
                ServiceEventKind::Recovered { replayed, requeued, rearrived } => (
                    "recovery:restored".to_owned(),
                    args(&[
                        ("replayed", replayed.to_string()),
                        ("requeued", requeued.to_string()),
                        ("rearrived", rearrived.to_string()),
                    ]),
                ),
                _ => return None,
            };
            Some((name, e.t_s.to_bits(), args))
        })
        .collect()
}

/// Checks the journal-view instants `timeline` traced against
/// `expected` and returns their names.
fn check(timeline: &Timeline, expected: &[Instant]) -> Vec<String> {
    let traced: Vec<Instant> = timeline
        .instants
        .iter()
        .filter(|i| i.lane == Lane::Service)
        .filter(|i| PREFIXES.iter().any(|p| i.name.starts_with(p)))
        .map(|i| (i.name.clone(), i.t_s.to_bits(), i.args.clone()))
        .collect();
    assert_eq!(traced.len(), expected.len(), "one instant per journaled event");
    for (i, (got, want)) in traced.iter().zip(expected).enumerate() {
        assert_eq!(got, want, "instant {i}");
    }
    traced.into_iter().map(|(name, ..)| name).collect()
}

fn tenants(spec: &SoakSpec) -> Vec<String> {
    service_config(spec).tenants.iter().map(|t| t.name.clone()).collect()
}

/// Runs `jobs` on `spec`'s service and chaos under a session and checks
/// the instants against the journal.
fn check_cold(spec: &SoakSpec, jobs: Vec<JobSpec<Bn254G1>>) -> Vec<String> {
    let mut service = ProverService::new(service_config(spec));
    session::begin();
    service.run(jobs, &build_chaos(spec));
    let timeline = session::end();
    let journal = decode_events(service.durable()).expect("service journal decodes");
    check(&timeline, &expected(&journal, &tenants(spec)))
}

/// Runs `spec` untraced, restores it from the first half of its journal
/// under a session and checks the instants of the restored run against
/// the events it journaled after the cut.
fn check_restored(spec: &SoakSpec) -> Vec<String> {
    let (jobs, chaos, config) = (build_jobs(spec), build_chaos(spec), service_config(spec));
    let mut reference = ProverService::<Bn254G1>::new(config.clone());
    reference.run(jobs.clone(), &chaos);
    let cut = reference.durable().truncate_records(reference.durable().journal.n_records() / 2);
    let before = decode_events(&cut).expect("the cut decodes").len();

    session::begin();
    let (mut service, _) = ProverService::restore(config, &jobs, &cut).expect("the cut restores");
    while service.step(&chaos) {}
    let timeline = session::end();
    let journal = decode_events(service.durable()).expect("service journal decodes");
    check(&timeline, &expected(&journal[before..], &tenants(spec)))
}

#[test]
fn service_lane_instants_are_the_journal_decoded() {
    // the smoke trips breakers; on one always-faulty device the same
    // trace also fails and sheds jobs, and an off-curve point in its
    // first job is rejected at the door
    let smoke = <SoakSpec as Scenario>::smoke();
    let mut names = check_cold(&smoke, build_jobs(&smoke));
    let faulty = SoakSpec { n_devices: 1, always_faulty: Some(0), ..smoke };
    let mut jobs = build_jobs(&faulty);
    jobs[0].instance.points[0].y += <Bn254G1 as Curve>::Base::one();
    names.extend(check_cold(&faulty, jobs));
    for prefix in ["breaker:", "reject:", "shed:", "job:failed"] {
        assert!(names.iter().any(|n| n.starts_with(prefix)), "no {prefix}* instant exercised");
    }
    assert!(!names.iter().any(|n| n == "recovery:restored"), "a cold run restores nothing");

    // a restore journals one Recovered event and traces it once
    let restored = check_restored(&smoke);
    assert_eq!(restored.iter().filter(|n| *n == "recovery:restored").count(), 1, "{restored:?}");
}
