//! The service lane's `reject:*`, `shed:*`, `job:failed` and `breaker:*`
//! telemetry instants are views over the journal: recorded under a
//! telemetry session, a soak scenario emits exactly one such instant per
//! decoded Rejected, Shed, Failed and Breaker event, in journal order, at
//! the event's time (bit for bit) and with the arguments the event
//! carries. Its own test binary: the session is process-global.

use distmsm_ec::curves::Bn254G1;
use distmsm_ec::{Curve, FieldElement};
use distmsm_service::soak::{build_chaos, build_jobs, service_config};
use distmsm_service::{
    decode_events, JobSpec, ProverService, Scenario, ServiceEventKind, SoakSpec,
};
use distmsm_telemetry::{session, Lane};

type Instant = (String, u64, Vec<(String, String)>);

fn args(pairs: &[(&str, String)]) -> Vec<(String, String)> {
    pairs.iter().map(|(k, v)| ((*k).to_owned(), v.clone())).collect()
}

/// Runs `jobs` on `spec`'s service and chaos under a session, checks the
/// instants against the journal and returns the instant names.
fn check(spec: &SoakSpec, jobs: Vec<JobSpec<Bn254G1>>) -> Vec<String> {
    let config = service_config(spec);
    let tenants: Vec<String> = config.tenants.iter().map(|t| t.name.clone()).collect();
    let mut service = ProverService::new(config);
    session::begin();
    service.run(jobs, &build_chaos(spec));
    let timeline = session::end();

    let journal = decode_events(service.durable()).expect("service journal decodes");
    let job = |id: Option<u64>| id.map_or_else(String::new, |id| id.to_string());
    let expected: Vec<Instant> = journal
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
                _ => return None,
            };
            Some((name, e.t_s.to_bits(), args))
        })
        .collect();
    let traced: Vec<Instant> = timeline
        .instants
        .iter()
        .filter(|i| i.lane == Lane::Service)
        .filter(|i| {
            ["reject:", "shed:", "job:failed", "breaker:"].iter().any(|p| i.name.starts_with(p))
        })
        .map(|i| (i.name.clone(), i.t_s.to_bits(), i.args.clone()))
        .collect();

    assert_eq!(traced.len(), expected.len(), "one instant per journaled event");
    for (i, (got, want)) in traced.iter().zip(&expected).enumerate() {
        assert_eq!(got, want, "instant {i}");
    }
    traced.into_iter().map(|(name, ..)| name).collect()
}

#[test]
fn service_lane_instants_are_the_journal_decoded() {
    // the smoke trips breakers; on one always-faulty device the same
    // trace also fails and sheds jobs, and an off-curve point in its
    // first job is rejected at the door
    let smoke = <SoakSpec as Scenario>::smoke();
    let mut names = check(&smoke, build_jobs(&smoke));
    let faulty = SoakSpec { n_devices: 1, always_faulty: Some(0), ..smoke };
    let mut jobs = build_jobs(&faulty);
    jobs[0].instance.points[0].y += <Bn254G1 as Curve>::Base::one();
    names.extend(check(&faulty, jobs));
    for prefix in ["breaker:", "reject:", "shed:", "job:failed"] {
        assert!(names.iter().any(|n| n.starts_with(prefix)), "no {prefix}* instant exercised");
    }
}
