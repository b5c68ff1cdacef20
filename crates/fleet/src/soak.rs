//! The deterministic fleet soak: a seeded 1000+-tenant arrival trace
//! placed across pods and replayed against per-pod chaos *plus* the
//! pod-level fault classes that have no single-pod analogue — whole-pod
//! loss and a byzantine pod — with fleet-scope invariants checked over
//! the merged event streams. The ledger, the bit-exact check, the
//! shrinker and the flag plumbing are `distmsm_service::harness`; this
//! module is the scenario: its spec, its merged-timeline `match`, its
//! pod-level invariants and its shrink candidates.
//!
//! Everything derives from the [`FleetSoakSpec`] alone, and generation
//! is prefix-stable: shrinking a count replays a strict subset.

use distmsm_comms::PartitionSchedule;
use distmsm_ec::curves::Bn254G1;
use distmsm_service::harness::{
    arrival_trace, bit_exact, by_id, Flags, Ledger, LedgerIds, Run, Scenario, Violations,
};
use distmsm_service::breaker::FAULT_THRESHOLD;
use distmsm_service::soak::MIN_COMPLETION_RATE;
use distmsm_service::{
    BreakerState, ChaosSchedule, JobSpec, ServiceConfig, ServiceEvent, ServiceEventKind,
    TenantConfig,
};

use crate::fleet::{
    ByzantineWindow, FleetChaos, FleetConfig, FleetCoordinator, FleetEvent, FleetEventKind,
    FleetOutcome,
};
use crate::outsource::Corruption;
use crate::report::FleetReport;

/// Everything that defines one fleet soak scenario. Two equal specs
/// produce byte-identical runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FleetSoakSpec {
    /// Seed of the arrival trace (times, tenants, classes, scalars).
    pub arrival_seed: u64,
    /// Seed of the per-pod chaos schedules.
    pub fault_seed: u64,
    /// Jobs in the arrival trace.
    pub n_jobs: usize,
    /// Tenants in the shared table (the fleet's multi-tenancy scale).
    pub n_tenants: usize,
    /// Pods in the fleet.
    pub n_pods: usize,
    /// Devices per pod.
    pub devices_per_pod: usize,
    /// Random device-fault windows per pod.
    pub n_fault_windows: usize,
    /// Arrival horizon, simulated seconds.
    pub horizon_s: f64,
    /// Upper bound on per-job MSM size (jobs draw from `[size/2, size)`).
    pub msm_size: usize,
    /// A pod that corrupts every returned result pair for the whole
    /// run. Must end the run 2G2T-detected and fleet-quarantined.
    pub byzantine_pod: Option<usize>,
    /// A pod whose every device fail-stops at `0.25 × horizon` —
    /// whole-pod loss. Must end the run with its pool fully
    /// quarantined, its queue drained by the rest of the fleet.
    pub lost_pod: Option<usize>,
}

impl FleetSoakSpec {
    /// The acceptance-scale scenario: 1024 tenants across 4 pods, a
    /// byzantine pod and a whole-pod loss, with work stealing healing
    /// the imbalance. Inherent (not only [`Scenario::smoke`]) because
    /// `benchmark/` derives its `fleet_serve` spec from it without the
    /// trait in scope.
    pub fn smoke() -> Self {
        Self {
            arrival_seed: 2026,
            fault_seed: 13,
            n_jobs: 1200,
            n_tenants: 1024,
            n_pods: 4,
            devices_per_pod: 4,
            n_fault_windows: 4,
            horizon_s: 900.0,
            msm_size: 32,
            byzantine_pod: Some(3),
            lost_pod: Some(1),
        }
    }

    /// The corruption class the byzantine pod applies, derived from the
    /// fault seed so soak sweeps cover all classes.
    pub fn byzantine_class(&self) -> Corruption {
        Corruption::ALL[(self.fault_seed % Corruption::ALL.len() as u64) as usize]
    }
}

impl Scenario for FleetSoakSpec {
    type Report = FleetReport;
    const NAME: &'static str = "fleet_soak";

    fn smoke() -> Self {
        Self::smoke()
    }

    /// The overnight scenario: more jobs, bigger MSMs, more chaos.
    fn full() -> Self {
        Self {
            arrival_seed: 2026,
            fault_seed: 29,
            n_jobs: 4000,
            n_tenants: 2048,
            n_pods: 4,
            devices_per_pod: 8,
            n_fault_windows: 12,
            horizon_s: 3000.0,
            msm_size: 64,
            byzantine_pod: Some(3),
            lost_pod: Some(1),
        }
    }

    fn flags(&mut self, f: &mut Flags<'_>) {
        f.field("arrival-seed", &mut self.arrival_seed);
        f.field("fault-seed", &mut self.fault_seed);
        f.field("jobs", &mut self.n_jobs);
        f.field("tenants", &mut self.n_tenants);
        f.field("pods", &mut self.n_pods);
        f.field("devices-per-pod", &mut self.devices_per_pod);
        f.field("fault-windows", &mut self.n_fault_windows);
        f.field("horizon", &mut self.horizon_s);
        f.field("msm-size", &mut self.msm_size);
        f.optional("byzantine-pod", &mut self.byzantine_pod);
        f.optional("lost-pod", &mut self.lost_pod);
    }

    fn run(&self) -> Run<FleetReport> {
        let (jobs, config, outcome) = execute(self);
        verdict(self, &jobs, &config, outcome)
    }

    fn render(report: &FleetReport) -> String {
        report.render()
    }

    fn golden_json(report: &FleetReport) -> String {
        report.to_detailed_json()
    }

    /// The pod-soak axes plus the pod-level fault classes (drop the
    /// byzantine pod, drop the lost pod, shrink the tenant table).
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.n_jobs > 1 {
            out.push(Self { n_jobs: self.n_jobs / 2, ..*self });
            out.push(Self { n_jobs: self.n_jobs - 1, ..*self });
        }
        if self.n_fault_windows > 0 {
            out.push(Self { n_fault_windows: self.n_fault_windows / 2, ..*self });
            out.push(Self { n_fault_windows: self.n_fault_windows - 1, ..*self });
        }
        if self.byzantine_pod.is_some() {
            out.push(Self { byzantine_pod: None, ..*self });
        }
        if self.lost_pod.is_some() {
            out.push(Self { lost_pod: None, ..*self });
        }
        if self.n_tenants > 1 {
            out.push(Self { n_tenants: (self.n_tenants / 2).max(1), ..*self });
        }
        if self.horizon_s > 1.0 {
            out.push(Self { horizon_s: self.horizon_s / 2.0, ..*self });
        }
        out.retain(|c| c != self);
        out.dedup();
        out
    }
}

/// Builds the seeded fleet arrival trace of mixed-class, mixed-size MSM
/// jobs spread over `n_tenants` tenants (prefix-stable, see
/// [`arrival_trace`]).
pub fn build_fleet_jobs(spec: &FleetSoakSpec) -> Vec<JobSpec<Bn254G1>> {
    const SALTS: [u64; 2] = [0xf1ee_7001_9abc_def0, 0xf5eed];
    let tenants = Some(spec.n_tenants);
    arrival_trace(spec.arrival_seed, SALTS, spec.n_jobs, spec.horizon_s, spec.msm_size, tenants)
}

/// The fleet configuration a soak runs: identical pods sharing one
/// `n_tenants`-wide tenant table.
pub fn fleet_config(spec: &FleetSoakSpec) -> FleetConfig {
    let mut pod = ServiceConfig {
        n_devices: spec.devices_per_pod,
        tenants: (0..spec.n_tenants).map(|i| TenantConfig::new(&format!("t{i}"))).collect(),
        ..ServiceConfig::default()
    };
    pod.gpus_per_job = pod.gpus_per_job.min(spec.devices_per_pod);
    FleetConfig {
        n_pods: spec.n_pods,
        pod,
        check_seed: spec.arrival_seed ^ spec.fault_seed.rotate_left(17) ^ 0x2620_2620,
    }
}

/// When the spec's lost pod dies: a quarter into the horizon.
pub fn loss_time(spec: &FleetSoakSpec) -> f64 {
    0.25 * spec.horizon_s
}

/// Builds the fleet chaos: per-pod randomized fault windows plus the
/// spec's pod-level classes (whole-pod loss, byzantine pod).
pub fn build_fleet_chaos(spec: &FleetSoakSpec) -> FleetChaos {
    let mut chaos = FleetChaos {
        pods: (0..spec.n_pods)
            .map(|p| {
                ChaosSchedule::random(
                    spec.fault_seed ^ (p as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    spec.devices_per_pod,
                    spec.n_fault_windows,
                    spec.n_fault_windows / 2,
                    spec.horizon_s,
                )
            })
            .collect(),
        byzantine: Vec::new(),
        partitions: PartitionSchedule::none(),
    };
    if let Some(pod) = spec.lost_pod {
        chaos.lose_pod(pod, loss_time(spec), spec.devices_per_pod);
    }
    if let Some(pod) = spec.byzantine_pod {
        chaos.byzantine.push(ByzantineWindow {
            pod,
            t0_s: 0.0,
            t1_s: f64::INFINITY,
            class: spec.byzantine_class(),
        });
    }
    chaos
}

/// Builds, places and executes one fleet scenario, unchecked: the
/// arrival trace, the fleet configuration and everything the run
/// produced.
pub fn execute(
    spec: &FleetSoakSpec,
) -> (Vec<JobSpec<Bn254G1>>, FleetConfig, FleetOutcome<Bn254G1>) {
    let jobs = build_fleet_jobs(spec);
    let config = fleet_config(spec);
    let outcome =
        FleetCoordinator::new(config.clone()).run(jobs.clone(), &build_fleet_chaos(spec));
    (jobs, config, outcome)
}

/// Checks one executed fleet scenario ([`check_fleet_invariants`]).
pub fn verdict(
    spec: &FleetSoakSpec,
    jobs: &[JobSpec<Bn254G1>],
    config: &FleetConfig,
    outcome: FleetOutcome<Bn254G1>,
) -> Run<FleetReport> {
    let violations = check_fleet_invariants(spec, jobs, &outcome, config);
    let n_events = outcome.events.len() + outcome.pod_events.len();
    Run { report: outcome.report, violations, n_events }
}

/// One entry of the merged fleet timeline, ordered by time with
/// coordinator decisions sorted *before* pod events at equal stamps
/// (a steal's queue-epoch reset precedes the dispatch it enables).
enum Timeline<'a> {
    Fleet(&'a FleetEvent),
    Pod(&'a ServiceEvent),
}

impl Timeline<'_> {
    fn t_s(&self) -> f64 {
        match self {
            Timeline::Fleet(e) => e.t_s,
            Timeline::Pod(e) => e.t_s,
        }
    }

    fn fleet_first(&self) -> u8 {
        match self {
            Timeline::Fleet(_) => 0,
            Timeline::Pod(_) => 1,
        }
    }
}

/// Checks the fleet invariants over the merged event streams:
///
/// 1. **fleet-exactly-once** — every admitted job reaches exactly one
///    fleet-terminal state: 2G2T-verified, failed, or shed. A pod-level
///    `Completed` is *not* terminal until the coordinator verifies it —
///    a byzantine completion is rejected and the job lives on.
/// 2. **fleet-conservation** — at every prefix of the merged timeline,
///    `admitted ≥ verified + failed + shed`, and the gap drains to zero
///    by the end of the run.
/// 3. **fleet-bit-exact** — every verified-accepted result equals the
///    fault-free single-GPU reference for its instance.
/// 4. **fleet-starvation-bound** — no job waits in a queue longer than
///    its class bound; a steal or re-placement restarts the epoch at
///    the absorbing pod.
/// 5. **quarantined-pod** — the seeded byzantine pod is detected by the
///    2G2T check and ends the run fleet-quarantined.
/// 6. **pod-loss** — the lost pod's pool ends fully breaker-open, and
///    no job is left queued behind it.
/// 7. **fleet-completion-floor** — `accepted / admitted` stays at or
///    above the shed-policy floor despite pod-level failures.
pub fn check_fleet_invariants(
    spec: &FleetSoakSpec,
    jobs: &[JobSpec<Bn254G1>],
    outcome: &FleetOutcome<Bn254G1>,
    config: &FleetConfig,
) -> Violations {
    let mut violations = Violations::default();
    let by_id = by_id(jobs);

    let mut timeline: Vec<Timeline<'_>> = outcome
        .events
        .iter()
        .map(Timeline::Fleet)
        .chain(outcome.pod_events.iter().map(|(_, e)| Timeline::Pod(e)))
        .collect();
    timeline.sort_by(|a, b| {
        a.t_s().total_cmp(&b.t_s()).then(a.fleet_first().cmp(&b.fleet_first()))
    });

    // 1, 2, 4: the shared ledger. A pod-level `Completed` is not
    // terminal; `Verified` is, and it leaves no queue epoch open.
    let mut ledger = Ledger::new(LedgerIds::FLEET, &by_id);
    for entry in &timeline {
        let v = &mut violations;
        match entry {
            Timeline::Fleet(e) => match &e.kind {
                // The job re-enters a queue under a fresh epoch.
                FleetEventKind::Stolen { .. } | FleetEventKind::Replaced { .. } => {
                    ledger.requeue(e.job, e.t_s);
                }
                FleetEventKind::Verified { .. } => ledger.terminate(v, e.job, e.t_s, false),
                _ => {}
            },
            Timeline::Pod(e) => match &e.kind {
                ServiceEventKind::Admitted { .. } => ledger.admit(e.job, e.t_s),
                ServiceEventKind::Requeued { .. } => ledger.requeue(e.job, e.t_s),
                ServiceEventKind::Dispatched { .. } => ledger.dispatch(v, e.job, e.t_s),
                ServiceEventKind::Failed { .. } | ServiceEventKind::Shed { .. } => {
                    ledger.terminate(v, e.job, e.t_s, true);
                }
                _ => {}
            },
        }
        ledger.check_prefix(v, entry.t_s());
    }
    ledger.finish(&mut violations);

    // 3: bit-exactness of every verified-accepted result.
    let accepted = outcome.accepted.iter().map(|a| (a.id, &a.result));
    bit_exact(&mut violations, "fleet-bit-exact", &by_id, accepted);

    // 5: the byzantine pod must be *detected*, not merely survived.
    if let Some(pod) = spec.byzantine_pod {
        let detected = outcome
            .events
            .iter()
            .any(|e| matches!(e.kind, FleetEventKind::ByzantineDetected { pod: p, .. } if p == pod));
        if !detected {
            violations.fail(
                "quarantined-pod",
                format!("byzantine pod {pod} was never detected by the 2G2T check"),
            );
        } else if !outcome.report.quarantined_pods.contains(&pod) {
            violations.fail(
                "quarantined-pod",
                format!("byzantine pod {pod} was detected but not quarantined"),
            );
        }
    }

    // 6: whole-pod loss. A dead pod must never complete work it
    // dispatched after the loss, and once every device has seen enough
    // post-loss dispatches to trip its breaker, the pool must end the
    // run quarantined (no device back to Closed).
    if let Some(pod) = spec.lost_pod {
        let loss_s = loss_time(spec);
        let mut last_dispatch: std::collections::BTreeMap<u64, f64> = Default::default();
        let mut post_loss_dispatches = vec![0u32; config.pod.n_devices];
        for (p, e) in &outcome.pod_events {
            if *p != pod {
                continue;
            }
            match &e.kind {
                ServiceEventKind::Dispatched { devices, .. } => {
                    if let Some(id) = e.job {
                        last_dispatch.insert(id, e.t_s);
                    }
                    if e.t_s >= loss_s {
                        for d in devices {
                            post_loss_dispatches[*d] += 1;
                        }
                    }
                }
                ServiceEventKind::Completed { .. } => {
                    if let Some(id) = e.job {
                        if last_dispatch.get(&id).copied().unwrap_or(f64::NEG_INFINITY) >= loss_s {
                            violations.fail(
                                "pod-loss",
                                format!(
                                    "lost pod {pod} completed job {id} from a dispatch after \
                                     the loss at t={loss_s}"
                                ),
                            );
                        }
                    }
                }
                _ => {}
            }
        }
        let all_tripped = post_loss_dispatches.iter().all(|&n| n >= FAULT_THRESHOLD);
        let states = &outcome.pod_reports[pod].final_states;
        if all_tripped && states.contains(&BreakerState::Closed) {
            violations.fail(
                "pod-loss",
                format!(
                    "lost pod {pod} ended with breakers {states:?} despite every device \
                     faulting at least {FAULT_THRESHOLD} dispatches past the loss"
                ),
            );
        }
    }

    // 7: the fleet-scope completion floor.
    if outcome.report.completion_rate() < MIN_COMPLETION_RATE {
        violations.fail(
            "fleet-completion-floor",
            format!(
                "fleet completion rate {:.3} fell below the shed-policy floor {:.3}",
                outcome.report.completion_rate(),
                MIN_COMPLETION_RATE
            ),
        );
    }
    violations
}

#[cfg(test)]
mod tests {
    use distmsm_service::harness::shrink;

    use super::*;

    fn tiny() -> FleetSoakSpec {
        FleetSoakSpec {
            arrival_seed: 5,
            fault_seed: 9,
            n_jobs: 12,
            n_tenants: 8,
            n_pods: 2,
            devices_per_pod: 4,
            n_fault_windows: 2,
            horizon_s: 60.0,
            msm_size: 16,
            byzantine_pod: Some(1),
            lost_pod: None,
        }
    }

    /// Test-only corruption of the coordinator's event stream: drops
    /// every third `Verified` fleet event before the invariant check —
    /// verified jobs appear to vanish, breaking fleet conservation and
    /// exactly-once termination.
    fn run_dropping_accepted(spec: &FleetSoakSpec) -> Run<FleetReport> {
        let (jobs, config, mut outcome) = execute(spec);
        let mut kept = 0u64;
        outcome.events.retain(|e| {
            if matches!(e.kind, FleetEventKind::Verified { .. }) {
                kept += 1;
                !kept.is_multiple_of(3)
            } else {
                true
            }
        });
        verdict(spec, &jobs, &config, outcome)
    }

    #[test]
    fn fleet_jobs_are_prefix_stable() {
        let spec = tiny();
        let all = build_fleet_jobs(&spec);
        let fewer = build_fleet_jobs(&FleetSoakSpec { n_jobs: 6, ..spec });
        for (a, b) in fewer.iter().zip(&all) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival_s, b.arrival_s);
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.instance.scalars, b.instance.scalars);
        }
    }

    #[test]
    fn tiny_fleet_soak_detects_and_quarantines_the_byzantine_pod() {
        let out = tiny().run();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.report.detections > 0, "byzantine pod must be detected");
        assert_eq!(out.report.quarantined_pods, vec![1]);
        assert!(out.report.accepted > 0);
    }

    #[test]
    fn tiny_fleet_soak_survives_whole_pod_loss() {
        let spec = FleetSoakSpec { byzantine_pod: None, lost_pod: Some(0), ..tiny() };
        let out = spec.run();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.report.accepted > 0);
    }

    #[test]
    fn fleet_sabotage_is_caught_and_shrinks() {
        let spec = tiny();
        let out = run_dropping_accepted(&spec);
        assert!(
            out.violations.iter().any(|v| v.invariant == "fleet-conservation"),
            "dropped verifications must break fleet conservation: {:?}",
            out.violations
        );
        let (min, min_out) =
            shrink(&spec, run_dropping_accepted, 12).expect("a violating spec shrinks");
        assert!(!min_out.violations.is_empty());
        assert!(
            min.n_jobs < spec.n_jobs || min.n_fault_windows < spec.n_fault_windows,
            "shrinker made no progress: {}",
            min.cli()
        );
        let replay = run_dropping_accepted(&min);
        assert!(!replay.violations.is_empty(), "reproducer must replay: {}", min.cli());
    }

    #[test]
    fn cli_round_trips_through_from_args() {
        let perturbed = FleetSoakSpec { horizon_s: 0.1 + 0.2, byzantine_pod: None, ..tiny() };
        for spec in [FleetSoakSpec::smoke(), <FleetSoakSpec as Scenario>::full(), perturbed] {
            let args: Vec<String> = spec.cli().split(' ').map(str::to_owned).collect();
            assert_eq!(FleetSoakSpec::from_args(&args), spec, "{}", spec.cli());
        }
    }
}
