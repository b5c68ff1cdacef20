//! The deterministic chaos soak: seeded Poisson-like arrival traces
//! replayed against randomized fault schedules for thousands of
//! simulated seconds, with the service invariants checked over the
//! event stream — and, on violation, greedy shrinking of the
//! (arrival trace, fault plan) pair to a minimal reproducer printed as
//! re-runnable `soak` flags. The checks, the shrinker and the CLI
//! plumbing are the shared [`crate::harness`]; this module is the
//! scenario: its spec, its event `match`, its candidates.
//!
//! Everything is derived from the [`SoakSpec`] alone (no wall clock, no
//! global state), and all generation is prefix-stable: shrinking a
//! count re-runs a strict subset of the original scenario.

use std::collections::BTreeMap;

use distmsm_ec::curves::Bn254G1;

use crate::breaker::BreakerState;
use crate::chaos::ChaosSchedule;
use crate::harness::{
    arrival_trace, bit_exact, by_id, Flags, Ledger, LedgerIds, Run, Scenario, Violations,
};
use crate::job::JobSpec;
use crate::report::ServiceReport;
use crate::service::{
    CompletedJob, ProverService, ServiceConfig, ServiceEvent, ServiceEventKind, ServiceOutcome,
};

/// Everything that defines one soak scenario. Two equal specs produce
/// byte-identical runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoakSpec {
    /// Seed of the arrival trace (times, classes, deadlines, scalars).
    pub arrival_seed: u64,
    /// Seed of the chaos schedule (device + link fault windows).
    pub fault_seed: u64,
    /// Jobs in the arrival trace.
    pub n_jobs: usize,
    /// Random device-fault windows.
    pub n_fault_windows: usize,
    /// Random link-fault windows.
    pub n_link_windows: usize,
    /// Arrival horizon, simulated seconds.
    pub horizon_s: f64,
    /// Devices in the pool.
    pub n_devices: usize,
    /// Upper bound on per-job MSM size (jobs draw from `[size/2, size)`).
    pub msm_size: usize,
    /// A device that fail-stops on every dispatch for the whole run —
    /// the quarantine probe. Must end the run with an open breaker.
    pub always_faulty: Option<usize>,
}

impl Scenario for SoakSpec {
    type Report = ServiceReport;
    const NAME: &'static str = "soak";

    /// The acceptance-scale scenario: a 16-GPU pod, 500 jobs over 2000
    /// simulated seconds, randomized device and link faults, one
    /// always-faulty device.
    fn full() -> Self {
        Self {
            arrival_seed: 2024,
            fault_seed: 7,
            n_jobs: 500,
            n_fault_windows: 24,
            n_link_windows: 8,
            horizon_s: 2000.0,
            n_devices: 16,
            msm_size: 96,
            always_faulty: Some(15),
        }
    }

    /// The CI smoke scenario: small enough to run in seconds, still
    /// exercising shedding, retries and the breaker cycle.
    fn smoke() -> Self {
        Self {
            arrival_seed: 11,
            fault_seed: 3,
            n_jobs: 120,
            n_fault_windows: 10,
            n_link_windows: 4,
            horizon_s: 600.0,
            n_devices: 8,
            msm_size: 64,
            always_faulty: Some(7),
        }
    }

    fn flags(&mut self, f: &mut Flags<'_>) {
        f.field("arrival-seed", &mut self.arrival_seed);
        f.field("fault-seed", &mut self.fault_seed);
        f.field("jobs", &mut self.n_jobs);
        f.field("fault-windows", &mut self.n_fault_windows);
        f.field("link-windows", &mut self.n_link_windows);
        f.field("horizon", &mut self.horizon_s);
        f.field("devices", &mut self.n_devices);
        f.field("msm-size", &mut self.msm_size);
        f.optional("always-faulty", &mut self.always_faulty);
    }

    fn run(&self) -> Run<ServiceReport> {
        let (jobs, outcome) = execute(self);
        verdict(self, &jobs, outcome)
    }

    fn render(report: &ServiceReport) -> String {
        report.render()
    }

    fn golden_json(report: &ServiceReport) -> String {
        report.to_detailed_json()
    }

    /// The cheapest reductions, one axis each: halve the trace, halve
    /// the chaos, drop the probe device, halve the horizon.
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
        if self.n_link_windows > 0 {
            out.push(Self { n_link_windows: self.n_link_windows / 2, ..*self });
            out.push(Self { n_link_windows: self.n_link_windows - 1, ..*self });
        }
        if self.always_faulty.is_some() {
            out.push(Self { always_faulty: None, ..*self });
        }
        if self.horizon_s > 1.0 {
            out.push(Self { horizon_s: self.horizon_s / 2.0, ..*self });
        }
        out.retain(|c| c != self);
        out.dedup();
        out
    }
}

/// Builds the seeded arrival trace of mixed-class, mixed-size MSM jobs
/// over two tenants (prefix-stable, see [`arrival_trace`]).
pub fn build_jobs(spec: &SoakSpec) -> Vec<JobSpec<Bn254G1>> {
    const SALTS: [u64; 2] = [0x1234_5678_9abc_def0, 0x5eed];
    arrival_trace(spec.arrival_seed, SALTS, spec.n_jobs, spec.horizon_s, spec.msm_size, None)
}

/// Builds the seeded chaos schedule, merging the always-faulty probe
/// device when the spec names one.
pub fn build_chaos(spec: &SoakSpec) -> ChaosSchedule {
    let mut chaos = ChaosSchedule::random(
        spec.fault_seed,
        spec.n_devices,
        spec.n_fault_windows,
        spec.n_link_windows,
        spec.horizon_s,
    );
    if let Some(d) = spec.always_faulty {
        chaos = chaos.merged(ChaosSchedule::always_faulty(d));
    }
    chaos
}

/// The service configuration a soak runs (devices from the spec, the
/// partition size clamped to the pool).
pub fn service_config(spec: &SoakSpec) -> ServiceConfig {
    let mut cfg = ServiceConfig {
        n_devices: spec.n_devices,
        ..ServiceConfig::default()
    };
    cfg.gpus_per_job = cfg.gpus_per_job.min(spec.n_devices);
    cfg
}

/// Builds and executes one scenario, unchecked: the arrival trace and
/// everything the run produced.
pub fn execute(spec: &SoakSpec) -> (Vec<JobSpec<Bn254G1>>, ServiceOutcome<Bn254G1>) {
    let jobs = build_jobs(spec);
    let outcome = ProverService::new(service_config(spec)).run(jobs.clone(), &build_chaos(spec));
    (jobs, outcome)
}

/// The completion-rate floor the shed policy promises: the soaks assert
/// `completed / admitted` stays at or above this under chaos.
pub const MIN_COMPLETION_RATE: f64 = 0.5;

/// Checks one executed scenario: the event-stream invariants of
/// [`check_invariants`], plus **quarantine** (the always-faulty probe
/// device ends the run with an open breaker) and **completion-floor**
/// (the completion rate holds [`MIN_COMPLETION_RATE`]).
pub fn verdict(
    spec: &SoakSpec,
    jobs: &[JobSpec<Bn254G1>],
    outcome: ServiceOutcome<Bn254G1>,
) -> Run<ServiceReport> {
    let ServiceOutcome { report, events, completed } = outcome;
    let mut violations = check_invariants(jobs, &events, &completed);
    if let Some(d) = spec.always_faulty.filter(|&d| !report.quarantined(d)) {
        violations.fail(
            "quarantine",
            format!(
                "always-faulty device {d} ended the run {:?} instead of open",
                report.final_states.get(d)
            ),
        );
    }
    if report.completion_rate() < MIN_COMPLETION_RATE {
        violations.fail(
            "completion-floor",
            format!(
                "completion rate {:.3} fell below the shed-policy floor {:.3}",
                report.completion_rate(),
                MIN_COMPLETION_RATE
            ),
        );
    }
    Run { report, violations, n_events: events.len() }
}

/// Checks the service invariants over a replayed event stream:
///
/// 1. **exactly-once** — every admitted job terminates exactly once, as
///    completed, failed or shed.
/// 2. **conservation** — at every prefix of the stream,
///    `admitted = completed + failed + shed + in-flight` with a
///    non-negative in-flight count, and in-flight drains to zero.
/// 3. **bit-exact** — every completed result equals the fault-free
///    single-GPU reference for its instance (affine-canonical compare).
/// 4. **starvation-bound** — no job waits in queue longer than its
///    class bound (each queue epoch measured separately; a shed closes
///    its epoch, a completion or failure left the queue at dispatch).
/// 5. **open-dispatch** — no dispatch names a device whose breaker was
///    open at dispatch time (the SVC-002 property).
pub fn check_invariants(
    jobs: &[JobSpec<Bn254G1>],
    events: &[ServiceEvent],
    completed: &[CompletedJob<Bn254G1>],
) -> Violations {
    let mut v = Violations::default();
    let by_id = by_id(jobs);
    let mut ledger = Ledger::new(LedgerIds::SERVICE, &by_id);
    let mut breaker: BTreeMap<usize, BreakerState> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            ServiceEventKind::Admitted { .. } => ledger.admit(ev.job, ev.t_s),
            ServiceEventKind::Requeued { .. } => ledger.requeue(ev.job, ev.t_s),
            ServiceEventKind::Dispatched { devices, .. } => {
                ledger.dispatch(&mut v, ev.job, ev.t_s);
                for d in devices.iter().filter(|d| breaker.get(d) == Some(&BreakerState::Open)) {
                    v.fail(
                        "open-dispatch",
                        format!(
                            "job {:?} dispatched to device {d} at t={} while its breaker was open",
                            ev.job, ev.t_s
                        ),
                    );
                }
            }
            ServiceEventKind::Completed { .. } | ServiceEventKind::Failed { .. } => {
                ledger.terminate(&mut v, ev.job, ev.t_s, false);
            }
            ServiceEventKind::Shed { .. } => ledger.terminate(&mut v, ev.job, ev.t_s, true),
            ServiceEventKind::Breaker { transition } => {
                breaker.insert(transition.device, transition.to);
            }
            _ => {}
        }
        ledger.check_prefix(&mut v, ev.t_s);
    }
    ledger.finish(&mut v);
    bit_exact(&mut v, "bit-exact", &by_id, completed.iter().map(|c| (c.id, &c.result)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::shrink;

    fn tiny() -> SoakSpec {
        SoakSpec {
            arrival_seed: 5,
            fault_seed: 9,
            n_jobs: 16,
            n_fault_windows: 3,
            n_link_windows: 1,
            horizon_s: 60.0,
            n_devices: 4,
            msm_size: 24,
            always_faulty: Some(3),
        }
    }

    /// Test-only event-stream corruption: drops every third `Completed`
    /// event before the invariant check — admitted jobs appear to
    /// vanish, breaking conservation and exactly-once termination.
    fn run_dropping_completions(spec: &SoakSpec) -> Run<ServiceReport> {
        let (jobs, mut outcome) = execute(spec);
        let mut kept = 0u64;
        outcome.events.retain(|e| {
            if matches!(e.kind, ServiceEventKind::Completed { .. }) {
                kept += 1;
                !kept.is_multiple_of(3)
            } else {
                true
            }
        });
        verdict(spec, &jobs, outcome)
    }

    #[test]
    fn jobs_are_prefix_stable() {
        let spec = tiny();
        let all = build_jobs(&spec);
        let fewer = build_jobs(&SoakSpec { n_jobs: 8, ..spec });
        for (a, b) in fewer.iter().zip(&all) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival_s, b.arrival_s);
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.instance.len(), b.instance.len());
            assert_eq!(a.instance.scalars, b.instance.scalars);
        }
    }

    #[test]
    fn tiny_soak_has_no_violations() {
        let out = tiny().run();
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(out.report.quarantined(3), "always-faulty device quarantined");
        assert_eq!(
            out.report.admitted(),
            out.report.completed() + out.report.failed() + out.report.shed(),
            "conservation at end of run"
        );
        assert!(shrink(&tiny(), SoakSpec::run, 4).is_none(), "a healthy spec has no reproducer");
    }

    #[test]
    fn sabotage_is_caught_and_shrinks_to_a_minimal_reproducer() {
        let spec = tiny();
        let out = run_dropping_completions(&spec);
        assert!(
            out.violations.iter().any(|v| v.invariant == "conservation"),
            "dropped completions must break conservation: {:?}",
            out.violations
        );
        let (min, min_out) =
            shrink(&spec, run_dropping_completions, 40).expect("a violating spec shrinks");
        assert!(!min_out.violations.is_empty());
        assert!(
            min.n_jobs < spec.n_jobs || min.n_fault_windows < spec.n_fault_windows,
            "shrinker made no progress: {}",
            min.cli()
        );
        // The reproducer is printable and re-runnable.
        let replay = run_dropping_completions(&min);
        assert!(!replay.violations.is_empty(), "reproducer must replay: {}", min.cli());
    }

    #[test]
    fn cli_round_trips_through_from_args() {
        let perturbed = SoakSpec { horizon_s: 0.1 + 0.2, always_faulty: None, ..tiny() };
        for spec in [SoakSpec::smoke(), SoakSpec::full(), perturbed] {
            let args: Vec<String> = spec.cli().split(' ').map(str::to_owned).collect();
            assert_eq!(SoakSpec::from_args(&args), spec, "{}", spec.cli());
        }
    }
}
