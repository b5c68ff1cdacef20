//! The deterministic fleet soak: a seeded 1000+-tenant arrival trace
//! placed across pods and replayed against per-pod chaos *plus* the
//! fleet-level fault planes that have no single-pod analogue — whole-pod
//! loss, a byzantine pod and coordinator↔pod link partitions — with
//! fleet-scope invariants checked over the merged event streams and the
//! coordinator's journal. The ledger, the bit-exact check, the shrinker
//! and the flag plumbing are `distmsm_service::harness`; this module is
//! the scenario: its spec, its merged-timeline `match` and its
//! pod-level and journal invariants.
//!
//! Everything derives from the [`FleetSoakSpec`] alone, and generation
//! is prefix-stable: shrinking a count replays a strict subset.

use std::collections::{BTreeMap, BTreeSet};

use distmsm_comms::PartitionSchedule;
use distmsm_ec::curves::Bn254G1;
use distmsm_journal::{Fold, Wire};
use distmsm_service::harness::{
    arrival_trace, bit_exact, by_id, Flags, Ledger, LedgerIds, Run, Scenario, Violations,
};
use distmsm_service::breaker::FAULT_THRESHOLD;
use distmsm_service::soak::MIN_COMPLETION_RATE;
use distmsm_service::{
    AdmissionError, BreakerState, ChaosSchedule, JobSpec, ServiceConfig, ServiceEvent,
    ServiceEventKind, TenantConfig,
};

use crate::fleet::{ByzantineWindow, FleetChaos, FleetConfig, FleetCoordinator, FleetOutcome};
use crate::outsource::Corruption;
use crate::report::FleetReport;
use crate::wal::{FleetRecord, FleetState};

/// The classes a fault seed picks its byzantine pod's from, in seed
/// order. Pinned rather than [`Corruption::ALL`]: a class added there must
/// not move the class an existing seed picks, nor the goldens that seed
/// runs. [`Corruption::AdaptiveShift`] is reached through
/// [`ByzantineWindow`]s that name it.
pub const SEEDED_CLASSES: [Corruption; 3] =
    [Corruption::BitFlip, Corruption::SwappedShard, Corruption::ZeroPartial];

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
    /// Seed of the coordinator↔pod link-partition windows.
    pub partition_seed: u64,
    /// Link-partition windows over the run (0: the plane is off and
    /// draws nothing). Partitions fence pods and force anti-entropy
    /// rejoins; every fleet run's journal is checked for both.
    pub n_partition_windows: usize,
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
            partition_seed: 41,
            n_partition_windows: 0,
        }
    }

    /// The corruption class the byzantine pod applies, derived from the
    /// fault seed so soak sweeps cover the classes of [`SEEDED_CLASSES`].
    pub fn byzantine_class(&self) -> Corruption {
        SEEDED_CLASSES[(self.fault_seed % SEEDED_CLASSES.len() as u64) as usize]
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
            partition_seed: 41,
            n_partition_windows: 0,
        }
    }

    fn flags(&mut self, f: &mut Flags<'_>) {
        f.field("arrival-seed", &mut self.arrival_seed);
        f.field("fault-seed", &mut self.fault_seed);
        f.shrinking("jobs", &mut self.n_jobs, 1);
        f.shrinking("tenants", &mut self.n_tenants, 1);
        f.field("pods", &mut self.n_pods);
        f.field("devices-per-pod", &mut self.devices_per_pod);
        f.shrinking("fault-windows", &mut self.n_fault_windows, 0);
        f.shrinking("horizon", &mut self.horizon_s, 1.0);
        f.field("msm-size", &mut self.msm_size);
        f.optional("byzantine-pod", &mut self.byzantine_pod);
        f.optional("lost-pod", &mut self.lost_pod);
        f.field("partition-seed", &mut self.partition_seed);
        f.shrinking("partition-windows", &mut self.n_partition_windows, 0);
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
/// spec's fleet-level planes (whole-pod loss, byzantine pod, link
/// partitions).
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
        partitions: PartitionSchedule::random(
            spec.partition_seed,
            spec.n_partition_windows,
            spec.n_pods,
            spec.horizon_s,
        ),
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
/// produced (its events are the coordinator journal's records).
pub fn execute(spec: &FleetSoakSpec) -> (Vec<JobSpec<Bn254G1>>, FleetConfig, FleetOutcome<Bn254G1>) {
    let jobs = build_fleet_jobs(spec);
    let config = fleet_config(spec);
    let mut coordinator = FleetCoordinator::new(config.clone());
    let outcome = coordinator.run(jobs.clone(), &build_fleet_chaos(spec));
    (jobs, config, outcome)
}

/// Checks one executed fleet scenario: [`check_fleet_invariants`] over
/// its streams and [`check_fleet_journal`] over its coordinator records
/// and report.
pub fn verdict(
    spec: &FleetSoakSpec,
    jobs: &[JobSpec<Bn254G1>],
    config: &FleetConfig,
    outcome: FleetOutcome<Bn254G1>,
) -> Run<FleetReport> {
    let mut violations = check_fleet_invariants(spec, jobs, &outcome, config);
    let journal = check_fleet_journal(&outcome.events, spec, &outcome.report);
    violations.within("coordinator journal", journal);
    let n_events = outcome.events.len() + outcome.pod_events.len();
    Run { report: outcome.report, violations, n_events }
}

/// Checks a coordinator journal's records (a [`FleetOutcome::events`],
/// which `finish` decodes from the journal) against the fencing rules:
///
/// * **partition-fencing-fold** — every record folds through
///   [`FleetState`], whose fencing checks reject any hand-off
///   or acceptance stamped with an expired epoch, any non-monotonic
///   fence and any rejoin without a fence.
/// * **partition-fencing-model** — the same records replay through a
///   second fencing automaton written apart from the fold (per-pod
///   epoch and fence flag only), which must see no violation and end in
///   the fold's epochs and fence flags. One bug cannot pass both.
/// * **partition-replay** — folding the same journal twice yields
///   byte-identical states (recovery and anti-entropy rejoin are
///   replayable).
/// * **partition-rejoin** — no pod ends the run fenced: every window
///   heals by the horizon, and the membership clock outlives lease and
///   grace past the last heal.
/// * **partition-inert** — with no partition window scheduled no lease
///   lapses, so the journal holds no `Fenced`, `Rejoined` or
///   `Discarded` record.
/// * **fleet-report-replay** — `report`'s quarantined pods, detection
///   count and tenants served equal the from-scratch fold's: the report
///   is a view over the journal.
pub fn check_fleet_journal(
    records: &[FleetRecord],
    spec: &FleetSoakSpec,
    report: &FleetReport,
) -> Violations {
    let n_pods = spec.n_pods;
    let mut v = Violations::default();
    // the coordinator journal never compacts: epochs are 1, 2, …
    let mut model = EpochModel::new(n_pods);
    for (epoch, rec) in (1u64..).zip(records) {
        if let Err(detail) = model.step(rec) {
            v.fail("partition-fencing-model", format!("journal epoch {epoch}: {detail}"));
        }
        let lease_record = matches!(
            rec,
            FleetRecord::Fenced { .. }
                | FleetRecord::Rejoined { .. }
                | FleetRecord::Discarded { .. }
        );
        if lease_record && spec.n_partition_windows == 0 {
            let detail = format!("journal epoch {epoch}: {rec:?} with no partition window");
            v.fail("partition-inert", detail);
        }
    }
    let fold = || -> Result<FleetState, String> {
        let mut st = FleetState::new(&n_pods);
        for (epoch, rec) in (1u64..).zip(records) {
            st.apply(epoch, rec, &n_pods)
                .map_err(|err| format!("fold rejected journal epoch {epoch}: {err:?}"))?;
        }
        Ok(st)
    };
    match fold().and_then(|first| Ok((first, fold()?))) {
        Err(detail) => v.fail("partition-fencing-fold", detail),
        Ok((first, second)) => {
            if first.to_bytes() != second.to_bytes() {
                v.fail("partition-replay", "two folds of the same journal diverged".into());
            }
            if (&model.epochs, &model.fenced) != (&first.pod_epochs, &first.fenced) {
                let detail = format!(
                    "the model ends at epochs {:?}, fenced {:?}; the fold at {:?}, fenced {:?}",
                    model.epochs, model.fenced, first.pod_epochs, first.fenced
                );
                v.fail("partition-fencing-model", detail);
            }
            for p in (0..n_pods).filter(|&p| first.fenced[p]) {
                let detail = format!("pod {p} ended the run fenced (never rejoined)");
                v.fail("partition-rejoin", detail);
            }
            let quarantined: Vec<usize> = (0..n_pods).filter(|&p| first.quarantined[p]).collect();
            let served: BTreeSet<usize> = first.accepted.iter().map(|a| a.tenant).collect();
            let folded = (&quarantined, first.detections, served.len());
            let reported = (&report.quarantined_pods, report.detections, report.tenants_served);
            if reported != folded {
                let detail = format!(
                    "the report's (quarantined pods, detections, tenants served) are \
                     {reported:?}; the journal folds to {folded:?}"
                );
                v.fail("fleet-report-replay", detail);
            }
        }
    }
    v
}

/// The fencing rules written a second time, apart from [`FleetState`]:
/// per-pod epoch and fence flag only. A fence advances its pod's epoch
/// by exactly one; a placement, hand-off or acceptance must carry the
/// live epoch of a pod that is not fenced; a rejoin must follow a fence
/// and carry its epoch; a discard must carry an older epoch.
struct EpochModel {
    epochs: Vec<u64>,
    fenced: Vec<bool>,
}

impl EpochModel {
    fn new(n_pods: usize) -> Self {
        Self { epochs: vec![1; n_pods], fenced: vec![false; n_pods] }
    }

    /// Advances over one record, or names the first rule it breaks (the
    /// state still advances past a fence or rejoin, so later records
    /// are judged against what the journal claims).
    fn step(&mut self, rec: &FleetRecord) -> Result<(), String> {
        let (pod, stamp, what) = match rec {
            FleetRecord::Placed { pod, epoch, .. } => (*pod, *epoch, "placement"),
            FleetRecord::Stolen { to, epoch, .. } | FleetRecord::Replaced { to, epoch, .. } => {
                (*to, *epoch, "hand-off")
            }
            FleetRecord::Accepted { pod, epoch, .. } => (*pod, *epoch, "acceptance"),
            FleetRecord::Fenced { pod, epoch, .. } => (*pod, *epoch, "fence"),
            FleetRecord::Rejoined { pod, epoch, .. } => (*pod, *epoch, "rejoin"),
            FleetRecord::Discarded { pod, epoch, .. } => (*pod, *epoch, "discard"),
            FleetRecord::Detected { .. } | FleetRecord::Quarantined { .. } => return Ok(()),
        };
        let (Some(&live), Some(&fenced)) = (self.epochs.get(pod), self.fenced.get(pod)) else {
            return Err(format!("{what} names pod {pod} outside the fleet"));
        };
        match rec {
            FleetRecord::Fenced { .. } => {
                self.epochs[pod] = stamp.max(live);
                self.fenced[pod] = true;
                if fenced {
                    return Err(format!("pod {pod} fenced twice"));
                }
                if stamp != live + 1 {
                    return Err(format!("fence moves pod {pod} from epoch {live} to {stamp}"));
                }
            }
            FleetRecord::Rejoined { .. } => {
                self.fenced[pod] = false;
                if !fenced {
                    return Err(format!("pod {pod} rejoined without a fence"));
                }
                if stamp != live {
                    return Err(format!("rejoin stamped {stamp}, pod {pod} is at epoch {live}"));
                }
            }
            FleetRecord::Discarded { .. } if stamp >= live => {
                return Err(format!("discard stamped {stamp}, not below pod {pod}'s epoch {live}"));
            }
            FleetRecord::Discarded { .. } => {}
            _ if fenced => return Err(format!("{what} on pod {pod} while it is fenced")),
            _ if stamp != live => {
                return Err(format!("{what} stamped {stamp}, pod {pod} is at epoch {live}"));
            }
            _ => {}
        }
        Ok(())
    }
}

/// One entry of the merged fleet timeline, ordered by time with
/// coordinator decisions sorted *before* pod events at equal stamps
/// (a steal's queue-epoch reset precedes the dispatch it enables).
enum Timeline<'a> {
    Fleet(&'a FleetRecord),
    Pod(usize, &'a ServiceEvent),
}

impl Timeline<'_> {
    fn t_s(&self) -> f64 {
        match self {
            Timeline::Fleet(e) => e.t_s(),
            Timeline::Pod(_, e) => e.t_s,
        }
    }

    fn fleet_first(&self) -> u8 {
        match self {
            Timeline::Fleet(_) => 0,
            Timeline::Pod(..) => 1,
        }
    }
}

/// Checks the fleet invariants over the merged event streams. What is
/// admitted or terminal at fleet scope is decided here, once, for every
/// fleet run (cold, restored, partitioned):
///
/// * a job is **admitted** at the coordinator's first `Placed` (a
///   restore's re-placement is a new queue epoch, not a second
///   admission);
/// * a new **queue epoch** opens at `Stolen`, `Replaced`, a later
///   `Placed` and a pod's `Requeued`, and closes at a pod's
///   `Dispatched`;
/// * a job is **terminal** at `Accepted`, or at its owner pod's
///   `Failed`, `Shed` or door `Rejected` other than `PodPartitioned`
///   (a degraded pod's refusal hands the job back to the coordinator).
///
/// Pod events count only on the job's current owner — the pod its last
/// `Placed`, `Stolen` or `Replaced` names. A copy a fence left behind is
/// the fencing epoch's to discard, whatever it does meanwhile.
///
/// 1. **fleet-exactly-once** — every admitted job reaches exactly one
///    fleet-terminal state. A pod-level `Completed` is *not* terminal
///    until the coordinator verifies it — a byzantine completion is
///    rejected and the job lives on.
/// 2. **fleet-conservation** — at every prefix of the merged timeline,
///    `admitted ≥ terminated`, and the gap drains to zero by the end of
///    the run.
/// 3. **fleet-bit-exact** — every verified-accepted result equals the
///    fault-free single-GPU reference for its instance.
/// 4. **fleet-starvation-bound** — no job waits in a queue longer than
///    its class bound; a steal or re-placement restarts the epoch at
///    the absorbing pod.
/// 5. **quarantined-pod** — the seeded byzantine pod is detected by the
///    2G2T check and ends the run fleet-quarantined.
/// 6. **pod-loss** — the lost pod's pool ends fully breaker-open, and
///    no job is left queued behind it.
/// 7. **fleet-completion-floor** — `accepted / placed` stays at or
///    above the shed-policy floor despite pod-level failures and
///    partitions.
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
        .chain(outcome.pod_events.iter().map(|(p, e)| Timeline::Pod(*p, e)))
        .collect();
    timeline.sort_by(|a, b| {
        a.t_s().total_cmp(&b.t_s()).then(a.fleet_first().cmp(&b.fleet_first()))
    });

    // 1, 2, 4: the shared ledger, fed as documented above.
    let mut ledger = Ledger::new(LedgerIds::FLEET, &by_id);
    let mut owner: BTreeMap<u64, usize> = BTreeMap::new();
    for entry in &timeline {
        let v = &mut violations;
        match entry {
            Timeline::Fleet(e) => match **e {
                FleetRecord::Placed { t_s, id, pod, .. } => match owner.insert(id, pod) {
                    None => ledger.admit(Some(id), t_s),
                    Some(_) => ledger.requeue(Some(id), t_s),
                },
                FleetRecord::Stolen { t_s, id, to, .. }
                | FleetRecord::Replaced { t_s, id, to, .. } => {
                    owner.insert(id, to);
                    ledger.requeue(Some(id), t_s);
                }
                FleetRecord::Accepted { t_s, id, .. } => ledger.terminate(v, Some(id), t_s, false),
                _ => {}
            },
            Timeline::Pod(pod, e) if e.job.and_then(|id| owner.get(&id)) == Some(pod) => {
                match &e.kind {
                    ServiceEventKind::Requeued { .. } => ledger.requeue(e.job, e.t_s),
                    ServiceEventKind::Dispatched { .. } => ledger.dispatch(v, e.job, e.t_s),
                    ServiceEventKind::Rejected {
                        error: AdmissionError::PodPartitioned { .. },
                    } => {}
                    ServiceEventKind::Failed { .. }
                    | ServiceEventKind::Shed { .. }
                    | ServiceEventKind::Rejected { .. } => ledger.terminate(v, e.job, e.t_s, true),
                    _ => {}
                }
            }
            Timeline::Pod(..) => {}
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
            .any(|e| matches!(*e, FleetRecord::Detected { pod: p, .. } if p == pod));
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

    // 7: the fleet-scope completion floor (over `placed`: a degraded
    // pod's refusal is re-placed, never re-admitted).
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
    use distmsm_service::ShedReason;

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
            partition_seed: 41,
            n_partition_windows: 0,
        }
    }

    /// Test-only corruption of the coordinator's event stream: drops
    /// every third `Accepted` record before the invariant check —
    /// verified jobs appear to vanish, breaking fleet conservation and
    /// exactly-once termination.
    fn run_dropping_accepted(spec: &FleetSoakSpec) -> Run<FleetReport> {
        let (jobs, config, mut outcome) = execute(spec);
        let mut kept = 0u64;
        outcome.events.retain(|e| {
            if matches!(e, FleetRecord::Accepted { .. }) {
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
    fn partitioned_sabotage_reaches_the_fleet_ledger() {
        let spec = crate::partition::tests::LEASED_FENCED_FLEET;
        let clean = spec.run();
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
        let out = run_dropping_accepted(&spec);
        assert!(
            out.violations.iter().any(|v| v.invariant == "fleet-conservation"),
            "dropped verifications on a partitioned run must break fleet conservation: {:?}",
            out.violations
        );
    }

    /// A copy a fence left behind may still be shed on its partitioned
    /// pod after the job moved on: only the owner's events count, so
    /// that shed is no second terminal state — but the same shed on the
    /// owner is.
    #[test]
    fn only_the_owner_pod_terminates_a_job() {
        let spec = tiny();
        let (jobs, config, mut outcome) = execute(&spec);
        let verified = outcome
            .events
            .iter()
            .find_map(|e| match *e {
                FleetRecord::Accepted { t_s, id, pod, .. } => Some((Some(id), t_s, pod)),
                _ => None,
            })
            .expect("the tiny fleet verifies jobs");
        let (job, t_s, owner) = verified;
        let shed_on = |pod: usize| {
            let kind = ServiceEventKind::Shed { reason: ShedReason::Starvation };
            (pod, ServiceEvent { t_s: t_s - 1e-6, job, tenant: None, kind })
        };
        outcome.pod_events.push(shed_on((owner + 1) % spec.n_pods));
        let stale = check_fleet_invariants(&spec, &jobs, &outcome, &config);
        assert!(stale.is_empty(), "a non-owner's shed is not a terminal: {stale:?}");
        outcome.pod_events.push(shed_on(owner));
        let twice = check_fleet_invariants(&spec, &jobs, &outcome, &config);
        assert!(twice.iter().any(|v| v.invariant == "fleet-exactly-once"), "{twice:?}");
    }

    /// `spec`'s coordinator records after `edit` rewrote them, and the
    /// run's report.
    fn edited_journal(
        spec: &FleetSoakSpec,
        edit: impl FnOnce(&mut Vec<FleetRecord>),
    ) -> (Vec<FleetRecord>, FleetReport) {
        let (_, _, mut outcome) = execute(spec);
        edit(&mut outcome.events);
        (outcome.events, outcome.report)
    }

    fn journal_findings(
        (records, report): &(Vec<FleetRecord>, FleetReport),
        spec: &FleetSoakSpec,
    ) -> Vec<&'static str> {
        check_fleet_journal(records, spec, report).iter().map(|v| v.invariant).collect()
    }

    /// A report whose quarantine flags, detections or tenants served
    /// differ from the journal's fold is flagged.
    #[test]
    fn a_report_that_drifts_from_the_journal_is_flagged() {
        let spec = tiny();
        let (journal, report) = edited_journal(&spec, |_| {});
        let findings = |report: FleetReport| journal_findings(&(journal.clone(), report), &spec);
        assert_eq!(findings(report.clone()), [] as [&str; 0]);
        for drift in [
            FleetReport { detections: report.detections + 1, ..report.clone() },
            FleetReport { quarantined_pods: Vec::new(), ..report.clone() },
            FleetReport { tenants_served: report.tenants_served + 1, ..report.clone() },
        ] {
            assert_eq!(findings(drift), ["fleet-report-replay"]);
        }
    }

    #[test]
    fn epoch_regression_trips_the_fencing_model() {
        let spec = crate::partition::tests::LEASED_FENCED_FLEET;
        assert_eq!(journal_findings(&edited_journal(&spec, |_| {}), &spec), [] as [&str; 0]);
        // The first fence claims the epoch its pod already had.
        let journal = edited_journal(&spec, |records| {
            let epoch = records
                .iter_mut()
                .find_map(|r| match r {
                    FleetRecord::Fenced { epoch, .. } => Some(epoch),
                    _ => None,
                })
                .expect("the scenario fences");
            *epoch -= 1;
        });
        let found = journal_findings(&journal, &spec);
        assert!(found.contains(&"partition-fencing-model"), "{found:?}");
    }

    #[test]
    fn zombie_acceptance_trips_the_fencing_model() {
        let spec = crate::partition::tests::LEASED_FENCED_FLEET;
        // A completion lands on a pod right after its fence, stamped
        // with the epoch the fence expired.
        let journal = edited_journal(&spec, |records| {
            let at = records
                .iter()
                .position(|r| matches!(r, FleetRecord::Fenced { .. }))
                .expect("the scenario fences");
            let FleetRecord::Fenced { t_s, pod, epoch } = records[at] else { unreachable!() };
            let (id, tenant, attempts, result, epoch) = (999_999, 0, 1, Vec::new(), epoch - 1);
            let zombie = FleetRecord::Accepted { t_s, id, tenant, pod, attempts, epoch, result };
            records.insert(at + 1, zombie);
        });
        let found = journal_findings(&journal, &spec);
        assert!(found.contains(&"partition-fencing-model"), "{found:?}");
    }

    /// Lease records need a partition window, and a fence needs its
    /// rejoin by the end of the run.
    #[test]
    fn lease_records_are_checked_against_the_partition_plane() {
        let spec = tiny();
        let partitioned = FleetSoakSpec { n_partition_windows: 1, ..spec };
        let fence = FleetRecord::Fenced { t_s: 1e6, pod: 0, epoch: 2 };
        let healed = edited_journal(&spec, |records| {
            records.push(fence.clone());
            records.push(FleetRecord::Rejoined { t_s: 1e6, pod: 0, epoch: 2 });
        });
        assert_eq!(journal_findings(&healed, &spec), ["partition-inert", "partition-inert"]);
        assert_eq!(journal_findings(&healed, &partitioned), [] as [&str; 0]);
        let unhealed = edited_journal(&spec, |records| records.push(fence));
        assert_eq!(journal_findings(&unhealed, &partitioned), ["partition-rejoin"]);
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
