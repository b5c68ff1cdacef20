//! The deterministic partition soak: link-partition windows swept over
//! the leased, epoch-fenced fleet.
//!
//! One [`PartitionSoakSpec`] derives a grid of scenarios — partition
//! window sets (different seeds give different windows, directions and
//! heal times) crossed with an optional concurrent whole-pod loss — and
//! replays each against the membership-enabled coordinator. Per
//! scenario the soak checks:
//!
//! * **partition-exactly-once** — no job is 2G2T-accepted twice, and
//!   every accepted id comes from the arrival trace. Exactly-once is
//!   preserved by epoch fencing, not by assuming connectivity.
//! * **partition-bit-exact** — every accepted result equals the
//!   fault-free single-GPU reference for its instance.
//! * **partition-fencing-fold** — the coordinator's durable journal
//!   replays cleanly through the [`FleetState`] fold, whose fencing
//!   checks reject any acceptance or hand-off stamped with an expired
//!   epoch, any non-monotonic fence, and any rejoin without a fence.
//! * **partition-replay** — folding the same durable prefix twice
//!   yields byte-identical states (anti-entropy rejoin is replayable).
//! * **partition-rejoin** — every fenced pod whose partition healed
//!   ends the run rejoined (no pod stays fenced forever).
//! * **partition-availability** — the fleet completion rate stays at or
//!   above the spec's floor despite the partitions.
//! * **partition-determinism** — running the same scenario twice
//!   produces identical event streams and reports.
//!
//! The aggregated [`PartitionReport`] is byte-stable JSON: two equal
//! specs produce identical bytes, making it a golden-file surface.

use std::collections::BTreeSet;

use distmsm::DistMsm;
use distmsm_comms::PartitionSchedule;
use distmsm_ec::curves::Bn254G1;
use distmsm_gpu_sim::MultiGpuSystem;
use distmsm_journal::{Fold, Wire};

use crate::fleet::{FleetCoordinator, FleetEventKind, FleetOutcome};
use crate::membership::MembershipConfig;
use crate::soak as fleet_soak;
use crate::wal::{FleetRecord, FleetState};

/// Everything that defines one partition soak. Two equal specs produce
/// byte-identical runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionSoakSpec {
    /// The base fleet scenario (arrivals, pods, per-pod chaos). Its
    /// `lost_pod` is *not* applied directly — it names the pod the
    /// crash half of the scenario grid loses.
    pub fleet: fleet_soak::FleetSoakSpec,
    /// Heartbeat-lease intervals for every scenario.
    pub membership: MembershipConfig,
    /// Seed of the first scenario's partition windows.
    pub partition_seed: u64,
    /// Partition windows per scenario.
    pub n_windows: usize,
    /// Partition-window seeds swept (scenario grid = seeds × crash).
    pub n_seeds: usize,
    /// Minimum acceptable fleet completion rate under partitions.
    pub availability_floor: f64,
}

impl PartitionSoakSpec {
    /// The CI smoke scenario: four pods, two window seeds crossed with
    /// a concurrent whole-pod loss, heartbeats fast enough that every
    /// symmetric or upstream window longer than the lease fences.
    pub fn smoke() -> Self {
        Self {
            fleet: fleet_soak::FleetSoakSpec {
                arrival_seed: 2028,
                fault_seed: 7,
                n_jobs: 120,
                n_tenants: 64,
                n_pods: 4,
                devices_per_pod: 4,
                n_fault_windows: 0,
                horizon_s: 600.0,
                msm_size: 16,
                byzantine_pod: None,
                lost_pod: Some(2),
            },
            membership: MembershipConfig::default(),
            partition_seed: 41,
            n_windows: 3,
            n_seeds: 2,
            availability_floor: 0.5,
        }
    }

    /// The overnight scenario: more jobs, more window seeds, denser
    /// partitions.
    pub fn full() -> Self {
        Self {
            fleet: fleet_soak::FleetSoakSpec {
                arrival_seed: 2028,
                fault_seed: 19,
                n_jobs: 400,
                n_tenants: 256,
                n_pods: 4,
                devices_per_pod: 4,
                n_fault_windows: 2,
                horizon_s: 1200.0,
                msm_size: 24,
                byzantine_pod: None,
                lost_pod: Some(2),
            },
            membership: MembershipConfig::default(),
            partition_seed: 41,
            n_windows: 4,
            n_seeds: 3,
            availability_floor: 0.5,
        }
    }

    /// The spec as a re-runnable seed tuple.
    pub fn seed_tuple(&self) -> String {
        format!(
            "(fleet={}, lease_s={}, heartbeat_s={}, replace_grace_s={}, partition_seed={}, \
             n_windows={}, n_seeds={}, availability_floor={})",
            self.fleet.seed_tuple(),
            self.membership.lease_s,
            self.membership.heartbeat_s,
            self.membership.replace_grace_s,
            self.partition_seed,
            self.n_windows,
            self.n_seeds,
            self.availability_floor,
        )
    }

    /// The spec as `partition_soak` binary flags, for copy-paste
    /// reproduction (the fleet half rides the `--smoke`/default base).
    pub fn cli(&self) -> String {
        format!(
            "--partition-seed {} --windows {} --seeds {} --lease {} --heartbeat {} \
             --replace-grace {} --availability-floor {}",
            self.partition_seed,
            self.n_windows,
            self.n_seeds,
            self.membership.lease_s,
            self.membership.heartbeat_s,
            self.membership.replace_grace_s,
            self.availability_floor,
        )
    }

    /// The scenario grid: each window seed runs once partition-only and
    /// once with the concurrent whole-pod loss (when the spec names a
    /// lost pod).
    fn scenarios(&self) -> Vec<(u64, Option<usize>)> {
        let mut out = Vec::new();
        for i in 0..self.n_seeds {
            let seed = self.partition_seed.wrapping_add(i as u64);
            out.push((seed, None));
            if let Some(pod) = self.fleet.lost_pod {
                out.push((seed, Some(pod)));
            }
        }
        out
    }
}

/// One detected partition-tolerance violation.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionViolation {
    /// Stable invariant id (`"partition-exactly-once"`,
    /// `"partition-bit-exact"`, `"partition-fencing-fold"`,
    /// `"partition-replay"`, `"partition-rejoin"`,
    /// `"partition-availability"`, `"partition-determinism"`,
    /// `"partition-coverage"`).
    pub invariant: &'static str,
    /// What went wrong, including the scenario.
    pub detail: String,
}

/// Byte-stable summary of one partition soak (the golden-file surface).
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionReport {
    /// Scenarios swept (window seeds × crash arms).
    pub scenarios: usize,
    /// Partition windows injected across the sweep.
    pub windows: usize,
    /// Lease expiries that advanced a fencing epoch.
    pub fences: u64,
    /// Anti-entropy rejoins of fenced pods.
    pub rejoins: u64,
    /// Stale copies and zombie completions discarded by fencing epoch.
    pub discards: u64,
    /// Jobs re-placed off fenced, quarantined or byzantine pods.
    pub replaced: u64,
    /// Jobs 2G2T-accepted across the sweep.
    pub accepted: u64,
    /// Jobs admitted across the sweep.
    pub admitted: u64,
    /// Worst per-scenario completion rate, in thousandths (the
    /// availability floor is checked against this).
    pub min_completion_millis: u64,
    /// Total violations detected (0 on a healthy sweep).
    pub n_violations: usize,
}

impl PartitionReport {
    /// Renders the report as byte-stable JSON (integers only, fixed
    /// key order).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"scenarios\": {},\n  \"windows\": {},\n  \"fences\": {},\n  \
             \"rejoins\": {},\n  \"discards\": {},\n  \"replaced\": {},\n  \
             \"accepted\": {},\n  \"admitted\": {},\n  \"min_completion_millis\": {},\n  \
             \"n_violations\": {}\n}}",
            self.scenarios,
            self.windows,
            self.fences,
            self.rejoins,
            self.discards,
            self.replaced,
            self.accepted,
            self.admitted,
            self.min_completion_millis,
            self.n_violations
        )
    }
}

/// The outcome of one partition soak.
#[derive(Clone, Debug)]
pub struct PartitionSoakOutcome {
    /// Byte-stable counters.
    pub report: PartitionReport,
    /// Detected violations (empty on a healthy sweep).
    pub violations: Vec<PartitionViolation>,
}

/// A scenario's identity in violation details.
fn scenario_name(seed: u64, lost_pod: Option<usize>) -> String {
    match lost_pod {
        Some(pod) => format!("scenario(seed={seed}, lost_pod={pod})"),
        None => format!("scenario(seed={seed})"),
    }
}

/// Deterministic signature of one scenario run, compared across
/// replays.
fn signature(outcome: &FleetOutcome<Bn254G1>) -> String {
    format!("{:?}|{:?}", outcome.events, outcome.report)
}

/// Runs one scenario of the grid and returns its outcome plus the
/// coordinator's durable journal records.
fn run_scenario(
    spec: &PartitionSoakSpec,
    seed: u64,
    lost_pod: Option<usize>,
) -> (FleetOutcome<Bn254G1>, Vec<distmsm_journal::Record>) {
    let fleet_spec = fleet_soak::FleetSoakSpec { lost_pod, ..spec.fleet };
    let jobs = fleet_soak::build_fleet_jobs(&fleet_spec);
    let mut chaos = fleet_soak::build_fleet_chaos(&fleet_spec);
    chaos.partitions = PartitionSchedule::random(
        seed,
        spec.n_windows,
        fleet_spec.n_pods,
        fleet_spec.horizon_s,
    );
    let mut config = fleet_soak::fleet_config(&fleet_spec);
    config.membership = Some(spec.membership);
    let mut coordinator = FleetCoordinator::new(config);
    let outcome = coordinator.run(jobs, &chaos);
    let records = coordinator
        .durable()
        .journal
        .replay()
        .expect("the live coordinator journal is intact");
    (outcome, records)
}

/// Runs the full partition soak: the scenario grid with per-scenario
/// invariant checks, a determinism replay of the first scenario, and
/// the aggregated byte-stable report.
pub fn run_partition_soak(spec: &PartitionSoakSpec) -> PartitionSoakOutcome {
    let mut violations = Vec::new();
    let mut report = PartitionReport {
        scenarios: 0,
        windows: 0,
        fences: 0,
        rejoins: 0,
        discards: 0,
        replaced: 0,
        accepted: 0,
        admitted: 0,
        min_completion_millis: 1000,
        n_violations: 0,
    };
    let reference = DistMsm::new(MultiGpuSystem::dgx_a100(1));

    for (i, (seed, lost_pod)) in spec.scenarios().into_iter().enumerate() {
        let what = scenario_name(seed, lost_pod);
        let (outcome, records) = run_scenario(spec, seed, lost_pod);
        report.scenarios += 1;
        report.windows += spec.n_windows;

        // Per-scenario event counters.
        for e in &outcome.events {
            match e.kind {
                FleetEventKind::Fenced { .. } => report.fences += 1,
                FleetEventKind::Rejoined { .. } => report.rejoins += 1,
                FleetEventKind::Discarded { .. } => report.discards += 1,
                FleetEventKind::Replaced { .. } => report.replaced += 1,
                _ => {}
            }
        }
        report.accepted += outcome.report.accepted;
        report.admitted += outcome.report.admitted;

        // partition-exactly-once: unique accepted ids from the trace.
        let fleet_spec = fleet_soak::FleetSoakSpec { lost_pod, ..spec.fleet };
        let jobs = fleet_soak::build_fleet_jobs(&fleet_spec);
        let trace_ids: BTreeSet<u64> = jobs.iter().map(|j| j.id).collect();
        let mut seen = BTreeSet::new();
        for a in &outcome.accepted {
            if !seen.insert(a.id) {
                violations.push(PartitionViolation {
                    invariant: "partition-exactly-once",
                    detail: format!("{what}: job {} accepted more than once", a.id),
                });
            }
            if !trace_ids.contains(&a.id) {
                violations.push(PartitionViolation {
                    invariant: "partition-exactly-once",
                    detail: format!("{what}: accepted job {} is not in the arrival trace", a.id),
                });
            }
        }

        // partition-bit-exact: accepted values match the fault-free
        // reference.
        for a in &outcome.accepted {
            let Some(job) = jobs.iter().find(|j| j.id == a.id) else { continue };
            let expect = reference
                .execute(&job.instance)
                .expect("fault-free reference execution succeeds");
            if expect.result.to_affine() != a.result.to_affine() {
                violations.push(PartitionViolation {
                    invariant: "partition-bit-exact",
                    detail: format!("{what}: job {} was accepted with a wrong MSM value", a.id),
                });
            }
        }

        // partition-fencing-fold + partition-replay: the durable
        // journal folds cleanly, twice, to the same bytes.
        let mut folds = Vec::new();
        for pass in 0..2 {
            let mut st = FleetState::new(&spec.fleet.n_pods);
            let mut ok = true;
            for r in &records {
                let rec = match FleetRecord::from_bytes(&r.payload) {
                    Ok(rec) => rec,
                    Err(err) => {
                        violations.push(PartitionViolation {
                            invariant: "partition-fencing-fold",
                            detail: format!(
                                "{what}: journal epoch {} undecodable: {err:?}",
                                r.epoch
                            ),
                        });
                        ok = false;
                        break;
                    }
                };
                if let Err(err) = st.apply(r.epoch, &rec, &spec.fleet.n_pods) {
                    violations.push(PartitionViolation {
                        invariant: "partition-fencing-fold",
                        detail: format!(
                            "{what}: fold rejected journal epoch {} on pass {pass}: {err:?}",
                            r.epoch
                        ),
                    });
                    ok = false;
                    break;
                }
            }
            if !ok {
                break;
            }
            folds.push(st.to_bytes());
        }
        if folds.len() == 2 && folds[0] != folds[1] {
            violations.push(PartitionViolation {
                invariant: "partition-replay",
                detail: format!("{what}: two folds of the same journal diverged"),
            });
        }

        // partition-rejoin: every window heals by the horizon and the
        // membership clock outlives lease + grace past the last heal,
        // so no pod may end the run still fenced.
        if let Some(bytes) = folds.first() {
            let final_state = FleetState::from_bytes(bytes).expect("fold output re-decodes");
            for (p, fenced) in final_state.fenced.iter().enumerate() {
                if *fenced {
                    violations.push(PartitionViolation {
                        invariant: "partition-rejoin",
                        detail: format!("{what}: pod {p} ended the run fenced (never rejoined)"),
                    });
                }
            }
        }

        // partition-availability: the completion floor holds.
        let rate = outcome.report.completion_rate();
        let millis = (rate * 1000.0).round() as u64;
        report.min_completion_millis = report.min_completion_millis.min(millis);
        if rate < spec.availability_floor {
            violations.push(PartitionViolation {
                invariant: "partition-availability",
                detail: format!(
                    "{what}: completion rate {rate:.3} fell below the floor {:.3}",
                    spec.availability_floor
                ),
            });
        }

        // partition-determinism: the first scenario replays to the
        // identical event stream and report.
        if i == 0 {
            let (again, _) = run_scenario(spec, seed, lost_pod);
            if signature(&again) != signature(&outcome) {
                violations.push(PartitionViolation {
                    invariant: "partition-determinism",
                    detail: format!("{what}: two runs of the same scenario diverged"),
                });
            }
        }
    }

    // partition-coverage: a sweep that never fenced (or never rejoined)
    // exercised nothing — the windows were too short or mis-aimed.
    if report.fences == 0 || report.rejoins == 0 {
        violations.push(PartitionViolation {
            invariant: "partition-coverage",
            detail: format!(
                "sweep produced {} fences and {} rejoins — partitions never bit",
                report.fences, report.rejoins
            ),
        });
    }

    report.n_violations = violations.len();
    PartitionSoakOutcome { report, violations }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn tiny() -> PartitionSoakSpec {
        PartitionSoakSpec {
            fleet: fleet_soak::FleetSoakSpec {
                arrival_seed: 2028,
                fault_seed: 7,
                n_jobs: 24,
                n_tenants: 16,
                n_pods: 3,
                devices_per_pod: 3,
                n_fault_windows: 0,
                horizon_s: 300.0,
                msm_size: 12,
                byzantine_pod: None,
                lost_pod: None,
            },
            membership: MembershipConfig::default(),
            partition_seed: 41,
            n_windows: 2,
            n_seeds: 2,
            availability_floor: 0.3,
        }
    }

    #[test]
    fn tiny_partition_soak_is_clean_and_deterministic() {
        let spec = tiny();
        let first = run_partition_soak(&spec);
        assert!(
            first.violations.is_empty(),
            "tiny partition soak found violations: {:#?}",
            first.violations
        );
        assert!(first.report.fences > 0, "partitions must fence at least once");
        assert!(first.report.rejoins > 0, "fenced pods must rejoin");
        assert!(first.report.accepted > 0);
        let second = run_partition_soak(&spec);
        assert_eq!(first.report, second.report, "partition soak must be deterministic");
        assert_eq!(first.report.to_json(), second.report.to_json());
    }

    #[test]
    fn concurrent_pod_loss_arm_still_holds_exactly_once() {
        let spec = PartitionSoakSpec {
            fleet: fleet_soak::FleetSoakSpec { lost_pod: Some(1), ..tiny().fleet },
            availability_floor: 0.2,
            ..tiny()
        };
        let out = run_partition_soak(&spec);
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert_eq!(out.report.scenarios, 4, "each seed runs a crash arm too");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Satellite property: folding any prefix of a partition
        /// scenario's coordinator journal twice yields byte-identical
        /// states — recovery is a pure function of the durable bytes.
        #[test]
        fn prefix_replay_twice_is_deterministic(cut in 1usize..40) {
            static RECORDS: std::sync::OnceLock<Vec<distmsm_journal::Record>> =
                std::sync::OnceLock::new();
            let spec = tiny();
            let records =
                RECORDS.get_or_init(|| run_scenario(&spec, spec.partition_seed, None).1);
            let keep = cut.min(records.len());
            let fold = |_: ()| {
                let mut st = FleetState::new(&spec.fleet.n_pods);
                for r in &records[..keep] {
                    let rec = FleetRecord::from_bytes(&r.payload).expect("live journal decodes");
                    st.apply(r.epoch, &rec, &spec.fleet.n_pods).expect("live journal folds");
                }
                st.to_bytes()
            };
            prop_assert_eq!(fold(()), fold(()));
        }
    }
}
