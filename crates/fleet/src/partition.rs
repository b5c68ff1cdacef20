//! The deterministic partition soak: link-partition windows swept over
//! the leased, epoch-fenced fleet.
//!
//! Partitions are a plane of [`FleetSoakSpec`] (`partition_seed`,
//! `n_partition_windows`), so every fleet run — `fleet_soak`, the
//! `crash_soak` fleet sweep, this soak — takes them from the same two
//! fields and is checked by the same verdict, [`fleet_soak::verdict`]:
//! the fleet ledger (exactly-once, conservation, starvation), bit-exact
//! acceptance, pod loss and the coordinator-journal fencing checks. This
//! soak sweeps a grid — `n_seeds` consecutive partition seeds, each run
//! once partition-only and once with the fleet spec's `lost_pod` lost —
//! and adds two sweep-level checks:
//!
//! * **partition-determinism** — running the first scenario twice
//!   produces identical event streams and reports.
//! * **partition-coverage** — the sweep fenced and rejoined at least
//!   once (otherwise the windows never bit and nothing was exercised).
//!
//! The aggregated [`PartitionReport`] is byte-stable JSON: two equal
//! specs produce identical bytes, making it a golden-file surface.

use distmsm::report::{json_pretty, JsonField::Scalar};
use distmsm_ec::curves::Bn254G1;
use distmsm_service::harness::{Flags, Run, Scenario};

use crate::fleet::FleetOutcome;
use crate::soak::{self as fleet_soak, FleetSoakSpec};
use crate::wal::FleetRecord;

/// Everything that defines one partition soak. Two equal specs produce
/// byte-identical runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionSoakSpec {
    /// The base fleet scenario (arrivals, pods, chaos, the first
    /// partition seed and the windows per scenario). Its `lost_pod` is
    /// *not* applied directly — it names the pod the crash half of the
    /// scenario grid loses.
    pub fleet: FleetSoakSpec,
    /// Partition seeds swept from `fleet.partition_seed` on (scenario
    /// grid = seeds × crash arms).
    pub n_seeds: usize,
}

impl Scenario for PartitionSoakSpec {
    type Report = PartitionReport;
    const NAME: &'static str = "partition_soak";

    /// The CI smoke scenario: four pods, two window seeds crossed with
    /// a concurrent whole-pod loss, heartbeats fast enough that every
    /// symmetric or upstream window longer than the lease fences.
    fn smoke() -> Self {
        Self {
            fleet: FleetSoakSpec {
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
                partition_seed: 41,
                n_partition_windows: 3,
            },
            n_seeds: 2,
        }
    }

    /// The overnight scenario: more jobs, more window seeds, denser
    /// partitions.
    fn full() -> Self {
        Self {
            fleet: FleetSoakSpec {
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
                partition_seed: 41,
                n_partition_windows: 4,
            },
            n_seeds: 3,
        }
    }

    fn flags(&mut self, f: &mut Flags<'_>) {
        f.nested("fleet", &mut self.fleet);
        f.shrinking("seeds", &mut self.n_seeds, 1);
    }

    /// Runs the full partition soak: the scenario grid through the one
    /// fleet verdict, a determinism replay of the first scenario, and
    /// the aggregated byte-stable report.
    fn run(&self) -> Run<PartitionReport> {
        let mut run = Run {
            report: PartitionReport { min_completion_millis: 1000, ..Default::default() },
            ..Default::default()
        };
        for (i, spec) in self.scenarios().into_iter().enumerate() {
            let (jobs, config, outcome) = fleet_soak::execute(&spec);
            let first_run = (i == 0).then(|| signature(&outcome));
            let report = &mut run.report;
            report.scenarios += 1;
            report.windows += spec.n_partition_windows;
            for e in &outcome.events {
                match e {
                    FleetRecord::Fenced { .. } => report.fences += 1,
                    FleetRecord::Rejoined { .. } => report.rejoins += 1,
                    FleetRecord::Discarded { .. } => report.discards += 1,
                    FleetRecord::Replaced { .. } => report.replaced += 1,
                    _ => {}
                }
            }
            report.accepted += outcome.report.accepted;
            report.admitted += outcome.report.admitted;
            let rate_millis = (outcome.report.completion_rate() * 1000.0).round() as u64;
            report.min_completion_millis = report.min_completion_millis.min(rate_millis);
            let checked = fleet_soak::verdict(&spec, &jobs, &config, outcome);
            run.n_events += checked.n_events;
            let name = scenario_name(&spec);
            run.violations.within(&name, checked.violations);
            // partition-determinism: the scenario replays to the
            // identical event stream and report.
            if first_run.is_some_and(|sig| sig != signature(&fleet_soak::execute(&spec).2)) {
                run.violations.fail(
                    "partition-determinism",
                    format!("{name}: two runs of the same scenario diverged"),
                );
            }
        }
        // partition-coverage: a sweep that never fenced (or never
        // rejoined) exercised nothing — the windows were too short or
        // mis-aimed.
        if run.report.fences == 0 || run.report.rejoins == 0 {
            run.violations.fail(
                "partition-coverage",
                format!(
                    "sweep produced {} fences and {} rejoins — partitions never bit",
                    run.report.fences, run.report.rejoins
                ),
            );
        }
        run.report.n_violations = run.violations.len();
        run
    }

    fn render(report: &PartitionReport) -> String {
        report.render()
    }

    fn golden_json(report: &PartitionReport) -> String {
        report.to_json()
    }
}

impl PartitionSoakSpec {
    /// The scenario grid: each window seed runs once partition-only and
    /// once with the concurrent whole-pod loss (when the spec names a
    /// lost pod).
    fn scenarios(&self) -> Vec<FleetSoakSpec> {
        let mut out = Vec::new();
        for i in 0..self.n_seeds {
            let partition_seed = self.fleet.partition_seed.wrapping_add(i as u64);
            for lost_pod in [None].into_iter().chain(self.fleet.lost_pod.map(Some)) {
                out.push(FleetSoakSpec { partition_seed, lost_pod, ..self.fleet });
            }
        }
        out
    }
}

/// Byte-stable summary of one partition soak (the golden-file surface).
#[derive(Clone, Debug, Default, PartialEq)]
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
    /// Worst per-scenario `accepted / placed`, in thousandths.
    pub min_completion_millis: u64,
    /// Total violations detected (0 on a healthy sweep).
    pub n_violations: usize,
}

impl PartitionReport {
    /// Renders the report as byte-stable JSON (integers only, fixed
    /// key order).
    pub fn to_json(&self) -> String {
        json_pretty(&[
            ("scenarios", Scalar(self.scenarios.to_string())),
            ("windows", Scalar(self.windows.to_string())),
            ("fences", Scalar(self.fences.to_string())),
            ("rejoins", Scalar(self.rejoins.to_string())),
            ("discards", Scalar(self.discards.to_string())),
            ("replaced", Scalar(self.replaced.to_string())),
            ("accepted", Scalar(self.accepted.to_string())),
            ("admitted", Scalar(self.admitted.to_string())),
            ("min_completion_millis", Scalar(self.min_completion_millis.to_string())),
            ("n_violations", Scalar(self.n_violations.to_string())),
        ])
    }

    /// Human-readable summary: sweep size, anti-entropy traffic and
    /// availability.
    pub fn render(&self) -> String {
        format!(
            "scenarios: {} ({} partition windows), fences: {}, rejoins: {}\n\
             anti-entropy: {} stale copies discarded by fencing epoch, {} jobs re-placed\n\
             availability: {} accepted ({} admitted), worst scenario accepted/placed {}.{:03}\n",
            self.scenarios,
            self.windows,
            self.fences,
            self.rejoins,
            self.discards,
            self.replaced,
            self.accepted,
            self.admitted,
            self.min_completion_millis / 1000,
            self.min_completion_millis % 1000
        )
    }
}

/// A scenario's identity in violation details.
fn scenario_name(spec: &FleetSoakSpec) -> String {
    match spec.lost_pod {
        Some(pod) => format!("scenario(seed={}, lost_pod={pod})", spec.partition_seed),
        None => format!("scenario(seed={})", spec.partition_seed),
    }
}

/// Deterministic signature of one scenario run, compared across
/// replays.
fn signature(outcome: &FleetOutcome<Bn254G1>) -> String {
    format!("{:?}|{:?}", outcome.events, outcome.report)
}

#[cfg(test)]
pub(crate) mod tests {
    use distmsm_journal::{Fold, Wire};
    use proptest::prelude::*;

    use super::*;
    use crate::wal::{FleetRecord, FleetState};

    /// The smallest leased, fenced fleet whose two partition windows
    /// still fence and rejoin: three pods, no other chaos.
    pub(crate) const LEASED_FENCED_FLEET: FleetSoakSpec = FleetSoakSpec {
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
        partition_seed: 41,
        n_partition_windows: 2,
    };

    fn tiny() -> PartitionSoakSpec {
        PartitionSoakSpec { fleet: LEASED_FENCED_FLEET, n_seeds: 2 }
    }

    #[test]
    fn tiny_partition_soak_is_clean_and_deterministic() {
        let spec = tiny();
        let first = spec.run();
        assert!(
            first.violations.is_empty(),
            "tiny partition soak found violations: {:#?}",
            first.violations
        );
        assert!(first.report.fences > 0, "partitions must fence at least once");
        assert!(first.report.rejoins > 0, "fenced pods must rejoin");
        assert!(first.report.accepted > 0);
        let second = spec.run();
        assert_eq!(first.report, second.report, "partition soak must be deterministic");
        assert_eq!(first.report.to_json(), second.report.to_json());
    }

    /// A sweep whose windows never fence or rejoin exercised nothing.
    #[test]
    fn a_sweep_that_never_fences_fails_coverage() {
        let fleet = FleetSoakSpec { n_partition_windows: 0, ..LEASED_FENCED_FLEET };
        let out = PartitionSoakSpec { fleet, n_seeds: 1 }.run();
        let found: Vec<_> = out.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(found, ["partition-coverage"]);
    }

    #[test]
    fn concurrent_pod_loss_arm_still_holds_exactly_once() {
        let spec = PartitionSoakSpec {
            fleet: FleetSoakSpec { lost_pod: Some(1), ..LEASED_FENCED_FLEET },
            ..tiny()
        };
        let out = spec.run();
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert_eq!(out.report.scenarios, 4, "each seed runs a crash arm too");
    }

    /// With 96 jobs the fences land while arrivals are still coming and
    /// after the lost pod has failed jobs: re-placement must wait for
    /// each arrival (no job served before it arrives) and must skip
    /// jobs the pod already failed (no job runs after a terminal state).
    #[test]
    fn re_placement_waits_for_arrival_and_never_reruns_a_failed_job() {
        let spec = FleetSoakSpec {
            n_jobs: 96,
            n_partition_windows: 3,
            lost_pod: Some(1),
            ..LEASED_FENCED_FLEET
        };
        let (jobs, config, outcome) = fleet_soak::execute(&spec);
        for (pod, e) in &outcome.pod_events {
            if let distmsm_service::ServiceEventKind::Completed { sojourn_s, .. } = e.kind {
                assert!(sojourn_s >= 0.0, "pod {pod} served job {:?} before it arrived", e.job);
            }
        }
        let run = fleet_soak::verdict(&spec, &jobs, &config, outcome);
        assert!(run.violations.is_empty(), "{:#?}", run.violations);
        assert!(run.report.failed > 0, "the lost pod must fail some jobs");
    }

    /// Six windows over three pods leave every pod degraded at once: a
    /// job refused then waits for the next membership transition to
    /// leave a pod live, instead of panicking or getting lost.
    #[test]
    fn a_refusal_with_no_live_pod_waits_for_one() {
        let spec = FleetSoakSpec {
            n_jobs: 48,
            partition_seed: 8,
            n_partition_windows: 6,
            ..LEASED_FENCED_FLEET
        };
        let run = spec.run();
        assert!(run.violations.is_empty(), "{:#?}", run.violations);
    }

    #[test]
    fn cli_round_trips_through_from_args_with_the_fleet_base() {
        let perturbed = PartitionSoakSpec { n_seeds: 5, ..tiny() };
        for spec in [PartitionSoakSpec::smoke(), PartitionSoakSpec::full(), perturbed] {
            let cli = spec.cli();
            let nested = cli.contains("--fleet-jobs") && cli.contains("--fleet-partition-windows");
            assert!(nested, "{cli}");
            assert!(!cli.contains("--lease") && !cli.contains("--heartbeat"), "{cli}");
            let args: Vec<String> = cli.split(' ').map(str::to_owned).collect();
            assert_eq!(PartitionSoakSpec::from_args(&args), spec, "{cli}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Satellite property: folding any prefix of a partition
        /// scenario's coordinator journal twice yields byte-identical
        /// states — recovery is a pure function of the durable bytes.
        #[test]
        fn prefix_replay_twice_is_deterministic(cut in 1usize..40) {
            static RECORDS: std::sync::OnceLock<Vec<FleetRecord>> = std::sync::OnceLock::new();
            let spec = LEASED_FENCED_FLEET;
            let records = RECORDS.get_or_init(|| fleet_soak::execute(&spec).2.events);
            let keep = cut.min(records.len());
            let fold = |_: ()| {
                let mut st = FleetState::new(&spec.n_pods);
                for (epoch, rec) in (1u64..).zip(&records[..keep]) {
                    st.apply(epoch, rec, &spec.n_pods).expect("live journal folds");
                }
                st.to_bytes()
            };
            prop_assert_eq!(fold(()), fold(()));
        }
    }
}
