//! The deterministic partition soak: link-partition windows swept over
//! the leased, epoch-fenced fleet.
//!
//! One [`PartitionSoakSpec`] derives a grid of scenarios — partition
//! window sets (different seeds give different windows, directions and
//! heal times) crossed with an optional concurrent whole-pod loss — and
//! replays each against the coordinator's heartbeat leases. Per
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
//! * **partition-availability** — `accepted / placed` stays at or
//!   above the spec's floor in every scenario. (Not `/ admitted`: an
//!   arrival at a partitioned pod is rejected and re-placed, never
//!   re-admitted, so summed pod admissions undercount the demand.)
//! * **partition-determinism** — running the same scenario twice
//!   produces identical event streams and reports.
//! * **partition-coverage** — the sweep fenced and rejoined at least
//!   once (otherwise the windows never bit and nothing was exercised).
//!
//! The aggregated [`PartitionReport`] is byte-stable JSON: two equal
//! specs produce identical bytes, making it a golden-file surface.

use distmsm::report::{json_pretty, JsonField::Scalar};
use distmsm_comms::PartitionSchedule;
use distmsm_ec::curves::Bn254G1;
use distmsm_journal::{Fold, Record, Wire};
use distmsm_service::harness::{
    bit_exact, by_id, unique_from_trace, Flags, Run, Scenario, Violations,
};
use distmsm_service::JobSpec;

use crate::fleet::{FleetCoordinator, FleetEventKind, FleetOutcome};
use crate::soak::{self as fleet_soak, FleetSoakSpec};
use crate::wal::{FleetRecord, FleetState};

/// Everything that defines one partition soak. Two equal specs produce
/// byte-identical runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionSoakSpec {
    /// The base fleet scenario (arrivals, pods, per-pod chaos). Its
    /// `lost_pod` is *not* applied directly — it names the pod the
    /// crash half of the scenario grid loses.
    pub fleet: FleetSoakSpec,
    /// Seed of the first scenario's partition windows.
    pub partition_seed: u64,
    /// Partition windows per scenario.
    pub n_windows: usize,
    /// Partition-window seeds swept (scenario grid = seeds × crash).
    pub n_seeds: usize,
    /// Minimum acceptable fleet completion rate under partitions.
    pub availability_floor: f64,
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
            },
            partition_seed: 41,
            n_windows: 3,
            n_seeds: 2,
            availability_floor: 0.5,
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
            },
            partition_seed: 41,
            n_windows: 4,
            n_seeds: 3,
            availability_floor: 0.5,
        }
    }

    fn flags(&mut self, f: &mut Flags<'_>) {
        f.nested("fleet", &mut self.fleet);
        f.field("partition-seed", &mut self.partition_seed);
        f.field("windows", &mut self.n_windows);
        f.field("seeds", &mut self.n_seeds);
        f.field("availability-floor", &mut self.availability_floor);
    }

    /// Runs the full partition soak: the scenario grid with
    /// per-scenario invariant checks, a determinism replay of the first
    /// scenario, and the aggregated byte-stable report.
    fn run(&self) -> Run<PartitionReport> {
        let mut run = Run {
            report: PartitionReport { min_completion_millis: 1000, ..Default::default() },
            ..Default::default()
        };
        for (i, (seed, lost_pod)) in self.scenarios().into_iter().enumerate() {
            let found = run_scenario(self, seed, lost_pod, i == 0, &mut run);
            run.violations.within(&scenario_name(seed, lost_pod), found);
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
    /// Worst per-scenario `accepted / placed`, in thousandths (the
    /// availability floor is checked against this).
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

/// Executes one scenario of the grid, unchecked: its arrival trace,
/// its outcome and the coordinator's durable journal records.
fn execute_scenario(
    spec: &PartitionSoakSpec,
    seed: u64,
    lost_pod: Option<usize>,
) -> (Vec<JobSpec<Bn254G1>>, FleetOutcome<Bn254G1>, Vec<Record>) {
    let fleet_spec = FleetSoakSpec { lost_pod, ..spec.fleet };
    let jobs = fleet_soak::build_fleet_jobs(&fleet_spec);
    let mut chaos = fleet_soak::build_fleet_chaos(&fleet_spec);
    chaos.partitions = PartitionSchedule::random(
        seed,
        spec.n_windows,
        fleet_spec.n_pods,
        fleet_spec.horizon_s,
    );
    let mut coordinator = FleetCoordinator::new(fleet_soak::fleet_config(&fleet_spec));
    let outcome = coordinator.run(jobs.clone(), &chaos);
    let records = coordinator
        .durable()
        .journal
        .replay()
        .expect("the live coordinator journal is intact");
    (jobs, outcome, records)
}

/// Runs and checks one scenario of the grid: counters into
/// `run.report`, violations returned (the caller names the scenario).
fn run_scenario(
    spec: &PartitionSoakSpec,
    seed: u64,
    lost_pod: Option<usize>,
    replay: bool,
    run: &mut Run<PartitionReport>,
) -> Violations {
    let mut found = Violations::default();
    let v = &mut found;
    let (jobs, outcome, records) = execute_scenario(spec, seed, lost_pod);
    let report = &mut run.report;
    run.n_events += outcome.events.len() + outcome.pod_events.len();
    report.scenarios += 1;
    report.windows += spec.n_windows;
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

    let by_id = by_id(&jobs);
    let accepted = outcome.accepted.iter();
    unique_from_trace(v, "partition-exactly-once", &by_id, accepted.clone().map(|a| a.id));
    bit_exact(v, "partition-bit-exact", &by_id, accepted.map(|a| (a.id, &a.result)));

    // partition-fencing-fold + partition-replay: the durable journal
    // folds cleanly, twice, to the same bytes.
    let fold = |pass: usize| -> Result<Vec<u8>, String> {
        let mut st = FleetState::new(&spec.fleet.n_pods);
        for r in &records {
            let rec = FleetRecord::from_bytes(&r.payload)
                .map_err(|err| format!("journal epoch {} undecodable: {err:?}", r.epoch))?;
            st.apply(r.epoch, &rec, &spec.fleet.n_pods).map_err(|err| {
                format!("fold rejected journal epoch {} on pass {pass}: {err:?}", r.epoch)
            })?;
        }
        Ok(st.to_bytes())
    };
    match fold(0).and_then(|first| Ok((fold(1)?, first))) {
        Err(detail) => v.fail("partition-fencing-fold", detail),
        Ok((second, first)) => {
            if first != second {
                v.fail("partition-replay", "two folds of the same journal diverged".into());
            }
            // partition-rejoin: every window heals by the horizon and
            // the membership clock outlives lease + grace past the last
            // heal, so no pod may end the run still fenced.
            let final_state = FleetState::from_bytes(&first).expect("fold output re-decodes");
            for (p, _) in final_state.fenced.iter().enumerate().filter(|(_, fenced)| **fenced) {
                v.fail("partition-rejoin", format!("pod {p} ended the run fenced (never rejoined)"));
            }
        }
    }

    // partition-availability: the floor holds against what was placed.
    let rate = match outcome.report.placed {
        0 => 1.0,
        placed => outcome.report.accepted as f64 / placed as f64,
    };
    report.min_completion_millis = report.min_completion_millis.min((rate * 1000.0).round() as u64);
    if rate < spec.availability_floor {
        v.fail(
            "partition-availability",
            format!(
                "accepted/placed {rate:.3} fell below the floor {:.3}",
                spec.availability_floor
            ),
        );
    }

    // partition-determinism: the scenario replays to the identical
    // event stream and report.
    if replay && signature(&execute_scenario(spec, seed, lost_pod).1) != signature(&outcome) {
        v.fail("partition-determinism", "two runs of the same scenario diverged".into());
    }
    found
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn tiny() -> PartitionSoakSpec {
        PartitionSoakSpec {
            fleet: FleetSoakSpec {
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
            partition_seed: 41,
            n_windows: 2,
            n_seeds: 2,
            availability_floor: 0.3,
        }
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

    #[test]
    fn concurrent_pod_loss_arm_still_holds_exactly_once() {
        let spec = PartitionSoakSpec {
            fleet: FleetSoakSpec { lost_pod: Some(1), ..tiny().fleet },
            availability_floor: 0.2,
            ..tiny()
        };
        let out = spec.run();
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert_eq!(out.report.scenarios, 4, "each seed runs a crash arm too");
    }

    #[test]
    fn availability_floor_between_the_true_rate_and_one_fires() {
        let smoke = PartitionSoakSpec::smoke();
        let spec = PartitionSoakSpec {
            fleet: FleetSoakSpec { n_jobs: 80, n_tenants: 16, msm_size: 8, ..smoke.fleet },
            n_seeds: 1,
            availability_floor: 0.995,
            ..smoke
        };
        let out = spec.run();
        // Arrivals at a partitioned pod are re-placed, never re-admitted:
        // against `admitted` every rate was > 1 and this could not fire.
        assert!(out.report.accepted > out.report.admitted, "{:?}", out.report);
        let worst = out.report.min_completion_millis;
        assert!((900..995).contains(&worst), "accepted/placed is a real rate: {worst}");
        let fired: Vec<_> =
            out.violations.iter().filter(|v| v.invariant == "partition-availability").collect();
        assert_eq!(fired.len(), 1, "only the lost-pod arm drops jobs: {:#?}", out.violations);
        assert!(fired[0].detail.starts_with("scenario(seed=41, lost_pod=2): "), "{fired:?}");
    }

    #[test]
    fn cli_round_trips_through_from_args_with_the_fleet_base() {
        let perturbed = PartitionSoakSpec { n_windows: 5, availability_floor: 0.1 + 0.2, ..tiny() };
        for spec in [PartitionSoakSpec::smoke(), PartitionSoakSpec::full(), perturbed] {
            let cli = spec.cli();
            assert!(cli.contains("--fleet-jobs") && cli.contains("--windows"), "{cli}");
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
            static RECORDS: std::sync::OnceLock<Vec<distmsm_journal::Record>> =
                std::sync::OnceLock::new();
            let spec = tiny();
            let records =
                RECORDS.get_or_init(|| execute_scenario(&spec, spec.partition_seed, None).2);
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
