//! Partition-tolerance checker: replays the leased, epoch-fenced
//! fleet's durable journal against the fencing rules the partition
//! soak relies on.
//!
//! The fleet coordinator journals every placement, hand-off, fence,
//! rejoin and acceptance with the fencing epoch of the pod involved
//! (see `distmsm-fleet`'s `wal`). This module grounds the fencing
//! contract independently of the coordinator's own fold, the same way
//! [`crate::ckpt`] grounds the service WAL:
//!
//! * **PART-001 — fencing monotonicity replay.** An independent
//!   epoch automaton (re-derived here, not the shipped
//!   [`FleetState`] fold) replays the journal: every fence must
//!   advance its pod's epoch by exactly one, epochs never regress,
//!   and every placement, steal, re-placement and acceptance must be
//!   stamped with the live epoch of a pod that is not behind a
//!   fence. The shipped fold must accept the same journal — the two
//!   implementations agreeing is the check.
//! * **PART-002 — rejoin idempotence.** Folding any prefix that ends
//!   at an anti-entropy rejoin twice yields byte-identical states,
//!   the rejoin clears the fence and re-stamps the pod's surviving
//!   jobs to the new epoch, and re-applying the same rejoin record a
//!   second time is refused — rejoin is exactly-once, not
//!   at-least-once.
//! * **PART-003 — no completion from an expired lease.** Between a
//!   pod's `Fenced` record and its matching `Rejoined`, the journal
//!   must contain no acceptance on that pod, and every acceptance
//!   anywhere must carry the accepting pod's live epoch — a zombie
//!   completion that raced the fence can never land.
//! * **PART-900 — fencing mutant corpus.** Seeded corruptions the
//!   fold MUST refuse: an acceptance stamped with a pre-fence epoch
//!   (stale-epoch acceptance), a rejoin without a fence (a lease
//!   renewed after expiry), a second hand-off of a job its source no
//!   longer owns (double absorb on heal), and a fence that skips an
//!   epoch. A mutant that survives means fencing is decorative.
//!
//! [`FleetState`]: distmsm_fleet::FleetState

use crate::report::{Finding, Report, Severity};
use distmsm_fleet::soak::execute;
use distmsm_fleet::{FleetRecord, FleetSoakSpec, FleetState, LEASED_FENCED_FLEET};
use distmsm_journal::{decode_records, Fold, Wire};

/// Runs one fleet soak spec and returns its decoded coordinator journal
/// as `(journal epoch, record)` pairs — the coordinator journal never
/// compacts, so epochs are 1, 2, ….
fn journal(spec: &FleetSoakSpec) -> Vec<(u64, FleetRecord)> {
    let durable = execute(spec).3;
    let records = decode_records::<FleetRecord>(&durable)
        .expect("the live coordinator journal is intact and decodes");
    (1u64..).zip(records).collect()
}

/// The independent fencing automaton PART-001 replays: per-pod epoch
/// and fence flag, advanced record by record with every violation
/// reported rather than folded.
struct EpochAutomaton {
    epochs: Vec<u64>,
    fenced: Vec<bool>,
}

impl EpochAutomaton {
    fn new(n_pods: usize) -> Self {
        Self { epochs: vec![1; n_pods], fenced: vec![false; n_pods] }
    }

    /// Advances over one record; returns the rule violations it sees.
    fn step(&mut self, journal_epoch: u64, rec: &FleetRecord) -> Vec<String> {
        let mut bad = Vec::new();
        let mut stamped = |pod: usize, stamp: u64, what: &str, this: &Self| {
            if this.fenced[pod] {
                bad.push(format!(
                    "record {journal_epoch}: {what} on pod {pod} while it is fenced"
                ));
            }
            if stamp != this.epochs[pod] {
                bad.push(format!(
                    "record {journal_epoch}: {what} stamped epoch {stamp} but pod {pod} is \
                     at epoch {}",
                    this.epochs[pod]
                ));
            }
        };
        match rec {
            FleetRecord::Placed { pod, epoch, .. } => stamped(*pod, *epoch, "placement", self),
            FleetRecord::Stolen { to, epoch, .. } | FleetRecord::Replaced { to, epoch, .. } => {
                stamped(*to, *epoch, "hand-off", self);
            }
            FleetRecord::Accepted { pod, epoch, .. } => {
                stamped(*pod, *epoch, "acceptance", self);
            }
            FleetRecord::Fenced { pod, epoch, .. } => {
                if self.fenced[*pod] {
                    bad.push(format!("record {journal_epoch}: pod {pod} fenced twice"));
                }
                if *epoch != self.epochs[*pod] + 1 {
                    bad.push(format!(
                        "record {journal_epoch}: fence advances pod {pod} to epoch {epoch}, \
                         expected {} (monotone +1)",
                        self.epochs[*pod] + 1
                    ));
                }
                self.epochs[*pod] = (*epoch).max(self.epochs[*pod]);
                self.fenced[*pod] = true;
            }
            FleetRecord::Rejoined { pod, epoch, .. } => {
                if !self.fenced[*pod] {
                    bad.push(format!(
                        "record {journal_epoch}: pod {pod} rejoined without a fence"
                    ));
                }
                if *epoch != self.epochs[*pod] {
                    bad.push(format!(
                        "record {journal_epoch}: rejoin stamped epoch {epoch} but pod {pod} \
                         is at epoch {}",
                        self.epochs[*pod]
                    ));
                }
                self.fenced[*pod] = false;
            }
            FleetRecord::Discarded { pod, epoch, id, .. } => {
                if *epoch >= self.epochs[*pod] {
                    bad.push(format!(
                        "record {journal_epoch}: discard of job {id} stamped epoch {epoch}, \
                         not below pod {pod}'s epoch {}",
                        self.epochs[*pod]
                    ));
                }
            }
            FleetRecord::Detected { .. } | FleetRecord::Quarantined { .. } => {}
        }
        bad
    }
}

/// PART-001: replay the journal through the independent epoch
/// automaton and the shipped fold; both must accept every record, and
/// the scenario must actually fence (otherwise nothing was tested).
pub fn check_fencing_monotonicity(
    scenario: &str,
    records: &[(u64, FleetRecord)],
    n_pods: usize,
) -> Report {
    let mut report = Report::new();
    let mut automaton = EpochAutomaton::new(n_pods);
    let mut fold = FleetState::new(&n_pods);
    let mut fences = 0u64;
    for (epoch, rec) in records {
        if matches!(rec, FleetRecord::Fenced { .. }) {
            fences += 1;
        }
        for detail in automaton.step(*epoch, rec) {
            report.push(Finding::new(
                "PART-001",
                Severity::Error,
                scenario.to_owned(),
                detail,
            ));
        }
        if let Err(e) = fold.apply(*epoch, rec, &n_pods) {
            report.push(Finding::new(
                "PART-001",
                Severity::Error,
                scenario.to_owned(),
                format!("shipped fold rejected a live journal record: {e}"),
            ));
            return report;
        }
    }
    if automaton.epochs != fold.pod_epochs || automaton.fenced != fold.fenced {
        report.push(Finding::new(
            "PART-001",
            Severity::Error,
            scenario.to_owned(),
            format!(
                "independent automaton ({:?}, fenced {:?}) disagrees with the shipped fold \
                 ({:?}, fenced {:?})",
                automaton.epochs, automaton.fenced, fold.pod_epochs, fold.fenced
            ),
        ));
    }
    if fences == 0 {
        report.push(Finding::new(
            "PART-001",
            Severity::Error,
            scenario.to_owned(),
            "scenario journal contains no fence — the partition windows never bit".to_owned(),
        ));
    }
    report.push(Finding::new(
        "PART-001",
        Severity::Info,
        scenario.to_owned(),
        format!(
            "{} record(s) replay fencing-monotone through both implementations \
             ({fences} fence(s), final epochs {:?})",
            records.len(),
            fold.pod_epochs
        ),
    ));
    report
}

fn fold_prefix(records: &[(u64, FleetRecord)], n_pods: usize) -> Result<FleetState, String> {
    let mut st = FleetState::new(&n_pods);
    for (epoch, rec) in records {
        st.apply(*epoch, rec, &n_pods).map_err(|e| format!("record {epoch}: {e}"))?;
    }
    Ok(st)
}

/// PART-002: every rejoin-terminated prefix folds twice to the same
/// bytes, clears the fence, re-stamps the pod's surviving jobs, and
/// refuses a duplicated rejoin.
pub fn check_rejoin_idempotence(
    scenario: &str,
    records: &[(u64, FleetRecord)],
    n_pods: usize,
) -> Report {
    let mut report = Report::new();
    let mut rejoins = 0usize;
    for (i, (epoch, rec)) in records.iter().enumerate() {
        let FleetRecord::Rejoined { pod, epoch: stamp, .. } = rec else { continue };
        rejoins += 1;
        let prefix = &records[..=i];
        let (first, second) = match (fold_prefix(prefix, n_pods), fold_prefix(prefix, n_pods)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                report.push(Finding::new(
                    "PART-002",
                    Severity::Error,
                    scenario.to_owned(),
                    format!("rejoin prefix ending at record {epoch} failed to fold: {e}"),
                ));
                continue;
            }
        };
        if first.to_bytes() != second.to_bytes() {
            report.push(Finding::new(
                "PART-002",
                Severity::Error,
                scenario.to_owned(),
                format!(
                    "two folds of the rejoin prefix ending at record {epoch} diverged — \
                     anti-entropy rejoin is not replayable"
                ),
            ));
        }
        if first.fenced[*pod] {
            report.push(Finding::new(
                "PART-002",
                Severity::Error,
                scenario.to_owned(),
                format!("record {epoch}: pod {pod} is still fenced after its rejoin"),
            ));
        }
        for (id, owner) in &first.placed_on {
            if owner == pod && first.placed_epoch.get(id) != Some(stamp) {
                report.push(Finding::new(
                    "PART-002",
                    Severity::Error,
                    scenario.to_owned(),
                    format!(
                        "record {epoch}: job {id} survived pod {pod}'s fence but was not \
                         re-stamped to epoch {stamp}"
                    ),
                ));
            }
        }
        let mut replayed = first.clone();
        if replayed.apply(*epoch, rec, &n_pods).is_ok() {
            report.push(Finding::new(
                "PART-002",
                Severity::Error,
                scenario.to_owned(),
                format!(
                    "record {epoch}: pod {pod}'s rejoin applied twice — rejoin must be \
                     exactly-once"
                ),
            ));
        }
    }
    if rejoins == 0 {
        report.push(Finding::new(
            "PART-002",
            Severity::Error,
            scenario.to_owned(),
            "scenario journal contains no rejoin — anti-entropy was never exercised".to_owned(),
        ));
    }
    report.push(Finding::new(
        "PART-002",
        Severity::Info,
        scenario.to_owned(),
        format!("{rejoins} rejoin prefix(es) fold idempotent and refuse double application"),
    ));
    report
}

/// PART-003: no acceptance lands on a pod between its fence and its
/// rejoin, and every acceptance carries its pod's live epoch.
pub fn check_no_expired_acceptance(
    scenario: &str,
    records: &[(u64, FleetRecord)],
    n_pods: usize,
) -> Report {
    let mut report = Report::new();
    let mut epochs = vec![1u64; n_pods];
    let mut fenced = vec![false; n_pods];
    let mut acceptances = 0usize;
    let mut fences = 0usize;
    for (journal_epoch, rec) in records {
        match rec {
            FleetRecord::Fenced { pod, epoch, .. } => {
                fenced[*pod] = true;
                epochs[*pod] = *epoch;
                fences += 1;
            }
            FleetRecord::Rejoined { pod, .. } => fenced[*pod] = false,
            FleetRecord::Accepted { id, pod, epoch, .. } => {
                acceptances += 1;
                if fenced[*pod] {
                    report.push(Finding::new(
                        "PART-003",
                        Severity::Error,
                        scenario.to_owned(),
                        format!(
                            "record {journal_epoch}: job {id} accepted on pod {pod} while its \
                             lease was expired (between fence and rejoin)"
                        ),
                    ));
                }
                if *epoch != epochs[*pod] {
                    report.push(Finding::new(
                        "PART-003",
                        Severity::Error,
                        scenario.to_owned(),
                        format!(
                            "record {journal_epoch}: job {id} accepted with epoch {epoch} but \
                             pod {pod} holds epoch {}",
                            epochs[*pod]
                        ),
                    ));
                }
            }
            _ => {}
        }
    }
    report.push(Finding::new(
        "PART-003",
        Severity::Info,
        scenario.to_owned(),
        format!(
            "{acceptances} acceptance(s) checked across {fences} fence(s) — none from an \
             expired lease"
        ),
    ));
    report
}

/// Expects the fold to refuse `rec` with an error mentioning `want`.
fn expect_refusal(
    st: &mut FleetState,
    epoch: u64,
    rec: &FleetRecord,
    want: &str,
) -> Result<(), String> {
    match st.apply(epoch, rec, &3) {
        Err(e) => {
            let msg = e.to_string();
            if msg.contains(want) {
                Ok(())
            } else {
                Err(format!("wrong error (want `{want}`): {msg}"))
            }
        }
        Ok(()) => Err(format!("fold accepted the corrupt record (want `{want}`)")),
    }
}

/// PART-900: the fencing mutant corpus. Every corruption must be
/// refused by the shipped fold with the right diagnostic.
pub fn check_fencing_mutants(scenario: &str) -> Report {
    let mut report = Report::new();

    // Stale-epoch acceptance: pod 0 fences (epoch 2) and rejoins, then
    // a completion stamped with the pre-fence epoch 1 surfaces.
    let mut st = FleetState::new(&3);
    st.apply(1, &FleetRecord::Placed { t_s: 0.0, id: 7, pod: 0, epoch: 1 }, &3).expect("placement");
    st.apply(2, &FleetRecord::Fenced { t_s: 10.0, pod: 0, epoch: 2 }, &3).expect("fence");
    st.apply(3, &FleetRecord::Rejoined { t_s: 20.0, pod: 0, epoch: 2 }, &3).expect("rejoin");
    report.mutant(
        "PART-900",
        "the fold",
        scenario,
        "stale-epoch-acceptance",
        expect_refusal(
            &mut st,
            4,
            &FleetRecord::Accepted {
                t_s: 21.0,
                id: 7,
                tenant: 0,
                pod: 0,
                attempts: 1,
                epoch: 1,
                result: Vec::new(),
            },
            "stamped epoch 1 but pod 0 is at epoch 2",
        ),
    );

    // Lease renewed after expiry: a rejoin arrives for a pod that was
    // never fenced — the lease table claims an expiry the journal
    // never recorded.
    let mut st = FleetState::new(&3);
    report.mutant(
        "PART-900",
        "the fold",
        scenario,
        "lease-renew-after-expiry",
        expect_refusal(
            &mut st,
            1,
            &FleetRecord::Rejoined { t_s: 5.0, pod: 1, epoch: 1 },
            "rejoined without a fence",
        ),
    );

    // Double absorb on heal: the same job is handed off from its old
    // owner twice — the second steal names a source that no longer
    // owns it.
    let mut st = FleetState::new(&3);
    st.apply(1, &FleetRecord::Placed { t_s: 0.0, id: 9, pod: 0, epoch: 1 }, &3).expect("placement");
    st.apply(2, &FleetRecord::Stolen { t_s: 1.0, id: 9, from: 0, to: 1, epoch: 1 }, &3)
        .expect("first steal");
    report.mutant(
        "PART-900",
        "the fold",
        scenario,
        "double-absorb-on-heal",
        expect_refusal(
            &mut st,
            3,
            &FleetRecord::Stolen { t_s: 2.0, id: 9, from: 0, to: 2, epoch: 1 },
            "pod 1 owns it",
        ),
    );

    // Fence-epoch skip: a fence that advances by two forges history —
    // an unjournaled fence would hide a whole fenced window.
    let mut st = FleetState::new(&3);
    report.mutant(
        "PART-900",
        "the fold",
        scenario,
        "fence-epoch-skip",
        expect_refusal(
            &mut st,
            1,
            &FleetRecord::Fenced { t_s: 3.0, pod: 2, epoch: 3 },
            "expected 2",
        ),
    );

    report
}

/// Runs the partition-tolerance checker end to end: journal the
/// leased, fenced fleet ([`LEASED_FENCED_FLEET`]), then probe fencing
/// monotonicity (PART-001), rejoin idempotence (PART-002),
/// no-completion-from-expired-lease (PART-003) and the fencing mutant
/// corpus (PART-900).
pub fn check_part() -> Report {
    const SCENARIO: &str = "leased-fenced-fleet";
    let spec = LEASED_FENCED_FLEET;
    let mut report = Report::new();
    let records = journal(&spec);
    report.push(Finding::new(
        "PART-000",
        Severity::Info,
        SCENARIO.to_owned(),
        format!(
            "journaled {} record(s) from a {}-pod fleet under {} partition window(s) (seed {})",
            records.len(),
            spec.n_pods,
            spec.n_partition_windows,
            spec.partition_seed
        ),
    ));
    if records.is_empty() {
        report.push(Finding::new(
            "PART-000",
            Severity::Error,
            SCENARIO.to_owned(),
            "scenario journaled no records — the fleet WAL went silent".to_owned(),
        ));
        return report;
    }
    report.extend(check_fencing_monotonicity(SCENARIO, &records, spec.n_pods));
    report.extend(check_rejoin_idempotence(SCENARIO, &records, spec.n_pods));
    report.extend(check_no_expired_acceptance(SCENARIO, &records, spec.n_pods));
    report.extend(check_fencing_mutants(SCENARIO));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_scenario_raises_no_actionable_findings() {
        let report = check_part();
        assert_eq!(
            report.actionable(),
            0,
            "clean partitioned scenario must pass every PART rule:\n{}",
            report.render_text()
        );
        for rule in ["PART-000", "PART-001", "PART-002", "PART-003", "PART-900"] {
            assert!(
                report.render_text().contains(rule),
                "missing {rule} in:\n{}",
                report.render_text()
            );
        }
    }

    #[test]
    fn every_fencing_mutant_is_caught() {
        let report = check_fencing_mutants("test");
        assert_eq!(report.actionable(), 0, "{}", report.render_text());
        let text = report.render_text();
        for name in [
            "stale-epoch-acceptance",
            "lease-renew-after-expiry",
            "double-absorb-on-heal",
            "fence-epoch-skip",
        ] {
            assert!(text.contains(&format!("mutant `{name}` caught")), "{text}");
        }
    }

    #[test]
    fn zombie_acceptance_trips_the_expired_lease_rule() {
        let (mut records, n_pods) = (journal(&LEASED_FENCED_FLEET), LEASED_FENCED_FLEET.n_pods);
        // Sabotage: append an acceptance on a pod frozen mid-fence.
        let fence_at = records
            .iter()
            .position(|(_, r)| matches!(r, FleetRecord::Fenced { .. }))
            .expect("scenario fences at least once");
        let (_, FleetRecord::Fenced { pod, .. }) = records[fence_at] else { unreachable!() };
        let next_epoch = records.last().expect("non-empty").0 + 1;
        records.insert(
            fence_at + 1,
            (
                next_epoch,
                FleetRecord::Accepted {
                    t_s: 1.0e6,
                    id: 999_999,
                    tenant: 0,
                    pod,
                    attempts: 1,
                    epoch: 1,
                    result: Vec::new(),
                },
            ),
        );
        let report = check_no_expired_acceptance("test", &records, n_pods);
        assert!(
            report.actionable() > 0,
            "a zombie acceptance inside a fenced window must trip PART-003:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn epoch_regression_trips_the_monotonicity_rule() {
        let (mut records, n_pods) = (journal(&LEASED_FENCED_FLEET), LEASED_FENCED_FLEET.n_pods);
        let fence_at = records
            .iter()
            .position(|(_, r)| matches!(r, FleetRecord::Fenced { .. }))
            .expect("scenario fences at least once");
        // Sabotage: the fence now claims the same epoch it already had.
        if let (_, FleetRecord::Fenced { epoch, .. }) = &mut records[fence_at] {
            *epoch -= 1;
        }
        let report = check_fencing_monotonicity("test", &records, n_pods);
        assert!(
            report.actionable() > 0,
            "a non-advancing fence must trip PART-001:\n{}",
            report.render_text()
        );
    }
}
