//! Crash-consistency checker: replays the journaled service front-end's
//! write-ahead log against the recovery rules the crash soak relies on.
//!
//! The service (and, through the same `distmsm-journal` frames, the
//! fleet) journals every externally visible decision and periodically
//! installs snapshots so recovery is *snapshot + bounded replay*. This
//! module grounds that contract independently of the service's own
//! recovery path, the same way `svc` re-derives the accounting rules
//! from raw event streams:
//!
//! * **CKPT-001 — replay idempotence.** For any durable prefix,
//!   recovering from the newest snapshot plus the record tail must
//!   produce the byte-identical [`ServiceState`] as stripping the
//!   snapshots and replaying the full journal from record 1 — and
//!   recovering the same prefix twice must agree with itself. A
//!   divergence means snapshots and replay disagree about history.
//! * **CKPT-002 — exactly-once across restart.** Restoring from a
//!   record-boundary kill point and draining to completion must leave
//!   the *merged* pre-crash + post-crash event stream conserving
//!   admitted jobs (every admitted id terminates exactly once — the
//!   `SVC-001` rule applied across the crash), and no job that was
//!   terminal before the crash may be resurrected after it.
//! * **CKPT-003 — torn-tail rejection.** A mid-frame cut (torn write)
//!   must be *tolerated and reported* by crash recovery
//!   ([`DurableState::recover`] drops the tail and counts its bytes)
//!   while the strict integrity decode ([`Journal::replay`]) must
//!   refuse it with [`JournalError::TornTail`]; a complete-but-corrupt
//!   interior frame must be a hard [`JournalError::CrcMismatch`] on
//!   both paths, never silently dropped.
//! * **CKPT-900 — journal mutant corpus.** Seeded corruptions that the
//!   recovery path MUST catch: a dropped interior record
//!   (`MissingRecord`), a duplicated record (`DuplicateRecord`), a
//!   stale-epoch snapshot left behind by compaction (`StaleSnapshot`),
//!   and a CRC-skipped corrupt tail — where checked recovery must
//!   refuse the frame while [`DurableState::recover_unchecked`]
//!   accepts it, proving the CRC (not luck) is what catches the
//!   corruption. A mutant that survives means the journal's integrity
//!   checking is decorative.
//!
//! [`ServiceState`]: distmsm_service::wal::ServiceState
//! [`Journal::replay`]: distmsm_journal::Journal::replay

use crate::report::{Finding, Report, Severity};
use crate::svc::check_conservation;
use distmsm_journal::{DurableState, JournalError, Wire, FRAME_HEADER_LEN};
use distmsm_service::service::{ServiceEvent, ServiceEventKind};
use distmsm_service::soak::{build_chaos, build_jobs, service_config, SoakSpec};
use distmsm_service::wal::{decode_events, recover_state};
use distmsm_service::{ChaosSchedule, JobSpec, ProverService, ServiceConfig};
use distmsm_ec::curves::Bn254G1;

/// The seeded scenario the checker journals and crashes: a chaotic
/// pool with device and link faults, so the journal carries requeues,
/// breaker transitions and degraded dispatches — not just the happy
/// path.
pub const CKPT_SCENARIO: (&str, SoakSpec) = (
    "journaled-chaotic-pool",
    SoakSpec {
        arrival_seed: 404,
        fault_seed: 29,
        n_jobs: 20,
        n_fault_windows: 4,
        n_link_windows: 1,
        horizon_s: 110.0,
        n_devices: 4,
        msm_size: 24,
        always_faulty: Some(2),
    },
);

/// Snapshot cadence of the checker's scenario. Small enough that the
/// soak installs several snapshots (CKPT-001 and the stale-snapshot
/// mutant both need at least one), large enough that kill points land
/// between snapshots and exercise tail replay.
pub const CKPT_SNAPSHOT_EVERY: u64 = 8;

fn ckpt_service_config(spec: &SoakSpec) -> ServiceConfig {
    let mut config = service_config(spec);
    config.snapshot_every = CKPT_SNAPSHOT_EVERY;
    config
}

/// Record-boundary kill points for a journal of `n` records: three
/// prefixes spread over the run plus the full journal.
fn kill_points(n: usize) -> Vec<usize> {
    let mut ks: Vec<usize> = [n / 4, n / 2, (3 * n) / 4, n]
        .into_iter()
        .filter(|&k| k > 0)
        .collect();
    ks.dedup();
    ks
}

/// CKPT-001: snapshot + tail recovery must equal full-journal replay,
/// byte for byte, at every probed prefix — and recovery must be a pure
/// function of the durable bytes (recovering twice agrees).
pub fn check_replay_idempotence(
    scenario: &str,
    durable: &DurableState,
    config: &ServiceConfig,
) -> Report {
    let mut report = Report::new();
    let n = durable.journal.n_records();
    let mut probed = 0usize;
    for k in kill_points(n) {
        let cut = durable.truncate_records(k);
        let via_snapshot = match recover_state(&cut, &config.shape()) {
            Ok(r) => r,
            Err(e) => {
                report.push(Finding::new(
                    "CKPT-001",
                    Severity::Error,
                    scenario.to_owned(),
                    format!("prefix of {k} record(s) failed to recover: {e}"),
                ));
                continue;
            }
        };
        let mut stripped = cut.clone();
        stripped.set_snapshot_bytes(Vec::new());
        let via_replay = match recover_state(&stripped, &config.shape()) {
            Ok(r) => r,
            Err(e) => {
                report.push(Finding::new(
                    "CKPT-001",
                    Severity::Error,
                    scenario.to_owned(),
                    format!("prefix of {k} record(s) failed snapshot-stripped full replay: {e}"),
                ));
                continue;
            }
        };
        if via_snapshot.state.to_bytes() != via_replay.state.to_bytes() {
            report.push(Finding::new(
                "CKPT-001",
                Severity::Error,
                scenario.to_owned(),
                format!(
                    "prefix of {k} record(s): snapshot(epoch {}) + {}-record tail diverges \
                     from full replay — snapshots rewrite history",
                    via_snapshot.snapshot_epoch, via_snapshot.replayed_records
                ),
            ));
        }
        let again = recover_state(&cut, &config.shape())
            .expect("second recovery of an already-recovered prefix");
        if via_snapshot.state.to_bytes() != again.state.to_bytes() {
            report.push(Finding::new(
                "CKPT-001",
                Severity::Error,
                scenario.to_owned(),
                format!("prefix of {k} record(s): two recoveries of the same bytes diverged"),
            ));
        }
        probed += 1;
    }
    report.push(Finding::new(
        "CKPT-001",
        Severity::Info,
        scenario.to_owned(),
        format!("{probed} durable prefix(es) of a {n}-record journal replay-idempotent"),
    ));
    report
}

fn terminal_ids(events: &[ServiceEvent]) -> std::collections::BTreeSet<u64> {
    events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                ServiceEventKind::Completed { .. }
                    | ServiceEventKind::Failed { .. }
                    | ServiceEventKind::Shed { .. }
                    | ServiceEventKind::Rejected { .. }
            )
        })
        .filter_map(|e| e.job)
        .collect()
}

/// CKPT-002: restore from each kill point, drain, and check the merged
/// pre + post event stream for conservation (`SVC-001` across the
/// crash) and no resurrection of pre-crash-terminal jobs.
pub fn check_exactly_once(
    scenario: &str,
    durable: &DurableState,
    config: &ServiceConfig,
    jobs: &[JobSpec<Bn254G1>],
    chaos: &ChaosSchedule,
) -> Report {
    let mut report = Report::new();
    let n = durable.journal.n_records();
    let mut restarts = 0usize;
    for k in kill_points(n) {
        let cut = durable.truncate_records(k);
        let pre = match decode_events(&cut) {
            Ok(events) => events,
            Err(e) => {
                report.push(Finding::new(
                    "CKPT-002",
                    Severity::Error,
                    scenario.to_owned(),
                    format!("kill at record {k}/{n}: pre-crash events undecodable: {e}"),
                ));
                continue;
            }
        };
        let terminal = terminal_ids(&pre);
        let (mut svc, _info) = match ProverService::restore(config.clone(), jobs, &cut) {
            Ok(r) => r,
            Err(e) => {
                report.push(Finding::new(
                    "CKPT-002",
                    Severity::Error,
                    scenario.to_owned(),
                    format!("kill at record {k}/{n}: restore failed: {e}"),
                ));
                continue;
            }
        };
        while svc.step(chaos) {}
        let outcome = svc.finish();
        for ev in &outcome.events {
            let Some(id) = ev.job else { continue };
            if terminal.contains(&id)
                && matches!(
                    ev.kind,
                    ServiceEventKind::Admitted { .. }
                        | ServiceEventKind::Dispatched { .. }
                        | ServiceEventKind::Completed { .. }
                        | ServiceEventKind::Failed { .. }
                        | ServiceEventKind::Shed { .. }
                )
            {
                report.push(Finding::new(
                    "CKPT-002",
                    Severity::Error,
                    scenario.to_owned(),
                    format!(
                        "kill at record {k}/{n}: job {id} was terminal before the crash but \
                         was resurrected after restore ({:?})",
                        ev.kind
                    ),
                ));
            }
        }
        let mut merged = pre;
        merged.extend(outcome.events.iter().cloned());
        let conservation = check_conservation(scenario, &merged);
        if conservation.actionable() > 0 {
            report.push(Finding::new(
                "CKPT-002",
                Severity::Error,
                scenario.to_owned(),
                format!(
                    "kill at record {k}/{n}: merged pre+post stream breaks conservation \
                     ({} finding(s))",
                    conservation.actionable()
                ),
            ));
            report.extend(conservation);
        }
        restarts += 1;
    }
    report.push(Finding::new(
        "CKPT-002",
        Severity::Info,
        scenario.to_owned(),
        format!("{restarts} restart(s) swept — exactly-once termination held across each"),
    ));
    report
}

/// CKPT-003: a torn tail is tolerated-and-reported by crash recovery,
/// refused by the strict decode; a corrupt interior frame is refused
/// by both.
pub fn check_torn_tail(scenario: &str, durable: &DurableState) -> Report {
    let mut report = Report::new();
    let spans = durable.journal.frame_spans();
    let n = spans.len();
    if n < 2 {
        report.push(Finding::new(
            "CKPT-003",
            Severity::Error,
            scenario.to_owned(),
            format!("scenario journal has only {n} frame(s) — cannot probe torn tails"),
        ));
        return report;
    }

    // Torn write: cut mid-way through an interior frame.
    let (offset, len) = spans[n / 2];
    let torn = durable.truncate_bytes(offset + len / 2);
    match torn.journal.replay() {
        Err(JournalError::TornTail { remaining, .. }) if remaining > 0 => {}
        other => {
            report.push(Finding::new(
                "CKPT-003",
                Severity::Error,
                scenario.to_owned(),
                format!(
                    "strict replay accepted a mid-frame cut (want TornTail, got {:?})",
                    other.map(|r| r.len())
                ),
            ));
        }
    }
    match torn.recover() {
        Ok(rec) if rec.torn_tail_bytes > 0 => {}
        Ok(_) => {
            report.push(Finding::new(
                "CKPT-003",
                Severity::Error,
                scenario.to_owned(),
                "crash recovery of a mid-frame cut reported zero torn-tail bytes".to_owned(),
            ));
        }
        Err(e) => {
            report.push(Finding::new(
                "CKPT-003",
                Severity::Error,
                scenario.to_owned(),
                format!("crash recovery must tolerate a torn tail, but errored: {e}"),
            ));
        }
    }

    // Interior corruption: flip a payload byte of a complete frame.
    let mut corrupt = durable.clone();
    corrupt.journal_bytes_mut()[offset + FRAME_HEADER_LEN] ^= 0x01;
    match corrupt.recover() {
        Err(JournalError::CrcMismatch { .. }) => {}
        other => {
            report.push(Finding::new(
                "CKPT-003",
                Severity::Error,
                scenario.to_owned(),
                format!(
                    "crash recovery accepted a corrupt interior frame \
                     (want CrcMismatch, got {other:?})"
                ),
            ));
        }
    }

    report.push(Finding::new(
        "CKPT-003",
        Severity::Info,
        scenario.to_owned(),
        format!(
            "torn mid-frame cut at byte {} tolerated-and-reported; interior corruption refused",
            offset + len / 2
        ),
    ));
    report
}

/// CKPT-900: the journal mutant corpus. Every seeded corruption must be
/// refused by checked recovery with the right typed error.
pub fn check_journal_mutants(scenario: &str, durable: &DurableState) -> Report {
    let mut report = Report::new();
    let spans = durable.journal.frame_spans();
    let n = spans.len();
    if n < 3 {
        report.push(Finding::new(
            "CKPT-900",
            Severity::Error,
            scenario.to_owned(),
            format!("scenario journal has only {n} frame(s) — cannot build the mutant corpus"),
        ));
        return report;
    }
    let (mid_off, mid_len) = spans[n / 2];

    // Dropped interior record → MissingRecord.
    let mut dropped = durable.clone();
    dropped.journal_bytes_mut().drain(mid_off..mid_off + mid_len);
    report.mutant(
        "CKPT-900",
        "recovery",
        scenario,
        "dropped-record",
        match dropped.recover() {
            Err(JournalError::MissingRecord { .. }) => Ok(()),
            Err(e) => Err(format!("wrong error (want MissingRecord): {e}")),
            Ok(_) => Err("recovery returned Ok over a hole in the epoch sequence".to_owned()),
        },
    );

    // Duplicated record → DuplicateRecord.
    let mut duplicated = durable.clone();
    let frame: Vec<u8> =
        duplicated.journal_bytes_mut()[mid_off..mid_off + mid_len].to_vec();
    duplicated
        .journal_bytes_mut()
        .splice(mid_off..mid_off, frame);
    report.mutant(
        "CKPT-900",
        "recovery",
        scenario,
        "duplicated-record",
        match duplicated.recover() {
            Err(JournalError::DuplicateRecord { .. }) => Ok(()),
            Err(e) => Err(format!("wrong error (want DuplicateRecord): {e}")),
            Ok(_) => Err("recovery returned Ok over a replayed-twice record".to_owned()),
        },
    );

    // Stale-epoch snapshot: compact the journal behind the newest
    // snapshot, then lose the snapshot — the retained records no longer
    // dovetail with any snapshot and replay has a gap.
    if durable.snapshot_bytes().is_empty() {
        report.push(Finding::new(
            "CKPT-900",
            Severity::Error,
            scenario.to_owned(),
            "scenario installed no snapshots — the stale-snapshot mutant needs one \
             (is the snapshot cadence wired through?)"
                .to_owned(),
        ));
    } else {
        let mut stale = durable.clone();
        stale.compact();
        stale.set_snapshot_bytes(Vec::new());
        report.mutant(
            "CKPT-900",
            "recovery",
            scenario,
            "stale-epoch-snapshot",
            match stale.recover() {
                Err(JournalError::StaleSnapshot { .. }) => Ok(()),
                Err(e) => Err(format!("wrong error (want StaleSnapshot): {e}")),
                Ok(_) => {
                    Err("recovery returned Ok with a replay gap behind the compaction point"
                        .to_owned())
                }
            },
        );
    }

    // CRC-skipped tail: corrupt the last frame's payload. Checked
    // recovery must refuse it; CRC-skipping recovery accepts it — the
    // divergence proves the CRC is load-bearing, not decorative.
    let (last_off, _) = *spans.last().expect("n >= 3 frames");
    let mut crc_tail = durable.clone();
    crc_tail.journal_bytes_mut()[last_off + FRAME_HEADER_LEN] ^= 0x80;
    report.mutant(
        "CKPT-900",
        "recovery",
        scenario,
        "crc-skipped-tail",
        match (crc_tail.recover(), crc_tail.recover_unchecked()) {
            (Err(JournalError::CrcMismatch { .. }), Ok(_)) => Ok(()),
            (Err(JournalError::CrcMismatch { .. }), Err(e)) => {
                Err(format!("CRC-skipping recovery should accept the frame, got: {e}"))
            }
            (Err(e), _) => Err(format!("wrong error (want CrcMismatch): {e}")),
            (Ok(_), _) => Err("checked recovery accepted a corrupt tail frame".to_owned()),
        },
    );

    report
}

/// Runs the crash-consistency checker end to end: journal the seeded
/// scenario, then probe replay idempotence (CKPT-001), exactly-once
/// across restart (CKPT-002), torn-tail handling (CKPT-003) and the
/// journal mutant corpus (CKPT-900).
pub fn check_ckpt() -> Report {
    let mut report = Report::new();
    let (scenario, spec) = CKPT_SCENARIO;
    let jobs = build_jobs(&spec);
    let chaos = build_chaos(&spec);
    let config = ckpt_service_config(&spec);

    let mut service: ProverService<Bn254G1> = ProverService::new(config.clone());
    service.begin(jobs.clone());
    while service.step(&chaos) {}
    let outcome = service.finish();
    let durable = service.durable().clone();

    let n_records = durable.journal.n_records();
    let n_snapshots = durable
        .recover()
        .ok()
        .and_then(|r| r.snapshot.map(|s| s.epoch))
        .unwrap_or(0);
    report.push(Finding::new(
        "CKPT-000",
        Severity::Info,
        scenario.to_owned(),
        format!(
            "journaled {} event(s) into {n_records} record(s), newest snapshot at epoch \
             {n_snapshots} (cadence {CKPT_SNAPSHOT_EVERY})",
            outcome.events.len()
        ),
    ));
    if n_records == 0 {
        report.push(Finding::new(
            "CKPT-000",
            Severity::Error,
            scenario.to_owned(),
            "soak journaled no records — the WAL went silent".to_owned(),
        ));
        return report;
    }

    report.extend(check_replay_idempotence(scenario, &durable, &config));
    report.extend(check_exactly_once(scenario, &durable, &config, &jobs, &chaos));
    report.extend(check_torn_tail(scenario, &durable));
    report.extend(check_journal_mutants(scenario, &durable));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario_durable() -> (DurableState, ServiceConfig) {
        let (_, spec) = CKPT_SCENARIO;
        let jobs = build_jobs(&spec);
        let chaos = build_chaos(&spec);
        let config = ckpt_service_config(&spec);
        let mut service: ProverService<Bn254G1> = ProverService::new(config.clone());
        service.begin(jobs);
        while service.step(&chaos) {}
        let _ = service.finish();
        (service.durable().clone(), config)
    }

    #[test]
    fn clean_scenario_raises_no_actionable_findings() {
        let report = check_ckpt();
        assert_eq!(
            report.actionable(),
            0,
            "clean journaled scenario must pass every CKPT rule:\n{}",
            report.render_text()
        );
        // Every rule family reported in.
        for rule in ["CKPT-000", "CKPT-001", "CKPT-002", "CKPT-003", "CKPT-900"] {
            assert!(
                report.render_text().contains(rule),
                "missing {rule} in:\n{}",
                report.render_text()
            );
        }
    }

    #[test]
    fn every_journal_mutant_is_caught() {
        let (durable, _) = scenario_durable();
        let report = check_journal_mutants("test", &durable);
        assert_eq!(report.actionable(), 0, "{}", report.render_text());
        let text = report.render_text();
        for name in
            ["dropped-record", "duplicated-record", "stale-epoch-snapshot", "crc-skipped-tail"]
        {
            assert!(text.contains(&format!("mutant `{name}` caught")), "{text}");
        }
    }

    #[test]
    fn replay_divergence_is_flagged() {
        let (durable, config) = scenario_durable();
        // Sabotage: graft a snapshot that claims a different history —
        // the snapshot-path recovery must now diverge from full replay.
        let honest =
            recover_state(&durable, &config.shape()).expect("scenario journal is intact");
        let mut lying = honest.state.clone();
        lying.clock_s += 1.0e3;
        let mut sabotaged = durable.clone();
        let last_epoch = sabotaged.journal.n_records() as u64;
        sabotaged.install_snapshot(last_epoch, lying.clock_s, &lying.to_bytes());
        let report = check_replay_idempotence("test", &sabotaged, &config);
        assert!(
            report.actionable() > 0,
            "a history-rewriting snapshot must trip CKPT-001:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn torn_tail_rules_hold_on_scenario_journal() {
        let (durable, _) = scenario_durable();
        let report = check_torn_tail("test", &durable);
        assert_eq!(report.actionable(), 0, "{}", report.render_text());
    }
}
