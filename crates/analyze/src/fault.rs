//! Fault-recovery rules, applied to every captured scenario (see
//! [`crate::harness`]; five of its rows run under seeded fail-stop,
//! link-down, cascade and bit-flip plans):
//!
//! * **FAULT-001 — payload conservation.** Every row's MSM value must
//!   equal `MsmInstance::reference_result()` bit for bit, recovering
//!   executions included. The schedules a recovering execution ships
//!   (degraded host gathers, survivor-only bucket gathers) go through
//!   the same `COMM-00x` checker as every other report's.
//! * **FAULT-002 — no orphaned work after re-plan.** The supervisor's
//!   [`RecoveryReport::completed`] slice set must tile the plan's
//!   `n_windows × n_buckets` space exactly (every bucket folded exactly
//!   once — an orphaned bucket silently corrupts the result, a
//!   double-covered one corrupts it loudly), and every re-planned slice
//!   must be owned by a surviving GPU.

use crate::report::{Finding, Report, Severity};
use distmsm::supervisor::RecoveryReport;

/// Replays one recovery report against the FAULT-002 rules.
///
/// `location` prefixes every finding.
pub fn check_recovery_report(location: &str, rec: &RecoveryReport) -> Report {
    let mut report = Report::new();
    let (w, b) = (rec.n_windows as usize, rec.n_buckets as usize);
    if w == 0 || b == 0 {
        report.push(Finding::new(
            "FAULT-002",
            Severity::Error,
            location.to_owned(),
            "recovery report carries an empty plan geometry".to_owned(),
        ));
        return report;
    }
    let mut seen = vec![0u32; w * b];
    for s in &rec.completed {
        for bucket in s.bucket_lo..s.bucket_hi {
            let i = s.window as usize * b + bucket as usize;
            match seen.get_mut(i) {
                Some(c) => *c += 1,
                None => {
                    report.push(Finding::new(
                        "FAULT-002",
                        Severity::Error,
                        location.to_owned(),
                        format!(
                            "completed slice (gpu {}, window {}, buckets {}..{}) \
                             lies outside the {w}×{b} plan",
                            s.gpu, s.window, s.bucket_lo, s.bucket_hi
                        ),
                    ));
                    return report;
                }
            }
        }
    }
    let orphaned = seen.iter().filter(|&&c| c == 0).count();
    let doubled = seen.iter().filter(|&&c| c > 1).count();
    if orphaned > 0 {
        report.push(Finding::new(
            "FAULT-002",
            Severity::Error,
            location.to_owned(),
            format!("{orphaned}/{} bucket(s) orphaned after re-plan", w * b),
        ));
    }
    if doubled > 0 {
        report.push(Finding::new(
            "FAULT-002",
            Severity::Error,
            location.to_owned(),
            format!("{doubled}/{} bucket(s) folded more than once", w * b),
        ));
    }
    for s in &rec.replanned {
        // a cascade may lose a survivor *after* it completed re-planned
        // work (checkpointed pre-death, so the partial counts); only a
        // slice on a lost GPU that never completed is orphaned work
        if rec.lost_gpus.contains(&s.gpu) && !rec.completed.contains(s) {
            report.push(Finding::new(
                "FAULT-002",
                Severity::Error,
                location.to_owned(),
                format!(
                    "re-planned slice (window {}, buckets {}..{}) assigned to \
                     lost GPU {} and never completed",
                    s.window, s.bucket_lo, s.bucket_hi, s.gpu
                ),
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm::plan::Slice;

    fn toy_report() -> RecoveryReport {
        RecoveryReport {
            n_windows: 2,
            n_buckets: 4,
            completed: vec![
                Slice { gpu: 0, window: 0, bucket_lo: 0, bucket_hi: 4 },
                Slice { gpu: 1, window: 1, bucket_lo: 0, bucket_hi: 4 },
            ],
            ..RecoveryReport::default()
        }
    }

    #[test]
    fn exact_tiling_passes() {
        let r = check_recovery_report("toy", &toy_report());
        assert_eq!(r.actionable(), 0, "{}", r.render_text());
    }

    #[test]
    fn orphaned_bucket_flagged() {
        let mut rec = toy_report();
        rec.completed[1].bucket_hi = 3; // bucket (1, 3) now orphaned
        let r = check_recovery_report("orphan", &rec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "FAULT-002" && f.message.contains("orphaned")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn double_fold_flagged() {
        let mut rec = toy_report();
        rec.completed.push(Slice { gpu: 2, window: 0, bucket_lo: 1, bucket_hi: 2 });
        let r = check_recovery_report("double", &rec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "FAULT-002" && f.message.contains("more than once")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn replan_onto_lost_gpu_flagged() {
        let mut rec = toy_report();
        rec.lost_gpus = vec![1];
        // not in `completed`: genuinely orphaned on a dead device
        rec.replanned = vec![Slice { gpu: 1, window: 0, bucket_lo: 0, bucket_hi: 2 }];
        let r = check_recovery_report("lost-owner", &rec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "FAULT-002" && f.message.contains("lost GPU")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn out_of_plan_slice_flagged() {
        let mut rec = toy_report();
        rec.completed.push(Slice { gpu: 0, window: 5, bucket_lo: 0, bucket_hi: 1 });
        let r = check_recovery_report("oob", &rec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "FAULT-002" && f.message.contains("outside")),
            "{}",
            r.render_text()
        );
    }
}
