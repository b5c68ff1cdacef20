//! Finding and report types shared by the race detector and the linter.

use distmsm::report::JsonField::{Rows, Scalar};
use distmsm::report::{json_pretty, json_str};

/// How serious a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: worth knowing, not wrong.
    Info,
    /// Suspicious: likely a performance or robustness problem.
    Warning,
    /// Defect: the analysed artefact is incorrect or cannot run.
    Error,
}

impl Severity {
    /// Lower-case label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Info => "info",
            Self::Warning => "warning",
            Self::Error => "error",
        }
    }
}

/// One analysis finding.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Stable rule identifier, e.g. `RACE-001` or `REG-001`.
    pub rule: &'static str,
    /// Severity of this instance.
    pub severity: Severity,
    /// Where it was found — a kernel launch, a preset × device pair, an op.
    pub location: String,
    /// Human explanation of what is wrong and why.
    pub message: String,
}

impl Finding {
    /// Convenience constructor.
    pub fn new(
        rule: &'static str,
        severity: Severity,
        location: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            rule,
            severity,
            location: location.into(),
            message: message.into(),
        }
    }
}

/// A collection of findings with rendering helpers.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, in discovery order.
    pub findings: Vec<Finding>,
}

impl Report {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a finding.
    pub fn push(&mut self, f: Finding) {
        self.findings.push(f);
    }

    /// Appends every finding of `other`.
    pub fn extend(&mut self, other: Report) {
        self.findings.extend(other.findings);
    }

    /// Number of findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.findings.iter().filter(|f| f.severity == sev).count()
    }

    /// Number of findings at `Warning` or `Error` — the ones that make
    /// `check` fail.
    pub fn actionable(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity >= Severity::Warning)
            .count()
    }

    /// Plain-text rendering, one line per finding plus a summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{:<7} {:<10} {}: {}\n",
                f.severity.label(),
                f.rule,
                f.location,
                f.message
            ));
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s), {} info\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        out
    }

    /// One `*-900` corpus verdict from an explicit check: `Ok` means
    /// the named seeded corruption was caught (info); `Err` means it
    /// survived `defence` — the recovery path or fold that must refuse
    /// it — and the rule has lost its teeth (error).
    pub fn mutant(
        &mut self,
        rule: &'static str,
        defence: &str,
        scenario: &str,
        name: &str,
        result: Result<(), String>,
    ) {
        self.push(match result {
            Ok(()) => Finding::new(rule, Severity::Info, scenario, format!("mutant `{name}` caught")),
            Err(detail) => Finding::new(
                rule,
                Severity::Error,
                scenario,
                format!("mutant `{name}` SURVIVED {defence}: {detail}"),
            ),
        });
    }

    /// One `*-900` corpus verdict from a verifier run over a seeded
    /// mutant: its first error names the rejecting rule (info); no
    /// error at all is `survived_msg` (error).
    pub fn mutant_rejected(
        &mut self,
        rule: &'static str,
        name: &str,
        result: &Report,
        survived_msg: &str,
    ) {
        self.push(match result.findings.iter().find(|f| f.severity == Severity::Error) {
            None => Finding::new(rule, Severity::Error, name, survived_msg),
            Some(first) => Finding::new(
                rule,
                Severity::Info,
                name,
                format!("rejected by {} at {}: {}", first.rule, first.location, first.message),
            ),
        });
    }

    /// JSON rendering in the workspace's one artefact layout.
    pub fn render_json(&self) -> String {
        let findings = self.findings.iter().map(|f| {
            vec![
                ("rule", json_str(f.rule)),
                ("severity", json_str(f.severity.label())),
                ("location", json_str(&f.location)),
                ("message", json_str(&f.message)),
            ]
        });
        json_pretty(&[
            ("findings", Rows(findings.collect())),
            ("errors", Scalar(self.count(Severity::Error).to_string())),
            ("warnings", Scalar(self.count(Severity::Warning).to_string())),
            ("infos", Scalar(self.count(Severity::Info).to_string())),
        ]) + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
    }

    #[test]
    fn renders_text_and_json() {
        let mut r = Report::new();
        r.push(Finding::new(
            "RACE-001",
            Severity::Error,
            "scatter-naive#3",
            "data race on \"addr\"\twith tab",
        ));
        r.push(Finding::new("OCC-001", Severity::Info, "a100", "low occupancy"));
        let text = r.render_text();
        assert!(text.contains("RACE-001"));
        assert!(text.contains("1 error(s), 0 warning(s), 1 info"));
        let json = r.render_json();
        assert!(json.contains("\\\"addr\\\"\\twith"));
        assert!(json.contains("\"errors\": 1"));
        assert_eq!(r.actionable(), 1);
    }

    /// The workspace writer's output must satisfy the workspace's own
    /// reader, whatever a tenant is called and whatever a float holds.
    #[test]
    fn writer_output_with_hostile_names_and_non_finite_floats_parses() {
        use distmsm_ec::curves::Bn254G1;
        use distmsm_service::{ChaosSchedule, ProverService, ServiceConfig, TenantConfig};

        let config = ServiceConfig {
            tenants: vec![TenantConfig::new("a\"b\\c")],
            ..ServiceConfig::default()
        };
        let mut report =
            ProverService::<Bn254G1>::new(config).run(Vec::new(), &ChaosSchedule::none()).report;
        report.horizon_s = f64::NAN;
        report.tenants[0].sojourn_p99_s = f64::INFINITY;
        let doc = distmsm_telemetry::parse_json(&report.to_detailed_json())
            .expect("the detailed report is a JSON document");
        let tenant = &doc.get("tenants").and_then(|t| t.as_arr()).expect("tenants array")[0];
        assert_eq!(tenant.get("name").and_then(|n| n.as_str()), Some("a\"b\\c"));
        assert_eq!(tenant.get("sojourn_p99_s").and_then(|n| n.as_num()), Some(0.0));
        assert_eq!(doc.get("horizon_s").and_then(|n| n.as_num()), Some(0.0));

        let mut findings = Report::new();
        findings.mutant("X-900", "the \"fold\"", "s\\1", "m", Err("tab\there".into()));
        let doc = distmsm_telemetry::parse_json(&findings.render_json()).expect("parses");
        assert_eq!(doc.get("errors").and_then(|n| n.as_num()), Some(1.0));
    }
}
