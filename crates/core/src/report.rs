//! The unified report surface: every timing artefact the workspace
//! produces — an engine [`MsmReport`], a supervisor [`RecoveryReport`],
//! a comms [`CommSchedule`] — answers the same three questions (what is
//! it, how long did it take, where did the time go) through one trait,
//! so bench tables, JSON dumps and the telemetry sum-consistency rule
//! consume any of them without per-type adapters.

use crate::engine::MsmReport;
use crate::supervisor::RecoveryReport;
use distmsm_comms::CommSchedule;
use distmsm_ec::Curve;
pub use distmsm_telemetry::export::{json_num, json_str};

/// One named phase of a report's time breakdown.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// Phase name. Engine reports use the telemetry category vocabulary
    /// (`"scatter"`, `"bucket-sum"`, `"bucket-reduce"`,
    /// `"window-reduce"`, `"transfer"`, `"recovery"`) so live-span
    /// aggregations compare key-for-key.
    pub name: String,
    /// Simulated seconds attributed to the phase.
    pub seconds: f64,
}

impl Phase {
    fn new(name: &str, seconds: f64) -> Self {
        Self {
            name: name.to_string(),
            seconds,
        }
    }
}

/// Common surface over the workspace's timing reports.
pub trait Report {
    /// Stable report-kind tag (`"msm"`, `"recovery"`, `"comm-schedule"`).
    fn kind(&self) -> &'static str;

    /// Total simulated seconds the report covers.
    fn total_s(&self) -> f64;

    /// Named time breakdown. Phases need not sum to [`Report::total_s`]
    /// (device phases overlap; pipelined phases hide behind each other) —
    /// the composition rule belongs to each report's producer.
    fn phase_breakdown(&self) -> Vec<Phase>;

    /// The report as a small JSON object
    /// (`{"kind", "total_s", "phases": [{"name", "seconds"}]}`).
    fn to_json(&self) -> String {
        let phases: Vec<String> = self
            .phase_breakdown()
            .iter()
            .map(|p| {
                format!(
                    "{{\"name\":{},\"seconds\":{}}}",
                    json_str(&p.name),
                    json_num(p.seconds)
                )
            })
            .collect();
        format!(
            "{{\"kind\":{},\"total_s\":{},\"phases\":[{}]}}",
            json_str(self.kind()),
            json_num(self.total_s()),
            phases.join(",")
        )
    }
}

/// One top-level member of a [`json_pretty`] document. Scalars arrive
/// already rendered ([`json_str`], [`json_num`], `to_string`).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonField {
    /// A scalar value.
    Scalar(String),
    /// An array of scalars, rendered inline: `[a, b, c]`.
    Inline(Vec<String>),
    /// An array of objects, one inline `{"k": v, ...}` per line.
    Rows(Vec<Vec<(&'static str, String)>>),
}

/// The byte-stable artefact layout every golden and `BENCH_*.json` in
/// the tree shares: one top-level key per line in the given order,
/// scalar arrays inline, arrays of objects one inline object per line,
/// no trailing newline.
pub fn json_pretty(members: &[(&str, JsonField)]) -> String {
    let lines: Vec<String> = members
        .iter()
        .map(|(key, field)| {
            let value = match field {
                JsonField::Scalar(v) => v.clone(),
                JsonField::Inline(items) => format!("[{}]", items.join(", ")),
                JsonField::Rows(rows) => {
                    let rows: Vec<String> = rows
                        .iter()
                        .map(|row| {
                            let kv: Vec<String> =
                                row.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
                            format!("    {{{}}}", kv.join(", "))
                        })
                        .collect();
                    let end = if rows.is_empty() { "" } else { "\n" };
                    format!("[\n{}{end}  ]", rows.join(",\n"))
                }
            };
            format!("  {}: {value}", json_str(key))
        })
        .collect();
    format!("{{\n{}\n}}", lines.join(",\n"))
}

impl<C: Curve> Report for MsmReport<C> {
    fn kind(&self) -> &'static str {
        "msm"
    }

    fn total_s(&self) -> f64 {
        self.total_s
    }

    fn phase_breakdown(&self) -> Vec<Phase> {
        let mut phases = vec![
            Phase::new("scatter", self.phases.scatter_s),
            Phase::new("bucket-sum", self.phases.bucket_sum_s),
            Phase::new("bucket-reduce", self.phases.bucket_reduce_s),
            Phase::new("window-reduce", self.phases.window_reduce_s),
            Phase::new("transfer", self.phases.transfer_s),
        ];
        if let Some(rec) = &self.recovery {
            phases.push(Phase::new("recovery", rec.recovery_s()));
        }
        phases
    }
}

impl Report for RecoveryReport {
    fn kind(&self) -> &'static str {
        "recovery"
    }

    fn total_s(&self) -> f64 {
        self.recovery_s()
    }

    fn phase_breakdown(&self) -> Vec<Phase> {
        vec![
            Phase::new("backoff", self.backoff_s),
            Phase::new("recompute", self.recompute_s),
            Phase::new("self-check", self.self_check_s),
            Phase::new("checkpoint", self.checkpoint_s),
        ]
    }
}

impl Report for CommSchedule {
    fn kind(&self) -> &'static str {
        "comm-schedule"
    }

    fn total_s(&self) -> f64 {
        self.total_s
    }

    fn phase_breakdown(&self) -> Vec<Phase> {
        self.step_s
            .iter()
            .enumerate()
            .map(|(i, &s)| Phase::new(&format!("step{i}"), s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::DistMsm;
    use distmsm_ec::curves::Bn254G1;
    use distmsm_ec::MsmInstance;
    use distmsm_gpu_sim::MultiGpuSystem;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn msm_report_phases_use_telemetry_vocabulary() {
        let mut rng = StdRng::seed_from_u64(11);
        let inst = MsmInstance::<Bn254G1>::random(64, &mut rng);
        let rep = DistMsm::new(MultiGpuSystem::dgx_a100(2))
            .execute(&inst)
            .expect("runs");
        let names: Vec<String> = rep.phase_breakdown().iter().map(|p| p.name.clone()).collect();
        assert_eq!(
            names,
            ["scatter", "bucket-sum", "bucket-reduce", "window-reduce", "transfer"]
        );
        assert_eq!(Report::total_s(&rep), rep.total_s);
        assert_eq!(rep.kind(), "msm");
    }

    #[test]
    fn recovery_report_totals_its_phases() {
        let rec = RecoveryReport {
            backoff_s: 1.0,
            recompute_s: 2.0,
            self_check_s: 0.25,
            checkpoint_s: 0.5,
            ..RecoveryReport::default()
        };
        let sum: f64 = rec.phase_breakdown().iter().map(|p| p.seconds).sum();
        assert_eq!(sum, Report::total_s(&rec));
        assert_eq!(rec.kind(), "recovery");
    }

    #[test]
    fn comm_schedule_phases_are_steps() {
        let mut sched = CommSchedule::new("host-gather", 2, 2, 8.0);
        sched.steps.push(distmsm_comms::CommStep {
            flows: vec![distmsm_comms::Flow {
                src: distmsm_comms::Endpoint::Rank(0),
                dst: distmsm_comms::Endpoint::Host,
                lo: 0,
                hi: 1,
                bytes: 1e6,
                reduced: true,
            }],
        });
        sched.finalize(
            &distmsm_comms::Fabric::Flat {
                host_gbps: 64.0,
                peer_gbps: 600.0,
            },
            &distmsm_comms::CommConfig::default(),
        );
        let phases = sched.phase_breakdown();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].name, "step0");
        let sum: f64 = phases.iter().map(|p| p.seconds).sum();
        assert!((sum - sched.total_s).abs() < 1e-18);
    }

    #[test]
    fn to_json_is_valid_and_carries_phases() {
        let rec = RecoveryReport {
            recompute_s: 2.5,
            ..RecoveryReport::default()
        };
        let json = rec.to_json();
        assert!(json.contains("\"kind\":\"recovery\""), "{json}");
        assert!(json.contains("\"name\":\"recompute\""), "{json}");
        assert!(json.contains("2.5"), "{json}");
        // balanced braces as a cheap well-formedness check
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count()
        );
    }

    #[test]
    fn json_pretty_is_the_golden_layout() {
        use JsonField::{Inline, Rows, Scalar};
        let doc = json_pretty(&[
            ("kind", Scalar(json_str("t\"x"))),
            ("nan", Scalar(json_num(f64::NAN))),
            ("ids", Inline(vec!["1".into(), "2".into()])),
            ("none", Inline(Vec::new())),
            ("rows", Rows(vec![vec![("a", "1".into()), ("b", "true".into())], vec![("a", "2".into())]])),
            ("empty", Rows(Vec::new())),
        ]);
        assert_eq!(
            doc,
            "{\n  \"kind\": \"t\\\"x\",\n  \"nan\": 0,\n  \"ids\": [1, 2],\n  \"none\": [],\n  \
             \"rows\": [\n    {\"a\": 1, \"b\": true},\n    {\"a\": 2}\n  ],\n  \"empty\": [\n  ]\n}"
        );
    }
}
