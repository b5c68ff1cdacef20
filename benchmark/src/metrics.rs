//! Metric names, the tables `BENCHMARK.json` mirrors, the result line
//! and the run-to-run agreement comparator.

use distmsm_telemetry::JsonValue;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric and the bound by which it may worsen.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the first median by which the second may be worse.
    pub bound: f64,
    /// A difference this small (in the metric's unit) always agrees,
    /// whatever the relative bound says; `BENCHMARK.json` has no field
    /// for it, so only `--check-agreement` applies it.
    pub abs_floor: f64,
}

/// The four end-to-end metrics, in `BENCHMARK.json` order. Two of the
/// issue's six are elsewhere. `failed_frac` is the result line's
/// `failed / attempted`: it is 0 on a healthy run and the schema wants
/// metrics that are never 0. `sim_ms` is the first per-layer metric: the
/// simulated clock reads exactly the same on every run (on two workloads
/// for every seed), which the driver rejects in an end-to-end time; the
/// agreement check still requires it to be bit-identical.
///
/// The bounds are three times the widest run-to-run spread seen on the
/// shared sandbox (`fleet_serve`'s; the other workloads stay within 4 %,
/// see the README), which is also the schema's ceiling.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 2.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.05,
    },
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// Every per-layer metric a traced run prints, in `BENCHMARK.json` order.
/// Host-clock times are in reference-host units (see [`crate::host`]).
/// Units `sim_s` are seconds on the simulated clock (deterministic per
/// seed); `count`, `sim_s` and `*_rel_err` metrics must repeat exactly.
pub const PER_LAYER: &[PerLayer] = &[
    ("sim_ms", "sim_ms", L),
    ("ff.mont_mul_cios_ns.l4", "ns", L),
    ("ff.mont_mul_cios_ns.l6", "ns", L),
    ("ff.mont_mul_cios_ns.l12", "ns", L),
    ("ff.mont_mul_sos_ns.l4", "ns", L),
    ("ff.fp_square_ns.l4", "ns", L),
    ("ff.fp_inverse_us.l4", "us", L),
    ("ec.pacc_ns.bn254", "ns", L),
    ("ec.padd_ns.bn254", "ns", L),
    ("ec.pdbl_ns.bn254", "ns", L),
    ("ec.pacc_ns.bls381", "ns", L),
    ("ec.padd_ns.bls381", "ns", L),
    ("ec.pacc_ns.bn254g2", "ns", L),
    ("ec.padd_ns.bn254g2", "ns", L),
    ("ec.batch_affine_ns_per_point.bn254", "ns", L),
    ("ec.pairing_ms", "ms", L),
    ("core.plan.plan_slices_us", "us", L),
    ("core.scatter.hier_ns_per_coeff", "ns", L),
    ("core.scatter.naive_ns_per_coeff", "ns", L),
    ("core.scatter.signed_ns_per_coeff", "ns", L),
    ("core.bucket_sum.ns_per_pacc", "ns", L),
    ("core.bucket_sum.pacc_count", "count", L),
    ("core.reduce.bucket_ns_per_bucket", "ns", L),
    ("core.reduce.window_us", "us", L),
    ("core.reduce.empty_bucket_frac", "frac", L),
    ("core.engine.execute_ms", "ms", L),
    ("core.engine.execute_cpu_ms", "ms", L),
    ("core.engine.walk_ms", "ms", L),
    ("core.engine.unexplained_frac", "frac", L),
    ("core.engine.parallel_eff", "frac", H),
    ("core.engine.floor_ms", "ms", L),
    ("core.engine.slices", "count", L),
    ("core.engine.launches", "count", L),
    ("core.engine.sim_scatter_s", "sim_s", L),
    ("core.engine.sim_bucket_sum_s", "sim_s", L),
    ("core.engine.sim_bucket_reduce_s", "sim_s", L),
    ("core.engine.sim_window_reduce_s", "sim_s", L),
    ("core.engine.sim_transfer_s", "sim_s", L),
    ("core.analytic.estimate_us", "us", L),
    ("core.analytic.total_rel_err", "frac", L),
    ("core.analytic.scatter_rel_err", "frac", L),
    ("core.analytic.bucket_sum_rel_err", "frac", L),
    ("kernel.model_new_us", "us", L),
    ("gpu-sim.estimate_kernel_ns", "ns", L),
    ("comms.collective.run_ms", "ms", L),
    ("comms.collective.steps", "count", L),
    ("comms.collective.bytes", "count", L),
    ("zksnark.ntt.fwd_ns_per_butterfly.2p12", "ns", L),
    ("zksnark.ntt.fwd_ns_per_butterfly.2p16", "ns", L),
    ("zksnark.ntt.inv_ns_per_butterfly.2p12", "ns", L),
    ("zksnark.qap.witness_ms", "ms", L),
    ("zksnark.groth16.prove_ms", "ms", L),
    ("zksnark.groth16.verify_ms", "ms", L),
    ("zksnark.groth16.msm_g1_ms", "ms", L),
    ("zksnark.groth16.msm_g2_ms", "ms", L),
    ("service.run_ms_per_job", "ms", L),
    ("service.estimate_job_us", "us", L),
    ("service.admitted", "count", H),
    ("service.completed", "count", H),
    ("service.shed", "count", L),
    ("fleet.run_ms_per_job", "ms", L),
    ("fleet.check_ms_per_job", "ms", L),
    ("fleet.twin_ratio", "ratio", L),
    ("fleet.sim_horizon_s", "sim_s", L),
    ("fleet.placed", "count", H),
    ("fleet.accepted", "count", H),
    ("fleet.failed", "count", L),
    ("fleet.steals", "count", L),
    ("fleet.detections", "count", H),
    ("fleet.replaced", "count", L),
    ("journal.records", "count", L),
    ("journal.bytes", "count", L),
    ("journal.append_ns_per_record", "ns", L),
    ("journal.recover_us_per_record", "us", L),
    ("bench.op_ms_hi", "ms", L),
    ("bench.hi_pct", "pct", H),
    ("bench.samples", "ops", H),
    ("bench.threads", "count", H),
    ("bench.trace_overhead_frac", "frac", L),
    ("bench.host_slowdown", "ratio", L),
];

/// Metric names are made of letters, digits, `_`, `.` and `-`, start
/// with a letter or digit, and are at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The metrics of one run, in emission order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Adds a metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid name, a repeated name or a non-finite value:
    /// each is a bug in the harness, not a property of the run.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        assert!(valid_name(name), "invalid metric name `{name}`");
        assert!(self.get(name).is_none(), "metric `{name}` reported twice");
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.0.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// What one run of one workload produced: the driver's result line.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

impl RunResult {
    /// The one-line JSON object the driver reads. Values print with every
    /// digit `f64` needs to round-trip.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .0
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Parses a line written by [`Self::to_json_line`].
    pub fn from_json_line(line: &str) -> Result<Self, String> {
        let doc = distmsm_telemetry::parse_json(line)?;
        let num = |key: &str| {
            doc.get(key)
                .and_then(JsonValue::as_num)
                .ok_or(format!("result line lacks `{key}`"))
        };
        let correct = match doc.get("correct") {
            Some(JsonValue::Bool(b)) => *b,
            _ => return Err("result line lacks `correct`".into()),
        };
        let mut metrics = Metrics::default();
        match doc.get("metrics") {
            Some(JsonValue::Obj(members)) => {
                for (name, m) in members {
                    let value = m.get("value").and_then(JsonValue::as_num);
                    let unit = m.get("unit").and_then(JsonValue::as_str);
                    match (value, unit) {
                        (Some(v), Some(u)) if valid_name(name) && v.is_finite() => {
                            metrics.0.push(Metric {
                                name: name.clone(),
                                value: v,
                                unit: u.into(),
                            });
                        }
                        _ => return Err(format!("malformed metric `{name}`")),
                    }
                }
            }
            _ => return Err("result line lacks `metrics`".into()),
        }
        Ok(Self {
            correct,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            metrics,
        })
    }
}

/// True for metrics that must repeat exactly between two runs of the
/// same code on the same seed: simulated-clock values, counts and the
/// analytic model's error.
pub fn is_exact(name: &str, unit: &str) -> bool {
    matches!(unit, "count" | "sim_s" | "sim_ms") || name.ends_with("_rel_err")
}

/// Checks the second run of a workload against the first: exact metrics
/// must be identical, bounded end-to-end metrics must not be worse than
/// the first by more than their bound (or their absolute floor), and as
/// many ops must have failed (how many were attempted depends on how fast
/// the host ran). Returns one line per disagreement.
pub fn disagreements(first: &RunResult, second: &RunResult) -> Vec<String> {
    let mut out = Vec::new();
    if first.failed != second.failed {
        out.push(format!(
            "{} ops failed, then {}",
            first.failed, second.failed
        ));
    }
    for a in &first.metrics.0 {
        let Some(b) = second.metrics.get(&a.name) else {
            out.push(format!("{}: missing from the second run", a.name));
            continue;
        };
        if is_exact(&a.name, &a.unit) {
            if a.value.to_bits() != b.value.to_bits() {
                out.push(format!(
                    "{}: exact metric read {} then {}",
                    a.name, a.value, b.value
                ));
            }
        } else if let Some(spec) = END_TO_END.iter().find(|e| e.name == a.name) {
            if let Some(why) = worse_than_bound(spec, a.value, b.value) {
                out.push(why);
            }
        }
    }
    out
}

/// `Some(reason)` when `second` is worse than `first` by more than the
/// metric's relative bound and by more than its absolute floor.
pub fn worse_than_bound(spec: &EndToEnd, first: f64, second: f64) -> Option<String> {
    let worse_by = match spec.better {
        Better::Lower => second - first,
        Better::Higher => first - second,
    };
    if worse_by <= spec.abs_floor || worse_by <= spec.bound * first.abs() {
        return None;
    }
    Some(format!(
        "{}: {} then {} {}, worse by {:.1}% (bound {:.0}%, floor {} {})",
        spec.name,
        first,
        second,
        spec.unit,
        100.0 * worse_by / first.abs(),
        100.0 * spec.bound,
        spec.abs_floor,
        spec.unit
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|e| e.name == name).unwrap()
    }

    #[test]
    fn metric_names_are_validated() {
        for ok in [
            "op_ms_p50",
            "gpu-sim.estimate_kernel_ns",
            "zksnark.ntt.fwd_ns_per_butterfly.2p12",
            "2x",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let too_long = "a".repeat(65);
        for bad in [
            "",
            "a b",
            "a/b",
            "µs",
            ".leading",
            "-leading",
            "_leading",
            too_long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for (name, _, _) in PER_LAYER {
            assert!(valid_name(name), "{name}");
        }
        for e in &END_TO_END {
            assert!(valid_name(e.name) && e.bound <= 0.25);
        }
    }

    #[test]
    fn table_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER
            .iter()
            .map(|p| p.0)
            .chain(END_TO_END.iter().map(|e| e.name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    /// A lower-is-better metric with the given bound and absolute floor.
    fn bounded(bound: f64, abs_floor: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "ms",
            better: Better::Lower,
            bound,
            abs_floor,
        }
    }

    #[test]
    fn relative_bound_arithmetic() {
        let ten_pct = bounded(0.10, 0.0);
        assert!(
            worse_than_bound(&ten_pct, 100.0, 110.0).is_none(),
            "exactly at the bound agrees"
        );
        assert!(worse_than_bound(&ten_pct, 100.0, 110.1).is_some());
        assert!(
            worse_than_bound(&ten_pct, 100.0, 50.0).is_none(),
            "an improvement always agrees"
        );
        let higher = EndToEnd {
            better: Better::Higher,
            ..ten_pct
        };
        assert!(worse_than_bound(&higher, 100.0, 89.0).is_some());
        assert!(worse_than_bound(&higher, 100.0, 150.0).is_none());
    }

    #[test]
    fn absolute_floors_override_the_relative_bound() {
        let setup = bounded(0.25, 0.05); // like setup_s: 25 % or 0.05 s
        assert!(
            worse_than_bound(&setup, 0.004, 0.030).is_none(),
            "7x worse but under 0.05 s"
        );
        assert!(worse_than_bound(&setup, 0.004, 0.060).is_some());
        assert!(
            worse_than_bound(&setup, 3.0, 3.7).is_none(),
            "over the floor, within 25 %"
        );
        assert!(worse_than_bound(&setup, 3.0, 3.9).is_some());
        let rss = bounded(0.10, 2.0); // 10 % or 2 MB
        assert!(worse_than_bound(&rss, 10.0, 11.9).is_none());
        assert!(worse_than_bound(&rss, 10.0, 12.1).is_some());
        assert!(worse_than_bound(&rss, 100.0, 109.0).is_none());
        assert_eq!(spec("setup_s").abs_floor, 0.05);
        assert_eq!(spec("peak_rss_mb").abs_floor, 2.0);
    }

    fn result(metrics: &[(&str, f64, &str)]) -> RunResult {
        let mut m = Metrics::default();
        for (n, v, u) in metrics {
            m.push(n, *v, u);
        }
        RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: m,
        }
    }

    #[test]
    fn exact_metrics_must_be_identical() {
        let a = result(&[
            ("sim_ms", 0.2121, "sim_ms"),
            ("fleet.placed", 80.0, "count"),
            ("op_ms_p50", 10.0, "ms"),
        ]);
        let mut b = a.clone();
        assert!(disagreements(&a, &b).is_empty());
        b.metrics.0[2].value = 12.4; // within op_ms_p50's 25 %
        assert!(disagreements(&a, &b).is_empty());
        b.metrics.0[0].value = 0.2121000001;
        b.metrics.0[1].value = 79.0;
        let d = disagreements(&a, &b);
        assert_eq!(d.len(), 2, "{d:?}");
        b.failed = 1;
        assert_eq!(disagreements(&a, &b).len(), 3);
        b.failed = 0;
        b.attempted += 3; // a faster host fits more ops into the same seconds
        assert_eq!(disagreements(&a, &b).len(), 2);
        assert!(is_exact("core.analytic.total_rel_err", "frac"));
        assert!(!is_exact("core.engine.unexplained_frac", "frac"));
    }

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let r = result(&[
            ("op_ms_p50", 456.123_456_789_012_3, "ms"),
            ("sim_ms", 0.212_127_980_275_963_2, "sim_ms"),
        ]);
        let line = r.to_json_line();
        assert!(!line.contains('\n'));
        assert_eq!(RunResult::from_json_line(&line).unwrap(), r);
        assert!(RunResult::from_json_line("{\"correct\": true}").is_err());
    }

    #[test]
    #[should_panic(expected = "reported twice")]
    fn repeated_metric_panics() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "ms");
        m.push("a", 2.0, "ms");
    }

    /// `BENCHMARK.json` is the driver's copy of the tables above.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repo root");
        let doc = distmsm_telemetry::parse_json(&text).expect("valid JSON");
        let field =
            |m: &JsonValue, k: &str| m.get(k).and_then(JsonValue::as_str).map(str::to_owned);

        let e2e = doc
            .get("end_to_end")
            .and_then(JsonValue::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(m, "name").as_deref(), Some(e.name));
            assert_eq!(field(m, "unit").as_deref(), Some(e.unit));
            assert_eq!(field(m, "better").as_deref(), Some(e.better.label()));
            assert_eq!(m.get("bound").and_then(JsonValue::as_num), Some(e.bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(JsonValue::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(m, "name").as_deref(), Some(*name));
            assert_eq!(field(m, "unit").as_deref(), Some(*unit));
            assert_eq!(field(m, "better").as_deref(), Some(better.label()));
        }
        let workloads = doc
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .expect("workloads");
        let names: Vec<_> = workloads.iter().filter_map(|w| field(w, "name")).collect();
        assert_eq!(names, crate::workloads::NAMES);
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_num),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
