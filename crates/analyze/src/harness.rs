//! The one scenario table behind `distmsm-analyze check`'s dynamic
//! families. Each row names a system, an executor and an instance size;
//! [`capture`] runs a row exactly once, with the gpu-sim access trace and
//! a telemetry session both on, and [`check_capture`] applies every
//! family to what that one run left behind:
//!
//! * RACE/TRACE — [`check_traces`] over the captured launches;
//! * COMM — [`check_schedule`] over the report's `comm` schedule;
//! * FAULT — the result against `MsmInstance::reference_result()`
//!   (FAULT-001) on every row, [`check_recovery_report`] (FAULT-002)
//!   wherever the report carries a recovery account;
//! * TEL — [`check_timeline`] on engine rows.
//!
//! Schedules and recovery accounts come off the executor's own report;
//! only the access trace and the telemetry session are process-global
//! captures (kernels record from the engine's worker threads), so
//! [`capture`] holds `CAPTURE_GUARD` for the whole run — concurrent test
//! threads would otherwise interleave launches and spans into each
//! other's captures.

use crate::comm::check_schedule;
use crate::fault::check_recovery_report;
use crate::race::{check_traces, RaceConfig};
use crate::report::{Finding, Report, Severity};
use crate::tel::check_timeline;
use distmsm::engine::{DistMsm, DistMsmConfig, MsmReport};
use distmsm::supervisor::RecoveryReport;
use distmsm::{cuzk, BestGpuBaseline, CollectiveStrategy, DistMsmConfigBuilder, ScatterKind};
use distmsm_comms::CommSchedule;
use distmsm_ec::{curves::Bn254G1, MsmInstance, XyzzPoint};
use distmsm_gpu_sim::trace::{begin_capture, end_capture, LaunchTrace};
use distmsm_gpu_sim::{FaultEvent, FaultKind, FaultPlan, LinkFault, MultiGpuSystem};
use distmsm_telemetry::{session, Timeline};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Mutex;

/// Serialises captures: the gpu-sim launch trace and the telemetry
/// session are both process-global.
static CAPTURE_GUARD: Mutex<()> = Mutex::new(());

/// Window size of every row (the cascade row narrows its own to 4).
pub const WINDOW: u32 = 8;

/// What executes a row.
#[derive(Clone, Debug)]
pub enum Executor {
    /// [`DistMsm::execute`] under this configuration.
    Engine(DistMsmConfig),
    /// [`cuzk::execute`] at window [`WINDOW`].
    CuZk,
    /// [`BestGpuBaseline`] at window [`WINDOW`].
    Baseline,
}

/// One named execution on `dgx_a100(gpus)`.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable row name.
    pub name: String,
    /// GPUs of the DGX-A100 system it runs on.
    pub gpus: usize,
    /// What runs it.
    pub executor: Executor,
    /// Points in its seeded random BN254 instance.
    pub size: usize,
}

impl Scenario {
    /// `<name>/n=<size>`: the location prefix of every finding.
    pub fn location(&self) -> String {
        format!("{}/n={}", self.name, self.size)
    }
}

/// Every execution `check` runs, each distinct system, configuration and
/// size once. Together they cover:
///
/// * hierarchical, naive and signed-digit scatter, the cuZK transpose
///   and the baseline merge, at n = 256 and 1024 — the default row is
///   also the CPU bucket gather and the pipelined CPU-reduce telemetry
///   path;
/// * the GPU-reduce path under each collective strategy on a two-box
///   pod, so routes cross the NIC tier (the collective telemetry path);
/// * five fault plans: fail-stop on both reduce paths (the first is the
///   recovery-tail telemetry path), a fabric-isolated rank, a
///   mid-recovery cascade, and a bit-flip caught by the RLC self-check.
pub fn scenarios() -> Vec<Scenario> {
    let row = |name: &str, gpus, size, executor| Scenario {
        name: name.to_owned(),
        gpus,
        executor,
        size,
    };
    let engine = |b: DistMsmConfigBuilder| {
        Executor::Engine(b.build().expect("scenario config is valid"))
    };
    let base = || DistMsmConfig::builder().window_size(WINDOW);
    let mut rows = Vec::new();
    for size in [256, 1024] {
        rows.extend([
            row("distmsm-default", 4, size, engine(base())),
            row("distmsm-naive", 4, size, engine(base().scatter(ScatterKind::Naive))),
            row("distmsm-signed", 4, size, engine(base().signed_digits(true))),
            row("cuzk", 2, size, Executor::CuZk),
            row("baseline", 4, size, Executor::Baseline),
        ]);
    }
    let gpu_reduce = || base().bucket_reduce_on_cpu(false);
    for strategy in CollectiveStrategy::ALL {
        let name = format!("collective-{}", strategy.name());
        rows.push(row(&name, 12, 256, engine(gpu_reduce().collective(strategy))));
    }
    let cascade = FaultPlan::fail_stop(3, 0).with_event(FaultEvent {
        device: 4,
        at_event: 8,
        attempt: 0,
        kind: FaultKind::FailStop,
    });
    let isolated = FaultPlan::none()
        .with_link_fault(LinkFault::PeerPortDown { rank: 2 })
        .with_link_fault(LinkFault::HostPortDown { rank: 2 });
    rows.extend([
        row("fail-stop-cpu-gather", 8, 256, engine(base().fault_plan(FaultPlan::fail_stop(3, 0)))),
        row(
            "fail-stop-degraded-collective",
            4,
            256,
            engine(gpu_reduce().fault_plan(FaultPlan::fail_stop(2, 0))),
        ),
        row("isolated-rank", 4, 256, engine(base().fault_plan(isolated))),
        row("cascading-fail-stop", 8, 256, engine(base().window_size(4).fault_plan(cascade))),
        row("bit-flip-self-check", 4, 256, engine(base().fault_plan(FaultPlan::bit_flip(1, 0)))),
    ]);
    rows
}

/// What one run of a row left behind.
#[derive(Clone, Debug)]
pub struct Capture {
    /// The launches the access trace recorded.
    pub traces: Vec<LaunchTrace>,
    /// The MSM value the executor returned.
    pub result: XyzzPoint<Bn254G1>,
    /// `reference_result()` of the row's instance.
    pub reference: XyzzPoint<Bn254G1>,
    /// The report's communication schedule (cuZK's report carries none).
    pub comm: Option<CommSchedule>,
    /// The report's recovery account (supervised engine rows).
    pub recovery: Option<RecoveryReport>,
    /// Engine rows: the session's timeline and the report it must agree
    /// with.
    pub telemetry: Option<(Timeline, MsmReport<Bn254G1>)>,
}

/// Runs `row` once under `CAPTURE_GUARD` with the access trace and a
/// telemetry session on.
///
/// # Panics
///
/// If the executor fails: every row is recoverable by construction, so
/// a failure is a bug in the engine or in this table.
pub fn capture(row: &Scenario) -> Capture {
    let mut rng = StdRng::seed_from_u64(0xD157_0000 ^ row.size as u64);
    let instance = MsmInstance::<Bn254G1>::random(row.size, &mut rng);
    let system = MultiGpuSystem::dgx_a100(row.gpus);
    let failed = |e| panic!("{}: execution must succeed, got {e}", row.location());
    let guard = CAPTURE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
    begin_capture();
    session::begin();
    let (result, comm, recovery, engine_report) = match &row.executor {
        Executor::Engine(config) => {
            let r = DistMsm::with_config(system, config.clone())
                .execute(&instance)
                .unwrap_or_else(failed);
            (r.result, r.comm.clone(), r.recovery.clone(), Some(r))
        }
        Executor::CuZk => {
            let r = cuzk::execute(&instance, &system, Some(WINDOW));
            (r.result, None, None, None)
        }
        Executor::Baseline => {
            let r = BestGpuBaseline::new(system)
                .with_window_size(WINDOW)
                .execute(&instance)
                .unwrap_or_else(failed);
            (r.result, r.comm, r.recovery, None)
        }
    };
    let timeline = session::end();
    let traces = end_capture();
    drop(guard);
    Capture {
        traces,
        result,
        reference: instance.reference_result(),
        comm,
        recovery,
        telemetry: engine_report.map(|r| (timeline, r)),
    }
}

/// Applies every dynamic family to one capture of `row`. A row that
/// captured no launches (`TRACE-001`) or an engine row that emitted no
/// spans (`TEL-000`) is an error: an empty capture would make a clean
/// verdict vacuous.
pub fn check_capture(row: &Scenario, cap: &Capture, cfg: &RaceConfig) -> Report {
    let loc = row.location();
    let mut report = Report::new();
    let mut info = |rule, message: String| {
        report.push(Finding::new(rule, Severity::Info, loc.clone(), message));
    };
    info(
        "TRACE-000",
        format!(
            "checked {} launch(es), {} accesses",
            cap.traces.len(),
            cap.traces.iter().map(|t| t.accesses.len()).sum::<usize>()
        ),
    );
    if let Some(s) = &cap.comm {
        info("COMM-000", format!("checked the {} schedule, {} flow(s)", s.strategy, s.n_flows()));
    }
    if let Some(rec) = &cap.recovery {
        info(
            "FAULT-000",
            format!(
                "{} fault(s) observed, {} slice(s) re-planned",
                rec.faults.len(),
                rec.replanned.len()
            ),
        );
    }
    if let Some((tl, _)) = &cap.telemetry {
        info(
            "TEL-000",
            format!(
                "{} span(s), {} instant(s), {} counter sample(s) captured",
                tl.spans.len(),
                tl.instants.len(),
                tl.counters.len()
            ),
        );
    }

    if cap.traces.is_empty() {
        report.push(Finding::new(
            "TRACE-001",
            Severity::Error,
            loc.clone(),
            "scenario captured no launches — instrumentation inactive",
        ));
    }
    report.extend(check_traces(&cap.traces, cfg));
    if let Some(s) = &cap.comm {
        report.extend(check_schedule(&format!("{loc}/{}", s.strategy), s));
    }
    if cap.result != cap.reference {
        report.push(Finding::new(
            "FAULT-001",
            Severity::Error,
            loc.clone(),
            "MSM value differs from the instance's reference_result()",
        ));
    }
    if let Some(rec) = &cap.recovery {
        report.extend(check_recovery_report(&loc, rec));
    }
    if let Some((tl, msm)) = &cap.telemetry {
        if tl.spans.is_empty() {
            report.push(Finding::new(
                "TEL-000",
                Severity::Error,
                loc.clone(),
                "engine emitted no spans — telemetry hooks inactive",
            ));
        }
        report.findings.extend(check_timeline(&loc, tl, msm));
    }
    report
}

/// Captures every row of [`scenarios`] once and checks it.
pub fn check_scenarios(cfg: &RaceConfig) -> Report {
    let mut report = Report::new();
    for row in scenarios() {
        report.extend(check_capture(&row, &capture(&row), cfg));
    }
    report
}

/// Captures the row at `location` (`<name>/n=<size>`).
#[cfg(test)]
pub(crate) fn capture_at(location: &str) -> Capture {
    let row = scenarios()
        .into_iter()
        .find(|r| r.location() == location)
        .unwrap_or_else(|| panic!("no scenario at {location}"));
    capture(&row)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_captures_scatter_and_bucket_sum() {
        let traces = capture_at("distmsm-default/n=256").traces;
        assert!(traces.iter().any(|t| t.kernel.contains("scatter")));
        assert!(traces.iter().any(|t| t.kernel == "bucket-sum"));
    }

    #[test]
    fn cuzk_scenario_captures_transpose() {
        let traces = capture_at("cuzk/n=256").traces;
        assert!(traces.iter().any(|t| t.kernel == "cuzk-transpose"));
    }

    /// The table keeps every path the dynamic families cover, and runs
    /// each distinct system, configuration and size once.
    #[test]
    fn table_covers_every_path_once() {
        let rows = scenarios();
        let config = |name: &str| {
            rows.iter()
                .find_map(|r| match &r.executor {
                    Executor::Engine(c) if r.name == name => Some((r.gpus, c.clone())),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("no engine row {name}"))
        };
        for name in ["distmsm-default", "distmsm-naive", "distmsm-signed", "cuzk", "baseline"] {
            for size in [256, 1024] {
                let loc = format!("{name}/n={size}");
                assert!(rows.iter().any(|r| r.location() == loc), "{loc} missing");
            }
        }
        assert_eq!(config("distmsm-naive").1.scatter, Some(ScatterKind::Naive));
        assert!(config("distmsm-signed").1.signed_digits);
        let (_, default) = config("distmsm-default");
        assert!(default.bucket_reduce_on_cpu && default.pipelined && default.fault_plan.is_empty());
        for strategy in CollectiveStrategy::ALL {
            let (gpus, c) = config(&format!("collective-{}", strategy.name()));
            assert_eq!((gpus, c.collective, c.bucket_reduce_on_cpu), (12, strategy, false));
        }
        let faulted: Vec<&str> = rows
            .iter()
            .filter(|r| matches!(&r.executor, Executor::Engine(c) if !c.fault_plan.is_empty()))
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(
            faulted,
            [
                "fail-stop-cpu-gather",
                "fail-stop-degraded-collective",
                "isolated-rank",
                "cascading-fail-stop",
                "bit-flip-self-check"
            ]
        );
        assert!(!config("fail-stop-degraded-collective").1.bucket_reduce_on_cpu);
        let mut keys: Vec<String> = rows
            .iter()
            .map(|r| format!("{} {:?} {}", r.gpus, r.executor, r.size))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), rows.len(), "two rows run the same execution");
    }

    /// Every row, captured once: it records launches, engine rows emit
    /// spans, the result is the reference value, and every family is
    /// clean on it.
    #[test]
    fn every_row_captures_once_and_checks_clean() {
        for row in scenarios() {
            let loc = row.location();
            let cap = capture(&row);
            assert!(!cap.traces.is_empty(), "{loc}: no launches");
            if matches!(row.executor, Executor::Engine(_)) {
                let (tl, _) = cap.telemetry.as_ref().expect("engine rows keep their timeline");
                assert!(!tl.spans.is_empty(), "{loc}: no spans");
            }
            assert!(cap.result == cap.reference, "{loc}: result is not the reference value");
            let r = check_capture(&row, &cap, &RaceConfig::default());
            assert_eq!(r.actionable(), 0, "{loc}:\n{}", r.render_text());
        }
    }

    #[test]
    fn wrong_result_is_fault_001() {
        let row = scenarios().swap_remove(0);
        let mut cap = capture(&row);
        cap.result = XyzzPoint::identity();
        let r = check_capture(&row, &cap, &RaceConfig::default());
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "FAULT-001" && f.severity == Severity::Error),
            "{}",
            r.render_text()
        );
    }
}
