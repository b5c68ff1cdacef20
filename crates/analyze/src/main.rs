//! `distmsm-analyze` command-line entry point.
//!
//! ```text
//! distmsm-analyze check [--json]
//! distmsm-analyze verify [--all-presets] [--json]
//! distmsm-analyze trace <file.json> [--json]
//! ```
//!
//! `check` captures every row of the scenario table once (access trace
//! and telemetry session on) and runs the dynamic families on that one
//! capture: the race checker (`RACE`/`TRACE`), the comm-schedule checker
//! on the report's schedule (`COMM-00x`), the result against the
//! reference value and the recovery account (`FAULT-00x`), and the
//! timeline against the engine report (`TEL-00x`). It then runs the
//! static linter over every kernel preset × device and the fleet
//! checker (`FLT-00x`). `verify` runs the static plan verifier instead: symbolic
//! write-set proofs (`VRF-001`/`VRF-002`), the same comm-schedule checker
//! over every planned collective on the topology presets (`VRF-003`,
//! widened by `--all-presets`), the built-in mutant corpus (`VRF-900`)
//! and the workspace determinism lint (`DET-00x`) — no engine execution,
//! no trace capture. `trace` validates an exported Chrome-trace JSON
//! file. All print the combined report (text by default, `--json` for
//! machine consumption) and exit with status 1 when any warning or error
//! is found.

use distmsm_analyze::fleet::check_fleet;
use distmsm_analyze::harness::check_scenarios;
use distmsm_analyze::lint::lint_presets;
use distmsm_analyze::tel::check_trace_file;
use distmsm_analyze::verify::check_verify;
use distmsm_analyze::{RaceConfig, Report};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: distmsm-analyze check [--json]");
    eprintln!("       distmsm-analyze verify [--all-presets] [--json]");
    eprintln!("       distmsm-analyze trace <file.json> [--json]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut all_presets = false;
    let mut command = None;
    let mut trace_path = None;
    for a in &args {
        match a.as_str() {
            "--json" => json = true,
            "--all-presets" if command.as_deref() == Some("verify") => all_presets = true,
            "check" | "trace" | "verify" if command.is_none() => command = Some(a.clone()),
            other if command.as_deref() == Some("trace") && trace_path.is_none() => {
                trace_path = Some(other.to_owned());
            }
            _ => return usage(),
        }
    }

    let report = match (command.as_deref(), trace_path) {
        (Some("check"), None) => {
            let mut report = Report::new();
            report.extend(check_scenarios(&RaceConfig::default()));
            report.extend(lint_presets());
            report.extend(check_fleet());
            report
        }
        (Some("verify"), None) => check_verify(all_presets),
        (Some("trace"), Some(path)) => match check_trace_file(&path) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("distmsm-analyze: {e}");
                return ExitCode::FAILURE;
            }
        },
        _ => return usage(),
    };

    if json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.actionable() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
