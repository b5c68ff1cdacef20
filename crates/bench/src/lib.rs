//! # distmsm-bench — experiment harness
//!
//! Regenerates every table and figure of the DistMSM paper's evaluation
//! (§5). Each binary prints a functional-validation preamble (bit-exact
//! MSM at reduced N) followed by the paper-scale analytic reproduction
//! with the paper's reported numbers side by side:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table3` | Table 3 — MSM time across curves/sizes/GPU counts |
//! | `table4` | Table 4 — end-to-end proof generation |
//! | `fig3` | Figure 3 — per-thread workload vs window size |
//! | `fig8` | Figure 8 — multi-GPU scalability |
//! | `fig9` | Figure 9 — A100 / RTX4090 / 6900XT comparison |
//! | `fig9_scaling` | Figure 9 ext. — EC collectives and multi-node scaling |
//! | `fig10` | Figure 10 — optimisation-group breakdown |
//! | `fig11` | Figure 11 — hierarchical vs naive bucket scatter |
//! | `fig12` | Figure 12 — PADD-kernel optimisation waterfall |
//! | `fault_sweep` | fault rate × GPU count sweep with verified recovery |
//!
//! Criterion microbenchmarks of the substrate itself (field multiply,
//! point ops, MSM, NTT, scatter) live under `benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use distmsm_service::harness::{flag_value, shrink, Scenario};

pub mod paper;
pub mod runners;
pub mod table;

/// Extracts the `--telemetry <out.json>` (or `--telemetry=<out.json>`)
/// argument from a binary's argument list.
///
/// # Panics
///
/// Panics if the flag is present without a path.
pub fn telemetry_path(args: &[String]) -> Option<String> {
    flag_value(args, "--telemetry")
}

/// The one `main` of the four soak binaries. Parses the scenario from
/// the process arguments and prints it back as the binary's own flags —
/// the first stdout line is the re-runnable spec, and `ci.sh` replays
/// it — then runs it (under `--telemetry <out.json>` when given),
/// prints the report, writes the byte-stable golden JSON to
/// `--json <path>`, and on violation lists them, shrinks to a minimal
/// reproducer and exits non-zero.
///
/// # Panics
///
/// Panics on a malformed flag or an unwritable `--json` path.
pub fn soak_main<S: Scenario>() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = S::from_args(&args);
    println!("{} {}", S::NAME, spec.cli());
    let run = run_with_telemetry(telemetry_path(&args).as_deref(), || spec.run());

    print!("{}", S::render(&run.report));
    println!("events processed: {}", run.n_events);
    if let Some(path) = flag_value(&args, "--json") {
        std::fs::write(&path, S::golden_json(&run.report))
            .unwrap_or_else(|e| panic!("cannot write report to {path}: {e}"));
        println!("wrote the report JSON to {path}");
    }
    if run.violations.is_empty() {
        println!("invariants: all hold (zero violations)");
        return;
    }

    println!("invariants VIOLATED ({}):", run.violations.len());
    for v in run.violations.iter() {
        println!("  [{}] {}", v.invariant, v.detail);
    }
    println!("shrinking to a minimal reproducer...");
    let (min, min_run) = shrink(&spec, S::run, 64).unwrap_or((spec, run));
    println!("minimal reproducer has {} violations", min_run.violations.len());
    println!("re-run with: {} {}", S::NAME, min.cli());
    std::process::exit(1);
}

/// Runs `f`, recording a telemetry session and exporting it to `path`
/// when one is given.
///
/// With a path, the run's span timeline is written as Chrome-trace JSON
/// (open in `ui.perfetto.dev`) and a live phase table is printed.
///
/// # Panics
///
/// Panics if the trace file cannot be written.
pub fn run_with_telemetry<T>(path: Option<&str>, f: impl FnOnce() -> T) -> T {
    let Some(path) = path else {
        return f();
    };
    distmsm_telemetry::session::begin();
    let out = f();
    let timeline = distmsm_telemetry::session::end();
    std::fs::write(path, distmsm_telemetry::to_chrome_trace(&timeline))
        .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
    println!("{}", distmsm_telemetry::phase_table(&timeline));
    println!("telemetry: wrote Chrome-trace JSON to {path} (open in ui.perfetto.dev)");
    out
}
