//! Regenerates Figure 10 (optimisation breakdown).
//!
//! `--telemetry <out.json>` records the run's span timeline and exports
//! Chrome-trace JSON for `ui.perfetto.dev`.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = distmsm_bench::telemetry_path(&args);
    let (report, _) =
        distmsm_bench::run_with_telemetry(trace.as_deref(), distmsm_bench::runners::run_fig10);
    println!("{report}");
}
