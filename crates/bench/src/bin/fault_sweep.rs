//! Sweeps fault rate × GPU count and verifies bit-exact recovery.
//!
//! `--telemetry <out.json>` records the sweep's span timeline and exports
//! Chrome-trace JSON for `ui.perfetto.dev`.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = distmsm_bench::telemetry_path(&args);
    let (report, _) =
        distmsm_bench::run_with_telemetry(trace.as_deref(), distmsm_bench::runners::run_fault_sweep);
    println!("{report}");
}
