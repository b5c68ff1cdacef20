//! Regenerates Figure 8 (multi-GPU speedup over a single GPU).
//!
//! `--analyze` additionally measures the wall-clock overhead of the
//! simulator's access-trace hooks: the same MSMs with capture off, then on.
fn main() {
    let analyze = std::env::args().skip(1).any(|a| a == "--analyze");
    let (report, _) = distmsm_bench::runners::run_fig8();
    println!("{report}");
    if analyze {
        println!("{}", distmsm_bench::runners::run_trace_overhead(1024, 8));
    }
}
