//! Ablation studies of the adopted optimisations the paper references
//! (§6 signed digits, ZPrize batch-affine accumulation, §3.2.3 multi-MSM pipelining) —
//! each implemented functionally in this repository.
fn main() {
    let report = distmsm_bench::runners::run_ablations();
    println!("{report}");
}
