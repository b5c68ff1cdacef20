//! Ablation studies of the adopted optimisations the paper references
//! (§6 signed digits and pipelining, ZPrize batch affine addition) —
//! each implemented functionally in this repository.
fn main() {
    let report = distmsm_bench::runners::run_ablations();
    println!("{report}");
}
