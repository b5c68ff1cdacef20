//! Quickstart: run a multi-scalar multiplication on a simulated 8-GPU
//! DGX with DistMSM and verify the result against a reference.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use distmsm::prelude::*;
use distmsm::{estimate_distmsm, CurveDesc};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // 1. Build an MSM instance: N points on BN254 with random scalars.
    let n = 1 << 14;
    let mut rng = StdRng::seed_from_u64(42);
    println!("Generating {n} BN254 points + scalars ...");
    let instance = MsmInstance::<Bn254G1>::random(n, &mut rng);

    // 2. Run DistMSM on a simulated 8×A100 system. The builder
    //    validates the configuration (window bounds, warp-multiple
    //    block sizes, retry policy) before the engine ever sees it.
    let system = MultiGpuSystem::dgx_a100(8);
    let config = DistMsmConfig::builder().build().expect("defaults are valid");
    let engine = DistMsm::with_config(system.clone(), config);
    let report = engine.execute(&instance).expect("MSM executes");

    // 3. The result is bit-exact: compare with double-and-add.
    assert_eq!(report.result, instance.reference_result());
    println!("result verified against the double-and-add reference ✓");
    println!();
    println!("window size          : {} ({} windows)", report.window_size, report.n_windows);
    println!("simulated wall time  : {:.3} ms", report.total_s * 1e3);
    let p = &report.phases;
    for (phase, seconds) in [
        ("scatter", p.scatter_s),
        ("bucket-sum", p.bucket_sum_s),
        ("bucket-reduce", p.bucket_reduce_s),
        ("window-reduce", p.window_reduce_s),
        ("transfer", p.transfer_s),
    ] {
        println!("  {phase:<19}: {:.3} ms", seconds * 1e3);
    }

    // 4. Paper-scale projection without functional execution.
    let est = estimate_distmsm(1 << 26, &CurveDesc::BN254, &system, &DistMsmConfig::default());
    println!();
    println!(
        "paper-scale projection: N = 2^26 on 8×A100 → {:.2} ms (paper Table 3: 56.15 ms)",
        est.total_s * 1e3
    );
}
