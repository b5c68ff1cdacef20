//! # distmsm — multi-scalar multiplication for distributed multi-GPU systems
//!
//! A from-scratch reproduction of **DistMSM** (Ji, Zhang, Xu, Ju:
//! *Accelerating Multi-Scalar Multiplication for Efficient Zero Knowledge
//! Proofs with Multi-GPU Systems*, ASPLOS 2024) on a simulated multi-GPU
//! substrate. The algorithms execute bit-exactly on host threads; timing
//! comes from the metered cost model in `distmsm-gpu-sim`.
//!
//! The paper's pieces map to modules:
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1 per-thread workload model, window-size choice | [`workload`] |
//! | §3.2.1 three-level hierarchical bucket scatter | [`scatter`] |
//! | §3.2.2 multi-thread-per-bucket bucket-sum, flexible slicing | [`bucket_sum`], [`plan`] |
//! | §3.2.3 CPU bucket-reduce | [`reduce`] |
//! | Figure 1 end-to-end engine; §3.1 window partials ([`MsmReport::window_partials`]) | [`engine`]: the stage sequence of `execute_attempt`, with submodules `report` (report and error types), `slices` (slice execution on host workers) and `timing` (one price per slice, the timing composition, the telemetry layout) |
//! | resumable execution in checkpointed window batches | [`checkpoint`] |
//! | §5 baselines ("BG", NO-OPT) | [`baseline`] |
//! | paper-scale (2^22–2^28) timing | [`analytic`] |
//! | signed-digit recoding (adopted technique, §6) | [`signed`] |
//! | cuZK-style sparse-matrix MSM (baseline #2) | [`cuzk`] |
//! | multi-MSM pipelining (§3.2.3) | [`pipeline`] |
//! | topology-routed gathers and collectives (multi-node scaling) | [`comm`] |
//! | fault supervision: re-plan rounds, RLC self-check, straggler detection | [`supervisor`] |
//!
//! Cross-cutting surfaces: [`prelude`] (one-import user API), [`config`]
//! ([`DistMsmConfig`] and its validating [`DistMsmConfigBuilder`]),
//! [`report`] (the byte-stable JSON layout of every golden artefact).
//!
//! ## Example
//!
//! ```
//! use distmsm::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let instance = MsmInstance::<Bn254G1>::random(256, &mut rng);
//! let config = DistMsmConfig::builder().window_size(8).build()?;
//! let engine = DistMsm::with_config(MultiGpuSystem::dgx_a100(8), config);
//! let report = engine.execute(&instance)?;
//! assert_eq!(report.result, instance.reference_result());
//! println!("simulated time: {:.3} ms", report.total_s * 1e3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytic;
pub mod baseline;
pub mod bucket_sum;
pub mod checkpoint;
pub mod comm;
pub mod config;
pub mod cuzk;
pub mod engine;
pub mod pipeline;
pub mod plan;
pub mod prelude;
pub mod reduce;
pub mod report;
pub mod scatter;
pub mod signed;
pub mod supervisor;
pub mod workload;

pub use analytic::{estimate_best_baseline, estimate_distmsm, CurveDesc, MsmEstimate};
pub use baseline::BestGpuBaseline;
pub use checkpoint::{
    estimate_checkpoint_recovery, CheckpointConfig, CheckpointError, CheckpointRecoveryEstimate,
    WindowCheckpoint, WindowedMsmReport,
};
pub use config::{ConfigError, DistMsmConfig, DistMsmConfigBuilder, BLOCK_SIZE};
pub use distmsm_comms::CollectiveStrategy;
pub use engine::{partition_plan, window_shape, DistMsm, MsmError, MsmReport, PhaseBreakdown};
pub use plan::{
    fleet_replace_ir, fleet_shard_ir, partition_ir, plan_slices_with_ir, replace_assignments,
    replan_ir, shard_points, shard_points_with_ir, window_merge_ir,
};
pub use scatter::ScatterKind;
pub use supervisor::{FaultObservation, RecoveryReport, RetryPolicy};
pub use workload::WorkloadParams;
