//! One-import surface for typical engine users:
//! `use distmsm::prelude::*;` brings in the curves, the instance type,
//! the engine with its configuration builder, its report, and the
//! error/fault vocabulary — everything the quickstart example touches,
//! nothing internal.

pub use crate::config::{ConfigError, DistMsmConfigBuilder};
pub use crate::engine::{DistMsm, DistMsmConfig, MsmError, MsmReport, PhaseBreakdown};
pub use crate::scatter::ScatterKind;
pub use crate::supervisor::{FaultObservation, RecoveryReport, RetryPolicy};
pub use distmsm_comms::CollectiveStrategy;
pub use distmsm_ec::curves::{Bls12381G1, Bn254G1, Mnt4753G1};
pub use distmsm_ec::{Curve, MsmInstance, XyzzPoint};
pub use distmsm_gpu_sim::{FaultEvent, FaultKind, FaultPlan, LinkFault, MultiGpuSystem};
