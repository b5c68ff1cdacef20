//! # distmsm-gpu-sim — multi-GPU simulator substrate
//!
//! The DistMSM paper (ASPLOS '24) evaluates on 8–32 Nvidia A100s. This
//! reproduction has no GPUs, so the algorithms execute **functionally** on
//! host threads while this crate supplies the **analytical half** of the
//! simulation:
//!
//! * [`DeviceSpec`] — the hardware quantities the paper reasons with
//!   (SM count, register file, shared memory, int32/int8-TC throughput,
//!   HBM bandwidth), with presets for the three GPUs of Figure 9;
//! * [`ThreadCost`] / [`LaunchStats`] — per-simulated-thread event metering
//!   recorded by the functional runs;
//! * [`estimate_kernel_time`] — the cost model mapping metered events to
//!   seconds (critical-thread workload, atomic contention, occupancy,
//!   tensor-core overlap);
//! * [`MultiGpuSystem`] — device pools, host CPU and interconnect.
//!
//! The model deliberately follows the paper's own analysis (§3.1, §4.2,
//! §4.3) so that reproduced experiments inherit its first-order behaviour:
//! per-thread critical paths, atomic serialisation under contention, and
//! register-pressure-driven occupancy.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod device;
pub mod fault;
pub mod system;
pub mod telemetry;
pub mod trace;

pub use cost::{
    estimate_kernel_time, CostModelConfig, KernelProfile, KernelTime, LaunchStats, ThreadCost,
};
pub use device::DeviceSpec;
pub use fault::{FaultEvent, FaultKind, FaultPlan, LinkFault};
pub use system::{CpuSpec, MultiGpuSystem};
