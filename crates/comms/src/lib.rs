//! `distmsm-comms` — topology-aware interconnect model and bit-exact EC
//! collectives for the DistMSM reproduction.
//!
//! The paper's 16- and 32-GPU configurations span multiple DGX boxes, so
//! the shape of the scaling curve depends on *where* the node boundaries
//! fall, not just on aggregate bandwidth. This crate provides:
//!
//! * [`topology`] — an explicit interconnect graph (GPU, NVSwitch, PCIe
//!   hub, host, and NIC nodes; links with bandwidth and latency) with
//!   deterministic shortest-path routing and presets for a single
//!   DGX-A100 box, a PCIe-only RTX 4090 box, and multi-node DGX pods
//!   over InfiniBand.
//! * [`schedule`] — collectives lowered to step/flow schedules costed
//!   under an α–β (latency + inverse-bandwidth) model with chunked
//!   store-and-forward pipelining and per-link contention metering, plus
//!   a capture-gated trace stream for `distmsm-analyze`.
//! * [`collective`] — host-gather, ring all-reduce, binomial-tree
//!   all-reduce, and reduce-scatter+gather strategies that execute the
//!   reduction *for real* over any element type (the engine passes EC
//!   PADD on `XyzzPoint`), so every strategy is verifiable bit-exact
//!   against a serial reduction while emitting the schedule that an
//!   analytic model can cost without data.
//!
//! The crate has no dependencies; element types and reduce ops are
//! supplied by callers, which keeps `ec → comms` coupling out of the
//! workspace graph.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collective;
pub mod partition;
pub mod schedule;
pub mod topology;

pub use collective::{
    chunk_range, gather_to_host, plan_collective, run_collective, CollectiveStrategy,
};
pub use schedule::{
    CommConfig, CommSchedule, CommStep, Endpoint, Fabric, Flow, LinkId, LinkLoad, PathCost,
    PathLink,
};
pub use partition::{PartitionDirection, PartitionSchedule, PartitionWindow};
pub use topology::{Link, LinkRates, Node, NodeKind, Route, RouteError, Topology};
