//! # distmsm-service — the multi-tenant prover front-end
//!
//! PR 3 made a *single* MSM survive device loss, stragglers and link
//! faults; this crate moves robustness one layer up, to the system the
//! ROADMAP's north star describes: many concurrent proof requests
//! competing for a shared, partially-degraded GPU pool. Everything runs
//! on the deterministic simulated clock, so a run is a pure function of
//! its inputs and every behaviour is bit-reproducible.
//!
//! Four pieces:
//!
//! * **Admission control & backpressure** ([`admission`]): bounded
//!   per-tenant queues, a typed [`AdmissionError`]
//!   (queue-full / shedding / deadline-infeasible), deadline-aware EDF
//!   dispatch, and an explicit shed policy (pressure thresholds and class
//!   starvation bounds, [`service::SHED_PRESSURE`] and its neighbours)
//!   instead of silent drops.
//! * **Health-gated device pools** ([`breaker`], [`pool`]): per-device
//!   circuit breakers fed by [`MsmError::implicated_devices`] — closed →
//!   open on repeated faults, half-open probation probes on a saturating
//!   backoff schedule, re-admission on probe success — so a flaky
//!   simulated GPU is quarantined instead of poisoning every subsequent
//!   request. Transitions land on the `service` telemetry lane.
//! * **Graceful degradation** ([`service`]): when pressure crosses the
//!   policy threshold, dispatch shrinks partitions (latency traded for
//!   survival); the engine's degraded-collective path handles the
//!   shrunk pool. Everything is accounted in a [`ServiceReport`]
//!   implementing the workspace [`Report`](distmsm::Report) trait.
//! * **Deterministic chaos soak** ([`soak`], `crates/bench/src/bin/soak.rs`):
//!   seeded Poisson-like arrival traces against randomized fault and
//!   link-fault windows for thousands of simulated seconds, with the
//!   service invariants (exactly-once termination, conservation,
//!   bit-exact results, starvation bounds, no dispatch to an open
//!   breaker) checked over the replayable event stream — on the one
//!   soak [`harness`] every soak in the workspace shares (`Violation`,
//!   `Ledger`, `Scenario`, the greedy `shrink` that reduces any
//!   violation to a minimal spec printed as re-runnable flags).
//!
//! [`MsmError::implicated_devices`]: distmsm::MsmError::implicated_devices

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod breaker;
pub mod chaos;
pub mod harness;
pub mod job;
pub mod pool;
pub mod report;
pub mod service;
pub mod soak;
pub mod wal;

pub use admission::{AdmissionError, TenantConfig};
pub use breaker::{BreakerState, CircuitBreaker, PoolTransition};
pub use chaos::{ChaosSchedule, DeviceFaultWindow, LinkFaultWindow};
pub use job::{JobClass, JobSpec, ShedReason};
pub use pool::DevicePool;
pub use report::{ServiceReport, TenantStats};
pub use service::{
    CompletedJob, ProverService, ServiceConfig, ServiceEvent, ServiceEventKind, ServiceOutcome,
    StolenJob,
};
pub use harness::{shrink, Run, Scenario, Violation, Violations};
pub use soak::SoakSpec;
pub use wal::{
    decode_events, recover_state, AdmissionOutcome, BreakerRestore, CompletedEntry, JobEntry,
    JobPhase, RecoveryInfo, ServiceRecord, ServiceShape, ServiceState, ServiceWal, TenantCounters,
};
