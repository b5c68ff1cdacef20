//! # distmsm-analyze — simulated-GPU race detector and kernel linter
//!
//! Static and dynamic analyses over the DistMSM reproduction. The
//! dynamic ones share one **scenario table** ([`harness`]): every named
//! execution — engine kernels and collectives, cuZK, the baseline, five
//! fault plans — runs once with the access trace and a telemetry session
//! on, and each family below reads that one capture.
//!
//! * A **dynamic race detector** ([`race`]): the simulator's
//!   access-trace hook (`distmsm_gpu_sim::trace`)
//!   tags every simulated global/shared read, write and atomic with its
//!   originating device, block, warp and thread plus a synchronisation
//!   phase; a collapsed vector-clock happens-before checker then reports
//!   data races, barrier divergence and atomic hotspots.
//!
//! * A **static kernel linter** ([`lint`]): rule-based checks over the
//!   register-pressure schedules of `distmsm-kernel` — peak liveness vs
//!   device register files, shared-memory fit, dead ops, and
//!   spill/reload consistency replayed from the spill event stream.
//!
//! * One **comm-schedule checker** ([`comm`]): folds contribution masks
//!   over a collective schedule and verifies byte conservation and host
//!   coverage, step ordering and rendezvous deadlock, and port and link
//!   over-subscription (rules `COMM-00x`). `check` runs it on the
//!   schedule each captured report carries (`MsmReport::comm`), `verify`
//!   on every schedule the planner can emit.
//!
//! * A **fault-recovery checker** ([`fault`]): every captured result
//!   must equal the instance's reference value (`FAULT-001`), and the
//!   recovery account of the five seeded fail-stop, link-down, cascade
//!   and bit-flip rows must re-plan with exact coverage and no orphaned
//!   work (`FAULT-002`).
//!
//! * A **fleet-invariant checker** ([`fleet`]): grounds the cross-pod
//!   shard and quarantine re-placement planners against their symbolic
//!   IRs (`FLT-001`), re-runs a byzantine sharded MSM end to end —
//!   detection, quarantine, bit-exact re-placement — (`FLT-003`), and
//!   validates the fleet proofs against a seeded overlapping-shard
//!   mutant (`FLT-900`).
//!
//! * A **telemetry checker** ([`tel`]): verifies that the span timeline
//!   each engine row emitted into its live `distmsm-telemetry` session
//!   is well-nested and sum-consistent with the engine's own phase
//!   report (`TEL-001`), and that the Chrome-trace export round-trips
//!   through the crate's validator (`TEL-002`, also available against
//!   trace files on disk via `distmsm-analyze trace <file>`).
//!
//! * A **static plan verifier** ([`verify`], backed by the [`symbolic`]
//!   prover): proves — for all `N`, window sizes and GPU counts, via
//!   interval + congruence arithmetic over the index-expression IR the
//!   schedule builders emit — that per-device and per-kernel write
//!   regions are pairwise disjoint and cover the bucket space
//!   (`VRF-001`/`VRF-002`), runs the comm-schedule checker over every
//!   collective schedule the planner can emit (`VRF-003` counts them),
//!   and validates itself against a built-in mutant corpus (`VRF-900`).
//!
//! * A **determinism linter** ([`det`]): a lightweight source walk over
//!   the workspace flagging order-sensitive hash-collection iteration,
//!   float-ordering hazards and wall-clock leaks (`DET-001/002/003`).
//!
//! The service, crash and partition properties — the job ledger,
//! open-breaker dispatch, snapshot-versus-replay recovery, epoch
//! fencing — are not re-derived here. Each has one checker, the soak
//! verdict in `distmsm-service` / `distmsm-fleet`, run on the soaks'
//! own traffic (DESIGN.md §20).
//!
//! All report through the shared [`report::Report`] type (stable rule
//! ids, severities, text and JSON rendering). The `distmsm-analyze`
//! binary (`cargo run -p distmsm-analyze -- check`) runs everything and
//! exits non-zero when any warning- or error-level finding survives;
//! `distmsm-analyze verify [--all-presets]` runs just the static
//! proofs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comm;
pub mod det;
pub mod fault;
pub mod fleet;
pub mod harness;
pub mod lint;
pub mod race;
pub mod report;
pub mod symbolic;
pub mod tel;
pub mod verify;

pub use comm::check_schedule;
pub use det::{lint_source, lint_workspace};
pub use fault::check_recovery_report;
pub use fleet::{
    check_byzantine_shard_replay, check_fleet, check_fleet_grounding, check_fleet_mutant,
};
pub use tel::check_trace_file;
pub use race::{check_trace, check_traces, RaceConfig};
pub use report::{Finding, Report, Severity};
pub use verify::{check_grounding, check_mutants, check_verify, verify_plan};
