//! # distmsm-analyze — simulated-GPU race detector and kernel linter
//!
//! Two complementary analyses over the DistMSM reproduction:
//!
//! * A **dynamic race detector** ([`race`], driven by [`harness`]): the
//!   simulator's access-trace hook (`distmsm_gpu_sim::trace`)
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
//! * A **comm-schedule checker** ([`comm`]): replays the collective
//!   schedules captured from `distmsm-comms`' trace stream and verifies
//!   byte conservation, deadlock-free step ordering, and link
//!   over-subscription (rules `COMM-00x`).
//!
//! * A **fault-recovery checker** ([`fault`]): injects seeded fail-stop,
//!   link-down, cascade and bit-flip faults into the engine and verifies
//!   byte conservation under replay (`FAULT-001`) and exact re-plan
//!   coverage with no orphaned work (`FAULT-002`).
//!
//! * A **fleet-invariant checker** ([`fleet`]): grounds the cross-pod
//!   shard and quarantine re-placement planners against their symbolic
//!   IRs (`FLT-001`), replays the 2G2T blinded-twin outsourcing check
//!   over seeded corruptions (`FLT-002`), re-runs a byzantine sharded
//!   MSM end to end — detection, quarantine, bit-exact re-placement —
//!   (`FLT-003`), and validates the fleet proofs against a seeded
//!   overlapping-shard mutant (`FLT-900`).
//!
//! * A **service-invariant checker** ([`svc`]): runs seeded chaos
//!   soaks of the `distmsm-service` front-end and replays the event
//!   streams for conservation of admitted jobs (`SVC-001`) and the
//!   no-dispatch-to-an-open-breaker health gate (`SVC-002`).
//!
//! * A **crash-consistency checker** ([`ckpt`]): journals a seeded
//!   chaos soak through the service WAL and probes its recovery
//!   contract — snapshot-plus-tail replay idempotence (`CKPT-001`),
//!   exactly-once termination across a restart (`CKPT-002`), torn-tail
//!   tolerate-and-report vs strict rejection (`CKPT-003`), and a
//!   journal mutant corpus (dropped/duplicated record, stale-epoch
//!   snapshot, CRC-skipped tail — `CKPT-900`).
//!
//! * A **partition-tolerance checker** ([`part`]): journals a seeded
//!   partitioned fleet scenario and replays its fencing contract —
//!   epoch monotonicity through an independent automaton (`PART-001`),
//!   anti-entropy rejoin idempotence (`PART-002`),
//!   no-completion-from-an-expired-lease (`PART-003`), and a fencing
//!   mutant corpus (stale-epoch acceptance, lease renewed after
//!   expiry, double absorb on heal, fence-epoch skip — `PART-900`).
//!
//! * A **telemetry checker** ([`tel`]): runs the engine with a live
//!   `distmsm-telemetry` session and verifies the emitted span timeline
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
//!   (`VRF-001`/`VRF-002`), statically checks every collective
//!   schedule the planner can emit for deadlock-freedom, port
//!   feasibility and host coverage (`VRF-003`), and validates itself
//!   against a built-in mutant corpus (`VRF-900`).
//!
//! * A **determinism linter** ([`det`]): a lightweight source walk over
//!   the workspace flagging order-sensitive hash-collection iteration,
//!   float-ordering hazards and wall-clock leaks (`DET-001/002/003`).
//!
//! All report through the shared [`report::Report`] type (stable rule
//! ids, severities, text and JSON rendering). The `distmsm-analyze`
//! binary (`cargo run -p distmsm-analyze -- check`) runs everything and
//! exits non-zero when any warning- or error-level finding survives;
//! `distmsm-analyze verify [--all-presets]` runs just the static
//! proofs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ckpt;
pub mod comm;
pub mod det;
pub mod fault;
pub mod fleet;
pub mod harness;
pub mod lint;
pub mod part;
pub mod race;
pub mod report;
pub mod svc;
pub mod symbolic;
pub mod tel;
pub mod verify;

pub use ckpt::{
    check_ckpt, check_exactly_once, check_journal_mutants, check_replay_idempotence,
    check_torn_tail,
};
pub use comm::{check_comm_schedules, check_schedule};
pub use det::{lint_source, lint_workspace};
pub use fault::{check_fault_recovery, check_recovery_report};
pub use fleet::{
    check_byzantine_shard_replay, check_fleet, check_fleet_grounding, check_fleet_mutant,
    check_outsourcing_soundness,
};
pub use part::{
    check_fencing_monotonicity, check_fencing_mutants, check_no_expired_acceptance,
    check_part, check_rejoin_idempotence,
};
pub use svc::{check_conservation, check_open_dispatch, check_svc};
pub use tel::{check_telemetry, check_trace_file};
pub use race::{check_trace, check_traces, RaceConfig};
pub use report::{Finding, Report, Severity};
pub use verify::{check_grounding, check_mutants, check_schedule_static, check_verify, verify_plan};
