//! # distmsm-fleet — multi-pod placement and 2G2T-verified outsourcing
//!
//! PR 5 made one *pod* (a bounded GPU pool behind admission control)
//! survive multi-tenant pressure; this crate moves scheduling one layer
//! up again, to a **fleet** of pods behind a global coordinator. Three
//! capabilities, all on the deterministic simulated clock:
//!
//! * **Giant-MSM sharding** ([`shard`]): a single `2^26`-class MSM is
//!   split across pods with the quota-tile plan
//!   [`distmsm::shard_points`], each pod computes its shard's
//!   window-partial vector locally, and the cross-pod reduce tree runs
//!   over the NIC tier ([`Topology::fleet`]) using the PR 2 collective
//!   schedule builders. The shard plan ships its symbolic `PlanIr`
//!   ([`distmsm::fleet_shard_ir`]), so the PR 6 static verifier proves
//!   cover/disjointness for the cross-pod tiles exactly as it does for
//!   on-device plans.
//! * **Global placement & work stealing** ([`fleet`]): jobs are placed
//!   on the least-loaded pod, and idle pods steal the earliest-deadline
//!   queued job from overloaded ones, so EDF order is preserved
//!   *globally*, not just per pod.
//! * **Verified outsourcing** ([`outsource`]): remote pods are
//!   untrusted. Following 2G2T's twin query, the coordinator holds one
//!   secret key per base set — `k`, `ρ` and the twin bases
//!   `Tᵢ = k·Pᵢ + ρᵢ·G` — sends each job's scalars over both `P` and
//!   `T`, and accepts only if the two returned points satisfy
//!   `S2 = k·S1 + ⟨x, ρ⟩·G`. A byzantine pod (bit-flip, swapped shard,
//!   zeroed partial, adaptive shift) is *detected* — a failure class on
//!   top of the engine's fail-stop recovery — then quarantined, and its work
//!   re-placed on healthy pods.
//!
//! The deterministic fleet soak ([`soak`],
//! `crates/bench/src/bin/fleet_soak.rs`) drives 1000+ tenants across
//! four pods through whole-pod loss and a seeded byzantine pod, and
//! checks fleet-scope invariants (exactly-once, conservation, bit-exact
//! results, quarantine, completion floor) over the merged event streams
//! and the fencing rules over the coordinator journal. These soak
//! verdicts are the one checker of each property.
//!
//! [`Topology::fleet`]: distmsm_comms::Topology::fleet

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crash;
pub mod estimate;
pub mod fleet;
pub mod membership;
pub mod outsource;
pub mod partition;
pub mod report;
pub mod shard;
pub mod soak;
pub mod wal;

pub use crash::{CrashReport, CrashSoakSpec, RECOVERY_WIN_MIN_SCRATCH_S};
pub use estimate::{estimate_fleet_msm, FleetMsmEstimate};
pub use fleet::{
    AcceptedJob, FleetChaos, FleetConfig, FleetCoordinator, FleetOutcome, FleetRecoveryInfo,
};
pub use membership::{LeaseState, Membership, MembershipAction};
pub use outsource::{Corruption, OutsourcedResult, TwinKey};
pub use partition::{PartitionReport, PartitionSoakSpec};
pub use report::{FleetReport, PodStats};
pub use shard::{execute_sharded, ShardExecution, ShardedMsmConfig, ShardedMsmReport};
pub use wal::{recover_fleet_state, AcceptedEntry, FleetRecord, FleetState, FleetWal};
pub use soak::FleetSoakSpec;
