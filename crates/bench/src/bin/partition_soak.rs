//! Deterministic partition soak of the leased, epoch-fenced fleet.
//!
//! Sweeps link-partition windows (symmetric and asymmetric, varying
//! heal times) crossed with a concurrent whole-pod loss over the
//! coordinator's heartbeat leases, and checks the partition-tolerance
//! invariants: exactly-once acceptance under fencing, no acceptance
//! from expired leases, replayable anti-entropy rejoin, availability
//! floors, and byte-stable reports.
//!
//! ```text
//! partition_soak                  # full scenario grid
//! partition_soak --smoke          # bounded CI scenario (~seconds)
//! partition_soak --json out.json  # also write the byte-stable PartitionReport JSON
//! partition_soak --seeds 3 --windows 4 ...   # explicit spec
//! partition_soak --telemetry t.json   # (telemetry builds) Chrome-trace export
//! ```
//!
//! The first stdout line is the full spec as re-runnable flags (the
//! fleet base under `--fleet-*`). Exits non-zero when any invariant is
//! violated.

fn main() {
    distmsm_bench::soak_main::<distmsm_fleet::PartitionSoakSpec>();
}
