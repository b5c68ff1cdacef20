//! Deterministic crash soak of the journaled service/fleet stack.
//!
//! Runs reference soaks to completion, then sweeps crash injection over
//! their durable journals — record-boundary kills, mid-record torn
//! writes, fleet-wide time cuts, and checkpointed giant-MSM resume
//! points — restoring each prefix and checking the crash-consistency
//! invariants over the restored outcome, whose streams start with the
//! durable history: exactly-once termination, no resurrection of
//! terminal jobs, bit-exact results,
//! 2G2T re-verification of restored shard partials, and modelled
//! recovery strictly cheaper than restart-from-scratch.
//!
//! ```text
//! crash_soak                  # full scenario (PR-5/PR-7 soak specs, dense kill grid)
//! crash_soak --smoke          # bounded CI scenario (~seconds)
//! crash_soak --json out.json  # also write the byte-stable CrashReport JSON
//! crash_soak --kill-points 12 --torn-points 6 ...      # explicit spec
//! crash_soak --telemetry t.json   # Chrome-trace export
//! ```
//!
//! The first stdout line is the full spec as re-runnable flags (nested
//! pod and fleet specs under `--service-*` / `--fleet-*`). Exits
//! non-zero when any invariant is violated.

fn main() {
    distmsm_bench::soak_main::<distmsm_fleet::CrashSoakSpec>();
}
