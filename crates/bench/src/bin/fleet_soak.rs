//! Deterministic soak of the multi-pod fleet coordinator.
//!
//! Replays a seeded arrival trace against per-pod chaos schedules plus
//! the pod-level fault classes — whole-pod loss and a byzantine pod —
//! on the simulated clock, checks the fleet invariants (exactly-once
//! verified termination, conservation, bit-exact accepted results,
//! starvation bounds under stealing, quarantine of the byzantine pod,
//! the pod-loss guarantees, the verified completion-rate floor), and on
//! violation shrinks the scenario to a minimal reproducer printed as
//! re-runnable flags (the first stdout line is the spec, same form).
//!
//! ```text
//! fleet_soak                  # full scenario (4 pods × 8 GPUs, 4000 jobs, 2048 tenants)
//! fleet_soak --smoke          # bounded CI scenario (4 pods × 4 GPUs, 1200 jobs, 1024 tenants)
//! fleet_soak --json out.json  # also write the byte-stable FleetReport JSON
//! fleet_soak --arrival-seed 11 --fault-seed 3 --jobs 120 ...   # explicit spec
//! fleet_soak --telemetry t.json   # (telemetry builds) Chrome-trace export
//! ```
//!
//! Exits non-zero when any invariant is violated.

fn main() {
    distmsm_bench::soak_main::<distmsm_fleet::FleetSoakSpec>();
}
