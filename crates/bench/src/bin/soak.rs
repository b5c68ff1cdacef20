//! Deterministic chaos soak of the multi-tenant prover front-end.
//!
//! Replays a seeded arrival trace against a seeded chaos schedule on the
//! simulated clock, checks the service invariants (exactly-once
//! termination, conservation, bit-exact results, starvation bounds, no
//! dispatch to an open breaker, quarantine of the always-faulty device,
//! the completion-rate floor), and on violation shrinks the scenario to
//! a minimal reproducer printed as re-runnable flags. The first stdout
//! line is the spec being run, in the same re-runnable form.
//!
//! ```text
//! soak                  # full acceptance scenario (16 GPUs, 500 jobs, 2000 s)
//! soak --smoke          # bounded CI scenario (~seconds)
//! soak --json out.json  # also write the byte-stable ServiceReport JSON
//! soak --arrival-seed 11 --fault-seed 3 --jobs 120 ...   # explicit spec
//! soak --telemetry t.json   # Chrome-trace export
//! ```
//!
//! Exits non-zero when any invariant is violated.

fn main() {
    distmsm_bench::soak_main::<distmsm_service::SoakSpec>();
}
