//! A proving service under pressure: two tenants share a three-GPU
//! pool, one GPU is flaky for the first stretch of the run, and the
//! arrival burst outruns capacity.
//!
//! Watch three mechanisms interact on the deterministic simulated
//! clock:
//!
//! * **Admission control** refuses work at the door once queues fill or
//!   the shed policy's pressure threshold trips, and the **shed policy**
//!   drops queued batch work rather than letting interactive jobs
//!   starve.
//! * The flaky GPU trips its **circuit breaker** (closed → open) after
//!   repeated faults, sits in quarantine on a backoff schedule, then
//!   earns re-admission through a half-open probe once its fault window
//!   has passed — no operator in the loop.
//! * Past the pressure threshold dispatch **degrades** to smaller
//!   partitions, trading per-job latency for pool survival.
//!
//! ```sh
//! cargo run --release --example serve_overload
//! ```

use distmsm_ec::curves::Bn254G1;
use distmsm_ec::MsmInstance;
use distmsm_gpu_sim::FaultKind;
use distmsm_service::{
    ChaosSchedule, DeviceFaultWindow, JobClass, JobSpec, ProverService, ServiceConfig,
    ServiceEventKind, TenantConfig,
};
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    // -- The pool: three GPUs, pairs per job normally, singles under
    //    pressure. Device 2 is flaky for the first 25 simulated seconds.
    let config = ServiceConfig {
        n_devices: 3,
        gpus_per_job: 2,
        tenants: vec![
            TenantConfig::new("alice").with_weight(2.0).with_queue_capacity(6),
            TenantConfig::new("bob").with_queue_capacity(4),
        ],
        ..ServiceConfig::default()
    };
    let chaos = ChaosSchedule {
        device_windows: vec![DeviceFaultWindow {
            device: 2,
            t0_s: 0.0,
            t1_s: 12.0,
            kind: FaultKind::FailStop,
        }],
        link_windows: Vec::new(),
    };

    // -- The workload: an opening burst that outruns the pool (arrivals
    //    far tighter than a service time), then a trickle that lets it
    //    drain and the flaky GPU redeem itself.
    let mut jobs = Vec::new();
    for i in 0..40u64 {
        let burst = i < 30;
        let arrival_s = if burst { 0.0001 * i as f64 } else { 8.0 + 2.5 * (i - 30) as f64 };
        let (tenant, class, deadline_s) = if i % 3 == 0 {
            (0, JobClass::Interactive, Some(arrival_s + 1.5))
        } else {
            (1, JobClass::Batch, None)
        };
        let mut rng = StdRng::seed_from_u64(0xcafe + i);
        jobs.push(JobSpec {
            id: i,
            tenant,
            class,
            arrival_s,
            deadline_s,
            instance: MsmInstance::<Bn254G1>::random(48, &mut rng),
        });
    }

    println!("serve_overload: 40 jobs, 2 tenants, 3 GPUs, device 2 flaky until t=12s\n");
    let mut service = ProverService::new(config);
    let outcome = service.run(jobs, &chaos);

    // -- The narrative: admission verdicts, breaker cycle, degradation.
    println!("event log (admission refusals, sheds, breaker transitions):");
    let mut degraded_dispatches = 0u32;
    for ev in &outcome.events {
        match &ev.kind {
            ServiceEventKind::Rejected { error } => {
                println!("  t={:7.3}s  job {:>2}  REJECTED  {error}", ev.t_s, ev.job.unwrap_or(0));
            }
            ServiceEventKind::Shed { reason } => {
                println!(
                    "  t={:7.3}s  job {:>2}  SHED      {}",
                    ev.t_s,
                    ev.job.unwrap_or(0),
                    reason.label()
                );
            }
            ServiceEventKind::Breaker { transition } => {
                println!(
                    "  t={:7.3}s  device {}  BREAKER   {} -> {} ({})",
                    ev.t_s,
                    transition.device,
                    transition.from.label(),
                    transition.to.label(),
                    transition.cause
                );
            }
            ServiceEventKind::Dispatched { degraded: true, .. } => degraded_dispatches += 1,
            _ => {}
        }
    }
    println!("  ({degraded_dispatches} dispatches used the pressure-degraded partition size)\n");

    let report = &outcome.report;
    print!("{}", report.render());

    let readmitted = outcome.completed.iter().filter(|c| c.used_readmitted_device).count();
    println!(
        "\n{} completed job(s) ran on a re-admitted device after its quarantine — \
         same bit-exact results as a healthy pool.",
        readmitted
    );
    let cycles = report
        .pool_timeline
        .iter()
        .filter(|t| t.cause == "probe-success")
        .count();
    println!(
        "device 2 quarantine/re-admit cycles: {} (final state: {})",
        cycles,
        report.final_states[2].label()
    );
}
