//! Emission helpers targeting the `distmsm-telemetry` session.
//!
//! The engine crate drives the timeline layout (it knows phase start
//! times); these helpers wrap the per-launch and per-fault details that
//! live at the simulator layer — kernel launch statistics as span
//! annotations, a duration histogram across all launches, and fault
//! instant markers with the fault taxonomy's labels.

use crate::cost::LaunchStats;
use crate::fault::FaultEvent;
use distmsm_telemetry::{session, Instant, Lane, Span};

/// Emits one kernel launch as a Device-lane span `[t0_s, t1_s]` with the
/// launch statistics attached as span arguments, and records its
/// duration in the `kernel-dur-us` histogram. No-op when no session is
/// active.
pub fn kernel_span(device: usize, name: &str, cat: &str, t0_s: f64, t1_s: f64, stats: &LaunchStats) {
    if !session::active() {
        return;
    }
    session::push_span(Span {
        name: name.to_string(),
        cat: cat.to_string(),
        lane: Lane::Device(device),
        t0_s,
        t1_s,
        args: vec![
            ("kernel".into(), stats.profile.name.to_string()),
            ("threads".into(), stats.threads.to_string()),
            ("block_size".into(), stats.profile.block_size.to_string()),
            (
                "regs_per_thread".into(),
                stats.profile.regs_per_thread.to_string(),
            ),
            (
                "max_thread_int_ops".into(),
                format!("{}", stats.max_thread.int_ops),
            ),
            (
                "global_atomics".into(),
                format!("{}", stats.total.global_atomics),
            ),
            (
                "distinct_atomic_addrs".into(),
                stats.distinct_atomic_addrs.to_string(),
            ),
            (
                "global_bytes".into(),
                format!("{}", stats.total.global_bytes),
            ),
        ],
    });
    session::record_histogram("kernel-dur-us", (t1_s - t0_s) * 1e6);
    if stats.total.global_atomics > 0.0 {
        session::push_counter(distmsm_telemetry::CounterSample {
            name: "global-atomics".into(),
            lane: Lane::Device(device),
            t_s: t1_s,
            value: stats.total.global_atomics,
        });
    }
}

/// Emits a plain Device-lane span without launch statistics (scatter
/// prepass, bucket-reduce slices and recovery recompute segments carry
/// timing but no [`LaunchStats`]). No-op when no session is active.
pub fn device_span(device: usize, name: &str, cat: &str, t0_s: f64, t1_s: f64) {
    if !session::active() {
        return;
    }
    session::push_span(Span {
        name: name.to_string(),
        cat: cat.to_string(),
        lane: Lane::Device(device),
        t0_s,
        t1_s,
        args: Vec::new(),
    });
}

/// Emits a fault instant marker on the struck device's lane, labelled
/// with the fault taxonomy's stable kind label. No-op when no session is
/// active.
pub fn fault_instant(event: &FaultEvent, t_s: f64) {
    if !session::active() {
        return;
    }
    session::push_instant(Instant {
        name: format!("fault:{}", event.kind.label()),
        cat: "fault".into(),
        lane: Lane::Device(event.device),
        t_s,
        args: vec![
            ("device".into(), event.device.to_string()),
            ("at_event".into(), event.at_event.to_string()),
            ("attempt".into(), event.attempt.to_string()),
        ],
    });
}
