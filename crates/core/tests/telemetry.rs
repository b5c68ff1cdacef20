//! Telemetry integration tests: span nesting and sum-consistency of the
//! engine's live emission, and a byte-exact golden Chrome-trace export
//! for a seeded 4-GPU run with one injected fail-stop.
//!
//! The emission is a pure function of the simulated timing model, so
//! the exported JSON is deterministic down to the byte; the golden file
//! (`tests/golden/telemetry_4gpu_fault.json`) pins it. Regenerate after
//! an intentional timing or emission change with:
//!
//! ```text
//! BLESS=1 cargo test -p distmsm --test telemetry
//! ```

use distmsm::prelude::*;
use distmsm_telemetry::{session, to_chrome_trace};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::{Mutex, OnceLock};

/// The process-global telemetry session admits one recording at a time.
fn session_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// The golden scenario: 4 GPUs, window 8, 256 seeded points, one
/// fail-stop on GPU 2 at its first slice.
fn golden_run() -> (distmsm_telemetry::Timeline, MsmReport<Bn254G1>) {
    let mut rng = StdRng::seed_from_u64(42);
    let inst = MsmInstance::<Bn254G1>::random(256, &mut rng);
    let config = DistMsmConfig::builder()
        .window_size(8)
        .fault_plan(FaultPlan::fail_stop(2, 0))
        .build()
        .expect("valid config");
    session::begin();
    let report = DistMsm::with_config(MultiGpuSystem::dgx_a100(4), config)
        .execute(&inst)
        .expect("seeded fail-stop recovers");
    (session::end(), report)
}

#[test]
fn spans_nest_and_sum_to_report_phases() {
    let _guard = session_lock();
    let (tl, rep) = golden_run();
    tl.check_well_nested().expect("spans must nest per lane");
    for (name, want) in [
        ("scatter", rep.phases.scatter_s),
        ("bucket-sum", rep.phases.bucket_sum_s),
        ("bucket-reduce", rep.phases.bucket_reduce_s),
        ("window-reduce", rep.phases.window_reduce_s),
        ("transfer", rep.phases.transfer_s),
    ] {
        let got = tl.category_s(name);
        assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1e-12),
            "{name}: span sum {got} vs report {want}"
        );
    }
    let rec = rep.recovery.as_ref().expect("supervised run");
    let got = tl.category_s("recovery");
    assert!(
        (got - rec.recovery_s()).abs() <= 1e-9 * rec.recovery_s().max(1e-12),
        "recovery: span sum {got} vs report {}",
        rec.recovery_s()
    );
    assert!(
        tl.extent_s() <= rep.total_s * (1.0 + 1e-9),
        "timeline extent {} must not pass total {}",
        tl.extent_s(),
        rep.total_s
    );
    assert!(
        tl.instants
            .iter()
            .any(|i| i.cat == "fault" && i.name == "fault:fail-stop"),
        "the injected fail-stop must appear as an instant"
    );
}

#[test]
fn golden_chrome_trace_is_byte_stable() {
    let _guard = session_lock();
    let (tl, _) = golden_run();
    let json = to_chrome_trace(&tl);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/telemetry_4gpu_fault.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists — BLESS=1 to create");
    assert_eq!(
        json, golden,
        "exported trace drifted from the golden file; if the timing or \
         emission change is intentional, regenerate with BLESS=1"
    );
}

#[test]
fn sequential_msms_lay_out_end_to_end() {
    let _guard = session_lock();
    let mut rng = StdRng::seed_from_u64(43);
    let inst = MsmInstance::<Bn254G1>::random(128, &mut rng);
    let engine = DistMsm::new(MultiGpuSystem::dgx_a100(2));
    session::begin();
    let first = engine.execute(&inst).expect("first MSM");
    let mid = session::clock_s();
    let second = engine.execute(&inst).expect("second MSM");
    let tl = session::end();
    assert!((mid - first.total_s).abs() < 1e-12, "clock advances by total_s");
    let extent = tl.extent_s();
    let want = first.total_s + second.total_s;
    assert!(
        (extent - want).abs() <= 1e-9 * want,
        "two MSMs extend to {extent}, want {want}"
    );
}

#[test]
fn nothing_is_recorded_unless_a_capture_was_begun() {
    let _guard = session_lock();
    let mut rng = StdRng::seed_from_u64(44);
    let inst = MsmInstance::<Bn254G1>::random(128, &mut rng);
    DistMsm::new(MultiGpuSystem::dgx_a100(2)).execute(&inst).expect("MSM");
    assert!(distmsm_gpu_sim::trace::end_capture().is_empty());
    assert!(distmsm_comms::schedule::trace::end_capture().is_empty());
    assert_eq!(session::end(), distmsm_telemetry::Timeline::default());
}
