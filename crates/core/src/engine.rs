//! The DistMSM execution engine.
//!
//! Orchestrates the full pipeline of Figure 1 over a simulated
//! [`MultiGpuSystem`]: window/bucket-slice planning, per-GPU bucket
//! scatter and bucket-sum (executed functionally, in parallel on host
//! threads), CPU (or GPU) bucket-reduce, and window-reduce — composing
//! the metered kernel statistics into a wall-time estimate.
//!
//! [`DistMsm::execute_attempt`] runs that pipeline as a sequence of
//! stages, each deciding one thing once: the launch (shape, recoding,
//! kernel model); the supervisor's rounds ([`crate::supervisor`]), the
//! primary pass being round 0; its RLC self-check; one price per slice;
//! the window partials and the schedule that moved them; the timing
//! composition; straggler detection; and the telemetry timeline, laid out
//! from that same timing. Its pieces live in three submodules: `report`
//! (the report and error types), `slices` (slice execution on host
//! workers) and `timing` (prices, composition, telemetry).

mod report;
mod slices;
mod timing;

pub use crate::config::DistMsmConfig;
pub use report::{MsmError, MsmReport, PhaseBreakdown};
pub(crate) use slices::{gpu_threads, Jobs, Launch, SliceOutcome};
pub(crate) use timing::{compose_timing, PhaseTimes};

use crate::analytic::{CurveDesc, MsmEstimate};
use crate::plan::Slice;
use crate::reduce::{cpu_seconds_for_padds, window_reduce};
use crate::supervisor::{RecoveryReport, Supervisor};
use distmsm_comms::{gather_to_host, run_collective, CommConfig, CommSchedule};
use distmsm_ec::{Affine, Curve, MsmInstance, XyzzPoint};
use distmsm_gpu_sim::{CostModelConfig, MultiGpuSystem};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};
use timing::ComposedTiming;

/// Window/bucket shape of a plan: `(n_windows, n_buckets)` for scalar
/// width `scalar_bits`, window size `s`, and digit encoding. Signed
/// digits add one carry window and halve the bucket count (§3.1); this
/// is the single source of truth the engine, the analytic model, and
/// the `distmsm-analyze verify` grounding pass all share.
pub fn window_shape(scalar_bits: u32, s: u32, signed_digits: bool) -> (u32, u32) {
    if signed_digits {
        (scalar_bits.div_ceil(s) + 1, (1u32 << (s - 1)) + 1)
    } else {
        (scalar_bits.div_ceil(s), 1u32 << s)
    }
}

/// The engine's partition plan plus its symbolic description: the
/// concrete [`Slice`]s of [`plan_slices`](crate::plan::plan_slices), the
/// [`PlanIr`](distmsm_kernel::ir::PlanIr)
/// (quota tiling over the flat `W·B` bucket range) and the concrete
/// symbol environment for grounding. This is the exact planning path
/// [`DistMsm::execute`] runs — exposed so `distmsm-analyze verify` can
/// prove and cross-check the very plan the engine would execute.
pub fn partition_plan(
    scalar_bits: u32,
    s: u32,
    signed_digits: bool,
    n_gpus: usize,
) -> (
    Vec<Slice>,
    distmsm_kernel::ir::PlanIr,
    std::collections::BTreeMap<distmsm_kernel::ir::Sym, i128>,
) {
    let (n_windows, n_buckets) = window_shape(scalar_bits, s, signed_digits);
    crate::plan::plan_slices_with_ir(n_windows, n_buckets, n_gpus)
}

/// How many `(n, curve)` shapes an engine remembers estimates for. A
/// prover sees a handful (Groth16: five MSM shapes over two curves; the
/// fleet's checker: one curve, job sizes within a factor of two).
const PLAN_MEMO_CAPACITY: usize = 64;

/// Host-side memo of [`estimate_distmsm`](crate::analytic::estimate_distmsm)
/// answers for one engine, oldest first. The estimate is a pure function
/// of `(n, curve)` and the engine's immutable system and configuration,
/// so a hit returns the bits a fresh estimate would: the simulated clock
/// cannot observe the memo. Bounded, first-in first-out, scanned linearly.
#[derive(Default)]
struct PlanMemo(Mutex<VecDeque<((u64, CurveDesc), MsmEstimate)>>);

impl PlanMemo {
    /// Every update is one complete `push_back`/`pop_front`, so the queue
    /// is valid even behind a lock poisoned by a panicking estimate.
    fn lock(&self) -> MutexGuard<'_, VecDeque<((u64, CurveDesc), MsmEstimate)>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for PlanMemo {
    /// A cloned engine starts with an empty memo.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl core::fmt::Debug for PlanMemo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("PlanMemo")
    }
}

/// The DistMSM engine bound to a system description.
#[derive(Clone, Debug)]
pub struct DistMsm {
    system: MultiGpuSystem,
    config: DistMsmConfig,
    cost_cfg: CostModelConfig,
    plans: PlanMemo,
}

impl DistMsm {
    /// Creates an engine with the default configuration.
    pub fn new(system: MultiGpuSystem) -> Self {
        Self::with_config(system, DistMsmConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(system: MultiGpuSystem, config: DistMsmConfig) -> Self {
        Self {
            system,
            config,
            cost_cfg: CostModelConfig::default(),
            plans: PlanMemo::default(),
        }
    }

    /// The system this engine runs on.
    pub fn system(&self) -> &MultiGpuSystem {
        &self.system
    }

    /// The active configuration.
    pub fn config(&self) -> &DistMsmConfig {
        &self.config
    }

    /// The analytic estimate for an `n`-point MSM on this engine, derived
    /// once per `(n, curve)` and then remembered. The lock is held across
    /// a miss, so two threads never derive the same shape twice.
    fn estimate(&self, n: usize, curve: &CurveDesc) -> MsmEstimate {
        let key = (n as u64, *curve);
        let mut plans = self.plans.lock();
        if let Some((_, hit)) = plans.iter().find(|(k, _)| *k == key) {
            return hit.clone();
        }
        let fresh = crate::analytic::estimate_distmsm(key.0, curve, &self.system, &self.config);
        if plans.len() == PLAN_MEMO_CAPACITY {
            plans.pop_front();
        }
        plans.push_back((key, fresh.clone()));
        fresh
    }

    /// Chooses the window size: explicit config, or the minimiser of the
    /// engine's own cost estimate (which — unlike the raw §3.1 op count —
    /// accounts for the CPU bucket-reduce, pushing multi-GPU runs to the
    /// small windows of §3.2).
    pub fn window_size_for(&self, n: usize, curve: &CurveDesc) -> u32 {
        self.config
            .window_size
            .unwrap_or_else(|| self.estimate(n, curve).window_size)
    }

    /// `(s, n_windows, n_buckets)` for an `n`-point MSM on this engine: its
    /// window size and digit encoding through [`window_shape`].
    pub(crate) fn shape_for(&self, n: usize, curve: &CurveDesc) -> (u32, u32, u32) {
        let s = self.window_size_for(n, curve);
        let (n_windows, n_buckets) = window_shape(curve.scalar_bits, s, self.config.signed_digits);
        (s, n_windows, n_buckets)
    }

    /// Job-level admission estimate: the analytic cost-model projection
    /// for an `n`-point MSM on this engine's system and configuration,
    /// in simulated seconds, without executing anything. Service
    /// front-ends use this to price deadline feasibility before
    /// admitting a job (`distmsm-service`'s
    /// `AdmissionError::DeadlineInfeasible`).
    pub fn estimate_seconds(&self, n: usize, curve: &CurveDesc) -> f64 {
        self.estimate(n, curve).total_s
    }

    /// Executes an MSM, returning the verified-exact result and the
    /// simulated timing. Equivalent to [`Self::execute_attempt`] on
    /// attempt 0.
    ///
    /// # Errors
    ///
    /// [`MsmError::ScatterOverflow`] when a forced hierarchical scatter
    /// does not fit in shared memory; [`MsmError::EmptyInstance`] for
    /// zero-length input and [`MsmError::LengthMismatch`] for unequal point
    /// and scalar counts; [`MsmError::SliceLost`] when a slice's kernel
    /// code panicked; under a fault plan, the fault-class errors of
    /// [`MsmError`] when recovery is impossible (no survivors, total
    /// fabric partition, exhausted retry budget, SLA-breaching
    /// straggler).
    pub fn execute<C: Curve>(&self, instance: &MsmInstance<C>) -> Result<MsmReport<C>, MsmError> {
        self.execute_attempt(instance, 0)
    }

    /// Executes an MSM as service-level attempt `attempt`. Fault-plan
    /// events are attempt-scoped: an event planned for attempt 0 stays
    /// quiet on attempt 1, so a caller-level retry (e.g. the Groth16
    /// prover after [`MsmError::is_fault`]) models a transient fault
    /// clearing while re-running the same attempt reproduces it
    /// bit-for-bit.
    pub fn execute_attempt<C: Curve>(
        &self,
        instance: &MsmInstance<C>,
        attempt: u32,
    ) -> Result<MsmReport<C>, MsmError> {
        self.execute_borrowed(&instance.points, &instance.scalars, attempt)
    }

    /// [`Self::execute_attempt`] over bases and scalars the caller already
    /// holds: nothing is copied, so a prover runs its proving key's
    /// queries in place.
    ///
    /// # Errors
    ///
    /// As [`Self::execute`].
    pub fn execute_borrowed<C: Curve>(
        &self,
        points: &[Affine<C>],
        scalars: &[C::Scalar],
        attempt: u32,
    ) -> Result<MsmReport<C>, MsmError> {
        let launch = self.launch(points, scalars)?;
        let (s, n_windows) = (launch.s, launch.n_windows);
        let cpu_s = |ops| cpu_seconds_for_padds(ops, &launch.model, self.system.cpu.int_ops_per_sec);

        // Link faults damage a copy of the system; every route and
        // schedule below re-prices against the degraded fabric.
        let link_faults = &self.config.fault_plan.link_faults;
        let degraded_sys;
        let system = if link_faults.is_empty() {
            &self.system
        } else {
            degraded_sys = self.system.degraded(link_faults);
            &degraded_sys
        };

        let mut sup = Supervisor::new(&self.config, attempt, n_windows, launch.n_buckets);
        let (ran, primaries) = sup.run_rounds(self, &launch, system)?;
        sup.self_check(&ran, &launch.model, self.system.cpu.int_ops_per_sec)?;
        let (dev, launches) = self.device_times(&launch, &ran, primaries, &sup);
        let Gathered { windows: window_partials, comm, cpu_padds, checkpoint_s, degraded } =
            self.window_partials(&ran, n_windows, system, &sup);
        let (result, wr_ops) = window_reduce(&window_partials, s);

        let times = PhaseTimes {
            scatter_per_gpu: &dev.scatter_per_gpu,
            sum_per_gpu: &dev.sum_per_gpu,
            gpu_reduce_per_gpu: &dev.gpu_reduce_per_gpu,
            cpu_reduce_s: cpu_s(cpu_padds),
            // host-side combines implied by the collective (e.g.
            // host-gather reduces (g−1)·n_windows pairs on the CPU)
            comm_host_s: cpu_s(comm.host_reduce_ops),
            window_reduce_s: cpu_s(wr_ops),
            transfer_s: comm.total_s,
        };
        let ComposedTiming { per_gpu_s, phases, total_s, at } =
            compose_timing(&self.config, n_windows, &times);
        sup.detect_stragglers(&per_gpu_s)?;
        let recovery = sup.finish(dev.recompute_s(), checkpoint_s, degraded);
        // recovery runs as a serial phase after detection: probes back
        // off, survivors recompute, the self-check and checkpoints guard
        let total_s = total_s + recovery.as_ref().map_or(0.0, RecoveryReport::recovery_s);

        let report = MsmReport {
            result,
            window_partials,
            window_size: s,
            n_windows,
            phases,
            total_s,
            per_gpu_s,
            launches,
            comm: Some(comm),
            recovery,
        };
        if distmsm_telemetry::session::active() {
            self.emit_telemetry(&report, &ran[..primaries], &dev, &times, at, attempt);
        }
        Ok(report)
    }

    /// The host's window partials and what moving them there took. Every
    /// slice arrives reduced with its offset (by the worker that summed
    /// it), and slices of one window compose additively. On the CPU path
    /// the host gathers every slice's partial and folds per window; on the
    /// GPU path each GPU folds its own, and the configured collective
    /// merges the per-GPU vectors.
    fn window_partials<C: Curve>(
        &self,
        ran: &[SliceOutcome<C>],
        n_windows: u32,
        system: &MultiGpuSystem,
        sup: &Supervisor<'_>,
    ) -> Gathered<C> {
        let n_gpus = system.n_gpus();
        let point_bytes = CurveDesc::of::<C>().xyzz_bytes();
        if self.config.bucket_reduce_on_cpu {
            let mut windows = vec![XyzzPoint::<C>::identity(); n_windows as usize];
            let mut cpu_padds = 0;
            for oc in ran {
                let w = &mut windows[oc.slice.window as usize];
                *w = w.padd(&oc.contrib.0);
                cpu_padds += oc.contrib.1 + 1;
            }
            // every bucket partial crosses to the host before the CPU
            // reduce; the gather covers the slices that completed,
            // shipped by whoever computed them (the plan itself, in plan
            // order, when nothing was lost)
            let comm = crate::comm::bucket_gather_schedule(sup.completed(), point_bytes, system);
            return Gathered { windows, comm, cpu_padds, checkpoint_s: 0.0, degraded: false };
        }

        let mut gpu_partials = vec![vec![XyzzPoint::<C>::identity(); n_windows as usize]; n_gpus];
        for oc in ran {
            let p = &mut gpu_partials[oc.slice.gpu][oc.slice.window as usize];
            *p = p.padd(&oc.contrib.0);
        }
        // window-level checkpoints: the CPU path's gather already lands
        // every partial on the host (the checkpoint is free); here an
        // extra partial gather is charged over the clean fabric
        // (checkpoints stream while links are up)
        let partials_bytes = f64::from(n_windows) * point_bytes;
        let checkpoint_s = if sup.supervised() {
            self.system.gather_to_host_time(&vec![partials_bytes; n_gpus])
        } else {
            0.0
        };
        if !sup.lost_any() {
            // per-GPU window partials merge across the fabric with real
            // PADDs; the host receives the reduced vector
            let (windows, comm) = run_collective(
                self.config.collective,
                &gpu_partials,
                |a, b| a.padd(b),
                system.fabric(),
                &CommConfig::default(),
                point_bytes,
            );
            return Gathered { windows, comm, cpu_padds: 0, checkpoint_s, degraded: false };
        }
        // a lost rank cannot take part in ring/tree exchanges, so the
        // collective degrades to a survivors-only host gather; the dead
        // ranks' pre-fault partials reached the host through the
        // window-level checkpoints
        let per: Vec<f64> = (0..n_gpus)
            .map(|g| if sup.is_dead(g) { 0.0 } else { partials_bytes })
            .collect();
        let mut sched = gather_to_host(&per, system.fabric(), &CommConfig::default());
        sched.host_reduce_ops = (n_gpus as u64 - 1) * u64::from(n_windows);
        let mut windows = vec![XyzzPoint::<C>::identity(); n_windows as usize];
        for (g, partial) in gpu_partials.iter().enumerate() {
            for (w, p) in windows.iter_mut().zip(partial) {
                *w = if g == 0 { *p } else { w.padd(p) };
            }
        }
        Gathered { windows, comm: sched, cpu_padds: 0, checkpoint_s, degraded: true }
    }
}

/// [`DistMsm::window_partials`]'s result: the host's window partials, the
/// schedule that moved them there, the CPU fold's modelled PADD count, and
/// the two recovery facts the gather settles for the supervisor.
struct Gathered<C: Curve> {
    windows: Vec<XyzzPoint<C>>,
    comm: CommSchedule,
    cpu_padds: u64,
    /// Seconds checkpointing the per-GPU window partials (supervised GPU
    /// path only; the CPU path's gather is the checkpoint).
    checkpoint_s: f64,
    /// A lost device forced the collective down to a survivors-only host
    /// gather.
    degraded: bool,
}

#[cfg(test)]
mod tests {
    use super::slices::helper_count;
    use super::*;
    use crate::plan::plan_slices;
    use crate::scatter::ScatterKind;
    use crate::supervisor::FaultObservation;
    use distmsm_ec::curves::{Bls12381G1, Bn254G1, Mnt4753G1};
    use distmsm_ec::FieldElement;
    use distmsm_gpu_sim::FaultPlan;
    use distmsm_kernel::EcKernelModel;
    use rand::{rngs::StdRng, SeedableRng};

    fn check_correct<C: Curve>(n: usize, n_gpus: usize, seed: u64, cfg: DistMsmConfig) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = MsmInstance::<C>::random(n, &mut rng);
        let engine = DistMsm::with_config(MultiGpuSystem::dgx_a100(n_gpus), cfg);
        let report = engine.execute(&inst).expect("execution succeeds");
        assert_eq!(report.result, inst.reference_result(), "MSM result wrong");
        assert!(report.total_s > 0.0 && report.total_s.is_finite());
    }

    #[test]
    fn correct_on_one_gpu() {
        check_correct::<Bn254G1>(200, 1, 1, DistMsmConfig::default());
    }

    #[test]
    fn correct_on_eight_gpus() {
        check_correct::<Bn254G1>(300, 8, 2, DistMsmConfig::default());
    }

    #[test]
    fn correct_with_explicit_small_window() {
        check_correct::<Bn254G1>(
            256,
            4,
            3,
            DistMsmConfig::builder()
                .window_size(5)
                .build()
                .unwrap(),
        );
    }

    #[test]
    fn correct_with_naive_scatter_and_gpu_reduce() {
        check_correct::<Bn254G1>(
            128,
            2,
            4,
            DistMsmConfig::builder()
                .scatter(ScatterKind::Naive)
                .bucket_reduce_on_cpu(false)
                .build()
                .unwrap(),
        );
    }

    #[test]
    fn correct_on_bls12381() {
        check_correct::<Bls12381G1>(100, 8, 5, DistMsmConfig::default());
    }

    #[test]
    fn correct_on_mnt4753() {
        check_correct::<Mnt4753G1>(
            50,
            4,
            6,
            DistMsmConfig::builder()
                .window_size(8)
                .build()
                .unwrap(),
        );
    }

    #[test]
    fn more_gpus_when_windows_split() {
        // 32 GPUs vs few windows exercises bucket-slice splitting
        check_correct::<Bn254G1>(
            200,
            32,
            7,
            DistMsmConfig::builder()
                .window_size(4)
                .build()
                .unwrap(),
        );
    }

    #[test]
    fn signed_digits_engine_is_correct() {
        let sweep = [(4, Some(4)), (2, Some(8)), (3, Some(11))];
        for (gpus, s) in [(1usize, None), (4, Some(9u32)), (8, Some(6))].into_iter().chain(sweep) {
            let builder = DistMsmConfig::builder().signed_digits(true);
            let builder = match s {
                Some(s) => builder.window_size(s),
                None => builder.auto_window_size(),
            };
            check_correct::<Bn254G1>(220, gpus, 40 + gpus as u64, builder.build().unwrap());
        }
    }

    #[test]
    fn signed_digits_use_fewer_buckets() {
        let mut rng = StdRng::seed_from_u64(44);
        let inst = MsmInstance::<Bn254G1>::random(128, &mut rng);
        let mk = |signed| {
            DistMsm::with_config(
                MultiGpuSystem::dgx_a100(2),
                DistMsmConfig::builder()
                    .window_size(10)
                    .signed_digits(signed)
                    .build()
                    .unwrap(),
            )
            .execute(&inst)
            .unwrap()
        };
        let unsigned = mk(false);
        let signed = mk(true);
        assert_eq!(signed.result, unsigned.result);
        assert_eq!(signed.n_windows, unsigned.n_windows + 1);
        // bucket-reduce work halves with the bucket count
        assert!(
            signed.phases.bucket_reduce_s < 0.7 * unsigned.phases.bucket_reduce_s,
            "signed {} vs unsigned {}",
            signed.phases.bucket_reduce_s,
            unsigned.phases.bucket_reduce_s
        );
    }

    #[test]
    fn window_partial_gather_charged_and_monotone() {
        // Satellite fix: the device→host gather of per-GPU window
        // partials used to be free on the GPU-reduce path. It must now
        // appear in the phase report and grow with GPU count and with
        // point size.
        fn transfer<C: Curve>(gpus: usize) -> f64 {
            let mut rng = StdRng::seed_from_u64(77);
            let inst = MsmInstance::<C>::random(128, &mut rng);
            let engine = DistMsm::with_config(
                MultiGpuSystem::dgx_a100(gpus),
                DistMsmConfig::builder()
                    .window_size(8)
                    .scatter(ScatterKind::Naive)
                    .bucket_reduce_on_cpu(false)
                    .build()
                    .unwrap(),
            );
            let rep = engine.execute(&inst).expect("execution succeeds");
            assert_eq!(rep.result, inst.reference_result());
            let comm = rep.comm.expect("engine reports its comm schedule");
            assert_eq!(comm.n_ranks, gpus);
            rep.phases.transfer_s
        }
        // monotone in GPU count (more partial vectors cross the fabric)
        let t1 = transfer::<Bn254G1>(1);
        let t2 = transfer::<Bn254G1>(2);
        let t4 = transfer::<Bn254G1>(4);
        let t8 = transfer::<Bn254G1>(8);
        assert!(t1 > 0.0, "gather must be charged, got {t1}");
        assert!(t2 > t1 && t4 > t2 && t8 > t4, "{t1} {t2} {t4} {t8}");
        // monotone in point size at equal window count: BLS12-381 points
        // (12 limbs) outweigh BN254 (8); MNT4-753 (24 limbs, more
        // windows) outweighs both
        let bn = transfer::<Bn254G1>(4);
        let bls = transfer::<Bls12381G1>(4);
        let mnt = transfer::<Mnt4753G1>(4);
        assert!(bls > bn && mnt > bls, "{bn} {bls} {mnt}");
    }

    #[test]
    fn collective_strategies_all_bit_exact_in_engine() {
        let mut rng = StdRng::seed_from_u64(78);
        let inst = MsmInstance::<Bn254G1>::random(160, &mut rng);
        for strat in distmsm_comms::CollectiveStrategy::ALL {
            let engine = DistMsm::with_config(
                MultiGpuSystem::dgx_a100(4),
                DistMsmConfig::builder()
                    .window_size(7)
                    .bucket_reduce_on_cpu(false)
                    .collective(strat)
                    .build()
                    .unwrap(),
            );
            let rep = engine.execute(&inst).expect("execution succeeds");
            assert_eq!(rep.result, inst.reference_result(), "{}", strat.name());
            assert!(rep.phases.transfer_s > 0.0);
        }
    }

    #[test]
    fn forced_hierarchical_overflow_reported() {
        let mut rng = StdRng::seed_from_u64(8);
        let inst = MsmInstance::<Bn254G1>::random(64, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(1),
            DistMsmConfig::builder()
                .window_size(16)
                .scatter(ScatterKind::Hierarchical)
                .build()
                .unwrap(),
        );
        match engine.execute(&inst) {
            Err(MsmError::ScatterOverflow(e)) => assert!(e.needed > e.available),
            other => panic!("expected overflow, got {other:?}"),
        }
    }

    #[test]
    fn empty_instance_rejected() {
        let inst = MsmInstance::<Bn254G1> {
            points: vec![],
            scalars: vec![],
        };
        let engine = DistMsm::new(MultiGpuSystem::dgx_a100(1));
        assert_eq!(engine.execute(&inst).unwrap_err(), MsmError::EmptyInstance);
    }

    #[test]
    fn mismatched_point_and_scalar_counts_rejected() {
        fn check<C: Curve>() {
            let inst = MsmInstance::<C>::random(64, &mut StdRng::seed_from_u64(12));
            let engine = DistMsm::new(MultiGpuSystem::dgx_a100(2));
            for (points, scalars) in [(32, 64), (64, 32), (0, 64), (64, 0)] {
                let bad = MsmInstance::<C> {
                    points: inst.points[..points].to_vec(),
                    scalars: inst.scalars[..scalars].to_vec(),
                };
                let err = engine.execute(&bad).unwrap_err();
                assert_eq!(err, MsmError::LengthMismatch { points, scalars });
                assert!(!err.is_fault() && err.implicated_devices().is_empty());
            }
        }
        check::<Bn254G1>();
        check::<Bls12381G1>();
    }

    #[test]
    fn auto_scatter_falls_back_to_naive_for_large_windows() {
        let mut rng = StdRng::seed_from_u64(9);
        let inst = MsmInstance::<Bn254G1>::random(64, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(1),
            DistMsmConfig::builder()
                .window_size(18)
                .auto_scatter()
                .build()
                .unwrap(),
        );
        let report = engine.execute(&inst).expect("auto mode must not fail");
        assert_eq!(report.result, inst.reference_result());
    }

    // ---- host workers ---------------------------------------------------

    /// Drives `run_slices` the way `execute_attempt` does — 3 GPUs, window
    /// 6, events in plan order — but with a chosen worker count and without
    /// the entry checks. `Debug` prints every field of every outcome (kernel
    /// stats as shortest-round-trip floats, points as canonical XYZZ
    /// coordinates), so equal strings are equal outcomes field for field.
    fn run_slices_with<C: Curve>(
        inst: &MsmInstance<C>,
        signed: bool,
        workers: usize,
    ) -> Result<String, MsmError> {
        let (gpus, s) = (3, 6);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(gpus),
            DistMsmConfig::builder()
                .window_size(s)
                .signed_digits(signed)
                .build()
                .unwrap(),
        );
        // `launch` minus its entry checks
        let model = EcKernelModel::new(C::Base::LIMBS32, engine.config.kernel_opts);
        let (n_windows, n_buckets) = window_shape(C::SCALAR_BITS, s, signed);
        let launch = Launch {
            points: &inst.points,
            scalars: &inst.scalars,
            s,
            n_windows,
            n_buckets,
            digits: signed.then(|| {
                inst.scalars
                    .iter()
                    .map(|k| crate::signed::recode_signed(k, s, C::SCALAR_BITS))
                    .collect()
            }),
            gpu_threads: gpu_threads(&engine.system, &engine.config, &model),
            model,
        };
        let mut next_event = vec![0u64; gpus];
        let jobs: Jobs = plan_slices(n_windows, n_buckets, gpus)
            .into_iter()
            .map(|sl| {
                next_event[sl.gpu] += 1;
                (sl, next_event[sl.gpu] - 1)
            })
            .collect();
        engine.run_slices(&launch, &jobs, workers).map(|done| format!("{done:?}"))
    }

    #[test]
    fn outcomes_do_not_depend_on_the_worker_count() {
        fn check<C: Curve>(seed: u64) {
            let inst = MsmInstance::<C>::random(1 << 9, &mut StdRng::seed_from_u64(seed));
            for signed in [false, true] {
                let one = run_slices_with(&inst, signed, 1).expect("slices run");
                for workers in [2, 3, 8] {
                    let many = run_slices_with(&inst, signed, workers).expect("slices run");
                    assert!(many == one, "{workers} workers, signed={signed}");
                }
            }
        }
        check::<Bn254G1>(61);
        check::<Bls12381G1>(62);
        check::<distmsm_ec::curves::Bn254G2>(63);
    }

    #[test]
    fn helpers_are_spawned_only_beside_a_working_caller() {
        // one job or one worker: the caller runs everything, no thread
        for (workers, jobs) in [(1, 40), (8, 1), (1, 1), (0, 40), (8, 0)] {
            assert_eq!(helper_count(workers, jobs), 0, "{workers} workers, {jobs} jobs");
        }
        assert_eq!(helper_count(2, 40), 1);
        assert_eq!(helper_count(8, 3), 2);
        assert_eq!(helper_count(3, 3), 2);
    }

    #[test]
    fn a_panicking_slice_is_slice_lost_not_a_panic() {
        // twice as many scalars as points: the entry check would refuse the
        // instance; past it, every slice that holds a point index >= 32
        // indexes out of bounds inside the bucket-sum kernel
        let good = MsmInstance::<Bn254G1>::random(64, &mut StdRng::seed_from_u64(64));
        let bad = MsmInstance::<Bn254G1> {
            points: good.points[..32].to_vec(),
            scalars: good.scalars,
        };
        // on the caller alone, and with helpers beside it
        let alone = run_slices_with(&bad, false, 1).unwrap_err();
        assert!(matches!(alone, MsmError::SliceLost { .. }), "{alone:?}");
        assert!(alone.is_fault());
        assert_eq!(run_slices_with(&bad, false, 3).unwrap_err(), alone);
    }

    // ---- fault injection and recovery ---------------------------------

    use distmsm_gpu_sim::{FaultEvent, FaultKind, LinkFault};

    fn coverage_exact(slices: &[Slice], n_windows: u32, n_buckets: u32) {
        let mut seen = vec![0u32; (n_windows * n_buckets) as usize];
        for s in slices {
            for b in s.bucket_lo..s.bucket_hi {
                seen[(s.window * n_buckets + b) as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "completed slices must tile");
    }

    #[test]
    fn fail_stop_one_of_eight_recovers_bit_exact() {
        // the acceptance scenario: a seeded fail-stop on GPU 3 of 8 must
        // still produce the fault-free result, with a RecoveryReport
        // showing the re-plan
        let mut rng = StdRng::seed_from_u64(90);
        let inst = MsmInstance::<Bn254G1>::random(256, &mut rng);
        let clean = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(8),
            DistMsmConfig::builder()
                .window_size(8)
                .build()
                .unwrap(),
        )
        .execute(&inst)
        .expect("clean run");
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(8),
            DistMsmConfig::builder()
                .window_size(8)
                .fault_plan(FaultPlan::fail_stop(3, 0))
                // probe backoff scaled to the toy instance: the default
                // millisecond constants are realistic at paper scale but
                // would dwarf a 256-point MSM
                .retry(crate::supervisor::RetryPolicy::default().with_backoff_base_s(1e-6))
                .build()
                .unwrap(),
        );
        let rep = engine.execute(&inst).expect("supervised run recovers");
        assert_eq!(rep.result, clean.result, "recovered result must be bit-exact");
        assert_eq!(rep.result, inst.reference_result());
        let rec = rep.recovery.expect("supervised run reports recovery");
        assert_eq!(rec.lost_gpus, vec![3]);
        assert!(!rec.replanned.is_empty(), "lost work must be re-planned");
        assert!(rec.replanned.iter().all(|s| s.gpu != 3));
        assert!(rec.faults.iter().any(|f| f.kind == "fail-stop" && f.device == 3));
        coverage_exact(&rec.completed, rec.n_windows, rec.n_buckets);
        assert!(rec.recovery_s() > 0.0);
        // recovery overhead strictly below a full re-run
        assert!(
            rep.total_s - clean.total_s < clean.total_s,
            "overhead {} vs clean {}",
            rep.total_s - clean.total_s,
            clean.total_s
        );
    }

    #[test]
    fn replanned_slices_reduce_on_the_worker_like_primaries() {
        // GPU 1 dies at its fourth slice (mid-plan) and one of GPU 2's
        // shipments is corrupted; the report is frozen from the commit
        // before slices were bucket-reduced on their workers
        let inst = MsmInstance::<Bn254G1>::random(1 << 9, &mut StdRng::seed_from_u64(2024));
        let mk = |plan| {
            DistMsm::with_config(
                MultiGpuSystem::dgx_a100(3),
                DistMsmConfig::builder()
                    .window_size(13)
                    .fault_plan(plan)
                    .build()
                    .unwrap(),
            )
            .execute(&inst)
            .expect("run completes")
        };
        let clean = mk(FaultPlan::none());
        let rep = mk(FaultPlan::fail_stop(1, 3).with_event(FaultEvent {
            device: 2,
            at_event: 2,
            attempt: 0,
            kind: FaultKind::BitFlip,
        }));
        assert_eq!(rep.result, clean.result);
        assert_eq!(rep.result, inst.reference_result());
        assert_eq!(rep.total_s, 0.011303954922032025);

        let sl = |gpu, window, bucket_lo, bucket_hi| Slice { gpu, window, bucket_lo, bucket_hi };
        let fault = |device, event, kind: &str| FaultObservation { device, event, kind: kind.into() };
        let replanned = vec![
            sl(0, 9, 0, 8192), sl(0, 10, 0, 8192), sl(0, 11, 0, 1365),
            sl(2, 11, 1365, 8192), sl(2, 12, 0, 8192), sl(2, 13, 0, 2730),
        ];
        assert!(replanned.iter().any(|s| s.bucket_lo != 0));
        let mut completed = vec![
            sl(0, 0, 0, 8192), sl(0, 1, 0, 8192), sl(0, 2, 0, 8192), sl(0, 3, 0, 8192),
            sl(0, 4, 0, 8192), sl(0, 5, 0, 8192), sl(0, 6, 0, 5461),
            sl(1, 6, 5461, 8192), sl(1, 7, 0, 8192), sl(1, 8, 0, 8192),
            sl(2, 13, 2730, 8192), sl(2, 14, 0, 8192), sl(2, 15, 0, 8192), sl(2, 16, 0, 8192),
            sl(2, 17, 0, 8192), sl(2, 18, 0, 8192), sl(2, 19, 0, 8192),
        ];
        completed.extend(&replanned);
        let want = RecoveryReport {
            faults: vec![fault(1, 3, "fail-stop"), fault(2, 2, "bit-flip")],
            lost_gpus: vec![1],
            stragglers: vec![],
            retries: 4,
            replanned,
            completed,
            degraded_collective: false,
            backoff_s: 0.008,
            recompute_s: 8.387894723202409e-5,
            self_check_s: 1.6595665333333335e-5,
            checkpoint_s: 0.0,
            n_windows: 20,
            n_buckets: 8192,
        };
        assert_eq!(rep.recovery.expect("supervised"), want);
    }

    #[test]
    fn fail_stop_on_gpu_reduce_path_degrades_collective() {
        let mut rng = StdRng::seed_from_u64(91);
        let inst = MsmInstance::<Bn254G1>::random(200, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(4),
            DistMsmConfig::builder()
                .window_size(7)
                .bucket_reduce_on_cpu(false)
                .fault_plan(FaultPlan::fail_stop(2, 0))
                .build()
                .unwrap(),
        );
        let rep = engine.execute(&inst).expect("recovers on GPU-reduce path");
        assert_eq!(rep.result, inst.reference_result());
        assert_eq!(rep.window_partials.len(), rep.n_windows as usize);
        assert_eq!(window_reduce(&rep.window_partials, 7).0, rep.result);
        let rec = rep.recovery.unwrap();
        assert!(rec.degraded_collective, "dead rank must degrade collective");
        assert!(rec.checkpoint_s > 0.0, "GPU path charges checkpoints");
        coverage_exact(&rec.completed, rec.n_windows, rec.n_buckets);
    }

    #[test]
    fn cascading_fail_stop_mid_recovery() {
        // GPU 3 dies at its first slice; GPU 4 dies later, mid-recovery,
        // forcing a second re-plan round
        let mut rng = StdRng::seed_from_u64(92);
        let inst = MsmInstance::<Bn254G1>::random(256, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(8),
            DistMsmConfig::builder()
                .window_size(4)
                // window 4 gives every GPU 8 primary slices (events
                // 0..8), so event 8 is GPU 4's first *recovery* job:
                // it survives the primary pass and dies mid-recovery
                .fault_plan(FaultPlan::fail_stop(3, 0).with_event(FaultEvent { device: 4, at_event: 8, attempt: 0, kind: FaultKind::FailStop, }))
                .build()
                .unwrap(),
        );
        let rep = engine.execute(&inst).expect("cascade recovers");
        assert_eq!(rep.result, inst.reference_result());
        let rec = rep.recovery.unwrap();
        assert!(rec.lost_gpus.contains(&3) && rec.lost_gpus.contains(&4));
        coverage_exact(&rec.completed, rec.n_windows, rec.n_buckets);
    }

    #[test]
    fn bit_flip_detected_and_result_still_exact() {
        let mut rng = StdRng::seed_from_u64(93);
        let inst = MsmInstance::<Bn254G1>::random(128, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(2),
            DistMsmConfig::builder()
                .window_size(8)
                .fault_plan(FaultPlan::bit_flip(1, 0))
                .build()
                .unwrap(),
        );
        let rep = engine.execute(&inst).expect("bit flip is recoverable");
        assert_eq!(rep.result, inst.reference_result());
        let rec = rep.recovery.unwrap();
        assert!(rec.faults.iter().any(|f| f.kind == "bit-flip" && f.device == 1));
        assert!(rec.retries >= 1, "re-shipment spends a retry");
        assert!(rec.self_check_s > 0.0, "RLC check is charged");
    }

    #[test]
    fn bit_flip_without_retry_budget_is_exhaustion() {
        let mut rng = StdRng::seed_from_u64(94);
        let inst = MsmInstance::<Bn254G1>::random(128, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(2),
            DistMsmConfig::builder()
                .window_size(8)
                .fault_plan(FaultPlan::bit_flip(1, 0))
                .retry(crate::supervisor::RetryPolicy::default().with_max_retries(0))
                .build()
                .unwrap(),
        );
        match engine.execute(&inst) {
            Err(MsmError::RetriesExhausted { device, .. }) => assert_eq!(device, 1),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    #[test]
    fn replan_avoids_straggling_survivors() {
        // a fail-stop on GPU 1 while GPU 2 straggles: the re-plan must
        // route lost work onto the full-speed survivors only
        let mut rng = StdRng::seed_from_u64(91);
        let inst = MsmInstance::<Bn254G1>::random(128, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(4),
            DistMsmConfig::builder()
                .window_size(6)
                .fault_plan(FaultPlan::fail_stop(1, 0).with_event(FaultEvent { device: 2, at_event: 0, attempt: 0, kind: FaultKind::Straggler { slowdown: 3.0 }, }))
                .build()
                .unwrap(),
        );
        let rep = engine.execute(&inst).expect("recovers");
        assert_eq!(rep.result, inst.reference_result());
        let rec = rep.recovery.expect("supervised");
        assert!(!rec.replanned.is_empty());
        assert!(
            rec.replanned.iter().all(|sl| sl.gpu != 1 && sl.gpu != 2),
            "re-plan must avoid the lost GPU and the straggler: {:?}",
            rec.replanned
        );
    }

    #[test]
    fn straggler_detected_and_sla_enforced() {
        let mut rng = StdRng::seed_from_u64(95);
        let inst = MsmInstance::<Bn254G1>::random(256, &mut rng);
        let mk = |sla: Option<f64>| {
            let builder = DistMsmConfig::builder()
                .window_size(8)
                .fault_plan(FaultPlan::straggler(2, 0, 4.0));
            let builder = match sla {
                Some(sla) => builder.straggler_sla(sla),
                None => builder.no_straggler_sla(),
            };
            DistMsm::with_config(MultiGpuSystem::dgx_a100(8), builder.build().unwrap())
                .execute(&inst)
        };
        let rep = mk(None).expect("no SLA: detection only");
        assert_eq!(rep.result, inst.reference_result());
        let rec = rep.recovery.unwrap();
        assert!(
            rec.stragglers.iter().any(|&(g, r)| g == 2 && r > 2.0),
            "stragglers {:?}",
            rec.stragglers
        );
        match mk(Some(2.0)) {
            Err(MsmError::Straggler { device, slowdown }) => {
                assert_eq!(device, 2);
                assert!(slowdown > 2.0);
            }
            other => panic!("expected Straggler, got {other:?}"),
        }
    }

    #[test]
    fn isolated_rank_is_replanned_around() {
        // both ports of rank 2 go down: it cannot reach the host even by
        // transit, so the supervisor treats it as lost
        let mut rng = StdRng::seed_from_u64(96);
        let inst = MsmInstance::<Bn254G1>::random(160, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(4),
            DistMsmConfig::builder()
                .window_size(8)
                .fault_plan(FaultPlan::none() .with_link_fault(LinkFault::PeerPortDown { rank: 2 }) .with_link_fault(LinkFault::HostPortDown { rank: 2 }))
                .build()
                .unwrap(),
        );
        let rep = engine.execute(&inst).expect("partition recovers");
        assert_eq!(rep.result, inst.reference_result());
        let rec = rep.recovery.unwrap();
        assert_eq!(rec.lost_gpus, vec![2]);
        assert!(rec.faults.iter().any(|f| f.kind == "link-down"));
        coverage_exact(&rec.completed, rec.n_windows, rec.n_buckets);
    }

    #[test]
    fn degraded_link_reprices_but_stays_exact() {
        let mut rng = StdRng::seed_from_u64(97);
        let inst = MsmInstance::<Bn254G1>::random(160, &mut rng);
        let mk = |plan| {
            DistMsm::with_config(
                MultiGpuSystem::dgx_a100(4),
                DistMsmConfig::builder()
                    .window_size(8)
                    .fault_plan(plan)
                    .build()
                    .unwrap(),
            )
            .execute(&inst)
            .expect("degraded link is not fatal")
        };
        let clean = mk(FaultPlan::none());
        let slow = mk(FaultPlan::none().with_link_fault(LinkFault::PeerPortDegraded {
            rank: 1,
            factor: 0.05,
        }));
        assert_eq!(slow.result, clean.result);
        assert!(slow.recovery.unwrap().lost_gpus.is_empty());
        assert!(
            slow.phases.transfer_s >= clean.phases.transfer_s,
            "degraded fabric cannot be cheaper: {} vs {}",
            slow.phases.transfer_s,
            clean.phases.transfer_s
        );
    }

    #[test]
    fn total_partition_is_link_down_error() {
        let mut rng = StdRng::seed_from_u64(98);
        let inst = MsmInstance::<Bn254G1>::random(64, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(2),
            DistMsmConfig::builder()
                .fault_plan(FaultPlan::none() .with_link_fault(LinkFault::HostPortDown { rank: 0 }) .with_link_fault(LinkFault::HostPortDown { rank: 1 }))
                .build()
                .unwrap(),
        );
        match engine.execute(&inst) {
            Err(MsmError::LinkDown { .. }) => {}
            other => panic!("expected LinkDown, got {other:?}"),
        }
    }

    #[test]
    fn sole_gpu_fail_stop_is_device_lost() {
        let mut rng = StdRng::seed_from_u64(99);
        let inst = MsmInstance::<Bn254G1>::random(64, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(1),
            DistMsmConfig::builder()
                .fault_plan(FaultPlan::fail_stop(0, 0))
                .build()
                .unwrap(),
        );
        match engine.execute(&inst) {
            Err(MsmError::DeviceLost { devices }) => assert_eq!(devices, vec![0]),
            other => panic!("expected DeviceLost, got {other:?}"),
        }
    }

    #[test]
    fn faults_are_attempt_scoped() {
        // the same plan that kills GPU 1 on attempt 0 stays quiet on
        // attempt 1 — a service-level retry models the transient clearing
        let mut rng = StdRng::seed_from_u64(100);
        let inst = MsmInstance::<Bn254G1>::random(128, &mut rng);
        let engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(4),
            DistMsmConfig::builder()
                .window_size(8)
                .fault_plan(FaultPlan::fail_stop(1, 0))
                .build()
                .unwrap(),
        );
        let first = engine.execute(&inst).expect("attempt 0 recovers");
        assert_eq!(first.recovery.as_ref().unwrap().lost_gpus, vec![1]);
        let second = engine.execute_attempt(&inst, 1).expect("attempt 1 clean");
        assert_eq!(second.result, first.result);
        assert!(second.recovery.unwrap().lost_gpus.is_empty());
        // and re-running attempt 0 reproduces the fault bit-for-bit
        let replay = engine.execute_attempt(&inst, 0).expect("replay");
        assert_eq!(replay.recovery.unwrap(), first.recovery.unwrap());
    }

    #[test]
    fn random_fault_plans_always_recover_exactly() {
        // sweep seeds: whatever mix of faults the plan draws, the result
        // stays bit-exact (device 0 is never fail-stopped by random plans)
        let mut rng = StdRng::seed_from_u64(101);
        let inst = MsmInstance::<Bn254G1>::random(128, &mut rng);
        for seed in 0..6u64 {
            let plan = FaultPlan::random(seed, 8, 0.1, 16);
            let engine = DistMsm::with_config(
                MultiGpuSystem::dgx_a100(8),
                DistMsmConfig::builder()
                    .window_size(6)
                    .fault_plan(plan)
                    .build()
                    .unwrap(),
            );
            let rep = engine.execute(&inst).unwrap_or_else(|e| {
                panic!("seed {seed}: random plan must be recoverable, got {e}")
            });
            assert_eq!(rep.result, inst.reference_result(), "seed {seed}");
            if let Some(rec) = rep.recovery {
                coverage_exact(&rec.completed, rec.n_windows, rec.n_buckets);
            }
        }
    }
}
