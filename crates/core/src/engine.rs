//! The DistMSM execution engine.
//!
//! Orchestrates the full pipeline of Figure 1 over a simulated
//! [`MultiGpuSystem`]: window/bucket-slice planning, per-GPU bucket
//! scatter and bucket-sum (executed functionally, in parallel on host
//! threads), CPU (or GPU) bucket-reduce, and window-reduce — composing
//! the metered kernel statistics into a wall-time estimate.

use crate::analytic::{CurveDesc, MsmEstimate};
use crate::bucket_sum::{bucket_sum_with, threads_per_bucket};
use crate::plan::{plan_slices, replan_slices, Slice};
use crate::reduce::{
    bucket_reduce_gpu_stats, bucket_reduce_serial, cpu_seconds_for_padds, window_reduce,
};
use crate::scatter::{
    scatter_hierarchical, scatter_naive, ScatterConfig, ScatterKind, ScatterOutcome,
    SharedMemoryOverflow,
};
use crate::supervisor::{
    rlc_coefficients, rlc_fold, FaultObservation, RecoveryReport, RetryPolicy,
    RLC_OPS_PER_PARTIAL,
};
use distmsm_comms::{
    gather_to_host, run_collective, CollectiveStrategy, CommConfig, CommSchedule,
};
use distmsm_ec::batch::BatchAccumulator;
use distmsm_ec::{Curve, FieldElement, MsmInstance, XyzzPoint};
use distmsm_gpu_sim::{
    estimate_kernel_time, CostModelConfig, FaultPlan, LaunchStats, MultiGpuSystem,
};
use distmsm_kernel::{EcKernelModel, PaddOptimizations};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

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
/// concrete [`Slice`]s of [`plan_slices`], the
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

/// Effective concurrent threads per GPU for a kernel model: resident
/// threads per SM at the model's register and shared-memory footprint,
/// times the SM count of the system's first device.
pub(crate) fn gpu_threads(
    system: &MultiGpuSystem,
    config: &DistMsmConfig,
    model: &EcKernelModel,
) -> u64 {
    let d = &system.devices[0];
    let resident = d.resident_threads_per_sm(
        model.regs_per_thread(),
        model.shared_mem_per_block(config.block_size),
        config.block_size,
    );
    (u64::from(resident) * u64::from(d.sm_count)).max(1)
}

/// Seed of the RLC self-check coefficient stream (device and host derive
/// the same coefficients without communicating them).
const RLC_SEED: u64 = 0x0005_e1fc_4ec4_u64;

/// Per-GPU busy time above this multiple of the median flags the GPU as
/// a straggler in the recovery report.
const STRAGGLER_DETECT_RATIO: f64 = 1.25;

/// Engine configuration.
///
/// Marked `#[non_exhaustive]`: construct it through
/// [`DistMsmConfig::builder`] / [`DistMsmConfig::to_builder`] (see
/// [`crate::config`]), which also validate the combination. Struct
/// literals and functional-update syntax are reserved to this crate.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct DistMsmConfig {
    /// Window size `s`; `None` selects the §3.1 optimum for the system.
    pub window_size: Option<u32>,
    /// Scatter implementation; `None` selects hierarchical whenever the
    /// slice fits in shared memory (DistMSM's choice), naive otherwise.
    pub scatter: Option<ScatterKind>,
    /// Hierarchical-scatter tuning.
    pub scatter_cfg: ScatterConfig,
    /// PADD-kernel optimisation set.
    pub kernel_opts: PaddOptimizations,
    /// Run bucket-reduce on the CPU (§3.2.3) instead of the GPU.
    pub bucket_reduce_on_cpu: bool,
    /// Thread-block size of the bucket-sum kernel.
    pub block_size: u32,
    /// Model the CPU reduce as pipelined with GPU work (§3.2.3).
    pub pipelined: bool,
    /// Stream packed 4-byte per-window coefficient views (DistMSM's
    /// choice; charged a one-time repacking pre-pass) instead of reading
    /// full λ-bit scalars in every scatter.
    pub packed_coefficients: bool,
    /// Recode scalars into signed digits (§6's adopted technique): halves
    /// every window's bucket count (`2^s → 2^{s−1}+1`) at the cost of one
    /// extra carry window.
    pub signed_digits: bool,
    /// How per-GPU window partials are combined when bucket-reduce runs
    /// on the GPUs: the reduction executes bit-exactly over EC points
    /// through `distmsm-comms` and its transfer cost is routed through
    /// the system's interconnect (topology-aware on DGX presets).
    pub collective: CollectiveStrategy,
    /// Deterministic fault-injection plan. Non-empty plans turn the
    /// supervisor on: window-level checkpoints, the RLC self-check,
    /// bounded retries and degraded-mode re-planning, all charged
    /// through the cost model and reported in [`MsmReport::recovery`].
    /// The empty plan (default) executes exactly the fault-free path.
    pub fault_plan: FaultPlan,
    /// Bounded-retry policy the supervisor charges when probing faulted
    /// devices and re-shipping corrupted partials.
    pub retry: RetryPolicy,
    /// Optional straggler SLA: when a GPU's busy time exceeds this
    /// multiple of the median, execution fails with
    /// [`MsmError::Straggler`] instead of merely recording the skew.
    pub straggler_sla: Option<f64>,
}

impl Default for DistMsmConfig {
    fn default() -> Self {
        Self {
            window_size: None,
            scatter: None,
            scatter_cfg: ScatterConfig::default(),
            kernel_opts: PaddOptimizations::all(),
            bucket_reduce_on_cpu: true,
            block_size: 256,
            pipelined: true,
            packed_coefficients: true,
            signed_digits: false,
            collective: CollectiveStrategy::HostGather,
            fault_plan: FaultPlan::none(),
            retry: RetryPolicy::default(),
            straggler_sla: None,
        }
    }
}

/// Wall-time breakdown of one MSM, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Bucket-scatter across all GPUs (max over GPUs).
    pub scatter_s: f64,
    /// Bucket-sum across all GPUs (max over GPUs).
    pub bucket_sum_s: f64,
    /// Bucket-reduce (CPU or GPU).
    pub bucket_reduce_s: f64,
    /// Window-reduce on the CPU.
    pub window_reduce_s: f64,
    /// Communication: the device→host gather of bucket partials (CPU
    /// reduce path) or the inter-GPU collective over window partials
    /// (GPU reduce path), routed through the system's fabric.
    pub transfer_s: f64,
}

/// The modelled seconds of one MSM before composition: per-GPU kernel
/// time by phase plus the host-side and fabric terms.
pub(crate) struct PhaseTimes<'a> {
    pub scatter_per_gpu: &'a [f64],
    pub sum_per_gpu: &'a [f64],
    pub gpu_reduce_per_gpu: &'a [f64],
    pub cpu_reduce_s: f64,
    /// Host-side combines implied by the collective.
    pub comm_host_s: f64,
    pub window_reduce_s: f64,
    pub transfer_s: f64,
}

/// [`compose_timing`]'s result.
pub(crate) struct ComposedTiming {
    /// Busy seconds per GPU (`scatter + sum + reduce`).
    pub per_gpu_s: Vec<f64>,
    pub phases: PhaseBreakdown,
    /// Fault-free wall time (the engine adds supervisor recovery on top).
    pub total_s: f64,
}

/// The one timing composition the functional engine and the analytic
/// estimator share: per-GPU busy time → makespan → bucket-reduce term →
/// total, with §3.2.3's pipelined CPU reduce leaving only the last
/// window's reduce on the critical path.
pub(crate) fn compose_timing(
    config: &DistMsmConfig,
    n_windows: u32,
    t: &PhaseTimes<'_>,
) -> ComposedTiming {
    let max = |xs: &[f64]| xs.iter().copied().fold(0.0, f64::max);
    let per_gpu_s: Vec<f64> = (0..t.scatter_per_gpu.len())
        .map(|g| t.scatter_per_gpu[g] + t.sum_per_gpu[g] + t.gpu_reduce_per_gpu[g])
        .collect();
    let gpu_makespan = max(&per_gpu_s);
    let bucket_reduce_s = if config.bucket_reduce_on_cpu {
        t.cpu_reduce_s
    } else {
        max(t.gpu_reduce_per_gpu) + t.comm_host_s
    };
    let total_s = if config.bucket_reduce_on_cpu && config.pipelined {
        let tail = t.cpu_reduce_s / f64::from(n_windows.max(1));
        gpu_makespan.max(t.cpu_reduce_s) + t.transfer_s + tail + t.window_reduce_s
    } else {
        gpu_makespan + t.transfer_s + bucket_reduce_s + t.window_reduce_s
    };
    ComposedTiming {
        per_gpu_s,
        phases: PhaseBreakdown {
            scatter_s: max(t.scatter_per_gpu),
            bucket_sum_s: max(t.sum_per_gpu),
            bucket_reduce_s,
            window_reduce_s: t.window_reduce_s,
            transfer_s: t.transfer_s,
        },
        total_s,
    }
}

/// Result of one (simulated) MSM execution.
#[derive(Clone, Debug)]
pub struct MsmReport<C: Curve> {
    /// The MSM value (bit-exact, verified against references in tests).
    pub result: XyzzPoint<C>,
    /// The window partials `W_0 .. W_{n_windows-1}` that
    /// [`window_reduce`] folded into `result` (§3.1), as the host held
    /// them after the CPU fold, the collective merge or the
    /// survivors-only gather. Empty for reports merged by point range
    /// rather than by window ([`crate::BestGpuBaseline`]).
    pub window_partials: Vec<XyzzPoint<C>>,
    /// Window size used.
    pub window_size: u32,
    /// Number of windows.
    pub n_windows: u32,
    /// Time per phase.
    pub phases: PhaseBreakdown,
    /// Estimated wall time in seconds.
    pub total_s: f64,
    /// Per-GPU busy time in seconds.
    pub per_gpu_s: Vec<f64>,
    /// All metered kernel launches (for breakdown harnesses).
    pub launches: Vec<LaunchStats>,
    /// The communication schedule behind `phases.transfer_s` (`None`
    /// for reports composed without a fabric, e.g. merged baselines).
    pub comm: Option<CommSchedule>,
    /// What the supervisor saw and what recovery cost. `Some` whenever
    /// execution ran supervised (a non-empty fault plan), even if every
    /// fault was recovered; `None` on the unsupervised fast path.
    pub recovery: Option<RecoveryReport>,
}

/// Errors an MSM execution can report.
///
/// Marked `#[non_exhaustive]`: fault taxonomies grow, and adding a
/// variant must not be a breaking change for downstream matchers.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum MsmError {
    /// Hierarchical scatter ran out of shared memory (paper: `s > 14`).
    ScatterOverflow(SharedMemoryOverflow),
    /// The instance was empty.
    EmptyInstance,
    /// The instance pairs `points` points with `scalars` scalars: an input
    /// error that would recur identically, not a fault.
    LengthMismatch {
        /// Points in the instance.
        points: usize,
        /// Scalars in the instance.
        scalars: usize,
    },
    /// The kernel code of a planned slice panicked on its host worker, so
    /// the slice produced no outcome — the typed replacement for taking
    /// the caller down with it.
    SliceLost {
        /// GPU the slice was planned on.
        gpu: usize,
        /// Window the slice belongs to.
        window: u32,
    },
    /// Devices were lost and no survivor remained to re-plan onto.
    DeviceLost {
        /// Every device declared lost, in detection order.
        devices: Vec<usize>,
    },
    /// The fabric is degraded beyond use (no GPU can reach the host).
    LinkDown {
        /// Human-readable description of the partition.
        detail: String,
    },
    /// A GPU exceeded the configured straggler SLA.
    Straggler {
        /// The straggling device.
        device: usize,
        /// Its busy time as a multiple of the median GPU's.
        slowdown: f64,
    },
    /// A transient fault persisted past the retry budget.
    RetriesExhausted {
        /// Device whose shipment kept failing.
        device: usize,
        /// Work-event index of the failing shipment.
        event: u64,
    },
}

impl core::fmt::Display for MsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ScatterOverflow(e) => write!(f, "{e}"),
            Self::EmptyInstance => write!(f, "MSM instance has no points"),
            Self::LengthMismatch { points, scalars } => {
                write!(f, "MSM instance pairs {points} points with {scalars} scalars")
            }
            Self::SliceLost { gpu, window } => {
                write!(f, "slice of window {window} on GPU {gpu} was lost without recovery")
            }
            Self::DeviceLost { devices } => {
                write!(f, "devices {devices:?} lost with no survivors to re-plan onto")
            }
            Self::LinkDown { detail } => write!(f, "interconnect down: {detail}"),
            Self::Straggler { device, slowdown } => {
                write!(f, "GPU {device} straggles at {slowdown:.2}x the median busy time")
            }
            Self::RetriesExhausted { device, event } => {
                write!(f, "retry budget exhausted re-shipping event {event} of GPU {device}")
            }
        }
    }
}

impl std::error::Error for MsmError {}

impl MsmError {
    /// True for errors the supervisor classifies as *faults* — conditions
    /// a service-level retry (a later execution attempt) might clear —
    /// as opposed to configuration or input errors that would recur
    /// identically.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            Self::SliceLost { .. }
                | Self::DeviceLost { .. }
                | Self::LinkDown { .. }
                | Self::Straggler { .. }
                | Self::RetriesExhausted { .. }
        )
    }

    /// The devices this error implicates, as indices into the system the
    /// failing engine ran on. Device-health consumers (the
    /// `distmsm-service` circuit breakers) charge these devices with the
    /// failure; an empty vector means the error names no specific device
    /// (a total fabric partition, a config/input error) and the caller
    /// decides how widely to spread the blame.
    pub fn implicated_devices(&self) -> Vec<usize> {
        match self {
            Self::SliceLost { gpu, .. } => vec![*gpu],
            Self::DeviceLost { devices } => devices.clone(),
            Self::Straggler { device, .. } | Self::RetriesExhausted { device, .. } => {
                vec![*device]
            }
            _ => Vec::new(),
        }
    }
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
        let launch = self.launch(instance)?;
        let (s, n_windows, n_buckets) = (launch.s, launch.n_windows, launch.n_buckets);
        let (model, gpu_threads) = (&launch.model, launch.gpu_threads);
        let plan = &self.config.fault_plan;
        let supervised = !plan.is_empty();

        // Link faults damage a copy of the system; every route and
        // schedule below re-prices against the degraded fabric.
        let degraded_sys;
        let system: &MultiGpuSystem = if plan.link_faults.is_empty() {
            &self.system
        } else {
            degraded_sys = self.system.degraded(&plan.link_faults);
            &degraded_sys
        };
        let n_gpus = system.n_gpus();
        let reachable = system.ranks_reaching_host();
        if reachable.is_empty() {
            return Err(MsmError::LinkDown {
                detail: "no GPU can reach the master host".into(),
            });
        }
        let link_lost: Vec<usize> =
            (0..n_gpus).filter(|g| !reachable.contains(g)).collect();

        let slices = plan_slices(n_windows, n_buckets, n_gpus);

        // Per-device work-event counters: one event per scheduled slice,
        // in plan order — the deterministic coordinate fault plans key
        // on, independent of host-thread scheduling.
        let mut next_event = vec![0u64; n_gpus];
        let mut assign = |sl: Slice| -> (Slice, u64) {
            let e = next_event[sl.gpu];
            next_event[sl.gpu] += 1;
            (sl, e)
        };
        let jobs: Vec<(Slice, u64)> = slices.iter().copied().map(&mut assign).collect();

        let mut recovery = RecoveryReport {
            n_windows,
            n_buckets,
            ..RecoveryReport::default()
        };
        let mut dead: Vec<usize> = link_lost.clone();
        for &g in &link_lost {
            recovery.faults.push(FaultObservation {
                device: g,
                event: 0,
                kind: "link-down".into(),
            });
        }

        // ---- primary execution: every job a live device can still run ---
        let is_lost =
            |dead: &[usize], sl: &Slice, e: u64| -> bool {
                dead.contains(&sl.gpu)
                    || plan
                        .fail_stop_event(sl.gpu, attempt)
                        .is_some_and(|at| e >= at)
            };
        let (live, lost): (Jobs, Jobs) =
            jobs.iter().partition(|(sl, e)| !is_lost(&dead, sl, *e));
        self.note_fail_stops(&lost, &mut dead, &mut recovery);
        let workers = host_parallelism();
        let done = self.run_slices(&launch, &live, workers)?;

        // ---- supervisor: probe, declare lost, re-plan, recompute --------
        let mut recovered: Vec<SliceOutcome<C>> = Vec::new();
        let mut lost_slices: Vec<Slice> = lost.iter().map(|(sl, _)| *sl).collect();
        let mut rounds = 0usize;
        while !lost_slices.is_empty() {
            // bounded probes of each newly lost device, charged as
            // exponential backoff, before the supervisor declares it lost
            for &g in &dead {
                if !recovery.lost_gpus.contains(&g) {
                    recovery.retries += self.config.retry.max_retries;
                    recovery.backoff_s += self.config.retry.total_backoff();
                    recovery.lost_gpus.push(g);
                }
            }
            let survivors: Vec<usize> =
                (0..n_gpus).filter(|g| !dead.contains(g)).collect();
            if survivors.is_empty() || rounds > n_gpus {
                return Err(MsmError::DeviceLost {
                    devices: recovery.lost_gpus.clone(),
                });
            }
            // checkpoint-time straggler detection steers the re-plan: a
            // survivor already running slow would bottleneck the serial
            // recovery phase, so prefer full-speed survivors whenever at
            // least one remains (a straggler is still better than no
            // device at all)
            let full_speed: Vec<usize> = survivors
                .iter()
                .copied()
                .filter(|&g| plan.straggler_from(g, attempt).is_none())
                .collect();
            let targets = if full_speed.is_empty() { &survivors } else { &full_speed };
            let replanned = replan_slices(&lost_slices, targets);
            recovery.replanned.extend(replanned.iter().copied());
            let rejobs: Vec<(Slice, u64)> =
                replanned.into_iter().map(&mut assign).collect();
            // survivors may fail-stop mid-recovery (cascading faults):
            // their recovery events are filtered exactly like primaries
            let (rlive, rlost): (Jobs, Jobs) =
                rejobs.iter().partition(|(sl, e)| !is_lost(&dead, sl, *e));
            self.note_fail_stops(&rlost, &mut dead, &mut recovery);
            // a re-planned slice lost to a cascading failure is
            // superseded by the next round's re-plan: drop it from the
            // log so `replanned` records only work that actually ran
            recovery
                .replanned
                .retain(|s| !rlost.iter().any(|(lost, _)| lost == s));
            recovered.extend(self.run_slices(&launch, &rlive, workers)?);
            lost_slices = rlost.into_iter().map(|(sl, _)| sl).collect();
            rounds += 1;
        }
        recovery.completed = done
            .iter()
            .chain(&recovered)
            .map(|oc| oc.slice)
            .collect();

        // ---- compose per-GPU times --------------------------------------
        // Straggler faults scale the affected device's kernel times from
        // their trigger event on; recovery work is accounted separately
        // as a serial recovery phase (recompute_s), not in the primary
        // makespan.
        let straggle = |g: usize, e: u64| -> f64 {
            plan.straggler_from(g, attempt)
                .map_or(1.0, |(at, slow)| if e >= at { slow } else { 1.0 })
        };
        let prepass = if self.config.packed_coefficients {
            crate::scatter::scalar_prepass_seconds(
                instance.len() as u64,
                u64::from(C::SCALAR_BITS.div_ceil(8)),
                self.system.devices[0].mem_bandwidth_gbps,
                n_gpus,
            )
        } else {
            0.0
        };
        let mut scatter_per_gpu = vec![prepass; n_gpus];
        let mut sum_per_gpu = vec![0.0f64; n_gpus];
        let mut rec_per_gpu = vec![0.0f64; n_gpus];
        let mut launches = Vec::new();
        for oc in &done {
            let dev = &self.system.devices[oc.slice.gpu];
            let f = straggle(oc.slice.gpu, oc.event);
            scatter_per_gpu[oc.slice.gpu] +=
                f * estimate_kernel_time(dev, &oc.scatter_stats, &self.cost_cfg).total();
            sum_per_gpu[oc.slice.gpu] +=
                f * estimate_kernel_time(dev, &oc.sum_stats, &self.cost_cfg).total();
            launches.push(oc.scatter_stats.clone());
            launches.push(oc.sum_stats.clone());
        }
        for oc in &recovered {
            let dev = &self.system.devices[oc.slice.gpu];
            let f = straggle(oc.slice.gpu, oc.event);
            rec_per_gpu[oc.slice.gpu] += f
                * (estimate_kernel_time(dev, &oc.scatter_stats, &self.cost_cfg).total()
                    + estimate_kernel_time(dev, &oc.sum_stats, &self.cost_cfg).total());
            launches.push(oc.scatter_stats.clone());
            launches.push(oc.sum_stats.clone());
        }

        // ---- bucket-reduce ----------------------------------------------
        // every slice arrives already reduced with its offset (by the
        // worker that summed it); slices of one window compose additively
        // and are merged below. On the CPU path the host holds every
        // partial (gathered below); on the GPU path each GPU keeps its own
        // window partials, merged by the configured collective.
        let all_done: Vec<&SliceOutcome<C>> = done.iter().chain(&recovered).collect();
        let primary_count = done.len();

        // ---- RLC self-check against silent corruption -------------------
        // Each device folds Σ rᵢ·wᵢ over the partials it computed; the
        // host folds the same combination over what it received. Planned
        // bit-flips corrupt the shipped copy (modelled as a sign flip);
        // a mismatch pins the corrupted shipments, which are re-shipped
        // under the retry budget.
        if supervised {
            let coeffs = rlc_coefficients(RLC_SEED, all_done.len());
            let true_vals: Vec<XyzzPoint<C>> = all_done.iter().map(|oc| oc.contrib.0).collect();
            let recv_vals: Vec<XyzzPoint<C>> = all_done
                .iter()
                .zip(&true_vals)
                .map(|(oc, w)| {
                    if plan.bit_flip_events(oc.slice.gpu, attempt).contains(&oc.event) {
                        w.neg()
                    } else {
                        *w
                    }
                })
                .collect();
            let device_sum = rlc_fold(&true_vals, &coeffs);
            let host_sum = rlc_fold(&recv_vals, &coeffs);
            if device_sum != host_sum {
                for (oc, (t, r)) in all_done.iter().zip(true_vals.iter().zip(&recv_vals)) {
                    if t != r {
                        if self.config.retry.max_retries == 0 {
                            return Err(MsmError::RetriesExhausted {
                                device: oc.slice.gpu,
                                event: oc.event,
                            });
                        }
                        recovery.retries += 1;
                        recovery.backoff_s += self.config.retry.backoff_for(0);
                        recovery.faults.push(FaultObservation {
                            device: oc.slice.gpu,
                            event: oc.event,
                            kind: "bit-flip".into(),
                        });
                    }
                }
            }
            // host side of the check: one 64-bit scalar-mul fold per
            // received partial, every supervised run (the guard is paid
            // whether or not corruption occurs)
            recovery.self_check_s = cpu_seconds_for_padds(
                RLC_OPS_PER_PARTIAL * all_done.len() as u64,
                model,
                self.system.cpu.int_ops_per_sec,
            );
        }

        // the fold below uses the verified (re-shipped) partials
        let mut window_results = vec![XyzzPoint::<C>::identity(); n_windows as usize];
        let mut gpu_partials: Vec<Vec<XyzzPoint<C>>> =
            vec![vec![XyzzPoint::identity(); n_windows as usize]; n_gpus];
        let mut cpu_padds: u64 = 0;
        let mut gpu_reduce_per_gpu = vec![0.0f64; n_gpus];
        for (i, oc) in all_done.iter().enumerate() {
            let (w, ops) = oc.contrib;
            if self.config.bucket_reduce_on_cpu {
                window_results[oc.slice.window as usize] =
                    window_results[oc.slice.window as usize].padd(&w);
                cpu_padds += ops + 1;
            } else {
                gpu_partials[oc.slice.gpu][oc.slice.window as usize] =
                    gpu_partials[oc.slice.gpu][oc.slice.window as usize].padd(&w);
                let stats = bucket_reduce_gpu_stats(
                    u64::from(oc.slice.len()),
                    s,
                    gpu_threads,
                    model,
                    C::A_IS_ZERO,
                    self.config.block_size,
                );
                let dev = &self.system.devices[oc.slice.gpu];
                let t = straggle(oc.slice.gpu, oc.event)
                    * estimate_kernel_time(dev, &stats, &self.cost_cfg).total();
                if i < primary_count {
                    gpu_reduce_per_gpu[oc.slice.gpu] += t;
                } else {
                    rec_per_gpu[oc.slice.gpu] += t;
                }
                launches.push(stats);
            }
        }
        recovery.recompute_s = rec_per_gpu.iter().copied().fold(0.0, f64::max);

        // ---- communication ------------------------------------------------
        let point_bytes = CurveDesc::of::<C>().xyzz_bytes();
        let comm = if self.config.bucket_reduce_on_cpu {
            // every bucket partial crosses to the host before the CPU
            // reduce; under recovery the gather covers the slices that
            // actually completed, shipped by whoever computed them
            crate::comm::bucket_gather_schedule(
                recovery_or_plan_slices(supervised, &recovery, &slices),
                point_bytes,
                system,
            )
        } else if !recovery.lost_gpus.is_empty() {
            // a lost rank cannot take part in ring/tree exchanges, so the
            // collective degrades to a survivors-only host gather; the
            // dead ranks' pre-fault partials reached the host through the
            // window-level checkpoints charged below
            recovery.degraded_collective = true;
            let per: Vec<f64> = (0..n_gpus)
                .map(|g| {
                    if dead.contains(&g) {
                        0.0
                    } else {
                        f64::from(n_windows) * point_bytes
                    }
                })
                .collect();
            let mut sched =
                gather_to_host(&per, &system.fabric(), &CommConfig::default());
            sched.host_reduce_ops = (n_gpus as u64 - 1) * u64::from(n_windows);
            for (g, partial) in gpu_partials.iter().enumerate() {
                for (w, p) in partial.iter().enumerate() {
                    if g == 0 {
                        window_results[w] = *p;
                    } else {
                        window_results[w] = window_results[w].padd(p);
                    }
                }
            }
            sched
        } else {
            // per-GPU window partials merge across the fabric with real
            // PADDs; the host receives the reduced vector
            let (merged, sched) = run_collective(
                self.config.collective,
                &gpu_partials,
                |a, b| a.padd(b),
                &system.fabric(),
                &CommConfig::default(),
                point_bytes,
            );
            window_results = merged;
            sched
        };
        let transfer_s = comm.total_s;
        // host-side combines implied by the collective (e.g. host-gather
        // reduces (g−1)·n_windows pairs on the CPU)
        let comm_host_s =
            cpu_seconds_for_padds(comm.host_reduce_ops, model, self.system.cpu.int_ops_per_sec);

        // window-level checkpoints: on the CPU-reduce path the gather
        // above already lands every partial on the host (the checkpoint
        // is free); the GPU-reduce path charges an extra partial gather
        // over the clean fabric (checkpoints stream while links are up)
        if supervised && !self.config.bucket_reduce_on_cpu {
            recovery.checkpoint_s = self
                .system
                .gather_to_host_time(&vec![f64::from(n_windows) * point_bytes; n_gpus]);
        }

        // ---- window-reduce ------------------------------------------------
        let (result, wr_ops) = window_reduce(&window_results, s);

        // ---- timing composition -------------------------------------------
        let cpu_reduce_s = cpu_seconds_for_padds(cpu_padds, model, self.system.cpu.int_ops_per_sec);
        let window_reduce_s =
            cpu_seconds_for_padds(wr_ops, model, self.system.cpu.int_ops_per_sec);

        let ComposedTiming { per_gpu_s, phases, total_s: base_s } = compose_timing(
            &self.config,
            n_windows,
            &PhaseTimes {
                scatter_per_gpu: &scatter_per_gpu,
                sum_per_gpu: &sum_per_gpu,
                gpu_reduce_per_gpu: &gpu_reduce_per_gpu,
                cpu_reduce_s,
                comm_host_s,
                window_reduce_s,
                transfer_s,
            },
        );

        // ---- straggler detection ------------------------------------------
        // the supervisor watches per-GPU busy time against the median;
        // skew beyond the detection ratio is recorded, and beyond the
        // configured SLA it is an error
        if supervised {
            let mut busy: Vec<f64> = per_gpu_s
                .iter()
                .copied()
                .filter(|&t| t > 0.0)
                .collect();
            busy.sort_by(f64::total_cmp);
            if !busy.is_empty() {
                let median = busy[busy.len() / 2];
                if median > 0.0 {
                    for (g, &t) in per_gpu_s.iter().enumerate() {
                        let ratio = t / median;
                        if ratio > STRAGGLER_DETECT_RATIO {
                            recovery.stragglers.push((g, ratio));
                            recovery.faults.push(FaultObservation {
                                device: g,
                                event: plan
                                    .straggler_from(g, attempt)
                                    .map_or(0, |(at, _)| at),
                                kind: "straggler".into(),
                            });
                            if let Some(sla) = self.config.straggler_sla {
                                if ratio > sla {
                                    return Err(MsmError::Straggler {
                                        device: g,
                                        slowdown: ratio,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }

        // recovery runs as a serial phase after detection: probes back
        // off, survivors recompute, the self-check and checkpoints guard
        let total_s = base_s + if supervised { recovery.recovery_s() } else { 0.0 };

        let report = MsmReport {
            result,
            window_partials: window_results,
            window_size: s,
            n_windows,
            phases,
            total_s,
            per_gpu_s,
            launches,
            comm: Some(comm),
            recovery: supervised.then_some(recovery),
        };
        if distmsm_telemetry::session::active() {
            self.emit_telemetry(
                &report,
                &done,
                &recovered,
                attempt,
                &TelemetryPhases {
                    scatter_per_gpu: &scatter_per_gpu,
                    sum_per_gpu: &sum_per_gpu,
                    gpu_reduce_per_gpu: &gpu_reduce_per_gpu,
                    rec_per_gpu: &rec_per_gpu,
                    prepass,
                    cpu_reduce_s,
                    comm_host_s,
                    gpu_makespan: report.per_gpu_s.iter().copied().fold(0.0, f64::max),
                },
            );
        }
        Ok(report)
    }

    /// Lays the just-composed report out on the telemetry session's
    /// timeline, then advances the session clock by `total_s` so
    /// sequential MSMs line up end to end.
    ///
    /// The layout mirrors the timing composition above exactly — each
    /// phase category's aggregate over the emitted spans reproduces the
    /// corresponding [`PhaseBreakdown`] field (the TEL-001 analyze rule
    /// holds the trace to that) and the latest span ends at
    /// `clock + total_s`. Called only while a session is active.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_lines)] // one linear timeline layout pass
    fn emit_telemetry<C: Curve>(
        &self,
        report: &MsmReport<C>,
        done: &[SliceOutcome<C>],
        recovered: &[SliceOutcome<C>],
        attempt: u32,
        ph: &TelemetryPhases<'_>,
    ) {
        use distmsm_gpu_sim::telemetry::{device_span, fault_instant, kernel_span};
        use distmsm_telemetry::{session, Instant, Lane, Span};
        let t0 = session::clock_s();
        let n_gpus = ph.scatter_per_gpu.len();
        let plan = &self.config.fault_plan;
        let straggle = |g: usize, e: u64| -> f64 {
            plan.straggler_from(g, attempt)
                .map_or(1.0, |(at, slow)| if e >= at { slow } else { 1.0 })
        };
        let kernel_s = |oc: &SliceOutcome<C>, stats: &LaunchStats| -> f64 {
            straggle(oc.slice.gpu, oc.event)
                * estimate_kernel_time(&self.system.devices[oc.slice.gpu], stats, &self.cost_cfg)
                    .total()
        };

        // ---- device lanes: structural phase containers with kernel
        // children carrying the attributed categories ----
        for g in 0..n_gpus {
            let sc_end = t0 + ph.scatter_per_gpu[g];
            device_span(g, "scatter", "phase", t0, sc_end);
            if ph.prepass > 0.0 {
                device_span(g, "coeff-prepass", "scatter", t0, t0 + ph.prepass);
            }
            let mut cursor = t0 + ph.prepass;
            for oc in done.iter().filter(|oc| oc.slice.gpu == g) {
                let t = kernel_s(oc, &oc.scatter_stats);
                kernel_span(
                    g,
                    &format!(
                        "scatter:w{}[{},{})",
                        oc.slice.window, oc.slice.bucket_lo, oc.slice.bucket_hi
                    ),
                    "scatter",
                    cursor,
                    cursor + t,
                    &oc.scatter_stats,
                );
                cursor += t;
            }
            let su_end = sc_end + ph.sum_per_gpu[g];
            device_span(g, "bucket-sum", "phase", sc_end, su_end);
            let mut cursor = sc_end;
            for oc in done.iter().filter(|oc| oc.slice.gpu == g) {
                let t = kernel_s(oc, &oc.sum_stats);
                kernel_span(
                    g,
                    &format!(
                        "bucket-sum:w{}[{},{})",
                        oc.slice.window, oc.slice.bucket_lo, oc.slice.bucket_hi
                    ),
                    "bucket-sum",
                    cursor,
                    cursor + t,
                    &oc.sum_stats,
                );
                cursor += t;
            }
        }

        // ---- fabric lane: the comm schedule's collective + steps ----
        let pipelined_cpu = self.config.bucket_reduce_on_cpu && self.config.pipelined;
        let fabric_t0 = t0
            + if pipelined_cpu {
                ph.gpu_makespan.max(ph.cpu_reduce_s)
            } else {
                ph.gpu_makespan
            };
        let transfer_s = report.phases.transfer_s;
        if let Some(comm) = &report.comm {
            distmsm_comms::schedule::telemetry::emit_schedule(comm, fabric_t0);
        }

        // ---- host lane: bucket-reduce / pipeline tail / window-reduce ----
        let wr_t0 = if self.config.bucket_reduce_on_cpu {
            if self.config.pipelined {
                // §3.2.3: the reduce streams behind the GPUs from t0;
                // only the last window's tail follows the transfer
                if ph.cpu_reduce_s > 0.0 {
                    session::push_span(Span {
                        name: "bucket-reduce(cpu,pipelined)".into(),
                        cat: "bucket-reduce".into(),
                        lane: Lane::Host,
                        t0_s: t0,
                        t1_s: t0 + ph.cpu_reduce_s,
                        args: Vec::new(),
                    });
                }
                let tail = ph.cpu_reduce_s / f64::from(report.n_windows.max(1));
                if tail > 0.0 {
                    session::push_span(Span {
                        name: "pipeline-tail".into(),
                        cat: "pipeline-tail".into(),
                        lane: Lane::Host,
                        t0_s: fabric_t0 + transfer_s,
                        t1_s: fabric_t0 + transfer_s + tail,
                        args: Vec::new(),
                    });
                }
                fabric_t0 + transfer_s + tail
            } else {
                if ph.cpu_reduce_s > 0.0 {
                    session::push_span(Span {
                        name: "bucket-reduce(cpu)".into(),
                        cat: "bucket-reduce".into(),
                        lane: Lane::Host,
                        t0_s: fabric_t0 + transfer_s,
                        t1_s: fabric_t0 + transfer_s + ph.cpu_reduce_s,
                        args: Vec::new(),
                    });
                }
                fabric_t0 + transfer_s + ph.cpu_reduce_s
            }
        } else {
            // GPU path: per-device reduce segments, then the host-side
            // combine the collective implies
            let gr_t0 = fabric_t0 + transfer_s;
            let max_gr = ph.gpu_reduce_per_gpu.iter().copied().fold(0.0, f64::max);
            for g in 0..n_gpus {
                if ph.gpu_reduce_per_gpu[g] > 0.0 {
                    device_span(
                        g,
                        "bucket-reduce(gpu)",
                        "bucket-reduce",
                        gr_t0,
                        gr_t0 + ph.gpu_reduce_per_gpu[g],
                    );
                }
            }
            if ph.comm_host_s > 0.0 {
                session::push_span(Span {
                    name: "host-combine".into(),
                    cat: "bucket-reduce".into(),
                    lane: Lane::Host,
                    t0_s: gr_t0 + max_gr,
                    t1_s: gr_t0 + max_gr + ph.comm_host_s,
                    args: Vec::new(),
                });
            }
            gr_t0 + max_gr + ph.comm_host_s
        };
        if report.phases.window_reduce_s > 0.0 {
            session::push_span(Span {
                name: "window-reduce".into(),
                cat: "window-reduce".into(),
                lane: Lane::Host,
                t0_s: wr_t0,
                t1_s: wr_t0 + report.phases.window_reduce_s,
                args: Vec::new(),
            });
        }

        // ---- supervisor + recovery tail ----
        if let Some(rec) = &report.recovery {
            let rec_t0 = t0 + report.total_s - rec.recovery_s();
            for ev in plan.events.iter().filter(|e| e.attempt == attempt) {
                fault_instant(ev, rec_t0);
            }
            for f in rec.faults.iter().filter(|f| f.kind == "link-down") {
                session::push_instant(Instant {
                    name: "fault:link-down".into(),
                    cat: "fault".into(),
                    lane: Lane::Device(f.device),
                    t_s: t0,
                    args: vec![("device".into(), f.device.to_string())],
                });
            }
            if !rec.replanned.is_empty() {
                session::push_instant(Instant {
                    name: "re-plan".into(),
                    cat: "supervisor".into(),
                    lane: Lane::Supervisor,
                    t_s: rec_t0,
                    args: vec![
                        ("slices".into(), rec.replanned.len().to_string()),
                        ("lost_gpus".into(), format!("{:?}", rec.lost_gpus)),
                    ],
                });
            }
            if rec.degraded_collective {
                session::push_instant(Instant {
                    name: "route-degraded".into(),
                    cat: "supervisor".into(),
                    lane: Lane::Fabric,
                    t_s: fabric_t0,
                    args: vec![(
                        "detail".into(),
                        "collective degraded to survivors-only gather".into(),
                    )],
                });
            }
            if rec.backoff_s > 0.0 {
                session::push_span(Span {
                    name: "retry-backoff".into(),
                    cat: "recovery".into(),
                    lane: Lane::Supervisor,
                    t0_s: rec_t0,
                    t1_s: rec_t0 + rec.backoff_s,
                    args: vec![("retries".into(), rec.retries.to_string())],
                });
            }
            let recompute_t0 = rec_t0 + rec.backoff_s;
            for g in 0..n_gpus {
                if ph.rec_per_gpu[g] > 0.0 {
                    device_span(
                        g,
                        "recompute",
                        "recovery",
                        recompute_t0,
                        recompute_t0 + ph.rec_per_gpu[g],
                    );
                }
            }
            let check_t0 = recompute_t0 + rec.recompute_s;
            if rec.self_check_s > 0.0 {
                session::push_span(Span {
                    name: "self-check(rlc)".into(),
                    cat: "recovery".into(),
                    lane: Lane::Host,
                    t0_s: check_t0,
                    t1_s: check_t0 + rec.self_check_s,
                    args: Vec::new(),
                });
            }
            if rec.checkpoint_s > 0.0 {
                session::push_span(Span {
                    name: "checkpoint".into(),
                    cat: "recovery".into(),
                    lane: Lane::Host,
                    t0_s: check_t0 + rec.self_check_s,
                    t1_s: check_t0 + rec.self_check_s + rec.checkpoint_s,
                    args: Vec::new(),
                });
            }
            // recovered slices are re-run inside the recompute segments;
            // annotate them without separate spans (they'd double-count)
            let _ = recovered;
        }

        session::advance_s(report.total_s);
    }

    /// Records fail-stop observations for devices that just lost jobs
    /// and adds them to the dead set.
    fn note_fail_stops(
        &self,
        lost: &[(Slice, u64)],
        dead: &mut Vec<usize>,
        recovery: &mut RecoveryReport,
    ) {
        for (sl, e) in lost {
            if !dead.contains(&sl.gpu) {
                dead.push(sl.gpu);
                recovery.faults.push(FaultObservation {
                    device: sl.gpu,
                    event: *e,
                    kind: "fail-stop".into(),
                });
            }
        }
    }

    /// Chooses the scatter kind for one slice (DistMSM: hierarchical
    /// whenever the slice fits in shared memory).
    fn pick_scatter(&self, slice: &Slice) -> Result<ScatterKind, MsmError> {
        let needed =
            crate::scatter::hierarchical_shared_bytes(slice.len(), &self.config.scatter_cfg);
        let fits = needed <= self.config.scatter_cfg.shared_mem_per_block;
        match self.config.scatter {
            Some(ScatterKind::Naive) => Ok(ScatterKind::Naive),
            Some(ScatterKind::Hierarchical) if !fits => {
                Err(MsmError::ScatterOverflow(SharedMemoryOverflow {
                    needed,
                    available: self.config.scatter_cfg.shared_mem_per_block,
                }))
            }
            Some(ScatterKind::Hierarchical) => Ok(ScatterKind::Hierarchical),
            None if fits => Ok(ScatterKind::Hierarchical),
            None => Ok(ScatterKind::Naive),
        }
    }

    /// What every slice of one execution of `instance` shares, behind the
    /// entry checks: the window shape this engine's configuration gives
    /// the instance, the signed-digit recoding (done once, up front, like
    /// the packed coefficient pre-pass; same memory-bound cost class) and
    /// the kernel model.
    pub(crate) fn launch<'a, C: Curve>(
        &self,
        instance: &'a MsmInstance<C>,
    ) -> Result<Launch<'a, C>, MsmError> {
        if instance.points.len() != instance.scalars.len() {
            return Err(MsmError::LengthMismatch {
                points: instance.points.len(),
                scalars: instance.scalars.len(),
            });
        }
        if instance.is_empty() {
            return Err(MsmError::EmptyInstance);
        }
        let model = EcKernelModel::new(C::Base::LIMBS32, self.config.kernel_opts);
        let (s, n_windows, n_buckets) = self.shape_for(instance.len(), &CurveDesc::of::<C>());
        let digits = self.config.signed_digits.then(|| {
            instance
                .scalars
                .iter()
                .map(|k| crate::signed::recode_signed(k, s, C::SCALAR_BITS))
                .collect()
        });
        Ok(Launch {
            instance,
            s,
            n_windows,
            n_buckets,
            digits,
            gpu_threads: gpu_threads(&self.system, &self.config, &model),
            model,
        })
    }

    /// Functionally executes one slice: scatter, bucket-sum, and the
    /// slice's bucket-reduce, so the bucket vector never leaves the worker.
    fn run_one_slice<C: Curve>(
        &self,
        launch: &Launch<'_, C>,
        scratch: &mut BatchAccumulator<C>,
        slice: Slice,
        event: u64,
    ) -> Result<SliceOutcome<C>, MsmError> {
        let Launch { instance, s, ref digits, gpu_threads, ref model, .. } = *launch;
        let kind = self.pick_scatter(&slice)?;
        let coeff_bytes = if self.config.packed_coefficients {
            4.0
        } else {
            f64::from(C::SCALAR_BITS.div_ceil(8))
        };
        let scattered: ScatterOutcome = match (digits, kind) {
            (Some(d), kind) => crate::scatter::scatter_signed_digits(
                d,
                &slice,
                kind,
                gpu_threads,
                &self.config.scatter_cfg,
                coeff_bytes,
            )
            .map_err(MsmError::ScatterOverflow)?,
            (None, ScatterKind::Naive) => scatter_naive(
                &instance.scalars,
                s,
                &slice,
                gpu_threads,
                coeff_bytes,
            ),
            (None, ScatterKind::Hierarchical) => scatter_hierarchical(
                &instance.scalars,
                s,
                &slice,
                &self.config.scatter_cfg,
                coeff_bytes,
            )
            .map_err(MsmError::ScatterOverflow)?,
        };
        let tpb = threads_per_bucket(gpu_threads, u64::from(slice.len()));
        let sum = bucket_sum_with(
            scratch,
            digits.is_some(),
            &instance.points,
            &scattered.buckets,
            tpb,
            model,
            self.config.block_size,
        );
        Ok(SliceOutcome {
            slice,
            event,
            scatter_stats: scattered.stats,
            sum_stats: sum.stats,
            contrib: bucket_reduce_serial(&sum.sums, slice.bucket_lo),
        })
    }

    /// Functionally executes `jobs` (slice + work-event id) on at most
    /// `workers` host threads, the calling thread among them. Each worker
    /// claims the next unclaimed job until none is left, so the threads
    /// finish within one slice of each other whatever the slices weigh.
    /// Which worker ran a slice cannot show in its outcome: events were
    /// assigned in plan order before any worker started, an outcome lands
    /// in its job's slot, and a bucket sum does not depend on what its
    /// worker's scratch summed before. A slice whose kernel code panics
    /// leaves its slot empty and reports the typed
    /// [`MsmError::SliceLost`] instead of taking the caller down.
    pub(crate) fn run_slices<C: Curve>(
        &self,
        launch: &Launch<'_, C>,
        jobs: &[(Slice, u64)],
        workers: usize,
    ) -> Result<Vec<SliceOutcome<C>>, MsmError> {
        let slots: Vec<OnceLock<Result<SliceOutcome<C>, MsmError>>> =
            jobs.iter().map(|_| OnceLock::new()).collect();
        // a ticket counter: it publishes nothing but its own value (an
        // outcome is published by its slot), so `Relaxed` suffices
        let cursor = AtomicUsize::new(0);
        let work = || {
            // one bucket-sum scratch per worker, not per slice
            let mut scratch = BatchAccumulator::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(slice, event)) = jobs.get(i) else { break };
                // a panic may leave `scratch` mid-slice: harmless, the
                // empty slot fails the whole call and every outcome with it
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    self.run_one_slice(launch, &mut scratch, slice, event)
                }));
                if let Ok(outcome) = ran {
                    // each index is claimed once, so the slot is empty
                    let _ = slots[i].set(outcome);
                }
            }
        };
        std::thread::scope(|scope| {
            for _ in 0..helper_count(workers, jobs.len()) {
                scope.spawn(work);
            }
            work();
        });
        slots
            .into_iter()
            .zip(jobs)
            .map(|(slot, (slice, _))| {
                slot.into_inner().unwrap_or(Err(MsmError::SliceLost {
                    gpu: slice.gpu,
                    window: slice.window,
                }))
            })
            .collect()
    }
}

/// `std::thread::available_parallelism()`, read once per process: std
/// re-reads the affinity mask and the cgroup quota files on every call.
pub(crate) fn host_parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| std::thread::available_parallelism().map_or(4, |p| p.get()))
}

/// Threads [`DistMsm::run_slices`] spawns beside its caller: none for one
/// job or one worker.
fn helper_count(workers: usize, jobs: usize) -> usize {
    workers.min(jobs).saturating_sub(1)
}

/// Slices paired with their per-device work-event ids, as scheduled by
/// the supervisor's fault-injection event counters.
type Jobs = Vec<(Slice, u64)>;

/// One completed slice: its plan coordinates, per-device work-event id,
/// metered kernel stats, and its bucket-reduce — the slice's contribution
/// to its window with the modelled PADD count. The bucket sums themselves
/// are dropped on the worker.
#[derive(Debug)]
pub(crate) struct SliceOutcome<C: Curve> {
    pub(crate) slice: Slice,
    event: u64,
    scatter_stats: LaunchStats,
    sum_stats: LaunchStats,
    pub(crate) contrib: (XyzzPoint<C>, u64),
}

/// The per-execution context [`DistMsm::launch`] builds and every slice
/// of the execution reads.
pub(crate) struct Launch<'a, C: Curve> {
    instance: &'a MsmInstance<C>,
    /// Window size.
    pub(crate) s: u32,
    /// Windows, counting the signed-digit carry window.
    pub(crate) n_windows: u32,
    /// Buckets per window.
    pub(crate) n_buckets: u32,
    digits: Option<Vec<Vec<i32>>>,
    gpu_threads: u64,
    model: EcKernelModel,
}

/// Per-phase timing internals `execute_attempt` hands to the telemetry
/// emitter: everything the timeline layout needs that the public
/// [`MsmReport`] does not carry.
struct TelemetryPhases<'a> {
    scatter_per_gpu: &'a [f64],
    sum_per_gpu: &'a [f64],
    gpu_reduce_per_gpu: &'a [f64],
    rec_per_gpu: &'a [f64],
    prepass: f64,
    cpu_reduce_s: f64,
    comm_host_s: f64,
    gpu_makespan: f64,
}

/// The slice set the CPU-path bucket gather covers: under supervision
/// the slices that actually completed (recovery moved ownership), on
/// the fast path the original plan.
fn recovery_or_plan_slices<'a>(
    supervised: bool,
    recovery: &'a RecoveryReport,
    planned: &'a [Slice],
) -> &'a [Slice] {
    if supervised {
        &recovery.completed
    } else {
        planned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::{Bls12381G1, Bn254G1, Mnt4753G1};
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
        for (gpus, s) in [(1usize, None), (4, Some(9u32)), (8, Some(6))] {
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
            instance: inst,
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
