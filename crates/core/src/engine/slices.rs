//! Slice execution: what every slice of one execution shares
//! ([`Launch`]), one slice run end to end on a host worker (scatter,
//! bucket-sum and the slice's bucket-reduce), and the worker loop that
//! claims slices until none is left.

use super::{DistMsm, MsmError};
use crate::analytic::CurveDesc;
use crate::bucket_sum::{bucket_sum_with, threads_per_bucket};
use crate::config::DistMsmConfig;
use crate::plan::Slice;
use crate::reduce::bucket_reduce_serial;
use crate::scatter::{
    scatter_hierarchical, scatter_naive, ScatterKind, ScatterOutcome, SharedMemoryOverflow,
};
use distmsm_ec::batch::BatchAccumulator;
use distmsm_ec::{Affine, Curve, FieldElement, XyzzPoint};
use distmsm_gpu_sim::{LaunchStats, MultiGpuSystem};
use distmsm_kernel::EcKernelModel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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

/// Threads [`DistMsm::run_slices`] spawns beside its caller: none for one
/// job or one worker.
pub(super) fn helper_count(workers: usize, jobs: usize) -> usize {
    workers.min(jobs).saturating_sub(1)
}

/// Slices paired with their per-device work-event ids, as scheduled by
/// the supervisor's fault-injection event counters.
pub(crate) type Jobs = Vec<(Slice, u64)>;

/// One completed slice: its plan coordinates, per-device work-event id,
/// metered kernel stats, and its bucket-reduce — the slice's contribution
/// to its window with the modelled PADD count. The bucket sums themselves
/// are dropped on the worker.
#[derive(Debug)]
pub(crate) struct SliceOutcome<C: Curve> {
    pub(crate) slice: Slice,
    pub(crate) event: u64,
    pub(crate) scatter_stats: LaunchStats,
    pub(crate) sum_stats: LaunchStats,
    pub(crate) contrib: (XyzzPoint<C>, u64),
}

/// The per-execution context [`DistMsm::launch`] builds and every slice
/// of the execution reads.
pub(crate) struct Launch<'a, C: Curve> {
    /// The bases and scalars, borrowed from the caller for the execution.
    pub(crate) points: &'a [Affine<C>],
    pub(crate) scalars: &'a [C::Scalar],
    /// Window size.
    pub(crate) s: u32,
    /// Windows, counting the signed-digit carry window.
    pub(crate) n_windows: u32,
    /// Buckets per window.
    pub(crate) n_buckets: u32,
    pub(crate) digits: Option<Vec<Vec<i32>>>,
    pub(crate) gpu_threads: u64,
    pub(crate) model: EcKernelModel,
}

impl DistMsm {
    /// What every slice of one execution over `points` and `scalars`
    /// shares, behind the entry checks: the window shape this engine's
    /// configuration gives the input, the signed-digit recoding (done
    /// once, up front, like the packed coefficient pre-pass; same
    /// memory-bound cost class) and the kernel model.
    pub(crate) fn launch<'a, C: Curve>(
        &self,
        points: &'a [Affine<C>],
        scalars: &'a [C::Scalar],
    ) -> Result<Launch<'a, C>, MsmError> {
        if points.len() != scalars.len() {
            return Err(MsmError::LengthMismatch {
                points: points.len(),
                scalars: scalars.len(),
            });
        }
        if points.is_empty() {
            return Err(MsmError::EmptyInstance);
        }
        let model = EcKernelModel::new(C::Base::LIMBS32, self.config.kernel_opts);
        let (s, n_windows, n_buckets) = self.shape_for(points.len(), &CurveDesc::of::<C>());
        let digits = self.config.signed_digits.then(|| {
            scalars
                .iter()
                .map(|k| crate::signed::recode_signed(k, s, C::SCALAR_BITS))
                .collect()
        });
        Ok(Launch {
            points,
            scalars,
            s,
            n_windows,
            n_buckets,
            digits,
            gpu_threads: gpu_threads(&self.system, &self.config, &model),
            model,
        })
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

    /// Functionally executes one slice: scatter, bucket-sum, and the
    /// slice's bucket-reduce, so the bucket vector never leaves the worker.
    fn run_one_slice<C: Curve>(
        &self,
        launch: &Launch<'_, C>,
        scratch: &mut BatchAccumulator<C>,
        slice: Slice,
        event: u64,
    ) -> Result<SliceOutcome<C>, MsmError> {
        let Launch { points, scalars, s, ref digits, gpu_threads, ref model, .. } = *launch;
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
                scalars,
                s,
                &slice,
                gpu_threads,
                coeff_bytes,
            ),
            (None, ScatterKind::Hierarchical) => scatter_hierarchical(
                scalars,
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
            points,
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
