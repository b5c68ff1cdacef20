//! A cuZK-style sparse-matrix MSM (the paper's baseline #2).
//!
//! cuZK [Lu et al.] formulates Pippenger's bucket scatter as a sparse
//! matrix transposition: scalar chunks form an ELL matrix whose
//! transpose (computed with prefix sums — no global atomics at all)
//! yields the bucket→points lists, followed by a load-balanced SpMV-like
//! accumulation. It scales near-linearly to 8 GPUs (its paper's claim,
//! echoed in §6 here) but keeps the bucket-reduce on the GPU, which is
//! what DistMSM improves on at higher GPU counts.
//!
//! This is a genuinely different algorithm (counting-sort transpose vs
//! atomics), implemented functionally and metered like everything else.

use crate::analytic::CurveDesc;
use crate::bucket_sum::{bucket_sum, threads_per_bucket};
use crate::plan::Slice;
use crate::reduce::{bucket_reduce_gpu_stats, bucket_reduce_serial, window_reduce};
use distmsm_ec::{Curve, FieldElement, MsmInstance, Scalar, XyzzPoint};
use distmsm_gpu_sim::trace::LaunchRecorder;
use distmsm_gpu_sim::{
    estimate_kernel_time, CostModelConfig, KernelProfile, LaunchStats, MultiGpuSystem, ThreadCost,
};
use distmsm_kernel::ir::{IndexExpr, PlanIr, Poly, Region, RegionFamily, SymBound};
use distmsm_kernel::{EcKernelModel, PaddOptimizations};

/// Trace address namespaces (see `distmsm_gpu_sim::trace`).
mod addr {
    /// Global: packed scalar-chunk array, indexed by point.
    pub const SCAL: u64 = 0x1000_0000_0000;
    /// Global: per-thread histogram columns; `HIST + (bucket << 20 | thread)`.
    pub const HIST: u64 = 0x5000_0000_0000;
    /// Global: per-bucket row offsets from the prefix sum.
    pub const OFF: u64 = 0x6000_0000_0000;
    /// Global: transposed cells; `CELL + (bucket << 24 | slot)`.
    pub const CELL: u64 = 0x7000_0000_0000;
}

/// Emits the transpose's three grid-synchronised passes. Pass 0 builds
/// per-thread histogram columns (cuZK's ELL layout — no two threads share
/// a counter, hence no atomics), pass 1 prefix-sums them into per-bucket
/// row offsets (each bucket owned by one thread), pass 2 re-reads the
/// scalars and writes each point into its claimed (unique) transposed
/// cell. Passes are separated by grid syncs, which is the only reason the
/// cross-thread histogram/offset reads are ordered.
#[cold]
#[inline(never)]
fn emit_transpose_trace<S: Scalar>(
    rec: &mut LaunchRecorder,
    scalars: &[S],
    s: u32,
    window: u32,
    threads: u64,
) {
    use distmsm_gpu_sim::trace::{AccessKind, Space};
    let n = scalars.len() as u64;
    let n_buckets = 1u64 << s;
    let per_thread = n.div_ceil(threads.max(1)).max(1);
    let thread_of = |i: u64| {
        let t = i / per_thread;
        ((t / 256) as u32, (t % 256) as u32) // profile block size is 256
    };
    // pass 0: histogram into private columns
    for (i, k) in scalars.iter().enumerate() {
        let (blk, tid) = thread_of(i as u64);
        let t = i as u64 / per_thread;
        rec.access(blk, tid, 0, Space::Global, AccessKind::Read, addr::SCAL + i as u64);
        let b = k.window(window * s, s);
        if b != 0 {
            rec.access(blk, tid, 0, Space::Global, AccessKind::Write, addr::HIST + ((b << 20) | t));
        }
    }
    rec.grid_sync_at(0);
    // pass 1: prefix sum — bucket b is owned by one thread, which reads
    // every thread's column for b and publishes the row offset
    let buckets_per_thread = n_buckets.div_ceil(threads.max(1)).max(1);
    for b in 1..n_buckets {
        let owner = b / buckets_per_thread;
        let (blk, tid) = ((owner / 256) as u32, (owner % 256) as u32);
        for t in 0..threads.min(4) {
            // sampled columns: reading all `threads` columns per bucket
            // would square the trace size without changing the HB structure
            rec.access(blk, tid, 1, Space::Global, AccessKind::Read, addr::HIST + ((b << 20) | t));
        }
        rec.access(blk, tid, 1, Space::Global, AccessKind::Write, addr::OFF + b);
    }
    rec.grid_sync_at(1);
    // pass 2: scatter into the claimed transposed cells
    let mut cursors = vec![0u64; n_buckets as usize];
    for (i, k) in scalars.iter().enumerate() {
        let (blk, tid) = thread_of(i as u64);
        rec.access(blk, tid, 2, Space::Global, AccessKind::Read, addr::SCAL + i as u64);
        let b = k.window(window * s, s);
        if b != 0 {
            rec.access(blk, tid, 2, Space::Global, AccessKind::Read, addr::OFF + b);
            let slot = cursors[b as usize];
            cursors[b as usize] += 1;
            rec.access(
                blk,
                tid,
                2,
                Space::Global,
                AccessKind::Write,
                addr::CELL + ((b << 24) | slot),
            );
        }
    }
}

/// Result of a cuZK-style execution.
#[derive(Clone, Debug)]
pub struct CuZkReport<C: Curve> {
    /// The MSM value (bit-exact).
    pub result: XyzzPoint<C>,
    /// Window size used.
    pub window_size: u32,
    /// Simulated wall time in seconds.
    pub total_s: f64,
}

/// The sparse-matrix transpose of one window: a counting sort of point
/// indices by bucket id. Returns per-bucket index lists plus the metered
/// launch statistics (prefix-sum passes instead of atomics).
pub fn transpose_window<S: Scalar>(
    scalars: &[S],
    s: u32,
    window: u32,
    gpu_threads: u64,
) -> (Vec<Vec<u32>>, LaunchStats) {
    let n_buckets = 1usize << s;
    // pass 1: histogram
    let mut counts = vec![0u32; n_buckets];
    for k in scalars {
        let b = k.window(window * s, s) as usize;
        if b != 0 {
            counts[b] += 1;
        }
    }
    // pass 2: exclusive prefix sum → row offsets (the transpose index)
    let mut offsets = vec![0u32; n_buckets + 1];
    for b in 0..n_buckets {
        offsets[b + 1] = offsets[b] + counts[b];
    }
    // pass 3: scatter into the transposed layout
    let mut buckets: Vec<Vec<u32>> = counts.iter().map(|&c| Vec::with_capacity(c as usize)).collect();
    for (i, k) in scalars.iter().enumerate() {
        let b = k.window(window * s, s) as usize;
        if b != 0 {
            buckets[b].push(i as u32);
        }
    }

    let n = scalars.len() as u64;
    let threads = n.min(gpu_threads).max(1);
    let per_thread = n.div_ceil(threads) as f64;
    let mut stats = LaunchStats::new(
        KernelProfile::new("cuzk-transpose", 32, 0, 256),
        threads,
    );
    stats.max_thread = ThreadCost {
        // histogram + scatter are two full passes; prefix sum is log-depth
        int_ops: per_thread * 10.0 + (n_buckets as f64 / threads as f64).ceil() * 8.0,
        global_bytes: per_thread * (32.0 + 8.0) * 2.0,
        barriers: (threads as f64).log2().ceil(),
        global_syncs: 2.0, // between the three passes
        ..ThreadCost::default()
    };
    stats.total = stats.max_thread.scale(threads as f64);

    let mut rec = LaunchRecorder::start("cuzk-transpose", 0);
    if rec.active() {
        emit_transpose_trace(&mut rec, scalars, s, window, threads);
    }
    rec.commit();

    (buckets, stats)
}

/// Executes the cuZK-style MSM on `system`: windows round-robined over
/// GPUs, transpose-based scatter, SpMV-like bucket sum, **GPU**
/// bucket-reduce (the design choice DistMSM replaces).
///
/// # Panics
///
/// Panics on an empty instance.
pub fn execute<C: Curve>(
    instance: &MsmInstance<C>,
    system: &MultiGpuSystem,
    window_size: Option<u32>,
) -> CuZkReport<C> {
    assert!(!instance.is_empty(), "empty MSM instance");
    let cost_cfg = CostModelConfig::default();
    let model = EcKernelModel::new(C::Base::LIMBS32, PaddOptimizations::all());
    let dev = &system.devices[0];
    let resident = dev.resident_threads_per_sm(model.regs_per_thread(), 0, 256);
    let gpu_threads = (u64::from(resident) * u64::from(dev.sm_count)).max(1);

    // cuZK favours larger windows than DistMSM (its reduce is on-GPU)
    let s = window_size.unwrap_or(16).min(C::SCALAR_BITS);
    let n_windows = C::SCALAR_BITS.div_ceil(s);
    let n_gpus = system.n_gpus();

    let mut per_gpu = vec![0.0f64; n_gpus];
    let mut window_results = vec![XyzzPoint::<C>::identity(); n_windows as usize];
    for w in 0..n_windows {
        let gpu = (w as usize) % n_gpus;
        let (buckets, t_stats) = transpose_window(&instance.scalars, s, w, gpu_threads);
        per_gpu[gpu] += estimate_kernel_time(&system.devices[gpu], &t_stats, &cost_cfg).total();

        let tpb = threads_per_bucket(gpu_threads, buckets.len() as u64);
        let sum = bucket_sum(&instance.points, &buckets, tpb, &model, 256);
        per_gpu[gpu] += estimate_kernel_time(&system.devices[gpu], &sum.stats, &cost_cfg).total();

        let slice = Slice {
            gpu,
            window: w,
            bucket_lo: 0,
            bucket_hi: 1 << s,
        };
        let _ = slice;
        let (reduced, _) = bucket_reduce_serial(&sum.sums, 0);
        window_results[w as usize] = reduced;
        let r_stats = bucket_reduce_gpu_stats(
            1 << s,
            s,
            gpu_threads,
            &model,
            C::A_IS_ZERO,
            256,
        );
        per_gpu[gpu] += estimate_kernel_time(&system.devices[gpu], &r_stats, &cost_cfg).total();
    }
    let (result, _) = window_reduce(&window_results, s);
    // each GPU ships its round-robin share of window results to the
    // host, routed through the fabric (topology-aware on DGX presets)
    let point_bytes = CurveDesc::of::<C>().xyzz_bytes();
    let per_gpu_bytes: Vec<f64> = (0..n_gpus)
        .map(|g| {
            let windows = (u64::from(n_windows) + n_gpus as u64 - 1 - g as u64) / n_gpus as u64;
            windows as f64 * point_bytes
        })
        .collect();
    let total_s = per_gpu.iter().copied().fold(0.0, f64::max)
        + system.gather_to_host_time(&per_gpu_bytes);

    CuZkReport {
        result,
        window_size: s,
        total_s,
    }
}

/// Thread bits of the `HIST` namespace: thread `t` of bucket `b` owns
/// the private histogram column cell `HIST + (b << HIST_BITS | t)`.
pub const HIST_BITS: u32 = 20;

/// Slot bits of the `CELL` namespace: the transposed cell of slot
/// `slot` in bucket `b` lives at `CELL + (b << CELL_BITS | slot)`.
pub const CELL_BITS: u32 = 24;

/// Symbolic IR of the cuZK histogram pass: bucket `bkt` of `NB` owns
/// the per-thread column band `[bkt·2^20, bkt·2^20 + T)` of the `HIST`
/// namespace, `T` the thread count. Each thread writes only its own
/// column cell, so the pass needs no atomics — which is exactly the
/// property the band disjointness (under `2^20 − T ≥ 0`) certifies.
pub fn histogram_ir() -> PlanIr {
    let band = Poly::con(1 << HIST_BITS);
    let bkt = Poly::var("bkt");
    PlanIr {
        name: "cuzk-histogram".into(),
        space: (
            IndexExpr::con(0),
            IndexExpr::Poly(Poly::var("NB").mul(&band)),
        ),
        cover: false,
        families: vec![RegionFamily {
            writer: "bucket-column",
            param: "bkt",
            count: IndexExpr::var("NB"),
            region: Region::Interval {
                lo: IndexExpr::Poly(bkt.mul(&band)),
                hi: IndexExpr::Poly(bkt.mul(&band).add(&Poly::var("T"))),
            },
        }],
        bounds: vec![SymBound::at_least("NB", 1), SymBound::at_least("T", 1)],
        // T ≤ 2^20: thread ids never reach the bucket shift.
        assumptions: vec![band.sub(&Poly::var("T"))],
    }
}

/// Symbolic IR of the cuZK transpose scatter: bucket `bkt` writes its
/// sorted cells into the stride-`2^24` band `[bkt·2^24, bkt·2^24 + S)`
/// of the `CELL` namespace, `S` bounding per-bucket occupancy. The
/// prefix-sum offsets claim unique slots, so disjoint bands (under
/// `2^24 − S ≥ 0`) make the whole scatter conflict-free.
pub fn transpose_cell_ir() -> PlanIr {
    let band = Poly::con(1 << CELL_BITS);
    let bkt = Poly::var("bkt");
    PlanIr {
        name: "cuzk-transpose".into(),
        space: (
            IndexExpr::con(0),
            IndexExpr::Poly(Poly::var("NB").mul(&band)),
        ),
        cover: false,
        families: vec![RegionFamily {
            writer: "bucket",
            param: "bkt",
            count: IndexExpr::var("NB"),
            region: Region::Interval {
                lo: IndexExpr::Poly(bkt.mul(&band)),
                hi: IndexExpr::Poly(bkt.mul(&band).add(&Poly::var("S"))),
            },
        }],
        bounds: vec![SymBound::at_least("NB", 1), SymBound::at_least("S", 1)],
        assumptions: vec![band.sub(&Poly::var("S"))],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::Bn254G1;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn cuzk_is_correct() {
        let mut rng = StdRng::seed_from_u64(900);
        let inst = MsmInstance::<Bn254G1>::random(200, &mut rng);
        for gpus in [1usize, 4] {
            let rep = execute(&inst, &MultiGpuSystem::dgx_a100(gpus), Some(8));
            assert_eq!(rep.result, inst.reference_result(), "gpus={gpus}");
        }
    }

    #[test]
    fn transpose_matches_scatter() {
        use crate::scatter::scatter_naive;
        let mut rng = StdRng::seed_from_u64(901);
        let inst = MsmInstance::<Bn254G1>::random(512, &mut rng);
        let s = 7;
        let (buckets, stats) = transpose_window(&inst.scalars, s, 2, 1 << 16);
        let slice = Slice {
            gpu: 0,
            window: 2,
            bucket_lo: 0,
            bucket_hi: 1 << s,
        };
        let naive = scatter_naive(&inst.scalars, s, &slice, 1 << 16, 4.0);
        for (a, b) in buckets.iter().zip(&naive.buckets) {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
        // the transpose issues no global atomics at all
        assert_eq!(stats.total.global_atomics, 0.0);
    }

    #[test]
    fn cuzk_scales_to_eight_but_reduce_limits_it() {
        // cuZK's own claim: near-linear to 8 GPUs; DistMSM's critique:
        // beyond that, the on-GPU reduce stops shrinking.
        let mut rng = StdRng::seed_from_u64(902);
        let inst = MsmInstance::<Bn254G1>::random(2048, &mut rng);
        let t1 = execute(&inst, &MultiGpuSystem::dgx_a100(1), Some(10)).total_s;
        let t8 = execute(&inst, &MultiGpuSystem::dgx_a100(8), Some(10)).total_s;
        assert!(t1 / t8 > 3.0, "8-GPU speedup {}", t1 / t8);
    }
}
