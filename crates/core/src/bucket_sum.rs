//! The *bucket-sum* step (§3.2.2): highly parallel accumulation of each
//! bucket's points, with multiple threads per bucket and an intra-bucket
//! reduction.

use distmsm_ec::batch::BatchAccumulator;
use distmsm_ec::{Affine, Curve, XyzzPoint};
use distmsm_gpu_sim::trace::LaunchRecorder;
use distmsm_gpu_sim::LaunchStats;
use distmsm_kernel::ir::PlanIr;
use distmsm_kernel::EcKernelModel;

/// Trace address namespaces (see `distmsm_gpu_sim::trace`).
mod addr {
    /// Global: affine point array, indexed by point.
    pub const POINT: u64 = 0x1000_0000_0000;
    /// Global: cross-block partial sums; `GPART + (bucket << 20 | block)`.
    pub const GPART: u64 = 0x3000_0000_0000;
    /// Shared (block-local): per-thread partial-sum slots.
    pub const SHM_PARTIAL: u64 = 0x300_0000;
}

/// Emits the bucket-sum access pattern. Thread `bucket * tpb + lane`
/// accumulates every `tpb`-th point of its bucket into a shared-memory
/// partial (phase 0), the block's threads pass `log2(tpb)` reduction
/// barriers, and the bucket leader combines the partials. The emitted
/// combine is flat (the leader reads each lane's slot once) rather than
/// the metered `log2` tree — a simplification with identical
/// synchronisation structure, since every tree step is barrier-separated
/// from the writes it consumes. When a bucket's lanes straddle a block
/// boundary, per-block segment leaders publish their partial globally and
/// the combine crosses a grid sync, mirroring a cooperative-groups launch.
#[cold]
#[inline(never)]
fn emit_bucket_sum_trace(
    rec: &mut LaunchRecorder,
    buckets: &[Vec<u32>],
    tpb: u32,
    block_size: u32,
) {
    use crate::scatter::SIGN_BIT;
    use distmsm_gpu_sim::trace::{AccessKind, Space};
    let tpb = tpb.max(1) as u64;
    let bs = block_size.max(1) as u64;
    let n_buckets = buckets.len() as u64;
    let threads = (n_buckets * tpb).max(1);
    let reduce_steps = (tpb as f64).log2().ceil() as u32;
    let spans_blocks = buckets
        .iter()
        .enumerate()
        .any(|(b, pts)| !pts.is_empty() && (b as u64 * tpb) / bs != (b as u64 * tpb + tpb - 1) / bs);

    let n_blocks = threads.div_ceil(bs);
    for blk in 0..n_blocks {
        let in_block = bs.min(threads - blk * bs) as u32;
        rec.block_barriers(blk as u32, in_block, reduce_steps);
    }

    for (b, pts) in buckets.iter().enumerate() {
        if pts.is_empty() {
            continue;
        }
        let lane_thread = |lane: u64| {
            let g = b as u64 * tpb + lane;
            ((g / bs) as u32, (g % bs) as u32)
        };
        // phase 0: strided accumulation into the lane's shared partial
        let active_lanes = (pts.len() as u64).min(tpb);
        for (pos, &entry) in pts.iter().enumerate() {
            let lane = pos as u64 % tpb;
            let (blk, tid) = lane_thread(lane);
            let point = u64::from(entry & !SIGN_BIT);
            rec.access(blk, tid, 0, Space::Global, AccessKind::Read, addr::POINT + point);
            rec.access(blk, tid, 0, Space::Shared, AccessKind::Write, addr::SHM_PARTIAL + u64::from(tid));
        }
        // combine: the bucket leader gathers same-block partials after the
        // reduction barriers; cross-block segments go through global memory
        // and the grid sync.
        let (leader_blk, leader_tid) = lane_thread(0);
        let mut segment_leader_seen = vec![false; n_blocks as usize];
        for lane in 0..active_lanes {
            let (blk, tid) = lane_thread(lane);
            if blk == leader_blk {
                rec.access(
                    leader_blk,
                    leader_tid,
                    reduce_steps,
                    Space::Shared,
                    AccessKind::Read,
                    addr::SHM_PARTIAL + u64::from(tid),
                );
            } else if !segment_leader_seen[blk as usize] {
                segment_leader_seen[blk as usize] = true;
                let gpart = addr::GPART + ((b as u64) << 20 | u64::from(blk));
                rec.access(blk, tid, reduce_steps, Space::Global, AccessKind::Write, gpart);
                rec.access(
                    leader_blk,
                    leader_tid,
                    reduce_steps + 1,
                    Space::Global,
                    AccessKind::Read,
                    gpart,
                );
            }
        }
    }

    if spans_blocks {
        rec.grid_sync_at(reduce_steps);
    }
}

/// Result of summing one slice's buckets on one GPU.
#[derive(Clone, Debug)]
pub struct BucketSumOutcome<C: Curve> {
    /// One partial sum per bucket of the slice.
    pub sums: Vec<XyzzPoint<C>>,
    /// Metered launch statistics.
    pub stats: LaunchStats,
}

/// Symbolic IR of the intra-bucket lane interleave: lane `l ∈ 0..tpb`
/// accumulates exactly the bucket positions `≡ l (mod tpb)` of the
/// bucket's `Z` points. The residue classes partition `[0, Z)` — every
/// position is read by exactly one lane, so phase 0 needs no
/// synchronisation below the `log2(tpb)` reduction tree.
pub fn lane_residue_ir() -> PlanIr {
    use distmsm_kernel::ir::{residue_partition_family, IndexExpr, Poly, SymBound};
    PlanIr {
        name: "bucket-sum-lanes".into(),
        space: (IndexExpr::con(0), IndexExpr::var("Z")),
        cover: true,
        families: vec![residue_partition_family("lane", "l", &Poly::var("tpb"))],
        bounds: vec![SymBound::at_least("Z", 1), SymBound::at_least("tpb", 1)],
        assumptions: Vec::new(),
    }
}

/// Picks the number of threads cooperating on each bucket: a multiple of
/// 32 (a warp) sized so the GPU stays fully utilised (§3.2.2).
pub fn threads_per_bucket(gpu_threads: u64, n_buckets: u64) -> u32 {
    if n_buckets == 0 || n_buckets >= gpu_threads {
        return 1;
    }
    let raw = gpu_threads / n_buckets;
    if raw < 32 {
        return raw.max(1) as u32;
    }
    ((raw / 32) * 32).min(1024) as u32
}

/// Sums each bucket's points, modelling `tpb` threads per bucket running
/// PACC per point with a `log2(tpb)`-step intra-bucket reduction.
///
/// The metered [`LaunchStats`] are those of the GPU's PACC kernel; the
/// host computes the same sums by batched-affine rounds with a PACC tail
/// (DESIGN.md §18), so a sum's XYZZ representation is not the PACC
/// chain's.
pub fn bucket_sum<C: Curve>(
    points: &[Affine<C>],
    buckets: &[Vec<u32>],
    tpb: u32,
    model: &EcKernelModel,
    block_size: u32,
) -> BucketSumOutcome<C> {
    let mut scratch = BatchAccumulator::new();
    bucket_sum_with(&mut scratch, false, points, buckets, tpb, model, block_size)
}

/// Signed variant of [`bucket_sum`]: entries carry
/// [`crate::scatter::SIGN_BIT`]; negative entries accumulate the point's
/// (free) negation.
pub fn bucket_sum_signed<C: Curve>(
    points: &[Affine<C>],
    buckets: &[Vec<u32>],
    tpb: u32,
    model: &EcKernelModel,
    block_size: u32,
) -> BucketSumOutcome<C> {
    let mut scratch = BatchAccumulator::new();
    bucket_sum_with(&mut scratch, true, points, buckets, tpb, model, block_size)
}

/// [`bucket_sum`] (`signed = false`) or [`bucket_sum_signed`] on caller
/// scratch, which the engine keeps per worker so a run of slices allocates
/// it once. The outcome does not depend on what the scratch summed before.
pub(crate) fn bucket_sum_with<C: Curve>(
    scratch: &mut BatchAccumulator<C>,
    signed: bool,
    points: &[Affine<C>],
    buckets: &[Vec<u32>],
    tpb: u32,
    model: &EcKernelModel,
    block_size: u32,
) -> BucketSumOutcome<C> {
    use crate::scatter::SIGN_BIT;
    let total_points: u64 = buckets.iter().map(|b| b.len() as u64).sum();
    let max_bucket = buckets.iter().map(|b| b.len() as u64).max().unwrap_or(0);

    let mut sums = vec![XyzzPoint::<C>::identity(); buckets.len()];
    scratch.reserve(total_points as usize);
    for (b, bucket) in buckets.iter().enumerate() {
        for &entry in bucket {
            let point = if signed && entry & SIGN_BIT != 0 {
                points[(entry & !SIGN_BIT) as usize].neg()
            } else {
                points[entry as usize]
            };
            scratch.add(&mut sums, b, point);
        }
    }
    scratch.flush(&mut sums);

    // imbalance: the critical path is the real largest bucket
    let per_thread_paccs = max_bucket.div_ceil(u64::from(tpb)) as f64;
    let stats = launch_stats(
        per_thread_paccs,
        total_points,
        buckets.len() as u64,
        tpb,
        model,
        block_size,
    );

    let mut rec = LaunchRecorder::start("bucket-sum", 0);
    if rec.active() {
        emit_bucket_sum_trace(&mut rec, buckets, tpb, block_size);
    }
    rec.commit();

    BucketSumOutcome { sums, stats }
}

/// Pure-cost variant of [`bucket_sum`] for analytic (paper-scale) runs:
/// produces the same [`LaunchStats`] from expected bucket sizes without
/// touching any points.
pub fn bucket_sum_stats(
    n_points_in_slice: u64,
    n_buckets: u64,
    tpb: u32,
    model: &EcKernelModel,
    block_size: u32,
) -> LaunchStats {
    let expected_bucket = if n_buckets == 0 {
        0.0
    } else {
        n_points_in_slice as f64 / n_buckets as f64
    };
    let per_thread_paccs = (expected_bucket / f64::from(tpb)).ceil().max(1.0);
    launch_stats(
        per_thread_paccs,
        n_points_in_slice,
        n_buckets,
        tpb,
        model,
        block_size,
    )
}

/// The modelled PACC kernel launch: `per_thread_paccs` PACCs on the
/// critical path, `n_points` in total, and the `log2(tpb)` PADD tree.
fn launch_stats(
    per_thread_paccs: f64,
    n_points: u64,
    n_buckets: u64,
    tpb: u32,
    model: &EcKernelModel,
    block_size: u32,
) -> LaunchStats {
    let threads = (n_buckets * u64::from(tpb)).max(1);
    let acc = model.acc_cost();
    let padd = model.padd_cost();
    let reduce_steps = f64::from(tpb).log2().ceil();
    // point loads: affine coordinates per PACC
    let point_bytes = 2.0 * model.limbs32() as f64 * 4.0;

    let mut max_thread = acc.scale(per_thread_paccs);
    max_thread = max_thread.add(&padd.scale(reduce_steps));
    max_thread.global_bytes += per_thread_paccs * point_bytes;
    max_thread.barriers += reduce_steps;

    let mut total = acc.scale(n_points as f64);
    total = total.add(&padd.scale((n_buckets * u64::from(tpb.saturating_sub(1))) as f64));
    total.global_bytes += n_points as f64 * point_bytes;

    let mut stats = LaunchStats::new(model.profile("bucket-sum", block_size), threads);
    stats.max_thread = max_thread;
    stats.total = total;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::Bn254G1;
    use distmsm_ec::sample::generator_multiples;
    use distmsm_ec::Scalar;
    use distmsm_kernel::PaddOptimizations;

    #[test]
    fn sums_are_correct() {
        let points = generator_multiples::<Bn254G1>(16);
        let buckets = vec![vec![0u32, 1, 2], vec![], vec![3, 4], vec![15]];
        let model = EcKernelModel::new(8, PaddOptimizations::all());
        let out = bucket_sum(&points, &buckets, 32, &model, 256);
        // bucket 0: G + 2G + 3G = 6G
        let g = Bn254G1::generator();
        assert_eq!(out.sums[0], g.scalar_mul(&Scalar::from_u64(6)));
        assert!(out.sums[1].is_identity());
        assert_eq!(out.sums[2], g.scalar_mul(&Scalar::from_u64(9)));
        assert_eq!(out.sums[3], g.scalar_mul(&Scalar::from_u64(16)));
    }

    /// A slice's sums must not depend on what its worker's scratch summed
    /// before: same XYZZ coordinates — not merely the same points — alone,
    /// after a larger slice, and after a smaller one, signed or not.
    #[test]
    fn sums_ignore_scratch_history() {
        use crate::scatter::SIGN_BIT;
        let points = generator_multiples::<Bn254G1>(64);
        let model = EcKernelModel::new(8, PaddOptimizations::all());
        let coords = |out: &BucketSumOutcome<Bn254G1>| -> Vec<_> {
            out.sums.iter().map(|p| (p.x, p.y, p.zz, p.zzz)).collect()
        };
        for signed in [false, true] {
            let buckets = |lens: &[usize], stride: usize| -> Vec<Vec<u32>> {
                let entry = |b: usize, k: usize| {
                    let sign = if signed && k.is_multiple_of(3) { SIGN_BIT } else { 0 };
                    ((k * stride + b) % 64) as u32 | sign
                };
                lens.iter()
                    .enumerate()
                    .map(|(b, &len)| (0..len).map(|k| entry(b, k)).collect())
                    .collect()
            };
            // 1500 points over 6 uneven buckets: a full scratch and a tail
            let slice = buckets(&[700, 0, 290, 1, 380, 129], 7);
            let run = |scratch: &mut BatchAccumulator<Bn254G1>, buckets: &[Vec<u32>]| {
                bucket_sum_with(scratch, signed, &points, buckets, 32, &model, 256)
            };
            let alone = coords(&run(&mut BatchAccumulator::new(), &slice));
            for earlier in [buckets(&[300; 9], 5), buckets(&[3, 1], 1)] {
                let mut scratch = BatchAccumulator::new();
                run(&mut scratch, &earlier);
                assert_eq!(coords(&run(&mut scratch, &slice)), alone, "signed={signed}");
            }
        }
    }

    #[test]
    fn threads_per_bucket_policy() {
        // few buckets → many threads each (warp multiples)
        assert_eq!(threads_per_bucket(1 << 16, 1 << 8), 256);
        assert_eq!(threads_per_bucket(1 << 16, 128), 512);
        // cap at 1024
        assert_eq!(threads_per_bucket(1 << 20, 128), 1024);
        // more buckets than threads → one thread serves several buckets
        assert_eq!(threads_per_bucket(1 << 16, 1 << 20), 1);
        // sub-warp remainder stays unrounded
        assert_eq!(threads_per_bucket(100, 10), 10);
    }

    #[test]
    fn stats_track_workload() {
        let points = generator_multiples::<Bn254G1>(64);
        let buckets: Vec<Vec<u32>> = (0..8).map(|b| (0..8).map(|i| b * 8 + i).collect()).collect();
        let model = EcKernelModel::new(8, PaddOptimizations::all());
        let out = bucket_sum(&points, &buckets, 32, &model, 256);
        assert_eq!(out.stats.threads, 8 * 32);
        assert!(out.stats.total.int_ops > 0.0);
        assert!(out.stats.max_thread.int_ops <= out.stats.total.int_ops);
    }

    #[test]
    fn analytic_stats_match_functional_shape() {
        let points = generator_multiples::<Bn254G1>(256);
        // uniform buckets: analytic expectation is exact
        let buckets: Vec<Vec<u32>> =
            (0..16).map(|b| (0..16).map(|i| b * 16 + i).collect()).collect();
        let model = EcKernelModel::new(8, PaddOptimizations::all());
        let f = bucket_sum(&points, &buckets, 32, &model, 256);
        let a = bucket_sum_stats(256, 16, 32, &model, 256);
        assert_eq!(f.stats.threads, a.threads);
        let rel = (f.stats.total.int_ops - a.total.int_ops).abs() / a.total.int_ops;
        assert!(rel < 0.05, "relative error {rel}");
    }
}
