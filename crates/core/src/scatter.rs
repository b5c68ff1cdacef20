//! The *bucket-scatter* step: naive vs. three-level hierarchical (§3.2.1).
//!
//! Both variants are executed functionally (producing the actual bucket
//! contents) and metered for the simulator. The naive variant issues one
//! global atomic per coefficient; with few buckets (small windows — the
//! multi-GPU regime) those atomics contend heavily. The hierarchical
//! variant (the paper's Algorithm 3) first scatters within a thread block
//! in shared memory, committing each local bucket with a single global
//! atomic — at the price of shared-memory capacity, which runs out for
//! large windows (the paper reports execution failures at `s > 14`).

use crate::plan::Slice;
use distmsm_ec::Scalar;
use distmsm_gpu_sim::trace::LaunchRecorder;
use distmsm_gpu_sim::{KernelProfile, LaunchStats, ThreadCost};
use distmsm_kernel::ir::{self, IndexExpr, PlanIr, Poly, Region, RegionFamily, SymBound};

/// Simulated address namespaces for the access trace (see
/// `distmsm_gpu_sim::trace`). Each launch gets its own trace, so bases only
/// need to be distinct *within* one kernel.
mod addr {
    /// Global: packed per-window coefficient array, indexed by point.
    pub const COEFF: u64 = 0x1000_0000_0000;
    /// Global: per-bucket append cursors, indexed by absolute bucket.
    pub const CURSOR: u64 = 0x2000_0000_0000;
    /// Global: bucket payload; `DATA + (bucket << 24 | slot)`.
    pub const DATA: u64 = 0x4000_0000_0000;
    /// Shared (block-local): per-local-bucket counters.
    pub const SHM_CNT: u64 = 0x100_0000;
    /// Shared (block-local): locally scattered point slots.
    pub const SHM_SLOT: u64 = 0x200_0000;
}

/// Emits the naive-scatter access pattern: every thread reads its
/// coefficients and appends matching points straight into the global
/// buckets — one cursor atomic plus one payload write per insert. The
/// payload slot is the point's final position in its bucket, i.e. the
/// location the claimed cursor value denotes; slots are therefore unique
/// and the only cross-thread collisions are the (atomic) cursor bumps.
#[cold]
#[inline(never)]
fn emit_naive_trace(
    rec: &mut LaunchRecorder,
    n_points: usize,
    per_thread_points: u64,
    buckets: &[Vec<u32>],
    bucket_lo: u32,
) {
    use distmsm_gpu_sim::trace::{AccessKind, Space};
    let thread_of = |i: usize| {
        let t = i as u64 / per_thread_points.max(1);
        ((t / 256) as u32, (t % 256) as u32) // profile block size is 256
    };
    for i in 0..n_points {
        let (blk, tid) = thread_of(i);
        rec.access(blk, tid, 0, Space::Global, AccessKind::Read, addr::COEFF + i as u64);
    }
    for (bi, bucket) in buckets.iter().enumerate() {
        let abs = u64::from(bucket_lo) + bi as u64;
        for (slot, &entry) in bucket.iter().enumerate() {
            let i = (entry & !SIGN_BIT) as usize;
            let (blk, tid) = thread_of(i);
            rec.access(blk, tid, 0, Space::Global, AccessKind::Atomic, addr::CURSOR + abs);
            rec.access(
                blk,
                tid,
                0,
                Space::Global,
                AccessKind::Write,
                addr::DATA + ((abs << 24) | slot as u64),
            );
        }
    }
}

/// Emits the hierarchical-scatter access pattern (Algorithm 3). Phase 0 is
/// the in-block local scatter: coefficient reads, two shared-memory
/// counter atomics per matching point (count + offset claim) and one write
/// into the block's slot array. After the block's declared barriers, the
/// commit phase issues one global cursor atomic per non-empty local bucket
/// and writes the claimed (disjoint) payload range. `contrib(i)` returns
/// the slice-local bucket of point `i`, or `None` when it lands outside.
#[cold]
#[inline(never)]
fn emit_hierarchical_trace(
    rec: &mut LaunchRecorder,
    n_points: usize,
    range: usize,
    bucket_lo: u32,
    cfg: &ScatterConfig,
    contrib: impl Fn(usize) -> Option<usize>,
) {
    use distmsm_gpu_sim::trace::{AccessKind, Space};
    let ppb = (cfg.block_size as usize * cfg.points_per_thread as usize).max(1);
    let k = (cfg.points_per_thread as usize).max(1);
    let barrier_count = 3 + (f64::from(cfg.block_size).log2().ceil() as u32);
    let n_blocks = n_points.div_ceil(ppb).max(1);
    let mut cursors = vec![0u64; range];
    for blk in 0..n_blocks {
        let start = blk * ppb;
        let end = (start + ppb).min(n_points);
        let mut local: Vec<Vec<usize>> = vec![Vec::new(); range];
        for i in start..end {
            let j = i - start;
            let tid = (j / k) as u32;
            rec.access(blk as u32, tid, 0, Space::Global, AccessKind::Read, addr::COEFF + i as u64);
            if let Some(bi) = contrib(i) {
                rec.access(blk as u32, tid, 0, Space::Shared, AccessKind::Atomic, addr::SHM_CNT + bi as u64);
                rec.access(blk as u32, tid, 0, Space::Shared, AccessKind::Atomic, addr::SHM_CNT + bi as u64);
                rec.access(blk as u32, tid, 0, Space::Shared, AccessKind::Write, addr::SHM_SLOT + j as u64);
                local[bi].push(i);
            }
        }
        rec.block_barriers(blk as u32, cfg.block_size, barrier_count);
        for (bi, pts) in local.iter().enumerate() {
            if pts.is_empty() {
                continue;
            }
            let tid = (bi % cfg.block_size as usize) as u32;
            let abs = u64::from(bucket_lo) + bi as u64;
            rec.access(blk as u32, tid, barrier_count, Space::Shared, AccessKind::Read, addr::SHM_CNT + bi as u64);
            rec.access(blk as u32, tid, barrier_count, Space::Global, AccessKind::Atomic, addr::CURSOR + abs);
            for _ in pts {
                let slot = cursors[bi];
                cursors[bi] += 1;
                rec.access(
                    blk as u32,
                    tid,
                    barrier_count,
                    Space::Global,
                    AccessKind::Write,
                    addr::DATA + ((abs << 24) | slot),
                );
            }
        }
    }
}

/// Which scatter implementation to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScatterKind {
    /// One global atomic per coefficient.
    Naive,
    /// The paper's three-level hierarchical scatter (Algorithm 3).
    Hierarchical,
}

/// Tuning of the hierarchical scatter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScatterConfig {
    /// Threads per block.
    pub block_size: u32,
    /// Coefficients handled per thread (`K` in Algorithm 3).
    pub points_per_thread: u32,
    /// Shared memory available to one block, in bytes.
    pub shared_mem_per_block: u32,
}

impl Default for ScatterConfig {
    fn default() -> Self {
        Self {
            block_size: 1024,
            points_per_thread: 32,
            shared_mem_per_block: 164 * 1024,
        }
    }
}

/// Scatter failure: the local buckets do not fit in shared memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SharedMemoryOverflow {
    /// Bytes the block would need.
    pub needed: u32,
    /// Bytes available.
    pub available: u32,
}

impl core::fmt::Display for SharedMemoryOverflow {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "hierarchical scatter needs {} B of shared memory per block but only {} B are available",
            self.needed, self.available
        )
    }
}

impl std::error::Error for SharedMemoryOverflow {}

/// Seconds for the one-time scalar pre-pass: the full λ-bit scalars are
/// read once (distributed over the GPUs), repacked into 4-byte per-window
/// coefficient views, and the packed views staged on every GPU (each GPU
/// scans all N coefficients for its bucket slice). Purely memory-bound.
pub fn scalar_prepass_seconds(
    n_points: u64,
    scalar_bytes: u64,
    bandwidth_gbps: f64,
    n_gpus: usize,
) -> f64 {
    let repack = n_points as f64 * (scalar_bytes as f64 * 1.5) / n_gpus as f64;
    let stage = n_points as f64 * 4.0;
    (repack + stage) / (bandwidth_gbps * 1e9)
}

/// Result of scattering one window slice on one GPU.
#[derive(Clone, Debug)]
pub struct ScatterOutcome {
    /// Point indices per bucket, indexed by `bucket - slice.bucket_lo`.
    /// Bucket 0 (zero coefficient) is never populated.
    pub buckets: Vec<Vec<u32>>,
    /// Metered launch statistics for the simulator.
    pub stats: LaunchStats,
}

fn bucket_of<S: Scalar>(scalar: &S, window: u32, s: u32) -> u64 {
    scalar.window(window * s, s)
}

/// Naive scatter: every coefficient lands in its global bucket through
/// one global atomic on the bucket's cursor.
pub fn scatter_naive<S: Scalar>(
    scalars: &[S],
    s: u32,
    slice: &Slice,
    gpu_threads: u64,
    coeff_bytes: f64,
) -> ScatterOutcome {
    let range = slice.len() as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); range];
    let mut inserts: u64 = 0;
    for (i, k) in scalars.iter().enumerate() {
        let b = bucket_of(k, slice.window, s);
        if b == 0 {
            continue;
        }
        if b >= u64::from(slice.bucket_lo) && b < u64::from(slice.bucket_hi) {
            buckets[(b - u64::from(slice.bucket_lo)) as usize].push(i as u32);
            inserts += 1;
        }
    }

    let stats =
        naive_scatter_stats(scalars.len() as u64, inserts, slice.len(), gpu_threads, coeff_bytes);

    let mut rec = LaunchRecorder::start("scatter-naive", slice.gpu as u16);
    if rec.active() {
        let per_thread = (scalars.len() as u64).div_ceil(stats.threads);
        emit_naive_trace(&mut rec, scalars.len(), per_thread, &buckets, slice.bucket_lo);
        rec.note_metered_atomics(stats.distinct_atomic_addrs);
    }
    rec.commit();

    ScatterOutcome { buckets, stats }
}

/// Builds the naive-scatter launch statistics from event counts. Shared
/// between the functional path (exact counts) and the analytic
/// paper-scale path (expected counts).
/// `coeff_bytes` is the per-coefficient read width: full λ-bit scalars
/// (32–96 B) for a standalone kernel, 4 B when the engine's packed
/// per-window views are in use (their one-time construction is charged by
/// [`scalar_prepass_seconds`]).
pub fn naive_scatter_stats(
    n_points: u64,
    inserts: u64,
    slice_buckets: u32,
    gpu_threads: u64,
    coeff_bytes: f64,
) -> LaunchStats {
    let threads = n_points.min(gpu_threads).max(1);
    let per_thread_points = n_points.div_ceil(threads) as f64;
    let per_thread_inserts = inserts.div_ceil(threads).max(1) as f64;
    let scalar_bytes = coeff_bytes;

    let profile = KernelProfile::new("scatter-naive", 32, 0, 256);
    let mut stats = LaunchStats::new(profile, threads);
    let per_thread = ThreadCost {
        int_ops: per_thread_points * 6.0,
        global_atomics: per_thread_inserts,
        global_bytes: per_thread_points * scalar_bytes + per_thread_inserts * 8.0,
        ..ThreadCost::default()
    };
    stats.max_thread = per_thread;
    stats.total = per_thread.scale(threads as f64);
    // contention: all concurrent threads hammer the slice's bucket cursors
    stats.distinct_atomic_addrs = u64::from(slice_buckets).max(1);
    stats
}

/// Shared-memory bytes one hierarchical-scatter block needs for a slice:
/// one `u32` counter per local bucket plus a 2-byte `point_id` slot per
/// locally scattered point (Algorithm 3's `reg_idx ‖ tid` encoding).
pub fn hierarchical_shared_bytes(slice_buckets: u32, cfg: &ScatterConfig) -> u32 {
    4 * slice_buckets + 2 * cfg.block_size * cfg.points_per_thread
}

/// Three-level hierarchical scatter (Algorithm 3): registers → shared
/// memory → one global atomic per (block, non-empty bucket).
///
/// # Errors
///
/// Fails with [`SharedMemoryOverflow`] when the per-block local buckets
/// exceed shared memory — the paper's observed failure mode for `s > 14`.
pub fn scatter_hierarchical<S: Scalar>(
    scalars: &[S],
    s: u32,
    slice: &Slice,
    cfg: &ScatterConfig,
    coeff_bytes: f64,
) -> Result<ScatterOutcome, SharedMemoryOverflow> {
    let needed = hierarchical_shared_bytes(slice.len(), cfg);
    if needed > cfg.shared_mem_per_block {
        return Err(SharedMemoryOverflow {
            needed,
            available: cfg.shared_mem_per_block,
        });
    }

    let range = slice.len() as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); range];
    let points_per_block = (cfg.block_size * cfg.points_per_thread) as usize;
    let n_blocks = scalars.len().div_ceil(points_per_block).max(1);
    let mut inserts: u64 = 0;
    let mut committed_buckets: u64 = 0; // global atomics actually issued

    for (block_idx, block) in scalars.chunks(points_per_block.max(1)).enumerate() {
        // local scatter: group this block's points by bucket
        let mut local: Vec<Vec<u32>> = vec![Vec::new(); range];
        let offset = block_idx * points_per_block;
        for (j, k) in block.iter().enumerate() {
            let b = bucket_of(k, slice.window, s);
            if b == 0 {
                continue;
            }
            if b >= u64::from(slice.bucket_lo) && b < u64::from(slice.bucket_hi) {
                local[(b - u64::from(slice.bucket_lo)) as usize].push((offset + j) as u32);
            }
        }
        // commit: one global cursor atomic per non-empty local bucket
        for (bi, l) in local.into_iter().enumerate() {
            if !l.is_empty() {
                committed_buckets += 1;
                inserts += l.len() as u64;
                buckets[bi].extend(l);
            }
        }
    }

    let _ = inserts;
    let stats = hierarchical_scatter_stats(
        n_blocks as u64,
        committed_buckets,
        slice.len(),
        cfg,
        coeff_bytes,
    );

    let mut rec = LaunchRecorder::start("scatter-hierarchical", slice.gpu as u16);
    if rec.active() {
        emit_hierarchical_trace(&mut rec, scalars.len(), range, slice.bucket_lo, cfg, |i| {
            let b = bucket_of(&scalars[i], slice.window, s);
            (b != 0 && b >= u64::from(slice.bucket_lo) && b < u64::from(slice.bucket_hi))
                .then(|| (b - u64::from(slice.bucket_lo)) as usize)
        });
        rec.note_metered_atomics(stats.distinct_atomic_addrs);
    }
    rec.commit();

    Ok(ScatterOutcome { buckets, stats })
}

/// Builds the hierarchical-scatter launch statistics from event counts.
/// Shared between the functional path (exact committed-bucket counts) and
/// the analytic paper-scale path (expected counts).
/// See [`naive_scatter_stats`] for the meaning of `coeff_bytes`.
pub fn hierarchical_scatter_stats(
    n_blocks: u64,
    committed_buckets: u64,
    slice_buckets: u32,
    cfg: &ScatterConfig,
    coeff_bytes: f64,
) -> LaunchStats {
    let threads = n_blocks * u64::from(cfg.block_size);
    let k = f64::from(cfg.points_per_thread);
    let buckets_per_thread = (u64::from(slice_buckets).div_ceil(u64::from(cfg.block_size))) as f64;
    let commit_atomics_per_thread = (committed_buckets.div_ceil(threads.max(1)).max(1)) as f64;
    let per_thread = ThreadCost {
        // coefficient decode + register caching (lines 2–6) + shared store
        int_ops: k * 8.0 + buckets_per_thread * (f64::from(cfg.block_size).log2() + 2.0),
        // one counter increment and one offset claim per point (lines 6, 10)
        shared_atomics: 2.0 * k,
        // prefix sum + phase transitions
        barriers: 3.0 + f64::from(cfg.block_size).log2(),
        global_atomics: commit_atomics_per_thread,
        global_bytes: k * coeff_bytes + k * 4.0,
        shared_bytes: k * 2.0 * 2.0,
        ..ThreadCost::default()
    };
    let profile = KernelProfile::new(
        "scatter-hierarchical",
        32, // Algorithm 3: "register usage per thread is 32, regardless of bucket count"
        hierarchical_shared_bytes(slice_buckets, cfg),
        cfg.block_size,
    );
    let mut stats = LaunchStats::new(profile, threads);
    stats.max_thread = per_thread;
    stats.total = per_thread.scale(threads as f64);
    stats.distinct_atomic_addrs = u64::from(slice_buckets).max(1) * n_blocks;
    stats.distinct_shared_addrs = u64::from(slice_buckets).max(1);
    stats
}

/// Sign-encoding for signed-digit scatter entries: the MSB of the stored
/// point index carries the digit's sign.
pub const SIGN_BIT: u32 = 1 << 31;

/// Scatters precomputed signed digits (one row per point, one column per
/// window) for a slice over buckets `0..=2^{s−1}` of `slice.window`.
/// Entries carry [`SIGN_BIT`] for negative digits. The launch statistics
/// reuse the naive/hierarchical builders — the kernels are identical up
/// to the magnitude/sign split.
pub fn scatter_signed_digits(
    digits: &[Vec<i32>],
    slice: &Slice,
    kind: ScatterKind,
    gpu_threads: u64,
    cfg: &ScatterConfig,
    coeff_bytes: f64,
) -> Result<ScatterOutcome, SharedMemoryOverflow> {
    let range = slice.len() as usize;
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); range];
    let mut inserts: u64 = 0;
    for (i, row) in digits.iter().enumerate() {
        let d = row[slice.window as usize];
        if d == 0 {
            continue;
        }
        let b = d.unsigned_abs() as u64;
        if b >= u64::from(slice.bucket_lo) && b < u64::from(slice.bucket_hi) {
            let mut entry = i as u32;
            if d < 0 {
                entry |= SIGN_BIT;
            }
            buckets[(b - u64::from(slice.bucket_lo)) as usize].push(entry);
            inserts += 1;
        }
    }
    let stats = match kind {
        ScatterKind::Naive => {
            naive_scatter_stats(digits.len() as u64, inserts, slice.len(), gpu_threads, coeff_bytes)
        }
        ScatterKind::Hierarchical => {
            let needed = hierarchical_shared_bytes(slice.len(), cfg);
            if needed > cfg.shared_mem_per_block {
                return Err(SharedMemoryOverflow {
                    needed,
                    available: cfg.shared_mem_per_block,
                });
            }
            let ppb = u64::from(cfg.block_size) * u64::from(cfg.points_per_thread);
            let n_blocks = (digits.len() as u64).div_ceil(ppb).max(1);
            // committed-bucket estimate mirrors the unsigned path
            let committed = (inserts.min(n_blocks * u64::from(slice.len()))).max(1);
            hierarchical_scatter_stats(n_blocks, committed, slice.len(), cfg, coeff_bytes)
        }
    };

    let mut rec = LaunchRecorder::start(stats.profile.name, slice.gpu as u16);
    if rec.active() {
        match kind {
            ScatterKind::Naive => {
                let per_thread = (digits.len() as u64).div_ceil(stats.threads);
                emit_naive_trace(&mut rec, digits.len(), per_thread, &buckets, slice.bucket_lo);
            }
            ScatterKind::Hierarchical => {
                emit_hierarchical_trace(&mut rec, digits.len(), range, slice.bucket_lo, cfg, |i| {
                    let d = digits[i][slice.window as usize];
                    let b = d.unsigned_abs() as u64;
                    (d != 0 && b >= u64::from(slice.bucket_lo) && b < u64::from(slice.bucket_hi))
                        .then(|| (b - u64::from(slice.bucket_lo)) as usize)
                });
            }
        }
        rec.note_metered_atomics(stats.distinct_atomic_addrs);
    }
    rec.commit();

    Ok(ScatterOutcome { buckets, stats })
}

/// Slot bits of the `DATA` payload namespace: bucket `abs` writes slot
/// `slot` at `DATA + (abs << SLOT_BITS | slot)`, so each bucket owns a
/// band of `2^SLOT_BITS` addresses.
pub const SLOT_BITS: u32 = 24;

/// Symbolic IR of the bucket-payload commit phase: bucket `bkt` of
/// `NB` appends its entries into the stride-`2^24` address band
/// `[bkt·2^24, bkt·2^24 + S)`, where `S` bounds the per-bucket slot
/// count. The bands are pairwise disjoint for **all** bucket counts
/// given the emitter-guaranteed side condition `2^24 − S ≥ 0` (the
/// append cursor claims unique slots strictly below the shift). The
/// write set is sparse by design — no coverage obligation.
pub fn commit_write_ir() -> PlanIr {
    let band = Poly::con(1 << SLOT_BITS);
    let bkt = Poly::var("bkt");
    PlanIr {
        name: "scatter-commit".into(),
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
        // S ≤ 2^24: slot counts never reach the bucket shift.
        assumptions: vec![band.sub(&Poly::var("S"))],
    }
}

/// Symbolic IR of the hierarchical scatter's block tiling (Algorithm 3
/// phase 0): block `blk` of `⌈N/P⌉` consumes points
/// `[blk·P, min((blk+1)·P, N))`, `P = block_size · points_per_thread`.
/// Disjoint and exactly covering `[0, N)` for all `N` and `P`.
pub fn scatter_block_ir() -> PlanIr {
    PlanIr {
        name: "scatter-block-tile".into(),
        space: (IndexExpr::con(0), IndexExpr::var("N")),
        cover: true,
        families: vec![ir::strided_tile_family(
            "block",
            "blk",
            &Poly::var("N"),
            &Poly::var("P"),
        )],
        bounds: vec![SymBound::at_least("N", 1), SymBound::at_least("P", 1)],
        assumptions: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ff::Uint;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn scalars(n: usize, seed: u64) -> Vec<Uint<4>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Uint([rng.random(), rng.random(), rng.random(), rng.random::<u64>() >> 2]))
            .collect()
    }

    fn full_slice(s: u32) -> Slice {
        Slice {
            gpu: 0,
            window: 3,
            bucket_lo: 0,
            bucket_hi: 1 << s,
        }
    }

    #[test]
    fn naive_and_hierarchical_agree() {
        let ks = scalars(4096, 1);
        let s = 8;
        let slice = full_slice(s);
        let naive = scatter_naive(&ks, s, &slice, 1 << 16, 4.0);
        let hier = scatter_hierarchical(&ks, s, &slice, &ScatterConfig::default(), 4.0).unwrap();
        assert_eq!(naive.buckets.len(), hier.buckets.len());
        for (a, b) in naive.buckets.iter().zip(&hier.buckets) {
            let mut a = a.clone();
            let mut b = b.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "bucket contents must agree as multisets");
        }
    }

    #[test]
    fn buckets_contain_correct_points() {
        let ks = scalars(512, 2);
        let s = 6;
        let slice = full_slice(s);
        let out = scatter_naive(&ks, s, &slice, 1 << 16, 4.0);
        for (bi, bucket) in out.buckets.iter().enumerate() {
            for &p in bucket {
                assert_eq!(
                    ks[p as usize].window(slice.window * s, s),
                    bi as u64,
                    "point {p} in wrong bucket"
                );
            }
        }
        // bucket 0 never populated
        assert!(out.buckets[0].is_empty());
    }

    #[test]
    fn slice_restricts_range() {
        let ks = scalars(2048, 3);
        let s = 8;
        let slice = Slice {
            gpu: 1,
            window: 3,
            bucket_lo: 64,
            bucket_hi: 128,
        };
        let out = scatter_hierarchical(&ks, s, &slice, &ScatterConfig::default(), 4.0).unwrap();
        assert_eq!(out.buckets.len(), 64);
        let full = scatter_naive(&ks, s, &full_slice(s), 1 << 16, 4.0);
        for (i, b) in out.buckets.iter().enumerate() {
            let mut got = b.clone();
            let mut expect = full.buckets[64 + i].clone();
            got.sort_unstable();
            expect.sort_unstable();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn shared_memory_overflow_at_large_windows() {
        // the paper: "when s > 14, shared memory is insufficient ...
        // leading to execution failures"
        let ks = scalars(64, 4);
        let cfg = ScatterConfig::default();
        assert!(scatter_hierarchical(&ks, 14, &full_slice(14), &cfg, 4.0).is_ok());
        let err = scatter_hierarchical(&ks, 15, &full_slice(15), &cfg, 4.0).unwrap_err();
        assert!(err.needed > err.available);
        assert!(err.to_string().contains("shared memory"));
    }

    #[test]
    fn naive_metering_counts_inserts() {
        let ks = scalars(1000, 5);
        let out = scatter_naive(&ks, 8, &full_slice(8), 1 << 10, 4.0);
        // ~1000 inserts minus zero-coefficient skips
        let inserted: usize = out.buckets.iter().map(Vec::len).sum();
        assert!(inserted > 900);
        assert!(out.stats.total.global_atomics >= inserted as f64 * 0.9);
        assert_eq!(out.stats.distinct_atomic_addrs, 1 << 8);
    }

    #[test]
    fn hierarchical_issues_fewer_global_atomics() {
        let ks = scalars(1 << 14, 6);
        let s = 8; // small window: the multi-GPU regime
        let slice = full_slice(s);
        let naive = scatter_naive(&ks, s, &slice, 1 << 16, 4.0);
        let hier = scatter_hierarchical(&ks, s, &slice, &ScatterConfig::default(), 4.0).unwrap();
        assert!(
            hier.stats.total.global_atomics < naive.stats.total.global_atomics / 8.0,
            "hierarchical {} vs naive {}",
            hier.stats.total.global_atomics,
            naive.stats.total.global_atomics
        );
    }
}
