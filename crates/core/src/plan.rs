//! Work assignment of windows and bucket ranges to GPUs.
//!
//! DistMSM's flexible distribution (§3.2.2): the `N_win × 2^s` buckets of
//! all windows form one flat range that is sliced evenly across GPUs —
//! whole windows when counts divide, fractional windows otherwise (the
//! paper's example: three GPUs on two windows → two GPUs take ⅔ of a
//! window each, the third handles the remaining ⅓ of both).

use distmsm_kernel::ir::{self, IndexExpr, PlanIr, Poly, Region, RegionFamily, Sym, SymBound};
use std::collections::BTreeMap;

/// One GPU's responsibility: a bucket range of one window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slice {
    /// GPU index.
    pub gpu: usize,
    /// Window index.
    pub window: u32,
    /// First bucket (inclusive). Bucket 0 is never stored (zero
    /// coefficient contributes nothing), but ranges are expressed over
    /// the full `0..2^s` space for simplicity.
    pub bucket_lo: u32,
    /// One past the last bucket.
    pub bucket_hi: u32,
}

impl Slice {
    /// Buckets in the slice.
    pub fn len(&self) -> u32 {
        self.bucket_hi - self.bucket_lo
    }

    /// True when the slice covers no buckets.
    pub fn is_empty(&self) -> bool {
        self.bucket_lo >= self.bucket_hi
    }
}

/// Splits `n_windows × n_buckets` buckets evenly over `n_gpus` GPUs,
/// producing per-GPU window slices.
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn plan_slices(n_windows: u32, n_buckets: u32, n_gpus: usize) -> Vec<Slice> {
    assert!(n_windows > 0 && n_buckets > 0 && n_gpus > 0);
    let total = u64::from(n_windows) * u64::from(n_buckets);
    let mut out = Vec::new();
    for gpu in 0..n_gpus {
        let lo = total * gpu as u64 / n_gpus as u64;
        let hi = total * (gpu as u64 + 1) / n_gpus as u64;
        let mut cur = lo;
        while cur < hi {
            let window = (cur / u64::from(n_buckets)) as u32;
            let in_window = (cur % u64::from(n_buckets)) as u32;
            let end = ((window as u64 + 1) * u64::from(n_buckets)).min(hi);
            out.push(Slice {
                gpu,
                window,
                bucket_lo: in_window,
                bucket_hi: in_window + (end - cur) as u32,
            });
            cur = end;
        }
    }
    out
}

/// Re-partitions slices lost with failed GPUs across the survivors.
/// The concatenated lost bucket ranges are cut into `survivors.len()`
/// near-equal contiguous shares (balanced to within one bucket), one
/// per survivor — *not* one split per lost slice, because every
/// recovery scatter re-scans all scalars and per-launch costs would
/// multiply with the fan-out. Coverage is exact — the union of the
/// returned slices tiles the union of `lost` — and every returned
/// slice is non-empty and owned by a survivor.
///
/// # Panics
///
/// Panics when `survivors` is empty (total system loss is the caller's
/// error to report).
pub fn replan_slices(lost: &[Slice], survivors: &[usize]) -> Vec<Slice> {
    assert!(!survivors.is_empty(), "re-planning needs at least one survivor");
    let total: u64 = lost.iter().map(|s| u64::from(s.len())).sum();
    let n = survivors.len() as u64;
    let mut out = Vec::new();
    let mut consumed = 0u64; // buckets handed out so far
    let mut k = 0u64; // survivor currently being filled
    for sl in lost {
        let mut lo = u64::from(sl.bucket_lo);
        let hi = u64::from(sl.bucket_hi);
        while lo < hi {
            // survivor k owns concatenated positions [total·k/n, total·(k+1)/n)
            let quota_end = total * (k + 1) / n;
            let take = (quota_end - consumed).min(hi - lo);
            if take == 0 {
                k += 1;
                continue;
            }
            out.push(Slice {
                gpu: survivors[k as usize],
                window: sl.window,
                bucket_lo: lo as u32,
                bucket_hi: (lo + take) as u32,
            });
            lo += take;
            consumed += take;
            if consumed == quota_end && k + 1 < n {
                k += 1;
            }
        }
    }
    out
}

/// Symbolic IR of the flexible-distribution bucket partition: over the
/// flat space `[0, W·B)`, device `g ∈ 0..G` owns the quota tile
/// `[⌊W·B·g/G⌋, ⌊W·B·(g+1)/G⌋)`. Disjointness and exact coverage of
/// this family — for **all** window counts `W`, bucket counts `B` and
/// GPU counts `G` — is what `distmsm-analyze verify` proves (VRF-001 /
/// VRF-002); [`plan_slices`] is the concrete instantiation the
/// grounding pass cross-checks against.
pub fn partition_ir() -> PlanIr {
    let total = Poly::var("W").mul(&Poly::var("B"));
    PlanIr {
        name: "bucket-partition".into(),
        space: (IndexExpr::con(0), IndexExpr::Poly(total.clone())),
        cover: true,
        families: vec![ir::quota_tile_family("device", "g", &total, &Poly::var("G"))],
        bounds: vec![
            SymBound::at_least("W", 1),
            SymBound::at_least("B", 1),
            SymBound::at_least("G", 1),
        ],
        assumptions: Vec::new(),
    }
}

/// Symbolic IR of the window-merge split: the flat range `[0, W·B)` cut
/// at window boundaries, window `w ∈ 0..W` owning `[w·B, w·B + B)`.
/// This is the second axis [`plan_slices`] splits along — the verifier
/// proves the per-window merge regions tile the bucket space exactly.
pub fn window_merge_ir() -> PlanIr {
    let w = Poly::var("w");
    let b = Poly::var("B");
    PlanIr {
        name: "window-merge".into(),
        space: (
            IndexExpr::con(0),
            IndexExpr::Poly(Poly::var("W").mul(&b)),
        ),
        cover: true,
        families: vec![RegionFamily {
            writer: "window",
            param: "w",
            count: IndexExpr::var("W"),
            region: Region::Interval {
                lo: IndexExpr::Poly(w.mul(&b)),
                hi: IndexExpr::Poly(w.mul(&b).add(&b)),
            },
        }],
        bounds: vec![SymBound::at_least("W", 1), SymBound::at_least("B", 1)],
        assumptions: Vec::new(),
    }
}

/// Symbolic IR of [`replan_slices`]'s survivor quotas: the `T` lost
/// buckets, concatenated, are re-tiled across `K` survivors with the
/// same quota rule as the primary partition.
pub fn replan_ir() -> PlanIr {
    let total = Poly::var("T");
    PlanIr {
        name: "replan-survivor-quota".into(),
        space: (IndexExpr::con(0), IndexExpr::Poly(total.clone())),
        cover: true,
        families: vec![ir::quota_tile_family(
            "survivor",
            "k",
            &total,
            &Poly::var("K"),
        )],
        bounds: vec![SymBound::at_least("T", 1), SymBound::at_least("K", 1)],
        assumptions: Vec::new(),
    }
}

/// [`plan_slices`] plus the symbolic [`PlanIr`] describing it, with the
/// concrete symbol environment for grounding cross-checks.
pub fn plan_slices_with_ir(
    n_windows: u32,
    n_buckets: u32,
    n_gpus: usize,
) -> (Vec<Slice>, PlanIr, BTreeMap<Sym, i128>) {
    let slices = plan_slices(n_windows, n_buckets, n_gpus);
    let mut env = BTreeMap::new();
    env.insert("W", i128::from(n_windows));
    env.insert("B", i128::from(n_buckets));
    env.insert("G", n_gpus as i128);
    (slices, partition_ir(), env)
}

/// Splits the point range `[0, n)` of one giant MSM into `n_pods`
/// balanced quota shards — shard `p` owns `[⌊n·p/P⌋, ⌊n·(p+1)/P⌋)`.
/// Every pod computes the full window-partial vector of its shard; the
/// cross-pod reduce tree sums the vectors element-wise over the NIC
/// tier, so the point space (not the bucket space) is what must tile
/// exactly.
///
/// # Panics
///
/// Panics if `n_pods` is zero.
pub fn shard_points(n: usize, n_pods: usize) -> Vec<(usize, usize)> {
    assert!(n_pods > 0, "sharding needs at least one pod");
    (0..n_pods)
        .map(|p| (n * p / n_pods, n * (p + 1) / n_pods))
        .collect()
}

/// Symbolic IR of the fleet point sharding: the point space `[0, N)`
/// tiled by quota across `P` pods. Registered with the static verifier
/// so the VRF-001/VRF-002 disjointness + coverage proofs extend to the
/// cross-pod shard tiles (rule family `FLT`).
pub fn fleet_shard_ir() -> PlanIr {
    let n = Poly::var("N");
    PlanIr {
        name: "fleet-shard".into(),
        space: (IndexExpr::con(0), IndexExpr::Poly(n.clone())),
        cover: true,
        families: vec![ir::quota_tile_family("pod", "p", &n, &Poly::var("P"))],
        bounds: vec![SymBound::at_least("N", 1), SymBound::at_least("P", 1)],
        assumptions: Vec::new(),
    }
}

/// [`shard_points`] plus its symbolic [`PlanIr`] and the concrete symbol
/// environment for grounding cross-checks.
pub fn shard_points_with_ir(
    n: usize,
    n_pods: usize,
) -> (Vec<(usize, usize)>, PlanIr, BTreeMap<Sym, i128>) {
    let shards = shard_points(n, n_pods);
    let mut env = BTreeMap::new();
    env.insert("N", n as i128);
    env.insert("P", n_pods as i128);
    (shards, fleet_shard_ir(), env)
}

/// Re-placement assignment after a pod quarantine: the `s` stranded
/// jobs of the quarantined pod's queue are re-placed across the `h`
/// surviving pods by the same quota rule — survivor `k` absorbs
/// stranded jobs `[⌊s·k/h⌋, ⌊s·(k+1)/h⌋)`.
///
/// # Panics
///
/// Panics if `n_healthy` is zero (a fleet with no survivors has nowhere
/// to re-place; callers shed instead).
pub fn replace_assignments(n_stranded: usize, n_healthy: usize) -> Vec<(usize, usize)> {
    assert!(n_healthy > 0, "re-placement needs at least one healthy pod");
    shard_points(n_stranded, n_healthy)
}

/// Symbolic IR of the quarantine re-placement: the stranded-job space
/// `[0, S)` tiled by quota across the `H` surviving pods. The same
/// coverage proof that guarantees no point of a giant MSM is lost
/// guarantees no stranded job is orphaned by a quarantine.
pub fn fleet_replace_ir() -> PlanIr {
    let s = Poly::var("S");
    PlanIr {
        name: "fleet-replace".into(),
        space: (IndexExpr::con(0), IndexExpr::Poly(s.clone())),
        cover: true,
        families: vec![ir::quota_tile_family("survivor", "h", &s, &Poly::var("H"))],
        bounds: vec![SymBound::at_least("S", 1), SymBound::at_least("H", 1)],
        assumptions: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coverage_ok(slices: &[Slice], n_windows: u32, n_buckets: u32) {
        // every (window, bucket) covered exactly once
        let mut seen = vec![0u32; (n_windows * n_buckets) as usize];
        for s in slices {
            for b in s.bucket_lo..s.bucket_hi {
                seen[(s.window * n_buckets + b) as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "coverage must be exact");
    }

    #[test]
    fn whole_windows_when_divisible() {
        let slices = plan_slices(8, 1 << 10, 8);
        coverage_ok(&slices, 8, 1 << 10);
        assert_eq!(slices.len(), 8);
        for (i, s) in slices.iter().enumerate() {
            assert_eq!(s.gpu, i);
            assert_eq!(s.window, i as u32);
            assert_eq!(s.len(), 1 << 10);
        }
    }

    #[test]
    fn paper_example_three_gpus_two_windows() {
        // §3.2.2: two GPUs handle ⅔ of each window, the third the
        // remaining ⅓ from both.
        let nb = 999; // divisible by 3 for exactness
        let slices = plan_slices(2, nb, 3);
        coverage_ok(&slices, 2, nb);
        // GPU 0: ⅔ of window 0; GPU 1: ⅓ of window 0 + ⅓ of window 1;
        // GPU 2: ⅔ of window 1 (an equivalent rotation of the example)
        let per_gpu: Vec<u32> = (0..3)
            .map(|g| slices.iter().filter(|s| s.gpu == g).map(Slice::len).sum())
            .collect();
        assert_eq!(per_gpu, vec![666, 666, 666]);
        let gpw: Vec<usize> =
            (0..2).map(|w| slices.iter().filter(|s| s.window == w).count()).collect();
        assert_eq!(gpw, vec![2, 2]);
    }

    #[test]
    fn more_gpus_than_windows_splits_buckets() {
        let slices = plan_slices(4, 1 << 8, 16);
        coverage_ok(&slices, 4, 1 << 8);
        for w in 0..4 {
            assert_eq!(slices.iter().filter(|s| s.window == w).count(), 4);
        }
        // each GPU gets a quarter window
        assert!(slices.iter().all(|s| s.len() == 64));
    }

    #[test]
    fn fewer_gpus_than_windows() {
        let slices = plan_slices(23, 1 << 11, 16);
        coverage_ok(&slices, 23, 1 << 11);
        // balanced to within one bucket
        let loads: Vec<u64> = (0..16)
            .map(|g| {
                slices
                    .iter()
                    .filter(|s| s.gpu == g)
                    .map(|s| u64::from(s.len()))
                    .sum()
            })
            .collect();
        let min = *loads.iter().min().unwrap();
        let max = *loads.iter().max().unwrap();
        assert!(max - min <= 1, "loads {loads:?}");
    }

    #[test]
    fn replan_tiles_lost_work_exactly() {
        // lose GPU 3 of 8, re-plan its slices onto the other seven
        let n_windows = 16;
        let n_buckets = 1u32 << 8;
        let slices = plan_slices(n_windows, n_buckets, 8);
        let (lost, kept): (Vec<Slice>, Vec<Slice>) =
            slices.iter().partition(|s| s.gpu == 3);
        let survivors: Vec<usize> = (0..8).filter(|&g| g != 3).collect();
        let recovered = replan_slices(&lost, &survivors);
        assert!(!recovered.is_empty());
        assert!(recovered.iter().all(|s| s.gpu != 3 && !s.is_empty()));
        // kept ∪ recovered covers every (window, bucket) exactly once
        let mut seen = vec![0u32; (n_windows * n_buckets) as usize];
        for s in kept.iter().chain(&recovered) {
            for b in s.bucket_lo..s.bucket_hi {
                seen[(s.window * n_buckets + b) as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "re-plan must tile exactly");
    }

    #[test]
    fn replan_balances_across_survivors() {
        let slices = plan_slices(8, 1 << 10, 8);
        let lost: Vec<Slice> = slices.iter().filter(|s| s.gpu == 0).copied().collect();
        let survivors: Vec<usize> = (1..8).collect();
        let recovered = replan_slices(&lost, &survivors);
        let loads: Vec<u64> = survivors
            .iter()
            .map(|&g| {
                recovered
                    .iter()
                    .filter(|s| s.gpu == g)
                    .map(|s| u64::from(s.len()))
                    .sum()
            })
            .collect();
        let min = *loads.iter().min().unwrap();
        let max = *loads.iter().max().unwrap();
        assert!(max - min <= 1, "loads {loads:?}");
    }

    #[test]
    fn replan_tiny_slice_onto_many_survivors() {
        // a 2-bucket slice across 7 survivors: only 2 sub-slices emerge
        let lost = [Slice {
            gpu: 0,
            window: 3,
            bucket_lo: 10,
            bucket_hi: 12,
        }];
        let survivors: Vec<usize> = (1..8).collect();
        let recovered = replan_slices(&lost, &survivors);
        assert_eq!(recovered.len(), 2);
        let covered: u32 = recovered.iter().map(Slice::len).sum();
        assert_eq!(covered, 2);
    }

    #[test]
    fn partition_ir_grounds_against_plan_slices() {
        // the symbolic quota tiles must agree with the concrete planner
        for &(w, b, g) in &[
            (8u32, 1u32 << 10, 8usize),
            (2, 999, 3),
            (23, 1 << 11, 16),
            (13, 64, 1),
            (17, 33, 5),
        ] {
            let (slices, ir, env) = plan_slices_with_ir(w, b, g);
            assert_eq!(ir.member_count(0, &env), g as i128);
            for gpu in 0..g {
                let (lo, hi) = ir.member_interval(0, gpu as i128, &env).unwrap();
                let covered: i128 = slices
                    .iter()
                    .filter(|s| s.gpu == gpu)
                    .map(|s| i128::from(s.len()))
                    .sum();
                assert_eq!(hi - lo, covered, "gpu {gpu} quota width");
                if let Some(first) = slices.iter().find(|s| s.gpu == gpu) {
                    let flat = i128::from(first.window) * i128::from(b)
                        + i128::from(first.bucket_lo);
                    assert_eq!(flat, lo, "gpu {gpu} quota start");
                }
            }
            assert_eq!(ir.space.1.eval(&env), i128::from(w) * i128::from(b));
        }
    }

    #[test]
    fn window_merge_ir_tiles_flat_range() {
        let ir = window_merge_ir();
        let mut env = BTreeMap::new();
        env.insert("W", 7i128);
        env.insert("B", 33i128);
        let mut cursor = 0;
        for w in 0..7 {
            let (lo, hi) = ir.member_interval(0, w, &env).unwrap();
            assert_eq!(lo, cursor);
            assert_eq!(hi - lo, 33);
            cursor = hi;
        }
        assert_eq!(cursor, ir.space.1.eval(&env));
    }

    #[test]
    fn single_gpu_owns_everything() {
        let slices = plan_slices(13, 64, 1);
        coverage_ok(&slices, 13, 64);
        assert!(slices.iter().all(|s| s.gpu == 0));
        assert_eq!(slices.len(), 13);
    }
}
