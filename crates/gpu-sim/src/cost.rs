//! Kernel cost accounting and the analytical timing model.
//!
//! The functional algorithm implementations (in the `distmsm` crate) run
//! bit-exactly on host threads and record, per simulated GPU thread, the
//! event counts in [`ThreadCost`]. A [`LaunchStats`] aggregates one kernel
//! launch; [`estimate_kernel_time`] converts it into seconds on a given
//! [`DeviceSpec`].
//!
//! The model follows the paper's own reasoning:
//!
//! * execution time is set by the **maximum per-thread workload**, not the
//!   total (§3.1);
//! * global atomics serialise with the number of concurrent writers to the
//!   same address (§3.1, citing Elteir et al.);
//! * register pressure determines occupancy and thus sustained throughput
//!   (§4.2);
//! * tensor cores add throughput that can overlap CUDA-core issue (§4.3).

use crate::device::DeviceSpec;

/// Per-thread event counts for one kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ThreadCost {
    /// int32-equivalent arithmetic operations executed on CUDA cores.
    pub int_ops: f64,
    /// int8 operations deployed to tensor cores.
    pub tc_int8_ops: f64,
    /// fp32 operations (the paper routes some additions to float units).
    pub fp32_ops: f64,
    /// Global-memory atomic operations issued.
    pub global_atomics: f64,
    /// Shared-memory atomic operations issued.
    pub shared_atomics: f64,
    /// Block-level barrier synchronisations.
    pub barriers: f64,
    /// Grid-level (global) synchronisations.
    pub global_syncs: f64,
    /// Bytes moved to/from device memory.
    pub global_bytes: f64,
    /// Bytes moved to/from shared memory.
    pub shared_bytes: f64,
}

impl ThreadCost {
    /// Element-wise sum.
    pub fn add(&self, o: &Self) -> Self {
        Self {
            int_ops: self.int_ops + o.int_ops,
            tc_int8_ops: self.tc_int8_ops + o.tc_int8_ops,
            fp32_ops: self.fp32_ops + o.fp32_ops,
            global_atomics: self.global_atomics + o.global_atomics,
            shared_atomics: self.shared_atomics + o.shared_atomics,
            barriers: self.barriers + o.barriers,
            global_syncs: self.global_syncs + o.global_syncs,
            global_bytes: self.global_bytes + o.global_bytes,
            shared_bytes: self.shared_bytes + o.shared_bytes,
        }
    }

    /// Element-wise maximum (used to track the critical thread).
    pub fn max(&self, o: &Self) -> Self {
        Self {
            int_ops: self.int_ops.max(o.int_ops),
            tc_int8_ops: self.tc_int8_ops.max(o.tc_int8_ops),
            fp32_ops: self.fp32_ops.max(o.fp32_ops),
            global_atomics: self.global_atomics.max(o.global_atomics),
            shared_atomics: self.shared_atomics.max(o.shared_atomics),
            barriers: self.barriers.max(o.barriers),
            global_syncs: self.global_syncs.max(o.global_syncs),
            global_bytes: self.global_bytes.max(o.global_bytes),
            shared_bytes: self.shared_bytes.max(o.shared_bytes),
        }
    }

    /// Scales every component (used when extrapolating from a reduced
    /// functional run to paper-scale N).
    pub fn scale(&self, f: f64) -> Self {
        Self {
            int_ops: self.int_ops * f,
            tc_int8_ops: self.tc_int8_ops * f,
            fp32_ops: self.fp32_ops * f,
            global_atomics: self.global_atomics * f,
            shared_atomics: self.shared_atomics * f,
            barriers: self.barriers * f,
            global_syncs: self.global_syncs * f,
            global_bytes: self.global_bytes * f,
            shared_bytes: self.shared_bytes * f,
        }
    }
}

/// Static execution configuration of one kernel.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelProfile {
    /// Kernel name for reports.
    pub name: &'static str,
    /// Registers per thread (from the register-pressure model).
    pub regs_per_thread: u32,
    /// Shared memory per block in bytes.
    pub shared_mem_per_block: u32,
    /// Threads per block.
    pub block_size: u32,
}

impl KernelProfile {
    /// Convenience constructor.
    pub fn new(name: &'static str, regs_per_thread: u32, shared_mem_per_block: u32, block_size: u32) -> Self {
        Self {
            name,
            regs_per_thread,
            shared_mem_per_block,
            block_size,
        }
    }
}

/// Aggregated statistics of one kernel launch.
#[derive(Clone, Debug)]
pub struct LaunchStats {
    /// Execution configuration.
    pub profile: KernelProfile,
    /// Logical threads launched.
    pub threads: u64,
    /// The heaviest single thread (sets the critical path).
    pub max_thread: ThreadCost,
    /// Sum over all threads (sets throughput demand).
    pub total: ThreadCost,
    /// Distinct addresses targeted by global atomics (contention divisor).
    pub distinct_atomic_addrs: u64,
    /// Distinct shared-memory addresses targeted by shared atomics.
    pub distinct_shared_addrs: u64,
}

impl LaunchStats {
    /// Creates empty stats for a launch of `threads` threads.
    pub fn new(profile: KernelProfile, threads: u64) -> Self {
        Self {
            profile,
            threads,
            max_thread: ThreadCost::default(),
            total: ThreadCost::default(),
            distinct_atomic_addrs: 0,
            distinct_shared_addrs: 0,
        }
    }
}

/// Tunable constants of the timing model.
///
/// These are calibration knobs, not measurements; they were chosen so the
/// single-GPU baseline lands in the regime the paper reports and are held
/// fixed across every experiment (only the device spec changes).
#[derive(Clone, Debug)]
pub struct CostModelConfig {
    /// Cycles for an uncontended global atomic.
    pub atomic_base_cycles: f64,
    /// Additional serialisation cycles per concurrent writer to the same
    /// address (Elteir et al.: cost scales with simultaneous writes).
    pub atomic_conflict_cycles: f64,
    /// Cycles for an uncontended shared-memory atomic.
    pub shared_atomic_base_cycles: f64,
    /// Serialisation cycles per concurrent writer for shared atomics.
    pub shared_atomic_conflict_cycles: f64,
    /// Cycles per block barrier.
    pub barrier_cycles: f64,
    /// Microseconds per grid-wide synchronisation (kernel relaunch).
    pub global_sync_us: f64,
    /// Shared-memory bandwidth relative to device memory bandwidth.
    pub shared_bw_multiplier: f64,
    /// Fixed kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
}

impl Default for CostModelConfig {
    fn default() -> Self {
        Self {
            atomic_base_cycles: 30.0,
            atomic_conflict_cycles: 8.0,
            shared_atomic_base_cycles: 4.0,
            shared_atomic_conflict_cycles: 1.0,
            barrier_cycles: 40.0,
            global_sync_us: 5.0,
            shared_bw_multiplier: 12.0,
            launch_overhead_us: 4.0,
        }
    }
}

/// A time breakdown for one kernel launch, in seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelTime {
    /// Arithmetic (CUDA-core + tensor-core + fp32) time.
    pub compute_s: f64,
    /// Device-memory traffic time.
    pub memory_s: f64,
    /// Atomic serialisation time.
    pub atomic_s: f64,
    /// Barrier / grid-sync / launch overhead time.
    pub sync_s: f64,
}

impl KernelTime {
    /// Total wall time: compute and memory overlap; atomics and syncs are
    /// serial additions on the critical path.
    pub fn total(&self) -> f64 {
        self.compute_s.max(self.memory_s) + self.atomic_s + self.sync_s
    }
}

/// Estimates the wall time of one launch on `device`.
pub fn estimate_kernel_time(
    device: &DeviceSpec,
    stats: &LaunchStats,
    cfg: &CostModelConfig,
) -> KernelTime {
    let p = &stats.profile;
    let occ = device.occupancy(p.regs_per_thread, p.shared_mem_per_block, p.block_size);
    let eff = device.efficiency_at(occ);
    if eff == 0.0 {
        // Kernel cannot launch (e.g. shared-memory overflow): signal with
        // an infinite time; callers surface this as an execution failure,
        // matching the paper's report for naive scatter at s > 14.
        return KernelTime {
            compute_s: f64::INFINITY,
            ..KernelTime::default()
        };
    }

    // --- compute: CUDA cores, tensor cores and fp32 ports overlap -------
    let cuda_ops_per_s = device.cuda_int32_tops * 1e12 * eff;
    let tc_ops_per_s = device.tensor_int8_tops * 1e12 * eff;
    let fp_ops_per_s = device.fp32_tflops * 1e12 * eff;
    let t_cuda = stats.total.int_ops / cuda_ops_per_s;
    let t_tc = if stats.total.tc_int8_ops > 0.0 {
        if tc_ops_per_s == 0.0 {
            f64::INFINITY
        } else {
            stats.total.tc_int8_ops / tc_ops_per_s
        }
    } else {
        0.0
    };
    let t_fp = if stats.total.fp32_ops > 0.0 {
        stats.total.fp32_ops / fp_ops_per_s
    } else {
        0.0
    };
    // Units run concurrently; the slowest pipe dominates. A load-imbalance
    // floor comes from the heaviest thread: no launch finishes faster than
    // its critical thread, which issues at most ~2 int ops per cycle
    // regardless of occupancy.
    let resident =
        device.resident_threads_per_sm(p.regs_per_thread, p.shared_mem_per_block, p.block_size);
    let issue_per_thread = device.clock_ghz * 1e9 * 2.0;
    let t_critical = stats.max_thread.int_ops / issue_per_thread;
    let compute_s = t_cuda.max(t_tc).max(t_fp).max(t_critical);

    // --- memory ----------------------------------------------------------
    let bw = device.mem_bandwidth_gbps * 1e9;
    let memory_s =
        stats.total.global_bytes / bw + stats.total.shared_bytes / (bw * cfg.shared_bw_multiplier);

    // --- atomics: serialisation scales with concurrent writers ----------
    let concurrent_threads =
        (u64::from(resident) * u64::from(device.sm_count)).min(stats.threads) as f64;
    let atomic_s = if stats.total.global_atomics > 0.0 {
        // Degenerate-input clamps: `.max(1)` keeps the divisor finite when a
        // kernel issued atomics but never filled in `distinct_atomic_addrs`
        // (treated as maximal contention on one address), and `.max(1.0)`
        // floors the writer count when addresses outnumber the concurrent
        // threads — a single-thread launch still pays one uncontended writer.
        let writers_per_addr =
            (concurrent_threads / stats.distinct_atomic_addrs.max(1) as f64).max(1.0);
        let cycles_per_atomic =
            cfg.atomic_base_cycles + cfg.atomic_conflict_cycles * (writers_per_addr - 1.0);
        // Atomics to distinct addresses proceed in parallel across the
        // memory subsystem; conflicting ones serialise per address.
        let per_thread_atomics = stats.max_thread.global_atomics;
        per_thread_atomics * cycles_per_atomic * writers_per_addr.min(32.0)
            / (device.clock_ghz * 1e9)
    } else {
        0.0
    } + if stats.total.shared_atomics > 0.0 {
        let block_threads = f64::from(p.block_size);
        // Same clamps as the global path: unset address counts degrade to
        // worst-case (all of the block on one shared slot), never to NaN.
        let writers_per_addr =
            (block_threads / stats.distinct_shared_addrs.max(1) as f64).max(1.0);
        let cycles = cfg.shared_atomic_base_cycles
            + cfg.shared_atomic_conflict_cycles * (writers_per_addr - 1.0);
        stats.max_thread.shared_atomics * cycles / (device.clock_ghz * 1e9)
    } else {
        0.0
    };

    // --- synchronisation --------------------------------------------------
    let sync_s = stats.max_thread.barriers * cfg.barrier_cycles / (device.clock_ghz * 1e9)
        + stats.max_thread.global_syncs * cfg.global_sync_us * 1e-6
        + cfg.launch_overhead_us * 1e-6;

    KernelTime {
        compute_s,
        memory_s,
        atomic_s,
        sync_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(
        regs: u32,
        shared: u32,
        threads: u64,
        per_thread_ops: f64,
        atomics: f64,
        addrs: u64,
    ) -> LaunchStats {
        let mut s = LaunchStats::new(KernelProfile::new("k", regs, shared, 256), threads);
        for _ in 0..threads.min(4) {
            // record a few representative threads; totals scaled manually
        }
        s.max_thread.int_ops = per_thread_ops;
        s.max_thread.global_atomics = atomics;
        s.total.int_ops = per_thread_ops * threads as f64;
        s.total.global_atomics = atomics * threads as f64;
        s.distinct_atomic_addrs = addrs;
        s
    }

    #[test]
    fn lower_register_pressure_is_faster() {
        let d = DeviceSpec::a100();
        let cfg = CostModelConfig::default();
        let hi = stats_with(264, 0, 1 << 16, 1e6, 0.0, 1);
        let lo = stats_with(64, 0, 1 << 16, 1e6, 0.0, 1);
        let t_hi = estimate_kernel_time(&d, &hi, &cfg).total();
        let t_lo = estimate_kernel_time(&d, &lo, &cfg).total();
        assert!(t_lo < t_hi, "t_lo={t_lo} t_hi={t_hi}");
    }

    #[test]
    fn atomic_contention_scales_with_fewer_addresses() {
        let d = DeviceSpec::a100();
        let cfg = CostModelConfig::default();
        // same atomic count, fewer distinct addresses → more contention
        let spread = stats_with(64, 0, 1 << 16, 0.0, 1024.0, 1 << 20);
        let packed = stats_with(64, 0, 1 << 16, 0.0, 1024.0, 1 << 8);
        let t_spread = estimate_kernel_time(&d, &spread, &cfg).atomic_s;
        let t_packed = estimate_kernel_time(&d, &packed, &cfg).atomic_s;
        assert!(t_packed > 4.0 * t_spread, "packed={t_packed} spread={t_spread}");
    }

    #[test]
    fn shared_memory_overflow_is_a_failure() {
        let d = DeviceSpec::a100();
        let cfg = CostModelConfig::default();
        let s = stats_with(64, 200 * 1024, 1 << 16, 1e6, 0.0, 1);
        assert!(estimate_kernel_time(&d, &s, &cfg).total().is_infinite());
    }

    #[test]
    fn tensor_ops_need_tensor_cores() {
        let cfg = CostModelConfig::default();
        let mut s = stats_with(64, 0, 1 << 16, 1.0, 0.0, 1);
        s.total.tc_int8_ops = 1e9;
        let on_a100 = estimate_kernel_time(&DeviceSpec::a100(), &s, &cfg).total();
        let on_amd = estimate_kernel_time(&DeviceSpec::amd6900xt(), &s, &cfg).total();
        assert!(on_a100.is_finite());
        assert!(on_amd.is_infinite());
    }

    #[test]
    fn thread_cost_algebra() {
        let a = ThreadCost {
            int_ops: 1.0,
            global_atomics: 5.0,
            ..Default::default()
        };
        let b = ThreadCost {
            int_ops: 3.0,
            global_atomics: 2.0,
            ..Default::default()
        };
        let sum = a.add(&b);
        assert_eq!(sum.int_ops, 4.0);
        let mx = a.max(&b);
        assert_eq!(mx.int_ops, 3.0);
        assert_eq!(mx.global_atomics, 5.0);
        let sc = a.scale(2.0);
        assert_eq!(sc.global_atomics, 10.0);
    }

    #[test]
    fn zero_atomics_cost_nothing() {
        let d = DeviceSpec::a100();
        let cfg = CostModelConfig::default();
        // atomics == 0 must short-circuit both atomic terms even when the
        // address counts are zero too (the clamps must never be reached).
        let s = stats_with(64, 0, 1 << 16, 1e6, 0.0, 0);
        let t = estimate_kernel_time(&d, &s, &cfg);
        assert_eq!(t.atomic_s, 0.0);
        assert!(t.total().is_finite());
    }

    #[test]
    fn unset_atomic_addrs_degrade_to_one_address() {
        let d = DeviceSpec::a100();
        let cfg = CostModelConfig::default();
        // atomics issued but distinct_atomic_addrs left at 0: the `.max(1)`
        // clamp treats this as full contention on a single address — the
        // result must be finite and identical to an explicit addrs == 1.
        let unset = stats_with(64, 0, 1 << 16, 0.0, 64.0, 0);
        let one = stats_with(64, 0, 1 << 16, 0.0, 64.0, 1);
        let t_unset = estimate_kernel_time(&d, &unset, &cfg).atomic_s;
        let t_one = estimate_kernel_time(&d, &one, &cfg).atomic_s;
        assert!(t_unset.is_finite() && t_unset > 0.0);
        assert_eq!(t_unset, t_one);
    }

    #[test]
    fn single_thread_launch_pays_uncontended_atomics() {
        let d = DeviceSpec::a100();
        let cfg = CostModelConfig::default();
        // one thread, many distinct addresses: writers_per_addr would be
        // 1/addrs without the `.max(1.0)` floor. The clamp pins it at one
        // writer, so each atomic costs exactly `atomic_base_cycles`.
        let s = stats_with(64, 0, 1, 0.0, 16.0, 1 << 20);
        let t = estimate_kernel_time(&d, &s, &cfg).atomic_s;
        let expected = 16.0 * cfg.atomic_base_cycles / (d.clock_ghz * 1e9);
        assert!((t - expected).abs() < 1e-15, "t={t} expected={expected}");
    }

    #[test]
    fn serialisation_caps_at_warp_width() {
        let d = DeviceSpec::a100();
        let cfg = CostModelConfig::default();
        // all concurrent threads hammer one address: the per-address queue
        // is capped at 32 (warp-serialised hardware), so doubling writers
        // beyond the cap only raises the per-op conflict cycles linearly,
        // not quadratically.
        let s = stats_with(64, 0, 1 << 20, 0.0, 1.0, 1);
        let t = estimate_kernel_time(&d, &s, &cfg).atomic_s;
        let resident = d.resident_threads_per_sm(64, 0, 256);
        let concurrent = (u64::from(resident) * u64::from(d.sm_count)).min(1 << 20) as f64;
        let cycles = cfg.atomic_base_cycles + cfg.atomic_conflict_cycles * (concurrent - 1.0);
        let expected = cycles * 32.0 / (d.clock_ghz * 1e9);
        assert!((t - expected).abs() / expected < 1e-12, "t={t} expected={expected}");
    }

    #[test]
    fn unset_shared_addrs_stay_finite() {
        let d = DeviceSpec::a100();
        let cfg = CostModelConfig::default();
        let mut s = stats_with(64, 0, 1 << 16, 0.0, 0.0, 0);
        s.max_thread.shared_atomics = 8.0;
        s.total.shared_atomics = 8.0 * (1 << 16) as f64;
        s.distinct_shared_addrs = 0; // unset → whole block on one slot
        let t = estimate_kernel_time(&d, &s, &cfg).atomic_s;
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn memory_bound_kernel_uses_bandwidth() {
        let d = DeviceSpec::a100();
        let cfg = CostModelConfig::default();
        let mut s = stats_with(64, 0, 1 << 16, 1.0, 0.0, 1);
        s.total.global_bytes = 2039e9; // exactly one second of traffic
        let t = estimate_kernel_time(&d, &s, &cfg);
        assert!((t.memory_s - 1.0).abs() < 1e-9);
    }
}
