//! GPU device descriptions and the occupancy model.
//!
//! The paper's kernel-level optimisations (§4) all act through one
//! mechanism: fewer registers per thread ⇒ more resident threads per SM ⇒
//! better latency hiding ⇒ higher sustained throughput. [`DeviceSpec`]
//! captures the handful of hardware quantities that analysis needs —
//! the same ones Figure 9 tabulates when comparing the Nvidia A100,
//! Nvidia RTX 4090 and AMD 6900XT.

/// Static description of one GPU.
#[derive(Clone, Debug, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"NVIDIA A100 80GB"`.
    pub name: &'static str,
    /// Number of streaming multiprocessors (compute units on AMD).
    pub sm_count: u32,
    /// Hardware thread slots per SM.
    pub max_threads_per_sm: u32,
    /// 32-bit registers per SM.
    pub registers_per_sm: u32,
    /// Shared memory (LDS) usable by one thread block, in bytes.
    pub shared_mem_per_block: u32,
    /// Peak int32 throughput of the CUDA/stream cores, in tera-ops/s.
    pub cuda_int32_tops: f64,
    /// Peak int8 tensor-core throughput in tera-ops/s (0 when absent).
    pub tensor_int8_tops: f64,
    /// Peak fp32 throughput in tera-flops/s.
    pub fp32_tflops: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bandwidth_gbps: f64,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
}

impl DeviceSpec {
    /// The Nvidia A100-80GB (SXM) used for the paper's main results.
    pub fn a100() -> Self {
        Self {
            name: "NVIDIA A100 80GB",
            sm_count: 108,
            max_threads_per_sm: 2048,
            registers_per_sm: 65536,
            shared_mem_per_block: 164 * 1024,
            cuda_int32_tops: 19.5,
            tensor_int8_tops: 624.0,
            fp32_tflops: 19.5,
            mem_bandwidth_gbps: 2039.0,
            clock_ghz: 1.41,
        }
    }

    /// The Nvidia RTX 4090 of the Figure 9 comparison: 2.12× the A100's
    /// CUDA-core integer throughput, half the memory bandwidth.
    pub fn rtx4090() -> Self {
        Self {
            name: "NVIDIA RTX 4090",
            sm_count: 128,
            max_threads_per_sm: 1536,
            registers_per_sm: 65536,
            shared_mem_per_block: 100 * 1024,
            cuda_int32_tops: 41.3,
            tensor_int8_tops: 660.6,
            fp32_tflops: 82.6,
            mem_bandwidth_gbps: 1008.0,
            clock_ghz: 2.52,
        }
    }

    /// The AMD 6900XT of the Figure 9 comparison: similar register file
    /// and bandwidth class, notably lower integer throughput, no int8
    /// tensor unit.
    pub fn amd6900xt() -> Self {
        Self {
            name: "AMD 6900XT",
            sm_count: 80,
            max_threads_per_sm: 2048,
            registers_per_sm: 65536,
            shared_mem_per_block: 64 * 1024,
            cuda_int32_tops: 23.0,
            tensor_int8_tops: 0.0,
            fp32_tflops: 23.0,
            mem_bandwidth_gbps: 512.0,
            clock_ghz: 2.25,
        }
    }

    /// Hardware thread capacity of the whole device.
    pub fn max_concurrent_threads(&self) -> u64 {
        u64::from(self.sm_count) * u64::from(self.max_threads_per_sm)
    }

    /// Resident threads per SM for a kernel using `regs_per_thread`
    /// registers and `shared_per_block` bytes of shared memory with blocks
    /// of `block_size` threads. Rounded down to whole warps and whole
    /// blocks, exactly like the hardware occupancy calculator.
    pub fn resident_threads_per_sm(
        &self,
        regs_per_thread: u32,
        shared_per_block: u32,
        block_size: u32,
    ) -> u32 {
        // Register limit at warp granularity (the launcher shrinks blocks
        // as needed for register-heavy kernels, so we do not force whole
        // blocks here).
        let by_regs = (self.registers_per_sm / regs_per_thread.max(1)) / 32 * 32;
        // Shared memory is allocated per block, so that limit quantises to
        // whole blocks.
        let by_shared = self
            .shared_mem_per_block
            .checked_div(shared_per_block)
            .map_or(u32::MAX, |blocks| blocks * block_size);
        by_regs.min(by_shared).min(self.max_threads_per_sm)
    }

    /// Occupancy in `[0, 1]`: resident threads over hardware slots.
    pub fn occupancy(&self, regs_per_thread: u32, shared_per_block: u32, block_size: u32) -> f64 {
        f64::from(self.resident_threads_per_sm(regs_per_thread, shared_per_block, block_size))
            / f64::from(self.max_threads_per_sm)
    }

    /// Throughput efficiency achieved at a given occupancy.
    ///
    /// GPUs only need enough resident warps to hide pipeline and memory
    /// latency; beyond a saturation point extra occupancy buys nothing.
    /// We use the standard piecewise-linear model with saturation at 25%
    /// occupancy (about 16 warps/SM on Ampere for compute-bound kernels).
    pub fn efficiency_at(&self, occupancy: f64) -> f64 {
        const SATURATION: f64 = 0.25;
        (occupancy / SATURATION).clamp(0.0, 1.0)
    }

    /// Whether the device has usable int8 tensor cores.
    pub fn has_tensor_cores(&self) -> bool {
        self.tensor_int8_tops > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_thread_capacity_matches_paper_scale() {
        // The paper uses N_T ≈ 2^16 concurrent threads for an A100-class
        // device once realistic register budgets are applied.
        let d = DeviceSpec::a100();
        assert_eq!(d.max_concurrent_threads(), 108 * 2048);
        let resident = d.resident_threads_per_sm(64, 0, 256);
        // 65536 regs / 64 per thread = 1024 threads/SM
        assert_eq!(resident, 1024);
        let total = u64::from(resident) * u64::from(d.sm_count);
        assert!(total > 1 << 16 && total < 1 << 18, "total={total}");
    }

    #[test]
    fn occupancy_monotone_in_registers() {
        let d = DeviceSpec::a100();
        let occ64 = d.occupancy(64, 0, 256);
        let occ128 = d.occupancy(128, 0, 256);
        let occ264 = d.occupancy(264, 0, 256);
        assert!(occ64 > occ128 && occ128 > occ264);
        assert!(occ264 > 0.0);
    }

    #[test]
    fn efficiency_saturates() {
        let d = DeviceSpec::a100();
        assert_eq!(d.efficiency_at(0.25), 1.0);
        assert_eq!(d.efficiency_at(0.9), 1.0);
        assert!((d.efficiency_at(0.125) - 0.5).abs() < 1e-12);
        assert_eq!(d.efficiency_at(0.0), 0.0);
    }

    #[test]
    fn rtx4090_int_advantage_matches_figure9() {
        let a = DeviceSpec::a100();
        let r = DeviceSpec::rtx4090();
        let ratio = r.cuda_int32_tops / a.cuda_int32_tops;
        assert!((ratio - 2.12).abs() < 0.02, "ratio={ratio}");
        // Figure 9 runs the tensor-core PADD path only where there are tensor cores
        assert!(a.has_tensor_cores());
        assert!(!DeviceSpec::amd6900xt().has_tensor_cores());
    }

    #[test]
    fn shared_memory_limits_blocks() {
        let d = DeviceSpec::a100();
        // a block needing all shared memory: one block resident
        let r = d.resident_threads_per_sm(32, 164 * 1024, 1024);
        assert_eq!(r, 1024);
        // needing more than available: zero blocks fit
        let r2 = d.resident_threads_per_sm(32, 200 * 1024, 1024);
        assert_eq!(r2, 0);
    }
}
