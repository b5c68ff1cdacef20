//! The engine configuration [`DistMsmConfig`] and its validating
//! builder — the supported way to construct engine configurations.
//!
//! [`DistMsmConfig`] is `#[non_exhaustive]`: new knobs (a new fault
//! class, a new reduce strategy) must not be breaking changes for
//! downstream crates, so struct-literal construction is reserved to this
//! crate. Callers start from [`DistMsmConfig::builder`] (the defaults)
//! or [`DistMsmConfig::to_builder`] (a derived configuration) and chain
//! setters; [`DistMsmConfigBuilder::build`] validates the combination
//! before the engine ever sees it, turning what used to be
//! mid-execution panics or silent nonsense (a 40-bit window, a
//! sub-unit straggler SLA) into typed [`ConfigError`]s at construction
//! time.

use crate::scatter::{ScatterConfig, ScatterKind};
use crate::supervisor::RetryPolicy;
use distmsm_comms::CollectiveStrategy;
use distmsm_gpu_sim::FaultPlan;
use distmsm_kernel::PaddOptimizations;

/// Engine configuration.
///
/// Marked `#[non_exhaustive]`: construct it through
/// [`DistMsmConfig::builder`] / [`DistMsmConfig::to_builder`], which also
/// validate the combination. Struct literals and functional-update syntax
/// are reserved to this crate.
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
    /// Thread-block size of the bucket-sum kernel: always
    /// [`BLOCK_SIZE`], which no builder setter changes.
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
    /// through the cost model and reported in
    /// [`MsmReport::recovery`](crate::engine::MsmReport::recovery).
    /// The empty plan (default) executes exactly the fault-free path.
    pub fault_plan: FaultPlan,
    /// Bounded-retry policy the supervisor charges when probing faulted
    /// devices and re-shipping corrupted partials.
    pub retry: RetryPolicy,
    /// Optional straggler SLA: when a GPU's busy time exceeds this
    /// multiple of the median, execution fails with
    /// [`MsmError::Straggler`](crate::engine::MsmError::Straggler)
    /// instead of merely recording the skew.
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
            block_size: BLOCK_SIZE,
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

/// Thread-block size of the bucket-sum kernel, a whole number of
/// 32-thread warps.
pub const BLOCK_SIZE: u32 = 256;

/// Largest window size the planner accepts: bucket indices are `u32`
/// and `2^31` buckets already exceeds any simulated device's memory.
const MAX_WINDOW_SIZE: u32 = 31;

/// A configuration rejected by [`DistMsmConfigBuilder::build`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `window_size` outside `1..=31` (or `< 2` with signed digits,
    /// which need one bit for the sign).
    WindowSize {
        /// The rejected value.
        got: u32,
        /// True when the bound that failed was the signed-digit minimum.
        signed_digits: bool,
    },
    /// `straggler_sla` at or below 1.0 — every device runs at 1.0× the
    /// median, so such an SLA would flag all of them.
    StragglerSla {
        /// The rejected value.
        got: f64,
    },
    /// Retry policy with a negative/non-finite backoff base or a
    /// backoff factor below 1.0 (backoff must not shrink).
    Retry {
        /// Human-readable description of the rejected field.
        detail: String,
    },
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::WindowSize { got, signed_digits } => {
                if *signed_digits {
                    write!(f, "window_size {got} invalid: signed digits need 2..={MAX_WINDOW_SIZE}")
                } else {
                    write!(f, "window_size {got} outside 1..={MAX_WINDOW_SIZE}")
                }
            }
            Self::StragglerSla { got } => {
                write!(f, "straggler_sla {got} must exceed 1.0 (the median itself)")
            }
            Self::Retry { detail } => write!(f, "invalid retry policy: {detail}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Fluent builder for [`DistMsmConfig`]; see the module docs.
#[derive(Clone, Debug, Default)]
pub struct DistMsmConfigBuilder {
    cfg: DistMsmConfig,
}

impl DistMsmConfigBuilder {
    /// Starts from the engine defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts from an existing configuration (for derived variants:
    /// "the clean config, but with this fault plan").
    pub fn from_config(cfg: &DistMsmConfig) -> Self {
        Self { cfg: cfg.clone() }
    }

    /// Fixes the window size `s` (bits per window).
    pub fn window_size(mut self, s: u32) -> Self {
        self.cfg.window_size = Some(s);
        self
    }

    /// Lets the engine pick the cost-model-optimal window size
    /// (the default).
    pub fn auto_window_size(mut self) -> Self {
        self.cfg.window_size = None;
        self
    }

    /// Forces a scatter implementation.
    pub fn scatter(mut self, kind: ScatterKind) -> Self {
        self.cfg.scatter = Some(kind);
        self
    }

    /// Lets the engine pick the scatter implementation (the default:
    /// hierarchical whenever the slice fits in shared memory).
    pub fn auto_scatter(mut self) -> Self {
        self.cfg.scatter = None;
        self
    }

    /// Hierarchical-scatter tuning.
    pub fn scatter_cfg(mut self, cfg: ScatterConfig) -> Self {
        self.cfg.scatter_cfg = cfg;
        self
    }

    /// PADD-kernel optimisation set.
    pub fn kernel_opts(mut self, opts: PaddOptimizations) -> Self {
        self.cfg.kernel_opts = opts;
        self
    }

    /// Runs bucket-reduce on the CPU (§3.2.3) or on the GPUs.
    pub fn bucket_reduce_on_cpu(mut self, on_cpu: bool) -> Self {
        self.cfg.bucket_reduce_on_cpu = on_cpu;
        self
    }

    /// Models the CPU reduce as pipelined with GPU work (§3.2.3).
    pub fn pipelined(mut self, on: bool) -> Self {
        self.cfg.pipelined = on;
        self
    }

    /// Streams packed 4-byte per-window coefficient views.
    pub fn packed_coefficients(mut self, on: bool) -> Self {
        self.cfg.packed_coefficients = on;
        self
    }

    /// Recodes scalars into signed digits (§6's adopted technique).
    pub fn signed_digits(mut self, on: bool) -> Self {
        self.cfg.signed_digits = on;
        self
    }

    /// Collective strategy merging per-GPU window partials on the
    /// GPU-reduce path.
    pub fn collective(mut self, strategy: CollectiveStrategy) -> Self {
        self.cfg.collective = strategy;
        self
    }

    /// Deterministic fault-injection plan (non-empty plans turn the
    /// supervisor on).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.cfg.fault_plan = plan;
        self
    }

    /// Bounded-retry policy for the supervisor.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.cfg.retry = policy;
        self
    }

    /// Fails execution with [`crate::engine::MsmError::Straggler`] when
    /// a GPU's busy time exceeds `ratio` × the median.
    pub fn straggler_sla(mut self, ratio: f64) -> Self {
        self.cfg.straggler_sla = Some(ratio);
        self
    }

    /// Removes the straggler SLA (detection-only, the default).
    pub fn no_straggler_sla(mut self) -> Self {
        self.cfg.straggler_sla = None;
        self
    }

    /// Validates the combination and returns the configuration.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first rejected field; see the
    /// variant docs for each rule.
    pub fn build(self) -> Result<DistMsmConfig, ConfigError> {
        let cfg = self.cfg;
        if let Some(s) = cfg.window_size {
            let min = if cfg.signed_digits { 2 } else { 1 };
            if s < min || s > MAX_WINDOW_SIZE {
                return Err(ConfigError::WindowSize {
                    got: s,
                    signed_digits: cfg.signed_digits,
                });
            }
        }
        if let Some(sla) = cfg.straggler_sla {
            if sla.is_nan() || sla <= 1.0 {
                return Err(ConfigError::StragglerSla { got: sla });
            }
        }
        if !cfg.retry.backoff_base_s.is_finite() || cfg.retry.backoff_base_s < 0.0 {
            return Err(ConfigError::Retry {
                detail: format!(
                    "backoff_base_s {} must be finite and >= 0",
                    cfg.retry.backoff_base_s
                ),
            });
        }
        if !cfg.retry.backoff_factor.is_finite() || cfg.retry.backoff_factor < 1.0 {
            return Err(ConfigError::Retry {
                detail: format!(
                    "backoff_factor {} must be finite and >= 1",
                    cfg.retry.backoff_factor
                ),
            });
        }
        if !cfg.retry.backoff_cap_s.is_finite() || cfg.retry.backoff_cap_s < 0.0 {
            return Err(ConfigError::Retry {
                detail: format!(
                    "backoff_cap_s {} must be finite and >= 0",
                    cfg.retry.backoff_cap_s
                ),
            });
        }
        Ok(cfg)
    }
}

impl DistMsmConfig {
    /// A fluent validating builder starting from the defaults; see
    /// [`DistMsmConfigBuilder`].
    pub fn builder() -> DistMsmConfigBuilder {
        DistMsmConfigBuilder::new()
    }

    /// A builder seeded with this configuration, for derived variants.
    pub fn to_builder(&self) -> DistMsmConfigBuilder {
        DistMsmConfigBuilder::from_config(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_config_default() {
        let built = DistMsmConfig::builder().build().expect("defaults are valid");
        let def = DistMsmConfig::default();
        assert_eq!(built.window_size, def.window_size);
        assert_eq!(built.block_size, def.block_size);
        assert_eq!(built.bucket_reduce_on_cpu, def.bucket_reduce_on_cpu);
        assert_eq!(built.pipelined, def.pipelined);
        assert_eq!(built.retry, def.retry);
    }

    #[test]
    fn setters_round_trip() {
        let cfg = DistMsmConfig::builder()
            .window_size(8)
            .scatter(ScatterKind::Naive)
            .bucket_reduce_on_cpu(false)
            .pipelined(false)
            .packed_coefficients(false)
            .signed_digits(true)
            .collective(CollectiveStrategy::RingAllReduce)
            .straggler_sla(2.5)
            .build()
            .expect("valid");
        assert_eq!(cfg.window_size, Some(8));
        assert_eq!(cfg.scatter, Some(ScatterKind::Naive));
        assert!(!cfg.bucket_reduce_on_cpu);
        assert!(!cfg.pipelined);
        assert!(!cfg.packed_coefficients);
        assert!(cfg.signed_digits);
        assert_eq!(cfg.straggler_sla, Some(2.5));
    }

    #[test]
    fn to_builder_derives_without_struct_update() {
        let base = DistMsmConfig::builder()
            .window_size(10)
            .signed_digits(true)
            .build()
            .unwrap();
        let derived = base
            .to_builder()
            .bucket_reduce_on_cpu(false)
            .build()
            .unwrap();
        assert_eq!(derived.window_size, Some(10));
        assert!(derived.signed_digits);
        assert!(!derived.bucket_reduce_on_cpu);
    }

    #[test]
    fn window_size_bounds_enforced() {
        assert!(matches!(
            DistMsmConfig::builder().window_size(0).build(),
            Err(ConfigError::WindowSize { got: 0, .. })
        ));
        assert!(matches!(
            DistMsmConfig::builder().window_size(32).build(),
            Err(ConfigError::WindowSize { got: 32, .. })
        ));
        // signed digits reserve one bit for the sign
        assert!(matches!(
            DistMsmConfig::builder().signed_digits(true).window_size(1).build(),
            Err(ConfigError::WindowSize {
                got: 1,
                signed_digits: true
            })
        ));
        assert!(DistMsmConfig::builder().window_size(31).build().is_ok());
    }

    #[test]
    fn straggler_sla_must_exceed_median() {
        assert!(matches!(
            DistMsmConfig::builder().straggler_sla(1.0).build(),
            Err(ConfigError::StragglerSla { .. })
        ));
        assert!(matches!(
            DistMsmConfig::builder().straggler_sla(f64::NAN).build(),
            Err(ConfigError::StragglerSla { .. })
        ));
        assert!(DistMsmConfig::builder()
            .straggler_sla(1.5)
            .no_straggler_sla()
            .build()
            .unwrap()
            .straggler_sla
            .is_none());
    }

    #[test]
    fn retry_policy_validated() {
        let bad_base = RetryPolicy::default().with_backoff_base_s(-1.0);
        assert!(matches!(
            DistMsmConfig::builder().retry(bad_base).build(),
            Err(ConfigError::Retry { .. })
        ));
        let bad_factor = RetryPolicy::default().with_backoff_factor(0.5);
        assert!(matches!(
            DistMsmConfig::builder().retry(bad_factor).build(),
            Err(ConfigError::Retry { .. })
        ));
        let good = RetryPolicy::default()
            .with_max_retries(1)
            .with_backoff_base_s(1e-6);
        assert!(DistMsmConfig::builder().retry(good).build().is_ok());
    }

    #[test]
    fn errors_display_the_offending_value() {
        let err = DistMsmConfig::builder().window_size(40).build().unwrap_err();
        assert!(err.to_string().contains("40"), "{err}");
    }
}
