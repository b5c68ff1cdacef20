//! What an execution returns: the [`MsmReport`] with its
//! [`PhaseBreakdown`], or the [`MsmError`] that stopped it.

use crate::scatter::SharedMemoryOverflow;
use crate::supervisor::RecoveryReport;
use distmsm_comms::CommSchedule;
use distmsm_ec::{Curve, XyzzPoint};
use distmsm_gpu_sim::LaunchStats;

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

/// Result of one (simulated) MSM execution.
#[derive(Clone, Debug)]
pub struct MsmReport<C: Curve> {
    /// The MSM value (bit-exact, verified against references in tests).
    pub result: XyzzPoint<C>,
    /// The window partials `W_0 .. W_{n_windows-1}` that
    /// [`window_reduce`](crate::reduce::window_reduce) folded into
    /// `result` (§3.1), as the host held them after the CPU fold, the
    /// collective merge or the survivors-only gather. Empty for reports
    /// merged by point range rather than by window
    /// ([`crate::BestGpuBaseline`]).
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
