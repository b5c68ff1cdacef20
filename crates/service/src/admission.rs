//! Admission control: bounded per-tenant queues and a typed rejection
//! error. The shed policy that trades batch work for interactive
//! survival under overload is the pressure thresholds in
//! [`crate::service`] and the class bounds of [`crate::job::JobClass`].

/// Why the service refused a job at the door.
///
/// Marked `#[non_exhaustive]`: admission policies grow (quota classes,
/// priority preemption) and a new rejection reason must not be a
/// breaking change for downstream matchers.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum AdmissionError {
    /// The tenant's bounded queue is at capacity.
    QueueFull {
        /// Tenant whose queue is full.
        tenant: String,
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The shed policy is refusing this job class while system pressure
    /// exceeds the shed threshold.
    Shedding {
        /// Tenant whose job was shed.
        tenant: String,
        /// Queue pressure (0 = idle, 1 = every queue full) at refusal.
        pressure: f64,
    },
    /// The analytic cost estimate says the job cannot finish by its
    /// deadline even if dispatched immediately.
    DeadlineInfeasible {
        /// Estimated execution seconds on the configured partition.
        needed_s: f64,
        /// Seconds remaining until the deadline at arrival.
        available_s: f64,
    },
    /// Admission-time input validation failed: an off-curve point, a
    /// point outside the prime-order subgroup, or a non-canonical
    /// scalar encoding. Garbage is refused at the door instead of
    /// corrupting the engine's group arithmetic silently.
    MalformedInput {
        /// Human-readable description of the first violation
        /// (stable: derived from [`distmsm_ec::InputViolation`]).
        detail: String,
    },
    /// The pod is partitioned from its coordinator (its lease lapsed or
    /// heartbeat responses stopped): it finishes in-flight work in
    /// degraded mode but sheds new arrivals, because any admission now
    /// could be double-placed by the coordinator on a healthy pod.
    PodPartitioned {
        /// Simulated time the pod entered degraded mode.
        since_s: f64,
    },
}

impl AdmissionError {
    /// Short stable label used in events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Self::QueueFull { .. } => "queue-full",
            Self::Shedding { .. } => "shedding",
            Self::DeadlineInfeasible { .. } => "deadline-infeasible",
            Self::MalformedInput { .. } => "malformed-input",
            Self::PodPartitioned { .. } => "pod-partitioned",
        }
    }
}

impl core::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::QueueFull { tenant, capacity } => {
                write!(f, "tenant {tenant}: queue full ({capacity} jobs)")
            }
            Self::Shedding { tenant, pressure } => {
                write!(f, "tenant {tenant}: shedding batch work at pressure {pressure:.2}")
            }
            Self::DeadlineInfeasible { needed_s, available_s } => {
                write!(
                    f,
                    "deadline infeasible: needs {needed_s:.3e}s, {available_s:.3e}s available"
                )
            }
            Self::MalformedInput { detail } => {
                write!(f, "malformed input: {detail}")
            }
            Self::PodPartitioned { since_s } => {
                write!(f, "pod partitioned from coordinator since t={since_s:.3}s")
            }
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Maximum number of queued (admitted, not yet dispatched) jobs per
/// tenant; an arrival past it is refused with
/// [`AdmissionError::QueueFull`].
pub const QUEUE_CAPACITY: usize = 8;

/// One tenant of the service: a named bounded queue of
/// [`QUEUE_CAPACITY`] jobs with a dispatch weight.
#[derive(Clone, Debug)]
pub struct TenantConfig {
    /// Display name (stable across runs; keys the per-tenant report).
    pub name: String,
    /// Dispatch tie-break weight: among jobs with equal effective
    /// deadlines, higher-weight tenants go first.
    pub weight: f64,
}

impl TenantConfig {
    /// A tenant with the given name and weight 1.
    pub fn new(name: &str) -> Self {
        Self { name: name.to_string(), weight: 1.0 }
    }

    /// Sets the dispatch weight.
    #[must_use]
    pub fn with_weight(mut self, w: f64) -> Self {
        self.weight = w;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_error_displays_and_labels() {
        let e = AdmissionError::QueueFull { tenant: "a".into(), capacity: 4 };
        assert_eq!(e.label(), "queue-full");
        assert!(e.to_string().contains("queue full"));
        let e = AdmissionError::Shedding { tenant: "b".into(), pressure: 0.9 };
        assert_eq!(e.label(), "shedding");
        assert!(e.to_string().contains("0.90"));
        let e = AdmissionError::DeadlineInfeasible { needed_s: 2.0, available_s: 1.0 };
        assert_eq!(e.label(), "deadline-infeasible");
        assert!(e.to_string().contains("infeasible"));
        let e = AdmissionError::MalformedInput { detail: "point 3 is not on the curve".into() };
        assert_eq!(e.label(), "malformed-input");
        assert!(e.to_string().contains("point 3"));
        let e = AdmissionError::PodPartitioned { since_s: 12.5 };
        assert_eq!(e.label(), "pod-partitioned");
        assert!(e.to_string().contains("12.5"));
    }

    #[test]
    fn shed_policy_bounds_by_class() {
        use crate::job::JobClass;
        use crate::service::{DEGRADE_PRESSURE, SHED_PRESSURE};
        assert!(JobClass::Interactive.bound_s() < JobClass::Batch.bound_s());
        // dispatch degrades before the door starts shedding
        const { assert!(SHED_PRESSURE > DEGRADE_PRESSURE) };
    }
}
