//! Proof jobs as the service sees them: an MSM instance plus the
//! scheduling metadata (tenant, class, arrival, deadline) the admission
//! controller and dispatcher key on.

use distmsm_ec::{Curve, MsmInstance};

/// Service class of a job: decides its starvation bound
/// ([`JobClass::bound_s`]) and whether the shed policy may drop it at the
/// door under overload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobClass {
    /// Latency-sensitive (a user waiting on a proof): short starvation
    /// bound, never shed at admission while the queue has room.
    Interactive,
    /// Throughput work (batch proving, witness pre-computation): long
    /// starvation bound, first to be shed under pressure.
    Batch,
}

/// Starvation bound for interactive jobs, seconds of continuous queue
/// wait.
pub const INTERACTIVE_BOUND_S: f64 = 2.0;
/// Starvation bound for batch jobs, seconds of continuous queue wait.
pub const BATCH_BOUND_S: f64 = 30.0;

impl JobClass {
    /// Short stable label used in events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Interactive => "interactive",
            Self::Batch => "batch",
        }
    }

    /// The starvation bound for this class, in seconds: a queued job is
    /// shed once one queue epoch outlasts it.
    pub fn bound_s(self) -> f64 {
        match self {
            Self::Interactive => INTERACTIVE_BOUND_S,
            Self::Batch => BATCH_BOUND_S,
        }
    }
}

/// Why a previously-admitted job was shed instead of served.
///
/// Jobs refused *at the door* carry an
/// [`crate::admission::AdmissionError`] instead; a `ShedReason` always
/// names a job the service had accepted responsibility for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShedReason {
    /// The job sat queued past its class's starvation bound while the
    /// pool served other work.
    Starvation,
    /// The job sat queued past its starvation bound while **every**
    /// device breaker was open — there was nothing to serve it with.
    PoolQuarantined,
}

impl ShedReason {
    /// Short stable label used in events and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Self::Starvation => "starvation",
            Self::PoolQuarantined => "pool-quarantined",
        }
    }
}

/// One proof job submitted to the service.
#[derive(Clone, Debug)]
pub struct JobSpec<C: Curve> {
    /// Caller-chosen id, unique within a run.
    pub id: u64,
    /// Index into the service's tenant table.
    pub tenant: usize,
    /// Service class (starvation bound, shed priority).
    pub class: JobClass,
    /// Arrival time on the simulated clock, seconds.
    pub arrival_s: f64,
    /// Optional absolute completion deadline, simulated seconds.
    /// Admission rejects jobs whose analytic estimate cannot meet it.
    pub deadline_s: Option<f64>,
    /// The MSM to execute.
    pub instance: MsmInstance<C>,
}
