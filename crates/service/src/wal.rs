//! Crash-consistent write-ahead journaling for the prover service.
//!
//! Every externally visible state change the service makes — admission
//! outcomes, dispatches, requeues, completions, sheds, breaker
//! transitions, and the fleet's steal/absorb queue surgery — is encoded
//! as one [`ServiceRecord`] and appended to a `distmsm-journal`
//! [`DurableState`] *in the same handler that makes the change*. On the
//! simulated clock an append is atomic, so the journal is always a
//! consistent prefix of the service's history; a crash is modelled by
//! truncating the journal bytes at an arbitrary (even mid-frame)
//! boundary and rebuilding from what survived.
//!
//! Three design rules keep recovery exactly-once:
//!
//! * **Atomic compound records.** An arrival and its admission outcome
//!   ride one [`ServiceRecord::Admission`] record, and a completion
//!   event and its result bytes ride one [`ServiceRecord::Completed`]
//!   record. No record boundary can therefore separate a decision from
//!   its effect — a torn write loses the *whole* decision, never half
//!   of it.
//! * **A shadow fold.** The live [`ServiceWal`] (a
//!   [`distmsm_journal::Journaled`]) maintains a [`ServiceState`] by
//!   folding every appended record through its [`Fold::apply`] — the
//!   same function recovery uses. A snapshot is just the encoded
//!   shadow state, so *snapshot ≡ replay* holds by construction (the
//!   crash soak's `crash-replay` invariant checks it at every kill
//!   point).
//! * **Replay-only counters.** Everything the fold tracks (job phases,
//!   tenant counters, breaker spells, completed results) is derivable
//!   from the record stream alone; volatile details that are *not*
//!   journaled (heap order, round-robin cursor, busy horizons) are
//!   exactly the ones a restart may legitimately rebuild differently.
//!
//! Recovery invariants the crash soak checks end to end: every job
//! terminates exactly once across the crash, shed/completed jobs are
//! never resurrected, results stay bit-exact, and recovery cost
//! (snapshot decode + bounded replay) is strictly below re-running the
//! lost history once the journal is long enough.

use std::collections::BTreeMap;

use distmsm_journal::wire::{Blob, ByteReader, ByteWriter, Labels};
use distmsm_journal::{
    decode_records, recover, wire, DurableState, Fold, JournalError, Journaled, Recovery, Wire,
    WireError,
};

use crate::admission::AdmissionError;
use crate::breaker::{probation_for, BreakerState, PoolTransition};
use crate::job::{JobClass, ShedReason};
use crate::service::{ServiceEvent, ServiceEventKind};

/// Modelled fixed cost of opening the durable state on recovery.
pub const RECOVERY_BASE_S: f64 = 5e-3;
/// Modelled cost of folding one replayed journal record.
pub const REPLAY_RECORD_S: f64 = 2e-4;
/// Modelled cost per snapshot byte decoded on recovery.
pub const SNAPSHOT_BYTE_S: f64 = 1e-8;

// ---------------------------------------------------------------------
// the wire format: every tag and field order, declared once
// ---------------------------------------------------------------------

/// The breaker's four `&'static str` transition causes, by wire tag.
const CAUSES: Labels =
    Labels(&["fault-threshold", "probation-elapsed", "probe-success", "probe-fault"]);

wire! { enum JobClass { 0 => Interactive, 1 => Batch } }
wire! { enum ShedReason { 0 => Starvation, 1 => PoolQuarantined } }
wire! { enum BreakerState { 0 => Closed, 1 => Open, 2 => HalfOpen } }
wire! { enum AdmissionError {
    0 => QueueFull { tenant, capacity },
    1 => Shedding { tenant, pressure },
    2 => DeadlineInfeasible { needed_s, available_s },
    3 => MalformedInput { detail },
    4 => PodPartitioned { since_s },
} }
wire! { struct PoolTransition { device, t_s, from, to, cause: CAUSES } }
wire! { enum ServiceEventKind {
    0 => Arrival { class },
    1 => Admitted { queue_len },
    2 => Rejected { error },
    3 => Dispatched { devices, attempt, degraded },
    4 => Requeued { attempt },
    5 => Completed { deadline_met, sojourn_s, attempts },
    6 => Failed { error },
    7 => Shed { reason },
    8 => Breaker { transition },
    9 => Recovered { snapshot_epoch, replayed, requeued, rearrived },
} }
wire! { struct ServiceEvent { t_s, job, tenant, kind } }
wire! { enum AdmissionOutcome { 0 => Admitted { queue_len }, 1 => Rejected { error } } }
wire! { enum ServiceRecord {
    0 => Admission { t_s, id, tenant, class, outcome },
    1 => Event(event),
    2 => Completed { event, result: Blob, used_readmitted },
    3 => Absorbed { t_s, id, tenant, attempt },
    4 => StolenOut { t_s, id, attempt },
} }
wire! { enum JobPhase {
    0 => Queued { attempt, since_s },
    1 => InFlight { attempt },
    2 => Done,
    3 => Rejected,
    4 => Failed,
    5 => Shed,
    6 => StolenAway { attempt },
} }
wire! { struct JobEntry { tenant, phase } }
wire! { struct TenantCounters {
    arrivals, admitted, rejected, completed, failed, shed, deadline_missed, sojourns_s,
} }
wire! { struct BreakerRestore { state, open_spells, open_until_s } }
wire! { struct CompletedEntry { id, tenant, attempts, used_readmitted, result: Blob } }

// ---------------------------------------------------------------------
// records
// ---------------------------------------------------------------------

/// The admission half of an [`ServiceRecord::Admission`] record.
#[derive(Clone, Debug, PartialEq)]
pub enum AdmissionOutcome {
    /// The job joined its tenant queue.
    Admitted {
        /// Queue length after the push.
        queue_len: usize,
    },
    /// The job was refused at the door.
    Rejected {
        /// Why.
        error: AdmissionError,
    },
}

/// One journaled service state change. The journal frame supplies the
/// epoch and timestamp; the payload is this record's canonical byte
/// encoding.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceRecord {
    /// A job arrived *and* its admission outcome was decided — one
    /// atomic record, so truncation can never separate the two.
    Admission {
        /// Simulated arrival-processing time.
        t_s: f64,
        /// Job id.
        id: u64,
        /// Tenant index.
        tenant: usize,
        /// Service class (drives the starvation bound on recovery).
        class: JobClass,
        /// Admitted or rejected, with the event detail.
        outcome: AdmissionOutcome,
    },
    /// Any other service event (dispatch, requeue, failure, shed,
    /// breaker transition, recovery marker).
    Event(ServiceEvent),
    /// A job completed: the event *and* its verified result bytes in
    /// one atomic record, so a torn write can never strand a completion
    /// without its payload (or vice versa).
    Completed {
        /// The `Completed` service event.
        event: ServiceEvent,
        /// Uncompressed canonical encoding of the MSM result point.
        result: Vec<u8>,
        /// Whether the completing partition used a re-admitted device.
        used_readmitted: bool,
    },
    /// A stolen job was absorbed from another pod (no service event is
    /// emitted for this queue surgery, but the fold must see it).
    Absorbed {
        /// Absorption time.
        t_s: f64,
        /// Job id.
        id: u64,
        /// Tenant index.
        tenant: usize,
        /// Preserved execution attempt.
        attempt: u32,
    },
    /// A queued job was lifted out of this pod by the fleet's work
    /// stealing; it must not be resurrected here on recovery. The
    /// attempt rides along so a fleet restore that finds only this
    /// tombstone (the thief's absorption was torn away) can re-absorb
    /// the job elsewhere without resetting its retry budget.
    StolenOut {
        /// Steal time.
        t_s: f64,
        /// Job id.
        id: u64,
        /// Execution attempt the job carried out the door.
        attempt: u32,
    },
}

impl ServiceRecord {
    /// The service events this record witnesses — what
    /// [`decode_events`], and so every service outcome stream the soak
    /// invariants are checked over, is made of.
    pub fn events(&self) -> Vec<ServiceEvent> {
        match self {
            Self::Admission { t_s, id, tenant, class, outcome } => {
                let arrival = ServiceEvent {
                    t_s: *t_s,
                    job: Some(*id),
                    tenant: Some(*tenant),
                    kind: ServiceEventKind::Arrival { class: *class },
                };
                let second = ServiceEvent {
                    t_s: *t_s,
                    job: Some(*id),
                    tenant: Some(*tenant),
                    kind: match outcome {
                        AdmissionOutcome::Admitted { queue_len } => {
                            ServiceEventKind::Admitted { queue_len: *queue_len }
                        }
                        AdmissionOutcome::Rejected { error } => {
                            ServiceEventKind::Rejected { error: error.clone() }
                        }
                    },
                };
                vec![arrival, second]
            }
            Self::Event(ev) => vec![ev.clone()],
            Self::Completed { event, .. } => vec![event.clone()],
            Self::Absorbed { .. } | Self::StolenOut { .. } => Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// the fold
// ---------------------------------------------------------------------

/// Where a journaled job currently stands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum JobPhase {
    /// Waiting in its tenant queue.
    Queued {
        /// Next execution attempt.
        attempt: u32,
        /// When this queue epoch started (preserves the starvation
        /// bound across a restart).
        since_s: f64,
    },
    /// Executing on a partition; a crash loses the execution and the
    /// job re-joins the queue on recovery at the same attempt.
    InFlight {
        /// The attempt that was executing.
        attempt: u32,
    },
    /// Terminal: completed with a verified result.
    Done,
    /// Terminal: refused at admission.
    Rejected,
    /// Terminal: exhausted its attempts.
    Failed,
    /// Terminal: dropped by the shed policy.
    Shed,
    /// Lifted out by fleet work stealing — terminal *for this pod*.
    /// Keeps the attempt so a fleet restore that finds only this
    /// tombstone can re-absorb the job with its retry budget intact.
    StolenAway {
        /// Execution attempt the job carried out the door.
        attempt: u32,
    },
}

/// One journaled job: which tenant it belongs to and where it stands.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JobEntry {
    /// Tenant index.
    pub tenant: usize,
    /// Lifecycle phase.
    pub phase: JobPhase,
}

/// Per-tenant counters — the figures the service report is built from,
/// so a restored service reports continuous statistics.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantCounters {
    /// Jobs that reached the door.
    pub arrivals: u64,
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs rejected at admission.
    pub rejected: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs failed after exhausting attempts.
    pub failed: u64,
    /// Jobs shed from the queue.
    pub shed: u64,
    /// Completions past their deadline.
    pub deadline_missed: u64,
    /// Arrival-to-completion times, in completion order.
    pub sojourns_s: Vec<f64>,
}

/// Per-device breaker state reconstructible from transition records.
/// `consecutive_faults` is deliberately absent: the streak is volatile
/// and resets to zero across a restart.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BreakerRestore {
    /// Current breaker state.
    pub state: BreakerState,
    /// Completed open spells (drives the probation backoff).
    pub open_spells: u32,
    /// When the current open spell's probation elapses.
    pub open_until_s: f64,
}

impl Default for BreakerRestore {
    fn default() -> Self {
        Self { state: BreakerState::Closed, open_spells: 0, open_until_s: 0.0 }
    }
}

/// A durably completed job: id, accounting, and the canonical result
/// bytes (decoded back to a curve point on restore).
#[derive(Clone, Debug, PartialEq)]
pub struct CompletedEntry {
    /// Job id.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Attempts consumed.
    pub attempts: u32,
    /// Whether a re-admitted device served the completion.
    pub used_readmitted: bool,
    /// Uncompressed canonical encoding of the result point.
    pub result: Vec<u8>,
}

/// The deterministic fold of a service journal: everything a restarted
/// pod needs that is not re-derivable from its static inputs.
///
/// `ServiceState` is both the recovery target *and* the shadow state
/// the live [`ServiceWal`] maintains — snapshots are its [`Wire`]
/// encoding, so snapshot-and-replay agree by construction.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceState {
    /// High-water simulated time over applied records.
    pub clock_s: f64,
    /// Epoch of the last applied record (0 = none).
    pub last_epoch: u64,
    /// Every journaled job, by id.
    pub jobs: BTreeMap<u64, JobEntry>,
    /// Per-tenant counters, indexed like the config's tenant table.
    pub tenants: Vec<TenantCounters>,
    /// Per-device breaker restore info.
    pub breakers: Vec<BreakerRestore>,
    /// Durably completed jobs, in completion order.
    pub completed: Vec<CompletedEntry>,
}

impl ServiceState {
    fn bad(epoch: u64, detail: String) -> JournalError {
        JournalError::BadPayload { epoch, detail }
    }

    fn tenant_mut(
        &mut self,
        epoch: u64,
        tenant: usize,
    ) -> Result<&mut TenantCounters, JournalError> {
        let n = self.tenants.len();
        self.tenants
            .get_mut(tenant)
            .ok_or_else(|| Self::bad(epoch, format!("tenant {tenant} out of range (have {n})")))
    }

    fn job_mut(&mut self, epoch: u64, id: u64) -> Result<&mut JobEntry, JournalError> {
        self.jobs
            .get_mut(&id)
            .ok_or_else(|| Self::bad(epoch, format!("record names unknown job {id}")))
    }
}

impl Fold for ServiceState {
    type Record = ServiceRecord;
    type Ctx = ServiceShape;

    fn new(shape: &ServiceShape) -> Self {
        Self {
            clock_s: 0.0,
            last_epoch: 0,
            jobs: BTreeMap::new(),
            tenants: vec![TenantCounters::default(); shape.n_tenants],
            breakers: vec![BreakerRestore::default(); shape.n_devices],
            completed: Vec::new(),
        }
    }

    fn fits(&self, shape: &ServiceShape) -> Result<(), String> {
        if self.tenants.len() == shape.n_tenants && self.breakers.len() == shape.n_devices {
            return Ok(());
        }
        Err(format!(
            "snapshot shape ({} tenants, {} devices) does not match the config \
             ({} tenants, {} devices)",
            self.tenants.len(),
            self.breakers.len(),
            shape.n_tenants,
            shape.n_devices
        ))
    }

    /// Folds one record into the state. Errors are typed, never panics:
    /// a semantically impossible record (unknown job, out-of-range
    /// tenant or device, an event kind that must ride an atomic record)
    /// is a [`JournalError::BadPayload`].
    fn apply(
        &mut self,
        epoch: u64,
        rec: &ServiceRecord,
        _shape: &ServiceShape,
    ) -> Result<(), JournalError> {
        match rec {
            ServiceRecord::Admission { t_s, id, tenant, class: _, outcome } => {
                self.clock_s = self.clock_s.max(*t_s);
                if self.jobs.contains_key(id) {
                    return Err(Self::bad(epoch, format!("job {id} arrived twice")));
                }
                let counters = self.tenant_mut(epoch, *tenant)?;
                counters.arrivals += 1;
                let phase = match outcome {
                    AdmissionOutcome::Admitted { .. } => {
                        counters.admitted += 1;
                        JobPhase::Queued { attempt: 0, since_s: *t_s }
                    }
                    AdmissionOutcome::Rejected { .. } => {
                        counters.rejected += 1;
                        JobPhase::Rejected
                    }
                };
                self.jobs.insert(*id, JobEntry { tenant: *tenant, phase });
            }
            ServiceRecord::Event(ev) => {
                self.clock_s = self.clock_s.max(ev.t_s);
                match &ev.kind {
                    ServiceEventKind::Dispatched { attempt, .. } => {
                        let id = ev
                            .job
                            .ok_or_else(|| Self::bad(epoch, "dispatch without a job".into()))?;
                        self.job_mut(epoch, id)?.phase = JobPhase::InFlight { attempt: *attempt };
                    }
                    ServiceEventKind::Requeued { attempt } => {
                        let id = ev
                            .job
                            .ok_or_else(|| Self::bad(epoch, "requeue without a job".into()))?;
                        let since_s = ev.t_s;
                        self.job_mut(epoch, id)?.phase =
                            JobPhase::Queued { attempt: *attempt, since_s };
                    }
                    ServiceEventKind::Failed { .. } => {
                        let (id, tenant) = ev
                            .job
                            .zip(ev.tenant)
                            .ok_or_else(|| Self::bad(epoch, "failure without a job".into()))?;
                        self.tenant_mut(epoch, tenant)?.failed += 1;
                        self.job_mut(epoch, id)?.phase = JobPhase::Failed;
                    }
                    ServiceEventKind::Shed { .. } => {
                        let (id, tenant) = ev
                            .job
                            .zip(ev.tenant)
                            .ok_or_else(|| Self::bad(epoch, "shed without a job".into()))?;
                        self.tenant_mut(epoch, tenant)?.shed += 1;
                        self.job_mut(epoch, id)?.phase = JobPhase::Shed;
                    }
                    ServiceEventKind::Breaker { transition } => {
                        let n = self.breakers.len();
                        let b = self.breakers.get_mut(transition.device).ok_or_else(|| {
                            Self::bad(
                                epoch,
                                format!("device {} out of range (have {n})", transition.device),
                            )
                        })?;
                        if transition.to == BreakerState::Open {
                            // Mirrors `CircuitBreaker::trip`: probation
                            // is priced off the spell count *before*
                            // this trip increments it.
                            b.open_until_s =
                                transition.t_s + probation_for(b.open_spells);
                            b.open_spells += 1;
                        }
                        b.state = transition.to;
                    }
                    ServiceEventKind::Recovered { .. } => {}
                    ServiceEventKind::Arrival { .. }
                    | ServiceEventKind::Admitted { .. }
                    | ServiceEventKind::Rejected { .. }
                    | ServiceEventKind::Completed { .. } => {
                        return Err(Self::bad(
                            epoch,
                            "admission/completion events must ride their atomic records".into(),
                        ));
                    }
                }
            }
            ServiceRecord::Completed { event, result, used_readmitted } => {
                self.clock_s = self.clock_s.max(event.t_s);
                let ServiceEventKind::Completed { deadline_met, sojourn_s, attempts } = &event.kind
                else {
                    return Err(Self::bad(
                        epoch,
                        "completion record carries a non-completion event".into(),
                    ));
                };
                let (id, tenant) = event
                    .job
                    .zip(event.tenant)
                    .ok_or_else(|| Self::bad(epoch, "completion without a job".into()))?;
                let counters = self.tenant_mut(epoch, tenant)?;
                counters.completed += 1;
                if !deadline_met {
                    counters.deadline_missed += 1;
                }
                counters.sojourns_s.push(*sojourn_s);
                self.job_mut(epoch, id)?.phase = JobPhase::Done;
                self.completed.push(CompletedEntry {
                    id,
                    tenant,
                    attempts: *attempts,
                    used_readmitted: *used_readmitted,
                    result: result.clone(),
                });
            }
            ServiceRecord::Absorbed { t_s, id, tenant, attempt } => {
                self.clock_s = self.clock_s.max(*t_s);
                if *tenant >= self.tenants.len() {
                    return Err(Self::bad(
                        epoch,
                        format!("absorbed job {id} names tenant {tenant} out of range"),
                    ));
                }
                // Overwrite is legal: a job stolen away earlier may be
                // absorbed back during fleet rebalancing.
                self.jobs.insert(
                    *id,
                    JobEntry {
                        tenant: *tenant,
                        phase: JobPhase::Queued { attempt: *attempt, since_s: *t_s },
                    },
                );
            }
            ServiceRecord::StolenOut { t_s, id, attempt } => {
                self.clock_s = self.clock_s.max(*t_s);
                self.job_mut(epoch, *id)?.phase = JobPhase::StolenAway { attempt: *attempt };
            }
        }
        self.last_epoch = epoch;
        Ok(())
    }
}

/// The snapshot payload, hand-laid-out for its leading version byte.
/// Deterministic and canonical: equal states encode to equal bytes
/// (`crash-replay` compares these) and no other bytes decode to them — the
/// job table must arrive in strictly ascending id order.
impl Wire for ServiceState {
    fn put(&self, w: &mut ByteWriter) {
        w.u8(1); // version
        w.f64(self.clock_s).u64(self.last_epoch).usize(self.jobs.len());
        for (id, entry) in &self.jobs {
            w.u64(*id);
            entry.put(w);
        }
        self.tenants.put(w);
        self.breakers.put(w);
        self.completed.put(w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        if r.u8()? != 1 {
            return Err(WireError { offset });
        }
        let clock_s = r.f64()?;
        let last_epoch = r.u64()?;
        let mut jobs = BTreeMap::new();
        for _ in 0..r.usize()? {
            let offset = r.offset();
            let id = r.u64()?;
            if jobs.last_key_value().is_some_and(|(&last, _)| id <= last) {
                return Err(WireError { offset });
            }
            jobs.insert(id, JobEntry::get(r)?);
        }
        Ok(Self {
            clock_s,
            last_epoch,
            jobs,
            tenants: Wire::get(r)?,
            breakers: Wire::get(r)?,
            completed: Wire::get(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// the live WAL and recovery: the journal crate's generic kernel
// ---------------------------------------------------------------------

/// What the fold needs beyond the record stream: the pod's table sizes
/// (the snapshot-shape check).
#[derive(Clone, Copy, Debug)]
pub struct ServiceShape {
    /// Rows of the tenant table.
    pub n_tenants: usize,
    /// Devices in the pool.
    pub n_devices: usize,
}

/// The service's live write-ahead log: a durable journal plus the
/// shadow [`ServiceState`] every append folds through. Journaling is
/// always on (it advances no simulated time; the service's events are
/// read off the records it appends); periodic snapshots are opt-in via
/// [`crate::service::ServiceConfig::snapshot_every`].
pub type ServiceWal = Journaled<ServiceState>;

/// Recovers a [`ServiceState`] from durable bytes: newest intact
/// snapshot plus a bounded replay of the records after it. A torn tail
/// is tolerated (dropped); any complete-but-corrupt frame, stale
/// snapshot or undecodable payload is a typed [`JournalError`].
pub fn recover_state(
    durable: &DurableState,
    shape: &ServiceShape,
) -> Result<Recovery<ServiceState>, JournalError> {
    recover(durable, shape)
}

/// Decodes the full event stream a durable journal witnesses — a
/// service outcome's `events`. A torn tail is dropped first; the whole
/// journal is then replayed from its first record, snapshot ignored
/// (the service WAL never compacts, so the full history is present —
/// snapshots bound recovery *replay* cost, not journal storage).
pub fn decode_events(durable: &DurableState) -> Result<Vec<ServiceEvent>, JournalError> {
    Ok(decode_records::<ServiceRecord>(durable)?.iter().flat_map(ServiceRecord::events).collect())
}

/// Modelled cost of one recovery: opening the durable state, decoding
/// the snapshot it started from and replaying the records after it.
pub fn recovery_cost_s<S>(rec: &Recovery<S>) -> f64 {
    RECOVERY_BASE_S
        + rec.snapshot_payload_bytes as f64 * SNAPSHOT_BYTE_S
        + rec.replayed_records as f64 * REPLAY_RECORD_S
}

/// How a [`crate::service::ProverService::restore`] got back on its
/// feet: the modelled cost comparison against restarting from scratch.
/// What it replayed, requeued and re-seeded is its journaled
/// [`ServiceEventKind::Recovered`] event.
#[derive(Clone, Debug)]
pub struct RecoveryInfo {
    /// Torn frame bytes dropped from the journal tail.
    pub torn_tail_bytes: usize,
    /// Modelled recovery cost ([`recovery_cost_s`]).
    pub recovery_cost_s: f64,
    /// Modelled cost of recomputing the lost history from scratch (the
    /// simulated clock at the crash).
    pub scratch_cost_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::PoolTransition;

    fn ev(t_s: f64, job: Option<u64>, tenant: Option<usize>, kind: ServiceEventKind) -> ServiceEvent {
        ServiceEvent { t_s, job, tenant, kind }
    }

    #[test]
    fn fold_tracks_phases_counters_and_breakers() {
        let shape = ServiceShape { n_tenants: 2, n_devices: 4 };
        let mut st = ServiceState::new(&shape);
        st.apply(
            1,
            &ServiceRecord::Admission {
                t_s: 0.5,
                id: 1,
                tenant: 0,
                class: JobClass::Interactive,
                outcome: AdmissionOutcome::Admitted { queue_len: 1 },
            },
            &shape,
        )
        .unwrap();
        assert_eq!(st.jobs[&1].phase, JobPhase::Queued { attempt: 0, since_s: 0.5 });
        assert_eq!(st.tenants[0].arrivals, 1);
        assert_eq!(st.tenants[0].admitted, 1);

        st.apply(
            2,
            &ServiceRecord::Event(ev(
                1.0,
                Some(1),
                Some(0),
                ServiceEventKind::Dispatched { devices: vec![0], attempt: 0, degraded: false },
            )),
            &shape,
        )
        .unwrap();
        assert_eq!(st.jobs[&1].phase, JobPhase::InFlight { attempt: 0 });

        // Two trips price probation off the pre-trip spell count.
        for (epoch, (t, from, to, cause)) in [
            (3u64, (2.0, BreakerState::Closed, BreakerState::Open, "fault-threshold")),
            (4, (5.0, BreakerState::Open, BreakerState::HalfOpen, "probation-elapsed")),
            (5, (5.5, BreakerState::HalfOpen, BreakerState::Open, "probe-fault")),
        ] {
            st.apply(
                epoch,
                &ServiceRecord::Event(ev(
                    t,
                    None,
                    None,
                    ServiceEventKind::Breaker {
                        transition: PoolTransition { device: 2, t_s: t, from, to, cause },
                    },
                )),
                &shape,
            )
            .unwrap();
        }
        assert_eq!(st.breakers[2].open_spells, 2);
        assert_eq!(st.breakers[2].state, BreakerState::Open);
        assert_eq!(st.breakers[2].open_until_s, 5.5 + probation_for(1));

        st.apply(
            6,
            &ServiceRecord::Completed {
                event: ev(
                    6.0,
                    Some(1),
                    Some(0),
                    ServiceEventKind::Completed {
                        deadline_met: false,
                        sojourn_s: 5.5,
                        attempts: 1,
                    },
                ),
                result: vec![1, 2],
                used_readmitted: false,
            },
            &shape,
        )
        .unwrap();
        assert_eq!(st.jobs[&1].phase, JobPhase::Done);
        assert_eq!(st.tenants[0].completed, 1);
        assert_eq!(st.tenants[0].deadline_missed, 1);
        assert_eq!(st.completed.len(), 1);
        assert_eq!(st.last_epoch, 6);
        assert_eq!(st.clock_s, 6.0);

        // Canonical encoding roundtrips byte-exactly.
        let bytes = st.to_bytes();
        let decoded = ServiceState::from_bytes(&bytes).expect("snapshot roundtrips");
        assert_eq!(decoded, st);
        assert_eq!(decoded.to_bytes(), bytes);
    }

    #[test]
    fn fold_rejects_semantic_garbage() {
        let shape = ServiceShape { n_tenants: 1, n_devices: 1 };
        let mut st = ServiceState::new(&shape);
        // Unknown job.
        assert!(matches!(
            st.apply(1, &ServiceRecord::StolenOut { t_s: 0.0, id: 9, attempt: 0 }, &shape),
            Err(JournalError::BadPayload { .. })
        ));
        // Out-of-range tenant.
        assert!(matches!(
            st.apply(
                1,
                &ServiceRecord::Admission {
                    t_s: 0.0,
                    id: 1,
                    tenant: 5,
                    class: JobClass::Batch,
                    outcome: AdmissionOutcome::Admitted { queue_len: 1 },
                },
                &shape
            ),
            Err(JournalError::BadPayload { .. })
        ));
        // A bare Admitted event outside its atomic record.
        assert!(matches!(
            st.apply(
                1,
                &ServiceRecord::Event(ev(
                    0.0,
                    Some(1),
                    Some(0),
                    ServiceEventKind::Admitted { queue_len: 1 }
                )),
                &shape
            ),
            Err(JournalError::BadPayload { .. })
        ));
    }

    #[test]
    fn wal_snapshot_equals_fold_and_recovery_replays_it() {
        let shape = ServiceShape { n_tenants: 2, n_devices: 2 };
        let mut wal = ServiceWal::new(shape, 2);
        let recs = vec![
            ServiceRecord::Admission {
                t_s: 0.1,
                id: 1,
                tenant: 0,
                class: JobClass::Interactive,
                outcome: AdmissionOutcome::Admitted { queue_len: 1 },
            },
            ServiceRecord::Event(ev(
                0.2,
                Some(1),
                Some(0),
                ServiceEventKind::Dispatched { devices: vec![0], attempt: 0, degraded: false },
            )),
            ServiceRecord::Admission {
                t_s: 0.3,
                id: 2,
                tenant: 1,
                class: JobClass::Batch,
                outcome: AdmissionOutcome::Admitted { queue_len: 1 },
            },
            ServiceRecord::Completed {
                event: ev(
                    0.4,
                    Some(1),
                    Some(0),
                    ServiceEventKind::Completed { deadline_met: true, sojourn_s: 0.3, attempts: 1 },
                ),
                result: vec![7, 7],
                used_readmitted: false,
            },
        ];
        for r in &recs {
            let t = match r {
                ServiceRecord::Admission { t_s, .. } => *t_s,
                ServiceRecord::Event(e) | ServiceRecord::Completed { event: e, .. } => e.t_s,
                ServiceRecord::Absorbed { t_s, .. } | ServiceRecord::StolenOut { t_s, .. } => *t_s,
            };
            wal.append(t, r);
        }
        // Recovery = snapshot (epoch 4) + 0 replayed records here.
        let rec = recover_state(wal.durable(), &shape).expect("clean log recovers");
        assert_eq!(&rec.state, wal.state(), "snapshot + replay equals the live shadow fold");
        assert_eq!(rec.snapshot_epoch, 4);
        assert_eq!(rec.replayed_records, 0);

        // Truncating between records replays the un-snapshotted suffix
        // and still agrees with an incremental fold.
        let crashed = wal.durable().truncate_records(3);
        let rec3 = recover_state(&crashed, &shape).expect("prefix recovers");
        assert_eq!(rec3.snapshot_epoch, 2);
        assert_eq!(rec3.replayed_records, 1);
        let mut byhand = ServiceState::new(&shape);
        for (i, r) in recs[..3].iter().enumerate() {
            byhand.apply(i as u64 + 1, r, &shape).unwrap();
        }
        assert_eq!(rec3.state, byhand);

        // The decoded event stream is the Admission/Completed expansion.
        let events = decode_events(&crashed).expect("events decode");
        assert_eq!(events.len(), 5, "2 admissions × 2 events + 1 dispatch");
        assert!(matches!(events[0].kind, ServiceEventKind::Arrival { .. }));
        assert!(matches!(events[1].kind, ServiceEventKind::Admitted { .. }));
    }
}
