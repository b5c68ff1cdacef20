//! The multi-tenant prover front-end: a deterministic discrete-event
//! loop on the simulated clock that admits, queues, dispatches, retries
//! and sheds MSM jobs against a health-gated device pool.
//!
//! Everything is simulated time: arrivals come stamped, executions take
//! the engine's modelled duration, and the event heap orders
//! (time, sequence) pairs — two runs with the same inputs produce
//! byte-identical event streams.

use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};

use distmsm::engine::{DistMsm, MsmError, MsmReport};
use distmsm::CurveDesc;
use distmsm_ec::{Curve, XyzzPoint};
use distmsm_gpu_sim::MultiGpuSystem;

use distmsm_journal::{DurableState, JournalError};

use crate::admission::{AdmissionError, TenantConfig};
use crate::breaker::{CircuitBreaker, PoolTransition};
use crate::chaos::ChaosSchedule;
use crate::job::{JobClass, JobSpec, ShedReason};
use crate::pool::DevicePool;
use crate::report::{ServiceReport, TenantStats};
use crate::wal::{
    self, AdmissionOutcome, JobPhase, RecoveryInfo, ServiceRecord, ServiceShape, ServiceState,
    ServiceWal,
};

// The explicit load-shed policy: *when* the service starts refusing
// work and *what* it refuses, instead of silent drops. Pressure is total
// queued jobs over total queue capacity, in `[0, 1]`; the starvation
// bounds are [`JobClass::bound_s`].

/// Pressure at or above which batch-class jobs are refused at the door
/// ([`AdmissionError::Shedding`]). Interactive jobs are never door-shed;
/// their protection is the queue bound itself.
pub const SHED_PRESSURE: f64 = 0.75;
/// Pressure at or above which dispatch trades latency for survival: jobs
/// run on [`DEGRADED_GPUS_PER_JOB`] devices so more jobs run
/// concurrently.
pub const DEGRADE_PRESSURE: f64 = 0.5;
/// Partition size once pressure crosses [`DEGRADE_PRESSURE`] — smaller
/// partitions mean more jobs run concurrently: latency traded for
/// survival.
pub const DEGRADED_GPUS_PER_JOB: usize = 1;
/// Service-level execution attempts per job (1 = no retry).
pub const MAX_ATTEMPTS: u32 = 3;
/// Straggler SLA forwarded to the engine.
pub const STRAGGLER_SLA: f64 = 3.0;

/// Configuration of the service front-end. Admission always validates a
/// job's MSM inputs (on-curve, prime-subgroup, canonical scalars),
/// refusing garbage with [`AdmissionError::MalformedInput`] instead of
/// feeding it to the engine.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Devices in the shared pool.
    pub n_devices: usize,
    /// Partition size for a normal dispatch.
    pub gpus_per_job: usize,
    /// The tenants sharing the pool.
    pub tenants: Vec<TenantConfig>,
    /// Pippenger window size every dispatch uses.
    pub window_size: u32,
    /// Install a journal snapshot every this many records (0 disables
    /// snapshotting; recovery then replays the whole journal). The
    /// journal itself is always on.
    pub snapshot_every: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            n_devices: 16,
            gpus_per_job: 4,
            tenants: vec![
                TenantConfig::new("alice").with_weight(2.0),
                TenantConfig::new("bob"),
            ],
            window_size: 8,
            snapshot_every: 0,
        }
    }
}

impl ServiceConfig {
    /// What the journal fold needs of this configuration: the table
    /// sizes a snapshot must match.
    pub fn shape(&self) -> ServiceShape {
        ServiceShape { n_tenants: self.tenants.len(), n_devices: self.n_devices }
    }
}

/// What happened, when, to which job — the service's replayable event
/// stream. Every invariant the soak and the `SVC-00x` analyzer rules
/// check is a property of this stream.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceEventKind {
    /// A job arrived at the door.
    Arrival {
        /// Its service class.
        class: JobClass,
    },
    /// The job passed admission and joined its tenant queue.
    Admitted {
        /// Queue length after the push.
        queue_len: usize,
    },
    /// The job was refused at the door.
    Rejected {
        /// Why.
        error: AdmissionError,
    },
    /// The job started executing on a partition.
    Dispatched {
        /// Global device ids of the partition, ascending.
        devices: Vec<usize>,
        /// Service-level attempt (0 = first).
        attempt: u32,
        /// True when the pressure-degraded partition size was used.
        degraded: bool,
    },
    /// A failed attempt re-joined the queue for another try.
    Requeued {
        /// The attempt the job will run next.
        attempt: u32,
    },
    /// The job finished with a verified result.
    Completed {
        /// Whether it met its deadline (true when it had none).
        deadline_met: bool,
        /// Arrival-to-completion time, seconds.
        sojourn_s: f64,
        /// Attempts consumed (1 = no retry needed).
        attempts: u32,
    },
    /// The job exhausted its attempts.
    Failed {
        /// Display form of the final [`MsmError`].
        error: String,
    },
    /// The admitted job was dropped by the shed policy.
    Shed {
        /// Why.
        reason: ShedReason,
    },
    /// A device breaker changed state.
    Breaker {
        /// The transition.
        transition: PoolTransition,
    },
    /// The service restarted from durable state (journal + snapshot).
    /// Emitted once, first thing after a [`ProverService::restore`].
    Recovered {
        /// Epoch of the snapshot recovery started from (0 = none).
        snapshot_epoch: u64,
        /// Journal records replayed on top of the snapshot.
        replayed: u64,
        /// Queued or in-flight jobs put back on a queue.
        requeued: u64,
        /// Jobs whose arrival was not yet durable, re-seeded.
        rearrived: u64,
    },
}

/// One timestamped service event.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceEvent {
    /// Simulated time.
    pub t_s: f64,
    /// Job the event concerns (`None` for pool-level events).
    pub job: Option<u64>,
    /// Tenant index (`None` for pool-level events).
    pub tenant: Option<usize>,
    /// What happened.
    pub kind: ServiceEventKind,
}

/// A completed job's verifiable outcome, kept separately from the
/// event stream so soaks can check bit-exactness against a reference.
#[derive(Clone, Debug)]
pub struct CompletedJob<C: Curve> {
    /// Job id.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// The MSM value the service returned.
    pub result: XyzzPoint<C>,
    /// Attempts consumed.
    pub attempts: u32,
    /// True when the completing partition contained a device that had
    /// previously been quarantined (breaker tripped at least once) —
    /// the re-admission path the cross-curve proptest pins.
    pub used_readmitted_device: bool,
}

/// Everything one [`ProverService::run`] produces.
#[derive(Clone, Debug)]
pub struct ServiceOutcome<C: Curve> {
    /// Aggregated per-tenant and pool statistics.
    pub report: ServiceReport,
    /// The full replayable event stream, in emission order.
    pub events: Vec<ServiceEvent>,
    /// Verified results of every completed job.
    pub completed: Vec<CompletedJob<C>>,
}

/// A queued job lifted out of one service's queue for absorption by
/// another — the fleet work-stealing carrier. The attempt counter rides
/// along so retry budgets are preserved across pods; the queue epoch is
/// restarted by the absorbing pod.
#[derive(Clone, Debug)]
pub struct StolenJob<C: Curve> {
    /// The job.
    pub spec: JobSpec<C>,
    /// Next execution attempt (preserved across the steal).
    pub attempt: u32,
    /// The effective EDF deadline it was stolen under (explicit
    /// deadline, else queue-epoch start plus class bound).
    pub effective_deadline_s: f64,
}

/// A job waiting in its tenant queue.
#[derive(Clone, Debug)]
struct QueuedJob<C: Curve> {
    spec: JobSpec<C>,
    /// Next execution attempt.
    attempt: u32,
    /// When this queue epoch started (admission or requeue).
    enqueued_s: f64,
    /// When this epoch's starvation bound expires.
    expire_s: f64,
}

/// A job currently executing.
#[derive(Debug)]
struct InFlight<C: Curve> {
    spec: JobSpec<C>,
    attempt: u32,
    devices: Vec<usize>,
    outcome: Result<MsmReport<C>, MsmError>,
    used_readmitted_device: bool,
}

/// Heap entry: the service's future work.
#[derive(Clone, Debug, PartialEq)]
enum PendingKind {
    /// Index into the sorted arrival vector.
    Arrival(usize),
    /// An in-flight job finishes.
    Completion(u64),
    /// A queued job's starvation bound may have expired.
    Expire(u64),
    /// A breaker probation window may have elapsed.
    Poll,
}

#[derive(Clone, Debug, PartialEq)]
struct Pending {
    t_s: f64,
    seq: u64,
    kind: PendingKind,
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.t_s
            .total_cmp(&other.t_s)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The multi-tenant prover front-end.
pub struct ProverService<C: Curve> {
    config: ServiceConfig,
    pool: DevicePool,
    queues: Vec<VecDeque<QueuedJob<C>>>,
    in_flight: BTreeMap<u64, InFlight<C>>,
    heap: std::collections::BinaryHeap<Reverse<Pending>>,
    seq: u64,
    clock_s: f64,
    /// The events the journaled records witness, in record order — only
    /// [`Self::record`] adds to it.
    events: Vec<ServiceEvent>,
    completed: Vec<CompletedJob<C>>,
    /// Round-robin placement cursor: the device id the next dispatch
    /// starts filling from, so traffic spreads across the pool instead
    /// of pinning the lowest ids.
    rr_cursor: usize,
    curve: CurveDesc,
    /// Fault-free engine on a normal-size partition, used to price
    /// deadline feasibility at admission.
    admission_engine: DistMsm,
    /// The sorted arrival trace [`Self::begin`] seeded, indexed by
    /// `PendingKind::Arrival`.
    arrivals: Vec<JobSpec<C>>,
    /// The always-on write-ahead journal: every state change is
    /// appended in the handler that makes it, so a crash (journal
    /// truncation) always preserves a consistent history prefix.
    wal: ServiceWal,
    /// `Some(t)` while the pod believes it is partitioned from its
    /// coordinator (heartbeat responses stopped at `t`). In degraded
    /// mode the pod keeps executing admitted work — completions are
    /// journaled locally and reconciled at rejoin — but sheds new
    /// arrivals with [`AdmissionError::PodPartitioned`].
    partitioned_since_s: Option<f64>,
}

impl<C: Curve> ProverService<C> {
    /// A service over a fresh pool.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is degenerate (no tenants, no
    /// devices, a zero partition size).
    pub fn new(config: ServiceConfig) -> Self {
        assert!(!config.tenants.is_empty(), "service needs at least one tenant");
        assert!(config.n_devices > 0, "service needs at least one device");
        assert!(config.gpus_per_job > 0, "partition sizes must be positive");
        let pool = DevicePool::new(config.n_devices);
        let queues = config.tenants.iter().map(|_| VecDeque::new()).collect();
        let k = config.gpus_per_job.min(config.n_devices);
        let admission_engine = DistMsm::with_config(
            MultiGpuSystem::dgx_a100(k),
            Self::engine_config(&config, distmsm_gpu_sim::FaultPlan::none())
                .expect("service engine config is valid"),
        );
        let wal = ServiceWal::new(config.shape(), config.snapshot_every);
        Self {
            config,
            pool,
            queues,
            in_flight: BTreeMap::new(),
            heap: std::collections::BinaryHeap::new(),
            seq: 0,
            clock_s: 0.0,
            events: Vec::new(),
            completed: Vec::new(),
            rr_cursor: 0,
            curve: CurveDesc::of::<C>(),
            admission_engine,
            arrivals: Vec::new(),
            wal,
            partitioned_since_s: None,
        }
    }

    fn engine_config(
        config: &ServiceConfig,
        plan: distmsm_gpu_sim::FaultPlan,
    ) -> Result<distmsm::DistMsmConfig, distmsm::ConfigError> {
        distmsm::DistMsmConfig::builder()
            .window_size(config.window_size)
            .fault_plan(plan)
            .straggler_sla(STRAGGLER_SLA)
            .build()
    }

    /// The pool (breaker states) as of now.
    pub fn pool(&self) -> &DevicePool {
        &self.pool
    }

    /// Rebuilds a service from durable state after a crash: newest
    /// intact snapshot + bounded journal replay, then re-queue what was
    /// live and re-seed what was never durably admitted.
    ///
    /// `jobs` is the full arrival trace (plus any fleet-absorbed specs)
    /// — the journal stores job *state*, not instances, so every
    /// non-terminal journaled job must have its spec here. `config`
    /// must match the crashed service's (tenant table and device count
    /// are validated against the snapshot shape).
    ///
    /// Semantics, checked end to end by the crash soak:
    ///
    /// * Jobs with a durable terminal record (completed, failed, shed,
    ///   rejected, stolen-away) are **never** resurrected.
    /// * Queued jobs re-enqueue with their original queue-epoch start,
    ///   so the starvation bound keeps counting across the crash.
    /// * In-flight jobs lost their execution: they re-join the queue at
    ///   the same attempt under a fresh epoch, with a `Requeued` event.
    /// * Jobs with no durable admission record re-arrive and have
    ///   admission decided afresh.
    /// * Breakers restore from transition records; completed results
    ///   decode back bit-exactly from their canonical bytes.
    ///
    /// # Errors
    ///
    /// Any corrupt durable state — CRC mismatch, missing/duplicate
    /// epoch, stale snapshot, undecodable payload, or a live job whose
    /// spec is missing from `jobs` — is a typed [`JournalError`]; a
    /// torn tail alone is tolerated and dropped.
    ///
    /// # Panics
    ///
    /// Panics when `config` itself is degenerate, exactly as
    /// [`Self::new`] does.
    pub fn restore(
        config: ServiceConfig,
        jobs: &[JobSpec<C>],
        durable: &DurableState,
    ) -> Result<(Self, RecoveryInfo), JournalError> {
        let shape = config.shape();
        let rec = wal::recover_state(durable, &shape)?;
        let snapshot_every = config.snapshot_every;
        let mut svc = Self::new(config);
        let state = rec.state;
        svc.clock_s = state.clock_s;
        svc.pool = DevicePool::restore(
            state
                .breakers
                .iter()
                .map(|b| CircuitBreaker::restore(b.state, b.open_spells, b.open_until_s))
                .collect(),
        );
        for e in &state.completed {
            let affine = distmsm_ec::serialize::point_from_uncompressed::<C>(&e.result)
                .ok_or_else(|| JournalError::BadPayload {
                    epoch: state.last_epoch,
                    detail: format!("completed job {} carries an undecodable result point", e.id),
                })?;
            svc.completed.push(CompletedJob {
                id: e.id,
                tenant: e.tenant,
                result: affine.to_xyzz(),
                attempts: e.attempts,
                used_readmitted_device: e.used_readmitted,
            });
        }

        // Continue the journal from the reopened (torn-tail-free) log.
        svc.wal = ServiceWal::resume(durable.reopen()?, state.clone(), shape, snapshot_every);

        let spec_by_id: BTreeMap<u64, &JobSpec<C>> = jobs.iter().map(|j| (j.id, j)).collect();
        let live_spec = |id: u64| {
            spec_by_id.get(&id).copied().ok_or_else(|| JournalError::BadPayload {
                epoch: state.last_epoch,
                detail: format!("journaled job {id} is live at recovery but has no spec"),
            })
        };
        let mut requeued = 0u64;
        for (&id, entry) in &state.jobs {
            match entry.phase {
                JobPhase::Queued { attempt, since_s } => {
                    let spec = live_spec(id)?;
                    let bound = spec.class.bound_s();
                    // The original queue epoch survives the crash, so
                    // the starvation bound keeps counting.
                    let expire_s = since_s + bound;
                    svc.queues[entry.tenant].push_back(QueuedJob {
                        spec: spec.clone(),
                        attempt,
                        enqueued_s: since_s,
                        expire_s,
                    });
                    svc.push_pending(expire_s.max(svc.clock_s), PendingKind::Expire(id));
                    requeued += 1;
                }
                JobPhase::InFlight { attempt } => {
                    let spec = live_spec(id)?;
                    // The execution died with the pod: back to the
                    // queue at the same attempt, fresh epoch.
                    let bound = spec.class.bound_s();
                    let expire_s = svc.clock_s + bound;
                    svc.record_event(
                        Some(id),
                        Some(entry.tenant),
                        ServiceEventKind::Requeued { attempt },
                    );
                    svc.queues[entry.tenant].push_back(QueuedJob {
                        spec: spec.clone(),
                        attempt,
                        enqueued_s: svc.clock_s,
                        expire_s,
                    });
                    svc.push_pending(expire_s, PendingKind::Expire(id));
                    requeued += 1;
                }
                JobPhase::Done
                | JobPhase::Rejected
                | JobPhase::Failed
                | JobPhase::Shed
                | JobPhase::StolenAway { .. } => {}
            }
        }

        // Jobs the journal never saw re-arrive and re-run admission.
        let rearrive: Vec<JobSpec<C>> = jobs
            .iter()
            .filter(|j| !state.jobs.contains_key(&j.id))
            .cloned()
            .collect();
        let rearrived = rearrive.len() as u64;
        svc.begin(rearrive);

        svc.record_event(
            None,
            None,
            ServiceEventKind::Recovered {
                snapshot_epoch: rec.snapshot_epoch,
                replayed: rec.replayed_records,
                requeued,
                rearrived,
            },
        );
        svc.instant(
            "recovery:restored",
            vec![
                ("snapshot_epoch".into(), rec.snapshot_epoch.to_string()),
                ("replayed".into(), rec.replayed_records.to_string()),
                ("requeued".into(), requeued.to_string()),
                ("rearrived".into(), rearrived.to_string()),
            ],
        );

        let info = RecoveryInfo {
            snapshot_epoch: rec.snapshot_epoch,
            replayed_records: rec.replayed_records,
            torn_tail_bytes: rec.torn_tail_bytes,
            requeued_jobs: requeued,
            rearrived_jobs: rearrived,
            recovery_cost_s: wal::RECOVERY_BASE_S
                + rec.snapshot_payload_bytes as f64 * wal::SNAPSHOT_BYTE_S
                + rec.replayed_records as f64 * wal::REPLAY_RECORD_S,
            scratch_cost_s: state.clock_s,
        };
        Ok((svc, info))
    }

    fn push_pending(&mut self, t_s: f64, kind: PendingKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Pending { t_s, seq, kind }));
    }

    /// Journals one state change and takes the service events it
    /// witnesses from the record itself ([`ServiceRecord::events`]), so
    /// the event stream is a view over the journal by construction.
    fn record(&mut self, t_s: f64, rec: ServiceRecord) {
        self.wal.append(t_s, &rec);
        self.events.extend(rec.events());
    }

    /// Records an event that is itself the atomic unit of a state change
    /// (dispatch, requeue, failure, shed, breaker, recovery marker) as a
    /// [`ServiceRecord::Event`]. Admission and completion instead ride
    /// their compound records.
    fn record_event(&mut self, job: Option<u64>, tenant: Option<usize>, kind: ServiceEventKind) {
        let event = ServiceEvent { t_s: self.clock_s, job, tenant, kind };
        self.record(self.clock_s, ServiceRecord::Event(event));
    }

    /// The durable journal + snapshot bytes — what a simulated crash
    /// preserves and [`Self::restore`] rebuilds from.
    pub fn durable(&self) -> &DurableState {
        self.wal.durable()
    }

    /// The WAL's shadow fold of everything journaled so far (the
    /// `CKPT-001` rule compares this against a from-scratch replay).
    pub fn wal_state(&self) -> &ServiceState {
        self.wal.state()
    }

    /// Emits a telemetry instant on the `service` lane (no-op unless a
    /// session is active).
    fn instant(&self, name: &str, args: Vec<(String, String)>) {
        if distmsm_telemetry::session::active() {
            distmsm_telemetry::session::push_instant(distmsm_telemetry::Instant {
                name: name.to_string(),
                cat: "service".to_string(),
                lane: distmsm_telemetry::Lane::Service,
                t_s: self.clock_s,
                args,
            });
        }
    }

    fn record_transitions(&mut self, transitions: Vec<PoolTransition>) {
        for t in transitions {
            self.instant(
                &format!("breaker:{}", t.to.label()),
                vec![
                    ("device".into(), t.device.to_string()),
                    ("from".into(), t.from.label().into()),
                    ("cause".into(), t.cause.into()),
                ],
            );
            self.record_event(None, None, ServiceEventKind::Breaker { transition: t });
        }
    }

    fn total_queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Wakes the loop when an open breaker's probation elapses — but
    /// only while jobs are actually waiting. With empty queues there is
    /// nothing a probation end could unblock (later arrivals poll the
    /// pool themselves), and an unconditional wake would flip an idle
    /// quarantined device to half-open right at the end of a run.
    fn wake_at_probation_end(&mut self) {
        if self.total_queued() == 0 {
            return;
        }
        if let Some(end) = self.pool.next_probation_end() {
            if end > self.clock_s {
                self.push_pending(end, PendingKind::Poll);
            }
        }
    }

    /// Total queued jobs over total queue capacity, in `[0, 1]`.
    fn pressure(&self) -> f64 {
        let queued = self.total_queued();
        let capacity: usize = self.config.tenants.iter().map(|t| t.queue_capacity).sum();
        if capacity == 0 {
            1.0
        } else {
            (queued as f64 / capacity as f64).min(1.0)
        }
    }

    /// Runs the service to completion over a set of stamped jobs under a
    /// chaos schedule: every event is processed in simulated-time order
    /// until nothing is pending, so every admitted job has terminated
    /// when this returns.
    ///
    /// # Panics
    ///
    /// Panics when a job names a tenant outside the configured table.
    pub fn run(&mut self, jobs: Vec<JobSpec<C>>, chaos: &ChaosSchedule) -> ServiceOutcome<C> {
        self.begin(jobs);
        while self.step(chaos) {}
        self.finish()
    }

    /// Seeds the arrival trace without running: sorts and validates the
    /// jobs and schedules their arrival events. The stepping half of
    /// [`Self::run`], exposed so a fleet layer can interleave several
    /// pods' event loops on one global clock.
    ///
    /// # Panics
    ///
    /// Panics when a job names a tenant outside the configured table.
    pub fn begin(&mut self, mut jobs: Vec<JobSpec<C>>) {
        jobs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        for job in &jobs {
            assert!(
                job.tenant < self.config.tenants.len(),
                "job {} names unknown tenant {}",
                job.id,
                job.tenant
            );
        }
        let base = self.arrivals.len();
        for (i, job) in jobs.iter().enumerate() {
            self.push_pending(job.arrival_s, PendingKind::Arrival(base + i));
        }
        self.arrivals.extend(jobs);
    }

    /// Simulated time of the next pending event, if any — the fleet
    /// interleaver's merge key.
    pub fn next_time(&self) -> Option<f64> {
        self.heap.peek().map(|Reverse(p)| p.t_s)
    }

    /// The service's current simulated clock.
    pub fn clock_s(&self) -> f64 {
        self.clock_s
    }

    /// Processes exactly one pending event (and any dispatches it
    /// unblocks). Returns `false` when nothing is pending — the pod is
    /// idle until new work is seeded or absorbed.
    pub fn step(&mut self, chaos: &ChaosSchedule) -> bool {
        let Some(Reverse(p)) = self.heap.pop() else { return false };
        self.clock_s = self.clock_s.max(p.t_s);
        match p.kind {
            PendingKind::Arrival(i) => {
                let job = self.arrivals[i].clone();
                self.on_arrival(job);
            }
            PendingKind::Completion(id) => self.on_completion(id),
            PendingKind::Expire(id) => self.on_expire(id),
            PendingKind::Poll => {}
        }
        self.try_dispatch(chaos);
        true
    }

    /// Builds the outcome after stepping has drained: report plus the
    /// event stream and completed-job results accumulated so far.
    pub fn finish(&mut self) -> ServiceOutcome<C> {
        let events = std::mem::take(&mut self.events);
        ServiceOutcome {
            report: self.build_report(&events),
            events,
            completed: std::mem::take(&mut self.completed),
        }
    }

    /// Takes the completions accumulated since the last drain — the
    /// fleet coordinator's per-step checkpoint, where each result meets
    /// its 2G2T outsourcing check before being accepted. A service run
    /// standalone never drains, so [`Self::finish`] still returns the
    /// full completion list.
    pub fn drain_completed(&mut self) -> Vec<CompletedJob<C>> {
        std::mem::take(&mut self.completed)
    }

    /// Jobs currently waiting across all tenant queues.
    pub fn queued_jobs(&self) -> usize {
        self.total_queued()
    }

    /// True when a dispatch right now could be placed on at least one
    /// idle, non-open device — the fleet's "has spare capacity" probe.
    pub fn has_free_capacity(&self) -> bool {
        let (closed, half_open) = self.pool.allocatable(self.clock_s);
        !closed.is_empty() || !half_open.is_empty()
    }

    /// Fault-free estimated execution seconds for an `n`-point job on a
    /// normal-size partition — the price the fleet's placement and
    /// admission decisions are made against.
    pub fn estimate_job_seconds(&self, n: usize) -> f64 {
        self.admission_engine.estimate_seconds(n, &self.curve)
    }

    /// Effective EDF deadline of the job [`Self::steal_earliest`] would
    /// take, without removing it.
    pub fn earliest_effective_deadline(&self) -> Option<f64> {
        self.find_edf().map(|(eff, _, _)| eff)
    }

    /// Removes and returns the queued job with the globally earliest
    /// effective deadline — the victim half of fleet work stealing.
    /// The job's attempt counter rides along; its queue epoch (and
    /// starvation bound) restarts at the absorbing pod. The stale
    /// expire event left in this service's heap is harmless: expiry
    /// checks queue membership.
    pub fn steal_earliest(&mut self) -> Option<StolenJob<C>> {
        let (eff, tenant, pos) = self.find_edf()?;
        let q = self.queues[tenant].remove(pos)?;
        // Journal the steal so recovery never resurrects a job another
        // pod now owns. The record witnesses no service event.
        self.record(
            self.clock_s,
            ServiceRecord::StolenOut { t_s: self.clock_s, id: q.spec.id, attempt: q.attempt },
        );
        Some(StolenJob { spec: q.spec, attempt: q.attempt, effective_deadline_s: eff })
    }

    /// Absorbs a job stolen from another pod: enqueues it under a fresh
    /// queue epoch at `now_s` and immediately tries to dispatch. The
    /// thief's clock advances to the steal time so the dispatch cannot
    /// be stamped in its past.
    ///
    /// # Panics
    ///
    /// Panics when the job names a tenant outside this pod's table —
    /// fleet pods must share one tenant table.
    pub fn absorb_stolen(&mut self, stolen: StolenJob<C>, now_s: f64, chaos: &ChaosSchedule) {
        let tenant = stolen.spec.tenant;
        assert!(
            tenant < self.config.tenants.len(),
            "stolen job {} names unknown tenant {tenant}",
            stolen.spec.id
        );
        self.clock_s = self.clock_s.max(now_s);
        let bound = stolen.spec.class.bound_s();
        let expire_s = self.clock_s + bound;
        let id = stolen.spec.id;
        self.record(
            self.clock_s,
            ServiceRecord::Absorbed { t_s: self.clock_s, id, tenant, attempt: stolen.attempt },
        );
        self.queues[tenant].push_back(QueuedJob {
            spec: stolen.spec,
            attempt: stolen.attempt,
            enqueued_s: self.clock_s,
            expire_s,
        });
        self.push_pending(expire_s, PendingKind::Expire(id));
        self.try_dispatch(chaos);
    }

    /// Marks the pod partitioned from its coordinator as of `now_s`
    /// (idempotent: the first degradation instant is kept). Called by
    /// the membership layer when a heartbeat round-trip fails.
    pub fn set_partitioned(&mut self, now_s: f64) {
        if self.partitioned_since_s.is_none() {
            self.clock_s = self.clock_s.max(now_s);
            self.partitioned_since_s = Some(now_s);
            self.instant("partition:degraded", vec![("since_s".into(), format!("{now_s:.3}"))]);
        }
    }

    /// Clears degraded mode after the pod re-acquires its lease.
    pub fn clear_partitioned(&mut self, now_s: f64) {
        if self.partitioned_since_s.take().is_some() {
            self.clock_s = self.clock_s.max(now_s);
            self.instant("partition:healed", vec![("at_s".into(), format!("{now_s:.3}"))]);
        }
    }

    /// Is the pod currently in degraded (partitioned) mode?
    pub fn is_partitioned(&self) -> bool {
        self.partitioned_since_s.is_some()
    }

    /// Removes a *queued* job by id — the coordinator fenced this pod
    /// and re-placed the job on a healthy pod, so the local copy is
    /// stale. The removal is journaled as a [`ServiceRecord::StolenOut`]
    /// tombstone (identical semantics: another pod now owns the job),
    /// so recovery never resurrects it. Returns `false` when the job is
    /// not queued here — an in-flight stale copy cannot be revoked; its
    /// completion is discarded at hand-off by epoch fencing instead.
    pub fn fence_discard(&mut self, id: u64, now_s: f64) -> bool {
        self.clock_s = self.clock_s.max(now_s);
        let Some(q) = self.queues.iter_mut().find_map(|queue| {
            let pos = queue.iter().position(|q| q.spec.id == id)?;
            queue.remove(pos)
        }) else {
            return false;
        };
        self.record(
            self.clock_s,
            ServiceRecord::StolenOut { t_s: self.clock_s, id, attempt: q.attempt },
        );
        true
    }

    /// Decides one arrival's admission. The arrival and its outcome ride
    /// one [`ServiceRecord::Admission`], which yields both events.
    fn on_arrival(&mut self, spec: JobSpec<C>) {
        let tenant = spec.tenant;
        let pressure = self.pressure();
        let tcfg = &self.config.tenants[tenant];
        let error = if let Some(since_s) = self.partitioned_since_s {
            // Degraded mode: any admission now could be double-placed
            // by the coordinator on a healthy pod, so shed at the door
            // with a typed outcome the client can retry against.
            Some(AdmissionError::PodPartitioned { since_s })
        } else if let Err(violation) =
            distmsm_ec::validate_msm_inputs::<C>(&spec.instance.points, &spec.instance.scalars)
        {
            // the first violation in slice order
            Some(AdmissionError::MalformedInput { detail: violation.to_string() })
        } else if spec.class == JobClass::Batch && pressure >= SHED_PRESSURE {
            Some(AdmissionError::Shedding { tenant: tcfg.name.clone(), pressure })
        } else if self.queues[tenant].len() >= tcfg.queue_capacity {
            Some(AdmissionError::QueueFull { tenant: tcfg.name.clone(), capacity: tcfg.queue_capacity })
        } else if let Some(deadline) = spec.deadline_s {
            let needed_s = self.admission_engine.estimate_seconds(spec.instance.len(), &self.curve);
            let available_s = deadline - self.clock_s;
            if needed_s > available_s {
                Some(AdmissionError::DeadlineInfeasible { needed_s, available_s })
            } else {
                None
            }
        } else {
            None
        };

        if let Some(error) = error {
            self.instant(
                &format!("reject:{}", error.label()),
                vec![("job".into(), spec.id.to_string()), ("tenant".into(), tcfg.name.clone())],
            );
            // Arrival + outcome ride one atomic journal record: a torn
            // write can lose the whole admission, never half of it.
            self.record(
                self.clock_s,
                ServiceRecord::Admission {
                    t_s: self.clock_s,
                    id: spec.id,
                    tenant,
                    class: spec.class,
                    outcome: AdmissionOutcome::Rejected { error },
                },
            );
            return;
        }

        let bound = spec.class.bound_s();
        let expire_s = self.clock_s + bound;
        let id = spec.id;
        let class = spec.class;
        self.queues[tenant].push_back(QueuedJob {
            spec,
            attempt: 0,
            enqueued_s: self.clock_s,
            expire_s,
        });
        let queue_len = self.queues[tenant].len();
        self.record(
            self.clock_s,
            ServiceRecord::Admission {
                t_s: self.clock_s,
                id,
                tenant,
                class,
                outcome: AdmissionOutcome::Admitted { queue_len },
            },
        );
        self.push_pending(expire_s, PendingKind::Expire(id));
    }

    /// Picks the queued job with the earliest effective deadline
    /// (explicit deadline, else queue-epoch start plus class bound),
    /// breaking ties by tenant weight (heavier first), then id.
    fn pick_edf(&mut self) -> Option<QueuedJob<C>> {
        let (_, tenant, pos) = self.find_edf()?;
        self.queues[tenant].remove(pos)
    }

    /// Locates the EDF pick without removing it: `(effective deadline,
    /// tenant, queue position)`.
    fn find_edf(&self) -> Option<(f64, usize, usize)> {
        let mut best: Option<(f64, f64, u64, usize, usize)> = None;
        for (tenant, queue) in self.queues.iter().enumerate() {
            let weight = self.config.tenants[tenant].weight;
            for (pos, q) in queue.iter().enumerate() {
                let bound = q.spec.class.bound_s();
                let eff = q
                    .spec
                    .deadline_s
                    .unwrap_or(f64::INFINITY)
                    .min(q.enqueued_s + bound);
                let better = match &best {
                    None => true,
                    Some((b_eff, b_w, b_id, _, _)) => {
                        match eff.total_cmp(b_eff) {
                            std::cmp::Ordering::Less => true,
                            std::cmp::Ordering::Greater => false,
                            std::cmp::Ordering::Equal => match weight.total_cmp(b_w) {
                                std::cmp::Ordering::Greater => true,
                                std::cmp::Ordering::Less => false,
                                std::cmp::Ordering::Equal => q.spec.id < *b_id,
                            },
                        }
                    }
                };
                if better {
                    best = Some((eff, weight, q.spec.id, tenant, pos));
                }
            }
        }
        let (eff, _, _, tenant, pos) = best?;
        Some((eff, tenant, pos))
    }

    fn try_dispatch(&mut self, chaos: &ChaosSchedule) {
        if self.total_queued() == 0 {
            return;
        }
        // Probation ends are observed lazily, by traffic: breakers are
        // polled only when a dispatch is attempted, so an idle
        // quarantined device stays quarantined instead of drifting to
        // half-open with nothing to probe it.
        let polled = self.pool.poll(self.clock_s);
        self.record_transitions(polled);
        loop {
            let (closed, half_open) = self.pool.allocatable(self.clock_s);
            if closed.is_empty() && half_open.is_empty() {
                // Jobs are stuck behind quarantines: make sure the loop
                // wakes when the next probation window elapses.
                self.wake_at_probation_end();
                return;
            }
            let pressure = self.pressure();
            let Some(job) = self.pick_edf() else { return };

            let degraded = pressure >= DEGRADE_PRESSURE;
            let target = if degraded { DEGRADED_GPUS_PER_JOB } else { self.config.gpus_per_job };
            // Round-robin placement: start filling from the cursor so
            // every device (including high ids) sees regular traffic.
            let split = closed.partition_point(|&d| d < self.rr_cursor);
            let mut devices: Vec<usize> = closed[split..]
                .iter()
                .chain(closed[..split].iter())
                .copied()
                .take(target)
                .collect();
            if let Some(&last) = devices.last() {
                self.rr_cursor = (last + 1) % self.config.n_devices;
            }
            // At most one half-open device rides along as the probe —
            // replacing a closed rank when the partition is already
            // full, so probation devices see real traffic. The most
            // frequently tripped device probes first: it is the one
            // whose health the pool is least sure about.
            let probe = half_open
                .iter()
                .copied()
                .max_by_key(|&d| (self.pool.open_spells(d), std::cmp::Reverse(d)));
            if let Some(probe) = probe {
                if devices.len() >= target {
                    devices.pop();
                }
                devices.push(probe);
            }
            devices.sort_unstable();
            self.dispatch(job, devices, degraded, chaos);
        }
    }

    fn dispatch(
        &mut self,
        job: QueuedJob<C>,
        devices: Vec<usize>,
        degraded: bool,
        chaos: &ChaosSchedule,
    ) {
        let attempt = job.attempt;
        let plan = chaos.fault_plan_for(&devices, self.clock_s, attempt);
        let system = MultiGpuSystem::dgx_a100(devices.len());
        let engine = DistMsm::with_config(
            system,
            Self::engine_config(&self.config, plan).expect("service engine config is valid"),
        );
        let outcome = engine.execute_attempt(&job.spec.instance, attempt);
        let duration_s = match &outcome {
            Ok(report) => report.total_s,
            // A failed attempt still occupied its partition: charge the
            // analytic estimate as the detection latency.
            Err(_) => engine.estimate_seconds(job.spec.instance.len(), &self.curve),
        }
        .max(1e-9);

        let used_readmitted_device = devices.iter().any(|&d| self.pool.open_spells(d) > 0);
        self.pool.allocate(&devices, self.clock_s + duration_s);
        self.push_pending(self.clock_s + duration_s, PendingKind::Completion(job.spec.id));
        self.record_event(
            Some(job.spec.id),
            Some(job.spec.tenant),
            ServiceEventKind::Dispatched { devices: devices.clone(), attempt, degraded },
        );
        self.in_flight.insert(
            job.spec.id,
            InFlight { spec: job.spec, attempt, devices, outcome, used_readmitted_device },
        );
    }

    fn on_completion(&mut self, id: u64) {
        let Some(fl) = self.in_flight.remove(&id) else { return };
        let tenant = fl.spec.tenant;
        match fl.outcome {
            Ok(report) => {
                // A recovered execution still names the devices the
                // supervisor had to work around: charge them. Bit-flips
                // are transient in-flight corruption (the self-check
                // caught and re-shipped them), so they do not count
                // against device health.
                let mut faulty: Vec<usize> = report
                    .recovery
                    .as_ref()
                    .map(|rec| {
                        rec.faults
                            .iter()
                            .filter(|f| f.kind != "bit-flip")
                            .filter_map(|f| fl.devices.get(f.device).copied())
                            .collect()
                    })
                    .unwrap_or_default();
                faulty.sort_unstable();
                faulty.dedup();
                let mut transitions = Vec::new();
                for &d in &fl.devices {
                    if faulty.contains(&d) {
                        transitions.extend(self.pool.record_fault(d, self.clock_s));
                    } else {
                        transitions.extend(self.pool.record_success(d, self.clock_s));
                    }
                }
                if transitions.iter().any(|t| t.to == crate::breaker::BreakerState::Open) {
                    self.wake_at_probation_end();
                }
                self.record_transitions(transitions);
                let sojourn_s = self.clock_s - fl.spec.arrival_s;
                let deadline_met = fl.spec.deadline_s.is_none_or(|d| self.clock_s <= d);
                let event = ServiceEvent {
                    t_s: self.clock_s,
                    job: Some(id),
                    tenant: Some(tenant),
                    kind: ServiceEventKind::Completed {
                        deadline_met,
                        sojourn_s,
                        attempts: fl.attempt + 1,
                    },
                };
                // Event + result bytes in one atomic record: no torn
                // write can strand a completion without its payload.
                self.record(
                    self.clock_s,
                    ServiceRecord::Completed {
                        event,
                        result: distmsm_ec::serialize::point_to_uncompressed(
                            &report.result.to_affine(),
                        ),
                        used_readmitted: fl.used_readmitted_device,
                    },
                );
                self.completed.push(CompletedJob {
                    id,
                    tenant,
                    result: report.result,
                    attempts: fl.attempt + 1,
                    used_readmitted_device: fl.used_readmitted_device,
                });
            }
            Err(error) => {
                // Map partition-local blame back to global device ids;
                // an error naming no device (total partition, config)
                // charges the whole partition.
                let local = error.implicated_devices();
                let blamed: Vec<usize> = if local.is_empty() {
                    fl.devices.clone()
                } else {
                    local.iter().filter_map(|&l| fl.devices.get(l).copied()).collect()
                };
                let mut transitions = Vec::new();
                for &d in &blamed {
                    transitions.extend(self.pool.record_fault(d, self.clock_s));
                }
                if transitions.iter().any(|t| t.to == crate::breaker::BreakerState::Open) {
                    self.wake_at_probation_end();
                }
                self.record_transitions(transitions);

                let next_attempt = fl.attempt + 1;
                if next_attempt < MAX_ATTEMPTS {
                    let bound = fl.spec.class.bound_s();
                    let expire_s = self.clock_s + bound;
                    self.record_event(
                        Some(id),
                        Some(tenant),
                        ServiceEventKind::Requeued { attempt: next_attempt },
                    );
                    self.queues[tenant].push_front(QueuedJob {
                        spec: fl.spec,
                        attempt: next_attempt,
                        enqueued_s: self.clock_s,
                        expire_s,
                    });
                    self.push_pending(expire_s, PendingKind::Expire(id));
                } else {
                    self.instant(
                        "job:failed",
                        vec![("job".into(), id.to_string()), ("error".into(), error.to_string())],
                    );
                    self.record_event(
                        Some(id),
                        Some(tenant),
                        ServiceEventKind::Failed { error: error.to_string() },
                    );
                }
            }
        }
    }

    fn on_expire(&mut self, id: u64) {
        // The job may have been dispatched, completed, or requeued with
        // a fresher bound since this expiry was scheduled.
        for tenant in 0..self.queues.len() {
            if let Some(pos) = self.queues[tenant]
                .iter()
                .position(|q| q.spec.id == id && q.expire_s <= self.clock_s + 1e-9)
            {
                self.queues[tenant].remove(pos);
                let reason = if self.pool.fully_quarantined() {
                    ShedReason::PoolQuarantined
                } else {
                    ShedReason::Starvation
                };
                self.instant(
                    &format!("shed:{}", reason.label()),
                    vec![("job".into(), id.to_string())],
                );
                self.record_event(Some(id), Some(tenant), ServiceEventKind::Shed { reason });
                return;
            }
        }
    }

    /// The per-tenant figures are read off the WAL's shadow fold: the
    /// journal already counts every arrival, outcome and sojourn (and
    /// carries them across a restore), so the report is a view over it.
    /// The pool timeline is the `Breaker` events of `events`, the stream
    /// since construction or restore.
    fn build_report(&self, events: &[ServiceEvent]) -> ServiceReport {
        let tenants = self
            .config
            .tenants
            .iter()
            .zip(&self.wal.state().tenants)
            .map(|(cfg, a)| {
                let mut sojourns = a.sojourns_s.clone();
                sojourns.sort_by(f64::total_cmp);
                TenantStats {
                    name: cfg.name.clone(),
                    arrivals: a.arrivals,
                    admitted: a.admitted,
                    rejected: a.rejected,
                    completed: a.completed,
                    failed: a.failed,
                    shed: a.shed,
                    deadline_missed: a.deadline_missed,
                    sojourn_p50_s: crate::report::percentile(&sojourns, 0.50),
                    sojourn_p95_s: crate::report::percentile(&sojourns, 0.95),
                    sojourn_p99_s: crate::report::percentile(&sojourns, 0.99),
                }
            })
            .collect();
        ServiceReport {
            tenants,
            pool_timeline: events
                .iter()
                .filter_map(|e| match &e.kind {
                    ServiceEventKind::Breaker { transition } => Some(transition.clone()),
                    _ => None,
                })
                .collect(),
            final_states: self.pool.final_states(),
            horizon_s: self.clock_s,
            n_devices: self.config.n_devices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use distmsm_ec::curves::Bn254G1;
    use distmsm_ec::MsmInstance;
    use rand::{rngs::StdRng, SeedableRng};

    fn job(id: u64, tenant: usize, class: JobClass, arrival_s: f64) -> JobSpec<Bn254G1> {
        let mut rng = StdRng::seed_from_u64(1000 + id);
        JobSpec {
            id,
            tenant,
            class,
            arrival_s,
            deadline_s: None,
            instance: MsmInstance::random(24, &mut rng),
        }
    }

    /// The report's per-tenant figures are a view over the WAL's shadow
    /// fold (the service keeps no counters of its own beside it): they
    /// equal the fold's counters field for field, and building the
    /// report again does not drain them.
    #[test]
    fn report_is_a_view_over_the_journal_fold() {
        let config = ServiceConfig { n_devices: 4, gpus_per_job: 2, ..ServiceConfig::default() };
        let jobs: Vec<_> = (0..6)
            .map(|i| job(i, i as usize % 2, JobClass::Interactive, 0.001 * i as f64))
            .collect();
        let mut service = ProverService::new(config);
        let out = service.run(jobs, &ChaosSchedule::none());
        assert_eq!(out.report.completed(), 6);
        for (stats, folded) in out.report.tenants.iter().zip(&service.wal_state().tenants) {
            assert_eq!(
                (stats.arrivals, stats.admitted, stats.rejected, stats.completed),
                (folded.arrivals, folded.admitted, folded.rejected, folded.completed)
            );
            assert_eq!(
                (stats.failed, stats.shed, stats.deadline_missed),
                (folded.failed, folded.shed, folded.deadline_missed)
            );
            assert_eq!(folded.sojourns_s.len(), 3);
            assert!(stats.sojourn_p50_s > 0.0);
        }
        assert_eq!(service.finish().report, out.report);
    }

    /// When every device in the pool fail-stops forever, the service
    /// must classify the stuck queue correctly: breakers all end open,
    /// nothing completes, and the queued work is shed as
    /// `PoolQuarantined` (not misreported as mere starvation).
    #[test]
    fn fully_quarantined_pool_sheds_with_pool_quarantined() {
        let config = ServiceConfig { n_devices: 2, gpus_per_job: 2, ..ServiceConfig::default() };
        let chaos =
            ChaosSchedule::always_faulty(0).merged(ChaosSchedule::always_faulty(1));
        let jobs: Vec<_> = (0..8)
            .map(|i| job(i, i as usize % 2, JobClass::Batch, 0.001 * i as f64))
            .collect();
        let mut service = ProverService::new(config);
        let out = service.run(jobs, &chaos);

        assert!(
            out.report.final_states.iter().all(|s| *s == BreakerState::Open),
            "every breaker must end open: {:?}",
            out.report.final_states
        );
        assert_eq!(out.report.completed(), 0, "nothing can complete on a dead pool");
        assert!(
            out.events.iter().any(|e| matches!(
                e.kind,
                ServiceEventKind::Shed { reason: ShedReason::PoolQuarantined }
            )),
            "stuck work must be shed as pool-quarantined: {:#?}",
            out.report.render()
        );
        // Conservation still holds on the all-fault path.
        assert_eq!(
            out.report.admitted(),
            out.report.completed() + out.report.failed() + out.report.shed()
        );
    }

    #[test]
    fn malformed_inputs_are_rejected_at_the_door() {
        use distmsm_ec::FieldElement;
        let mut off_curve = job(1, 0, JobClass::Interactive, 0.0);
        off_curve.instance.points[3].y += <Bn254G1 as Curve>::Base::one();
        let mut bad_scalar = job(2, 0, JobClass::Interactive, 0.001);
        // The group order r itself: smallest non-canonical encoding.
        bad_scalar.instance.scalars[0] = distmsm_ec::curves::scalar_modulus_bn254();
        let good = job(3, 1, JobClass::Interactive, 0.002);

        let mut service = ProverService::new(ServiceConfig::default());
        let out = service.run(vec![off_curve, bad_scalar, good], &ChaosSchedule::none());

        let rejections: Vec<_> = out
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                ServiceEventKind::Rejected { error } => Some((e.job, error.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(rejections.len(), 2, "both malformed jobs refused: {rejections:?}");
        assert!(matches!(
            &rejections[0],
            (Some(1), AdmissionError::MalformedInput { detail }) if detail.contains("point 3")
        ));
        assert!(matches!(
            &rejections[1],
            (Some(2), AdmissionError::MalformedInput { detail }) if detail.contains("scalar 0")
        ));
        assert_eq!(out.report.completed(), 1, "the clean job still completes");
    }

    #[test]
    fn partitioned_pod_sheds_new_arrivals_with_typed_outcome() {
        let mut service = ProverService::new(ServiceConfig::default());
        service.set_partitioned(0.5);
        assert!(service.is_partitioned());
        let out = service.run(
            vec![job(7, 0, JobClass::Interactive, 1.0), job(8, 1, JobClass::Batch, 1.5)],
            &ChaosSchedule::none(),
        );
        let rejected: Vec<_> = out
            .events
            .iter()
            .filter(|e| {
                matches!(
                    &e.kind,
                    ServiceEventKind::Rejected {
                        error: AdmissionError::PodPartitioned { since_s }
                    } if *since_s == 0.5
                )
            })
            .collect();
        assert_eq!(rejected.len(), 2, "degraded mode sheds every new arrival");
        assert_eq!(out.report.completed(), 0);

        // Healing re-opens the door.
        service.clear_partitioned(10.0);
        assert!(!service.is_partitioned());
        let out = service.run(vec![job(9, 0, JobClass::Interactive, 11.0)], &ChaosSchedule::none());
        assert_eq!(out.report.completed(), 1);
    }

    #[test]
    fn fence_discard_removes_queued_jobs_and_journals_a_tombstone() {
        let config = ServiceConfig { n_devices: 2, gpus_per_job: 2, ..ServiceConfig::default() };
        let mut service = ProverService::new(config);
        let chaos = ChaosSchedule::none();
        service.begin(vec![
            job(0, 0, JobClass::Interactive, 0.0),
            job(1, 0, JobClass::Interactive, 0.0005),
        ]);
        service.step(&chaos); // arrival 0 → dispatched (fills the pool)
        service.step(&chaos); // arrival 1 → queued behind it
        assert_eq!(service.queued_jobs(), 1);

        assert!(service.fence_discard(1, service.clock_s()), "queued copy revoked");
        assert_eq!(service.queued_jobs(), 0);
        assert!(!service.fence_discard(0, service.clock_s()), "in-flight copy not revocable");
        assert!(!service.fence_discard(99, service.clock_s()), "unknown id is a no-op");

        // The tombstone is durable: recovery marks the job stolen-away,
        // never re-queues it.
        let rec = crate::wal::recover_state(service.durable(), &service.config.shape())
            .expect("clean recovery");
        assert!(matches!(rec.state.jobs[&1].phase, JobPhase::StolenAway { .. }));
    }
}
