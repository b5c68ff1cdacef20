//! The fleet coordinator: global placement over N pods, EDF-preserving
//! work stealing, and 2G2T-verified acceptance of every pod result.
//!
//! Each pod is a full [`ProverService`] (the PR 5 scheduler — admission
//! control, circuit breakers, degraded dispatch) advanced in lock-step
//! on the shared simulated clock: the coordinator always steps the pod
//! with the globally earliest pending event, so cross-pod interactions
//! (steals, re-placements) can never be stamped in another pod's past.
//!
//! Pods are *untrusted*: every completion is checked against its
//! blinded twin ([`crate::outsource`]) before acceptance. A detection
//! quarantines the pod fleet-wide — no further placements or steals —
//! and re-places its stranded queue across the healthy pods with the
//! verifier-proved [`distmsm::replace_assignments`] quota plan.

use std::collections::{BTreeMap, BTreeSet};

use distmsm::{replace_assignments, DistMsm};
use distmsm_comms::PartitionSchedule;
use distmsm_ec::serialize::{point_from_uncompressed, point_to_uncompressed};
use distmsm_ec::{Curve, XyzzPoint};
use distmsm_gpu_sim::fault::splitmix64;
use distmsm_gpu_sim::{FaultKind, MultiGpuSystem};
use distmsm_journal::{DurableState, JournalError};
use distmsm_service::wal as service_wal;
use distmsm_service::{
    ChaosSchedule, CompletedJob, DeviceFaultWindow, JobPhase, JobSpec, ProverService,
    RecoveryInfo, ServiceConfig, ServiceEvent, ServiceReport, StolenJob,
};

use crate::membership::{Membership, MembershipAction};
use crate::outsource::{Challenge, Corruption, OutsourcedResult};
use crate::report::FleetReport;
use crate::wal::{self as fleet_wal, FleetRecord, FleetState, FleetWal};

/// Fleet-level configuration: identical pods behind one coordinator.
/// Every fleet steals work between pod queues and holds each pod to a
/// heartbeat lease ([`crate::membership`]).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of pods.
    pub n_pods: usize,
    /// Per-pod service configuration (shared tenant table; `n_devices`
    /// is the per-pod device count).
    pub pod: ServiceConfig,
    /// Seed for the per-job 2G2T challenges.
    pub check_seed: u64,
}

/// A byzantine window: between `t0_s` and `t1_s` the pod corrupts every
/// result pair it returns with the given class.
#[derive(Clone, Copy, Debug)]
pub struct ByzantineWindow {
    /// The lying pod.
    pub pod: usize,
    /// Window start, simulated seconds.
    pub t0_s: f64,
    /// Window end, simulated seconds.
    pub t1_s: f64,
    /// Corruption class applied to returned pairs.
    pub class: Corruption,
}

/// Fleet-scope chaos: per-pod device/link fault schedules plus
/// pod-level fault classes (whole-pod loss, byzantine pods) that have
/// no single-pod analogue.
#[derive(Clone, Debug)]
pub struct FleetChaos {
    /// Per-pod fail-stop/straggler/link chaos (PR 3/PR 5 classes).
    pub pods: Vec<ChaosSchedule>,
    /// Byzantine windows (detected by the 2G2T check, not recovery).
    pub byzantine: Vec<ByzantineWindow>,
    /// Coordinator↔pod link-partition windows over the fleet NIC tier.
    /// Partitions sever *messages* (heartbeats, hand-offs, completion
    /// returns), not pods: a partitioned pod keeps executing.
    pub partitions: PartitionSchedule,
}

impl FleetChaos {
    /// No chaos anywhere.
    pub fn none(n_pods: usize) -> Self {
        Self {
            pods: vec![ChaosSchedule::none(); n_pods],
            byzantine: Vec::new(),
            partitions: PartitionSchedule::none(),
        }
    }

    /// Lowers a whole-pod loss to the service layer: every device of
    /// `pod` fail-stops from `from_s` onward, forever. The pod's
    /// breakers all trip, its pool fully quarantines, and queued work
    /// must be stolen away by the rest of the fleet.
    pub fn lose_pod(&mut self, pod: usize, from_s: f64, n_devices: usize) {
        for device in 0..n_devices {
            self.pods[pod].device_windows.push(DeviceFaultWindow {
                device,
                t0_s: from_s,
                t1_s: f64::INFINITY,
                kind: FaultKind::FailStop,
            });
        }
    }

    fn byzantine_class(&self, pod: usize, t_s: f64) -> Option<Corruption> {
        self.byzantine
            .iter()
            .find(|w| w.pod == pod && t_s >= w.t0_s && t_s < w.t1_s)
            .map(|w| w.class)
    }
}

/// What happened at fleet scope (pod-level events carry their own
/// [`ServiceEvent`] streams; these are the coordinator's decisions).
#[derive(Clone, Debug, PartialEq)]
pub enum FleetEventKind {
    /// Initial placement on a pod.
    Placed {
        /// Chosen pod.
        pod: usize,
    },
    /// An idle pod stole the earliest-deadline queued job.
    Stolen {
        /// Victim pod.
        from: usize,
        /// Thief pod.
        to: usize,
    },
    /// The 2G2T check accepted a returned result pair.
    Verified {
        /// Pod that returned the pair.
        pod: usize,
    },
    /// The 2G2T check rejected a returned result pair.
    ByzantineDetected {
        /// The lying pod.
        pod: usize,
        /// Corruption class that was seeded (label form).
        corruption: &'static str,
    },
    /// The pod was quarantined fleet-wide.
    Quarantined {
        /// The quarantined pod.
        pod: usize,
    },
    /// A job was re-placed off a quarantined or fenced pod.
    Replaced {
        /// Quarantined or fenced source pod.
        from: usize,
        /// Healthy destination pod.
        to: usize,
    },
    /// A pod's heartbeat lease expired without renewal; its fencing
    /// epoch advanced.
    Fenced {
        /// The fenced pod.
        pod: usize,
        /// The pod's new epoch.
        epoch: u64,
    },
    /// A fenced pod re-acquired its lease and passed anti-entropy
    /// rejoin.
    Rejoined {
        /// The rejoining pod.
        pod: usize,
        /// The pod's current epoch.
        epoch: u64,
    },
    /// A stale job copy from a fenced epoch was discarded (the fleet
    /// had re-placed or already accepted the job).
    Discarded {
        /// Pod whose stale copy was dropped.
        pod: usize,
    },
}

/// One coordinator decision on the simulated clock.
#[derive(Clone, Debug)]
pub struct FleetEvent {
    /// Simulated time.
    pub t_s: f64,
    /// Job the event concerns (`None` for pod-level events).
    pub job: Option<u64>,
    /// What happened.
    pub kind: FleetEventKind,
}

/// A job whose result passed the 2G2T check.
#[derive(Clone, Debug)]
pub struct AcceptedJob<C: Curve> {
    /// Job id.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Pod whose result was accepted.
    pub pod: usize,
    /// The verified MSM value.
    pub result: XyzzPoint<C>,
    /// Attempts the accepting pod consumed.
    pub attempts: u32,
}

/// Everything a fleet run produced, replayable and checkable.
#[derive(Debug)]
pub struct FleetOutcome<C: Curve> {
    /// Aggregated fleet report (byte-stable JSON, renderable).
    pub report: FleetReport,
    /// Coordinator decisions in order.
    pub events: Vec<FleetEvent>,
    /// Merged pod event streams, tagged with the pod index.
    pub pod_events: Vec<(usize, ServiceEvent)>,
    /// Per-pod service reports.
    pub pod_reports: Vec<ServiceReport>,
    /// Jobs whose results passed the outsourcing check.
    pub accepted: Vec<AcceptedJob<C>>,
}

/// How a crashed fleet got back on its feet: per-layer recovery
/// accounting plus the modelled cost comparison against recomputing
/// the lost history from scratch.
#[derive(Clone, Debug)]
pub struct FleetRecoveryInfo {
    /// Epoch of the coordinator snapshot recovery started from (0 =
    /// none).
    pub coordinator_snapshot_epoch: u64,
    /// Coordinator journal records replayed on top of the snapshot.
    pub coordinator_replayed: u64,
    /// Torn frame bytes dropped from the coordinator journal tail.
    pub coordinator_torn_tail_bytes: usize,
    /// Per-pod service recovery accounting.
    pub pods: Vec<RecoveryInfo>,
    /// Durable pod completions whose acceptance was not durable: each
    /// was re-run through the 2G2T check before use.
    pub reverified: u64,
    /// Of the re-verified completions, how many passed and were
    /// accepted at restore (the rest fell back to re-execution).
    pub reaccepted: u64,
    /// Jobs whose ownership was torn by the cut (a steal's hand-off
    /// survived but not its absorption, or the owner was quarantined)
    /// and were re-placed afresh at restore.
    pub replaced_jobs: u64,
    /// Modelled total recovery cost: coordinator + every pod
    /// (snapshot decode + bounded replay each).
    pub recovery_cost_s: f64,
    /// Modelled cost of recomputing from scratch — the maximum pod
    /// clock at the crash.
    pub scratch_cost_s: f64,
}

/// The global placement layer over `n_pods` untrusted pods.
///
/// Ownership, quarantine flags and the detection count live only in the
/// WAL's fold ([`Self::wal_state`]); every decision goes through one
/// `record`, which journals it and derives the coordinator event and its
/// telemetry instant from the record.
pub struct FleetCoordinator<C: Curve> {
    config: FleetConfig,
    pods: Vec<ProverService<C>>,
    events: Vec<FleetEvent>,
    /// Durable pre-crash coordinator events, seeded by [`Self::restore`]
    /// so the final report accounts the full history (the outcome's
    /// `events` stay post-restore only, mirroring the pods).
    prior_events: Vec<FleetEvent>,
    accepted: Vec<AcceptedJob<C>>,
    specs: BTreeMap<u64, JobSpec<C>>,
    last_good: Option<OutsourcedResult<C>>,
    checker: DistMsm,
    wal: FleetWal,
    /// One heartbeat lease per pod. Without partition windows no lease
    /// lapses, so every fencing check below passes.
    membership: Membership,
    /// Per pod: stale job copies left behind by a post-fence
    /// re-placement, keyed by job id with the copy's placement epoch.
    /// Consumed by rejoin's `fence_discard` pass and by the zombie
    /// guard in [`Self::check_completion`].
    stale_copies: Vec<BTreeMap<u64, u64>>,
}

impl<C: Curve> FleetCoordinator<C> {
    /// Builds a fleet of `config.n_pods` identical pods.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.n_pods > 0, "a fleet needs at least one pod");
        let pods =
            (0..config.n_pods).map(|_| ProverService::new(config.pod.clone())).collect();
        let wal = FleetWal::new(config.n_pods, config.pod.snapshot_every);
        Self {
            events: Vec::new(),
            prior_events: Vec::new(),
            accepted: Vec::new(),
            specs: BTreeMap::new(),
            last_good: None,
            checker: DistMsm::new(MultiGpuSystem::dgx_a100(1)),
            membership: Membership::new(config.n_pods),
            stale_copies: vec![BTreeMap::new(); config.n_pods],
            config,
            pods,
            wal,
        }
    }

    /// Rebuilds a crashed fleet from the coordinator's durable journal
    /// plus one durable journal per pod, reconciling the layers into a
    /// consistent restart:
    ///
    /// * Each job's spec routes to every pod whose journal knows it
    ///   (live phases re-enqueue there; terminal phases must not
    ///   re-arrive), and jobs no pod durably admitted re-arrive at the
    ///   owner the coordinator recorded.
    /// * A job whose only durable trace is a `StolenAway` tombstone was
    ///   torn mid-steal — the cut kept the victim's hand-off but lost
    ///   the thief's absorption. It is already admitted, so it is
    ///   re-absorbed onto a placeable pod (neither quarantined nor
    ///   fenced in the recovered fold) with its retry budget intact
    ///   (a `Replaced` record is journaled, never a re-admission).
    /// * Durable pod completions whose 2G2T acceptance was *not*
    ///   durable are untrusted: each re-runs the blinded-twin check
    ///   before use, accepting on a pass and falling back to
    ///   re-execution on a healthy pod otherwise.
    ///
    /// # Errors
    ///
    /// Any corrupt durable state in any journal — CRC mismatch,
    /// missing/duplicate epoch, stale snapshot, undecodable payload —
    /// is a typed [`JournalError`]; torn tails alone are tolerated.
    ///
    /// # Panics
    ///
    /// Panics when the durable slices don't match `config.n_pods`, or
    /// when no pod is placeable (every one quarantined or fenced) and a
    /// job has nowhere to go (the same unrecoverable state [`Self::run`]
    /// panics on).
    pub fn restore(
        config: FleetConfig,
        jobs: &[JobSpec<C>],
        coordinator: &DurableState,
        pod_durables: &[DurableState],
        chaos: &FleetChaos,
    ) -> Result<(Self, FleetRecoveryInfo), JournalError> {
        let n_pods = config.n_pods;
        assert_eq!(pod_durables.len(), n_pods, "one durable state per pod");
        assert_eq!(chaos.pods.len(), n_pods, "chaos must cover every pod");
        let mut fleet = Self::new(config);
        let rec = fleet_wal::recover_fleet_state(coordinator, n_pods)?;
        let state = &rec.state;

        // Pod folds first: the durable truth about which pod owns what.
        let mut folds = Vec::with_capacity(n_pods);
        for durable in pod_durables {
            folds.push(service_wal::recover_state(durable, &fleet.config.pod.shape())?.state);
        }

        let mut spec_lists: Vec<Vec<JobSpec<C>>> = vec![Vec::new(); n_pods];
        let mut replacements: Vec<(u64, usize)> = Vec::new();
        let mut torn_steals: Vec<(JobSpec<C>, u32)> = Vec::new();
        for job in jobs {
            let knowing: Vec<usize> =
                (0..n_pods).filter(|&p| folds[p].jobs.contains_key(&job.id)).collect();
            if knowing.is_empty() {
                // Never durably admitted anywhere: (re-)arrives at the
                // recorded owner, or the placeable pod with the fewest
                // specs when the owner is not placeable or the placement
                // itself was lost.
                let owner = state.placed_on.get(&job.id).copied().filter(|&p| state.placeable(p));
                let target = owner.unwrap_or_else(|| {
                    let t = (0..n_pods)
                        .filter(|&p| state.placeable(p))
                        .min_by_key(|&p| spec_lists[p].len())
                        .expect("no placeable pod: nowhere to re-place");
                    replacements.push((job.id, t));
                    t
                });
                spec_lists[target].push(job.clone());
                continue;
            }
            let settled_somewhere = knowing
                .iter()
                .any(|&p| !matches!(folds[p].jobs[&job.id].phase, JobPhase::StolenAway { .. }));
            for &p in &knowing {
                spec_lists[p].push(job.clone());
            }
            if !settled_somewhere {
                // Torn mid-steal: only StolenAway tombstones survived —
                // the victim's hand-off outlived the thief's
                // absorption. The job is already admitted, so it is
                // re-absorbed (not re-admitted) after the pods restore,
                // at the highest attempt any tombstone recorded.
                let attempt = knowing
                    .iter()
                    .map(|&p| match folds[p].jobs[&job.id].phase {
                        JobPhase::StolenAway { attempt } => attempt,
                        _ => 0,
                    })
                    .max()
                    .unwrap_or(0);
                torn_steals.push((job.clone(), attempt));
            }
        }

        let mut pod_infos = Vec::with_capacity(n_pods);
        for (p, durable) in pod_durables.iter().enumerate() {
            let (svc, info) =
                ProverService::restore(fleet.config.pod.clone(), &spec_lists[p], durable)?;
            fleet.pods[p] = svc;
            pod_infos.push(info);
        }

        for a in &state.accepted {
            let affine = point_from_uncompressed::<C>(&a.result).ok_or_else(|| {
                JournalError::BadPayload {
                    epoch: state.last_epoch,
                    detail: format!("accepted job {} carries an undecodable result point", a.id),
                }
            })?;
            fleet.accepted.push(AcceptedJob {
                id: a.id,
                tenant: a.tenant,
                pod: a.pod,
                result: affine.to_xyzz(),
                attempts: a.attempts,
            });
        }
        fleet.prior_events = fleet_wal::decode_fleet_events(coordinator)?;
        fleet.specs = jobs.iter().map(|j| (j.id, j.clone())).collect();
        let snapshot_every = fleet.config.pod.snapshot_every;
        fleet.wal = FleetWal::resume(coordinator.reopen()?, rec.state, n_pods, snapshot_every);

        // The lease table is volatile: pods the durable fold has fenced
        // take the rejoin path, not a second fence.
        let now = fleet.pods.iter().map(|p| p.clock_s()).fold(0.0, f64::max);
        for p in (0..n_pods).filter(|&p| fleet.wal.state().fenced[p]) {
            fleet.membership.restore_fence(p, now);
        }

        // Journal the restore-time re-placements (the fold must track
        // the new ownership, exactly like a live placement).
        for &(id, pod) in &replacements {
            let epoch = fleet.wal.state().pod_epochs[pod];
            fleet.record(now, FleetRecord::Placed { t_s: now, id, pod, epoch });
        }
        let n_torn = torn_steals.len() as u64;
        for (spec, attempt) in torn_steals {
            // Same placeable test as above: the fold refuses a hand-off
            // onto a fenced pod.
            let state = fleet.wal.state();
            let to = (0..n_pods)
                .filter(|&p| state.placeable(p))
                .min_by_key(|&p| fleet.pods[p].queued_jobs())
                .expect("no placeable pod: nowhere to re-place");
            let from = state.placed_on.get(&spec.id).copied().unwrap_or(to);
            let stolen = StolenJob { spec, attempt, effective_deadline_s: now };
            fleet.replace(stolen, from, to, now, chaos);
        }

        // Durable completions whose acceptance was not durable are
        // untrusted restored partials: re-run the 2G2T check before
        // use. Completions already accepted, or already rejected and
        // re-placed (the job is live on some pod), are skipped.
        let accepted_ids: BTreeSet<u64> = fleet.accepted.iter().map(|a| a.id).collect();
        let live_ids: BTreeSet<u64> = folds
            .iter()
            .flat_map(|f| {
                f.jobs.iter().filter_map(|(id, e)| {
                    matches!(
                        e.phase,
                        JobPhase::Queued { .. } | JobPhase::InFlight { .. }
                    )
                    .then_some(*id)
                })
            })
            .collect();
        let mut drained: Vec<(usize, CompletedJob<C>)> = Vec::new();
        for p in 0..n_pods {
            for done in fleet.pods[p].drain_completed() {
                drained.push((p, done));
            }
        }
        let accepted_before = fleet.accepted.len();
        let mut reverified = 0u64;
        for (p, done) in drained {
            if accepted_ids.contains(&done.id) || live_ids.contains(&done.id) {
                continue;
            }
            reverified += 1;
            fleet.check_completion(p, done, chaos);
        }
        let reaccepted = (fleet.accepted.len() - accepted_before) as u64;
        fleet.instant(
            now,
            "fleet.recovery:restored",
            vec![
                ("reverified".into(), reverified.to_string()),
                ("reaccepted".into(), reaccepted.to_string()),
                ("replaced".into(), replacements.len().to_string()),
            ],
        );

        let coordinator_cost = service_wal::RECOVERY_BASE_S
            + rec.snapshot_payload_bytes as f64 * service_wal::SNAPSHOT_BYTE_S
            + rec.replayed_records as f64 * service_wal::REPLAY_RECORD_S;
        let info = FleetRecoveryInfo {
            coordinator_snapshot_epoch: rec.snapshot_epoch,
            coordinator_replayed: rec.replayed_records,
            coordinator_torn_tail_bytes: rec.torn_tail_bytes,
            reverified,
            reaccepted,
            replaced_jobs: replacements.len() as u64 + n_torn,
            recovery_cost_s: coordinator_cost
                + pod_infos.iter().map(|i| i.recovery_cost_s).sum::<f64>(),
            scratch_cost_s: pod_infos.iter().map(|i| i.scratch_cost_s).fold(0.0, f64::max),
            pods: pod_infos,
        };
        Ok((fleet, info))
    }

    /// Runs a full fleet trace: greedy least-load placement, lock-step
    /// pod interleaving in global time order, work stealing, 2G2T
    /// verification of every completion, quarantine + re-placement on
    /// detection.
    ///
    /// # Panics
    ///
    /// Panics when `chaos` does not cover every pod, or when chaos
    /// quarantines *every* pod — with no healthy pod left there is
    /// nowhere to re-place stranded work, an unrecoverable state the
    /// fleet refuses to paper over.
    pub fn run(&mut self, jobs: Vec<JobSpec<C>>, chaos: &FleetChaos) -> FleetOutcome<C> {
        assert_eq!(chaos.pods.len(), self.config.n_pods, "chaos must cover every pod");
        self.place(jobs);
        self.run_loop(chaos);
        self.finish()
    }

    /// Drains a restored fleet to quiescence: the [`Self::run`] loop
    /// without the placement phase (ownership came back from the
    /// journals). The returned outcome holds post-restore events only;
    /// the pre-crash prefix is decodable from the durable journals via
    /// [`crate::wal::decode_fleet_events`] and
    /// [`distmsm_service::decode_events`].
    ///
    /// # Panics
    ///
    /// Panics in the same unrecoverable states as [`Self::run`].
    pub fn resume(&mut self, chaos: &FleetChaos) -> FleetOutcome<C> {
        assert_eq!(chaos.pods.len(), self.config.n_pods, "chaos must cover every pod");
        self.run_loop(chaos);
        self.finish()
    }

    fn run_loop(&mut self, chaos: &FleetChaos) {
        loop {
            // Next pod event vs. next membership transition, in global
            // time order; ties go to membership so a pod never runs
            // ahead of a fence or rejoin stamped at the same instant.
            let pod_next = (0..self.config.n_pods)
                .filter_map(|p| self.pods[p].next_time().map(|t| (t, p)))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mem_next = self.membership.next_event_s(pod_next.is_some(), &chaos.partitions);
            let pod = match (pod_next, mem_next) {
                (Some((tp, pod)), Some(tm)) if tp < tm => pod,
                (Some((_, pod)), None) => pod,
                (_, Some(tm)) => {
                    self.membership_step(tm, chaos);
                    continue;
                }
                (None, None) => break,
            };
            self.pods[pod].step(&chaos.pods[pod]);
            let now = self.pods[pod].clock_s();
            // Completions only travel while the pod→coordinator leg is
            // up and the pod is not behind a fence (a fenced pod's
            // results wait for anti-entropy rejoin). Undrained
            // completions park in the pod's buffer — its WAL already
            // journaled them, so nothing is lost.
            let fenced = self.membership.lease(pod).fenced;
            if !fenced && chaos.partitions.pod_reaches_coordinator(pod, now) {
                for done in self.pods[pod].drain_completed() {
                    self.check_completion(pod, done, chaos);
                }
            }
            self.drain_quarantined(chaos);
            self.rebalance(chaos);
        }
    }

    /// Executes the membership transitions due at `t_s`, in order.
    fn membership_step(&mut self, t_s: f64, chaos: &FleetChaos) {
        for action in self.membership.poll(t_s, &chaos.partitions) {
            match action {
                MembershipAction::Degrade(pod) => {
                    self.pods[pod].set_partitioned(t_s);
                    self.instant(
                        t_s,
                        "fleet.partition:degraded",
                        vec![("pod".into(), pod.to_string())],
                    );
                }
                MembershipAction::Heal(pod) => {
                    // Never fenced: just clear degraded mode and accept
                    // the completions that parked behind the partition.
                    self.pods[pod].clear_partitioned(t_s);
                    self.instant(
                        t_s,
                        "fleet.partition:healed",
                        vec![("pod".into(), pod.to_string())],
                    );
                    self.drain_parked(pod, chaos);
                }
                MembershipAction::Fence(pod) => self.fence_pod(pod, t_s),
                MembershipAction::Replace(pod) => self.replace_orphans(pod, t_s, chaos),
                MembershipAction::Rejoin(pod) => self.rejoin_pod(pod, t_s, chaos),
            }
        }
    }

    /// Advances a pod's fencing epoch after its lease lapsed. From this
    /// record on, every hand-off and completion stamped with the old
    /// epoch is dead on arrival at the fold.
    fn fence_pod(&mut self, pod: usize, t_s: f64) {
        let epoch = self.wal.state().pod_epochs[pod] + 1;
        self.record(t_s, FleetRecord::Fenced { t_s, pod, epoch });
    }

    /// Gives up on a fenced pod's orphans after the replace grace: each
    /// job it still owns (and the fleet has not accepted) is re-placed
    /// on a live pod with a fresh retry budget. The partitioned copy
    /// cannot be cancelled — it is discarded by fencing whenever it
    /// surfaces.
    fn replace_orphans(&mut self, pod: usize, t_s: f64, chaos: &FleetChaos) {
        let accepted_ids: BTreeSet<u64> = self.accepted.iter().map(|a| a.id).collect();
        let orphans: Vec<u64> = self
            .wal
            .state()
            .placed_on
            .iter()
            .filter(|&(id, &owner)| owner == pod && !accepted_ids.contains(id))
            .map(|(&id, _)| id)
            .collect();
        for id in orphans {
            let Some(to) = self.least_loaded_live(t_s, chaos) else {
                self.instant(
                    t_s,
                    "fleet.replace-deferred",
                    vec![("pod".into(), pod.to_string()), ("job".into(), id.to_string())],
                );
                return;
            };
            let spec = self.specs.get(&id).expect("orphaned job has a recorded spec").clone();
            let stale_epoch = self.wal.state().placed_epoch[&id];
            self.stale_copies[pod].insert(id, stale_epoch);
            let stolen = StolenJob { spec, attempt: 0, effective_deadline_s: t_s };
            self.replace(stolen, pod, to, t_s, chaos);
        }
    }

    /// Anti-entropy rejoin of a fenced pod whose partition healed.
    ///
    /// The pod's parked completion buffer is the durable WAL suffix the
    /// coordinator missed (its PR 8 service WAL journaled every
    /// completion before it parked). The coordinator diffs it against
    /// its own accepted set: a completion for a job the pod still owns
    /// is re-verified through the 2G2T blinded-twin check before
    /// acceptance; one for a job the fleet re-placed or already
    /// accepted is discarded by fencing epoch. Stale *queued* copies of
    /// re-placed jobs are dropped from the pod's queues the same way.
    fn rejoin_pod(&mut self, pod: usize, t_s: f64, chaos: &FleetChaos) {
        let epoch = self.wal.state().pod_epochs[pod];
        self.record(t_s, FleetRecord::Rejoined { t_s, pod, epoch });
        self.pods[pod].clear_partitioned(t_s);
        self.drain_parked(pod, chaos);
        let stale: Vec<(u64, u64)> =
            self.stale_copies[pod].iter().map(|(&id, &e)| (id, e)).collect();
        for (id, stale_epoch) in stale {
            if self.pods[pod].fence_discard(id, t_s) {
                self.stale_copies[pod].remove(&id);
                self.record(t_s, FleetRecord::Discarded { t_s, id, pod, epoch: stale_epoch });
            }
        }
    }

    /// Runs every parked completion of `pod` through the 2G2T check
    /// (or the fencing discard guard).
    fn drain_parked(&mut self, pod: usize, chaos: &FleetChaos) {
        for done in self.pods[pod].drain_completed() {
            self.check_completion(pod, done, chaos);
        }
    }

    /// Greedy least-estimated-load placement: jobs in `(arrival, id)`
    /// order each go to the pod with the smallest accumulated analytic
    /// load estimate (ties to the lowest pod id).
    fn place(&mut self, mut jobs: Vec<JobSpec<C>>) {
        jobs.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s).then(a.id.cmp(&b.id)));
        let mut est_load = vec![0.0f64; self.config.n_pods];
        let mut per_pod: Vec<Vec<JobSpec<C>>> = vec![Vec::new(); self.config.n_pods];
        for job in jobs {
            let pod = (0..self.config.n_pods)
                .min_by(|&a, &b| est_load[a].total_cmp(&est_load[b]))
                .expect("at least one pod");
            est_load[pod] += self.pods[pod].estimate_job_seconds(job.instance.len());
            // The whole placement plan persists at frame time 0.0 —
            // before the run starts — so a time-consistent crash cut
            // can never tear it apart; the payload keeps the arrival
            // time for event reconstruction.
            let epoch = self.wal.state().pod_epochs[pod];
            self.record(0.0, FleetRecord::Placed { t_s: job.arrival_s, id: job.id, pod, epoch });
            self.specs.insert(job.id, job.clone());
            per_pod[pod].push(job);
        }
        for (pod, batch) in per_pod.into_iter().enumerate() {
            self.pods[pod].begin(batch);
        }
    }

    /// Runs the 2G2T check on one completion; accepts, detects, or
    /// discards a zombie (a completion for a job the fleet re-placed or
    /// already accepted while the pod was fenced).
    fn check_completion(&mut self, pod: usize, done: CompletedJob<C>, chaos: &FleetChaos) {
        let now = self.pods[pod].clock_s();
        // The fencing guard: exactly-once is preserved by epochs, not
        // by assuming connectivity. A hand-off from an expired lease is
        // rejected *on arrival*, whatever the network did meanwhile.
        let st = self.wal.state();
        let already = self.accepted.iter().any(|a| a.id == done.id);
        let owned = st.placed_on.get(&done.id) == Some(&pod);
        let fresh = st.placed_epoch.get(&done.id).copied() == Some(st.pod_epochs[pod]);
        if already || !owned || !fresh {
            let stale_epoch = self.stale_copies[pod]
                .remove(&done.id)
                .unwrap_or_else(|| st.pod_epochs[pod].saturating_sub(1));
            let id = done.id;
            self.record(now, FleetRecord::Discarded { t_s: now, id, pod, epoch: stale_epoch });
            return;
        }
        // Invariant: every dispatchable job's spec was recorded at
        // placement (or at restore from the durable fold), so a pod can
        // only complete ids the coordinator knows.
        let spec = self.specs.get(&done.id).expect("completion for unknown job").clone();
        let n = spec.instance.len();
        let challenge =
            Challenge::<C>::generate(self.config.check_seed ^ mix(done.id), n);
        // The pod "returns" (R1, R2): R1 is the service result, R2 the
        // blinded twin it also executed. An honest pod's R2 is bit-exact
        // regardless of which engine shape ran it.
        let twin = challenge.twin_instance(&spec.instance);
        // Invariant: the checker engine runs with no fault plan, and a
        // fault-free simulated execution cannot fail.
        let honest_r2 = self
            .checker
            .execute(&twin)
            .expect("fault-free twin execution")
            .result;
        let pair = OutsourcedResult { r1: done.result, r2: honest_r2 };
        let pair = match chaos.byzantine_class(pod, now) {
            Some(class) => {
                let swap = self.last_good.unwrap_or(OutsourcedResult {
                    r1: C::generator().to_xyzz(),
                    r2: C::generator().to_xyzz(),
                });
                pair.corrupted(class, &swap)
            }
            None => pair,
        };
        if challenge.verify(&spec.instance.points, &pair.r1, &pair.r2) {
            // Acceptance and the accepted value ride one atomic record,
            // stamped with the accepting pod's live fencing epoch.
            let epoch = self.wal.state().pod_epochs[pod];
            self.record(
                now,
                FleetRecord::Accepted {
                    t_s: now,
                    id: done.id,
                    tenant: done.tenant,
                    pod,
                    attempts: done.attempts,
                    epoch,
                    result: point_to_uncompressed(&pair.r1.to_affine()),
                },
            );
            self.last_good = Some(pair);
            self.accepted.push(AcceptedJob {
                id: done.id,
                tenant: done.tenant,
                pod,
                result: pair.r1,
                attempts: done.attempts,
            });
            return;
        }
        // Invariant: 2G2T has no false positives — for a bit-exact
        // honest result the blinded-twin identity r2 = α·r1 + V holds
        // algebraically, so a rejection implies the chaos schedule
        // marked this pod byzantine at `now`.
        let class = chaos
            .byzantine_class(pod, now)
            .expect("2G2T check rejected an honest pod result");
        let corruption = class.label();
        self.record(now, FleetRecord::Detected { t_s: now, id: done.id, pod, corruption });
        if !self.wal.state().quarantined[pod] {
            self.quarantine(pod, now, chaos);
        }
        // Re-place the rejected job itself. The 2G2T rejection is a new
        // failure class, not a pod-local fault: the retry budget is NOT
        // charged, so the job re-enters with its old attempt count.
        let to = self.least_loaded_live(now, chaos).expect("no healthy pod to re-place on");
        let stolen = StolenJob {
            spec,
            attempt: done.attempts.saturating_sub(1),
            effective_deadline_s: now,
        };
        self.replace(stolen, pod, to, now, chaos);
    }

    /// Hands a job lifted off pod `from` to pod `to` and journals the
    /// re-placement.
    fn replace(
        &mut self,
        stolen: StolenJob<C>,
        from: usize,
        to: usize,
        now: f64,
        chaos: &FleetChaos,
    ) {
        let id = stolen.spec.id;
        let epoch = self.wal.state().pod_epochs[to];
        self.pods[to].absorb_stolen(stolen, now, &chaos.pods[to]);
        self.record(now, FleetRecord::Replaced { t_s: now, id, from, to, epoch });
    }

    /// Quarantines a pod fleet-wide and re-places its stranded queue
    /// across the healthy pods with the `fleet-replace` quota plan.
    fn quarantine(&mut self, pod: usize, now: f64, chaos: &FleetChaos) {
        self.record(now, FleetRecord::Quarantined { t_s: now, pod });
        let mut stranded = Vec::new();
        while let Some(stolen) = self.pods[pod].steal_earliest() {
            stranded.push(stolen);
        }
        let healthy: Vec<usize> =
            (0..self.config.n_pods).filter(|&p| self.pod_live(p, now, chaos)).collect();
        assert!(!healthy.is_empty(), "every pod quarantined: nowhere to re-place");
        let ranges = replace_assignments(stranded.len(), healthy.len());
        for (h, (lo, hi)) in ranges.into_iter().enumerate() {
            for stolen in stranded[lo..hi].iter().cloned() {
                self.replace(stolen, pod, healthy[h], now, chaos);
            }
        }
    }

    /// Jobs queued on an already-quarantined pod (placed before the
    /// detection, arrived after) drain continuously to the least-loaded
    /// healthy pod — nothing may rot behind a quarantine.
    fn drain_quarantined(&mut self, chaos: &FleetChaos) {
        for pod in 0..self.config.n_pods {
            if !self.wal.state().quarantined[pod] {
                continue;
            }
            while self.pods[pod].queued_jobs() > 0 {
                let now = self.pods[pod].clock_s();
                let Some(to) = self.least_loaded_live(now, chaos) else { return };
                let Some(stolen) = self.pods[pod].steal_earliest() else { break };
                self.replace(stolen, pod, to, now, chaos);
            }
        }
    }

    /// EDF-preserving work stealing: while some overloaded pod (queued
    /// work, no free device) coexists with an idle one (free device,
    /// empty queue), move the globally earliest-deadline queued job to
    /// the lowest-id idle pod. Terminates because each absorb occupies
    /// the thief (or queues on it, making it ineligible).
    fn rebalance(&mut self, chaos: &FleetChaos) {
        loop {
            let victim = (0..self.config.n_pods)
                .filter(|&p| {
                    self.pod_live(p, self.pods[p].clock_s(), chaos)
                        && self.pods[p].queued_jobs() > 0
                        && !self.pods[p].has_free_capacity()
                })
                .filter_map(|p| self.pods[p].earliest_effective_deadline().map(|d| (d, p)))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(_, p)| p);
            let thief = (0..self.config.n_pods).find(|&p| {
                self.pod_live(p, self.pods[p].clock_s(), chaos)
                    && self.pods[p].queued_jobs() == 0
                    && self.pods[p].has_free_capacity()
            });
            let (Some(victim), Some(thief)) = (victim, thief) else { return };
            let Some(stolen) = self.pods[victim].steal_earliest() else { return };
            let id = stolen.spec.id;
            let now = self.pods[victim].clock_s().max(self.pods[thief].clock_s());
            let epoch = self.wal.state().pod_epochs[thief];
            self.pods[thief].absorb_stolen(stolen, now, &chaos.pods[thief]);
            self.record(now, FleetRecord::Stolen { t_s: now, id, from: victim, to: thief, epoch });
        }
    }

    /// Is `p` a valid hand-off target at `now`: placeable in the fold
    /// (not quarantined, not behind a fence), not in degraded mode, and
    /// with a round-trip coordinator↔pod path. Without partitions this
    /// is `!quarantined`.
    fn pod_live(&self, p: usize, now: f64, chaos: &FleetChaos) -> bool {
        self.wal.state().placeable(p)
            && !self.membership.lease(p).degraded
            && chaos.partitions.round_trip_ok(p, now)
    }

    /// Live pod (per [`Self::pod_live`]) with the smallest queue, ties
    /// to the lowest id.
    fn least_loaded_live(&self, now: f64, chaos: &FleetChaos) -> Option<usize> {
        (0..self.config.n_pods)
            .filter(|&p| self.pod_live(p, now, chaos))
            .min_by_key(|&p| (self.pods[p].queued_jobs(), p))
    }

    fn finish(&mut self) -> FleetOutcome<C> {
        let mut by_pod = Vec::new();
        let mut pod_reports = Vec::new();
        for (i, pod) in self.pods.iter_mut().enumerate() {
            let outcome = pod.finish();
            by_pod.extend(outcome.events.into_iter().map(|e| (i, e)));
            pod_reports.push(outcome.report);
        }
        let events = std::mem::take(&mut self.events);
        let accepted = std::mem::take(&mut self.accepted);
        // The report spans the full history: the durable pre-crash
        // events a restore seeded (empty on a cold start) plus this
        // run's — matching the pods, whose restored reports also count
        // their durable past. The outcome's `events` stay post-restore.
        let mut full_history = std::mem::take(&mut self.prior_events);
        full_history.extend(events.iter().cloned());
        let n_tenants = self.config.pod.tenants.len();
        let report = FleetReport::build(&pod_reports, &full_history, self.wal.state(), n_tenants);
        FleetOutcome { report, events, pod_events: by_pod, pod_reports, accepted }
    }

    /// The coordinator's durable journal + snapshot bytes — what a
    /// simulated crash preserves and [`Self::restore`] rebuilds from.
    pub fn durable(&self) -> &DurableState {
        self.wal.durable()
    }

    /// One pod's durable journal (the service-layer WAL).
    pub fn pod_durable(&self, pod: usize) -> &DurableState {
        self.pods[pod].durable()
    }

    /// The coordinator WAL's shadow fold of everything journaled so
    /// far.
    pub fn wal_state(&self) -> &FleetState {
        self.wal.state()
    }

    /// Journals one coordinator decision. Everything else the decision
    /// produces is read off the record: the WAL folds it, the
    /// coordinator event is [`FleetRecord::event`], and the `fleet`-lane
    /// instant named after the record kind is emitted at the event's
    /// time while a session is active.
    fn record(&mut self, t_s: f64, rec: FleetRecord) {
        self.wal.append(t_s, &rec);
        let event = rec.event();
        if distmsm_telemetry::session::active() {
            let (name, args) = instant_of(&rec);
            self.instant(event.t_s, name, args);
        }
        self.events.push(event);
    }

    /// Emits a telemetry instant on the `fleet` lane (no-op unless a
    /// session is active).
    fn instant(&self, t_s: f64, name: &str, args: Vec<(String, String)>) {
        if distmsm_telemetry::session::active() {
            distmsm_telemetry::session::push_instant(distmsm_telemetry::Instant {
                name: name.to_string(),
                cat: "fleet".to_string(),
                lane: distmsm_telemetry::Lane::Fleet,
                t_s,
                args,
            });
        }
    }
}

/// The `fleet`-lane telemetry instant a coordinator record is traced
/// as: its name and arguments.
fn instant_of(rec: &FleetRecord) -> (&'static str, Vec<(String, String)>) {
    fn arg(key: &str, value: impl ToString) -> (String, String) {
        (key.to_string(), value.to_string())
    }
    match rec {
        FleetRecord::Placed { pod, .. } => ("fleet.placed", vec![arg("pod", pod)]),
        FleetRecord::Stolen { from, to, .. } => {
            ("fleet.stolen", vec![arg("from", from), arg("to", to)])
        }
        FleetRecord::Accepted { pod, .. } => ("fleet.verified", vec![arg("pod", pod)]),
        FleetRecord::Detected { pod, corruption, .. } => {
            ("fleet.byzantine-detected", vec![arg("pod", pod), arg("class", corruption)])
        }
        FleetRecord::Quarantined { pod, .. } => ("fleet.quarantined", vec![arg("pod", pod)]),
        FleetRecord::Replaced { from, to, .. } => {
            ("fleet.replaced", vec![arg("from", from), arg("to", to)])
        }
        FleetRecord::Fenced { pod, epoch, .. } => {
            ("fleet.fenced", vec![arg("pod", pod), arg("epoch", epoch)])
        }
        FleetRecord::Rejoined { pod, epoch, .. } => {
            ("fleet.rejoined", vec![arg("pod", pod), arg("epoch", epoch)])
        }
        FleetRecord::Discarded { id, pod, .. } => {
            ("fleet.discarded", vec![arg("pod", pod), arg("job", id)])
        }
    }
}

/// Deterministic 64-bit mix of a job id into a challenge seed.
fn mix(id: u64) -> u64 {
    let mut state = id ^ 0x6a09_e667_f3bc_c908;
    splitmix64(&mut state)
}
