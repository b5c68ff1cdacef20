//! The fleet coordinator: global placement over N pods, EDF-preserving
//! work stealing, and 2G2T-verified acceptance of every pod result.
//!
//! Each pod is a full [`ProverService`] (the PR 5 scheduler — admission
//! control, circuit breakers, degraded dispatch) advanced in lock-step
//! on the shared simulated clock: the coordinator always steps the pod
//! with the globally earliest pending event, so cross-pod interactions
//! (steals, re-placements) can never be stamped in another pod's past.
//!
//! Pods are *untrusted*: every completion is checked against its twin
//! over the coordinator's twin bases ([`crate::outsource`]) before
//! acceptance. A detection quarantines the pod fleet-wide — no further
//! placements or steals — and re-places its stranded queue across the
//! healthy pods with the verifier-proved
//! [`distmsm::replace_assignments`] quota plan.

use std::collections::{BTreeMap, BTreeSet};

use distmsm::replace_assignments;
use distmsm_comms::PartitionSchedule;
use distmsm_ec::serialize::{point_from_uncompressed, point_to_uncompressed};
use distmsm_ec::{Curve, XyzzPoint};
use distmsm_gpu_sim::FaultKind;
use distmsm_journal::{decode_records, DurableState, JournalError};
use distmsm_service::wal as service_wal;
use distmsm_service::{
    ChaosSchedule, CompletedJob, DeviceFaultWindow, JobPhase, JobSpec, ProverService,
    ServiceConfig, ServiceEvent, ServiceReport, ServiceState, StolenJob,
};

use crate::membership::{Membership, MembershipAction};
use crate::outsource::{Corruption, OutsourcedResult, TwinKey};
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
    /// Seed of the coordinator's 2G2T twin key.
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

/// Everything a fleet run produced, replayable and checkable. Every
/// stream is read off a journal that never compacts, so after a restore
/// it starts with the durable pre-crash history.
#[derive(Debug)]
pub struct FleetOutcome<C: Curve> {
    /// Aggregated fleet report (byte-stable JSON, renderable).
    pub report: FleetReport,
    /// Coordinator decisions in order: the coordinator journal's
    /// records, decoded.
    pub events: Vec<FleetRecord>,
    /// Merged pod event streams (each pod's journal decoded), tagged
    /// with the pod index.
    pub pod_events: Vec<(usize, ServiceEvent)>,
    /// Per-pod service reports.
    pub pod_reports: Vec<ServiceReport>,
    /// Jobs whose results passed the outsourcing check, in acceptance
    /// order: the fold's accepted results decoded.
    pub accepted: Vec<AcceptedJob<C>>,
}

/// How a crashed fleet got back on its feet: per-layer recovery
/// accounting plus the modelled cost comparison against recomputing
/// the lost history from scratch.
#[derive(Clone, Debug)]
pub struct FleetRecoveryInfo {
    /// Torn frame bytes dropped from the coordinator journal tail.
    pub coordinator_torn_tail_bytes: usize,
    /// Durable pod completions whose acceptance was not durable: each
    /// was re-run through the 2G2T check before use.
    pub reverified: u64,
    /// Of the re-verified completions, how many passed and were
    /// accepted at restore (the rest fell back to re-execution).
    pub reaccepted: u64,
    /// Jobs whose ownership was torn by the cut and re-placed at
    /// restore: a steal's hand-off survived but not its absorption, the
    /// owner was quarantined, or a pod holds the job under a hand-off
    /// the coordinator's journal lost.
    pub replaced_jobs: u64,
    /// Modelled total recovery cost: coordinator + every pod (one
    /// replay of its whole journal each).
    pub recovery_cost_s: f64,
    /// Modelled cost of recomputing from scratch — the maximum pod
    /// clock at the crash.
    pub scratch_cost_s: f64,
}

/// The global placement layer over `n_pods` untrusted pods.
///
/// Ownership, quarantine flags, the detection count and the accepted
/// results live only in the WAL's fold ([`Self::wal_state`]); every
/// decision goes through one `record`, which journals it and traces its
/// telemetry instant. The journal is the one history: the outcome's
/// events and accepted results are decoded from it.
pub struct FleetCoordinator<C: Curve> {
    config: FleetConfig,
    pods: Vec<ProverService<C>>,
    specs: BTreeMap<u64, JobSpec<C>>,
    last_good: Option<OutsourcedResult<C>>,
    /// The 2G2T secret of the jobs' base set, derived from `check_seed`
    /// and grown over the largest job at placement (and at restore).
    key: TwinKey<C>,
    wal: FleetWal,
    /// One heartbeat lease per pod. Without partition windows no lease
    /// lapses, so every fencing check below passes.
    membership: Membership,
    /// Per pod: stale job copies left behind by a post-fence
    /// re-placement, keyed by job id with the copy's placement epoch.
    /// Consumed by rejoin's `fence_discard` pass and by the zombie
    /// guard in [`Self::check_completion`].
    stale_copies: Vec<BTreeMap<u64, u64>>,
    /// Hand-offs waiting for a live pod, with their source pod: jobs
    /// lifted off a pod while every other pod was quarantined, fenced,
    /// degraded or partitioned.
    homeless: Vec<(usize, StolenJob<C>)>,
}

impl<C: Curve> FleetCoordinator<C> {
    /// Builds a fleet of `config.n_pods` identical pods.
    pub fn new(config: FleetConfig) -> Self {
        assert!(config.n_pods > 0, "a fleet needs at least one pod");
        let pods =
            (0..config.n_pods).map(|_| ProverService::new(config.pod.clone())).collect();
        let wal = FleetWal::new(config.n_pods);
        Self {
            specs: BTreeMap::new(),
            last_good: None,
            key: TwinKey::generate(config.check_seed, 0).with_tables(),
            membership: Membership::new(config.n_pods),
            stale_copies: vec![BTreeMap::new(); config.n_pods],
            homeless: Vec::new(),
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
    ///   durable are untrusted: each re-runs the twin check before use,
    ///   accepting on a pass and falling back to re-execution on a
    ///   healthy pod otherwise. The twin key is not journaled: it is
    ///   re-derived from `config.check_seed`, and jobs off its base set
    ///   are refused as [`Self::run`] refuses them.
    /// * A pod writes a hand-off (its victim's tombstone, its thief's
    ///   absorption) before the coordinator journals it, so a cut can
    ///   keep a job on a pod the coordinator's fold does not name as
    ///   owner. The pods' durable copies win: ownership moves to the pod
    ///   holding the job (live, else completed) with a journaled
    ///   `Replaced`, before any completion is re-verified.
    /// * Every journal continues from its durable prefix, so the outcome
    ///   of [`Self::resume`] starts with the pre-crash history.
    ///
    /// # Errors
    ///
    /// Any corrupt durable state in any journal — CRC mismatch,
    /// missing/duplicate epoch, an undecodable payload or a record its
    /// fold refuses — is a typed [`JournalError`]; torn tails alone are
    /// tolerated.
    ///
    /// # Panics
    ///
    /// Panics when the durable slices don't match `config.n_pods`, or
    /// when no pod is placeable (every one quarantined or fenced) and a
    /// job has nowhere to go.
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
        fleet.key.extend_to(largest(jobs));
        let jobs: Vec<&JobSpec<C>> = jobs.iter().filter(|job| fleet.covered(job)).collect();
        let rec = fleet_wal::recover_fleet_state(coordinator, n_pods)?;
        let coordinator_cost_s = service_wal::recovery_cost_s(&rec);
        let state = &rec.state;

        // Pod folds first: the durable truth about which pod owns what.
        // Each pod journal is decoded here, once; its service restores
        // from this fold.
        let shape = fleet.config.pod.shape();
        let recovered = pod_durables
            .iter()
            .map(|durable| service_wal::recover_state(durable, &shape))
            .collect::<Result<Vec<_>, _>>()?;
        let folds: Vec<&ServiceState> = recovered.iter().map(|r| &r.state).collect();

        let mut spec_lists: Vec<Vec<JobSpec<C>>> = vec![Vec::new(); n_pods];
        let mut replacements: Vec<(&JobSpec<C>, usize)> = Vec::new();
        let mut torn_steals: Vec<(JobSpec<C>, u32)> = Vec::new();
        for &job in &jobs {
            let knowing: Vec<usize> =
                (0..n_pods).filter(|&p| folds[p].jobs.contains_key(&job.id)).collect();
            if knowing.is_empty() {
                // Never durably admitted anywhere: (re-)arrives at the
                // recorded owner, or the placeable pod with the fewest
                // specs when the owner is not placeable or the placement
                // itself was lost.
                let owner = state.placed_on.get(&job.id).copied().filter(|&p| state.placeable(p));
                let target = owner.unwrap_or_else(|| {
                    let t = least_loaded_placeable(state, n_pods, |p| spec_lists[p].len());
                    replacements.push((job, t));
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

        // Where the pods durably hold each job: a live copy (queued or
        // in flight) first, else a completed one.
        let mut live_copies: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        let mut done_copies: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (p, fold) in folds.iter().enumerate() {
            for (&id, e) in &fold.jobs {
                let copies = match e.phase {
                    JobPhase::Queued { .. } | JobPhase::InFlight { .. } => &mut live_copies,
                    JobPhase::Done => &mut done_copies,
                    _ => continue,
                };
                copies.entry(id).or_default().push(p);
            }
        }

        let mut pod_infos = Vec::with_capacity(n_pods);
        for (p, (durable, rec)) in pod_durables.iter().zip(recovered).enumerate() {
            let config = fleet.config.pod.clone();
            let (svc, info) = ProverService::restore_recovered(config, &spec_lists[p], durable, rec)?;
            fleet.pods[p] = svc;
            pod_infos.push(info);
        }

        // The outcome is read off the journal: an accepted result that
        // does not decode is refused here, before anything runs (every
        // record already decoded in the recovery above).
        decode_accepted::<C>(state)?;
        fleet.specs = jobs.iter().map(|&j| (j.id, j.clone())).collect();
        fleet.wal = FleetWal::resume(coordinator.reopen()?, rec.state, n_pods);

        // The lease table is volatile: pods the durable fold has fenced
        // take the rejoin path, not a second fence.
        let now = fleet.pods.iter().map(|p| p.clock_s()).fold(0.0, f64::max);
        for p in (0..n_pods).filter(|&p| fleet.wal.state().fenced[p]) {
            fleet.membership.restore_fence(p, now);
        }

        // Journal the restore-time re-placements (the fold must track
        // the new ownership, exactly like a live placement). Like a
        // live placement, one takes effect at the job's arrival when
        // that is still ahead.
        for &(job, pod) in &replacements {
            let epoch = fleet.wal.state().pod_epochs[pod];
            let t_s = now.max(job.arrival_s);
            fleet.record(now, FleetRecord::Placed { t_s, id: job.id, pod, epoch });
        }
        // Hand-offs the pods made durable but the coordinator's journal
        // lost: ownership follows the pod holding the job. The lost
        // record came after every record the fold holds, so its
        // decision time is stamped no earlier than the fold's clock.
        let mut reconciled = 0u64;
        for &job in &jobs {
            let state = fleet.wal.state();
            let holders = live_copies.get(&job.id).or_else(|| done_copies.get(&job.id));
            let (Some(&from), Some(holders)) = (state.placed_on.get(&job.id), holders) else {
                continue;
            };
            let to = holders[0];
            let accepted = state.accepted.iter().any(|a| a.id == job.id);
            if accepted || holders.contains(&from) || !state.placeable(to) {
                continue;
            }
            let (t_s, epoch) = (state.clock_s, state.pod_epochs[to]);
            fleet.record(now, FleetRecord::Replaced { t_s, id: job.id, from, to, epoch });
            reconciled += 1;
        }
        let n_torn = torn_steals.len() as u64;
        for (spec, attempt) in torn_steals {
            // Same placeable test as above: the fold refuses a hand-off
            // onto a fenced pod.
            let state = fleet.wal.state();
            let to = least_loaded_placeable(state, n_pods, |p| fleet.pods[p].queued_jobs());
            let from = state.placed_on.get(&spec.id).copied().unwrap_or(to);
            let stolen = StolenJob { spec, attempt, effective_deadline_s: now };
            fleet.replace(stolen, from, to, now, chaos);
        }

        // Durable completions whose acceptance was not durable are
        // untrusted restored partials: re-run the 2G2T check before
        // use. Completions already accepted, or already rejected and
        // re-placed (the job is live on some pod), are skipped.
        let accepted = &fleet.wal.state().accepted;
        let accepted_ids: BTreeSet<u64> = accepted.iter().map(|a| a.id).collect();
        let accepted_before = accepted.len();
        let mut drained: Vec<(usize, CompletedJob<C>)> = Vec::new();
        for p in 0..n_pods {
            for done in fleet.pods[p].drain_completed() {
                drained.push((p, done));
            }
        }
        let mut reverified = 0u64;
        for (p, done) in drained {
            if accepted_ids.contains(&done.id) || live_copies.contains_key(&done.id) {
                continue;
            }
            reverified += 1;
            fleet.check_completion(p, done, chaos);
        }
        let reaccepted = (fleet.wal.state().accepted.len() - accepted_before) as u64;
        fleet.instant(
            now,
            "fleet.recovery:restored",
            vec![
                ("reverified".into(), reverified.to_string()),
                ("reaccepted".into(), reaccepted.to_string()),
                ("replaced".into(), replacements.len().to_string()),
            ],
        );

        let info = FleetRecoveryInfo {
            coordinator_torn_tail_bytes: rec.torn_tail_bytes,
            reverified,
            reaccepted,
            replaced_jobs: replacements.len() as u64 + n_torn + reconciled,
            recovery_cost_s: coordinator_cost_s
                + pod_infos.iter().map(|i| i.recovery_cost_s).sum::<f64>(),
            scratch_cost_s: pod_infos.iter().map(|i| i.scratch_cost_s).fold(0.0, f64::max),
        };
        Ok((fleet, info))
    }

    /// Runs a full fleet trace: greedy least-load placement, lock-step
    /// pod interleaving in global time order, work stealing, 2G2T
    /// verification of every completion, quarantine + re-placement on
    /// detection.
    ///
    /// A job whose points are not a prefix of the twin key's base set
    /// (the generator multiples) has no twin query, so it can never be
    /// accepted: it is refused before placement, with a `fleet.refused`
    /// instant, and never runs.
    ///
    /// Work that must leave a pod while no other pod is live waits for
    /// the next membership transition; if chaos quarantines *every*
    /// pod it waits forever, and the run ends with those jobs
    /// unterminated — a conservation finding, not a silent success.
    ///
    /// # Panics
    ///
    /// Panics when `chaos` does not cover every pod.
    pub fn run(&mut self, jobs: Vec<JobSpec<C>>, chaos: &FleetChaos) -> FleetOutcome<C> {
        assert_eq!(chaos.pods.len(), self.config.n_pods, "chaos must cover every pod");
        self.place(jobs);
        self.run_loop(chaos);
        self.finish()
    }

    /// Drains a restored fleet to quiescence: the [`Self::run`] loop
    /// without the placement phase (ownership came back from the
    /// journals). The returned outcome is the whole run: its streams and
    /// accepted results are decoded from journals that continue the
    /// durable prefixes, so they start with the pre-crash history.
    ///
    /// # Panics
    ///
    /// Panics when `chaos` does not cover every pod.
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
                    for (from, stolen) in std::mem::take(&mut self.homeless) {
                        self.rehome(stolen, from, tm, chaos);
                    }
                    continue;
                }
                (None, None) => break,
            };
            self.pods[pod].step(&chaos.pods[pod]);
            let now = self.pods[pod].clock_s();
            // A degraded pod's refusal hands the job back: the client
            // retries through the coordinator, which re-places it at
            // once. The pod never admitted it, so no copy stays behind.
            for spec in self.pods[pod].drain_refused() {
                let stolen = StolenJob { spec, attempt: 0, effective_deadline_s: now };
                self.rehome(stolen, pod, now, chaos);
            }
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
    /// job the pod holds a live copy of — queued, in flight, or
    /// completed with its result parked behind the partition — that the
    /// fleet has not accepted is re-placed on a live pod with a fresh
    /// retry budget. The partitioned copy cannot be cancelled; it is
    /// discarded by fencing whenever it surfaces. A job the pod failed,
    /// shed or refused at the door is fleet-terminal and never re-runs,
    /// and one that has not arrived yet is left to its arrival (refused
    /// there while the pod is degraded, and re-placed then).
    /// The copies are read off the pod's journal fold: durable storage
    /// outlives a NIC partition, as crash recovery already assumes.
    fn replace_orphans(&mut self, pod: usize, t_s: f64, chaos: &FleetChaos) {
        let accepted_ids: BTreeSet<u64> = self.wal.state().accepted.iter().map(|a| a.id).collect();
        let copies = &self.pods[pod].wal_state().jobs;
        let orphans: Vec<u64> = self
            .wal
            .state()
            .placed_on
            .iter()
            .filter(|&(id, &owner)| owner == pod && !accepted_ids.contains(id))
            .filter(|&(id, _)| {
                copies.get(id).is_some_and(|e| {
                    matches!(
                        e.phase,
                        JobPhase::Queued { .. } | JobPhase::InFlight { .. } | JobPhase::Done
                    )
                })
            })
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
    /// is re-verified through the 2G2T twin check before acceptance;
    /// one for a job the fleet re-placed or already accepted is
    /// discarded by fencing epoch. Stale *queued* copies of
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
        self.key.extend_to(largest(&jobs));
        jobs.retain(|job| self.covered(job));
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

    /// Is `job` on the twin key's base set? A job that is not has no twin
    /// query and could never be accepted: it is refused before placement
    /// (a `fleet.refused` instant) and never runs.
    fn covered(&self, job: &JobSpec<C>) -> bool {
        let covered = self.key.covers(0, &job.instance.points);
        if !covered {
            let args = vec![("job".into(), job.id.to_string())];
            self.instant(job.arrival_s, "fleet.refused", args);
        }
        covered
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
        let already = st.accepted.iter().any(|a| a.id == done.id);
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
        let instance = &self.specs.get(&done.id).expect("completion for unknown job").instance;
        // The pod "returns" (S1, S2): S1 is the service result, S2 the
        // twin it also executed over the twin bases. The coordinator
        // stands in for that execution off the key's twin tables, over
        // (T, x) alone — never from S1, k or ρ — so a wrong engine S1
        // still fails the check; an honest pod's S2 is the same group
        // element whatever computed it. Placement refused every job off
        // the key's bases.
        let Some(r2) = self.key.twin_msm(0, instance) else { return };
        let pair = OutsourcedResult { r1: done.result, r2 };
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
        if self.key.verify(0, instance, &pair) {
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
            return;
        }
        // Invariant: 2G2T has no false positives — for an honest pair
        // the twin identity S2 = k·S1 + ⟨x, ρ⟩·G holds algebraically, so
        // a rejection implies the chaos schedule marked this pod
        // byzantine at `now`.
        let class = chaos
            .byzantine_class(pod, now)
            .expect("2G2T check rejected an honest pod result");
        let corruption = class.label();
        let spec = self.specs[&done.id].clone();
        self.record(now, FleetRecord::Detected { t_s: now, id: done.id, pod, corruption });
        if !self.wal.state().quarantined[pod] {
            self.quarantine(pod, now, chaos);
        }
        // Re-place the rejected job itself. The 2G2T rejection is a new
        // failure class, not a pod-local fault: the retry budget is NOT
        // charged, so the job re-enters with its old attempt count.
        let stolen = StolenJob {
            spec,
            attempt: done.attempts.saturating_sub(1),
            effective_deadline_s: now,
        };
        self.rehome(stolen, pod, now, chaos);
    }

    /// Hands a job lifted off pod `from` to the least-loaded live pod,
    /// or parks it until a membership transition leaves one live.
    fn rehome(&mut self, stolen: StolenJob<C>, from: usize, now: f64, chaos: &FleetChaos) {
        match self.least_loaded_live(now, chaos) {
            Some(to) => self.replace(stolen, from, to, now, chaos),
            None => self.homeless.push((from, stolen)),
        }
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
        if healthy.is_empty() {
            self.homeless.extend(stranded.into_iter().map(|stolen| (pod, stolen)));
            return;
        }
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

    /// Reads the outcome off the journals. None of them compacts, so
    /// each decoded stream is the full history, a restored fleet's
    /// durable past included.
    fn finish(&mut self) -> FleetOutcome<C> {
        let mut pod_reports = Vec::with_capacity(self.pods.len());
        let pod_events = (0..self.pods.len())
            .flat_map(|i| {
                let outcome = self.pods[i].finish();
                pod_reports.push(outcome.report);
                outcome.events.into_iter().map(move |e| (i, e))
            })
            .collect();
        let state = self.wal.state();
        let (events, accepted) = decode_records::<FleetRecord>(self.wal.durable())
            .and_then(|events| Ok((events, decode_accepted(state)?)))
            .expect("the coordinator decodes its own journal");
        let n_tenants = self.config.pod.tenants.len();
        let report = FleetReport::build(&pod_reports, &events, state, n_tenants);
        FleetOutcome { report, events, pod_events, pod_reports, accepted }
    }

    /// The coordinator's durable journal bytes — what a
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
    /// produces is read off the record: the WAL folds it, the outcome
    /// decodes it as one of its events, and the `fleet`-lane instant
    /// named after the record kind is emitted at the decision's time
    /// ([`FleetRecord::t_s`]) while a session is active.
    fn record(&mut self, t_s: f64, rec: FleetRecord) {
        self.wal.append(t_s, &rec);
        if distmsm_telemetry::session::active() {
            let (name, args) = instant_of(&rec);
            self.instant(rec.t_s(), name, args);
        }
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

/// The placeable pod (neither quarantined nor fenced in `state`) with
/// the smallest `load`, ties to the lowest id.
///
/// # Panics
///
/// Panics when no pod is placeable: a restored job has nowhere to go.
fn least_loaded_placeable(
    state: &FleetState,
    n_pods: usize,
    load: impl Fn(usize) -> usize,
) -> usize {
    (0..n_pods)
        .filter(|&p| state.placeable(p))
        .min_by_key(|&p| load(p))
        .expect("no placeable pod: nowhere to re-place")
}

/// The fold's accepted results, decoded back to curve points.
///
/// # Errors
///
/// A result that does not decode is a typed [`JournalError::BadPayload`].
fn decode_accepted<C: Curve>(state: &FleetState) -> Result<Vec<AcceptedJob<C>>, JournalError> {
    let decode = |a: &fleet_wal::AcceptedEntry| {
        let affine = point_from_uncompressed::<C>(&a.result).ok_or_else(|| {
            JournalError::BadPayload {
                epoch: state.last_epoch,
                detail: format!("accepted job {} carries an undecodable result point", a.id),
            }
        })?;
        let result = affine.to_xyzz();
        Ok(AcceptedJob { id: a.id, tenant: a.tenant, pod: a.pod, result, attempts: a.attempts })
    };
    state.accepted.iter().map(decode).collect()
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

/// The most points any of `jobs` has: the twin key covers that many.
fn largest<C: Curve>(jobs: &[JobSpec<C>]) -> usize {
    jobs.iter().map(|job| job.instance.len()).max().unwrap_or(0)
}
