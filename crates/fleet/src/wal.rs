//! Crash-consistent journaling for the fleet coordinator.
//!
//! The coordinator journals every decision it makes — placements,
//! steals, 2G2T acceptances, byzantine detections, quarantines and
//! re-placements — as one [`FleetRecord`] per decision in the same
//! handler that makes it, mirroring the service-layer WAL
//! ([`distmsm_service::wal`]). The same three rules keep recovery
//! exactly-once:
//!
//! * **Atomic compound records.** A 2G2T acceptance and the accepted
//!   result bytes ride one [`FleetRecord::Accepted`] record, so no
//!   torn write can strand an acceptance without the value it
//!   verified.
//! * **A shadow fold.** [`FleetWal`] (a [`distmsm_journal::Journaled`])
//!   folds every append through [`FleetState`]'s [`Fold::apply`] — the
//!   same function recovery replays over the whole journal — so a
//!   restore rebuilds exactly the coordinator state at the cut.
//! * **Replay-only counters.** Everything the fold tracks (ownership,
//!   quarantine flags, detections, accepted results) derives from the
//!   record stream alone; volatile coordinator state (`last_good`, the
//!   lease table) is legitimately rebuilt differently after a crash.
//!   The coordinator keeps no history beside the journal: its outcome's
//!   events are its records, decoded, and its accepted results the
//!   fold's.
//!
//! The placement prefix is journaled at frame time `0.0` — the
//! coordinator persists its whole placement plan before the run starts
//! — while each record's payload carries the decision's *event* time,
//! so a time-consistent crash cut never tears the plan apart.

use std::collections::BTreeMap;

use distmsm_journal::wire::{Blob, Labels};
use distmsm_journal::{recover, wire, DurableState, Fold, JournalError, Journaled, Recovery};

// ---------------------------------------------------------------------
// the wire format: every tag and field order, declared once
// ---------------------------------------------------------------------

/// The 2G2T corruption class labels, by wire tag.
const CORRUPTIONS: Labels =
    Labels(&["bit-flip", "swapped-shard", "zero-partial", "adaptive-shift"]);

// Version-free: the record tag is the first payload byte; the journal
// frame carries epoch/time/CRC.
wire! { enum FleetRecord {
    0 => Placed { t_s, id, pod, epoch },
    1 => Stolen { t_s, id, from, to, epoch },
    2 => Accepted { t_s, id, tenant, pod, attempts, epoch, result: Blob },
    3 => Detected { t_s, id, pod, corruption: CORRUPTIONS },
    4 => Quarantined { t_s, pod },
    5 => Replaced { t_s, id, from, to, epoch },
    6 => Fenced { t_s, pod, epoch },
    7 => Rejoined { t_s, pod, epoch },
    8 => Discarded { t_s, id, pod, epoch },
} }

// ---------------------------------------------------------------------
// records
// ---------------------------------------------------------------------

/// One durable coordinator decision, and the one vocabulary of it: the
/// journal holds it, the fold applies it, a fleet outcome's events are
/// the decoded records and its telemetry instant is named after its
/// kind. The [`Accepted`](Self::Accepted) compound record also carries
/// the verified result's canonical point bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum FleetRecord {
    /// Initial (or post-crash re-) placement of a job on a pod.
    Placed {
        /// Event time (the job's arrival, or the restore clock).
        t_s: f64,
        /// Job id.
        id: u64,
        /// Chosen pod.
        pod: usize,
        /// Fencing epoch of the receiving pod at placement. Every
        /// hand-off is stamped; the fold rejects stamps that disagree
        /// with the pod's current epoch.
        epoch: u64,
    },
    /// A work steal moved a queued job between pods.
    Stolen {
        /// Steal time.
        t_s: f64,
        /// Job id.
        id: u64,
        /// Victim pod.
        from: usize,
        /// Thief pod.
        to: usize,
        /// Fencing epoch of the thief pod at absorption.
        epoch: u64,
    },
    /// The 2G2T check accepted a result — event *and* value, atomic.
    Accepted {
        /// Acceptance time.
        t_s: f64,
        /// Job id.
        id: u64,
        /// Tenant index.
        tenant: usize,
        /// Accepting pod.
        pod: usize,
        /// Attempts the pod consumed.
        attempts: u32,
        /// Fencing epoch of the accepting pod — the fold refuses an
        /// acceptance stamped with anything but the pod's live epoch,
        /// so a completion from an expired lease can never land.
        epoch: u64,
        /// Canonical uncompressed bytes of the verified MSM value.
        result: Vec<u8>,
    },
    /// The 2G2T check rejected a result pair.
    Detected {
        /// Detection time.
        t_s: f64,
        /// Job id whose pair was rejected.
        id: u64,
        /// The lying pod.
        pod: usize,
        /// Corruption class label.
        corruption: &'static str,
    },
    /// A pod was quarantined fleet-wide.
    Quarantined {
        /// Quarantine time.
        t_s: f64,
        /// The quarantined pod.
        pod: usize,
    },
    /// A job was re-placed off a quarantined or fenced pod.
    Replaced {
        /// Re-placement time.
        t_s: f64,
        /// Job id.
        id: u64,
        /// Quarantined or fenced source pod.
        from: usize,
        /// Healthy destination pod.
        to: usize,
        /// Fencing epoch of the destination pod at absorption.
        epoch: u64,
    },
    /// A pod's heartbeat lease expired without renewal: its fencing
    /// epoch advances and every in-flight hand-off stamped with the old
    /// epoch is dead on arrival.
    Fenced {
        /// Fencing time (the lease expiry instant).
        t_s: f64,
        /// The fenced pod.
        pod: usize,
        /// The pod's *new* epoch (exactly old + 1).
        epoch: u64,
    },
    /// A fenced pod re-acquired its lease after the partition healed
    /// and passed anti-entropy rejoin. Jobs it still owns are
    /// re-stamped to the new epoch.
    Rejoined {
        /// Rejoin time.
        t_s: f64,
        /// The rejoining pod.
        pod: usize,
        /// The pod's current (post-fence) epoch.
        epoch: u64,
    },
    /// A stale job copy from a fenced epoch was discarded — the job was
    /// re-placed fleet-side while the pod was partitioned, so the
    /// pod-local copy (queued, in-flight, or a parked completion) must
    /// not produce a second acceptance.
    Discarded {
        /// Discard time.
        t_s: f64,
        /// Job id of the stale copy.
        id: u64,
        /// Pod holding the stale copy.
        pod: usize,
        /// The stale copy's placement epoch (strictly below the pod's
        /// current epoch).
        epoch: u64,
    },
}

impl FleetRecord {
    /// The decision's time (a placement's is the job's arrival).
    pub fn t_s(&self) -> f64 {
        match self {
            FleetRecord::Placed { t_s, .. }
            | FleetRecord::Stolen { t_s, .. }
            | FleetRecord::Accepted { t_s, .. }
            | FleetRecord::Detected { t_s, .. }
            | FleetRecord::Quarantined { t_s, .. }
            | FleetRecord::Replaced { t_s, .. }
            | FleetRecord::Fenced { t_s, .. }
            | FleetRecord::Rejoined { t_s, .. }
            | FleetRecord::Discarded { t_s, .. } => *t_s,
        }
    }
}

// ---------------------------------------------------------------------
// the fold
// ---------------------------------------------------------------------

/// One 2G2T-accepted result as the fold keeps it (canonical bytes; the
/// coordinator decodes back to a curve point on restore).
#[derive(Clone, Debug, PartialEq)]
pub struct AcceptedEntry {
    /// Job id.
    pub id: u64,
    /// Tenant index.
    pub tenant: usize,
    /// Accepting pod.
    pub pod: usize,
    /// Attempts consumed.
    pub attempts: u32,
    /// Canonical uncompressed result bytes.
    pub result: Vec<u8>,
}

/// The coordinator state a journal replay reconstructs: job ownership,
/// quarantine flags, the detection counter and every accepted result.
#[derive(Clone, Debug, PartialEq)]
pub struct FleetState {
    /// Latest decision time folded in (placements do not advance it).
    pub clock_s: f64,
    /// Epoch of the last record folded in.
    pub last_epoch: u64,
    /// Per-pod fleet-wide quarantine flags.
    pub quarantined: Vec<bool>,
    /// 2G2T detections so far.
    pub detections: u64,
    /// Current owner pod of every job the coordinator has placed.
    pub placed_on: BTreeMap<u64, usize>,
    /// Accepted results in acceptance order.
    pub accepted: Vec<AcceptedEntry>,
    /// Per-pod fencing epoch (starts at 1; each fence advances it by
    /// exactly one — the monotonicity `check_fleet_journal`'s epoch
    /// model replays independently).
    pub pod_epochs: Vec<u64>,
    /// Per-pod fence flag: `true` between a [`FleetRecord::Fenced`] and
    /// the matching [`FleetRecord::Rejoined`].
    pub fenced: Vec<bool>,
    /// The fencing epoch stamped on each job's *current* placement.
    /// A completion whose stamp trails the owner pod's live epoch is a
    /// zombie and must be discarded, never accepted.
    pub placed_epoch: BTreeMap<u64, u64>,
}

impl FleetState {
    fn bad(epoch: u64, detail: String) -> JournalError {
        JournalError::BadPayload { epoch, detail }
    }

    fn check_pod(&self, epoch: u64, pod: usize) -> Result<(), JournalError> {
        if pod >= self.quarantined.len() {
            return Err(Self::bad(
                epoch,
                format!("pod {pod} out of range for a {}-pod fleet", self.quarantined.len()),
            ));
        }
        Ok(())
    }

    /// The fencing check every hand-off and acceptance folds through: a
    /// stamp must equal the pod's live epoch, and the pod must not be
    /// behind a fence.
    fn check_stamp(&self, epoch: u64, pod: usize, stamp: u64, what: &str) -> Result<(), JournalError> {
        if self.fenced[pod] {
            return Err(Self::bad(epoch, format!("{what} on fenced pod {pod}")));
        }
        if stamp != self.pod_epochs[pod] {
            return Err(Self::bad(
                epoch,
                format!(
                    "{what} stamped epoch {stamp} but pod {pod} is at epoch {}",
                    self.pod_epochs[pod]
                ),
            ));
        }
        Ok(())
    }

    /// Whether `pod` may receive a placement or hand-off: neither
    /// quarantined nor behind a fence (the fold refuses a hand-off onto
    /// a fenced pod).
    pub(crate) fn placeable(&self, pod: usize) -> bool {
        !self.quarantined[pod] && !self.fenced[pod]
    }
}

impl Fold for FleetState {
    type Record = FleetRecord;
    /// The fleet's pod count.
    type Ctx = usize;

    fn new(&n_pods: &usize) -> Self {
        Self {
            clock_s: 0.0,
            last_epoch: 0,
            quarantined: vec![false; n_pods],
            detections: 0,
            placed_on: BTreeMap::new(),
            accepted: Vec::new(),
            pod_epochs: vec![1; n_pods],
            fenced: vec![false; n_pods],
            placed_epoch: BTreeMap::new(),
        }
    }

    /// Folds one record in. Semantic garbage — out-of-range pods, moves
    /// of unplaced jobs, double acceptance, double quarantine, stale or
    /// future fencing stamps, acceptance across an expired lease — is a
    /// typed error, never a panic.
    fn apply(
        &mut self,
        epoch: u64,
        rec: &FleetRecord,
        _n_pods: &usize,
    ) -> Result<(), JournalError> {
        match rec {
            FleetRecord::Placed { id, pod, epoch: stamp, .. } => {
                self.check_pod(epoch, *pod)?;
                self.check_stamp(epoch, *pod, *stamp, "placement")?;
                // Re-placement of an orphaned job at restore overwrites.
                self.placed_on.insert(*id, *pod);
                self.placed_epoch.insert(*id, *stamp);
            }
            FleetRecord::Stolen { t_s, id, from, to, epoch: stamp }
            | FleetRecord::Replaced { t_s, id, from, to, epoch: stamp } => {
                self.check_pod(epoch, *from)?;
                self.check_pod(epoch, *to)?;
                self.check_stamp(epoch, *to, *stamp, "hand-off")?;
                match self.placed_on.get(id) {
                    None => {
                        return Err(Self::bad(
                            epoch,
                            format!("job {id} moved before any placement"),
                        ))
                    }
                    Some(owner) if owner != from => {
                        return Err(Self::bad(
                            epoch,
                            format!("job {id} moved from pod {from} but pod {owner} owns it"),
                        ))
                    }
                    Some(_) => {}
                }
                self.placed_on.insert(*id, *to);
                self.placed_epoch.insert(*id, *stamp);
                self.clock_s = self.clock_s.max(*t_s);
            }
            FleetRecord::Accepted { t_s, id, tenant, pod, attempts, epoch: stamp, result } => {
                self.check_pod(epoch, *pod)?;
                self.check_stamp(epoch, *pod, *stamp, "acceptance")?;
                if self.accepted.iter().any(|a| a.id == *id) {
                    return Err(Self::bad(epoch, format!("job {id} accepted twice")));
                }
                self.accepted.push(AcceptedEntry {
                    id: *id,
                    tenant: *tenant,
                    pod: *pod,
                    attempts: *attempts,
                    result: result.clone(),
                });
                self.clock_s = self.clock_s.max(*t_s);
            }
            FleetRecord::Detected { t_s, pod, .. } => {
                self.check_pod(epoch, *pod)?;
                self.detections += 1;
                self.clock_s = self.clock_s.max(*t_s);
            }
            FleetRecord::Quarantined { t_s, pod } => {
                self.check_pod(epoch, *pod)?;
                if self.quarantined[*pod] {
                    return Err(Self::bad(epoch, format!("pod {pod} quarantined twice")));
                }
                self.quarantined[*pod] = true;
                self.clock_s = self.clock_s.max(*t_s);
            }
            FleetRecord::Fenced { t_s, pod, epoch: new_epoch } => {
                self.check_pod(epoch, *pod)?;
                if self.fenced[*pod] {
                    return Err(Self::bad(epoch, format!("pod {pod} fenced twice")));
                }
                if *new_epoch != self.pod_epochs[*pod] + 1 {
                    return Err(Self::bad(
                        epoch,
                        format!(
                            "fence advances pod {pod} to epoch {new_epoch}, expected {}",
                            self.pod_epochs[*pod] + 1
                        ),
                    ));
                }
                self.pod_epochs[*pod] = *new_epoch;
                self.fenced[*pod] = true;
                self.clock_s = self.clock_s.max(*t_s);
            }
            FleetRecord::Rejoined { t_s, pod, epoch: stamp } => {
                self.check_pod(epoch, *pod)?;
                if !self.fenced[*pod] {
                    return Err(Self::bad(
                        epoch,
                        format!("pod {pod} rejoined without a fence (lease renewed after expiry?)"),
                    ));
                }
                if *stamp != self.pod_epochs[*pod] {
                    return Err(Self::bad(
                        epoch,
                        format!(
                            "rejoin stamped epoch {stamp} but pod {pod} is at epoch {}",
                            self.pod_epochs[*pod]
                        ),
                    ));
                }
                self.fenced[*pod] = false;
                // Jobs the pod still owns survived the fence untouched:
                // re-stamp them to the new epoch so their (re-verified)
                // completions are acceptable again.
                for (id, owner) in &self.placed_on {
                    if owner == pod {
                        self.placed_epoch.insert(*id, *stamp);
                    }
                }
                self.clock_s = self.clock_s.max(*t_s);
            }
            FleetRecord::Discarded { t_s, id, pod, epoch: stamp } => {
                self.check_pod(epoch, *pod)?;
                if !self.placed_on.contains_key(id) {
                    return Err(Self::bad(
                        epoch,
                        format!("job {id} discarded before any placement"),
                    ));
                }
                if *stamp >= self.pod_epochs[*pod] {
                    return Err(Self::bad(
                        epoch,
                        format!(
                            "discard of job {id} stamped epoch {stamp}, not below pod {pod}'s \
                             epoch {}",
                            self.pod_epochs[*pod]
                        ),
                    ));
                }
                self.clock_s = self.clock_s.max(*t_s);
            }
        }
        self.last_epoch = epoch;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// the live WAL and recovery: the journal crate's generic kernel
// ---------------------------------------------------------------------

/// The coordinator's live write-ahead log: durable journal plus the
/// shadow [`FleetState`] every append folds through.
pub type FleetWal = Journaled<FleetState>;

/// Recovers a [`FleetState`] from durable coordinator bytes: every
/// record decoded and folded, once. A torn tail is dropped; any
/// complete-but-corrupt frame, undecodable payload or record the fold
/// refuses is a typed error.
pub fn recover_fleet_state(
    durable: &DurableState,
    n_pods: usize,
) -> Result<Recovery<FleetState>, JournalError> {
    recover(durable, &n_pods)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<FleetRecord> {
        vec![
            FleetRecord::Placed { t_s: 0.5, id: 7, pod: 1, epoch: 1 },
            FleetRecord::Placed { t_s: 0.6, id: 8, pod: 0, epoch: 1 },
            FleetRecord::Stolen { t_s: 1.0, id: 7, from: 1, to: 0, epoch: 1 },
            FleetRecord::Accepted {
                t_s: 2.0,
                id: 8,
                tenant: 3,
                pod: 0,
                attempts: 1,
                epoch: 1,
                result: vec![1, 2, 3, 4],
            },
            FleetRecord::Detected { t_s: 2.5, id: 7, pod: 0, corruption: "swapped-shard" },
            FleetRecord::Quarantined { t_s: 2.5, pod: 0 },
            FleetRecord::Replaced { t_s: 2.5, id: 7, from: 0, to: 1, epoch: 1 },
        ]
    }

    #[test]
    fn fold_tracks_ownership_and_detections() {
        let mut st = FleetState::new(&2);
        for (i, rec) in sample_records().iter().enumerate() {
            st.apply(i as u64 + 1, rec, &2).unwrap();
        }
        assert_eq!(st.placed_on[&7], 1, "7 replaced back onto pod 1");
        assert_eq!(st.placed_on[&8], 0);
        assert_eq!(st.detections, 1);
        assert_eq!(st.quarantined, vec![true, false]);
        assert_eq!(st.accepted.len(), 1);
        assert_eq!(st.accepted[0].result, vec![1, 2, 3, 4]);
        assert_eq!(st.clock_s, 2.5);
    }

    #[test]
    fn fold_rejects_semantic_garbage() {
        let mut st = FleetState::new(&2);
        assert!(matches!(
            st.apply(1, &FleetRecord::Placed { t_s: 0.0, id: 1, pod: 9, epoch: 1 }, &2),
            Err(JournalError::BadPayload { .. })
        ));
        assert!(matches!(
            st.apply(1, &FleetRecord::Stolen { t_s: 0.0, id: 1, from: 0, to: 1, epoch: 1 }, &2),
            Err(JournalError::BadPayload { .. })
        ));
        st.apply(1, &FleetRecord::Quarantined { t_s: 1.0, pod: 0 }, &2).unwrap();
        assert!(matches!(
            st.apply(2, &FleetRecord::Quarantined { t_s: 1.0, pod: 0 }, &2),
            Err(JournalError::BadPayload { .. })
        ));
        let acc = FleetRecord::Accepted {
            t_s: 1.0,
            id: 4,
            tenant: 0,
            pod: 1,
            attempts: 1,
            epoch: 1,
            result: vec![9],
        };
        st.apply(3, &acc, &2).unwrap();
        assert!(matches!(st.apply(4, &acc, &2), Err(JournalError::BadPayload { .. })));
    }

    #[test]
    fn fold_tracks_fencing_epochs_and_rejoin_restamps_owned_jobs() {
        let mut st = FleetState::new(&2);
        st.apply(1, &FleetRecord::Placed { t_s: 0.5, id: 7, pod: 1, epoch: 1 }, &2).unwrap();
        st.apply(2, &FleetRecord::Placed { t_s: 0.6, id: 9, pod: 1, epoch: 1 }, &2).unwrap();
        st.apply(3, &FleetRecord::Fenced { t_s: 10.0, pod: 1, epoch: 2 }, &2).unwrap();
        assert_eq!(st.pod_epochs, vec![1, 2]);
        assert_eq!(st.fenced, vec![false, true]);
        // Job 7 is re-placed away while pod 1 is fenced; job 9 stays.
        st.apply(4, &FleetRecord::Replaced { t_s: 14.0, id: 7, from: 1, to: 0, epoch: 1 }, &2)
            .unwrap();
        assert_eq!(st.placed_epoch[&7], 1, "stamped with the destination pod's epoch");
        assert_eq!(st.placed_epoch[&9], 1, "still the stale pre-fence stamp");
        st.apply(5, &FleetRecord::Discarded { t_s: 16.0, id: 7, pod: 1, epoch: 1 }, &2).unwrap();
        st.apply(6, &FleetRecord::Rejoined { t_s: 16.0, pod: 1, epoch: 2 }, &2).unwrap();
        assert_eq!(st.fenced, vec![false, false]);
        assert_eq!(st.placed_epoch[&9], 2, "rejoin re-stamps jobs the pod still owns");
        assert_eq!(st.placed_epoch[&7], 1, "job 7 left pod 1 and keeps its own stamp");
    }

    /// Golden pin of the fenced-steal rejection path: every hand-off
    /// onto a fenced pod, every stale-epoch stamp, every acceptance
    /// across an expired lease, every out-of-order fence/rejoin folds
    /// to a typed error with a stable message prefix.
    #[test]
    fn fold_rejects_fenced_hand_offs_and_stale_epoch_stamps() {
        let mut st = FleetState::new(&2);
        st.apply(1, &FleetRecord::Placed { t_s: 0.5, id: 7, pod: 1, epoch: 1 }, &2).unwrap();
        st.apply(2, &FleetRecord::Placed { t_s: 0.5, id: 8, pod: 0, epoch: 1 }, &2).unwrap();
        st.apply(3, &FleetRecord::Fenced { t_s: 10.0, pod: 1, epoch: 2 }, &2).unwrap();
        let mut rejoined = st.clone();
        rejoined.apply(4, &FleetRecord::Rejoined { t_s: 20.0, pod: 1, epoch: 2 }, &2).unwrap();
        let cases: Vec<(&FleetState, FleetRecord, &str)> = vec![
            // Steal ONTO the fenced pod: dead on arrival.
            (
                &st,
                FleetRecord::Stolen { t_s: 11.0, id: 8, from: 0, to: 1, epoch: 2 },
                "hand-off on fenced pod 1",
            ),
            // Acceptance from the fenced pod (expired lease): refused.
            (
                &st,
                FleetRecord::Accepted {
                    t_s: 11.0,
                    id: 7,
                    tenant: 0,
                    pod: 1,
                    attempts: 1,
                    epoch: 2,
                    result: vec![1],
                },
                "acceptance on fenced pod 1",
            ),
            // Stale stamp on a live pod: the zombie hand-off class.
            (
                &st,
                FleetRecord::Placed { t_s: 11.0, id: 9, pod: 0, epoch: 0 },
                "placement stamped epoch 0 but pod 0 is at epoch 1",
            ),
            // Fence must advance by exactly one.
            (
                &st,
                FleetRecord::Fenced { t_s: 11.0, pod: 0, epoch: 5 },
                "fence advances pod 0 to epoch 5, expected 2",
            ),
            // Rejoin without a fence = a lease renewed after expiry.
            (
                &st,
                FleetRecord::Rejoined { t_s: 11.0, pod: 0, epoch: 1 },
                "pod 0 rejoined without a fence",
            ),
            // A move whose `from` is not the owner (double-absorb).
            (
                &st,
                FleetRecord::Stolen { t_s: 11.0, id: 8, from: 1, to: 0, epoch: 1 },
                "job 8 moved from pod 1 but pod 0 owns it",
            ),
            // Discard must stamp a strictly older epoch.
            (
                &st,
                FleetRecord::Discarded { t_s: 11.0, id: 7, pod: 1, epoch: 2 },
                "discard of job 7 stamped epoch 2, not below pod 1's epoch 2",
            ),
            // A completion stamped before the fence, surfacing after the
            // rejoin: the stale-epoch acceptance.
            (
                &rejoined,
                FleetRecord::Accepted {
                    t_s: 21.0,
                    id: 7,
                    tenant: 0,
                    pod: 1,
                    attempts: 1,
                    epoch: 1,
                    result: vec![1],
                },
                "acceptance stamped epoch 1 but pod 1 is at epoch 2",
            ),
        ];
        for (state, rec, want) in cases {
            match state.clone().apply(5, &rec, &2) {
                Err(JournalError::BadPayload { detail, .. }) => {
                    assert!(
                        detail.starts_with(want),
                        "record {rec:?}: detail {detail:?} should start with {want:?}"
                    );
                }
                other => panic!("record {rec:?} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_record_cut_recovers_the_live_shadow_fold() {
        let mut wal = FleetWal::new(2);
        let mut shadows = vec![wal.state().clone()];
        for rec in sample_records() {
            let t = if matches!(rec, FleetRecord::Placed { .. }) { 0.0 } else { rec.t_s() };
            wal.append(t, &rec);
            shadows.push(wal.state().clone());
        }
        let records = distmsm_journal::decode_records::<FleetRecord>(wal.durable()).unwrap();
        assert_eq!(records, sample_records());

        // A crash after any k appends recovers the live shadow fold as
        // it stood after the k-th, from all k records.
        for (k, shadow) in shadows.iter().enumerate() {
            let rec = recover_fleet_state(&wal.durable().truncate_records(k), 2).unwrap();
            assert_eq!(&rec.state, shadow, "cut after {k} appends");
            assert_eq!(rec.replayed_records, k as u64);
        }
    }
}
