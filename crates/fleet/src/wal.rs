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
//!   torn write can strand a `Verified` event without the value it
//!   verified.
//! * **A shadow fold.** [`FleetWal`] (a [`distmsm_journal::Journaled`])
//!   folds every append through [`FleetState`]'s [`Fold::apply`] — the
//!   same function recovery replays — so a snapshot (the encoded
//!   shadow) equals a from-scratch replay by construction.
//! * **Replay-only counters.** Everything the fold tracks (ownership,
//!   quarantine flags, detections, accepted results) derives from the
//!   record stream alone; volatile coordinator state (`last_good`, the
//!   lease table) is legitimately rebuilt differently after a crash.
//!   The coordinator keeps no history beside the journal: its outcome
//!   stream is [`decode_fleet_events`], its accepted results the fold's.
//!
//! The placement prefix is journaled at frame time `0.0` — the
//! coordinator persists its whole placement plan before the run starts
//! — while each record's payload carries the decision's *event* time,
//! so a time-consistent crash cut never tears the plan apart.

use std::collections::BTreeMap;

use distmsm_journal::wire::{get_seq, put_seq, Blob, ByteReader, ByteWriter, Labels};
use distmsm_journal::{
    decode_records, recover, wire, DurableState, Fold, JournalError, Journaled, Recovery, Wire,
    WireError,
};

use crate::fleet::{FleetEvent, FleetEventKind};

// ---------------------------------------------------------------------
// the wire format: every tag and field order, declared once
// ---------------------------------------------------------------------

/// The 2G2T corruption class labels, by wire tag.
const CORRUPTIONS: Labels = Labels(&["bit-flip", "swapped-shard", "zero-partial"]);

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
wire! { struct AcceptedEntry { id, tenant, pod, attempts, result: Blob } }

// ---------------------------------------------------------------------
// records
// ---------------------------------------------------------------------

/// One durable coordinator decision. Each record reconstructs exactly
/// one [`FleetEvent`]; the [`Accepted`](Self::Accepted) compound record
/// additionally carries the verified result's canonical point bytes.
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
    /// The coordinator event this record witnesses — what
    /// [`decode_fleet_events`], and so every fleet outcome stream, is
    /// made of.
    pub fn event(&self) -> FleetEvent {
        match self {
            FleetRecord::Placed { t_s, id, pod, .. } => {
                FleetEvent { t_s: *t_s, job: Some(*id), kind: FleetEventKind::Placed { pod: *pod } }
            }
            FleetRecord::Stolen { t_s, id, from, to, .. } => FleetEvent {
                t_s: *t_s,
                job: Some(*id),
                kind: FleetEventKind::Stolen { from: *from, to: *to },
            },
            FleetRecord::Accepted { t_s, id, pod, .. } => FleetEvent {
                t_s: *t_s,
                job: Some(*id),
                kind: FleetEventKind::Verified { pod: *pod },
            },
            FleetRecord::Detected { t_s, id, pod, corruption } => FleetEvent {
                t_s: *t_s,
                job: Some(*id),
                kind: FleetEventKind::ByzantineDetected { pod: *pod, corruption },
            },
            FleetRecord::Quarantined { t_s, pod } => FleetEvent {
                t_s: *t_s,
                job: None,
                kind: FleetEventKind::Quarantined { pod: *pod },
            },
            FleetRecord::Replaced { t_s, id, from, to, .. } => FleetEvent {
                t_s: *t_s,
                job: Some(*id),
                kind: FleetEventKind::Replaced { from: *from, to: *to },
            },
            FleetRecord::Fenced { t_s, pod, epoch } => FleetEvent {
                t_s: *t_s,
                job: None,
                kind: FleetEventKind::Fenced { pod: *pod, epoch: *epoch },
            },
            FleetRecord::Rejoined { t_s, pod, epoch } => FleetEvent {
                t_s: *t_s,
                job: None,
                kind: FleetEventKind::Rejoined { pod: *pod, epoch: *epoch },
            },
            FleetRecord::Discarded { t_s, id, pod, .. } => FleetEvent {
                t_s: *t_s,
                job: Some(*id),
                kind: FleetEventKind::Discarded { pod: *pod },
            },
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

    fn fits(&self, n_pods: &usize) -> Result<(), String> {
        if self.quarantined.len() == *n_pods {
            return Ok(());
        }
        Err(format!("snapshot covers {} pods, the config has {n_pods}", self.quarantined.len()))
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

/// The snapshot payload, hand-laid-out: a version byte (2; version 1
/// predates fencing epochs and is refused — stale snapshots cannot
/// silently resurrect a pre-fencing fleet), three per-pod vectors under
/// one shared length, and the two placement maps zipped into one list.
/// Canonical: the placement list must arrive in strictly ascending id
/// order, so no other bytes decode to an equal state.
impl Wire for FleetState {
    fn put(&self, w: &mut ByteWriter) {
        w.u8(2).f64(self.clock_s).u64(self.last_epoch).usize(self.quarantined.len());
        put_seq(&self.quarantined, w);
        put_seq(&self.pod_epochs, w);
        put_seq(&self.fenced, w);
        w.u64(self.detections).usize(self.placed_on.len());
        for (&id, &pod) in &self.placed_on {
            w.u64(id).usize(pod).u64(self.placed_epoch.get(&id).copied().unwrap_or(0));
        }
        self.accepted.put(w);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        let offset = r.offset();
        if r.u8()? != 2 {
            return Err(WireError { offset });
        }
        let clock_s = r.f64()?;
        let last_epoch = r.u64()?;
        let n_pods = r.usize()?;
        let quarantined = get_seq(r, n_pods)?;
        let pod_epochs = get_seq(r, n_pods)?;
        let fenced = get_seq(r, n_pods)?;
        let detections = r.u64()?;
        let mut placed_on = BTreeMap::new();
        let mut placed_epoch = BTreeMap::new();
        for _ in 0..r.usize()? {
            let offset = r.offset();
            let id = r.u64()?;
            if placed_on.last_key_value().is_some_and(|(&last, _)| id <= last) {
                return Err(WireError { offset });
            }
            placed_on.insert(id, r.usize()?);
            placed_epoch.insert(id, r.u64()?);
        }
        Ok(Self {
            clock_s,
            last_epoch,
            quarantined,
            detections,
            placed_on,
            accepted: Wire::get(r)?,
            pod_epochs,
            fenced,
            placed_epoch,
        })
    }
}

// ---------------------------------------------------------------------
// the live WAL and recovery: the journal crate's generic kernel
// ---------------------------------------------------------------------

/// The coordinator's live write-ahead log: durable journal plus the
/// shadow [`FleetState`] every append folds through.
pub type FleetWal = Journaled<FleetState>;

/// Recovers a [`FleetState`] from durable coordinator bytes: newest
/// intact snapshot plus bounded replay. A torn tail is dropped; any
/// complete-but-corrupt frame or shape mismatch is a typed error.
pub fn recover_fleet_state(
    durable: &DurableState,
    n_pods: usize,
) -> Result<Recovery<FleetState>, JournalError> {
    recover(durable, &n_pods)
}

/// Decodes the full coordinator event stream a durable journal
/// witnesses — a fleet outcome's `events`. Torn tail dropped, full
/// history replayed (the coordinator WAL never compacts).
pub fn decode_fleet_events(durable: &DurableState) -> Result<Vec<FleetEvent>, JournalError> {
    Ok(decode_records::<FleetRecord>(durable)?.iter().map(FleetRecord::event).collect())
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
    fn fold_tracks_ownership_detections_and_snapshot_roundtrips() {
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
        let bytes = st.to_bytes();
        assert_eq!(FleetState::from_bytes(&bytes).unwrap(), st);
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
        let bytes = st.to_bytes();
        assert_eq!(FleetState::from_bytes(&bytes).unwrap(), st);
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
    fn wal_snapshot_equals_fold_and_recovery_replays_it() {
        let mut wal = FleetWal::new(2, 3);
        for rec in sample_records() {
            let t = match rec {
                FleetRecord::Placed { .. } => 0.0,
                FleetRecord::Stolen { t_s, .. }
                | FleetRecord::Accepted { t_s, .. }
                | FleetRecord::Detected { t_s, .. }
                | FleetRecord::Quarantined { t_s, .. }
                | FleetRecord::Replaced { t_s, .. }
                | FleetRecord::Fenced { t_s, .. }
                | FleetRecord::Rejoined { t_s, .. }
                | FleetRecord::Discarded { t_s, .. } => t_s,
            };
            wal.append(t, &rec);
        }
        let rec = recover_fleet_state(wal.durable(), 2).unwrap();
        assert_eq!(&rec.state, wal.state(), "replay equals the shadow fold");
        assert_eq!(rec.snapshot_epoch, 6, "cadence-3 snapshot at epoch 6");
        assert_eq!(rec.replayed_records, 1);
        let events = decode_fleet_events(wal.durable()).unwrap();
        assert_eq!(events.len(), 7);
        assert!(matches!(events[3].kind, FleetEventKind::Verified { pod: 0 }));

        // A record-boundary cut recovers the exact prefix fold.
        let cut = wal.durable().truncate_records(4);
        let rec4 = recover_fleet_state(&cut, 2).unwrap();
        let mut expect = FleetState::new(&2);
        for (i, r) in sample_records().iter().take(4).enumerate() {
            expect.apply(i as u64 + 1, r, &2).unwrap();
        }
        assert_eq!(rec4.state, expect);
    }
}
