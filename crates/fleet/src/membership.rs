//! Heartbeat leases and epoch fencing on the simulated clock.
//!
//! The coordinator grants each pod a time-bounded *lease*, renewed by
//! heartbeats. A heartbeat is a round trip over the fleet NIC tier: the
//! pod's request must reach the coordinator (renewing the lease on
//! arrival), and the coordinator's response must reach the pod (telling
//! it the lease holds). The two legs fail independently under the
//! asymmetric partitions of [`distmsm_comms::partition`]:
//!
//! * **Request leg blocked** (`pod -> coordinator` severed): the lease
//!   expires, the coordinator *fences* the pod — its fencing epoch
//!   advances and every in-flight hand-off stamped with the old epoch
//!   is dead on arrival — and after a grace period re-places the pod's
//!   orphaned jobs on live pods.
//! * **Response leg blocked** (`coordinator -> pod` severed): the lease
//!   keeps renewing, so there is no fence; but the pod hears nothing
//!   back and degrades autonomously all the same.
//!
//! Either way the pod enters *degraded mode* at the first failed round
//! trip: it finishes in-flight work (journaling completions to its own
//! WAL), sheds new arrivals with a typed `PodPartitioned` admission
//! outcome, and waits. When a round trip succeeds again the pod heals;
//! if it was fenced, the coordinator additionally runs anti-entropy
//! rejoin (see `FleetCoordinator`).
//!
//! This module is pure bookkeeping: it computes *when* membership
//! transitions happen and *which* they are. All side effects — WAL
//! records, service-mode flips, re-placements — stay in the
//! coordinator, which executes the returned [`MembershipAction`]s in
//! order. Every decision derives from the partition schedule and the
//! intervals below, so membership is as deterministic as the rest of the
//! simulation. Without partition windows every round trip succeeds, so
//! no lease ever lapses and membership takes no action at all.

use distmsm_comms::PartitionSchedule;

/// Tolerance for comparing event times on the simulated clock.
const EPS: f64 = 1e-9;

/// Lease duration: a pod whose last heartbeat request is older than this
/// is fenced. Outlives one heartbeat, or healthy pods would be fenced
/// between rounds.
pub const LEASE_S: f64 = 12.0;
/// Heartbeat interval: round trips are attempted at every multiple of
/// this (the detection latency for a partition).
pub const HEARTBEAT_S: f64 = 5.0;
/// Grace period between fencing a pod and re-placing its orphaned jobs.
/// A partition that heals within the grace costs nothing but the
/// degraded window; one that outlives it costs re-execution of the
/// orphans (their stale copies are discarded by fencing).
pub const REPLACE_GRACE_S: f64 = 20.0;

/// One pod's lease as the coordinator tracks it.
#[derive(Clone, Debug)]
pub struct LeaseState {
    /// When the current lease lapses if no further request arrives.
    pub expires_s: f64,
    /// Fenced: the lease lapsed and the pod's epoch was advanced.
    pub fenced: bool,
    /// Degraded: the pod's last heartbeat round trip failed, so the
    /// *pod* knows it is partitioned (independent of the fence, which
    /// is the *coordinator's* view).
    pub degraded: bool,
    /// Pending orphan re-placement deadline (set at fence time).
    pub replace_at_s: Option<f64>,
}

/// A membership transition the coordinator must act on, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipAction {
    /// The pod's heartbeat round trip failed for the first time: flip
    /// its service into degraded mode.
    Degrade(usize),
    /// A round trip succeeded again and the pod was never fenced: just
    /// clear degraded mode (and drain completions it parked).
    Heal(usize),
    /// The pod's lease expired: advance its fencing epoch.
    Fence(usize),
    /// The replace grace elapsed with the pod still fenced: re-place
    /// its orphaned jobs on live pods.
    Replace(usize),
    /// A fenced pod's round trip succeeded: run anti-entropy rejoin.
    Rejoin(usize),
}

/// The coordinator's membership table: one lease per pod plus the
/// heartbeat tick counter.
#[derive(Clone, Debug)]
pub struct Membership {
    /// Index of the next heartbeat round (round `k` fires at
    /// `k * HEARTBEAT_S`; round 0 is the initial grant, not a tick).
    tick: u64,
    leases: Vec<LeaseState>,
}

impl Membership {
    /// Grants every pod an initial lease at `t = 0`.
    pub fn new(n_pods: usize) -> Self {
        let lease =
            LeaseState { expires_s: LEASE_S, fenced: false, degraded: false, replace_at_s: None };
        Self { tick: 1, leases: vec![lease; n_pods] }
    }

    /// Marks a pod fenced at restore time — the durable fleet fold says
    /// so, but the lease table is volatile. The pod is treated as
    /// degraded with a fresh replace grace from `now_s`; its first
    /// successful round trip takes the rejoin path.
    pub fn restore_fence(&mut self, pod: usize, now_s: f64) {
        let lease = &mut self.leases[pod];
        lease.fenced = true;
        lease.degraded = true;
        lease.replace_at_s = Some(now_s + REPLACE_GRACE_S);
    }

    /// One pod's lease state.
    pub fn lease(&self, pod: usize) -> &LeaseState {
        &self.leases[pod]
    }

    /// Whether any pod is fenced, degraded, or awaiting an orphan
    /// re-placement — i.e. whether membership still has work to do once
    /// the pods themselves go idle.
    pub fn outstanding(&self) -> bool {
        self.leases.iter().any(|l| l.fenced || l.degraded || l.replace_at_s.is_some())
    }

    fn next_tick_s(&self) -> f64 {
        self.tick as f64 * HEARTBEAT_S
    }

    /// The next instant a membership transition can happen: the next
    /// heartbeat round, the earliest pending lease expiry, or the
    /// earliest pending replace deadline.
    ///
    /// With `pods_active == false` the clock keeps ticking only up to
    /// the idle deadline — past it nothing can change any more: every
    /// window of `partitions` has closed, every fence and grace that
    /// could fire has fired, and two more rounds have passed. Late
    /// partition windows still fence and rejoin an idle fleet, but a
    /// partition that never heals leaves its pod degraded forever rather
    /// than spinning the simulation.
    pub fn next_event_s(&self, pods_active: bool, partitions: &PartitionSchedule) -> Option<f64> {
        let mut next = self.next_tick_s();
        for lease in &self.leases {
            if !lease.fenced {
                next = next.min(lease.expires_s);
            }
            if let Some(r) = lease.replace_at_s {
                next = next.min(r);
            }
        }
        if !pods_active {
            let last_transition = partitions
                .transition_times()
                .into_iter()
                .filter(|t| t.is_finite())
                .fold(0.0f64, f64::max);
            if next > last_transition + LEASE_S + REPLACE_GRACE_S + 2.0 * HEARTBEAT_S {
                return None;
            }
        }
        Some(next)
    }

    /// Advances membership to `t_s` (an instant returned by
    /// [`Self::next_event_s`]) and returns the transitions due, in
    /// deterministic order: heartbeat round trips first (pod order),
    /// then lease expiries, then replace deadlines. A renewal arriving
    /// at the exact expiry instant wins; a rejoin at the exact replace
    /// deadline cancels the re-placement (heal-before-grace).
    pub fn poll(&mut self, t_s: f64, partitions: &PartitionSchedule) -> Vec<MembershipAction> {
        let mut actions = Vec::new();
        if t_s + EPS >= self.next_tick_s() {
            self.tick += 1;
            for pod in 0..self.leases.len() {
                let request_ok = partitions.pod_reaches_coordinator(pod, t_s);
                let response_ok = partitions.coordinator_reaches_pod(pod, t_s);
                let lease = &mut self.leases[pod];
                if request_ok {
                    // The request leg renews the lease on arrival even
                    // when the response cannot be delivered.
                    lease.expires_s = t_s + LEASE_S;
                }
                if request_ok && response_ok {
                    if lease.fenced {
                        lease.fenced = false;
                        lease.degraded = false;
                        lease.replace_at_s = None;
                        actions.push(MembershipAction::Rejoin(pod));
                    } else if lease.degraded {
                        lease.degraded = false;
                        actions.push(MembershipAction::Heal(pod));
                    }
                } else if !lease.degraded {
                    lease.degraded = true;
                    actions.push(MembershipAction::Degrade(pod));
                }
            }
        }
        for pod in 0..self.leases.len() {
            let lease = &mut self.leases[pod];
            if !lease.fenced && t_s + EPS >= lease.expires_s {
                lease.fenced = true;
                lease.replace_at_s = Some(t_s + REPLACE_GRACE_S);
                actions.push(MembershipAction::Fence(pod));
            }
        }
        for pod in 0..self.leases.len() {
            let lease = &mut self.leases[pod];
            if let Some(r) = lease.replace_at_s {
                if t_s + EPS >= r {
                    lease.replace_at_s = None;
                    actions.push(MembershipAction::Replace(pod));
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_comms::{PartitionDirection, PartitionWindow};

    fn drive(m: &mut Membership, parts: &PartitionSchedule, until_s: f64) -> Vec<(f64, MembershipAction)> {
        let mut out = Vec::new();
        while let Some(t) = m.next_event_s(true, parts) {
            if t > until_s {
                break;
            }
            for a in m.poll(t, parts) {
                out.push((t, a));
            }
        }
        out
    }

    #[test]
    fn healthy_pods_never_fence_and_ticks_stop_when_idle() {
        let parts = PartitionSchedule::none();
        let mut m = Membership::new(2);
        let actions = drive(&mut m, &parts, 100.0);
        assert!(actions.is_empty(), "no partitions, no transitions: {actions:?}");
        assert!(!m.outstanding());
        assert_eq!(m.next_event_s(false, &parts), None, "idle fleet stops the membership clock");
    }

    #[test]
    fn symmetric_partition_fences_then_rejoins() {
        // Pod 0 unreachable both ways over [8, 31): last renewal at
        // t=5, lease lapses at 17, grace ends at 37, first healthy
        // round trip at t=35.
        let parts = PartitionSchedule::new(vec![PartitionWindow {
            pod: 0,
            t0_s: 8.0,
            t1_s: 31.0,
            direction: PartitionDirection::Symmetric,
        }]);
        let mut m = Membership::new(2);
        let actions = drive(&mut m, &parts, 60.0);
        assert_eq!(
            actions,
            vec![
                (10.0, MembershipAction::Degrade(0)),
                (17.0, MembershipAction::Fence(0)),
                (35.0, MembershipAction::Rejoin(0)),
            ],
            "degrade at the first failed round, fence at lease expiry, rejoin at heal"
        );
        assert!(!m.outstanding(), "rejoin cancels the pending replace");
    }

    #[test]
    fn response_only_block_degrades_without_fencing() {
        // Requests still arrive, so the lease renews; the pod only
        // hears silence and degrades.
        let parts = PartitionSchedule::new(vec![PartitionWindow {
            pod: 1,
            t0_s: 8.0,
            t1_s: 23.0,
            direction: PartitionDirection::CoordinatorToPod,
        }]);
        let mut m = Membership::new(2);
        let actions = drive(&mut m, &parts, 60.0);
        assert_eq!(
            actions,
            vec![(10.0, MembershipAction::Degrade(1)), (25.0, MembershipAction::Heal(1))],
            "no fence when the request leg stays up"
        );
    }

    #[test]
    fn grace_expiry_replaces_orphans_before_the_heal() {
        // Partition outlives fence + grace: lease lapses at 17, grace
        // ends at 37 < heal at 50.
        let parts = PartitionSchedule::new(vec![PartitionWindow {
            pod: 0,
            t0_s: 8.0,
            t1_s: 48.0,
            direction: PartitionDirection::PodToCoordinator,
        }]);
        let mut m = Membership::new(2);
        let actions = drive(&mut m, &parts, 60.0);
        assert_eq!(
            actions,
            vec![
                (10.0, MembershipAction::Degrade(0)),
                (17.0, MembershipAction::Fence(0)),
                (37.0, MembershipAction::Replace(0)),
                (50.0, MembershipAction::Rejoin(0)),
            ]
        );
    }

    #[test]
    fn membership_clock_gives_up_on_a_partition_that_never_heals() {
        let parts = PartitionSchedule::new(vec![PartitionWindow {
            pod: 0,
            t0_s: 8.0,
            t1_s: f64::INFINITY,
            direction: PartitionDirection::Symmetric,
        }]);
        let mut m = Membership::new(1);
        // Drain everything due while the fleet still has pod events.
        let _ = drive(&mut m, &parts, 100.0);
        assert!(m.outstanding(), "the pod stays fenced forever");
        // Once the pods go idle, the clock refuses to spin past the
        // idle deadline even though the fence never clears.
        let mut guard = 0;
        while let Some(t) = m.next_event_s(false, &parts) {
            let _ = m.poll(t, &parts);
            guard += 1;
            assert!(guard < 10_000, "membership clock must terminate");
        }
    }
}
