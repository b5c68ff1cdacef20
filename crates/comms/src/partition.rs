//! Link-partition injection over the fleet NIC tier.
//!
//! The chaos models so far kill devices (fail-stop) or corrupt results
//! (byzantine); a *partition* does neither — both sides stay alive and
//! correct, they just cannot reach each other for a while. On the
//! [`Topology::fleet`] fabric the coordinator↔pod path is
//! `coord/host — coord/nic — ib-core — pod{p}/nic — pod{p}/leader`, so
//! severing a pod's NIC-tier links cuts exactly that reachability
//! without touching either endpoint.
//!
//! A [`PartitionWindow`] is an interval on the simulated clock during
//! which one pod's NIC tier drops traffic in one or both directions:
//!
//! * **Symmetric** — the classic switch-port failure: nothing crosses.
//! * **CoordinatorToPod** — lease responses and new placements are
//!   lost, but the pod's heartbeats and completions still arrive. The
//!   coordinator keeps renewing the lease; the pod self-degrades.
//! * **PodToCoordinator** — heartbeats and completions are lost while
//!   the pod still hears the coordinator. The lease expires and the
//!   pod is fenced even though it received every placement.
//!
//! The asymmetric cases are what make fencing necessary: connectivity
//! is not an equivalence relation, so exactly-once must come from epoch
//! tokens, not from "the pod looked reachable".
//!
//! Everything is deterministic: [`PartitionSchedule::random`] is
//! **prefix-stable** (a fixed number of draws per window, so shrinking
//! the window count keeps earlier windows bit-identical), and
//! [`PartitionSchedule::transition_times`] exposes the exact set of
//! instants at which reachability can change — the membership layer
//! steps its state machine on those plus the heartbeat cadence, never
//! on wall-clock sampling.

use crate::topology::{NodeKind, Topology};

/// Which direction(s) of coordinator↔pod traffic a window severs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionDirection {
    /// Neither direction crosses the NIC tier.
    Symmetric,
    /// Coordinator→pod traffic is lost (lease grants, placements);
    /// pod→coordinator traffic (heartbeats, completions) still flows.
    CoordinatorToPod,
    /// Pod→coordinator traffic is lost (heartbeats, completions);
    /// coordinator→pod traffic still flows.
    PodToCoordinator,
}

/// One link-partition interval on the simulated clock, half-open
/// `[t0_s, t1_s)`, severing one pod's NIC tier.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PartitionWindow {
    /// The pod whose NIC tier the window severs.
    pub pod: usize,
    /// Window start (inclusive), simulated seconds.
    pub t0_s: f64,
    /// Window end (exclusive), simulated seconds — the heal instant.
    pub t1_s: f64,
    /// Severed direction(s).
    pub direction: PartitionDirection,
}

impl PartitionWindow {
    /// Is the window active at `t_s`?
    pub fn active(&self, t_s: f64) -> bool {
        self.t0_s <= t_s && t_s < self.t1_s
    }

    /// Does this window block coordinator→pod traffic at `t_s`?
    pub fn blocks_coord_to_pod(&self, t_s: f64) -> bool {
        self.active(t_s)
            && matches!(
                self.direction,
                PartitionDirection::Symmetric | PartitionDirection::CoordinatorToPod
            )
    }

    /// Does this window block pod→coordinator traffic at `t_s`?
    pub fn blocks_pod_to_coord(&self, t_s: f64) -> bool {
        self.active(t_s)
            && matches!(
                self.direction,
                PartitionDirection::Symmetric | PartitionDirection::PodToCoordinator
            )
    }
}

/// A deterministic set of partition windows — the partition half of the
/// fleet chaos schedule.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PartitionSchedule {
    /// The windows, in generation order.
    pub windows: Vec<PartitionWindow>,
}

/// SplitMix64 — the same generator the fault layer uses, duplicated
/// here because `distmsm-comms` is intentionally dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl PartitionSchedule {
    /// The empty schedule: full connectivity forever.
    pub fn none() -> Self {
        Self { windows: Vec::new() }
    }

    /// A schedule from explicit windows.
    pub fn new(windows: Vec<PartitionWindow>) -> Self {
        Self { windows }
    }

    /// No windows at all?
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Seeded random windows over `[0, horizon_s)` for an `n_pods`
    /// fleet. Prefix-stable: exactly four draws per window (pod, start,
    /// duration, direction), so truncating `n_windows` reproduces the
    /// shorter schedule bit-for-bit.
    pub fn random(seed: u64, n_windows: usize, n_pods: usize, horizon_s: f64) -> Self {
        let mut state = seed ^ 0x7061_7274_6974_6e31; // "partitn1"
        let mut u = || splitmix64(&mut state) as f64 / u64::MAX as f64;
        let mut windows = Vec::with_capacity(n_windows);
        for _ in 0..n_windows {
            let pod = (u() * n_pods as f64) as usize % n_pods.max(1);
            let t0_s = u() * horizon_s * 0.7;
            let dur_s = horizon_s * (0.05 + 0.20 * u());
            let direction = match (u() * 3.0) as usize {
                0 => PartitionDirection::Symmetric,
                1 => PartitionDirection::CoordinatorToPod,
                _ => PartitionDirection::PodToCoordinator,
            };
            windows.push(PartitionWindow {
                pod,
                t0_s,
                t1_s: (t0_s + dur_s).min(horizon_s),
                direction,
            });
        }
        Self { windows }
    }

    /// Can the coordinator reach pod `pod` at `t_s`?
    pub fn coordinator_reaches_pod(&self, pod: usize, t_s: f64) -> bool {
        !self.windows.iter().any(|w| w.pod == pod && w.blocks_coord_to_pod(t_s))
    }

    /// Can pod `pod` reach the coordinator at `t_s`?
    pub fn pod_reaches_coordinator(&self, pod: usize, t_s: f64) -> bool {
        !self.windows.iter().any(|w| w.pod == pod && w.blocks_pod_to_coord(t_s))
    }

    /// Does a heartbeat round-trip (request up, lease response down)
    /// complete for pod `pod` at `t_s`?
    pub fn round_trip_ok(&self, pod: usize, t_s: f64) -> bool {
        self.pod_reaches_coordinator(pod, t_s) && self.coordinator_reaches_pod(pod, t_s)
    }

    /// Every instant at which some pod's reachability can change —
    /// window starts and heal times, sorted and deduplicated. Between
    /// consecutive transition times reachability is constant, which is
    /// what lets the membership layer run on discrete events instead of
    /// sampling the clock.
    pub fn transition_times(&self) -> Vec<f64> {
        let mut ts: Vec<f64> =
            self.windows.iter().flat_map(|w| [w.t0_s, w.t1_s]).collect();
        ts.sort_by(|a, b| a.total_cmp(b));
        ts.dedup();
        ts
    }

    /// Latest heal time of any window touching `pod` (`0.0` if none) —
    /// the instant after which the pod is reachable for good.
    pub fn last_heal_s(&self, pod: usize) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.pod == pod)
            .map(|w| w.t1_s)
            .fold(0.0, f64::max)
    }

    /// The NIC-tier link ids of `pod` on a [`Topology::fleet`] fabric —
    /// the links a window on that pod severs (leader↔NIC and
    /// NIC↔core). Panics if the topology is not a fleet fabric.
    pub fn severed_links(topo: &Topology, pod: usize) -> Vec<usize> {
        let label = format!("pod{pod}/nic");
        let nic = topo
            .nodes()
            .iter()
            .position(|n| n.kind == NodeKind::Nic && n.label == label)
            .unwrap_or_else(|| panic!("no node {label}: not a fleet fabric"));
        topo.links_of_node(nic)
    }

    /// Applies one pod's partition to a fleet fabric by downing its
    /// NIC-tier links — used by tests and what-if routing to prove the
    /// windows act on exactly the modeled tier.
    pub fn sever_pod(topo: &mut Topology, pod: usize) {
        for id in Self::severed_links(topo, pod) {
            topo.set_link_down(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(pod: usize, t0: f64, t1: f64, direction: PartitionDirection) -> PartitionWindow {
        PartitionWindow { pod, t0_s: t0, t1_s: t1, direction }
    }

    #[test]
    fn directionality_is_respected() {
        let s = PartitionSchedule::new(vec![
            w(0, 10.0, 20.0, PartitionDirection::Symmetric),
            w(1, 10.0, 20.0, PartitionDirection::CoordinatorToPod),
            w(2, 10.0, 20.0, PartitionDirection::PodToCoordinator),
        ]);
        // Symmetric: both directions dead inside the window.
        assert!(!s.coordinator_reaches_pod(0, 15.0));
        assert!(!s.pod_reaches_coordinator(0, 15.0));
        // Coord→pod only: heartbeats still arrive upstream.
        assert!(!s.coordinator_reaches_pod(1, 15.0));
        assert!(s.pod_reaches_coordinator(1, 15.0));
        // Pod→coord only: the pod still hears the coordinator.
        assert!(s.coordinator_reaches_pod(2, 15.0));
        assert!(!s.pod_reaches_coordinator(2, 15.0));
        // Round trip fails for all three.
        for pod in 0..3 {
            assert!(!s.round_trip_ok(pod, 15.0));
            assert!(s.round_trip_ok(pod, 5.0), "window not yet open");
            assert!(s.round_trip_ok(pod, 20.0), "heal instant is exclusive");
        }
        // An uninvolved pod is never affected.
        assert!(s.round_trip_ok(3, 15.0));
    }

    #[test]
    fn transition_times_are_sorted_window_edges() {
        let s = PartitionSchedule::new(vec![
            w(0, 30.0, 50.0, PartitionDirection::Symmetric),
            w(1, 10.0, 30.0, PartitionDirection::PodToCoordinator),
        ]);
        assert_eq!(s.transition_times(), vec![10.0, 30.0, 50.0]);
        assert_eq!(s.last_heal_s(0), 50.0);
        assert_eq!(s.last_heal_s(1), 30.0);
        assert_eq!(s.last_heal_s(7), 0.0);
    }

    #[test]
    fn random_is_prefix_stable_and_bounded() {
        let long = PartitionSchedule::random(42, 6, 4, 900.0);
        let short = PartitionSchedule::random(42, 3, 4, 900.0);
        assert_eq!(&long.windows[..3], &short.windows[..]);
        for w in &long.windows {
            assert!(w.pod < 4);
            assert!(w.t0_s >= 0.0 && w.t1_s <= 900.0 && w.t0_s < w.t1_s);
        }
        // Determinism: same seed, same schedule.
        assert_eq!(long, PartitionSchedule::random(42, 6, 4, 900.0));
        assert_ne!(long, PartitionSchedule::random(43, 6, 4, 900.0));
    }

    #[test]
    fn severing_the_nic_tier_cuts_exactly_that_pod() {
        let mut topo = Topology::fleet(4);
        let host = topo.master_host();
        // All pods reachable before the cut.
        for p in 0..4 {
            assert!(topo.route(host, topo.gpu_node(p)).is_some());
        }
        PartitionSchedule::sever_pod(&mut topo, 2);
        assert!(
            topo.route(host, topo.gpu_node(2)).is_none(),
            "pod 2 unreachable with its NIC tier down"
        );
        for p in [0, 1, 3] {
            assert!(
                topo.route(host, topo.gpu_node(p)).is_some(),
                "pod {p} unaffected by pod 2's partition"
            );
        }
        // Exactly the leader↔NIC and NIC↔core links are implicated.
        assert_eq!(PartitionSchedule::severed_links(&topo, 2).len(), 2);
    }
}
