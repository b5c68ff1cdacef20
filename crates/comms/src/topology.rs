//! Interconnect topology graphs: GPUs, switches, hosts and NICs joined
//! by links with bandwidth and latency.
//!
//! The paper's 16- and 32-GPU configurations span multiple DGX boxes, so
//! the flat two-scalar interconnect model (`interconnect_gbps` /
//! `peer_gbps`) cannot reproduce the node-boundary knee of its scaling
//! curves. This module models the interconnect as an explicit graph:
//!
//! * **nodes** — GPUs, NVSwitch-class peer switches, PCIe hubs/root
//!   complexes, host CPUs and InfiniBand NICs/switches;
//! * **links** — undirected, with a sustained bandwidth (GB/s) and a
//!   per-message latency (seconds);
//! * **routing** — deterministic shortest path (Dijkstra over
//!   `latency + ref_bytes/bandwidth`), where only switch-class nodes may
//!   relay traffic (a GPU or host is never a transit hop);
//! * **contention** — per-link flow metering used by the schedule layer
//!   to divide link bandwidth among concurrent flows.
//!
//! Presets mirror the testbeds the paper evaluates on: a single
//! NVSwitch-backed DGX-A100 box, a PCIe-only RTX4090-class box, and a
//! multi-node DGX pod whose boxes are joined over InfiniBand.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What a topology node is. The variant determines whether the node may
/// relay traffic: only switch-class nodes ([`NodeKind::Switch`],
/// [`NodeKind::PcieHub`], [`NodeKind::Nic`]) appear in the interior of a
/// route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A GPU endpoint, carrying its global device index.
    Gpu(usize),
    /// An NVSwitch-class all-to-all peer switch.
    Switch,
    /// A PCIe hub / root complex aggregating device links toward a host.
    PcieHub,
    /// A host CPU endpoint.
    Host,
    /// A NIC or InfiniBand switch port (relays inter-node traffic).
    Nic,
}

impl NodeKind {
    /// True when the node may appear in the interior of a route.
    pub fn can_relay(&self) -> bool {
        matches!(self, Self::Switch | Self::PcieHub | Self::Nic)
    }
}

/// One node of the interconnect graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Node {
    /// Node kind (GPU / switch / hub / host / NIC).
    pub kind: NodeKind,
    /// Human-readable label used in reports (e.g. `"box1/gpu3"`).
    pub label: String,
}

/// One undirected link of the interconnect graph.
#[derive(Clone, Debug, PartialEq)]
pub struct Link {
    /// First endpoint (node index).
    pub a: usize,
    /// Second endpoint (node index).
    pub b: usize,
    /// Sustained bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Per-message latency in seconds.
    pub latency_s: f64,
    /// Whether the link is operational. A downed link stays in the graph
    /// (so link indices remain stable) but the router never crosses it.
    pub up: bool,
}

/// Why a route could not be produced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// No operational path joins the two endpoints.
    Disconnected {
        /// Source node label.
        from: String,
        /// Destination node label.
        to: String,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Disconnected { from, to } => {
                write!(f, "no operational route from {from} to {to}")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// A routed path between two endpoints under the α–β cost model.
#[derive(Clone, Debug, PartialEq)]
pub struct Route {
    /// Node indices along the path, source first, destination last.
    pub nodes: Vec<usize>,
    /// Link indices along the path (one fewer than `nodes`).
    pub links: Vec<usize>,
    /// α: total per-message latency (sum of link latencies), seconds.
    pub alpha_s: f64,
    /// Bottleneck bandwidth in GB/s (minimum over the path's links).
    pub min_gbps: f64,
}

impl Route {
    /// Number of store-and-forward hops (= number of links).
    pub fn hops(&self) -> usize {
        self.links.len()
    }
}

/// Reference message size used to weight routing decisions: large enough
/// that bandwidth dominates switch-hop latency, so peer traffic prefers
/// the NVSwitch plane over a detour through the host.
const ROUTE_REF_BYTES: f64 = 1_048_576.0;

/// Host-side memo of [`Topology::route`] answers, keyed by
/// `(from, to)`. A route is a pure function of the graph, so the memo is
/// invisible to everything but the host clock: it takes no part in
/// equality, prints nothing of its contents (a `Debug` dump must not
/// depend on which routes were asked for), and every graph mutator
/// empties it. Ordered map, so even iteration would be deterministic.
#[derive(Default)]
struct RouteMemo(Mutex<BTreeMap<(usize, usize), Option<Route>>>);

impl RouteMemo {
    /// Every update is one `insert` or `clear` of a complete value, so
    /// the map is valid even behind a poisoned lock.
    fn lock(&self) -> MutexGuard<'_, BTreeMap<(usize, usize), Option<Route>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn clear(&mut self) {
        self.0
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

impl Clone for RouteMemo {
    /// A clone is the same graph, so its routes carry over; a mutator
    /// called on the clone afterwards clears only the clone's memo.
    fn clone(&self) -> Self {
        Self(Mutex::new(self.lock().clone()))
    }
}

impl PartialEq for RouteMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for RouteMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RouteMemo")
    }
}

/// An interconnect topology graph.
///
/// Nodes and links are read through [`Self::nodes`] / [`Self::links`]
/// and changed only through the mutators below, each of which drops the
/// memoised routes.
#[derive(Clone, Debug, PartialEq)]
pub struct Topology {
    /// Preset (or user-chosen) name, e.g. `"dgx-a100-pod-4x8"`.
    pub name: String,
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// GPU node index by global GPU rank.
    gpu_nodes: Vec<usize>,
    /// Node index of the master host (rank 0's host): the CPU that runs
    /// bucket-reduce and window-reduce.
    master_host: usize,
    routes: RouteMemo,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
            gpu_nodes: Vec::new(),
            master_host: usize::MAX,
            routes: RouteMemo::default(),
        }
    }

    /// All nodes, indexed by node id.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, indexed by link id.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Adds a node and returns its index. The first [`NodeKind::Host`]
    /// added becomes the master host; GPU nodes must be added in rank
    /// order.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> usize {
        let id = self.nodes.len();
        match kind {
            NodeKind::Gpu(rank) => {
                assert_eq!(rank, self.gpu_nodes.len(), "GPU nodes must be added in rank order");
                self.gpu_nodes.push(id);
            }
            NodeKind::Host if self.master_host == usize::MAX => self.master_host = id,
            _ => {}
        }
        self.routes.clear();
        self.nodes.push(Node {
            kind,
            label: label.into(),
        });
        id
    }

    /// Adds an undirected link and returns its index.
    pub fn connect(&mut self, a: usize, b: usize, bandwidth_gbps: f64, latency_s: f64) -> usize {
        assert!(a < self.nodes.len() && b < self.nodes.len(), "link endpoints must exist");
        assert!(bandwidth_gbps > 0.0, "links need positive bandwidth");
        self.routes.clear();
        self.links.push(Link {
            a,
            b,
            bandwidth_gbps,
            latency_s,
            up: true,
        });
        self.links.len() - 1
    }

    /// Index of the (first) link joining nodes `a` and `b`, in either
    /// orientation.
    pub fn link_between(&self, a: usize, b: usize) -> Option<usize> {
        self.links
            .iter()
            .position(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a))
    }

    /// Indices of all links incident to `node`.
    pub fn links_of_node(&self, node: usize) -> Vec<usize> {
        (0..self.links.len())
            .filter(|&i| self.links[i].a == node || self.links[i].b == node)
            .collect()
    }

    /// Marks link `id` down: it stays in the graph (indices are stable)
    /// but the router never crosses it.
    pub fn set_link_down(&mut self, id: usize) {
        self.routes.clear();
        self.links[id].up = false;
    }

    /// Degrades link `id` to `factor` of its nominal bandwidth
    /// (`0 < factor ≤ 1`). The link stays routable; every schedule
    /// crossing it re-prices.
    pub fn degrade_link(&mut self, id: usize, factor: f64) {
        assert!(factor > 0.0 && factor <= 1.0, "degrade factor must be in (0, 1]");
        self.routes.clear();
        self.links[id].bandwidth_gbps *= factor;
    }

    /// Number of GPU endpoints.
    pub fn n_gpus(&self) -> usize {
        self.gpu_nodes.len()
    }

    /// Node index of GPU `rank`.
    ///
    /// # Panics
    ///
    /// Panics when `rank` is out of range.
    pub fn gpu_node(&self, rank: usize) -> usize {
        self.gpu_nodes[rank]
    }

    /// Node index of the master host (the CPU running the reduce stages).
    ///
    /// # Panics
    ///
    /// Panics when the topology declares no host.
    pub fn master_host(&self) -> usize {
        assert!(self.master_host != usize::MAX, "topology has no host node");
        self.master_host
    }

    /// Label of link `id`, `"a<->b"`.
    pub fn link_label(&self, id: usize) -> String {
        let l = &self.links[id];
        format!("{}<->{}", self.nodes[l.a].label, self.nodes[l.b].label)
    }

    /// Deterministic shortest path from `from` to `to` under the α–β
    /// weight `latency + ref_bytes / bandwidth`, relaying only through
    /// switch-class nodes. Returns `None` when disconnected.
    ///
    /// Answers are memoised per `(from, to)` until the graph next
    /// changes: a collective plan asks for the same few routes once per
    /// flow per step.
    pub fn route(&self, from: usize, to: usize) -> Option<Route> {
        if from == to {
            return Some(Route {
                nodes: vec![from],
                links: Vec::new(),
                alpha_s: 0.0,
                min_gbps: f64::INFINITY,
            });
        }
        if let Some(hit) = self.routes.lock().get(&(from, to)) {
            return hit.clone();
        }
        // searched outside the lock; a racing thread inserts the same value
        let found = self.search_route(from, to);
        self.routes.lock().insert((from, to), found.clone());
        found
    }

    /// The Dijkstra search behind [`Self::route`] (`from != to`).
    fn search_route(&self, from: usize, to: usize) -> Option<Route> {
        // Dijkstra with deterministic tie-breaking on (cost, node id).
        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<(usize, usize)>> = vec![None; n]; // (node, link)
        let mut done = vec![false; n];
        dist[from] = 0.0;
        loop {
            let mut u = usize::MAX;
            let mut best = f64::INFINITY;
            for v in 0..n {
                if !done[v] && dist[v] < best {
                    best = dist[v];
                    u = v;
                }
            }
            if u == usize::MAX {
                return None;
            }
            if u == to {
                break;
            }
            done[u] = true;
            // endpoints other than the source never relay
            if u != from && !self.nodes[u].kind.can_relay() {
                continue;
            }
            for (li, l) in self.links.iter().enumerate() {
                if !l.up {
                    continue;
                }
                let v = if l.a == u {
                    l.b
                } else if l.b == u {
                    l.a
                } else {
                    continue;
                };
                let w = l.latency_s + ROUTE_REF_BYTES / (l.bandwidth_gbps * 1e9);
                if dist[u] + w < dist[v] {
                    dist[v] = dist[u] + w;
                    prev[v] = Some((u, li));
                }
            }
        }
        let mut nodes = vec![to];
        let mut links = Vec::new();
        let mut cur = to;
        while let Some((p, li)) = prev[cur] {
            links.push(li);
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        links.reverse();
        let alpha_s = links.iter().map(|&l| self.links[l].latency_s).sum();
        let min_gbps = links
            .iter()
            .map(|&l| self.links[l].bandwidth_gbps)
            .fold(f64::INFINITY, f64::min);
        Some(Route {
            nodes,
            links,
            alpha_s,
            min_gbps,
        })
    }

    /// Route between two GPUs by rank.
    ///
    /// # Panics
    ///
    /// Panics when the GPUs are disconnected (a malformed or faulted
    /// topology) — use [`Self::try_gpu_route`] when disconnection is an
    /// expected outcome.
    pub fn gpu_route(&self, a: usize, b: usize) -> Route {
        self.try_gpu_route(a, b).expect("GPUs must be connected")
    }

    /// Fallible route between two GPUs by rank: a faulted fabric can
    /// legitimately partition a pair.
    pub fn try_gpu_route(&self, a: usize, b: usize) -> Result<Route, RouteError> {
        let (na, nb) = (self.gpu_node(a), self.gpu_node(b));
        self.route(na, nb).ok_or_else(|| RouteError::Disconnected {
            from: self.nodes[na].label.clone(),
            to: self.nodes[nb].label.clone(),
        })
    }

    /// Route from GPU `rank` to the master host.
    ///
    /// # Panics
    ///
    /// Panics when the GPU cannot reach the host — use
    /// [`Self::try_gpu_to_host_route`] when disconnection is an expected
    /// outcome.
    pub fn gpu_to_host_route(&self, rank: usize) -> Route {
        self.try_gpu_to_host_route(rank).expect("GPU must reach the host")
    }

    /// Fallible route from GPU `rank` to the master host: a GPU whose
    /// ports are all down cannot reach it, and the engine treats such a
    /// rank as lost.
    pub fn try_gpu_to_host_route(&self, rank: usize) -> Result<Route, RouteError> {
        let (n, h) = (self.gpu_node(rank), self.master_host());
        self.route(n, h).ok_or_else(|| RouteError::Disconnected {
            from: self.nodes[n].label.clone(),
            to: self.nodes[h].label.clone(),
        })
    }

    // ---- presets --------------------------------------------------------

    /// A single NVSwitch-backed DGX-A100-class box with `n` GPUs
    /// (`n = 8` is the paper's testbed node).
    ///
    /// Wiring per GPU: a 600 GB/s NVLink port into the box NVSwitch and a
    /// 64 GB/s PCIe link into the box PCIe hub; the hub reaches the host
    /// over one shared 64 GB/s root port (so a full-box host gather is
    /// root-port-bound, matching the flat model's single host pipe).
    pub fn single_box(n: usize) -> Self {
        assert!(n >= 1, "a box needs at least one GPU");
        let mut t = Self::new(format!("dgx-a100-box-{n}"));
        t.wire_box(0, n, LinkRates::nvswitch_box());
        t
    }

    /// The paper's 8-GPU DGX-A100 node.
    pub fn dgx_a100_box() -> Self {
        Self::single_box(8)
    }

    /// A PCIe-only box (RTX4090-class): no peer switch, every GPU hangs
    /// off one PCIe hub at 32 GB/s, so peer traffic detours through the
    /// hub and contends with the host link.
    pub fn pcie_box(n: usize) -> Self {
        assert!(n >= 1, "a box needs at least one GPU");
        let mut t = Self::new(format!("pcie-box-{n}"));
        t.wire_box(0, n, LinkRates::pcie_box());
        t
    }

    /// A multi-node DGX-A100 pod: `n` GPUs in boxes of eight, each box's
    /// NVSwitch plane reaching an InfiniBand switch through a 200 GB/s
    /// NIC aggregate (8 × HDR ports), and the remote hosts' traffic
    /// landing on box 0's PCIe hub. Cross-node traffic is therefore
    /// NIC-bound (200 GB/s shared per box) — the source of the scaling
    /// knee at node boundaries.
    pub fn dgx_pod(n: usize) -> Self {
        assert!(n > 8, "a pod needs more than one 8-GPU box");
        let n_boxes = n.div_ceil(8);
        let mut t = Self::new(format!("dgx-a100-pod-{n_boxes}x8"));
        let ib = t.add_node(NodeKind::Nic, "ib-switch");
        for b in 0..n_boxes {
            let gpus = (n - 8 * b).min(8);
            let (switch, hub) = t.wire_box(b, gpus, LinkRates::nvswitch_box());
            let nic = t.add_node(NodeKind::Nic, format!("box{b}/nic"));
            t.connect(switch, nic, LinkRates::NIC_GBPS, LinkRates::NIC_LATENCY_S);
            // the NIC also reaches the box's PCIe hub so remote traffic
            // can terminate on a host
            t.connect(nic, hub, LinkRates::PCIE_GBPS, LinkRates::PCIE_LATENCY_S);
            t.connect(nic, ib, LinkRates::NIC_GBPS, LinkRates::NIC_LATENCY_S);
        }
        t
    }

    /// The cross-pod fleet fabric: `n_pods` pods, each contributing one
    /// reduce-leader rank whose aggregated window partials leave the pod
    /// through its 200 GB/s NIC onto an InfiniBand core switch. The
    /// fleet coordinator host hangs off the core switch behind its own
    /// NIC and PCIe hub, so cross-pod reduce trees span the NIC tier
    /// end-to-end and the final fold lands on the coordinator — every
    /// hop pays InfiniBand latency, which is what makes the pod-count
    /// scaling knee visible.
    pub fn fleet(n_pods: usize) -> Self {
        assert!(n_pods >= 1, "a fleet needs at least one pod");
        let mut t = Self::new(format!("fleet-{n_pods}pods"));
        // Coordinator first: its host node becomes the master host.
        let hub = t.add_node(NodeKind::PcieHub, "coord/hub");
        let host = t.add_node(NodeKind::Host, "coord/host");
        t.connect(hub, host, LinkRates::PCIE_GBPS, LinkRates::PCIE_LATENCY_S);
        let core = t.add_node(NodeKind::Nic, "ib-core");
        let coord_nic = t.add_node(NodeKind::Nic, "coord/nic");
        t.connect(coord_nic, hub, LinkRates::PCIE_GBPS, LinkRates::PCIE_LATENCY_S);
        t.connect(coord_nic, core, LinkRates::NIC_GBPS, LinkRates::NIC_LATENCY_S);
        for p in 0..n_pods {
            let nic = t.add_node(NodeKind::Nic, format!("pod{p}/nic"));
            let g = t.add_node(NodeKind::Gpu(p), format!("pod{p}/leader"));
            t.connect(g, nic, LinkRates::NIC_GBPS, LinkRates::NIC_LATENCY_S);
            t.connect(nic, core, LinkRates::NIC_GBPS, LinkRates::NIC_LATENCY_S);
        }
        t
    }

    /// Wires one box (GPUs, switch-or-hub plane, host) with `gpus` GPUs
    /// whose global ranks continue from the GPUs already present.
    /// Returns `(peer plane node, pcie hub node)` — for a PCIe-only box
    /// both are the hub.
    fn wire_box(&mut self, box_idx: usize, gpus: usize, rates: LinkRates) -> (usize, usize) {
        let hub = self.add_node(NodeKind::PcieHub, format!("box{box_idx}/hub"));
        let host = self.add_node(NodeKind::Host, format!("box{box_idx}/host"));
        self.connect(hub, host, rates.pcie_gbps, rates.pcie_latency_s);
        let plane = if rates.peer_gbps > 0.0 {
            self.add_node(NodeKind::Switch, format!("box{box_idx}/nvswitch"))
        } else {
            hub
        };
        for _ in 0..gpus {
            let rank = self.gpu_nodes.len();
            let g = self.add_node(NodeKind::Gpu(rank), format!("box{box_idx}/gpu{rank}"));
            if rates.peer_gbps > 0.0 {
                self.connect(g, plane, rates.peer_gbps, rates.peer_latency_s);
            }
            self.connect(g, hub, rates.pcie_gbps, rates.pcie_latency_s);
        }
        (plane, hub)
    }
}

/// Link-rate bundle used by the box presets.
#[derive(Clone, Copy, Debug)]
pub struct LinkRates {
    /// GPU↔NVSwitch bandwidth (0 = no peer plane).
    pub peer_gbps: f64,
    /// Per-message NVLink hop latency.
    pub peer_latency_s: f64,
    /// GPU↔hub and hub↔host PCIe bandwidth.
    pub pcie_gbps: f64,
    /// Per-message PCIe hop latency.
    pub pcie_latency_s: f64,
}

impl LinkRates {
    /// NVSwitch↔NIC / NIC↔IB-switch aggregate bandwidth (8 × HDR200).
    pub const NIC_GBPS: f64 = 200.0;
    /// Per-message InfiniBand hop latency.
    pub const NIC_LATENCY_S: f64 = 2e-6;
    /// PCIe 4 ×16 class bandwidth (the DGX host plane).
    pub const PCIE_GBPS: f64 = 64.0;
    /// Per-message PCIe hop latency.
    pub const PCIE_LATENCY_S: f64 = 5e-6;

    /// Rates for an NVSwitch-backed DGX-A100-class box.
    pub fn nvswitch_box() -> Self {
        Self {
            peer_gbps: 600.0,
            peer_latency_s: 2e-6,
            pcie_gbps: Self::PCIE_GBPS,
            pcie_latency_s: Self::PCIE_LATENCY_S,
        }
    }

    /// Rates for a PCIe-only (RTX4090-class) box.
    pub fn pcie_box() -> Self {
        Self {
            peer_gbps: 0.0,
            peer_latency_s: 0.0,
            pcie_gbps: 32.0,
            pcie_latency_s: Self::PCIE_LATENCY_S,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn single_box_peer_routes_over_nvswitch() {
        let t = Topology::dgx_a100_box();
        assert_eq!(t.n_gpus(), 8);
        let r = t.gpu_route(0, 7);
        assert_eq!(r.hops(), 2, "gpu->nvswitch->gpu");
        assert_eq!(r.min_gbps, 600.0);
    }

    #[test]
    fn single_box_host_route_is_pcie_bound() {
        let t = Topology::dgx_a100_box();
        let r = t.gpu_to_host_route(3);
        assert_eq!(r.hops(), 2, "gpu->hub->host");
        assert_eq!(r.min_gbps, 64.0);
    }

    #[test]
    fn pcie_box_peer_detours_through_hub() {
        let t = Topology::pcie_box(4);
        let r = t.gpu_route(0, 1);
        assert_eq!(r.hops(), 2);
        assert_eq!(r.min_gbps, 32.0);
    }

    #[test]
    fn pod_cross_node_is_nic_bound() {
        let t = Topology::dgx_pod(16);
        assert_eq!(t.n_gpus(), 16);
        // intra-box stays on the NVSwitch plane
        let intra = t.gpu_route(0, 7);
        assert_eq!(intra.min_gbps, 600.0);
        // cross-box bottlenecks on the 200 GB/s NIC aggregate
        let cross = t.gpu_route(0, 8);
        assert_eq!(cross.min_gbps, 200.0);
        assert!(cross.hops() > intra.hops());
        assert!(cross.alpha_s > intra.alpha_s);
    }

    #[test]
    fn pod_remote_host_route_terminates_on_master_hub() {
        let t = Topology::dgx_pod(16);
        let local = t.gpu_to_host_route(0);
        let remote = t.gpu_to_host_route(12);
        assert_eq!(local.min_gbps, 64.0);
        assert_eq!(remote.min_gbps, 64.0, "remote lands on the master root port");
        assert!(remote.hops() > local.hops());
        assert!(remote.alpha_s > local.alpha_s);
    }

    #[test]
    fn gpus_never_relay() {
        // in a pod, NVSwitch->hub traffic must not shortcut through a GPU
        let t = Topology::dgx_pod(16);
        for rank in [8usize, 9, 15] {
            let r = t.gpu_to_host_route(rank);
            for &mid in &r.nodes[1..r.nodes.len() - 1] {
                assert!(
                    t.nodes[mid].kind.can_relay(),
                    "transit node {} must be switch-class",
                    t.nodes[mid].label
                );
            }
        }
    }

    #[test]
    fn self_route_is_free() {
        let t = Topology::dgx_a100_box();
        let r = t.route(t.gpu_node(2), t.gpu_node(2)).unwrap();
        assert_eq!(r.hops(), 0);
        assert_eq!(r.alpha_s, 0.0);
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let mut t = Topology::new("two-islands");
        let a = t.add_node(NodeKind::Gpu(0), "a");
        let b = t.add_node(NodeKind::Gpu(1), "b");
        assert_eq!(t.route(a, b), None);
        assert!(matches!(
            t.try_gpu_route(0, 1),
            Err(RouteError::Disconnected { .. })
        ));
    }

    #[test]
    fn downed_nvswitch_link_reroutes_via_host_hub() {
        // Golden degraded-topology test: drop gpu0's NVLink port in a
        // single box and its peer traffic must detour over PCIe through
        // the hub — 2 hops, priced at the 64 GB/s root-plane bandwidth
        // instead of 600 GB/s NVLink.
        let mut t = Topology::dgx_a100_box();
        let clean = t.gpu_route(0, 1);
        assert_eq!(clean.min_gbps, 600.0);
        let g0 = t.gpu_node(0);
        let nvlink = t
            .links_of_node(g0)
            .into_iter()
            .find(|&l| t.links[l].bandwidth_gbps == 600.0)
            .expect("gpu0 has an NVLink port");
        t.set_link_down(nvlink);
        let r = t.gpu_route(0, 1);
        assert_eq!(r.hops(), 2, "gpu0->hub->gpu1");
        assert_eq!(r.min_gbps, 64.0, "detour is PCIe-priced");
        assert!(
            t.nodes[r.nodes[1]].kind == NodeKind::PcieHub,
            "detour relays through the host hub, got {}",
            t.nodes[r.nodes[1]].label
        );
        // unaffected pairs keep the NVSwitch plane
        assert_eq!(t.gpu_route(1, 2).min_gbps, 600.0);
        // gpu0 still reaches the host (its PCIe port is fine)
        assert_eq!(t.gpu_to_host_route(0).min_gbps, 64.0);
        // the route asked for before the fault was memoised; after it the
        // answer is the one a topology built faulted from scratch gives
        let mut fresh = Topology::dgx_a100_box();
        fresh.set_link_down(nvlink);
        assert_eq!(r, fresh.gpu_route(0, 1));
        assert_eq!(t, fresh, "the memo takes no part in equality");
    }

    /// The seven presets `distmsm-analyze verify --all-presets` sweeps,
    /// plus the benchmark's 32-GPU pod and a fleet fabric.
    pub(crate) fn presets() -> Vec<Topology> {
        vec![
            Topology::single_box(2),
            Topology::single_box(4),
            Topology::single_box(8),
            Topology::pcie_box(4),
            Topology::pcie_box(8),
            Topology::dgx_pod(12),
            Topology::dgx_pod(16),
            Topology::dgx_pod(32),
            Topology::fleet(4),
        ]
    }

    /// `t` with an empty route memo.
    pub(crate) fn cold(t: &Topology) -> Topology {
        let mut t = t.clone();
        t.routes.clear();
        t
    }

    fn assert_memo_matches_search(t: &Topology) {
        let n = t.nodes().len();
        for _pass in 0..2 {
            // first pass fills the memo, second pass reads it
            for from in 0..n {
                for to in (0..n).filter(|&to| to != from) {
                    assert_eq!(
                        t.route(from, to),
                        t.search_route(from, to),
                        "{}: {from}->{to}",
                        t.name
                    );
                }
            }
        }
    }

    #[test]
    fn memoised_routes_equal_fresh_searches_on_every_preset() {
        for t in presets() {
            assert_memo_matches_search(&t);
        }
    }

    #[test]
    fn every_mutator_drops_memoised_routes() {
        let mut t = Topology::dgx_pod(16);
        assert_memo_matches_search(&t);
        let port = t.links_of_node(t.gpu_node(9))[0];
        t.degrade_link(port, 0.01);
        assert_memo_matches_search(&t);
        t.set_link_down(port);
        assert_memo_matches_search(&t);
        // a clone starts from its source's routes and diverges alone
        let before = t.gpu_route(0, 8);
        let mut damaged = t.clone();
        let nic = damaged.links_of_node(damaged.gpu_route(0, 8).nodes[2])[0];
        damaged.set_link_down(nic);
        assert_memo_matches_search(&damaged);
        assert_eq!(t.gpu_route(0, 8), before);
        // growing the graph can open a shorter path
        let (a, b) = (t.gpu_node(0), t.gpu_node(8));
        assert!(t.route(a, b).expect("connected").hops() > 2);
        let shortcut = t.add_node(NodeKind::Switch, "shortcut");
        assert_memo_matches_search(&t);
        t.connect(a, shortcut, 900.0, 1e-6);
        t.connect(shortcut, b, 900.0, 1e-6);
        assert_eq!(t.route(a, b).expect("connected").hops(), 2);
        assert_memo_matches_search(&t);
    }

    #[test]
    fn one_topology_routes_from_two_threads() {
        let t = Topology::dgx_pod(16);
        let want: Vec<Route> = (1..16)
            .map(|r| Topology::dgx_pod(16).gpu_route(0, r))
            .collect();
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    barrier.wait();
                    let got: Vec<Route> = (1..16).map(|r| t.gpu_route(0, r)).collect();
                    assert_eq!(got, want);
                });
            }
        });
    }

    #[test]
    fn degraded_link_reprices_but_stays_routable() {
        let mut t = Topology::dgx_a100_box();
        let g0 = t.gpu_node(0);
        let nvlink = t
            .links_of_node(g0)
            .into_iter()
            .find(|&l| t.links[l].bandwidth_gbps == 600.0)
            .expect("gpu0 has an NVLink port");
        t.degrade_link(nvlink, 0.25);
        let r = t.gpu_route(0, 1);
        // at 150 GB/s the NVSwitch plane still beats the 64 GB/s detour
        assert_eq!(r.hops(), 2);
        assert_eq!(r.min_gbps, 150.0);
        // degrade below PCIe and the router abandons the plane
        t.degrade_link(nvlink, 0.1); // now 15 GB/s
        let r = t.gpu_route(0, 1);
        assert_eq!(r.min_gbps, 64.0, "router prefers the PCIe detour");
    }

    #[test]
    fn fully_isolated_gpu_loses_host_reachability() {
        let mut t = Topology::dgx_a100_box();
        for l in t.links_of_node(t.gpu_node(3)) {
            t.set_link_down(l);
        }
        assert!(t.try_gpu_to_host_route(3).is_err());
        assert!(t.try_gpu_route(3, 4).is_err());
        // the rest of the box is unaffected
        assert!(t.try_gpu_to_host_route(2).is_ok());
        let err = t.try_gpu_route(3, 4).unwrap_err();
        assert!(err.to_string().contains("gpu3"), "{err}");
    }

    #[test]
    fn link_between_finds_either_orientation() {
        let t = Topology::dgx_a100_box();
        let g0 = t.gpu_node(0);
        let g1 = t.gpu_node(1);
        assert!(t.link_between(g0, g1).is_none(), "no direct gpu-gpu link");
        for l in t.links_of_node(g0) {
            let link = &t.links[l];
            let other = if link.a == g0 { link.b } else { link.a };
            assert_eq!(t.link_between(other, g0), Some(l));
        }
    }
}
