//! Communication schedules: flows, steps, and the α–β cost model.
//!
//! A collective is lowered to a [`CommSchedule`]: an ordered list of
//! [`CommStep`]s, each a set of [`Flow`]s that execute concurrently.
//! Costing follows the classic α–β model — a flow over a route pays the
//! route's total latency (α) plus its bytes over the route's bottleneck
//! bandwidth (β⁻¹), with store-and-forward chunked pipelining across
//! multi-hop routes and per-link bandwidth division when several flows of
//! the same step share a physical link.

use crate::topology::{RouteError, Topology};

/// One endpoint of a flow: a GPU rank or the host (master host in
/// multi-node topologies).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// GPU with the given global rank.
    Rank(usize),
    /// The (master) host CPU.
    Host,
}

/// Identity of a physical link a flow crosses, used for contention
/// metering. Flat fabrics have synthetic links; topology fabrics use the
/// link's index in the graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinkId {
    /// Link `index` of a [`Topology`] graph.
    Topo(usize),
    /// The single shared host link of a flat fabric (legacy
    /// `interconnect_gbps` semantics: all device→host traffic divides
    /// one pipe).
    FlatHost,
    /// A dedicated peer link between two ranks of a flat fabric
    /// (legacy `peer_gbps` semantics: full bisection). Stored with
    /// `min ≤ max`.
    FlatPeer(usize, usize),
}

/// One physical link on a resolved path, with its standalone bandwidth.
/// Its human-readable label is [`Fabric::link_label`] of `id`: paths are
/// resolved once per flow per step, labels only read in reports.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PathLink {
    /// Link identity for contention accounting.
    pub id: LinkId,
    /// Uncontended bandwidth of this link in GB/s.
    pub gbps: f64,
}

/// A resolved source→destination path through the fabric.
#[derive(Clone, Debug, PartialEq)]
pub struct PathCost {
    /// Total one-way latency across all hops, in seconds.
    pub alpha_s: f64,
    /// Links crossed, in order.
    pub links: Vec<PathLink>,
}

impl PathCost {
    /// Number of hops (links) on the path.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// Bottleneck bandwidth in GB/s ignoring contention
    /// (`f64::INFINITY` for an empty self-path).
    pub fn min_gbps(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.gbps)
            .fold(f64::INFINITY, f64::min)
    }
}

/// The interconnect a schedule is costed against.
///
/// `Flat` reproduces the legacy two-scalar model bit-for-bit: one shared
/// host pipe (`host_gbps`, zero latency) and a dedicated full-bisection
/// peer link per rank pair (`peer_gbps`). `Topology` routes every flow
/// through the graph with real per-hop latency and shared-link
/// contention.
#[derive(Clone, Copy, Debug)]
pub enum Fabric<'a> {
    /// Legacy flat scalars (`MultiGpuSystem::{interconnect,peer}_gbps`).
    Flat {
        /// Device↔host bandwidth in GB/s, shared by all ranks.
        host_gbps: f64,
        /// Per-pair peer bandwidth in GB/s, full bisection.
        peer_gbps: f64,
    },
    /// An explicit interconnect topology graph.
    Topology(&'a Topology),
}

impl Fabric<'_> {
    /// Resolves the path between two endpoints.
    ///
    /// # Panics
    ///
    /// Panics if a topology fabric has no route between the endpoints
    /// (disconnected graph or out-of-range rank) — schedules are only
    /// built against fabrics where all routes exist. Use
    /// [`Self::try_path`] against a faulted fabric.
    pub fn path(&self, src: Endpoint, dst: Endpoint) -> PathCost {
        self.try_path(src, dst)
            .expect("fabric endpoints must be connected")
    }

    /// Resolves the path between two endpoints, or reports the
    /// disconnection — the expected outcome on a fabric carrying link
    /// faults.
    pub fn try_path(&self, src: Endpoint, dst: Endpoint) -> Result<PathCost, RouteError> {
        if src == dst {
            return Ok(PathCost {
                alpha_s: 0.0,
                links: Vec::new(),
            });
        }
        match *self {
            Fabric::Flat {
                host_gbps,
                peer_gbps,
            } => {
                let (id, gbps) = match (src, dst) {
                    (Endpoint::Rank(a), Endpoint::Rank(b)) => {
                        (LinkId::FlatPeer(a.min(b), a.max(b)), peer_gbps)
                    }
                    _ => (LinkId::FlatHost, host_gbps),
                };
                Ok(PathCost {
                    alpha_s: 0.0,
                    links: vec![PathLink { id, gbps }],
                })
            }
            Fabric::Topology(topo) => {
                let route = match (src, dst) {
                    (Endpoint::Rank(a), Endpoint::Rank(b)) => topo.try_gpu_route(a, b)?,
                    (Endpoint::Rank(a), Endpoint::Host) => topo.try_gpu_to_host_route(a)?,
                    (Endpoint::Host, Endpoint::Rank(b)) => {
                        let mut r = topo.try_gpu_to_host_route(b)?;
                        r.nodes.reverse();
                        r.links.reverse();
                        r
                    }
                    (Endpoint::Host, Endpoint::Host) => unreachable!("src == dst handled above"),
                };
                let links = route
                    .links
                    .iter()
                    .map(|&li| PathLink {
                        id: LinkId::Topo(li),
                        gbps: topo.links()[li].bandwidth_gbps,
                    })
                    .collect();
                Ok(PathCost {
                    alpha_s: route.alpha_s,
                    links,
                })
            }
        }
    }

    /// Human-readable label of a link this fabric's paths cross
    /// (`"box0/gpu0<->box0/nvswitch"`, `"flat-host"`).
    ///
    /// # Panics
    ///
    /// Panics when `id` names a topology link and the fabric is flat, or
    /// the index is out of range: ids come from this fabric's own paths.
    pub fn link_label(&self, id: LinkId) -> String {
        match (id, self) {
            (LinkId::Topo(li), Fabric::Topology(topo)) => topo.link_label(li),
            (LinkId::Topo(_), Fabric::Flat { .. }) => {
                panic!("a flat fabric has no topology links")
            }
            (LinkId::FlatPeer(lo, hi), _) => format!("flat-peer gpu{lo}<->gpu{hi}"),
            (LinkId::FlatHost, _) => "flat-host".to_string(),
        }
    }
}

/// One point-to-point transfer within a step.
#[derive(Clone, Debug, PartialEq)]
pub struct Flow {
    /// Sender.
    pub src: Endpoint,
    /// Receiver.
    pub dst: Endpoint,
    /// Start of the element range carried (inclusive), for replay rules.
    pub lo: usize,
    /// End of the element range carried (exclusive).
    pub hi: usize,
    /// Payload size in bytes.
    pub bytes: f64,
    /// Whether the payload is claimed to be *fully reduced* over every
    /// contributing rank for its element range (checked by the analyze
    /// COMM-002 rule).
    pub reduced: bool,
}

/// A set of flows that execute concurrently; the schedule advances to
/// the next step only when every flow of this one has completed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CommStep {
    /// Concurrent flows.
    pub flows: Vec<Flow>,
}

/// Tuning knobs for schedule costing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CommConfig {
    /// Pipelining granularity for multi-hop routes, in bytes. Each hop
    /// after the first adds one chunk of store-and-forward fill latency.
    pub chunk_bytes: f64,
}

impl Default for CommConfig {
    fn default() -> Self {
        Self {
            // 4 MiB: large enough to amortise per-message overhead,
            // small enough that multi-hop fill time stays negligible.
            chunk_bytes: 4.0 * 1024.0 * 1024.0,
        }
    }
}

/// Aggregate traffic over one physical link across the whole schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkLoad {
    /// Link identity.
    pub link: LinkId,
    /// Human-readable label.
    pub label: String,
    /// Uncontended bandwidth in GB/s.
    pub gbps: f64,
    /// Total bytes carried across all steps.
    pub bytes: f64,
    /// Maximum number of flows sharing the link within a single step.
    pub peak_flows: usize,
}

/// A fully lowered collective: steps, ownership metadata, and (after
/// [`CommSchedule::finalize`]) the α–β cost and per-link loads.
#[derive(Clone, Debug, PartialEq)]
pub struct CommSchedule {
    /// Strategy name (`"ring-all-reduce"`, `"host-gather"`, …).
    pub strategy: String,
    /// Number of participating GPU ranks.
    pub n_ranks: usize,
    /// Logical vector length being reduced/gathered (elements).
    pub vec_len: usize,
    /// Bytes per element (0 when flows carry explicit opaque payloads).
    pub elem_bytes: f64,
    /// Initial contribution range of each rank: rank `r` holds a partial
    /// of elements `rank_owns[r].0 .. rank_owns[r].1` before step 0.
    /// Reductions start from these; the host must end up covering the
    /// union.
    pub rank_owns: Vec<(usize, usize)>,
    /// Ordered steps.
    pub steps: Vec<CommStep>,
    /// Element-combine operations the *host* performs after receiving
    /// (e.g. host-gather reduces `(n_ranks − 1) · vec_len` pairs).
    pub host_reduce_ops: u64,
    /// Modelled wall-clock of the schedule in seconds (set by
    /// [`CommSchedule::finalize`]).
    pub total_s: f64,
    /// Modelled wall-clock of each step in seconds, indexed like
    /// [`CommSchedule::steps`] (set by [`CommSchedule::finalize`]; sums
    /// to [`CommSchedule::total_s`]).
    pub step_s: Vec<f64>,
    /// Per-link aggregate loads (set by [`CommSchedule::finalize`]).
    pub link_loads: Vec<LinkLoad>,
}

impl CommSchedule {
    /// Creates an empty schedule skeleton.
    pub fn new(strategy: &str, n_ranks: usize, vec_len: usize, elem_bytes: f64) -> Self {
        Self {
            strategy: strategy.to_string(),
            n_ranks,
            vec_len,
            elem_bytes,
            rank_owns: vec![(0, vec_len); n_ranks],
            steps: Vec::new(),
            host_reduce_ops: 0,
            total_s: 0.0,
            step_s: Vec::new(),
            link_loads: Vec::new(),
        }
    }

    /// Total payload bytes across every flow of every step.
    pub fn total_bytes(&self) -> f64 {
        self.steps
            .iter()
            .flat_map(|s| s.flows.iter())
            .map(|f| f.bytes)
            .sum()
    }

    /// Number of point-to-point flows in the schedule.
    pub fn n_flows(&self) -> usize {
        self.steps.iter().map(|s| s.flows.len()).sum()
    }

    /// Costs the schedule against `fabric`, filling `total_s` and
    /// `link_loads`.
    ///
    /// Within a step, each link's bandwidth is divided evenly among the
    /// flows crossing it; a flow's effective rate is its path's most
    /// contended link. A flow's completion time is
    /// `α + (bytes + (hops − 1) · min(chunk, bytes)) / rate` — the extra
    /// term is the store-and-forward pipeline fill on multi-hop routes —
    /// and a step completes when its slowest flow does.
    pub fn finalize(&mut self, fabric: &Fabric<'_>, cfg: &CommConfig) {
        let mut total_s = 0.0;
        let mut per_step_s: Vec<f64> = Vec::with_capacity(self.steps.len());
        let mut loads: Vec<LinkLoad> = Vec::new();
        for step in &self.steps {
            let paths: Vec<PathCost> = step
                .flows
                .iter()
                .map(|f| fabric.path(f.src, f.dst))
                .collect();
            // Per-link concurrent flow counts for this step.
            let mut counts: Vec<(LinkId, usize)> = Vec::new();
            for path in &paths {
                for link in &path.links {
                    match counts.iter_mut().find(|(id, _)| *id == link.id) {
                        Some((_, c)) => *c += 1,
                        None => counts.push((link.id, 1)),
                    }
                }
            }
            let mut step_s = 0.0_f64;
            for (flow, path) in step.flows.iter().zip(&paths) {
                if path.links.is_empty() {
                    continue; // self-transfer: free
                }
                let rate_gbps = path
                    .links
                    .iter()
                    .map(|l| {
                        let shared = counts
                            .iter()
                            .find(|(id, _)| *id == l.id)
                            .map_or(1, |(_, c)| *c);
                        l.gbps / shared as f64
                    })
                    .fold(f64::INFINITY, f64::min);
                let fill = (path.hops() - 1) as f64 * cfg.chunk_bytes.min(flow.bytes);
                let flow_s = path.alpha_s + (flow.bytes + fill) / (rate_gbps * 1e9);
                step_s = step_s.max(flow_s);
                for link in &path.links {
                    let shared = counts
                        .iter()
                        .find(|(id, _)| *id == link.id)
                        .map_or(1, |(_, c)| *c);
                    match loads.iter_mut().find(|l| l.link == link.id) {
                        Some(l) => {
                            l.bytes += flow.bytes;
                            l.peak_flows = l.peak_flows.max(shared);
                        }
                        None => loads.push(LinkLoad {
                            link: link.id,
                            label: fabric.link_label(link.id),
                            gbps: link.gbps,
                            bytes: flow.bytes,
                            peak_flows: shared,
                        }),
                    }
                }
            }
            total_s += step_s;
            per_step_s.push(step_s);
        }
        loads.sort_by_key(|l| l.link);
        self.total_s = total_s;
        self.step_s = per_step_s;
        self.link_loads = loads;
    }
}

/// Emission of a finalized schedule onto the fabric lane of the active
/// `distmsm-telemetry` session.
pub mod telemetry {
    use super::{CommSchedule, Endpoint};
    use distmsm_telemetry::{session, Lane, Span};

    fn endpoint_name(e: Endpoint) -> String {
        match e {
            Endpoint::Rank(r) => format!("gpu{r}"),
            Endpoint::Host => "host".into(),
        }
    }

    /// Emits `sched` starting at simulated time `t0_s`: one structural
    /// `"collective"` parent span covering the whole schedule, one
    /// `"transfer"` child span per step (durations from
    /// [`CommSchedule::step_s`], so children sum exactly to
    /// [`CommSchedule::total_s`]), a cumulative `fabric-bytes` counter
    /// sample at each step boundary, and a `flow-bytes` histogram
    /// entry per flow. No-op when no session is active or the schedule
    /// was never finalized.
    pub fn emit_schedule(sched: &CommSchedule, t0_s: f64) {
        if !session::active() || sched.step_s.len() != sched.steps.len() {
            return;
        }
        session::push_span(Span {
            name: format!("{}({} ranks)", sched.strategy, sched.n_ranks),
            cat: "collective".into(),
            lane: Lane::Fabric,
            t0_s,
            t1_s: t0_s + sched.total_s,
            args: vec![
                ("strategy".into(), sched.strategy.clone()),
                ("steps".into(), sched.steps.len().to_string()),
                ("flows".into(), sched.n_flows().to_string()),
                ("bytes".into(), format!("{}", sched.total_bytes())),
            ],
        });
        let mut cursor = t0_s;
        let mut cum_bytes = 0.0;
        for (i, (step, &dur)) in sched.steps.iter().zip(&sched.step_s).enumerate() {
            let step_bytes: f64 = step.flows.iter().map(|f| f.bytes).sum();
            cum_bytes += step_bytes;
            let mut args = vec![
                ("flows".into(), step.flows.len().to_string()),
                ("bytes".into(), format!("{step_bytes}")),
            ];
            if let Some(f) = step.flows.first() {
                args.push((
                    "first-flow".into(),
                    format!(
                        "{}->{} [{}, {})",
                        endpoint_name(f.src),
                        endpoint_name(f.dst),
                        f.lo,
                        f.hi
                    ),
                ));
            }
            session::push_span(Span {
                name: format!("step{}/{}", i, sched.steps.len()),
                cat: "transfer".into(),
                lane: Lane::Fabric,
                t0_s: cursor,
                t1_s: cursor + dur,
                args,
            });
            cursor += dur;
            session::push_counter(distmsm_telemetry::CounterSample {
                name: "fabric-bytes".into(),
                lane: Lane::Fabric,
                t_s: cursor,
                value: cum_bytes,
            });
            for f in &step.flows {
                session::record_histogram("flow-bytes", f.bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat() -> Fabric<'static> {
        Fabric::Flat {
            host_gbps: 64.0,
            peer_gbps: 600.0,
        }
    }

    #[test]
    fn flat_host_gather_matches_legacy_serialized_pipe() {
        // n flows of B bytes over the shared host link must cost exactly
        // n·B / host_gbps — the legacy `transfer_time(total_bytes)`.
        let n = 4;
        let bytes = 1e6;
        let mut sched = CommSchedule::new("host-gather", n, n, bytes);
        let mut step = CommStep::default();
        for r in 0..n {
            step.flows.push(Flow {
                src: Endpoint::Rank(r),
                dst: Endpoint::Host,
                lo: r,
                hi: r + 1,
                bytes,
                reduced: true,
            });
        }
        sched.steps.push(step);
        sched.finalize(&flat(), &CommConfig::default());
        let expect = n as f64 * bytes / (64.0 * 1e9);
        assert!((sched.total_s - expect).abs() < 1e-15 * expect.max(1.0));
        assert_eq!(sched.link_loads.len(), 1);
        assert_eq!(sched.link_loads[0].peak_flows, n);
    }

    #[test]
    fn flat_peer_links_are_full_bisection() {
        // Two disjoint peer flows don't contend with each other.
        let bytes = 1e9;
        let mut sched = CommSchedule::new("ring", 4, 4, bytes);
        let mut step = CommStep::default();
        for (a, b) in [(0, 1), (2, 3)] {
            step.flows.push(Flow {
                src: Endpoint::Rank(a),
                dst: Endpoint::Rank(b),
                lo: 0,
                hi: 4,
                bytes,
                reduced: false,
            });
        }
        sched.steps.push(step);
        sched.finalize(&flat(), &CommConfig::default());
        let expect = bytes / (600.0 * 1e9);
        assert!((sched.total_s - expect).abs() < 1e-15);
        assert_eq!(sched.link_loads.len(), 2);
    }

    #[test]
    fn topology_contention_halves_shared_link() {
        // Two GPUs pushing to the host through the shared hub→host root
        // port take twice as long as one.
        let topo = Topology::single_box(4);
        let fab = Fabric::Topology(&topo);
        let cfg = CommConfig::default();
        let bytes = 1e9;
        let flow = |r: usize| Flow {
            src: Endpoint::Rank(r),
            dst: Endpoint::Host,
            lo: 0,
            hi: 1,
            bytes,
            reduced: true,
        };
        let mut one = CommSchedule::new("g", 4, 1, bytes);
        one.steps.push(CommStep {
            flows: vec![flow(0)],
        });
        one.finalize(&fab, &cfg);
        let mut two = CommSchedule::new("g", 4, 1, bytes);
        two.steps.push(CommStep {
            flows: vec![flow(0), flow(1)],
        });
        two.finalize(&fab, &cfg);
        assert!(two.total_s > 1.9 * one.total_s);
        assert!(two.total_s < 2.1 * one.total_s);
    }

    #[test]
    fn multi_hop_pays_pipeline_fill_and_alpha() {
        let topo = Topology::single_box(2);
        let fab = Fabric::Topology(&topo);
        let cfg = CommConfig::default();
        let bytes = 256.0 * 1024.0 * 1024.0;
        let mut sched = CommSchedule::new("p", 2, 1, bytes);
        sched.steps.push(CommStep {
            flows: vec![Flow {
                src: Endpoint::Rank(0),
                dst: Endpoint::Rank(1),
                lo: 0,
                hi: 1,
                bytes,
                reduced: false,
            }],
        });
        sched.finalize(&fab, &cfg);
        let path = fab.path(Endpoint::Rank(0), Endpoint::Rank(1));
        assert_eq!(path.hops(), 2);
        let naive = bytes / (600.0 * 1e9);
        // strictly more than flat-rate (α + one chunk of fill), but close
        assert!(sched.total_s > naive);
        assert!(sched.total_s < naive * 1.2);
    }

    #[test]
    fn self_flow_is_free() {
        let mut sched = CommSchedule::new("s", 2, 1, 8.0);
        sched.steps.push(CommStep {
            flows: vec![Flow {
                src: Endpoint::Rank(1),
                dst: Endpoint::Rank(1),
                lo: 0,
                hi: 1,
                bytes: 1e9,
                reduced: false,
            }],
        });
        sched.finalize(&flat(), &CommConfig::default());
        assert_eq!(sched.total_s, 0.0);
    }
}
