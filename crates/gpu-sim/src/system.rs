//! Multi-GPU system composition: device sets, the host CPU, and the
//! interconnect used to gather per-GPU partial results.
//!
//! Two interconnect models coexist: the legacy *flat* scalars
//! (`interconnect_gbps` / `peer_gbps`) and an optional explicit
//! [`Topology`] graph. When a topology is present, transfer helpers and
//! the comms collectives route through it (so multi-node systems show
//! the cross-node knee); when absent, the flat formulas are preserved
//! bit-for-bit for reproducibility of older tables.

use crate::device::DeviceSpec;
use distmsm_comms::{gather_to_host, CommConfig, Fabric, Topology};

/// Host CPU description.
///
/// The paper sizes CPU work (the *bucket-reduce* offload of §3.2.3 and the
/// libsnark baseline of Table 4) through a single sustained integer
/// throughput figure. The default models the dual AMD Rome 7742 of the
/// evaluated DGX: its effective big-integer throughput is ≈128× below one
/// A100, matching the paper's "a GPU could be up to 128× faster than a
/// high-end CPU".
#[derive(Clone, Debug, PartialEq)]
pub struct CpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Physical cores.
    pub cores: u32,
    /// Sustained int32-equivalent ops/s across all cores.
    pub int_ops_per_sec: f64,
}

impl CpuSpec {
    /// Dual AMD Rome 7742 (the DGX host of the paper's evaluation).
    pub fn dual_rome_7742() -> Self {
        Self {
            name: "2x AMD Rome 7742",
            cores: 128,
            int_ops_per_sec: 1.5e11,
        }
    }

    /// Time to execute `ops` int32-equivalent operations on the host.
    pub fn compute_time(&self, ops: f64) -> f64 {
        ops / self.int_ops_per_sec
    }
}

/// A distributed multi-GPU system: devices + host + interconnect.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiGpuSystem {
    /// The GPUs (homogeneous in the paper's evaluation, heterogeneous
    /// allowed here).
    pub devices: Vec<DeviceSpec>,
    /// The host CPU that runs *bucket-reduce* and *window-reduce*.
    pub cpu: CpuSpec,
    /// Host↔device interconnect bandwidth in GB/s (PCIe class). Used by
    /// the legacy flat transfer model when [`Self::topology`] is `None`.
    pub interconnect_gbps: f64,
    /// GPU↔GPU peer bandwidth in GB/s (NVLink class on a DGX). Used by
    /// the legacy flat transfer model when [`Self::topology`] is `None`.
    pub peer_gbps: f64,
    /// Explicit interconnect topology. `Some` routes every gather and
    /// collective through the graph (node boundaries, NIC bottlenecks,
    /// link contention); `None` keeps the flat two-scalar model.
    pub topology: Option<Topology>,
}

impl MultiGpuSystem {
    /// `n` identical devices with the default DGX host and the flat
    /// interconnect model.
    pub fn homogeneous(spec: DeviceSpec, n: usize) -> Self {
        Self {
            devices: vec![spec; n],
            cpu: CpuSpec::dual_rome_7742(),
            interconnect_gbps: 64.0,
            peer_gbps: 600.0,
            topology: None,
        }
    }

    /// An `n`-GPU Nvidia DGX-A100 deployment (the paper's testbed),
    /// wired with an explicit topology: one NVSwitch box for `n ≤ 8`,
    /// and for `n > 8` — as in the paper's 16- and 32-GPU runs — a
    /// multi-box pod whose boxes meet over an InfiniBand fabric, so
    /// cross-node traffic pays the NIC bottleneck instead of pretending
    /// to ride box-local NVLink.
    pub fn dgx_a100(n: usize) -> Self {
        let topo = if n > 8 {
            Topology::dgx_pod(n)
        } else {
            Topology::single_box(n.max(1))
        };
        Self {
            topology: Some(topo),
            ..Self::homogeneous(DeviceSpec::a100(), n)
        }
    }

    /// The old `dgx_a100` behaviour: one flat pool where every GPU pair
    /// gets full NVLink bandwidth and the host is a single shared pipe,
    /// regardless of `n`. Physically wrong for n > 8 (it is how the
    /// pre-topology tables were produced — kept for their
    /// reproducibility), harmless for n ≤ 8.
    pub fn flat_pool(n: usize) -> Self {
        Self::homogeneous(DeviceSpec::a100(), n)
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.devices.len()
    }

    /// The fabric collectives and gathers are costed against: the
    /// explicit topology when present, the flat scalars otherwise.
    pub fn fabric(&self) -> Fabric<'_> {
        match &self.topology {
            Some(t) => Fabric::Topology(t),
            None => Fabric::Flat {
                host_gbps: self.interconnect_gbps,
                peer_gbps: self.peer_gbps,
            },
        }
    }

    /// Seconds to move `bytes` across the host interconnect under the
    /// flat model (one shared pipe, no latency). Topology-aware call
    /// sites should use [`Self::gather_to_host_time`] or the comms
    /// collectives instead.
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        bytes / (self.interconnect_gbps * 1e9)
    }

    /// Seconds to move `bytes` between GPUs over the peer links under
    /// the flat model.
    pub fn peer_transfer_time(&self, bytes: f64) -> f64 {
        bytes / (self.peer_gbps * 1e9)
    }

    /// Seconds to gather `per_gpu_bytes[r]` from every GPU `r` to the
    /// host, routed through [`Self::fabric`]. On a flat fabric with
    /// equal payloads this reduces exactly to
    /// `transfer_time(total_bytes)`; on a topology it meters root-port
    /// and NIC contention.
    pub fn gather_to_host_time(&self, per_gpu_bytes: &[f64]) -> f64 {
        gather_to_host(per_gpu_bytes, &self.fabric(), &CommConfig::default()).total_s
    }

    /// Seconds to move `bytes` from GPU `a` to GPU `b` through the
    /// fabric (uncontended).
    pub fn peer_time(&self, a: usize, b: usize, bytes: f64) -> f64 {
        use distmsm_comms::Endpoint;
        let path = self.fabric().path(Endpoint::Rank(a), Endpoint::Rank(b));
        if path.links.is_empty() {
            return 0.0;
        }
        path.alpha_s + bytes / (path.min_gbps() * 1e9)
    }

    /// A copy of this system with `faults` applied to its topology:
    /// peer/host ports of the named ranks go down or degrade, so every
    /// route and schedule built against the copy re-prices around the
    /// damage. On a flat (no-topology) system peer-port faults scale the
    /// shared `peer_gbps` scalar and host-port faults have no
    /// representable effect (the flat model has a single anonymous host
    /// pipe) — explicit topologies are where link faults bite.
    pub fn degraded(&self, faults: &[crate::fault::LinkFault]) -> Self {
        use crate::fault::LinkFault;
        let mut sys = self.clone();
        match &mut sys.topology {
            Some(topo) => {
                for f in faults {
                    match *f {
                        LinkFault::PeerPortDown { rank } => {
                            if let Some(l) = peer_port(topo, rank) {
                                topo.set_link_down(l);
                            }
                        }
                        LinkFault::PeerPortDegraded { rank, factor } => {
                            if let Some(l) = peer_port(topo, rank) {
                                topo.degrade_link(l, factor);
                            }
                        }
                        LinkFault::HostPortDown { rank } => {
                            if let Some(l) = host_port(topo, rank) {
                                topo.set_link_down(l);
                            }
                        }
                    }
                }
            }
            None => {
                for f in faults {
                    if let LinkFault::PeerPortDegraded { factor, .. } = *f {
                        sys.peer_gbps *= factor;
                    }
                }
            }
        }
        sys
    }

    /// GPU ranks that can still reach the master host over the (possibly
    /// degraded) fabric. On a flat fabric every rank always can.
    pub fn ranks_reaching_host(&self) -> Vec<usize> {
        match &self.topology {
            Some(topo) => (0..self.n_gpus())
                .filter(|&r| topo.try_gpu_to_host_route(r).is_ok())
                .collect(),
            None => (0..self.n_gpus()).collect(),
        }
    }
}

/// The highest-bandwidth link on `rank`'s node: its peer (NVLink) port
/// when one exists, otherwise its only (PCIe) port.
fn peer_port(topo: &Topology, rank: usize) -> Option<usize> {
    if rank >= topo.n_gpus() {
        return None;
    }
    let node = topo.gpu_node(rank);
    topo.links_of_node(node)
        .into_iter()
        .max_by(|&x, &y| {
            topo.links()[x]
                .bandwidth_gbps
                .total_cmp(&topo.links()[y].bandwidth_gbps)
        })
}

/// The lowest-bandwidth link on `rank`'s node: its PCIe/host port (on a
/// PCIe-only box this is its only port, same as the peer port).
fn host_port(topo: &Topology, rank: usize) -> Option<usize> {
    if rank >= topo.n_gpus() {
        return None;
    }
    let node = topo.gpu_node(rank);
    topo.links_of_node(node)
        .into_iter()
        .min_by(|&x, &y| {
            topo.links()[x]
                .bandwidth_gbps
                .total_cmp(&topo.links()[y].bandwidth_gbps)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dgx_shape() {
        let sys = MultiGpuSystem::dgx_a100(8);
        assert_eq!(sys.n_gpus(), 8);
        assert_eq!(sys.cpu.cores, 128);
    }

    #[test]
    fn cpu_gpu_ratio_matches_paper() {
        // §3.2.3: "a GPU could be up to 128× faster than a high-end CPU"
        let sys = MultiGpuSystem::dgx_a100(1);
        let gpu_ops = sys.devices[0].cuda_int32_tops * 1e12;
        let ratio = gpu_ops / sys.cpu.int_ops_per_sec;
        assert!((100.0..160.0).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn transfer_time_linear() {
        let sys = MultiGpuSystem::dgx_a100(1);
        let t = sys.transfer_time(64e9);
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dgx_is_topology_wired_and_flat_pool_is_not() {
        let multi = MultiGpuSystem::dgx_a100(16);
        let topo = multi.topology.as_ref().expect("dgx gets a topology");
        assert_eq!(topo.n_gpus(), 16);
        assert!(topo.name.contains("pod"));
        let flat = MultiGpuSystem::flat_pool(16);
        assert!(flat.topology.is_none());
        assert_eq!(flat.n_gpus(), 16);
    }

    #[test]
    fn flat_gather_matches_legacy_transfer_time() {
        let sys = MultiGpuSystem::flat_pool(4);
        let per = vec![1e8; 4];
        let gathered = sys.gather_to_host_time(&per);
        let legacy = sys.transfer_time(4e8);
        assert!((gathered - legacy).abs() < 1e-12 * legacy);
    }

    #[test]
    fn pod_gather_slower_than_flat_pool_at_equal_gpus() {
        let pod = MultiGpuSystem::dgx_a100(32);
        let flat = MultiGpuSystem::flat_pool(32);
        let per = vec![1e8; 32];
        assert!(pod.gather_to_host_time(&per) > flat.gather_to_host_time(&per));
    }

    #[test]
    fn degraded_peer_port_reroutes_and_reprices() {
        use crate::fault::LinkFault;
        let clean = MultiGpuSystem::dgx_a100(8);
        let hurt = clean.degraded(&[LinkFault::PeerPortDown { rank: 2 }]);
        // the faulted pair detours over PCIe and slows down
        assert!(hurt.peer_time(2, 3, 1e9) > clean.peer_time(2, 3, 1e9));
        // other pairs keep the NVSwitch plane
        assert!((hurt.peer_time(0, 1, 1e9) - clean.peer_time(0, 1, 1e9)).abs() < 1e-15);
        // everyone still reaches the host
        assert_eq!(hurt.ranks_reaching_host().len(), 8);
        // the original system is untouched
        assert_eq!(clean.ranks_reaching_host().len(), 8);
    }

    #[test]
    fn fully_downed_rank_drops_from_host_reachability() {
        use crate::fault::LinkFault;
        let sys = MultiGpuSystem::dgx_a100(8).degraded(&[
            LinkFault::PeerPortDown { rank: 5 },
            LinkFault::HostPortDown { rank: 5 },
        ]);
        let reach = sys.ranks_reaching_host();
        assert_eq!(reach.len(), 7);
        assert!(!reach.contains(&5));
    }

    #[test]
    fn all_host_links_down_is_a_route_error_not_a_panic() {
        use crate::fault::LinkFault;
        // Sever both planes of every rank: no GPU can reach the host and
        // no pair can reach each other, yet routing stays total — every
        // query returns a RouteError instead of panicking.
        let n = 4;
        let faults: Vec<LinkFault> = (0..n)
            .flat_map(|rank| {
                [
                    LinkFault::HostPortDown { rank },
                    LinkFault::PeerPortDown { rank },
                ]
            })
            .collect();
        let sys = MultiGpuSystem::dgx_a100(n).degraded(&faults);
        assert!(sys.ranks_reaching_host().is_empty());
        let topo = sys.topology.as_ref().expect("dgx gets a topology");
        for r in 0..n {
            assert!(topo.try_gpu_to_host_route(r).is_err(), "rank {r}");
        }
        assert!(topo.try_gpu_route(0, 1).is_err());
    }

    #[test]
    fn flat_system_degrades_peer_scalar() {
        use crate::fault::LinkFault;
        let sys = MultiGpuSystem::flat_pool(4)
            .degraded(&[LinkFault::PeerPortDegraded { rank: 1, factor: 0.5 }]);
        assert_eq!(sys.peer_gbps, 300.0);
        assert_eq!(sys.ranks_reaching_host().len(), 4);
    }
}
