//! Multi-GPU system composition: device sets, the host CPU, and the
//! interconnect [`Topology`] every gather, collective and peer transfer
//! is routed through (so multi-node systems show the cross-node knee).

use crate::device::DeviceSpec;
use distmsm_comms::{gather_to_host, CommConfig, Topology};

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
    /// The interconnect graph: node boundaries, NIC bottlenecks and
    /// link contention price every transfer.
    pub topology: Topology,
}

impl MultiGpuSystem {
    /// `n` identical devices with the default DGX host, in one box: an
    /// NVSwitch peer plane and a shared 64 GB/s PCIe root port to the
    /// host ([`Topology::single_box`]).
    pub fn homogeneous(spec: DeviceSpec, n: usize) -> Self {
        Self {
            devices: vec![spec; n],
            cpu: CpuSpec::dual_rome_7742(),
            topology: Topology::single_box(n.max(1)),
        }
    }

    /// An `n`-GPU Nvidia DGX-A100 deployment (the paper's testbed): one
    /// NVSwitch box for `n ≤ 8`, and for `n > 8` — as in the paper's 16-
    /// and 32-GPU runs — a multi-box pod whose boxes meet over an
    /// InfiniBand fabric, so cross-node traffic pays the NIC bottleneck
    /// instead of pretending to ride box-local NVLink.
    pub fn dgx_a100(n: usize) -> Self {
        let sys = Self::homogeneous(DeviceSpec::a100(), n);
        if n > 8 {
            Self { topology: Topology::dgx_pod(n), ..sys }
        } else {
            sys
        }
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.devices.len()
    }

    /// The fabric collectives and gathers are costed against.
    pub fn fabric(&self) -> &Topology {
        &self.topology
    }

    /// Seconds to gather `per_gpu_bytes[r]` from every GPU `r` to the
    /// host, routed through [`Self::fabric`]: root-port and NIC
    /// contention included.
    pub fn gather_to_host_time(&self, per_gpu_bytes: &[f64]) -> f64 {
        gather_to_host(per_gpu_bytes, &self.topology, &CommConfig::default()).total_s
    }

    /// Seconds to move `bytes` from GPU `a` to GPU `b` through the
    /// fabric (uncontended); a GPU's transfer to itself is free.
    pub fn peer_time(&self, a: usize, b: usize, bytes: f64) -> f64 {
        let route = self.topology.gpu_route(a, b);
        if route.links.is_empty() {
            return 0.0;
        }
        route.alpha_s + bytes / (route.min_gbps * 1e9)
    }

    /// A copy of this system with `faults` applied to its topology:
    /// peer/host ports of the named ranks go down or degrade, so every
    /// route and schedule built against the copy re-prices around the
    /// damage. A fault naming a rank outside the system changes nothing.
    pub fn degraded(&self, faults: &[crate::fault::LinkFault]) -> Self {
        use crate::fault::LinkFault;
        let mut sys = self.clone();
        let topo = &mut sys.topology;
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
        sys
    }

    /// GPU ranks that can still reach the master host over the (possibly
    /// degraded) fabric.
    pub fn ranks_reaching_host(&self) -> Vec<usize> {
        (0..self.n_gpus())
            .filter(|&r| self.topology.try_gpu_to_host_route(r).is_ok())
            .collect()
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
        assert_eq!(sys.topology, Topology::single_box(8));
        let pod = MultiGpuSystem::dgx_a100(16);
        assert!(pod.topology.name.contains("pod"));
        assert_eq!(pod.topology.n_gpus(), 16);
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
        // past one 4 MiB chunk of fill, each extra 64 GB through the
        // 64 GB/s root port costs one more second
        let sys = MultiGpuSystem::dgx_a100(1);
        let t = sys.gather_to_host_time(&[128e9]) - sys.gather_to_host_time(&[64e9]);
        assert!((t - 1.0).abs() < 1e-9);
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
        let topo = &sys.topology;
        for r in 0..n {
            assert!(topo.try_gpu_to_host_route(r).is_err(), "rank {r}");
        }
        assert!(topo.try_gpu_route(0, 1).is_err());
    }
}
