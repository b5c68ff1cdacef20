//! Deterministic, seedable fault injection for the simulated multi-GPU
//! system.
//!
//! The paper's 8–32 GPU deployments are exactly the scale at which real
//! provers see device loss, link flaps and stragglers, so the simulator
//! models degraded hardware explicitly. A [`FaultPlan`] is a *plan*, not
//! a random process: every fault is pinned to a `(device, event)`
//! coordinate (an *event* is one unit of scheduled work on that device —
//! the engine counts its per-device slice sequence), so a run with a
//! given plan is exactly reproducible, and the fault-free reference for
//! the same seed is always available by running without the plan.
//!
//! Three device-fault classes (the taxonomy of DESIGN.md §10):
//!
//! * [`FaultKind::FailStop`] — the device aborts at its trigger event
//!   and never comes back; every later event on it is lost.
//! * [`FaultKind::Straggler`] — the device completes its trigger event
//!   and everything after it `slowdown`× slower (thermal throttling, a
//!   flaky VBIOS, a noisy neighbour). Results stay correct; tail latency
//!   does not.
//! * [`FaultKind::BitFlip`] — one bit of the event's *output buffer*
//!   flips in flight (silent data corruption on the wire or in HBM): the
//!   host receives a value that is not what the device computed.
//!
//! Link faults ([`LinkFault`]) degrade the interconnect instead of a
//! device: a GPU's NVLink port drops or runs below nominal bandwidth,
//! forcing the topology's Dijkstra router onto detour paths and
//! re-pricing every schedule (see `distmsm-comms`).
//!
//! Plans are attached to an execution attempt: a [`FaultEvent`] fires
//! only on the attempt it names (default 0), so a service-level retry of
//! a whole MSM models a *transient* fault clearing, while re-running
//! attempt 0 reproduces it bit-for-bit.

/// What happens to a device at its trigger event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The device aborts at the trigger event and is lost for the rest
    /// of the execution (fail-stop model: no Byzantine half-results).
    FailStop,
    /// From the trigger event on, the device runs `slowdown`× slower
    /// (`slowdown > 1.0`). Output values are unaffected.
    Straggler {
        /// Multiplier applied to the device's kernel times.
        slowdown: f64,
    },
    /// The output buffer of the trigger event is corrupted in flight: the
    /// host receives a bit-flipped value. Detection requires the
    /// engine's probabilistic self-check; a retry of the shipment
    /// delivers the uncorrupted value (the flip is transient).
    BitFlip,
}

impl FaultKind {
    /// Short stable label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Self::FailStop => "fail-stop",
            Self::Straggler { .. } => "straggler",
            Self::BitFlip => "bit-flip",
        }
    }
}

/// One planned device fault: `kind` fires on `device` when it reaches
/// work event `at_event`, but only during execution attempt `attempt`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Device (GPU) index the fault strikes.
    pub device: usize,
    /// Per-device work-event index at which it fires (the engine counts
    /// one event per scheduled slice, in plan order).
    pub at_event: u64,
    /// Execution attempt the fault fires on (0 = first run). A
    /// service-level retry runs attempt 1, on which attempt-0 faults
    /// stay quiet — the transient-fault model.
    pub attempt: u32,
    /// Fault class.
    pub kind: FaultKind,
}

/// A planned interconnect fault, applied to the system's topology before
/// execution starts (link flaps are modelled as already-down links: the
/// router sees the degraded graph for the whole MSM). Every system
/// carries a topology, so every variant re-routes or re-prices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinkFault {
    /// GPU `rank`'s NVLink/peer-switch port is down. Peer traffic must
    /// detour (typically through the PCIe hub); if no detour exists the
    /// rank is partitioned.
    PeerPortDown {
        /// Global GPU rank whose peer port fails.
        rank: usize,
    },
    /// GPU `rank`'s peer port runs at `factor` of nominal bandwidth
    /// (`0 < factor ≤ 1`): a degraded link that stays routable but
    /// re-prices every schedule crossing it.
    PeerPortDegraded {
        /// Global GPU rank whose peer port degrades.
        rank: usize,
        /// Remaining fraction of nominal bandwidth.
        factor: f64,
    },
    /// GPU `rank`'s PCIe/host port is down: with its peer port also
    /// down the rank cannot reach the host and must be treated as lost.
    HostPortDown {
        /// Global GPU rank whose host port fails.
        rank: usize,
    },
}

/// A deterministic fault-injection plan: device faults plus link faults.
///
/// The empty plan (the [`Default`]) injects nothing and costs nothing —
/// engines treat it as "supervision off".
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Planned device faults.
    pub events: Vec<FaultEvent>,
    /// Planned interconnect faults.
    pub link_faults: Vec<LinkFault>,
}

impl FaultPlan {
    /// The empty plan: no faults, supervision disabled.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.link_faults.is_empty()
    }

    /// A single fail-stop fault: `device` dies at `at_event` (attempt 0).
    pub fn fail_stop(device: usize, at_event: u64) -> Self {
        Self::default().with_event(FaultEvent {
            device,
            at_event,
            attempt: 0,
            kind: FaultKind::FailStop,
        })
    }

    /// A single straggler fault: `device` slows by `slowdown`× from
    /// `at_event` on (attempt 0).
    pub fn straggler(device: usize, at_event: u64, slowdown: f64) -> Self {
        Self::default().with_event(FaultEvent {
            device,
            at_event,
            attempt: 0,
            kind: FaultKind::Straggler { slowdown },
        })
    }

    /// A single transient bit-flip: the output of `device`'s `at_event`
    /// is corrupted in flight (attempt 0).
    pub fn bit_flip(device: usize, at_event: u64) -> Self {
        Self::default().with_event(FaultEvent {
            device,
            at_event,
            attempt: 0,
            kind: FaultKind::BitFlip,
        })
    }

    /// Adds a device fault (builder style).
    #[must_use]
    pub fn with_event(mut self, ev: FaultEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Adds a link fault (builder style).
    #[must_use]
    pub fn with_link_fault(mut self, lf: LinkFault) -> Self {
        self.link_faults.push(lf);
        self
    }

    /// A seedable random plan: each of `n_gpus × horizon` device-event
    /// coordinates draws a fault with probability `rate`, the kind
    /// cycling deterministically through fail-stop, straggler and
    /// bit-flip. Identical `(seed, n_gpus, rate, horizon)` always yields
    /// the identical plan. Device 0 is never fail-stopped so at least
    /// one survivor remains for re-planning.
    pub fn random(seed: u64, n_gpus: usize, rate: f64, horizon: u64) -> Self {
        let mut plan = Self::default();
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
        for device in 0..n_gpus {
            for event in 0..horizon {
                let draw = splitmix64(&mut state);
                // top 53 bits → uniform in [0, 1)
                let u = (draw >> 11) as f64 / (1u64 << 53) as f64;
                if u >= rate {
                    continue;
                }
                let kind = match splitmix64(&mut state) % 3 {
                    0 if device != 0 => FaultKind::FailStop,
                    1 => FaultKind::Straggler {
                        slowdown: 1.5 + (splitmix64(&mut state) % 200) as f64 / 100.0,
                    },
                    _ => FaultKind::BitFlip,
                };
                plan = plan.with_event(FaultEvent {
                    device,
                    at_event: event,
                    attempt: 0,
                    kind,
                });
            }
        }
        plan
    }

    /// The earliest event at which `device` fail-stops during `attempt`,
    /// if any.
    pub fn fail_stop_event(&self, device: usize, attempt: u32) -> Option<u64> {
        self.events
            .iter()
            .filter(|e| {
                e.device == device && e.attempt == attempt && e.kind == FaultKind::FailStop
            })
            .map(|e| e.at_event)
            .min()
    }

    /// The straggler profile of `device` during `attempt`: the earliest
    /// trigger event and the worst slowdown at or after it.
    pub fn straggler_from(&self, device: usize, attempt: u32) -> Option<(u64, f64)> {
        let mut out: Option<(u64, f64)> = None;
        for e in &self.events {
            if e.device != device || e.attempt != attempt {
                continue;
            }
            if let FaultKind::Straggler { slowdown } = e.kind {
                out = Some(match out {
                    None => (e.at_event, slowdown),
                    Some((ev, sl)) => (ev.min(e.at_event), sl.max(slowdown)),
                });
            }
        }
        out
    }

    /// Events of `device` whose output buffers are bit-flipped during
    /// `attempt`, in ascending order.
    pub fn bit_flip_events(&self, device: usize, attempt: u32) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .events
            .iter()
            .filter(|e| e.device == device && e.attempt == attempt && e.kind == FaultKind::BitFlip)
            .map(|e| e.at_event)
            .collect();
        out.sort_unstable();
        out
    }
}

/// SplitMix64 step: the crate-local deterministic generator used for
/// random plans and the engine's self-check coefficients (kept
/// dependency-free on purpose — plans must not drift with a rand
/// implementation).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert!(!FaultPlan::fail_stop(1, 0).is_empty());
        assert!(!FaultPlan::none()
            .with_link_fault(LinkFault::PeerPortDown { rank: 0 })
            .is_empty());
    }

    #[test]
    fn random_plans_are_deterministic() {
        let a = FaultPlan::random(42, 8, 0.2, 16);
        let b = FaultPlan::random(42, 8, 0.2, 16);
        assert_eq!(a, b);
        let c = FaultPlan::random(43, 8, 0.2, 16);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn random_rate_scales_fault_count() {
        let low = FaultPlan::random(7, 16, 0.01, 64).events.len();
        let high = FaultPlan::random(7, 16, 0.3, 64).events.len();
        assert!(high > low, "low={low} high={high}");
        assert!(FaultPlan::random(7, 16, 0.0, 64).is_empty());
    }

    #[test]
    fn random_never_fail_stops_device_zero() {
        let plan = FaultPlan::random(3, 4, 0.9, 64);
        assert!(plan.fail_stop_event(0, 0).is_none());
        assert!(!plan.is_empty());
    }

    #[test]
    fn queries_respect_attempt_scoping() {
        let plan = FaultPlan::fail_stop(2, 5).with_event(FaultEvent {
            device: 2,
            at_event: 1,
            attempt: 1,
            kind: FaultKind::BitFlip,
        });
        assert_eq!(plan.fail_stop_event(2, 0), Some(5));
        assert_eq!(plan.fail_stop_event(2, 1), None);
        assert!(plan.bit_flip_events(2, 0).is_empty());
        assert_eq!(plan.bit_flip_events(2, 1), vec![1]);
    }

    #[test]
    fn straggler_profile_takes_earliest_and_worst() {
        let plan = FaultPlan::straggler(1, 8, 2.0).with_event(FaultEvent {
            device: 1,
            at_event: 3,
            attempt: 0,
            kind: FaultKind::Straggler { slowdown: 4.0 },
        });
        assert_eq!(plan.straggler_from(1, 0), Some((3, 4.0)));
        assert_eq!(plan.straggler_from(0, 0), None);
    }

    #[test]
    fn splitmix_is_stable() {
        let mut s = 0u64;
        let a = splitmix64(&mut s);
        let b = splitmix64(&mut s);
        assert_ne!(a, b);
        let mut s2 = 0u64;
        assert_eq!(splitmix64(&mut s2), a);
    }
}
