//! Aggregated fleet accounting: per-pod rollups plus coordinator-level
//! counters, renderable and exportable as byte-stable JSON.
//!
//! Deliberately *aggregate*: a fleet soak runs 1000+ tenants, so the
//! report carries per-pod and fleet totals, not per-tenant rows — the
//! per-pod [`ServiceReport`]s remain available on the outcome for
//! drill-down.

use std::collections::BTreeSet;

use distmsm::report::JsonField::{Inline, Rows, Scalar};
use distmsm::report::{json_num, json_pretty, json_str};
use distmsm::{Phase, Report};
use distmsm_service::ServiceReport;

use crate::fleet::{FleetEvent, FleetEventKind};
use crate::wal::FleetState;

/// Rollup of one pod's service report plus its fleet-level traffic.
#[derive(Clone, Debug)]
pub struct PodStats {
    /// Pod index.
    pub pod: usize,
    /// Jobs initially placed on this pod by the coordinator.
    pub placed: u64,
    /// Jobs the pod's admission accepted.
    pub admitted: u64,
    /// Jobs the pod completed (pre-verification).
    pub completed: u64,
    /// Results from this pod that passed the 2G2T check.
    pub accepted: u64,
    /// Jobs the pod failed (attempts exhausted).
    pub failed: u64,
    /// Jobs the pod shed.
    pub shed: u64,
    /// Jobs stolen away from this pod's queue.
    pub stolen_out: u64,
    /// Jobs this pod stole from overloaded peers.
    pub stolen_in: u64,
    /// 2G2T detections against this pod.
    pub detections: u64,
    /// Whether the pod ended the run fleet-quarantined.
    pub quarantined: bool,
    /// The pod's own simulated horizon, seconds.
    pub horizon_s: f64,
}

/// The fleet-level report: pod rollups plus coordinator counters.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-pod rollups, indexed by pod.
    pub pods: Vec<PodStats>,
    /// Tenants in the shared table.
    pub n_tenants: usize,
    /// Distinct tenants with at least one verified-accepted result.
    pub tenants_served: usize,
    /// Jobs placed by the coordinator.
    pub placed: u64,
    /// Jobs admitted across pods (each job admits at most once).
    pub admitted: u64,
    /// Results that passed the 2G2T check (each job at most once).
    pub accepted: u64,
    /// Jobs that exhausted their attempts.
    pub failed: u64,
    /// Jobs shed under pressure.
    pub shed: u64,
    /// Work-stealing transfers.
    pub steals: u64,
    /// 2G2T detections.
    pub detections: u64,
    /// Jobs re-placed off quarantined pods.
    pub replaced: u64,
    /// Pods that ended the run quarantined.
    pub quarantined_pods: Vec<usize>,
    /// Latest pod horizon, simulated seconds.
    pub horizon_s: f64,
}

impl FleetReport {
    /// Aggregates pod reports and the coordinator event stream; the
    /// quarantine flags, the detection count and the tenants served are
    /// read off the coordinator's journal fold.
    pub fn build(
        pod_reports: &[ServiceReport],
        events: &[FleetEvent],
        state: &FleetState,
        n_tenants: usize,
    ) -> Self {
        let n_pods = pod_reports.len();
        let mut pods: Vec<PodStats> = pod_reports
            .iter()
            .enumerate()
            .map(|(i, r)| PodStats {
                pod: i,
                placed: 0,
                admitted: r.admitted(),
                completed: r.completed(),
                accepted: 0,
                failed: r.failed(),
                shed: r.shed(),
                stolen_out: 0,
                stolen_in: 0,
                detections: 0,
                quarantined: state.quarantined[i],
                horizon_s: r.horizon_s,
            })
            .collect();
        let (mut placed, mut accepted, mut steals, mut replaced) = (0u64, 0u64, 0u64, 0u64);
        for e in events {
            match e.kind {
                FleetEventKind::Placed { pod } => {
                    placed += 1;
                    pods[pod].placed += 1;
                }
                FleetEventKind::Stolen { from, to } => {
                    steals += 1;
                    pods[from].stolen_out += 1;
                    pods[to].stolen_in += 1;
                }
                FleetEventKind::Verified { pod } => {
                    accepted += 1;
                    pods[pod].accepted += 1;
                }
                FleetEventKind::ByzantineDetected { pod, .. } => {
                    pods[pod].detections += 1;
                }
                FleetEventKind::Replaced { .. } => replaced += 1,
                FleetEventKind::Quarantined { .. }
                | FleetEventKind::Fenced { .. }
                | FleetEventKind::Rejoined { .. }
                | FleetEventKind::Discarded { .. } => {}
            }
        }
        let served: BTreeSet<usize> = state.accepted.iter().map(|a| a.tenant).collect();
        Self {
            n_tenants,
            tenants_served: served.len(),
            placed,
            admitted: pods.iter().map(|p| p.admitted).sum(),
            accepted,
            failed: pods.iter().map(|p| p.failed).sum(),
            shed: pods.iter().map(|p| p.shed).sum(),
            steals,
            detections: state.detections,
            replaced,
            quarantined_pods: (0..n_pods).filter(|&p| state.quarantined[p]).collect(),
            horizon_s: pod_reports.iter().map(|r| r.horizon_s).fold(0.0, f64::max),
            pods,
        }
    }

    /// `accepted / admitted` (1.0 when nothing was admitted) — the
    /// fleet's verified completion rate.
    pub fn completion_rate(&self) -> f64 {
        if self.admitted == 0 {
            1.0
        } else {
            self.accepted as f64 / self.admitted as f64
        }
    }

    /// Human-readable rendering: one row per pod, then fleet totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("pod  placed admitted accepted failed shed steal-in steal-out det  state\n");
        for p in &self.pods {
            out.push_str(&format!(
                "{:<4} {:<6} {:<8} {:<8} {:<6} {:<4} {:<8} {:<9} {:<4} {}\n",
                p.pod,
                p.placed,
                p.admitted,
                p.accepted,
                p.failed,
                p.shed,
                p.stolen_in,
                p.stolen_out,
                p.detections,
                if p.quarantined { "QUARANTINED" } else { "healthy" },
            ));
        }
        out.push_str(&format!(
            "fleet: {} placed, {} admitted, {} accepted ({:.1}%), {} failed, {} shed, \
             {} steals, {} detections, {} replaced, {}/{} tenants served, horizon {:.3}s\n",
            self.placed,
            self.admitted,
            self.accepted,
            100.0 * self.completion_rate(),
            self.failed,
            self.shed,
            self.steals,
            self.detections,
            self.replaced,
            self.tenants_served,
            self.n_tenants,
            self.horizon_s,
        ));
        out
    }
}

impl Report for FleetReport {
    fn kind(&self) -> &'static str {
        "fleet"
    }

    fn total_s(&self) -> f64 {
        self.horizon_s
    }

    /// Per-pod phases: the span each pod was live on the simulated
    /// clock. Pods run concurrently, so phases deliberately do not sum
    /// to [`Report::total_s`].
    fn phase_breakdown(&self) -> Vec<Phase> {
        self.pods
            .iter()
            .map(|p| Phase { name: format!("pod:{}", p.pod), seconds: p.horizon_s })
            .collect()
    }
}

impl FleetReport {
    /// The full fleet accounting as byte-stable JSON (pod rollups plus
    /// coordinator counters) — the shape the soak golden pins.
    pub fn to_detailed_json(&self) -> String {
        let pods = self.pods.iter().map(|p| {
            vec![
                ("pod", p.pod.to_string()),
                ("placed", p.placed.to_string()),
                ("admitted", p.admitted.to_string()),
                ("accepted", p.accepted.to_string()),
                ("failed", p.failed.to_string()),
                ("shed", p.shed.to_string()),
                ("stolen_in", p.stolen_in.to_string()),
                ("stolen_out", p.stolen_out.to_string()),
                ("detections", p.detections.to_string()),
                ("quarantined", p.quarantined.to_string()),
            ]
        });
        let quarantined = self.quarantined_pods.iter().map(|p| p.to_string());
        json_pretty(&[
            ("kind", Scalar(json_str("fleet"))),
            ("n_pods", Scalar(self.pods.len().to_string())),
            ("n_tenants", Scalar(self.n_tenants.to_string())),
            ("tenants_served", Scalar(self.tenants_served.to_string())),
            ("placed", Scalar(self.placed.to_string())),
            ("admitted", Scalar(self.admitted.to_string())),
            ("accepted", Scalar(self.accepted.to_string())),
            ("failed", Scalar(self.failed.to_string())),
            ("shed", Scalar(self.shed.to_string())),
            ("steals", Scalar(self.steals.to_string())),
            ("detections", Scalar(self.detections.to_string())),
            ("replaced", Scalar(self.replaced.to_string())),
            ("quarantined_pods", Inline(quarantined.collect())),
            ("completion_rate", Scalar(json_num(self.completion_rate()))),
            ("horizon_s", Scalar(json_num(self.horizon_s))),
            ("pods", Rows(pods.collect())),
        ]) + "\n"
    }
}
