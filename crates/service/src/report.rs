//! The service-level report: per-tenant admission/completion accounting
//! with sojourn percentiles on the simulated clock, plus the pool-state
//! timeline — implementing the workspace-wide [`Report`] trait so bench
//! tables and JSON dumps consume it like any engine report.

use distmsm::report::JsonField::{Inline, Rows, Scalar};
use distmsm::report::{json_num, json_pretty, json_str};
use distmsm::{Phase, Report};

use crate::breaker::{BreakerState, PoolTransition};

/// Nearest-rank percentile of an ascending-sorted slice (`0.0` when
/// empty). `q` in `[0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One tenant's aggregated run statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Jobs that arrived at the door.
    pub arrivals: u64,
    /// Jobs that passed admission.
    pub admitted: u64,
    /// Jobs refused at the door (not part of the admitted conservation
    /// sum).
    pub rejected: u64,
    /// Admitted jobs that completed with a verified result.
    pub completed: u64,
    /// Admitted jobs that exhausted their attempts.
    pub failed: u64,
    /// Admitted jobs dropped by the shed policy.
    pub shed: u64,
    /// Completed jobs that missed their deadline.
    pub deadline_missed: u64,
    /// Median arrival-to-completion time, seconds.
    pub sojourn_p50_s: f64,
    /// 95th-percentile sojourn, seconds.
    pub sojourn_p95_s: f64,
    /// 99th-percentile sojourn, seconds.
    pub sojourn_p99_s: f64,
}

/// The aggregated outcome of one service run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceReport {
    /// Per-tenant statistics, in tenant-table order.
    pub tenants: Vec<TenantStats>,
    /// Every breaker transition, in emission order.
    pub pool_timeline: Vec<PoolTransition>,
    /// Final breaker state per device.
    pub final_states: Vec<BreakerState>,
    /// Simulated time of the last processed event.
    pub horizon_s: f64,
    /// Devices in the pool.
    pub n_devices: usize,
}

impl ServiceReport {
    /// Total admitted jobs across tenants.
    pub fn admitted(&self) -> u64 {
        self.tenants.iter().map(|t| t.admitted).sum()
    }

    /// Total completed jobs across tenants.
    pub fn completed(&self) -> u64 {
        self.tenants.iter().map(|t| t.completed).sum()
    }

    /// Total shed jobs across tenants.
    pub fn shed(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed).sum()
    }

    /// Total failed jobs across tenants.
    pub fn failed(&self) -> u64 {
        self.tenants.iter().map(|t| t.failed).sum()
    }

    /// `completed / admitted` (1.0 when nothing was admitted) — the
    /// number [`crate::soak::MIN_COMPLETION_RATE`] floors.
    pub fn completion_rate(&self) -> f64 {
        let admitted = self.admitted();
        if admitted == 0 {
            1.0
        } else {
            self.completed() as f64 / admitted as f64
        }
    }

    /// True when the device's breaker ended the run open (quarantined).
    pub fn quarantined(&self, device: usize) -> bool {
        self.final_states.get(device) == Some(&BreakerState::Open)
    }

    /// A human-readable phase-table rendering: one row per tenant, then
    /// the pool's final states and quarantine cycle count.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<12} {:>8} {:>8} {:>8} {:>9} {:>7} {:>6} {:>10} {:>10}\n",
            "tenant", "arrived", "admitted", "rejected", "completed", "failed", "shed", "p50(ms)", "p99(ms)"
        ));
        for t in &self.tenants {
            out.push_str(&format!(
                "{:<12} {:>8} {:>8} {:>8} {:>9} {:>7} {:>6} {:>10.3} {:>10.3}\n",
                t.name,
                t.arrivals,
                t.admitted,
                t.rejected,
                t.completed,
                t.failed,
                t.shed,
                t.sojourn_p50_s * 1e3,
                t.sojourn_p99_s * 1e3,
            ));
        }
        out.push_str(&format!(
            "pool: {} devices, {} breaker transitions, final states [{}]\n",
            self.n_devices,
            self.pool_timeline.len(),
            self.final_states
                .iter()
                .map(|s| s.label())
                .collect::<Vec<_>>()
                .join(", "),
        ));
        out.push_str(&format!(
            "completion rate {:.3} over {:.3} simulated seconds\n",
            self.completion_rate(),
            self.horizon_s,
        ));
        out
    }

    /// A detailed, byte-stable JSON rendering (field order fixed, floats
    /// via Rust's shortest-roundtrip formatter) — the golden the CI soak
    /// smoke diffs against.
    pub fn to_detailed_json(&self) -> String {
        let tenants = self.tenants.iter().map(|t| {
            vec![
                ("name", json_str(&t.name)),
                ("arrivals", t.arrivals.to_string()),
                ("admitted", t.admitted.to_string()),
                ("rejected", t.rejected.to_string()),
                ("completed", t.completed.to_string()),
                ("failed", t.failed.to_string()),
                ("shed", t.shed.to_string()),
                ("deadline_missed", t.deadline_missed.to_string()),
                ("sojourn_p50_s", json_num(t.sojourn_p50_s)),
                ("sojourn_p95_s", json_num(t.sojourn_p95_s)),
                ("sojourn_p99_s", json_num(t.sojourn_p99_s)),
            ]
        });
        let timeline = self.pool_timeline.iter().map(|t| {
            vec![
                ("device", t.device.to_string()),
                ("t_s", json_num(t.t_s)),
                ("from", json_str(t.from.label())),
                ("to", json_str(t.to.label())),
                ("cause", json_str(t.cause)),
            ]
        });
        let states = self.final_states.iter().map(|s| json_str(s.label()));
        json_pretty(&[
            ("kind", Scalar(json_str("service"))),
            ("horizon_s", Scalar(json_num(self.horizon_s))),
            ("n_devices", Scalar(self.n_devices.to_string())),
            ("completion_rate", Scalar(json_num(self.completion_rate()))),
            ("tenants", Rows(tenants.collect())),
            ("final_states", Inline(states.collect())),
            ("pool_timeline", Rows(timeline.collect())),
        ]) + "\n"
    }
}

impl Report for ServiceReport {
    fn kind(&self) -> &'static str {
        "service"
    }

    fn total_s(&self) -> f64 {
        self.horizon_s
    }

    /// Per-tenant phases: the seconds each tenant's completed jobs spent
    /// in the system (sojourn mass, approximated as `completed × p50`).
    /// Phases deliberately do not sum to [`Report::total_s`] — tenants
    /// overlap in time, like devices in an engine report.
    fn phase_breakdown(&self) -> Vec<Phase> {
        self.tenants
            .iter()
            .map(|t| Phase {
                name: format!("tenant:{}", t.name),
                seconds: t.completed as f64 * t.sojourn_p50_s,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(name: &str, admitted: u64, completed: u64) -> TenantStats {
        TenantStats {
            name: name.into(),
            arrivals: admitted,
            admitted,
            rejected: 0,
            completed,
            failed: 0,
            shed: admitted - completed,
            deadline_missed: 0,
            sojourn_p50_s: 0.5,
            sojourn_p95_s: 0.9,
            sojourn_p99_s: 1.0,
        }
    }

    fn report() -> ServiceReport {
        ServiceReport {
            tenants: vec![stats("a", 10, 8), stats("b", 6, 3)],
            pool_timeline: vec![PoolTransition {
                device: 1,
                t_s: 2.5,
                from: BreakerState::Closed,
                to: BreakerState::Open,
                cause: "fault-threshold",
            }],
            final_states: vec![BreakerState::Closed, BreakerState::Open],
            horizon_s: 100.0,
            n_devices: 2,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn totals_and_rates_sum_tenants() {
        let r = report();
        assert_eq!(r.admitted(), 16);
        assert_eq!(r.completed(), 11);
        assert_eq!(r.shed(), 5);
        assert!((r.completion_rate() - 11.0 / 16.0).abs() < 1e-12);
        assert!(r.quarantined(1));
        assert!(!r.quarantined(0));
    }

    #[test]
    fn report_trait_and_renders() {
        let r = report();
        assert_eq!(r.kind(), "service");
        assert_eq!(Report::total_s(&r), 100.0);
        assert_eq!(r.phase_breakdown().len(), 2);
        let table = r.render();
        assert!(table.contains("tenant"), "{table}");
        assert!(table.contains("completion rate"), "{table}");
        let json = r.to_detailed_json();
        assert!(json.contains("\"kind\": \"service\""), "{json}");
        assert!(json.contains("\"fault-threshold\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
