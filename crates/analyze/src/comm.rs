//! The one comm-schedule checker: folds per-element contribution masks
//! over a [`CommSchedule`] step by step. `verify` runs it over every
//! schedule the planner can emit on the topology presets (and the
//! `VRF-900` schedule mutants); `check` runs it on the schedule each
//! captured report carries in `MsmReport::comm`.
//!
//! Every endpoint holds, per element, the bitmask of rank contributions
//! it has received; steps are barrier-synchronised, so a flow sends what
//! its source held at the *start* of the step. Three rule families:
//!
//! * **COMM-001 — byte conservation.** Each flow must carry exactly
//!   `(hi − lo) · elem_bytes` (when the schedule declares an element
//!   size), and after the final step the host must hold, per element,
//!   exactly the ranks [`CommSchedule::rank_owns`] declares as
//!   contributors: no partial dropped on the fabric, none fabricated.
//! * **COMM-002 — ordering.** A flow may only send data its source
//!   already holds, and a flow marked
//!   [`reduced`](distmsm_comms::Flow::reduced) must hold *every*
//!   contribution for its range. A need that only a same-step delivery
//!   could satisfy is a wait-for edge: a cycle of them is a rendezvous
//!   deadlock, an acyclic one an ordering violation. An empty step
//!   stalls every rank for a barrier (warning).
//! * **COMM-003 — ports and links.** A GPU rank drives one send and one
//!   receive port, so a second concurrent flow on either serialises and
//!   the step's modelled time is wrong (error; the host is a many-ported
//!   sink). A self-flow occupies the fabric for nothing, and a link whose
//!   peak concurrent flow count exceeds the rank count serialises on the
//!   wire while the model assumes concurrency (warnings).

use crate::report::{Finding, Report, Severity};
use distmsm_comms::{CommSchedule, Endpoint, Flow};

/// Checks one schedule against all three rule families. `location`
/// prefixes every finding.
pub fn check_schedule(location: &str, s: &CommSchedule) -> Report {
    let mut report = Report::new();
    let n = s.n_ranks;
    let v = s.vec_len;
    if n > 64 {
        report.push(Finding::new(
            "COMM-000",
            Severity::Info,
            location.to_owned(),
            format!("{n} ranks exceed the 64-bit contribution mask; schedule skipped"),
        ));
        return report;
    }

    // Which ranks feed each element; each rank starts holding its own
    // contributions. Index `n` of `held` is the host.
    let mut contrib = vec![0u64; v];
    let mut held = vec![vec![0u64; v]; n + 1];
    for (r, &(lo, hi)) in s.rank_owns.iter().enumerate() {
        let own = lo.min(v)..hi.min(v);
        for c in &mut contrib[own.clone()] {
            *c |= 1 << r;
        }
        for h in &mut held[r][own] {
            *h |= 1 << r;
        }
    }
    let idx = |ep: Endpoint| match ep {
        Endpoint::Rank(r) => r,
        Endpoint::Host => n,
    };
    let satisfied = |f: &Flow, have: u64, want: u64| {
        if f.reduced {
            have == want
        } else {
            have != 0
        }
    };

    for (si, step) in s.steps.iter().enumerate() {
        let at = format!("{location}/step{si}");
        if step.flows.is_empty() {
            report.push(Finding::new(
                "COMM-002",
                Severity::Warning,
                at,
                "empty step: every rank stalls for a full barrier".to_owned(),
            ));
            continue;
        }
        let snapshot = held.clone();
        let mut sends = vec![0usize; n + 1];
        let mut recvs = vec![0usize; n + 1];
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (fi, f) in step.flows.iter().enumerate() {
            let (src, dst) = (idx(f.src), idx(f.dst));
            let loc = format!("{at}/flow{fi}");
            sends[src] += 1;
            recvs[dst] += 1;
            if src == dst && f.bytes > 0.0 {
                report.push(Finding::new(
                    "COMM-003",
                    Severity::Warning,
                    loc.clone(),
                    format!("self-flow of {} bytes occupies the fabric for nothing", f.bytes),
                ));
            }
            if s.elem_bytes > 0.0 {
                let want = (f.hi.saturating_sub(f.lo)) as f64 * s.elem_bytes;
                if (f.bytes - want).abs() > 0.5 {
                    report.push(Finding::new(
                        "COMM-001",
                        Severity::Error,
                        loc.clone(),
                        format!(
                            "flow carries {} bytes but its element range {}..{} is {} bytes",
                            f.bytes, f.lo, f.hi, want
                        ),
                    ));
                }
            }
            // the first element the source cannot send from its
            // pre-step state: same-step suppliers turn it into wait-for
            // edges, none at all into an error
            let Some(e) =
                (f.lo..f.hi.min(v)).find(|&e| !satisfied(f, snapshot[src][e], contrib[e]))
            else {
                continue;
            };
            let have = snapshot[src][e];
            let mut boosted = have;
            let mut suppliers = Vec::new();
            for (fj, g) in step.flows.iter().enumerate() {
                if fj != fi && idx(g.dst) == src && g.lo <= e && e < g.hi {
                    boosted |= snapshot[idx(g.src)][e];
                    suppliers.push(fj);
                }
            }
            if satisfied(f, boosted, contrib[e]) {
                edges.extend(suppliers.into_iter().map(|fj| (fi, fj)));
            } else {
                report.push(Finding::new(
                    "COMM-002",
                    Severity::Error,
                    loc,
                    format!(
                        "element {e} cannot be produced: the source holds {}/{} \
                         contributions and no earlier step supplies the rest{}",
                        have.count_ones(),
                        contrib[e].count_ones(),
                        if f.reduced { " (flow claims a fully reduced payload)" } else { "" }
                    ),
                ));
            }
        }
        for f in &step.flows {
            let (src, dst) = (idx(f.src), idx(f.dst));
            for e in f.lo..f.hi.min(v) {
                held[dst][e] |= snapshot[src][e];
            }
        }
        for r in 0..n {
            for (count, what) in [(sends[r], "sends"), (recvs[r], "receives")] {
                if count > 1 {
                    report.push(Finding::new(
                        "COMM-003",
                        Severity::Error,
                        at.clone(),
                        format!(
                            "port infeasible: rank {r} drives {count} concurrent {what} \
                             on a single port"
                        ),
                    ));
                }
            }
        }
        if let Some(cycle) = find_cycle(step.flows.len(), &edges) {
            let names: Vec<String> = cycle.iter().map(|f| format!("flow{f}")).collect();
            report.push(Finding::new(
                "COMM-002",
                Severity::Error,
                at,
                format!(
                    "rendezvous deadlock: {} wait on each other's same-step \
                     deliveries; under barrier-step semantics none can start",
                    names.join(" → ")
                ),
            ));
        } else {
            edges.dedup();
            for (fi, fj) in edges {
                report.push(Finding::new(
                    "COMM-002",
                    Severity::Error,
                    format!("{at}/flow{fi}"),
                    format!(
                        "ordering violation: flow{fi} needs data flow{fj} delivers \
                         in the same step; move the consumer to a later step"
                    ),
                ));
            }
        }
    }

    let missing: Vec<usize> = (0..v).filter(|&e| held[n][e] != contrib[e]).collect();
    if let Some(&first) = missing.first() {
        report.push(Finding::new(
            "COMM-001",
            Severity::Error,
            location.to_owned(),
            format!(
                "host coverage incomplete: {}/{v} element(s) end without exactly \
                 their contribution set (first: element {first}, host holds {}/{})",
                missing.len(),
                held[n][first].count_ones(),
                contrib[first].count_ones()
            ),
        ));
    }
    for l in &s.link_loads {
        if l.peak_flows > n.max(1) {
            report.push(Finding::new(
                "COMM-003",
                Severity::Warning,
                format!("{location}/{}", l.label),
                format!(
                    "link carries {} concurrent flows in one step with only {n} rank(s)",
                    l.peak_flows
                ),
            ));
        }
    }
    report
}

/// First cycle of the wait-for relation, as a node sequence, if any.
fn find_cycle(n_nodes: usize, edges: &[(usize, usize)]) -> Option<Vec<usize>> {
    fn dfs(
        u: usize,
        adj: &[Vec<usize>],
        state: &mut [u8],
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        state[u] = 1;
        stack.push(u);
        for &w in &adj[u] {
            if state[w] == 1 {
                let start = stack.iter().position(|&x| x == w)?;
                return Some(stack[start..].to_vec());
            }
            if state[w] == 0 {
                if let Some(c) = dfs(w, adj, state, stack) {
                    return Some(c);
                }
            }
        }
        stack.pop();
        state[u] = 2;
        None
    }
    let mut adj = vec![Vec::new(); n_nodes];
    for &(a, b) in edges {
        adj[a].push(b);
    }
    // 0 = unvisited, 1 = on stack, 2 = done
    let mut state = vec![0u8; n_nodes];
    let mut stack = Vec::new();
    (0..n_nodes).find_map(|u| {
        if state[u] == 0 {
            dfs(u, &adj, &mut state, &mut stack)
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_comms::{plan_collective, CollectiveStrategy, CommConfig, CommStep, Topology};

    fn clean_plan(strategy: CollectiveStrategy) -> CommSchedule {
        let topo = Topology::dgx_pod(12);
        plan_collective(strategy, 12, 96, 96.0, &topo, &CommConfig::default())
    }

    #[test]
    fn shipped_collectives_replay_clean() {
        for strat in CollectiveStrategy::ALL {
            let s = clean_plan(strat);
            let r = check_schedule(strat.name(), &s);
            assert_eq!(r.actionable(), 0, "{}", r.render_text());
        }
    }

    #[test]
    fn dropped_final_step_breaks_conservation() {
        let mut s = clean_plan(CollectiveStrategy::RingAllReduce);
        s.steps.pop(); // lose the rank-0 → host shipment
        let r = check_schedule("truncated", &s);
        assert!(
            r.findings.iter().any(|f| f.rule == "COMM-001"),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn premature_reduced_claim_is_an_ordering_error() {
        let mut s = clean_plan(CollectiveStrategy::TreeAllReduce);
        // Claim the very first reduce flow already carries a full
        // reduction: its source cannot hold the other contributions yet.
        s.steps[0].flows[0].reduced = true;
        let r = check_schedule("premature", &s);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "COMM-002" && f.severity == Severity::Error),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn wrong_flow_bytes_flagged() {
        let mut s = clean_plan(CollectiveStrategy::HostGather);
        s.steps[0].flows[0].bytes *= 2.0;
        let r = check_schedule("inflated", &s);
        assert!(
            r.findings.iter().any(|f| f.rule == "COMM-001"),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn double_injection_flagged() {
        let mut s = clean_plan(CollectiveStrategy::HostGather);
        let dup = s.steps[0].flows[0].clone();
        s.steps[0].flows.push(dup);
        let r = check_schedule("double-send", &s);
        assert!(
            r.findings.iter().any(|f| f.rule == "COMM-003"),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn empty_step_flagged_as_stall() {
        let mut s = clean_plan(CollectiveStrategy::HostGather);
        s.steps.insert(0, CommStep::default());
        let r = check_schedule("stall", &s);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "COMM-002" && f.severity == Severity::Warning),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn send_before_receive_flagged() {
        let mut s = clean_plan(CollectiveStrategy::HostGather);
        // Rank 3 forwards elements nobody gave it: strip its ownership
        // while its flow still ships the full range.
        s.rank_owns[3] = (0, 0);
        let r = check_schedule("unowned", &s);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "COMM-002" && f.severity == Severity::Error),
            "{}",
            r.render_text()
        );
    }
}
