//! Collective algorithms executed bit-exactly over arbitrary element
//! types.
//!
//! Every strategy both *moves the data* (the returned vector is computed
//! by applying the caller's reduce op exactly as the schedule prescribes
//! — for EC points that op is a real PADD, so results are bit-identical
//! to what a hardware run of the same schedule would produce) and
//! *emits the schedule* that moved it, so the same code path drives
//! functional verification and analytic costing.

use crate::schedule::{CommConfig, CommSchedule, CommStep, Endpoint, Flow};
use crate::topology::Topology;

/// How per-GPU partial vectors are combined and delivered to the host.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum CollectiveStrategy {
    /// Every rank ships its full partial vector to the host, which
    /// reduces serially — the legacy engine behaviour, now with its
    /// transfer actually charged.
    #[default]
    HostGather,
    /// Ring reduce-scatter followed by ring all-gather; rank 0 then
    /// ships the fully reduced vector to the host. Bandwidth-optimal:
    /// each rank sends `2·(n−1)/n` of the vector.
    RingAllReduce,
    /// Binomial-tree reduce to rank 0, tree broadcast back out, rank 0
    /// ships to the host. Latency-optimal: `O(log n)` steps.
    TreeAllReduce,
    /// Ring reduce-scatter, then each rank ships its owned fully
    /// reduced chunk straight to the host — skips the all-gather when
    /// only the host needs the result.
    ReduceScatterGather,
}

impl CollectiveStrategy {
    /// Stable kebab-case name (used in schedules, benches, CLI).
    pub fn name(self) -> &'static str {
        match self {
            CollectiveStrategy::HostGather => "host-gather",
            CollectiveStrategy::RingAllReduce => "ring-all-reduce",
            CollectiveStrategy::TreeAllReduce => "tree-all-reduce",
            CollectiveStrategy::ReduceScatterGather => "reduce-scatter-gather",
        }
    }

    /// All strategies, for sweeps.
    pub const ALL: [CollectiveStrategy; 4] = [
        CollectiveStrategy::HostGather,
        CollectiveStrategy::RingAllReduce,
        CollectiveStrategy::TreeAllReduce,
        CollectiveStrategy::ReduceScatterGather,
    ];

    /// Parses a strategy from its [`name`](Self::name).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// Element range `[lo, hi)` of chunk `c` when a `vec_len`-element vector
/// is split into `n` near-equal contiguous chunks.
pub fn chunk_range(vec_len: usize, n: usize, c: usize) -> (usize, usize) {
    (c * vec_len / n, (c + 1) * vec_len / n)
}

/// Runs `strategy` over per-rank partial vectors, combining elements
/// with `op`, and returns the reduced vector as delivered to the host
/// together with the finalized schedule.
///
/// `op` must be associative and commutative for all strategies to agree
/// with the serial left fold (EC PADD is both). `elem_bytes` sizes the
/// flows.
///
/// # Panics
///
/// Panics if `partials` is empty or the per-rank vectors have unequal
/// lengths.
pub fn run_collective<T: Clone>(
    strategy: CollectiveStrategy,
    partials: &[Vec<T>],
    op: impl Fn(&T, &T) -> T,
    topo: &Topology,
    cfg: &CommConfig,
    elem_bytes: f64,
) -> (Vec<T>, CommSchedule) {
    let n = partials.len();
    assert!(n > 0, "collective over zero ranks");
    let v = partials[0].len();
    assert!(
        partials.iter().all(|p| p.len() == v),
        "ragged partial vectors"
    );
    let mut bufs: Vec<Vec<T>> = partials.to_vec();
    let mut sched = CommSchedule::new(strategy.name(), n, v, elem_bytes);

    let result = match strategy {
        CollectiveStrategy::HostGather => {
            let mut step = CommStep::default();
            for r in 0..n {
                step.flows.push(Flow {
                    src: Endpoint::Rank(r),
                    dst: Endpoint::Host,
                    lo: 0,
                    hi: v,
                    bytes: v as f64 * elem_bytes,
                    // a single rank's partial is "fully reduced" only
                    // when it is the sole contributor
                    reduced: n == 1,
                });
            }
            sched.steps.push(step);
            sched.host_reduce_ops = (n as u64 - 1) * v as u64;
            let mut out = bufs[0].clone();
            for buf in &bufs[1..] {
                for (acc, x) in out.iter_mut().zip(buf) {
                    *acc = op(acc, x);
                }
            }
            out
        }
        CollectiveStrategy::RingAllReduce => {
            ring_reduce_scatter(&mut bufs, &op, &mut sched, elem_bytes);
            ring_all_gather(&mut bufs, &mut sched, elem_bytes);
            push_rank_to_host(&mut sched, 0, 0, v, elem_bytes);
            bufs[0].clone()
        }
        CollectiveStrategy::TreeAllReduce => {
            // Binomial reduce toward rank 0: at distance d, rank r with
            // r % 2d == d sends its whole (partially reduced) vector to
            // r − d.
            let mut d = 1;
            while d < n {
                let mut step = CommStep::default();
                let mut moves = Vec::new();
                for r in 0..n {
                    if r % (2 * d) == d {
                        let dst = r - d;
                        step.flows.push(Flow {
                            src: Endpoint::Rank(r),
                            dst: Endpoint::Rank(dst),
                            lo: 0,
                            hi: v,
                            bytes: v as f64 * elem_bytes,
                            reduced: false,
                        });
                        moves.push((r, dst));
                    }
                }
                if !step.flows.is_empty() {
                    sched.steps.push(step);
                }
                for (src, dst) in moves {
                    let incoming = bufs[src].clone();
                    for (acc, x) in bufs[dst].iter_mut().zip(&incoming) {
                        *acc = op(acc, x);
                    }
                }
                d *= 2;
            }
            // Tree broadcast back out (mirror image), then rank 0 → host.
            while d >= 1 {
                let mut step = CommStep::default();
                let mut moves = Vec::new();
                for r in 0..n {
                    if r % (2 * d) == 0 && r + d < n {
                        step.flows.push(Flow {
                            src: Endpoint::Rank(r),
                            dst: Endpoint::Rank(r + d),
                            lo: 0,
                            hi: v,
                            bytes: v as f64 * elem_bytes,
                            reduced: true,
                        });
                        moves.push((r, r + d));
                    }
                }
                if !step.flows.is_empty() {
                    sched.steps.push(step);
                }
                for (src, dst) in moves {
                    bufs[dst] = bufs[src].clone();
                }
                d /= 2;
            }
            push_rank_to_host(&mut sched, 0, 0, v, elem_bytes);
            bufs[0].clone()
        }
        CollectiveStrategy::ReduceScatterGather => {
            ring_reduce_scatter(&mut bufs, &op, &mut sched, elem_bytes);
            // Rank r owns fully reduced chunk (r + 1) mod n; everyone
            // ships their chunk to the host concurrently.
            let mut step = CommStep::default();
            for r in 0..n {
                let (lo, hi) = chunk_range(v, n, (r + 1) % n);
                if lo == hi {
                    continue;
                }
                step.flows.push(Flow {
                    src: Endpoint::Rank(r),
                    dst: Endpoint::Host,
                    lo,
                    hi,
                    bytes: (hi - lo) as f64 * elem_bytes,
                    reduced: true,
                });
            }
            if !step.flows.is_empty() {
                sched.steps.push(step);
            }
            let mut out = bufs[0].clone();
            for (r, buf) in bufs.iter().enumerate() {
                let (lo, hi) = chunk_range(v, n, (r + 1) % n);
                out[lo..hi].clone_from_slice(&buf[lo..hi]);
            }
            out
        }
    };

    sched.finalize(topo, cfg);
    (result, sched)
}

/// Builds and costs the schedule for `strategy` without moving data —
/// the analytic model's entry point. Identical steps and cost to
/// [`run_collective`] on `n_ranks` vectors of `vec_len` elements.
pub fn plan_collective(
    strategy: CollectiveStrategy,
    n_ranks: usize,
    vec_len: usize,
    elem_bytes: f64,
    topo: &Topology,
    cfg: &CommConfig,
) -> CommSchedule {
    let partials: Vec<Vec<()>> = vec![vec![(); vec_len]; n_ranks];
    let (_, sched) = run_collective(strategy, &partials, |_, _| (), topo, cfg, elem_bytes);
    sched
}

/// Plans a plain device→host gather of per-rank payloads (no reduction):
/// one step, one flow per rank with explicit byte counts. Used for the
/// bucket-partial gather before a CPU-side bucket-reduce.
pub fn gather_to_host(per_rank_bytes: &[f64], topo: &Topology, cfg: &CommConfig) -> CommSchedule {
    let n = per_rank_bytes.len();
    let mut sched = CommSchedule::new("gather-to-host", n, n, 0.0);
    // Rank r is the sole contributor of "element" r; a rank with nothing
    // to send contributes no elements at all.
    for (r, owns) in sched.rank_owns.iter_mut().enumerate() {
        *owns = if per_rank_bytes[r] > 0.0 { (r, r + 1) } else { (r, r) };
    }
    let mut step = CommStep::default();
    for (r, &bytes) in per_rank_bytes.iter().enumerate() {
        if bytes <= 0.0 {
            continue;
        }
        step.flows.push(Flow {
            src: Endpoint::Rank(r),
            dst: Endpoint::Host,
            lo: r,
            hi: r + 1,
            bytes,
            reduced: true,
        });
    }
    if !step.flows.is_empty() {
        sched.steps.push(step);
    }
    sched.finalize(topo, cfg);
    sched
}

/// Ring reduce-scatter over `bufs` in place: `n − 1` steps; in step `t`
/// rank `r` sends chunk `(r − t) mod n` to rank `(r + 1) mod n`, which
/// reduces it in. Afterwards rank `r` holds the fully reduced chunk
/// `(r + 1) mod n`.
fn ring_reduce_scatter<T: Clone>(
    bufs: &mut [Vec<T>],
    op: &impl Fn(&T, &T) -> T,
    sched: &mut CommSchedule,
    elem_bytes: f64,
) {
    let n = bufs.len();
    let v = bufs[0].len();
    for t in 0..n.saturating_sub(1) {
        let mut step = CommStep::default();
        let mut payloads: Vec<(usize, usize, Vec<T>)> = Vec::new();
        for (r, buf) in bufs.iter().enumerate() {
            let c = (r + n - t % n) % n;
            let (lo, hi) = chunk_range(v, n, c);
            if lo == hi {
                continue;
            }
            let dst = (r + 1) % n;
            step.flows.push(Flow {
                src: Endpoint::Rank(r),
                dst: Endpoint::Rank(dst),
                lo,
                hi,
                bytes: (hi - lo) as f64 * elem_bytes,
                // fully reduced only on the last step's arrival, which
                // the receiver completes locally — in flight it is not
                reduced: false,
            });
            payloads.push((dst, lo, buf[lo..hi].to_vec()));
        }
        if !step.flows.is_empty() {
            sched.steps.push(step);
        }
        // Apply with pre-step snapshot semantics: all sends read the
        // state from before this step (payloads captured above).
        for (dst, lo, data) in payloads {
            for (i, x) in data.iter().enumerate() {
                bufs[dst][lo + i] = op(&bufs[dst][lo + i], x);
            }
        }
    }
}

/// Ring all-gather of the fully reduced chunks: `n − 1` steps; in step
/// `t` rank `r` forwards chunk `(r + 1 − t) mod n`.
fn ring_all_gather<T: Clone>(bufs: &mut [Vec<T>], sched: &mut CommSchedule, elem_bytes: f64) {
    let n = bufs.len();
    let v = bufs[0].len();
    for t in 0..n.saturating_sub(1) {
        let mut step = CommStep::default();
        let mut payloads: Vec<(usize, usize, Vec<T>)> = Vec::new();
        for (r, buf) in bufs.iter().enumerate() {
            let c = (r + 1 + n - t % n) % n;
            let (lo, hi) = chunk_range(v, n, c);
            if lo == hi {
                continue;
            }
            let dst = (r + 1) % n;
            step.flows.push(Flow {
                src: Endpoint::Rank(r),
                dst: Endpoint::Rank(dst),
                lo,
                hi,
                bytes: (hi - lo) as f64 * elem_bytes,
                reduced: true,
            });
            payloads.push((dst, lo, buf[lo..hi].to_vec()));
        }
        if !step.flows.is_empty() {
            sched.steps.push(step);
        }
        for (dst, lo, data) in payloads {
            for (i, x) in data.iter().enumerate() {
                bufs[dst][lo + i] = x.clone();
            }
        }
    }
}

/// Appends a single-flow step shipping rank `src`'s fully reduced
/// elements `[lo, hi)` to the host.
fn push_rank_to_host(sched: &mut CommSchedule, src: usize, lo: usize, hi: usize, elem_bytes: f64) {
    if lo == hi {
        return;
    }
    sched.steps.push(CommStep {
        flows: vec![Flow {
            src: Endpoint::Rank(src),
            dst: Endpoint::Host,
            lo,
            hi,
            bytes: (hi - lo) as f64 * elem_bytes,
            reduced: true,
        }],
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_sum(partials: &[Vec<u64>]) -> Vec<u64> {
        let mut out = partials[0].clone();
        for p in &partials[1..] {
            for (a, b) in out.iter_mut().zip(p) {
                *a = a.wrapping_add(*b);
            }
        }
        out
    }

    fn sample(n: usize, v: usize) -> Vec<Vec<u64>> {
        (0..n)
            .map(|r| {
                (0..v)
                    .map(|e| {
                        let x = (r * 1_000_003 + e * 7919 + 13) as u64;
                        x.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn all_strategies_match_serial_reduction() {
        for n in [1, 2, 3, 4, 5, 8, 13] {
            for v in [1, 2, 7, 16, 33] {
                let partials = sample(n, v);
                let want = serial_sum(&partials);
                for strat in CollectiveStrategy::ALL {
                    let (got, sched) = run_collective(
                        strat,
                        &partials,
                        |a, b| a.wrapping_add(*b),
                        &Topology::single_box(n),
                        &CommConfig::default(),
                        8.0,
                    );
                    assert_eq!(got, want, "{} n={n} v={v}", strat.name());
                    assert_eq!(sched.n_ranks, n);
                    assert_eq!(sched.vec_len, v);
                    if n > 1 {
                        assert!(sched.total_s > 0.0, "{}", strat.name());
                    }
                }
            }
        }
    }

    #[test]
    fn plan_matches_run_cost() {
        let partials = sample(6, 24);
        let topo = Topology::single_box(6);
        for strat in CollectiveStrategy::ALL {
            let (_, ran) = run_collective(
                strat,
                &partials,
                |a, b| a.wrapping_add(*b),
                &topo,
                &CommConfig::default(),
                8.0,
            );
            let planned = plan_collective(strat, 6, 24, 8.0, &topo, &CommConfig::default());
            assert_eq!(planned.total_s, ran.total_s, "{}", strat.name());
            assert_eq!(planned.n_flows(), ran.n_flows());
            assert_eq!(planned.total_bytes(), ran.total_bytes());
        }
    }

    #[test]
    fn ring_moves_less_host_traffic_than_gather() {
        let n = 8;
        let v = 64;
        let topo = Topology::single_box(n);
        let hg = plan_collective(
            CollectiveStrategy::HostGather,
            n,
            v,
            128.0,
            &topo,
            &CommConfig::default(),
        );
        let rs = plan_collective(
            CollectiveStrategy::ReduceScatterGather,
            n,
            v,
            128.0,
            &topo,
            &CommConfig::default(),
        );
        let host_bytes = |s: &CommSchedule| -> f64 {
            s.steps
                .iter()
                .flat_map(|st| st.flows.iter())
                .filter(|f| f.dst == Endpoint::Host)
                .map(|f| f.bytes)
                .sum()
        };
        assert!((host_bytes(&hg) - n as f64 * v as f64 * 128.0).abs() < 1e-9);
        assert!((host_bytes(&rs) - v as f64 * 128.0).abs() < 1e-9);
        // and host-gather charges the host-side reduction it implies
        assert_eq!(hg.host_reduce_ops, (n as u64 - 1) * v as u64);
        assert_eq!(rs.host_reduce_ops, 0);
    }

    #[test]
    fn gather_to_host_bytes_and_cost() {
        // Three equal payloads share the box's one hub->host root port:
        // each flow gets a third of its 64 GB/s, pays both 5 us PCIe hops
        // and one payload of store-and-forward fill.
        let topo = Topology::single_box(3);
        let per = [2e6, 2e6, 2e6];
        let sched = gather_to_host(&per, &topo, &CommConfig::default());
        assert_eq!(sched.n_flows(), 3);
        let total: f64 = per.iter().sum();
        assert!((sched.total_bytes() - total).abs() < 1e-9);
        let shared_rate = 64.0 / 3.0 * 1e9;
        let expect = 10e-6 + (2e6 + 2e6) / shared_rate;
        assert!((sched.total_s - expect).abs() < 1e-12 * expect);
        // Unequal payloads follow the convoy model: the largest flow
        // keeps its 1/n bandwidth share until the step ends.
        let uneven = gather_to_host(&[1e6, 2e6, 3e6], &topo, &CommConfig::default());
        let convoy = 10e-6 + (3e6 + 3e6) / shared_rate;
        assert!((uneven.total_s - convoy).abs() < 1e-12 * convoy);
    }

    #[test]
    fn schedules_do_not_depend_on_memoised_routes() {
        // an empty route memo, a filling one and a full one: total_s,
        // step_s and link_loads (labels included) must be ==
        use crate::topology::tests::{cold, presets};
        let cfg = CommConfig::default();
        for topo in presets() {
            let n = topo.n_gpus();
            for strat in CollectiveStrategy::ALL {
                let plan = |t: &Topology| plan_collective(strat, n, 17, 192.0, t, &cfg);
                let first = plan(&cold(&topo));
                assert_eq!(first, plan(&topo), "{} {}", topo.name, strat.name());
                assert_eq!(first, plan(&topo), "{} {}", topo.name, strat.name());
                assert!(first.link_loads.iter().all(|l| l.label.contains("<->")));
            }
            let per_rank: Vec<f64> = (0..n).map(|r| 4096.0 * (r % 3) as f64).collect();
            let gather = |t: &Topology| gather_to_host(&per_rank, t, &cfg);
            assert_eq!(gather(&cold(&topo)), gather(&topo), "{}", topo.name);
        }
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in CollectiveStrategy::ALL {
            assert_eq!(CollectiveStrategy::parse(s.name()), Some(s));
        }
        assert_eq!(CollectiveStrategy::parse("nope"), None);
    }

    #[test]
    fn single_rank_collectives_are_trivial() {
        let partials = sample(1, 5);
        for strat in CollectiveStrategy::ALL {
            let (got, sched) = run_collective(
                strat,
                &partials,
                |a, b| a.wrapping_add(*b),
                &Topology::single_box(1),
                &CommConfig::default(),
                8.0,
            );
            assert_eq!(got, partials[0]);
            assert_eq!(sched.host_reduce_ops, 0);
        }
    }
}
