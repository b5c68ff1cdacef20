//! Timeline vocabulary: lanes, spans, instants, counters, histograms,
//! and the aggregation rules that reproduce the engine's phase report
//! from live spans.

/// The timeline lane an event is attributed to. One lane per simulated
/// device, plus singleton lanes for the interconnect fabric, the host
/// CPU, the fault supervisor and the zkSNARK prover driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Lane {
    /// The zkSNARK prover driver (MSM/NTT stage structure).
    Prover,
    /// The host CPU (bucket-reduce, window-reduce, host-side combines).
    Host,
    /// The interconnect fabric (gathers, collectives, per-link traffic).
    Fabric,
    /// The fault supervisor (backoff, self-check, checkpoints, re-plans).
    Supervisor,
    /// The multi-tenant service front-end (admission decisions, shed
    /// events, device-pool circuit-breaker transitions).
    Service,
    /// The fleet placement layer (pod placement, work stealing,
    /// outsourcing-check verdicts, pod quarantines).
    Fleet,
    /// Simulated GPU `0..n`.
    Device(usize),
}

impl Lane {
    /// Stable Chrome-trace thread id for the lane (devices from 10 up so
    /// the singleton lanes sort first in Perfetto).
    pub fn tid(&self) -> usize {
        match *self {
            Lane::Prover => 1,
            Lane::Host => 2,
            Lane::Fabric => 3,
            Lane::Supervisor => 4,
            Lane::Service => 5,
            Lane::Fleet => 6,
            Lane::Device(g) => 10 + g,
        }
    }

    /// Human-readable lane name for the Chrome-trace `thread_name`
    /// metadata record.
    pub fn name(&self) -> String {
        match *self {
            Lane::Prover => "prover".into(),
            Lane::Host => "host-cpu".into(),
            Lane::Fabric => "fabric".into(),
            Lane::Supervisor => "supervisor".into(),
            Lane::Service => "service".into(),
            Lane::Fleet => "fleet".into(),
            Lane::Device(g) => format!("gpu{g}"),
        }
    }
}

/// One completed duration event on a lane. Times are *simulated* seconds
/// from the session clock; `t1_s >= t0_s` always.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Event name (`"scatter:w3[0..128)"`, `"bucket-reduce(cpu)"`, …).
    pub name: String,
    /// Phase category the span's duration is attributed to — the key the
    /// Fig. 10 aggregation and the TEL-001 sum-consistency rule group by
    /// (`"scatter"`, `"bucket-sum"`, `"bucket-reduce"`,
    /// `"window-reduce"`, `"transfer"`, `"recovery"`, …). Categories
    /// listed in [`Timeline::STRUCTURAL_CATS`] are containers/overlays
    /// and excluded from sums.
    pub cat: String,
    /// Lane the span occupies.
    pub lane: Lane,
    /// Start, simulated seconds.
    pub t0_s: f64,
    /// End, simulated seconds.
    pub t1_s: f64,
    /// Free-form key/value annotations (thread counts, bytes, ops…).
    pub args: Vec<(String, String)>,
}

impl Span {
    /// Span duration in simulated seconds.
    pub fn dur_s(&self) -> f64 {
        self.t1_s - self.t0_s
    }
}

/// A zero-duration marker (fault detected, re-plan issued, route
/// degraded) — exported as a Chrome-trace instant event.
#[derive(Clone, Debug, PartialEq)]
pub struct Instant {
    /// Marker name (`"fault:fail-stop"`, `"re-plan"`, …).
    pub name: String,
    /// Marker category.
    pub cat: String,
    /// Lane the marker points at.
    pub lane: Lane,
    /// Time, simulated seconds.
    pub t_s: f64,
    /// Free-form key/value annotations.
    pub args: Vec<(String, String)>,
}

/// One sample of a named counter series — exported as a Chrome-trace
/// `"C"` event (Perfetto renders the series as a filled track).
#[derive(Clone, Debug, PartialEq)]
pub struct CounterSample {
    /// Counter series name (`"fabric-bytes"`, `"atomic-addrs"`, …).
    pub name: String,
    /// Lane the series is attached to.
    pub lane: Lane,
    /// Sample time, simulated seconds.
    pub t_s: f64,
    /// Sample value.
    pub value: f64,
}

/// A fixed-layout log₂ histogram for value distributions (kernel
/// durations, flow sizes). Buckets are `[2^k, 2^{k+1})` with a shared
/// underflow bucket below 1.0.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Histogram name.
    pub name: String,
    /// `counts[0]` is the underflow bucket (`value < 1.0`);
    /// `counts[k]` counts values in `[2^{k-1}, 2^k)`.
    pub counts: Vec<u64>,
    /// Total number of recorded values.
    pub n: u64,
    /// Sum of recorded values.
    pub sum: f64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            ..Self::default()
        }
    }

    /// Records one value (negative values clamp to the underflow
    /// bucket).
    pub fn record(&mut self, value: f64) {
        let bucket = if value < 1.0 {
            0
        } else {
            1 + value.log2().floor() as usize
        };
        if self.counts.len() <= bucket {
            self.counts.resize(bucket + 1, 0);
        }
        self.counts[bucket] += 1;
        self.n += 1;
        self.sum += value.max(0.0);
    }

    /// Mean of the recorded values (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// A captured execution: every span, instant, counter sample and
/// histogram recorded between [`crate::session::begin`] and
/// [`crate::session::end`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timeline {
    /// Duration events, in emission order.
    pub spans: Vec<Span>,
    /// Instant markers, in emission order.
    pub instants: Vec<Instant>,
    /// Counter samples, in emission order.
    pub counters: Vec<CounterSample>,
    /// Histograms, keyed by name at recording time.
    pub histograms: Vec<Histogram>,
}

/// Relative tolerance for span-boundary comparisons: simulated times are
/// sums of f64 cost terms, so exact-touching boundaries may disagree in
/// the last few ulps.
const REL_EPS: f64 = 1e-9;

impl Timeline {
    /// Span categories that are structural (container or overlay spans)
    /// rather than phase attributions: their durations overlap genuine
    /// phase spans on the same lane and are excluded from
    /// [`Timeline::phase_breakdown`].
    pub const STRUCTURAL_CATS: [&'static str; 3] = ["phase", "collective", "msm"];

    /// Absolute comparison slack derived from the timeline's extent.
    fn eps(&self) -> f64 {
        let extent = self
            .spans
            .iter()
            .map(|s| s.t1_s.abs())
            .fold(0.0, f64::max);
        REL_EPS * extent.max(1e-12)
    }

    /// Latest span end on the timeline (`0.0` when empty).
    pub fn extent_s(&self) -> f64 {
        self.spans.iter().map(|s| s.t1_s).fold(0.0, f64::max)
    }

    /// Checks the span tree: every span must have `t1 >= t0`, and on
    /// each lane any two spans must be disjoint or properly nested
    /// (within floating-point tolerance). Returns a description of the
    /// first violation.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first ill-formed or
    /// ill-nested span pair.
    pub fn check_well_nested(&self) -> Result<(), String> {
        let eps = self.eps();
        for s in &self.spans {
            if !(s.t0_s.is_finite() && s.t1_s.is_finite()) || s.t1_s < s.t0_s - eps {
                return Err(format!(
                    "span `{}` on {} has invalid bounds [{}, {}]",
                    s.name,
                    s.lane.name(),
                    s.t0_s,
                    s.t1_s
                ));
            }
        }
        let mut lanes: Vec<Lane> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort();
        lanes.dedup();
        for lane in lanes {
            let mut spans: Vec<&Span> = self.spans.iter().filter(|s| s.lane == lane).collect();
            // parents sort before their children: earlier start first,
            // longer span first on ties
            spans.sort_by(|a, b| {
                a.t0_s
                    .total_cmp(&b.t0_s)
                    .then(b.t1_s.total_cmp(&a.t1_s))
            });
            let mut stack: Vec<&Span> = Vec::new();
            for s in spans {
                while let Some(top) = stack.last() {
                    if top.t1_s <= s.t0_s + eps {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(top) = stack.last() {
                    // still open: s must close inside it
                    if s.t1_s > top.t1_s + eps {
                        return Err(format!(
                            "span `{}` [{}, {}] overlaps `{}` [{}, {}] on {}",
                            s.name,
                            s.t0_s,
                            s.t1_s,
                            top.name,
                            top.t0_s,
                            top.t1_s,
                            lane.name()
                        ));
                    }
                }
                stack.push(s);
            }
        }
        Ok(())
    }

    /// Sum of span durations of category `cat` on one lane, counting
    /// only spans with no same-lane, same-category ancestor (children
    /// refine their parent's duration; double-counting both would break
    /// the phase sums). An ancestor `p` of `s` satisfies
    /// `p.t0 <= s.t0 + eps`, `s.t1 <= p.t1 + eps` and
    /// `p.dur > s.dur`; the counted durations add in emission order.
    fn lane_cat_sum(&self, lane: Lane, cat: &str) -> f64 {
        let spans: Vec<&Span> = self
            .spans
            .iter()
            .filter(|s| s.lane == lane && s.cat == cat)
            .collect();
        let covered = have_ancestor(&spans, self.eps());
        spans
            .iter()
            .zip(covered)
            .filter(|&(_, covered)| !covered)
            .map(|(s, _)| s.dur_s())
            .sum()
    }

    /// Aggregate duration attributed to category `cat`, following the
    /// engine's composition rule: device lanes run concurrently (the
    /// category costs its **max** per-device sum) while the fabric,
    /// host, supervisor and prover lanes are serial phases (their sums
    /// **add**).
    pub fn category_s(&self, cat: &str) -> f64 {
        let mut lanes: Vec<Lane> = self.spans.iter().map(|s| s.lane).collect();
        lanes.sort();
        lanes.dedup();
        let mut device_max = 0.0f64;
        let mut serial = 0.0f64;
        for lane in lanes {
            let sum = self.lane_cat_sum(lane, cat);
            match lane {
                Lane::Device(_) => device_max = device_max.max(sum),
                _ => serial += sum,
            }
        }
        device_max + serial
    }

    /// The live-span phase breakdown: every non-structural category with
    /// its aggregate duration (seconds), sorted by name. This is the
    /// Fig. 10 decomposition recomputed from spans instead of from the
    /// engine's hand-carried `PhaseBreakdown`-style fields.
    pub fn phase_breakdown(&self) -> Vec<(String, f64)> {
        let mut cats: Vec<&str> = self
            .spans
            .iter()
            .map(|s| s.cat.as_str())
            .filter(|c| !Self::STRUCTURAL_CATS.contains(c))
            .collect();
        cats.sort_unstable();
        cats.dedup();
        cats.iter()
            .map(|c| (c.to_string(), self.category_s(c)))
            .collect()
    }
}

/// Which spans have an ancestor in [`Timeline::lane_cat_sum`]'s sense,
/// by one sort-and-sweep: candidate ancestors enter in start order while
/// `p.t0 <= s.t0 + eps` holds for the query `s` (queries go in
/// `s.t0 + eps` order, so entry is a prefix), and a max tree over the
/// entered candidates ranked by `p.t1 + eps` answers "is one ending late
/// enough also longer?". Each comparison is the defining one, so a NaN
/// bound neither covers nor is covered, exactly as in the definition.
fn have_ancestor(spans: &[&Span], eps: f64) -> Vec<bool> {
    let reach: Vec<f64> = spans.iter().map(|s| s.t1_s + eps).collect();
    let dur: Vec<f64> = spans.iter().map(|s| s.dur_s()).collect();
    let open: Vec<f64> = spans.iter().map(|s| s.t0_s + eps).collect();
    let all = 0..spans.len();

    let mut by_start: Vec<usize> = all
        .clone()
        .filter(|&i| !(spans[i].t0_s.is_nan() || reach[i].is_nan() || dur[i].is_nan()))
        .collect();
    by_start.sort_by(|&a, &b| spans[a].t0_s.total_cmp(&spans[b].t0_s));
    let mut by_reach = by_start.clone();
    by_reach.sort_by(|&a, &b| reach[a].total_cmp(&reach[b]));
    let mut rank = vec![0; spans.len()];
    for (r, &i) in by_reach.iter().enumerate() {
        rank[i] = r;
    }
    let mut queries: Vec<usize> =
        all.filter(|&i| !(open[i].is_nan() || spans[i].t1_s.is_nan())).collect();
    queries.sort_by(|&a, &b| open[a].total_cmp(&open[b]));

    let mut longest = SuffixMax(vec![f64::NEG_INFINITY; by_reach.len()]);
    let mut entered = 0;
    let mut covered = vec![false; spans.len()];
    for s in queries {
        while let Some(&p) = by_start.get(entered).filter(|&&p| spans[p].t0_s <= open[s]) {
            longest.raise(rank[p], dur[p]);
            entered += 1;
        }
        let first = by_reach.partition_point(|&p| reach[p] < spans[s].t1_s);
        covered[s] = longest.max_from(first) > dur[s];
    }
    covered
}

/// A max Fenwick tree over suffixes: `max_from(i)` is the largest value
/// raised at any position `>= i` (`-inf` when there is none).
struct SuffixMax(Vec<f64>);

impl SuffixMax {
    fn raise(&mut self, i: usize, value: f64) {
        let n = self.0.len();
        let mut k = n - i;
        while k <= n {
            self.0[k - 1] = self.0[k - 1].max(value);
            k += k & k.wrapping_neg();
        }
    }

    fn max_from(&self, i: usize) -> f64 {
        let mut k = self.0.len() - i;
        let mut max = f64::NEG_INFINITY;
        while k > 0 {
            max = max.max(self.0[k - 1]);
            k &= k - 1;
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, cat: &str, lane: Lane, t0: f64, t1: f64) -> Span {
        Span {
            name: name.into(),
            cat: cat.into(),
            lane,
            t0_s: t0,
            t1_s: t1,
            args: Vec::new(),
        }
    }

    #[test]
    fn nesting_accepts_disjoint_and_nested() {
        let tl = Timeline {
            spans: vec![
                span("parent", "phase", Lane::Device(0), 0.0, 10.0),
                span("a", "scatter", Lane::Device(0), 0.0, 4.0),
                span("b", "bucket-sum", Lane::Device(0), 4.0, 10.0),
                span("other-lane", "transfer", Lane::Fabric, 3.0, 12.0),
            ],
            ..Timeline::default()
        };
        tl.check_well_nested().expect("well nested");
    }

    #[test]
    fn nesting_rejects_partial_overlap() {
        let tl = Timeline {
            spans: vec![
                span("a", "scatter", Lane::Device(1), 0.0, 5.0),
                span("b", "scatter", Lane::Device(1), 3.0, 8.0),
            ],
            ..Timeline::default()
        };
        let err = tl.check_well_nested().expect_err("overlap");
        assert!(err.contains("overlaps"), "{err}");
    }

    #[test]
    fn nesting_rejects_inverted_bounds() {
        let tl = Timeline {
            spans: vec![span("a", "scatter", Lane::Host, 2.0, 1.0)],
            ..Timeline::default()
        };
        assert!(tl.check_well_nested().is_err());
    }

    #[test]
    fn nesting_tolerates_ulp_noise_at_boundaries() {
        let t = 1.0 + 1e-13; // touching boundary, off by ulps
        let tl = Timeline {
            spans: vec![
                span("a", "scatter", Lane::Device(0), 0.0, 1.0),
                span("b", "bucket-sum", Lane::Device(0), t - 2e-13, 2.0),
            ],
            ..Timeline::default()
        };
        tl.check_well_nested().expect("ulp-touching spans are fine");
    }

    #[test]
    fn category_aggregation_max_devices_plus_serial() {
        let tl = Timeline {
            spans: vec![
                span("s0", "scatter", Lane::Device(0), 0.0, 3.0),
                span("s1", "scatter", Lane::Device(1), 0.0, 5.0),
                span("host", "scatter", Lane::Host, 10.0, 11.0),
            ],
            ..Timeline::default()
        };
        // max(3, 5) over devices + 1 on the host lane
        assert!((tl.category_s("scatter") - 6.0).abs() < 1e-12);
    }

    #[test]
    fn nested_same_category_spans_count_once() {
        let tl = Timeline {
            spans: vec![
                span("phase", "scatter", Lane::Device(0), 0.0, 10.0),
                span("k0", "scatter", Lane::Device(0), 0.0, 4.0),
                span("k1", "scatter", Lane::Device(0), 4.0, 9.0),
            ],
            ..Timeline::default()
        };
        // the parent covers its children; only the parent counts
        assert!((tl.category_s("scatter") - 10.0).abs() < 1e-12);
    }

    /// The quadratic definition [`Timeline::lane_cat_sum`] sweeps: a span
    /// counts unless another span starts no later, ends no earlier (both
    /// within `eps`) and is strictly longer.
    fn lane_cat_sum_reference(tl: &Timeline, lane: Lane, cat: &str) -> f64 {
        let spans: Vec<&Span> = tl.spans.iter().filter(|s| s.lane == lane && s.cat == cat).collect();
        let eps = tl.eps();
        spans
            .iter()
            .filter(|s| {
                !spans.iter().any(|p| {
                    !std::ptr::eq(*p, **s)
                        && p.t0_s <= s.t0_s + eps
                        && s.t1_s <= p.t1_s + eps
                        && p.dur_s() > s.dur_s()
                })
            })
            .map(|s| s.dur_s())
            .sum()
    }

    /// A seeded timeline on two lanes and two categories: nested span
    /// trees whose children often share a parent bound, with exact
    /// duplicates. With `overlap` it also has ulp-shifted bounds (inside
    /// `eps`), equal-length duplicates shifted across their original,
    /// and spans placed with no regard for nesting.
    fn random_timeline(seed: u64, overlap: bool) -> Timeline {
        let mut state = seed;
        let mut draw = |n: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        };
        let mut spans = Vec::new();
        let mut open = vec![(0.0f64, 64.0f64, 0u32)];
        while let Some((t0, t1, depth)) = open.pop() {
            let lane = if draw(4) == 0 { Lane::Host } else { Lane::Device(0) };
            let cat = if draw(3) == 0 { "bucket-sum" } else { "scatter" };
            let (a, b) = match draw(6) {
                0 if overlap => (t0 * (1.0 - 1e-15), t1),
                1 if overlap => (t0, t1 * (1.0 - 1e-15)),
                _ => (t0, t1),
            };
            spans.push(span("n", cat, lane, a, b));
            match draw(5) {
                0 => spans.push(span("dup", cat, lane, a, b)),
                1 if overlap && t1 - t0 >= 1.0 => {
                    // same length, shifted by a quarter of it
                    let shift = (t1 - t0) / 4.0;
                    spans.push(span("shift", cat, lane, t0 + shift, t1 + shift));
                }
                _ => {}
            }
            if depth < 5 && t1 - t0 > 0.25 {
                // children tile [t0, t1) on a grid of eighths, so ties
                // with the parent's bounds are common
                let mut cut = t0;
                while cut < t1 {
                    let next = (cut + (t1 - t0) * (1 + draw(4)) as f64 / 8.0).min(t1);
                    if draw(3) != 0 {
                        open.push((cut, next, depth + 1));
                    }
                    cut = next;
                }
            }
        }
        if overlap {
            for _ in 0..40 {
                let t0 = draw(256) as f64 / 4.0;
                let t1 = t0 + draw(64) as f64 / 4.0;
                spans.push(span("free", "scatter", Lane::Device(0), t0, t1));
            }
        }
        Timeline { spans, ..Timeline::default() }
    }

    #[test]
    fn sweep_equals_the_quadratic_definition_bit_for_bit() {
        for seed in 0..200 {
            let tl = random_timeline(seed, seed % 2 == 1);
            if seed % 2 == 0 {
                tl.check_well_nested().expect("the nested generator nests");
            }
            for lane in [Lane::Device(0), Lane::Host] {
                for cat in ["scatter", "bucket-sum", "absent"] {
                    let got = tl.lane_cat_sum(lane, cat);
                    let want = lane_cat_sum_reference(&tl, lane, cat);
                    assert_eq!(got.to_bits(), want.to_bits(), "seed {seed} {lane:?} {cat}");
                }
            }
        }
    }

    #[test]
    fn sweep_counts_an_ancestor_exactly_eps_away_on_either_bound() {
        // the far span pins eps; each category holds an ancestor that
        // clears the child by exactly eps at one bound
        let far = span("far", "x", Lane::Fabric, 0.0, 1024.0);
        let eps = Timeline { spans: vec![far.clone()], ..Timeline::default() }.eps();
        let tl = Timeline {
            spans: vec![
                far,
                span("p", "end", Lane::Host, 0.0, 1.0),
                span("s", "end", Lane::Host, 0.5, 1.0 + eps),
                span("p", "start", Lane::Host, 0.5 + eps, 2.0),
                span("s", "start", Lane::Host, 0.5, 1.0),
            ],
            ..Timeline::default()
        };
        for (cat, parent) in [("end", 1.0), ("start", 2.0 - (0.5 + eps))] {
            let got = tl.lane_cat_sum(Lane::Host, cat);
            assert_eq!(got.to_bits(), lane_cat_sum_reference(&tl, Lane::Host, cat).to_bits());
            assert_eq!(got, parent, "{cat}: only the ancestor counts");
        }
    }

    #[test]
    fn sweep_matches_the_definition_on_non_finite_bounds() {
        let tl = Timeline {
            spans: vec![
                span("nan-start", "scatter", Lane::Host, f64::NAN, 4.0),
                span("nan-end", "scatter", Lane::Host, 1.0, f64::NAN),
                span("inf", "scatter", Lane::Host, f64::NEG_INFINITY, 3.0),
                span("a", "scatter", Lane::Host, 0.0, 2.0),
                span("b", "scatter", Lane::Host, 0.5, 1.0),
            ],
            ..Timeline::default()
        };
        let got = tl.lane_cat_sum(Lane::Host, "scatter");
        let want = lane_cat_sum_reference(&tl, Lane::Host, "scatter");
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn phase_breakdown_skips_structural_cats() {
        let tl = Timeline {
            spans: vec![
                span("wrap", "collective", Lane::Fabric, 0.0, 9.0),
                span("step", "transfer", Lane::Fabric, 0.0, 9.0),
            ],
            ..Timeline::default()
        };
        let phases = tl.phase_breakdown();
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].0, "transfer");
        assert!((phases[0].1 - 9.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_buckets_log2() {
        let mut h = Histogram::new("dur");
        for v in [0.5, 1.0, 1.9, 4.0, 5.0, 7.9] {
            h.record(v);
        }
        assert_eq!(h.n, 6);
        assert_eq!(h.counts, vec![1, 2, 0, 3]);
        assert!((h.mean() - (0.5 + 1.0 + 1.9 + 4.0 + 5.0 + 7.9) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn lane_ids_stable_and_distinct() {
        let lanes = [
            Lane::Prover,
            Lane::Host,
            Lane::Fabric,
            Lane::Supervisor,
            Lane::Service,
            Lane::Device(0),
            Lane::Device(7),
        ];
        let mut tids: Vec<usize> = lanes.iter().map(Lane::tid).collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), lanes.len());
        assert_eq!(Lane::Device(3).name(), "gpu3");
        assert_eq!(Lane::Service.name(), "service");
    }
}
