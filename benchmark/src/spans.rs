//! In-memory spans recorded by the harness around calls into each layer.
//!
//! Spans come from `benchmark/` code only (the library is untouched):
//! the real op is a root span, the single-threaded layer walk nests one
//! span per public call beneath its own root. They stay in memory until
//! the run ends and are then written as Chrome-trace JSON.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.bucket_sum`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one op (or one walk).
    pub op_id: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans while enabled; a disabled tracer only runs the closure,
/// so the same code path serves the traced and the untraced run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or just calls through.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts or stops recording; open spans are unaffected.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span named `name`, in ns.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .sum()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children.entry(p).or_default().push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut covered = 0u64;
            if let Some(mut iv) = children.remove(&i) {
                iv.sort_unstable();
                let (mut lo, mut hi) = iv[0];
                for &(a, b) in &iv[1..] {
                    if a <= hi {
                        hi = hi.max(b);
                    } else {
                        covered += hi - lo;
                        (lo, hi) = (a, b);
                    }
                }
                covered += hi - lo;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Chrome-trace JSON (`chrome://tracing`, ui.perfetto.dev): one complete
/// event per span on one thread lane, `ts`/`dur` in µs, with the span's
/// index, parent, op id and self time in `args`.
pub fn to_chrome_trace(workload: &str, spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\"args\":{{\"name\":\"{workload}\"}}}}"
    ));
    for (i, s) in spans.iter().enumerate() {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{layer}\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0,\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"op_id\":{},\"self_us\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op_id,
            self_ns[i] as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t.x",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, 100, None),    // root: children cover 10..40 and 50..70
            span(10, 40, Some(0)), // first child, itself a parent
            span(15, 25, Some(1)), // grandchild: not subtracted from the root
            span(50, 70, Some(0)), // sibling
            span(200, 230, None),  // second root, no children
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 10, 20, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),  // overlaps the first child
            span(90, 130, Some(0)), // overhangs the parent's end
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        let v = tr.span("a.root", 7, |tr| tr.span("a.child", 7, |_| 42));
        assert_eq!(v, 42);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[0].parent, None);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].op_id, 7);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        assert!(tr.total_ns("a.root") >= tr.total_ns("a.child"));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("a.root", 0, |_| 1), 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_passes_the_repo_schema_validator() {
        let mut tr = Tracer::new(true);
        tr.span("core.engine.execute", 1, |tr| {
            tr.span("core.scatter", 1, |_| ())
        });
        let text = to_chrome_trace("msm_bn254_64k", tr.spans());
        let doc = distmsm_telemetry::parse_json(&text).expect("valid JSON");
        assert_eq!(
            distmsm_telemetry::validate_chrome_trace(&doc),
            Vec::<String>::new()
        );
    }
}
