//! Chrome-trace / Perfetto JSON emission and the live-span phase table.
//!
//! The exported document follows the Chrome Trace Event format's JSON
//! object form (`{"traceEvents": [...], ...}`): one `pid 0` process
//! whose threads are the timeline [`Lane`]s, complete (`"X"`) events
//! for spans, instant (`"i"`) events for fault/re-plan markers and
//! counter (`"C"`) events for traffic series. Timestamps convert from
//! simulated seconds to the format's microseconds. Open the file
//! directly in <https://ui.perfetto.dev> (or `chrome://tracing`).

use crate::span::{Lane, Timeline};
use std::fmt::Write as _;

/// Escapes a string as a JSON string literal — the workspace's one
/// writer-side escape (`distmsm::report` re-exports it).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an f64 so the JSON stays parseable (`NaN`/`inf` have no JSON
/// representation; simulated times should never produce them, but a
/// malformed hook must not yield an unreadable file).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Simulated seconds → Chrome-trace microseconds.
fn us(t_s: f64) -> f64 {
    t_s * 1e6
}

fn args_obj(args: &[(String, String)]) -> String {
    let body: Vec<String> = args
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Renders a [`Timeline`] as a Chrome-trace JSON document.
///
/// Event order: metadata records (process + one `thread_name` per lane),
/// then spans, instants and counters in recording order, then one
/// summary instant per histogram. The trailing `otherData.producer`
/// field marks the document as coming from this crate (ci.sh greps for
/// that token in its telemetry smoke).
pub fn to_chrome_trace(tl: &Timeline) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(
        "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"distmsm\"}}"
            .into(),
    );

    let mut lanes: Vec<Lane> = tl
        .spans
        .iter()
        .map(|s| s.lane)
        .chain(tl.instants.iter().map(|i| i.lane))
        .chain(tl.counters.iter().map(|c| c.lane))
        .collect();
    lanes.sort();
    lanes.dedup();
    for lane in &lanes {
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":{}}}}}",
            lane.tid(),
            json_str(&lane.name())
        ));
        // Perfetto sorts threads by this index, keeping gpu0..gpuN in
        // numeric order below the singleton lanes.
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"sort_index\":{}}}}}",
            lane.tid(),
            lane.tid()
        ));
    }

    for s in &tl.spans {
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"ts\":{},\"dur\":{},\
             \"pid\":0,\"tid\":{},\"args\":{}}}",
            json_str(&s.name),
            json_str(&s.cat),
            json_num(us(s.t0_s)),
            json_num(us(s.dur_s()).max(0.0)),
            s.lane.tid(),
            args_obj(&s.args)
        ));
    }
    for i in &tl.instants {
        events.push(format!(
            "{{\"ph\":\"i\",\"name\":{},\"cat\":{},\"ts\":{},\
             \"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{}}}",
            json_str(&i.name),
            json_str(&i.cat),
            json_num(us(i.t_s)),
            i.lane.tid(),
            args_obj(&i.args)
        ));
    }
    for c in &tl.counters {
        events.push(format!(
            "{{\"ph\":\"C\",\"name\":{},\"ts\":{},\"pid\":0,\"tid\":{},\
             \"args\":{{\"value\":{}}}}}",
            json_str(&c.name),
            json_num(us(c.t_s)),
            c.lane.tid(),
            json_num(c.value)
        ));
    }
    let extent = tl.extent_s();
    for h in &tl.histograms {
        let counts: Vec<String> = h.counts.iter().map(|c| c.to_string()).collect();
        events.push(format!(
            "{{\"ph\":\"i\",\"name\":{},\"cat\":\"histogram\",\"ts\":{},\
             \"pid\":0,\"tid\":0,\"s\":\"g\",\"args\":{{\"n\":{},\"sum\":{},\
             \"mean\":{},\"log2_counts\":{}}}}}",
            json_str(&format!("histogram:{}", h.name)),
            json_num(us(extent)),
            h.n,
            json_num(h.sum),
            json_num(h.mean()),
            json_str(&counts.join(","))
        ));
    }

    format!(
        "{{\"traceEvents\":[\n{}\n],\
         \"displayTimeUnit\":\"ms\",\
         \"otherData\":{{\"producer\":\"distmsm_telemetry\",\
         \"clock\":\"simulated\"}}}}\n",
        events.join(",\n")
    )
}

/// Renders the live-span phase breakdown ([`Timeline::phase_breakdown`])
/// as an aligned text table in milliseconds — the Fig. 10 decomposition
/// recomputed from spans.
pub fn phase_table(tl: &Timeline) -> String {
    let phases = tl.phase_breakdown();
    let total: f64 = phases.iter().map(|(_, s)| s).sum();
    let name_w = phases
        .iter()
        .map(|(n, _)| n.len())
        .chain(["phase".len(), "total".len()])
        .max()
        .unwrap_or(5);
    let mut out = String::new();
    let _ = writeln!(out, "{:<name_w$}  {:>12}  {:>7}", "phase", "time (ms)", "share");
    let _ = writeln!(out, "{}", "-".repeat(name_w + 23));
    for (name, s) in &phases {
        let share = if total > 0.0 { s / total * 100.0 } else { 0.0 };
        let _ = writeln!(out, "{name:<name_w$}  {:>12.6}  {share:>6.2}%", s * 1e3);
    }
    let _ = writeln!(out, "{}", "-".repeat(name_w + 23));
    let _ = writeln!(out, "{:<name_w$}  {:>12.6}  {:>6.2}%", "total", total * 1e3, 100.0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, validate_chrome_trace};
    use crate::span::{CounterSample, Histogram, Instant, Span};

    fn sample_timeline() -> Timeline {
        let mut h = Histogram::new("kernel-dur-us");
        h.record(3.0);
        h.record(17.0);
        Timeline {
            spans: vec![
                Span {
                    name: "scatter:w0".into(),
                    cat: "scatter".into(),
                    lane: Lane::Device(0),
                    t0_s: 0.0,
                    t1_s: 1.5e-3,
                    args: vec![("threads".into(), "4096".into())],
                },
                Span {
                    name: "gather".into(),
                    cat: "transfer".into(),
                    lane: Lane::Fabric,
                    t0_s: 1.5e-3,
                    t1_s: 2.0e-3,
                    args: Vec::new(),
                },
            ],
            instants: vec![Instant {
                name: "fault:fail-stop".into(),
                cat: "fault".into(),
                lane: Lane::Device(0),
                t_s: 1.0e-3,
                args: vec![("kind".into(), "fail-stop".into())],
            }],
            counters: vec![CounterSample {
                name: "fabric-bytes".into(),
                lane: Lane::Fabric,
                t_s: 1.5e-3,
                value: 4096.0,
            }],
            histograms: vec![h],
        }
    }

    #[test]
    fn export_is_valid_chrome_trace() {
        let text = to_chrome_trace(&sample_timeline());
        let doc = parse(&text).expect("exported trace parses");
        assert_eq!(validate_chrome_trace(&doc), Vec::<String>::new());
        // the marker ci.sh's telemetry smoke greps for
        assert!(text.contains("\"producer\":\"distmsm_telemetry\""));
    }

    #[test]
    fn export_has_lane_metadata_and_microsecond_times() {
        let text = to_chrome_trace(&sample_timeline());
        let doc = parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("M"))
            .filter_map(|e| e.get("args").and_then(|a| a.get("name")))
            .filter_map(|n| n.as_str())
            .collect();
        assert!(names.contains(&"gpu0"));
        assert!(names.contains(&"fabric"));
        let span = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("scatter:w0"))
            .unwrap();
        assert_eq!(span.get("ts").unwrap().as_num(), Some(0.0));
        assert_eq!(span.get("dur").unwrap().as_num(), Some(1500.0));
    }

    #[test]
    fn export_is_deterministic() {
        let tl = sample_timeline();
        assert_eq!(to_chrome_trace(&tl), to_chrome_trace(&tl));
    }

    #[test]
    fn phase_table_lists_categories_and_total() {
        let table = phase_table(&sample_timeline());
        assert!(table.contains("scatter"), "{table}");
        assert!(table.contains("transfer"), "{table}");
        assert!(table.contains("total"), "{table}");
        // 1.5 ms scatter + 0.5 ms transfer
        assert!(table.contains("2.000000"), "{table}");
    }

    #[test]
    fn json_str_escapes_specials() {
        assert_eq!(json_str("a\"b\\c\n"), r#""a\"b\\c\n""#);
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
