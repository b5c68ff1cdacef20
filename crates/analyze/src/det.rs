//! Determinism lints (rules `DET-00x`): a lightweight source walk over
//! the workspace crates flagging constructs that make reports,
//! schedules or cost decisions depend on something other than the
//! input.
//!
//! The engine's promise — one seed, one plan, one byte-stable report —
//! dies quietly when an order-sensitive hash collection feeds a `Report`
//! JSON, a float `partial_cmp` picks a schedule, or a wall-clock read
//! leaks into a cost path. `rustc` cannot see those as errors, so this
//! pass greps for them with a tiny line-level parse (trailing `//`
//! comments stripped; no rustc plugin, no syntax tree):
//!
//! * **DET-001** — `std::collections` hash maps/sets. Their iteration
//!   order is randomised per process, so anything derived from a walk
//!   over one (finding order, schedule order, JSON key order) differs
//!   run to run. The workspace uses `BTreeMap`/`BTreeSet` throughout.
//! * **DET-002** — floating-point ordering hazards: `partial_cmp` that
//!   is not the canonical total-order delegation
//!   `Some(self.cmp(other))`, and float math truncated straight into an
//!   integer (`.log2() as usize` and friends) where a half-ulp of
//!   platform drift flips a plan parameter.
//! * **DET-003** — wall-clock reads (`Instant::now`, `SystemTime::now`)
//!   outside the telemetry crate. Modelled time comes from the cost
//!   model; host time is only legitimate in explicitly-labelled
//!   measurement harnesses.
//! * **PANIC-001** — a ratchet, not a lint: the unwrap/expect call sites
//!   in each crate's library code (a file's lines before its first
//!   `#[cfg(test)]`, the window `ci.sh` counts) may not exceed the
//!   crate's entry in [`PANIC_CEILINGS`].
//!
//! A line ending in a `// det-ok: <reason>` comment is exempt — the
//! annotation is the audit trail for intentional wall-clock use (e.g.
//! the bench harness measuring real host time *on purpose*).
//!
//! [`lint_source`] checks one in-memory source (used by the mutant
//! corpus to prove the rules actually fire); [`lint_workspace`] walks
//! `crates/*/src/**/*.rs` from the workspace root.

use crate::report::{Finding, Report, Severity};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// PANIC-001 ceilings: unwrap/expect call sites per crate in library
/// code. A crate that sheds sites lowers its entry; a crate not listed
/// may have none.
pub const PANIC_CEILINGS: [(&str, usize); 12] = [
    ("analyze", 3),
    ("bench", 19),
    ("comms", 2),
    ("core", 4),
    ("ec", 4),
    ("ff", 1),
    ("fleet", 15),
    ("journal", 7),
    ("kernel", 2),
    ("service", 3),
    ("telemetry", 5),
    ("zksnark", 8),
];

/// Trigger tokens are assembled at runtime so this file's own string
/// literals do not trip the linter when it walks the workspace.
struct Patterns {
    hash_map: String,
    hash_set: String,
    pcmp: String,
    canonical_cmp: String,
    instant_now: String,
    systemtime_now: String,
    float_truncs: Vec<String>,
    unwrap: String,
    expect: String,
}

impl Patterns {
    fn new() -> Self {
        let h = "Hash";
        let pc = "partial";
        let now = "now()";
        Self {
            hash_map: format!("{h}Map"),
            hash_set: format!("{h}Set"),
            pcmp: format!("{pc}_cmp"),
            canonical_cmp: "Some(self.cmp(other))".to_owned(),
            instant_now: format!("Instant::{now}"),
            systemtime_now: format!("SystemTime::{now}"),
            float_truncs: [".log2()", ".ln()", ".sqrt()"]
                .iter()
                .map(|f| format!("{f} as "))
                .collect(),
            unwrap: format!(".{}()", "unwrap"),
            expect: format!(".{}(", "expect"),
        }
    }
}

/// Splits a line into its code and comment halves at the first `//`.
/// A naive split is fine for these rules: `//` inside a string literal
/// only ever *hides* code from the scan on lines that are overwhelmingly
/// test fixtures, and the rules re-fire on the real use site.
fn split_comment(line: &str) -> (&str, &str) {
    match line.find("//") {
        Some(i) => (&line[..i], &line[i..]),
        None => (line, ""),
    }
}

/// Lints one source text. `label` names the origin (a path, or a mutant
/// id) and is prefixed to every finding location; line numbers are
/// 1-based.
pub fn lint_source(label: &str, source: &str) -> Report {
    let pat = Patterns::new();
    let mut report = Report::new();
    let lines: Vec<&str> = source.lines().collect();
    let in_telemetry = label.contains("telemetry");
    for (i, line) in lines.iter().enumerate() {
        let (code, comment) = split_comment(line);
        if comment.contains("det-ok") {
            continue;
        }
        let loc = format!("{label}:{}", i + 1);
        if code.contains(&pat.hash_map) || code.contains(&pat.hash_set) {
            report.push(Finding::new(
                "DET-001",
                Severity::Error,
                loc.clone(),
                "order-sensitive std hash collection: iteration order is \
                 randomised per process, so anything derived from a walk over \
                 it (findings, schedules, JSON) differs run to run; use \
                 BTreeMap/BTreeSet"
                    .to_owned(),
            ));
        }
        if code.contains(&pat.pcmp) {
            // The canonical total-order delegation is fine; it may sit on
            // the same line or (rustfmt) on the next one or two.
            let canonical = (i..(i + 3).min(lines.len()))
                .any(|j| lines[j].contains(&pat.canonical_cmp));
            if !canonical {
                report.push(Finding::new(
                    "DET-002",
                    Severity::Error,
                    loc.clone(),
                    format!(
                        "{} outside the canonical `{}` delegation: float \
                         comparison feeding an order is a determinism hazard \
                         (NaN, platform rounding); compare a total-ordered key",
                        pat.pcmp, pat.canonical_cmp
                    ),
                ));
            }
        }
        for t in &pat.float_truncs {
            if code.contains(t.as_str())
                && !code.contains(".ceil()")
                && !code.contains(".floor()")
                && !code.contains(".round()")
            {
                report.push(Finding::new(
                    "DET-002",
                    Severity::Warning,
                    loc.clone(),
                    format!(
                        "float `{}` truncation in a cost/plan expression: a \
                         half-ulp of platform drift flips the integer; round \
                         explicitly with ceil/floor/round",
                        t.trim_end()
                    ),
                ));
            }
        }
        if (code.contains(&pat.instant_now) || code.contains(&pat.systemtime_now))
            && !in_telemetry
        {
            report.push(Finding::new(
                "DET-003",
                Severity::Error,
                loc,
                "wall-clock read outside the telemetry crate: modelled time \
                 must come from the cost model; annotate intentional host-time \
                 measurement with `// det-ok: <reason>`"
                    .to_owned(),
            ));
        }
    }
    report
}

/// Unwrap/expect call sites in one source's library code: its lines
/// before the first `#[cfg(test)]`, trailing `//` comments stripped.
pub fn panic_sites(source: &str) -> usize {
    let pat = Patterns::new();
    source
        .lines()
        .take_while(|line| !line.trim_start().starts_with("#[cfg(test)]"))
        .map(|line| {
            let (code, _) = split_comment(line);
            code.matches(pat.unwrap.as_str()).count() + code.matches(pat.expect.as_str()).count()
        })
        .sum()
}

/// PANIC-001 over per-crate site counts: an error for each crate above
/// its [`PANIC_CEILINGS`] entry, then one info line with the totals.
pub fn check_panic_ceilings(sites: &BTreeMap<String, usize>) -> Report {
    let mut report = Report::new();
    for (krate, &n) in sites {
        let ceiling = PANIC_CEILINGS
            .iter()
            .find(|(name, _)| name == krate)
            .map_or(0, |&(_, ceiling)| ceiling);
        if n > ceiling {
            report.push(Finding::new(
                "PANIC-001",
                Severity::Error,
                format!("crates/{krate}"),
                format!(
                    "{n} unwrap/expect call sites in library code, above the \
                     crate's ceiling of {ceiling}: return a typed error instead"
                ),
            ));
        }
    }
    report.push(Finding::new(
        "PANIC-001",
        Severity::Info,
        "workspace".to_owned(),
        format!(
            "{} unwrap/expect call sites in the library code of {} crates",
            sites.values().sum::<usize>(),
            sites.len()
        ),
    ));
    report
}

/// Recursively collects `.rs` files under `dir`, sorted for stable
/// finding order, skipping anything under a `shims` directory.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for p in entries {
        if p.components().any(|c| c.as_os_str() == "shims") {
            continue;
        }
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Lints every `crates/*/src/**/*.rs` of the workspace this binary was
/// built from. Degrades to an `Info` skip when the source tree is not
/// present (e.g. an installed binary running outside the repo).
pub fn lint_workspace() -> Report {
    let mut report = Report::new();
    // analyze's manifest dir is <root>/crates/analyze.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_default();
    let crates = root.join("crates");
    if !crates.is_dir() {
        report.push(Finding::new(
            "DET-000",
            Severity::Info,
            crates.display().to_string(),
            "workspace source tree not found; determinism lint skipped".to_owned(),
        ));
        return report;
    }
    let mut files = Vec::new();
    collect_rs(&crates, &mut files);
    let mut scanned = 0usize;
    let mut panic_counts: BTreeMap<String, usize> = BTreeMap::new();
    for f in &files {
        // Only lint crate sources, not vendored fixtures.
        if !f.components().any(|c| c.as_os_str() == "src") {
            continue;
        }
        let Ok(text) = fs::read_to_string(f) else {
            continue;
        };
        let label = f
            .strip_prefix(&root)
            .unwrap_or(f)
            .display()
            .to_string();
        report.extend(lint_source(&label, &text));
        scanned += 1;
        if let Ok(rel) = f.strip_prefix(&crates) {
            if let Some(krate) = rel.components().next() {
                let krate = krate.as_os_str().to_string_lossy().into_owned();
                *panic_counts.entry(krate).or_default() += panic_sites(&text);
            }
        }
    }
    report.push(Finding::new(
        "DET-000",
        Severity::Info,
        "workspace".to_owned(),
        format!(
            "determinism lint walked {scanned} source files (rules \
             DET-001/002/003)"
        ),
    ));
    report.extend(check_panic_ceilings(&panic_counts));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn det001_flags_hash_collections() {
        let src = format!("use std::collections::{}Map;\nlet m = {}Map::new();\n", "Hash", "Hash");
        let r = lint_source("mutant:det-001", &src);
        assert_eq!(r.count(Severity::Error), 2);
        assert!(r.findings.iter().all(|f| f.rule == "DET-001"));
        assert!(r.findings[0].location.ends_with(":1"));
    }

    #[test]
    fn det001_respects_det_ok_and_comments() {
        let h = format!("{}Map", "Hash");
        let annotated = format!("let m = {h}::new(); // det-ok: membership only, never iterated\n");
        assert_eq!(lint_source("x", &annotated).actionable(), 0);
        let commented = format!("// a {h} would be wrong here\n");
        assert_eq!(lint_source("x", &commented).actionable(), 0);
    }

    #[test]
    fn det002_allows_canonical_delegation_only() {
        let canonical = format!(
            "fn {pc}(&self, other: &Self) -> Option<Ordering> {{\n    Some(self.cmp(other))\n}}\n",
            pc = format_args!("{}_cmp", "partial")
        );
        assert_eq!(lint_source("x", &canonical).actionable(), 0);
        let raw = format!("xs.sort_by(|a, b| a.{}_cmp(b).unwrap());\n", "partial");
        let r = lint_source("x", &raw);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.findings[0].rule, "DET-002");
    }

    #[test]
    fn det002_flags_float_truncation() {
        let trunc = format!("let s = (n as f64).log2(){} usize;\n", " as");
        let r = lint_source("x", &trunc);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(lint_source("x", "let s = (n as f64).log2().floor() as usize;\n").actionable(), 0);
    }

    #[test]
    fn det003_flags_wall_clock_outside_telemetry() {
        let src = format!("let t = Instant::{};\n", "now()");
        let r = lint_source("crates/core/src/engine.rs", &src);
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.findings[0].rule, "DET-003");
        assert_eq!(lint_source("crates/telemetry/src/lib.rs", &src).actionable(), 0);
        let ok = format!("let t = Instant::{}; // det-ok: measures host time\n", "now()");
        assert_eq!(lint_source("crates/core/src/engine.rs", &ok).actionable(), 0);
    }

    #[test]
    fn panic001_counts_library_code_only() {
        let (u, e) = (format!(".{}()", "unwrap"), format!(".{}(", "expect"));
        let src = format!(
            "let a = x{u};\nlet b = y{e}\"why\"); // and z{u}\n// w{u}\n\
             let c = x.{}_or(0);\n#[cfg(test)]\nmod tests {{ fn t() {{ x{u}; }} }}\n",
            "unwrap"
        );
        assert_eq!(panic_sites(&src), 2);
        let at = |n: usize| BTreeMap::from([("journal".to_owned(), n), ("gpu-sim".to_owned(), 0)]);
        let journal = PANIC_CEILINGS
            .iter()
            .find(|(c, _)| *c == "journal")
            .expect("listed")
            .1;
        assert_eq!(check_panic_ceilings(&at(journal)).actionable(), 0);
        let r = check_panic_ceilings(&at(journal + 1));
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.findings[0].rule, "PANIC-001");
        assert_eq!(r.findings[0].location, "crates/journal");
        // a crate without a ceiling may have no site at all
        let unlisted = BTreeMap::from([("gpu-sim".to_owned(), 1)]);
        assert_eq!(check_panic_ceilings(&unlisted).count(Severity::Error), 1);
    }

    #[test]
    fn workspace_walk_is_clean() {
        // The repo must pass its own determinism lint: every hash
        // collection is converted and every wall-clock read annotated.
        let r = lint_workspace();
        let bad: Vec<String> = r
            .findings
            .iter()
            .filter(|f| f.severity > Severity::Info)
            .map(|f| format!("{} {}", f.location, f.rule))
            .collect();
        assert!(bad.is_empty(), "determinism hazards: {bad:?}");
    }
}
