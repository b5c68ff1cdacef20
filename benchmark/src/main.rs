//! The repo benchmark. One closed-loop, single-threaded driver runs a
//! workload's ops back to back (the engine itself fans out to at most
//! `available_parallelism()` workers), checks every output and prints
//! every metric by name with its unit.
//!
//! ```text
//! distmsm-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! distmsm-benchmark [--seed <u64>] [--seconds <s>] [--trace] [--check-agreement]
//! ```
//!
//! The first form is one run of one workload and ends with the result
//! line `BENCHMARK.json`'s driver reads. The second runs all four, each
//! in a child process so that peak memory is the workload's own.

mod host;
mod layers;
mod metrics;
mod oracle;
mod spans;
mod stats;
mod workloads;

use host::{HostClock, Timed};
use metrics::{disagreements, Metrics, RunResult, END_TO_END, PER_LAYER};
use spans::Tracer;
use std::process::{Command, ExitCode};
use workloads::Workload;

/// Seconds one run measures unless `--seconds` says otherwise
/// (`BENCHMARK.json`'s `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;
/// The seed used while a change is written.
const DEFAULT_SEED: u64 = 20_240_427;
/// The seed a performance claim must also hold on.
const HELD_OUT_SEED: u64 = 7_919;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_agreement: bool,
}

fn usage() -> String {
    format!(
        "usage: distmsm-benchmark [--workload <{}>] [--seed <u64>] [--seconds <s>] \
         [--trace [0|1]] [--check-agreement]\n\
         default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}, default seconds {DEFAULT_SECONDS}",
        workloads::NAMES.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check_agreement: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!("unknown workload `{name}`"));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                args.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--check-agreement" => args.check_agreement = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Builds the workload's inputs several times — more often the cheaper
/// they are, for about a second — and returns the median build time in
/// reference-host seconds with the last build.
fn timed_setup(name: &str, seed: u64) -> (f64, Box<dyn Workload>) {
    let mut clock = HostClock::start(1);
    let mut build = || {
        let (w, timed) = clock.time(|| workloads::build(name, seed));
        (
            timed.ref_ms(1.0) / 1e3,
            w.expect("the workload name was validated"),
        )
    };
    let (first_s, mut w) = build();
    let reps = ((1.0 / first_s) as usize).clamp(3, 15);
    let mut samples = vec![first_s];
    for _ in 1..reps {
        let (s, again) = build();
        samples.push(s);
        w = again;
    }
    (stats::median(&samples), w)
}

/// One run of one workload: the end-to-end metrics with tracing off, or
/// the per-layer metrics from a separate, shorter traced run.
fn run_workload(name: &str, seed: u64, seconds: f64, trace: bool) -> RunResult {
    let (setup_s, mut w) = timed_setup(name, seed);
    println!("# {name} {}{}", host::provenance(seed), w.derived_seeds());
    let mut failed = 0;
    for _ in 0..w.warmup_ops() {
        failed += u64::from(!w.op());
    }

    // The traced run times half as long and records every second op, so
    // that drift cancels: a quarter of the ops traced, a quarter not, and
    // the gap between them is what recording costs.
    let mut tr = Tracer::new(false);
    let budget_s = if trace { seconds / 2.0 } else { seconds };
    let ops = host::time_for(host::available_parallelism(), budget_s, |i| {
        tr.set_enabled(trace && i.is_multiple_of(2));
        tr.span("bench.op", i as u64, |_| w.op())
    });
    tr.set_enabled(trace);
    failed += ops.iter().filter(|(ok, _)| !ok).count() as u64;
    let mut attempted = (w.warmup_ops() + ops.len()) as u64;
    let timed: Vec<Timed> = ops.iter().map(|(_, t)| *t).collect();
    let p = host::parallelism(&timed);
    let ref_ms: Vec<f64> = timed.iter().map(|t| t.ref_ms(p)).collect();
    let slowdown = stats::median(&timed.iter().map(|t| t.slowdown(p)).collect::<Vec<_>>());

    let mut metrics = Metrics::default();
    let mut misses = w.oracle();
    if trace {
        let traced_ms: Vec<f64> = ref_ms.iter().copied().step_by(2).collect();
        let plain_ms: Vec<f64> = ref_ms.iter().copied().skip(1).step_by(2).collect();
        metrics.push("sim_ms", w.sim_ms(), "sim_ms");
        misses.extend(workloads::layers(w.as_ref(), &mut tr, &mut metrics, seed));
        let (hi_ms, hi_pct) = stats::hi(&traced_ms);
        metrics.push("bench.op_ms_hi", hi_ms, "ms");
        metrics.push("bench.hi_pct", hi_pct, "pct");
        metrics.push("bench.samples", traced_ms.len() as f64, "ops");
        let threads = host::available_parallelism() as f64;
        metrics.push("bench.threads", threads, "count");
        let overhead = stats::median(&traced_ms) / stats::median(&plain_ms) - 1.0;
        metrics.push("bench.trace_overhead_frac", overhead, "frac");
        metrics.push("bench.host_slowdown", slowdown, "ratio");
        write_trace(name, &tr);
        metrics
            .0
            .sort_by_key(|m| PER_LAYER.iter().position(|p| p.0 == m.name));
        let emitted: Vec<&str> = metrics.0.iter().map(|m| m.name.as_str()).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|p| p.0).collect();
        assert_eq!(
            emitted, declared,
            "the traced run must print exactly the declared per-layer metrics"
        );
    } else {
        let cpu_ms: f64 = timed.iter().map(|t| t.ref_cpu_ms(p)).sum();
        let (hi_ms, hi_pct) = stats::hi(&ref_ms);
        println!(
            "# {name} op_ms: p50 {:.3}, p{hi_pct:.0} {hi_ms:.3}, {} samples, on the reference host; \
             {p:.2} threads busy, host slowdown x{slowdown:.3} (raw p50 {:.3} ms); sim_ms {}",
            stats::median(&ref_ms),
            ref_ms.len(),
            stats::median(&timed.iter().map(|t| t.wall_ms).collect::<Vec<_>>()),
            w.sim_ms(),
        );
        metrics.push("op_ms_p50", stats::median(&ref_ms), "ms");
        metrics.push("cpu_ms_per_op", cpu_ms / ref_ms.len() as f64, "ms");
        metrics.push("peak_rss_mb", host::peak_rss_mb(), "MB");
        metrics.push("setup_s", setup_s, "s");
    }
    for miss in &misses {
        println!("# {name} OUTPUT CHECK FAILED: {miss}");
    }
    // a miss outside the timed loop fails the run even if every op agreed
    failed += misses.len() as u64;
    attempted += misses.len() as u64;
    RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    }
}

fn write_trace(name: &str, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace.{name}.json"));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, spans::to_chrome_trace(name, tr.spans())));
    match written {
        Ok(()) => println!(
            "# {name} {} spans written to {}",
            tr.spans().len(),
            path.display()
        ),
        Err(e) => println!("# {name} could not write {}: {e}", path.display()),
    }
}

/// Runs one workload in a child process and parses its result line.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .ok_or(format!("the {name} run printed nothing"))?;
    for line in lines {
        println!("{line}");
    }
    RunResult::from_json_line(last).map_err(|e| format!("{name}: {e}"))
}

/// All four workloads once: end-to-end metrics, then (with `--trace`)
/// per-layer metrics, printed by name with units.
fn run_suite(args: &Args) -> Result<Vec<(String, RunResult)>, String> {
    let mut results = Vec::new();
    for name in workloads::NAMES {
        // the agreement check compares exact metrics, which the traced runs print
        let traced = args.trace || args.check_agreement;
        let traces: &[bool] = if traced { &[false, true] } else { &[false] };
        for &trace in traces {
            let r = run_child(name, args, trace)?;
            println!(
                "{name}{}: correct={} failed_frac={} ({} of {} ops)",
                if trace { " (traced)" } else { "" },
                r.correct,
                r.failed as f64 / r.attempted as f64,
                r.failed,
                r.attempted
            );
            for m in &r.metrics.0 {
                println!("  {:<44} {:>22} {}", m.name, m.value, m.unit);
            }
            results.push((format!("{name}{}", if trace { "/traced" } else { "" }), r));
        }
    }
    Ok(results)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        let result = run_workload(name, args.seed, args.seconds, args.trace);
        println!("{}", result.to_json_line());
        return if result.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    match run_suites(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The suite once, or twice with `--check-agreement`; `Ok(false)` when an
/// output check failed or the two sets disagree.
fn run_suites(args: &Args) -> Result<bool, String> {
    let bounds = END_TO_END.map(|e| {
        let (better, pct) = (e.better.label(), 100.0 * e.bound);
        format!("{} ({better} is better) {pct:.0}%", e.name)
    });
    println!("# end-to-end bounds: {}", bounds.join(", "));
    let first = run_suite(args)?;
    let mut ok = first.iter().all(|(_, r)| r.correct);
    if args.check_agreement {
        println!("# second set of runs, for agreement");
        let second = run_suite(args)?;
        ok &= second.iter().all(|(_, r)| r.correct);
        for ((name, a), (_, b)) in first.iter().zip(&second) {
            for line in disagreements(a, b) {
                println!("DISAGREEMENT {name}: {line}");
                ok = false;
            }
        }
        let verdict = if ok {
            "both sets agree within the bounds"
        } else {
            "FAILED"
        };
        println!("agreement: {verdict}");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_and_suite_command_lines_parse() {
        let a = parse("--workload fleet_serve --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("fleet_serve"), 9, 2.5, true)
        );
        let a = parse("--trace 0 --seed 3").unwrap();
        assert!(!a.trace && a.workload.is_none() && a.seed == 3);
        let a = parse("--trace --check-agreement").unwrap();
        assert!(
            a.trace && a.check_agreement && a.seed == DEFAULT_SEED && a.seconds == DEFAULT_SECONDS
        );
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }
}
