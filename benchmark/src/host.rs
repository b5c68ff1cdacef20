//! What the harness reads from the host: process CPU time, peak resident
//! set, core counts, how fast the host is running right now, and the
//! provenance stamped into every report.
//!
//! The sandbox's vCPUs share physical cores with other tenants, and for
//! minutes at a time the same code runs up to 1.5x slower (user time
//! inflates with it; sys time, page faults and steal stay flat). A
//! latency-bound loop does not see it, a throughput-bound one does — and
//! a 256-bit Montgomery multiplication loop slows by the same factor as
//! the library's ops (log-log slope 1.05 over 47 fifteen-second windows,
//! against 0.81 for bare multiplies). Two threads slow differently from
//! one: while `fleet_serve`, a one-thread op, held within 5 %, the
//! two-thread probe swung between 1.5x and 2.3x.
//!
//! So every host-clock time is divided by the slowdown of such a probe,
//! run right before and after it, on one thread and on as many as the
//! engine fans out to, the two mixed by how parallel the timed work was.
//! Times then read in milliseconds of a *reference host*, the idle
//! sandbox: a lone thread runs the probe in [`PROBE_REFERENCE_MS`] and
//! all threads at once in [`PROBE_REFERENCE_ALL_MS`]. The probe is this
//! file's own code: a change to the library cannot move it.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// fixed `USER_HZ` at 100 on every architecture since 2.6.
const USER_HZ: f64 = 100.0;

/// User + system CPU milliseconds this process has used, over all of its
/// threads, including threads that already exited.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // the command name (field 2) may contain spaces; fields resume after ")"
    let rest = stat.rsplit_once(')').expect("stat has a command field").1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so utime (14) and stime (15) are 11 and 12
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) * 1e3 / USER_HZ
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// BN254's base-field modulus, little-endian limbs, and `−p⁻¹ mod 2^64`.
const PROBE_MODULUS: [u64; 4] = [
    0x3c20_8c16_d87c_fd47,
    0x9781_6a91_6871_ca8d,
    0xb850_45b6_8181_585d,
    0x3064_4e72_e131_a029,
];
const PROBE_INV: u64 = 0x87d2_0782_e486_6389;

/// What the probe takes on the reference host with one thread busy, in
/// ms: what it takes on the idle sandbox, so that reference-host
/// milliseconds read like the idle sandbox's wall-clock milliseconds.
pub const PROBE_REFERENCE_MS: f64 = 1.0;

/// The same with every worker thread running the probe at once: the two
/// vCPUs share one core's multiplier, which the probe saturates and the
/// library's ops do not (their two-thread CPU time matches a one-thread
/// replay's to within 1 % when the sandbox is idle).
pub const PROBE_REFERENCE_ALL_MS: f64 = 1.18;

/// Montgomery product `a·b·2⁻²⁵⁶ mod p` (CIOS, without the final
/// conditional subtraction: the probe needs the instruction mix, not a
/// canonical residue).
#[inline(always)]
fn probe_mont_mul(a: &[u64; 4], b: &[u64; 4]) -> [u64; 4] {
    let mut t = [0u64; 6];
    for bi in b {
        let mut carry = 0u128;
        for j in 0..4 {
            let v = u128::from(t[j]) + u128::from(a[j]) * u128::from(*bi) + carry;
            t[j] = v as u64;
            carry = v >> 64;
        }
        let v = u128::from(t[4]) + carry;
        t[4] = v as u64;
        t[5] = (v >> 64) as u64;
        let m = t[0].wrapping_mul(PROBE_INV);
        let mut carry = (u128::from(t[0]) + u128::from(m) * u128::from(PROBE_MODULUS[0])) >> 64;
        for j in 1..4 {
            let v = u128::from(t[j]) + u128::from(m) * u128::from(PROBE_MODULUS[j]) + carry;
            t[j - 1] = v as u64;
            carry = v >> 64;
        }
        let v = u128::from(t[4]) + carry;
        t[3] = v as u64;
        t[4] = t[5].wrapping_add((v >> 64) as u64);
    }
    [t[0], t[1], t[2], t[3]]
}

/// Two independent chains of 25 000 Montgomery multiplications: the
/// instruction-level parallelism of a curve formula, for about a ms.
#[inline(never)]
fn probe_kernel() -> u64 {
    let mut x = black_box([1u64, 2, 3, 4]);
    let mut y = black_box([5u64, 6, 7, 8]);
    let k = black_box([0x9e37_79b9_7f4a_7c15u64, 11, 13, 0x1234_5678]);
    for _ in 0..25_000 {
        x = probe_mont_mul(&x, &k);
        y = probe_mont_mul(&y, &k);
    }
    x[0] ^ y[3]
}

/// Wall ms of the probe kernel on `threads` threads at once (on the
/// calling thread when that is one).
fn probe_ms(threads: usize) -> f64 {
    let t = Instant::now();
    if threads == 1 {
        black_box(probe_kernel());
    } else {
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| black_box(probe_kernel()));
            }
        });
    }
    t.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the reference host `threads` busy threads run
/// right now: the median of at least three probes, and of as many as fit
/// in `min_ms`.
fn slowdown_now(threads: usize, min_ms: f64) -> f64 {
    let start = Instant::now();
    let mut probes = Vec::new();
    while probes.len() < 3 || start.elapsed().as_secs_f64() * 1e3 < min_ms {
        probes.push(probe_ms(threads));
    }
    let reference_ms = if threads == 1 {
        PROBE_REFERENCE_MS
    } else {
        PROBE_REFERENCE_ALL_MS
    };
    crate::stats::median(&probes) / reference_ms
}

/// One timed piece of work: what it took on this host, and how slow the
/// host was around it (means of the probes right before and right after).
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Wall ms as measured.
    pub wall_ms: f64,
    /// Process CPU ms as measured (10 ms ticks: sum many before use).
    pub cpu_ms: f64,
    /// Host slowdown with one thread busy.
    pub slowdown_1: f64,
    /// Host slowdown with `threads` threads busy.
    pub slowdown_n: f64,
    /// The clock's thread count.
    pub threads: usize,
}

impl Timed {
    /// Host slowdown for work that keeps `parallelism` threads busy on
    /// average (CPU time over wall time): that share of the wall time ran
    /// on all threads and the rest on one.
    pub fn slowdown(&self, parallelism: f64) -> f64 {
        if self.threads == 1 {
            return self.slowdown_1;
        }
        let on_all = ((parallelism - 1.0) / (self.threads - 1) as f64).clamp(0.0, 1.0);
        (1.0 - on_all) * self.slowdown_1 + on_all * self.slowdown_n
    }

    /// Wall ms on the reference host.
    pub fn ref_ms(&self, parallelism: f64) -> f64 {
        self.wall_ms / self.slowdown(parallelism)
    }

    /// CPU ms on the reference host.
    pub fn ref_cpu_ms(&self, parallelism: f64) -> f64 {
        self.cpu_ms / self.slowdown(parallelism)
    }

    /// Wall ms on the reference host, by this piece's own parallelism
    /// (for single pieces long enough that CPU ticks resolve it).
    pub fn own_ref_ms(&self) -> f64 {
        self.ref_ms(parallelism(&[*self]))
    }
}

/// CPU time over wall time of a series of timed pieces: how many threads
/// the work kept busy on average.
pub fn parallelism(timed: &[Timed]) -> f64 {
    let cpu: f64 = timed.iter().map(|t| t.cpu_ms).sum();
    let wall: f64 = timed.iter().map(|t| t.wall_ms).sum();
    (cpu / wall).max(1.0)
}

/// Times successive pieces of work, probing the host between them: each
/// probe serves as the "after" of one piece and the "before" of the next,
/// and lasts at least 2 % of the piece it follows.
pub struct HostClock {
    threads: usize,
    before: (f64, f64),
}

impl HostClock {
    /// A clock for work that fans out to at most `threads` threads;
    /// probes the host once to start.
    pub fn start(threads: usize) -> Self {
        let mut clock = Self {
            threads,
            before: (0.0, 0.0),
        };
        clock.before = clock.probe(0.0);
        clock
    }

    /// `(one thread, all threads)` slowdowns now. The threaded probes run
    /// first: the CPU time of a thread is credited to the process a moment
    /// after it is joined, and must not leak into the next piece's.
    fn probe(&self, min_ms: f64) -> (f64, f64) {
        if self.threads == 1 {
            let one = slowdown_now(1, min_ms);
            return (one, one);
        }
        let all = slowdown_now(self.threads, min_ms / 2.0);
        (slowdown_now(1, min_ms / 2.0), all)
    }

    /// Runs and times `f`.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let cpu0 = process_cpu_ms();
        let t = Instant::now();
        let out = f();
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = process_cpu_ms() - cpu0;
        let after = self.probe(wall_ms * 0.02);
        let timed = Timed {
            wall_ms,
            cpu_ms,
            slowdown_1: (self.before.0 + after.0) / 2.0,
            slowdown_n: (self.before.1 + after.1) / 2.0,
            threads: self.threads,
        };
        self.before = after;
        (out, timed)
    }
}

/// Calls `f(0)`, `f(1)`, … until `seconds` have passed (at least three
/// times), timing each call on a clock for work that fans out to at most
/// `threads` threads.
pub fn time_for<T>(threads: usize, seconds: f64, mut f: impl FnMut(usize) -> T) -> Vec<(T, Timed)> {
    let mut clock = HostClock::start(threads);
    let mut calls = Vec::new();
    let start = Instant::now();
    while calls.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let i = calls.len();
        calls.push(clock.time(|| f(i)));
    }
    calls
}

/// Worker threads the engine fans out to.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Processors listed in `/proc/cpuinfo` (what `nproc --all` prints).
fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// First line `cmd` prints, run in the benchmark's directory; `git` may
/// look no further up than the checkout that holds it.
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    let checkout = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Command::new(cmd)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .env("GIT_CEILING_DIRECTORIES", checkout.join(".."))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// One line naming the host, toolchain, revision and seed of a run.
pub fn provenance(seed: u64) -> String {
    format!(
        "nproc={} available_parallelism={} rustc=\"{}\" git={} seed={seed}",
        nproc(),
        available_parallelism(),
        first_line_of("rustc", &["-V"]),
        first_line_of("git", &["rev-parse", "HEAD"]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_multiplies_like_the_library() {
        use distmsm_ff::mont::mont_mul_cios;
        use distmsm_ff::params::Bn254Fq;
        use distmsm_ff::{FpParams, Uint};
        assert_eq!(Bn254Fq::MODULUS.0, PROBE_MODULUS);
        assert_eq!(Bn254Fq::INV, PROBE_INV);
        let (a, b) = (
            [7u64, 11, 13, 17],
            [0x9e37_79b9_7f4a_7c15u64, 3, 5, 1 << 60],
        );
        let ours = Uint(probe_mont_mul(&a, &b));
        let theirs = mont_mul_cios(&Uint(a), &Uint(b), &Bn254Fq::MODULUS, Bn254Fq::INV);
        // equal up to the conditional subtraction the probe leaves out
        assert!(ours == theirs || ours.borrowing_sub(&Uint(PROBE_MODULUS)).0 == theirs);
    }

    #[test]
    fn slowdown_mixes_one_and_all_threads_by_parallelism() {
        let timed = |threads| Timed {
            wall_ms: 100.0,
            cpu_ms: 150.0,
            slowdown_1: 1.0,
            slowdown_n: 2.0,
            threads,
        };
        let two = timed(2);
        assert_eq!(two.slowdown(1.0), 1.0);
        assert_eq!(two.slowdown(1.5), 1.5);
        assert_eq!(two.slowdown(2.0), 2.0);
        assert_eq!(two.slowdown(0.7), 1.0, "clamped below");
        assert_eq!(two.slowdown(2.3), 2.0, "clamped above");
        assert_eq!(timed(4).slowdown(2.5), 1.5);
        assert_eq!(timed(1).slowdown(3.0), 1.0);
        assert_eq!(two.ref_ms(1.5), 100.0 / 1.5);
        assert_eq!(two.ref_cpu_ms(2.0), 75.0);
        assert_eq!(parallelism(&[two, two]), 1.5);
    }

    #[test]
    fn clock_times_and_probes() {
        for threads in [1, 2] {
            let mut clock = HostClock::start(threads);
            let (v, timed) = clock.time(|| {
                std::thread::sleep(std::time::Duration::from_millis(5));
                42
            });
            assert_eq!(v, 42);
            assert!(timed.wall_ms >= 5.0 && timed.slowdown_1 > 0.0 && timed.slowdown_n > 0.0);
        }
    }

    #[test]
    fn cpu_time_advances_and_rss_is_positive() {
        let before = process_cpu_ms();
        let mut x = 1u64;
        while process_cpu_ms() - before < 20.0 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
            }
        }
        assert!(peak_rss_mb() > 0.5);
        assert!(available_parallelism() >= 1);
    }
}
