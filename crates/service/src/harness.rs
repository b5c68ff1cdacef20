//! The one soak harness under every soak in the workspace (`soak`,
//! `fleet_soak`, `crash_soak`, `partition_soak`): the shared vocabulary
//! ([`Violation`], [`Violations`], [`Run`]), the exactly-once /
//! conservation / starvation-bound [`Ledger`], the bit-exact check, the
//! seeded arrival-trace generator, and the [`Scenario`] trait with its
//! two generic consumers — [`shrink`] here and
//! `distmsm_bench::soak_main`.
//!
//! A new scenario costs its spec (whose field listing also yields its
//! CLI and its shrink candidates) and its event `match` feeding the
//! ledger (DESIGN.md §20).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::str::FromStr;

use distmsm::engine::DistMsm;
use distmsm_ec::curves::Bn254G1;
use distmsm_ec::{MsmInstance, XyzzPoint};
use distmsm_gpu_sim::fault::splitmix64;
use distmsm_gpu_sim::MultiGpuSystem;
use rand::{rngs::StdRng, SeedableRng};

use crate::job::{JobClass, JobSpec};

/// One detected invariant violation, from any soak.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Stable invariant id (each scenario documents its own; DESIGN.md
    /// §20 tabulates them all).
    pub invariant: &'static str,
    /// What went wrong.
    pub detail: String,
}

/// The violations one check or one whole run collected, in detection
/// order. Derefs to a slice for reading.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Violations(Vec<Violation>);

impl Violations {
    /// Records one violation.
    pub fn fail(&mut self, invariant: &'static str, detail: String) {
        self.0.push(Violation { invariant, detail });
    }

    /// Re-files every violation of an inner check under `invariant`,
    /// keeping the inner id in the detail (`"{what}: {id}: {detail}"`).
    pub fn nest(&mut self, invariant: &'static str, what: &str, inner: Violations) {
        for v in inner {
            self.fail(invariant, format!("{what}: {}: {}", v.invariant, v.detail));
        }
    }

    /// Absorbs an inner check's violations under their own ids, each
    /// detail prefixed with where it happened (`"{what}: {detail}"`).
    pub fn within(&mut self, what: &str, inner: Violations) {
        for v in inner {
            self.fail(v.invariant, format!("{what}: {}", v.detail));
        }
    }
}

impl std::ops::Deref for Violations {
    type Target = [Violation];

    fn deref(&self) -> &[Violation] {
        &self.0
    }
}

impl IntoIterator for Violations {
    type Item = Violation;
    type IntoIter = std::vec::IntoIter<Violation>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.into_iter()
    }
}

/// The outcome of one soak run.
#[derive(Clone, Debug, Default)]
pub struct Run<R> {
    /// The scenario's byte-stable report (the golden-file surface).
    pub report: R,
    /// Detected invariant violations (empty on a healthy run).
    pub violations: Violations,
    /// Events replayed through the invariant checks.
    pub n_events: usize,
}

/// The arrival trace indexed by job id.
pub type ById<'a> = BTreeMap<u64, &'a JobSpec<Bn254G1>>;

/// Indexes an arrival trace by job id.
pub fn by_id(jobs: &[JobSpec<Bn254G1>]) -> ById<'_> {
    jobs.iter().map(|j| (j.id, j)).collect()
}

fn unit(state: &mut u64) -> f64 {
    splitmix64(state) as f64 / u64::MAX as f64
}

/// Builds a seeded arrival trace: bursty Poisson-like arrivals (five
/// tightly-packed jobs, then exponential gaps) of mixed-class,
/// mixed-size MSM jobs. `salts` separate the PRNG stream and the
/// per-job instance seeds of different soaks; `n_tenants` is the tenant
/// rule — `Some(n)` spends one extra draw per job on a uniform tenant,
/// `None` keys the tenant on the class (interactive 0, batch 1).
///
/// Prefix-stable: job `i` consumes a fixed number of PRNG draws, its
/// instance is seeded per-id and pacing depends on the horizon only —
/// never on `n_jobs` — so shrinking `n_jobs` keeps every surviving job
/// identical.
pub fn arrival_trace(
    seed: u64,
    [stream_salt, instance_salt]: [u64; 2],
    n_jobs: usize,
    horizon_s: f64,
    msm_size: usize,
    n_tenants: Option<usize>,
) -> Vec<JobSpec<Bn254G1>> {
    let mut state = seed ^ stream_salt;
    let mean_long_gap = horizon_s / 150.0;
    let half = (msm_size / 2).max(1);
    let mut t = 0.0;
    (0..n_jobs)
        .map(|i| {
            let u_gap = unit(&mut state);
            let tenant_draw = n_tenants.map(|n| (splitmix64(&mut state) % n as u64) as usize);
            let u_class = unit(&mut state);
            let u_deadline = unit(&mut state);
            let u_size = unit(&mut state);
            t += if i % 8 < 5 {
                // Burst: arrivals far tighter than a service time.
                0.0002 + 0.0018 * u_gap
            } else {
                -((u_gap.max(1e-12)).ln()) * mean_long_gap
            };
            let class = if u_class < 0.6 { JobClass::Interactive } else { JobClass::Batch };
            let deadline_s = match class {
                JobClass::Interactive => Some(t + 0.05 + 0.45 * u_deadline),
                JobClass::Batch => None,
            };
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(instance_salt + i as u64));
            JobSpec {
                id: i as u64,
                tenant: tenant_draw.unwrap_or(usize::from(class == JobClass::Batch)),
                class,
                arrival_s: t,
                deadline_s,
                instance: MsmInstance::random(half + (u_size * half as f64) as usize, &mut rng),
            }
        })
        .collect()
}

/// The invariant ids a [`Ledger`] files its findings under.
#[derive(Clone, Copy, Debug)]
pub struct LedgerIds {
    /// Every admitted job terminates exactly once.
    pub exactly_once: &'static str,
    /// `admitted ≥ terminated` at every prefix, equal at the end.
    pub conservation: &'static str,
    /// No queue epoch outlasts its class bound.
    pub starvation_bound: &'static str,
}

impl LedgerIds {
    /// The pod-level ids of `soak`.
    pub const SERVICE: Self = Self {
        exactly_once: "exactly-once",
        conservation: "conservation",
        starvation_bound: "starvation-bound",
    };
    /// The fleet-scope ids of `fleet_soak`.
    pub const FLEET: Self = Self {
        exactly_once: "fleet-exactly-once",
        conservation: "fleet-conservation",
        starvation_bound: "fleet-starvation-bound",
    };
}

/// The exactly-once / conservation / starvation-bound replay. A
/// scenario *feeds* it from its own event `match` — which events admit,
/// requeue, dispatch or terminate a job, and which terminal kinds close
/// a queue epoch, stay the scenario's decision — then calls
/// [`Ledger::check_prefix`] after every event and [`Ledger::finish`]
/// at the end of the stream.
pub struct Ledger<'a> {
    ids: LedgerIds,
    by_id: &'a ById<'a>,
    admitted: i64,
    terminated: i64,
    terminal_count: BTreeMap<u64, u32>,
    admitted_ids: BTreeSet<u64>,
    /// Open queue epochs: job → epoch start.
    queued_since: BTreeMap<u64, f64>,
}

impl<'a> Ledger<'a> {
    /// An empty ledger over one arrival trace.
    pub fn new(ids: LedgerIds, by_id: &'a ById<'a>) -> Self {
        Self {
            ids,
            by_id,
            admitted: 0,
            terminated: 0,
            terminal_count: BTreeMap::new(),
            admitted_ids: BTreeSet::new(),
            queued_since: BTreeMap::new(),
        }
    }

    /// A job passed admission and entered a queue.
    pub fn admit(&mut self, job: Option<u64>, t_s: f64) {
        self.admitted += 1;
        self.admitted_ids.insert(job.unwrap_or(u64::MAX));
        self.requeue(job, t_s);
    }

    /// A job (re-)entered a queue: a fresh epoch starts at `t_s`.
    pub fn requeue(&mut self, job: Option<u64>, t_s: f64) {
        if let Some(id) = job {
            self.queued_since.insert(id, t_s);
        }
    }

    /// A job left its queue for a device: closes its open epoch against
    /// the class bound.
    pub fn dispatch(&mut self, v: &mut Violations, job: Option<u64>, t_s: f64) {
        const EPS: f64 = 1e-6;
        let Some(id) = job else { return };
        let Some(since) = self.queued_since.remove(&id) else { return };
        let Some(spec) = self.by_id.get(&id) else { return };
        let bound = spec.class.bound_s();
        let waited = t_s - since;
        if waited > bound + EPS {
            v.fail(
                self.ids.starvation_bound,
                format!(
                    "{} job {id} waited {waited:.3}s in queue, past its {bound:.3}s bound",
                    spec.class.label()
                ),
            );
        }
    }

    /// A job reached a terminal state; `closes_epoch` when that state
    /// is reached *from the queue* (a shed, say), so the wait counts.
    pub fn terminate(&mut self, v: &mut Violations, job: Option<u64>, t_s: f64, closes_epoch: bool) {
        self.terminated += 1;
        if let Some(id) = job {
            *self.terminal_count.entry(id).or_insert(0) += 1;
            if closes_epoch {
                self.dispatch(v, job, t_s);
            }
        }
    }

    /// The per-prefix conservation check, after each event.
    pub fn check_prefix(&self, v: &mut Violations, t_s: f64) {
        if self.admitted < self.terminated {
            v.fail(
                self.ids.conservation,
                format!(
                    "at t={t_s}: {} terminations exceed {} admissions",
                    self.terminated, self.admitted
                ),
            );
        }
    }

    /// End of stream: in-flight must have drained to zero and every
    /// admitted job must have terminated exactly once.
    pub fn finish(self, v: &mut Violations) {
        if self.admitted != self.terminated {
            v.fail(
                self.ids.conservation,
                format!(
                    "run ended with {} jobs admitted but {} terminated",
                    self.admitted, self.terminated
                ),
            );
        }
        for id in &self.admitted_ids {
            match self.terminal_count.get(id).copied().unwrap_or(0) {
                1 => {}
                n => v.fail(
                    self.ids.exactly_once,
                    format!("admitted job {id} reached {n} terminal states"),
                ),
            }
        }
    }
}

/// Checks every `(job id, returned MSM value)` against the fault-free
/// single-GPU reference for that job's instance (affine-canonical
/// compare).
pub fn bit_exact<'r>(
    v: &mut Violations,
    invariant: &'static str,
    by_id: &ById<'_>,
    results: impl Iterator<Item = (u64, &'r XyzzPoint<Bn254G1>)>,
) {
    let reference = DistMsm::new(MultiGpuSystem::dgx_a100(1));
    for (id, result) in results {
        let Some(job) = by_id.get(&id) else {
            v.fail(invariant, format!("finished job {id} is not in the arrival trace"));
            continue;
        };
        let expect = reference
            .execute(&job.instance)
            .expect("fault-free reference execution succeeds");
        if expect.result.to_affine() != result.to_affine() {
            v.fail(invariant, format!("job {id} finished with a wrong MSM value"));
        }
    }
}

/// Extracts the value of `--flag value` or `--flag=value`.
///
/// # Panics
///
/// Panics when the flag is present without a value.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            return Some(it.next().unwrap_or_else(|| panic!("{flag} requires a value")).clone());
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_owned());
        }
    }
    None
}

/// True when the boolean switch `flag` is present.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// One walk over a spec's fields: rendering them as CLI flags,
/// overriding them from an argument list, or shrinking one of them — a
/// spec lists each field once in [`Scenario::flags`] and gets
/// [`Scenario::cli`], its inverse [`Scenario::from_args`] and
/// [`Scenario::shrink_candidates`] from the same listing.
pub struct Flags<'a> {
    walk: Walk<'a>,
    prefix: String,
    out: Vec<String>,
}

enum Walk<'a> {
    Render,
    Parse(&'a [String]),
    /// Apply the `skip`-th smaller value the walk meets, then stop.
    Shrink { skip: usize, applied: bool },
}

/// A field value the shrinker can reduce: its smaller candidates, in
/// the order they are tried (halving first, the cheapest big step).
pub trait Shrink: Copy + PartialOrd {
    /// Strictly smaller values of `self` (called only above the floor).
    fn smaller(self) -> Vec<Self>;
}

impl Shrink for usize {
    fn smaller(self) -> Vec<Self> {
        vec![self / 2, self - 1]
    }
}

impl Shrink for f64 {
    fn smaller(self) -> Vec<Self> {
        vec![self / 2.0]
    }
}

/// Parses `--flag`'s value when present.
///
/// # Panics
///
/// Panics on an unparsable value (a CLI typo should fail loudly, not
/// silently soak the wrong spec).
fn parsed<T: FromStr>(args: &[String], flag: &str) -> Option<T> {
    flag_value(args, flag).map(|v| v.parse().unwrap_or_else(|_| panic!("bad {flag} value {v}")))
}

impl<'a> Flags<'a> {
    fn new(walk: Walk<'a>) -> Self {
        Self { walk, prefix: String::new(), out: Vec::new() }
    }

    /// In a shrink walk, offers the candidates `smaller` for one field:
    /// applies the one the walk is looking for, if it is among them.
    fn offer<T: Copy>(&mut self, value: &mut T, smaller: &[T]) {
        if let Walk::Shrink { skip, applied: applied @ false } = &mut self.walk {
            match smaller.get(*skip) {
                Some(&v) => {
                    *value = v;
                    *applied = true;
                }
                None => *skip -= smaller.len(),
            }
        }
    }

    /// A required field: `--<name> <value>`.
    pub fn field<T: FromStr + Display>(&mut self, name: &str, value: &mut T) {
        let flag = format!("--{}{name}", self.prefix);
        match &mut self.walk {
            Walk::Render => self.out.push(format!("{flag} {value}")),
            Walk::Parse(args) => {
                if let Some(v) = parsed(args, &flag) {
                    *value = v;
                }
            }
            Walk::Shrink { .. } => {}
        }
    }

    /// A required field the shrinker may reduce while it is above
    /// `floor` (below it the scenario is meaningless or cannot run).
    pub fn shrinking<T>(&mut self, name: &str, value: &mut T, floor: T)
    where
        T: FromStr + Display + Shrink,
    {
        let mut smaller = if *value > floor { value.smaller() } else { Vec::new() };
        smaller.dedup();
        self.offer(value, &smaller);
        self.field(name, value);
    }

    /// An optional field: `--<name> <value>` sets it, `--no-<name>`
    /// clears it (and is what a `None` renders as, so a reproducer
    /// never inherits the base spec's value). The shrinker clears it.
    pub fn optional(&mut self, name: &str, value: &mut Option<usize>) {
        let flag = format!("--{}{name}", self.prefix);
        let no_flag = format!("--no-{}{name}", self.prefix);
        let cleared: &[Option<usize>] = if value.is_some() { &[None] } else { &[] };
        self.offer(value, cleared);
        match &mut self.walk {
            Walk::Render => self.out.push(value.map_or(no_flag, |v| format!("{flag} {v}"))),
            Walk::Parse(args) if has_flag(args, &no_flag) => *value = None,
            Walk::Parse(args) => *value = parsed(args, &flag).or(*value),
            Walk::Shrink { .. } => {}
        }
    }

    /// A nested spec, its flags under `--<prefix>-*`.
    pub fn nested(&mut self, prefix: &str, spec: &mut impl Scenario) {
        let outer = self.prefix.clone();
        self.prefix = format!("{outer}{prefix}-");
        spec.flags(self);
        self.prefix = outer;
    }
}

/// One soak scenario: a spec that fully determines a run (two equal
/// specs produce byte-identical runs). The trait exists for its two
/// generic consumers, [`shrink`] and `distmsm_bench::soak_main`.
pub trait Scenario: Clone + PartialEq {
    /// The byte-stable report a run produces.
    type Report;
    /// The soak binary's name (`"soak"`, `"fleet_soak"`, ...).
    const NAME: &'static str;

    /// The bounded CI scenario.
    fn smoke() -> Self;
    /// The acceptance-scale scenario.
    fn full() -> Self;
    /// Lists every field of the spec, once, for both [`Scenario::cli`]
    /// and [`Scenario::from_args`].
    fn flags(&mut self, f: &mut Flags<'_>);
    /// Runs the scenario end to end and checks its invariants.
    fn run(&self) -> Run<Self::Report>;
    /// The human-readable report.
    fn render(report: &Self::Report) -> String;
    /// The byte-stable JSON a golden file pins.
    fn golden_json(report: &Self::Report) -> String;

    /// Strictly smaller specs to try in one shrink round: each one
    /// changes one field [`Scenario::flags`] marks as shrinking (a
    /// [`Flags::shrinking`] value halved or decremented, an
    /// [`Flags::optional`] cleared), in listing order.
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for skip in 0.. {
            let mut candidate = self.clone();
            let mut f = Flags::new(Walk::Shrink { skip, applied: false });
            candidate.flags(&mut f);
            if !matches!(f.walk, Walk::Shrink { applied: true, .. }) {
                break;
            }
            if candidate != *self && !out.contains(&candidate) {
                out.push(candidate);
            }
        }
        out
    }

    /// The spec as the binary's flags — the single rendering of a spec.
    /// Every field is emitted, so the line replays the same run from
    /// either base.
    fn cli(&self) -> String {
        let mut f = Flags::new(Walk::Render);
        self.clone().flags(&mut f);
        f.out.join(" ")
    }

    /// The inverse of [`Scenario::cli`]: `--smoke` selects the base
    /// spec (default [`Scenario::full`]), every other flag overrides
    /// one field.
    fn from_args(args: &[String]) -> Self {
        let mut spec = if has_flag(args, "--smoke") { Self::smoke() } else { Self::full() };
        spec.flags(&mut Flags::new(Walk::Parse(args)));
        spec
    }
}

/// Greedily shrinks a violating spec to a minimal reproducer: tries the
/// scenario's [`Scenario::shrink_candidates`] in order and keeps any
/// that still violates **the same invariant** as the original failure
/// (so shrinking cannot drift onto an unrelated violation), until a
/// fixpoint or `max_runs` candidate executions. `run` is how a spec is
/// executed — [`Scenario::run`] in production, a sabotaging wrapper in
/// tests.
///
/// Returns the minimal spec and its run, or `None` for a healthy spec.
pub fn shrink<S: Scenario>(
    spec: &S,
    run: impl Fn(&S) -> Run<S::Report>,
    max_runs: usize,
) -> Option<(S, Run<S::Report>)> {
    let mut current = (spec.clone(), run(spec));
    let target = current.1.violations.first()?.invariant;
    let mut runs = 0;
    'outer: loop {
        for candidate in current.0.shrink_candidates() {
            if runs >= max_runs {
                break 'outer;
            }
            runs += 1;
            let c_run = run(&candidate);
            if c_run.violations.iter().any(|v| v.invariant == target) {
                current = (candidate, c_run);
                continue 'outer;
            }
        }
        break;
    }
    Some(current)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;

    /// A scenario with no service behind it: violates `a-big` while
    /// `a ≥ 5` and `b-odd` while `b` is odd.
    #[derive(Clone, Debug, PartialEq)]
    struct Toy {
        a: usize,
        b: usize,
        probe: Option<usize>,
    }

    impl Scenario for Toy {
        type Report = ();
        const NAME: &'static str = "toy";

        fn smoke() -> Self {
            Self { a: 8, b: 3, probe: Some(2) }
        }

        fn full() -> Self {
            Self { a: 1, b: 0, probe: None }
        }

        fn flags(&mut self, f: &mut Flags<'_>) {
            f.shrinking("a", &mut self.a, 0);
            f.shrinking("b", &mut self.b, 0);
            f.optional("probe", &mut self.probe);
        }

        fn run(&self) -> Run<()> {
            let mut run = Run::default();
            if self.a >= 5 {
                run.violations.fail("a-big", format!("a={}", self.a));
            }
            if self.b % 2 == 1 {
                run.violations.fail("b-odd", format!("b={}", self.b));
            }
            run
        }

        fn render(_: &()) -> String {
            String::new()
        }

        fn golden_json(_: &()) -> String {
            "{}".into()
        }
    }

    /// A nested spec, to pin the `--<prefix>-*` flag form.
    #[derive(Clone, Debug, PartialEq)]
    struct Outer {
        inner: Toy,
        scale: f64,
    }

    impl Scenario for Outer {
        type Report = ();
        const NAME: &'static str = "outer";

        fn smoke() -> Self {
            Self { inner: Toy::smoke(), scale: 0.5 }
        }

        fn full() -> Self {
            Self { inner: Toy::full(), scale: 2.0 }
        }

        fn flags(&mut self, f: &mut Flags<'_>) {
            f.nested("inner", &mut self.inner);
            f.field("scale", &mut self.scale);
        }

        fn run(&self) -> Run<()> {
            self.inner.run()
        }

        fn render(_: &()) -> String {
            String::new()
        }

        fn golden_json(_: &()) -> String {
            "{}".into()
        }
    }

    fn ids(v: &Violations) -> Vec<&'static str> {
        v.iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn shrink_candidates_come_from_the_flag_listing() {
        let toy = Toy { a: 8, b: 1, probe: Some(2) };
        let got = toy.shrink_candidates();
        let want = [
            Toy { a: 4, ..toy.clone() },
            Toy { a: 7, ..toy.clone() },
            Toy { b: 0, ..toy.clone() },
            Toy { probe: None, ..toy.clone() },
        ];
        assert_eq!(got, want, "halve then decrement each shrinking field, then clear the optional");
        let floor = Toy { a: 0, b: 0, probe: None };
        assert!(floor.shrink_candidates().is_empty(), "nothing is above its floor");
        let outer = Outer { inner: Toy { a: 1, b: 0, probe: None }, scale: 0.5 };
        let nested = outer.shrink_candidates();
        assert_eq!(nested, [Outer { inner: Toy { a: 0, b: 0, probe: None }, scale: 0.5 }]);
    }

    #[test]
    fn shrink_keeps_only_candidates_violating_the_same_invariant() {
        // a=4 still violates `b-odd`, but the target is `a-big`: the
        // shrinker must stop at the smallest `a` that is still big,
        // and only then shrink `b` under the same target.
        let (min, run) = shrink(&Toy::smoke(), Toy::run, 100).expect("smoke violates");
        assert_eq!(min, Toy { a: 5, b: 0, probe: None });
        assert_eq!(ids(&run.violations), ["a-big"]);
    }

    #[test]
    fn shrink_stops_at_max_runs_and_returns_none_when_healthy() {
        let runs = Cell::new(0);
        let counted = |s: &Toy| {
            runs.set(runs.get() + 1);
            s.run()
        };
        let (min, _) = shrink(&Toy::smoke(), counted, 3).expect("smoke violates");
        assert_eq!(runs.get(), 1 + 3, "the original run plus max_runs candidates");
        assert!(min.a > 5, "three candidate runs cannot reach the fixpoint: {min:?}");
        assert!(shrink(&Toy::full(), Toy::run, 100).is_none(), "healthy spec → None");
    }

    #[test]
    fn cli_and_from_args_are_inverses_including_nested_and_cleared_fields() {
        let hand = Outer { inner: Toy { a: 7, b: 2, probe: None }, scale: 0.1 + 0.2 };
        assert_eq!(hand.cli(), "--inner-a 7 --inner-b 2 --no-inner-probe --scale 0.30000000000000004");
        for spec in [Outer::smoke(), Outer::full(), hand] {
            let args: Vec<String> = spec.cli().split(' ').map(str::to_owned).collect();
            assert_eq!(Outer::from_args(&args), spec);
            // every field is emitted, so the base selector is moot
            let with_smoke: Vec<String> =
                std::iter::once("--smoke".to_owned()).chain(args).collect();
            assert_eq!(Outer::from_args(&with_smoke), spec);
        }
        let eq_form = ["--smoke".to_owned(), "--inner-a=9".to_owned()];
        assert_eq!(Outer::from_args(&eq_form).inner, Toy { a: 9, ..Toy::smoke() });
    }

    /// Runs `feed` against a fresh ledger over a two-job trace under
    /// both id sets and returns the service ids, asserting the fleet
    /// run reports the same ids in their `fleet-` form.
    fn ledger_ids(feed: impl Fn(&mut Ledger<'_>, &mut Violations, f64)) -> Vec<&'static str> {
        let jobs = arrival_trace(1, [2, 3], 2, 10.0, 8, None);
        let by_id = by_id(&jobs);
        let bound = crate::job::INTERACTIVE_BOUND_S.max(crate::job::BATCH_BOUND_S);
        let replay = |ledger_ids| {
            let mut v = Violations::default();
            let mut ledger = Ledger::new(ledger_ids, &by_id);
            feed(&mut ledger, &mut v, bound);
            ledger.finish(&mut v);
            ids(&v)
        };
        let service = replay(LedgerIds::SERVICE);
        let fleet: Vec<String> = service.iter().map(|id| format!("fleet-{id}")).collect();
        assert_eq!(replay(LedgerIds::FLEET), fleet);
        service
    }

    #[test]
    fn ledger_flags_a_double_terminal() {
        let got = ledger_ids(|l, v, _| {
            l.admit(Some(0), 0.0);
            l.dispatch(v, Some(0), 0.1);
            l.terminate(v, Some(0), 0.2, false);
            l.check_prefix(v, 0.2);
            l.terminate(v, Some(0), 0.3, false);
            l.check_prefix(v, 0.3);
        });
        assert_eq!(got, ["conservation", "conservation", "exactly-once"]);
    }

    #[test]
    fn ledger_flags_a_vanished_job() {
        let got = ledger_ids(|l, v, _| {
            l.admit(Some(0), 0.0);
            l.admit(Some(1), 0.0);
            l.terminate(v, Some(1), 0.1, true);
            l.check_prefix(v, 0.1);
        });
        assert_eq!(got, ["conservation", "exactly-once"]);
    }

    #[test]
    fn ledger_flags_termination_before_admission() {
        let got = ledger_ids(|l, v, _| {
            l.terminate(v, Some(0), 0.1, false);
            l.check_prefix(v, 0.1);
            l.admit(Some(0), 0.2);
            l.check_prefix(v, 0.2);
        });
        assert_eq!(got, ["conservation"], "only the negative in-flight prefix");
    }

    #[test]
    fn ledger_flags_a_wait_past_the_class_bound() {
        let got = ledger_ids(|l, v, bound| {
            l.admit(Some(0), 0.0);
            l.dispatch(v, Some(0), bound + 1.0);
            l.terminate(v, Some(0), bound + 2.0, false);
            l.admit(Some(1), 0.0);
            l.terminate(v, Some(1), bound + 1.0, true);
        });
        assert_eq!(got, ["starvation-bound", "starvation-bound"], "dispatch and shed both close an epoch");
    }

    #[test]
    fn ledger_requeue_restarts_the_epoch() {
        let got = ledger_ids(|l, v, bound| {
            l.admit(Some(0), 0.0);
            l.dispatch(v, Some(0), 0.1);
            l.requeue(Some(0), bound + 5.0);
            l.dispatch(v, Some(0), bound + 5.1);
            // a terminal that does not close an epoch ignores the wait
            l.terminate(v, Some(0), 3.0 * bound, false);
        });
        assert_eq!(got, [] as [&str; 0]);
    }
}
