//! Fault supervision for the engine: retry policy, recovery accounting,
//! and the probabilistic self-check that guards against silent
//! corruption.
//!
//! The supervisor state machine (DESIGN.md §10) lives here, driven by
//! [`DistMsm::execute_attempt`](crate::engine::DistMsm::execute_attempt):
//! its rounds run the plan (round 0, the primary pass) and then re-plan
//! whatever a round lost onto the survivors; the RLC self-check verifies
//! the shipped partials; straggler detection reads the composed per-GPU
//! busy times. Its vocabulary:
//!
//! * [`RetryPolicy`] — bounded retries with exponential backoff, charged
//!   through the cost model like any other phase (a retry is simulated
//!   wall-clock, not free);
//! * [`FaultObservation`] / [`RecoveryReport`] — what the supervisor saw
//!   and what recovering from it cost, attached to
//!   [`crate::engine::MsmReport`];
//! * the random-linear-combination (RLC) self-check: the host draws
//!   seeded `u64` coefficients `r_i`, each device folds
//!   `Σ r_i · w_i` over the window partials it *computed*, and the host
//!   folds the same combination over the partials it *received*. A
//!   transient bit-flip in flight makes the two fold values disagree
//!   with overwhelming probability (the corruption would have to lie in
//!   the kernel of a random functional), at the cost of one 64-bit
//!   scalar multiplication per partial instead of a full recompute.

use crate::config::DistMsmConfig;
use crate::engine::{DistMsm, Jobs, Launch, MsmError, SliceOutcome};
use crate::plan::{plan_slices, replan_slices, Slice};
use crate::reduce::cpu_seconds_for_padds;
use distmsm_ec::{host_parallelism, straus, Curve, Scalar, XyzzPoint};
use distmsm_gpu_sim::fault::splitmix64;
use distmsm_gpu_sim::{FaultPlan, MultiGpuSystem};
use distmsm_kernel::EcKernelModel;

/// Seed of the RLC self-check coefficient stream (device and host derive
/// the same coefficients without communicating them).
const RLC_SEED: u64 = 0x0005_e1fc_4ec4_u64;

/// Per-GPU busy time above this multiple of the median flags the GPU as
/// a straggler in the recovery report.
const STRAGGLER_DETECT_RATIO: f64 = 1.25;

/// Bounded-retry policy with exponential backoff. Backoff is *charged*:
/// every retry adds simulated seconds to the recovery cost, so fault
/// handling shows up in `total_s` instead of pretending to be free.
///
/// Marked `#[non_exhaustive]`: build variants with the `with_*` setters
/// starting from [`RetryPolicy::default`] (validation happens when the
/// policy enters a [`crate::config::DistMsmConfigBuilder`]).
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub struct RetryPolicy {
    /// Retries before a persistent fault escalates (device declared
    /// lost, or [`crate::engine::MsmError::RetriesExhausted`] for
    /// transient faults with no budget).
    pub max_retries: u32,
    /// Backoff before the first retry, seconds.
    pub backoff_base_s: f64,
    /// Multiplier between consecutive backoffs.
    pub backoff_factor: f64,
    /// Saturation ceiling for a single backoff, seconds. Exponential
    /// doubling reaches `f64::INFINITY` within ~1100 doublings from any
    /// positive base; an adversarial `max_retries` must charge a large
    /// finite cost, not poison every downstream sum with `inf`/NaN, so
    /// [`RetryPolicy::backoff_for`] clamps here.
    pub backoff_cap_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            backoff_base_s: 1e-3,
            backoff_factor: 2.0,
            backoff_cap_s: 60.0,
        }
    }
}

impl RetryPolicy {
    /// Returns the policy with `max_retries` replaced.
    #[must_use]
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Returns the policy with `backoff_base_s` replaced.
    #[must_use]
    pub fn with_backoff_base_s(mut self, seconds: f64) -> Self {
        self.backoff_base_s = seconds;
        self
    }

    /// Returns the policy with `backoff_factor` replaced.
    #[must_use]
    pub fn with_backoff_factor(mut self, factor: f64) -> Self {
        self.backoff_factor = factor;
        self
    }

    /// Backoff charged before retry `k` (0-based): `base · factor^k`,
    /// saturating at [`RetryPolicy::backoff_cap_s`]. The raw exponential
    /// overflows `f64` for large `k`; saturation keeps every charge
    /// finite and monotone in `k`.
    pub fn backoff_for(&self, k: u32) -> f64 {
        let raw = self.backoff_base_s * self.backoff_factor.powi(k.min(i32::MAX as u32) as i32);
        if raw.is_finite() {
            raw.min(self.backoff_cap_s)
        } else {
            self.backoff_cap_s
        }
    }

    /// Total backoff charged when every retry is spent (the cost of
    /// probing a dead device to exhaustion before declaring it lost).
    ///
    /// Evaluated without iterating `max_retries` times: an adversarial
    /// `max_retries` of `u32::MAX` must not hang the supervisor, so past
    /// a small exact prefix the geometric series is summed in closed
    /// form with every saturated term charged at the cap.
    pub fn total_backoff(&self) -> f64 {
        if self.max_retries <= 64 {
            // exact (and bit-identical to the historical iteration) for
            // every realistic configuration
            return (0..self.max_retries).map(|k| self.backoff_for(k)).sum();
        }
        let n = f64::from(self.max_retries);
        let first = self.backoff_for(0);
        let cap = self.backoff_cap_s;
        let f = self.backoff_factor;
        if first <= 0.0 {
            return 0.0;
        }
        if f <= 1.0 || first >= cap {
            // constant series: no growth, or already saturated
            return first.min(cap) * n;
        }
        // smallest k with first · f^k ≥ cap
        let k_sat = ((cap / first).ln() / f.ln()).ceil().max(0.0);
        if k_sat >= n {
            first * (f.powf(n) - 1.0) / (f - 1.0)
        } else {
            first * (f.powf(k_sat) - 1.0) / (f - 1.0) + cap * (n - k_sat)
        }
    }
}

/// One fault the supervisor observed and handled (or escalated).
#[derive(Clone, Debug, PartialEq)]
pub struct FaultObservation {
    /// Device the fault struck.
    pub device: usize,
    /// Per-device work-event index at which it was observed.
    pub event: u64,
    /// Stable fault-class label (`"fail-stop"`, `"straggler"`,
    /// `"bit-flip"`, `"link-down"`).
    pub kind: String,
}

/// What the supervisor saw and what recovery cost, attached to a report
/// whenever execution ran supervised (a non-empty fault plan).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Faults observed, in detection order.
    pub faults: Vec<FaultObservation>,
    /// Devices declared lost (fail-stopped or fabric-partitioned).
    pub lost_gpus: Vec<usize>,
    /// `(device, slowdown)` for devices whose busy time exceeded the
    /// straggler detection threshold relative to the median.
    pub stragglers: Vec<(usize, f64)>,
    /// Total retries spent (device probes + corrupt re-shipments).
    pub retries: u32,
    /// Slices re-planned onto survivors (empty when no device was
    /// lost). Entries lost to a cascading failure before they could run
    /// are superseded by the next round's re-plan and removed.
    pub replanned: Vec<Slice>,
    /// Every slice whose partial reached the final fold — the original
    /// plan minus lost slices, plus `replanned`. Analyze's FAULT-002
    /// verifies these tile the `n_windows × n_buckets` space exactly.
    pub completed: Vec<Slice>,
    /// True when a lost device forced the window-partial collective to
    /// fall back to a survivors-only host gather.
    pub degraded_collective: bool,
    /// Simulated seconds spent in retry backoff.
    pub backoff_s: f64,
    /// Simulated seconds re-executing re-planned slices on survivors.
    pub recompute_s: f64,
    /// Simulated seconds in the host-side RLC self-check.
    pub self_check_s: f64,
    /// Simulated seconds checkpointing per-GPU window partials.
    pub checkpoint_s: f64,
    /// Window count of the plan the report refers to.
    pub n_windows: u32,
    /// Bucket count per window of the plan the report refers to.
    pub n_buckets: u32,
}

impl RecoveryReport {
    /// Total recovery overhead in simulated seconds — the cost the fault
    /// plan added on top of a fault-free execution.
    pub fn recovery_s(&self) -> f64 {
        self.backoff_s + self.recompute_s + self.self_check_s + self.checkpoint_s
    }
}

/// Modelled host-side padd-equivalent operations per partial checked by
/// the RLC self-check: one 64-bit double-and-add scalar multiplication
/// (≈64 PDBLs + ≈32 PADDs) plus the fold PADD. [`rlc_fold`] itself shares
/// one doubling chain across the partials and does fewer; the simulated
/// clock keeps this count (DESIGN.md §26).
pub const RLC_OPS_PER_PARTIAL: u64 = 97;

/// Seeded nonzero `u64` RLC coefficients, one per checked partial.
/// Deterministic in `(seed, n)` so device and host draw identical
/// coefficient streams without communicating them.
pub fn rlc_coefficients(seed: u64, n: usize) -> Vec<u64> {
    let mut state = seed ^ 0x5bf0_3635_d1f4_b0e5;
    (0..n).map(|_| splitmix64(&mut state) | 1).collect()
}

/// Folds `Σ coeffs[i] · points[i]` — the RLC checksum — in one [`straus`]
/// call. Device side runs it over computed partials, host side over
/// received ones; inequality exposes in-flight corruption.
pub fn rlc_fold<C: Curve>(points: &[XyzzPoint<C>], coeffs: &[u64]) -> XyzzPoint<C> {
    assert_eq!(points.len(), coeffs.len(), "one coefficient per partial");
    let terms: Vec<_> = points
        .iter()
        .zip(coeffs)
        .map(|(p, &c)| (*p, C::Scalar::from_u64(c)))
        .collect();
    straus(&terms)
}

/// One execution's supervisor: the configuration whose fault plan it
/// watches on this attempt, the devices it has seen die, and the
/// [`RecoveryReport`] it builds. Unsupervised (an empty plan) the rounds
/// are the primary pass alone, and the self-check and straggler
/// detection do nothing.
pub(crate) struct Supervisor<'a> {
    config: &'a DistMsmConfig,
    attempt: u32,
    /// Devices that answer no more: cut off from the host from the
    /// start, or fail-stopped since.
    dead: Vec<usize>,
    recovery: RecoveryReport,
}

impl<'a> Supervisor<'a> {
    /// A supervisor for attempt `attempt` of an `n_windows × n_buckets`
    /// plan.
    pub(crate) fn new(config: &'a DistMsmConfig, attempt: u32, n_windows: u32, n_buckets: u32) -> Self {
        Self {
            config,
            attempt,
            dead: Vec::new(),
            recovery: RecoveryReport { n_windows, n_buckets, ..RecoveryReport::default() },
        }
    }

    fn plan(&self) -> &'a FaultPlan {
        &self.config.fault_plan
    }

    /// A non-empty fault plan turns supervision on.
    pub(crate) fn supervised(&self) -> bool {
        !self.plan().is_empty()
    }

    /// The factor on `gpu`'s kernel times at its work event `event`:
    /// straggler faults scale a device's kernels from their trigger event
    /// on.
    pub(crate) fn straggle(&self, gpu: usize, event: u64) -> f64 {
        self.plan()
            .straggler_from(gpu, self.attempt)
            .map_or(1.0, |(at, slow)| if event >= at { slow } else { 1.0 })
    }

    fn is_lost(&self, gpu: usize, event: u64) -> bool {
        self.is_dead(gpu)
            || self.plan().fail_stop_event(gpu, self.attempt).is_some_and(|at| event >= at)
    }

    /// True when `gpu` answers no more: it ships nothing to a gather.
    pub(crate) fn is_dead(&self, gpu: usize) -> bool {
        self.dead.contains(&gpu)
    }

    /// True once a device has been declared lost, so ring and tree
    /// collectives can no longer run.
    pub(crate) fn lost_any(&self) -> bool {
        !self.recovery.lost_gpus.is_empty()
    }

    /// Every slice whose partial reached the final fold, in run order.
    pub(crate) fn completed(&self) -> &[Slice] {
        &self.recovery.completed
    }

    /// Runs the plan in rounds until a round loses nothing. Round 0 is the
    /// primary pass over [`plan_slices`]; each later round re-plans the
    /// slices the last one lost onto the survivors. Every round's jobs are
    /// filtered alike, so a survivor may fail-stop mid-recovery (a
    /// cascading fault). Returns every outcome in run order and how many
    /// of them the primary pass produced.
    pub(crate) fn run_rounds<C: Curve>(
        &mut self,
        engine: &DistMsm,
        launch: &Launch<'_, C>,
        system: &MultiGpuSystem,
    ) -> Result<(Vec<SliceOutcome<C>>, usize), MsmError> {
        let n_gpus = system.n_gpus();
        let reachable = system.ranks_reaching_host();
        if reachable.is_empty() {
            return Err(MsmError::LinkDown {
                detail: "no GPU can reach the master host".into(),
            });
        }
        for g in (0..n_gpus).filter(|g| !reachable.contains(g)) {
            self.dead.push(g);
            self.recovery.faults.push(FaultObservation {
                device: g,
                event: 0,
                kind: "link-down".into(),
            });
        }

        // Per-device work-event counters: one event per scheduled slice,
        // in plan order — the deterministic coordinate fault plans key
        // on, independent of host-thread scheduling.
        let mut next_event = vec![0u64; n_gpus];
        let mut pending = plan_slices(launch.n_windows, launch.n_buckets, n_gpus);
        let mut ran = Vec::new();
        let mut primaries = 0;
        for round in 0.. {
            let jobs: Jobs = pending
                .into_iter()
                .map(|sl| {
                    next_event[sl.gpu] += 1;
                    (sl, next_event[sl.gpu] - 1)
                })
                .collect();
            let (live, lost): (Jobs, Jobs) =
                jobs.into_iter().partition(|&(sl, e)| !self.is_lost(sl.gpu, e));
            self.note_fail_stops(&lost);
            // a re-planned slice lost to a cascading failure is
            // superseded by the next round's re-plan: drop it from the
            // log so `replanned` records only work that actually ran
            self.recovery
                .replanned
                .retain(|s| !lost.iter().any(|(lost, _)| lost == s));
            ran.extend(engine.run_slices(launch, &live, host_parallelism())?);
            if round == 0 {
                primaries = ran.len();
            }
            if lost.is_empty() {
                break;
            }
            let lost: Vec<Slice> = lost.into_iter().map(|(sl, _)| sl).collect();
            pending = self.replan(&lost, n_gpus, round)?;
        }
        self.recovery.completed = ran.iter().map(|oc| oc.slice).collect();
        Ok((ran, primaries))
    }

    /// Records fail-stop observations for devices that just lost jobs
    /// and adds them to the dead set.
    fn note_fail_stops(&mut self, lost: &[(Slice, u64)]) {
        for &(sl, event) in lost {
            if !self.dead.contains(&sl.gpu) {
                self.dead.push(sl.gpu);
                self.recovery.faults.push(FaultObservation {
                    device: sl.gpu,
                    event,
                    kind: "fail-stop".into(),
                });
            }
        }
    }

    /// Declares each newly dead device lost after its bounded probes, then
    /// re-plans `lost` onto the survivors; `rounds` re-plans ran before
    /// this one.
    fn replan(&mut self, lost: &[Slice], n_gpus: usize, rounds: usize) -> Result<Vec<Slice>, MsmError> {
        // bounded probes of each newly lost device, charged as
        // exponential backoff, before the supervisor declares it lost
        for &g in &self.dead {
            if !self.recovery.lost_gpus.contains(&g) {
                self.recovery.retries += self.config.retry.max_retries;
                self.recovery.backoff_s += self.config.retry.total_backoff();
                self.recovery.lost_gpus.push(g);
            }
        }
        let survivors: Vec<usize> = (0..n_gpus).filter(|&g| !self.is_dead(g)).collect();
        if survivors.is_empty() || rounds > n_gpus {
            return Err(MsmError::DeviceLost {
                devices: self.recovery.lost_gpus.clone(),
            });
        }
        // checkpoint-time straggler detection steers the re-plan: a
        // survivor already running slow would bottleneck the serial
        // recovery phase, so prefer full-speed survivors whenever at
        // least one remains (a straggler is still better than no
        // device at all)
        let full_speed: Vec<usize> = survivors
            .iter()
            .copied()
            .filter(|&g| self.plan().straggler_from(g, self.attempt).is_none())
            .collect();
        let targets = if full_speed.is_empty() { &survivors } else { &full_speed };
        let replanned = replan_slices(lost, targets);
        self.recovery.replanned.extend(replanned.iter().copied());
        Ok(replanned)
    }

    /// The RLC self-check against silent corruption. Each device folds
    /// `Σ rᵢ·wᵢ` over the partials it computed; the host folds the same
    /// combination over what it received. Planned bit-flips corrupt the
    /// shipped copy (modelled as a sign flip); a mismatch pins the
    /// corrupted shipments, which are re-shipped under the retry budget.
    /// The two folds are compared as one: by linearity they are equal
    /// iff `Σ rᵢ·(wᵢ − w′ᵢ)` is the identity, and an unflipped partial's
    /// difference is the identity, which the fold skips.
    /// The host side of the check — one 64-bit scalar-mul fold per
    /// received partial — is charged on every supervised run, corrupted
    /// or not.
    pub(crate) fn self_check<C: Curve>(
        &mut self,
        ran: &[SliceOutcome<C>],
        model: &EcKernelModel,
        cpu_int_ops_per_sec: f64,
    ) -> Result<(), MsmError> {
        if !self.supervised() {
            return Ok(());
        }
        let coeffs = rlc_coefficients(RLC_SEED, ran.len());
        let true_vals: Vec<XyzzPoint<C>> = ran.iter().map(|oc| oc.contrib.0).collect();
        let recv_vals: Vec<XyzzPoint<C>> = ran
            .iter()
            .zip(&true_vals)
            .map(|(oc, w)| {
                if self.plan().bit_flip_events(oc.slice.gpu, self.attempt).contains(&oc.event) {
                    w.neg()
                } else {
                    *w
                }
            })
            .collect();
        let diffs: Vec<XyzzPoint<C>> =
            true_vals.iter().zip(&recv_vals).map(|(t, r)| t.padd(&r.neg())).collect();
        if !rlc_fold(&diffs, &coeffs).is_identity() {
            for (oc, (t, r)) in ran.iter().zip(true_vals.iter().zip(&recv_vals)) {
                if t != r {
                    if self.config.retry.max_retries == 0 {
                        return Err(MsmError::RetriesExhausted {
                            device: oc.slice.gpu,
                            event: oc.event,
                        });
                    }
                    self.recovery.retries += 1;
                    self.recovery.backoff_s += self.config.retry.backoff_for(0);
                    self.recovery.faults.push(FaultObservation {
                        device: oc.slice.gpu,
                        event: oc.event,
                        kind: "bit-flip".into(),
                    });
                }
            }
        }
        self.recovery.self_check_s = cpu_seconds_for_padds(
            RLC_OPS_PER_PARTIAL * ran.len() as u64,
            model,
            cpu_int_ops_per_sec,
        );
        Ok(())
    }

    /// Straggler detection over the composed per-GPU busy times: skew
    /// beyond [`STRAGGLER_DETECT_RATIO`] × the median is recorded, and
    /// beyond the configured SLA it is an error.
    pub(crate) fn detect_stragglers(&mut self, per_gpu_s: &[f64]) -> Result<(), MsmError> {
        if !self.supervised() {
            return Ok(());
        }
        let mut busy: Vec<f64> = per_gpu_s.iter().copied().filter(|&t| t > 0.0).collect();
        busy.sort_by(f64::total_cmp);
        let Some(&median) = busy.get(busy.len() / 2) else {
            return Ok(());
        };
        for (g, &t) in per_gpu_s.iter().enumerate() {
            let ratio = t / median;
            if ratio > STRAGGLER_DETECT_RATIO {
                self.recovery.stragglers.push((g, ratio));
                self.recovery.faults.push(FaultObservation {
                    device: g,
                    event: self.plan().straggler_from(g, self.attempt).map_or(0, |(at, _)| at),
                    kind: "straggler".into(),
                });
                if self.config.straggler_sla.is_some_and(|sla| ratio > sla) {
                    return Err(MsmError::Straggler {
                        device: g,
                        slowdown: ratio,
                    });
                }
            }
        }
        Ok(())
    }

    /// The recovery report, when the run was supervised, completed with
    /// what the engine measured after the rounds: the survivors'
    /// `recompute_s`, the window-partial `checkpoint_s`, and whether a
    /// lost device forced the collective down to a host gather.
    pub(crate) fn finish(
        mut self,
        recompute_s: f64,
        checkpoint_s: f64,
        degraded_collective: bool,
    ) -> Option<RecoveryReport> {
        self.recovery.recompute_s = recompute_s;
        self.recovery.checkpoint_s = checkpoint_s;
        self.recovery.degraded_collective = degraded_collective;
        self.supervised().then_some(self.recovery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::Bn254G1;
    use distmsm_ec::MsmInstance;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn backoff_is_exponential_and_bounded() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_for(0), 1e-3);
        assert_eq!(p.backoff_for(2), 4e-3);
        assert!((p.total_backoff() - 7e-3).abs() < 1e-12);
        let none = p.with_max_retries(0);
        assert_eq!(none.total_backoff(), 0.0);
    }

    #[test]
    fn backoff_doubling_saturates_at_the_cap() {
        // default: base 1e-3, factor 2, cap 60 → the raw exponential
        // crosses the cap between k=15 (32.768 s) and k=16 (65.536 s)
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_for(15), 1e-3 * (1 << 15) as f64);
        assert_eq!(p.backoff_for(16), 60.0, "k=16 is the saturation point");
        // far past any representable exponent: still the cap, never inf
        for k in [17, 64, 1100, u32::MAX] {
            let b = p.backoff_for(k);
            assert!(b.is_finite(), "backoff_for({k}) = {b} must be finite");
            assert_eq!(b, 60.0);
        }
    }

    #[test]
    fn total_backoff_is_finite_for_adversarial_retry_counts() {
        let p = RetryPolicy::default().with_max_retries(u32::MAX);
        let total = p.total_backoff();
        assert!(total.is_finite(), "total_backoff must saturate, got {total}");
        // almost every term is the 60 s cap
        assert!(total > 0.9 * 60.0 * f64::from(u32::MAX));
        // non-growing factor takes the constant-series path, not a
        // u32::MAX-iteration loop
        let flat = RetryPolicy::default()
            .with_backoff_factor(1.0)
            .with_max_retries(u32::MAX);
        assert_eq!(flat.total_backoff(), 1e-3 * f64::from(u32::MAX));
        // zero base charges nothing no matter the count
        let free = RetryPolicy::default()
            .with_backoff_base_s(0.0)
            .with_max_retries(u32::MAX);
        assert_eq!(free.total_backoff(), 0.0);
    }

    #[test]
    fn closed_form_total_matches_iteration_past_the_exact_prefix() {
        // 65 retries forces the closed form; compare against the naive sum
        let p = RetryPolicy::default().with_max_retries(65);
        let naive: f64 = (0..65).map(|k| p.backoff_for(k)).sum();
        let got = p.total_backoff();
        assert!(
            ((got - naive) / naive).abs() < 1e-9,
            "closed form {got} vs iterated {naive}"
        );
    }

    #[test]
    fn rlc_coefficients_deterministic_and_nonzero() {
        let a = rlc_coefficients(9, 32);
        let b = rlc_coefficients(9, 32);
        assert_eq!(a, b);
        assert!(a.iter().all(|&c| c != 0));
        assert_ne!(a, rlc_coefficients(10, 32));
    }

    #[test]
    fn rlc_detects_a_negated_partial() {
        let mut rng = StdRng::seed_from_u64(21);
        let inst = MsmInstance::<Bn254G1>::random(6, &mut rng);
        let partials: Vec<_> = inst.points.iter().map(|p| p.to_xyzz()).collect();
        let coeffs = rlc_coefficients(5, partials.len());
        let device = rlc_fold(&partials, &coeffs);
        let mut corrupted = partials.clone();
        corrupted[3] = corrupted[3].neg();
        let host = rlc_fold(&corrupted, &coeffs);
        assert_ne!(device, host, "negation must break the RLC checksum");
        // and the clean re-shipment matches
        assert_eq!(device, rlc_fold(&partials, &coeffs));
    }

    /// The fold before it ran on `straus`: one double-and-add per partial.
    fn double_and_add_fold(points: &[XyzzPoint<Bn254G1>], coeffs: &[u64]) -> XyzzPoint<Bn254G1> {
        points.iter().zip(coeffs).fold(XyzzPoint::identity(), |acc, (p, &c)| {
            acc.padd(&p.scalar_mul(&Scalar::from_u64(c)))
        })
    }

    #[test]
    fn rlc_fold_equals_the_double_and_add_fold() {
        let mut rng = StdRng::seed_from_u64(29);
        let inst = MsmInstance::<Bn254G1>::random(32, &mut rng);
        // unnormalised representatives, as window partials arrive
        let random: Vec<_> = inst
            .points
            .iter()
            .zip(&inst.scalars)
            .map(|(p, k)| p.scalar_mul(k))
            .collect();
        let mut identities = random.clone();
        for i in (0..32).step_by(3) {
            identities[i] = XyzzPoint::identity();
        }
        let mut duplicated = random.clone();
        for i in 1..8 {
            duplicated[i] = duplicated[0];
        }
        let mut negated = random.clone();
        for i in (1..32).step_by(2) {
            negated[i] = negated[i - 1].neg();
        }
        let cases = [
            random,
            vec![XyzzPoint::identity(); 32],
            identities,
            duplicated,
            negated,
        ];
        for (seed, partials) in cases.iter().enumerate() {
            for n in [0, 1, 2, 5, 32] {
                let coeffs = rlc_coefficients(seed as u64, n);
                let expected = double_and_add_fold(&partials[..n], &coeffs);
                assert_eq!(rlc_fold(&partials[..n], &coeffs), expected, "case {seed}, {n}");
            }
            // equal coefficients on a partial and its negation cancel
            let pair = [partials[0], partials[0].neg()];
            assert!(rlc_fold(&pair, &[7, 7]).is_identity());
        }
    }

    #[test]
    fn rlc_passes_identity_partials() {
        // identity partials are fixed points of negation: nothing to
        // detect, nothing corrupted
        let partials = vec![distmsm_ec::XyzzPoint::<Bn254G1>::identity(); 4];
        let coeffs = rlc_coefficients(1, 4);
        assert_eq!(
            rlc_fold(&partials, &coeffs),
            distmsm_ec::XyzzPoint::identity()
        );
    }

    #[test]
    fn recovery_report_totals_its_parts() {
        let rep = RecoveryReport {
            backoff_s: 1.0,
            recompute_s: 2.0,
            self_check_s: 0.25,
            checkpoint_s: 0.5,
            ..RecoveryReport::default()
        };
        assert_eq!(rep.recovery_s(), 3.75);
    }
}
