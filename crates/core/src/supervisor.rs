//! Fault supervision for the engine: retry policy, recovery accounting,
//! and the probabilistic self-check that guards against silent
//! corruption.
//!
//! The supervisor state machine (DESIGN.md §10) lives in
//! [`crate::engine`]; this module holds its vocabulary:
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

use crate::plan::Slice;
use distmsm_ec::{straus, Curve, Scalar, XyzzPoint};
use distmsm_gpu_sim::fault::splitmix64;

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
