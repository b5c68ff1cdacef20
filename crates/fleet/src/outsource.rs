//! The 2G2T-style blinded twin query: a constant-size statistical check
//! that a remote, untrusted pod actually computed the MSM it was sent.
//!
//! For a job `R1 = Σ xᵢ·Pᵢ` the coordinator draws a secret nonzero
//! `α ∈ F_r` and [`N_DECOYS`] secret positions with secret offsets
//! `βⱼ`, and outsources the *twin* instance with scalars
//! `yᵢ = α·xᵢ (+ βⱼ at decoy positions)` alongside the original. The
//! pod returns `(R1, R2)`; the coordinator accepts iff
//!
//! ```text
//! R2 == α·R1 + V,   V = Σ_decoys βⱼ·Pⱼ
//! ```
//!
//! which costs one (1 + [`N_DECOYS`])-term multi-scalar multiplication
//! ([`straus`]) — constant in the MSM size. An additive corruption `R1 + D` would need
//! the pod to shift `R2` by `α·D` with `α` secret; a *scaling* attack
//! `(c·R1, c·R2)` would need `(c − 1)·V = 0`, and `V` is a secret
//! nonzero point — the decoys are precisely what closes that hole. A
//! cheating pod therefore survives with probability `≈ 1/r`.

use distmsm_ec::{straus, Affine, Curve, FieldElement, MsmInstance, XyzzPoint};
use distmsm_gpu_sim::fault::splitmix64;
use rand::{rngs::StdRng, SeedableRng};

/// Number of secret decoy positions blended into the twin query.
///
/// One nonzero decoy already defeats the scaling attack; a handful
/// keeps the check robust when shards are tiny (fewer than four points
/// simply use fewer decoys).
pub const N_DECOYS: usize = 4;

/// The coordinator's secret challenge for one outsourced job: the
/// blinding factor and the decoy positions/offsets. Never leaves the
/// coordinator — the pod only ever sees the blinded scalar vector.
#[derive(Clone, Debug)]
pub struct Challenge<C: Curve> {
    /// Secret nonzero blinding factor `α ∈ F_r`.
    pub alpha: C::ScalarField,
    /// Secret decoy positions with their nonzero offsets `βⱼ ∈ F_r`,
    /// sorted by position, all positions distinct and `< n`.
    pub decoys: Vec<(usize, C::ScalarField)>,
}

impl<C: Curve> Challenge<C> {
    /// Deterministically derives a challenge for an `n`-point job from
    /// `seed`. Same `(seed, n)` → bit-identical challenge, so soak runs
    /// replay exactly.
    pub fn generate(seed: u64, n: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb11d_ed00_7714_0001);
        Self::generate_impl(seed, n, &mut rng)
    }

    fn generate_impl(seed: u64, n: usize, rng: &mut StdRng) -> Self {
        let mut alpha = C::ScalarField::random(rng);
        while alpha.is_zero() {
            alpha = C::ScalarField::random(rng);
        }
        let k = N_DECOYS.min(n);
        let mut state = seed ^ 0xdec0_15e7_0000_0001;
        let mut positions: Vec<usize> = Vec::with_capacity(k);
        while positions.len() < k {
            let p = (splitmix64(&mut state) % n as u64) as usize;
            if !positions.contains(&p) {
                positions.push(p);
            }
        }
        positions.sort_unstable();
        let decoys = positions
            .into_iter()
            .map(|p| {
                let mut beta = C::ScalarField::random(rng);
                while beta.is_zero() {
                    beta = C::ScalarField::random(rng);
                }
                (p, beta)
            })
            .collect();
        Self { alpha, decoys }
    }

    /// Blinds a scalar vector: `yᵢ = α·xᵢ`, plus `βⱼ` at each decoy
    /// position. Panics if a decoy position is out of range.
    pub fn blind(&self, scalars: &[C::Scalar]) -> Vec<C::Scalar> {
        let mut out: Vec<C::ScalarField> =
            scalars.iter().map(|x| C::scalar_to_field(x) * self.alpha).collect();
        for (p, beta) in &self.decoys {
            out[*p] += *beta;
        }
        out.iter().map(C::field_to_scalar).collect()
    }

    /// The blinded twin of an instance: same points, blinded scalars.
    pub fn twin_instance(&self, instance: &MsmInstance<C>) -> MsmInstance<C> {
        MsmInstance {
            points: instance.points.clone(),
            scalars: self.blind(&instance.scalars),
        }
    }

    /// The acceptance predicate: `r2 == α·r1 + Σ βⱼ·Pⱼ`, the right-hand
    /// side one `1 + N_DECOYS`-term [`straus`] call.
    pub fn verify(&self, points: &[Affine<C>], r1: &XyzzPoint<C>, r2: &XyzzPoint<C>) -> bool {
        let terms: Vec<_> = std::iter::once((*r1, self.alpha))
            .chain(self.decoys.iter().map(|(p, beta)| (points[*p].to_xyzz(), *beta)))
            .map(|(point, k)| (point, C::field_to_scalar(&k)))
            .collect();
        // projective equality: no inversion on either side
        straus(&terms) == *r2
    }
}

/// The pair a pod returns for one outsourced job: the real result and
/// the blinded twin's result.
#[derive(Clone, Copy, Debug)]
pub struct OutsourcedResult<C: Curve> {
    /// `R1 = Σ xᵢ·Pᵢ` — the result the coordinator wants.
    pub r1: XyzzPoint<C>,
    /// `R2 = Σ yᵢ·Pᵢ` — the blinded twin, checked against `α·R1 + V`.
    pub r2: XyzzPoint<C>,
}

impl<C: Curve> OutsourcedResult<C> {
    /// Applies a byzantine corruption model to an (honest) result pair.
    ///
    /// `swap_source` is the pair substituted wholesale under
    /// [`Corruption::SwappedShard`] — another job's (or shard's) proof
    /// pair, which satisfies *its* challenge but not this one.
    pub fn corrupted(&self, class: Corruption, swap_source: &OutsourcedResult<C>) -> Self {
        match class {
            // An in-flight bit flip lands the partial on a different
            // point; `+G` is the curve-generic stand-in.
            Corruption::BitFlip => Self {
                r1: self.r1.padd(&C::generator().to_xyzz()),
                r2: self.r2,
            },
            Corruption::SwappedShard => *swap_source,
            Corruption::ZeroPartial => Self {
                r1: XyzzPoint::identity(),
                r2: XyzzPoint::identity(),
            },
        }
    }
}

/// Byzantine corruption classes a pod can inflict on a returned
/// partial. All must be *detected* by [`Challenge::verify`] — this is a
/// new failure class on top of the fail-stop faults PR 3 recovers from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// The returned `R1` is off by one generator (an in-flight or
    /// in-memory bit flip).
    BitFlip,
    /// The pod returns a different job's (valid-looking) result pair.
    SwappedShard,
    /// The pod skipped the work and returned the identity for both.
    ZeroPartial,
}

impl Corruption {
    /// Every corruption class, for sweeps and proptests.
    pub const ALL: [Corruption; 3] =
        [Corruption::BitFlip, Corruption::SwappedShard, Corruption::ZeroPartial];

    /// Stable label used in events, reports and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            Corruption::BitFlip => "bit-flip",
            Corruption::SwappedShard => "swapped-shard",
            Corruption::ZeroPartial => "zero-partial",
        }
    }
}
