//! 2G2T-style verified outsourcing on twin bases: a constant-size
//! statistical check that a remote, untrusted pod actually computed the
//! MSM it was sent.
//!
//! For one base set `P` the coordinator holds one [`TwinKey`]: a secret
//! `k ∈ [1, 2^128)`, a secret vector `ρ ∈ F_rⁿ`, and the twin bases
//! `Tᵢ = k·Pᵢ + ρᵢ·G`. A job `Σ xᵢ·Pᵢ` is sent as `(P, T, x)`, the same
//! scalars over both base sets, and the pod returns
//! `(S1, S2) = (Σ xᵢ·Pᵢ, Σ xᵢ·Tᵢ)`. The coordinator accepts iff
//!
//! ```text
//! S2 == k·S1 + ⟨x, ρ⟩·G
//! ```
//!
//! which costs one 128-bit [`straus`] term, `n` field products and one
//! product off the key's table of `G` — constant in the MSM's size.
//! `ρ` is uniform, so every `Tᵢ` is a uniform group element whatever `k`
//! is: the pod's view `(P, T, x)` says nothing about `k`. A forged pair
//! `(S1 + D, S2 + D′)` passes only if `D′ = k·D`, i.e. only by guessing
//! `k`; a scaled pair `(c·S1, c·S2)` only if `(c − 1)·⟨x, ρ⟩ = 0`.
//! Points outside the prime-order subgroup are refused, so a small-order
//! component cannot test `k` modulo a small order (DESIGN.md §14).
//!
//! The fleet coordinator stands in for an honest pod's `S2` with
//! [`TwinKey::twin_msm`]. The twin bases are fixed per key, so a key made
//! with [`TwinKey::with_tables`] keeps a width-8 (`TWIN_NAF_WIDTH`)
//! [`StrausTable`] of them, built once per base as the key grows: 64
//! affine points per base, 147,456 bytes for 32 BN254 G1 bases (the
//! largest `fleet_serve` job). Each completion then costs one doubling chain and ≈ 28 mixed
//! additions per 254-bit scalar: 426 µs for 32 BN254 G1 terms against
//! 807 µs for a `straus` call over them (0.53×, 2-vCPU host), after a
//! one-off build of 1.7 ms. The table is built from `T` alone and
//! evaluated on `x` alone — never from `S1`, `k` or `ρ` — so it is what
//! an honest pod computes, and a wrong `S1` still fails the check.

use distmsm_ec::sample::generator_multiples;
use distmsm_ec::validate::in_prime_subgroup;
use distmsm_ec::{
    straus, Affine, Curve, FieldElement, FixedBaseTable, MsmInstance, Scalar, StrausTable,
    XyzzPoint,
};
use distmsm_gpu_sim::fault::splitmix64;
use rand::{rngs::StdRng, SeedableRng};

/// NAF width of a key's twin tables ([`TwinKey::with_tables`]): they are
/// built once per base and evaluated on every completion, so the width
/// is as wide as `i8` digits go (cost and bytes in the module docs).
const TWIN_NAF_WIDTH: u32 = 8;

/// The coordinator's secret for one base set: the multiplier `k`, the
/// offsets `ρ` and the twin bases they make. Never leaves the
/// coordinator except as the twin bases `T`, which are what a pod is
/// sent.
///
/// The base set is the generator multiples `[G, 2G, …, nG]` — the points
/// of every generated job — so `Tᵢ = (k·(i + 1) + ρᵢ)·G` is one
/// fixed-base product. `ρᵢ` depends only on the seed and `i`, so a key
/// grown by [`Self::extend_to`] is the same key over a longer prefix.
#[derive(Clone, Debug)]
pub struct TwinKey<C: Curve> {
    seed: u64,
    /// Secret multiplier `k ∈ [1, 2^128)`.
    k: C::Scalar,
    /// Secret offsets `ρᵢ ∈ F_r`, one per base.
    rho: Vec<C::ScalarField>,
    /// The base set `Pᵢ = (i + 1)·G`.
    bases: Vec<Affine<C>>,
    /// The twin bases `Tᵢ = k·Pᵢ + ρᵢ·G`.
    twins: Vec<Affine<C>>,
    /// Multiples of `G`, for `⟨x, ρ⟩·G` and for growing the twins.
    g: FixedBaseTable<C>,
    /// Odd multiples of every twin base, for [`Self::twin_msm`]; `None`
    /// on a key that never stands in for a pod's twin.
    tables: Option<StrausTable<C, TWIN_NAF_WIDTH>>,
}

impl<C: Curve> TwinKey<C> {
    /// Derives the key of the first `n` generator multiples from `seed`.
    /// Same `(seed, n)` → bit-identical key, so soak runs replay exactly
    /// and a restored coordinator re-derives the key it crashed with.
    pub fn generate(seed: u64, n: usize) -> Self {
        let mut state = seed ^ 0x7a1e_b45e_2620_0001;
        let (lo, hi) = (splitmix64(&mut state), splitmix64(&mut state));
        let lo = if lo == 0 && hi == 0 { 1 } else { lo };
        let field = |v: u64| C::scalar_to_field(&C::Scalar::from_u64(v));
        let two_32 = field(1 << 32);
        let mut key = Self {
            seed,
            k: C::field_to_scalar(&(field(hi) * two_32 * two_32 + field(lo))),
            rho: Vec::new(),
            bases: Vec::new(),
            twins: Vec::new(),
            g: FixedBaseTable::new(&C::generator()),
            tables: None,
        };
        key.extend_to(n);
        key
    }

    /// The key with tables of its twin bases, kept as [`Self::extend_to`]
    /// grows it: what the fleet coordinator holds, since it evaluates
    /// [`Self::twin_msm`] on every completion.
    pub fn with_tables(mut self) -> Self {
        let twins: Vec<_> = self.twins.iter().map(Affine::to_xyzz).collect();
        self.tables = Some(StrausTable::new(&twins));
        self
    }

    /// Grows the base set to the first `n` generator multiples (a no-op
    /// when the key already covers them), and its twin tables with it.
    pub fn extend_to(&mut self, n: usize) {
        let from = self.bases.len();
        if n <= from {
            return;
        }
        let field = |v: u64| C::scalar_to_field(&C::Scalar::from_u64(v));
        let k = C::scalar_to_field(&self.k);
        let fresh: Vec<C::ScalarField> = (from..n)
            .map(|i| {
                let mut state = self.seed ^ 0x9e37_79b9_0000_0000 ^ i as u64;
                C::ScalarField::random(&mut StdRng::seed_from_u64(splitmix64(&mut state)))
            })
            .collect();
        let scalars: Vec<C::Scalar> = fresh
            .iter()
            .zip(from..n)
            .map(|(rho, i)| C::field_to_scalar(&(k * field(i as u64 + 1) + *rho)))
            .collect();
        let twins = self.g.mul_many(&scalars);
        if let Some(tables) = &mut self.tables {
            tables.extend(&twins.iter().map(Affine::to_xyzz).collect::<Vec<_>>());
        }
        self.twins.extend(twins);
        self.rho.extend(fresh);
        self.bases = generator_multiples(n);
    }

    /// Does the key hold twins for `points` placed at index `lo` of its
    /// base set? A job that is not on the key's bases has no twin query.
    pub fn covers(&self, lo: usize, points: &[Affine<C>]) -> bool {
        let hi = lo.saturating_add(points.len());
        self.bases.get(lo..hi).is_some_and(|bases| bases == points)
    }

    /// The twin query of `instance`, whose points sit at `[lo, lo + n)`
    /// of the base set: the twin bases there with the same scalars, what
    /// a pod executes for `S2`. `None` when the key does not cover them.
    pub fn twin_query(&self, lo: usize, instance: &MsmInstance<C>) -> Option<MsmInstance<C>> {
        self.covers(lo, &instance.points).then(|| MsmInstance {
            points: self.twins[lo..lo + instance.len()].to_vec(),
            scalars: instance.scalars.clone(),
        })
    }

    /// `S2 = Σ xᵢ·Tᵢ` of `instance` at `[lo, lo + n)` of the base set —
    /// what an honest pod returns beside `S1` — off the key's twin
    /// tables. It reads the twin bases and the scalars only, never `k`
    /// or `ρ`. `None` when the key does not cover the points or holds no
    /// tables ([`Self::with_tables`]).
    pub fn twin_msm(&self, lo: usize, instance: &MsmInstance<C>) -> Option<XyzzPoint<C>> {
        let tables = self.tables.as_ref()?;
        self.covers(lo, &instance.points).then(|| tables.msm(lo, &instance.scalars))
    }

    /// The acceptance predicate for the pair a pod returned for
    /// `instance` at `[lo, lo + n)` of the base set:
    /// `s2 == k·s1 + ⟨x, ρ⟩·G`, with both points in the prime-order
    /// subgroup. An instance the key does not cover is never accepted.
    pub fn verify(&self, lo: usize, instance: &MsmInstance<C>, pair: &OutsourcedResult<C>) -> bool {
        if !self.covers(lo, &instance.points) || !in_subgroup(&pair.r1) || !in_subgroup(&pair.r2) {
            return false;
        }
        let rho = &self.rho[lo..lo + instance.len()];
        let dot = instance
            .scalars
            .iter()
            .zip(rho)
            .fold(C::ScalarField::zero(), |acc, (x, r)| acc + C::scalar_to_field(x) * *r);
        let rhs = straus(&[(pair.r1, self.k)]).padd(&self.g.mul(&C::field_to_scalar(&dot)));
        // projective equality: no inversion on either side
        rhs == pair.r2
    }
}

/// Is `p` in the prime-order subgroup? Free where the cofactor is 1
/// (BN254 G1, MNT4-753 G1); one inversion and one product elsewhere.
fn in_subgroup<C: Curve>(p: &XyzzPoint<C>) -> bool {
    C::COFACTOR_IS_ONE || in_prime_subgroup(&p.to_affine())
}

/// The pair a pod returns for one outsourced job: the real result and
/// its twin over the twin bases.
#[derive(Clone, Copy, Debug)]
pub struct OutsourcedResult<C: Curve> {
    /// `S1 = Σ xᵢ·Pᵢ` — the result the coordinator wants.
    pub r1: XyzzPoint<C>,
    /// `S2 = Σ xᵢ·Tᵢ` — the twin, checked against `k·S1 + ⟨x, ρ⟩·G`.
    pub r2: XyzzPoint<C>,
}

impl<C: Curve> OutsourcedResult<C> {
    /// Applies a byzantine corruption model to an (honest) result pair.
    ///
    /// `swap_source` is the pair substituted wholesale under
    /// [`Corruption::SwappedShard`] — another job's (or shard's) proof
    /// pair, which satisfies the check on its own scalars but not on
    /// these.
    pub fn corrupted(&self, class: Corruption, swap_source: &OutsourcedResult<C>) -> Self {
        let g = C::generator().to_xyzz();
        match class {
            // An in-flight bit flip lands the partial on a different
            // point; `+G` is the curve-generic stand-in.
            Corruption::BitFlip => Self { r1: self.r1.padd(&g), r2: self.r2 },
            Corruption::SwappedShard => *swap_source,
            Corruption::ZeroPartial => Self {
                r1: XyzzPoint::identity(),
                r2: XyzzPoint::identity(),
            },
            // The multiplier the pod reads off its query, the ratio of
            // the twin's scalars to the real ones, is 1 on twin bases.
            Corruption::AdaptiveShift => Self { r1: self.r1.padd(&g), r2: self.r2.padd(&g) },
        }
    }
}

/// Byzantine corruption classes a pod can inflict on a returned pair.
/// All must be *detected* by [`TwinKey::verify`] — a failure class on
/// top of the fail-stop faults the engine's supervisor recovers from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// The returned `S1` is off by one generator (an in-flight or
    /// in-memory bit flip).
    BitFlip,
    /// The pod returns a different job's (valid-looking) result pair.
    SwappedShard,
    /// The pod skipped the work and returned the identity for both.
    ZeroPartial,
    /// The pod estimates the twin's secret multiplier `λ` from its query
    /// (the ratio of the twin's scalars to the real ones) and returns
    /// `(S1 + D, S2 + λ·D)` with `D = G`.
    AdaptiveShift,
}

impl Corruption {
    /// Every corruption class, for sweeps and proptests.
    pub const ALL: [Corruption; 4] = [
        Corruption::BitFlip,
        Corruption::SwappedShard,
        Corruption::ZeroPartial,
        Corruption::AdaptiveShift,
    ];

    /// Stable label used in events, reports and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            Corruption::BitFlip => "bit-flip",
            Corruption::SwappedShard => "swapped-shard",
            Corruption::ZeroPartial => "zero-partial",
            Corruption::AdaptiveShift => "adaptive-shift",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::{Bls12377G1, Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
    use distmsm_ec::sample::points_by_x;
    use distmsm_ec::validate::order_minus_one;
    use distmsm_ec::SqrtField;

    /// The acceptance equation by double-and-add, without the subgroup
    /// check: `s2 == k·s1 + ⟨x, ρ⟩·G`.
    fn double_and_add_predicate<C: Curve>(
        key: &TwinKey<C>,
        lo: usize,
        scalars: &[C::Scalar],
        pair: &OutsourcedResult<C>,
    ) -> bool {
        let dot = scalars
            .iter()
            .zip(&key.rho[lo..])
            .fold(C::ScalarField::zero(), |acc, (x, r)| acc + C::scalar_to_field(x) * *r);
        let offset = C::generator().scalar_mul(&C::field_to_scalar(&dot));
        pair.r1.scalar_mul(&key.k).padd(&offset) == pair.r2
    }

    /// The twins are `k·Pᵢ + ρᵢ·G` by double-and-add, `k` is nonzero and
    /// under 2^128, and a key grown by `extend_to` in uneven steps is the
    /// key generated at the larger size, twin tables included; a key
    /// made without tables builds none.
    fn twins_are_the_construction<C: Curve>() {
        let mut grown = TwinKey::<C>::generate(7, 0).with_tables();
        for n in [5, 9, 24, 5] {
            grown.extend_to(n);
        }
        let key = TwinKey::<C>::generate(7, 24);
        assert_eq!((grown.bases.len(), grown.twins.clone()), (24, key.twins.clone()));
        assert!(key.tables.is_none());
        assert!(grown.tables == key.clone().with_tables().tables);
        assert!(key.k.num_bits() > 0 && key.k.num_bits() <= 128);
        for (i, twin) in key.twins.iter().enumerate() {
            let rho = C::generator().scalar_mul(&C::field_to_scalar(&key.rho[i]));
            let want = key.bases[i].scalar_mul(&key.k).padd(&rho);
            assert!(twin.to_xyzz() == want, "{} twin {i}", C::NAME);
        }
    }

    #[test]
    fn twins_are_the_construction_on_every_group() {
        twins_are_the_construction::<Bn254G1>();
        twins_are_the_construction::<Bls12377G1>();
        twins_are_the_construction::<Bls12381G1>();
        twins_are_the_construction::<Mnt4753G1>();
        twins_are_the_construction::<Bn254G2>();
    }

    /// `verify` gives the double-and-add predicate's verdict on honest,
    /// corrupted, random and degenerate pairs.
    fn verdicts_match_double_and_add<C: Curve>(seed: u64, n: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let key = TwinKey::<C>::generate(seed, n + 2);
        let lo = 2;
        let mut instance = MsmInstance::<C>::random(n + 2, &mut rng);
        instance.points.drain(..lo);
        instance.scalars.drain(..lo);
        let twin = key.twin_query(lo, &instance).expect("on the key's bases");
        let honest =
            OutsourcedResult { r1: instance.reference_result(), r2: twin.reference_result() };
        let mut random = || C::generator().scalar_mul(&C::random_scalar(&mut rng));
        let (a, b) = (random(), random());
        let id = XyzzPoint::identity();
        let mut cases = vec![honest, OutsourcedResult { r1: a, r2: b }];
        for (r1, r2) in [(a, id), (a, a), (a, a.neg()), (id, id), (id, a), (honest.r1, a)] {
            cases.push(OutsourcedResult { r1, r2 });
        }
        cases.extend(Corruption::ALL.map(|class| honest.corrupted(class, &cases[1])));
        for (i, pair) in cases.iter().enumerate() {
            let want = double_and_add_predicate(&key, lo, &instance.scalars, pair);
            assert_eq!(key.verify(lo, &instance, pair), want, "case {i} on {}", C::NAME);
        }
        assert!(key.verify(lo, &instance, &honest));
    }

    #[test]
    fn verdicts_match_double_and_add_on_every_group() {
        verdicts_match_double_and_add::<Bn254G1>(2910, 5);
        verdicts_match_double_and_add::<Bls12377G1>(2911, 5);
        verdicts_match_double_and_add::<Bls12381G1>(2912, 5);
        verdicts_match_double_and_add::<Mnt4753G1>(2913, 2);
        verdicts_match_double_and_add::<Bn254G2>(2914, 3);
    }

    /// Where the cofactor is not 1, a pod can add a component `E` of
    /// small order to both points: `(S1 + E, S2 + c·E)` satisfies the
    /// equation whenever `c ≡ k` modulo `E`'s order. Shown here with the
    /// secret `c = k` itself: the equation holds, and only the subgroup
    /// check rejects the pair.
    fn off_subgroup_components_are_rejected<C: Curve>()
    where
        C::Base: SqrtField,
    {
        let q = points_by_x::<C>(8, 3)
            .into_iter()
            .find(|q| !in_prime_subgroup(q))
            .expect("a point outside the prime-order subgroup");
        // r·Q: its order divides the cofactor
        let e = q.scalar_mul(&order_minus_one::<C>()).padd(&q.to_xyzz());
        assert!(!e.is_identity());
        let mut rng = StdRng::seed_from_u64(31);
        let key = TwinKey::<C>::generate(31, 4);
        let instance = MsmInstance::<C>::random(4, &mut rng);
        let twin = key.twin_query(0, &instance).expect("on the key's bases");
        let honest =
            OutsourcedResult { r1: instance.reference_result(), r2: twin.reference_result() };
        let forged =
            OutsourcedResult { r1: honest.r1.padd(&e), r2: honest.r2.padd(&e.scalar_mul(&key.k)) };
        assert!(double_and_add_predicate(&key, 0, &instance.scalars, &forged));
        assert!(!key.verify(0, &instance, &forged), "{}", C::NAME);
        assert!(key.verify(0, &instance, &honest));
    }

    #[test]
    fn off_subgroup_components_are_rejected_where_the_cofactor_is_not_one() {
        off_subgroup_components_are_rejected::<Bls12377G1>();
        off_subgroup_components_are_rejected::<Bls12381G1>();
        off_subgroup_components_are_rejected::<Bn254G2>();
    }
}
