//! Batched affine addition (the sppark/Yrrid "batch addition" technique,
//! §6: one of the ZPrize optimisations DistMSM adopts).
//!
//! Adding two affine points costs one field inversion — prohibitive alone,
//! but amortisable: Montgomery's trick inverts `n` denominators with one
//! inversion and `3(n−1)` multiplications. Summing a large set of points
//! in pairing rounds with one batched inversion per round makes the
//! *affine* formula (6 multiplications per add, independent across the
//! pairs of a round, vs the 10 latency-chained ones of XYZZ PACC) the
//! better accumulator for large buckets. [`BatchAccumulator`] is that
//! kernel; `distmsm`'s host bucket-sum and [`sum_affine_batched`] both
//! run on it.

use crate::curve::{Affine, Curve, XyzzPoint};
use crate::traits::FieldElement;

/// Most points a [`BatchAccumulator`] holds before it reduces them — the
/// bound on its scratch (1024 BLS12-381 points with their denominators
/// and running products: 152 KB per host worker).
///
/// A full scratch makes a round of ≈ `GROUP_POINTS / 2` pairs, so the
/// group sets how many adds share one inversion; what it costs is resident
/// memory on sliced MSMs. Measured on the repo benchmark against the
/// PACC-only engine (`msm_bn254_64k` `op_ms_p50` / `msm_bls381_sliced`
/// `peak_rss_mb`, medians of 3 and 5 runs): 512 → −22 % / +3 %,
/// 1024 → −27 % / +4 %, 2048 → −30 % / +20 %, 4096 → −32 % / +40 %.
/// 1024 is the last size before memory grows faster than time shrinks,
/// and keeps the 25 %-bounded `peak_rss_mb` far from its bound.
const GROUP_POINTS: usize = 1024;

/// Fewest pairs for which a round's shared inversion pays for itself.
///
/// A batched add spends 6 field multiplies where PACC spends 10, and a
/// BN254 base-field inversion costs ≈ 520 multiplies
/// (`ff.fp_inverse_us.l4` 10.9 µs over `ff.mont_mul_cios_ns.l4` 21 ns), so
/// a round breaks even at 520 / 4 = 130 pairs. The optimum is flat: 32,
/// 64, 128 and 256 measured within 2 % of each other on all three MSM
/// workloads, because a full scratch almost always offers several hundred
/// pairs and the cut-over only decides the last few rounds of a slice.
/// Below it everything goes to PACC, which is why a slice of a few dozen
/// points never inverts at all.
const MIN_ROUND_PAIRS: usize = 128;

/// Inverts every nonzero element in place with a single field inversion
/// (zeros are left untouched). Returns the number of inverted elements.
pub fn batch_inverse<F: FieldElement>(values: &mut [F]) -> usize {
    batch_inverse_with(values, &mut Vec::with_capacity(values.len()))
}

/// [`batch_inverse`] on caller scratch: `prefix` is overwritten with the
/// running products.
///
/// Even and odd elements keep separate running products. One product is a
/// chain in which every multiply waits for the one before it; two
/// interleaved chains overlap in the core (a batched BN254 round measured
/// 8 % faster with two, no faster with four). The results are the exact
/// inverses either way.
fn batch_inverse_with<F: FieldElement>(values: &mut [F], prefix: &mut Vec<F>) -> usize {
    prefix.clear();
    let mut acc = [F::one(); 2];
    for (i, v) in values.iter().enumerate() {
        prefix.push(acc[i % 2]);
        if !v.is_zero() {
            acc[i % 2] *= *v;
        }
    }
    let both = (acc[0] * acc[1])
        .inverse()
        .expect("a product of nonzero field elements is nonzero");
    let mut inv = [both * acc[1], both * acc[0]];
    let mut count = 0;
    for (i, (v, p)) in values.iter_mut().zip(prefix.iter()).enumerate().rev() {
        if v.is_zero() {
            continue;
        }
        let d = *v;
        *v = inv[i % 2] * *p;
        inv[i % 2] *= d;
        count += 1;
    }
    count
}

/// The denominator of the affine chord/tangent slope of `a + b`: `x₂ − x₁`
/// for distinct-x pairs, `2y` for doublings, and zero — which
/// [`batch_inverse`] skips — when the sum needs no slope (an identity
/// operand, or `P + (−P)`).
fn pair_denominator<C: Curve>(a: &Affine<C>, b: &Affine<C>) -> C::Base {
    if a.infinity || b.infinity {
        C::Base::zero()
    } else if a.x != b.x {
        b.x - a.x
    } else if a.y == b.y {
        a.y.double() // zero for a 2-torsion point, whose double is the identity
    } else {
        C::Base::zero()
    }
}

/// `a + b` given `inv`, the inverse of [`pair_denominator`] (unread when
/// that was zero). Identity operands, doubling and cancellation are
/// resolved here — the rare-case branch of a GPU batch-addition kernel.
fn add_with_inverse<C: Curve>(a: &Affine<C>, b: &Affine<C>, inv: &C::Base) -> Affine<C> {
    if a.infinity {
        return *b;
    }
    if b.infinity {
        return *a;
    }
    let lambda = if a.x != b.x {
        (b.y - a.y) * *inv
    } else if a.y == b.y && !a.y.is_zero() {
        // doubling: (3x² + a)/(2y)
        let mut num = a.x.square();
        num = num.double() + num;
        if !C::A_IS_ZERO {
            num += C::a();
        }
        num * *inv
    } else {
        return Affine::identity(); // P + (−P)
    };
    let x3 = lambda.square() - a.x - b.x;
    let y3 = lambda * (a.x - x3) - a.y;
    Affine::new_unchecked(x3, y3)
}

/// Adds affine pairs with one *shared* inversion: `out[i] = a[i] + b[i]`.
/// Exceptional cases (identity operands, doubling, cancellation) are
/// handled inside the batch.
pub fn batch_add_pairs<C: Curve>(pairs: &[(Affine<C>, Affine<C>)]) -> Vec<Affine<C>> {
    let mut denoms: Vec<C::Base> = pairs.iter().map(|(a, b)| pair_denominator(a, b)).collect();
    batch_inverse(&mut denoms);
    pairs
        .iter()
        .zip(&denoms)
        .map(|((a, b), inv)| add_with_inverse(a, b, inv))
        .collect()
}

/// Sums runs of affine points into XYZZ accumulators through at most
/// `GROUP_POINTS` (1024) points of reusable scratch.
///
/// Points queue run by run (a run: consecutive [`add`](Self::add)s to one
/// slot). When the scratch is full, one *round* adds every run's points in
/// adjacent pairs with a single inversion shared by all pairs, compacting
/// in place (an odd point out is carried; a cancelling pair leaves an
/// identity behind, which later rounds add like any operand). A run that
/// is down to one point is folded into its accumulator and leaves the
/// scratch; the room is refilled with new points, so rounds stay full
/// while earlier runs keep halving beside later ones. Whenever a round
/// would have fewer than `MIN_ROUND_PAIRS` (128) pairs, every queued point is
/// folded with [`XyzzPoint::pacc`] instead — so a job too small for a
/// single round is a plain PACC chain in input order.
///
/// What is paired with what depends only on the sequence of `add` calls
/// since the last [`flush`](Self::flush), never on the scratch's capacity
/// or history: the same sequence gives the same XYZZ coordinates on a
/// fresh and on a reused accumulator.
#[derive(Debug)]
pub struct BatchAccumulator<C: Curve> {
    /// Queued points, run after run.
    points: Vec<Affine<C>>,
    /// `(slot, queued points)` per run, in `points` order.
    runs: Vec<(usize, usize)>,
    /// One slope denominator per pair of the current round, then its inverse.
    denoms: Vec<C::Base>,
    /// Running products of [`batch_inverse_with`].
    prefix: Vec<C::Base>,
}

impl<C: Curve> Default for BatchAccumulator<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C: Curve> BatchAccumulator<C> {
    /// An accumulator with no scratch allocated yet.
    pub fn new() -> Self {
        Self {
            points: Vec::new(),
            runs: Vec::new(),
            denoms: Vec::new(),
            prefix: Vec::new(),
        }
    }

    /// Sizes the scratch for a job of `points` points, exactly: room for
    /// `min(points, GROUP_POINTS)` points and one denominator and one
    /// running product per pair of them. Never shrinks.
    pub fn reserve(&mut self, points: usize) {
        fn reserve_total<T>(v: &mut Vec<T>, total: usize) {
            v.reserve_exact(total.saturating_sub(v.len()));
        }
        let group = points.min(GROUP_POINTS);
        reserve_total(&mut self.points, group);
        reserve_total(&mut self.denoms, group / 2);
        reserve_total(&mut self.prefix, group / 2);
    }

    /// Queues `point` for `sums[slot]`, making room first if the scratch
    /// is full.
    pub fn add(&mut self, sums: &mut [XyzzPoint<C>], slot: usize, point: Affine<C>) {
        if self.points.len() == GROUP_POINTS {
            if self.pairs() >= MIN_ROUND_PAIRS {
                self.round(sums);
            } else {
                self.fold(sums);
            }
        }
        match self.runs.last_mut() {
            Some((last, len)) if *last == slot => *len += 1,
            _ => self.runs.push((slot, 1)),
        }
        self.points.push(point);
    }

    /// Sums everything queued into `sums`, leaving the accumulator empty
    /// (and its scratch allocated).
    pub fn flush(&mut self, sums: &mut [XyzzPoint<C>]) {
        while self.pairs() >= MIN_ROUND_PAIRS {
            self.round(sums);
        }
        self.fold(sums);
    }

    /// Pairs the next round would add.
    fn pairs(&self) -> usize {
        self.runs.iter().map(|&(_, len)| len / 2).sum()
    }

    /// PACCs every queued point into its accumulator, in queue order.
    fn fold(&mut self, sums: &mut [XyzzPoint<C>]) {
        let mut at = 0;
        for &(slot, len) in &self.runs {
            let sum = &mut sums[slot];
            for p in &self.points[at..at + len] {
                sum.pacc(p);
            }
            at += len;
        }
        self.points.clear();
        self.runs.clear();
    }

    /// Halves every run with one shared inversion; runs left with a single
    /// point are folded into `sums` and dropped.
    fn round(&mut self, sums: &mut [XyzzPoint<C>]) {
        self.denoms.clear();
        let mut at = 0;
        for &(_, len) in &self.runs {
            let run = &self.points[at..at + len];
            self.denoms
                .extend(run.chunks_exact(2).map(|p| pair_denominator(&p[0], &p[1])));
            at += len;
        }
        batch_inverse_with(&mut self.denoms, &mut self.prefix);

        // add the pairs, compacting in place: `write` never passes `read`
        let (mut read, mut write) = (0, 0);
        let mut inverses = self.denoms.iter();
        let points = &mut self.points;
        self.runs.retain_mut(|(slot, len)| {
            let start = write;
            for _ in 0..*len / 2 {
                let inv = inverses.next().expect("one inverse per pair");
                points[write] = add_with_inverse(&points[read], &points[read + 1], inv);
                read += 2;
                write += 1;
            }
            if *len % 2 == 1 {
                points[write] = points[read];
                read += 1;
                write += 1;
            }
            *len = write - start;
            if *len == 1 {
                sums[*slot].pacc(&points[start]);
                write = start;
            }
            *len > 1
        });
        points.truncate(write);
    }
}

/// Sums a set of affine points on a [`BatchAccumulator`]: batched rounds
/// while they pay, a PACC fold for the rest.
pub fn sum_affine_batched<C: Curve>(points: &[Affine<C>]) -> XyzzPoint<C> {
    let mut sum = [XyzzPoint::identity()];
    let mut acc = BatchAccumulator::new();
    acc.reserve(points.len());
    for p in points {
        acc.add(&mut sum, 0, *p);
    }
    acc.flush(&mut sum);
    sum[0]
}

/// Field multiplications per batched affine add: 3 amortised from the
/// shared inversion plus λ, λ² and y₃ — vs the 10 of PACC. The quantity
/// the ablation bench reports.
pub fn batched_muls_per_point() -> f64 {
    3.0 + 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{Bn254G1, Mnt4753G1};
    use crate::sample::generator_multiples;
    use crate::traits::Scalar;
    use distmsm_ff::params::FqBn254;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn batch_inverse_matches_individual() {
        let mut rng = StdRng::seed_from_u64(910);
        let mut vals: Vec<FqBn254> = (0..17).map(|_| FqBn254::random(&mut rng)).collect();
        vals[3] = FqBn254::ZERO;
        vals[11] = FqBn254::ZERO;
        let expect: Vec<FqBn254> = vals
            .iter()
            .map(|v| v.inverse().unwrap_or(FqBn254::ZERO))
            .collect();
        let n = batch_inverse(&mut vals);
        assert_eq!(n, 15);
        assert_eq!(vals, expect);
    }

    #[test]
    fn batch_inverse_all_zero() {
        let mut vals = vec![FqBn254::ZERO; 4];
        assert_eq!(batch_inverse(&mut vals), 0);
        assert!(vals.iter().all(FqBn254::is_zero));
    }

    #[test]
    fn pairs_match_generic_addition() {
        let pts = generator_multiples::<Bn254G1>(16);
        let g = Bn254G1::generator();
        let pairs: Vec<_> = (0..8).map(|i| (pts[i], pts[15 - i])).collect();
        let sums = batch_add_pairs(&pairs);
        for ((a, b), s) in pairs.iter().zip(&sums) {
            assert_eq!(a.to_xyzz().padd(&b.to_xyzz()).to_affine(), *s);
        }
        // exceptional pairs: identity, doubling, cancellation
        let exc = vec![
            (Affine::identity(), g),
            (g, Affine::identity()),
            (g, g),
            (g, g.neg()),
        ];
        let sums = batch_add_pairs(&exc);
        assert_eq!(sums[0], g);
        assert_eq!(sums[1], g);
        assert_eq!(sums[2], g.to_xyzz().pdbl().to_affine());
        assert!(sums[3].is_identity());
    }

    #[test]
    fn batched_sum_matches_sequential() {
        // 300 and 2500 reach batched rounds; 2500 also refills the scratch
        for n in [1usize, 2, 7, 33, 100, 300, 2500] {
            let pts = generator_multiples::<Bn254G1>(n);
            let batched = sum_affine_batched(&pts);
            let total: u64 = (1..=n as u64).sum();
            assert_eq!(
                batched,
                Bn254G1::generator().scalar_mul(&Scalar::from_u64(total)),
                "n={n}"
            );
        }
    }

    #[test]
    fn batched_sum_nonzero_a_curve() {
        // doubling in the batch path must include the `a` coefficient
        let g = Mnt4753G1::generator();
        let pts = vec![g, g, g, g];
        assert_eq!(
            sum_affine_batched(&pts),
            g.scalar_mul(&Scalar::from_u64(4))
        );
    }

    #[test]
    fn empty_sum_is_identity() {
        assert!(sum_affine_batched::<Bn254G1>(&[]).is_identity());
    }
}
