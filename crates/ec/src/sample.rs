//! Deterministic generation of MSM test instances.
//!
//! The paper's evaluation feeds MSMs with `N` curve points and `N` random
//! λ-bit scalars. Points here are generated as consecutive multiples of
//! the generator (cheap: a PACC chain for the first block, then one
//! shared-inversion batched add per point of every later block, spread
//! over the host's cores), or — for curves whose base field supports
//! square roots — by solving the curve equation at incrementing
//! x-coordinates.

use crate::batch::{batch_add_pairs_into, GROUP_POINTS};
use crate::curve::{Affine, Curve, XyzzPoint};
use crate::par::{fill_in_parts, host_parallelism};
use crate::traits::SqrtField;
use rand::Rng;

/// Returns `[G, 2G, …, nG]` as canonical affine points.
///
/// The first block of `GROUP_POINTS` (1024) multiples is a PACC chain
/// with one batched inversion; so are the block offsets `(r·1024)·G`.
/// Every later block is `offset + [G, …, 1024G]`: one batched affine add
/// per point (6 multiplies against PACC's 10) and one inversion per
/// block. Blocks are split across [`host_parallelism`] threads, and the
/// only `n`-sized buffer is the output itself.
pub fn generator_multiples<C: Curve>(n: usize) -> Vec<Affine<C>> {
    generator_multiples_on(n, host_parallelism())
}

/// `[P, 2P, …, count·P]` in affine form: one PACC each, one inversion.
fn chain<C: Curve>(p: &Affine<C>, count: usize) -> Vec<Affine<C>> {
    let mut acc = XyzzPoint::<C>::identity();
    let multiples: Vec<_> = (0..count)
        .map(|_| {
            acc.pacc(p);
            acc
        })
        .collect();
    XyzzPoint::batch_to_affine(&multiples)
}

/// [`generator_multiples`] on at most `workers` threads.
fn generator_multiples_on<C: Curve>(n: usize, workers: usize) -> Vec<Affine<C>> {
    let first = chain(&C::generator(), n.min(GROUP_POINTS));
    if n <= GROUP_POINTS {
        return first;
    }
    // offsets[r − 1] = (r·GROUP_POINTS)·G starts block r
    let offsets = chain(&first[GROUP_POINTS - 1], n.div_ceil(GROUP_POINTS) - 1);
    let scratch = || {
        let denoms = Vec::with_capacity(GROUP_POINTS);
        (denoms, Vec::with_capacity(GROUP_POINTS))
    };
    fill_in_parts(
        n,
        Affine::identity(),
        GROUP_POINTS,
        workers,
        scratch,
        |(denoms, prefix), start, part| {
            for (i, block) in part.chunks_mut(GROUP_POINTS).enumerate() {
                let r = start / GROUP_POINTS + i;
                let bases = &first[..block.len()];
                if r == 0 {
                    block.copy_from_slice(bases);
                } else {
                    let pairs = bases.iter().map(|b| (&offsets[r - 1], b));
                    batch_add_pairs_into(pairs, block, denoms, prefix);
                }
            }
        },
    )
}

/// Samples `n` distinct curve points by scanning x-coordinates from
/// `x_start` and solving `y² = x³ + ax + b`.
///
/// For curves with cofactor > 1 the results may fall outside the
/// prime-order subgroup; MSM correctness tests do not care (Pippenger is
/// an identity over the full group), but anything needing subgroup
/// elements should use [`generator_multiples`].
pub fn points_by_x<C>(n: usize, x_start: u64) -> Vec<Affine<C>>
where
    C: Curve,
    C::Base: SqrtField,
{
    use crate::traits::FieldElement;
    let mut out = Vec::with_capacity(n);
    let mut x = C::Base::one() * small::<C>(x_start);
    while out.len() < n {
        let rhs = x.square() * x + C::a() * x + C::b();
        if let Some(y) = rhs.sqrt() {
            if !y.is_zero() {
                out.push(Affine::new_unchecked(x, y));
            }
        }
        x += C::Base::one();
    }
    out
}

fn small<C: Curve>(v: u64) -> C::Base {
    use crate::traits::FieldElement;
    let mut acc = C::Base::zero();
    let one = C::Base::one();
    // v is tiny in practice (a starting offset); simple repeated doubling
    let mut bit = 63;
    while bit > 0 && (v >> bit) & 1 == 0 {
        bit -= 1;
    }
    for i in (0..=bit).rev() {
        acc = acc.double();
        if (v >> i) & 1 == 1 {
            acc += one;
        }
    }
    acc
}

/// A reproducible MSM instance: points plus scalars.
#[derive(Clone, Debug)]
pub struct MsmInstance<C: Curve> {
    /// The fixed point vector `P_i`.
    pub points: Vec<Affine<C>>,
    /// The scalar vector `k_i` (varies per proof in real ZKP workloads).
    pub scalars: Vec<C::Scalar>,
}

impl<C: Curve> MsmInstance<C> {
    /// Generates an instance of `n` generator multiples with uniformly
    /// random scalars drawn from `rng`.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let points = generator_multiples::<C>(n);
        let scalars = (0..n).map(|_| C::random_scalar(rng)).collect();
        Self { points, scalars }
    }

    /// Number of terms in the MSM.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the instance is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Reference result by per-term double-and-add (O(N·λ) PADDs — only for
    /// validation at small N).
    pub fn reference_result(&self) -> XyzzPoint<C> {
        let mut acc = XyzzPoint::identity();
        for (p, k) in self.points.iter().zip(&self.scalars) {
            acc = acc.padd(&p.scalar_mul(k));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{Bls12377G1, Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
    use crate::traits::Scalar;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn generator_multiples_are_consistent() {
        let pts = generator_multiples::<Bn254G1>(10);
        assert_eq!(pts.len(), 10);
        for (i, p) in pts.iter().enumerate() {
            assert!(p.is_on_curve());
            let expect = Bn254G1::generator().scalar_mul(&Scalar::from_u64(i as u64 + 1));
            assert_eq!(expect.to_affine(), *p);
        }
    }

    /// Block-batched multiples on 1, 2, 3 and 8 workers equal one PACC
    /// chain, at every length that moves a block boundary.
    fn multiples_equal_the_chain<C: Curve>() {
        let expect = chain(&C::generator(), 3073);
        for workers in [1, 2, 3, 8] {
            for n in [0, 1, 1023, 1024, 1025, 2049, 3073] {
                let got = generator_multiples_on::<C>(n, workers);
                assert!(got == expect[..n], "n {n} workers {workers}");
            }
        }
    }

    #[test]
    fn multiples_equal_the_chain_on_every_group() {
        multiples_equal_the_chain::<Bn254G1>();
        multiples_equal_the_chain::<Bn254G2>();
        multiples_equal_the_chain::<Bls12377G1>();
        multiples_equal_the_chain::<Bls12381G1>();
        multiples_equal_the_chain::<Mnt4753G1>();
    }

    #[test]
    fn generator_multiples_distinct() {
        let pts = generator_multiples::<Bls12381G1>(64);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                assert_ne!(pts[i], pts[j]);
            }
        }
    }

    #[test]
    fn points_by_x_on_curve() {
        let pts = points_by_x::<Bn254G1>(16, 1);
        assert_eq!(pts.len(), 16);
        for p in pts {
            assert!(p.is_on_curve());
        }
    }

    #[test]
    fn points_by_x_mnt4753() {
        let pts = points_by_x::<Mnt4753G1>(4, 1);
        for p in pts {
            assert!(p.is_on_curve());
        }
    }

    #[test]
    fn msm_instance_reference_small() {
        let mut rng = StdRng::seed_from_u64(42);
        let inst = MsmInstance::<Bn254G1>::random(8, &mut rng);
        let r = inst.reference_result();
        // brute-force check against naive accumulation of scalar_muls
        let mut acc = XyzzPoint::identity();
        for (p, k) in inst.points.iter().zip(&inst.scalars) {
            acc += p.scalar_mul(k);
        }
        assert_eq!(r, acc);
    }

    #[test]
    fn g2_instance_generation() {
        let mut rng = StdRng::seed_from_u64(43);
        let inst = MsmInstance::<Bn254G2>::random(4, &mut rng);
        assert_eq!(inst.len(), 4);
        for p in &inst.points {
            assert!(p.is_on_curve());
        }
    }
}
