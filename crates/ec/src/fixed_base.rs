//! Fixed-base scalar multiplication from a table of the base's multiples.
//!
//! The paper's §2.3.1 observation — the points of a zkSNARK are fixed per
//! circuit, so work that depends only on the base is paid once — at its
//! smallest scale: when *every* product has the same base (a trusted
//! setup multiplies the two generators a few thousand times each), the
//! doublings of double-and-add depend on the base alone. The table holds
//! them; a product is then the sum of one table entry per non-zero
//! `W`-bit digit of the scalar. [`FixedBaseTable::mul`] sums them with
//! PACC; [`FixedBaseTable::mul_many`] sums many products at once on the
//! batched-affine kernel, on every core.

use crate::batch::BatchAccumulator;
use crate::curve::{Affine, Curve, XyzzPoint};
use crate::par::{fill_in_parts, host_parallelism};
use crate::traits::Scalar;

/// Digit width. A product sums `⌈λ/W⌉` table entries and the table holds
/// `⌈λ/W⌉·(2^W − 1)` affine points, so each extra bit takes fewer
/// entries off a product and doubles the memory. At 6 bits the tables
/// are 190 KB (BN254 G1) and 360 KB (G2); 8 bits would cut a BN254
/// product from 43 entries to 32 for about 1 MB more, held through the
/// whole setup. Measurements in DESIGN.md §23.
const W: u32 = 6;

/// Non-zero digits, i.e. table entries per row.
const ROW: usize = (1 << W) - 1;

/// Products per [`BatchAccumulator`] flush and per
/// [`XyzzPoint::batch_to_affine`] in [`FixedBaseTable::mul_many`], and
/// the unit its workers split the query in. The XYZZ sums of a chunk are
/// 64 KB on BN254 G2 however long the query; the one inversion a chunk's
/// normalisation costs is under 1 % of its ≈ 11 000 batched adds; and a
/// worker's part is whole chunks, so a query of one chunk runs on the
/// calling thread alone.
const CHUNK: usize = 256;

/// Fewest chunks per worker in [`FixedBaseTable::mul_many`]. A worker's
/// scratch is fixed — a full [`BatchAccumulator`] and one chunk of sums,
/// 164 KB on BN254 G1 and 303 KB on G2, about nine chunks of output — so
/// the query's length, not the host's core count, caps the workers: the
/// scratch is at most ≈ 2.2 times the output however many cores there
/// are.
const PART_CHUNKS: usize = 4;

/// The multiples `d·2^{W·row}·B` of one base `B`, for every digit
/// `1 ≤ d < 2^W` and every row of a `λ`-bit scalar.
#[derive(Clone, Debug)]
pub struct FixedBaseTable<C: Curve> {
    /// Row after row, `ROW` entries each; entry `d − 1` of a row is `d`
    /// times the row's base.
    multiples: Vec<Affine<C>>,
}

impl<C: Curve> FixedBaseTable<C> {
    /// Builds the table of `base`: `2^W` PACCs and one shared inversion
    /// per row, so the XYZZ scratch never exceeds one row.
    pub fn new(base: &Affine<C>) -> Self {
        let rows = C::SCALAR_BITS.div_ceil(W) as usize;
        let mut multiples = Vec::with_capacity(rows * ROW);
        let mut row_base = *base;
        let mut row = Vec::with_capacity(ROW + 1);
        for _ in 0..rows {
            // 1·, 2·, …, 2^W· the row's base; the last is the next row's base
            row.clear();
            let mut acc = XyzzPoint::identity();
            for _ in 0..=ROW {
                acc.pacc(&row_base);
                row.push(acc);
            }
            let affine = XyzzPoint::batch_to_affine(&row);
            multiples.extend_from_slice(&affine[..ROW]);
            row_base = affine[ROW];
        }
        Self { multiples }
    }

    /// The table entries that sum to `k·B`, one per non-zero digit;
    /// panics as [`Self::mul`] does.
    fn entries(&self, k: C::Scalar) -> impl Iterator<Item = &Affine<C>> {
        let rows = self.multiples.len() / ROW;
        assert!(
            k.num_bits() as usize <= rows * W as usize,
            "{}-bit scalar on a {}-bit fixed-base table",
            k.num_bits(),
            rows * W as usize
        );
        let by_row = self.multiples.chunks_exact(ROW).enumerate();
        by_row.filter_map(move |(row, multiples)| {
            let digit = k.window(row as u32 * W, W) as usize;
            (digit != 0).then(|| &multiples[digit - 1])
        })
    }

    /// `k·B`: at most one PACC per row and no doubling — the plain chain
    /// [`Self::mul_many`] must agree with.
    ///
    /// # Panics
    ///
    /// Panics if `k` is wider than the table's `⌈λ/W⌉·W` bits. Every
    /// canonical scalar (`k < r`) fits; a raw limb pattern above that is
    /// rejected rather than truncated.
    pub fn mul(&self, k: &C::Scalar) -> XyzzPoint<C> {
        let mut acc = XyzzPoint::identity();
        for entry in self.entries(*k) {
            acc.pacc(entry);
        }
        acc
    }

    /// `k·B` for every `k`, in canonical affine form, on every host core.
    ///
    /// Each product's table entries queue as one run of a
    /// [`BatchAccumulator`] (6 multiplies per add against PACC's 10); every
    /// `CHUNK` products the accumulator is flushed and the chunk
    /// normalised with one inversion. Workers own contiguous runs of whole
    /// chunks of the output, at least `PART_CHUNKS` each; the products are
    /// canonical affine points, so no byte of the result depends on how
    /// the query was split.
    ///
    /// # Panics
    ///
    /// As [`Self::mul`].
    pub fn mul_many(&self, scalars: &[C::Scalar]) -> Vec<Affine<C>> {
        let most = scalars.len().div_ceil(CHUNK) / PART_CHUNKS;
        self.mul_many_on(scalars, host_parallelism().min(most))
    }

    /// [`Self::mul_many`] on at most `workers` threads.
    fn mul_many_on(&self, scalars: &[C::Scalar], workers: usize) -> Vec<Affine<C>> {
        let scratch = || {
            let mut acc = BatchAccumulator::new();
            acc.reserve(CHUNK * ROW);
            let chunk = CHUNK.min(scalars.len());
            (acc, Vec::with_capacity(chunk), Vec::with_capacity(chunk))
        };
        fill_in_parts(
            scalars.len(),
            Affine::identity(),
            CHUNK,
            workers,
            scratch,
            |(acc, sums, prefix), first, part| {
                let queries = scalars[first..].chunks(CHUNK);
                for (products, ks) in part.chunks_mut(CHUNK).zip(queries) {
                    sums.clear();
                    sums.resize(ks.len(), XyzzPoint::identity());
                    for (slot, k) in ks.iter().enumerate() {
                        for entry in self.entries(*k) {
                            acc.add(sums, slot, *entry);
                        }
                    }
                    acc.flush(sums);
                    XyzzPoint::batch_to_affine_into(sums, products, prefix);
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{Bls12377G1, Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
    use crate::validate::order_minus_one;
    use distmsm_ff::Uint;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// A table over `j·G` (a non-generator base unless `j` is 1) against
    /// double-and-add, on random canonical scalars.
    fn agrees_with_double_and_add<C: Curve>(j: u64, seed: u64) {
        let base = C::generator()
            .scalar_mul(&C::Scalar::from_u64(j))
            .to_affine();
        let table = FixedBaseTable::new(&base);
        let mut rng = StdRng::seed_from_u64(seed);
        let scalars: Vec<_> = (0..5).map(|_| C::random_scalar(&mut rng)).collect();
        let expected: Vec<_> = scalars.iter().map(|k| base.scalar_mul(k)).collect();
        for (k, e) in scalars.iter().zip(&expected) {
            assert_eq!(table.mul(k), *e);
        }
        let affine: Vec<_> = expected.iter().map(XyzzPoint::to_affine).collect();
        assert_eq!(table.mul_many(&scalars), affine);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn bn254_matches_scalar_mul(j in 1u64..1000, seed in any::<u64>()) {
            agrees_with_double_and_add::<Bn254G1>(j, seed);
        }

        #[test]
        fn bls12377_matches_scalar_mul(j in 1u64..1000, seed in any::<u64>()) {
            agrees_with_double_and_add::<Bls12377G1>(j, seed);
        }

        #[test]
        fn bls12381_matches_scalar_mul(j in 1u64..1000, seed in any::<u64>()) {
            agrees_with_double_and_add::<Bls12381G1>(j, seed);
        }

        #[test]
        fn mnt4753_matches_scalar_mul(j in 1u64..1000, seed in any::<u64>()) {
            agrees_with_double_and_add::<Mnt4753G1>(j, seed);
        }

        #[test]
        fn bn254_g2_matches_scalar_mul(j in 1u64..1000, seed in any::<u64>()) {
            agrees_with_double_and_add::<Bn254G2>(j, seed);
        }
    }

    /// Digit and row boundaries, and the widest limb pattern: equal to
    /// double-and-add where the rows cover it, a panic where they do not.
    fn edge_scalars<C: Curve<Scalar = Uint<N>>, const N: usize>() {
        let base = C::generator().scalar_mul(&Uint::from_u64(7)).to_affine();
        let table = FixedBaseTable::new(&base);
        for k in [
            Uint::ZERO,
            Uint::ONE,
            Uint::from_u64((1 << W) - 1),
            Uint::from_u64(1 << W),
            order_minus_one::<C>(),
        ] {
            assert_eq!(table.mul(&k), base.scalar_mul(&k), "{k:?}");
        }
        assert!(table.mul(&Uint::ZERO).is_identity());
        assert_eq!(table.mul(&order_minus_one::<C>()), base.neg().to_xyzz());

        if Uint::<N>::BITS <= C::SCALAR_BITS.div_ceil(W) * W {
            assert_eq!(table.mul(&Uint::MAX), base.scalar_mul(&Uint::MAX));
        } else {
            use std::panic::{catch_unwind, AssertUnwindSafe};
            let wide = catch_unwind(AssertUnwindSafe(|| table.mul(&Uint::MAX)));
            assert!(wide.is_err(), "a scalar wider than the rows is rejected");
        }
    }

    #[test]
    fn edge_scalars_on_every_curve() {
        edge_scalars::<Bn254G1, 4>();
        edge_scalars::<Bls12377G1, 4>();
        edge_scalars::<Bls12381G1, 4>();
        edge_scalars::<Mnt4753G1, 12>();
        edge_scalars::<Bn254G2, 4>();
    }

    /// Query lengths around the chunk and the worker split: 0, 1, one
    /// chunk and its neighbours, and two chunks per worker ± 1.
    fn lengths(workers: usize) -> [usize; 7] {
        let split = 2 * CHUNK * workers;
        [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, split - 1, split + 1]
    }

    /// `mul_many` on 1, 2, 3 and 8 workers equals `mul(k).to_affine()`
    /// element for element, on prefixes of one query whose lengths move a
    /// chunk or a worker boundary. The query is random canonical scalars
    /// with 0, 1, `r − 1` and a run of repeats inside the first chunk, a
    /// zero (an identity product: a slot no run reaches) at every fifth
    /// index of the first two chunks and at the last two slots of the
    /// first and the first slot of the second, and `r − 1` on both sides
    /// of those three.
    fn mul_many_equals_the_chain<C: Curve>(seed: u64) {
        let base = C::generator()
            .scalar_mul(&C::Scalar::from_u64(3))
            .to_affine();
        let table = FixedBaseTable::new(&base);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ks: Vec<_> = (0..=2 * CHUNK * 8)
            .map(|_| C::random_scalar(&mut rng))
            .collect();
        let minus_one = order_minus_one::<C>();
        for k in ks[..2 * CHUNK].iter_mut().step_by(5) {
            *k = C::Scalar::zero();
        }
        ks[CHUNK - 2..=CHUNK].fill(C::Scalar::zero());
        ks[CHUNK - 3] = minus_one;
        ks[CHUNK + 1] = minus_one;
        ks[..3].copy_from_slice(&[C::Scalar::zero(), C::Scalar::from_u64(1), minus_one]);
        let repeated = ks[4];
        ks[6..9].fill(repeated);
        let expect: Vec<_> = ks.iter().map(|k| table.mul(k).to_affine()).collect();
        for workers in [1, 2, 3, 8] {
            for n in lengths(workers) {
                let got = table.mul_many_on(&ks[..n], workers);
                assert!(got == expect[..n], "n {n} workers {workers}");
            }
        }
    }

    #[test]
    fn mul_many_equals_the_chain_bn254() {
        mul_many_equals_the_chain::<Bn254G1>(1);
    }

    #[test]
    fn mul_many_equals_the_chain_bn254_g2() {
        mul_many_equals_the_chain::<Bn254G2>(2);
    }

    #[test]
    fn mul_many_equals_the_chain_bls12377() {
        mul_many_equals_the_chain::<Bls12377G1>(3);
    }

    #[test]
    fn mul_many_equals_the_chain_bls12381() {
        mul_many_equals_the_chain::<Bls12381G1>(4);
    }

    #[test]
    fn mul_many_equals_the_chain_mnt4753() {
        mul_many_equals_the_chain::<Mnt4753G1>(5);
    }

    #[test]
    fn identity_base_gives_identities() {
        let table = FixedBaseTable::new(&Affine::<Bn254G1>::identity());
        assert!(table.mul(&order_minus_one::<Bn254G1>()).is_identity());
    }
}
