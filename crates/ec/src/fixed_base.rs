//! Fixed-base scalar multiplication from a table of the base's multiples.
//!
//! The paper's §2.3.1 observation — the points of a zkSNARK are fixed per
//! circuit, so work that depends only on the base is paid once — at its
//! smallest scale: when *every* product has the same base (a trusted
//! setup multiplies the two generators a few thousand times each), the
//! doublings of double-and-add depend on the base alone. The table holds
//! them; a product is then one [`XyzzPoint::pacc`] per non-zero `W`-bit
//! digit of the scalar.

use crate::curve::{Affine, Curve, XyzzPoint};
use crate::traits::Scalar;

/// Digit width. A product costs `⌈λ/W⌉` PACCs and the table holds
/// `⌈λ/W⌉·(2^W − 1)` affine points, so each extra bit buys less time and
/// doubles the memory.
///
/// Measured on the repo benchmark's `groth16_4k` (a G1 table, ≈ 16 400
/// products, then a G2 table, ≈ 4 100), medians of six runs, `setup_s` /
/// `peak_rss_mb` against 3.5 s / 11.05 MB for double-and-add: 6 →
/// 0.35 s / 11.23 MB (tables of 190 KB and 360 KB), 8 → 0.29 s / 12.26 MB
/// (574 KB and 1.06 MB). Two more bits take 0.06 s off a one-off setup
/// and add 1 MB to the 25 %-bounded `peak_rss_mb` of every run after it.
const W: u32 = 6;

/// Non-zero digits, i.e. table entries per row.
const ROW: usize = (1 << W) - 1;

/// Products normalised per [`XyzzPoint::batch_to_affine`] by
/// [`FixedBaseTable::mul_many`]: the XYZZ intermediate of a query is 64 KB
/// on BN254 G2 however long the query, and the one inversion a chunk
/// shares is already under 2 % of its PACCs.
const CHUNK: usize = 256;

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

    /// `k·B`: at most one PACC per row and no doubling.
    ///
    /// # Panics
    ///
    /// Panics if `k` is wider than the table's `⌈λ/W⌉·W` bits. Every
    /// canonical scalar (`k < r`) fits; a raw limb pattern above that is
    /// rejected rather than truncated.
    pub fn mul(&self, k: &C::Scalar) -> XyzzPoint<C> {
        let rows = self.multiples.len() / ROW;
        assert!(
            k.num_bits() as usize <= rows * W as usize,
            "{}-bit scalar on a {}-bit fixed-base table",
            k.num_bits(),
            rows * W as usize
        );
        let mut acc = XyzzPoint::identity();
        for (row, multiples) in self.multiples.chunks_exact(ROW).enumerate() {
            let digit = k.window(row as u32 * W, W) as usize;
            if digit != 0 {
                acc.pacc(&multiples[digit - 1]);
            }
        }
        acc
    }

    /// `k·B` for every `k`, in canonical affine form; the products are
    /// normalised `CHUNK` at a time.
    ///
    /// # Panics
    ///
    /// As [`Self::mul`].
    pub fn mul_many(&self, scalars: impl IntoIterator<Item = C::Scalar>) -> Vec<Affine<C>> {
        let scalars = scalars.into_iter();
        let mut out = Vec::with_capacity(scalars.size_hint().0);
        let mut chunk = Vec::with_capacity(CHUNK.min(scalars.size_hint().0));
        for k in scalars {
            chunk.push(self.mul(&k));
            if chunk.len() == CHUNK {
                out.extend(XyzzPoint::batch_to_affine(&chunk));
                chunk.clear();
            }
        }
        out.extend(XyzzPoint::batch_to_affine(&chunk));
        out
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
        assert_eq!(table.mul_many(scalars), affine);
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

    #[test]
    fn mul_many_chunk_boundaries() {
        let g = Bn254G1::generator();
        let table = FixedBaseTable::new(&g);
        for n in [0, 1, CHUNK, CHUNK + 1] {
            // identities inside a chunk and at both of its ends
            let scalars: Vec<_> = (0..n as u64)
                .map(|i| Uint::from_u64(if i % 5 == 0 { 0 } else { i * 0x9e37_79b9 }))
                .collect();
            let expected: Vec<_> = scalars
                .iter()
                .map(|k| g.scalar_mul(k).to_affine())
                .collect();
            assert_eq!(table.mul_many(scalars), expected, "{n} products");
        }
    }

    #[test]
    fn identity_base_gives_identities() {
        let table = FixedBaseTable::new(&Affine::<Bn254G1>::identity());
        assert!(table.mul(&order_minus_one::<Bn254G1>()).is_identity());
    }
}
