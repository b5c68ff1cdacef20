//! The MSM output oracle: a serial Pippenger written here, sharing only
//! the `ec` point formulas with the engine it checks — no planner, no
//! slices, no scatter kernels, a different window size.

use distmsm_ec::{Curve, MsmInstance, Scalar, XyzzPoint};

/// `Σ kᵢ·Pᵢ` by the textbook bucket method, one window at a time from the
/// most significant down.
pub fn serial_pippenger<C: Curve>(instance: &MsmInstance<C>) -> XyzzPoint<C> {
    let n = instance.len().max(2);
    // ~log2(n) − 3 balances the n PACCs and 2·2^c PADDs of a window
    let c = (n.ilog2().saturating_sub(3)).clamp(2, 16);
    let n_windows = C::SCALAR_BITS.div_ceil(c);
    let mut acc = XyzzPoint::<C>::identity();
    for w in (0..n_windows).rev() {
        for _ in 0..c {
            acc = acc.pdbl();
        }
        let mut buckets = vec![XyzzPoint::<C>::identity(); (1usize << c) - 1];
        for (p, k) in instance.points.iter().zip(&instance.scalars) {
            let digit = k.window(w * c, c) as usize;
            if digit != 0 {
                buckets[digit - 1].pacc(p);
            }
        }
        // Σ d·B_d as a sum of suffix sums
        let mut running = XyzzPoint::<C>::identity();
        let mut window_sum = XyzzPoint::<C>::identity();
        for b in buckets.iter().rev() {
            running = running.padd(b);
            window_sum = window_sum.padd(&running);
        }
        acc = acc.padd(&window_sum);
    }
    acc
}

/// Bit-for-bit equality of two XYZZ representations — stronger than
/// `==`, which compares the group elements.
pub fn same_bits<C: Curve>(a: &XyzzPoint<C>, b: &XyzzPoint<C>) -> bool {
    (a.x, a.y, a.zz, a.zzz) == (b.x, b.y, b.zz, b.zzz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ec::curves::{Bls12381G1, Bn254G1, Bn254G2};
    use rand::{rngs::StdRng, SeedableRng};

    fn agrees_with_double_and_add<C: Curve>(n: usize) {
        let mut rng = StdRng::seed_from_u64(n as u64);
        let inst = MsmInstance::<C>::random(n, &mut rng);
        assert_eq!(
            serial_pippenger(&inst).to_affine(),
            inst.reference_result().to_affine()
        );
    }

    #[test]
    fn oracle_matches_per_term_double_and_add() {
        agrees_with_double_and_add::<Bn254G1>(1);
        agrees_with_double_and_add::<Bn254G1>(37);
        agrees_with_double_and_add::<Bls12381G1>(64);
        agrees_with_double_and_add::<Bn254G2>(9);
    }

    #[test]
    fn same_bits_is_stricter_than_group_equality() {
        let g = Bn254G1::generator().to_xyzz();
        let doubled_twice = g.pdbl().pdbl();
        let added = g.pdbl().padd(&g).padd(&g);
        assert_eq!(doubled_twice, added);
        assert!(!same_bits(&doubled_twice, &added));
        assert!(same_bits(&added, &added.clone()));
    }
}
