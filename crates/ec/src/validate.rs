//! Admission-time validation of untrusted MSM inputs.
//!
//! A prover service accepts points and scalars from clients it does not
//! control; feeding garbage into the engine corrupts results silently
//! (an off-curve point still runs through PADD/PACC, it just computes
//! in the wrong group). This module gives the service layer typed
//! checks to reject malformed inputs at the admission boundary:
//!
//! * **Off-curve points** — `y² ≠ x³ + a·x + b`.
//! * **Points outside the prime-order subgroup** — small-subgroup
//!   confinement inputs on curves with cofactor > 1. The check
//!   multiplies by `r − 1` and compares against the negation
//!   (`(r−1)·P = −P ⇔ r·P = ∞`), which needs no per-curve order
//!   constant: `r − 1` is the canonical representative of `−1` in the
//!   scalar field. Curves with [`Curve::COFACTOR_IS_ONE`] skip the
//!   multiplication entirely — on-curve already implies in-subgroup.
//! * **Non-canonical scalar encodings** — limb encodings ≥ the group
//!   order `r`, detected by the reduce-and-compare roundtrip
//!   `field_to_scalar(scalar_to_field(s)) == s`.

use crate::curve::{Affine, Curve};
use crate::traits::FieldElement;

/// Why an MSM input failed validation. Indices refer to the position in
/// the submitted slice, so a rejection is actionable for the client.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum InputViolation {
    /// `points[index]` does not satisfy the curve equation.
    OffCurve {
        /// Index of the offending point.
        index: usize,
    },
    /// `points[index]` is on the curve but outside the prime-order
    /// subgroup (only possible when the cofactor exceeds 1).
    OutsideSubgroup {
        /// Index of the offending point.
        index: usize,
    },
    /// `scalars[index]` is not the canonical representative of its
    /// residue class (its limb encoding is ≥ the group order `r`).
    NonCanonicalScalar {
        /// Index of the offending scalar.
        index: usize,
    },
    /// The points and scalars slices disagree in length.
    LengthMismatch {
        /// Number of points submitted.
        points: usize,
        /// Number of scalars submitted.
        scalars: usize,
    },
}

impl core::fmt::Display for InputViolation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InputViolation::OffCurve { index } => {
                write!(f, "point {index} is not on the curve")
            }
            InputViolation::OutsideSubgroup { index } => {
                write!(f, "point {index} is outside the prime-order subgroup")
            }
            InputViolation::NonCanonicalScalar { index } => {
                write!(f, "scalar {index} has a non-canonical limb encoding")
            }
            InputViolation::LengthMismatch { points, scalars } => {
                write!(f, "{points} points but {scalars} scalars")
            }
        }
    }
}

impl std::error::Error for InputViolation {}

/// The canonical representative of `r − 1` (i.e. `−1` in the scalar
/// field) as a raw scalar — the multiplier of the subgroup check.
pub fn order_minus_one<C: Curve>() -> C::Scalar {
    C::field_to_scalar(&-C::ScalarField::one())
}

/// Is `p` in the prime-order subgroup? The identity always is; finite
/// points are checked with `(r−1)·P = −P`, skipped (on-curve ⇒
/// in-subgroup) when the cofactor is 1. The caller is expected to have
/// established on-curve first — the multiplication is meaningless for
/// off-curve input.
pub fn in_prime_subgroup<C: Curve>(p: &Affine<C>) -> bool {
    if p.is_identity() || C::COFACTOR_IS_ONE {
        return true;
    }
    p.scalar_mul(&order_minus_one::<C>()) == p.neg().to_xyzz()
}

/// Is `s` the canonical (`< r`) encoding of its residue class? One
/// comparison with `r − 1`, whatever `s` holds.
pub fn scalar_is_canonical<C: Curve>(s: &C::Scalar) -> bool {
    *s <= order_minus_one::<C>()
}

/// Validates one point: on-curve, then in-subgroup.
pub fn validate_point<C: Curve>(p: &Affine<C>, index: usize) -> Result<(), InputViolation> {
    if !p.is_on_curve() {
        return Err(InputViolation::OffCurve { index });
    }
    if !in_prime_subgroup(p) {
        return Err(InputViolation::OutsideSubgroup { index });
    }
    Ok(())
}

/// Validates a full MSM instance: matching lengths, every point
/// on-curve and in-subgroup, every scalar canonical. Returns the
/// *first* violation in slice order, so rejections are deterministic.
pub fn validate_msm_inputs<C: Curve>(
    points: &[Affine<C>],
    scalars: &[C::Scalar],
) -> Result<(), InputViolation> {
    if points.len() != scalars.len() {
        return Err(InputViolation::LengthMismatch {
            points: points.len(),
            scalars: scalars.len(),
        });
    }
    for (i, p) in points.iter().enumerate() {
        validate_point(p, i)?;
    }
    for (i, s) in scalars.iter().enumerate() {
        if !scalar_is_canonical::<C>(s) {
            return Err(InputViolation::NonCanonicalScalar { index: i });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{Bls12377G1, Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
    use crate::traits::{Scalar as _, SqrtField};
    use distmsm_ff::Uint;

    fn valid_instance<C: Curve>(n: usize) -> (Vec<Affine<C>>, Vec<C::Scalar>) {
        let g = C::generator();
        let mut points = Vec::with_capacity(n);
        let mut scalars = Vec::with_capacity(n);
        for i in 0..n {
            points.push(g.scalar_mul(&C::Scalar::from_u64(i as u64 + 1)).to_affine());
            scalars.push(C::Scalar::from_u64(17 * i as u64 + 3));
        }
        (points, scalars)
    }

    fn accepts_valid<C: Curve>() {
        let (points, scalars) = valid_instance::<C>(6);
        assert_eq!(validate_msm_inputs::<C>(&points, &scalars), Ok(()), "{}", C::NAME);
    }

    fn rejects_off_curve<C: Curve>() {
        let (mut points, scalars) = valid_instance::<C>(4);
        // Perturb y: (x, y + 1) leaves the curve for any short-Weierstrass
        // curve (y² is injective in ±y only).
        points[2].y += C::Base::one();
        assert_eq!(
            validate_msm_inputs::<C>(&points, &scalars),
            Err(InputViolation::OffCurve { index: 2 }),
            "{}",
            C::NAME
        );
    }

    fn rejects_non_canonical_scalar<C: Curve>()
    where
        C::Scalar: RawIncrement,
    {
        let (points, mut scalars) = valid_instance::<C>(3);
        // r − 1 is the largest canonical encoding; r (its raw-limb
        // increment) is the smallest non-canonical one (reduces to 0).
        let r_minus_1 = order_minus_one::<C>();
        assert!(scalar_is_canonical::<C>(&r_minus_1), "r−1 is canonical on {}", C::NAME);
        scalars[1] = r_minus_1.incremented();
        assert_eq!(
            validate_msm_inputs::<C>(&points, &scalars),
            Err(InputViolation::NonCanonicalScalar { index: 1 }),
            "{}",
            C::NAME
        );
    }

    /// Raw limb increment (no modular reduction) — test-only.
    trait RawIncrement {
        fn incremented(self) -> Self;
    }

    impl<const N: usize> RawIncrement for Uint<N> {
        fn incremented(mut self) -> Self {
            for limb in self.0.iter_mut() {
                let (v, carry) = limb.overflowing_add(1);
                *limb = v;
                if !carry {
                    break;
                }
            }
            self
        }
    }

    #[test]
    fn accepts_valid_inputs_on_every_curve() {
        accepts_valid::<Bn254G1>();
        accepts_valid::<Bls12377G1>();
        accepts_valid::<Bls12381G1>();
        accepts_valid::<Mnt4753G1>();
        accepts_valid::<Bn254G2>();
    }

    #[test]
    fn rejects_off_curve_points_on_every_curve() {
        rejects_off_curve::<Bn254G1>();
        rejects_off_curve::<Bls12377G1>();
        rejects_off_curve::<Bls12381G1>();
        rejects_off_curve::<Mnt4753G1>();
        rejects_off_curve::<Bn254G2>();
    }

    #[test]
    fn rejects_non_canonical_scalars_on_every_curve() {
        rejects_non_canonical_scalar::<Bn254G1>();
        rejects_non_canonical_scalar::<Bls12377G1>();
        rejects_non_canonical_scalar::<Bls12381G1>();
        rejects_non_canonical_scalar::<Mnt4753G1>();
        rejects_non_canonical_scalar::<Bn254G2>();
    }

    #[test]
    fn rejects_length_mismatch() {
        let (points, mut scalars) = valid_instance::<Bn254G1>(3);
        scalars.pop();
        assert_eq!(
            validate_msm_inputs::<Bn254G1>(&points, &scalars),
            Err(InputViolation::LengthMismatch { points: 3, scalars: 2 })
        );
    }

    /// Finds an on-curve point *outside* the prime-order subgroup on a
    /// cofactor > 1 curve by scanning x-coordinates.
    fn small_subgroup_point<C: Curve>() -> Affine<C>
    where
        C::Base: SqrtField,
    {
        let mut x = C::Base::zero();
        for _ in 0..200 {
            let rhs = x.square() * x + C::a() * x + C::b();
            if let Some(y) = rhs.sqrt() {
                let p = Affine::<C>::new_unchecked(x, y);
                if !p.is_identity() && p.is_on_curve() && !in_prime_subgroup(&p) {
                    return p;
                }
            }
            x += C::Base::one();
        }
        panic!("no cofactor witness found on {}", C::NAME);
    }

    fn rejects_small_subgroup<C: Curve>()
    where
        C::Base: SqrtField,
    {
        assert!(!C::COFACTOR_IS_ONE, "{} needs cofactor > 1 for this test", C::NAME);
        let bad = small_subgroup_point::<C>();
        let (mut points, scalars) = valid_instance::<C>(3);
        points[0] = bad;
        assert_eq!(
            validate_msm_inputs::<C>(&points, &scalars),
            Err(InputViolation::OutsideSubgroup { index: 0 }),
            "{}",
            C::NAME
        );
    }

    #[test]
    fn rejects_small_subgroup_confinement_bls12377() {
        rejects_small_subgroup::<Bls12377G1>();
    }

    #[test]
    fn rejects_small_subgroup_confinement_bls12381() {
        rejects_small_subgroup::<Bls12381G1>();
    }

    #[test]
    fn cofactor_one_curves_accept_all_on_curve_points() {
        // On BN254/MNT4-753 G1 every on-curve point passes the subgroup
        // check by construction (the whole curve is the subgroup).
        let g = Bn254G1::generator();
        assert!(in_prime_subgroup(&g.scalar_mul(&Uint::from_u64(12345)).to_affine()));
        let m = Mnt4753G1::generator();
        assert!(in_prime_subgroup(&m.scalar_mul(&Uint::from_u64(999)).to_affine()));
    }

    #[test]
    fn subgroup_multiplier_matches_modulus_minus_one() {
        use crate::curves::{scalar_modulus_bls12381, scalar_modulus_bn254};
        let mut want = scalar_modulus_bn254();
        want.0[0] -= 1; // r is odd, no borrow
        assert_eq!(order_minus_one::<Bn254G1>(), want);
        let mut want = scalar_modulus_bls12381();
        want.0[0] -= 1;
        assert_eq!(order_minus_one::<Bls12381G1>(), want);
    }
}
