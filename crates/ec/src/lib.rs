//! # distmsm-ec — elliptic-curve substrate
//!
//! Short-Weierstrass curve arithmetic for the DistMSM reproduction:
//! affine and XYZZ coordinates, the paper's PADD (Algorithm 1) / PACC
//! (Algorithm 4) / PDBL formulas, batch normalisation, and the four
//! evaluated curves (BN254, BLS12-377, BLS12-381, MNT4-753) plus BN254 G2.
//!
//! Beyond the MSM substrate the crate provides:
//!
//! * [`pairing`] — the optimal ate pairing on BN254 (full `Fp⁶`/`Fp¹²`
//!   tower, Miller loop, final exponentiation), enabling cryptographic
//!   Groth16 verification;
//! * [`batch`] — batched affine addition (the ZPrize "batch addition"
//!   technique) with Montgomery-trick shared inversions;
//! * [`fixed_base`] — windowed table of one base's multiples, for the
//!   many same-base products of a trusted setup;
//! * [`straus()`] — interleaved-wNAF multi-scalar multiplication, for the
//!   short linear combinations computed off the engine;
//! * [`serialize`] — canonical field/point wire formats, compressed and
//!   uncompressed.
//!
//! ## Example
//!
//! ```
//! use distmsm_ec::{curves::Bn254G1, Curve, XyzzPoint};
//! use distmsm_ff::Uint;
//!
//! let g = Bn254G1::generator();
//! let five_g = g.scalar_mul(&Uint::from_u64(5));
//! let mut acc = XyzzPoint::identity();
//! for _ in 0..5 {
//!     acc.pacc(&g); // the paper's PACC kernel, 10 modular multiplies
//! }
//! assert_eq!(acc, five_g);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod curve;
pub mod curves;
pub mod fixed_base;
pub mod pairing;
pub mod sample;
pub mod serialize;
pub mod traits;
pub mod validate;

pub use curve::{straus, Affine, Curve, XyzzPoint};
pub use fixed_base::FixedBaseTable;
pub use sample::MsmInstance;
pub use traits::{FieldElement, Scalar, SqrtField};
pub use validate::{validate_msm_inputs, validate_point, InputViolation};
