//! Canonical serialization of field elements and curve points.
//!
//! Wire formats for proofs and point vectors: little-endian canonical
//! field bytes, uncompressed points (`flag ‖ x ‖ y`) and compressed
//! points (`flag ‖ x`, with the sign of y in the flag — recovered through
//! Tonelli–Shanks). Deserialisation validates range and curve membership.

use crate::curve::{Affine, Curve};
use crate::traits::{FieldElement, SqrtField};
use distmsm_ff::{Fp, Fp2, FpParams, Uint};

/// Types with a fixed-length canonical byte encoding.
pub trait CanonicalBytes: Sized {
    /// Encoded length in bytes.
    fn encoded_len() -> usize;
    /// Canonical little-endian encoding.
    fn to_canonical_bytes(&self) -> Vec<u8>;
    /// Strict decoding: rejects wrong lengths and non-canonical values.
    fn from_canonical_bytes(bytes: &[u8]) -> Option<Self>;
    /// The sign a compressed point stores for `y`: the low bit of the
    /// first non-zero coefficient's canonical value. `p` is odd, so `v`
    /// and `−v` differ in it unless `v = 0`.
    fn sign(&self) -> bool;
}

impl<P: FpParams<N>, const N: usize> CanonicalBytes for Fp<P, N> {
    fn encoded_len() -> usize {
        8 * N
    }

    fn to_canonical_bytes(&self) -> Vec<u8> {
        self.to_uint().to_le_bytes()
    }

    fn from_canonical_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 8 * N {
            return None;
        }
        let mut limbs = [0u64; N];
        for (i, chunk) in bytes.chunks_exact(8).enumerate() {
            limbs[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        let v = Uint(limbs);
        v.lt(&P::MODULUS).then(|| Self::from_uint(&v))
    }

    fn sign(&self) -> bool {
        self.to_uint().0[0] & 1 == 1
    }
}

impl<P: FpParams<N>, const N: usize> CanonicalBytes for Fp2<P, N> {
    fn encoded_len() -> usize {
        16 * N
    }

    fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut out = self.c0.to_canonical_bytes();
        out.extend(self.c1.to_canonical_bytes());
        out
    }

    fn from_canonical_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != 16 * N {
            return None;
        }
        let c0 = Fp::from_canonical_bytes(&bytes[..8 * N])?;
        let c1 = Fp::from_canonical_bytes(&bytes[8 * N..])?;
        Some(Self::new(c0, c1))
    }

    fn sign(&self) -> bool {
        if self.c0.is_zero() {
            self.c1.sign()
        } else {
            self.c0.sign()
        }
    }
}

const FLAG_FINITE: u8 = 0x00;
const FLAG_INFINITY: u8 = 0x01;
const FLAG_Y_SIGN: u8 = 0x02;

/// Serialises a point as `flag ‖ x ‖ y` (one byte + two field elements).
pub fn point_to_uncompressed<C: Curve>(p: &Affine<C>) -> Vec<u8>
where
    C::Base: CanonicalBytes,
{
    if p.infinity {
        let mut out = vec![0u8; 1 + 2 * C::Base::encoded_len()];
        out[0] = FLAG_INFINITY;
        return out;
    }
    let mut out = vec![FLAG_FINITE];
    out.extend(p.x.to_canonical_bytes());
    out.extend(p.y.to_canonical_bytes());
    out
}

/// Deserialises an uncompressed point, checking the curve equation.
pub fn point_from_uncompressed<C: Curve>(bytes: &[u8]) -> Option<Affine<C>>
where
    C::Base: CanonicalBytes,
{
    let fl = C::Base::encoded_len();
    if bytes.len() != 1 + 2 * fl {
        return None;
    }
    match bytes[0] {
        // one encoding per point: the identity's coordinate bytes are zero
        FLAG_INFINITY => bytes[1..].iter().all(|&b| b == 0).then(Affine::identity),
        FLAG_FINITE => {
            let x = C::Base::from_canonical_bytes(&bytes[1..1 + fl])?;
            let y = C::Base::from_canonical_bytes(&bytes[1 + fl..])?;
            let p = Affine::new_unchecked(x, y);
            p.is_on_curve().then_some(p)
        }
        _ => None,
    }
}

/// Serialises a point as `flag ‖ x`, with [`CanonicalBytes::sign`] of
/// `y` in the flag.
pub fn point_to_compressed<C: Curve>(p: &Affine<C>) -> Vec<u8>
where
    C::Base: CanonicalBytes + SqrtField,
{
    if p.infinity {
        let mut out = vec![0u8; 1 + C::Base::encoded_len()];
        out[0] = FLAG_INFINITY;
        return out;
    }
    let flag = if p.y.sign() { FLAG_Y_SIGN } else { FLAG_FINITE };
    let mut out = vec![flag];
    out.extend(p.x.to_canonical_bytes());
    out
}

/// Deserialises a compressed point: solves `y² = x³ + ax + b` and picks
/// the root with the encoded sign.
pub fn point_from_compressed<C: Curve>(bytes: &[u8]) -> Option<Affine<C>>
where
    C::Base: CanonicalBytes + SqrtField,
{
    let fl = C::Base::encoded_len();
    if bytes.len() != 1 + fl {
        return None;
    }
    if bytes[0] == FLAG_INFINITY {
        // one encoding per point, as in `point_from_uncompressed`
        return bytes[1..].iter().all(|&b| b == 0).then(Affine::identity);
    }
    if bytes[0] & !FLAG_Y_SIGN != FLAG_FINITE {
        return None;
    }
    let want_sign = bytes[0] & FLAG_Y_SIGN != 0;
    let x = C::Base::from_canonical_bytes(&bytes[1..])?;
    let rhs = x.square() * x + C::a() * x + C::b();
    let y = rhs.sqrt()?;
    let y = if y.sign() == want_sign { y } else { -y };
    Some(Affine::new_unchecked(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::curves::{Bls12381G1, Bn254G1, Bn254G2, Mnt4753G1};
    use crate::sample::generator_multiples;
    use distmsm_ff::params::FqBn254;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn field_round_trip() {
        let mut rng = StdRng::seed_from_u64(920);
        for _ in 0..20 {
            let a = FqBn254::random(&mut rng);
            let b = a.to_canonical_bytes();
            assert_eq!(b.len(), 32);
            assert_eq!(FqBn254::from_canonical_bytes(&b), Some(a));
        }
    }

    #[test]
    fn non_canonical_field_rejected() {
        // the modulus itself is not a canonical encoding
        use distmsm_ff::fp::FpParams;
        let bytes = distmsm_ff::params::Bn254Fq::MODULUS.to_le_bytes();
        assert_eq!(FqBn254::from_canonical_bytes(&bytes), None);
        assert_eq!(FqBn254::from_canonical_bytes(&[0u8; 31]), None);
    }

    #[test]
    fn uncompressed_round_trip_g1_and_g2() {
        for p in generator_multiples::<Bn254G1>(5) {
            let b = point_to_uncompressed(&p);
            assert_eq!(b.len(), 65);
            assert_eq!(point_from_uncompressed::<Bn254G1>(&b), Some(p));
        }
        for p in generator_multiples::<Bn254G2>(3) {
            let b = point_to_uncompressed(&p);
            assert_eq!(b.len(), 129);
            assert_eq!(point_from_uncompressed::<Bn254G2>(&b), Some(p));
        }
    }

    #[test]
    fn compressed_round_trip() {
        for p in generator_multiples::<Bn254G1>(8) {
            let b = point_to_compressed(&p);
            assert_eq!(b.len(), 33);
            assert_eq!(point_from_compressed::<Bn254G1>(&b), Some(p));
        }
        for p in generator_multiples::<Bls12381G1>(4) {
            let b = point_to_compressed(&p);
            assert_eq!(b.len(), 49);
            assert_eq!(point_from_compressed::<Bls12381G1>(&b), Some(p));
        }
        for p in generator_multiples::<Mnt4753G1>(2) {
            let b = point_to_compressed(&p);
            assert_eq!(point_from_compressed::<Mnt4753G1>(&b), Some(p));
        }
    }

    #[test]
    fn compressed_g2_round_trip() {
        for p in generator_multiples::<Bn254G2>(6) {
            let b = point_to_compressed(&p);
            assert_eq!(b.len(), 65);
            assert_eq!(point_from_compressed::<Bn254G2>(&b), Some(p));
        }
    }

    #[test]
    fn fp2_sign_is_the_first_non_zero_coefficient() {
        // `y = c1·u` has `c0 = 0`, so the low bit of `c0` cannot tell it
        // from `−y`; the first non-zero coefficient can. The encoder reads
        // `y` alone, so no point on the curve (and no cube root) is needed.
        type Fq2 = <Bn254G2 as Curve>::Base;
        let mut rng = StdRng::seed_from_u64(118);
        for _ in 0..32 {
            let y = Fq2::new(FqBn254::ZERO, FqBn254::random(&mut rng));
            assert_ne!(y.sign(), (-y).sign(), "{y:?}");
            let x = Fq2::random(&mut rng);
            let p = Affine::<Bn254G2>::new_unchecked(x, y);
            assert_ne!(point_to_compressed(&p), point_to_compressed(&p.neg()));
            // elsewhere the sign is the parity of the low byte, as before
            let z = Fq2::random(&mut rng);
            assert_eq!(z.sign(), z.c0.to_canonical_bytes()[0] & 1 == 1);
            let a = FqBn254::random(&mut rng);
            assert_eq!(a.sign(), a.to_canonical_bytes()[0] & 1 == 1);
        }
    }

    #[test]
    fn identity_round_trip() {
        let id = Affine::<Bn254G1>::identity();
        assert_eq!(
            point_from_uncompressed::<Bn254G1>(&point_to_uncompressed(&id)),
            Some(id)
        );
        assert_eq!(
            point_from_compressed::<Bn254G1>(&point_to_compressed(&id)),
            Some(id)
        );
    }

    #[test]
    fn off_curve_point_rejected() {
        let p = generator_multiples::<Bn254G1>(1)[0];
        let mut b = point_to_uncompressed(&p);
        // corrupt y
        let last = b.len() - 1;
        b[last] ^= 1;
        assert_eq!(point_from_uncompressed::<Bn254G1>(&b), None);
    }

    #[test]
    fn infinity_flag_over_nonzero_coordinates_rejected() {
        // found by the `WindowCheckpoint` hostile-bytes sweep: one flipped
        // flag bit turned any finite point into an accepted identity
        let mut b = point_to_uncompressed(&generator_multiples::<Bn254G1>(1)[0]);
        b[0] = FLAG_INFINITY;
        assert_eq!(point_from_uncompressed::<Bn254G1>(&b), None);
    }

    #[test]
    fn infinity_flag_over_nonzero_x_rejected() {
        fn check<C: Curve>()
        where
            C::Base: SqrtField,
        {
            let id = Affine::<C>::identity();
            assert_eq!(
                point_from_compressed::<C>(&point_to_compressed(&id)),
                Some(id)
            );
            let mut b = point_to_compressed(&C::generator());
            b[0] = FLAG_INFINITY;
            assert_eq!(point_from_compressed::<C>(&b), None);
            let last = b.len() - 1;
            b[1..last].fill(0);
            b[last] = 1;
            assert_eq!(point_from_compressed::<C>(&b), None, "one stray bit");
        }
        check::<Bn254G1>();
        check::<Bn254G2>();
    }

    /// Every strict prefix of `good`, `good` plus one trailing byte, and
    /// every single-bit flip of `good`.
    fn hostile(good: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
        let prefixes = (0..good.len()).map(|n| good[..n].to_vec());
        let flips = (0..good.len() * 8).map(|bit| {
            let mut b = good.to_vec();
            b[bit / 8] ^= 1 << (bit % 8);
            b
        });
        prefixes.chain(std::iter::once([good, &[0]].concat())).chain(flips)
    }

    /// Sweeps both decoders of `C` over the hostile variants of the
    /// identity's and the generator's encodings: each returns `None` or
    /// the one point whose encoding is exactly those bytes, and never
    /// panics.
    fn sweep_hostile_points<C: Curve>()
    where
        C::Base: SqrtField,
    {
        type Codec<C> = (fn(&Affine<C>) -> Vec<u8>, fn(&[u8]) -> Option<Affine<C>>);
        let codecs: [Codec<C>; 2] = [
            (point_to_uncompressed, point_from_uncompressed),
            (point_to_compressed, point_from_compressed),
        ];
        for p in [Affine::identity(), C::generator()] {
            for (encode, decode) in codecs {
                let good = encode(&p);
                assert_eq!(decode(&good), Some(p));
                for bytes in hostile(&good) {
                    if let Some(q) = decode(&bytes) {
                        assert_eq!(encode(&q), bytes, "{}: a second spelling of {q:?}", C::NAME);
                    }
                }
            }
        }
    }

    #[test]
    fn hostile_point_bytes_decode_to_none_or_their_own_encoding() {
        sweep_hostile_points::<Bn254G1>();
        sweep_hostile_points::<Bn254G2>();
        sweep_hostile_points::<Bls12381G1>();
    }

    /// Its own test: 776 compressed flips, each a 753-bit Tonelli–Shanks
    /// attempt, dominate the sweep in a debug build.
    #[test]
    fn hostile_mnt4_753_point_bytes_decode_to_none_or_their_own_encoding() {
        sweep_hostile_points::<Mnt4753G1>();
    }

    #[test]
    fn bad_flags_rejected() {
        let p = generator_multiples::<Bn254G1>(1)[0];
        let mut b = point_to_compressed(&p);
        b[0] = 0x7f;
        assert_eq!(point_from_compressed::<Bn254G1>(&b), None);
    }
}
