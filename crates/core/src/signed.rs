//! Signed-digit scalar recoding.
//!
//! One of the techniques the paper adopts from the ZPrize winners (§6:
//! "precomputation, signed digits, pipelining…"). A λ-bit scalar is
//! rewritten as `Σ dⱼ·2^{js}` with digits `dⱼ ∈ [−2^{s−1}, 2^{s−1}]`,
//! which halves the bucket count of every window: a negative digit
//! accumulates the (free) negation of the point into bucket `|dⱼ|`.
//! Fewer buckets mean cheaper bucket-reduce — at the cost of higher
//! atomic contention during scatter, which is exactly the trade the
//! hierarchical scatter of §3.2.1 absorbs.

use distmsm_ec::Scalar;

/// Signed-window decomposition of one scalar.
///
/// Returns `⌈λ/s⌉ + 1` digits (the final carry may spill into one extra
/// window). Digits satisfy `|dⱼ| ≤ 2^{s−1}` and `Σ dⱼ·2^{js} = k`.
///
/// # Panics
///
/// Panics unless `1 ≤ s ≤ 31`.
pub fn recode_signed<S: Scalar>(k: &S, s: u32, lambda: u32) -> Vec<i32> {
    assert!((1..=31).contains(&s), "window size must be in 1..=31");
    let n_windows = lambda.div_ceil(s) + 1;
    let half = 1i64 << (s - 1);
    let full = 1i64 << s;
    let mut digits = Vec::with_capacity(n_windows as usize);
    let mut carry = 0i64;
    for j in 0..n_windows {
        let raw = k.window(j * s, s) as i64 + carry;
        if raw > half {
            digits.push((raw - full) as i32);
            carry = 1;
        } else {
            digits.push(raw as i32);
            carry = 0;
        }
    }
    debug_assert_eq!(carry, 0, "λ-bit scalars cannot carry past the extra window");
    digits
}

/// Bucket-count comparison: signed windows use `2^{s−1} + 1` buckets per
/// window against `2^s` unsigned — the §3.2 bucket-reduce saving.
pub fn signed_bucket_count(s: u32) -> u64 {
    (1u64 << (s - 1)) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_ff::Uint;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn reconstruct(digits: &[i32], s: u32) -> (Uint<8>, Uint<8>) {
        // track positive and negative contributions separately in a wide
        // accumulator: Σ d_j 2^{js} = pos − neg
        let mut pos = Uint::<8>::ZERO;
        let mut neg = Uint::<8>::ZERO;
        for (j, &d) in digits.iter().enumerate() {
            let mut v = Uint::<8>::from_u64(d.unsigned_abs() as u64);
            for _ in 0..(j as u32 * s) {
                let (sh, c) = v.shl1();
                assert!(!c);
                v = sh;
            }
            if d >= 0 {
                let (sum, c) = pos.carrying_add(&v);
                assert!(!c);
                pos = sum;
            } else {
                let (sum, c) = neg.carrying_add(&v);
                assert!(!c);
                neg = sum;
            }
        }
        (pos, neg)
    }

    #[test]
    fn recode_reconstructs_scalar() {
        let mut rng = StdRng::seed_from_u64(500);
        for _ in 0..50 {
            let k = Uint::<4>([rng.random(), rng.random(), rng.random(), rng.random::<u64>() >> 2]);
            for s in [3u32, 8, 11, 16] {
                let digits = recode_signed(&k, s, 254);
                let (pos, neg) = reconstruct(&digits, s);
                // pos - neg == k (widened)
                let mut wide_k = Uint::<8>::ZERO;
                wide_k.0[..4].copy_from_slice(&k.0);
                let (diff, borrow) = pos.borrowing_sub(&neg);
                assert!(!borrow, "negative total");
                assert_eq!(diff, wide_k, "s={s}");
            }
        }
    }

    #[test]
    fn digits_bounded() {
        let mut rng = StdRng::seed_from_u64(501);
        for _ in 0..20 {
            let k = Uint::<4>([rng.random(), rng.random(), rng.random(), rng.random::<u64>() >> 2]);
            for s in [4u32, 9, 13] {
                let half = 1i32 << (s - 1);
                for d in recode_signed(&k, s, 254) {
                    assert!(d.abs() <= half, "digit {d} exceeds ±{half} at s={s}");
                }
            }
        }
    }

    #[test]
    fn zero_and_small_scalars() {
        let digits = recode_signed(&Uint::<4>::ZERO, 8, 254);
        assert!(digits.iter().all(|&d| d == 0));
        let one = recode_signed(&Uint::<4>::ONE, 8, 254);
        assert_eq!(one[0], 1);
        assert!(one[1..].iter().all(|&d| d == 0));
        // boundary: exactly 2^{s-1} stays positive, 2^{s-1}+1 goes negative
        let k = Uint::<4>::from_u64(128);
        assert_eq!(recode_signed(&k, 8, 254)[0], 128);
        let k = Uint::<4>::from_u64(129);
        let d = recode_signed(&k, 8, 254);
        assert_eq!(d[0], 129 - 256);
        assert_eq!(d[1], 1);
    }

    #[test]
    fn bucket_count_halves() {
        assert_eq!(signed_bucket_count(11), 1025);
        assert!(signed_bucket_count(11) * 2 < (1 << 11) + 3);
    }
}
