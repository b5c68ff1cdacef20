//! Fixed-width little-endian big integers.
//!
//! [`Uint<N>`] is a `N × 64`-bit unsigned integer stored as little-endian
//! `u64` limbs. It is the plain-integer substrate under the Montgomery-form
//! field elements in [`crate::fp`]: scalars handed to an MSM are `Uint`s, the
//! window decomposition of Pippenger's algorithm slices `Uint` bits, and the
//! GPU-kernel mirrors in [`crate::u32limb`] view the same values as `u32`
//! limbs.

/// Add with carry: returns `(a + b + carry) mod 2^64` and the carry out.
#[inline(always)]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Subtract with borrow: returns `(a - b - borrow) mod 2^64` and the borrow
/// out (0 or 1).
#[inline(always)]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// Multiply-accumulate: returns `(a + b * c + carry) mod 2^64` and the high
/// 64 bits. Never overflows `u128` because
/// `u64::MAX + u64::MAX² + u64::MAX < u128::MAX`.
#[inline(always)]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// A fixed-width unsigned integer with `N` little-endian 64-bit limbs.
///
/// # Examples
///
/// ```
/// use distmsm_ff::Uint;
///
/// let a = Uint::<4>::from_u64(7);
/// let b = Uint::<4>::from_hex("ff");
/// let (sum, carry) = a.carrying_add(&b);
/// assert_eq!(sum, Uint::from_u64(0x106));
/// assert!(!carry);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Uint<const N: usize>(pub [u64; N]);

impl<const N: usize> Uint<N> {
    /// The additive identity.
    pub const ZERO: Self = Self([0; N]);

    /// The multiplicative identity.
    pub const ONE: Self = {
        let mut limbs = [0u64; N];
        limbs[0] = 1;
        Self(limbs)
    };

    /// The all-ones value `2^(64N) - 1`.
    pub const MAX: Self = Self([u64::MAX; N]);

    /// Number of bits in the representation.
    pub const BITS: u32 = 64 * N as u32;

    /// Creates a `Uint` holding a small value.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; N];
        limbs[0] = v;
        Self(limbs)
    }

    /// Creates a `Uint` holding a 128-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `N < 2`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        assert!(N >= 2, "Uint::from_u128 requires at least two limbs");
        let mut limbs = [0u64; N];
        limbs[0] = v as u64;
        limbs[1] = (v >> 64) as u64;
        Self(limbs)
    }

    /// Parses a (big-endian) hexadecimal string, with or without a `0x`
    /// prefix. Usable in `const` contexts, which is how every field modulus
    /// in [`crate::params`] is declared.
    ///
    /// # Panics
    ///
    /// Panics on non-hex characters or if the value does not fit in `N`
    /// limbs.
    pub const fn from_hex(s: &str) -> Self {
        let bytes = s.as_bytes();
        let mut start = 0;
        if bytes.len() >= 2 && bytes[0] == b'0' && (bytes[1] == b'x' || bytes[1] == b'X') {
            start = 2;
        }
        let mut limbs = [0u64; N];
        let mut i = bytes.len();
        let mut nibble = 0usize;
        while i > start {
            i -= 1;
            let c = bytes[i];
            if c == b'_' {
                continue;
            }
            let v = match c {
                b'0'..=b'9' => (c - b'0') as u64,
                b'a'..=b'f' => (c - b'a' + 10) as u64,
                b'A'..=b'F' => (c - b'A' + 10) as u64,
                _ => panic!("invalid hexadecimal character"),
            };
            let limb = nibble / 16;
            assert!(limb < N || v == 0, "hex literal does not fit in Uint");
            if limb < N {
                limbs[limb] |= v << ((nibble % 16) * 4);
            }
            nibble += 1;
        }
        Self(limbs)
    }

    /// Returns `true` if the value is zero.
    #[inline]
    pub const fn is_zero(&self) -> bool {
        let mut i = 0;
        while i < N {
            if self.0[i] != 0 {
                return false;
            }
            i += 1;
        }
        true
    }

    /// Returns bit `i` (little-endian), or `false` when out of range.
    #[inline]
    pub const fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= N {
            return false;
        }
        (self.0[limb] >> (i % 64)) & 1 == 1
    }

    /// Extracts `width ≤ 64` bits starting at bit `lo`, the window-slicing
    /// primitive of Pippenger's algorithm.
    ///
    /// Bits past the end of the integer read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    #[inline]
    pub fn bits(&self, lo: u32, width: u32) -> u64 {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        let limb = (lo / 64) as usize;
        let shift = lo % 64;
        if limb >= N {
            return 0;
        }
        let mut v = self.0[limb] >> shift;
        if shift + width > 64 && limb + 1 < N {
            v |= self.0[limb + 1] << (64 - shift);
        }
        if width == 64 {
            v
        } else {
            v & ((1u64 << width) - 1)
        }
    }

    /// Number of significant bits (0 for zero).
    #[inline]
    pub const fn num_bits(&self) -> u32 {
        let mut i = N;
        while i > 0 {
            i -= 1;
            if self.0[i] != 0 {
                return 64 * i as u32 + 64 - self.0[i].leading_zeros();
            }
        }
        0
    }

    /// Wrapping addition returning the result and whether a carry out of the
    /// top limb occurred.
    #[inline]
    pub const fn carrying_add(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        let mut i = 0;
        while i < N {
            let (v, c) = adc(self.0[i], rhs.0[i], carry);
            out[i] = v;
            carry = c;
            i += 1;
        }
        (Self(out), carry != 0)
    }

    /// Wrapping subtraction returning the result and whether a borrow out of
    /// the top limb occurred (i.e. `self < rhs`).
    #[inline]
    pub const fn borrowing_sub(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut borrow = 0u64;
        let mut i = 0;
        while i < N {
            let (v, b) = sbb(self.0[i], rhs.0[i], borrow);
            out[i] = v;
            borrow = b;
            i += 1;
        }
        (Self(out), borrow != 0)
    }

    /// Schoolbook widening multiplication; returns `(lo, hi)` so that the
    /// full product is `hi · 2^(64N) + lo`.
    pub const fn widening_mul(&self, rhs: &Self) -> (Self, Self) {
        let mut wide = [0u64; 64]; // large enough for any N we instantiate
        assert!(2 * N <= 64, "Uint::widening_mul supports up to 32 limbs");
        let mut i = 0;
        while i < N {
            let mut carry = 0u64;
            let mut j = 0;
            while j < N {
                let (v, c) = mac(wide[i + j], self.0[i], rhs.0[j], carry);
                wide[i + j] = v;
                carry = c;
                j += 1;
            }
            wide[i + N] = carry;
            i += 1;
        }
        let mut lo = [0u64; N];
        let mut hi = [0u64; N];
        let mut k = 0;
        while k < N {
            lo[k] = wide[k];
            hi[k] = wide[k + N];
            k += 1;
        }
        (Self(lo), Self(hi))
    }

    /// Left shift by one bit; returns the result and the bit shifted out.
    #[inline]
    pub const fn shl1(&self) -> (Self, bool) {
        let mut out = [0u64; N];
        let mut carry = 0u64;
        let mut i = 0;
        while i < N {
            out[i] = (self.0[i] << 1) | carry;
            carry = self.0[i] >> 63;
            i += 1;
        }
        (Self(out), carry != 0)
    }

    /// Logical right shift by one bit.
    #[inline]
    pub const fn shr1(&self) -> Self {
        let mut out = [0u64; N];
        let mut i = 0;
        while i < N {
            out[i] = self.0[i] >> 1;
            if i + 1 < N {
                out[i] |= self.0[i + 1] << 63;
            }
            i += 1;
        }
        Self(out)
    }

    /// Logical right shift by an arbitrary number of bits.
    pub fn shr(&self, bits: u32) -> Self {
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = [0u64; N];
        for (i, o) in out.iter_mut().enumerate() {
            if i + limb_shift < N {
                *o = self.0[i + limb_shift] >> bit_shift;
                if bit_shift > 0 && i + limb_shift + 1 < N {
                    *o |= self.0[i + limb_shift + 1] << (64 - bit_shift);
                }
            }
        }
        Self(out)
    }

    /// Constant-width comparison.
    #[inline]
    pub const fn const_cmp(&self, rhs: &Self) -> core::cmp::Ordering {
        let mut i = N;
        while i > 0 {
            i -= 1;
            if self.0[i] < rhs.0[i] {
                return core::cmp::Ordering::Less;
            }
            if self.0[i] > rhs.0[i] {
                return core::cmp::Ordering::Greater;
            }
        }
        core::cmp::Ordering::Equal
    }

    /// Returns `true` if `self < rhs`.
    #[inline]
    pub const fn lt(&self, rhs: &Self) -> bool {
        matches!(self.const_cmp(rhs), core::cmp::Ordering::Less)
    }

    /// Reinterprets the value as `2N` little-endian `u32` limbs, the layout
    /// the simulated GPU kernels in [`crate::u32limb`] operate on.
    pub fn to_u32_limbs(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(2 * N);
        for limb in self.0 {
            out.push(limb as u32);
            out.push((limb >> 32) as u32);
        }
        out
    }

    /// Rebuilds a `Uint` from `2N` little-endian `u32` limbs.
    ///
    /// # Panics
    ///
    /// Panics if `limbs.len() != 2N`.
    pub fn from_u32_limbs(limbs: &[u32]) -> Self {
        assert_eq!(limbs.len(), 2 * N, "expected {} u32 limbs", 2 * N);
        let mut out = [0u64; N];
        for (i, chunk) in limbs.chunks_exact(2).enumerate() {
            out[i] = chunk[0] as u64 | ((chunk[1] as u64) << 32);
        }
        Self(out)
    }

    /// Little-endian bytes of the value.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        self.0.iter().flat_map(|l| l.to_le_bytes()).collect()
    }

    /// Division by a small divisor: returns `(self / d, self % d)`.
    ///
    /// Used to derive pairing exponents such as `(p − 1)/6` at runtime.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn div_rem_u64(&self, d: u64) -> (Self, u64) {
        assert!(d != 0, "division by zero");
        let mut out = [0u64; N];
        let mut rem: u128 = 0;
        for i in (0..N).rev() {
            let cur = (rem << 64) | u128::from(self.0[i]);
            out[i] = (cur / u128::from(d)) as u64;
            rem = cur % u128::from(d);
        }
        (Self(out), rem as u64)
    }
}

impl<const N: usize> Default for Uint<N> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const N: usize> PartialOrd for Uint<N> {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<const N: usize> Ord for Uint<N> {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.const_cmp(other)
    }
}

impl<const N: usize> core::fmt::Debug for Uint<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Uint(0x{self:x})")
    }
}

impl<const N: usize> core::fmt::Display for Uint<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "0x{self:x}")
    }
}

impl<const N: usize> core::fmt::LowerHex for Uint<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut started = false;
        for limb in self.0.iter().rev() {
            if started {
                write!(f, "{limb:016x}")?;
            } else if *limb != 0 {
                write!(f, "{limb:x}")?;
                started = true;
            }
        }
        if !started {
            write!(f, "0")?;
        }
        Ok(())
    }
}

impl<const N: usize> core::fmt::UpperHex for Uint<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = format!("{self:x}").to_uppercase();
        f.write_str(&s)
    }
}

impl<const N: usize> core::fmt::Binary for Uint<N> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let bits = self.num_bits().max(1);
        for i in (0..bits).rev() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

impl<const N: usize> From<u64> for Uint<N> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type U4 = Uint<4>;

    #[test]
    fn hex_round_trip() {
        let a = U4::from_hex("0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47");
        assert_eq!(
            format!("{a:x}"),
            "30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47"
        );
    }

    #[test]
    fn hex_underscores_and_prefix() {
        assert_eq!(U4::from_hex("0xff_00"), U4::from_u64(0xff00));
        assert_eq!(U4::from_hex("FF"), U4::from_u64(255));
    }

    #[test]
    fn add_sub_round_trip() {
        let a = U4::from_hex("ffffffffffffffffffffffffffffffff");
        let b = U4::from_u64(12345);
        let (s, c) = a.carrying_add(&b);
        assert!(!c);
        let (d, bo) = s.borrowing_sub(&b);
        assert!(!bo);
        assert_eq!(d, a);
    }

    #[test]
    fn carry_propagates() {
        let a = U4::MAX;
        let (s, c) = a.carrying_add(&U4::ONE);
        assert!(c);
        assert_eq!(s, U4::ZERO);
    }

    #[test]
    fn borrow_detects_less_than() {
        let (_, b) = U4::ZERO.borrowing_sub(&U4::ONE);
        assert!(b);
    }

    #[test]
    fn widening_mul_small() {
        let a = U4::from_u64(u64::MAX);
        let (lo, hi) = a.widening_mul(&a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        assert_eq!(lo, U4::from_u128((u64::MAX as u128) * (u64::MAX as u128)));
        assert_eq!(hi, U4::ZERO);
    }

    #[test]
    fn widening_mul_max() {
        let (lo, hi) = U4::MAX.widening_mul(&U4::MAX);
        // (2^256-1)^2 = 2^512 - 2^257 + 1
        assert_eq!(lo, U4::ONE);
        let (expected_hi, borrow) = U4::MAX.borrowing_sub(&U4::ONE);
        assert!(!borrow);
        assert_eq!(hi, expected_hi);
    }

    #[test]
    fn bit_window_extraction() {
        let a = U4::from_hex("0xdeadbeefcafebabe1122334455667788");
        assert_eq!(a.bits(0, 8), 0x88);
        assert_eq!(a.bits(4, 8), 0x78);
        assert_eq!(a.bits(60, 8), 0xe1); // crosses the first limb boundary
        assert_eq!(a.bits(64, 32), 0xcafebabe);
        assert_eq!(a.bits(250, 16), 0);
    }

    #[test]
    fn bits_width_64() {
        let a = U4::from_hex("0x1122334455667788_99aabbccddeeff00");
        assert_eq!(a.bits(0, 64), 0x99aabbccddeeff00);
        assert_eq!(a.bits(64, 64), 0x1122334455667788);
    }

    #[test]
    fn num_bits_matches() {
        assert_eq!(U4::ZERO.num_bits(), 0);
        assert_eq!(U4::ONE.num_bits(), 1);
        assert_eq!(U4::from_u64(0x80).num_bits(), 8);
        assert_eq!(U4::MAX.num_bits(), 256);
    }

    #[test]
    fn shifts() {
        let a = U4::from_hex("0x8000000000000000_0000000000000001");
        let (d, c) = a.shl1();
        assert!(!c);
        assert_eq!(d, U4::from_hex("0x1_0000000000000000_0000000000000002"));
        assert_eq!(d.shr1(), a);
        assert_eq!(a.shr(64), U4::from_hex("0x8000000000000000"));
        assert_eq!(a.shr(127), U4::ONE);
    }

    #[test]
    fn ordering() {
        let a = U4::from_hex("0x1_0000000000000000");
        let b = U4::from_u64(u64::MAX);
        assert!(b < a);
        assert!(a > b);
        assert_eq!(a.cmp(&a), core::cmp::Ordering::Equal);
    }

    #[test]
    fn u32_limb_round_trip() {
        let a = U4::from_hex("0xdeadbeefcafebabe1122334455667788aabbccdd");
        assert_eq!(U4::from_u32_limbs(&a.to_u32_limbs()), a);
    }

    #[test]
    fn formatting_is_never_empty() {
        assert_eq!(format!("{:x}", U4::ZERO), "0");
        assert_eq!(format!("{}", U4::ZERO), "0x0");
        assert_eq!(format!("{:b}", U4::ZERO), "0");
        assert_eq!(format!("{:b}", U4::from_u64(5)), "101");
    }
}
