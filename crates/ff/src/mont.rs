//! Montgomery-domain constants and reduction primitives.
//!
//! Every constant needed by a Montgomery-form field — `n′₀ = -p⁻¹ mod 2^64`,
//! `R = 2^(64N) mod p`, `R² mod p` — is computed here by `const fn`s directly
//! from the modulus, so the parameter tables in [`crate::params`] only ever
//! state the modulus itself and cannot drift out of sync with derived
//! constants (DESIGN.md §7).

use crate::uint::{adc, mac, Uint};

/// Computes `-m₀⁻¹ mod 2^64` for an odd `m₀` by Newton iteration.
///
/// This is the `n′₀` of the paper's Algorithm 2 (there for 32-bit limbs; the
/// 32-bit flavour lives in [`crate::u32limb::mont_inv32`]).
///
/// # Panics
///
/// Panics if `m0` is even (a Montgomery modulus must be odd).
pub const fn mont_inv64(m0: u64) -> u64 {
    assert!(m0 & 1 == 1, "Montgomery modulus must be odd");
    // Newton: x_{k+1} = x_k (2 - m0 x_k); doubles correct bits each step.
    let mut inv = 1u64;
    let mut i = 0;
    while i < 6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(m0.wrapping_mul(inv)));
        i += 1;
    }
    inv.wrapping_neg()
}

/// Doubles `a` modulo `m`, assuming `a < m` and the top bit of `m`'s top
/// limb is clear (true for every modulus in this workspace).
pub const fn double_mod<const N: usize>(a: &Uint<N>, m: &Uint<N>) -> Uint<N> {
    let (d, carry) = a.shl1();
    let (r, borrow) = d.borrowing_sub(m);
    if carry || !borrow {
        r
    } else {
        d
    }
}

/// Adds `a + b mod m`, assuming both inputs `< m`.
#[inline]
pub fn add_mod<const N: usize>(a: &Uint<N>, b: &Uint<N>, m: &Uint<N>) -> Uint<N> {
    let (s, carry) = a.carrying_add(b);
    let (r, borrow) = s.borrowing_sub(m);
    Uint::select(carry || !borrow, &r, &s)
}

/// Subtracts `a - b mod m`, assuming both inputs `< m`.
#[inline]
pub fn sub_mod<const N: usize>(a: &Uint<N>, b: &Uint<N>, m: &Uint<N>) -> Uint<N> {
    let (d, borrow) = a.borrowing_sub(b);
    d.carrying_add(&Uint::select(borrow, m, &Uint::ZERO)).0
}

/// Computes `2^k mod m` by repeated doubling.
pub const fn pow2_mod<const N: usize>(k: u32, m: &Uint<N>) -> Uint<N> {
    let mut acc = Uint::<N>::ONE;
    // Reduce the initial 1 in case m == 1 is ever passed; moduli are > 1.
    let mut i = 0;
    while i < k {
        acc = double_mod(&acc, m);
        i += 1;
    }
    acc
}

/// `R = 2^(64N) mod m`, the Montgomery radix residue.
pub const fn compute_r<const N: usize>(m: &Uint<N>) -> Uint<N> {
    pow2_mod(64 * N as u32, m)
}

/// `R² = 2^(128N) mod m`, used to convert into the Montgomery domain.
pub const fn compute_r2<const N: usize>(m: &Uint<N>) -> Uint<N> {
    pow2_mod(128 * N as u32, m)
}

/// Number of trailing zero bits of `m - 1` (the two-adicity of the
/// multiplicative group, which bounds NTT sizes).
pub const fn two_adicity<const N: usize>(m: &Uint<N>) -> u32 {
    let (m1, _) = m.borrowing_sub(&Uint::ONE);
    let mut s = 0;
    while s < 64 * N as u32 {
        if m1.bit(s) {
            return s;
        }
        s += 1;
    }
    0
}

/// Is the carry-free CIOS schedule of [`mont_mul_cios`] valid for `m`?
///
/// It is when `m` leaves the top bit of its top limb clear: every field in
/// [`crate::params`] does, and [`crate::Fp`] checks it at compile time.
/// (The usual statement asks for a top limb below `2^63 − 1`; the bound
/// in [`mont_mul_cios`] needs only `m < 2^(64N − 1)`.)
pub const fn carry_free<const N: usize>(m: &Uint<N>) -> bool {
    m.0[N - 1] >> 63 == 0
}

/// CIOS Montgomery multiplication: returns `a · b · R⁻¹ mod m`, canonical,
/// for `b < m` and any `a` (full width included).
///
/// The "no-carry" schedule: requires [`carry_free`]`(m)`. Step `i` sets
/// `t = (t + a[i]·b + q·m) / 2^64`, which stays below `b + m < 2^(64N)`,
/// so the scratch is `N` limbs, the two carry chains of a step (`a[i]·b`
/// and `q·m`) meet in its top limb without a carry out of it, and one
/// conditional subtraction ends it.
#[inline]
pub fn mont_mul_cios<const N: usize>(a: &Uint<N>, b: &Uint<N>, m: &Uint<N>, inv: u64) -> Uint<N> {
    let mut t = [0u64; N];
    for i in 0..N {
        // t = (t + a[i]·b + q·m) / 2^64, one limb of each chain at a time
        let (t0, mut carry_ab) = mac(t[0], a.0[i], b.0[0], 0);
        let q = t0.wrapping_mul(inv);
        let (_, mut carry_qm) = mac(t0, q, m.0[0], 0);
        for j in 1..N {
            let (v, c) = mac(t[j], a.0[i], b.0[j], carry_ab);
            carry_ab = c;
            (t[j - 1], carry_qm) = mac(v, q, m.0[j], carry_qm);
        }
        // the top limb of both chains: below 2^64 because t < b + m < 2^(64N)
        t[N - 1] = carry_ab + carry_qm;
    }
    subtract_once(Uint(t), false, m)
}

/// `r − m` if `overflow` (a carry out of the top limb) or `r ≥ m`, else
/// `r`: the final step of every Montgomery product here.
#[inline]
fn subtract_once<const N: usize>(r: Uint<N>, overflow: bool, m: &Uint<N>) -> Uint<N> {
    let (sub, borrow) = r.borrowing_sub(m);
    Uint::select(overflow || !borrow, &sub, &r)
}

/// SOS (Separated Operand Scanning) Montgomery reduction of a double-width
/// value `(lo, hi)`, mirroring the paper's Algorithm 2 at 64-bit limb width.
///
/// Returns `(hi·2^(64N) + lo) · R⁻¹ mod m` for any input below
/// `m · 2^(64N)` (any `hi < m`). It is the one double-width reduction:
/// [`mont_mul_sos`], `Fp::square` and the lazy `Fp2` product all end in
/// it. The scratch is an `N`-limb window that slides up one limb per
/// step, taking in `hi[i]` at its top.
#[inline]
pub fn mont_reduce_sos<const N: usize>(
    lo: &Uint<N>,
    hi: &Uint<N>,
    m: &Uint<N>,
    inv: u64,
) -> Uint<N> {
    let mut t = lo.0;
    let mut carry_hi = 0u64;
    for i in 0..N {
        // m_i = C[i] · n′0 mod 2^64; C += m_i · m << (64 i)  (paper lines 3–4)
        let q = t[0].wrapping_mul(inv);
        let (_, mut carry) = mac(t[0], q, m.0[0], 0);
        for j in 1..N {
            let (v, c) = mac(t[j], q, m.0[j], carry);
            t[j - 1] = v;
            carry = c;
        }
        let (v, c) = adc(hi.0[i], carry, carry_hi);
        t[N - 1] = v;
        carry_hi = c;
    }
    subtract_once(Uint(t), carry_hi != 0, m)
}

/// SOS Montgomery multiplication: widening multiply then [`mont_reduce_sos`].
pub fn mont_mul_sos<const N: usize>(a: &Uint<N>, b: &Uint<N>, m: &Uint<N>, inv: u64) -> Uint<N> {
    let (lo, hi) = a.widening_mul(b);
    mont_reduce_sos(&lo, &hi, m, inv)
}

/// A runtime Montgomery context for an arbitrary odd modulus.
///
/// The compile-time field types in [`crate::fp`] cover the fixed curve
/// fields; `MontCtx` serves callers that receive the modulus at runtime —
/// Miller–Rabin primality checking ([`crate::primality`]) and the simulated
/// GPU kernels that are handed a modulus as plain data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MontCtx<const N: usize> {
    modulus: Uint<N>,
    inv: u64,
    r: Uint<N>,
    r2: Uint<N>,
}

impl<const N: usize> MontCtx<N> {
    /// Builds a context for an odd modulus `m > 1`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is even or `≤ 1`, or if its top bit is set
    /// ([`carry_free`]; every supported modulus leaves that headroom).
    pub fn new(modulus: Uint<N>) -> Self {
        assert!(modulus.0[0] & 1 == 1, "modulus must be odd");
        assert!(!modulus.is_zero() && modulus != Uint::ONE, "modulus must exceed 1");
        assert!(carry_free(&modulus), "modulus must leave a spare top bit");
        let inv = mont_inv64(modulus.0[0]);
        Self {
            modulus,
            inv,
            r: compute_r(&modulus),
            r2: compute_r2(&modulus),
        }
    }

    /// The modulus this context reduces by.
    pub fn modulus(&self) -> &Uint<N> {
        &self.modulus
    }

    /// `R mod m` — the Montgomery form of 1.
    pub fn one(&self) -> Uint<N> {
        self.r
    }

    /// Converts a canonical value (`< m`) into Montgomery form.
    pub fn to_mont(&self, a: &Uint<N>) -> Uint<N> {
        mont_mul_cios(a, &self.r2, &self.modulus, self.inv)
    }

    /// Converts a Montgomery-form value back to canonical form.
    pub fn from_mont(&self, a: &Uint<N>) -> Uint<N> {
        mont_mul_cios(a, &Uint::ONE, &self.modulus, self.inv)
    }

    /// Montgomery product `a · b · R⁻¹ mod m`.
    pub fn mul(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        mont_mul_cios(a, b, &self.modulus, self.inv)
    }

    /// Modular addition of Montgomery-form values.
    pub fn add(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        add_mod(a, b, &self.modulus)
    }

    /// Modular subtraction of Montgomery-form values.
    pub fn sub(&self, a: &Uint<N>, b: &Uint<N>) -> Uint<N> {
        sub_mod(a, b, &self.modulus)
    }

    /// Montgomery-form exponentiation `base^exp mod m` (square-and-multiply,
    /// most-significant bit first). `base` is in Montgomery form and the
    /// result is too.
    pub fn pow(&self, base: &Uint<N>, exp: &Uint<N>) -> Uint<N> {
        let mut acc = self.r;
        let bits = exp.num_bits();
        for i in (0..bits).rev() {
            acc = self.mul(&acc, &acc);
            if exp.bit(i) {
                acc = self.mul(&acc, base);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Uint<4> =
        Uint::from_hex("0x30644e72e131a029b85045b68181585d97816a916871ca8d3c208c16d87cfd47");

    #[test]
    fn inv64_is_inverse() {
        let inv = mont_inv64(P.0[0]);
        assert_eq!(P.0[0].wrapping_mul(inv.wrapping_neg()), 1);
    }

    #[test]
    fn r_and_r2_consistent() {
        let ctx = MontCtx::new(P);
        // R² · R⁻¹ = R (mont multiply R2 by one)
        assert_eq!(ctx.mul(&ctx.r2, &Uint::ONE), ctx.r);
        // to_mont(1) = R
        assert_eq!(ctx.to_mont(&Uint::ONE), ctx.r);
        // round trip
        let x = Uint::<4>::from_u64(123456789);
        assert_eq!(ctx.from_mont(&ctx.to_mont(&x)), x);
    }

    #[test]
    fn cios_matches_sos() {
        let ctx = MontCtx::new(P);
        let mut a = Uint::<4>::from_u64(0xdeadbeef);
        let mut b = Uint::<4>::from_hex("0x123456789abcdef0fedcba9876543210");
        for _ in 0..50 {
            let cios = mont_mul_cios(&a, &b, &P, ctx.inv);
            let sos = mont_mul_sos(&a, &b, &P, ctx.inv);
            assert_eq!(cios, sos);
            a = add_mod(&cios, &b, &P);
            b = double_mod(&b, &P);
        }
    }

    #[test]
    fn mont_mul_small_identity() {
        let ctx = MontCtx::new(P);
        // mont(aR, bR) = abR; with a=3,b=5 => from_mont = 15
        let a = ctx.to_mont(&Uint::from_u64(3));
        let b = ctx.to_mont(&Uint::from_u64(5));
        assert_eq!(ctx.from_mont(&ctx.mul(&a, &b)), Uint::from_u64(15));
    }

    #[test]
    fn pow_fermat() {
        // a^(p-1) = 1 mod p for prime p
        let ctx = MontCtx::new(P);
        let (pm1, _) = P.borrowing_sub(&Uint::ONE);
        let a = ctx.to_mont(&Uint::from_u64(7));
        assert_eq!(ctx.pow(&a, &pm1), ctx.one());
    }

    #[test]
    fn two_adicity_bn254_scalar() {
        let r: Uint<4> =
            Uint::from_hex("0x30644e72e131a029b85045b68181585d2833e84879b9709143e1f593f0000001");
        assert_eq!(two_adicity(&r), 28);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        MontCtx::new(Uint::<4>::from_u64(100));
    }
}
