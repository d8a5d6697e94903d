//! The [`SimdOp`] backend trait and its portable (no-`unsafe`) impl.
//!
//! A backend is a fixed-width bundle of `f32` lanes plus the primitive
//! lane operations the kernels in [`crate::kernels`] are written against.
//! Every kernel is generic over one backend and uses **the same 8-lane
//! reduction trees at every dispatch level; a 16-lane backend folds into
//! them** ([`SimdOp::fold`]). The scalar level ([`Lanes<8>`]) simulates the
//! eight AVX2 lanes with a `[f32; 8]` array and the identical horizontal
//! reduction tree, which is what makes the scalar, AVX2 and AVX-512
//! levels bit-identical: each lane op is the same IEEE two-operand
//! operation, and no backend contracts a multiply–add into one rounding.
//!
//! The same impl at one lane, [`Lanes<1>`], makes the per-element
//! reference functions in [`crate::scalar`] *the same generic code* as the
//! vector kernels — there is no second copy of the polynomial that could
//! drift.
//!
//! Beside the `f32` lanes each backend has as many `u32` lanes
//! ([`SimdOp::U`]) with the exact integer operations the Philox generator
//! of [`crate::philox`] is written in: wrapping add, xor, a shift and the
//! 32 × 32 → 64-bit multiply split into its two words. Integer
//! arithmetic has one answer, so these agree across the backends by
//! definition.

/// Lane-level floating-point semantics shared by every backend:
/// `min`/`max` return the **second** operand on NaN or ties, exactly like
/// the x86 `minps`/`maxps` instructions, so the portable backends and the
/// AVX2 backend agree bit-for-bit on specials.
pub(crate) mod lane {
    /// `maxps` semantics: `a` iff `a > b`, else `b` (NaN compares false).
    #[inline(always)]
    pub fn max(a: f32, b: f32) -> f32 {
        if a > b {
            a
        } else {
            b
        }
    }

    /// `minps` semantics: `a` iff `a < b`, else `b` (NaN compares false).
    #[inline(always)]
    pub fn min(a: f32, b: f32) -> f32 {
        if a < b {
            a
        } else {
            b
        }
    }

    /// `y · 2^n` for an integer-valued `n` in `[-126, 128]`, applied as
    /// two half-sized power-of-two multiplies so neither factor's biased
    /// exponent leaves the normal range (a single `2^128` factor would
    /// overflow to infinity and poison finite results near `exp`'s
    /// overflow edge).
    #[inline(always)]
    pub fn scale_by_pow2(y: f32, n: f32) -> f32 {
        let ni = n as i32;
        let h1 = ni >> 1; // floor halves, matching the vector `srai`
        let h2 = ni - h1;
        let f1 = f32::from_bits((((h1 + 127) as u32) & 0xff) << 23);
        let f2 = f32::from_bits((((h2 + 127) as u32) & 0xff) << 23);
        (y * f1) * f2
    }

    /// `x`'s significand with its exponent field set to that of `1.0` (a
    /// value in `[1, 2)`, the sign dropped) and its unbiased exponent field
    /// as a float (`−127` for zeros and subnormals, `128` for infinities
    /// and NaNs), so `x = m · 2^e` for every positive normal `x`. Integer
    /// bit manipulation only, so every backend agrees on every input.
    #[inline(always)]
    pub fn frexp(x: f32) -> (f32, f32) {
        let bits = x.to_bits();
        let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f80_0000);
        let e = ((bits >> 23) & 0xff) as i32 - 127;
        (m, e as f32)
    }
}

/// The widest bundle any backend has: the sizes of the stack blocks a
/// padded load or a partial store goes through.
pub const MAX_LANES: usize = 16;

/// One dispatch level's bundle of `f32` lanes and primitive operations.
///
/// Implementations must keep the lane semantics above; the kernels rely
/// on them for cross-level bit-equality. No operation may differ between
/// levels, so `mul_add` is provided once, unfused, for every backend.
pub trait SimdOp {
    /// The lane bundle (e.g. `[f32; 8]`, `__m256`).
    type V: Copy;
    /// The bundle of as many `u32` lanes (e.g. `[u32; 8]`, `__m256i`).
    type U: Copy;
    /// A per-lane boolean mask produced by the comparisons.
    type M: Copy;
    /// Number of `f32` lanes per bundle (at most [`MAX_LANES`]).
    const LANES: usize;
    /// The eight-lane backend that runs this backend's reduction trees:
    /// the backend itself at eight lanes, the AVX2 backend for the
    /// 16-lane one.
    type Tree: Reduce;

    /// The GEMM register tile `(MR, NR)` ([`crate::gemm`]) for a product
    /// `n` columns wide: `MR` rows of `NR` columns, `NR` one or two whole
    /// bundles.
    fn gemm_tile(n: usize) -> (usize, usize);
    /// Feeds `f`, low lanes first, each eight-lane granule of `v` that
    /// holds one of its first `live` lanes (`1..=LANES`); a granule of
    /// pad lanes only is never fed.
    ///
    /// This is how a reduction keeps the eight-lane tree at every width:
    /// its accumulator is a [`SimdOp::Tree`] bundle, and it sees the same
    /// granules in the same order whether they arrive eight or sixteen at
    /// a time.
    fn fold(v: Self::V, live: usize, f: impl FnMut(<Self::Tree as SimdOp>::V));

    /// Broadcasts one value to every lane.
    fn splat(x: f32) -> Self::V;
    /// Loads `LANES` values from the front of `src`.
    fn load(src: &[f32]) -> Self::V;
    /// Loads a tail block: `rem` (shorter than `LANES`) in the low lanes,
    /// `pad` in the rest.
    ///
    /// This default goes through a stack block; a backend with a masked
    /// load overrides it, because narrow stores followed by one wide
    /// reload cannot be store-forwarded and stall every tail.
    #[inline(always)]
    fn load_padded(rem: &[f32], pad: f32) -> Self::V {
        debug_assert!(Self::LANES <= MAX_LANES && rem.len() < Self::LANES);
        let mut buf = [pad; MAX_LANES];
        buf[..rem.len()].copy_from_slice(rem);
        Self::load(&buf)
    }
    /// Stores the lanes to the front of `dst`.
    fn store(v: Self::V, dst: &mut [f32]);
    /// Lanewise `a + b`.
    fn add(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a − b`.
    fn sub(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a · b`.
    fn mul(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a / b`.
    fn div(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `maxps`-semantics maximum.
    fn max(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `minps`-semantics minimum.
    fn min(a: Self::V, b: Self::V) -> Self::V;
    /// Lanewise `a · b + c`, unfused: two roundings on every backend.
    #[inline(always)]
    fn mul_add(a: Self::V, b: Self::V, c: Self::V) -> Self::V {
        Self::add(Self::mul(a, b), c)
    }
    /// Lanewise round to nearest, ties to even.
    fn round(v: Self::V) -> Self::V;
    /// Lanewise `lane::scale_by_pow2` (two-step power-of-two scaling).
    fn scale_by_pow2(y: Self::V, n: Self::V) -> Self::V;
    /// Lanewise `lane::frexp`: `(significand in [1, 2), exponent)`.
    fn frexp(v: Self::V) -> (Self::V, Self::V);
    /// Lanewise absolute value (clears the sign bit).
    fn abs(v: Self::V) -> Self::V;
    /// Lanewise copy of `sign`'s sign bit onto `mag`.
    fn copysign(mag: Self::V, sign: Self::V) -> Self::V;
    /// Lanewise `a > b` (false on NaN).
    fn gt(a: Self::V, b: Self::V) -> Self::M;
    /// Lanewise `a < b` (false on NaN).
    fn lt(a: Self::V, b: Self::V) -> Self::M;
    /// Lanewise NaN test.
    fn is_nan(v: Self::V) -> Self::M;
    /// Lanewise `mask ? t : f`.
    fn select(mask: Self::M, t: Self::V, f: Self::V) -> Self::V;
    /// Stores the mask's lanes to the front of `dst`.
    fn store_mask(mask: Self::M, dst: &mut [bool]);
    /// Lanewise square root (IEEE, correctly rounded on every backend).
    fn sqrt(v: Self::V) -> Self::V;
    /// Interleaves two bundles: of the sequence `a₀ b₀ a₁ b₁ …`, the first
    /// `LANES` values and then the next `LANES`.
    fn zip(a: Self::V, b: Self::V) -> (Self::V, Self::V);

    /// Broadcasts one word to every lane.
    fn splat_u32(x: u32) -> Self::U;
    /// The words `start, start + 1, …`, wrapping past `u32::MAX`.
    fn iota_u32(start: u32) -> Self::U;
    /// Stores the lanes to the front of `dst`.
    fn store_u32(v: Self::U, dst: &mut [u32]);
    /// Lanewise wrapping `a + b`.
    fn add_u32(a: Self::U, b: Self::U) -> Self::U;
    /// Lanewise `a ^ b`.
    fn xor_u32(a: Self::U, b: Self::U) -> Self::U;
    /// Lanewise 64-bit product `a · b`, as its (high, low) words.
    fn mul_wide_u32(a: Self::U, b: Self::U) -> (Self::U, Self::U);
    /// Lanewise logical `a >> n`, `n < 32`.
    fn shr_u32(a: Self::U, n: u32) -> Self::U;
    /// Lanewise unsigned `a < b`.
    fn lt_u32(a: Self::U, b: Self::U) -> Self::M;
    /// Lanewise conversion of each word, read as an `i32`, to the nearest
    /// `f32` (exact below `2²⁴`).
    fn i32_to_f32(a: Self::U) -> Self::V;
    /// Reinterprets each word as an `f32` (no conversion).
    fn from_bits(a: Self::U) -> Self::V;
    /// Reinterprets each `f32` as its word (no conversion).
    fn to_bits(v: Self::V) -> Self::U;
}

/// The horizontal reductions of a backend that can be a [`SimdOp::Tree`]:
/// only eight-lane ones (and the one-lane reference), so no reduction can
/// run a tree of another width.
pub trait Reduce: SimdOp {
    /// Horizontal sum over the fixed pairwise tree
    /// `(l0+l4, l1+l5, l2+l6, l3+l7) → (s0+s2, s1+s3) → t0+t1`.
    fn hsum(v: Self::V) -> f32;
    /// Horizontal max over the same tree with `maxps` lane semantics.
    fn hmax(v: Self::V) -> f32;
}

/// The portable backend: `N` lanes of `[f32; N]`, each op done lane by
/// lane, `N` a power of two.
///
/// `Lanes<8>` is the `VITAL_SIMD=scalar` dispatch level. It mirrors the
/// AVX2 backend lane for lane (same block width, same reduction tree, same
/// special-value semantics), so its results are bit-identical to AVX2 on
/// every input — the property the CI dispatch matrix asserts. `Lanes<1>`
/// derives the per-element functions of [`crate::scalar`] from the same
/// code; no dispatcher runs it, since the reduction kernels rely on the
/// 8-lane accumulator structure.
pub struct Lanes<const N: usize>;

impl<const N: usize> SimdOp for Lanes<N> {
    type V = [f32; N];
    type U = [u32; N];
    type M = [bool; N];
    const LANES: usize = N;
    type Tree = Self;

    #[inline(always)]
    fn gemm_tile(_n: usize) -> (usize, usize) {
        (4, N)
    }
    #[inline(always)]
    fn fold(v: [f32; N], _live: usize, mut f: impl FnMut([f32; N])) {
        f(v);
    }

    #[inline(always)]
    fn splat(x: f32) -> [f32; N] {
        [x; N]
    }
    #[inline(always)]
    fn load(src: &[f32]) -> [f32; N] {
        let mut v = [0.0f32; N];
        v.copy_from_slice(&src[..N]);
        v
    }
    #[inline(always)]
    fn store(v: [f32; N], dst: &mut [f32]) {
        dst[..N].copy_from_slice(&v);
    }
    #[inline(always)]
    fn add(a: [f32; N], b: [f32; N]) -> [f32; N] {
        std::array::from_fn(|i| a[i] + b[i])
    }
    #[inline(always)]
    fn sub(a: [f32; N], b: [f32; N]) -> [f32; N] {
        std::array::from_fn(|i| a[i] - b[i])
    }
    #[inline(always)]
    fn mul(a: [f32; N], b: [f32; N]) -> [f32; N] {
        std::array::from_fn(|i| a[i] * b[i])
    }
    #[inline(always)]
    fn div(a: [f32; N], b: [f32; N]) -> [f32; N] {
        std::array::from_fn(|i| a[i] / b[i])
    }
    #[inline(always)]
    fn max(a: [f32; N], b: [f32; N]) -> [f32; N] {
        std::array::from_fn(|i| lane::max(a[i], b[i]))
    }
    #[inline(always)]
    fn min(a: [f32; N], b: [f32; N]) -> [f32; N] {
        std::array::from_fn(|i| lane::min(a[i], b[i]))
    }
    #[inline(always)]
    fn round(v: [f32; N]) -> [f32; N] {
        v.map(f32::round_ties_even)
    }
    #[inline(always)]
    fn scale_by_pow2(y: [f32; N], n: [f32; N]) -> [f32; N] {
        std::array::from_fn(|i| lane::scale_by_pow2(y[i], n[i]))
    }
    #[inline(always)]
    fn frexp(v: [f32; N]) -> ([f32; N], [f32; N]) {
        let split = v.map(lane::frexp);
        (split.map(|(m, _)| m), split.map(|(_, e)| e))
    }
    #[inline(always)]
    fn abs(v: [f32; N]) -> [f32; N] {
        v.map(|x| f32::from_bits(x.to_bits() & 0x7fff_ffff))
    }
    #[inline(always)]
    fn copysign(mag: [f32; N], sign: [f32; N]) -> [f32; N] {
        std::array::from_fn(|i| {
            f32::from_bits((mag[i].to_bits() & 0x7fff_ffff) | (sign[i].to_bits() & 0x8000_0000))
        })
    }
    #[inline(always)]
    fn gt(a: [f32; N], b: [f32; N]) -> [bool; N] {
        std::array::from_fn(|i| a[i] > b[i])
    }
    #[inline(always)]
    fn lt(a: [f32; N], b: [f32; N]) -> [bool; N] {
        std::array::from_fn(|i| a[i] < b[i])
    }
    #[inline(always)]
    fn is_nan(v: [f32; N]) -> [bool; N] {
        v.map(f32::is_nan)
    }
    #[inline(always)]
    fn select(mask: [bool; N], t: [f32; N], f: [f32; N]) -> [f32; N] {
        std::array::from_fn(|i| if mask[i] { t[i] } else { f[i] })
    }
    #[inline(always)]
    fn store_mask(mask: [bool; N], dst: &mut [bool]) {
        dst[..N].copy_from_slice(&mask);
    }
    #[inline(always)]
    fn sqrt(v: [f32; N]) -> [f32; N] {
        v.map(f32::sqrt)
    }
    #[inline(always)]
    fn zip(a: [f32; N], b: [f32; N]) -> ([f32; N], [f32; N]) {
        let interleaved = |j: usize| {
            if j.is_multiple_of(2) {
                a[j / 2]
            } else {
                b[j / 2]
            }
        };
        (
            std::array::from_fn(interleaved),
            std::array::from_fn(|i| interleaved(N + i)),
        )
    }

    #[inline(always)]
    fn splat_u32(x: u32) -> [u32; N] {
        [x; N]
    }
    #[inline(always)]
    fn iota_u32(start: u32) -> [u32; N] {
        std::array::from_fn(|i| start.wrapping_add(i as u32))
    }
    #[inline(always)]
    fn store_u32(v: [u32; N], dst: &mut [u32]) {
        dst[..N].copy_from_slice(&v);
    }
    #[inline(always)]
    fn add_u32(a: [u32; N], b: [u32; N]) -> [u32; N] {
        std::array::from_fn(|i| a[i].wrapping_add(b[i]))
    }
    #[inline(always)]
    fn xor_u32(a: [u32; N], b: [u32; N]) -> [u32; N] {
        std::array::from_fn(|i| a[i] ^ b[i])
    }
    #[inline(always)]
    fn mul_wide_u32(a: [u32; N], b: [u32; N]) -> ([u32; N], [u32; N]) {
        let product = |i: usize| u64::from(a[i]) * u64::from(b[i]);
        (
            std::array::from_fn(|i| (product(i) >> 32) as u32),
            std::array::from_fn(|i| product(i) as u32),
        )
    }
    #[inline(always)]
    fn shr_u32(a: [u32; N], n: u32) -> [u32; N] {
        a.map(|x| x >> n)
    }
    #[inline(always)]
    fn lt_u32(a: [u32; N], b: [u32; N]) -> [bool; N] {
        std::array::from_fn(|i| a[i] < b[i])
    }
    #[inline(always)]
    fn i32_to_f32(a: [u32; N]) -> [f32; N] {
        a.map(|x| x as i32 as f32)
    }
    #[inline(always)]
    fn from_bits(a: [u32; N]) -> [f32; N] {
        a.map(f32::from_bits)
    }
    #[inline(always)]
    fn to_bits(v: [f32; N]) -> [u32; N] {
        v.map(f32::to_bits)
    }
}

impl<const N: usize> Reduce for Lanes<N> {
    #[inline(always)]
    fn hsum(v: [f32; N]) -> f32 {
        fold_halves(v, |a, b| a + b)
    }
    #[inline(always)]
    fn hmax(v: [f32; N]) -> f32 {
        fold_halves(v, lane::max)
    }
}

/// Folds the upper half of the lanes onto the lower until one is left:
/// for eight lanes exactly the tree `(l0∘l4, l1∘l5, l2∘l6, l3∘l7) →
/// (s0∘s2, s1∘s3) → t0∘t1` the AVX2 reductions use.
#[inline(always)]
fn fold_halves<const N: usize>(mut v: [f32; N], op: impl Fn(f32, f32) -> f32) -> f32 {
    const { assert!(N.is_power_of_two()) };
    let mut half = N / 2;
    while half > 0 {
        for i in 0..half {
            v[i] = op(v[i], v[i + half]);
        }
        half /= 2;
    }
    v[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_min_max_mirror_x86_semantics() {
        // NaN in the FIRST operand yields the second (cmp is false)...
        assert_eq!(lane::max(f32::NAN, 1.0), 1.0);
        assert_eq!(lane::min(f32::NAN, 1.0), 1.0);
        // ...and NaN in the second operand propagates the NaN.
        assert!(lane::max(1.0, f32::NAN).is_nan());
        // Ties return the second operand: max(+0, -0) = -0.
        assert_eq!(lane::max(0.0, -0.0).to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn scale_by_pow2_covers_the_exp_range() {
        assert_eq!(lane::scale_by_pow2(1.0, 10.0), 1024.0);
        assert_eq!(lane::scale_by_pow2(1.0, -10.0), 1.0 / 1024.0);
        // 2^128 via the two-step split stays finite long enough to scale
        // a sub-unity mantissa into range.
        assert_eq!(lane::scale_by_pow2(0.5, 128.0), 2.0f32.powi(127));
        // Deep underflow flushes toward zero instead of wrapping.
        assert_eq!(lane::scale_by_pow2(1.0, -126.0), 2.0f32.powi(-126));
    }

    #[test]
    fn scalar8_reductions_use_the_fixed_tree() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(Lanes::<8>::hsum(v), 36.0);
        assert_eq!(Lanes::<8>::hmax(v), 8.0);
        assert_eq!(Lanes::<1>::hsum([-3.5]), -3.5);
        // Pins the pairing: lanes 0 and 1 never meet before the final
        // add, so the two 1.0s are each absorbed by 2^24 (which cannot
        // represent +1) and the tree yields 2^24 — a sequential
        // left-to-right sum would combine the 1.0s first and yield
        // 2^24 + 2.
        let big = [1.0, 1.0, 16_777_216.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(Lanes::<8>::hsum(big), 16_777_216.0);
    }
}
