//! x86-64 backends: [`Avx2`] (256-bit, unfused multiply–add) and
//! [`FmaB`] (same lanes, fused multiply–add), plus the
//! `#[target_feature]` entry points the dispatcher calls.
//!
//! This module is the **only** place in the workspace where `unsafe`
//! appears (enforced by the `hygiene` lint rule's
//! `unsafe_allowed_dirs`). Two kinds of `unsafe` live here, each with a
//! narrow contract:
//!
//! 1. Intrinsic calls inside the backend methods. The intrinsics are
//!    `#[target_feature]` functions, so calling them from these plain
//!    `#[inline(always)]` methods needs an `unsafe` block; soundness
//!    comes from the module contract that backend methods are only ever
//!    reached by inlining into the feature-gated entry points below,
//!    which the dispatcher guards with `is_x86_feature_detected!`.
//! 2. The entry points themselves are `unsafe fn` whose single
//!    precondition is "the advertised CPU features are present".
//!
//! The AVX2 backend is bit-identical to the portable [`Scalar8`]
//! backend: every method maps to the same IEEE-754 two-operand
//! operation (`vaddps` ≙ lanewise `+`, `vmaxps` ≙ the shared
//! `maxps`-semantics max, …) and the horizontal reductions use the same
//! fixed tree. Only [`FmaB`] deviates, by contracting `a·b + c` into a
//! single rounding.
//!
//! [`Scalar8`]: crate::backend::Scalar8

#![allow(clippy::missing_safety_doc)] // false positive guard: every unsafe fn below documents # Safety

use core::arch::x86_64::*;

use crate::backend::SimdOp;
use crate::kernels::{self, Act};

/// 256-bit AVX2 backend with **unfused** multiply–add — the
/// deterministic default level, bit-identical to the scalar backend.
pub struct Avx2;

impl SimdOp for Avx2 {
    type V = __m256;
    type M = __m256;
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(x: f32) -> __m256 {
        // SAFETY: module contract — only reached from AVX2-enabled entry
        // points, so the AVX instructions this lowers to are available.
        unsafe { _mm256_set1_ps(x) }
    }
    #[inline(always)]
    fn load(src: &[f32]) -> __m256 {
        debug_assert!(src.len() >= 8);
        // SAFETY: the bounds check above guarantees 8 readable f32s at
        // `src.as_ptr()`; `loadu` has no alignment requirement. AVX is
        // available per the module contract.
        unsafe { _mm256_loadu_ps(src.as_ptr()) }
    }
    #[inline(always)]
    fn load_padded(rem: &[f32], pad: f32) -> __m256 {
        // Lane `i` is live iff `i < rem.len()`; clamping keeps the mask
        // inside the slice even for a caller that passes a full block.
        let live = rem.len().min(8) as i32;
        // SAFETY: `vmaskmovps` reads only lanes whose mask sign bit is
        // set — lanes `0..live`, all inside `rem` — and masked-off lanes
        // are architecturally never accessed, so they cannot fault past
        // the slice's end. AVX2 (the integer compare) is available per
        // the module contract.
        unsafe {
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(live), lanes);
            let low = _mm256_maskload_ps(rem.as_ptr(), mask);
            _mm256_blendv_ps(_mm256_set1_ps(pad), low, _mm256_castsi256_ps(mask))
        }
    }
    #[inline(always)]
    fn store(v: __m256, dst: &mut [f32]) {
        debug_assert!(dst.len() >= 8);
        // SAFETY: the bounds check above guarantees 8 writable f32s at
        // `dst.as_mut_ptr()`; `storeu` has no alignment requirement. AVX
        // is available per the module contract.
        unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn add(a: __m256, b: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract.
        unsafe { _mm256_add_ps(a, b) }
    }
    #[inline(always)]
    fn sub(a: __m256, b: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract.
        unsafe { _mm256_sub_ps(a, b) }
    }
    #[inline(always)]
    fn mul(a: __m256, b: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract.
        unsafe { _mm256_mul_ps(a, b) }
    }
    #[inline(always)]
    fn div(a: __m256, b: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract.
        unsafe { _mm256_div_ps(a, b) }
    }
    #[inline(always)]
    fn max(a: __m256, b: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract. `vmaxps` is the
        // reference for the shared `lane::max` semantics.
        unsafe { _mm256_max_ps(a, b) }
    }
    #[inline(always)]
    fn min(a: __m256, b: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract.
        unsafe { _mm256_min_ps(a, b) }
    }
    #[inline(always)]
    fn mul_add(a: __m256, b: __m256, c: __m256) -> __m256 {
        // Unfused on purpose: two roundings, exactly like the scalar
        // backend, so scalar and avx2 levels stay bit-identical.
        // SAFETY: AVX available per the module contract.
        unsafe { _mm256_add_ps(_mm256_mul_ps(a, b), c) }
    }
    #[inline(always)]
    fn round(v: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract. Nearest-int with
        // ties-to-even matches `f32::round_ties_even`.
        unsafe { _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(v) }
    }
    #[inline(always)]
    fn scale_by_pow2(y: __m256, n: __m256) -> __m256 {
        // SAFETY: AVX2 available per the module contract (integer
        // 256-bit ops are AVX2). Mirrors `lane::scale_by_pow2`: split n
        // into halves, build 2^h via exponent-field bit assembly,
        // multiply twice.
        unsafe {
            let ni = _mm256_cvtps_epi32(n);
            let h1 = _mm256_srai_epi32::<1>(ni);
            let h2 = _mm256_sub_epi32(ni, h1);
            let bias = _mm256_set1_epi32(127);
            let mask = _mm256_set1_epi32(0xff);
            let f1 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_and_si256(
                _mm256_add_epi32(h1, bias),
                mask,
            )));
            let f2 = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_and_si256(
                _mm256_add_epi32(h2, bias),
                mask,
            )));
            _mm256_mul_ps(_mm256_mul_ps(y, f1), f2)
        }
    }
    #[inline(always)]
    fn frexp(v: __m256) -> (__m256, __m256) {
        // SAFETY: AVX2 available per the module contract (integer 256-bit
        // ops are AVX2). Mirrors `lane::frexp` bit for bit: the mantissa
        // field under the exponent field of 1.0, and the exponent field
        // minus the bias, converted exactly (it is a small integer).
        unsafe {
            let bits = _mm256_castps_si256(v);
            let m = _mm256_or_si256(
                _mm256_and_si256(bits, _mm256_set1_epi32(0x007f_ffff)),
                _mm256_set1_epi32(0x3f80_0000),
            );
            let e = _mm256_sub_epi32(
                _mm256_and_si256(_mm256_srli_epi32::<23>(bits), _mm256_set1_epi32(0xff)),
                _mm256_set1_epi32(127),
            );
            (_mm256_castsi256_ps(m), _mm256_cvtepi32_ps(e))
        }
    }
    #[inline(always)]
    fn abs(v: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract. Clears the sign
        // bit, exactly like the scalar `to_bits & 0x7fff_ffff`.
        unsafe { _mm256_and_ps(v, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff))) }
    }
    #[inline(always)]
    fn copysign(mag: __m256, sign: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract.
        unsafe {
            let sign_bit = _mm256_castsi256_ps(_mm256_set1_epi32(i32::MIN));
            _mm256_or_ps(
                _mm256_andnot_ps(sign_bit, mag),
                _mm256_and_ps(sign_bit, sign),
            )
        }
    }
    #[inline(always)]
    fn gt(a: __m256, b: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract. Ordered quiet
        // compare: false on NaN, like the scalar `>`.
        unsafe { _mm256_cmp_ps::<_CMP_GT_OQ>(a, b) }
    }
    #[inline(always)]
    fn lt(a: __m256, b: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract.
        unsafe { _mm256_cmp_ps::<_CMP_LT_OQ>(a, b) }
    }
    #[inline(always)]
    fn is_nan(v: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract. Unordered
        // self-compare is true exactly on NaN lanes.
        unsafe { _mm256_cmp_ps::<_CMP_UNORD_Q>(v, v) }
    }
    #[inline(always)]
    fn select(mask: __m256, t: __m256, f: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract. `blendv` keys on
        // the sign bit; compare masks are all-ones per true lane.
        unsafe { _mm256_blendv_ps(f, t, mask) }
    }
    #[inline(always)]
    fn hsum(v: __m256) -> f32 {
        // SAFETY: AVX available per the module contract. Implements the
        // fixed tree (l0+l4, …) → (s0+s2, s1+s3) → t0+t1 with the same
        // operand order as the scalar backend.
        unsafe {
            let s1 = _mm_add_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
            let s2 = _mm_add_ps(s1, _mm_movehl_ps(s1, s1));
            let s3 = _mm_add_ss(s2, _mm_shuffle_ps::<0b01>(s2, s2));
            _mm_cvtss_f32(s3)
        }
    }
    #[inline(always)]
    fn hmax(v: __m256) -> f32 {
        // SAFETY: AVX available per the module contract. Same tree as
        // `hsum` with `maxps` semantics at each node.
        unsafe {
            let s1 = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps::<1>(v));
            let s2 = _mm_max_ps(s1, _mm_movehl_ps(s1, s1));
            let s3 = _mm_max_ss(s2, _mm_shuffle_ps::<0b01>(s2, s2));
            _mm_cvtss_f32(s3)
        }
    }
}

/// AVX2 + FMA backend: identical to [`Avx2`] except `mul_add` contracts
/// to a single-rounding `vfmadd`, making results ULP-bounded (not
/// bit-identical) relative to the scalar/avx2 levels.
pub struct FmaB;

impl SimdOp for FmaB {
    type V = __m256;
    type M = __m256;
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(x: f32) -> __m256 {
        Avx2::splat(x)
    }
    #[inline(always)]
    fn load(src: &[f32]) -> __m256 {
        Avx2::load(src)
    }
    #[inline(always)]
    fn load_padded(rem: &[f32], pad: f32) -> __m256 {
        Avx2::load_padded(rem, pad)
    }
    #[inline(always)]
    fn store(v: __m256, dst: &mut [f32]) {
        Avx2::store(v, dst)
    }
    #[inline(always)]
    fn add(a: __m256, b: __m256) -> __m256 {
        Avx2::add(a, b)
    }
    #[inline(always)]
    fn sub(a: __m256, b: __m256) -> __m256 {
        Avx2::sub(a, b)
    }
    #[inline(always)]
    fn mul(a: __m256, b: __m256) -> __m256 {
        Avx2::mul(a, b)
    }
    #[inline(always)]
    fn div(a: __m256, b: __m256) -> __m256 {
        Avx2::div(a, b)
    }
    #[inline(always)]
    fn max(a: __m256, b: __m256) -> __m256 {
        Avx2::max(a, b)
    }
    #[inline(always)]
    fn min(a: __m256, b: __m256) -> __m256 {
        Avx2::min(a, b)
    }
    #[inline(always)]
    fn mul_add(a: __m256, b: __m256, c: __m256) -> __m256 {
        // SAFETY: FMA available per the module contract (this backend is
        // only reached through the "avx2,fma" entry points).
        unsafe { _mm256_fmadd_ps(a, b, c) }
    }
    #[inline(always)]
    fn round(v: __m256) -> __m256 {
        Avx2::round(v)
    }
    #[inline(always)]
    fn scale_by_pow2(y: __m256, n: __m256) -> __m256 {
        Avx2::scale_by_pow2(y, n)
    }
    #[inline(always)]
    fn frexp(v: __m256) -> (__m256, __m256) {
        Avx2::frexp(v)
    }
    #[inline(always)]
    fn abs(v: __m256) -> __m256 {
        Avx2::abs(v)
    }
    #[inline(always)]
    fn copysign(mag: __m256, sign: __m256) -> __m256 {
        Avx2::copysign(mag, sign)
    }
    #[inline(always)]
    fn gt(a: __m256, b: __m256) -> __m256 {
        Avx2::gt(a, b)
    }
    #[inline(always)]
    fn lt(a: __m256, b: __m256) -> __m256 {
        Avx2::lt(a, b)
    }
    #[inline(always)]
    fn is_nan(v: __m256) -> __m256 {
        Avx2::is_nan(v)
    }
    #[inline(always)]
    fn select(mask: __m256, t: __m256, f: __m256) -> __m256 {
        Avx2::select(mask, t, f)
    }
    #[inline(always)]
    fn hsum(v: __m256) -> f32 {
        Avx2::hsum(v)
    }
    #[inline(always)]
    fn hmax(v: __m256) -> f32 {
        Avx2::hmax(v)
    }
}

/// AVX2 entry point for [`kernels::apply_act_inplace`].
///
/// # Safety
/// The running CPU must support AVX2 (guard with
/// `is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
pub unsafe fn apply_act_avx2(act: Act, data: &mut [f32]) {
    kernels::apply_act_inplace::<Avx2>(act, data)
}

/// AVX2+FMA entry point for [`kernels::apply_act_inplace`].
///
/// # Safety
/// The running CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn apply_act_fma(act: Act, data: &mut [f32]) {
    kernels::apply_act_inplace::<FmaB>(act, data)
}

/// AVX2 entry point for [`kernels::softmax_rows`].
///
/// # Safety
/// The running CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn softmax_rows_avx2(data: &mut [f32], cols: usize) {
    kernels::softmax_rows::<Avx2>(data, cols)
}

/// AVX2+FMA entry point for [`kernels::softmax_rows`].
///
/// # Safety
/// The running CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn softmax_rows_fma(data: &mut [f32], cols: usize) {
    kernels::softmax_rows::<FmaB>(data, cols)
}

/// AVX2 entry point for [`kernels::layer_norm_rows`].
///
/// # Safety
/// The running CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn layer_norm_rows_avx2(
    data: &mut [f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    stats: Option<(&mut [f32], &mut [f32])>,
) {
    kernels::layer_norm_rows::<Avx2>(data, cols, gamma, beta, eps, stats)
}

/// AVX2+FMA entry point for [`kernels::layer_norm_rows`].
///
/// # Safety
/// The running CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn layer_norm_rows_fma(
    data: &mut [f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    stats: Option<(&mut [f32], &mut [f32])>,
) {
    kernels::layer_norm_rows::<FmaB>(data, cols, gamma, beta, eps, stats)
}

/// AVX2 entry point for [`kernels::ln_inplace`].
///
/// # Safety
/// The running CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn ln_avx2(data: &mut [f32]) {
    kernels::ln_inplace::<Avx2>(data)
}

/// AVX2+FMA entry point for [`kernels::ln_inplace`].
///
/// # Safety
/// The running CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn ln_fma(data: &mut [f32]) {
    kernels::ln_inplace::<FmaB>(data)
}

/// AVX2 entry point for [`kernels::sincos_turns`].
///
/// # Safety
/// The running CPU must support AVX2.
#[target_feature(enable = "avx2")]
pub unsafe fn sincos_turns_avx2(turns: &[f32], sin: &mut [f32], cos: &mut [f32]) {
    kernels::sincos_turns::<Avx2>(turns, sin, cos)
}

/// AVX2+FMA entry point for [`kernels::sincos_turns`].
///
/// # Safety
/// The running CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
pub unsafe fn sincos_turns_fma(turns: &[f32], sin: &mut [f32], cos: &mut [f32]) {
    kernels::sincos_turns::<FmaB>(turns, sin, cos)
}
