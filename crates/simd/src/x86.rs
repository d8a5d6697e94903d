//! The x86-64 backends — [`Avx2`]: 256-bit lanes (the `Avx2` level);
//! [`Avx512`]: 512-bit lanes (the `Avx512` level) — plus the two
//! `#[target_feature]` entry points and `run`, which `crate::dispatch`
//! calls: it resolves the level and enters the matching entry point.
//!
//! This module is the **only** place in the workspace where intrinsics
//! and `#[target_feature]` code appear (`tests/static_analysis.rs` makes
//! every other crate root forbid `unsafe_code`).
//! Two kinds of `unsafe` live here, each with a narrow contract:
//!
//! 1. Intrinsic calls inside the backend methods. The intrinsics are
//!    `#[target_feature]` functions, so calling them from these plain
//!    `#[inline(always)]` methods needs an `unsafe` block; soundness
//!    comes from the module contract that backend methods are only ever
//!    reached by inlining into `run_avx2` or `run_avx512`, which `run`
//!    enters only for the level `Level::resolve` just returned.
//! 2. Those two entry points themselves: `unsafe fn`s, generic over the
//!    `Kernel` they run, whose single precondition is "the advertised
//!    CPU features are present". No kernel has an entry point of its own.
//!
//! `Avx2` and `Avx512` are bit-identical to the portable [`Lanes<8>`]
//! backend: every method maps to the same IEEE-754 two-operand operation
//! (`vaddps` ≙ lanewise `+`, `vmaxps` ≙ the shared `maxps`-semantics max,
//! …; `mul_add` is the trait's unfused `vmulps` + `vaddps`), the
//! horizontal reductions use the same fixed tree, and `Avx512` reduces by
//! folding its halves into an `Avx2` accumulator ([`SimdOp::fold`]).
//!
//! [`Lanes<8>`]: crate::backend::Lanes

use core::arch::x86_64::*;

use crate::backend::{Lanes, Reduce, SimdOp};
use crate::{Kernel, Level};

/// 256-bit AVX2 backend, bit-identical to the scalar one.
pub struct Avx2;

impl SimdOp for Avx2 {
    type V = __m256;
    type U = __m256i;
    type M = __m256;
    const LANES: usize = 8;
    type Tree = Self;

    #[inline(always)]
    fn gemm_tile(_n: usize) -> (usize, usize) {
        (6, 16)
    }
    #[inline(always)]
    fn fold(v: __m256, _live: usize, mut f: impl FnMut(__m256)) {
        f(v);
    }

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
    fn store_mask(mask: __m256, dst: &mut [bool]) {
        assert!(dst.len() >= 8);
        // SAFETY: the bounds check above guarantees 8 writable bytes at
        // `dst.as_mut_ptr()`, and each byte written is 0 or 1, a valid
        // `bool`. AVX2 available per the module contract. Each all-ones
        // lane becomes 1; the packs narrow the words to bytes within each
        // 128-bit half, and the unpack joins the halves' four bytes.
        unsafe {
            let ones = _mm256_and_si256(_mm256_castps_si256(mask), _mm256_set1_epi32(1));
            let words = _mm256_packs_epi32(ones, ones);
            let bytes = _mm256_packs_epi16(words, words);
            let joined = _mm_unpacklo_epi32(
                _mm256_castsi256_si128(bytes),
                _mm256_extracti128_si256::<1>(bytes),
            );
            _mm_storel_epi64(dst.as_mut_ptr().cast(), joined);
        }
    }
    #[inline(always)]
    fn sqrt(v: __m256) -> __m256 {
        // SAFETY: AVX available per the module contract. `vsqrtps` is the
        // correctly rounded IEEE square root, like `f32::sqrt`.
        unsafe { _mm256_sqrt_ps(v) }
    }
    #[inline(always)]
    fn zip(a: __m256, b: __m256) -> (__m256, __m256) {
        // SAFETY: AVX available per the module contract. The unpacks
        // interleave within each 128-bit half; the two permutes put the
        // halves in sequence order.
        unsafe {
            let low = _mm256_unpacklo_ps(a, b);
            let high = _mm256_unpackhi_ps(a, b);
            (
                _mm256_permute2f128_ps::<0x20>(low, high),
                _mm256_permute2f128_ps::<0x31>(low, high),
            )
        }
    }
    #[inline(always)]
    fn splat_u32(x: u32) -> __m256i {
        // SAFETY: AVX available per the module contract.
        unsafe { _mm256_set1_epi32(x as i32) }
    }
    #[inline(always)]
    fn iota_u32(start: u32) -> __m256i {
        // SAFETY: AVX2 available per the module contract.
        unsafe {
            let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            _mm256_add_epi32(_mm256_set1_epi32(start as i32), lanes)
        }
    }
    #[inline(always)]
    fn store_u32(v: __m256i, dst: &mut [u32]) {
        debug_assert!(dst.len() >= 8);
        // SAFETY: the bounds check above guarantees 8 writable u32s at
        // `dst.as_mut_ptr()`; `storeu` has no alignment requirement. AVX
        // is available per the module contract.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().cast(), v) }
    }
    #[inline(always)]
    fn add_u32(a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: AVX2 available per the module contract.
        unsafe { _mm256_add_epi32(a, b) }
    }
    #[inline(always)]
    fn xor_u32(a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: AVX2 available per the module contract.
        unsafe { _mm256_xor_si256(a, b) }
    }
    #[inline(always)]
    fn mul_wide_u32(a: __m256i, b: __m256i) -> (__m256i, __m256i) {
        // SAFETY: AVX2 available per the module contract. `vpmuludq`
        // multiplies the even lanes into 64-bit products; the odd lanes,
        // shifted down, make the other four. Each product's words are then
        // blended back to their lane.
        unsafe {
            let even = _mm256_mul_epu32(a, b);
            let odd = _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), _mm256_srli_epi64::<32>(b));
            (
                _mm256_blend_epi32::<0b1010_1010>(_mm256_srli_epi64::<32>(even), odd),
                _mm256_blend_epi32::<0b1010_1010>(even, _mm256_slli_epi64::<32>(odd)),
            )
        }
    }
    #[inline(always)]
    fn shr_u32(a: __m256i, n: u32) -> __m256i {
        // SAFETY: AVX2 available per the module contract.
        unsafe { _mm256_srl_epi32(a, _mm_cvtsi32_si128(n as i32)) }
    }
    #[inline(always)]
    fn lt_u32(a: __m256i, b: __m256i) -> __m256 {
        // SAFETY: AVX2 available per the module contract. AVX2 compares
        // signed words only: flipping both sign bits maps the unsigned
        // order onto the signed one.
        unsafe {
            let bias = _mm256_set1_epi32(i32::MIN);
            let less = _mm256_cmpgt_epi32(_mm256_xor_si256(b, bias), _mm256_xor_si256(a, bias));
            _mm256_castsi256_ps(less)
        }
    }
    #[inline(always)]
    fn i32_to_f32(a: __m256i) -> __m256 {
        // SAFETY: AVX available per the module contract. Rounds to nearest
        // (the default MXCSR mode), like `as f32`.
        unsafe { _mm256_cvtepi32_ps(a) }
    }
    #[inline(always)]
    fn from_bits(a: __m256i) -> __m256 {
        // SAFETY: AVX available per the module contract; a free cast.
        unsafe { _mm256_castsi256_ps(a) }
    }
    #[inline(always)]
    fn to_bits(v: __m256) -> __m256i {
        // SAFETY: AVX available per the module contract; a free cast.
        unsafe { _mm256_castps_si256(v) }
    }
}

impl Reduce for Avx2 {
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

/// 512-bit AVX-512F backend, bit-identical to the scalar and AVX2 ones.
/// Its masks are `__mmask16` k-registers; its reductions fold into the
/// eight-lane trees of `Avx2`, low half then high half.
pub struct Avx512;

impl SimdOp for Avx512 {
    type V = __m512;
    type U = __m512i;
    type M = __mmask16;
    const LANES: usize = 16;
    type Tree = Avx2;

    /// Two bundles of about twelve rows — 24 of the 32 zmm registers
    /// accumulate — for a wide product; one bundle of eight rows where a
    /// 32-wide tile would compute as many pad columns as live ones (each
    /// head's `· V`, 16 wide, and the attention-backward products).
    #[inline(always)]
    fn gemm_tile(n: usize) -> (usize, usize) {
        if n > 16 {
            (12, 32)
        } else {
            (8, 16)
        }
    }
    #[inline(always)]
    fn fold(v: __m512, live: usize, mut f: impl FnMut(__m256)) {
        // SAFETY: AVX-512F available per the module contract: `Avx512` is
        // only reached through `run_avx512`. `extractf64x4` is the
        // AVX-512F way to take the upper 256 bits (the `f32x8` form needs
        // AVX-512DQ); the casts are free reinterpretations.
        let (low, high) = unsafe {
            let high = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v));
            (_mm512_castps512_ps256(v), _mm256_castpd_ps(high))
        };
        f(low);
        if live > 8 {
            f(high);
        }
    }
    #[inline(always)]
    fn splat(x: f32) -> __m512 {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_set1_ps(x) }
    }
    #[inline(always)]
    fn load(src: &[f32]) -> __m512 {
        debug_assert!(src.len() >= 16);
        // SAFETY: the bounds check above guarantees 16 readable f32s at
        // `src.as_ptr()`; `loadu` has no alignment requirement. AVX-512F
        // is available per the module contract.
        unsafe { _mm512_loadu_ps(src.as_ptr()) }
    }
    #[inline(always)]
    fn load_padded(rem: &[f32], pad: f32) -> __m512 {
        // Lane `i` is live iff `i < rem.len()`; clamping keeps the mask
        // inside the slice even for a caller that passes a full block.
        let live = rem.len().min(16) as u32;
        let mask = ((1u32 << live) - 1) as __mmask16;
        // SAFETY: a masked AVX-512 load reads only the lanes whose mask bit
        // is set — lanes `0..live`, all inside `rem` — and suppresses
        // faults on the others, so it cannot fault past the slice's end.
        // AVX-512F is available per the module contract.
        unsafe { _mm512_mask_loadu_ps(_mm512_set1_ps(pad), mask, rem.as_ptr()) }
    }
    #[inline(always)]
    fn store(v: __m512, dst: &mut [f32]) {
        debug_assert!(dst.len() >= 16);
        // SAFETY: the bounds check above guarantees 16 writable f32s at
        // `dst.as_mut_ptr()`; `storeu` has no alignment requirement.
        // AVX-512F is available per the module contract.
        unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
    }
    #[inline(always)]
    fn add(a: __m512, b: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_add_ps(a, b) }
    }
    #[inline(always)]
    fn sub(a: __m512, b: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_sub_ps(a, b) }
    }
    #[inline(always)]
    fn mul(a: __m512, b: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_mul_ps(a, b) }
    }
    #[inline(always)]
    fn div(a: __m512, b: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_div_ps(a, b) }
    }
    #[inline(always)]
    fn max(a: __m512, b: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract. `vmaxps` on
        // zmm keeps the second-operand-on-NaN-or-tie rule of the ymm form.
        unsafe { _mm512_max_ps(a, b) }
    }
    #[inline(always)]
    fn min(a: __m512, b: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_min_ps(a, b) }
    }
    #[inline(always)]
    fn round(v: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract. Scale 0,
        // nearest-int with ties to even: `f32::round_ties_even`.
        unsafe { _mm512_roundscale_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(v) }
    }
    #[inline(always)]
    fn scale_by_pow2(y: __m512, n: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract. Mirrors
        // `lane::scale_by_pow2` as the AVX2 backend does.
        unsafe {
            let ni = _mm512_cvtps_epi32(n);
            let h1 = _mm512_srai_epi32::<1>(ni);
            let h2 = _mm512_sub_epi32(ni, h1);
            let bias = _mm512_set1_epi32(127);
            let mask = _mm512_set1_epi32(0xff);
            let f1 = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_and_si512(
                _mm512_add_epi32(h1, bias),
                mask,
            )));
            let f2 = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_and_si512(
                _mm512_add_epi32(h2, bias),
                mask,
            )));
            _mm512_mul_ps(_mm512_mul_ps(y, f1), f2)
        }
    }
    #[inline(always)]
    fn frexp(v: __m512) -> (__m512, __m512) {
        // SAFETY: AVX-512F available per the module contract. Mirrors
        // `lane::frexp` bit for bit, as the AVX2 backend does.
        unsafe {
            let bits = _mm512_castps_si512(v);
            let m = _mm512_or_si512(
                _mm512_and_si512(bits, _mm512_set1_epi32(0x007f_ffff)),
                _mm512_set1_epi32(0x3f80_0000),
            );
            let e = _mm512_sub_epi32(
                _mm512_and_si512(_mm512_srli_epi32::<23>(bits), _mm512_set1_epi32(0xff)),
                _mm512_set1_epi32(127),
            );
            (_mm512_castsi512_ps(m), _mm512_cvtepi32_ps(e))
        }
    }
    #[inline(always)]
    fn abs(v: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract. Clears the
        // sign bit, exactly like the scalar `to_bits & 0x7fff_ffff`, as an
        // integer op (the `f32` logic ops need AVX-512DQ).
        unsafe {
            let bits = _mm512_castps_si512(v);
            _mm512_castsi512_ps(_mm512_and_si512(bits, _mm512_set1_epi32(0x7fff_ffff)))
        }
    }
    #[inline(always)]
    fn copysign(mag: __m512, sign: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract.
        unsafe {
            let sign_bit = _mm512_set1_epi32(i32::MIN);
            _mm512_castsi512_ps(_mm512_or_si512(
                _mm512_andnot_si512(sign_bit, _mm512_castps_si512(mag)),
                _mm512_and_si512(sign_bit, _mm512_castps_si512(sign)),
            ))
        }
    }
    #[inline(always)]
    fn gt(a: __m512, b: __m512) -> __mmask16 {
        // SAFETY: AVX-512F available per the module contract. Ordered
        // quiet compare: false on NaN, like the scalar `>`.
        unsafe { _mm512_cmp_ps_mask::<_CMP_GT_OQ>(a, b) }
    }
    #[inline(always)]
    fn lt(a: __m512, b: __m512) -> __mmask16 {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_cmp_ps_mask::<_CMP_LT_OQ>(a, b) }
    }
    #[inline(always)]
    fn is_nan(v: __m512) -> __mmask16 {
        // SAFETY: AVX-512F available per the module contract. Unordered
        // self-compare is true exactly on NaN lanes.
        unsafe { _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(v, v) }
    }
    #[inline(always)]
    fn select(mask: __mmask16, t: __m512, f: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract. The blend
        // takes its second operand where the mask bit is set.
        unsafe { _mm512_mask_blend_ps(mask, f, t) }
    }
    #[inline(always)]
    fn store_mask(mask: __mmask16, dst: &mut [bool]) {
        assert!(dst.len() >= 16);
        // SAFETY: the bounds check above guarantees 16 writable bytes at
        // `dst.as_mut_ptr()`, and each byte written is 0 or 1, a valid
        // `bool`. AVX-512F available per the module contract: a 1 in each
        // set lane, each word narrowed to its low byte.
        unsafe {
            let ones = _mm512_maskz_set1_epi32(mask, 1);
            _mm_storeu_si128(dst.as_mut_ptr().cast(), _mm512_cvtepi32_epi8(ones));
        }
    }
    #[inline(always)]
    fn sqrt(v: __m512) -> __m512 {
        // SAFETY: AVX-512F available per the module contract. The correctly
        // rounded IEEE square root, like `f32::sqrt`.
        unsafe { _mm512_sqrt_ps(v) }
    }
    #[inline(always)]
    fn zip(a: __m512, b: __m512) -> (__m512, __m512) {
        // SAFETY: AVX-512F available per the module contract. Index `i`
        // picks lane `i` of `a`, index `16 + i` lane `i` of `b`.
        unsafe {
            let low = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
            let high =
                _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
            (
                _mm512_permutex2var_ps(a, low, b),
                _mm512_permutex2var_ps(a, high, b),
            )
        }
    }
    #[inline(always)]
    fn splat_u32(x: u32) -> __m512i {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_set1_epi32(x as i32) }
    }
    #[inline(always)]
    fn iota_u32(start: u32) -> __m512i {
        // SAFETY: AVX-512F available per the module contract.
        unsafe {
            let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
            _mm512_add_epi32(_mm512_set1_epi32(start as i32), lanes)
        }
    }
    #[inline(always)]
    fn store_u32(v: __m512i, dst: &mut [u32]) {
        debug_assert!(dst.len() >= 16);
        // SAFETY: the bounds check above guarantees 16 writable u32s at
        // `dst.as_mut_ptr()`; `storeu` has no alignment requirement.
        // AVX-512F is available per the module contract.
        unsafe { _mm512_storeu_si512(dst.as_mut_ptr().cast(), v) }
    }
    #[inline(always)]
    fn add_u32(a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_add_epi32(a, b) }
    }
    #[inline(always)]
    fn xor_u32(a: __m512i, b: __m512i) -> __m512i {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_xor_si512(a, b) }
    }
    #[inline(always)]
    fn mul_wide_u32(a: __m512i, b: __m512i) -> (__m512i, __m512i) {
        // SAFETY: AVX-512F available per the module contract. `vpmuludq`
        // multiplies the even lanes into 64-bit products, the odd lanes
        // shifted down the other eight; one two-source permute gathers
        // the high words back into lane order, one the low words.
        unsafe {
            let even = _mm512_mul_epu32(a, b);
            let odd = _mm512_mul_epu32(_mm512_srli_epi64::<32>(a), _mm512_srli_epi64::<32>(b));
            let high = _mm512_setr_epi32(1, 17, 3, 19, 5, 21, 7, 23, 9, 25, 11, 27, 13, 29, 15, 31);
            let low = _mm512_setr_epi32(0, 16, 2, 18, 4, 20, 6, 22, 8, 24, 10, 26, 12, 28, 14, 30);
            (
                _mm512_permutex2var_epi32(even, high, odd),
                _mm512_permutex2var_epi32(even, low, odd),
            )
        }
    }
    #[inline(always)]
    fn shr_u32(a: __m512i, n: u32) -> __m512i {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_srl_epi32(a, _mm_cvtsi32_si128(n as i32)) }
    }
    #[inline(always)]
    fn lt_u32(a: __m512i, b: __m512i) -> __mmask16 {
        // SAFETY: AVX-512F available per the module contract.
        unsafe { _mm512_cmplt_epu32_mask(a, b) }
    }
    #[inline(always)]
    fn i32_to_f32(a: __m512i) -> __m512 {
        // SAFETY: AVX-512F available per the module contract. Rounds to
        // nearest (the default MXCSR mode), like `as f32`.
        unsafe { _mm512_cvtepi32_ps(a) }
    }
    #[inline(always)]
    fn from_bits(a: __m512i) -> __m512 {
        // SAFETY: AVX-512F available per the module contract; a free cast.
        unsafe { _mm512_castsi512_ps(a) }
    }
    #[inline(always)]
    fn to_bits(v: __m512) -> __m512i {
        // SAFETY: AVX-512F available per the module contract; a free cast.
        unsafe { _mm512_castps_si512(v) }
    }
}

/// Runs `kernel` at `level`, resolved here on this CPU
/// ([`Level::resolve`]) — the match `crate::dispatch` delegates to, so
/// the feature check and the `unsafe` entry it licenses sit side by side.
/// `Scalar` runs [`Lanes<8>`] inline, with no entry point.
///
/// [`Lanes<8>`]: crate::backend::Lanes
#[inline(always)]
pub(crate) fn run<K: Kernel>(level: Level, kernel: K) -> K::Out {
    match level.resolve() {
        Level::Scalar => kernel.run::<Lanes<8>>(),
        // SAFETY: `Level::resolve` returns Avx2 only where the CPU has
        // AVX2.
        Level::Avx2 => unsafe { run_avx2(kernel) },
        // SAFETY: it returns Avx512 only where the CPU has AVX2 and
        // AVX-512F.
        Level::Avx512 => unsafe { run_avx512(kernel) },
    }
}

/// Runs `kernel` on `Avx2`, compiled for AVX2.
///
/// # Safety
/// The running CPU must support AVX2 (guard with
/// `is_x86_feature_detected!("avx2")`).
#[target_feature(enable = "avx2")]
unsafe fn run_avx2<K: Kernel>(kernel: K) -> K::Out {
    kernel.run::<Avx2>()
}

/// Runs `kernel` on `Avx512`, compiled for AVX2 and AVX-512F.
///
/// # Safety
/// The running CPU must support AVX2 and AVX-512F.
#[target_feature(enable = "avx2,avx512f")]
unsafe fn run_avx512<K: Kernel>(kernel: K) -> K::Out {
    kernel.run::<Avx512>()
}
