//! Runtime-dispatched SIMD math kernels for the VITAL inference stack.
//!
//! One binary, every ISA level: kernels are written once, generically
//! over the [`backend::SimdOp`] trait, and the dispatcher picks an
//! implementation **at runtime** with `is_x86_feature_detected!` — no
//! `-C target-cpu=native` required, so the shipped binary is portable.
//!
//! # Dispatch levels
//!
//! | [`Level`]  | Backend                     | Guarantee vs. scalar        |
//! |------------|-----------------------------|-----------------------------|
//! | `Scalar`   | `[f32; 8]` portable lanes   | —                           |
//! | `Avx2`     | 256-bit AVX2, unfused FMA   | **bit-identical**           |
//! | `Fma`      | 256-bit AVX2 + `vfmadd`     | ULP-bounded                 |
//!
//! The scalar backend simulates the eight AVX2 lanes (same block width,
//! same horizontal reduction trees, same padded-tail handling), so the
//! `Scalar` and `Avx2` levels produce bit-identical results on every
//! input — the property the CI dispatch matrix asserts, in debug and in
//! release builds. (One narrowing, spelled out in [`kernels`]: where a
//! layer-norm row already holds a NaN or an infinity, the levels agree on
//! which outputs are NaN but not on those NaNs' sign and payload.) `Fma` contracts
//! multiply–add pairs into single roundings and is therefore only
//! ULP-bounded; because of that it is **opt-in**: the default level is
//! the best *bit-deterministic* one (`Avx2` where available), and
//! `VITAL_SIMD=fma` must be set explicitly to trade determinism for the
//! fused path.
//!
//! Alongside the transcendental kernels, [`gemm`] holds the GEMM band
//! microkernel — one register tile over the same `SimdOp` backends, its
//! shape (rows × lane bundles) chosen per level — under the same
//! dispatch latch and the same determinism contract: scalar ≡ avx2
//! bit-identical, FMA opt-in and ULP-bounded.
//!
//! # Environment override
//!
//! `VITAL_SIMD=scalar|avx2|fma` forces a level (capped at what the CPU
//! supports). Any other non-empty value aborts at first use — a typo in
//! a CI matrix must not silently run the wrong kernels. The choice is
//! latched on first use and stable for the life of the process.
//!
//! # Unsafe policy
//!
//! This crate is the single, lint-fenced home for `unsafe` in the
//! workspace (see `ci/lint-rules.toml` `[hygiene] unsafe_allowed_dirs`):
//! all intrinsic calls live in [`x86`] behind `# Safety`-documented
//! contracts, and the public functions here are safe — they only select
//! a feature-gated entry point after the matching CPUID check.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]

pub mod backend;
pub mod gemm;
pub mod kernels;
#[cfg(target_arch = "x86_64")]
pub mod x86;

pub use kernels::{Act, GELU_COEFF, SQRT_2_OVER_PI};

use std::sync::OnceLock;

use backend::Scalar8;

/// A runtime dispatch level, ordered from most portable to most fused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Portable eight-lane scalar backend; runs on any CPU.
    Scalar,
    /// 256-bit AVX2 with unfused multiply–add; bit-identical to `Scalar`.
    Avx2,
    /// AVX2 + fused multiply–add; ULP-bounded relative to `Scalar`.
    Fma,
}

impl Level {
    /// The lowercase name used by `VITAL_SIMD` and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Fma => "fma",
        }
    }

    /// Parses a `VITAL_SIMD` value; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<Level> {
        match s {
            "scalar" => Some(Level::Scalar),
            "avx2" => Some(Level::Avx2),
            "fma" => Some(Level::Fma),
            _ => None,
        }
    }
}

/// The best level the running CPU supports, independent of any override.
pub fn detected_level() -> Level {
    static DETECTED: OnceLock<Level> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                if is_x86_feature_detected!("fma") {
                    return Level::Fma;
                }
                return Level::Avx2;
            }
        }
        Level::Scalar
    })
}

/// The level every default-dispatch kernel call uses, latched on first
/// use.
///
/// Resolution order: `VITAL_SIMD` if set and non-empty (capped at
/// [`detected_level`]); otherwise the best **bit-deterministic** level —
/// `Avx2` where supported, never `Fma` — so two hosts that both have
/// AVX2 produce identical bits regardless of FMA support.
///
/// # Panics
/// On an unrecognized non-empty `VITAL_SIMD` value; a typo'd CI matrix
/// entry must fail loudly rather than silently test the wrong kernels.
pub fn active_level() -> Level {
    static ACTIVE: OnceLock<Level> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        let detected = detected_level();
        match std::env::var("VITAL_SIMD") {
            Ok(raw) if !raw.is_empty() => match Level::parse(&raw) {
                Some(requested) => requested.min(detected),
                None => {
                    panic!("VITAL_SIMD={raw:?} is not a dispatch level (expected scalar|avx2|fma)")
                }
            },
            _ => detected.min(Level::Avx2),
        }
    })
}

/// Caps a requested level at what the CPU actually supports, so the
/// feature-gated entry points are only ever reached with their CPUID
/// precondition established.
pub(crate) fn clamp_supported(level: Level) -> Level {
    level.min(detected_level())
}

/// Applies an activation elementwise in place at the [`active_level`].
pub fn apply_act(act: Act, data: &mut [f32]) {
    apply_act_at(active_level(), act, data);
}

/// Applies an activation elementwise in place at an explicit level
/// (capped at hardware support).
pub fn apply_act_at(level: Level, act: Act, data: &mut [f32]) {
    match clamp_supported(level) {
        Level::Scalar => kernels::apply_act_inplace::<Scalar8>(act, data),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_supported` only returns Avx2/Fma when the
        // matching `is_x86_feature_detected!` checks passed.
        Level::Avx2 => unsafe { x86::apply_act_avx2(act, data) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above; Fma additionally implies the fma feature.
        Level::Fma => unsafe { x86::apply_act_fma(act, data) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => kernels::apply_act_inplace::<Scalar8>(act, data),
    }
}

/// Row softmax in place over a row-major `[rows × cols]` buffer at the
/// [`active_level`]. No-op when `cols == 0`.
pub fn softmax_rows(data: &mut [f32], cols: usize) {
    softmax_rows_at(active_level(), data, cols);
}

/// Row softmax at an explicit level (capped at hardware support).
pub fn softmax_rows_at(level: Level, data: &mut [f32], cols: usize) {
    match clamp_supported(level) {
        Level::Scalar => kernels::softmax_rows::<Scalar8>(data, cols),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_supported` established the avx2 CPUID check.
        Level::Avx2 => unsafe { x86::softmax_rows_avx2(data, cols) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, plus fma.
        Level::Fma => unsafe { x86::softmax_rows_fma(data, cols) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => kernels::softmax_rows::<Scalar8>(data, cols),
    }
}

/// Per-row layer normalization in place at the [`active_level`]:
/// `y = (x − mean) · istd · γ[j] + β[j]`, `istd = 1/√(var + eps)`.
pub fn layer_norm_rows(data: &mut [f32], cols: usize, gamma: &[f32], beta: &[f32], eps: f32) {
    layer_norm_rows_at(active_level(), data, cols, gamma, beta, eps);
}

/// Per-row layer normalization at an explicit level (capped at hardware
/// support).
pub fn layer_norm_rows_at(
    level: Level,
    data: &mut [f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    dispatch_layer_norm(level, data, cols, gamma, beta, eps, None);
}

/// Layer normalization at the [`active_level`] that also records per-row
/// `(mean, istd)` into the provided slices — the training forward pass
/// needs them for the backward closure.
pub fn layer_norm_rows_stats(
    data: &mut [f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    means: &mut [f32],
    inv_stds: &mut [f32],
) {
    dispatch_layer_norm(
        active_level(),
        data,
        cols,
        gamma,
        beta,
        eps,
        Some((means, inv_stds)),
    );
}

/// Natural logarithm of every element in place at the [`active_level`]
/// ([`kernels::ln_v`]).
pub fn ln(data: &mut [f32]) {
    ln_at(active_level(), data);
}

/// Natural logarithm in place at an explicit level (capped at hardware
/// support).
pub fn ln_at(level: Level, data: &mut [f32]) {
    match clamp_supported(level) {
        Level::Scalar => kernels::ln_inplace::<Scalar8>(data),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_supported` established the avx2 CPUID check.
        Level::Avx2 => unsafe { x86::ln_avx2(data) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, plus fma.
        Level::Fma => unsafe { x86::ln_fma(data) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => kernels::ln_inplace::<Scalar8>(data),
    }
}

/// `sin[i], cos[i] = sin 2π·turns[i], cos 2π·turns[i]` at the
/// [`active_level`] ([`kernels::sincos_v`]), for as many elements as all
/// three slices hold.
pub fn sincos_turns(turns: &[f32], sin: &mut [f32], cos: &mut [f32]) {
    sincos_turns_at(active_level(), turns, sin, cos);
}

/// [`sincos_turns`] at an explicit level (capped at hardware support).
pub fn sincos_turns_at(level: Level, turns: &[f32], sin: &mut [f32], cos: &mut [f32]) {
    match clamp_supported(level) {
        Level::Scalar => kernels::sincos_turns::<Scalar8>(turns, sin, cos),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_supported` established the avx2 CPUID check.
        Level::Avx2 => unsafe { x86::sincos_turns_avx2(turns, sin, cos) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, plus fma.
        Level::Fma => unsafe { x86::sincos_turns_fma(turns, sin, cos) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => kernels::sincos_turns::<Scalar8>(turns, sin, cos),
    }
}

fn dispatch_layer_norm(
    level: Level,
    data: &mut [f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    stats: Option<(&mut [f32], &mut [f32])>,
) {
    match clamp_supported(level) {
        Level::Scalar => kernels::layer_norm_rows::<Scalar8>(data, cols, gamma, beta, eps, stats),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `clamp_supported` established the avx2 CPUID check.
        Level::Avx2 => unsafe { x86::layer_norm_rows_avx2(data, cols, gamma, beta, eps, stats) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above, plus fma.
        Level::Fma => unsafe { x86::layer_norm_rows_fma(data, cols, gamma, beta, eps, stats) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => kernels::layer_norm_rows::<Scalar8>(data, cols, gamma, beta, eps, stats),
    }
}

pub mod scalar {
    //! Per-element reference functions.
    //!
    //! These are the *same generic kernels* instantiated with the
    //! one-lane [`Scalar1`] backend — not a second implementation — so a
    //! per-element call (e.g. `UnaryOp::eval` in the tensor crate) and a
    //! vectorized sweep agree bit-for-bit at the deterministic levels.
    //!
    //! [`Scalar1`]: crate::backend::Scalar1

    use crate::backend::Scalar1;
    use crate::kernels;

    /// Per-element `e^x` with the kernel's numerical contract.
    #[inline]
    pub fn exp(x: f32) -> f32 {
        kernels::exp_v::<Scalar1>(x)
    }

    /// Per-element `tanh(x)`.
    #[inline]
    pub fn tanh(x: f32) -> f32 {
        kernels::tanh_v::<Scalar1>(x)
    }

    /// Per-element logistic sigmoid.
    #[inline]
    pub fn sigmoid(x: f32) -> f32 {
        kernels::sigmoid_v::<Scalar1>(x)
    }

    /// Per-element tanh-approximation GELU.
    #[inline]
    pub fn gelu(x: f32) -> f32 {
        kernels::gelu_v::<Scalar1>(x)
    }

    /// Per-element ReLU with `maxps(x, 0)` semantics (NaN, `−0` → `+0`).
    #[inline]
    pub fn relu(x: f32) -> f32 {
        kernels::relu_v::<Scalar1>(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_round_trip_through_parse() {
        for level in [Level::Scalar, Level::Avx2, Level::Fma] {
            assert_eq!(Level::parse(level.name()), Some(level));
        }
        assert_eq!(Level::parse("sse9"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn levels_order_by_capability() {
        assert!(Level::Scalar < Level::Avx2);
        assert!(Level::Avx2 < Level::Fma);
        // Determinism-by-default: the latched default never exceeds Avx2.
        assert!(detected_level().min(Level::Avx2) <= Level::Avx2);
    }

    #[test]
    fn explicit_levels_are_capped_at_hardware() {
        assert_eq!(clamp_supported(Level::Scalar), Level::Scalar);
        assert!(clamp_supported(Level::Fma) <= detected_level());
    }

    #[test]
    fn scalar_and_best_deterministic_level_are_bit_identical() {
        let level = detected_level().min(Level::Avx2);
        let src: Vec<f32> = (0..173)
            .map(|i| ((i * 37) % 101) as f32 * 0.29 - 11.0)
            .collect();

        for act in [Act::Relu, Act::Gelu, Act::Sigmoid, Act::Tanh, Act::Exp] {
            let mut a = src.clone();
            let mut b = src.clone();
            apply_act_at(Level::Scalar, act, &mut a);
            apply_act_at(level, act, &mut b);
            let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "{act:?} diverged at {}", level.name());
        }

        let cols = 23; // deliberately not a multiple of the lane count
        let mut a = src[..161].to_vec();
        let mut b = a.clone();
        softmax_rows_at(Level::Scalar, &mut a, cols);
        softmax_rows_at(level, &mut b, cols);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "softmax diverged at {}",
            level.name()
        );

        let gamma: Vec<f32> = (0..cols).map(|j| 1.0 + j as f32 * 0.03).collect();
        let beta: Vec<f32> = (0..cols).map(|j| j as f32 * -0.01).collect();
        let mut a = src[..161].to_vec();
        let mut b = a.clone();
        layer_norm_rows_at(Level::Scalar, &mut a, cols, &gamma, &beta, 1e-5);
        layer_norm_rows_at(level, &mut b, cols, &gamma, &beta, 1e-5);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "layer_norm diverged at {}",
            level.name()
        );
    }

    #[test]
    fn stats_variant_matches_plain_layer_norm() {
        let cols = 9;
        let src: Vec<f32> = (0..27).map(|i| i as f32 * 0.7 - 8.0).collect();
        let gamma = vec![1.0; cols];
        let beta = vec![0.0; cols];
        let mut a = src.clone();
        let mut b = src.clone();
        let mut means = vec![0.0; 3];
        let mut istds = vec![0.0; 3];
        layer_norm_rows(&mut a, cols, &gamma, &beta, 1e-5);
        layer_norm_rows_stats(&mut b, cols, &gamma, &beta, 1e-5, &mut means, &mut istds);
        assert_eq!(a, b);
        assert!(istds.iter().all(|v| *v > 0.0));
    }
}
