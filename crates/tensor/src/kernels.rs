//! The slice-level kernel of every structural and elementwise op a
//! forward pass records — written once, called from both sides.
//!
//! The allocating [`Tensor`](crate::Tensor) methods the autograd tape runs
//! (`add_row_broadcast`, `mean_row_blocks`, `concat_rows`, `concat_cols`,
//! `slice_rows`, `slice_cols`, `argmax_rows`, `binary`) allocate their
//! result and call one function of this module; a compiled plan's step
//! resolves its operand views into arena slices and calls the same
//! function. Together with [`UnaryOp::apply_slice_at`](crate::UnaryOp),
//! the `simd::*_at` sweeps and [`gemm_strided_into_at`](crate::gemm_strided_into_at)
//! that is every loop either executor runs, so "compiled ≡ eager" is a
//! statement about the planner only. The optimizer's one loop,
//! [`adam_update`], lives here under the same rules.
//!
//! Every function is allocation-free (`core/tests/warm_allocs.rs`'s
//! `no_slice_kernel_allocates` calls each one under a counting
//! allocator), validates nothing — shapes are the caller's typed
//! errors — and accepts zero-width rows. Operand order per element is part
//! of the contract: `out OP other` and `other OP out` differ in the NaN
//! they propagate.

use crate::{BinaryOp, Result, TensorError};

/// `out[i] = f(out[i], other[i])`; the callers `match` on the op outside,
/// so each instantiation is one plain loop the compiler vectorizes.
#[inline(always)]
fn assign_each(out: &mut [f32], other: &[f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(out.len(), other.len());
    for (o, &t) in out.iter_mut().zip(other) {
        *o = f(*o, t);
    }
}

/// `out = out OP rhs` elementwise (the chain value is the left operand).
#[inline]
pub fn binary_assign(op: BinaryOp, out: &mut [f32], rhs: &[f32]) {
    match op {
        BinaryOp::Add => assign_each(out, rhs, |o, t| o + t),
        BinaryOp::Sub => assign_each(out, rhs, |o, t| o - t),
        BinaryOp::Mul => assign_each(out, rhs, |o, t| o * t),
        BinaryOp::Div => assign_each(out, rhs, |o, t| o / t),
    }
}

/// `out = lhs OP out` elementwise (the chain value is the right operand).
#[inline]
pub fn binary_assign_rhs(op: BinaryOp, lhs: &[f32], out: &mut [f32]) {
    match op {
        BinaryOp::Add => assign_each(out, lhs, |o, t| t + o),
        BinaryOp::Sub => assign_each(out, lhs, |o, t| t - o),
        BinaryOp::Mul => assign_each(out, lhs, |o, t| t * o),
        BinaryOp::Div => assign_each(out, lhs, |o, t| t / o),
    }
}

/// Adds `tile` to every consecutive `tile.len()`-element block of `out`:
/// a positional embedding over a stacked batch, or — with a one-row tile —
/// a bias over every row.
#[inline]
pub fn add_tile_rows(out: &mut [f32], tile: &[f32]) {
    if tile.is_empty() {
        return;
    }
    for block in out.chunks_exact_mut(tile.len()) {
        assign_each(block, tile, |o, t| o + t);
    }
}

/// Folds a patch-embedding weight over the pixel rows of a patch: `w` is
/// the row-major `[channels · patch · patch, cols]` weight of patches
/// flattened channel by channel, pixel row by pixel row, and `out` the
/// `[channels · patch, cols]` weight with
/// `out[c·patch + px] = Σ_py w[(c·patch + py)·patch + px]`. Each sum starts
/// from its `py = 0` row and adds the others in ascending `py`, so the
/// result depends on nothing but `w`. A patch whose pixel rows are all one
/// `patch`-pixel run per channel has the same product with `out` (over its
/// `channels · patch` distinct values) as with `w`, up to rounding. `out`
/// is fully overwritten.
#[inline]
pub fn fold_patch_rows(w: &[f32], patch: usize, cols: usize, out: &mut [f32]) {
    let run = patch * cols;
    if run == 0 {
        return;
    }
    for (folded, block) in out.chunks_exact_mut(run).zip(w.chunks_exact(patch * run)) {
        folded.copy_from_slice(&block[..run]);
        for pixel_row in block.chunks_exact(run).skip(1) {
            assign_each(folded, pixel_row, |f, v| f + v);
        }
    }
}

/// The zero-mean, unit-variance map of a set of values: the mean is their
/// in-order sum over their count, the deviation the square root of the
/// in-order mean of squared differences from it. Values whose deviation is
/// (near) zero are only centred; an empty set maps everything to itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Standardizer {
    mean: f32,
    std: f32,
}

impl Standardizer {
    /// Measures `values`.
    #[inline]
    pub fn of(values: &[f32]) -> Self {
        if values.is_empty() {
            return Standardizer {
                mean: 0.0,
                std: 0.0,
            };
        }
        let count = values.len() as f32;
        let mean = values.iter().sum::<f32>() / count;
        let variance = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / count;
        Standardizer {
            mean,
            std: variance.sqrt(),
        }
    }

    /// One value standardised.
    #[inline]
    pub fn apply(&self, value: f32) -> f32 {
        if self.std < 1e-8 {
            value - self.mean
        } else {
            (value - self.mean) / self.std
        }
    }
}

/// Means each consecutive block of `block_rows` `cols`-wide rows of `src`
/// into one row of `out`: the block's rows accumulate in order from zero,
/// then scale once by `1 / block_rows`. `out` is fully overwritten.
#[inline]
pub fn mean_row_blocks(src: &[f32], block_rows: usize, cols: usize, out: &mut [f32]) {
    if block_rows * cols == 0 {
        return;
    }
    let scale = 1.0 / block_rows as f32;
    out.fill(0.0);
    for (acc, block) in out
        .chunks_exact_mut(cols)
        .zip(src.chunks_exact(block_rows * cols))
    {
        for row in block.chunks_exact(cols) {
            assign_each(acc, row, |a, v| a + v);
        }
        for a in acc.iter_mut() {
            *a *= scale;
        }
    }
}

/// Copies `width`-wide rows out of `src`, where they lie `src_stride`
/// apart, into `dst`, where they lie `dst_stride` apart — a row or column
/// window read out of a wider matrix, or written into one. As many rows
/// as both sides hold.
#[inline]
pub fn copy_rows(src: &[f32], src_stride: usize, dst: &mut [f32], dst_stride: usize, width: usize) {
    if width == 0 {
        return;
    }
    if src_stride == width && dst_stride == width {
        let len = src.len().min(dst.len());
        return dst[..len].copy_from_slice(&src[..len]);
    }
    for (d, s) in dst.chunks_mut(dst_stride).zip(src.chunks(src_stride)) {
        d[..width].copy_from_slice(&s[..width]);
    }
}

/// Lays `parts` back to back into `out` (vertical concatenation of
/// row-major matrices of one width).
#[inline]
pub fn concat_rows<'a>(parts: impl IntoIterator<Item = &'a [f32]>, out: &mut [f32]) {
    let mut at = 0;
    for part in parts {
        out[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
}

/// Lays `parts` — `(data, width)` row-major matrices of one height — side
/// by side into the `cols`-wide rows of `out`.
#[inline]
pub fn concat_cols<'a>(
    parts: impl IntoIterator<Item = (&'a [f32], usize)>,
    cols: usize,
    out: &mut [f32],
) {
    if out.is_empty() {
        return;
    }
    let mut at = 0;
    for (part, width) in parts {
        copy_rows(part, width, &mut out[at..], cols, width);
        at += width;
    }
}

/// The scalars of one Adam step, shared by every parameter it updates.
#[derive(Debug, Clone, Copy)]
pub struct AdamStep {
    /// Learning rate.
    pub lr: f32,
    /// Decay of the first-moment estimate, β₁.
    pub beta1: f32,
    /// Decay of the second-moment estimate, β₂.
    pub beta2: f32,
    /// Added to the denominator after the square root.
    pub eps: f32,
    /// `1 / (1 − β₁ᵗ)` at this step `t`.
    pub inv_bias1: f32,
    /// `1 / (1 − β₂ᵗ)` at this step `t`.
    pub inv_bias2: f32,
}

/// One Adam update of the weights `w` and the moment estimates `m`, `v`
/// from the gradient `g`, all in place. Each element runs the chain
/// `m = m·β₁ + g·(1−β₁)`, `v = v·β₂ + (g·g)·(1−β₂)`,
/// `w = w − (m·inv_bias1) / (sqrt(v·inv_bias2) + ε) · lr`, every product
/// and sum rounded on its own, in that order: the order is the training
/// bits. As many elements as the shortest slice holds.
#[inline]
pub fn adam_update(w: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], step: &AdamStep) {
    let (one_minus_beta1, one_minus_beta2) = (1.0 - step.beta1, 1.0 - step.beta2);
    for (((w, &g), m), v) in w.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        *m = *m * step.beta1 + g * one_minus_beta1;
        *v = *v * step.beta2 + (g * g) * one_minus_beta2;
        let denom = (*v * step.inv_bias2).sqrt() + step.eps;
        *w -= (*m * step.inv_bias1) / denom * step.lr;
    }
}

/// Index of the first maximum of each `cols`-wide row of `src`, one per
/// element of `out`.
///
/// # Errors
/// Returns [`TensorError::Empty`] for zero-width rows, which have no
/// maximum.
#[inline]
pub fn argmax_rows(src: &[f32], cols: usize, out: &mut [usize]) -> Result<()> {
    if cols == 0 {
        return Err(TensorError::Empty { op: "argmax_rows" });
    }
    for (best, row) in out.iter_mut().zip(src.chunks_exact(cols)) {
        *best = 0;
        for (j, v) in row.iter().enumerate() {
            if *v > row[*best] {
                *best = j;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeededRng;

    #[test]
    fn fold_patch_rows_is_the_ascending_sum_over_pixel_rows_bit_for_bit() {
        // Magnitudes spread over six decades, so a sum taken in another
        // order (or from a zero that is not the first row) rounds apart.
        for (channels, patch, cols) in [(3, 20, 80), (3, 4, 5), (1, 1, 3), (2, 3, 0)] {
            let mut rng = SeededRng::new(7);
            let w: Vec<f32> = (0..channels * patch * patch * cols)
                .map(|_| rng.uniform(-1.0, 1.0) * 10f32.powi(rng.uniform(-3.0, 3.0) as i32))
                .collect();
            let mut folded = vec![f32::NAN; channels * patch * cols];
            fold_patch_rows(&w, patch, cols, &mut folded);
            for c in 0..channels {
                for px in 0..patch {
                    for j in 0..cols {
                        let at = |py: usize| w[((c * patch + py) * patch + px) * cols + j];
                        let sum = (1..patch).fold(at(0), |sum, py| sum + at(py));
                        let got = folded[(c * patch + px) * cols + j];
                        assert_eq!(got.to_bits(), sum.to_bits(), "c {c}, px {px}, col {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn standardizer_centres_scales_and_leaves_a_constant_set_centred() {
        let values = [-90.0, -70.0, -50.0, -30.0];
        let s = Standardizer::of(&values);
        let out: Vec<f32> = values.iter().map(|&v| s.apply(v)).collect();
        assert!(out.iter().sum::<f32>().abs() < 1e-6);
        assert!((out.iter().map(|v| v * v).sum::<f32>() / 4.0 - 1.0).abs() < 1e-6);
        let flat = Standardizer::of(&[3.0; 5]);
        assert_eq!(flat.apply(3.0), 0.0);
        assert_eq!(flat.apply(4.0), 1.0);
        assert_eq!(Standardizer::of(&[]).apply(2.5), 2.5);
    }
}
