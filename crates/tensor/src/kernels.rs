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
//! Every function is allocation-free (`ci/lint-rules.toml` holds the
//! module to that), validates nothing — shapes are the caller's typed
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
