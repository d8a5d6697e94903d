//! Register-tiled, runtime-dispatched matrix multiplication.
//!
//! Every matmul funnels into one GEMM through a single entry point,
//! [`Tensor::matmul_ex`], whose [`MatmulSpec`] selects which operands are
//! read transposed (`A·B`, `Aᵀ·B`, `A·Bᵀ`, `Aᵀ·Bᵀ`); the legacy
//! `matmul`/`matmul_tn`/`matmul_nt` methods are thin wrappers over it.
//! B is repacked into contiguous column panels (in a per-thread scratch
//! buffer, so a warm thread allocates nothing), A is read in place
//! through a stride pair (which also absorbs its transpose), and the
//! output's row bands run one after another on the calling thread. The
//! GEMM opens no threads of its own: a server scales by running more
//! dispatch workers, each multiplying on its own thread. The
//! register-tiled core lives in [`simd::gemm`]: the tile dims come **at
//! runtime** from the dispatch level and the product's width
//! (`simd::gemm::tile_dims(level, n)` — portable 4 × 8 scalar tile,
//! explicit-intrinsic 6 × 16 AVX2 tile, on AVX-512 a 12 × 32 tile for a
//! product wider than 16 and an 8 × 16 one otherwise), so the one
//! portable binary runs the widest tile the CPU
//! supports — no `-C target-cpu=native` rebuild. Packing and the band
//! split read the same `tile_dims` the band kernel does.
//!
//! # Determinism
//!
//! There is one kernel path for every product size, and it runs on one
//! thread. Every output element is accumulated by one sequential
//! `k`-loop inside one band-kernel invocation, and band boundaries depend
//! only on the operand shapes, so a stacked batch produces the same bits
//! as its individual samples, by construction. Across dispatch levels the
//! GEMM inherits the simd crate's contract: the scalar, AVX2 and AVX-512
//! tiles run the identical unfused multiply-then-add chain per output
//! element, so `VITAL_SIMD=scalar`, `=avx2` and `=avx512` are
//! **bit-identical on every input** —
//! and bit-identical to the in-order naive triple loop, which
//! `tests/proptest_gemm.rs` uses as the oracle.

use std::cell::Cell;

use crate::{Result, Tensor, TensorError};

/// Which operands a matmul reads transposed, without materialising the
/// transpose.
///
/// This is the single entry point's configuration: `matmul_ex(b, spec)`
/// computes `op(A) · op(B)` where `op` transposes the operand iff the
/// corresponding flag is set. The legacy `matmul` / `matmul_tn` /
/// `matmul_nt` methods are thin wrappers over the four spec values, and
/// the graph compiler lowers every matmul node to this spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MatmulSpec {
    /// Read the left operand transposed (`Aᵀ`).
    pub trans_a: bool,
    /// Read the right operand transposed (`Bᵀ`).
    pub trans_b: bool,
}

impl MatmulSpec {
    /// `A · B` — neither operand transposed.
    pub const NN: MatmulSpec = MatmulSpec {
        trans_a: false,
        trans_b: false,
    };
    /// `Aᵀ · B`.
    pub const TN: MatmulSpec = MatmulSpec {
        trans_a: true,
        trans_b: false,
    };
    /// `A · Bᵀ`.
    pub const NT: MatmulSpec = MatmulSpec {
        trans_a: false,
        trans_b: true,
    };
    /// `Aᵀ · Bᵀ`.
    pub const TT: MatmulSpec = MatmulSpec {
        trans_a: true,
        trans_b: true,
    };
}

/// How a stored rank-2 operand is read by the GEMM.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `op(X) = X`: element `(r, c)` is `data[r * stride + c]`.
    Normal,
    /// `op(X) = Xᵀ`: element `(r, c)` is `data[c * stride + r]`.
    Transposed,
}

/// Packs the full `k × n` operand `op(B)` into `nr`-wide panel order in
/// the caller's (reused) buffer: one panel per `nr` columns, each storing
/// `k` groups of `nr` consecutive column values, zero-padded past `n`.
/// Every element of the resized buffer is written, so stale contents of a
/// reused buffer never leak through.
fn pack_b(
    packed: &mut Vec<f32>,
    data: &[f32],
    layout: Layout,
    stride: usize,
    k: usize,
    n: usize,
    nr: usize,
) {
    packed.resize(n.div_ceil(nr) * k * nr, 0.0);
    for (panel, dst_panel) in packed.chunks_exact_mut(k * nr).enumerate() {
        let base_col = panel * nr;
        let live = nr.min(n - base_col);
        for (p, dst) in dst_panel.chunks_exact_mut(nr).enumerate() {
            let (dst, pad) = dst.split_at_mut(live);
            match layout {
                Layout::Normal => {
                    let src = &data[p * stride + base_col..p * stride + base_col + live];
                    dst.copy_from_slice(src);
                }
                Layout::Transposed => {
                    for (j, d) in dst.iter_mut().enumerate() {
                        *d = data[(base_col + j) * stride + p];
                    }
                }
            }
            pad.fill(0.0);
        }
    }
}

thread_local! {
    /// The calling thread's packed-B scratch, taken for the duration of a
    /// product and put back afterwards, so a warm thread packs without
    /// touching the allocator. It keeps the capacity of the largest B the
    /// thread has multiplied by.
    static PACKED_B: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// GEMM over raw row-major buffers into a caller-provided `m · n` buffer:
/// `out = op(A) · op(B)` with `op(A)` of shape `m × k` and `op(B)` of
/// shape `k × n` — the core that the tensor methods and the graph
/// executor's arena path share. The buffer is fully overwritten, so stale
/// contents never leak through.
///
/// B is packed once into the calling thread's scratch; the output is
/// split into MR-row bands, each computed by [`gemm_band`] from A in
/// place, one after another on the calling thread.
///
/// `level` and `n` select the band microkernel's tile at runtime; a
/// request above the CPU's capability resolves down identically on both
/// sides of the seam (see `simd::gemm::tile_dims`).
fn gemm_into(
    level: simd::Level,
    m: usize,
    k: usize,
    n: usize,
    a: (&[f32], Layout, usize),
    b: (&[f32], Layout, usize),
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), m * n, "gemm output buffer size");
    if k == 0 {
        // The empty sum; every other product is overwritten by the kernel.
        out.fill(0.0);
        return;
    }
    if m == 0 || n == 0 {
        return;
    }
    let (mr, nr) = simd::gemm::tile_dims(level, n);
    let (b_data, b_layout, b_stride) = b;
    let mut packed_b = PACKED_B.take();
    pack_b(&mut packed_b, b_data, b_layout, b_stride, k, n, nr);
    for (band_idx, out_band) in out.chunks_mut(mr * n).enumerate() {
        gemm_band(level, a, &packed_b, k, n, band_idx * mr, out_band);
    }
    PACKED_B.set(packed_b);
}

/// One band of the product: output rows `[row0, row0 + out_band.len() / n)`
/// from the same rows of `op(A)`, read in place, times the packed B. Runs
/// once per MR rows of every product, so it must stay allocation-free
/// (`core/tests/warm_allocs.rs` measures it: a warm `predict_folded`
/// allocates nothing once its input is filled, and a warm training
/// backward a pinned count).
fn gemm_band(
    level: simd::Level,
    (a_data, a_layout, a_stride): (&[f32], Layout, usize),
    packed_b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    out_band: &mut [f32],
) {
    // `op(A)(row0 + i, p)` is `a_band[i * row_stride + p * p_stride]`.
    let (a_band, a_strides) = match a_layout {
        Layout::Normal => (&a_data[row0 * a_stride..], (a_stride, 1)),
        Layout::Transposed => (&a_data[row0..], (1, a_stride)),
    };
    simd::gemm::gemm_band_at(level, a_band, a_strides, packed_b, k, n, out_band);
}

/// GEMM over raw row-major slices into a caller-provided buffer, at an
/// explicit SIMD dispatch level (resolved on this CPU):
/// `out = op(A) · op(B)` with `op(A)` of shape `m × k` and `op(B)` of shape
/// `k × n` per `spec`.
///
/// It runs with zero allocations on a warm thread (B is packed into a
/// reused per-thread scratch) while accumulating in exactly the order the
/// [`Tensor::matmul_ex`] family does, preserving bit-identical results.
/// The level pin is what lets a compiled graph plan latch
/// `simd::active_level()` at build time and execute every GEMM step at
/// that level for the life of the plan — the same eager ≡ compiled
/// guarantee the transcendental kernels already carry — and what the
/// dispatch-parity tests and forced-scalar benchmark sweeps use to compare
/// levels inside one process.
///
/// Operand slices are stored row-major *before* the transpose is applied:
/// with `trans_a` set, `a` holds a `k × m` matrix; with `trans_b` set, `b`
/// holds an `n × k` matrix. Each operand is `(data, row_stride)`, `data`
/// starting at the operand's first element and consecutive stored rows
/// lying `row_stride` apart, so a row or column window of a matrix
/// multiplies **in place** without being copied out first (a compiled
/// plan's slice views). A dense operand's stride is its stored column
/// count; the stride only changes where elements are fetched from, never
/// the order they are accumulated in.
///
/// # Panics
/// Panics if an operand's last live element lies outside its slice, a
/// transposed A's stride is below its `m` stored columns (its stored rows
/// would overlap), or `out` is not `m · n` long — callers (the plan compiler) establish
/// shapes statically, so a mismatch is a programming error rather than a
/// data error.
#[allow(clippy::too_many_arguments)] // the GEMM's dims, strided operands, spec and level
pub fn gemm_strided_into_at(
    level: simd::Level,
    m: usize,
    k: usize,
    n: usize,
    (a, lda): (&[f32], usize),
    (b, ldb): (&[f32], usize),
    spec: MatmulSpec,
    out: &mut [f32],
) {
    // One up-front check per operand — the same single test
    // `simd::gemm::gemm_band_at` makes before the tile reads A.
    let in_bounds = |len: usize, (rows, cols): (usize, usize), stride: usize| {
        rows == 0 || cols == 0 || (rows - 1) * stride + cols <= len
    };
    let a_dims = if spec.trans_a { (k, m) } else { (m, k) };
    let b_dims = if spec.trans_b { (n, k) } else { (k, n) };
    assert!(
        in_bounds(a.len(), a_dims, lda),
        "gemm: A view out of bounds"
    );
    // The band kernel reads a transposed A's stored rows as whole runs.
    assert!(
        !spec.trans_a || lda >= m,
        "gemm: transposed A stride {lda} is below its {m} stored columns"
    );
    assert!(
        in_bounds(b.len(), b_dims, ldb),
        "gemm: B view out of bounds"
    );
    assert_eq!(out.len(), m * n, "gemm: out length vs m × n");
    let layout = |trans| match trans {
        true => Layout::Transposed,
        false => Layout::Normal,
    };
    gemm_into(
        level,
        m,
        k,
        n,
        (a, layout(spec.trans_a), lda),
        (b, layout(spec.trans_b), ldb),
        out,
    );
}

/// Interprets an operand as a matrix for a matmul-family op.
///
/// Rank-1 shapes are viewed as a single row; rank-0 and rank > 2 operands
/// are rejected with a [`TensorError::ShapeMismatch`] that names both operand
/// shapes (rather than a bare rank error), since the fix — reshaping the
/// offending operand — depends on how the two shapes were meant to line up.
fn matmul_operand_dims(
    op: &'static str,
    operand: &Tensor,
    lhs: &Tensor,
    rhs: &Tensor,
) -> Result<(usize, usize)> {
    match operand.shape().dims() {
        [n] => Ok((1, *n)),
        [r, c] => Ok((*r, *c)),
        _ => Err(TensorError::ShapeMismatch {
            op,
            lhs: lhs.shape().dims().to_vec(),
            rhs: rhs.shape().dims().to_vec(),
        }),
    }
}

impl Tensor {
    /// Matrix product `op(self) · op(other)` — the single matmul entry
    /// point, with per-operand transposes selected by [`MatmulSpec`] and
    /// never materialised.
    ///
    /// Rank-1 operands are promoted to matrices: a rank-1 operand is read
    /// as a single row before its transpose flag applies, and — for an
    /// untransposed right operand only — a rank-1 right operand whose
    /// length matches the inner dimension is a `k × 1` column (no explicit
    /// reshape needed; the result is then `m × 1`). Rank > 2 operands are
    /// rejected.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions
    /// differ or either operand is not rank 1/2.
    pub fn matmul_ex(&self, other: &Tensor, spec: MatmulSpec) -> Result<Tensor> {
        const OP: &str = "matmul_ex (operands must be rank 1 or 2)";
        let (m, k) = if spec.trans_a {
            let (k, m) = matmul_operand_dims(OP, self, self, other)?;
            (m, k)
        } else {
            matmul_operand_dims(OP, self, self, other)?
        };
        let (k2, n) = if spec.trans_b {
            let (n, k2) = matmul_operand_dims(OP, other, self, other)?;
            (k2, n)
        } else {
            match other.shape().dims() {
                // A rank-1 right operand is a row when the inner dimension
                // is 1 (the historical interpretation), otherwise a k×1
                // column when its length matches the inner dimension.
                [len] if k != 1 && *len == k => (k, 1),
                _ => matmul_operand_dims(OP, other, self, other)?,
            }
        };
        if k != k2 {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_ex",
                lhs: self.shape().dims().to_vec(),
                rhs: other.shape().dims().to_vec(),
            });
        }
        let lda = if spec.trans_a { m } else { k };
        let ldb = if spec.trans_b { k } else { n };
        let mut out = vec![0.0f32; m * n];
        let (a, b) = (self.as_slice(), other.as_slice());
        gemm_strided_into_at(
            simd::active_level(),
            m,
            k,
            n,
            (a, lda),
            (b, ldb),
            spec,
            &mut out,
        );
        Tensor::from_vec(out, &[m, n])
    }

    /// Matrix product `self · other`.
    ///
    /// Thin wrapper over [`Tensor::matmul_ex`] with [`MatmulSpec::NN`];
    /// prefer `matmul_ex` in new code — the three fixed-spec methods are
    /// kept for incremental migration and will eventually be retired.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the inner dimensions differ
    /// or either operand is not rank 1/2.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_ex(other, MatmulSpec::NN)
    }

    /// `selfᵀ · other` without materialising the transpose.
    ///
    /// Thin wrapper over [`Tensor::matmul_ex`] with [`MatmulSpec::TN`];
    /// prefer `matmul_ex` in new code — the three fixed-spec methods are
    /// kept for incremental migration and will eventually be retired.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the row counts differ or
    /// either operand is not rank 1/2.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_ex(other, MatmulSpec::TN)
    }

    /// `self · otherᵀ` without materialising the transpose.
    ///
    /// Thin wrapper over [`Tensor::matmul_ex`] with [`MatmulSpec::NT`];
    /// prefer `matmul_ex` in new code — the three fixed-spec methods are
    /// kept for incremental migration and will eventually be retired.
    ///
    /// # Errors
    /// Returns [`TensorError::ShapeMismatch`] if the column counts differ or
    /// either operand is not rank 1/2.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor> {
        self.matmul_ex(other, MatmulSpec::NT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32], dims: &[usize]) -> Tensor {
        Tensor::from_vec(v.to_vec(), dims).unwrap()
    }

    #[test]
    fn small_matmul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape().dims(), &[2, 2]);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn identity_matmul() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let i = Tensor::eye(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn inner_dim_mismatch() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn vector_times_matrix() {
        let v = t(&[1.0, 2.0], &[2]);
        let m = t(&[1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let r = v.matmul(&m).unwrap();
        assert_eq!(r.shape().dims(), &[1, 2]);
        assert_eq!(r.as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn matrix_times_rank1_column() {
        // A rank-1 RHS whose length matches the inner dimension acts as a
        // k × 1 column without an explicit reshape.
        let m = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let v = t(&[1.0, 0.0, -1.0], &[3]);
        let r = m.matmul(&v).unwrap();
        assert_eq!(r.shape().dims(), &[2, 1]);
        assert_eq!(r.as_slice(), &[-2.0, -2.0]);
        // ...and matches the explicit reshape it used to require.
        let reshaped = m.matmul(&v.reshape(&[3, 1]).unwrap()).unwrap();
        assert_eq!(r, reshaped);
    }

    #[test]
    fn rank1_rhs_with_unit_inner_dim_stays_a_row() {
        // Historical interpretation: with k == 1 a rank-1 RHS is a 1 × n row.
        let col = t(&[2.0, 3.0], &[2, 1]);
        let v = t(&[1.0, 10.0, 100.0], &[3]);
        let r = col.matmul(&v).unwrap();
        assert_eq!(r.shape().dims(), &[2, 3]);
        assert_eq!(r.as_slice(), &[2.0, 20.0, 200.0, 3.0, 30.0, 300.0]);
    }

    #[test]
    fn mismatched_rank1_rhs_errors() {
        let m = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert!(m.matmul(&Tensor::zeros(&[4])).is_err());
    }

    #[test]
    fn rank3_operands_report_shape_mismatch() {
        let cube = Tensor::zeros(&[2, 2, 2]);
        let mat = Tensor::zeros(&[2, 2]);
        for err in [
            mat.matmul(&cube).unwrap_err(),
            cube.matmul(&mat).unwrap_err(),
            cube.matmul_tn(&mat).unwrap_err(),
            mat.matmul_nt(&cube).unwrap_err(),
        ] {
            match err {
                TensorError::ShapeMismatch { op, lhs, rhs } => {
                    assert!(op.contains("rank 1 or 2"), "op: {op}");
                    assert!(lhs == vec![2, 2, 2] || rhs == vec![2, 2, 2]);
                }
                other => panic!("expected ShapeMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn transposed_variants_match_naive() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, -1.0, 0.5, 2.0, 3.0, -2.0], &[2, 3]);
        // a^T (3x2) * b (2x3) = 3x3
        let tn = a.matmul_tn(&b).unwrap();
        let naive = a.transpose().unwrap().matmul(&b).unwrap();
        assert_eq!(tn, naive);
        // a (2x3) * b^T (3x2) = 2x2
        let nt = a.matmul_nt(&b).unwrap();
        let naive2 = a.matmul(&b.transpose().unwrap()).unwrap();
        assert_eq!(nt, naive2);
    }

    /// The in-order, unfused chain `0 + a₀b₀ + a₁b₁ + …` per element —
    /// the oracle every level reproduces bit for bit.
    fn naive_bits(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<u32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn packed_kernel_matches_naive_across_panel_boundaries() {
        // Sizes straddle the MR/NR band and panel edges of every tile,
        // including padded edge panels and short last bands. There is one
        // kernel path, so every level owes the naive loop's exact bits at
        // every size.
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 8, 8),
            (5, 3, 9),
            (13, 17, 23),
            (70, 65, 33),
            (70, 65, 70),
            (33, 130, 65),
        ] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i % 13) as f32) * 0.37 - 2.2).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i % 7) as f32) * 0.51 - 1.5).collect();
            let naive = naive_bits(m, k, n, &a, &b);
            for level in simd::Level::ALL {
                let mut out = vec![f32::NAN; m * n];
                gemm_strided_into_at(level, m, k, n, (&a, k), (&b, n), MatmulSpec::NN, &mut out);
                let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, naive, "{level:?} ({m}x{k}x{n})");
            }
        }
    }

    #[test]
    fn reused_pack_scratch_never_leaks_a_previous_product() {
        // A wide B then a narrow one on the same thread: the second
        // product packs into the first one's (larger, dirty) scratch.
        let wide = t(&[3.0; 2 * 40], &[2, 40]);
        t(&[1.0, 2.0], &[1, 2]).matmul(&wide).unwrap();
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        assert_eq!(
            a.matmul(&b).unwrap().as_slice(),
            &[58.0, 64.0, 139.0, 154.0]
        );
        // The degenerate empty sum is still all zeros, not stale output.
        let mut out = [f32::NAN; 4];
        gemm_strided_into_at(
            simd::active_level(),
            2,
            0,
            2,
            (&[], 0),
            (&[], 2),
            MatmulSpec::NN,
            &mut out,
        );
        assert_eq!(out, [0.0; 4]);
    }

    #[test]
    fn matmul_ex_covers_all_four_specs() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[1.0, -1.0, 0.5, 2.0, 3.0, -2.0], &[2, 3]);
        // NN/TN/NT agree with the legacy wrappers byte-for-byte.
        assert_eq!(
            a.matmul_ex(&b.transpose().unwrap(), MatmulSpec::NN)
                .unwrap(),
            a.matmul(&b.transpose().unwrap()).unwrap()
        );
        assert_eq!(
            a.matmul_ex(&b, MatmulSpec::TN).unwrap(),
            a.matmul_tn(&b).unwrap()
        );
        assert_eq!(
            a.matmul_ex(&b, MatmulSpec::NT).unwrap(),
            a.matmul_nt(&b).unwrap()
        );
        // TT matches the naive materialised double transpose:
        // Aᵀ (3×2) · Bᵀ (2×4) = 3×4.
        let b_tt = t(&[1.0, -1.0, 2.0, 0.5, -0.25, 3.0, 1.5, -2.0], &[4, 2]);
        let tt = a.matmul_ex(&b_tt, MatmulSpec::TT).unwrap();
        let naive = a
            .transpose()
            .unwrap()
            .matmul(&b_tt.transpose().unwrap())
            .unwrap();
        assert_eq!(tt.shape().dims(), &[3, 4]);
        assert_eq!(tt, naive);
    }

    #[test]
    fn gemm_ex_into_matches_matmul_ex() {
        let (m, k, n) = (5, 7, 3);
        let a_nn: Vec<f32> = (0..m * k).map(|i| (i as f32) * 0.25 - 2.0).collect();
        let b_nn: Vec<f32> = (0..k * n).map(|i| 1.5 - (i as f32) * 0.5).collect();
        for spec in [
            MatmulSpec::NN,
            MatmulSpec::TN,
            MatmulSpec::NT,
            MatmulSpec::TT,
        ] {
            let a_dims = if spec.trans_a { [k, m] } else { [m, k] };
            let b_dims = if spec.trans_b { [n, k] } else { [k, n] };
            let a = t(&a_nn, &a_dims);
            let b = t(&b_nn, &b_dims);
            let expected = a.matmul_ex(&b, spec).unwrap();
            let mut out = vec![f32::NAN; m * n];
            let level = simd::active_level();
            let (a, b) = ((a.as_slice(), a_dims[1]), (b.as_slice(), b_dims[1]));
            gemm_strided_into_at(level, m, k, n, a, b, spec, &mut out);
            assert_eq!(out.as_slice(), expected.as_slice(), "{spec:?}");
        }
    }

    #[test]
    fn strided_operands_match_their_dense_copies() {
        // Column windows of wider parents (stride > stored cols) as A and
        // as B, under every spec: reading through the stride must give
        // the bits of multiplying the copied-out windows.
        let (m, k, n) = (7, 5, 9);
        let parent_a = crate::rng::SeededRng::new(3).uniform_tensor(&[12, 13], -1.0, 1.0);
        let parent_b = crate::rng::SeededRng::new(4).uniform_tensor(&[12, 13], -1.0, 1.0);
        let (lda, ldb) = (13, 13);
        for spec in [
            MatmulSpec::NN,
            MatmulSpec::TN,
            MatmulSpec::NT,
            MatmulSpec::TT,
        ] {
            let (ar, ac) = if spec.trans_a { (k, m) } else { (m, k) };
            let (br, bc) = if spec.trans_b { (n, k) } else { (k, n) };
            // Windows start at row 2, col 3 of each parent.
            let a_dense = parent_a
                .slice_rows(2, 2 + ar)
                .unwrap()
                .slice_cols(3, 3 + ac)
                .unwrap();
            let b_dense = parent_b
                .slice_rows(2, 2 + br)
                .unwrap()
                .slice_cols(3, 3 + bc)
                .unwrap();
            let a_view = &parent_a.as_slice()[2 * lda + 3..][..(ar - 1) * lda + ac];
            let b_view = &parent_b.as_slice()[2 * ldb + 3..][..(br - 1) * ldb + bc];
            for level in simd::Level::ALL {
                let (a_dense, b_dense) = ((a_dense.as_slice(), ac), (b_dense.as_slice(), bc));
                let mut expected = vec![f32::NAN; m * n];
                gemm_strided_into_at(level, m, k, n, a_dense, b_dense, spec, &mut expected);
                let mut out = vec![f32::NAN; m * n];
                gemm_strided_into_at(level, m, k, n, (a_view, lda), (b_view, ldb), spec, &mut out);
                assert_eq!(out, expected, "{spec:?} at {level:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "A view out of bounds")]
    fn strided_operand_past_its_slice_panics_up_front() {
        let a = [0.0f32; 10]; // 3 rows at stride 4 need 2·4 + 3 = 11
        let b = [0.0f32; 6];
        let mut out = [0.0f32; 6];
        let level = simd::active_level();
        gemm_strided_into_at(level, 3, 3, 2, (&a, 4), (&b, 2), MatmulSpec::NN, &mut out);
    }

    #[test]
    #[should_panic(expected = "transposed A stride 2 is below its 3 stored columns")]
    fn transposed_a_with_overlapping_stored_rows_panics_up_front() {
        let a = [0.0f32; 16]; // 3 stored rows of 3 at stride 2 fit, overlapping
        let b = [0.0f32; 6];
        let mut out = [0.0f32; 6];
        let level = simd::active_level();
        gemm_strided_into_at(level, 3, 3, 2, (&a, 2), (&b, 2), MatmulSpec::TN, &mut out);
    }

    #[test]
    fn dot_product() {
        // Two rank-1 operands: a row times a column, their dot product.
        let a = t(&[1.0, 2.0, 3.0], &[3]);
        let b = t(&[4.0, 5.0, 6.0], &[3]);
        assert_eq!(a.matmul(&b).unwrap().as_slice(), &[32.0]);
        assert!(a.matmul(&Tensor::zeros(&[2])).is_err());
    }
}
