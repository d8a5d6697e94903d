//! Runtime-dispatched GEMM band microkernel.
//!
//! The B packing, parallel row-band split and shape logic of the GEMM
//! live in `tensor::matmul`; this module owns only the register-tiled
//! core that multiplies up to `MR` rows of A, read in place, against the
//! full packed B. Like the transcendental kernels it is written **once**,
//! generically over the [`SimdOp`] backend, as one `Kernel` impl that
//! `crate::dispatch` runs per level; only the tile shape differs, and
//! each backend carries its own (`GEMM_MR × GEMM_NR`):
//!
//! | [`Level`]  | tile (`MR × NR`) | accumulator rows                          |
//! |------------|------------------|-------------------------------------------|
//! | `Scalar`   | 4 × 8            | 1 × `[f32; 8]`, auto-vectorized           |
//! | `Avx2`     | 6 × 16           | 2 × `__m256`, unfused `vmulps`+`vaddps`   |
//! | `Fma`      | 6 × 16           | 2 × `__m256`, fused `vfmadd231ps`         |
//!
//! The vector tiles use twelve `__m256` accumulators (two per A row) plus
//! two B registers and one broadcast — 15 of the 16 ymm registers — so
//! each `vbroadcastss` and each loop iteration is amortized over 96
//! output elements. The tile is instantiated once per live row count
//! `R ∈ 1..=MR` (a const generic selected by `match rows`), so a short
//! band — the last band of a product, or all of an `m = 1` product —
//! computes exactly its live rows and no dead ones.
//!
//! # Determinism
//!
//! Every output element is one independent accumulation chain
//! `c(i,j) = 0 + a(i,0)·b(0,j) + a(i,1)·b(1,j) + …`, evaluated
//! sequentially in `p` inside a single band-kernel invocation — at every
//! product size, since this kernel is the only GEMM path. The scalar and
//! AVX2 backends perform the same unfused multiply-then-add per step, so
//! — although their tile *shapes* differ — each element's chain is the
//! identical sequence of IEEE-754 two-operand operations: the two levels
//! are **bit-identical on every input**, and bit-identical to the
//! in-order naive triple loop (tile shape and `R` only change which
//! elements share a register block, never the order within a chain).
//! The FMA backend contracts each step into a single rounding and is
//! therefore only ULP-bounded; like the transcendental kernels it is
//! opt-in via `VITAL_SIMD=fma`.
//!
//! # Operand contract
//!
//! **A is read in place, never packed.** The caller passes the operand
//! slice from the band's first live element on, plus a
//! `(row_stride, p_stride)` pair; element `(i, p)` of the band is
//! `a[i * row_stride + p * p_stride]` — `(stride, 1)` for a row-major A,
//! `(1, stride)` for one read transposed. [`gemm_band_at`] asserts once,
//! up front, that the last live element `(rows − 1, k − 1)` lies inside
//! the slice; that one check is what makes the tile's unchecked A reads
//! sound.
//!
//! **B is packed** at the tile width of the *clamped* level
//! ([`tile_dims`] applies the hardware clamp, so packing and kernel
//! always agree): `⌈n / NR⌉` panels of `k` groups of `NR` consecutive
//! column values. Lanes past `n` in the last panel are computed and
//! discarded; they never reach the output.

use crate::backend::SimdOp;
use crate::{dispatch, Kernel, Level};

/// Microkernel tile dims `(MR, NR)` of the backend a dispatch level runs
/// on, after clamping the request at what the CPU supports.
///
/// Callers must split rows and pack B with the dims of the same level
/// they pass to [`gemm_band_at`]; both dispatch the same way, so a
/// request the hardware cannot honor degrades consistently on both sides.
pub fn tile_dims(level: Level) -> (usize, usize) {
    dispatch(level, TileDims)
}

/// The backend's `(GEMM_MR, GEMM_NR)`.
struct TileDims;

impl Kernel for TileDims {
    type Out = (usize, usize);
    #[inline(always)]
    fn run<S: SimdOp>(self) -> (usize, usize) {
        (S::GEMM_MR, S::GEMM_NR)
    }
}

/// Widest tile any level ships — the size of the edge-panel spill buffer.
const MAX_NR: usize = 16;

/// One band's operands as the tile reads them. Only [`GemmBand::run`]
/// builds one, after checking the invariant the tile's unchecked reads
/// rely on: `a[i * row_stride + p * p_stride]` is in bounds for every
/// `i < rows`, `p < k`.
#[derive(Clone, Copy)]
struct Band<'a> {
    a: &'a [f32],
    row_stride: usize,
    p_stride: usize,
    packed_b: &'a [f32],
    k: usize,
    n: usize,
    rows: usize,
}

/// Multiplies one band of A rows, read in place, by every packed B panel
/// at the given level (clamped at hardware support), writing the
/// `rows × n` result band; `rows = out.len() / n` must be in `1..=MR`.
///
/// * `a`, `a_strides`: the A operand from this band's first element on;
///   with `a_strides = (row_stride, p_stride)`, element `(i, p)` is
///   `a[i * row_stride + p * p_stride]`.
/// * `packed_b`: `⌈n / NR⌉` panels of `k × NR` packed values.
/// * `out`: row-major `rows × n` destination, fully overwritten.
///
/// # Panics
/// Panics if `k` or `n` is 0, `out` is not `1..=MR` whole rows, the last
/// live A element lies outside `a`, or `packed_b` was not packed at
/// `tile_dims(level)`.
pub fn gemm_band_at(
    level: Level,
    a: &[f32],
    a_strides: (usize, usize),
    packed_b: &[f32],
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    dispatch(
        level,
        GemmBand {
            a,
            a_strides,
            packed_b,
            k,
            n,
            out,
        },
    );
}

/// The band kernel: [`gemm_band_at`]'s operands, checked against the
/// backend's tile before the tile runs.
struct GemmBand<'a> {
    a: &'a [f32],
    a_strides: (usize, usize),
    packed_b: &'a [f32],
    k: usize,
    n: usize,
    out: &'a mut [f32],
}

impl Kernel for GemmBand<'_> {
    type Out = ();
    /// Checks the band against `S`'s tile, then runs the `S::GEMM_NR /
    /// S::LANES`-bundle tile: on `Avx<false>` the 6 × 16 tile with
    /// **unfused** `vmulps` + `vaddps`, the same two-operand IEEE sequence
    /// as the scalar tile; on `Avx<true>` each step contracted into a
    /// single-rounding `vfmadd231ps` — ULP-bounded, hence opt-in.
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let GemmBand {
            a,
            a_strides,
            packed_b,
            k,
            n,
            out,
        } = self;
        let (mr, nr) = (S::GEMM_MR, S::GEMM_NR);
        assert!(k >= 1 && n >= 1, "gemm band: k = {k}, n = {n}");
        let rows = out.len() / n;
        assert!(
            (1..=mr).contains(&rows) && out.len() == rows * n,
            "gemm band: {} outputs are not 1..={mr} rows of {n}",
            out.len()
        );
        assert_eq!(packed_b.len(), n.div_ceil(nr) * k * nr, "packed B length");
        // The `Band` invariant: the index grows with both `i` and `p`, so
        // the last live element bounds them all.
        let (row_stride, p_stride) = a_strides;
        let last = (rows - 1)
            .checked_mul(row_stride)
            .zip((k - 1).checked_mul(p_stride))
            .and_then(|(r, p)| r.checked_add(p));
        assert!(
            last.is_some_and(|last| last < a.len()),
            "gemm band: A element ({}, {}) at strides {a_strides:?} is outside a slice of {}",
            rows - 1,
            k - 1,
            a.len()
        );
        let band = Band {
            a,
            row_stride,
            p_stride,
            packed_b,
            k,
            n,
            rows,
        };
        match nr / S::LANES {
            1 => band_rows::<S, 1>(band, out),
            2 => band_rows::<S, 2>(band, out),
            bundles => unreachable!("a tile of {bundles} bundles per row"),
        }
    }
}

/// Selects the tile instantiated for this band's live row count.
#[inline(always)]
fn band_rows<O: SimdOp, const V: usize>(band: Band<'_>, out: &mut [f32]) {
    match band.rows {
        1 => tile::<O, 1, V>(band, out),
        2 => tile::<O, 2, V>(band, out),
        3 => tile::<O, 3, V>(band, out),
        4 => tile::<O, 4, V>(band, out),
        5 => tile::<O, 5, V>(band, out),
        6 => tile::<O, 6, V>(band, out),
        rows => unreachable!("a tile admits at most 6 rows, got {rows}"),
    }
}

/// The `R × (V · LANES)` register tile swept across every B panel: `V`
/// lane bundles of accumulators per A row, one broadcast per A value read
/// straight from the operand, one `mul_add` per bundle per step.
///
/// The fixed-bound loops are the unrolling (and, on the scalar backend,
/// auto-vectorization) target; there is deliberately no zero-skipping
/// branch (a data-dependent shortcut would defeat vectorization and make
/// runtime input-dependent).
#[inline(always)]
fn tile<O: SimdOp, const R: usize, const V: usize>(band: Band<'_>, out: &mut [f32]) {
    let nr = V * O::LANES;
    let Band {
        a,
        row_stride,
        p_stride,
        packed_b,
        k,
        n,
        rows,
    } = band;
    assert_eq!(R, rows, "tile instantiated for the wrong row count");
    for (jp, b_panel) in packed_b.chunks_exact(k * nr).enumerate() {
        let j0 = jp * nr;
        let cols = nr.min(n - j0);
        let mut acc = [[O::splat(0.0); V]; R];
        for (p, b) in b_panel.chunks_exact(nr).enumerate() {
            let b: [O::V; V] = std::array::from_fn(|v| O::load(&b[v * O::LANES..]));
            for (i, acc_row) in acc.iter_mut().enumerate() {
                // SAFETY: `i < R = rows` and `p < k` (the panel holds
                // exactly `k` chunks), so the index is in bounds by the
                // `Band` invariant. Unchecked because a checked read
                // halves the scalar tile's rate (13 vs 26 GFLOP/s at 256³).
                let ai = O::splat(unsafe { *a.get_unchecked(i * row_stride + p * p_stride) });
                for (c, &bv) in acc_row.iter_mut().zip(&b) {
                    *c = O::mul_add(ai, bv, *c);
                }
            }
        }
        for (i, acc_row) in acc.iter().enumerate() {
            let dst = &mut out[i * n + j0..i * n + j0 + cols];
            if cols == nr {
                for (&c, lanes) in acc_row.iter().zip(dst.chunks_exact_mut(O::LANES)) {
                    O::store(c, lanes);
                }
            } else {
                // Partial edge panel: spill the tile row to the stack and
                // copy only the live columns.
                let mut spill = [0.0f32; MAX_NR];
                for (&c, lanes) in acc_row.iter().zip(spill.chunks_exact_mut(O::LANES)) {
                    O::store(c, lanes);
                }
                dst.copy_from_slice(&spill[..cols]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clamp_supported;

    const LEVELS: [Level; 3] = [Level::Scalar, Level::Avx2, Level::Fma];

    /// Packs a row-major `k × n` matrix into NR-padded panel order.
    fn pack_b(data: &[f32], k: usize, n: usize, nr: usize) -> Vec<f32> {
        let panels = n.div_ceil(nr);
        let mut packed = vec![0.0f32; panels * k * nr];
        for panel in 0..panels {
            let base = panel * nr;
            let live = nr.min(n - base);
            for p in 0..k {
                for j in 0..live {
                    packed[panel * k * nr + p * nr + j] = data[p * n + base + j];
                }
            }
        }
        packed
    }

    /// The in-order, unfused chain `0 + a₀b₀ + a₁b₁ + …` over A read at
    /// `strides` — what every non-FMA level must reproduce bit for bit.
    fn naive_band(
        a: &[f32],
        (row_stride, p_stride): (usize, usize),
        b: &[f32],
        k: usize,
        n: usize,
        rows: usize,
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * n];
        for i in 0..rows {
            for j in 0..n {
                for p in 0..k {
                    out[i * n + j] += a[i * row_stride + p * p_stride] * b[p * n + j];
                }
            }
        }
        out
    }

    fn band_at(
        level: Level,
        a: &[f32],
        a_strides: (usize, usize),
        b: &[f32],
        k: usize,
        n: usize,
        rows: usize,
    ) -> Vec<f32> {
        let packed_b = pack_b(b, k, n, tile_dims(level).1);
        let mut out = vec![f32::NAN; rows * n];
        gemm_band_at(level, a, a_strides, &packed_b, k, n, &mut out);
        out
    }

    /// Bit equality below the FMA level, a relative tolerance at it.
    fn assert_band_matches(level: Level, got: &[f32], naive: &[f32], label: &str) {
        for (idx, (g, e)) in got.iter().zip(naive).enumerate() {
            let ok = if clamp_supported(level) == Level::Fma {
                (g - e).abs() <= 1e-4 * e.abs().max(1.0)
            } else {
                g.to_bits() == e.to_bits()
            };
            assert!(ok, "{level:?} {label} [{idx}]: {g:?} vs naive {e:?}");
        }
    }

    fn ramp(len: usize, mul: usize, modulus: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * mul) % modulus) as f32) * scale - shift)
            .collect()
    }

    #[test]
    fn tile_dims_are_wide_where_supported() {
        assert_eq!(tile_dims(Level::Scalar), (4, 8));
        let (mr, nr) = tile_dims(crate::detected_level());
        assert!(mr >= 4 && nr >= 8);
    }

    /// Every level, both A layouts (row-major with a padded stride, and
    /// transposed), every live row count and both sides of the NR edge,
    /// with the A slice ending *exactly* at the last live element:
    /// reading A in place must neither over-read nor change a bit.
    #[test]
    fn every_level_matches_the_naive_product() {
        for level in LEVELS {
            let (mr, nr) = tile_dims(level);
            for rows in 1..=mr {
                for k in [1, 17] {
                    for n in [1, nr - 1, nr, nr + 1] {
                        let b = ramp(k * n, 17, 89, 0.211, 9.0);
                        for a_strides in [(k + 3, 1), (1, rows + 2)] {
                            let (row_stride, p_stride) = a_strides;
                            let len = (rows - 1) * row_stride + (k - 1) * p_stride + 1;
                            let a = ramp(len, 31, 101, 0.173, 8.0);
                            let got = band_at(level, &a, a_strides, &b, k, n, rows);
                            let naive = naive_band(&a, a_strides, &b, k, n, rows);
                            let label = format!("rows={rows} k={k} n={n} strides={a_strides:?}");
                            assert_band_matches(level, &got, &naive, &label);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "is outside a slice of")]
    fn a_slice_one_element_short_trips_the_up_front_assertion() {
        let (rows, k, n) = (3, 17, 5);
        let a_strides = (k + 3, 1);
        let short = (rows - 1) * a_strides.0 + (k - 1) * a_strides.1; // one less than needed
        let a = vec![1.0f32; short];
        let b = vec![1.0f32; k * n];
        band_at(crate::detected_level(), &a, a_strides, &b, k, n, rows);
    }

    #[test]
    #[should_panic(expected = "is outside a slice of")]
    fn overflowing_a_strides_trip_the_assertion_instead_of_wrapping() {
        let (rows, k, n) = (2, 2, 1);
        let a = vec![1.0f32; 4];
        let b = vec![1.0f32; k * n];
        band_at(Level::Scalar, &a, (usize::MAX, usize::MAX), &b, k, n, rows);
    }

    #[test]
    fn scalar_and_avx2_bands_are_bit_identical() {
        let (k, n, rows) = (33, 19, 4);
        let a = ramp(rows * k, 31, 101, 0.173, 8.0);
        let b = ramp(k * n, 17, 89, 0.211, 9.0);
        let scalar = band_at(Level::Scalar, &a, (k, 1), &b, k, n, rows);
        let avx2 = band_at(Level::Avx2, &a, (k, 1), &b, k, n, rows);
        let sb: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
        let ab: Vec<u32> = avx2.iter().map(|v| v.to_bits()).collect();
        assert_eq!(sb, ab, "scalar vs avx2 band bits");
    }
}
