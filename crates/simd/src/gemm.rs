//! Runtime-dispatched GEMM band microkernel.
//!
//! The B packing, row-band split and shape logic of the GEMM
//! live in `tensor::matmul`; this module owns only the register-tiled
//! core that multiplies up to `MR` rows of A, read in place, against the
//! full packed B. Like the transcendental kernels it is written **once**,
//! generically over the [`SimdOp`] backend, as one `Kernel` impl that
//! `crate::dispatch` runs per level; only the tile shape differs. Each
//! backend sizes its tile from the product's width `n`
//! ([`SimdOp::gemm_tile`], read by [`tile_dims`]):
//!
//! | [`Level`]  | `n`    | tile (`MR × NR`) | accumulator rows                        |
//! |------------|--------|------------------|-----------------------------------------|
//! | `Scalar`   | any    | 4 × 8            | 1 × `[f32; 8]`, auto-vectorized         |
//! | `Avx2`     | any    | 6 × 16           | 2 × `__m256`, unfused `vmulps`+`vaddps` |
//! | `Avx512`   | > 16   | 12 × 32          | 2 × `__m512`, unfused `vmulps`+`vaddps` |
//! | `Avx512`   | ≤ 16   | 8 × 16           | 1 × `__m512`, unfused                   |
//!
//! The AVX2 tiles use twelve `__m256` accumulators (two per A row) plus
//! two B registers and one broadcast — 15 of the 16 ymm registers — so
//! each `vbroadcastss` and each loop iteration is amortized over 96
//! output elements; the wide AVX-512 tile holds 24 `__m512` accumulators
//! in the 32 zmm registers, 384 outputs per step. A product at most 16
//! wide (each attention head's `· V`, the attention-backward products)
//! takes the one-bundle AVX-512 tile rather than computing a 32-wide
//! panel that is half padding. The tile is instantiated once per live row
//! count `R ∈ 1..=MR` (a const generic selected by `match rows`), so a
//! short band — the last band of a product, or all of an `m = 1` product —
//! computes exactly its live rows and no dead ones.
//!
//! # Determinism
//!
//! Every output element is one independent accumulation chain
//! `c(i,j) = 0 + a(i,0)·b(0,j) + a(i,1)·b(1,j) + …`, evaluated
//! sequentially in `p` inside a single band-kernel invocation — at every
//! product size, since this kernel is the only GEMM path. The scalar,
//! AVX2 and AVX-512 backends perform the same unfused multiply-then-add
//! per step, so — although their tile *shapes* differ — each element's
//! chain is the identical sequence of IEEE-754 two-operand operations:
//! the three levels are **bit-identical on every input**, and
//! bit-identical to the
//! in-order naive triple loop (tile shape and `R` only change which
//! elements share a register block, never the order within a chain).
//!
//! # Operand contract
//!
//! **A is read in place, never packed.** The caller passes the operand
//! slice from the band's first live element on, plus a
//! `(row_stride, p_stride)` pair; element `(i, p)` of the band is
//! `a[i * row_stride + p * p_stride]` — `(stride, 1)` for a row-major A,
//! `(1, stride)` with `stride ≥ rows` for one read transposed, and no
//! other layout.
//! [`gemm_band_at`] asserts once, up front, that the last live element
//! `(rows − 1, k − 1)` lies inside the slice; the tile then reads a
//! row-major A through `rows` slices of exactly `k` values, whose indices
//! need no check in the loop, and a transposed one `rows` values at a
//! time, one check per step.
//!
//! **B is packed** at the tile width of the *resolved* level and the
//! product's width ([`tile_dims`] resolves the level the way the band
//! kernel does, so packing and kernel always agree): `⌈n / NR⌉` panels of
//! `k` groups of `NR` consecutive column values. Lanes past `n` in the last panel are computed and
//! discarded; they never reach the output.

use crate::backend::SimdOp;
use crate::{dispatch, Kernel, Level};

/// Microkernel tile dims `(MR, NR)` for a product `n` columns wide on the
/// backend a dispatch level resolves to on this CPU.
///
/// Callers must split rows and pack B with the dims of the same level and
/// width they pass to [`gemm_band_at`]; both dispatch the same way, so a
/// request the hardware cannot honor degrades consistently on both sides.
pub fn tile_dims(level: Level, n: usize) -> (usize, usize) {
    dispatch(level, TileDims(n))
}

/// The backend's [`SimdOp::gemm_tile`] at a product width.
struct TileDims(usize);

impl Kernel for TileDims {
    type Out = (usize, usize);
    #[inline(always)]
    fn run<S: SimdOp>(self) -> (usize, usize) {
        S::gemm_tile(self.0)
    }
}

/// Widest tile any level ships — the size of the edge-panel spill buffer.
const MAX_NR: usize = 32;

/// One band's operands as the tile reads them. Only [`GemmBand::run`]
/// builds one, after checking what the tile's reads rely on:
/// `a[i * row_stride + p * p_stride]` is in bounds for every `i < rows`,
/// `p < k`, and A is row-major (`p_stride == 1`) or transposed
/// (`row_stride == 1`, `p_stride >= rows`).
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
/// at the given level (resolved on this CPU), writing the `rows × n`
/// result band; `rows = out.len() / n` must be in `1..=MR`.
///
/// * `a`, `a_strides`: the A operand from this band's first element on;
///   with `a_strides = (row_stride, p_stride)`, element `(i, p)` is
///   `a[i * row_stride + p * p_stride]`, `(stride, 1)` for a row-major A
///   and `(1, stride)` with `stride >= rows` for one read transposed.
/// * `packed_b`: `⌈n / NR⌉` panels of `k × NR` packed values.
/// * `out`: row-major `rows × n` destination, fully overwritten.
///
/// # Panics
/// Panics if `k` or `n` is 0, `out` is not `1..=MR` whole rows, the A
/// strides are neither `(stride, 1)` nor `(1, stride)` with
/// `stride >= rows`, the last live A element lies outside `a`, or
/// `packed_b` was not packed at `tile_dims(level, n)`.
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
    /// Checks the band against `S`'s tile for this width, then runs the
    /// `NR / S::LANES`-bundle tile: on `Avx2` and `Avx512` with
    /// **unfused** `vmulps` + `vaddps`, the same two-operand IEEE sequence
    /// as the scalar tile.
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
        assert!(k >= 1 && n >= 1, "gemm band: k = {k}, n = {n}");
        let (mr, nr) = S::gemm_tile(n);
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
        // A transposed band reads each step's `rows` values as one run, so
        // consecutive steps must not overlap.
        assert!(
            p_stride == 1 || (row_stride == 1 && p_stride >= rows),
            "gemm band: A strides {a_strides:?} are neither row-major nor transposed \
             with a step stride of at least {rows} rows"
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
        7 => tile::<O, 7, V>(band, out),
        8 => tile::<O, 8, V>(band, out),
        9 => tile::<O, 9, V>(band, out),
        10 => tile::<O, 10, V>(band, out),
        11 => tile::<O, 11, V>(band, out),
        12 => tile::<O, 12, V>(band, out),
        rows => unreachable!("a tile admits at most 12 rows, got {rows}"),
    }
}

/// One step `p` of the tile: `a_p[i]` (A's element `(i, p)`) broadcast
/// against the `V` bundles of packed B row `p`, accumulated unfused into
/// row `i`'s accumulators.
#[inline(always)]
fn step<O: SimdOp, const R: usize, const V: usize>(
    acc: &mut [[O::V; V]; R],
    a_p: [f32; R],
    b: &[f32],
) {
    let b: [O::V; V] = std::array::from_fn(|v| O::load(&b[v * O::LANES..]));
    for (acc_row, &ai) in acc.iter_mut().zip(&a_p) {
        let ai = O::splat(ai);
        for (c, &bv) in acc_row.iter_mut().zip(&b) {
            *c = O::mul_add(ai, bv, *c);
        }
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
    // Row-major A as `R` rows of exactly `k` values: every `rows[i][p]`
    // below has `p < k`, so the compiler drops its bounds check (a checked
    // read in the loop halves the scalar tile's rate, 13 vs 26 GFLOP/s at
    // 256³). Transposed A (`row_stride == 1`) is read as the `R`
    // consecutive values of each step instead, one check per step.
    let rows: [&[f32]; R] = std::array::from_fn(|i| match p_stride {
        1 => &a[i * row_stride..][..k],
        _ => &[],
    });
    for (jp, b_panel) in packed_b.chunks_exact(k * nr).enumerate() {
        let j0 = jp * nr;
        let cols = nr.min(n - j0);
        let mut acc = [[O::splat(0.0); V]; R];
        let b_steps = b_panel.chunks_exact(nr);
        if p_stride == 1 {
            for (p, b) in (0..k).zip(b_steps) {
                step::<O, R, V>(&mut acc, std::array::from_fn(|i| rows[i][p]), b);
            }
        } else {
            for (a_p, b) in a.chunks(p_stride).zip(b_steps) {
                let a_p = a_p.first_chunk::<R>().expect("the band invariant");
                step::<O, R, V>(&mut acc, *a_p, b);
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
    /// `strides` — what every level must reproduce bit for bit.
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
        let packed_b = pack_b(b, k, n, tile_dims(level, n).1);
        let mut out = vec![f32::NAN; rows * n];
        gemm_band_at(level, a, a_strides, &packed_b, k, n, &mut out);
        out
    }

    /// Bit equality at every level.
    fn assert_band_matches(level: Level, got: &[f32], naive: &[f32], label: &str) {
        for (idx, (g, e)) in got.iter().zip(naive).enumerate() {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{level:?} {label} [{idx}]: {g:?} vs naive {e:?}"
            );
        }
    }

    fn ramp(len: usize, mul: usize, modulus: usize, scale: f32, shift: f32) -> Vec<f32> {
        (0..len)
            .map(|i| (((i * mul) % modulus) as f32) * scale - shift)
            .collect()
    }

    #[test]
    fn tile_dims_are_wide_where_supported() {
        for n in [1, 16, 17, 100] {
            assert_eq!(tile_dims(Level::Scalar, n), (4, 8));
            assert_eq!(
                tile_dims(Level::Avx2, n),
                tile_dims(Level::Avx2.resolve(), n)
            );
        }
        if Level::Avx512.resolve() == Level::Avx512 {
            assert_eq!(tile_dims(Level::Avx512, 16), (8, 16));
            assert_eq!(tile_dims(Level::Avx512, 17), (12, 32));
        }
        let (mr, nr) = tile_dims(crate::best_deterministic(), 100);
        assert!(mr >= 4 && nr >= 8);
    }

    /// Every level, both A layouts (row-major with a padded stride, and
    /// transposed), every live row count of the tile each width takes,
    /// and widths on both sides of each tile's NR edge (the AVX-512 level
    /// switches tiles between 16 and 17) and of several panels, with the
    /// A slice ending *exactly* at the last live element: reading A in
    /// place must neither over-read nor change a bit.
    #[test]
    fn every_level_matches_the_naive_product() {
        for level in Level::ALL {
            for n in [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 80, 100] {
                let (mr, _) = tile_dims(level, n);
                for rows in 1..=mr {
                    for k in [1, 17] {
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
        band_at(crate::best_deterministic(), &a, a_strides, &b, k, n, rows);
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
    #[should_panic(expected = "neither row-major nor transposed")]
    fn a_layout_that_is_neither_row_major_nor_transposed_is_refused() {
        let (rows, k, n) = (2, 3, 4);
        let a = vec![1.0f32; 16];
        let b = vec![1.0f32; k * n];
        band_at(Level::Scalar, &a, (3, 2), &b, k, n, rows);
    }

    /// A transposed A whose step stride is below the band's row count
    /// (0 included) would read overlapping steps: refused up front, with
    /// the same message at every level.
    #[test]
    fn a_transposed_step_stride_below_the_band_rows_is_refused() {
        let (rows, k, n) = (3, 4, 5);
        let a = vec![1.0f32; 64];
        let b = vec![1.0f32; k * n];
        for level in Level::ALL {
            for p_stride in [0, rows - 1] {
                let refused = std::panic::catch_unwind(|| {
                    band_at(level, &a, (1, p_stride), &b, k, n, rows);
                });
                let message = refused.expect_err("an overlapping transposed A ran");
                let message = message
                    .downcast_ref::<String>()
                    .expect("a formatted message");
                assert!(
                    message.contains("with a step stride of at least 3 rows"),
                    "{level:?} p_stride={p_stride}: {message}"
                );
            }
        }
    }

    #[test]
    fn scalar_and_avx2_bands_are_bit_identical() {
        for n in [16, 19] {
            let (k, rows) = (33, 4);
            let a = ramp(rows * k, 31, 101, 0.173, 8.0);
            let b = ramp(k * n, 17, 89, 0.211, 9.0);
            let bits = |level| -> Vec<u32> {
                let out = band_at(level, &a, (k, 1), &b, k, n, rows);
                out.iter().map(|v| v.to_bits()).collect()
            };
            let scalar = bits(Level::Scalar);
            assert_eq!(scalar, bits(Level::Avx2), "scalar vs avx2 band bits");
            assert_eq!(scalar, bits(Level::Avx512), "scalar vs avx512 band bits");
        }
    }
}
