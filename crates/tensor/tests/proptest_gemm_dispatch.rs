//! Cross-level parity for the runtime-dispatched packed GEMM.
//!
//! The dispatch contract mirrors `crates/simd/tests/proptest_parity.rs`:
//! the `Scalar` and `Avx2` GEMM tiles evaluate every output element as the
//! same sequential multiply-then-add chain over `p` (the tile shape only
//! changes register blocking, never within-chain order), so the two levels
//! must agree **bit-for-bit** on every input, every transpose variant
//! and every size — panel edges at MR/NR multiples
//! ± 1, from products smaller than one tile to ones spanning many panels
//! (one packed kernel runs them all; there is no small-product path).
//! The opt-in `Fma` tile contracts each multiply–add into a single
//! rounding, so it is only ULP-bounded against scalar.
//!
//! `VITAL_SIMD` latches once per process, so these properties pin levels
//! explicitly through [`tensor::gemm_strided_into_at`]; on a scalar-only host
//! the pinned vector levels clamp down to scalar and the properties check
//! reflexivity, passing (vacuously for the cross-level part) everywhere.

use proptest::prelude::*;
use simd::Level;
use tensor::rng::SeededRng;
use tensor::{gemm_strided_into_at, MatmulSpec};

/// Bit pattern distance in units-in-the-last-place, walking through zero
/// for opposite signs.
fn ulp_diff(a: f32, b: f32) -> u64 {
    let rank = |v: f32| {
        let bits = v.to_bits();
        let mag = i64::from(bits & 0x7fff_ffff);
        if bits >> 31 == 0 {
            mag
        } else {
            -mag
        }
    };
    rank(a).abs_diff(rank(b))
}

/// Each FMA contraction drops one rounding per multiply–add; with the
/// positive operands these properties draw (no cancellation, so the
/// accumulator magnitude never collapses below its terms) the drift over a
/// k ≤ 96 chain stays far inside this envelope.
const FMA_ULP_BOUND: u64 = 256;

const SPECS: [(MatmulSpec, &str); 4] = [
    (MatmulSpec::NN, "NN"),
    (MatmulSpec::TN, "TN"),
    (MatmulSpec::NT, "NT"),
    (MatmulSpec::TT, "TT"),
];

/// `base · t ± 1` clamped to ≥ 1: lands one short of, exactly on, and one
/// past a panel edge for tile dimension `base`.
fn around_multiple(base: usize, t: usize, off: i64) -> usize {
    ((base * t) as i64 + off).max(1) as usize
}

/// Sizes that straddle the panel edges of every tile the kernel ships
/// with (MR ∈ {4, 6, 8}, NR = 8), from a product that fills part of one
/// tile to one that spans many column panels.
fn dims() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (
        // m around MR·t ± 1: candidates 4..8 cover every level's tile height
        (4usize..=8, 1usize..4, -1i64..=1),
        // k up to 95 and n around 8·t ± 1 (t < 18): one partial column
        // panel up to seventeen
        (1usize..96, 1usize..18, -1i64..=1),
        0u64..10_000,
    )
        .prop_map(|((mr, mt, mo), (k, nt, no), seed)| {
            let m = around_multiple(mr, mt, mo);
            let n = around_multiple(8, nt, no);
            (m, k, n, seed)
        })
}

fn inputs(m: usize, k: usize, n: usize, seed: u64, lo: f32, hi: f32) -> (Vec<f32>, Vec<f32>) {
    let mut rng = SeededRng::new(seed);
    let a = rng.uniform_tensor(&[m, k], lo, hi).as_slice().to_vec();
    let b = rng.uniform_tensor(&[k, n], lo, hi).as_slice().to_vec();
    (a, b)
}

/// Run one GEMM at a pinned level. `spec` reinterprets the row-major
/// buffers, so A is `m×k` when read normal and `k×m` when read transposed;
/// the flat lengths `m·k` / `k·n` are valid either way, each operand dense
/// (its stride is its stored column count).
fn run_at(
    level: Level,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    spec: MatmulSpec,
) -> Vec<f32> {
    let lda = if spec.trans_a { m } else { k };
    let ldb = if spec.trans_b { k } else { n };
    let mut out = vec![0.0f32; m * n];
    gemm_strided_into_at(level, m, k, n, (a, lda), (b, ldb), spec, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Scalar ≡ AVX2, bit-for-bit: all four transpose variants, panel-edge
    /// sizes from sub-tile to many-panel.
    #[test]
    fn scalar_and_avx2_dispatch_are_bit_identical(
        (m, k, n, seed) in dims(),
    ) {
        let (a, b) = inputs(m, k, n, seed, -2.0, 2.0);
        for (spec, label) in SPECS {
            let scalar = run_at(Level::Scalar, m, k, n, &a, &b, spec);
            let avx2 = run_at(Level::Avx2, m, k, n, &a, &b, spec);
            for (idx, (s, v)) in scalar.iter().zip(&avx2).enumerate() {
                prop_assert!(
                    s.to_bits() == v.to_bits(),
                    "{label} ({m}x{k}x{n}) [{idx}]: scalar {s:?} vs avx2 {v:?}"
                );
            }
        }
    }

    /// FMA stays inside the ULP envelope of scalar. Positive operands keep
    /// the accumulation cancellation-free so ULP distance is meaningful.
    #[test]
    fn fma_dispatch_is_ulp_bounded_against_scalar(
        (m, k, n, seed) in dims(),
    ) {
        let (a, b) = inputs(m, k, n, seed, 0.1, 2.0);
        for (spec, label) in SPECS {
            let scalar = run_at(Level::Scalar, m, k, n, &a, &b, spec);
            let fma = run_at(Level::Fma, m, k, n, &a, &b, spec);
            for (idx, (s, f)) in scalar.iter().zip(&fma).enumerate() {
                let d = ulp_diff(*s, *f);
                prop_assert!(
                    d <= FMA_ULP_BOUND,
                    "{label} ({m}x{k}x{n}) [{idx}]: {s} vs fma {f} = {d} ULP"
                );
            }
        }
    }

}

/// Deterministic sweep pinning exact MR/NR-multiple ± 1 corners for every
/// tile height the kernel ships with, small products and multi-panel ones.
#[test]
fn exhaustive_cross_level_boundary_sweep() {
    let best = simd::detected_level().min(Level::Avx2);
    for &m in &[1, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 23, 24, 25] {
        for &(k, n) in &[(17, 8), (31, 33), (64, 63), (64, 65), (65, 129)] {
            let (a, b) = inputs(m, k, n, (m * 1_000 + k * 10 + n) as u64, -1.0, 1.0);
            let scalar = run_at(Level::Scalar, m, k, n, &a, &b, MatmulSpec::NN);
            let vector = run_at(best, m, k, n, &a, &b, MatmulSpec::NN);
            for (idx, (s, v)) in scalar.iter().zip(&vector).enumerate() {
                assert!(
                    s.to_bits() == v.to_bits(),
                    "({m}x{k}x{n})[{idx}]: scalar {s:?} vs {} {v:?}",
                    best.name()
                );
            }
        }
    }
}
