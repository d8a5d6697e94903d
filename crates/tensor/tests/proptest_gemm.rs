//! Property-based checks of the packed GEMM against a derived,
//! bit-exact oracle.
//!
//! There is one kernel path for every product size, and at the `Scalar`
//! and `Avx2` levels it evaluates each output element as the chain
//! `0 + a₀b₀ + a₁b₁ + …`, sequential in `p`, unfused multiply-then-add.
//! That is exactly what the naive in-order `f32` triple loop computes, so
//! the oracle here is that loop and the comparison is `to_bits` equality:
//! every transpose variant, over sizes that straddle the MR/NR band and
//! panel boundaries of every tile. The opt-in
//! `Fma` level contracts each step into one rounding and keeps a 1e-4
//! tolerance.

use proptest::prelude::*;
use simd::Level;
use tensor::rng::SeededRng;
use tensor::{gemm_strided_into_at, MatmulSpec, Tensor};

const SPECS: [(MatmulSpec, &str); 4] = [
    (MatmulSpec::NN, "NN"),
    (MatmulSpec::TN, "TN"),
    (MatmulSpec::NT, "NT"),
    (MatmulSpec::TT, "TT"),
];

/// The oracle: `op(A) (m×k) · op(B) (k×n)` by the in-order, unfused `f32`
/// triple loop. `spec` reinterprets the row-major buffers, so A is `m×k`
/// when read normal and `k×m` when read transposed.
fn naive_gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], spec: MatmulSpec) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            for p in 0..k {
                let av = if spec.trans_a {
                    a[p * m + i]
                } else {
                    a[i * k + p]
                };
                let bv = if spec.trans_b {
                    b[j * k + p]
                } else {
                    b[p * n + j]
                };
                out[i * n + j] += av * bv;
            }
        }
    }
    out
}

/// Bit equality with the oracle below the FMA level (after the hardware
/// clamp), a relative 1e-4 at it.
fn check_against_naive(
    level: Level,
    got: &[f32],
    naive: &[f32],
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(got.len() == naive.len(), "{label}: length {}", got.len());
    let fused = level.min(simd::detected_level()) == Level::Fma;
    for (idx, (g, e)) in got.iter().zip(naive).enumerate() {
        let ok = if fused {
            (g - e).abs() < 1e-4 * e.abs().max(1.0)
        } else {
            g.to_bits() == e.to_bits()
        };
        prop_assert!(ok, "{label} {}[{idx}]: {g:?} vs naive {e:?}", level.name());
    }
    Ok(())
}

/// One shape, one seed: every spec × every pinned level (and the tensor
/// entry point at the process's active level) against the oracle.
fn check_all_variants((m, k, n): (usize, usize, usize), seed: u64) -> Result<(), TestCaseError> {
    let mut rng = SeededRng::new(seed);
    let a = rng.uniform_tensor(&[m * k], -2.0, 2.0);
    let b = rng.uniform_tensor(&[k * n], -2.0, 2.0);
    for (spec, name) in SPECS {
        let naive = naive_gemm(m, k, n, a.as_slice(), b.as_slice(), spec);
        let a_dims = if spec.trans_a { [k, m] } else { [m, k] };
        let b_dims = if spec.trans_b { [n, k] } else { [k, n] };
        let (a_mat, b_mat) = (a.reshape(&a_dims).unwrap(), b.reshape(&b_dims).unwrap());
        let (a_dense, b_dense) = ((a.as_slice(), a_dims[1]), (b.as_slice(), b_dims[1]));
        let label = format!("{name} ({m}x{k}x{n})");
        for level in [Level::Scalar, Level::Avx2, Level::Fma] {
            let mut out = vec![f32::NAN; m * n];
            gemm_strided_into_at(level, m, k, n, a_dense, b_dense, spec, &mut out);
            check_against_naive(level, &out, &naive, &label)?;
        }
        let got: Tensor = a_mat.matmul_ex(&b_mat, spec).unwrap();
        prop_assert!(got.shape().dims() == [m, n], "{label} shape");
        check_against_naive(simd::active_level(), got.as_slice(), &naive, &label)?;
    }
    Ok(())
}

/// Small sizes straddling every tile's band and panel boundaries (the
/// range the parent's unpacked small-product loop used to serve; its bits
/// are the oracle's bits, which is what pins them).
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..40, 1usize..40, 1usize..40)
}

/// Mid sizes with several B panels and padded edge panels per band.
fn dims_packed() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..24, 48usize..80, 48usize..128)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_gemm_matches_naive_for_all_variants(
        shape in dims(),
        seed in 0u64..10_000,
    ) {
        check_all_variants(shape, seed)?;
    }

    #[test]
    fn packed_kernel_matches_naive_for_all_variants(
        shape in dims_packed(),
        seed in 0u64..10_000,
    ) {
        check_all_variants(shape, seed.wrapping_add(50_000))?;
    }

    #[test]
    fn rank1_column_rule_matches_explicit_reshape(
        m in 1usize..20,
        k in 2usize..20,
        seed in 0u64..10_000,
    ) {
        let mut rng = SeededRng::new(seed);
        let a = rng.uniform_tensor(&[m, k], -2.0, 2.0);
        let v = rng.uniform_tensor(&[k], -2.0, 2.0);
        let implicit = a.matmul(&v).unwrap();
        let explicit = a.matmul(&v.reshape(&[k, 1]).unwrap()).unwrap();
        prop_assert_eq!(implicit, explicit);
    }
}

/// Sizes chosen to land exactly on, one short of, and one past the band
/// and panel edges of every tile configuration the kernel ships with
/// (MR ∈ {4, 6}, NR ∈ {8, 16}), with one-step and long chains.
#[test]
fn exhaustive_panel_boundary_sweep() {
    for &m in &[1, 3, 4, 5, 6, 7, 8, 12, 13, 16, 17] {
        for &k in &[1, 2, 64, 65] {
            for &n in &[1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 65, 128, 129] {
                let seed = (m * 10_000 + k * 100 + n) as u64;
                if let Err(failure) = check_all_variants((m, k, n), seed) {
                    panic!("{failure:?}");
                }
            }
        }
    }
}
