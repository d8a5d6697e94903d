//! Property-based parity between the dispatch levels.
//!
//! The crate's determinism contract: the `Scalar`, `Avx2` and `Avx512`
//! levels run the *same* generic kernels over backends with identical
//! two-operand IEEE semantics, so they must agree **bit-for-bit** on
//! every input — including lane-boundary lengths (`n = 8k ± 1`,
//! exercising the padded tails of both widths), subnormals, `±∞` and
//! `NaN`. The one documented exception is a
//! layer-norm row that already holds a non-finite value: there the levels
//! agree on which outputs are NaN, not on the NaNs' payload (see
//! `kernels.rs`). CI runs this suite in debug *and* release: the
//! optimiser is free to commute NaN operands, so only release shows a
//! kernel that leaks one.
//!
//! Each property runs the kernel at `Level::Scalar` and at each
//! vector level, `Avx2` and `Avx512` ([`vector_levels`]), on
//! clones of the same buffer. A level the CPU lacks resolves down its
//! chain (`Avx512 → Avx2 → Scalar`), so on a host without AVX-512F the
//! `Avx512` pass repeats the `Avx2` one, and on a scalar-only host the
//! properties check reflexivity: the suite passes (vacuously for the
//! cross-level part) everywhere.

use proptest::prelude::*;
use simd::{Act, Level};

/// Subnormals, signed zeros, infinities, NaN, and boundary magnitudes —
/// special-value propagation is part of the bit-parity contract, not an
/// untested corner.
const SPECIALS: [f32; 8] = [
    1.0e-40,
    -1.0e-40,
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    f32::MIN_POSITIVE,
];

/// One element: 8/10 moderate finite, 1/10 large-magnitude finite, 1/10 a
/// special value. (The vendored proptest has no `prop_oneof`, so the
/// branch is picked by an index drawn alongside the candidates.)
fn any_element() -> impl Strategy<Value = f32> {
    (
        0usize..10,
        -30.0f32..30.0f32,
        -1.0e4f32..1.0e4f32,
        0usize..SPECIALS.len(),
    )
        .prop_map(|(pick, moderate, wide, special)| match pick {
            0..=7 => moderate,
            8 => wide,
            _ => SPECIALS[special],
        })
}

/// Finite-only element for the bit-exact layer-norm property (a row with
/// a NaN or an infinity is the documented exception, checked on its own).
fn finite_element() -> impl Strategy<Value = f32> {
    (0usize..10, -8.0f32..8.0f32, -1.0e3f32..1.0e3f32).prop_map(|(pick, moderate, wide)| match pick
    {
        0..=7 => moderate,
        8 => wide,
        _ => 1.0e-40,
    })
}

/// Lengths that straddle the 8-lane boundary: `8k - 1`, `8k`, `8k + 1`
/// for small `k`, so both the full-vector body and the padded tail see
/// every alignment.
fn lane_boundary_len() -> impl Strategy<Value = usize> {
    (1usize..=5, 0usize..3).prop_map(|(k, d)| (8 * k + d).saturating_sub(1).max(1))
}

fn buffer(len: impl Strategy<Value = usize>) -> impl Strategy<Value = Vec<f32>> {
    len.prop_flat_map(|n| proptest::collection::vec(any_element(), n))
}

fn assert_bits_equal(a: &[f32], b: &[f32], label: &str) -> Result<(), TestCaseError> {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        prop_assert!(
            x.to_bits() == y.to_bits(),
            "{label}[{i}]: {x:?} (0x{:08x}) vs {y:?} (0x{:08x})",
            x.to_bits(),
            y.to_bits()
        );
    }
    Ok(())
}

/// The vector levels, each held to `Scalar` bit for bit: every level of
/// [`Level::ALL`] but `Scalar` itself.
fn vector_levels() -> impl Iterator<Item = Level> {
    Level::ALL
        .into_iter()
        .filter(|level| *level != Level::Scalar)
}

const ACTS: [Act; 5] = [Act::Relu, Act::Gelu, Act::Sigmoid, Act::Tanh, Act::Exp];

proptest! {
    /// Elementwise activations: the scalar sweep and each vector level's
    /// are bit-identical on arbitrary buffers, specials included.
    #[test]
    fn apply_act_scalar_avx2_bit_identical(data in buffer(lane_boundary_len())) {
        for level in vector_levels() {
            for act in ACTS {
                let mut scalar = data.clone();
                let mut vector = data.clone();
                simd::apply_act(Level::Scalar, act, &mut scalar);
                simd::apply_act(level, act, &mut vector);
                assert_bits_equal(&scalar, &vector, &format!("{level:?} {act:?}"))?;
            }
        }
    }

    /// The GELU backward sweep: bit-identical across levels and to the
    /// one-lane derivative times the gradient, element by element,
    /// specials included.
    #[test]
    fn gelu_backward_scalar_avx2_bit_identical(data in buffer(lane_boundary_len())) {
        let grad: Vec<f32> = (0..data.len()).map(|i| 0.5 + i as f32 * 0.25).collect();
        let mut scalar = grad.clone();
        simd::gelu_backward(Level::Scalar, &data, &mut scalar);
        let per_element: Vec<f32> = data
            .iter()
            .zip(&grad)
            .map(|(&x, &g)| g * simd::scalar::gelu_grad(x))
            .collect();
        assert_bits_equal(&per_element, &scalar, "per-element gelu'")?;
        for level in vector_levels() {
            let mut vector = grad.clone();
            simd::gelu_backward(level, &data, &mut vector);
            assert_bits_equal(&scalar, &vector, &format!("{level:?} gelu'"))?;
        }
    }

    /// The vectorized sweep also matches the one-lane `simd::scalar::*`
    /// reference functions element by element — the property the tensor
    /// crate's per-element `UnaryOp::eval` path relies on.
    #[test]
    fn apply_act_matches_per_element_reference(data in buffer(lane_boundary_len())) {
        for level in vector_levels() {
            let mut swept = data.clone();
            simd::apply_act(level, Act::Gelu, &mut swept);
            for (i, (&x, &y)) in data.iter().zip(&swept).enumerate() {
                let want = simd::scalar::gelu(x);
                prop_assert!(
                    want.to_bits() == y.to_bits(),
                    "{level:?} gelu[{i}]({x:?}): swept {y:?} vs per-element {want:?}"
                );
            }
        }
    }

    /// Row-wise softmax: bit-identical across levels for any row count ×
    /// lane-straddling width, including large-magnitude inputs (the
    /// running-max subtraction keeps `exp` in range — the kernel must not
    /// regress to a naive `exp(x)/Σ` that overflows) and specials.
    #[test]
    fn softmax_scalar_avx2_bit_identical(
        (cols, data) in (lane_boundary_len(), 1usize..4).prop_flat_map(
            |(cols, rows)| (Just(cols), proptest::collection::vec(any_element(), rows * cols)),
        )
    ) {
        for level in vector_levels() {
            let mut scalar = data.clone();
            let mut vector = data.clone();
            simd::softmax_rows(Level::Scalar, &mut scalar, cols);
            simd::softmax_rows(level, &mut vector, cols);
            assert_bits_equal(&scalar, &vector, &format!("{level:?} softmax"))?;
        }
    }

    /// Row-wise layer norm: bit-identical across levels, with non-trivial
    /// affine parameters.
    #[test]
    fn layer_norm_scalar_avx2_bit_identical(
        (cols, data, gamma, beta) in (lane_boundary_len(), 1usize..4).prop_flat_map(
            |(cols, rows)| (
                Just(cols),
                proptest::collection::vec(finite_element(), rows * cols),
                proptest::collection::vec(-2.0f32..2.0f32, cols),
                proptest::collection::vec(-1.0f32..1.0f32, cols),
            ),
        )
    ) {
        for level in vector_levels() {
            let mut scalar = data.clone();
            let mut vector = data.clone();
            simd::layer_norm_rows(Level::Scalar, &mut scalar, cols, &gamma, &beta, 1e-5, None);
            simd::layer_norm_rows(level, &mut vector, cols, &gamma, &beta, 1e-5, None);
            assert_bits_equal(&scalar, &vector, &format!("{level:?} layer_norm"))?;
        }
    }

    /// Layer norm over rows that hold specials: the levels agree on which
    /// outputs are NaN (payload unspecified — the documented narrowing)
    /// and bit for bit on everything else, finite rows included.
    #[test]
    fn layer_norm_with_specials_agrees_up_to_nan_payload(
        (cols, data) in (lane_boundary_len(), 1usize..4).prop_flat_map(
            |(cols, rows)| (Just(cols), proptest::collection::vec(any_element(), rows * cols)),
        )
    ) {
        let gamma: Vec<f32> = (0..cols).map(|j| 1.0 + j as f32 * 0.03).collect();
        let beta: Vec<f32> = (0..cols).map(|j| j as f32 * -0.01).collect();
        let mut scalar = data.clone();
        simd::layer_norm_rows(Level::Scalar, &mut scalar, cols, &gamma, &beta, 1e-5, None);
        for level in vector_levels() {
            let mut vector = data.clone();
            simd::layer_norm_rows(level, &mut vector, cols, &gamma, &beta, 1e-5, None);
            for (i, (s, v)) in scalar.iter().zip(&vector).enumerate() {
                prop_assert!(
                    s.to_bits() == v.to_bits() || (s.is_nan() && v.is_nan()),
                    "{level:?} layer_norm[{i}]: {s:?} (0x{:08x}) vs {v:?} (0x{:08x})",
                    s.to_bits(),
                    v.to_bits()
                );
            }
        }
    }

    /// `ln` over the Box–Muller radius domain `(0, 1]` — the grid
    /// `k · 2⁻²⁴` the keyed draws produce, its two ends included — and
    /// over arbitrary elements, specials included: bit-identical sweeps.
    #[test]
    fn ln_scalar_avx2_bit_identical(
        grid in proptest::collection::vec(1u32..=1 << 24, 1..48),
        data in buffer(lane_boundary_len()),
    ) {
        let unit = grid.iter().map(|&k| k as f32 / 16_777_216.0);
        let ends = [1.0 / 16_777_216.0, 1.0];
        for input in [unit.chain(ends).collect::<Vec<_>>(), data] {
            let mut scalar = input.clone();
            simd::ln(Level::Scalar, &mut scalar);
            for level in vector_levels() {
                let mut vector = input.clone();
                simd::ln(level, &mut vector);
                assert_bits_equal(&scalar, &vector, &format!("{level:?} ln"))?;
            }
        }
    }

    /// `sincos` over the Box–Muller angle domain, turns in `[0, 1)`, and
    /// over arbitrary elements, specials included: both outputs
    /// bit-identical.
    #[test]
    fn sincos_scalar_avx2_bit_identical(
        grid in proptest::collection::vec(0u32..1 << 24, 1..48),
        data in buffer(lane_boundary_len()),
    ) {
        let turns: Vec<f32> = grid.iter().map(|&k| k as f32 / 16_777_216.0).collect();
        for input in [turns, data] {
            let n = input.len();
            let (mut s_sin, mut s_cos) = (vec![0.0; n], vec![0.0; n]);
            simd::sincos_turns(Level::Scalar, &input, &mut s_sin, &mut s_cos);
            for level in vector_levels() {
                let (mut v_sin, mut v_cos) = (vec![0.0; n], vec![0.0; n]);
                simd::sincos_turns(level, &input, &mut v_sin, &mut v_cos);
                assert_bits_equal(&s_sin, &v_sin, &format!("{level:?} sin"))?;
                assert_bits_equal(&s_cos, &v_cos, &format!("{level:?} cos"))?;
            }
        }
    }
}

/// Deterministic (non-proptest) pin of the exact lane-boundary lengths
/// around one, two and four vectors, over a buffer that covers every
/// special class at every tail alignment.
#[test]
fn lane_boundaries_bit_identical_for_every_kernel() {
    let specials = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0e-40,
        -1.0e-40,
        0.0,
        -0.0,
        f32::MIN_POSITIVE,
        88.0,
        -88.0,
        1.0e4,
        -1.0e4,
        0.5,
        -0.5,
    ];
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for level in vector_levels() {
        for n in [1, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            let data: Vec<f32> = (0..n).map(|i| specials[i % specials.len()]).collect();
            for act in ACTS {
                let mut a = data.clone();
                let mut b = data.clone();
                simd::apply_act(Level::Scalar, act, &mut a);
                simd::apply_act(level, act, &mut b);
                assert_eq!(bits(&a), bits(&b), "{level:?} {act:?} n={n}");
            }
            let mut a = vec![1.5; n];
            let mut b = a.clone();
            simd::gelu_backward(Level::Scalar, &data, &mut a);
            simd::gelu_backward(level, &data, &mut b);
            assert_eq!(bits(&a), bits(&b), "{level:?} gelu' n={n}");
            let mut a = data.clone();
            let mut b = data.clone();
            simd::softmax_rows(Level::Scalar, &mut a, n);
            simd::softmax_rows(level, &mut b, n);
            assert_eq!(bits(&a), bits(&b), "{level:?} softmax n={n}");
            let mut a = data.clone();
            let mut b = data.clone();
            simd::ln(Level::Scalar, &mut a);
            simd::ln(level, &mut b);
            assert_eq!(bits(&a), bits(&b), "{level:?} ln n={n}");
            let sincos = |level| {
                let (mut sin, mut cos) = (vec![0.0; n], vec![0.0; n]);
                simd::sincos_turns(level, &data, &mut sin, &mut cos);
                (bits(&sin), bits(&cos))
            };
            assert_eq!(
                sincos(Level::Scalar),
                sincos(level),
                "{level:?} sincos n={n}"
            );
        }
    }
}

/// A negative NaN with a payload: unlike `f32::NAN` it cannot be mistaken
/// for the canonical NaN softmax makes of a poisoned denominator, so an
/// output that lost track of it shows.
const NAN_PAYLOAD: f32 = f32::from_bits(0xffc0_1234);

/// The 16-lane fold, pinned where it can go wrong: softmax and layer norm
/// at `Avx512` against `Scalar`, bit for bit, over every row width 1–40
/// and 100, each row once finite and once with a NaN, `±∞` or `−0.0`
/// placed in the 16-lane body, in the first (eight-lane) granule of the
/// tail and in the tail's last lane — so a fold of an all-pad granule
/// (a NaN max lane turned into `−∞`, a `−0.0` sum lane into `+0.0`) or
/// of the halves in the wrong order shows. A layer-norm row holding a
/// special agrees up to NaN payload (the documented narrowing). On a CPU
/// without AVX-512F the level resolves to `Avx2` and this pins that.
#[test]
fn reductions_fold_sixteen_lanes_into_the_eight_lane_trees() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for cols in (1..=40).chain([100]) {
        let finite: Vec<f32> = (0..cols)
            .map(|j| ((j * 29) % 23) as f32 * 0.37 - 4.0)
            .collect();
        let body = cols - cols % 16;
        let positions = [0, cols / 2, body, body + 8, cols - 1];
        let mut rows = vec![finite.clone()];
        for special in [
            NAN_PAYLOAD,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
        ] {
            for &at in positions.iter().filter(|&&at| at < cols) {
                let mut row = finite.clone();
                row[at] = special;
                rows.push(row);
            }
        }
        rows.push(vec![-0.0; cols]);
        let gamma: Vec<f32> = (0..cols).map(|j| 1.0 + j as f32 * 0.03).collect();
        let beta: Vec<f32> = (0..cols).map(|j| j as f32 * -0.01).collect();
        for row in &rows {
            let label = format!("cols={cols} row={row:?}");
            let mut a = row.clone();
            let mut b = row.clone();
            simd::softmax_rows(Level::Scalar, &mut a, cols);
            simd::softmax_rows(Level::Avx512, &mut b, cols);
            assert_eq!(bits(&a), bits(&b), "softmax {label}");

            let mut a = row.clone();
            let mut b = row.clone();
            let (mut stats_a, mut stats_b) = (([0.0], [0.0]), ([0.0], [0.0]));
            let stats = Some((&mut stats_a.0[..], &mut stats_a.1[..]));
            simd::layer_norm_rows(Level::Scalar, &mut a, cols, &gamma, &beta, 1e-5, stats);
            let stats = Some((&mut stats_b.0[..], &mut stats_b.1[..]));
            simd::layer_norm_rows(Level::Avx512, &mut b, cols, &gamma, &beta, 1e-5, stats);
            let same = |x: f32, y: f32| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan());
            let all_finite = row.iter().all(|x| x.is_finite());
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                let ok = if all_finite {
                    x.to_bits() == y.to_bits()
                } else {
                    same(*x, *y)
                };
                assert!(ok, "layer_norm[{i}] {x:?} vs {y:?} {label}");
            }
            assert!(same(stats_a.0[0], stats_b.0[0]), "mean {label}");
            assert!(same(stats_a.1[0], stats_b.1[0]), "istd {label}");
        }
    }
}
