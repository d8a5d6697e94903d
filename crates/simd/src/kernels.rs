//! Backend-generic math kernels.
//!
//! Every kernel here is written once, generically over a [`SimdOp`]
//! backend, as one `Kernel` impl that `crate::dispatch` runs on the
//! backend of each level. The algorithm structure is fixed: eight-lane
//! reduction trees, and padded tail blocks that push remainder elements
//! through the *same* vector code path — which is what makes the scalar,
//! AVX2 and AVX-512 levels bit-identical on every input, tails and
//! specials included. The per-lane kernels (activations, `ln`, `sincos`
//! and the per-lane passes of softmax and layer norm) run at the
//! backend's full width; a reduction (softmax's max and sum, layer
//! norm's sums) accumulates in an eight-lane [`SimdOp::Tree`] bundle that
//! each wider bundle folds into, low half then high half
//! ([`SimdOp::fold`]). A tail folds in eight-lane granules too, but never
//! one that holds pad lanes only: folding an all-pad granule would turn a
//! NaN max lane into `−∞` (`maxps` returns the pad) and a `−0.0` sum lane
//! into `+0.0`, which the eight-lane levels never see.
//!
//! Numerical contracts:
//! - `exp`: Cephes-style degree-5 polynomial after range reduction
//!   `x = n·ln2 + r` (two-constant Cohen split of `ln2`), rebuilt with a
//!   two-step power-of-two scale so `n = 128` stays representable.
//!   Worst-case error ≈ 2 ULP on finite inputs; `+∞ → +∞`, `−∞ → 0`,
//!   `NaN → NaN` (payload preserved), inputs below `EXP_LO` flush to
//!   exactly `0`.
//! - `tanh`/`sigmoid`/`gelu` are built from `exp` with exact IEEE
//!   follow-up arithmetic, so they inherit its cross-level parity. GELU's
//!   derivative (`gelu_grad_v`, the training backward) evaluates the same
//!   `tanh` of the same argument as `gelu`, so the two agree on `t` bit
//!   for bit; it is finite for every finite input and NaN only for NaN.
//!   `tanh`'s accuracy contract is *absolute* (≈ a few ULP of 1): the
//!   `1 − 2/(e^(2|x|)+1)` form cancels against 1 for small `|x|`, where
//!   relative error grows while absolute error stays ≈ 1e-7 — ample for
//!   activations, and still bit-identical across the deterministic
//!   levels.
//! - `softmax_rows` is the three-pass max / exp-sum / divide form;
//!   `layer_norm_rows` accumulates sum and sum-of-squares in one sweep.
//! - `ln`: Cephes-style degree-8 polynomial in `f = m − 1` after the
//!   [`SimdOp::frexp`] split `x = m · 2^e` with `m ∈ [√½, √2)`, `e·ln2`
//!   added back in the same two halves as `exp`'s. At most 1 ULP over
//!   the `k · 2⁻²⁴` grid of `(0, 1]`, 2 ULP on other positive finite
//!   inputs, subnormals included (scaled into the normal range first);
//!   `0 → −∞`, `+∞ → +∞`, negative → NaN, `NaN → NaN` (payload
//!   preserved).
//! - `sincos` takes its angle in *turns* (`2π · t` radians), so the range
//!   reduction is exact: `t − round(t)`, then quarter turns `q`, leave
//!   `|r| ≤ 1/8`, and only `r · 2π` rounds. Cephes `sinf`/`cosf`
//!   polynomials on `[−π/4, π/4]` and a quadrant swap: within one
//!   `f32::EPSILON` of libm in absolute terms (9.1e-8 over the `k · 2⁻²⁴`
//!   grid of a turn). `±∞` and NaN give NaN (a NaN input keeps its
//!   payload).
//!
//! NaN outputs and the cross-level contract. IEEE leaves the sign and
//! payload of a NaN *result* open, x86 takes them from the first operand,
//! and the optimiser may commute `+` and `·` in the portable backend — so
//! wherever two different NaNs can meet in a commutative op, the result's
//! sign depends on the opt level (release builds showed it; debug never
//! does). The contract is pinned per kernel:
//! - the activations and `softmax_rows` are bit-identical across the
//!   levels on **every** input, NaN included: the
//!   activations only ever combine NaNs derived from the one input lane,
//!   and softmax canonicalises its one exposed value, the row denominator;
//! - `layer_norm_rows` is bit-identical on finite rows. In a row that
//!   holds a NaN or an infinity the levels agree on *which* outputs are
//!   NaN and bit for bit on the rest, but a NaN's sign and payload are
//!   unspecified (`(x − mean) · istd` multiplies two unrelated NaNs per
//!   element; canonicalising there would tax every finite row for the
//!   sake of rows that are already garbage).
//! - [`squared_distances`](crate::squared_distances) is bit-identical across
//!   the levels on every input, and to the per-pair chain of each row on
//!   every distance that is not NaN; its NaNs are canonical.
//! - [`attention`](crate::attention) is bit-identical across the levels on
//!   every input, and to the per-block score GEMM, scale, `softmax_rows`
//!   and `· V` GEMM it replaces on every output that is not NaN: each
//!   lane repeats those steps' operations in their operand order. Its
//!   NaN outputs are canonical, as `squared_distances`' are.
//! - [`attention_backward`](crate::attention_backward) is bit-identical across
//!   the levels on every input, and to the tape's per-block chain (the
//!   two GEMMs' backward products, the softmax's `S ⊙ (G − Σ(G ⊙ S))`
//!   and the scale's) on every gradient that is not NaN; its NaN
//!   gradients are canonical too (the chain's own NaN signs depend on the
//!   build, as the forward steps' do).

// The Cephes expf constants are written with their full decimal digits on
// purpose: each literal rounds to the exact f32 bit pattern the minimax
// fit was computed for, and the digits document which coefficient it is.
// Truncating them (clippy's suggestion) would obscure that, and LOG2E is
// a deliberately *rounded* range-reduction multiplier, not a stand-in for
// the exact mathematical constant the approx_constant lint proposes.
#![allow(clippy::excessive_precision, clippy::approx_constant)]

use crate::backend::{lane, Reduce, SimdOp, MAX_LANES};
use crate::{AttentionShape, Kernel};

/// `sqrt(2/π)` to `f32` precision — the tanh-approximation GELU constant.
pub const SQRT_2_OVER_PI: f32 = 0.797_884_6;

/// The cubic coefficient of the tanh-approximation GELU.
pub const GELU_COEFF: f32 = 0.044_715;

/// `1/ln 2`, the range-reduction multiplier for `exp`.
const LOG2E: f32 = 1.442_695_041;
/// High half of `ln 2` (exact in 11 mantissa bits, so `n·LN2_HI` is exact).
const LN2_HI: f32 = 0.693_359_375;
/// Low half: `ln 2 − LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// Above this input `exp` saturates to `+∞`.
const EXP_HI: f32 = 88.722_84;
/// Below this input `exp` flushes to `0` (the result would be subnormal
/// beyond the range the reconstruction covers).
const EXP_LO: f32 = -87.336_55;
const EXP_P0: f32 = 1.987_569_15e-4;
const EXP_P1: f32 = 1.398_199_950_7e-3;
const EXP_P2: f32 = 8.333_451_907_3e-3;
const EXP_P3: f32 = 4.166_579_589_4e-2;
const EXP_P4: f32 = 1.666_666_546e-1;
const EXP_P5: f32 = 5.000_000_120_1e-1;
/// Significands above this are halved before `ln`'s polynomial, so
/// `f = m − 1` stays in `[√½ − 1, √2 − 1]`.
const SQRT2: f32 = 1.414_213_562_4;
/// `2^25`: lifts a subnormal `ln` argument into the normal range.
const TWO_POW_25: f32 = 33_554_432.0;
const LOG_P0: f32 = 7.037_683_629_2e-2;
const LOG_P1: f32 = -1.151_461_031_0e-1;
const LOG_P2: f32 = 1.167_699_874_0e-1;
const LOG_P3: f32 = -1.242_014_084_6e-1;
const LOG_P4: f32 = 1.424_932_278_7e-1;
const LOG_P5: f32 = -1.666_805_766_5e-1;
const LOG_P6: f32 = 2.000_071_476_5e-1;
const LOG_P7: f32 = -2.499_999_399_3e-1;
const LOG_P8: f32 = 3.333_333_117_4e-1;
/// One full turn in radians, `2π`.
const TAU: f32 = 6.283_185_307_179_586;
const SIN_P0: f32 = -1.951_529_589_1e-4;
const SIN_P1: f32 = 8.332_160_873_6e-3;
const SIN_P2: f32 = -1.666_665_461_1e-1;
const COS_P0: f32 = 2.443_315_711_809_948e-5;
const COS_P1: f32 = -1.388_731_625_493_765e-3;
const COS_P2: f32 = 4.166_664_568_298_827e-2;

/// The activations the dispatcher vectorizes.
///
/// Mirrors the transcendental subset of the tensor crate's `UnaryOp`;
/// exact single-instruction ops (abs, sqrt, scalar add/mul, …) stay as
/// plain loops in the tensor crate because auto-vectorization already
/// handles them and they are bit-deterministic by nature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Act {
    /// `if x > 0 { x } else { 0 }` (`maxps(x, 0)` semantics; NaN → 0).
    Relu,
    /// Tanh-approximation GELU,
    /// `0.5 · x · (1 + tanh(√(2/π) · (x + 0.044715 · x³)))`.
    Gelu,
    /// Logistic sigmoid `1 / (1 + e^(−x))`.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Natural exponent `e^x`.
    Exp,
}

/// Vectorized `e^x` — see the module docs for the numerical contract.
#[inline(always)]
pub fn exp_v<S: SimdOp>(x: S::V) -> S::V {
    let one = S::splat(1.0);
    let over = S::gt(x, S::splat(EXP_HI));
    let under = S::lt(x, S::splat(EXP_LO));
    let nan = S::is_nan(x);
    // Clamp so the polynomial path only ever sees finite arguments
    // (minps semantics map a NaN first operand to the bound; the blend
    // below restores the NaN afterwards). Flushed lanes evaluate at 0
    // rather than at `EXP_LO`: `e^EXP_LO ≈ FLT_MIN` rebuilds on the
    // normal/subnormal edge and takes a microcode assist on every such
    // lane — the `−∞` pad lanes of every softmax tail among them — only
    // for the `under` blend to discard the value.
    let xc = S::select(under, S::splat(0.0), S::min(x, S::splat(EXP_HI)));
    let n = S::round(S::mul(xc, S::splat(LOG2E)));
    let r = S::mul_add(n, S::splat(-LN2_HI), xc);
    let r = S::mul_add(n, S::splat(-LN2_LO), r);
    let mut y = S::splat(EXP_P0);
    y = S::mul_add(y, r, S::splat(EXP_P1));
    y = S::mul_add(y, r, S::splat(EXP_P2));
    y = S::mul_add(y, r, S::splat(EXP_P3));
    y = S::mul_add(y, r, S::splat(EXP_P4));
    y = S::mul_add(y, r, S::splat(EXP_P5));
    y = S::mul_add(y, S::mul(r, r), S::add(r, one));
    let y = S::scale_by_pow2(y, n);
    let y = S::select(under, S::splat(0.0), y);
    let y = S::select(over, S::splat(f32::INFINITY), y);
    S::select(nan, x, y)
}

/// Vectorized `tanh` via `sign(x) · (1 − 2/(e^(2|x|) + 1))`.
///
/// The odd-symmetry form needs no large-|x| cutoff: `e^(2|x|)` saturates
/// to `+∞` and the quotient collapses to `0`, giving `±1` exactly.
#[inline(always)]
pub fn tanh_v<S: SimdOp>(x: S::V) -> S::V {
    let one = S::splat(1.0);
    let two = S::splat(2.0);
    let e = exp_v::<S>(S::mul(S::abs(x), two));
    let t = S::sub(one, S::div(two, S::add(e, one)));
    S::copysign(t, x)
}

/// Vectorized logistic sigmoid `1 / (1 + e^(−x))`.
#[inline(always)]
pub fn sigmoid_v<S: SimdOp>(x: S::V) -> S::V {
    let one = S::splat(1.0);
    S::div(one, S::add(one, exp_v::<S>(S::sub(S::splat(0.0), x))))
}

/// Vectorized tanh-approximation GELU with the same association order as
/// the scalar formula: `(0.5·x) · (1 + tanh(√(2/π) · (x + ((c·x)·x)·x)))`.
#[inline(always)]
pub fn gelu_v<S: SimdOp>(x: S::V) -> S::V {
    let t = tanh_v::<S>(gelu_inner::<S>(x));
    S::mul(S::mul(S::splat(0.5), x), S::add(S::splat(1.0), t))
}

/// The argument of GELU's tanh, `√(2/π) · (x + ((c·x)·x)·x)`: one
/// definition for [`gelu_v`] and [`gelu_grad_v`], so the derivative uses
/// the forward's tanh bit for bit.
#[inline(always)]
fn gelu_inner<S: SimdOp>(x: S::V) -> S::V {
    let x3 = S::mul(S::mul(S::mul(S::splat(GELU_COEFF), x), x), x);
    S::mul(S::splat(SQRT_2_OVER_PI), S::add(x, x3))
}

/// Vectorized derivative of the tanh-approximation GELU,
/// `0.5·(1 + t) + ((0.5·x)·(1 − t²))·u′` with `t` the forward's tanh
/// ([`gelu_v`]) and `u′ = √(2/π) · (1 + ((3c)·x)·x)`.
///
/// Where the tanh has saturated (`1 − t² = 0`, every `|x|` above about
/// 10) the second term is zero whatever `u′`: for `|x| ≳ 6e19`, `x²` and
/// `u′` are infinite and `0 · ∞` would make the slope NaN. So the
/// derivative is finite for every finite `x` (1 above, 0 below), and NaN
/// only for a NaN `x`.
#[inline(always)]
pub fn gelu_grad_v<S: SimdOp>(x: S::V) -> S::V {
    let (one, half) = (S::splat(1.0), S::splat(0.5));
    let t = tanh_v::<S>(gelu_inner::<S>(x));
    let x2 = S::mul(S::mul(S::splat(3.0 * GELU_COEFF), x), x);
    let du = S::mul(S::splat(SQRT_2_OVER_PI), S::add(one, x2));
    let sech2 = S::sub(one, S::mul(t, t));
    let slope = S::mul(S::mul(S::mul(half, x), sech2), du);
    let slope = S::select(S::gt(sech2, S::splat(0.0)), slope, S::splat(0.0));
    S::add(S::mul(half, S::add(one, t)), slope)
}

/// Vectorized ReLU with `maxps(x, 0)` semantics (NaN and `−0` map to `+0`).
#[inline(always)]
pub fn relu_v<S: SimdOp>(x: S::V) -> S::V {
    S::max(x, S::splat(0.0))
}

/// Vectorized natural logarithm — see the module docs for the numerical
/// contract.
#[inline(always)]
pub fn ln_v<S: SimdOp>(x: S::V) -> S::V {
    // Zeros, negatives and subnormals take the scaled path; only the
    // subnormals' result survives the blends below.
    let tiny = S::lt(x, S::splat(f32::MIN_POSITIVE));
    let (m, e) = S::frexp(S::select(tiny, S::mul(x, S::splat(TWO_POW_25)), x));
    let e = S::select(tiny, S::sub(e, S::splat(25.0)), e);
    let r = ln_of_parts::<S>(m, e);
    let r = S::select(S::gt(x, S::splat(f32::MAX)), S::splat(f32::INFINITY), r);
    let not_positive = S::select(
        S::lt(x, S::splat(0.0)),
        S::splat(f32::NAN),
        S::splat(f32::NEG_INFINITY),
    );
    let r = S::select(S::gt(x, S::splat(0.0)), r, not_positive);
    S::select(S::is_nan(x), x, r)
}

/// `ln(m · 2^e)` of a [`SimdOp::frexp`] split, `m` in `[1, 2)`: [`ln_v`]
/// of a positive normal finite `x`, whose specials' blends it skips — the
/// same bits wherever `x` is one (the keyed draws' radii are).
#[inline(always)]
pub(crate) fn ln_of_parts<S: SimdOp>(m: S::V, e: S::V) -> S::V {
    let one = S::splat(1.0);
    let high = S::gt(m, S::splat(SQRT2));
    let m = S::select(high, S::mul(m, S::splat(0.5)), m);
    let e = S::select(high, S::add(e, one), e);
    let f = S::sub(m, one);
    let z = S::mul(f, f);
    let mut y = S::splat(LOG_P0);
    y = S::mul_add(y, f, S::splat(LOG_P1));
    y = S::mul_add(y, f, S::splat(LOG_P2));
    y = S::mul_add(y, f, S::splat(LOG_P3));
    y = S::mul_add(y, f, S::splat(LOG_P4));
    y = S::mul_add(y, f, S::splat(LOG_P5));
    y = S::mul_add(y, f, S::splat(LOG_P6));
    y = S::mul_add(y, f, S::splat(LOG_P7));
    y = S::mul_add(y, f, S::splat(LOG_P8));
    y = S::mul(S::mul(y, f), z);
    y = S::mul_add(e, S::splat(LN2_LO), y);
    y = S::mul_add(z, S::splat(-0.5), y);
    S::mul_add(e, S::splat(LN2_HI), S::add(f, y))
}

/// Vectorized `(sin 2πt, cos 2πt)` of an angle `t` in turns — see the
/// module docs for the numerical contract.
#[inline(always)]
pub fn sincos_v<S: SimdOp>(turns: S::V) -> (S::V, S::V) {
    let one = S::splat(1.0);
    let minus_one = S::splat(-1.0);
    // An infinite angle is a NaN here rather than `∞ − ∞` below, whose
    // NaN the optimiser could fold to another payload than the hardware's.
    let infinite = S::gt(S::abs(turns), S::splat(f32::MAX));
    let t = S::select(infinite, S::splat(f32::NAN), turns);
    // Both reductions are exact: `a` keeps `t`'s fractional bits, and
    // `r` those of `a` below a quarter turn.
    let a = S::sub(t, S::round(t));
    let q = S::round(S::mul(a, S::splat(4.0)));
    let r = S::mul_add(q, S::splat(-0.25), a);
    let x = S::mul(r, S::splat(TAU));
    let z = S::mul(x, x);
    let mut ps = S::splat(SIN_P0);
    ps = S::mul_add(ps, z, S::splat(SIN_P1));
    ps = S::mul_add(ps, z, S::splat(SIN_P2));
    let s = S::mul_add(S::mul(ps, z), x, x);
    let mut pc = S::splat(COS_P0);
    pc = S::mul_add(pc, z, S::splat(COS_P1));
    pc = S::mul_add(pc, z, S::splat(COS_P2));
    let c = S::add(
        S::sub(S::mul(S::mul(pc, z), z), S::mul(S::splat(0.5), z)),
        one,
    );
    // Quarter turn q ∈ {−2, …, 2}: odd quarters swap the two, and
    // sin < 0 on q ∈ {−2, −1, 2}, cos < 0 on q ∈ {−2, 1, 2}.
    let odd = S::lt(S::abs(S::sub(S::abs(q), one)), S::splat(0.5));
    let (sin, cos) = (S::select(odd, c, s), S::select(odd, s, c));
    let sin_sign = S::select(
        S::lt(q, S::splat(-0.5)),
        minus_one,
        S::select(S::gt(q, S::splat(1.5)), minus_one, one),
    );
    let cos_sign = S::select(
        S::gt(q, S::splat(0.5)),
        minus_one,
        S::select(S::lt(q, S::splat(-1.5)), minus_one, one),
    );
    (S::mul(sin, sin_sign), S::mul(cos, cos_sign))
}

/// Natural logarithm of every element in place; the tail goes through a
/// block padded with `1.0` on the same vector path.
pub(crate) struct Ln<'a>(pub &'a mut [f32]);

impl Kernel for Ln<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let mut chunks = self.0.chunks_exact_mut(S::LANES);
        for chunk in &mut chunks {
            S::store(ln_v::<S>(S::load(chunk)), chunk);
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            store_partial::<S>(ln_v::<S>(S::load_padded(rem, 1.0)), rem);
        }
    }
}

/// `sin[i], cos[i] = sin 2π·turns[i], cos 2π·turns[i]` for as many
/// elements as all three slices hold; the tail goes through a padded block
/// on the same vector path.
pub(crate) struct SinCos<'a> {
    pub turns: &'a [f32],
    pub sin: &'a mut [f32],
    pub cos: &'a mut [f32],
}

impl Kernel for SinCos<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let SinCos { turns, sin, cos } = self;
        let n = turns.len().min(sin.len()).min(cos.len());
        let body = n - n % S::LANES;
        for i in (0..body).step_by(S::LANES) {
            let (s, c) = sincos_v::<S>(S::load(&turns[i..]));
            S::store(s, &mut sin[i..]);
            S::store(c, &mut cos[i..]);
        }
        if body < n {
            let (s, c) = sincos_v::<S>(S::load_padded(&turns[body..n], 0.0));
            store_partial::<S>(s, &mut sin[body..n]);
            store_partial::<S>(c, &mut cos[body..n]);
        }
    }
}

#[inline(always)]
fn act_block<S: SimdOp>(act: Act, v: S::V) -> S::V {
    match act {
        Act::Relu => relu_v::<S>(v),
        Act::Gelu => gelu_v::<S>(v),
        Act::Sigmoid => sigmoid_v::<S>(v),
        Act::Tanh => tanh_v::<S>(v),
        Act::Exp => exp_v::<S>(v),
    }
}

/// Applies one activation elementwise in place.
///
/// Remainder elements go through a zero-padded block of the same vector
/// code path, so tail results are bit-identical to body results at every
/// dispatch level.
pub(crate) struct Activation<'a> {
    pub act: Act,
    pub data: &'a mut [f32],
}

impl Kernel for Activation<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let act = self.act;
        let mut chunks = self.data.chunks_exact_mut(S::LANES);
        for chunk in &mut chunks {
            S::store(act_block::<S>(act, S::load(chunk)), chunk);
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            store_partial::<S>(act_block::<S>(act, S::load_padded(rem, 0.0)), rem);
        }
    }
}

/// `grad[i] · GELU′(x[i])` into `grad`, for as many elements as both
/// hold ([`gelu_grad_v`]); the tail goes through a zero-padded block on
/// the same vector path.
pub(crate) struct GeluBackward<'a> {
    pub x: &'a [f32],
    pub grad: &'a mut [f32],
}

impl Kernel for GeluBackward<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let n = self.x.len().min(self.grad.len());
        let (x, grad) = (&self.x[..n], &mut self.grad[..n]);
        let mut chunks = grad.chunks_exact_mut(S::LANES);
        for (g, x) in (&mut chunks).zip(x.chunks_exact(S::LANES)) {
            S::store(S::mul(S::load(g), gelu_grad_v::<S>(S::load(x))), g);
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let x = S::load_padded(&x[n - rem.len()..], 0.0);
            let g = S::load_padded(rem, 0.0);
            store_partial::<S>(S::mul(g, gelu_grad_v::<S>(x)), rem);
        }
    }
}

/// Squared Euclidean distance from one query to every row of a
/// feature-major store (`store[j · rows + r]`, `rows = out.len()`) into
/// `out`, with the lanes spread across stored rows.
///
/// Each lane runs the per-pair chain of its own row,
/// `((−0 + d₀²) + d₁²) + …` over `dⱼ = s − q` in feature order, with an
/// unfused subtract, multiply and add and `−0`, the value
/// `Iterator::sum` starts from, as the first accumulator: every distance
/// is `Σ (row[j] − query[j])²` summed in index order, bit for bit, at
/// every level. The one exception is a NaN's sign and payload: IEEE
/// leaves them open, x86 takes them from the first operand, and the
/// optimiser may commute the add (a release build of the chain gave `−NaN`
/// where the portable lanes gave `+NaN`), so a NaN distance is stored as
/// the canonical `f32::NAN` at every level and every build, after every
/// number in `total_cmp` order. Rows go in blocks of four bundles, four
/// independent chains per column load; the last rows one bundle at a
/// time, a partial one through a zero-padded load whose pad lanes are
/// never stored.
pub(crate) struct SquaredDistances<'a> {
    pub store: &'a [f32],
    pub query: &'a [f32],
    pub out: &'a mut [f32],
}

/// Bundles of rows [`SquaredDistances`] carries through one pass over the
/// columns.
const DISTANCE_BUNDLES: usize = 4;

impl Kernel for SquaredDistances<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let SquaredDistances { store, query, out } = self;
        let rows = out.len();
        let block = DISTANCE_BUNDLES * S::LANES;
        let full = rows - rows % block;
        for r0 in (0..full).step_by(block) {
            let mut acc = [S::splat(-0.0); DISTANCE_BUNDLES];
            for (j, &q) in query.iter().enumerate() {
                let column = &store[j * rows + r0..];
                let q = S::splat(q);
                for (b, acc) in acc.iter_mut().enumerate() {
                    let d = S::sub(S::load(&column[b * S::LANES..]), q);
                    *acc = S::add(*acc, S::mul(d, d));
                }
            }
            for (b, acc) in acc.into_iter().enumerate() {
                S::store(canonical_nan::<S>(acc), &mut out[r0 + b * S::LANES..]);
            }
        }
        for r0 in (full..rows).step_by(S::LANES) {
            let live = (rows - r0).min(S::LANES);
            let mut acc = S::splat(-0.0);
            for (j, &q) in query.iter().enumerate() {
                let lanes = &store[j * rows + r0..j * rows + r0 + live];
                let s = if live == S::LANES {
                    S::load(lanes)
                } else {
                    S::load_padded(lanes, 0.0)
                };
                let d = S::sub(s, S::splat(q));
                acc = S::add(acc, S::mul(d, d));
            }
            store_partial::<S>(canonical_nan::<S>(acc), &mut out[r0..r0 + live]);
        }
    }
}

/// `v` with every NaN lane replaced by `f32::NAN`.
#[inline(always)]
fn canonical_nan<S: SimdOp>(v: S::V) -> S::V {
    S::select(S::is_nan(v), S::splat(f32::NAN), v)
}

/// Stores the first `dst.len()` lanes of `v`.
///
/// Through a stack block and an exact-width copy on purpose: a masked
/// 32-byte vector store over a row's last bytes blocks the next row's
/// first load (measured: no gain over this form), whereas the padded
/// *loads* are what [`SimdOp::load_padded`] makes forwardable.
#[inline(always)]
fn store_partial<S: SimdOp>(v: S::V, dst: &mut [f32]) {
    debug_assert!(S::LANES <= MAX_LANES);
    let mut out = [0.0f32; MAX_LANES];
    S::store(v, &mut out);
    dst.copy_from_slice(&out[..dst.len()]);
}

/// Numerically stable row softmax over a row-major `[rows × cols]` buffer,
/// in place: three passes per row (lane-blocked max, shifted `exp` with a
/// lane-blocked sum, divide by the total).
///
/// Tail blocks are padded with `−∞`, which is the identity for both the
/// max pass and the exp-sum pass (`e^(−∞ − m) = 0`), so every lane —
/// real or pad — flows through the same reduction trees.
pub(crate) struct Softmax<'a> {
    pub data: &'a mut [f32],
    pub cols: usize,
}

impl Kernel for Softmax<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let Softmax { data, cols } = self;
        if cols == 0 || data.is_empty() {
            return;
        }
        debug_assert_eq!(data.len() % cols, 0);
        for row in data.chunks_exact_mut(cols) {
            softmax_row::<S>(row);
        }
    }
}

/// The eight-lane backend a reduction over `S` accumulates in.
type Tree<S> = <S as SimdOp>::Tree;

#[inline(always)]
fn softmax_row<S: SimdOp>(row: &mut [f32]) {
    let (body, rem) = row.split_at_mut(row.len() - row.len() % S::LANES);
    // Pass 1: row maximum through the fixed 8-lane tree.
    let mut macc = Tree::<S>::splat(f32::NEG_INFINITY);
    let mut max_in = |v| macc = Tree::<S>::max(macc, v);
    for chunk in body.chunks_exact(S::LANES) {
        S::fold(S::load(chunk), S::LANES, &mut max_in);
    }
    if !rem.is_empty() {
        S::fold(
            S::load_padded(rem, f32::NEG_INFINITY),
            rem.len(),
            &mut max_in,
        );
    }
    let mv = S::splat(Tree::<S>::hmax(macc));
    // Pass 2: shifted exponentials, accumulating the denominator. The
    // tail block stays in a register for pass 3 instead of being stored
    // and reloaded; its pad lanes hold exp(−∞ − m) = 0 and do not perturb
    // the sum.
    let mut sacc = Tree::<S>::splat(0.0);
    let mut sum_in = |v| sacc = Tree::<S>::add(sacc, v);
    for chunk in body.chunks_exact_mut(S::LANES) {
        let t = exp_v::<S>(S::sub(S::load(chunk), mv));
        S::store(t, chunk);
        S::fold(t, S::LANES, &mut sum_in);
    }
    let tail = if rem.is_empty() {
        None
    } else {
        let t = exp_v::<S>(S::sub(S::load_padded(rem, f32::NEG_INFINITY), mv));
        S::fold(t, rem.len(), &mut sum_in);
        Some(t)
    };
    // A NaN denominator is made the canonical NaN: the lane sums above
    // add NaNs of either sign (`∞ − ∞` is x86's negative default NaN),
    // `+` is commutative to the optimiser, and x86 keeps the *first*
    // operand's payload — so without this the sign of a poisoned row's
    // output would depend on the opt level. Every other operand order in
    // this kernel is fixed (`−`, `/`, selects), so one scalar select per
    // row keeps the levels bit-identical on every input, NaN included.
    let denom = Tree::<S>::hsum(sacc);
    let dv = S::splat(if denom.is_nan() { f32::NAN } else { denom });
    // Pass 3: divide.
    for chunk in body.chunks_exact_mut(S::LANES) {
        S::store(S::div(S::load(chunk), dv), chunk);
    }
    if let Some(t) = tail {
        store_partial::<S>(S::div(t, dv), rem);
    }
}

/// Scaled dot-product attention of every `(sample, head)` block of
/// stacked Q, K and V ([`crate::attention`]), each head's rows written
/// straight into that head's columns of `out`, with the lanes spread
/// across query rows.
///
/// A block runs one bundle of query rows at a time: the bundle's Q
/// columns are laid lane-wise into the scratch (pad lanes `0`), and each
/// lane then evaluates, for its own query row, exactly the chain of the
/// per-block steps it replaces — the score GEMM's
/// `((0 + q₀·k₀) + q₁·k₁) + …` over the head's columns (product first,
/// as the band kernel's unfused `mul_add`), `· scale`, [`softmax_row`]'s
/// sequence over the keys, and the `· V` GEMM's chain in key order. The
/// softmax keeps eight slot accumulators per lane, key `j` feeding slot
/// `j mod 8` in key order: the eight-lane granules [`SimdOp::fold`] feeds
/// softmax's tree at every width, a partial last granule's pad slots
/// folded with `−∞` for the max and `exp(−∞ − max)` for the sum, then the
/// same fixed max and sum trees, the same canonical-NaN denominator and
/// `t / denominator`. Every operation is the same two-operand IEEE step
/// with the same operand order, so each output equals the per-block
/// steps' bit for bit at every level, with no horizontal reduction and no
/// packing but the bundle's Q columns. The one exception is a NaN's sign
/// and payload: the steps' own depend on the build (a release build of
/// them gave `+NaN` where the kernel's lanes gave `−NaN`, the optimiser
/// commuting an add that meets two NaNs), so a NaN output is stored as the
/// canonical `f32::NAN` at every level and every build.
///
/// With `saved`, each block's probabilities are also written out for
/// [`AttentionBackward`], transposed (`P[i][j]` at `j · seq + i`, one
/// `seq × seq` block per `(sample, head)` in that order), so each key's
/// live lanes are one contiguous copy.
pub(crate) struct Attention<'a> {
    pub q: &'a [f32],
    pub k: &'a [f32],
    pub v: &'a [f32],
    pub shape: AttentionShape,
    pub out: &'a mut [f32],
    pub saved: Option<&'a mut [f32]>,
    pub scratch: &'a mut [f32],
}

impl Kernel for Attention<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let Attention {
            q,
            k,
            v,
            shape,
            out,
            saved,
            scratch,
        } = self;
        let AttentionShape {
            seq,
            heads,
            head_dim,
        } = shape;
        let scale = shape.scale();
        let d = heads * head_dim;
        if seq == 0 || d == 0 {
            return;
        }
        let mut saved = saved.map(|p| p.chunks_exact_mut(seq * seq));
        let (q_cols, probs) = scratch.split_at_mut(head_dim * S::LANES);
        let probs = &mut probs[..seq * S::LANES];
        let block = seq * d;
        let samples = q
            .chunks_exact(block)
            .zip(k.chunks_exact(block))
            .zip(v.chunks_exact(block))
            .zip(out.chunks_exact_mut(block));
        for (((qs, ks), vs), outs) in samples {
            for col in (0..d).step_by(head_dim) {
                let mut saved_block = saved.as_mut().and_then(Iterator::next);
                for r0 in (0..seq).step_by(S::LANES) {
                    let live = S::LANES.min(seq - r0);
                    lay_lanes::<S>(&qs[r0 * d..], d, col, live, q_cols);
                    let mut j0 = 0;
                    while j0 < seq {
                        j0 += match seq - j0 {
                            8.. => attention_scores::<S, 8>(q_cols, ks, d, col, j0, scale, probs),
                            4..=7 => attention_scores::<S, 4>(q_cols, ks, d, col, j0, scale, probs),
                            _ => attention_scores::<S, 1>(q_cols, ks, d, col, j0, scale, probs),
                        };
                    }
                    softmax_lanes::<S>(probs);
                    if let Some(block) = saved_block.as_deref_mut() {
                        let keys = block
                            .chunks_exact_mut(seq)
                            .zip(probs.chunks_exact(S::LANES));
                        for (key, lanes) in keys {
                            match live == S::LANES {
                                true => S::store(S::load(lanes), &mut key[r0..]),
                                false => key[r0..r0 + live].copy_from_slice(&lanes[..live]),
                            }
                        }
                    }
                    let rows = &mut outs[r0 * d..(r0 + live) * d];
                    let mut c0 = col;
                    while c0 < col + head_dim {
                        c0 += match col + head_dim - c0 {
                            8.. => attention_values::<S, 8>(probs, vs, d, c0, rows),
                            4..=7 => attention_values::<S, 4>(probs, vs, d, c0, rows),
                            _ => attention_values::<S, 1>(probs, vs, d, c0, rows),
                        };
                    }
                }
            }
        }
    }
}

/// Lays the head's columns `col..` of the `live` rows at the front of
/// `rows` (`d` values apart) lane-wise into `cols` (column `p`'s bundle
/// at `p · LANES`, row `l` in lane `l`, pad lanes `0`).
#[inline(always)]
fn lay_lanes<S: SimdOp>(rows: &[f32], d: usize, col: usize, live: usize, cols: &mut [f32]) {
    let head_dim = cols.len() / S::LANES;
    for (l, row) in rows.chunks_exact(d).take(live).enumerate() {
        for (p, &x) in row[col..col + head_dim].iter().enumerate() {
            cols[p * S::LANES + l] = x;
        }
    }
    if live < S::LANES {
        for lanes in cols.chunks_exact_mut(S::LANES) {
            lanes[live..].fill(0.0);
        }
    }
}

/// Keys `j0..j0 + J` of one bundle's scaled scores into `probs` (key `j`'s
/// bundle at `j · LANES`): `J` independent chains, each Q column loaded
/// once for all of them. Returns `J`.
#[inline(always)]
fn attention_scores<S: SimdOp, const J: usize>(
    q_cols: &[f32],
    keys: &[f32],
    d: usize,
    col: usize,
    j0: usize,
    scale: f32,
    probs: &mut [f32],
) -> usize {
    let head_dim = q_cols.len() / S::LANES;
    let rows: [&[f32]; J] = std::array::from_fn(|jj| &keys[(j0 + jj) * d + col..][..head_dim]);
    let mut acc = [S::splat(0.0); J];
    for (p, q) in q_cols.chunks_exact(S::LANES).enumerate() {
        let q = S::load(q);
        for (acc, row) in acc.iter_mut().zip(&rows) {
            *acc = S::mul_add(q, S::splat(row[p]), *acc);
        }
    }
    let scale = S::splat(scale);
    for (jj, acc) in acc.into_iter().enumerate() {
        S::store(S::mul(acc, scale), &mut probs[(j0 + jj) * S::LANES..]);
    }
    J
}

/// [`softmax_row`] down every lane of a key-major bundle block, in
/// place: key `j`'s bundle at `j · LANES`.
#[inline(always)]
fn softmax_lanes<S: SimdOp>(probs: &mut [f32]) {
    let keys = probs.len() / S::LANES;
    // Slots of the last granule past the last key hold softmax's pads.
    let first_pad = match keys % 8 {
        0 => 8,
        live => live,
    };
    let neg_inf = S::splat(f32::NEG_INFINITY);
    let mut slots = [neg_inf; 8];
    for granule in probs.chunks(8 * S::LANES) {
        for (slot, key) in slots.iter_mut().zip(granule.chunks_exact(S::LANES)) {
            *slot = S::max(*slot, S::load(key));
        }
    }
    for slot in &mut slots[first_pad..] {
        *slot = S::max(*slot, neg_inf);
    }
    let max = slot_tree::<S>(slots, S::max);
    let mut slots = [S::splat(0.0); 8];
    for granule in probs.chunks_mut(8 * S::LANES) {
        for (slot, key) in slots.iter_mut().zip(granule.chunks_exact_mut(S::LANES)) {
            let t = exp_v::<S>(S::sub(S::load(key), max));
            S::store(t, key);
            *slot = S::add(*slot, t);
        }
    }
    let pad = exp_v::<S>(S::sub(neg_inf, max));
    for slot in &mut slots[first_pad..] {
        *slot = S::add(*slot, pad);
    }
    let denom = canonical_nan::<S>(slot_tree::<S>(slots, S::add));
    for key in probs.chunks_exact_mut(S::LANES) {
        S::store(S::div(S::load(key), denom), key);
    }
}

/// The eight slots reduced down the tree of [`Reduce::hsum`] and
/// [`Reduce::hmax`], `(s0∘s4, s1∘s5, s2∘s6, s3∘s7) → (t0∘t2, t1∘t3) →
/// u0∘u1`, lane by lane.
#[inline(always)]
fn slot_tree<S: SimdOp>(mut slots: [S::V; 8], op: impl Fn(S::V, S::V) -> S::V) -> S::V {
    for half in [4, 2, 1] {
        for i in 0..half {
            slots[i] = op(slots[i], slots[i + half]);
        }
    }
    slots[0]
}

/// Output columns `c0..c0 + C` of one bundle's query rows: the
/// probabilities times V's rows, `C` independent chains in key order,
/// each lane's value written to its row of `rows` (the bundle's live
/// rows of the sample's output). Returns `C`.
#[inline(always)]
fn attention_values<S: SimdOp, const C: usize>(
    probs: &[f32],
    values: &[f32],
    d: usize,
    c0: usize,
    rows: &mut [f32],
) -> usize {
    let mut acc = [S::splat(0.0); C];
    for (p, row) in probs.chunks_exact(S::LANES).zip(values.chunks_exact(d)) {
        let p = S::load(p);
        for (acc, &v) in acc.iter_mut().zip(&row[c0..c0 + C]) {
            *acc = S::mul_add(p, S::splat(v), *acc);
        }
    }
    let mut lanes = [0.0f32; MAX_LANES];
    for (c, acc) in acc.into_iter().enumerate() {
        S::store(canonical_nan::<S>(acc), &mut lanes);
        for (row, &x) in rows.chunks_exact_mut(d).zip(&lanes) {
            row[c0 + c] = x;
        }
    }
    C
}

/// Keys `j0..j0 + J` of one bundle's probability gradient `dP = dO · Vᵀ`
/// into `bundle` (key `j`'s at `j · LANES`), with the bundle's dO columns
/// laid lane-wise in `g_cols`: [`attention_scores`]' chains without the
/// scale. Returns `J`.
///
/// This and [`query_gradients`] repeat [`attention_scores`] and
/// [`attention_values`] rather than call them: with the backward calling
/// the forward's two helpers, the forward kernel ran about a tenth
/// slower (2.58 against 2.31 ms at paper@16, minima of twelve alternating
/// runs, 2-vCPU AVX-512F host), as calling the band kernel's tile from
/// here made every GEMM about a fifth slower ([`weighted_rows`]).
#[inline(always)]
fn probability_gradients<S: SimdOp, const J: usize>(
    g_cols: &[f32],
    values: &[f32],
    (d, col): (usize, usize),
    j0: usize,
    bundle: &mut [f32],
) -> usize {
    let head_dim = g_cols.len() / S::LANES;
    let rows: [&[f32]; J] = std::array::from_fn(|jj| &values[(j0 + jj) * d + col..][..head_dim]);
    let mut acc = [S::splat(0.0); J];
    for (p, g) in g_cols.chunks_exact(S::LANES).enumerate() {
        let g = S::load(g);
        for (acc, row) in acc.iter_mut().zip(&rows) {
            *acc = S::mul_add(g, S::splat(row[p]), *acc);
        }
    }
    for (jj, acc) in acc.into_iter().enumerate() {
        S::store(acc, &mut bundle[(j0 + jj) * S::LANES..]);
    }
    J
}

/// Columns `c0..c0 + C` of one bundle's query gradient `dQ = dB · K`:
/// the bundle's score gradients times K's rows, `C` independent chains in
/// key order, each lane's value written to its row of `rows`, a NaN as
/// `f32::NAN` ([`attention_values`]' body). Returns `C`.
#[inline(always)]
fn query_gradients<S: SimdOp, const C: usize>(
    d_scores: &[f32],
    keys: &[f32],
    d: usize,
    c0: usize,
    rows: &mut [f32],
) -> usize {
    let mut acc = [S::splat(0.0); C];
    for (b, row) in d_scores.chunks_exact(S::LANES).zip(keys.chunks_exact(d)) {
        let b = S::load(b);
        for (acc, &k) in acc.iter_mut().zip(&row[c0..c0 + C]) {
            *acc = S::mul_add(b, S::splat(k), *acc);
        }
    }
    let mut lanes = [0.0f32; MAX_LANES];
    for (c, acc) in acc.into_iter().enumerate() {
        S::store(canonical_nan::<S>(acc), &mut lanes);
        for (row, &x) in rows.chunks_exact_mut(d).zip(&lanes) {
            row[c0 + c] = x;
        }
    }
    C
}

/// The vector-Jacobian product of [`Attention`] ([`crate::attention_backward`]):
/// from the output's gradient `dO`, the saved transposed probabilities
/// `Pᵀ` and the stacked Q, K and V, the gradients dQ, dK and dV of every
/// `(sample, head)` block, each head's rows written into that head's
/// columns.
///
/// Each element repeats the operations of the tape's per-block chain —
/// the backward of the score GEMM, the scale, `softmax_rows` and the
/// `· V` GEMM — in their operand order, so it equals that chain's bit for
/// bit at every level:
/// - with the lanes across query rows, as the forward's: one bundle's dO
///   columns laid lane-wise, `dP = dO · Vᵀ` key by key (the GEMM's
///   `0 + g₀·v₀ + g₁·v₁ + …` over the head's columns), the softmax's
///   backward `S ⊙ (G − Σ(G ⊙ S))` with each row's sum started from `−0`
///   and added in key order as `Iterator::sum` does, `· scale`, which
///   gives the score gradient `dB`, then `dQ = dB · K`, the GEMM's chain
///   in key order ([`probability_gradients`], [`softmax_backward_lanes`],
///   [`query_gradients`]); `dB` is also kept, transposed, for the block's
///   second pass;
/// - with the lanes across the head's columns: `dK = dBᵀ · Q` and
///   `dV = Pᵀ · dO`, each output row the GEMM's chain in query order,
///   one broadcast weight per query ([`weighted_rows`]).
///
/// A NaN gradient is stored as the canonical `f32::NAN`, as the forward's
/// outputs are: the chain's own NaN signs depend on the build.
pub(crate) struct AttentionBackward<'a> {
    pub qkv: [&'a [f32]; 3],
    pub saved: &'a [f32],
    pub d_out: &'a [f32],
    pub shape: AttentionShape,
    pub grads: [&'a mut [f32]; 3],
    pub scratch: &'a mut [f32],
}

impl Kernel for AttentionBackward<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let AttentionBackward {
            qkv: [q, k, v],
            saved,
            d_out,
            shape,
            grads: [dq, dk, dv],
            scratch,
        } = self;
        let AttentionShape {
            seq,
            heads,
            head_dim,
        } = shape;
        let scale = shape.scale();
        let d = heads * head_dim;
        if seq == 0 || d == 0 {
            return;
        }
        let (g_cols, rest) = scratch.split_at_mut(head_dim * S::LANES);
        let (bundle, rest) = rest.split_at_mut(seq * S::LANES);
        let d_scores = &mut rest[..seq * seq];
        let block = seq * d;
        let samples = q
            .chunks_exact(block)
            .zip(k.chunks_exact(block))
            .zip(v.chunks_exact(block))
            .zip(d_out.chunks_exact(block))
            .zip(saved.chunks_exact(heads * seq * seq))
            .zip(dq.chunks_exact_mut(block))
            .zip(dk.chunks_exact_mut(block))
            .zip(dv.chunks_exact_mut(block));
        for (((((((qs, ks), vs), gs), probs), dqs), dks), dvs) in samples {
            for (col, p_t) in (0..d).step_by(head_dim).zip(probs.chunks_exact(seq * seq)) {
                for r0 in (0..seq).step_by(S::LANES) {
                    let live = S::LANES.min(seq - r0);
                    lay_lanes::<S>(&gs[r0 * d..], d, col, live, g_cols);
                    let mut j0 = 0;
                    while j0 < seq {
                        let head = (d, col);
                        j0 += match seq - j0 {
                            8.. => probability_gradients::<S, 8>(g_cols, vs, head, j0, bundle),
                            4..=7 => probability_gradients::<S, 4>(g_cols, vs, head, j0, bundle),
                            _ => probability_gradients::<S, 1>(g_cols, vs, head, j0, bundle),
                        };
                    }
                    softmax_backward_lanes::<S>(bundle, p_t, (r0, live), scale, d_scores);
                    let rows = &mut dqs[r0 * d..(r0 + live) * d];
                    let mut c0 = col;
                    while c0 < col + head_dim {
                        c0 += match col + head_dim - c0 {
                            8.. => query_gradients::<S, 8>(bundle, ks, d, c0, rows),
                            4..=7 => query_gradients::<S, 4>(bundle, ks, d, c0, rows),
                            _ => query_gradients::<S, 1>(bundle, ks, d, c0, rows),
                        };
                    }
                }
                let head = (d, col, head_dim);
                for (weights, x, out) in [(&*d_scores, qs, &mut *dks), (p_t, gs, &mut *dvs)] {
                    let mut r0 = 0;
                    while r0 < seq {
                        r0 += match seq - r0 {
                            8.. => weighted_rows::<S, 8>(weights, x, head, r0, out),
                            4..=7 => weighted_rows::<S, 4>(weights, x, head, r0, out),
                            _ => weighted_rows::<S, 1>(weights, x, head, r0, out),
                        };
                    }
                }
            }
        }
    }
}

/// The softmax's and the scale's backward down every lane of one
/// bundle's `dP` (key `j`'s bundle at `j · LANES`), in place, with `Pᵀ`
/// the block's saved probabilities and the bundle's query rows
/// `r0..r0 + live`: each lane takes `dot = ((−0 + dP₀·P₀) + dP₁·P₁) + …`
/// in key order, then each key's `(Pⱼ · (dPⱼ − dot)) · scale`, which is
/// also written into the bundle's rows of the block's transposed
/// `d_scores` (key `j`'s row at `j · seq`).
#[inline(always)]
fn softmax_backward_lanes<S: SimdOp>(
    bundle: &mut [f32],
    p_t: &[f32],
    (r0, live): (usize, usize),
    scale: f32,
    d_scores: &mut [f32],
) {
    let seq = bundle.len() / S::LANES;
    let probs = |j: usize| {
        let key = &p_t[j * seq + r0..][..live];
        match live == S::LANES {
            true => S::load(key),
            false => S::load_padded(key, 0.0),
        }
    };
    let mut dot = S::splat(-0.0);
    for (j, g) in bundle.chunks_exact(S::LANES).enumerate() {
        dot = S::add(dot, S::mul(S::load(g), probs(j)));
    }
    let scale = S::splat(scale);
    let keys = bundle
        .chunks_exact_mut(S::LANES)
        .zip(d_scores.chunks_exact_mut(seq));
    for (j, (g, key)) in keys.enumerate() {
        let d_score = S::mul(S::mul(probs(j), S::sub(S::load(g), dot)), scale);
        S::store(d_score, g);
        match live == S::LANES {
            true => S::store(d_score, &mut key[r0..]),
            false => store_partial::<S>(d_score, &mut key[r0..r0 + live]),
        }
    }
}

/// Rows `r0..r0 + R` of one head's gradient, with the lanes across the
/// head's columns: row `r`'s column `c` is `Σᵢ weights[r · seq + i] ·
/// x[i][col + c]` over the sample's `seq` rows of `x`, the GEMM's chain
/// `0 + w₀·x₀ + w₁·x₁ + …` in `i` order, written into columns `col..` of
/// row `r` of `out` (rows `d` values apart), a NaN as `f32::NAN`.
/// Returns `R`.
///
/// Not the band kernel's tile ([`crate::gemm`]), though the chain is the
/// same: inlining the tile into this kernel's entry points too made every
/// other GEMM about a fifth slower (`[1600 × 1200] · [1200 × 80]` 5.0 →
/// 6.1 ms, 2-vCPU AVX-512F host), and it needs B packed and its output
/// copied into the head's columns.
#[inline(always)]
fn weighted_rows<S: SimdOp, const R: usize>(
    weights: &[f32],
    x: &[f32],
    (d, col, head_dim): (usize, usize, usize),
    r0: usize,
    out: &mut [f32],
) -> usize {
    let seq = x.len() / d;
    let rows: [&[f32]; R] = std::array::from_fn(|rr| &weights[(r0 + rr) * seq..][..seq]);
    for c0 in (col..col + head_dim).step_by(S::LANES) {
        let live = S::LANES.min(col + head_dim - c0);
        let mut acc = [S::splat(0.0); R];
        for (i, x) in x.chunks_exact(d).enumerate() {
            let x = match live == S::LANES {
                true => S::load(&x[c0..]),
                false => S::load_padded(&x[c0..c0 + live], 0.0),
            };
            for (acc, row) in acc.iter_mut().zip(&rows) {
                *acc = S::mul_add(S::splat(row[i]), x, *acc);
            }
        }
        for (rr, acc) in acc.into_iter().enumerate() {
            let dst = &mut out[(r0 + rr) * d + c0..][..live];
            match live == S::LANES {
                true => S::store(canonical_nan::<S>(acc), dst),
                false => store_partial::<S>(canonical_nan::<S>(acc), dst),
            }
        }
    }
    R
}

/// Per-row layer normalization over a row-major `[rows × cols]` buffer,
/// in place: `y = (x − mean) · istd · γ[j] + β[j]` with
/// `istd = 1/√(var + eps)`.
///
/// Mean and (population) variance come from a single sweep accumulating
/// `Σx` and `Σx²` in lane-blocked accumulators; the tiny negative
/// variance a catastrophic cancellation could produce is clamped to `0`.
/// When `stats` is given, per-row `(mean, istd)` are recorded for a
/// training backward pass.
pub(crate) struct LayerNorm<'a> {
    pub data: &'a mut [f32],
    pub cols: usize,
    pub gamma: &'a [f32],
    pub beta: &'a [f32],
    pub eps: f32,
    pub stats: Option<(&'a mut [f32], &'a mut [f32])>,
}

impl Kernel for LayerNorm<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let LayerNorm {
            data,
            cols,
            gamma,
            beta,
            eps,
            mut stats,
        } = self;
        if cols == 0 || data.is_empty() {
            return;
        }
        debug_assert_eq!(data.len() % cols, 0);
        debug_assert_eq!(gamma.len(), cols);
        debug_assert_eq!(beta.len(), cols);
        for (i, row) in data.chunks_exact_mut(cols).enumerate() {
            let (mean, istd) = layer_norm_row::<S>(row, gamma, beta, eps);
            if let Some((means, istds)) = stats.as_mut() {
                means[i] = mean;
                istds[i] = istd;
            }
        }
    }
}

#[inline(always)]
fn layer_norm_row<S: SimdOp>(row: &mut [f32], gamma: &[f32], beta: &[f32], eps: f32) -> (f32, f32) {
    let n = row.len() as f32;
    let mut sacc = Tree::<S>::splat(0.0);
    let mut qacc = Tree::<S>::splat(0.0);
    let mut sums_in = |v| {
        sacc = Tree::<S>::add(sacc, v);
        qacc = Tree::<S>::mul_add(v, v, qacc);
    };
    let mut chunks = row.chunks_exact(S::LANES);
    for chunk in &mut chunks {
        S::fold(S::load(chunk), S::LANES, &mut sums_in);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        S::fold(S::load_padded(rem, 0.0), rem.len(), &mut sums_in);
    }
    let mean = Tree::<S>::hsum(sacc) / n;
    let var = lane::max(Tree::<S>::hsum(qacc) / n - mean * mean, 0.0);
    let istd = 1.0 / (var + eps).sqrt();
    let mv = S::splat(mean);
    let sv = S::splat(istd);
    let mut idx = 0usize;
    let mut chunks = row.chunks_exact_mut(S::LANES);
    for chunk in &mut chunks {
        let g = S::load(&gamma[idx..]);
        let b = S::load(&beta[idx..]);
        let xh = S::mul(S::sub(S::load(chunk), mv), sv);
        S::store(S::mul_add(xh, g, b), chunk);
        idx += S::LANES;
    }
    let rem = chunks.into_remainder();
    if !rem.is_empty() {
        let r = rem.len();
        let g = S::load_padded(&gamma[idx..idx + r], 0.0);
        let b = S::load_padded(&beta[idx..idx + r], 0.0);
        let xh = S::mul(S::sub(S::load_padded(rem, 0.0), mv), sv);
        store_partial::<S>(S::mul_add(xh, g, b), rem);
    }
    (mean, istd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Lanes;
    use crate::scalar;

    fn ln1(x: f32) -> f32 {
        ln_v::<Lanes<1>>([x])[0]
    }

    fn sincos1(t: f32) -> (f32, f32) {
        let (s, c) = sincos_v::<Lanes<1>>([t]);
        (s[0], c[0])
    }

    fn ulp_diff(a: f32, b: f32) -> u32 {
        if a == b || (a.is_nan() && b.is_nan()) {
            return 0;
        }
        let ia = a.to_bits() as i64;
        let ib = b.to_bits() as i64;
        // Map to a monotone integer line so the distance crosses zero.
        let ma = if ia < 0 { i64::MIN ^ ia } else { ia };
        let mb = if ib < 0 { i64::MIN ^ ib } else { ib };
        (ma - mb).unsigned_abs().min(u32::MAX as u64) as u32
    }

    #[test]
    fn exp_tracks_libm_within_two_ulp() {
        let mut x = -87.0f32;
        while x < 88.0 {
            let got = scalar::exp(x);
            assert!(
                ulp_diff(got, x.exp()) <= 2,
                "exp({x}) = {got}, libm = {}",
                x.exp()
            );
            x += 0.377;
        }
        // Spot-check the exact anchor points.
        assert_eq!(scalar::exp(0.0), 1.0);
        assert_eq!(scalar::exp(f32::NEG_INFINITY), 0.0);
        assert_eq!(scalar::exp(f32::INFINITY), f32::INFINITY);
        assert!(scalar::exp(f32::NAN).is_nan());
        assert_eq!(scalar::exp(-1000.0), 0.0);
        assert_eq!(scalar::exp(1000.0), f32::INFINITY);
    }

    #[test]
    fn tanh_and_sigmoid_saturate_exactly() {
        assert_eq!(scalar::tanh(50.0), 1.0);
        assert_eq!(scalar::tanh(-50.0), -1.0);
        assert_eq!(scalar::tanh(0.0), 0.0);
        assert_eq!(scalar::tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert!(scalar::tanh(f32::NAN).is_nan());
        assert_eq!(scalar::sigmoid(f32::INFINITY), 1.0);
        assert_eq!(scalar::sigmoid(f32::NEG_INFINITY), 0.0);
        assert_eq!(scalar::sigmoid(0.0), 0.5);
        let mut x = -9.0f32;
        while x < 9.0 {
            // tanh's accuracy contract is absolute (~a few ULP of 1):
            // the 1 − 2/(e^(2|x|)+1) form cancels against 1 near zero,
            // so relative error grows as |x| → 0 while absolute error
            // stays at the ≈1e-7 level — plenty for activations.
            let t = scalar::tanh(x);
            if x.abs() >= 0.5 {
                assert!(ulp_diff(t, x.tanh()) <= 8, "tanh({x}) = {t}");
            } else {
                assert!((t - x.tanh()).abs() <= 2.5e-7, "tanh({x}) = {t}");
            }
            assert!(
                ulp_diff(scalar::sigmoid(x), 1.0 / (1.0 + (-x).exp())) <= 8,
                "sigmoid({x})"
            );
            x += 0.173;
        }
    }

    #[test]
    fn gelu_grad_uses_the_forwards_tanh_and_stays_finite() {
        // Away from saturation: the closed form with the same tanh bits.
        for x in [-4.0f32, -1.3, -0.2, 0.05, 0.9, 3.7] {
            let u = SQRT_2_OVER_PI * (x + GELU_COEFF * x * x * x);
            let t = scalar::tanh(u);
            let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEFF * x * x);
            let want = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du;
            assert_eq!(scalar::gelu_grad(x).to_bits(), want.to_bits(), "GELU'({x})");
            // And the derivative of the forward, numerically.
            let h = 1e-3;
            let slope = (scalar::gelu(x + h) - scalar::gelu(x - h)) / (2.0 * h);
            assert!((scalar::gelu_grad(x) - slope).abs() < 1e-2, "GELU'({x})");
        }
        assert_eq!(scalar::gelu_grad(0.0), 0.5);
        assert_eq!(scalar::gelu_grad(-0.0), 0.5);
        // Saturated: `x²` overflows from about 1.8e19, and `0 · ∞` must not
        // leak out as NaN.
        for x in [12.0, 6e19, 1e20, 1e30, f32::MAX, f32::INFINITY] {
            assert_eq!(scalar::gelu_grad(x), 1.0, "GELU'({x})");
            assert_eq!(scalar::gelu_grad(-x), 0.0, "GELU'({})", -x);
        }
        assert!(scalar::gelu_grad(f32::NAN).is_nan());
        // The sweep is the per-element function at every lane and tail.
        let x: Vec<f32> = (0..37)
            .map(|i| i as f32 * 0.7 - 13.0)
            .chain([1e20, -1e20])
            .collect();
        let mut grad: Vec<f32> = (0..x.len()).map(|i| 1.0 + i as f32 * 0.01).collect();
        let want: Vec<u32> = x
            .iter()
            .zip(&grad)
            .map(|(&x, &g)| (g * scalar::gelu_grad(x)).to_bits())
            .collect();
        GeluBackward {
            x: &x,
            grad: &mut grad,
        }
        .run::<Lanes<8>>();
        assert_eq!(grad.iter().map(|g| g.to_bits()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn scalar1_and_scalar8_agree_bit_for_bit_per_element() {
        // The per-element path (Lanes<1>) and the lane path (Lanes<8>) run
        // the same generic code over the same IEEE two-operand ops, so
        // they must agree exactly — this is the anchor of the
        // eager-vs-kernel parity story.
        let inputs = [
            -80.0f32,
            -1.5,
            -1.0e-40, // subnormal
            -0.0,
            0.0,
            1.0e-40,
            0.7,
            3.3,
            42.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for &x in &inputs {
            for act in [Act::Relu, Act::Gelu, Act::Sigmoid, Act::Tanh, Act::Exp] {
                let mut a = [x];
                Activation { act, data: &mut a }.run::<Lanes<1>>();
                let mut b = [x; 8];
                Activation { act, data: &mut b }.run::<Lanes<8>>();
                assert_eq!(
                    a[0].to_bits(),
                    b[3].to_bits(),
                    "{act:?}({x}) diverged between Lanes<1> and Lanes<8>"
                );
            }
        }
    }

    #[test]
    fn ln_tracks_libm_over_the_unit_interval_and_beyond() {
        // Every 2^-24 step of (0, 1] the keyed draws produce, sampled, plus
        // a walk over twenty decades either side and the subnormals.
        let unit = (1..=1u32 << 24)
            .step_by(997)
            .map(|k| k as f32 / 16_777_216.0);
        let decades = (-40..40).map(|d| 1.37f32 * 10f32.powi(d) / 3.0);
        let mut worst = 0;
        for x in unit.chain(decades).chain([1.0, 1e-40, 1e-45, f32::MAX]) {
            let got = ln1(x);
            let want = (x as f64).ln() as f32;
            worst = worst.max(ulp_diff(got, want));
            assert!(ulp_diff(got, want) <= 2, "ln({x:e}) = {got}, libm = {want}");
        }
        assert!(worst >= 1, "the comparison must be able to fail");
        assert_eq!(ln1(1.0), 0.0);
        assert_eq!(ln1(0.0), f32::NEG_INFINITY);
        assert_eq!(ln1(-0.0), f32::NEG_INFINITY);
        assert_eq!(ln1(f32::INFINITY), f32::INFINITY);
        assert!(ln1(-1.0).is_nan());
        assert!(ln1(f32::NEG_INFINITY).is_nan());
        let payload = f32::from_bits(0x7fc0_1234);
        assert_eq!(ln1(payload).to_bits(), payload.to_bits());
    }

    #[test]
    fn sincos_tracks_libm_over_a_turn_and_its_multiples() {
        let turn = (0..1u32 << 24)
            .step_by(1009)
            .map(|k| k as f32 / 16_777_216.0);
        let wide = (0..2000).map(|i| i as f32 * 0.731 - 700.0);
        for t in turn.chain(wide).chain([0.25, 0.5, 0.75, -0.125, 1e-30]) {
            let (s, c) = sincos1(t);
            let radians = std::f64::consts::TAU * (t as f64 - (t as f64).round());
            let (want_s, want_c) = (radians.sin(), radians.cos());
            // Absolute error within about one f32 epsilon (the worst over all
            // 2^24 turns of the unit grid is 9.1e-8).
            assert!(
                ((s as f64) - want_s).abs() <= 1.2e-7,
                "sin 2π·{t} = {s}, libm {want_s}"
            );
            assert!(
                ((c as f64) - want_c).abs() <= 1.2e-7,
                "cos 2π·{t} = {c}, libm {want_c}"
            );
        }
        assert_eq!(sincos1(0.0), (0.0, 1.0));
        assert_eq!(sincos1(0.25), (1.0, 0.0));
        for t in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let (s, c) = sincos1(t);
            assert!(s.is_nan() && c.is_nan(), "sincos({t})");
        }
    }

    #[test]
    fn ln_and_sincos_agree_across_one_and_eight_lanes() {
        let inputs = [
            1.0 / 16_777_216.0,
            0.3,
            0.999_999_9,
            1.0,
            1.5,
            1.0e-40,
            0.0,
            -0.0,
            -2.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for &x in &inputs {
            let lanes = [x; 8];
            let mut swept = lanes;
            Ln(&mut swept).run::<Lanes<8>>();
            assert_eq!(swept[5].to_bits(), ln1(x).to_bits(), "ln({x})");
            let (mut sin, mut cos) = ([0.0; 8], [0.0; 8]);
            SinCos {
                turns: &lanes,
                sin: &mut sin,
                cos: &mut cos,
            }
            .run::<Lanes<8>>();
            let (s, c) = sincos1(x);
            assert_eq!(sin[2].to_bits(), s.to_bits(), "sin({x})");
            assert_eq!(cos[2].to_bits(), c.to_bits(), "cos({x})");
        }
    }

    #[test]
    fn softmax_rows_is_stable_and_normalized() {
        let mut m = vec![1000.0, 1001.0, 1002.0, -3.0, 0.0, 3.0];
        Softmax {
            data: &mut m,
            cols: 3,
        }
        .run::<Lanes<8>>();
        for row in m.chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row sums to {sum}");
            assert!(row.iter().all(|v| v.is_finite() && *v >= 0.0));
        }
        assert!(m[0] < m[1] && m[1] < m[2]);
    }

    #[test]
    fn softmax_handles_degenerate_shapes() {
        let mut empty: Vec<f32> = vec![];
        Softmax {
            data: &mut empty,
            cols: 0,
        }
        .run::<Lanes<8>>();
        let mut one = vec![5.0];
        Softmax {
            data: &mut one,
            cols: 1,
        }
        .run::<Lanes<8>>();
        assert_eq!(one, vec![1.0]);
    }

    #[test]
    fn layer_norm_matches_direct_computation() {
        let cols = 11; // exercises the padded tail
        let rows = 3;
        let mut data: Vec<f32> = (0..rows * cols).map(|i| (i as f32) * 0.37 - 5.0).collect();
        let gamma: Vec<f32> = (0..cols).map(|j| 1.0 + j as f32 * 0.01).collect();
        let beta: Vec<f32> = (0..cols).map(|j| j as f32 * -0.02).collect();
        let reference = data.clone();
        let mut means = vec![0.0; rows];
        let mut istds = vec![0.0; rows];
        LayerNorm {
            data: &mut data,
            cols,
            gamma: &gamma,
            beta: &beta,
            eps: 1e-5,
            stats: Some((&mut means, &mut istds)),
        }
        .run::<Lanes<8>>();
        for i in 0..rows {
            let row = &reference[i * cols..(i + 1) * cols];
            let mean: f64 = row.iter().map(|v| *v as f64).sum::<f64>() / cols as f64;
            let var: f64 =
                row.iter().map(|v| (*v as f64 - mean).powi(2)).sum::<f64>() / cols as f64;
            let istd = 1.0 / (var + 1e-5).sqrt();
            assert!((means[i] as f64 - mean).abs() < 1e-4);
            assert!((istds[i] as f64 - istd).abs() < 1e-3 * istd);
            for j in 0..cols {
                let want = (row[j] as f64 - mean) * istd * gamma[j] as f64 + beta[j] as f64;
                assert!(
                    (data[i * cols + j] as f64 - want).abs() < 1e-4,
                    "row {i} col {j}: got {} want {want}",
                    data[i * cols + j]
                );
            }
        }
    }

    #[test]
    fn kernels_are_tail_consistent() {
        // n = k·8 ± 1 lengths: the tail path must agree with what the
        // same values produce when they land in a full block.
        for n in [7usize, 8, 9, 15, 16, 17, 63, 64, 65] {
            let src: Vec<f32> = (0..n).map(|i| (i as f32) * 0.61 - 9.0).collect();
            let mut a = src.clone();
            Activation {
                act: Act::Gelu,
                data: &mut a,
            }
            .run::<Lanes<8>>();
            for (i, &x) in src.iter().enumerate() {
                let mut one = [x];
                Activation {
                    act: Act::Gelu,
                    data: &mut one,
                }
                .run::<Lanes<1>>();
                assert_eq!(a[i].to_bits(), one[0].to_bits(), "n={n} i={i}");
            }
        }
    }
}
