//! Runtime-dispatched SIMD math kernels for VITAL's inference and training.
//!
//! One binary, every ISA level: each kernel is one `Kernel` impl,
//! written once over the [`backend::SimdOp`] trait, and `dispatch` —
//! the one place a level becomes a backend — picks the backend **at
//! runtime** with `is_x86_feature_detected!` — no `-C target-cpu=native`
//! required, so the shipped binary is portable. Each kernel has one
//! public function, which takes the level to run at.
//!
//! # Dispatch levels
//!
//! | [`Level`]  | Backend                          | Guarantee vs. scalar |
//! |------------|----------------------------------|----------------------|
//! | `Scalar`   | `Lanes<8>`: `[f32; 8]` lanes     | —                    |
//! | `Avx2`     | `Avx2`: AVX2, unfused            | **bit-identical**    |
//! | `Avx512`   | `Avx512`: AVX-512F, unfused      | **bit-identical**    |
//!
//! The scalar backend simulates the eight AVX2 lanes (same block width,
//! same horizontal reduction trees, same padded-tail handling), so the
//! `Scalar` and `Avx2` levels produce bit-identical results on every
//! input — the property the CI dispatch matrix asserts, in debug and in
//! release builds. The `Avx512` backend runs sixteen lanes but keeps the
//! eight-lane reduction trees: a reduction folds each 16-lane bundle into
//! an eight-lane accumulator, low half then high half, so it is
//! bit-identical to both. (One narrowing, spelled out in [`kernels`]: where a
//! layer-norm row already holds a NaN or an infinity, the levels agree on
//! which outputs are NaN but not on those NaNs' sign and payload.) No
//! backend contracts a multiply–add into one rounding, so every level is
//! bit-identical by construction; the default is the widest one the CPU
//! runs ([`best_deterministic`]: `Avx512` where available, then `Avx2`).
//!
//! Training has two more: [`gelu_backward`], GELU's derivative on the
//! forward's own `tanh`, and [`philox`], the training step's keyed draws:
//! the Philox4x32-10 generator written once over the backends' `u32`
//! lanes (sixteen blocks at a time at `Avx512`, eight at `Avx2` and
//! `Scalar`, one in [`scalar::philox4x32_10`]), and the one pass that
//! turns a run of blocks into words, into Box–Muller normals and dropout
//! flags, or into a row of values perturbed by them ([`philox_words`],
//! [`philox_normals`], [`philox_perturb`]). Integer lanes have one answer,
//! and the normals come from the crate's own `ln` and `sincos`, so these
//! are bit-identical at every level too.
//!
//! The attention blocks of VITAL's encoder and of ANVIL have two:
//! [`attention`], every `(sample, head)` block of a multi-head
//! self-attention in one call, the lanes spread across query rows and
//! each lane the per-block score, softmax and `· V` chain of its row; and
//! its vector-Jacobian product [`attention_backward`], the training
//! tape's dQ, dK and dV of every block in one call, each element the
//! tape's per-block chain of the same steps' backward.
//!
//! The memory-matching baselines (KNN, SHERPA's refinement, WiDeep's
//! kernel vote, ANVIL's centroids) have one: [`squared_distances`], the
//! squared distance from one query to every row of a feature-major store,
//! the lanes spread across rows and each lane the per-pair chain of its
//! row, so every distance is the one a loop over the pair would sum.
//!
//! Alongside the transcendental kernels, [`gemm`] holds the GEMM band
//! microkernel — one register tile over the same `SimdOp` backends, its
//! shape (rows × lane bundles) chosen by each backend from the product's
//! width — under the same dispatch latch and the same determinism
//! contract: scalar ≡ avx2 ≡ avx512 bit-identical.
//!
//! # Resolution
//!
//! A level the CPU cannot run resolves down an explicit chain
//! ([`Level::resolve`]): `avx512 → avx2 → scalar`.
//!
//! # Environment override
//!
//! `VITAL_SIMD=scalar|avx2|avx512` ([`Level::ALL`]) forces a level,
//! resolved on this CPU. Any other non-empty value, a non-UTF-8 one
//! included, is an error — a typo in a CI
//! matrix must not silently run the wrong kernels: [`try_active_level`]
//! returns it (`vital-serve` refuses to start on it) and
//! [`active_level`] panics on it. The choice is latched on first use and
//! stable for the life of the process.
//!
//! # Unsafe policy
//!
//! This crate is the one library home for `unsafe` in the workspace:
//! `tests/static_analysis.rs` requires every other crate root to forbid
//! `unsafe_code`, so rustc refuses `unsafe` anywhere else (`vital-serve`'s
//! `signal(2)` block aside). All intrinsic calls live in [`x86`] behind
//! `# Safety`-documented contracts (clippy's `undocumented_unsafe_blocks`
//! and `missing_safety_doc` are denied below), and its two
//! `#[target_feature]` entry points, generic over the kernel, are the only
//! `unsafe fn`s. Everything public here is safe:
//! `dispatch` calls an entry point only after the matching CPUID check.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]

pub mod backend;
pub mod gemm;
pub mod kernels;
pub mod philox;
#[cfg(target_arch = "x86_64")]
pub mod x86;

pub use kernels::{Act, GELU_COEFF, SQRT_2_OVER_PI};

use std::sync::OnceLock;

use backend::SimdOp;

/// A runtime dispatch level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Portable eight-lane scalar backend; runs on any CPU.
    Scalar,
    /// 256-bit AVX2 with unfused multiply–add; bit-identical to `Scalar`.
    Avx2,
    /// 512-bit AVX-512F with unfused multiply–add; bit-identical to
    /// `Scalar`.
    Avx512,
}

impl Level {
    /// Every level, from the most portable to the widest — the one list
    /// `parse`, the `VITAL_SIMD` error and the level loops of the tests
    /// read.
    pub const ALL: [Level; 3] = [Level::Scalar, Level::Avx2, Level::Avx512];

    /// The lowercase name used by `VITAL_SIMD` and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Level::Scalar => "scalar",
            Level::Avx2 => "avx2",
            Level::Avx512 => "avx512",
        }
    }

    /// Parses a `VITAL_SIMD` value; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<Level> {
        Level::ALL.into_iter().find(|level| level.name() == s)
    }

    /// The level a request for `self` runs at on this CPU: `self` where
    /// the CPU has its features, otherwise the next level down its chain
    /// (`avx512 → avx2 → scalar`).
    pub fn resolve(self) -> Level {
        let mut level = self;
        while !level.runs_here() {
            level = match level {
                Level::Avx512 => Level::Avx2,
                Level::Avx2 | Level::Scalar => Level::Scalar,
            };
        }
        level
    }

    /// Whether the running CPU has every feature this level's backend is
    /// compiled for (std caches the CPUID probes).
    fn runs_here(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = is_x86_feature_detected!("avx2");
            match self {
                Level::Scalar => true,
                Level::Avx2 => avx2,
                Level::Avx512 => avx2 && is_x86_feature_detected!("avx512f"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == Level::Scalar
        }
    }
}

/// The widest level this CPU runs — what a request for `avx512`
/// resolves to. Every level is bit-identical, so two hosts produce
/// identical bits whatever their vector width.
pub fn best_deterministic() -> Level {
    Level::Avx512.resolve()
}

/// The level every kernel call at [`active_level`] uses, or why
/// `VITAL_SIMD` names none; latched on first use.
///
/// Resolution order: `VITAL_SIMD` if set and non-empty, resolved on this
/// CPU ([`Level::resolve`]); otherwise [`best_deterministic`]. A value
/// that is not one of [`Level::ALL`]'s names, or not UTF-8 at all, is an
/// error naming the variable. A process that must not start on a typo (a
/// server) asks this before it does anything else.
pub fn try_active_level() -> Result<Level, &'static str> {
    static ACTIVE: OnceLock<Result<Level, String>> = OnceLock::new();
    let resolved = ACTIVE.get_or_init(|| match std::env::var_os("VITAL_SIMD") {
        Some(raw) if !raw.is_empty() => raw
            .to_str()
            .and_then(Level::parse)
            .map(Level::resolve)
            .ok_or_else(|| {
                let names: Vec<&str> = Level::ALL.into_iter().map(Level::name).collect();
                format!(
                    "VITAL_SIMD={raw:?} is not a dispatch level (expected {})",
                    names.join("|")
                )
            }),
        _ => Ok(best_deterministic()),
    });
    resolved.as_ref().copied().map_err(String::as_str)
}

/// [`try_active_level`], for callers that have nothing to do with an
/// invalid `VITAL_SIMD` but stop.
///
/// # Panics
/// On an unrecognized non-empty `VITAL_SIMD` value; a typo'd CI matrix
/// entry must fail loudly rather than silently test the wrong kernels.
pub fn active_level() -> Level {
    try_active_level().unwrap_or_else(|message| panic!("{message}"))
}

/// One kernel call — its operands and its body, written once over
/// [`SimdOp`] — that [`dispatch`] runs on the backend a level names.
///
/// Adding a kernel is one impl of this trait and no `unsafe`. The impl
/// must mark `run` `#[inline(always)]`: the body is compiled for a vector
/// level only where it is inlined into that level's entry point in
/// [`x86`].
pub(crate) trait Kernel {
    /// What the kernel returns.
    type Out;
    /// Runs the kernel on backend `S`.
    fn run<S: SimdOp>(self) -> Self::Out;
}

/// Runs `kernel` at `level`, resolved on this CPU ([`Level::resolve`]):
/// on x86-64 through [`x86::run`], which resolves the level and runs
/// [`Lanes<8>`] inline at `Scalar`, otherwise the level's
/// `#[target_feature]` entry point — the one place a level becomes a
/// backend. Elsewhere every level resolves to `Scalar`.
///
/// Inlined into every caller, so the scalar level costs no call and a
/// vector level exactly one, into its entry point.
///
/// [`Lanes<8>`]: backend::Lanes
#[inline(always)]
pub(crate) fn dispatch<K: Kernel>(level: Level, kernel: K) -> K::Out {
    #[cfg(target_arch = "x86_64")]
    {
        x86::run(level, kernel)
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        kernel.run::<backend::Lanes<8>>()
    }
}

/// Applies an activation elementwise in place at `level` (resolved on
/// this CPU).
pub fn apply_act(level: Level, act: Act, data: &mut [f32]) {
    dispatch(level, kernels::Activation { act, data });
}

/// `grad[i] ← grad[i] · GELU′(x[i])` at `level` (resolved on this CPU;
/// [`kernels::gelu_grad_v`]): the GELU node's backward, its tanh the
/// forward's ([`Act::Gelu`]) bit for bit.
///
/// # Panics
/// If the slices' lengths differ.
pub fn gelu_backward(level: Level, x: &[f32], grad: &mut [f32]) {
    assert_eq!(x.len(), grad.len(), "one gradient per GELU input");
    dispatch(level, kernels::GeluBackward { x, grad });
}

/// Row softmax in place over a row-major `[rows × cols]` buffer at
/// `level` (resolved on this CPU). No-op when `cols == 0`.
pub fn softmax_rows(level: Level, data: &mut [f32], cols: usize) {
    dispatch(level, kernels::Softmax { data, cols });
}

/// Per-row layer normalization in place at `level` (resolved on this
/// CPU): `y = (x − mean) · istd · γ[j] + β[j]`,
/// `istd = 1/√(var + eps)`. With `stats`, per-row `(mean, istd)` are
/// also recorded into those slices — the training forward pass needs
/// them for the backward closure.
pub fn layer_norm_rows(
    level: Level,
    data: &mut [f32],
    cols: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    stats: Option<(&mut [f32], &mut [f32])>,
) {
    dispatch(
        level,
        kernels::LayerNorm {
            data,
            cols,
            gamma,
            beta,
            eps,
            stats,
        },
    );
}

/// `out[r] = Σⱼ (store[j · rows + r] − query[j])²` for every row `r` of
/// a feature-major `[query.len()][rows]` store, `rows = out.len()`, at
/// `level` (resolved on this CPU): each distance bit-identical to the
/// per-pair `row.iter().zip(query).map(|(s, q)| (s − q) · (s − q)).sum()`
/// of its row, whatever the level, except that a NaN comes out as
/// `f32::NAN` ([`kernels`]'s `SquaredDistances` says why).
///
/// # Panics
/// If `store` does not hold `query.len() · out.len()` values.
pub fn squared_distances(level: Level, store: &[f32], query: &[f32], out: &mut [f32]) {
    assert_eq!(
        store.len(),
        query.len() * out.len(),
        "a feature-major store holds one column of out.len() rows per query feature"
    );
    dispatch(level, kernels::SquaredDistances { store, query, out });
}

/// The shape of one [`attention`] call: sequences of `seq` rows stacked
/// into `[samples · seq, heads · head_dim]` matrices, head `h` owning
/// columns `h · head_dim .. (h + 1) · head_dim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttentionShape {
    /// Rows (tokens) of one sequence.
    pub seq: usize,
    /// Attention heads.
    pub heads: usize,
    /// Columns of one head.
    pub head_dim: usize,
}

impl AttentionShape {
    /// The factor every score is multiplied by before the softmax:
    /// `1/√head_dim`, the scaled dot-product attention's.
    pub fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }

    /// Elements of scratch an [`attention`] call needs: one bundle of
    /// query lanes per head column and per key.
    pub fn scratch_len(&self) -> usize {
        (self.head_dim + self.seq) * backend::MAX_LANES
    }

    /// Probabilities [`attention`] saves for [`attention_backward`] over
    /// `samples` sequences: one `seq × seq` block per `(sample, head)`, in
    /// that order, each transposed (query `i`'s probability of key `j` at
    /// `j · seq + i`).
    pub fn saved_len(&self, samples: usize) -> usize {
        samples * self.heads * self.seq * self.seq
    }

    /// Elements of scratch an [`attention_backward`] call needs:
    /// [`AttentionShape::scratch_len`]'s, and one block's score gradient.
    pub fn backward_scratch_len(&self) -> usize {
        self.scratch_len() + self.seq * self.seq
    }

    /// Sequences in a stack of `len` values, if it holds whole ones.
    fn samples(&self, len: usize) -> Option<usize> {
        match self.seq * self.heads * self.head_dim {
            0 => (len == 0).then_some(0),
            block => len.is_multiple_of(block).then_some(len / block),
        }
    }
}

/// Scaled dot-product self-attention of every `(sample, head)` block of
/// the stacked `q`, `k` and `v` into `out` at `level` (resolved on this
/// CPU): row `i` of a sample's head is `softmax(qᵢ·Kᵀ · scale) · V` over
/// that sample's rows and that head's columns, with `scale` the shape's
/// [`AttentionShape::scale`], written into the head's
/// columns of row `i`. Every output is bit for bit what the per-block
/// steps give — the score GEMM, the scale, [`softmax_rows`] and the
/// `· V` GEMM at the same level — except that a NaN comes out as
/// `f32::NAN` ([`kernels`]' `Attention` says why). With `saved`, the
/// softmax's probabilities are written there too, for
/// [`attention_backward`] ([`AttentionShape::saved_len`]). `scratch` is
/// overwritten.
///
/// # Panics
/// If `q`, `k`, `v` and `out` differ in length or are not whole
/// sequences of `seq · heads · head_dim` values, `saved` does not hold
/// [`AttentionShape::saved_len`] values, or `scratch` is shorter than
/// [`AttentionShape::scratch_len`].
#[allow(clippy::too_many_arguments)] // the level, three operands, the shape, two outputs, scratch
pub fn attention(
    level: Level,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    shape: AttentionShape,
    out: &mut [f32],
    saved: Option<&mut [f32]>,
    scratch: &mut [f32],
) {
    let samples = shape.samples(out.len());
    assert!(
        samples.is_some() && [q.len(), k.len(), v.len()] == [out.len(); 3],
        "attention: q, k, v and out must be equal stacks of {}-value sequences",
        shape.seq * shape.heads * shape.head_dim
    );
    if let Some(saved) = &saved {
        assert_eq!(
            Some(saved.len()),
            samples.map(|samples| shape.saved_len(samples)),
            "attention: saved probabilities"
        );
    }
    assert!(
        scratch.len() >= shape.scratch_len(),
        "attention: {} scratch values, {} needed",
        scratch.len(),
        shape.scratch_len()
    );
    dispatch(
        level,
        kernels::Attention {
            q,
            k,
            v,
            shape,
            out,
            saved,
            scratch,
        },
    );
}

/// The gradients of [`attention`] with respect to its operands at `level`
/// (resolved on this CPU): from `qkv`, the probabilities the forward
/// `saved` and the output's gradient `d_out`, `grads` receives dQ, dK and
/// dV, each element bit for bit what the tape's per-block chain gives
/// (the backward of the score GEMM, the scale, the row softmax and the
/// `· V` GEMM at the same level), except that a NaN comes out as
/// `f32::NAN` ([`kernels`]' `AttentionBackward`). `scratch` is
/// overwritten.
///
/// # Panics
/// If the operands, `d_out` and the gradients differ in length or are
/// not whole sequences of `seq · heads · head_dim` values, `saved` does
/// not hold [`AttentionShape::saved_len`] values, or `scratch` is
/// shorter than [`AttentionShape::backward_scratch_len`].
pub fn attention_backward(
    level: Level,
    qkv: [&[f32]; 3],
    saved: &[f32],
    d_out: &[f32],
    shape: AttentionShape,
    grads: [&mut [f32]; 3],
    scratch: &mut [f32],
) {
    let len = d_out.len();
    let samples = shape.samples(len);
    assert!(
        samples.is_some()
            && qkv.iter().all(|m| m.len() == len)
            && grads.iter().all(|m| m.len() == len),
        "attention_backward: q, k, v, d_out and the gradients must be equal stacks of \
         {}-value sequences",
        shape.seq * shape.heads * shape.head_dim
    );
    assert_eq!(
        Some(saved.len()),
        samples.map(|samples| shape.saved_len(samples)),
        "attention_backward: saved probabilities"
    );
    assert!(
        scratch.len() >= shape.backward_scratch_len(),
        "attention_backward: {} scratch values, {} needed",
        scratch.len(),
        shape.backward_scratch_len()
    );
    dispatch(
        level,
        kernels::AttentionBackward {
            qkv,
            saved,
            d_out,
            shape,
            grads,
            scratch,
        },
    );
}

/// Natural logarithm of every element in place at `level` (resolved on
/// this CPU; [`kernels::ln_v`]).
pub fn ln(level: Level, data: &mut [f32]) {
    dispatch(level, kernels::Ln(data));
}

/// `sin[i], cos[i] = sin 2π·turns[i], cos 2π·turns[i]` at `level`
/// (resolved on this CPU; [`kernels::sincos_v`]), for as many
/// elements as all three slices hold.
pub fn sincos_turns(level: Level, turns: &[f32], sin: &mut [f32], cos: &mut [f32]) {
    dispatch(level, kernels::SinCos { turns, sin, cos });
}

/// The words of consecutive Philox4x32-10 blocks under `key` at `level`
/// (resolved on this CPU; [`philox`]): `out[i]` is word `i % 4` of the
/// block at counter `[counter[0] + i / 4, counter[1], counter[2],
/// counter[3]]`, the first word wrapping past `u32::MAX`.
pub fn philox_words(level: Level, key: [u32; 2], counter: [u32; 4], out: &mut [u32]) {
    dispatch(level, philox::Words { key, counter, out });
}

/// Standard normals and dropout flags of consecutive Philox4x32-10 blocks
/// under `key` at `level` (resolved on this CPU; [`philox`]), for as many
/// elements as both slices hold: elements `2k` and `2k + 1` come from the
/// block at counter `[counter[0] + k, counter[1], counter[2],
/// counter[3]]`, its first two words giving both Box–Muller normals and
/// its last two, below `threshold` (at most `2³²`), dropping each.
pub fn philox_normals(
    level: Level,
    key: [u32; 2],
    counter: [u32; 4],
    threshold: u64,
    normals: &mut [f32],
    dropped: &mut [bool],
) {
    dispatch(
        level,
        philox::Normals {
            key,
            counter,
            threshold,
            normals,
            dropped,
        },
    );
}

/// What the draws of [`philox_normals`] do to a value in
/// [`philox_perturb`]: a dropped one becomes `infill · z`, a kept one
/// `value + jitter · z`, where `z` is its normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Perturbation {
    /// A value is dropped where its word is below this (at most `2³²`).
    pub threshold: u64,
    /// The scale of the noise a dropped value is replaced by.
    pub infill: f32,
    /// The scale of the noise added to a kept value; `None` keeps it as
    /// it is.
    pub jitter: Option<f32>,
}

/// `values` perturbed by the draws of [`philox_normals`] with the same
/// `key` and `counter`, into `out` at `level` (resolved on this CPU), for
/// as many elements as both slices hold: element `i` by normal `i` and
/// flag `i`, as [`Perturbation`] says, in the same pass that draws them.
pub fn philox_perturb(
    level: Level,
    key: [u32; 2],
    counter: [u32; 4],
    perturbation: Perturbation,
    values: &[f32],
    out: &mut [f32],
) {
    dispatch(
        level,
        philox::Perturbed {
            key,
            counter,
            perturbation,
            values,
            out,
        },
    );
}

pub mod scalar {
    //! Per-element reference functions.
    //!
    //! These are the *same generic kernels* instantiated with the
    //! one-lane [`Lanes<1>`] backend — not a second implementation — so a
    //! per-element call (e.g. `UnaryOp::eval` in the tensor crate) and a
    //! vectorized sweep agree bit-for-bit at every level.
    //!
    //! [`Lanes<1>`]: crate::backend::Lanes

    use crate::backend::Lanes;
    use crate::{kernels, philox};

    /// Per-element `e^x` with the kernel's numerical contract.
    #[inline]
    pub fn exp(x: f32) -> f32 {
        kernels::exp_v::<Lanes<1>>([x])[0]
    }

    /// Per-element `tanh(x)`.
    #[inline]
    pub fn tanh(x: f32) -> f32 {
        kernels::tanh_v::<Lanes<1>>([x])[0]
    }

    /// Per-element logistic sigmoid.
    #[inline]
    pub fn sigmoid(x: f32) -> f32 {
        kernels::sigmoid_v::<Lanes<1>>([x])[0]
    }

    /// Per-element tanh-approximation GELU.
    #[inline]
    pub fn gelu(x: f32) -> f32 {
        kernels::gelu_v::<Lanes<1>>([x])[0]
    }

    /// Per-element derivative of the tanh-approximation GELU.
    #[inline]
    pub fn gelu_grad(x: f32) -> f32 {
        kernels::gelu_grad_v::<Lanes<1>>([x])[0]
    }

    /// Per-element ReLU with `maxps(x, 0)` semantics (NaN, `−0` → `+0`).
    #[inline]
    pub fn relu(x: f32) -> f32 {
        kernels::relu_v::<Lanes<1>>([x])[0]
    }

    /// The Philox4x32-10 block of `counter` under `key`: the one-lane
    /// instance of the lane generator [`crate::philox_words`] runs.
    #[inline]
    pub fn philox4x32_10(counter: [u32; 4], key: [u32; 2]) -> [u32; 4] {
        philox::philox4x32_10_v::<Lanes<1>>(counter.map(|word| [word]), key).map(|[word]| word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_names_round_trip_through_parse() {
        for level in Level::ALL {
            assert_eq!(Level::parse(level.name()), Some(level));
        }
        assert_eq!(Level::parse("fma"), None);
        assert_eq!(Level::parse("sse9"), None);
        assert_eq!(Level::parse(""), None);
    }

    #[test]
    fn levels_order_by_capability() {
        assert_eq!(Level::ALL, [Level::Scalar, Level::Avx2, Level::Avx512]);
        // The default is the widest level this CPU runs.
        let best = best_deterministic();
        assert_eq!(best, Level::Avx512.resolve());
        assert!(best == Level::Avx512 || !Level::Avx512.runs_here());
    }

    /// Names the backend it runs on.
    struct BackendName;

    impl Kernel for BackendName {
        type Out = &'static str;
        fn run<S: SimdOp>(self) -> &'static str {
            std::any::type_name::<S>()
        }
    }

    /// A level silently routed to another backend would pass every parity
    /// test, so the route itself is checked: each level runs its own
    /// backend where the CPU has the features, the one down its chain
    /// where not.
    #[test]
    fn dispatch_runs_the_backend_each_level_names() {
        for level in Level::ALL {
            let want = match level.resolve() {
                Level::Scalar => "::Lanes<8>",
                Level::Avx2 => "::Avx2",
                Level::Avx512 => "::Avx512",
            };
            let got = dispatch(level, BackendName);
            assert!(got.ends_with(want), "{level:?} ran {got}, not {want}");
        }
    }

    #[test]
    fn explicit_levels_are_capped_at_hardware() {
        for level in Level::ALL {
            let resolved = level.resolve();
            assert!(resolved.runs_here(), "{level:?} resolved to {resolved:?}");
            assert_eq!(resolved == level, level.runs_here(), "{level:?}");
        }
        assert_eq!(Level::Scalar.resolve(), Level::Scalar);
    }

    #[test]
    fn scalar_and_best_deterministic_level_are_bit_identical() {
        for level in Level::ALL {
            assert_deterministic_level_matches_scalar(level);
        }
    }

    fn assert_deterministic_level_matches_scalar(level: Level) {
        let src: Vec<f32> = (0..173)
            .map(|i| ((i * 37) % 101) as f32 * 0.29 - 11.0)
            .collect();

        for act in [Act::Relu, Act::Gelu, Act::Sigmoid, Act::Tanh, Act::Exp] {
            let mut a = src.clone();
            let mut b = src.clone();
            apply_act(Level::Scalar, act, &mut a);
            apply_act(level, act, &mut b);
            let ab: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ab, bb, "{act:?} diverged at {}", level.name());
        }

        let cols = 23; // deliberately not a multiple of the lane count
        let mut a = src[..161].to_vec();
        let mut b = a.clone();
        softmax_rows(Level::Scalar, &mut a, cols);
        softmax_rows(level, &mut b, cols);
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
        layer_norm_rows(Level::Scalar, &mut a, cols, &gamma, &beta, 1e-5, None);
        layer_norm_rows(level, &mut b, cols, &gamma, &beta, 1e-5, None);
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
        let mut means = [0.0; 3];
        let mut istds = [0.0; 3];
        let level = active_level();
        layer_norm_rows(level, &mut a, cols, &gamma, &beta, 1e-5, None);
        let stats = Some((&mut means[..], &mut istds[..]));
        layer_norm_rows(level, &mut b, cols, &gamma, &beta, 1e-5, stats);
        assert_eq!(a, b);
        assert!(istds.iter().all(|v| *v > 0.0));
    }
}
