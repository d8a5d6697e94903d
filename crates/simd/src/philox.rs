//! The counter-based Philox4x32-10 generator (Salmon et al., "Parallel
//! Random Numbers: As Easy as 1, 2, 3", SC '11, as in Random123), written
//! once over the [`SimdOp`] `u32` lanes: lane `i` of a bundle computes the
//! block of the `i`-th counter, so the AVX-512 level draws sixteen blocks
//! at a time, AVX2 and the scalar level eight, and the one-lane instance
//! ([`crate::scalar::philox4x32_10`]) is the per-block reference. Integer
//! arithmetic has one answer, so every level gives the same words.
//!
//! Three kernels turn a run of consecutive counters into what training
//! uses in one dispatched call, the words never leaving the registers or
//! a 1 KiB stack block:
//! - `Words` ([`crate::philox_words`]): the blocks' words in block order (the dropout masks);
//! - `Normals` ([`crate::philox_normals`]): per block, two standard normals by Box–Muller from its
//!   first two words and two dropout flags from its last two;
//! - `Perturbed` ([`crate::philox_perturb`]): the same draws applied to a row of values, each
//!   dropped and infilled with noise or jittered (the DAM's stages 3–4).
//!
//! The logarithm, square root and sines are the crate's own lane
//! kernels, so the normals are bit-identical at every level too.

use std::ops::Range;

use crate::backend::{SimdOp, MAX_LANES};
use crate::kernels::{ln_of_parts, sincos_v};
use crate::{Kernel, Perturbation};

/// Philox4x32 round multipliers.
const PHILOX_M: [u32; 2] = [0xD251_1F53, 0xCD9E_8D57];
/// Philox4x32 key schedule increments (the golden ratio and `√3 − 1`).
const PHILOX_W: [u32; 2] = [0x9E37_79B9, 0xBB67_AE85];
/// `2⁻²⁴`: the spacing of the uniforms a word's top 24 bits give.
const UNIT: f32 = 1.0 / 16_777_216.0;

/// The Philox4x32-10 blocks of the counters in `counter`'s lanes under
/// `key`: ten rounds of two 32 × 32 → 64-bit multiplies and xors, the key
/// bumped by the Weyl increments between rounds.
#[inline(always)]
pub fn philox4x32_10_v<S: SimdOp>(counter: [S::U; 4], key: [u32; 2]) -> [S::U; 4] {
    let [mut c0, mut c1, mut c2, mut c3] = counter;
    let [mut k0, mut k1] = key;
    let (m0, m1) = (S::splat_u32(PHILOX_M[0]), S::splat_u32(PHILOX_M[1]));
    for round in 0..10 {
        if round > 0 {
            k0 = k0.wrapping_add(PHILOX_W[0]);
            k1 = k1.wrapping_add(PHILOX_W[1]);
        }
        let (hi0, lo0) = S::mul_wide_u32(m0, c0);
        let (hi1, lo1) = S::mul_wide_u32(m1, c2);
        [c0, c1, c2, c3] = [
            S::xor_u32(S::xor_u32(hi1, c1), S::splat_u32(k0)),
            lo1,
            S::xor_u32(S::xor_u32(hi0, c3), S::splat_u32(k1)),
            lo0,
        ];
    }
    [c0, c1, c2, c3]
}

/// The blocks `first, first + 1, …` of the run that starts at `counter`:
/// lane `i` holds the block at `[counter[0] + first + i, counter[1],
/// counter[2], counter[3]]`, the first word wrapping past `u32::MAX`.
#[inline(always)]
fn blocks<S: SimdOp>(key: [u32; 2], counter: [u32; 4], first: usize) -> [S::U; 4] {
    let [c0, c1, c2, c3] = counter;
    let lanes = S::iota_u32(c0.wrapping_add(first as u32));
    philox4x32_10_v::<S>(
        [lanes, S::splat_u32(c1), S::splat_u32(c2), S::splat_u32(c3)],
        key,
    )
}

/// The words of consecutive blocks in block order: `out[i]` is word
/// `i % 4` of block `i / 4` of the run at `counter` (see [`blocks`]).
pub(crate) struct Words<'a> {
    pub key: [u32; 2],
    pub counter: [u32; 4],
    pub out: &'a mut [u32],
}

impl Kernel for Words<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(self) {
        let Words { key, counter, out } = self;
        for (group, words) in out.chunks_mut(4 * S::LANES).enumerate() {
            let [w0, w1, w2, w3] = blocks::<S>(key, counter, group * S::LANES).map(S::from_bits);
            // A 4 × LANES transpose in two rounds of interleaving: the
            // first pairs words 0 with 2 and 1 with 3, the second those
            // pairs, so each bundle holds a quarter of the blocks whole.
            let (even_lo, even_hi) = S::zip(w0, w2);
            let (odd_lo, odd_hi) = S::zip(w1, w3);
            let (q0, q1) = S::zip(even_lo, odd_lo);
            let (q2, q3) = S::zip(even_hi, odd_hi);
            for (dst, quarter) in words.chunks_mut(S::LANES).zip([q0, q1, q2, q3]) {
                store_words::<S>(S::to_bits(quarter), dst);
            }
        }
    }
}

/// Blocks per chunk of [`draw`]: the stack block between its two passes
/// holds this many blocks' uniforms and flag words (1 KiB).
const CHUNK: usize = 64;

/// One chunk's uniforms and flag words (as `f32` bit patterns), between
/// [`draw`]'s passes.
struct Stash {
    radius: [f32; CHUNK],
    turns: [f32; CHUNK],
    flags: [[f32; CHUNK]; 2],
}

/// The draws of consecutive blocks: elements `2k` and `2k + 1` come from
/// block `k` of the run at `counter` (see [`blocks`]). Its first word
/// gives a radius uniform in `(0, 1]`, its second an angle uniform in
/// `[0, 1)` turns, and the one Box–Muller evaluation
/// `√(−2 ln u) · (cos 2πt, sin 2πt)` both standard normals; its third and
/// fourth words, below `threshold` (at most `2³²`), drop the two elements.
/// Each group of `2 · LANES` elements goes to `sink`.
///
/// A chunk of blocks is drawn in two passes, the Philox rounds and then
/// the transcendentals, each a short loop whose iterations are
/// independent, so the processor overlaps one group's dependency chain
/// with the next's; and the last group of a chunk, eight blocks or fewer,
/// is drawn eight lanes wide (the blocks are the same at any width): a
/// DAM row of 100 blocks then computes 104, not 112.
#[inline(always)]
fn draw<S: SimdOp>(
    key: [u32; 2],
    counter: [u32; 4],
    threshold: u64,
    n: usize,
    sink: &mut impl Sink,
) {
    let narrow = |blocks: usize| blocks <= <S::Tree as SimdOp>::LANES;
    let mut stash = Stash {
        radius: [0.0; CHUNK],
        turns: [0.0; CHUNK],
        flags: [[0.0; CHUNK]; 2],
    };
    let pairs = n.div_ceil(2);
    for chunk in (0..pairs).step_by(CHUNK) {
        let blocks = (pairs - chunk).min(CHUNK);
        for at in (0..blocks).step_by(S::LANES) {
            if narrow(blocks - at) {
                uniforms::<S::Tree>(key, counter, chunk + at, &mut stash, at);
            } else {
                uniforms::<S>(key, counter, chunk + at, &mut stash, at);
            }
        }
        for at in (0..blocks).step_by(S::LANES) {
            let start = 2 * (chunk + at);
            let range = start..n.min(start + 2 * S::LANES);
            if narrow(blocks - at) {
                sink.take::<S::Tree>(range, box_muller::<S::Tree>(&stash, at, threshold));
            } else {
                sink.take::<S>(range, box_muller::<S>(&stash, at, threshold));
            }
        }
    }
}

/// [`draw`]'s first pass over one group: the blocks from `first` on, their
/// uniforms and flag words stashed from `at` on.
#[inline(always)]
fn uniforms<S: SimdOp>(
    key: [u32; 2],
    counter: [u32; 4],
    first: usize,
    stash: &mut Stash,
    at: usize,
) {
    let [w0, w1, w2, w3] = blocks::<S>(key, counter, first);
    let (one, unit) = (S::splat_u32(1), S::splat(UNIT));
    let radius = S::mul(S::i32_to_f32(S::add_u32(S::shr_u32(w0, 8), one)), unit);
    S::store(radius, &mut stash.radius[at..]);
    S::store(
        S::mul(S::i32_to_f32(S::shr_u32(w1, 8)), unit),
        &mut stash.turns[at..],
    );
    S::store(S::from_bits(w2), &mut stash.flags[0][at..]);
    S::store(S::from_bits(w3), &mut stash.flags[1][at..]);
}

/// A group's `2 · LANES` normals and flags, in element order: two
/// bundles each.
type Draws<S> = ([<S as SimdOp>::V; 2], [<S as SimdOp>::M; 2]);

/// [`draw`]'s second pass over one group: the draws of the blocks stashed
/// from `at` on.
#[inline(always)]
fn box_muller<S: SimdOp>(stash: &Stash, at: usize, threshold: u64) -> Draws<S> {
    // The radius is a normal number in `[2⁻²⁴, 1]`: `ln_v`'s blends for
    // the other inputs would change nothing.
    let (m, e) = S::frexp(S::load(&stash.radius[at..]));
    let r = S::sqrt(S::mul(S::splat(-2.0), ln_of_parts::<S>(m, e)));
    let (sin, cos) = sincos_v::<S>(S::load(&stash.turns[at..]));
    let (z_lo, z_hi) = S::zip(S::mul(r, cos), S::mul(r, sin));
    let [w2, w3] = stash.flags.each_ref().map(|words| S::load(&words[at..]));
    let (d_lo, d_hi) = S::zip(w2, w3);
    // Below 2³² the words compare with the threshold as a `u32`; at 2³²
    // every element is dropped (`0 < 1` in every lane).
    let (words, limit) = if threshold > u64::from(u32::MAX) {
        ([S::splat_u32(0); 2], S::splat_u32(1))
    } else {
        (
            [S::to_bits(d_lo), S::to_bits(d_hi)],
            S::splat_u32(threshold as u32),
        )
    };
    ([z_lo, z_hi], words.map(|w| S::lt_u32(w, limit)))
}

/// Where [`draw`] puts a group: the elements `range`, at most
/// `2 · LANES`, the first `LANES` in the first bundles.
trait Sink {
    fn take<S: SimdOp>(&mut self, range: Range<usize>, draws: Draws<S>);
}

/// The elements' normals and flags themselves, as many as both slices
/// hold.
pub(crate) struct Normals<'a> {
    pub key: [u32; 2],
    pub counter: [u32; 4],
    pub threshold: u64,
    pub normals: &'a mut [f32],
    pub dropped: &'a mut [bool],
}

impl Kernel for Normals<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(mut self) {
        let n = self.normals.len().min(self.dropped.len());
        draw::<S>(self.key, self.counter, self.threshold, n, &mut self);
    }
}

impl Sink for Normals<'_> {
    #[inline(always)]
    fn take<S: SimdOp>(&mut self, range: Range<usize>, (normals, dropped): Draws<S>) {
        let halves = bundles::<S>(range);
        for ((lanes, z), d) in halves.zip(normals).zip(dropped) {
            store_floats::<S>(z, &mut self.normals[lanes.clone()]);
            store_flags::<S>(d, &mut self.dropped[lanes]);
        }
    }
}

/// Values perturbed by the elements' draws ([`crate::Perturbation`]), as
/// many as both slices hold.
pub(crate) struct Perturbed<'a> {
    pub key: [u32; 2],
    pub counter: [u32; 4],
    pub perturbation: Perturbation,
    pub values: &'a [f32],
    pub out: &'a mut [f32],
}

impl Kernel for Perturbed<'_> {
    type Out = ();
    #[inline(always)]
    fn run<S: SimdOp>(mut self) {
        let n = self.values.len().min(self.out.len());
        let threshold = self.perturbation.threshold;
        draw::<S>(self.key, self.counter, threshold, n, &mut self);
    }
}

impl Sink for Perturbed<'_> {
    #[inline(always)]
    fn take<S: SimdOp>(&mut self, range: Range<usize>, (normals, dropped): Draws<S>) {
        let Perturbation { infill, jitter, .. } = self.perturbation;
        let halves = bundles::<S>(range);
        for ((lanes, z), d) in halves.zip(normals).zip(dropped) {
            let values = &self.values[lanes.clone()];
            let v = if values.len() == S::LANES {
                S::load(values)
            } else {
                S::load_padded(values, 0.0)
            };
            let kept = match jitter {
                Some(jitter) => S::add(v, S::mul(S::splat(jitter), z)),
                None => v,
            };
            let perturbed = S::select(d, S::mul(S::splat(infill), z), kept);
            store_floats::<S>(perturbed, &mut self.out[lanes]);
        }
    }
}

/// The element ranges of a group's bundles: `range` split after its
/// first `LANES` elements, an empty second part left out.
#[inline(always)]
fn bundles<S: SimdOp>(range: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    let Range { start, end } = range;
    let middle = (start + S::LANES).min(end);
    [start..middle, middle..end]
        .into_iter()
        .filter(|lanes| !lanes.is_empty())
}

/// Stores the first `dst.len()` (at most `LANES`) lanes of `v`.
#[inline(always)]
fn store_floats<S: SimdOp>(v: S::V, dst: &mut [f32]) {
    if dst.len() == S::LANES {
        S::store(v, dst);
    } else {
        let mut block = [0.0f32; MAX_LANES];
        S::store(v, &mut block);
        dst.copy_from_slice(&block[..dst.len()]);
    }
}

/// [`store_floats`] for flags.
#[inline(always)]
fn store_flags<S: SimdOp>(mask: S::M, dst: &mut [bool]) {
    if dst.len() == S::LANES {
        S::store_mask(mask, dst);
    } else {
        let mut block = [false; MAX_LANES];
        S::store_mask(mask, &mut block);
        dst.copy_from_slice(&block[..dst.len()]);
    }
}

/// [`store_floats`] for words.
#[inline(always)]
fn store_words<S: SimdOp>(v: S::U, dst: &mut [u32]) {
    if dst.len() == S::LANES {
        S::store_u32(v, dst);
    } else {
        let mut block = [0u32; MAX_LANES];
        S::store_u32(v, &mut block);
        dst.copy_from_slice(&block[..dst.len()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Lanes;

    #[test]
    fn zip_interleaves_in_sequence_order_at_every_width() {
        let a: [f32; 8] = std::array::from_fn(|i| i as f32);
        let b: [f32; 8] = std::array::from_fn(|i| 100.0 + i as f32);
        let (lo, hi) = Lanes::<8>::zip(a, b);
        assert_eq!(lo, [0.0, 100.0, 1.0, 101.0, 2.0, 102.0, 3.0, 103.0]);
        assert_eq!(hi, [4.0, 104.0, 5.0, 105.0, 6.0, 106.0, 7.0, 107.0]);
        assert_eq!(Lanes::<1>::zip([1.0], [2.0]), ([1.0], [2.0]));
    }

    #[test]
    fn the_wide_multiply_splits_the_product_into_its_words() {
        let (hi, lo) = Lanes::<2>::mul_wide_u32([u32::MAX, 3], [u32::MAX, 5]);
        assert_eq!(hi, [0xffff_fffe, 0]);
        assert_eq!(lo, [1, 15]);
        assert_eq!(
            Lanes::<2>::lt_u32([0x8000_0000, 1], [1, 0x8000_0000]),
            [false, true]
        );
        assert_eq!(
            Lanes::<4>::iota_u32(u32::MAX - 1),
            [u32::MAX - 1, u32::MAX, 0, 1]
        );
    }
}
