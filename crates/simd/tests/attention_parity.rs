//! The lane-parallel attention kernel against the per-block steps.
//!
//! `simd::attention` runs every `(sample, head)` block of a multi-head
//! self-attention in one call, its lanes spread across query rows. Each
//! lane must still compute exactly what a compiled plan computed block by
//! block before the kernel existed: the score GEMM `Q·Kᵀ` (the band
//! kernel over a packed `Kᵀ`), `· 1/√head_dim`, `softmax_rows`, and the `· V`
//! GEMM, all at the same level. Every level is held to those steps bit
//! for bit, except that a NaN output is the canonical `f32::NAN` (the
//! steps' own NaN sign depends on the build: release gave `+NaN` where
//! the kernel's lanes gave `−NaN`), over sequence lengths around
//! one, two and four granules of both bundle widths and the paper's 100
//! patches, head widths 1, 8, 16 and 20, and inputs that are finite, that
//! hold signed zeros, subnormals, infinities and NaN, or that drive a
//! whole score row to `−∞`. CI runs it in debug and in release at every
//! level. A level the CPU lacks resolves down its chain and repeats the
//! one below.

mod attention_common;

use attention_common::{bits, per_block, shape, Values, HEADS, HEAD_DIMS, SAMPLES, SEQS};
use simd::{AttentionShape, Level};

/// Holds every level to the per-block steps on `q`, `k`, `v`.
fn assert_parity(q: &[f32], k: &[f32], v: &[f32], shape: AttentionShape, what: &str) {
    for level in Level::ALL {
        let want = bits(&per_block(level, q, k, v, shape).0);
        let mut out = vec![f32::NAN; q.len()];
        let mut scratch = vec![f32::NAN; shape.scratch_len()];
        simd::attention(level, q, k, v, shape, &mut out, None, &mut scratch);
        let got: Vec<u32> = out.iter().map(|x| x.to_bits()).collect();
        if let Some(at) = (0..got.len()).find(|&i| got[i] != want[i]) {
            panic!(
                "{what}: seq {}, head width {} at {}: element {at} is {:#010x}, the steps give {:#010x}",
                shape.seq,
                shape.head_dim,
                level.name(),
                got[at],
                want[at]
            );
        }
    }
}

fn check(special_every: u64, what: &str) {
    let mut values = Values {
        state: 0x9e37_79b9_7f4a_7c15 ^ special_every,
        special_every,
    };
    for seq in SEQS {
        for head_dim in HEAD_DIMS {
            let len = SAMPLES * seq * HEADS * head_dim;
            let (q, k, v) = (values.take(len), values.take(len), values.take(len));
            assert_parity(&q, &k, &v, shape(seq, head_dim), what);
        }
    }
}

#[test]
fn every_level_is_the_per_block_steps_on_finite_values() {
    check(0, "finite");
}

#[test]
fn every_level_is_the_per_block_steps_with_some_specials() {
    check(29, "some specials");
}

#[test]
fn every_level_is_the_per_block_steps_on_specials_mostly() {
    check(2, "mostly specials");
}

/// A query whose first column is `−∞` against keys whose first column is
/// positive scores `−∞` against every key: its softmax row is `−∞ − (−∞)`
/// throughout, NaN.
#[test]
fn an_all_negative_infinity_score_row_matches_the_steps() {
    let mut values = Values {
        state: 17,
        special_every: 0,
    };
    for seq in SEQS {
        for head_dim in HEAD_DIMS {
            let d = HEADS * head_dim;
            let len = SAMPLES * seq * d;
            let (mut q, mut k, v) = (values.take(len), values.take(len), values.take(len));
            // Sample 1, head 1, query row `seq / 2`.
            let row = seq + seq / 2;
            q[row * d + head_dim] = f32::NEG_INFINITY;
            for j in seq..2 * seq {
                k[j * d + head_dim] = 0.5 + k[j * d + head_dim].abs();
            }
            let shape = shape(seq, head_dim);
            let mut out = vec![0.0; len];
            let mut scratch = vec![0.0; shape.scratch_len()];
            simd::attention(
                Level::Scalar,
                &q,
                &k,
                &v,
                shape,
                &mut out,
                None,
                &mut scratch,
            );
            let head = &out[row * d + head_dim..row * d + d];
            assert!(head.iter().all(|x| x.is_nan()), "the row is NaN");
            assert_parity(&q, &k, &v, shape, "an all −∞ score row");
        }
    }
}

#[test]
fn empty_shapes_write_nothing() {
    for level in Level::ALL {
        let shape = AttentionShape {
            seq: 4,
            heads: 2,
            head_dim: 0,
        };
        simd::attention(level, &[], &[], &[], shape, &mut [], None, &mut [0.0; 64]);
        let shape = AttentionShape { seq: 0, ..shape };
        simd::attention(level, &[], &[], &[], shape, &mut [], None, &mut [0.0; 64]);
    }
}

#[test]
#[should_panic(expected = "equal stacks")]
fn a_partial_sequence_is_refused() {
    let shape = AttentionShape {
        seq: 2,
        heads: 1,
        head_dim: 2,
    };
    let mut scratch = vec![0.0; shape.scratch_len()];
    simd::attention(
        Level::Scalar,
        &[0.0; 6],
        &[0.0; 6],
        &[0.0; 6],
        shape,
        &mut [0.0; 6],
        None,
        &mut scratch,
    );
}

#[test]
#[should_panic(expected = "scratch")]
fn short_scratch_is_refused() {
    let shape = AttentionShape {
        seq: 2,
        heads: 1,
        head_dim: 2,
    };
    simd::attention(
        Level::Scalar,
        &[0.0; 4],
        &[0.0; 4],
        &[0.0; 4],
        shape,
        &mut [0.0; 4],
        None,
        &mut [0.0; 8],
    );
}
