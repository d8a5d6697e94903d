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

use simd::{AttentionShape, Level};

const SEQS: [usize; 11] = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100];

const HEAD_DIMS: [usize; 4] = [1, 8, 16, 20];

const HEADS: usize = 2;

const SAMPLES: usize = 2;

const SPECIALS: [f32; 8] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0e-40,
    -1.0e-40,
    f32::MIN_POSITIVE,
];

/// A xorshift stream of values, one in `1 / special_every` a special
/// (never, at zero).
struct Values {
    state: u64,
    special_every: u64,
}

impl Values {
    fn next(&mut self) -> f32 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let draw = self.state >> 11;
        if self.special_every > 0 && draw.is_multiple_of(self.special_every) {
            SPECIALS[(draw / self.special_every % SPECIALS.len() as u64) as usize]
        } else {
            // Scores from a few hundredths to a few dozen: softmax rows
            // from nearly flat to nearly one-hot.
            let unit = (draw % 2_000_001) as f32 / 1_000_000.0 - 1.0;
            unit * [0.1, 1.0, 3.0][(draw % 3) as usize]
        }
    }

    fn take(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// `out = A · B` through the band kernel, as `tensor::matmul` runs it: B
/// (`b(p, j)` for `p < k`, `j < n`) packed into the level's panels, the
/// rows of A (`a[i · lda + p]`) in bands of the tile's height.
fn gemm(
    level: Level,
    (a, lda): (&[f32], usize),
    b: impl Fn(usize, usize) -> f32,
    (m, k, n): (usize, usize, usize),
    out: &mut [f32],
) {
    let (mr, nr) = simd::gemm::tile_dims(level, n);
    let mut packed = Vec::with_capacity(n.div_ceil(nr) * k * nr);
    for panel in 0..n.div_ceil(nr) {
        for p in 0..k {
            let col = |jj| panel * nr + jj;
            packed.extend((0..nr).map(|jj| if col(jj) < n { b(p, col(jj)) } else { 0.0 }));
        }
    }
    for (band, out) in out[..m * n].chunks_mut(mr * n).enumerate() {
        let a = &a[band * mr * lda..];
        simd::gemm::gemm_band_at(level, a, (lda, 1), &packed, k, n, out);
    }
}

/// The per-block steps: for each `(sample, head)`, the score GEMM, the
/// scale, the row softmax and the `· V` GEMM, the result copied into the
/// head's columns.
fn per_block(level: Level, q: &[f32], k: &[f32], v: &[f32], shape: AttentionShape) -> Vec<f32> {
    let AttentionShape {
        seq,
        heads,
        head_dim,
    } = shape;
    let scale = 1.0 / (head_dim as f32).sqrt();
    let d = heads * head_dim;
    let mut out = vec![0.0; q.len()];
    let mut scores = vec![0.0; seq * seq];
    let mut head = vec![0.0; seq * head_dim];
    for s in 0..q.len() / (seq * d) {
        for h in 0..heads {
            let at = |i: usize, p: usize| (s * seq + i) * d + h * head_dim + p;
            let dims = (seq, head_dim, seq);
            gemm(
                level,
                (&q[at(0, 0)..], d),
                |p, j| k[at(j, p)],
                dims,
                &mut scores,
            );
            scores.iter_mut().for_each(|x| *x *= scale);
            simd::softmax_rows(level, &mut scores, seq);
            let dims = (seq, seq, head_dim);
            gemm(level, (&scores, seq), |j, c| v[at(j, c)], dims, &mut head);
            for (i, row) in head.chunks_exact(head_dim).enumerate() {
                out[at(i, 0)..at(i, 0) + head_dim].copy_from_slice(row);
            }
        }
    }
    out
}

/// Each value's bits, a NaN's those of `f32::NAN`.
fn bits(values: &[f32]) -> Vec<u32> {
    let canonical = |x: f32| if x.is_nan() { f32::NAN } else { x };
    values.iter().map(|&x| canonical(x).to_bits()).collect()
}

/// Holds every level to the per-block steps on `q`, `k`, `v`.
fn assert_parity(q: &[f32], k: &[f32], v: &[f32], shape: AttentionShape, what: &str) {
    for level in Level::ALL {
        let want = bits(&per_block(level, q, k, v, shape));
        let mut out = vec![f32::NAN; q.len()];
        let mut scratch = vec![f32::NAN; shape.scratch_len()];
        simd::attention(level, q, k, v, shape, &mut out, &mut scratch);
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

fn shape(seq: usize, head_dim: usize) -> AttentionShape {
    AttentionShape {
        seq,
        heads: HEADS,
        head_dim,
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
            simd::attention(Level::Scalar, &q, &k, &v, shape, &mut out, &mut scratch);
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
        simd::attention(level, &[], &[], &[], shape, &mut [], &mut [0.0; 64]);
        let shape = AttentionShape { seq: 0, ..shape };
        simd::attention(level, &[], &[], &[], shape, &mut [], &mut [0.0; 64]);
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
        &mut [0.0; 8],
    );
}
