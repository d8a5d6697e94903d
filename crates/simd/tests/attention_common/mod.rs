//! What `attention_parity` and `attention_backward_parity` share: the
//! shapes and inputs they sweep, and the per-block steps the kernels are
//! held to.

use simd::{AttentionShape, Level};

/// Sequence lengths around one, two and four granules of both bundle
/// widths, and the paper's 100 patches.
pub const SEQS: [usize; 11] = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100];

pub const HEAD_DIMS: [usize; 4] = [1, 8, 16, 20];

pub const HEADS: usize = 2;

pub const SAMPLES: usize = 2;

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
pub struct Values {
    pub state: u64,
    pub special_every: u64,
}

impl Values {
    pub fn next(&mut self) -> f32 {
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

    pub fn take(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// `out = A · B` through the band kernel, as `tensor::matmul` runs it: B
/// (`b(p, j)` for `p < k`, `j < n`) packed into the level's panels, the
/// rows of A (`a[i · lda + p]`) in bands of the tile's height.
pub fn gemm(
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
/// head's columns. Also returns each block's probabilities, row-major,
/// one `seq × seq` block per `(sample, head)`.
pub fn per_block(
    level: Level,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    shape: AttentionShape,
) -> (Vec<f32>, Vec<f32>) {
    let AttentionShape {
        seq,
        heads,
        head_dim,
    } = shape;
    let scale = 1.0 / (head_dim as f32).sqrt();
    let d = heads * head_dim;
    let mut out = vec![0.0; q.len()];
    let mut probs = Vec::new();
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
            probs.extend_from_slice(&scores);
            let dims = (seq, seq, head_dim);
            gemm(level, (&scores, seq), |j, c| v[at(j, c)], dims, &mut head);
            for (i, row) in head.chunks_exact(head_dim).enumerate() {
                out[at(i, 0)..at(i, 0) + head_dim].copy_from_slice(row);
            }
        }
    }
    (out, probs)
}

/// Each value's bits, a NaN's those of `f32::NAN`.
pub fn bits(values: &[f32]) -> Vec<u32> {
    let canonical = |x: f32| if x.is_nan() { f32::NAN } else { x };
    values.iter().map(|&x| canonical(x).to_bits()).collect()
}

pub fn shape(seq: usize, head_dim: usize) -> AttentionShape {
    AttentionShape {
        seq,
        heads: HEADS,
        head_dim,
    }
}
