//! The attention kernel's vector-Jacobian product against the tape's
//! per-block chain.
//!
//! `simd::attention_backward` produces dQ, dK and dV of every
//! `(sample, head)` block in one call, from the output's gradient and the
//! probabilities `simd::attention` saved. Each element must be what a
//! training tape computed block by block before the kernel existed: the
//! backward of the `· V` GEMM (`dP = dO · Vᵀ`, `dV = Pᵀ · dO`), of
//! `softmax_rows` (`S ⊙ (G − Σ(G ⊙ S))`, the row sum in key order from
//! `−0`), of the `1/√head_dim` scale and of the score GEMM
//! (`dQ = dB · K`, `dK = dBᵀ · Q`), each product the band kernel at the
//! same level. Every level is held to that chain bit for bit, except that
//! a NaN gradient is the canonical `f32::NAN`, over the forward parity
//! suite's sequence lengths and head widths, with an output gradient
//! that is finite or that holds signed zeros, subnormals, infinities and
//! NaN. The saved probabilities are held to the chain's softmax too. CI
//! runs it in debug and in release at every level.

mod attention_common;

use attention_common::{bits, gemm, per_block, shape, Values, HEAD_DIMS, SAMPLES, SEQS};
use simd::{AttentionShape, Level};

/// A row-major `rows × cols` matrix transposed.
fn transposed(m: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    (0..cols)
        .flat_map(|c| (0..rows).map(move |r| m[r * cols + c]))
        .collect()
}

/// The tape's per-block chain backward: for each `(sample, head)`, the
/// products of the two GEMMs' backward, the softmax's and the scale's,
/// each head's gradients copied into its columns. `probs` are the
/// forward's row-major blocks ([`per_block`]).
fn chain_backward(
    level: Level,
    [q, k, v]: [&[f32]; 3],
    probs: &[f32],
    d_out: &[f32],
    shape: AttentionShape,
) -> [Vec<f32>; 3] {
    let AttentionShape {
        seq,
        heads,
        head_dim,
    } = shape;
    let scale = 1.0 / (head_dim as f32).sqrt();
    let d = heads * head_dim;
    let mut grads = [(); 3].map(|_| vec![0.0; q.len()]);
    let mut d_probs = vec![0.0; seq * seq];
    let mut head = vec![0.0; seq * head_dim];
    for (b, p) in probs.chunks_exact(seq * seq).enumerate() {
        let (s, h) = (b / heads, b % heads);
        let at = |i: usize, c: usize| (s * seq + i) * d + h * head_dim + c;
        let store = |grad: &mut Vec<f32>, head: &[f32]| {
            for (i, row) in head.chunks_exact(head_dim).enumerate() {
                grad[at(i, 0)..at(i, 0) + head_dim].copy_from_slice(row);
            }
        };
        // The `· V` GEMM: dP = dO · Vᵀ, dV = Pᵀ · dO.
        let g = (&d_out[at(0, 0)..], d);
        gemm(
            level,
            g,
            |c, j| v[at(j, c)],
            (seq, head_dim, seq),
            &mut d_probs,
        );
        let p_t = transposed(p, seq, seq);
        gemm(
            level,
            (&p_t, seq),
            |i, c| d_out[at(i, c)],
            (seq, seq, head_dim),
            &mut head,
        );
        store(&mut grads[2], &head);
        // `softmax_rows`, then the scale.
        let mut d_scores = Vec::with_capacity(seq * seq);
        for (g, s) in d_probs.chunks_exact(seq).zip(p.chunks_exact(seq)) {
            let gs: Vec<f32> = g.iter().zip(s).map(|(g, s)| g * s).collect();
            let dot: f32 = gs.iter().sum();
            d_scores.extend(g.iter().zip(s).map(|(g, s)| s * (g - dot)));
        }
        d_scores.iter_mut().for_each(|x| *x *= scale);
        // The score GEMM: dQ = dB · K, dK = dBᵀ · Q.
        let dims = (seq, seq, head_dim);
        gemm(level, (&d_scores, seq), |j, c| k[at(j, c)], dims, &mut head);
        store(&mut grads[0], &head);
        let d_scores_t = transposed(&d_scores, seq, seq);
        gemm(
            level,
            (&d_scores_t, seq),
            |i, c| q[at(i, c)],
            dims,
            &mut head,
        );
        store(&mut grads[1], &head);
    }
    grads
}

/// Holds every level's saved probabilities to the chain's softmax and its
/// gradients to the chain's on `q`, `k`, `v` and `d_out`.
fn assert_parity(qkv: [&[f32]; 3], d_out: &[f32], shape: AttentionShape, what: &str) {
    let AttentionShape { seq, .. } = shape;
    let samples = d_out.len() / (seq * shape.heads * shape.head_dim);
    let where_ = |level: Level| {
        format!(
            "{what}: seq {seq}, head width {} at {}",
            shape.head_dim,
            level.name()
        )
    };
    for level in Level::ALL {
        let (_, probs) = per_block(level, qkv[0], qkv[1], qkv[2], shape);
        let mut out = vec![0.0; d_out.len()];
        let mut saved = vec![f32::NAN; shape.saved_len(samples)];
        let mut scratch = vec![f32::NAN; shape.scratch_len()];
        let [q, k, v] = qkv;
        simd::attention(
            level,
            q,
            k,
            v,
            shape,
            &mut out,
            Some(&mut saved),
            &mut scratch,
        );
        let want: Vec<f32> = probs
            .chunks_exact(seq * seq)
            .flat_map(|p| transposed(p, seq, seq))
            .collect();
        assert_eq!(bits(&saved), bits(&want), "{}: saved", where_(level));

        let want = chain_backward(level, qkv, &probs, d_out, shape);
        let mut grads = [(); 3].map(|_| vec![f32::NAN; d_out.len()]);
        let mut scratch = vec![f32::NAN; shape.backward_scratch_len()];
        let [dq, dk, dv] = &mut grads;
        let outs = [&mut dq[..], &mut dk[..], &mut dv[..]];
        simd::attention_backward(level, qkv, &saved, d_out, shape, outs, &mut scratch);
        for ((name, got), want) in ["dQ", "dK", "dV"].iter().zip(&grads).zip(&want) {
            let got: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
            let want = bits(want);
            if let Some(at) = (0..got.len()).find(|&i| got[i] != want[i]) {
                panic!(
                    "{}: {name} element {at} is {:#010x}, the chain gives {:#010x}",
                    where_(level),
                    got[at],
                    want[at]
                );
            }
        }
    }
}

/// Every shape, Q, K and V drawn with one special in `qkv_every` values
/// and the output's gradient with one in `grad_every` (never, at zero).
fn check(qkv_every: u64, grad_every: u64, what: &str) {
    let mut operands = Values {
        state: 0x2545_f491_4f6c_dd1d ^ qkv_every,
        special_every: qkv_every,
    };
    let mut gradients = Values {
        state: 0x9e37_79b9_7f4a_7c15 ^ grad_every,
        special_every: grad_every,
    };
    for seq in SEQS {
        for head_dim in HEAD_DIMS {
            let shape = shape(seq, head_dim);
            let len = SAMPLES * seq * shape.heads * head_dim;
            let qkv = [(); 3].map(|_| operands.take(len));
            let d_out = gradients.take(len);
            assert_parity([&qkv[0], &qkv[1], &qkv[2]], &d_out, shape, what);
        }
    }
}

#[test]
fn every_level_is_the_chain_on_finite_values() {
    check(0, 0, "finite");
}

#[test]
fn every_level_is_the_chain_with_specials_in_the_output_gradient() {
    check(0, 7, "special gradients");
}

#[test]
fn every_level_is_the_chain_with_specials_everywhere() {
    check(29, 3, "specials everywhere");
}

#[test]
fn empty_shapes_write_nothing() {
    for level in Level::ALL {
        let shape = AttentionShape {
            seq: 4,
            heads: 2,
            head_dim: 0,
        };
        for shape in [shape, AttentionShape { seq: 0, ..shape }] {
            let mut scratch = vec![0.0; shape.backward_scratch_len()];
            let grads = [&mut [][..], &mut [], &mut []];
            simd::attention_backward(level, [&[]; 3], &[], &[], shape, grads, &mut scratch);
        }
    }
}

#[test]
#[should_panic(expected = "saved probabilities")]
fn saved_probabilities_of_another_shape_are_refused() {
    let shape = AttentionShape {
        seq: 2,
        heads: 1,
        head_dim: 2,
    };
    let mut scratch = vec![0.0; shape.backward_scratch_len()];
    let [mut dq, mut dk, mut dv] = [[0.0; 4]; 3];
    simd::attention_backward(
        Level::Scalar,
        [&[0.0; 4]; 3],
        &[0.0; 2],
        &[0.0; 4],
        shape,
        [&mut dq, &mut dk, &mut dv],
        &mut scratch,
    );
}

#[test]
#[should_panic(expected = "scratch")]
fn short_backward_scratch_is_refused() {
    let shape = AttentionShape {
        seq: 2,
        heads: 1,
        head_dim: 2,
    };
    let [mut dq, mut dk, mut dv] = [[0.0; 4]; 3];
    let mut scratch = vec![0.0; shape.backward_scratch_len() - 1];
    simd::attention_backward(
        Level::Scalar,
        [&[0.0; 4]; 3],
        &[0.0; 4],
        &[0.0; 4],
        shape,
        [&mut dq, &mut dk, &mut dv],
        &mut scratch,
    );
}
