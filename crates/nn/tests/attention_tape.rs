//! The tape's one attention node against the per-block chain it replaced.
//!
//! A [`Session`] records `Trace::attention` as one node: `simd::attention`
//! forward, `simd::attention_backward` for dQ, dK and dV. Before that node
//! existed the tape recorded each `(sample, head)` block as a chain of
//! slices, `Q·Kᵀ`, the `1/√head_dim` scale, the row softmax, `· V` and the
//! concatenations. That chain survives here, as the oracle: the node's
//! output and its gradients must equal the chain's bit for bit (a NaN
//! only as a NaN: the chain's NaN signs depend on the build), at the
//! level the process runs at (`VITAL_SIMD`; CI runs every level).

use autograd::{Tape, Var};
use nn::{Session, Trace};
use tensor::rng::SeededRng;
use tensor::{MatmulSpec, Tensor, TensorError};

/// The per-block chain the tape recorded for `Trace::attention`.
fn chain<T: Trace>(
    t: &mut T,
    [q, k, v]: [T::Node; 3],
    samples: usize,
    heads: usize,
) -> Result<T::Node, T::Error> {
    let (rows, cols) = t.dims(q)?;
    let (seq_len, head_dim) = (rows / samples, cols / heads);
    let scale = 1.0 / (head_dim as f32).sqrt();
    let mut sample_outputs = Vec::with_capacity(samples);
    for s in 0..samples {
        let (first, end) = (s * seq_len, (s + 1) * seq_len);
        let qs = t.slice_rows(q, first, end)?;
        let ks = t.slice_rows(k, first, end)?;
        let vs = t.slice_rows(v, first, end)?;
        let mut head_outputs = Vec::with_capacity(heads);
        for h in 0..heads {
            let (start, stop) = (h * head_dim, (h + 1) * head_dim);
            let qh = t.slice_cols(qs, start, stop)?;
            let kh = t.slice_cols(ks, start, stop)?;
            let block = t.matmul(qh, kh, MatmulSpec::NT)?;
            let scores = t.scale(block, scale)?;
            let attn = t.softmax_rows(scores)?;
            let vh = t.slice_cols(vs, start, stop)?;
            head_outputs.push(t.matmul(attn, vh, MatmulSpec::NN)?);
        }
        sample_outputs.push(t.concat_cols(&head_outputs)?);
    }
    if samples == 1 {
        Ok(sample_outputs[0])
    } else {
        t.concat_rows(&sample_outputs)
    }
}

/// Each value's bits, a NaN's those of `f32::NAN`.
fn bits(t: &Tensor) -> Vec<u32> {
    let canonical = |x: f32| if x.is_nan() { f32::NAN } else { x };
    t.as_slice()
        .iter()
        .map(|&x| canonical(x).to_bits())
        .collect()
}

/// The output and the Q, K, V gradients of `sum(attention ⊙ d_out)`: the
/// output's gradient is `d_out` exactly.
fn record(
    node: bool,
    qkv: &[Tensor; 3],
    d_out: &Tensor,
    samples: usize,
    heads: usize,
) -> (Tensor, [Tensor; 3]) {
    let tape = Tape::new();
    let mut session = Session::new(&tape, true, 0);
    let vars: [Var<'_>; 3] = std::array::from_fn(|i| tape.var(qkv[i].clone()));
    let out = match node {
        true => session.attention(vars[0], vars[1], vars[2], samples, heads),
        false => chain(&mut session, vars, samples, heads),
    }
    .unwrap();
    let loss = out.mul_mask(d_out).unwrap().sum_all().unwrap();
    let grads = tape.backward(loss).unwrap();
    let grad = |i: usize| grads.get(vars[i]).unwrap().clone();
    (out.value(), [grad(0), grad(1), grad(2)])
}

fn assert_node_is_the_chain(
    (samples, seq, heads, head_dim): (usize, usize, usize, usize),
    specials: &[f32],
    seed: u64,
) {
    let mut rng = SeededRng::new(seed);
    let dims = [samples * seq, heads * head_dim];
    let qkv = [(); 3].map(|_| rng.uniform_tensor(&dims, -2.0, 2.0));
    let mut d_out = rng.uniform_tensor(&dims, -1.0, 1.0);
    for (i, x) in d_out.as_mut_slice().iter_mut().enumerate() {
        if !specials.is_empty() && i % 5 == 0 {
            *x = specials[i / 5 % specials.len()];
        }
    }
    let what = format!("{samples} × {seq} rows, {heads} heads of {head_dim}");
    let (out, grads) = record(true, &qkv, &d_out, samples, heads);
    let (want_out, want_grads) = record(false, &qkv, &d_out, samples, heads);
    assert_eq!(bits(&out), bits(&want_out), "{what}: output");
    for ((name, got), want) in ["dQ", "dK", "dV"].iter().zip(&grads).zip(&want_grads) {
        assert_eq!(bits(got), bits(want), "{what}: {name}");
    }
}

const SHAPES: [(usize, usize, usize, usize); 7] = [
    (1, 1, 1, 1),
    (1, 7, 2, 8),
    (3, 9, 2, 16),
    (2, 17, 4, 1),
    (2, 33, 1, 20),
    (1, 16, 3, 8),
    (2, 100, 5, 16),
];

#[test]
fn the_node_is_the_per_block_chain_on_finite_gradients() {
    for (i, shape) in SHAPES.into_iter().enumerate() {
        assert_node_is_the_chain(shape, &[], i as u64);
    }
}

#[test]
fn the_node_is_the_per_block_chain_on_special_gradients() {
    let specials = [
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        0.0,
        -0.0,
        1.0e-40,
        -1.0e-40,
    ];
    for (i, shape) in SHAPES.into_iter().enumerate() {
        assert_node_is_the_chain(shape, &specials, 100 + i as u64);
    }
}

#[test]
fn attention_is_one_node_on_the_tape() {
    let tape = Tape::new();
    let mut session = Session::new(&tape, true, 0);
    let x = SeededRng::new(1).uniform_tensor(&[6, 4], -1.0, 1.0);
    let [q, k, v] = [(); 3].map(|_| tape.var(x.clone()));
    let before = tape.len();
    session.attention(q, k, v, 2, 2).unwrap();
    assert_eq!(tape.len(), before + 1);
}

#[test]
fn a_constant_operand_gets_no_gradient_and_the_others_theirs() {
    let (samples, heads) = (2, 2);
    let mut rng = SeededRng::new(9);
    let qkv = [(); 3].map(|_| rng.uniform_tensor(&[10, 6], -1.0, 1.0));
    let d_out = rng.uniform_tensor(&[10, 6], -1.0, 1.0);
    let (_, want) = record(true, &qkv, &d_out, samples, heads);
    let tape = Tape::new();
    let mut session = Session::new(&tape, true, 0);
    let q = tape.var(qkv[0].clone());
    let [k, v] = [1, 2].map(|i| tape.constant(qkv[i].clone()));
    let out = session.attention(q, k, v, samples, heads).unwrap();
    let grads = tape
        .backward(out.mul_mask(&d_out).unwrap().sum_all().unwrap())
        .unwrap();
    assert_eq!(bits(grads.get(q).unwrap()), bits(&want[0]));
    assert!(grads.get(k).is_none() && grads.get(v).is_none());
}

#[test]
fn shapes_that_do_not_divide_are_refused() {
    let tape = Tape::new();
    let mut session = Session::new(&tape, true, 0);
    let x = tape.var(Tensor::zeros(&[6, 4]));
    let narrow = tape.var(Tensor::zeros(&[6, 2]));
    let refused = |r: Result<Var<'_>, TensorError>| {
        matches!(
            r,
            Err(TensorError::ShapeMismatch {
                op: "attention",
                ..
            })
        )
    };
    assert!(refused(session.attention(x, x, x, 4, 2)), "rows");
    assert!(refused(session.attention(x, x, x, 2, 3)), "columns");
    assert!(refused(session.attention(x, x, x, 0, 2)), "no samples");
    assert!(refused(session.attention(x, x, x, 2, 0)), "no heads");
    assert!(refused(session.attention(x, narrow, x, 2, 2)), "k's shape");
    assert!(refused(session.attention(x, x, narrow, 2, 2)), "v's shape");
}
