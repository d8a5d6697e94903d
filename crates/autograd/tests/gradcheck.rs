//! Property-based finite-difference gradient checks on randomly generated
//! computation graphs that exercise the composition of autograd primitives
//! the VITAL transformer relies on (affine → layer-norm → GELU → softmax).

use autograd::Tape;
use proptest::prelude::*;
use tensor::rng::SeededRng;
use tensor::{MatmulSpec, Tensor};

/// Scalar objective used in all checks: a fixed-weight sum so the gradient is
/// non-trivial but deterministic.
fn weighted_sum(t: &Tensor, weights: &Tensor) -> f32 {
    t.mul(weights).unwrap().sum()
}

fn finite_diff(x: &Tensor, f: impl Fn(&Tensor) -> f32, eps: f32) -> Tensor {
    let mut grad = x.zeros_like();
    for i in 0..x.len() {
        let mut plus = x.clone();
        plus.as_mut_slice()[i] += eps;
        let mut minus = x.clone();
        minus.as_mut_slice()[i] -= eps;
        grad.as_mut_slice()[i] = (f(&plus) - f(&minus)) / (2.0 * eps);
    }
    grad
}

fn assert_close(analytic: &Tensor, numeric: &Tensor, tol: f32) -> Result<(), TestCaseError> {
    for (a, n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
        prop_assert!(
            (a - n).abs() < tol.max(0.02 * n.abs()),
            "analytic {a} vs numeric {n}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dense_gelu_chain_gradcheck(seed in 0u64..500, rows in 1usize..4, inner in 1usize..5, cols in 1usize..4) {
        let mut rng = SeededRng::new(seed);
        let x = rng.uniform_tensor(&[rows, inner], -1.0, 1.0);
        let w = rng.uniform_tensor(&[inner, cols], -1.0, 1.0);
        let b = rng.uniform_tensor(&[cols], -0.5, 0.5);
        let weights = rng.uniform_tensor(&[rows, cols], -1.0, 1.0);

        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let wv = tape.var(w.clone());
        let bv = tape.var(b.clone());
        let out = xv.matmul(wv).unwrap().add_row_broadcast(bv).unwrap().gelu();
        let loss = out.mul_mask(&weights).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();

        let wc = weights.clone();
        let xc = x.clone();
        let bc = b.clone();
        let numeric_w = finite_diff(&w, |w_| {
            let y = xc.matmul(w_).unwrap().add_row_broadcast(&bc).unwrap();
            weighted_sum(&y.map(|v| 0.5 * v * (1.0 + (0.797_884_6 * (v + 0.044_715 * v * v * v)).tanh())), &wc)
        }, 1e-3);
        assert_close(grads.get(wv).unwrap(), &numeric_w, 3e-2)?;
    }

    #[test]
    fn layernorm_softmax_chain_gradcheck(seed in 0u64..500, rows in 1usize..4, cols in 2usize..6) {
        let mut rng = SeededRng::new(seed);
        let x = rng.uniform_tensor(&[rows, cols], -2.0, 2.0);
        let gamma = rng.uniform_tensor(&[cols], 0.5, 1.5);
        let beta = rng.uniform_tensor(&[cols], -0.5, 0.5);
        let weights = rng.uniform_tensor(&[rows, cols], -1.0, 1.0);

        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let gv = tape.constant(gamma.clone());
        let bv = tape.constant(beta.clone());
        let out = xv
            .layer_norm(gv, bv, 1e-5)
            .unwrap()
            .softmax_rows()
            .unwrap();
        let loss = out.mul_mask(&weights).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();

        let reference = |x_: &Tensor| {
            let (r, c) = x_.shape().as_matrix().unwrap();
            let mut normalized = vec![0.0f32; r * c];
            for i in 0..r {
                let row = &x_.as_slice()[i * c..(i + 1) * c];
                let mean: f32 = row.iter().sum::<f32>() / c as f32;
                let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / c as f32;
                for j in 0..c {
                    normalized[i * c + j] =
                        gamma.as_slice()[j] * (row[j] - mean) / (var + 1e-5).sqrt() + beta.as_slice()[j];
                }
            }
            let n = Tensor::from_vec(normalized, &[r, c]).unwrap();
            weighted_sum(&n.softmax_rows().unwrap(), &weights)
        };
        let numeric = finite_diff(&x, reference, 1e-3);
        assert_close(grads.get(xv).unwrap(), &numeric, 3e-2)?;
    }

    #[test]
    fn packed_gemm_gradcheck_across_panel_boundaries(
        seed in 0u64..300,
        m in 1usize..11,
        inner in 1usize..19,
        cols in 1usize..11,
    ) {
        // Sizes straddle the kernel's MR/NR tile edges within one B panel
        // or two; `packed_path_gradcheck` below covers many-panel products.
        // Every spec records one node over operands stored pre-transposed;
        // the reference multiplies the materialised transposes.
        let mut rng = SeededRng::new(seed.wrapping_add(7_000));
        let weights = rng.uniform_tensor(&[m, cols], -1.0, 1.0);
        for spec in [MatmulSpec::NN, MatmulSpec::NT, MatmulSpec::TN, MatmulSpec::TT] {
            let x_dims = if spec.trans_a { [inner, m] } else { [m, inner] };
            let w_dims = if spec.trans_b { [cols, inner] } else { [inner, cols] };
            let x = rng.uniform_tensor(&x_dims, -1.0, 1.0);
            let w = rng.uniform_tensor(&w_dims, -1.0, 1.0);

            let tape = Tape::new();
            let xv = tape.var(x.clone());
            let wv = tape.var(w.clone());
            let out = xv.matmul_ex(wv, spec).unwrap();
            let loss = out.mul_mask(&weights).unwrap().sum_all().unwrap();
            let grads = tape.backward(loss).unwrap();

            let reference = |x_: &Tensor, w_: &Tensor| {
                let a = if spec.trans_a { x_.transpose().unwrap() } else { x_.clone() };
                let b = if spec.trans_b { w_.transpose().unwrap() } else { w_.clone() };
                weighted_sum(&a.matmul(&b).unwrap(), &weights)
            };
            let numeric_w = finite_diff(&w, |w_| reference(&x, w_), 1e-3);
            assert_close(grads.get(wv).unwrap(), &numeric_w, 2e-2)?;
            let numeric_x = finite_diff(&x, |x_| reference(x_, &w), 1e-3);
            assert_close(grads.get(xv).unwrap(), &numeric_x, 2e-2)?;
        }
    }

    #[test]
    fn rank1_rhs_matmul_gradcheck(seed in 0u64..300, m in 1usize..6, inner in 2usize..9) {
        // The k×1-column interpretation of a rank-1 RHS must backprop a
        // rank-1 gradient of the same length.
        let mut rng = SeededRng::new(seed.wrapping_add(8_000));
        let a = rng.uniform_tensor(&[m, inner], -1.0, 1.0);
        let v = rng.uniform_tensor(&[inner], -1.0, 1.0);
        let weights = rng.uniform_tensor(&[m, 1], -1.0, 1.0);

        let tape = Tape::new();
        let av = tape.var(a.clone());
        let vv = tape.var(v.clone());
        let out = av.matmul(vv).unwrap();
        prop_assert!(out.value().shape().dims() == [m, 1]);
        let loss = out.mul_mask(&weights).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();

        let grad_v = grads.get(vv).unwrap();
        prop_assert!(grad_v.shape().dims() == [inner]);
        let ac = a.clone();
        let wc = weights.clone();
        let numeric_v = finite_diff(&v, |v_| {
            weighted_sum(&ac.matmul(&v_.reshape(&[v_.len(), 1]).unwrap()).unwrap(), &wc)
        }, 1e-3);
        assert_close(grad_v, &numeric_v, 2e-2)?;
    }

    #[test]
    fn batched_stack_ops_gradcheck(
        seed in 0u64..300,
        samples in 1usize..4,
        block in 1usize..4,
        cols in 1usize..5,
    ) {
        // add_tile_rows → mean_pool_row_blocks: the batched ViT spine.
        let mut rng = SeededRng::new(seed.wrapping_add(9_000));
        let x = rng.uniform_tensor(&[samples * block, cols], -1.0, 1.0);
        let tile = rng.uniform_tensor(&[block, cols], -1.0, 1.0);
        let weights = rng.uniform_tensor(&[samples, cols], -1.0, 1.0);

        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let tv = tape.var(tile.clone());
        let pooled = xv
            .add_tile_rows(tv, samples)
            .unwrap()
            .mean_pool_row_blocks(block)
            .unwrap();
        let loss = pooled.mul_mask(&weights).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();

        let reference = |x_: &Tensor, tile_: &Tensor| {
            let tiled = Tensor::concat_rows(&vec![tile_; samples]).unwrap();
            let summed = x_.add(&tiled).unwrap();
            weighted_sum(&summed.mean_row_blocks(block).unwrap(), &weights)
        };
        let tc = tile.clone();
        let numeric_x = finite_diff(&x, |x_| reference(x_, &tc), 1e-3);
        assert_close(grads.get(xv).unwrap(), &numeric_x, 2e-2)?;
        let xc = x.clone();
        let numeric_t = finite_diff(&tile, |t_| reference(&xc, t_), 1e-3);
        assert_close(grads.get(tv).unwrap(), &numeric_t, 2e-2)?;
    }

    #[test]
    fn overlapping_slices_and_dense_use_gradcheck(
        seed in 0u64..300,
        rows in 2usize..6,
        cols in 2usize..6,
        order in 0u8..2,
    ) {
        // One parent read by two overlapping row slices, a column slice
        // and whole, each weighted and through a non-linearity; whichever
        // the backward pass reaches first, every read adds its share.
        let mut rng = SeededRng::new(seed.wrapping_add(10_000));
        let x = rng.uniform_tensor(&[rows, cols], -1.0, 1.0);
        let (split, band) = (rows / 2, 1..cols);
        let w_top = rng.uniform_tensor(&[split + 1, cols], -1.0, 1.0);
        let w_low = rng.uniform_tensor(&[rows - split, cols], -1.0, 1.0);
        let w_band = rng.uniform_tensor(&[rows, band.len()], -1.0, 1.0);
        let w_dense = rng.uniform_tensor(&[rows, cols], -1.0, 1.0);

        let dense_first = order == 1;
        let tape = Tape::new();
        let xv = tape.var(x.clone());
        let dense = || xv.tanh().mul_mask(&w_dense).unwrap().sum_all().unwrap();
        let mut terms = Vec::new();
        if !dense_first {
            terms.push(dense());
        }
        terms.push(xv.slice_rows(0, split + 1).unwrap().gelu().mul_mask(&w_top).unwrap().sum_all().unwrap());
        terms.push(xv.slice_rows(split, rows).unwrap().mul_mask(&w_low).unwrap().sum_all().unwrap());
        terms.push(xv.slice_cols(band.start, band.end).unwrap().sigmoid().mul_mask(&w_band).unwrap().sum_all().unwrap());
        if dense_first {
            terms.push(dense());
        }
        let loss = terms[1..].iter().fold(terms[0], |acc, &t| acc.add(t).unwrap());
        let grads = tape.backward(loss).unwrap();

        let gelu = |v: f32| 0.5 * v * (1.0 + (0.797_884_6 * (v + 0.044_715 * v * v * v)).tanh());
        let reference = |x_: &Tensor| {
            weighted_sum(&x_.slice_rows(0, split + 1).unwrap().map(gelu), &w_top)
                + weighted_sum(&x_.slice_rows(split, rows).unwrap(), &w_low)
                + weighted_sum(
                    &x_.slice_cols(band.start, band.end).unwrap().map(|v| 1.0 / (1.0 + (-v).exp())),
                    &w_band,
                )
                + weighted_sum(&x_.map(f32::tanh), &w_dense)
        };
        let numeric = finite_diff(&x, reference, 1e-3);
        assert_close(grads.get(xv).unwrap(), &numeric, 3e-2)?;
    }

    #[test]
    fn cross_entropy_gradcheck(seed in 0u64..500, batch in 1usize..4, classes in 2usize..6) {
        let mut rng = SeededRng::new(seed);
        let logits = rng.uniform_tensor(&[batch, classes], -2.0, 2.0);
        let targets: Vec<usize> = (0..batch).map(|_| rng.index(classes)).collect();

        let tape = Tape::new();
        let lv = tape.var(logits.clone());
        let loss = lv.softmax_cross_entropy(&targets).unwrap();
        let grads = tape.backward(loss).unwrap();

        let numeric = finite_diff(&logits, |l| {
            let probs = l.softmax_rows().unwrap();
            let mut total = 0.0;
            for (i, &t) in targets.iter().enumerate() {
                total -= probs.at(i, t).unwrap().max(1e-12).ln();
            }
            total / batch as f32
        }, 1e-3);
        assert_close(grads.get(lv).unwrap(), &numeric, 2e-2)?;
    }

    #[test]
    fn attention_like_block_gradcheck(seed in 0u64..300, n in 2usize..4, d in 2usize..4) {
        // score = softmax(Q Kᵀ / sqrt(d)) V — the core of MSA.
        let mut rng = SeededRng::new(seed);
        let q = rng.uniform_tensor(&[n, d], -1.0, 1.0);
        let k = rng.uniform_tensor(&[n, d], -1.0, 1.0);
        let v = rng.uniform_tensor(&[n, d], -1.0, 1.0);
        let weights = rng.uniform_tensor(&[n, d], -1.0, 1.0);
        let scale = 1.0 / (d as f32).sqrt();

        let tape = Tape::new();
        let qv = tape.var(q.clone());
        let kv = tape.constant(k.clone());
        let vv = tape.constant(v.clone());
        let scores = qv
            .matmul_ex(kv, MatmulSpec::NT)
            .unwrap()
            .scale(scale)
            .softmax_rows()
            .unwrap();
        let out = scores.matmul(vv).unwrap();
        let loss = out.mul_mask(&weights).unwrap().sum_all().unwrap();
        let grads = tape.backward(loss).unwrap();

        let numeric = finite_diff(&q, |q_| {
            let s = q_
                .matmul(&k.transpose().unwrap())
                .unwrap()
                .scale(scale)
                .softmax_rows()
                .unwrap();
            weighted_sum(&s.matmul(&v).unwrap(), &weights)
        }, 1e-3);
        assert_close(grads.get(qv).unwrap(), &numeric, 3e-2)?;
    }
}

/// Deterministic gradcheck at a size whose forward and backward GEMMs all
/// span several B panels and row bands with padded edge panels and short
/// last bands, so those tile edges are part of what gets differentiated.
#[test]
fn packed_path_gradcheck() {
    let (m, inner, cols) = (9, 70, 67);
    let mut rng = SeededRng::new(1234);
    let x = rng.uniform_tensor(&[m, inner], -1.0, 1.0);
    let w = rng.uniform_tensor(&[inner, cols], -1.0, 1.0);
    let weights = rng.uniform_tensor(&[m, cols], -1.0, 1.0);

    let tape = Tape::new();
    let xv = tape.constant(x.clone());
    let wv = tape.var(w.clone());
    let loss = xv
        .matmul(wv)
        .unwrap()
        .mul_mask(&weights)
        .unwrap()
        .sum_all()
        .unwrap();
    let grads = tape.backward(loss).unwrap();

    let numeric = finite_diff(
        &w,
        |w_| weighted_sum(&x.matmul(w_).unwrap(), &weights),
        1e-3,
    );
    let analytic = grads.get(wv).unwrap();
    for (a, n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
        assert!(
            (a - n).abs() < 0.02f32.max(0.02 * n.abs()),
            "analytic {a} vs numeric {n}"
        );
    }
}

/// Gradcheck through the one `MultiHeadSelfAttention::forward` recorded on
/// the tape for a stack of two sequences: the block-local order slices the
/// stacked projections per `(sample, head)`, and every slice's gradient
/// must find its way back into the right rows and columns of the input.
#[test]
fn stacked_attention_gradcheck() {
    use nn::{MultiHeadSelfAttention, Session};

    let (samples, seq_len, d_model) = (2, 3, 4);
    let mut rng = SeededRng::new(77);
    let msa = MultiHeadSelfAttention::new(&mut rng, d_model, 2).unwrap();
    let x = rng.uniform_tensor(&[samples * seq_len, d_model], -1.0, 1.0);
    let weights = rng.uniform_tensor(&[samples * seq_len, d_model], -1.0, 1.0);

    let tape = Tape::new();
    let mut session = Session::new(&tape, false, 0);
    let xv = tape.var(x.clone());
    let out = msa.forward(&mut session, xv, samples).unwrap();
    let loss = out.mul_mask(&weights).unwrap().sum_all().unwrap();
    let grads = tape.backward(loss).unwrap();

    let numeric = finite_diff(
        &x,
        |x_| {
            let tape = Tape::new();
            let mut session = Session::new(&tape, false, 0);
            let xv = session.constant(x_.clone());
            let out = msa.forward(&mut session, xv, samples).unwrap();
            weighted_sum(&out.value(), &weights)
        },
        1e-2,
    );
    let analytic = grads.get(xv).unwrap();
    for (a, n) in analytic.as_slice().iter().zip(numeric.as_slice()) {
        assert!(
            (a - n).abs() < 0.02f32.max(0.02 * n.abs()),
            "analytic {a} vs numeric {n}"
        );
    }
}

/// Multi-head attention of `samples` stacked sequences in `f64`, written
/// from eqs. (1)–(4) alone: for each sample and head,
/// `softmax(Q·Kᵀ / √head_dim) · V` into the head's columns.
fn attention_f64(qkv: [&[f64]; 3], (samples, heads, cols): (usize, usize, usize)) -> Vec<f64> {
    let [q, k, v] = qkv;
    let seq = q.len() / (samples * cols);
    let head_dim = cols / heads;
    let mut out = vec![0.0; q.len()];
    for s in 0..samples {
        let at = |i: usize, h: usize, c: usize| (s * seq + i) * cols + h * head_dim + c;
        for h in 0..heads {
            for i in 0..seq {
                let scores: Vec<f64> = (0..seq)
                    .map(|j| {
                        let dot: f64 = (0..head_dim).map(|c| q[at(i, h, c)] * k[at(j, h, c)]).sum();
                        dot / (head_dim as f64).sqrt()
                    })
                    .collect();
                let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let exps: Vec<f64> = scores.iter().map(|x| (x - max).exp()).collect();
                let total: f64 = exps.iter().sum();
                for c in 0..head_dim {
                    out[at(i, h, c)] = (0..seq).map(|j| exps[j] / total * v[at(j, h, c)]).sum();
                }
            }
        }
    }
    out
}

/// Gradcheck of the one attention node (`Var::attention`) against central
/// differences of [`attention_f64`], which shares no code with the node's
/// kernels or with the per-block chain they replaced: two heads, and
/// sequences whose lengths are no multiple of a bundle's eight or sixteen
/// lanes, so both the bundles' live lanes and their padded tails carry
/// gradient.
#[test]
fn attention_node_gradcheck() {
    for (seed, samples, seq, head_dim) in [(5u64, 2, 9, 3), (6, 1, 17, 4), (7, 3, 5, 2)] {
        let heads = 2;
        let cols = heads * head_dim;
        let mut rng = SeededRng::new(seed);
        let dims = [samples * seq, cols];
        let qkv = [(); 3].map(|_| rng.uniform_tensor(&dims, -1.5, 1.5));
        let weights = rng.uniform_tensor(&dims, -1.0, 1.0);

        let tape = Tape::new();
        let [q, k, v] = [0, 1, 2].map(|i| tape.var(qkv[i].clone()));
        let loss = q
            .attention(k, v, samples, heads)
            .unwrap()
            .mul_mask(&weights)
            .unwrap()
            .sum_all()
            .unwrap();
        let grads = tape.backward(loss).unwrap();

        let wide = |t: &Tensor| {
            t.as_slice()
                .iter()
                .map(|&x| f64::from(x))
                .collect::<Vec<f64>>()
        };
        let w = wide(&weights);
        let loss_at = |inputs: &[Vec<f64>; 3]| -> f64 {
            let out = attention_f64([&inputs[0], &inputs[1], &inputs[2]], (samples, heads, cols));
            out.iter().zip(&w).map(|(o, w)| o * w).sum()
        };
        let eps = 1e-4;
        for (operand, var) in [q, k, v].into_iter().enumerate() {
            let analytic = grads.get(var).unwrap();
            for idx in 0..analytic.len() {
                let mut inputs = qkv.each_ref().map(wide);
                inputs[operand][idx] += eps;
                let plus = loss_at(&inputs);
                inputs[operand][idx] -= 2.0 * eps;
                let numeric = (plus - loss_at(&inputs)) / (2.0 * eps);
                let a = f64::from(analytic.as_slice()[idx]);
                assert!(
                    (a - numeric).abs() < 1e-4 + 1e-3 * numeric.abs(),
                    "seed {seed}, operand {operand}, element {idx}: analytic {a} vs numeric {numeric}"
                );
            }
        }
    }
}
