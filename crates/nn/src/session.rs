use autograd::{Tape, Var};
use tensor::rng::{word_threshold, DrawKey};
use tensor::{MatmulSpec, Tensor, TensorError};

use crate::{Activation, Param, Result, Trace};

/// One forward/backward pass over a model.
///
/// A `Session` wraps an autograd [`Tape`] together with:
///
/// * the *training* flag (controls dropout),
/// * the [`DrawKey`] its dropout masks are keyed by, and
/// * the list of [`Param`]s registered during the forward pass, so that
///   [`Session::backward`] can hand each one's gradient to the optimizer.
///
/// Build a fresh `Session` (and tape) for every batch. A session is the
/// tape-side [`crate::Trace`] recorder: layers are run on it with
/// `layer.forward(&mut session, x)`.
///
/// Its [`crate::Trace::param`] takes the `O(1)` weight snapshot every
/// reader uses; gradients leave through [`Session::backward`]'s return
/// value and touch no shared state, so a pass on one thread never waits on
/// a pass on another.
pub struct Session<'t> {
    tape: &'t Tape,
    training: bool,
    key: DrawKey,
    /// Dropout nodes recorded so far: the next one's site word.
    dropouts: u32,
    registered: Vec<(Param, Var<'t>)>,
}

impl<'t> Session<'t> {
    /// Creates a session over `tape`.
    ///
    /// `training` enables dropout, keyed as by [`Session::keyed`] with the
    /// family `(0, 0)` of `seed`.
    pub fn new(tape: &'t Tape, training: bool, seed: u64) -> Self {
        let mut session = Session::keyed(tape, DrawKey::new(seed, [0, 0]));
        session.training = training;
        session
    }

    /// A training session whose dropout masks are keyed by `key`: element
    /// `i` of the `n`-th dropout node recorded is dropped by word `i % 4`
    /// of `key.block([i / 4, n])`. A mask is then a pure function of the
    /// key (for a training loop, its seed, epoch and batch), the node and
    /// the element.
    pub fn keyed(tape: &'t Tape, key: DrawKey) -> Self {
        Session {
            tape,
            training: true,
            key,
            dropouts: 0,
            registered: Vec::new(),
        }
    }

    /// The underlying tape.
    pub fn tape(&self) -> &'t Tape {
        self.tape
    }

    /// Places a non-trainable tensor (input batch, target, mask) on the tape.
    pub fn constant(&self, value: Tensor) -> Var<'t> {
        self.tape.constant(value)
    }

    /// Runs the backward pass from `loss` and returns the gradient of
    /// every registered parameter it reaches: one entry per distinct
    /// parameter, in first-registration order. A parameter registered more
    /// than once (a layer applied twice, a per-sample forward on a shared
    /// tape) gets the sum of its gradients, added in registration order.
    ///
    /// # Errors
    /// Propagates tape errors (e.g. `loss` not being a scalar).
    pub fn backward(&self, loss: Var<'t>) -> Result<Vec<(Param, Tensor)>> {
        let tape_grads = self.tape.backward(loss)?;
        let mut grads: Vec<(Param, Tensor)> = Vec::new();
        for (param, var) in &self.registered {
            let Some(grad) = tape_grads.get(*var) else {
                continue;
            };
            match grads.iter_mut().find(|(p, _)| p.key() == param.key()) {
                Some((_, sum)) => *sum = sum.add(grad)?,
                None => grads.push((param.clone(), grad.clone())),
            }
        }
        Ok(grads)
    }
}

impl<'t> Trace for Session<'t> {
    type Node = Var<'t>;
    type Error = TensorError;

    fn dims(&self, x: Var<'t>) -> Result<(usize, usize)> {
        x.value().shape().as_matrix()
    }

    fn param(&mut self, p: &Param) -> Result<Var<'t>> {
        let var = self.tape.var(p.value());
        self.registered.push((p.clone(), var));
        Ok(var)
    }

    fn frozen(&mut self, value: Tensor) -> Result<Var<'t>> {
        Ok(self.constant(value))
    }

    fn matmul(&mut self, a: Var<'t>, b: Var<'t>, spec: MatmulSpec) -> Result<Var<'t>> {
        a.matmul_ex(b, spec)
    }

    fn activate(&mut self, x: Var<'t>, f: Activation) -> Result<Var<'t>> {
        Ok(match f {
            Activation::Gelu => x.gelu(),
            Activation::Relu => x.relu(),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => x.sigmoid(),
            Activation::Identity => x,
        })
    }

    fn scale(&mut self, x: Var<'t>, c: f32) -> Result<Var<'t>> {
        Ok(x.scale(c))
    }

    fn add(&mut self, a: Var<'t>, b: Var<'t>) -> Result<Var<'t>> {
        a.add(b)
    }

    fn softmax_rows(&mut self, x: Var<'t>) -> Result<Var<'t>> {
        x.softmax_rows()
    }

    fn layer_norm(
        &mut self,
        x: Var<'t>,
        gamma: Var<'t>,
        beta: Var<'t>,
        eps: f32,
    ) -> Result<Var<'t>> {
        x.layer_norm(gamma, beta, eps)
    }

    fn add_row_broadcast(&mut self, x: Var<'t>, row: Var<'t>) -> Result<Var<'t>> {
        x.add_row_broadcast(row)
    }

    fn add_tile_rows(&mut self, x: Var<'t>, tile: Var<'t>, reps: usize) -> Result<Var<'t>> {
        x.add_tile_rows(tile, reps)
    }

    fn mean_row_blocks(&mut self, x: Var<'t>, block_rows: usize) -> Result<Var<'t>> {
        x.mean_pool_row_blocks(block_rows)
    }

    fn concat_rows(&mut self, parts: &[Var<'t>]) -> Result<Var<'t>> {
        Var::concat_rows(parts)
    }

    fn concat_cols(&mut self, parts: &[Var<'t>]) -> Result<Var<'t>> {
        Var::concat_cols(parts)
    }

    fn slice_rows(&mut self, x: Var<'t>, start: usize, end: usize) -> Result<Var<'t>> {
        x.slice_rows(start, end)
    }

    fn slice_cols(&mut self, x: Var<'t>, start: usize, end: usize) -> Result<Var<'t>> {
        x.slice_cols(start, end)
    }

    fn attention(
        &mut self,
        q: Var<'t>,
        k: Var<'t>,
        v: Var<'t>,
        samples: usize,
        heads: usize,
    ) -> Result<Var<'t>> {
        q.attention(k, v, samples, heads)
    }

    fn dropout(&mut self, x: Var<'t>, rate: f32) -> Result<Var<'t>> {
        if !self.training || rate <= 0.0 {
            return Ok(x);
        }
        let rate = rate.min(0.999);
        let (threshold, keep_scale) = (word_threshold(rate), 1.0 / (1.0 - rate));
        let node = self.dropouts;
        self.dropouts += 1;
        let value = x.value();
        let mut words = vec![0; value.len()];
        self.key.words(node, &mut words);
        // Collected in place: the words' buffer becomes the mask's.
        let mask = words
            .into_iter()
            .map(|w| {
                if u64::from(w) < threshold {
                    0.0
                } else {
                    keep_scale
                }
            })
            .collect();
        x.mul_mask(&Tensor::from_vec(mask, value.shape().dims())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autograd::Tape;

    #[test]
    fn registers_params_and_collects_grads() {
        let p = Param::new("w", Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 0);
        let w = session.param(&p).unwrap();
        let x = session.constant(Tensor::from_vec(vec![4.0, 5.0], &[2]).unwrap());
        let loss = w.mul(x).unwrap().sum_all().unwrap();
        let grads = session.backward(loss).unwrap();
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0.key(), p.key());
        assert_eq!(grads[0].1.as_slice(), &[4.0, 5.0]);
    }

    #[test]
    fn a_param_registered_again_gets_one_summed_gradient() {
        let vec2 = |a: f32, b: f32| Tensor::from_vec(vec![a, b], &[2]).unwrap();
        let shared = Param::new("shared", vec2(1.0, 1.0));
        let other = Param::new("other", vec2(2.0, 3.0));
        let unreached = Param::new("unreached", Tensor::ones(&[2]));
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 0);
        // Three uses of `shared` whose gradients are 1e8, 1 and -1e8 in the
        // first element: only (1e8 + 1) + -1e8, registration order, is 0.
        let mut total = session.constant(Tensor::zeros(&[2]));
        for a in [1e8, 1.0, -1e8] {
            if a == 1.0 {
                total = total
                    .add(session.param(&other).unwrap().scale(7.0))
                    .unwrap();
                session.param(&unreached).unwrap();
            }
            let use_of_shared = session.param(&shared).unwrap().mul_mask(&vec2(a, 1.0));
            total = total.add(use_of_shared.unwrap()).unwrap();
        }
        let grads = session.backward(total.sum_all().unwrap()).unwrap();
        let names: Vec<String> = grads.iter().map(|(p, _)| p.name()).collect();
        assert_eq!(names, ["shared", "other"], "once each, unreached absent");
        assert_eq!(grads[0].1.as_slice(), &[0.0, 3.0]);
        assert_eq!(grads[1].1.as_slice(), &[7.0, 7.0]);
    }

    #[test]
    fn dropout_disabled_in_eval_mode() {
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let x = session.constant(Tensor::ones(&[4, 4]));
        let y = session.dropout(x, 0.9).unwrap();
        assert_eq!(y.value(), Tensor::ones(&[4, 4]));
    }

    #[test]
    fn dropout_zeroes_and_rescales_in_training() {
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 7);
        let x = session.constant(Tensor::ones(&[100, 10]));
        let y = session.dropout(x, 0.5).unwrap().value();
        let zeros = y.as_slice().iter().filter(|v| **v == 0.0).count();
        assert!(zeros > 300 && zeros < 700, "zeros = {zeros}");
        let kept = y.as_slice().iter().find(|v| **v != 0.0).unwrap();
        assert!((kept - 2.0).abs() < 1e-6);
    }

    #[test]
    fn dropout_with_zero_rate_is_identity() {
        let tape = Tape::new();
        let mut session = Session::new(&tape, true, 7);
        let x = session.constant(Tensor::ones(&[2, 2]));
        let y = session.dropout(x, 0.0).unwrap();
        assert_eq!(y.value(), Tensor::ones(&[2, 2]));
    }

    #[test]
    fn keyed_masks_are_a_function_of_key_node_and_element() {
        let key = DrawKey::new(5, [2, 7]);
        let masks = |key| {
            let tape = Tape::new();
            let mut session = Session::keyed(&tape, key);
            let x = session.constant(Tensor::ones(&[6, 5]));
            [0, 1].map(|_| session.dropout(x, 0.5).unwrap().value())
        };
        let [first, second] = masks(key);
        assert_ne!(first, second, "two dropout nodes, two masks");
        assert_eq!(masks(key), [first.clone(), second]);
        assert_ne!(masks(DrawKey::new(5, [2, 8]))[0], first, "another batch");
        // Element i of node 0 is word i % 4 of the block at [i / 4, 0].
        for (i, &m) in first.as_slice().iter().enumerate() {
            let word = key.block([(i / 4) as u32, 0])[i % 4];
            assert_eq!(
                m == 0.0,
                u64::from(word) < word_threshold(0.5),
                "element {i}"
            );
        }
    }

    #[test]
    fn same_seed_same_dropout_mask() {
        let run = |seed: u64| {
            let tape = Tape::new();
            let mut session = Session::new(&tape, true, seed);
            let x = session.constant(Tensor::ones(&[10, 10]));
            session.dropout(x, 0.3).unwrap().value()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
