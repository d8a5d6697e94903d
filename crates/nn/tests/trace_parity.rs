//! Every layer spells its arithmetic once, against [`Trace`]. These tests
//! record that one definition on both recorders — an eval-mode tape and an
//! expression graph that is then compiled and executed — and hold the two
//! to the same bits, the same typed errors and the same view of dropout.

use autograd::Tape;
use graph::{Compiler, Graph, GraphError};
use nn::{
    Activation, Conv1d, Dense, Init, LayerNorm, Mlp, MultiHeadSelfAttention, Session,
    StackedAutoencoder, Trace,
};
use tensor::rng::SeededRng;
use tensor::{Tensor, TensorError};

/// A layer's one forward, nameable generically so a test can run it on
/// either recorder.
trait Model {
    fn record<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error>;
}

impl Model for Dense {
    fn record<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        self.forward(t, x)
    }
}

impl Model for LayerNorm {
    fn record<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        self.forward(t, x)
    }
}

impl Model for Mlp {
    fn record<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        self.forward(t, x)
    }
}

impl Model for Conv1d {
    fn record<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        self.forward(t, x)
    }
}

impl Model for StackedAutoencoder {
    fn record<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        self.encode(t, x)
    }
}

/// Attention over a stack of `.1` sequences.
struct Stacked<'a>(&'a MultiHeadSelfAttention, usize);

impl Model for Stacked<'_> {
    fn record<T: Trace>(&self, t: &mut T, x: T::Node) -> Result<T::Node, T::Error> {
        self.0.forward(t, x, self.1)
    }
}

fn eager(model: &impl Model, x: &Tensor) -> Result<Tensor, TensorError> {
    let tape = Tape::new();
    let mut session = Session::new(&tape, false, 0);
    let input = session.constant(x.clone());
    Ok(model.record(&mut session, input)?.value())
}

fn compiled(model: &impl Model, x: &Tensor) -> Result<Tensor, GraphError> {
    let (rows, cols) = x.shape().as_matrix()?;
    let mut g = Graph::new();
    let input = g.input(rows, cols);
    let out = model.record(&mut g, input)?;
    Compiler::new().compile(&g, out)?.execute(&[x])
}

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.shape(), b.shape(), "{what}: shapes");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: element {i}");
    }
}

fn input(seed: u64, rows: usize, cols: usize) -> Tensor {
    SeededRng::new(seed).uniform_tensor(&[rows, cols], -1.0, 1.0)
}

/// Compiled ≡ eager, bit for bit, at 1, 2 and 7 rows per sample.
fn assert_parity(model: &impl Model, samples: usize, cols: usize, what: &str) {
    for rows in [1usize, 2, 7] {
        let x = input(100 + rows as u64, samples * rows, cols);
        assert_bits_equal(
            &compiled(model, &x).unwrap(),
            &eager(model, &x).unwrap(),
            &format!("{what} at {rows} rows"),
        );
    }
}

/// A wrong input shape is a typed error from both recorders, not a panic.
fn assert_rejected(model: &impl Model, x: &Tensor, what: &str) {
    assert!(eager(model, x).is_err(), "{what}: tape accepted {x:?}");
    assert!(compiled(model, x).is_err(), "{what}: graph accepted {x:?}");
}

const ACTIVATIONS: [Activation; 5] = [
    Activation::Gelu,
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
    Activation::Identity,
];

#[test]
fn dense_records_the_same_bits_on_both_recorders() {
    let dense = Dense::new(&mut SeededRng::new(1), 5, 3, Init::He);
    assert_parity(&dense, 1, 5, "dense");
    assert_rejected(&dense, &input(2, 2, 4), "dense");
}

#[test]
fn layer_norm_records_the_same_bits_on_both_recorders() {
    let norm = LayerNorm::new(6);
    let params = nn::Layer::params(&norm);
    params[0].set_value(SeededRng::new(3).uniform_tensor(&[6], 0.5, 1.5));
    params[1].set_value(SeededRng::new(4).uniform_tensor(&[6], -0.5, 0.5));
    assert_parity(&norm, 1, 6, "layer_norm");
    assert_rejected(&norm, &input(5, 2, 5), "layer_norm");
}

#[test]
fn mlp_records_the_same_bits_for_every_activation() {
    for activation in ACTIVATIONS {
        let mlp = Mlp::new(&mut SeededRng::new(6), &[4, 9, 8, 3], activation);
        assert_parity(&mlp, 1, 4, &format!("mlp {activation:?}"));
        assert_rejected(&mlp, &input(7, 2, 5), "mlp");
    }
}

#[test]
fn conv1d_records_the_same_bits_on_both_recorders() {
    let conv = Conv1d::new(&mut SeededRng::new(8), 3, 2, 2).unwrap();
    assert_parity(&conv, 1, 11, "conv1d");
    // Narrower than the kernel.
    assert_rejected(&conv, &input(9, 2, 2), "conv1d");
}

#[test]
fn autoencoder_encode_records_the_same_bits_on_both_recorders() {
    let sae = StackedAutoencoder::new(&mut SeededRng::new(10), 12, &[8, 4]);
    assert_parity(&sae, 1, 12, "sae.encode");
    assert_rejected(&sae, &input(11, 2, 10), "sae.encode");
}

#[test]
fn attention_records_the_same_bits_alone_and_stacked() {
    let msa = MultiHeadSelfAttention::new(&mut SeededRng::new(12), 8, 2).unwrap();
    for samples in [1usize, 3] {
        assert_parity(&Stacked(&msa, samples), samples, 8, "attention");
    }
    assert_rejected(&Stacked(&msa, 1), &input(13, 4, 6), "attention width");
    // Rows that do not divide into the stated number of samples.
    assert_rejected(&Stacked(&msa, 3), &input(14, 7, 8), "attention rows");
    assert_rejected(&Stacked(&msa, 0), &input(15, 4, 8), "attention of nothing");
}

#[test]
fn attention_over_a_stack_equals_each_sample_attended_alone() {
    let msa = MultiHeadSelfAttention::new(&mut SeededRng::new(16), 8, 4).unwrap();
    let (samples, seq_len) = (3, 5);
    let stack = input(17, samples * seq_len, 8);
    type Run = fn(&Stacked<'_>, &Tensor) -> Tensor;
    let recorders: [(&str, Run); 2] = [
        ("tape", |m, x| eager(m, x).unwrap()),
        ("graph", |m, x| compiled(m, x).unwrap()),
    ];
    for (name, run) in recorders {
        let together = run(&Stacked(&msa, samples), &stack);
        for s in 0..samples {
            let rows = (s * seq_len, (s + 1) * seq_len);
            let alone = run(
                &Stacked(&msa, 1),
                &stack.slice_rows(rows.0, rows.1).unwrap(),
            );
            assert_bits_equal(
                &together.slice_rows(rows.0, rows.1).unwrap(),
                &alone,
                &format!("{name}, sample {s}"),
            );
        }
    }
}

#[test]
fn dropout_is_a_mask_in_training_and_the_identity_elsewhere() {
    let ones = Tensor::ones(&[20, 10]);

    let tape = Tape::new();
    let mut training = Session::new(&tape, true, 7);
    let x = training.constant(ones.clone());
    let dropped = training.dropout(x, 0.5).unwrap().value();
    let zeros = dropped.as_slice().iter().filter(|v| **v == 0.0).count();
    assert!(zeros > 50 && zeros < 150, "zeros = {zeros}");
    assert!(dropped.as_slice().iter().all(|v| *v == 0.0 || *v == 2.0));

    let tape = Tape::new();
    let mut eval = Session::new(&tape, false, 7);
    let x = eval.constant(ones);
    assert_eq!(eval.dropout(x, 0.5).unwrap().id(), x.id());
    assert_eq!(tape.len(), 1, "an eval session records no dropout node");

    let mut g = Graph::new();
    let x = g.input(20, 10);
    assert_eq!(g.dropout(x, 0.5).unwrap(), x);
    assert_eq!(g.len(), 1, "the graph records no dropout node");

    // So a model with dropout compiles to its eval-mode arithmetic.
    let mlp = Mlp::new(&mut SeededRng::new(18), &[4, 16, 2], Activation::Relu).with_dropout(0.5);
    assert_parity(&mlp, 1, 4, "mlp with dropout");
}
