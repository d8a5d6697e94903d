//! Checkpoint support for every layer: a freshly constructed layer of the
//! same architecture, restored from another layer's `state_dict`, must
//! produce bit-identical forward passes.

use autograd::Tape;
use nn::{
    Activation, Conv1d, Dense, Init, Layer, LayerNorm, Mlp, MultiHeadSelfAttention, Session,
    StackedAutoencoder,
};
use tensor::rng::SeededRng;
use tensor::{Tensor, TensorError};

/// Runs `layer`'s forward on `x` via a fresh inference session.
fn forward<L: Layer>(
    layer: &L,
    x: &Tensor,
    f: impl for<'t> Fn(&L, &mut Session<'t>, autograd::Var<'t>) -> nn::Result<autograd::Var<'t>>,
) -> Tensor {
    let tape = Tape::new();
    let mut session = Session::new(&tape, false, 0);
    let input = session.constant(x.clone());
    f(layer, &mut session, input).unwrap().value()
}

/// Asserts two tensors carry identical bit patterns.
fn assert_bits_equal(a: &Tensor, b: &Tensor) {
    assert_eq!(a.shape(), b.shape());
    for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "forward passes diverged");
    }
}

#[test]
fn dense_round_trips_bit_exactly() {
    let mut rng_a = SeededRng::new(1);
    let mut rng_b = SeededRng::new(2);
    let original = Dense::new(&mut rng_a, 6, 4, Init::Xavier);
    let restored = Dense::new(&mut rng_b, 6, 4, Init::Xavier);
    restored.load_state(&original.state_dict()).unwrap();

    let x = SeededRng::new(3).uniform_tensor(&[5, 6], -1.0, 1.0);
    assert_bits_equal(
        &forward(&original, &x, |l, s, v| l.forward(s, v)),
        &forward(&restored, &x, |l, s, v| l.forward(s, v)),
    );
}

#[test]
fn layer_norm_round_trips_bit_exactly() {
    let original = LayerNorm::new(8);
    // Perturb the original away from its identity initialisation.
    original.params()[0].set_value(SeededRng::new(4).uniform_tensor(&[8], 0.5, 1.5));
    let restored = LayerNorm::new(8);
    restored.load_state(&original.state_dict()).unwrap();

    let x = SeededRng::new(5).uniform_tensor(&[3, 8], -2.0, 2.0);
    assert_bits_equal(
        &forward(&original, &x, |l, s, v| l.forward(s, v)),
        &forward(&restored, &x, |l, s, v| l.forward(s, v)),
    );
}

#[test]
fn conv1d_round_trips_bit_exactly() {
    let mut rng_a = SeededRng::new(6);
    let mut rng_b = SeededRng::new(7);
    let original = Conv1d::new(&mut rng_a, 3, 4, 1).unwrap();
    let restored = Conv1d::new(&mut rng_b, 3, 4, 1).unwrap();
    restored.load_state(&original.state_dict()).unwrap();

    let x = SeededRng::new(8).uniform_tensor(&[2, 10], -1.0, 1.0);
    assert_bits_equal(
        &forward(&original, &x, |l, s, v| l.forward(s, v)),
        &forward(&restored, &x, |l, s, v| l.forward(s, v)),
    );
}

#[test]
fn attention_round_trips_bit_exactly() {
    let mut rng_a = SeededRng::new(9);
    let mut rng_b = SeededRng::new(10);
    let original = MultiHeadSelfAttention::new(&mut rng_a, 16, 4).unwrap();
    let restored = MultiHeadSelfAttention::new(&mut rng_b, 16, 4).unwrap();
    restored.load_state(&original.state_dict()).unwrap();

    let x = SeededRng::new(11).uniform_tensor(&[7, 16], -1.0, 1.0);
    assert_bits_equal(
        &forward(&original, &x, |l, s, v| l.forward(s, v, 1)),
        &forward(&restored, &x, |l, s, v| l.forward(s, v, 1)),
    );
}

#[test]
fn mlp_round_trips_bit_exactly() {
    let mut rng_a = SeededRng::new(12);
    let mut rng_b = SeededRng::new(13);
    let original = Mlp::new(&mut rng_a, &[5, 9, 3], Activation::Gelu);
    let restored = Mlp::new(&mut rng_b, &[5, 9, 3], Activation::Gelu);
    restored.load_state(&original.state_dict()).unwrap();

    let x = SeededRng::new(14).uniform_tensor(&[4, 5], -1.0, 1.0);
    assert_bits_equal(
        &forward(&original, &x, |l, s, v| l.forward(s, v)),
        &forward(&restored, &x, |l, s, v| l.forward(s, v)),
    );
}

#[test]
fn autoencoder_round_trips_bit_exactly() {
    let mut rng_a = SeededRng::new(15);
    let mut rng_b = SeededRng::new(16);
    let original = StackedAutoencoder::new(&mut rng_a, 12, &[8, 4]);
    let restored = StackedAutoencoder::new(&mut rng_b, 12, &[8, 4]);
    restored.load_state(&original.state_dict()).unwrap();

    let x = SeededRng::new(17).uniform_tensor(&[3, 12], 0.0, 1.0);
    assert_bits_equal(
        &forward(&original, &x, |l, s, v| l.encode(s, v)),
        &forward(&restored, &x, |l, s, v| l.encode(s, v)),
    );
}

#[test]
fn state_dict_names_and_order_are_stable() {
    let mut rng = SeededRng::new(18);
    let mlp = Mlp::new(&mut rng, &[3, 4, 2], Activation::Relu);
    let names: Vec<String> = mlp.state_dict().into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        names,
        vec!["dense.w[3x4]", "dense.b[4]", "dense.w[4x2]", "dense.b[2]"]
    );
}

#[test]
fn load_state_rejects_count_and_shape_mismatches() {
    let mut rng = SeededRng::new(19);
    let dense = Dense::new(&mut rng, 4, 2, Init::Xavier);

    let too_short = dense.state_dict()[..1].to_vec();
    assert!(matches!(
        dense.load_state(&too_short),
        Err(TensorError::LengthMismatch { .. })
    ));

    let mut wrong_shape = dense.state_dict();
    wrong_shape[0].1 = Tensor::zeros(&[4, 3]);
    assert!(matches!(
        dense.load_state(&wrong_shape),
        Err(TensorError::ShapeMismatch { .. })
    ));

    // A failed load must not partially mutate the layer.
    let before = dense.state_dict();
    let _ = dense.load_state(&wrong_shape);
    for ((_, a), (_, b)) in before.iter().zip(dense.state_dict().iter()) {
        assert_eq!(a, b, "failed load mutated parameters");
    }
}
