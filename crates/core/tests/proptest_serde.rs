//! Property-based and adversarial tests of a tensor's checkpoint encoding:
//! arbitrary shapes/values (including non-finite floats) must round-trip
//! bit-exactly through `Checkpoint::{to_bytes, from_bytes}`, and corrupt,
//! truncated or mis-shaped inputs must surface as typed errors — never
//! panics. The hand-crafted cases are written with `binio::Writer`.

use binio::Writer;
use proptest::prelude::*;
use tensor::{Shape, Tensor};
use vital::{Checkpoint, CheckpointError, ModelKind, VitalError};

/// Bit-level equality: `PartialEq` on `f32` treats NaN != NaN, so the
/// round-trip assertion compares IEEE-754 bit patterns instead.
fn bits_equal(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The bytes of a checkpoint holding `t` as its one tensor, `"t"`.
fn encode(t: &Tensor) -> Vec<u8> {
    let mut ckpt = Checkpoint::new(ModelKind::Knn);
    ckpt.push_tensor("t", t.clone());
    ckpt.to_bytes().unwrap()
}

fn decode(bytes: &[u8]) -> vital::Result<Tensor> {
    Ok(Checkpoint::from_bytes(bytes)?.tensor("t")?.clone())
}

/// The bytes of [`encode`]'s envelope with `tensor` writing the tensor.
fn hand_crafted(tensor: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.bytes(b"VITALCKP");
    w.u32(1);
    w.u8(8); // the envelope's field count
    w.u32(1); // ModelKind::Knn
    w.bool(false); // no VITAL config
    w.bool(false); // no DAM config
    (0..3).for_each(|_| w.usize(0)); // no scalars, ints or texts
    w.usize(1);
    w.str("t");
    tensor(&mut w);
    w.usize(0); // no states
    w.into_bytes()
}

fn corrupt_message(result: vital::Result<Tensor>) -> String {
    match result {
        Err(VitalError::Checkpoint(CheckpointError::Corrupt(msg))) => msg,
        other => panic!("expected a corrupt payload, got {other:?}"),
    }
}

/// Strategy producing a tensor with 1–3 axes and a mix of ordinary,
/// tiny, huge and non-finite values.
fn arbitrary_tensor() -> impl Strategy<Value = Tensor> {
    (1usize..5, 1usize..5, 1usize..4, 0u32..6).prop_flat_map(|(a, b, c, rank_pick)| {
        let dims: Vec<usize> = match rank_pick % 3 {
            0 => vec![a * b * c],
            1 => vec![a, b * c],
            _ => vec![a, b, c],
        };
        let volume: usize = dims.iter().product();
        (
            proptest::collection::vec(-1.0e30f32..1.0e30, volume),
            Just(dims),
            0u32..5,
        )
            .prop_map(|(mut data, dims, weird)| {
                // Splice in non-finite and denormal values deterministically.
                if weird > 0 && !data.is_empty() {
                    let n = data.len();
                    if weird & 1 != 0 {
                        data[0] = f32::NAN;
                    }
                    if weird & 2 != 0 {
                        data[n / 2] = f32::INFINITY;
                    }
                    if weird & 4 != 0 {
                        data[n - 1] = f32::NEG_INFINITY;
                    }
                }
                Tensor::from_vec(data, &dims).expect("volume matches dims")
            })
    })
}

proptest! {
    #[test]
    fn tensor_round_trip_is_bit_exact(t in arbitrary_tensor()) {
        let back = decode(&encode(&t)).unwrap();
        prop_assert!(bits_equal(&t, &back), "round-trip altered bits");
    }

    #[test]
    fn every_truncation_is_a_typed_error(t in arbitrary_tensor(), frac in 0.0f64..1.0) {
        let bytes = encode(&t);
        let cut = ((bytes.len() as f64) * frac) as usize;
        prop_assume!(cut < bytes.len());
        prop_assert!(decode(&bytes[..cut]).is_err(), "truncated input decoded successfully");
    }

    #[test]
    fn shape_round_trips(dims in proptest::collection::vec(0usize..9, 0..4)) {
        let shape = Shape::new(&dims);
        let back = decode(&encode(&Tensor::zeros(&dims))).unwrap();
        prop_assert_eq!(&shape, back.shape());
    }
}

#[test]
fn zero_sized_and_scalar_tensors_round_trip() {
    for t in [
        Tensor::zeros(&[0]),
        Tensor::zeros(&[3, 0]),
        Tensor::scalar(4.25),
    ] {
        assert!(bits_equal(&t, &decode(&encode(&t)).unwrap()));
    }
}

#[test]
fn data_length_mismatch_is_rejected() {
    // A shape that says [2, 2] over a data sequence of 3 elements.
    let bytes = hand_crafted(|w| {
        w.u8(2);
        w.usize(2); // rank
        w.usize(2);
        w.usize(2);
        w.usize(3); // wrong element count
        w.f32s(&[1.0, 2.0, 3.0]);
    });
    let msg = corrupt_message(decode(&bytes));
    assert!(msg.contains("does not match"), "{msg}");
}

#[test]
fn overflowing_shape_volume_is_rejected() {
    let bytes = hand_crafted(|w| {
        w.u8(2);
        w.usize(2);
        w.u64(u64::MAX); // dim 0
        w.usize(2); // dim 1 → volume overflows
        w.usize(0);
    });
    let msg = corrupt_message(decode(&bytes));
    assert!(msg.contains("overflows"), "{msg}");
}

#[test]
fn wrong_struct_header_is_rejected() {
    // A well-formed `[1]` tensor behind a field count of 3.
    let bytes = hand_crafted(|w| {
        w.u8(3);
        (0..3).for_each(|_| w.usize(1));
        w.f32(1.0);
    });
    let msg = corrupt_message(decode(&bytes));
    assert!(msg.contains("Tensor"), "{msg}");
}

#[test]
fn corrupt_byte_never_panics() {
    let t = Tensor::from_vec((0..24).map(|v| v as f32).collect(), &[4, 6]).unwrap();
    let bytes = encode(&t);
    for i in 0..bytes.len() {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0xA5;
        // Either decodes to some tensor (flipped data bits) or errors —
        // but must never panic or mis-shape.
        if let Ok(back) = decode(&corrupted) {
            assert_eq!(back.len(), back.shape().volume());
        }
    }
}
