//! `VITALCKP` version 1, byte for byte, and what a corrupt VITAL
//! configuration does to a load.
//!
//! `data/v1.vckpt` and `data/v1_bare.vckpt` were written by the
//! derive-generated encoder this crate had before it spelled the fields
//! out itself; the envelopes below are the ones it was given. Together
//! they hold every kind of entry: both configurations present and absent,
//! scalars `-0.0` and a NaN with a payload, `u64::MAX`, non-ASCII text,
//! tensors of rank 0, `[0]`, `[3, 0]` and `[2, 3]` with ±inf, and a state.

use nn::Layer;
use tensor::Tensor;
use vital::{
    Checkpoint, CheckpointError, DamConfig, ModelKind, VitalConfig, VitalError, VitalModel,
};

const V1: &[u8] = include_bytes!("data/v1.vckpt");
const V1_BARE: &[u8] = include_bytes!("data/v1_bare.vckpt");

fn full() -> Checkpoint {
    let mut config = VitalConfig::fast(18, 8);
    config.train.seed = u64::MAX;
    let mut ckpt = Checkpoint::new(ModelKind::Vital);
    ckpt.set_vital_config(config);
    ckpt.set_dam_config(Some(DamConfig::disabled()));
    ckpt.push_scalar("negative zero", -0.0);
    ckpt.push_scalar("nan with payload", f64::from_bits(0x7FF8_0000_DEAD_BEEF));
    ckpt.push_ints("ints", vec![0, 1, u64::MAX]);
    ckpt.push_ints("no ints", Vec::new());
    ckpt.push_text("device", "Zürich · 東京");
    ckpt.push_tensor("rank 0", Tensor::scalar(-1.5));
    ckpt.push_tensor("[0]", Tensor::zeros(&[0]));
    ckpt.push_tensor("[3,0]", Tensor::zeros(&[3, 0]));
    let data = vec![
        1.0,
        f32::INFINITY,
        -2.5,
        f32::NEG_INFINITY,
        -0.0,
        f32::from_bits(0x7FC0_1234),
    ];
    ckpt.push_tensor("[2,3]", Tensor::from_vec(data, &[2, 3]).unwrap());
    ckpt.push_state(
        "layer",
        vec![
            ("w".into(), Tensor::ones(&[2, 2])),
            ("b".into(), Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap()),
        ],
    );
    ckpt
}

fn bare() -> Checkpoint {
    let mut ckpt = Checkpoint::new(ModelKind::Anvil);
    ckpt.push_scalar("k", 3.0);
    ckpt
}

#[test]
fn version_1_files_round_trip_byte_for_byte() {
    for (fixture, built) in [(V1, full()), (V1_BARE, bare())] {
        assert_eq!(built.to_bytes().unwrap(), fixture, "{:?}", built.kind());
        let loaded = Checkpoint::from_bytes(fixture).unwrap();
        assert_eq!(loaded.to_bytes().unwrap(), fixture, "{:?}", built.kind());
    }

    let loaded = Checkpoint::from_bytes(V1).unwrap();
    assert_eq!(
        loaded.vital_config().unwrap(),
        full().vital_config().unwrap()
    );
    assert_eq!(loaded.dam_config(), Some(&DamConfig::disabled()));
    let bits = |name| loaded.scalar(name).unwrap().to_bits();
    assert_eq!(bits("negative zero"), (-0.0f64).to_bits());
    assert_eq!(bits("nan with payload"), 0x7FF8_0000_DEAD_BEEF);
    assert_eq!(loaded.ints("ints").unwrap(), [0, 1, u64::MAX]);
    assert_eq!(loaded.text("device").unwrap(), "Zürich · 東京");
    let t = loaded.tensor("[2,3]").unwrap();
    assert_eq!(t.shape().dims(), [2, 3]);
    assert_eq!(t.as_slice()[5].to_bits(), 0x7FC0_1234);
    assert_eq!(loaded.tensor("rank 0").unwrap().shape().rank(), 0);
    assert_eq!(loaded.tensor("[3,0]").unwrap().shape().dims(), [3, 0]);
    assert_eq!(loaded.state("layer").unwrap().len(), 2);

    let loaded = Checkpoint::from_bytes(V1_BARE).unwrap();
    assert!(loaded.vital_config().is_err());
    assert_eq!(loaded.dam_config(), None);
}

/// A `VitalConfig::fast(18, 8)` envelope with its transformer's state.
fn vital_envelope() -> (Vec<u8>, Tensor) {
    let config = VitalConfig::fast(18, 8);
    let model = VitalModel::new(config.clone()).unwrap();
    let state = model.transformer().state_dict();
    let first = state[0].1.clone();
    let mut ckpt = Checkpoint::new(ModelKind::Vital);
    ckpt.set_vital_config(config);
    ckpt.push_state("transformer", state);
    (ckpt.to_bytes().unwrap(), first)
}

fn load(bytes: &[u8]) -> vital::Result<VitalModel> {
    VitalModel::from_checkpoint(&Checkpoint::from_bytes(bytes)?)
}

#[test]
fn a_flipped_bit_of_num_classes_is_a_typed_error_not_an_abort() {
    let (mut bytes, _) = vital_envelope();
    assert_eq!(bytes.len(), 70_245);
    assert!(load(&bytes).is_ok());
    // Byte 32 is bit 40 of `num_classes`: the head would ask for a
    // 281 TB weight.
    bytes[32] ^= 0x01;
    let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
    assert_eq!(ckpt.vital_config().unwrap().num_classes, (1 << 40) + 8);
    match VitalModel::from_checkpoint(&ckpt) {
        Err(VitalError::Checkpoint(CheckpointError::Corrupt(msg))) => {
            assert!(msg.contains("vital_config"), "{msg}")
        }
        other => panic!("expected a corrupt checkpoint, got {other:?}"),
    }
}

#[test]
fn every_corrupt_byte_ahead_of_the_weights_is_ok_or_a_typed_error() {
    let (bytes, first) = vital_envelope();
    let mut data = binio::Writer::new();
    data.f32s(&first.as_slice()[..4]);
    let data = data.into_bytes();
    let weights_at = bytes
        .windows(data.len())
        .position(|w| w == data)
        .expect("the first tensor's data is in the envelope");
    let mut outcomes = [0usize; 2];
    for i in 12..weights_at {
        let mut corrupted = bytes.clone();
        corrupted[i] ^= 0xA5;
        match load(&corrupted) {
            Ok(_) => outcomes[0] += 1,
            Err(
                VitalError::Checkpoint(_) | VitalError::InvalidConfig(_) | VitalError::Tensor(_),
            ) => outcomes[1] += 1,
            Err(other) => panic!("byte {i}: untyped failure {other:?}"),
        }
    }
    // Some bytes (the seed, a rate) are free to take any value.
    assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
}
