//! Inference bits are pinned: the 64 eager logits of a seeded, untrained
//! smoke ViT on seeded inputs, as bit patterns, once per form of the
//! forward, and the 8 predictions of the compiled plan that serves.
//!
//! Two pins, one per form of the forward: the full-width form over patch
//! matrices (what training runs; its eager logits only) and the folded form
//! over distinct patch rows (what `localize_batch` serves; its eager logits
//! and its compiled predictions). The folded form multiplies each pixel run
//! once by a pre-summed weight where the full-width form multiplies it
//! `patch_size` times in one chain, so the two agree to rounding, not to
//! the bit, and each has its own constants.
//!
//! `training_bits.rs` pins what `fit` writes; this pins what a forward pass
//! computes, through both recorders of the one `nn::Trace` definition (the
//! eval tape for the logits, the compiled plan for the predictions). The
//! test runs at whatever dispatch level `VITAL_SIMD` selects, and every
//! run is held to the same constants: scalar ≡ AVX2 ≡ AVX-512 bitwise, on
//! every runner and at every later commit. A kernel, fusion or layout
//! change passes unchanged or says which bit it moved and why.

use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{VisionTransformer, VitalConfig};

/// `logits[sample][class]` of the full-width forward over seeded patch
/// matrices, row-major, as `f32::to_bits`.
#[rustfmt::skip]
const LOGITS: [u32; 64] = [
    0x3e834e36, 0xbb68d8a4, 0x3e48b7f6, 0x3e84cef4, 0xbe8229b5, 0x3de9e934, 0x3ca08ade, 0xbf154dbe,
    0xbe9394ce, 0xbd095688, 0x3f51bf66, 0x3e726a3d, 0x3e071f6d, 0x3d8be112, 0xbe2e4a7b, 0xbe5e0c81,
    0xbe000f62, 0x3d55ef25, 0x3f0f984d, 0x3eb39be3, 0xbe02ddc9, 0x3e8a7b26, 0x3e4ae32d, 0xbef664a1,
    0x3e51911b, 0x3dec2107, 0x3e500317, 0x3cd529a4, 0xbe5401be, 0x3d2f8db9, 0x3e365c8e, 0xbf0ea2de,
    0x3e2e9026, 0xbe54e00b, 0xbdc5bf61, 0x3bdb7934, 0x3d397fa1, 0x3d68cf46, 0x3d8a28ee, 0xbdbfed3c,
    0x3e90ed02, 0x3e83c531, 0xbee87bbe, 0xbe5fe6ea, 0x3a3c0dc0, 0x3f207af8, 0x3e539ac9, 0xbe963484,
    0x3e0d7c9d, 0x3d851452, 0x3d6f5fc4, 0x3e317f94, 0x3d773f48, 0xbed315d0, 0xbcc74742, 0xbf6a4eae,
    0x3e9b5412, 0xbdc3932a, 0x3ebd7e26, 0xbd13aad8, 0x3dca1664, 0xbddec142, 0x3e14850c, 0xbebaa137,
];

/// `logits[sample][class]` of the folded forward over seeded
/// `[distinct_patches, distinct_dim]` inputs (any such input is the distinct
/// patch row of some replicated image).
#[rustfmt::skip]
const FOLDED_LOGITS: [u32; 64] = [
    0xbbb981d0, 0xbebdb5b6, 0xbe81d5ed, 0x3cdab4f2, 0xbf4e3b26, 0x3ebcd81e, 0x3ec47403, 0xbea75bc8,
    0xbf3c6ec1, 0x3d95ef10, 0xbcc62af0, 0x3e12fc8f, 0x3e0b455a, 0xbc9df06c, 0xbe3c68eb, 0xbee2a495,
    0x3ca988f2, 0x3f4fed3c, 0xbf4a1024, 0xbf60f265, 0xbf53bab9, 0x3f947db2, 0x3e9ac88d, 0xbf673472,
    0xbf82c654, 0x3e99b9c6, 0x3e3d156c, 0x3f815eda, 0xbf030c8f, 0x3e8ebec2, 0x3ef7a026, 0xbfc3b4db,
    0x3ec68fef, 0x3e5a03a4, 0xbf3aad86, 0x3f0d20f6, 0xbe136f22, 0x3f12cb5a, 0xbe02aab4, 0xbed0375a,
    0x3e98b34c, 0x3e274fdd, 0xbe8a5f14, 0x3e7b767f, 0x3e4b18d1, 0x3e865ac7, 0x3f6315dd, 0xbe09d54a,
    0xbeacbba9, 0xbe10e4a5, 0xbe81c173, 0x3ec1a4e4, 0x3e175da6, 0x3ed83b85, 0x3e04c05f, 0xbe356a53,
    0x3f12bbee, 0xbcdcf105, 0xbebf5960, 0xbefe0ebc, 0x3e1145ee, 0x3f1dc416, 0xbe49f9ae, 0xbf890532,
];

const FOLDED_PREDICTIONS: [usize; 8] = [6, 3, 5, 3, 5, 6, 5, 5];

/// The smoke model: seeded weights, no training, so only the kernels
/// decide the bits.
fn smoke_vit() -> VisionTransformer {
    let mut config = VitalConfig::fast(18, 8);
    config.image_size = 60;
    config.patch_size = 12;
    config.encoder_blocks = 2;
    VisionTransformer::new(&mut SeededRng::new(2023), &config).unwrap()
}

fn seeded_batch(first_seed: u64, shape: [usize; 2]) -> Vec<Tensor> {
    (0..8)
        .map(|i| SeededRng::new(first_seed + i).uniform_tensor(&shape, -1.0, 1.0))
        .collect()
}

fn bits(logits: &Tensor) -> Vec<u32> {
    logits.as_slice().iter().map(|v| v.to_bits()).collect()
}

/// Eager logit bits of the smoke model's full-width forward on seeded
/// patch matrices, and no compiled predictions: that form has no plan.
fn smoke() -> (Vec<u32>, Vec<usize>) {
    let vit = smoke_vit();
    let batch = seeded_batch(5000, [vit.num_patches(), vit.patch_dim()]);
    let tape = autograd::Tape::new();
    let mut session = nn::Session::new(&tape, false, 0);
    let logits = vit.forward_batch(&mut session, &batch).unwrap().value();
    (bits(&logits), Vec::new())
}

/// Eager logit bits and compiled predictions of its folded forward on
/// seeded distinct patch rows.
fn folded_smoke() -> (Vec<u32>, Vec<usize>) {
    let vit = smoke_vit();
    let batch = seeded_batch(6000, [vit.distinct_patches(), vit.distinct_dim()]);
    let refs: Vec<&Tensor> = batch.iter().collect();
    let stacked = Tensor::concat_rows(&refs).unwrap();
    let tape = autograd::Tape::new();
    let mut session = nn::Session::new(&tape, false, 0);
    let distinct = session.constant(stacked.clone());
    let logits = vit
        .forward_folded(&mut session, distinct, 8)
        .unwrap()
        .value();
    let fill = |input: &mut [f32]| {
        input.copy_from_slice(stacked.as_slice());
        Ok(())
    };
    (bits(&logits), vit.predict_folded(8, fill).unwrap())
}

/// Holds `run` to its constants at the active dispatch level.
fn assert_pinned(
    what: &str,
    run: fn() -> (Vec<u32>, Vec<usize>),
    pinned_logits: &[u32; 64],
    pinned_predictions: &[usize],
) {
    let level = simd::active_level();
    let (logits, predictions) = run();
    assert_eq!(
        predictions,
        pinned_predictions,
        "{what}: compiled predictions moved at level {}",
        level.name()
    );
    assert!(
        logits == pinned_logits,
        "{what}: inference bits moved at level {}; logits are {logits:#010x?}, \
         predictions {predictions:?}",
        level.name()
    );
}

#[test]
fn smoke_vit_inference_bits_are_pinned() {
    assert_pinned("full-width", smoke, &LOGITS, &[]);
}

#[test]
fn smoke_vit_folded_inference_bits_are_pinned() {
    assert_pinned("folded", folded_smoke, &FOLDED_LOGITS, &FOLDED_PREDICTIONS);
}
