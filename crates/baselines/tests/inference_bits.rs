//! Inference bits are pinned: the 64 eager logits and the 8 compiled-plan
//! predictions of a seeded, untrained smoke ViT on seeded inputs, as bit
//! patterns.
//!
//! `training_bits.rs` pins what `fit` writes; this pins what a forward pass
//! computes, through both recorders of the one `nn::Trace` definition (the
//! eval tape for the logits, the compiled plan for the predictions). The
//! test runs at whatever dispatch level `VITAL_SIMD` selects, once under
//! one compute thread and once under four, and every run is held to the
//! same constants: scalar ≡ AVX2 bitwise, thread-count invariant, on every
//! runner and at every later commit. A kernel, fusion or layout change
//! passes unchanged or says which bit it moved and why.
//!
//! The opt-in FMA level rounds each multiply-add once instead of twice, so
//! there the logits are held to [`FMA_MAX_ULP`] of the constants and the
//! predictions still have to be identical.

use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{VisionTransformer, VitalConfig};

/// `logits[sample][class]`, row-major, as `f32::to_bits`.
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

const PREDICTIONS: [usize; 8] = [3, 2, 2, 0, 0, 5, 3, 2];

/// Worst allowed distance of an FMA-level logit from its constant. The
/// worst measured is 2640 ULP, on a logit near zero where cancellation
/// makes one ULP tiny; 4096 leaves headroom and still fails on any
/// algorithmic change.
const FMA_MAX_ULP: u64 = 4096;

/// Eager logit bits and compiled predictions of the smoke model: seeded
/// weights, seeded inputs, no training, so only the kernels decide the bits.
fn smoke() -> (Vec<u32>, Vec<usize>) {
    let mut config = VitalConfig::fast(18, 8);
    config.image_size = 60;
    config.patch_size = 12;
    config.encoder_blocks = 2;
    let vit = VisionTransformer::new(&mut SeededRng::new(2023), &config).unwrap();
    let shape = [vit.num_patches(), vit.patch_dim()];
    let batch: Vec<Tensor> = (0..8)
        .map(|i| SeededRng::new(5000 + i).uniform_tensor(&shape, -1.0, 1.0))
        .collect();
    let tape = autograd::Tape::new();
    let mut session = nn::Session::new(&tape, false, 0);
    let logits = vit.forward_batch(&mut session, &batch).unwrap().value();
    let bits = logits.as_slice().iter().map(|v| v.to_bits()).collect();
    (bits, vit.predict_batch(&batch).unwrap())
}

/// Distance in units in the last place, walking through zero for opposite
/// signs.
fn ulp_diff(a: u32, b: u32) -> u64 {
    let rank = |bits: u32| {
        let magnitude = i64::from(bits & 0x7fff_ffff);
        if bits >> 31 == 0 {
            magnitude
        } else {
            -magnitude
        }
    };
    rank(a).abs_diff(rank(b))
}

#[test]
fn smoke_vit_inference_bits_are_pinned() {
    let level = simd::active_level();
    for threads in [1, 4] {
        let (logits, predictions) = parallel::with_threads(threads, smoke);
        assert_eq!(
            predictions,
            PREDICTIONS,
            "compiled predictions moved at level {} with {threads} thread(s)",
            level.name()
        );
        if level == simd::Level::Fma {
            let worst = logits.iter().zip(&LOGITS).map(|(&a, &b)| ulp_diff(a, b));
            let worst = worst.max().unwrap();
            assert!(
                worst <= FMA_MAX_ULP,
                "FMA logits are {worst} ULP from the pinned bits (bound {FMA_MAX_ULP})"
            );
        } else {
            assert!(
                logits == LOGITS,
                "inference bits moved at level {} with {threads} thread(s); logits are {logits:#010x?}",
                level.name()
            );
        }
    }
}
