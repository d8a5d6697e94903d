//! Predictions are pinned: a digest of the labels every memory-matching
//! baseline (KNN in three representations, SHERPA, WiDeep, ANVIL) gives a
//! seeded cross-device query pool after a seeded fit.
//!
//! `training_bits.rs` pins what `fit` writes into a checkpoint; this pins
//! what the matching stage makes of it: the distances to every stored row,
//! the neighbour choice and its tie order, the vote, WiDeep's kernel sum
//! and ANVIL's first minimum. The constants were taken before the matching
//! stage moved onto the lane-parallel distance kernel, so passing them
//! unchanged proves that move changed no prediction. Scalar, AVX2 and
//! AVX-512 agree bitwise, so they hold at every dispatch level.

use baselines::{AnvilLocalizer, FeatureMode, KnnLocalizer, SherpaLocalizer, WiDeepLocalizer};
use fingerprint::{
    base_devices, extended_devices, DatasetConfig, FingerprintDataset, FingerprintObservation,
};
use sim_radio::building_3;
use vital::Localizer;

/// A training set of the base devices and a query pool of their held-out
/// split plus two devices the fit never saw.
fn survey() -> (FingerprintDataset, Vec<FingerprintObservation>) {
    let building = building_3();
    let campaign = DatasetConfig {
        captures_per_rp: 1,
        samples_per_capture: 3,
        seed: 41,
    };
    let base = FingerprintDataset::collect(&building, &base_devices(), &campaign);
    let extended = FingerprintDataset::collect(&building, &extended_devices()[..2], &campaign);
    let split = base.split(0.8, 41);
    let mut pool = split.test.observations().to_vec();
    pool.extend_from_slice(extended.observations());
    (split.train, pool)
}

/// FNV-1a over the predictions, eight bytes each.
fn digest(predictions: &[usize]) -> u64 {
    predictions
        .iter()
        .flat_map(|&p| (p as u64).to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Fits `localizer`, predicts the pool and holds `(queries, digest)` to
/// `pinned`.
fn assert_pinned(mut localizer: impl Localizer, pinned: (usize, u64)) {
    let (train, pool) = survey();
    localizer.fit(&train).unwrap();
    let predictions = localizer.localize_batch(&pool).unwrap();
    let got = (predictions.len(), digest(&predictions));
    assert_eq!(
        got,
        pinned,
        "{}: predictions moved; (queries, digest) is ({}, {:#018x}), the first 32 {:?}",
        localizer.name(),
        got.0,
        got.1,
        &predictions[..32.min(predictions.len())]
    );
}

#[test]
fn knn_predictions_are_pinned() {
    assert_pinned(
        KnnLocalizer::new(5, FeatureMode::MeanChannel),
        (259, 0xf3dd_f56d_981d_1c67),
    );
    assert_pinned(
        KnnLocalizer::new(3, FeatureMode::Hlf),
        (259, 0x8989_d777_c3d6_efdb),
    );
    assert_pinned(
        KnnLocalizer::new(4, FeatureMode::ThreeChannel),
        (259, 0xdae9_8c4a_13d3_4fe3),
    );
}

#[test]
fn sherpa_predictions_are_pinned() {
    assert_pinned(
        SherpaLocalizer::new(5).with_epochs(3),
        (259, 0x8058_3ace_3910_f672),
    );
}

#[test]
fn wideep_predictions_are_pinned() {
    assert_pinned(
        WiDeepLocalizer::new(5).with_pretrain_epochs(3),
        (259, 0xabeb_bbfe_0040_738f),
    );
}

#[test]
fn anvil_predictions_are_pinned() {
    assert_pinned(
        AnvilLocalizer::new(5).with_epochs(2),
        (259, 0x86e1_0a23_0f09_dee4),
    );
}
