//! The deterministic "smoke" workload of the `checkpoint_roundtrip`
//! train/verify pair: both processes rebuild the *same* small dataset and
//! model configuration from fixed seeds, so a checkpoint trained by one and
//! reloaded by the other can be verified bit-exactly against the recorded
//! predictions.

use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
use sim_radio::building_1;
use vital::VitalConfig;

/// Reference points the smoke dataset is restricted to (keeps training in
/// CI to a few seconds).
pub const SMOKE_RPS: usize = 12;

/// The deterministic training/evaluation dataset: building 1, two devices,
/// seed 77, restricted to the first [`SMOKE_RPS`] reference points.
pub fn smoke_dataset() -> FingerprintDataset {
    let building = building_1();
    let dataset = FingerprintDataset::collect(
        &building,
        &base_devices()[..2],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 3,
            seed: 77,
        },
    );
    let subset: Vec<_> = dataset
        .observations()
        .iter()
        .filter(|o| o.rp_label < SMOKE_RPS)
        .cloned()
        .collect();
    FingerprintDataset::from_observations(dataset.building(), dataset.num_aps(), SMOKE_RPS, subset)
}

/// The small VITAL configuration trained on [`smoke_dataset`].
pub fn smoke_vital_config() -> VitalConfig {
    let mut config = VitalConfig::fast(building_1().access_points().len(), SMOKE_RPS);
    config.image_size = 16;
    config.patch_size = 4;
    config.d_model = 24;
    config.msa_heads = 4;
    config.encoder_mlp_hidden = vec![32, 16];
    config.head_hidden = vec![32];
    config.train.epochs = 4;
    config.train.batch_size = 8;
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_dataset_is_deterministic_and_bounded() {
        let a = smoke_dataset();
        let b = smoke_dataset();
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        assert!(a.observations().iter().all(|o| o.rp_label < SMOKE_RPS));
        let bits = |d: &FingerprintDataset| -> Vec<u32> {
            d.observations()
                .iter()
                .flat_map(|o| o.mean.iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "same seeds must give the same bits");
    }
}
