//! Cross-crate property-based tests on the data pipeline's invariants.

use fingerprint::{
    all_devices, capture_observation, DatasetConfig, FingerprintDataset, MISSING_AP_DBM,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_radio::{benchmark_buildings, Channel};
use tensor::rng::{DrawKey, SeededRng};
use tensor::Tensor;
use vital::{
    DamConfig, DataAugmentationModule, LocalizationReport, RssiImageCreator, VisionTransformer,
    VitalConfig,
};

/// Worst distance allowed between a folded and a full-width logit, in units
/// in the last place of the sample's largest logit (a logit near zero makes
/// its own last place tiny). The worst over the property's cases is 13.
const FOLD_MAX_ULP: u64 = 64;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every captured fingerprint respects the paper's RSSI conventions:
    /// values in [−100, 0] dB and min ≤ mean ≤ max per AP.
    #[test]
    fn captured_observations_are_well_formed(
        building_index in 0usize..4,
        rp_fraction in 0.0f32..1.0,
        device_index in 0usize..9,
        seed in 0u64..500,
    ) {
        let buildings = benchmark_buildings();
        let building = &buildings[building_index];
        let channel = Channel::new(building, seed);
        let rps = building.reference_points();
        let rp = &rps[((rps.len() - 1) as f32 * rp_fraction) as usize];
        let device = &all_devices()[device_index];
        let mut rng = StdRng::seed_from_u64(seed);
        let observation = capture_observation(&channel, device, rp, 5, &mut rng);
        prop_assert_eq!(observation.num_aps(), building.access_points().len());
        for ap in 0..observation.num_aps() {
            prop_assert!(observation.min[ap] >= MISSING_AP_DBM);
            prop_assert!(observation.max[ap] <= 0.0);
            prop_assert!(observation.min[ap] <= observation.mean[ap] + 1e-4);
            prop_assert!(observation.mean[ap] <= observation.max[ap] + 1e-4);
        }
    }

    /// The RSSI image pipeline produces the patch-count the configuration
    /// promises, for any compatible (image, patch) pair.
    #[test]
    fn image_pipeline_patch_count_matches_formula(
        image_size in 8usize..40,
        patch_divisor in 1usize..6,
        seed in 0u64..200,
    ) {
        let patch_size = (image_size / (patch_divisor + 1)).max(2);
        prop_assume!(patch_size <= image_size);
        let buildings = benchmark_buildings();
        let building = &buildings[0];
        let channel = Channel::new(building, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let observation = capture_observation(
            &channel,
            &all_devices()[0],
            &building.reference_points()[0],
            3,
            &mut rng,
        );
        let creator = RssiImageCreator::new(image_size);
        let dam = DataAugmentationModule::new(DamConfig::default());
        let key = DrawKey::new(seed, [0, 0]);
        let image = creator.create(&observation).unwrap();
        // Exactly the promised length is accepted, and all of it written.
        let per_side = image_size / patch_size;
        let mut patches = vec![f32::NAN; per_side * per_side * 3 * patch_size * patch_size];
        dam.write_patches(&image, patch_size, true, key, &mut patches).unwrap();
        prop_assert!(patches.iter().all(|v| v.is_finite()));
        patches.push(0.0);
        prop_assert!(dam.write_patches(&image, patch_size, true, key, &mut patches).is_err());
    }

    /// DAM inference-mode output is deterministic and identical across RNG
    /// seeds — the online phase must not be stochastic.
    #[test]
    fn dam_inference_is_seed_independent(seed_a in 0u64..1000, seed_b in 0u64..1000) {
        let buildings = benchmark_buildings();
        let building = &buildings[1];
        let channel = Channel::new(building, 7);
        let mut rng = StdRng::seed_from_u64(3);
        let observation = capture_observation(
            &channel,
            &all_devices()[2],
            &building.reference_points()[5],
            5,
            &mut rng,
        );
        let creator = RssiImageCreator::new(16);
        let dam = DataAugmentationModule::new(DamConfig::default());
        let image = creator.create(&observation).unwrap();
        let patches = |seed| {
            let mut out = vec![f32::NAN; 16 * 3 * 16];
            dam.write_patches(&image, 4, false, DrawKey::new(seed, [0, 0]), &mut out).unwrap();
            out
        };
        prop_assert_eq!(patches(seed_a), patches(seed_b));
    }

    /// The folded forward answers what the full-width forward answers on
    /// the patch matrix the DAM writes at inference, up to the rounding of
    /// the patch embedding (one product of a weight pre-summed over pixel
    /// rows against `patch_size` products in one chain): for random
    /// weights, geometries (a ragged image edge included) and fingerprints,
    /// every logit is within [`FOLD_MAX_ULP`] units in the last place of
    /// its sample's largest logit.
    #[test]
    fn folded_and_full_width_logits_agree_to_rounding(
        patch_size in 2usize..8,
        per_side in 2usize..5,
        ragged in 0usize..2,
        weight_seed in 0u64..10_000,
        capture_seed in 0u64..500,
    ) {
        let buildings = benchmark_buildings();
        let building = &buildings[0];
        let mut config = VitalConfig::fast(building.access_points().len(), 8);
        config.patch_size = patch_size;
        config.image_size = patch_size * per_side + ragged * (patch_size - 1);
        config.encoder_blocks = 2;
        let vit = VisionTransformer::new(&mut SeededRng::new(weight_seed), &config).unwrap();
        let channel = Channel::new(building, capture_seed);
        let mut rng = StdRng::seed_from_u64(capture_seed);
        let samples = 3;
        let dam = DataAugmentationModule::new(config.dam);
        let (mut full, mut folded) = (Vec::new(), Vec::new());
        for rp in building.reference_points().iter().take(samples) {
            let observation = capture_observation(&channel, &all_devices()[1], rp, 4, &mut rng);
            let image = RssiImageCreator::new(config.image_size).create(&observation).unwrap();
            let mut patches = vec![f32::NAN; vit.num_patches() * vit.patch_dim()];
            dam.write_patches(&image, patch_size, false, DrawKey::default(), &mut patches).unwrap();
            full.push(Tensor::from_vec(patches, &[vit.num_patches(), vit.patch_dim()]).unwrap());
            let mut rows = vec![f32::NAN; vit.distinct_patches() * vit.distinct_dim()];
            dam.write_folded(&image, patch_size, &mut rows).unwrap();
            folded.extend(rows);
        }
        let tape = autograd::Tape::new();
        let mut session = nn::Session::new(&tape, false, 0);
        let full = vit.forward_batch(&mut session, &full).unwrap().value();
        let rows = samples * vit.distinct_patches();
        let distinct = session.constant(Tensor::from_vec(folded, &[rows, vit.distinct_dim()]).unwrap());
        let folded = vit.forward_folded(&mut session, distinct, samples).unwrap().value();
        for (a, b) in folded.as_slice().chunks(8).zip(full.as_slice().chunks(8)) {
            let largest = b.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            // One unit in the last place of `largest`.
            let ulp = f32::from_bits(largest.to_bits() + 1) - largest;
            for (x, y) in a.iter().zip(b) {
                let distance = ((x - y).abs() / ulp) as u64;
                prop_assert!(distance <= FOLD_MAX_ULP, "{x} against {y}: {distance} ULP of {largest}");
            }
        }
    }

    /// Dataset train/test splits partition the data for any fraction.
    #[test]
    fn dataset_split_partitions(train_fraction in 0.0f32..1.0, seed in 0u64..500) {
        let buildings = benchmark_buildings();
        let dataset = FingerprintDataset::collect(
            &buildings[0],
            &fingerprint::base_devices()[..1],
            &DatasetConfig { captures_per_rp: 1, samples_per_capture: 2, seed },
        );
        let split = dataset.split(train_fraction, seed);
        prop_assert_eq!(split.train.len() + split.test.len(), dataset.len());
        let expected = (dataset.len() as f32 * train_fraction).round() as usize;
        prop_assert_eq!(split.train.len(), expected.min(dataset.len()));
    }

    /// Localization-report statistics are internally consistent.
    #[test]
    fn localization_report_invariants(errors in proptest::collection::vec(0.0f32..50.0, 1..64)) {
        let report = LocalizationReport::new(errors.clone());
        prop_assert!(report.min_error_m() <= report.mean_error_m() + 1e-4);
        prop_assert!(report.mean_error_m() <= report.max_error_m() + 1e-4);
        prop_assert!(report.median_error_m() >= report.min_error_m());
        prop_assert!(report.median_error_m() <= report.max_error_m());
        prop_assert!((0.0..=1.0).contains(&report.exact_hit_rate()));
        // Merging a report with itself preserves the mean.
        let merged = LocalizationReport::merged([&report, &report]);
        prop_assert!((merged.mean_error_m() - report.mean_error_m()).abs() < 1e-3);
    }
}
