//! Cross-crate integration tests: the full pipeline from radio simulation
//! through fingerprint capture to training and evaluating localization
//! frameworks.

use baselines::{FeatureMode, KnnLocalizer, SherpaLocalizer};
use fingerprint::{base_devices, extended_devices, DatasetConfig, FingerprintDataset};
use sim_radio::{benchmark_buildings, building_1};
use vital::{evaluate_localizer, DamConfig, Localizer, VitalConfig, VitalModel};

/// Restricts a dataset to the first `rps` reference points so neural models
/// train in a couple of seconds inside the test suite.
fn truncate_rps(dataset: &FingerprintDataset, rps: usize) -> FingerprintDataset {
    FingerprintDataset::from_observations(
        dataset.building(),
        dataset.num_aps(),
        rps,
        dataset
            .observations()
            .iter()
            .filter(|o| o.rp_label < rps)
            .cloned()
            .collect(),
    )
}

#[test]
fn vital_end_to_end_beats_chance_on_held_out_fingerprints() {
    let building = building_1();
    let dataset = FingerprintDataset::collect(
        &building,
        &base_devices()[..3],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 5,
            seed: 10,
        },
    );
    let dataset = truncate_rps(&dataset, 15);
    let split = dataset.split(0.8, 10);

    let mut config = VitalConfig::fast(building.access_points().len(), 15);
    config.image_size = 18;
    config.patch_size = 6;
    config.train.epochs = 14;
    let mut model = VitalModel::new(config).expect("valid config");
    let report = model.fit(&split.train).expect("training succeeds");
    assert!(report.improved(), "loss curve: {:?}", report.epoch_losses);

    let evaluation = evaluate_localizer(&model, &split.test, &building).expect("evaluation");
    // The 15-RP segment spans 14 m; random guessing averages ~5 m.
    assert!(
        evaluation.mean_error_m() < 4.0,
        "VITAL end-to-end mean error {} m",
        evaluation.mean_error_m()
    );
}

#[test]
fn device_heterogeneity_hurts_single_device_knn() {
    // The heterogeneity effect the paper is about: a plain KNN trained on
    // fingerprints from one phone degrades when the query comes from a phone
    // with a very different transceiver (MOTO: +5.5 dB offset, OP3: −6 dB).
    let building = building_1();
    let moto_only: Vec<_> = base_devices()
        .into_iter()
        .filter(|d| d.acronym == "MOTO")
        .collect();
    let op3_only: Vec<_> = base_devices()
        .into_iter()
        .filter(|d| d.acronym == "OP3")
        .collect();
    let train = FingerprintDataset::collect(
        &building,
        &moto_only,
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 5,
            seed: 20,
        },
    );
    let same_device_test = FingerprintDataset::collect(
        &building,
        &moto_only,
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 5,
            seed: 21,
        },
    );
    let other_device_test = FingerprintDataset::collect(
        &building,
        &op3_only,
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 5,
            seed: 22,
        },
    );

    let mut knn = KnnLocalizer::new(5, FeatureMode::MeanChannel);
    knn.fit(&train).expect("fit");
    let same = evaluate_localizer(&knn, &same_device_test, &building).expect("same-device eval");
    let other = evaluate_localizer(&knn, &other_device_test, &building).expect("other-device eval");
    assert!(
        other.mean_error_m() > same.mean_error_m(),
        "a very different device ({:.2} m) should be harder than the training device ({:.2} m)",
        other.mean_error_m(),
        same.mean_error_m()
    );
    // Group training (the extended-device scenario) is exercised by
    // `experiments fig10_extended_summary` rather than asserted here.
    let _ = extended_devices();
}

#[test]
fn every_framework_trains_and_predicts_valid_labels_on_a_small_problem() {
    let building = building_1();
    let dataset = FingerprintDataset::collect(
        &building,
        &base_devices()[..2],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 3,
            seed: 30,
        },
    );
    let dataset = truncate_rps(&dataset, 10);

    let mut config = VitalConfig::fast(building.access_points().len(), 10);
    config.image_size = 12;
    config.patch_size = 4;
    config.train.epochs = 4;
    let mut frameworks: Vec<Box<dyn Localizer>> = vec![
        Box::new(VitalModel::new(config).expect("config")),
        Box::new(baselines::AnvilLocalizer::new(1).with_epochs(3)),
        Box::new(SherpaLocalizer::new(1).with_epochs(3)),
        Box::new(
            baselines::CnnLocLocalizer::new(1)
                .with_epochs(3)
                .with_pretrain_epochs(3),
        ),
        Box::new(baselines::WiDeepLocalizer::new(1).with_pretrain_epochs(3)),
        Box::new(KnnLocalizer::new(3, FeatureMode::Ssd)),
    ];

    for framework in &mut frameworks {
        framework.fit(&dataset).unwrap_or_else(|e| {
            panic!("{} failed to train: {e}", framework.name());
        });
        let prediction = framework
            .predict(&dataset.observations()[3])
            .unwrap_or_else(|e| panic!("{} failed to predict: {e}", framework.name()));
        assert!(
            prediction < dataset.num_rps(),
            "{} predicted out-of-range label {prediction}",
            framework.name()
        );
    }
}

#[test]
fn dam_can_be_attached_to_a_baseline_without_breaking_it() {
    let building = building_1();
    let dataset = FingerprintDataset::collect(
        &building,
        &base_devices()[..2],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 3,
            seed: 40,
        },
    );
    let dataset = truncate_rps(&dataset, 8);
    let mut sherpa = SherpaLocalizer::new(2)
        .with_dam(Some(DamConfig::default()))
        .with_epochs(4);
    sherpa.fit(&dataset).expect("DAM-augmented SHERPA trains");
    let report = evaluate_localizer(&sherpa, &dataset, &building).expect("evaluation");
    assert!(report.mean_error_m().is_finite());
}

#[test]
fn benchmark_buildings_support_full_collection_campaigns() {
    for building in benchmark_buildings() {
        let dataset = FingerprintDataset::collect(
            &building,
            &base_devices()[..1],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 2,
                seed: 50,
            },
        );
        assert_eq!(dataset.len(), building.reference_points().len());
        assert_eq!(dataset.num_aps(), building.access_points().len());
        // Fingerprints must change along the path, otherwise localization is
        // impossible in that building.
        let first = dataset.observations().first().expect("non-empty");
        let last = dataset.observations().last().expect("non-empty");
        assert_ne!(first.mean, last.mean, "{}", building.name());
    }
}
