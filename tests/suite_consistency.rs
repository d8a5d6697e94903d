//! Consistency checks across the whole workspace: device tables, benchmark
//! buildings, framework construction and the Localizer contract.

use baselines::{
    comparison_suite, AnvilLocalizer, CnnLocLocalizer, FeatureMode, KnnLocalizer, SherpaLocalizer,
    WiDeepLocalizer,
};
use fingerprint::{all_devices, base_devices, extended_devices, DatasetConfig, FingerprintDataset};
use sim_radio::{benchmark_buildings, building_1, RSSI_CEILING_DBM, RSSI_FLOOR_DBM};
use tensor::rng::SeededRng;
use vital::{Localizer, VitalConfig, VitalError, VitalModel};

// Compile-time invariant: the RSSI convention constants must stay ordered.
const _: () = assert!(RSSI_FLOOR_DBM < RSSI_CEILING_DBM);

#[test]
fn device_tables_match_the_paper() {
    let base = base_devices();
    let extended = extended_devices();
    assert_eq!(base.len(), 6, "Table I lists six base devices");
    assert_eq!(extended.len(), 3, "Table II lists three extended devices");
    assert_eq!(all_devices().len(), 9);
    // No duplicate acronyms across the full pool.
    let mut acronyms: Vec<_> = all_devices().iter().map(|d| d.acronym.clone()).collect();
    acronyms.sort();
    acronyms.dedup();
    assert_eq!(acronyms.len(), 9);
}

#[test]
fn benchmark_buildings_match_the_paper_scale() {
    let buildings = benchmark_buildings();
    assert_eq!(buildings.len(), 4);
    for building in &buildings {
        let length = building.path_length_m();
        assert!(
            (60.0..=90.0).contains(&length),
            "{} path length {length} m outside the paper's 62–88 m range",
            building.name()
        );
        assert!(building.access_points().len() >= 10);
        assert!(building.reference_points().len() >= 60);
    }
    // AP counts differ per building (different AP densities in the paper).
    let mut ap_counts: Vec<_> = buildings.iter().map(|b| b.access_points().len()).collect();
    ap_counts.dedup();
    assert_eq!(ap_counts.len(), 4);
}

#[test]
fn comparison_suite_builds_all_four_prior_frameworks() {
    for with_dam in [false, true] {
        let suite = comparison_suite(with_dam, 1);
        let names: Vec<&str> = suite.iter().map(|l| l.name()).collect();
        assert_eq!(names, vec!["ANVIL", "SHERPA", "CNNLoc", "WiDeep"]);
    }
}

#[test]
fn every_localizer_rejects_prediction_before_training() {
    let building = benchmark_buildings().remove(0);
    let dataset = FingerprintDataset::collect(
        &building,
        &base_devices()[..1],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 2,
            seed: 0,
        },
    );
    let observation = &dataset.observations()[0];

    let vital_model = VitalModel::new(VitalConfig::fast(
        building.access_points().len(),
        building.reference_points().len(),
    ))
    .expect("config");
    assert!(matches!(
        vital_model.predict(observation),
        Err(VitalError::NotFitted)
    ));

    for localizer in comparison_suite(false, 0) {
        assert!(
            localizer.predict(observation).is_err(),
            "{} should refuse to predict before fit()",
            localizer.name()
        );
    }
    let knn = KnnLocalizer::new(3, FeatureMode::MeanChannel);
    assert!(knn.predict(observation).is_err());
}

#[test]
fn vital_paper_configuration_is_constructible_for_every_building() {
    for building in benchmark_buildings() {
        let config = VitalConfig::paper(
            building.access_points().len(),
            building.reference_points().len(),
        );
        assert!(config.validate().is_ok(), "{}", building.name());
        let model = VitalModel::new(config).expect("paper-scale model builds");
        // §VI.B reports 234,706 parameters; the reproduction should be within
        // the same order of magnitude for every building's class count.
        let params = model.param_count();
        assert!(
            (100_000..500_000).contains(&params),
            "{}: {params} parameters",
            building.name()
        );
    }
}

#[test]
fn datasets_are_reproducible_from_their_seed() {
    let building = benchmark_buildings().remove(2);
    let config = DatasetConfig {
        captures_per_rp: 1,
        samples_per_capture: 3,
        seed: 77,
    };
    let a = FingerprintDataset::collect(&building, &base_devices()[..2], &config);
    let b = FingerprintDataset::collect(&building, &base_devices()[..2], &config);
    assert_eq!(a, b, "same seed must reproduce the same campaign");
    let c = FingerprintDataset::collect(
        &building,
        &base_devices()[..2],
        &DatasetConfig { seed: 78, ..config },
    );
    assert_ne!(a, c, "different seeds must differ");
}

/// A survey small enough to fit every framework in a blink: building 1's
/// 18 access points, its first 10 reference points, two devices.
fn tiny_survey() -> FingerprintDataset {
    let dataset = FingerprintDataset::collect(
        &building_1(),
        &base_devices()[..2],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 2,
            seed: 21,
        },
    );
    let subset: Vec<_> = dataset
        .observations()
        .iter()
        .filter(|o| o.rp_label < 10)
        .cloned()
        .collect();
    FingerprintDataset::from_observations(dataset.building(), dataset.num_aps(), 10, subset)
}

/// A small VITAL configuration for `num_aps` access points and 10 RPs,
/// trained for one epoch.
fn tiny_vital_config(num_aps: usize) -> VitalConfig {
    let mut config = VitalConfig::fast(num_aps, 10);
    config.image_size = 16;
    config.patch_size = 4;
    config.d_model = 24;
    config.msa_heads = 4;
    config.train.epochs = 1;
    config
}

/// Replaces `observation`'s three channels by their first `width` values,
/// padded with missing access points.
fn resized(
    observation: &fingerprint::FingerprintObservation,
    width: usize,
) -> fingerprint::FingerprintObservation {
    let mut resized = observation.clone();
    for channel in [&mut resized.min, &mut resized.max, &mut resized.mean] {
        channel.resize(width, -100.0);
    }
    resized
}

/// `result` is the input contract's refusal naming `given` and `expected`.
fn assert_refused<T: std::fmt::Debug>(
    result: vital::Result<T>,
    given: usize,
    expected: usize,
    what: &str,
) {
    match result {
        Err(VitalError::InvalidDataset(message)) => {
            assert!(
                message.contains(&format!("has {given} access points"))
                    && message.contains(&format!("expects {expected}")),
                "{what}: {message}"
            );
        }
        other => panic!("{what}: expected InvalidDataset, got {other:?}"),
    }
}

#[test]
fn every_localizer_refuses_another_access_point_count() {
    let survey = tiny_survey();
    let aps = survey.num_aps();
    let mut suite: Vec<Box<dyn Localizer>> = vec![
        Box::new(VitalModel::new(tiny_vital_config(aps)).unwrap()),
        Box::new(KnnLocalizer::new(3, FeatureMode::MeanChannel)),
        Box::new(KnnLocalizer::new(3, FeatureMode::ThreeChannel)),
        Box::new(SherpaLocalizer::new(5).with_epochs(1)),
        Box::new(
            CnnLocLocalizer::new(6)
                .with_epochs(1)
                .with_pretrain_epochs(1),
        ),
        Box::new(WiDeepLocalizer::new(7).with_pretrain_epochs(1)),
        Box::new(AnvilLocalizer::new(8).with_epochs(1)),
    ];
    let valid = &survey.observations()[..2];
    for localizer in &mut suite {
        localizer.fit(&survey).unwrap();
        let name = localizer.name().to_string();
        assert_eq!(localizer.num_aps(), aps, "{name}");
        assert!(localizer.localize_batch(valid).is_ok(), "{name}");
        // Three fewer, three more, and a fingerprint of a 7-AP building,
        // each behind a well-formed observation in its batch.
        for width in [aps - 3, aps + 3, 7] {
            let batch = [valid[1].clone(), resized(&valid[0], width)];
            let what = format!("{name}, {width} APs against a survey of {aps}");
            assert_refused(localizer.localize_batch(&batch), width, aps, &what);
        }
    }

    // VITAL knows its count before it is fitted: a model configured for
    // another building refuses the survey, and the patches of one
    // observation are held to the contract as well.
    let mut other_building = VitalModel::new(tiny_vital_config(aps + 3)).unwrap();
    assert_refused(other_building.fit(&survey), aps, aps + 3, "VITAL fit");
    assert!(!other_building.is_fitted());
    let model = VitalModel::new(tiny_vital_config(aps)).unwrap();
    let patches = model.prepare_patches(&resized(&valid[0], 7), false, &mut SeededRng::new(0));
    assert_refused(patches, 7, aps, "VITAL prepare_patches");
}
