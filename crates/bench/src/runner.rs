//! Shared train/evaluate plumbing used by every experiment, including the
//! train-once / load-thereafter checkpoint store behind `--checkpoint-dir`.

use std::path::PathBuf;

use baselines::{AnvilLocalizer, CnnLocLocalizer, SherpaLocalizer, WiDeepLocalizer};
use fingerprint::{
    base_devices, extended_devices, DatasetConfig, DeviceProfile, FingerprintDataset,
    TrainTestSplit,
};
use sim_radio::Building;
use vital::{
    evaluate_localizer, DamConfig, LocalizationReport, Localizer, Result, VitalConfig, VitalModel,
};

use crate::Scale;

/// The five localization frameworks compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framework {
    /// The proposed vision-transformer framework.
    Vital,
    /// Multi-head attention + Euclidean matching (ref. \[19\]).
    Anvil,
    /// DNN + KNN hybrid (ref. \[20\]).
    Sherpa,
    /// Stacked autoencoder + 1-D CNN (ref. \[21\]).
    CnnLoc,
    /// Denoising SAE + Gaussian-kernel classifier (ref. \[22\]).
    WiDeep,
}

impl Framework {
    /// All frameworks in the order the paper reports them.
    pub const ALL: [Self; 5] = [
        Self::Vital,
        Self::Anvil,
        Self::Sherpa,
        Self::CnnLoc,
        Self::WiDeep,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Framework::Vital => "VITAL",
            Framework::Anvil => "ANVIL",
            Framework::Sherpa => "SHERPA",
            Framework::CnnLoc => "CNNLoc",
            Framework::WiDeep => "WiDeep",
        }
    }
}

/// Where (and whether) the experiments persist trained models; the default
/// store never persists.
///
/// With a directory configured, [`CheckpointStore::fit_or_load`] loads an
/// existing checkpoint instead of retraining — a loaded model produces
/// bit-identical predictions to the freshly trained one — and trains *and
/// saves* on the first run. Without one, it degrades to plain training, so
/// every experiment works unchanged when no `--checkpoint-dir` is given.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    dir: Option<PathBuf>,
}

impl CheckpointStore {
    /// A store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            dir: Some(dir.into()),
        }
    }

    /// The file path a cache key maps to, when the store is enabled.
    pub fn path_for(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{key}.vckpt")))
    }

    /// Returns a trained localizer for `key`: loaded from the store when a
    /// checkpoint exists, otherwise built via `build`, fitted on `train`
    /// and saved for the next run.
    ///
    /// # Errors
    /// Returns training errors, and typed checkpoint errors when an
    /// existing checkpoint is corrupt or incompatible (delete the file to
    /// force a retrain).
    pub fn fit_or_load(
        &self,
        key: &str,
        train: &FingerprintDataset,
        build: impl FnOnce() -> Result<Box<dyn Localizer>>,
    ) -> Result<Box<dyn Localizer>> {
        let path = self.path_for(key);
        if let Some(saved) = path.as_ref().filter(|p| p.exists()) {
            return baselines::load_localizer(saved);
        }
        let mut localizer = build()?;
        localizer.fit(train)?;
        if let Some(path) = path {
            localizer.save(&path)?;
        }
        Ok(localizer)
    }
}

/// The canonical checkpoint cache key for one trained model: every input
/// that affects training — experiment context (training-pool recipe),
/// framework, building, scale, DAM flag and seed — is part of the name, so
/// distinct experiments never share a checkpoint.
pub fn checkpoint_key(
    context: &str,
    framework: Framework,
    building: &Building,
    scale: Scale,
    with_dam: bool,
    seed: u64,
) -> String {
    let dam_tag = if with_dam { "dam" } else { "nodam" };
    let building_tag = building.name().to_lowercase();
    let building_tag = building_tag.replace(|c: char| !c.is_alphanumeric(), "-");
    format!(
        "{context}-{}-{building_tag}-{}-{dam_tag}-seed{seed}",
        framework.name().to_lowercase(),
        scale.name()
    )
}

/// The trained/evaluated outcome of one (framework, building) pair.
#[derive(Debug, Clone)]
pub struct FrameworkResult {
    /// Framework display name.
    pub framework: String,
    /// Building the experiment ran in.
    pub building: String,
    /// Per-device localization reports (device acronym → report).
    pub per_device: Vec<(String, LocalizationReport)>,
    /// Pooled report over every test observation.
    pub overall: LocalizationReport,
}

/// The VITAL configuration every experiment starts from: `VitalConfig::fast`
/// sized for `building`, with the scale's image, patch and epoch budget.
pub fn vital_config(building: &Building, scale: Scale) -> VitalConfig {
    let mut config = VitalConfig::fast(
        building.access_points().len(),
        building.reference_points().len(),
    );
    config.image_size = scale.image_size();
    config.patch_size = scale.patch_size();
    config.train.epochs = scale.vital_epochs();
    config
}

/// Trains a VITAL model with `config` on `data.train` and returns its mean
/// error on `data.test`.
///
/// # Errors
/// Returns an error if the configuration is invalid or training or
/// evaluation fails.
pub fn vital_mean_error(
    config: VitalConfig,
    building: &Building,
    data: &TrainTestSplit,
) -> Result<f32> {
    let mut model = VitalModel::new(config)?;
    model.fit(&data.train)?;
    Ok(evaluate_localizer(&model, &data.test, building)?.mean_error_m())
}

/// Builds an untrained instance of `framework` for `building`.
///
/// # Errors
/// Returns an error if the VITAL configuration derived from the scale is
/// invalid for this building.
pub fn build_framework(
    framework: Framework,
    building: &Building,
    scale: Scale,
    with_dam: bool,
    seed: u64,
) -> Result<Box<dyn Localizer>> {
    let dam = with_dam.then(DamConfig::default);
    Ok(match framework {
        Framework::Vital => {
            let mut config = vital_config(building, scale);
            config.train.seed = seed;
            config.dam = dam.unwrap_or_else(DamConfig::disabled);
            Box::new(VitalModel::new(config)?)
        }
        Framework::Anvil => Box::new(
            AnvilLocalizer::new(seed)
                .with_dam(dam)
                .with_epochs(scale.baseline_epochs()),
        ),
        Framework::Sherpa => Box::new(
            SherpaLocalizer::new(seed)
                .with_dam(dam)
                .with_epochs(scale.baseline_epochs()),
        ),
        Framework::CnnLoc => Box::new(
            CnnLocLocalizer::new(seed)
                .with_dam(dam)
                .with_epochs(scale.baseline_epochs())
                .with_pretrain_epochs(scale.baseline_epochs()),
        ),
        Framework::WiDeep => Box::new(
            WiDeepLocalizer::new(seed)
                .with_dam(dam)
                .with_pretrain_epochs(scale.baseline_epochs() * 2),
        ),
    })
}

/// Runs a collection campaign: each of `devices` captures `captures_per_rp`
/// five-sample observations at every reference point of `building`.
pub fn collect(
    building: &Building,
    devices: &[DeviceProfile],
    captures_per_rp: usize,
    seed: u64,
) -> FingerprintDataset {
    let config = DatasetConfig {
        captures_per_rp,
        samples_per_capture: 5,
        seed,
    };
    FingerprintDataset::collect(building, devices, &config)
}

/// Collects the base-device group-training dataset for a building at the
/// given scale.
pub fn collect_base_dataset(building: &Building, scale: Scale, seed: u64) -> FingerprintDataset {
    collect(building, &base_devices(), scale.captures_per_rp(), seed)
}

/// Collects an extended-device (unseen hardware) dataset for a building.
pub fn collect_extended_dataset(
    building: &Building,
    scale: Scale,
    seed: u64,
) -> FingerprintDataset {
    let seed = seed.wrapping_add(0xEE);
    collect(building, &extended_devices(), scale.captures_per_rp(), seed)
}

/// The base-device dataset of a building split 80/20 into training pool and
/// held-out test set (the Fig. 7 protocol).
pub fn base_split(building: &Building, scale: Scale, seed: u64) -> TrainTestSplit {
    collect_base_dataset(building, scale, seed).split(0.8, seed)
}

/// Evaluates an already-trained localizer on `test`, reporting the pooled and
/// per-device errors.
///
/// The whole test set goes through one [`Localizer::localize_batch`] call
/// (amortizing per-query overhead — the VITAL transformer stacks it into
/// batched forward passes); the per-device reports are then sliced out of
/// the same predictions instead of re-predicting each device subset.
///
/// # Errors
/// Returns an error if evaluation fails.
pub fn evaluate_on_devices(
    localizer: &dyn Localizer,
    building: &Building,
    test: &FingerprintDataset,
) -> Result<FrameworkResult> {
    let overall = evaluate_localizer(localizer, test, building)?;
    // `overall.errors_m()` is in observation order, so the per-device
    // reports are sliced from the same single prediction pass.
    let per_device = test.devices().into_iter().map(|device| {
        let errors = test.observations().iter().zip(overall.errors_m());
        let of_device = errors.filter(|(o, _)| o.device == device);
        let report = LocalizationReport::new(of_device.map(|(_, &e)| e).collect());
        (device, report)
    });
    Ok(FrameworkResult {
        framework: localizer.name().to_string(),
        building: building.name().to_string(),
        per_device: per_device.collect(),
        overall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_radio::building_1;

    #[test]
    fn framework_enumeration() {
        assert_eq!(Framework::ALL.len(), 5);
        assert_eq!(Framework::Vital.name(), "VITAL");
        assert_eq!(Framework::WiDeep.name(), "WiDeep");
    }

    #[test]
    fn build_framework_constructs_each_variant() {
        let building = building_1();
        for fw in Framework::ALL {
            let localizer = build_framework(fw, &building, Scale::Quick, true, 0).unwrap();
            assert_eq!(localizer.name(), fw.name());
        }
    }

    #[test]
    fn dataset_collection_respects_scale() {
        let building = building_1();
        let ds = collect_base_dataset(&building, Scale::Quick, 0);
        assert_eq!(
            ds.len(),
            6 * building.reference_points().len() * Scale::Quick.captures_per_rp()
        );
        let ext = collect_extended_dataset(&building, Scale::Quick, 0);
        assert_eq!(ext.devices().len(), 3);
    }

    #[test]
    fn checkpoint_store_trains_once_then_loads() {
        let building = building_1();
        let dataset = collect_base_dataset(&building, Scale::Quick, 3);
        let split = dataset.split(0.8, 3);
        let dir = std::env::temp_dir().join("vital-bench-store-test");
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::new(&dir);

        let build = || -> Result<Box<dyn Localizer>> {
            Ok(Box::new(baselines::KnnLocalizer::new(
                3,
                baselines::FeatureMode::MeanChannel,
            )))
        };
        let key = "test-knn-building-1-quick-nodam-seed3";
        let trained = store.fit_or_load(key, &split.train, build).unwrap();
        let path = store.path_for(key).unwrap();
        assert!(path.exists(), "first run must write the checkpoint");
        let first = trained.localize_batch(split.test.observations()).unwrap();

        // Second run must load (the builder would panic if invoked).
        let loaded = store
            .fit_or_load(key, &split.train, || panic!("retrained despite checkpoint"))
            .unwrap();
        let second = loaded.localize_batch(split.test.observations()).unwrap();
        assert_eq!(first, second, "loaded model diverged from trained one");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disabled_store_trains_every_time() {
        let building = building_1();
        let dataset = collect_base_dataset(&building, Scale::Quick, 4);
        let store = CheckpointStore::default();
        assert!(store.path_for("anything").is_none());
        let localizer = store
            .fit_or_load("anything", &dataset, || {
                Ok(Box::new(baselines::KnnLocalizer::new(
                    1,
                    baselines::FeatureMode::MeanChannel,
                )))
            })
            .unwrap();
        assert_eq!(localizer.name(), "KNN");
    }

    #[test]
    fn checkpoint_keys_separate_every_training_input() {
        let building = building_1();
        let base = checkpoint_key(
            "split80",
            Framework::Vital,
            &building,
            Scale::Quick,
            true,
            7,
        );
        assert_eq!(base, "split80-vital-building-1-quick-dam-seed7");
        let variants = [
            checkpoint_key("full", Framework::Vital, &building, Scale::Quick, true, 7),
            checkpoint_key(
                "split80",
                Framework::Sherpa,
                &building,
                Scale::Quick,
                true,
                7,
            ),
            checkpoint_key("split80", Framework::Vital, &building, Scale::Full, true, 7),
            checkpoint_key(
                "split80",
                Framework::Vital,
                &building,
                Scale::Quick,
                false,
                7,
            ),
            checkpoint_key(
                "split80",
                Framework::Vital,
                &building,
                Scale::Quick,
                true,
                8,
            ),
        ];
        for v in &variants {
            assert_ne!(v, &base, "key collision: {v}");
        }
    }

    #[test]
    fn knn_style_framework_round_trips_through_runner() {
        // Use the cheapest framework (WiDeep with minimal pretraining) to
        // exercise the full runner path quickly.
        let building = building_1();
        let dataset = collect_base_dataset(&building, Scale::Quick, 1);
        let split = dataset.split(0.8, 1);
        let mut localizer = Box::new(baselines::KnnLocalizer::new(
            3,
            baselines::FeatureMode::MeanChannel,
        ));
        localizer.fit(&split.train).unwrap();
        let result = evaluate_on_devices(localizer.as_ref(), &building, &split.test).unwrap();
        assert_eq!(result.building, "Building 1");
        assert!(!result.per_device.is_empty());
        assert!(result.overall.mean_error_m() < 20.0);
    }
}
