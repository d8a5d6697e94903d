//! Shared train/evaluate plumbing used by every experiment binary,
//! including the train-once / load-thereafter checkpoint store behind the
//! binaries' `--checkpoint-dir` flag.

use std::path::PathBuf;

use baselines::{AnvilLocalizer, CnnLocLocalizer, SherpaLocalizer, WiDeepLocalizer};
use fingerprint::{base_devices, extended_devices, DatasetConfig, FingerprintDataset};
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
    pub fn all() -> [Framework; 5] {
        [
            Framework::Vital,
            Framework::Anvil,
            Framework::Sherpa,
            Framework::CnnLoc,
            Framework::WiDeep,
        ]
    }

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

/// Where (and whether) experiment binaries persist trained models.
///
/// With a directory configured, [`CheckpointStore::fit_or_load`] loads an
/// existing checkpoint instead of retraining — a loaded model produces
/// bit-identical predictions to the freshly trained one — and trains *and
/// saves* on the first run. Without one, it degrades to plain training, so
/// every binary works unchanged when no `--checkpoint-dir` is given.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    dir: Option<PathBuf>,
}

impl CheckpointStore {
    /// A store that never persists (plain train-every-run behaviour).
    pub fn disabled() -> Self {
        CheckpointStore { dir: None }
    }

    /// A store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointStore {
            dir: Some(dir.into()),
        }
    }

    /// Builds the store from the process environment: the
    /// `--checkpoint-dir <path>` / `--checkpoint-dir=<path>` CLI flag, or
    /// the `VITAL_CHECKPOINT_DIR` environment variable as a fallback.
    /// Returns a disabled store when neither is present.
    pub fn from_env_args() -> Self {
        let mut args = std::env::args();
        while let Some(arg) = args.next() {
            if arg == "--checkpoint-dir" {
                match args.next() {
                    Some(dir) => return CheckpointStore::new(dir),
                    None => {
                        eprintln!(
                            "warning: --checkpoint-dir requires a path; checkpointing disabled"
                        );
                        return CheckpointStore::disabled();
                    }
                }
            } else if let Some(dir) = arg.strip_prefix("--checkpoint-dir=") {
                return CheckpointStore::new(dir);
            }
        }
        match std::env::var("VITAL_CHECKPOINT_DIR") {
            Ok(dir) if !dir.is_empty() => CheckpointStore::new(dir),
            _ => CheckpointStore::disabled(),
        }
    }

    /// Whether checkpoints are being persisted.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
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
        let Some(path) = self.path_for(key) else {
            let mut localizer = build()?;
            localizer.fit(train)?;
            return Ok(localizer);
        };
        if path.exists() {
            return baselines::load_localizer(&path);
        }
        let mut localizer = build()?;
        localizer.fit(train)?;
        localizer.save(&path)?;
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
    let scale_tag = match scale {
        Scale::Quick => "quick",
        Scale::Full => "full",
    };
    let dam_tag = if with_dam { "dam" } else { "nodam" };
    let building_tag: String = building
        .name()
        .to_lowercase()
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '-' })
        .collect();
    format!(
        "{context}-{}-{building_tag}-{scale_tag}-{dam_tag}-seed{seed}",
        framework.name().to_lowercase()
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
    let dam = if with_dam {
        Some(DamConfig::default())
    } else {
        None
    };
    Ok(match framework {
        Framework::Vital => {
            let mut config = VitalConfig::fast(
                building.access_points().len(),
                building.reference_points().len(),
            );
            config.image_size = scale.image_size();
            config.patch_size = scale.patch_size();
            config.train.epochs = scale.vital_epochs();
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

/// Collects the base-device group-training dataset for a building at the
/// given scale.
pub fn collect_base_dataset(building: &Building, scale: Scale, seed: u64) -> FingerprintDataset {
    FingerprintDataset::collect(
        building,
        &base_devices(),
        &DatasetConfig {
            captures_per_rp: scale.captures_per_rp(),
            samples_per_capture: 5,
            seed,
        },
    )
}

/// Collects an extended-device (unseen hardware) dataset for a building.
pub fn collect_extended_dataset(
    building: &Building,
    scale: Scale,
    seed: u64,
) -> FingerprintDataset {
    FingerprintDataset::collect(
        building,
        &extended_devices(),
        &DatasetConfig {
            captures_per_rp: scale.captures_per_rp(),
            samples_per_capture: 5,
            seed: seed.wrapping_add(0xEE),
        },
    )
}

/// Obtains `framework` trained on `train` through
/// [`CheckpointStore::fit_or_load`] under `context` (a populated
/// `--checkpoint-dir` skips training entirely) and evaluates it on `test`,
/// overall and per device.
///
/// # Errors
/// Returns an error if training, checkpoint IO or evaluation fails.
#[allow(clippy::too_many_arguments)]
pub fn train_and_evaluate_checkpointed(
    store: &CheckpointStore,
    context: &str,
    framework: Framework,
    building: &Building,
    train: &FingerprintDataset,
    test: &FingerprintDataset,
    scale: Scale,
    with_dam: bool,
    seed: u64,
) -> Result<FrameworkResult> {
    let key = checkpoint_key(context, framework, building, scale, with_dam, seed);
    let localizer = store.fit_or_load(&key, train, || {
        build_framework(framework, building, scale, with_dam, seed)
    })?;
    evaluate_on_devices(localizer.as_ref(), building, test)
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
    let mut per_device = Vec::new();
    for device in test.devices() {
        let device_errors: Vec<f32> = test
            .observations()
            .iter()
            .zip(overall.errors_m())
            .filter(|(o, _)| o.device == device)
            .map(|(_, &e)| e)
            .collect();
        if device_errors.is_empty() {
            continue;
        }
        per_device.push((device, LocalizationReport::new(device_errors)));
    }
    Ok(FrameworkResult {
        framework: localizer.name().to_string(),
        building: building.name().to_string(),
        per_device,
        overall,
    })
}

/// Runs the standard base-device experiment in one building: collect, 80/20
/// split, train every requested framework on the group-training pool and
/// evaluate it per device (the Fig. 7 protocol). With a populated store,
/// every framework is loaded instead of retrained (keyed under the
/// `split80` context that matches this experiment's 80/20 training pool).
///
/// # Errors
/// Returns an error if any framework fails to train, persist or evaluate.
pub fn run_building_experiment_checkpointed(
    store: &CheckpointStore,
    building: &Building,
    frameworks: &[Framework],
    scale: Scale,
    with_dam: bool,
    seed: u64,
) -> Result<Vec<FrameworkResult>> {
    let dataset = collect_base_dataset(building, scale, seed);
    let split = dataset.split(0.8, seed);
    let mut results = Vec::with_capacity(frameworks.len());
    for &framework in frameworks {
        results.push(train_and_evaluate_checkpointed(
            store,
            "split80",
            framework,
            building,
            &split.train,
            &split.test,
            scale,
            with_dam,
            seed,
        )?);
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_radio::building_1;

    #[test]
    fn framework_enumeration() {
        assert_eq!(Framework::all().len(), 5);
        assert_eq!(Framework::Vital.name(), "VITAL");
        assert_eq!(Framework::WiDeep.name(), "WiDeep");
    }

    #[test]
    fn build_framework_constructs_each_variant() {
        let building = building_1();
        for fw in Framework::all() {
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
        assert!(store.is_enabled());

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
        let store = CheckpointStore::disabled();
        assert!(!store.is_enabled());
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
