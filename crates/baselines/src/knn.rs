//! Classical K-nearest-neighbour fingerprint matching, including the
//! calibration-free SSD and HLF variants (paper ref. \[18\]).

use std::path::Path;

use fingerprint::{FingerprintDataset, FingerprintObservation};
use tensor::rng::DrawKey;
use vital::{Checkpoint, CheckpointError, Localizer, ModelKind, Result, VitalError};

use crate::features::{rows_to_tensor, tensor_to_rows, weighted_knn_vote};
use crate::{FeatureExtractor, FeatureMode};

/// K-nearest-neighbour localizer over a configurable fingerprint
/// representation.
///
/// With [`FeatureMode::MeanChannel`] this is the classical RSSI fingerprint
/// matcher; with [`FeatureMode::Ssd`] / [`FeatureMode::Hlf`] it reproduces the
/// calibration-free baselines discussed in related work.
#[derive(Debug, Clone)]
pub struct KnnLocalizer {
    k: usize,
    extractor: FeatureExtractor,
    name: String,
    train_features: Vec<Vec<f32>>,
    train_labels: Vec<usize>,
}

impl KnnLocalizer {
    /// Creates a KNN localizer with `k` neighbours over the given feature
    /// representation.
    pub fn new(k: usize, mode: FeatureMode) -> Self {
        let name = match mode {
            FeatureMode::MeanChannel => "KNN",
            FeatureMode::ThreeChannel => "KNN-3ch",
            FeatureMode::Ssd => "KNN-SSD",
            FeatureMode::Hlf => "KNN-HLF",
        };
        KnnLocalizer {
            k: k.max(1),
            extractor: FeatureExtractor::new(mode),
            name: name.to_string(),
            train_features: Vec::new(),
            train_labels: Vec::new(),
        }
    }

    /// Number of neighbours considered.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Serializes the fitted fingerprint store (features + labels) and the
    /// matcher configuration into a [`Checkpoint`].
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn to_checkpoint(&self) -> Result<Checkpoint> {
        if self.train_features.is_empty() {
            return Err(VitalError::NotFitted);
        }
        let width = self.train_features[0].len();
        let mut ckpt = Checkpoint::new(ModelKind::Knn);
        ckpt.push_ints("k", vec![self.k as u64]);
        ckpt.push_text("mode", self.extractor.mode().as_str());
        ckpt.push_tensor("features", rows_to_tensor(&self.train_features, width)?);
        ckpt.push_ints(
            "labels",
            self.train_labels.iter().map(|&l| l as u64).collect(),
        );
        Ok(ckpt)
    }

    /// Restores a fitted matcher from a [`Checkpoint`]; predictions are
    /// bit-identical to the saved instance's.
    ///
    /// # Errors
    /// Returns typed checkpoint errors on kind mismatch, missing entries or
    /// inconsistent store sizes.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self> {
        ckpt.expect_kind(ModelKind::Knn)?;
        let k = ckpt.usizes("k")?.first().copied().unwrap_or(1);
        let mode_text = ckpt.text("mode")?;
        let mode = FeatureMode::parse(mode_text).ok_or_else(|| {
            CheckpointError::Corrupt(format!("unknown feature mode {mode_text:?}"))
        })?;
        let features = tensor_to_rows(ckpt.tensor("features")?)?;
        let labels = ckpt.usizes("labels")?;
        if features.len() != labels.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} stored fingerprints but {} labels",
                features.len(),
                labels.len()
            ))
            .into());
        }
        let mut knn = KnnLocalizer::new(k, mode);
        knn.train_features = features;
        knn.train_labels = labels;
        Ok(knn)
    }
}

impl Localizer for KnnLocalizer {
    fn name(&self) -> &str {
        &self.name
    }

    fn fit(&mut self, train: &FingerprintDataset) -> Result<()> {
        if train.is_empty() {
            return Err(VitalError::InvalidDataset("empty training set".into()));
        }
        self.train_features = self.extractor.extract_clean_batch(train.observations());
        self.train_labels = train.labels();
        Ok(())
    }

    /// The stored fingerprints' width over the mode's channels per access
    /// point.
    fn num_aps(&self) -> usize {
        let width = self.train_features.first().map_or(0, Vec::len);
        width / self.extractor.mode().channels()
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        if self.train_features.is_empty() {
            return Err(VitalError::NotFitted);
        }
        vital::check_widths(self.num_aps(), observations)?;
        // Clean extraction draws nothing, so the default key is never read.
        observations
            .iter()
            .map(|observation| {
                let query = self
                    .extractor
                    .extract(observation, false, DrawKey::default());
                let memory = self.train_features.iter().zip(&self.train_labels);
                weighted_knn_vote(memory, &query, self.k).ok_or(VitalError::NotFitted)
            })
            .collect()
    }

    fn save(&self, path: &Path) -> Result<()> {
        self.to_checkpoint()?.write_to(path)
    }

    fn load(path: &Path) -> Result<Self> {
        KnnLocalizer::from_checkpoint(&Checkpoint::read_from(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingerprint::{base_devices, extended_devices, DatasetConfig};
    use sim_radio::building_1;
    use vital::evaluate_localizer;

    fn dataset(devices: usize) -> (sim_radio::Building, FingerprintDataset) {
        let building = building_1();
        let ds = FingerprintDataset::collect(
            &building,
            &base_devices()[..devices],
            &DatasetConfig {
                captures_per_rp: 2,
                samples_per_capture: 3,
                seed: 3,
            },
        );
        (building, ds)
    }

    #[test]
    fn unfitted_predicts_error_and_k_is_clamped() {
        let knn = KnnLocalizer::new(0, FeatureMode::MeanChannel);
        assert_eq!(knn.k(), 1);
        let (_, ds) = dataset(1);
        assert!(knn.predict(&ds.observations()[0]).is_err());
    }

    #[test]
    fn same_device_localization_is_accurate() {
        let (building, ds) = dataset(1);
        let split = ds.split(0.8, 1);
        let mut knn = KnnLocalizer::new(3, FeatureMode::MeanChannel);
        knn.fit(&split.train).unwrap();
        let report = evaluate_localizer(&knn, &split.test, &building).unwrap();
        // Single-device fingerprinting is an easy problem: a couple of metres.
        assert!(
            report.mean_error_m() < 4.0,
            "KNN same-device error {}",
            report.mean_error_m()
        );
    }

    #[test]
    fn ssd_localizes_an_unseen_device_reasonably() {
        // Train on base devices, test on an extended (unseen) device; the
        // calibration-free SSD representation should still land within a few
        // metres (random guessing on the 62 m path averages >20 m).
        let building = building_1();
        let train = FingerprintDataset::collect(
            &building,
            &base_devices()[..3],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 3,
                seed: 4,
            },
        );
        let test = FingerprintDataset::collect(
            &building,
            &extended_devices()[..1],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 3,
                seed: 5,
            },
        );
        let mut ssd = KnnLocalizer::new(5, FeatureMode::Ssd);
        ssd.fit(&train).unwrap();
        let ssd_report = evaluate_localizer(&ssd, &test, &building).unwrap();
        assert!(
            ssd_report.mean_error_m() < 8.0,
            "SSD unseen-device error {} m",
            ssd_report.mean_error_m()
        );
    }

    /// The distance to a stored fingerprint is only defined at its width:
    /// an observation of another access-point count is refused, not
    /// matched over the shorter of the two.
    #[test]
    fn refuses_observations_of_another_access_point_count() {
        let (_, ds) = dataset(1);
        let mut knn = KnnLocalizer::new(3, FeatureMode::MeanChannel);
        knn.fit(&ds).unwrap();
        let aps = ds.num_aps();
        for width in [aps - 3, aps + 3] {
            let mut observation = ds.observations()[0].clone();
            for channel in [
                &mut observation.min,
                &mut observation.max,
                &mut observation.mean,
            ] {
                channel.resize(width, -100.0);
            }
            let refused = knn.localize_batch(&[ds.observations()[1].clone(), observation]);
            assert!(
                matches!(refused, Err(VitalError::InvalidDataset(_))),
                "{width} APs against a survey of {aps}: {refused:?}"
            );
        }
        assert!(knn.localize_batch(&ds.observations()[..2]).is_ok());
    }

    #[test]
    fn names_reflect_mode() {
        assert_eq!(KnnLocalizer::new(3, FeatureMode::Ssd).name(), "KNN-SSD");
        assert_eq!(KnnLocalizer::new(3, FeatureMode::Hlf).name(), "KNN-HLF");
        assert_eq!(
            KnnLocalizer::new(3, FeatureMode::ThreeChannel).name(),
            "KNN-3ch"
        );
    }

    #[test]
    fn rejects_empty_training_set() {
        let (_, ds) = dataset(1);
        let empty = ds.filter_devices(&["NONE"]);
        let mut knn = KnnLocalizer::new(3, FeatureMode::MeanChannel);
        assert!(knn.fit(&empty).is_err());
    }
}
