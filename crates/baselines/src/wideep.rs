//! WiDeep (paper ref. \[22\]): a denoising stacked autoencoder feeding a
//! Gaussian-process classifier.
//!
//! A full Gaussian-process classifier is replaced by a Gaussian
//! (RBF) kernel classifier over the autoencoder codes — a Nadaraya–Watson
//! estimator of the class posterior, which is the GP predictive mean under a
//! fixed kernel and i.i.d. class labels. This keeps the baseline faithful to
//! its published structure (denoising SAE → Gaussian kernel inference) while
//! remaining tractable inside the reproduction; the substitution is recorded
//! in `REPRODUCTION.md`.

use std::path::Path;

use fingerprint::{FingerprintDataset, FingerprintObservation};
use graph::PlanCache;
use nn::{Layer, StackedAutoencoder, Trace};
use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{Checkpoint, CheckpointError, DamConfig, Localizer, ModelKind, Result, VitalError};

use crate::features::{augmentation_seed, rows_to_tensor, squared_distance, tensor_to_rows};
use crate::{
    check_stored_dim, localize, map_rows, run_compiled, run_eager, FeatureExtractor, FeatureMode,
    Framework,
};

/// The WiDeep localizer: denoising SAE + Gaussian-kernel classification.
#[derive(Debug)]
pub struct WiDeepLocalizer {
    seed: u64,
    extractor: FeatureExtractor,
    pretrain_epochs: usize,
    /// Corruption noise used during denoising pre-training.
    corruption_std: f32,
    /// RBF kernel length scale in code space.
    length_scale: f32,
    autoencoder: Option<StackedAutoencoder>,
    codes: Vec<Vec<f32>>,
    labels: Vec<usize>,
    num_classes: usize,
    /// Compiled SAE-encoder plans, keyed by `(batch, weight stamp)`.
    plan_cache: PlanCache,
}

impl WiDeepLocalizer {
    /// Creates an untrained WiDeep instance.
    pub fn new(seed: u64) -> Self {
        WiDeepLocalizer {
            seed,
            extractor: FeatureExtractor::new(FeatureMode::MeanChannel),
            pretrain_epochs: 60,
            corruption_std: 0.08,
            length_scale: 0.6,
            autoencoder: None,
            codes: Vec::new(),
            labels: Vec::new(),
            num_classes: 0,
            plan_cache: PlanCache::new(),
        }
    }

    /// Bolts the VITAL DAM onto the input pipeline (paper §VI.D).
    ///
    /// The paper observes WiDeep tends to *overfit* when DAM is added
    /// (its own denoising SAE already aggressively perturbs the input); that
    /// behaviour emerges naturally here because DAM noise is applied on top
    /// of the SAE corruption noise.
    pub fn with_dam(mut self, dam: Option<DamConfig>) -> Self {
        self.extractor = FeatureExtractor::new(FeatureMode::MeanChannel).with_dam(dam);
        self
    }

    /// Overrides the SAE pre-training epochs (default 60).
    pub fn with_pretrain_epochs(mut self, epochs: usize) -> Self {
        self.pretrain_epochs = epochs.max(1);
        self
    }

    /// Builds the denoising SAE for a feature width — shared by training
    /// and checkpoint restoration so both construct identical
    /// architectures (any drift would silently break the bit-identical
    /// reload contract).
    fn build_autoencoder(seed: u64, width: usize) -> StackedAutoencoder {
        let mut init_rng = SeededRng::new(seed.wrapping_add(1));
        StackedAutoencoder::new(&mut init_rng, width, &[width.max(16), (width / 2).max(8)])
    }

    /// Serializes the denoising autoencoder and the kernel classifier's
    /// code memory into a [`Checkpoint`].
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn to_checkpoint(&self) -> Result<Checkpoint> {
        let ae = self.autoencoder.as_ref().ok_or(VitalError::NotFitted)?;
        let code_width = self.codes.first().map(Vec::len).unwrap_or(0);
        let mut ckpt = Checkpoint::new(ModelKind::WiDeep);
        ckpt.set_dam_config(self.extractor.dam_config());
        ckpt.push_ints("seed", vec![self.seed]);
        ckpt.push_ints(
            "dims",
            vec![
                self.pretrain_epochs as u64,
                self.num_classes as u64,
                ae.input_dim() as u64,
            ],
        );
        ckpt.push_scalar("corruption_std", f64::from(self.corruption_std));
        ckpt.push_scalar("length_scale", f64::from(self.length_scale));
        ckpt.push_state("autoencoder", ae.state_dict());
        ckpt.push_tensor("codes", rows_to_tensor(&self.codes, code_width)?);
        ckpt.push_ints("labels", self.labels.iter().map(|&l| l as u64).collect());
        Ok(ckpt)
    }

    /// Restores a fitted WiDeep instance from a [`Checkpoint`]; kernel
    /// inference over the restored codes is bit-identical to the saved
    /// instance's.
    ///
    /// # Errors
    /// Returns typed checkpoint errors on kind mismatch, missing entries or
    /// weight-shape drift.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self> {
        ckpt.expect_kind(ModelKind::WiDeep)?;
        let seed = ckpt.ints("seed")?.first().copied().unwrap_or(0);
        let dims = ckpt.usizes("dims")?;
        let [pretrain_epochs, num_classes, width] = dims[..] else {
            return Err(CheckpointError::Corrupt(format!(
                "expected 3 dimension entries, found {}",
                dims.len()
            ))
            .into());
        };
        let mut wideep = WiDeepLocalizer::new(seed)
            .with_dam(ckpt.dam_config().copied())
            .with_pretrain_epochs(pretrain_epochs);
        wideep.num_classes = num_classes;
        wideep.corruption_std = ckpt.scalar("corruption_std")? as f32;
        wideep.length_scale = ckpt.scalar("length_scale")? as f32;

        // Rebuild the SAE exactly as `fit` does, once its width matches the
        // stored first weight, then restore its weights.
        let state = ckpt.state("autoencoder")?;
        check_stored_dim("width", width, state.first(), 0)?;
        let autoencoder = Self::build_autoencoder(seed, width);
        autoencoder.load_state(state)?;
        wideep.autoencoder = Some(autoencoder);

        wideep.codes = tensor_to_rows(ckpt.tensor("codes")?)?;
        wideep.labels = ckpt.usizes("labels")?;
        if wideep.codes.len() != wideep.labels.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{} stored codes but {} labels",
                wideep.codes.len(),
                wideep.labels.len()
            ))
            .into());
        }
        Ok(wideep)
    }

    /// Number of compiled encoder plans currently cached (one per batch
    /// shape served since the last weight change).
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// [`Localizer::localize_batch`] through the eager (tape) SAE encoder —
    /// the uncompiled reference the parity tests compare against.
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn localize_batch_eager(
        &self,
        observations: &[FingerprintObservation],
    ) -> Result<Vec<usize>> {
        localize(self, observations, run_eager::<Self>)
    }
}

impl Framework for WiDeepLocalizer {
    type Net = StackedAutoencoder;

    fn fitted(&self) -> Result<(&StackedAutoencoder, &FeatureExtractor)> {
        if self.codes.is_empty() {
            return Err(VitalError::NotFitted);
        }
        let autoencoder = self.autoencoder.as_ref().ok_or(VitalError::NotFitted)?;
        Ok((autoencoder, &self.extractor))
    }

    /// The SAE encoder: `[batch, width]` features in, bottleneck codes out.
    fn record<T: Trace>(
        autoencoder: &StackedAutoencoder,
        t: &mut T,
        x: T::Node,
    ) -> std::result::Result<T::Node, T::Error> {
        autoencoder.encode(t, x)
    }

    /// Gaussian-kernel posterior argmax for one encoded query.
    fn decide(&self, _query: &[f32], code: &[f32]) -> Result<usize> {
        let gamma = 1.0 / (2.0 * self.length_scale * self.length_scale);
        let mut posterior = vec![0.0f32; self.num_classes];
        for (memory, &label) in self.codes.iter().zip(&self.labels) {
            posterior[label] += (-gamma * squared_distance(memory, code)).exp();
        }
        Ok(Tensor::from_vec(posterior, &[self.num_classes])?.argmax()?)
    }
}

impl Localizer for WiDeepLocalizer {
    fn name(&self) -> &str {
        "WiDeep"
    }

    fn fit(&mut self, train: &FingerprintDataset) -> Result<()> {
        if train.is_empty() {
            return Err(VitalError::InvalidDataset("empty training set".into()));
        }
        self.num_classes = train.num_rps();
        let augmentation = augmentation_seed(self.seed);
        let (features, _) = self.extractor.extract_matrix(train, true, 1, augmentation);
        let width = features.cols()?;

        // Denoising SAE pre-training (aggressive corruption, per the paper's
        // description of WiDeep's behaviour).
        let autoencoder = Self::build_autoencoder(self.seed, width);
        autoencoder.pretrain(
            &features,
            self.pretrain_epochs,
            5e-3,
            self.corruption_std,
            self.seed,
        )?;

        // Store the codes of the clean fingerprints for kernel inference
        // (the training matrix may also hold augmented copies; the memory
        // holds the clean observations only).
        let to_code = |_: &[f32], code: &[f32]| Ok(code.to_vec());
        self.codes = map_rows::<Self, _>(
            &autoencoder,
            &self.extractor,
            train.observations(),
            run_eager::<Self>,
            to_code,
        )?;
        self.autoencoder = Some(autoencoder);
        self.labels = train.labels();
        Ok(())
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        localize(self, observations, run_compiled::<Self>(&self.plan_cache))
    }

    fn save(&self, path: &Path) -> Result<()> {
        self.to_checkpoint()?.write_to(path)
    }

    fn load(path: &Path) -> Result<Self> {
        WiDeepLocalizer::from_checkpoint(&Checkpoint::read_from(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingerprint::{base_devices, DatasetConfig};
    use sim_radio::building_1;
    use vital::evaluate_localizer;

    #[test]
    fn unfitted_errors_and_name() {
        let wideep = WiDeepLocalizer::new(0);
        assert_eq!(wideep.name(), "WiDeep");
        let building = building_1();
        let ds = FingerprintDataset::collect(
            &building,
            &base_devices()[..1],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 2,
                seed: 0,
            },
        );
        assert!(wideep.predict(&ds.observations()[0]).is_err());
        let mut unfit = WiDeepLocalizer::new(0);
        assert!(unfit.fit(&ds.filter_devices(&["NONE"])).is_err());
    }

    #[test]
    fn trains_and_localizes_better_than_chance() {
        let building = building_1();
        let ds = FingerprintDataset::collect(
            &building,
            &base_devices()[..2],
            &DatasetConfig {
                captures_per_rp: 2,
                samples_per_capture: 3,
                seed: 1,
            },
        );
        let split = ds.split(0.8, 11);
        let mut wideep = WiDeepLocalizer::new(5).with_pretrain_epochs(15);
        wideep.fit(&split.train).unwrap();
        let report = evaluate_localizer(&wideep, &split.test, &building).unwrap();
        assert!(
            report.mean_error_m() < 15.0,
            "WiDeep mean error {} m",
            report.mean_error_m()
        );
    }

    #[test]
    fn dam_variant_trains() {
        let building = building_1();
        let ds = FingerprintDataset::collect(
            &building,
            &base_devices()[..1],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 2,
                seed: 3,
            },
        );
        let mut wideep = WiDeepLocalizer::new(1)
            .with_dam(Some(DamConfig::default()))
            .with_pretrain_epochs(3);
        wideep.fit(&ds).unwrap();
        assert!(wideep.predict(&ds.observations()[0]).unwrap() < ds.num_rps());
    }
}
