//! WiDeep (paper ref. \[22\]): a denoising stacked autoencoder feeding a
//! Gaussian-process classifier.
//!
//! A full Gaussian-process classifier is replaced by a Gaussian
//! (RBF) kernel classifier over the autoencoder codes — a Nadaraya–Watson
//! estimator of the class posterior, which is the GP predictive mean under a
//! fixed kernel and i.i.d. class labels. This keeps the baseline faithful to
//! its published structure (denoising SAE → Gaussian kernel inference) while
//! remaining tractable inside the reproduction; the substitution is recorded
//! in `DESIGN.md`.

use std::path::Path;

use fingerprint::{FingerprintDataset, FingerprintObservation};
use graph::PlanCache;
use nn::{Layer, StackedAutoencoder};
use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{Checkpoint, CheckpointError, DamConfig, Localizer, ModelKind, Result, VitalError};

use crate::features::{rows_to_tensor, tensor_to_rows};
use crate::{FeatureExtractor, FeatureMode};

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

        // Rebuild the SAE exactly as `fit` does, then restore its weights.
        let autoencoder = Self::build_autoencoder(seed, width);
        autoencoder.load_state(ckpt.state("autoencoder")?)?;
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

    fn encode(&self, features: &[f32]) -> Result<Vec<f32>> {
        let x = Tensor::from_vec(features.to_vec(), &[1, features.len()])?;
        Ok(self.encode_matrix_eager(&x)?.into_vec())
    }

    /// SAE codes of a `[batch, width]` stack on an eval-mode tape — the
    /// bit-exactness reference for [`WiDeepLocalizer::encode_matrix`].
    fn encode_matrix_eager(&self, features: &Tensor) -> Result<Tensor> {
        let ae = self.autoencoder.as_ref().ok_or(VitalError::NotFitted)?;
        crate::run_eager(features, |session, x| ae.encode(session, x))
    }

    /// Encodes a `[batch, width]` query stack through the cached compiled
    /// SAE-encoder plan; bit-identical to
    /// [`WiDeepLocalizer::encode_matrix_eager`] on the same stack.
    fn encode_matrix(&self, features: &Tensor) -> Result<Tensor> {
        let ae = self.autoencoder.as_ref().ok_or(VitalError::NotFitted)?;
        crate::run_compiled(&self.plan_cache, &ae.params(), features, |g, x| {
            ae.encode(g, x)
        })
    }

    /// Number of compiled encoder plans currently cached (one per batch
    /// shape served since the last weight change).
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// Gaussian-kernel classification of a stack of encoded queries; the
    /// scoring only touches Sync state, so queries fan out across threads.
    fn classify_codes(&self, codes: &Tensor) -> Result<Vec<usize>> {
        let code_width = codes.cols()?;
        let queries: Vec<Vec<f32>> = codes
            .as_slice()
            .chunks_exact(code_width)
            .map(<[f32]>::to_vec)
            .collect();
        let memory_codes = &self.codes;
        let memory_labels = &self.labels;
        let gamma = 1.0 / (2.0 * self.length_scale * self.length_scale);
        let num_classes = self.num_classes;
        let scored = parallel::parallel_map(&queries, |query| {
            let mut posterior = vec![0.0f32; num_classes];
            for (code, &label) in memory_codes.iter().zip(memory_labels) {
                let d2: f32 = code.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
                posterior[label] += (-gamma * d2).exp();
            }
            Tensor::from_vec(posterior, &[num_classes]).and_then(|t| t.argmax())
        });
        scored.into_iter().map(|s| Ok(s?)).collect()
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
        if self.codes.is_empty() {
            return Err(VitalError::NotFitted);
        }
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(crate::features::INFERENCE_CHUNK) {
            let features = self.extractor.extract_clean_batch(chunk);
            let codes = self.encode_matrix_eager(&crate::features::stack_rows(&features)?)?;
            predictions.extend(self.classify_codes(&codes)?);
        }
        Ok(predictions)
    }

    /// Gaussian-kernel posterior argmax for one encoded query.
    fn classify_code(&self, query: &[f32]) -> Result<usize> {
        let gamma = 1.0 / (2.0 * self.length_scale * self.length_scale);
        let mut posterior = vec![0.0f32; self.num_classes];
        for (code, &label) in self.codes.iter().zip(&self.labels) {
            let d2: f32 = code.iter().zip(query).map(|(a, b)| (a - b) * (a - b)).sum();
            posterior[label] += (-gamma * d2).exp();
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
        let mut rng = SeededRng::new(self.seed);
        let (features, labels) = self.extractor.extract_matrix(train, true, 1, &mut rng);
        let width = features.cols()?;

        // Denoising SAE pre-training (aggressive corruption, per the paper's
        // description of WiDeep's behaviour).
        let autoencoder = Self::build_autoencoder(self.seed, width);
        autoencoder
            .pretrain(
                &features,
                self.pretrain_epochs,
                5e-3,
                self.corruption_std,
                self.seed,
            )
            .map_err(VitalError::from)?;
        self.autoencoder = Some(autoencoder);

        // Store the codes of the clean fingerprints for kernel inference.
        let mut clean_rng = SeededRng::new(self.seed.wrapping_add(2));
        self.codes = train
            .observations()
            .iter()
            .map(|o| {
                let f = self.extractor.extract(o, false, &mut clean_rng);
                self.encode(&f)
            })
            .collect::<Result<Vec<_>>>()?;
        self.labels = labels
            .into_iter()
            .take(self.codes.len())
            .collect::<Vec<_>>();
        // extract_matrix may have produced augmented copies; keep labels of
        // the clean observations only.
        self.labels = train.labels();
        Ok(())
    }

    fn predict(&self, observation: &FingerprintObservation) -> Result<usize> {
        if self.codes.is_empty() {
            return Err(VitalError::NotFitted);
        }
        let mut rng = SeededRng::new(0);
        let features = self.extractor.extract(observation, false, &mut rng);
        let query = self.encode(&features)?;
        self.classify_code(&query)
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        if self.codes.is_empty() {
            return Err(VitalError::NotFitted);
        }
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(crate::features::INFERENCE_CHUNK) {
            // Encode the whole chunk through the compiled SAE-encoder plan
            // in one stacked pass, then kernel-score the codes.
            let features = self.extractor.extract_clean_batch(chunk);
            let codes = self.encode_matrix(&crate::features::stack_rows(&features)?)?;
            predictions.extend(self.classify_codes(&codes)?);
        }
        Ok(predictions)
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
