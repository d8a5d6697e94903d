//! The end-to-end VITAL model: RSSI image creation → DAM → vision
//! transformer, with the offline (training) and online (inference) phases of
//! Fig. 3.

use fingerprint::{FingerprintDataset, FingerprintObservation};
use nn::optim::{minibatches, Adam};
use nn::{Layer, Session};
use serde::{Deserialize, Serialize};
use tensor::rng::SeededRng;
use tensor::Tensor;

use crate::{
    Checkpoint, DataAugmentationModule, Localizer, ModelKind, Result, RssiImageCreator,
    VisionTransformer, VitalConfig, VitalError,
};

/// Per-epoch training statistics returned by [`VitalModel::fit`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrainingReport {
    /// Mean cross-entropy loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Classification accuracy on (a subsample of) the training set after the
    /// final epoch.
    pub final_train_accuracy: f32,
}

impl TrainingReport {
    /// Loss of the final epoch (`0.0` if training never ran).
    pub fn final_loss(&self) -> f32 {
        self.epoch_losses.last().copied().unwrap_or(0.0)
    }

    /// Whether the loss decreased from the first to the last epoch.
    pub fn improved(&self) -> bool {
        match (self.epoch_losses.first(), self.epoch_losses.last()) {
            (Some(first), Some(last)) => last < first,
            _ => false,
        }
    }
}

/// The VITAL indoor-localization model (paper Fig. 3).
///
/// Owns the three pipeline stages — [`RssiImageCreator`],
/// [`DataAugmentationModule`] and [`VisionTransformer`] — and drives the
/// offline (group training over heterogeneous devices) and online
/// (single-observation inference) phases.
#[derive(Debug, Clone)]
pub struct VitalModel {
    config: VitalConfig,
    creator: RssiImageCreator,
    dam: DataAugmentationModule,
    transformer: VisionTransformer,
    fitted: bool,
}

impl VitalModel {
    /// Builds an untrained model from a configuration.
    ///
    /// # Errors
    /// Returns [`VitalError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: VitalConfig) -> Result<Self> {
        config.validate()?;
        let mut rng = SeededRng::new(config.train.seed);
        let transformer = VisionTransformer::new(&mut rng, &config)?;
        Ok(VitalModel {
            creator: RssiImageCreator::new(config.image_size),
            dam: DataAugmentationModule::new(config.dam),
            transformer,
            config,
            fitted: false,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &VitalConfig {
        &self.config
    }

    /// The underlying vision transformer.
    pub fn transformer(&self) -> &VisionTransformer {
        &self.transformer
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.transformer.param_count()
    }

    /// Whether [`VitalModel::fit`] has completed at least once.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Runs the full pre-processing pipeline (image creation, DAM, patch
    /// extraction) for one observation.
    ///
    /// `training` controls whether the stochastic DAM stages are applied.
    ///
    /// # Errors
    /// Returns an error if the observation is empty.
    pub fn prepare_patches(
        &self,
        observation: &FingerprintObservation,
        training: bool,
        rng: &mut SeededRng,
    ) -> Result<Tensor> {
        let image_1d = self.creator.create(observation)?;
        let image_2d = self.dam.augment(&image_1d, training, rng)?;
        image_2d.to_patches(self.config.patch_size)
    }

    fn check_dataset(&self, dataset: &FingerprintDataset) -> Result<()> {
        if dataset.is_empty() {
            return Err(VitalError::InvalidDataset("empty training set".into()));
        }
        if let Some(&bad) = dataset
            .labels()
            .iter()
            .find(|&&l| l >= self.config.num_classes)
        {
            return Err(VitalError::InvalidDataset(format!(
                "label {bad} exceeds configured num_classes {}",
                self.config.num_classes
            )));
        }
        Ok(())
    }

    /// Trains the model with mini-batch Adam on the given (group) training
    /// set. Repeated calls continue training from the current weights.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or labels exceed the
    /// configured class count.
    pub fn fit(&mut self, train: &FingerprintDataset) -> Result<TrainingReport> {
        self.fit_with_progress(train, |_, _| {})
    }

    /// Like [`VitalModel::fit`] but invokes `progress(epoch, mean_loss)` after
    /// every epoch — used by the experiment harness for long runs.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or labels exceed the
    /// configured class count.
    pub fn fit_with_progress(
        &mut self,
        train: &FingerprintDataset,
        progress: impl FnMut(usize, f32),
    ) -> Result<TrainingReport> {
        self.check_dataset(train)?;
        let observations = train.observations();
        let train_config = &self.config.train;
        let mut rng = SeededRng::new(train_config.seed.wrapping_add(0xA0));
        let epoch_losses = minibatches(
            &mut Adam::new(train_config.learning_rate),
            observations.len(),
            train_config.batch_size,
            train_config.epochs,
            &mut rng,
            |tape, epoch, batch, indices, rng| {
                let mut batch_patches = Vec::with_capacity(indices.len());
                let mut batch_labels = Vec::with_capacity(indices.len());
                for &i in indices {
                    batch_patches.push(self.prepare_patches(&observations[i], true, rng)?);
                    batch_labels.push(observations[i].rp_label);
                }
                let session_seed = train_config
                    .seed
                    .wrapping_add((epoch * 10_007 + batch) as u64);
                let mut session = Session::new(tape, true, session_seed);
                let logits = self
                    .transformer
                    .forward_batch(&mut session, &batch_patches)?;
                let loss = logits.softmax_cross_entropy(&batch_labels)?;
                Ok::<_, VitalError>((session, loss))
            },
            progress,
        )?;
        self.fitted = true;

        // Training accuracy on a bounded subsample (keeps fit() cheap).
        let mut correct = 0;
        let mut total = 0;
        let step = (observations.len() / 200).max(1);
        for observation in observations.iter().step_by(step) {
            if self.predict(observation)? == observation.rp_label {
                correct += 1;
            }
            total += 1;
        }
        Ok(TrainingReport {
            epoch_losses,
            final_train_accuracy: correct as f32 / total.max(1) as f32,
        })
    }

    /// Serializes the trained model (configuration + transformer weights)
    /// into a [`Checkpoint`] envelope.
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] if the model has not been trained;
    /// persisting untrained weights is almost always a pipeline bug.
    pub fn to_checkpoint(&self) -> Result<Checkpoint> {
        if !self.fitted {
            return Err(VitalError::NotFitted);
        }
        let mut ckpt = Checkpoint::new(ModelKind::Vital);
        ckpt.set_vital_config(self.config.clone());
        ckpt.push_state("transformer", self.transformer.state_dict());
        Ok(ckpt)
    }

    /// Rebuilds a trained model from a [`Checkpoint`]: the architecture is
    /// reconstructed from the stored [`VitalConfig`] and every transformer
    /// weight is restored, so predictions are bit-identical to the saved
    /// model's.
    ///
    /// # Errors
    /// Returns a checkpoint error on kind mismatch or missing entries, and
    /// a tensor error if stored weight shapes do not match the
    /// configuration's architecture.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self> {
        ckpt.expect_kind(ModelKind::Vital)?;
        let config = ckpt.vital_config()?.clone();
        let mut model = VitalModel::new(config)?;
        model.transformer.load_state(ckpt.state("transformer")?)?;
        model.fitted = true;
        Ok(model)
    }

    /// Batched online inference: predicts every observation through stacked
    /// transformer forward passes, amortizing tape construction and turning
    /// the per-sample dense layers into batch-wide GEMMs.
    ///
    /// Chunks of `train.batch_size` observations share one forward pass, so
    /// memory stays bounded on arbitrarily large query streams. Each
    /// observation's patches are written straight into the compiled plan's
    /// stacked input ([`VisionTransformer::predict_filled`]), one
    /// observation at a time: the [`VitalModel::prepare_patches`]
    /// pipeline, minus the patch tensor. Results are identical to
    /// predicting each observation alone (the stacked path is bit-exact;
    /// preprocessing uses the same fixed inference seed).
    ///
    /// # Errors
    /// Returns an error if any observation is empty or mismatched.
    pub fn predict_observations(
        &self,
        observations: &[FingerprintObservation],
    ) -> Result<Vec<usize>> {
        let chunk_size = self.config.train.batch_size.max(1);
        let per_sample = self.transformer.num_patches() * self.transformer.patch_dim();
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(chunk_size) {
            predictions.extend(self.transformer.predict_filled(chunk.len(), |stacked| {
                for (observation, patches) in chunk.iter().zip(stacked.chunks_exact_mut(per_sample))
                {
                    let image_1d = self.creator.create(observation)?;
                    let image_2d = self.dam.augment(&image_1d, false, &mut SeededRng::new(0))?;
                    image_2d.write_patches(self.config.patch_size, patches)?;
                }
                Ok(())
            })?);
        }
        Ok(predictions)
    }
}

impl Localizer for VitalModel {
    fn name(&self) -> &str {
        "VITAL"
    }

    fn fit(&mut self, train: &FingerprintDataset) -> Result<()> {
        VitalModel::fit(self, train)?;
        Ok(())
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        if !self.fitted {
            return Err(VitalError::NotFitted);
        }
        self.predict_observations(observations)
    }

    fn save(&self, path: &std::path::Path) -> Result<()> {
        self.to_checkpoint()?.write_to(path)
    }

    fn load(path: &std::path::Path) -> Result<Self> {
        VitalModel::from_checkpoint(&Checkpoint::read_from(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_localizer;
    use fingerprint::{base_devices, DatasetConfig};
    use sim_radio::building_1;

    fn tiny_training_setup() -> (sim_radio::Building, FingerprintDataset, VitalConfig) {
        let building = building_1();
        // Keep the problem small: 2 devices, restrict to the first 12 RPs by
        // collecting normally and filtering below.
        let dataset = FingerprintDataset::collect(
            &building,
            &base_devices()[..2],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 3,
                seed: 1,
            },
        );
        let subset: Vec<_> = dataset
            .observations()
            .iter()
            .filter(|o| o.rp_label < 12)
            .cloned()
            .collect();
        let dataset = FingerprintDataset::from_observations(
            dataset.building(),
            dataset.num_aps(),
            12,
            subset,
        );
        let mut config = VitalConfig::fast(building.access_points().len(), 12);
        config.image_size = 16;
        config.patch_size = 4;
        config.d_model = 24;
        config.msa_heads = 4;
        config.encoder_mlp_hidden = vec![32, 16];
        config.head_hidden = vec![32];
        config.train.epochs = 12;
        config.train.batch_size = 8;
        (building, dataset, config)
    }

    #[test]
    fn untrained_model_refuses_to_predict() {
        let (_, dataset, config) = tiny_training_setup();
        let model = VitalModel::new(config).unwrap();
        assert!(!model.is_fitted());
        let obs = &dataset.observations()[0];
        assert!(matches!(
            Localizer::predict(&model, obs),
            Err(VitalError::NotFitted)
        ));
    }

    #[test]
    fn rejects_labels_beyond_configured_classes() {
        let (_, dataset, mut config) = tiny_training_setup();
        config.num_classes = 4; // dataset has labels up to 11
        let mut model = VitalModel::new(config).unwrap();
        assert!(matches!(
            model.fit(&dataset),
            Err(VitalError::InvalidDataset(_))
        ));
    }

    #[test]
    fn rejects_empty_dataset() {
        let (_, dataset, config) = tiny_training_setup();
        let empty = dataset.filter_devices(&["NONE"]);
        let mut model = VitalModel::new(config).unwrap();
        assert!(model.fit(&empty).is_err());
    }

    #[test]
    fn training_reduces_loss_and_enables_localization() {
        let (building, dataset, config) = tiny_training_setup();
        let mut model = VitalModel::new(config).unwrap();
        let report = model.fit(&dataset).unwrap();
        assert!(model.is_fitted());
        assert!(
            report.improved(),
            "loss did not improve: {:?}",
            report.epoch_losses
        );
        assert!(report.final_loss() < report.epoch_losses[0]);
        // On its own training data the model should localize far better than
        // chance (the 12-RP path spans 11 m; random guessing averages ~4 m).
        let eval = evaluate_localizer(&model, &dataset, &building).unwrap();
        assert!(
            eval.mean_error_m() < 3.0,
            "mean error {} m on training data",
            eval.mean_error_m()
        );
    }

    #[test]
    fn batched_localization_matches_per_observation_predictions() {
        let (_, dataset, mut config) = tiny_training_setup();
        config.train.epochs = 2;
        let mut model = VitalModel::new(config).unwrap();
        model.fit(&dataset).unwrap();
        let observations = dataset.observations();
        let batched = model.localize_batch(observations).unwrap();
        assert_eq!(batched.len(), observations.len());
        for (observation, &batch_pred) in observations.iter().zip(&batched) {
            assert_eq!(
                batch_pred,
                Localizer::predict(&model, observation).unwrap(),
                "batched and per-observation inference diverged"
            );
        }
    }

    #[test]
    fn prepare_patches_has_model_shape_and_inference_is_deterministic() {
        let (_, dataset, config) = tiny_training_setup();
        let model = VitalModel::new(config).unwrap();
        let obs = &dataset.observations()[0];
        let mut rng = SeededRng::new(9);
        let patches = model.prepare_patches(obs, false, &mut rng).unwrap();
        assert_eq!(
            patches.shape().dims(),
            &[
                model.transformer().num_patches(),
                model.transformer().patch_dim()
            ]
        );
        let again = model.prepare_patches(obs, false, &mut rng).unwrap();
        assert_eq!(
            patches, again,
            "inference preprocessing must be deterministic"
        );
        assert!(model.param_count() > 1000);
        assert_eq!(Localizer::name(&model), "VITAL");
    }

    #[test]
    fn checkpoint_round_trip_is_bit_exact() {
        let (_, dataset, mut config) = tiny_training_setup();
        config.train.epochs = 2;
        let mut model = VitalModel::new(config).unwrap();
        model.fit(&dataset).unwrap();

        let dir = std::env::temp_dir().join("vital-model-roundtrip");
        let path = dir.join("vital.vckpt");
        Localizer::save(&model, &path).unwrap();
        let restored = <VitalModel as Localizer>::load(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();

        assert!(restored.is_fitted());
        assert_eq!(restored.config(), model.config());
        let observations = dataset.observations();
        assert_eq!(
            restored.localize_batch(observations).unwrap(),
            model.localize_batch(observations).unwrap(),
            "restored model diverged from the trained one"
        );
        // Weight-level bit-exactness, not just argmax agreement.
        for ((_, a), (_, b)) in model
            .transformer()
            .state_dict()
            .iter()
            .zip(restored.transformer().state_dict().iter())
        {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn unfitted_model_refuses_to_checkpoint() {
        let (_, _, config) = tiny_training_setup();
        let model = VitalModel::new(config).unwrap();
        assert!(matches!(model.to_checkpoint(), Err(VitalError::NotFitted)));
    }

    #[test]
    fn checkpoint_of_wrong_kind_is_rejected() {
        let ckpt = Checkpoint::new(ModelKind::Knn);
        assert!(matches!(
            VitalModel::from_checkpoint(&ckpt),
            Err(VitalError::Checkpoint(
                crate::CheckpointError::WrongKind { .. }
            ))
        ));
    }

    #[test]
    fn training_report_helpers() {
        let r = TrainingReport {
            epoch_losses: vec![2.0, 1.0, 0.5],
            final_train_accuracy: 0.8,
        };
        assert!(r.improved());
        assert_eq!(r.final_loss(), 0.5);
        assert!(!TrainingReport::default().improved());
    }
}
