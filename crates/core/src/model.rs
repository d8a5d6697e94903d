//! The end-to-end VITAL model: RSSI image creation → DAM → vision
//! transformer, with the offline (training) and online (inference) phases of
//! Fig. 3.

use fingerprint::{FingerprintDataset, FingerprintObservation};
use nn::optim::{minibatches, Adam};
use nn::{Layer, Session};
use tensor::rng::{DrawKey, SeededRng};
use tensor::Tensor;

use crate::image::Rssi1d;
use crate::{
    Checkpoint, DataAugmentationModule, Localizer, ModelKind, Result, RssiImageCreator,
    VisionTransformer, VitalConfig, VitalError,
};

/// Per-epoch training statistics returned by [`VitalModel::fit`].
#[derive(Debug, Clone, PartialEq, Default)]
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

    /// Runs image creation for each observation and has `write` turn the
    /// `j`-th one's image into its `per_sample` values of `stacked`, one
    /// after another: the one fill of a training batch, of a compiled
    /// plan's input and of [`VitalModel::prepare_patches`].
    fn fill<'a>(
        &self,
        observations: impl IntoIterator<Item = &'a FingerprintObservation>,
        per_sample: usize,
        stacked: &mut [f32],
        mut write: impl FnMut(usize, &Rssi1d, &mut [f32]) -> Result<()>,
    ) -> Result<()> {
        let slots = stacked.chunks_exact_mut(per_sample);
        for (j, (observation, slot)) in observations.into_iter().zip(slots).enumerate() {
            write(j, &self.creator.create(observation)?, slot)?;
        }
        Ok(())
    }

    /// The full pre-processing pipeline (image creation, DAM, patch
    /// extraction): the observations' row-major `[num_patches, patch_dim]`
    /// patch matrices, one after another in `stacked`, the `j`-th
    /// augmented (when `training`) by the draws of `key(j)`. What
    /// [`VitalModel::fit`] writes each batch's one input with.
    ///
    /// # Errors
    /// If an observation has another access-point count than the image
    /// creator resamples from, or `stacked` is not one patch matrix per
    /// observation.
    pub fn write_patches<'a>(
        &self,
        observations: impl IntoIterator<Item = &'a FingerprintObservation>,
        training: bool,
        key: impl Fn(usize) -> DrawKey,
        stacked: &mut [f32],
    ) -> Result<()> {
        let per_sample = self.transformer.num_patches() * self.transformer.patch_dim();
        self.fill(observations, per_sample, stacked, |j, image, patches| {
            let size = self.config.patch_size;
            self.dam
                .write_patches(image, size, training, key(j), patches)
        })
    }

    /// The online phase's input: what is distinct in each observation's
    /// inference-mode patch matrix
    /// ([`DataAugmentationModule::write_folded`]), one
    /// `[distinct_patches, distinct_dim]` matrix after another in
    /// `stacked`.
    fn write_folded(
        &self,
        observations: &[FingerprintObservation],
        stacked: &mut [f32],
    ) -> Result<()> {
        let per_sample = self.transformer.distinct_patches() * self.transformer.distinct_dim();
        self.fill(observations, per_sample, stacked, |_, image, rows| {
            self.dam.write_folded(image, self.config.patch_size, rows)
        })
    }

    /// The `[num_patches, patch_dim]` patch matrix of one observation.
    ///
    /// `training` controls whether the stochastic DAM stages are applied;
    /// their draws are keyed by one 64-bit word drawn from `rng`. Inference
    /// draws nothing.
    ///
    /// # Errors
    /// Returns [`VitalError::InvalidDataset`] if the observation's access
    /// point count is not the configured one.
    pub fn prepare_patches(
        &self,
        observation: &FingerprintObservation,
        training: bool,
        rng: &mut SeededRng,
    ) -> Result<Tensor> {
        crate::check_widths(self.config.num_aps, std::slice::from_ref(observation))?;
        let dims = [self.transformer.num_patches(), self.transformer.patch_dim()];
        let mut patches = vec![0.0; dims[0] * dims[1]];
        let key = if training {
            DrawKey::new(rng.next_u64(), [0, 0])
        } else {
            DrawKey::default()
        };
        self.write_patches([observation], training, |_| key, &mut patches)?;
        Ok(Tensor::from_vec(patches, &dims)?)
    }

    /// The image creator resamples whatever width it is given to the image
    /// size, so a fingerprint of another access-point set would train, or
    /// get a confident answer; every entry point refuses it instead.
    fn check_dataset(&self, dataset: &FingerprintDataset) -> Result<()> {
        if dataset.is_empty() {
            return Err(VitalError::InvalidDataset("empty training set".into()));
        }
        crate::check_widths(self.config.num_aps, dataset.observations())?;
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
    /// Returns an error if the dataset is empty, its access point count is
    /// not the configured one, or labels exceed the configured class count.
    pub fn fit(&mut self, train: &FingerprintDataset) -> Result<TrainingReport> {
        self.fit_with_progress(train, |_, _| {})
    }

    /// Like [`VitalModel::fit`] but invokes `progress(epoch, mean_loss)` after
    /// every epoch — used by the experiment harness for long runs.
    ///
    /// # Errors
    /// As [`VitalModel::fit`].
    pub fn fit_with_progress(
        &mut self,
        train: &FingerprintDataset,
        progress: impl FnMut(usize, f32),
    ) -> Result<TrainingReport> {
        self.check_dataset(train)?;
        let observations = train.observations();
        let train_config = &self.config.train;
        // The loop's shuffle and dropout, and the DAM's draws, each keyed
        // by a seed of their own.
        let (loop_seed, dam_seed) = (
            train_config.seed.wrapping_add(0xA0),
            train_config.seed.wrapping_add(0xDA),
        );
        let epoch_losses = minibatches(
            &mut Adam::new(train_config.learning_rate),
            observations.len(),
            train_config.batch_size,
            train_config.epochs,
            loop_seed,
            |session, epoch, indices| {
                // The batch's patches, stacked as the tape's one constant;
                // an observation's draws are keyed by its index in `train`.
                let patch_dim = self.transformer.patch_dim();
                let rows = indices.len() * self.transformer.num_patches();
                let mut stacked = vec![0.0; rows * patch_dim];
                let samples = indices.iter().map(|&i| &observations[i]);
                let key = |j: usize| DrawKey::new(dam_seed, [epoch, indices[j]]);
                self.write_patches(samples.clone(), true, key, &mut stacked)?;
                let stacked = Tensor::from_vec(stacked, &[rows, patch_dim])?;
                let batch_labels: Vec<usize> = samples.map(|o| o.rp_label).collect();
                let stacked = session.constant(stacked);
                let logits = self.transformer.forward(session, stacked, indices.len())?;
                Ok::<_, VitalError>(logits.softmax_cross_entropy(&batch_labels)?)
            },
            progress,
        )?;
        self.fitted = true;

        // Training accuracy on a bounded subsample (keeps fit() cheap),
        // localized as one batch: one plan per chunk shape, not one
        // single-observation plan run per sample.
        let step = (observations.len() / 200).max(1);
        let subsample: Vec<FingerprintObservation> =
            observations.iter().step_by(step).cloned().collect();
        let predicted = self.localize_batch(&subsample)?;
        let correct = predicted
            .iter()
            .zip(&subsample)
            .filter(|(label, observation)| **label == observation.rp_label)
            .count();
        Ok(TrainingReport {
            epoch_losses,
            final_train_accuracy: correct as f32 / subsample.len().max(1) as f32,
        })
    }

    /// [`Localizer::localize_batch`] with the same folded forward recorded
    /// on an eval-mode tape, chunk by chunk (one tensor per op, no fusion,
    /// no arena): the bit-exactness oracle for the compiled path.
    ///
    /// # Errors
    /// As [`Localizer::localize_batch`].
    pub fn localize_batch_eager(
        &self,
        observations: &[FingerprintObservation],
    ) -> Result<Vec<usize>> {
        if !self.fitted {
            return Err(VitalError::NotFitted);
        }
        crate::check_widths(self.config.num_aps, observations)?;
        let (rows, cols) = (
            self.transformer.distinct_patches(),
            self.transformer.distinct_dim(),
        );
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(self.config.train.batch_size) {
            let mut distinct = vec![0.0; chunk.len() * rows * cols];
            self.write_folded(chunk, &mut distinct)?;
            let distinct = Tensor::from_vec(distinct, &[chunk.len() * rows, cols])?;
            let tape = autograd::Tape::new();
            let mut session = Session::new(&tape, false, 0);
            let distinct = session.constant(distinct);
            let logits = self
                .transformer
                .forward_folded(&mut session, distinct, chunk.len())?;
            predictions.extend(logits.value().argmax_rows()?);
        }
        Ok(predictions)
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
    /// The configuration is held to the stored weights before the model is
    /// built: a configuration whose [`VitalConfig::param_count`] is not
    /// the stored state's total volume would allocate weights the file
    /// never held (one flipped bit of `num_classes` asks for terabytes).
    ///
    /// # Errors
    /// Returns a checkpoint error on kind mismatch or missing entries,
    /// [`crate::CheckpointError::Corrupt`] if the configuration does not
    /// count the stored weights, and a tensor error if stored weight shapes
    /// do not match the configuration's architecture.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self> {
        ckpt.expect_kind(ModelKind::Vital)?;
        let config = ckpt.vital_config()?.clone();
        let state = ckpt.state("transformer")?;
        let stored: usize = state.iter().map(|(_, weights)| weights.len()).sum();
        let counted = config.param_count();
        if counted != Some(stored) {
            return Err(crate::CheckpointError::Corrupt(format!(
                "vital_config counts {counted:?} transformer parameters, the stored state \
                 holds {stored}"
            ))
            .into());
        }
        let mut model = VitalModel::new(config)?;
        model.transformer.load_state(state)?;
        model.fitted = true;
        Ok(model)
    }
}

impl Localizer for VitalModel {
    fn name(&self) -> &str {
        "VITAL"
    }

    fn num_aps(&self) -> usize {
        self.config.num_aps
    }

    fn fit(&mut self, train: &FingerprintDataset) -> Result<()> {
        VitalModel::fit(self, train)?;
        Ok(())
    }

    /// Chunks of `train.batch_size` observations share one compiled
    /// forward pass of the folded form
    /// ([`VisionTransformer::predict_folded`]): at inference the DAM only
    /// replicates, so each observation's distinct patch row is written
    /// straight into the plan's input and the replicated image exists
    /// nowhere. Memory stays bounded on any query stream, and results are
    /// identical to predicting each observation alone (the stacked path is
    /// bit-exact, inference draws nothing).
    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        if !self.fitted {
            return Err(VitalError::NotFitted);
        }
        crate::check_widths(self.config.num_aps, observations)?;
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(self.config.train.batch_size) {
            let fill = |stacked: &mut [f32]| self.write_folded(chunk, stacked);
            predictions.extend(self.transformer.predict_folded(chunk.len(), fill)?);
        }
        Ok(predictions)
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
    fn rejects_a_fingerprint_of_another_access_point_set() {
        // A model resamples any width to its image size, so only the
        // count check stands between a 7-AP observation and a confident
        // label from a model of a 30-AP building.
        let (_, dataset, mut config) = tiny_training_setup();
        config.train.epochs = 1;
        let refused = |result: Result<()>, counts: [usize; 2]| match result {
            Err(VitalError::InvalidDataset(message)) => {
                for count in counts {
                    assert!(message.contains(&count.to_string()), "{message}");
                }
            }
            other => panic!("expected InvalidDataset, got {other:?}"),
        };
        let num_aps = dataset.num_aps();
        let mut narrow = dataset.observations()[0].clone();
        for channel in [&mut narrow.min, &mut narrow.max, &mut narrow.mean] {
            channel.truncate(7);
        }

        let mut other_building = config.clone();
        other_building.num_aps = num_aps + 3;
        let mut model = VitalModel::new(other_building).unwrap();
        refused(model.fit(&dataset).map(drop), [num_aps, num_aps + 3]);
        assert!(!model.is_fitted());

        let mut model = VitalModel::new(config).unwrap();
        model.fit(&dataset).unwrap();
        let mut batch = dataset.observations()[..3].to_vec();
        assert!(model.localize_batch(&batch).is_ok());
        batch[1] = narrow.clone();
        refused(model.localize_batch(&batch).map(drop), [7, num_aps]);
        let patches = model.prepare_patches(&narrow, false, &mut SeededRng::new(0));
        refused(patches.map(drop), [7, num_aps]);
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
    fn an_observations_training_patches_do_not_depend_on_where_it_sits_in_a_batch() {
        // The training fill keys each observation's draws by its index in
        // the training set; nothing else may reach its patches.
        let (_, dataset, config) = tiny_training_setup();
        let model = VitalModel::new(config).unwrap();
        let observations = dataset.observations();
        let per_sample = model.transformer().num_patches() * model.transformer().patch_dim();
        let write = |indices: &[usize]| {
            let mut stacked = vec![f32::NAN; indices.len() * per_sample];
            let samples = indices.iter().map(|&i| &observations[i]);
            let key = |j: usize| DrawKey::new(17, [3, indices[j]]);
            model
                .write_patches(samples, true, key, &mut stacked)
                .unwrap();
            stacked.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let target = 5;
        let alone = write(&[target]);
        let others = (0..observations.len()).filter(|&i| i != target);
        let mut batch: Vec<usize> = others.take(15).collect();
        batch.insert(0, target);
        let written = write(&batch);
        assert_eq!(written[..per_sample], alone, "at position 0 of 16");
        batch.rotate_left(1);
        let written = write(&batch);
        assert_eq!(written[15 * per_sample..], alone, "at position 15 of 16");
        // The draws are there: another epoch is another view.
        let key = |_| DrawKey::new(17, [4, target]);
        let mut other_epoch = vec![f32::NAN; per_sample];
        model
            .write_patches([&observations[target]], true, key, &mut other_epoch)
            .unwrap();
        assert_ne!(
            other_epoch.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            alone
        );
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
