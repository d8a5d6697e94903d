//! CNNLoc (paper ref. \[21\]): stacked-autoencoder pre-training followed by a
//! 1-D convolutional neural network classifier over the RSSI fingerprint.

use std::path::Path;

use fingerprint::{FingerprintDataset, FingerprintObservation};
use graph::PlanCache;
use nn::optim::{minibatches, Adam};
use nn::{Activation, Conv1d, Layer, Mlp, Param, StackedAutoencoder, Trace};
use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{Checkpoint, CheckpointError, DamConfig, Localizer, ModelKind, Result, VitalError};

use crate::features::{augmentation_seed, gather_rows};
use crate::{
    check_stored_dim, localize, run_compiled, run_eager, FeatureExtractor, FeatureMode, Framework,
};

/// The three network stages shared by training and inference.
#[derive(Debug)]
pub(crate) struct CnnLocNetwork {
    autoencoder: StackedAutoencoder,
    conv: Conv1d,
    classifier: Mlp,
}

impl CnnLocNetwork {
    /// Builds the stages for a training-feature width — shared by training
    /// and checkpoint restoration so both construct identical shapes.
    fn new(init_rng: &mut SeededRng, width: usize, num_classes: usize) -> Result<Self> {
        let code_dim = (width / 2).max(8);
        let autoencoder = StackedAutoencoder::new(init_rng, width, &[width.max(16), code_dim]);
        let conv = Conv1d::new(init_rng, 3.min(code_dim), 8, 1)?;
        let conv_width = conv.out_width_for(code_dim)?;
        let classifier =
            Mlp::new(init_rng, &[conv_width, 128, num_classes], Activation::Relu).with_dropout(0.1);
        Ok(CnnLocNetwork {
            autoencoder,
            conv,
            classifier,
        })
    }
}

impl Layer for CnnLocNetwork {
    fn params(&self) -> Vec<Param> {
        let mut params = self.autoencoder.params();
        params.extend(self.conv.params());
        params.extend(self.classifier.params());
        params
    }
}

/// The CNNLoc localizer: SAE encoder + 1-D CNN + MLP classifier.
#[derive(Debug)]
pub struct CnnLocLocalizer {
    seed: u64,
    extractor: FeatureExtractor,
    pretrain_epochs: usize,
    epochs: usize,
    network: Option<CnnLocNetwork>,
    num_classes: usize,
    /// Compiled SAE→conv→classifier plans, keyed by `(batch, weight stamp)`.
    plan_cache: PlanCache,
}

impl CnnLocLocalizer {
    /// Creates an untrained CNNLoc instance.
    pub fn new(seed: u64) -> Self {
        CnnLocLocalizer {
            seed,
            extractor: FeatureExtractor::new(FeatureMode::MeanChannel),
            pretrain_epochs: 40,
            epochs: 35,
            network: None,
            num_classes: 0,
            plan_cache: PlanCache::new(),
        }
    }

    /// Bolts the VITAL DAM onto the input pipeline (paper §VI.D).
    pub fn with_dam(mut self, dam: Option<DamConfig>) -> Self {
        self.extractor = FeatureExtractor::new(FeatureMode::MeanChannel).with_dam(dam);
        self
    }

    /// Overrides the classifier training epochs (default 35).
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Overrides the SAE pre-training epochs (default 40).
    pub fn with_pretrain_epochs(mut self, epochs: usize) -> Self {
        self.pretrain_epochs = epochs.max(1);
        self
    }

    /// Serializes all three CNNLoc stages (SAE, 1-D CNN, classifier) into a
    /// [`Checkpoint`].
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn to_checkpoint(&self) -> Result<Checkpoint> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let mut ckpt = Checkpoint::new(ModelKind::CnnLoc);
        ckpt.set_dam_config(self.extractor.dam_config());
        ckpt.push_ints("seed", vec![self.seed]);
        ckpt.push_ints(
            "dims",
            vec![
                self.pretrain_epochs as u64,
                self.epochs as u64,
                self.num_classes as u64,
                network.autoencoder.input_dim() as u64,
            ],
        );
        ckpt.push_state("autoencoder", network.autoencoder.state_dict());
        ckpt.push_state("conv", network.conv.state_dict());
        ckpt.push_state("classifier", network.classifier.state_dict());
        Ok(ckpt)
    }

    /// Restores a fitted CNNLoc instance from a [`Checkpoint`], rebuilding
    /// the stage architectures from the stored dimensions and restoring
    /// every weight bit-exactly.
    ///
    /// # Errors
    /// Returns typed checkpoint errors on kind mismatch, missing entries or
    /// weight-shape drift.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self> {
        ckpt.expect_kind(ModelKind::CnnLoc)?;
        let seed = ckpt.ints("seed")?.first().copied().unwrap_or(0);
        let dims = ckpt.usizes("dims")?;
        let [pretrain_epochs, epochs, num_classes, width] = dims[..] else {
            return Err(CheckpointError::Corrupt(format!(
                "expected 4 dimension entries, found {}",
                dims.len()
            ))
            .into());
        };
        let mut cnnloc = CnnLocLocalizer::new(seed)
            .with_dam(ckpt.dam_config().copied())
            .with_epochs(epochs)
            .with_pretrain_epochs(pretrain_epochs);
        cnnloc.num_classes = num_classes;

        // Every stage is sized from `width` or `num_classes`: hold them to
        // the SAE's first weight and the classifier's last bias first.
        let autoencoder = ckpt.state("autoencoder")?;
        let classifier = ckpt.state("classifier")?;
        check_stored_dim("width", width, autoencoder.first(), 0)?;
        check_stored_dim("num_classes", num_classes, classifier.last(), 0)?;
        let mut init_rng = SeededRng::new(seed.wrapping_add(1));
        let network = CnnLocNetwork::new(&mut init_rng, width, num_classes)?;
        network.autoencoder.load_state(autoencoder)?;
        network.conv.load_state(ckpt.state("conv")?)?;
        network.classifier.load_state(classifier)?;
        cnnloc.network = Some(network);
        Ok(cnnloc)
    }

    /// Number of compiled forward plans currently cached (one per batch
    /// shape served since the last weight change).
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// [`Localizer::localize_batch`] through the eager (tape) forward — the
    /// uncompiled reference the parity tests compare against.
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

impl Framework for CnnLocLocalizer {
    type Net = CnnLocNetwork;

    fn fitted(&self) -> Result<(&CnnLocNetwork, &FeatureExtractor)> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        Ok((network, &self.extractor))
    }

    /// Class logits of a `[batch, width]` stack: SAE encoder → 1-D conv
    /// (window slices over one shared dense kernel) → ReLU → classifier MLP.
    fn record<T: Trace>(
        network: &CnnLocNetwork,
        t: &mut T,
        x: T::Node,
    ) -> std::result::Result<T::Node, T::Error> {
        let code = network.autoencoder.encode(t, x)?;
        let conv_out = network.conv.forward(t, code)?;
        let activated = t.activate(conv_out, Activation::Relu)?;
        network.classifier.forward(t, activated)
    }

    fn decide(&self, _query: &[f32], logits: &[f32]) -> Result<usize> {
        Ok(Tensor::from_vec(logits.to_vec(), &[logits.len()])?.argmax()?)
    }
}

impl Localizer for CnnLocLocalizer {
    fn name(&self) -> &str {
        "CNNLoc"
    }

    fn fit(&mut self, train: &FingerprintDataset) -> Result<()> {
        if train.is_empty() {
            return Err(VitalError::InvalidDataset("empty training set".into()));
        }
        self.num_classes = train.num_rps();
        let augmentation = augmentation_seed(self.seed);
        let (features, labels) = self.extractor.extract_matrix(train, true, 1, augmentation);
        let width = features.cols()?;

        // Stage architectures (shared with checkpoint restoration), then
        // stacked-autoencoder pre-training on the fingerprints.
        let mut init_rng = SeededRng::new(self.seed.wrapping_add(1));
        let network = CnnLocNetwork::new(&mut init_rng, width, self.num_classes)?;
        network
            .autoencoder
            .pretrain(&features, self.pretrain_epochs, 5e-3, 0.02, self.seed)?;
        minibatches(
            &mut Adam::new(1.5e-3),
            features.rows()?,
            32,
            self.epochs,
            self.seed,
            |session, _, indices| {
                let x = session.constant(gather_rows(&features, indices)?);
                let y_batch: Vec<usize> = indices.iter().map(|&i| labels[i]).collect();
                let logits = Self::record(&network, session, x)?;
                Ok::<_, VitalError>(logits.softmax_cross_entropy(&y_batch)?)
            },
            |_, _| {},
        )?;
        self.network = Some(network);
        Ok(())
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        localize(self, observations, run_compiled::<Self>(&self.plan_cache))
    }

    fn save(&self, path: &Path) -> Result<()> {
        self.to_checkpoint()?.write_to(path)
    }

    fn load(path: &Path) -> Result<Self> {
        CnnLocLocalizer::from_checkpoint(&Checkpoint::read_from(path)?)
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
        let cnnloc = CnnLocLocalizer::new(0);
        assert_eq!(cnnloc.name(), "CNNLoc");
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
        assert!(cnnloc.predict(&ds.observations()[0]).is_err());
        let mut unfit = CnnLocLocalizer::new(0);
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
        let split = ds.split(0.8, 9);
        let mut cnnloc = CnnLocLocalizer::new(4)
            .with_epochs(12)
            .with_pretrain_epochs(10);
        cnnloc.fit(&split.train).unwrap();
        let report = evaluate_localizer(&cnnloc, &split.test, &building).unwrap();
        assert!(
            report.mean_error_m() < 12.0,
            "CNNLoc mean error {} m",
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
                seed: 5,
            },
        );
        let mut cnnloc = CnnLocLocalizer::new(2)
            .with_dam(Some(DamConfig::default()))
            .with_epochs(2)
            .with_pretrain_epochs(2);
        cnnloc.fit(&ds).unwrap();
        assert!(cnnloc.predict(&ds.observations()[0]).unwrap() < ds.num_rps());
    }
}
