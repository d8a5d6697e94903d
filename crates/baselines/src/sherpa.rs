//! SHERPA (paper ref. \[20\]): a lightweight framework combining a deep
//! neural network classifier with K-nearest-neighbour refinement.
//!
//! The DNN produces a posterior over reference points; its top candidate
//! classes gate a distance-weighted KNN vote restricted to those candidates,
//! which is what gives SHERPA its robustness to device-specific offsets.

use std::path::Path;

use fingerprint::{FingerprintDataset, FingerprintObservation};
use graph::PlanCache;
use nn::optim::{minibatches, Adam};
use nn::{Activation, Layer, Mlp, Trace};
use tensor::rng::SeededRng;
use vital::{Checkpoint, CheckpointError, DamConfig, Localizer, ModelKind, Result, VitalError};

use crate::features::{augmentation_seed, gather_rows};
use crate::memory::{first_k, Buffers, Memory};
use crate::{
    check_stored_dim, localize, run_compiled, run_eager, FeatureExtractor, FeatureMode, Framework,
};

/// The SHERPA localizer: DNN coarse classification + KNN refinement.
#[derive(Debug)]
pub struct SherpaLocalizer {
    seed: u64,
    extractor: FeatureExtractor,
    epochs: usize,
    top_candidates: usize,
    neighbours: usize,
    network: Option<Mlp>,
    num_classes: usize,
    /// The KNN refinement's clean training fingerprints.
    memory: Memory,
    /// Compiled DNN-posterior plans, keyed by `(batch, weight stamp)`.
    plan_cache: PlanCache,
}

impl SherpaLocalizer {
    /// Creates an untrained SHERPA instance.
    pub fn new(seed: u64) -> Self {
        SherpaLocalizer {
            seed,
            extractor: FeatureExtractor::new(FeatureMode::MeanChannel),
            epochs: 40,
            top_candidates: 3,
            neighbours: 5,
            network: None,
            num_classes: 0,
            memory: Memory::default(),
            plan_cache: PlanCache::new(),
        }
    }

    /// Bolts the VITAL DAM onto the input pipeline (paper §VI.D).
    pub fn with_dam(mut self, dam: Option<DamConfig>) -> Self {
        self.extractor = FeatureExtractor::new(FeatureMode::MeanChannel).with_dam(dam);
        self
    }

    /// Overrides the number of training epochs (default 40).
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Builds the DNN classifier for a feature width — shared by training
    /// and checkpoint restoration so both construct identical
    /// architectures (any drift would silently break the bit-identical
    /// reload contract).
    fn build_network(seed: u64, width: usize, num_classes: usize) -> Mlp {
        let mut init_rng = SeededRng::new(seed.wrapping_add(1));
        Mlp::new(
            &mut init_rng,
            &[width, 128, 64, num_classes],
            Activation::Relu,
        )
        .with_dropout(0.1)
    }

    /// Serializes both SHERPA stages — the DNN classifier weights and the
    /// KNN fingerprint memory — into a [`Checkpoint`].
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn to_checkpoint(&self) -> Result<Checkpoint> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let width = self.memory.width();
        let mut ckpt = Checkpoint::new(ModelKind::Sherpa);
        ckpt.set_dam_config(self.extractor.dam_config());
        ckpt.push_ints("seed", vec![self.seed]);
        ckpt.push_ints(
            "dims",
            vec![
                self.epochs as u64,
                self.top_candidates as u64,
                self.neighbours as u64,
                self.num_classes as u64,
                width as u64,
            ],
        );
        ckpt.push_state("network", network.state_dict());
        ckpt.push_tensor("memory", self.memory.to_tensor()?);
        ckpt.push_ints(
            "labels",
            self.memory.labels().iter().map(|&l| l as u64).collect(),
        );
        Ok(ckpt)
    }

    /// Restores a fitted SHERPA instance from a [`Checkpoint`]: the DNN is
    /// rebuilt with the stored architecture and its weights restored, so
    /// predictions are bit-identical to the saved instance's.
    ///
    /// # Errors
    /// Returns typed checkpoint errors on kind mismatch, missing entries or
    /// weight-shape drift.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self> {
        ckpt.expect_kind(ModelKind::Sherpa)?;
        let seed = ckpt.ints("seed")?.first().copied().unwrap_or(0);
        let dims = ckpt.usizes("dims")?;
        let [epochs, top_candidates, neighbours, num_classes, width] = dims[..] else {
            return Err(CheckpointError::Corrupt(format!(
                "expected 5 dimension entries, found {}",
                dims.len()
            ))
            .into());
        };
        let mut sherpa = SherpaLocalizer::new(seed)
            .with_dam(ckpt.dam_config().copied())
            .with_epochs(epochs);
        sherpa.top_candidates = top_candidates;
        sherpa.neighbours = neighbours;
        sherpa.num_classes = num_classes;

        // Rebuild the classifier architecture exactly as `fit` does, once
        // its sizes match the stored first weight and last bias, then
        // overwrite its weights from the snapshot.
        let state = ckpt.state("network")?;
        check_stored_dim("width", width, state.first(), 0)?;
        check_stored_dim("num_classes", num_classes, state.last(), 0)?;
        let network = Self::build_network(seed, width, num_classes);
        network.load_state(state)?;
        sherpa.network = Some(network);

        let labels = ckpt.usizes("labels")?;
        sherpa.memory = Memory::from_checkpoint(ckpt.tensor("memory")?, labels, "fingerprints")?;
        Ok(sherpa)
    }

    /// Number of compiled posterior plans currently cached (one per batch
    /// shape served since the last weight change).
    pub fn cached_plans(&self) -> usize {
        self.plan_cache.len()
    }

    /// [`Localizer::localize_batch`] through the eager (tape) posterior —
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

impl Framework for SherpaLocalizer {
    type Net = Mlp;

    fn fitted(&self) -> Result<(&Mlp, &FeatureExtractor)> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        Ok((network, &self.extractor))
    }

    /// The DNN posterior: `[batch, width]` features in, `[batch,
    /// num_classes]` softmax rows out (in the compiled plan the dense →
    /// ReLU chain is fused with the row softmax).
    fn record<T: Trace>(
        network: &Mlp,
        t: &mut T,
        x: T::Node,
    ) -> std::result::Result<T::Node, T::Error> {
        let logits = network.forward(t, x)?;
        t.softmax_rows(logits)
    }

    /// The KNN refinement stage: restricts a distance-weighted vote to the
    /// DNN's top candidate classes for one query (the most probable first,
    /// ties to the smaller class).
    fn decide(&self, buffers: &mut Buffers, query: &[f32], posterior_row: &[f32]) -> Result<usize> {
        let Buffers {
            matching, ranked, ..
        } = buffers;
        ranked.clear();
        ranked.extend(0..posterior_row.len());
        let candidates = first_k(ranked, self.top_candidates, |&a, &b| {
            posterior_row[b].total_cmp(&posterior_row[a])
        });

        // Distance-weighted KNN vote restricted to the candidate classes,
        // falling back to the DNN's argmax when no memory matches.
        let vote = self
            .memory
            .weighted_vote(matching, query, self.neighbours, |label| {
                candidates.contains(&label)
            })?;
        Ok(vote.unwrap_or_else(|| candidates.first().copied().unwrap_or(0)))
    }
}

impl Localizer for SherpaLocalizer {
    fn name(&self) -> &str {
        "SHERPA"
    }

    /// The stored fingerprints' width: one mean-channel feature per access
    /// point.
    fn num_aps(&self) -> usize {
        self.memory.width()
    }

    fn fit(&mut self, train: &FingerprintDataset) -> Result<()> {
        if train.is_empty() {
            return Err(VitalError::InvalidDataset("empty training set".into()));
        }
        self.num_classes = train.num_rps();
        let augmentation = augmentation_seed(self.seed);
        let (features, labels) = self.extractor.extract_matrix(train, true, 2, augmentation);
        let width = features.cols()?;

        let network = Self::build_network(self.seed, width, self.num_classes);
        minibatches(
            &mut Adam::new(2e-3),
            features.rows()?,
            32,
            self.epochs,
            self.seed,
            |session, _, indices| {
                let x = session.constant(gather_rows(&features, indices)?);
                let y_batch: Vec<usize> = indices.iter().map(|&i| labels[i]).collect();
                let logits = network.forward(session, x)?;
                Ok::<_, VitalError>(logits.softmax_cross_entropy(&y_batch)?)
            },
            |_, _| {},
        )?;
        self.network = Some(network);

        // KNN memory uses clean (non-augmented) fingerprints.
        let clean = self.extractor.extract_clean_batch(train.observations());
        self.memory = Memory::new(&clean, train.labels())?;
        Ok(())
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        localize(self, observations, run_compiled::<Self>(&self.plan_cache))
    }

    fn save(&self, path: &Path) -> Result<()> {
        self.to_checkpoint()?.write_to(path)
    }

    fn load(path: &Path) -> Result<Self> {
        SherpaLocalizer::from_checkpoint(&Checkpoint::read_from(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingerprint::{base_devices, DatasetConfig};
    use sim_radio::building_1;
    use vital::evaluate_localizer;

    #[test]
    fn unfitted_errors() {
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
        let sherpa = SherpaLocalizer::new(0);
        assert_eq!(sherpa.name(), "SHERPA");
        assert!(sherpa.predict(&ds.observations()[0]).is_err());
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
        let split = ds.split(0.8, 2);
        let mut sherpa = SherpaLocalizer::new(7).with_epochs(15);
        sherpa.fit(&split.train).unwrap();
        let report = evaluate_localizer(&sherpa, &split.test, &building).unwrap();
        // Random guessing on a 62 m path averages >20 m.
        assert!(
            report.mean_error_m() < 10.0,
            "SHERPA mean error {} m",
            report.mean_error_m()
        );
    }

    #[test]
    fn two_batches_of_an_epoch_draw_different_dropout_masks() {
        // `fit`'s loop over two batches of 32, with a learning rate of zero
        // and the same input in every row: whatever differs between the
        // two batches' outputs is their dropout masks.
        let network = SherpaLocalizer::build_network(11, 8, 3);
        let mut outputs = Vec::new();
        let mut adam = Adam::new(0.0);
        minibatches(
            &mut adam,
            64,
            32,
            1,
            11,
            |session, _, indices| {
                let x = session.constant(tensor::Tensor::ones(&[indices.len(), 8]));
                let logits = network.forward(session, x)?;
                outputs.push(logits.value());
                Ok::<_, VitalError>(logits.softmax_cross_entropy(&vec![0; indices.len()])?)
            },
            |_, _| {},
        )
        .unwrap();
        assert_eq!(outputs.len(), 2);
        assert_ne!(outputs[0], outputs[1], "both batches drew one mask");
        // Within a batch the rows differ too: one mask element per value.
        let rows: Vec<&[f32]> = outputs[0].as_slice().chunks(3).collect();
        assert!(rows.iter().any(|row| *row != rows[0]));
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
        let mut sherpa = SherpaLocalizer::new(1)
            .with_dam(Some(DamConfig::default()))
            .with_epochs(3);
        sherpa.fit(&ds).unwrap();
        let prediction = sherpa.predict(&ds.observations()[0]).unwrap();
        assert!(prediction < ds.num_rps());
    }

    #[test]
    fn rejects_empty_dataset() {
        let building = building_1();
        let ds = FingerprintDataset::collect(
            &building,
            &base_devices()[..1],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 2,
                seed: 4,
            },
        );
        let empty = ds.filter_devices(&["NONE"]);
        let mut sherpa = SherpaLocalizer::new(0);
        assert!(sherpa.fit(&empty).is_err());
    }
}
