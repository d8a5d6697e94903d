//! ANVIL (paper ref. \[19\]): a multi-head attention neural network with a
//! Euclidean-distance matching stage for smartphone-invariant localization.
//!
//! The reproduction follows the published architecture at a functional level:
//! the normalised fingerprint is linearly embedded into a short token
//! sequence, a multi-head self-attention block extracts device-invariant
//! features, and a projection head produces an embedding. Training minimises
//! classification loss; at inference the framework matches the query
//! embedding to per-RP centroids by Euclidean distance (the "matching"
//! stage), falling back to the classifier logits when centroids are missing.

use std::path::Path;

use autograd::{Tape, Var};
use fingerprint::{FingerprintDataset, FingerprintObservation};
use graph::PlanCache;
use nn::optim::{zero_grads, Adam, Optimizer};
use nn::{
    Activation, Dense, Init, Layer, LayerNorm, Mlp, MultiHeadSelfAttention, Param, Session, Trace,
};
use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{Checkpoint, CheckpointError, DamConfig, Localizer, ModelKind, Result, VitalError};

use crate::features::{rows_to_tensor, tensor_to_rows};
use crate::{FeatureExtractor, FeatureMode};

/// Number of tokens the fingerprint is folded into before attention.
const TOKENS: usize = 8;

/// The attention-based embedding network shared by training and inference.
#[derive(Debug)]
struct AnvilNetwork {
    token_embed: Dense,
    norm: LayerNorm,
    attention: MultiHeadSelfAttention,
    head: Mlp,
    embed_head: Mlp,
    token_width: usize,
}

impl AnvilNetwork {
    fn new(rng: &mut SeededRng, feature_width: usize, num_classes: usize) -> Result<Self> {
        let token_width = feature_width.div_ceil(TOKENS);
        let d_model = 32;
        Ok(AnvilNetwork {
            token_embed: Dense::new(rng, token_width, d_model, Init::Xavier),
            norm: LayerNorm::new(d_model),
            attention: MultiHeadSelfAttention::new(rng, d_model, 4)?,
            head: Mlp::new(rng, &[d_model, 64, num_classes], Activation::Relu),
            embed_head: Mlp::new(rng, &[d_model, 32], Activation::Relu),
            token_width,
        })
    }

    /// Folds a flat feature vector into `TOKENS` equal-width tokens (zero
    /// padded) for the attention block.
    fn tokenize(&self, features: &[f32]) -> Result<Tensor> {
        let mut padded = features.to_vec();
        padded.resize(self.token_width * TOKENS, 0.0);
        Ok(Tensor::from_vec(padded, &[TOKENS, self.token_width])?)
    }

    /// Records one sample's forward over its `[TOKENS, token_width]` token
    /// matrix, returning `(embedding, class_logits)`.
    fn forward<T: Trace>(
        &self,
        t: &mut T,
        tokens: T::Node,
    ) -> std::result::Result<(T::Node, T::Node), T::Error> {
        let embedded = self.token_embed.forward(t, tokens)?;
        let normed = self.norm.forward(t, embedded)?;
        let attention = self.attention.forward(t, normed, 1)?;
        let attended = t.add(attention, embedded)?;
        let pooled = t.mean_row_blocks(attended, TOKENS)?;
        let embedding = self.embed_head.forward(t, pooled)?;
        let logits = self.head.forward(t, pooled)?;
        Ok((embedding, logits))
    }

    /// [`AnvilNetwork::forward`] of one flat feature vector on the tape.
    fn forward_sample<'t>(
        &self,
        session: &mut Session<'t>,
        features: &[f32],
    ) -> Result<(Var<'t>, Var<'t>)> {
        let tokens = session.constant(self.tokenize(features)?);
        Ok(self.forward(session, tokens)?)
    }
}

impl Layer for AnvilNetwork {
    fn params(&self) -> Vec<Param> {
        let mut params = self.token_embed.params();
        params.extend(self.norm.params());
        params.extend(self.attention.params());
        params.extend(self.head.params());
        params.extend(self.embed_head.params());
        params
    }
}

/// The ANVIL localizer.
#[derive(Debug)]
pub struct AnvilLocalizer {
    seed: u64,
    extractor: FeatureExtractor,
    epochs: usize,
    network: Option<AnvilNetwork>,
    centroids: Vec<Option<Vec<f32>>>,
    num_classes: usize,
    /// Compiled attention-network plans, keyed by `(batch, weight stamp)`.
    plan_cache: PlanCache,
}

impl AnvilLocalizer {
    /// Creates an untrained ANVIL instance.
    pub fn new(seed: u64) -> Self {
        AnvilLocalizer {
            seed,
            extractor: FeatureExtractor::new(FeatureMode::MeanChannel),
            epochs: 30,
            network: None,
            centroids: Vec::new(),
            num_classes: 0,
            plan_cache: PlanCache::new(),
        }
    }

    /// Bolts the VITAL DAM onto the input pipeline (paper §VI.D).
    pub fn with_dam(mut self, dam: Option<DamConfig>) -> Self {
        self.extractor = FeatureExtractor::new(FeatureMode::MeanChannel).with_dam(dam);
        self
    }

    /// Overrides the number of training epochs (default 30).
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs.max(1);
        self
    }

    /// Serializes the attention network and the per-RP embedding centroids
    /// into a [`Checkpoint`].
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] before [`Localizer::fit`].
    pub fn to_checkpoint(&self) -> Result<Checkpoint> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let present: Vec<&Vec<f32>> = self.centroids.iter().flatten().collect();
        let embed_width = present.first().map(|c| c.len()).unwrap_or(0);
        let present_rows: Vec<Vec<f32>> = present.into_iter().cloned().collect();

        let mut ckpt = Checkpoint::new(ModelKind::Anvil);
        ckpt.set_dam_config(self.extractor.dam_config());
        ckpt.push_ints("seed", vec![self.seed]);
        // The tokenizer zero-pads features to `token_width × TOKENS`, so
        // the padded width reconstructs an identical network geometry.
        ckpt.push_ints(
            "dims",
            vec![
                self.epochs as u64,
                self.num_classes as u64,
                (network.token_width * TOKENS) as u64,
                embed_width as u64,
            ],
        );
        ckpt.push_state("network", network.state_dict());
        ckpt.push_ints(
            "centroid_mask",
            self.centroids
                .iter()
                .map(|c| u64::from(c.is_some()))
                .collect(),
        );
        ckpt.push_tensor("centroids", rows_to_tensor(&present_rows, embed_width)?);
        Ok(ckpt)
    }

    /// Restores a fitted ANVIL instance from a [`Checkpoint`]: the
    /// attention network is rebuilt with the stored token geometry and its
    /// weights restored, so embedding matching is bit-identical to the
    /// saved instance's.
    ///
    /// # Errors
    /// Returns typed checkpoint errors on kind mismatch, missing entries or
    /// weight-shape drift.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self> {
        ckpt.expect_kind(ModelKind::Anvil)?;
        let seed = ckpt.ints("seed")?.first().copied().unwrap_or(0);
        let dims = ckpt.usizes("dims")?;
        let [epochs, num_classes, padded_width, _embed_width] = dims[..] else {
            return Err(CheckpointError::Corrupt(format!(
                "expected 4 dimension entries, found {}",
                dims.len()
            ))
            .into());
        };
        let mut anvil = AnvilLocalizer::new(seed)
            .with_dam(ckpt.dam_config().copied())
            .with_epochs(epochs);
        anvil.num_classes = num_classes;

        let mut init_rng = SeededRng::new(seed.wrapping_add(1));
        let network = AnvilNetwork::new(&mut init_rng, padded_width, num_classes)?;
        network.load_state(ckpt.state("network")?)?;
        anvil.network = Some(network);

        let mask = ckpt.usizes("centroid_mask")?;
        if mask.len() != num_classes {
            return Err(CheckpointError::Corrupt(format!(
                "centroid mask covers {} classes, model has {num_classes}",
                mask.len()
            ))
            .into());
        }
        let mut rows = tensor_to_rows(ckpt.tensor("centroids")?)?.into_iter();
        anvil.centroids = mask
            .iter()
            .map(|&present| {
                if present != 0 {
                    rows.next()
                        .ok_or_else(|| {
                            VitalError::from(CheckpointError::Corrupt(
                                "fewer centroid rows than mask entries".into(),
                            ))
                        })
                        .map(Some)
                } else {
                    Ok(None)
                }
            })
            .collect::<Result<Vec<_>>>()?;
        if rows.next().is_some() {
            return Err(
                CheckpointError::Corrupt("more centroid rows than mask entries".into()).into(),
            );
        }
        Ok(anvil)
    }

    fn embed(&self, features: &[f32]) -> Result<(Vec<f32>, Vec<f32>)> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let tape = Tape::new();
        let mut session = Session::new(&tape, false, 0);
        let (embedding, logits) = network.forward_sample(&mut session, features)?;
        Ok((embedding.value().into_vec(), logits.value().into_vec()))
    }

    /// Embeddings and logits for a batch of feature vectors through the
    /// cached compiled plan: one `[embedding ‖ logits]` row per sample.
    ///
    /// Attention couples each sample's tokens, so the graph unrolls one
    /// forward per sample over row slices of the stacked token input (the
    /// same stacking the compiled ViT uses); the shared weight constants
    /// dedup across the unroll.
    fn embed_matrix(&self, features: &[Vec<f32>]) -> Result<Tensor> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let samples = features.len();
        let width = network.token_width;
        let mut stacked = Vec::with_capacity(samples * TOKENS * width);
        for f in features {
            stacked.extend(network.tokenize(f)?.into_vec());
        }
        let x = Tensor::from_vec(stacked, &[samples * TOKENS, width])?;
        crate::run_compiled(&self.plan_cache, &network.params(), &x, |g, input| {
            let mut rows = Vec::with_capacity(samples);
            for s in 0..samples {
                let tokens = g.slice_rows(input, s * TOKENS, (s + 1) * TOKENS)?;
                let (embedding, logits) = network.forward(g, tokens)?;
                rows.push(g.concat_cols(&[embedding, logits])?);
            }
            if samples == 1 {
                Ok(rows[0])
            } else {
                g.concat_rows(&rows)
            }
        })
    }

    /// Number of compiled network plans currently cached (one per batch
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
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(crate::features::INFERENCE_CHUNK) {
            let tape = Tape::new();
            let mut session = Session::new(&tape, false, 0);
            for features in self.extractor.extract_clean_batch(chunk) {
                let (embedding, logits) = network.forward_sample(&mut session, &features)?;
                predictions.push(
                    self.match_embedding(
                        &embedding.value().into_vec(),
                        &logits.value().into_vec(),
                    )?,
                );
            }
        }
        Ok(predictions)
    }

    /// Euclidean matching of one query embedding against the per-RP
    /// centroids, falling back to the classifier argmax when no centroids
    /// exist (degenerate training set).
    fn match_embedding(&self, embedding: &[f32], logits: &[f32]) -> Result<usize> {
        let mut best: Option<(usize, f32)> = None;
        for (label, centroid) in self.centroids.iter().enumerate() {
            let Some(centroid) = centroid else { continue };
            let d: f32 = centroid
                .iter()
                .zip(embedding)
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((label, d));
            }
        }
        match best {
            Some((label, _)) => Ok(label),
            None => {
                let logits = Tensor::from_vec(logits.to_vec(), &[logits.len()])?;
                Ok(logits.argmax()?)
            }
        }
    }
}

impl Localizer for AnvilLocalizer {
    fn name(&self) -> &str {
        "ANVIL"
    }

    fn fit(&mut self, train: &FingerprintDataset) -> Result<()> {
        if train.is_empty() {
            return Err(VitalError::InvalidDataset("empty training set".into()));
        }
        self.num_classes = train.num_rps();
        let mut rng = SeededRng::new(self.seed);
        let mut init_rng = SeededRng::new(self.seed.wrapping_add(1));
        let feature_width = self.extractor.feature_width(train.num_aps());
        let network = AnvilNetwork::new(&mut init_rng, feature_width, self.num_classes)?;
        let params = network.params();
        let mut optimizer = Adam::new(2e-3);

        let observations = train.observations();
        let mut order: Vec<usize> = (0..observations.len()).collect();
        let batch = 16;
        for epoch in 0..self.epochs {
            rng.shuffle(&mut order);
            for chunk in order.chunks(batch) {
                let tape = Tape::new();
                let mut session = Session::new(&tape, true, self.seed.wrapping_add(epoch as u64));
                let mut logits = Vec::with_capacity(chunk.len());
                let mut labels = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let features = self.extractor.extract(&observations[i], true, &mut rng);
                    let (_, sample_logits) = network.forward_sample(&mut session, &features)?;
                    logits.push(sample_logits);
                    labels.push(observations[i].rp_label);
                }
                let stacked = Var::concat_rows(&logits)?;
                let loss = stacked.softmax_cross_entropy(&labels)?;
                session.backward(loss)?;
                optimizer.step(&params);
                zero_grads(&params);
            }
        }
        self.network = Some(network);

        // Euclidean-matching stage: per-RP embedding centroids over the clean
        // training fingerprints.
        let mut sums: Vec<(Vec<f32>, usize)> = vec![(Vec::new(), 0); self.num_classes];
        let mut clean_rng = SeededRng::new(self.seed.wrapping_add(2));
        for observation in observations {
            let features = self.extractor.extract(observation, false, &mut clean_rng);
            let (embedding, _) = self.embed(&features)?;
            let slot = &mut sums[observation.rp_label];
            if slot.0.is_empty() {
                slot.0 = vec![0.0; embedding.len()];
            }
            for (s, e) in slot.0.iter_mut().zip(&embedding) {
                *s += e;
            }
            slot.1 += 1;
        }
        self.centroids = sums
            .into_iter()
            .map(|(sum, count)| {
                if count == 0 {
                    None
                } else {
                    Some(sum.into_iter().map(|v| v / count as f32).collect())
                }
            })
            .collect();
        Ok(())
    }

    fn predict(&self, observation: &FingerprintObservation) -> Result<usize> {
        let mut rng = SeededRng::new(0);
        let features = self.extractor.extract(observation, false, &mut rng);
        let (embedding, logits) = self.embed(&features)?;
        self.match_embedding(&embedding, &logits)
    }

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        let embed_width = network.embed_head.out_features();
        let mut predictions = Vec::with_capacity(observations.len());
        for chunk in observations.chunks(crate::features::INFERENCE_CHUNK) {
            // One compiled execution per chunk: each output row packs the
            // sample's `[embedding ‖ logits]`, split for Euclidean matching.
            let features = self.extractor.extract_clean_batch(chunk);
            let packed = self.embed_matrix(&features)?;
            let row_width = packed.cols()?;
            for row in packed.as_slice().chunks_exact(row_width) {
                let (embedding, logits) = row.split_at(embed_width);
                predictions.push(self.match_embedding(embedding, logits)?);
            }
        }
        Ok(predictions)
    }

    fn save(&self, path: &Path) -> Result<()> {
        self.to_checkpoint()?.write_to(path)
    }

    fn load(path: &Path) -> Result<Self> {
        AnvilLocalizer::from_checkpoint(&Checkpoint::read_from(path)?)
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
        let anvil = AnvilLocalizer::new(0);
        assert_eq!(anvil.name(), "ANVIL");
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
        assert!(anvil.predict(&ds.observations()[0]).is_err());
        let mut unfit = AnvilLocalizer::new(0);
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
                seed: 2,
            },
        );
        let split = ds.split(0.8, 5);
        let mut anvil = AnvilLocalizer::new(3).with_epochs(12);
        anvil.fit(&split.train).unwrap();
        let report = evaluate_localizer(&anvil, &split.test, &building).unwrap();
        assert!(
            report.mean_error_m() < 10.0,
            "ANVIL mean error {} m",
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
                seed: 6,
            },
        );
        let mut anvil = AnvilLocalizer::new(1)
            .with_dam(Some(DamConfig::default()))
            .with_epochs(3);
        anvil.fit(&ds).unwrap();
        assert!(anvil.predict(&ds.observations()[0]).unwrap() < ds.num_rps());
    }
}
