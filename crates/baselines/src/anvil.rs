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

use autograd::Var;
use fingerprint::{FingerprintDataset, FingerprintObservation};
use graph::PlanCache;
use nn::optim::{minibatches, Adam};
use nn::{Activation, Dense, Init, Layer, LayerNorm, Mlp, MultiHeadSelfAttention, Param, Trace};
use tensor::rng::{DrawKey, SeededRng};
use tensor::Tensor;
use vital::{Checkpoint, CheckpointError, DamConfig, Localizer, ModelKind, Result, VitalError};

use crate::features::{augmentation_seed, rows_to_tensor, squared_distance, tensor_to_rows};
use crate::{
    check_stored_dim, localize, map_rows, run_compiled, run_eager, FeatureExtractor, FeatureMode,
    Framework,
};

/// Number of tokens the fingerprint is folded into before attention.
const TOKENS: usize = 8;

/// Width of the embedding the Euclidean matching stage compares.
const EMBED_WIDTH: usize = 32;

/// The attention-based embedding network shared by training and inference.
#[derive(Debug)]
pub(crate) struct AnvilNetwork {
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
            embed_head: Mlp::new(rng, &[d_model, EMBED_WIDTH], Activation::Relu),
            token_width,
        })
    }

    /// Records the forward over the stacked token matrix of any number of
    /// samples (attention couples each sample's own `TOKENS` rows only),
    /// returning one `(embedding, class_logits)` row per sample.
    fn forward<T: Trace>(
        &self,
        t: &mut T,
        tokens: T::Node,
    ) -> std::result::Result<(T::Node, T::Node), T::Error> {
        let samples = t.dims(tokens)?.0 / TOKENS;
        let embedded = self.token_embed.forward(t, tokens)?;
        let normed = self.norm.forward(t, embedded)?;
        let attention = self.attention.forward(t, normed, samples)?;
        let attended = t.add(attention, embedded)?;
        let pooled = t.mean_row_blocks(attended, TOKENS)?;
        let embedding = self.embed_head.forward(t, pooled)?;
        let logits = self.head.forward(t, pooled)?;
        Ok((embedding, logits))
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

        // Hold the sizes to the stored weights before building: the token
        // embedding's first weight has one row per token column, and the
        // class head's output bias sits ahead of the embedding head's one
        // layer (weight, bias), the last two entries.
        let state = ckpt.state("network")?;
        let head_bias = state.len().checked_sub(3).and_then(|i| state.get(i));
        let token_width = padded_width.div_ceil(TOKENS);
        check_stored_dim("padded_width / tokens", token_width, state.first(), 0)?;
        check_stored_dim("num_classes", num_classes, head_bias, 0)?;
        let mut init_rng = SeededRng::new(seed.wrapping_add(1));
        let network = AnvilNetwork::new(&mut init_rng, padded_width, num_classes)?;
        network.load_state(state)?;
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
        localize(self, observations, run_eager::<Self>)
    }
}

impl Framework for AnvilLocalizer {
    type Net = AnvilNetwork;

    fn fitted(&self) -> Result<(&AnvilNetwork, &FeatureExtractor)> {
        let network = self.network.as_ref().ok_or(VitalError::NotFitted)?;
        Ok((network, &self.extractor))
    }

    /// Folds each flat feature vector into `TOKENS` equal-width tokens
    /// (zero padded), stacked as one `[samples · TOKENS, token_width]`
    /// matrix for the attention block.
    fn input(network: &AnvilNetwork, features: &[Vec<f32>]) -> Result<Tensor> {
        let padded_width = network.token_width * TOKENS;
        let mut stacked = Vec::with_capacity(features.len() * padded_width);
        for sample in features {
            let end = stacked.len() + padded_width;
            stacked.extend(sample.iter().take(padded_width));
            stacked.resize(end, 0.0);
        }
        let rows = features.len() * TOKENS;
        Ok(Tensor::from_vec(stacked, &[rows, network.token_width])?)
    }

    /// One stacked forward; each output row packs the sample's
    /// `[embedding ‖ logits]`.
    fn record<T: Trace>(
        network: &AnvilNetwork,
        t: &mut T,
        tokens: T::Node,
    ) -> std::result::Result<T::Node, T::Error> {
        let (embedding, logits) = network.forward(t, tokens)?;
        t.concat_cols(&[embedding, logits])
    }

    /// Euclidean matching of one query embedding against the per-RP
    /// centroids, falling back to the classifier argmax when no centroids
    /// exist (degenerate training set).
    fn decide(&self, _query: &[f32], packed: &[f32]) -> Result<usize> {
        let (embedding, logits) = packed.split_at(EMBED_WIDTH);
        let mut best: Option<(usize, f32)> = None;
        for (label, centroid) in self.centroids.iter().enumerate() {
            let Some(centroid) = centroid else { continue };
            let d = squared_distance(centroid, embedding);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((label, d));
            }
        }
        match best {
            Some((label, _)) => Ok(label),
            None => Ok(Tensor::from_vec(logits.to_vec(), &[logits.len()])?.argmax()?),
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
        let augmentation = augmentation_seed(self.seed);
        let mut init_rng = SeededRng::new(self.seed.wrapping_add(1));
        let feature_width = self.extractor.feature_width(train.num_aps());
        let network = AnvilNetwork::new(&mut init_rng, feature_width, self.num_classes)?;
        let observations = train.observations();
        minibatches(
            &mut Adam::new(2e-3),
            observations.len(),
            16,
            self.epochs,
            self.seed,
            |session, epoch, indices| {
                // One forward per sample, in batch order, on the shared
                // tape; each sample's view keyed by (epoch, observation).
                let mut logits = Vec::with_capacity(indices.len());
                let mut labels = Vec::with_capacity(indices.len());
                for &i in indices {
                    let key = DrawKey::new(augmentation, [epoch, i]);
                    let features = self.extractor.extract(&observations[i], true, key);
                    let tokens = session.constant(Self::input(&network, &[features])?);
                    logits.push(network.forward(session, tokens)?.1);
                    labels.push(observations[i].rp_label);
                }
                Ok::<_, VitalError>(Var::concat_rows(&logits)?.softmax_cross_entropy(&labels)?)
            },
            |_, _| {},
        )?;

        // Euclidean-matching stage: per-RP embedding centroids over the clean
        // training fingerprints.
        let to_embedding = |_: &[f32], packed: &[f32]| Ok(packed[..EMBED_WIDTH].to_vec());
        let embeddings = map_rows::<Self, _>(
            &network,
            &self.extractor,
            observations,
            run_eager::<Self>,
            to_embedding,
        )?;
        let mut sums = vec![(vec![0.0f32; EMBED_WIDTH], 0usize); self.num_classes];
        for (observation, embedding) in observations.iter().zip(&embeddings) {
            let slot = &mut sums[observation.rp_label];
            for (s, e) in slot.0.iter_mut().zip(embedding) {
                *s += e;
            }
            slot.1 += 1;
        }
        self.network = Some(network);
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

    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
        localize(self, observations, run_compiled::<Self>(&self.plan_cache))
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
