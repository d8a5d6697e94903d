use crate::{Result, VitalError};

/// Configuration of the Data Augmentation Module (paper §V.A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DamConfig {
    /// Whether to standardise each fingerprint channel (stage 1).
    pub normalize: bool,
    /// Probability that a pixel of a replicated row is dropped (stage 3,
    /// modelling missing APs).
    pub dropout_rate: f32,
    /// Standard deviation of the Gaussian infill noise added to replicated
    /// rows (stage 4, modelling fluctuating AP visibility), in normalised
    /// units.
    pub noise_std: f32,
}

impl Default for DamConfig {
    fn default() -> Self {
        DamConfig {
            normalize: true,
            dropout_rate: 0.10,
            noise_std: 0.08,
        }
    }
}

impl DamConfig {
    /// A configuration with augmentation disabled (used for the "without DAM"
    /// ablation of Fig. 9; normalisation is retained because the networks
    /// need standardised inputs either way).
    pub fn disabled() -> Self {
        DamConfig {
            normalize: true,
            dropout_rate: 0.0,
            noise_std: 0.0,
        }
    }

    /// Whether any stochastic augmentation stage is active.
    pub fn is_augmenting(&self) -> bool {
        self.dropout_rate > 0.0 || self.noise_std > 0.0
    }
}

/// Training-loop hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Dropout rate inside the transformer MLP blocks.
    pub dropout: f32,
    /// Seed for weight init, shuffling and augmentation.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 16,
            learning_rate: 1e-3,
            dropout: 0.1,
            seed: 42,
        }
    }
}

/// Full configuration of a [`crate::VitalModel`].
#[derive(Debug, Clone, PartialEq)]
pub struct VitalConfig {
    /// Number of access points per fingerprint (pixels of the 1-D image).
    pub num_aps: usize,
    /// Number of reference points (classification targets).
    pub num_classes: usize,
    /// Side length R of the square RSSI image produced by DAM replication.
    pub image_size: usize,
    /// Side length P of the square patches fed to the transformer.
    pub patch_size: usize,
    /// Transformer embedding dimension.
    pub d_model: usize,
    /// Number of multi-head self-attention heads.
    pub msa_heads: usize,
    /// Number of transformer encoder blocks (L).
    pub encoder_blocks: usize,
    /// Hidden widths of the MLP sub-block inside the encoder
    /// (paper: `[128, 64]`).
    pub encoder_mlp_hidden: Vec<usize>,
    /// Hidden widths of the fine-tuning MLP head before the class logits
    /// (paper: `[128]`, i.e. two dense layers 128 → num_classes).
    pub head_hidden: Vec<usize>,
    /// Data Augmentation Module configuration.
    pub dam: DamConfig,
    /// Training hyperparameters.
    pub train: TrainConfig,
}

impl VitalConfig {
    /// The paper's final configuration (§VI.B): 206×206 image, 20×20 patches,
    /// one encoder block, five MSA heads, encoder MLP `[128, 64]`, fine-tuning
    /// head `[128]`.
    ///
    /// This is the configuration whose parameter count the paper reports as
    /// 234 706; it is expensive to train on a CPU-only substrate, so the
    /// experiment harness defaults to [`VitalConfig::fast`] and uses this one
    /// for the model-footprint experiment.
    pub fn paper(num_aps: usize, num_classes: usize) -> Self {
        VitalConfig {
            num_aps,
            num_classes,
            image_size: 206,
            patch_size: 20,
            d_model: 80,
            msa_heads: 5,
            encoder_blocks: 1,
            encoder_mlp_hidden: vec![128, 64],
            head_hidden: vec![128],
            dam: DamConfig::default(),
            train: TrainConfig::default(),
        }
    }

    /// A reduced configuration that preserves the architecture shape but is
    /// small enough to train in seconds on a laptop CPU; used as the default
    /// by tests and the experiment harness.
    pub fn fast(num_aps: usize, num_classes: usize) -> Self {
        VitalConfig {
            num_aps,
            num_classes,
            image_size: 24,
            patch_size: 6,
            d_model: 32,
            msa_heads: 4,
            encoder_blocks: 1,
            encoder_mlp_hidden: vec![64, 32],
            head_hidden: vec![64],
            dam: DamConfig::default(),
            train: TrainConfig {
                epochs: 18,
                batch_size: 16,
                learning_rate: 2e-3,
                dropout: 0.05,
                seed: 42,
            },
        }
    }

    /// Number of patches per image (N = ⌊R/P⌋², partial boundary patches are
    /// discarded as in the paper).
    pub fn num_patches(&self) -> usize {
        let per_side = self.image_size / self.patch_size;
        per_side * per_side
    }

    /// Flattened width of one patch (3 channels × P × P).
    pub fn patch_dim(&self) -> usize {
        3 * self.patch_size * self.patch_size
    }

    /// Trainable parameters of the model this configuration builds,
    /// counted without building it, in checked arithmetic: `None` if a
    /// count overflows or there is no encoder block. A loaded checkpoint's
    /// configuration is held to its stored weights with this before a
    /// single weight is allocated.
    pub fn param_count(&self) -> Option<usize> {
        let d = self.d_model;
        let once = std::iter::once;
        let hidden = || self.encoder_mlp_hidden.iter().copied();
        let per_side = self.image_size.checked_div(self.patch_size)?;
        let patch_dim = self
            .patch_size
            .checked_mul(self.patch_size)?
            .checked_mul(3)?;
        let embedding = dense_params(patch_dim, d)?;
        let positional = per_side.checked_mul(per_side)?.checked_mul(d)?;
        // Two layer norms and the Q/K/V/O projections, then the MLP: back
        // to `d_model` in every block but the last, which concatenates.
        let attention = d
            .checked_mul(4)?
            .checked_add(dense_params(d, d)?.checked_mul(4)?)?;
        let residual = mlp_params(once(d).chain(hidden()).chain(once(d)))?;
        let last = mlp_params(once(d).chain(hidden()))?;
        let blocks = attention
            .checked_add(residual)?
            .checked_mul(self.encoder_blocks.checked_sub(1)?)?
            .checked_add(attention.checked_add(last)?)?;
        let encoder_out = d.checked_add(*self.encoder_mlp_hidden.last().unwrap_or(&d))?;
        let head_widths = self.head_hidden.iter().copied();
        let head = mlp_params(
            once(encoder_out)
                .chain(head_widths)
                .chain(once(self.num_classes)),
        )?;
        [embedding, positional, blocks, head]
            .into_iter()
            .try_fold(0usize, usize::checked_add)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// Returns [`VitalError::InvalidConfig`] if any structural constraint is
    /// violated (zero classes, patch larger than image, indivisible heads…).
    pub fn validate(&self) -> Result<()> {
        if self.num_aps == 0 {
            return Err(VitalError::InvalidConfig("num_aps must be > 0".into()));
        }
        if self.num_classes < 2 {
            return Err(VitalError::InvalidConfig(
                "num_classes must be at least 2".into(),
            ));
        }
        if self.patch_size == 0 || self.image_size == 0 {
            return Err(VitalError::InvalidConfig(
                "image_size and patch_size must be > 0".into(),
            ));
        }
        if self.patch_size > self.image_size {
            return Err(VitalError::InvalidConfig(format!(
                "patch_size {} exceeds image_size {}",
                self.patch_size, self.image_size
            )));
        }
        if self.d_model == 0 || self.msa_heads == 0 || !self.d_model.is_multiple_of(self.msa_heads)
        {
            return Err(VitalError::InvalidConfig(format!(
                "d_model {} must be divisible by msa_heads {}",
                self.d_model, self.msa_heads
            )));
        }
        if self.encoder_blocks == 0 {
            return Err(VitalError::InvalidConfig(
                "at least one encoder block is required".into(),
            ));
        }
        if self.encoder_mlp_hidden.is_empty() {
            return Err(VitalError::InvalidConfig(
                "the encoder MLP needs at least one hidden layer".into(),
            ));
        }
        if self.train.batch_size == 0 || self.train.epochs == 0 {
            return Err(VitalError::InvalidConfig(
                "epochs and batch_size must be > 0".into(),
            ));
        }
        Ok(())
    }
}

/// Weights and biases of a dense layer.
fn dense_params(inputs: usize, outputs: usize) -> Option<usize> {
    inputs.checked_mul(outputs)?.checked_add(outputs)
}

/// Parameters of an MLP through `widths`: one dense layer per consecutive
/// pair.
fn mlp_params(widths: impl Iterator<Item = usize> + Clone) -> Option<usize> {
    widths
        .clone()
        .zip(widths.skip(1))
        .try_fold(0usize, |sum, (inputs, outputs)| {
            sum.checked_add(dense_params(inputs, outputs)?)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VitalModel;

    #[test]
    fn paper_config_matches_section_vi_b() {
        let c = VitalConfig::paper(206, 70);
        assert_eq!(c.image_size, 206);
        assert_eq!(c.patch_size, 20);
        assert_eq!(c.encoder_blocks, 1);
        assert_eq!(c.encoder_mlp_hidden, vec![128, 64]);
        assert_eq!(c.head_hidden, vec![128]);
        // 206 / 20 = 10 per side → 100 patches, partial patches discarded.
        assert_eq!(c.num_patches(), 100);
        assert_eq!(c.patch_dim(), 3 * 400);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fast_config_is_valid_and_small() {
        let c = VitalConfig::fast(18, 63);
        assert!(c.validate().is_ok());
        assert!(c.num_patches() <= 36);
        assert!(c.patch_dim() <= 3 * 64);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = VitalConfig::fast(18, 63);
        c.num_classes = 1;
        assert!(c.validate().is_err());

        let mut c = VitalConfig::fast(18, 63);
        c.patch_size = c.image_size + 1;
        assert!(c.validate().is_err());

        let mut c = VitalConfig::fast(18, 63);
        c.d_model = 30;
        c.msa_heads = 4;
        assert!(c.validate().is_err());

        let mut c = VitalConfig::fast(18, 63);
        c.num_aps = 0;
        assert!(c.validate().is_err());

        let mut c = VitalConfig::fast(18, 63);
        c.encoder_blocks = 0;
        assert!(c.validate().is_err());

        let mut c = VitalConfig::fast(18, 63);
        c.train.epochs = 0;
        assert!(c.validate().is_err());

        // The last block concatenates its MLP's output, so it needs one.
        let mut c = VitalConfig::fast(18, 63);
        c.encoder_mlp_hidden.clear();
        assert!(c.validate().is_err());
        assert!(VitalModel::new(c).is_err());
    }

    #[test]
    fn param_count_is_the_built_models() {
        // `checkpoint_roundtrip.rs`'s VITAL configuration.
        let mut roundtrip = VitalConfig::fast(sim_radio::building_1().access_points().len(), 10);
        roundtrip.image_size = 16;
        roundtrip.patch_size = 4;
        roundtrip.d_model = 24;
        roundtrip.msa_heads = 4;
        let mut deep = VitalConfig::fast(18, 8);
        deep.encoder_blocks = 3;
        deep.head_hidden.clear();
        for c in [
            VitalConfig::paper(206, 82),
            VitalConfig::fast(18, 8),
            roundtrip,
            deep,
        ] {
            let built = VitalModel::new(c.clone()).unwrap().param_count();
            assert_eq!(c.param_count(), Some(built), "{c:?}");
        }
        assert_eq!(VitalConfig::paper(206, 82).param_count(), Some(178_082));

        let mut huge = VitalConfig::fast(18, 8);
        huge.num_classes = 1 << 40;
        assert!(huge.param_count().is_some(), "counted, not built");
        huge.num_classes = usize::MAX;
        assert_eq!(huge.param_count(), None);
        let mut none = VitalConfig::fast(18, 8);
        none.encoder_blocks = 0;
        assert_eq!(none.param_count(), None);
        none = VitalConfig::fast(18, 8);
        none.patch_size = 0;
        assert_eq!(none.param_count(), None);
    }

    #[test]
    fn dam_config_flags() {
        assert!(DamConfig::default().is_augmenting());
        assert!(!DamConfig::disabled().is_augmenting());
        assert!(DamConfig::disabled().normalize);
    }
}
