//! The Data Augmentation Module (DAM), paper §V.A.
//!
//! DAM prepares fingerprints for the vision transformer in four stages:
//!
//! 1. **Normalisation** — each channel of the 1-D image is standardised so
//!    pixels share a distribution (faster convergence, smoother gradients).
//! 2. **Fingerprint replication** — the 1-D image is replicated row-wise into
//!    an `R × R` 2-D image, concatenating augmented copies with the original.
//! 3. **Random dropout** — pixels of the replicated rows are randomly dropped
//!    to mimic the *missing APs* problem.
//! 4. **Gaussian noise** — dropped pixels are infilled with random noise and
//!    the replicas are jittered, mimicking fluctuating AP visibility.
//!
//! The `R × R` image is the paper's picture; the code never builds it.
//! Every row of it is the same `R` values, so
//! [`DataAugmentationModule::write_patches`] writes the transformer's patch
//! matrix straight from the normalised 1-D channels, and in training
//! writes each perturbed pixel to its slot in that matrix.
//!
//! Stages 3–4 draw nothing in sequence. A pixel's noise and its dropout are
//! a pure function of its position: the [`DrawKey`] the caller names the
//! observation by (VITAL's training loop: seed, epoch, observation index),
//! then the channel, the row and the column pair
//! ([`tensor::rng::KeyedNoise`]). So only the pixels that land in a kept
//! patch are drawn, both Box–Muller outputs are used, a row's draws are
//! made and applied in one dispatched pass sixteen or eight blocks at a
//! time ([`DrawKey::perturb_row`]), and an observation's patches are the
//! same bits wherever it sits in a batch and in whatever order a batch is
//! written.
//!
//! In the online phase stages 3–4 do not run, so the patch matrix is pure
//! replication: each patch is `3 · P` distinct values repeated down `P`
//! pixel rows, and every patch row of the grid is the first. Inference
//! therefore does not write it either.
//! [`DataAugmentationModule::write_folded`] normalises each channel
//! straight into the `[R / P, 3 · P]` matrix of the first patch row's runs
//! — all there is to know about the observation — and
//! [`crate::VisionTransformer::forward_folded`] embeds that against a
//! weight summed over pixel rows. `write_patches(.., training = false, ..)`
//! remains the definition of what the folded rows stand for (and what
//! [`crate::VitalModel::prepare_patches`] returns); a test below holds the
//! two writers together and fails if the inference-mode matrix ever stops
//! being a replica.
//!
//! The module is deliberately framework-agnostic: the `baselines` crate calls
//! [`DataAugmentationModule::augment_vector`] to plug the same augmentation
//! into ANVIL, SHERPA, CNNLoc and WiDeep (paper §VI.D).

use tensor::kernels::Standardizer;
use tensor::rng::DrawKey;

use crate::image::Rssi1d;
use crate::{DamConfig, Result, VitalError};

/// The Data Augmentation Module.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DataAugmentationModule {
    config: DamConfig,
}

impl DataAugmentationModule {
    /// Creates a DAM with the given configuration.
    pub fn new(config: DamConfig) -> Self {
        DataAugmentationModule { config }
    }

    /// The module's configuration.
    pub fn config(&self) -> &DamConfig {
        &self.config
    }

    /// Stage 1 as a map: the standardisation of `values` to zero mean /
    /// unit variance, `None` (leave every value alone) when normalisation
    /// is disabled.
    fn normalizer(&self, values: &[f32]) -> Option<Standardizer> {
        self.config.normalize.then(|| Standardizer::of(values))
    }

    /// Stage 1: standardises a channel to zero mean / unit variance.
    ///
    /// Values are returned untouched when normalisation is disabled.
    pub fn normalize_channel(&self, values: &[f32]) -> Vec<f32> {
        let normalizer = self.normalizer(values);
        values.iter().map(|&v| normalize(normalizer, v)).collect()
    }

    /// Stages 3–4 over one row of normalised values: `out[i]` is
    /// `values[i]` perturbed by draw `i` of the keyed row at `site` of
    /// `key` ([`DrawKey::perturb_row`]), dropped out and infilled with
    /// pure noise ("infill the dropped features with some random noise to
    /// represent different AP visibilities"), `N(0, max(σ, 1e-3))`, or
    /// else jittered by `N(0, σ/2)`.
    fn perturb_row(&self, key: DrawKey, site: u32, values: &[f32], out: &mut [f32]) {
        let DamConfig {
            dropout_rate,
            noise_std: sigma,
            ..
        } = self.config;
        let jitter = (sigma > 0.0).then_some(sigma * 0.5);
        key.perturb_row(site, dropout_rate, sigma.max(1e-3), jitter, values, out);
    }

    /// All four stages and the patch extraction in one pass: writes into
    /// `out` the row-major `[(R / patch_size)², 3 · patch_size²]` patch
    /// matrix of the `R × R` image that replicates the normalised `image`
    /// (`R` its width) down every row. Patches are in raster order (the
    /// positional embedding relies on it), each flattened channel by
    /// channel (min, max, mean) and pixel row by pixel row; partial
    /// boundary patches are discarded, as in the paper.
    ///
    /// Row 0 always carries the unaugmented fingerprint. When `training`,
    /// every pixel of rows `1..R` that lands in a kept patch is perturbed:
    /// pixel `(c, row, col)` by draw `col` of the
    /// [`tensor::rng::KeyedNoise`] row at site `3 · row + c` of `key`
    /// (columns `2k` and `2k + 1` share one Philox block). Pixels of the
    /// discarded boundary are not drawn. Otherwise (online phase) every row
    /// is an exact replica, `key` is not used and inference is
    /// deterministic.
    ///
    /// # Errors
    /// Returns an error if `patch_size` is zero or larger than the image,
    /// or `out` is not exactly the patch matrix's length.
    pub fn write_patches(
        &self,
        image: &Rssi1d,
        patch_size: usize,
        training: bool,
        key: DrawKey,
        out: &mut [f32],
    ) -> Result<()> {
        let size = image.width();
        let per_side = size.checked_div(patch_size).unwrap_or(0);
        let patch_dim = 3 * patch_size * patch_size;
        if per_side == 0 || out.len() != per_side * per_side * patch_dim {
            return Err(VitalError::InvalidConfig(format!(
                "a buffer of {} values is not the {patch_size}-pixel patches of a {size}-pixel image",
                out.len()
            )));
        }
        let channels = image.channels().map(|c| self.normalize_channel(c));
        if !(training && self.config.is_augmenting()) {
            write_replicated(&channels, patch_size, out);
            return Ok(());
        }
        // Every kept pixel is written once: row 0 as it is, the others
        // perturbed (drawn and applied in one dispatched pass per row).
        let kept = per_side * patch_size;
        let mut perturbed = vec![0.0; kept];
        for (c, channel) in channels.iter().enumerate() {
            let clean = &channel[..kept];
            for row in 0..kept {
                let pixels = if row == 0 {
                    clean
                } else {
                    self.perturb_row(key, (3 * row + c) as u32, clean, &mut perturbed);
                    &perturbed
                };
                // Slot of pixel (c, row, 0) in its patch row's first patch.
                let row_start = row / patch_size * per_side * patch_dim
                    + (c * patch_size + row % patch_size) * patch_size;
                let slots = out[row_start..].chunks_mut(patch_dim);
                for (slot, run) in slots.zip(pixels.chunks_exact(patch_size)) {
                    slot[..patch_size].copy_from_slice(run);
                }
            }
        }
        Ok(())
    }

    /// What is distinct in the inference-mode patch matrix, and nothing
    /// else: the replicated image's patch rows are all one row, and a
    /// patch's pixel rows all one `patch_size`-pixel run per channel, so
    /// this writes into `out` the row-major
    /// `[R / patch_size, 3 · patch_size]` matrix of the first patch row's
    /// patches, each its (min, max, mean) runs — the input of
    /// [`crate::VisionTransformer::forward_folded`]. Every channel is
    /// normalised straight into its runs; nothing is allocated and nothing
    /// drawn.
    ///
    /// # Errors
    /// As [`DataAugmentationModule::write_patches`], `out` being this
    /// matrix's length.
    pub fn write_folded(&self, image: &Rssi1d, patch_size: usize, out: &mut [f32]) -> Result<()> {
        let size = image.width();
        let per_side = size.checked_div(patch_size).unwrap_or(0);
        if per_side == 0 || out.len() != per_side * 3 * patch_size {
            return Err(VitalError::InvalidConfig(format!(
                "a buffer of {} values is not the {patch_size}-pixel runs of a {size}-pixel image",
                out.len()
            )));
        }
        for (c, channel) in image.channels().into_iter().enumerate() {
            write_normalized_runs(self.normalizer(channel), channel, c, patch_size, out);
        }
        Ok(())
    }

    /// Applies DAM-style augmentation to a plain RSSI feature vector
    /// (normalise, random dropout, Gaussian infill) without the 2-D
    /// replication — the form consumed by the non-image baselines when DAM is
    /// bolted onto them (paper §VI.D). When `training`, value `i` is
    /// perturbed by draw `i` of the [`tensor::rng::KeyedNoise`] row at site
    /// 0 of `key`; otherwise `key` is not used.
    pub fn augment_vector(&self, values: &[f32], training: bool, key: DrawKey) -> Vec<f32> {
        let clean = self.normalize_channel(values);
        if !(training && self.config.is_augmenting()) {
            return clean;
        }
        let mut out = vec![0.0; clean.len()];
        self.perturb_row(key, 0, &clean, &mut out);
        out
    }
}

/// One value through stage 1.
fn normalize(normalizer: Option<Standardizer>, value: f32) -> f32 {
    normalizer.map_or(value, |n| n.apply(value))
}

/// Normalises `channel` into the `c`-th `patch_size`-pixel run of each
/// `3 · patch_size`-wide row of `out`, one run per row; the pixels past the
/// last whole patch are measured by `normalizer` but have no run.
fn write_normalized_runs(
    normalizer: Option<Standardizer>,
    channel: &[f32],
    c: usize,
    patch_size: usize,
    out: &mut [f32],
) {
    let rows = out.chunks_exact_mut(3 * patch_size);
    for (row, run) in rows.zip(channel.chunks_exact(patch_size)) {
        let slots = &mut row[c * patch_size..(c + 1) * patch_size];
        for (slot, &value) in slots.iter_mut().zip(run) {
            *slot = normalize(normalizer, value);
        }
    }
}

/// Stage 2 without the image: the patch matrix of the image whose every
/// row is `channels`. A patch's pixel rows are all the same
/// `patch_size`-pixel run of the channel, so this copies runs and
/// allocates nothing. `out` must hold whole patches.
fn write_replicated(channels: &[Vec<f32>; 3], patch_size: usize, out: &mut [f32]) {
    let per_side = channels[0].len() / patch_size;
    let area = patch_size * patch_size;
    for (patch, values) in out.chunks_exact_mut(3 * area).enumerate() {
        let left = patch % per_side * patch_size;
        for (block, channel) in values.chunks_exact_mut(area).zip(channels) {
            let run = &channel[left..left + patch_size];
            for pixel_row in block.chunks_exact_mut(patch_size) {
                pixel_row.copy_from_slice(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::RssiImageCreator;
    use fingerprint::FingerprintObservation;
    use tensor::Tensor;

    fn image(width: usize) -> Rssi1d {
        let obs = FingerprintObservation {
            rp_label: 0,
            device: "T".into(),
            min: (0..width).map(|i| -95.0 + i as f32).collect(),
            max: (0..width).map(|i| -75.0 + i as f32).collect(),
            mean: (0..width).map(|i| -85.0 + i as f32).collect(),
        };
        RssiImageCreator::new(width).create(&obs).unwrap()
    }

    #[test]
    fn normalization_standardizes() {
        let dam = DataAugmentationModule::default();
        let n = dam.normalize_channel(&[-90.0, -70.0, -50.0, -30.0]);
        let t = Tensor::from_vec(n, &[4]).unwrap();
        assert!(t.mean().abs() < 1e-5);
        assert!((t.std() - 1.0).abs() < 1e-4);

        let no_norm = DataAugmentationModule::new(DamConfig {
            normalize: false,
            ..DamConfig::default()
        });
        assert_eq!(
            no_norm.normalize_channel(&[-90.0, -70.0]),
            vec![-90.0, -70.0]
        );
    }

    /// Every pixel of the replicated image through the writer: with
    /// 1-pixel patches the patch matrix is `[R², 3]`, so pixel
    /// `(row, col)` of channel `c` is element `(row · R + col) · 3 + c`.
    fn pixels(
        dam: &DataAugmentationModule,
        width: usize,
        training: bool,
        key: DrawKey,
    ) -> Vec<f32> {
        let mut out = vec![f32::NAN; width * width * 3];
        dam.write_patches(&image(width), 1, training, key, &mut out)
            .unwrap();
        out
    }

    #[test]
    fn replication_produces_square_image() {
        let dam = DataAugmentationModule::new(DamConfig::disabled());
        let out = pixels(&dam, 12, true, DrawKey::new(0, [0, 0]));
        // With augmentation disabled every row equals row 0, which is the
        // normalised 1-D image.
        let image = image(12);
        for (c, channel) in image.channels().into_iter().enumerate() {
            let normalized = dam.normalize_channel(channel);
            for (col, value) in normalized.iter().enumerate() {
                assert_eq!(out[col * 3 + c], *value);
            }
        }
        for row in out.chunks_exact(12 * 3) {
            assert_eq!(row, &out[..12 * 3]);
        }
    }

    #[test]
    fn inference_mode_is_deterministic_even_with_augmentation_enabled() {
        let dam = DataAugmentationModule::default();
        let a = pixels(&dam, 10, false, DrawKey::new(1, [0, 0]));
        let b = pixels(&dam, 10, false, DrawKey::new(999, [4, 2]));
        assert_eq!(a, b);
        // The key names the training draws only.
        assert_ne!(a, pixels(&dam, 10, true, DrawKey::new(1, [0, 0])));
    }

    /// The folded forward answers from the structure of the inference-mode
    /// patch matrix without looking at it. This looks: the day the online
    /// phase stops replicating, (a) fails, and the day the folded writer
    /// and the patch writer disagree about an observation, (b) does.
    #[test]
    fn inference_patches_are_replicas_and_the_folded_writer_holds_their_distinct_rows() {
        let dam = DataAugmentationModule::default();
        // Paper, fast and a geometry whose last 2 pixels fill no patch.
        for (size, p) in [(206, 20), (24, 6), (26, 4)] {
            let image = image(size);
            let per_side = size / p;
            let (area, patch_dim) = (p * p, 3 * p * p);
            let mut full = vec![f32::NAN; per_side * per_side * patch_dim];
            dam.write_patches(&image, p, false, DrawKey::new(5, [0, 0]), &mut full)
                .unwrap();
            // (a) Every pixel row of every patch is its first, and every
            // patch row of the grid is the first patch row.
            for patch in full.chunks_exact(patch_dim) {
                for block in patch.chunks_exact(area) {
                    for pixel_row in block.chunks_exact(p) {
                        assert_eq!(pixel_row, &block[..p], "{size}/{p}: pixel rows differ");
                    }
                }
            }
            let (first, rest) = full.split_at(per_side * patch_dim);
            for patch_row in rest.chunks_exact(per_side * patch_dim) {
                assert!(patch_row == first, "{size}/{p}: patch rows differ");
            }
            // (b) The folded writer's rows are the first pixel row of each
            // channel of each patch of that first patch row, bit for bit.
            let mut folded = vec![f32::NAN; per_side * 3 * p];
            dam.write_folded(&image, p, &mut folded).unwrap();
            for (row, patch) in folded
                .chunks_exact(3 * p)
                .zip(first.chunks_exact(patch_dim))
            {
                for (run, block) in row.chunks_exact(p).zip(patch.chunks_exact(area)) {
                    let bits = |values: &[f32]| -> Vec<u32> {
                        values.iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(run), bits(&block[..p]), "{size}/{p}: runs differ");
                }
            }
            // Exactly its own length is accepted.
            folded.push(0.0);
            assert!(dam.write_folded(&image, p, &mut folded).is_err());
            assert!(dam.write_folded(&image, size + 1, &mut []).is_err());
            assert!(dam.write_folded(&image, 0, &mut []).is_err());
        }
    }

    #[test]
    fn training_mode_perturbs_replicated_rows_but_not_row_zero() {
        let dam = DataAugmentationModule::default();
        let key = DrawKey::new(2, [0, 0]);
        let out = pixels(&dam, 16, true, key);
        let clean = pixels(&dam, 16, false, key);
        // Row 0 carries the unaugmented fingerprint.
        assert_eq!(out[..16 * 3], clean[..16 * 3]);
        for c in 0..3 {
            // At least one replicated pixel of every channel must differ.
            let changed = (16 * 3 + c..out.len())
                .step_by(3)
                .any(|i| out[i] != clean[i]);
            assert!(changed, "augmentation had no effect");
        }
    }

    #[test]
    fn dropout_rate_controls_amount_of_perturbation() {
        let light = DataAugmentationModule::new(DamConfig {
            normalize: true,
            dropout_rate: 0.02,
            noise_std: 0.0,
        });
        let heavy = DataAugmentationModule::new(DamConfig {
            normalize: true,
            dropout_rate: 0.6,
            noise_std: 0.0,
        });
        let count_changed = |dam: &DataAugmentationModule, seed: u64| {
            let key = DrawKey::new(seed, [0, 0]);
            let aug = pixels(dam, 20, true, key);
            let clean = pixels(dam, 20, false, key);
            aug.iter().zip(&clean).filter(|(a, c)| a != c).count()
        };
        assert!(count_changed(&heavy, 3) > count_changed(&light, 3) * 3);
    }

    #[test]
    fn augment_vector_matches_configuration() {
        let dam = DataAugmentationModule::default();
        let key = DrawKey::new(4, [0, 0]);
        let input = vec![-90.0, -60.0, -40.0, -100.0, -70.0];
        let eval = dam.augment_vector(&input, false, key);
        // Eval mode: just the normalisation.
        assert_eq!(eval, dam.normalize_channel(&input));
        let train = dam.augment_vector(&input, true, key);
        assert_eq!(train.len(), input.len());
        assert_ne!(train, eval);
        // Keyed: the same key is the same view, another key another.
        assert_eq!(train, dam.augment_vector(&input, true, key));
        assert_ne!(
            train,
            dam.augment_vector(&input, true, DrawKey::new(4, [0, 1]))
        );
    }
}
