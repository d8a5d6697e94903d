//! The RSSI image model: converting fingerprint vectors into 1-D three
//! channel images.
//!
//! The paper (§V) maps the three RSSI statistics (min/max/mean) of each AP to
//! one *pixel* with three channels, forming a 1-D image whose width is the
//! number of APs; the DAM then replicates it into a 2-D `R×R` image that is
//! cut into patches. That 2-D image is the paper's picture only: its rows
//! are one row, so [`crate::DataAugmentationModule::write_patches`] goes
//! from the 1-D image to the patch matrix directly (the tests below build
//! the picture and hold the writer to it). Because the evaluated image
//! sizes (Fig. 5) are independent of the AP count, the creator resamples
//! the fingerprint to the configured image width by linear interpolation.

use fingerprint::FingerprintObservation;

use crate::{Result, VitalError};

/// A 1-D, three-channel RSSI image: one pixel per (resampled) AP position.
#[derive(Debug, Clone, PartialEq)]
pub struct Rssi1d {
    /// Channel 0: per-pixel minimum RSSI.
    pub min: Vec<f32>,
    /// Channel 1: per-pixel maximum RSSI.
    pub max: Vec<f32>,
    /// Channel 2: per-pixel mean RSSI.
    pub mean: Vec<f32>,
}

impl Rssi1d {
    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.mean.len()
    }

    /// The three channels as an array of slices (min, max, mean).
    pub fn channels(&self) -> [&[f32]; 3] {
        [&self.min, &self.max, &self.mean]
    }
}

/// Creates 1-D RSSI images from fingerprint observations.
///
/// The creator resamples each of the three channels from the building's AP
/// count to the configured image width using linear interpolation, so that
/// the downstream image size can be explored independently of the AP count
/// (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RssiImageCreator {
    image_size: usize,
}

impl RssiImageCreator {
    /// Creates an image creator for `image_size`-wide images.
    pub fn new(image_size: usize) -> Self {
        RssiImageCreator { image_size }
    }

    /// Target image width.
    pub fn image_size(&self) -> usize {
        self.image_size
    }

    /// Converts an observation to a 1-D three-channel image.
    ///
    /// # Errors
    /// Returns an error if the observation has no APs.
    pub fn create(&self, observation: &FingerprintObservation) -> Result<Rssi1d> {
        if observation.num_aps() == 0 {
            return Err(VitalError::InvalidDataset(
                "observation has no access points".into(),
            ));
        }
        Ok(Rssi1d {
            min: resample_linear(&observation.min, self.image_size),
            max: resample_linear(&observation.max, self.image_size),
            mean: resample_linear(&observation.mean, self.image_size),
        })
    }
}

/// Linear-interpolation resampling of `values` to `target_len` points.
pub(crate) fn resample_linear(values: &[f32], target_len: usize) -> Vec<f32> {
    if values.is_empty() || target_len == 0 {
        return Vec::new();
    }
    if values.len() == 1 {
        return vec![values[0]; target_len];
    }
    if target_len == 1 {
        return vec![values[0]];
    }
    let src_span = (values.len() - 1) as f32;
    let dst_span = (target_len - 1) as f32;
    (0..target_len)
        .map(|i| {
            let pos = i as f32 / dst_span * src_span;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(values.len() - 1);
            let t = pos - lo as f32;
            values[lo] * (1.0 - t) + values[hi] * t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DamConfig, DataAugmentationModule};
    use tensor::rng::{DrawKey, KeyedNoise, SeededRng};

    fn observation(n: usize) -> FingerprintObservation {
        FingerprintObservation {
            rp_label: 0,
            device: "TEST".into(),
            min: (0..n).map(|i| -90.0 + i as f32).collect(),
            max: (0..n).map(|i| -80.0 + i as f32).collect(),
            mean: (0..n).map(|i| -85.0 + i as f32).collect(),
        }
    }

    #[test]
    fn resample_identity_when_lengths_match() {
        let v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(resample_linear(&v, 4), v);
    }

    #[test]
    fn resample_preserves_endpoints_and_monotonicity() {
        let v = vec![-100.0, -80.0, -60.0, -40.0];
        let up = resample_linear(&v, 10);
        assert_eq!(up.len(), 10);
        assert_eq!(up[0], -100.0);
        assert_eq!(up[9], -40.0);
        for w in up.windows(2) {
            assert!(w[1] >= w[0]);
        }
        let down = resample_linear(&v, 2);
        assert_eq!(down, vec![-100.0, -40.0]);
    }

    #[test]
    fn resample_edge_cases() {
        assert!(resample_linear(&[], 5).is_empty());
        assert_eq!(resample_linear(&[3.0], 4), vec![3.0; 4]);
        assert_eq!(resample_linear(&[1.0, 2.0], 1), vec![1.0]);
    }

    #[test]
    fn creator_produces_requested_width() {
        let creator = RssiImageCreator::new(24);
        assert_eq!(creator.image_size(), 24);
        let img = creator.create(&observation(18)).unwrap();
        assert_eq!(img.width(), 24);
        assert_eq!(img.channels()[0].len(), 24);
        // Channel ordering is (min, max, mean): min <= mean <= max per pixel.
        for i in 0..img.width() {
            assert!(img.min[i] <= img.mean[i]);
            assert!(img.mean[i] <= img.max[i]);
        }
    }

    #[test]
    fn creator_rejects_empty_observation() {
        let creator = RssiImageCreator::new(8);
        assert!(creator.create(&observation(0)).is_err());
    }

    fn image_1d(min: Vec<f32>) -> Rssi1d {
        Rssi1d {
            max: min.iter().map(|v| v * 10.0).collect(),
            mean: min.iter().map(|v| v * 100.0).collect(),
            min,
        }
    }

    fn raw_dam() -> DataAugmentationModule {
        DataAugmentationModule::new(DamConfig {
            normalize: false,
            ..DamConfig::disabled()
        })
    }

    /// The paper's picture, materialised: three row-major `R × R` channels
    /// whose every row is the normalised 1-D channel, rows `1..R` perturbed
    /// in training, each pixel `(c, row, col)` by draw `col` of its own
    /// row's keyed noise — the whole row, the boundary the patch grid
    /// discards included.
    fn replicate(
        dam: &DataAugmentationModule,
        image: &Rssi1d,
        training: bool,
        key: DrawKey,
    ) -> [Vec<f32>; 3] {
        let size = image.width();
        let config = *dam.config();
        let mut noise = KeyedNoise::default();
        let mut c = 0;
        image.channels().map(|channel| {
            let base = dam.normalize_channel(channel);
            let mut pixels: Vec<f32> = (0..size).flat_map(|_| base.clone()).collect();
            if training && config.is_augmenting() {
                for (row, values) in pixels.chunks_exact_mut(size).enumerate().skip(1) {
                    let site = (3 * row + c) as u32;
                    let (normals, dropped) = noise.row(key, site, size, config.dropout_rate);
                    for (col, pixel) in values.iter_mut().enumerate() {
                        if dropped[col] {
                            *pixel = config.noise_std.max(1e-3) * normals[col];
                        } else if config.noise_std > 0.0 {
                            *pixel += config.noise_std * 0.5 * normals[col];
                        }
                    }
                }
            }
            c += 1;
            pixels
        })
    }

    #[test]
    fn patch_extraction_shapes_and_content() {
        // A 4-wide image replicated to 4x4, 2x2 patches -> 4 patches of dim 12.
        let image = image_1d(vec![0.0, 1.0, 2.0, 3.0]);
        let mut patches = [f32::NAN; 4 * 12];
        raw_dam()
            .write_patches(&image, 2, false, DrawKey::default(), &mut patches)
            .unwrap();
        // First patch, channel 0 covers pixels (0,0),(0,1),(1,0),(1,1) = 0,1,0,1.
        assert_eq!(&patches[..4], &[0.0, 1.0, 0.0, 1.0]);
        // Channel 1 of the same patch is 10x those values.
        assert_eq!(&patches[4..8], &[0.0, 10.0, 0.0, 10.0]);
        // Raster order: the second patch is the right half, the third is
        // the first again one patch row down.
        assert_eq!(&patches[12..16], &[2.0, 3.0, 2.0, 3.0]);
        assert_eq!(patches[24..36], patches[..12]);
    }

    #[test]
    fn write_patches_is_to_patches_byte_for_byte() {
        // 7×7 with 2×2 and 3×3 patches leaves a partial column and row to
        // discard. The reference materialises the image and indexes it
        // pixel by pixel, independently of the run-copying, scattering
        // writer; in training it keys each pixel by its (channel, row,
        // column) as the writer must, and draws the whole image where the
        // writer draws only the kept pixels.
        let mut rng = SeededRng::new(5);
        let image = Rssi1d {
            min: rng.uniform_tensor(&[7], -100.0, 0.0).into_vec(),
            max: rng.uniform_tensor(&[7], -100.0, 0.0).into_vec(),
            mean: rng.uniform_tensor(&[7], -100.0, 0.0).into_vec(),
        };
        let configs = [
            DamConfig::default(),
            DamConfig {
                dropout_rate: 0.0,
                ..DamConfig::default()
            },
            DamConfig {
                noise_std: 0.0,
                ..DamConfig::default()
            },
            DamConfig::disabled(),
        ];
        for (config, training) in configs.iter().flat_map(|c| [(c, false), (c, true)]) {
            let dam = DataAugmentationModule::new(*config);
            for ps in [1, 2, 3, 7] {
                let case = format!("{config:?}, training {training}, patch size {ps}");
                let key = DrawKey::new(11, [3, 8]);
                let channels = replicate(&dam, &image, training, key);
                let per_side = 7 / ps;
                let mut reference = Vec::new();
                for (py, px) in (0..per_side).flat_map(|py| (0..per_side).map(move |px| (py, px))) {
                    for channel in &channels {
                        for (row, col) in (0..ps).flat_map(|r| (0..ps).map(move |c| (r, c))) {
                            let pixel = (py * ps + row) * 7 + px * ps + col;
                            reference.push(channel[pixel].to_bits());
                        }
                    }
                }
                assert_eq!(reference.len(), per_side * per_side * 3 * ps * ps, "{case}");
                let mut written = vec![f32::NAN; reference.len()];
                dam.write_patches(&image, ps, training, key, &mut written)
                    .unwrap();
                let bits: Vec<u32> = written.iter().map(|x| x.to_bits()).collect();
                assert_eq!(bits, reference, "{case}");
            }
        }
        // Only a buffer of exactly the patch matrix's size is accepted.
        let dam = DataAugmentationModule::default();
        let write =
            |ps, out: &mut [f32]| dam.write_patches(&image, ps, true, DrawKey::default(), out);
        assert!(write(3, &mut [0.0; 4 * 27]).is_ok());
        for refused in [
            write(3, &mut [0.0; 4 * 27 + 1]),
            write(3, &mut [0.0; 4 * 27 - 1]),
            write(0, &mut []),
            write(8, &mut [0.0; 3 * 64]),
        ] {
            assert!(matches!(refused, Err(VitalError::InvalidConfig(_))));
        }
    }

    #[test]
    fn partial_patches_are_discarded() {
        let image = image_1d(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        // 5/2 = 2 per side -> 4 patches; the 5th row/col is dropped.
        let mut patches = [f32::NAN; 4 * 12];
        let write = |ps, out: &mut [f32]| {
            raw_dam().write_patches(&image, ps, false, DrawKey::default(), out)
        };
        write(2, &mut patches).unwrap();
        assert!(patches.iter().all(|&v| v != 5.0 && v != 50.0 && v != 500.0));
        assert!(write(2, &mut [0.0; 9 * 12]).is_err());
        assert!(write(0, &mut []).is_err());
        assert!(write(6, &mut patches).is_err());
    }
}
