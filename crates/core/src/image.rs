//! The RSSI image model: converting fingerprint vectors into 1-D three
//! channel images and 2-D images into transformer patches.
//!
//! The paper (§V) maps the three RSSI statistics (min/max/mean) of each AP to
//! one *pixel* with three channels, forming a 1-D image whose width is the
//! number of APs; the DAM then replicates it into a 2-D `R×R` image. Because
//! the evaluated image sizes (Fig. 5) are independent of the AP count, the
//! creator resamples the fingerprint to the configured image width by linear
//! interpolation.

use fingerprint::FingerprintObservation;
use tensor::Tensor;

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

/// A 2-D, three-channel RSSI image of size `size × size`, produced by the
/// DAM replication stage and consumed by the patch extractor.
#[derive(Debug, Clone, PartialEq)]
pub struct RssiImage {
    size: usize,
    channels: [Tensor; 3],
}

impl RssiImage {
    /// Builds an image from three `size × size` channel matrices.
    ///
    /// # Errors
    /// Returns an error if any channel is not `size × size`.
    pub fn new(size: usize, channels: [Tensor; 3]) -> Result<Self> {
        for c in &channels {
            if c.shape().dims() != [size, size] {
                return Err(VitalError::InvalidConfig(format!(
                    "channel shape {:?} does not match image size {size}",
                    c.shape().dims()
                )));
            }
        }
        Ok(RssiImage { size, channels })
    }

    /// Image side length in pixels.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The three channel matrices (min, max, mean).
    pub fn channels(&self) -> &[Tensor; 3] {
        &self.channels
    }

    /// `(num_patches, patch_dim)` of this image cut into `patch_size`
    /// patches: `(size / patch_size)²` whole patches (partial boundary
    /// patches are discarded, as in the paper) of `3 · patch_size²` values.
    ///
    /// # Errors
    /// Returns an error if `patch_size` is zero or larger than the image.
    fn patch_grid(&self, patch_size: usize) -> Result<(usize, usize)> {
        if patch_size == 0 || patch_size > self.size {
            return Err(VitalError::InvalidConfig(format!(
                "patch size {patch_size} invalid for image size {}",
                self.size
            )));
        }
        let per_side = self.size / patch_size;
        Ok((per_side * per_side, 3 * patch_size * patch_size))
    }

    /// Visits the patch matrix as the `patch_size`-pixel runs it is made
    /// of, in row-major order: patch by patch in raster order, within a
    /// patch channel by channel, within a channel pixel row by pixel row.
    /// `patch_size` must have passed [`RssiImage::patch_grid`].
    fn for_each_patch_run(&self, patch_size: usize, mut run: impl FnMut(&[f32])) {
        let per_side = self.size / patch_size;
        for py in 0..per_side {
            for px in 0..per_side {
                for channel in &self.channels {
                    let c = channel.as_slice();
                    for y in py * patch_size..(py + 1) * patch_size {
                        let start = y * self.size + px * patch_size;
                        run(&c[start..start + patch_size]);
                    }
                }
            }
        }
    }

    /// Slices the image into non-overlapping `patch_size × patch_size`
    /// patches (partial boundary patches are discarded, as in the paper) and
    /// flattens each patch across the three channels.
    ///
    /// Returns a `[num_patches, 3 · patch_size²]` matrix whose row order is
    /// raster (row-major) patch order — the positional embedding relies on
    /// this being stable.
    ///
    /// # Errors
    /// Returns an error if `patch_size` is zero or larger than the image.
    pub fn to_patches(&self, patch_size: usize) -> Result<Tensor> {
        let (num_patches, patch_dim) = self.patch_grid(patch_size)?;
        let mut data = Vec::with_capacity(num_patches * patch_dim);
        self.for_each_patch_run(patch_size, |run| data.extend_from_slice(run));
        Ok(Tensor::from_vec(data, &[num_patches, patch_dim])?)
    }

    /// Writes the [`RssiImage::to_patches`] matrix, row-major, straight
    /// into `out` — a compiled plan's input region, so batched inference
    /// never holds a patch tensor per observation. Every element of `out`
    /// is written.
    ///
    /// # Errors
    /// Returns an error if `patch_size` is zero or larger than the image,
    /// or `out` is not exactly `num_patches · 3 · patch_size²` long.
    pub fn write_patches(&self, patch_size: usize, out: &mut [f32]) -> Result<()> {
        let (num_patches, patch_dim) = self.patch_grid(patch_size)?;
        if out.len() != num_patches * patch_dim {
            return Err(VitalError::InvalidConfig(format!(
                "a buffer of {} values does not hold {num_patches} patches of {patch_dim}",
                out.len()
            )));
        }
        let mut runs = out.chunks_exact_mut(patch_size);
        self.for_each_patch_run(patch_size, |run| {
            runs.next().expect("length checked").copy_from_slice(run)
        });
        Ok(())
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

    #[test]
    fn image_new_validates_channel_shapes() {
        let good = [
            Tensor::zeros(&[4, 4]),
            Tensor::zeros(&[4, 4]),
            Tensor::zeros(&[4, 4]),
        ];
        assert!(RssiImage::new(4, good).is_ok());
        let bad = [
            Tensor::zeros(&[4, 4]),
            Tensor::zeros(&[3, 4]),
            Tensor::zeros(&[4, 4]),
        ];
        assert!(RssiImage::new(4, bad).is_err());
    }

    #[test]
    fn patch_extraction_shapes_and_content() {
        // 4x4 image, 2x2 patches -> 4 patches of dim 12.
        let channel = Tensor::from_vec((0..16).map(|v| v as f32).collect(), &[4, 4]).unwrap();
        let image = RssiImage::new(
            4,
            [channel.clone(), channel.scale(10.0), channel.scale(100.0)],
        )
        .unwrap();
        let patches = image.to_patches(2).unwrap();
        assert_eq!(patches.shape().dims(), &[4, 12]);
        // First patch, channel 0 covers pixels (0,0),(0,1),(1,0),(1,1) = 0,1,4,5.
        let row0 = patches.row(0).unwrap();
        assert_eq!(&row0.as_slice()[..4], &[0.0, 1.0, 4.0, 5.0]);
        // Channel 1 of the same patch is 10x those values.
        assert_eq!(&row0.as_slice()[4..8], &[0.0, 10.0, 40.0, 50.0]);
    }

    #[test]
    fn write_patches_is_to_patches_byte_for_byte() {
        // 7×7 with 2×2 and 3×3 patches leaves a partial column and row to
        // discard. The reference indexes pixel by pixel, independently of
        // the row-copying writer.
        let mut rng = tensor::rng::SeededRng::new(5);
        let channels = std::array::from_fn(|_| rng.uniform_tensor(&[7, 7], -100.0, 0.0));
        let image = RssiImage::new(7, channels).unwrap();
        for ps in [1, 2, 3, 7] {
            let per_side = 7 / ps;
            let mut reference = Vec::new();
            for (py, px) in (0..per_side).flat_map(|py| (0..per_side).map(move |px| (py, px))) {
                for channel in image.channels() {
                    for (row, col) in (0..ps).flat_map(|r| (0..ps).map(move |c| (r, c))) {
                        let pixel = (py * ps + row) * 7 + px * ps + col;
                        reference.push(channel.as_slice()[pixel].to_bits());
                    }
                }
            }
            let mut written = vec![f32::NAN; reference.len()];
            image.write_patches(ps, &mut written).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&written), reference, "patch size {ps}");
            let patches = image.to_patches(ps).unwrap();
            assert_eq!(patches.shape().dims(), &[per_side * per_side, 3 * ps * ps]);
            assert_eq!(bits(patches.as_slice()), reference, "patch size {ps}");
        }
        // Only a buffer of exactly the patch matrix's size is accepted.
        assert!(image.write_patches(3, &mut [0.0; 4 * 27 + 1]).is_err());
        assert!(image.write_patches(3, &mut [0.0; 4 * 27 - 1]).is_err());
        assert!(image.write_patches(0, &mut []).is_err());
    }

    #[test]
    fn partial_patches_are_discarded() {
        let channel = Tensor::zeros(&[5, 5]);
        let image = RssiImage::new(5, [channel.clone(), channel.clone(), channel]).unwrap();
        let patches = image.to_patches(2).unwrap();
        // 5/2 = 2 per side -> 4 patches; the 5th row/col is dropped.
        assert_eq!(patches.shape().dims(), &[4, 12]);
        assert!(image.to_patches(0).is_err());
        assert!(image.to_patches(6).is_err());
    }
}
