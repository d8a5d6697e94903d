//! Fingerprint feature extraction shared by the baseline frameworks.

use fingerprint::{FingerprintObservation, MISSING_AP_DBM};
use tensor::rng::DrawKey;
use tensor::Tensor;
use vital::{DamConfig, DataAugmentationModule};

/// The seed a baseline built from `seed` keys its DAM draws by: apart from
/// `seed` itself, which its training loop shuffles and keys dropout by,
/// and `seed + 1`, which initialises its weights.
pub(crate) fn augmentation_seed(seed: u64) -> u64 {
    seed.wrapping_add(2)
}

/// Observations per stacked forward pass of the network baselines' shared
/// chunk loop (`crate::map_rows`); bounds per-chunk graph and
/// activation memory on arbitrarily long query streams.
pub(crate) const INFERENCE_CHUNK: usize = 64;

/// Gathers rows `indices` of a `[samples, width]` training matrix into one
/// mini-batch.
pub(crate) fn gather_rows(matrix: &Tensor, indices: &[usize]) -> tensor::Result<Tensor> {
    let width = matrix.cols()?;
    let rows = indices
        .iter()
        .flat_map(|&i| &matrix.as_slice()[i * width..(i + 1) * width]);
    Tensor::from_vec(rows.copied().collect(), &[indices.len(), width])
}

/// Squared Euclidean distance, summed in index order: the per-pair chain
/// the matching stage's distance kernel (`crate::memory`) is held to.
#[cfg(test)]
pub(crate) fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(a, b)| (a - b) * (a - b)).sum()
}

/// Packs per-row feature vectors into a `[rows, width]` tensor for
/// checkpoint storage or one stacked forward pass (handles the zero-row
/// case).
///
/// # Errors
/// Returns an error if any row's width differs from `width`.
pub(crate) fn rows_to_tensor(rows: &[Vec<f32>], width: usize) -> tensor::Result<Tensor> {
    let mut data = Vec::with_capacity(rows.len() * width);
    for row in rows {
        if row.len() != width {
            return Err(tensor::TensorError::LengthMismatch {
                provided: row.len(),
                expected: width,
            });
        }
        data.extend_from_slice(row);
    }
    Tensor::from_vec(data, &[rows.len(), width])
}

/// How a fingerprint observation is turned into a flat feature vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeatureMode {
    /// The per-AP mean RSSI, min-max normalised — the representation used by
    /// most DNN baselines.
    #[default]
    MeanChannel,
    /// All three channels (min/max/mean) concatenated.
    ThreeChannel,
    /// Signal Strength Difference: RSSI relative to the strongest AP, a
    /// classical calibration-free transform (paper ref. \[18\]).
    Ssd,
    /// Hyperbolic Location Fingerprint: pairwise RSSI ratios against the
    /// strongest AP in log-space (paper ref. \[18\]).
    Hlf,
}

impl FeatureMode {
    /// Stable identifier persisted in checkpoints.
    pub fn as_str(&self) -> &'static str {
        match self {
            FeatureMode::MeanChannel => "MeanChannel",
            FeatureMode::ThreeChannel => "ThreeChannel",
            FeatureMode::Ssd => "Ssd",
            FeatureMode::Hlf => "Hlf",
        }
    }

    /// Features per access point: three for [`FeatureMode::ThreeChannel`],
    /// one for the rest.
    pub(crate) fn channels(&self) -> usize {
        match self {
            FeatureMode::ThreeChannel => 3,
            FeatureMode::MeanChannel | FeatureMode::Ssd | FeatureMode::Hlf => 1,
        }
    }

    /// Parses a [`FeatureMode::as_str`] identifier back.
    pub fn parse(s: &str) -> Option<FeatureMode> {
        match s {
            "MeanChannel" => Some(FeatureMode::MeanChannel),
            "ThreeChannel" => Some(FeatureMode::ThreeChannel),
            "Ssd" => Some(FeatureMode::Ssd),
            "Hlf" => Some(FeatureMode::Hlf),
            _ => None,
        }
    }
}

/// Converts observations into feature vectors, optionally passing them
/// through the VITAL Data Augmentation Module (for the Fig. 9 ablation).
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    mode: FeatureMode,
    dam: Option<DataAugmentationModule>,
}

impl FeatureExtractor {
    /// Creates an extractor for the given representation.
    pub fn new(mode: FeatureMode) -> Self {
        FeatureExtractor { mode, dam: None }
    }

    /// Enables DAM pre-processing (normalisation + dropout/noise during
    /// training) on top of the representation.
    pub fn with_dam(mut self, config: Option<DamConfig>) -> Self {
        self.dam = config.map(DataAugmentationModule::new);
        self
    }

    /// Whether DAM is attached.
    pub fn has_dam(&self) -> bool {
        self.dam.is_some()
    }

    /// The attached DAM's configuration, if any — persisted in checkpoints
    /// so a restored extractor reproduces the same inference pipeline.
    pub fn dam_config(&self) -> Option<DamConfig> {
        self.dam.as_ref().map(|d| *d.config())
    }

    /// The feature representation in use.
    pub fn mode(&self) -> FeatureMode {
        self.mode
    }

    /// Width of the feature vector for a building with `num_aps` access
    /// points.
    pub fn feature_width(&self, num_aps: usize) -> usize {
        self.mode.channels() * num_aps
    }

    /// The mode's raw features of `observation` into `out`, cleared first.
    fn write_raw_features(&self, observation: &FingerprintObservation, out: &mut Vec<f32>) {
        out.clear();
        let mean = observation.mean_channel();
        match self.mode {
            FeatureMode::MeanChannel => out.extend(normalized(mean)),
            FeatureMode::ThreeChannel => {
                for channel in [&observation.min, &observation.max, &observation.mean] {
                    out.extend(normalized(channel));
                }
            }
            FeatureMode::Ssd => out.extend(ssd(mean)),
            FeatureMode::Hlf => out.extend(hlf(mean)),
        }
    }

    /// Extracts a feature vector. When DAM is attached and `training` is
    /// `true`, the DAM dropout / Gaussian-noise stages are applied with the
    /// draws of `key` (one augmented view per key); otherwise `key` is not
    /// used.
    pub fn extract(
        &self,
        observation: &FingerprintObservation,
        training: bool,
        key: DrawKey,
    ) -> Vec<f32> {
        let mut features = Vec::with_capacity(self.feature_width(observation.mean.len()));
        self.write_raw_features(observation, &mut features);
        match &self.dam {
            Some(dam) => dam.augment_vector(&features, training, key),
            None => features,
        }
    }

    /// [`FeatureExtractor::extract`] in inference mode into `out`, cleared
    /// first: a caller extracting query after query reuses one buffer, and
    /// without DAM allocates nothing once it has grown to the width.
    pub fn extract_into(&self, observation: &FingerprintObservation, out: &mut Vec<f32>) {
        self.write_raw_features(observation, out);
        if let Some(dam) = &self.dam {
            *out = dam.augment_vector(out, false, DrawKey::default());
        }
    }

    /// Extracts clean (inference-mode) feature vectors for a batch of
    /// observations — the front half of the network baselines' shared
    /// chunk loop.
    pub fn extract_clean_batch(&self, observations: &[FingerprintObservation]) -> Vec<Vec<f32>> {
        observations
            .iter()
            .map(|o| self.extract(o, false, DrawKey::default()))
            .collect()
    }

    /// Extracts features for a whole dataset as a `[samples, width]` matrix
    /// plus labels. With DAM attached and `training == true`,
    /// `augmented_copies` extra augmented views are appended per observation
    /// (fingerprint replication for vector models), copy `copy` of the
    /// `row`-th observation keyed by `DrawKey::new(seed, [row, copy])`.
    pub fn extract_matrix(
        &self,
        dataset: &fingerprint::FingerprintDataset,
        training: bool,
        augmented_copies: usize,
        seed: u64,
    ) -> (Tensor, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        let copies = if training && self.dam.is_some() {
            1 + augmented_copies
        } else {
            1
        };
        for (row, observation) in dataset.observations().iter().enumerate() {
            for copy in 0..copies {
                // The first copy of each observation is unaugmented so the
                // clean fingerprint is always part of the training pool.
                let augment = training && copy > 0;
                let key = DrawKey::new(seed, [row, copy]);
                rows.push(self.extract(observation, augment, key));
                labels.push(observation.rp_label);
            }
        }
        let width = rows.first().map(Vec::len).unwrap_or(0);
        let flat: Vec<f32> = rows.into_iter().flatten().collect();
        let matrix = Tensor::from_vec(flat, &[labels.len(), width])
            .expect("rows share the extractor's feature width");
        (matrix, labels)
    }
}

/// Min-max normalises raw RSSI (−100…0 dBm) into `[0, 1]`, where 0 means "not
/// visible".
pub fn normalize_rssi(rssi: &[f32]) -> Vec<f32> {
    normalized(rssi).collect()
}

/// [`normalize_rssi`], value by value.
fn normalized(rssi: &[f32]) -> impl Iterator<Item = f32> + '_ {
    rssi.iter()
        .map(|v| ((v - MISSING_AP_DBM) / -MISSING_AP_DBM).clamp(0.0, 1.0))
}

/// The strongest RSSI of a fingerprint, at least [`MISSING_AP_DBM`].
fn strongest(rssi: &[f32]) -> f32 {
    rssi.iter().cloned().fold(MISSING_AP_DBM, f32::max)
}

/// Signal Strength Difference transform: every AP's RSSI relative to the
/// strongest AP of the fingerprint. Constant device-wide gain offsets cancel
/// out, which is what makes the transform calibration-free.
pub fn ssd_transform(rssi: &[f32]) -> Vec<f32> {
    ssd(rssi).collect()
}

/// [`ssd_transform`], value by value.
fn ssd(rssi: &[f32]) -> impl Iterator<Item = f32> + '_ {
    let strongest = strongest(rssi);
    rssi.iter().map(move |v| {
        if *v <= MISSING_AP_DBM {
            // Missing APs keep a large constant difference.
            -1.0
        } else {
            ((v - strongest) / 50.0).clamp(-1.0, 0.0) + 1.0
        }
    })
}

/// Hyperbolic Location Fingerprint transform: log-domain power ratios against
/// the strongest AP.
pub fn hlf_transform(rssi: &[f32]) -> Vec<f32> {
    hlf(rssi).collect()
}

/// [`hlf_transform`], value by value.
fn hlf(rssi: &[f32]) -> impl Iterator<Item = f32> + '_ {
    let strongest = strongest(rssi);
    rssi.iter().map(move |v| {
        if *v <= MISSING_AP_DBM {
            0.0
        } else {
            // dBm are already log-scale powers; the ratio of linear powers
            // is the difference of dB values, rescaled to ~[0, 1].
            (1.0 + (v - strongest) / 60.0).clamp(0.0, 1.0)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
    use sim_radio::building_1;

    fn obs(mean: Vec<f32>) -> FingerprintObservation {
        FingerprintObservation {
            rp_label: 3,
            device: "T".into(),
            min: mean.iter().map(|v| v - 2.0).collect(),
            max: mean.iter().map(|v| v + 2.0).collect(),
            mean,
        }
    }

    #[test]
    fn normalize_rssi_maps_range() {
        let n = normalize_rssi(&[-100.0, -50.0, 0.0]);
        assert_eq!(n, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn ssd_cancels_constant_offsets() {
        let base = vec![-60.0, -70.0, -80.0];
        let offset: Vec<f32> = base.iter().map(|v| v + 7.0).collect();
        assert_eq!(ssd_transform(&base), ssd_transform(&offset));
        // Missing AP handled distinctly.
        let with_missing = ssd_transform(&[-60.0, MISSING_AP_DBM]);
        assert_eq!(with_missing[1], -1.0);
    }

    #[test]
    fn hlf_is_offset_invariant_and_bounded() {
        let base = vec![-55.0, -65.0, -95.0];
        let offset: Vec<f32> = base.iter().map(|v| v + 4.0).collect();
        assert_eq!(hlf_transform(&base), hlf_transform(&offset));
        for v in hlf_transform(&base) {
            assert!((0.0..=1.0).contains(&v));
        }
        assert_eq!(hlf_transform(&[MISSING_AP_DBM, -50.0])[0], 0.0);
    }

    #[test]
    fn feature_widths_per_mode() {
        assert_eq!(
            FeatureExtractor::new(FeatureMode::MeanChannel).feature_width(18),
            18
        );
        assert_eq!(
            FeatureExtractor::new(FeatureMode::ThreeChannel).feature_width(18),
            54
        );
        assert_eq!(
            FeatureExtractor::new(FeatureMode::Ssd).feature_width(18),
            18
        );
        assert_eq!(
            FeatureExtractor::new(FeatureMode::Hlf).feature_width(18),
            18
        );
    }

    #[test]
    fn extract_respects_mode_and_dam() {
        let o = obs(vec![-60.0, -70.0, -100.0, -55.0]);
        let key = DrawKey::new(0, [0, 0]);
        let plain = FeatureExtractor::new(FeatureMode::MeanChannel);
        let features = plain.extract(&o, true, key);
        assert_eq!(features.len(), 4);
        assert!(!plain.has_dam());

        let with_dam =
            FeatureExtractor::new(FeatureMode::MeanChannel).with_dam(Some(DamConfig::default()));
        assert!(with_dam.has_dam());
        // Training extraction is stochastic; eval extraction is deterministic.
        let e1 = with_dam.extract(&o, false, key);
        let e2 = with_dam.extract(&o, false, DrawKey::new(9, [1, 2]));
        assert_eq!(e1, e2);
        let t1 = with_dam.extract(&o, true, key);
        assert_eq!(t1.len(), 4);
    }

    #[test]
    fn extraction_into_one_buffer_is_inference_extraction() {
        let observations = [
            obs(vec![-60.0, -70.0, -100.0, -55.0]),
            obs(vec![-100.0, -42.0, -81.0, -66.0]),
        ];
        let modes = [
            FeatureMode::MeanChannel,
            FeatureMode::ThreeChannel,
            FeatureMode::Ssd,
            FeatureMode::Hlf,
        ];
        for mode in modes {
            for dam in [None, Some(DamConfig::default())] {
                let extractor = FeatureExtractor::new(mode).with_dam(dam);
                let mut buffer = vec![7.0; 20];
                for o in &observations {
                    extractor.extract_into(o, &mut buffer);
                    let want = extractor.extract(o, false, DrawKey::default());
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&buffer), bits(&want), "{mode:?}, DAM {dam:?}");
                }
            }
        }
    }

    #[test]
    fn matrix_extraction_adds_augmented_copies_only_with_dam() {
        let building = building_1();
        let dataset = FingerprintDataset::collect(
            &building,
            &base_devices()[..1],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 2,
                seed: 0,
            },
        );
        let plain = FeatureExtractor::new(FeatureMode::MeanChannel);
        let (m, labels) = plain.extract_matrix(&dataset, true, 2, 1);
        assert_eq!(m.rows().unwrap(), dataset.len());
        assert_eq!(labels.len(), dataset.len());

        let dammed =
            FeatureExtractor::new(FeatureMode::MeanChannel).with_dam(Some(DamConfig::default()));
        let (m2, labels2) = dammed.extract_matrix(&dataset, true, 2, 1);
        assert_eq!(m2.rows().unwrap(), dataset.len() * 3);
        assert_eq!(labels2.len(), dataset.len() * 3);
        // Eval-time extraction never replicates.
        let (m3, _) = dammed.extract_matrix(&dataset, false, 2, 1);
        assert_eq!(m3.rows().unwrap(), dataset.len());
    }
}
