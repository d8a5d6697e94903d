use rand::rngs::StdRng;
use rand::SeedableRng;

use sim_radio::{Building, Channel};
use tensor::rng::SeededRng;

use crate::{capture_observation, DeviceProfile, FingerprintObservation};

/// Parameters of a fingerprint collection campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetConfig {
    /// How many independent observations each device captures at each RP.
    pub captures_per_rp: usize,
    /// RSSI samples per observation burst (the paper uses 5, reduced to
    /// min/max/mean).
    pub samples_per_capture: usize,
    /// Seed for the whole campaign (device noise, fading, marginal misses).
    pub seed: u64,
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig {
            captures_per_rp: 2,
            samples_per_capture: 5,
            seed: 0,
        }
    }
}

/// A labelled fingerprint dataset for one building.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintDataset {
    building: String,
    num_aps: usize,
    num_rps: usize,
    observations: Vec<FingerprintObservation>,
}

/// A train/test partition of a [`FingerprintDataset`].
#[derive(Debug, Clone)]
pub struct TrainTestSplit {
    /// Training portion.
    pub train: FingerprintDataset,
    /// Held-out testing portion.
    pub test: FingerprintDataset,
}

impl FingerprintDataset {
    /// Runs a full collection campaign: every device captures
    /// `captures_per_rp` observations at every reference point of `building`.
    pub fn collect(building: &Building, devices: &[DeviceProfile], config: &DatasetConfig) -> Self {
        let channel = Channel::new(building, config.seed);
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5151));
        let mut observations = Vec::new();
        for device in devices {
            for rp in building.reference_points() {
                for _ in 0..config.captures_per_rp.max(1) {
                    observations.push(capture_observation(
                        &channel,
                        device,
                        rp,
                        config.samples_per_capture,
                        &mut rng,
                    ));
                }
            }
        }
        FingerprintDataset {
            building: building.name().to_string(),
            num_aps: building.access_points().len(),
            num_rps: building.reference_points().len(),
            observations,
        }
    }

    /// Builds a dataset directly from observations (used by tests and by
    /// augmentation pipelines).
    pub fn from_observations(
        building: impl Into<String>,
        num_aps: usize,
        num_rps: usize,
        observations: Vec<FingerprintObservation>,
    ) -> Self {
        FingerprintDataset {
            building: building.into(),
            num_aps,
            num_rps,
            observations,
        }
    }

    /// Name of the building the data was collected in.
    pub fn building(&self) -> &str {
        &self.building
    }

    /// Number of access points (pixels) per fingerprint.
    pub fn num_aps(&self) -> usize {
        self.num_aps
    }

    /// Number of reference points (classes).
    pub fn num_rps(&self) -> usize {
        self.num_rps
    }

    /// All observations.
    pub fn observations(&self) -> &[FingerprintObservation] {
        &self.observations
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// Returns `true` when the dataset holds no observations.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The distinct device acronyms present, in first-seen order.
    pub fn devices(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for obs in &self.observations {
            if !seen.contains(&obs.device) {
                seen.push(obs.device.clone());
            }
        }
        seen
    }

    /// A new dataset containing only observations captured by the named
    /// devices.
    pub fn filter_devices(&self, acronyms: &[&str]) -> FingerprintDataset {
        FingerprintDataset {
            building: self.building.clone(),
            num_aps: self.num_aps,
            num_rps: self.num_rps,
            observations: self
                .observations
                .iter()
                .filter(|o| acronyms.contains(&o.device.as_str()))
                .cloned()
                .collect(),
        }
    }

    /// Random train/test split with the given training fraction, shuffled
    /// deterministically by `seed`. Matches the paper's ≈80/20 split.
    pub fn split(&self, train_fraction: f32, seed: u64) -> TrainTestSplit {
        let mut indices: Vec<usize> = (0..self.observations.len()).collect();
        SeededRng::new(seed).shuffle(&mut indices);
        let train_len =
            ((self.observations.len() as f32) * train_fraction.clamp(0.0, 1.0)).round() as usize;
        let (train_idx, test_idx) = indices.split_at(train_len.min(indices.len()));
        let pick = |idx: &[usize]| {
            idx.iter()
                .map(|&i| self.observations[i].clone())
                .collect::<Vec<_>>()
        };
        TrainTestSplit {
            train: FingerprintDataset {
                building: self.building.clone(),
                num_aps: self.num_aps,
                num_rps: self.num_rps,
                observations: pick(train_idx),
            },
            test: FingerprintDataset {
                building: self.building.clone(),
                num_aps: self.num_aps,
                num_rps: self.num_rps,
                observations: pick(test_idx),
            },
        }
    }

    /// The class labels of every observation, in order.
    pub fn labels(&self) -> Vec<usize> {
        self.observations.iter().map(|o| o.rp_label).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{base_devices, extended_devices};
    use sim_radio::building_1;

    fn small_dataset() -> FingerprintDataset {
        let building = building_1();
        FingerprintDataset::collect(
            &building,
            &base_devices()[..2],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 3,
                seed: 11,
            },
        )
    }

    #[test]
    fn collection_size_is_devices_times_rps_times_captures() {
        let building = building_1();
        let ds = small_dataset();
        assert_eq!(ds.len(), 2 * building.reference_points().len());
        assert_eq!(ds.num_aps(), building.access_points().len());
        assert_eq!(ds.num_rps(), building.reference_points().len());
        assert_eq!(ds.building(), "Building 1");
        assert!(!ds.is_empty());
    }

    #[test]
    fn devices_and_filtering() {
        let ds = small_dataset();
        assert_eq!(ds.devices(), vec!["BLU".to_string(), "HTC".to_string()]);
        let only_htc = ds.filter_devices(&["HTC"]);
        assert_eq!(only_htc.devices(), vec!["HTC".to_string()]);
        assert_eq!(only_htc.len(), ds.len() / 2);
        // Filtering is non-destructive.
        assert_eq!(ds.len(), 2 * only_htc.len());
    }

    #[test]
    fn split_is_disjoint_and_complete() {
        let ds = small_dataset();
        let split = ds.split(0.8, 3);
        assert_eq!(split.train.len() + split.test.len(), ds.len());
        let expected_train = (ds.len() as f32 * 0.8).round() as usize;
        assert_eq!(split.train.len(), expected_train);
        // Deterministic given a seed.
        let again = ds.split(0.8, 3);
        assert_eq!(split.train.labels(), again.train.labels());
        // Different seed gives a different ordering (almost surely).
        let other = ds.split(0.8, 4);
        assert_ne!(split.train.labels(), other.train.labels());
    }

    #[test]
    fn labels_cover_reference_points() {
        let ds = small_dataset();
        let labels = ds.labels();
        assert_eq!(labels.len(), ds.len());
        let max = labels.iter().max().copied().unwrap();
        assert!(max < ds.num_rps());
        let min = labels.iter().min().copied().unwrap();
        assert_eq!(min, 0);
    }

    #[test]
    fn extended_devices_can_form_their_own_dataset() {
        let building = building_1();
        let ds = FingerprintDataset::collect(
            &building,
            &extended_devices(),
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 2,
                seed: 5,
            },
        );
        assert_eq!(ds.devices().len(), 3);
        assert_eq!(ds.len(), 3 * building.reference_points().len());
    }

    #[test]
    fn from_observations_round_trip() {
        let ds = small_dataset();
        let rebuilt = FingerprintDataset::from_observations(
            ds.building(),
            ds.num_aps(),
            ds.num_rps(),
            ds.observations().to_vec(),
        );
        assert_eq!(rebuilt, ds);
    }
}
