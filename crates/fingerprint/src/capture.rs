use rand::Rng;

use sim_radio::{Channel, ReferencePoint};

use crate::{DeviceProfile, MISSING_AP_DBM};

/// One captured fingerprint observation: the min / max / mean over a burst of
/// RSSI samples taken by one device at one reference point.
///
/// The paper captures five samples per RP and reduces them to these three
/// statistics, which become the three channels of each AP "pixel" in the
/// VITAL RSSI image.
#[derive(Debug, Clone, PartialEq)]
pub struct FingerprintObservation {
    /// Reference-point label (classification target).
    pub rp_label: usize,
    /// Acronym of the device that captured the observation.
    pub device: String,
    /// Per-AP minimum RSSI over the burst.
    pub min: Vec<f32>,
    /// Per-AP maximum RSSI over the burst.
    pub max: Vec<f32>,
    /// Per-AP mean RSSI over the burst.
    pub mean: Vec<f32>,
}

impl FingerprintObservation {
    /// Number of access points covered by this observation.
    pub fn num_aps(&self) -> usize {
        self.mean.len()
    }

    /// Just the mean channel (used by baselines that consume plain RSSI
    /// vectors).
    pub fn mean_channel(&self) -> &[f32] {
        &self.mean
    }

    /// Fraction of APs reported as missing (−100 dB) in the mean channel.
    pub fn missing_fraction(&self) -> f32 {
        if self.mean.is_empty() {
            return 0.0;
        }
        let missing = self
            .mean
            .iter()
            .filter(|v| **v <= MISSING_AP_DBM + 1e-6)
            .count();
        missing as f32 / self.mean.len() as f32
    }
}

/// Captures one observation: `samples` RSSI bursts by `device` at reference
/// point `rp` of the building behind `channel`, reduced to min/max/mean.
pub fn capture_observation<R: Rng>(
    channel: &Channel<'_>,
    device: &DeviceProfile,
    rp: &ReferencePoint,
    samples: usize,
    rng: &mut R,
) -> FingerprintObservation {
    let access_points = channel.building().access_points();
    let num_aps = access_points.len();
    let samples = samples.max(1);
    let mut min = vec![f32::MAX; num_aps];
    let mut max = vec![f32::MIN; num_aps];
    let mut sum = vec![0.0f32; num_aps];
    for _ in 0..samples {
        let truth = channel.sample_fingerprint(rp.position, rng);
        for (ap, &t) in truth.iter().enumerate() {
            let observed = device.observe(t, access_points[ap].is_5ghz(), rng);
            min[ap] = min[ap].min(observed);
            max[ap] = max[ap].max(observed);
            sum[ap] += observed;
        }
    }
    let mean: Vec<f32> = sum.iter().map(|s| s / samples as f32).collect();
    FingerprintObservation {
        rp_label: rp.id,
        device: device.acronym.clone(),
        min,
        max,
        mean,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base_devices;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sim_radio::building_1;

    #[test]
    fn observation_has_consistent_channels() {
        let building = building_1();
        let channel = Channel::new(&building, 1);
        let device = &base_devices()[0];
        let mut rng = StdRng::seed_from_u64(0);
        let rp = &building.reference_points()[5];
        let obs = capture_observation(&channel, device, rp, 5, &mut rng);
        assert_eq!(obs.num_aps(), building.access_points().len());
        assert_eq!(obs.rp_label, 5);
        assert_eq!(obs.device, "BLU");
        for ap in 0..obs.num_aps() {
            assert!(obs.min[ap] <= obs.mean[ap] + 1e-5);
            assert!(obs.mean[ap] <= obs.max[ap] + 1e-5);
            assert!(obs.min[ap] >= MISSING_AP_DBM);
            assert!(obs.max[ap] <= 0.0);
        }
    }

    #[test]
    fn mean_channel_and_missing_fraction() {
        let obs = FingerprintObservation {
            rp_label: 0,
            device: "X".into(),
            min: vec![-90.0, -80.0],
            max: vec![-85.0, -75.0],
            mean: vec![-87.0, -77.0],
        };
        assert_eq!(obs.mean_channel(), &[-87.0, -77.0]);
        assert_eq!(obs.missing_fraction(), 0.0);
    }

    #[test]
    fn different_devices_see_different_fingerprints_at_same_location() {
        let building = building_1();
        let channel = Channel::new(&building, 2);
        let devices = base_devices();
        let rp = &building.reference_points()[10];
        let mut rng = StdRng::seed_from_u64(3);
        let a = capture_observation(&channel, &devices[1], rp, 5, &mut rng); // HTC
        let b = capture_observation(&channel, &devices[5], rp, 5, &mut rng); // OP3

        // Mean absolute difference across APs should be clearly non-zero
        // (device heterogeneity), driven by the ~9 dB offset gap.
        let diff: f32 = a
            .mean
            .iter()
            .zip(&b.mean)
            .map(|(x, y)| (x - y).abs())
            .sum::<f32>()
            / a.mean.len() as f32;
        assert!(diff > 2.0, "devices look identical: mean |Δ| = {diff}");
    }

    #[test]
    fn missing_ap_problem_exists_across_devices() {
        // At least one (RP, AP) pair should be visible on one device but
        // missing on another — the "missing APs" problem from §III.
        let building = building_1();
        let channel = Channel::new(&building, 4);
        let devices = base_devices();
        let sensitive = &devices[1]; // HTC, floor -94
        let deaf = &devices[4]; // MOTO, floor -86
        let mut rng = StdRng::seed_from_u64(5);
        let mut found = false;
        for rp in building.reference_points().iter().step_by(7) {
            let a = capture_observation(&channel, sensitive, rp, 5, &mut rng);
            let b = capture_observation(&channel, deaf, rp, 5, &mut rng);
            for ap in 0..a.num_aps() {
                if a.mean[ap] > MISSING_AP_DBM + 1.0 && b.mean[ap] <= MISSING_AP_DBM + 1e-6 {
                    found = true;
                }
            }
        }
        assert!(found, "no missing-AP discrepancy found between devices");
    }

    #[test]
    fn zero_samples_is_clamped_to_one() {
        let building = building_1();
        let channel = Channel::new(&building, 6);
        let device = &base_devices()[0];
        let mut rng = StdRng::seed_from_u64(7);
        let rp = &building.reference_points()[0];
        let obs = capture_observation(&channel, device, rp, 0, &mut rng);
        assert_eq!(obs.num_aps(), building.access_points().len());
        // With a single sample min == max == mean.
        for ap in 0..obs.num_aps() {
            assert_eq!(obs.min[ap], obs.max[ap]);
            assert_eq!(obs.min[ap], obs.mean[ap]);
        }
    }
}
