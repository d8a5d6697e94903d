use rand::Rng;

use tensor::rng::standard_normal;

use crate::MISSING_AP_DBM;

/// The RF personality of one smartphone model.
///
/// The profile maps a device-independent ("truth") RSSI value into the value
/// that this particular phone would report, reproducing the heterogeneity
/// effects analysed in §III of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// Manufacturer (Table I/II column 1).
    pub manufacturer: String,
    /// Model (Table I/II column 2).
    pub model: String,
    /// Short acronym used in plots (Table I/II column 3).
    pub acronym: String,
    /// Release year (Table I/II column 4).
    pub release_year: u16,
    /// Constant RSSI offset in dB added by this transceiver/antenna.
    pub gain_offset_db: f32,
    /// Multiplicative skew applied to the signal relative to the
    /// [`DeviceProfile::PIVOT_DBM`] pivot: values ≠ 1.0 tilt the RSSI curve.
    pub gain_slope: f32,
    /// Sensitivity floor in dBm: truth RSSI below this is reported as a
    /// missing AP (−100 dB).
    pub sensitivity_dbm: f32,
    /// Probability of actually detecting an AP whose level is within the
    /// marginal zone just above the sensitivity floor.
    pub marginal_detection_prob: f64,
    /// Standard deviation of this device's measurement noise, in dB.
    pub noise_std_db: f32,
    /// Non-linear compression of weak signals: below
    /// [`DeviceProfile::COMPRESSION_KNEE_DBM`] the device under-reports by
    /// this fraction of the shortfall. Unlike a constant offset or linear
    /// slope, this effect is *not* removed by per-fingerprint normalisation,
    /// which is what keeps device heterogeneity a real problem for
    /// normalising frameworks (paper §III, "skews … are not fixed").
    pub weak_signal_compression: f32,
    /// Additional RSSI offset this device applies to 5 GHz access points
    /// relative to 2.4 GHz ones (antenna/band-dependent gain differences).
    pub band_offset_db: f32,
}

impl DeviceProfile {
    /// Pivot level (dBm) around which the gain slope tilts the response.
    pub const PIVOT_DBM: f32 = -55.0;
    /// Width of the marginal-detection zone above the sensitivity floor (dB).
    pub const MARGINAL_ZONE_DB: f32 = 8.0;
    /// Level (dBm) below which [`DeviceProfile::weak_signal_compression`]
    /// kicks in.
    pub const COMPRESSION_KNEE_DBM: f32 = -70.0;

    /// Creates a profile with explicit RF parameters.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        manufacturer: &str,
        model: &str,
        acronym: &str,
        release_year: u16,
        gain_offset_db: f32,
        gain_slope: f32,
        sensitivity_dbm: f32,
        noise_std_db: f32,
    ) -> Self {
        DeviceProfile {
            manufacturer: manufacturer.to_string(),
            model: model.to_string(),
            acronym: acronym.to_string(),
            release_year,
            gain_offset_db,
            gain_slope,
            sensitivity_dbm,
            marginal_detection_prob: 0.65,
            noise_std_db,
            weak_signal_compression: 0.0,
            band_offset_db: 0.0,
        }
    }

    /// Sets the non-linear weak-signal compression factor (builder style).
    pub fn with_compression(mut self, compression: f32) -> Self {
        self.weak_signal_compression = compression.max(0.0);
        self
    }

    /// Sets the 5 GHz band offset in dB (builder style).
    pub fn with_band_offset(mut self, offset_db: f32) -> Self {
        self.band_offset_db = offset_db;
        self
    }

    /// The value this device reports for a single measurement of a truth RSSI
    /// level, including gain skew, offset, band-dependent gain, non-linear
    /// weak-signal compression, measurement noise, the sensitivity floor and
    /// probabilistic misses in the marginal zone.
    ///
    /// `is_5ghz` selects whether the band offset applies (the capturing code
    /// passes the AP's band).
    pub fn observe<R: Rng>(&self, truth_dbm: f32, is_5ghz: bool, rng: &mut R) -> f32 {
        if truth_dbm <= MISSING_AP_DBM {
            return MISSING_AP_DBM;
        }
        // Device-specific affine response curve.
        let mut skewed =
            Self::PIVOT_DBM + self.gain_slope * (truth_dbm - Self::PIVOT_DBM) + self.gain_offset_db;
        // Band-dependent antenna gain.
        if is_5ghz {
            skewed += self.band_offset_db;
        }
        // Non-linear compression of weak signals (not removable by
        // per-fingerprint normalisation).
        if skewed < Self::COMPRESSION_KNEE_DBM {
            skewed -= self.weak_signal_compression * (Self::COMPRESSION_KNEE_DBM - skewed);
        }
        // Measurement noise.
        let noise = standard_normal(rng) * self.noise_std_db;
        let measured = skewed + noise;

        if measured < self.sensitivity_dbm {
            return MISSING_AP_DBM;
        }
        // Marginal zone: APs barely above the floor are detected only
        // sometimes — this produces the "missing APs" problem across devices.
        if measured < self.sensitivity_dbm + Self::MARGINAL_ZONE_DB
            && !rng.gen_bool(self.marginal_detection_prob)
        {
            return MISSING_AP_DBM;
        }
        measured.clamp(MISSING_AP_DBM, 0.0)
    }

    /// A short display label, e.g. `"HTC (U11, 2017)"`.
    pub fn label(&self) -> String {
        format!("{} ({}, {})", self.acronym, self.model, self.release_year)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn profile(offset: f32, slope: f32, sensitivity: f32, noise: f32) -> DeviceProfile {
        DeviceProfile::new(
            "Acme",
            "Phone",
            "ACME",
            2020,
            offset,
            slope,
            sensitivity,
            noise,
        )
    }

    #[test]
    fn missing_input_stays_missing() {
        let p = profile(5.0, 1.0, -95.0, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(p.observe(MISSING_AP_DBM, false, &mut rng), MISSING_AP_DBM);
    }

    #[test]
    fn offset_shifts_reported_value() {
        let hot = profile(6.0, 1.0, -99.0, 0.0);
        let cold = profile(-6.0, 1.0, -99.0, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let truth = -60.0;
        let h = hot.observe(truth, false, &mut rng);
        let c = cold.observe(truth, false, &mut rng);
        assert!((h - (truth + 6.0)).abs() < 1e-5);
        assert!((c - (truth - 6.0)).abs() < 1e-5);
    }

    #[test]
    fn slope_tilts_far_signals_more_than_near() {
        let steep = profile(0.0, 1.2, -99.0, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        // At the pivot, slope has no effect.
        assert!(
            (steep.observe(DeviceProfile::PIVOT_DBM, false, &mut rng) - DeviceProfile::PIVOT_DBM)
                .abs()
                < 1e-5
        );
        // Far below the pivot the reported value is pushed further down.
        let far = steep.observe(-85.0, false, &mut rng);
        assert!(far < -85.0);
    }

    #[test]
    fn weak_signals_fall_below_sensitivity() {
        let deaf = profile(0.0, 1.0, -80.0, 0.0);
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(deaf.observe(-92.0, false, &mut rng), MISSING_AP_DBM);
        assert!(deaf.observe(-60.0, false, &mut rng) > MISSING_AP_DBM);
    }

    #[test]
    fn marginal_zone_detection_is_probabilistic() {
        let p = profile(0.0, 1.0, -90.0, 0.0);
        let mut rng = StdRng::seed_from_u64(4);
        // Truth a couple of dB above the floor: sometimes seen, sometimes not.
        let observations: Vec<f32> = (0..200)
            .map(|_| p.observe(-86.0, false, &mut rng))
            .collect();
        let missing = observations
            .iter()
            .filter(|v| **v == MISSING_AP_DBM)
            .count();
        assert!(missing > 20 && missing < 180, "missing = {missing}");
    }

    #[test]
    fn noise_produces_spread_measurements() {
        let p = profile(0.0, 1.0, -99.0, 2.0);
        let mut rng = StdRng::seed_from_u64(5);
        let obs: Vec<f32> = (0..100)
            .map(|_| p.observe(-60.0, false, &mut rng))
            .collect();
        let mean = obs.iter().sum::<f32>() / obs.len() as f32;
        let var = obs.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / obs.len() as f32;
        assert!(var > 0.5, "variance {var}");
        assert!((mean + 60.0).abs() < 1.0);
    }

    #[test]
    fn label_contains_acronym_and_year() {
        let p = profile(0.0, 1.0, -90.0, 1.0);
        assert!(p.label().contains("ACME"));
        assert!(p.label().contains("2020"));
    }
}
