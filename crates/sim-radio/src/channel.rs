use rand::Rng;
use tensor::rng::standard_normal;

use crate::{Building, Point, RSSI_CEILING_DBM, RSSI_FLOOR_DBM};

/// The radio channel of one building: computes RSSI values seen at arbitrary
/// positions, combining path loss, wall attenuation, position-locked
/// shadowing and (optionally) per-measurement temporal fading.
///
/// Shadowing is derived from a hash of the (AP, position) pair so that the
/// same location always experiences the same medium-scale fading — this
/// location-specific signature is exactly what fingerprinting exploits.
#[derive(Debug, Clone)]
pub struct Channel<'b> {
    building: &'b Building,
    seed: u64,
}

impl<'b> Channel<'b> {
    /// Creates a channel over `building` with a deterministic shadowing seed.
    pub fn new(building: &'b Building, seed: u64) -> Self {
        Channel { building, seed }
    }

    /// The building this channel models.
    pub fn building(&self) -> &Building {
        self.building
    }

    fn shadowing_db(&self, ap_index: usize, at: Point) -> f32 {
        // Quantise the position to a 0.25 m grid so nearby queries share the
        // same shadowing realisation, then hash (seed, ap, cell) into a
        // standard normal via SplitMix64 + Box–Muller.
        let qx = (at.x * 4.0).round() as i64;
        let qy = (at.y * 4.0).round() as i64;
        let mut h = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(ap_index as u64)
            .wrapping_add((qx as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add((qy as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
        let mut next = || {
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        let u1 = next().max(f64::EPSILON);
        let u2 = next();
        let std_normal = ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32;
        std_normal * self.building.path_loss().shadowing_std_db
    }

    /// The device-independent mean RSSI (dBm) of AP `ap_index` at `at`:
    /// transmit power minus path loss, wall attenuation and position-locked
    /// shadowing, clamped into `[RSSI_FLOOR_DBM, RSSI_CEILING_DBM]`.
    ///
    /// # Panics
    /// Panics if `ap_index` is out of range for the building.
    pub fn mean_rssi(&self, ap_index: usize, at: Point) -> f32 {
        let ap = &self.building.access_points()[ap_index];
        let distance = ap.position.distance(&at);
        let mut rssi = ap.tx_power_dbm
            - self.building.path_loss().path_loss_db(distance)
            - self.building.wall_attenuation_db(ap.position, at)
            + self.shadowing_db(ap_index, at);
        // 5 GHz links lose a few extra dB of free-space loss.
        if ap.is_5ghz() {
            rssi -= 6.0;
        }
        rssi.clamp(RSSI_FLOOR_DBM, RSSI_CEILING_DBM)
    }

    /// One measured sample of AP `ap_index` at `at`: the mean RSSI plus
    /// small-scale temporal fading drawn from `rng`.
    ///
    /// # Panics
    /// Panics if `ap_index` is out of range for the building.
    pub fn sample_rssi<R: Rng>(&self, ap_index: usize, at: Point, rng: &mut R) -> f32 {
        let mean = self.mean_rssi(ap_index, at);
        if mean <= RSSI_FLOOR_DBM {
            return RSSI_FLOOR_DBM;
        }
        let std = self.building.path_loss().fading_std_db;
        let fading = standard_normal(rng) * std;
        (mean + fading).clamp(RSSI_FLOOR_DBM, RSSI_CEILING_DBM)
    }

    /// A full device-independent fingerprint sample at `at`: one RSSI value
    /// per AP, in AP index order.
    pub fn sample_fingerprint<R: Rng>(&self, at: Point, rng: &mut R) -> Vec<f32> {
        (0..self.building.access_points().len())
            .map(|ap| self.sample_rssi(ap, at, rng))
            .collect()
    }

    /// The device-independent mean fingerprint at `at` (no temporal fading).
    pub fn mean_fingerprint(&self, at: Point) -> Vec<f32> {
        (0..self.building.access_points().len())
            .map(|ap| self.mean_rssi(ap, at))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AccessPoint, Material};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn building() -> Building {
        Building::builder("chan-test")
            .wall(
                Point::new(10.0, -3.0),
                Point::new(10.0, 3.0),
                Material::Concrete,
            )
            .access_point(AccessPoint::new(1, 0, Point::new(0.0, 0.0), 18.0))
            .access_point(AccessPoint::new(1, 1, Point::new(20.0, 0.0), 18.0))
            .survey_path(&[Point::new(0.0, 0.0), Point::new(20.0, 0.0)], 1.0)
            .build()
    }

    #[test]
    fn rssi_is_in_paper_range() {
        let b = building();
        let channel = Channel::new(&b, 1);
        for rp in b.reference_points() {
            for ap in 0..b.access_points().len() {
                let rssi = channel.mean_rssi(ap, rp.position);
                assert!((RSSI_FLOOR_DBM..=RSSI_CEILING_DBM).contains(&rssi));
            }
        }
    }

    #[test]
    fn rssi_decays_with_distance_on_average() {
        let b = building();
        let channel = Channel::new(&b, 2);
        // Average over several nearby cells to smooth out shadowing.
        let avg = |x: f32| -> f32 {
            (0..8)
                .map(|i| channel.mean_rssi(0, Point::new(x, i as f32 * 0.3)))
                .sum::<f32>()
                / 8.0
        };
        assert!(avg(2.0) > avg(8.0));
    }

    #[test]
    fn shadowing_is_deterministic_per_location() {
        let b = building();
        let channel = Channel::new(&b, 3);
        let p = Point::new(5.0, 0.5);
        assert_eq!(channel.mean_rssi(0, p), channel.mean_rssi(0, p));
        // A different seed produces a different shadowing field.
        let other = Channel::new(&b, 4);
        assert_ne!(channel.mean_rssi(0, p), other.mean_rssi(0, p));
    }

    #[test]
    fn temporal_fading_varies_but_stays_close_to_mean() {
        let b = building();
        let channel = Channel::new(&b, 5);
        let p = Point::new(3.0, 0.0);
        let mean = channel.mean_rssi(0, p);
        let mut rng = StdRng::seed_from_u64(9);
        let samples: Vec<f32> = (0..64)
            .map(|_| channel.sample_rssi(0, p, &mut rng))
            .collect();
        let sample_mean = samples.iter().sum::<f32>() / samples.len() as f32;
        assert!((sample_mean - mean).abs() < 1.5);
        let distinct = samples.windows(2).any(|w| w[0] != w[1]);
        assert!(distinct, "temporal fading should vary across samples");
    }

    #[test]
    fn fingerprint_has_one_entry_per_ap() {
        let b = building();
        let channel = Channel::new(&b, 6);
        let mut rng = StdRng::seed_from_u64(1);
        let fp = channel.sample_fingerprint(Point::new(1.0, 0.0), &mut rng);
        assert_eq!(fp.len(), b.access_points().len());
        let mean_fp = channel.mean_fingerprint(Point::new(1.0, 0.0));
        assert_eq!(mean_fp.len(), b.access_points().len());
    }

    #[test]
    fn wall_reduces_signal() {
        // AP1 sits at x=20 behind a concrete wall at x=10 as seen from x=0..9.
        let b = building();
        let channel = Channel::new(&b, 7);
        // Compare attenuation: the same geometry without the wall.
        let open = Building::builder("open")
            .access_point(AccessPoint::new(1, 0, Point::new(0.0, 0.0), 18.0))
            .access_point(AccessPoint::new(1, 1, Point::new(20.0, 0.0), 18.0))
            .survey_path(&[Point::new(0.0, 0.0), Point::new(20.0, 0.0)], 1.0)
            .build();
        let open_channel = Channel::new(&open, 7);
        let p = Point::new(2.0, 0.0);
        // Same seed => same shadowing realisation; only the wall differs.
        let with_wall = channel.mean_rssi(1, p);
        let without_wall = open_channel.mean_rssi(1, p);
        assert!(with_wall <= without_wall);
    }
}
