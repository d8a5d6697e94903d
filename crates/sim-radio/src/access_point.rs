use crate::Point;

/// A Wi-Fi access point (WAP) installed in a building.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPoint {
    /// Index of the AP within its building (also its channel index in
    /// fingerprint vectors).
    pub id: usize,
    /// MAC-style identifier, e.g. `"80:8d:b7:55:39:c1"`; purely cosmetic but
    /// mirrors how the paper refers to APs.
    pub mac: String,
    /// Mounting position in building coordinates (metres).
    pub position: Point,
    /// Transmit power in dBm (typical enterprise APs: 15–20 dBm).
    pub tx_power_dbm: f32,
    /// Carrier frequency in MHz (2 400 or 5 000 class).
    pub frequency_mhz: f32,
}

impl AccessPoint {
    /// Creates an AP with a synthetic MAC derived from `building_code` and `id`.
    pub fn new(building_code: u8, id: usize, position: Point, tx_power_dbm: f32) -> Self {
        AccessPoint {
            id,
            mac: format!(
                "80:8d:b7:{building_code:02x}:{:02x}:{:02x}",
                (id >> 8) & 0xff,
                id & 0xff
            ),
            position,
            tx_power_dbm,
            frequency_mhz: if id.is_multiple_of(3) { 5180.0 } else { 2437.0 },
        }
    }

    /// Returns `true` for APs radiating in the 5 GHz band.
    pub fn is_5ghz(&self) -> bool {
        self.frequency_mhz > 3000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_format_and_band() {
        let ap = AccessPoint::new(0x55, 3, Point::new(1.0, 2.0), 18.0);
        assert!(ap.mac.starts_with("80:8d:b7:55:"));
        assert_eq!(ap.id, 3);
        assert!(ap.is_5ghz());
        let ap2 = AccessPoint::new(0x55, 4, Point::new(0.0, 0.0), 18.0);
        assert!(!ap2.is_5ghz());
    }

    #[test]
    fn distinct_ids_give_distinct_macs() {
        let a = AccessPoint::new(1, 10, Point::new(0.0, 0.0), 15.0);
        let b = AccessPoint::new(1, 11, Point::new(0.0, 0.0), 15.0);
        assert_ne!(a.mac, b.mac);
    }
}
