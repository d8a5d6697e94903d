//! Indoor RF propagation substrate for the VITAL reproduction.
//!
//! The original paper collects Wi-Fi RSSI fingerprints by walking four real
//! university buildings with nine different smartphones. That data is not
//! available, so this crate provides the closest synthetic equivalent: a
//! deterministic indoor radio-propagation simulator producing *device
//! independent* ("truth") RSSI values at any point of a building. Device
//! heterogeneity (the phenomenon VITAL addresses) is layered on top by the
//! `fingerprint` crate.
//!
//! The propagation model combines:
//!
//! * **log-distance path loss** with a configurable exponent,
//! * **wall attenuation** per wall segment crossed (material dependent),
//! * **log-normal shadowing** that is *fixed per (AP, location) pair* — the
//!   same position always sees the same medium-scale fading, which is what
//!   makes fingerprinting possible in the first place, and
//! * **small-scale temporal fading** re-drawn per measurement.
//!
//! The four benchmark buildings of the paper (Fig. 4: path lengths 62–88 m,
//! different AP densities and wall materials) are reproduced by
//! [`benchmark_buildings`].
//!
//! # Example
//!
//! ```
//! use sim_radio::{benchmark_buildings, Channel};
//!
//! let buildings = benchmark_buildings();
//! assert_eq!(buildings.len(), 4);
//! let channel = Channel::new(&buildings[0], 42);
//! let rp = &buildings[0].reference_points()[0];
//! let rssi = channel.mean_rssi(0, rp.position);
//! assert!(rssi >= -100.0 && rssi <= 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod access_point;
mod building;
mod channel;
mod geometry;
mod material;
mod path_loss;
mod presets;

pub use access_point::AccessPoint;
pub use building::{Building, BuildingBuilder, ReferencePoint};
pub use channel::Channel;
pub use geometry::{Point, Segment};
pub use material::Material;
pub use path_loss::PathLossModel;
pub use presets::{benchmark_buildings, building_1, building_2, building_3, building_4};

/// RSSI floor: an access point weaker than this is reported as not visible.
/// Matches the paper's convention of −100 dB meaning "no visibility".
pub const RSSI_FLOOR_DBM: f32 = -100.0;

/// Upper bound on reported RSSI (0 dB is the strongest signal in the paper's
/// convention).
pub const RSSI_CEILING_DBM: f32 = 0.0;
