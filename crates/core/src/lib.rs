//! VITAL: Vision Transformer neural networks for accurate, smartphone
//! heterogeneity resilient indoor localization.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Gufran, Tiku, Pasricha — DAC 2023): a Wi-Fi RSSI fingerprinting indoor
//! localization framework built around
//!
//! 1. an **RSSI image creator** that turns the 3-channel (min/max/mean)
//!    fingerprint vector into a 1-D multi-channel image ([`RssiImageCreator`]),
//! 2. a **Data Augmentation Module (DAM)** — normalisation, fingerprint
//!    replication, random AP dropout and Gaussian infill noise
//!    ([`DataAugmentationModule`]). The replicated `R × R` image is the
//!    paper's picture; the code never builds it:
//!    [`DataAugmentationModule::write_patches`] takes an observation's 1-D
//!    image to the transformer's patch matrix in one pass, filling a
//!    training batch and a compiled plan's input alike, and
//! 3. a compact **vision transformer** with multi-head self-attention and a
//!    fine-tuning MLP head that classifies the reference point
//!    ([`VisionTransformer`], [`VitalModel`]).
//!
//! The [`Localizer`] trait defined here is also implemented by every
//! comparison framework in the `baselines` crate, so the benchmark harness
//! can evaluate all of them identically.
//!
//! # Quick start
//!
//! ```no_run
//! use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
//! use sim_radio::building_1;
//! use vital::{Localizer, VitalConfig, VitalModel};
//!
//! # fn main() -> Result<(), vital::VitalError> {
//! let building = building_1();
//! let dataset = FingerprintDataset::collect(
//!     &building,
//!     &base_devices(),
//!     &DatasetConfig::default(),
//! );
//! let split = dataset.split(0.8, 42);
//! let mut model = VitalModel::new(VitalConfig::fast(building.access_points().len(),
//!                                                   building.reference_points().len()))?;
//! model.fit(&split.train)?;
//! let report = vital::evaluate_localizer(&model, &split.test, &building)?;
//! println!("mean error {:.2} m", report.mean_error_m());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod checkpoint;
mod config;
mod dam;
mod error;
mod image;
mod localizer;
mod metrics;
mod model;
mod vit;

pub use checkpoint::{
    Checkpoint, CheckpointError, ModelKind, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
};
pub use config::{DamConfig, TrainConfig, VitalConfig};
pub use dam::DataAugmentationModule;
pub use error::VitalError;
pub use image::RssiImageCreator;
pub use localizer::{check_widths, evaluate_localizer, Localizer};
pub use metrics::LocalizationReport;
pub use model::{TrainingReport, VitalModel};
pub use vit::{EncoderBlock, VisionTransformer};

/// Convenience alias for results returned by this crate.
pub type Result<T> = std::result::Result<T, VitalError>;
