//! State-of-the-art heterogeneity-resilient indoor-localization baselines.
//!
//! The VITAL paper compares against four deep-learning frameworks
//! (§II, §VI.C) plus the classical calibration-free approaches mentioned in
//! related work. Each is re-implemented here on the same substrates
//! ([`nn`], [`fingerprint`]) and behind the same [`vital::Localizer`]
//! interface so the benchmark harness can evaluate them identically, with or
//! without the DAM augmentation bolted on (paper §VI.D, Fig. 9):
//!
//! | Framework | Paper ref | Architecture reproduced |
//! |-----------|-----------|--------------------------|
//! | [`AnvilLocalizer`]  | \[19\] | multi-head attention encoder + Euclidean-distance matching over per-RP embedding centroids |
//! | [`SherpaLocalizer`] | \[20\] | DNN classifier whose top-K candidate RPs are refined by weighted KNN |
//! | [`CnnLocLocalizer`] | \[21\] | stacked autoencoder pre-training + 1-D CNN classifier |
//! | [`WiDeepLocalizer`] | \[22\] | denoising stacked autoencoder + Gaussian-kernel (GP-style) classifier |
//! | [`KnnLocalizer`]    | \[18\]/classical | plain, SSD or HLF (hyperbolic) fingerprint KNN |
//!
//! # Example
//!
//! ```no_run
//! use baselines::{KnnLocalizer, FeatureMode};
//! use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
//! use sim_radio::building_1;
//! use vital::{evaluate_localizer, Localizer};
//!
//! # fn main() -> Result<(), vital::VitalError> {
//! let building = building_1();
//! let data = FingerprintDataset::collect(&building, &base_devices(), &DatasetConfig::default());
//! let split = data.split(0.8, 7);
//! let mut knn = KnnLocalizer::new(5, FeatureMode::Ssd);
//! knn.fit(&split.train)?;
//! let report = evaluate_localizer(&knn, &split.test, &building)?;
//! println!("{}: {:.2} m", knn.name(), report.mean_error_m());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(clippy::disallowed_types)]
#![warn(rust_2018_idioms)]

mod anvil;
mod cnnloc;
mod features;
mod knn;
mod sherpa;
mod wideep;

pub use anvil::AnvilLocalizer;
pub use cnnloc::CnnLocLocalizer;
pub use features::{hlf_transform, normalize_rssi, ssd_transform, FeatureExtractor, FeatureMode};
pub use knn::KnnLocalizer;
pub use sherpa::SherpaLocalizer;
pub use wideep::WiDeepLocalizer;

use autograd::{Tape, Var};
use graph::{ExprId, Graph, GraphError, PlanCache};
use nn::{Param, Session};
use tensor::Tensor;
use vital::Localizer;

/// Runs `record` — a network's one `forward`, plus whatever surrounds it
/// that is not part of the network — over `input` through the compiled plan
/// cached for `(input rows, weight stamp of params)`, recording and
/// compiling it on a miss.
pub(crate) fn run_compiled(
    cache: &PlanCache,
    params: &[Param],
    input: &Tensor,
    record: impl FnOnce(&mut Graph, ExprId) -> Result<ExprId, GraphError>,
) -> vital::Result<Tensor> {
    let (rows, cols) = input.shape().as_matrix()?;
    let entry = cache.get_or_build(rows, nn::weight_stamp(params), || {
        let mut g = Graph::new();
        let x = g.input(rows, cols);
        let out = record(&mut g, x)?;
        Ok((g, out))
    })?;
    Ok(entry.execute(&[input])?)
}

/// Evaluates the same `record` op by op on an eval-mode tape: the
/// uncompiled reference the parity tests hold [`run_compiled`] to.
pub(crate) fn run_eager(
    input: &Tensor,
    record: impl for<'t> FnOnce(&mut Session<'t>, Var<'t>) -> nn::Result<Var<'t>>,
) -> vital::Result<Tensor> {
    let tape = Tape::new();
    let mut session = Session::new(&tape, false, 0);
    let x = session.constant(input.clone());
    Ok(record(&mut session, x)?.value())
}

/// Builds the full comparison suite of the paper's Fig. 7/8/10 —
/// ANVIL, SHERPA, CNNLoc and WiDeep — each optionally with DAM enabled.
///
/// `seed` controls weight initialisation; `with_dam` bolts the VITAL Data
/// Augmentation Module onto every framework (paper §VI.D).
pub fn comparison_suite(with_dam: bool, seed: u64) -> Vec<Box<dyn Localizer>> {
    let dam = if with_dam {
        Some(vital::DamConfig::default())
    } else {
        None
    };
    vec![
        Box::new(AnvilLocalizer::new(seed).with_dam(dam)),
        Box::new(SherpaLocalizer::new(seed).with_dam(dam)),
        Box::new(CnnLocLocalizer::new(seed).with_dam(dam)),
        Box::new(WiDeepLocalizer::new(seed).with_dam(dam)),
    ]
}

/// Loads *any* saved localizer — VITAL or one of the five baselines — from a
/// checkpoint file, dispatching on the envelope's [`vital::ModelKind`].
///
/// This is the counterpart of [`vital::Localizer::save`] for callers that do
/// not know the concrete model type in advance (e.g. the bench harness's
/// `--checkpoint-dir` path).
///
/// # Errors
/// Returns typed checkpoint errors for missing/corrupt files, format-version
/// mismatches and weight-shape drift.
pub fn load_localizer(path: &std::path::Path) -> vital::Result<Box<dyn Localizer>> {
    let ckpt = vital::Checkpoint::read_from(path)?;
    localizer_from_checkpoint(&ckpt)
}

/// Materializes a localizer of any kind from an already-parsed checkpoint
/// envelope — the in-memory counterpart of [`load_localizer`] for callers
/// that read the file themselves (e.g. the serve crate's model registry,
/// which scans a directory once for both catalog and weights).
///
/// # Errors
/// Typed checkpoint errors for kind mismatches and weight-shape drift.
pub fn localizer_from_checkpoint(ckpt: &vital::Checkpoint) -> vital::Result<Box<dyn Localizer>> {
    Ok(match ckpt.kind() {
        vital::ModelKind::Vital => Box::new(vital::VitalModel::from_checkpoint(ckpt)?),
        vital::ModelKind::Knn => Box::new(KnnLocalizer::from_checkpoint(ckpt)?),
        vital::ModelKind::Sherpa => Box::new(SherpaLocalizer::from_checkpoint(ckpt)?),
        vital::ModelKind::CnnLoc => Box::new(CnnLocLocalizer::from_checkpoint(ckpt)?),
        vital::ModelKind::WiDeep => Box::new(WiDeepLocalizer::from_checkpoint(ckpt)?),
        vital::ModelKind::Anvil => Box::new(AnvilLocalizer::from_checkpoint(ckpt)?),
    })
}

/// Compile-time proof that every localizer is thread-safe ([`Localizer`]'s
/// `Send + Sync` supertrait guarantees it for trait objects; these
/// instantiations pin the concrete types too, including [`vital::VitalModel`],
/// so a regression names the offending model in the build error).
#[allow(dead_code)]
fn _assert_localizers_are_send_sync() {
    fn assert<T: Send + Sync>() {}
    assert::<vital::VitalModel>();
    assert::<AnvilLocalizer>();
    assert::<SherpaLocalizer>();
    assert::<CnnLocLocalizer>();
    assert::<WiDeepLocalizer>();
    assert::<KnnLocalizer>();
    assert::<Box<dyn Localizer>>();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_suite_contains_the_four_frameworks() {
        let suite = comparison_suite(false, 0);
        let names: Vec<&str> = suite.iter().map(|l| l.name()).collect();
        assert_eq!(names, vec!["ANVIL", "SHERPA", "CNNLoc", "WiDeep"]);
        let with_dam = comparison_suite(true, 0);
        assert_eq!(with_dam.len(), 4);
    }
}
