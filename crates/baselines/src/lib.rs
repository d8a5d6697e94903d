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
//! # One protocol
//!
//! The comparison (§VI.C) means something only because every framework
//! runs one protocol, so the four network baselines state just what
//! differs, as a private `Framework` impl: *features → record → decide*.
//! Before any of it, the shared `localize` holds the batch to the input
//! contract: every observation has the [`vital::Localizer::num_aps`] the
//! framework was fitted on ([`vital::check_widths`]), so no network sees
//! a fingerprint of another access-point set.
//!
//! * **input**: a chunk's clean feature vectors as the `[rows, width]`
//!   matrix the network reads (ANVIL tokenises here: eight rows a query).
//! * **record**: the network's single `forward<T: nn::Trace>`, one output
//!   row per query: SHERPA's posterior, CNNLoc's logits, WiDeep's SAE
//!   code, ANVIL's `[embedding ‖ logits]` of one stacked forward.
//! * **decide**: that row and its query to a label: SHERPA's KNN
//!   refinement, argmax, WiDeep's kernel vote, ANVIL's centroid matching.
//!
//! One loop (`map_rows`) runs these over 64-observation chunks, generic
//! over the **runner** that evaluates the recording: `run_compiled` (every
//! `localize_batch`) as a fused plan cached per `(rows, weight stamp)`,
//! `run_eager` (every public `localize_batch_eager`, and the centroid and
//! code extraction in `fit`, which so builds no plan) op by op on an
//! eval-mode tape: the oracle `tests/compiled_parity.rs` holds the plans
//! to. `predict` is [`vital::Localizer`]'s provided batch of one, and
//! training is the other shared loop, [`nn::optim::minibatches`].
//!
//! # One matching stage
//!
//! KNN, SHERPA's refinement, WiDeep's kernel vote and ANVIL's centroids
//! all compare a query with a store of labelled vectors. The store is one
//! private type, `memory::Memory`, held feature-major so that one
//! dispatched kernel ([`simd::squared_distances`]) gives the distance to
//! every stored row, each bit-identical to the per-pair sum. A call's
//! queries share one distance buffer, and the vote's ties have a rule:
//! the label whose nearest neighbour comes first in (distance, row) order
//! wins.
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
#![warn(rust_2018_idioms)]

mod anvil;
mod cnnloc;
mod features;
mod knn;
mod memory;
mod sherpa;
mod wideep;

pub use anvil::AnvilLocalizer;
pub use cnnloc::CnnLocLocalizer;
pub use features::{hlf_transform, normalize_rssi, ssd_transform, FeatureExtractor, FeatureMode};
pub use knn::KnnLocalizer;
pub use sherpa::SherpaLocalizer;
pub use wideep::WiDeepLocalizer;

use autograd::Tape;
use fingerprint::FingerprintObservation;
use graph::{Graph, PlanCache};
use memory::Buffers;
use nn::{Layer, Session, Trace};
use tensor::Tensor;
use vital::Localizer;

/// What one network baseline adds to the protocol they all share (module
/// docs, "One protocol").
pub(crate) trait Framework: Localizer {
    /// The trained network [`Framework::record`] runs.
    type Net: Layer;

    /// The trained network and the extractor that feeds it, or
    /// [`vital::VitalError::NotFitted`] before [`Localizer::fit`].
    fn fitted(&self) -> vital::Result<(&Self::Net, &FeatureExtractor)>;

    /// *Input*: a chunk's clean feature vectors as the matrix the network
    /// reads; one row per query unless the framework says otherwise.
    fn input(_net: &Self::Net, features: &[Vec<f32>]) -> vital::Result<Tensor> {
        let width = features.first().map_or(0, Vec::len);
        Ok(features::rows_to_tensor(features, width)?)
    }

    /// *Record*: the network's one `forward` over that matrix, plus whatever
    /// follows it that is still arithmetic; one output row per query.
    fn record<T: Trace>(net: &Self::Net, t: &mut T, x: T::Node) -> Result<T::Node, T::Error>;

    /// *Decide*: one query's clean features and its output row to a label,
    /// in `buffers` that the queries of one call share.
    fn decide(&self, buffers: &mut Buffers, query: &[f32], output: &[f32]) -> vital::Result<usize>;
}

/// Runner: [`Framework::record`] over an input through the compiled plan
/// `cache` holds for `(input rows, weight stamp)`, recorded and compiled on
/// a miss.
pub(crate) fn run_compiled<F: Framework>(
    cache: &PlanCache,
) -> impl Fn(&F::Net, &Tensor) -> vital::Result<Tensor> + '_ {
    move |net, input| {
        let (rows, cols) = input.shape().as_matrix()?;
        let plan = cache.get_or_build(rows, nn::weight_stamp(&net.params()), || {
            let mut g = Graph::new();
            let x = g.input(rows, cols);
            let out = F::record(net, &mut g, x)?;
            Ok((g, out))
        })?;
        Ok(plan.execute(&[input])?)
    }
}

/// Runner: the same [`Framework::record`] op by op on an eval-mode tape,
/// the uncompiled reference the parity tests hold [`run_compiled`] to.
pub(crate) fn run_eager<F: Framework>(net: &F::Net, input: &Tensor) -> vital::Result<Tensor> {
    let tape = Tape::new();
    let mut session = Session::new(&tape, false, 0);
    let x = session.constant(input.clone());
    Ok(F::record(net, &mut session, x)?.value())
}

/// The one chunked inference loop: [`features::INFERENCE_CHUNK`]
/// observations at a time are extracted clean, shaped by
/// [`Framework::input`] and put through `run`, and `per_row` maps every
/// query and its output row to a result, in observation order.
pub(crate) fn map_rows<F: Framework, R>(
    net: &F::Net,
    extractor: &FeatureExtractor,
    observations: &[FingerprintObservation],
    run: impl Fn(&F::Net, &Tensor) -> vital::Result<Tensor>,
    mut per_row: impl FnMut(&[f32], &[f32]) -> vital::Result<R>,
) -> vital::Result<Vec<R>> {
    let mut results = Vec::with_capacity(observations.len());
    for chunk in observations.chunks(features::INFERENCE_CHUNK) {
        let queries = extractor.extract_clean_batch(chunk);
        let outputs = run(net, &F::input(net, &queries)?)?;
        let rows = outputs.as_slice().chunks_exact(outputs.cols()?);
        for (query, row) in queries.iter().zip(rows) {
            results.push(per_row(query, row)?);
        }
    }
    Ok(results)
}

/// [`Localizer::localize_batch`] of every network baseline: the input
/// contract ([`vital::check_widths`]), then [`map_rows`] over `run` with
/// [`Framework::decide`], every query deciding in one [`Buffers`].
pub(crate) fn localize<F: Framework>(
    framework: &F,
    observations: &[FingerprintObservation],
    run: impl Fn(&F::Net, &Tensor) -> vital::Result<Tensor>,
) -> vital::Result<Vec<usize>> {
    let (net, extractor) = framework.fitted()?;
    vital::check_widths(framework.num_aps(), observations)?;
    let mut buffers = Buffers::default();
    map_rows::<F, _>(net, extractor, observations, run, |q, row| {
        framework.decide(&mut buffers, q, row)
    })
}

/// Holds a layer-sizing `dims` entry of a checkpoint to the stored weight
/// it sizes (`stored`, a state-dict entry, along `axis`) before any
/// network is built from the entry: one flipped bit of the integer would
/// otherwise ask the allocator for terabytes and abort the process.
///
/// # Errors
/// [`vital::CheckpointError::Corrupt`] naming the entry when the stored
/// weight is missing or has another size.
pub(crate) fn check_stored_dim(
    entry: &str,
    value: usize,
    stored: Option<&(String, Tensor)>,
    axis: usize,
) -> vital::Result<()> {
    let found = stored.and_then(|(_, weight)| weight.shape().dims().get(axis).copied());
    if found == Some(value) {
        return Ok(());
    }
    Err(vital::CheckpointError::Corrupt(format!(
        "dims entry {entry} is {value}, but the stored weight it sizes has {found:?}"
    ))
    .into())
}

/// Index of the first maximum of `row` (the first strict `>` wins, as
/// `Tensor::argmax`), read in place.
///
/// # Errors
/// An empty row has no maximum.
pub(crate) fn argmax(row: &[f32]) -> vital::Result<usize> {
    let mut best = [0];
    tensor::kernels::argmax_rows(row, row.len(), &mut best)?;
    Ok(best[0])
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

    /// No plan reads an arena byte before it writes it in the same run: a
    /// VITAL folded plan and a SHERPA plan give the same bits on a fresh
    /// thread as on one whose arena still holds a larger plan's NaNs.
    #[test]
    fn stale_arena_bytes_never_reach_a_plan_output() {
        use tensor::rng::SeededRng;

        let mut config = vital::VitalConfig::fast(18, 8);
        config.image_size = 60;
        config.patch_size = 12;
        let vit = vital::VisionTransformer::new(&mut SeededRng::new(7), &config).unwrap();
        let folded = |samples| {
            let (g, out) = vit.build_folded_graph(samples).unwrap();
            graph::Compiler::new().compile(&g, out).unwrap()
        };
        let (small, large) = (folded(3), folded(32));
        let rows = |samples| [samples * vit.distinct_patches(), vit.distinct_dim()];
        let patches = SeededRng::new(1).uniform_tensor(&rows(3), -1.0, 1.0);
        let poison = Tensor::full(&rows(32), f32::NAN);
        let mlp = nn::Mlp::new(&mut SeededRng::new(8), &[18, 32, 8], nn::Activation::Relu);
        let features = SeededRng::new(2).uniform_tensor(&[5, 18], -1.0, 1.0);
        let cache = PlanCache::new();
        let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let run_both = || {
            let logits = small.execute(&[&patches]).unwrap();
            let posterior = run_compiled::<SherpaLocalizer>(&cache)(&mlp, &features).unwrap();
            (bits(logits), bits(posterior))
        };

        let fresh = std::thread::scope(|s| s.spawn(run_both).join().unwrap());
        let stale = std::thread::scope(|s| {
            s.spawn(|| {
                let nan = large.execute(&[&poison]).unwrap();
                assert!(nan.as_slice().iter().all(|v| v.is_nan()));
                run_both()
            })
            .join()
            .unwrap()
        });
        let sherpa = cache
            .get_or_build(5, nn::weight_stamp(&mlp.params()), || panic!("cached"))
            .unwrap();
        assert!(large.arena_bytes() > small.arena_bytes().max(sherpa.arena_bytes()));
        let number = |b: &u32| !f32::from_bits(*b).is_nan();
        assert!(fresh.0.iter().chain(&fresh.1).all(number));
        assert_eq!(fresh, stale);
    }
}
