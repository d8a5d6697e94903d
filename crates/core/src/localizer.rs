//! The common interface every localization framework implements, plus the
//! shared evaluation loop that converts RP misclassifications into metres.

use std::path::Path;

use fingerprint::{FingerprintDataset, FingerprintObservation};
use sim_radio::Building;

use crate::{CheckpointError, LocalizationReport, Result, VitalError};

/// A fingerprinting indoor-localization framework.
///
/// Implemented by [`crate::VitalModel`] and by every comparison framework in
/// the `baselines` crate (ANVIL, SHERPA, CNNLoc, WiDeep, KNN/SSD/HLF), so the
/// experiment harness can train and evaluate them uniformly.
///
/// `Send + Sync` is a supertrait: every localizer must be shareable across
/// threads, which is what lets the serve layer run one set of weights on N
/// concurrent dispatch workers. A model that regresses to single-threaded
/// interior mutability (`Rc`/`RefCell`) stops compiling at its `impl` site
/// rather than deep inside the server.
///
/// # The input contract
///
/// A model is fitted on one building's access-point set, and the phone may
/// vary but that set does not: every observation must carry exactly
/// [`Localizer::num_aps`] access points. [`check_widths`] is the one check
/// of it. Every `localize_batch` runs it before any feature is extracted,
/// and the server runs it before a request is queued, so a batch never
/// holds an observation its model would refuse.
pub trait Localizer: Send + Sync {
    /// Human-readable framework name (used in result tables).
    fn name(&self) -> &str;

    /// The access-point count every observation must have: the width of
    /// the survey the model was fitted on (or, for VITAL, configured
    /// for). Zero before [`Localizer::fit`] for a framework that learns it
    /// from the training set.
    fn num_aps(&self) -> usize;

    /// Trains the framework on a labelled fingerprint dataset.
    ///
    /// # Errors
    /// Returns an error if the dataset is empty or inconsistent with the
    /// framework's configuration.
    fn fit(&mut self, train: &FingerprintDataset) -> Result<()>;

    /// Predicts reference-point labels for a batch of observations, in input
    /// order: the one inference entry point a framework implements, and the
    /// one the evaluation harness and the server go through. Network models
    /// stack chunks of the batch into one forward pass each; feature-space
    /// matchers fan the queries out across threads.
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] if called before [`Localizer::fit`],
    /// [`VitalError::InvalidDataset`] if an observation breaks the input
    /// contract ([`check_widths`]), or the first per-observation error
    /// encountered.
    fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>>;

    /// Predicts the reference-point label of a single observation: a batch
    /// of one, so single and batched inference cannot disagree.
    ///
    /// # Errors
    /// Whatever [`Localizer::localize_batch`] returns.
    fn predict(&self, observation: &FingerprintObservation) -> Result<usize> {
        let batch = self.localize_batch(std::slice::from_ref(observation))?;
        batch.first().copied().ok_or_else(|| {
            VitalError::InvalidDataset("localize_batch returned no prediction".into())
        })
    }

    /// Persists the trained model as a versioned checkpoint file.
    ///
    /// Implemented by VITAL and every baseline framework; a model restored
    /// with [`Localizer::load`] produces bit-identical predictions to the
    /// saved one. The default implementation reports that the framework
    /// does not support persistence.
    ///
    /// # Errors
    /// Returns [`VitalError::NotFitted`] when the model has not been
    /// trained, or a [`crate::CheckpointError`] on serialization/IO
    /// failures.
    fn save(&self, path: &Path) -> Result<()> {
        let _ = path;
        Err(CheckpointError::Unsupported {
            model: self.name().to_string(),
        }
        .into())
    }

    /// Restores a model from a checkpoint written by [`Localizer::save`].
    ///
    /// Only available on concrete localizer types (`Self: Sized`); to load
    /// a checkpoint of unknown kind as a `Box<dyn Localizer>`, use the
    /// kind-dispatching loader in the `baselines` crate.
    ///
    /// # Errors
    /// Returns a [`crate::CheckpointError`] on missing/corrupt files,
    /// format-version or model-kind mismatches, and a tensor error on
    /// weight-shape mismatches.
    fn load(path: &Path) -> Result<Self>
    where
        Self: Sized,
    {
        let _ = path;
        Err(CheckpointError::Unsupported {
            model: std::any::type_name::<Self>().to_string(),
        }
        .into())
    }
}

/// Holds `observations` to the input contract of a model of `num_aps`
/// access points (see [`Localizer`]).
///
/// # Errors
/// [`VitalError::InvalidDataset`] naming the first observation of another
/// access-point count, its count and the expected one.
pub fn check_widths(num_aps: usize, observations: &[FingerprintObservation]) -> Result<()> {
    match observations
        .iter()
        .position(|observation| observation.num_aps() != num_aps)
    {
        None => Ok(()),
        Some(i) => Err(VitalError::InvalidDataset(format!(
            "observation {i} has {} access points, the model expects {num_aps}",
            observations[i].num_aps()
        ))),
    }
}

/// Evaluates a trained localizer on a test dataset, reporting localization
/// errors in metres.
///
/// A prediction of RP `p` for a sample captured at RP `t` contributes the
/// physical distance between the two reference points — the same conversion
/// the paper uses to report mean/min/max errors in metres.
///
/// # Errors
/// Returns an error if the test set is empty, a prediction fails, or a
/// predicted label does not exist in the building.
pub fn evaluate_localizer(
    localizer: &dyn Localizer,
    test: &FingerprintDataset,
    building: &Building,
) -> Result<LocalizationReport> {
    if test.is_empty() {
        return Err(VitalError::InvalidDataset(
            "cannot evaluate on an empty test set".into(),
        ));
    }
    let predictions = localizer.localize_batch(test.observations())?;
    if predictions.len() != test.len() {
        return Err(VitalError::InvalidDataset(format!(
            "localize_batch returned {} predictions for {} observations",
            predictions.len(),
            test.len()
        )));
    }
    let mut errors = Vec::with_capacity(test.len());
    for (observation, predicted) in test.observations().iter().zip(predictions) {
        let error = building
            .rp_distance_m(predicted, observation.rp_label)
            .ok_or_else(|| {
                VitalError::InvalidDataset(format!(
                    "predicted RP {predicted} or true RP {} not present in {}",
                    observation.rp_label,
                    building.name()
                ))
            })?;
        errors.push(error);
    }
    Ok(LocalizationReport::new(errors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fingerprint::{base_devices, DatasetConfig};
    use sim_radio::building_1;

    /// A trivial localizer that always predicts a fixed RP; used to test the
    /// evaluation plumbing independent of any real model.
    struct ConstantLocalizer {
        label: usize,
        fitted: bool,
    }

    impl Localizer for ConstantLocalizer {
        fn name(&self) -> &str {
            "Constant"
        }
        fn num_aps(&self) -> usize {
            0
        }
        fn fit(&mut self, _train: &FingerprintDataset) -> Result<()> {
            self.fitted = true;
            Ok(())
        }
        fn localize_batch(&self, observations: &[FingerprintObservation]) -> Result<Vec<usize>> {
            if !self.fitted {
                return Err(VitalError::NotFitted);
            }
            Ok(vec![self.label; observations.len()])
        }
    }

    fn tiny_dataset() -> (sim_radio::Building, FingerprintDataset) {
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
        (building, dataset)
    }

    #[test]
    fn evaluation_converts_labels_to_metres() {
        let (building, dataset) = tiny_dataset();
        let mut localizer = ConstantLocalizer {
            label: 0,
            fitted: false,
        };
        localizer.fit(&dataset).unwrap();
        let report = evaluate_localizer(&localizer, &dataset, &building).unwrap();
        assert_eq!(report.len(), dataset.len());
        // Predicting RP 0 for a sample at RP k on a straight 1 m-spaced path
        // gives ~k metres of error; the mean over 0..=62 is ~31 m.
        assert!(report.mean_error_m() > 20.0 && report.mean_error_m() < 40.0);
        assert_eq!(report.min_error_m(), 0.0);
    }

    #[test]
    fn unfitted_localizer_propagates_error() {
        let (building, dataset) = tiny_dataset();
        let localizer = ConstantLocalizer {
            label: 0,
            fitted: false,
        };
        assert!(matches!(
            evaluate_localizer(&localizer, &dataset, &building),
            Err(VitalError::NotFitted)
        ));
    }

    #[test]
    fn empty_test_set_is_rejected() {
        let (building, dataset) = tiny_dataset();
        let empty = dataset.filter_devices(&["NONEXISTENT"]);
        let mut localizer = ConstantLocalizer {
            label: 0,
            fitted: false,
        };
        localizer.fit(&dataset).unwrap();
        assert!(evaluate_localizer(&localizer, &empty, &building).is_err());
    }

    #[test]
    fn out_of_range_prediction_is_reported() {
        let (building, dataset) = tiny_dataset();
        let mut localizer = ConstantLocalizer {
            label: 10_000,
            fitted: false,
        };
        localizer.fit(&dataset).unwrap();
        assert!(evaluate_localizer(&localizer, &dataset, &building).is_err());
    }
}
