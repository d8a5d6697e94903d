//! The correctness gate: reference predictions and the checks that hold
//! every other way of getting a prediction to them.

use std::path::Path;

use baselines::localizer_from_checkpoint;
use fingerprint::FingerprintObservation;
use vital::{Checkpoint, Localizer};

use crate::fixture::Fixture;
use crate::spec::fixed;

/// Reference predictions over the fixture's pool, one vector per
/// localizer in [`Fixture::localizers`] order: offline `localize_batch`
/// of the trained model.
pub struct Expected(Vec<Vec<usize>>);

impl Expected {
    pub fn compute(fixture: &Fixture) -> Result<Expected, String> {
        fixture
            .localizers()
            .iter()
            .map(|(name, l)| {
                l.localize_batch(&fixture.pool)
                    .map_err(|e| format!("{name}: {e}"))
            })
            .collect::<Result<_, _>>()
            .map(Expected)
    }

    /// Corrupts the first reference prediction of every localizer: the
    /// input the gate must fail on.
    pub fn poison(&mut self) {
        for predictions in &mut self.0 {
            if let Some(first) = predictions.first_mut() {
                *first += 1;
            }
        }
    }

    pub fn vital(&self) -> &[usize] {
        &self.0[0]
    }

    pub fn of(&self, localizer: usize) -> &[usize] {
        &self.0[localizer]
    }
}

/// Checks made and checks failed.
#[derive(Debug, Default, PartialEq)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first_error.get_or_insert_with(what);
        }
    }
}

/// Holds one localizer to its reference on `sample`: per-observation
/// `predict` and a copy reloaded from checkpoint bytes must both
/// reproduce `expected`. `scratch` is a file the checkpoint goes through.
pub fn check_localizer(
    name: &str,
    localizer: &dyn Localizer,
    sample: &[FingerprintObservation],
    expected: &[usize],
    scratch: &Path,
    checks: &mut Checks,
) -> Result<(), String> {
    let fail = |e: vital::VitalError| format!("{name}: {e}");
    for (i, (observation, want)) in sample.iter().zip(expected).enumerate() {
        let got = localizer.predict(observation).map_err(fail)?;
        checks.check(got == *want, || {
            format!("{name}: predict on observation {i} gave {got}, localize_batch {want}")
        });
    }
    localizer.save(scratch).map_err(fail)?;
    let bytes = std::fs::read(scratch).map_err(|e| format!("read {}: {e}", scratch.display()))?;
    let reloaded = Checkpoint::from_bytes(&bytes)
        .and_then(|c| localizer_from_checkpoint(&c))
        .map_err(fail)?;
    let got = reloaded.localize_batch(sample).map_err(fail)?;
    checks.check(got == expected, || {
        format!("{name}: the model reloaded from checkpoint bytes predicts differently")
    });
    Ok(())
}

/// Runs [`check_localizer`] on every localizer of the fixture over the
/// first [`fixed::GATE_SAMPLE`] pool observations.
pub fn run(fixture: &Fixture, expected: &Expected) -> Result<Checks, String> {
    let mut checks = Checks::default();
    let sample = &fixture.pool[..fixed::GATE_SAMPLE.min(fixture.pool.len())];
    let scratch = fixture.dir.join("gate.vckpt.tmp");
    for (i, (name, localizer)) in fixture.localizers().into_iter().enumerate() {
        let want = &expected.of(i)[..sample.len()];
        check_localizer(name, localizer, sample, want, &scratch, &mut checks)?;
    }
    let _ = std::fs::remove_file(&scratch);
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{FeatureMode, KnnLocalizer};
    use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};

    fn knn_and_sample() -> (KnnLocalizer, Vec<FingerprintObservation>) {
        let data = FingerprintDataset::collect(
            &sim_radio::building_3(),
            &base_devices()[..2],
            &DatasetConfig {
                captures_per_rp: 1,
                samples_per_capture: 2,
                seed: 5,
            },
        );
        let mut knn = KnnLocalizer::new(3, FeatureMode::MeanChannel);
        knn.fit(&data).unwrap();
        (knn, data.observations()[..24].to_vec())
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        // Inside the package, like everything else the benchmark writes.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out/test-gate");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn the_gate_passes_a_healthy_localizer() {
        let (knn, sample) = knn_and_sample();
        let expected = Expected(vec![knn.localize_batch(&sample).unwrap()]);
        let mut checks = Checks::default();
        let path = scratch("healthy.vckpt");
        check_localizer("KNN", &knn, &sample, expected.vital(), &path, &mut checks).unwrap();
        assert_eq!(checks.attempted, 25);
        assert_eq!(checks.failed, 0);
        assert_eq!(checks.first_error, None);
    }

    #[test]
    fn a_poisoned_expected_prediction_fails_the_gate() {
        let (knn, sample) = knn_and_sample();
        let mut expected = Expected(vec![knn.localize_batch(&sample).unwrap()]);
        expected.poison();
        let mut checks = Checks::default();
        let path = scratch("poisoned.vckpt");
        check_localizer("KNN", &knn, &sample, expected.vital(), &path, &mut checks).unwrap();
        // The single prediction and the reloaded batch both disagree with
        // the corrupted reference.
        assert_eq!(checks.failed, 2);
        assert!(checks.first_error.unwrap().contains("observation 0"));
    }
}
