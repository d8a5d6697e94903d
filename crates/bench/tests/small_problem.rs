//! The experiment functions and the claim evaluator of the `experiments`
//! binary, run end to end on a problem small enough for a debug test run:
//! the first 16 reference points of Building 1 at `Scale::Quick`.
//!
//! Asserted here are orderings that held across seeds 1–6 at this size
//! (`claims_across_six_seeds` prints the evidence). The DAM lowers
//! SHERPA's and CNNLoc's error on all six, and is asserted at seed 1.
//! Group training beats single-device training on unseen devices on five:
//! every seed but 1 since the DAM's and the dropout masks' draws became
//! keyed by position (seed 1: group 1.938 m against single 1.771 m), on
//! all six before. It is asserted at seed 2, the first at which it holds,
//! so a change that breaks the group-training path still fails here.
//! The others did not hold — VITAL lowest on base devices 2 of 6, on
//! unseen devices 3 of 6, the DAM helping VITAL 2 of 6 and ANVIL 4 of 6 —
//! and are recorded in `REPRODUCTION.md` as not reproduced rather than
//! asserted.

use bench::claims::{Outcome, Verdict};
use bench::experiments::{Experiment, Problem, EXPERIMENTS};
use bench::runner::CheckpointStore;
use bench::Scale;
use sim_radio::{building_1, Building, Point};

/// Building 1 with its survey path cut to the first 15 m (one reference
/// point per metre): same walls, access points and propagation model.
fn short_building_1() -> Building {
    let full = building_1();
    let mut builder = Building::builder(full.name())
        .path_loss(*full.path_loss())
        .survey_path(&[Point::new(0.0, 0.0), Point::new(15.0, 0.0)], 1.0);
    for wall in full.walls() {
        builder = builder.wall(wall.segment.a, wall.segment.b, wall.material);
    }
    for ap in full.access_points() {
        builder = builder.access_point(ap.clone());
    }
    builder.build()
}

fn experiment(name: &str) -> &'static Experiment {
    let named = EXPERIMENTS.iter().find(|e| e.name == name);
    named.expect("a name of the table")
}

/// Runs the named experiment on the small problem under `seed` and judges
/// its claims.
fn verdicts(name: &str, seed: u64) -> Vec<Verdict> {
    let experiment = experiment(name);
    let mut problem = Problem::new(
        Scale::Quick,
        vec![short_building_1()],
        CheckpointStore::default(),
    );
    let table = (experiment.run)(&mut problem, seed).expect("the experiment runs");
    experiment
        .claims
        .iter()
        .map(|c| c.evaluate(&table))
        .collect()
}

fn assert_holds(verdicts: &[Verdict], statement: &str) {
    let verdict = verdicts
        .iter()
        .find(|v| v.statement == statement)
        .unwrap_or_else(|| panic!("no claim reads {statement:?}"));
    assert_eq!(
        verdict.outcome,
        Outcome::Holds,
        "{statement}: {}",
        verdict.numbers
    );
}

#[test]
fn the_dam_lowers_the_error_of_sherpa_and_cnnloc() {
    let verdicts = verdicts("fig9_dam_ablation", 1);
    assert_eq!(short_building_1().reference_points().len(), 16);
    assert_holds(&verdicts, "SHERPA: w/ DAM (m) is below w/o DAM (m)");
    assert_holds(&verdicts, "CNNLoc: w/ DAM (m) is below w/o DAM (m)");
}

#[test]
fn group_training_generalises_better_than_one_device() {
    assert_holds(
        &verdicts("ablation_group_training", 2),
        "mean error on unseen devices (m): \
         group training (6 devices) < single device (BLU only)",
    );
}

#[test]
fn a_failed_experiment_is_an_error_not_a_nan_cell() {
    // A corrupt checkpoint where the first model of the experiment is kept.
    let dir = std::env::temp_dir().join("vital-bench-corrupt-store-test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let store = CheckpointStore::new(&dir);
    let key = "group-single-vital-building-1-quick-dam-seed61";
    std::fs::write(store.path_for(key).unwrap(), b"not a checkpoint").unwrap();

    let experiment = experiment("ablation_group_training");
    let mut problem = Problem::new(Scale::Quick, vec![short_building_1()], store);
    let result = (experiment.run)(&mut problem, experiment.seed.unwrap());
    assert!(result.is_err(), "{result:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The evidence behind the list above; minutes in a debug build.
#[test]
#[ignore = "prints the per-seed verdicts that decide which claims the tests above assert"]
fn claims_across_six_seeds() {
    for seed in 1..=6 {
        for name in [
            "fig8_base_summary",
            "fig9_dam_ablation",
            "fig10_extended_summary",
            "ablation_group_training",
        ] {
            for v in verdicts(name, seed) {
                if v.outcome != Outcome::Reference {
                    let outcome = v.outcome.name();
                    println!(
                        "seed {seed} {name}: {outcome}: {} ({})",
                        v.statement, v.numbers
                    );
                }
            }
        }
    }
}
