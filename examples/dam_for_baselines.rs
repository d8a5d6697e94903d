//! Portability of the Data Augmentation Module (paper §VI.D, Fig. 9).
//!
//! ```bash
//! cargo run --release --example dam_for_baselines
//! ```
//!
//! DAM is a standalone pre-processing module; this example bolts it onto the
//! SHERPA baseline and compares localization accuracy with and without it.

#![forbid(unsafe_code)]

use baselines::SherpaLocalizer;
use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
use sim_radio::building_1;
use vital::{evaluate_localizer, DamConfig, Localizer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let building = building_1();
    let dataset = FingerprintDataset::collect(
        &building,
        &base_devices(),
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 5,
            seed: 3,
        },
    );
    let split = dataset.split(0.8, 3);
    println!(
        "{}: {} train / {} test fingerprints from {} devices",
        building.name(),
        split.train.len(),
        split.test.len(),
        dataset.devices().len()
    );

    let mut plain = SherpaLocalizer::new(11).with_epochs(20);
    plain.fit(&split.train)?;
    let plain_report = evaluate_localizer(&plain, &split.test, &building)?;

    let mut with_dam = SherpaLocalizer::new(11)
        .with_dam(Some(DamConfig::default()))
        .with_epochs(20);
    with_dam.fit(&split.train)?;
    let dam_report = evaluate_localizer(&with_dam, &split.test, &building)?;

    println!(
        "\nSHERPA without DAM: mean {:.2} m",
        plain_report.mean_error_m()
    );
    println!(
        "SHERPA with DAM:    mean {:.2} m",
        dam_report.mean_error_m()
    );
    let delta = plain_report.mean_error_m() - dam_report.mean_error_m();
    println!(
        "DAM changed the mean error by {:+.2} m ({}).",
        -delta,
        if delta > 0.0 {
            "improvement"
        } else {
            "regression"
        }
    );
    println!(
        "\nThe paper's Fig. 9 shows DAM improving ANVIL, SHERPA and CNNLoc while slightly \
         hurting WiDeep; run `cargo run --release -p bench --bin experiments -- \
         fig9_dam_ablation` for the full slope graph (REPRODUCTION.md records which of these \
         hold in this reproduction)."
    );
    Ok(())
}
