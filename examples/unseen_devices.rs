//! Generalisation to unseen smartphones (paper §VI.E, Fig. 10).
//!
//! ```bash
//! cargo run --release --example unseen_devices
//! ```
//!
//! Trains VITAL and a classical calibration-free KNN baseline on the six base
//! devices, then localizes users carrying the three *extended* devices
//! (Nokia 7.1, Pixel 4a, iPhone 12) that neither model has ever seen.

#![forbid(unsafe_code)]

use baselines::{FeatureMode, KnnLocalizer};
use fingerprint::{base_devices, extended_devices, DatasetConfig, FingerprintDataset};
use sim_radio::building_2;
use vital::{evaluate_localizer, Localizer, VitalConfig, VitalModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let building = building_2();
    println!(
        "building: {} ({} APs, {} RPs)",
        building.name(),
        building.access_points().len(),
        building.reference_points().len()
    );

    let train = FingerprintDataset::collect(
        &building,
        &base_devices(),
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 5,
            seed: 7,
        },
    );
    let test = FingerprintDataset::collect(
        &building,
        &extended_devices(),
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 5,
            seed: 99,
        },
    );
    println!(
        "training on {} fingerprints from base devices; testing on {} fingerprints from {:?}",
        train.len(),
        test.len(),
        test.devices()
    );

    // VITAL with DAM (group training over the heterogeneous pool).
    let mut vital_model = VitalModel::new(VitalConfig::fast(
        building.access_points().len(),
        building.reference_points().len(),
    ))?;
    vital_model.fit(&train)?;

    // Calibration-free classical baseline: SSD-transformed KNN.
    let mut knn = KnnLocalizer::new(5, FeatureMode::Ssd);
    knn.fit(&train)?;

    for localizer in [&vital_model as &dyn Localizer, &knn as &dyn Localizer] {
        let overall = evaluate_localizer(localizer, &test, &building)?;
        println!("\n{}:", localizer.name());
        println!(
            "  overall on unseen devices: mean {:.2} m, max {:.2} m",
            overall.mean_error_m(),
            overall.max_error_m()
        );
        for device in test.devices() {
            let subset = test.filter_devices(&[device.as_str()]);
            let report = evaluate_localizer(localizer, &subset, &building)?;
            println!(
                "  {:<7} mean {:.2} m, median {:.2} m",
                device,
                report.mean_error_m(),
                report.median_error_m()
            );
        }
    }
    Ok(())
}
