//! Quickstart: train VITAL on a simulated building and localize a user.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! The example walks the full offline/online pipeline of the paper's Fig. 3:
//! fingerprint collection with six heterogeneous smartphones, group training
//! of the vision transformer, and online location prediction for held-out
//! fingerprints.

#![forbid(unsafe_code)]

use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
use sim_radio::building_1;
use vital::{evaluate_localizer, Localizer, VitalConfig, VitalModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A building with Wi-Fi access points and a survey path (62 m, 1 m RP
    //    granularity) — the synthetic stand-in for the paper's Building 1.
    let building = building_1();
    println!(
        "building: {} ({} APs, {} reference points, {:.0} m path)",
        building.name(),
        building.access_points().len(),
        building.reference_points().len(),
        building.path_length_m()
    );

    // 2. Offline phase: collect RSSI fingerprints with the six base
    //    smartphones (Table I). Five samples per RP are reduced to
    //    min/max/mean — the three channels of each RSSI-image pixel.
    let dataset = FingerprintDataset::collect(
        &building,
        &base_devices(),
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 5,
            seed: 42,
        },
    );
    let split = dataset.split(0.8, 42);
    println!(
        "collected {} fingerprints ({} train / {} test)",
        dataset.len(),
        split.train.len(),
        split.test.len()
    );

    // 3. Group-train the VITAL vision transformer.
    let config = VitalConfig::fast(
        building.access_points().len(),
        building.reference_points().len(),
    );
    let mut model = VitalModel::new(config)?;
    println!(
        "VITAL model: {} trainable parameters, {} patches per image",
        model.param_count(),
        model.transformer().num_patches()
    );
    let report = model.fit(&split.train)?;
    println!(
        "training: first-epoch loss {:.3} → final loss {:.3}, train accuracy {:.0}%",
        report.epoch_losses.first().copied().unwrap_or(0.0),
        report.final_loss(),
        report.final_train_accuracy * 100.0
    );

    // 4. Online phase: localize the held-out fingerprints.
    let evaluation = evaluate_localizer(&model, &split.test, &building)?;
    println!(
        "test localization error: mean {:.2} m, median {:.2} m, max {:.2} m",
        evaluation.mean_error_m(),
        evaluation.median_error_m(),
        evaluation.max_error_m()
    );

    // 5. A single online query, end to end.
    let query = &split.test.observations()[0];
    let predicted = model.predict(query)?;
    println!(
        "user with a {} at RP {} was localized to RP {} ({:.1} m off)",
        query.device,
        query.rp_label,
        predicted,
        building
            .rp_distance_m(predicted, query.rp_label)
            .unwrap_or(f32::NAN)
    );
    Ok(())
}
