//! Device-heterogeneity analysis (paper §III, Fig. 1).
//!
//! ```bash
//! cargo run --release --example heterogeneity_analysis
//! ```
//!
//! Captures RSSI fingerprints at the *same* location with several different
//! smartphones and quantifies the effects that motivate VITAL: per-device
//! offsets, similar device pairs and the missing-AP problem.

#![forbid(unsafe_code)]

use fingerprint::{all_devices, capture_observation, MISSING_AP_DBM};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_radio::{building_1, Channel};

fn main() {
    let building = building_1();
    let channel = Channel::new(&building, 2023);
    let rp = &building.reference_points()[25];
    let devices = all_devices();
    let mut rng = StdRng::seed_from_u64(1);

    println!(
        "RSSI fingerprints captured by {} smartphones at RP {} of {}:\n",
        devices.len(),
        rp.id,
        building.name()
    );

    let observations: Vec<_> = devices
        .iter()
        .map(|device| {
            (
                device,
                capture_observation(&channel, device, rp, 10, &mut rng),
            )
        })
        .collect();

    // Per-device view of the first 8 APs.
    let shown = building.access_points().len().min(8);
    print!("{:<8}", "device");
    for ap in 0..shown {
        print!(" {:>7}", format!("AP{ap}"));
    }
    println!(" {:>9} {:>8}", "visible", "missing");
    for (device, observation) in &observations {
        print!("{:<8}", device.acronym);
        for ap in 0..shown {
            print!(" {:>7.1}", observation.mean[ap]);
        }
        let visible = observation
            .mean
            .iter()
            .filter(|v| **v > MISSING_AP_DBM + 1.0)
            .count();
        println!(
            " {:>9} {:>7.0}%",
            visible,
            observation.missing_fraction() * 100.0
        );
    }

    // Pairwise mean absolute deviation between devices — the paper's
    // observation that HTC≈S7 and IPHONE≈PIXEL behave similarly.
    println!("\npairwise mean |ΔRSSI| between devices (dB):");
    print!("{:<8}", "");
    for (device, _) in &observations {
        print!(" {:>7}", device.acronym);
    }
    println!();
    for (device_a, obs_a) in &observations {
        print!("{:<8}", device_a.acronym);
        for (_, obs_b) in &observations {
            let mad: f32 = obs_a
                .mean
                .iter()
                .zip(&obs_b.mean)
                .map(|(a, b)| (a - b).abs())
                .sum::<f32>()
                / obs_a.mean.len() as f32;
            print!(" {:>7.1}", mad);
        }
        println!();
    }

    println!(
        "\nObservations mirror §III of the paper: devices disagree by several dB at the same \
         location, similar transceiver pairs cluster together, and some APs are visible to one \
         phone while reported as missing (−100 dB) by another."
    );
}
