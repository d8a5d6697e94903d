//! How far the folded forward `localize_batch` serves is from the
//! full-width forward over the patch matrix, on the benchmark's
//! 680-observation evaluation pool (`benchmark/README.md`, "Fixed inputs").
//!
//! ```bash
//! cargo run --release --example fold_distance [seed]
//! ```
//!
//! Trains the benchmark's fast and paper models as its set-up does, runs
//! both forms of the forward on an eval tape over every pool observation and
//! prints the largest logit distance in units in the last place, taken at
//! the logit itself and at its sample's largest logit (a logit near zero
//! makes its own last place tiny). Exits 1 if the two forms, or the compiled
//! `localize_batch`, name different reference points anywhere.

#![forbid(unsafe_code)]

use fingerprint::{
    base_devices, extended_devices, DatasetConfig, FingerprintDataset, FingerprintObservation,
};
use nn::Session;
use sim_radio::building_3;
use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{Localizer, VitalConfig, VitalModel};

/// Units in the last place of `scale` between `a` and `b`.
fn ulps(a: f32, b: f32, scale: f32) -> u64 {
    let ulp = f32::from_bits(scale.abs().to_bits() + 1) - scale.abs();
    ((a - b).abs() / ulp) as u64
}

/// Eager logits of `chunk` in both forms: `(folded, full-width)`.
fn logits(model: &VitalModel, chunk: &[FingerprintObservation]) -> vital::Result<(Tensor, Tensor)> {
    let patches = chunk
        .iter()
        .map(|o| model.prepare_patches(o, false, &mut SeededRng::new(0)))
        .collect::<vital::Result<Vec<Tensor>>>()?;
    // What is distinct in a replicated patch matrix: the first patch row's
    // patches, each the first pixel row of its three channels.
    let vit = model.transformer();
    let (patch, area) = (model.config().patch_size, vit.patch_dim() / 3);
    let mut distinct = Vec::new();
    for matrix in &patches {
        let first_patch_row = &matrix.as_slice()[..vit.distinct_patches() * vit.patch_dim()];
        for channel in first_patch_row.chunks_exact(area) {
            distinct.extend_from_slice(&channel[..patch]);
        }
    }
    let rows = chunk.len() * vit.distinct_patches();
    let tape = autograd::Tape::new();
    let mut session = Session::new(&tape, false, 0);
    let distinct = session.constant(Tensor::from_vec(distinct, &[rows, vit.distinct_dim()])?);
    let folded = vit.forward_folded(&mut session, distinct, chunk.len())?;
    let full = vit.forward_batch(&mut session, &patches)?;
    Ok((folded.value(), full.value()))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = match std::env::args().nth(1) {
        Some(arg) => arg.parse()?,
        None => 1,
    };
    let building = building_3();
    let campaign = DatasetConfig {
        captures_per_rp: 2,
        samples_per_capture: 5,
        seed,
    };
    let base = FingerprintDataset::collect(&building, &base_devices(), &campaign);
    let extended = FingerprintDataset::collect(&building, &extended_devices(), &campaign);
    let split = base.split(0.8, seed);
    let mut pool = split.test.observations().to_vec();
    pool.extend_from_slice(extended.observations());
    let train = split.train.observations();

    let mut paper = VitalConfig::paper(base.num_aps(), base.num_rps());
    paper.train.epochs = 1;
    let fast = VitalConfig::fast(base.num_aps(), base.num_rps());
    let every_third = train.iter().step_by(3).cloned().collect();
    let models = [
        ("fast", fast, every_third),
        ("paper", paper, train[..64].to_vec()),
    ];
    let mut disagreements = 0;
    for (name, config, kept) in models {
        let kept = FingerprintDataset::from_observations(
            building.name(),
            base.num_aps(),
            base.num_rps(),
            kept,
        );
        let mut model = VitalModel::new(config)?;
        model.fit(&kept)?;
        let (mut worst, mut worst_at_scale) = (0, 0);
        for chunk in pool.chunks(16) {
            let (folded, full) = logits(&model, chunk)?;
            let classes = full.shape().dims()[1];
            for (a, b) in folded
                .as_slice()
                .chunks(classes)
                .zip(full.as_slice().chunks(classes))
            {
                let largest = b.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                for (&x, &y) in a.iter().zip(b) {
                    worst = worst.max(ulps(x, y, y));
                    worst_at_scale = worst_at_scale.max(ulps(x, y, largest));
                }
            }
            let full = full.argmax_rows()?;
            let differ = |other: &[usize]| other.iter().zip(&full).filter(|(a, b)| a != b).count();
            disagreements += differ(&folded.argmax_rows()?) + differ(&model.localize_batch(chunk)?);
        }
        println!(
            "{name}: {} observations, largest folded-vs-full logit distance {worst} ULP \
             ({worst_at_scale} ULP of the sample's largest logit)",
            pool.len()
        );
    }
    println!("predictions that differ between the two forms: {disagreements}");
    std::process::exit(i32::from(disagreements > 0))
}
