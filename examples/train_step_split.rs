//! Where a paper training step spends its time: the median forward,
//! backward and `Adam::step` of a step of 16 DAM-augmented observations of
//! `VitalConfig::paper` (every computation runs on the calling thread).
//!
//! ```bash
//! cargo run --release --example train_step_split [steps] [seed]
//! ```
//!
//! Uses the benchmark's `train_fit` data (Building 3, base devices, two
//! captures of five samples per reference point). Each step records the
//! forward and the loss on a fresh training tape (the forward column), runs
//! `Session::backward` (backward) and applies the gradients (adam). The
//! DAM's patch writing is done before a step's clock starts and is not in
//! any column. Two warm-up steps are not counted; `steps` (default 20) are.

use std::time::Instant;

use autograd::Tape;
use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
use nn::optim::Adam;
use nn::Session;
use sim_radio::building_3;
use tensor::rng::{DrawKey, SeededRng};
use tensor::Tensor;
use vital::{VitalConfig, VitalModel};

const BATCH: usize = 16;
const WARM_UP: usize = 2;

fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2] * 1e3
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let steps: usize = args.next().map_or(Ok(20), |a| a.parse())?;
    let seed: u64 = args.next().map_or(Ok(1), |a| a.parse())?;
    let building = building_3();
    let campaign = DatasetConfig {
        captures_per_rp: 2,
        samples_per_capture: 5,
        seed,
    };
    let base = FingerprintDataset::collect(&building, &base_devices(), &campaign);
    let train = base.split(0.8, seed).train;
    let model = VitalModel::new(VitalConfig::paper(base.num_aps(), base.num_rps()))?;
    let vit = model.transformer();

    let mut adam = Adam::new(model.config().train.learning_rate);
    let mut rng = SeededRng::new(seed);
    let (mut forward, mut backward, mut update) = (Vec::new(), Vec::new(), Vec::new());
    let batches = train.observations().chunks_exact(BATCH).cycle();
    for (step, batch) in batches.take(WARM_UP + steps).enumerate() {
        let patches = batch
            .iter()
            .map(|o| model.prepare_patches(o, true, &mut rng))
            .collect::<vital::Result<Vec<Tensor>>>()?;
        let stacked = Tensor::concat_rows(&patches.iter().collect::<Vec<_>>())?;
        let labels: Vec<usize> = batch.iter().map(|o| o.rp_label).collect();

        let tape = Tape::new();
        let mut session = Session::keyed(&tape, DrawKey::new(seed, [0, step]));
        let started = Instant::now();
        let input = session.constant(stacked);
        let loss = vit
            .forward(&mut session, input, BATCH)?
            .softmax_cross_entropy(&labels)?;
        let recorded = Instant::now();
        let grads = session.backward(loss)?;
        let differentiated = Instant::now();
        adam.step(&grads);
        let stepped = Instant::now();
        if step >= WARM_UP {
            forward.push((recorded - started).as_secs_f64());
            backward.push((differentiated - recorded).as_secs_f64());
            update.push((stepped - differentiated).as_secs_f64());
        }
    }
    println!(
        "paper step of {BATCH}, median of {steps} steps: forward {:.1} ms, \
         backward {:.1} ms, adam {:.2} ms",
        median_ms(forward),
        median_ms(backward),
        median_ms(update)
    );
    Ok(())
}
