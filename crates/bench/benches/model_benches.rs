//! Criterion micro-benchmarks of the VITAL model pipeline: RSSI image
//! creation, DAM augmentation, patch extraction and transformer inference at
//! both the fast and the paper-scale configuration (§VI.B reports ~50 ms
//! on-device inference for the latter).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use fingerprint::{base_devices, capture_observation, FingerprintObservation};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim_radio::{building_1, Channel};
use std::hint::black_box;
use tensor::rng::SeededRng;
use vital::{DamConfig, DataAugmentationModule, RssiImageCreator, VitalConfig, VitalModel};

fn sample_observation() -> FingerprintObservation {
    let building = building_1();
    let channel = Channel::new(&building, 9);
    let mut rng = StdRng::seed_from_u64(10);
    capture_observation(
        &channel,
        &base_devices()[1],
        &building.reference_points()[20],
        5,
        &mut rng,
    )
}

fn bench_preprocessing(c: &mut Criterion) {
    let observation = sample_observation();
    let creator = RssiImageCreator::new(24);
    let dam = DataAugmentationModule::new(DamConfig::default());

    c.bench_function("image_creator_24px", |b| {
        b.iter(|| creator.create(black_box(&observation)).unwrap())
    });

    let image_1d = creator.create(&observation).unwrap();
    c.bench_function("dam_augment_train_24px", |b| {
        b.iter_batched(
            || SeededRng::new(1),
            |mut rng| dam.augment(black_box(&image_1d), true, &mut rng).unwrap(),
            BatchSize::SmallInput,
        )
    });

    let image_2d = dam
        .augment(&image_1d, false, &mut SeededRng::new(2))
        .unwrap();
    c.bench_function("patch_extraction_24px_p6", |b| {
        b.iter(|| image_2d.to_patches(black_box(6)).unwrap())
    });
}

fn bench_inference(c: &mut Criterion) {
    let building = building_1();
    let observation = sample_observation();

    // Fast configuration (the one used across the experiment grids).
    let fast = VitalModel::new(VitalConfig::fast(
        building.access_points().len(),
        building.reference_points().len(),
    ))
    .unwrap();
    let mut rng = SeededRng::new(3);
    let fast_patches = fast.prepare_patches(&observation, false, &mut rng).unwrap();
    c.bench_function("vit_inference_fast_config", |b| {
        b.iter(|| {
            fast.transformer()
                .predict(black_box(&fast_patches))
                .unwrap()
        })
    });

    // Paper-scale configuration (206×206 image, 20×20 patches, 5 heads);
    // §VI.B reports ~50 ms for the original on-device deployment.
    let paper = VitalModel::new(VitalConfig::paper(
        building.access_points().len(),
        building.reference_points().len(),
    ))
    .unwrap();
    let paper_patches = paper
        .prepare_patches(&observation, false, &mut rng)
        .unwrap();
    let mut group = c.benchmark_group("paper_scale");
    group.sample_size(10);
    group.bench_function("vit_inference_paper_config", |b| {
        b.iter(|| {
            paper
                .transformer()
                .predict(black_box(&paper_patches))
                .unwrap()
        })
    });
    group.bench_function("full_online_pipeline_paper_config", |b| {
        b.iter_batched(
            || SeededRng::new(4),
            |mut rng| {
                let patches = paper
                    .prepare_patches(black_box(&observation), false, &mut rng)
                    .unwrap();
                paper.transformer().predict(&patches).unwrap()
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_training_step(c: &mut Criterion) {
    // One mini-batch gradient step on the fast configuration: this is the
    // unit of work that dominates every experiment binary.
    let building = building_1();
    let observation = sample_observation();
    let mut config = VitalConfig::fast(
        building.access_points().len(),
        building.reference_points().len(),
    );
    config.train.epochs = 1;
    let model = VitalModel::new(config).unwrap();
    let mut rng = SeededRng::new(5);
    let patches: Vec<_> = (0..8)
        .map(|_| model.prepare_patches(&observation, true, &mut rng).unwrap())
        .collect();
    let labels = vec![observation.rp_label; 8];

    c.bench_function("vit_train_batch8_forward_backward", |b| {
        b.iter(|| {
            let tape = autograd::Tape::new();
            let mut session = nn::Session::new(&tape, true, 0);
            let logits = model
                .transformer()
                .forward_batch(&mut session, black_box(&patches))
                .unwrap();
            let loss = logits.softmax_cross_entropy(&labels).unwrap();
            session.backward(loss).unwrap();
            loss.value()
        })
    });
}

criterion_group!(
    model_benches,
    bench_preprocessing,
    bench_inference,
    bench_training_step
);
criterion_main!(model_benches);
