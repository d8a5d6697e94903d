//! Compiled-plan ↔ eager-path parity for every localizer family.
//!
//! Each neural localizer serves inference from a build-once/execute-many
//! compiled plan (`crates/graph`) keyed by batch shape; the tape-based
//! eager path is kept as the bit-exactness reference. These tests assert
//! the two paths agree *exactly* — across batch sizes {1, 2, 32, 65} and
//! worker-thread counts {1, 4} — and that plan caching behaves (one plan
//! per chunk shape, reused on re-execution). 65 crosses the baselines'
//! 64-observation inference chunk, so the shared chunk loop has to stitch
//! a full chunk and a remainder of one in order.
//!
//! KNN is the one localizer without a neural stage, so it has no compiled
//! plan; its parity property is batch-vs-single-query consistency under
//! the same thread counts.
//!
//! `predict` is `localize_batch` of one observation for all six
//! localizers, fitted or not; the last test pins that.

use baselines::{
    AnvilLocalizer, CnnLocLocalizer, FeatureMode, KnnLocalizer, SherpaLocalizer, WiDeepLocalizer,
};
use fingerprint::{base_devices, DatasetConfig, FingerprintDataset, FingerprintObservation};
use sim_radio::building_1;
use tensor::rng::SeededRng;
use tensor::Tensor;
use vital::{Localizer, VitalConfig, VitalError, VitalModel};

const BATCH_SIZES: [usize; 4] = [1, 2, 32, 65];
const THREAD_COUNTS: [usize; 2] = [1, 4];

fn tiny_dataset() -> FingerprintDataset {
    let building = building_1();
    let dataset = FingerprintDataset::collect(
        &building,
        &base_devices()[..2],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 2,
            seed: 33,
        },
    );
    // Restrict to the first 10 RPs so the neural baselines train in
    // milliseconds.
    let subset: Vec<_> = dataset
        .observations()
        .iter()
        .filter(|o| o.rp_label < 10)
        .cloned()
        .collect();
    FingerprintDataset::from_observations(dataset.building(), dataset.num_aps(), 10, subset)
}

/// Cycles the dataset's observations into a query batch of exactly `n`.
fn queries(dataset: &FingerprintDataset, n: usize) -> Vec<FingerprintObservation> {
    dataset
        .observations()
        .iter()
        .cycle()
        .take(n)
        .cloned()
        .collect()
}

/// Asserts compiled `localize_batch` output equals the eager reference and
/// per-observation prediction for every batch size and thread count, then
/// that re-serving the same shapes hits the cached plans instead of
/// compiling new ones.
fn assert_compiled_parity<L: Localizer>(
    localizer: &L,
    dataset: &FingerprintDataset,
    eager: impl Fn(&L, &[FingerprintObservation]) -> vital::Result<Vec<usize>>,
    cached_plans: impl Fn(&L) -> usize,
) {
    for threads in THREAD_COUNTS {
        parallel::with_threads(threads, || {
            for batch in BATCH_SIZES {
                let observations = queries(dataset, batch);
                let compiled = localizer.localize_batch(&observations).unwrap();
                let reference = eager(localizer, &observations).unwrap();
                assert_eq!(
                    compiled,
                    reference,
                    "{}: compiled diverged from eager at batch {batch} / {threads} threads",
                    localizer.name()
                );
                // Both runners share the chunk loop; per-observation
                // prediction is what shows a chunk stitched out of order.
                let single: Vec<usize> = observations
                    .iter()
                    .map(|o| localizer.predict(o).unwrap())
                    .collect();
                assert_eq!(
                    compiled,
                    single,
                    "{}: batch {batch} diverged from per-observation prediction",
                    localizer.name()
                );
            }
        });
    }
    let plans = cached_plans(localizer);
    assert!(
        plans <= BATCH_SIZES.len(),
        "{}: one plan per chunk shape expected, found {plans}",
        localizer.name()
    );
    // Re-serving the same shapes must reuse every cached plan.
    for batch in BATCH_SIZES {
        let observations = queries(dataset, batch);
        localizer.localize_batch(&observations).unwrap();
    }
    assert_eq!(
        cached_plans(localizer),
        plans,
        "{}: re-serving a known shape must not compile a new plan",
        localizer.name()
    );
}

#[test]
fn sherpa_compiled_matches_eager() {
    let dataset = tiny_dataset();
    let mut sherpa = SherpaLocalizer::new(11).with_epochs(2);
    sherpa.fit(&dataset).unwrap();
    assert_compiled_parity(
        &sherpa,
        &dataset,
        |l, obs| l.localize_batch_eager(obs),
        SherpaLocalizer::cached_plans,
    );
}

#[test]
fn wideep_compiled_matches_eager() {
    let dataset = tiny_dataset();
    let mut wideep = WiDeepLocalizer::new(12).with_pretrain_epochs(2);
    wideep.fit(&dataset).unwrap();
    assert_compiled_parity(
        &wideep,
        &dataset,
        |l, obs| l.localize_batch_eager(obs),
        WiDeepLocalizer::cached_plans,
    );
}

#[test]
fn cnnloc_compiled_matches_eager() {
    let dataset = tiny_dataset();
    let mut cnnloc = CnnLocLocalizer::new(13)
        .with_epochs(2)
        .with_pretrain_epochs(2);
    cnnloc.fit(&dataset).unwrap();
    assert_compiled_parity(
        &cnnloc,
        &dataset,
        |l, obs| l.localize_batch_eager(obs),
        CnnLocLocalizer::cached_plans,
    );
}

#[test]
fn anvil_compiled_matches_eager() {
    let dataset = tiny_dataset();
    let mut anvil = AnvilLocalizer::new(14).with_epochs(2);
    anvil.fit(&dataset).unwrap();
    assert_compiled_parity(
        &anvil,
        &dataset,
        |l, obs| l.localize_batch_eager(obs),
        AnvilLocalizer::cached_plans,
    );
}

fn tiny_vital() -> VitalModel {
    let mut config = VitalConfig::fast(building_1().access_points().len(), 10);
    config.image_size = 16;
    config.patch_size = 4;
    config.d_model = 24;
    config.msa_heads = 4;
    config.train.epochs = 2;
    VitalModel::new(config).unwrap()
}

#[test]
fn vital_compiled_matches_eager() {
    let dataset = tiny_dataset();
    let mut model = tiny_vital();
    model.fit(&dataset).unwrap();
    // `localize_batch`: the folded forward, plan against tape.
    assert_compiled_parity(
        &model,
        &dataset,
        |l, obs| l.localize_batch_eager(obs),
        |l| l.transformer().cached_plans(),
    );

    // The eager full-width forward over the inference patch matrices: the
    // two forms name the same places.
    for threads in THREAD_COUNTS {
        parallel::with_threads(threads, || {
            for batch_size in BATCH_SIZES {
                let observations = queries(&dataset, batch_size);
                let batch: Vec<Tensor> = observations
                    .iter()
                    .map(|o| {
                        let mut rng = SeededRng::new(0);
                        model.prepare_patches(o, false, &mut rng).unwrap()
                    })
                    .collect();
                let tape = autograd::Tape::new();
                let mut session = nn::Session::new(&tape, false, 0);
                let logits = model.transformer().forward_batch(&mut session, &batch);
                let full_width = logits.unwrap().value().argmax_rows().unwrap();
                assert_eq!(
                    model.localize_batch(&observations).unwrap(),
                    full_width,
                    "VITAL: folded and full-width predictions differ at batch {batch_size} / \
                     {threads} threads"
                );
            }
        });
    }
}

#[test]
fn knn_batch_matches_single_query_across_threads() {
    // KNN has no neural stage, hence no compiled plan: its parity property
    // is that the (parallel) batch path agrees with per-query prediction.
    let dataset = tiny_dataset();
    let mut knn = KnnLocalizer::new(3, FeatureMode::Ssd);
    knn.fit(&dataset).unwrap();
    for threads in THREAD_COUNTS {
        parallel::with_threads(threads, || {
            for batch in BATCH_SIZES {
                let observations = queries(&dataset, batch);
                let batched = knn.localize_batch(&observations).unwrap();
                let single: Vec<usize> = observations
                    .iter()
                    .map(|o| knn.predict(o).unwrap())
                    .collect();
                assert_eq!(
                    batched, single,
                    "KNN batch diverged from single-query at batch {batch} / {threads} threads"
                );
            }
        });
    }
}

#[test]
fn predict_is_a_batch_of_one_and_unfitted_models_refuse_both() {
    let dataset = tiny_dataset();
    let observations = dataset.observations();
    let mut localizers: Vec<Box<dyn Localizer>> = vec![
        Box::new(tiny_vital()),
        Box::new(AnvilLocalizer::new(14).with_epochs(2)),
        Box::new(SherpaLocalizer::new(11).with_epochs(2)),
        Box::new(
            CnnLocLocalizer::new(13)
                .with_epochs(2)
                .with_pretrain_epochs(2),
        ),
        Box::new(WiDeepLocalizer::new(12).with_pretrain_epochs(2)),
        Box::new(KnnLocalizer::new(3, FeatureMode::Ssd)),
    ];
    for localizer in &mut localizers {
        let name = localizer.name().to_string();
        assert!(
            matches!(
                localizer.predict(&observations[0]),
                Err(VitalError::NotFitted)
            ),
            "{name}: unfitted predict must be NotFitted"
        );
        assert!(
            matches!(
                localizer.localize_batch(observations),
                Err(VitalError::NotFitted)
            ),
            "{name}: unfitted localize_batch must be NotFitted"
        );
        localizer.fit(&dataset).unwrap();
        for observation in observations {
            assert_eq!(
                localizer.predict(observation).unwrap(),
                localizer
                    .localize_batch(std::slice::from_ref(observation))
                    .unwrap()[0],
                "{name}: predict diverged from a batch of one"
            );
        }
    }
}
