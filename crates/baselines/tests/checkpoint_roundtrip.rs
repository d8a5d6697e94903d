//! Save → load round-trips for every localizer family: a reloaded model
//! must reproduce the original's predictions *exactly*, and the
//! kind-dispatching loader must restore the right concrete type.

use std::path::PathBuf;

use baselines::{
    load_localizer, AnvilLocalizer, CnnLocLocalizer, FeatureMode, KnnLocalizer, SherpaLocalizer,
    WiDeepLocalizer,
};
use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
use sim_radio::building_1;
use vital::{Checkpoint, CheckpointError, Localizer, VitalConfig, VitalError, VitalModel};

fn tiny_dataset() -> FingerprintDataset {
    let building = building_1();
    let dataset = FingerprintDataset::collect(
        &building,
        &base_devices()[..2],
        &DatasetConfig {
            captures_per_rp: 1,
            samples_per_capture: 2,
            seed: 21,
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

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir()
        .join("vital-baseline-roundtrip")
        .join(name)
}

/// Trains, saves, reloads both through `L::load` and the kind dispatcher,
/// and asserts exact prediction equality on every observation.
fn assert_round_trip<L: Localizer>(
    mut localizer: L,
    file: &str,
    reload: fn(&std::path::Path) -> vital::Result<L>,
) {
    let dataset = tiny_dataset();
    localizer.fit(&dataset).unwrap();
    let expected = localizer.localize_batch(dataset.observations()).unwrap();

    let path = temp_path(file);
    localizer.save(&path).unwrap();

    let restored = reload(&path).unwrap();
    assert_eq!(restored.name(), localizer.name());
    assert_eq!(
        restored.localize_batch(dataset.observations()).unwrap(),
        expected,
        "{}: concrete reload diverged",
        localizer.name()
    );

    let dynamic = load_localizer(&path).unwrap();
    assert_eq!(dynamic.name(), localizer.name());
    assert_eq!(
        dynamic.localize_batch(dataset.observations()).unwrap(),
        expected,
        "{}: dispatched reload diverged",
        localizer.name()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn vital_round_trips_exactly() {
    let dataset = tiny_dataset();
    let mut config = VitalConfig::fast(building_1().access_points().len(), 10);
    config.image_size = 16;
    config.patch_size = 4;
    config.d_model = 24;
    config.msa_heads = 4;
    config.train.epochs = 2;
    let model = VitalModel::new(config).unwrap();
    let _ = dataset;
    assert_round_trip(model, "vital.vckpt", VitalModel::load);
}

#[test]
fn knn_round_trips_exactly() {
    assert_round_trip(
        KnnLocalizer::new(3, FeatureMode::Ssd),
        "knn.vckpt",
        KnnLocalizer::load,
    );
}

#[test]
fn sherpa_round_trips_exactly() {
    assert_round_trip(
        SherpaLocalizer::new(5).with_epochs(2),
        "sherpa.vckpt",
        SherpaLocalizer::load,
    );
}

#[test]
fn cnnloc_round_trips_exactly() {
    assert_round_trip(
        CnnLocLocalizer::new(6)
            .with_epochs(2)
            .with_pretrain_epochs(2),
        "cnnloc.vckpt",
        CnnLocLocalizer::load,
    );
}

#[test]
fn wideep_round_trips_exactly() {
    assert_round_trip(
        WiDeepLocalizer::new(7).with_pretrain_epochs(2),
        "wideep.vckpt",
        WiDeepLocalizer::load,
    );
}

#[test]
fn anvil_round_trips_exactly() {
    assert_round_trip(
        AnvilLocalizer::new(8).with_epochs(2),
        "anvil.vckpt",
        AnvilLocalizer::load,
    );
}

/// Flips bit 40 of each layer-sizing entry (by index) of `ckpt`'s `dims`
/// and expects `from_checkpoint` to answer with a typed error instead of
/// asking the allocator for the terabytes the flipped size implies.
fn assert_layer_sizes_are_held_to_the_weights<L>(
    ckpt: Checkpoint,
    sizing: &[usize],
    from_checkpoint: fn(&Checkpoint) -> vital::Result<L>,
) {
    let bytes = ckpt.to_bytes().unwrap();
    assert!(from_checkpoint(&Checkpoint::from_bytes(&bytes).unwrap()).is_ok());
    // An ints entry is its name (`u64` length, UTF-8), its `u64` count and
    // its `u64` values, little-endian: bit 40 is the low bit of byte 5.
    let name = [&4u64.to_le_bytes()[..], b"dims"].concat();
    let values = bytes
        .windows(name.len())
        .position(|w| w == name)
        .expect("the checkpoint has a dims entry")
        + name.len()
        + 8;
    for &entry in sizing {
        let mut corrupt = bytes.clone();
        corrupt[values + 8 * entry + 5] ^= 0x01;
        let ckpt = Checkpoint::from_bytes(&corrupt).unwrap();
        assert_eq!(ckpt.ints("dims").unwrap()[entry] >> 40, 1);
        match from_checkpoint(&ckpt) {
            Err(VitalError::Checkpoint(CheckpointError::Corrupt(msg))) => {
                assert!(msg.contains("dims entry"), "{msg}")
            }
            Err(other) => panic!("dims[{entry}]: expected a corrupt checkpoint, got {other:?}"),
            Ok(_) => panic!("dims[{entry}]: a flipped layer size loaded"),
        }
    }
}

#[test]
fn a_flipped_bit_of_a_layer_size_is_a_typed_error_not_an_abort() {
    let dataset = tiny_dataset();

    let mut sherpa = SherpaLocalizer::new(5).with_epochs(1);
    sherpa.fit(&dataset).unwrap();
    // dims: epochs, top_candidates, neighbours, num_classes, width.
    assert_layer_sizes_are_held_to_the_weights(
        sherpa.to_checkpoint().unwrap(),
        &[3, 4],
        SherpaLocalizer::from_checkpoint,
    );

    let mut cnnloc = CnnLocLocalizer::new(6)
        .with_epochs(1)
        .with_pretrain_epochs(1);
    cnnloc.fit(&dataset).unwrap();
    // dims: pretrain_epochs, epochs, num_classes, width.
    assert_layer_sizes_are_held_to_the_weights(
        cnnloc.to_checkpoint().unwrap(),
        &[2, 3],
        CnnLocLocalizer::from_checkpoint,
    );

    let mut wideep = WiDeepLocalizer::new(7).with_pretrain_epochs(1);
    wideep.fit(&dataset).unwrap();
    // dims: pretrain_epochs, num_classes, width; only the width sizes a
    // layer (the class count sizes the kernel vote).
    assert_layer_sizes_are_held_to_the_weights(
        wideep.to_checkpoint().unwrap(),
        &[2],
        WiDeepLocalizer::from_checkpoint,
    );

    let mut anvil = AnvilLocalizer::new(8).with_epochs(1);
    anvil.fit(&dataset).unwrap();
    // dims: epochs, num_classes, padded_width, embed_width.
    assert_layer_sizes_are_held_to_the_weights(
        anvil.to_checkpoint().unwrap(),
        &[1, 2],
        AnvilLocalizer::from_checkpoint,
    );
}

#[test]
fn dam_enabled_baseline_round_trips_with_its_pipeline() {
    let dataset = tiny_dataset();
    let mut sherpa = SherpaLocalizer::new(9)
        .with_dam(Some(vital::DamConfig::default()))
        .with_epochs(2);
    sherpa.fit(&dataset).unwrap();
    let expected = sherpa.localize_batch(dataset.observations()).unwrap();

    let path = temp_path("sherpa-dam.vckpt");
    sherpa.save(&path).unwrap();
    let restored = SherpaLocalizer::load(&path).unwrap();
    assert_eq!(
        restored.localize_batch(dataset.observations()).unwrap(),
        expected
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn unfitted_models_refuse_to_save() {
    let path = temp_path("never-written.vckpt");
    for result in [
        KnnLocalizer::new(3, FeatureMode::MeanChannel).save(&path),
        SherpaLocalizer::new(0).save(&path),
        CnnLocLocalizer::new(0).save(&path),
        WiDeepLocalizer::new(0).save(&path),
        AnvilLocalizer::new(0).save(&path),
    ] {
        assert!(matches!(result, Err(VitalError::NotFitted)));
    }
    assert!(!path.exists());
}

#[test]
fn cross_kind_loads_are_typed_errors() {
    let dataset = tiny_dataset();
    let mut knn = KnnLocalizer::new(3, FeatureMode::MeanChannel);
    knn.fit(&dataset).unwrap();
    let path = temp_path("kind-mismatch.vckpt");
    knn.save(&path).unwrap();

    assert!(matches!(
        SherpaLocalizer::load(&path),
        Err(VitalError::Checkpoint(CheckpointError::WrongKind { .. }))
    ));
    assert!(matches!(
        VitalModel::load(&path),
        Err(VitalError::Checkpoint(CheckpointError::WrongKind { .. }))
    ));
    // The kind dispatcher still restores it as the right type.
    assert_eq!(load_localizer(&path).unwrap().name(), "KNN");
    std::fs::remove_file(&path).ok();
}

#[test]
fn garbage_files_are_typed_errors() {
    let path = temp_path("garbage.vckpt");
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, b"definitely not a checkpoint").unwrap();
    assert!(matches!(
        load_localizer(&path),
        Err(VitalError::Checkpoint(CheckpointError::BadMagic))
    ));
    assert!(matches!(
        load_localizer(&temp_path("missing.vckpt")),
        Err(VitalError::Checkpoint(CheckpointError::Io(_)))
    ));
    std::fs::remove_file(&path).ok();
}
