//! Training bits are pinned: a hash of `to_checkpoint()`'s bytes for a
//! tiny-config fit of VITAL and of each network baseline, with and without
//! the DAM bolted on.
//!
//! A checkpoint holds every trained weight plus what `fit` derives from
//! them afterwards (ANVIL's centroids, SHERPA's memory, WiDeep's codes), so
//! one hash covers the shuffle, the keyed augmentation and dropout draws,
//! the recording order of every training step, the optimizer and the
//! fit-time eager extraction. The constants were re-taken when the DAM's
//! and the dropout masks' draws became keyed by position; ANVIL and WiDeep
//! without the DAM draw nothing keyed, and theirs did not move. VITAL's
//! were re-taken again when the GELU derivative began to use the
//! forward's tanh instead of libm's `tanhf`; no baseline has a GELU, and
//! theirs did not move. A refactor
//! of the training path passes unchanged or says which bit it moved and
//! why.
//!
//! Scalar, AVX2 and AVX-512 agree bitwise, so the constants hold at every
//! dispatch level.

use baselines::{AnvilLocalizer, CnnLocLocalizer, SherpaLocalizer, WiDeepLocalizer};
use fingerprint::{base_devices, DatasetConfig, FingerprintDataset};
use sim_radio::building_1;
use vital::{Checkpoint, DamConfig, Localizer, VitalConfig, VitalModel};

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
    let subset: Vec<_> = dataset
        .observations()
        .iter()
        .filter(|o| o.rp_label < 10)
        .cloned()
        .collect();
    FingerprintDataset::from_observations(dataset.building(), dataset.num_aps(), 10, subset)
}

/// FNV-1a over the checkpoint's on-disk bytes.
fn hash(checkpoint: vital::Result<Checkpoint>) -> u64 {
    let bytes = checkpoint.unwrap().to_bytes().unwrap();
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Fits the plain and the DAM variant and compares each checkpoint hash
/// with its pinned constant.
fn assert_pinned<L: Localizer>(
    name: &str,
    build: impl Fn(Option<DamConfig>) -> L,
    checkpoint: impl Fn(&L) -> vital::Result<Checkpoint>,
    pinned: [u64; 2],
) {
    let dataset = tiny_dataset();
    let got = [None, Some(DamConfig::default())].map(|dam| {
        let mut localizer = build(dam);
        localizer.fit(&dataset).unwrap();
        hash(checkpoint(&localizer))
    });
    assert_eq!(
        got, pinned,
        "{name}: training bits moved; checkpoint hashes (plain, with DAM) are {got:#018x?}"
    );
}

#[test]
fn vital_training_bits_are_pinned() {
    // VITAL always carries its DAM; the two variants are augmentation off
    // and on.
    assert_pinned(
        "VITAL",
        |dam| {
            let mut config = VitalConfig::fast(building_1().access_points().len(), 10);
            config.image_size = 16;
            config.patch_size = 4;
            config.d_model = 24;
            config.msa_heads = 4;
            config.train.epochs = 2;
            config.train.batch_size = 8;
            if dam.is_none() {
                config.dam.dropout_rate = 0.0;
                config.dam.noise_std = 0.0;
            }
            VitalModel::new(config).unwrap()
        },
        VitalModel::to_checkpoint,
        [0x469d_1b45_58d1_63df, 0xcca7_34cb_666d_ba72],
    );
}

#[test]
fn anvil_training_bits_are_pinned() {
    assert_pinned(
        "ANVIL",
        |dam| AnvilLocalizer::new(14).with_dam(dam).with_epochs(2),
        AnvilLocalizer::to_checkpoint,
        // Re-taken when the checkpoint gained its `num_aps` entry; the same
        // fit saved without that entry hashes to the earlier
        // [0xc24e_3a15_4c35_80c1, 0xb300_fbf1_fd9f_8c0c].
        [0xbd87_9d59_68f7_cd85, 0x141b_2a9f_3c17_fbac],
    );
}

#[test]
fn sherpa_training_bits_are_pinned() {
    assert_pinned(
        "SHERPA",
        |dam| SherpaLocalizer::new(11).with_dam(dam).with_epochs(2),
        SherpaLocalizer::to_checkpoint,
        [0x550c_f9fc_aa8d_872d, 0xbe99_b4f7_2067_d77f],
    );
}

#[test]
fn cnnloc_training_bits_are_pinned() {
    assert_pinned(
        "CNNLoc",
        |dam| {
            CnnLocLocalizer::new(13)
                .with_dam(dam)
                .with_epochs(2)
                .with_pretrain_epochs(2)
        },
        CnnLocLocalizer::to_checkpoint,
        [0x1a95_bca2_cedc_4eea, 0x9a8c_9922_f0ad_fe6a],
    );
}

#[test]
fn wideep_training_bits_are_pinned() {
    assert_pinned(
        "WiDeep",
        |dam| {
            WiDeepLocalizer::new(12)
                .with_dam(dam)
                .with_pretrain_epochs(2)
        },
        WiDeepLocalizer::to_checkpoint,
        [0xe20b_5c08_cb07_8a2d, 0xb852_11e8_d0aa_3c36],
    );
}
