#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::indexing_slicing))]
#![cfg_attr(not(test), deny(clippy::disallowed_macros))]
//! Versioned model checkpoints: the persistence envelope shared by VITAL
//! and every baseline localizer.
//!
//! # File layout
//!
//! ```text
//! ┌──────────────┬───────────────┬──────────────────────────────┐
//! │ magic (8 B)  │ version (u32) │ Checkpoint fields            │
//! │ "VITALCKP"   │ little-endian │ (kind, configs, states, ...) │
//! └──────────────┴───────────────┴──────────────────────────────┘
//! ```
//!
//! The fields follow in [`binio`]'s primitives (little-endian integers,
//! floats as raw bits, a string as its `u64` length and UTF-8 bytes). A
//! struct opens with its field-count byte and a list or table with its
//! `u64` length:
//!
//! | field | encoding |
//! |---|---|
//! | envelope | count `8`, then the eight rows below |
//! | kind | [`ModelKind`] index, `u32` |
//! | VITAL config | `0`, or `1` and count `11`: seven `u64`s (`num_aps` … `encoder_blocks`), the `u64` lists `encoder_mlp_hidden` and `head_hidden`, the DAM config and the training config (count `5`: `u64 u64 f32 f32 u64`) |
//! | DAM config | `0`, or `1` and count `3`: `normalize` byte, `f32`, `f32` |
//! | scalars, ints, texts, tensors, states | a table of `(name, value)`: `f64`; `u64` list; string; tensor; table of `(name, tensor)` |
//! | tensor | count `2`, `u64` rank, `u64` dims, `u64` length, raw `f32` bits |
//!
//! The header is parsed before any payload decoding, so foreign files fail
//! with [`CheckpointError::BadMagic`] and files from a future format fail
//! with [`CheckpointError::UnsupportedVersion`] — both typed, never a
//! panic. Payload corruption surfaces as [`CheckpointError::Corrupt`]. No
//! length is allocated before the input is known to hold it: a tensor's
//! volume is multiplied out with checked arithmetic and its `4·volume`
//! bytes must remain before its data is read.
//!
//! # Version policy
//!
//! [`CHECKPOINT_VERSION`] is bumped on any wire-incompatible change to the
//! envelope or to the tensor encoding. Readers accept exactly the current
//! version; there is no silent migration — a version bump is an explicit
//! "retrain or convert" event.
//!
//! # Example
//!
//! ```no_run
//! use vital::{Checkpoint, ModelKind};
//!
//! # fn main() -> Result<(), vital::VitalError> {
//! let mut ckpt = Checkpoint::new(ModelKind::Knn);
//! ckpt.push_scalar("k", 3.0);
//! ckpt.write_to("knn.vckpt".as_ref())?;
//! let back = Checkpoint::read_from("knn.vckpt".as_ref())?;
//! assert_eq!(back.kind(), ModelKind::Knn);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use binio::{BinError, Reader, Writer};
use tensor::Tensor;

use crate::{DamConfig, Result, TrainConfig, VitalConfig, VitalError};

/// Leading bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"VITALCKP";

/// Current checkpoint format version (see the module docs for the policy).
pub const CHECKPOINT_VERSION: u32 = 1;

/// The field-count byte each struct opens with (version 1's layout).
const CHECKPOINT_FIELDS: u8 = 8;
const VITAL_CONFIG_FIELDS: u8 = 11;
const DAM_CONFIG_FIELDS: u8 = 3;
const TRAIN_CONFIG_FIELDS: u8 = 5;
const TENSOR_FIELDS: u8 = 2;

/// The fewest bytes a tensor occupies: its count byte, rank and length.
const TENSOR_MIN_BYTES: usize = 17;

/// Which localizer family a checkpoint belongs to.
///
/// The discriminant is part of the wire format: variants must only ever be
/// appended, never reordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// The VITAL vision-transformer model.
    Vital,
    /// K-nearest-neighbour fingerprint matching (incl. SSD/HLF variants).
    Knn,
    /// SHERPA: DNN classifier + KNN refinement.
    Sherpa,
    /// CNNLoc: stacked autoencoder + 1-D CNN classifier.
    CnnLoc,
    /// WiDeep: denoising autoencoder + Gaussian-kernel classifier.
    WiDeep,
    /// ANVIL: attention encoder + Euclidean centroid matching.
    Anvil,
}

impl ModelKind {
    /// Stable display name (matches the `Localizer::name` family).
    pub fn as_str(&self) -> &'static str {
        match self {
            ModelKind::Vital => "VITAL",
            ModelKind::Knn => "KNN",
            ModelKind::Sherpa => "SHERPA",
            ModelKind::CnnLoc => "CNNLoc",
            ModelKind::WiDeep => "WiDeep",
            ModelKind::Anvil => "ANVIL",
        }
    }

    /// The kind whose discriminant is `index`.
    fn from_index(index: u32) -> Option<Self> {
        Some(match index {
            0 => ModelKind::Vital,
            1 => ModelKind::Knn,
            2 => ModelKind::Sherpa,
            3 => ModelKind::CnnLoc,
            4 => ModelKind::WiDeep,
            5 => ModelKind::Anvil,
            _ => return None,
        })
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Typed failures of checkpoint encoding, decoding and validation.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// The file does not start with [`CHECKPOINT_MAGIC`].
    BadMagic,
    /// The file was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this build supports.
        supported: u32,
    },
    /// The checkpoint holds a different model kind than the loader expects.
    WrongKind {
        /// Kind the loading model requires.
        expected: ModelKind,
        /// Kind recorded in the checkpoint.
        found: ModelKind,
    },
    /// A named entry (config, scalar, tensor or state dict) is absent.
    MissingEntry {
        /// Name of the absent entry.
        entry: String,
    },
    /// The payload failed to decode (truncation, corruption, type drift).
    Corrupt(String),
    /// Reading or writing the checkpoint file failed.
    Io(String),
    /// The model type does not implement persistence.
    Unsupported {
        /// Name of the model type.
        model: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::BadMagic => {
                write!(f, "not a VITAL checkpoint (bad magic bytes)")
            }
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "checkpoint format version {found} is not supported (this build reads \
                 version {supported})"
            ),
            CheckpointError::WrongKind { expected, found } => {
                write!(f, "checkpoint holds a {found} model, expected {expected}")
            }
            CheckpointError::MissingEntry { entry } => {
                write!(f, "checkpoint is missing entry {entry:?}")
            }
            CheckpointError::Corrupt(msg) => write!(f, "corrupt checkpoint payload: {msg}"),
            CheckpointError::Io(msg) => write!(f, "checkpoint I/O failed: {msg}"),
            CheckpointError::Unsupported { model } => {
                write!(f, "model {model} does not support checkpointing")
            }
        }
    }
}

impl Error for CheckpointError {}

impl From<CheckpointError> for VitalError {
    fn from(e: CheckpointError) -> Self {
        VitalError::Checkpoint(e)
    }
}

/// The persistence envelope for one trained localizer.
///
/// A checkpoint carries the model kind, the VITAL/DAM configurations where
/// applicable, and a set of *named* payload entries: whole-layer state
/// dicts, standalone tensors, integer arrays, floating-point scalars and
/// strings. Models decide which entries they need; the envelope only
/// guarantees typed, validated round-trips.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    kind: ModelKind,
    vital_config: Option<VitalConfig>,
    dam_config: Option<DamConfig>,
    scalars: Vec<(String, f64)>,
    ints: Vec<(String, Vec<u64>)>,
    texts: Vec<(String, String)>,
    tensors: Vec<(String, Tensor)>,
    states: Vec<(String, Vec<(String, Tensor)>)>,
}

impl Checkpoint {
    /// Creates an empty checkpoint for a model kind.
    pub fn new(kind: ModelKind) -> Self {
        Checkpoint {
            kind,
            vital_config: None,
            dam_config: None,
            scalars: Vec::new(),
            ints: Vec::new(),
            texts: Vec::new(),
            tensors: Vec::new(),
            states: Vec::new(),
        }
    }

    /// The model kind this checkpoint holds.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Validates that the checkpoint holds `expected`.
    ///
    /// # Errors
    /// Returns [`CheckpointError::WrongKind`] otherwise.
    pub fn expect_kind(&self, expected: ModelKind) -> Result<()> {
        if self.kind != expected {
            return Err(CheckpointError::WrongKind {
                expected,
                found: self.kind,
            }
            .into());
        }
        Ok(())
    }

    /// Stores the VITAL model configuration.
    pub fn set_vital_config(&mut self, config: VitalConfig) {
        self.vital_config = Some(config);
    }

    /// The stored VITAL configuration.
    ///
    /// # Errors
    /// Returns [`CheckpointError::MissingEntry`] if absent.
    pub fn vital_config(&self) -> Result<&VitalConfig> {
        self.vital_config.as_ref().ok_or_else(|| {
            CheckpointError::MissingEntry {
                entry: "vital_config".into(),
            }
            .into()
        })
    }

    /// Stores the DAM configuration used by the model's feature pipeline
    /// (`None` means the model runs without DAM).
    pub fn set_dam_config(&mut self, config: Option<DamConfig>) {
        self.dam_config = config;
    }

    /// The stored DAM configuration, if any.
    pub fn dam_config(&self) -> Option<&DamConfig> {
        self.dam_config.as_ref()
    }

    /// Adds a named floating-point scalar (hyperparameters, flags).
    pub fn push_scalar(&mut self, name: impl Into<String>, value: f64) {
        self.scalars.push((name.into(), value));
    }

    /// Reads a named scalar back.
    ///
    /// # Errors
    /// Returns [`CheckpointError::MissingEntry`] if absent.
    pub fn scalar(&self, name: &str) -> Result<f64> {
        lookup(&self.scalars, name).copied()
    }

    /// Adds a named integer array (labels, seeds, masks).
    pub fn push_ints(&mut self, name: impl Into<String>, values: Vec<u64>) {
        self.ints.push((name.into(), values));
    }

    /// Reads a named integer array back.
    ///
    /// # Errors
    /// Returns [`CheckpointError::MissingEntry`] if absent.
    pub fn ints(&self, name: &str) -> Result<&[u64]> {
        lookup(&self.ints, name).map(Vec::as_slice)
    }

    /// Reads a named integer array back as `usize`s (labels).
    ///
    /// # Errors
    /// Returns [`CheckpointError::MissingEntry`] if absent or
    /// [`CheckpointError::Corrupt`] if any value does not fit `usize`.
    pub fn usizes(&self, name: &str) -> Result<Vec<usize>> {
        self.ints(name)?
            .iter()
            .map(|&v| {
                usize::try_from(v).map_err(|_| {
                    CheckpointError::Corrupt(format!("{name}: value {v} does not fit usize")).into()
                })
            })
            .collect()
    }

    /// Adds a named string (feature-mode tags, device names).
    pub fn push_text(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.texts.push((name.into(), value.into()));
    }

    /// Reads a named string back.
    ///
    /// # Errors
    /// Returns [`CheckpointError::MissingEntry`] if absent.
    pub fn text(&self, name: &str) -> Result<&str> {
        lookup(&self.texts, name).map(String::as_str)
    }

    /// Adds a named standalone tensor (fingerprint stores, centroids).
    pub fn push_tensor(&mut self, name: impl Into<String>, value: Tensor) {
        self.tensors.push((name.into(), value));
    }

    /// Reads a named tensor back.
    ///
    /// # Errors
    /// Returns [`CheckpointError::MissingEntry`] if absent.
    pub fn tensor(&self, name: &str) -> Result<&Tensor> {
        lookup(&self.tensors, name)
    }

    /// Adds a named layer state dict (the `nn::Layer::state_dict`
    /// snapshot of one network stage).
    pub fn push_state(&mut self, name: impl Into<String>, state: Vec<(String, Tensor)>) {
        self.states.push((name.into(), state));
    }

    /// Reads a named state dict back.
    ///
    /// # Errors
    /// Returns [`CheckpointError::MissingEntry`] if absent.
    pub fn state(&self, name: &str) -> Result<&[(String, Tensor)]> {
        lookup(&self.states, name).map(Vec::as_slice)
    }

    /// Serializes the checkpoint into its on-disk byte form (header +
    /// fields, laid out as the module docs describe).
    ///
    /// # Errors
    /// None: encoding into memory cannot fail.
    pub fn to_bytes(&self) -> Result<Vec<u8>> {
        let mut w = Writer::new();
        w.bytes(&CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION);
        w.u8(CHECKPOINT_FIELDS);
        w.u32(self.kind as u32);
        write_option(&mut w, self.vital_config.as_ref(), write_vital_config);
        write_option(&mut w, self.dam_config.as_ref(), write_dam_config);
        write_table(&mut w, &self.scalars, |w, &v| w.f64(v));
        write_table(&mut w, &self.ints, |w, values| {
            w.usize(values.len());
            values.iter().for_each(|&v| w.u64(v));
        });
        write_table(&mut w, &self.texts, |w, text| w.str(text));
        write_table(&mut w, &self.tensors, write_tensor);
        write_table(&mut w, &self.states, |w, state| {
            write_table(w, state, write_tensor)
        });
        Ok(w.into_bytes())
    }

    /// Parses a checkpoint from its on-disk byte form, validating magic and
    /// version before touching the payload.
    ///
    /// # Errors
    /// Returns [`CheckpointError::BadMagic`],
    /// [`CheckpointError::UnsupportedVersion`] or
    /// [`CheckpointError::Corrupt`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = Reader::new(bytes);
        let version = match (r.bytes(CHECKPOINT_MAGIC.len()), r.u32()) {
            (Ok(magic), Ok(version)) if magic == CHECKPOINT_MAGIC => version,
            _ => return Err(CheckpointError::BadMagic.into()),
        };
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::UnsupportedVersion {
                found: version,
                supported: CHECKPOINT_VERSION,
            }
            .into());
        }
        read_checkpoint(&mut r)
            .and_then(|ckpt| r.finish().map(|()| ckpt))
            .map_err(|e| CheckpointError::Corrupt(e.to_string()).into())
    }

    /// Writes the checkpoint to `path`, creating parent directories.
    ///
    /// The write is atomic (temp file + rename in the target directory),
    /// so an interrupted save never leaves a truncated checkpoint behind
    /// for later runs to trip over.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] on filesystem failures.
    pub fn write_to(&self, path: &Path) -> Result<()> {
        let bytes = self.to_bytes()?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)
                    .map_err(|e| CheckpointError::Io(format!("{}: {e}", parent.display())))?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(format!(".tmp.{}", std::process::id()));
        let tmp = PathBuf::from(tmp);
        fs::write(&tmp, bytes)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", tmp.display())))?;
        fs::rename(&tmp, path).map_err(|e| {
            fs::remove_file(&tmp).ok();
            CheckpointError::Io(format!("{}: {e}", path.display())).into()
        })
    }

    /// Reads a checkpoint from `path`.
    ///
    /// # Errors
    /// Returns [`CheckpointError::Io`] on filesystem failures and the
    /// [`Checkpoint::from_bytes`] errors on malformed content.
    pub fn read_from(path: &Path) -> Result<Self> {
        let bytes =
            fs::read(path).map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Checkpoint::from_bytes(&bytes)
    }
}

fn lookup<'a, T>(entries: &'a [(String, T)], name: &str) -> Result<&'a T> {
    entries
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .ok_or_else(|| {
            CheckpointError::MissingEntry {
                entry: name.to_string(),
            }
            .into()
        })
}

fn write_option<T>(w: &mut Writer, value: Option<&T>, write: impl FnOnce(&mut Writer, &T)) {
    w.bool(value.is_some());
    if let Some(value) = value {
        write(w, value);
    }
}

fn write_table<T>(w: &mut Writer, entries: &[(String, T)], mut write: impl FnMut(&mut Writer, &T)) {
    w.usize(entries.len());
    for (name, value) in entries {
        w.str(name);
        write(w, value);
    }
}

fn write_usizes(w: &mut Writer, values: &[usize]) {
    w.usize(values.len());
    values.iter().for_each(|&v| w.usize(v));
}

fn write_vital_config(w: &mut Writer, c: &VitalConfig) {
    w.u8(VITAL_CONFIG_FIELDS);
    let dims = [
        c.num_aps,
        c.num_classes,
        c.image_size,
        c.patch_size,
        c.d_model,
        c.msa_heads,
        c.encoder_blocks,
    ];
    dims.iter().for_each(|&v| w.usize(v));
    write_usizes(w, &c.encoder_mlp_hidden);
    write_usizes(w, &c.head_hidden);
    write_dam_config(w, &c.dam);
    w.u8(TRAIN_CONFIG_FIELDS);
    w.usize(c.train.epochs);
    w.usize(c.train.batch_size);
    w.f32(c.train.learning_rate);
    w.f32(c.train.dropout);
    w.u64(c.train.seed);
}

fn write_dam_config(w: &mut Writer, c: &DamConfig) {
    w.u8(DAM_CONFIG_FIELDS);
    w.bool(c.normalize);
    w.f32(c.dropout_rate);
    w.f32(c.noise_std);
}

fn write_tensor(w: &mut Writer, t: &Tensor) {
    w.u8(TENSOR_FIELDS);
    write_usizes(w, t.shape().dims());
    w.usize(t.len());
    w.f32s(t.as_slice());
}

type Decoded<T> = std::result::Result<T, BinError>;

fn read_checkpoint(r: &mut Reader<'_>) -> Decoded<Checkpoint> {
    r.fields("Checkpoint", CHECKPOINT_FIELDS)?;
    let index = r.u32()?;
    let kind = ModelKind::from_index(index)
        .ok_or_else(|| BinError::InvalidData(format!("unknown ModelKind variant {index}")))?;
    Ok(Checkpoint {
        kind,
        vital_config: read_option(r, read_vital_config)?,
        dam_config: read_option(r, read_dam_config)?,
        scalars: read_table(r, 8, Reader::f64)?,
        ints: read_table(r, 8, |r| read_seq(r, 8, Reader::u64))?,
        texts: read_table(r, 8, Reader::str)?,
        tensors: read_table(r, TENSOR_MIN_BYTES, read_tensor)?,
        states: read_table(r, 8, |r| read_table(r, TENSOR_MIN_BYTES, read_tensor))?,
    })
}

fn read_option<'a, T>(
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Option<T>> {
    if r.bool()? {
        read(r).map(Some)
    } else {
        Ok(None)
    }
}

/// A `u64`-counted sequence whose every item takes at least `min_bytes`,
/// so its count is checked against the input before it is reserved.
fn read_seq<'a, T>(
    r: &mut Reader<'a>,
    min_bytes: usize,
    mut read: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<T>> {
    let len = r.len(min_bytes)?;
    let mut items = Vec::with_capacity(len);
    for _ in 0..len {
        items.push(read(r)?);
    }
    Ok(items)
}

/// A table of `(name, value)` entries, each value at least `min_bytes`.
fn read_table<'a, T>(
    r: &mut Reader<'a>,
    min_bytes: usize,
    mut read: impl FnMut(&mut Reader<'a>) -> Decoded<T>,
) -> Decoded<Vec<(String, T)>> {
    read_seq(r, 8 + min_bytes, |r| Ok((r.str()?, read(r)?)))
}

fn read_vital_config(r: &mut Reader<'_>) -> Decoded<VitalConfig> {
    r.fields("VitalConfig", VITAL_CONFIG_FIELDS)?;
    Ok(VitalConfig {
        num_aps: r.usize()?,
        num_classes: r.usize()?,
        image_size: r.usize()?,
        patch_size: r.usize()?,
        d_model: r.usize()?,
        msa_heads: r.usize()?,
        encoder_blocks: r.usize()?,
        encoder_mlp_hidden: read_seq(r, 8, Reader::usize)?,
        head_hidden: read_seq(r, 8, Reader::usize)?,
        dam: read_dam_config(r)?,
        train: read_train_config(r)?,
    })
}

fn read_dam_config(r: &mut Reader<'_>) -> Decoded<DamConfig> {
    r.fields("DamConfig", DAM_CONFIG_FIELDS)?;
    Ok(DamConfig {
        normalize: r.bool()?,
        dropout_rate: r.f32()?,
        noise_std: r.f32()?,
    })
}

fn read_train_config(r: &mut Reader<'_>) -> Decoded<TrainConfig> {
    r.fields("TrainConfig", TRAIN_CONFIG_FIELDS)?;
    Ok(TrainConfig {
        epochs: r.usize()?,
        batch_size: r.usize()?,
        learning_rate: r.f32()?,
        dropout: r.f32()?,
        seed: r.u64()?,
    })
}

/// Rebuilds a tensor from its shape and data. The volume is multiplied out
/// with checked arithmetic and must equal the stored length, and
/// [`Reader::f32s`] allocates only once `4·volume` bytes are known to
/// remain.
fn read_tensor(r: &mut Reader<'_>) -> Decoded<Tensor> {
    r.fields("Tensor", TENSOR_FIELDS)?;
    let dims = read_seq(r, 8, Reader::usize)?;
    let volume = dims
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or_else(|| {
            BinError::InvalidData(format!("tensor shape {dims:?} volume overflows usize"))
        })?;
    let len = r.usize()?;
    if len != volume {
        return Err(BinError::InvalidData(format!(
            "tensor data length {len} does not match shape {dims:?} volume {volume}"
        )));
    }
    let data = r.f32s(volume)?;
    Tensor::from_vec(data, &dims).map_err(|e| BinError::InvalidData(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut ckpt = Checkpoint::new(ModelKind::Sherpa);
        ckpt.set_dam_config(Some(DamConfig::default()));
        ckpt.push_scalar("seed", 7.0);
        ckpt.push_ints("labels", vec![0, 1, 2, 1]);
        ckpt.push_text("mode", "MeanChannel");
        ckpt.push_tensor("memory", Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).unwrap());
        ckpt.push_state(
            "network",
            vec![
                ("w".into(), Tensor::ones(&[2, 2])),
                ("b".into(), Tensor::zeros(&[2])),
            ],
        );
        ckpt
    }

    #[test]
    fn envelope_round_trips() {
        let ckpt = sample();
        let bytes = ckpt.to_bytes().unwrap();
        assert_eq!(&bytes[..8], b"VITALCKP");
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, ckpt);
        assert_eq!(back.kind(), ModelKind::Sherpa);
        assert_eq!(back.scalar("seed").unwrap(), 7.0);
        assert_eq!(back.usizes("labels").unwrap(), vec![0, 1, 2, 1]);
        assert_eq!(back.text("mode").unwrap(), "MeanChannel");
        assert_eq!(back.tensor("memory").unwrap().shape().dims(), &[1, 2]);
        assert_eq!(back.state("network").unwrap().len(), 2);
        assert!(back.dam_config().is_some());
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[0] = b'X';
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(VitalError::Checkpoint(CheckpointError::BadMagic))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(b"short"),
            Err(VitalError::Checkpoint(CheckpointError::BadMagic))
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = sample().to_bytes().unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Checkpoint::from_bytes(&bytes),
            Err(VitalError::Checkpoint(
                CheckpointError::UnsupportedVersion {
                    found: 99,
                    supported: CHECKPOINT_VERSION,
                }
            ))
        ));
    }

    #[test]
    fn truncated_payload_is_corrupt_not_panic() {
        let bytes = sample().to_bytes().unwrap();
        for cut in 12..bytes.len() {
            assert!(matches!(
                Checkpoint::from_bytes(&bytes[..cut]),
                Err(VitalError::Checkpoint(CheckpointError::Corrupt(_)))
            ));
        }
    }

    #[test]
    fn kind_and_entry_validation() {
        let ckpt = sample();
        assert!(ckpt.expect_kind(ModelKind::Sherpa).is_ok());
        assert!(matches!(
            ckpt.expect_kind(ModelKind::Vital),
            Err(VitalError::Checkpoint(CheckpointError::WrongKind { .. }))
        ));
        assert!(matches!(
            ckpt.scalar("nope"),
            Err(VitalError::Checkpoint(CheckpointError::MissingEntry { .. }))
        ));
        assert!(matches!(
            ckpt.vital_config(),
            Err(VitalError::Checkpoint(CheckpointError::MissingEntry { .. }))
        ));
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let dir = std::env::temp_dir().join("vital-ckpt-test");
        let path = dir.join("nested/sample.vckpt");
        let ckpt = sample();
        ckpt.write_to(&path).unwrap();
        let back = Checkpoint::read_from(&path).unwrap();
        assert_eq!(back, ckpt);
        std::fs::remove_dir_all(&dir).ok();

        assert!(matches!(
            Checkpoint::read_from(Path::new("/nonexistent/definitely/missing.vckpt")),
            Err(VitalError::Checkpoint(CheckpointError::Io(_)))
        ));
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Vital.to_string(), "VITAL");
        assert_eq!(ModelKind::CnnLoc.as_str(), "CNNLoc");
    }

    #[test]
    fn every_model_kind_reads_back_from_its_index() {
        for index in 0..6 {
            let kind = ModelKind::from_index(index).unwrap();
            assert_eq!(kind as u32, index);
            let mut bytes = Checkpoint::new(kind).to_bytes().unwrap();
            assert_eq!(Checkpoint::from_bytes(&bytes).unwrap().kind(), kind);
            bytes[13..17].copy_from_slice(&6u32.to_le_bytes());
            assert!(matches!(
                Checkpoint::from_bytes(&bytes),
                Err(VitalError::Checkpoint(CheckpointError::Corrupt(_)))
            ));
        }
    }

    #[test]
    fn errors_display() {
        assert!(CheckpointError::BadMagic.to_string().contains("magic"));
        assert!(CheckpointError::UnsupportedVersion {
            found: 9,
            supported: 1
        }
        .to_string()
        .contains('9'));
        assert!(CheckpointError::WrongKind {
            expected: ModelKind::Vital,
            found: ModelKind::Knn
        }
        .to_string()
        .contains("KNN"));
        assert!(CheckpointError::Unsupported {
            model: "Constant".into()
        }
        .to_string()
        .contains("Constant"));
    }
}
