//! CI checkpoint round-trip: `train` trains a small VITAL model, saves its
//! checkpoint and writes the model's predictions; `verify` — run in a
//! **separate process** — reloads the checkpoint and asserts bit-identical
//! predictions against the recorded ones.
//!
//! ```text
//! checkpoint_roundtrip train  --checkpoint ckpt/vital.vckpt --predictions ckpt/preds.txt
//! checkpoint_roundtrip verify --checkpoint ckpt/vital.vckpt --predictions ckpt/preds.txt
//! ```
//!
//! The evaluation set is rebuilt deterministically from the same seeds in
//! both processes, so any prediction drift isolates to the persistence
//! layer. Exits non-zero (with a diagnostic) on any mismatch.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::smoke::{smoke_dataset, smoke_vital_config};
use fingerprint::FingerprintDataset;
use vital::{Localizer, VitalModel};

/// Deterministic training/evaluation dataset shared by both subcommands.
fn dataset() -> FingerprintDataset {
    smoke_dataset()
}

fn train(checkpoint: &Path, predictions: &Path) -> Result<(), String> {
    let data = dataset();
    let mut model = VitalModel::new(smoke_vital_config()).map_err(|e| e.to_string())?;
    model
        .fit(&data)
        .map_err(|e| format!("training failed: {e}"))?;
    model
        .save(checkpoint)
        .map_err(|e| format!("saving checkpoint failed: {e}"))?;

    let predicted = model
        .localize_batch(data.observations())
        .map_err(|e| format!("prediction failed: {e}"))?;
    let lines: Vec<String> = predicted.iter().map(usize::to_string).collect();
    if let Some(parent) = predictions.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(predictions, lines.join("\n") + "\n")
        .map_err(|e| format!("writing predictions failed: {e}"))?;
    println!(
        "trained VITAL on {} observations; checkpoint {} ({} bytes), {} predictions {}",
        data.len(),
        checkpoint.display(),
        std::fs::metadata(checkpoint).map(|m| m.len()).unwrap_or(0),
        predicted.len(),
        predictions.display()
    );
    Ok(())
}

fn verify(checkpoint: &Path, predictions: &Path) -> Result<(), String> {
    let data = dataset();
    let localizer = baselines::load_localizer(checkpoint)
        .map_err(|e| format!("loading checkpoint failed: {e}"))?;
    let predicted = localizer
        .localize_batch(data.observations())
        .map_err(|e| format!("prediction failed: {e}"))?;

    let recorded: Vec<usize> = std::fs::read_to_string(predictions)
        .map_err(|e| format!("reading predictions failed: {e}"))?
        .lines()
        .map(|l| l.trim().parse::<usize>())
        .collect::<Result<_, _>>()
        .map_err(|e| format!("malformed predictions file: {e}"))?;

    if recorded.len() != predicted.len() {
        return Err(format!(
            "prediction count mismatch: trained process wrote {}, reloaded model produced {}",
            recorded.len(),
            predicted.len()
        ));
    }
    let mismatches: Vec<usize> = recorded
        .iter()
        .zip(&predicted)
        .enumerate()
        .filter(|(_, (a, b))| a != b)
        .map(|(i, _)| i)
        .collect();
    if !mismatches.is_empty() {
        return Err(format!(
            "{} of {} predictions differ after reload (first mismatch at observation {})",
            mismatches.len(),
            recorded.len(),
            mismatches[0]
        ));
    }
    println!(
        "checkpoint round-trip OK: {} ({}) reproduced all {} predictions bit-identically \
         in a separate process",
        checkpoint.display(),
        localizer.name(),
        recorded.len()
    );
    Ok(())
}

fn arg_value(args: &[String], flag: &str) -> Option<PathBuf> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let mode = args.get(1).map(String::as_str);
    let checkpoint = arg_value(&args, "--checkpoint")
        .unwrap_or_else(|| PathBuf::from("checkpoints/roundtrip-vital.vckpt"));
    let predictions = arg_value(&args, "--predictions")
        .unwrap_or_else(|| PathBuf::from("checkpoints/roundtrip-predictions.txt"));

    let result = match mode {
        Some("train") => train(&checkpoint, &predictions),
        Some("verify") => verify(&checkpoint, &predictions),
        _ => Err("usage: checkpoint_roundtrip <train|verify> \
                  [--checkpoint PATH] [--predictions PATH]"
            .to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("checkpoint_roundtrip: {message}");
            ExitCode::FAILURE
        }
    }
}
