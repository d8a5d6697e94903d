//! Model registry: discovers versioned checkpoints in a directory and owns
//! the loaded [`Localizer`]s.
//!
//! Localizers are `Send + Sync` (the `Localizer` trait requires it, and
//! their weights live in `Arc`-backed tensor storage), so the registry is
//! built **once, on the main thread**, wrapped in an [`std::sync::Arc`],
//! and shared read-only by every dispatch worker — N workers run
//! `localize_batch` concurrently against the *same* weight allocations with
//! no locks, no copies and no per-thread materialization. Each checkpoint
//! file is read and parsed exactly once, at startup.

use std::path::Path;

use vital::Localizer;

/// Checkpoint file extension the registry scans for.
pub const CHECKPOINT_EXT: &str = "vckpt";

/// The loaded models, shared by every dispatch worker and the HTTP layer.
pub struct Registry {
    /// `(name, kind, model)`; sorted by name when loaded from a directory.
    models: Vec<(String, String, Box<dyn Localizer>)>,
    /// `(name, error)` for checkpoints that failed to load. A corrupt
    /// checkpoint degrades that one model — reported by `GET /v1/models`
    /// and warned at boot — instead of aborting the whole server.
    degraded: Vec<(String, String)>,
}

impl Registry {
    /// Wraps already-constructed localizers (tests, embedded use). The
    /// advertised kind is each model's [`Localizer::name`].
    pub fn from_models(models: Vec<(String, Box<dyn Localizer>)>) -> Self {
        Registry {
            models: models
                .into_iter()
                .map(|(name, model)| {
                    let kind = model.name().to_string();
                    (name, kind, model)
                })
                .collect(),
            degraded: Vec::new(),
        }
    }

    /// Loads every `*.vckpt` checkpoint in `dir` (any of the six localizer
    /// kinds). Models are served under their file stem, sorted by name.
    ///
    /// A checkpoint that cannot be read or parsed **degrades that model**
    /// (recorded in [`degraded`], skipped from serving) rather than
    /// aborting the boot — one corrupt file must not take down the models
    /// that are fine.
    ///
    /// [`degraded`]: Registry::degraded
    ///
    /// # Errors
    /// A readable-English message when the directory cannot be read, no
    /// checkpoint is found at all, or *every* checkpoint failed to load.
    pub fn from_checkpoint_dir(dir: &Path) -> Result<Self, String> {
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("cannot read checkpoint dir {}: {e}", dir.display()))?;
        let mut models: Vec<(String, String, Box<dyn Localizer>)> = Vec::new();
        let mut degraded: Vec<(String, String)> = Vec::new();
        for entry in entries {
            let path = entry
                .map_err(|e| format!("cannot read checkpoint dir {}: {e}", dir.display()))?
                .path();
            if path.extension().and_then(|e| e.to_str()) != Some(CHECKPOINT_EXT) {
                continue;
            }
            let Some(name) = path.file_stem().and_then(|s| s.to_str()).map(String::from) else {
                degraded.push((
                    path.display().to_string(),
                    "checkpoint file has no UTF-8 stem to serve it under".to_string(),
                ));
                continue;
            };
            match load_checkpoint(&path) {
                Ok((kind, localizer)) => models.push((name, kind, localizer)),
                Err(error) => degraded.push((name, error)),
            }
        }
        if models.is_empty() && degraded.is_empty() {
            return Err(format!(
                "no *.{CHECKPOINT_EXT} checkpoints found in {}",
                dir.display()
            ));
        }
        if models.is_empty() {
            let failures: Vec<String> = degraded
                .iter()
                .map(|(name, error)| format!("{name}: {error}"))
                .collect();
            return Err(format!(
                "every checkpoint in {} failed to load — {}",
                dir.display(),
                failures.join("; ")
            ));
        }
        models.sort_by(|a, b| a.0.cmp(&b.0));
        degraded.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(Registry { models, degraded })
    }

    /// `(name, error)` for checkpoints that failed to load — surfaced in
    /// `GET /v1/models` and as boot warnings.
    pub fn degraded(&self) -> &[(String, String)] {
        &self.degraded
    }

    /// `(name, kind, num_aps)` of each hosted model, for `GET /v1/models`
    /// and request validation ([`Localizer::num_aps`] is the access-point
    /// count the model's input contract asks of every observation).
    pub fn catalog(&self) -> Vec<(String, String, usize)> {
        self.models
            .iter()
            .map(|(name, kind, model)| (name.clone(), kind.clone(), model.num_aps()))
            .collect()
    }

    /// Number of hosted models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Returns `true` when no models are hosted.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Looks a model up by name; `None` selects the server's only model and
    /// fails when several are hosted.
    pub fn get(&self, name: Option<&str>) -> Option<&dyn Localizer> {
        match name {
            Some(name) => self
                .models
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, l)| l.as_ref()),
            None => match self.models.as_slice() {
                [(_, _, only)] => Some(only.as_ref()),
                _ => None,
            },
        }
    }
}

/// Reads, parses and instantiates one checkpoint. Every failure comes
/// back as a message so the caller can degrade the single model instead
/// of the whole boot.
fn load_checkpoint(path: &Path) -> Result<(String, Box<dyn Localizer>), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read checkpoint file: {e}"))?;
    let ckpt = vital::Checkpoint::from_bytes(&bytes)
        .map_err(|e| format!("cannot parse checkpoint: {e}"))?;
    let kind = ckpt.kind().as_str().to_string();
    baselines::localizer_from_checkpoint(&ckpt)
        .map(|localizer| (kind, localizer))
        .map_err(|e| format!("cannot instantiate model: {e}"))
}
