//! Experiment scaling (quick vs full runs).

/// How much compute the experiments spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Reduced epochs and sweep grids; the default. Suitable for CI and for
    /// verifying the qualitative shape of every figure in minutes.
    #[default]
    Quick,
    /// Full training budgets (closer to the paper's setup, much slower).
    Full,
}

impl Scale {
    /// Parses a `VITAL_SCALE` value: unset or empty is `quick`, `quick` and
    /// `full` are matched case-insensitively.
    ///
    /// # Errors
    /// Returns the offending value for anything else, so a typo cannot run
    /// the wrong budget.
    pub fn parse(value: Option<&str>) -> Result<Self, String> {
        match value.unwrap_or_default().to_lowercase().as_str() {
            "" | "quick" => Ok(Scale::Quick),
            "full" => Ok(Scale::Full),
            other => Err(format!("VITAL_SCALE={other:?} is not quick or full")),
        }
    }

    /// The lowercase name `VITAL_SCALE` uses.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }

    /// Training epochs for the VITAL transformer.
    pub fn vital_epochs(&self) -> usize {
        match self {
            Scale::Quick => 30,
            Scale::Full => 60,
        }
    }

    /// Training epochs for the neural baselines.
    pub fn baseline_epochs(&self) -> usize {
        match self {
            Scale::Quick => 12,
            Scale::Full => 40,
        }
    }

    /// Observations captured per (device, RP) pair.
    pub fn captures_per_rp(&self) -> usize {
        match self {
            Scale::Quick => 1,
            Scale::Full => 2,
        }
    }

    /// RSSI image side length used for VITAL (the paper's 206 is reserved for
    /// the model-footprint experiment; training uses a reduced image).
    pub fn image_size(&self) -> usize {
        match self {
            Scale::Quick => 24,
            Scale::Full => 48,
        }
    }

    /// Patch size paired with [`Scale::image_size`].
    pub fn patch_size(&self) -> usize {
        match self {
            Scale::Quick => 6,
            Scale::Full => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_full_everywhere() {
        let q = Scale::Quick;
        let f = Scale::Full;
        assert!(q.vital_epochs() < f.vital_epochs());
        assert!(q.baseline_epochs() < f.baseline_epochs());
        assert!(q.captures_per_rp() <= f.captures_per_rp());
        assert!(q.image_size() < f.image_size());
    }

    #[test]
    fn default_is_quick() {
        assert_eq!(Scale::default(), Scale::Quick);
        assert_eq!(Scale::parse(None), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("")), Ok(Scale::Quick));
        assert_eq!(Scale::parse(Some("FULL")), Ok(Scale::Full));
        assert_eq!(Scale::parse(Some("full")).map(|s| s.name()), Ok("full"));
        assert!(Scale::parse(Some("ful")).unwrap_err().contains("ful"));
    }

    #[test]
    fn image_and_patch_sizes_tile_cleanly() {
        for s in [Scale::Quick, Scale::Full] {
            assert_eq!(s.image_size() % s.patch_size(), 0);
        }
    }
}
