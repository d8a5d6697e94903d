//! Localization-error metrics.

/// The localization errors (in metres) of one evaluation run, with the
/// summary statistics reported throughout the paper's evaluation
/// (min / mean / max, Figs. 7, 8, 10).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LocalizationReport {
    errors_m: Vec<f32>,
}

impl LocalizationReport {
    /// Creates a report from per-sample localization errors in metres.
    pub fn new(errors_m: Vec<f32>) -> Self {
        LocalizationReport { errors_m }
    }

    /// The raw per-sample errors.
    pub fn errors_m(&self) -> &[f32] {
        &self.errors_m
    }

    /// Number of evaluated samples.
    pub fn len(&self) -> usize {
        self.errors_m.len()
    }

    /// Returns `true` when the report has no samples.
    pub fn is_empty(&self) -> bool {
        self.errors_m.is_empty()
    }

    /// Mean localization error in metres (0 for an empty report).
    pub fn mean_error_m(&self) -> f32 {
        if self.errors_m.is_empty() {
            return 0.0;
        }
        self.errors_m.iter().sum::<f32>() / self.errors_m.len() as f32
    }

    /// Minimum localization error in metres.
    pub fn min_error_m(&self) -> f32 {
        self.errors_m.iter().cloned().fold(f32::INFINITY, f32::min)
    }

    /// Maximum localization error in metres.
    pub fn max_error_m(&self) -> f32 {
        self.errors_m.iter().cloned().fold(0.0, f32::max)
    }

    /// Median localization error in metres.
    pub fn median_error_m(&self) -> f32 {
        self.percentile_m(50.0)
    }

    /// The `p`-th percentile (0–100) of the error distribution, by nearest
    /// rank.
    pub fn percentile_m(&self, p: f32) -> f32 {
        if self.errors_m.is_empty() {
            return 0.0;
        }
        let mut sorted = self.errors_m.clone();
        sorted.sort_by(f32::total_cmp);
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f32).round() as usize;
        sorted[rank]
    }

    /// Fraction of samples classified exactly on the correct reference point
    /// (error == 0 m).
    pub fn exact_hit_rate(&self) -> f32 {
        if self.errors_m.is_empty() {
            return 0.0;
        }
        self.errors_m.iter().filter(|e| **e < 1e-6).count() as f32 / self.errors_m.len() as f32
    }

    /// Merges several reports (e.g. the per-building reports of Fig. 8) into
    /// one pooled report.
    pub fn merged<'a>(reports: impl IntoIterator<Item = &'a LocalizationReport>) -> Self {
        let mut errors = Vec::new();
        for r in reports {
            errors.extend_from_slice(&r.errors_m);
        }
        LocalizationReport::new(errors)
    }

    /// Relative improvement of this report's mean error over `other`'s, as a
    /// fraction (e.g. `0.41` = 41 % lower mean error).
    pub fn improvement_over(&self, other: &LocalizationReport) -> f32 {
        let theirs = other.mean_error_m();
        if theirs <= f32::EPSILON {
            return 0.0;
        }
        (theirs - self.mean_error_m()) / theirs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        let r = LocalizationReport::new(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.len(), 5);
        assert_eq!(r.mean_error_m(), 2.0);
        assert_eq!(r.min_error_m(), 0.0);
        assert_eq!(r.max_error_m(), 4.0);
        assert_eq!(r.median_error_m(), 2.0);
        assert_eq!(r.exact_hit_rate(), 0.2);
        assert!(!r.is_empty());
    }

    #[test]
    fn empty_report_is_safe() {
        let r = LocalizationReport::default();
        assert!(r.is_empty());
        assert_eq!(r.mean_error_m(), 0.0);
        assert_eq!(r.percentile_m(90.0), 0.0);
        assert_eq!(r.exact_hit_rate(), 0.0);
    }

    #[test]
    fn percentiles_are_monotone() {
        let r = LocalizationReport::new(vec![5.0, 1.0, 3.0, 2.0, 4.0, 0.0]);
        assert!(r.percentile_m(25.0) <= r.percentile_m(50.0));
        assert!(r.percentile_m(50.0) <= r.percentile_m(90.0));
        assert_eq!(r.percentile_m(0.0), 0.0);
        assert_eq!(r.percentile_m(100.0), 5.0);
    }

    #[test]
    fn merged_pools_errors() {
        let a = LocalizationReport::new(vec![1.0, 2.0]);
        let b = LocalizationReport::new(vec![3.0]);
        let merged = LocalizationReport::merged([&a, &b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged.mean_error_m(), 2.0);
    }

    #[test]
    fn improvement_matches_paper_arithmetic() {
        // VITAL 1.18 m vs ANVIL 1.9 m -> ~38 %; vs WiDeep 3.73 m -> ~68 %.
        let vital = LocalizationReport::new(vec![1.18]);
        let anvil = LocalizationReport::new(vec![1.9]);
        let wideep = LocalizationReport::new(vec![3.73]);
        assert!((vital.improvement_over(&anvil) - 0.379).abs() < 0.01);
        assert!((vital.improvement_over(&wideep) - 0.684).abs() < 0.01);
        assert_eq!(vital.improvement_over(&LocalizationReport::default()), 0.0);
    }
}
