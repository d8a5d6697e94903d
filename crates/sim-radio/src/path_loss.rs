/// Log-distance path-loss model parameters.
///
/// `PL(d) = PL(d₀) + 10·n·log₁₀(d/d₀)` with `d₀ = 1 m`. Indoor environments
/// typically have `n` between 2.5 and 4.5 depending on clutter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathLossModel {
    /// Path-loss exponent `n`.
    pub exponent: f32,
    /// Reference loss at 1 m, in dB (≈ 40 dB for 2.4 GHz).
    pub reference_loss_db: f32,
    /// Standard deviation of log-normal shadowing, in dB.
    pub shadowing_std_db: f32,
    /// Standard deviation of small-scale temporal fading, in dB.
    pub fading_std_db: f32,
}

impl PathLossModel {
    /// A typical cluttered-office model.
    pub fn office() -> Self {
        PathLossModel {
            exponent: 3.0,
            reference_loss_db: 40.0,
            shadowing_std_db: 4.0,
            fading_std_db: 1.5,
        }
    }

    /// An open-hall model (lower exponent, milder shadowing).
    pub fn open_hall() -> Self {
        PathLossModel {
            exponent: 2.4,
            reference_loss_db: 40.0,
            shadowing_std_db: 2.5,
            fading_std_db: 1.0,
        }
    }

    /// A dense-lab model (heavy clutter and multipath).
    pub fn dense_lab() -> Self {
        PathLossModel {
            exponent: 3.8,
            reference_loss_db: 41.0,
            shadowing_std_db: 5.5,
            fading_std_db: 2.5,
        }
    }

    /// Deterministic (distance-only) path loss in dB at range `distance_m`.
    ///
    /// Distances below 1 m are clamped to the reference distance.
    pub fn path_loss_db(&self, distance_m: f32) -> f32 {
        let d = distance_m.max(1.0);
        self.reference_loss_db + 10.0 * self.exponent * d.log10()
    }
}

impl Default for PathLossModel {
    fn default() -> Self {
        PathLossModel::office()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_increases_with_distance() {
        let model = PathLossModel::office();
        assert!(model.path_loss_db(10.0) > model.path_loss_db(5.0));
        assert!(model.path_loss_db(50.0) > model.path_loss_db(10.0));
    }

    #[test]
    fn sub_metre_distances_clamp_to_reference() {
        let model = PathLossModel::office();
        assert_eq!(model.path_loss_db(0.1), model.reference_loss_db);
        assert_eq!(model.path_loss_db(1.0), model.reference_loss_db);
    }

    #[test]
    fn presets_are_ordered_by_harshness() {
        let d = 20.0;
        assert!(
            PathLossModel::open_hall().path_loss_db(d) < PathLossModel::office().path_loss_db(d)
        );
        assert!(
            PathLossModel::office().path_loss_db(d) < PathLossModel::dense_lab().path_loss_db(d)
        );
    }

    #[test]
    fn default_is_office() {
        assert_eq!(PathLossModel::default(), PathLossModel::office());
    }
}
