use crate::{AccessPoint, Material, PathLossModel, Point, Segment};

/// A reference point (RP): a location along the survey path at which
/// fingerprints are collected and which the localizer must predict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferencePoint {
    /// Class label of the RP (0-based index along the path).
    pub id: usize,
    /// Location in building coordinates (metres).
    pub position: Point,
}

/// A wall with a material.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Wall {
    /// Wall geometry.
    pub segment: Segment,
    /// Construction material (governs attenuation).
    pub material: Material,
}

/// A building: geometry (walls), installed access points, the survey path's
/// reference points, and the propagation model of its environment.
#[derive(Debug, Clone, PartialEq)]
pub struct Building {
    name: String,
    walls: Vec<Wall>,
    access_points: Vec<AccessPoint>,
    reference_points: Vec<ReferencePoint>,
    path_loss: PathLossModel,
}

impl Building {
    /// Starts building a `Building`.
    pub fn builder(name: impl Into<String>) -> BuildingBuilder {
        BuildingBuilder {
            name: name.into(),
            walls: Vec::new(),
            access_points: Vec::new(),
            waypoints: Vec::new(),
            rp_spacing_m: 1.0,
            path_loss: PathLossModel::default(),
        }
    }

    /// Building name (e.g. `"Building 1"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All walls.
    pub fn walls(&self) -> &[Wall] {
        &self.walls
    }

    /// All installed access points. The index of an AP in this slice is its
    /// channel index in every fingerprint captured in this building.
    pub fn access_points(&self) -> &[AccessPoint] {
        &self.access_points
    }

    /// The reference points of the survey path, at the configured granularity.
    pub fn reference_points(&self) -> &[ReferencePoint] {
        &self.reference_points
    }

    /// The propagation model of this environment.
    pub fn path_loss(&self) -> &PathLossModel {
        &self.path_loss
    }

    /// Number of walls crossed by the direct ray between two points,
    /// accumulated as total attenuation in dB.
    pub fn wall_attenuation_db(&self, from: Point, to: Point) -> f32 {
        let ray = Segment::new(from, to);
        self.walls
            .iter()
            .filter(|w| w.segment.intersects(&ray))
            .map(|w| w.material.attenuation_db())
            .sum()
    }

    /// Total length of the survey path in metres (sum of RP-to-RP hops).
    pub fn path_length_m(&self) -> f32 {
        self.reference_points
            .windows(2)
            .map(|w| w[0].position.distance(&w[1].position))
            .sum()
    }

    /// Physical distance in metres between two RPs (used to convert a
    /// misclassification into a localization error in metres).
    ///
    /// Returns `None` if either id is out of range.
    pub fn rp_distance_m(&self, a: usize, b: usize) -> Option<f32> {
        let pa = self.reference_points.get(a)?;
        let pb = self.reference_points.get(b)?;
        Some(pa.position.distance(&pb.position))
    }
}

/// Builder for [`Building`].
#[derive(Debug, Clone)]
pub struct BuildingBuilder {
    name: String,
    walls: Vec<Wall>,
    access_points: Vec<AccessPoint>,
    waypoints: Vec<Point>,
    rp_spacing_m: f32,
    path_loss: PathLossModel,
}

impl BuildingBuilder {
    /// Adds a wall.
    pub fn wall(mut self, a: Point, b: Point, material: Material) -> Self {
        self.walls.push(Wall {
            segment: Segment::new(a, b),
            material,
        });
        self
    }

    /// Adds an access point.
    pub fn access_point(mut self, ap: AccessPoint) -> Self {
        self.access_points.push(ap);
        self
    }

    /// Sets the survey path as a polyline of waypoints; reference points are
    /// generated along it at `rp_spacing_m` granularity (1 m in the paper).
    pub fn survey_path(mut self, waypoints: &[Point], rp_spacing_m: f32) -> Self {
        self.waypoints = waypoints.to_vec();
        self.rp_spacing_m = rp_spacing_m.max(0.1);
        self
    }

    /// Sets the propagation model.
    pub fn path_loss(mut self, model: PathLossModel) -> Self {
        self.path_loss = model;
        self
    }

    /// Finalises the building, generating reference points along the survey
    /// path.
    pub fn build(self) -> Building {
        let mut reference_points = Vec::new();
        if self.waypoints.len() >= 2 {
            let mut next_id = 0;
            let mut carried = 0.0_f32;
            for leg in self.waypoints.windows(2) {
                let length = leg[0].distance(&leg[1]);
                if length <= f32::EPSILON {
                    continue;
                }
                let mut offset = if next_id == 0 { 0.0 } else { carried };
                while offset <= length {
                    let t = offset / length;
                    reference_points.push(ReferencePoint {
                        id: next_id,
                        position: leg[0].lerp(&leg[1], t),
                    });
                    next_id += 1;
                    offset += self.rp_spacing_m;
                }
                carried = offset - length;
            }
        } else if self.waypoints.len() == 1 {
            reference_points.push(ReferencePoint {
                id: 0,
                position: self.waypoints[0],
            });
        }
        Building {
            name: self.name,
            walls: self.walls,
            access_points: self.access_points,
            reference_points,
            path_loss: self.path_loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_building() -> Building {
        Building::builder("test")
            .wall(
                Point::new(5.0, -1.0),
                Point::new(5.0, 1.0),
                Material::Concrete,
            )
            .access_point(AccessPoint::new(1, 0, Point::new(0.0, 0.0), 18.0))
            .access_point(AccessPoint::new(1, 1, Point::new(10.0, 0.0), 18.0))
            .survey_path(&[Point::new(0.0, 0.0), Point::new(10.0, 0.0)], 1.0)
            .build()
    }

    #[test]
    fn reference_points_follow_granularity() {
        let b = simple_building();
        assert_eq!(b.reference_points().len(), 11); // 0..=10 m at 1 m spacing
        assert_eq!(b.reference_points()[0].id, 0);
        assert_eq!(b.reference_points()[10].id, 10);
        assert!((b.path_length_m() - 10.0).abs() < 1e-4);
    }

    #[test]
    fn multi_leg_path_keeps_spacing_across_corners() {
        let b = Building::builder("L")
            .survey_path(
                &[
                    Point::new(0.0, 0.0),
                    Point::new(3.0, 0.0),
                    Point::new(3.0, 4.0),
                ],
                1.0,
            )
            .build();
        // Total length 7 m -> 8 RPs at 1 m spacing.
        assert_eq!(b.reference_points().len(), 8);
        let total = b.path_length_m();
        assert!((total - 7.0).abs() < 0.2, "path length {total}");
    }

    #[test]
    fn wall_attenuation_counts_crossings() {
        let b = simple_building();
        // Ray from AP0 (x=0) to x=10 crosses the concrete wall at x=5.
        let att = b.wall_attenuation_db(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(att, Material::Concrete.attenuation_db());
        // Ray that stays left of the wall crosses nothing.
        let none = b.wall_attenuation_db(Point::new(0.0, 0.0), Point::new(4.0, 0.0));
        assert_eq!(none, 0.0);
    }

    #[test]
    fn rp_distance_matches_geometry() {
        let b = simple_building();
        assert!((b.rp_distance_m(0, 5).unwrap() - 5.0).abs() < 1e-4);
        assert!(b.rp_distance_m(0, 99).is_none());
    }

    #[test]
    fn accessors_expose_configuration() {
        let b = simple_building();
        assert_eq!(b.name(), "test");
        assert_eq!(b.walls().len(), 1);
        assert_eq!(b.access_points().len(), 2);
        assert_eq!(*b.path_loss(), PathLossModel::office());
    }

    #[test]
    fn single_waypoint_yields_single_rp() {
        let b = Building::builder("dot")
            .survey_path(&[Point::new(1.0, 1.0)], 1.0)
            .build();
        assert_eq!(b.reference_points().len(), 1);
        assert_eq!(b.path_length_m(), 0.0);
    }
}
