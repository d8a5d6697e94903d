/// Wall construction material, governing per-wall signal attenuation.
///
/// The paper notes the four buildings have "very different material
/// composition (wood, metal, concrete)"; attenuation values follow commonly
/// cited 2.4 GHz measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Material {
    /// Interior drywall partition (~3 dB).
    Drywall,
    /// Wooden wall or heavy door (~4 dB).
    Wood,
    /// Glass partition (~2 dB).
    Glass,
    /// Brick wall (~8 dB).
    Brick,
    /// Poured concrete or cinder block (~12 dB).
    Concrete,
    /// Metal partition, elevator shaft or lab equipment rack (~16 dB).
    Metal,
}

impl Material {
    /// One-way attenuation in dB for a 2.4 GHz signal crossing a wall of this
    /// material.
    pub fn attenuation_db(&self) -> f32 {
        match self {
            Material::Glass => 2.0,
            Material::Drywall => 3.0,
            Material::Wood => 4.0,
            Material::Brick => 8.0,
            Material::Concrete => 12.0,
            Material::Metal => 16.0,
        }
    }

    /// All materials, in increasing attenuation order.
    pub fn all() -> [Material; 6] {
        [
            Material::Glass,
            Material::Drywall,
            Material::Wood,
            Material::Brick,
            Material::Concrete,
            Material::Metal,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attenuation_is_monotone_in_density() {
        let values: Vec<f32> = Material::all().iter().map(|m| m.attenuation_db()).collect();
        let mut sorted = values.clone();
        sorted.sort_by(f32::total_cmp);
        assert_eq!(values, sorted);
    }

    #[test]
    fn attenuations_are_positive_and_bounded() {
        for m in Material::all() {
            let a = m.attenuation_db();
            assert!(a > 0.0 && a < 30.0);
        }
    }

    #[test]
    fn metal_attenuates_more_than_wood() {
        assert!(Material::Metal.attenuation_db() > Material::Wood.attenuation_db());
    }
}
