//! Seeded inputs of the load generator: arrival times and request order.

/// SplitMix64: small, seedable, and good enough to draw a schedule from.
/// The benchmark's own, not a product crate's generator: parent and change
/// must be sent the same requests at the same times whatever the change
/// did to the product's RNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Due times, in seconds from the phase start, of a Poisson arrival
/// process at `rate_per_s` over `seconds`, conditioned on its count:
/// given that `rate·seconds` arrivals fall in the window, a Poisson
/// process places them independently and uniformly in it. Fixing the count
/// keeps `attempted` and the offered rate the same for every seed while
/// the gaps stay exponential.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, seconds: f64) -> Vec<f64> {
    let count = (rate_per_s * seconds).round().max(1.0) as usize;
    let mut rng = Rng::new(seed ^ 0x5CED_0A11);
    let mut due: Vec<f64> = (0..count).map(|_| rng.next_f64() * seconds).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// `count` indices into a pool of `pool` entries, seeded.
pub fn request_order(seed: u64, pool: usize, count: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x0BDE);
    (0..count).map(|_| rng.below(pool)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_repeats_for_equal_seeds_and_differs_otherwise() {
        let a = poisson_schedule(7, 300.0, 10.0);
        assert_eq!(a, poisson_schedule(7, 300.0, 10.0));
        assert_ne!(a, poisson_schedule(8, 300.0, 10.0));
        assert_eq!(a.len(), 3000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a[0] >= 0.0 && a[a.len() - 1] < 10.0);
        // Exponential gaps: about 1 − e⁻¹ ≈ 63% are shorter than the mean.
        let mean = 10.0 / 3000.0;
        let short = a.windows(2).filter(|w| w[1] - w[0] < mean).count();
        assert!((0.58..0.68).contains(&(short as f64 / 2999.0)));
    }

    #[test]
    fn request_order_is_seeded_and_in_range() {
        let a = request_order(3, 17, 500);
        assert_eq!(a, request_order(3, 17, 500));
        assert_ne!(a, request_order(4, 17, 500));
        assert!(a.iter().all(|&i| i < 17));
    }
}
