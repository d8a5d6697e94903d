//! Order statistics the metrics are built from.

/// Sorts a copy ascending; NaNs (which no healthy measurement produces)
/// sort last so they cannot pose as a small median.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle ones for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses and the driver judges spread
/// with. Fewer than two values give `(median, median)`.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        let m = median(values);
        return (m, m);
    }
    let at = |k: usize| {
        // 1-based position k·(n+1)/4; like Python, the neighbours are
        // clamped into the sample and the fraction is not.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// Samples that must lie beyond a percentile for it to be reported.
pub const BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p ≤ 1`) of ascending `sorted`,
/// lowered until at least [`BEYOND`] samples lie beyond it, but never
/// below the median. Returns the value and the percentile actually used.
pub fn tail_percentile(sorted: &[f64], p: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let wanted = ((p * n as f64).ceil() as usize).clamp(1, n);
    let supported = n.saturating_sub(BEYOND);
    let median_rank = n.div_ceil(2);
    let rank = wanted.min(supported).max(median_rank);
    // At the median rank of an even count, the median proper is the mean of
    // this sample and the next.
    (sorted[rank - 1].max(median(sorted)), rank as f64 / n as f64)
}

/// Work rate of each of `blocks` equal-work blocks.
///
/// `done_s` are the completion times (seconds since the phase started,
/// ascending) of units of `work` each. Block `k` spans an equal count of
/// consecutive completions and is timed from the previous block's last
/// completion (the phase start for the first), so rates vary continuously
/// with speed rather than in whole-unit steps.
pub fn block_rates(done_s: &[f64], work: f64, blocks: usize) -> Vec<f64> {
    let blocks = blocks.min(done_s.len());
    if blocks == 0 {
        return Vec::new();
    }
    let per = done_s.len() / blocks;
    let mut rates = Vec::with_capacity(blocks);
    let mut from = 0.0;
    for k in 0..blocks {
        let to = done_s[(k + 1) * per - 1];
        if to > from {
            rates.push(per as f64 * work / (to - from));
        }
        from = to;
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 12.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // 100 samples lie beyond p90 of 1000: reported as asked.
        assert_eq!(tail_percentile(&v, 0.90), (900.0, 0.9));
        // p99.5 would leave 5 beyond it: lowered to rank 990.
        assert_eq!(tail_percentile(&v, 0.995), (990.0, 0.99));
        // 22 samples: p90 is rank 20 with 2 beyond; rank 12 has 10.
        let v: Vec<f64> = (1..=22).map(f64::from).collect();
        let (value, used) = tail_percentile(&v, 0.90);
        assert_eq!(value, 12.0);
        assert!((used - 12.0 / 22.0).abs() < 1e-12);
        // Too few samples for any tail: the median, never less.
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.90).0, 4.5);
        assert_eq!(tail_percentile(&[], 0.90), (0.0, 0.0));
    }

    #[test]
    fn block_rates_are_equal_work_blocks() {
        // 8 units of 16 obs finishing every 0.5 s: 32 obs/s in every block.
        let done: Vec<f64> = (1..=8).map(|i| f64::from(i) * 0.5).collect();
        assert_eq!(block_rates(&done, 16.0, 4), vec![32.0; 4]);
        // A stall in the second half halves those blocks only.
        let done = [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0];
        assert_eq!(block_rates(&done, 16.0, 2), vec![32.0, 16.0]);
        // More blocks than units: one block per unit.
        assert_eq!(block_rates(&[1.0, 2.0], 1.0, 20).len(), 2);
        assert!(block_rates(&[], 1.0, 20).is_empty());
    }
}
