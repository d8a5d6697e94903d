//! The lane-parallel distance kernel against the per-pair chain.
//!
//! `simd::squared_distances` spreads its lanes across the rows of a
//! feature-major store; each lane must still compute exactly the per-pair
//! `row.iter().zip(query).map(|(s, q)| (s − q) · (s − q)).sum()` of its
//! row, which is what the matching baselines summed before they used the
//! kernel. Every level is held to that chain bit for bit, except that a
//! NaN distance is the canonical `f32::NAN` (the chain's own NaN sign
//! depends on the build: release gave `−NaN` where debug gave `+NaN`),
//! over row counts around one, two and four bundles of both
//! widths (the kernel's block) and 260 (the benchmark's store), feature
//! widths 0, 1, 7, 30 and 32, and stores and queries that hold signed
//! zeros, subnormals, infinities and NaN. CI runs it in debug and in
//! release at every level. A level the CPU lacks resolves down its chain
//! and repeats the one below.

use simd::Level;

/// Row counts: empty, one, around one, two and four bundles of eight and
/// of sixteen lanes, and the benchmark's stored survey.
const ROWS: [usize; 20] = [
    0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 5, 100, 260,
];

/// Feature widths: none, one, odd, the benchmark building's access-point
/// count and a whole number of both bundle widths.
const WIDTHS: [usize; 5] = [0, 1, 7, 30, 32];

const SPECIALS: [f32; 8] = [
    0.0,
    -0.0,
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    1.0e-40,
    -1.0e-40,
    f32::MIN_POSITIVE,
];

/// A xorshift stream of values, one in `1 / special_every` a special
/// (never, at zero).
struct Values {
    state: u64,
    special_every: u64,
}

impl Values {
    fn next(&mut self) -> f32 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        let draw = self.state >> 11;
        if self.special_every > 0 && draw.is_multiple_of(self.special_every) {
            SPECIALS[(draw / self.special_every % SPECIALS.len() as u64) as usize]
        } else {
            // Magnitudes over several decades, both signs.
            let unit = (draw % 2_000_001) as f32 / 1_000_000.0 - 1.0;
            unit * [1.0e-3, 1.0, 1.0e3][(draw % 3) as usize]
        }
    }

    fn take(&mut self, n: usize) -> Vec<f32> {
        (0..n).map(|_| self.next()).collect()
    }
}

/// The per-pair chain, summed in index order, its NaNs canonical.
fn oracle(row: &[f32], query: &[f32]) -> f32 {
    let chain: f32 = row.iter().zip(query).map(|(s, q)| (s - q) * (s - q)).sum();
    if chain.is_nan() {
        f32::NAN
    } else {
        chain
    }
}

fn check(special_every: u64) {
    let mut values = Values {
        state: 0x9e37_79b9_7f4a_7c15 ^ special_every,
        special_every,
    };
    for rows in ROWS {
        for width in WIDTHS {
            let row_major = values.take(rows * width);
            let query = values.take(width);
            let feature_major: Vec<f32> = (0..width)
                .flat_map(|j| (0..rows).map(move |r| (r, j)))
                .map(|(r, j)| row_major[r * width + j])
                .collect();
            let want: Vec<u32> = (0..rows)
                .map(|r| oracle(&row_major[r * width..(r + 1) * width], &query).to_bits())
                .collect();
            for level in Level::ALL {
                let mut out = vec![f32::NAN; rows];
                simd::squared_distances(level, &feature_major, &query, &mut out);
                let got: Vec<u32> = out.iter().map(|d| d.to_bits()).collect();
                assert_eq!(
                    got,
                    want,
                    "{rows} rows of {width} at {} (specials 1 in {special_every})",
                    level.name()
                );
            }
        }
    }
}

#[test]
fn every_level_is_the_per_pair_chain_on_finite_values() {
    check(0);
}

#[test]
fn every_level_is_the_per_pair_chain_with_some_specials() {
    check(23);
}

#[test]
fn every_level_is_the_per_pair_chain_on_specials_mostly() {
    check(2);
}

#[test]
fn an_empty_query_gives_the_empty_sum() {
    for level in Level::ALL {
        let mut out = [1.0f32; 3];
        simd::squared_distances(level, &[], &[], &mut out);
        assert_eq!(out.map(f32::to_bits), [(-0.0f32).to_bits(); 3]);
    }
}

#[test]
#[should_panic(expected = "feature-major store")]
fn a_store_of_another_size_is_refused() {
    simd::squared_distances(Level::Scalar, &[0.0; 5], &[0.0; 2], &mut [0.0; 3]);
}
