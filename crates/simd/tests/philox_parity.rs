//! The lane Philox generator against its one-lane instance.
//!
//! `simd::philox_words` and `simd::philox_normals` compute one block per
//! `u32` lane, sixteen at a time at `Avx512`, eight at `Avx2` and
//! `Scalar`; `simd::scalar::philox4x32_10` is the same generic code at
//! one lane. Every level is held to that instance word for word, and the
//! instance to the Random123 known answers, over runs whose first counter
//! word wraps past `u32::MAX` and whose lengths straddle both widths
//! (0, 1, lanes − 1, lanes, lanes + 1 and odd ones). A level the CPU lacks
//! resolves down its chain and repeats the one below.

use simd::scalar::philox4x32_10;
use simd::Level;

/// Random123's known answers for Philox4x32-10: `(counter, key, block)`.
const KNOWN_ANSWERS: [([u32; 4], [u32; 2], [u32; 4]); 3] = [
    (
        [0; 4],
        [0; 2],
        [0x6627_e8d5, 0xe169_c58d, 0xbc57_ac4c, 0x9b00_dbd8],
    ),
    (
        [u32::MAX; 4],
        [u32::MAX; 2],
        [0x408f_276d, 0x41c8_3b0e, 0xa20b_c7c6, 0x6d54_51fd],
    ),
    (
        [0x243f_6a88, 0x85a3_08d3, 0x1319_8a2e, 0x0370_7344],
        [0xa409_3822, 0x299f_31d0],
        [0xd16c_fe09, 0x94fd_cceb, 0x5001_e420, 0x2412_6ea1],
    ),
];

/// Run starts: at zero, with the first word wrapping within the first
/// bundle of either width, and arbitrary.
const STARTS: [[u32; 4]; 4] = [
    [0, 0, 0, 0],
    [u32::MAX - 2, 7, 0, 0],
    [u32::MAX - 12, u32::MAX, 5, u32::MAX],
    [0x1234_5678, 0x9abc_def0, 0x0fed_cba9, 0x8765_4321],
];

const KEY: [u32; 2] = [0xdead_beef, 0x0bad_f00d];

/// Lengths around one and two bundles of both widths, and odd ones.
fn lengths(per_lane: usize) -> Vec<usize> {
    let mut lengths = vec![0, 1, 3, 37, 101];
    for lanes in [8, 16, 32] {
        let n = per_lane * lanes;
        lengths.extend([lanes - 1, lanes, lanes + 1, n - 1, n, n + 1]);
    }
    lengths
}

fn one_lane_block(counter: [u32; 4], k: usize) -> [u32; 4] {
    let [c0, c1, c2, c3] = counter;
    philox4x32_10([c0.wrapping_add(k as u32), c1, c2, c3], KEY)
}

#[test]
fn the_one_lane_instance_gives_the_random123_known_answers() {
    for (counter, key, block) in KNOWN_ANSWERS {
        assert_eq!(philox4x32_10(counter, key), block, "{counter:x?}");
    }
}

#[test]
fn every_level_draws_the_known_answers_in_every_lane() {
    for level in Level::ALL {
        for (counter, key, block) in KNOWN_ANSWERS {
            // The known block at lane `k` of a run that starts `k` counters
            // before it, wrapping where its first word is small.
            for k in [0u32, 1, 7, 8, 15, 16, 21] {
                let start = [
                    counter[0].wrapping_sub(k),
                    counter[1],
                    counter[2],
                    counter[3],
                ];
                let mut words = vec![0; 4 * (k as usize + 3)];
                simd::philox_words(level, key, start, &mut words);
                let at = 4 * k as usize;
                assert_eq!(
                    words[at..at + 4],
                    block,
                    "{level:?} lane {k} of {counter:x?}"
                );
            }
        }
    }
}

#[test]
fn every_level_draws_the_one_lane_words() {
    for level in Level::ALL {
        for counter in STARTS {
            for len in lengths(4) {
                let mut words = vec![0xffff_ffff; len];
                simd::philox_words(level, KEY, counter, &mut words);
                for (i, &word) in words.iter().enumerate() {
                    let want = one_lane_block(counter, i / 4)[i % 4];
                    assert_eq!(
                        word, want,
                        "{level:?} {counter:x?} len {len}: word {i} is {word:#x}, one lane {want:#x}"
                    );
                }
            }
        }
    }
}

/// The normals and flags of one run the way they were drawn before the
/// pass was fused: one block per pair, its uniforms gathered, then the
/// `ln` and `sincos` sweeps at the scalar level and the products.
fn per_pair_normals(counter: [u32; 4], threshold: u64, len: usize) -> (Vec<f32>, Vec<bool>) {
    let pairs = len.div_ceil(2);
    let unit = 1.0 / 16_777_216.0;
    let (mut radius, mut turns, mut dropped) = (vec![], vec![], vec![]);
    for k in 0..pairs {
        let [w0, w1, w2, w3] = one_lane_block(counter, k);
        radius.push(((w0 >> 8) + 1) as f32 * unit);
        turns.push((w1 >> 8) as f32 * unit);
        dropped.extend([u64::from(w2) < threshold, u64::from(w3) < threshold]);
    }
    simd::ln(Level::Scalar, &mut radius);
    let (mut sin, mut cos) = (vec![0.0; pairs], vec![0.0; pairs]);
    simd::sincos_turns(Level::Scalar, &turns, &mut sin, &mut cos);
    let mut normals = vec![];
    for k in 0..pairs {
        let r = (-2.0 * radius[k]).sqrt();
        normals.extend([r * cos[k], r * sin[k]]);
    }
    normals.truncate(len);
    dropped.truncate(len);
    (normals, dropped)
}

#[test]
fn every_level_draws_the_per_pair_normals_and_flags() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    for level in Level::ALL {
        for counter in STARTS {
            for threshold in [0, 1 << 30, u64::from(u32::MAX), 1 << 32] {
                for len in lengths(2) {
                    let (mut normals, mut dropped) = (vec![f32::NAN; len], vec![true; len]);
                    let out = (&mut normals[..], &mut dropped[..]);
                    simd::philox_normals(level, KEY, counter, threshold, out.0, out.1);
                    let (want_normals, want_dropped) = per_pair_normals(counter, threshold, len);
                    let case = format!("{level:?} {counter:x?} threshold {threshold} len {len}");
                    assert_eq!(bits(&normals), bits(&want_normals), "{case}");
                    assert_eq!(dropped, want_dropped, "{case}");
                }
            }
        }
    }
}

#[test]
fn the_dropout_flags_fall_at_their_rate_and_the_normals_are_finite() {
    let len = 20_000;
    let (mut normals, mut dropped) = (vec![0.0; len], vec![false; len]);
    simd::philox_normals(
        simd::best_deterministic(),
        KEY,
        [9, 0, 0, 0],
        1 << 30,
        &mut normals,
        &mut dropped,
    );
    let share = dropped.iter().filter(|&&d| d).count() as f64 / len as f64;
    assert!((share - 0.25).abs() < 0.02, "dropped share {share}");
    assert!(normals.iter().all(|z| z.is_finite()));
}

#[test]
fn every_level_perturbs_by_the_draws_it_would_return() {
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let jitters = [Some(0.125), None];
    for level in Level::ALL {
        for (counter, jitter) in STARTS.into_iter().zip(jitters.into_iter().cycle()) {
            for threshold in [0, 1 << 31, 1 << 32] {
                let perturbation = simd::Perturbation {
                    threshold,
                    infill: 0.25,
                    jitter,
                };
                for len in lengths(2) {
                    let values: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 20.0).collect();
                    let mut out = vec![f32::NAN; len];
                    simd::philox_perturb(level, KEY, counter, perturbation, &values, &mut out);
                    let (normals, dropped) = per_pair_normals(counter, threshold, len);
                    let want: Vec<f32> = (0..len)
                        .map(|i| match (dropped[i], jitter) {
                            (true, _) => 0.25 * normals[i],
                            (false, Some(jitter)) => values[i] + jitter * normals[i],
                            (false, None) => values[i],
                        })
                        .collect();
                    let case = format!("{level:?} {counter:x?} threshold {threshold} len {len}");
                    assert_eq!(bits(&out), bits(&want), "{case}");
                }
            }
        }
    }
}
