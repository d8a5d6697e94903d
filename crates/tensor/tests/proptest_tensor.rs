//! Property-based tests for tensor invariants.

use proptest::prelude::*;
use tensor::kernels::Standardizer;
use tensor::Tensor;

fn vec_and_dims(max: usize) -> impl Strategy<Value = (Vec<f32>, usize, usize)> {
    (1..max, 1..max).prop_flat_map(|(r, c)| {
        (
            proptest::collection::vec(-100.0f32..100.0, r * c),
            Just(r),
            Just(c),
        )
    })
}

proptest! {
    #[test]
    fn transpose_is_involution((data, r, c) in vec_and_dims(12)) {
        let t = Tensor::from_vec(data, &[r, c]).unwrap();
        let back = t.transpose().unwrap().transpose().unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn add_commutes((data, r, c) in vec_and_dims(10), seed in 0u64..1000) {
        let a = Tensor::from_vec(data, &[r, c]).unwrap();
        let mut rng = tensor::rng::SeededRng::new(seed);
        let b = rng.uniform_tensor(&[r, c], -5.0, 5.0);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn matmul_identity_is_noop((data, r, c) in vec_and_dims(10)) {
        let a = Tensor::from_vec(data, &[r, c]).unwrap();
        let i = Tensor::eye(c);
        let prod = a.matmul(&i).unwrap();
        for (x, y) in a.as_slice().iter().zip(prod.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_add((data, r, c) in vec_and_dims(8), seed in 0u64..1000) {
        let a = Tensor::from_vec(data, &[r, c]).unwrap();
        let mut rng = tensor::rng::SeededRng::new(seed);
        let b = rng.uniform_tensor(&[r, c], -2.0, 2.0);
        let m = rng.uniform_tensor(&[c, 3], -2.0, 2.0);
        let lhs = a.add(&b).unwrap().matmul(&m).unwrap();
        let rhs = a.matmul(&m).unwrap().add(&b.matmul(&m).unwrap()).unwrap();
        for (x, y) in lhs.as_slice().iter().zip(rhs.as_slice()) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    #[test]
    fn softmax_rows_are_distributions((data, r, c) in vec_and_dims(10)) {
        let t = Tensor::from_vec(data, &[r, c]).unwrap();
        let s = t.softmax_rows().unwrap();
        prop_assert!(s.all_finite());
        for i in 0..r {
            let row = s.row(i).unwrap();
            prop_assert!(row.min().unwrap() >= 0.0);
            prop_assert!((row.sum() - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn standardize_has_zero_mean((data, r, c) in vec_and_dims(10)) {
        let standardizer = Standardizer::of(&data);
        let standardized = data.iter().map(|&v| standardizer.apply(v)).collect();
        let s = Tensor::from_vec(standardized, &[r, c]).unwrap();
        prop_assert!(s.mean().abs() < 1e-3);
    }

    #[test]
    fn slice_then_concat_rows_round_trips((data, r, c) in vec_and_dims(10)) {
        prop_assume!(r >= 2);
        let t = Tensor::from_vec(data, &[r, c]).unwrap();
        let split = r / 2;
        let top = t.slice_rows(0, split).unwrap();
        let bottom = t.slice_rows(split, r).unwrap();
        let back = Tensor::concat_rows(&[&top, &bottom]).unwrap();
        prop_assert_eq!(t, back);
    }

    #[test]
    fn dot_matches_matmul((_ignored, _r, n) in vec_and_dims(10), seed in 0u64..1000) {
        let mut rng = tensor::rng::SeededRng::new(seed);
        let a = rng.uniform_tensor(&[n], -3.0, 3.0);
        let b = rng.uniform_tensor(&[n], -3.0, 3.0);
        let d: f32 = a.as_slice().iter().zip(b.as_slice()).map(|(x, y)| x * y).sum();
        let m = a
            .as_row_matrix()
            .matmul(&b.as_row_matrix().transpose().unwrap())
            .unwrap();
        prop_assert!((d - m.item().unwrap()).abs() < 1e-3);
    }
}
