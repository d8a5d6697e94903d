//! The matching stage the memory-based baselines share: a store of
//! labelled vectors (KNN's fingerprints, SHERPA's refinement memory,
//! WiDeep's codes, ANVIL's centroids) and what each asks of it.
//!
//! The store is feature-major, `[width][rows]`, so one dispatched kernel
//! ([`simd::squared_distances`]) computes a query's squared distance to
//! every stored row at once, the lanes spread across rows and each lane
//! the per-pair chain `Σ (row[j] − query[j])²` of its row in index
//! order: every distance is the one a loop over the pair would sum, bit
//! for bit, at every dispatch level (a NaN one comes out as `f32::NAN`,
//! so it sorts after every number). Checkpoints keep the row-major
//! `[rows, width]` tensor ([`Memory::to_tensor`]).

use std::cmp::Ordering;

use tensor::Tensor;
use vital::{CheckpointError, Result, VitalError};

/// Stored vectors of one width, feature-major, and a label per row.
#[derive(Debug, Clone, Default)]
pub(crate) struct Memory {
    /// Feature `j` of stored row `r` at `j · rows + r`.
    columns: Vec<f32>,
    labels: Vec<usize>,
    width: usize,
}

/// What one `localize_batch` call reuses across its queries, so no query
/// allocates.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    /// The buffers of the [`Memory`] searches.
    pub(crate) matching: Matching,
    /// Class indices, ranked: SHERPA's candidates.
    pub(crate) ranked: Vec<usize>,
    /// One sum per class: WiDeep's posterior.
    pub(crate) sums: Vec<f32>,
}

/// The distances to every stored row, the candidate rows and the vote of
/// one [`Memory`] search.
#[derive(Debug, Default)]
pub(crate) struct Matching {
    distances: Vec<f32>,
    order: Vec<usize>,
    votes: Vec<(usize, f32)>,
}

impl Memory {
    /// Stores `rows`, one label each.
    ///
    /// # Errors
    /// If the rows differ in width or do not match the labels one to one.
    pub(crate) fn new(rows: &[Vec<f32>], labels: Vec<usize>) -> Result<Memory> {
        let width = rows.first().map_or(0, Vec::len);
        let row_major = crate::features::rows_to_tensor(rows, width)?;
        Memory::from_row_major(row_major.as_slice(), rows.len(), width, labels, "rows")
    }

    /// Restores a memory from its checkpoint tensor (`[rows, width]`,
    /// [`Memory::to_tensor`]) and labels; `stored` names the rows in the
    /// error.
    ///
    /// # Errors
    /// [`CheckpointError::Corrupt`] when the rows and labels differ in
    /// number; a tensor error when `matrix` is not a matrix.
    pub(crate) fn from_checkpoint(
        matrix: &Tensor,
        labels: Vec<usize>,
        stored: &str,
    ) -> Result<Memory> {
        let (rows, width) = matrix.shape().as_matrix()?;
        Memory::from_row_major(matrix.as_slice(), rows, width, labels, stored)
    }

    fn from_row_major(
        data: &[f32],
        rows: usize,
        width: usize,
        labels: Vec<usize>,
        stored: &str,
    ) -> Result<Memory> {
        if rows != labels.len() {
            return Err(CheckpointError::Corrupt(format!(
                "{rows} stored {stored} but {} labels",
                labels.len()
            ))
            .into());
        }
        let columns = (0..width)
            .flat_map(|j| (0..rows).map(move |r| data[r * width + j]))
            .collect();
        Ok(Memory {
            columns,
            labels,
            width,
        })
    }

    /// The row-major `[rows, width]` tensor a checkpoint stores.
    ///
    /// # Errors
    /// Never for a memory built here; the tensor constructor's checks.
    pub(crate) fn to_tensor(&self) -> tensor::Result<Tensor> {
        let rows = self.len();
        let data = (0..rows)
            .flat_map(|r| (0..self.width).map(move |j| self.columns[j * rows + r]))
            .collect();
        Tensor::from_vec(data, &[rows, self.width])
    }

    /// Stored rows.
    pub(crate) fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether nothing is stored (an unfitted model).
    pub(crate) fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Features per stored row.
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// One label per stored row, in row order.
    pub(crate) fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The squared distance from `query` to every stored row, in row
    /// order, in `matching`'s distance buffer.
    ///
    /// # Errors
    /// [`VitalError::InvalidDataset`] when `query` is not the stored width.
    pub(crate) fn squared_distances<'m>(
        &self,
        matching: &'m mut Matching,
        query: &[f32],
    ) -> Result<&'m mut [f32]> {
        if query.len() != self.width {
            return Err(VitalError::InvalidDataset(format!(
                "a query of {} features against a memory of width {}",
                query.len(),
                self.width
            )));
        }
        let out = &mut matching.distances;
        out.clear();
        out.resize(self.len(), 0.0);
        simd::squared_distances(simd::active_level(), &self.columns, query, out);
        Ok(out)
    }

    /// Distance-weighted vote among the `k` stored rows nearest to `query`
    /// whose label `keep` admits; `None` when no row is admitted or `k` is
    /// zero.
    ///
    /// Neighbours are taken in (Euclidean distance, row) order, so a tie
    /// in distance goes to the earlier row. Each adds `1 / (d + 10⁻³)` to
    /// its label's vote, and of labels with equal votes the one whose
    /// nearest neighbour comes first in that order wins.
    ///
    /// # Errors
    /// As [`Memory::squared_distances`].
    pub(crate) fn weighted_vote(
        &self,
        matching: &mut Matching,
        query: &[f32],
        k: usize,
        keep: impl Fn(usize) -> bool,
    ) -> Result<Option<usize>> {
        let distances = self.squared_distances(matching, query)?;
        for d in distances.iter_mut() {
            *d = d.sqrt();
        }
        let Matching {
            distances,
            order,
            votes,
        } = matching;
        order.clear();
        order.extend((0..self.len()).filter(|&r| keep(self.labels[r])));
        let nearest = first_k(order, k, |&a, &b| distances[a].total_cmp(&distances[b]));
        votes.clear();
        for &r in nearest {
            let label = self.labels[r];
            let slot = match votes.iter().position(|(l, _)| *l == label) {
                Some(slot) => slot,
                None => {
                    votes.push((label, 0.0));
                    votes.len() - 1
                }
            };
            votes[slot].1 += 1.0 / (distances[r] + 1e-3);
        }
        let mut best: Option<(usize, f32)> = None;
        for &(label, vote) in votes.iter() {
            if best.is_none_or(|(_, top)| vote.total_cmp(&top) == Ordering::Greater) {
                best = Some((label, vote));
            }
        }
        Ok(best.map(|(label, _)| label))
    }

    /// The label of the stored row nearest to `query`: the first row whose
    /// squared distance no later row undercuts (strict `<`), `None` when
    /// nothing is stored.
    ///
    /// # Errors
    /// As [`Memory::squared_distances`].
    pub(crate) fn nearest(&self, matching: &mut Matching, query: &[f32]) -> Result<Option<usize>> {
        let distances = self.squared_distances(matching, query)?;
        let mut best: Option<(usize, f32)> = None;
        for (&label, &d) in self.labels.iter().zip(distances.iter()) {
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((label, d));
            }
        }
        Ok(best.map(|(label, _)| label))
    }
}

/// The first `k` of `indices` (all, if fewer) in the order `cmp` gives,
/// ties going to the smaller index: for indices held in ascending order,
/// exactly the first `k` of a stable sort by `cmp`, but only those `k` are
/// sorted.
pub(crate) fn first_k(
    indices: &mut [usize],
    k: usize,
    mut cmp: impl FnMut(&usize, &usize) -> Ordering,
) -> &[usize] {
    let mut order = |a: &usize, b: &usize| cmp(a, b).then(a.cmp(b));
    let k = k.min(indices.len());
    if k < indices.len() {
        indices.select_nth_unstable_by(k, &mut order);
    }
    let first = &mut indices[..k];
    first.sort_unstable_by(order);
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::squared_distance;
    use proptest::prelude::*;
    use tensor::rng::SeededRng;

    fn rows(count: usize, width: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = SeededRng::new(seed);
        (0..count)
            .map(|_| rng.uniform_tensor(&[width], -1.0, 1.0).as_slice().to_vec())
            .collect()
    }

    /// Every distance is the per-pair chain of its row, bit for bit, and
    /// the checkpoint tensor is the rows as given.
    #[test]
    fn distances_are_the_per_pair_chain_and_the_tensor_is_row_major() {
        for (count, width) in [(1, 1), (17, 7), (260, 30), (33, 32), (5, 0)] {
            let stored = rows(count, width, 3);
            let memory = Memory::new(&stored, (0..count).collect()).unwrap();
            let query = &rows(1, width, 4)[0];
            let mut matching = Matching::default();
            let got = memory.squared_distances(&mut matching, query).unwrap();
            for (row, d) in stored.iter().zip(got.iter()) {
                assert_eq!(d.to_bits(), squared_distance(row, query).to_bits());
            }
            let flat: Vec<f32> = stored.concat();
            let tensor = memory.to_tensor().unwrap();
            assert_eq!(tensor.shape().dims(), [count, width]);
            assert_eq!(tensor.as_slice(), flat);
            let back = Memory::from_checkpoint(&tensor, memory.labels().to_vec(), "rows").unwrap();
            assert_eq!(back.columns, memory.columns);
        }
    }

    #[test]
    fn a_query_of_another_width_and_a_label_count_mismatch_are_refused() {
        let memory = Memory::new(&rows(4, 3, 1), vec![0, 1, 2, 3]).unwrap();
        let mut matching = Matching::default();
        let refused = memory.squared_distances(&mut matching, &[0.0; 2]);
        assert!(matches!(refused, Err(VitalError::InvalidDataset(_))));
        let tensor = memory.to_tensor().unwrap();
        let corrupt = Memory::from_checkpoint(&tensor, vec![0; 5], "codes").unwrap_err();
        assert!(corrupt.to_string().contains("4 stored codes but 5 labels"));
    }

    /// Two labels with exactly equal votes: the one whose nearest
    /// neighbour comes first in (distance, row) order wins, in either row
    /// order.
    #[test]
    fn an_exact_vote_tie_goes_to_the_label_of_the_first_neighbour() {
        // Rows 0 and 1 (label 7) and rows 2 and 3 (label 3) sit at the
        // same two distances from the query, so both labels sum equal
        // votes; row 0 is the first of the two nearest.
        let stored = vec![vec![1.0], vec![-3.0], vec![-1.0], vec![3.0]];
        let memory = Memory::new(&stored, vec![7, 7, 3, 3]).unwrap();
        let mut matching = Matching::default();
        let vote = memory.weighted_vote(&mut matching, &[0.0], 4, |_| true);
        assert_eq!(vote.unwrap(), Some(7));
        // Reversed rows: label 3 now holds the first nearest row.
        let reversed: Vec<Vec<f32>> = stored.iter().rev().cloned().collect();
        let memory = Memory::new(&reversed, vec![3, 3, 7, 7]).unwrap();
        let vote = memory.weighted_vote(&mut matching, &[0.0], 4, |_| true);
        assert_eq!(vote.unwrap(), Some(3));
    }

    #[test]
    fn a_vote_over_no_admitted_row_or_no_neighbour_is_none() {
        let memory = Memory::new(&rows(6, 2, 5), vec![0, 1, 2, 0, 1, 2]).unwrap();
        let mut matching = Matching::default();
        let none = memory.weighted_vote(&mut matching, &[0.0; 2], 3, |label| label > 5);
        assert_eq!(none.unwrap(), None);
        assert_eq!(
            memory
                .weighted_vote(&mut matching, &[0.0; 2], 0, |_| true)
                .unwrap(),
            None
        );
        let only_one = memory.weighted_vote(&mut matching, &[0.0; 2], 6, |label| label == 1);
        assert_eq!(only_one.unwrap(), Some(1));
        assert_eq!(Memory::default().nearest(&mut matching, &[]).unwrap(), None);
    }

    proptest! {
        /// `first_k` is the first `k` of a stable full sort, on keys drawn
        /// from a handful of values so that most of them repeat.
        #[test]
        fn first_k_is_the_stable_sorts_first_k(
            keys in proptest::collection::vec(0usize..6, 0..40),
            k in 0usize..45,
        ) {
            let distances: Vec<f32> = keys.iter().map(|&key| key as f32 * 0.5).collect();
            let mut stable: Vec<usize> = (0..keys.len()).collect();
            stable.sort_by(|&a, &b| distances[a].total_cmp(&distances[b]));
            stable.truncate(k);
            let mut indices: Vec<usize> = (0..keys.len()).collect();
            let first = first_k(&mut indices, k, |&a, &b| distances[a].total_cmp(&distances[b]));
            prop_assert_eq!(first, &stable[..]);
        }
    }
}
