//! Sum-pooled embedding bags with sparse gradients and row-wise Adagrad.
//!
//! Embedding tables are the sparse half of every recommendation model: categorical
//! inputs index into a `[num_embeddings, dim]` matrix and the selected rows are pooled
//! (summed) per sample. Only the touched rows receive gradient, so the table keeps its
//! own sparse update path (row-wise Adagrad, the de-facto standard for DLRM-family
//! models) rather than going through the dense optimizers.

use crate::sharded::RowSource;
use dmt_tensor::{prefetch_read, prefetch_read_span, Tensor, TensorError};
use rand::distributions::{Distribution, Uniform};
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Minimum pooled-accumulation work (`Σ bag length × dim`) at which the forward pass
/// fans samples out across threads; smaller batches stay serial so tiny lookups never
/// pay thread overhead (the vendored rayon spawns OS threads per call, so the bar is
/// around a millisecond of serial work).
const PARALLEL_POOL_CUTOFF: usize = 1 << 22;

/// Sparse per-row gradients in a sorted CSR-style layout: `indices[i]` is a table row
/// with pending gradient `grads[i*dim..(i+1)*dim]`, with `indices` sorted and
/// duplicate-free. Duplicate rows inside a batch are merged in a single pass when the
/// structure is built, replacing the previous `HashMap<usize, Vec<f32>>` (one heap
/// allocation per touched row) with two flat buffers.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
struct SparseRowGrads {
    indices: Vec<usize>,
    grads: Vec<f32>,
}

impl SparseRowGrads {
    fn clear(&mut self) {
        self.indices.clear();
        self.grads.clear();
    }

    fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// The pending gradient of `row`, if any (binary search over the sorted indices).
    fn row(&self, row: usize, dim: usize) -> Option<&[f32]> {
        let slot = self.indices.binary_search(&row).ok()?;
        Some(&self.grads[slot * dim..(slot + 1) * dim])
    }

    /// Merges `other` (also sorted) into `self`, adding gradients of shared rows.
    fn merge(&mut self, other: SparseRowGrads, dim: usize) {
        if self.is_empty() {
            *self = other;
            return;
        }
        let mut indices = Vec::with_capacity(self.indices.len() + other.indices.len());
        let mut grads = Vec::with_capacity(self.grads.len() + other.grads.len());
        let (mut a, mut b) = (0, 0);
        while a < self.indices.len() || b < other.indices.len() {
            let take_a = match (self.indices.get(a), other.indices.get(b)) {
                (Some(&ra), Some(&rb)) if ra == rb => {
                    indices.push(ra);
                    let start = grads.len();
                    grads.extend_from_slice(&self.grads[a * dim..(a + 1) * dim]);
                    for (acc, g) in grads[start..]
                        .iter_mut()
                        .zip(&other.grads[b * dim..(b + 1) * dim])
                    {
                        *acc += g;
                    }
                    a += 1;
                    b += 1;
                    continue;
                }
                (Some(&ra), Some(&rb)) => ra < rb,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if take_a {
                indices.push(self.indices[a]);
                grads.extend_from_slice(&self.grads[a * dim..(a + 1) * dim]);
                a += 1;
            } else {
                indices.push(other.indices[b]);
                grads.extend_from_slice(&other.grads[b * dim..(b + 1) * dim]);
                b += 1;
            }
        }
        self.indices = indices;
        self.grads = grads;
    }
}

/// A single embedding table with sum pooling.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbeddingTable {
    /// Row-major `[num_embeddings, dim]` weights.
    weight: Vec<f32>,
    /// Per-row Adagrad accumulator (mean of squared row gradients).
    adagrad_state: Vec<f32>,
    num_embeddings: usize,
    dim: usize,
    cached_indices: Option<Vec<Vec<usize>>>,
    /// Sparse gradients accumulated by backward passes, sorted by row.
    pending_grads: SparseRowGrads,
}

impl EmbeddingTable {
    /// Creates a table of `num_embeddings` rows of width `dim`, initialized uniformly
    /// in `[-1/sqrt(dim), 1/sqrt(dim)]` (the TorchRec default).
    ///
    /// # Panics
    ///
    /// Panics if `num_embeddings` or `dim` is zero.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(rng: &mut R, num_embeddings: usize, dim: usize) -> Self {
        assert!(
            num_embeddings > 0 && dim > 0,
            "embedding table dimensions must be positive"
        );
        let bound = 1.0 / (dim as f32).sqrt();
        let dist = Uniform::new_inclusive(-bound, bound);
        let weight = (0..num_embeddings * dim)
            .map(|_| dist.sample(rng))
            .collect();
        Self {
            weight,
            adagrad_state: vec![0.0; num_embeddings],
            num_embeddings,
            dim,
            cached_indices: None,
            pending_grads: SparseRowGrads::default(),
        }
    }

    /// Rebuilds a table from exported row-major `[num_embeddings, dim]` weights —
    /// the import half of a model snapshot. Optimizer state starts fresh (a
    /// snapshot is an inference artifact, not a training checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `weight.len() != num_embeddings * dim`.
    #[must_use]
    pub fn from_weights(num_embeddings: usize, dim: usize, weight: Vec<f32>) -> Self {
        assert!(
            num_embeddings > 0 && dim > 0,
            "embedding table dimensions must be positive"
        );
        assert_eq!(
            weight.len(),
            num_embeddings * dim,
            "weight buffer must be [num_embeddings, dim]"
        );
        Self {
            weight,
            adagrad_state: vec![0.0; num_embeddings],
            num_embeddings,
            dim,
            cached_indices: None,
            pending_grads: SparseRowGrads::default(),
        }
    }

    /// Borrow of the full row-major `[num_embeddings, dim]` weight buffer — the
    /// export half of a model snapshot.
    #[must_use]
    pub fn weights(&self) -> &[f32] {
        &self.weight
    }

    /// Number of rows.
    #[must_use]
    pub fn num_embeddings(&self) -> usize {
        self.num_embeddings
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Total trainable scalars in the table.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.num_embeddings * self.dim
    }

    /// Borrow of row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn row(&self, index: usize) -> &[f32] {
        &self.weight[index * self.dim..(index + 1) * self.dim]
    }

    /// Sum-pooled lookup: for each sample, sums the rows selected by its index bag.
    ///
    /// Out-of-range indices are mapped into range by modulo, mirroring the hashing
    /// trick production systems apply before lookup.
    ///
    /// The hot loop accumulates straight from the borrowed weight-row slices into the
    /// output row — zero per-index heap allocations once the cached index buffers have
    /// grown to the batch's bag sizes — issuing a software prefetch for the next bag
    /// row while the current one is summed (pooled rows are a random-access gather, so
    /// the hardware prefetcher cannot help). Large batches pool their samples in
    /// parallel (each sample owns a disjoint output row, and per-sample accumulation
    /// order is unchanged, so the result is bit-identical to the serial pass).
    ///
    /// # Errors
    ///
    /// Never fails today, but returns `Result` so callers treat lookup like the other
    /// fallible layer operations.
    pub fn forward(&mut self, bags: &[Vec<usize>]) -> Result<Tensor, TensorError> {
        let batch = bags.len();
        let dim = self.dim;
        let mut out = Tensor::zeros(&[batch, dim]);
        // Reuse the index buffers cached by the previous batch: the outer Vec and
        // every per-sample bag retain their capacity across calls.
        let mut clamped = self.cached_indices.take().unwrap_or_default();
        clamped.resize_with(batch, Vec::new);
        for (dst, bag) in clamped.iter_mut().zip(bags) {
            dst.clear();
            dst.extend(bag.iter().map(|&raw| raw % self.num_embeddings));
        }
        let total_lookups: usize = clamped.iter().map(Vec::len).sum();
        let weight = &self.weight;
        let pool_sample = |dst: &mut [f32], rows: &[usize]| {
            for (n, &idx) in rows.iter().enumerate() {
                if let Some(&next) = rows.get(n + 1) {
                    prefetch_read(weight, next * dim);
                }
                let row = &weight[idx * dim..(idx + 1) * dim];
                for (d, v) in dst.iter_mut().zip(row) {
                    *d += v;
                }
            }
        };
        if total_lookups * dim >= PARALLEL_POOL_CUTOFF && rayon::current_num_threads() > 1 {
            out.data_mut()
                .par_chunks_mut(dim)
                .enumerate()
                .for_each(|(b, dst)| pool_sample(dst, &clamped[b]));
        } else {
            for (dst, rows) in out.data_mut().chunks_exact_mut(dim).zip(&clamped) {
                pool_sample(dst, rows);
            }
        }
        self.cached_indices = Some(clamped);
        Ok(out)
    }

    /// Backward pass: scatters `grad_output` rows into per-row sparse gradients.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `grad_output` is not `[batch, dim]` for the batch
    /// of the preceding forward call.
    ///
    /// # Panics
    ///
    /// Panics if called before [`EmbeddingTable::forward`].
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<(), TensorError> {
        let bags = self
            .cached_indices
            .as_ref()
            .expect("EmbeddingTable::backward called before forward");
        if grad_output.rank() != 2
            || grad_output.shape()[0] != bags.len()
            || grad_output.shape()[1] != self.dim
        {
            return Err(TensorError::ShapeMismatch {
                op: "embedding_backward",
                lhs: grad_output.shape().to_vec(),
                rhs: vec![bags.len(), self.dim],
            });
        }
        // Gather every (row, sample) occurrence, sort by row (sample order breaks
        // ties so accumulation order per row matches the serial batch walk), then
        // merge duplicate rows in one pass over the sorted pairs.
        let dim = self.dim;
        let total: usize = bags.iter().map(Vec::len).sum();
        let mut occurrences: Vec<(usize, usize)> = Vec::with_capacity(total);
        for (b, bag) in bags.iter().enumerate() {
            occurrences.extend(bag.iter().map(|&idx| (idx, b)));
        }
        occurrences.sort_unstable();
        let mut batch_grads = SparseRowGrads {
            indices: Vec::new(),
            grads: Vec::new(),
        };
        for &(row, sample) in &occurrences {
            let grad_row = &grad_output.data()[sample * dim..(sample + 1) * dim];
            if batch_grads.indices.last() == Some(&row) {
                let start = batch_grads.grads.len() - dim;
                for (acc, g) in batch_grads.grads[start..].iter_mut().zip(grad_row) {
                    *acc += g;
                }
            } else {
                batch_grads.indices.push(row);
                batch_grads.grads.extend_from_slice(grad_row);
            }
        }
        self.pending_grads.merge(batch_grads, dim);
        Ok(())
    }

    /// Applies the accumulated sparse gradients with row-wise Adagrad and clears them.
    ///
    /// Row-wise Adagrad keeps a single accumulator per row (the mean squared gradient
    /// of the row), which is the memory-efficient variant used for large embedding
    /// tables in production trainers.
    pub fn apply_rowwise_adagrad(&mut self, learning_rate: f32, eps: f32) {
        /// Rows between the one a prefetch asks for and the one updated: the
        /// updates are a random-access scatter the hardware cannot predict.
        const AHEAD: usize = 4;
        let grads = std::mem::take(&mut self.pending_grads);
        let dim = self.dim;
        for (slot, &row) in grads.indices.iter().enumerate() {
            if let Some(&ahead) = grads.indices.get(slot + AHEAD) {
                self.prefetch_row(ahead);
                prefetch_read(&self.adagrad_state, ahead);
            }
            let grad = &grads.grads[slot * dim..(slot + 1) * dim];
            let mean_sq = grad.iter().map(|g| g * g).sum::<f32>() / dim as f32;
            self.adagrad_state[row] += mean_sq;
            let scale = learning_rate / (self.adagrad_state[row].sqrt() + eps);
            let weight_row = &mut self.weight[row * dim..(row + 1) * dim];
            for (w, g) in weight_row.iter_mut().zip(grad) {
                *w -= scale * g;
            }
        }
    }

    /// Copies the requested rows into a flat `[rows.len(), dim]` buffer, in request
    /// order. Out-of-range indices wrap modulo the table size, as in
    /// [`EmbeddingTable::forward`].
    ///
    /// This is the owner-side half of a distributed (row-sharded) lookup: remote
    /// ranks send row ids, the owner answers with the raw rows, and the requester
    /// pools locally.
    #[must_use]
    pub fn lookup_rows(&self, rows: &[usize]) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows.len() * self.dim);
        self.lookup_rows_into(rows, &mut out);
        out
    }

    /// [`EmbeddingTable::lookup_rows`] appending into a caller-owned buffer —
    /// the allocation-free form the distributed answer path uses to assemble one
    /// reply across many feature runs.
    pub fn lookup_rows_into(&self, rows: &[usize], out: &mut Vec<f32>) {
        out.reserve(rows.len() * self.dim);
        for (n, &raw) in rows.iter().enumerate() {
            if let Some(&next) = rows.get(n + 1) {
                self.prefetch_row(next % self.num_embeddings);
            }
            out.extend_from_slice(self.row(raw % self.num_embeddings));
        }
    }

    /// Accumulates externally computed per-row gradients into the pending sparse
    /// gradients — the owner-side half of a distributed gradient exchange.
    ///
    /// `grads` is a flat `[rows.len(), dim]` buffer aligned with `rows`. Duplicate
    /// rows are allowed and are merged in `(row, position)` order, so the result is
    /// bit-identical to accumulating the occurrences one by one.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `grads.len() != rows.len() * dim` or any row is
    /// out of range (distributed callers address shards explicitly, so unlike the
    /// forward path no modulo mapping is applied here).
    pub fn accumulate_row_grads(
        &mut self,
        rows: &[usize],
        grads: &[f32],
    ) -> Result<(), TensorError> {
        if grads.len() != rows.len() * self.dim {
            return Err(TensorError::ShapeMismatch {
                op: "accumulate_row_grads",
                lhs: vec![grads.len()],
                rhs: vec![rows.len(), self.dim],
            });
        }
        if let Some(&bad) = rows.iter().find(|&&r| r >= self.num_embeddings) {
            return Err(TensorError::ShapeMismatch {
                op: "accumulate_row_grads",
                lhs: vec![bad],
                rhs: vec![self.num_embeddings],
            });
        }
        let dim = self.dim;
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by_key(|&slot| (rows[slot], slot));
        let mut batch = SparseRowGrads::default();
        for slot in order {
            let grad_row = &grads[slot * dim..(slot + 1) * dim];
            if batch.indices.last() == Some(&rows[slot]) {
                let start = batch.grads.len() - dim;
                for (acc, g) in batch.grads[start..].iter_mut().zip(grad_row) {
                    *acc += g;
                }
            } else {
                batch.indices.push(rows[slot]);
                batch.grads.extend_from_slice(grad_row);
            }
        }
        self.pending_grads.merge(batch, dim);
        Ok(())
    }

    /// Number of rows with pending (unapplied) gradients.
    #[must_use]
    pub fn pending_rows(&self) -> usize {
        self.pending_grads.indices.len()
    }

    /// The pending gradient accumulated for `row`, if that row was touched.
    #[must_use]
    pub fn pending_grad_for(&self, row: usize) -> Option<&[f32]> {
        self.pending_grads.row(row, self.dim)
    }

    /// Discards pending gradients without applying them.
    pub fn zero_grad(&mut self) {
        self.pending_grads.clear();
    }

    /// Mean embedding vector of the given rows; used by the Tower Partitioner to probe
    /// feature similarity.
    #[must_use]
    pub fn mean_row(&self, rows: &[usize]) -> Vec<f32> {
        let mut acc = vec![0.0f32; self.dim];
        if rows.is_empty() {
            return acc;
        }
        for &r in rows {
            let row = self.row(r % self.num_embeddings);
            for (a, v) in acc.iter_mut().zip(row) {
                *a += v;
            }
        }
        for a in &mut acc {
            *a /= rows.len() as f32;
        }
        acc
    }
}

impl RowSource for EmbeddingTable {
    #[inline]
    fn row_into(&self, index: usize, out: &mut Vec<f32>) {
        out.extend_from_slice(self.row(index));
    }

    #[inline]
    fn prefetch_row(&self, index: usize) {
        prefetch_read_span(&self.weight, index * self.dim, self.dim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(rows: usize, dim: usize) -> EmbeddingTable {
        EmbeddingTable::new(&mut StdRng::seed_from_u64(5), rows, dim)
    }

    #[test]
    fn pooled_lookup_sums_rows() {
        let mut t = table(4, 3);
        let bags = vec![vec![0, 1], vec![2]];
        let out = t.forward(&bags).unwrap();
        assert_eq!(out.shape(), &[2, 3]);
        let expected: Vec<f32> = (0..3).map(|i| t.row(0)[i] + t.row(1)[i]).collect();
        assert_eq!(&out.data()[..3], expected.as_slice());
        assert_eq!(&out.data()[3..], t.row(2));
    }

    #[test]
    fn out_of_range_indices_wrap() {
        let mut t = table(4, 2);
        let out = t.forward(&[vec![5]]).unwrap();
        assert_eq!(out.data(), t.row(1));
    }

    #[test]
    fn empty_bag_produces_zero_vector() {
        let mut t = table(4, 2);
        let out = t.forward(&[vec![]]).unwrap();
        assert_eq!(out.data(), &[0.0, 0.0]);
    }

    #[test]
    fn backward_accumulates_sparse_grads() {
        let mut t = table(8, 2);
        t.forward(&[vec![1, 1], vec![3]]).unwrap();
        let grad = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        t.backward(&grad).unwrap();
        assert_eq!(t.pending_rows(), 2);
        // Row 1 appears twice in sample 0's bag, so it gets twice the gradient.
        assert_eq!(t.pending_grad_for(1).unwrap(), &[2.0, 4.0]);
        assert_eq!(t.pending_grad_for(3).unwrap(), &[3.0, 4.0]);
        assert!(t.pending_grad_for(2).is_none());
    }

    #[test]
    fn backward_merges_across_calls_like_a_running_sum() {
        let mut t = table(8, 2);
        // First batch touches rows {1, 3}, second batch rows {0, 3, 5}; row 3 must
        // accumulate across the two CSR merges.
        t.forward(&[vec![1], vec![3]]).unwrap();
        t.backward(&Tensor::from_vec(vec![2, 2], vec![1.0, 1.0, 2.0, 2.0]).unwrap())
            .unwrap();
        t.forward(&[vec![3, 0], vec![5]]).unwrap();
        t.backward(&Tensor::from_vec(vec![2, 2], vec![10.0, 10.0, 4.0, 4.0]).unwrap())
            .unwrap();
        assert_eq!(t.pending_rows(), 4);
        assert_eq!(t.pending_grad_for(0).unwrap(), &[10.0, 10.0]);
        assert_eq!(t.pending_grad_for(1).unwrap(), &[1.0, 1.0]);
        assert_eq!(t.pending_grad_for(3).unwrap(), &[12.0, 12.0]);
        assert_eq!(t.pending_grad_for(5).unwrap(), &[4.0, 4.0]);
    }

    #[test]
    fn pooled_outputs_are_bit_identical_to_the_reference_loop() {
        // Reference: the seed's per-index walk (clone each row, add it scalar-wise).
        fn reference_forward(t: &EmbeddingTable, bags: &[Vec<usize>]) -> Vec<f32> {
            let mut out = vec![0.0f32; bags.len() * t.dim()];
            for (b, bag) in bags.iter().enumerate() {
                for &raw in bag {
                    let row = t.row(raw % t.num_embeddings()).to_vec();
                    for (i, v) in row.iter().enumerate() {
                        out[b * t.dim() + i] += v;
                    }
                }
            }
            out
        }
        let mut t = table(64, 7);
        let bags: Vec<Vec<usize>> = (0..33)
            .map(|b| (0..(b % 9)).map(|j| b * 13 + j * 71).collect())
            .collect();
        let expected = reference_forward(&t, &bags);
        let actual = t.forward(&bags).unwrap();
        assert_eq!(actual.data().len(), expected.len());
        for (a, e) in actual.data().iter().zip(&expected) {
            assert_eq!(
                a.to_bits(),
                e.to_bits(),
                "pooled output must be bit-identical"
            );
        }
    }

    #[test]
    fn backward_shape_validation() {
        let mut t = table(4, 2);
        t.forward(&[vec![0]]).unwrap();
        assert!(t.backward(&Tensor::ones(&[2, 2])).is_err());
        assert!(t.backward(&Tensor::ones(&[1, 3])).is_err());
    }

    #[test]
    fn adagrad_moves_only_touched_rows() {
        let mut t = table(4, 2);
        let before_row2 = t.row(2).to_vec();
        let before_row0 = t.row(0).to_vec();
        t.forward(&[vec![0]]).unwrap();
        t.backward(&Tensor::ones(&[1, 2])).unwrap();
        t.apply_rowwise_adagrad(0.1, 1e-8);
        assert_ne!(t.row(0), before_row0.as_slice());
        assert_eq!(t.row(2), before_row2.as_slice());
        assert_eq!(t.pending_rows(), 0);
    }

    #[test]
    fn adagrad_steps_shrink_over_time() {
        let mut t = table(2, 2);
        let mut deltas = Vec::new();
        for _ in 0..3 {
            let before = t.row(0).to_vec();
            t.forward(&[vec![0]]).unwrap();
            t.backward(&Tensor::ones(&[1, 2])).unwrap();
            t.apply_rowwise_adagrad(0.1, 1e-8);
            let delta: f32 = t
                .row(0)
                .iter()
                .zip(&before)
                .map(|(a, b)| (a - b).abs())
                .sum();
            deltas.push(delta);
        }
        assert!(deltas[0] > deltas[1] && deltas[1] > deltas[2]);
    }

    #[test]
    fn training_pulls_logit_toward_target() {
        // One-row table trained to make its pooled output sum to 1.0.
        let mut t = table(1, 4);
        for _ in 0..200 {
            let out = t.forward(&[vec![0]]).unwrap();
            let err = out.sum() - 1.0;
            let grad = Tensor::full(&[1, 4], err);
            t.backward(&grad).unwrap();
            t.apply_rowwise_adagrad(0.05, 1e-8);
        }
        let out = t.forward(&[vec![0]]).unwrap();
        assert!((out.sum() - 1.0).abs() < 0.05);
    }

    #[test]
    fn lookup_rows_copies_in_request_order() {
        let t = table(8, 3);
        let out = t.lookup_rows(&[2, 0, 2, 9]);
        assert_eq!(out.len(), 4 * 3);
        assert_eq!(&out[..3], t.row(2));
        assert_eq!(&out[3..6], t.row(0));
        assert_eq!(&out[6..9], t.row(2));
        assert_eq!(&out[9..], t.row(1), "out-of-range rows wrap");
    }

    #[test]
    fn accumulate_row_grads_matches_backward_path() {
        // Accumulating grads through the distributed API must be bit-identical to the
        // forward/backward path touching the same (row, sample) occurrences.
        let mut via_backward = table(8, 2);
        via_backward.forward(&[vec![1, 1], vec![3]]).unwrap();
        via_backward
            .backward(&Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap())
            .unwrap();

        let mut via_rows = table(8, 2);
        via_rows
            .accumulate_row_grads(&[1, 1, 3], &[1.0, 2.0, 1.0, 2.0, 3.0, 4.0])
            .unwrap();

        for row in [1usize, 3] {
            assert_eq!(
                via_rows.pending_grad_for(row).unwrap(),
                via_backward.pending_grad_for(row).unwrap()
            );
        }
        assert_eq!(via_rows.pending_rows(), 2);
    }

    #[test]
    fn accumulate_row_grads_merges_unsorted_duplicates() {
        let mut t = table(8, 1);
        t.accumulate_row_grads(&[5, 2, 5], &[1.0, 10.0, 2.0])
            .unwrap();
        assert_eq!(t.pending_grad_for(5).unwrap(), &[3.0]);
        assert_eq!(t.pending_grad_for(2).unwrap(), &[10.0]);
    }

    #[test]
    fn accumulate_row_grads_validates_shapes() {
        let mut t = table(4, 2);
        assert!(t.accumulate_row_grads(&[0], &[1.0]).is_err());
        assert!(t.accumulate_row_grads(&[4], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn mean_row_averages_requested_rows() {
        let t = table(4, 2);
        let mean = t.mean_row(&[0, 1]);
        assert!((mean[0] - (t.row(0)[0] + t.row(1)[0]) / 2.0).abs() < 1e-7);
        assert_eq!(t.mean_row(&[]), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_table_panics() {
        let _ = EmbeddingTable::new(&mut StdRng::seed_from_u64(0), 0, 4);
    }
}
