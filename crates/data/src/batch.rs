//! Minibatches of click-log samples.

use crate::schema::DatasetSchema;
use serde::{Deserialize, Serialize};

/// One minibatch of samples.
///
/// The sparse layout is feature-major (`sparse[f][b]` is the index bag of sample `b`
/// for sparse feature `f`) because that is the layout embedding lookup consumes: each
/// table processes the whole batch for its own feature.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    /// The schema the batch was drawn from.
    pub schema: DatasetSchema,
    /// Dense features, row-major `[batch][num_dense]`.
    pub dense: Vec<Vec<f32>>,
    /// Sparse index bags, `[num_sparse][batch][bag]`.
    pub sparse: Vec<Vec<Vec<usize>>>,
    /// Binary click labels, length `batch`.
    pub labels: Vec<f32>,
}

impl Batch {
    /// Number of samples in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Empirical click-through rate of the batch.
    #[must_use]
    pub fn ctr(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        f64::from(self.labels.iter().sum::<f32>()) / self.labels.len() as f64
    }

    /// Dense features flattened to a row-major `batch x num_dense` buffer.
    #[must_use]
    pub fn dense_flat(&self) -> Vec<f32> {
        self.dense.iter().flatten().copied().collect()
    }

    /// Splits the batch into `parts` contiguous sub-batches (the per-rank local batches
    /// of data-parallel training). The last part absorbs any remainder.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is zero or exceeds the batch size.
    #[must_use]
    pub fn split(&self, parts: usize) -> Vec<Batch> {
        assert!(
            parts > 0 && parts <= self.len(),
            "cannot split {} samples into {parts} parts",
            self.len()
        );
        let base = self.len() / parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0;
        for p in 0..parts {
            let count = if p == parts - 1 {
                self.len() - start
            } else {
                base
            };
            let dense = self.dense[start..start + count].to_vec();
            let sparse = self
                .sparse
                .iter()
                .map(|per_feature| per_feature[start..start + count].to_vec())
                .collect();
            let labels = self.labels[start..start + count].to_vec();
            out.push(Batch {
                schema: self.schema.clone(),
                dense,
                sparse,
                labels,
            });
            start += count;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DatasetSchema;

    fn tiny_batch(n: usize) -> Batch {
        let schema = DatasetSchema::criteo_like_small();
        let dense = (0..n).map(|i| vec![i as f32; schema.num_dense]).collect();
        let sparse = (0..schema.num_sparse())
            .map(|f| (0..n).map(|b| vec![f + b]).collect())
            .collect();
        let labels = (0..n).map(|i| (i % 2) as f32).collect();
        Batch {
            schema,
            dense,
            sparse,
            labels,
        }
    }

    #[test]
    fn ctr_and_len() {
        let b = tiny_batch(10);
        assert_eq!(b.len(), 10);
        assert!(!b.is_empty());
        assert!((b.ctr() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn dense_flat_is_row_major() {
        let b = tiny_batch(3);
        let flat = b.dense_flat();
        assert_eq!(flat.len(), 3 * b.schema.num_dense);
        assert_eq!(flat[b.schema.num_dense], 1.0);
    }

    #[test]
    fn split_preserves_all_samples() {
        let b = tiny_batch(10);
        let parts = b.split(4);
        assert_eq!(parts.len(), 4);
        let total: usize = parts.iter().map(Batch::len).sum();
        assert_eq!(total, 10);
        // Remainder goes to the last part.
        assert_eq!(parts[3].len(), 4);
        // Sparse layout is preserved feature-major.
        assert_eq!(parts[1].sparse.len(), b.schema.num_sparse());
        assert_eq!(parts[1].sparse[0][0], b.sparse[0][2]);
    }

    #[test]
    #[should_panic(expected = "cannot split")]
    fn splitting_into_more_parts_than_samples_panics() {
        let _ = tiny_batch(2).split(3);
    }
}
