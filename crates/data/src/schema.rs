//! Dataset schemas: how many features, their cardinalities, and their latent blocks.

use serde::{Deserialize, Serialize};

/// Latent semantic group a sparse feature belongs to.
///
/// The paper's XLRM analysis (§5.2.3) finds that feature interactions "mostly manifest
/// as interactions between dedicated item, item-user, and dedicated user features"; the
/// synthetic generator plants exactly that structure so the Tower Partitioner has
/// something meaningful to recover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureBlock {
    /// Features describing the user.
    User,
    /// Features describing the item.
    Item,
    /// Context features (weakly informative).
    Context,
}

impl FeatureBlock {
    /// All blocks in a fixed order.
    pub const ALL: [FeatureBlock; 3] = [
        FeatureBlock::User,
        FeatureBlock::Item,
        FeatureBlock::Context,
    ];
}

/// Shape of a click-log dataset: dense feature count plus per-sparse-feature
/// cardinality, block assignment and pooling factor.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DatasetSchema {
    /// Number of dense (continuous) features.
    pub num_dense: usize,
    /// Cardinality (number of distinct ids) of each sparse feature.
    pub sparse_cardinalities: Vec<usize>,
    /// Latent block of each sparse feature.
    pub blocks: Vec<FeatureBlock>,
    /// Average number of ids per lookup bag for each sparse feature (1 = single-hot).
    pub pooling_factors: Vec<usize>,
}

impl DatasetSchema {
    /// Builds a schema.
    ///
    /// # Panics
    ///
    /// Panics if the per-feature vectors have different lengths or any cardinality or
    /// pooling factor is zero.
    #[must_use]
    pub fn new(
        num_dense: usize,
        sparse_cardinalities: Vec<usize>,
        blocks: Vec<FeatureBlock>,
        pooling_factors: Vec<usize>,
    ) -> Self {
        assert_eq!(
            sparse_cardinalities.len(),
            blocks.len(),
            "one block per sparse feature"
        );
        assert_eq!(
            sparse_cardinalities.len(),
            pooling_factors.len(),
            "one pooling factor per sparse feature"
        );
        assert!(
            sparse_cardinalities.iter().all(|&c| c > 0),
            "cardinalities must be positive"
        );
        assert!(
            pooling_factors.iter().all(|&p| p > 0),
            "pooling factors must be positive"
        );
        Self {
            num_dense,
            sparse_cardinalities,
            blocks,
            pooling_factors,
        }
    }

    /// A Criteo-shaped schema: 13 dense features and 26 single-hot sparse features with
    /// realistic (power-law-ish) cardinalities, split into user / item / context blocks.
    ///
    /// Cardinalities are scaled down from the raw Criteo ones so quality experiments
    /// train in CPU-minutes; the *relative* sizes (a few huge tables, many small ones)
    /// are preserved because that is what drives sharding decisions.
    #[must_use]
    pub fn criteo_like() -> Self {
        Self::with_cardinality_scale(1.0)
    }

    /// A reduced Criteo-like schema for unit tests and `--quick` experiment runs.
    #[must_use]
    pub fn criteo_like_small() -> Self {
        Self::with_cardinality_scale(0.02)
    }

    /// Criteo-like schema with every cardinality multiplied by `scale` (minimum 16).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not positive.
    #[must_use]
    pub fn with_cardinality_scale(scale: f64) -> Self {
        assert!(scale > 0.0, "cardinality scale must be positive");
        // 26 sparse features: 10 user, 10 item, 6 context. Base cardinalities follow a
        // skewed distribution like Criteo's.
        let base: [(usize, FeatureBlock); 26] = [
            (2_000_000, FeatureBlock::User),
            (500_000, FeatureBlock::User),
            (250_000, FeatureBlock::User),
            (100_000, FeatureBlock::User),
            (40_000, FeatureBlock::User),
            (10_000, FeatureBlock::User),
            (4_000, FeatureBlock::User),
            (1_200, FeatureBlock::User),
            (600, FeatureBlock::User),
            (100, FeatureBlock::User),
            (3_000_000, FeatureBlock::Item),
            (800_000, FeatureBlock::Item),
            (300_000, FeatureBlock::Item),
            (120_000, FeatureBlock::Item),
            (50_000, FeatureBlock::Item),
            (15_000, FeatureBlock::Item),
            (5_000, FeatureBlock::Item),
            (1_500, FeatureBlock::Item),
            (500, FeatureBlock::Item),
            (80, FeatureBlock::Item),
            (100_000, FeatureBlock::Context),
            (20_000, FeatureBlock::Context),
            (5_000, FeatureBlock::Context),
            (900, FeatureBlock::Context),
            (120, FeatureBlock::Context),
            (30, FeatureBlock::Context),
        ];
        let mut cardinalities = Vec::with_capacity(26);
        let mut blocks = Vec::with_capacity(26);
        for (c, b) in base {
            cardinalities.push(((c as f64 * scale) as usize).max(16));
            blocks.push(b);
        }
        let pooling = vec![1usize; 26];
        Self::new(13, cardinalities, blocks, pooling)
    }

    /// Number of sparse features.
    #[must_use]
    pub fn num_sparse(&self) -> usize {
        self.sparse_cardinalities.len()
    }

    /// Indices of the sparse features belonging to `block`.
    #[must_use]
    pub fn features_in_block(&self, block: FeatureBlock) -> Vec<usize> {
        self.blocks
            .iter()
            .enumerate()
            .filter_map(|(i, &b)| (b == block).then_some(i))
            .collect()
    }

    /// Total embedding rows across all tables.
    #[must_use]
    pub fn total_rows(&self) -> usize {
        self.sparse_cardinalities.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn criteo_like_has_26_sparse_and_13_dense() {
        let s = DatasetSchema::criteo_like();
        assert_eq!(s.num_sparse(), 26);
        assert_eq!(s.num_dense, 13);
        assert_eq!(s.blocks.len(), 26);
        assert_eq!(s.pooling_factors.len(), 26);
    }

    #[test]
    fn blocks_cover_all_features() {
        let s = DatasetSchema::criteo_like();
        let total: usize = FeatureBlock::ALL
            .iter()
            .map(|&b| s.features_in_block(b).len())
            .sum();
        assert_eq!(total, 26);
        assert_eq!(s.features_in_block(FeatureBlock::User).len(), 10);
        assert_eq!(s.features_in_block(FeatureBlock::Item).len(), 10);
        assert_eq!(s.features_in_block(FeatureBlock::Context).len(), 6);
    }

    #[test]
    fn small_schema_is_actually_small() {
        let small = DatasetSchema::criteo_like_small();
        let full = DatasetSchema::criteo_like();
        assert!(small.total_rows() < full.total_rows() / 10);
        assert!(small.sparse_cardinalities.iter().all(|&c| c >= 16));
    }

    #[test]
    #[should_panic(expected = "one block per sparse feature")]
    fn mismatched_blocks_panic() {
        let _ = DatasetSchema::new(1, vec![10, 10], vec![FeatureBlock::User], vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_panics() {
        let _ = DatasetSchema::with_cardinality_scale(0.0);
    }
}
