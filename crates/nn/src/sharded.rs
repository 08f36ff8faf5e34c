//! Row-sharded embedding tables for the distributed execution engine.
//!
//! A [`Sharded`] table is one rank's slice of a logical `[num_embeddings, dim]`
//! table whose rows are block-partitioned across the ranks of a communicator
//! world: rank `w` owns the contiguous row range
//! `[w * ceil(num/W), (w+1) * ceil(num/W))`. The geometry — owner resolution
//! ([`Sharded::owner_of`]), the owned range and the ownership-checked row fetch
//! ([`Sharded::lookup_rows_into`]) — is written once, over any [`RowSource`]:
//!
//! * [`ShardedEmbeddingTable`] holds trainable [`EmbeddingTable`] rows and also
//!   accumulates remotely computed gradients — the local halves of the
//!   distributed lookup/grad exchange `dmt-trainer::distributed` drives over a
//!   `dmt-comm` backend;
//! * [`crate::QuantizedShardedTable`] holds frozen serving rows at any storage
//!   precision.
//!
//! Sharding is a pure re-homing of rows: the set of (row, value) pairs across all
//! shards equals a single table's, so a sharded lookup followed by requester-side
//! pooling is bit-identical to a local [`crate::EmbeddingTable::forward`] over a
//! table with the same rows.

use crate::embedding_table::EmbeddingTable;
use dmt_tensor::TensorError;
use rand::Rng;
use std::ops::Range;

/// The local rows a [`Sharded`] table reads. `index` is always a shard-local
/// row inside the table.
pub trait RowSource {
    /// Appends the `f32` values of row `index` onto `out`.
    fn row_into(&self, index: usize, out: &mut Vec<f32>);

    /// Software-prefetches row `index` (a pure performance hint).
    fn prefetch_row(&self, index: usize);
}

/// One rank's shard of a row-partitioned embedding table, its local rows
/// held by a `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sharded<T> {
    /// Local rows, `None` when this shard's range is empty (more shards than rows).
    shard: Option<T>,
    num_embeddings: usize,
    dim: usize,
    world_size: usize,
    shard_index: usize,
    rows_per_shard: usize,
}

/// One rank's shard of a trainable table.
pub type ShardedEmbeddingTable = Sharded<EmbeddingTable>;

impl<T> Sharded<T> {
    /// Shard `shard_index` of a logical `[num_embeddings, dim]` table split
    /// across `world_size` ranks, its local rows built by `local(row_count)`
    /// (never called for an empty range). `local_len`, when given, is the
    /// length of the caller's row-major buffer of exactly the rows the range
    /// covers.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or `world_size` is zero, `shard_index` is out of
    /// range, or `local_len` does not match the shard's row range.
    pub(crate) fn build(
        num_embeddings: usize,
        dim: usize,
        world_size: usize,
        shard_index: usize,
        local_len: Option<usize>,
        local: impl FnOnce(usize) -> T,
    ) -> Self {
        assert!(
            num_embeddings > 0 && dim > 0 && world_size > 0,
            "sharded table dimensions must be positive"
        );
        assert!(shard_index < world_size, "shard index out of range");
        let mut sharded = Self {
            shard: None,
            num_embeddings,
            dim,
            world_size,
            shard_index,
            rows_per_shard: num_embeddings.div_ceil(world_size),
        };
        let rows = sharded.local_row_range().len();
        if let Some(len) = local_len {
            assert_eq!(
                len,
                rows * dim,
                "local rows must cover exactly the shard's range"
            );
        }
        sharded.shard = (rows > 0).then(|| local(rows));
        sharded
    }

    /// Rows of the logical table.
    #[must_use]
    pub fn num_embeddings(&self) -> usize {
        self.num_embeddings
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of shards the logical table is split across.
    #[must_use]
    pub fn world_size(&self) -> usize {
        self.world_size
    }

    /// This shard's index.
    #[must_use]
    pub fn shard_index(&self) -> usize {
        self.shard_index
    }

    /// The shard owning global `row`.
    ///
    /// Rows outside the logical table wrap modulo `num_embeddings`, mirroring the
    /// hashing trick [`EmbeddingTable::forward`] applies.
    #[must_use]
    pub fn owner_of(&self, row: usize) -> usize {
        (row % self.num_embeddings) / self.rows_per_shard
    }

    /// Global row range owned by this shard (possibly empty).
    #[must_use]
    pub fn local_row_range(&self) -> Range<usize> {
        let lo = (self.shard_index * self.rows_per_shard).min(self.num_embeddings);
        let hi = ((self.shard_index + 1) * self.rows_per_shard).min(self.num_embeddings);
        lo..hi
    }

    /// This shard's local rows, `None` when its range is empty.
    pub(crate) fn local(&self) -> Option<&T> {
        self.shard.as_ref()
    }
}

/// Global row `g` (already wrapped) as an index into the owned `range`.
fn localize(range: &Range<usize>, g: usize) -> Result<usize, TensorError> {
    if range.contains(&g) {
        Ok(g - range.start)
    } else {
        Err(TensorError::ShapeMismatch {
            op: "sharded_row_ownership",
            lhs: vec![g],
            rhs: vec![range.start, range.end],
        })
    }
}

impl<T: RowSource> Sharded<T> {
    /// Copies the requested *global* rows (which must all be owned by this shard)
    /// into a flat `[rows.len(), dim]` buffer in request order.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if any row is outside this shard's range.
    pub fn lookup_rows(&self, global_rows: &[usize]) -> Result<Vec<f32>, TensorError> {
        let mut out = Vec::new();
        self.lookup_rows_into(global_rows, &mut out)?;
        Ok(out)
    }

    /// [`Sharded::lookup_rows`] appending into a caller-owned buffer, so an
    /// answer spanning many feature runs fills one reply buffer without
    /// intermediate allocations. Each row is validated and translated as it
    /// streams, and the next owned row is prefetched while this one is copied.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if any row is outside this shard's range.
    pub fn lookup_rows_into(
        &self,
        global_rows: &[usize],
        out: &mut Vec<f32>,
    ) -> Result<(), TensorError> {
        let (range, n) = (self.local_row_range(), self.num_embeddings);
        out.reserve(global_rows.len() * self.dim);
        for (i, &raw) in global_rows.iter().enumerate() {
            let local = localize(&range, raw % n)?;
            // An owned row means a non-empty range, hence local rows.
            let Some(table) = &self.shard else { continue };
            if let Some(&next) = global_rows.get(i + 1) {
                let next = next % n;
                if range.contains(&next) {
                    table.prefetch_row(next - range.start);
                }
            }
            table.row_into(local, out);
        }
        Ok(())
    }
}

impl Sharded<EmbeddingTable> {
    /// Creates shard `shard_index` of a logical `[num_embeddings, dim]` table
    /// partitioned across `world_size` ranks.
    ///
    /// Each shard draws its rows from its own `rng`; seeding the rng per
    /// `(table, shard)` makes initialization independent of the world size layout
    /// while staying deterministic.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or `world_size` is zero, or `shard_index` is out of
    /// range.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        num_embeddings: usize,
        dim: usize,
        world_size: usize,
        shard_index: usize,
    ) -> Self {
        Self::build(num_embeddings, dim, world_size, shard_index, None, |rows| {
            EmbeddingTable::new(rng, rows, dim)
        })
    }

    /// Rebuilds shard `shard_index` from exported weights: `local_rows` is the
    /// row-major buffer of exactly the rows this shard's range covers (possibly
    /// empty when there are more shards than rows). This is the import half of a
    /// sharded model snapshot — serving re-shards a table by slicing the full
    /// exported weight buffer per target shard.
    ///
    /// # Panics
    ///
    /// Panics if a dimension or `world_size` is zero, `shard_index` is out of
    /// range, or `local_rows` does not match the shard's row range.
    #[must_use]
    pub fn from_local_rows(
        num_embeddings: usize,
        dim: usize,
        world_size: usize,
        shard_index: usize,
        local_rows: Vec<f32>,
    ) -> Self {
        let len = Some(local_rows.len());
        Self::build(num_embeddings, dim, world_size, shard_index, len, |rows| {
            EmbeddingTable::from_weights(rows, dim, local_rows)
        })
    }

    /// Borrow of this shard's local row-major weights (empty when the shard's
    /// range is empty) — the export half of a sharded model snapshot.
    #[must_use]
    pub fn local_weights(&self) -> &[f32] {
        self.shard.as_ref().map_or(&[], EmbeddingTable::weights)
    }

    /// Accumulates per-row gradients (flat `[rows.len(), dim]`, aligned with
    /// `global_rows`) into this shard's pending sparse gradients.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if any row is outside this shard's range or the
    /// gradient buffer does not match.
    pub fn accumulate_row_grads(
        &mut self,
        global_rows: &[usize],
        grads: &[f32],
    ) -> Result<(), TensorError> {
        let range = self.local_row_range();
        let local = global_rows
            .iter()
            .map(|&g| localize(&range, g % self.num_embeddings))
            .collect::<Result<Vec<_>, _>>()?;
        match &mut self.shard {
            Some(table) => table.accumulate_row_grads(&local, grads),
            // An empty range owns no row, so `global_rows` was empty.
            None => Ok(()),
        }
    }

    /// Applies pending sparse gradients with row-wise Adagrad (see
    /// [`EmbeddingTable::apply_rowwise_adagrad`]).
    pub fn apply_rowwise_adagrad(&mut self, learning_rate: f32, eps: f32) {
        if let Some(table) = &mut self.shard {
            table.apply_rowwise_adagrad(learning_rate, eps);
        }
    }

    /// Discards pending gradients without applying them.
    pub fn zero_grad(&mut self) {
        if let Some(table) = &mut self.shard {
            table.zero_grad();
        }
    }

    /// Rows with pending (unapplied) gradients on this shard.
    #[must_use]
    pub fn pending_rows(&self) -> usize {
        self.shard.as_ref().map_or(0, EmbeddingTable::pending_rows)
    }
}

/// The rank holding the `i`-th copy of `primary`'s shard under replication.
///
/// Copy 0 is the primary itself; copy `i` lives `i` *hosts* away at the same
/// position within the host: `(primary + i * gpus_per_host) % world_size`. While
/// `i` is smaller than the number of hosts, each copy therefore lands on a
/// different host — a whole-host failure can never take out every copy of a row
/// (the failure-domain-isolation argument disaggregation makes). Replication
/// degrades gracefully on a single-host world: copies then spread over the host's
/// ranks instead.
///
/// # Panics
///
/// Panics if `world_size` or `gpus_per_host` is zero.
#[must_use]
pub fn replica_rank(primary: usize, i: usize, world_size: usize, gpus_per_host: usize) -> usize {
    assert!(
        world_size > 0 && gpus_per_host > 0,
        "replica placement needs a non-empty world and host"
    );
    let stride = if gpus_per_host < world_size {
        gpus_per_host
    } else {
        // Single-host world: stride by one rank so copies still land on distinct
        // ranks instead of all aliasing the primary.
        1
    };
    (primary + i * stride) % world_size
}

/// The shards whose rows rank `holder` carries a copy of under `replicas`-way
/// replication — the inverse of [`replica_rank`]: all `primary` values such that
/// `replica_rank(primary, i, ..) == holder` for some `i` in `1..=replicas`.
/// Ascending, deduplicated, and never including `holder`'s own shard.
#[must_use]
pub fn replica_sources(
    holder: usize,
    replicas: usize,
    world_size: usize,
    gpus_per_host: usize,
) -> Vec<usize> {
    let mut sources: Vec<usize> = (0..world_size)
        .filter(|&primary| {
            primary != holder
                && (1..=replicas)
                    .any(|i| replica_rank(primary, i, world_size, gpus_per_host) == holder)
        })
        .collect();
    sources.dedup();
    sources
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shards(rows: usize, dim: usize, world: usize) -> Vec<ShardedEmbeddingTable> {
        (0..world)
            .map(|w| {
                let mut rng = StdRng::seed_from_u64(1000 + w as u64);
                ShardedEmbeddingTable::new(&mut rng, rows, dim, world, w)
            })
            .collect()
    }

    #[test]
    fn shards_partition_the_row_space() {
        for (rows, world) in [(10usize, 4usize), (16, 4), (3, 8), (7, 1)] {
            let shards = shards(rows, 2, world);
            let mut covered = vec![0usize; rows];
            for s in &shards {
                for r in s.local_row_range() {
                    covered[r] += 1;
                    assert_eq!(s.owner_of(r), s.shard_index());
                }
            }
            assert!(
                covered.iter().all(|&c| c == 1),
                "rows {rows} world {world}: {covered:?}"
            );
        }
    }

    #[test]
    fn more_shards_than_rows_leaves_empty_shards() {
        let shards = shards(3, 2, 8);
        let owned: usize = shards.iter().map(|s| s.local_row_range().len()).sum();
        assert_eq!(owned, 3);
        assert!(shards[7].local_weights().is_empty());
        assert!(shards[7].lookup_rows(&[]).unwrap().is_empty());
    }

    #[test]
    fn lookup_and_grads_round_trip() {
        let mut shards = shards(10, 3, 4);
        let rows = vec![0, 1, 2]; // shard 0 owns rows 0..3
        let fetched = shards[0].lookup_rows(&rows).unwrap();
        assert_eq!(fetched.len(), 9);
        shards[0].accumulate_row_grads(&rows, &[1.0; 9]).unwrap();
        assert_eq!(shards[0].pending_rows(), 3);
        shards[0].apply_rowwise_adagrad(0.1, 1e-8);
        assert_eq!(shards[0].pending_rows(), 0);
        let moved = shards[0].lookup_rows(&rows).unwrap();
        assert_ne!(fetched, moved, "adagrad must move the touched rows");
    }

    #[test]
    fn foreign_rows_are_rejected() {
        let mut shards = shards(10, 2, 4);
        assert!(shards[0].lookup_rows(&[5]).is_err());
        assert!(shards[1].accumulate_row_grads(&[0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn out_of_range_rows_wrap_like_the_dense_table() {
        let shards = shards(10, 2, 4);
        // Row 10 wraps to row 0, owned by shard 0.
        assert_eq!(shards[0].owner_of(10), 0);
        let direct = shards[0].lookup_rows(&[0]).unwrap();
        let wrapped = shards[0].lookup_rows(&[10]).unwrap();
        assert_eq!(direct, wrapped);
    }

    #[test]
    fn zero_grad_discards_pending() {
        let mut shards = shards(8, 2, 2);
        shards[0].accumulate_row_grads(&[1], &[1.0, 1.0]).unwrap();
        shards[0].zero_grad();
        assert_eq!(shards[0].pending_rows(), 0);
    }

    #[test]
    fn export_import_round_trips_bit_identically() {
        for (rows, world) in [(10usize, 4usize), (3, 8), (7, 1)] {
            let originals = shards(rows, 3, world);
            for original in &originals {
                let rebuilt = ShardedEmbeddingTable::from_local_rows(
                    rows,
                    3,
                    world,
                    original.shard_index(),
                    original.local_weights().to_vec(),
                );
                assert_eq!(rebuilt.local_weights(), original.local_weights());
                let range: Vec<usize> = original.local_row_range().collect();
                assert_eq!(
                    rebuilt.lookup_rows(&range).unwrap(),
                    original.lookup_rows(&range).unwrap()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "exactly the shard's range")]
    fn import_rejects_mismatched_buffers() {
        let _ = ShardedEmbeddingTable::from_local_rows(10, 2, 4, 0, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "shard index")]
    fn shard_index_must_be_in_world() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = ShardedEmbeddingTable::new(&mut rng, 8, 2, 2, 2);
    }

    #[test]
    fn replica_placement_crosses_host_boundaries() {
        // 2 hosts x 4 GPUs: the first replica of every shard must live on the
        // *other* host, so losing a whole host never loses a row.
        let (world, gpus) = (8usize, 4usize);
        for primary in 0..world {
            let replica = replica_rank(primary, 1, world, gpus);
            assert_ne!(primary / gpus, replica / gpus, "primary {primary}");
            assert_ne!(primary, replica);
        }
        // 4 hosts x 2 GPUs, r=2: copies 1 and 2 land on two further distinct hosts.
        let (world, gpus) = (8usize, 2usize);
        for primary in 0..world {
            let hosts: Vec<usize> = (0..=2)
                .map(|i| replica_rank(primary, i, world, gpus) / gpus)
                .collect();
            assert_eq!(hosts[0], primary / gpus);
            assert_ne!(hosts[0], hosts[1]);
            assert_ne!(hosts[0], hosts[2]);
            assert_ne!(hosts[1], hosts[2]);
        }
    }

    #[test]
    fn single_host_worlds_still_spread_copies() {
        for primary in 0..4 {
            let replica = replica_rank(primary, 1, 4, 8);
            assert_ne!(primary, replica, "copies must not alias the primary");
        }
    }

    #[test]
    fn replica_sources_inverts_replica_rank() {
        for (world, gpus, replicas) in [(8usize, 4usize, 1usize), (8, 2, 2), (4, 8, 1), (6, 2, 1)] {
            for holder in 0..world {
                let sources = replica_sources(holder, replicas, world, gpus);
                // Every listed source really places a copy on `holder`...
                for &primary in &sources {
                    assert!(
                        (1..=replicas).any(|i| replica_rank(primary, i, world, gpus) == holder),
                        "world {world} holder {holder} source {primary}"
                    );
                }
                // ...and no placement is missed.
                for primary in 0..world {
                    for i in 1..=replicas {
                        if replica_rank(primary, i, world, gpus) == holder && primary != holder {
                            assert!(sources.contains(&primary));
                        }
                    }
                }
            }
        }
    }
}
