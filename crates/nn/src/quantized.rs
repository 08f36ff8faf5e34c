//! Frozen embedding tables for serving, at any storage precision.
//!
//! Serving holds embedding tables that are read-only and memory-bound — the
//! capacity papers behind the roadmap (DisaggRec, Lui et al.) argue resident
//! table bytes, not FLOPs, bound how many models a tier can host. A
//! [`QuantizedEmbeddingTable`] keeps its rows in one [`RowStore`] and decodes
//! on the fly inside `lookup_rows_into`, with zero heap allocations per lookup
//! beyond the caller's reply buffer:
//!
//! * **f32** — the exact rows, with none of a trainable table's optimizer state.
//! * **fp16** — IEEE binary16 words, exactly 2x smaller.
//! * **int8** — one byte per element plus one `f32` scale per *row*
//!   (symmetric `max_abs / 127`), ~3.2–3.9x smaller than f32 at serving dims.
//!
//! [`QuantizedShardedTable`] is its row-sharded form, the same [`Sharded`]
//! geometry as [`ShardedEmbeddingTable`] (same `ceil(num/W)` block partition,
//! same modulo row wrap). It is built from the f32 rows a shard's range covers,
//! so an exported f32 snapshot re-shards straight into serving shards with no
//! new export format.

use crate::row_store::RowStore;
use crate::sharded::{RowSource, Sharded, ShardedEmbeddingTable};
use dmt_tensor::quant::Precision;

/// A read-only embedding table stored at any [`Precision`].
///
/// This is the serving-side counterpart of [`crate::EmbeddingTable`]: same
/// `[num_embeddings, dim]` geometry, same modulo row-wrap on lookup, but rows
/// live in a [`RowStore`] and every access decodes into the caller's `f32`
/// buffer. There is no training path — gradients never touch a frozen table.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedEmbeddingTable {
    rows: RowStore,
    num_embeddings: usize,
}

impl QuantizedEmbeddingTable {
    /// Encodes exported row-major `[num_embeddings, dim]` f32 weights at
    /// `precision` ([`Precision::F32`] keeps them exact).
    ///
    /// # Panics
    ///
    /// Panics if a dimension is zero or `weight.len() != num_embeddings * dim`.
    #[must_use]
    pub fn from_weights(
        num_embeddings: usize,
        dim: usize,
        weight: &[f32],
        precision: Precision,
    ) -> Self {
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
            rows: RowStore::encode(precision, dim, weight),
            num_embeddings,
        }
    }

    /// The storage format of this table's rows.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.rows.precision()
    }

    /// Number of rows.
    #[must_use]
    pub fn num_embeddings(&self) -> usize {
        self.num_embeddings
    }

    /// Embedding dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.rows.dim()
    }

    /// Bytes resident in this table: payload words plus int8 per-row scales.
    /// The f32 equivalent is `4 * num_embeddings * dim`.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.rows.resident_bytes()
    }

    /// Copies the requested rows, decoded, into a flat `[rows.len(), dim]`
    /// buffer in request order. Out-of-range indices wrap modulo the table
    /// size, exactly like [`crate::EmbeddingTable::lookup_rows`].
    #[must_use]
    pub fn lookup_rows(&self, rows: &[usize]) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows.len() * self.dim());
        self.lookup_rows_into(rows, &mut out);
        out
    }

    /// [`QuantizedEmbeddingTable::lookup_rows`] appending into a caller-owned
    /// buffer — the allocation-free form the distributed answer path uses.
    pub fn lookup_rows_into(&self, rows: &[usize], out: &mut Vec<f32>) {
        out.reserve(rows.len() * self.dim());
        for (n, &raw) in rows.iter().enumerate() {
            if let Some(&next) = rows.get(n + 1) {
                self.rows.prefetch(next % self.num_embeddings);
            }
            self.rows.row_into(raw % self.num_embeddings, out);
        }
    }

    /// Decodes the whole table back to row-major f32 weights — the
    /// reference the bit-identity tests compare lookups against.
    #[must_use]
    pub fn dequantize_weights(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.num_embeddings * self.dim());
        for index in 0..self.num_embeddings {
            self.rows.row_into(index, &mut out);
        }
        out
    }
}

impl RowSource for QuantizedEmbeddingTable {
    #[inline]
    fn row_into(&self, index: usize, out: &mut Vec<f32>) {
        self.rows.row_into(index, out);
    }

    #[inline]
    fn prefetch_row(&self, index: usize) {
        self.rows.prefetch(index);
    }
}

/// One rank's shard of a row-partitioned frozen table.
pub type QuantizedShardedTable = Sharded<QuantizedEmbeddingTable>;

impl Sharded<QuantizedEmbeddingTable> {
    /// Encodes an existing f32 shard through its `local_weights` boundary.
    #[must_use]
    pub fn from_shard(shard: &ShardedEmbeddingTable, precision: Precision) -> Self {
        Self::from_local_rows(
            shard.num_embeddings(),
            shard.dim(),
            shard.world_size(),
            shard.shard_index(),
            shard.local_weights(),
            precision,
        )
    }

    /// Builds shard `shard_index` from the row-major f32 buffer of exactly the
    /// rows its range covers — the encoding mirror of
    /// [`ShardedEmbeddingTable::from_local_rows`].
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as the f32 constructor.
    #[must_use]
    pub fn from_local_rows(
        num_embeddings: usize,
        dim: usize,
        world_size: usize,
        shard_index: usize,
        local_rows: &[f32],
        precision: Precision,
    ) -> Self {
        let len = Some(local_rows.len());
        Self::build(num_embeddings, dim, world_size, shard_index, len, |rows| {
            QuantizedEmbeddingTable::from_weights(rows, dim, local_rows, precision)
        })
    }

    /// Bytes resident in this shard's rows (0 for an empty range).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.local()
            .map_or(0, QuantizedEmbeddingTable::resident_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EmbeddingTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn weights(rows: usize, dim: usize) -> Vec<f32> {
        EmbeddingTable::new(&mut StdRng::seed_from_u64(7), rows, dim)
            .weights()
            .to_vec()
    }

    #[test]
    fn round_trip_error_is_bounded_per_row() {
        let (rows, dim) = (16, 8);
        let w = weights(rows, dim);
        for precision in [Precision::Fp16, Precision::Int8] {
            let q = QuantizedEmbeddingTable::from_weights(rows, dim, &w, precision);
            let back = q.dequantize_weights();
            for (r, row) in w.chunks_exact(dim).enumerate() {
                let max_abs = row.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
                let bound = precision.max_abs_error(max_abs) * (1.0 + 1e-5);
                for (a, b) in row.iter().zip(&back[r * dim..(r + 1) * dim]) {
                    assert!((a - b).abs() <= bound, "{precision}: {a} -> {b}");
                }
            }
        }
    }

    #[test]
    fn lookup_matches_dequantized_reference_bit_identically() {
        let (rows, dim) = (12, 5);
        let w = weights(rows, dim);
        for precision in [Precision::F32, Precision::Fp16, Precision::Int8] {
            let q = QuantizedEmbeddingTable::from_weights(rows, dim, &w, precision);
            let reference = EmbeddingTable::from_weights(rows, dim, q.dequantize_weights());
            let ids = [0usize, 3, 3, 11, 25];
            let via_quant = q.lookup_rows(&ids);
            let via_ref = reference.lookup_rows(&ids);
            for (a, b) in via_quant.iter().zip(&via_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "{precision}");
            }
        }
    }

    #[test]
    fn fp16_requantization_is_idempotent() {
        // Decoded fp16 values are exactly representable, so a second
        // quantization pass is the identity — what the hot-row cache relies on.
        let (rows, dim) = (6, 4);
        let q =
            QuantizedEmbeddingTable::from_weights(rows, dim, &weights(rows, dim), Precision::Fp16);
        let once = q.dequantize_weights();
        let twice = QuantizedEmbeddingTable::from_weights(rows, dim, &once, Precision::Fp16)
            .dequantize_weights();
        for (a, b) in once.iter().zip(&twice) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn resident_bytes_shrink_by_format() {
        let (rows, dim) = (64, 16);
        let w = weights(rows, dim);
        let f32_bytes = 4 * (rows * dim) as u64;
        let int8 = QuantizedEmbeddingTable::from_weights(rows, dim, &w, Precision::Int8);
        let fp16 = QuantizedEmbeddingTable::from_weights(rows, dim, &w, Precision::Fp16);
        assert_eq!(fp16.resident_bytes() * 2, f32_bytes);
        assert!(int8.resident_bytes() * 2 < f32_bytes, "int8 beats 2x");
        assert_eq!(int8.resident_bytes(), (rows * dim) as u64 + 4 * rows as u64);
    }

    #[test]
    fn sharded_lookup_matches_unsharded_bit_identically() {
        let (rows, dim) = (10, 3);
        let w = weights(rows, dim);
        for precision in [Precision::Fp16, Precision::Int8] {
            for world in [1usize, 3, 4, 16] {
                let whole = QuantizedEmbeddingTable::from_weights(rows, dim, &w, precision);
                let shards: Vec<QuantizedShardedTable> = (0..world)
                    .map(|s| {
                        let f32_shard =
                            ShardedEmbeddingTable::from_local_rows(rows, dim, world, s, {
                                let rps = rows.div_ceil(world);
                                let lo = (s * rps).min(rows);
                                let hi = ((s + 1) * rps).min(rows);
                                w[lo * dim..hi * dim].to_vec()
                            });
                        QuantizedShardedTable::from_shard(&f32_shard, precision)
                    })
                    .collect();
                for raw in [0usize, 4, 9, 13] {
                    let owner = shards[0].owner_of(raw);
                    let via_shard = shards[owner].lookup_rows(&[raw]).unwrap();
                    let via_whole = whole.lookup_rows(&[raw]);
                    for (a, b) in via_shard.iter().zip(&via_whole) {
                        assert_eq!(a.to_bits(), b.to_bits(), "{precision} world {world}");
                    }
                }
            }
        }
    }

    #[test]
    fn foreign_and_empty_shard_rows_are_rejected() {
        let (rows, dim) = (10, 2);
        let w = weights(rows, dim);
        let f32_shard = ShardedEmbeddingTable::from_local_rows(rows, dim, 4, 0, w[..6].to_vec());
        let q = QuantizedShardedTable::from_shard(&f32_shard, Precision::Int8);
        assert!(q.lookup_rows(&[5]).is_err(), "row 5 belongs to shard 1");
        // Shard 7 of 8 over 3 rows owns nothing.
        let empty_f32 = ShardedEmbeddingTable::from_local_rows(3, dim, 8, 7, Vec::new());
        let empty = QuantizedShardedTable::from_shard(&empty_f32, Precision::Fp16);
        assert_eq!(empty.resident_bytes(), 0);
        assert!(empty.lookup_rows(&[]).unwrap().is_empty());
        assert!(empty.lookup_rows(&[0]).is_err());
    }
}
