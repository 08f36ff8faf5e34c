//! Rank-local model state shared by both deployments: the sharded embedding
//! lookup (decomposed into issue/answer/pool phases so the pipelined schedule can
//! interleave them with collectives) and the dense-parameter plumbing around the
//! replicated dense stack.
//!
//! The module is public because the *serving* engine (`dmt-serve`) reuses the
//! exact same building blocks on its query path: [`ShardedLookup`] provides the
//! route → answer → pool protocol over frozen (exported) tables at any storage
//! precision, and [`flatten_params`] / [`load_params`] move dense weights in and
//! out of a snapshot. The dense stack itself lives in [`dmt_models::dense`],
//! where the quality model trains through it too; it is re-exported here
//! because this path is the one the repo benchmark pins.

use super::config::DistributedError;
use super::export::TableWeights;
use dmt_data::{Batch, DatasetSchema};
use dmt_nn::param::HasParameters;
use dmt_nn::{
    EmbeddingTable, QuantizedEmbeddingTable, QuantizedShardedTable, RowSource, Sharded,
    ShardedEmbeddingTable,
};
use dmt_tensor::{Precision, Tensor, TensorError};

pub use dmt_models::{DenseScratch, DenseStack};

/// Encodes a (feature, row) pair into the u64 key the index exchanges carry.
#[must_use]
pub fn encode_key(feature: usize, row: usize) -> u64 {
    ((feature as u64) << 32) | row as u64
}

/// Decodes a (feature, row) key.
#[must_use]
pub fn decode_key(key: u64) -> (usize, usize) {
    ((key >> 32) as usize, (key & 0xFFFF_FFFF) as usize)
}

/// Splits a sorted key list into contiguous same-feature runs of decoded rows.
pub(crate) fn feature_runs(keys: &[u64]) -> impl Iterator<Item = (usize, Vec<usize>)> + '_ {
    let mut start = 0usize;
    std::iter::from_fn(move || {
        if start >= keys.len() {
            return None;
        }
        let (feature, _) = decode_key(keys[start]);
        let mut end = start;
        let mut rows = Vec::new();
        while end < keys.len() {
            let (f, row) = decode_key(keys[end]);
            if f != feature {
                break;
            }
            rows.push(row);
            end += 1;
        }
        start = end;
        Some((feature, rows))
    })
}

// --- DMT tower layout + peer wire format ------------------------------------
//
// One definition serves the trainer's lowering and the serving engine: geometry
// or wire-format drift between the two would silently break the served-equals-
// trained bit-identity guarantee.

/// Sorted per-tower feature groups of the naive partition (ascending feature
/// ids within each group — the wire order of every tower exchange).
///
/// # Errors
///
/// Returns [`DistributedError::Config`] if the partition is invalid or leaves a
/// tower without features.
pub fn tower_groups(num_sparse: usize, towers: usize) -> Result<Vec<Vec<usize>>, DistributedError> {
    let partition = dmt_core::naive_partition(num_sparse, towers)?;
    let groups: Vec<Vec<usize>> = partition
        .groups()
        .iter()
        .map(|g| {
            let mut g = g.clone();
            g.sort_unstable();
            g
        })
        .collect();
    if groups.iter().any(Vec::is_empty) {
        return Err(DistributedError::Config {
            reason: "every tower needs at least one feature".into(),
        });
    }
    Ok(groups)
}

/// Ensemble projections of one tower over `features` features: `c · F_t + p`,
/// saturating at `usize::MAX` (a snapshot's `c`/`p` are untrusted).
fn tower_units(features: usize, c: usize, p: usize) -> usize {
    c.saturating_mul(features).saturating_add(p)
}

/// Compressed output width of each tower: `D · (c · F_t + p)` per group,
/// saturating at `usize::MAX`, so a forged geometry fails the loaders'
/// parameter-count check instead of overflowing.
#[must_use]
pub fn tower_widths(groups: &[Vec<usize>], c: usize, p: usize, d: usize) -> Vec<usize> {
    groups
        .iter()
        .map(|g| d.saturating_mul(tower_units(g.len(), c, p)))
        .collect()
}

/// Interaction units of the DMT dense stack: every tower's ensemble projections
/// plus the dense unit, saturating at `usize::MAX` like [`tower_widths`].
#[must_use]
pub fn tower_num_units(groups: &[Vec<usize>], c: usize, p: usize) -> usize {
    groups.iter().fold(1, |units, g| {
        units.saturating_add(tower_units(g.len(), c, p))
    })
}

/// Encodes `samples` local samples as per-tower peer index streams — the SPTT
/// wire format: `len, idx...` per bag, feature-major within each tower's group.
/// `bag(feature, sample)` supplies the index bag (batches and serving queries
/// store bags differently; the wire format must not).
pub fn encode_tower_streams<'a, F>(groups: &[Vec<usize>], samples: usize, bag: F) -> Vec<Vec<u64>>
where
    F: Fn(usize, usize) -> &'a [usize],
{
    groups
        .iter()
        .map(|group| {
            let mut stream = Vec::new();
            for &f in group {
                for s in 0..samples {
                    let b = bag(f, s);
                    stream.push(b.len() as u64);
                    stream.extend(b.iter().map(|&i| i as u64));
                }
            }
            stream
        })
        .collect()
}

/// Decodes incoming peer streams into the combined tower batch: one bag list
/// per tower feature over `sum(src_counts)` samples, source major.
/// `src_counts[s]` is source `s`'s sample count (uniform in training, per-rank
/// chunk sizes in serving).
#[must_use]
pub fn decode_tower_streams(
    incoming: &[Vec<u64>],
    num_features: usize,
    src_counts: &[usize],
) -> Vec<Vec<Vec<usize>>> {
    let mut tower_bags = Vec::new();
    decode_tower_streams_into(incoming, num_features, src_counts, &mut tower_bags);
    tower_bags
}

/// [`decode_tower_streams`] into `tower_bags`, reusing the bag `Vec`s it
/// already holds: training decodes into the previous iteration's bags, so
/// its steady state allocates and frees no bag.
pub(crate) fn decode_tower_streams_into(
    incoming: &[Vec<u64>],
    num_features: usize,
    src_counts: &[usize],
    tower_bags: &mut Vec<Vec<Vec<usize>>>,
) {
    let tower_batch: usize = incoming.iter().zip(src_counts).map(|(_, &b)| b).sum();
    tower_bags.resize_with(num_features, Vec::new);
    for bags in tower_bags.iter_mut() {
        bags.resize_with(tower_batch, Vec::new);
    }
    let mut first = 0usize;
    for (stream, &b) in incoming.iter().zip(src_counts) {
        let mut cursor = 0usize;
        for bags in tower_bags.iter_mut() {
            for bag in &mut bags[first..first + b] {
                let len = stream[cursor] as usize;
                cursor += 1;
                bag.clear();
                bag.extend(stream[cursor..cursor + len].iter().map(|&v| v as usize));
                cursor += len;
            }
        }
        debug_assert_eq!(cursor, stream.len());
        first += b;
    }
}

/// Request-routing state of one in-flight fetch: which keys this rank asked each
/// owner for, where each of its bag entries sits among them, and which keys
/// each source asked this rank for.
///
/// Owned per micro-batch (several fetches may be in flight at once under the
/// pipelined schedule). The routing also tells the wire codec how many `f32`
/// elements each encoded shard decodes to: `keys × dim` per owner/source.
#[derive(Debug, Default)]
pub struct LookupRouting {
    /// Requester side: per-owner sorted-unique request keys.
    pub request_keys: Vec<Vec<u64>>,
    /// Requester side: `(owner, slot)` of every entry of the routed bags, in
    /// (feature, sample, bag) order — `request_keys[owner][slot]` is the
    /// entry's key. Pooling and the gradient build index this instead of
    /// searching the keys.
    pub entry_slots: Vec<(u32, u32)>,
    /// Owner side: per-source request keys (set once the index exchange lands).
    pub served_keys: Vec<Vec<u64>>,
}

/// Walks every bag entry of `bags` in (feature, sample, bag) order, calling
/// `visit(pos, sample, owner, slot)` with the entry's slot in its owner's
/// request keys, read from `routing`, which [`ShardedLookup::route`] built
/// from these `bags`.
///
/// # Panics
///
/// Panics if `routing` holds more or fewer entries than `bags`, i.e. it was
/// routed from other bags.
fn for_each_requested(
    bags: &[&[Vec<usize>]],
    routing: &LookupRouting,
    mut visit: impl FnMut(usize, usize, usize, usize),
) {
    const MISMATCH: &str = "routing was built from other bags (entry count differs)";
    let mut slots = routing.entry_slots.as_slice();
    for (pos, per_sample) in bags.iter().enumerate() {
        for (sample, bag) in per_sample.iter().enumerate() {
            let (entries, rest) = slots.split_at_checked(bag.len()).expect(MISMATCH);
            slots = rest;
            for &(owner, slot) in entries {
                visit(pos, sample, owner as usize, slot as usize);
            }
        }
    }
    assert!(slots.is_empty(), "{MISMATCH}");
}

/// One rank's sharded view of a set of embedding tables.
///
/// The tables for `features` are row-sharded across the `world` ranks of the backend
/// this lookup is driven through (all ranks in baseline mode, one host's ranks in
/// DMT mode). A fetch runs the two-sided protocol: sorted-unique `(feature, row)`
/// keys to each owner, raw rows back, requester-side pooling; the backward pass
/// reuses the request routing to push per-row gradients to their owners. Each
/// protocol phase is its own method, so the sync path can run them back to back
/// while the pipelined path slots collectives between them.
///
/// The forward phases run over any [`RowSource`] shards. Training holds
/// trainable [`EmbeddingTable`] shards, the only ones with gradient, optimizer
/// and export phases. The serving engine loads *frozen* shards at any storage
/// precision ([`ShardedLookup::from_tables`]), where rows live as f32, fp16 or
/// int8 words and decode on the fly inside `answer`.
pub struct ShardedLookup<T = EmbeddingTable> {
    /// Global feature ids served by this world, ascending.
    features: Vec<usize>,
    /// This rank's shard of each feature's table, aligned with `features`.
    shards: Vec<Sharded<T>>,
    dim: usize,
}

impl<T> ShardedLookup<T> {
    /// Global feature ids served by this lookup, ascending.
    #[must_use]
    pub fn features(&self) -> &[usize] {
        &self.features
    }

    /// Embedding dimension of every served table.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// This rank's shard of each served table, aligned with
    /// [`ShardedLookup::features`].
    #[must_use]
    pub fn shards(&self) -> &[Sharded<T>] {
        &self.shards
    }

    /// Position of a global feature id within `features`.
    fn feature_pos(&self, feature: usize) -> usize {
        self.features
            .binary_search(&feature)
            .expect("feature served by this lookup")
    }

    // --- Protocol phases ----------------------------------------------------

    /// Phase 1 (requester): routes each distinct (feature, row) of `bags` to its
    /// owner shard as sorted-unique keys — the payload of the index AlltoAll —
    /// and records every bag entry's `(owner, slot)` among them
    /// ([`LookupRouting::entry_slots`]).
    ///
    /// # Panics
    ///
    /// Panics if `bags` hold 2³² or more entries.
    #[must_use]
    pub fn route(&self, world: usize, bags: &[&[Vec<usize>]]) -> LookupRouting {
        let entries: usize = bags.iter().flat_map(|b| b.iter()).map(Vec::len).sum();
        assert!(
            u32::try_from(entries).is_ok(),
            "route: 2^32 or more bag entries"
        );
        let mut request_keys: Vec<Vec<u64>> = vec![Vec::new(); world];
        let mut entry_slots = vec![(0u32, 0u32); entries];
        // One feature's entries per owner, packed as `row << 32 | entry` (rows
        // fit 32 bits, as in `encode_key`): sorting the words orders them by
        // row, so each owner's keys come out sorted and deduplicated feature
        // by feature (features ascend), and every entry learns its slot.
        let mut by_owner: Vec<Vec<u64>> = vec![Vec::new(); world];
        let mut entry = 0u64;
        for ((per_sample, shard), &feature) in bags.iter().zip(&self.shards).zip(&self.features) {
            for &raw in per_sample.iter().flatten() {
                let row = raw % shard.num_embeddings();
                by_owner[shard.owner_of(row)].push((row as u64) << 32 | entry);
                entry += 1;
            }
            for (owner, (words, keys)) in by_owner.iter_mut().zip(&mut request_keys).enumerate() {
                words.sort_unstable();
                for &word in words.iter() {
                    let key = encode_key(feature, (word >> 32) as usize);
                    if keys.last() != Some(&key) {
                        keys.push(key);
                    }
                    entry_slots[(word & 0xFFFF_FFFF) as usize] =
                        (owner as u32, keys.len() as u32 - 1);
                }
                words.clear();
            }
        }
        LookupRouting {
            request_keys,
            entry_slots,
            served_keys: Vec::new(),
        }
    }

    /// Phase 3 (requester): pools fetched rows into the `[samples, features ·
    /// dim]` block `out` (feature `pos` in columns `pos·dim .. (pos+1)·dim`),
    /// bit-identical to a local sum-pooled forward.
    pub fn pool_into(
        &self,
        bags: &[&[Vec<usize>]],
        routing: &LookupRouting,
        fetched: &[Vec<f32>],
        out: &mut Tensor,
    ) -> Result<(), DistributedError> {
        let dim = self.dim;
        let width = bags.len() * dim;
        out.reset_to_shape(&[bags.first().map_or(0, |b| b.len()), width]);
        let data = out.data_mut();
        for_each_requested(bags, routing, |pos, sample, owner, slot| {
            let dst = &mut data[sample * width + pos * dim..][..dim];
            for (d, v) in dst.iter_mut().zip(&fetched[owner][slot * dim..][..dim]) {
                *d += v;
            }
        });
        Ok(())
    }
}

impl<T: RowSource> ShardedLookup<T> {
    /// Phase 2 (owner): answers incoming request keys with raw rows, in request
    /// order. Keys are sorted, so rows of the same feature form contiguous runs and
    /// each run is answered with one batched shard lookup.
    pub fn answer(&self, incoming: &[Vec<u64>]) -> Result<Vec<Vec<f32>>, DistributedError> {
        let dim = self.dim;
        let mut replies: Vec<Vec<f32>> = Vec::with_capacity(incoming.len());
        for keys in incoming {
            let mut reply = Vec::with_capacity(keys.len() * dim);
            for (feature, rows) in feature_runs(keys) {
                self.shards[self.feature_pos(feature)].lookup_rows_into(&rows, &mut reply)?;
            }
            replies.push(reply);
        }
        Ok(replies)
    }

    /// Single-rank pooling: sums each sample's bag rows for every served
    /// feature straight into the feature-block layout `[samples, F · dim]`
    /// (feature `pos` occupies columns `pos·dim .. (pos+1)·dim`), skipping the
    /// route/answer key exchange entirely. Requires every row to be local —
    /// i.e. a lookup built with `world == 1` — and accumulates rows in bag
    /// order, bit-identical to the route → answer → [`ShardedLookup::pool_into`]
    /// path.
    ///
    /// `bag(feature, sample)` supplies the raw index bag (same contract as
    /// [`encode_tower_streams`]); `row_buf` is a reusable `dim`-row decode
    /// buffer, so once it and `out` have grown, the pass allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if a row is not owned by this shard view
    /// (the lookup was built with more than one shard).
    pub fn pool_local_into<'a, F>(
        &self,
        samples: usize,
        bag: F,
        row_buf: &mut Vec<f32>,
        out: &mut Tensor,
    ) -> Result<(), TensorError>
    where
        F: Fn(usize, usize) -> &'a [usize],
    {
        let dim = self.dim;
        let width = self.features.len() * dim;
        out.reset_to_shape(&[samples, width]);
        let data = out.data_mut();
        for (pos, (&feature, shard)) in self.features.iter().zip(&self.shards).enumerate() {
            for (s, sample_row) in data.chunks_exact_mut(width).enumerate() {
                let dst = &mut sample_row[pos * dim..(pos + 1) * dim];
                for &raw in bag(feature, s) {
                    let row = raw % shard.num_embeddings();
                    row_buf.clear();
                    shard.lookup_rows_into(std::slice::from_ref(&row), row_buf)?;
                    for (d, v) in dst.iter_mut().zip(row_buf.iter()) {
                        *d += v;
                    }
                }
            }
        }
        Ok(())
    }
}

impl ShardedLookup<EmbeddingTable> {
    /// Creates one rank's freshly initialized shard view: shard `shard_index` of
    /// `world` for every feature in `features`, with per-`(feature, shard)`
    /// deterministic seeding.
    #[must_use]
    pub(crate) fn new(
        seed: u64,
        schema: &DatasetSchema,
        mut features: Vec<usize>,
        dim: usize,
        world: usize,
        shard_index: usize,
    ) -> Self {
        use rand::SeedableRng;
        features.sort_unstable();
        let shards = features
            .iter()
            .map(|&f| {
                // Seed per (feature, shard): initialization is deterministic and
                // independent of which world drives the lookup.
                let mut rng = rand::rngs::StdRng::seed_from_u64(
                    seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(f as u64 + 1))
                        ^ ((shard_index as u64) << 48),
                );
                ShardedEmbeddingTable::new(
                    &mut rng,
                    schema.sparse_cardinalities[f],
                    dim,
                    world,
                    shard_index,
                )
            })
            .collect();
        Self {
            features,
            shards,
            dim,
        }
    }

    /// Exports this rank's shards as `(feature, first_global_row, local rows)`
    /// triples — the per-rank contribution to a full-table snapshot.
    pub(crate) fn export_shards(&self) -> Vec<(usize, usize, Vec<f32>)> {
        self.features
            .iter()
            .zip(&self.shards)
            .map(|(&f, shard)| {
                (
                    f,
                    shard.local_row_range().start,
                    shard.local_weights().to_vec(),
                )
            })
            .collect()
    }

    /// Backward phase 1 (requester): accumulates per-requested-row gradients
    /// (deduplicated exactly like the requests) into one buffer per owner — the
    /// payload of the gradient AlltoAll. `grads` is the `[samples, features ·
    /// dim]` gradient of the pooled block (feature `pos` in columns `pos·dim ..
    /// (pos+1)·dim`); each element is multiplied by `scale` (micro-batch
    /// averaging) before it is added.
    pub(crate) fn build_grad_bufs(
        &self,
        bags: &[&[Vec<usize>]],
        routing: &LookupRouting,
        grads: &Tensor,
        scale: f32,
    ) -> Vec<Vec<f32>> {
        let dim = self.dim;
        let width = bags.len() * dim;
        let mut grad_bufs: Vec<Vec<f32>> = routing
            .request_keys
            .iter()
            .map(|keys| vec![0.0f32; keys.len() * dim])
            .collect();
        for_each_requested(bags, routing, |pos, sample, owner, slot| {
            let src = &grads.data()[sample * width + pos * dim..][..dim];
            for (d, v) in grad_bufs[owner][slot * dim..][..dim].iter_mut().zip(src) {
                *d += v * scale;
            }
        });
        grad_bufs
    }

    /// Backward phase 2 (owner): merges each source's gradient contributions in
    /// rank order, one batched merge per contiguous feature run (a per-row merge
    /// would rebuild the pending CSR store once per key).
    pub(crate) fn merge_grads(
        &mut self,
        routing: &LookupRouting,
        incoming: Vec<Vec<f32>>,
    ) -> Result<(), DistributedError> {
        let dim = self.dim;
        for (keys, grads) in routing.served_keys.iter().zip(incoming) {
            let mut offset = 0usize;
            for (feature, rows) in feature_runs(keys) {
                let pos = self.feature_pos(feature);
                let span = rows.len() * dim;
                self.shards[pos].accumulate_row_grads(&rows, &grads[offset..offset + span])?;
                offset += span;
            }
        }
        Ok(())
    }

    pub(crate) fn apply_rowwise_adagrad(&mut self, learning_rate: f32, eps: f32) {
        for shard in &mut self.shards {
            shard.apply_rowwise_adagrad(learning_rate, eps);
        }
    }
}

impl ShardedLookup<QuantizedEmbeddingTable> {
    /// Loads one rank's frozen shard view from exported full-table weights:
    /// shard `shard_index` of a `world`-way partition for every feature in
    /// `features`, each shard's local rows encoded once at `precision`
    /// ([`Precision::F32`] keeps them exact). This is how the serving engine
    /// re-shards a snapshot onto *its* cluster, independent of the world size
    /// the model was trained with, without ever materializing trainable tables.
    ///
    /// # Errors
    ///
    /// Returns [`DistributedError::Config`] if a feature has no snapshot table
    /// or the table dimensions are inconsistent.
    pub fn from_tables(
        mut features: Vec<usize>,
        tables: &[TableWeights],
        world: usize,
        shard_index: usize,
        precision: Precision,
    ) -> Result<Self, DistributedError> {
        features.sort_unstable();
        let mut shards = Vec::with_capacity(features.len());
        let mut dim = 0usize;
        for &f in &features {
            let table =
                tables
                    .iter()
                    .find(|t| t.feature == f)
                    .ok_or_else(|| DistributedError::Config {
                        reason: format!("snapshot holds no table for feature {f}"),
                    })?;
            if table.rows == 0 || table.dim == 0 {
                return Err(DistributedError::Config {
                    reason: format!("table {f} has zero rows or dimension"),
                });
            }
            if table.data.len() != table.rows * table.dim {
                return Err(DistributedError::Config {
                    reason: format!("table {f} data is not [{} x {}]", table.rows, table.dim),
                });
            }
            if dim == 0 {
                dim = table.dim;
            } else if dim != table.dim {
                return Err(DistributedError::Config {
                    reason: format!("table {f} dim {} != {dim}", table.dim),
                });
            }
            let rows_per_shard = table.rows.div_ceil(world);
            let lo = (shard_index * rows_per_shard).min(table.rows);
            let hi = ((shard_index + 1) * rows_per_shard).min(table.rows);
            shards.push(QuantizedShardedTable::from_local_rows(
                table.rows,
                table.dim,
                world,
                shard_index,
                &table.data[lo * table.dim..hi * table.dim],
                precision,
            ));
        }
        Ok(Self {
            features,
            shards,
            dim,
        })
    }

    /// Bytes resident in this rank's shard storage (payload words plus int8
    /// per-row scales) — the number the reduced precisions shrink.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.shards
            .iter()
            .map(QuantizedShardedTable::resident_bytes)
            .sum()
    }
}

/// Flattens every parameter gradient reachable through `module` into one buffer —
/// the payload of a gradient AllReduce.
pub(crate) fn flatten_grads<M: HasParameters + ?Sized>(module: &mut M) -> Vec<f32> {
    let mut flat = Vec::new();
    module.visit_parameters(&mut |p| flat.extend_from_slice(p.grad.data()));
    flat
}

/// Flattens every parameter *value* reachable through `module` into one buffer,
/// in visitation order — the dense half of a model snapshot. Modules are rebuilt
/// deterministically from their constructor arguments, so a flat value buffer
/// round-trips exactly through [`load_params`].
#[must_use]
pub fn flatten_params<M: HasParameters + ?Sized>(module: &mut M) -> Vec<f32> {
    let mut flat = Vec::new();
    module.visit_parameters(&mut |p| flat.extend_from_slice(p.value.data()));
    flat
}

/// Writes a flat value buffer (from [`flatten_params`]) back into `module`'s
/// parameters, in the same visitation order — the import half of a snapshot.
///
/// # Errors
///
/// Returns [`DistributedError::Config`] if `flat` does not hold exactly the
/// module's parameter count.
pub fn load_params<M: HasParameters + ?Sized>(
    module: &mut M,
    flat: &[f32],
) -> Result<(), DistributedError> {
    let expected = {
        let mut count = 0;
        module.visit_parameters(&mut |p| count += p.len());
        count
    };
    if expected != flat.len() {
        return Err(DistributedError::Config {
            reason: format!(
                "parameter buffer holds {} scalars, module expects {expected}",
                flat.len()
            ),
        });
    }
    let mut offset = 0;
    module.visit_parameters(&mut |p| {
        let n = p.len();
        p.value
            .data_mut()
            .copy_from_slice(&flat[offset..offset + n]);
        offset += n;
    });
    Ok(())
}

/// Writes a reduced gradient buffer back into `module`'s parameters, scaling each
/// element by `scale` (e.g. `1 / world` for data-parallel averaging, times `1 / M`
/// under micro-batch accumulation).
pub(crate) fn write_back_grads<M: HasParameters + ?Sized>(
    module: &mut M,
    flat: &[f32],
    scale: f32,
) {
    let mut offset = 0;
    module.visit_parameters(&mut |p| {
        let n = p.len();
        for (dst, src) in p.grad.data_mut().iter_mut().zip(&flat[offset..offset + n]) {
            *dst = src * scale;
        }
        offset += n;
    });
}

/// Collects per-feature bag slices out of a batch, aligned with `features`.
pub(crate) fn bags_for<'a>(batch: &'a Batch, features: &[usize]) -> Vec<&'a [Vec<usize>]> {
    features
        .iter()
        .map(|&f| batch.sparse[f].as_slice())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_schema() -> DatasetSchema {
        dmt_data::DatasetSchema::criteo_like_small()
    }

    /// Decoding into a buffer left over from a different batch (more
    /// features, more samples, stale bags) gives exactly the fresh decode.
    #[test]
    fn decode_into_reused_bags_matches_a_fresh_decode() {
        let table: Vec<Vec<Vec<usize>>> = (0..3)
            .map(|f| {
                (0..5)
                    .map(|s| (0..(f + s) % 3).map(|j| f * 100 + s * 10 + j).collect())
                    .collect()
            })
            .collect();
        let stream = |group: &[usize], samples: usize| {
            let groups = [group.to_vec()];
            encode_tower_streams(&groups, samples, |f, s| &table[f][s]).remove(0)
        };
        let mut reused = decode_tower_streams(&[stream(&[0, 1, 2], 5)], 3, &[5]);
        for samples in [3, 5] {
            let incoming = [stream(&[0, 2], samples), stream(&[0, 2], samples)];
            decode_tower_streams_into(&incoming, 2, &[samples, samples], &mut reused);
            assert_eq!(
                reused,
                decode_tower_streams(&incoming, 2, &[samples, samples])
            );
            for (pos, &f) in [0, 2].iter().enumerate() {
                for (i, bag) in reused[pos].iter().enumerate() {
                    assert_eq!(bag, &table[f][i % samples], "feature {f} sample {i}");
                }
                assert_eq!(reused[pos].len(), 2 * samples);
            }
        }
    }

    /// The route's inverse names, for every bag entry, the slot a binary
    /// search of its owner's keys finds; the keys are each owner's
    /// sorted-unique requests. Bags repeat rows, hold empty bags and
    /// out-of-range rows, and never touch the middle owner.
    #[test]
    fn route_inverse_matches_a_binary_search_of_the_keys() {
        let schema = tiny_schema();
        let features: Vec<usize> = (0..schema.num_sparse()).collect();
        let world = 3;
        let lookup = ShardedLookup::new(5, &schema, features.clone(), 4, world, 0);
        let samples = 7;
        let bags: Vec<Vec<Vec<usize>>> = lookup
            .shards()
            .iter()
            .enumerate()
            .map(|(f, shard)| {
                let n = shard.num_embeddings();
                let (rps, low, high) = (n.div_ceil(world), n.div_ceil(world) - 1, n - 1);
                (0..samples)
                    .map(|s| match (s + f) % 4 {
                        0 => Vec::new(),
                        1 => vec![low, 0, low, high],
                        2 => vec![high, n + low, 2 * rps, 0, 0],
                        _ => vec![(s * 31 + f) % rps, high],
                    })
                    .collect()
            })
            .collect();
        let bag_slices: Vec<&[Vec<usize>]> = bags.iter().map(Vec::as_slice).collect();
        let routing = lookup.route(world, &bag_slices);

        assert!(
            routing.request_keys[1].is_empty(),
            "the middle owner is never asked"
        );
        let mut want = Vec::new();
        let mut want_keys: Vec<Vec<u64>> = vec![Vec::new(); world];
        for (shard, (&feature, per_sample)) in
            lookup.shards().iter().zip(features.iter().zip(&bags))
        {
            for &raw in per_sample.iter().flatten() {
                let row = raw % shard.num_embeddings();
                let owner = shard.owner_of(row);
                want_keys[owner].push(encode_key(feature, row));
                let slot = routing.request_keys[owner]
                    .binary_search(&encode_key(feature, row))
                    .expect("row was requested");
                want.push((owner as u32, slot as u32));
            }
        }
        for keys in &mut want_keys {
            keys.sort_unstable();
            keys.dedup();
        }
        assert_eq!(routing.request_keys, want_keys);
        assert_eq!(routing.entry_slots, want);
    }

    /// A routing pooled against bags with one entry more or one fewer than
    /// those it was routed from is refused by name, in any build profile.
    #[test]
    fn pooling_refuses_a_routing_of_other_bags() {
        let schema = tiny_schema();
        let features: Vec<usize> = (0..schema.num_sparse()).collect();
        let dim = 4;
        let lookup = ShardedLookup::new(3, &schema, features.clone(), dim, 1, 0);
        let bags: Vec<Vec<Vec<usize>>> = features.iter().map(|&f| vec![vec![f, 1]]).collect();
        let bag_slices: Vec<&[Vec<usize>]> = bags.iter().map(Vec::as_slice).collect();
        let routing = lookup.route(1, &bag_slices);
        let fetched = vec![vec![0.0; routing.request_keys[0].len() * dim]];
        for extra in [true, false] {
            let mut other = bags.clone();
            if extra {
                other[0][0].push(0);
            } else {
                other[0][0].pop();
            }
            let other_slices: Vec<&[Vec<usize>]> = other.iter().map(Vec::as_slice).collect();
            let err = std::panic::catch_unwind(|| {
                let mut out = Tensor::zeros(&[1, features.len() * dim]);
                lookup.pool_into(&other_slices, &routing, &fetched, &mut out)
            })
            .expect_err("a mismatched routing must panic");
            let msg = err
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| err.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            assert!(msg.contains("routing was built from other bags"), "{msg}");
        }
    }

    #[test]
    fn pool_local_matches_the_routed_protocol_bit_identically() {
        let schema = tiny_schema();
        let features: Vec<usize> = (0..schema.num_sparse()).collect();
        let dim = 4;
        let lookup = ShardedLookup::new(3, &schema, features.clone(), dim, 1, 0);
        let samples = 6;
        // Deterministic bags with empties, repeats and out-of-range rows.
        let bags: Vec<Vec<Vec<usize>>> = features
            .iter()
            .map(|&f| {
                (0..samples)
                    .map(|s| {
                        (0..(s + f) % 4)
                            .map(|j| s * 97 + f * 31 + j * 1009)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let bag_slices: Vec<&[Vec<usize>]> = bags.iter().map(|b| b.as_slice()).collect();

        // Reference: the full route → answer → pool protocol plus concat.
        let mut routing = lookup.route(1, &bag_slices);
        routing.served_keys = routing.request_keys.clone();
        let fetched = lookup.answer(&routing.served_keys).unwrap();
        let mut reference = Tensor::default();
        lookup
            .pool_into(&bag_slices, &routing, &fetched, &mut reference)
            .unwrap();

        let mut out = Tensor::default();
        let mut row_buf = Vec::new();
        for _ in 0..2 {
            lookup
                .pool_local_into(
                    samples,
                    |f, s| bags[f].get(s).map_or(&[][..], Vec::as_slice),
                    &mut row_buf,
                    &mut out,
                )
                .unwrap();
            assert_eq!(out.shape(), reference.shape());
            for (a, b) in out.data().iter().zip(reference.data()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
