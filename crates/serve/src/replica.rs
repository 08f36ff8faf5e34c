//! Replicated embedding shards: the storage side of serving failover.
//!
//! With replication factor `r`, every rank holds its own **primary** shard plus
//! byte-identical copies of `r` other ranks' primary shards, placed by the same
//! arithmetic requesters use to pick a failover target
//! ([`dmt_nn::replica_rank`]): replica `i` of rank `p`'s shard lives on
//! `(p + i * gpus_per_host) % world`, so every copy sits on a *different host*
//! than the primary while `i` is smaller than the host count. A replica is built
//! with [`ShardedLookup::from_tables`] using the *primary's* shard index, so it
//! slices the exact same snapshot rows — which is what makes a failed-over
//! answer bit-identical to the healthy one.
//!
//! [`ReplicatedAnswerer`] is what a serving rank answers fetch requests with: it
//! serves any key covered by a shard it holds (primary or replica), whoever the
//! key's nominal owner is. Replies are **all-or-nothing per requester**: a rank
//! that cannot cover every requested key returns an empty reply, which the
//! requester's length check turns into "re-route this whole bundle to the next
//! holder in the chain" — no partially-served reply ever needs per-key
//! bookkeeping on the wire.

use crate::ServeError;
use dmt_nn::{replica_rank, replica_sources, QuantizedEmbeddingTable};
use dmt_tensor::Precision;
use dmt_trainer::distributed::model::{decode_key, encode_key, ShardedLookup};
use dmt_trainer::distributed::TableWeights;

/// One rank's frozen shard view of every served table.
type Shards = ShardedLookup<QuantizedEmbeddingTable>;

/// One serving rank's primary shard plus the replica shards it hosts for peers.
pub struct ReplicatedAnswerer {
    /// This rank's own shard view — also the requester-side router/pooler.
    primary: Shards,
    /// `(source_rank, that rank's shard view)` for every replicated peer shard.
    replicas: Vec<(usize, Shards)>,
    /// Holder chain per owner rank: `[owner, replica 1, replica 2, ...]`.
    chains: Vec<Vec<usize>>,
    me: usize,
    replica_bytes: u64,
}

impl ReplicatedAnswerer {
    /// Builds rank `me`'s answerer over a `world`-way sharding of `tables`:
    /// its primary shard plus a copy of every peer shard that
    /// [`replica_rank`]-placement assigns to `me` under replication factor
    /// `replicas` on a `gpus_per_host`-wide host. Every shard is stored at
    /// `precision`, so replication cost shrinks by the same factor as primary
    /// storage. Failed-over answers stay bit-identical to the healthy ones — a
    /// replica quantizes the exact snapshot rows its primary does.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if a feature has no snapshot table or the
    /// table dimensions are inconsistent.
    pub fn new(
        features: Vec<usize>,
        tables: &[TableWeights],
        world: usize,
        me: usize,
        replicas: usize,
        gpus_per_host: usize,
        precision: Precision,
    ) -> Result<Self, ServeError> {
        let mut sorted = features;
        sorted.sort_unstable();
        let primary = ShardedLookup::from_tables(sorted.clone(), tables, world, me, precision)?;
        let mut held = Vec::new();
        let mut replica_bytes = 0u64;
        if replicas > 0 {
            for source in replica_sources(me, replicas, world, gpus_per_host) {
                let lookup =
                    ShardedLookup::from_tables(sorted.clone(), tables, world, source, precision)?;
                replica_bytes += lookup.resident_bytes();
                held.push((source, lookup));
            }
        }
        let chains = (0..world)
            .map(|owner| {
                let mut chain = vec![owner];
                for i in 1..=replicas {
                    let holder = replica_rank(owner, i, world, gpus_per_host);
                    if !chain.contains(&holder) {
                        chain.push(holder);
                    }
                }
                chain
            })
            .collect();
        Ok(Self {
            primary,
            replicas: held,
            chains,
            me,
            replica_bytes,
        })
    }

    /// The requester-side shard view (router / pooler / primary answerer).
    #[must_use]
    pub fn primary(&self) -> &ShardedLookup<QuantizedEmbeddingTable> {
        &self.primary
    }

    /// Bytes of peer-shard copies this rank holds — the storage cost of its
    /// share of the replication, at the shards' actual storage precision.
    #[must_use]
    pub fn replica_bytes(&self) -> u64 {
        self.replica_bytes
    }

    /// Bytes resident in every shard this rank holds, primary included —
    /// payload words plus int8 per-row scales at the storage precision.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.primary.resident_bytes() + self.replica_bytes
    }

    /// Ranks whose primary shards this rank replicates, in placement order.
    #[must_use]
    pub fn replicated_sources(&self) -> Vec<usize> {
        self.replicas.iter().map(|(s, _)| *s).collect()
    }

    /// The holder chain of `owner`'s shard: the owner itself followed by its
    /// replica holders. Requesters walk this chain (skipping down ranks) to pick
    /// a fetch target.
    #[must_use]
    pub fn chain(&self, owner: usize) -> &[usize] {
        &self.chains[owner]
    }

    /// The nominal owner rank of encoded `key`, resolved by the primary's
    /// shard of the key's table (every held shard shares its geometry).
    fn owner_of_key(&self, key: u64) -> Option<usize> {
        let (feature, row) = decode_key(key);
        let pos = self.primary.features().binary_search(&feature).ok()?;
        let shard = &self.primary.shards()[pos];
        (row < shard.num_embeddings()).then(|| shard.owner_of(row))
    }

    /// How many samples of `bags` (feature-major, one bag list per served
    /// feature in ascending-feature order, as built by the engine) reference at
    /// least one of the sorted `lost` keys — the count of queries a zero-filled
    /// batch answers degraded.
    #[must_use]
    pub fn queries_touching(&self, bags: &[&[Vec<usize>]], lost: &[u64]) -> u64 {
        if lost.is_empty() || bags.is_empty() {
            return 0;
        }
        let samples = bags[0].len();
        let (features, shards) = (self.primary.features(), self.primary.shards());
        let mut touched = 0u64;
        for sample in 0..samples {
            let hit = bags
                .iter()
                .zip(features)
                .zip(shards)
                .any(|((bag, &f), shard)| {
                    bag[sample].iter().any(|&raw| {
                        let key = encode_key(f, raw % shard.num_embeddings());
                        lost.binary_search(&key).is_ok()
                    })
                });
            if hit {
                touched += 1;
            }
        }
        touched
    }

    /// The held shard covering encoded `key`, if any: the primary, or the
    /// replica of the key's nominal owner.
    fn shard_covering(&self, key: u64) -> Option<&Shards> {
        let owner = self.owner_of_key(key)?;
        if owner == self.me {
            return Some(&self.primary);
        }
        let held = self.replicas.iter().find(|(source, _)| *source == owner);
        held.map(|(_, shard)| shard)
    }

    /// Answers incoming request keys with raw rows in request order, serving
    /// each key from whichever held shard (primary or replica) covers it.
    ///
    /// All-or-nothing per source: if any of a source's keys is covered by no
    /// held shard, that source gets an *empty* reply (the requester re-routes
    /// the bundle), never a partially-filled one.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] only on internal inconsistency (a key that maps to
    /// a held shard the shard then rejects) — a protocol bug, not a fault.
    pub fn answer(&self, incoming: &[Vec<u64>]) -> Result<Vec<Vec<f32>>, ServeError> {
        if self.replicas.is_empty() {
            // Nothing but the primary is held, and requesters only ever route
            // a bundle to a holder of its owner's shard.
            return Ok(self.primary.answer(incoming)?);
        }
        let mut replies = Vec::with_capacity(incoming.len());
        for keys in incoming {
            let shards: Option<Vec<&Shards>> =
                keys.iter().map(|&key| self.shard_covering(key)).collect();
            let Some(shards) = shards else {
                replies.push(Vec::new());
                continue;
            };
            // Keys arrive sorted, so each shard's keys form runs; one batched
            // answer per run lands the rows in request order.
            let mut reply = Vec::with_capacity(keys.len() * self.primary.dim());
            let mut start = 0;
            for run in shards.chunk_by(|a, b| std::ptr::eq(*a, *b)) {
                let end = start + run.len();
                let mut rows = run[0].answer(&[keys[start..end].to_vec()])?;
                reply.append(&mut rows.pop().unwrap_or_default());
                start = end;
            }
            replies.push(reply);
        }
        Ok(replies)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_trainer::distributed::model::encode_key;

    fn tables(features: usize, rows: usize, dim: usize) -> Vec<TableWeights> {
        (0..features)
            .map(|f| TableWeights {
                feature: f,
                rows,
                dim,
                data: (0..rows * dim).map(|i| (f * 10_000 + i) as f32).collect(),
            })
            .collect()
    }

    #[test]
    fn replicas_answer_foreign_keys_bit_identically_to_their_owner() {
        let tables = tables(2, 32, 4);
        let world = 8;
        // Rank 5 replicates rank 1's shard under r=1, gpus_per_host=4.
        let owner =
            ReplicatedAnswerer::new(vec![0, 1], &tables, world, 1, 0, 4, Precision::F32).unwrap();
        let holder =
            ReplicatedAnswerer::new(vec![0, 1], &tables, world, 5, 1, 4, Precision::F32).unwrap();
        assert_eq!(holder.replicated_sources(), vec![1]);
        assert_eq!(holder.chain(1), &[1, 5]);
        // Rows 4..8 belong to shard 1 of 8 (32 rows → 4 per shard).
        let keys = vec![encode_key(0, 4), encode_key(0, 7), encode_key(1, 5)];
        let from_owner = owner.answer(std::slice::from_ref(&keys)).unwrap();
        let from_holder = holder.answer(&[keys]).unwrap();
        assert_eq!(from_owner, from_holder);
        assert_eq!(from_owner[0].len(), 3 * 4);
    }

    #[test]
    fn uncovered_keys_empty_the_whole_reply() {
        let tables = tables(1, 32, 4);
        let answerer =
            ReplicatedAnswerer::new(vec![0], &tables, 8, 5, 1, 4, Precision::F32).unwrap();
        // Rank 5 holds shard 5 (primary) and shard 1 (the replica that
        // stride-4 placement assigns it); shard 0 is not held.
        let covered = vec![encode_key(0, 20)]; // row 20 → shard 5
        let foreign = vec![encode_key(0, 20), encode_key(0, 0)]; // shard 0 not held
        assert_eq!(answerer.answer(&[covered]).unwrap()[0].len(), 4);
        assert!(answerer.answer(&[foreign]).unwrap()[0].is_empty());
    }

    #[test]
    fn quantized_replicas_stay_bit_identical_to_their_owner() {
        let tables = tables(2, 32, 4);
        let world = 8;
        for precision in [Precision::Fp16, Precision::Int8] {
            let owner =
                ReplicatedAnswerer::new(vec![0, 1], &tables, world, 1, 0, 4, precision).unwrap();
            let holder =
                ReplicatedAnswerer::new(vec![0, 1], &tables, world, 5, 1, 4, precision).unwrap();
            let keys = vec![encode_key(0, 4), encode_key(0, 7), encode_key(1, 5)];
            let from_owner = owner.answer(std::slice::from_ref(&keys)).unwrap();
            let from_holder = holder.answer(&[keys]).unwrap();
            assert_eq!(from_owner, from_holder, "{precision}");
            // Quantized replicas cost proportionally fewer resident bytes than
            // the f32 shard slice they stand in for (2 features × 4 rows × 4
            // dims × 4 bytes = 128).
            assert!(holder.replica_bytes() < 128, "{precision}");
        }
    }

    #[test]
    fn replica_bytes_count_only_peer_copies() {
        let tables = tables(2, 32, 4);
        // Four hosts of two GPUs, so up to three non-aliasing replicas exist.
        let none =
            ReplicatedAnswerer::new(vec![0, 1], &tables, 8, 0, 0, 2, Precision::F32).unwrap();
        assert_eq!(none.replica_bytes(), 0);
        let one = ReplicatedAnswerer::new(vec![0, 1], &tables, 8, 0, 1, 2, Precision::F32).unwrap();
        // One peer shard: 2 features × 4 rows × 4 dims × 4 bytes.
        assert_eq!(one.replica_bytes(), 2 * 4 * 4 * 4);
        let two = ReplicatedAnswerer::new(vec![0, 1], &tables, 8, 0, 2, 2, Precision::F32).unwrap();
        assert_eq!(two.replica_bytes(), 2 * one.replica_bytes());
    }
}
