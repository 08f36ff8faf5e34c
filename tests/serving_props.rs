//! Property tests for the serving-side data structures: the hot-row cache must
//! be a pure bandwidth optimization (cached lookups bit-identical to the
//! uncached `EmbeddingTable::lookup_rows`, capacity never exceeded), the
//! micro-batcher must respect both of its close triggers exactly, and every
//! replica holder must answer a shard's keys bit-identically to the shard's
//! owner — the invariant serving failover rests on.

use dmt_nn::EmbeddingTable;
use dmt_serve::{BatcherConfig, ComputePrecision, HotRowCache, MicroBatcher, ReplicatedAnswerer};
use dmt_trainer::distributed::model::encode_key;
use dmt_trainer::distributed::TableWeights;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fetching rows through a cache of any capacity — including zero and
    /// larger-than-table — returns bit-identical rows to the direct table
    /// lookup, for any request sequence (repeats included).
    #[test]
    fn cached_lookups_are_bit_identical_to_lookup_rows(
        rows in 1usize..60,
        dim in 1usize..8,
        capacity in 0usize..70,
        seed in proptest::strategy::any::<u64>(),
        num_requests in 1usize..120,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = EmbeddingTable::new(&mut rng, rows, dim);
        let mut cache = HotRowCache::new(capacity, dim);
        for _ in 0..num_requests {
            let row = rng.gen_range(0..rows);
            let direct = table.lookup_rows(&[row]);
            let mut via_cache = Vec::new();
            if !cache.lookup_into(row as u64, &mut via_cache) {
                // Miss: fetch from the table (the "owner shard") and cache it.
                via_cache.extend_from_slice(&direct);
                cache.insert(row as u64, &direct);
            }
            prop_assert_eq!(&via_cache, &direct);
            prop_assert!(cache.len() <= capacity);
        }
        // The accounting adds up: every request was a hit or a miss.
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, num_requests as u64);
        prop_assert!(stats.inserts >= stats.evictions);
    }

    /// Eviction never exceeds capacity, and after any insert sequence the cache
    /// retains exactly the most-recently-used distinct keys.
    #[test]
    fn lru_eviction_keeps_the_most_recent_keys(
        capacity in 1usize..16,
        keys in proptest::collection::vec(0u64..32, 1..200),
    ) {
        let mut cache = HotRowCache::new(capacity, 1);
        for &key in &keys {
            cache.insert(key, &[key as f32]);
            prop_assert!(cache.len() <= capacity);
        }
        // Expected residents: walk the insert sequence backwards, keeping the
        // first `capacity` distinct keys.
        let mut expected = Vec::new();
        for &key in keys.iter().rev() {
            if !expected.contains(&key) {
                expected.push(key);
                if expected.len() == capacity {
                    break;
                }
            }
        }
        prop_assert_eq!(cache.keys_by_recency(), expected);
    }

    /// The size trigger fires exactly when the batch fills, never early, never
    /// late, and batches preserve admission order.
    #[test]
    fn size_trigger_fires_exactly_at_capacity(
        max_batch in 1usize..24,
        pushes in 1usize..200,
    ) {
        let mut batcher = MicroBatcher::new(BatcherConfig::new(max_batch, u64::MAX / 2));
        let mut emitted = Vec::new();
        for i in 0..pushes {
            prop_assert!(batcher.len() < max_batch, "queue may never reach capacity between pushes");
            if let Some(batch) = batcher.push(i as u64, i) {
                prop_assert_eq!(batch.len(), max_batch, "size closes are exactly full");
                emitted.extend(batch);
                prop_assert!(batcher.is_empty());
            }
        }
        // No deadline ever fired; everything else is still queued in order.
        prop_assert_eq!(batcher.deadline_closes(), 0);
        emitted.extend(batcher.flush().unwrap_or_default());
        let expected: Vec<usize> = (0..pushes).collect();
        prop_assert_eq!(emitted, expected, "FIFO order across closes");
    }

    /// Every holder in an owner's replica chain answers the owner's full shard
    /// bit-identically to the owner itself, for arbitrary table shapes, world
    /// sizes, host widths and replication factors — so a failed-over fetch can
    /// never change a prediction.
    #[test]
    fn replica_holders_answer_bit_identically_to_the_owner(
        rows in 1usize..64,
        dim in 1usize..8,
        world in 2usize..9,
        gpus_per_host in 1usize..5,
        replicas in 1usize..4,
        owner_sel in proptest::strategy::any::<u64>(),
        seed in proptest::strategy::any::<u64>(),
    ) {
        let replicas = replicas.min(world - 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let tables: Vec<TableWeights> = (0..2)
            .map(|f| TableWeights {
                feature: f,
                rows,
                dim,
                data: (0..rows * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
            })
            .collect();
        let owner = (owner_sel % world as u64) as usize;
        let owner_answerer =
            ReplicatedAnswerer::new(
                vec![0, 1], &tables, world, owner, replicas, gpus_per_host, ComputePrecision::F32,
            ).unwrap();
        // Every key of the owner's shard slice, both features.
        let rows_per_shard = rows.div_ceil(world);
        let lo = (owner * rows_per_shard).min(rows);
        let hi = ((owner + 1) * rows_per_shard).min(rows);
        let keys: Vec<u64> = (0..2u32)
            .flat_map(|f| (lo..hi).map(move |r| encode_key(f as usize, r)))
            .collect();
        prop_assume!(!keys.is_empty());
        let from_owner = owner_answerer.answer(std::slice::from_ref(&keys)).unwrap();
        prop_assert_eq!(from_owner[0].len(), keys.len() * dim);
        for &holder in &owner_answerer.chain(owner)[1..] {
            let holder_answerer = ReplicatedAnswerer::new(
                vec![0, 1], &tables, world, holder, replicas, gpus_per_host, ComputePrecision::F32,
            ).unwrap();
            let from_holder = holder_answerer.answer(std::slice::from_ref(&keys)).unwrap();
            for (a, b) in from_owner[0].iter().zip(&from_holder[0]) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "holder {} diverged", holder);
            }
            prop_assert_eq!(from_holder[0].len(), from_owner[0].len());
        }
    }

    /// The deadline trigger fires iff the oldest queued request has waited at
    /// least `max_delay`, measured from *its* arrival.
    #[test]
    fn deadline_trigger_respects_the_oldest_arrival(
        max_delay in 1u64..1_000,
        arrivals in proptest::collection::vec(0u64..500, 1..20),
        probe_offset in 0u64..2_000,
    ) {
        let mut sorted = arrivals.clone();
        sorted.sort_unstable();
        let mut batcher = MicroBatcher::new(BatcherConfig::new(1_000, max_delay));
        for (i, &t) in sorted.iter().enumerate() {
            prop_assert!(batcher.push(t, i).is_none(), "size trigger is out of reach");
        }
        let oldest = sorted[0];
        prop_assert_eq!(batcher.next_deadline_us(), Some(oldest + max_delay));
        let probe = oldest.saturating_add(probe_offset);
        let fired = batcher.poll(probe);
        if probe_offset >= max_delay {
            let batch = fired.expect("deadline reached");
            prop_assert_eq!(batch.len(), sorted.len());
            prop_assert_eq!(batcher.deadline_closes(), 1);
        } else {
            prop_assert!(fired.is_none(), "fired {} us after oldest, deadline {}", probe_offset, max_delay);
            prop_assert_eq!(batcher.len(), sorted.len());
        }
    }
}
