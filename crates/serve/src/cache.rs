//! Hot-row embedding cache: a requester-side LRU over fetched embedding rows.
//!
//! Serving traffic is Zipf-skewed (see `dmt_data::requests`), so a small cache in
//! front of the sharded lookup absorbs most remote fetches: before a rank routes
//! its `(feature, row)` keys to their owner shards, it peels off the keys it has
//! cached and only the *misses* ride the index/row exchanges. Because serving
//! tables are frozen, a cached row is forever bit-identical to the owner's copy —
//! the cache changes which link a row arrives over, never its value.
//!
//! Rows live in one [`RowStore`] slab at the serving precision, one row per
//! LRU slot, so an insert re-encodes a slot's row in place and never allocates.
//! Decoded fp16 values are exactly representable, so a re-inserted fp16 row
//! never drifts; an int8 row takes a fresh scale, so re-inserting an
//! already-dequantized int8 row adds at most half an original quantization step.
//!
//! The cache accounts for its own effect: hits, misses, evictions and the wire
//! bytes saved (`dim × 4` per hit), which the serving report folds into the
//! per-query byte accounting.

use dmt_nn::RowStore;
use dmt_tensor::Precision;
use std::collections::HashMap;

/// Hit/miss/byte counters of a [`HotRowCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to go to the owner shard.
    pub misses: u64,
    /// Rows inserted.
    pub inserts: u64,
    /// Rows evicted to respect the capacity.
    pub evictions: u64,
    /// Wire bytes avoided by hits (row payload bytes that never hit a link).
    pub saved_bytes: u64,
}

impl CacheStats {
    /// Hit rate over all lookups; 0 when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Folds another counter set into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.inserts += other.inserts;
        self.evictions += other.evictions;
        self.saved_bytes += other.saved_bytes;
    }

    /// The counters accumulated since `before` was captured (`self - before`,
    /// field-wise). Keeping the subtraction next to the fields means a new
    /// counter cannot be silently left out of a caller's windowed report.
    #[must_use]
    pub fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            inserts: self.inserts - before.inserts,
            evictions: self.evictions - before.evictions,
            saved_bytes: self.saved_bytes - before.saved_bytes,
        }
    }
}

/// Intrusive doubly-linked LRU slot; slot `i` keeps its row in row `i` of
/// the cache's [`RowStore`].
#[derive(Debug, Clone)]
struct Slot {
    key: u64,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

/// A fixed-capacity LRU cache of embedding rows, keyed by the same
/// `(feature, row)` u64 keys the lookup protocol routes
/// ([`dmt_trainer::distributed::model::encode_key`]).
#[derive(Debug, Clone)]
pub struct HotRowCache {
    capacity_rows: usize,
    dim: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    /// One row per slot, encoded at the cache's storage precision.
    rows: RowStore,
    free: Vec<usize>,
    /// Most recently used slot, `NIL` when empty.
    head: usize,
    /// Least recently used slot, `NIL` when empty.
    tail: usize,
    stats: CacheStats,
}

impl HotRowCache {
    /// Creates a cache holding at most `capacity_rows` rows of width `dim`,
    /// stored at full precision. A zero capacity is a valid always-miss cache.
    #[must_use]
    pub fn new(capacity_rows: usize, dim: usize) -> Self {
        Self::with_precision(capacity_rows, dim, Precision::F32)
    }

    /// [`HotRowCache::new`] at a chosen storage precision: cached rows live as
    /// int8/fp16 words, so the same row budget costs proportionally fewer
    /// resident bytes. Hit/saved-byte accounting is unchanged — a hit still
    /// avoids the same `dim × 4` f32 wire bytes whatever the storage format.
    /// The row slab is allocated zeroed up front, so pages of slots never
    /// filled stay untouched and inserts never allocate.
    #[must_use]
    pub fn with_precision(capacity_rows: usize, dim: usize, precision: Precision) -> Self {
        Self {
            capacity_rows,
            dim,
            // Evictions leave tombstones in the key map; a map at most half
            // full clears them by rehashing in place, so room for twice the
            // rows means it never reallocates once built.
            map: HashMap::with_capacity(2 * capacity_rows.min(1 << 20) + 2),
            slots: Vec::new(),
            rows: RowStore::zeros(precision, capacity_rows, dim),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Maximum rows the cache holds.
    #[must_use]
    pub fn capacity_rows(&self) -> usize {
        self.capacity_rows
    }

    /// Storage precision of the cached rows.
    #[must_use]
    pub fn precision(&self) -> Precision {
        self.rows.precision()
    }

    /// Bytes currently resident in cached row payloads (int8 rows include
    /// their per-row scale word).
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        self.map.len() as u64 * self.rows.row_bytes()
    }

    /// Rows currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cumulative counters since construction.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Returns the counters accumulated since the last call, resetting them —
    /// how the engine reports per-batch cache activity.
    pub fn take_stats(&mut self) -> CacheStats {
        std::mem::take(&mut self.stats)
    }

    /// Looks `key` up, counting a hit or miss. On a hit the row is appended to
    /// `out` and the entry becomes most-recently-used.
    pub fn lookup_into(&mut self, key: u64, out: &mut Vec<f32>) -> bool {
        match self.map.get(&key).copied() {
            Some(slot) => {
                self.stats.hits += 1;
                self.stats.saved_bytes += self.dim as u64 * 4;
                self.rows.row_into(slot, out);
                self.touch(slot);
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Whether `key` is cached, *without* touching recency or counters.
    #[must_use]
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(&key)
    }

    /// Inserts (or refreshes) a row, evicting the least-recently-used entries
    /// beyond capacity. A no-op on a zero-capacity cache.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `dim` wide.
    pub fn insert(&mut self, key: u64, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "cached rows must be [dim]");
        if self.capacity_rows == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.rows.set_row(slot, row);
            self.touch(slot);
            return;
        }
        if self.map.len() >= self.capacity_rows {
            self.evict_lru();
        }
        let linked = Slot {
            key,
            prev: NIL,
            next: NIL,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = linked;
                slot
            }
            None => {
                self.slots.push(linked);
                self.slots.len() - 1
            }
        };
        self.rows.set_row(slot, row);
        self.map.insert(key, slot);
        self.push_front(slot);
        self.stats.inserts += 1;
    }

    /// Keys currently cached, most-recently-used first (test/debug helper).
    #[must_use]
    pub fn keys_by_recency(&self) -> Vec<u64> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut cursor = self.head;
        while cursor != NIL {
            keys.push(self.slots[cursor].key);
            cursor = self.slots[cursor].next;
        }
        keys
    }

    /// Unlinks `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else {
            self.tail = prev;
        }
        self.slots[slot].prev = NIL;
        self.slots[slot].next = NIL;
    }

    /// Links `slot` in as most-recently-used.
    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Moves `slot` to most-recently-used.
    fn touch(&mut self, slot: usize) {
        if self.head == slot {
            return;
        }
        self.unlink(slot);
        self.push_front(slot);
    }

    /// Removes the least-recently-used entry.
    fn evict_lru(&mut self) {
        let victim = self.tail;
        debug_assert_ne!(victim, NIL, "evict called on an empty cache");
        self.unlink(victim);
        self.map.remove(&self.slots[victim].key);
        self.free.push(victim);
        self.stats.evictions += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_nn::QuantizedEmbeddingTable;

    fn row(v: f32, dim: usize) -> Vec<f32> {
        vec![v; dim]
    }

    #[test]
    fn hit_returns_the_inserted_row() {
        let mut cache = HotRowCache::new(4, 3);
        cache.insert(7, &row(1.5, 3));
        let mut out = Vec::new();
        assert!(cache.lookup_into(7, &mut out));
        assert_eq!(out, row(1.5, 3));
        assert!(!cache.lookup_into(8, &mut out));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.inserts), (1, 1, 1));
        assert_eq!(stats.saved_bytes, 12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut cache = HotRowCache::new(2, 1);
        cache.insert(1, &[1.0]);
        cache.insert(2, &[2.0]);
        // Touch 1 so 2 becomes LRU.
        let mut out = Vec::new();
        assert!(cache.lookup_into(1, &mut out));
        cache.insert(3, &[3.0]);
        assert!(cache.contains(1) && cache.contains(3) && !cache.contains(2));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.keys_by_recency(), vec![3, 1]);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut cache = HotRowCache::new(3, 2);
        for k in 0..50u64 {
            cache.insert(k, &row(k as f32, 2));
            assert!(cache.len() <= 3);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 47);
    }

    #[test]
    fn zero_capacity_never_caches() {
        let mut cache = HotRowCache::new(0, 2);
        cache.insert(1, &row(1.0, 2));
        let mut out = Vec::new();
        assert!(!cache.lookup_into(1, &mut out));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().inserts, 0);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut cache = HotRowCache::new(2, 1);
        cache.insert(1, &[1.0]);
        cache.insert(2, &[2.0]);
        cache.insert(1, &[1.5]);
        cache.insert(3, &[3.0]); // evicts 2, not 1
        let mut out = Vec::new();
        assert!(cache.lookup_into(1, &mut out));
        assert_eq!(out, vec![1.5]);
        assert!(!cache.contains(2));
    }

    #[test]
    fn take_stats_resets_the_window() {
        let mut cache = HotRowCache::new(2, 1);
        cache.insert(1, &[1.0]);
        let mut out = Vec::new();
        let _ = cache.lookup_into(1, &mut out);
        let first = cache.take_stats();
        assert_eq!(first.hits, 1);
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn quantized_storage_shrinks_resident_bytes() {
        let dim = 32;
        let source: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.31).sin() * 3.0).collect();
        let f32_bytes = {
            let mut c = HotRowCache::new(8, dim);
            c.insert(1, &source);
            c.resident_bytes()
        };
        assert_eq!(f32_bytes, dim as u64 * 4);
        for (precision, expected) in [
            (Precision::Fp16, dim as u64 * 2),
            (Precision::Int8, dim as u64 + 4),
        ] {
            let mut c = HotRowCache::with_precision(8, dim, precision);
            assert_eq!(c.precision(), precision);
            c.insert(1, &source);
            assert_eq!(c.resident_bytes(), expected);
            let mut out = Vec::new();
            assert!(c.lookup_into(1, &mut out));
            assert_eq!(out.len(), dim);
            let tol = precision.max_abs_error(3.0);
            for (got, want) in out.iter().zip(&source) {
                assert!((got - want).abs() <= tol, "{precision}: {got} vs {want}");
            }
            // Hit accounting is storage-independent: a hit saves f32 wire bytes.
            assert_eq!(c.stats().saved_bytes, dim as u64 * 4);
        }
    }

    #[test]
    fn fp16_rows_round_trip_bit_exactly_through_reinsert() {
        let dim = 8;
        let source: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.77).cos()).collect();
        let mut c = HotRowCache::with_precision(4, dim, Precision::Fp16);
        c.insert(1, &source);
        let mut first = Vec::new();
        assert!(c.lookup_into(1, &mut first));
        // Re-inserting the decoded row must not drift: decoded fp16 values are
        // exactly representable, so re-quantization is idempotent.
        c.insert(1, &first);
        let mut second = Vec::new();
        assert!(c.lookup_into(1, &mut second));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn int8_rows_with_non_finite_values_decode_like_the_int8_table() {
        // An infinite element must not set the row's scale: the finite
        // elements keep their values and the row matches the int8 table's.
        let source = [1.0f32, f32::INFINITY, -2.0];
        let mut c = HotRowCache::with_precision(2, 3, Precision::Int8);
        c.insert(1, &source);
        let mut out = Vec::new();
        assert!(c.lookup_into(1, &mut out));
        let table = QuantizedEmbeddingTable::from_weights(1, 3, &source, Precision::Int8);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&table.lookup_rows(&[0])));
        assert!(out.iter().all(|v| v.is_finite()), "{out:?}");
    }

    #[test]
    fn stats_merge_adds_counters() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            inserts: 3,
            evictions: 4,
            saved_bytes: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.hits, 2);
        assert_eq!(a.saved_bytes, 10);
        assert!((a.hit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
