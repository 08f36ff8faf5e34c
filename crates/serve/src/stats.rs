//! Serving accounting: one accumulator, two read-only views.
//!
//! Every stage worker fills a `Totals` for its share of a batch, the worker
//! that completes the batch folds them together, and the front folds the
//! batch's sum into the pipeline's own `Totals` when it absorbs the reply.
//! Nothing else counts: [`ServeStats`] (the byte, fault and cache view) is
//! read straight out of that accumulator, and [`StageStats`] (the
//! front-and-stages view) is projected from it plus the counters the
//! admission controller and the batcher already keep for themselves.

use crate::cache::CacheStats;
use serde::{Deserialize, Serialize};

/// The pipeline's accumulator — and, per batch, the delta a worker reports.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Totals {
    /// The byte, fault and cache counters, kept in the shape of their view.
    /// Its gauges add like counters: summing the ranks of one batch is what
    /// makes them cluster-wide, `replica_bytes` / `table_resident_bytes` are
    /// set once at start, and the front clears `cache_resident_bytes` before
    /// absorbing a batch's sum.
    pub serve: ServeStats,
    /// The share of `serve.payload_bytes` the index collectives carried.
    pub index_bytes: u64,
    /// Bytes handed across the lookup→dense queue (pooled placement).
    pub xfer_bytes: u64,
    pub pred_bytes: u64,
    /// Admitted requests that ended in a failure instead of a completion.
    pub failed: u64,
    pub flush_closes: u64,
}

impl Totals {
    pub(crate) fn absorb(&mut self, delta: &Totals) {
        let (mine, theirs) = (&mut self.serve, &delta.serve);
        mine.queries += theirs.queries;
        mine.batches += theirs.batches;
        mine.payload_bytes += theirs.payload_bytes;
        mine.cross_host_bytes += theirs.cross_host_bytes;
        mine.intra_host_bytes += theirs.intra_host_bytes;
        mine.retries += theirs.retries;
        mine.failovers += theirs.failovers;
        mine.degraded_answers += theirs.degraded_answers;
        mine.replica_bytes += theirs.replica_bytes;
        mine.table_resident_bytes += theirs.table_resident_bytes;
        mine.cache_resident_bytes += theirs.cache_resident_bytes;
        mine.cache.merge(&theirs.cache);
        self.index_bytes += delta.index_bytes;
        self.xfer_bytes += delta.xfer_bytes;
        self.pred_bytes += delta.pred_bytes;
        self.failed += delta.failed;
        self.flush_closes += delta.flush_closes;
    }
}

/// Byte, fault and cache accounting of a deployment, summed over its lookup
/// ranks and batches.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Queries answered.
    pub queries: u64,
    /// Batches executed.
    pub batches: u64,
    /// Sum of per-rank collective payload bytes.
    pub payload_bytes: u64,
    /// Sum of per-rank bytes pushed over cross-host links.
    pub cross_host_bytes: u64,
    /// Sum of per-rank bytes pushed over intra-host links.
    pub intra_host_bytes: u64,
    /// Collectives re-issued after a transient fault.
    pub retries: u64,
    /// Requested rows served by a replica holder instead of their owner.
    pub failovers: u64,
    /// Queries answered with one or more zero-filled rows under
    /// [`DegradedPolicy::ZeroFill`](crate::DegradedPolicy).
    pub degraded_answers: u64,
    /// Bytes of replica shard copies held across all ranks — a capacity
    /// *gauge*, not a per-batch delta (constant for the engine's lifetime).
    pub replica_bytes: u64,
    /// Bytes resident in embedding shard storage across all ranks (primaries
    /// plus replicas, at the configured
    /// [`ComputePrecision`](crate::ComputePrecision)) — a gauge, constant for
    /// the engine's lifetime. This is the number int8/fp16 storage shrinks.
    pub table_resident_bytes: u64,
    /// Bytes resident in hot-row cache entries across all ranks, sampled after
    /// the most recent batch — a gauge that grows as the cache fills.
    pub cache_resident_bytes: u64,
    /// Hot-row cache counters, summed across ranks.
    pub cache: CacheStats,
}

impl ServeStats {
    /// Mean cross-host bytes per answered query (the paper's topology metric on
    /// the query path); 0 before any query.
    #[must_use]
    pub fn cross_host_bytes_per_query(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.cross_host_bytes as f64 / self.queries as f64
    }

    /// Mean intra-host bytes per answered query.
    #[must_use]
    pub fn intra_host_bytes_per_query(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.intra_host_bytes as f64 / self.queries as f64
    }

    /// The accounting accumulated since `before` was captured (`self - before`,
    /// field-wise) — how the frontend reports one stream's window out of the
    /// engine's cumulative counters. The three gauges carry through unchanged.
    #[must_use]
    pub fn since(&self, before: &ServeStats) -> ServeStats {
        ServeStats {
            queries: self.queries - before.queries,
            batches: self.batches - before.batches,
            payload_bytes: self.payload_bytes - before.payload_bytes,
            cross_host_bytes: self.cross_host_bytes - before.cross_host_bytes,
            intra_host_bytes: self.intra_host_bytes - before.intra_host_bytes,
            retries: self.retries - before.retries,
            failovers: self.failovers - before.failovers,
            degraded_answers: self.degraded_answers - before.degraded_answers,
            replica_bytes: self.replica_bytes,
            table_resident_bytes: self.table_resident_bytes,
            cache_resident_bytes: self.cache_resident_bytes,
            cache: self.cache.since(&before.cache),
        }
    }
}

/// Front-and-stages accounting of a deployment: what admission let in, how
/// the batcher closed, what the stages moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StageStats {
    /// Queries answered (shed and failed queries never count).
    pub queries: u64,
    /// Batches answered.
    pub batches: u64,
    /// Payload bytes of the lookup stage's index collectives, as drained from
    /// the comm backends' op records.
    pub index_bytes: u64,
    /// Payload bytes of the lookup stage's row (and, for DMT, tower-output)
    /// collectives, as drained from the comm backends' op records.
    pub row_bytes: u64,
    /// Bytes handed across the lookup→dense rate-matching queue (the stitched
    /// feature block plus the dense features) — the paced link; 0 when dense
    /// runs on the lookup ranks.
    pub xfer_bytes: u64,
    /// Bytes of predictions leaving the dense stage.
    pub pred_bytes: u64,
    /// Batches closed by the size trigger.
    pub size_closes: u64,
    /// Batches closed by a close deadline.
    pub deadline_closes: u64,
    /// Batches closed by an explicit flush.
    pub flush_closes: u64,
    /// Requests admitted, per [`Priority`](crate::Priority) class (index =
    /// `Priority::index`).
    pub admitted_by_class: [u64; 3],
    /// Requests shed, per class.
    pub shed_by_class: [u64; 3],
    /// Admitted requests whose batch failed. Every offered request ends as
    /// exactly one of completed, shed or failed.
    pub failed: u64,
    /// Peak queue occupancy in queries (admitted and not yet completed).
    pub max_occupancy: usize,
}

impl StageStats {
    /// Total requests admitted, all classes.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted_by_class.iter().sum()
    }

    /// Total requests shed, all classes.
    #[must_use]
    pub fn shed(&self) -> u64 {
        self.shed_by_class.iter().sum()
    }
}
