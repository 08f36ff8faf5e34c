//! The colocated-engine frontend: drives a query stream of single-query
//! requests through a [`ServingEngine`]'s own front — admission, batcher,
//! dispatch — with the load harness ([`crate::run_load`]), and reports
//! per-request latency next to the engine's byte and cache accounting.
//!
//! Two traffic modes cover the interesting operating points:
//!
//! * **Closed loop** (`inter_arrival_us == 0`) — one batch's worth of
//!   always-busy clients: the next request is offered the moment an earlier
//!   one completes, so the engine runs saturated and batches close on the
//!   **size** trigger. This is the throughput measurement mode, and its
//!   latency numbers are **arrival-coordinated**: no open queue ever builds,
//!   so the percentiles describe batch assembly + service time — *not* what
//!   an independent arrival stream would experience.
//! * **Paced** (`inter_arrival_us > 0`) — open loop on a fixed schedule; under
//!   trickle traffic the **deadline** trigger closes partial batches, bounding
//!   tail latency the way an online system must. Latency is sojourn time from
//!   the *scheduled* arrival instant, queueing included.
//!
//! Per-request latency is accumulated in a bounded log-bucketed
//! [`dmt_metrics::Histogram`] — constant memory regardless of stream length —
//! and summarized as the shared [`dmt_metrics::LatencyPercentiles`] form the
//! trainer quotes for iteration wall times.

use crate::engine::ServingEngine;
use crate::harness::{run_load, ArrivalProcess, LoadConfig};
use crate::stats::ServeStats;
use crate::{BatcherConfig, ServeError};
use dmt_data::Query;
use dmt_metrics::LatencyPercentiles;
use serde::{Deserialize, Serialize};

/// Traffic and batching policy of one serving run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Requests to serve.
    pub num_requests: usize,
    /// Paced inter-arrival gap in microseconds; 0 = closed loop (saturated).
    pub inter_arrival_us: u64,
    /// Batch-close policy.
    pub batcher: BatcherConfig,
}

/// The outcome of serving one query stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Requests served.
    pub requests: usize,
    /// Wall-clock seconds for the whole stream.
    pub wall_s: f64,
    /// Served requests per second.
    pub throughput_qps: f64,
    /// Per-request latency summary, in seconds (scheduled arrival →
    /// completion; see the module docs for what each mode's numbers mean).
    pub latency: LatencyPercentiles,
    /// Batches closed by the size trigger.
    pub size_closes: u64,
    /// Batches closed by the deadline trigger.
    pub deadline_closes: u64,
    /// Batches closed by end-of-stream flush.
    pub flush_closes: u64,
    /// Engine-side accounting (bytes, cache) accumulated over the stream.
    pub stats: ServeStats,
}

/// Serves `config.num_requests` queries drawn from `next_query` through
/// `engine`, batching with the stream's policy, and reports latency
/// percentiles, throughput and the engine's byte/cache accounting delta.
///
/// # Errors
///
/// Returns a [`ServeError`] if the engine fails mid-stream.
pub fn serve_stream(
    engine: &mut ServingEngine,
    config: &StreamConfig,
    mut next_query: impl FnMut() -> Query,
) -> Result<ServeReport, ServeError> {
    let pipeline = &mut engine.pipeline;
    pipeline.set_batching(config.batcher);
    let (front_before, stats_before) = (pipeline.stats(), pipeline.serve_stats());
    // One batch of always-busy clients when closed, a periodic schedule when
    // paced.
    let arrivals = match config.inter_arrival_us {
        0 => ArrivalProcess::Closed {
            clients: config.batcher.max_batch,
        },
        gap_us => ArrivalProcess::Periodic {
            qps: 1e6 / gap_us as f64,
        },
    };
    let load = LoadConfig::new(config.num_requests, arrivals);
    let report = run_load(pipeline, &load, || vec![next_query()])?;
    let front = report.stats;
    Ok(ServeReport {
        requests: report.completed,
        wall_s: report.rate.wall_s,
        throughput_qps: report.rate.per_second(),
        latency: report.sojourn,
        size_closes: front.size_closes - front_before.size_closes,
        deadline_closes: front.deadline_closes - front_before.deadline_closes,
        flush_closes: front.flush_closes - front_before.flush_closes,
        stats: pipeline.serve_stats().since(&stats_before),
    })
}
