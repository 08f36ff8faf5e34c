//! `dmt-serve` — disaggregated online inference for the DMT reproduction.
//!
//! Training proves the paper's topology argument on the gradient path; this
//! crate proves it on the **query path**. It loads a frozen
//! [`dmt_trainer::distributed::ModelSnapshot`] (exported by
//! `dmt_trainer::distributed::run_with_snapshot`) and serves it over the same
//! executable fabric the trainer measures (`dmt-comm` collectives,
//! `FabricProfile` pacing, per-link-class byte accounting against the
//! `ClusterTopology`), through **one request path**:
//!
//! ```text
//!   offer() ──► AdmissionController ──► MicroBatcher (per-request close
//!      │              │ shed                 deadlines from the SLO budget)
//!      │              ▼                        │ closed batch, split into one
//!      │        ServeError::Shed               ▼ contiguous slice per live rank
//!      │                              LOOKUP STAGE: one worker per rank over
//!      │                              `dmt-comm` worlds — cache-fronted,
//!      │                              replica-aware fetch + pool (+ tower
//!      │                              forward and peer exchange for DMT)
//!      │                                        │
//!      │                     colocated ─────────┴───────── pooled
//!      │              dense runs inline on        slices stitched in rank order,
//!      │              each rank's slice           paced at `xfer_bytes_per_s`,
//!      │                       │                  bounded queue (`stage_queue`)
//!      │                       │                          │
//!      │                       │                  DENSE STAGE: `dense_ranks`
//!      │                       │                  workers, whole-batch forward
//!      │                       ▼                          ▼
//!      └──── drain() ◄── one seq-tagged completion per request, or a
//!                        seq-tagged failure once the completions are delivered
//! ```
//!
//! * The **lookup stage** is the same for every deployment: a cache-fronted,
//!   replica-aware sharded fetch and requester-side pooling ([`model`]). A
//!   *baseline* snapshot row-shards every table across all lookup ranks and
//!   pays a global index + row AlltoAll per batch; a *DMT* snapshot runs the
//!   SPTT flow — peer index distribution, the same fetch over the *intra-host*
//!   world, tower-module compression — so only the small tower outputs cross
//!   hosts.
//! * **Placement is a parameter** of [`Pipeline::start`]: without stage pools
//!   dense runs inline on each lookup rank's slice (*colocated* — what
//!   [`ServingEngine`] fronts with a blocking `submit`); with [`StagePools`]
//!   the slices are stitched in rank order and handed through a bounded
//!   rate-matching queue to a separate dense pool (*pooled* —
//!   [`StagedEngine`]); a world of one rank is called inline with no threads
//!   and no allocation ([`SingleRankServer`]).
//! * Everything else composes with every placement and both deployments:
//!   [`Request`] / [`Priority`] deadlines and classes, the
//!   [`AdmissionController`]'s watermark and deadline-feasibility shedding (a
//!   refused request is a fast, observable [`ServeError::Shed`], never a
//!   timeout), the [`MicroBatcher`]'s size- and deadline-triggered close, the
//!   per-rank [`HotRowCache`] whose savings show up directly in the wire-byte
//!   accounting, [`ServeConfig::precision`] (int8 / fp16 tables, cache rows
//!   and dense GEMMs; F32 keeps the exact bit-identical path), and — for
//!   baseline snapshots — [`ReplicatedAnswerer`] shard replicas with
//!   [`HealthView`] conviction, bounded retries, bit-identical failover and
//!   the [`DegradedPolicy`] fallback, exercised by deterministic
//!   [`dmt_comm::FaultProfile`] injection.
//! * [`harness`] drives any placement open- or closed-loop ([`run_load`]):
//!   Poisson or periodic arrivals at controlled rates, **sojourn-time**
//!   latency (queueing included) and per-class shedding counts;
//!   [`serve_stream`] is the same harness over a
//!   [`ServingEngine`] with per-stream batching.
//!
//! Accounting is kept once ([`stats`]): bytes are what the comm backends'
//! op records say moved, and [`ServeStats`] / [`StageStats`] are two views of
//! the same totals.
//!
//! Served predictions are **bit-identical** to a forward pass through the
//! training-side model over the same sub-batches: the stages reuse the
//! trainer's `ShardedLookup` protocol and `DenseStack` float path rather than
//! reimplementing them (see the workspace `serving` tests).
//!
//! # Example
//!
//! ```
//! use dmt_models::ModelArch;
//! use dmt_serve::{ServeConfig, ServingEngine};
//! use dmt_topology::{ClusterTopology, HardwareGeneration};
//! use dmt_trainer::distributed::{run_with_snapshot, DistributedConfig, ExecutionMode};
//!
//! let cluster = ClusterTopology::new(HardwareGeneration::A100, 1, 2)?;
//! let train = DistributedConfig::quick(cluster.clone(), ModelArch::Dlrm).with_iterations(1);
//! let (_run, snapshot) = run_with_snapshot(&train, ExecutionMode::Baseline)?;
//! let mut engine = ServingEngine::start(&snapshot, &ServeConfig::new(cluster))?;
//! let mut stream = dmt_data::ZipfRequestStream::new(snapshot.schema.clone(), 1, 1.1);
//! let preds = engine.submit(stream.next_queries(8))?;
//! assert_eq!(preds.len(), 8);
//! assert!(preds.iter().all(|p| (0.0..=1.0).contains(p)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod admission;
pub mod batcher;
pub mod cache;
pub mod engine;
pub mod frontend;
pub mod harness;
pub mod health;
pub mod model;
pub mod pipeline;
pub mod replica;
pub mod request;
pub mod single;
pub mod stats;

pub use admission::{batcher_close_by, AdmissionController};
pub use batcher::{BatcherConfig, MicroBatcher};
pub use cache::{CacheStats, HotRowCache};
pub use engine::ServingEngine;
pub use frontend::{serve_stream, ServeReport, StreamConfig};
pub use harness::{run_load, ArrivalProcess, LoadConfig, LoadReport};
pub use health::HealthView;
pub use pipeline::{CompletedRequest, Pipeline, StagePools, StagedEngine};
pub use replica::ReplicatedAnswerer;
pub use request::{Priority, Request, ShedReason, NO_DEADLINE};
pub use single::SingleRankServer;
pub use stats::{ServeStats, StageStats};

/// Precision of a serving deployment's forward pass (re-export of
/// [`dmt_tensor::Precision`]; see [`ServeConfig::precision`] for what each
/// value stores and which kernel it runs).
pub use dmt_tensor::Precision as ComputePrecision;

use dmt_comm::{CommError, FabricProfile, FaultProfile};
use dmt_tensor::TensorError;
use dmt_topology::ClusterTopology;
use dmt_trainer::distributed::DistributedError;
use std::time::Duration;

/// What a baseline serving rank does with a requested row whose owner *and*
/// every replica holder are down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradedPolicy {
    /// Fail the batch with [`ServeError::Unavailable`] — correctness over
    /// availability (the default).
    #[default]
    Error,
    /// Answer anyway with zero embeddings for the lost rows, counting every
    /// affected query in `ServeStats::degraded_answers` — availability over
    /// correctness. Zero-filled rows are never fed into the hot-row cache.
    ZeroFill,
}

/// Micro-batching and hot-row cache policy of a serving deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Size trigger: a batch closes as soon as it holds this many requests.
    pub max_batch: usize,
    /// Deadline trigger, in microseconds: how long a queued request may wait
    /// for its batch to fill before the batch closes anyway.
    pub max_delay_us: u64,
    /// Per-rank hot-row cache capacity in rows (0 disables the cache).
    pub cache_rows: usize,
}

impl Default for BatchConfig {
    /// 32-deep batches, a 2ms close deadline and a modest 1024-row cache.
    fn default() -> Self {
        Self {
            max_batch: 32,
            max_delay_us: 2_000,
            cache_rows: 1024,
        }
    }
}

/// Fault-tolerance policy of a serving deployment: replication, retries,
/// health conviction, probing and the degraded-answer fallback.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// Cross-host replicas kept of every embedding shard (0 disables
    /// replication and failover; baseline snapshots only).
    pub replicas: usize,
    /// Deterministic fault schedule injected into every rank's collectives
    /// ([`FaultProfile::none`] injects nothing).
    pub faults: FaultProfile,
    /// Per-collective rendezvous deadline; `None` waits forever. Required for
    /// fault tolerance — without it a dead peer blocks instead of timing out.
    pub op_timeout: Option<Duration>,
    /// Retries of a transiently-failed collective before the batch errors.
    pub max_retries: u32,
    /// Pause between those retries.
    pub retry_backoff: Duration,
    /// Consecutive implicated timeouts before a peer is marked down.
    pub down_after: u32,
    /// Dispatcher probe cadence in submissions (failed batches count): every so
    /// many submitted batches, dead ranks the fault schedule does not hold
    /// permanently down are readmitted (0 disables probing).
    pub probe_every_batches: u64,
    /// Policy for rows whose owner and every replica holder are down.
    pub degraded: DegradedPolicy,
}

impl Default for ResilienceConfig {
    /// Fault tolerance disabled: no replication, no injected faults, no
    /// collective deadline, two quick retries.
    fn default() -> Self {
        Self {
            replicas: 0,
            faults: FaultProfile::none(),
            op_timeout: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(2),
            down_after: 1,
            probe_every_batches: 0,
            degraded: DegradedPolicy::Error,
        }
    }
}

/// Deadline, queue-bound and priority policy of a serving deployment — what
/// the [`AdmissionController`] enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// Default per-request completion budget in microseconds, applied by the
    /// load harness when building requests ([`NO_DEADLINE`] = none).
    pub deadline_us: u64,
    /// Queue occupancy bound in *queries* (admitted and not yet completed).
    /// Priority classes get nested watermarks of this bound
    /// ([`AdmissionController::bound_of`]).
    pub queue_bound: usize,
    /// Admission's estimate of time-to-answer in microseconds: requests whose
    /// remaining deadline budget is below it are shed as infeasible, and
    /// batcher close deadlines leave this much slack before the deadline.
    pub service_estimate_us: u64,
    /// Whether admission sheds at all; `false` admits everything (the legacy
    /// behavior) while still tracking occupancy.
    pub shed: bool,
    /// Depth, in batches, of the bounded rate-matching queue between the
    /// lookup stage and a pooled dense stage ([`StagePools`]).
    pub stage_queue: usize,
}

impl Default for SloConfig {
    /// No deadlines, no shedding, a 4096-query occupancy gauge and a 4-batch
    /// rate-matching queue.
    fn default() -> Self {
        Self {
            deadline_us: NO_DEADLINE,
            queue_bound: 4_096,
            service_estimate_us: 0,
            shed: false,
            stage_queue: 4,
        }
    }
}

/// Configuration of a serving deployment, grouped into typed sub-configs:
/// [`BatchConfig`] (batching + cache), [`ResilienceConfig`] (faults, retry,
/// health, degraded mode) and [`SloConfig`] (deadlines, queue bound,
/// priorities).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Cluster the rank worker threads are mapped onto.
    pub cluster: ClusterTopology,
    /// Fabric pacing applied to every collective on the query path.
    pub fabric: FabricProfile,
    /// Micro-batching and hot-row cache policy.
    pub batch: BatchConfig,
    /// Fault-tolerance policy.
    pub resilience: ResilienceConfig,
    /// Deadline / queue-bound / priority policy.
    pub slo: SloConfig,
    /// Precision of the serving forward pass. Embedding shards, replica
    /// shards and hot-row cache entries are stored at it. Dense and tower
    /// weights differ by precision: [`ComputePrecision::Int8`] packs them for
    /// the int8 GEMM, while [`ComputePrecision::Fp16`] is a storage precision
    /// only — an fp16 dense weight is an f16-rounded f32 weight run by the f32
    /// kernel. [`ComputePrecision::F32`] is the exact
    /// bit-identical-to-training path.
    pub precision: ComputePrecision,
}

impl ServeConfig {
    /// A configuration over `cluster` with an unthrottled fabric and every
    /// sub-config at its default: a modest cache, fault tolerance disabled,
    /// no deadlines or shedding.
    #[must_use]
    pub fn new(cluster: ClusterTopology) -> Self {
        Self {
            cluster,
            fabric: FabricProfile::unthrottled(),
            batch: BatchConfig::default(),
            resilience: ResilienceConfig::default(),
            slo: SloConfig::default(),
            precision: ComputePrecision::F32,
        }
    }

    /// Overrides the fabric profile.
    #[must_use]
    pub fn with_fabric(mut self, fabric: FabricProfile) -> Self {
        self.fabric = fabric;
        self
    }

    /// Replaces the batching/cache sub-config.
    #[must_use]
    pub fn with_batch(mut self, batch: BatchConfig) -> Self {
        self.batch = batch;
        self
    }

    /// Replaces the fault-tolerance sub-config.
    #[must_use]
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Replaces the SLO sub-config.
    #[must_use]
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = slo;
        self
    }

    /// Overrides the precision of the whole serving forward pass (see
    /// [`ServeConfig::precision`]).
    #[must_use]
    pub fn with_precision(mut self, precision: ComputePrecision) -> Self {
        self.precision = precision;
        self
    }
}

/// Errors surfaced by the serving engine.
///
/// Marked `#[non_exhaustive]` (matching [`CommError`]): downstream matches
/// must carry a wildcard arm, so new failure classes can be added without a
/// breaking change.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The snapshot or configuration cannot be served.
    Config {
        /// Explanation of the problem.
        reason: String,
    },
    /// A collective failed on the query path.
    Comm(CommError),
    /// A shape mismatch inside a rank's local compute.
    Tensor(TensorError),
    /// A rank worker failed or disappeared.
    Rank {
        /// The rank that failed.
        rank: usize,
        /// Failure description.
        message: String,
    },
    /// Requested rows whose owner and every replica holder are down, under
    /// [`DegradedPolicy::Error`].
    Unavailable {
        /// Distinct lost rows in the failed batch.
        rows: usize,
    },
    /// The admission controller refused the request — load was shed *before*
    /// any batching or collective work, so refusal is immediate and the
    /// request never consumed pipeline capacity.
    Shed {
        /// Why admission refused.
        reason: ShedReason,
        /// The refused request's priority class.
        priority: Priority,
    },
    /// Admitted requests whose batch a stage failed — their terminal outcome,
    /// surfaced by [`Pipeline::drain`] once every completion harvested with it
    /// has been delivered.
    Failed {
        /// Sequence numbers of the requests that will never complete.
        seqs: Vec<u64>,
        /// The error closest to the failure's root cause.
        cause: Box<ServeError>,
    },
}

impl ServeError {
    /// The error itself, or the cause a [`ServeError::Failed`] wraps.
    fn root(&self) -> &ServeError {
        match self {
            ServeError::Failed { cause, .. } => cause.root(),
            other => other,
        }
    }

    /// Whether this error is a *fault* — a dead, stalled or unreachable rank —
    /// rather than a configuration or compute failure. Fault errors leave the
    /// engine serviceable: the dispatcher excludes the dead rank and keeps
    /// answering instead of poisoning itself.
    #[must_use]
    pub fn is_fault(&self) -> bool {
        matches!(
            self.root(),
            ServeError::Comm(CommError::RankDown { .. })
                | ServeError::Comm(CommError::Timeout { .. })
                | ServeError::Unavailable { .. }
        )
    }

    /// Whether this request was refused by admission control rather than
    /// failed by the pipeline.
    #[must_use]
    pub fn is_shed(&self) -> bool {
        matches!(self, ServeError::Shed { .. })
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config { reason } => write!(f, "invalid serving configuration: {reason}"),
            ServeError::Comm(e) => write!(f, "serving collective failed: {e}"),
            ServeError::Tensor(e) => write!(f, "serving tensor error: {e}"),
            ServeError::Rank { rank, message } => {
                write!(f, "serving rank {rank} failed: {message}")
            }
            ServeError::Unavailable { rows } => {
                write!(f, "{rows} requested rows have no live owner or replica")
            }
            ServeError::Shed { reason, priority } => {
                write!(f, "request shed ({priority} priority): {reason}")
            }
            ServeError::Failed { seqs, cause } => {
                write!(f, "{} admitted requests failed: {cause}", seqs.len())
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CommError> for ServeError {
    fn from(value: CommError) -> Self {
        ServeError::Comm(value)
    }
}

impl From<TensorError> for ServeError {
    fn from(value: TensorError) -> Self {
        ServeError::Tensor(value)
    }
}

impl From<DistributedError> for ServeError {
    fn from(value: DistributedError) -> Self {
        match value {
            DistributedError::Comm(e) => ServeError::Comm(e),
            DistributedError::Tensor(e) => ServeError::Tensor(e),
            other => ServeError::Config {
                reason: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = ServeError::Config {
            reason: "bad".into(),
        };
        assert!(e.to_string().contains("bad"));
        let e = ServeError::Rank {
            rank: 3,
            message: "boom".into(),
        };
        assert!(e.to_string().contains('3') && e.to_string().contains("boom"));
    }

    #[test]
    fn fault_errors_are_exactly_the_liveness_failures() {
        assert!(ServeError::Comm(CommError::RankDown { rank: 2 }).is_fault());
        assert!(ServeError::Unavailable { rows: 3 }.is_fault());
        assert!(!ServeError::Comm(CommError::Aborted).is_fault());
        assert!(!ServeError::Config { reason: "x".into() }.is_fault());
        let e = ServeError::Unavailable { rows: 3 };
        assert!(e.to_string().contains("3"));
    }

    #[test]
    fn shed_errors_are_shed_not_faults_not_transient() {
        let e = ServeError::Shed {
            reason: ShedReason::QueueFull {
                occupancy: 10,
                bound: 8,
            },
            priority: Priority::Low,
        };
        assert!(e.is_shed());
        assert!(!e.is_fault());
        assert!(e.to_string().contains("low"));
        assert!(!ServeError::Unavailable { rows: 1 }.is_shed());
    }

    #[test]
    fn config_builders_override_fields() {
        use dmt_topology::{ClusterTopology, HardwareGeneration};
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 1, 1).unwrap();
        let cfg = ServeConfig::new(cluster).with_batch(BatchConfig {
            cache_rows: 7,
            ..BatchConfig::default()
        });
        assert_eq!(cfg.batch.cache_rows, 7);
        let slo = SloConfig {
            queue_bound: 9,
            shed: true,
            ..SloConfig::default()
        };
        let cfg = cfg.with_slo(slo);
        assert_eq!(cfg.slo.queue_bound, 9);
    }

    #[test]
    fn precision_defaults_to_f32_and_overrides() {
        use dmt_topology::{ClusterTopology, HardwareGeneration};
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 1, 2).unwrap();
        let cfg = ServeConfig::new(cluster);
        assert!(cfg.precision.is_f32());
        let cfg = cfg.with_precision(ComputePrecision::Int8);
        assert_eq!(cfg.precision, ComputePrecision::Int8);
    }
}
