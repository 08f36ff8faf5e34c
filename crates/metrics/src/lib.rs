//! Evaluation metrics and statistics for the DMT reproduction.
//!
//! The paper reports model quality as ROC AUC (open-source models) and normalized
//! entropy (the internal XLRM model), summarizes repeated runs with medians and
//! standard deviations, and establishes the significance of the Tower Partitioner's
//! gains with a Mann–Whitney U test (Table 6). This crate implements those metrics:
//!
//! * [`auc::roc_auc`] — rank-based ROC AUC with proper tie handling.
//! * [`loss::log_loss`] and [`loss::normalized_entropy`] — the NE metric of He et al.
//! * [`stats`] — mean, standard deviation, median and empirical CDFs.
//! * [`fn@percentile`] — nearest-rank latency percentiles (p50/p95/p99), shared by the
//!   `dmt-serve` request path and the trainer's wall-time reporting.
//! * [`rate::ThroughputWindow`] — counted-work-over-wall-time accounting, shared by the
//!   serving load harness and the trainer's iteration-rate reporting.
//! * [`mann_whitney::mann_whitney_u`] — two-sided Mann–Whitney U test with the normal
//!   approximation and tie correction.
//!
//! Beyond the statistics, this crate hosts the observability layer:
//!
//! * [`trace`] — a per-thread span recorder on the process-wide clock with a
//!   Chrome-trace-event JSON exporter (Perfetto-viewable), plus a parser,
//!   structural validator and a trace-side recomputation of the trainer's
//!   hidden-communication fraction. The comm backends, the trainer's iteration
//!   graphs and the serving request path all record onto it.
//! * [`registry`] — counters, gauges and bounded log-bucketed histograms (≤1%
//!   quantile error), exported as JSON or Prometheus-style text. Only
//!   [`Histogram`] has program callers (the serving frontend's and load
//!   harness's latency percentiles); [`Registry`], [`Counter`] and [`Gauge`]
//!   are exercised by tests alone.
//!
//! # Example
//!
//! ```
//! use dmt_metrics::auc::roc_auc;
//!
//! let labels = [1.0, 0.0, 1.0, 0.0];
//! let scores = [0.9, 0.1, 0.8, 0.3];
//! assert_eq!(roc_auc(&scores, &labels), Some(1.0));
//! ```

#![deny(missing_docs)]

pub mod auc;
pub mod loss;
pub mod mann_whitney;
pub mod percentile;
pub mod rate;
pub mod registry;
pub mod stats;
pub mod trace;

pub use auc::roc_auc;
pub use loss::{log_loss, normalized_entropy};
pub use mann_whitney::{mann_whitney_u, MannWhitneyResult};
pub use percentile::{percentile, LatencyPercentiles};
pub use rate::ThroughputWindow;
pub use registry::{Counter, Gauge, Histogram, Registry};
pub use stats::{empirical_cdf, mean, median, std_dev, Summary};
