//! [`ServingEngine`]: the colocated placement behind a blocking call.
//!
//! One caller, one pre-formed batch at a time: `submit` hands the batch to a
//! [`Pipeline`] started without stage pools — every rank of the configured
//! cluster runs the lookup stage and the dense stage on its slice — and waits
//! for its completion. Everything else (fetch, cache, replication, failover,
//! precision, fabric pacing, accounting) is the pipeline's.

use crate::pipeline::{Pipeline, StagePools};
use crate::stats::ServeStats;
use crate::{ServeConfig, ServeError};
use dmt_data::Query;
use dmt_trainer::distributed::ModelSnapshot;

/// A running colocated deployment, fed batches through
/// [`ServingEngine::submit`].
pub struct ServingEngine {
    pub(crate) pipeline: Pipeline,
}

impl ServingEngine {
    /// Loads `snapshot` onto `config.cluster` and starts one worker thread per
    /// rank ([`Pipeline::start`] without stage pools).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Config`] if the snapshot or configuration cannot
    /// be served.
    pub fn start(snapshot: &ModelSnapshot, config: &ServeConfig) -> Result<Self, ServeError> {
        let pipeline = Pipeline::start(snapshot, None::<StagePools>, config)?;
        Ok(Self { pipeline })
    }

    /// Ranks currently excluded from serving (they reported their own death
    /// and have not been probed back up), ascending.
    #[must_use]
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.pipeline.dead_ranks()
    }

    /// Accounting accumulated across every submitted batch.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        self.pipeline.serve_stats()
    }

    /// Answers one batch ([`Pipeline::submit`]): the predicted click
    /// probabilities in query order.
    ///
    /// # Errors
    ///
    /// Returns a [`ServeError`] if a rank fails. Fault errors
    /// ([`ServeError::is_fault`]) fail only the submitted batch: the dead rank
    /// is excluded and the engine keeps serving (baseline deployments). Any
    /// other error — or any error in DMT mode — poisons the engine.
    pub fn submit(&mut self, queries: Vec<Query>) -> Result<Vec<f32>, ServeError> {
        self.pipeline.submit(queries)
    }

    /// Stops the workers and returns the final accounting.
    #[must_use]
    pub fn shutdown(mut self) -> ServeStats {
        self.pipeline.stop();
        self.pipeline.serve_stats()
    }
}
