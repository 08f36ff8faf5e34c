//! The one per-rank execution driver behind both deployments and both schedules.
//!
//! A deployment is a [`RankLowering`]: it owns the rank-local model state and
//! knows how to lower one iteration onto an
//! [`super::graph::IterationGraph`]. Everything else — the iteration loop, batch
//! generation, micro-batch splitting, wall-clock and optimizer timing, and the
//! assembly of measured segments from the graph's logged waits — lives here,
//! once, instead of four times (baseline/DMT × sync/pipelined, as the engine
//! was originally written).
//!
//! The schedule distinction is entirely in the *lowered graph*: under
//! [`super::config::ScheduleMode::Sync`] the driver hands the lowering a single
//! micro-batch and the lowering emits every `wait` node directly after its
//! `issue` node (blocking semantics, the bit-identical reference); under
//! [`super::config::ScheduleMode::Pipelined`] it hands over
//! `effective_micro_batches()` pieces and the lowering stretches the
//! issue→wait distance so transfers hide under compute. The executor itself is
//! schedule-agnostic: it runs whatever list-ordered DAG it is given.

use super::config::{DistributedConfig, DistributedError};
use super::measure::{accumulate, collect_comm_samples, iteration_samples, RankOutcome, WaitEntry};
use super::RankComms;
use dmt_data::{Batch, SyntheticClickDataset};
use dmt_metrics::trace;
use std::time::Instant;

/// Per-iteration result a lowering reports back to the driver.
pub(crate) struct IterationStats {
    /// Mean training loss of the iteration (sample-weighted across micro-batches).
    pub loss: f64,
    /// Training ROC AUC over the iteration's local batch, when defined.
    pub auc: Option<f64>,
}

/// One deployment's rank-local lowering: model state plus the recipe for turning
/// a batch into an iteration graph.
pub(crate) trait RankLowering {
    /// Label of the aggregated compute segment.
    fn compute_label(&self) -> &'static str;

    /// Lowers one iteration onto a graph and runs it: `mbs` holds the schedule's
    /// micro-batches (exactly one under sync), `waits` logs every collective
    /// wait in schedule order for the measurement epilogue.
    fn run_graph(
        &mut self,
        comm: &mut RankComms,
        mbs: Vec<Batch>,
        waits: &mut Vec<WaitEntry>,
    ) -> Result<IterationStats, DistributedError>;

    /// Applies the deployment's optimizers after the graph completes.
    fn optimizer_step(&mut self);
}

/// Runs `lowering` for `config.iterations` iterations on this rank's thread and
/// returns its measured outcome.
pub(crate) fn run_rank<L: RankLowering>(
    config: &DistributedConfig,
    rank: usize,
    comm: &mut RankComms,
    lowering: &mut L,
) -> Result<RankOutcome, DistributedError> {
    let mut data = SyntheticClickDataset::new(
        config.schema.clone(),
        config.seed ^ ((rank as u64 + 1) << 16),
    );
    let m = config.schedule_micro_batches();
    let mut totals = Vec::new();
    let mut losses = Vec::with_capacity(config.iterations);
    let mut aucs = Vec::with_capacity(config.iterations);
    let mut wall_s = 0.0;
    let mut iter_wall_s = Vec::with_capacity(config.iterations);
    let mut wait_seq = 0u64;
    for iter in 0..config.iterations {
        let _iter_span = trace::span(trace::cat::ITER, || format!("iteration {iter}"));
        let iter_start = Instant::now();
        let batch = {
            let _span = trace::span(trace::cat::STEP, || "batch generation".to_string());
            data.next_batch(config.local_batch)
        };
        // m == 1 keeps the batch untouched — the sync schedule sees exactly the
        // bytes-for-bytes batch the pre-IR engine saw.
        let mbs = if m == 1 { vec![batch] } else { batch.split(m) };
        let mut waits = Vec::new();
        let stats = lowering.run_graph(comm, mbs, &mut waits)?;
        if config.schedule == super::config::ScheduleMode::Sync {
            // Blocking schedule: every `claim` node directly follows its `issue`
            // node, so the whole transfer sits on the rank's critical path by
            // construction. Measured blocked-time would only subtract
            // thread-wake-up noise from that, so sync runs pin each wait's
            // exposure to the full transfer duration — the pre-IR convention
            // (`SegmentSample::from_record` clamps to the transfer length).
            for wait in &mut waits {
                wait.blocked_s = f64::INFINITY;
            }
        }
        if trace::tracing_enabled() {
            // One accounting instant per collective wait, in schedule order —
            // together with the backends' COMM transfer events these let
            // `hidden_comm_fraction_from_trace` replay the wait↔record pairing
            // below from the exported trace alone. The sync schedule's pinned
            // infinite exposure rides as the FULL_EXPOSURE sentinel (JSON has
            // no infinity).
            let track = trace::current_track();
            for wait in &waits {
                let blocked = if wait.blocked_s.is_finite() {
                    wait.blocked_s
                } else {
                    trace::FULL_EXPOSURE
                };
                trace::emit(
                    trace::TraceEvent::instant(
                        track,
                        trace::cat::WAIT,
                        wait.label.to_string(),
                        trace::clock_s(),
                    )
                    .arg_u64("rank", rank as u64)
                    .arg_u64("seq", wait_seq)
                    .arg_u64("iter", iter as u64)
                    .arg_f64("blocked_s", blocked)
                    .arg_str("scope", wait.scope.name()),
                );
                wait_seq += 1;
            }
        }
        losses.push(stats.loss);
        aucs.push(stats.auc);

        let opt_start = Instant::now();
        {
            let _span = trace::span(trace::cat::STEP, || "optimizer".to_string());
            lowering.optimizer_step();
        }
        let opt_s = opt_start.elapsed().as_secs_f64();

        let iter_s = iter_start.elapsed().as_secs_f64();
        let comm_samples = collect_comm_samples(comm, &waits);
        accumulate(
            &mut totals,
            iteration_samples(lowering.compute_label(), comm_samples, iter_s, opt_s),
        );
        wall_s += iter_s;
        iter_wall_s.push(iter_s);
    }
    Ok(RankOutcome {
        segments: totals,
        losses,
        aucs,
        wall_s,
        iter_wall_s,
    })
}
