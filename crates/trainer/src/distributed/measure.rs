//! Measurement types of the distributed engine: per-segment samples, per-rank
//! accumulation and the aggregated [`MeasuredRun`].
//!
//! Exposure is *measured*, not assumed: every communication segment carries both
//! its full transfer duration (from the backend's [`OpRecord`] issue/complete
//! timestamps) and the seconds the issuing rank actually spent blocked on it — the
//! op's exposed share of the critical path. Under the sync schedule the two
//! coincide (the rank blocks for the whole transfer); under the pipelined schedule
//! a hidden op shows near-zero exposure. `MeasuredRun::exposed_comm_fraction`
//! therefore reports real overlap instead of the fixed per-category constants the
//! analytical simulator uses.

use super::config::{DistributedConfig, ExecutionMode, ScheduleMode};
use super::RankComms;
use dmt_comm::{Backend, CommOp, OpRecord};
use dmt_commsim::{IterationTimeline, LatencyBreakdown, Quantization, Segment, SegmentKind};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Which communicator world a measured segment ran over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommScope {
    /// Rank-local compute, no communicator.
    Local,
    /// The global world (all ranks).
    Global,
    /// One host's ranks.
    IntraHost,
    /// Same-slot ranks across hosts (SPTT peer group).
    Peer,
}

impl CommScope {
    /// The scope's name as it appears in trace-event `scope` arguments (the
    /// vocabulary [`dmt_metrics::trace::hidden_comm_fraction_from_trace`]
    /// keys its wait↔op pairing on).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CommScope::Local => "Local",
            CommScope::Global => "Global",
            CommScope::IntraHost => "IntraHost",
            CommScope::Peer => "Peer",
        }
    }
}

/// One measured timeline segment, averaged over the run's iterations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredSegment {
    /// Human-readable label.
    pub label: String,
    /// Latency category (matches the analytical simulator's segments).
    pub kind: SegmentKind,
    /// Measured fraction of the duration exposed on the issuing rank's critical
    /// path (blocked-wait seconds / transfer seconds). `1.0` for compute segments
    /// and for sync-scheduled collectives; near `0.0` for a fully hidden transfer.
    pub exposed_fraction: f64,
    /// Measured mean wall-clock seconds per iteration (slowest rank).
    pub time_s: f64,
    /// Mean per-rank payload bytes per iteration.
    pub payload_bytes: u64,
    /// Mean per-rank bytes crossing scale-out (cross-host) links per iteration.
    pub cross_host_bytes: u64,
    /// Mean per-rank bytes crossing scale-up (intra-host) links per iteration.
    pub intra_host_bytes: u64,
    /// Communicator world the segment ran over.
    pub scope: CommScope,
    /// The collective executed, `None` for compute/overhead segments.
    pub op: Option<CommOp>,
}

impl MeasuredSegment {
    /// Exposed seconds of this segment (duration × measured exposed fraction).
    #[must_use]
    pub fn exposed_s(&self) -> f64 {
        self.time_s * self.exposed_fraction
    }

    /// Seconds of this segment hidden behind compute (duration − exposed).
    #[must_use]
    pub fn hidden_s(&self) -> f64 {
        self.time_s * (1.0 - self.exposed_fraction)
    }

    /// Whether this segment is communication (has an op and a non-local scope).
    #[must_use]
    pub fn is_comm(&self) -> bool {
        self.op.is_some() && self.scope != CommScope::Local
    }
}

/// Result of running one deployment for real.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeasuredRun {
    /// The executed deployment.
    pub mode: ExecutionMode,
    /// The collective schedule the run used.
    pub schedule: ScheduleMode,
    /// Wire precision of the quantizable exchanges (embedding rows, tower
    /// outputs, gradients, AllReduces); index exchanges always ride native width.
    pub wire: Quantization,
    /// Number of rank threads.
    pub world_size: usize,
    /// Iterations averaged over.
    pub iterations: usize,
    /// Per-segment measurements in iteration order.
    pub segments: Vec<MeasuredSegment>,
    /// Mean training loss across ranks, one entry per iteration.
    pub losses: Vec<f64>,
    /// Mean training ROC AUC on the local batches across ranks, one entry per
    /// iteration (`None` when no rank's batch held both classes).
    pub aucs: Vec<Option<f64>>,
    /// Mean wall-clock seconds per iteration (slowest rank) — the end-to-end
    /// figure overlap is supposed to shrink. Under the sync schedule this is close
    /// to the sum of segment durations; under the pipelined schedule it is
    /// smaller, by exactly the communication that was hidden.
    pub wall_s_per_iter: f64,
    /// Per-iteration wall-clock seconds (slowest rank per iteration), the raw
    /// samples behind [`MeasuredRun::wall_latency`].
    ///
    /// Ranks do not cross iteration boundaries in step, so each entry may
    /// come from a different rank and `Σᵢ maxᵣ tᵣᵢ ≥ maxᵣ Σᵢ tᵣᵢ`: the sum can
    /// exceed `wall_s_per_iter × iterations` with nothing counted twice. Sum
    /// [`MeasuredRun::wall_s_per_iter`] for run wall time, not these.
    pub iter_wall_s: Vec<f64>,
}

impl MeasuredRun {
    /// The measured timeline in the simulator's [`IterationTimeline`] form, with
    /// each segment's *measured* exposed fraction.
    #[must_use]
    pub fn timeline(&self) -> IterationTimeline {
        self.segments
            .iter()
            .map(|s| Segment::new(s.kind, s.label.clone(), s.time_s, s.exposed_fraction))
            .collect()
    }

    /// Exposed-latency breakdown of the measured timeline.
    #[must_use]
    pub fn breakdown(&self) -> LatencyBreakdown {
        self.timeline().breakdown()
    }

    /// Mean per-rank cross-host bytes per iteration.
    #[must_use]
    pub fn cross_host_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.cross_host_bytes).sum()
    }

    /// Mean per-rank intra-host bytes per iteration.
    #[must_use]
    pub fn intra_host_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.intra_host_bytes).sum()
    }

    /// Full (pre-overlap) communication seconds per iteration.
    #[must_use]
    pub fn comm_time_s(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.is_comm())
            .map(|s| s.time_s)
            .sum()
    }

    /// *Exposed* communication seconds per iteration, from the measured per-op
    /// blocked time.
    #[must_use]
    pub fn exposed_comm_s(&self) -> f64 {
        self.segments
            .iter()
            .filter(|s| s.is_comm())
            .map(MeasuredSegment::exposed_s)
            .sum()
    }

    /// Fraction of the exposed iteration spent communicating (embedding exchanges +
    /// gradient synchronization) — the quantity the paper's Figure 1 is about.
    ///
    /// Computed from op-level measurements (issue/complete timestamps and
    /// blocked-wait times), **not** from assumed per-category exposure constants:
    /// a pipelined run whose transfers hide behind compute reports a smaller
    /// fraction than a sync run moving identical bytes.
    #[must_use]
    pub fn exposed_comm_fraction(&self) -> f64 {
        super::calibrate::CalibrationReport::comm_fraction(&self.breakdown())
    }

    /// Fraction of this run's communication that overlap *hid* (0 = everything
    /// exposed, as in sync mode; 1 = every transfer fully behind compute).
    #[must_use]
    pub fn hidden_comm_fraction(&self) -> f64 {
        let total = self.comm_time_s();
        if total <= 0.0 {
            return 0.0;
        }
        (1.0 - self.exposed_comm_s() / total).clamp(0.0, 1.0)
    }

    /// Mean training AUC over the iterations where it was defined.
    #[must_use]
    pub fn mean_auc(&self) -> Option<f64> {
        let defined: Vec<f64> = self.aucs.iter().filter_map(|a| *a).collect();
        if defined.is_empty() {
            None
        } else {
            Some(defined.iter().sum::<f64>() / defined.len() as f64)
        }
    }

    /// p50/p95/p99 summary of the per-iteration wall times, computed with the
    /// same nearest-rank helper the serving engine uses for request latency
    /// ([`fn@dmt_metrics::percentile`]). `None` when no iterations were recorded.
    #[must_use]
    pub fn wall_latency(&self) -> Option<dmt_metrics::LatencyPercentiles> {
        dmt_metrics::LatencyPercentiles::of(&self.iter_wall_s)
    }

    /// Mean training loss over the run's iterations.
    #[must_use]
    pub fn mean_loss(&self) -> f64 {
        if self.losses.is_empty() {
            return 0.0;
        }
        self.losses.iter().sum::<f64>() / self.losses.len() as f64
    }
}

/// One measured sample of a segment within a single iteration.
pub(crate) struct SegmentSample {
    pub label: &'static str,
    pub kind: SegmentKind,
    pub scope: CommScope,
    pub op: Option<CommOp>,
    pub time_s: f64,
    /// Seconds of `time_s` the rank spent blocked (exposed); equals `time_s` for
    /// compute segments and sync-scheduled collectives.
    pub exposed_s: f64,
    pub payload_bytes: u64,
    pub cross_host_bytes: u64,
    pub intra_host_bytes: u64,
}

impl SegmentSample {
    /// A fully exposed compute/overhead sample.
    pub(crate) fn compute(label: &'static str, kind: SegmentKind, time_s: f64) -> Self {
        Self {
            label,
            kind,
            scope: CommScope::Local,
            op: None,
            time_s,
            exposed_s: time_s,
            payload_bytes: 0,
            cross_host_bytes: 0,
            intra_host_bytes: 0,
        }
    }

    /// A communication sample built from one completed op record and the measured
    /// seconds the rank blocked on it.
    pub(crate) fn from_record(
        label: &'static str,
        kind: SegmentKind,
        scope: CommScope,
        record: &OpRecord,
        blocked_s: f64,
    ) -> Self {
        Self {
            label,
            kind,
            scope,
            op: Some(record.op),
            time_s: record.elapsed_s,
            exposed_s: blocked_s.min(record.elapsed_s),
            payload_bytes: record.payload_bytes,
            cross_host_bytes: record.cross_host_bytes,
            intra_host_bytes: record.intra_host_bytes,
        }
    }
}

/// One logged wait of the executed schedule: which op, which world, how long
/// the rank was blocked.
pub(crate) struct WaitEntry {
    pub label: &'static str,
    pub kind: SegmentKind,
    pub scope: CommScope,
    pub blocked_s: f64,
}

/// Waits for `op`, logging the blocked seconds as the op's exposed time.
pub(crate) fn wait_logged<T>(
    op: dmt_comm::PendingOp<T>,
    waits: &mut Vec<WaitEntry>,
    label: &'static str,
    kind: SegmentKind,
    scope: CommScope,
) -> Result<T, super::config::DistributedError> {
    let (result, blocked_s) = op.wait_timed();
    waits.push(WaitEntry {
        label,
        kind,
        scope,
        blocked_s,
    });
    result.map_err(Into::into)
}

/// Zips one iteration's logged waits with the worlds' drained op records into
/// measured samples — **in wait order across worlds**, which is the graph's
/// schedule order. Within one world, records are FIFO (the helper thread runs
/// in issue order and the schedule waits in issue order), so each wait claims
/// the front of its scope's record queue. Consecutive same-labelled samples on
/// the same scope merge into one (e.g. the intra-host index + row-fetch pair
/// forms one "row fetch" segment; a micro-batched exchange folds into one
/// segment per pipeline wave), keeping the segment sequence schedule-invariant.
pub(crate) fn collect_comm_samples(
    comm: &mut RankComms,
    waits: &[WaitEntry],
) -> Vec<SegmentSample> {
    let mut global: VecDeque<OpRecord> = comm.global.drain_records().into();
    let mut intra: VecDeque<OpRecord> = comm.intra.drain_records().into();
    let mut peer: VecDeque<OpRecord> = comm.peer.drain_records().into();
    let mut samples: Vec<SegmentSample> = Vec::new();
    for wait in waits {
        let queue = match wait.scope {
            CommScope::Global => &mut global,
            CommScope::IntraHost => &mut intra,
            CommScope::Peer => &mut peer,
            CommScope::Local => unreachable!("local segments never wait on a collective"),
        };
        let record = queue
            .pop_front()
            .expect("every waited op leaves exactly one record");
        let sample =
            SegmentSample::from_record(wait.label, wait.kind, wait.scope, &record, wait.blocked_s);
        match samples.last_mut() {
            Some(last) if last.label == sample.label && last.scope == sample.scope => {
                last.time_s += sample.time_s;
                last.exposed_s += sample.exposed_s;
                last.payload_bytes += sample.payload_bytes;
                last.cross_host_bytes += sample.cross_host_bytes;
                last.intra_host_bytes += sample.intra_host_bytes;
                // The merged segment reports the round trip's final collective
                // (the row fetch of an index+rows pair), matching what a
                // bandwidth model should price the bulk bytes as.
                last.op = sample.op;
            }
            _ => samples.push(sample),
        }
    }
    debug_assert!(
        global.is_empty() && intra.is_empty() && peer.is_empty(),
        "every executed collective must be claimed by a wait"
    );
    samples
}

/// Assembles one iteration's full sample list: the compute segment (everything
/// not blocked in a wait and not the optimizer), the communication samples in
/// schedule order, and the optimizer/host segment.
pub(crate) fn iteration_samples(
    compute_label: &'static str,
    comm_samples: Vec<SegmentSample>,
    iter_s: f64,
    opt_s: f64,
) -> Vec<SegmentSample> {
    let exposed_s: f64 = comm_samples.iter().map(|s| s.exposed_s).sum();
    // Straggler waits beyond the transfer duration fold into compute, so
    // breakdown totals stay comparable across schedules on imbalanced ranks.
    let compute_s = (iter_s - exposed_s - opt_s).max(0.0);
    let mut samples = vec![SegmentSample::compute(
        compute_label,
        SegmentKind::Compute,
        compute_s,
    )];
    samples.extend(comm_samples);
    samples.push(SegmentSample::compute(
        "optimizer + host overhead",
        SegmentKind::Other,
        opt_s,
    ));
    samples
}

/// Per-rank result of a full run.
pub(crate) struct RankOutcome {
    /// Accumulated segment totals across iterations, in segment order.
    pub segments: Vec<SegmentSample>,
    pub losses: Vec<f64>,
    /// Per-iteration training AUC on this rank's local batches (`None` when a
    /// batch held a single class).
    pub aucs: Vec<Option<f64>>,
    /// Total wall-clock seconds this rank spent across all iterations.
    pub wall_s: f64,
    /// Per-iteration wall-clock seconds on this rank.
    pub iter_wall_s: Vec<f64>,
}

/// Folds one iteration's samples into the run accumulator.
pub(crate) fn accumulate(total: &mut Vec<SegmentSample>, iteration: Vec<SegmentSample>) {
    if total.is_empty() {
        *total = iteration;
        return;
    }
    debug_assert_eq!(
        total.len(),
        iteration.len(),
        "segment sequence must be static"
    );
    for (acc, s) in total.iter_mut().zip(iteration) {
        debug_assert_eq!(acc.label, s.label);
        acc.time_s += s.time_s;
        acc.exposed_s += s.exposed_s;
        acc.payload_bytes += s.payload_bytes;
        acc.cross_host_bytes += s.cross_host_bytes;
        acc.intra_host_bytes += s.intra_host_bytes;
    }
}

/// Mean-aggregates rank outcomes into the run's measured segments.
pub(crate) fn aggregate(
    mode: ExecutionMode,
    config: &DistributedConfig,
    outcomes: Vec<RankOutcome>,
) -> MeasuredRun {
    let world = outcomes.len();
    let iters = config.iterations as f64;
    let mut segments: Vec<MeasuredSegment> = outcomes[0]
        .segments
        .iter()
        .map(|s| MeasuredSegment {
            label: s.label.to_string(),
            kind: s.kind,
            exposed_fraction: 1.0,
            time_s: 0.0,
            payload_bytes: 0,
            cross_host_bytes: 0,
            intra_host_bytes: 0,
            scope: s.scope,
            op: s.op,
        })
        .collect();
    let mut exposed: Vec<f64> = vec![0.0; segments.len()];
    for outcome in &outcomes {
        for (i, (agg, s)) in segments.iter_mut().zip(&outcome.segments).enumerate() {
            // Wall time is set by the slowest rank; exposure follows it (the
            // slowest rank's blocked time is what lands on the critical path);
            // byte counts are per-rank means.
            let time = s.time_s / iters;
            if time > agg.time_s {
                agg.time_s = time;
                exposed[i] = s.exposed_s / iters;
            }
            agg.payload_bytes += s.payload_bytes;
            agg.cross_host_bytes += s.cross_host_bytes;
            agg.intra_host_bytes += s.intra_host_bytes;
        }
    }
    for (agg, exposed_s) in segments.iter_mut().zip(exposed) {
        agg.exposed_fraction = if agg.time_s > 0.0 {
            (exposed_s / agg.time_s).clamp(0.0, 1.0)
        } else {
            1.0
        };
    }
    let per_rank = |total: u64| (total as f64 / world as f64 / iters).round() as u64;
    for seg in &mut segments {
        seg.payload_bytes = per_rank(seg.payload_bytes);
        seg.cross_host_bytes = per_rank(seg.cross_host_bytes);
        seg.intra_host_bytes = per_rank(seg.intra_host_bytes);
    }
    let losses = (0..config.iterations)
        .map(|i| outcomes.iter().map(|o| o.losses[i]).sum::<f64>() / world as f64)
        .collect();
    let aucs = (0..config.iterations)
        .map(|i| {
            let defined: Vec<f64> = outcomes.iter().filter_map(|o| o.aucs[i]).collect();
            if defined.is_empty() {
                None
            } else {
                Some(defined.iter().sum::<f64>() / defined.len() as f64)
            }
        })
        .collect();
    let wall_s_per_iter = outcomes
        .iter()
        .map(|o| o.wall_s / iters)
        .fold(0.0f64, f64::max);
    // Per iteration, the wall time is set by the slowest rank of that iteration.
    let iter_wall_s = (0..config.iterations)
        .map(|i| {
            outcomes
                .iter()
                .map(|o| o.iter_wall_s[i])
                .fold(0.0f64, f64::max)
        })
        .collect();
    MeasuredRun {
        mode,
        schedule: config.schedule,
        wire: config.wire_precision,
        world_size: world,
        iterations: config.iterations,
        segments,
        losses,
        aucs,
        wall_s_per_iter,
        iter_wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comm_segment(exposed_fraction: f64, time_s: f64) -> MeasuredSegment {
        MeasuredSegment {
            label: "x".into(),
            kind: SegmentKind::EmbeddingComm,
            exposed_fraction,
            time_s,
            payload_bytes: 0,
            cross_host_bytes: 0,
            intra_host_bytes: 0,
            scope: CommScope::Global,
            op: Some(CommOp::AllToAll),
        }
    }

    #[test]
    fn hidden_fraction_complements_exposure() {
        let run = MeasuredRun {
            mode: ExecutionMode::Baseline,
            schedule: ScheduleMode::Pipelined,
            wire: Quantization::Fp32,
            world_size: 2,
            iterations: 1,
            segments: vec![comm_segment(1.0, 10e-3), comm_segment(0.0, 10e-3)],
            losses: vec![0.5],
            aucs: vec![Some(0.6)],
            wall_s_per_iter: 15e-3,
            iter_wall_s: vec![15e-3],
        };
        assert!((run.comm_time_s() - 20e-3).abs() < 1e-12);
        assert!((run.exposed_comm_s() - 10e-3).abs() < 1e-12);
        assert!((run.hidden_comm_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn fully_exposed_run_hides_nothing() {
        let run = MeasuredRun {
            mode: ExecutionMode::Baseline,
            schedule: ScheduleMode::Sync,
            wire: Quantization::Fp32,
            world_size: 2,
            iterations: 1,
            segments: vec![comm_segment(1.0, 5e-3)],
            losses: vec![0.5],
            aucs: vec![None],
            wall_s_per_iter: 5e-3,
            iter_wall_s: vec![5e-3],
        };
        assert_eq!(run.hidden_comm_fraction(), 0.0);
        // And a run with no comm at all reports zero rather than NaN.
        let empty = MeasuredRun {
            segments: Vec::new(),
            ..run
        };
        assert_eq!(empty.hidden_comm_fraction(), 0.0);
    }

    #[test]
    fn staggered_ranks_make_per_iteration_maxima_outsum_the_run_wall_time() {
        // Two ranks with the same 4 ms total whose slow iterations alternate:
        // each iteration's slowest rank took 3 ms, the run took 4 ms.
        let rank = |iter_wall_s: Vec<f64>| RankOutcome {
            segments: Vec::new(),
            losses: vec![0.5; 2],
            aucs: vec![None; 2],
            wall_s: iter_wall_s.iter().sum(),
            iter_wall_s,
        };
        let cluster =
            dmt_topology::ClusterTopology::new(dmt_topology::HardwareGeneration::A100, 1, 2)
                .unwrap();
        let config =
            DistributedConfig::quick(cluster, dmt_models::ModelArch::Dlrm).with_iterations(2);
        let run = aggregate(
            ExecutionMode::Dmt,
            &config,
            vec![rank(vec![3e-3, 1e-3]), rank(vec![1e-3, 3e-3])],
        );
        assert_eq!(run.iter_wall_s, vec![3e-3, 3e-3]);
        assert!((run.wall_s_per_iter - 2e-3).abs() < 1e-12);
        let summed: f64 = run.iter_wall_s.iter().sum();
        assert!(summed > run.wall_s_per_iter * run.iterations as f64 + 1e-3);
    }

    #[test]
    fn sample_exposure_is_clamped_to_the_transfer() {
        let record = OpRecord {
            op: CommOp::AllReduce,
            payload_bytes: 8,
            cross_host_bytes: 4,
            intra_host_bytes: 0,
            elapsed_s: 2e-3,
            issued_at_s: 0.0,
            completed_at_s: 2e-3,
        };
        // Blocked longer than the transfer (straggler wait): exposure caps at the
        // transfer duration — imbalance is not communication.
        let s = SegmentSample::from_record(
            "x",
            SegmentKind::DenseSync,
            CommScope::Global,
            &record,
            5e-3,
        );
        assert!((s.exposed_s - 2e-3).abs() < 1e-12);
        // Barely blocked (hidden transfer): exposure is the blocked time.
        let s = SegmentSample::from_record(
            "x",
            SegmentKind::DenseSync,
            CommScope::Global,
            &record,
            1e-4,
        );
        assert!((s.exposed_s - 1e-4).abs() < 1e-12);
    }
}
