//! Real thread-per-rank distributed training — the executable counterpart of
//! [`crate::simulation`].
//!
//! Where the simulator *predicts* iteration latency from an α–β cost model, this
//! module *runs* the two deployments for real on a [`dmt_comm::SharedMemoryComm`]
//! world mapped onto a [`dmt_topology::ClusterTopology`]:
//!
//! * **Baseline (hybrid parallel)** ([`baseline`]) — every embedding table is
//!   row-sharded across all `W` ranks; each iteration does a global index AlltoAll,
//!   a global row-fetch AlltoAll, local pooling, a replicated dense
//!   forward/backward, a global gradient AlltoAll back to the row owners and a
//!   global dense AllReduce.
//! * **DMT** ([`dmt`]) — features are partitioned into one tower per host. Each
//!   rank first sends its samples' indices to the same-slot rank of the owning
//!   tower's host (a *peer* AlltoAll, world = `num_hosts`), looks rows up from
//!   tables sharded across its *own host's* ranks (an *intra-host* AlltoAll, world
//!   = `gpus_per_host`), runs the tower module over the combined tower batch, and
//!   returns the *compressed* tower outputs through a second peer AlltoAll.
//!   Tower-module gradients synchronize intra-host; only the shared dense stack
//!   crosses the global world.
//!
//! Both deployments are **lowerings onto one iteration-graph IR**
//! ([`graph`]): each emits a typed DAG of ops ([`graph::OpKind`] — index
//! exchanges, row exchanges, tower compute, gradient synchronization,
//! quantize/dequantize codec steps) and a single scheduler — the per-rank
//! execution driver, list-scheduled via [`pipeline::StageGraph`] — executes any
//! graph under either schedule ([`config::ScheduleMode`]):
//!
//! * **Sync** — one micro-batch, every `claim` node directly after its `issue`
//!   node: blocking semantics, kept bit-identical (losses, byte counts) to the
//!   original hand-written engine as the semantic reference.
//! * **Pipelined** — the iteration is split into micro-batches and the lowering
//!   stretches each issue→wait distance over nonblocking collectives
//!   ([`dmt_comm::PendingOp`]): micro-batch `b+1`'s exchanges ride the comm helper
//!   threads while micro-batch `b` computes, and the gradient AllReduces overlap
//!   the embedding backward. The same bytes move; less of their time is exposed.
//!
//! **Wire quantization is real here**: at
//! [`config::DistributedConfig::wire_precision`] below FP32, the lowerings
//! insert `Quantize`/`Dequantize` nodes around every `f32` exchange and the
//! AllReduces run as quantized-wire collectives ([`dmt_comm::codec`]), so the
//! backend's byte accounting — and its fabric pacing — observes the reduced
//! traffic (~2× at fp16 on the quantizable segments), while index exchanges
//! stay at native `u64` width.
//!
//! Both schedules produce a *measured* [`measure::MeasuredRun`] whose segments
//! carry real wall-clock durations, *measured* per-op exposure (blocked-wait
//! seconds against the op's issue/complete timestamps) and exact per-link-class
//! byte counts, so a run can be laid side by side with the analytical simulator
//! ([`calibrate::predicted_timeline`] / [`calibrate::calibrate`]) — the built-in
//! check that the measured engine and the overlap-aware cost model agree on the
//! paper's core claim: DMT moves its bytes off the scale-out links *and* hides a
//! larger share of what remains.
//!
//! Determinism: collectives fold in rank order (see `dmt-comm`), every model
//! replica is seeded identically, per-rank work is single-threaded, and the
//! pipelined stage graph is a fixed list schedule, so two runs of the same
//! configuration produce bit-identical losses in either schedule.

pub mod baseline;
pub mod calibrate;
pub mod config;
pub mod dmt;
mod exchange;
mod executor;
pub mod export;
pub mod graph;
pub mod measure;
pub mod model;
pub mod pipeline;

pub use calibrate::{calibrate, predicted_timeline, CalibrationReport};
pub use config::{DistributedConfig, DistributedError, ExecutionMode, ScheduleMode};
pub use export::{ModelSnapshot, SnapshotError, TableWeights};
pub use graph::{IterationGraph, NodeMeta, OpKind, SpecNode};
pub use measure::{CommScope, MeasuredRun, MeasuredSegment};
pub use pipeline::{StageGraph, StageId};

use dmt_comm::{SharedMemoryBackend, SharedMemoryComm};
use dmt_core::naive_partition;
use dmt_metrics::trace;
use dmt_topology::ProcessGroup;
use measure::{aggregate, RankOutcome};

/// Communicator handles one rank carries into its thread.
pub struct RankComms {
    /// The world of every rank.
    pub global: SharedMemoryBackend,
    /// The world of this rank's host.
    pub intra: SharedMemoryBackend,
    /// The world of the same-slot ranks across hosts.
    pub peer: SharedMemoryBackend,
}

impl RankComms {
    /// The communicator of `scope`.
    ///
    /// # Panics
    ///
    /// Panics on [`CommScope::Local`], which names no communicator.
    pub(crate) fn world(&mut self, scope: CommScope) -> &mut SharedMemoryBackend {
        match scope {
            CommScope::Global => &mut self.global,
            CommScope::IntraHost => &mut self.intra,
            CommScope::Peer => &mut self.peer,
            CommScope::Local => panic!("local work rides no communicator"),
        }
    }
}

/// Runs the hybrid-parallel baseline for real and returns its measured profile.
///
/// # Errors
///
/// Returns a [`DistributedError`] if the configuration is invalid or a rank fails.
pub fn run_baseline(config: &DistributedConfig) -> Result<MeasuredRun, DistributedError> {
    run_mode(config, ExecutionMode::Baseline)
}

/// Runs DMT (one tower per host) for real and returns its measured profile.
///
/// # Errors
///
/// Returns a [`DistributedError`] if the configuration is invalid or a rank fails.
pub fn run_dmt(config: &DistributedConfig) -> Result<MeasuredRun, DistributedError> {
    run_mode(config, ExecutionMode::Dmt)
}

/// Runs `mode` for real and additionally exports a frozen [`ModelSnapshot`] of
/// the trained weights (dense stack, tower modules, full embedding tables
/// reassembled from every rank's shards) — the artifact `dmt-serve` loads to
/// answer queries.
///
/// # Errors
///
/// Returns a [`DistributedError`] if the configuration is invalid or a rank fails.
pub fn run_with_snapshot(
    config: &DistributedConfig,
    mode: ExecutionMode,
) -> Result<(MeasuredRun, ModelSnapshot), DistributedError> {
    let (run, snapshot) = run_mode_inner(config, mode, true)?;
    Ok((run, snapshot.expect("snapshot requested")))
}

/// Builds the per-rank communicator bundles for `cluster`. Trace lanes are
/// named `{lane_prefix}rank{r} {world}` and numbered from `first_lane`, so
/// deployments sharing a process (the serving stages reuse this) keep apart.
#[must_use]
pub fn build_comms(
    cluster: &dmt_topology::ClusterTopology,
    fabric: dmt_comm::FabricProfile,
    lane_prefix: &str,
    first_lane: u64,
) -> Vec<RankComms> {
    let global = SharedMemoryComm::for_group(cluster, &ProcessGroup::global(cluster), fabric);
    let mut intra: Vec<Option<SharedMemoryBackend>> =
        (0..cluster.world_size()).map(|_| None).collect();
    for group in ProcessGroup::intra_host_groups(cluster) {
        let handles = SharedMemoryComm::for_group(cluster, &group, fabric);
        for (rank, handle) in group.ranks().iter().zip(handles) {
            intra[rank.0] = Some(handle);
        }
    }
    let mut peer: Vec<Option<SharedMemoryBackend>> =
        (0..cluster.world_size()).map(|_| None).collect();
    for group in ProcessGroup::peer_groups(cluster) {
        let handles = SharedMemoryComm::for_group(cluster, &group, fabric);
        for (rank, handle) in group.ranks().iter().zip(handles) {
            peer[rank.0] = Some(handle);
        }
    }
    let comms: Vec<RankComms> = global
        .into_iter()
        .zip(intra)
        .zip(peer)
        .map(|((global, intra), peer)| RankComms {
            global,
            intra: intra.expect("intra-host groups cover every rank"),
            peer: peer.expect("peer groups cover every rank"),
        })
        .collect();
    // Every backend gets its own trace lane (tid) so overlapping transfers on
    // a rank's three worlds never share a timeline row — the Perfetto view and
    // the nest-or-disjoint validator both rely on per-backend sequential lanes.
    for (rank, comm) in comms.iter().enumerate() {
        let scopes: [(&SharedMemoryBackend, &str, &str, u64); 3] = [
            (&comm.global, "Global", "global", 0),
            (&comm.intra, "IntraHost", "intra-host", 1),
            (&comm.peer, "Peer", "peer", 2),
        ];
        for (backend, scope, lane, slot) in scopes {
            backend.set_trace_target(
                dmt_comm::TraceTarget {
                    track: trace::Track {
                        pid: trace::deployment::COMM,
                        tid: first_lane + (rank as u64) * 4 + slot,
                    },
                    rank: rank as u64,
                    scope,
                },
                &format!("{lane_prefix}rank{rank} {lane}"),
            );
        }
    }
    comms
}

fn run_mode(
    config: &DistributedConfig,
    mode: ExecutionMode,
) -> Result<MeasuredRun, DistributedError> {
    run_mode_inner(config, mode, false).map(|(run, _)| run)
}

type RankResult = Result<(RankOutcome, Option<export::RankExport>), DistributedError>;

fn run_mode_inner(
    config: &DistributedConfig,
    mode: ExecutionMode,
    want_snapshot: bool,
) -> Result<(MeasuredRun, Option<ModelSnapshot>), DistributedError> {
    if config.local_batch == 0 || config.iterations == 0 {
        return Err(DistributedError::Config {
            reason: "local_batch and iterations must be positive".into(),
        });
    }
    if mode == ExecutionMode::Dmt {
        // Validate the partition up front so every rank either runs or none does.
        let _ = naive_partition(config.schema.num_sparse(), config.num_towers())?;
    }
    let comms = build_comms(&config.cluster, config.fabric, "", 0);
    let world = comms.len();
    let mut outcomes: Vec<Option<RankResult>> = (0..world).map(|_| None).collect();
    let trace_scope = trace::current_scope();
    std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(world);
        for (rank, comm) in comms.into_iter().enumerate() {
            let config = config.clone();
            joins.push(scope.spawn(move || {
                let mut comm = comm;
                trace::enter_scope(trace_scope);
                // Name this rank's timeline lane and remember it in TLS so the
                // executor's iteration/node spans land on it (cheap no-op setup
                // when tracing never turns on).
                trace::register_thread(
                    "trainer",
                    &format!("rank{rank}"),
                    trace::Track {
                        pid: trace::deployment::TRAINER,
                        tid: rank as u64,
                    },
                );
                let outcome = match mode {
                    ExecutionMode::Baseline => {
                        baseline::baseline_rank(&config, rank, &mut comm, want_snapshot)
                    }
                    ExecutionMode::Dmt => dmt::dmt_rank(&config, rank, &mut comm, want_snapshot),
                };
                if outcome.is_err() {
                    // Peers may be blocked in a collective waiting for this rank;
                    // fail them fast instead of hanging the run (panics poison the
                    // worlds automatically via Drop).
                    comm.global.abort();
                    comm.intra.abort();
                    comm.peer.abort();
                }
                outcome
            }));
        }
        for (rank, (slot, join)) in outcomes.iter_mut().zip(joins).enumerate() {
            *slot = Some(join.join().unwrap_or_else(|panic| {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(ToString::to_string)
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "rank thread panicked".into());
                Err(DistributedError::Rank { rank, message })
            }));
        }
    });
    let outcomes: Vec<RankResult> = outcomes
        .into_iter()
        .map(|o| o.expect("every rank joined"))
        .collect();
    // Prefer the root cause over the "aborted" cascades it triggers on peer ranks.
    if outcomes.iter().any(Result::is_err) {
        let is_cascade = |e: &DistributedError| {
            matches!(e, DistributedError::Rank { message, .. } if message.contains("aborted"))
                || matches!(e, DistributedError::Comm(dmt_comm::CommError::Aborted))
        };
        let mut errors: Vec<DistributedError> =
            outcomes.into_iter().filter_map(Result::err).collect();
        let root = errors
            .iter()
            .position(|e| !is_cascade(e))
            .unwrap_or_default();
        return Err(errors.swap_remove(root));
    }
    let mut exports = Vec::with_capacity(world);
    let outcomes: Vec<RankOutcome> = outcomes
        .into_iter()
        .map(|o| {
            let (outcome, export) = o.expect("errors handled above");
            exports.extend(export);
            outcome
        })
        .collect();
    let snapshot = if want_snapshot {
        Some(export::assemble(mode, config, exports)?)
    } else {
        None
    };
    Ok((aggregate(mode, config, outcomes), snapshot))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_comm::FabricProfile;
    use dmt_models::ModelArch;
    use dmt_topology::{ClusterTopology, HardwareGeneration};

    /// The acceptance-scale cluster: 8 ranks as 2 hosts x 4 GPUs.
    fn cluster_2x4() -> ClusterTopology {
        ClusterTopology::new(HardwareGeneration::A100, 2, 4).unwrap()
    }

    fn quick(arch: ModelArch) -> DistributedConfig {
        DistributedConfig::quick(cluster_2x4(), arch)
    }

    #[test]
    fn baseline_8_ranks_trains_and_learns() {
        let cfg = quick(ModelArch::Dlrm)
            .with_iterations(10)
            .with_local_batch(128);
        let run = run_baseline(&cfg).unwrap();
        assert_eq!(run.world_size, 8);
        assert_eq!(run.losses.len(), 10);
        let early: f64 = run.losses[..3].iter().sum::<f64>() / 3.0;
        let late: f64 = run.losses[7..].iter().sum::<f64>() / 3.0;
        assert!(late < early, "loss should fall: {early} -> {late}");
    }

    #[test]
    fn dmt_8_ranks_trains_and_learns() {
        let cfg = quick(ModelArch::Dlrm)
            .with_iterations(10)
            .with_local_batch(128);
        let run = run_dmt(&cfg).unwrap();
        assert_eq!(run.world_size, 8);
        let early: f64 = run.losses[..3].iter().sum::<f64>() / 3.0;
        let late: f64 = run.losses[7..].iter().sum::<f64>() / 3.0;
        assert!(late < early, "loss should fall: {early} -> {late}");
    }

    #[test]
    fn dcn_arch_runs_in_both_modes() {
        let cfg = quick(ModelArch::Dcn).with_iterations(2);
        assert!(run_baseline(&cfg)
            .unwrap()
            .losses
            .iter()
            .all(|l| l.is_finite()));
        assert!(run_dmt(&cfg).unwrap().losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn runs_are_bit_deterministic() {
        // Thread scheduling must not leak into the numerics: two runs of the same
        // configuration produce identical loss trajectories — in both schedules.
        for schedule in [ScheduleMode::Sync, ScheduleMode::Pipelined] {
            let cfg = quick(ModelArch::Dlrm)
                .with_iterations(3)
                .with_schedule(schedule);
            for run_fn in [run_baseline, run_dmt] {
                let a = run_fn(&cfg).unwrap();
                let b = run_fn(&cfg).unwrap();
                assert_eq!(a.losses, b.losses, "{schedule:?}");
                for (sa, sb) in a.segments.iter().zip(&b.segments) {
                    assert_eq!(sa.payload_bytes, sb.payload_bytes, "{}", sa.label);
                    assert_eq!(sa.cross_host_bytes, sb.cross_host_bytes, "{}", sa.label);
                }
            }
        }
    }

    /// The regression fixture for the sync schedule: loss bit patterns and
    /// per-segment byte counts captured from the pre-refactor engine (commit
    /// 8535062) on the quick 2x4 DLRM config with 3 iterations. The sync schedule
    /// must reproduce them bit-for-bit — it *is* the old engine.
    ///
    /// Loss bits repinned once when the dense GEMM kernels moved to FMA
    /// (fused multiply-add contracts `a*b+c` into one rounding, so every
    /// matmul partial sum shifts by ≤1 ulp); the communication byte counts
    /// are index-derived and did not move.
    #[test]
    fn sync_schedule_is_bit_identical_to_the_prerefactor_engine() {
        let cfg = quick(ModelArch::Dlrm).with_iterations(3);
        assert_eq!(cfg.schedule, ScheduleMode::Sync);

        let baseline = run_baseline(&cfg).unwrap();
        let golden_losses: [u64; 3] = [0x3fe53a78959a3fd6, 0x3fe4ca2cd3da8d66, 0x3fe4b56a7174eaad];
        for (loss, golden) in baseline.losses.iter().zip(golden_losses) {
            assert_eq!(loss.to_bits(), golden, "baseline loss drifted");
        }
        let golden_bytes: &[(&str, u64, u64, u64)] = &[
            ("dense + sparse compute", 0, 0, 0),
            ("feature distribution AlltoAll", 9120, 4545, 3399),
            ("embedding row fetch AlltoAll (fwd)", 72963, 36360, 27189),
            ("embedding gradient AlltoAll (bwd)", 72963, 36360, 27189),
            ("dense gradient AllReduce", 106_564, 46622, 139_865),
            ("optimizer + host overhead", 0, 0, 0),
        ];
        assert_eq!(baseline.segments.len(), golden_bytes.len());
        for (seg, (label, payload, cross, intra)) in baseline.segments.iter().zip(golden_bytes) {
            assert_eq!(seg.label, *label);
            assert_eq!(seg.payload_bytes, *payload, "{label}");
            assert_eq!(seg.cross_host_bytes, *cross, "{label}");
            assert_eq!(seg.intra_host_bytes, *intra, "{label}");
        }

        let dmt = run_dmt(&cfg).unwrap();
        let golden_losses: [u64; 3] = [0x3fe6975fdee66728, 0x3fe4d6c263dd62f0, 0x3fe549b11f57b8a7];
        for (loss, golden) in dmt.losses.iter().zip(golden_losses) {
            assert_eq!(loss.to_bits(), golden, "dmt loss drifted");
        }
        let golden_bytes: &[(&str, u64, u64, u64)] = &[
            ("dense + tower-module compute", 0, 0, 0),
            ("peer index distribution AlltoAll", 26624, 13312, 0),
            ("intra-host row fetch AlltoAll (fwd)", 73602, 0, 55503),
            ("peer tower-output AlltoAll (fwd)", 8192, 4096, 0),
            ("peer tower-grad AlltoAll (bwd)", 8192, 4096, 0),
            ("intra-host gradient AlltoAll (bwd)", 65424, 0, 49336),
            ("tower-module intra-host AllReduce", 13376, 0, 20064),
            ("dense gradient AllReduce", 17476, 7646, 22937),
            ("optimizer + host overhead", 0, 0, 0),
        ];
        assert_eq!(dmt.segments.len(), golden_bytes.len());
        for (seg, (label, payload, cross, intra)) in dmt.segments.iter().zip(golden_bytes) {
            assert_eq!(seg.label, *label);
            assert_eq!(seg.payload_bytes, *payload, "{label}");
            assert_eq!(seg.cross_host_bytes, *cross, "{label}");
            assert_eq!(seg.intra_host_bytes, *intra, "{label}");
        }
    }

    /// What the exchange pin below compares for one run: loss bits, every
    /// measured segment's `(label, payload, cross-host, intra-host)` bytes and
    /// rank 0's iteration-0 node labels in execution order.
    type Observed = (Vec<u64>, Vec<(String, u64, u64, u64)>, Vec<String>);

    /// Runs `cfg` under `mode` with the trace recorder on. The recorder is
    /// scoped to the calling thread and the rank threads it spawns, so sibling
    /// tests running in parallel never land in this capture.
    fn observe(cfg: &DistributedConfig, mode: ExecutionMode) -> Observed {
        trace::set_tracing(true);
        let run = run_mode(cfg, mode);
        trace::set_tracing(false);
        let events = trace::take_events();
        let run = run.unwrap();
        let rank0 = trace::Track {
            pid: trace::deployment::TRAINER,
            tid: 0,
        };
        let iter0_end = events
            .iter()
            .find(|e| e.cat == trace::cat::ITER && e.track == rank0 && e.name == "iteration 0")
            .map(|e| e.ts_s + e.dur_s)
            .expect("rank 0 traced iteration 0");
        let mut nodes: Vec<&trace::TraceEvent> = events
            .iter()
            .filter(|e| e.cat == trace::cat::NODE && e.track == rank0 && e.ts_s <= iter0_end)
            .collect();
        nodes.sort_by(|a, b| a.ts_s.total_cmp(&b.ts_s));
        (
            run.losses.iter().map(|l| l.to_bits()).collect(),
            run.segments
                .iter()
                .map(|s| {
                    (
                        s.label.clone(),
                        s.payload_bytes,
                        s.cross_host_bytes,
                        s.intra_host_bytes,
                    )
                })
                .collect(),
            nodes.iter().map(|e| e.name.clone()).collect(),
        )
    }

    /// Pins what the sync fp32 fixture above cannot see: both deployments under
    /// both schedules (two micro-batches when pipelined) at every sub-fp32 wire
    /// precision, plus pipelined fp32. Per case it holds the loss bits of two
    /// iterations, every measured segment's bytes and the executed node-label
    /// sequence of rank 0's first iteration — so the lowered graph, its codec
    /// nodes and their collectives are fixed, not just their totals.
    #[test]
    fn every_schedule_and_wire_reproduces_the_recorded_graph() {
        use dmt_commsim::Quantization::{self, Fp16, Fp32, Int8};
        use ExecutionMode::{Baseline, Dmt};
        use ScheduleMode::{Pipelined, Sync};
        type Case = (
            ExecutionMode,
            ScheduleMode,
            Quantization,
            [u64; 2],
            &'static [(&'static str, u64, u64, u64)],
            &'static [&'static str],
        );
        const BASELINE_SYNC: &[&str] = &[
            "route + issue index AlltoAll",
            "claim indices + answer",
            "quantize rows",
            "issue row fetch",
            "claim row fetch",
            "dequantize rows",
            "pool + dense fwd/bwd",
            "quantize embedding grads",
            "issue embedding grads",
            "claim embedding grads",
            "dequantize embedding grads",
            "merge embedding grads",
            "issue dense AllReduce",
            "claim dense AllReduce",
        ];
        const BASELINE_PIPELINED_FP32: &[&str] = &[
            "route + issue index AlltoAll",
            "route + issue index AlltoAll",
            "claim indices + answer",
            "issue row fetch",
            "claim indices + answer",
            "issue row fetch",
            "claim row fetch",
            "pool + dense fwd/bwd",
            "issue embedding grads",
            "claim row fetch",
            "pool + dense fwd/bwd",
            "issue embedding grads",
            "issue dense AllReduce",
            "claim embedding grads",
            "merge embedding grads",
            "claim embedding grads",
            "merge embedding grads",
            "claim dense AllReduce",
        ];
        const BASELINE_PIPELINED: &[&str] = &[
            "route + issue index AlltoAll",
            "route + issue index AlltoAll",
            "claim indices + answer",
            "quantize rows",
            "issue row fetch",
            "claim indices + answer",
            "quantize rows",
            "issue row fetch",
            "claim row fetch",
            "dequantize rows",
            "pool + dense fwd/bwd",
            "quantize embedding grads",
            "issue embedding grads",
            "claim row fetch",
            "dequantize rows",
            "pool + dense fwd/bwd",
            "quantize embedding grads",
            "issue embedding grads",
            "issue dense AllReduce",
            "claim embedding grads",
            "dequantize embedding grads",
            "merge embedding grads",
            "claim embedding grads",
            "dequantize embedding grads",
            "merge embedding grads",
            "claim dense AllReduce",
        ];
        const DMT_SYNC: &[&str] = &[
            "encode + issue peer index AlltoAll",
            "claim peer indices + route intra",
            "claim intra indices + answer",
            "quantize intra rows",
            "issue intra rows",
            "claim intra rows",
            "dequantize intra rows",
            "pool + tower fwd",
            "quantize peer outputs",
            "issue peer outputs",
            "claim peer outputs",
            "dequantize peer outputs",
            "dense fwd/bwd",
            "quantize peer grads",
            "issue peer grads",
            "claim peer grads",
            "dequantize peer grads",
            "tower bwd",
            "quantize intra grads",
            "issue intra grads",
            "claim intra grads",
            "dequantize intra grads",
            "merge intra grads",
            "issue tower AllReduce",
            "claim tower AllReduce",
            "issue dense AllReduce",
            "claim dense AllReduce",
        ];
        const DMT_PIPELINED_FP32: &[&str] = &[
            "encode + issue peer index AlltoAll",
            "encode + issue peer index AlltoAll",
            "claim peer indices + route intra",
            "claim intra indices + answer",
            "issue intra rows",
            "claim intra rows",
            "pool + tower fwd",
            "issue peer outputs",
            "claim peer indices + route intra",
            "claim intra indices + answer",
            "issue intra rows",
            "claim intra rows",
            "pool + tower fwd",
            "issue peer outputs",
            "claim peer outputs",
            "dense fwd/bwd",
            "issue peer grads",
            "claim peer outputs",
            "dense fwd/bwd",
            "issue peer grads",
            "claim peer grads",
            "tower bwd",
            "issue intra grads",
            "claim peer grads",
            "tower bwd",
            "issue intra grads",
            "issue tower AllReduce",
            "issue dense AllReduce",
            "claim intra grads",
            "merge intra grads",
            "claim intra grads",
            "merge intra grads",
            "claim tower AllReduce",
            "claim dense AllReduce",
        ];
        const DMT_PIPELINED: &[&str] = &[
            "encode + issue peer index AlltoAll",
            "encode + issue peer index AlltoAll",
            "claim peer indices + route intra",
            "claim intra indices + answer",
            "quantize intra rows",
            "issue intra rows",
            "claim intra rows",
            "dequantize intra rows",
            "pool + tower fwd",
            "quantize peer outputs",
            "issue peer outputs",
            "claim peer indices + route intra",
            "claim intra indices + answer",
            "quantize intra rows",
            "issue intra rows",
            "claim intra rows",
            "dequantize intra rows",
            "pool + tower fwd",
            "quantize peer outputs",
            "issue peer outputs",
            "claim peer outputs",
            "dequantize peer outputs",
            "dense fwd/bwd",
            "quantize peer grads",
            "issue peer grads",
            "claim peer outputs",
            "dequantize peer outputs",
            "dense fwd/bwd",
            "quantize peer grads",
            "issue peer grads",
            "claim peer grads",
            "dequantize peer grads",
            "tower bwd",
            "quantize intra grads",
            "issue intra grads",
            "claim peer grads",
            "dequantize peer grads",
            "tower bwd",
            "quantize intra grads",
            "issue intra grads",
            "issue tower AllReduce",
            "issue dense AllReduce",
            "claim intra grads",
            "dequantize intra grads",
            "merge intra grads",
            "claim intra grads",
            "dequantize intra grads",
            "merge intra grads",
            "claim tower AllReduce",
            "claim dense AllReduce",
        ];
        let cases: [Case; 10] = [
            (
                Baseline,
                Sync,
                Fp16,
                [0x3fe53a7a44eb78a8, 0x3fe4ca218e9082d6],
                &[
                    ("dense + sparse compute", 0, 0, 0),
                    ("feature distribution AlltoAll", 9116, 4517, 3419),
                    ("embedding row fetch AlltoAll (fwd)", 36462, 18066, 13676),
                    ("embedding gradient AlltoAll (bwd)", 36462, 18066, 13676),
                    ("dense gradient AllReduce", 53284, 23312, 69935),
                    ("optimizer + host overhead", 0, 0, 0),
                ],
                BASELINE_SYNC,
            ),
            (
                Baseline,
                Sync,
                Int8,
                [0x3fe53a89d255c2b8, 0x3fe4c64d1ca5df02],
                &[
                    ("dense + sparse compute", 0, 0, 0),
                    ("feature distribution AlltoAll", 9116, 4517, 3419),
                    ("embedding row fetch AlltoAll (fwd)", 18263, 9049, 6850),
                    ("embedding gradient AlltoAll (bwd)", 18263, 9049, 6850),
                    ("dense gradient AllReduce", 26648, 11659, 34976),
                    ("optimizer + host overhead", 0, 0, 0),
                ],
                BASELINE_SYNC,
            ),
            (
                Baseline,
                Pipelined,
                Fp32,
                [0x3fe53a78959a3fd6, 0x3fe4ca2cd500f136],
                &[
                    ("dense + sparse compute", 0, 0, 0),
                    ("feature distribution AlltoAll", 10294, 5153, 3823),
                    ("embedding row fetch AlltoAll (fwd)", 82352, 41224, 30580),
                    ("embedding gradient AlltoAll (bwd)", 82352, 41224, 30580),
                    ("dense gradient AllReduce", 106564, 46622, 139865),
                    ("optimizer + host overhead", 0, 0, 0),
                ],
                BASELINE_PIPELINED_FP32,
            ),
            (
                Baseline,
                Pipelined,
                Fp16,
                [0x3fe53a7a44eb78a8, 0x3fe4ca2118e2333d],
                &[
                    ("dense + sparse compute", 0, 0, 0),
                    ("feature distribution AlltoAll", 10294, 5153, 3823),
                    ("embedding row fetch AlltoAll (fwd)", 41176, 20612, 15290),
                    ("embedding gradient AlltoAll (bwd)", 41176, 20612, 15290),
                    ("dense gradient AllReduce", 53284, 23312, 69935),
                    ("optimizer + host overhead", 0, 0, 0),
                ],
                BASELINE_PIPELINED,
            ),
            (
                Baseline,
                Pipelined,
                Int8,
                [0x3fe53a8d3a67350d, 0x3fe4c62d3d3883d9],
                &[
                    ("dense + sparse compute", 0, 0, 0),
                    ("feature distribution AlltoAll", 10294, 5153, 3823),
                    ("embedding row fetch AlltoAll (fwd)", 20652, 10338, 7669),
                    ("embedding gradient AlltoAll (bwd)", 20652, 10338, 7669),
                    ("dense gradient AllReduce", 26648, 11659, 34976),
                    ("optimizer + host overhead", 0, 0, 0),
                ],
                BASELINE_PIPELINED,
            ),
            (
                Dmt,
                Sync,
                Fp16,
                [0x3fe6975f141a97c6, 0x3fe4d680c9c40c7f],
                &[
                    ("dense + tower-module compute", 0, 0, 0),
                    ("peer index distribution AlltoAll", 26624, 13312, 0),
                    ("intra-host row fetch AlltoAll (fwd)", 40830, 0, 30768),
                    ("peer tower-output AlltoAll (fwd)", 4096, 2048, 0),
                    ("peer tower-grad AlltoAll (bwd)", 4096, 2048, 0),
                    ("intra-host gradient AlltoAll (bwd)", 32664, 0, 24614),
                    ("tower-module intra-host AllReduce", 6688, 0, 10032),
                    ("dense gradient AllReduce", 8740, 3824, 11471),
                    ("optimizer + host overhead", 0, 0, 0),
                ],
                DMT_SYNC,
            ),
            (
                Dmt,
                Sync,
                Int8,
                [0x3fe69750d483f453, 0x3fe4d7828a5703d8],
                &[
                    ("dense + tower-module compute", 0, 0, 0),
                    ("peer index distribution AlltoAll", 26624, 13312, 0),
                    ("intra-host row fetch AlltoAll (fwd)", 24514, 0, 18473),
                    ("peer tower-output AlltoAll (fwd)", 2056, 1028, 0),
                    ("peer tower-grad AlltoAll (bwd)", 2056, 1028, 0),
                    ("intra-host gradient AlltoAll (bwd)", 16348, 0, 12319),
                    ("tower-module intra-host AllReduce", 3348, 0, 5022),
                    ("dense gradient AllReduce", 4376, 1915, 5744),
                    ("optimizer + host overhead", 0, 0, 0),
                ],
                DMT_SYNC,
            ),
            (
                Dmt,
                Pipelined,
                Fp32,
                [0x3fe6975fdee66727, 0x3fe4d6c262ca539b],
                &[
                    ("dense + tower-module compute", 0, 0, 0),
                    ("peer index distribution AlltoAll", 13312, 6656, 0),
                    ("intra-host row fetch AlltoAll (fwd)", 41486, 0, 31311),
                    ("peer index distribution AlltoAll", 13312, 6656, 0),
                    ("intra-host row fetch AlltoAll (fwd)", 41715, 0, 31487),
                    ("peer tower-output AlltoAll (fwd)", 8192, 4096, 0),
                    ("peer tower-grad AlltoAll (bwd)", 8192, 4096, 0),
                    ("intra-host gradient AlltoAll (bwd)", 73956, 0, 55820),
                    ("tower-module intra-host AllReduce", 13376, 0, 20064),
                    ("dense gradient AllReduce", 17476, 7646, 22937),
                    ("optimizer + host overhead", 0, 0, 0),
                ],
                DMT_PIPELINED_FP32,
            ),
            (
                Dmt,
                Pipelined,
                Fp16,
                [0x3fe6975f141a97c6, 0x3fe4d67fdfe5ed87],
                &[
                    ("dense + tower-module compute", 0, 0, 0),
                    ("peer index distribution AlltoAll", 13312, 6656, 0),
                    ("intra-host row fetch AlltoAll (fwd)", 23048, 0, 17395),
                    ("peer index distribution AlltoAll", 13312, 6656, 0),
                    ("intra-host row fetch AlltoAll (fwd)", 23175, 0, 17493),
                    ("peer tower-output AlltoAll (fwd)", 4096, 2048, 0),
                    ("peer tower-grad AlltoAll (bwd)", 4096, 2048, 0),
                    ("intra-host gradient AlltoAll (bwd)", 36978, 0, 27910),
                    ("tower-module intra-host AllReduce", 6688, 0, 10032),
                    ("dense gradient AllReduce", 8740, 3824, 11471),
                    ("optimizer + host overhead", 0, 0, 0),
                ],
                DMT_PIPELINED,
            ),
            (
                Dmt,
                Pipelined,
                Int8,
                [0x3fe697526fc6dea9, 0x3fe4d56f4532e9c6],
                &[
                    ("dense + tower-module compute", 0, 0, 0),
                    ("peer index distribution AlltoAll", 13312, 6656, 0),
                    ("intra-host row fetch AlltoAll (fwd)", 13845, 0, 10449),
                    ("peer index distribution AlltoAll", 13312, 6656, 0),
                    ("intra-host row fetch AlltoAll (fwd)", 13921, 0, 10508),
                    ("peer tower-output AlltoAll (fwd)", 2064, 1032, 0),
                    ("peer tower-grad AlltoAll (bwd)", 2064, 1032, 0),
                    ("intra-host gradient AlltoAll (bwd)", 18521, 0, 13979),
                    ("tower-module intra-host AllReduce", 3348, 0, 5022),
                    ("dense gradient AllReduce", 4376, 1915, 5744),
                    ("optimizer + host overhead", 0, 0, 0),
                ],
                DMT_PIPELINED,
            ),
        ];
        for (mode, schedule, wire, losses, segments, nodes) in cases {
            let cfg = quick(ModelArch::Dlrm)
                .with_iterations(2)
                .with_schedule(schedule)
                .with_micro_batches(2)
                .with_wire_precision(wire);
            let (got_losses, got_segments, got_nodes) = observe(&cfg, mode);
            let case = format!("{mode:?} {schedule:?} {wire}");
            assert_eq!(got_losses, losses, "{case}: loss bits");
            let got_segments: Vec<(&str, u64, u64, u64)> = got_segments
                .iter()
                .map(|(label, payload, cross, intra)| (label.as_str(), *payload, *cross, *intra))
                .collect();
            assert_eq!(got_segments, segments, "{case}: segment bytes");
            assert_eq!(got_nodes, nodes, "{case}: rank 0 node labels");
        }
    }

    /// Loss bits of the DCN dense stack (the `CrossNet` backward inside
    /// `DenseStack`), which the DLRM golden fixture above never reaches.
    #[test]
    fn dcn_sync_losses_match_the_recorded_bits() {
        let cfg = quick(ModelArch::Dcn).with_iterations(3);
        let baseline: [u64; 3] = [0x3fe6cc4cc32ab1d6, 0x3fe4a93e76db21a8, 0x3fe549dd5c1693d8];
        let dmt: [u64; 3] = [0x3fe6b3cb35e0151d, 0x3fe4e9fa589ff084, 0x3fe488a1f234eb16];
        for (run, golden) in [
            (run_baseline(&cfg).unwrap(), baseline),
            (run_dmt(&cfg).unwrap(), dmt),
        ] {
            let bits: Vec<u64> = run.losses.iter().map(|l| l.to_bits()).collect();
            assert_eq!(bits, golden, "{:?} DCN loss drifted", run.mode);
        }
    }

    #[test]
    fn pipelined_schedule_trains_and_learns() {
        let cfg = quick(ModelArch::Dlrm)
            .with_iterations(10)
            .with_local_batch(128)
            .with_schedule(ScheduleMode::Pipelined);
        for run_fn in [run_baseline, run_dmt] {
            let run = run_fn(&cfg).unwrap();
            assert_eq!(run.schedule, ScheduleMode::Pipelined);
            let early: f64 = run.losses[..3].iter().sum::<f64>() / 3.0;
            let late: f64 = run.losses[7..].iter().sum::<f64>() / 3.0;
            assert!(late < early, "loss should fall: {early} -> {late}");
        }
    }

    /// SPTT is semantic-preserving, so the pipelined schedule trains the same
    /// model as sync: per-iteration losses agree up to the reassociation of
    /// micro-batch gradient sums, for even (128) and uneven (129) splits. Every
    /// micro-batch's tower backward must read its own forward's activations.
    #[test]
    fn pipelined_losses_match_sync() {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 2).unwrap();
        for local_batch in [128, 129] {
            let sync = DistributedConfig::quick(cluster.clone(), ModelArch::Dlrm)
                .with_iterations(5)
                .with_local_batch(local_batch);
            let pipelined = sync.clone().with_schedule(ScheduleMode::Pipelined);
            for run_fn in [run_baseline, run_dmt] {
                let a = run_fn(&sync).unwrap();
                let b = run_fn(&pipelined).unwrap();
                assert_eq!(a.losses.len(), b.losses.len());
                for (i, (x, y)) in a.losses.iter().zip(&b.losses).enumerate() {
                    assert!(
                        (x - y).abs() < 1e-6,
                        "{:?} batch {local_batch} iteration {i}: sync {x} vs pipelined {y}",
                        a.mode
                    );
                }
            }
        }
    }

    #[test]
    fn pipelined_moves_the_same_bytes_as_sync() {
        // Overlap hides time, not traffic: per-iteration byte totals match the
        // sync schedule exactly (the micro-batched exchanges partition the same
        // requests; only dedup *within* vs *across* micro-batches could differ,
        // and the synthetic batches keep that stable here).
        let cfg = quick(ModelArch::Dlrm).with_iterations(2);
        let pipelined = cfg.clone().with_schedule(ScheduleMode::Pipelined);
        for run_fn in [run_baseline, run_dmt] {
            let sync = run_fn(&cfg).unwrap();
            let pipe = run_fn(&pipelined).unwrap();
            // Cross-host totals stay in the same ballpark (micro-batch splitting
            // changes request dedup slightly) and the link-class *ordering* is
            // identical.
            let ratio = pipe.cross_host_bytes() as f64 / sync.cross_host_bytes().max(1) as f64;
            assert!((0.8..=1.25).contains(&ratio), "cross-host ratio {ratio}");
        }
    }

    /// The fabric slowdown at which `unthrottled`'s paced wire time per
    /// iteration is `multiple` × its compute: every segment's bytes priced at
    /// `cluster`'s own link bandwidths (the slower of its two link classes),
    /// against the compute that run measured on this host.
    fn slowdown_for(cluster: &ClusterTopology, unthrottled: &MeasuredRun, multiple: f64) -> f64 {
        let links = FabricProfile::from_cluster(cluster, 1.0);
        let wire_s: f64 = unthrottled
            .segments
            .iter()
            .map(|s| {
                let cross = s.cross_host_bytes as f64 / links.cross_host_bytes_per_sec;
                let intra = s.intra_host_bytes as f64 / links.intra_host_bytes_per_sec;
                cross.max(intra)
            })
            .sum();
        let compute_s: f64 = unthrottled
            .segments
            .iter()
            .filter(|s| s.kind == dmt_commsim::SegmentKind::Compute)
            .map(|s| s.time_s)
            .sum();
        multiple * compute_s / wire_s
    }

    /// One schedule's repeated runs, as the overlap test reads them: the
    /// fastest run's wall time and the hidden-comm fraction averaged over all.
    #[derive(Debug)]
    struct Overlap {
        wall_s: f64,
        hidden: f64,
    }

    impl Overlap {
        fn of(runs: &[MeasuredRun]) -> Self {
            Self {
                wall_s: runs
                    .iter()
                    .map(|r| r.wall_s_per_iter)
                    .fold(f64::INFINITY, f64::min),
                hidden: runs
                    .iter()
                    .map(MeasuredRun::hidden_comm_fraction)
                    .sum::<f64>()
                    / runs.len() as f64,
            }
        }
    }

    #[test]
    fn pipelined_hides_communication_under_a_throttled_fabric() {
        // The tentpole claim, in miniature: with the fabric paced so transfers
        // take real time, the pipelined schedule must (a) finish iterations
        // faster than sync and (b) expose a smaller fraction of its comm — and
        // DMT must hide a larger fraction than the baseline (its three
        // independent worlds overlap each other, not just the compute).
        // The repo benchmark's `train_dmt_paced` reports the same effect as
        // `comm.hidden_fraction`.
        //
        // The operating point follows the host: each deployment's fabric is
        // slowed until its paced comm is 3/4 of the compute an unthrottled
        // sync run of the same config measures here, so a slower (or busier)
        // host gets a slower fabric instead of too little comm to hide. Paced
        // comm at or above compute leaves the baseline too little compute to
        // hide behind — it overlaps transfers with its dense compute only,
        // a part of the measured total (its split exchanges then cost more
        // than they hide); well below, there is too little comm for the gain
        // to clear the noise.
        // Release runs alternate the schedules three times: the host clock
        // flips between states 1.27x apart for seconds at a time, so wall time
        // is each schedule's fastest run and hidden fractions are means.
        let cluster = cluster_2x4();
        let unthrottled = DistributedConfig::quick(cluster.clone(), ModelArch::Dlrm)
            .with_iterations(5)
            .with_local_batch(768);
        let reps = if cfg!(debug_assertions) { 1 } else { 3 };
        let mut overlaps = Vec::new();
        for run_fn in [run_baseline, run_dmt] {
            let measured = run_fn(&unthrottled).unwrap();
            let slowdown = slowdown_for(&cluster, &measured, 0.75);
            let sync_cfg = unthrottled
                .clone()
                .with_fabric(FabricProfile::from_cluster(&cluster, slowdown));
            let pipe_cfg = sync_cfg.clone().with_schedule(ScheduleMode::Pipelined);
            let (mut sync, mut pipe) = (Vec::new(), Vec::new());
            for _ in 0..reps {
                sync.push(run_fn(&sync_cfg).unwrap());
                pipe.push(run_fn(&pipe_cfg).unwrap());
            }
            overlaps.push((Overlap::of(&sync), Overlap::of(&pipe)));
        }
        let [(sync_base, pipe_base), (sync_dmt, pipe_dmt)]: [(Overlap, Overlap); 2] =
            overlaps.try_into().expect("two deployments");

        // The wall-clock claim only holds where compute runs at release speed
        // (debug builds inflate compute ~20x and their timing noise with it);
        // CI runs this test under `cargo test --release`.
        if !cfg!(debug_assertions) {
            assert!(
                pipe_base.wall_s < 0.95 * sync_base.wall_s,
                "baseline: pipelined {:.1}ms !< sync {:.1}ms",
                pipe_base.wall_s * 1e3,
                sync_base.wall_s * 1e3
            );
            assert!(
                pipe_dmt.wall_s < 0.97 * sync_dmt.wall_s,
                "dmt: pipelined {:.1}ms !< sync {:.1}ms",
                pipe_dmt.wall_s * 1e3,
                sync_dmt.wall_s * 1e3
            );
            // The paper-aligned ordering: DMT's smaller, intra-host-biased
            // transfers ride three independent worlds and hide decisively more
            // than the baseline's single global stream can.
            assert!(
                pipe_dmt.hidden > pipe_base.hidden + 0.1,
                "dmt hides {:.0}% !> baseline {:.0}% + 10pt",
                pipe_dmt.hidden * 100.0,
                pipe_base.hidden * 100.0
            );
        }
        // Sync exposes (essentially) everything; pipelined hides a real share —
        // in any build profile.
        assert!(sync_base.hidden < 0.05);
        assert!(sync_dmt.hidden < 0.05);
        assert!(
            pipe_base.hidden > 0.08,
            "baseline hides only {:.0}%",
            pipe_base.hidden * 100.0
        );
        assert!(
            pipe_dmt.hidden > 0.08,
            "dmt hides only {:.0}%",
            pipe_dmt.hidden * 100.0
        );
    }

    #[test]
    fn dmt_moves_fewer_cross_host_bytes() {
        // The deterministic half of the paper's claim: tower-wise disaggregation
        // pulls embedding bytes off the scale-out links.
        let cfg = quick(ModelArch::Dlrm).with_iterations(2);
        let baseline = run_baseline(&cfg).unwrap();
        let dmt = run_dmt(&cfg).unwrap();
        assert!(
            dmt.cross_host_bytes() < baseline.cross_host_bytes() / 2,
            "dmt {} vs baseline {}",
            dmt.cross_host_bytes(),
            baseline.cross_host_bytes()
        );
        // ... while the intra-host class picks up the lookup traffic.
        assert!(dmt.intra_host_bytes() > 0);
    }

    #[test]
    fn calibration_orders_dmt_below_baseline() {
        // The acceptance check: with the fabric paced to the modeled link
        // bandwidths, the *measured* exposed communication and total iteration time
        // order the two deployments the same way the analytical simulator predicts
        // (DMT < baseline, the paper's Figure 13).
        let cluster = cluster_2x4();
        // Slowed far enough that wire time dominates single-core scheduling noise.
        let fabric = FabricProfile::from_cluster(&cluster, 30_000.0);
        let cfg = DistributedConfig::quick(cluster, ModelArch::Dlrm)
            .with_iterations(3)
            .with_fabric(fabric);
        let report = calibrate(&cfg).unwrap();
        assert!(
            report.measured_ordering_matches_prediction(),
            "baseline comm {:.1}ms of {:.1}ms (pred {:.1}ms) vs dmt {:.1}ms of {:.1}ms (pred {:.1}ms)",
            CalibrationReport::comm_seconds(&report.baseline.breakdown()) * 1e3,
            report.baseline.breakdown().total_s() * 1e3,
            CalibrationReport::comm_seconds(&report.predicted_baseline.breakdown()) * 1e3,
            CalibrationReport::comm_seconds(&report.dmt.breakdown()) * 1e3,
            report.dmt.breakdown().total_s() * 1e3,
            CalibrationReport::comm_seconds(&report.predicted_dmt.breakdown()) * 1e3,
        );
        // DMT's measured exposed communication must be *well* below the baseline's,
        // not marginally: the peer exchanges carry compressed tower outputs.
        assert!(
            CalibrationReport::comm_seconds(&report.dmt.breakdown())
                < 0.7 * CalibrationReport::comm_seconds(&report.baseline.breakdown())
        );
    }

    #[test]
    fn calibration_holds_under_the_pipelined_schedule() {
        // The overlap-aware twin: re-costing the pipelined run's transfers with
        // the α–β model (and granting each the overlap window the schedule
        // achieved) must preserve the DMT-below-baseline orderings.
        let cluster = cluster_2x4();
        let fabric = FabricProfile::from_cluster(&cluster, 30_000.0);
        let cfg = DistributedConfig::quick(cluster, ModelArch::Dlrm)
            .with_iterations(3)
            .with_local_batch(128)
            .with_fabric(fabric)
            .with_schedule(ScheduleMode::Pipelined);
        let report = calibrate(&cfg).unwrap();
        assert!(
            report.measured_ordering_matches_prediction(),
            "measured dmt comm {:.1}ms vs baseline {:.1}ms; predicted dmt {:.1}ms vs baseline {:.1}ms",
            CalibrationReport::comm_seconds(&report.dmt.breakdown()) * 1e3,
            CalibrationReport::comm_seconds(&report.baseline.breakdown()) * 1e3,
            CalibrationReport::comm_seconds(&report.predicted_dmt.breakdown()) * 1e3,
            CalibrationReport::comm_seconds(&report.predicted_baseline.breakdown()) * 1e3,
        );
    }

    #[test]
    fn single_host_and_single_rank_worlds_run() {
        for (hosts, gpus) in [(1usize, 2usize), (1, 1), (2, 1)] {
            for schedule in [ScheduleMode::Sync, ScheduleMode::Pipelined] {
                let cluster = ClusterTopology::new(HardwareGeneration::A100, hosts, gpus).unwrap();
                let cfg = DistributedConfig::quick(cluster, ModelArch::Dlrm)
                    .with_iterations(2)
                    .with_schedule(schedule);
                let baseline = run_baseline(&cfg).unwrap();
                assert_eq!(baseline.world_size, hosts * gpus);
                let dmt = run_dmt(&cfg).unwrap();
                assert!(dmt.losses.iter().all(|l| l.is_finite()));
            }
        }
    }

    #[test]
    fn measured_segments_cover_the_expected_pipeline() {
        let cfg = quick(ModelArch::Dlrm).with_iterations(2);
        let dmt = run_dmt(&cfg).unwrap();
        let labels: Vec<&str> = dmt.segments.iter().map(|s| s.label.as_str()).collect();
        for expected in [
            "dense + tower-module compute",
            "peer index distribution AlltoAll",
            "intra-host row fetch AlltoAll (fwd)",
            "peer tower-output AlltoAll (fwd)",
            "peer tower-grad AlltoAll (bwd)",
            "intra-host gradient AlltoAll (bwd)",
            "tower-module intra-host AllReduce",
            "dense gradient AllReduce",
            "optimizer + host overhead",
        ] {
            assert!(labels.contains(&expected), "missing segment {expected}");
        }
        // The intra-host exchanges must carry no cross-host bytes.
        for seg in dmt
            .segments
            .iter()
            .filter(|s| s.scope == CommScope::IntraHost)
        {
            assert_eq!(seg.cross_host_bytes, 0, "{}", seg.label);
        }
        // Peer exchanges cross hosts only.
        for seg in dmt.segments.iter().filter(|s| s.scope == CommScope::Peer) {
            assert_eq!(seg.intra_host_bytes, 0, "{}", seg.label);
        }
    }

    #[test]
    fn predicted_timeline_mirrors_measured_segments() {
        let cfg = quick(ModelArch::Dlrm).with_iterations(2);
        let run = run_baseline(&cfg).unwrap();
        let predicted = predicted_timeline(&cfg, &run);
        assert_eq!(predicted.segments().len(), run.segments.len());
        for (p, m) in predicted.segments().iter().zip(&run.segments) {
            assert_eq!(p.label, m.label);
            assert!(p.time_s > 0.0 || m.time_s == 0.0);
        }
    }

    /// The measured segment sequence of a sync run must match the IR's declared
    /// spec exactly — labels, scopes and collectives derive from one source of
    /// truth instead of parallel bookkeeping.
    #[test]
    fn measured_segments_match_the_engine_spec() {
        use dmt_commsim::Quantization;
        for wire in [Quantization::Fp32, Quantization::Fp16] {
            let cfg = quick(ModelArch::Dlrm)
                .with_iterations(2)
                .with_wire_precision(wire);
            for (run, spec) in [
                (
                    run_baseline(&cfg).unwrap(),
                    graph::baseline_engine_spec(wire),
                ),
                (run_dmt(&cfg).unwrap(), graph::dmt_engine_spec(wire)),
            ] {
                assert_eq!(run.segments.len(), spec.len(), "{wire}");
                for (seg, node) in run.segments.iter().zip(&spec) {
                    assert_eq!(seg.label, node.label);
                    assert_eq!(seg.scope, node.scope);
                    assert_eq!(seg.op.is_some(), node.comm.is_some(), "{}", node.label);
                    assert_eq!(seg.kind, node.kind.segment_kind(), "{}", node.label);
                }
            }
        }
    }

    /// fp16 wire precision halves every quantizable segment's measured payload
    /// (to the codec's exact encoded size) and cuts the baseline's cross-host
    /// traffic ~2×; index exchanges are bit-for-bit unchanged.
    #[test]
    fn fp16_wire_precision_halves_quantizable_bytes() {
        use dmt_comm::codec::WireFormat;
        use dmt_commsim::Quantization;
        let fp32_cfg = quick(ModelArch::Dlrm).with_iterations(2);
        let fp16_cfg = fp32_cfg.clone().with_wire_precision(Quantization::Fp16);
        for run_fn in [run_baseline, run_dmt] {
            let fp32 = run_fn(&fp32_cfg).unwrap();
            let fp16 = run_fn(&fp16_cfg).unwrap();
            assert_eq!(fp32.segments.len(), fp16.segments.len());
            for (a, b) in fp32.segments.iter().zip(&fp16.segments) {
                assert_eq!(a.label, b.label);
                match (a.label.as_str(), a.op) {
                    // Merged lookup round trip: its u64 index half is unchanged,
                    // its row half halves — strictly between 50% and 100%.
                    ("intra-host row fetch AlltoAll (fwd)", _) => {
                        assert!(
                            b.payload_bytes < a.payload_bytes
                                && b.payload_bytes > a.payload_bytes / 2,
                            "{}: fp32 {} -> fp16 {}",
                            a.label,
                            a.payload_bytes,
                            b.payload_bytes
                        );
                    }
                    // Index exchanges ride native width: bit-for-bit unchanged.
                    (_, Some(dmt_comm::CommOp::AllToAllIndices)) => {
                        assert_eq!(a.payload_bytes, b.payload_bytes, "{}", a.label);
                    }
                    // Pure f32 payloads: exactly the codec's encoded size, modulo
                    // per-destination padding (≤ 2 bytes per shard).
                    (_, Some(dmt_comm::CommOp::AllToAll | dmt_comm::CommOp::AllReduce)) => {
                        // Slack: per-destination padding (≤ 2 bytes per shard)
                        // above, per-rank mean rounding below.
                        let half = WireFormat::Fp16.encoded_bytes((a.payload_bytes / 4) as usize);
                        assert!(
                            b.payload_bytes + 8 >= half && b.payload_bytes <= half + 64,
                            "{}: fp32 {} -> fp16 {} (expected ~{half})",
                            a.label,
                            a.payload_bytes,
                            b.payload_bytes
                        );
                    }
                    _ => {}
                }
            }
            // The deployment-level claim: quantizable traffic halves.
            let quantizable = |run: &MeasuredRun| -> u64 {
                run.segments
                    .iter()
                    .filter(|s| {
                        matches!(
                            s.op,
                            Some(dmt_comm::CommOp::AllToAll | dmt_comm::CommOp::AllReduce)
                        )
                    })
                    .map(|s| s.payload_bytes)
                    .sum()
            };
            let ratio = quantizable(&fp32) as f64 / quantizable(&fp16).max(1) as f64;
            assert!(
                (1.5..=2.1).contains(&ratio),
                "quantizable payload ratio {ratio}"
            );
        }
        // Baseline cross-host bytes: ~2× reduction (its cross-host traffic is
        // dominated by the quantizable row/gradient exchanges + AllReduce).
        let fp32 = run_baseline(&fp32_cfg).unwrap();
        let fp16 = run_baseline(&fp16_cfg).unwrap();
        let ratio = fp32.cross_host_bytes() as f64 / fp16.cross_host_bytes().max(1) as f64;
        assert!(
            ratio > 1.8,
            "baseline cross-host reduction only {ratio:.2}x"
        );
        // DMT's cross-host mix is index-heavy (the peer index distribution rides
        // native u64 width), so its reduction is real but smaller.
        let fp32 = run_dmt(&fp32_cfg).unwrap();
        let fp16 = run_dmt(&fp16_cfg).unwrap();
        let ratio = fp32.cross_host_bytes() as f64 / fp16.cross_host_bytes().max(1) as f64;
        assert!(ratio > 1.15, "dmt cross-host reduction only {ratio:.2}x");
    }

    /// Quantized runs stay bit-deterministic and converge: the logloss/AUC
    /// deltas against the FP32 reference are reported and bounded.
    #[test]
    fn fp16_and_int8_quality_delta_is_bounded() {
        use dmt_commsim::Quantization;
        let base = quick(ModelArch::Dlrm)
            .with_iterations(10)
            .with_local_batch(128);
        for run_fn in [run_baseline, run_dmt] {
            let fp32 = run_fn(&base).unwrap();
            let fp32_auc = fp32
                .mean_auc()
                .expect("128-sample batches hold both classes");
            for wire in [Quantization::Fp16, Quantization::Int8] {
                let cfg = base.clone().with_wire_precision(wire);
                let quant = run_fn(&cfg).unwrap();
                // Deterministic: two quantized runs produce identical losses.
                assert_eq!(quant.losses, run_fn(&cfg).unwrap().losses, "{wire}");
                // Still learns...
                let early: f64 = quant.losses[..3].iter().sum::<f64>() / 3.0;
                let late: f64 = quant.losses[7..].iter().sum::<f64>() / 3.0;
                assert!(late < early, "{wire}: loss should fall: {early} -> {late}");
                // ...and lands near the FP32 trajectory.
                let loss_delta = (quant.mean_loss() - fp32.mean_loss()).abs();
                assert!(
                    loss_delta < 0.02,
                    "{wire}: logloss delta {loss_delta:.4} vs fp32"
                );
                let auc_delta = (quant.mean_auc().unwrap() - fp32_auc).abs();
                assert!(auc_delta < 0.02, "{wire}: AUC delta {auc_delta:.4} vs fp32");
            }
        }
    }

    /// The acceptance check at reduced precision: with the fabric paced, the
    /// measured engine and the analytical twin still agree on the paper's
    /// orderings at fp16 — and the fp16 run moves measurably fewer cross-host
    /// bytes than its fp32 twin while exposing less communication time.
    #[test]
    fn calibration_holds_at_fp16_wire_precision() {
        use dmt_commsim::Quantization;
        let cluster = cluster_2x4();
        let fabric = FabricProfile::from_cluster(&cluster, 30_000.0);
        let fp32_cfg = DistributedConfig::quick(cluster, ModelArch::Dlrm)
            .with_iterations(3)
            .with_fabric(fabric);
        let fp16_cfg = fp32_cfg.clone().with_wire_precision(Quantization::Fp16);
        let report = calibrate(&fp16_cfg).unwrap();
        assert!(
            report.measured_ordering_matches_prediction(),
            "fp16: measured dmt comm {:.1}ms vs baseline {:.1}ms",
            CalibrationReport::comm_seconds(&report.dmt.breakdown()) * 1e3,
            CalibrationReport::comm_seconds(&report.baseline.breakdown()) * 1e3,
        );
        // Fewer bytes on a paced fabric = less exposed communication time, and
        // the analytical twin (which re-costs the measured encoded payloads)
        // agrees on the direction.
        let fp32_report = calibrate(&fp32_cfg).unwrap();
        for (fp16_run, fp32_run, fp16_pred, fp32_pred) in [
            (
                &report.baseline,
                &fp32_report.baseline,
                &report.predicted_baseline,
                &fp32_report.predicted_baseline,
            ),
            (
                &report.dmt,
                &fp32_report.dmt,
                &report.predicted_dmt,
                &fp32_report.predicted_dmt,
            ),
        ] {
            assert!(fp16_run.cross_host_bytes() < fp32_run.cross_host_bytes());
            assert!(
                CalibrationReport::comm_seconds(&fp16_run.breakdown())
                    < CalibrationReport::comm_seconds(&fp32_run.breakdown()),
                "measured fp16 comm should shrink"
            );
            assert!(
                CalibrationReport::comm_seconds(&fp16_pred.breakdown())
                    < CalibrationReport::comm_seconds(&fp32_pred.breakdown()),
                "predicted fp16 comm should shrink"
            );
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = quick(ModelArch::Dlrm);
        cfg.local_batch = 0;
        assert!(matches!(
            run_baseline(&cfg),
            Err(DistributedError::Config { .. })
        ));
        // More towers (hosts) than sparse features cannot be partitioned.
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 27, 1).unwrap();
        let cfg = DistributedConfig::quick(cluster, ModelArch::Dlrm);
        assert!(matches!(
            run_dmt(&cfg),
            Err(DistributedError::Config { .. })
        ));
    }
}
