//! Lowering of the hybrid-parallel baseline onto the iteration-graph IR.
//!
//! One set of node bodies covers both schedules; the schedule only changes the
//! *order* the nodes are emitted in (see [`super::graph`]):
//!
//! * [`ScheduleMode::Sync`] — one micro-batch, every `claim` node directly after
//!   its `issue` node: blocking semantics, bit-identical to the original
//!   hand-written engine (the golden-value regression test pins it).
//! * [`ScheduleMode::Pipelined`] — every micro-batch's index exchange is
//!   prefetched, the answer/compute chains interleave so micro-batch `b+1`'s
//!   transfers ride under micro-batch `b`'s compute, and the dense AllReduce
//!   overlaps the embedding-gradient merges.
//!
//! When the configured wire precision is below FP32 the lowering inserts
//! [`OpKind::Quantize`] nodes before the row-fetch and gradient issue nodes and
//! [`OpKind::Dequantize`] nodes after the matching claim nodes (the codec packs
//! the payloads into reduced-precision wire words); the dense AllReduce runs as
//! a quantized-wire collective — the codec is part of the collective itself,
//! NCCL-datatype-style, so no separate codec node appears around it.

use super::config::{DistributedConfig, DistributedError, ScheduleMode};
use super::executor::{self, IterationStats, RankLowering};
use super::export::RankExport;
use super::graph::{decode_shards, encode_shards, IterationGraph, NodeMeta, OpKind};
use super::measure::{wait_logged, CommScope, RankOutcome, WaitEntry};
use super::model::{
    self, bags_for, flatten_grads, write_back_grads, DenseScratch, DenseStack, LookupRouting,
    ShardedLookup,
};
use super::RankComms;
use dmt_comm::codec::WireFormat;
use dmt_comm::{Backend, PendingOp, SharedMemoryBackend};
use dmt_commsim::SegmentKind;
use dmt_data::Batch;
use dmt_metrics::auc::roc_auc;
use dmt_nn::param::HasParameters;
use dmt_nn::{AdamOptimizer, Optimizer};
use dmt_tensor::Tensor;

/// One rank of the hybrid-parallel baseline. With `want_export`, also returns
/// this rank's contribution to a frozen model snapshot (its table shards, plus
/// the replicated dense stack on rank 0).
pub(crate) fn baseline_rank(
    config: &DistributedConfig,
    rank: usize,
    comm: &mut RankComms,
    want_export: bool,
) -> Result<(RankOutcome, Option<RankExport>), DistributedError> {
    let mut lowering = BaselineLowering::new(config, rank);
    let outcome = executor::run_rank(config, rank, comm, &mut lowering)?;
    let export = want_export.then(|| RankExport {
        dense_params: (rank == 0).then(|| model::flatten_params(&mut lowering.dense)),
        tower: None,
        shards: lowering.lookup.export_shards(),
    });
    Ok((outcome, export))
}

/// Rank-local state of the baseline lowering: globally sharded tables, the
/// replicated dense stack and its activation buffers (reused every step).
struct BaselineLowering {
    schedule: ScheduleMode,
    wire: WireFormat,
    features: Vec<usize>,
    n: usize,
    num_dense: usize,
    local_batch: usize,
    learning_rate: f32,
    lookup: ShardedLookup,
    dense: DenseStack,
    dense_scratch: DenseScratch,
    adam: AdamOptimizer,
}

impl BaselineLowering {
    fn new(config: &DistributedConfig, rank: usize) -> Self {
        let schema = &config.schema;
        let n = config.hyper.embedding_dim;
        let world = config.cluster.world_size();
        let lookup = ShardedLookup::new(
            config.seed,
            schema,
            (0..schema.num_sparse()).collect(),
            n,
            world,
            rank,
        );
        let dense = DenseStack::new(
            config.seed,
            schema,
            config.arch,
            &config.hyper,
            n,
            schema.num_sparse() + 1,
        );
        Self {
            schedule: config.schedule,
            wire: config.wire_format(),
            features: (0..schema.num_sparse()).collect(),
            n,
            num_dense: schema.num_dense,
            local_batch: config.local_batch,
            learning_rate: config.learning_rate,
            lookup,
            dense,
            dense_scratch: DenseScratch::default(),
            adam: AdamOptimizer::new(config.learning_rate),
        }
    }
}

/// Per-micro-batch pipeline state threaded between the graph's nodes. The
/// staging fields (`replies`, `fetched`, `grad_bufs`, `incoming`) are how
/// payloads cross node boundaries — and where the inserted `Quantize` /
/// `Dequantize` nodes transcode them in place.
#[derive(Default)]
struct Mb {
    batch: Batch,
    routing: LookupRouting,
    replies: Vec<Vec<f32>>,
    fetched: Vec<Vec<f32>>,
    grad_bufs: Vec<Vec<f32>>,
    incoming: Vec<Vec<f32>>,
    idx_op: Option<PendingOp<Vec<Vec<u64>>>>,
    rows_op: Option<PendingOp<Vec<Vec<f32>>>>,
    grads_op: Option<PendingOp<Vec<Vec<f32>>>>,
}

/// Everything one lowered iteration mutates.
struct Ctx<'a> {
    low: &'a mut BaselineLowering,
    global: &'a mut SharedMemoryBackend,
    waits: &'a mut Vec<WaitEntry>,
    mbs: Vec<Mb>,
    allreduce: Option<PendingOp<Vec<f32>>>,
    inv_m: f32,
    loss_sum: f64,
    scores: Vec<f32>,
    labels: Vec<f32>,
}

type Id = super::StageId;

// Node builders: each emits one graph node for micro-batch `b`. The closures
// capture only copies, so the same builders serve both schedule orderings.

fn add_route<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::IndexExchange,
            label: "route + issue index AlltoAll",
        },
        deps,
        move |ctx: &mut Ctx| {
            let requests = {
                let mb = &ctx.mbs[b];
                let bags = bags_for(&mb.batch, &ctx.low.features);
                ctx.low.lookup.route(ctx.global.world_size(), &bags)
            };
            ctx.mbs[b].routing.request_keys = requests.clone();
            ctx.mbs[b].idx_op = Some(ctx.global.all_to_all_indices_nonblocking(requests));
            Ok(())
        },
    )
}

fn add_answer<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::EmbeddingLookup,
            label: "claim indices + answer",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.mbs[b].idx_op.take().expect("index op issued");
            let incoming = wait_logged(
                op,
                ctx.waits,
                "feature distribution AlltoAll",
                SegmentKind::EmbeddingComm,
                CommScope::Global,
            )?;
            ctx.mbs[b].replies = ctx.low.lookup.answer(&incoming)?;
            ctx.mbs[b].routing.served_keys = incoming;
            Ok(())
        },
    )
}

/// Inserted only at sub-FP32 precisions: encodes the staged reply rows into
/// wire words before the exchange node sends them.
fn add_quantize_rows<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::Quantize,
            label: "quantize rows",
        },
        deps,
        move |ctx: &mut Ctx| {
            let replies = std::mem::take(&mut ctx.mbs[b].replies);
            ctx.mbs[b].replies = encode_shards(wire, replies);
            Ok(())
        },
    )
}

fn add_issue_rows<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::RowExchange,
            label: "issue row fetch",
        },
        deps,
        move |ctx: &mut Ctx| {
            let replies = std::mem::take(&mut ctx.mbs[b].replies);
            ctx.mbs[b].rows_op = Some(ctx.global.all_to_all_nonblocking(replies));
            Ok(())
        },
    )
}

fn add_claim_rows<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::RowExchange,
            label: "claim row fetch",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.mbs[b].rows_op.take().expect("rows op issued");
            ctx.mbs[b].fetched = wait_logged(
                op,
                ctx.waits,
                "embedding row fetch AlltoAll (fwd)",
                SegmentKind::EmbeddingComm,
                CommScope::Global,
            )?;
            Ok(())
        },
    )
}

/// Inserted only at sub-FP32 precisions: decodes the claimed wire words back to
/// rows (the requester knows each owner's element count from its routing).
fn add_dequantize_rows<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::Dequantize,
            label: "dequantize rows",
        },
        deps,
        move |ctx: &mut Ctx| {
            let n = ctx.low.n;
            let fetched = std::mem::take(&mut ctx.mbs[b].fetched);
            let keys = &ctx.mbs[b].routing.request_keys;
            let decoded = decode_shards(wire, fetched, |owner| keys[owner].len() * n)?;
            ctx.mbs[b].fetched = decoded;
            Ok(())
        },
    )
}

fn add_compute<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::DenseForwardBackward,
            label: "pool + dense fwd/bwd",
        },
        deps,
        move |ctx: &mut Ctx| {
            let fetched = std::mem::take(&mut ctx.mbs[b].fetched);
            // Exact per-sample weighting: Batch::split gives the last micro-batch
            // the remainder, so each contributes by sample count, not 1/M;
            // grad_scale pre-compensates the final 1/M. Under sync (M = 1) both
            // factors are exactly 1.0 — the bit-identical reference path.
            let weight = ctx.mbs[b].batch.len() as f32 / ctx.low.local_batch as f32;
            let low = &mut *ctx.low;
            let mb = &ctx.mbs[b];
            let bags = bags_for(&mb.batch, &low.features);
            let mut feature_block = Tensor::default();
            low.lookup
                .pool_into(&bags, &mb.routing, &fetched, &mut feature_block)?;
            let dense_input =
                Tensor::from_vec(vec![mb.batch.len(), low.num_dense], mb.batch.dense_flat())?;
            let mut predictions = Vec::new();
            let loss = low.dense.forward_backward(
                &dense_input,
                &feature_block,
                &mb.batch.labels,
                weight / ctx.inv_m,
                &mut predictions,
                &mut low.dense_scratch,
            )?;
            // Micro-batch averaging for the sparse gradients (net weight per
            // micro-batch: grad_scale / M = its sample share).
            let grad_bufs = low.lookup.build_grad_bufs(
                &bags,
                &mb.routing,
                low.dense_scratch.feature_grad(),
                ctx.inv_m,
            );
            ctx.loss_sum += loss * f64::from(weight);
            ctx.scores.extend_from_slice(&predictions);
            ctx.labels.extend_from_slice(&mb.batch.labels);
            ctx.mbs[b].grad_bufs = grad_bufs;
            Ok(())
        },
    )
}

fn add_quantize_grads<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::Quantize,
            label: "quantize embedding grads",
        },
        deps,
        move |ctx: &mut Ctx| {
            let bufs = std::mem::take(&mut ctx.mbs[b].grad_bufs);
            ctx.mbs[b].grad_bufs = encode_shards(wire, bufs);
            Ok(())
        },
    )
}

fn add_issue_grads<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::GradExchange,
            label: "issue embedding grads",
        },
        deps,
        move |ctx: &mut Ctx| {
            let bufs = std::mem::take(&mut ctx.mbs[b].grad_bufs);
            ctx.mbs[b].grads_op = Some(ctx.global.all_to_all_nonblocking(bufs));
            Ok(())
        },
    )
}

fn add_claim_grads<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::GradExchange,
            label: "claim embedding grads",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.mbs[b].grads_op.take().expect("grads op issued");
            ctx.mbs[b].incoming = wait_logged(
                op,
                ctx.waits,
                "embedding gradient AlltoAll (bwd)",
                SegmentKind::EmbeddingComm,
                CommScope::Global,
            )?;
            Ok(())
        },
    )
}

fn add_dequantize_grads<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::Dequantize,
            label: "dequantize embedding grads",
        },
        deps,
        move |ctx: &mut Ctx| {
            let n = ctx.low.n;
            let incoming = std::mem::take(&mut ctx.mbs[b].incoming);
            let keys = &ctx.mbs[b].routing.served_keys;
            let decoded = decode_shards(wire, incoming, |src| keys[src].len() * n)?;
            ctx.mbs[b].incoming = decoded;
            Ok(())
        },
    )
}

fn add_merge<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::EmbeddingLookup,
            label: "merge embedding grads",
        },
        deps,
        move |ctx: &mut Ctx| {
            let incoming = std::mem::take(&mut ctx.mbs[b].incoming);
            let routing = std::mem::take(&mut ctx.mbs[b].routing);
            ctx.low.lookup.merge_grads(&routing, incoming)?;
            Ok(())
        },
    )
}

fn add_allreduce_issue<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    wire: WireFormat,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::AllReduce,
            label: "issue dense AllReduce",
        },
        deps,
        move |ctx: &mut Ctx| {
            let flat = flatten_grads(&mut ctx.low.dense);
            ctx.allreduce = Some(ctx.global.all_reduce_cast_nonblocking(flat, wire));
            Ok(())
        },
    )
}

fn add_allreduce_claim<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], world: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::AllReduce,
            label: "claim dense AllReduce",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.allreduce.take().expect("allreduce issued");
            let flat = wait_logged(
                op,
                ctx.waits,
                "dense gradient AllReduce",
                SegmentKind::DenseSync,
                CommScope::Global,
            )?;
            let scale = ctx.inv_m / world as f32;
            write_back_grads(&mut ctx.low.dense, &flat, scale);
            Ok(())
        },
    )
}

/// Emits the `answer → [quantize] → issue rows` chain for micro-batch `b` and
/// returns the last node's id.
fn add_forward_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    dep: Id,
    b: usize,
    wire: WireFormat,
) -> Id {
    let mut prev = add_answer(g, &[dep], b);
    if !wire.is_identity() {
        prev = add_quantize_rows(g, &[prev], b, wire);
    }
    add_issue_rows(g, &[prev], b)
}

/// Emits the `claim rows → [dequantize] → compute → [quantize] → issue grads`
/// chain for micro-batch `b` and returns the last node's id.
fn add_compute_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    dep: Id,
    b: usize,
    wire: WireFormat,
) -> Id {
    let mut prev = add_claim_rows(g, &[dep], b);
    if !wire.is_identity() {
        prev = add_dequantize_rows(g, &[prev], b, wire);
    }
    prev = add_compute(g, &[prev], b);
    if !wire.is_identity() {
        prev = add_quantize_grads(g, &[prev], b, wire);
    }
    add_issue_grads(g, &[prev], b)
}

/// Emits the `claim grads → [dequantize] → merge` chain for micro-batch `b`.
fn add_merge_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    let mut prev = add_claim_grads(g, deps, b);
    if !wire.is_identity() {
        prev = add_dequantize_grads(g, &[prev], b, wire);
    }
    add_merge(g, &[prev], b)
}

impl RankLowering for BaselineLowering {
    fn compute_label(&self) -> &'static str {
        "dense + sparse compute"
    }

    fn run_graph(
        &mut self,
        comm: &mut RankComms,
        mbs: Vec<Batch>,
        waits: &mut Vec<WaitEntry>,
    ) -> Result<IterationStats, DistributedError> {
        HasParameters::zero_grad(&mut self.dense);
        let m = mbs.len();
        let wire = self.wire;
        let world = comm.global.world_size();
        let schedule = self.schedule;
        let mut ctx = Ctx {
            low: self,
            global: &mut comm.global,
            waits,
            mbs: mbs
                .into_iter()
                .map(|batch| Mb {
                    batch,
                    ..Mb::default()
                })
                .collect(),
            allreduce: None,
            inv_m: 1.0 / m as f32,
            loss_sum: 0.0,
            scores: Vec::new(),
            labels: Vec::new(),
        };

        let mut g: IterationGraph<Ctx> = IterationGraph::new();
        match schedule {
            // Blocking order: every claim directly follows its issue; the
            // AllReduce launches only after the embedding backward completes.
            ScheduleMode::Sync => {
                debug_assert_eq!(m, 1, "the sync schedule runs one micro-batch");
                let route = add_route(&mut g, &[], 0);
                let issued = add_forward_chain(&mut g, route, 0, wire);
                let computed = add_compute_chain(&mut g, issued, 0, wire);
                let merged = add_merge_chain(&mut g, &[computed], 0, wire);
                let ar = add_allreduce_issue(&mut g, &[merged], wire);
                add_allreduce_claim(&mut g, &[ar], world);
            }
            // Overlapped order: index exchanges prefetched for every
            // micro-batch (TorchRec's input-dist prefetch), answer `b+1`
            // overlaps row transfer `b`, dense compute `b` hides row transfer
            // `b+1` and gradient transfer `b-1`, and the dense AllReduce rides
            // under the gradient merges.
            ScheduleMode::Pipelined => {
                let mut routes = Vec::with_capacity(m);
                for b in 0..m {
                    routes.push(add_route(&mut g, &[], b));
                }
                let mut answered = Vec::with_capacity(m);
                for (b, &route) in routes.iter().enumerate() {
                    answered.push(add_forward_chain(&mut g, route, b, wire));
                }
                let mut computed = Vec::with_capacity(m);
                for (b, &ready) in answered.iter().enumerate() {
                    computed.push(add_compute_chain(&mut g, ready, b, wire));
                }
                let ar = add_allreduce_issue(&mut g, &[computed[m - 1]], wire);
                let mut merges = Vec::with_capacity(m);
                for (b, &issued) in computed.iter().enumerate() {
                    merges.push(add_merge_chain(&mut g, &[issued, ar], b, wire));
                }
                add_allreduce_claim(&mut g, &[ar, merges[m - 1]], world);
            }
        }
        g.run(&mut ctx)?;

        let Ctx {
            loss_sum,
            scores,
            labels,
            ..
        } = ctx;
        Ok(IterationStats {
            loss: loss_sum,
            auc: roc_auc(&scores, &labels),
        })
    }

    fn optimizer_step(&mut self) {
        self.adam.step(&mut self.dense);
        self.lookup.apply_rowwise_adagrad(self.learning_rate, 1e-8);
    }
}
