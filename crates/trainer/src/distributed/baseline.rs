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
//! Its three `f32` collectives — row fetch, gradient return and the dense
//! AllReduce — are declared once as exchange descriptions (`ROWS`, `GRADS`,
//! `DENSE_AR`); the shared builders of the `exchange` module emit their issue
//! and claim nodes and, below FP32 wire precision, the codec nodes around the
//! two AlltoAlls.

use super::config::{DistributedConfig, DistributedError, ScheduleMode};
use super::exchange::{self, AllReduce, AllToAll, Transfer};
use super::executor::{self, IterationStats, RankLowering};
use super::export::RankExport;
use super::graph::{IterationGraph, NodeMeta, OpKind};
use super::measure::{wait_logged, CommScope, RankOutcome, WaitEntry};
use super::model::{self, bags_for, DenseScratch, DenseStack, LookupRouting, ShardedLookup};
use super::RankComms;
use dmt_comm::codec::WireFormat;
use dmt_comm::{Backend, PendingOp};
use dmt_commsim::SegmentKind;
use dmt_data::Batch;
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
    dense_ar: Option<PendingOp<Vec<f32>>>,
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
            dense_ar: None,
            adam: AdamOptimizer::new(config.learning_rate),
        }
    }
}

/// Per-micro-batch pipeline state threaded between the graph's nodes. Payloads
/// cross node boundaries through the [`Transfer`]s of the declared exchanges.
#[derive(Default)]
struct Mb {
    batch: Batch,
    routing: LookupRouting,
    idx_op: Option<PendingOp<Vec<Vec<u64>>>>,
    rows: Transfer,
    grads: Transfer,
}

type Ctx<'a> = exchange::Ctx<'a, BaselineLowering, Mb>;

type Id = super::StageId;

/// Row fetch: each owner's answered rows back to the requester, who knows each
/// owner's element count from its routing.
static ROWS: AllToAll<BaselineLowering, Mb> = AllToAll {
    world: CommScope::Global,
    kind: OpKind::RowExchange,
    quantize: "quantize rows",
    issue: "issue row fetch",
    claim: "claim row fetch",
    dequantize: "dequantize rows",
    wait: "embedding row fetch AlltoAll (fwd)",
    transfer: |mb| &mut mb.rows,
    elements: |low, mb, owner| mb.routing.request_keys[owner].len() * low.n,
};

/// Embedding-row gradients back to the rows' owners.
static GRADS: AllToAll<BaselineLowering, Mb> = AllToAll {
    world: CommScope::Global,
    kind: OpKind::GradExchange,
    quantize: "quantize embedding grads",
    issue: "issue embedding grads",
    claim: "claim embedding grads",
    dequantize: "dequantize embedding grads",
    wait: "embedding gradient AlltoAll (bwd)",
    transfer: |mb| &mut mb.grads,
    elements: |low, mb, src| mb.routing.served_keys[src].len() * low.n,
};

static DENSE_AR: AllReduce<BaselineLowering, DenseStack> = AllReduce {
    world: CommScope::Global,
    issue: "issue dense AllReduce",
    claim: "claim dense AllReduce",
    wait: "dense gradient AllReduce",
    module: |low| &mut low.dense,
    op: |low| &mut low.dense_ar,
};

// Node builders of the compound nodes: each emits one graph node for
// micro-batch `b`. The closures capture only copies, so the same builders
// serve both schedule orderings.

fn add_route<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::IndexExchange,
            label: "route + issue index AlltoAll",
        },
        deps,
        move |ctx: &mut Ctx| {
            let routing = {
                let mb = &ctx.mbs[b];
                let bags = bags_for(&mb.batch, &ctx.low.features);
                ctx.low.lookup.route(ctx.comm.global.world_size(), &bags)
            };
            let requests = routing.request_keys.clone();
            ctx.mbs[b].routing = routing;
            ctx.mbs[b].idx_op = Some(ctx.comm.global.all_to_all_indices_nonblocking(requests));
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
            ctx.mbs[b].rows.send = ctx.low.lookup.answer(&incoming)?;
            ctx.mbs[b].routing.served_keys = incoming;
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
            let fetched = std::mem::take(&mut ctx.mbs[b].rows.recv);
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
            ctx.mbs[b].grads.send = grad_bufs;
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
            let incoming = std::mem::take(&mut ctx.mbs[b].grads.recv);
            let routing = std::mem::take(&mut ctx.mbs[b].routing);
            ctx.low.lookup.merge_grads(&routing, incoming)?;
            Ok(())
        },
    )
}

/// Emits `answer → send rows` for micro-batch `b`.
fn add_forward_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    dep: Id,
    b: usize,
    wire: WireFormat,
) -> Id {
    let answered = add_answer(g, &[dep], b);
    ROWS.send(g, &[answered], b, wire)
}

/// Emits `receive rows → compute → send grads` for micro-batch `b`.
fn add_compute_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    dep: Id,
    b: usize,
    wire: WireFormat,
) -> Id {
    let fetched = ROWS.recv(g, &[dep], b, wire);
    let computed = add_compute(g, &[fetched], b);
    GRADS.send(g, &[computed], b, wire)
}

/// Emits `receive grads → merge` for micro-batch `b`.
fn add_merge_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    let received = GRADS.recv(g, deps, b, wire);
    add_merge(g, &[received], b)
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
        let schedule = self.schedule;
        let mut ctx = Ctx::new(self, comm, waits, mbs, |batch| Mb {
            batch,
            ..Mb::default()
        });

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
                let ar = DENSE_AR.issue(&mut g, &[merged], wire);
                DENSE_AR.claim(&mut g, &[ar]);
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
                let ar = DENSE_AR.issue(&mut g, &[computed[m - 1]], wire);
                let mut merges = Vec::with_capacity(m);
                for (b, &issued) in computed.iter().enumerate() {
                    merges.push(add_merge_chain(&mut g, &[issued, ar], b, wire));
                }
                DENSE_AR.claim(&mut g, &[ar, merges[m - 1]]);
            }
        }
        g.run(&mut ctx)?;
        Ok(ctx.stats())
    }

    fn optimizer_step(&mut self) {
        self.adam.step(&mut self.dense);
        self.lookup.apply_rowwise_adagrad(self.learning_rate, 1e-8);
    }
}
