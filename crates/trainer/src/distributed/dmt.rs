//! Lowering of the Disaggregated Multi-Tower deployment (one tower per host)
//! onto the iteration-graph IR.
//!
//! The SPTT steps map 1:1 onto graph nodes: peer index distribution → intra-host
//! sharded lookup → tower module → compressed peer output exchange → replicated
//! dense stack → the backward mirror. As in [`super::baseline`], one set of node
//! bodies serves both schedules and only the emission *order* differs; the DMT
//! pipelined order has more overlap structure because its three communicator
//! worlds (peer, intra-host, global) are independent FIFO streams, so a peer
//! exchange, an intra-host exchange and the global dense AllReduce can all be on
//! the wire at once.
//!
//! Below FP32 wire precision, [`OpKind::Quantize`] / [`OpKind::Dequantize`]
//! nodes wrap the intra-host row/gradient exchanges and both peer `f32`
//! exchanges; the two AllReduces run as quantized-wire collectives. The peer
//! *index* distribution always rides native `u64` width.

use super::config::{DistributedConfig, DistributedError, ScheduleMode};
use super::executor::{self, IterationStats, RankLowering};
use super::export::RankExport;
use super::graph::{decode_shards, encode_shards, IterationGraph, NodeMeta, OpKind};
use super::measure::{wait_logged, CommScope, RankOutcome, WaitEntry};
use super::model::{
    flatten_grads, flatten_params, write_back_grads, DenseScratch, DenseStack, LookupRouting,
    ShardedLookup,
};
use super::RankComms;
use dmt_comm::codec::WireFormat;
use dmt_comm::{Backend, PendingOp};
use dmt_commsim::SegmentKind;
use dmt_core::tower::TowerModule;
use dmt_core::{DlrmTowerModule, DlrmTowerScratch};
use dmt_data::Batch;
use dmt_metrics::auc::roc_auc;
use dmt_nn::param::HasParameters;
use dmt_nn::{AdamOptimizer, Optimizer};
use dmt_tensor::Tensor;

/// Static per-rank DMT layout: which features this rank's tower owns and how the
/// interaction geometry is laid out.
struct DmtLayout {
    groups: Vec<Vec<usize>>,
    my_features: Vec<usize>,
    my_host: usize,
    hosts: usize,
    tower_widths: Vec<usize>,
    num_units: usize,
}

fn layout(config: &DistributedConfig, rank: usize) -> Result<DmtLayout, DistributedError> {
    use dmt_topology::Rank;
    let schema = &config.schema;
    let cluster = &config.cluster;
    let hosts = cluster.num_hosts();
    let my_host = cluster.host_of(Rank(rank));
    // Tower feature groups, each sorted ascending (the wire order of every
    // exchange), and the interaction geometry — both from the shared helpers
    // the serving engine also builds on (`super::model`).
    let groups = super::model::tower_groups(schema.num_sparse(), hosts)?;
    let my_features = groups[my_host].clone();
    let (c, p, d) = (
        config.tower_ensemble_c,
        config.tower_ensemble_p,
        config.tower_output_dim,
    );
    let tower_widths = super::model::tower_widths(&groups, c, p, d);
    let num_units = super::model::tower_num_units(&groups, c, p);
    Ok(DmtLayout {
        groups,
        my_features,
        my_host,
        hosts,
        tower_widths,
        num_units,
    })
}

/// One rank of the Disaggregated Multi-Tower deployment. With `want_export`,
/// also returns this rank's contribution to a frozen model snapshot: its
/// intra-host table shards, the replicated tower module on each host's slot-0
/// rank, and the replicated dense stack on global rank 0.
pub(crate) fn dmt_rank(
    config: &DistributedConfig,
    rank: usize,
    comm: &mut RankComms,
    want_export: bool,
) -> Result<(RankOutcome, Option<RankExport>), DistributedError> {
    use dmt_topology::Rank;
    let mut lowering = DmtLowering::new(config, rank)?;
    let outcome = executor::run_rank(config, rank, comm, &mut lowering)?;
    let export = want_export.then(|| RankExport {
        dense_params: (rank == 0).then(|| flatten_params(&mut lowering.dense)),
        tower: (config.cluster.local_index(Rank(rank)) == 0)
            .then(|| (lowering.layout.my_host, flatten_params(&mut lowering.tower))),
        shards: lowering.lookup.export_shards(),
    });
    Ok((outcome, export))
}

/// Rank-local state of the DMT lowering: the tower's sharded tables, the
/// replicated tower module and the replicated dense stack, with their
/// activation buffers (reused every iteration).
struct DmtLowering {
    schedule: ScheduleMode,
    wire: WireFormat,
    layout: DmtLayout,
    n: usize,
    num_dense: usize,
    local_batch: usize,
    slots: usize,
    learning_rate: f32,
    lookup: ShardedLookup,
    tower: DlrmTowerModule,
    /// One tower activation record per micro-batch slot: under the pipelined
    /// schedule every micro-batch's tower forward runs before the first
    /// tower backward, and each backward must read its own forward's record.
    tower_records: Vec<TowerRecord>,
    /// The tower output (forward) and input gradient (backward), each used
    /// only within one node.
    tower_output: Tensor,
    tower_grad: Tensor,
    dense: DenseStack,
    dense_scratch: DenseScratch,
    adam_dense: AdamOptimizer,
    adam_tower: AdamOptimizer,
}

impl DmtLowering {
    fn new(config: &DistributedConfig, rank: usize) -> Result<Self, DistributedError> {
        use dmt_topology::Rank;
        use rand::SeedableRng;

        let schema = &config.schema;
        let cluster = &config.cluster;
        let n = config.hyper.embedding_dim;
        let slots = cluster.gpus_per_host();
        let layout = layout(config, rank)?;
        let (c, p, d) = (
            config.tower_ensemble_c,
            config.tower_ensemble_p,
            config.tower_output_dim,
        );
        // Tables of my tower, sharded across my host's ranks.
        let lookup = ShardedLookup::new(
            config.seed,
            schema,
            layout.my_features.clone(),
            n,
            slots,
            cluster.local_index(Rank(rank)),
        );
        // Tower module replicated across my host's ranks (same per-tower seed).
        let mut tower_rng =
            rand::rngs::StdRng::seed_from_u64(config.seed ^ ((layout.my_host as u64 + 1) * 7919));
        let tower = DlrmTowerModule::new(&mut tower_rng, layout.my_features.len(), n, c, p, d)
            .map_err(|e| DistributedError::Config {
                reason: e.to_string(),
            })?;
        let dense = DenseStack::new(
            config.seed,
            schema,
            config.arch,
            &config.hyper,
            d,
            layout.num_units,
        );
        Ok(Self {
            schedule: config.schedule,
            wire: config.wire_format(),
            layout,
            n,
            num_dense: schema.num_dense,
            local_batch: config.local_batch,
            slots,
            learning_rate: config.learning_rate,
            lookup,
            tower,
            tower_records: Vec::new(),
            tower_output: Tensor::default(),
            tower_grad: Tensor::default(),
            dense,
            dense_scratch: DenseScratch::default(),
            adam_dense: AdamOptimizer::new(config.learning_rate),
            adam_tower: AdamOptimizer::new(config.learning_rate),
        })
    }
}

/// One micro-batch's tower activations: the pooled tower input and the
/// module's record.
#[derive(Default)]
struct TowerRecord {
    input: Tensor,
    scratch: DlrmTowerScratch,
}

/// Per-micro-batch DMT pipeline state. The staging fields are how payloads
/// cross node boundaries — and where the inserted `Quantize` / `Dequantize`
/// nodes transcode them in place.
#[derive(Default)]
struct Mb {
    batch: Batch,
    routing: LookupRouting,
    tower_bags: Vec<Vec<Vec<usize>>>,
    replies: Vec<Vec<f32>>,
    fetched: Vec<Vec<f32>>,
    out_sends: Vec<Vec<f32>>,
    out_recv: Vec<Vec<f32>>,
    grad_sends: Vec<Vec<f32>>,
    grad_recv: Vec<Vec<f32>>,
    grad_bufs: Vec<Vec<f32>>,
    incoming: Vec<Vec<f32>>,
    peer_idx_op: Option<PendingOp<Vec<Vec<u64>>>>,
    intra_idx_op: Option<PendingOp<Vec<Vec<u64>>>>,
    intra_rows_op: Option<PendingOp<Vec<Vec<f32>>>>,
    peer_out_op: Option<PendingOp<Vec<Vec<f32>>>>,
    peer_grad_op: Option<PendingOp<Vec<Vec<f32>>>>,
    intra_grads_op: Option<PendingOp<Vec<Vec<f32>>>>,
}

/// Everything one lowered DMT iteration mutates.
struct Ctx<'a> {
    low: &'a mut DmtLowering,
    comm: &'a mut RankComms,
    waits: &'a mut Vec<WaitEntry>,
    mbs: Vec<Mb>,
    tower_ar: Option<PendingOp<Vec<f32>>>,
    dense_ar: Option<PendingOp<Vec<f32>>>,
    inv_m: f32,
    loss_sum: f64,
    scores: Vec<f32>,
    labels: Vec<f32>,
}

type Id = super::StageId;

/// Selects a micro-batch's `Vec<Vec<f32>>` staging field — what the generic
/// quantize/dequantize node builders transcode.
type Stage = fn(&mut Mb) -> &mut Vec<Vec<f32>>;

/// Inserted only at sub-FP32 precisions: encodes a staged outgoing payload into
/// wire words before its exchange node sends it.
fn add_quantize<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
    stage: Stage,
    label: &'static str,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::Quantize,
            label,
        },
        deps,
        move |ctx: &mut Ctx| {
            let field = stage(&mut ctx.mbs[b]);
            let payload = std::mem::take(field);
            *field = encode_shards(wire, payload);
            Ok(())
        },
    )
}

fn add_peer_route<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::IndexExchange,
            label: "encode + issue peer index AlltoAll",
        },
        deps,
        move |ctx: &mut Ctx| {
            let sends = {
                let batch = &ctx.mbs[b].batch;
                super::model::encode_tower_streams(&ctx.low.layout.groups, batch.len(), |f, s| {
                    batch.sparse[f][s].as_slice()
                })
            };
            ctx.mbs[b].peer_idx_op = Some(ctx.comm.peer.all_to_all_indices_nonblocking(sends));
            Ok(())
        },
    )
}

fn add_decode<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::IndexExchange,
            label: "claim peer indices + route intra",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.mbs[b].peer_idx_op.take().expect("peer idx issued");
            let incoming = wait_logged(
                op,
                ctx.waits,
                "peer index distribution AlltoAll",
                SegmentKind::EmbeddingComm,
                CommScope::Peer,
            )?;
            let mb_len = ctx.mbs[b].batch.len();
            // Training sources all carry the same micro-batch length.
            let tower_bags = super::model::decode_tower_streams(
                &incoming,
                ctx.low.layout.my_features.len(),
                &vec![mb_len; incoming.len()],
            );
            let requests = {
                let bags: Vec<&[Vec<usize>]> = tower_bags.iter().map(Vec::as_slice).collect();
                ctx.low.lookup.route(ctx.comm.intra.world_size(), &bags)
            };
            ctx.mbs[b].routing.request_keys = requests.clone();
            ctx.mbs[b].tower_bags = tower_bags;
            ctx.mbs[b].intra_idx_op = Some(ctx.comm.intra.all_to_all_indices_nonblocking(requests));
            Ok(())
        },
    )
}

fn add_answer<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::EmbeddingLookup,
            label: "claim intra indices + answer",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.mbs[b].intra_idx_op.take().expect("intra idx issued");
            // Shares the row-fetch label: index + rows form one lookup round
            // trip and merge into one measured segment (see `collect_comm_samples`).
            let incoming = wait_logged(
                op,
                ctx.waits,
                "intra-host row fetch AlltoAll (fwd)",
                SegmentKind::EmbeddingComm,
                CommScope::IntraHost,
            )?;
            ctx.mbs[b].replies = ctx.low.lookup.answer(&incoming)?;
            ctx.mbs[b].routing.served_keys = incoming;
            Ok(())
        },
    )
}

fn add_issue_rows<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::RowExchange,
            label: "issue intra rows",
        },
        deps,
        move |ctx: &mut Ctx| {
            let replies = std::mem::take(&mut ctx.mbs[b].replies);
            ctx.mbs[b].intra_rows_op = Some(ctx.comm.intra.all_to_all_nonblocking(replies));
            Ok(())
        },
    )
}

fn add_claim_rows<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::RowExchange,
            label: "claim intra rows",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.mbs[b].intra_rows_op.take().expect("intra rows issued");
            ctx.mbs[b].fetched = wait_logged(
                op,
                ctx.waits,
                "intra-host row fetch AlltoAll (fwd)",
                SegmentKind::EmbeddingComm,
                CommScope::IntraHost,
            )?;
            Ok(())
        },
    )
}

/// Inserted only at sub-FP32 precisions: decodes claimed row words (the
/// requester knows each owner's element count from its routing).
fn add_dequantize_rows<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::Dequantize,
            label: "dequantize intra rows",
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

fn add_tower_fwd<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::TowerForward,
            label: "pool + tower fwd",
        },
        deps,
        move |ctx: &mut Ctx| {
            let fetched = std::mem::take(&mut ctx.mbs[b].fetched);
            let low = &mut *ctx.low;
            let mb = &ctx.mbs[b];
            let record = &mut low.tower_records[b];
            let bags: Vec<&[Vec<usize>]> = mb.tower_bags.iter().map(Vec::as_slice).collect();
            low.lookup
                .pool_into(&bags, &mb.routing, &fetched, &mut record.input)?;
            let output = &mut low.tower_output;
            low.tower
                .forward_into(&record.input, output, &mut record.scratch)?;
            // Sliced back per source host.
            let w_mine = low.layout.tower_widths[low.layout.my_host];
            let sends = output
                .data()
                .chunks_exact(mb.batch.len() * w_mine)
                .map(<[f32]>::to_vec)
                .collect();
            ctx.mbs[b].out_sends = sends;
            Ok(())
        },
    )
}

fn add_issue_outputs<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::OutputExchange,
            label: "issue peer outputs",
        },
        deps,
        move |ctx: &mut Ctx| {
            let sends = std::mem::take(&mut ctx.mbs[b].out_sends);
            ctx.mbs[b].peer_out_op = Some(ctx.comm.peer.all_to_all_nonblocking(sends));
            Ok(())
        },
    )
}

fn add_claim_outputs<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::OutputExchange,
            label: "claim peer outputs",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.mbs[b].peer_out_op.take().expect("peer out issued");
            ctx.mbs[b].out_recv = wait_logged(
                op,
                ctx.waits,
                "peer tower-output AlltoAll (fwd)",
                SegmentKind::EmbeddingComm,
                CommScope::Peer,
            )?;
            Ok(())
        },
    )
}

fn add_dequantize_outputs<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::Dequantize,
            label: "dequantize peer outputs",
        },
        deps,
        move |ctx: &mut Ctx| {
            let mb_len = ctx.mbs[b].batch.len();
            let widths = &ctx.low.layout.tower_widths;
            let received = std::mem::take(&mut ctx.mbs[b].out_recv);
            let decoded = decode_shards(wire, received, |t| mb_len * widths[t])?;
            ctx.mbs[b].out_recv = decoded;
            Ok(())
        },
    )
}

fn add_dense<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::DenseForwardBackward,
            label: "dense fwd/bwd",
        },
        deps,
        move |ctx: &mut Ctx| {
            let received = std::mem::take(&mut ctx.mbs[b].out_recv);
            let mb_len = ctx.mbs[b].batch.len();
            let tower_blocks: Vec<Tensor> = received
                .into_iter()
                .enumerate()
                .map(|(t, flat)| {
                    Tensor::from_vec(vec![mb_len, ctx.low.layout.tower_widths[t]], flat)
                })
                .collect::<Result<_, _>>()?;
            let refs: Vec<&Tensor> = tower_blocks.iter().collect();
            let feature_block = Tensor::concat_cols(&refs)?;
            let dense_input = Tensor::from_vec(
                vec![mb_len, ctx.low.num_dense],
                ctx.mbs[b].batch.dense_flat(),
            )?;
            // Exact per-sample weighting for unequal micro-batches (see the
            // baseline lowering); both factors are 1.0 under sync.
            let weight = mb_len as f32 / ctx.low.local_batch as f32;
            let low = &mut *ctx.low;
            let mut predictions = Vec::new();
            let loss = low.dense.forward_backward(
                &dense_input,
                &feature_block,
                &ctx.mbs[b].batch.labels,
                weight / ctx.inv_m,
                &mut predictions,
                &mut low.dense_scratch,
            )?;
            ctx.loss_sum += loss * f64::from(weight);
            ctx.scores.extend_from_slice(&predictions);
            ctx.labels.extend_from_slice(&ctx.mbs[b].batch.labels);
            let grad_pieces = low
                .dense_scratch
                .feature_grad()
                .split_cols(&low.layout.tower_widths)?;
            ctx.mbs[b].grad_sends = grad_pieces.into_iter().map(Tensor::into_vec).collect();
            Ok(())
        },
    )
}

fn add_issue_peer_grads<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::OutputExchange,
            label: "issue peer grads",
        },
        deps,
        move |ctx: &mut Ctx| {
            let sends = std::mem::take(&mut ctx.mbs[b].grad_sends);
            ctx.mbs[b].peer_grad_op = Some(ctx.comm.peer.all_to_all_nonblocking(sends));
            Ok(())
        },
    )
}

fn add_claim_peer_grads<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::OutputExchange,
            label: "claim peer grads",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.mbs[b].peer_grad_op.take().expect("peer grad issued");
            ctx.mbs[b].grad_recv = wait_logged(
                op,
                ctx.waits,
                "peer tower-grad AlltoAll (bwd)",
                SegmentKind::EmbeddingComm,
                CommScope::Peer,
            )?;
            Ok(())
        },
    )
}

fn add_dequantize_peer_grads<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::Dequantize,
            label: "dequantize peer grads",
        },
        deps,
        move |ctx: &mut Ctx| {
            let mb_len = ctx.mbs[b].batch.len();
            let w_mine = ctx.low.layout.tower_widths[ctx.low.layout.my_host];
            let received = std::mem::take(&mut ctx.mbs[b].grad_recv);
            let decoded = decode_shards(wire, received, |_| mb_len * w_mine)?;
            ctx.mbs[b].grad_recv = decoded;
            Ok(())
        },
    )
}

fn add_tower_bwd<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::TowerBackward,
            label: "tower bwd",
        },
        deps,
        move |ctx: &mut Ctx| {
            let received = std::mem::take(&mut ctx.mbs[b].grad_recv);
            let mb_len = ctx.mbs[b].batch.len();
            let hosts = ctx.low.layout.hosts;
            let w_mine = ctx.low.layout.tower_widths[ctx.low.layout.my_host];
            let mut grad_tower_out = Vec::with_capacity(hosts * mb_len * w_mine);
            for src in received {
                grad_tower_out.extend(src);
            }
            let grad_tower_out = Tensor::from_vec(vec![hosts * mb_len, w_mine], grad_tower_out)?;
            let low = &mut *ctx.low;
            let record = &mut low.tower_records[b];
            let grad = &mut low.tower_grad;
            low.tower
                .backward_into(&record.input, &mut record.scratch, &grad_tower_out, grad)?;
            let mb = &ctx.mbs[b];
            let bags: Vec<&[Vec<usize>]> = mb.tower_bags.iter().map(Vec::as_slice).collect();
            let grad_bufs = low
                .lookup
                .build_grad_bufs(&bags, &mb.routing, grad, ctx.inv_m);
            ctx.mbs[b].grad_bufs = grad_bufs;
            Ok(())
        },
    )
}

fn add_issue_intra_grads<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::GradExchange,
            label: "issue intra grads",
        },
        deps,
        move |ctx: &mut Ctx| {
            let bufs = std::mem::take(&mut ctx.mbs[b].grad_bufs);
            ctx.mbs[b].intra_grads_op = Some(ctx.comm.intra.all_to_all_nonblocking(bufs));
            Ok(())
        },
    )
}

fn add_claim_intra_grads<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], b: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::GradExchange,
            label: "claim intra grads",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.mbs[b]
                .intra_grads_op
                .take()
                .expect("intra grads issued");
            ctx.mbs[b].incoming = wait_logged(
                op,
                ctx.waits,
                "intra-host gradient AlltoAll (bwd)",
                SegmentKind::EmbeddingComm,
                CommScope::IntraHost,
            )?;
            Ok(())
        },
    )
}

fn add_dequantize_intra_grads<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::Dequantize,
            label: "dequantize intra grads",
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
            label: "merge intra grads",
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

// The AllReduces carry their codec inside the collective (`all_reduce_cast`,
// NCCL-datatype-style), so no separate Quantize/Dequantize node wraps them.

fn add_tower_ar_issue<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    wire: WireFormat,
) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::AllReduce,
            label: "issue tower AllReduce",
        },
        deps,
        move |ctx: &mut Ctx| {
            let flat = flatten_grads(&mut ctx.low.tower);
            ctx.tower_ar = Some(ctx.comm.intra.all_reduce_cast_nonblocking(flat, wire));
            Ok(())
        },
    )
}

fn add_tower_ar_claim<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], slots: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::AllReduce,
            label: "claim tower AllReduce",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.tower_ar.take().expect("tower allreduce issued");
            let flat = wait_logged(
                op,
                ctx.waits,
                "tower-module intra-host AllReduce",
                SegmentKind::DenseSync,
                CommScope::IntraHost,
            )?;
            let scale = ctx.inv_m / slots as f32;
            write_back_grads(&mut ctx.low.tower, &flat, scale);
            Ok(())
        },
    )
}

fn add_dense_ar_issue<'g>(
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
            ctx.dense_ar = Some(ctx.comm.global.all_reduce_cast_nonblocking(flat, wire));
            Ok(())
        },
    )
}

fn add_dense_ar_claim<'g>(g: &mut IterationGraph<'g, Ctx<'_>>, deps: &[Id], world: usize) -> Id {
    g.add(
        NodeMeta {
            kind: OpKind::AllReduce,
            label: "claim dense AllReduce",
        },
        deps,
        move |ctx: &mut Ctx| {
            let op = ctx.dense_ar.take().expect("dense allreduce issued");
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

/// Emits the per-micro-batch forward chain `decode → answer → [quantize] →
/// issue rows → claim rows → [dequantize] → tower fwd → [quantize] → issue
/// outputs` and returns the last node's id.
fn add_forward_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    dep: Id,
    b: usize,
    wire: WireFormat,
) -> Id {
    let mut prev = add_decode(g, &[dep], b);
    prev = add_answer(g, &[prev], b);
    if !wire.is_identity() {
        prev = add_quantize(
            g,
            &[prev],
            b,
            wire,
            |mb| &mut mb.replies,
            "quantize intra rows",
        );
    }
    prev = add_issue_rows(g, &[prev], b);
    prev = add_claim_rows(g, &[prev], b);
    if !wire.is_identity() {
        prev = add_dequantize_rows(g, &[prev], b, wire);
    }
    prev = add_tower_fwd(g, &[prev], b);
    if !wire.is_identity() {
        prev = add_quantize(
            g,
            &[prev],
            b,
            wire,
            |mb| &mut mb.out_sends,
            "quantize peer outputs",
        );
    }
    add_issue_outputs(g, &[prev], b)
}

/// Emits `claim outputs → [dequantize] → dense fwd/bwd → [quantize] → issue
/// peer grads` for micro-batch `b`.
fn add_dense_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    dep: Id,
    b: usize,
    wire: WireFormat,
) -> Id {
    let mut prev = add_claim_outputs(g, &[dep], b);
    if !wire.is_identity() {
        prev = add_dequantize_outputs(g, &[prev], b, wire);
    }
    prev = add_dense(g, &[prev], b);
    if !wire.is_identity() {
        prev = add_quantize(
            g,
            &[prev],
            b,
            wire,
            |mb| &mut mb.grad_sends,
            "quantize peer grads",
        );
    }
    add_issue_peer_grads(g, &[prev], b)
}

/// Emits `claim peer grads → [dequantize] → tower bwd → [quantize] → issue
/// intra grads` for micro-batch `b`.
fn add_backward_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    dep: Id,
    b: usize,
    wire: WireFormat,
) -> Id {
    let mut prev = add_claim_peer_grads(g, &[dep], b);
    if !wire.is_identity() {
        prev = add_dequantize_peer_grads(g, &[prev], b, wire);
    }
    prev = add_tower_bwd(g, &[prev], b);
    if !wire.is_identity() {
        prev = add_quantize(
            g,
            &[prev],
            b,
            wire,
            |mb| &mut mb.grad_bufs,
            "quantize intra grads",
        );
    }
    add_issue_intra_grads(g, &[prev], b)
}

/// Emits `claim intra grads → [dequantize] → merge` for micro-batch `b`.
fn add_merge_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    let mut prev = add_claim_intra_grads(g, deps, b);
    if !wire.is_identity() {
        prev = add_dequantize_intra_grads(g, &[prev], b, wire);
    }
    add_merge(g, &[prev], b)
}

impl RankLowering for DmtLowering {
    fn compute_label(&self) -> &'static str {
        "dense + tower-module compute"
    }

    fn run_graph(
        &mut self,
        comm: &mut RankComms,
        mbs: Vec<Batch>,
        waits: &mut Vec<WaitEntry>,
    ) -> Result<IterationStats, DistributedError> {
        HasParameters::zero_grad(&mut self.dense);
        HasParameters::zero_grad(&mut self.tower);
        let m = mbs.len();
        self.tower_records.resize_with(m, TowerRecord::default);
        let wire = self.wire;
        let world = comm.global.world_size();
        let slots = self.slots;
        let schedule = self.schedule;
        let mut ctx = Ctx {
            low: self,
            comm,
            waits,
            mbs: mbs
                .into_iter()
                .map(|batch| Mb {
                    batch,
                    ..Mb::default()
                })
                .collect(),
            tower_ar: None,
            dense_ar: None,
            inv_m: 1.0 / m as f32,
            loss_sum: 0.0,
            scores: Vec::new(),
            labels: Vec::new(),
        };

        let mut g: IterationGraph<Ctx> = IterationGraph::new();
        match schedule {
            // Blocking order: each SPTT step completes before the next begins;
            // the two AllReduces run back to back after the backward.
            ScheduleMode::Sync => {
                debug_assert_eq!(m, 1, "the sync schedule runs one micro-batch");
                let peer_route = add_peer_route(&mut g, &[], 0);
                let forwarded = add_forward_chain(&mut g, peer_route, 0, wire);
                let densed = add_dense_chain(&mut g, forwarded, 0, wire);
                let backed = add_backward_chain(&mut g, densed, 0, wire);
                let merged = add_merge_chain(&mut g, &[backed], 0, wire);
                let tower_ar = add_tower_ar_issue(&mut g, &[merged], wire);
                let tower_done = add_tower_ar_claim(&mut g, &[tower_ar], slots);
                let dense_ar = add_dense_ar_issue(&mut g, &[tower_done], wire);
                add_dense_ar_claim(&mut g, &[dense_ar], world);
            }
            // Overlapped order: peer index exchanges prefetched for every
            // micro-batch; the forward chain (decode → answer → tower forward)
            // runs depth-first per micro-batch so micro-batch `b`'s tower
            // compute hides `b+1`'s peer index transfer and the in-flight peer
            // output exchanges; both AllReduces launch right after the last
            // backward and ride their own worlds under the gradient merges.
            ScheduleMode::Pipelined => {
                let mut peer_routes = Vec::with_capacity(m);
                for b in 0..m {
                    peer_routes.push(add_peer_route(&mut g, &[], b));
                }
                let mut forwarded = Vec::with_capacity(m);
                for (b, &route) in peer_routes.iter().enumerate() {
                    forwarded.push(add_forward_chain(&mut g, route, b, wire));
                }
                let mut densed = Vec::with_capacity(m);
                for (b, &fwd) in forwarded.iter().enumerate() {
                    densed.push(add_dense_chain(&mut g, fwd, b, wire));
                }
                let mut backed = Vec::with_capacity(m);
                for (b, &dense) in densed.iter().enumerate() {
                    backed.push(add_backward_chain(&mut g, dense, b, wire));
                }
                let tower_ar = add_tower_ar_issue(&mut g, &[backed[m - 1]], wire);
                let dense_ar = add_dense_ar_issue(&mut g, &[backed[m - 1]], wire);
                let mut merges = Vec::with_capacity(m);
                for (b, &issued) in backed.iter().enumerate() {
                    merges.push(add_merge_chain(&mut g, &[issued, dense_ar], b, wire));
                }
                add_tower_ar_claim(&mut g, &[tower_ar, merges[m - 1]], slots);
                add_dense_ar_claim(&mut g, &[dense_ar], world);
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
        self.adam_dense.step(&mut self.dense);
        self.adam_tower.step(&mut self.tower);
        self.lookup.apply_rowwise_adagrad(self.learning_rate, 1e-8);
    }
}
