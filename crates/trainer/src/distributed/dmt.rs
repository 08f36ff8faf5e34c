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
//! Its six `f32` collectives — intra-host rows, peer outputs, peer gradients,
//! intra-host gradients and the tower and dense AllReduces — are declared once
//! as exchange descriptions; the shared builders of the `exchange` module emit
//! their nodes and, below FP32 wire precision, the codec nodes around the four
//! AlltoAlls. The peer *index* distribution always rides native `u64` width.

use super::config::{DistributedConfig, DistributedError, ScheduleMode};
use super::exchange::{self, AllReduce, AllToAll, Transfer};
use super::executor::{self, IterationStats, RankLowering};
use super::export::RankExport;
use super::graph::{IterationGraph, NodeMeta, OpKind};
use super::measure::{wait_logged, CommScope, RankOutcome, WaitEntry};
use super::model::{flatten_params, DenseScratch, DenseStack, LookupRouting, ShardedLookup};
use super::RankComms;
use dmt_comm::codec::WireFormat;
use dmt_comm::{Backend, PendingOp};
use dmt_commsim::SegmentKind;
use dmt_core::tower::TowerModule;
use dmt_core::{DlrmTowerModule, DlrmTowerScratch};
use dmt_data::Batch;
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
    tower_ar: Option<PendingOp<Vec<f32>>>,
    dense_ar: Option<PendingOp<Vec<f32>>>,
    adam_dense: AdamOptimizer,
    adam_tower: AdamOptimizer,
    /// The last iteration's decoded tower bags, one set per micro-batch: the
    /// next decode refills their capacity instead of allocating a `Vec` per
    /// bag (and freeing it at the end of the iteration).
    spare_bags: Vec<Vec<Vec<Vec<usize>>>>,
}

impl DmtLowering {
    fn new(config: &DistributedConfig, rank: usize) -> Result<Self, DistributedError> {
        use dmt_topology::Rank;
        use rand::SeedableRng;

        let schema = &config.schema;
        let cluster = &config.cluster;
        let n = config.hyper.embedding_dim;
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
            cluster.gpus_per_host(),
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
            learning_rate: config.learning_rate,
            lookup,
            tower,
            tower_records: Vec::new(),
            tower_output: Tensor::default(),
            tower_grad: Tensor::default(),
            dense,
            dense_scratch: DenseScratch::default(),
            tower_ar: None,
            dense_ar: None,
            adam_dense: AdamOptimizer::new(config.learning_rate),
            adam_tower: AdamOptimizer::new(config.learning_rate),
            spare_bags: Vec::new(),
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

/// Per-micro-batch DMT pipeline state. Payloads cross node boundaries through
/// the [`Transfer`]s of the declared exchanges.
#[derive(Default)]
struct Mb {
    batch: Batch,
    routing: LookupRouting,
    tower_bags: Vec<Vec<Vec<usize>>>,
    peer_idx_op: Option<PendingOp<Vec<Vec<u64>>>>,
    intra_idx_op: Option<PendingOp<Vec<Vec<u64>>>>,
    rows: Transfer,
    outputs: Transfer,
    peer_grads: Transfer,
    intra_grads: Transfer,
}

type Ctx<'a> = exchange::Ctx<'a, DmtLowering, Mb>;

type Id = super::StageId;

/// Intra-host row fetch: each owner's answered rows back to the requester,
/// who knows each owner's element count from its routing.
static ROWS: AllToAll<DmtLowering, Mb> = AllToAll {
    world: CommScope::IntraHost,
    kind: OpKind::RowExchange,
    quantize: "quantize intra rows",
    issue: "issue intra rows",
    claim: "claim intra rows",
    dequantize: "dequantize intra rows",
    wait: "intra-host row fetch AlltoAll (fwd)",
    transfer: |mb| &mut mb.rows,
    elements: |low, mb, owner| mb.routing.request_keys[owner].len() * low.n,
};

/// Compressed tower outputs back to each sample's host: tower `t` sends
/// `mb_len × width(t)` values.
static OUTPUTS: AllToAll<DmtLowering, Mb> = AllToAll {
    world: CommScope::Peer,
    kind: OpKind::OutputExchange,
    quantize: "quantize peer outputs",
    issue: "issue peer outputs",
    claim: "claim peer outputs",
    dequantize: "dequantize peer outputs",
    wait: "peer tower-output AlltoAll (fwd)",
    transfer: |mb| &mut mb.outputs,
    elements: |low, mb, t| mb.batch.len() * low.layout.tower_widths[t],
};

/// The tower outputs' gradients back to this rank's tower: every source host
/// sends `mb_len × width(mine)` values.
static PEER_GRADS: AllToAll<DmtLowering, Mb> = AllToAll {
    world: CommScope::Peer,
    kind: OpKind::OutputExchange,
    quantize: "quantize peer grads",
    issue: "issue peer grads",
    claim: "claim peer grads",
    dequantize: "dequantize peer grads",
    wait: "peer tower-grad AlltoAll (bwd)",
    transfer: |mb| &mut mb.peer_grads,
    elements: |low, mb, _| mb.batch.len() * low.layout.tower_widths[low.layout.my_host],
};

/// Embedding-row gradients back to the rows' intra-host owners.
static INTRA_GRADS: AllToAll<DmtLowering, Mb> = AllToAll {
    world: CommScope::IntraHost,
    kind: OpKind::GradExchange,
    quantize: "quantize intra grads",
    issue: "issue intra grads",
    claim: "claim intra grads",
    dequantize: "dequantize intra grads",
    wait: "intra-host gradient AlltoAll (bwd)",
    transfer: |mb| &mut mb.intra_grads,
    elements: |low, mb, src| mb.routing.served_keys[src].len() * low.n,
};

static TOWER_AR: AllReduce<DmtLowering, DlrmTowerModule> = AllReduce {
    world: CommScope::IntraHost,
    issue: "issue tower AllReduce",
    claim: "claim tower AllReduce",
    wait: "tower-module intra-host AllReduce",
    module: |low| &mut low.tower,
    op: |low| &mut low.tower_ar,
};

static DENSE_AR: AllReduce<DmtLowering, DenseStack> = AllReduce {
    world: CommScope::Global,
    issue: "issue dense AllReduce",
    claim: "claim dense AllReduce",
    wait: "dense gradient AllReduce",
    module: |low| &mut low.dense,
    op: |low| &mut low.dense_ar,
};

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
            let mut tower_bags = ctx.low.spare_bags.pop().unwrap_or_default();
            super::model::decode_tower_streams_into(
                &incoming,
                ctx.low.layout.my_features.len(),
                &vec![mb_len; incoming.len()],
                &mut tower_bags,
            );
            let routing = {
                let bags: Vec<&[Vec<usize>]> = tower_bags.iter().map(Vec::as_slice).collect();
                ctx.low.lookup.route(ctx.comm.intra.world_size(), &bags)
            };
            let requests = routing.request_keys.clone();
            ctx.mbs[b].routing = routing;
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
            ctx.mbs[b].rows.send = ctx.low.lookup.answer(&incoming)?;
            ctx.mbs[b].routing.served_keys = incoming;
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
            let fetched = std::mem::take(&mut ctx.mbs[b].rows.recv);
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
            ctx.mbs[b].outputs.send = sends;
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
            let received = std::mem::take(&mut ctx.mbs[b].outputs.recv);
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
            ctx.mbs[b].peer_grads.send = grad_pieces.into_iter().map(Tensor::into_vec).collect();
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
            let received = std::mem::take(&mut ctx.mbs[b].peer_grads.recv);
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
            ctx.mbs[b].intra_grads.send = grad_bufs;
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
            let incoming = std::mem::take(&mut ctx.mbs[b].intra_grads.recv);
            let routing = std::mem::take(&mut ctx.mbs[b].routing);
            ctx.low.lookup.merge_grads(&routing, incoming)?;
            Ok(())
        },
    )
}

/// Emits the per-micro-batch forward chain `decode → answer → send rows →
/// receive rows → tower fwd → send outputs` and returns the last node's id.
fn add_forward_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    dep: Id,
    b: usize,
    wire: WireFormat,
) -> Id {
    let decoded = add_decode(g, &[dep], b);
    let answered = add_answer(g, &[decoded], b);
    let sent = ROWS.send(g, &[answered], b, wire);
    let fetched = ROWS.recv(g, &[sent], b, wire);
    let forwarded = add_tower_fwd(g, &[fetched], b);
    OUTPUTS.send(g, &[forwarded], b, wire)
}

/// Emits `receive outputs → dense fwd/bwd → send peer grads` for micro-batch
/// `b`.
fn add_dense_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    dep: Id,
    b: usize,
    wire: WireFormat,
) -> Id {
    let received = OUTPUTS.recv(g, &[dep], b, wire);
    let densed = add_dense(g, &[received], b);
    PEER_GRADS.send(g, &[densed], b, wire)
}

/// Emits `receive peer grads → tower bwd → send intra grads` for micro-batch
/// `b`.
fn add_backward_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    dep: Id,
    b: usize,
    wire: WireFormat,
) -> Id {
    let received = PEER_GRADS.recv(g, &[dep], b, wire);
    let backed = add_tower_bwd(g, &[received], b);
    INTRA_GRADS.send(g, &[backed], b, wire)
}

/// Emits `receive intra grads → merge` for micro-batch `b`.
fn add_merge_chain<'g>(
    g: &mut IterationGraph<'g, Ctx<'_>>,
    deps: &[Id],
    b: usize,
    wire: WireFormat,
) -> Id {
    let received = INTRA_GRADS.recv(g, deps, b, wire);
    add_merge(g, &[received], b)
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
        let schedule = self.schedule;
        let mut ctx = Ctx::new(self, comm, waits, mbs, |batch| Mb {
            batch,
            ..Mb::default()
        });

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
                let tower_ar = TOWER_AR.issue(&mut g, &[merged], wire);
                let tower_done = TOWER_AR.claim(&mut g, &[tower_ar]);
                let dense_ar = DENSE_AR.issue(&mut g, &[tower_done], wire);
                DENSE_AR.claim(&mut g, &[dense_ar]);
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
                let tower_ar = TOWER_AR.issue(&mut g, &[backed[m - 1]], wire);
                let dense_ar = DENSE_AR.issue(&mut g, &[backed[m - 1]], wire);
                let mut merges = Vec::with_capacity(m);
                for (b, &issued) in backed.iter().enumerate() {
                    merges.push(add_merge_chain(&mut g, &[issued, dense_ar], b, wire));
                }
                TOWER_AR.claim(&mut g, &[tower_ar, merges[m - 1]]);
                DENSE_AR.claim(&mut g, &[dense_ar]);
            }
        }
        g.run(&mut ctx)?;
        for mb in &mut ctx.mbs {
            ctx.low.spare_bags.push(std::mem::take(&mut mb.tower_bags));
        }
        Ok(ctx.stats())
    }

    fn optimizer_step(&mut self) {
        self.adam_dense.step(&mut self.dense);
        self.adam_tower.step(&mut self.tower);
        self.lookup.apply_rowwise_adagrad(self.learning_rate, 1e-8);
    }
}
