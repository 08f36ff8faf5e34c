//! What the two stages hold and do: per-rank model state loaded from a
//! snapshot, the cache-fronted replica-aware fetch, and the lookup and dense
//! steps every placement runs.
//!
//! * `load_rank` is the one place a [`ModelSnapshot`] becomes a rank's
//!   shards (and, for DMT, its tower module); `DenseModel::load` is the one
//!   place it becomes a dense stack. A colocated rank holds both, a pooled
//!   lookup rank only the first, a dense-pool worker only the second.
//! * `RankModel::lookup` is the lookup stage. **Baseline**: this rank's
//!   queries are routed over the global world, fetched and pooled. **DMT**:
//!   the SPTT flow — peer index distribution to the owning tower's same-slot
//!   rank, the same fetch over the *intra-host* world, tower-module forward,
//!   and the compressed tower outputs back over the peer world. A rank called
//!   inline with no comm link — a world of its own — pools straight from its
//!   shard with no exchange and no allocation.
//! * `Fetcher::rows` is the one fetch: cached rows are peeled off, each owner's
//!   missed bundle goes to the first *live* holder of its replica chain, and
//!   with `replicas > 0` a second, always-issued round re-routes bundles a
//!   dead holder left unanswered. Replica rows are byte-identical snapshot
//!   slices, so failed-over answers are bit-identical to healthy ones.

use crate::cache::HotRowCache;
use crate::health::HealthView;
use crate::replica::ReplicatedAnswerer;
use crate::stats::Totals;
use crate::{DegradedPolicy, ResilienceConfig, ServeConfig, ServeError};
use dmt_comm::{
    AbortHandle, Backend, CommError, CommOp, FabricProfile, FaultInjectingBackend,
    SharedMemoryBackend,
};
use dmt_core::tower::TowerModule;
use dmt_core::{DlrmTowerModule, DlrmTowerScratch};
use dmt_data::Query;
use dmt_tensor::{Precision, Tensor};
use dmt_topology::{ClusterTopology, Rank};
use dmt_trainer::distributed::model::{self, load_params, DenseScratch, DenseStack, LookupRouting};
use dmt_trainer::distributed::{build_comms, ExecutionMode, ModelSnapshot};

/// Every serving collective runs through the fault-injection wrapper; with
/// [`dmt_comm::FaultProfile::none`] it is behaviorally transparent.
pub(crate) type ServeBackend = FaultInjectingBackend<SharedMemoryBackend>;

/// The dense stage: the snapshot's dense stack at the serving precision plus
/// every buffer its forward pass needs, reused across batches.
pub(crate) struct DenseModel {
    stack: DenseStack,
    num_dense: usize,
    input: Tensor,
    scratch: DenseScratch,
}

impl DenseModel {
    pub(crate) fn load(snapshot: &ModelSnapshot, precision: Precision) -> Result<Self, ServeError> {
        // The interaction geometry must match what training used, or the
        // exported weights will not load.
        let (unit_width, num_units) = match snapshot.mode {
            ExecutionMode::Baseline => (
                snapshot.hyper.embedding_dim,
                snapshot.schema.num_sparse() + 1,
            ),
            ExecutionMode::Dmt => {
                let groups =
                    model::tower_groups(snapshot.schema.num_sparse(), snapshot.num_towers)?;
                let units = model::tower_num_units(
                    &groups,
                    snapshot.tower_ensemble_c,
                    snapshot.tower_ensemble_p,
                );
                (snapshot.tower_output_dim, units)
            }
        };
        // Check the geometry against the weights before building for it: a
        // forged width must not size an allocation.
        let params = DenseStack::param_count(
            &snapshot.schema,
            snapshot.arch,
            &snapshot.hyper,
            unit_width,
            num_units,
        );
        if params != Some(snapshot.dense_params.len()) {
            return Err(ServeError::Config {
                reason: format!(
                    "snapshot geometry implies {params:?} dense parameters, it holds {}",
                    snapshot.dense_params.len()
                ),
            });
        }
        let mut stack = DenseStack::new(
            snapshot.seed,
            &snapshot.schema,
            snapshot.arch,
            &snapshot.hyper,
            unit_width,
            num_units,
        );
        load_params(&mut stack, &snapshot.dense_params)?;
        stack.quantize_weights(precision);
        Ok(Self {
            stack,
            num_dense: snapshot.schema.num_dense,
            input: Tensor::default(),
            scratch: DenseScratch::default(),
        })
    }

    /// Scores `queries` given their `[queries, width]` feature block, writing
    /// one click probability per query into `preds` (cleared first).
    pub(crate) fn forward(
        &mut self,
        queries: &[Query],
        features: &Tensor,
        preds: &mut Vec<f32>,
    ) -> Result<(), ServeError> {
        preds.clear();
        if queries.is_empty() {
            return Ok(());
        }
        self.input.reset_to_shape(&[queries.len(), self.num_dense]);
        for (row, q) in self
            .input
            .data_mut()
            .chunks_exact_mut(self.num_dense)
            .zip(queries)
        {
            if q.dense.len() != self.num_dense {
                return Err(ServeError::Config {
                    reason: format!(
                        "query has {} dense features, snapshot expects {}",
                        q.dense.len(),
                        self.num_dense
                    ),
                });
            }
            row.copy_from_slice(&q.dense);
        }
        self.stack
            .forward_infer(&self.input, features, preds, &mut self.scratch)?;
        Ok(())
    }
}

/// A DMT rank's share of the tower layer: its host's tower module, the
/// buffers its forward reuses across batches, and the layout of the peer
/// exchange around it.
struct Tower {
    module: DlrmTowerModule,
    input: Tensor,
    output: Tensor,
    scratch: DlrmTowerScratch,
    /// Sorted feature group of every tower (tower `t` lives on host `t`).
    groups: Vec<Vec<usize>>,
    /// Compressed output width of every tower.
    widths: Vec<usize>,
    host: usize,
    /// Global rank of each peer-world member (host-ascending, same slot).
    peer_ranks: Vec<usize>,
}

/// One lookup rank's loaded state.
pub(crate) struct RankModel {
    /// This rank's shard of the fetch world (every rank for baseline, the
    /// host's ranks for DMT) plus hosted replicas; also the router and pooler.
    answerer: ReplicatedAnswerer,
    cache: HotRowCache,
    tower: Option<Tower>,
    /// Present when dense runs on this rank.
    pub(crate) dense: Option<DenseModel>,
    row_buf: Vec<f32>,
    /// The lookup stage's output for the current batch slice.
    pub(crate) features: Tensor,
}

/// Builds lookup rank `rank` of `cluster` from the snapshot: shards every
/// table it serves, loads its tower (DMT) and, with `inline_dense`, its copy
/// of the dense stack.
pub(crate) fn load_rank(
    snapshot: &ModelSnapshot,
    cluster: &ClusterTopology,
    rank: usize,
    config: &ServeConfig,
    inline_dense: bool,
) -> Result<RankModel, ServeError> {
    use rand::SeedableRng;
    let dim = snapshot.hyper.embedding_dim;
    // The geometry sizes the buffers below; check it against the data first.
    if let Some(table) = snapshot.tables.iter().find(|t| t.dim != dim) {
        return Err(ServeError::Config {
            reason: format!(
                "table {} has dimension {}, the snapshot's embedding_dim is {dim}",
                table.feature, table.dim
            ),
        });
    }
    let dense = inline_dense
        .then(|| DenseModel::load(snapshot, config.precision))
        .transpose()?;
    let gpus = cluster.gpus_per_host();
    let (features, world, me, tower) = match snapshot.mode {
        ExecutionMode::Baseline => (
            (0..snapshot.schema.num_sparse()).collect(),
            cluster.world_size(),
            rank,
            None,
        ),
        ExecutionMode::Dmt => {
            // Same partition, sort order and width arithmetic as the trainer's
            // layout (`model::tower_*`), so the geometry cannot drift.
            let groups = model::tower_groups(snapshot.schema.num_sparse(), cluster.num_hosts())?;
            let (c, p, d) = (
                snapshot.tower_ensemble_c,
                snapshot.tower_ensemble_p,
                snapshot.tower_output_dim,
            );
            let host = cluster.host_of(Rank(rank));
            let slot = cluster.local_index(Rank(rank));
            let weights = snapshot
                .tower_params
                .get(host)
                .map_or(&[][..], Vec::as_slice);
            let params = DlrmTowerModule::param_count(groups[host].len(), dim, c, p, d);
            if params != Some(weights.len()) {
                return Err(ServeError::Config {
                    reason: format!(
                        "tower {host} geometry implies {params:?} parameters, the snapshot holds {}",
                        weights.len()
                    ),
                });
            }
            // Geometry first (any rng — every parameter is overwritten).
            let mut rng = rand::rngs::StdRng::seed_from_u64(snapshot.seed);
            let mut module = DlrmTowerModule::new(&mut rng, groups[host].len(), dim, c, p, d)
                .map_err(|e| ServeError::Config {
                    reason: e.to_string(),
                })?;
            load_params(&mut module, weights)?;
            module.quantize_weights(config.precision);
            let tower = Tower {
                module,
                input: Tensor::default(),
                output: Tensor::default(),
                scratch: DlrmTowerScratch::default(),
                widths: model::tower_widths(&groups, c, p, d),
                host,
                peer_ranks: (0..cluster.num_hosts())
                    .map(|h| cluster.ranks_on_host(h)[slot].0)
                    .collect(),
                groups,
            };
            (tower.groups[host].clone(), gpus, slot, Some(tower))
        }
    };
    Ok(RankModel {
        answerer: ReplicatedAnswerer::new(
            features,
            &snapshot.tables,
            world,
            me,
            config.resilience.replicas,
            gpus,
            config.precision,
        )?,
        cache: HotRowCache::with_precision(config.batch.cache_rows, dim, config.precision),
        tower,
        dense,
        row_buf: Vec::new(),
        features: Tensor::default(),
    })
}

/// Indices into [`RankLink::worlds`] and [`LinkControls`], mirroring the
/// trainer's three worlds.
pub(crate) const GLOBAL: usize = 0;
const INTRA: usize = 1;
const PEER: usize = 2;

/// One lookup rank's communicators, its view of the health of the world it
/// fetches rows through (global for baseline, intra-host for DMT) and the
/// fault policy it applies.
pub(crate) struct RankLink {
    worlds: [ServeBackend; 3],
    fetch: usize,
    health: HealthView,
    policy: ResilienceConfig,
}

impl RankLink {
    /// Adopts the membership the fetch world's shared down-set holds.
    pub(crate) fn sync_health(&mut self) {
        let shared = self.worlds[self.fetch].get_ref().down_ranks();
        self.health.sync_down(&shared);
    }

    /// Takes this rank out of the global world's rendezvous, releasing any
    /// peer still waiting for its deposit.
    pub(crate) fn retire(&self) {
        let global = self.worlds[GLOBAL].get_ref();
        global.mark_down(global.rank());
    }

    pub(crate) fn abort(&self) {
        self.worlds.iter().for_each(|world| world.get_ref().abort());
    }

    /// Moves the byte accounting of every collective since the last drain
    /// into `totals`.
    pub(crate) fn drain_bytes(&mut self, totals: &mut Totals) {
        for record in self.worlds.iter_mut().flat_map(Backend::drain_records) {
            if record.op == CommOp::AllToAllIndices {
                totals.index_bytes += record.payload_bytes;
            }
            totals.serve.payload_bytes += record.payload_bytes;
            totals.serve.cross_host_bytes += record.cross_host_bytes;
            totals.serve.intra_host_bytes += record.intra_host_bytes;
        }
    }
}

/// The dispatcher's detached handles into one rank's worlds: abort all three
/// to stop, `mark_up` on the global one for probe readmission (membership is a
/// property of the world baseline serving, the only deployment with failover,
/// fetches over).
pub(crate) type LinkControls = [AbortHandle; 3];

/// Builds every rank's [`RankLink`] over `cluster` and the dispatcher's
/// controls into them, each world wrapped in the fault injector and bounded
/// by the collective deadline.
pub(crate) fn build_links(
    cluster: &ClusterTopology,
    fabric: FabricProfile,
    mode: ExecutionMode,
    policy: &ResilienceConfig,
) -> Vec<(RankLink, LinkControls)> {
    let fetch = match mode {
        ExecutionMode::Baseline => GLOBAL,
        ExecutionMode::Dmt => INTRA,
    };
    // Serving comm lanes sit in a block disjoint from the trainer's so a
    // process that trains and then serves never lands two backends on one
    // timeline row.
    build_comms(cluster, fabric, "serve ", 1000)
        .into_iter()
        .map(|comms| {
            let worlds = [comms.global, comms.intra, comms.peer].map(|mut backend| {
                backend.set_op_timeout(policy.op_timeout);
                FaultInjectingBackend::new(backend, policy.faults.clone())
            });
            let controls = worlds.each_ref().map(|w| w.get_ref().abort_handle());
            let (world, me) = (worlds[fetch].world_size(), worlds[fetch].rank());
            let link = RankLink {
                worlds,
                fetch,
                health: HealthView::new(world, me, policy.down_after),
                policy: policy.clone(),
            };
            (link, controls)
        })
        .collect()
}

impl RankModel {
    /// This rank's shards: what they hold and at which precision.
    pub(crate) fn shards(&self) -> &ReplicatedAnswerer {
        &self.answerer
    }

    /// Moves this rank's cache counters since the last call, and its current
    /// resident bytes, into `totals`.
    pub(crate) fn drain_cache(&mut self, totals: &mut Totals) {
        totals.serve.cache.merge(&self.cache.take_stats());
        totals.serve.cache_resident_bytes += self.cache.resident_bytes();
    }

    /// The lookup stage: leaves the `[queries, width]` feature block of this
    /// rank's `queries` in `self.features`. `counts[r]` is the number of
    /// queries rank `r` holds of the same batch (DMT peers need each source's
    /// sample count); `link` is `None` only for a baseline rank that is a world
    /// of its own and called inline.
    pub(crate) fn lookup(
        &mut self,
        queries: &[Query],
        counts: &[usize],
        link: Option<&mut RankLink>,
        totals: &mut Totals,
    ) -> Result<(), ServeError> {
        let Some(tower) = &mut self.tower else {
            let Some(link) = link else {
                // Identity routing: every row is local, so pool straight out
                // of the shard into the feature block.
                self.answerer.primary().pool_local_into(
                    queries.len(),
                    |f, s| queries[s].sparse[f].as_slice(),
                    &mut self.row_buf,
                    &mut self.features,
                )?;
                return Ok(());
            };
            let bags: Vec<Vec<Vec<usize>>> = self
                .answerer
                .primary()
                .features()
                .iter()
                .map(|&f| queries.iter().map(|q| q.sparse[f].clone()).collect())
                .collect();
            return link
                .fetcher(&self.answerer, &mut self.cache, totals)
                .pooled(&bags, &mut self.features);
        };
        let link = link.expect("DMT towers exchange over the peer world");
        // SPTT step 1: distribute indices to the owning towers' same-slot
        // ranks, using the trainer's shared wire codec.
        let sends = model::encode_tower_streams(&tower.groups, queries.len(), |f, s| {
            queries[s].sparse[f].as_slice()
        });
        let incoming = link.worlds[PEER].all_to_all_indices(sends)?;
        let src_counts: Vec<usize> = tower.peer_ranks.iter().map(|&r| counts[r]).collect();
        let tower_bags =
            model::decode_tower_streams(&incoming, tower.groups[tower.host].len(), &src_counts);
        // Step 2: intra-host sharded lookup.
        link.fetcher(&self.answerer, &mut self.cache, totals)
            .pooled(&tower_bags, &mut tower.input)?;
        // Step 3: tower forward over the combined tower batch, sliced back
        // per source host.
        let width = tower.widths[tower.host];
        let out_sends: Vec<Vec<f32>> = if tower.input.shape()[0] == 0 {
            vec![Vec::new(); src_counts.len()]
        } else {
            tower
                .module
                .forward_into(&tower.input, &mut tower.output, &mut tower.scratch)?;
            let mut rest = tower.output.data();
            src_counts
                .iter()
                .map(|&b| {
                    let (mine, tail) = rest.split_at(b * width);
                    rest = tail;
                    mine.to_vec()
                })
                .collect()
        };
        // Step 4: compressed tower outputs ride back over the peer world.
        let out_recv = link.worlds[PEER].all_to_all(out_sends)?;
        if queries.is_empty() {
            self.features
                .reset_to_shape(&[0, tower.widths.iter().sum()]);
            return Ok(());
        }
        let blocks: Vec<Tensor> = out_recv
            .into_iter()
            .zip(&tower.widths)
            .map(|(flat, &w)| Tensor::from_vec(vec![queries.len(), w], flat))
            .collect::<Result<_, _>>()?;
        let refs: Vec<&Tensor> = blocks.iter().collect();
        Tensor::concat_cols_into(&refs, &mut self.features)?;
        Ok(())
    }

    /// The whole forward pass of a rank that is a world of its own, inline on
    /// the caller's thread: local pooling, then the dense stage. After a
    /// warm-up call per batch shape it performs no heap allocation.
    pub(crate) fn serve_local(
        &mut self,
        queries: &[Query],
        preds: &mut Vec<f32>,
    ) -> Result<(), ServeError> {
        self.lookup(queries, &[queries.len()], None, &mut Totals::default())?;
        let dense = self
            .dense
            .as_mut()
            .expect("an inline rank holds its dense stack");
        dense.forward(queries, &self.features, preds)
    }
}

/// One owner's share of a fetch: its request keys' rows in request order
/// (cache hits filled in, misses zero until a holder answers them) and the
/// missed keys with their row slots.
struct Bundle {
    rows: Vec<f32>,
    missed: Vec<u64>,
    slots: Vec<usize>,
    resolved: bool,
}

/// A fetch's routing, per-owner rows and lost keys (see `Fetcher::rows`).
type Fetch = (LookupRouting, Vec<Vec<f32>>, Vec<u64>);

/// Everything one fetch goes through: the rank's shards and cache, the fetch
/// world with this rank's view of its health, the fault policy, the batch's
/// accounting.
struct Fetcher<'a> {
    answerer: &'a ReplicatedAnswerer,
    cache: &'a mut HotRowCache,
    backend: &'a mut ServeBackend,
    health: &'a mut HealthView,
    policy: &'a ResilienceConfig,
    totals: &'a mut Totals,
}

impl RankLink {
    fn fetcher<'a>(
        &'a mut self,
        answerer: &'a ReplicatedAnswerer,
        cache: &'a mut HotRowCache,
        totals: &'a mut Totals,
    ) -> Fetcher<'a> {
        Fetcher {
            answerer,
            cache,
            backend: &mut self.worlds[self.fetch],
            health: &mut self.health,
            policy: &self.policy,
            totals,
        }
    }
}

impl Fetcher<'_> {
    /// Fetches and pools `bags` (feature-major, one bag per sample) into the
    /// `[samples, features · dim]` block `out`, applying the degraded-answer
    /// policy to rows with no live holder.
    fn pooled(&mut self, bags: &[Vec<Vec<usize>>], out: &mut Tensor) -> Result<(), ServeError> {
        let bags: Vec<&[Vec<usize>]> = bags.iter().map(Vec::as_slice).collect();
        let (routing, fetched, lost) = self.rows(&bags)?;
        if !lost.is_empty() {
            match self.policy.degraded {
                // Every collective of the fetch has already run, so failing
                // here cannot desync the world's sequence.
                DegradedPolicy::Error => return Err(ServeError::Unavailable { rows: lost.len() }),
                DegradedPolicy::ZeroFill => {
                    self.totals.serve.degraded_answers +=
                        self.answerer.queries_touching(&bags, &lost);
                }
            }
        }
        self.answerer
            .primary()
            .pool_into(&bags, &routing, &fetched, out)?;
        Ok(())
    }

    /// Issues one collective over `payload` with bounded retries on transient
    /// faults. Timeouts implicate their missing ranks in `health`; a peer
    /// convicted (`down_after` consecutive implications) is committed to the
    /// shared rendezvous down-set so the retried collective — and all later
    /// ones — complete without it. A collective consumes its payload, so a
    /// copy is kept only while another attempt can follow — never when no
    /// deadline is set and no fault is injected, since nothing can time out.
    fn retried<P: Clone, T>(
        &mut self,
        payload: P,
        op: impl Fn(&mut ServeBackend, P) -> Result<T, CommError>,
    ) -> Result<T, ServeError> {
        let can_time_out = self.policy.op_timeout.is_some() || !self.policy.faults.is_none();
        let mut attempts_left = if can_time_out {
            self.policy.max_retries
        } else {
            0
        };
        let mut payload = Some(payload);
        loop {
            let sent = if attempts_left == 0 {
                payload.take()
            } else {
                payload.clone()
            };
            match op(self.backend, sent.expect("kept until the last attempt")) {
                Ok(value) => {
                    self.health.record_success();
                    return Ok(value);
                }
                Err(error) if error.is_transient() && attempts_left > 0 => {
                    attempts_left -= 1;
                    self.totals.serve.retries += 1;
                    if let CommError::Timeout { missing, .. } = &error {
                        for rank in self.health.record_failure(missing) {
                            self.backend.get_ref().mark_down(rank);
                        }
                    }
                    std::thread::sleep(self.policy.retry_backoff);
                }
                Err(error) => return Err(error.into()),
            }
        }
    }

    /// The one fetch every placement and deployment uses (see the module
    /// docs): the routing, the per-owner row buffers in request-key order
    /// (zero-filled for lost keys), and the sorted lost keys themselves.
    ///
    /// Keys served from a shard this rank holds (its own, or a replica it
    /// hosts) bypass the cache: their "fetch" is a local memcpy through the
    /// self-loop, which moves no wire bytes. The second exchange round is
    /// issued whenever `replicas > 0` — always, so every rank's collective
    /// sequence stays aligned no matter how health views diverge; empty
    /// rounds carry no payload and cost no pacing.
    fn rows(&mut self, bags: &[&[Vec<usize>]]) -> Result<Fetch, ServeError> {
        let answerer = self.answerer;
        let (me, dim) = (self.backend.rank(), answerer.primary().dim());
        let routing = answerer.primary().route(self.backend.world_size(), bags);

        // Route each owner's bundle to its first live holder, peeling the
        // cache for anything not served from a local shard.
        let owners = routing.request_keys.len();
        let mut dest: Vec<Option<usize>> = Vec::with_capacity(owners);
        let mut bundles: Vec<Bundle> = Vec::with_capacity(owners);
        for (owner, keys) in routing.request_keys.iter().enumerate() {
            let holder = self
                .health
                .first_live(answerer.chain(owner).iter().copied());
            let mut bundle = Bundle {
                rows: Vec::with_capacity(keys.len() * dim),
                missed: Vec::new(),
                slots: Vec::new(),
                resolved: false,
            };
            for (slot, &key) in keys.iter().enumerate() {
                if holder == Some(me) || !self.cache.lookup_into(key, &mut bundle.rows) {
                    bundle.rows.extend(std::iter::repeat_n(0.0, dim));
                    bundle.missed.push(key);
                    bundle.slots.push(slot);
                }
            }
            bundle.resolved = bundle.missed.is_empty();
            dest.push(holder);
            bundles.push(bundle);
        }
        self.exchange(&dest, &mut bundles)?;
        if self.policy.replicas > 0 {
            // Re-route every bundle whose first holder went silent to the
            // next live holder in its chain. Health is re-synced first — the
            // holder that answered empty was usually convicted by some rank
            // mid-round.
            self.health.sync_down(&self.backend.get_ref().down_ranks());
            for (owner, tried) in dest.iter_mut().enumerate() {
                let untried = answerer.chain(owner).iter().copied();
                *tried = self
                    .health
                    .first_live(untried.filter(|&r| Some(r) != *tried));
            }
            self.exchange(&dest, &mut bundles)?;
        }

        // Rows no live holder answered stay zero; they are *not* cached — a
        // later batch with a recovered holder must fetch the real row.
        let mut lost: Vec<u64> = bundles
            .iter()
            .filter(|bundle| !bundle.resolved)
            .flat_map(|bundle| bundle.missed.iter().copied())
            .collect();
        lost.sort_unstable();
        lost.dedup();
        Ok((routing, bundles.into_iter().map(|b| b.rows).collect(), lost))
    }

    /// One exchange round: ships every unresolved bundle's missed keys to
    /// `dest[owner]` and files the rows that come back.
    fn exchange(
        &mut self,
        dest: &[Option<usize>],
        bundles: &mut [Bundle],
    ) -> Result<(), ServeError> {
        let (me, dim) = (self.backend.rank(), self.answerer.primary().dim());
        // Bundle per-owner misses into per-destination wire vectors,
        // remembering where each owner's segment starts.
        let mut wire: Vec<Vec<u64>> = vec![Vec::new(); dest.len()];
        let mut segment = vec![0usize; dest.len()];
        for (owner, bundle) in bundles.iter().enumerate() {
            if let Some(holder) = dest[owner].filter(|_| !bundle.resolved) {
                segment[owner] = wire[holder].len();
                wire[holder].extend_from_slice(&bundle.missed);
            }
        }
        let asked: Vec<usize> = wire.iter().map(Vec::len).collect();
        let incoming = self.retried(wire, |b, wire| b.all_to_all_indices(wire))?;
        let replies = self.answerer.answer(&incoming)?;
        let fetched = self.retried(replies, |b, rows| b.all_to_all(rows))?;
        for (owner, bundle) in bundles.iter_mut().enumerate() {
            let Some(holder) = dest[owner].filter(|_| !bundle.resolved) else {
                continue;
            };
            // Replies are all-or-nothing per requester: a live holder answers
            // its whole bundle, a dead or unservable one answers nothing. Any
            // other length is a protocol violation, not a fault.
            let reply = &fetched[holder];
            if reply.is_empty() {
                continue;
            }
            if reply.len() != asked[holder] * dim {
                return Err(ServeError::Rank {
                    rank: holder,
                    message: format!(
                        "fetch reply carries {} floats for {} requested rows",
                        reply.len(),
                        asked[holder]
                    ),
                });
            }
            let answered = reply[segment[owner] * dim..].chunks_exact(dim);
            for ((&key, &slot), row) in bundle.missed.iter().zip(&bundle.slots).zip(answered) {
                bundle.rows[slot * dim..(slot + 1) * dim].copy_from_slice(row);
                if holder != me {
                    self.cache.insert(key, row);
                }
            }
            if holder != owner {
                self.totals.serve.failovers += bundle.missed.len() as u64;
            }
            bundle.resolved = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_models::ModelArch;
    use dmt_topology::HardwareGeneration;
    use dmt_trainer::distributed::{run_with_snapshot, DistributedConfig};

    /// A snapshot whose geometry disagrees with the weights it carries is
    /// refused before anything is built for it: each width forged to 2⁴⁰
    /// returns `Err` from the rank loader instead of sizing an allocation, and
    /// one forged to `usize::MAX` returns `Err` instead of overflowing the
    /// geometry arithmetic — with the dense stack inline, and for the DMT
    /// tower widths also on a lookup-only rank, where the tower's own check
    /// must catch them.
    #[test]
    fn forged_snapshot_geometry_is_refused_before_building() {
        type Forgery = fn(&mut ModelSnapshot, usize);
        let baseline: &[(&str, Forgery)] = &[
            ("embedding_dim", |s, v| s.hyper.embedding_dim = v),
            ("bottom hidden", |s, v| s.hyper.bottom_mlp_hidden[0] = v),
            ("over hidden", |s, v| s.hyper.over_mlp_hidden[0] = v),
            ("num_dense", |s, v| s.schema.num_dense = v),
        ];
        let dmt: &[(&str, Forgery)] = &[
            ("tower_output_dim", |s, v| s.tower_output_dim = v),
            ("tower_ensemble_p", |s, v| s.tower_ensemble_p = v),
            ("tower_ensemble_c", |s, v| s.tower_ensemble_c = v),
        ];
        for (mode, hosts, forgeries, placements) in [
            (ExecutionMode::Baseline, 1, baseline, &[true][..]),
            (ExecutionMode::Dmt, 2, dmt, &[true, false][..]),
        ] {
            let cluster = ClusterTopology::new(HardwareGeneration::A100, hosts, 2).unwrap();
            let cfg = DistributedConfig::quick(cluster.clone(), ModelArch::Dlrm).with_iterations(1);
            let (_run, snapshot) = run_with_snapshot(&cfg, mode).unwrap();
            let config = ServeConfig::new(cluster.clone());
            assert!(load_rank(&snapshot, &cluster, 0, &config, true).is_ok());
            for (field, forge) in forgeries {
                for value in [1 << 40, usize::MAX] {
                    let mut forged = snapshot.clone();
                    forge(&mut forged, value);
                    for &inline_dense in placements {
                        let loaded = load_rank(&forged, &cluster, 0, &config, inline_dense);
                        assert!(
                            matches!(loaded, Err(ServeError::Config { .. })),
                            "{mode:?}: forged {field} = {value} is refused (inline dense: {inline_dense})"
                        );
                    }
                }
            }
        }
    }
}
