//! The one serving request path: front, lookup stage, optional rate-matching
//! queue, dense stage (the crate docs draw it).
//!
//! **Placement is a parameter, not an engine.** [`Pipeline::start`] is given
//! stage pools or it is not. Without them every rank of the configured cluster
//! runs lookup *and* dense on its slice of a batch. With them the lookup stage
//! gets [`StagePools::lookup_ranks`] ranks; the rank that files a batch's last
//! slice stitches the slices in rank order, paces the transfer and pushes the
//! batch into a bounded queue that [`StagePools::dense_ranks`] workers drain.
//! That queue is the disaggregation contract: when the dense stage falls
//! behind, the lookup stage *blocks* instead of buffering unboundedly —
//! backpressure reaches admission as rising occupancy, and admission sheds by
//! priority class long before queueing delay can blow a deadline.
//!
//! # Faults
//!
//! Every collective runs through a `dmt_comm::FaultInjectingBackend`, so
//! scripted faults ([`crate::ResilienceConfig::faults`]) surface as the same
//! `RankDown` / `Timeout` errors real failures would. The fetch retries
//! transient failures, convicts peers that stay missing and fails over to
//! replica holders (see [`crate::model`]). The front treats fault errors on a
//! baseline deployment as survivable: the batch fails, a rank that reported
//! its own death is left out of later batches, and probing
//! ([`crate::ResilienceConfig::probe_every_batches`]) readmits ranks the fault
//! schedule does not hold permanently down. Any other error — or any error on
//! a DMT deployment, which has no replica path — poisons the pipeline.
//!
//! No terminal outcome is lost: every admitted request ends as exactly one
//! [`CompletedRequest`] or as one sequence number inside a
//! [`ServeError::Failed`], and [`StageStats`] counts both.

use crate::admission::{batcher_close_by, AdmissionController};
use crate::batcher::{BatcherConfig, MicroBatcher};
use crate::model::{build_links, load_rank, DenseModel, LinkControls, RankLink, RankModel, GLOBAL};
use crate::request::{Priority, Request};
use crate::stats::{ServeStats, StageStats, Totals};
use crate::{ServeConfig, ServeError};
use dmt_comm::{AbortHandle, CommError, FaultProfile};
use dmt_data::Query;
use dmt_metrics::trace;
use dmt_tensor::Tensor;
use dmt_topology::ClusterTopology;
use dmt_trainer::distributed::{ExecutionMode, ModelSnapshot};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a caller waits on the stages before declaring a rank lost. Paced
/// fabrics stretch transfers to milliseconds; minutes means a dead worker.
const RANK_REPLY_TIMEOUT: Duration = Duration::from_secs(300);

/// Shape of a pooled deployment: how many ranks each stage gets and how fast
/// the modeled link between them moves bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagePools {
    /// Embedding-lookup ranks (the tables are row-sharded `lookup_ranks` ways).
    pub lookup_ranks: usize,
    /// Dense-compute ranks (each holds a full replica of the dense stack).
    pub dense_ranks: usize,
    /// Modeled bandwidth of the lookup→dense link in bytes/second; each
    /// stitched batch's transfer is paced at this rate before it enters the
    /// rate-matching queue (0 = unpaced).
    pub xfer_bytes_per_s: u64,
}

impl StagePools {
    /// Pools of `lookup_ranks` lookup and `dense_ranks` dense ranks with an
    /// unpaced stage link.
    #[must_use]
    pub fn new(lookup_ranks: usize, dense_ranks: usize) -> Self {
        Self {
            lookup_ranks,
            dense_ranks,
            xfer_bytes_per_s: 0,
        }
    }

    /// Paces the lookup→dense link at `bytes_per_s`.
    #[must_use]
    pub fn with_xfer_bytes_per_s(mut self, bytes_per_s: u64) -> Self {
        self.xfer_bytes_per_s = bytes_per_s;
        self
    }
}

/// One answered request, as harvested from [`Pipeline::drain`]. Completions
/// are tagged with the sequence number [`Pipeline::offer`] returned and may
/// arrive out of submission order (independent dense ranks).
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// The sequence number `offer` returned for this request.
    pub seq: u64,
    /// Admission tick on the engine clock, microseconds.
    pub arrival_us: u64,
    /// The request's absolute deadline ([`crate::NO_DEADLINE`] = none).
    pub deadline_us: u64,
    /// The request's priority class.
    pub priority: Priority,
    /// Completion tick on the engine clock, microseconds.
    pub done_us: u64,
    /// One prediction per query, bit-identical to a training-side forward over
    /// the same batch.
    pub preds: Vec<f32>,
}

impl CompletedRequest {
    /// Sojourn time in microseconds: admission to completion, queueing
    /// included. This — not per-stage service time — is what the request
    /// experienced.
    #[must_use]
    pub fn sojourn_us(&self) -> u64 {
        self.done_us.saturating_sub(self.arrival_us)
    }

    /// Whether the request completed inside its deadline (deadline-free
    /// requests always did).
    #[must_use]
    pub fn met_deadline(&self) -> bool {
        self.done_us <= self.deadline_us
    }
}

/// An admitted request while the stages work: its record, completed in place
/// when its batch returns, and how many of the batch's queries are its own.
struct Ticket {
    record: CompletedRequest,
    size: usize,
}

/// One dispatched batch, shared by every lookup rank working on it.
struct Batch {
    id: u64,
    queries: Vec<Query>,
    /// Rank `r` answers the `counts[r]` queries after those of the ranks
    /// before it; ranks left out of the batch hold none.
    counts: Vec<usize>,
    /// Parts still missing, and the parts filed so far by rank.
    gather: Mutex<(usize, Vec<Option<Part>>)>,
}

/// One lookup rank's share of a batch: predictions for its slice when dense
/// runs inline, its slice of the feature block otherwise.
struct Part {
    rows: Result<Vec<f32>, ServeError>,
    totals: Totals,
}

impl Batch {
    /// Files `rank`'s part; the rank that files the last one gets them all.
    fn deposit(&self, rank: usize, part: Part) -> Option<Vec<Option<Part>>> {
        let mut gather = self.gather.lock().expect("a depositing rank panicked");
        let (missing, parts) = &mut *gather;
        parts[rank] = Some(part);
        *missing -= 1;
        (*missing == 0).then(|| std::mem::take(parts))
    }
}

/// A stitched batch crossing the rate-matching queue into the dense stage.
struct DenseJob {
    batch: Arc<Batch>,
    features: Vec<f32>,
    totals: Totals,
}

/// A batch's predictions in query order, or every `(rank, error)` that
/// failed it.
type Outcome = Result<Vec<f32>, Vec<(usize, ServeError)>>;

/// A batch's terminal report to the front.
struct Reply {
    batch: u64,
    outcome: Outcome,
    done_us: u64,
    totals: Totals,
}

/// Where a stage worker sends what it finishes.
#[derive(Clone)]
struct Outlet {
    epoch: Instant,
    replies: Sender<Reply>,
    /// The rate-matching queue and its link pacing, when dense is pooled.
    dense_queue: Option<(SyncSender<DenseJob>, u64)>,
}

impl Outlet {
    fn reply(&self, batch: u64, outcome: Outcome, totals: Totals) {
        // A dropped front no longer wants the answer.
        let _ = self.replies.send(Reply {
            batch,
            outcome,
            done_us: micros_since(self.epoch),
            totals,
        });
    }

    /// Runs on the rank that filed a batch's last part: concatenates the
    /// parts in rank order and either reports the batch (dense already ran on
    /// every slice) or ships the stitched feature block to the dense stage.
    fn finish(&self, batch: Arc<Batch>, parts: Vec<Option<Part>>) {
        let mut totals = Totals::default();
        let mut rows = Vec::new();
        let mut errors = Vec::new();
        for (rank, part) in parts.into_iter().enumerate() {
            let Some(part) = part else { continue };
            totals.absorb(&part.totals);
            match part.rows {
                Ok(mut part_rows) => rows.append(&mut part_rows),
                Err(error) => errors.push((rank, error)),
            }
        }
        if !errors.is_empty() {
            return self.reply(batch.id, Err(errors), totals);
        }
        let Some((queue, xfer_bytes_per_s)) = &self.dense_queue else {
            return self.reply(batch.id, Ok(rows), totals);
        };
        let dense_floats: usize = batch.queries.iter().map(|q| q.dense.len()).sum();
        let xfer = 4 * (rows.len() + dense_floats) as u64;
        totals.xfer_bytes += xfer;
        if *xfer_bytes_per_s > 0 {
            let _pace = trace::span(trace::cat::SERVE, || "stage link xfer".to_string());
            std::thread::sleep(Duration::from_secs_f64(
                xfer as f64 / *xfer_bytes_per_s as f64,
            ));
        }
        // The enqueue span makes dense-stage backpressure visible: it covers
        // any time this rank spends blocked on the full rate-matching queue.
        let _enqueue = trace::span(trace::cat::SERVE, || "stage queue".to_string());
        let job = DenseJob {
            batch,
            features: rows,
            totals,
        };
        if let Err(std::sync::mpsc::SendError(job)) = queue.send(job) {
            self.reply(job.batch.id, Err(vec![(0, stages_down())]), job.totals);
        }
    }
}

/// Records `event(lane, now)` on the caller's lane while its scope is traced.
fn traced(event: impl FnOnce(trace::Track, f64) -> trace::TraceEvent) {
    if trace::tracing_enabled() {
        trace::emit(event(trace::current_track(), trace::clock_s()));
    }
}

/// Names the calling stage worker's timeline lane.
fn register_lane(name: &str, tid: usize) {
    let pid = trace::deployment::SERVE;
    let tid = tid as u64;
    trace::register_thread("serve", name, trace::Track { pid, tid });
}

fn poisoned() -> ServeError {
    ServeError::Config {
        reason: "engine is poisoned by an earlier failure".into(),
    }
}

fn micros_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

fn stages_down() -> ServeError {
    ServeError::Rank {
        rank: 0,
        message: "stage workers disconnected".into(),
    }
}

/// How close an error is to a failure's root cause: a rank's own death report
/// beats the liveness errors it causes elsewhere, which beat the abort cascades
/// of a teardown.
fn error_score(error: &ServeError) -> u8 {
    match error {
        ServeError::Comm(CommError::RankDown { .. }) => 0,
        ServeError::Unavailable { .. } => 1,
        ServeError::Comm(CommError::Timeout { .. }) => 2,
        ServeError::Comm(CommError::Aborted) => 4,
        _ => 3,
    }
}

/// One lookup rank: per batch, the lookup stage on its slice, then either the
/// dense stage inline or its slice of the feature block, filed with the batch.
fn lookup_worker(
    rank: usize,
    mut model: RankModel,
    mut link: RankLink,
    jobs: &Receiver<Arc<Batch>>,
    outlet: &Outlet,
) {
    register_lane(&format!("lookup{rank}"), rank);
    while let Ok(batch) = jobs.recv() {
        // Adopt membership changes peers or the dispatcher committed (deaths
        // and probe readmissions) before routing anything.
        link.sync_health();
        let start: usize = batch.counts[..rank].iter().sum();
        let slice = &batch.queries[start..][..batch.counts[rank]];
        let mut totals = Totals::default();
        let mut span = trace::span(trace::cat::SERVE, || "lookup + pool".to_string());
        if let Some(span) = span.as_mut() {
            span.arg_u64("rank", rank as u64);
            span.arg_u64("queries", slice.len() as u64);
        }
        let looked_up = model.lookup(slice, &batch.counts, Some(&mut link), &mut totals);
        drop(span);
        let rows = looked_up.and_then(|()| match model.dense.as_mut() {
            Some(dense) => {
                let _span = trace::span(trace::cat::SERVE, || "dense forward".to_string());
                let mut preds = Vec::with_capacity(slice.len());
                dense.forward(slice, &model.features, &mut preds)?;
                Ok(preds)
            }
            None => Ok(std::mem::take(&mut model.features).into_vec()),
        });
        link.drain_bytes(&mut totals);
        model.drain_cache(&mut totals);
        // Fault errors are survivable: report and keep serving. A rank that
        // learns of its own death leaves the world first, which releases any
        // peer still waiting for its deposit. Anything else is fatal for the
        // whole pipeline — poison the worlds so peers blocked in a collective
        // fail out instead of hanging.
        let fatal = match &rows {
            Err(ServeError::Comm(CommError::RankDown { rank: down })) if *down == rank => {
                link.retire();
                false
            }
            Err(error) => !error.is_fault(),
            Ok(_) => false,
        };
        if fatal {
            link.abort();
        }
        if let Some(parts) = batch.deposit(rank, Part { rows, totals }) {
            outlet.finish(batch, parts);
        }
        if fatal {
            break;
        }
    }
}

/// One dense-pool rank: pull stitched batches off the shared queue end and
/// run the whole-batch dense forward.
fn dense_worker(
    index: usize,
    mut dense: DenseModel,
    jobs: &Mutex<Receiver<DenseJob>>,
    outlet: &Outlet,
) {
    register_lane(&format!("dense{index}"), 200 + index);
    loop {
        let job = jobs.lock().expect("a dense worker panicked").recv();
        let Ok(job) = job else { return };
        let queries = &job.batch.queries;
        let mut span = trace::span(trace::cat::SERVE, || "dense forward".to_string());
        if let Some(span) = span.as_mut() {
            span.arg_u64("queries", queries.len() as u64);
        }
        let width = job.features.len() / queries.len().max(1);
        let outcome = Tensor::from_vec(vec![queries.len(), width], job.features)
            .map_err(ServeError::from)
            .and_then(|features| {
                let mut preds = Vec::with_capacity(queries.len());
                dense.forward(queries, &features, &mut preds)?;
                Ok(preds)
            });
        drop(span);
        outlet.reply(
            job.batch.id,
            outcome.map_err(|error| vec![(index, error)]),
            job.totals,
        );
    }
}

/// Checks everything `start` is given once, and returns the cluster the
/// lookup stage runs on: the configured one when dense is colocated; when
/// pooled, `lookup_ranks` ranks spread over the configured hosts if they
/// divide evenly, else on one host.
fn plan(
    snapshot: &ModelSnapshot,
    pools: Option<&StagePools>,
    config: &ServeConfig,
) -> Result<ClusterTopology, ServeError> {
    let reject = |reason: String| Err(ServeError::Config { reason });
    let (batch, slo) = (&config.batch, &config.slo);
    if batch.max_batch == 0 || slo.stage_queue == 0 || slo.queue_bound == 0 {
        return reject(format!(
            "batch.max_batch ({}), slo.stage_queue ({}) and slo.queue_bound ({}) must be positive",
            batch.max_batch, slo.stage_queue, slo.queue_bound
        ));
    }
    let cluster = match pools {
        None => config.cluster.clone(),
        Some(pools) if pools.lookup_ranks == 0 || pools.dense_ranks == 0 => {
            return reject(format!(
                "both stage pools need ranks (got {} lookup, {} dense)",
                pools.lookup_ranks, pools.dense_ranks
            ));
        }
        Some(pools) => {
            let hosts = config.cluster.num_hosts();
            let hosts = if pools.lookup_ranks.is_multiple_of(hosts) {
                hosts
            } else {
                1
            };
            ClusterTopology::new(
                config.cluster.generation(),
                hosts,
                pools.lookup_ranks / hosts,
            )
            .expect("both dimensions are positive")
        }
    };
    if config.resilience.replicas >= cluster.world_size() {
        return reject(format!(
            "{} replicas need more than the {} lookup ranks available",
            config.resilience.replicas,
            cluster.world_size()
        ));
    }
    if snapshot.mode == ExecutionMode::Dmt {
        if cluster.num_hosts() != snapshot.num_towers {
            return reject(format!(
                "DMT snapshot has {} towers but the lookup stage spans {} hosts",
                snapshot.num_towers,
                cluster.num_hosts()
            ));
        }
        if snapshot.tower_params.len() != snapshot.num_towers {
            return reject("snapshot tower weights do not cover every tower".into());
        }
        if config.resilience.replicas > 0 {
            return reject(
                "shard replication needs intra-host failover on a DMT snapshot, which is not \
                 implemented; use replicas = 0"
                    .into(),
            );
        }
    }
    Ok(cluster)
}

/// A running deployment: the admission-fronted batcher on the caller's
/// thread, the lookup stage's rank workers and — when pooled — the bounded
/// queue and the dense stage's workers. See the [module docs](self).
pub struct Pipeline {
    mode: ExecutionMode,
    epoch: Instant,
    /// [`trace::clock_s`] at `epoch`, for stamping completions on the timeline.
    epoch_trace_s: f64,
    admission: AdmissionController,
    batcher: MicroBatcher<(Ticket, Vec<Query>)>,
    service_estimate_us: u64,
    next_seq: u64,
    next_batch: u64,
    /// One job channel per lookup rank; emptied to stop the workers.
    jobs: Vec<Sender<Arc<Batch>>>,
    controls: Vec<LinkControls>,
    replies: Receiver<Reply>,
    threads: Vec<std::thread::JoinHandle<()>>,
    in_flight: HashMap<u64, Vec<Ticket>>,
    done: Vec<CompletedRequest>,
    /// Failed batches not yet surfaced: their requests' sequence numbers and
    /// the root cause.
    failures: VecDeque<(Vec<u64>, ServeError)>,
    totals: Totals,
    poisoned: bool,
    /// Ranks that reported their own death; left out of batches until probed
    /// back up.
    dead: Vec<bool>,
    faults: FaultProfile,
    probe_every: u64,
    /// Batches dispatched so far (failed ones included) — the probe clock.
    dispatched: u64,
}

/// The pooled placement's historical name: a [`Pipeline`] started with
/// [`StagePools`].
pub type StagedEngine = Pipeline;

impl Pipeline {
    /// Loads `snapshot` and starts the stage workers. With `pools` the lookup
    /// stage gets `pools.lookup_ranks` ranks and the dense stage
    /// `pools.dense_ranks` workers behind a `config.slo.stage_queue`-deep
    /// queue; without (`None`) every rank of `config.cluster` runs both
    /// stages. Tables are re-sharded onto the lookup stage's ranks; a DMT
    /// snapshot needs that stage to span as many hosts as it has towers.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for anything the pipeline cannot serve: zero
    /// batch, queue or pool sizes, `replicas` not below the lookup world size
    /// or set on a DMT snapshot, a host/tower mismatch, or a snapshot whose
    /// weights do not match its declared geometry.
    pub fn start(
        snapshot: &ModelSnapshot,
        pools: impl Into<Option<StagePools>>,
        config: &ServeConfig,
    ) -> Result<Self, ServeError> {
        let pools = pools.into();
        let cluster = plan(snapshot, pools.as_ref(), config)?;
        let world = cluster.world_size();
        // Load everything up front so configuration errors surface here,
        // synchronously, instead of inside a worker thread.
        let models: Vec<RankModel> = (0..world)
            .map(|rank| load_rank(snapshot, &cluster, rank, config, pools.is_none()))
            .collect::<Result<_, _>>()?;
        let dense_pool: Vec<DenseModel> = (0..pools.map_or(0, |p| p.dense_ranks))
            .map(|_| DenseModel::load(snapshot, config.precision))
            .collect::<Result<_, _>>()?;
        let mut totals = Totals::default();
        totals.serve.replica_bytes = models.iter().map(|m| m.shards().replica_bytes()).sum();
        totals.serve.table_resident_bytes =
            models.iter().map(|m| m.shards().resident_bytes()).sum();

        let trace_epoch = trace::epoch_instant();
        let epoch = Instant::now();
        let (reply_tx, replies) = std::sync::mpsc::channel();
        let mut outlet = Outlet {
            epoch,
            replies: reply_tx,
            dense_queue: None,
        };
        let trace_scope = trace::current_scope();
        let mut threads = Vec::new();
        if let Some(pools) = pools {
            let (queue, dense_jobs) = sync_channel::<DenseJob>(config.slo.stage_queue);
            let dense_jobs = Arc::new(Mutex::new(dense_jobs));
            for (index, dense) in dense_pool.into_iter().enumerate() {
                let (jobs, outlet) = (Arc::clone(&dense_jobs), outlet.clone());
                threads.push(std::thread::spawn(move || {
                    trace::enter_scope(trace_scope);
                    dense_worker(index, dense, &jobs, &outlet);
                }));
            }
            outlet.dense_queue = Some((queue, pools.xfer_bytes_per_s));
        }
        let mut jobs = Vec::with_capacity(world);
        let mut controls = Vec::with_capacity(world);
        let links = build_links(&cluster, config.fabric, snapshot.mode, &config.resilience);
        for (rank, (model, (link, control))) in models.into_iter().zip(links).enumerate() {
            let (tx, rx) = std::sync::mpsc::channel::<Arc<Batch>>();
            let outlet = outlet.clone();
            jobs.push(tx);
            controls.push(control);
            threads.push(std::thread::spawn(move || {
                trace::enter_scope(trace_scope);
                lookup_worker(rank, model, link, &rx, &outlet);
            }));
        }
        Ok(Self {
            mode: snapshot.mode,
            epoch,
            epoch_trace_s: epoch.duration_since(trace_epoch).as_secs_f64(),
            admission: AdmissionController::new(&config.slo),
            batcher: MicroBatcher::new(BatcherConfig::new(
                config.batch.max_batch,
                config.batch.max_delay_us,
            )),
            service_estimate_us: config.slo.service_estimate_us,
            next_seq: 0,
            next_batch: 0,
            jobs,
            controls,
            replies,
            threads,
            in_flight: HashMap::new(),
            done: Vec::new(),
            failures: VecDeque::new(),
            totals,
            poisoned: false,
            dead: vec![false; world],
            faults: config.resilience.faults.clone(),
            probe_every: config.resilience.probe_every_batches,
            dispatched: 0,
        })
    }

    /// Lookup ranks currently left out of serving (they reported their own
    /// death and have not been probed back up), ascending.
    #[must_use]
    pub fn dead_ranks(&self) -> Vec<usize> {
        (0..self.dead.len()).filter(|&r| self.dead[r]).collect()
    }

    /// The engine's clock: microseconds since start. Deadlines in offered
    /// requests are absolute ticks on this clock.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        micros_since(self.epoch)
    }

    /// The engine-clock tick at which the batcher's deadline trigger will next
    /// fire, if anything is queued — what an idle driver should sleep until
    /// before calling [`Pipeline::pump`].
    #[must_use]
    pub fn next_close_us(&self) -> Option<u64> {
        self.batcher.next_deadline_us()
    }

    /// Replaces the batcher's close policy (a request stream brings its own).
    pub(crate) fn set_batching(&mut self, policy: BatcherConfig) {
        self.batcher.set_config(policy);
    }

    /// Offers a request to admission. Admitted requests join the batcher with
    /// a close deadline tight enough to honor their SLO budget and end as one
    /// completion or one failed sequence number from [`Pipeline::drain`];
    /// refused ones return [`ServeError::Shed`] immediately, before any
    /// batching or stage work.
    ///
    /// Returns the sequence number the request's outcome will carry.
    ///
    /// # Errors
    ///
    /// [`ServeError::Shed`] on refusal; [`ServeError::Config`] once the
    /// pipeline is poisoned.
    pub fn offer(&mut self, request: Request) -> Result<u64, ServeError> {
        let (ticket, queries) = self.admit(request)?;
        let seq = ticket.record.seq;
        let close_by = batcher_close_by(
            ticket.record.arrival_us,
            self.batcher.config().max_delay_us,
            ticket.record.deadline_us,
            self.service_estimate_us,
        );
        if let Some(batch) = self.batcher.push_by(close_by, (ticket, queries)) {
            self.dispatch(batch);
        }
        Ok(seq)
    }

    /// Answers one pre-formed batch and waits for it: `queries` bypass the
    /// batcher, are split into contiguous slices over the live lookup ranks,
    /// and come back as click probabilities in query order.
    ///
    /// # Errors
    ///
    /// The batch's root cause if a stage failed it. Fault errors
    /// ([`ServeError::is_fault`]) fail only this batch on a baseline
    /// deployment; anything else leaves the pipeline poisoned.
    pub fn submit(&mut self, queries: Vec<Query>) -> Result<Vec<f32>, ServeError> {
        if self.poisoned {
            return Err(poisoned());
        }
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let (ticket, queries) = self.admit(Request::new(queries))?;
        let seq = ticket.record.seq;
        self.dispatch(vec![(ticket, queries)]);
        let give_up = Instant::now() + RANK_REPLY_TIMEOUT;
        loop {
            if let Some(at) = self.done.iter().position(|c| c.seq == seq) {
                return Ok(self.done.swap_remove(at).preds);
            }
            if let Some(at) = self.failures.iter().position(|(s, _)| s.contains(&seq)) {
                let (_, cause) = self.failures.remove(at).expect("position is in range");
                return Err(cause);
            }
            if !self.wait(give_up.saturating_duration_since(Instant::now())) {
                self.poison();
                return Err(ServeError::Config {
                    reason: "timed out waiting for a rank".into(),
                });
            }
        }
    }

    /// Fires the batcher's deadline trigger against the engine clock. Call
    /// this between arrivals (the load harness does, every idle wait). Never
    /// fails: a batch the stages cannot take fails its requests, which
    /// [`Pipeline::drain`] reports.
    pub fn pump(&mut self) -> Result<(), ServeError> {
        if let Some(batch) = self.batcher.poll(self.now_us()) {
            self.dispatch(batch);
        }
        Ok(())
    }

    /// Closes and dispatches whatever the batcher holds, regardless of
    /// triggers (end of a request stream). Never fails, like
    /// [`Pipeline::pump`].
    pub fn flush(&mut self) -> Result<(), ServeError> {
        if let Some(batch) = self.batcher.flush() {
            self.totals.flush_closes += 1;
            self.dispatch(batch);
        }
        Ok(())
    }

    /// Blocks until the stages report a batch or `timeout` passes; whether one
    /// arrived. Its outcomes are ready for the next [`Pipeline::drain`].
    pub fn wait(&mut self, timeout: Duration) -> bool {
        match self.replies.recv_timeout(timeout) {
            Ok(reply) => {
                self.absorb(reply);
                true
            }
            Err(_) => false,
        }
    }

    /// Harvests every outcome the stages have produced so far without
    /// blocking, releasing their occupancy back to admission.
    ///
    /// # Errors
    ///
    /// Once there is no completion left to deliver, one failed batch per call
    /// as [`ServeError::Failed`], tagged with its requests' sequence numbers.
    pub fn drain(&mut self) -> Result<Vec<CompletedRequest>, ServeError> {
        while let Ok(reply) = self.replies.try_recv() {
            self.absorb(reply);
        }
        if self.done.is_empty() {
            if let Some((seqs, cause)) = self.failures.pop_front() {
                return Err(ServeError::Failed {
                    seqs,
                    cause: Box::new(cause),
                });
            }
        }
        Ok(std::mem::take(&mut self.done))
    }

    /// The front-and-stages view of the accounting so far.
    #[must_use]
    pub fn stats(&self) -> StageStats {
        let per_class = |count: fn(&AdmissionController, Priority) -> u64| {
            Priority::ALL.map(|class| count(&self.admission, class))
        };
        StageStats {
            queries: self.totals.serve.queries,
            batches: self.totals.serve.batches,
            index_bytes: self.totals.index_bytes,
            row_bytes: self.totals.serve.payload_bytes - self.totals.index_bytes,
            xfer_bytes: self.totals.xfer_bytes,
            pred_bytes: self.totals.pred_bytes,
            size_closes: self.batcher.size_closes(),
            deadline_closes: self.batcher.deadline_closes(),
            flush_closes: self.totals.flush_closes,
            admitted_by_class: per_class(AdmissionController::admitted_count),
            shed_by_class: per_class(AdmissionController::shed_count),
            failed: self.totals.failed,
            max_occupancy: self.admission.max_occupancy(),
        }
    }

    /// The byte, fault and cache view of the accounting so far.
    #[must_use]
    pub fn serve_stats(&self) -> ServeStats {
        self.totals.serve
    }

    /// Flushes the batcher, waits for every batch in flight, stops the
    /// workers, and returns every outcome not yet drained plus the final
    /// accounting. Requests that failed on the way are counted in
    /// [`StageStats::failed`]; drain before shutting down to see their
    /// sequence numbers and causes. Never fails: completions are not withheld
    /// because a sibling failed.
    pub fn shutdown(mut self) -> Result<(Vec<CompletedRequest>, StageStats), ServeError> {
        self.flush()?;
        let give_up = Instant::now() + RANK_REPLY_TIMEOUT;
        while !self.in_flight.is_empty()
            && self.wait(give_up.saturating_duration_since(Instant::now()))
        {}
        self.stop();
        while let Ok(reply) = self.replies.try_recv() {
            self.absorb(reply);
        }
        // Whatever is still in flight lost its workers.
        let stranded: Vec<Ticket> = self.in_flight.drain().flat_map(|(_, t)| t).collect();
        if !stranded.is_empty() {
            self.fail(stranded, stages_down());
        }
        Ok((std::mem::take(&mut self.done), self.stats()))
    }

    /// Admission: refuses the request, or gives it a sequence number.
    fn admit(&mut self, request: Request) -> Result<(Ticket, Vec<Query>), ServeError> {
        if self.poisoned {
            return Err(poisoned());
        }
        let now = self.now_us();
        let Request {
            queries,
            deadline_us,
            priority,
        } = request;
        let size = queries.len();
        if let Err(error) = self.admission.try_admit(now, size, deadline_us, priority) {
            // A shed is a terminal outcome too: mark it on the timeline so the
            // trace shows load-shedding episodes alongside the served requests.
            traced(|track, at| {
                trace::TraceEvent::instant(track, trace::cat::REQUEST, "shed".into(), at)
                    .arg_str("priority", priority.to_string())
                    .arg_u64("queries", size as u64)
            });
            return Err(error);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        // The request's lifetime on the timeline: an async span keyed by its
        // sequence number, opened here and closed where the front absorbs its
        // terminal outcome (done or failed).
        traced(|track, at| {
            trace::TraceEvent::async_begin(track, trace::cat::REQUEST, "request".into(), seq, at)
                .arg_u64("seq", seq)
                .arg_str("priority", priority.to_string())
                .arg_u64("queries", size as u64)
        });
        let record = CompletedRequest {
            seq,
            arrival_us: now,
            deadline_us,
            priority,
            done_us: 0,
            preds: Vec::new(),
        };
        Ok((Ticket { record, size }, queries))
    }

    /// Splits a closed batch over the live lookup ranks and hands it to them.
    fn dispatch(&mut self, admitted: Vec<(Ticket, Vec<Query>)>) {
        traced(|track, at| {
            trace::TraceEvent::instant(track, trace::cat::SERVE, "batch close".into(), at)
                .arg_u64("requests", admitted.len() as u64)
        });
        let mut tickets = Vec::with_capacity(admitted.len());
        let mut queries = Vec::with_capacity(admitted.iter().map(|(t, _)| t.size).sum());
        for (ticket, mut request_queries) in admitted {
            tickets.push(ticket);
            queries.append(&mut request_queries);
        }
        if self.poisoned {
            return self.fail(tickets, poisoned());
        }
        // Probe: periodically readmit dead ranks the fault schedule does not
        // hold permanently down. Paced by dispatches (failed batches count —
        // under heavy faults successes may be rare, and recovery must not wait
        // on them), and only between batches: with the workers idle, flipping
        // membership cannot race a collective.
        let attempt = self.dispatched;
        self.dispatched += 1;
        let probe_due =
            self.probe_every > 0 && attempt > 0 && attempt.is_multiple_of(self.probe_every);
        if probe_due && self.in_flight.is_empty() {
            for rank in 0..self.dead.len() {
                if self.dead[rank] && !self.faults.permanently_down(rank) {
                    self.controls[rank][GLOBAL].mark_up(rank);
                    self.dead[rank] = false;
                }
            }
        }
        let world = self.dead.len();
        let live: Vec<usize> = (0..world).filter(|&r| !self.dead[r]).collect();
        if live.is_empty() {
            let reason = "every serving rank is dead".into();
            return self.fail(tickets, ServeError::Config { reason });
        }
        let (base, rem) = (queries.len() / live.len(), queries.len() % live.len());
        let mut counts = vec![0usize; world];
        for (slot, &rank) in live.iter().enumerate() {
            counts[rank] = base + usize::from(slot < rem);
        }
        let id = self.next_batch;
        self.next_batch += 1;
        let batch = Arc::new(Batch {
            id,
            queries,
            counts,
            gather: Mutex::new((live.len(), (0..world).map(|_| None).collect())),
        });
        for &rank in &live {
            if self.jobs[rank].send(Arc::clone(&batch)).is_err() {
                // The batch can no longer gather every part.
                self.poison();
                let message = "worker thread is gone".into();
                return self.fail(tickets, ServeError::Rank { rank, message });
            }
        }
        self.in_flight.insert(id, tickets);
    }

    /// Books one batch's terminal report: completions or a failure for its
    /// requests, its accounting, and what its errors say about the ranks.
    fn absorb(&mut self, reply: Reply) {
        let Some(tickets) = self.in_flight.remove(&reply.batch) else {
            return;
        };
        let preds = match reply.outcome {
            Ok(preds) => preds,
            Err(errors) => {
                // A rank that reported its own death sits out until probed.
                for (rank, error) in &errors {
                    if matches!(error, ServeError::Comm(CommError::RankDown { rank: down })
                            if down == rank)
                    {
                        self.dead[*rank] = true;
                    }
                }
                // Surface the error closest to the root cause.
                let (_, cause) = errors
                    .into_iter()
                    .min_by_key(|(_, error)| error_score(error))
                    .expect("a failed batch carries an error");
                // Baseline serving survives rank deaths (replicas, degraded
                // mode); DMT has no replica path, so a fault there is final.
                if !(self.mode == ExecutionMode::Baseline && cause.is_fault()) {
                    self.poison();
                }
                return self.fail(tickets, cause);
            }
        };
        // Only answered batches are accounted: how far a failed batch's
        // fetches got races the failure, so its partial bytes, retries and
        // cache traffic would make the stats unrepeatable. Its requests are
        // counted in `failed`.
        self.totals.serve.cache_resident_bytes = 0;
        self.totals.absorb(&reply.totals);
        self.totals.serve.batches += 1;
        self.totals.serve.queries += preds.len() as u64;
        self.totals.pred_bytes += 4 * preds.len() as u64;
        let mut rest = preds.as_slice();
        for Ticket { mut record, size } in tickets {
            let (mine, tail) = rest.split_at(size);
            rest = tail;
            self.admission.release(size);
            record.done_us = reply.done_us;
            record.preds = mine.to_vec();
            traced(|track, _| {
                self.request_end(track, &record)
                    .arg_u64("sojourn_us", record.sojourn_us())
            });
            self.done.push(record);
        }
    }

    /// Ends `tickets` as failed: occupancy released, counted, and queued for
    /// [`Pipeline::drain`] under their sequence numbers. Failure is a terminal
    /// outcome: each request's async lifecycle span closes here too, so traced
    /// begin/end pairs stay balanced on every path.
    fn fail(&mut self, tickets: Vec<Ticket>, cause: ServeError) {
        let now = self.now_us();
        let mut seqs = Vec::with_capacity(tickets.len());
        for Ticket { mut record, size } in tickets {
            self.admission.release(size);
            record.done_us = now;
            traced(|track, _| {
                self.request_end(track, &record)
                    .arg_str("outcome", "failed")
            });
            seqs.push(record.seq);
        }
        self.totals.failed += seqs.len() as u64;
        self.failures.push_back((seqs, cause));
    }

    /// The closing edge of a request's lifecycle span, at its `done_us`.
    fn request_end(&self, track: trace::Track, record: &CompletedRequest) -> trace::TraceEvent {
        let at = self.epoch_trace_s + record.done_us as f64 * 1e-6;
        trace::TraceEvent::async_end(track, trace::cat::REQUEST, "request".into(), record.seq, at)
            .arg_u64("seq", record.seq)
    }

    fn poison(&mut self) {
        self.poisoned = true;
        self.controls.iter().flatten().for_each(AbortHandle::abort);
    }

    /// Stops the workers. Closing the job channels lets idle lookup ranks
    /// exit; a rank can still be blocked inside a collective (e.g. waiting on
    /// a peer that died with no deadline configured), so every world is
    /// aborted too and blocked ranks fail out instead of hanging the join.
    /// The dense workers follow once the last lookup rank drops its queue end.
    pub(crate) fn stop(&mut self) {
        self.jobs.clear();
        self.controls.iter().flatten().for_each(AbortHandle::abort);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for Pipeline {
    fn drop(&mut self) {
        self.stop();
    }
}
