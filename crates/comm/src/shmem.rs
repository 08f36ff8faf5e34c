//! Thread-per-rank shared-memory implementation of the [`Backend`] trait.
//!
//! Every rank of a communicator world is a `std::thread`; the data plane is a
//! generation-counted rendezvous: each rank deposits its contribution under a mutex,
//! the last arrival publishes the full set, and every rank reads what it needs from
//! the published snapshot. Reductions walk the snapshot in rank order, so results are
//! bit-identical to a serial left-to-right fold — the property the engine's
//! determinism tests and the paper's semantic-preservation argument rely on.
//!
//! Wire-byte accounting maps each (source, destination) pair onto the cluster's link
//! classes (see [`SharedMemoryComm::for_group`]), and an optional [`FabricProfile`]
//! paces each call to the modeled link bandwidths so measured wall-clock times expose
//! the topology effect the paper is about.
//!
//! # Nonblocking path
//!
//! The `*_nonblocking` collectives return a [`PendingOp`] immediately and run the
//! whole transfer — rendezvous, reduction and fabric pacing — on a per-handle
//! **helper thread**, so the rank's own thread keeps computing while bytes are "on
//! the wire". The helper is spawned lazily on the first nonblocking call; a backend
//! that only ever uses the blocking API stays exactly on the original in-line path.
//! Once the helper exists, blocking calls are routed through it too (issue + wait),
//! which preserves the one invariant everything rests on: **ops on one handle run in
//! issue order**, like ops on a CUDA stream. Every completed op logs an [`OpRecord`]
//! stamped with issue/complete instants on the process-wide clock
//! ([`comm_clock_s`]), making per-op overlap measurable after the fact.

use crate::backend::{Backend, CommError, CommOp, OpRecord};
use crate::fabric::FabricProfile;
use crate::pending::PendingOp;
use dmt_topology::{ClusterTopology, LinkKind, ProcessGroup};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The process-wide monotonic epoch all [`OpRecord`] timestamps are measured
/// from — the trace recorder's epoch, so op records and trace spans share one
/// clock.
fn comm_epoch() -> Instant {
    dmt_metrics::trace::epoch_instant()
}

/// Seconds elapsed on the process-wide communication clock.
///
/// All backends in a process — regardless of which world they belong to — stamp
/// their [`OpRecord::issued_at_s`] / [`OpRecord::completed_at_s`] on this clock, so
/// op intervals from different worlds (global, intra-host, peer) on the same rank
/// are directly comparable when reconstructing an overlap schedule. This is the
/// same epoch as [`dmt_metrics::trace::clock_s`]: every span the trace recorder
/// captures is directly comparable to every op record.
#[must_use]
pub fn comm_clock_s() -> f64 {
    dmt_metrics::trace::clock_s()
}

/// Where one backend's trace events land: the lane, plus the rank / world
/// scope tags the trace-side overlap recomputation keys on.
#[derive(Debug, Clone, Copy)]
pub struct TraceTarget {
    /// Lane the events render on (one per rank × scope, under the comm
    /// deployment).
    pub track: dmt_metrics::trace::Track,
    /// Global rank that issues on this backend.
    pub rank: u64,
    /// World scope name (`"Global"`, `"IntraHost"`, `"Peer"`), matching the
    /// trainer's `CommScope` vocabulary.
    pub scope: &'static str,
}

/// A generation-counted all-to-all rendezvous over one payload type.
///
/// `exchange(rank, value, op, deadline)` blocks until every *live* rank of the
/// world has deposited, then returns the full rank-ordered set of deposits. A fast
/// rank may re-enter the next generation immediately: the published snapshot of
/// generation `g` can only be replaced once every live rank has returned from `g`
/// (each must deposit again before a new snapshot forms), so no rank can miss its
/// snapshot.
///
/// # Failure semantics
///
/// Three failure paths keep the world observable instead of deadlocked:
///
/// - **Poison** ([`Rendezvous::poison`]): the world is dead; every waiter and every
///   later entry gets [`CommError::Aborted`].
/// - **Deadline**: a rank that waited past its per-collective deadline *withdraws
///   its own deposit* and returns [`CommError::Timeout`] naming the ranks that had
///   not arrived. Because the deposit is withdrawn, a retry re-deposits the same
///   payload into the same still-pending generation — each generation completes
///   exactly once no matter which ranks timed out and retried, so live ranks never
///   diverge on the collective sequence.
/// - **Down-marking** ([`Rendezvous::mark_down`]): a rank its peers declared dead is
///   excluded from the arrival condition; pending and future generations complete
///   without it, with [`Default::default`] standing in for its contribution (an
///   empty shard). The down rank itself is *fenced*: any exchange it attempts fails
///   with [`CommError::RankDown`] until [`Rendezvous::mark_up`] readmits it at the
///   current generation, so a wrongly-suspected rank can never silently desync the
///   sequence.
struct Rendezvous<T> {
    state: Mutex<RendezvousState<T>>,
    all_arrived: Condvar,
}

struct RendezvousState<T> {
    deposits: Vec<Option<T>>,
    published: Arc<Vec<T>>,
    /// Instant the current `published` snapshot formed (the last rank's arrival):
    /// the moment the collective's transfer can begin.
    published_at: Instant,
    arrived: usize,
    generation: u64,
    /// Set when a rank died mid-iteration; waiting ranks fail with
    /// [`CommError::Aborted`] instead of blocking on a deposit that will never
    /// arrive.
    poisoned: bool,
    /// Ranks the world's survivors have declared dead; they no longer count toward
    /// the arrival condition and are fenced out until marked up again.
    down: Vec<bool>,
    /// Highest generation each rank has consumed a snapshot of. A rank whose
    /// counter lags the world's generation missed a snapshot while excluded and is
    /// fenced (its view of the collective sequence is behind its peers').
    consumed: Vec<u64>,
    /// Ranks that deposited into the *pending* generation at least once, even if
    /// they later withdrew on a timeout. A timeout's `missing` list implicates
    /// only ranks that never arrived — a peer that merely timed out alongside us
    /// (and withdrew to retry) is not a liveness suspect.
    ever_arrived: Vec<bool>,
}

impl<T: Default> Rendezvous<T> {
    fn new(world: usize) -> Self {
        Self {
            state: Mutex::new(RendezvousState {
                deposits: (0..world).map(|_| None).collect(),
                published: Arc::new(Vec::new()),
                published_at: Instant::now(),
                arrived: 0,
                generation: 0,
                poisoned: false,
                down: vec![false; world],
                consumed: vec![0; world],
                ever_arrived: vec![false; world],
            }),
            all_arrived: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RendezvousState<T>> {
        match self.state.lock() {
            Ok(state) => state,
            Err(poisoned_lock) => poisoned_lock.into_inner(),
        }
    }

    /// Marks the world dead and wakes every waiter; see
    /// [`SharedMemoryBackend::abort`].
    fn poison(&self) {
        let mut state = self.lock();
        state.poisoned = true;
        self.all_arrived.notify_all();
    }

    /// Publishes the pending generation if every rank has either deposited or been
    /// marked down (down ranks contribute `T::default()`). Returns whether a new
    /// snapshot formed; the caller must `notify_all` if it did.
    fn try_publish(state: &mut RendezvousState<T>) -> bool {
        if state.arrived == 0 {
            return false;
        }
        let complete = state
            .deposits
            .iter()
            .zip(&state.down)
            .all(|(slot, &down)| slot.is_some() || down);
        if !complete {
            return false;
        }
        let all: Vec<T> = state
            .deposits
            .iter_mut()
            .map(|slot| slot.take().unwrap_or_default())
            .collect();
        state.published = Arc::new(all);
        state.published_at = Instant::now();
        state.arrived = 0;
        state.generation += 1;
        state.ever_arrived.iter_mut().for_each(|a| *a = false);
        true
    }

    /// Excludes `rank` from the arrival condition; if it was the only missing
    /// deposit, the pending generation publishes immediately with an empty
    /// contribution in its slot.
    fn mark_down(&self, rank: usize) {
        let mut state = self.lock();
        if state.down[rank] {
            return;
        }
        state.down[rank] = true;
        if Self::try_publish(&mut state) {
            self.all_arrived.notify_all();
        }
    }

    /// Readmits `rank` at the current generation: it re-enters the collective
    /// sequence as if it had consumed every snapshot published while it was out.
    fn mark_up(&self, rank: usize) {
        let mut state = self.lock();
        state.down[rank] = false;
        state.consumed[rank] = state.generation;
    }

    fn is_down(&self, rank: usize) -> bool {
        self.lock().down[rank]
    }

    fn down_ranks(&self) -> Vec<usize> {
        let state = self.lock();
        (0..state.down.len()).filter(|&r| state.down[r]).collect()
    }

    /// Deposits this rank's contribution and blocks until every live rank has done
    /// the same. Returns the full rank-ordered set plus the instant the set formed,
    /// so callers can time the transfer itself rather than their wait for
    /// stragglers. `op` labels any [`CommError::Timeout`]; `deadline` bounds the
    /// wait (`None` waits forever, failing only on poison).
    fn exchange(
        &self,
        rank: usize,
        value: T,
        op: CommOp,
        deadline: Option<Duration>,
    ) -> Result<(Arc<Vec<T>>, Instant), CommError> {
        let start = Instant::now();
        let mut state = self.state.lock().expect("rendezvous lock poisoned");
        if state.poisoned {
            return Err(CommError::Aborted);
        }
        if state.down[rank] {
            return Err(CommError::RankDown { rank });
        }
        if state.consumed[rank] != state.generation {
            // The world published a snapshot without this rank while it was marked
            // down; it is behind the collective sequence and must stay fenced
            // (`consumed` is left stale on purpose) until `mark_up` readmits it.
            return Err(CommError::RankDown { rank });
        }
        debug_assert!(state.deposits[rank].is_none(), "rank deposited twice");
        state.deposits[rank] = Some(value);
        state.arrived += 1;
        state.ever_arrived[rank] = true;
        let target = state.generation;
        if Self::try_publish(&mut state) {
            self.all_arrived.notify_all();
            state.consumed[rank] = state.generation;
            return Ok((Arc::clone(&state.published), state.published_at));
        }
        while state.generation == target {
            if state.poisoned {
                return Err(CommError::Aborted);
            }
            match deadline {
                None => {
                    state = self
                        .all_arrived
                        .wait(state)
                        .expect("rendezvous lock poisoned");
                }
                Some(limit) => {
                    let Some(remaining) = limit.checked_sub(start.elapsed()) else {
                        // Deadline expired with the generation still pending:
                        // withdraw our deposit (so a retry can re-deposit into this
                        // same generation) and report who had not arrived.
                        state.deposits[rank] = None;
                        state.arrived -= 1;
                        let missing = (0..state.down.len())
                            .filter(|&r| r != rank && !state.ever_arrived[r] && !state.down[r])
                            .collect();
                        return Err(CommError::Timeout {
                            op,
                            waited_ms: start.elapsed().as_millis() as u64,
                            missing,
                        });
                    };
                    let (guard, _) = self
                        .all_arrived
                        .wait_timeout(state, remaining)
                        .expect("rendezvous lock poisoned");
                    state = guard;
                }
            }
        }
        if state.generation != target + 1 {
            // We slept through more than one generation — possible only while
            // marked down (peers force-completed collectives without us). The
            // snapshot our deposit went into is gone; fence this rank.
            return Err(CommError::RankDown { rank });
        }
        state.consumed[rank] = state.generation;
        Ok((Arc::clone(&state.published), state.published_at))
    }
}

/// Factory for shared-memory communicator worlds.
///
/// A world is created once and hands out one [`SharedMemoryBackend`] per rank; the
/// caller moves each handle into its rank's thread. See [`Backend`] for the
/// collective-call contract.
pub struct SharedMemoryComm;

impl SharedMemoryComm {
    /// Creates a world of `world_size` ranks with uniform (intra-host) link
    /// classification and no fabric pacing — the configuration unit tests and
    /// micro-benchmarks use.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::EmptyWorld`] if `world_size` is zero.
    pub fn handles(world_size: usize) -> Result<Vec<SharedMemoryBackend>, CommError> {
        if world_size == 0 {
            return Err(CommError::EmptyWorld);
        }
        let links: Vec<Vec<LinkKind>> = (0..world_size)
            .map(|me| {
                (0..world_size)
                    .map(|other| {
                        if me == other {
                            LinkKind::Local
                        } else {
                            LinkKind::IntraHost
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(Self::build(links, FabricProfile::unthrottled()))
    }

    /// Creates a world for `group`, mapping each pair of member ranks onto the link
    /// class they would communicate over in `cluster`, paced by `fabric`.
    ///
    /// Handles are returned in group order: handle `i` plays the group's `i`-th rank.
    #[must_use]
    pub fn for_group(
        cluster: &ClusterTopology,
        group: &ProcessGroup,
        fabric: FabricProfile,
    ) -> Vec<SharedMemoryBackend> {
        let ranks = group.ranks();
        let links: Vec<Vec<LinkKind>> = ranks
            .iter()
            .map(|&a| ranks.iter().map(|&b| cluster.link_between(a, b)).collect())
            .collect();
        Self::build(links, fabric)
    }

    fn build(links: Vec<Vec<LinkKind>>, fabric: FabricProfile) -> Vec<SharedMemoryBackend> {
        let world = links.len();
        let floats = Arc::new(Rendezvous::new(world));
        let indices = Arc::new(Rendezvous::new(world));
        links
            .into_iter()
            .enumerate()
            .map(|(rank, rank_links)| SharedMemoryBackend {
                core: OpCore {
                    rank,
                    world,
                    links: rank_links,
                    floats: Arc::clone(&floats),
                    indices: Arc::clone(&indices),
                    fabric,
                    timeout: Arc::new(Mutex::new(None)),
                    records: Arc::new(Mutex::new(Vec::new())),
                    trace: Arc::new(Mutex::new(None)),
                    op_seq: Arc::new(std::sync::atomic::AtomicU64::new(0)),
                },
                helper: None,
            })
            .collect()
    }
}

/// Wire bytes a rank pushes in a flat-ring schedule moving `per_rank_bytes` of useful
/// payload: `bytes * (W-1)/W * multiplier` to its ring successor.
fn ring_bytes(per_rank_bytes: u64, world: usize, multiplier: u64) -> u64 {
    if world <= 1 {
        return 0;
    }
    multiplier * per_rank_bytes * (world as u64 - 1) / world as u64
}

/// Everything needed to *run* a collective for one rank — shared verbatim between
/// the rank's own thread (blocking path) and its helper thread (nonblocking path),
/// so both paths execute the identical data plane.
#[derive(Clone)]
struct OpCore {
    rank: usize,
    world: usize,
    /// Link class from this rank to every other member, in group order.
    links: Vec<LinkKind>,
    floats: Arc<Rendezvous<Vec<Vec<f32>>>>,
    indices: Arc<Rendezvous<Vec<Vec<u64>>>>,
    fabric: FabricProfile,
    /// Per-collective rendezvous deadline, shared with the helper thread so
    /// [`SharedMemoryBackend::set_op_timeout`] applies to in-flight handles too.
    timeout: Arc<Mutex<Option<Duration>>>,
    /// Completed-op log, shared with the helper thread.
    records: Arc<Mutex<Vec<OpRecord>>>,
    /// Trace lane for this backend's op events (`None` until the deployment
    /// assigns one); shared with the helper thread, which logs most records.
    trace: Arc<Mutex<Option<TraceTarget>>>,
    /// Monotone per-backend op sequence, assigned in record-log order so the
    /// trace-side wait↔op pairing replays the exact FIFO the live engine uses.
    op_seq: Arc<std::sync::atomic::AtomicU64>,
}

impl OpCore {
    fn op_timeout(&self) -> Option<Duration> {
        *self.timeout.lock().expect("timeout lock poisoned")
    }

    /// Returns [`CommError::RankDown`] naming the first rank whose contribution is
    /// an empty placeholder (it was marked down, so `T::default()` stood in).
    /// The reduction family calls this before touching payloads: a reduction needs
    /// every rank's contribution, so a dead peer is an error, not an empty shard.
    fn reject_down_contribution<U>(all: &[Vec<U>]) -> Result<(), CommError> {
        if let Some(rank) = all.iter().position(Vec::is_empty) {
            return Err(CommError::RankDown { rank });
        }
        Ok(())
    }
    /// Splits per-destination byte counts into (cross-host, intra-host) totals.
    fn classify(&self, per_dest_bytes: impl Iterator<Item = (usize, u64)>) -> (u64, u64) {
        let mut cross = 0;
        let mut intra = 0;
        for (dest, bytes) in per_dest_bytes {
            match self.links[dest] {
                LinkKind::Local => {}
                LinkKind::IntraHost => intra += bytes,
                LinkKind::CrossHost => cross += bytes,
            }
        }
        (cross, intra)
    }

    /// Ring-successor byte classification for the reduction family.
    fn classify_ring(&self, wire_bytes: u64) -> (u64, u64) {
        if self.world <= 1 || wire_bytes == 0 {
            return (0, 0);
        }
        let successor = (self.rank + 1) % self.world;
        match self.links[successor] {
            LinkKind::Local => (0, 0),
            LinkKind::IntraHost => (0, wire_bytes),
            LinkKind::CrossHost => (wire_bytes, 0),
        }
    }

    /// Stalls to the fabric target, then logs the record.
    ///
    /// `transfer_start` is the instant the collective's data became available (every
    /// rank arrived): elapsed time is measured from there, so a rank's wait for
    /// stragglers counts as caller imbalance, not communication — the convention
    /// collective benchmarks use when reporting transfer time. `issued_at` is when
    /// the caller handed the op to the backend, stamped on [`comm_clock_s`].
    fn finish(
        &self,
        op: CommOp,
        payload_bytes: u64,
        cross: u64,
        intra: u64,
        transfer_start: Instant,
        issued_at: Instant,
    ) {
        let target = self.fabric.target_duration(cross, intra);
        loop {
            let elapsed = transfer_start.elapsed();
            if elapsed >= target {
                break;
            }
            std::thread::sleep(target - elapsed);
        }
        let epoch = comm_epoch();
        let record = OpRecord {
            op,
            payload_bytes,
            cross_host_bytes: cross,
            intra_host_bytes: intra,
            elapsed_s: transfer_start.elapsed().as_secs_f64(),
            issued_at_s: issued_at.duration_since(epoch).as_secs_f64(),
            completed_at_s: comm_clock_s(),
        };
        let mut records = self.records.lock().expect("record log lock poisoned");
        // Sequence numbers are taken under the record lock so trace `seq`
        // order and record log (drain) order can never disagree.
        if dmt_metrics::trace::tracing_enabled() {
            if let Some(target) = *self.trace.lock().expect("trace target lock poisoned") {
                let seq = self
                    .op_seq
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                dmt_metrics::trace::emit(
                    dmt_metrics::trace::TraceEvent::complete(
                        target.track,
                        dmt_metrics::trace::cat::COMM,
                        record.op.to_string(),
                        record.completed_at_s - record.elapsed_s,
                        record.elapsed_s,
                    )
                    .arg_u64("rank", target.rank)
                    .arg_u64("seq", seq)
                    .arg_str("scope", target.scope)
                    .arg_u64("payload_bytes", record.payload_bytes)
                    .arg_u64("cross_host_bytes", record.cross_host_bytes)
                    .arg_u64("intra_host_bytes", record.intra_host_bytes),
                );
            }
        }
        records.push(record);
    }

    fn barrier(&self, issued_at: Instant) -> Result<(), CommError> {
        let (_, transfer_start) =
            self.floats
                .exchange(self.rank, Vec::new(), CommOp::Barrier, self.op_timeout())?;
        self.finish(CommOp::Barrier, 0, 0, 0, transfer_start, issued_at);
        Ok(())
    }

    fn all_to_all(
        &self,
        sends: Vec<Vec<f32>>,
        issued_at: Instant,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        if sends.len() != self.world {
            return Err(CommError::ShardCountMismatch {
                got: sends.len(),
                expected: self.world,
            });
        }
        let payload: u64 = sends.iter().map(|s| 4 * s.len() as u64).sum();
        let (cross, intra) = self.classify(
            sends
                .iter()
                .enumerate()
                .map(|(d, s)| (d, 4 * s.len() as u64)),
        );
        let (all, transfer_start) =
            self.floats
                .exchange(self.rank, sends, CommOp::AllToAll, self.op_timeout())?;
        // A rank marked down contributes an empty placeholder; its shard to every
        // destination reads as empty (the caller's failover layer re-fetches).
        let received: Vec<Vec<f32>> = all
            .iter()
            .map(|from| from.get(self.rank).cloned().unwrap_or_default())
            .collect();
        self.finish(
            CommOp::AllToAll,
            payload,
            cross,
            intra,
            transfer_start,
            issued_at,
        );
        Ok(received)
    }

    fn all_to_all_indices(
        &self,
        sends: Vec<Vec<u64>>,
        issued_at: Instant,
    ) -> Result<Vec<Vec<u64>>, CommError> {
        if sends.len() != self.world {
            return Err(CommError::ShardCountMismatch {
                got: sends.len(),
                expected: self.world,
            });
        }
        let payload: u64 = sends.iter().map(|s| 8 * s.len() as u64).sum();
        let (cross, intra) = self.classify(
            sends
                .iter()
                .enumerate()
                .map(|(d, s)| (d, 8 * s.len() as u64)),
        );
        let (all, transfer_start) =
            self.indices
                .exchange(self.rank, sends, CommOp::AllToAllIndices, self.op_timeout())?;
        let received: Vec<Vec<u64>> = all
            .iter()
            .map(|from| from.get(self.rank).cloned().unwrap_or_default())
            .collect();
        self.finish(
            CommOp::AllToAllIndices,
            payload,
            cross,
            intra,
            transfer_start,
            issued_at,
        );
        Ok(received)
    }

    /// Quantized AllReduce: each rank deposits its contribution *encoded* at
    /// `wire` precision, every rank decodes all contributions and folds them in
    /// rank order at `f32`. One rounding per contribution — the semantics of a
    /// quantized-wire collective with full-precision accumulation — and the byte
    /// accounting (and fabric pacing) sees only the encoded ring traffic.
    fn all_reduce_cast(
        &self,
        buf: Vec<f32>,
        wire: crate::codec::WireFormat,
        issued_at: Instant,
    ) -> Result<Vec<f32>, CommError> {
        if wire.is_identity() {
            return self.all_reduce(buf, issued_at);
        }
        let len = buf.len();
        let encoded = crate::codec::encode(wire, buf);
        let (all, transfer_start) = self.floats.exchange(
            self.rank,
            vec![encoded],
            CommOp::AllReduce,
            self.op_timeout(),
        )?;
        Self::reject_down_contribution(&all)?;
        // Ranks must agree on the element count; encoded word counts are a pure
        // function of it, so checking them keeps the error symmetric.
        let lengths: Vec<usize> = all.iter().map(|from| from[0].len()).collect();
        if lengths.iter().any(|&l| l != wire.encoded_words(len)) {
            return Err(CommError::LengthMismatch {
                op: CommOp::AllReduce,
                lengths,
            });
        }
        let mut out = vec![0.0f32; len];
        for from in all.iter() {
            let contribution = crate::codec::decode(wire, from[0].clone(), len)?;
            for (acc, v) in out.iter_mut().zip(&contribution) {
                *acc += v;
            }
        }
        let payload = wire.encoded_bytes(len);
        let (cross, intra) = self.classify_ring(ring_bytes(payload, self.world, 2));
        self.finish(
            CommOp::AllReduce,
            payload,
            cross,
            intra,
            transfer_start,
            issued_at,
        );
        Ok(out)
    }

    fn all_reduce(&self, buf: Vec<f32>, issued_at: Instant) -> Result<Vec<f32>, CommError> {
        let len = buf.len();
        let (all, transfer_start) =
            self.floats
                .exchange(self.rank, vec![buf], CommOp::AllReduce, self.op_timeout())?;
        Self::reject_down_contribution(&all)?;
        let lengths: Vec<usize> = all.iter().map(|from| from[0].len()).collect();
        if lengths.iter().any(|&l| l != len) {
            return Err(CommError::LengthMismatch {
                op: CommOp::AllReduce,
                lengths,
            });
        }
        // Rank-ordered fold: bit-identical to a serial reference on every rank.
        let mut out = vec![0.0f32; len];
        for from in all.iter() {
            for (acc, v) in out.iter_mut().zip(&from[0]) {
                *acc += v;
            }
        }
        let payload = 4 * len as u64;
        let (cross, intra) = self.classify_ring(ring_bytes(payload, self.world, 2));
        self.finish(
            CommOp::AllReduce,
            payload,
            cross,
            intra,
            transfer_start,
            issued_at,
        );
        Ok(out)
    }

    fn reduce_scatter(&self, buf: Vec<f32>, issued_at: Instant) -> Result<Vec<f32>, CommError> {
        let len = buf.len();
        let (all, transfer_start) = self.floats.exchange(
            self.rank,
            vec![buf],
            CommOp::ReduceScatter,
            self.op_timeout(),
        )?;
        Self::reject_down_contribution(&all)?;
        let lengths: Vec<usize> = all.iter().map(|from| from[0].len()).collect();
        if lengths.iter().any(|&l| l != len) {
            return Err(CommError::LengthMismatch {
                op: CommOp::ReduceScatter,
                lengths,
            });
        }
        if !len.is_multiple_of(self.world) {
            return Err(CommError::IndivisibleBuffer {
                len,
                world_size: self.world,
            });
        }
        let shard_len = len / self.world;
        let lo = self.rank * shard_len;
        let mut shard = vec![0.0f32; shard_len];
        for from in all.iter() {
            for (acc, v) in shard.iter_mut().zip(&from[0][lo..lo + shard_len]) {
                *acc += v;
            }
        }
        let payload = 4 * len as u64;
        let (cross, intra) = self.classify_ring(ring_bytes(payload, self.world, 1));
        self.finish(
            CommOp::ReduceScatter,
            payload,
            cross,
            intra,
            transfer_start,
            issued_at,
        );
        Ok(shard)
    }

    fn all_gather(&self, shard: Vec<f32>, issued_at: Instant) -> Result<Vec<f32>, CommError> {
        let shard_len = shard.len();
        let (all, transfer_start) =
            self.floats
                .exchange(self.rank, vec![shard], CommOp::AllGather, self.op_timeout())?;
        Self::reject_down_contribution(&all)?;
        let mut gathered = Vec::with_capacity(all.iter().map(|from| from[0].len()).sum());
        for from in all.iter() {
            gathered.extend_from_slice(&from[0]);
        }
        // Payload follows the OpRecord convention (this rank's contribution); the
        // ring schedule still forwards the full gathered output around the ring.
        let payload = 4 * shard_len as u64;
        let gathered_bytes = 4 * gathered.len() as u64;
        let (cross, intra) = self.classify_ring(ring_bytes(gathered_bytes, self.world, 1));
        self.finish(
            CommOp::AllGather,
            payload,
            cross,
            intra,
            transfer_start,
            issued_at,
        );
        Ok(gathered)
    }
}

/// A queued nonblocking collective: runs the transfer against the helper's
/// [`OpCore`] clone and resolves its [`PendingOp`].
type Job = Box<dyn FnOnce(&OpCore) + Send>;

/// The per-handle helper thread that executes nonblocking collectives in FIFO
/// issue order.
struct Helper {
    tx: Sender<Job>,
    join: Option<JoinHandle<()>>,
}

/// A detached switch that poisons a shared-memory world; obtained from
/// [`SharedMemoryBackend::abort_handle`].
///
/// The handle owns only the world's rendezvous state, not the backend, so it can
/// be held by a supervisor (e.g. a serving dispatcher) and fired while the rank
/// threads — which own the backends — are blocked inside collectives. Every waiter
/// then fails with [`CommError::Aborted`] instead of hanging, which is what makes
/// draining worker threads after a rank failure safe.
///
/// The same detachment makes the handle the supervisor's membership lever: it can
/// [`mark_down`](Self::mark_down) a rank its workers reported dead, or
/// [`mark_up`](Self::mark_up) one it wants to probe back into service, without
/// borrowing any rank's backend.
#[derive(Clone)]
pub struct AbortHandle {
    floats: Arc<Rendezvous<Vec<Vec<f32>>>>,
    indices: Arc<Rendezvous<Vec<Vec<u64>>>>,
}

impl AbortHandle {
    /// Poisons the world: see [`SharedMemoryBackend::abort`].
    pub fn abort(&self) {
        self.floats.poison();
        self.indices.poison();
    }

    /// Declares `rank` dead in this world: see [`SharedMemoryBackend::mark_down`].
    pub fn mark_down(&self, rank: usize) {
        self.floats.mark_down(rank);
        self.indices.mark_down(rank);
    }

    /// Readmits `rank` into this world: see [`SharedMemoryBackend::mark_up`].
    pub fn mark_up(&self, rank: usize) {
        self.floats.mark_up(rank);
        self.indices.mark_up(rank);
    }

    /// Whether `rank` is currently marked down in this world.
    #[must_use]
    pub fn is_down(&self, rank: usize) -> bool {
        self.floats.is_down(rank)
    }

    /// The ranks currently marked down in this world, ascending.
    #[must_use]
    pub fn down_ranks(&self) -> Vec<usize> {
        self.floats.down_ranks()
    }
}

/// One rank's handle into a shared-memory communicator world.
pub struct SharedMemoryBackend {
    core: OpCore,
    /// Lazily spawned on the first nonblocking call; `None` keeps the pure
    /// blocking path on the original in-line code.
    helper: Option<Helper>,
}

impl Drop for SharedMemoryBackend {
    fn drop(&mut self) {
        // A rank unwinding mid-iteration would leave its peers blocked forever in
        // the rendezvous; poison the world so they fail fast instead. Normal drops
        // (the rank finished its work) leave the world untouched.
        let panicking = std::thread::panicking();
        if panicking {
            self.abort();
        }
        if let Some(helper) = self.helper.take() {
            drop(helper.tx);
            if let Some(join) = helper.join {
                if panicking {
                    // In-flight jobs resolve to `Aborted` via the poison above; the
                    // helper exits on its own. Joining during a panic risks a
                    // double-panic, so detach instead.
                    drop(join);
                } else {
                    let _ = join.join();
                }
            }
        }
    }
}

impl SharedMemoryBackend {
    /// The fabric profile pacing this handle.
    #[must_use]
    pub fn fabric(&self) -> FabricProfile {
        self.core.fabric
    }

    /// Marks this world dead: every rank currently blocked in (or later entering) a
    /// collective fails with [`CommError::Aborted`] instead of waiting for a deposit
    /// that will never arrive — and every in-flight nonblocking op resolves to the
    /// same error.
    ///
    /// Call this when a rank exits its iteration loop abnormally (an `Err` return);
    /// panics trigger it automatically via `Drop`, so a dying rank can never hang
    /// its peers.
    pub fn abort(&self) {
        self.core.floats.poison();
        self.core.indices.poison();
    }

    /// A detached handle that can [`abort`](AbortHandle::abort) this world without
    /// borrowing the backend — e.g. from a supervisor thread while the rank's own
    /// thread (which owns the backend) is blocked inside a collective.
    #[must_use]
    pub fn abort_handle(&self) -> AbortHandle {
        AbortHandle {
            floats: Arc::clone(&self.core.floats),
            indices: Arc::clone(&self.core.indices),
        }
    }

    /// Assigns the trace lane this backend's completed ops are recorded on
    /// (and names it in the exported trace). Until a target is set the backend
    /// emits no trace events; op records are always logged either way. The
    /// target applies to in-flight helper-thread ops too.
    pub fn set_trace_target(&self, target: TraceTarget, lane_name: &str) {
        dmt_metrics::trace::name_track("comm", lane_name, target.track);
        *self.core.trace.lock().expect("trace target lock poisoned") = Some(target);
    }

    /// Sets the rendezvous deadline applied to every subsequent collective on this
    /// handle (including ops already queued on its helper thread). `None` — the
    /// default — waits forever, failing only if the world is aborted.
    ///
    /// A deadline turns a dead or stalled peer into a [`CommError::Timeout`] naming
    /// the missing ranks; the timed-out rank's deposit is withdrawn, so the caller
    /// may retry the identical collective (optionally after
    /// [`mark_down`](Self::mark_down)-ing the suspects) without desyncing the
    /// world's collective sequence.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) {
        *self.core.timeout.lock().expect("timeout lock poisoned") = timeout;
    }

    /// Declares `rank` dead: it stops counting toward rendezvous completion, the
    /// pending and all future collectives complete without it (its contribution
    /// reads as an empty shard in the AlltoAll family; reductions fail with
    /// [`CommError::RankDown`] since they need every contribution), and the rank
    /// itself is fenced — any collective it attempts fails with
    /// [`CommError::RankDown`] until [`mark_up`](Self::mark_up).
    ///
    /// Any member's handle may mark any rank; the down set is world state, shared
    /// by all handles.
    pub fn mark_down(&self, rank: usize) {
        self.core.floats.mark_down(rank);
        self.core.indices.mark_down(rank);
    }

    /// Readmits `rank` into the world at the current point of the collective
    /// sequence (a recovered rank resumes with the next collective; snapshots it
    /// missed stay missed).
    pub fn mark_up(&self, rank: usize) {
        self.core.floats.mark_up(rank);
        self.core.indices.mark_up(rank);
    }

    /// Whether `rank` is currently marked down in this world.
    #[must_use]
    pub fn is_down(&self, rank: usize) -> bool {
        self.core.floats.is_down(rank)
    }

    /// The ranks currently marked down in this world, ascending.
    #[must_use]
    pub fn down_ranks(&self) -> Vec<usize> {
        self.core.floats.down_ranks()
    }

    /// Whether this handle has spawned its nonblocking helper thread.
    #[must_use]
    pub fn has_helper(&self) -> bool {
        self.helper.is_some()
    }

    /// Issues `run` on the helper thread (spawning it on first use) and returns the
    /// completion handle. Jobs run strictly in issue order.
    fn enqueue<T: Send + 'static>(
        &mut self,
        run: impl FnOnce(&OpCore) -> Result<T, CommError> + Send + 'static,
    ) -> PendingOp<T> {
        let (op, completer) = PendingOp::channel();
        let job: Job = Box::new(move |core| {
            // A poisoned world surfaces as `Err(Aborted)` from the rendezvous, which
            // flows through the handle on its own. A panic inside the data plane is
            // a bug, not a peer failure — recover it as Aborted anyway (a dead
            // helper would hang every later wait) but print the root cause so it is
            // not erased by the abort cascade.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(core)))
                .unwrap_or_else(|panic| {
                    let message = panic
                        .downcast_ref::<&str>()
                        .map(ToString::to_string)
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_default();
                    if !message.contains("aborted") {
                        eprintln!(
                            "dmt-comm helper thread panicked (rank {}): {message}",
                            core.rank
                        );
                    }
                    Err(CommError::Aborted)
                });
            completer.complete(result);
        });
        let helper = self.helper.get_or_insert_with(|| {
            let core = self.core.clone();
            let (tx, rx) = channel::<Job>();
            let trace_scope = dmt_metrics::trace::current_scope();
            let join = std::thread::spawn(move || {
                dmt_metrics::trace::enter_scope(trace_scope);
                while let Ok(job) = rx.recv() {
                    job(&core);
                }
            });
            Helper {
                tx,
                join: Some(join),
            }
        });
        helper
            .tx
            .send(job)
            .expect("helper thread outlives its handle");
        op
    }

    /// Whether blocking calls must detour through the helper to preserve issue
    /// order (true once any nonblocking op has been issued on this handle).
    fn routed(&self) -> bool {
        self.helper.is_some()
    }
}

impl Backend for SharedMemoryBackend {
    fn rank(&self) -> usize {
        self.core.rank
    }

    fn world_size(&self) -> usize {
        self.core.world
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        if self.routed() {
            return self.barrier_nonblocking().wait();
        }
        self.core.barrier(Instant::now())
    }

    fn all_to_all(&mut self, sends: Vec<Vec<f32>>) -> Result<Vec<Vec<f32>>, CommError> {
        if self.routed() {
            return self.all_to_all_nonblocking(sends).wait();
        }
        self.core.all_to_all(sends, Instant::now())
    }

    fn all_to_all_indices(&mut self, sends: Vec<Vec<u64>>) -> Result<Vec<Vec<u64>>, CommError> {
        if self.routed() {
            return self.all_to_all_indices_nonblocking(sends).wait();
        }
        self.core.all_to_all_indices(sends, Instant::now())
    }

    fn all_reduce(&mut self, buf: &mut [f32]) -> Result<(), CommError> {
        let out = if self.routed() {
            self.all_reduce_nonblocking(buf.to_vec()).wait()?
        } else {
            self.core.all_reduce(buf.to_vec(), Instant::now())?
        };
        buf.copy_from_slice(&out);
        Ok(())
    }

    fn all_reduce_cast(
        &mut self,
        buf: &mut [f32],
        wire: crate::codec::WireFormat,
    ) -> Result<(), CommError> {
        let out = if self.routed() {
            self.all_reduce_cast_nonblocking(buf.to_vec(), wire)
                .wait()?
        } else {
            self.core
                .all_reduce_cast(buf.to_vec(), wire, Instant::now())?
        };
        buf.copy_from_slice(&out);
        Ok(())
    }

    fn reduce_scatter(&mut self, buf: &[f32]) -> Result<Vec<f32>, CommError> {
        if self.routed() {
            return self.reduce_scatter_nonblocking(buf.to_vec()).wait();
        }
        self.core.reduce_scatter(buf.to_vec(), Instant::now())
    }

    fn all_gather(&mut self, shard: &[f32]) -> Result<Vec<f32>, CommError> {
        if self.routed() {
            return self.all_gather_nonblocking(shard.to_vec()).wait();
        }
        self.core.all_gather(shard.to_vec(), Instant::now())
    }

    fn drain_records(&mut self) -> Vec<OpRecord> {
        std::mem::take(&mut *self.core.records.lock().expect("record log lock poisoned"))
    }

    fn all_to_all_nonblocking(&mut self, sends: Vec<Vec<f32>>) -> PendingOp<Vec<Vec<f32>>> {
        let issued_at = Instant::now();
        self.enqueue(move |core| core.all_to_all(sends, issued_at))
    }

    fn all_to_all_indices_nonblocking(&mut self, sends: Vec<Vec<u64>>) -> PendingOp<Vec<Vec<u64>>> {
        let issued_at = Instant::now();
        self.enqueue(move |core| core.all_to_all_indices(sends, issued_at))
    }

    fn all_reduce_nonblocking(&mut self, buf: Vec<f32>) -> PendingOp<Vec<f32>> {
        let issued_at = Instant::now();
        self.enqueue(move |core| core.all_reduce(buf, issued_at))
    }

    fn all_reduce_cast_nonblocking(
        &mut self,
        buf: Vec<f32>,
        wire: crate::codec::WireFormat,
    ) -> PendingOp<Vec<f32>> {
        let issued_at = Instant::now();
        self.enqueue(move |core| core.all_reduce_cast(buf, wire, issued_at))
    }

    fn reduce_scatter_nonblocking(&mut self, buf: Vec<f32>) -> PendingOp<Vec<f32>> {
        let issued_at = Instant::now();
        self.enqueue(move |core| core.reduce_scatter(buf, issued_at))
    }

    fn all_gather_nonblocking(&mut self, shard: Vec<f32>) -> PendingOp<Vec<f32>> {
        let issued_at = Instant::now();
        self.enqueue(move |core| core.all_gather(shard, issued_at))
    }

    fn barrier_nonblocking(&mut self) -> PendingOp<()> {
        let issued_at = Instant::now();
        self.enqueue(move |core| core.barrier(issued_at))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmt_topology::HardwareGeneration;
    use std::thread;

    /// Runs `f(backend)` on one thread per rank and returns the per-rank results in
    /// rank order.
    fn run_world<R: Send>(
        handles: Vec<SharedMemoryBackend>,
        f: impl Fn(&mut SharedMemoryBackend) -> R + Sync,
    ) -> Vec<R> {
        let mut slots: Vec<Option<R>> = (0..handles.len()).map(|_| None).collect();
        thread::scope(|scope| {
            let mut joins = Vec::new();
            for mut backend in handles {
                let f = &f;
                joins.push(scope.spawn(move || f(&mut backend)));
            }
            for (slot, join) in slots.iter_mut().zip(joins) {
                *slot = Some(join.join().expect("rank thread panicked"));
            }
        });
        slots.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn empty_world_is_rejected() {
        assert_eq!(
            SharedMemoryComm::handles(0).err(),
            Some(CommError::EmptyWorld)
        );
    }

    #[test]
    fn all_to_all_transposes_the_send_matrix() {
        let world = 4;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let received = run_world(handles, |b| {
            let me = b.rank() as f32;
            let sends: Vec<Vec<f32>> = (0..world)
                .map(|d| vec![me * 10.0 + d as f32; b.rank() + 1])
                .collect();
            b.all_to_all(sends).unwrap()
        });
        for (dst, row) in received.iter().enumerate() {
            for (src, shard) in row.iter().enumerate() {
                assert_eq!(shard.len(), src + 1, "shard length follows the source");
                assert!(shard.iter().all(|&v| v == src as f32 * 10.0 + dst as f32));
            }
        }
    }

    #[test]
    fn all_reduce_is_a_rank_ordered_fold() {
        let world = 5;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let results = run_world(handles, |b| {
            let mut buf = vec![0.1f32 * (b.rank() as f32 + 1.0); 7];
            b.all_reduce(&mut buf).unwrap();
            buf
        });
        let mut expected = vec![0.0f32; 7];
        for rank in 0..world {
            for v in &mut expected {
                *v += 0.1f32 * (rank as f32 + 1.0);
            }
        }
        for result in results {
            for (a, e) in result.iter().zip(&expected) {
                assert_eq!(a.to_bits(), e.to_bits(), "must match the serial fold");
            }
        }
    }

    #[test]
    fn reduce_scatter_plus_all_gather_equals_all_reduce() {
        let world = 4;
        let len = 8;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let results = run_world(handles, |b| {
            let buf: Vec<f32> = (0..len).map(|i| (i + b.rank()) as f32).collect();
            let shard = b.reduce_scatter(&buf).unwrap();
            let gathered = b.all_gather(&shard).unwrap();
            let mut reduced = buf;
            b.all_reduce(&mut reduced).unwrap();
            (gathered, reduced)
        });
        for (gathered, reduced) in results {
            assert_eq!(gathered, reduced);
        }
    }

    #[test]
    fn shape_errors_are_symmetric() {
        // Every rank passes the same wrong-length reduction; every rank gets the same
        // error (and nobody deadlocks).
        let world = 3;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let results = run_world(handles, |b| {
            let mut buf = vec![0.0f32; 2 + b.rank()];
            b.all_reduce(&mut buf).err()
        });
        for err in results {
            assert!(matches!(err, Some(CommError::LengthMismatch { .. })));
        }
    }

    #[test]
    fn indivisible_reduce_scatter_is_rejected() {
        let world = 4;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let results = run_world(handles, |b| b.reduce_scatter(&[0.0; 6]).err());
        for err in results {
            assert_eq!(
                err,
                Some(CommError::IndivisibleBuffer {
                    len: 6,
                    world_size: 4
                })
            );
        }
    }

    #[test]
    fn shard_count_mismatch_is_local() {
        let mut b = SharedMemoryComm::handles(1).unwrap().pop().unwrap();
        assert!(matches!(
            b.all_to_all(vec![Vec::new(), Vec::new()]),
            Err(CommError::ShardCountMismatch { .. })
        ));
    }

    #[test]
    fn single_rank_world_is_instant_identity() {
        let mut b = SharedMemoryComm::handles(1).unwrap().pop().unwrap();
        let out = b.all_to_all(vec![vec![1.0, 2.0]]).unwrap();
        assert_eq!(out, vec![vec![1.0, 2.0]]);
        let mut buf = vec![3.0];
        b.all_reduce(&mut buf).unwrap();
        assert_eq!(buf, vec![3.0]);
        assert_eq!(b.all_gather(&[4.0]).unwrap(), vec![4.0]);
        let records = b.drain_records();
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.wire_bytes() == 0));
    }

    #[test]
    fn link_classification_follows_the_cluster() {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 2).unwrap();
        let group = ProcessGroup::global(&cluster);
        let handles = SharedMemoryComm::for_group(&cluster, &group, FabricProfile::unthrottled());
        let world = handles.len();
        let records = run_world(handles, |b| {
            // 1 f32 to every rank (including self).
            let sends: Vec<Vec<f32>> = (0..world).map(|_| vec![1.0]).collect();
            b.all_to_all(sends).unwrap();
            b.drain_records().pop().unwrap()
        });
        for record in &records {
            // 2x2 cluster: one intra-host peer (4 bytes), two cross-host peers
            // (8 bytes); the self-shard crosses no link.
            assert_eq!(record.intra_host_bytes, 4);
            assert_eq!(record.cross_host_bytes, 8);
            assert_eq!(record.payload_bytes, 16);
        }
    }

    #[test]
    fn fabric_throttle_paces_the_call() {
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 2).unwrap();
        let group = ProcessGroup::global(&cluster);
        // Huge slowdown so even a small payload takes a visible, stable time.
        let fabric = FabricProfile::from_cluster(&cluster, 5.0e6);
        let handles = SharedMemoryComm::for_group(&cluster, &group, fabric);
        let world = handles.len();
        let records = run_world(handles, |b| {
            let sends: Vec<Vec<f32>> = (0..world).map(|_| vec![0.0; 4096]).collect();
            b.all_to_all(sends).unwrap();
            b.drain_records().pop().unwrap()
        });
        for record in &records {
            let target = fabric
                .target_duration(record.cross_host_bytes, record.intra_host_bytes)
                .as_secs_f64();
            assert!(
                record.elapsed_s >= target,
                "elapsed {} < target {target}",
                record.elapsed_s
            );
        }
    }

    #[test]
    fn dying_rank_poisons_the_world_instead_of_hanging_it() {
        // Rank 1 panics before its deposit; rank 0, blocked in the collective, must
        // get `Err(Aborted)` rather than wait forever.
        let world = 2;
        let mut handles = SharedMemoryComm::handles(world).unwrap();
        let mut rank1 = handles.pop().unwrap();
        let mut rank0 = handles.pop().unwrap();
        thread::scope(|scope| {
            let h0 = scope.spawn(move || {
                let mut buf = vec![1.0f32; 4];
                rank0.all_reduce(&mut buf)
            });
            let h1 = scope.spawn(move || {
                // Simulate a mid-iteration failure: the backend drops while
                // unwinding, which must poison the world.
                let _keep = &mut rank1;
                panic!("rank 1 died");
            });
            assert!(h1.join().is_err());
            let result = h0.join().expect("rank 0 must not panic");
            assert_eq!(result, Err(CommError::Aborted));
        });
    }

    #[test]
    fn explicit_abort_fails_future_collectives() {
        let handles = SharedMemoryComm::handles(2).unwrap();
        handles[0].abort();
        let mut b = handles.into_iter().next().unwrap();
        assert_eq!(b.barrier(), Err(CommError::Aborted));
    }

    #[test]
    fn abort_handle_unblocks_a_waiting_rank() {
        // The supervisor pattern the serving engine's shutdown relies on: the rank
        // thread owns the backend and is blocked in a collective; a detached handle
        // aborts the world and the rank returns `Err(Aborted)` promptly.
        let mut handles = SharedMemoryComm::handles(2).unwrap();
        let _rank1 = handles.pop().unwrap();
        let mut rank0 = handles.pop().unwrap();
        let abort = rank0.abort_handle();
        thread::scope(|scope| {
            let h0 = scope.spawn(move || rank0.barrier());
            thread::sleep(std::time::Duration::from_millis(20));
            abort.abort();
            assert_eq!(h0.join().unwrap(), Err(CommError::Aborted));
        });
    }

    #[test]
    fn timeout_names_the_missing_ranks_and_retry_is_safe() {
        // Rank 1 arrives late; rank 0's deadline expires first and must name rank 1
        // as missing. The timed-out deposit is withdrawn, so retrying without a
        // deadline completes the same generation with correct payloads.
        let world = 2;
        let mut handles = SharedMemoryComm::handles(world).unwrap();
        let mut rank1 = handles.pop().unwrap();
        let mut rank0 = handles.pop().unwrap();
        thread::scope(|scope| {
            let h1 = scope.spawn(move || {
                thread::sleep(std::time::Duration::from_millis(300));
                let mut buf = vec![2.0f32; 3];
                rank1.all_reduce(&mut buf).unwrap();
                buf
            });
            rank0.set_op_timeout(Some(std::time::Duration::from_millis(10)));
            let mut buf = vec![1.0f32; 3];
            let err = rank0.all_reduce(&mut buf).unwrap_err();
            assert!(err.is_transient());
            match &err {
                CommError::Timeout { op, missing, .. } => {
                    assert_eq!(*op, CommOp::AllReduce);
                    assert_eq!(missing, &vec![1]);
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
            rank0.set_op_timeout(None);
            let mut buf = vec![1.0f32; 3];
            rank0.all_reduce(&mut buf).unwrap();
            assert_eq!(buf, vec![3.0; 3]);
            assert_eq!(h1.join().unwrap(), vec![3.0; 3]);
        });
    }

    #[test]
    fn mark_down_completes_collectives_without_the_dead_rank() {
        // A 3-rank world loses rank 2 before it deposits. After the survivors mark
        // it down, the pending AlltoAll completes with an empty shard in its slot,
        // later AlltoAlls keep working, and a reduction — which needs every
        // contribution — fails with RankDown on every survivor symmetrically.
        let world = 3;
        let mut handles = SharedMemoryComm::handles(world).unwrap();
        let _rank2 = handles.pop().unwrap();
        let results = run_world(handles, |b| {
            b.mark_down(2);
            let sends: Vec<Vec<f32>> = (0..world).map(|d| vec![d as f32]).collect();
            let received = b.all_to_all(sends).unwrap();
            let reduce_err = b.all_reduce(&mut [0.0f32; 2]).unwrap_err();
            (received, reduce_err)
        });
        for (rank, (received, reduce_err)) in results.iter().enumerate() {
            assert_eq!(received.len(), world);
            assert_eq!(received[0], vec![rank as f32]);
            assert_eq!(received[1], vec![rank as f32]);
            assert!(received[2].is_empty(), "dead rank reads as an empty shard");
            assert_eq!(*reduce_err, CommError::RankDown { rank: 2 });
        }
    }

    #[test]
    fn a_marked_down_rank_is_fenced_until_marked_up() {
        // Rank 1 is declared dead while rank 0 runs two solo barriers. When rank 1
        // then tries to join, it must get RankDown (it missed two generations, so
        // letting it in would desync the sequence). After mark_up it rejoins
        // cleanly at the current generation.
        let world = 2;
        let mut handles = SharedMemoryComm::handles(world).unwrap();
        let mut rank1 = handles.pop().unwrap();
        let mut rank0 = handles.pop().unwrap();
        rank0.mark_down(1);
        assert!(rank0.is_down(1));
        assert_eq!(rank0.down_ranks(), vec![1]);
        rank0.barrier().unwrap();
        rank0.barrier().unwrap();
        assert_eq!(rank1.barrier(), Err(CommError::RankDown { rank: 1 }));
        rank0.mark_up(1);
        assert!(rank0.down_ranks().is_empty());
        thread::scope(|scope| {
            let h1 = scope.spawn(move || rank1.barrier());
            rank0.barrier().unwrap();
            h1.join().unwrap().unwrap();
        });
    }

    #[test]
    fn marking_down_a_missing_rank_releases_current_waiters() {
        // Rank 0 is already blocked in a collective when the failure detector marks
        // the missing rank down: the pending generation must publish immediately.
        let world = 2;
        let mut handles = SharedMemoryComm::handles(world).unwrap();
        let rank1 = handles.pop().unwrap();
        let mut rank0 = handles.pop().unwrap();
        thread::scope(|scope| {
            let h0 = scope.spawn(move || {
                let sends: Vec<Vec<f32>> = vec![vec![1.0], vec![2.0]];
                rank0.all_to_all(sends)
            });
            thread::sleep(std::time::Duration::from_millis(30));
            rank1.mark_down(1);
            let received = h0.join().unwrap().unwrap();
            assert_eq!(received[0], vec![1.0]);
            assert!(received[1].is_empty());
        });
    }

    #[test]
    fn all_gather_payload_is_the_local_contribution() {
        let world = 4;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let records = run_world(handles, |b| {
            b.all_gather(&[1.0, 2.0]).unwrap();
            b.drain_records().pop().unwrap()
        });
        for record in &records {
            assert_eq!(record.payload_bytes, 8, "two f32 contributed per rank");
            // The ring still forwards the full 4-rank output.
            assert_eq!(record.wire_bytes(), 8 * world as u64 * 3 / 4);
        }
    }

    #[test]
    fn quantized_all_reduce_halves_the_wire_and_bounds_the_error() {
        use crate::codec::WireFormat;
        let world = 4;
        let len = 1000usize;
        let run = |wire: WireFormat| {
            let handles = SharedMemoryComm::handles(world).unwrap();
            run_world(handles, move |b| {
                let mut buf: Vec<f32> = (0..len)
                    .map(|i| (i as f32 * 0.01 - 3.0) * (b.rank() as f32 + 1.0))
                    .collect();
                b.all_reduce_cast(&mut buf, wire).unwrap();
                (buf, b.drain_records().pop().unwrap())
            })
        };
        let fp32 = run(WireFormat::Fp32);
        let fp16 = run(WireFormat::Fp16);
        for ((exact, r32), (quant, r16)) in fp32.iter().zip(&fp16) {
            assert_eq!(r16.payload_bytes, WireFormat::Fp16.encoded_bytes(len));
            assert_eq!(r16.payload_bytes * 2, r32.payload_bytes);
            assert_eq!(r16.wire_bytes() * 2, r32.wire_bytes());
            // One fp16 rounding per contribution: error bounded by the sum of the
            // per-contribution bounds.
            let bound: f32 = (1..=world as u32)
                .map(|r| WireFormat::Fp16.max_abs_error(7.0 * r as f32))
                .sum();
            for (e, q) in exact.iter().zip(quant) {
                assert!((e - q).abs() <= bound, "{e} vs {q}");
            }
        }
    }

    #[test]
    fn quantized_all_reduce_is_deterministic_across_runs() {
        use crate::codec::WireFormat;
        let world = 3;
        let run = || {
            let handles = SharedMemoryComm::handles(world).unwrap();
            run_world(handles, |b| {
                let mut buf = vec![0.1f32 * (b.rank() as f32 + 1.0); 17];
                b.all_reduce_cast(&mut buf, WireFormat::Int8).unwrap();
                buf.iter().map(|v| v.to_bits()).collect::<Vec<u32>>()
            })
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn quantized_all_reduce_at_fp32_is_the_plain_collective() {
        use crate::codec::WireFormat;
        let world = 2;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let results = run_world(handles, |b| {
            let mut cast = vec![1.25f32; 5];
            b.all_reduce_cast(&mut cast, WireFormat::Fp32).unwrap();
            let mut plain = vec![1.25f32; 5];
            b.all_reduce(&mut plain).unwrap();
            (cast, plain, b.drain_records())
        });
        for (cast, plain, records) in results {
            assert_eq!(cast, plain);
            assert_eq!(records[0].payload_bytes, records[1].payload_bytes);
        }
    }

    #[test]
    fn records_accumulate_and_drain() {
        let mut b = SharedMemoryComm::handles(1).unwrap().pop().unwrap();
        b.barrier().unwrap();
        b.barrier().unwrap();
        assert_eq!(b.drain_records().len(), 2);
        assert!(b.drain_records().is_empty());
    }

    #[test]
    fn nonblocking_matches_blocking_results() {
        let world = 4;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let results = run_world(handles, |b| {
            let sends: Vec<Vec<f32>> = (0..world)
                .map(|d| vec![(b.rank() * 10 + d) as f32])
                .collect();
            assert!(!b.has_helper(), "helper must be lazy");
            let a2a = b.all_to_all_nonblocking(sends).wait().unwrap();
            assert!(b.has_helper(), "first nonblocking call spawns the helper");
            let reduced = b
                .all_reduce_nonblocking(vec![b.rank() as f32 + 1.0; 3])
                .wait()
                .unwrap();
            (a2a, reduced)
        });
        for (dst, (a2a, reduced)) in results.iter().enumerate() {
            for (src, shard) in a2a.iter().enumerate() {
                assert_eq!(shard, &vec![(src * 10 + dst) as f32]);
            }
            assert_eq!(reduced, &vec![1.0 + 2.0 + 3.0 + 4.0; 3]);
        }
    }

    #[test]
    fn nonblocking_runs_in_issue_order() {
        // Two ops issued back-to-back without waiting must execute in issue order on
        // every rank — otherwise the ranks' schedules would cross-match and either
        // deadlock or deliver swapped payloads.
        let world = 3;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let results = run_world(handles, |b| {
            let first = b.all_reduce_nonblocking(vec![1.0f32; 2]);
            let second = b.all_reduce_nonblocking(vec![10.0f32; 2]);
            (first.wait().unwrap(), second.wait().unwrap())
        });
        for (first, second) in results {
            assert_eq!(first, vec![3.0; 2]);
            assert_eq!(second, vec![30.0; 2]);
        }
    }

    #[test]
    fn compute_overlaps_a_paced_transfer() {
        // With the fabric stretched to tens of milliseconds, a rank that computes
        // between issue and wait must spend (almost) nothing blocked in wait(),
        // while a rank that waits immediately is exposed for the full transfer.
        let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 2).unwrap();
        let group = ProcessGroup::global(&cluster);
        let fabric = FabricProfile::from_cluster(&cluster, 1.0e7);
        let handles = SharedMemoryComm::for_group(&cluster, &group, fabric);
        let world = handles.len();
        let blocked = run_world(handles, |b| {
            let sends: Vec<Vec<f32>> = (0..world).map(|_| vec![0.0; 8192]).collect();
            let target = b
                .fabric()
                .target_duration(8192 * 2 * 4, 8192 * 4)
                .as_secs_f64();
            let op = b.all_to_all_nonblocking(sends);
            // "Compute" for longer than the whole transfer.
            std::thread::sleep(std::time::Duration::from_secs_f64(target * 1.5));
            let (result, blocked_s) = op.wait_timed();
            result.unwrap();
            (blocked_s, target)
        });
        for (blocked_s, target) in blocked {
            assert!(
                blocked_s < target * 0.5,
                "compute failed to hide the transfer: blocked {blocked_s}s of {target}s"
            );
        }
    }

    #[test]
    fn records_carry_issue_and_complete_timestamps() {
        let world = 2;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let records = run_world(handles, |b| {
            let op = b.all_reduce_nonblocking(vec![1.0f32; 16]);
            op.wait().unwrap();
            b.drain_records().pop().unwrap()
        });
        for r in &records {
            assert!(r.completed_at_s >= r.issued_at_s, "complete before issue");
            assert!(
                r.completed_at_s - r.issued_at_s >= r.elapsed_s - 1e-6,
                "op lifetime shorter than its transfer"
            );
        }
    }

    #[test]
    fn abort_resolves_inflight_nonblocking_ops() {
        // Rank 1 never deposits; rank 0's nonblocking op must resolve to `Aborted`
        // through the handle once the world is poisoned — not hang, not panic on the
        // issuing thread.
        let mut handles = SharedMemoryComm::handles(2).unwrap();
        let rank1 = handles.pop().unwrap();
        let mut rank0 = handles.pop().unwrap();
        let op = rank0.all_reduce_nonblocking(vec![1.0f32; 4]);
        assert!(!op.is_complete());
        rank1.abort();
        assert_eq!(op.wait(), Err(CommError::Aborted));
        drop(rank1);
    }

    #[test]
    fn blocking_calls_after_nonblocking_keep_issue_order() {
        // Once a handle has gone nonblocking, blocking calls must queue behind the
        // outstanding op rather than jump it.
        let world = 2;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let results = run_world(handles, |b| {
            let pending = b.all_reduce_nonblocking(vec![1.0f32; 2]);
            let mut second = vec![5.0f32; 2];
            b.all_reduce(&mut second).unwrap(); // must be generation 2 on every rank
            (pending.wait().unwrap(), second)
        });
        for (first, second) in results {
            assert_eq!(first, vec![2.0; 2]);
            assert_eq!(second, vec![10.0; 2]);
        }
    }
}
