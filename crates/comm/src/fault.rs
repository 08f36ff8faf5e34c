//! Deterministic fault injection for communicator worlds.
//!
//! A [`FaultProfile`] is a *script* of failures — seed-stable in the same sense as
//! [`crate::FabricProfile`] is bandwidth-stable: the same profile produces the
//! identical failure schedule on every run, so availability experiments and
//! regression tests are reproducible bit-for-bit. A [`FaultInjectingBackend`] wraps
//! any [`Backend`] and consults the profile before each collective the wrapped rank
//! issues:
//!
//! - [`FaultKind::Down`] — the rank is dead from that op onward; every collective
//!   fails with [`CommError::RankDown`] naming the rank itself. Its peers observe
//!   the death as a [`CommError::Timeout`] (if they set a deadline via
//!   [`SharedMemoryBackend::set_op_timeout`](crate::SharedMemoryBackend::set_op_timeout))
//!   naming the missing rank — never a deadlock.
//! - [`FaultKind::Stall`] — the rank sleeps before issuing one collective, long
//!   enough (by construction of the experiment) to push its peers past their
//!   deadline: the slow-rank case, distinct from death because the rank *does*
//!   eventually arrive.
//! - [`FaultKind::Drop`] — one attempt is lost before reaching the wire: the op
//!   fails with a zero-wait [`CommError::Timeout`] and the rank never deposits, so
//!   a retry (re-issuing the identical collective) models a retransmit. Random
//!   drops with the same semantics can be mixed in via
//!   [`FaultProfile::with_drop_rate`], scheduled by a hash of `(seed, rank, op)`.
//!
//! Fault positions are expressed in *op indices*: the number of collectives this
//! rank has issued through the wrapping handle, starting at 0. Ranks of one world
//! issue the same collective sequence, so an op index identifies the same logical
//! collective on every rank.

use crate::backend::{Backend, CommError, CommOp, OpRecord};
use crate::pending::PendingOp;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// What a scripted fault does to the collective it fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// The rank dies: this and every later collective fails with
    /// [`CommError::RankDown`]. Permanent.
    Down,
    /// The rank sleeps this many milliseconds before issuing the collective, then
    /// proceeds normally. One-shot.
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// The attempt is lost before the wire: the collective fails with a transient
    /// [`CommError::Timeout`] without ever entering the rendezvous. One-shot.
    Drop,
}

/// One scripted fault: `kind` fires when `rank` issues its `at_op`-th collective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The rank the fault applies to.
    pub rank: usize,
    /// Op index (collectives issued by `rank` through its wrapping handle,
    /// starting at 0) at which the fault fires.
    pub at_op: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// The action the wrapper takes for one (rank, op) pair; resolved from the profile
/// before the collective is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Proceed normally.
    Proceed,
    /// Fail with [`CommError::RankDown`]; the rank is dead.
    Down,
    /// Sleep, then proceed.
    Stall(Duration),
    /// Fail with a zero-wait transient [`CommError::Timeout`].
    Drop,
}

/// A deterministic, seed-stable schedule of injected communication faults.
///
/// See the [module docs](self) for semantics. An empty profile
/// ([`FaultProfile::none`]) injects nothing and is the default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Seed for the hash that schedules random drops.
    seed: u64,
    /// Probability in `[0, 1)` that any given (rank, op) attempt is dropped.
    drop_rate: f64,
    /// Scripted faults, checked before the random schedule.
    events: Vec<FaultEvent>,
}

impl FaultProfile {
    /// A profile with the given seed and no faults; add them with
    /// [`with_event`](Self::with_event) / [`with_drop_rate`](Self::with_drop_rate).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            drop_rate: 0.0,
            events: Vec::new(),
        }
    }

    /// The profile that injects nothing.
    #[must_use]
    pub fn none() -> Self {
        Self::new(0)
    }

    /// Adds a scripted fault: `kind` fires when `rank` issues op `at_op`.
    #[must_use]
    pub fn with_event(mut self, rank: usize, at_op: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { rank, at_op, kind });
        self
    }

    /// Sets the random drop probability per (rank, op) attempt.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate < 1.0` (a rate of 1 would drop every retry
    /// forever — no schedule could make progress).
    #[must_use]
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "drop rate must be in [0, 1)");
        self.drop_rate = rate;
        self
    }

    /// Whether the profile injects any fault at all.
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.events.is_empty() && self.drop_rate == 0.0
    }

    /// Whether `rank` has a scripted [`FaultKind::Down`] — i.e. the profile kills
    /// it permanently at some point. Health probes use this as their liveness
    /// oracle: a rank is recoverable iff it is not scripted to die.
    #[must_use]
    pub fn permanently_down(&self, rank: usize) -> bool {
        self.events
            .iter()
            .any(|e| e.rank == rank && e.kind == FaultKind::Down)
    }

    /// Resolves the action for `rank`'s `op_index`-th collective. Precedence:
    /// death (at or after its scripted op) > scripted stall > scripted drop >
    /// random drop.
    #[must_use]
    pub fn action(&self, rank: usize, op_index: u64) -> FaultAction {
        let mut scripted = FaultAction::Proceed;
        for event in &self.events {
            if event.rank != rank {
                continue;
            }
            match event.kind {
                FaultKind::Down if event.at_op <= op_index => return FaultAction::Down,
                FaultKind::Stall { ms } if event.at_op == op_index => {
                    scripted = FaultAction::Stall(Duration::from_millis(ms));
                }
                FaultKind::Drop if event.at_op == op_index && scripted == FaultAction::Proceed => {
                    scripted = FaultAction::Drop;
                }
                _ => {}
            }
        }
        if scripted != FaultAction::Proceed {
            return scripted;
        }
        if self.drop_rate > 0.0 && hash_unit(self.seed, rank as u64, op_index) < self.drop_rate {
            return FaultAction::Drop;
        }
        FaultAction::Proceed
    }
}

impl Default for FaultProfile {
    fn default() -> Self {
        Self::none()
    }
}

/// SplitMix64-style hash of `(seed, rank, op)` mapped to `[0, 1)` — the stable
/// schedule behind [`FaultProfile::with_drop_rate`].
fn hash_unit(seed: u64, rank: u64, op: u64) -> f64 {
    let mut z =
        seed ^ rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ op.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// A [`Backend`] wrapper that injects the faults a [`FaultProfile`] scripts for
/// its rank, before each collective reaches the wrapped backend.
///
/// Injected failures use the same [`CommError`] surface real failures do
/// ([`CommError::RankDown`], [`CommError::Timeout`]), so the serving layer's
/// failure handling is exercised by exactly the errors it would see in
/// production. Ops that the profile lets through are delegated verbatim —
/// including the nonblocking variants — so a `FaultProfile::none()` wrapper is
/// behaviorally transparent.
pub struct FaultInjectingBackend<B> {
    inner: B,
    profile: FaultProfile,
    /// Collectives issued through this handle (fault-schedule op index).
    ops: u64,
}

impl<B: Backend> FaultInjectingBackend<B> {
    /// Wraps `inner`, injecting the faults `profile` scripts for `inner.rank()`.
    pub fn new(inner: B, profile: FaultProfile) -> Self {
        Self {
            inner,
            profile,
            ops: 0,
        }
    }

    /// The wrapped backend.
    pub fn get_ref(&self) -> &B {
        &self.inner
    }

    /// The wrapped backend, mutably.
    pub fn get_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Collectives issued through this handle so far (the next op's index).
    #[must_use]
    pub fn ops_issued(&self) -> u64 {
        self.ops
    }

    /// Consumes one op index and applies the scheduled action; `Err` means the
    /// collective must not be issued.
    fn precheck(&mut self, op: CommOp) -> Result<(), CommError> {
        let index = self.ops;
        self.ops += 1;
        match self.profile.action(self.inner.rank(), index) {
            FaultAction::Proceed => Ok(()),
            FaultAction::Down => Err(CommError::RankDown {
                rank: self.inner.rank(),
            }),
            FaultAction::Stall(wait) => {
                std::thread::sleep(wait);
                Ok(())
            }
            FaultAction::Drop => Err(CommError::Timeout {
                op,
                waited_ms: 0,
                missing: Vec::new(),
            }),
        }
    }
}

impl<B: Backend> Backend for FaultInjectingBackend<B> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn barrier(&mut self) -> Result<(), CommError> {
        self.precheck(CommOp::Barrier)?;
        self.inner.barrier()
    }

    fn all_to_all(&mut self, sends: Vec<Vec<f32>>) -> Result<Vec<Vec<f32>>, CommError> {
        self.precheck(CommOp::AllToAll)?;
        self.inner.all_to_all(sends)
    }

    fn all_to_all_indices(&mut self, sends: Vec<Vec<u64>>) -> Result<Vec<Vec<u64>>, CommError> {
        self.precheck(CommOp::AllToAllIndices)?;
        self.inner.all_to_all_indices(sends)
    }

    fn all_reduce(&mut self, buf: &mut [f32]) -> Result<(), CommError> {
        self.precheck(CommOp::AllReduce)?;
        self.inner.all_reduce(buf)
    }

    fn all_reduce_cast(
        &mut self,
        buf: &mut [f32],
        wire: crate::codec::WireFormat,
    ) -> Result<(), CommError> {
        self.precheck(CommOp::AllReduce)?;
        self.inner.all_reduce_cast(buf, wire)
    }

    fn drain_records(&mut self) -> Vec<OpRecord> {
        self.inner.drain_records()
    }

    fn all_to_all_nonblocking(&mut self, sends: Vec<Vec<f32>>) -> PendingOp<Vec<Vec<f32>>> {
        match self.precheck(CommOp::AllToAll) {
            Ok(()) => self.inner.all_to_all_nonblocking(sends),
            Err(e) => PendingOp::ready(Err(e)),
        }
    }

    fn all_to_all_indices_nonblocking(&mut self, sends: Vec<Vec<u64>>) -> PendingOp<Vec<Vec<u64>>> {
        match self.precheck(CommOp::AllToAllIndices) {
            Ok(()) => self.inner.all_to_all_indices_nonblocking(sends),
            Err(e) => PendingOp::ready(Err(e)),
        }
    }

    fn all_reduce_cast_nonblocking(
        &mut self,
        buf: Vec<f32>,
        wire: crate::codec::WireFormat,
    ) -> PendingOp<Vec<f32>> {
        match self.precheck(CommOp::AllReduce) {
            Ok(()) => self.inner.all_reduce_cast_nonblocking(buf, wire),
            Err(e) => PendingOp::ready(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shmem::SharedMemoryComm;
    use std::thread;

    /// Collects the full action schedule of a profile over a rank/op grid.
    fn schedule(profile: &FaultProfile, ranks: usize, ops: u64) -> Vec<Vec<FaultAction>> {
        (0..ranks)
            .map(|r| (0..ops).map(|o| profile.action(r, o)).collect())
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_schedules() {
        let a = FaultProfile::new(42).with_drop_rate(0.2);
        let b = FaultProfile::new(42).with_drop_rate(0.2);
        assert_eq!(schedule(&a, 8, 200), schedule(&b, 8, 200));
        let c = FaultProfile::new(43).with_drop_rate(0.2);
        assert_ne!(
            schedule(&a, 8, 200),
            schedule(&c, 8, 200),
            "different seed must move the drops"
        );
    }

    #[test]
    fn drop_rate_roughly_matches_the_schedule_density() {
        let profile = FaultProfile::new(7).with_drop_rate(0.25);
        let total = 8 * 1000;
        let drops: usize = schedule(&profile, 8, 1000)
            .iter()
            .flatten()
            .filter(|&&a| a == FaultAction::Drop)
            .count();
        let rate = drops as f64 / total as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed drop rate {rate}");
    }

    #[test]
    fn down_is_permanent_from_its_op() {
        let profile = FaultProfile::new(0).with_event(2, 5, FaultKind::Down);
        assert_eq!(profile.action(2, 4), FaultAction::Proceed);
        assert_eq!(profile.action(2, 5), FaultAction::Down);
        assert_eq!(profile.action(2, 500), FaultAction::Down);
        assert_eq!(profile.action(1, 500), FaultAction::Proceed);
        assert!(profile.permanently_down(2));
        assert!(!profile.permanently_down(1));
        assert!(!profile.is_none());
        assert!(FaultProfile::none().is_none());
    }

    #[test]
    fn injected_down_surfaces_rank_down_without_entering_the_world() {
        // Rank 1 is scripted to die at its first op: it must get RankDown locally
        // and never deposit — so rank 0's matching collective would block, and a
        // peer-side timeout (not a deadlock) reports rank 1 missing.
        let world = 2;
        let mut handles = SharedMemoryComm::handles(world).unwrap();
        let rank1 = handles.pop().unwrap();
        let rank0 = handles.pop().unwrap();
        let profile = FaultProfile::new(1).with_event(1, 0, FaultKind::Down);
        let mut rank1 = FaultInjectingBackend::new(rank1, profile.clone());
        let mut rank0 = FaultInjectingBackend::new(rank0, profile);
        assert_eq!(
            rank1.barrier(),
            Err(CommError::RankDown { rank: 1 }),
            "scripted death is a local error"
        );
        rank0
            .get_mut()
            .set_op_timeout(Some(Duration::from_millis(20)));
        match rank0.barrier().unwrap_err() {
            CommError::Timeout { missing, .. } => assert_eq!(missing, vec![1]),
            other => panic!("expected peer-side timeout, got {other:?}"),
        }
    }

    #[test]
    fn dropped_attempt_is_transient_and_the_retry_goes_through() {
        let world = 2;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let profile = FaultProfile::new(1).with_event(0, 0, FaultKind::Drop);
        let mut wrapped: Vec<_> = handles
            .into_iter()
            .map(|b| FaultInjectingBackend::new(b, profile.clone()))
            .collect();
        let mut rank1 = wrapped.pop().unwrap();
        let mut rank0 = wrapped.pop().unwrap();
        thread::scope(|scope| {
            let h1 = scope.spawn(move || {
                let mut buf = vec![2.0f32; 2];
                rank1.all_reduce(&mut buf).unwrap();
                buf
            });
            let mut buf = vec![1.0f32; 2];
            let err = rank0.all_reduce(&mut buf).unwrap_err();
            assert!(err.is_transient(), "drop must look like a lost packet");
            // The drop consumed op index 0; the retry is op 1 and proceeds.
            rank0.all_reduce(&mut buf).unwrap();
            assert_eq!(buf, vec![3.0; 2]);
            assert_eq!(h1.join().unwrap(), vec![3.0; 2]);
        });
    }

    #[test]
    fn stall_delays_but_completes() {
        let world = 2;
        let handles = SharedMemoryComm::handles(world).unwrap();
        let profile = FaultProfile::new(1).with_event(1, 0, FaultKind::Stall { ms: 50 });
        let mut wrapped: Vec<_> = handles
            .into_iter()
            .map(|b| FaultInjectingBackend::new(b, profile.clone()))
            .collect();
        let mut rank1 = wrapped.pop().unwrap();
        let mut rank0 = wrapped.pop().unwrap();
        let start = std::time::Instant::now();
        thread::scope(|scope| {
            let h1 = scope.spawn(move || rank1.barrier());
            rank0.barrier().unwrap();
            h1.join().unwrap().unwrap();
        });
        assert!(start.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn transparent_wrapper_delegates_everything() {
        use crate::codec::WireFormat;
        let mut b = FaultInjectingBackend::new(
            SharedMemoryComm::handles(1).unwrap().pop().unwrap(),
            FaultProfile::none(),
        );
        assert_eq!(b.rank(), 0);
        assert_eq!(b.world_size(), 1);
        let out = b.all_to_all(vec![vec![1.0, 2.0]]).unwrap();
        assert_eq!(out, vec![vec![1.0, 2.0]]);
        let ids = b.all_to_all_indices(vec![vec![7, 8]]).unwrap();
        assert_eq!(ids, vec![vec![7, 8]]);
        let mut buf = vec![4.0];
        b.all_reduce(&mut buf).unwrap();
        assert_eq!(buf, vec![4.0]);
        b.all_reduce_cast(&mut buf, WireFormat::Fp16).unwrap();
        assert_eq!(buf, vec![4.0]);
        b.barrier().unwrap();
        let rows = b.all_to_all_nonblocking(vec![vec![3.0]]).wait().unwrap();
        assert_eq!(rows, vec![vec![3.0]]);
        let ids = b
            .all_to_all_indices_nonblocking(vec![vec![9]])
            .wait()
            .unwrap();
        assert_eq!(ids, vec![vec![9]]);
        let reduced = b
            .all_reduce_cast_nonblocking(vec![5.0], WireFormat::Int8)
            .wait()
            .unwrap();
        assert!((reduced[0] - 5.0).abs() <= WireFormat::Int8.max_abs_error(5.0));
        assert_eq!(b.ops_issued(), 8);
        assert_eq!(b.drain_records().len(), 8);
    }
}
