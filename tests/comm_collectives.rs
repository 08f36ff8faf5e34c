//! Property tests: the shared-memory collectives are bit-identical to a serial
//! reference across 2–16 ranks.
//!
//! The distributed engine's determinism (and the paper's semantic-preservation
//! argument for SPTT) rests on two properties of the backend: reductions fold
//! contributions in rank order regardless of thread scheduling, and AlltoAll is an
//! exact permutation of the send shards. Each property is checked against an
//! independent serial implementation over randomized worlds, payload sizes and
//! values.

use dmt_comm::{Backend, SharedMemoryBackend, SharedMemoryComm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::thread;

/// Runs `f` on one thread per rank and returns the per-rank results in rank order.
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

/// Random per-rank buffers of length `len`, deterministic in `seed`.
fn rank_buffers(seed: u64, world: usize, len: usize) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..world)
        .map(|_| (0..len).map(|_| rng.gen_range(-1.0e3f32..1.0e3)).collect())
        .collect()
}

/// Random send matrix: `sends[src][dst]` is the shard `src` sends to `dst`, with
/// randomized (possibly zero) lengths.
fn send_matrix(seed: u64, world: usize) -> Vec<Vec<Vec<f32>>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..world)
        .map(|_| {
            (0..world)
                .map(|_| {
                    let len = rng.gen_range(0usize..24);
                    (0..len).map(|_| rng.gen_range(-50.0f32..50.0)).collect()
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// AllReduce must equal the serial left-to-right fold, bit for bit, on every
    /// rank (sum order stability).
    #[test]
    fn all_reduce_matches_serial_fold(
        world in 2usize..17,
        len in 0usize..48,
        seed in proptest::strategy::any::<u64>(),
    ) {
        let buffers = rank_buffers(seed, world, len);
        let mut reference = vec![0.0f32; len];
        for buf in &buffers {
            for (acc, v) in reference.iter_mut().zip(buf) {
                *acc += v;
            }
        }
        let handles = SharedMemoryComm::handles(world).unwrap();
        let results = run_world(handles, |b| {
            let mut buf = buffers[b.rank()].clone();
            b.all_reduce(&mut buf).unwrap();
            buf
        });
        for (rank, result) in results.iter().enumerate() {
            for (a, e) in result.iter().zip(&reference) {
                prop_assert_eq!(
                    a.to_bits(),
                    e.to_bits(),
                    "rank {} diverged from the serial fold",
                    rank
                );
            }
        }
    }

    /// AlltoAll transposes the send matrix exactly, and applying it twice returns
    /// every shard to its origin (permutation round-trip).
    #[test]
    fn all_to_all_round_trips(
        world in 2usize..17,
        seed in proptest::strategy::any::<u64>(),
    ) {
        let sends = send_matrix(seed, world);
        let handles = SharedMemoryComm::handles(world).unwrap();
        let round_trip = run_world(handles, |b| {
            let received = b.all_to_all(sends[b.rank()].clone()).unwrap();
            // received[src] must be exactly what `src` addressed to this rank.
            for (src, shard) in received.iter().enumerate() {
                assert_eq!(shard, &sends[src][b.rank()], "transpose property");
            }
            // Sending each shard back to its source undoes the permutation.
            b.all_to_all(received).unwrap()
        });
        for (rank, returned) in round_trip.iter().enumerate() {
            for (dst, shard) in returned.iter().enumerate() {
                prop_assert_eq!(
                    shard,
                    &sends[rank][dst],
                    "rank {}'s shard for {} did not round-trip",
                    rank,
                    dst
                );
            }
        }
    }

    /// Index AlltoAll preserves every u64 payload exactly.
    #[test]
    fn index_all_to_all_transposes(
        world in 2usize..17,
        seed in proptest::strategy::any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sends: Vec<Vec<Vec<u64>>> = (0..world)
            .map(|src| {
                (0..world)
                    .map(|dst| {
                        let len = rng.gen_range(0usize..16);
                        (0..len)
                            .map(|i| (src as u64) << 32 | (dst as u64) << 16 | i as u64)
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let handles = SharedMemoryComm::handles(world).unwrap();
        let results = run_world(handles, |b| {
            b.all_to_all_indices(sends[b.rank()].clone()).unwrap()
        });
        for (dst, received) in results.iter().enumerate() {
            for (src, shard) in received.iter().enumerate() {
                prop_assert_eq!(shard, &sends[src][dst]);
            }
        }
    }
}
