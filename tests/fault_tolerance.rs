//! Fault-tolerance integration tests: a serving cluster with replicated shards
//! must survive an injected rank death — kept batches bit-identical to the
//! training-side reference — while an unreplicated cluster must fail *cleanly*
//! (a fault error in bounded time, never a deadlock), and shutdown must return
//! promptly even with a rank down mid-collective.

use std::time::{Duration, Instant};

mod common;

use common::reference_predictions;
use dmt_comm::{FaultKind, FaultProfile};
use dmt_data::{Query, ZipfRequestStream};
use dmt_models::ModelArch;
use dmt_serve::{
    BatchConfig, DegradedPolicy, Pipeline, Request, ResilienceConfig, ServeConfig, ServeError,
    ServingEngine, StagePools,
};
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::{
    run_with_snapshot, DistributedConfig, ExecutionMode, ModelSnapshot,
};

fn cluster_2x4() -> ClusterTopology {
    ClusterTopology::new(HardwareGeneration::A100, 2, 4).unwrap()
}

fn baseline_snapshot() -> ModelSnapshot {
    let cfg = DistributedConfig::quick(cluster_2x4(), ModelArch::Dlrm).with_iterations(3);
    let (_, snapshot) = run_with_snapshot(&cfg, ExecutionMode::Baseline).unwrap();
    snapshot
}

fn queries(snapshot: &ModelSnapshot, seed: u64, n: usize) -> Vec<Query> {
    ZipfRequestStream::new(snapshot.schema.clone(), seed, 1.1).next_queries(n)
}

fn assert_bit_identical(served: &[f32], reference: &[f32], what: &str) {
    assert_eq!(served.len(), reference.len(), "{what}: length");
    for (i, (s, r)) in served.iter().zip(reference).enumerate() {
        assert_eq!(
            s.to_bits(),
            r.to_bits(),
            "{what}: query {i}: served {s} != reference {r}"
        );
    }
}

/// The headline guarantee: kill one rank of a replicated 2×4 cluster and the
/// surviving ranks keep answering, bit-identical to the training-side model,
/// with the dead rank's shard served from its replica — whether the rank dies
/// in the first batch or mid-stream behind a warm hot-row cache.
#[test]
fn killed_rank_fails_over_bit_identically() {
    let snapshot = baseline_snapshot();
    // (healthy 32-query batches served before the kill, per-rank cache rows).
    // A replicated baseline batch issues 4 collectives per rank (index and row
    // exchange, twice) and a healthy stream retries none, so rank 3 dies at
    // the first collective of the batch after the healthy ones.
    for (healthy, cache_rows) in [(0, BatchConfig::default().cache_rows), (4, 4096)] {
        let config = ServeConfig::new(cluster_2x4())
            .with_batch(BatchConfig {
                cache_rows,
                ..BatchConfig::default()
            })
            .with_resilience(ResilienceConfig {
                replicas: 1,
                faults: FaultProfile::new(11).with_event(3, 4 * healthy, FaultKind::Down),
                op_timeout: Some(Duration::from_millis(250)),
                down_after: 1,
                ..ResilienceConfig::default()
            });
        let mut engine = ServingEngine::start(&snapshot, &config).unwrap();
        for seed in 0..healthy {
            let batch = queries(&snapshot, 100 + seed, 32);
            let reference = reference_predictions(&snapshot, &batch);
            let served = engine.submit(batch).unwrap();
            assert_bit_identical(&served, &reference, "healthy batch");
        }

        // The batch in flight when the rank dies fails — with a *fault* error,
        // not a poisoned engine.
        let err = engine.submit(queries(&snapshot, 1, 32)).unwrap_err();
        assert!(err.is_fault(), "rank death surfaced as {err}");
        assert_eq!(engine.dead_ranks(), vec![3]);

        // Every later batch is answered by the 7 survivors: 28 queries = 4 per
        // rank, the quad-aligned sub-batch size bit-identity requires.
        for seed in 2..6 {
            let batch = queries(&snapshot, seed, 28);
            let reference = reference_predictions(&snapshot, &batch);
            let served = engine.submit(batch).unwrap();
            assert_bit_identical(&served, &reference, "post-failover batch");
        }
        let stats = engine.shutdown();
        assert!(
            stats.failovers > 0,
            "rank 3's shard must have been served by its replica (healthy batches: {healthy})"
        );
        assert!(stats.replica_bytes > 0, "replication capacity is accounted");
        assert_eq!(stats.degraded_answers, 0, "nothing was zero-filled");
    }
}

/// Replication adds storage, not traffic: with every rank healthy, the same
/// stream served with one replica per shard and with none gives bit-identical
/// predictions over identical wire bytes; only the replica copies differ.
#[test]
fn replication_adds_storage_not_traffic() {
    let snapshot = baseline_snapshot();
    let serve = |replicas: usize| {
        let config = ServeConfig::new(cluster_2x4())
            .with_batch(BatchConfig {
                cache_rows: 4096,
                ..BatchConfig::default()
            })
            .with_resilience(ResilienceConfig {
                replicas,
                ..ResilienceConfig::default()
            });
        let mut engine = ServingEngine::start(&snapshot, &config).unwrap();
        let mut stream = ZipfRequestStream::new(snapshot.schema.clone(), 1234, 1.1);
        let preds: Vec<f32> = (0..6)
            .flat_map(|_| engine.submit(stream.next_queries(32)).unwrap())
            .collect();
        (preds, engine.shutdown())
    };
    let (preds_r1, r1) = serve(1);
    let (preds_r0, r0) = serve(0);
    assert_bit_identical(&preds_r1, &preds_r0, "r = 1 against r = 0");
    assert_eq!(
        (r1.payload_bytes, r1.cross_host_bytes, r1.intra_host_bytes),
        (r0.payload_bytes, r0.cross_host_bytes, r0.intra_host_bytes),
        "payload, cross-host and intra-host bytes"
    );
    assert!(r1.replica_bytes > 0, "r = 1 holds replica copies");
    assert_eq!(r0.replica_bytes, 0, "r = 0 holds none");
}

/// Failover composes with a pooled dense stage and the asynchronous front:
/// the batch in flight when the rank dies ends as a seq-tagged failure, later
/// batches complete bit-identically, every offered request is accounted for,
/// and shutdown stays bounded.
#[test]
fn pooled_replicated_deployment_conserves_requests_under_a_rank_death() {
    let snapshot = baseline_snapshot();
    let config = ServeConfig::new(cluster_2x4())
        .with_batch(BatchConfig {
            max_batch: 4,
            max_delay_us: 1_000_000,
            ..BatchConfig::default()
        })
        .with_resilience(ResilienceConfig {
            replicas: 1,
            faults: FaultProfile::new(11).with_event(3, 0, FaultKind::Down),
            op_timeout: Some(Duration::from_millis(250)),
            down_after: 1,
            ..ResilienceConfig::default()
        });
    let mut engine = Pipeline::start(&snapshot, StagePools::new(8, 2), &config).unwrap();
    let mut completed = Vec::new();
    let mut failed: Vec<u64> = Vec::new();
    let mut offered = Vec::new();
    // Three batches of four 8-query requests, each run to its terminal
    // outcome before the next is offered.
    for round in 0..3u64 {
        for i in 0..4 {
            let batch = queries(&snapshot, 10 * round + i, 8);
            let seq = engine.offer(Request::new(batch.clone())).unwrap();
            offered.push((seq, batch));
        }
        while completed.len() + failed.len() < offered.len() {
            engine.wait(Duration::from_millis(50));
            match engine.drain() {
                Ok(done) => completed.extend(done),
                Err(ServeError::Failed { seqs, cause }) => {
                    assert!(cause.is_fault(), "rank death surfaced as {cause}");
                    failed.extend(seqs);
                }
                Err(other) => panic!("unexpected pipeline error: {other}"),
            }
        }
    }
    assert_eq!(failed, vec![0, 1, 2, 3], "the first batch died with rank 3");
    assert_eq!(engine.dead_ranks(), vec![3]);
    for done in &completed {
        let (_, batch) = &offered[done.seq as usize];
        assert_bit_identical(
            &done.preds,
            &reference_predictions(&snapshot, batch),
            "survivors",
        );
    }
    let start = Instant::now();
    let (rest, stats) = engine.shutdown().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "shutdown took {:?}",
        start.elapsed()
    );
    assert!(rest.is_empty());
    assert_eq!(
        stats.admitted(),
        completed.len() as u64 + stats.shed() + stats.failed
    );
    assert_eq!((stats.admitted(), stats.failed, stats.shed()), (12, 4, 0));
    assert!(stats.index_bytes > 0 && stats.xfer_bytes > 0);
}

/// With replication disabled the same death must surface as a clean fault error
/// in bounded time — never a deadlock.
#[test]
fn unreplicated_rank_death_is_a_clean_fault_not_a_deadlock() {
    let snapshot = baseline_snapshot();
    let config = ServeConfig::new(cluster_2x4()).with_resilience(ResilienceConfig {
        faults: FaultProfile::new(7).with_event(2, 0, FaultKind::Down),
        op_timeout: Some(Duration::from_millis(250)),
        down_after: 1,
        ..ResilienceConfig::default()
    });
    let mut engine = ServingEngine::start(&snapshot, &config).unwrap();
    let start = Instant::now();
    let err = engine.submit(queries(&snapshot, 1, 32)).unwrap_err();
    assert!(err.is_fault(), "expected a liveness fault, got {err}");
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "fault took {:?} to surface",
        start.elapsed()
    );
    // Without a replica, shard 2's rows are simply unavailable from now on:
    // under the default Error policy, batches touching them fail as a fault —
    // but the engine itself keeps running.
    let err = engine.submit(queries(&snapshot, 2, 28)).unwrap_err();
    assert!(err.is_fault(), "expected Unavailable, got {err}");
}

/// Zero-fill degraded mode: with no replica and a dead rank, serving continues
/// — affected queries are answered with zeroed rows and counted.
#[test]
fn zero_fill_keeps_serving_without_replicas() {
    let snapshot = baseline_snapshot();
    let config = ServeConfig::new(cluster_2x4()).with_resilience(ResilienceConfig {
        faults: FaultProfile::new(7).with_event(2, 0, FaultKind::Down),
        op_timeout: Some(Duration::from_millis(250)),
        down_after: 1,
        degraded: DegradedPolicy::ZeroFill,
        ..ResilienceConfig::default()
    });
    let mut engine = ServingEngine::start(&snapshot, &config).unwrap();
    let _ = engine.submit(queries(&snapshot, 1, 32)).unwrap_err();
    for seed in 2..5 {
        let served = engine.submit(queries(&snapshot, seed, 28)).unwrap();
        assert_eq!(served.len(), 28);
        assert!(served
            .iter()
            .all(|p| p.is_finite() && (0.0..=1.0).contains(p)));
    }
    let stats = engine.shutdown();
    assert!(
        stats.degraded_answers > 0,
        "Zipf batches over 3 seeds must touch the lost shard"
    );
}

/// Shutdown must return promptly even when a rank died mid-collective (the
/// historical hang: workers blocked in a rendezvous nobody will complete).
#[test]
fn shutdown_after_rank_down_is_bounded() {
    let snapshot = baseline_snapshot();
    // No op timeout at all: if shutdown failed to abort the worlds, a worker
    // blocked on the dead rank's deposit would hang the join forever.
    let config = ServeConfig::new(cluster_2x4()).with_resilience(ResilienceConfig {
        faults: FaultProfile::new(3).with_event(5, 2, FaultKind::Down),
        ..ResilienceConfig::default()
    });
    let mut engine = ServingEngine::start(&snapshot, &config).unwrap();
    let _ = engine.submit(queries(&snapshot, 1, 32));
    let start = Instant::now();
    let _ = engine.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "shutdown took {:?}",
        start.elapsed()
    );
}

/// Fault injection is seed-stable: the same profile over the same stream gives
/// the same schedule — identical predictions *and* identical ServeStats,
/// retries included — for random drops and for a rank killed mid-stream behind
/// a warm cache, whose failed batch must leave no trace in the stats.
#[test]
fn same_seed_gives_identical_stats_and_predictions() {
    let snapshot = baseline_snapshot();
    let dropping = ResilienceConfig {
        replicas: 1,
        faults: FaultProfile::new(99).with_drop_rate(0.05),
        op_timeout: Some(Duration::from_secs(10)),
        max_retries: 4,
        retry_backoff: Duration::from_millis(1),
        ..ResilienceConfig::default()
    };
    // As in `killed_rank_fails_over_bit_identically`: rank 3 dies at the first
    // collective after four healthy 32-query batches, that batch fails, and
    // the 7 survivors answer 28-query batches.
    let killed = ResilienceConfig {
        replicas: 1,
        faults: FaultProfile::new(11).with_event(3, 16, FaultKind::Down),
        op_timeout: Some(Duration::from_millis(250)),
        down_after: 1,
        ..ResilienceConfig::default()
    };
    let killed_stream: Vec<(u64, usize)> = (100..104)
        .map(|seed| (seed, 32))
        .chain([(1, 32)])
        .chain((2..6).map(|seed| (seed, 28)))
        .collect();
    let cases = [
        (
            dropping,
            BatchConfig::default().cache_rows,
            (0..4).map(|seed| (seed, 32)).collect::<Vec<_>>(),
            0,
        ),
        (killed, 4096, killed_stream, 1),
    ];
    for (resilience, cache_rows, stream, failures) in cases {
        let run = || {
            let config = ServeConfig::new(cluster_2x4())
                .with_batch(BatchConfig {
                    cache_rows,
                    ..BatchConfig::default()
                })
                .with_resilience(resilience.clone());
            let mut engine = ServingEngine::start(&snapshot, &config).unwrap();
            let mut preds = Vec::new();
            let mut failed = 0;
            for &(seed, n) in &stream {
                match engine.submit(queries(&snapshot, seed, n)) {
                    Ok(batch) => preds.extend(batch),
                    Err(err) => {
                        assert!(err.is_fault(), "injected fault surfaced as {err}");
                        failed += 1;
                    }
                }
            }
            assert_eq!(failed, failures, "failed batches");
            (preds, engine.shutdown())
        };
        let (preds_a, stats_a) = run();
        let (preds_b, stats_b) = run();
        if failures == 0 {
            assert!(stats_a.retries > 0, "the drop rate must actually fire");
        } else {
            assert!(stats_a.failovers > 0, "the replica must have answered");
        }
        assert_eq!(stats_a, stats_b, "same seed, same ServeStats");
        assert_bit_identical(&preds_a, &preds_b, "same seed, same predictions");
    }
}

/// A transient stall convicts the rank (its in-flight work is fenced off), but
/// probing readmits it, and full-strength serving resumes bit-identically.
#[test]
fn stalled_rank_is_convicted_then_probed_back_in() {
    let snapshot = baseline_snapshot();
    let config = ServeConfig::new(cluster_2x4()).with_resilience(ResilienceConfig {
        replicas: 1,
        faults: FaultProfile::new(5).with_event(3, 0, FaultKind::Stall { ms: 1_500 }),
        op_timeout: Some(Duration::from_millis(100)),
        down_after: 1,
        probe_every_batches: 2,
        ..ResilienceConfig::default()
    });
    let mut engine = ServingEngine::start(&snapshot, &config).unwrap();

    // The stalled rank misses its deadline, gets convicted by its peers, and —
    // waking fenced out of the advanced rendezvous — reports its own death.
    let err = engine.submit(queries(&snapshot, 1, 32)).unwrap_err();
    assert!(err.is_fault(), "stall surfaced as {err}");
    assert_eq!(engine.dead_ranks(), vec![3]);

    // Survivors keep serving: 28 queries = 4 per remaining rank. This is the
    // second submission; the third reaches the probe interval.
    let batch = queries(&snapshot, 2, 28);
    let reference = reference_predictions(&snapshot, &batch);
    let served = engine.submit(batch).unwrap();
    assert_bit_identical(&served, &reference, "while rank 3 is out");

    // The stall was transient, not a permanent death: the probe readmits the
    // rank and 8-way serving resumes, still bit-identical.
    let batch = queries(&snapshot, 9, 32);
    let reference = reference_predictions(&snapshot, &batch);
    let served = engine.submit(batch).unwrap();
    assert_eq!(engine.dead_ranks(), Vec::<usize>::new());
    assert_bit_identical(&served, &reference, "after probe readmission");
}
