//! Stage-disaggregated serving integration tests: the staged engine must stay
//! bit-identical to the training-side reference model, reject configurations
//! it cannot honor, and — the headline SLO guarantee — keep the p99 sojourn of
//! *admitted* traffic inside the deadline budget at well past saturation, by
//! shedding (fast, observable, priority-ordered) instead of queueing.

use dmt_data::{Query, ZipfRequestStream};
use dmt_models::ModelArch;
use dmt_nn::EmbeddingTable;
use dmt_serve::{
    run_load, ArrivalProcess, BatchConfig, LoadConfig, Pipeline, Priority, Request, ServeConfig,
    ServeError, ServingEngine, ShedReason, SloConfig, StagePools, StagedEngine, NO_DEADLINE,
};
use dmt_tensor::Tensor;
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::model::{load_params, DenseStack};
use dmt_trainer::distributed::{
    run_with_snapshot, DistributedConfig, ExecutionMode, ModelSnapshot,
};

/// Stage-link pacing of the SLO runs: slow enough that batch service time is
/// dominated by the deterministic transfer sleep (stable on shared CI boxes),
/// fast enough that a run finishes in test time.
const XFER_BYTES_PER_S: u64 = 4_000_000;
/// Requests per micro-batch of the SLO runs.
const MAX_BATCH: usize = 8;
/// The p99 sojourn SLO of the overload test, microseconds.
const SLO_US: u64 = 50_000;

/// The overload test asserts wall-clock latency, and every test here spins up
/// eight-thread clusters: run one at a time, so the sibling tests of this
/// binary are not the load that blows the latency bound.
fn one_at_a_time() -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TURN.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn cluster_2x4() -> ClusterTopology {
    ClusterTopology::new(HardwareGeneration::A100, 2, 4).unwrap()
}

fn baseline_snapshot() -> ModelSnapshot {
    let cfg = DistributedConfig::quick(cluster_2x4(), ModelArch::Dlrm).with_iterations(3);
    let (_, snapshot) = run_with_snapshot(&cfg, ExecutionMode::Baseline).unwrap();
    snapshot
}

/// Training-side baseline reference: full tables pooled locally, one forward
/// pass over the whole batch.
fn reference_predictions(snapshot: &ModelSnapshot, queries: &[Query]) -> Vec<f32> {
    let schema = &snapshot.schema;
    let n = snapshot.hyper.embedding_dim;
    let b = queries.len();
    let mut pooled: Vec<Tensor> = Vec::with_capacity(schema.num_sparse());
    for f in 0..schema.num_sparse() {
        let table = snapshot.table(f).expect("snapshot covers every feature");
        let mut full = EmbeddingTable::from_weights(table.rows, table.dim, table.data.clone());
        let bags: Vec<Vec<usize>> = queries.iter().map(|q| q.sparse[f].clone()).collect();
        pooled.push(full.forward(&bags).unwrap());
    }
    let refs: Vec<&Tensor> = pooled.iter().collect();
    let feature_block = Tensor::concat_cols(&refs).unwrap();
    let dense_input = Tensor::from_vec(
        vec![b, schema.num_dense],
        queries.iter().flat_map(|q| q.dense.clone()).collect(),
    )
    .unwrap();
    let mut dense = DenseStack::new(
        snapshot.seed,
        schema,
        snapshot.arch,
        &snapshot.hyper,
        n,
        schema.num_sparse() + 1,
    );
    load_params(&mut dense, &snapshot.dense_params).unwrap();
    dense.forward(&dense_input, &feature_block).unwrap()
}

/// A staged config with the given SLO knobs over the test cluster.
fn staged_config(slo: SloConfig) -> ServeConfig {
    ServeConfig::new(cluster_2x4())
        .with_batch(BatchConfig {
            max_batch: MAX_BATCH,
            max_delay_us: 500,
            ..BatchConfig::default()
        })
        .with_slo(slo)
}

/// The disaggregation contract's floor: whatever the pool split, a staged
/// deployment answers bit-identically to the training-side model.
#[test]
fn staged_engine_is_bit_identical_to_the_reference() {
    let _turn = one_at_a_time();
    let snapshot = baseline_snapshot();
    for (lookup, dense) in [(2, 1), (4, 2), (1, 3)] {
        let config = staged_config(SloConfig::default());
        let mut engine =
            StagedEngine::start(&snapshot, StagePools::new(lookup, dense), &config).unwrap();
        let mut stream = ZipfRequestStream::new(snapshot.schema.clone(), 42, 1.1);
        let queries = stream.next_queries(MAX_BATCH);
        let reference = reference_predictions(&snapshot, &queries);
        engine.offer(Request::new(queries)).unwrap();
        engine.flush().unwrap();
        let mut done = Vec::new();
        while done.is_empty() {
            done = engine.drain().unwrap();
            std::thread::sleep(std::time::Duration::from_micros(100));
        }
        assert_eq!(done.len(), 1);
        let served = &done[0].preds;
        assert_eq!(served.len(), reference.len(), "{lookup}x{dense} pools");
        for (i, (s, r)) in served.iter().zip(&reference).enumerate() {
            assert_eq!(
                s.to_bits(),
                r.to_bits(),
                "{lookup}x{dense} pools, query {i}: served {s} != reference {r}"
            );
        }
        let (_, stats) = engine.shutdown().unwrap();
        assert_eq!(stats.queries, MAX_BATCH as u64);
        assert!(stats.index_bytes > 0 && stats.row_bytes > 0 && stats.xfer_bytes > 0);
    }
}

/// Offers `queries` as one request and waits for its predictions.
fn serve_one(engine: &mut StagedEngine, queries: Vec<Query>) -> Vec<f32> {
    engine.offer(Request::new(queries)).unwrap();
    engine.flush().unwrap();
    loop {
        engine.wait(std::time::Duration::from_millis(10));
        if let Some(done) = engine.drain().unwrap().pop() {
            return done.preds;
        }
    }
}

/// Configurations the staged engine cannot honor fail fast at start.
#[test]
fn staged_engine_rejects_unservable_configs() {
    let _turn = one_at_a_time();
    let snapshot = baseline_snapshot();
    let config = staged_config(SloConfig::default());
    let Err(err) = StagedEngine::start(&snapshot, StagePools::new(0, 1), &config) else {
        panic!("an empty lookup pool must be rejected");
    };
    assert!(err.to_string().contains("pool"), "got {err}");

    // A DMT snapshot is served: the lookup stage spans its two towers' hosts,
    // and the pooled dense stage answers bit-identically to the colocated one.
    let dmt_cfg = DistributedConfig::quick(cluster_2x4(), ModelArch::Dlrm).with_iterations(1);
    let (_, dmt_snap) = run_with_snapshot(&dmt_cfg, ExecutionMode::Dmt).unwrap();
    let queries = ZipfRequestStream::new(dmt_snap.schema.clone(), 5, 1.1).next_queries(32);
    let mut colocated = ServingEngine::start(&dmt_snap, &config).unwrap();
    let expected = colocated.submit(queries.clone()).unwrap();
    let mut pooled = StagedEngine::start(&dmt_snap, StagePools::new(2, 1), &config).unwrap();
    let served = serve_one(&mut pooled, queries);
    assert_eq!(served.len(), expected.len());
    for (s, e) in served.iter().zip(&expected) {
        assert_eq!(s.to_bits(), e.to_bits(), "pooled DMT {s} != colocated {e}");
    }

    // Absurd or unservable inputs are typed errors from the one `start`,
    // whatever the placement — never a panic, never silently adjusted.
    type Edit = fn(&mut ServeConfig);
    let pools = |l, d| Some(StagePools::new(l, d));
    let cases: [(&str, &ModelSnapshot, Option<StagePools>, Edit); 11] = [
        ("zero max_batch", &snapshot, None, |c| c.batch.max_batch = 0),
        ("zero max_batch, pooled", &snapshot, pools(2, 1), |c| {
            c.batch.max_batch = 0;
        }),
        ("zero stage queue", &snapshot, pools(2, 1), |c| {
            c.slo.stage_queue = 0;
        }),
        ("zero queue bound", &snapshot, None, |c| {
            c.slo.queue_bound = 0
        }),
        ("empty dense pool", &snapshot, pools(2, 0), |_| {}),
        ("replicas fill the cluster", &snapshot, None, |c| {
            c.resilience.replicas = 8;
        }),
        (
            "replicas fill the lookup pool",
            &snapshot,
            pools(2, 1),
            |c| {
                c.resilience.replicas = 2;
            },
        ),
        ("towers on too few hosts", &dmt_snap, None, |c| {
            c.cluster = ClusterTopology::new(HardwareGeneration::A100, 1, 4).unwrap();
        }),
        ("towers on an uneven pool", &dmt_snap, pools(3, 1), |_| {}),
        ("replicated towers", &dmt_snap, None, |c| {
            c.resilience.replicas = 1;
        }),
        ("replicated towers, pooled", &dmt_snap, pools(4, 2), |c| {
            c.resilience.replicas = 1;
        }),
    ];
    for (what, snap, pools, edit) in cases {
        let mut config = staged_config(SloConfig::default());
        edit(&mut config);
        match Pipeline::start(snap, pools, &config) {
            Err(ServeError::Config { .. }) => {}
            Err(other) => panic!("{what}: expected a Config error, got {other}"),
            Ok(_) => panic!("{what}: must be rejected"),
        }
    }
}

/// Admission composes with every deployment: watermark and deadline shedding
/// in front of a *colocated DMT* pipeline. Occupancy is only released when
/// the front absorbs completions, so offering without draining walks the
/// priority watermarks deterministically.
#[test]
fn admission_sheds_in_front_of_a_colocated_dmt_deployment() {
    let _turn = one_at_a_time();
    let dmt_cfg = DistributedConfig::quick(cluster_2x4(), ModelArch::Dlrm).with_iterations(1);
    let (_, snapshot) = run_with_snapshot(&dmt_cfg, ExecutionMode::Dmt).unwrap();
    let config = ServeConfig::new(cluster_2x4())
        .with_batch(BatchConfig {
            max_batch: 4,
            max_delay_us: 1_000_000,
            ..BatchConfig::default()
        })
        .with_slo(SloConfig {
            queue_bound: 32,
            service_estimate_us: 1_000,
            shed: true,
            ..SloConfig::default()
        });
    let mut engine = Pipeline::start(&snapshot, None, &config).unwrap();
    let mut stream = ZipfRequestStream::new(snapshot.schema.clone(), 21, 1.1);
    let mut offer = |engine: &mut Pipeline, priority: Priority, deadline_us: u64| {
        let request = Request::new(stream.next_queries(8))
            .with_priority(priority)
            .with_deadline_us(deadline_us);
        (request.queries.clone(), engine.offer(request))
    };
    let shed_reason = |outcome: Result<u64, ServeError>| match outcome {
        Err(ServeError::Shed { reason, .. }) => reason,
        other => panic!("expected a shed, got {other:?}"),
    };

    // A budget below the service estimate is refused whatever the class.
    let too_soon = engine.now_us() + 10;
    let (_, infeasible) = offer(&mut engine, Priority::High, too_soon);
    assert!(matches!(
        shed_reason(infeasible),
        ShedReason::DeadlineInfeasible { .. }
    ));
    // 8-query requests against a 32-query bound: Low fills to 50%, Standard
    // to 75%, High to 100% — each class is refused exactly at its watermark.
    let mut admitted = Vec::new();
    for (class, fits, watermark) in [
        (Priority::Low, 2, 16),
        (Priority::Standard, 1, 24),
        (Priority::High, 1, 32),
    ] {
        for _ in 0..fits {
            let (queries, outcome) = offer(&mut engine, class, NO_DEADLINE);
            admitted.push((outcome.unwrap(), queries));
        }
        let (_, refused) = offer(&mut engine, class, NO_DEADLINE);
        assert_eq!(
            shed_reason(refused),
            ShedReason::QueueFull {
                occupancy: watermark,
                bound: watermark
            }
        );
    }

    // The four admitted requests closed one batch by size: 32 queries, four
    // per rank, answered bit-identically to the blocking colocated engine.
    let (mut done, stats) = engine.shutdown().unwrap();
    done.sort_by_key(|c| c.seq);
    let mut reference = ServingEngine::start(&snapshot, &ServeConfig::new(cluster_2x4())).unwrap();
    let all: Vec<Query> = admitted.iter().flat_map(|(_, q)| q.clone()).collect();
    let expected = reference.submit(all).unwrap();
    let served: Vec<f32> = done.iter().flat_map(|c| c.preds.clone()).collect();
    assert_eq!(
        done.iter().map(|c| c.seq).collect::<Vec<_>>(),
        admitted.iter().map(|(seq, _)| *seq).collect::<Vec<_>>()
    );
    for (s, e) in served.iter().zip(&expected) {
        assert_eq!(s.to_bits(), e.to_bits());
    }
    assert_eq!(stats.admitted_by_class, [2, 1, 1]);
    assert_eq!(stats.shed_by_class, [1, 1, 2]);
    assert_eq!((stats.queries, stats.failed, stats.size_closes), (32, 0, 1));
    assert_eq!(stats.max_occupancy, 32);
}

/// The headline guarantee: at roughly twice the no-shedding saturation rate,
/// an admission-controlled engine keeps the p99 sojourn of *admitted* traffic
/// inside the SLO by shedding — priority-ordered, observable, and counted —
/// while the same engine without shedding lets queueing delay blow through it.
#[test]
fn admitted_p99_meets_the_slo_at_twice_saturation() {
    let _turn = one_at_a_time();
    let snapshot = baseline_snapshot();
    let pools = StagePools::new(2, 1).with_xfer_bytes_per_s(XFER_BYTES_PER_S);
    let mut stream = ZipfRequestStream::new(snapshot.schema.clone(), 7, 1.1);
    let mut next = {
        let stream = &mut stream;
        move || stream.next_queries(1)
    };

    // Probe the no-shedding saturation throughput with a closed loop: clients
    // always keep the pipeline full, so completed qps is the capacity ceiling.
    let mut probe_engine =
        StagedEngine::start(&snapshot, pools, &staged_config(SloConfig::default())).unwrap();
    let probe = run_load(
        &mut probe_engine,
        &LoadConfig::new(160, ArrivalProcess::Closed { clients: 16 }),
        &mut next,
    )
    .unwrap();
    probe_engine.shutdown().unwrap();
    let saturation_qps = probe.completed_qps();
    assert!(saturation_qps > 0.0);

    // Offered load: 2x saturation, Poisson arrivals, a 30/10 low/high mix.
    let overload = LoadConfig::new(
        400,
        ArrivalProcess::Poisson {
            qps: 2.0 * saturation_qps,
            seed: 99,
        },
    )
    .with_deadline_us(SLO_US)
    .with_mix(30, 10);

    // Without shedding the open queue absorbs the excess and sojourn blows up.
    let mut unshedded_engine =
        StagedEngine::start(&snapshot, pools, &staged_config(SloConfig::default())).unwrap();
    let unshedded = run_load(&mut unshedded_engine, &overload, &mut next).unwrap();
    unshedded_engine.shutdown().unwrap();
    assert_eq!(unshedded.total_shed(), 0, "shedding was disabled");
    assert_eq!(unshedded.completed, 400, "every request still completes");

    // With admission control: bound the queue to a few batches and shed.
    let slo = SloConfig {
        deadline_us: SLO_US,
        queue_bound: 4 * MAX_BATCH,
        service_estimate_us: 5_000,
        shed: true,
        ..SloConfig::default()
    };
    let mut shedded_engine = StagedEngine::start(&snapshot, pools, &staged_config(slo)).unwrap();
    let shedded = run_load(&mut shedded_engine, &overload, &mut next).unwrap();
    let (_, stats) = shedded_engine.shutdown().unwrap();

    assert!(
        shedded.total_shed() > 0,
        "2x saturation must shed ({} offered, {} admitted)",
        shedded.offered,
        shedded.admitted
    );
    assert_eq!(
        shedded.admitted + shedded.total_shed() as usize,
        shedded.offered,
        "every offered request is admitted or shed, never lost"
    );
    assert_eq!(
        shedded.completed, shedded.admitted,
        "admitted means answered"
    );
    let slo_s = SLO_US as f64 * 1e-6;
    assert!(
        shedded.sojourn.p99 <= slo_s,
        "admitted p99 {:.1}ms blew the {:.0}ms SLO (shed {} of {})",
        shedded.sojourn.p99 * 1e3,
        slo_s * 1e3,
        shedded.total_shed(),
        shedded.offered
    );
    assert!(
        shedded.sojourn.p99 < unshedded.sojourn.p99,
        "shedding must beat the open queue (shedded p99 {:.1}ms vs unshedded {:.1}ms)",
        shedded.sojourn.p99 * 1e3,
        unshedded.sojourn.p99 * 1e3
    );

    // Priority ordering: low-class traffic sheds at least as hard as high.
    let offered_of = |p: Priority| {
        (0..overload.requests)
            .filter(|&i| overload.priority_of(i) == p)
            .count() as f64
    };
    let frac = |p: Priority| shedded.shed_by_class[p.index()] as f64 / offered_of(p).max(1.0);
    assert!(
        frac(Priority::Low) >= frac(Priority::High),
        "low class must shed at least as hard as high (low {:.2} vs high {:.2})",
        frac(Priority::Low),
        frac(Priority::High)
    );

    // Occupancy accounting: the bound held and shed queries never entered.
    assert!(stats.max_occupancy <= 4 * MAX_BATCH);
    assert_eq!(stats.queries, shedded.completed as u64);
    assert_eq!(stats.shed(), shedded.total_shed());
}
