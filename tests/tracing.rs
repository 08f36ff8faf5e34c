//! Observability integration tests: the exported Chrome trace is a *second
//! witness* to the engine's measurements, not decoration.
//!
//! * A pipelined 2×4 DMT training run is traced end to end; the trace round
//!   trips through `trace.json` on disk, validates structurally (spans nest,
//!   no negative durations, async begin/end balance), and — the payoff —
//!   [`dmt_metrics::trace::hidden_comm_fraction_from_trace`] recomputes the
//!   paper's overlap metric from the raw `WAIT`/`COMM` events alone and
//!   matches [`MeasuredRun::hidden_comm_fraction`] the engine reported live.
//! * A staged serving run carries one balanced async `request` span per
//!   completed request, and sheds appear as instants — the trace accounts for
//!   every offered request.
//! * `ServeStats::since` is reflection-checked over its serialized form so a
//!   newly added counter cannot silently ride through as a carry-over gauge.

use dmt_data::ZipfRequestStream;
use dmt_metrics::trace;
use dmt_models::ModelArch;
use dmt_serve::{
    run_load, ArrivalProcess, BatchConfig, LoadConfig, ServeConfig, ServeStats, SloConfig,
    StagePools, StagedEngine,
};
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::{
    run_dmt, run_with_snapshot, DistributedConfig, ExecutionMode, MeasuredRun, ScheduleMode,
};
use serde::json::Value;
use std::sync::Mutex;

/// One capture at a time: tracing tests take this lock, drain any leftovers,
/// record, and disable again before releasing. What the capture holds is
/// bounded by the recorder's scopes, not by this lock — sibling tests train
/// and serve outside it, on threads of their own scopes.
static TRACE_LOCK: Mutex<()> = Mutex::new(());

fn record<R>(work: impl FnOnce() -> R) -> (R, Vec<trace::TraceEvent>) {
    let _guard = TRACE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    trace::set_tracing(false);
    let _ = trace::take_events();
    trace::set_tracing(true);
    let result = work();
    trace::set_tracing(false);
    (result, trace::take_events())
}

fn cluster_2x4() -> ClusterTopology {
    ClusterTopology::new(HardwareGeneration::A100, 2, 4).unwrap()
}

/// Round trips `events` through an actual `trace.json` file — the artifact a
/// user would load into Perfetto — and parses it back.
fn round_trip_through_disk(events: &[trace::TraceEvent]) -> Vec<trace::ParsedEvent> {
    let path = std::env::temp_dir().join(format!("dmt_trace_test_{}.json", std::process::id()));
    trace::write_chrome_trace(&path, events).expect("trace.json writes");
    let json = std::fs::read_to_string(&path).expect("trace.json reads back");
    let _ = std::fs::remove_file(&path);
    trace::parse_chrome_trace(&json).expect("trace.json parses")
}

/// A capture holds the enabling thread's scope and nothing else: workers that
/// inherited the scope are in it even when they were spawned before tracing
/// was switched on, threads of other scopes are not.
#[test]
fn captures_are_scoped_to_the_enabling_thread_and_its_workers() {
    use std::sync::mpsc::channel;
    let instant = |name: &str| {
        trace::emit(trace::TraceEvent::instant(
            trace::current_track(),
            trace::cat::SERVE,
            name.to_string(),
            trace::clock_s(),
        ));
    };
    let scope = trace::current_scope();
    // Both threads exist before the capture starts and emit only once told to.
    let (go_worker, worker_turn) = channel::<()>();
    let worker = std::thread::spawn(move || {
        trace::enter_scope(scope);
        worker_turn.recv().unwrap();
        instant("early worker");
    });
    let (go_stranger, stranger_turn) = channel::<()>();
    let stranger = std::thread::spawn(move || {
        stranger_turn.recv().unwrap();
        instant("stranger");
    });
    let ((), events) = record(|| {
        instant("root");
        go_worker.send(()).unwrap();
        go_stranger.send(()).unwrap();
        worker.join().unwrap();
        stranger.join().unwrap();
        std::thread::spawn(move || {
            trace::enter_scope(scope);
            instant("late worker");
        })
        .join()
        .unwrap();
    });
    let mut names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    assert_eq!(names, ["early worker", "late worker", "root"]);
}

/// The tentpole cross-check: trace-recomputed overlap matches the live
/// measurement on a pipelined 2×4 DMT run.
#[test]
fn pipelined_dmt_trace_recomputes_the_measured_hidden_comm_fraction() {
    let iterations = 3usize;
    let cfg = DistributedConfig::quick(cluster_2x4(), ModelArch::Dlrm)
        .with_schedule(ScheduleMode::Pipelined)
        .with_iterations(iterations);
    let (run, events): (MeasuredRun, _) = record(|| run_dmt(&cfg).unwrap());
    assert_eq!(trace::events_dropped(), 0, "no thread buffer overflowed");

    let parsed = round_trip_through_disk(&events);
    let summary = trace::validate_trace(&parsed).expect("trace is structurally valid");
    assert!(summary.spans > 0, "training emitted spans");

    let world = cfg.cluster.world_size();
    let iter_spans = parsed
        .iter()
        .filter(|e| e.ph == "X" && e.cat == trace::cat::ITER)
        .count();
    assert_eq!(
        iter_spans,
        iterations * world,
        "one iteration span per rank"
    );
    assert!(
        parsed
            .iter()
            .any(|e| e.ph == "X" && e.cat == trace::cat::NODE),
        "graph-node executions are traced"
    );
    assert!(
        parsed
            .iter()
            .any(|e| e.ph == "X" && e.cat == trace::cat::COMM),
        "comm transfers are traced"
    );
    assert!(
        parsed
            .iter()
            .any(|e| e.ph == "i" && e.cat == trace::cat::WAIT),
        "collective waits are traced"
    );
    // Lanes carry display metadata so Perfetto shows named ranks, not bare ids.
    assert!(
        parsed
            .iter()
            .any(|e| e.ph == "M" && e.name == "thread_name"),
        "lane names are exported"
    );

    let measured = run.hidden_comm_fraction();
    assert!(
        measured > 0.0,
        "a pipelined DMT run hides some communication (got {measured})"
    );
    let from_trace =
        trace::hidden_comm_fraction_from_trace(&parsed).expect("trace holds comm + wait events");
    assert!(
        (from_trace - measured).abs() < 0.05,
        "trace recompute {from_trace} vs measured {measured}"
    );
}

/// The rank work outside the iteration graph is traced: on a 2×2 DMT run
/// every rank carries one `batch generation` and one `optimizer` span per
/// iteration, each inside one of that rank's iteration spans.
#[test]
fn dmt_batch_generation_and_optimizer_spans_are_traced() {
    let iterations = 2usize;
    let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 2).unwrap();
    let cfg = DistributedConfig::quick(cluster, ModelArch::Dlrm).with_iterations(iterations);
    let (run, events) = record(|| run_dmt(&cfg));
    run.unwrap();
    let parsed = round_trip_through_disk(&events);
    trace::validate_trace(&parsed).expect("trace is structurally valid");
    let iteration_spans: Vec<&trace::ParsedEvent> = parsed
        .iter()
        .filter(|e| e.ph == "X" && e.cat == trace::cat::ITER)
        .collect();
    for name in ["batch generation", "optimizer"] {
        let spans: Vec<&trace::ParsedEvent> = parsed
            .iter()
            .filter(|e| e.ph == "X" && e.cat == trace::cat::STEP && e.name == name)
            .collect();
        assert_eq!(
            spans.len(),
            iterations * cfg.cluster.world_size(),
            "one `{name}` span per rank and iteration"
        );
        for span in spans {
            assert!(
                iteration_spans
                    .iter()
                    .any(|it| (it.pid, it.tid) == (span.pid, span.tid)
                        && it.ts_us <= span.ts_us
                        && span.ts_us + span.dur_us <= it.ts_us + it.dur_us),
                "`{name}` at {} µs on lane {} lies inside an iteration",
                span.ts_us,
                span.tid
            );
        }
    }
}

/// Every request admitted into the staged pipeline closes its async lifecycle
/// span; sheds are visible as instants. The trace accounts for all traffic.
#[test]
fn staged_serving_trace_carries_one_balanced_span_per_request() {
    let cfg = DistributedConfig::quick(cluster_2x4(), ModelArch::Dlrm).with_iterations(1);
    let (_, snapshot) = run_with_snapshot(&cfg, ExecutionMode::Baseline).unwrap();
    let serve_cfg = ServeConfig::new(cluster_2x4())
        .with_batch(BatchConfig {
            max_batch: 8,
            max_delay_us: 500,
            ..BatchConfig::default()
        })
        .with_slo(SloConfig::default());

    let (report, events) = record(|| {
        let mut engine = StagedEngine::start(&snapshot, StagePools::new(2, 1), &serve_cfg).unwrap();
        let mut stream = ZipfRequestStream::new(snapshot.schema.clone(), 17, 1.1);
        let load = LoadConfig::new(48, ArrivalProcess::Closed { clients: 4 });
        let report = run_load(&mut engine, &load, || stream.next_queries(1)).unwrap();
        engine.shutdown().unwrap();
        report
    });

    let parsed = round_trip_through_disk(&events);
    let summary = trace::validate_trace(&parsed).expect("serving trace is structurally valid");
    assert_eq!(
        summary.async_pairs, report.completed,
        "one matched request span per completed request"
    );
    let sheds = parsed
        .iter()
        .filter(|e| e.ph == "i" && e.cat == trace::cat::REQUEST && e.name == "shed")
        .count() as u64;
    assert_eq!(sheds, report.total_shed(), "every shed leaves an instant");
    for stage in ["lookup + pool", "dense forward"] {
        assert!(
            parsed
                .iter()
                .any(|e| e.ph == "X" && e.cat == trace::cat::SERVE && e.name == stage),
            "stage span `{stage}` is traced"
        );
    }
}

fn flatten_numeric(prefix: &str, value: &Value, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Number(n) => out.push((prefix.to_string(), *n)),
        Value::Object(entries) => {
            for (key, child) in entries {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                flatten_numeric(&path, child, out);
            }
        }
        _ => {}
    }
}

fn numeric_leaves(stats: &ServeStats) -> Vec<(String, f64)> {
    let json = serde_json::to_string(stats).expect("ServeStats serializes");
    let value: Value = json.parse().expect("ServeStats JSON parses");
    let mut out = Vec::new();
    flatten_numeric("", &value, &mut out);
    out
}

/// Reflection-enforces that [`ServeStats::since`] treats every field either as
/// a delta or as a declared gauge — a new counter that accidentally rides
/// through unchanged fails here, and a new field fails to compile the struct
/// literals below until this test acknowledges it.
#[test]
fn serve_stats_since_covers_every_field() {
    /// The only fields `since` may carry through unchanged: capacity gauges,
    /// not accumulating counters.
    const GAUGES: [&str; 3] = [
        "replica_bytes",
        "table_resident_bytes",
        "cache_resident_bytes",
    ];
    let before = ServeStats {
        queries: 11,
        batches: 13,
        payload_bytes: 17,
        cross_host_bytes: 19,
        intra_host_bytes: 23,
        retries: 29,
        failovers: 31,
        degraded_answers: 37,
        replica_bytes: 41,
        table_resident_bytes: 43,
        cache_resident_bytes: 47,
        cache: dmt_serve::CacheStats {
            hits: 53,
            misses: 59,
            inserts: 61,
            evictions: 67,
            saved_bytes: 71,
        },
    };
    let after = ServeStats {
        queries: 1011,
        batches: 1113,
        payload_bytes: 1217,
        cross_host_bytes: 1319,
        intra_host_bytes: 1423,
        retries: 1529,
        failovers: 1631,
        degraded_answers: 1737,
        replica_bytes: 1841,
        table_resident_bytes: 1943,
        cache_resident_bytes: 2047,
        cache: dmt_serve::CacheStats {
            hits: 2153,
            misses: 2259,
            inserts: 2361,
            evictions: 2467,
            saved_bytes: 2571,
        },
    };
    let before_leaves = numeric_leaves(&before);
    let after_leaves = numeric_leaves(&after);
    let delta_leaves = numeric_leaves(&after.since(&before));
    assert_eq!(before_leaves.len(), after_leaves.len());
    assert_eq!(before_leaves.len(), delta_leaves.len());
    assert!(!delta_leaves.is_empty());
    for ((path, delta), ((path_b, b), (path_a, a))) in delta_leaves
        .iter()
        .zip(before_leaves.iter().zip(&after_leaves))
    {
        assert_eq!(path, path_b);
        assert_eq!(path, path_a);
        let leaf = path.rsplit('.').next().unwrap_or(path);
        if GAUGES.contains(&leaf) {
            assert_eq!(
                delta, a,
                "gauge `{path}` must carry the current value through `since`"
            );
        } else {
            assert_eq!(
                *delta,
                a - b,
                "counter `{path}` must be differenced by `since`"
            );
        }
    }
}
