//! Availability-under-faults tracker and gate.
//!
//! Trains a baseline deployment on the 8-rank 2x4 cluster, serves a Zipf query
//! stream with shard replication enabled, and kills one rank mid-stream with a
//! scripted fault (`dmt-comm`'s seed-stable injection). Measured:
//!
//! * **recovery time** — wall time from the first fault error to the next
//!   successfully answered batch (the dispatcher excludes the dead rank and the
//!   survivors fail over to the replica shard);
//! * **failover vs healthy latency** — per-batch p50/p99 over the steady state
//!   before the kill and after recovery;
//! * **replication overhead** — healthy throughput with `r = 1` against an
//!   identical unreplicated run, plus the replica bytes held;
//! * **availability** — answered batches over submitted batches across the
//!   whole faulted stream (exactly one batch, the one in flight when the rank
//!   dies, is allowed to fail).
//!
//! Results go to `BENCH_availability.json` (committed baseline, one `--pair`
//! of the CI bench-regression gate). The gated rows are the healthy, failover
//! steady-state and unreplicated configurations — all fabric-paced, so their
//! timing is dominated by deterministic pacing sleeps, not scheduler noise; the
//! kill/recovery transient is reported in the JSON but carries no gated
//! `ns_per_iter` of its own. Run with
//! `cargo run --release -p dmt-bench --bin bench_availability` (add `--quick`
//! for the CI-friendly shorter stream; the committed baseline is the `--quick`
//! configuration so the gate always compares equal-length streams).

use dmt_comm::{FabricProfile, FaultKind, FaultProfile};
use dmt_data::{Query, ZipfRequestStream};
use dmt_metrics::percentile;
use dmt_models::ModelArch;
use dmt_serve::{BatchConfig, ResilienceConfig, ServeConfig, ServingEngine};
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::{
    run_with_snapshot, DistributedConfig, ExecutionMode, ModelSnapshot,
};
use serde::Serialize;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fabric slowdown: stretches wire time so pacing dominates scheduler noise.
const FABRIC_SLOWDOWN: f64 = 4_000.0;
/// Queries per submitted batch (4 per rank on the healthy 8-rank cluster).
const BATCH: usize = 32;
/// Zipf exponent of the request stream.
const ZIPF: f64 = 1.1;
/// Per-rank hot-row cache capacity.
const CACHE_ROWS: usize = 4_096;
/// The rank the fault schedule kills.
const VICTIM: usize = 3;
/// Global-world collectives one replicated baseline batch issues per rank
/// (round-1 index + row exchange, round-2 index + row exchange).
const OPS_PER_BATCH: u64 = 4;

/// One measured serving configuration (gate schema plus availability fields).
#[derive(Debug, Clone, Serialize)]
struct AvailabilityResult {
    /// Operation name (`availability_<phase>`).
    op: String,
    /// Cluster / batch / fabric / workload shape label.
    shape: String,
    /// Nanoseconds per served request over the phase's steady state.
    ns_per_iter: f64,
    /// Median per-batch latency in milliseconds.
    p50_ms: f64,
    /// 99th-percentile per-batch latency in milliseconds.
    p99_ms: f64,
    /// Requests measured.
    iters: u64,
}

/// The whole run's availability story, appended to the JSON after the gated
/// rows (no `ns_per_iter`, so the gate skips it).
#[derive(Debug, Clone, Serialize)]
struct AvailabilitySummary {
    op: String,
    shape: String,
    /// Wall milliseconds from the first fault error to the next answered batch.
    recovery_ms: f64,
    /// Batches that failed across the faulted stream (the in-flight one).
    failed_batches: u64,
    /// Answered / submitted batches over the faulted stream.
    availability: f64,
    /// Rows served by a replica instead of their dead owner.
    failovers: u64,
    /// Collectives re-issued after transient faults.
    retries: u64,
    /// Queries answered with zero-filled rows (must stay 0 with a replica).
    degraded_answers: u64,
    /// Bytes of replica shard copies held across the cluster.
    replica_bytes: u64,
    /// Healthy `r = 1` throughput relative to the unreplicated run (1.0 = free).
    replication_overhead: f64,
}

struct Phase {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    requests: u64,
}

/// Submits `batches` batches, recording per-batch wall time. Every batch must
/// succeed.
fn drive(
    engine: &mut ServingEngine,
    stream: &mut ZipfRequestStream,
    batches: usize,
) -> Result<Phase, String> {
    let mut latencies_ms = Vec::with_capacity(batches);
    let start = Instant::now();
    for i in 0..batches {
        let batch: Vec<Query> = stream.next_queries(BATCH);
        let t0 = Instant::now();
        engine
            .submit(batch)
            .map_err(|e| format!("batch {i} failed: {e}"))?;
        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Phase {
        latencies_ms,
        wall_s: start.elapsed().as_secs_f64(),
        requests: (batches * BATCH) as u64,
    })
}

fn phase_entry(op: &str, shape: &str, phase: &Phase) -> AvailabilityResult {
    AvailabilityResult {
        op: op.to_string(),
        shape: shape.to_string(),
        ns_per_iter: phase.wall_s * 1e9 / phase.requests.max(1) as f64,
        p50_ms: percentile(&phase.latencies_ms, 50.0),
        p99_ms: percentile(&phase.latencies_ms, 99.0),
        iters: phase.requests,
    }
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let quick = dmt_bench::quick_mode();
    let steady_batches = if quick { 12 } else { 48 };
    let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 4).expect("2x4 cluster");
    let fabric = FabricProfile::from_cluster(&cluster, FABRIC_SLOWDOWN);
    let shape = format!("2x4 r1 b{BATCH} f{FABRIC_SLOWDOWN:.0} zipf{ZIPF}");

    dmt_bench::header("Serving availability under rank death (see BENCH_availability.json)");
    println!("training + exporting the baseline snapshot...");
    let train_cfg = DistributedConfig::quick(cluster.clone(), ModelArch::Dlrm).with_iterations(4);
    let (_, snapshot): (_, ModelSnapshot) =
        run_with_snapshot(&train_cfg, ExecutionMode::Baseline).expect("baseline training");

    // The victim dies at the first collective of the batch after the healthy
    // steady state (plus one warmup batch): op indices are deterministic
    // because the healthy phase injects nothing and therefore retries nothing.
    let kill_at_op = (1 + steady_batches as u64) * OPS_PER_BATCH;
    let faults = FaultProfile::new(2024).with_event(VICTIM, kill_at_op, FaultKind::Down);
    let config = ServeConfig::new(cluster.clone())
        .with_fabric(fabric)
        .with_batch(BatchConfig {
            cache_rows: CACHE_ROWS,
            ..BatchConfig::default()
        })
        .with_resilience(ResilienceConfig {
            replicas: 1,
            faults,
            op_timeout: Some(Duration::from_millis(500)),
            down_after: 1,
            ..ResilienceConfig::default()
        });
    let mut engine = ServingEngine::start(&snapshot, &config).expect("engine start");
    let mut stream = ZipfRequestStream::new(snapshot.schema.clone(), 1234, ZIPF);

    // Warmup: first batch pays one-time costs (comm helper threads, cold cache).
    drive(&mut engine, &mut stream, 1).expect("warmup");

    println!("healthy steady state ({steady_batches} batches)...");
    let healthy = drive(&mut engine, &mut stream, steady_batches).expect("healthy phase");

    // The kill: the next batch finds the victim dead at its first collective.
    println!("killing rank {VICTIM} mid-stream...");
    let death = Instant::now();
    let mut failed_batches = 0u64;
    let recovery_ms = loop {
        let batch: Vec<Query> = stream.next_queries(BATCH);
        match engine.submit(batch) {
            Ok(_) => break death.elapsed().as_secs_f64() * 1e3,
            Err(e) => {
                assert!(e.is_fault(), "rank death must surface as a fault, got {e}");
                failed_batches += 1;
                assert!(
                    failed_batches <= 2,
                    "recovery took more than 2 failed batches"
                );
            }
        }
    };
    assert_eq!(engine.dead_ranks(), vec![VICTIM], "victim excluded");

    println!("failover steady state ({steady_batches} batches on 7 ranks)...");
    let failover = drive(&mut engine, &mut stream, steady_batches).expect("failover phase");
    let stats = engine.shutdown();

    // Replication overhead: the identical healthy stream without replicas.
    println!("unreplicated reference ({steady_batches} batches)...");
    let plain_cfg = ServeConfig::new(cluster.clone())
        .with_fabric(fabric)
        .with_batch(BatchConfig {
            cache_rows: CACHE_ROWS,
            ..BatchConfig::default()
        });
    let mut plain = ServingEngine::start(&snapshot, &plain_cfg).expect("plain engine");
    let mut plain_stream = ZipfRequestStream::new(snapshot.schema.clone(), 1234, ZIPF);
    drive(&mut plain, &mut plain_stream, 1).expect("plain warmup");
    let unreplicated = drive(&mut plain, &mut plain_stream, steady_batches).expect("plain phase");
    let _ = plain.shutdown();

    let healthy_entry = phase_entry("availability_healthy", &shape, &healthy);
    let failover_entry = phase_entry("availability_failover", &shape, &failover);
    let plain_shape = shape.replace("r1", "r0");
    let plain_entry = phase_entry("availability_unreplicated", &plain_shape, &unreplicated);
    let total_batches = 2 * steady_batches as u64 + failed_batches + 1;
    let summary = AvailabilitySummary {
        op: "availability_summary".into(),
        shape: shape.clone(),
        recovery_ms,
        failed_batches,
        availability: (total_batches - failed_batches) as f64 / total_batches as f64,
        failovers: stats.failovers,
        retries: stats.retries,
        degraded_answers: stats.degraded_answers,
        replica_bytes: stats.replica_bytes,
        replication_overhead: healthy_entry.ns_per_iter / plain_entry.ns_per_iter,
    };

    println!(
        "\n{:<28} {:>28} {:>12} {:>9} {:>9} {:>8}",
        "op", "shape", "ns/req", "p50 ms", "p99 ms", "iters"
    );
    for entry in [&healthy_entry, &failover_entry, &plain_entry] {
        println!(
            "{:<28} {:>28} {:>12.0} {:>9.2} {:>9.2} {:>8}",
            entry.op, entry.shape, entry.ns_per_iter, entry.p50_ms, entry.p99_ms, entry.iters
        );
    }
    println!(
        "\nrecovery: {recovery_ms:.0} ms, {failed} failed batch(es), availability {avail:.1}%",
        failed = summary.failed_batches,
        avail = summary.availability * 100.0,
    );
    println!(
        "failover p99 {:.2} ms vs healthy p99 {:.2} ms ({:.2}x); {} rows failed over, {} retries",
        failover_entry.p99_ms,
        healthy_entry.p99_ms,
        failover_entry.p99_ms / healthy_entry.p99_ms.max(1e-9),
        stats.failovers,
        stats.retries,
    );
    println!(
        "replication: {} replica bytes held, healthy r1 costs {:.2}x the r0 stream",
        stats.replica_bytes, summary.replication_overhead,
    );

    // The file mixes two row schemas (gated entries + the summary), so the
    // array is assembled from individually serialized objects.
    let rows = [
        serde_json::to_string_pretty(&healthy_entry).expect("entry serializes"),
        serde_json::to_string_pretty(&failover_entry).expect("entry serializes"),
        serde_json::to_string_pretty(&plain_entry).expect("entry serializes"),
        serde_json::to_string_pretty(&summary).expect("summary serializes"),
    ];
    let pretty = format!("[\n{}\n]", rows.join(",\n"));
    std::fs::write("BENCH_availability.json", &pretty).expect("write BENCH_availability.json");
    println!("[results written to BENCH_availability.json]");

    let mut failed = false;
    let mut check = |label: &str, ok: bool| {
        if ok {
            println!("PASS: {label}");
        } else {
            eprintln!("FAIL: {label}");
            failed = true;
        }
    };
    check(
        "exactly one batch fails when the rank dies",
        summary.failed_batches == 1,
    );
    check(
        "recovery within two batch times of the kill",
        summary.recovery_ms < 4.0 * healthy_entry.p99_ms.max(1.0) + 2_000.0,
    );
    check(
        "the dead rank's rows are served by the replica",
        stats.failovers > 0,
    );
    check(
        "nothing is zero-filled with a replica available",
        stats.degraded_answers == 0,
    );
    check(
        "failover p99 stays within 5x the healthy p99",
        failover_entry.p99_ms <= 5.0 * healthy_entry.p99_ms.max(1.0),
    );
    check(
        "replication costs less than 60% extra on the healthy path",
        summary.replication_overhead <= 1.6,
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
