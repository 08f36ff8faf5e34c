//! Serving capacity under a p99 SLO: open-loop sweep, shedding gate.
//!
//! Every other serving tracker drives the engine *closed loop* — the driver
//! blocks until the previous batch answers, so arrivals are coordinated with
//! the engine and the percentiles contain no open-queue waiting. This bin
//! measures the number an SLO actually constrains: **sojourn time** (scheduled
//! arrival → completion) under **open-loop Poisson arrivals** at controlled
//! offered rates, against the stage-disaggregated engine (`dmt-serve`'s
//! [`StagedEngine`]: a lookup pool and a dense pool joined by a bounded
//! rate-matching queue).
//!
//! The run:
//!
//! 1. trains a quick baseline snapshot on the 2x4 cluster;
//! 2. probes the no-shedding saturation throughput with a closed loop;
//! 3. sweeps Poisson offered rates across a grid anchored at that saturation
//!    point and reads off **max QPS under the p99 SLO** — the capacity number;
//! 4. re-runs the worst overload point with SLO-aware admission control and
//!    checks that shedding keeps the admitted traffic's p99 inside the SLO,
//!    shedding low-priority traffic at least as hard as high.
//!
//! Results go to `BENCH_slo.json` (committed baseline, one `--pair` of the
//! CI bench-regression gate). The gated rows are pacing-dominated — the stage
//! link is throttled so batch service time is a deterministic sleep — so they
//! are stable on a shared CI box; the sweep points and the shedding story ride
//! along in a summary row the gate skips. Run with
//! `cargo run --release -p dmt-bench --bin bench_slo` (add `--quick` for the
//! CI-friendly stream; the committed baseline is the `--quick` configuration).

use dmt_models::ModelArch;
use dmt_serve::{
    max_qps_under_slo, run_load, ArrivalProcess, BatchConfig, LoadConfig, LoadReport, Priority,
    ServeConfig, SloConfig, StagePools, StagedEngine,
};
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::{
    run_with_snapshot, DistributedConfig, ExecutionMode, ModelSnapshot,
};
use serde::Serialize;
use std::process::ExitCode;

/// Lookup-pool ranks of the staged deployment.
const LOOKUP_RANKS: usize = 4;
/// Dense-pool ranks of the staged deployment.
const DENSE_RANKS: usize = 2;
/// Stage-link pacing, bytes/second: slow enough that batch service time is a
/// deterministic transfer sleep (stable on shared CI), fast enough to finish.
const XFER_BYTES_PER_S: u64 = 4_000_000;
/// Requests per micro-batch.
const MAX_BATCH: usize = 8;
/// Micro-batcher close delay, microseconds.
const MAX_DELAY_US: u64 = 500;
/// The p99 sojourn SLO, microseconds.
const SLO_US: u64 = 25_000;
/// Offered-rate grid, as multiples of the closed-loop saturation throughput.
const RATE_GRID: [f64; 6] = [0.5, 0.7, 0.85, 1.0, 1.2, 1.5];
/// Priority mix of the shedded overload run (percent low, percent high).
const MIX: (u32, u32) = (30, 10);
/// Zipf exponent of the query stream.
const ZIPF: f64 = 1.1;

/// One gated row (gate schema plus the SLO fields).
#[derive(Debug, Clone, Serialize)]
struct SloResult {
    /// Operation name (`slo_<variant>`).
    op: String,
    /// Pools / batch / pacing / SLO shape label.
    shape: String,
    /// Nanoseconds per unit of the gated rate (see each row's comment).
    ns_per_iter: f64,
    /// p99 sojourn of admitted traffic, milliseconds.
    p99_ms: f64,
    /// Offered requests per second.
    offered_qps: f64,
    /// Requests measured.
    iters: u64,
}

/// One sweep point, reported inside the summary row.
#[derive(Debug, Clone, Serialize)]
struct SweepPoint {
    /// Offered rate as a multiple of the closed-loop saturation throughput.
    rate_factor: f64,
    offered_qps: f64,
    completed_qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// The whole run's capacity story, appended after the gated rows (no
/// `ns_per_iter`, so the gate skips it).
#[derive(Debug, Clone, Serialize)]
struct SloSummary {
    op: String,
    shape: String,
    /// Closed-loop saturation throughput (the sweep's rate anchor).
    saturation_qps: f64,
    /// The headline: max offered QPS whose admitted p99 sojourn meets the SLO.
    max_qps_under_slo: f64,
    /// The SLO the capacity was read against, milliseconds.
    p99_slo_ms: f64,
    /// The unshedded latency-vs-throughput curve.
    sweep: Vec<SweepPoint>,
    /// Shed fraction of the overload run, per class (low, standard, high).
    shed_fraction_by_class: [f64; 3],
    /// Admitted p99 at the shedded overload point, milliseconds.
    shedded_p99_ms: f64,
    /// Admitted requests that finished past their deadline at that point.
    deadline_misses: u64,
}

fn staged_config(slo: SloConfig, cluster: &ClusterTopology) -> ServeConfig {
    ServeConfig::new(cluster.clone())
        .with_batch(BatchConfig {
            max_batch: MAX_BATCH,
            max_delay_us: MAX_DELAY_US,
            ..BatchConfig::default()
        })
        .with_slo(slo)
}

fn main() -> ExitCode {
    let quick = dmt_bench::quick_mode();
    let probe_requests = if quick { 160 } else { 640 };
    let sweep_requests = if quick { 240 } else { 960 };
    let overload_requests = if quick { 400 } else { 1600 };
    let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 4).expect("2x4 cluster");
    let pools = StagePools::new(LOOKUP_RANKS, DENSE_RANKS).with_xfer_bytes_per_s(XFER_BYTES_PER_S);
    let shape = format!(
        "2x4 L{LOOKUP_RANKS}D{DENSE_RANKS} b{MAX_BATCH} x{}MBs zipf{ZIPF}",
        XFER_BYTES_PER_S / 1_000_000
    );
    let slo_s = SLO_US as f64 * 1e-6;

    dmt_bench::header("Serving capacity under a p99 SLO (see BENCH_slo.json)");
    println!("training + exporting the baseline snapshot...");
    let train_cfg = DistributedConfig::quick(cluster.clone(), ModelArch::Dlrm).with_iterations(4);
    let (_, snapshot): (_, ModelSnapshot) =
        run_with_snapshot(&train_cfg, ExecutionMode::Baseline).expect("baseline training");

    let engine_for = |slo: SloConfig| {
        let snapshot = &snapshot;
        let cluster = &cluster;
        move || StagedEngine::start(snapshot, pools, &staged_config(slo, cluster))
    };
    let stream_for = |seed: u64| {
        let schema = snapshot.schema.clone();
        move || {
            let mut stream = dmt_data::ZipfRequestStream::new(schema.clone(), seed, ZIPF);
            move || stream.next_queries(1)
        }
    };

    // 1. Saturation probe: a closed loop keeps the pipeline full, so its
    // completed throughput is the no-shedding capacity ceiling.
    println!("probing closed-loop saturation ({probe_requests} requests)...");
    let mut probe_engine = engine_for(SloConfig::default())().expect("probe engine");
    let probe = run_load(
        &mut probe_engine,
        &LoadConfig::new(probe_requests, ArrivalProcess::Closed { clients: 16 }),
        stream_for(1)(),
    )
    .expect("saturation probe");
    probe_engine.shutdown().expect("probe shutdown");
    let saturation_qps = probe.completed_qps();
    println!("  saturation: {saturation_qps:.0} qps (closed loop, 16 clients)");

    // 2. The open-loop sweep: fresh engine per rate, Poisson arrivals, no
    // shedding — the latency-vs-throughput curve an SLO is read against.
    let rates: Vec<f64> = RATE_GRID.iter().map(|f| f * saturation_qps).collect();
    println!(
        "sweeping {} Poisson rates x {sweep_requests} requests...",
        rates.len()
    );
    let template = LoadConfig::new(
        sweep_requests,
        ArrivalProcess::Poisson { qps: 1.0, seed: 42 },
    );
    let reports = dmt_serve::sweep_rates(
        &rates,
        &template,
        engine_for(SloConfig::default()),
        stream_for(2),
    )
    .expect("rate sweep");
    println!(
        "{:>8} {:>12} {:>12} {:>9} {:>9}",
        "factor", "offered qps", "done qps", "p50 ms", "p99 ms"
    );
    let sweep: Vec<SweepPoint> = RATE_GRID
        .iter()
        .zip(&reports)
        .map(|(factor, r)| {
            let point = SweepPoint {
                rate_factor: *factor,
                offered_qps: r.offered_qps,
                completed_qps: r.completed_qps(),
                p50_ms: r.sojourn.p50 * 1e3,
                p99_ms: r.sojourn.p99 * 1e3,
            };
            println!(
                "{:>8.2} {:>12.0} {:>12.0} {:>9.2} {:>9.2}",
                point.rate_factor,
                point.offered_qps,
                point.completed_qps,
                point.p50_ms,
                point.p99_ms
            );
            point
        })
        .collect();
    let capacity_qps = max_qps_under_slo(&reports, slo_s).unwrap_or(0.0);
    println!(
        "  max qps under p99 <= {:.0}ms: {capacity_qps:.0}",
        slo_s * 1e3
    );

    // 3. The shedded overload point: 1.5x saturation with admission control.
    // The queue bound is a few batches deep and the service estimate covers a
    // queued batch, so infeasible requests shed up front instead of timing out.
    println!("overload with shedding (1.5x saturation, {overload_requests} requests)...");
    let shed_slo = SloConfig {
        deadline_us: SLO_US,
        queue_bound: 4 * MAX_BATCH,
        service_estimate_us: 5_000,
        shed: true,
        ..SloConfig::default()
    };
    let overload_cfg = LoadConfig::new(
        overload_requests,
        ArrivalProcess::Poisson {
            qps: 1.5 * saturation_qps,
            seed: 7,
        },
    )
    .with_deadline_us(SLO_US)
    .with_mix(MIX.0, MIX.1);
    let mut shed_engine = engine_for(shed_slo)().expect("shed engine");
    let shedded: LoadReport =
        run_load(&mut shed_engine, &overload_cfg, stream_for(3)()).expect("shedded overload");
    shed_engine.shutdown().expect("shed shutdown");
    let offered_of = |p: Priority| {
        (0..overload_cfg.requests)
            .filter(|&i| overload_cfg.priority_of(i) == p)
            .count()
            .max(1) as f64
    };
    let shed_fraction_by_class = [
        shedded.shed_by_class[Priority::Low.index()] as f64 / offered_of(Priority::Low),
        shedded.shed_by_class[Priority::Standard.index()] as f64 / offered_of(Priority::Standard),
        shedded.shed_by_class[Priority::High.index()] as f64 / offered_of(Priority::High),
    ];
    println!(
        "  admitted {} / shed {} (low {:.0}%, std {:.0}%, high {:.0}%), admitted p99 {:.2} ms",
        shedded.admitted,
        shedded.total_shed(),
        shed_fraction_by_class[0] * 100.0,
        shed_fraction_by_class[1] * 100.0,
        shed_fraction_by_class[2] * 100.0,
        shedded.sojourn.p99 * 1e3,
    );

    // Gated rows. `slo_capacity` gates the headline (ns per request at the
    // capacity rate); `slo_shedded_overload` gates the admitted-traffic
    // service rate under overload — both pacing-dominated.
    let capacity_row = SloResult {
        op: "slo_capacity".into(),
        shape: format!("{shape} p99<={:.0}ms", slo_s * 1e3),
        ns_per_iter: if capacity_qps > 0.0 {
            1e9 / capacity_qps
        } else {
            0.0
        },
        p99_ms: reports
            .iter()
            .filter(|r| r.completed > 0 && r.sojourn.p99 <= slo_s)
            .map(|r| r.sojourn.p99 * 1e3)
            .fold(0.0, f64::max),
        offered_qps: capacity_qps,
        iters: sweep_requests as u64,
    };
    let shed_row = SloResult {
        op: "slo_shedded_overload".into(),
        shape: format!("{shape} 1.5x mix{}/{}", MIX.0, MIX.1),
        ns_per_iter: shedded.rate.ns_per_item(),
        p99_ms: shedded.sojourn.p99 * 1e3,
        offered_qps: shedded.offered_qps,
        iters: shedded.completed as u64,
    };
    let summary = SloSummary {
        op: "slo_summary".into(),
        shape: shape.clone(),
        saturation_qps,
        max_qps_under_slo: capacity_qps,
        p99_slo_ms: slo_s * 1e3,
        sweep,
        shed_fraction_by_class,
        shedded_p99_ms: shedded.sojourn.p99 * 1e3,
        deadline_misses: shedded.deadline_misses,
    };
    println!(
        "\n{:<22} {:>34} {:>12} {:>9} {:>12}",
        "op", "shape", "ns/req", "p99 ms", "offered qps"
    );
    for row in [&capacity_row, &shed_row] {
        println!(
            "{:<22} {:>34} {:>12.0} {:>9.2} {:>12.0}",
            row.op, row.shape, row.ns_per_iter, row.p99_ms, row.offered_qps
        );
    }

    // The file mixes two row schemas (gated entries + the summary), so the
    // array is assembled from individually serialized objects.
    let rows = [
        serde_json::to_string_pretty(&capacity_row).expect("row serializes"),
        serde_json::to_string_pretty(&shed_row).expect("row serializes"),
        serde_json::to_string_pretty(&summary).expect("summary serializes"),
    ];
    let pretty = format!("[\n{}\n]", rows.join(",\n"));
    std::fs::write("BENCH_slo.json", &pretty).expect("write BENCH_slo.json");
    println!("[results written to BENCH_slo.json]");

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
        "some sweep rate meets the p99 SLO (capacity exists)",
        capacity_qps > 0.0,
    );
    check(
        "sojourn latency grows with offered load (open-loop curve rises)",
        reports.first().map(|r| r.sojourn.p99).unwrap_or(0.0)
            < reports.last().map(|r| r.sojourn.p99).unwrap_or(0.0),
    );
    check(
        "1.5x saturation with admission control sheds",
        shedded.total_shed() > 0,
    );
    check(
        "admitted p99 meets the SLO under shedding",
        shedded.sojourn.p99 <= slo_s,
    );
    check(
        "low-priority traffic sheds at least as hard as high",
        shed_fraction_by_class[Priority::Low.index()]
            >= shed_fraction_by_class[Priority::High.index()],
    );
    check(
        "every offered request is admitted or shed, never lost",
        shedded.admitted + shedded.total_shed() as usize == shedded.offered
            && shedded.completed == shedded.admitted,
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
