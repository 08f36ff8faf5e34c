//! Overlap-engine throughput tracker and gate.
//!
//! Runs both deployments (baseline, DMT) under both schedules (sync, pipelined)
//! on the 8-rank 2x4 cluster with a paced fabric, prints the wall-clock and
//! hidden-communication comparison, and writes `BENCH_overlap.json` (op, shape,
//! ns/iter, hidden comm %) into the working directory. CI compares a fresh run
//! against the committed baseline with `bench_gate`.
//!
//! Beyond the regression gate, the bin *asserts* the overlap claims themselves
//! and exits non-zero if they do not hold:
//!
//! * pipelined DMT iterations are faster than sync ones,
//! * DMT hides a larger fraction of its communication than the baseline — the
//!   paper's argument that smaller, intra-host-biased transfers are easier to
//!   hide, measured for real,
//! * sync schedules expose essentially all communication.
//!
//! The baseline's pipelined wall-clock is reported, not asserted: at this
//! operating point its paced communication dwarfs its compute and the
//! micro-batch split adds cross-host bytes, so it sits at 0.98–1.01× of sync.
//! The trainer test `pipelined_hides_communication_under_a_throttled_fabric`
//! asserts the baseline's pipelining gain (< 0.95× sync, release builds) at an
//! operating point tuned for it.
//!
//! Run with `cargo run --release -p dmt-bench --bin bench_overlap` (add `--quick`
//! for the CI-friendly shorter measurement — same ops and shapes, fewer
//! iterations, so the gate can always match entries). `--wire-precision
//! <fp32|fp16|fp8|int8>` selects the on-wire codec of the quantizable exchanges;
//! non-FP32 runs write `BENCH_overlap_<precision>.json` so each precision gates
//! against its own committed baseline.

use dmt_comm::FabricProfile;
use dmt_commsim::Quantization;
use dmt_models::ModelArch;
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::{
    run_baseline, run_dmt, DistributedConfig, MeasuredRun, ScheduleMode,
};
use serde::Serialize;
use std::process::ExitCode;

/// One measured configuration.
#[derive(Debug, Clone, Serialize)]
struct OverlapResult {
    /// Operation name (`engine_<deployment>_<schedule>`).
    op: String,
    /// Cluster / batch / fabric shape label.
    shape: String,
    /// Wire precision of the quantizable exchanges.
    wire: String,
    /// Wall-clock nanoseconds per iteration (slowest rank).
    ns_per_iter: f64,
    /// Fraction of communication hidden behind compute, in percent.
    hidden_comm_pct: f64,
    /// Exposed communication milliseconds per iteration.
    exposed_comm_ms: f64,
    /// Mean per-rank cross-host bytes per iteration.
    cross_host_bytes: u64,
    /// Iterations measured.
    iters: u64,
}

/// Fabric slowdown: stretches wire time to milliseconds so the topology effect
/// dominates single-core scheduler noise (see `FabricProfile::from_cluster`).
const FABRIC_SLOWDOWN: f64 = 8_000.0;
/// Per-rank batch: large enough that compute is worth hiding transfers behind.
const LOCAL_BATCH: usize = 384;

/// Parses the `--wire-precision` flag (FP32 when absent).
fn wire_precision() -> Quantization {
    dmt_bench::arg_value("wire-precision").map_or(Quantization::Fp32, |v| {
        v.parse()
            .unwrap_or_else(|e| panic!("--wire-precision: {e}"))
    })
}

fn main() -> ExitCode {
    let quick = dmt_bench::quick_mode();
    let wire = wire_precision();
    let iterations = if quick { 4 } else { 8 };
    let cluster = ClusterTopology::new(HardwareGeneration::A100, 2, 4).expect("2x4 cluster");
    let fabric = FabricProfile::from_cluster(&cluster, FABRIC_SLOWDOWN);
    let base_cfg = DistributedConfig::quick(cluster, ModelArch::Dlrm)
        .with_iterations(iterations)
        .with_local_batch(LOCAL_BATCH)
        .with_fabric(fabric)
        .with_wire_precision(wire);
    let shape = format!("2x4 b{LOCAL_BATCH} f{FABRIC_SLOWDOWN:.0}");
    let out_file = if wire == Quantization::Fp32 {
        "BENCH_overlap.json".to_string()
    } else {
        format!("BENCH_overlap_{wire}.json")
    };

    dmt_bench::header(&format!(
        "Pipelined overlap engine, {wire} wire (see {out_file})"
    ));
    println!(
        "{:<26} {:>18} {:>6} {:>14} {:>12} {:>14} {:>12}",
        "op", "shape", "wire", "ns/iter", "hidden %", "exposed ms", "cross KiB"
    );
    let mut results: Vec<OverlapResult> = Vec::new();
    let mut record = |op: &str, run: &MeasuredRun| {
        let entry = OverlapResult {
            op: op.to_string(),
            shape: shape.clone(),
            wire: wire.to_string(),
            ns_per_iter: run.wall_s_per_iter * 1e9,
            hidden_comm_pct: run.hidden_comm_fraction() * 100.0,
            exposed_comm_ms: run.exposed_comm_s() * 1e3,
            cross_host_bytes: run.cross_host_bytes(),
            iters: iterations as u64,
        };
        println!(
            "{:<26} {:>18} {:>6} {:>14.0} {:>11.1}% {:>14.2} {:>12.1}",
            entry.op,
            entry.shape,
            entry.wire,
            entry.ns_per_iter,
            entry.hidden_comm_pct,
            entry.exposed_comm_ms,
            entry.cross_host_bytes as f64 / 1024.0
        );
        results.push(entry);
    };

    let pipe_cfg = base_cfg.clone().with_schedule(ScheduleMode::Pipelined);
    let sync_base = run_baseline(&base_cfg).expect("sync baseline run");
    record("engine_baseline_sync", &sync_base);
    let pipe_base = run_baseline(&pipe_cfg).expect("pipelined baseline run");
    record("engine_baseline_pipelined", &pipe_base);
    let sync_dmt = run_dmt(&base_cfg).expect("sync dmt run");
    record("engine_dmt_sync", &sync_dmt);
    let pipe_dmt = run_dmt(&pipe_cfg).expect("pipelined dmt run");
    record("engine_dmt_pipelined", &pipe_dmt);

    println!(
        "\nbaseline: pipelining {:.0}ms -> {:.0}ms ({:.2}x), hides {:.0}% of comm",
        sync_base.wall_s_per_iter * 1e3,
        pipe_base.wall_s_per_iter * 1e3,
        sync_base.wall_s_per_iter / pipe_base.wall_s_per_iter,
        pipe_base.hidden_comm_fraction() * 100.0
    );
    println!(
        "dmt:      pipelining {:.0}ms -> {:.0}ms ({:.2}x), hides {:.0}% of comm",
        sync_dmt.wall_s_per_iter * 1e3,
        pipe_dmt.wall_s_per_iter * 1e3,
        sync_dmt.wall_s_per_iter / pipe_dmt.wall_s_per_iter,
        pipe_dmt.hidden_comm_fraction() * 100.0
    );

    let json = serde_json::to_string_pretty(&results).expect("results serialize");
    std::fs::write(&out_file, &json).unwrap_or_else(|e| panic!("write {out_file}: {e}"));
    println!("[results written to {out_file}]");

    // The overlap claims themselves, gated. Thresholds leave room for the shared
    // CI box's scheduler noise while still requiring a real effect.
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
        "pipelined DMT beats sync DMT wall-clock (>=3%)",
        pipe_dmt.wall_s_per_iter < 0.97 * sync_dmt.wall_s_per_iter,
    );
    check(
        "pipelined DMT hides a larger comm fraction than the baseline",
        pipe_dmt.hidden_comm_fraction() > pipe_base.hidden_comm_fraction(),
    );
    check(
        "sync schedules expose (essentially) all communication",
        sync_base.hidden_comm_fraction() < 0.05 && sync_dmt.hidden_comm_fraction() < 0.05,
    );
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
