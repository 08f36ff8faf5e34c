//! Zero-allocation guarantee for the single-rank serving hot path, the
//! serving hot-row cache and the dense training step.
//!
//! The whole test binary runs under a counting wrapper around the system
//! allocator. After a warm-up pass over each micro-batch (which grows every
//! reusable buffer to its steady-state capacity), re-serving the same batches
//! through [`SingleRankServer::serve_into`] must perform **zero** heap
//! allocations — at every storage precision. So must a full [`HotRowCache`]'s
//! evicting inserts and hits once it has been churned through a few times its
//! capacity. Likewise a warmed-up dense
//! training step ([`DenseStack::forward_backward`] between `zero_grad` and the
//! Adam update) and a DMT tower forward + backward.
//!
//! This file holds exactly one `#[test]` so no concurrent test thread can
//! allocate while a hot path is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use dmt_core::{DlrmTowerModule, DlrmTowerScratch, TowerModule};
use dmt_data::{DatasetSchema, SyntheticClickDataset, ZipfRequestStream};
use dmt_models::{DenseScratch, DenseStack, ModelArch, ModelHyperparams};
use dmt_nn::param::HasParameters;
use dmt_nn::{AdamOptimizer, Optimizer};
use dmt_serve::{ComputePrecision, HotRowCache, SingleRankServer};
use dmt_tensor::Tensor;
use dmt_topology::{ClusterTopology, HardwareGeneration};
use dmt_trainer::distributed::{run_with_snapshot, DistributedConfig, ExecutionMode};
use rand::SeedableRng;

/// Counts every allocation and reallocation; frees are not counted (the hot
/// path must not free either, but a free without a matching alloc is
/// impossible, so counting acquisitions is sufficient).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// A deterministic `[rows, cols]` tensor of small values.
fn filled(rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i * 7) % 23) as f32 * 0.01 - 0.1)
        .collect();
    Tensor::from_vec(vec![rows, cols], data).unwrap()
}

/// Training: after a warm-up step, one dense step allocates nothing at the
/// benchmark's baseline DLRM geometry (27 units of 32), DMT's (3 of 16) and a
/// DCN stack, and neither does a DMT tower forward + backward. The shapes
/// stay under the GEMM and interaction thread-split cutoffs, where the
/// vendored rayon spawns threads.
fn training_performs_zero_heap_allocations() {
    let schema = DatasetSchema::with_cardinality_scale(0.1);
    let hyper = ModelHyperparams::quality_run();
    let batch = SyntheticClickDataset::new(schema.clone(), 3).next_batch(256);
    let dense_input = Tensor::from_vec(vec![256, schema.num_dense], batch.dense_flat()).unwrap();
    for (arch, width, units) in [
        (ModelArch::Dlrm, 32, 27),
        (ModelArch::Dlrm, 16, 3),
        (ModelArch::Dcn, 16, 27),
    ] {
        let mut stack = DenseStack::new(7, &schema, arch, &hyper, width, units);
        let features = filled(256, width * (units - 1));
        let mut adam = AdamOptimizer::new(1e-3);
        let (mut predictions, mut scratch) = (Vec::new(), DenseScratch::default());
        for warm_up in [true, false] {
            let before = allocations();
            HasParameters::zero_grad(&mut stack);
            let loss = stack
                .forward_backward(
                    &dense_input,
                    &features,
                    &batch.labels,
                    1.0,
                    &mut predictions,
                    &mut scratch,
                )
                .unwrap();
            adam.step(&mut stack);
            let allocated = allocations() - before;
            assert!(loss.is_finite());
            if !warm_up {
                assert_eq!(
                    allocated, 0,
                    "{arch:?} {units}x{width}: training step allocated"
                );
            }
        }
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut tower = DlrmTowerModule::new(&mut rng, 13, 32, 1, 1, 16).unwrap();
    let input = filled(512, 13 * 32);
    let grad = filled(512, tower.output_dim());
    let (mut out, mut grad_input) = (Tensor::default(), Tensor::default());
    let mut scratch = DlrmTowerScratch::default();
    for warm_up in [true, false] {
        let before = allocations();
        tower.forward_into(&input, &mut out, &mut scratch).unwrap();
        tower
            .backward_into(&input, &mut scratch, &grad, &mut grad_input)
            .unwrap();
        if !warm_up {
            assert_eq!(
                allocations() - before,
                0,
                "tower forward + backward allocated"
            );
        }
    }
}

/// Serving's hot-row cache at every storage precision: after a warm-up that
/// churns several capacities of keys through a full cache (the key map may
/// grow once there), evicting inserts and hits allocate nothing.
fn cache_performs_zero_heap_allocations() {
    let (capacity, dim) = (64u64, 16usize);
    let row: Vec<f32> = (0..dim).map(|i| i as f32 * 0.25 - 1.5).collect();
    let mut out = Vec::with_capacity(dim);
    for precision in [
        ComputePrecision::F32,
        ComputePrecision::Fp16,
        ComputePrecision::Int8,
    ] {
        let mut cache = HotRowCache::with_precision(capacity as usize, dim, precision);
        let mut churn = |cache: &mut HotRowCache, keys: std::ops::Range<u64>| {
            for key in keys {
                cache.insert(key, &row);
                out.clear();
                assert!(cache.lookup_into(key, &mut out));
                assert!(!cache.lookup_into(key + capacity, &mut out));
            }
        };
        churn(&mut cache, 0..4 * capacity);
        let before = allocations();
        churn(&mut cache, 4 * capacity..8 * capacity);
        assert_eq!(
            allocations() - before,
            0,
            "{precision}: steady-state cache allocated"
        );
        assert_eq!(cache.len(), capacity as usize);
    }
}

#[test]
fn steady_state_serving_performs_zero_heap_allocations() {
    let cluster = ClusterTopology::new(HardwareGeneration::A100, 1, 2).unwrap();
    let cfg = DistributedConfig::quick(cluster, ModelArch::Dlrm).with_iterations(1);
    let (_run, snapshot) = run_with_snapshot(&cfg, ExecutionMode::Baseline).unwrap();

    // Pre-generate the measured batches so query construction is outside the
    // measured window; mixed sizes exercise the in-place reshape paths.
    let mut stream = ZipfRequestStream::new(snapshot.schema.clone(), 11, 1.1);
    let batches: Vec<Vec<dmt_data::Query>> = [16usize, 7, 16, 1]
        .iter()
        .map(|&n| stream.next_queries(n))
        .collect();

    for precision in [
        ComputePrecision::F32,
        ComputePrecision::Fp16,
        ComputePrecision::Int8,
    ] {
        let mut server = SingleRankServer::from_snapshot(&snapshot, precision).unwrap();
        let mut predictions = Vec::new();

        // Warm-up: one pass over every batch grows all reusable buffers.
        for batch in &batches {
            server.serve_into(batch, &mut predictions).unwrap();
            assert_eq!(predictions.len(), batch.len());
        }

        let before = allocations();
        for batch in &batches {
            server.serve_into(batch, &mut predictions).unwrap();
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{precision}: steady-state serving allocated"
        );

        // The measured passes still produced real predictions.
        assert_eq!(predictions.len(), batches.last().unwrap().len());
        assert!(predictions.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    cache_performs_zero_heap_allocations();
    training_performs_zero_heap_allocations();
}
