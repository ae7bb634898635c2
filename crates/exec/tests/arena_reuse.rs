//! Arena-reuse guarantees: after warm-up, the executor's predict path
//! performs **zero** heap allocations per request (counting allocator),
//! and predictions stay bitwise-stable across 1000 arena-reuse
//! iterations.
//!
//! The graph is kept small enough that every kernel stays on the
//! single-threaded inline path (work below the parallel threshold), so
//! no thread-pool scope machinery runs. That is also the realistic
//! serve shape: per-request circuits are small; throughput comes from
//! concurrent workers, each with its own arena.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use paragraph_exec::{CompiledModel, Precision};
use paragraph_gnn::{GnnKind, GnnModel, GraphSchema, HeteroGraph, ModelConfig};
use paragraph_tensor::Tensor;

/// Wraps the system allocator and counts allocation calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// The allocation counter is process-wide, so a test counting it must
/// not overlap a sibling's allocations: every test in this file holds
/// this lock for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Returns once no thread has allocated for 10 ms. Called right before
/// a counting window opens, so the test harness's bookkeeping for a
/// sibling test that just finished (reporting its result, spawning the
/// next test thread) lands before the window instead of inside it.
fn settle() {
    let mut last = alloc_count();
    loop {
        std::thread::sleep(std::time::Duration::from_millis(10));
        let now = alloc_count();
        if now == last {
            return;
        }
        last = now;
    }
}

fn small_graph() -> (GraphSchema, HeteroGraph) {
    let schema = GraphSchema {
        node_feat_dims: vec![2, 4],
        num_edge_types: 2,
    };
    let types: Vec<u16> = (0..12).map(|i| (i % 2) as u16).collect();
    let mut g = HeteroGraph::new(&schema, types);
    g.set_features(
        0,
        Tensor::from_fn(6, 2, |i, j| (i * 2 + j) as f32 * 0.17 - 0.4),
    );
    g.set_features(
        1,
        Tensor::from_fn(6, 4, |i, j| (i * 4 + j) as f32 * 0.09 - 0.6),
    );
    let src: Vec<u32> = (0..12).map(|i| i as u32).collect();
    let dst: Vec<u32> = (0..12).map(|i| ((i * 5 + 3) % 12) as u32).collect();
    g.set_edges(0, src.clone(), dst.clone());
    g.set_edges(1, dst, src);
    g.validate().unwrap();
    (schema, g)
}

fn compiled(kind: GnnKind, schema: &GraphSchema) -> (GnnModel, CompiledModel) {
    let mut cfg = ModelConfig::new(kind);
    cfg.embed_dim = 8;
    cfg.layers = 2;
    cfg.fc_layers = 2;
    let model = GnnModel::new(cfg, schema);
    let exec = CompiledModel::compile(&model).unwrap();
    (model, exec)
}

/// A member graph for batching: same schema as [`small_graph`], size
/// and contents driven by `seed`.
fn member_graph(seed: usize) -> HeteroGraph {
    let schema = GraphSchema {
        node_feat_dims: vec![2, 4],
        num_edge_types: 2,
    };
    let n = 8 + (seed % 3) * 4;
    let types: Vec<u16> = (0..n).map(|i| (i % 2) as u16).collect();
    let mut g = HeteroGraph::new(&schema, types);
    let half = n / 2;
    g.set_features(
        0,
        Tensor::from_fn(half, 2, |i, j| (seed + i * 2 + j) as f32 * 0.13 - 0.4),
    );
    g.set_features(
        1,
        Tensor::from_fn(n - half, 4, |i, j| (seed + i * 4 + j) as f32 * 0.08 - 0.5),
    );
    let src: Vec<u32> = (0..n).map(|i| i as u32).collect();
    let dst: Vec<u32> = (0..n).map(|i| ((i * 5 + 3 + seed) % n) as u32).collect();
    g.set_edges(0, src.clone(), dst.clone());
    g.set_edges(1, dst, src);
    g.validate().unwrap();
    g
}

/// The batched path extends the zero-steady-state-allocation guarantee
/// to every precision: once the pooled batch scratch and arena are
/// warm, `predict_batch_into` rebuilds the block-diagonal graph, its
/// plan, and the prediction in place — even with the batch composition
/// changing between calls.
#[test]
fn steady_state_batched_predict_is_allocation_free() {
    let _serial = serial();
    steady_state_batched_predict();
    // Again with the span recorder live: spans keep typed args in a
    // preallocated per-thread buffer, so tracing allocates nothing.
    let traced = paragraph_obs::enabled();
    paragraph_obs::set_enabled(true);
    steady_state_batched_predict();
    paragraph_obs::set_enabled(traced);
}

fn steady_state_batched_predict() {
    let members: Vec<HeteroGraph> = (0..6).map(member_graph).collect();
    let refs: Vec<&HeteroGraph> = members.iter().collect();
    let locals: Vec<Vec<u32>> = members
        .iter()
        .map(|g| (0..g.num_nodes() as u32).step_by(3).collect())
        .collect();
    let schema = GraphSchema {
        node_feat_dims: vec![2, 4],
        num_edge_types: 2,
    };
    let mut cfg = ModelConfig::new(GnnKind::ParaGraph);
    cfg.embed_dim = 8;
    cfg.layers = 2;
    cfg.fc_layers = 2;
    let model = GnnModel::new(cfg, &schema);

    for precision in Precision::ALL {
        let exec = CompiledModel::compile_with(&model, precision, None).unwrap();
        let mut out = Vec::new();
        // Two window shapes; warm both so every buffer hits its
        // high-water capacity before counting.
        let windows = [(0, 4), (2, 6)];
        for &(lo, hi) in &windows {
            exec.predict_batch_into(&refs[lo..hi], &locals[lo..hi], &mut out);
            exec.predict_batch_into(&refs[lo..hi], &locals[lo..hi], &mut out);
        }

        settle();
        let before = alloc_count();
        for i in 0..100 {
            let (lo, hi) = windows[i % windows.len()];
            exec.predict_batch_into(&refs[lo..hi], &locals[lo..hi], &mut out);
        }
        let delta = alloc_count() - before;
        assert_eq!(
            delta, 0,
            "{precision:?}: {delta} heap allocations across 100 steady-state batched requests"
        );
    }
}

#[test]
fn steady_state_predict_is_allocation_free() {
    let _serial = serial();
    steady_state_predict();
    // Again with the span recorder live (see the batched test).
    let traced = paragraph_obs::enabled();
    paragraph_obs::set_enabled(true);
    steady_state_predict();
    paragraph_obs::set_enabled(traced);
}

fn steady_state_predict() {
    let (schema, graph) = small_graph();
    // Pre-build the cached GraphPlan so plan compilation is not charged
    // to the request path (serve reuses the plan exactly like this).
    let _ = graph.plan();
    let nodes: Vec<u32> = vec![1, 4, 7, 10];

    for kind in GnnKind::all() {
        let (_, exec) = compiled(kind, &schema);
        let mut out = Vec::new();
        // Warm-up: sizes the arena and the output vector.
        exec.predict_into(&graph, &nodes, &mut out);
        exec.predict_into(&graph, &nodes, &mut out);

        settle();
        let before = alloc_count();
        for _ in 0..100 {
            exec.predict_into(&graph, &nodes, &mut out);
        }
        let delta = alloc_count() - before;
        assert_eq!(
            delta,
            0,
            "{}: {delta} heap allocations across 100 steady-state requests",
            kind.name()
        );
    }
}

#[test]
fn predictions_bitwise_stable_across_1000_reuses() {
    let _serial = serial();
    let (schema, graph) = small_graph();
    let _ = graph.plan();
    let nodes: Vec<u32> = vec![0, 3, 5, 8, 11];

    for kind in GnnKind::all() {
        let (model, exec) = compiled(kind, &schema);
        let reference = model.predict(&graph, &Arc::new(nodes.clone()));
        let baseline: Vec<u32> = reference.iter().map(|v| v.to_bits()).collect();
        let mut out = Vec::new();
        for iter in 0..1000 {
            exec.predict_into(&graph, &nodes, &mut out);
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                baseline,
                bits,
                "{}: drifted from the tape reference at reuse iteration {iter}",
                kind.name()
            );
        }
    }
}
