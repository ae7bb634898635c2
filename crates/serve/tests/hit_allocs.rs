//! An exact repeat of a deck is a lookup: `Service::handle_line` answers
//! it from the exact-repeat index without parsing, flattening or writing
//! the canonical key, and splices the cached result text into its
//! envelope without copying or rendering the result. A counting
//! allocator (every thread, the worker's included) bounds the heap
//! allocations of one repeat, which no longer grow with the deck, on a
//! flat ~460-device deck (the mean `ensemble_hit` circuit in perfbench)
//! and a ~1,400-device one (its largest). It runs in a binary of its own
//! so no other test allocates meanwhile.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use paragraph_circuitgen::{compose_chip, FAMILY_ANALOG};
use paragraph_netlist::{write_flat_spice, Circuit};
use paragraph_serve::{LoadedModels, ModelRegistry, Service, ServiceConfig};
use serde_json::{json, Value};

/// Wraps the system allocator and counts allocation calls.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator,
// whose contract the caller already meets; counting touches no memory.
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

/// Returns once no thread has allocated for 10 ms, so a counting window
/// opened next holds only what the code under test allocates.
fn settle() {
    let mut last = alloc_count();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = alloc_count();
        if now == last {
            return;
        }
        last = now;
    }
}

/// Allocations one exact repeat may make, whatever the deck's size.
/// What remains is the request's JSON parse, the job and its reply
/// channel, the request record and the envelope: ~16 per repeat, ~27
/// with tracing, the event log and the trace store all on. Copying and
/// re-rendering the cached result made ~2.5 per device (~1,160 on the
/// smaller deck).
const MAX_ALLOCS_PER_REPEAT: f64 = 64.0;

/// Fills the cache with `circuit`'s answer, then counts the allocations
/// of one exact repeat, averaged over a few.
fn repeat_allocations(service: &Service, id: u64, circuit: &Circuit) -> f64 {
    let line = serde_json::to_string(
        &json!({"op": "predict", "id": id, "netlist": write_flat_spice(circuit)}),
    )
    .unwrap();
    let cached = |response: &str| {
        let response: Value = serde_json::from_str(response).unwrap();
        assert_eq!(response["ok"].as_bool(), Some(true), "{response:?}");
        response["cached"].as_bool().unwrap()
    };
    let fill = service.handle_line(&line);
    assert!(!cached(&fill));
    // One untimed repeat, so lazily grown buffers are in place.
    assert_eq!(
        service.handle_line(&line),
        fill.replace("\"cached\":false", "\"cached\":true")
    );

    const REPEATS: u64 = 4;
    settle();
    let before = alloc_count();
    let mut last = String::new();
    for _ in 0..REPEATS {
        last = service.handle_line(&line);
    }
    let per_repeat = (alloc_count() - before) as f64 / REPEATS as f64;
    assert!(cached(&last));
    per_repeat
}

#[test]
fn exact_repeat_allocations_do_not_grow_with_the_deck() {
    let snapshot = LoadedModels::from_models([
        ("cap_1f".to_owned(), common::train_cap_model(1e-15)),
        ("cap_10f".to_owned(), common::train_cap_model(10e-15)),
    ])
    .unwrap();
    let service = Service::new(
        Arc::new(ModelRegistry::from_snapshot(snapshot)),
        ServiceConfig {
            workers: 1,
            ..common::test_service_config()
        },
    );
    for (id, blocks, sizes) in [(1, 81, 400.0..=550.0), (2, 245, 1_300.0..=1_500.0)] {
        let circuit = compose_chip("hit", 461, FAMILY_ANALOG, blocks);
        let devices = circuit.num_devices() as f64;
        assert!(sizes.contains(&devices), "{devices} devices");
        let per_repeat = repeat_allocations(&service, id, &circuit);
        assert!(
            per_repeat <= MAX_ALLOCS_PER_REPEAT,
            "{devices} devices: {per_repeat:.1} allocations per repeat"
        );
    }
}
