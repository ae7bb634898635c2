//! An exact repeat of a deck is a lookup: `Service::handle_line` answers
//! it from the exact-repeat index without parsing, flattening or writing
//! the canonical key. A counting allocator (every thread, the worker's
//! included) bounds the heap allocations of one repeat on a flat
//! ~460-device deck, the mean `ensemble_hit` circuit in perfbench. It
//! runs in a binary of its own so no other test allocates meanwhile.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use paragraph_circuitgen::{compose_chip, FAMILY_ANALOG};
use paragraph_netlist::write_flat_spice;
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

/// Allocations per device one exact repeat may make. What remains is
/// the request's JSON parse and the copy and render of the cached
/// result (one object and its strings per predicted net), ~2.3 per
/// device; a repeat that parsed, flattened, built feature rows and
/// wrote the canonical key made ~10.3.
const MAX_ALLOCS_PER_DEVICE: f64 = 3.0;

#[test]
fn exact_repeat_allocations_per_device_are_bounded() {
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
    let circuit = compose_chip("hit", 461, FAMILY_ANALOG, 81);
    let devices = circuit.num_devices() as f64;
    assert!((400.0..=550.0).contains(&devices), "{devices} devices");
    let line = serde_json::to_string(
        &json!({"op": "predict", "id": 1, "netlist": write_flat_spice(&circuit)}),
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
    let per_device = (alloc_count() - before) as f64 / REPEATS as f64 / devices;
    assert!(cached(&last));
    assert!(
        per_device <= MAX_ALLOCS_PER_DEVICE,
        "{per_device:.2} allocations per device per repeat"
    );
}
