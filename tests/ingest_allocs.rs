//! Netlist ingest stays allocation-light. A `/predict` of a deck the
//! exact-repeat index has not seen parses and flattens it, computes the
//! drift monitor's raw feature rows and hashes `write_flat_spice` for
//! the cache key before any model runs, whether the canonical key then
//! hits or not (an exact repeat skips all of it); a counting allocator
//! bounds the heap allocations that whole ingest makes per device of a
//! flat ~460-device deck (the mean `ensemble_hit` circuit in perfbench).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use paragraph::raw_feature_rows;
use paragraph_circuitgen::{compose_chip, FAMILY_ANALOG};
use paragraph_netlist::{parse_spice, write_flat_spice};

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

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Allocations per device the whole ingest may make. Parse keeps each
/// device's name and terminal list and each new net's name (twice: the
/// net and the name index), and flatten moves that flat top level out
/// — about 3.3 per device here, 6.5 when flatten copied it — and the
/// feature rows one vector per node. The per-line parser and the
/// `Subckt`-copying writer made ~39 per device (parse and flatten alone
/// ~25).
const MAX_ALLOCS_PER_DEVICE: f64 = 12.0;

#[test]
fn ingest_allocations_per_device_are_bounded() {
    let deck = write_flat_spice(&compose_chip("hit", 461, FAMILY_ANALOG, 81));
    let count = || ALLOCS.load(Ordering::Relaxed);
    let before = count();
    let circuit = parse_spice(&deck).unwrap().flatten().unwrap();
    let parsed = count();
    let rows = raw_feature_rows(&circuit);
    let featured = count();
    let text = write_flat_spice(&circuit);
    let key = fnv1a(&text);
    let after = count();

    let nodes = circuit.num_devices() + circuit.kind_counts().net;
    assert_eq!(rows.iter().map(Vec::len).sum::<usize>(), nodes);
    let devices = circuit.num_devices() as f64;
    assert!((400.0..=550.0).contains(&devices), "{devices} devices");
    // The key text is the deck again, under the parser's top name.
    assert_eq!(
        text.split_once('\n').unwrap().1,
        deck.split_once('\n').unwrap().1
    );
    assert_ne!(key, 0);
    let per_device = (after - before) as f64 / devices;
    assert!(
        per_device <= MAX_ALLOCS_PER_DEVICE,
        "{per_device:.2} allocations per device (parse + flatten {}, rows {}, key {})",
        parsed - before,
        featured - parsed,
        after - featured,
    );
}
