//! Prediction cache keyed by model key plus a content hash of the
//! flattened netlist, with LRU eviction and hit/miss accounting, and an
//! exact-repeat index in front of it keyed by the raw deck text.
//!
//! Keying on the *flattened* SPICE text means two textually different
//! decks that flatten to the same circuit (comments, blank lines,
//! hierarchy spelled differently) share one entry, while any electrical
//! change produces a new key. Cached values are the `result` payloads
//! served on the uncached path, stored as the JSON text they rendered
//! to, so a hit shares that text and its bytes are the miss's bytes.
//!
//! Computing that key takes a parse, a flatten and a `write_flat_spice`.
//! The exact-repeat index skips all three for a deck sent before byte
//! for byte: it maps `(model key, text_hash(deck text))` to the text
//! itself, the canonical key it flattened to and its own raw feature
//! rows, so a repeat is answered from the canonical entry and still
//! feeds the drift monitor what a parse would have.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::drift::FeatureRows;

/// FNV-1a content hash, used for cache keys.
pub fn fnv1a(text: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for byte in text.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of a raw deck text for the exact-repeat index: FNV-1a's
/// xor-multiply step over eight bytes at a time, about eight times
/// faster than [`fnv1a`] on deck-sized texts. Each step is a bijection
/// of the running hash, so texts of one length that differ in one word
/// never collide; the index compares texts byte for byte regardless.
pub(crate) fn text_hash(text: &str) -> u64 {
    let bytes = text.as_bytes();
    let mut words = bytes.chunks_exact(8);
    let mut h = 0xcbf2_9ce4_8422_2325_u64 ^ bytes.len() as u64;
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("eight bytes"));
        h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &byte in words.remainder() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A deck text seen before: the text, the canonical key its flattened
/// circuit hashes to, and the raw feature rows of its own parse. Rows
/// are kept per text, not per canonical entry: two decks that flatten
/// to one circuit can still number its nets in different orders.
#[derive(Debug)]
struct Sighting {
    text: String,
    canonical: u64,
    rows: Arc<FeatureRows>,
}

/// An exact repeat's answer: the canonical entry's payload and the
/// deck's own feature rows.
pub(crate) struct Repeat {
    pub(crate) value: Arc<str>,
    pub(crate) rows: Arc<FeatureRows>,
}

#[derive(Debug)]
struct Slot<V> {
    value: V,
    last_used: u64,
}

/// An LRU map keyed by `(model key, hash)`, one inner map per model key
/// so a lookup borrows the key instead of allocating it.
#[derive(Debug)]
struct Lru<V> {
    by_model: HashMap<String, HashMap<u64, Slot<V>>>,
    len: usize,
}

impl<V> Default for Lru<V> {
    fn default() -> Self {
        Self {
            by_model: HashMap::new(),
            len: 0,
        }
    }
}

impl<V> Lru<V> {
    fn get(&mut self, model: &str, hash: u64, tick: u64) -> Option<&V> {
        let slot = self.by_model.get_mut(model)?.get_mut(&hash)?;
        slot.last_used = tick;
        Some(&slot.value)
    }

    /// [`Lru::get`] without marking the entry used.
    fn peek(&self, model: &str, hash: u64) -> Option<&V> {
        Some(&self.by_model.get(model)?.get(&hash)?.value)
    }

    /// Stores `value`, evicting the least-recently-used entry when a new
    /// key would exceed `capacity`.
    fn insert(&mut self, model: &str, hash: u64, value: V, tick: u64, capacity: usize) {
        let present = self
            .by_model
            .get(model)
            .is_some_and(|slots| slots.contains_key(&hash));
        if !present && self.len >= capacity {
            self.evict_oldest();
        }
        if !self.by_model.contains_key(model) {
            self.by_model.insert(model.to_owned(), HashMap::new());
        }
        let slots = self.by_model.get_mut(model).expect("inserted above");
        let slot = Slot {
            value,
            last_used: tick,
        };
        if slots.insert(hash, slot).is_none() {
            self.len += 1;
        }
    }

    fn evict_oldest(&mut self) {
        let oldest = self
            .by_model
            .values()
            .flat_map(HashMap::values)
            .map(|slot| slot.last_used)
            .min();
        // Ticks are unique, so the oldest tick names one entry.
        for slots in self.by_model.values_mut() {
            if let Some(hash) = slots
                .iter()
                .find_map(|(&hash, slot)| (Some(slot.last_used) == oldest).then_some(hash))
            {
                slots.remove(&hash);
                self.len -= 1;
                return;
            }
        }
    }

    fn clear(&mut self) {
        self.by_model.clear();
        self.len = 0;
    }
}

#[derive(Debug, Default)]
struct Inner {
    results: Lru<Arc<str>>,
    repeats: Lru<Sighting>,
    tick: u64,
}

impl Inner {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// Bounded LRU cache of prediction payloads (rendered JSON text), with
/// the exact-repeat index in front of it.
#[derive(Debug)]
pub struct PredictionCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PredictionCache {
    /// Creates a cache holding at most `capacity` payloads and as many
    /// exact-repeat entries (0 disables caching: every lookup misses and
    /// nothing is stored).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("cache lock poisoned")
    }

    /// Looks up a payload, counting a hit or miss.
    pub fn get(&self, model: &str, netlist_hash: u64) -> Option<Arc<str>> {
        let mut inner = self.lock();
        let tick = inner.next_tick();
        let value = inner.results.get(model, netlist_hash, tick).cloned();
        drop(inner);
        let counter = if value.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        value
    }

    /// Stores a payload, evicting the least-recently-used entry when at
    /// capacity.
    pub fn put(&self, model: &str, netlist_hash: u64, value: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        let tick = inner.next_tick();
        inner
            .results
            .insert(model, netlist_hash, value, tick, self.capacity);
    }

    /// Answers an exact repeat of `text` (whose [`text_hash`] is
    /// `text_hash`) under `model`: the deck must have been recorded with
    /// [`PredictionCache::put_repeat`], byte for byte, and its canonical
    /// payload must still be cached. Counts a hit when it answers; a
    /// `None` counts nothing, since the caller then looks the canonical
    /// key up with [`PredictionCache::get`].
    pub(crate) fn get_repeat(&self, model: &str, text_hash: u64, text: &str) -> Option<Repeat> {
        let mut inner = self.lock();
        let tick = inner.next_tick();
        let sighting = inner.repeats.get(model, text_hash, tick)?;
        if sighting.text != text {
            return None;
        }
        let (canonical, rows) = (sighting.canonical, Arc::clone(&sighting.rows));
        let value = Arc::clone(inner.results.get(model, canonical, tick)?);
        drop(inner);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(Repeat { value, rows })
    }

    /// Whether [`PredictionCache::get_repeat`] would answer `text` now.
    /// A peek: it marks nothing used and counts nothing.
    pub(crate) fn peek_repeat(&self, model: &str, text_hash: u64, text: &str) -> bool {
        let inner = self.lock();
        inner
            .repeats
            .peek(model, text_hash)
            .is_some_and(|s| s.text == text && inner.results.peek(model, s.canonical).is_some())
    }

    /// Records that `text` (whose [`text_hash`] is `text_hash`)
    /// flattened to the canonical key `canonical` with feature rows
    /// `rows`, evicting the least-recently-used record when at capacity.
    pub(crate) fn put_repeat(
        &self,
        model: &str,
        text_hash: u64,
        text: String,
        canonical: u64,
        rows: Arc<FeatureRows>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let sighting = Sighting {
            text,
            canonical,
            rows,
        };
        let mut inner = self.lock();
        let tick = inner.next_tick();
        inner
            .repeats
            .insert(model, text_hash, sighting, tick, self.capacity);
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits over lookups, 0.0 before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }

    /// Payloads currently cached (exact-repeat records not counted).
    pub fn len(&self) -> usize {
        self.lock().results.len
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every payload and exact-repeat record (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.results.clear();
        inner.repeats.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(v: impl std::fmt::Display) -> Arc<str> {
        v.to_string().into()
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache = PredictionCache::new(4);
        assert!(cache.get("m", 1).is_none());
        cache.put("m", 1, payload("{\"v\":1}"));
        let hit = cache.get("m", 1).unwrap();
        assert_eq!(&*hit, "{\"v\":1}");
        assert!(
            cache.get("other", 1).is_none(),
            "model key is part of the key"
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2);
        assert!((cache.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = PredictionCache::new(2);
        cache.put("m", 1, payload(1));
        cache.put("m", 2, payload(2));
        assert!(cache.get("m", 1).is_some()); // 1 is now fresher than 2
        cache.put("m", 3, payload(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("m", 2).is_none(), "2 was LRU");
        assert!(cache.get("m", 1).is_some());
        assert!(cache.get("m", 3).is_some());
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = PredictionCache::new(0);
        cache.put("m", 1, payload(1));
        assert!(cache.get("m", 1).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn fnv_distinguishes_content() {
        assert_ne!(fnv1a("mp o i vdd vdd pch"), fnv1a("mp o i vdd vdd nch"));
        assert_eq!(fnv1a("same"), fnv1a("same"));
    }

    #[test]
    fn capacity_one_keeps_only_latest() {
        let cache = PredictionCache::new(1);
        cache.put("m", 1, payload(1));
        cache.put("m", 2, payload(2));
        assert_eq!(cache.len(), 1);
        assert!(cache.get("m", 1).is_none(), "1 was evicted by 2");
        assert_eq!(&*cache.get("m", 2).unwrap(), "2");
    }

    #[test]
    fn zero_capacity_never_evicts_or_stores() {
        let cache = PredictionCache::new(0);
        for k in 0..10 {
            cache.put("m", k, payload(k));
            assert!(cache.get("m", k).is_none());
        }
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 10);
    }

    /// Eviction follows full recency order across interleaved gets and
    /// puts, not insertion order.
    #[test]
    fn eviction_order_tracks_recency_not_insertion() {
        let cache = PredictionCache::new(3);
        cache.put("m", 1, payload(1));
        cache.put("m", 2, payload(2));
        cache.put("m", 3, payload(3));
        // Touch in order 2, 1 — recency (oldest first) is now 3, 2, 1.
        assert!(cache.get("m", 2).is_some());
        assert!(cache.get("m", 1).is_some());
        cache.put("m", 4, payload(4)); // evicts 3
        assert!(cache.get("m", 3).is_none(), "3 was least recent");
        cache.put("m", 5, payload(5)); // evicts 2
        assert!(cache.get("m", 2).is_none(), "2 was least recent");
        assert!(cache.get("m", 1).is_some());
        assert!(cache.get("m", 4).is_some());
        assert!(cache.get("m", 5).is_some());
    }

    /// Re-putting an existing key at capacity must update in place, not
    /// evict an unrelated entry.
    #[test]
    fn put_of_existing_key_does_not_evict() {
        let cache = PredictionCache::new(2);
        cache.put("m", 1, payload(1));
        cache.put("m", 2, payload(2));
        cache.put("m", 1, payload(10));
        assert_eq!(cache.len(), 2);
        assert_eq!(&*cache.get("m", 1).unwrap(), "10");
        assert!(cache.get("m", 2).is_some(), "2 must survive the re-put");
    }

    #[test]
    fn text_hash_separates_lengths_and_single_bytes() {
        let deck = "mp o i vdd vdd pch nf=2\nmn o i vss vss nch\n.end\n";
        let base = text_hash(deck);
        assert_eq!(base, text_hash(deck));
        assert_ne!(base, text_hash(&deck[..deck.len() - 1]));
        assert_ne!(text_hash(""), text_hash("\0"));
        for i in 0..deck.len() {
            let mut edited = deck.as_bytes().to_vec();
            edited[i] ^= 0x20;
            let edited = String::from_utf8(edited).unwrap();
            assert_ne!(text_hash(&edited), base, "byte {i}");
        }
    }

    fn rows() -> Arc<FeatureRows> {
        Arc::new(FeatureRows::default())
    }

    /// A repeat answers only for byte-equal text under the same model
    /// key, and only while its canonical payload is cached; only an
    /// answer counts (as a hit).
    #[test]
    fn repeat_needs_equal_text_and_a_cached_payload() {
        let cache = PredictionCache::new(4);
        let text = "mp o i vdd vdd pch\n.end\n";
        let h = text_hash(text);
        assert!(cache.get_repeat("m", h, text).is_none(), "nothing recorded");
        cache.put_repeat("m", h, text.to_owned(), 7, rows());
        assert!(cache.get_repeat("m", h, text).is_none(), "no payload yet");
        cache.put("m", 7, payload("{\"v\":7}"));
        let repeat = cache.get_repeat("m", h, text).expect("exact repeat");
        assert_eq!(&*repeat.value, "{\"v\":7}");
        assert!(cache.get_repeat("other", h, text).is_none(), "model key");
        // Same hash, other bytes: a collision must not answer.
        assert!(cache.get_repeat("m", h, "mn o i vss vss nch\n").is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 0));
        assert_eq!(cache.len(), 1, "len counts payloads only");
    }

    /// A peek answers exactly when `get_repeat` would, but counts
    /// nothing and marks nothing used.
    #[test]
    fn peek_repeat_mirrors_get_repeat_without_side_effects() {
        let cache = PredictionCache::new(2);
        let (a, b) = ("deck a", "deck b");
        cache.put_repeat("m", text_hash(a), a.to_owned(), 1, rows());
        assert!(!cache.peek_repeat("m", text_hash(a), a), "no payload yet");
        cache.put("m", 1, payload(1));
        cache.put_repeat("m", text_hash(b), b.to_owned(), 1, rows());
        assert!(cache.peek_repeat("m", text_hash(a), a));
        assert!(!cache.peek_repeat("m", text_hash(a), b), "other bytes");
        assert!(!cache.peek_repeat("other", text_hash(a), a), "model key");
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // The peeks left `a` the oldest record: a third one evicts it.
        cache.put_repeat("m", 3, "deck c".to_owned(), 1, rows());
        assert!(!cache.peek_repeat("m", text_hash(a), a));
        assert!(cache.peek_repeat("m", text_hash(b), b));
    }

    /// The index is bounded by the capacity with LRU eviction, cleared
    /// with the payloads, and off at capacity 0.
    #[test]
    fn repeat_index_is_bounded_cleared_and_disabled_at_zero() {
        let cache = PredictionCache::new(2);
        cache.put("m", 0, payload(0));
        for k in 0..3_u64 {
            cache.put_repeat("m", k, format!("deck {k}"), 0, rows());
        }
        assert_eq!(cache.lock().repeats.len, 2);
        assert!(cache.get_repeat("m", 0, "deck 0").is_none(), "evicted");
        assert!(cache.get_repeat("m", 2, "deck 2").is_some());
        cache.clear();
        assert!(cache.get_repeat("m", 2, "deck 2").is_none());
        assert_eq!(cache.lock().repeats.len, 0);

        let off = PredictionCache::new(0);
        off.put("m", 0, payload(0));
        off.put_repeat("m", 0, "deck".to_owned(), 0, rows());
        assert!(off.get_repeat("m", 0, "deck").is_none());
        assert_eq!(off.lock().repeats.len, 0);
        assert_eq!((off.hits(), off.misses()), (0, 0));
    }

    /// After eviction churn, hits + misses must equal lookups exactly
    /// and hit_rate must stay consistent with the raw counters.
    #[test]
    fn counters_stay_consistent_after_eviction() {
        let cache = PredictionCache::new(2);
        let mut lookups = 0_u64;
        for k in 0..6 {
            cache.put("m", k, payload(k));
            // Current key always hits; key-2 has been evicted.
            assert!(cache.get("m", k).is_some());
            lookups += 1;
            if k >= 2 {
                assert!(cache.get("m", k - 2).is_none());
                lookups += 1;
            }
        }
        assert_eq!(cache.hits() + cache.misses(), lookups);
        assert_eq!(cache.hits(), 6);
        assert_eq!(cache.misses(), 4);
        let expected = cache.hits() as f64 / lookups as f64;
        assert!((cache.hit_rate() - expected).abs() < 1e-12);
        assert_eq!(cache.len(), 2, "capacity bound held through churn");
    }
}
