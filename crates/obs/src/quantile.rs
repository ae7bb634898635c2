//! Rolling-window quantile estimator: a fixed-size ring of the most
//! recent observations, with **exact** sorted quantiles computed over
//! the window on demand.
//!
//! The fixed-bucket [`Histogram`](crate::Histogram) answers "how is
//! latency distributed since the process started" but can only bound a
//! p99 to a bucket edge, and never forgets: a startup spike pollutes the
//! tail forever. [`RollingQuantile`] answers the SLO question instead —
//! "what is p99 over the last N requests" — by keeping the raw samples
//! (a few KiB per instance) and sorting a snapshot when asked. Reads are
//! O(N log N) for N = window length, which is trivially cheap at
//! scrape/health frequency; writes are O(1) under an uncontended mutex.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::trace::lock;

/// The quantiles exported through the Prometheus/JSON renders.
pub const RENDERED_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// Fixed-capacity ring of recent `f64` observations with exact
/// nearest-rank quantiles over the window, plus lifetime sum/count (so
/// the Prometheus render can expose standard `_sum`/`_count` series).
#[derive(Debug)]
pub struct RollingQuantile {
    window: Mutex<Ring>,
    count: AtomicU64,
    /// Lifetime sum, stored as f64 bits (observations are serialised by
    /// the window mutex, so a plain load/store pair would also do; the
    /// atomic keeps reads lock-free).
    sum_bits: AtomicU64,
}

#[derive(Debug)]
struct Ring {
    buf: Vec<f64>,
    /// Next write position.
    next: usize,
    /// How many slots hold real observations (≤ capacity).
    filled: usize,
}

impl RollingQuantile {
    /// Creates an estimator keeping the `capacity` (min 1) most recent
    /// observations.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            window: Mutex::new(Ring {
                buf: vec![0.0; capacity],
                next: 0,
                filled: 0,
            }),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0_f64.to_bits()),
        }
    }

    /// Records one observation, evicting the oldest once the window is
    /// full. Non-finite values are ignored (they would poison every
    /// quantile in the window for `capacity` observations).
    pub fn observe(&self, value: f64) {
        self.observe_all(std::iter::once(value));
    }

    /// [`Self::observe`] for each value in order, under one lock: the
    /// window, `sum()` and `count()` end up exactly as after observing
    /// the values one by one.
    pub fn observe_all(&self, values: impl IntoIterator<Item = f64>) {
        let mut ring = lock(&self.window);
        let capacity = ring.buf.len();
        let mut sum = f64::from_bits(self.sum_bits.load(Ordering::Relaxed));
        let mut count = 0;
        for value in values.into_iter().filter(|v| v.is_finite()) {
            let next = ring.next;
            ring.buf[next] = value;
            ring.next = (next + 1) % capacity;
            if ring.filled < capacity {
                ring.filled += 1;
            }
            sum += value;
            count += 1;
        }
        self.sum_bits.store(sum.to_bits(), Ordering::Relaxed);
        self.count.fetch_add(count, Ordering::Relaxed);
    }

    /// Exact nearest-rank quantile over the current window: the value at
    /// sorted rank `ceil(q * n)` (clamped to `[1, n]`; `q = 0` yields
    /// the window minimum). Returns `NaN` while the window is empty.
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantiles(&[q])[0]
    }

    /// [`Self::quantile`] for several `q` values with a single snapshot
    /// and sort, so the reported quantiles are mutually consistent.
    pub fn quantiles(&self, qs: &[f64]) -> Vec<f64> {
        let sorted = {
            let ring = lock(&self.window);
            let mut sorted = ring.buf[..ring.filled].to_vec();
            drop(ring);
            sorted.sort_by(f64::total_cmp);
            sorted
        };
        qs.iter()
            .map(|&q| {
                if sorted.is_empty() {
                    f64::NAN
                } else {
                    let n = sorted.len();
                    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                    sorted[rank - 1]
                }
            })
            .collect()
    }

    /// Mean of the observations currently in the window (`NaN` when
    /// empty). No sort — cheap enough for per-request drift checks.
    pub fn window_mean(&self) -> f64 {
        let ring = lock(&self.window);
        if ring.filled == 0 {
            return f64::NAN;
        }
        ring.buf[..ring.filled].iter().sum::<f64>() / ring.filled as f64
    }

    /// Observations currently in the window.
    pub fn window_len(&self) -> usize {
        lock(&self.window).filled
    }

    /// Lifetime observation count (not just the window).
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Lifetime sum of observations (not just the window).
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal deterministic LCG so the crate stays dependency-free.
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Reference: exact nearest-rank quantile over a sorted slice.
    fn reference_quantile(window: &[f64], q: f64) -> f64 {
        let mut sorted = window.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }

    #[test]
    fn empty_window_is_nan() {
        let rq = RollingQuantile::new(8);
        assert!(rq.quantile(0.5).is_nan());
        assert!(rq.window_mean().is_nan());
        assert_eq!(rq.window_len(), 0);
    }

    #[test]
    fn single_observation_is_every_quantile() {
        let rq = RollingQuantile::new(8);
        rq.observe(42.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(rq.quantile(q), 42.0, "q={q}");
        }
        assert_eq!(rq.count(), 1);
        assert_eq!(rq.sum(), 42.0);
    }

    #[test]
    fn matches_sorted_reference_on_random_streams() {
        let mut rng = Lcg(0x5eed_cafe);
        for &capacity in &[1usize, 3, 16, 64] {
            let rq = RollingQuantile::new(capacity);
            let mut stream: Vec<f64> = Vec::new();
            for step in 0..300 {
                let v = (rng.next_f64() * 1000.0).round() / 8.0;
                rq.observe(v);
                stream.push(v);
                let start = stream.len().saturating_sub(capacity);
                let window = &stream[start..];
                assert_eq!(rq.window_len(), window.len());
                for &q in &[0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                    let got = rq.quantile(q);
                    let want = reference_quantile(window, q);
                    assert_eq!(
                        got, want,
                        "capacity={capacity} step={step} q={q} window={window:?}"
                    );
                }
                let want_mean = window.iter().sum::<f64>() / window.len() as f64;
                assert!(
                    (rq.window_mean() - want_mean).abs() <= 1e-9 * want_mean.abs().max(1.0),
                    "capacity={capacity} step={step}"
                );
            }
            assert_eq!(rq.count(), 300);
        }
    }

    #[test]
    fn eviction_forgets_old_observations() {
        let rq = RollingQuantile::new(4);
        for v in [1000.0, 1000.0, 1000.0, 1000.0] {
            rq.observe(v);
        }
        assert_eq!(rq.quantile(0.99), 1000.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            rq.observe(v);
        }
        // The startup spike has been fully evicted from the window.
        assert_eq!(rq.quantile(0.99), 4.0);
        assert_eq!(rq.quantile(0.5), 2.0);
        // ... but lifetime count/sum still remember it.
        assert_eq!(rq.count(), 8);
        assert_eq!(rq.sum(), 4010.0);
    }

    #[test]
    fn non_finite_observations_are_ignored() {
        let rq = RollingQuantile::new(4);
        rq.observe(1.0);
        rq.observe(f64::NAN);
        rq.observe(f64::INFINITY);
        assert_eq!(rq.window_len(), 1);
        assert_eq!(rq.quantile(0.99), 1.0);
        assert_eq!(rq.count(), 1);
    }

    /// Observing a sequence in one locked pass leaves the state that
    /// observing its values one at a time leaves, bit for bit: ring
    /// contents and order, lifetime sum and count, with non-finite
    /// values skipped.
    #[test]
    fn observe_all_matches_one_at_a_time() {
        let mut rng = Lcg(0x0b5e_77a1);
        let mut stream: Vec<f64> = (0..37).map(|_| rng.next_f64() * 3.0 - 1.0).collect();
        stream[3] = f64::NAN;
        stream[11] = f64::INFINITY;
        stream[20] = f64::NEG_INFINITY;
        let (one, all) = (RollingQuantile::new(16), RollingQuantile::new(16));
        one.observe(0.25);
        all.observe(0.25);
        for &v in &stream {
            one.observe(v);
        }
        all.observe_all(stream.iter().copied());
        let ring = |rq: &RollingQuantile| {
            let r = lock(&rq.window);
            (r.buf.clone(), r.next, r.filled)
        };
        let ((buf_one, next_one, filled_one), (buf_all, next_all, filled_all)) =
            (ring(&one), ring(&all));
        assert_eq!((next_all, filled_all), (next_one, filled_one));
        let bits = |buf: &[f64]| buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&buf_all), bits(&buf_one));
        assert_eq!(all.sum().to_bits(), one.sum().to_bits());
        assert_eq!(all.count(), 35, "three non-finite values skipped");
        assert_eq!(all.count(), one.count());
        assert_eq!(all.window_mean().to_bits(), one.window_mean().to_bits());
    }

    #[test]
    fn consistent_multi_quantile_snapshot() {
        let rq = RollingQuantile::new(16);
        for v in 1..=10 {
            rq.observe(v as f64);
        }
        let qs = rq.quantiles(&RENDERED_QUANTILES);
        assert_eq!(qs, vec![5.0, 10.0, 10.0]);
    }
}
