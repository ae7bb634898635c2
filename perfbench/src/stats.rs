//! Order statistics over measured samples.

/// Nearest-rank percentile: the smallest sample `v` such that at least
/// `q * n` of the `n` samples are `<= v` (`q` in `[0, 1]`; `q = 0`
/// gives the minimum). Returns NaN for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1)]
}

/// Nearest-rank median (the lower middle sample for an even count).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// One slice of a timed phase: an equal share of its ops, in order of
/// completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Ops completed per second within the segment.
    pub rate: f64,
    /// Median op latency of the segment.
    pub p50: f64,
    /// 90th-percentile op latency of the segment.
    pub p90: f64,
}

/// Splits a phase into `k` consecutive segments of equal op count.
/// `done_s[i]` is op `i`'s completion time from the phase start, sorted
/// ascending, and `latency[i]` its latency. A segment lasts from the
/// previous segment's last completion (or the phase start) to its own
/// last completion.
pub fn segments(done_s: &[f64], latency: &[f64], k: usize) -> Vec<Segment> {
    let n = done_s.len();
    let k = k.clamp(1, n.max(1));
    (0..k)
        .filter_map(|s| {
            let (lo, hi) = (s * n / k, (s + 1) * n / k);
            if hi == lo {
                return None;
            }
            let start = if lo == 0 { 0.0 } else { done_s[lo - 1] };
            Some(Segment {
                rate: (hi - lo) as f64 / (done_s[hi - 1] - start),
                p50: percentile(&latency[lo..hi], 0.5),
                p90: percentile(&latency[lo..hi], 0.9),
            })
        })
        .collect()
}

/// Arithmetic mean; NaN for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SplitMix64;

    /// Reference definition, checked by counting instead of indexing:
    /// `v` is the answer iff at least `ceil(q n)` samples are `<= v` and
    /// fewer than that are `< v`.
    fn is_nearest_rank(samples: &[f64], q: f64, v: f64) -> bool {
        let need = ((q * samples.len() as f64).ceil() as usize).max(1);
        let at_most = samples.iter().filter(|&&s| s <= v).count();
        let below = samples.iter().filter(|&&s| s < v).count();
        samples.contains(&v) && at_most >= need && below < need
    }

    #[test]
    fn percentile_matches_counting_reference() {
        let mut rng = SplitMix64::new(7);
        for n in 1..60 {
            // Coarse values so ties are common.
            let samples: Vec<f64> = (0..n).map(|_| (rng.next_f64() * 12.0).floor()).collect();
            for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0] {
                let v = percentile(&samples, q);
                assert!(
                    is_nearest_rank(&samples, q, v),
                    "n={n} q={q} v={v} {samples:?}"
                );
            }
        }
    }

    #[test]
    fn segments_split_by_completion_count() {
        let done = [1.0, 2.0, 3.0, 5.0, 6.0, 8.0];
        let lat = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let segs = segments(&done, &lat, 3);
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].rate, 1.0); // 2 ops in [0, 2]
        assert_eq!(segs[1].rate, 2.0 / 3.0); // 2 ops in (2, 5]
        assert_eq!(segs[2].rate, 2.0 / 3.0); // 2 ops in (5, 8]
        assert_eq!((segs[1].p50, segs[1].p90), (3.0, 4.0));
    }

    #[test]
    fn median_of_known_values() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[2.0, 9.0, 4.0, 7.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
