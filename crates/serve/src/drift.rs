//! Serve-side drift monitor: compares a rolling window of incoming
//! circuit feature statistics against the training-set baselines
//! captured in the model artifact ([`paragraph::BaselineStats`]).
//!
//! Every `predict` request's raw (pre-normalisation) feature rows are
//! folded into per-`(node type, feature)` rolling windows. Two signals
//! come out:
//!
//! * **drift z-score** per feature — `|window mean − baseline mean| /
//!   baseline std`, exported as `paragraph_serve_drift_z{type,feature}`
//!   gauges; and
//! * **out-of-distribution requests** — a request is OOD when any
//!   feature value falls outside `[min − k·std, max + k·std]` of the
//!   training range. OOD requests count into
//!   `paragraph_serve_ood_requests_total`, and the rolling OOD fraction
//!   (`paragraph_serve_ood_fraction`) degrades the `health` op once
//!   enough requests have been seen.
//!
//! The monitor only *observes*; it never rejects a request or perturbs
//! predictions.

use std::sync::{Arc, Mutex};

use paragraph::{BaselineStats, NodeType};
use paragraph_obs::{Counter, Gauge, Registry, RollingQuantile};

use crate::registry::{LoadedModels, ModelRef};

/// Floor applied to baseline standard deviations so constant features
/// (std 0) don't turn every request into infinite drift.
const STD_FLOOR: f64 = 1e-9;

/// Tunables for [`DriftMonitor`].
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Rolling window length, both per `(type, feature)` value window
    /// and for the per-request OOD fraction.
    pub window: usize,
    /// z-score at/above which a feature is reported as drifted in
    /// health reasons.
    pub z_threshold: f64,
    /// Training-range slack `k`: a value outside
    /// `[min − k·std, max + k·std]` is out-of-distribution.
    pub ood_sigma: f64,
    /// Requests that must be observed before drift can flip health to
    /// `degraded` (avoids a cold-start false alarm).
    pub min_requests: usize,
    /// Rolling OOD request fraction at/above which health degrades.
    pub degraded_fraction: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window: 256,
            z_threshold: 4.0,
            ood_sigma: 4.0,
            min_requests: 8,
            degraded_fraction: 0.5,
        }
    }
}

/// One request's raw feature rows stored flat, in the order
/// [`paragraph::raw_feature_rows`] lists them: node type `t`'s rows are
/// consecutive in one buffer, all of one width. The exact-repeat index
/// keeps these per deck text, so a repeat feeds the drift windows
/// without parsing.
#[derive(Debug, Default)]
pub(crate) struct FeatureRows {
    values: Vec<f32>,
    /// Per node type: `(end of its rows in values, row width)`.
    types: Vec<(usize, usize)>,
}

impl FeatureRows {
    /// Flattens `[type][row][feature]` rows.
    ///
    /// # Panics
    ///
    /// If the rows of one type differ in width.
    pub(crate) fn new(rows: &[Vec<Vec<f32>>]) -> Self {
        let total = rows.iter().flatten().map(Vec::len).sum();
        let mut values = Vec::with_capacity(total);
        let mut types = Vec::with_capacity(rows.len());
        for type_rows in rows {
            let width = type_rows.first().map_or(0, Vec::len);
            for row in type_rows {
                assert_eq!(row.len(), width, "feature rows of one type share a width");
                values.extend_from_slice(row);
            }
            types.push((values.len(), width));
        }
        Self { values, types }
    }

    /// Each node type's rows as `(row-major values, row width)`.
    fn types(&self) -> impl Iterator<Item = (&[f32], usize)> {
        let starts = std::iter::once(0).chain(self.types.iter().map(|&(end, _)| end));
        starts
            .zip(&self.types)
            .map(|(start, &(end, width))| (&self.values[start..end], width))
    }
}

/// Per-baseline state; rebuilt whenever the registry (re)loads.
#[derive(Debug)]
struct DriftState {
    baseline: BaselineStats,
    /// Rolling windows of incoming values, `[type][feature]`.
    windows: Vec<Vec<Arc<RollingQuantile>>>,
    /// Exported z-score gauges, `[type][feature]`.
    z_gauges: Vec<Vec<Arc<Gauge>>>,
}

/// Compares incoming circuits against training baselines. One per
/// [`crate::Service`]; shared with the worker pool behind an [`Arc`].
#[derive(Debug)]
pub struct DriftMonitor {
    config: DriftConfig,
    state: Mutex<Option<DriftState>>,
    ood_total: Arc<Counter>,
    ood_fraction: Arc<Gauge>,
    /// One 0/1 observation per predict request; the window mean is the
    /// rolling OOD fraction.
    requests: Arc<RollingQuantile>,
}

impl DriftMonitor {
    /// Creates an inactive monitor; its counters register into
    /// `registry` so the service render exposes them.
    pub fn new(registry: &Registry, config: DriftConfig) -> Self {
        let requests = Arc::new(RollingQuantile::new(config.window));
        Self {
            ood_total: registry.counter("paragraph_serve_ood_requests_total", &[]),
            ood_fraction: registry.gauge("paragraph_serve_ood_fraction", &[]),
            requests,
            state: Mutex::new(None),
            config,
        }
    }

    /// Installs (or clears) the baseline to compare against. Call after
    /// every registry load; passing `None` deactivates the monitor.
    pub fn set_baseline(&self, registry: &Registry, baseline: Option<BaselineStats>) {
        let next = baseline.map(|b| {
            let mut windows = Vec::with_capacity(b.mean.len());
            let mut z_gauges = Vec::with_capacity(b.mean.len());
            for (t, means) in b.mean.iter().enumerate() {
                let type_name = NodeType::ALL[t].name();
                let mut w = Vec::with_capacity(means.len());
                let mut g = Vec::with_capacity(means.len());
                for f in 0..means.len() {
                    let feature = format!("f{f}");
                    let labels = [("type", type_name), ("feature", feature.as_str())];
                    w.push(registry.rolling(
                        "paragraph_serve_feature_window",
                        &labels,
                        self.config.window,
                    ));
                    let gauge = registry.gauge("paragraph_serve_drift_z", &labels);
                    gauge.set(0.0);
                    g.push(gauge);
                }
                windows.push(w);
                z_gauges.push(g);
            }
            DriftState {
                baseline: b,
                windows,
                z_gauges,
            }
        });
        *lock(&self.state) = next;
    }

    /// Whether a baseline is installed.
    pub fn is_active(&self) -> bool {
        lock(&self.state).is_some()
    }

    /// Folds one request's raw feature rows (as produced by
    /// [`paragraph::raw_feature_rows`]) into the windows; returns
    /// whether any value was out of the training distribution. A no-op
    /// returning `false` when no baseline is installed.
    pub fn observe(&self, rows: &[Vec<Vec<f32>>]) -> bool {
        self.observe_rows(&FeatureRows::new(rows))
    }

    /// [`DriftMonitor::observe`] over rows already stored flat. Each
    /// window takes the request's values in row order under one lock.
    pub(crate) fn observe_rows(&self, rows: &FeatureRows) -> bool {
        let mut guard = lock(&self.state);
        let Some(state) = guard.as_mut() else {
            return false;
        };
        let mut ood = false;
        for (t, (values, width)) in rows.types().enumerate() {
            if t >= state.windows.len() || state.baseline.rows.get(t).copied().unwrap_or(0) == 0 {
                continue; // node type unseen in training: nothing to judge against
            }
            let (means, stds) = (&state.baseline.mean[t], &state.baseline.std[t]);
            let (mins, maxs) = (&state.baseline.min[t], &state.baseline.max[t]);
            for (f, window) in state.windows[t].iter().enumerate().take(width) {
                let slack = self.config.ood_sigma * stds[f].max(STD_FLOOR);
                let (lo, hi) = (mins[f] - slack, maxs[f] + slack);
                window.observe_all(values.iter().skip(f).step_by(width).map(|&v| {
                    let v = f64::from(v);
                    ood |= v < lo || v > hi;
                    v
                }));
            }
            for (f, window) in state.windows[t].iter().enumerate() {
                let wm = window.window_mean();
                if wm.is_finite() {
                    let z = (wm - means[f]).abs() / stds[f].max(STD_FLOOR);
                    state.z_gauges[t][f].set(z);
                }
            }
        }
        drop(guard);
        self.requests.observe(if ood { 1.0 } else { 0.0 });
        if ood {
            self.ood_total.inc();
        }
        let frac = self.requests.window_mean();
        self.ood_fraction
            .set(if frac.is_finite() { frac } else { 0.0 });
        ood
    }

    /// Total OOD requests since startup.
    pub fn ood_requests_total(&self) -> u64 {
        self.ood_total.get()
    }

    /// Rolling OOD fraction over the last `window` requests (0.0 before
    /// any request).
    pub fn ood_fraction(&self) -> f64 {
        let f = self.requests.window_mean();
        if f.is_finite() {
            f
        } else {
            0.0
        }
    }

    /// Current per-feature drift z-scores as `("<node-type> f<i>", z)`
    /// pairs, in node-type then feature order; empty when no baseline
    /// is installed. The labels match the feature names used in
    /// [`DriftMonitor::status`] degradation reasons.
    pub fn z_scores(&self) -> Vec<(String, f64)> {
        let guard = lock(&self.state);
        let Some(state) = guard.as_ref() else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (t, gauges) in state.z_gauges.iter().enumerate() {
            for (f, gauge) in gauges.iter().enumerate() {
                out.push((format!("{} f{f}", NodeType::ALL[t].name()), gauge.get()));
            }
        }
        out
    }

    /// Health verdict: `(degraded, reasons)`. Degrades only after
    /// `min_requests` observations with the rolling OOD fraction at or
    /// above `degraded_fraction`; reasons also name features whose
    /// z-score exceeds the threshold.
    pub fn status(&self) -> (bool, Vec<String>) {
        let guard = lock(&self.state);
        let Some(state) = guard.as_ref() else {
            return (false, Vec::new());
        };
        let seen = self.requests.window_len();
        let frac = self.requests.window_mean();
        let degraded = seen >= self.config.min_requests
            && frac.is_finite()
            && frac >= self.config.degraded_fraction;
        if !degraded {
            return (false, Vec::new());
        }
        let mut reasons = vec![format!(
            "{:.0}% of the last {seen} predict requests were out-of-distribution",
            frac * 100.0
        )];
        for (t, gauges) in state.z_gauges.iter().enumerate() {
            for (f, gauge) in gauges.iter().enumerate() {
                let z = gauge.get();
                if z >= self.config.z_threshold {
                    reasons.push(format!(
                        "feature drift: {} f{f} z={z:.1}",
                        NodeType::ALL[t].name()
                    ));
                }
            }
        }
        (true, reasons)
    }
}

/// Picks the baseline to monitor against from a registry snapshot: the
/// default-resolved model's stats, falling back to any model that
/// carries them. Returns `None` when no loaded model has baselines
/// (e.g. artifacts predating baseline capture).
pub(crate) fn baseline_from_snapshot(snapshot: &LoadedModels) -> Option<BaselineStats> {
    if let Ok((_, model)) = snapshot.resolve(None) {
        let found = match &model {
            ModelRef::Single(m) => m.baseline.clone(),
            ModelRef::Ensemble(e) => e.members().iter().find_map(|m| m.baseline.clone()),
        };
        if found.is_some() {
            return found;
        }
    }
    snapshot.models.values().find_map(|m| m.baseline.clone())
}

/// Locks ignoring poison: drift bookkeeping must survive a panicking
/// worker elsewhere in the process.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic baseline with one node type (nets, type index of
    /// [`NodeType::ALL`] position 0) carrying a single feature centred
    /// at 10 with std 1 and range [8, 12].
    fn baseline() -> BaselineStats {
        let types = NodeType::ALL.len();
        let mut b = BaselineStats {
            mean: vec![Vec::new(); types],
            std: vec![Vec::new(); types],
            min: vec![Vec::new(); types],
            max: vec![Vec::new(); types],
            rows: vec![0; types],
            label_min: Some(1e-15),
            label_max: Some(1e-12),
            labelled_nodes: 4,
        };
        b.mean[0] = vec![10.0];
        b.std[0] = vec![1.0];
        b.min[0] = vec![8.0];
        b.max[0] = vec![12.0];
        b.rows[0] = 100;
        b
    }

    fn monitor(config: DriftConfig) -> (Registry, DriftMonitor) {
        let registry = Registry::new();
        let m = DriftMonitor::new(&registry, config);
        m.set_baseline(&registry, Some(baseline()));
        (registry, m)
    }

    fn rows(value: f32) -> Vec<Vec<Vec<f32>>> {
        let mut rows = vec![Vec::new(); NodeType::ALL.len()];
        rows[0] = vec![vec![value]];
        rows
    }

    #[test]
    fn inactive_monitor_never_degrades() {
        let registry = Registry::new();
        let m = DriftMonitor::new(&registry, DriftConfig::default());
        assert!(!m.is_active());
        assert!(!m.observe(&rows(1e9)));
        assert_eq!(m.ood_requests_total(), 0);
        assert_eq!(m.status(), (false, Vec::new()));
    }

    #[test]
    fn in_distribution_stays_green() {
        let (_r, m) = monitor(DriftConfig::default());
        for _ in 0..32 {
            assert!(!m.observe(&rows(10.5)));
        }
        assert_eq!(m.ood_requests_total(), 0);
        let (degraded, reasons) = m.status();
        assert!(!degraded, "{reasons:?}");
    }

    #[test]
    fn out_of_range_batch_degrades_health() {
        let config = DriftConfig {
            min_requests: 4,
            ..DriftConfig::default()
        };
        let (_r, m) = monitor(config);
        // Range [8, 12], std 1, k = 4 => anything beyond [4, 16] is OOD.
        for _ in 0..8 {
            assert!(m.observe(&rows(1000.0)));
        }
        assert_eq!(m.ood_requests_total(), 8);
        assert!((m.ood_fraction() - 1.0).abs() < 1e-12);
        let (degraded, reasons) = m.status();
        assert!(degraded);
        assert!(
            reasons.iter().any(|r| r.contains("out-of-distribution")),
            "{reasons:?}"
        );
        assert!(
            reasons.iter().any(|r| r.contains("feature drift")),
            "{reasons:?}"
        );
    }

    #[test]
    fn recovery_clears_degraded_state() {
        let config = DriftConfig {
            window: 8,
            min_requests: 4,
            ..DriftConfig::default()
        };
        let (_r, m) = monitor(config);
        for _ in 0..8 {
            m.observe(&rows(1000.0));
        }
        assert!(m.status().0);
        // The bad batch ages out of the window as healthy traffic flows.
        for _ in 0..8 {
            m.observe(&rows(10.0));
        }
        let (degraded, reasons) = m.status();
        assert!(!degraded, "{reasons:?}");
        assert_eq!(m.ood_requests_total(), 8, "lifetime counter keeps history");
    }

    #[test]
    fn drift_gauges_render_with_labels() {
        let (registry, m) = monitor(DriftConfig::default());
        m.observe(&rows(10.0));
        let text = registry.render_prometheus();
        assert!(
            text.contains("paragraph_serve_drift_z{feature=\"f0\",type=\"net\"}")
                || text.contains("paragraph_serve_drift_z{type=\"net\",feature=\"f0\"}"),
            "missing drift gauge in:\n{text}"
        );
        assert!(text.contains("paragraph_serve_ood_requests_total"));
    }

    #[test]
    fn baseline_survives_slack_edges() {
        let (_r, m) = monitor(DriftConfig {
            min_requests: 1,
            ..DriftConfig::default()
        });
        // Just inside the slack band: min - k*std = 8 - 4 = 4.
        assert!(!m.observe(&rows(4.5)));
        // Just outside.
        assert!(m.observe(&rows(3.5)));
    }
}
