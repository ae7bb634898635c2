//! Model registry: loads a directory of [`SavedModel`] JSON snapshots,
//! validates each against the circuit schema, compiles each model's
//! executor, assembles capacitance-range members into a [`CapEnsemble`],
//! and supports atomic hot reload.
//!
//! Readers hold an [`Arc`] to an immutable [`LoadedModels`] snapshot;
//! [`ModelRegistry::reload`] builds a complete new snapshot off to the
//! side and swaps it in only when every file loaded cleanly, so requests
//! in flight never observe a half-loaded registry.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

use paragraph::{
    CapEnsemble, CircuitPredictions, Precision, PredictProfile, SavedModel, TargetModel,
};
use paragraph_netlist::Circuit;

/// Reserved model key that routes to the assembled [`CapEnsemble`].
pub const ENSEMBLE_KEY: &str = "cap_ensemble";

/// Error from loading or reloading the registry.
#[derive(Debug, Clone)]
pub struct RegistryError {
    message: String,
}

impl RegistryError {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for RegistryError {}

/// A model a request can resolve to.
#[derive(Debug, Clone)]
pub enum ModelRef {
    /// One snapshot.
    Single(Arc<TargetModel>),
    /// The assembled capacitance ensemble.
    Ensemble(Arc<CapEnsemble>),
}

impl ModelRef {
    /// Predicts several circuits in one call through
    /// [`TargetModel::predict_circuits`] or
    /// [`CapEnsemble::predict_circuits`]: per circuit its predictions
    /// and, for the ensemble, the `max_v` of the member Algorithm 2
    /// picked for the most nets; plus the call's stage timings.
    pub fn predict_circuits(
        &self,
        circuits: &[&Circuit],
    ) -> (CircuitPredictions, PredictProfile, Vec<Option<f64>>) {
        match self {
            ModelRef::Single(m) => {
                let (preds, profile) = m.predict_circuits(circuits);
                (preds, profile, vec![None; circuits.len()])
            }
            ModelRef::Ensemble(e) => {
                let (preds, profile, selected) = e.predict_circuits(circuits);
                let member_max_v = selected
                    .iter()
                    .map(|counts| {
                        counts
                            .iter()
                            .enumerate()
                            .max_by_key(|(_, &n)| n)
                            .filter(|(_, &n)| n > 0)
                            .and_then(|(i, _)| e.members()[i].max_value)
                    })
                    .collect();
                (preds, profile, member_max_v)
            }
        }
    }

    /// The precision inference for this model runs at; used to label
    /// the per-precision serving metrics. Ensembles report their
    /// members' shared precision.
    pub fn precision(&self) -> Precision {
        let model = match self {
            ModelRef::Single(m) => m,
            ModelRef::Ensemble(e) => &e.members()[0],
        };
        model.effective_precision()
    }
}

/// An immutable snapshot of everything the registry has loaded.
#[derive(Debug, Default)]
pub struct LoadedModels {
    /// Individual models keyed by snapshot file stem, sorted.
    pub models: BTreeMap<String, Arc<TargetModel>>,
    /// Ensemble assembled from all CAP members with a `max_value`
    /// (present only when there are at least two).
    pub ensemble: Option<Arc<CapEnsemble>>,
    /// Keys of the models folded into the ensemble, ascending `max_v`.
    pub ensemble_members: Vec<String>,
}

impl LoadedModels {
    /// Resolves a request's model key. `None` picks the ensemble when
    /// one exists, else the sole loaded model.
    ///
    /// # Errors
    ///
    /// Returns a message listing the available keys.
    pub fn resolve(&self, key: Option<&str>) -> Result<(String, ModelRef), String> {
        match key {
            Some(ENSEMBLE_KEY) => self
                .ensemble
                .clone()
                .map(|e| (ENSEMBLE_KEY.to_owned(), ModelRef::Ensemble(e)))
                .ok_or_else(|| self.unknown(ENSEMBLE_KEY)),
            Some(name) => self
                .models
                .get(name)
                .cloned()
                .map(|m| (name.to_owned(), ModelRef::Single(m)))
                .ok_or_else(|| self.unknown(name)),
            None => {
                if let Some(e) = &self.ensemble {
                    return Ok((ENSEMBLE_KEY.to_owned(), ModelRef::Ensemble(e.clone())));
                }
                if self.models.len() == 1 {
                    let (name, m) = self.models.iter().next().expect("len checked");
                    return Ok((name.clone(), ModelRef::Single(m.clone())));
                }
                Err(format!(
                    "no default model (no ensemble, {} individual models); specify one of [{}]",
                    self.models.len(),
                    self.keys().join(", ")
                ))
            }
        }
    }

    /// Every addressable key, ensemble first.
    pub fn keys(&self) -> Vec<String> {
        let mut keys = Vec::new();
        if self.ensemble.is_some() {
            keys.push(ENSEMBLE_KEY.to_owned());
        }
        keys.extend(self.models.keys().cloned());
        keys
    }

    fn unknown(&self, name: &str) -> String {
        format!(
            "unknown model '{}'; available: [{}]",
            name,
            self.keys().join(", ")
        )
    }

    /// Builds a snapshot from in-memory models (no disk involved); used
    /// by benches and in-process embedders. Every model is compiled here,
    /// before the ensemble is assembled, so ensemble members share their
    /// compiled executors with the single-model entries.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] when a model does not compile (with the
    /// [`paragraph::CompileError`]'s text) or ensemble assembly fails
    /// (e.g. two CAP members share a `max_value`).
    pub fn from_models(
        named: impl IntoIterator<Item = (String, TargetModel)>,
    ) -> Result<Self, RegistryError> {
        let mut snapshot = LoadedModels::default();
        for (name, model) in named {
            if snapshot.models.contains_key(&name) {
                return Err(RegistryError::new(format!("duplicate model key '{name}'")));
            }
            model
                .compile()
                .map_err(|e| RegistryError::new(format!("model '{name}' does not compile: {e}")))?;
            snapshot.models.insert(name, Arc::new(model));
        }
        snapshot.assemble_ensemble()?;
        Ok(snapshot)
    }

    fn assemble_ensemble(&mut self) -> Result<(), RegistryError> {
        let mut members: Vec<(String, TargetModel)> = self
            .models
            .iter()
            .filter(|(_, m)| m.target == paragraph::Target::Cap && m.max_value.is_some())
            .map(|(k, m)| (k.clone(), (**m).clone()))
            .collect();
        if members.len() < 2 {
            return Ok(());
        }
        members.sort_by(|a, b| {
            a.1.max_value
                .partial_cmp(&b.1.max_value)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let (keys, models): (Vec<String>, Vec<TargetModel>) = members.into_iter().unzip();
        let ensemble = CapEnsemble::try_new(models)
            .map_err(|e| RegistryError::new(format!("cannot assemble {ENSEMBLE_KEY}: {e}")))?;
        self.ensemble = Some(Arc::new(ensemble));
        self.ensemble_members = keys;
        Ok(())
    }
}

/// Summary of a successful (re)load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadReport {
    /// Individual models now loaded.
    pub models: usize,
    /// Whether an ensemble was assembled.
    pub ensemble: bool,
}

/// Thread-safe registry handle. Cheap to clone an `Arc` of; readers are
/// never blocked by a reload for longer than the pointer swap.
#[derive(Debug)]
pub struct ModelRegistry {
    dir: Option<PathBuf>,
    precision: Option<Precision>,
    current: RwLock<Arc<LoadedModels>>,
}

impl ModelRegistry {
    /// Loads and compiles every `*.json` snapshot under `dir`, each at
    /// its own precision pin or the process-wide default.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError`] when the directory cannot be read, any
    /// snapshot fails to parse, validate against the circuit schema, or
    /// compile, or ensemble assembly fails. Nothing is partially loaded.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        Self::open_with(dir, None)
    }

    /// Like [`Self::open`], additionally stamping every loaded model with
    /// a compiled-path `precision`. A model whose artifact pins its own
    /// precision keeps the pin — so accuracy-critical targets can stay
    /// `f32` while the rest of the registry serves quantized. `None`
    /// leaves models on the process-wide default. The setting is
    /// remembered and reapplied on every [`Self::reload`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::open`].
    pub fn open_with(
        dir: impl Into<PathBuf>,
        precision: Option<Precision>,
    ) -> Result<Self, RegistryError> {
        let dir = dir.into();
        let snapshot = load_dir(&dir, precision)?;
        Ok(Self {
            dir: Some(dir),
            precision,
            current: RwLock::new(Arc::new(snapshot)),
        })
    }

    /// Wraps an in-memory snapshot (no backing directory; [`Self::reload`]
    /// is a no-op that reports the current contents).
    pub fn from_snapshot(snapshot: LoadedModels) -> Self {
        Self {
            dir: None,
            precision: None,
            current: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// The current snapshot; holders keep observing it even across
    /// concurrent reloads.
    pub fn current(&self) -> Arc<LoadedModels> {
        self.current.read().expect("registry lock poisoned").clone()
    }

    /// Re-scans the backing directory and atomically swaps in the new
    /// snapshot; on error the previous snapshot stays active.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::open`].
    pub fn reload(&self) -> Result<ReloadReport, RegistryError> {
        let snapshot = match &self.dir {
            Some(dir) => load_dir(dir, self.precision)?,
            None => return Ok(self.report()),
        };
        let report = ReloadReport {
            models: snapshot.models.len(),
            ensemble: snapshot.ensemble.is_some(),
        };
        *self.current.write().expect("registry lock poisoned") = Arc::new(snapshot);
        Ok(report)
    }

    fn report(&self) -> ReloadReport {
        let cur = self.current();
        ReloadReport {
            models: cur.models.len(),
            ensemble: cur.ensemble.is_some(),
        }
    }
}

fn load_dir(dir: &Path, precision: Option<Precision>) -> Result<LoadedModels, RegistryError> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| RegistryError::new(format!("cannot read {}: {e}", dir.display())))?;
    let mut named = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| RegistryError::new(format!("cannot list {}: {e}", dir.display())))?
            .path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| RegistryError::new(format!("bad file name {}", path.display())))?
            .to_owned();
        let text = std::fs::read_to_string(&path)
            .map_err(|e| RegistryError::new(format!("cannot read {}: {e}", path.display())))?;
        let mut model = SavedModel::from_json(&text)
            .and_then(SavedModel::into_model)
            .map_err(|e| RegistryError::new(format!("{}: {e}", path.display())))?;
        // Ensemble members are cloned out of this set, so stamping here
        // covers both individual models and the assembled ensemble. An
        // artifact's own precision pin wins over the registry-wide
        // setting.
        if model.precision.is_none() {
            model.precision = precision;
        }
        named.push((stem, model));
    }
    LoadedModels::from_models(named)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_resolves_nothing() {
        let snapshot = LoadedModels::default();
        assert!(snapshot.resolve(None).is_err());
        let err = snapshot.resolve(Some("x")).unwrap_err();
        assert!(err.contains("unknown model 'x'"), "{err}");
        assert!(snapshot.keys().is_empty());
    }

    #[test]
    fn open_missing_dir_errors() {
        assert!(ModelRegistry::open("/nonexistent/paragraph-models").is_err());
    }
}
