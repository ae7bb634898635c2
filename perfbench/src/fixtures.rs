//! Model artifacts the serving workloads load, trained before any
//! timing. Weight quality is irrelevant here, so training is short; the
//! paper's hyper-parameters (ParaGraph, F = 32, L = 5) fix the inference
//! cost. The kernels skip zero activations, so speed depends on the
//! weights: training uses the fixed [`FIXTURE_SEED`], every run serves
//! the same artifacts (the reported fingerprint shows it), and the run
//! seed varies only the requests. Precision is pinned in each artifact,
//! never taken from the environment.

use std::path::{Path, PathBuf};

use paragraph::{
    fit_norm, normalize_circuits, train_models, FeatureNorm, FitConfig, GnnKind, Precision,
    PreparedCircuit, SavedModel, Target, TargetModel, TrainSpec, PAPER_MAX_V,
};
use paragraph_circuitgen::{paper_dataset, DatasetConfig, Split};
use paragraph_layout::LayoutConfig;

/// Artifact file stems of the four Algorithm-2 members, ascending
/// `max_v` (1 fF, 10 fF, 100 fF, 10 pF).
pub const ENSEMBLE_KEYS: [&str; 4] = ["cap_1f", "cap_10f", "cap_100f", "cap_10p"];
/// Artifact file stem of the int8 single model.
pub const INT8_KEY: &str = "cap_int8";

/// Seed of the fixture training set and initial weights.
pub const FIXTURE_SEED: u64 = 2020;

/// Dataset scale of the fixture training set (18 small chips).
const TRAIN_SCALE: f64 = 0.1;
/// Training epochs per fixture model.
const TRAIN_EPOCHS: usize = 1;

/// A directory of written artifacts.
#[derive(Debug, Clone)]
pub struct Artifacts {
    /// The directory `ModelRegistry::open` loads.
    pub dir: PathBuf,
    /// `fnv1a` over the artifact texts, concatenated in file-name order.
    pub fingerprint: u64,
    /// Total artifact bytes.
    pub bytes: usize,
}

fn training_set(seed: u64) -> (Vec<PreparedCircuit>, FeatureNorm) {
    let layout = LayoutConfig::default();
    let mut train: Vec<PreparedCircuit> = paper_dataset(DatasetConfig {
        scale: TRAIN_SCALE,
        seed,
    })
    .into_iter()
    .filter(|c| c.split == Split::Train)
    .map(|c| PreparedCircuit::new(c.name, c.circuit, &layout))
    .collect();
    let norm = fit_norm(&train);
    normalize_circuits(&mut train, &norm);
    (train, norm)
}

fn fit(seed: u64) -> FitConfig {
    FitConfig {
        epochs: TRAIN_EPOCHS,
        seed,
        ..FitConfig::new(GnnKind::ParaGraph)
    }
}

fn write(dir: &Path, models: &[(&str, TargetModel)]) -> Result<Artifacts, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut all = String::new();
    for (key, model) in models {
        let text = SavedModel::from_model(model).to_json();
        let path = dir.join(format!("{key}.json"));
        std::fs::write(&path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
        all.push_str(&text);
    }
    Ok(Artifacts {
        dir: dir.to_path_buf(),
        fingerprint: paragraph_serve::fnv1a(&all),
        bytes: all.len(),
    })
}

/// Trains the four `PAPER_MAX_V` CAP members (f32 pinned) into `dir`.
///
/// # Errors
///
/// Returns a message when the directory or a file cannot be written.
pub fn ensemble(dir: &Path) -> Result<Artifacts, String> {
    let seed = FIXTURE_SEED;
    let (train, norm) = training_set(seed);
    let specs: Vec<TrainSpec> = PAPER_MAX_V
        .iter()
        .enumerate()
        .map(|(i, &max_v)| TrainSpec {
            target: Target::Cap,
            max_value: Some(max_v),
            fit: fit(seed ^ ((i as u64 + 1) << 32)),
        })
        .collect();
    let models: Vec<(&str, TargetModel)> = ENSEMBLE_KEYS
        .iter()
        .zip(train_models(&train, &specs, &norm))
        .map(|(&key, (mut model, _))| {
            model.precision = Some(Precision::F32);
            (key, model)
        })
        .collect();
    write(dir, &models)
}

/// Trains one full-range CAP model with int8 pinned into `dir`; as the
/// only model there it resolves as the registry default.
///
/// # Errors
///
/// Returns a message when the directory or the file cannot be written.
pub fn int8_single(dir: &Path) -> Result<Artifacts, String> {
    let (train, norm) = training_set(FIXTURE_SEED);
    let (mut model, _) = TargetModel::train(&train, Target::Cap, None, fit(FIXTURE_SEED), &norm);
    model.precision = Some(Precision::Int8);
    write(dir, &[(INT8_KEY, model)])
}
