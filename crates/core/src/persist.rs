//! JSON persistence for trained models.

use serde::{Deserialize, Serialize};

use paragraph_gnn::{GnnKind, GnnModel, ModelConfig};

use paragraph_exec::Precision;

use crate::baseline::BaselineStats;
use crate::features::FeatureNorm;
use crate::graphbuild::circuit_schema;
use crate::pipeline::{FitConfig, TargetModel};
use crate::targets::Target;

/// Error from loading a saved model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadModelError {
    message: String,
}

impl std::fmt::Display for LoadModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for LoadModelError {}

/// Serialisable snapshot of a [`TargetModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SavedModel {
    /// Target being predicted.
    pub target: Target,
    /// Training range cap.
    pub max_value: Option<f64>,
    /// GNN kind name (`ParaGraph`, `GCN`, ...).
    pub kind: String,
    /// Embedding width.
    pub embed_dim: usize,
    /// Layer depth.
    pub layers: usize,
    /// Init seed.
    pub seed: u64,
    /// Feature normalisation.
    pub norm: FeatureNorm,
    /// Training-set baseline statistics for serve-side drift
    /// monitoring. Absent in artifacts written before baseline capture
    /// existed — such snapshots still load (the field reads as `None`).
    pub baseline: Option<BaselineStats>,
    /// Pinned compiled-path precision name (`f32`/`int8`), if the
    /// model was saved with an explicit pin. `None` (including old
    /// artifacts without the key) follows the process-wide default.
    pub precision: Option<String>,
    /// Activation-calibration site maxima for int8 scales (see
    /// `TargetModel::calibration`). Absent in pre-quantization
    /// artifacts; re-derived from the baseline at load time when
    /// possible.
    pub calibration: Option<Vec<f32>>,
    /// Flattened parameters: `(name, rows, cols, data)`.
    pub params: Vec<(String, usize, usize, Vec<f32>)>,
}

fn kind_from_name(name: &str) -> Option<GnnKind> {
    GnnKind::all().into_iter().find(|k| k.name() == name)
}

impl SavedModel {
    /// Snapshots a trained model.
    pub fn from_model(model: &TargetModel) -> Self {
        Self {
            target: model.target,
            max_value: model.max_value,
            kind: model.fit.kind.name().to_owned(),
            embed_dim: model.fit.embed_dim,
            layers: model.fit.layers,
            seed: model.fit.seed,
            norm: model.norm.clone(),
            baseline: model.baseline.clone(),
            precision: model.precision.map(|p| p.name().to_owned()),
            calibration: model.calibration.clone(),
            params: model.gnn().params().export(),
        }
    }

    /// Serialises to a JSON string.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("serialisable")
    }

    /// Restores a usable [`TargetModel`].
    ///
    /// # Errors
    ///
    /// Returns [`LoadModelError`] on an unknown kind or mismatched
    /// parameter names/shapes.
    pub fn into_model(self) -> Result<TargetModel, LoadModelError> {
        let err = |m: String| LoadModelError { message: m };
        let kind = kind_from_name(&self.kind)
            .ok_or_else(|| err(format!("unknown kind '{}'", self.kind)))?;
        let mut config = ModelConfig::new(kind);
        config.embed_dim = self.embed_dim;
        config.layers = self.layers;
        config.fc_layers = self.target.fc_layers();
        config.seed = self.seed;
        let mut gnn = GnnModel::new(config, &circuit_schema());
        let expected = gnn.params().export().len();
        if self.params.len() != expected {
            return Err(err(format!(
                "snapshot has {} parameters, model schema expects {expected}",
                self.params.len()
            )));
        }
        gnn.params_mut().import(&self.params).map_err(err)?;
        let precision = match &self.precision {
            None => None,
            Some(name) => Some(
                Precision::parse(name).ok_or_else(|| err(format!("unknown precision '{name}'")))?,
            ),
        };
        let fit = FitConfig {
            epochs: 0,
            lr: 0.0,
            seed: self.seed,
            embed_dim: self.embed_dim,
            layers: self.layers,
            ..FitConfig::new(kind)
        };
        // Pre-quantization artifacts carry no calibration table;
        // re-derive one from the baseline so int8 serving still gets
        // static activation scales.
        let calibration = self.calibration.or_else(|| {
            crate::pipeline::derive_calibration(&gnn, &self.norm, self.baseline.as_ref())
        });
        Ok(TargetModel {
            target: self.target,
            max_value: self.max_value,
            fit,
            norm: self.norm,
            baseline: self.baseline,
            model: gnn,
            precision,
            calibration,
            compiled: std::sync::OnceLock::new(),
        })
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns [`LoadModelError`] on malformed JSON.
    pub fn from_json(json: &str) -> Result<Self, LoadModelError> {
        serde_json::from_str(json).map_err(|e| LoadModelError {
            message: e.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureNorm;
    use crate::pipeline::{FitConfig, PreparedCircuit};
    use paragraph_gnn::GnnKind;
    use paragraph_layout::LayoutConfig;
    use paragraph_netlist::parse_spice;

    fn trained() -> (TargetModel, PreparedCircuit) {
        let c = parse_spice("mp o i vdd vdd pch nf=2\nmn o i vss vss nch\n.end\n")
            .unwrap()
            .flatten()
            .unwrap();
        let pc = PreparedCircuit::new("t", c, &LayoutConfig::default());
        let mut fit = FitConfig::quick(GnnKind::ParaGraph);
        fit.epochs = 3;
        fit.embed_dim = 8;
        fit.layers = 2;
        let (model, _) = TargetModel::train(
            std::slice::from_ref(&pc),
            Target::Cap,
            None,
            fit,
            &FeatureNorm::identity(),
        );
        (model, pc)
    }

    #[test]
    fn roundtrip_preserves_predictions() {
        let (model, pc) = trained();
        let before = model.predict_graph(&pc.circuit, &pc.graph);
        let json = SavedModel::from_model(&model).to_json();
        let restored = SavedModel::from_json(&json).unwrap().into_model().unwrap();
        let after = restored.predict_graph(&pc.circuit, &pc.graph);
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            match (b, a) {
                (Some(b), Some(a)) => assert!((b - a).abs() <= b.abs() * 1e-5),
                (None, None) => {}
                other => panic!("mismatch: {other:?}"),
            }
        }
    }

    /// Baseline statistics captured at training time survive the JSON
    /// round trip exactly.
    #[test]
    fn baseline_stats_roundtrip() {
        let (model, _) = trained();
        let baseline = model
            .baseline
            .clone()
            .expect("training captures a baseline");
        assert!(baseline.labelled_nodes > 0);
        assert!(baseline.label_min.is_some() && baseline.label_max.is_some());
        let json = SavedModel::from_model(&model).to_json();
        let restored = SavedModel::from_json(&json).unwrap().into_model().unwrap();
        assert_eq!(restored.baseline.as_ref(), Some(&baseline));
    }

    /// Artifacts written before baseline capture existed — no
    /// `baseline` key at all — must still load, with `baseline = None`.
    #[test]
    fn old_artifact_without_baseline_loads() {
        let (model, pc) = trained();
        let json = SavedModel::from_model(&model).to_json();
        // Simulate a pre-baseline artifact by stripping the field from
        // the JSON text (not just nulling it).
        let mut value = serde_json::from_str::<serde_json::Value>(&json).unwrap();
        match &mut value {
            serde_json::Value::Object(fields) => {
                assert!(fields.remove("baseline").is_some(), "baseline key present");
            }
            other => panic!("expected object, got {other:?}"),
        }
        let stripped = serde_json::to_string(&value).unwrap();
        let restored = SavedModel::from_json(&stripped)
            .unwrap()
            .into_model()
            .unwrap();
        assert!(restored.baseline.is_none());
        // And it still predicts identically.
        assert_eq!(
            restored.predict_graph(&pc.circuit, &pc.graph),
            model.predict_graph(&pc.circuit, &pc.graph)
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        let (model, _) = trained();
        let mut saved = SavedModel::from_model(&model);
        saved.kind = "NotAModel".into();
        assert!(saved.into_model().is_err());
    }

    #[test]
    fn corrupted_json_rejected() {
        assert!(SavedModel::from_json("{not json").is_err());
    }

    /// A snapshot whose parameter shapes disagree with the circuit schema
    /// must fail with a clear error, not panic.
    #[test]
    fn schema_mismatched_shapes_rejected() {
        let (model, _) = trained();
        let mut saved = SavedModel::from_model(&model);
        let (_, rows, cols, data) = &mut saved.params[0];
        *rows += 1;
        data.extend(std::iter::repeat_n(0.0, *cols));
        let err = saved.into_model().expect_err("shape mismatch accepted");
        assert!(!err.to_string().is_empty());
    }

    /// A snapshot with renamed parameters (e.g. from a different edge
    /// schema) must also be rejected.
    #[test]
    fn schema_mismatched_names_rejected() {
        let (model, _) = trained();
        let mut saved = SavedModel::from_model(&model);
        saved.params[0].0 = "no_such_parameter".into();
        assert!(saved.into_model().is_err());
    }

    /// Dropping a parameter entirely is a schema mismatch too.
    #[test]
    fn schema_missing_param_rejected() {
        let (model, _) = trained();
        let mut saved = SavedModel::from_model(&model);
        saved.params.pop();
        assert!(saved.into_model().is_err());
    }
}
