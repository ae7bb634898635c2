//! Ensemble modelling for net parasitic capacitance (paper §IV,
//! Algorithm 2).
//!
//! A single model trained over the full 0.01 fF – 10 pF range treats small
//! capacitances as noise; the paper instead trains several models with
//! increasing maximum prediction values (`max_v` = 1 fF, 10 fF, 100 fF,
//! 10 pF) and, per net, keeps the highest-range model whose prediction
//! exceeds the next-lower range boundary.

use std::time::Instant;

use paragraph_netlist::Circuit;

use crate::graphbuild::{build_graph, CircuitGraph};
use crate::pipeline::{
    elapsed_us, map_circuits, CircuitPredictions, PredictProfile, PreparedCircuit, TargetModel,
};
use crate::targets::Target;

/// The paper's `max_v` ladder: 1 fF, 10 fF, 100 fF, 10 pF.
pub const PAPER_MAX_V: [f64; 4] = [1e-15, 10e-15, 100e-15, 10e-12];

/// Error from assembling a [`CapEnsemble`] out of unsuitable members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnsembleError {
    message: String,
}

impl std::fmt::Display for EnsembleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for EnsembleError {}

/// An ensemble of capacitance models with increasing `max_v`
/// (Algorithm 2).
#[derive(Debug, Clone)]
pub struct CapEnsemble {
    /// Member models, sorted by ascending `max_v`.
    models: Vec<TargetModel>,
}

impl CapEnsemble {
    /// Builds an ensemble from capacitance models; sorts members by
    /// `max_v` ascending.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two models are given, any model is not a CAP
    /// model, any lacks a `max_value`, or two share the same `max_value`.
    pub fn new(models: Vec<TargetModel>) -> Self {
        Self::try_new(models).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Non-panicking [`CapEnsemble::new`], for assembling ensembles from
    /// untrusted inputs (e.g. a directory of model snapshots).
    ///
    /// # Errors
    ///
    /// Returns [`EnsembleError`] if fewer than two models are given, any
    /// model is not a CAP model, any lacks a `max_value`, or two members
    /// share the same `max_value` (which would make Algorithm 2's range
    /// boundaries ambiguous).
    pub fn try_new(mut models: Vec<TargetModel>) -> Result<Self, EnsembleError> {
        let err = |message: String| EnsembleError { message };
        if models.len() < 2 {
            return Err(err(format!(
                "an ensemble needs at least two models, got {}",
                models.len()
            )));
        }
        for m in &models {
            if m.target != Target::Cap {
                return Err(err(format!(
                    "ensemble members must be CAP models, found {}",
                    m.target
                )));
            }
            if m.max_value.is_none() {
                return Err(err("ensemble members must have max_v set".into()));
            }
        }
        models.sort_by(|a, b| {
            a.max_value
                .partial_cmp(&b.max_value)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for pair in models.windows(2) {
            if pair[0].max_value == pair[1].max_value {
                return Err(err(format!(
                    "duplicate ensemble range max_v = {:e}",
                    pair[0].max_value.expect("checked above")
                )));
            }
        }
        Ok(Self { models })
    }

    /// Trains the full Algorithm-2 ensemble — one CAP model per entry of
    /// `max_vs` — with all members training **concurrently** on the
    /// shared worker pool (via [`crate::train_models`]). `fit.seed` is
    /// XOR-perturbed per member exactly like the sequential recipe the
    /// bench binaries use, so a parallel ensemble matches a sequential
    /// one bit for bit.
    ///
    /// # Panics
    ///
    /// Panics like [`CapEnsemble::new`] if `max_vs` has fewer than two
    /// entries or duplicates.
    pub fn train(
        train: &[crate::PreparedCircuit],
        max_vs: &[f64],
        fit: &crate::FitConfig,
        norm: &crate::FeatureNorm,
    ) -> Self {
        let specs: Vec<crate::TrainSpec> = max_vs
            .iter()
            .enumerate()
            .map(|(i, &max_v)| {
                let mut member_fit = fit.clone();
                member_fit.seed ^= (i as u64 + 1) << 32;
                crate::TrainSpec {
                    target: Target::Cap,
                    max_value: Some(max_v),
                    fit: member_fit,
                }
            })
            .collect();
        let models = crate::train_models(train, &specs, norm)
            .into_iter()
            .map(|(model, _)| model)
            .collect();
        Self::new(models)
    }

    /// Member models, ascending `max_v`.
    pub fn members(&self) -> &[TargetModel] {
        &self.models
    }

    /// Algorithm 2 on a single net's per-model predictions (ascending
    /// `max_v` order): start from the smallest-range model and move up
    /// whenever a higher-range model predicts beyond the previous range.
    pub fn select(&self, per_model: &[f64]) -> f64 {
        per_model[self.select_index(per_model)]
    }

    /// Index of the member [`CapEnsemble::select`] picks — the same
    /// Algorithm-2 walk, exposed so observers can attribute a
    /// prediction to its ensemble member.
    pub fn select_index(&self, per_model: &[f64]) -> usize {
        assert_eq!(
            per_model.len(),
            self.models.len(),
            "one prediction per member"
        );
        let mut picked = 0;
        for (i, &pred) in per_model.iter().enumerate().skip(1) {
            let prev_max = self.models[i - 1].max_value.expect("max_v set");
            if pred > prev_max {
                picked = i;
            }
        }
        picked
    }

    /// Algorithm 2 over one circuit's per-member predictions
    /// (`per_member[m][net]`, ascending `max_v`): each net's selected
    /// prediction (`None` where a member has none), and how many nets
    /// each member's prediction won.
    fn select_nets(&self, per_member: &[&[Option<f64>]]) -> (Vec<Option<f64>>, Vec<u64>) {
        let nets = per_member.first().map_or(0, |preds| preds.len());
        let mut selected = vec![0u64; self.models.len()];
        let mut row = Vec::with_capacity(self.models.len());
        let preds = (0..nets)
            .map(|net| {
                row.clear();
                for preds in per_member {
                    row.push(preds[net]?);
                }
                let i = self.select_index(&row);
                selected[i] += 1;
                Some(row[i])
            })
            .collect();
        (preds, selected)
    }

    /// Predicts every net's capacitance of a prepared circuit (indexed by
    /// net id, `None` on rails), applying Algorithm 2 per net.
    pub fn predict_graph(&self, circuit: &Circuit, cg: &CircuitGraph) -> Vec<Option<f64>> {
        let per_model: Vec<Vec<Option<f64>>> = self
            .models
            .iter()
            .map(|m| m.predict_graph(circuit, cg))
            .collect();
        let per_member: Vec<&[Option<f64>]> = per_model.iter().map(Vec::as_slice).collect();
        self.select_nets(&per_member).0
    }

    /// Convenience for a [`PreparedCircuit`].
    pub fn predict(&self, pc: &PreparedCircuit) -> Vec<Option<f64>> {
        self.predict_graph(&pc.circuit, &pc.graph)
    }

    /// Predicts every net's capacitance of a fresh schematic: the single
    /// result of [`CapEnsemble::predict_circuits`] on `[circuit]`.
    pub fn predict_circuit(&self, circuit: &Circuit) -> Vec<Option<f64>> {
        let (mut preds, _, _) = self.predict_circuits(&[circuit]);
        preds.pop().expect("one prediction per circuit")
    }

    /// Predicts every net's capacitance for several fresh schematics.
    /// Each circuit runs its lone path as one step on the
    /// [`paragraph_runtime::global`] pool, so every answer is exactly
    /// its lone answer.
    ///
    /// Returns the predictions (indexed by net id, `None` on rails), the
    /// stage timings (per stage, the longest any one circuit spent in
    /// it), and per circuit how many nets each member won (ascending
    /// `max_v` order).
    pub fn predict_circuits(
        &self,
        circuits: &[&Circuit],
    ) -> (CircuitPredictions, PredictProfile, Vec<Vec<u64>>) {
        let (steps, profile) = map_circuits(circuits, |c| self.predict_one(c));
        let (preds, selected) = steps.into_iter().unzip();
        (preds, profile, selected)
    }

    /// One circuit's lone path. Its graph and message plan are built
    /// once; before each member predicts, the features are renormalised
    /// from the raw rows with that member's own `FeatureNorm` (members
    /// may carry different feature normalisations), and Algorithm 2 then
    /// selects per net: its predictions and how many nets each member
    /// won. The profile sums the graph build with every member's
    /// renormalisation, and every member's forward pass.
    fn predict_one(&self, circuit: &Circuit) -> ((Vec<Option<f64>>, Vec<u64>), PredictProfile) {
        let started = Instant::now();
        let mut cg = build_graph(circuit);
        let mut profile = PredictProfile {
            graph_build_us: elapsed_us(started),
            inference_us: 0.0,
        };
        let per_model: Vec<Vec<Option<f64>>> = self
            .models
            .iter()
            .map(|m| {
                let started = Instant::now();
                cg.normalize(&m.norm);
                profile.graph_build_us += elapsed_us(started);
                let started = Instant::now();
                let preds = m.predict_graph(circuit, &cg);
                profile.inference_us += elapsed_us(started);
                preds
            })
            .collect();
        let per_member: Vec<&[Option<f64>]> = per_model.iter().map(Vec::as_slice).collect();
        (self.select_nets(&per_member), profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureNorm;
    use crate::pipeline::{FitConfig, GnnKind};
    use paragraph_layout::LayoutConfig;
    use paragraph_netlist::parse_spice;

    fn tiny_models(max_vs: &[f64]) -> Vec<TargetModel> {
        let c = parse_spice("mp o i vdd vdd pch\nmn o i vss vss nch\n.end\n")
            .unwrap()
            .flatten()
            .unwrap();
        let prepared = vec![PreparedCircuit::new("t", c, &LayoutConfig::default())];
        max_vs
            .iter()
            .map(|&mv| {
                let mut fit = FitConfig::quick(GnnKind::Gcn);
                fit.epochs = 2;
                fit.embed_dim = 4;
                fit.layers = 1;
                TargetModel::train(
                    &prepared,
                    Target::Cap,
                    Some(mv),
                    fit,
                    &FeatureNorm::identity(),
                )
                .0
            })
            .collect()
    }

    #[test]
    fn members_sorted_ascending() {
        let models = tiny_models(&[10e-15, 1e-15, 100e-15]);
        let ens = CapEnsemble::new(models);
        let maxes: Vec<f64> = ens.members().iter().map(|m| m.max_value.unwrap()).collect();
        assert_eq!(maxes, vec![1e-15, 10e-15, 100e-15]);
    }

    /// The paper's worked example: if the 10 fF model predicts 2.5 fF
    /// (above the 1 fF model's max), it is preferred over the 1 fF model.
    #[test]
    fn algorithm2_paper_example() {
        let ens = CapEnsemble::new(tiny_models(&[1e-15, 10e-15]));
        let picked = ens.select(&[0.4e-15, 2.5e-15]);
        assert_eq!(picked, 2.5e-15);
        // But if the 10 fF model predicts below 1 fF, keep the 1 fF model.
        let picked = ens.select(&[0.4e-15, 0.7e-15]);
        assert_eq!(picked, 0.4e-15);
    }

    #[test]
    fn selection_is_a_member_prediction() {
        let ens = CapEnsemble::new(tiny_models(&[1e-15, 10e-15, 100e-15]));
        for preds in [
            [0.5e-15, 5e-15, 50e-15],
            [0.5e-15, 0.5e-15, 0.5e-15],
            [2e-15, 0.2e-15, 500e-15],
        ] {
            let p = ens.select(&preds);
            assert!(preds.contains(&p));
        }
    }

    #[test]
    fn higher_models_win_only_beyond_boundary() {
        let ens = CapEnsemble::new(tiny_models(&[1e-15, 10e-15, 100e-15]));
        // Third model predicts 50 fF > 10 fF boundary: wins.
        assert_eq!(ens.select(&[0.1e-15, 0.2e-15, 50e-15]), 50e-15);
        // Third model predicts 5 fF < 10 fF boundary, second predicts
        // 3 fF > 1 fF: second wins.
        assert_eq!(ens.select(&[0.1e-15, 3e-15, 5e-15]), 3e-15);
    }

    #[test]
    #[should_panic(expected = "at least two models")]
    fn rejects_single_model() {
        let _ = CapEnsemble::new(tiny_models(&[1e-15]));
    }

    #[test]
    fn try_new_reports_bad_members() {
        assert!(CapEnsemble::try_new(tiny_models(&[1e-15])).is_err());
        // Duplicate ranges make Algorithm 2's boundaries ambiguous.
        let err = CapEnsemble::try_new(tiny_models(&[1e-15, 1e-15])).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
        // A member without max_v is rejected.
        let mut models = tiny_models(&[1e-15, 10e-15]);
        models[0].max_value = None;
        assert!(CapEnsemble::try_new(models).is_err());
    }

    /// Saving every member and reloading them must reproduce the
    /// ensemble's predictions bit-for-bit (members round-trip through
    /// JSON text).
    #[test]
    fn persistence_roundtrip_preserves_ensemble_predictions() {
        use crate::persist::SavedModel;
        let ens = CapEnsemble::new(tiny_models(&[1e-15, 10e-15, 100e-15]));
        let c = parse_spice("mp o i vdd vdd pch\nmn o i vss vss nch\ncl o vss 2f\n.end\n")
            .unwrap()
            .flatten()
            .unwrap();
        let before = ens.predict_circuit(&c);
        let reloaded: Vec<TargetModel> = ens
            .members()
            .iter()
            .map(|m| {
                let json = SavedModel::from_model(m).to_json();
                SavedModel::from_json(&json).unwrap().into_model().unwrap()
            })
            .collect();
        let restored = CapEnsemble::try_new(reloaded).unwrap();
        let after = restored.predict_circuit(&c);
        assert_eq!(before, after, "reloaded ensemble drifted");
        assert!(
            before.iter().any(|p| p.is_some_and(|v| v > 0.0)),
            "expected at least one positive net prediction"
        );
    }

    /// Several circuits fanned out over the pool must each equal the
    /// lone path exactly — same graphs, same accumulation order, same
    /// floats.
    #[test]
    fn batched_prediction_matches_sequential() {
        let ens = CapEnsemble::new(tiny_models(&[1e-15, 10e-15, 100e-15]));
        let sources = [
            "mp o i vdd vdd pch\nmn o i vss vss nch\n.end\n",
            "mp1 x a vdd vdd pch nf=2\nmn1 x a vss vss nch\nr1 x y 5k\n.end\n",
            "mn1 d g s vss nch nfin=4\nc1 d vss 10f\n.end\n",
        ];
        let circuits: Vec<_> = sources
            .iter()
            .map(|s| parse_spice(s).unwrap().flatten().unwrap())
            .collect();
        let refs: Vec<&paragraph_netlist::Circuit> = circuits.iter().collect();
        let (batched, _, _) = ens.predict_circuits(&refs);
        assert_eq!(batched.len(), circuits.len());
        for (c, got) in circuits.iter().zip(&batched) {
            let sequential = ens.predict_circuit(c);
            assert_eq!(&sequential, got, "batched ensemble drifted");
        }
    }

    /// Batched or lone, `predict_circuits` returns the plain
    /// predictions together with the stage timings and, per circuit,
    /// member counts that cover exactly the nets predicted.
    #[test]
    fn predict_circuits_times_and_attributes_members() {
        let ens = CapEnsemble::new(tiny_models(&[1e-15, 10e-15, 100e-15]));
        let circuits: Vec<_> = [
            "mp o i vdd vdd pch nf=2\nmn o i vss vss nch\nr1 o f 10k\n.end\n",
            "mn1 d g s vss nch nfin=4\nc1 d vss 10f\n.end\n",
        ]
        .iter()
        .map(|s| parse_spice(s).unwrap().flatten().unwrap())
        .collect();
        for width in [1, 2] {
            let refs: Vec<&paragraph_netlist::Circuit> = circuits[..width].iter().collect();
            let (preds, profile, selected) = ens.predict_circuits(&refs);
            assert!(profile.graph_build_us > 0.0 && profile.inference_us > 0.0);
            assert_eq!(selected.len(), width);
            for ((c, got), counts) in circuits.iter().zip(&preds).zip(&selected) {
                let plain = ens.predict_circuit(c);
                assert_eq!(&plain, got, "timing changed predictions");
                let nets_predicted = plain.iter().flatten().count() as u64;
                assert!(nets_predicted > 0);
                assert_eq!(counts.iter().sum::<u64>(), nets_predicted);
                assert_eq!(counts.len(), ens.members().len());
            }
        }
    }

    #[test]
    fn predict_covers_signal_nets() {
        let ens = CapEnsemble::new(tiny_models(&[1e-15, 10e-15]));
        let c = parse_spice("mp o i vdd vdd pch\nmn o i vss vss nch\n.end\n")
            .unwrap()
            .flatten()
            .unwrap();
        let pc = PreparedCircuit::new("t", c, &LayoutConfig::default());
        let preds = ens.predict(&pc);
        let vdd = pc.circuit.find_net("vdd").unwrap();
        assert!(preds[vdd.0 as usize].is_none());
        let o = pc.circuit.find_net("o").unwrap();
        assert!(preds[o.0 as usize].unwrap() > 0.0);
    }
}
