//! Training is pinned bit for bit: every kind (and each ParaGraph
//! variant the layer code branches on) takes a few `Trainer::step`s on a
//! small fixed `paper_dataset` split, and an FNV-1a digest of every
//! loss's bits and every trained parameter's bits must equal a pinned
//! constant. A kernel or layer change that claims to keep the
//! arithmetic has to keep these digests.

use paragraph::{circuit_schema, fit_norm, normalize_circuits, GnnKind, PreparedCircuit, Target};
use paragraph_circuitgen::{paper_dataset, DatasetConfig, Split};
use paragraph_gnn::{GnnModel, GraphTask, ModelConfig, TrainConfig, Trainer};
use paragraph_layout::LayoutConfig;
use paragraph_tensor::Tensor;

/// Training chips used, and passes over them.
const CHIPS: usize = 4;
const EPOCHS: usize = 2;

/// One `GraphTask` (CAP labels) per chip of a small fixed training split.
fn tasks() -> Vec<GraphTask> {
    let layout = LayoutConfig::default();
    let mut train: Vec<PreparedCircuit> = paper_dataset(DatasetConfig {
        scale: 0.25,
        seed: 7,
    })
    .into_iter()
    .filter(|c| c.split == Split::Train)
    .take(CHIPS)
    .map(|c| PreparedCircuit::new(c.name, c.circuit, &layout))
    .collect();
    let norm = fit_norm(&train);
    normalize_circuits(&mut train, &norm);
    train
        .iter()
        .map(|pc| {
            let labels = pc.labels(Target::Cap, None);
            GraphTask::new(
                pc.graph.graph.clone(),
                labels.nodes.clone(),
                Tensor::from_col(&labels.scaled),
            )
        })
        .collect()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Trains `config` for `EPOCHS` passes over `tasks` and digests every
/// step's loss bits, then every parameter's shape and bits.
fn trained_digest(config: ModelConfig, tasks: &[GraphTask]) -> u64 {
    let mut model = GnnModel::new(config, &circuit_schema());
    let mut trainer = Trainer::new(TrainConfig {
        epochs: 1,
        lr: 0.01,
        lr_decay: 1.0,
        loss_target: None,
        graphs_per_batch: 1,
    });
    let mut digest = Fnv::new();
    for _ in 0..EPOCHS {
        for task in tasks {
            let loss = trainer.step(&mut model, task);
            assert!(loss.is_finite());
            digest.u32(loss.to_bits());
        }
    }
    for (_, rows, cols, data) in model.params().export() {
        digest.u32(rows as u32);
        digest.u32(cols as u32);
        for v in data {
            digest.u32(v.to_bits());
        }
    }
    digest.0
}

fn small(kind: GnnKind) -> ModelConfig {
    let mut config = ModelConfig::new(kind);
    config.embed_dim = 8;
    config.layers = 2;
    config.fc_layers = 2;
    config.seed = 3;
    config
}

#[test]
fn trained_bits_are_pinned() {
    let tasks = tasks();
    assert_eq!(tasks.len(), CHIPS);
    let paragraph = |edit: fn(&mut ModelConfig)| {
        let mut config = small(GnnKind::ParaGraph);
        edit(&mut config);
        config
    };
    let cases: [(&str, ModelConfig, u64); 9] = [
        ("GCN", small(GnnKind::Gcn), 0x0ed4_1c2e_ad71_bc75),
        (
            "GraphSage",
            small(GnnKind::GraphSage),
            0xa67f_878f_73cb_b7cd,
        ),
        ("RGCN", small(GnnKind::Rgcn), 0x6d08_0e56_9c9c_839c),
        ("GAT", small(GnnKind::Gat), 0xbe9c_f9cf_537e_b658),
        (
            "ParaGraph",
            small(GnnKind::ParaGraph),
            0x9a9a_f56d_21db_78a0,
        ),
        (
            "ParaGraph 2 heads",
            paragraph(|c| c.attention_heads = 2),
            0x6930_7eb2_767c_4fd6,
        ),
        (
            "ParaGraph ablate_attention",
            paragraph(|c| c.ablate_attention = true),
            0x83eb_7837_a138_d9db,
        ),
        (
            "ParaGraph ablate_edge_types",
            paragraph(|c| c.ablate_edge_types = true),
            0xf062_4805_cddc_ad44,
        ),
        // The paper's width: four 8-lane blocks per GEMM row and
        // 32-wide score dots, vector paths that F = 8 never reaches.
        (
            "ParaGraph F = 32",
            paragraph(|c| c.embed_dim = 32),
            0x210c_03c9_1fc0_0341,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, config, want) in cases {
        let got = trained_digest(config, &tasks);
        if got != want {
            wrong.push(format!("{name}: {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "trained bits moved:\n{}",
        wrong.join("\n")
    );
}
