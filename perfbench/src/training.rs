//! `train_step`: one thread steps a paper-dims ParaGraph CAP model with
//! `Trainer::step` over a seeded training split in epoch order — the
//! loop `paragraph_cli train` runs.

use std::time::Instant;

use paragraph::{circuit_schema, fit_norm, normalize_circuits, GnnKind, PreparedCircuit, Target};
use paragraph_circuitgen::{paper_dataset, DatasetConfig, Split};
use paragraph_gnn::{GnnModel, GraphTask, ModelConfig, TrainConfig, Trainer};
use paragraph_layout::LayoutConfig;
use paragraph_tensor::{Adam, Tape, Tensor};

use crate::stream::SplitMix64;
use crate::{alloc, cold_starts, replay, Run, RunCtx, Shape, Timed};

/// Dataset scale of the training split (18 chips of 9–160 blocks).
pub const TRAIN_SCALE: f64 = 0.5;
/// Adam learning rate (the paper's).
pub const LR: f32 = 0.01;
/// Steps replayed by hand (tape forward, backward, Adam) to check the
/// timed steps' losses bitwise.
const CHECKED_STEPS: usize = 3;

/// Training-set preparation from the seed: `paper_dataset` →
/// `PreparedCircuit::new` → `fit_norm` / normalise → one `GraphTask`
/// per training chip with CAP labels.
pub fn prepare_tasks(seed: u64) -> Vec<GraphTask> {
    let layout = LayoutConfig::default();
    let dataset_seed = SplitMix64::derive(seed, "train_step").next_u64();
    let mut train: Vec<PreparedCircuit> = paper_dataset(DatasetConfig {
        scale: TRAIN_SCALE,
        seed: dataset_seed,
    })
    .into_iter()
    .filter(|c| c.split == Split::Train)
    .map(|c| PreparedCircuit::new(c.name, c.circuit, &layout))
    .collect();
    let norm = fit_norm(&train);
    normalize_circuits(&mut train, &norm);
    train
        .iter()
        .filter_map(|pc| {
            let labels = pc.labels(Target::Cap, None);
            (!labels.is_empty()).then(|| {
                GraphTask::new(
                    pc.graph.graph.clone(),
                    labels.nodes.clone(),
                    Tensor::from_col(&labels.scaled),
                )
            })
        })
        .collect()
}

/// A freshly initialised ParaGraph CAP model with the paper's
/// hyper-parameters (F = 32, L = 5). Initialised from the fixed
/// fixture seed: step cost depends on activation sparsity, so only the
/// training split varies with the run seed.
pub fn paper_model() -> GnnModel {
    let seed = crate::fixtures::FIXTURE_SEED;
    let mut config = ModelConfig::new(GnnKind::ParaGraph);
    config.embed_dim = 32;
    config.layers = 5;
    config.fc_layers = Target::Cap.fc_layers();
    config.seed = seed;
    GnnModel::new(config, &circuit_schema())
}

/// The optimizer `Trainer::step` runs: constant learning rate.
pub fn trainer() -> Trainer {
    Trainer::new(TrainConfig {
        epochs: 1,
        lr: LR,
        lr_decay: 1.0,
        loss_target: None,
        graphs_per_batch: 1,
    })
}

/// One step decomposed into its public calls: tape forward + MSE,
/// backward + parameter gradients, Adam. Returns the loss and the
/// microseconds of the three parts.
pub fn manual_step(model: &mut GnnModel, adam: &mut Adam, task: &GraphTask) -> (f32, [f64; 3]) {
    let t = Instant::now();
    let mut tape = Tape::new();
    let pred = model.predict_nodes(&mut tape, &task.graph, &task.nodes);
    let target = tape.constant(task.labels.clone());
    let loss = tape.mse_loss(pred, target);
    let value = tape.value(loss).item();
    let forward = t.elapsed();
    let t = Instant::now();
    let grads = tape.backward(loss);
    let param_grads = grads.param_grads(&tape);
    let backward = t.elapsed();
    let t = Instant::now();
    adam.step(model.params_mut(), &param_grads);
    let step = t.elapsed();
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    (value, [us(forward), us(backward), us(step)])
}

/// `train_step`.
///
/// # Errors
///
/// When the training split is empty.
pub fn train_step(ctx: &RunCtx) -> Result<Run, String> {
    let plan = ctx.plan;
    let prepare = || Ok::<_, String>(prepare_tasks(ctx.seed));
    let mut run = Run {
        setup_s: cold_starts(plan.setup_reps.div_ceil(2), prepare)?,
        ..Run::default()
    };
    let tasks = prepare_tasks(ctx.seed);
    if tasks.is_empty() {
        return Err("the training split has no labelled chip".into());
    }
    // Whole epochs in every segment, so segments carry the same chips.
    let ops = plan.ops_in(tasks.len());
    let mut shape = Shape::default();
    for task in &tasks {
        shape.add(0, &task.graph, (ops / tasks.len()) as f64);
        // Plans are built lazily and cached per graph: build them now,
        // outside the timed phase.
        task.graph.plan();
    }
    run.shape = shape.per_op(ops);

    let init = paper_model();
    {
        // Warm the kernels and the allocator on a throwaway copy.
        let mut scratch = init.clone();
        let mut trainer = trainer();
        for task in tasks.iter().take(2) {
            trainer.step(&mut scratch, task);
        }
    }
    let mut model = init.clone();
    let mut trainer = trainer();
    let mut losses = Vec::with_capacity(ops);
    let mut done = Vec::with_capacity(ops);
    let allocs = alloc::allocations();
    let began = Instant::now();
    for op in 0..ops {
        let sent = Instant::now();
        losses.push(trainer.step(&mut model, &tasks[op % tasks.len()]));
        let now = Instant::now();
        done.push((
            now.duration_since(began).as_secs_f64(),
            now.duration_since(sent).as_secs_f64() * 1e3,
        ));
    }
    let wall_s = began.elapsed().as_secs_f64();
    run.timed = Timed::from_ops(done, wall_s, alloc::allocations() - allocs);
    run.setup_s
        .extend(cold_starts(plan.setup_reps / 2, prepare)?);

    // Checks: finite losses and parameters, and the first steps equal
    // a hand-run tape forward / backward / Adam bit for bit.
    let bad_losses = losses.iter().filter(|l| !l.is_finite()).count();
    if bad_losses > 0 {
        run.timed.failed += bad_losses;
        run.problems
            .push(format!("{bad_losses} steps returned a non-finite loss"));
    }
    if model
        .params()
        .export()
        .iter()
        .any(|(_, _, _, data)| data.iter().any(|v| !v.is_finite()))
    {
        run.problems
            .push("non-finite parameters after training".into());
    }
    let mut reference = init.clone();
    let mut adam = Adam::new(LR);
    for (op, &loss) in losses.iter().enumerate().take(CHECKED_STEPS) {
        let (want, _) = manual_step(&mut reference, &mut adam, &tasks[op % tasks.len()]);
        run.checked += 1;
        if want.to_bits() != loss.to_bits() {
            run.timed.failed += 1;
            run.problems.push(format!(
                "step {op}: loss {loss} but the hand-run step gives {want}"
            ));
        }
    }

    if ctx.trace {
        run.layers = replay::train(ctx, &tasks, &init, &mut run.problems);
    }
    Ok(run)
}
