//! Hyper-parameter sensitivity sweep (extension beyond the paper).
//!
//! Greedily explores the knobs the paper leaves unreported — the
//! distillation step size and subset size, the DDR weight, the UDL
//! task-loss scaling, and local learning rates — printing the NDCG@20 of
//! full HeteFedRec next to the strongest baseline for each setting.
//!
//! ```text
//! cargo run --release -p hf_bench --bin sweep -- --scale small --dataset ml --model ncf
//! ```

use hetefedrec_core::{run_experiment, Ablation, Strategy, TrainConfig};
use hf_bench::{fmt5, make_split, CliOptions, SnapshotRow};
use hf_dataset::DatasetProfile;
use std::cell::RefCell;

fn main() {
    let opts = CliOptions::parse(&[DatasetProfile::MovieLens]);
    let model = opts.models[0];
    let profile = opts.datasets[0];
    let split = make_split(profile, opts.scale, opts.seed);
    let base = hf_bench::make_config_with(&opts, model, profile);

    opts.banner(&format!(
        "Hyper-parameter sweep on {} / {}",
        model.name(),
        profile.name()
    ));

    // RefCell so the shared `run` helper stays callable from every sweep
    // loop below (a plain `mut` capture would make `run` itself `FnMut`).
    let snapshot: RefCell<Vec<SnapshotRow>> = RefCell::new(Vec::new());
    let run = |label: &str, cfg: &TrainConfig, strategy: Strategy| {
        let r = run_experiment(cfg, strategy, &split);
        println!(
            "{label:<42} recall {}  ndcg {}",
            fmt5(r.final_eval.overall.recall),
            fmt5(r.final_eval.overall.ndcg)
        );
        snapshot.borrow_mut().push(
            SnapshotRow::new()
                .label("model", model.name())
                .label("dataset", profile.name())
                .label("setting", label)
                .value("recall", r.final_eval.overall.recall)
                .value("ndcg", r.final_eval.overall.ndcg),
        );
    };

    // Reference points.
    run("baseline: All Small", &base, Strategy::AllSmall);
    run(
        "baseline: Directly Aggregate",
        &base,
        Strategy::DirectlyAggregate,
    );
    println!();

    // UDL auxiliary-task weighting.
    for aux in [1.0, 0.5, 0.3, 0.1] {
        let mut cfg = base.clone();
        cfg.udl_aux_weight = aux;
        run(
            &format!("UDL only (udl_aux={aux})"),
            &cfg,
            Strategy::HeteFedRec(Ablation::NO_RESKD_DDR),
        );
    }
    println!();

    // DDR weight.
    for alpha in [0.25, 0.5, 1.0, 2.0] {
        let mut cfg = base.clone();
        cfg.alpha = alpha;
        run(
            &format!("UDL+DDR (alpha={alpha})"),
            &cfg,
            Strategy::HeteFedRec(Ablation::NO_RESKD),
        );
    }
    println!();

    // Distillation step size and subset.
    for kd_lr in [0.005, 0.01, 0.05] {
        for kd_items in [32, 128] {
            let mut cfg = base.clone();
            cfg.kd.lr = kd_lr;
            cfg.kd.items = kd_items;
            run(
                &format!("full (kd_lr={kd_lr}, kd_items={kd_items})"),
                &cfg,
                Strategy::HeteFedRec(Ablation::FULL),
            );
        }
    }
    println!();

    // Local learning rates.
    for local_lr in [0.02, 0.05, 0.1] {
        let mut cfg = base.clone();
        cfg.local_lr = local_lr;
        run(
            &format!("full (local_lr={local_lr})"),
            &cfg,
            Strategy::HeteFedRec(Ablation::FULL),
        );
    }
    opts.emit_json(&snapshot.into_inner());
}
