//! **Fig. 8** — NDCG@20 of HeteFedRec as the DDR weight α sweeps
//! 0.5 → 2.0 on ML.
//!
//! ```text
//! cargo run --release -p hf_bench --bin fig8_alpha -- --scale small
//! ```

use hetefedrec_core::{run_experiment, Ablation, Strategy};
use hf_bench::{fmt5, run_grid};
use hf_dataset::DatasetProfile;

fn main() {
    let alphas = [0.5f32, 0.75, 1.0, 1.5, 2.0];
    run_grid(
        "Fig. 8: NDCG@20 vs DDR weight alpha",
        &[DatasetProfile::MovieLens],
        |c, snapshot| {
            let mut points = Vec::new();
            for &alpha in &alphas {
                let mut cfg = c.cfg.clone();
                cfg.alpha = alpha;
                let r = run_experiment(&cfg, Strategy::HeteFedRec(Ablation::FULL), &c.split);
                points.push((alpha, r.final_eval.overall.ndcg));
            }
            let peak = points
                .iter()
                .cloned()
                .fold(f64::MIN, |m, (_, v)| m.max(v))
                .max(1e-12);
            for (alpha, ndcg) in &points {
                let bar = ((ndcg / peak) * 40.0).round() as usize;
                println!("alpha {alpha:<5} {} |{}", fmt5(*ndcg), "#".repeat(bar));
                snapshot.push(c.row().value("alpha", *alpha as f64).value("ndcg", *ndcg));
            }
        },
    );
}
