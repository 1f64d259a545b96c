//! Full-ranking evaluation across strategies and tiers.
//!
//! Each user is scored with the model it would actually serve: its model
//! tier's item table and predictor (or its private standalone copies),
//! its private user embedding, and — for Fed-LightGCN — its local-graph
//! propagation. Training positives are masked; Recall@20 / NDCG@20 are
//! computed against the held-out test items (§V-B). The per-*data*-group
//! breakdown reproduces Fig. 6.
//!
//! Scoring goes through [`hf_models::scoring::SplitNcf`] — the same
//! scorer the serving layer (`hf_serve`) batches over item-table panels —
//! so offline evaluation and online serving produce identical rankings by
//! construction. [`score_user`] is the shared per-user entry point.

use crate::client::{item_row, UserState};
use crate::config::TrainConfig;
use crate::server::ServerState;
use crate::strategy::Strategy;
use hf_dataset::{ClientGroups, SplitDataset, Tier};
use hf_metrics::eval::{EvalResult, Evaluator, GroupedEval, UserEval};
use hf_models::scoring::{propagate_lightgcn, SplitNcf};
use hf_models::ModelKind;

/// Aggregated evaluation output: overall plus per-data-group (Fig. 6).
#[derive(Clone, Debug, Default)]
pub struct EvalOutput {
    /// Mean metrics over all users with test data (Table II row).
    pub overall: EvalResult,
    /// Mean metrics per data group `[Us, Um, Ul]` (Fig. 6 bars).
    pub per_group: [EvalResult; 3],
}

impl hf_tensor::ser::ToJson for EvalOutput {
    fn write_json(&self, out: &mut String) {
        hf_tensor::ser::obj(out, |o| {
            o.field("overall", &self.overall)
                .field("per_group", &self.per_group);
        });
    }
}

impl EvalOutput {
    /// Restores a checkpointed evaluation.
    pub fn from_json(v: &hf_tensor::ser::JsonValue<'_>) -> Result<Self, hf_tensor::ser::JsonError> {
        let groups = v.get("per_group")?.as_arr()?;
        if groups.len() != 3 {
            return Err(hf_tensor::ser::JsonError::msg(
                "per_group must have 3 entries",
            ));
        }
        Ok(Self {
            overall: EvalResult::from_json(v.get("overall")?)?,
            per_group: [
                EvalResult::from_json(&groups[0])?,
                EvalResult::from_json(&groups[1])?,
                EvalResult::from_json(&groups[2])?,
            ],
        })
    }

    /// Paper-style one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "Recall {:.5}  NDCG {:.5} | Us {:.5}  Um {:.5}  Ul {:.5}",
            self.overall.recall,
            self.overall.ndcg,
            self.per_group[0].ndcg,
            self.per_group[1].ndcg,
            self.per_group[2].ndcg,
        )
    }
}

/// Scores every item for one user through the shared split-layer scorer.
///
/// This is the single scoring path for both offline evaluation (below)
/// and online serving (`hf_serve` reproduces it bit-for-bit with panel
/// batching); any change to its semantics changes what the system serves.
pub fn score_user(
    cfg: &TrainConfig,
    strategy: Strategy,
    split: &SplitDataset,
    server: &ServerState,
    state: &UserState,
    user_id: usize,
    model_tier: Tier,
) -> Vec<f32> {
    let user_split = split.user(user_id);
    let dim = cfg.dims.dim(model_tier);
    let num_items = split.num_items();
    let is_standalone = matches!(strategy, Strategy::Standalone);

    let theta = if is_standalone {
        &state.standalone().expect("standalone state").theta
    } else {
        server.theta(model_tier)
    };
    let scorer = SplitNcf::from_ffn(dim, theta);
    let mut ws = scorer.workspace();

    let table = server.table(model_tier);
    let overlay = state.standalone().map(|s| &s.rows);
    let row_of = |item: usize| item_row(table, overlay, item as u32, dim);

    // Fed-LightGCN scores with the propagated user representation.
    let user_repr: Vec<f32> = match cfg.model {
        ModelKind::Ncf => state.emb().to_vec(),
        ModelKind::LightGcn => propagate_lightgcn(
            state.emb(),
            user_split.train.len(),
            user_split.train.iter().map(|&item| row_of(item as usize)),
        ),
    };

    let user_half = scorer.user_half(&user_repr);
    let mut item_half = vec![0.0f32; scorer.hidden_width()];
    let mut scores = Vec::with_capacity(num_items);
    for item in 0..num_items {
        scorer.item_half_into(row_of(item), &mut item_half);
        scores.push(scorer.finish(&user_half, &item_half, &mut ws));
    }
    scores
}

/// Scores every item for one user and evaluates the ranking.
///
/// Exposed for tests and tools; [`evaluate`] is the batch entry point.
pub fn evaluate_user(
    cfg: &TrainConfig,
    strategy: Strategy,
    split: &SplitDataset,
    server: &ServerState,
    state: &UserState,
    user_id: usize,
    model_tier: Tier,
) -> Option<UserEval> {
    let user_split = split.user(user_id);
    if user_split.test.is_empty() {
        return None;
    }
    let scores = score_user(cfg, strategy, split, server, state, user_id, model_tier);
    let evaluator = Evaluator { k: cfg.eval_k };
    evaluator.evaluate_user(&scores, &user_split.train, &user_split.test)
}

/// Evaluates the whole population in parallel.
///
/// `model_groups` assigns serving tiers; `data_groups` assigns the
/// Fig. 6 reporting buckets (always the data-size division, even for
/// homogeneous strategies).
pub fn evaluate(
    cfg: &TrainConfig,
    strategy: Strategy,
    split: &SplitDataset,
    server: &ServerState,
    users: &[UserState],
    model_groups: &ClientGroups,
    data_groups: &ClientGroups,
) -> EvalOutput {
    let ids: Vec<usize> = (0..split.num_users()).collect();
    let evals = hf_tensor::parallel::parallel_map(&ids, cfg.threads, |&u| {
        evaluate_user(
            cfg,
            strategy,
            split,
            server,
            &users[u],
            u,
            model_groups.tier(u),
        )
    });

    let mut grouped = GroupedEval::new(3);
    for (u, eval) in evals.into_iter().enumerate() {
        if let Some(e) = eval {
            grouped.push(data_groups.tier(u).index(), e);
        }
    }
    let per = grouped.per_group();
    EvalOutput {
        overall: grouped.overall(),
        per_group: [per[0], per[1], per[2]],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Ablation;
    use hf_dataset::{DivisionRatio, SyntheticConfig};

    fn setup() -> (
        TrainConfig,
        SplitDataset,
        ServerState,
        Vec<UserState>,
        ClientGroups,
    ) {
        let cfg = TrainConfig::test_default(ModelKind::Ncf);
        let data = SyntheticConfig::tiny().generate(5);
        let split = SplitDataset::paper_split(&data, 5);
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let server = ServerState::new(split.num_items(), &cfg, strategy);
        let groups = strategy.assign_tiers(&split, DivisionRatio::PAPER_DEFAULT);
        let users: Vec<UserState> = (0..split.num_users())
            .map(|u| UserState::init(u, cfg.dims.dim(groups.tier(u)), &cfg, None))
            .collect();
        (cfg, split, server, users, groups)
    }

    #[test]
    fn evaluation_covers_users_with_test_data() {
        let (cfg, split, server, users, groups) = setup();
        let out = evaluate(
            &cfg,
            Strategy::HeteFedRec(Ablation::FULL),
            &split,
            &server,
            &users,
            &groups,
            &groups,
        );
        let with_test = split
            .iter_users()
            .filter(|(_, s)| !s.test.is_empty())
            .count();
        assert_eq!(out.overall.users, with_test);
        let group_sum: usize = out.per_group.iter().map(|g| g.users).sum();
        assert_eq!(group_sum, with_test);
    }

    #[test]
    fn metrics_are_bounded() {
        let (cfg, split, server, users, groups) = setup();
        let out = evaluate(
            &cfg,
            Strategy::HeteFedRec(Ablation::FULL),
            &split,
            &server,
            &users,
            &groups,
            &groups,
        );
        for r in std::iter::once(&out.overall).chain(out.per_group.iter()) {
            assert!((0.0..=1.0).contains(&r.recall), "recall {}", r.recall);
            assert!((0.0..=1.0).contains(&r.ndcg), "ndcg {}", r.ndcg);
        }
    }

    #[test]
    fn evaluation_is_deterministic_and_thread_invariant() {
        let (mut cfg, split, server, users, groups) = setup();
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let a = evaluate(&cfg, strategy, &split, &server, &users, &groups, &groups);
        cfg.threads = 4;
        let b = evaluate(&cfg, strategy, &split, &server, &users, &groups, &groups);
        assert_eq!(a.overall.recall, b.overall.recall);
        assert_eq!(a.overall.ndcg, b.overall.ndcg);
    }

    #[test]
    fn lightgcn_evaluation_runs() {
        let cfg = TrainConfig::test_default(ModelKind::LightGcn);
        let data = SyntheticConfig::tiny().generate(6);
        let split = SplitDataset::paper_split(&data, 6);
        let strategy = Strategy::HeteFedRec(Ablation::FULL);
        let server = ServerState::new(split.num_items(), &cfg, strategy);
        let groups = strategy.assign_tiers(&split, DivisionRatio::PAPER_DEFAULT);
        let users: Vec<UserState> = (0..split.num_users())
            .map(|u| UserState::init(u, cfg.dims.dim(groups.tier(u)), &cfg, None))
            .collect();
        let out = evaluate(&cfg, strategy, &split, &server, &users, &groups, &groups);
        assert!(out.overall.users > 0);
        assert!(out.overall.ndcg.is_finite());
    }

    #[test]
    fn standalone_uses_private_parameters() {
        let cfg = TrainConfig::test_default(ModelKind::Ncf);
        let data = SyntheticConfig::tiny().generate(7);
        let split = SplitDataset::paper_split(&data, 7);
        let strategy = Strategy::Standalone;
        let server = ServerState::new(split.num_items(), &cfg, strategy);
        let groups = strategy.assign_tiers(&split, DivisionRatio::PAPER_DEFAULT);
        let u = 0;
        let tier = groups.tier(u);
        let state = UserState::init(
            u,
            cfg.dims.dim(tier),
            &cfg,
            Some(server.theta(tier).clone()),
        );
        let eval = evaluate_user(&cfg, strategy, &split, &server, &state, u, tier);
        // User 0 of the tiny dataset has test items, so evaluation runs.
        assert!(eval.is_some());
    }

    #[test]
    fn summary_mentions_all_groups() {
        let out = EvalOutput::default();
        let s = out.summary();
        assert!(s.contains("Us") && s.contains("Um") && s.contains("Ul"));
    }
}
