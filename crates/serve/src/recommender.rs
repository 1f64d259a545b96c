//! The batched top-K query layer.
//!
//! [`RecommenderBuilder`] validates a serving configuration against a
//! [`ModelArtifact`] and produces a [`Recommender`], which answers typed
//! [`RecommendRequest`]s with deterministic [`RecommendResponse`]s.
//!
//! The hot path is **batch-oriented**: [`Recommender::recommend_batch`]
//! groups requests by model tier and fans `(tier, item panel)` scoring
//! units out over [`parallel_map`]. The first-layer *item
//! half* of each tier depends only on the frozen artifact, so each
//! `(tier, panel)` tile ([`SplitNcf::item_half_block`], one blocked
//! [`Matrix::matmul_rows`](hf_tensor::Matrix::matmul_rows) product) sits
//! behind one fill-once slot: a tile that is kept is read with no lock
//! and never computed again, and [`RecommenderBuilder::item_half_mode`]
//! only sets how many tiles may be kept — every one, filled at `build()`
//! (the default), or a budget. A tile is the same bits whether it
//! was kept or computed for the unit at hand, by the [`SplitNcf`]
//! contract. Ranking happens *inside* each unit: a panel's scores are
//! reduced to its top-K candidates ([`hf_metrics::top_k_scored`] — ties
//! break toward the smaller item id; NaN scores are skipped, which is how
//! item filters and the popularity floor drop candidates) and merged
//! under the same order, so no dense `num_items`-wide vector is ever
//! materialised per request and serving memory is `O(batch × k)` plus
//! one panel per in-flight unit.
//!
//! Determinism contract: every `(request, item)` score is computed
//! exactly once, from inputs that do not depend on batch composition,
//! panel size, or thread count — so responses are **bit-identical**
//! across 1/2/8 threads, across batch shapes, and against the offline
//! evaluator's scores ([`hetefedrec_core::eval::score_user`]), which uses
//! the same [`SplitNcf`] scorer in scalar form.

use crate::artifact::{ModelArtifact, UserRecord};
use crate::ServeError;
use hetefedrec_core::client::item_row;
use hf_dataset::Tier;
use hf_metrics::top_k_scored;
use hf_models::scoring::{propagate_lightgcn, SplitNcf};
use hf_models::ModelKind;
use hf_tensor::parallel::parallel_map;
use hf_tensor::Matrix;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// Item predicate for [`RecommendRequest::filter`]: return `false` to
/// drop an item from the candidate set.
pub type ItemFilter = Arc<dyn Fn(u32) -> bool + Send + Sync>;

/// A typed top-K query.
#[derive(Clone)]
pub struct RecommendRequest {
    /// User id. Ids at or beyond the artifact's user count take the
    /// cold-start fallback path.
    pub user: usize,
    /// Ranking cutoff; `0` means the recommender's `default_k`.
    pub k: usize,
    /// Extra item ids to exclude (need not be sorted).
    pub exclude: Vec<u32>,
    /// Exclude the user's own training history (default `true` — serving
    /// someone their already-consumed items is rarely useful, and it is
    /// the offline evaluation protocol's masking rule).
    pub exclude_seen: bool,
    /// Drop items with fewer than this many training interactions
    /// (`0` disables the floor).
    pub min_popularity: u32,
    /// Optional candidate predicate (catalogue filters, availability…).
    pub filter: Option<ItemFilter>,
}

impl RecommendRequest {
    /// A default query for one user: recommender-default `k`, history
    /// excluded, no filters.
    pub fn new(user: usize) -> Self {
        Self {
            user,
            k: 0,
            exclude: Vec::new(),
            exclude_seen: true,
            min_popularity: 0,
            filter: None,
        }
    }

    /// Sets the ranking cutoff.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Adds explicit exclusions.
    pub fn exclude(mut self, items: impl IntoIterator<Item = u32>) -> Self {
        self.exclude.extend(items);
        self
    }

    /// Keeps already-seen items in the candidate set.
    pub fn keep_seen(mut self) -> Self {
        self.exclude_seen = false;
        self
    }

    /// Sets the popularity floor.
    pub fn with_min_popularity(mut self, floor: u32) -> Self {
        self.min_popularity = floor;
        self
    }

    /// Sets the candidate predicate.
    pub fn with_filter(mut self, filter: impl Fn(u32) -> bool + Send + Sync + 'static) -> Self {
        self.filter = Some(Arc::new(filter));
        self
    }
}

impl std::fmt::Debug for RecommendRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecommendRequest")
            .field("user", &self.user)
            .field("k", &self.k)
            .field("exclude", &self.exclude)
            .field("exclude_seen", &self.exclude_seen)
            .field("min_popularity", &self.min_popularity)
            .field("filter", &self.filter.as_ref().map(|_| "<predicate>"))
            .finish()
    }
}

/// One ranked item.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScoredItem {
    /// Item id.
    pub item: u32,
    /// Model logit the ranking used (higher is better).
    pub score: f32,
}

/// A deterministic answer to a [`RecommendRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct RecommendResponse {
    /// The queried user id.
    pub user: usize,
    /// Tier whose model produced the ranking.
    pub tier: Tier,
    /// `true` when the user was unknown and the cold-start fallback
    /// embedding was used.
    pub cold_start: bool,
    /// Ranked recommendations, best first.
    pub items: Vec<ScoredItem>,
}

/// Tier whose model and fallback embedding serve unknown users: the small
/// tier, where data-volume grouping places the clients with the fewest
/// interactions.
const COLD_START_TIER: Tier = Tier::Small;

/// How many first-layer item-half tiles a [`Recommender`] may keep.
///
/// A tile is the item halves of one `(tier, panel)`: `panel_items` rows
/// of `hidden` floats (8 in the paper's predictor, whatever the tier's
/// embedding width). Tiles are a pure function of the frozen artifact
/// and every mode serves them through the same fill-once store with
/// **bit-identical** scores (the [`SplitNcf`] contract: a panel's blocked
/// product agrees per row wherever it is cut) — a mode is a budget:
///
/// | mode | tiles kept | bytes held | computed per batch |
/// |---|---|---|---|
/// | [`Precomputed`](ItemHalfMode::Precomputed) | all `T = 3·⌈items / panel_items⌉`, at `build()` | `4 · 3 · items · hidden` | nothing |
/// | [`Tiled`](ItemHalfMode::Tiled) | the first `max_panels` touched | `≤ 4 · max_panels · panel_items · hidden` | touched − kept |
///
/// Nothing is ever evicted: every batch walks every tile of its tiers in
/// the same order, and under that cyclic scan a policy that replaces
/// never hits, while tiles that stay put hit on every pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemHalfMode {
    /// Keep every tile, computed at build time (the default; fastest
    /// steady state, `O(items)` resident).
    Precomputed,
    /// Keep the first `max_panels` tiles that requests touch, across all
    /// tiers, and compute the rest per unit — resident item halves stay
    /// within the budget however large the catalogue.
    Tiled {
        /// Maximum resident tiles across all tiers (must be ≥ 1).
        max_panels: usize,
    },
}

/// Validated constructor for a [`Recommender`].
pub struct RecommenderBuilder {
    artifact: ModelArtifact,
    default_k: usize,
    threads: usize,
    panel_items: usize,
    item_half_mode: ItemHalfMode,
}

impl RecommenderBuilder {
    /// Starts a builder over an artifact with serving defaults: `k = 10`,
    /// single-threaded, 512-item panels, small-tier cold start, item
    /// halves precomputed.
    pub fn new(artifact: ModelArtifact) -> Self {
        Self {
            artifact,
            default_k: 10,
            threads: 1,
            panel_items: 512,
            item_half_mode: ItemHalfMode::Precomputed,
        }
    }

    /// Ranking cutoff used when a request leaves `k` at 0.
    pub fn default_k(mut self, k: usize) -> Self {
        self.default_k = k;
        self
    }

    /// Worker threads for the batch fan-out. Responses are bit-identical
    /// for every thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Items per scoring panel (the `matmul_rows` block unit).
    pub fn panel_items(mut self, items: usize) -> Self {
        self.panel_items = items;
        self
    }

    /// How many item-half tiles may be kept — see [`ItemHalfMode`]. All
    /// modes produce bit-identical rankings; [`ItemHalfMode::Tiled`]
    /// bounds the held halves to `max_panels × panel_items` rows, which
    /// is the capacity-serving configuration for million-item catalogues.
    pub fn item_half_mode(mut self, mode: ItemHalfMode) -> Self {
        self.item_half_mode = mode;
        self
    }

    /// Validates the configuration and builds the recommender.
    pub fn build(self) -> Result<Recommender, ServeError> {
        if self.default_k == 0 {
            return Err(ServeError::config(
                "default_k",
                "ranking cutoff must be positive",
            ));
        }
        if self.threads == 0 {
            return Err(ServeError::config(
                "threads",
                "at least one worker thread required",
            ));
        }
        if self.panel_items == 0 {
            return Err(ServeError::config(
                "panel_items",
                "scoring panels must hold at least one item",
            ));
        }
        if let ItemHalfMode::Tiled { max_panels } = self.item_half_mode {
            if max_panels == 0 {
                return Err(ServeError::config(
                    "item_half_mode",
                    "tiled mode needs at least one resident panel",
                ));
            }
        }
        let artifact = self.artifact;
        let dims = artifact.dims();
        for tier in Tier::ALL {
            // Shape check via the directory, so validating a lazy
            // artifact does not force its tier tables off disk.
            let (rows, cols) = artifact.table_dims(tier);
            if cols != dims.dim(tier) || rows != artifact.num_items() {
                return Err(ServeError::Artifact(format!(
                    "{tier:?} table is {rows}x{cols}, expected {}x{}",
                    artifact.num_items(),
                    dims.dim(tier)
                )));
            }
        }
        let scorers: [SplitNcf; 3] = std::array::from_fn(|t| {
            SplitNcf::from_ffn(dims.dim(Tier::ALL[t]), artifact.theta(Tier::ALL[t]))
        });
        let panels = artifact.num_items().div_ceil(self.panel_items);
        let item_halves = TileStore::new(
            3 * panels,
            match self.item_half_mode {
                ItemHalfMode::Precomputed => 3 * panels,
                ItemHalfMode::Tiled { max_panels } => max_panels,
            },
        );
        let recommender = Recommender {
            artifact,
            scorers,
            item_halves,
            default_k: self.default_k,
            threads: self.threads,
            panel_items: self.panel_items,
        };
        // Precomputed halves are the store filled before the first
        // request instead of by it.
        if self.item_half_mode == ItemHalfMode::Precomputed {
            for slot in 0..3 * panels {
                recommender.item_half_tile(slot / panels, slot % panels * self.panel_items);
            }
        }
        Ok(recommender)
    }
}

/// The fill-once store behind every [`ItemHalfMode`]: one slot per
/// `(tier, panel)` tile and a budget of tiles that may still be kept.
///
/// A slot that is set is read with no lock. An unset slot is computed and
/// — while budget remains — kept for good; with the budget spent it is
/// computed for the asking unit and dropped. Nothing is evicted, so a
/// kept tile is never computed twice and the tiles held never exceed the
/// budget. Which tiles end up kept depends on who asks first; what a
/// tile holds does not, so neither do scores.
#[derive(Debug)]
struct TileStore {
    slots: Box<[OnceLock<Matrix>]>,
    /// Tiles that may still be kept.
    budget: AtomicUsize,
}

impl TileStore {
    fn new(slots: usize, budget: usize) -> Self {
        Self {
            slots: (0..slots).map(|_| OnceLock::new()).collect(),
            budget: AtomicUsize::new(budget),
        }
    }

    fn get(&self, slot: usize, compute: impl FnOnce() -> Matrix) -> Cow<'_, Matrix> {
        let slot = &self.slots[slot];
        if let Some(tile) = slot.get() {
            return Cow::Borrowed(tile);
        }
        let reserved = self
            .budget
            .fetch_update(Relaxed, Relaxed, |left| left.checked_sub(1));
        if reserved.is_err() {
            return Cow::Owned(compute());
        }
        let mut filled = false;
        let tile = slot.get_or_init(|| {
            filled = true;
            compute()
        });
        if !filled {
            // Another worker won the slot: its tile is the one kept.
            self.budget.fetch_add(1, Relaxed);
        }
        Cow::Borrowed(tile)
    }

    fn held(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }
}

/// A batched top-K query engine over a frozen [`ModelArtifact`].
#[derive(Debug)]
pub struct Recommender {
    artifact: ModelArtifact,
    /// Per-tier split scorers built from the frozen predictors.
    scorers: [SplitNcf; 3],
    /// First-layer item-half tiles, tier-major; the budget is the
    /// [`ItemHalfMode`].
    item_halves: TileStore,
    default_k: usize,
    threads: usize,
    panel_items: usize,
}

/// A resolved request: serving tier, first-layer user half, exclusions,
/// and (standalone only) the user's private scorer.
struct Resolved {
    tier: Tier,
    cold_start: bool,
    user_half: Vec<f32>,
    exclude: Vec<u32>,
    /// Present for standalone users: the private scorer, and the record
    /// the request fetched, whose overlay every panel of the request
    /// patches.
    solo: Option<(SplitNcf, Arc<UserRecord>)>,
}

/// One unit of batch work: score the items `start..end` for either every
/// request of a tier (shared parameters) or one standalone request.
enum Unit {
    Shared {
        tier: usize,
        start: usize,
        end: usize,
    },
    Solo {
        query: usize,
        start: usize,
        end: usize,
    },
}

impl Recommender {
    /// The artifact this recommender serves.
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// Ranking cutoff used for requests that leave `k` at 0.
    pub fn default_k(&self) -> usize {
        self.default_k
    }

    /// How many item-half tiles are resident right now: every one in
    /// [`ItemHalfMode::Precomputed`], and in [`ItemHalfMode::Tiled`] the
    /// smaller of `max_panels` and the
    /// tiles requests have touched so far.
    pub fn cached_item_half_panels(&self) -> usize {
        self.item_halves.held()
    }

    /// How many item-half tiles the catalogue splits into: one per tier
    /// and `panel_items` rows.
    pub fn item_half_tiles(&self) -> usize {
        self.item_halves.slots.len()
    }

    /// The item halves of `tier`'s panel starting at item `start`, out of
    /// the store or computed for the caller.
    fn item_half_tile(&self, tier: usize, start: usize) -> Cow<'_, Matrix> {
        let panels = self.item_halves.slots.len() / 3;
        let end = (start + self.panel_items).min(self.artifact.num_items());
        self.item_halves
            .get(tier * panels + start / self.panel_items, || {
                let table = self.artifact.table(Tier::ALL[tier]);
                self.scorers[tier].item_half_block(table, start, end)
            })
    }

    /// Answers one request ([`Recommender::recommend_batch`] of one).
    pub fn recommend(&self, request: &RecommendRequest) -> RecommendResponse {
        self.recommend_batch(std::slice::from_ref(request))
            .pop()
            .expect("one response per request")
    }

    /// Answers a batch of requests.
    ///
    /// Requests are grouped per model tier; each `(tier, panel)` unit
    /// takes its item-half tile from the fill-once store (kept, or
    /// computed on the spot), shares the panel across the tier's
    /// requests, ranks it down to per-request top-K candidates, and the
    /// units fan out over [`parallel_map`]. Candidate lists
    /// merge under the same `(score desc, item asc)` order the panel
    /// ranking uses, which reproduces the dense whole-catalogue ranking
    /// exactly while never holding more than `k` survivors per request.
    /// Responses are returned in request order and are bit-identical for
    /// every thread count, panel size, item-half budget, and batch
    /// composition.
    pub fn recommend_batch(&self, requests: &[RecommendRequest]) -> Vec<RecommendResponse> {
        let resolved: Vec<Resolved> = requests.iter().map(|r| self.resolve(r)).collect();
        let ks: Vec<usize> = requests
            .iter()
            .map(|r| if r.k == 0 { self.default_k } else { r.k })
            .collect();
        let (tier_queries, units) = self.plan(&resolved);

        // Rank inside the unit: the panel's score vector dies with the
        // closure and only its top-K candidates escape.
        let partials = parallel_map(&units, self.threads, |unit| {
            self.unit_parts(unit, &resolved, &tier_queries)
                .into_iter()
                .map(|(q, start, mut part)| {
                    self.mask_panel(&requests[q], start, &mut part);
                    (
                        q,
                        top_k_scored(&part, ks[q], start as u32, &resolved[q].exclude),
                    )
                })
                .collect::<Vec<_>>()
        });

        // Merge panel winners per request, truncating to `k` after every
        // panel so the gathered state stays `O(batch × k)`.
        let mut candidates: Vec<Vec<(u32, f32)>> = requests.iter().map(|_| Vec::new()).collect();
        for unit in partials {
            for (q, panel_top) in unit {
                let cand = &mut candidates[q];
                cand.extend(panel_top);
                cand.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .unwrap_or(Ordering::Equal)
                        .then_with(|| a.0.cmp(&b.0))
                });
                cand.truncate(ks[q]);
            }
        }

        requests
            .iter()
            .zip(resolved)
            .zip(candidates)
            .map(|((request, res), cand)| RecommendResponse {
                user: request.user,
                tier: res.tier,
                cold_start: res.cold_start,
                items: cand
                    .into_iter()
                    .map(|(item, score)| ScoredItem { item, score })
                    .collect(),
            })
            .collect()
    }

    /// Full per-item score vector for one request, after filters (dropped
    /// candidates are NaN — exactly what the ranking skips). This is the
    /// dense diagnostic path — it materialises `num_items` floats, which
    /// [`Recommender::recommend_batch`] deliberately avoids. Exposed so
    /// tests and tools can compare against reference rankings.
    pub fn score_request(&self, request: &RecommendRequest) -> Vec<f32> {
        let resolved = vec![self.resolve(request)];
        let (tier_queries, units) = self.plan(&resolved);
        let partials = parallel_map(&units, self.threads, |unit| {
            self.unit_parts(unit, &resolved, &tier_queries)
        });
        let mut scores = vec![0.0f32; self.artifact.num_items()];
        for unit in partials {
            for (_, start, part) in unit {
                scores[start..start + part.len()].copy_from_slice(&part);
            }
        }
        self.mask_panel(request, 0, &mut scores);
        scores
    }

    /// Groups shared-parameter queries by tier and enumerates the scoring
    /// units: one per `(tier with queries, panel)` plus one per
    /// `(standalone query, panel)` — standalone predictors are private,
    /// so those queries score alone.
    fn plan(&self, resolved: &[Resolved]) -> ([Vec<usize>; 3], Vec<Unit>) {
        let num_items = self.artifact.num_items();
        let mut tier_queries: [Vec<usize>; 3] = Default::default();
        for (q, res) in resolved.iter().enumerate() {
            if res.solo.is_none() {
                tier_queries[res.tier.index()].push(q);
            }
        }
        let panels: Vec<(usize, usize)> = (0..num_items)
            .step_by(self.panel_items.max(1))
            .map(|start| (start, (start + self.panel_items).min(num_items)))
            .collect();
        let mut units: Vec<Unit> = Vec::new();
        for (t, queries) in tier_queries.iter().enumerate() {
            if !queries.is_empty() {
                units.extend(panels.iter().map(|&(start, end)| Unit::Shared {
                    tier: t,
                    start,
                    end,
                }));
            }
        }
        for (q, res) in resolved.iter().enumerate() {
            if res.solo.is_some() {
                units.extend(panels.iter().map(|&(start, end)| Unit::Solo {
                    query: q,
                    start,
                    end,
                }));
            }
        }
        (tier_queries, units)
    }

    /// Scores one unit's panel for each of its queries, returning
    /// `(query, panel start, panel scores)` triples. Every
    /// `(query, item)` score is computed exactly once, from inputs that do
    /// not depend on batch composition, panel size, or thread count.
    fn unit_parts(
        &self,
        unit: &Unit,
        resolved: &[Resolved],
        tier_queries: &[Vec<usize>; 3],
    ) -> Vec<(usize, usize, Vec<f32>)> {
        match *unit {
            Unit::Shared { tier, start, end } => {
                let scorer = &self.scorers[tier];
                let held = self.item_half_tile(tier, start);
                let rows: &Matrix = &held;
                let mut ws = scorer.workspace();
                tier_queries[tier]
                    .iter()
                    .map(|&q| {
                        let part: Vec<f32> = (0..end - start)
                            .map(|r| scorer.finish(&resolved[q].user_half, rows.row(r), &mut ws))
                            .collect();
                        (q, start, part)
                    })
                    .collect::<Vec<_>>()
            }
            Unit::Solo { query, start, end } => {
                let (scorer, record) = resolved[query].solo.as_ref().expect("solo unit");
                let solo = record.solo.as_ref().expect("standalone state");
                let table = self.artifact.table(record.tier);
                let mut block = scorer.item_half_block(table, start, end);
                // Patch the user's privately trained rows (bit-identical
                // to the blocked product by the SplitNcf contract).
                for (&item, row) in solo.rows.range(start as u32..end as u32) {
                    scorer.item_half_into(row, block.row_mut(item as usize - start));
                }
                let mut ws = scorer.workspace();
                let part: Vec<f32> = (0..end - start)
                    .map(|r| scorer.finish(&resolved[query].user_half, block.row(r), &mut ws))
                    .collect();
                vec![(query, start, part)]
            }
        }
    }

    /// Applies a request's candidate filters to the panel scores starting
    /// at item `start`: failed items become NaN, which the top-K
    /// selection skips.
    fn mask_panel(&self, request: &RecommendRequest, start: usize, part: &mut [f32]) {
        if request.min_popularity == 0 && request.filter.is_none() {
            return;
        }
        for (i, score) in part.iter_mut().enumerate() {
            let item = (start + i) as u32;
            let popular = self.artifact.popularity(item) >= request.min_popularity;
            let kept = request.filter.as_ref().is_none_or(|f| f(item));
            if !(popular && kept) {
                *score = f32::NAN;
            }
        }
    }

    /// Resolves one request: serving tier, user representation (with the
    /// cold-start fallback for unknown users), first-layer user half, and
    /// the merged exclusion mask.
    fn resolve(&self, request: &RecommendRequest) -> Resolved {
        let dims = self.artifact.dims();
        match self.artifact.user(request.user) {
            Some(record) => {
                let tier = record.tier;
                let dim = dims.dim(tier);
                let table = self.artifact.table(tier);
                let overlay = record.solo.as_ref().map(|s| &s.rows);
                let row_of = |item: u32| item_row(table, overlay, item, dim);
                let repr = match self.artifact.model() {
                    ModelKind::Ncf => record.emb.clone(),
                    ModelKind::LightGcn => propagate_lightgcn(
                        &record.emb,
                        record.history.len(),
                        record.history.iter().map(|&item| row_of(item)),
                    ),
                };
                let mut exclude = request.exclude.clone();
                if request.exclude_seen {
                    exclude.extend_from_slice(&record.history);
                }
                let solo = (record.solo.as_ref()).map(|s| SplitNcf::from_ffn(dim, &s.theta));
                let user_half = match &solo {
                    Some(scorer) => scorer.user_half(&repr),
                    None => self.scorers[tier.index()].user_half(&repr),
                };
                exclude.sort_unstable();
                exclude.dedup();
                Resolved {
                    tier,
                    cold_start: false,
                    user_half,
                    exclude,
                    solo: solo.map(|scorer| (scorer, record)),
                }
            }
            None => {
                // Cold start: unknown user, fallback embedding, no history.
                let tier = COLD_START_TIER;
                let fallback = self.artifact.fallback(tier);
                let repr = match self.artifact.model() {
                    ModelKind::Ncf => fallback.to_vec(),
                    ModelKind::LightGcn => propagate_lightgcn(fallback, 0, std::iter::empty()),
                };
                let mut exclude = request.exclude.clone();
                exclude.sort_unstable();
                exclude.dedup();
                Resolved {
                    tier,
                    cold_start: true,
                    user_half: self.scorers[tier.index()].user_half(&repr),
                    exclude,
                    solo: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PANELS: usize = 10;

    /// Scans the ten panels `scans` times in order, as every batch does,
    /// returning how many tiles were computed.
    fn scan(store: &TileStore, scans: usize) -> usize {
        let computed = AtomicUsize::new(0);
        for slot in (0..scans).flat_map(|_| 0..PANELS) {
            let tile = store.get(slot, || {
                computed.fetch_add(1, Relaxed);
                Matrix::from_vec(1, 1, vec![slot as f32])
            });
            assert_eq!(tile.row(0), [slot as f32], "a tile is its slot's");
        }
        computed.into_inner()
    }

    #[test]
    fn cyclic_scans_compute_only_what_the_budget_does_not_hold() {
        // (budget, tiles computed over three scans, tiles held): the
        // first `budget` tiles touched are computed once and kept, the
        // rest once a scan. An LRU of 4 would compute all 30.
        for (budget, computed, held) in [
            (4, 10 + 6 + 6, 4),
            (0, 30, 0),
            (PANELS, 10, PANELS),
            (1_000, 10, PANELS),
        ] {
            let store = TileStore::new(PANELS, budget);
            assert_eq!(scan(&store, 3), computed, "budget {budget}");
            assert_eq!(store.held(), held, "budget {budget}");
            assert_eq!(
                scan(&store, 1),
                PANELS - held,
                "a kept tile is not recomputed"
            );
        }
    }

    #[test]
    fn racing_scans_never_hold_more_than_the_budget() {
        let budget = 4;
        let store = TileStore::new(PANELS, budget);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for slot in (0..3).flat_map(|_| 0..PANELS) {
                        let tile = store.get(slot, || Matrix::from_vec(1, 1, vec![slot as f32]));
                        assert_eq!(tile.row(0), [slot as f32]);
                        assert!(store.held() <= budget);
                    }
                });
            }
        });
        // Every reservation was either spent on a slot or refunded. A
        // refund can land after the last miss of the race, so one more
        // scan is what is guaranteed to spend it.
        assert_eq!(store.held() + store.budget.load(Relaxed), budget);
        scan(&store, 1);
        assert_eq!(store.held(), budget);
        assert_eq!(store.budget.load(Relaxed), 0);
    }
}
