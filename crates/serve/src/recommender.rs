//! The batched top-K query layer.
//!
//! [`RecommenderBuilder`] validates a serving configuration against a
//! [`ModelArtifact`] and produces a [`Recommender`], which answers typed
//! [`RecommendRequest`]s with deterministic [`RecommendResponse`]s.
//!
//! The hot path is **batch-oriented**: [`Recommender::recommend_batch`]
//! groups requests by model tier and fans `(tier, item panel)` scoring
//! units out over [`parallel_map`]. The first-layer *item
//! half* of each tier depends only on the frozen artifact, so by default
//! the builder precomputes it once for the whole catalogue
//! ([`SplitNcf::item_half_block`] over every row) and serving slices the
//! stored panel; [`RecommenderBuilder::item_half_mode`] with
//! [`ItemHalfMode::PerBatch`] keeps the memory-lean per-batch blocked
//! [`Matrix::matmul_rows`](hf_tensor::Matrix::matmul_rows) product
//! instead — the two are bit-identical per row by the [`SplitNcf`]
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

use crate::artifact::ModelArtifact;
use crate::ServeError;
use hf_dataset::Tier;
use hf_metrics::top_k_scored;
use hf_models::scoring::{propagate_lightgcn, SplitNcf};
use hf_models::ModelKind;
use hf_tensor::parallel::parallel_map;
use hf_tensor::Matrix;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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

/// How a [`Recommender`] holds the per-tier first-layer item halves.
///
/// The halves are a pure function of the frozen artifact, and all three
/// modes produce **bit-identical** scores (the [`SplitNcf`] contract
/// guarantees the blocked and whole-table products agree per row) — the
/// choice is purely a memory/latency trade:
///
/// | mode | resident memory | per-batch work |
/// |---|---|---|
/// | [`Precomputed`](ItemHalfMode::Precomputed) | `3 × items × hidden` floats | none |
/// | [`PerBatch`](ItemHalfMode::PerBatch) | one panel per in-flight unit | every panel recomputed |
/// | [`Tiled`](ItemHalfMode::Tiled) | ≤ `max_panels × panel_items × hidden` floats | cache misses only |
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemHalfMode {
    /// Compute the whole catalogue's halves at build time (the default;
    /// fastest steady state, `O(items)` resident).
    Precomputed,
    /// Recompute each panel inside its scoring unit, holding nothing
    /// between batches (the memory-lean mode).
    PerBatch,
    /// Cache computed panels in a bounded LRU of at most `max_panels`
    /// tiles (each `panel_items` rows wide), shared across tiers — the
    /// capacity-serving middle ground: steady-state hot panels serve
    /// from cache while peak memory stays configurable.
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
    cold_start_tier: Tier,
    cold_start_blend: f32,
    item_half_mode: ItemHalfMode,
}

impl RecommenderBuilder {
    /// Starts a builder over an artifact with serving defaults: `k = 10`,
    /// single-threaded, 512-item panels, small-tier cold start (no
    /// popularity blend), item halves precomputed.
    pub fn new(artifact: ModelArtifact) -> Self {
        Self {
            artifact,
            default_k: 10,
            threads: 1,
            panel_items: 512,
            cold_start_tier: Tier::Small,
            cold_start_blend: 0.0,
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

    /// Tier whose model and fallback embedding serve unknown users.
    pub fn cold_start_tier(mut self, tier: Tier) -> Self {
        self.cold_start_tier = tier;
        self
    }

    /// Blend weight `γ ∈ [0, 1]` mixing the popularity prior into the
    /// cold-start representation (default `0`, off).
    ///
    /// The artifact already carries both halves of the mix: the per-tier
    /// mean user embedding (the fallback) and per-item training
    /// interaction counts. At `build()` the counts become a per-tier
    /// *popularity prior* — the popularity-weighted mean item-embedding
    /// row, i.e. the pseudo-user whose taste is the catalogue's traffic —
    /// and unknown users are served from
    /// `(1 - γ) · fallback + γ · prior` instead of the bare fallback.
    /// At `γ = 0` the blend arithmetic is skipped entirely, so responses
    /// are **bit-identical** to a recommender built without the knob.
    /// Known users never blend.
    pub fn cold_start_blend(mut self, gamma: f32) -> Self {
        self.cold_start_blend = gamma;
        self
    }

    /// How the per-tier item halves are held — see [`ItemHalfMode`]. All
    /// modes produce bit-identical rankings; [`ItemHalfMode::Tiled`]
    /// bounds peak memory to `max_panels × panel_items` rows, which is
    /// the capacity-serving configuration for million-item catalogues.
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
        if !(0.0..=1.0).contains(&self.cold_start_blend) {
            return Err(ServeError::config(
                "cold_start_blend",
                format!(
                    "blend weight must be in [0, 1], got {}",
                    self.cold_start_blend
                ),
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
        // The item halves are a pure function of the frozen artifact, so
        // precomputed mode builds them once here instead of per batch.
        let item_halves = match self.item_half_mode {
            ItemHalfMode::Precomputed => ItemHalves::Full(Box::new(std::array::from_fn(|t| {
                scorers[t].item_half_block(artifact.table(Tier::ALL[t]), 0, artifact.num_items())
            }))),
            ItemHalfMode::PerBatch => ItemHalves::PerBatch,
            ItemHalfMode::Tiled { max_panels } => ItemHalves::Tiled(PanelCache::new(max_panels)),
        };
        // Popularity prior per tier: the popularity-weighted mean item
        // row, accumulated in ascending item order so the result is
        // deterministic. Only materialised when the blend is on.
        let pop_prior = (self.cold_start_blend > 0.0).then(|| {
            std::array::from_fn(|t| {
                let tier = Tier::ALL[t];
                let table = artifact.table(tier);
                let mut prior = vec![0.0f32; dims.dim(tier)];
                let mut total = 0.0f32;
                for item in 0..artifact.num_items() {
                    let w = artifact.popularity(item as u32) as f32;
                    if w > 0.0 {
                        hf_tensor::ops::axpy_slice(&mut prior, w, table.row(item));
                        total += w;
                    }
                }
                if total > 0.0 {
                    let inv = 1.0 / total;
                    prior.iter_mut().for_each(|x| *x *= inv);
                }
                prior
            })
        });
        Ok(Recommender {
            artifact,
            scorers,
            item_halves,
            pop_prior,
            default_k: self.default_k,
            threads: self.threads,
            panel_items: self.panel_items,
            cold_start_tier: self.cold_start_tier,
            cold_start_blend: self.cold_start_blend,
        })
    }
}

/// Item-half storage, keyed by [`ItemHalfMode`].
#[derive(Debug)]
enum ItemHalves {
    /// Whole-catalogue halves per tier, built once.
    Full(Box<[Matrix; 3]>),
    /// Nothing held; each unit computes its panel's blocked product.
    PerBatch,
    /// Bounded LRU of computed `(tier, panel)` tiles.
    Tiled(PanelCache),
}

/// A bounded LRU of item-half tiles, shared across tiers and scoring
/// threads. Tiles align with the planned panels (`panel_items` rows), so
/// a cache hit hands a unit exactly the rows it scores. A miss computes
/// the tile *outside* the lock — two threads may race to compute the
/// same tile, but the products are bit-identical, so whichever insert
/// lands is indistinguishable and determinism is unaffected.
#[derive(Debug)]
struct PanelCache {
    max_panels: usize,
    inner: Mutex<PanelCacheInner>,
}

#[derive(Debug, Default)]
struct PanelCacheInner {
    tick: u64,
    map: HashMap<(u8, u32), (u64, Arc<Matrix>)>,
}

impl PanelCache {
    fn new(max_panels: usize) -> Self {
        Self {
            max_panels,
            inner: Mutex::new(PanelCacheInner::default()),
        }
    }

    fn get(&self, tier: usize, start: usize, compute: impl FnOnce() -> Matrix) -> Arc<Matrix> {
        let key = (tier as u8, start as u32);
        {
            let mut cache = self.inner.lock().expect("panel cache lock");
            cache.tick += 1;
            let stamp = cache.tick;
            if let Some((tick, tile)) = cache.map.get_mut(&key) {
                *tick = stamp;
                return tile.clone();
            }
        }
        let tile = Arc::new(compute());
        let mut cache = self.inner.lock().expect("panel cache lock");
        cache.tick += 1;
        let stamp = cache.tick;
        if let Some((tick, tile)) = cache.map.get_mut(&key) {
            *tick = stamp;
            return tile.clone();
        }
        if cache.map.len() >= self.max_panels {
            // Evict the least-recently-used tile (linear scan: the cap
            // is small, and a miss already paid for a panel product).
            if let Some(&lru) = cache
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| k)
            {
                cache.map.remove(&lru);
            }
        }
        cache.map.insert(key, (stamp, tile.clone()));
        tile
    }

    fn resident(&self) -> usize {
        self.inner.lock().expect("panel cache lock").map.len()
    }
}

/// A batched top-K query engine over a frozen [`ModelArtifact`].
#[derive(Debug)]
pub struct Recommender {
    artifact: ModelArtifact,
    /// Per-tier split scorers built from the frozen predictors.
    scorers: [SplitNcf; 3],
    /// First-layer item halves, held per [`ItemHalfMode`].
    item_halves: ItemHalves,
    /// Per-tier popularity-weighted mean item row; `Some` only when the
    /// cold-start blend is on.
    pop_prior: Option<[Vec<f32>; 3]>,
    default_k: usize,
    threads: usize,
    panel_items: usize,
    cold_start_tier: Tier,
    cold_start_blend: f32,
}

/// A resolved request: serving tier, first-layer user half, exclusions,
/// and (standalone only) the user's private scorer.
struct Resolved {
    tier: Tier,
    cold_start: bool,
    user_half: Vec<f32>,
    exclude: Vec<u32>,
    /// Present for standalone users: private scorer + overlay owner id.
    solo: Option<(SplitNcf, usize)>,
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

    /// How many item-half tiles are resident right now: the LRU
    /// occupancy in [`ItemHalfMode::Tiled`], every panel of every tier
    /// in [`ItemHalfMode::Precomputed`], zero in
    /// [`ItemHalfMode::PerBatch`]. Capacity reporting for benches.
    pub fn cached_item_half_panels(&self) -> usize {
        match &self.item_halves {
            ItemHalves::Full(_) => 3 * self.artifact.num_items().div_ceil(self.panel_items),
            ItemHalves::PerBatch => 0,
            ItemHalves::Tiled(cache) => cache.resident(),
        }
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
    /// reads the tier's precomputed item halves (or computes the blocked
    /// product in memory-lean mode), shares the panel across the tier's
    /// requests, ranks it down to per-request top-K candidates, and the
    /// units fan out over [`parallel_map`]. Candidate lists
    /// merge under the same `(score desc, item asc)` order the panel
    /// ranking uses, which reproduces the dense whole-catalogue ranking
    /// exactly while never holding more than `k` survivors per request.
    /// Responses are returned in request order and are bit-identical for
    /// every thread count, panel size, precompute setting, and batch
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
                // Precomputed halves are sliced in place; per-batch mode
                // computes the panel's blocked product here; tiled mode
                // serves it from the bounded LRU (computing on miss).
                // All three are bit-identical per row by the SplitNcf
                // contract.
                let local;
                let held;
                let (rows, offset): (&Matrix, usize) = match &self.item_halves {
                    ItemHalves::Full(halves) => (&halves[tier], start),
                    ItemHalves::PerBatch => {
                        let table = self.artifact.table(Tier::ALL[tier]);
                        local = scorer.item_half_block(table, start, end);
                        (&local, 0)
                    }
                    ItemHalves::Tiled(cache) => {
                        held = cache.get(tier, start, || {
                            let table = self.artifact.table(Tier::ALL[tier]);
                            scorer.item_half_block(table, start, end)
                        });
                        (&held, 0)
                    }
                };
                let mut ws = scorer.workspace();
                tier_queries[tier]
                    .iter()
                    .map(|&q| {
                        let part: Vec<f32> = (0..end - start)
                            .map(|r| {
                                scorer.finish(&resolved[q].user_half, rows.row(offset + r), &mut ws)
                            })
                            .collect();
                        (q, start, part)
                    })
                    .collect::<Vec<_>>()
            }
            Unit::Solo { query, start, end } => {
                let (scorer, user) = resolved[query].solo.as_ref().expect("solo unit");
                let record = self.artifact.user(*user).expect("known user");
                let record = record.view();
                let solo = record.solo.expect("standalone state");
                let table = self.artifact.table(record.tier);
                let mut block = scorer.item_half_block(table, start, end);
                // Patch the user's privately trained rows (bit-identical
                // to the blocked product by the SplitNcf contract).
                for (&item, row) in &solo.rows {
                    let i = item as usize;
                    if (start..end).contains(&i) {
                        scorer.item_half_into(row, block.row_mut(i - start));
                    }
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
                let record = record.view();
                let tier = record.tier;
                let dim = dims.dim(tier);
                let table = self.artifact.table(tier);
                let overlay = record.solo.map(|s| &s.rows);
                let row_of = |item: u32| -> &[f32] {
                    if let Some(overlay) = overlay {
                        if let Some(row) = overlay.get(&item) {
                            return row.as_slice();
                        }
                    }
                    table.row_prefix(item as usize, dim)
                };
                let repr = match self.artifact.model() {
                    ModelKind::Ncf => record.emb.to_vec(),
                    ModelKind::LightGcn => propagate_lightgcn(
                        record.emb,
                        record.history.len(),
                        record.history.iter().map(|&item| row_of(item)),
                    ),
                };
                let solo = record
                    .solo
                    .map(|s| (SplitNcf::from_ffn(dim, &s.theta), request.user));
                let user_half = match &solo {
                    Some((scorer, _)) => scorer.user_half(&repr),
                    None => self.scorers[tier.index()].user_half(&repr),
                };
                let mut exclude = request.exclude.clone();
                if request.exclude_seen {
                    exclude.extend_from_slice(record.history);
                }
                exclude.sort_unstable();
                exclude.dedup();
                Resolved {
                    tier,
                    cold_start: false,
                    user_half,
                    exclude,
                    solo,
                }
            }
            None => {
                // Cold start: unknown user, fallback embedding, no history.
                let tier = self.cold_start_tier;
                let fallback = self.artifact.fallback(tier);
                // With the blend on, mix the popularity prior into the
                // fallback; at γ = 0 the original slice is used untouched
                // (no arithmetic, so responses stay bit-identical).
                let blended: Vec<f32>;
                let base: &[f32] = match &self.pop_prior {
                    Some(prior) if self.cold_start_blend > 0.0 => {
                        let gamma = self.cold_start_blend;
                        blended = fallback
                            .iter()
                            .zip(&prior[tier.index()])
                            .map(|(&f, &p)| (1.0 - gamma) * f + gamma * p)
                            .collect();
                        &blended
                    }
                    _ => fallback,
                };
                let repr = match self.artifact.model() {
                    ModelKind::Ncf => base.to_vec(),
                    ModelKind::LightGcn => propagate_lightgcn(base, 0, std::iter::empty()),
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
