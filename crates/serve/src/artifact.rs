//! Exportable serving artifacts.
//!
//! A [`ModelArtifact`] is an **immutable** snapshot of everything the
//! deployment side needs to answer top-K queries: the frozen per-tier
//! item tables and predictors, every known user's serving state (tier,
//! private embedding, interaction history, and — under the standalone
//! baseline — its private model), per-item popularity counts, and a
//! per-tier cold-start fallback embedding for users the training run
//! never saw.
//!
//! Artifacts are produced from a live [`Session`] (`export_artifact()`),
//! rebuilt from a persisted training checkpoint
//! ([`ModelArtifact::from_checkpoint`] /
//! [`ModelArtifact::from_checkpoint_file`]), synthesized at arbitrary
//! scale without training ([`ModelArtifact::synthesize`]), or loaded
//! from the binary file format — eagerly ([`ModelArtifact::load_file`])
//! or lazily ([`ModelArtifact::load_file_lazy`]), where tier tables and
//! user records stay on disk until first touch. Both backends sit behind
//! the same accessors and produce **bit-identical** rankings; the lazy
//! one bounds resident memory by what requests actually touch. Going
//! out, [`ModelArtifact::to_bytes`] and [`ModelArtifact::save_file`]
//! drive the one streaming writer in [`crate::binfmt`]; `save_file`
//! never materialises the file and replaces its target atomically.
//!
//! The artifact schema itself is versioned ([`ARTIFACT_VERSION`]); it
//! tracks the checkpoint schema it can ingest, so a reader upgrade is an
//! artifact-version bump.

use crate::binfmt::{self, Meta};
use crate::lazy::{LazyConfig, LazyTiers, LazyUsers};
use crate::ServeError;
use hetefedrec_core::session::Session;
use hetefedrec_core::Strategy;
use hf_dataset::{SplitDataset, Tier};
use hf_models::{Ffn, ModelKind};
use hf_tensor::Matrix;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;

use hetefedrec_core::config::TierDims;

/// Artifact schema version. Version 1 snapshots the state of
/// `hetefedrec.checkpoint` v1 documents.
pub const ARTIFACT_VERSION: u64 = 1;

/// One user's frozen serving state.
#[derive(Clone, Debug)]
pub struct UserRecord {
    /// The model tier this user is served with.
    pub tier: Tier,
    /// Private user embedding (width = tier dimension).
    pub emb: Vec<f32>,
    /// Training positives, in split order — drives LightGCN propagation,
    /// default exclusion, and popularity counts.
    pub history: Vec<u32>,
    /// Standalone-baseline private model, when the artifact came from a
    /// [`Strategy::Standalone`] run.
    pub solo: Option<SoloModel>,
}

/// A standalone client's private parameters (overlay over the frozen
/// initial table, plus its own predictor).
#[derive(Clone, Debug)]
pub struct SoloModel {
    /// Item rows the client trained privately, keyed by item id.
    pub rows: HashMap<u32, Vec<f32>>,
    /// The client's private predictor.
    pub theta: Ffn,
}

/// A fetched user record: either borrowed straight out of the eager
/// in-memory store, or a shared handle into the lazy store's shard cache
/// (the record may be evicted and re-decoded later; the handle keeps
/// this copy alive). Dereferences to [`UserRecord`], so call sites read
/// the same either way.
#[derive(Clone, Debug)]
pub enum UserRef<'a> {
    /// Borrowed from the eager `Vec<UserRecord>` backend.
    Borrowed(&'a UserRecord),
    /// A cache handle from the lazy sharded backend.
    Cached(Arc<UserRecord>),
}

impl std::ops::Deref for UserRef<'_> {
    type Target = UserRecord;
    fn deref(&self) -> &UserRecord {
        match self {
            UserRef::Borrowed(r) => r,
            UserRef::Cached(r) => r,
        }
    }
}

impl Borrow<UserRecord> for UserRef<'_> {
    fn borrow(&self) -> &UserRecord {
        self
    }
}

/// Where user records live.
#[derive(Clone, Debug)]
pub(crate) enum UserStore {
    /// All records decoded up front (training export, eager file load).
    Eager(Vec<UserRecord>),
    /// Records decoded on first touch from a v2 file, held in a sharded
    /// bounded LRU (see [`crate::lazy`]).
    Lazy(LazyUsers),
}

/// Where the frozen per-tier item tables and predictors live.
#[derive(Clone, Debug)]
pub(crate) enum TierParams {
    /// Decoded up front.
    Eager {
        /// Frozen tier item tables `{Vs, Vm, Vl}` (each at its width).
        tables: Box<[Matrix; 3]>,
        /// Frozen tier predictors `{Θs, Θm, Θl}`.
        thetas: Box<[Ffn; 3]>,
    },
    /// Decoded per tier on first touch from a v2 file.
    Lazy(LazyTiers),
}

/// An immutable, versioned snapshot of a trained model, ready to serve.
#[derive(Clone, Debug)]
pub struct ModelArtifact {
    pub(crate) model: ModelKind,
    pub(crate) dims: TierDims,
    pub(crate) standalone: bool,
    pub(crate) num_items: usize,
    pub(crate) params: TierParams,
    pub(crate) users: UserStore,
    /// Per-item training-interaction counts (popularity floor support).
    pub(crate) popularity: Vec<u32>,
    /// Per-tier mean user embedding — the cold-start fallback
    /// representation (zeros when a tier has no users).
    pub(crate) fallback: [Vec<f32>; 3],
}

impl ModelArtifact {
    /// Snapshots a session's current model state into an artifact.
    ///
    /// The session keeps training afterwards if it likes; the artifact is
    /// a deep copy and never changes.
    pub fn from_session(session: &Session) -> Self {
        let cfg = session.cfg();
        let split = session.split();
        let server = session.server();
        let standalone = matches!(session.strategy(), Strategy::Standalone);
        let num_items = split.num_items();

        let mut popularity = vec![0u32; num_items];
        let mut fallback = TierMeans::new(&cfg.dims);
        let users: Vec<UserRecord> = (0..split.num_users())
            .map(|u| {
                let tier = session.model_groups().tier(u);
                let state = session.user_state(u);
                let history = split.user(u).train.clone();
                for &item in &history {
                    popularity[item as usize] += 1;
                }
                fallback.add(tier, &state.emb);
                UserRecord {
                    tier,
                    emb: state.emb.clone(),
                    history,
                    solo: state.standalone.as_ref().map(|s| SoloModel {
                        rows: s.rows.clone(),
                        theta: s.theta.clone(),
                    }),
                }
            })
            .collect();

        Self {
            model: cfg.model,
            dims: cfg.dims,
            standalone,
            num_items,
            params: TierParams::Eager {
                tables: Box::new(std::array::from_fn(|t| server.table(Tier::ALL[t]).clone())),
                thetas: Box::new(std::array::from_fn(|t| server.theta(Tier::ALL[t]).clone())),
            },
            users: UserStore::Eager(users),
            popularity,
            fallback: fallback.finish(),
        }
    }

    /// Assembles an artifact from decoded parts (the binary readers'
    /// constructor, eager and lazy).
    pub(crate) fn assemble(
        meta: Meta,
        params: TierParams,
        users: UserStore,
        popularity: Vec<u32>,
        fallback: [Vec<f32>; 3],
    ) -> Self {
        Self {
            model: meta.model,
            dims: meta.dims,
            standalone: meta.standalone,
            num_items: meta.num_items,
            params,
            users,
            popularity,
            fallback,
        }
    }

    /// The `meta` section this artifact encodes to.
    pub(crate) fn meta(&self) -> Meta {
        Meta {
            model: self.model,
            standalone: self.standalone,
            dims: self.dims,
            num_items: self.num_items,
            num_users: self.num_users(),
        }
    }

    /// Rebuilds an artifact from a `hetefedrec.checkpoint` v1 document
    /// (as written by [`Session::checkpoint`]), using the `hf_tensor::ser`
    /// reader. The caller supplies the identically generated split — the
    /// checkpoint stores only model state, not the dataset.
    pub fn from_checkpoint(json: &str, split: SplitDataset) -> Result<Self, ServeError> {
        let session = Session::restore(json, split)
            .map_err(|e| ServeError::Artifact(format!("cannot restore checkpoint: {e}")))?;
        Ok(Self::from_session(&session))
    }

    /// [`ModelArtifact::from_checkpoint`] reading the document from a file.
    pub fn from_checkpoint_file(
        path: impl AsRef<std::path::Path>,
        split: SplitDataset,
    ) -> Result<Self, ServeError> {
        let json = std::fs::read_to_string(path.as_ref())
            .map_err(|e| ServeError::Artifact(format!("cannot read checkpoint: {e}")))?;
        Self::from_checkpoint(&json, split)
    }

    /// Serialises the artifact to the compact binary on-disk format
    /// (`crate::binfmt`): length-prefixed sections of little-endian
    /// scalars, floats as IEEE-754 bits, so a reload is bit-identical.
    /// A lazy artifact is materialised section by section (every user
    /// record streams through, but at most one at a time beyond the
    /// caches).
    pub fn to_bytes(&self) -> Vec<u8> {
        let widths: usize = Tier::ALL.iter().map(|&t| self.dims.dim(t)).sum();
        let out = Cursor::new(Vec::with_capacity(64 + 4 * self.num_items * widths));
        binfmt::write_artifact(self, out)
            .expect("writing to memory cannot fail")
            .into_inner()
    }

    /// Parses the binary on-disk format (either container version).
    /// Truncated, malformed, or version-mismatched buffers are rejected
    /// with [`ServeError::Artifact`], never a panic.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ServeError> {
        binfmt::decode(buf)
    }

    /// Streams the binary format to `path` — the same writer as
    /// [`ModelArtifact::to_bytes`], so the same bytes, but through a
    /// buffered file handle: the file is never materialised in memory.
    /// The write is **atomic**: it lands in a sibling `<path>.tmp` that
    /// is renamed over `path` once complete and removed on error, so a
    /// reader racing an export never opens a half-written artifact.
    /// Parent directories are created. Serving hosts load the file
    /// directly ([`ModelArtifact::load_file`] or
    /// [`ModelArtifact::load_file_lazy`]) instead of replaying a
    /// checkpoint restore.
    pub fn save_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        binfmt::write_file(path.as_ref(), |out| {
            binfmt::write_artifact(self, out).map(drop)
        })
    }

    /// Reads an artifact from the binary file format written by
    /// [`ModelArtifact::save_file`], decoding everything up front.
    pub fn load_file(path: impl AsRef<std::path::Path>) -> Result<Self, ServeError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path)
            .map_err(|e| ServeError::Artifact(format!("cannot read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }

    /// Opens a v2 artifact file **lazily**: the header, directories,
    /// `meta`, `popularity`, and `fallback` sections are read and
    /// validated up front, but tier tables and user records stay on disk
    /// until first touch. User records are cached in a sharded bounded
    /// LRU sized by `cfg`, so resident memory is `O(touched)` with a
    /// configurable ceiling — and rankings are bit-identical to the
    /// eager path.
    ///
    /// Version-1 files have no directories to seek by; they fall back to
    /// the eager [`ModelArtifact::load_file`] path transparently.
    pub fn load_file_lazy(
        path: impl AsRef<std::path::Path>,
        cfg: LazyConfig,
    ) -> Result<Self, ServeError> {
        crate::lazy::open_lazy(path.as_ref(), cfg)
    }

    /// Artifact schema version.
    pub fn version(&self) -> u64 {
        ARTIFACT_VERSION
    }

    /// Base model the artifact serves.
    pub fn model(&self) -> ModelKind {
        self.model
    }

    /// Tier embedding dimensions.
    pub fn dims(&self) -> TierDims {
        self.dims
    }

    /// `true` when the artifact came from the standalone baseline (every
    /// user carries a private model).
    pub fn is_standalone(&self) -> bool {
        self.standalone
    }

    /// `true` when this artifact is file-backed and decodes state on
    /// first touch ([`ModelArtifact::load_file_lazy`]).
    pub fn is_lazy(&self) -> bool {
        matches!(self.users, UserStore::Lazy(_)) || matches!(self.params, TierParams::Lazy(_))
    }

    /// Item universe size.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of known users.
    pub fn num_users(&self) -> usize {
        match &self.users {
            UserStore::Eager(users) => users.len(),
            UserStore::Lazy(lazy) => lazy.num_users(),
        }
    }

    /// How many decoded user records are resident right now: all of them
    /// for an eager artifact, the shard-cache occupancy for a lazy one.
    pub fn cached_user_records(&self) -> usize {
        match &self.users {
            UserStore::Eager(users) => users.len(),
            UserStore::Lazy(lazy) => lazy.cached_records(),
        }
    }

    /// One known user's frozen state, or `None` for unknown ids (the
    /// recommender's cold-start path). On a lazy artifact this decodes
    /// the record from disk on first touch and caches it in the user's
    /// shard.
    pub fn user(&self, user: usize) -> Option<UserRef<'_>> {
        match &self.users {
            UserStore::Eager(users) => users.get(user).map(UserRef::Borrowed),
            UserStore::Lazy(lazy) => lazy.user(user).map(UserRef::Cached),
        }
    }

    /// One tier's frozen item table. On a lazy artifact the first touch
    /// decodes the tier from disk; it stays resident afterwards.
    pub fn table(&self, tier: Tier) -> &Matrix {
        match &self.params {
            TierParams::Eager { tables, .. } => &tables[tier.index()],
            TierParams::Lazy(lazy) => lazy.table(tier),
        }
    }

    /// One tier's frozen predictor (lazily decoded like
    /// [`ModelArtifact::table`]).
    pub fn theta(&self, tier: Tier) -> &Ffn {
        match &self.params {
            TierParams::Eager { thetas, .. } => &thetas[tier.index()],
            TierParams::Lazy(lazy) => lazy.theta(tier),
        }
    }

    /// One tier table's shape `(rows, cols)` — available without forcing
    /// a lazy tier load (v2 directories carry the shape).
    pub fn table_dims(&self, tier: Tier) -> (usize, usize) {
        match &self.params {
            TierParams::Eager { tables, .. } => {
                let t = &tables[tier.index()];
                (t.rows(), t.cols())
            }
            TierParams::Lazy(lazy) => lazy.table_dims(tier),
        }
    }

    /// Training-interaction count of one item (0 for ids outside the
    /// catalogue — unknown items have no interactions, and serving
    /// accessors never panic on caller-supplied ids).
    pub fn popularity(&self, item: u32) -> u32 {
        self.popularity.get(item as usize).copied().unwrap_or(0)
    }

    /// The cold-start fallback embedding of one tier.
    pub fn fallback(&self, tier: Tier) -> &[f32] {
        &self.fallback[tier.index()]
    }
}

/// Running per-tier mean user embedding, fed in ascending user order —
/// the deterministic cold-start fallback shared by session export and
/// both synthesis paths (zeros for a tier with no users).
pub(crate) struct TierMeans {
    sums: [Vec<f32>; 3],
    counts: [usize; 3],
}

impl TierMeans {
    pub(crate) fn new(dims: &TierDims) -> Self {
        Self {
            sums: std::array::from_fn(|t| vec![0.0f32; dims.dim(Tier::ALL[t])]),
            counts: [0; 3],
        }
    }

    pub(crate) fn add(&mut self, tier: Tier, emb: &[f32]) {
        hf_tensor::ops::axpy_slice(&mut self.sums[tier.index()], 1.0, emb);
        self.counts[tier.index()] += 1;
    }

    pub(crate) fn finish(mut self) -> [Vec<f32>; 3] {
        for (f, &n) in self.sums.iter_mut().zip(&self.counts) {
            if n > 0 {
                let inv = 1.0 / n as f32;
                f.iter_mut().for_each(|x| *x *= inv);
            }
        }
        self.sums
    }
}
