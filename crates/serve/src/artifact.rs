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
//! Artifacts are produced from a live [`Session`] (`export_artifact()`;
//! a persisted training checkpoint is [`Session::restore`]d first),
//! synthesized at arbitrary scale without training
//! ([`ModelArtifact::synthesize`]), or loaded from the binary file format
//! — eagerly ([`ModelArtifact::load_file`]) or lazily
//! ([`ModelArtifact::load_file_lazy`]), where tier tables and user
//! records stay on disk until first touch. Both backends sit behind
//! the same accessors and produce **bit-identical** rankings; the lazy
//! one bounds resident memory by what requests actually touch. Going
//! out, [`ModelArtifact::to_bytes`], [`ModelArtifact::save_file`] and
//! [`ExportArtifact::export_artifact_to`] drive the one streaming writer
//! in [`crate::binfmt`]; the file writers never materialise the file and
//! replace their target atomically, and `export_artifact_to` never
//! materialises the artifact either.
//!
//! **A user has one form: its record in the `users` section.** An eager
//! artifact holds that section in memory, one exact-size buffer framed as
//! the file frames it (an end offset a user, then the records, history
//! ids delta-coded at about a byte each), whichever constructor filled
//! it; a lazy one leaves it on disk. [`ModelArtifact::user`] decodes the
//! one record asked for into a [`UserRecord`] either way — the lazy
//! backend keeps it in its shard cache, the eager one hands it over —
//! and [`UserRecord::view`] lends it as a [`UserView`], the borrowed form
//! the writer and the recommender read.
//!
//! The artifact schema ([`ARTIFACT_VERSION`]) and its container
//! ([`crate::BINFMT_VERSION`]) are versioned, and a reader accepts exactly
//! the versions this build writes.

use crate::binfmt::{self, HeldUsers, Meta};
use crate::lazy::{LazyConfig, LazyUsers, Tiers};
use crate::{ExportArtifact, ServeError};
use hetefedrec_core::session::Session;
use hetefedrec_core::Strategy;
use hf_dataset::Tier;
use hf_models::{Ffn, ModelKind};
use hf_tensor::Matrix;
use std::io::Cursor;
use std::sync::Arc;

use hetefedrec_core::config::TierDims;

/// Artifact schema version: the model state a session exports (tier
/// tables and predictors, per-user state, popularity, fallback).
pub const ARTIFACT_VERSION: u64 = 1;

/// A standalone client's private parameters (overlay over the frozen
/// initial table, plus its own predictor): `rows` keyed by item id, and
/// `theta`. The serving side reads the training side's type as is, so an
/// export borrows it instead of copying it.
pub use hetefedrec_core::client::StandaloneState as SoloModel;

/// One user's frozen serving state, borrowed — what every reader of an
/// artifact sees, whichever backend holds the user.
#[derive(Clone, Copy, Debug)]
pub struct UserView<'a> {
    /// The model tier this user is served with.
    pub tier: Tier,
    /// Private user embedding (width = tier dimension).
    pub emb: &'a [f32],
    /// Training positives, strictly ascending — drives LightGCN propagation,
    /// default exclusion, and popularity counts.
    pub history: &'a [u32],
    /// Standalone-baseline private model, when the artifact came from a
    /// [`Strategy::Standalone`] run.
    pub solo: Option<&'a SoloModel>,
}

/// One user's frozen serving state, owned: what a read of a user decodes
/// (fields as in [`UserView`]).
#[derive(Clone, Debug)]
pub struct UserRecord {
    /// The model tier this user is served with.
    pub tier: Tier,
    /// Private user embedding.
    pub emb: Vec<f32>,
    /// Training positives, strictly ascending.
    pub history: Vec<u32>,
    /// Standalone-baseline private model.
    pub solo: Option<SoloModel>,
}

impl UserRecord {
    /// This record, borrowed.
    pub fn view(&self) -> UserView<'_> {
        UserView {
            tier: self.tier,
            emb: &self.emb,
            history: &self.history,
            solo: self.solo.as_ref(),
        }
    }

    /// A record to decode into.
    pub(crate) fn empty() -> Self {
        Self {
            tier: Tier::Small,
            emb: Vec::new(),
            history: Vec::new(),
            solo: None,
        }
    }
}

/// Where user records live.
#[derive(Clone, Debug)]
pub(crate) enum UserStore {
    /// The `users` section in memory (training export, synthesis, eager
    /// file load).
    Held(HeldUsers),
    /// Records decoded on first touch from the file, held in a sharded
    /// bounded LRU (see [`crate::lazy`]).
    Lazy(LazyUsers),
}

/// An immutable, versioned snapshot of a trained model, ready to serve.
#[derive(Clone, Debug)]
pub struct ModelArtifact {
    pub(crate) model: ModelKind,
    pub(crate) dims: TierDims,
    pub(crate) standalone: bool,
    pub(crate) num_items: usize,
    /// Frozen tier item tables `{Vs, Vm, Vl}` (each at its width) and
    /// predictors `{Θs, Θm, Θl}`.
    pub(crate) params: Tiers,
    pub(crate) users: UserStore,
    /// Per-item training-interaction counts (popularity floor support).
    pub(crate) popularity: Vec<u32>,
    /// Per-tier mean user embedding — the cold-start fallback
    /// representation (zeros when a tier has no users).
    pub(crate) fallback: [Vec<f32>; 3],
}

impl ModelArtifact {
    /// Assembles an artifact from decoded parts (the binary readers'
    /// constructor, eager and lazy).
    pub(crate) fn assemble(
        meta: Meta,
        params: Tiers,
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

    /// Serialises the artifact to the compact binary on-disk format
    /// (`crate::binfmt`): length-prefixed sections of little-endian
    /// scalars, floats as IEEE-754 bits, so a reload is bit-identical.
    /// A lazy artifact is materialised section by section (every user
    /// record streams through, but at most one at a time beyond the
    /// caches).
    pub fn to_bytes(&self) -> Vec<u8> {
        let out = Cursor::new(Vec::with_capacity(binfmt::encoded_len(self)));
        binfmt::write_artifact(self, out)
            .expect("writing to memory cannot fail")
            .into_inner()
    }

    /// Parses the binary on-disk format ([`crate::BINFMT_VERSION`] only).
    /// Truncated, malformed, or version-mismatched buffers are rejected
    /// with [`ServeError::Artifact`], never a panic.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ServeError> {
        binfmt::decode(buf.len() as u64, binfmt::slice_source(buf))
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
    /// [`ModelArtifact::save_file`], everything up front — the decoder of
    /// [`ModelArtifact::from_bytes`] over one bounded read window instead
    /// of a buffer: tables are decoded, the `users` section is held as it
    /// is encoded (every record checked on the way in), and the file is
    /// never resident beside what is taken from it.
    pub fn load_file(path: impl AsRef<std::path::Path>) -> Result<Self, ServeError> {
        crate::lazy::open_eager(path.as_ref())
    }

    /// Opens an artifact file **lazily**: the header, directories,
    /// `meta`, `popularity`, and `fallback` sections are read and
    /// validated up front, but tier tables and user records stay on disk
    /// until first touch. User records are cached in a sharded bounded
    /// LRU sized by `cfg`, so resident memory is `O(touched)` with a
    /// configurable ceiling — and rankings are bit-identical to the
    /// eager path.
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
        matches!(self.users, UserStore::Lazy(_))
    }

    /// Item universe size.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Number of known users.
    pub fn num_users(&self) -> usize {
        match &self.users {
            UserStore::Held(users) => users.num_users(),
            UserStore::Lazy(lazy) => lazy.num_users(),
        }
    }

    /// How many user records are resident right now: all of them (as
    /// encoded) for an eager artifact, the shard-cache occupancy for a
    /// lazy one.
    pub fn cached_user_records(&self) -> usize {
        match &self.users {
            UserStore::Held(users) => users.num_users(),
            UserStore::Lazy(lazy) => lazy.cached_records(),
        }
    }

    /// One known user's frozen state, or `None` for unknown ids (the
    /// recommender's cold-start path), decoded from its record. An eager
    /// artifact decodes the record it holds on every call; a lazy one
    /// reads it from disk on first touch and keeps it in the user's shard
    /// cache, whose handle this is (the record may be evicted later; the
    /// handle keeps this copy alive).
    pub fn user(&self, user: usize) -> Option<Arc<UserRecord>> {
        match &self.users {
            UserStore::Held(users) => users.get(user).map(Arc::new),
            UserStore::Lazy(lazy) => lazy.user(user),
        }
    }

    /// One tier's frozen item table. On a lazy artifact the first touch
    /// decodes the tier from disk; it stays resident afterwards.
    pub fn table(&self, tier: Tier) -> &Matrix {
        self.params.table(tier)
    }

    /// One tier's frozen predictor (lazily decoded like
    /// [`ModelArtifact::table`]).
    pub fn theta(&self, tier: Tier) -> &Ffn {
        self.params.theta(tier)
    }

    /// One tier table's shape `(rows, cols)` — available without forcing
    /// a lazy tier load (the file's directories carry the shape).
    pub fn table_dims(&self, tier: Tier) -> (usize, usize) {
        self.params.table_dims(tier)
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

impl ExportArtifact for Session {
    fn export_artifact(&self) -> ModelArtifact {
        let server = self.server();
        let meta = session_meta(self);
        let bytes = (0..meta.num_users)
            .map(|u| binfmt::record_len(session_user(self, u)))
            .sum();
        let mut tally = Tally::new(meta.num_items, &meta.dims);
        let users = HeldUsers::encode(meta, bytes, |records| {
            for u in 0..meta.num_users {
                let user = session_user(self, u);
                tally.add(user);
                records.put(user);
            }
        });
        let (popularity, fallback) = tally.finish();
        ModelArtifact::assemble(
            meta,
            Tiers::filled(
                Tier::ALL.map(|t| server.table(t).clone()),
                Tier::ALL.map(|t| server.theta(t).clone()),
            ),
            UserStore::Held(users),
            popularity,
            fallback,
        )
    }

    fn export_artifact_to(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        let server = self.server();
        let meta = session_meta(self);
        binfmt::write_file(path.as_ref(), |out| {
            let mut w = binfmt::ArtifactWriter::begin(out, meta)?;
            w.tables(|tier| [server.table(tier).as_slice()])?;
            w.thetas(Tier::ALL.map(|tier| server.theta(tier)))?;
            let mut tally = Tally::new(meta.num_items, &meta.dims);
            w.users(|records| {
                for u in 0..meta.num_users {
                    let user = session_user(self, u);
                    tally.add(user);
                    records.put(user);
                }
            })?;
            let (popularity, fallback) = tally.finish();
            w.finish(&popularity, &fallback).map(drop)
        })
    }
}

/// The `meta` section of a session's export.
fn session_meta(session: &Session) -> Meta {
    Meta {
        model: session.cfg().model,
        standalone: matches!(session.strategy(), Strategy::Standalone),
        dims: session.cfg().dims,
        num_items: session.split().num_items(),
        num_users: session.split().num_users(),
    }
}

/// One session user's serving state, borrowed from the session.
fn session_user(session: &Session, user: usize) -> UserView<'_> {
    let state = session.user_state(user);
    UserView {
        tier: session.model_groups().tier(user),
        emb: state.emb(),
        history: session.split().user(user).train,
        solo: state.standalone(),
    }
}

/// What an export accumulates as users pass in ascending order: per-item
/// interaction counts, and the per-tier mean user embedding that is the
/// deterministic cold-start fallback (zeros for a tier with no users).
/// Shared by session export and both synthesis paths.
pub(crate) struct Tally {
    popularity: Vec<u32>,
    sums: [Vec<f32>; 3],
    counts: [usize; 3],
}

impl Tally {
    pub(crate) fn new(num_items: usize, dims: &TierDims) -> Self {
        Self {
            popularity: vec![0; num_items],
            sums: std::array::from_fn(|t| vec![0.0f32; dims.dim(Tier::ALL[t])]),
            counts: [0; 3],
        }
    }

    pub(crate) fn add(&mut self, user: UserView<'_>) {
        for &item in user.history {
            self.popularity[item as usize] += 1;
        }
        hf_tensor::ops::axpy_slice(&mut self.sums[user.tier.index()], 1.0, user.emb);
        self.counts[user.tier.index()] += 1;
    }

    /// `(popularity, fallback)`.
    pub(crate) fn finish(mut self) -> (Vec<u32>, [Vec<f32>; 3]) {
        for (f, &n) in self.sums.iter_mut().zip(&self.counts) {
            if n > 0 {
                let inv = 1.0 / n as f32;
                f.iter_mut().for_each(|x| *x *= inv);
            }
        }
        (self.popularity, self.sums)
    }
}
