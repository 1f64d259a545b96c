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
//! out, [`ModelArtifact::to_bytes`], [`ModelArtifact::save_file`] and
//! [`ModelArtifact::session_to_file`] drive the one streaming writer in
//! [`crate::binfmt`]; the file writers never materialise the file and
//! replace their target atomically, and `session_to_file` never
//! materialises the artifact either.
//!
//! **An eager artifact costs what it holds.** Eager user state is one
//! `UserArena`: two flat buffers (every embedding, every history id)
//! plus a tier byte and two end offsets per user, and a sparse map for
//! the standalone baseline's private models — `4·(Σd + ΣI) + 17·U`
//! bytes, whichever constructor filled it, with no per-user allocation.
//! [`ModelArtifact::user`] lends a [`UserView`] into it; the lazy backend
//! lends the same view out of its cached [`UserRecord`]s.
//!
//! The artifact schema itself is versioned ([`ARTIFACT_VERSION`]); it
//! tracks the checkpoint schema it can ingest, so a reader upgrade is an
//! artifact-version bump.

use crate::binfmt::{self, Meta};
use crate::lazy::{LazyConfig, LazyUsers, Tiers};
use crate::ServeError;
use hetefedrec_core::session::Session;
use hetefedrec_core::Strategy;
use hf_dataset::{SplitDataset, Tier};
use hf_models::{Ffn, ModelKind};
use hf_tensor::wire::DecodeError;
use hf_tensor::Matrix;
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::Arc;

use hetefedrec_core::config::TierDims;

/// Artifact schema version. Version 1 snapshots the state of
/// `hetefedrec.checkpoint` v1 documents.
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
    /// Training positives, in split order — drives LightGCN propagation,
    /// default exclusion, and popularity counts.
    pub history: &'a [u32],
    /// Standalone-baseline private model, when the artifact came from a
    /// [`Strategy::Standalone`] run.
    pub solo: Option<&'a SoloModel>,
}

/// One user's frozen serving state, owned: the unit the lazy backend
/// decodes on first touch and caches (fields as in [`UserView`]).
#[derive(Clone, Debug)]
pub struct UserRecord {
    /// The model tier this user is served with.
    pub tier: Tier,
    /// Private user embedding.
    pub emb: Vec<f32>,
    /// Training positives, in split order.
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
}

/// A fetched user: either a view straight into the eager arena, or a
/// shared handle into the lazy store's shard cache (the record may be
/// evicted and re-decoded later; the handle keeps this copy alive).
/// [`UserRef::view`] reads the same either way.
#[derive(Clone, Debug)]
pub enum UserRef<'a> {
    /// Borrowed from the eager arena.
    Borrowed(UserView<'a>),
    /// A cache handle from the lazy sharded backend.
    Cached(Arc<UserRecord>),
}

impl UserRef<'_> {
    /// The user's state, borrowed for as long as this handle lives.
    pub fn view(&self) -> UserView<'_> {
        match self {
            UserRef::Borrowed(view) => *view,
            UserRef::Cached(record) => record.view(),
        }
    }
}

/// Every eager user in two flat buffers: embeddings back to back, history
/// ids back to back, and per user a tier byte and the two offsets its
/// slices end at (they start where the previous user's end). Private
/// standalone models are rare and large, so they sit in a sparse map.
/// Filled in user order through [`UserArena::push_with`] alone.
#[derive(Clone, Debug, Default)]
pub(crate) struct UserArena {
    tiers: Vec<u8>,
    /// `(embs, histories)` lengths once this user is in.
    ends: Vec<(usize, usize)>,
    embs: Vec<f32>,
    histories: Vec<u32>,
    solos: HashMap<usize, SoloModel>,
}

impl UserArena {
    /// An arena with room for exactly `users` users holding `embs`
    /// embedding floats and `ids` history ids between them. A caller
    /// that only has upper bounds follows up with
    /// [`UserArena::shrink_to_fit`]; capacity never written to is never
    /// resident.
    pub(crate) fn with_capacity(users: usize, embs: usize, ids: usize) -> Self {
        Self {
            tiers: Vec::with_capacity(users),
            ends: Vec::with_capacity(users),
            embs: Vec::with_capacity(embs),
            histories: Vec::with_capacity(ids),
            solos: HashMap::new(),
        }
    }

    /// Appends one user: `fill` extends the two flat buffers with the
    /// user's embedding and history and returns its tier and private
    /// model. An error (a decoder's malformed record) passes through and
    /// leaves the arena unusable.
    pub(crate) fn push_with(
        &mut self,
        fill: impl FnOnce(
            &mut Vec<f32>,
            &mut Vec<u32>,
        ) -> Result<(Tier, Option<SoloModel>), DecodeError>,
    ) -> Result<(), DecodeError> {
        let (tier, solo) = fill(&mut self.embs, &mut self.histories)?;
        if let Some(solo) = solo {
            self.solos.insert(self.tiers.len(), solo);
        }
        self.tiers.push(tier.index() as u8);
        self.ends.push((self.embs.len(), self.histories.len()));
        Ok(())
    }

    /// Appends a copy of `user`.
    pub(crate) fn push(&mut self, user: UserView<'_>) {
        self.push_with(|embs, histories| {
            embs.extend_from_slice(user.emb);
            histories.extend_from_slice(user.history);
            Ok((user.tier, user.solo.cloned()))
        })
        .expect("a copy is never malformed");
    }

    pub(crate) fn shrink_to_fit(&mut self) {
        self.embs.shrink_to_fit();
        self.histories.shrink_to_fit();
    }

    pub(crate) fn len(&self) -> usize {
        self.tiers.len()
    }

    pub(crate) fn get(&self, user: usize) -> Option<UserView<'_>> {
        let &(emb_end, history_end) = self.ends.get(user)?;
        let (emb_start, history_start) = match user {
            0 => (0, 0),
            _ => self.ends[user - 1],
        };
        Some(UserView {
            tier: Tier::ALL[self.tiers[user] as usize],
            emb: &self.embs[emb_start..emb_end],
            history: &self.histories[history_start..history_end],
            solo: self.solos.get(&user),
        })
    }

    /// Embedding floats plus history ids held.
    pub(crate) fn scalars(&self) -> usize {
        self.embs.len() + self.histories.len()
    }

    /// Heap bytes held (by capacity), private models aside.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.tiers.capacity()
            + std::mem::size_of::<(usize, usize)>() * self.ends.capacity()
            + 4 * (self.embs.capacity() + self.histories.capacity())
    }
}

/// Where user records live.
#[derive(Clone, Debug)]
pub(crate) enum UserStore {
    /// All users decoded up front (training export, eager file load).
    Eager(UserArena),
    /// Records decoded on first touch from a v2 file, held in a sharded
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
    /// Snapshots a session's current model state into an artifact.
    ///
    /// The session keeps training afterwards if it likes; the artifact is
    /// a deep copy (into an exact-size arena) and never changes.
    pub fn from_session(session: &Session) -> Self {
        let server = session.server();
        let meta = session_meta(session);
        let sizes = (0..meta.num_users).map(|u| session_user(session, u));
        let (embs, ids) = sizes.fold((0, 0), |(embs, ids), user| {
            (embs + user.emb.len(), ids + user.history.len())
        });
        let mut users = UserArena::with_capacity(meta.num_users, embs, ids);
        let mut tally = Tally::new(meta.num_items, &meta.dims);
        for u in 0..meta.num_users {
            let user = session_user(session, u);
            tally.add(user);
            users.push(user);
        }
        let (popularity, fallback) = tally.finish();
        Self::assemble(
            meta,
            Tiers::filled(
                Tier::ALL.map(|t| server.table(t).clone()),
                Tier::ALL.map(|t| server.theta(t).clone()),
            ),
            UserStore::Eager(users),
            popularity,
            fallback,
        )
    }

    /// Streams a session's current model state to `path` without
    /// building the artifact: tables, predictors, embeddings and
    /// histories go from the session's own memory through the one writer,
    /// popularity and the fallback means accumulate as the users pass.
    /// Byte-identical to `from_session(session).save_file(path)` (pinned
    /// by test) and atomic like it.
    pub fn session_to_file(
        session: &Session,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), ServeError> {
        let server = session.server();
        let meta = session_meta(session);
        binfmt::write_file(path.as_ref(), |out| {
            let mut w = binfmt::ArtifactWriter::begin(out, meta)?;
            w.tables(|tier| [server.table(tier).as_slice()])?;
            w.thetas(Tier::ALL.map(|tier| server.theta(tier)))?;
            let mut tally = Tally::new(meta.num_items, &meta.dims);
            w.users(|u, out| {
                let user = session_user(session, u);
                tally.add(user);
                binfmt::put_user(out, user);
            })?;
            let (popularity, fallback) = tally.finish();
            w.finish(&popularity, &fallback).map(drop)
        })
    }

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

    /// Rebuilds an artifact from a `hetefedrec.checkpoint` document (any
    /// schema version [`Session::restore`] accepts, v1–v4), using the
    /// `hf_tensor::ser` reader. The caller supplies the identically
    /// generated split — the checkpoint stores only model state, not the
    /// dataset.
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
        let out = Cursor::new(Vec::with_capacity(binfmt::encoded_len(self)));
        binfmt::write_artifact(self, out)
            .expect("writing to memory cannot fail")
            .into_inner()
    }

    /// Parses the binary on-disk format (either container version).
    /// Truncated, malformed, or version-mismatched buffers are rejected
    /// with [`ServeError::Artifact`], never a panic.
    pub fn from_bytes(buf: &[u8]) -> Result<Self, ServeError> {
        binfmt::decode(buf.len() as u64, |off, len| {
            let (off, len) = (usize::try_from(off).ok(), usize::try_from(len).ok());
            (off.zip(len))
                .and_then(|(off, len)| buf.get(off..off.checked_add(len)?))
                .ok_or_else(|| binfmt::err("read past the end of the buffer"))
        })
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
    /// [`ModelArtifact::save_file`], decoding everything up front — the
    /// decoder of [`ModelArtifact::from_bytes`] over a bounded read
    /// window instead of a buffer, so the file is never resident beside
    /// what is decoded from it.
    pub fn load_file(path: impl AsRef<std::path::Path>) -> Result<Self, ServeError> {
        crate::lazy::open_eager(path.as_ref())
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
        matches!(self.users, UserStore::Lazy(_))
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
        self.params.table(tier)
    }

    /// One tier's frozen predictor (lazily decoded like
    /// [`ModelArtifact::table`]).
    pub fn theta(&self, tier: Tier) -> &Ffn {
        self.params.theta(tier)
    }

    /// One tier table's shape `(rows, cols)` — available without forcing
    /// a lazy tier load (v2 directories carry the shape).
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
        emb: &state.emb,
        history: &session.split().user(user).train,
        solo: state.standalone.as_ref(),
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
