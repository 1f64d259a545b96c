//! Lazy, file-backed artifact state.
//!
//! The `HFAB` container ([`crate::binfmt`]) is offset-indexed, so a serving
//! host never has to materialise the whole artifact: this module keeps
//! the file open and decodes state on first touch —
//!
//! * `Tiers` — per-tier item tables and predictors, one fill-once
//!   `OnceLock` slot each: a tier costs nothing until the first request
//!   for it, then stays resident (tables are shared, hot, and bounded at
//!   three). An eager artifact is the same store with every slot filled
//!   at construction and no file behind it.
//! * `LazyUsers` — per-user records behind a **sharded bounded LRU**:
//!   user `u` hashes to shard `u % shards`, each shard caches at most
//!   `shard_capacity` decoded records and evicts least-recently-used, so
//!   resident user state is capped at `shards × capacity` records no
//!   matter how many users the file holds.
//!
//! The layout itself is [`crate::binfmt`]'s business: opening runs the
//! same `binfmt::scan` as the eager decoder (over the file instead of
//! a buffer), which validates every offset and length against the file
//! size **before any allocation**, and touches go through the same
//! payload decoders — so a hostile file fails with
//! [`ServeError::Artifact`], never an OOM, and a record fetched lazily
//! is bit-identical to its eager twin (`tests/lazy_serving.rs` pins it).
//!
//! The *eager* file load lives here too, because it is the same decoder
//! over the same file handle: `open_eager` hands `binfmt::decode` a
//! `ReadWindow` source — one bounded buffer, refilled as the decoder
//! moves on — so the decoder takes the tables and the `users` section in
//! piece by piece and the file is never resident beside what is taken
//! from it. Either way a
//! user is read by decoding its one record through `UserIndex::get`: from
//! the file here, from the held section on an eager artifact.
//!
//! Failure discipline: *structure* (headers, directories, shapes) is
//! validated at open and returns errors; a payload that fails to decode
//! at touch means the file was truncated or rewritten underneath a
//! running server, and panics with a message naming the file. Serving
//! from a file being modified in place is not supported
//! ([`ModelArtifact::save_file`] replaces files by rename, which is).

use crate::artifact::{ModelArtifact, UserRecord, UserStore};
use crate::binfmt::{self, err, Extent, Meta, UserIndex};
use crate::ServeError;
use hf_dataset::Tier;
use hf_models::Ffn;
use hf_tensor::Matrix;
use std::cell::{Ref, RefCell};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read as _, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// Tuning for the lazy artifact backend.
#[derive(Clone, Copy, Debug)]
pub struct LazyConfig {
    /// Number of user-cache shards (user `u` lives in shard
    /// `u % user_shards`).
    pub user_shards: usize,
    /// Maximum decoded records held per shard; beyond it the
    /// least-recently-used record is evicted. Total resident user state
    /// is therefore at most `user_shards × shard_capacity` records.
    pub shard_capacity: usize,
}

impl Default for LazyConfig {
    fn default() -> Self {
        Self {
            user_shards: 64,
            shard_capacity: 256,
        }
    }
}

/// A shared handle on the artifact file. Reads seek under a mutex —
/// portable (no pread on stable std), and the hot serving path only
/// touches it on cache misses, which the determinism contract requires
/// to be off the fan-out anyway (user resolution is serial).
#[derive(Debug)]
pub(crate) struct ArtifactFile {
    path: PathBuf,
    len: u64,
    file: Mutex<File>,
}

impl ArtifactFile {
    fn open(path: &Path) -> Result<Self, ServeError> {
        let file =
            File::open(path).map_err(|e| err(format!("cannot open {}: {e}", path.display())))?;
        let len = file
            .metadata()
            .map_err(|e| err(format!("cannot stat {}: {e}", path.display())))?
            .len();
        Ok(Self {
            path: path.to_path_buf(),
            len,
            file: Mutex::new(file),
        })
    }

    /// `len` as a buffer size, once `off..off + len` is known to lie
    /// inside the file — checked *before* any buffer is sized by it.
    fn in_bounds(&self, off: u64, len: u64) -> Result<usize, ServeError> {
        let end = off.checked_add(len).filter(|&e| e <= self.len);
        let n = usize::try_from(len).ok().filter(|_| end.is_some());
        n.ok_or_else(|| {
            err(format!(
                "{}: read of {len} bytes at offset {off} exceeds file size {}",
                self.path.display(),
                self.len
            ))
        })
    }

    /// Fills `buf` from absolute offset `off`.
    fn read_into(&self, off: u64, buf: &mut [u8]) -> Result<(), ServeError> {
        let mut f = self.file.lock().expect("artifact file lock");
        f.seek(SeekFrom::Start(off))
            .and_then(|_| f.read_exact(buf))
            .map_err(|e| err(format!("{}: read failed: {e}", self.path.display())))
    }

    /// Reads exactly `len` bytes at absolute offset `off` into a buffer
    /// of their own.
    fn read(&self, off: u64, len: u64) -> Result<Vec<u8>, ServeError> {
        let mut buf = vec![0u8; self.in_bounds(off, len)?];
        self.read_into(off, &mut buf)?;
        Ok(buf)
    }

    /// Touch-time decode of one payload whose structure was validated at
    /// open: a failure means the file changed underneath the server.
    fn touch<T>(
        &self,
        what: std::fmt::Arguments,
        decode: impl FnOnce() -> Result<T, ServeError>,
    ) -> T {
        decode().unwrap_or_else(|e| {
            panic!(
                "lazy artifact {}: {what} no longer decodes (file modified in place?): {e}",
                self.path.display()
            )
        })
    }
}

// ---------------------------------------------------------------------
// Eager load through a bounded read window
// ---------------------------------------------------------------------

/// Bytes a window holds after a refill (a request for more gets more).
const WINDOW: u64 = 128 << 10;
const _: () = assert!(binfmt::READ_CHUNK <= WINDOW);

/// The eager decoder's view of a file: `read` lends bytes out of one
/// window, refilled from the requested offset forward when it does not
/// hold them, so a sequential walk costs one `read` call per [`WINDOW`]
/// bytes. The decoder drops each piece before it asks for the next (the
/// scan parses one directory before it reads another).
struct ReadWindow<'f> {
    file: &'f ArtifactFile,
    /// The file's bytes from `.0` on.
    window: RefCell<(u64, Vec<u8>)>,
}

impl ReadWindow<'_> {
    fn read(&self, off: u64, len: u64) -> Result<Ref<'_, [u8]>, ServeError> {
        self.file.in_bounds(off, len)?;
        let mut window = (self.window.try_borrow_mut())
            .expect("the decoder drops each piece of the file before it asks for the next");
        let (at, buf) = &mut *window;
        if off < *at || off + len > *at + buf.len() as u64 {
            *at = off;
            buf.resize(len.max(WINDOW.min(self.file.len - off)) as usize, 0);
            self.file.read_into(off, buf)?;
        }
        let start = (off - *at) as usize;
        drop(window);
        Ok(Ref::map(self.window.borrow(), |(_, buf)| {
            &buf[start..start + len as usize]
        }))
    }
}

/// Loads an artifact file eagerly; see [`ModelArtifact::load_file`].
pub(crate) fn open_eager(path: &Path) -> Result<ModelArtifact, ServeError> {
    let file = ArtifactFile::open(path)?;
    let source = ReadWindow {
        file: &file,
        // Sized once, so refills allocate nothing; what a small file
        // never fills is never resident.
        window: RefCell::new((0, Vec::with_capacity(WINDOW as usize))),
    };
    binfmt::decode(file.len, |off, len| source.read(off, len))
}

// ---------------------------------------------------------------------
// Tier tables / predictors
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct TierSlots {
    tables: [OnceLock<Matrix>; 3],
    thetas: [OnceLock<Ffn>; 3],
}

/// Per-tier item tables and predictors, one fill-once slot each: filled
/// at construction, or decoded from the artifact file on first touch.
#[derive(Clone, Debug)]
pub(crate) struct Tiers {
    slots: Arc<TierSlots>,
    /// Table shapes `(rows, cols)`, known without a decode.
    shapes: [(usize, usize); 3],
    /// The file unset slots decode from, with each tier's table and
    /// predictor extents; `None` when every slot was filled up front.
    file: Option<(Arc<ArtifactFile>, [Extent; 3], [Extent; 3])>,
}

const FILLED: &str = "a store with no file behind it was filled at construction";

impl Tiers {
    /// A store holding `tables` and `thetas` from the start.
    pub(crate) fn filled(tables: [Matrix; 3], thetas: [Ffn; 3]) -> Self {
        Self {
            shapes: tables.each_ref().map(|t| (t.rows(), t.cols())),
            slots: Arc::new(TierSlots {
                tables: tables.map(OnceLock::from),
                thetas: thetas.map(OnceLock::from),
            }),
            file: None,
        }
    }

    pub(crate) fn table(&self, tier: Tier) -> &Matrix {
        let t = tier.index();
        self.slots.tables[t].get_or_init(|| {
            let (file, tables, _) = self.file.as_ref().expect(FILLED);
            file.touch(format_args!("{tier:?} table"), || {
                binfmt::read_table(tables[t], self.shapes[t], "payload", |off, len| {
                    file.read(off, len)
                })
            })
        })
    }

    pub(crate) fn theta(&self, tier: Tier) -> &Ffn {
        let t = tier.index();
        self.slots.thetas[t].get_or_init(|| {
            let (file, _, thetas) = self.file.as_ref().expect(FILLED);
            let (off, len) = thetas[t];
            file.touch(format_args!("{tier:?} predictor"), || {
                binfmt::exactly(&file.read(off, len)?, "payload", binfmt::get_ffn)
            })
        })
    }

    /// Table shape — no decode forced.
    pub(crate) fn table_dims(&self, tier: Tier) -> (usize, usize) {
        self.shapes[tier.index()]
    }
}

// ---------------------------------------------------------------------
// Lazy sharded user store
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct ShardCache {
    /// Monotonic use counter; the entry with the smallest stamp is the
    /// least recently used.
    tick: u64,
    map: HashMap<usize, (u64, Arc<UserRecord>)>,
}

#[derive(Debug)]
struct Shard {
    cap: usize,
    inner: Mutex<ShardCache>,
}

/// User records decoded on first touch, cached in a sharded bounded LRU.
#[derive(Clone, Debug)]
pub(crate) struct LazyUsers {
    file: Arc<ArtifactFile>,
    meta: Meta,
    index: UserIndex,
    shards: Arc<Vec<Shard>>,
}

impl LazyUsers {
    pub(crate) fn num_users(&self) -> usize {
        self.meta.num_users
    }

    pub(crate) fn cached_records(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.inner.lock().expect("shard lock").map.len())
            .sum()
    }

    pub(crate) fn user(&self, user: usize) -> Option<Arc<UserRecord>> {
        if user >= self.meta.num_users {
            return None;
        }
        let shard = &self.shards[user % self.shards.len()];
        let mut cache = shard.inner.lock().expect("shard lock");
        cache.tick += 1;
        let stamp = cache.tick;
        if let Some((tick, record)) = cache.map.get_mut(&user) {
            *tick = stamp;
            return Some(record.clone());
        }
        let record = Arc::new(self.fetch(user));
        if cache.map.len() >= shard.cap {
            // Evict the least-recently-used record. Linear scan: shard
            // capacities are small (hundreds), misses are already an
            // I/O, and this keeps the structure a plain HashMap.
            if let Some(&lru) = cache
                .map
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(u, _)| u)
            {
                cache.map.remove(&lru);
            }
        }
        cache.map.insert(user, (stamp, record.clone()));
        Some(record)
    }

    /// Decodes one record from disk — directory entry, then payload —
    /// past the cache: what [`LazyUsers::user`] does on a miss, and what
    /// a re-encode does for every user, so that writing a serving
    /// artifact out does not replace its hot set.
    pub(crate) fn fetch(&self, user: usize) -> UserRecord {
        self.file.touch(format_args!("user {user}"), || {
            self.index
                .get(user, &self.meta, |off, len| self.file.read(off, len))
        })
    }

    pub(crate) fn index(&self) -> &UserIndex {
        &self.index
    }
}

// ---------------------------------------------------------------------
// Opening
// ---------------------------------------------------------------------

/// Opens an artifact lazily; see [`ModelArtifact::load_file_lazy`].
pub(crate) fn open_lazy(path: &Path, cfg: LazyConfig) -> Result<ModelArtifact, ServeError> {
    if cfg.user_shards == 0 {
        return Err(ServeError::config("user_shards", "must be at least 1"));
    }
    if cfg.shard_capacity == 0 {
        return Err(ServeError::config("shard_capacity", "must be at least 1"));
    }

    let file = Arc::new(ArtifactFile::open(path)?);
    let layout = binfmt::scan(file.len, |off, len| file.read(off, len))?;

    let shards = (0..cfg.user_shards)
        .map(|_| Shard {
            cap: cfg.shard_capacity,
            inner: Mutex::new(ShardCache::default()),
        })
        .collect::<Vec<_>>();

    Ok(ModelArtifact::assemble(
        layout.meta,
        Tiers {
            slots: Arc::default(),
            shapes: layout.tables.map(|(_, shape)| shape),
            file: Some((
                file.clone(),
                layout.tables.map(|(extent, _)| extent),
                layout.thetas,
            )),
        },
        UserStore::Lazy(LazyUsers {
            file,
            meta: layout.meta,
            index: layout.users,
            shards: Arc::new(shards),
        }),
        layout.popularity,
        layout.fallback,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ItemHalfMode, RecommendRequest, RecommenderBuilder};
    use hetefedrec_core::config::TierDims;
    use hf_dataset::SyntheticProfile;

    #[test]
    fn tier_tables_decode_when_the_item_half_budget_asks_for_them() {
        let path = std::env::temp_dir().join(format!("hf_tiers_{}.hfa", std::process::id()));
        let profile = SyntheticProfile::new(30, 100);
        ModelArtifact::synthesize_to_file(&profile, TierDims::new(4, 8, 16), 9, &path).unwrap();
        let decoded = |a: &ModelArtifact| {
            let tables = a.params.slots.tables.iter();
            tables.filter(|t| t.get().is_some()).count()
        };
        let build = |mode| {
            let lazy = ModelArtifact::load_file_lazy(&path, LazyConfig::default()).unwrap();
            assert_eq!(decoded(&lazy), 0, "opening decodes no table");
            RecommenderBuilder::new(lazy)
                .panel_items(64)
                .item_half_mode(mode)
                .build()
                .unwrap()
        };

        // Every tile is filled at build(), which reads every table.
        let precomputed = build(ItemHalfMode::Precomputed);
        assert_eq!(decoded(precomputed.artifact()), 3);
        assert_eq!(precomputed.cached_item_half_panels(), 3 * 2);
        assert_eq!(precomputed.item_half_tiles(), 3 * 2);

        // No tile is wanted until a request is, and then only its tier's.
        let lean = build(ItemHalfMode::Tiled { max_panels: 1 });
        assert_eq!(decoded(lean.artifact()), 0);
        let response = lean.recommend(&RecommendRequest::new(0));
        assert_eq!(decoded(lean.artifact()), 1);
        assert_eq!(lean.cached_item_half_panels(), 1);
        assert_eq!(response, precomputed.recommend(&RecommendRequest::new(0)));

        // An eager artifact is the same store, filled at load.
        assert_eq!(decoded(&ModelArtifact::load_file(&path).unwrap()), 3);
        std::fs::remove_file(&path).ok();
    }
}
