//! The `HFAB` codec: the compact binary on-disk format of a
//! [`ModelArtifact`], and the only module that knows its layout.
//!
//! Serving hosts boot from this file, not from a training checkpoint:
//! it holds exactly the artifact fields, encoded through the
//! workspace-wide little-endian [`hf_tensor::wire`] primitives, floats as
//! raw IEEE-754 bits so a reload is **bit-identical** to the export.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic       b"HFAB"
//! container   u16   BINFMT_VERSION (3; nothing else decodes)
//! schema      u32   ARTIFACT_VERSION the payload snapshots
//! sections    tag:u8  len:u64  payload:[u8; len]   (repeated until EOF)
//! ```
//!
//! Each of the six sections (`meta`, `tables`, `thetas`, `users`,
//! `popularity`, `fallback`) appears exactly once; unknown tags and
//! duplicates are errors. The three large sections open with an offset
//! directory so [`crate::lazy`] can seek to one tier or one user:
//!
//! * `tables` — `3 × (off: u64, len: u64, rows: u64, cols: u32)`, then
//!   the matrix payloads;
//! * `thetas` — `3 × (off: u64, len: u64)`, then the predictor payloads;
//! * `users` — `num_users × end: u64`, then the records: user `u`'s is
//!   `end(u − 1)..end(u)` (the first starts at 0).
//!
//! Offsets are relative to the payload block after the directory, and
//! directories are canonical (contiguous, in tier/user order, covering
//! the block exactly), so `encode(decode(b)) == b`. A user record is
//!
//! ```text
//! tier     u8
//! emb      dim(tier) × f32
//! history  count: uleb, then ids as gaps      (strictly ascending)
//! solo     u8   0 | 1, then predictor, rows: uleb, rows × (key gap: uleb, dim × f32)
//! ```
//!
//! where a strictly ascending id list travels as its first id, then each
//! `id − prev − 1`, every one a canonical ULEB128 — about a byte an id
//! where a raw `u32` takes four. The reader accepts the version this
//! module writes and nothing else: a file stamped with any other container
//! version is refused by its header.
//!
//! There is **one writer** — `ArtifactWriter`, streaming over any
//! `Write + Seek` sink and driven by `to_bytes`, `save_file`,
//! `export_artifact_to` and `synthesize_to_file` — **one layout scan** —
//! `scan`, over any random-access byte source, the front half of both
//! the eager decoder and the lazy open — **one eager decoder** —
//! `decode`, over the same kind of source: a slice for `from_bytes`, one
//! bounded read window over the file for `load_file`
//! (`crate::lazy::open_eager`) — and **one user-record form**: the
//! `users` section as the writer frames it. An eager artifact holds that
//! section in memory (`HeldUsers`), the lazy one leaves it on disk, and
//! either way a user is read by decoding its one record through
//! `UserIndex::get`. The scan validates every declared length against
//! the bytes remaining *before* a payload is touched, and the decoder
//! checks the `users` directory before it sizes the held copy by the
//! validated section length, so hostile inputs fail with
//! [`ServeError::Artifact`] instead of panicking or over-allocating, and
//! a valid file costs its payload to load. Scan and decoder each drop a
//! piece they are lent before they ask for the next, so one read window
//! serves a whole file load.

use crate::artifact::{
    ModelArtifact, SoloModel, UserRecord, UserStore, UserView, ARTIFACT_VERSION,
};
use crate::lazy::Tiers;
use crate::ServeError;
use hetefedrec_core::config::TierDims;
use hf_dataset::Tier;
use hf_models::{Ffn, ModelKind};
use hf_tensor::wire::{DecodeError, Reader, Writer};
use hf_tensor::{Matrix, RowBlock};
use std::fs::File;
use std::io::{self, BufWriter, Read as _, Seek, SeekFrom, Write};
use std::ops::Deref;
use std::path::Path;

/// File magic: "HeteFedrec Artifact Binary".
const MAGIC: &[u8; 4] = b"HFAB";

/// Container format version this module writes, and the only one the
/// reader accepts.
pub const BINFMT_VERSION: u16 = 3;

/// Section tags (all mandatory, each exactly once).
const SEC_META: u8 = 1;
const SEC_TABLES: u8 = 2;
const SEC_THETAS: u8 = 3;
const SEC_USERS: u8 = 4;
const SEC_POPULARITY: u8 = 5;
const SEC_FALLBACK: u8 = 6;
const SECTION_NAMES: [&str; 7] = [
    "",
    "meta",
    "tables",
    "thetas",
    "users",
    "popularity",
    "fallback",
];

/// Bytes before the first section: magic + container + schema.
const HEADER_LEN: u64 = 4 + 2 + 4;
/// Bytes of the `meta` payload: model, standalone, three dims, two counts.
const META_LEN: u64 = 1 + 1 + 3 * 4 + 8 + 8;
/// Bytes of one section header: tag + length.
const SECTION_HEADER_LEN: u64 = 1 + 8;
/// Bytes of one `users` directory entry: `end: u64`.
const USER_DIR_ENTRY: u64 = 8;
/// Bytes of one `tables` directory entry: `off, len, rows: u64, cols: u32`.
const TABLE_DIR_ENTRY: u64 = 8 + 8 + 8 + 4;
/// Bytes of one `thetas` directory entry: `off: u64, len: u64`.
const THETA_DIR_ENTRY: u64 = 8 + 8;

/// The most the eager decoder asks its source for at once while it walks
/// a table or the `users` section — what lets a file-backed source keep
/// a bounded window. Whole floats and whole directory entries, so a table
/// and the `users` directory split on scalar boundaries.
pub(crate) const READ_CHUNK: u64 = 96 << 10;
const _: () = assert!(READ_CHUNK.is_multiple_of(USER_DIR_ENTRY));

/// Scalars framed per `write_all` when a table or popularity vector
/// streams out — bounds the writer's scratch buffer at 256 KiB.
const SCALARS_PER_WRITE: usize = 1 << 16;

pub(crate) fn err(msg: impl Into<String>) -> ServeError {
    ServeError::Artifact(msg.into())
}

/// Decoded `meta` section.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Meta {
    pub model: ModelKind,
    pub standalone: bool,
    pub dims: TierDims,
    pub num_items: usize,
    pub num_users: usize,
}

/// A byte range `(offset, length)`, absolute within the artifact.
pub(crate) type Extent = (u64, u64);

/// One tier's matrix payload and the `(rows, cols)` its directory entry
/// declares.
pub(crate) type TableEntry = (Extent, (usize, usize));

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// The one `HFAB` writer. It streams the v3 container front to back —
/// [`begin`](Self::begin), [`tables`](Self::tables),
/// [`thetas`](Self::thetas), [`users`](Self::users),
/// [`finish`](Self::finish), each exactly once and in that order — and
/// holds one table chunk or user record at a time plus the 8 B/user
/// directory, whatever the sink.
pub(crate) struct ArtifactWriter<W: Write + Seek> {
    out: W,
    meta: Meta,
    /// Reused frame buffer: a record or chunk is encoded here, then
    /// handed to `out` in one `write_all`.
    scratch: Writer,
}

impl<W: Write + Seek> ArtifactWriter<W> {
    /// Writes the file header and the `meta` section.
    pub(crate) fn begin(out: W, meta: Meta) -> io::Result<Self> {
        let mut w = Self {
            out,
            meta,
            scratch: Writer::new(),
        };
        let mut head = Writer::new();
        head.put_bytes(MAGIC);
        head.put_u16_le(BINFMT_VERSION);
        head.put_u32_le(ARTIFACT_VERSION as u32);
        w.out.write_all(head.as_slice())?;

        let mut m = Writer::new();
        m.put_u8(model_tag(meta.model));
        m.put_u8(meta.standalone as u8);
        for tier in Tier::ALL {
            m.put_u32_le(meta.dims.dim(tier) as u32);
        }
        m.put_u64_le(meta.num_items as u64);
        m.put_u64_le(meta.num_users as u64);
        w.small_section(SEC_META, &[&m])?;
        Ok(w)
    }

    /// Writes one section header — the only place a tag and length are
    /// framed.
    fn section_header(&mut self, tag: u8, len: u64) -> io::Result<()> {
        let mut head = [tag; SECTION_HEADER_LEN as usize];
        head[1..].copy_from_slice(&len.to_le_bytes());
        self.out.write_all(&head)
    }

    /// A section assembled in memory (everything but the big payloads).
    fn small_section(&mut self, tag: u8, parts: &[&Writer]) -> io::Result<()> {
        self.section_header(tag, parts.iter().map(|p| p.len() as u64).sum())?;
        parts
            .iter()
            .try_for_each(|p| self.out.write_all(p.as_slice()))
    }

    /// Streams scalars through the scratch buffer in bounded chunks.
    fn put_scalars<T: Copy>(&mut self, xs: &[T], put: impl Fn(&mut Writer, T)) -> io::Result<()> {
        for chunk in xs.chunks(SCALARS_PER_WRITE) {
            self.scratch.clear();
            chunk.iter().for_each(|&x| put(&mut self.scratch, x));
            self.out.write_all(self.scratch.as_slice())?;
        }
        Ok(())
    }

    /// Writes the `tables` section: `chunks(tier)` yields that tier's
    /// row-major floats in any number of pieces. The directory is
    /// analytic (an `r × c` matrix payload is `12 + 4rc` bytes), so
    /// nothing is buffered. Returns the section's payload length.
    pub(crate) fn tables<C: AsRef<[f32]>, I: IntoIterator<Item = C>>(
        &mut self,
        mut chunks: impl FnMut(Tier) -> I,
    ) -> io::Result<u64> {
        let Meta {
            num_items: rows,
            dims,
            ..
        } = self.meta;
        let mut dir = Writer::new();
        let mut off = 0u64;
        for tier in Tier::ALL {
            let len = 12 + 4 * (rows * dims.dim(tier)) as u64;
            dir.put_u64_le(off);
            dir.put_u64_le(len);
            dir.put_u64_le(rows as u64);
            dir.put_u32_le(dims.dim(tier) as u32);
            off += len;
        }
        let section_len = dir.len() as u64 + off;
        self.section_header(SEC_TABLES, section_len)?;
        self.out.write_all(dir.as_slice())?;
        for tier in Tier::ALL {
            let mut shape = Writer::new();
            shape.put_u64_le(rows as u64);
            shape.put_u32_le(dims.dim(tier) as u32);
            self.out.write_all(shape.as_slice())?;
            let mut written = 0;
            for chunk in chunks(tier) {
                written += chunk.as_ref().len();
                self.put_scalars(chunk.as_ref(), Writer::put_f32_le)?;
            }
            assert_eq!(written, rows * dims.dim(tier), "{tier:?} table shape");
        }
        Ok(section_len)
    }

    /// Writes the `thetas` section (small: framed whole).
    pub(crate) fn thetas(&mut self, thetas: [&Ffn; 3]) -> io::Result<()> {
        let (mut dir, mut block) = (Writer::new(), Writer::new());
        for theta in thetas {
            let off = block.len();
            put_ffn(&mut block, theta);
            dir.put_u64_le(off as u64);
            dir.put_u64_le((block.len() - off) as u64);
        }
        self.small_section(SEC_THETAS, &[&dir, &block])
    }

    /// Writes the `users` section: `produce` pushes the `meta.num_users`
    /// records, in user order, through the [`UserRecords`] it is lent.
    /// Record lengths are only known once encoded, so the section length
    /// and the directory are written as placeholders and back-patched
    /// after the last record. Returns the payload length, or the first
    /// failed write's error once `produce` has returned.
    pub(crate) fn users(
        &mut self,
        produce: impl FnOnce(&mut UserRecords<'_, W>),
    ) -> io::Result<u64> {
        let at = self.out.stream_position()?;
        let dir_len = self.meta.num_users as u64 * USER_DIR_ENTRY;
        self.section_header(SEC_USERS, 0)?;
        io::copy(&mut io::repeat(0).take(dir_len), &mut self.out)?;
        let mut records = UserRecords {
            out: &mut self.out,
            scratch: &mut self.scratch,
            ends: Vec::with_capacity(self.meta.num_users),
            written: Ok(()),
        };
        produce(&mut records);
        let ends = records.finish(self.meta.num_users)?;
        let end = ends.last().copied().unwrap_or(0);
        self.out.seek(SeekFrom::Start(at))?;
        self.section_header(SEC_USERS, dir_len + end)?;
        self.put_scalars(&ends, Writer::put_u64_le)?;
        self.out.seek(SeekFrom::End(0))?;
        Ok(dir_len + end)
    }

    /// Writes a `users` section whose payload is already framed (a
    /// [`HeldUsers`]' bytes), as is. Returns the payload length.
    fn users_framed(&mut self, payload: &[u8]) -> io::Result<u64> {
        self.section_header(SEC_USERS, payload.len() as u64)?;
        self.out.write_all(payload)?;
        Ok(payload.len() as u64)
    }

    /// Writes `popularity` and `fallback`, flushes, and returns the sink
    /// with the total bytes written.
    pub(crate) fn finish(
        mut self,
        popularity: &[u32],
        fallback: &[Vec<f32>; 3],
    ) -> io::Result<(W, u64)> {
        assert_eq!(popularity.len(), self.meta.num_items, "popularity length");
        self.section_header(SEC_POPULARITY, 4 * popularity.len() as u64)?;
        self.put_scalars(popularity, Writer::put_u32_le)?;
        let mut w = Writer::new();
        for f in fallback {
            w.put_u32_le(f.len() as u32);
            f.iter().for_each(|&x| w.put_f32_le(x));
        }
        self.small_section(SEC_FALLBACK, &[&w])?;
        self.out.flush()?;
        let len = self.out.stream_position()?;
        Ok((self.out, len))
    }
}

/// The records of the `users` section, pushed by its producer in user
/// order (lent by [`ArtifactWriter::users`]). Once a write has failed,
/// every later record is dropped unencoded.
pub(crate) struct UserRecords<'a, W> {
    out: &'a mut W,
    scratch: &'a mut Writer,
    /// Where each record so far ends, counted from the first one's start.
    ends: Vec<u64>,
    written: io::Result<()>,
}

impl<W: Write> UserRecords<'_, W> {
    /// Pushes the next user's record.
    pub(crate) fn put(&mut self, user: UserView<'_>) {
        self.put_with(|out| put_user(out, user));
    }

    /// Pushes the next record as `encode` writes it: the raw form
    /// [`put`](Self::put) is built on, through one reused frame buffer.
    pub(crate) fn put_with(&mut self, encode: impl FnOnce(&mut Writer)) {
        if self.written.is_ok() {
            self.scratch.clear();
            encode(self.scratch);
            self.written = self.out.write_all(self.scratch.as_slice());
            self.ends
                .push(self.ends.last().unwrap_or(&0) + self.scratch.len() as u64);
        }
    }

    /// Where each of the `num_users` records ends, or the first failed
    /// write's error.
    fn finish(self, num_users: usize) -> io::Result<Vec<u64>> {
        self.written?;
        assert_eq!(self.ends.len(), num_users, "one record a user");
        Ok(self.ends)
    }
}

/// Streams an artifact (eager or lazy) through the writer. A held
/// `users` section goes out as it is held; a lazy artifact's records are
/// decoded past its user cache and re-encoded, so re-encoding a serving
/// artifact leaves its hot set alone (and a file the decoder accepts
/// re-encodes to its own bytes only if every record it accepts is
/// canonical — which the fuzz test holds the two paths to).
pub(crate) fn write_artifact<W: Write + Seek>(a: &ModelArtifact, out: W) -> io::Result<W> {
    let mut w = ArtifactWriter::begin(out, a.meta())?;
    w.tables(|tier| [a.table(tier).as_slice()])?;
    w.thetas(Tier::ALL.map(|tier| a.theta(tier)))?;
    match &a.users {
        UserStore::Held(held) => w.users_framed(&held.payload),
        UserStore::Lazy(lazy) => {
            w.users(|records| (0..a.num_users()).for_each(|u| records.put(lazy.fetch(u).view())))
        }
    }?;
    Ok(w.finish(&a.popularity, &a.fallback)?.0)
}

/// The bytes `a` encodes to — what `to_bytes` reserves, so the buffer is
/// allocated once.
pub(crate) fn encoded_len(a: &ModelArtifact) -> usize {
    let meta = a.meta();
    let widths: usize = Tier::ALL.iter().map(|&t| meta.dims.dim(t)).sum();
    let thetas: usize = Tier::ALL.iter().map(|&t| ffn_len(a.theta(t))).sum();
    let users = match &a.users {
        UserStore::Held(held) => held.payload.len(),
        UserStore::Lazy(lazy) => lazy.index().section_len() as usize,
    };
    let framing = HEADER_LEN + 6 * SECTION_HEADER_LEN + META_LEN;
    let directories = 3 * (TABLE_DIR_ENTRY + THETA_DIR_ENTRY);
    // Each table opens with `rows: u64, cols: u32`, each fallback with
    // its `u32` length.
    let tables = 3 * 12 + 4 * meta.num_items * widths;
    let popularity_and_fallback = 4 * meta.num_items + 3 * 4 + 4 * widths;
    (framing + directories) as usize + tables + thetas + users + popularity_and_fallback
}

/// [`hf_tensor::wire::write_file`] (sibling `<path>.tmp`, flush,
/// `rename`, temp removed on error) with the failure as a [`ServeError`].
pub(crate) fn write_file<T>(
    path: &Path,
    body: impl FnOnce(BufWriter<File>) -> io::Result<T>,
) -> Result<T, ServeError> {
    hf_tensor::wire::write_file(path, body)
        .map_err(|e| err(format!("cannot write {}: {e}", path.display())))
}

/// Encodes one user record (the `users` directory indexes these bytes).
///
/// # Panics
/// If the history is not strictly ascending — every producer keeps it
/// so, and the file must not hold what the decoder refuses.
fn put_user(w: &mut Writer, user: UserView<'_>) {
    w.put_u8(user.tier.index() as u8);
    for &x in user.emb {
        w.put_f32_le(x);
    }
    w.put_uleb32(user.history.len() as u32);
    gaps(user.history.iter().copied()).for_each(|gap| w.put_uleb32(gap));
    match user.solo {
        None => w.put_u8(0),
        Some(solo) => {
            w.put_u8(1);
            put_ffn(w, &solo.theta);
            assert_eq!(solo.rows.dim(), user.emb.len(), "private row width");
            w.put_uleb32(solo.rows.len() as u32);
            for (gap, (_, row)) in gaps(solo.rows.iter().map(|(&item, _)| item)).zip(&solo.rows) {
                w.put_uleb32(gap);
                row.iter().for_each(|&x| w.put_f32_le(x));
            }
        }
    }
}

/// The codes of a strictly ascending id list: the first id, then each
/// `id − prev − 1` — small numbers, so a ULEB128 each is about a byte.
fn gaps(ids: impl IntoIterator<Item = u32>) -> impl Iterator<Item = u32> {
    let mut next = 0u64;
    ids.into_iter().map(move |id| {
        let gap = (u64::from(id).checked_sub(next)).expect("item ids must be strictly ascending");
        next = u64::from(id) + 1;
        gap as u32
    })
}

/// Bytes of `x` as a ULEB128.
fn uleb_len(x: u32) -> usize {
    (32 - (x | 1).leading_zeros() as usize).div_ceil(7)
}

/// Bytes of `n` ascending ids as [`put_user`] codes them: the count, then
/// the gaps.
fn ids_len(n: usize, ids: impl IntoIterator<Item = u32>) -> usize {
    uleb_len(n as u32) + gaps(ids).map(uleb_len).sum::<usize>()
}

/// Bytes [`put_ffn`] encodes `ffn` to.
fn ffn_len(ffn: &Ffn) -> usize {
    4 + 4 * ffn.dims().len() + 8 + 4 * ffn.num_params()
}

/// Bytes [`put_user`] encodes `user` to: the tier and solo bytes, the
/// embedding, the coded history and the private model, if any.
pub(crate) fn record_len(user: UserView<'_>) -> usize {
    let solo = user.solo.map_or(0, |solo| {
        let keys = solo.rows.iter().map(|(&item, _)| item);
        ffn_len(&solo.theta)
            + ids_len(solo.rows.len(), keys)
            + 4 * solo.rows.len() * solo.rows.dim()
    });
    2 + 4 * user.emb.len() + ids_len(user.history.len(), user.history.iter().copied()) + solo
}

/// The most bytes a record with no private model takes when all that is
/// known is its shape: `dim` floats and `ids` history ids, each gap
/// below `num_items`.
pub(crate) fn record_bound(dim: usize, ids: usize, num_items: usize) -> usize {
    2 + 4 * dim + uleb_len(ids as u32) + ids * uleb_len(num_items.saturating_sub(1) as u32)
}

fn put_ffn(w: &mut Writer, ffn: &Ffn) {
    let dims = ffn.dims();
    w.put_u32_le(dims.len() as u32);
    for &d in dims {
        w.put_u32_le(d as u32);
    }
    let flat = ffn.as_flat();
    w.put_u64_le(flat.len() as u64);
    for &x in flat {
        w.put_f32_le(x);
    }
}

// ---------------------------------------------------------------------
// Reading: the layout scan, then eager decoding (lazy is crate::lazy)
// ---------------------------------------------------------------------

/// The `users` section: a fixed-width directory, then the records.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UserIndex {
    dir: u64,
    block: Extent,
}

/// What [`scan`] learns without decoding a large payload: the small
/// sections, and the three large ones' directories, parsed and validated
/// with extents absolute.
pub(crate) struct Layout {
    pub meta: Meta,
    pub popularity: Vec<u32>,
    pub fallback: [Vec<f32>; 3],
    pub tables: [TableEntry; 3],
    pub thetas: [Extent; 3],
    pub users: UserIndex,
}

/// Decodes `bytes` as exactly one `T` ([`Reader::whole`]) — the one
/// place a [`DecodeError`] becomes a [`ServeError::Artifact`] naming the
/// part of the file it happened in.
pub(crate) fn exactly<'a, T>(
    bytes: &'a [u8],
    what: impl std::fmt::Display,
    get: impl FnOnce(&mut Reader<'a>) -> Result<T, DecodeError>,
) -> Result<T, ServeError> {
    Reader::whole(bytes, get).map_err(|e| err(format!("{what} is malformed: {e}")))
}

/// The one layout scan, shared by the eager decoder (over a borrowed
/// buffer or a file's read window) and the lazy open (over a file):
/// checks the header, walks
/// the section table validating each declared length against the bytes
/// remaining *before* the payload is touched — a section claiming
/// `u64::MAX` bytes fails typed here, never an allocation or a panic —
/// then decodes the small always-needed sections and the three
/// directories. `read(off, len)` is only ever asked for ranges inside
/// `0..len`, and never while a piece it lent is still held.
pub(crate) fn scan<B: Deref<Target = [u8]>>(
    len: u64,
    read: impl Fn(u64, u64) -> Result<B, ServeError>,
) -> Result<Layout, ServeError> {
    parse_header(&read(0, HEADER_LEN.min(len))?)?;

    let mut sections: [Option<Extent>; 7] = [None; 7];
    let mut cursor = HEADER_LEN;
    while cursor < len {
        let (tag, declared) = exactly(
            &read(cursor, SECTION_HEADER_LEN.min(len - cursor))?,
            format_args!("section header at byte {cursor}"),
            |h| Ok((h.get_u8()?, h.get_u64_le()?)),
        )?;
        let payload = cursor + SECTION_HEADER_LEN;
        if declared > len - payload {
            return Err(err(format!(
                "section {tag} claims {declared} bytes but only {} remain",
                len - payload
            )));
        }
        let slot = sections
            .get_mut(tag as usize)
            .filter(|_| (SEC_META..=SEC_FALLBACK).contains(&tag))
            .ok_or_else(|| err(format!("unknown section tag {tag}")))?;
        if slot.replace((payload, declared)).is_some() {
            return Err(err(format!("duplicate section tag {tag}")));
        }
        cursor = payload + declared;
    }
    let section = |tag: u8| {
        sections[tag as usize]
            .ok_or_else(|| err(format!("missing `{}` section", SECTION_NAMES[tag as usize])))
    };
    let load = |(off, len): Extent| read(off, len);

    let meta = parse_meta(&load(section(SEC_META)?)?)?;
    let popularity = exactly(
        &load(section(SEC_POPULARITY)?)?,
        "`popularity` section",
        |r| r.get_u32_vec(meta.num_items),
    )?;
    let fallback = decode_fallback(&load(section(SEC_FALLBACK)?)?, &meta.dims)?;

    let (tables, thetas, users) = (
        section(SEC_TABLES)?,
        section(SEC_THETAS)?,
        section(SEC_USERS)?,
    );
    let dir = |(off, len): Extent, dir_len: u64| read(off, dir_len.min(len));
    let user_dir = (meta.num_users as u64)
        .checked_mul(USER_DIR_ENTRY)
        .filter(|&d| d <= users.1)
        .ok_or_else(|| {
            err(format!(
                "`users` section too short for a {}-entry directory",
                meta.num_users
            ))
        })?;
    // One directory parsed before the next is read: a file's read window
    // lends one piece at a time.
    let tables = parse_table_dir(&dir(tables, 3 * TABLE_DIR_ENTRY)?, tables, &meta)?;
    let thetas = parse_theta_dir(&dir(thetas, 3 * THETA_DIR_ENTRY)?, thetas)?;
    Ok(Layout {
        tables,
        thetas,
        users: UserIndex {
            dir: users.0,
            block: (users.0 + user_dir, users.1 - user_dir),
        },
        meta,
        popularity,
        fallback,
    })
}

/// Checks the file header: magic, container version, artifact schema.
fn parse_header(head: &[u8]) -> Result<(), ServeError> {
    let (magic, container, schema) = exactly(head, "header", |r| {
        Ok((r.get_bytes(4)?, r.get_u16_le()?, r.get_u32_le()?))
    })?;
    if magic != MAGIC {
        return Err(err("not an artifact file (bad magic)"));
    }
    if container != BINFMT_VERSION {
        return Err(err(format!(
            "unsupported container version {container} (this reader speaks \
             {BINFMT_VERSION})"
        )));
    }
    if schema as u64 != ARTIFACT_VERSION {
        return Err(err(format!(
            "artifact schema v{schema} not supported (want v{ARTIFACT_VERSION})"
        )));
    }
    Ok(())
}

/// Decodes the `meta` payload.
fn parse_meta(payload: &[u8]) -> Result<Meta, ServeError> {
    exactly(payload, "`meta` section", |m| {
        let model = match m.get_u8()? {
            0 => ModelKind::Ncf,
            1 => ModelKind::LightGcn,
            _ => return Err(DecodeError::Invalid { field: "model" }),
        };
        let standalone = m.get_bool("standalone")?;
        let (s, md, l) = (m.get_u32_le()?, m.get_u32_le()?, m.get_u32_le()?);
        if !(s > 0 && s < md && md < l) {
            return Err(DecodeError::Invalid { field: "dims" });
        }
        Ok(Meta {
            model,
            standalone,
            dims: TierDims::new(s as usize, md as usize, l as usize),
            num_items: get_usize(m, "num_items")?,
            num_users: get_usize(m, "num_users")?,
        })
    })
}

/// Walks a three-entry tier directory: `entry` reads one entry's
/// `(off, len)` and whatever else it carries. Entries must be
/// contiguous and cover the payload block exactly (canonical layout);
/// the extents returned are absolute.
fn parse_tier_dir<X>(
    name: &str,
    dir: &[u8],
    entry_len: u64,
    section: Extent,
    mut entry: impl FnMut(&mut Reader) -> Result<(u64, u64, X), DecodeError>,
) -> Result<[(Extent, X); 3], ServeError> {
    let block_len = (section.1)
        .checked_sub(3 * entry_len)
        .ok_or_else(|| err(format!("`{name}` section too short for its directory")))?;
    let block = section.0 + 3 * entry_len;
    let raw = exactly(dir, format_args!("`{name}` directory"), |r| {
        (0..3).map(|_| entry(r)).collect::<Result<Vec<_>, _>>()
    })?;
    let mut entries = Vec::with_capacity(3);
    let mut cursor = 0u64;
    for ((off, len, extra), tier) in raw.into_iter().zip(Tier::ALL) {
        if off != cursor || len > block_len - cursor {
            return Err(err(format!(
                "`{name}` directory entry for {tier:?} is out of bounds"
            )));
        }
        entries.push(((block + off, len), extra));
        cursor += len;
    }
    if cursor != block_len {
        return Err(err(format!("`{name}` section has trailing bytes")));
    }
    Ok(entries.try_into().ok().expect("three tiers"))
}

/// Parses the `tables` directory, validating each entry's length and
/// shape against `meta`.
fn parse_table_dir(
    dir: &[u8],
    section: Extent,
    meta: &Meta,
) -> Result<[TableEntry; 3], ServeError> {
    let dir = parse_tier_dir("tables", dir, TABLE_DIR_ENTRY, section, |r| {
        let (off, len) = (r.get_u64_le()?, r.get_u64_le()?);
        Ok((off, len, (r.get_u64_le()?, r.get_u32_le()?)))
    })?;
    for (&((_, len), (rows, cols)), tier) in dir.iter().zip(Tier::ALL) {
        // Matrix payload: rows u64 + cols u32 + rows*cols f32s.
        let payload = rows
            .checked_mul(cols as u64)
            .and_then(|n| n.checked_mul(4))
            .and_then(|n| n.checked_add(12));
        if payload != Some(len) {
            return Err(err(format!(
                "`tables` entry for {tier:?} declares {len} bytes for a {rows}x{cols} matrix"
            )));
        }
        let want = (meta.num_items, meta.dims.dim(tier));
        if (rows, cols as u64) != (want.0 as u64, want.1 as u64) {
            return Err(err(format!(
                "{tier:?} table is {rows}x{cols}, expected {}x{}",
                want.0, want.1
            )));
        }
    }
    Ok(dir.map(|(extent, (rows, cols))| (extent, (rows as usize, cols as usize))))
}

/// Parses the `thetas` directory.
fn parse_theta_dir(dir: &[u8], section: Extent) -> Result<[Extent; 3], ServeError> {
    let entry = |r: &mut Reader| Ok((r.get_u64_le()?, r.get_u64_le()?, ()));
    Ok(parse_tier_dir("thetas", dir, THETA_DIR_ENTRY, section, entry)?.map(|(extent, ())| extent))
}

impl UserIndex {
    /// The `users` section's byte length, directory included.
    pub(crate) fn section_len(&self) -> u64 {
        self.block.0 - self.dir + self.block.1
    }

    /// Parses user `user`'s end off `dir`: its record runs from `start`
    /// (the previous user's end) to there, which must lie inside the
    /// payload block. The extent is relative to the block.
    fn entry(&self, user: usize, start: u64, dir: &mut Reader) -> Result<Extent, ServeError> {
        match dir.get_u64_le() {
            Ok(end) if start <= end && end <= self.block.1 => Ok((start, end - start)),
            _ => Err(err(format!(
                "`users` directory entry {user} is out of bounds"
            ))),
        }
    }

    /// Walks the directory alone, in [`READ_CHUNK`]-sized pieces: every
    /// end must lie inside the block and none may fall. Returns the last.
    fn walk<B: Deref<Target = [u8]>>(
        &self,
        read: impl Fn(u64, u64) -> Result<B, ServeError>,
    ) -> Result<u64, ServeError> {
        let (mut user, mut end) = (0, 0);
        for_each_chunk((self.dir, self.block.0 - self.dir), read, |dir| {
            let mut dir = Reader::new(dir);
            while dir.remaining() > 0 {
                let (start, len) = self.entry(user, end, &mut dir)?;
                (user, end) = (user + 1, start + len);
            }
            Ok(())
        })?;
        Ok(end)
    }

    /// Decodes user `user` alone through `read` — its directory window
    /// (the previous user's end, then its own; its own alone for user 0),
    /// then the record — into `record`, whose buffers it reuses. The one
    /// way a user record is read, held or on disk.
    pub(crate) fn get_into<B: Deref<Target = [u8]>>(
        &self,
        user: usize,
        meta: &Meta,
        read: impl Fn(u64, u64) -> Result<B, ServeError>,
        record: &mut UserRecord,
    ) -> Result<(), ServeError> {
        let (at, len) = match user {
            0 => (self.dir, USER_DIR_ENTRY),
            _ => (
                self.dir + (user as u64 - 1) * USER_DIR_ENTRY,
                2 * USER_DIR_ENTRY,
            ),
        };
        let window = read(at, len)?;
        let mut window = Reader::new(&window);
        let start = match user {
            0 => 0,
            _ => window
                .get_u64_le()
                .expect("`read` lends exactly the two ends asked for"),
        };
        let (off, len) = self.entry(user, start, &mut window)?;
        exactly(
            &read(self.block.0 + off, len)?,
            format_args!("`users` section at user {user}"),
            |r| get_user(r, meta, record),
        )
    }

    /// [`UserIndex::get_into`] a record of its own.
    pub(crate) fn get<B: Deref<Target = [u8]>>(
        &self,
        user: usize,
        meta: &Meta,
        read: impl Fn(u64, u64) -> Result<B, ServeError>,
    ) -> Result<UserRecord, ServeError> {
        let mut record = UserRecord::empty();
        self.get_into(user, meta, read, &mut record)?;
        Ok(record)
    }

    /// Takes the whole section in as a [`HeldUsers`] and decodes every
    /// record once, so a malformed one is refused at load, not at its
    /// first request. The directory is walked alone first — ends that
    /// never fall, the last covering the block exactly — so nothing is
    /// sized by a lying one; then the section (its length validated by
    /// the scan) is copied in [`READ_CHUNK`] pieces, and the records are
    /// decoded from the copy into one reused scratch record.
    fn hold<B: Deref<Target = [u8]>>(
        &self,
        meta: &Meta,
        read: impl Fn(u64, u64) -> Result<B, ServeError>,
    ) -> Result<HeldUsers, ServeError> {
        if self.walk(&read)? != self.block.1 {
            return Err(err("`users` section has trailing bytes"));
        }
        let mut payload = Vec::with_capacity(self.section_len() as usize);
        for_each_chunk((self.dir, self.section_len()), read, |chunk| {
            payload.extend_from_slice(chunk);
            Ok(())
        })?;
        let held = HeldUsers::new(payload, *meta);
        let mut scratch = UserRecord::empty();
        for user in 0..meta.num_users {
            held.index
                .get_into(user, meta, slice_source(&held.payload), &mut scratch)?;
        }
        Ok(held)
    }
}

/// A `users` section held in memory: the `8 B`-a-user end directory, then
/// the records, byte for byte as [`ArtifactWriter::users`] frames them —
/// what an eager artifact keeps of its users. A read decodes the one
/// record asked for through [`UserIndex::get`], as on the lazy path.
#[derive(Clone, Debug)]
pub(crate) struct HeldUsers {
    payload: Vec<u8>,
    meta: Meta,
    /// The section's layout, offsets relative to `payload`.
    index: UserIndex,
}

impl HeldUsers {
    /// Frames the `meta.num_users` records `produce` pushes, in user
    /// order, through the writer's own [`UserRecords`]. The buffer is
    /// reserved for the directory and `records` bytes of records — exact
    /// or an upper bound — and shrunk to what was written.
    pub(crate) fn encode(
        meta: Meta,
        records: usize,
        produce: impl FnOnce(&mut UserRecords<'_, Vec<u8>>),
    ) -> Self {
        let dir_len = meta.num_users * USER_DIR_ENTRY as usize;
        let mut payload = Vec::with_capacity(dir_len + records);
        payload.resize(dir_len, 0);
        let mut sink = UserRecords {
            out: &mut payload,
            scratch: &mut Writer::new(),
            ends: Vec::with_capacity(meta.num_users),
            written: Ok(()),
        };
        produce(&mut sink);
        let ends = sink
            .finish(meta.num_users)
            .expect("memory takes every write");
        for (entry, end) in payload.chunks_exact_mut(USER_DIR_ENTRY as usize).zip(ends) {
            entry.copy_from_slice(&end.to_le_bytes());
        }
        payload.shrink_to_fit();
        Self::new(payload, meta)
    }

    /// Holds `payload`, a whole `users` section for `meta.num_users`.
    fn new(payload: Vec<u8>, meta: Meta) -> Self {
        let dir_len = meta.num_users as u64 * USER_DIR_ENTRY;
        let index = UserIndex {
            dir: 0,
            block: (dir_len, payload.len() as u64 - dir_len),
        };
        Self {
            payload,
            meta,
            index,
        }
    }

    pub(crate) fn num_users(&self) -> usize {
        self.meta.num_users
    }

    /// User `user`'s record, decoded, or `None` past the last user.
    pub(crate) fn get(&self, user: usize) -> Option<UserRecord> {
        (user < self.meta.num_users).then(|| {
            (self.index)
                .get(user, &self.meta, slice_source(&self.payload))
                .expect("a held record was framed by the writer or checked by the decoder")
        })
    }
}

/// `buf` as a random-access source: `read(off, len)` lends that range,
/// or fails typed when it runs past the end.
pub(crate) fn slice_source<'a>(buf: &'a [u8]) -> impl Fn(u64, u64) -> Result<&'a [u8], ServeError> {
    move |off, len| {
        let (off, len) = (usize::try_from(off).ok(), usize::try_from(len).ok());
        (off.zip(len))
            .and_then(|(off, len)| buf.get(off..off.checked_add(len)?))
            .ok_or_else(|| err("read past the end of the buffer"))
    }
}

/// Hands `each` the bytes at `(off, len)` in order, asking `read` for at
/// most [`READ_CHUNK`] of them at a time.
fn for_each_chunk<B: Deref<Target = [u8]>>(
    (off, len): Extent,
    read: impl Fn(u64, u64) -> Result<B, ServeError>,
    mut each: impl FnMut(&[u8]) -> Result<(), ServeError>,
) -> Result<(), ServeError> {
    let mut at = off;
    while at < off + len {
        let n = READ_CHUNK.min(off + len - at);
        each(&read(at, n)?)?;
        at += n;
    }
    Ok(())
}

/// Decodes one matrix payload at `extent` — `rows: u64, cols: u32`, then
/// `rows × cols` floats — which must have exactly `shape`, asking `read`
/// for at most [`READ_CHUNK`] bytes at a time.
pub(crate) fn read_table<B: Deref<Target = [u8]>>(
    (off, len): Extent,
    shape: (usize, usize),
    what: impl std::fmt::Display,
    read: impl Fn(u64, u64) -> Result<B, ServeError>,
) -> Result<Matrix, ServeError> {
    let floats = (shape.0 as u64)
        .checked_mul(shape.1 as u64)
        .filter(|n| n.checked_mul(4).and_then(|b| b.checked_add(12)) == Some(len))
        .ok_or_else(|| err(format!("{what} is {len} bytes, not a {shape:?} matrix")))?;
    exactly(&read(off, 12)?, &what, |r| get_shape(r, shape))?;
    // Bounded by `len`, which the scan checked against the source.
    let mut data = Vec::with_capacity(floats as usize);
    for_each_chunk((off + 12, len - 12), read, |chunk| {
        exactly(chunk, &what, |r| r.extend_f32s(chunk.len() / 4, &mut data))
    })?;
    Ok(Matrix::from_vec(shape.0, shape.1, data))
}

/// The one eager decoder, over any random-access source (a slice for
/// [`ModelArtifact::from_bytes`], one read window over the file for
/// [`ModelArtifact::load_file`]): the layout scan, then the tables and
/// predictors decoded and the `users` section held as it is framed
/// (every record checked). Beyond the always-needed small sections it
/// asks for at most [`READ_CHUNK`] bytes at a time, and like the scan it
/// drops each piece before it asks for the next. Lazy file-backed
/// loading is [`ModelArtifact::load_file_lazy`].
pub(crate) fn decode<B: Deref<Target = [u8]>>(
    len: u64,
    read: impl Fn(u64, u64) -> Result<B, ServeError>,
) -> Result<ModelArtifact, ServeError> {
    let layout = scan(len, &read)?;
    let tables = (layout.tables.iter().zip(Tier::ALL))
        .map(|(&(extent, shape), tier)| {
            let what = format_args!("`tables` payload at {tier:?}");
            read_table(extent, shape, what, &read)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let thetas = (layout.thetas.iter().zip(Tier::ALL))
        .map(|(&(off, len), tier)| {
            let what = format_args!("`thetas` payload at {tier:?}");
            exactly(&read(off, len)?, what, get_ffn)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let users = layout.users.hold(&layout.meta, &read)?;

    Ok(ModelArtifact::assemble(
        layout.meta,
        Tiers::filled(
            tables.try_into().expect("three tables"),
            thetas.try_into().expect("three predictors"),
        ),
        UserStore::Held(users),
        layout.popularity,
        layout.fallback,
    ))
}

fn decode_fallback(payload: &[u8], dims: &TierDims) -> Result<[Vec<f32>; 3], ServeError> {
    exactly(payload, "`fallback` section", |f| {
        let mut fallback = Vec::with_capacity(3);
        for tier in Tier::ALL {
            if f.get_u32_le()? as usize != dims.dim(tier) {
                return Err(DecodeError::Invalid { field: "fallback" });
            }
            fallback.push(f.get_f32_vec(dims.dim(tier))?);
        }
        Ok(fallback.try_into().expect("three fallbacks"))
    })
}

fn model_tag(model: ModelKind) -> u8 {
    match model {
        ModelKind::Ncf => 0,
        ModelKind::LightGcn => 1,
    }
}

/// Reads a `u64` count or size that must also fit a `usize`.
fn get_usize(r: &mut Reader, field: &'static str) -> Result<usize, DecodeError> {
    usize::try_from(r.get_u64_le()?).map_err(|_| DecodeError::Invalid { field })
}

/// Reads a matrix header — `rows: u64, cols: u32` — which must be `shape`.
fn get_shape(r: &mut Reader, (rows, cols): (usize, usize)) -> Result<(), DecodeError> {
    if (r.get_u64_le()?, u64::from(r.get_u32_le()?)) != (rows as u64, cols as u64) {
        return Err(DecodeError::Invalid { field: "shape" });
    }
    Ok(())
}

pub(crate) fn get_ffn(r: &mut Reader) -> Result<Ffn, DecodeError> {
    let ndims = r.get_u32_le()? as usize;
    if !(2..=16).contains(&ndims) {
        // No predictor in this workspace is deeper.
        return Err(DecodeError::Invalid { field: "dims" });
    }
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        match r.get_u32_le()? {
            0 => return Err(DecodeError::Invalid { field: "dims" }),
            d => dims.push(d as usize),
        }
    }
    let declared = r.get_u64_le()?;
    // `Ffn::from_flat` panics on a length mismatch; check first (the
    // layer widths are the file's claim, so the count may overflow).
    let flat_len = Ffn::param_count(&dims)
        .filter(|&n| n as u64 == declared)
        .ok_or(DecodeError::Invalid { field: "flat" })?;
    Ok(Ffn::from_flat(&dims, &r.get_f32_vec(flat_len)?))
}

/// Parses one user record into `record`, reusing its embedding and
/// history buffers. Every item id it names — history or private row —
/// must lie inside the catalogue, or ranking would index past the item
/// tables.
fn get_user(r: &mut Reader, meta: &Meta, record: &mut UserRecord) -> Result<(), DecodeError> {
    record.tier = *Tier::ALL
        .get(r.get_u8()? as usize)
        .ok_or(DecodeError::Invalid { field: "tier" })?;
    let dim = meta.dims.dim(record.tier);
    record.emb.clear();
    r.extend_f32s(dim, &mut record.emb)?;
    let n = r.get_uleb32("history")? as usize;
    record.history.clear();
    // Every id is at least a byte.
    record.history.reserve(r.fits(n, 1)?);
    get_ids(r, n, meta.num_items, "history", |_, item| {
        record.history.push(item);
        Ok(())
    })?;
    record.solo = None;
    if r.get_bool("solo")? {
        let theta = get_ffn(r)?;
        let n = r.get_uleb32("rows")? as usize;
        let mut rows = RowBlock::with_capacity(dim, r.fits(n, 1 + 4 * dim)?);
        get_ids(r, n, meta.num_items, "rows", |r, item| {
            rows.read_row(item, r)
        })?;
        record.solo = Some(SoloModel { rows, theta });
    }
    Ok(())
}

/// Reads `n` ids coded by [`gaps`], handing each to `each` with the
/// reader. They are strictly ascending by construction, so only the last
/// needs the catalogue check; an id past `u32::MAX` or the catalogue is an
/// invalid `field`.
fn get_ids(
    r: &mut Reader,
    n: usize,
    num_items: usize,
    field: &'static str,
    mut each: impl FnMut(&mut Reader, u32) -> Result<(), DecodeError>,
) -> Result<(), DecodeError> {
    let mut next = 0u64;
    for _ in 0..n {
        let id = next + u64::from(r.get_uleb32(field)?);
        each(
            r,
            u32::try_from(id).map_err(|_| DecodeError::Invalid { field })?,
        )?;
        next = id + 1;
    }
    if next > num_items as u64 {
        return Err(DecodeError::Invalid { field });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExportArtifact, RecommendRequest, RecommenderBuilder};
    use hetefedrec_core::{Ablation, Session, SessionBuilder, Strategy, TrainConfig};
    use hf_dataset::{SplitDataset, SyntheticConfig};

    fn session(strategy: Strategy, model: ModelKind) -> Session {
        let data = SyntheticConfig::tiny().generate(13);
        let split = SplitDataset::paper_split(&data, 13);
        let mut s = SessionBuilder::new(TrainConfig::test_default(model), strategy, split)
            .eval_every(0)
            .build()
            .expect("valid config");
        s.run_epoch();
        s
    }

    fn artifact(strategy: Strategy, model: ModelKind) -> ModelArtifact {
        session(strategy, model).export_artifact()
    }

    /// A small standalone-style artifact whose users carry hand-built
    /// [`SoloModel`]s: every float is a dyadic rational of its position,
    /// so the committed fixture holds no trained weights. Covers both solo
    /// flags, an empty history, an empty overlay, and overlays of one to
    /// three rows. Histories and overlays are strictly ascending, as every
    /// producer's are.
    fn solo_fixture_source() -> ModelArtifact {
        let dims = TierDims::new(2, 4, 8);
        let num_items = 6usize;
        let ramp = |n: usize, salt: usize| -> Vec<f32> {
            (0..n)
                .map(|i| ((i * 7 + salt * 3) % 17) as f32 * 0.125 - 1.0)
                .collect()
        };
        let ffn = |dim: usize, salt: usize| {
            let d = hf_models::paper_predictor_dims(dim);
            let n = Ffn::param_count(&d).expect("small dims");
            Ffn::from_flat(&d, &ramp(n, salt))
        };
        let records: Vec<UserRecord> = (0..5usize)
            .map(|u| {
                let tier = Tier::ALL[u % 3];
                let dim = dims.dim(tier);
                let mut history: Vec<u32> = (0..u as u32).map(|i| (i * 2 + u as u32) % 6).collect();
                history.sort_unstable();
                history.dedup();
                let solo = (u != 3).then(|| {
                    let mut items = [5u32, 1, 3][..u.min(3)].to_vec();
                    items.sort_unstable();
                    let mut rows = RowBlock::new(dim);
                    for item in items {
                        rows.push(item, ramp(dim, 20 + u + item as usize));
                    }
                    SoloModel {
                        rows,
                        theta: ffn(dim, 10 + u),
                    }
                });
                UserRecord {
                    tier,
                    emb: ramp(dim, u),
                    history,
                    solo,
                }
            })
            .collect();
        let mut tally = crate::artifact::Tally::new(num_items, &dims);
        records.iter().for_each(|record| tally.add(record.view()));
        let (popularity, fallback) = tally.finish();
        let meta = Meta {
            model: ModelKind::Ncf,
            standalone: true,
            dims,
            num_items,
            num_users: records.len(),
        };
        let bytes = records.iter().map(|record| record_len(record.view())).sum();
        let users = HeldUsers::encode(meta, bytes, |out| {
            records.iter().for_each(|record| out.put(record.view()))
        });
        ModelArtifact::assemble(
            meta,
            Tiers::filled(
                std::array::from_fn(|t| {
                    let cols = dims.dim(Tier::ALL[t]);
                    Matrix::from_vec(num_items, cols, ramp(num_items * cols, 40 + t))
                }),
                std::array::from_fn(|t| ffn(dims.dim(Tier::ALL[t]), 50 + t)),
            ),
            UserStore::Held(users),
            popularity,
            fallback,
        )
    }

    /// Frozen files: `GOLDEN` and `GOLDEN_SOLO` are the container-3
    /// encoder's `to_bytes()` of [`synth_fixture_source`] and
    /// [`solo_fixture_source`].
    const GOLDEN: &[u8] = include_bytes!("../tests/fixtures/artifact_v3.hfa");
    const GOLDEN_SOLO: &[u8] = include_bytes!("../tests/fixtures/artifact_v3_solo.hfa");

    fn synth_fixture_source() -> ModelArtifact {
        let profile = hf_dataset::SyntheticProfile::new(48, 120);
        ModelArtifact::synthesize(&profile, TierDims::new(4, 8, 16), 2024).unwrap()
    }

    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hf_binfmt_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn file_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn every_writer_entry_point_reproduces_the_golden_bytes() {
        let dir = scratch_dir("golden");
        let path = dir.join("golden.hfa");
        for (artifact, golden) in [
            (synth_fixture_source(), GOLDEN),
            (solo_fixture_source(), GOLDEN_SOLO),
        ] {
            assert!(artifact.to_bytes() == golden, "to_bytes drifted");
            artifact.save_file(&path).expect("saved");
            assert!(std::fs::read(&path).unwrap() == golden, "save_file drifted");
            // Both readers re-encode the frozen bytes exactly, the eager
            // one from a slice and from the file.
            let eager = ModelArtifact::from_bytes(golden).expect("golden decodes");
            assert!(eager.to_bytes() == golden, "eager reload drifted");
            let eager = ModelArtifact::load_file(&path).expect("golden file decodes");
            assert!(eager.to_bytes() == golden, "eager file reload drifted");
            let lazy = ModelArtifact::load_file_lazy(&path, crate::LazyConfig::default()).unwrap();
            assert!(
                lazy.is_lazy() && lazy.to_bytes() == golden,
                "lazy reload drifted"
            );
        }
        let profile = hf_dataset::SyntheticProfile::new(48, 120);
        ModelArtifact::synthesize_to_file(&profile, TierDims::new(4, 8, 16), 2024, &path).unwrap();
        assert!(
            std::fs::read(&path).unwrap() == GOLDEN,
            "synthesize_to_file drifted"
        );
        assert_eq!(file_names(&dir), ["golden.hfa"], "no temp file may remain");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_export_is_the_materialised_export_byte_for_byte() {
        let dir = scratch_dir("streamed");
        let path = dir.join("streamed.hfab");
        for (strategy, model) in [
            (Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf),
            (Strategy::HeteFedRec(Ablation::FULL), ModelKind::LightGcn),
            (Strategy::Standalone, ModelKind::Ncf),
        ] {
            let s = session(strategy, model);
            s.export_artifact_to(&path).expect("streamed");
            let streamed = std::fs::read(&path).unwrap();
            let materialised = s.export_artifact();
            assert!(
                streamed == materialised.to_bytes(),
                "{model:?}/{strategy:?}: streamed export differs from to_bytes()"
            );
            materialised.save_file(&path).expect("saved");
            assert!(
                streamed == std::fs::read(&path).unwrap(),
                "{model:?}/{strategy:?}: streamed export differs from save_file()"
            );
        }
        assert_eq!(file_names(&dir), ["streamed.hfab"], "no temp file");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn held_users_keep_no_spare_capacity_and_to_bytes_allocates_once() {
        let dir = scratch_dir("capacity");
        let path = dir.join("model.hfab");
        let profile = hf_dataset::SyntheticProfile::new(700, 400);
        let synthesized = ModelArtifact::synthesize(&profile, TierDims::new(4, 8, 16), 5).unwrap();
        synthesized.save_file(&path).unwrap();
        let bytes = synthesized.to_bytes();
        let standalone = artifact(Strategy::Standalone, ModelKind::Ncf);
        for (what, artifact) in [
            ("synthesize", synthesized),
            ("load_file", ModelArtifact::load_file(&path).unwrap()),
            ("from_bytes", ModelArtifact::from_bytes(&bytes).unwrap()),
            (
                "export_artifact",
                artifact(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf),
            ),
            (
                "from_bytes (standalone)",
                ModelArtifact::from_bytes(&standalone.to_bytes()).unwrap(),
            ),
            ("export_artifact (standalone)", standalone),
        ] {
            // Private models included, the reserve is the encoded length.
            let bytes = artifact.to_bytes();
            assert_eq!(
                bytes.capacity(),
                bytes.len(),
                "{what}: to_bytes grew its buffer"
            );
            let UserStore::Held(users) = &artifact.users else {
                panic!("{what}: an eager artifact");
            };
            assert_eq!(
                users.payload.capacity(),
                users.payload.len(),
                "{what}: the held users keep spare capacity"
            );
            // What is held is the file's `users` section, byte for byte.
            let index = scan(bytes.len() as u64, slice_source(&bytes))
                .unwrap()
                .users;
            let section = index.dir as usize..(index.dir + index.section_len()) as usize;
            assert!(
                users.payload == bytes[section],
                "{what}: the held users are not the file's section"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_saves_leave_nothing_behind() {
        let dir = scratch_dir("atomic");
        let a = solo_fixture_source();
        // The parent is a regular file: the directory cannot be created.
        std::fs::write(dir.join("blocker"), b"x").unwrap();
        assert!(a.save_file(dir.join("blocker").join("model.hfa")).is_err());
        // The target is a directory: the temp file streams fine, the
        // rename fails, and the temp file must be cleaned up.
        std::fs::create_dir(dir.join("taken.hfa")).unwrap();
        assert!(a.save_file(dir.join("taken.hfa")).is_err());
        assert_eq!(file_names(&dir), ["blocker", "taken.hfa"]);
        // A save over an existing artifact replaces it whole.
        std::fs::write(dir.join("model.hfa"), b"stale").unwrap();
        a.save_file(dir.join("model.hfa")).expect("saved");
        assert!(std::fs::read(dir.join("model.hfa")).unwrap() == GOLDEN_SOLO);
        assert_eq!(file_names(&dir), ["blocker", "model.hfa", "taken.hfa"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sink that takes `left` more bytes, fails the write that would
    /// pass them, and counts every write asked of it after that.
    struct FailingSink {
        out: std::io::Cursor<Vec<u8>>,
        left: usize,
        failed: bool,
        writes_after_failure: usize,
    }

    impl Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.failed || buf.len() > self.left {
                self.writes_after_failure += usize::from(self.failed);
                self.failed = true;
                return Err(io::Error::other("disk full"));
            }
            self.left -= buf.len();
            self.out.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Seek for FailingSink {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.out.seek(pos)
        }
    }

    #[test]
    fn a_write_failing_inside_the_users_section_is_returned() {
        let a = synth_fixture_source();
        let sink = FailingSink {
            out: std::io::Cursor::new(Vec::new()),
            left: usize::MAX,
            failed: false,
            writes_after_failure: 0,
        };
        let mut w = ArtifactWriter::begin(sink, a.meta()).unwrap();
        w.tables(|tier| [a.table(tier).as_slice()]).unwrap();
        w.thetas(Tier::ALL.map(|tier| a.theta(tier))).unwrap();
        // Room for the section header, the placeholder directory and a
        // few of the 48 records.
        let directory = SECTION_HEADER_LEN + USER_DIR_ENTRY * a.num_users() as u64;
        w.out.left = directory as usize + 200;
        let mut pushed = 0;
        let result = w.users(|records| {
            for u in 0..a.num_users() {
                records.put(a.user(u).expect("user in range").view());
                pushed += 1;
            }
        });
        let e = result.expect_err("the failed write is returned");
        assert_eq!(e.to_string(), "disk full");
        assert_eq!(pushed, a.num_users(), "the producer runs to its end");
        assert!(w.out.failed, "the section outgrew the sink");
        assert_eq!(
            w.out.writes_after_failure, 0,
            "a record followed the failure"
        );
    }

    #[test]
    fn binary_roundtrip_is_bit_identical() {
        for (strategy, model) in [
            (Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf),
            (Strategy::HeteFedRec(Ablation::FULL), ModelKind::LightGcn),
            (Strategy::Standalone, ModelKind::Ncf),
        ] {
            let a = artifact(strategy, model);
            let bytes = a.to_bytes();
            let b = ModelArtifact::from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{model:?}/{strategy:?}: {e}"));
            // Encoding the reload reproduces the file bytes exactly —
            // stronger than field-by-field equality, and it pins the
            // deterministic solo-row ordering.
            assert_eq!(bytes, b.to_bytes(), "{model:?}: reload changed bytes");
            // And the reloaded artifact serves bit-identical rankings.
            let ra = RecommenderBuilder::new(a).default_k(6).build().unwrap();
            let rb = RecommenderBuilder::new(b).default_k(6).build().unwrap();
            for user in 0..ra.artifact().num_users() {
                let x = ra.recommend(&RecommendRequest::new(user));
                let y = rb.recommend(&RecommendRequest::new(user));
                assert_eq!(x, y, "user {user}");
            }
        }
    }

    #[test]
    fn file_roundtrip() {
        let a = artifact(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
        let dir = std::env::temp_dir().join(format!("hf_binfmt_test_{}", std::process::id()));
        let path = dir.join("nested").join("model.hfa");
        a.save_file(&path).expect("saved");
        let b = ModelArtifact::load_file(&path).expect("loaded");
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert!(ModelArtifact::load_file(dir.join("missing.hfa")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_corruptions_are_refused() {
        for (at, byte, what) in [
            (0, b'X', "bad magic"),
            (4, 1, "container version 1"),
            (4, 0xFF, "container version 0xFF"),
            (6, 0xFF, "schema version"),
        ] {
            let mut bad = GOLDEN.to_vec();
            bad[at] = byte;
            assert!(ModelArtifact::from_bytes(&bad).is_err(), "{what}");
        }
    }

    #[test]
    fn older_containers_are_refused() {
        let dir = scratch_dir("older");
        let path = dir.join("old.hfa");
        for version in [1u16, 2] {
            let mut old = GOLDEN.to_vec();
            old[4..6].copy_from_slice(&version.to_le_bytes());
            std::fs::write(&path, &old).unwrap();
            for (reader, refused) in [
                ("from_bytes", ModelArtifact::from_bytes(&old).err()),
                ("load_file", ModelArtifact::load_file(&path).err()),
                (
                    "load_file_lazy",
                    ModelArtifact::load_file_lazy(&path, crate::LazyConfig::default()).err(),
                ),
            ] {
                let e = refused.unwrap_or_else(|| panic!("{reader} accepted container {version}"));
                let needle = format!("container version {version} ");
                assert!(
                    matches!(&e, ServeError::Artifact(msg) if msg.contains(&needle)),
                    "{reader}: {e}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `a`'s bytes with user 0's record written by `put` instead, raw.
    fn with_user_zero_bytes(
        a: &ModelArtifact,
        put: impl FnOnce(&mut Writer, UserView<'_>),
    ) -> Vec<u8> {
        let mut w = ArtifactWriter::begin(std::io::Cursor::new(Vec::new()), a.meta()).unwrap();
        w.tables(|tier| [a.table(tier).as_slice()]).unwrap();
        w.thetas(Tier::ALL.map(|tier| a.theta(tier))).unwrap();
        w.users(|records| {
            let user = |u| a.user(u).expect("user in range");
            records.put_with(|out| put(out, user(0).view()));
            (1..a.num_users()).for_each(|u| records.put(user(u).view()));
        })
        .unwrap();
        let (out, _) = w.finish(&a.popularity, &a.fallback).unwrap();
        out.into_inner()
    }

    /// `a`'s bytes with user 0's record replaced by `edit` of it.
    fn with_user_zero(a: &ModelArtifact, edit: impl FnOnce(&mut UserRecord)) -> Vec<u8> {
        with_user_zero_bytes(a, |out, user| {
            let mut patched = UserRecord {
                tier: user.tier,
                emb: user.emb.to_vec(),
                history: user.history.to_vec(),
                solo: user.solo.cloned(),
            };
            edit(&mut patched);
            put_user(out, patched.view());
        })
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn the_writer_refuses_a_history_that_is_not_strictly_ascending() {
        with_user_zero(&synth_fixture_source(), |u| u.history = vec![3, 3]);
    }

    #[test]
    fn hostile_history_codes_are_refused() {
        let a = synth_fixture_source();
        // User 0's record with its history coded as `codes` (the count,
        // then the gaps), which the writer would never produce.
        let coded = |codes: &[u32]| {
            with_user_zero_bytes(&a, |out, user| {
                out.put_u8(user.tier.index() as u8);
                user.emb.iter().for_each(|&x| out.put_f32_le(x));
                codes.iter().for_each(|&code| out.put_uleb32(code));
                out.put_u8(0);
            })
        };
        let last = a.num_items() as u32;
        let dir = scratch_dir("history");
        let path = dir.join("bad.hfa");
        for (bytes, what, needle) in [
            (
                coded(&[2, 10, u32::MAX]),
                "a gap past u32::MAX",
                "`history`",
            ),
            (
                with_user_zero(&a, |u| u.history = vec![0, last]),
                "a last id equal to num_items",
                "`history`",
            ),
            (coded(&[1000, 1, 2]), "a count past the record", "mid-field"),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            for (reader, outcome) in [
                ("from_bytes", ModelArtifact::from_bytes(&bytes).err()),
                ("load_file", ModelArtifact::load_file(&path).err()),
            ] {
                let e = outcome.unwrap_or_else(|| panic!("{reader} accepted {what}"));
                assert!(
                    matches!(&e, ServeError::Artifact(msg) if msg.contains(needle)),
                    "{reader}, {what}: {e}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn item_ids_outside_the_catalogue_are_refused() {
        // Regression: a history id past the catalogue used to decode, then
        // panic the first ranking of that user (LightGCN indexes the item
        // table by it).
        let lightgcn = artifact(Strategy::HeteFedRec(Ablation::FULL), ModelKind::LightGcn);
        let past_the_end = lightgcn.num_items() as u32 + 5;
        let history = with_user_zero(&lightgcn, |u| u.history = vec![past_the_end]);
        // A private row keyed past the catalogue is the same fault.
        let solo = solo_fixture_source();
        let (num_items, dim) = (solo.num_items() as u32, solo.dims().dim(Tier::Small));
        let rows = with_user_zero(&solo, |u| {
            let private = u.solo.as_mut().expect("user 0 carries a private model");
            private.rows.push(num_items, vec![0.0; dim]);
        });
        let dir = scratch_dir("catalogue");
        let path = dir.join("bad.hfa");
        for (bytes, field) in [(history, "history"), (rows, "rows")] {
            let e = ModelArtifact::from_bytes(&bytes).expect_err(field);
            assert!(e.to_string().contains(field), "{field}: {e}");
            std::fs::write(&path, &bytes).unwrap();
            assert!(
                ModelArtifact::load_file(&path).is_err(),
                "{field}: load_file"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_section_length_fails_before_allocation() {
        // Regression (satellite): a section header claiming u64::MAX
        // bytes must fail with a typed error — validated against the
        // remaining size before any payload is touched or allocated.
        let mut w = Writer::new();
        w.put_bytes(MAGIC);
        w.put_u16_le(BINFMT_VERSION);
        w.put_u32_le(ARTIFACT_VERSION as u32);
        w.put_u8(SEC_META);
        w.put_u64_le(u64::MAX);
        let bytes = w.into_vec();
        let e = ModelArtifact::from_bytes(&bytes).expect_err("hostile length");
        let msg = e.to_string();
        assert!(msg.contains("claims"), "unexpected error: {msg}");

        // Same claim inside a real artifact's section table.
        let a = artifact(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf);
        let mut bytes = a.to_bytes();
        // First section header sits right after the 10-byte file header.
        bytes[11..19].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(ModelArtifact::from_bytes(&bytes).is_err());

        // And through the lazy file reader, which *would* allocate a read
        // buffer if the length were trusted.
        let dir = std::env::temp_dir().join(format!("hf_binfmt_hostile_{}", std::process::id()));
        let path = dir.join("hostile.hfa");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            ModelArtifact::load_file_lazy(&path, crate::LazyConfig::default()).is_err(),
            "lazy open must reject the hostile length"
        );
        assert!(ModelArtifact::load_file(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
