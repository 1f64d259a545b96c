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
//! container   u16   BINFMT_VERSION (2; v1 files still decode)
//! schema      u32   ARTIFACT_VERSION the payload snapshots
//! sections    tag:u8  len:u64  payload:[u8; len]   (repeated until EOF)
//! ```
//!
//! Each of the six sections (`meta`, `tables`, `thetas`, `users`,
//! `popularity`, `fallback`) appears exactly once; unknown tags and
//! duplicates are errors. In version 2 the three large sections open
//! with an offset directory so [`crate::lazy`] can seek to one tier or
//! one user:
//!
//! * `tables` — `3 × (off: u64, len: u64, rows: u64, cols: u32)`, then
//!   the matrix payloads;
//! * `thetas` — `3 × (off: u64, len: u64)`, then the predictor payloads;
//! * `users` — `num_users × (off: u64, len: u32)`, then the records.
//!
//! Offsets are relative to the payload block after the directory, and
//! directories are canonical (contiguous, in tier/user order, covering
//! the block exactly), so `encode(decode(b)) == b`. Version 1 (the same
//! payloads without directories) is read-only.
//!
//! There is **one writer** — `ArtifactWriter`, streaming over any
//! `Write + Seek` sink and driven by `to_bytes`, `save_file`,
//! `session_to_file` and `synthesize_to_file` — **one layout scan** —
//! `scan`, over any random-access byte source, the front half of both
//! the eager decoder and the lazy open — and **one eager decoder** —
//! `decode`, over the same kind of source: a slice for `from_bytes`, a
//! bounded read window over the file for `load_file`
//! (`crate::lazy::open_eager`). The scan validates every declared length
//! against the bytes remaining *before* a payload is touched, and the
//! decoder sizes its one user arena from those validated lengths, so
//! hostile inputs fail with [`ServeError::Artifact`] instead of panicking
//! or over-allocating, and a valid file costs its payload to load: every
//! user record is parsed where the source lends it, straight into the
//! arena's flat buffers.

use crate::artifact::{
    ModelArtifact, SoloModel, UserArena, UserRecord, UserStore, UserView, ARTIFACT_VERSION,
};
use crate::lazy::Tiers;
use crate::ServeError;
use hetefedrec_core::config::TierDims;
use hf_dataset::Tier;
use hf_models::{Ffn, ModelKind};
use hf_tensor::wire::{DecodeError, Reader, Writer};
use hf_tensor::Matrix;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Read as _, Seek, SeekFrom, Write};
use std::ops::Deref;
use std::path::Path;

/// File magic: "HeteFedrec Artifact Binary".
const MAGIC: &[u8; 4] = b"HFAB";

/// Container format version this module writes. The reader also accepts
/// version-1 files (whole-section payloads, no directories).
pub const BINFMT_VERSION: u16 = 2;

/// Oldest container version the reader still accepts.
pub const MIN_BINFMT_VERSION: u16 = 1;

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
/// Bytes of one `users` directory entry: `off: u64, len: u32`.
const USER_DIR_ENTRY: u64 = 8 + 4;
/// Bytes of one `tables` directory entry: `off, len, rows: u64, cols: u32`.
const TABLE_DIR_ENTRY: u64 = 8 + 8 + 8 + 4;
/// Bytes of one `thetas` directory entry: `off: u64, len: u64`.
const THETA_DIR_ENTRY: u64 = 8 + 8;

/// Bytes of a user record that holds nothing: tier byte, two `u32`
/// counts, solo flag.
const USER_RECORD_MIN: u64 = 1 + 4 + 4 + 1;

/// The most the eager decoder asks its source for at once while it walks
/// a table or the `users` directory — what lets a file-backed source keep
/// a bounded window. Whole floats, so a table splits on scalar boundaries.
pub(crate) const READ_CHUNK: u64 = 96 << 10;
const _: () = assert!(READ_CHUNK.is_multiple_of(4));

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

/// The one `HFAB` writer. It streams the v2 container front to back —
/// [`begin`](Self::begin), [`tables`](Self::tables),
/// [`thetas`](Self::thetas), [`users`](Self::users),
/// [`finish`](Self::finish), each exactly once and in that order — and
/// holds one table chunk or user record at a time plus the 12 B/user
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

    /// Writes the `users` section: `put(u, out)` encodes user `u`'s
    /// record ([`put_user`]) for each of `meta.num_users` users in order.
    /// Record lengths are only known once encoded, so the section length
    /// and the directory are written as placeholders and back-patched
    /// after the last record. Returns the payload length.
    pub(crate) fn users(&mut self, mut put: impl FnMut(usize, &mut Writer)) -> io::Result<u64> {
        let at = self.out.stream_position()?;
        let dir_len = self.meta.num_users as u64 * USER_DIR_ENTRY;
        self.section_header(SEC_USERS, 0)?;
        io::copy(&mut io::repeat(0).take(dir_len), &mut self.out)?;
        let mut dir: Vec<(u64, u32)> = Vec::with_capacity(self.meta.num_users);
        let mut off = 0u64;
        for user in 0..self.meta.num_users {
            self.scratch.clear();
            put(user, &mut self.scratch);
            self.out.write_all(self.scratch.as_slice())?;
            let len = u32::try_from(self.scratch.len()).expect("user record over 4 GiB");
            dir.push((off, len));
            off += len as u64;
        }
        self.out.seek(SeekFrom::Start(at))?;
        self.section_header(SEC_USERS, dir_len + off)?;
        self.put_scalars(&dir, |w, (off, len)| {
            w.put_u64_le(off);
            w.put_u32_le(len);
        })?;
        self.out.seek(SeekFrom::End(0))?;
        Ok(dir_len + off)
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

/// Streams an artifact (eager or lazy) through the writer. A lazy
/// artifact's records are read past its user cache, so re-encoding a
/// serving artifact leaves its hot set alone.
pub(crate) fn write_artifact<W: Write + Seek>(a: &ModelArtifact, out: W) -> io::Result<W> {
    let mut w = ArtifactWriter::begin(out, a.meta())?;
    w.tables(|tier| [a.table(tier).as_slice()])?;
    w.thetas(Tier::ALL.map(|tier| a.theta(tier)))?;
    match &a.users {
        UserStore::Eager(users) => {
            w.users(|u, out| put_user(out, users.get(u).expect("user in range")))?
        }
        UserStore::Lazy(lazy) => w.users(|u, out| put_user(out, lazy.fetch(u).view()))?,
    };
    Ok(w.finish(&a.popularity, &a.fallback)?.0)
}

/// The bytes `a` encodes to, exact when no user carries a private model
/// (each of those adds its own) — what `to_bytes` reserves, so the
/// buffer is allocated once.
pub(crate) fn encoded_len(a: &ModelArtifact) -> usize {
    let meta = a.meta();
    let widths: usize = Tier::ALL.iter().map(|&t| meta.dims.dim(t)).sum();
    let thetas: usize = (Tier::ALL.iter())
        .map(|&t| 4 + 4 * a.theta(t).dims().len() + 8 + 4 * a.theta(t).num_params())
        .sum();
    let users = match &a.users {
        UserStore::Eager(users) => {
            (USER_DIR_ENTRY + USER_RECORD_MIN) as usize * users.len() + 4 * users.scalars()
        }
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

/// Encodes one user record (v1 and v2 share it — v2 just indexes the
/// same bytes).
pub(crate) fn put_user(w: &mut Writer, user: UserView<'_>) {
    w.put_u8(user.tier.index() as u8);
    w.put_u32_le(user.emb.len() as u32);
    for &x in user.emb {
        w.put_f32_le(x);
    }
    w.put_u32_le(user.history.len() as u32);
    for &item in user.history {
        w.put_u32_le(item);
    }
    match user.solo {
        None => w.put_u8(0),
        Some(solo) => {
            w.put_u8(1);
            put_ffn(w, &solo.theta);
            // Deterministic row order: the HashMap iteration order must
            // not leak into the file bytes.
            let mut rows: Vec<(&u32, &Vec<f32>)> = solo.rows.iter().collect();
            rows.sort_by_key(|(&item, _)| item);
            w.put_u32_le(rows.len() as u32);
            for (&item, row) in rows {
                w.put_u32_le(item);
                w.put_u32_le(row.len() as u32);
                for &x in row {
                    w.put_f32_le(x);
                }
            }
        }
    }
}

fn put_ffn(w: &mut Writer, ffn: &Ffn) {
    let dims = ffn.dims();
    w.put_u32_le(dims.len() as u32);
    for &d in dims {
        w.put_u32_le(d as u32);
    }
    let flat = ffn.to_flat();
    w.put_u64_le(flat.len() as u64);
    for &x in &flat {
        w.put_f32_le(x);
    }
}

// ---------------------------------------------------------------------
// Reading: the layout scan, then eager decoding (lazy is crate::lazy)
// ---------------------------------------------------------------------

/// Where the three large sections' payloads sit.
pub(crate) enum ParamLayout {
    /// v1: whole sections, decodable only front to back.
    V1 {
        tables: Extent,
        thetas: Extent,
        users: Extent,
    },
    /// v2: directories parsed and validated, extents absolute.
    V2 {
        tables: [TableEntry; 3],
        thetas: [Extent; 3],
        users: UserIndex,
    },
}

/// The v2 `users` section: a fixed-width directory, then the records.
#[derive(Clone, Copy, Debug)]
pub(crate) struct UserIndex {
    dir: u64,
    block: Extent,
}

/// What [`scan`] learns without decoding a large payload.
pub(crate) struct Layout {
    pub meta: Meta,
    pub popularity: Vec<u32>,
    pub fallback: [Vec<f32>; 3],
    pub params: ParamLayout,
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
/// then decodes the small always-needed sections and, for v2, the three
/// directories. `read(off, len)` is only ever asked for ranges inside
/// `0..len`.
pub(crate) fn scan<B: Deref<Target = [u8]>>(
    len: u64,
    read: impl Fn(u64, u64) -> Result<B, ServeError>,
) -> Result<Layout, ServeError> {
    let container = parse_header(&read(0, HEADER_LEN.min(len))?)?;

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
    let params = if container == 1 {
        ParamLayout::V1 {
            tables,
            thetas,
            users,
        }
    } else {
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
        ParamLayout::V2 {
            tables: parse_table_dir(&dir(tables, 3 * TABLE_DIR_ENTRY)?, tables, &meta)?,
            thetas: parse_theta_dir(&dir(thetas, 3 * THETA_DIR_ENTRY)?, thetas)?,
            users: UserIndex {
                dir: users.0,
                block: (users.0 + user_dir, users.1 - user_dir),
            },
        }
    };
    Ok(Layout {
        meta,
        popularity,
        fallback,
        params,
    })
}

/// Parses the file header, returning the container version.
fn parse_header(head: &[u8]) -> Result<u16, ServeError> {
    let (magic, container, schema) = exactly(head, "header", |r| {
        Ok((r.get_bytes(4)?, r.get_u16_le()?, r.get_u32_le()?))
    })?;
    if magic != MAGIC {
        return Err(err("not an artifact file (bad magic)"));
    }
    if !(MIN_BINFMT_VERSION..=BINFMT_VERSION).contains(&container) {
        return Err(err(format!(
            "unsupported container version {container} (this reader speaks \
             {MIN_BINFMT_VERSION}..={BINFMT_VERSION})"
        )));
    }
    if schema as u64 != ARTIFACT_VERSION {
        return Err(err(format!(
            "artifact schema v{schema} not supported (want v{ARTIFACT_VERSION})"
        )));
    }
    Ok(container)
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

/// Parses the v2 `tables` directory, validating each entry's length and
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

/// Parses the v2 `thetas` directory.
fn parse_theta_dir(dir: &[u8], section: Extent) -> Result<[Extent; 3], ServeError> {
    let entry = |r: &mut Reader| Ok((r.get_u64_le()?, r.get_u64_le()?, ()));
    Ok(parse_tier_dir("thetas", dir, THETA_DIR_ENTRY, section, entry)?.map(|(extent, ())| extent))
}

impl UserIndex {
    /// The `users` section's byte length, directory included.
    pub(crate) fn section_len(&self) -> u64 {
        self.block.0 - self.dir + self.block.1
    }

    /// Parses the next directory entry off `dir`, bounds-checked against
    /// the payload block: the record's extent relative to the block.
    fn entry(&self, user: usize, dir: &mut Reader) -> Result<Extent, ServeError> {
        let off = dir.get_u64_le();
        let len = dir.get_u32_le().map(u64::from);
        match (off, len) {
            (Ok(off), Ok(len)) if off <= self.block.1 && len <= self.block.1 - off => {
                Ok((off, len))
            }
            _ => Err(Self::out_of_bounds(user)),
        }
    }

    fn out_of_bounds(user: usize) -> ServeError {
        err(format!("`users` directory entry {user} is out of bounds"))
    }

    /// Walks the directory in [`READ_CHUNK`]-sized pieces, handing
    /// `each` every user's entry in order.
    fn walk<B: Deref<Target = [u8]>>(
        &self,
        num_users: usize,
        read: impl Fn(u64, u64) -> Result<B, ServeError>,
        mut each: impl FnMut(usize, Extent) -> Result<(), ServeError>,
    ) -> Result<(), ServeError> {
        let per_chunk = (READ_CHUNK / USER_DIR_ENTRY) as usize;
        for first in (0..num_users).step_by(per_chunk) {
            let n = per_chunk.min(num_users - first);
            let dir = read(
                self.dir + first as u64 * USER_DIR_ENTRY,
                n as u64 * USER_DIR_ENTRY,
            )?;
            let mut dir = Reader::new(&dir);
            for user in first..first + n {
                each(user, self.entry(user, &mut dir)?)?;
            }
        }
        Ok(())
    }

    /// Decodes user `user` alone through `read` (the lazy store's touch):
    /// its directory entry, then the record.
    pub(crate) fn get<B: Deref<Target = [u8]>>(
        &self,
        user: usize,
        dims: &TierDims,
        read: impl Fn(u64, u64) -> Result<B, ServeError>,
    ) -> Result<UserRecord, ServeError> {
        let entry = read(self.dir + user as u64 * USER_DIR_ENTRY, USER_DIR_ENTRY)?;
        let (off, len) = self.entry(user, &mut Reader::new(&entry))?;
        exactly(
            &read(self.block.0 + off, len)?,
            format_args!("`users` section at user {user}"),
            |r| {
                let (mut emb, mut history) = (Vec::new(), Vec::new());
                let (tier, solo) = get_user(r, dims, &mut emb, &mut history)?;
                Ok(UserRecord {
                    tier,
                    emb,
                    history,
                    solo,
                })
            },
        )
    }

    /// Decodes every user into one arena. The directory is walked twice:
    /// once alone, demanding the canonical layout (contiguous, in user
    /// order, covering the block exactly) before anything is reserved,
    /// then in step with the record block, each record parsed where
    /// `read` lends it.
    fn decode_all<B: Deref<Target = [u8]>>(
        &self,
        meta: &Meta,
        read: impl Fn(u64, u64) -> Result<B, ServeError>,
    ) -> Result<UserArena, ServeError> {
        let mut cursor = 0u64;
        self.walk(meta.num_users, &read, |user, (off, len)| {
            if off != cursor {
                return Err(Self::out_of_bounds(user));
            }
            cursor += len;
            Ok(())
        })?;
        if cursor != self.block.1 {
            return Err(err("`users` section has trailing bytes"));
        }
        let mut users = reserve_users(meta, self.block.1)?;
        self.walk(meta.num_users, &read, |user, (off, len)| {
            exactly(
                &read(self.block.0 + off, len)?,
                format_args!("`users` section at user {user}"),
                |r| users.push_with(|embs, ids| get_user(r, &meta.dims, embs, ids)),
            )
        })?;
        users.shrink_to_fit();
        Ok(users)
    }
}

/// An arena sized for `meta.num_users` records in `block_len` bytes,
/// before any is parsed. A record is at least a tier byte, two counts, a
/// solo flag and the smallest tier's embedding, which bounds the file's
/// user count by its (already validated) length; embeddings are at most
/// the largest tier's each, and whatever the fixed parts leave is the
/// most the other buffer can hold. Upper bounds only —
/// [`UserArena::shrink_to_fit`] once the records are in.
fn reserve_users(meta: &Meta, block_len: u64) -> Result<UserArena, ServeError> {
    let (users, block) = (meta.num_users as u64, block_len);
    let (smallest, largest) = (
        meta.dims.dim(Tier::Small) as u64,
        meta.dims.dim(Tier::Large) as u64,
    );
    let fixed = users
        .checked_mul(USER_RECORD_MIN + 4 * smallest)
        .filter(|&fixed| fixed <= block)
        .ok_or_else(|| err(format!("`users` section too short for {users} records")))?;
    let scalars = (block - users * USER_RECORD_MIN) / 4;
    Ok(UserArena::with_capacity(
        meta.num_users,
        scalars.min(users.saturating_mul(largest)) as usize,
        ((block - fixed) / 4) as usize,
    ))
}

/// A v1 section: `n` payloads back to back, filling it exactly.
fn back_to_back<T>(
    bytes: &[u8],
    name: &str,
    n: usize,
    mut get: impl FnMut(&mut Reader, usize) -> Result<T, DecodeError>,
) -> Result<Vec<T>, ServeError> {
    // Not pre-sized (`collect` through `Result` starts empty): `n` is the
    // file's claim, and nothing bounds it here.
    exactly(bytes, format_args!("`{name}` section"), |r| {
        (0..n).map(|i| get(r, i)).collect()
    })
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
    let mut at = off + 12;
    while at < off + len {
        let n = READ_CHUNK.min(off + len - at);
        exactly(&read(at, n)?, &what, |r| {
            r.extend_f32s((n / 4) as usize, &mut data)
        })?;
        at += n;
    }
    Ok(Matrix::from_vec(shape.0, shape.1, data))
}

/// The one eager decoder, over any random-access source (a slice for
/// [`ModelArtifact::from_bytes`], a read window over the file for
/// [`ModelArtifact::load_file`]): the layout scan, then every payload
/// parsed into memory where `read` lends it, either container version.
/// Beyond the always-needed small sections it asks for at most
/// [`READ_CHUNK`] bytes or one user record at a time (v1, which has no
/// directories to walk by, asks for whole sections). Lazy file-backed
/// loading is [`ModelArtifact::load_file_lazy`].
pub(crate) fn decode<B: Deref<Target = [u8]>>(
    len: u64,
    read: impl Fn(u64, u64) -> Result<B, ServeError>,
) -> Result<ModelArtifact, ServeError> {
    let layout = scan(len, &read)?;
    let meta = &layout.meta;
    let load = |(off, len): Extent| read(off, len);

    let (tables, thetas, users) = match layout.params {
        ParamLayout::V1 {
            tables,
            thetas,
            users,
        } => {
            let mut arena = reserve_users(meta, users.1)?;
            back_to_back(&load(users)?, "users", meta.num_users, |r, _| {
                arena.push_with(|embs, ids| get_user(r, &meta.dims, embs, ids))
            })?;
            arena.shrink_to_fit();
            (
                back_to_back(&load(tables)?, "tables", 3, |r, t| {
                    get_table(r, (meta.num_items, meta.dims.dim(Tier::ALL[t])))
                })?,
                back_to_back(&load(thetas)?, "thetas", 3, |r, _| get_ffn(r))?,
                arena,
            )
        }
        ParamLayout::V2 {
            tables,
            thetas,
            users: index,
        } => {
            let tables = (tables.iter().zip(Tier::ALL))
                .map(|(&(extent, shape), tier)| {
                    let what = format_args!("`tables` payload at {tier:?}");
                    read_table(extent, shape, what, &read)
                })
                .collect::<Result<Vec<_>, _>>()?;
            let thetas = (thetas.iter().zip(Tier::ALL))
                .map(|(&extent, tier)| {
                    let what = format_args!("`thetas` payload at {tier:?}");
                    exactly(&load(extent)?, what, get_ffn)
                })
                .collect::<Result<Vec<_>, _>>()?;
            (tables, thetas, index.decode_all(meta, &read)?)
        }
    };

    Ok(ModelArtifact::assemble(
        layout.meta,
        Tiers::filled(
            tables.try_into().expect("three tables"),
            thetas.try_into().expect("three predictors"),
        ),
        UserStore::Eager(users),
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

/// Reads one v1 matrix payload, which must have exactly `shape`.
fn get_table(r: &mut Reader, shape: (usize, usize)) -> Result<Matrix, DecodeError> {
    get_shape(r, shape)?;
    // A product that overflows claims more floats than any input holds.
    let data = r.get_f32_vec(shape.0.saturating_mul(shape.1))?;
    Ok(Matrix::from_vec(shape.0, shape.1, data))
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
    // `Ffn::from_flat` panics on a length mismatch; check first (in
    // checked arithmetic — the layer widths are the file's claim).
    let flat_len = (dims.windows(2))
        .try_fold(0usize, |sum, w| {
            sum.checked_add(w[1].checked_mul(w[0])?.checked_add(w[1])?)
        })
        .filter(|&n| n as u64 == declared)
        .ok_or(DecodeError::Invalid { field: "flat" })?;
    Ok(Ffn::from_flat(&dims, &r.get_f32_vec(flat_len)?))
}

/// Parses one user record, appending its embedding to `embs` and its
/// history to `ids` (an arena's flat buffers, or a lone record's own);
/// returns the tier and the private model, if the record carries one.
fn get_user(
    r: &mut Reader,
    dims: &TierDims,
    embs: &mut Vec<f32>,
    ids: &mut Vec<u32>,
) -> Result<(Tier, Option<SoloModel>), DecodeError> {
    use DecodeError::Invalid;
    let tier = *Tier::ALL
        .get(r.get_u8()? as usize)
        .ok_or(Invalid { field: "tier" })?;
    let dim = dims.dim(tier);
    if r.get_u32_le()? as usize != dim {
        return Err(Invalid { field: "emb" });
    }
    r.extend_f32s(dim, embs)?;
    let history_len = r.get_u32_le()? as usize;
    r.extend_u32s(history_len, ids)?;
    if !r.get_bool("solo")? {
        return Ok((tier, None));
    }
    let theta = get_ffn(r)?;
    let n_rows = r.get_u32_le()? as usize;
    // Every row is at least its `(item, width)` prefix.
    let mut rows = HashMap::with_capacity(r.fits(n_rows, 8)?);
    let mut prev = None;
    for _ in 0..n_rows {
        let (item, width) = (r.get_u32_le()?, r.get_u32_le()? as usize);
        // Rows are written in ascending item order; anything else would
        // not re-encode to the same bytes.
        if width != dim || prev.replace(item) >= Some(item) {
            return Err(Invalid { field: "rows" });
        }
        rows.insert(item, r.get_f32_vec(width)?);
    }
    Ok((tier, Some(SoloModel { rows, theta })))
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
    /// flags, an empty history, an empty overlay, and overlay rows
    /// inserted out of item order (the file must hold them sorted).
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
            let n = d.windows(2).map(|w| w[0] * w[1] + w[1]).sum();
            Ffn::from_flat(&d, &ramp(n, salt))
        };
        let mut tally = crate::artifact::Tally::new(num_items, &dims);
        let mut users = UserArena::default();
        for u in 0..5usize {
            let record = {
                let tier = Tier::ALL[u % 3];
                let dim = dims.dim(tier);
                let history: Vec<u32> = (0..u as u32).map(|i| (i * 2 + u as u32) % 6).collect();
                let solo = (u != 3).then(|| SoloModel {
                    rows: [5u32, 1, 3][..u.min(3)]
                        .iter()
                        .map(|&item| (item, ramp(dim, 20 + u + item as usize)))
                        .collect(),
                    theta: ffn(dim, 10 + u),
                });
                UserRecord {
                    tier,
                    emb: ramp(dim, u),
                    history,
                    solo,
                }
            };
            tally.add(record.view());
            users.push(record.view());
        }
        let (popularity, fallback) = tally.finish();
        ModelArtifact {
            model: ModelKind::Ncf,
            dims,
            standalone: true,
            num_items,
            params: Tiers::filled(
                std::array::from_fn(|t| {
                    let cols = dims.dim(Tier::ALL[t]);
                    Matrix::from_vec(num_items, cols, ramp(num_items * cols, 40 + t))
                }),
                std::array::from_fn(|t| ffn(dims.dim(Tier::ALL[t]), 50 + t)),
            ),
            users: UserStore::Eager(users),
            popularity,
            fallback,
        }
    }

    /// Frozen files: `GOLDEN_V2` and `GOLDEN_V2_SOLO` are the pre-streaming
    /// encoder's `to_bytes()` of [`synth_fixture_source`] and
    /// [`solo_fixture_source`]; `FIXTURE_V1` is the v1 encoding of the
    /// former (the v1 writer is gone — the file is the only source).
    const FIXTURE_V1: &[u8] = include_bytes!("../tests/fixtures/artifact_v1.hfa");
    const GOLDEN_V2: &[u8] = include_bytes!("../tests/fixtures/artifact_v2.hfa");
    const GOLDEN_V2_SOLO: &[u8] = include_bytes!("../tests/fixtures/artifact_v2_solo.hfa");

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
            (synth_fixture_source(), GOLDEN_V2),
            (solo_fixture_source(), GOLDEN_V2_SOLO),
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
            std::fs::read(&path).unwrap() == GOLDEN_V2,
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
    fn arenas_keep_no_spare_capacity_and_to_bytes_allocates_once() {
        let dir = scratch_dir("capacity");
        let path = dir.join("model.hfab");
        let profile = hf_dataset::SyntheticProfile::new(700, 400);
        let synthesized = ModelArtifact::synthesize(&profile, TierDims::new(4, 8, 16), 5).unwrap();
        synthesized.save_file(&path).unwrap();
        let bytes = synthesized.to_bytes();
        assert_eq!(bytes.capacity(), bytes.len(), "to_bytes grew its buffer");
        let standalone = artifact(Strategy::Standalone, ModelKind::Ncf);
        for (what, artifact) in [
            ("synthesize", synthesized),
            ("load_file", ModelArtifact::load_file(&path).unwrap()),
            ("from_bytes", ModelArtifact::from_bytes(&bytes).unwrap()),
            (
                "from_session",
                artifact(Strategy::HeteFedRec(Ablation::FULL), ModelKind::Ncf),
            ),
            (
                "from_bytes (standalone)",
                ModelArtifact::from_bytes(&standalone.to_bytes()).unwrap(),
            ),
            ("from_session (standalone)", standalone),
        ] {
            let UserStore::Eager(users) = &artifact.users else {
                panic!("{what}: an eager artifact");
            };
            // What is held — a float per embedding width, an id per
            // interaction — plus a tier byte and two offsets per user.
            assert_eq!(
                users.heap_bytes(),
                4 * users.scalars() + 17 * users.len(),
                "{what}: the arena holds spare capacity"
            );
            let held: usize = (0..users.len())
                .map(|u| users.get(u).expect("user in range"))
                .map(|user| user.emb.len() + user.history.len())
                .sum();
            assert_eq!(users.scalars(), held, "{what}");
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
        assert!(std::fs::read(dir.join("model.hfa")).unwrap() == GOLDEN_V2_SOLO);
        assert_eq!(file_names(&dir), ["blocker", "model.hfa", "taken.hfa"]);
        std::fs::remove_dir_all(&dir).ok();
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
    fn v1_container_still_decodes_identically() {
        assert_eq!(FIXTURE_V1[4], 1, "v1 container tag");
        let b = ModelArtifact::from_bytes(FIXTURE_V1).expect("v1 decodes");
        // Re-encoding the v1 reload as v2 matches the direct v2 bytes.
        assert!(b.to_bytes() == GOLDEN_V2, "v1 -> v2 re-encode drifted");
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
    fn truncations_and_mutations_never_panic() {
        let a = artifact(Strategy::Standalone, ModelKind::Ncf);
        for bytes in [a.to_bytes(), FIXTURE_V1.to_vec()] {
            // Every prefix must fail cleanly (the full buffer is the only
            // valid length).
            for cut in [0, 3, 4, 6, 10, 17, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    ModelArtifact::from_bytes(&bytes[..cut]).is_err(),
                    "cut at {cut} must be rejected"
                );
            }
            // Header corruptions produce typed errors.
            let mut bad = bytes.clone();
            bad[0] = b'X';
            assert!(ModelArtifact::from_bytes(&bad).is_err(), "bad magic");
            let mut bad = bytes.clone();
            bad[4] = 0xFF; // container version
            assert!(ModelArtifact::from_bytes(&bad).is_err(), "bad version");
            let mut bad = bytes.clone();
            bad[6] = 0xFF; // schema version
            assert!(ModelArtifact::from_bytes(&bad).is_err(), "bad schema");
        }
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
