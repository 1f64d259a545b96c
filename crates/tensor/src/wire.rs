//! Little-endian wire primitives — the std-only replacement for the
//! `bytes` crate, shared by every binary format in the workspace.
//!
//! [`Reader`] is a borrowing cursor over `&[u8]`; every accessor returns
//! `Option` so malformed or truncated input surfaces as a clean decode
//! failure, never a panic. [`Writer`] is an append-only `Vec<u8>` builder.
//! The update payloads in `hf_fedsim::transport`, the masked uploads in
//! `hf_secagg`, the compact artifact format in `hf_serve`, and the
//! `hf_net` frame vocabulary all encode through these two types, so
//! "little-endian, length-prefixed" means the same thing everywhere —
//! and [`fuzz_codec`] holds all four to the same mutation property. The
//! scalar accessors are `#[inline]`: every caller is in another crate,
//! and a codec calls them once per float.

use crate::rng::{stream, Rng, SeedStream, StdRng};
use std::fs::{self, File};
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};

/// Little-endian read cursor over a borrowed byte slice.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Reads one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Option<u8> {
        let (&b, rest) = self.buf.split_first()?;
        self.buf = rest;
        Some(b)
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn get_u16_le(&mut self) -> Option<u16> {
        let (head, rest) = self.buf.split_first_chunk::<2>()?;
        self.buf = rest;
        Some(u16::from_le_bytes(*head))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn get_u32_le(&mut self) -> Option<u32> {
        let (head, rest) = self.buf.split_first_chunk::<4>()?;
        self.buf = rest;
        Some(u32::from_le_bytes(*head))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn get_u64_le(&mut self) -> Option<u64> {
        let (head, rest) = self.buf.split_first_chunk::<8>()?;
        self.buf = rest;
        Some(u64::from_le_bytes(*head))
    }

    /// Reads a little-endian `f32` (bit-exact: floats travel as their
    /// IEEE-754 bits).
    #[inline]
    pub fn get_f32_le(&mut self) -> Option<f32> {
        self.get_u32_le().map(f32::from_bits)
    }

    /// Reads `n` raw bytes.
    #[inline]
    pub fn get_bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Some(head)
    }

    /// `Some(n)` when `n` elements of at least `width` bytes each fit in
    /// the bytes remaining — the one place a count claimed by the input
    /// is validated, before anything is allocated for it.
    #[inline]
    pub fn fits(&self, n: usize, width: usize) -> Option<usize> {
        (n.checked_mul(width)? <= self.remaining()).then_some(n)
    }

    /// Reads `n` fixed-width scalars; a hostile count fails
    /// [`Reader::fits`] before anything is allocated for it.
    fn scalars<T, const W: usize>(
        &mut self,
        n: usize,
        from: impl Fn([u8; W]) -> T + 'a,
    ) -> Option<impl ExactSizeIterator<Item = T> + 'a> {
        let bytes = self.get_bytes(self.fits(n, W)? * W)?;
        let scalar = move |chunk: &[u8]| from(chunk.try_into().expect("exact chunk"));
        Some(bytes.chunks_exact(W).map(scalar))
    }

    /// Reads `n` little-endian `f32`s (bit-exact), count checked up front.
    pub fn get_f32_vec(&mut self, n: usize) -> Option<Vec<f32>> {
        Some(self.scalars(n, f32_from_le)?.collect())
    }

    /// Reads `n` little-endian `u32`s, count checked up front.
    pub fn get_u32_vec(&mut self, n: usize) -> Option<Vec<u32>> {
        Some(self.scalars(n, u32::from_le_bytes)?.collect())
    }

    /// Appends `n` little-endian `f32`s (bit-exact) to `out` — how a
    /// decoder fills one flat buffer from many records. On a count that
    /// does not fit, nothing is consumed or appended.
    pub fn extend_f32s(&mut self, n: usize, out: &mut Vec<f32>) -> Option<()> {
        out.extend(self.scalars(n, f32_from_le)?);
        Some(())
    }

    /// Appends `n` little-endian `u32`s to `out`; see
    /// [`Reader::extend_f32s`].
    pub fn extend_u32s(&mut self, n: usize, out: &mut Vec<u32>) -> Option<()> {
        out.extend(self.scalars(n, u32::from_le_bytes)?);
        Some(())
    }

    /// Reads `n` little-endian `u64`s, count checked up front.
    pub fn get_u64_vec(&mut self, n: usize) -> Option<Vec<u64>> {
        Some(self.scalars(n, u64::from_le_bytes)?.collect())
    }
}

fn f32_from_le(bytes: [u8; 4]) -> f32 {
    f32::from_bits(u32::from_le_bytes(bytes))
}

/// Little-endian append-only writer.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn put_u16_le(&mut self, x: u16) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn put_u32_le(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn put_u64_le(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    /// Appends a little-endian `f32` as its IEEE-754 bits.
    #[inline]
    pub fn put_f32_le(&mut self, x: f32) {
        self.put_u32_le(x.to_bits());
    }

    /// Appends raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Empties the writer, keeping its allocation for the next record.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Consumes the writer, returning the encoded buffer.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Writes a file atomically: `body` streams through a `BufWriter` onto
/// a sibling `<path>.tmp`, which replaces `path` by `rename` only after
/// `body` has flushed cleanly, and is removed on any error — so a
/// concurrent reader (a `Reload`, a `latest_artifact` scan) or a crash
/// mid-write sees the previous file or the whole new one, never a
/// prefix. Parent directories are created. Every artifact, checkpoint
/// and snapshot the workspace saves goes through here.
pub fn write_file<T>(
    path: &Path,
    body: impl FnOnce(BufWriter<File>) -> io::Result<T>,
) -> io::Result<T> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        fs::create_dir_all(parent)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    File::create(&tmp)
        // Payloads larger than the buffer pass straight through; it is
        // small records (an artifact's users) this batches into 64 KiB
        // writes.
        .and_then(|file| body(BufWriter::with_capacity(1 << 16, file)))
        .and_then(|done| fs::rename(&tmp, path).map(|()| done))
        .inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })
}

/// The seeded byte-mutation property every codec built on this module
/// is held to, called from each codec's own test file. For `cases`
/// valid encodings drawn from `corpus`, `decode` — which returns the
/// *re-encoding* of whatever it accepted — must
///
/// * reproduce the valid bytes;
/// * reject every strict prefix (all of them for a message of up to
///   4 KiB, 16 seeded cuts for a file beyond that) with an error
///   `prefix_error` allows;
/// * for 40 copies with 1–3 flipped bytes (half the flips biased into
///   the first KiB, where a container keeps its structure), either fail
///   or re-encode to exactly the mutated bytes — a flip in a float
///   travels as data, a flip in a tag or count is rejected.
///
/// Both outcomes must occur over the run, or the test is vacuous.
#[doc(hidden)]
pub fn fuzz_codec<E: std::fmt::Debug>(
    seed: u64,
    cases: usize,
    mut corpus: impl FnMut(&mut StdRng) -> Vec<u8>,
    mut decode: impl FnMut(&[u8]) -> Result<Vec<u8>, E>,
    prefix_error: impl Fn(&E) -> bool,
) {
    let mut rng = stream(seed, SeedStream::Custom(0));
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for case in 0..cases {
        let valid = corpus(&mut rng);
        let again = decode(&valid)
            .unwrap_or_else(|e| panic!("case {case}: a valid input was rejected: {e:?}"));
        assert!(
            again == valid,
            "case {case}: a valid input is not canonical"
        );
        let cuts: Vec<usize> = match valid.len() {
            len @ ..=4096 => (0..len).collect(),
            len => (0..16).map(|_| rng.gen_range(0..len)).collect(),
        };
        for cut in cuts {
            let e = decode(&valid[..cut]).expect_err("a strict prefix must never decode");
            assert!(prefix_error(&e), "case {case}, cut {cut}: unexpected {e:?}");
        }
        for _ in 0..40 {
            let mut mutated = valid.clone();
            for _ in 0..rng.gen_range(1..4usize) {
                let span = if rng.gen_bool(0.5) { 1024 } else { usize::MAX };
                let pos = rng.gen_range(0..span.min(mutated.len()));
                mutated[pos] ^= rng.gen_range(1..=255u32) as u8;
            }
            match decode(&mutated) {
                Ok(again) => {
                    accepted += 1;
                    assert!(
                        again == mutated,
                        "case {case}: accepted a non-canonical mutation"
                    );
                }
                Err(_) => rejected += 1,
            }
        }
    }
    assert!(accepted > 0, "no mutation was ever accepted");
    assert!(rejected > 0, "no mutation was ever rejected");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16_le(0xBEEF);
        w.put_u32_le(123_456);
        w.put_u64_le(u64::MAX - 1);
        w.put_f32_le(-0.0);
        w.put_bytes(b"hi");
        let buf = w.into_vec();
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8(), Some(7));
        assert_eq!(r.get_u16_le(), Some(0xBEEF));
        assert_eq!(r.get_u32_le(), Some(123_456));
        assert_eq!(r.get_u64_le(), Some(u64::MAX - 1));
        assert_eq!(r.get_f32_le().map(f32::to_bits), Some((-0.0f32).to_bits()));
        assert_eq!(r.get_bytes(2), Some(&b"hi"[..]));
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.get_u8(), None);
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u32_le(), None);
        assert_eq!(r.get_bytes(4), None);
        // A failed read consumes nothing.
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.get_u8(), Some(1));
    }

    #[test]
    fn write_file_replaces_whole_or_not_at_all() {
        use std::io::Write as _;
        let dir = std::env::temp_dir().join(format!("hf_wire_atomic_{}", std::process::id()));
        let path = dir.join("nested").join("out.bin");
        write_file(&path, |mut out| {
            out.write_all(b"first").and_then(|()| out.flush())
        })
        .unwrap();
        // A body that fails mid-write — a full disk — leaves the previous
        // file whole and no temp file beside it.
        let failed = write_file(&path, |mut out| {
            out.write_all(b"sec")?;
            out.flush()?;
            Err::<(), _>(io::Error::other("disk full"))
        });
        assert!(failed.is_err());
        assert_eq!(fs::read(&path).unwrap(), b"first");
        let names: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.bin"]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_vec_counts_are_rejected_without_allocating() {
        let buf = [0u8; 8];
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_f32_vec(usize::MAX / 2), None);
        assert_eq!(r.get_u32_vec(u32::MAX as usize), None);
        assert_eq!(r.get_u64_vec(2), None);
        assert_eq!(r.fits(usize::MAX, 2), None);
        assert_eq!(r.fits(2, 4), Some(2));
        assert_eq!(r.get_u64_vec(1), Some(vec![0]));
        let mut r = Reader::new(&buf);
        // Valid small reads still work afterwards.
        assert_eq!(r.get_f32_vec(2).map(|v| v.len()), Some(2));
    }
}
