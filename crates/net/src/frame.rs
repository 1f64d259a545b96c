//! The wire vocabulary: every message the serving protocol can exchange.
//!
//! Frames travel as little-endian length-prefixed byte strings in the
//! same style as `hf_fedsim::transport` (and through the same
//! [`hf_tensor::wire`] primitives):
//!
//! ```text
//! len      u32   payload length (not counting this prefix), ≤ MAX_FRAME_LEN
//! payload:
//!   version  u8   FRAME_VERSION (1)
//!   kind     u8   frame discriminant
//!   body     ...  kind-specific fields, little-endian, floats as IEEE-754 bits
//! ```
//!
//! Decoding is strict: unknown versions, unknown kinds, out-of-range
//! enums and non-canonical booleans are [`DecodeError::Invalid`],
//! truncated bodies and trailing bytes the workspace's other two
//! [`DecodeError`]s — never a panic, and never a silently-accepted
//! frame. Because every accepted encoding is
//! canonical, `decode(encode(f)) == f` and `encode(decode(b)) == b`
//! hold for every frame; the byte-mutation property test leans on the
//! second identity.
//!
//! The request body carries the *wire-expressible subset* of
//! [`RecommendRequest`]: explicit exclusions, seen-masking, and the
//! popularity floor. Closure filters ([`RecommendRequest::filter`]) and
//! a `k` beyond `u32::MAX` have no wire form;
//! [`WireRequest::try_from_request`] rejects them.

use crate::NetError;
use hf_dataset::Tier;
use hf_serve::{RecommendRequest, RecommendResponse, ScoredItem};
use hf_tensor::wire::{DecodeError, Reader, Writer};
use std::io::{self, Read, Write};

/// Protocol version this module writes and the only one it reads.
pub const FRAME_VERSION: u8 = 1;

/// Upper bound on a frame payload (16 MiB). A length prefix beyond this
/// is rejected before any allocation — a corrupt or hostile prefix must
/// not turn into a multi-gigabyte `Vec`.
pub const MAX_FRAME_LEN: usize = 16 << 20;

/// What [`Frame::read_from`] reports for a length prefix beyond
/// [`MAX_FRAME_LEN`]. Unlike any other decode failure it leaves the
/// stream out of step: the body the prefix claims was never read.
pub(crate) const OVERSIZED: DecodeError = DecodeError::Invalid { field: "len" };

/// Upper bound on an error-frame message (the only variable-length text
/// on the wire).
const MAX_ERROR_MESSAGE: usize = 64 << 10;

/// Frame discriminants (payload byte 1).
const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;
const KIND_PING: u8 = 4;
const KIND_PONG: u8 = 5;
const KIND_SHUTDOWN: u8 = 6;
const KIND_RELOAD: u8 = 7;
const KIND_RELOADED: u8 = 8;

/// Machine-readable cause carried by an [`Error`](Frame::Error) frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer sent a frame this server could not decode.
    Malformed,
    /// The request was well-formed but not servable (e.g. an unexpected
    /// frame kind in this direction).
    Unsupported,
    /// The server is shutting down and will not serve this request.
    ShuttingDown,
    /// The server failed internally while serving the request.
    Internal,
}

impl ErrorCode {
    fn to_wire(self) -> u16 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::Unsupported => 2,
            ErrorCode::ShuttingDown => 3,
            ErrorCode::Internal => 4,
        }
    }

    fn from_wire(code: u16) -> Option<Self> {
        match code {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::Unsupported),
            3 => Some(ErrorCode::ShuttingDown),
            4 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// The wire-expressible subset of a [`RecommendRequest`], tagged with a
/// correlation id so pipelined responses can be matched to requests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireRequest {
    /// Correlation id, echoed on the matching response or error frame.
    pub id: u64,
    /// User id (ids beyond the artifact's user count cold-start).
    pub user: u64,
    /// Ranking cutoff; `0` means the server's default `k`.
    pub k: u32,
    /// Exclude the user's training history from candidates.
    pub exclude_seen: bool,
    /// Drop items with fewer training interactions than this.
    pub min_popularity: u32,
    /// Explicit item exclusions.
    pub exclude: Vec<u32>,
}

impl WireRequest {
    /// A default query for one user, mirroring [`RecommendRequest::new`].
    pub fn new(id: u64, user: u64) -> Self {
        Self {
            id,
            user,
            k: 0,
            exclude_seen: true,
            min_popularity: 0,
            exclude: Vec::new(),
        }
    }

    /// Converts a library request into its wire form, or fails with
    /// [`NetError::NotWireExpressible`]: a closure filter, or a `k` the
    /// `u32` field cannot hold, has no wire form.
    pub fn try_from_request(id: u64, request: &RecommendRequest) -> Result<Self, NetError> {
        let k = u32::try_from(request.k).map_err(|_| NetError::NotWireExpressible)?;
        if request.filter.is_some() {
            return Err(NetError::NotWireExpressible);
        }
        Ok(Self {
            id,
            user: request.user as u64,
            k,
            exclude_seen: request.exclude_seen,
            min_popularity: request.min_popularity,
            exclude: request.exclude.clone(),
        })
    }

    /// Rebuilds the library request this wire form denotes.
    pub fn to_request(&self) -> RecommendRequest {
        RecommendRequest {
            user: self.user as usize,
            k: self.k as usize,
            exclude: self.exclude.clone(),
            exclude_seen: self.exclude_seen,
            min_popularity: self.min_popularity,
            filter: None,
        }
    }
}

/// A served ranking in wire form.
#[derive(Clone, Debug, PartialEq)]
pub struct WireResponse {
    /// Correlation id of the request this answers.
    pub id: u64,
    /// The queried user id.
    pub user: u64,
    /// Artifact version that produced this ranking — the attribution
    /// key under hot swaps (every response names exactly one artifact
    /// generation).
    pub version: u64,
    /// Tier whose model produced the ranking.
    pub tier: Tier,
    /// `true` when the cold-start fallback path served the user.
    pub cold_start: bool,
    /// Ranked items, best first (scores travel as IEEE-754 bits, so a
    /// round trip is bit-identical).
    pub items: Vec<ScoredItem>,
}

impl WireResponse {
    /// Wraps a recommender response for the wire, stamped with the
    /// artifact version that served it.
    pub fn from_response(id: u64, version: u64, response: &RecommendResponse) -> Self {
        Self {
            id,
            user: response.user as u64,
            version,
            tier: response.tier,
            cold_start: response.cold_start,
            items: response.items.clone(),
        }
    }

    /// Unwraps into the library response type.
    pub fn into_response(self) -> RecommendResponse {
        RecommendResponse {
            user: self.user as usize,
            tier: self.tier,
            cold_start: self.cold_start,
            items: self.items,
        }
    }
}

/// A typed error answer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// Correlation id of the offending request (`0` when the failure was
    /// not attributable to a decoded request).
    pub id: u64,
    /// Machine-readable cause.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

/// Every message the protocol can exchange.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client → server: rank items for one user.
    Request(WireRequest),
    /// Server → client: the ranking for the request with the same id.
    Response(WireResponse),
    /// Server → client: a typed failure.
    Error(WireError),
    /// Liveness probe carrying an opaque token.
    Ping(u64),
    /// Echo of a [`Frame::Ping`] token.
    Pong(u64),
    /// Client → server: drain in-flight requests and stop serving.
    Shutdown,
    /// Client → server: hot-swap to the freshest artifact on disk
    /// without restarting. In-flight batches finish on the old artifact.
    Reload,
    /// Server → client: the swap completed; responses stamped with this
    /// artifact version (or later) come from the fresh artifact.
    Reloaded(u64),
}

impl Frame {
    /// Encodes the frame payload (version, kind, body — without the
    /// outer length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(32);
        w.put_u8(FRAME_VERSION);
        match self {
            Frame::Request(q) => {
                w.put_u8(KIND_REQUEST);
                w.put_u64_le(q.id);
                w.put_u64_le(q.user);
                w.put_u32_le(q.k);
                w.put_u8(q.exclude_seen as u8);
                w.put_u32_le(q.min_popularity);
                w.put_u32_le(q.exclude.len() as u32);
                for &item in &q.exclude {
                    w.put_u32_le(item);
                }
            }
            Frame::Response(r) => {
                w.put_u8(KIND_RESPONSE);
                w.put_u64_le(r.id);
                w.put_u64_le(r.user);
                w.put_u64_le(r.version);
                w.put_u8(r.tier.index() as u8);
                w.put_u8(r.cold_start as u8);
                w.put_u32_le(r.items.len() as u32);
                for item in &r.items {
                    w.put_u32_le(item.item);
                    w.put_f32_le(item.score);
                }
            }
            Frame::Error(e) => {
                w.put_u8(KIND_ERROR);
                w.put_u64_le(e.id);
                w.put_u16_le(e.code.to_wire());
                // Cut on a char boundary: a split multi-byte character
                // would make a frame `decode` itself rejects.
                let mut len = e.message.len().min(MAX_ERROR_MESSAGE);
                while !e.message.is_char_boundary(len) {
                    len -= 1;
                }
                w.put_u32_le(len as u32);
                w.put_bytes(&e.message.as_bytes()[..len]);
            }
            Frame::Ping(token) => {
                w.put_u8(KIND_PING);
                w.put_u64_le(*token);
            }
            Frame::Pong(token) => {
                w.put_u8(KIND_PONG);
                w.put_u64_le(*token);
            }
            Frame::Shutdown => {
                w.put_u8(KIND_SHUTDOWN);
            }
            Frame::Reload => {
                w.put_u8(KIND_RELOAD);
            }
            Frame::Reloaded(version) => {
                w.put_u8(KIND_RELOADED);
                w.put_u64_le(*version);
            }
        }
        w.into_vec()
    }

    /// Decodes a frame payload. Strict: every byte must be consumed and
    /// every field must be canonical.
    pub fn decode(payload: &[u8]) -> Result<Frame, DecodeError> {
        use DecodeError::Invalid;
        Reader::whole(payload, |r| {
            if r.get_u8()? != FRAME_VERSION {
                return Err(Invalid { field: "version" });
            }
            Ok(match r.get_u8()? {
                KIND_REQUEST => Frame::Request(WireRequest {
                    id: r.get_u64_le()?,
                    user: r.get_u64_le()?,
                    k: r.get_u32_le()?,
                    exclude_seen: r.get_bool("exclude_seen")?,
                    min_popularity: r.get_u32_le()?,
                    exclude: r.get_u32_le().and_then(|n| r.get_u32_vec(n as usize))?,
                }),
                KIND_RESPONSE => {
                    let (id, user, version) = (r.get_u64_le()?, r.get_u64_le()?, r.get_u64_le()?);
                    let tier = *Tier::ALL
                        .get(r.get_u8()? as usize)
                        .ok_or(Invalid { field: "tier" })?;
                    let cold_start = r.get_bool("cold_start")?;
                    let n = r.get_u32_le()? as usize;
                    let mut items = Vec::with_capacity(r.fits(n, 8)?);
                    for _ in 0..n {
                        let (item, score) = (r.get_u32_le()?, r.get_f32_le()?);
                        items.push(ScoredItem { item, score });
                    }
                    Frame::Response(WireResponse {
                        id,
                        user,
                        version,
                        tier,
                        cold_start,
                        items,
                    })
                }
                KIND_ERROR => {
                    let id = r.get_u64_le()?;
                    let code =
                        ErrorCode::from_wire(r.get_u16_le()?).ok_or(Invalid { field: "code" })?;
                    let len = r.get_u32_le()? as usize;
                    if len > MAX_ERROR_MESSAGE {
                        return Err(Invalid { field: "message" });
                    }
                    let message = std::str::from_utf8(r.get_bytes(len)?)
                        .map_err(|_| Invalid { field: "message" })?
                        .to_owned();
                    Frame::Error(WireError { id, code, message })
                }
                KIND_PING => Frame::Ping(r.get_u64_le()?),
                KIND_PONG => Frame::Pong(r.get_u64_le()?),
                KIND_SHUTDOWN => Frame::Shutdown,
                KIND_RELOAD => Frame::Reload,
                KIND_RELOADED => Frame::Reloaded(r.get_u64_le()?),
                _ => return Err(Invalid { field: "kind" }),
            })
        })
    }

    /// Writes the frame (length prefix + payload) to a stream.
    pub fn write_to<W: Write>(&self, out: &mut W) -> io::Result<()> {
        let payload = self.encode();
        debug_assert!(payload.len() <= MAX_FRAME_LEN);
        out.write_all(&(payload.len() as u32).to_le_bytes())?;
        out.write_all(&payload)?;
        out.flush()
    }

    /// Reads one frame from a stream. Returns `Ok(None)` on a clean EOF
    /// at a frame boundary; a mid-frame EOF is an
    /// [`UnexpectedEof`](io::ErrorKind::UnexpectedEof) [`NetError::Io`],
    /// and a hostile length prefix fails as a [`NetError::Frame`] *before*
    /// any allocation.
    pub fn read_from<R: Read>(input: &mut R) -> Result<Option<Frame>, NetError> {
        let mut prefix = [0u8; 4];
        if !read_exact_or_eof(input, &mut prefix)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME_LEN {
            return Err(NetError::Frame(OVERSIZED));
        }
        let mut payload = vec![0u8; len];
        input.read_exact(&mut payload)?;
        Ok(Some(Frame::decode(&payload)?))
    }
}

/// Fills `buf` from the stream. `Ok(false)` when the stream was already
/// at EOF (zero bytes read); mid-buffer EOF is an error.
fn read_exact_or_eof<R: Read>(input: &mut R, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match input.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "stream closed mid-frame",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One frame of every kind, with non-trivial field values.
    pub(crate) fn specimen_frames() -> Vec<Frame> {
        vec![
            Frame::Request(WireRequest {
                id: 42,
                user: 7,
                k: 25,
                exclude_seen: false,
                min_popularity: 3,
                exclude: vec![5, 1, 9],
            }),
            Frame::Request(WireRequest::new(u64::MAX, 0)),
            Frame::Response(WireResponse {
                id: 42,
                user: 7,
                version: 3,
                tier: Tier::Large,
                cold_start: true,
                items: vec![
                    ScoredItem {
                        item: 3,
                        score: 1.25,
                    },
                    ScoredItem {
                        item: 11,
                        score: -0.0,
                    },
                ],
            }),
            Frame::Error(WireError {
                id: 9,
                code: ErrorCode::Malformed,
                message: "truncated body".to_string(),
            }),
            Frame::Ping(0xDEAD_BEEF),
            Frame::Pong(0xDEAD_BEEF),
            Frame::Shutdown,
            Frame::Reload,
            Frame::Reloaded(u64::MAX),
        ]
    }

    #[test]
    fn every_kind_roundtrips() {
        for frame in specimen_frames() {
            let payload = frame.encode();
            let back = Frame::decode(&payload).unwrap_or_else(|e| panic!("{frame:?}: {e}"));
            assert_eq!(frame, back);
            // Canonical: re-encoding the decode reproduces the bytes.
            assert_eq!(payload, back.encode());
        }
    }

    #[test]
    fn stream_roundtrip_and_clean_eof() {
        let frames = specimen_frames();
        let mut buf = Vec::new();
        for frame in &frames {
            frame.write_to(&mut buf).unwrap();
        }
        let mut cursor = &buf[..];
        for frame in &frames {
            let got = Frame::read_from(&mut cursor).unwrap().expect("a frame");
            assert_eq!(*frame, got);
        }
        assert!(Frame::read_from(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]);
        match Frame::read_from(&mut &buf[..]) {
            Err(NetError::Frame(OVERSIZED)) => {}
            other => panic!("expected the oversized-prefix error, got {other:?}"),
        }
    }

    #[test]
    fn bad_version_kind_and_fields_are_typed() {
        let invalid = |field| Err(DecodeError::Invalid { field });
        let mut payload = Frame::Shutdown.encode();
        payload[0] = 99;
        assert_eq!(Frame::decode(&payload), invalid("version"));

        let mut payload = Frame::Shutdown.encode();
        payload[1] = 200;
        assert_eq!(Frame::decode(&payload), invalid("kind"));

        // Non-canonical boolean.
        let mut payload = Frame::Request(WireRequest::new(1, 2)).encode();
        payload[22] = 7; // exclude_seen byte: 1 ver + 1 kind + 8 id + 8 user + 4 k
        assert_eq!(Frame::decode(&payload), invalid("exclude_seen"));

        // Out-of-range tier.
        let mut payload = Frame::Response(WireResponse {
            id: 1,
            user: 2,
            version: 1,
            tier: Tier::Small,
            cold_start: false,
            items: vec![],
        })
        .encode();
        payload[26] = 3; // tier byte: 1 ver + 1 kind + 8 id + 8 user + 8 version
        assert_eq!(Frame::decode(&payload), invalid("tier"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for frame in specimen_frames() {
            let mut payload = frame.encode();
            payload.push(0);
            assert_eq!(
                Frame::decode(&payload),
                Err(DecodeError::Trailing { extra: 1 }),
                "{frame:?} must reject trailing bytes"
            );
        }
    }

    #[test]
    fn closure_filters_are_not_wire_expressible() {
        let request = RecommendRequest::new(3).with_filter(|item| item % 2 == 0);
        assert!(matches!(
            WireRequest::try_from_request(1, &request),
            Err(NetError::NotWireExpressible)
        ));
        // The expressible subset converts and round-trips.
        let request = RecommendRequest::new(3)
            .with_k(5)
            .exclude([4, 2])
            .with_min_popularity(2);
        let wire = WireRequest::try_from_request(1, &request).unwrap();
        let back = wire.to_request();
        assert_eq!(back.user, request.user);
        assert_eq!(back.k, request.k);
        assert_eq!(back.exclude, request.exclude);
        assert_eq!(back.exclude_seen, request.exclude_seen);
        assert_eq!(back.min_popularity, request.min_popularity);
    }

    #[test]
    fn a_k_beyond_u32_is_not_wire_expressible() {
        // Wrapped, 2^32 would travel as 0 — the server's default `k`.
        let request = RecommendRequest::new(3).with_k(1 << 32);
        assert!(matches!(
            WireRequest::try_from_request(1, &request),
            Err(NetError::NotWireExpressible)
        ));
        let request = RecommendRequest::new(3).with_k(u32::MAX as usize);
        let wire = WireRequest::try_from_request(1, &request).expect("the largest wire k");
        assert_eq!(wire.to_request().k, u32::MAX as usize);
    }
}
