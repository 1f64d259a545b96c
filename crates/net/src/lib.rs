//! # hf_net — the network serving stack
//!
//! Graduates the in-process [`hf_serve::Recommender`] into a long-lived
//! TCP service, std-only like the rest of the workspace (`std::net` +
//! threads, no async runtime, no external crates):
//!
//! * [`frame`] — the wire vocabulary: little-endian length-prefixed
//!   frames (versioned header, typed [`FrameError`]s) carrying the
//!   wire-expressible request subset — exclusions, seen-masking,
//!   popularity floor; closure filters do not travel.
//! * `batcher` *(internal)* — the bounded in-flight queue whose pop
//!   side is the work-conserving **micro-batcher**: it blocks for the
//!   first request, takes what else is already queued (up to
//!   `batch_max`) into one `recommend_batch` call and never waits on a
//!   timer, so an idle server answers at once and a loaded one coalesces
//!   the backlog; a full queue blocks connection readers (backpressure,
//!   not shedding).
//! * [`server`] — the threaded accept loop: per-connection reader
//!   threads, one batcher thread, graceful drain-then-stop shutdown on a
//!   control signal (in-process [`ServerHandle::shutdown`] or an on-wire
//!   [`Frame::Shutdown`]).
//! * [`client`] — a small blocking request/response client.
//! * [`loadgen`] — an open-loop Poisson load generator (deterministic
//!   RNG schedule, concurrent connections, mergeable log-bucketed
//!   latency histograms) with a replay verifier that demands served
//!   rankings be **bit-identical** to in-process `recommend_batch`.
//!
//! Two binaries ship with the crate: `hf-serve` (load an artifact file,
//! serve it) and `hf-loadgen` (drive an address, report p50/p95/p99,
//! optionally verify bit-identity against the same artifact).
//!
//! The serving determinism contract extends across the socket: frames
//! carry scores as raw IEEE-754 bits and `recommend_batch` is
//! bit-identical across batch compositions, so micro-batching — however
//! requests happen to coalesce under load — never changes an answer.

#![warn(missing_docs)]

mod batcher;
pub mod client;
pub mod frame;
pub mod loadgen;
pub mod server;

pub use client::Client;
pub use frame::{
    ErrorCode, Frame, FrameError, ReadFrameError, WireError, WireRequest, WireResponse,
    FRAME_VERSION, MAX_FRAME_LEN,
};
pub use loadgen::{run as run_loadgen, verify_exchanges, LoadGen, LoadReport};
pub use server::{serve, serve_slot, ReloadFn, ServerConfig, ServerHandle};

/// Failure modes of the networking layer.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// Bytes arrived but did not decode as a frame.
    Frame(FrameError),
    /// The peer answered with a typed error frame.
    Remote {
        /// Machine-readable cause.
        code: ErrorCode,
        /// Human-readable detail from the peer.
        message: String,
    },
    /// The peer sent a well-formed frame that violates the protocol
    /// (e.g. an unsolicited response).
    Protocol(String),
    /// The request carries state with no wire form (a closure filter).
    NotWireExpressible,
    /// A configuration field is out of range.
    Config(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Frame(e) => write!(f, "frame error: {e}"),
            NetError::Remote { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::NotWireExpressible => {
                write!(f, "closure filters are not wire-expressible")
            }
            NetError::Config(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Frame(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}
