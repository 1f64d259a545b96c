//! A small synchronous client for the framed serving protocol.
//!
//! [`Client`] keeps one connection and one request in flight at a time
//! — the shape applications and tests want. The open-loop load
//! generator ([`crate::loadgen`]) pipelines many requests per
//! connection instead and talks frames directly.

use crate::frame::{Frame, WireRequest, WireResponse};
use crate::NetError;
use hf_serve::{RecommendRequest, RecommendResponse};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A blocking request/response connection to an `hf-serve` instance.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a serving address.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr).map_err(NetError::Io)?;
        stream.set_nodelay(true).map_err(NetError::Io)?;
        Ok(Self { stream, next_id: 1 })
    }

    /// Keeps retrying [`Client::connect`] until `deadline_total` elapses
    /// — the standard way to wait for a server that is still booting.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Clone,
        deadline_total: Duration,
    ) -> Result<Self, NetError> {
        let deadline = std::time::Instant::now() + deadline_total;
        loop {
            match Self::connect(addr.clone()) {
                Ok(client) => return Ok(client),
                Err(e) => {
                    if std::time::Instant::now() >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        }
    }

    /// Sets a read timeout on the underlying socket (`None` blocks
    /// forever, the default).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), NetError> {
        self.stream.set_read_timeout(timeout).map_err(NetError::Io)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Sends one request and blocks for its answer.
    ///
    /// Fails with [`NetError::NotWireExpressible`] if the request has
    /// no wire form (see [`WireRequest::try_from_request`]).
    pub fn recommend(&mut self, request: &RecommendRequest) -> Result<RecommendResponse, NetError> {
        let wire = WireRequest::try_from_request(self.fresh_id(), request)?;
        self.recommend_wire(wire).map(WireResponse::into_response)
    }

    /// Sends an already-wire-shaped request and blocks for its answer.
    pub fn recommend_wire(&mut self, request: WireRequest) -> Result<WireResponse, NetError> {
        let id = request.id;
        Frame::Request(request)
            .write_to(&mut self.stream)
            .map_err(NetError::Io)?;
        match self.read_frame()? {
            Frame::Response(response) if response.id == id => Ok(response),
            Frame::Error(e) if e.id == id || e.id == 0 => Err(NetError::Remote {
                code: e.code,
                message: e.message,
            }),
            // With one request in flight, anything else is a protocol
            // violation.
            other => Err(NetError::Protocol(format!(
                "expected the answer to request {id}, got {other:?}"
            ))),
        }
    }

    /// Round-trips a ping token.
    pub fn ping(&mut self) -> Result<(), NetError> {
        let token = self.fresh_id() ^ 0x5049_4e47; // "PING"
        Frame::Ping(token)
            .write_to(&mut self.stream)
            .map_err(NetError::Io)?;
        match self.read_frame()? {
            Frame::Pong(echo) if echo == token => Ok(()),
            other => Err(NetError::Protocol(format!(
                "expected pong {token}, got {other:?}"
            ))),
        }
    }

    /// Asks the server to hot-swap to its freshest artifact and blocks
    /// for the acknowledgment; returns the new artifact version.
    /// Responses stamped with that version (or later) are guaranteed to
    /// come from the fresh artifact.
    pub fn reload(&mut self) -> Result<u64, NetError> {
        Frame::Reload
            .write_to(&mut self.stream)
            .map_err(NetError::Io)?;
        match self.read_frame()? {
            Frame::Reloaded(version) => Ok(version),
            Frame::Error(e) => Err(NetError::Remote {
                code: e.code,
                message: e.message,
            }),
            other => Err(NetError::Protocol(format!(
                "expected a reload acknowledgment, got {other:?}"
            ))),
        }
    }

    /// Asks the server to drain in-flight work and stop.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        Frame::Shutdown
            .write_to(&mut self.stream)
            .map_err(NetError::Io)
    }

    fn read_frame(&mut self) -> Result<Frame, NetError> {
        Frame::read_from(&mut self.stream)?.ok_or_else(|| {
            NetError::Protocol("server closed the connection mid-exchange".to_string())
        })
    }
}
