//! The threaded TCP serving loop.
//!
//! [`serve`] binds a `std::net::TcpListener` and returns a
//! [`ServerHandle`]; the server owns three kinds of threads:
//!
//! * **accept loop** — one thread accepting connections until shutdown;
//! * **connection readers** — one thread per connection decoding frames:
//!   requests are pushed into the bounded job queue (blocking when full,
//!   which is the backpressure contract — see `crate::batcher`), pings
//!   are answered inline, a shutdown frame triggers the graceful stop,
//!   and a malformed-but-framed payload is answered with a typed error
//!   frame *without* closing the connection (frames are length-delimited,
//!   so the stream stays in step); an oversized length prefix is
//!   answered the same way and then closes it, since the body it claims
//!   was never read;
//! * **micro-batcher** — one thread popping whatever is queued (never
//!   waiting for more) and answering each batch through a single
//!   `Recommender::recommend_batch` call; answers are written back under
//!   each connection's write lock.
//!
//! The recommender lives in an [`ArtifactSlot`], so the model can be
//! **hot-swapped under live traffic**: the batcher loads the
//! `(version, recommender)` pair once per popped batch, meaning a batch
//! already in flight finishes on the artifact it started with while the
//! next batch picks up the fresh one — no request is dropped, delayed,
//! or split across artifacts, and every response is stamped with the
//! version that served it. [`serve_slot`] additionally accepts a reload
//! callback; a client's `Reload` frame invokes it (on that connection's
//! reader thread, never blocking the batcher), swaps the result into
//! the slot, and answers `Reloaded(version)`.
//!
//! Graceful shutdown (via [`ServerHandle::shutdown`] or a client's
//! `Shutdown` frame) stops accepting, lets readers push what they have
//! already decoded, drains the queue to completion — every accepted
//! request is answered — then closes the sockets and joins every thread.

use crate::batcher::Queue;
use crate::frame::{ErrorCode, Frame, WireError, WireRequest, WireResponse, OVERSIZED};
use crate::NetError;
use hf_serve::{ArtifactSlot, Recommender};
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for [`serve`].
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Largest micro-batch handed to one `recommend_batch` call
    /// (default 64). A batch is whatever is queued when the batcher
    /// comes back for more, never something it waited for.
    pub batch_max: usize,
    /// Bound on queued-but-unserved requests (default 1024). When full,
    /// connection readers block — backpressure, not load shedding.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            batch_max: 64,
            queue_capacity: 1024,
        }
    }
}

impl ServerConfig {
    fn validate(&self) -> Result<(), NetError> {
        if self.batch_max == 0 {
            return Err(NetError::Config("batch_max must be at least 1"));
        }
        if self.queue_capacity == 0 {
            return Err(NetError::Config("queue_capacity must be at least 1"));
        }
        Ok(())
    }
}

/// One accepted connection: the stream (shared by its reader thread and
/// every writer) plus write serialisation.
struct Conn {
    stream: Mutex<TcpStream>,
    /// The raw handle readers use to `Shutdown` the socket on server
    /// stop (taking the `stream` lock could deadlock with a blocked
    /// writer).
    raw: TcpStream,
}

impl Conn {
    fn send(&self, frame: &Frame) -> io::Result<()> {
        let mut stream = self.stream.lock().expect("connection poisoned");
        frame.write_to(&mut *stream)
    }
}

/// One queued unit of work: a decoded request plus where to answer it.
struct Job {
    conn: Arc<Conn>,
    request: WireRequest,
}

/// Builds a fresh recommender on demand — the `Reload` frame's swap
/// source (typically: re-read the newest artifact file from disk).
pub type ReloadFn = Box<dyn Fn() -> Result<Recommender, String> + Send + Sync>;

struct Shared {
    queue: Queue<Job>,
    stopping: AtomicBool,
    addr: SocketAddr,
    /// Live connections, registered by the accept loop so shutdown can
    /// unblock their readers.
    conns: Mutex<HashMap<u64, Arc<Conn>>>,
    /// Reader threads not yet joined: the accept loop joins the finished
    /// ones before adding the next, shutdown joins the rest, so the table
    /// follows the open connections rather than every one ever accepted.
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// The hot-swappable serving artifact.
    slot: ArtifactSlot,
    /// How to rebuild the recommender on a `Reload` frame (`None` means
    /// the frame is answered `Unsupported`).
    reload: Option<ReloadFn>,
}

impl Shared {
    /// Flips into shutdown mode: stop accepting, stop reading, let the
    /// batcher drain. Idempotent.
    fn begin_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop (it is parked in `accept`).
        let _ = TcpStream::connect(self.addr);
        // Unblock readers parked in `read` — shut the sockets down for
        // reading only, so queued responses can still be written.
        let conns = self.conns.lock().expect("connection table poisoned");
        for conn in conns.values() {
            let _ = conn.raw.shutdown(Shutdown::Read);
        }
    }
}

/// A running server. Dropping the handle **aborts** the process threads
/// only at process exit; call [`ServerHandle::shutdown`] (or send a
/// `Shutdown` frame) for a graceful stop, or [`ServerHandle::wait`] to
/// park until a client stops the server remotely.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful when serving on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests a graceful stop and blocks until every accepted request
    /// has been answered and every thread has exited.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    /// Parks until the server stops (e.g. a client sent a `Shutdown`
    /// frame), then completes the same drain-and-join as
    /// [`ServerHandle::shutdown`].
    pub fn wait(mut self) {
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.batcher.take() {
            let _ = h.join();
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock().expect("readers poisoned"));
        for h in readers {
            let _ = h.join();
        }
        // Close any write halves still open.
        let conns = std::mem::take(&mut *self.shared.conns.lock().expect("conns poisoned"));
        for (_, conn) in conns {
            let _ = conn.raw.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }
}

/// Binds `addr` and serves `recommender` until shutdown. The artifact
/// is wrapped as version 1 of a private slot; swaps require
/// [`serve_slot`].
pub fn serve(
    recommender: Recommender,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> Result<ServerHandle, NetError> {
    serve_slot(ArtifactSlot::new(recommender), None, addr, config)
}

/// Binds `addr` and serves whatever recommender `slot` currently holds,
/// picking up swaps batch-by-batch. With `reload` present, a client's
/// `Reload` frame rebuilds the recommender through it and swaps the
/// result in without restarting the server.
pub fn serve_slot(
    slot: ArtifactSlot,
    reload: Option<ReloadFn>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> Result<ServerHandle, NetError> {
    config.validate()?;
    let listener = TcpListener::bind(addr).map_err(NetError::Io)?;
    let addr = listener.local_addr().map_err(NetError::Io)?;
    let shared = Arc::new(Shared {
        queue: Queue::new(config.queue_capacity),
        stopping: AtomicBool::new(false),
        addr,
        conns: Mutex::new(HashMap::new()),
        readers: Mutex::new(Vec::new()),
        slot,
        reload,
    });

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("hf-net-accept".into())
            .spawn(move || accept_loop(listener, shared))
            .map_err(NetError::Io)?
    };

    let batcher = {
        let shared = Arc::clone(&shared);
        let max = config.batch_max;
        std::thread::Builder::new()
            .name("hf-net-batcher".into())
            .spawn(move || batcher_loop(shared, max))
            .map_err(NetError::Io)?
    };

    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        batcher: Some(batcher),
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let next_conn = AtomicU64::new(0);
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) if shared.stopping.load(Ordering::SeqCst) => break,
            Err(_) => continue,
        };
        if shared.stopping.load(Ordering::SeqCst) {
            // The wake-up connection from begin_shutdown lands here too.
            break;
        }
        let _ = stream.set_nodelay(true);
        // A client that stops draining its socket must not wedge the
        // batcher behind its write lock forever.
        let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
        let raw = match stream.try_clone() {
            Ok(raw) => raw,
            Err(_) => continue,
        };
        let conn = Arc::new(Conn {
            stream: Mutex::new(stream),
            raw,
        });
        let conn_id = next_conn.fetch_add(1, Ordering::Relaxed);
        shared
            .conns
            .lock()
            .expect("connection table poisoned")
            .insert(conn_id, Arc::clone(&conn));
        let reader = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("hf-net-conn-{conn_id}"))
                .spawn(move || {
                    reader_loop(conn_id, conn, &shared);
                })
        };
        if let Ok(handle) = reader {
            let mut readers = shared.readers.lock().expect("reader table poisoned");
            let mut i = 0;
            while i < readers.len() {
                if readers[i].is_finished() {
                    let _ = readers.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            readers.push(handle);
        }
    }
    // No more readers will be created; once existing readers exit, the
    // queue is complete. Close it so the batcher drains and stops.
    // Readers may still be pushing — `close` lets poppers drain what is
    // already queued, and readers observe `stopping` on their next frame.
    shared.queue.close();
}

fn reader_loop(conn_id: u64, conn: Arc<Conn>, shared: &Shared) {
    let mut read_half = conn.raw.try_clone().ok();
    while let Some(stream) = read_half.as_mut() {
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
        match Frame::read_from(stream) {
            Ok(None) => break, // peer closed cleanly
            Ok(Some(Frame::Request(request))) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    let _ = conn.send(&Frame::Error(WireError {
                        id: request.id,
                        code: ErrorCode::ShuttingDown,
                        message: "server is draining".to_string(),
                    }));
                    break;
                }
                let request_id = request.id;
                let job = Job {
                    conn: Arc::clone(&conn),
                    request,
                };
                if !shared.queue.push(job) {
                    // The queue closed mid-push (shutdown raced us): the
                    // request will never be served, say so.
                    let _ = conn.send(&Frame::Error(WireError {
                        id: request_id,
                        code: ErrorCode::ShuttingDown,
                        message: "server is draining".to_string(),
                    }));
                    break;
                }
            }
            Ok(Some(Frame::Ping(token))) => {
                if conn.send(&Frame::Pong(token)).is_err() {
                    break;
                }
            }
            Ok(Some(Frame::Shutdown)) => {
                shared.begin_shutdown();
                break;
            }
            Ok(Some(Frame::Reload)) => {
                // Rebuild on this reader thread: the batcher keeps
                // serving the old artifact until the swap lands, so a
                // slow reload delays nothing but its own acknowledgment.
                let reply = match &shared.reload {
                    Some(reload) => match reload() {
                        Ok(recommender) => Frame::Reloaded(shared.slot.swap(recommender)),
                        Err(message) => Frame::Error(WireError {
                            id: 0,
                            code: ErrorCode::Internal,
                            message,
                        }),
                    },
                    None => Frame::Error(WireError {
                        id: 0,
                        code: ErrorCode::Unsupported,
                        message: "this server has no reload source".to_string(),
                    }),
                };
                if conn.send(&reply).is_err() {
                    break;
                }
            }
            Ok(Some(other)) => {
                // Response/Error/Pong arriving at the server is a
                // protocol violation worth reporting, not a framing
                // failure worth disconnecting over.
                let _ = conn.send(&Frame::Error(WireError {
                    id: 0,
                    code: ErrorCode::Unsupported,
                    message: format!("unexpected {other:?} frame on the server side"),
                }));
            }
            Err(NetError::Frame(e)) => {
                let _ = conn.send(&Frame::Error(WireError {
                    id: 0,
                    code: ErrorCode::Malformed,
                    message: e.to_string(),
                }));
                // A payload its length prefix framed leaves the stream in
                // step, so the connection keeps serving; a refused prefix
                // leaves its body unread, and whatever follows would be
                // parsed from the middle of it.
                if e == OVERSIZED {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    shared
        .conns
        .lock()
        .expect("connection table poisoned")
        .remove(&conn_id);
}

fn batcher_loop(shared: Arc<Shared>, max: usize) {
    while let Some(batch) = shared.queue.pop_batch(max) {
        // One slot load per batch: the whole batch is served — and
        // stamped — by a single artifact generation, and a swap landing
        // mid-batch takes effect at the next pop.
        let (version, recommender) = shared.slot.load();
        let requests: Vec<_> = batch.iter().map(|job| job.request.to_request()).collect();
        let responses = recommender.recommend_batch(&requests);
        debug_assert_eq!(responses.len(), batch.len());
        for (job, response) in batch.iter().zip(&responses) {
            let frame = Frame::Response(WireResponse::from_response(
                job.request.id,
                version,
                response,
            ));
            // A send failure means the client went away; its answer is
            // undeliverable, which harms no one else.
            let _ = job.conn.send(&frame);
        }
    }
    // Queue closed and drained: every accepted request is answered.
    // Release the read halves so lingering readers (blocked clients)
    // exit too.
    let conns = shared.conns.lock().expect("connection table poisoned");
    for conn in conns.values() {
        let _ = conn.raw.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use hetefedrec_core::config::TierDims;
    use hf_dataset::SyntheticProfile;
    use hf_serve::{ModelArtifact, RecommenderBuilder};

    #[test]
    fn reader_handles_are_reaped_as_connections_close() {
        let artifact =
            ModelArtifact::synthesize(&SyntheticProfile::new(8, 16), TierDims::new(4, 8, 16), 3)
                .expect("profile is valid");
        let recommender = RecommenderBuilder::new(artifact).build().expect("builds");
        let handle = serve(recommender, "127.0.0.1:0", ServerConfig::default()).expect("server up");
        let addr = handle.local_addr();

        // Connections that stay open must keep their readers.
        let mut held: Vec<Client> = (0..3)
            .map(|_| {
                let mut client = Client::connect(addr).expect("connects");
                client.ping().expect("pong");
                client
            })
            .collect();
        let mut peak = 0;
        for _ in 0..300 {
            let mut client = Client::connect(addr).expect("connects");
            // The pong proves this connection's reader is registered.
            client.ping().expect("pong");
            drop(client);
            // Its reader deregisters as its last act; the next accept
            // then finds the handle finished.
            while handle.shared.conns.lock().unwrap().len() > held.len() {
                std::thread::yield_now();
            }
            peak = peak.max(handle.shared.readers.lock().unwrap().len());
        }
        assert!(
            peak <= held.len() + 16,
            "{peak} reader handles held for {} open connections",
            held.len()
        );
        for client in &mut held {
            client.ping().expect("a held connection still answers");
        }
        handle.shutdown();
    }
}
