//! Open-loop load generation against a serving address.
//!
//! A closed-loop driver (send, wait, send) measures only its own
//! willingness to wait: under a slow server it slows down with the
//! server, flattering the tail. This generator is **open-loop**: each
//! connection draws Poisson-process arrival times up front — exponential
//! inter-arrivals from the in-repo deterministic RNG — and a sender
//! thread writes each request at its scheduled instant whether or not
//! earlier answers have come back. A receiver thread per connection
//! matches responses to send timestamps by correlation id and records
//! **socket-to-socket** latency (write instant → response decoded) into
//! a per-connection [`LatencyHistogram`]; per-connection histograms
//! merge losslessly into the report.
//!
//! Everything is seeded: the same `(seed, connections, requests)` drive
//! the same users, filters, and schedule, which is what lets the
//! `--verify` path replay the exact request stream through an in-process
//! `Recommender` and demand bit-identical answers.

use crate::frame::{Frame, ReadFrameError, WireRequest, WireResponse};
use crate::NetError;
use hf_metrics::LatencyHistogram;
use hf_tensor::rng::{substream, Rng, SeedStream};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Purpose key for the load generator's RNG streams.
const LOADGEN_STREAM: SeedStream = SeedStream::Custom(0x4c4f_4144); // "LOAD"

/// Configuration for one load-generation run.
#[derive(Clone, Debug)]
pub struct LoadGen {
    /// Concurrent connections (each with its own sender and receiver
    /// thread).
    pub connections: usize,
    /// Target *aggregate* arrival rate in requests/second, split evenly
    /// across connections. `f64::INFINITY` sends back-to-back.
    pub target_qps: f64,
    /// Total requests across all connections.
    pub requests: usize,
    /// Hard stop for senders whose schedule has fallen hopelessly behind
    /// and for receivers waiting on a stuck server.
    pub max_duration: Duration,
    /// RNG seed; the whole run (users, filters, schedule) derives from
    /// it deterministically.
    pub seed: u64,
    /// User ids are sampled uniformly from `0..users`. Pass a value
    /// slightly above the artifact's user count to exercise cold-start
    /// ids.
    pub users: u64,
    /// Ranking cutoff on every request (`0` = server default).
    pub k: u32,
    /// Capture every `(request, response)` exchange for verification.
    /// Costs memory proportional to `requests`.
    pub capture: bool,
}

impl Default for LoadGen {
    fn default() -> Self {
        Self {
            connections: 1,
            target_qps: 1000.0,
            requests: 1000,
            max_duration: Duration::from_secs(60),
            seed: 7,
            users: 1000,
            k: 0,
            capture: false,
        }
    }
}

/// The outcome of a load-generation run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests written to sockets.
    pub sent: u64,
    /// Responses received and matched.
    pub received: u64,
    /// Typed error frames received.
    pub remote_errors: u64,
    /// Wall time from first send to last receive.
    pub elapsed: Duration,
    /// Socket-to-socket latency distribution across all connections.
    pub latency: LatencyHistogram,
    /// Captured exchanges (when [`LoadGen::capture`] was on), ordered by
    /// correlation id.
    pub exchanges: Vec<(WireRequest, WireResponse)>,
}

impl LoadReport {
    /// Achieved throughput in responses/second.
    pub fn achieved_qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.received as f64 / secs
        } else {
            0.0
        }
    }
}

/// Per-connection shared state between its sender and receiver threads.
struct ConnState {
    /// Send instants by correlation id, removed as responses match.
    pending: Mutex<HashMap<u64, Instant>>,
    /// Set once the sender has written its last request.
    sender_done: AtomicBool,
}

/// Generates one request stream element. Most requests are plain top-K
/// queries; a deterministic minority exercises the wire-expressible
/// filters (exclusions, seen-masking off, popularity floor) so a
/// verification run covers the whole request vocabulary.
fn draw_request(rng: &mut impl Rng, id: u64, users: u64, k: u32) -> WireRequest {
    let mut request = WireRequest::new(id, rng.gen_range(0..users.max(1)));
    request.k = k;
    match rng.gen_range(0..10u32) {
        0 => {
            let n = rng.gen_range(1..4usize);
            request.exclude = (0..n).map(|_| rng.gen_range(0..256u32)).collect();
        }
        1 => request.exclude_seen = false,
        2 => request.min_popularity = rng.gen_range(1..3u32),
        _ => {}
    }
    request
}

/// Runs an open-loop load generation against `addr`.
pub fn run(addr: impl ToSocketAddrs, config: &LoadGen) -> Result<LoadReport, NetError> {
    if config.connections == 0 {
        return Err(NetError::Config("connections must be at least 1"));
    }
    if config.requests == 0 {
        return Err(NetError::Config("requests must be at least 1"));
    }
    if config.target_qps.is_nan() || config.target_qps <= 0.0 {
        return Err(NetError::Config("target_qps must be positive"));
    }

    // Connect everything first so the run starts from a level field.
    let mut streams = Vec::with_capacity(config.connections);
    for _ in 0..config.connections {
        let stream = addr
            .to_socket_addrs()
            .map_err(NetError::Io)?
            .next()
            .ok_or(NetError::Config("address resolved to nothing"))
            .and_then(|a| TcpStream::connect(a).map_err(NetError::Io))?;
        stream.set_nodelay(true).map_err(NetError::Io)?;
        stream
            .set_read_timeout(Some(Duration::from_millis(250)))
            .map_err(NetError::Io)?;
        streams.push(stream);
    }

    let per_conn_rate = config.target_qps / config.connections as f64;
    let base = config.requests / config.connections;
    let extra = config.requests % config.connections;

    let sent = Arc::new(AtomicU64::new(0));
    let received = Arc::new(AtomicU64::new(0));
    let remote_errors = Arc::new(AtomicU64::new(0));
    let captured: Arc<Mutex<Vec<(WireRequest, WireResponse)>>> = Arc::new(Mutex::new(Vec::new()));
    let sent_requests: Arc<Mutex<HashMap<u64, WireRequest>>> = Arc::new(Mutex::new(HashMap::new()));

    let start = Instant::now();
    let deadline = start + config.max_duration;
    let mut receivers = Vec::with_capacity(config.connections);
    let mut senders = Vec::with_capacity(config.connections);

    for (conn_idx, stream) in streams.into_iter().enumerate() {
        // Correlation ids are globally unique: connection-striped.
        let conn_requests = base + usize::from(conn_idx < extra);
        let state = Arc::new(ConnState {
            pending: Mutex::new(HashMap::new()),
            sender_done: AtomicBool::new(false),
        });
        let read_half = stream.try_clone().map_err(NetError::Io)?;

        let receiver = {
            let state = Arc::clone(&state);
            let received = Arc::clone(&received);
            let remote_errors = Arc::clone(&remote_errors);
            let captured = Arc::clone(&captured);
            let sent_requests = Arc::clone(&sent_requests);
            let capture = config.capture;
            std::thread::spawn(move || {
                let mut hist = LatencyHistogram::new();
                let mut read_half = read_half;
                loop {
                    match Frame::read_from(&mut read_half) {
                        Ok(Some(Frame::Response(response))) => {
                            let sent_at = state
                                .pending
                                .lock()
                                .expect("pending poisoned")
                                .remove(&response.id);
                            if let Some(at) = sent_at {
                                hist.record(at.elapsed());
                                received.fetch_add(1, Ordering::Relaxed);
                            }
                            if capture {
                                let request = sent_requests
                                    .lock()
                                    .expect("capture poisoned")
                                    .remove(&response.id);
                                if let Some(request) = request {
                                    captured
                                        .lock()
                                        .expect("capture poisoned")
                                        .push((request, response));
                                }
                            }
                        }
                        Ok(Some(Frame::Error(e))) => {
                            state
                                .pending
                                .lock()
                                .expect("pending poisoned")
                                .remove(&e.id);
                            remote_errors.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(Some(_)) => {}  // pongs etc.: not ours to count
                        Ok(None) => break, // server closed
                        Err(ReadFrameError::Io(e))
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            // Read timeout tick: are we done?
                            let done = state.sender_done.load(Ordering::SeqCst)
                                && state.pending.lock().expect("pending poisoned").is_empty();
                            if done || Instant::now() >= deadline {
                                break;
                            }
                        }
                        Err(_) => break,
                    }
                }
                hist
            })
        };
        receivers.push(receiver);

        let sender = {
            let state = Arc::clone(&state);
            let sent = Arc::clone(&sent);
            let sent_requests = Arc::clone(&sent_requests);
            let capture = config.capture;
            let users = config.users;
            let k = config.k;
            let seed = config.seed;
            let id_base = (conn_idx as u64) << 32;
            std::thread::spawn(move || {
                let mut stream = stream;
                let mut rng = substream(seed, LOADGEN_STREAM, conn_idx as u64);
                let mut at = 0.0f64; // scheduled offset from run start, seconds
                for i in 0..conn_requests {
                    // Exponential inter-arrival → Poisson arrivals.
                    if per_conn_rate.is_finite() {
                        let u: f64 = rng.gen();
                        at += -(1.0 - u).ln() / per_conn_rate;
                    }
                    let request = draw_request(&mut rng, id_base | (i as u64 + 1), users, k);
                    let target = start + Duration::from_secs_f64(at);
                    if let Some(wait) = target.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    if Instant::now() >= deadline {
                        break; // schedule is hopelessly behind
                    }
                    if capture {
                        sent_requests
                            .lock()
                            .expect("capture poisoned")
                            .insert(request.id, request.clone());
                    }
                    // Timestamp *after* any scheduling sleep, right at
                    // the write: the histogram measures socket time, not
                    // generator queueing.
                    state
                        .pending
                        .lock()
                        .expect("pending poisoned")
                        .insert(request.id, Instant::now());
                    if Frame::Request(request).write_to(&mut stream).is_err() {
                        break;
                    }
                    sent.fetch_add(1, Ordering::Relaxed);
                }
                state.sender_done.store(true, Ordering::SeqCst);
                // Half-close: tells the server this connection will send
                // nothing more, while responses keep flowing back.
                let _ = stream.shutdown(Shutdown::Write);
            })
        };
        senders.push(sender);
    }

    for sender in senders {
        sender.join().expect("sender thread panicked");
    }
    let mut latency = LatencyHistogram::new();
    for receiver in receivers {
        let hist = receiver.join().expect("receiver thread panicked");
        latency.merge(&hist);
    }
    let elapsed = start.elapsed();

    let mut exchanges = std::mem::take(&mut *captured.lock().expect("capture poisoned"));
    exchanges.sort_by_key(|(request, _)| request.id);
    Ok(LoadReport {
        sent: sent.load(Ordering::Relaxed),
        received: received.load(Ordering::Relaxed),
        remote_errors: remote_errors.load(Ordering::Relaxed),
        elapsed,
        latency,
        exchanges,
    })
}

/// Replays captured exchanges through an in-process [`Recommender`] and
/// checks every served ranking is **bit-identical** (compared as encoded
/// response frames, so item ids, order, and score bits all must match).
/// Returns the number of verified exchanges.
pub fn verify_exchanges(
    recommender: &hf_serve::Recommender,
    exchanges: &[(WireRequest, WireResponse)],
) -> Result<usize, String> {
    let requests: Vec<_> = exchanges.iter().map(|(q, _)| q.to_request()).collect();
    let expected = recommender.recommend_batch(&requests);
    for ((wire_request, served), expect) in exchanges.iter().zip(&expected) {
        // Adopt the served artifact-version stamp: verification is about
        // the ranking bits, whichever artifact generation produced them.
        let expect_wire = WireResponse::from_response(wire_request.id, served.version, expect);
        let served_bytes = Frame::Response(served.clone()).encode();
        let expect_bytes = Frame::Response(expect_wire).encode();
        if served_bytes != expect_bytes {
            return Err(format!(
                "request {} (user {}) served a different ranking than in-process \
                 recommend_batch",
                wire_request.id, wire_request.user
            ));
        }
    }
    Ok(exchanges.len())
}
