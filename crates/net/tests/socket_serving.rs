//! End-to-end socket serving: the wire answers must be **bit-identical**
//! to in-process `Recommender::recommend_batch` for the same requests,
//! under every transport shape — sequential client round trips,
//! concurrent connections, pipelined backlogs coalescing into
//! micro-batches, tiny queues forcing backpressure — and the server must
//! survive malformed frames and shut down gracefully on the wire-level
//! control signal.

use hetefedrec_core::{Ablation, SessionBuilder, Strategy, TrainConfig};
use hf_dataset::{SplitDataset, SyntheticConfig};
use hf_models::ModelKind;
use hf_net::{
    run_loadgen, serve, verify_exchanges, Client, ErrorCode, Frame, LoadGen, NetError,
    ServerConfig, WireRequest,
};
use hf_serve::{ExportArtifact, RecommendRequest, Recommender, RecommenderBuilder};
use std::time::Duration;

fn trained_recommender() -> Recommender {
    let data = SyntheticConfig::tiny().generate(23);
    let split = SplitDataset::paper_split(&data, 23);
    let mut session = SessionBuilder::new(
        TrainConfig::test_default(ModelKind::Ncf),
        Strategy::HeteFedRec(Ablation::FULL),
        split,
    )
    .eval_every(0)
    .build()
    .expect("valid config");
    session.run_epoch();
    RecommenderBuilder::new(session.export_artifact())
        .default_k(10)
        .build()
        .expect("valid serving config")
}

/// A request mix covering the whole wire-expressible vocabulary.
fn varied_requests(num_users: usize) -> Vec<RecommendRequest> {
    let mut requests = Vec::new();
    for user in 0..num_users.min(12) {
        requests.push(RecommendRequest::new(user));
        requests.push(RecommendRequest::new(user).with_k(3));
        requests.push(RecommendRequest::new(user).exclude([1u32, 5, 2]));
        requests.push(RecommendRequest::new(user).keep_seen());
        requests.push(RecommendRequest::new(user).with_min_popularity(2));
    }
    // Cold-start ids.
    requests.push(RecommendRequest::new(num_users + 100));
    requests.push(RecommendRequest::new(num_users + 101).with_k(7));
    requests
}

#[test]
fn served_rankings_are_bit_identical_to_in_process() {
    let recommender = trained_recommender();
    let num_users = recommender.artifact().num_users();
    let requests = varied_requests(num_users);
    let expected = recommender.recommend_batch(&requests);

    let handle = serve(recommender, "127.0.0.1:0", ServerConfig::default()).expect("server up");
    let mut client = Client::connect(handle.local_addr()).expect("client connects");
    for (request, expect) in requests.iter().zip(&expected) {
        let served = client.recommend(request).expect("served");
        assert_eq!(served.user, expect.user);
        assert_eq!(served.tier, expect.tier);
        assert_eq!(served.cold_start, expect.cold_start);
        assert_eq!(served.items.len(), expect.items.len());
        for (a, b) in served.items.iter().zip(&expect.items) {
            assert_eq!(a.item, b.item, "user {}", request.user);
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "user {}: scores must be bit-identical across the socket",
                request.user
            );
        }
    }
    handle.shutdown();
}

#[test]
fn every_batch_composition_stays_bit_identical() {
    // Hostile queue shapes: batches of one behind a queue of two, wide
    // batches behind the same tiny queue, wide batches behind a roomy one.
    for (batch_max, queue_capacity) in [(1, 2), (32, 2), (32, 64)] {
        let recommender = trained_recommender();
        let requests = varied_requests(recommender.artifact().num_users());
        let expected = recommender.recommend_batch(&requests);
        let config = ServerConfig {
            batch_max,
            queue_capacity,
        };
        let handle = serve(recommender, "127.0.0.1:0", config).expect("server up");
        let addr = handle.local_addr();

        let workers: Vec<_> = (0..4)
            .map(|w| {
                let requests = requests.clone();
                let expected = expected.clone();
                std::thread::spawn(move || {
                    // Interleave differently per worker so batches mix users.
                    let order: Vec<usize> = (0..requests.len())
                        .map(|i| (i * (w + 1)) % requests.len())
                        .collect();
                    // One request in flight per connection: batches are
                    // whatever the four connections happen to overlap.
                    let mut client = Client::connect(addr).expect("client connects");
                    for &idx in &order {
                        let served = client.recommend(&requests[idx]).expect("served");
                        assert_eq!(served, expected[idx], "worker {w} request {idx}");
                    }
                    // Everything in flight at once: the backlog that
                    // builds behind the batcher is what fills a batch
                    // (or, with a queue of two, what blocks the reader).
                    let mut stream = std::net::TcpStream::connect(addr).expect("connects");
                    for (id, &idx) in order.iter().enumerate() {
                        let wire = WireRequest::try_from_request(id as u64, &requests[idx])
                            .expect("wire-expressible");
                        Frame::Request(wire).write_to(&mut stream).expect("sent");
                    }
                    for (id, &idx) in order.iter().enumerate() {
                        match Frame::read_from(&mut stream).expect("answer arrives") {
                            Some(Frame::Response(response)) => {
                                assert_eq!(response.id, id as u64, "answers keep request order");
                                assert_eq!(
                                    response.into_response(),
                                    expected[idx],
                                    "worker {w} pipelined request {idx}"
                                );
                            }
                            other => panic!("expected a response, got {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker panicked");
        }
        handle.shutdown();
    }
}

#[test]
fn tiny_queue_backpressure_loses_nothing() {
    let recommender = trained_recommender();
    let num_users = recommender.artifact().num_users() as u64;
    // Deliberately hostile: queue of 2, batches of 1.
    let config = ServerConfig {
        batch_max: 1,
        queue_capacity: 2,
    };
    let handle = serve(recommender, "127.0.0.1:0", config).expect("server up");

    let load = LoadGen {
        connections: 4,
        target_qps: f64::INFINITY, // back-to-back: the queue must push back
        requests: 400,
        max_duration: Duration::from_secs(30),
        seed: 11,
        users: num_users + 5,
        k: 5,
        capture: false,
    };
    let report = run_loadgen(handle.local_addr(), &load).expect("load run");
    assert_eq!(report.sent, 400, "open loop must send the full schedule");
    assert_eq!(
        report.received, report.sent,
        "backpressure may slow requests, never drop them"
    );
    assert_eq!(report.remote_errors, 0);
    assert!(report.latency.count() > 0);
    handle.shutdown();
}

#[test]
fn loadgen_verification_proves_bit_identity() {
    let recommender = trained_recommender();
    let num_users = recommender.artifact().num_users() as u64;

    // Serve and verify against two *independently built* recommenders
    // over artifacts from the same session export.
    let verifier = {
        // Rebuilding from the served artifact's own bytes pins the
        // "what hf-loadgen --verify-artifact does" path.
        let bytes = recommender.artifact().to_bytes();
        let artifact = hf_serve::ModelArtifact::from_bytes(&bytes).expect("artifact reloads");
        RecommenderBuilder::new(artifact)
            .default_k(10)
            .build()
            .expect("verifier builds")
    };

    let handle = serve(recommender, "127.0.0.1:0", ServerConfig::default()).expect("server up");
    let load = LoadGen {
        connections: 3,
        target_qps: 3000.0,
        requests: 300,
        max_duration: Duration::from_secs(30),
        seed: 5,
        users: num_users + 3,
        k: 0,
        capture: true,
    };
    let report = run_loadgen(handle.local_addr(), &load).expect("load run");
    assert_eq!(report.received, report.sent);
    assert_eq!(report.exchanges.len() as u64, report.received);
    let verified = verify_exchanges(&verifier, &report.exchanges).expect("bit-identical");
    assert_eq!(verified as u64, report.received);
    handle.shutdown();
}

#[test]
fn malformed_frames_get_typed_errors_and_the_connection_survives() {
    let recommender = trained_recommender();
    let expect = recommender.recommend_batch(&[RecommendRequest::new(0)]);
    let handle = serve(recommender, "127.0.0.1:0", ServerConfig::default()).expect("server up");

    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connects");
    // A well-framed but undecodable payload: bad version byte.
    let garbage = [99u8, 1, 2, 3];
    stream
        .write_all(&(garbage.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(&garbage).unwrap();
    stream.flush().unwrap();
    match Frame::read_from(&mut stream).expect("error frame arrives") {
        Some(Frame::Error(e)) => {
            assert_eq!(e.code, ErrorCode::Malformed);
            assert!(e.message.contains("version"), "{}", e.message);
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The stream is still in sync: a real request on the same connection
    // is served normally.
    Frame::Request(WireRequest::new(77, 0))
        .write_to(&mut stream)
        .unwrap();
    match Frame::read_from(&mut stream).expect("response arrives") {
        Some(Frame::Response(response)) => {
            assert_eq!(response.id, 77);
            assert_eq!(response.into_response(), expect[0]);
        }
        other => panic!("expected the served response, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn an_oversized_length_prefix_closes_the_connection() {
    let handle = serve(
        trained_recommender(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server up");
    use std::io::Write;
    let mut stream = std::net::TcpStream::connect(handle.local_addr()).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // A prefix over MAX_FRAME_LEN, then a complete ping: the server never
    // read the body the prefix claims, so the ping's bytes are not a
    // frame boundary it can trust.
    let mut bytes = (hf_net::MAX_FRAME_LEN as u32 + 1).to_le_bytes().to_vec();
    Frame::Ping(9).write_to(&mut bytes).unwrap();
    stream.write_all(&bytes).unwrap();
    match Frame::read_from(&mut stream) {
        Ok(Some(Frame::Error(e))) => assert_eq!(e.code, ErrorCode::Malformed),
        // Closing with the ping unread may reset the connection before
        // the error frame is read.
        Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected a malformed-frame error, got {other:?}"),
    }
    // Then the connection is closed: no pong, and no hang.
    match Frame::read_from(&mut stream) {
        Ok(None) => {}
        Err(NetError::Io(e)) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("the connection must close after an oversized prefix, got {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn ping_and_remote_shutdown_control_the_server() {
    let recommender = trained_recommender();
    let handle = serve(recommender, "127.0.0.1:0", ServerConfig::default()).expect("server up");
    let addr = handle.local_addr();

    let mut client = Client::connect(addr).expect("connects");
    client.ping().expect("pong");
    let response = client.recommend(&RecommendRequest::new(1)).expect("served");
    assert!(!response.items.is_empty());

    // The wire-level control signal stops the server; wait() returns.
    client.shutdown_server().expect("shutdown sent");
    handle.wait();

    // The port no longer serves: either the connect is refused or the
    // exchange fails — a fresh recommend must not succeed.
    let after = Client::connect(addr).and_then(|mut c| {
        c.set_read_timeout(Some(Duration::from_millis(500)))?;
        c.recommend(&RecommendRequest::new(1))
    });
    assert!(after.is_err(), "server must be gone after remote shutdown");
}

#[test]
fn closure_filters_are_rejected_client_side() {
    let recommender = trained_recommender();
    let handle = serve(recommender, "127.0.0.1:0", ServerConfig::default()).expect("server up");
    let mut client = Client::connect(handle.local_addr()).expect("connects");
    let request = RecommendRequest::new(0).with_filter(|item| item < 10);
    match client.recommend(&request) {
        Err(NetError::NotWireExpressible) => {}
        other => panic!("expected NotWireExpressible, got {other:?}"),
    }
    handle.shutdown();
}
