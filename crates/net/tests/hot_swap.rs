//! Hot swap under load: a `Reload` mid-traffic must lose nothing.
//!
//! Concurrent client connections hammer a `serve_slot` server while a
//! control connection swaps the artifact generation. The contract:
//!
//! * no request is dropped or errored by the swap;
//! * every response carries exactly one slot version stamp (1 or 2),
//!   and per connection the stamp is monotone — once a client sees the
//!   fresh generation it never sees the stale one again;
//! * rankings are attributable: a v1-stamped response bit-matches the
//!   in-process stale recommender, a v2-stamped response the fresh one;
//! * a server wired without a reload source answers `Reload` with a
//!   typed error instead of swapping.

use hetefedrec_core::{Ablation, SessionBuilder, Strategy, TrainConfig};
use hf_dataset::{SplitDataset, SyntheticConfig};
use hf_models::ModelKind;
use hf_net::{serve, serve_slot, Client, ErrorCode, NetError, ReloadFn, ServerConfig};
use hf_serve::{
    ArtifactSlot, ExportArtifact, ModelArtifact, RecommendRequest, Recommender, RecommenderBuilder,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Two artifact generations from the same data: a stale export after
/// one epoch and a fresh one after three.
fn two_generations() -> (ModelArtifact, ModelArtifact) {
    let data = SyntheticConfig::tiny().generate(31);
    let split = SplitDataset::paper_split(&data, 31);
    let mut session = SessionBuilder::new(
        TrainConfig::test_default(ModelKind::Ncf),
        Strategy::HeteFedRec(Ablation::FULL),
        split,
    )
    .eval_every(0)
    .build()
    .expect("valid config");
    session.run_epoch();
    let stale = session.export_artifact();
    session.run_epoch();
    session.run_epoch();
    (stale, session.export_artifact())
}

fn recommender(artifact: ModelArtifact) -> Recommender {
    RecommenderBuilder::new(artifact)
        .default_k(8)
        .build()
        .expect("valid serving config")
}

#[test]
fn reload_under_concurrent_load_drops_nothing_and_stamps_every_ranking() {
    let (stale, fresh) = two_generations();
    let num_users = stale.num_users();
    let stale_rec = recommender(stale.clone());
    let fresh_rec = recommender(fresh.clone());

    let reload: ReloadFn = Box::new(move || Ok(recommender(fresh.clone())));
    let config = ServerConfig {
        batch_max: 16,
        queue_capacity: 64,
    };
    let handle = serve_slot(
        ArtifactSlot::new(recommender(stale.clone())),
        Some(reload),
        "127.0.0.1:0",
        config,
    )
    .expect("server up");
    let addr = handle.local_addr();

    let swapped = Arc::new(AtomicBool::new(false));
    let pre_swap_done = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let swapped = Arc::clone(&swapped);
            let pre_swap_done = Arc::clone(&pre_swap_done);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                let mut log: Vec<(usize, u64, hf_serve::RecommendResponse)> = Vec::new();
                let mut i = 0usize;
                // Keep issuing until the swap lands, then a tail of 20
                // more so both generations see traffic from every
                // connection.
                let mut tail = 20;
                loop {
                    let user = (w * 13 + i * 7) % (num_users + 2);
                    let request = RecommendRequest::new(user).with_k(8);
                    let wire = hf_net::WireRequest::try_from_request(i as u64 + 1, &request)
                        .expect("wire-expressible");
                    let served = client.recommend_wire(wire).expect("no request may fail");
                    log.push((user, served.version, served.into_response()));
                    i += 1;
                    if swapped.load(Ordering::Acquire) {
                        tail -= 1;
                        if tail == 0 {
                            break;
                        }
                    } else {
                        pre_swap_done.fetch_add(1, Ordering::Release);
                    }
                }
                log
            })
        })
        .collect();

    // Let every connection serve real pre-swap traffic, then swap.
    while pre_swap_done.load(Ordering::Acquire) < 8 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut control = Client::connect(addr).expect("control connects");
    let version = control.reload().expect("reload acknowledged");
    assert_eq!(version, 2, "first swap bumps the slot to v2");
    swapped.store(true, Ordering::Release);

    let mut saw = [0u64; 2];
    for worker in workers {
        let log = worker.join().expect("worker panicked");
        let mut last = 0u64;
        for (user, version, served) in log {
            assert!(
                version == 1 || version == 2,
                "user {user}: unattributable version {version}"
            );
            assert!(
                version >= last,
                "stamps must be monotone per connection ({last} then {version})"
            );
            last = version;
            saw[version as usize - 1] += 1;
            let reference = if version == 1 { &stale_rec } else { &fresh_rec };
            let expect = reference.recommend(&RecommendRequest::new(user).with_k(8));
            assert_eq!(
                served, expect,
                "user {user}: ranking not bit-identical to generation {version}"
            );
        }
    }
    assert!(saw[0] > 0, "no pre-swap response was served");
    assert!(saw[1] > 0, "no post-swap response was served");
    handle.shutdown();
}

#[test]
fn second_reload_keeps_advancing_the_version() {
    let (stale, fresh) = two_generations();
    let reload: ReloadFn = Box::new(move || Ok(recommender(fresh.clone())));
    let handle = serve_slot(
        ArtifactSlot::new(recommender(stale)),
        Some(reload),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server up");
    let mut client = Client::connect(handle.local_addr()).expect("connects");
    assert_eq!(client.reload().expect("first swap"), 2);
    assert_eq!(client.reload().expect("second swap"), 3);
    let wire = hf_net::WireRequest::new(9, 0);
    assert_eq!(client.recommend_wire(wire).expect("served").version, 3);
    handle.shutdown();
}

#[test]
fn reload_without_a_source_is_a_typed_error_not_a_swap() {
    let (stale, _) = two_generations();
    let handle =
        serve(recommender(stale), "127.0.0.1:0", ServerConfig::default()).expect("server up");
    let mut client = Client::connect(handle.local_addr()).expect("connects");
    match client.reload() {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("expected a typed Unsupported error, got {other:?}"),
    }
    // The connection survives and still serves version 1.
    let served = client
        .recommend_wire(hf_net::WireRequest::new(4, 1))
        .expect("served");
    assert_eq!(served.version, 1);
    handle.shutdown();
}

#[test]
fn failing_reload_source_reports_and_keeps_serving_the_old_artifact() {
    let (stale, _) = two_generations();
    let reload: ReloadFn = Box::new(|| Err("artifact directory is empty".to_string()));
    let handle = serve_slot(
        ArtifactSlot::new(recommender(stale)),
        Some(reload),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server up");
    let mut client = Client::connect(handle.local_addr()).expect("connects");
    match client.reload() {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Internal);
            assert!(message.contains("empty"), "{message}");
        }
        other => panic!("expected a typed Internal error, got {other:?}"),
    }
    let served = client
        .recommend_wire(hf_net::WireRequest::new(4, 1))
        .expect("still serving");
    assert_eq!(served.version, 1, "a failed reload must not advance");
    handle.shutdown();
}
